//! The POP efficiency rollup of a run's own phase record.
//!
//! [`PopTotals`] holds per-rank useful seconds, per-phase seconds and
//! wall seconds; [`PopTotals::report`] turns them into the three numbers
//! of the POP hierarchy the paper sizes DLB's gain with:
//!
//! * **load balance** `LB = Σᵣ usefulᵣ / (n · maxᵣ usefulᵣ)` — eq. 9,
//!   [`load_balance`] over per-rank useful (non-MPI) time;
//! * **communication efficiency** `CommE = maxᵣ usefulᵣ / wall`;
//! * **parallel efficiency** `PE = Σᵣ usefulᵣ / (n · wall)`, which is
//!   `LB × CommE` up to rounding.
//!
//! `wall` is the end of the last phase interval of one run. Totals of
//! several runs — the segments of a served cell, the cells of a job —
//! [`add`](PopTotals::add) up, wall times included, so a segment chain
//! reads like one run of the summed length.
//!
//! Zero guards, chosen so that `PE = LB × CommE` always holds: a run
//! with no wall time is perfectly efficient (PE = CommE = 1), and a rank
//! vector with no useful time is perfectly balanced (LB = 1). A run with
//! wall time but no useful time therefore reads PE = CommE = 0, LB = 1.

use crate::balance::load_balance;
use crate::event::{Phase, Trace};
use cfpd_telemetry::JsonWriter;
use std::fmt::Write as _;

/// Time totals of one run's phase record, or the sum of several.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PopTotals {
    /// Useful (non-MPI) seconds per rank.
    pub useful: Vec<f64>,
    /// Seconds per phase summed over ranks, [`Phase::ALL`] order.
    pub phases: [f64; Phase::ALL.len()],
    /// Wall seconds: the end of the last phase interval, summed over
    /// added runs.
    pub wall: f64,
}

/// The POP efficiencies of a [`PopTotals`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopReport {
    pub parallel_efficiency: f64,
    pub load_balance: f64,
    pub comm_efficiency: f64,
}

impl PopTotals {
    /// The totals of `trace`'s phase intervals (worker-level events are
    /// not read: they include the trailing barrier wait when tracing).
    pub fn of(trace: &Trace) -> PopTotals {
        let mut t = PopTotals {
            useful: vec![0.0; trace.num_ranks.max(1)],
            ..PopTotals::default()
        };
        for e in &trace.events {
            t.phases[e.phase.index()] += e.duration();
            if e.phase != Phase::MpiComm {
                t.useful[e.rank] += e.duration();
            }
            t.wall = t.wall.max(e.t_end);
        }
        t
    }

    /// Add `other` to these totals: rank by rank, phase by phase, and
    /// wall onto wall.
    pub fn add(&mut self, other: &PopTotals) {
        if self.useful.len() < other.useful.len() {
            self.useful.resize(other.useful.len(), 0.0);
        }
        for (a, b) in self.useful.iter_mut().zip(&other.useful) {
            *a += b;
        }
        for (a, b) in self.phases.iter_mut().zip(&other.phases) {
            *a += b;
        }
        self.wall += other.wall;
    }

    pub fn ranks(&self) -> usize {
        self.useful.len().max(1)
    }

    pub fn useful_time(&self) -> f64 {
        self.useful.iter().sum()
    }

    pub fn mpi_time(&self) -> f64 {
        self.phases[Phase::MpiComm.index()]
    }

    /// PE, LB and CommE under the zero guards of the module doc.
    pub fn report(&self) -> PopReport {
        let n = self.ranks() as f64;
        let max_useful = self.useful.iter().cloned().fold(0.0f64, f64::max);
        let wall = self.wall;
        PopReport {
            parallel_efficiency: if wall > 0.0 {
                self.useful_time() / (n * wall)
            } else {
                1.0
            },
            load_balance: load_balance(&self.useful),
            comm_efficiency: if wall > 0.0 { max_useful / wall } else { 1.0 },
        }
    }

    /// Write the rollup as one JSON object (totals, efficiencies,
    /// per-rank useful and per-phase seconds).
    pub fn write_json(&self, w: &mut JsonWriter) {
        let r = self.report();
        w.begin_object();
        w.key("ranks").u64(self.ranks() as u64);
        w.key("wall_time_s").f64(self.wall);
        w.key("useful_time_s").f64(self.useful_time());
        w.key("mpi_time_s").f64(self.mpi_time());
        w.key("parallel_efficiency").f64(r.parallel_efficiency);
        w.key("load_balance").f64(r.load_balance);
        w.key("comm_efficiency").f64(r.comm_efficiency);
        w.key("per_rank_useful_s").begin_array();
        for v in &self.useful {
            w.f64(*v);
        }
        w.end_array();
        w.key("per_phase_s").begin_object();
        for (p, secs) in Phase::ALL.iter().zip(&self.phases) {
            w.key(p.key()).f64(*secs);
        }
        w.end_object();
        w.end_object();
    }

    /// The fixed-width `[pop]` block of the telemetry summary.
    pub fn render_table(&self) -> String {
        let r = self.report();
        let mut out = String::from("[pop]\n");
        let _ = writeln!(out, "  ranks               {:>12}", self.ranks());
        let _ = writeln!(out, "  wall_time_s         {:>12.6}", self.wall);
        let _ = writeln!(out, "  useful_time_s       {:>12.6}", self.useful_time());
        let _ = writeln!(out, "  mpi_time_s          {:>12.6}", self.mpi_time());
        let _ = writeln!(out, "  parallel_efficiency {:>12.6}", r.parallel_efficiency);
        let _ = writeln!(out, "  load_balance        {:>12.6}", r.load_balance);
        let _ = writeln!(out, "  comm_efficiency     {:>12.6}", r.comm_efficiency);
        for (p, secs) in Phase::ALL.iter().zip(&self.phases) {
            let _ = writeln!(out, "  phase.{:<13} {:>12.6}", p.key(), secs);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rank 0: 2 s useful + 1 s MPI, ends at 3. Rank 1: 1 s useful,
    /// then MPI until 3.
    fn two_rank_trace() -> Trace {
        let mut t = Trace::new(2);
        t.record(0, Phase::Assembly, 0.0, 2.0);
        t.record(0, Phase::MpiComm, 2.0, 3.0);
        t.record(1, Phase::Particles, 0.0, 1.0);
        t.record(1, Phase::MpiComm, 1.0, 3.0);
        t
    }

    #[test]
    fn rollup_matches_hand_computation() {
        let t = PopTotals::of(&two_rank_trace());
        assert_eq!(t.ranks(), 2);
        assert_eq!(t.wall, 3.0);
        assert_eq!(t.useful, vec![2.0, 1.0]);
        assert_eq!(t.mpi_time(), 3.0);
        assert_eq!(t.phases, [3.0, 2.0, 0.0, 0.0, 0.0, 1.0]);
        // PE = 3 / (2*3) = 0.5; LB = 3 / (2*2) = 0.75; CommE = 2/3.
        let r = t.report();
        assert!((r.parallel_efficiency - 0.5).abs() < 1e-12);
        assert!((r.load_balance - 0.75).abs() < 1e-12);
        assert!((r.comm_efficiency - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.parallel_efficiency - r.load_balance * r.comm_efficiency).abs() < 1e-12);

        // Two segments of the same run add up to a run of twice the
        // length with the same efficiencies: walls sum, they do not max.
        let mut sum = t.clone();
        sum.add(&t);
        assert_eq!(sum.wall, 6.0);
        assert_eq!(sum.report(), r);
        let mut from_empty = PopTotals::default();
        from_empty.add(&t);
        assert_eq!(from_empty, t);

        let mut w = JsonWriter::new();
        t.write_json(&mut w);
        let json = w.finish();
        assert!(
            json.contains(r#""parallel_efficiency":0.5,"load_balance":0.75"#),
            "{json}"
        );
        assert!(
            json.contains(r#""per_phase_s":{"mpi":3.0,"assembly":2.0,"#),
            "{json}"
        );
        assert!(t.render_table().contains("  phase.particles"));
    }

    #[test]
    fn zero_guards_keep_the_pop_identity() {
        // No wall time at all: perfectly efficient.
        let idle = PopTotals::of(&Trace::new(3)).report();
        assert_eq!(
            idle,
            PopReport {
                parallel_efficiency: 1.0,
                load_balance: 1.0,
                comm_efficiency: 1.0
            }
        );
        // Wall time but no useful time: PE = CommE = 0, LB = 1.
        let mut t = Trace::new(2);
        t.record(0, Phase::MpiComm, 0.0, 1.0);
        let r = PopTotals::of(&t).report();
        assert_eq!(
            r,
            PopReport {
                parallel_efficiency: 0.0,
                load_balance: 1.0,
                comm_efficiency: 0.0
            }
        );
        assert_eq!(r.parallel_efficiency, r.load_balance * r.comm_efficiency);
    }
}

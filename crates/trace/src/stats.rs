//! Aggregate efficiency metrics derived from a trace — the quantities a
//! performance analyst reads off a Paraver view: parallel efficiency,
//! communication fraction, per-rank useful duty cycle.

use crate::event::Trace;
use crate::pop::PopTotals;

/// Efficiency summary of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Total wall time (end of last event).
    pub wall_time: f64,
    /// Σ useful (non-MPI) busy time over ranks.
    pub useful_time: f64,
    /// Σ time inside MPI.
    pub mpi_time: f64,
    /// Useful time / (ranks × wall): the classic parallel efficiency.
    pub parallel_efficiency: f64,
    /// MPI time / Σ busy time.
    pub comm_fraction: f64,
    /// Per-rank useful duty cycle (useful_r / wall).
    pub duty_cycle: Vec<f64>,
}

/// Compute the efficiency summary from the run's [`PopTotals`] (phase
/// intervals only, so the wall clock is the end of the last phase).
pub fn trace_stats(trace: &Trace) -> TraceStats {
    let t = PopTotals::of(trace);
    let (wall, useful_total, mpi) = (t.wall, t.useful_time(), t.mpi_time());
    let busy = useful_total + mpi;
    TraceStats {
        wall_time: wall,
        useful_time: useful_total,
        mpi_time: mpi,
        parallel_efficiency: t.report().parallel_efficiency,
        comm_fraction: if busy > 0.0 { mpi / busy } else { 0.0 },
        duty_cycle: t
            .useful
            .iter()
            .map(|&u| if wall > 0.0 { u / wall } else { 0.0 })
            .collect(),
    }
}

impl TraceStats {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "wall {:.4}s, parallel efficiency {:.1}%, comm fraction {:.1}%",
            self.wall_time,
            100.0 * self.parallel_efficiency,
            100.0 * self.comm_fraction
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    #[test]
    fn perfectly_busy_trace_is_fully_efficient() {
        let mut t = Trace::new(2);
        t.record(0, Phase::Assembly, 0.0, 1.0);
        t.record(1, Phase::Assembly, 0.0, 1.0);
        let s = trace_stats(&t);
        assert!((s.parallel_efficiency - 1.0).abs() < 1e-12);
        assert_eq!(s.comm_fraction, 0.0);
        assert_eq!(s.duty_cycle, vec![1.0, 1.0]);
    }

    #[test]
    fn idle_rank_halves_efficiency() {
        let mut t = Trace::new(2);
        t.record(0, Phase::Particles, 0.0, 2.0);
        // Rank 1 never works.
        let s = trace_stats(&t);
        assert!((s.parallel_efficiency - 0.5).abs() < 1e-12);
        assert_eq!(s.duty_cycle[1], 0.0);
    }

    #[test]
    fn mpi_time_counts_as_overhead() {
        let mut t = Trace::new(1);
        t.record(0, Phase::Solver1, 0.0, 3.0);
        t.record(0, Phase::MpiComm, 3.0, 4.0);
        let s = trace_stats(&t);
        assert!((s.comm_fraction - 0.25).abs() < 1e-12);
        assert!((s.parallel_efficiency - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_trace() {
        let s = trace_stats(&Trace::new(4));
        assert_eq!(s.wall_time, 0.0);
        assert_eq!(s.parallel_efficiency, 1.0);
        assert!(s.summary().contains("efficiency"));
    }
}

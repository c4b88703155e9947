//! Online POP-style efficiency rollup.
//!
//! A fixed (rank × phase) table of f64 time accumulators fed by the
//! simulation's phase attribution (the same `(rank, phase, t_start,
//! t_end)` tuples the wall-clock trace records, but accumulated, not
//! logged). From it the POP metrics of the paper's methodology are
//! derived online:
//!
//! * **load balance** `LB = Σᵣ usefulᵣ / (n · maxᵣ usefulᵣ)` — eq. 9
//!   over per-rank useful (non-MPI) time, matching
//!   `cfpd_trace::load_balance`;
//! * **communication efficiency** `CommE = maxᵣ usefulᵣ / wall`;
//! * **parallel efficiency** `PE = LB × CommE = Σᵣ usefulᵣ / (n · wall)`
//!   — matching `cfpd_trace::trace_stats`.
//!
//! `wall` is the latest phase end time seen on any rank, which equals
//! `Trace::total_time()` when the same attributions feed both sides —
//! the 1e-9 agreement the telemetry regression test pins.

use crate::metrics::{Pad, SHARDS};
use std::sync::atomic::{AtomicU64, Ordering};

/// Ranks the static table can attribute. Recordings for ranks beyond
/// this are counted in `telemetry.pop_dropped` and otherwise ignored.
pub const MAX_RANKS: usize = 64;

/// Phase attribution of a span, mirroring `cfpd_trace::Phase` (same
/// order; kept separate so this crate stays dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopPhase {
    Mpi,
    Assembly,
    Solver1,
    Solver2,
    Sgs,
    Particles,
}

impl PopPhase {
    pub const ALL: [PopPhase; 6] = [
        PopPhase::Mpi,
        PopPhase::Assembly,
        PopPhase::Solver1,
        PopPhase::Solver2,
        PopPhase::Sgs,
        PopPhase::Particles,
    ];

    pub fn name(self) -> &'static str {
        match self {
            PopPhase::Mpi => "mpi",
            PopPhase::Assembly => "assembly",
            PopPhase::Solver1 => "solver1",
            PopPhase::Solver2 => "solver2",
            PopPhase::Sgs => "sgs",
            PopPhase::Particles => "particles",
        }
    }

    /// Stable index into [`PopPhase::ALL`] (also the flight recorder's
    /// phase code).
    pub fn index(self) -> usize {
        match self {
            PopPhase::Mpi => 0,
            PopPhase::Assembly => 1,
            PopPhase::Solver1 => 2,
            PopPhase::Solver2 => 3,
            PopPhase::Sgs => 4,
            PopPhase::Particles => 5,
        }
    }
}

const PHASES: usize = PopPhase::ALL.len();

/// One f64 accumulator as atomic bits. Each cell has a single writing
/// rank thread, but the CAS loop keeps concurrent writers correct too.
struct F64Cell(AtomicU64);

impl F64Cell {
    const fn new() -> F64Cell {
        F64Cell(AtomicU64::new(0)) // 0u64 == 0.0f64 bits
    }

    fn add(&self, v: f64) {
        let _ = self.0.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
            Some((f64::from_bits(bits) + v).to_bits())
        });
    }

    fn max(&self, v: f64) {
        let _ = self.0.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
            let cur = f64::from_bits(bits);
            if v > cur { Some(v.to_bits()) } else { None }
        });
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

struct RankRow {
    phase_seconds: [F64Cell; PHASES],
    /// Latest phase end time this rank attributed (run-epoch seconds).
    last_end: F64Cell,
}

struct PopTable {
    rows: [Pad<RankRow>; MAX_RANKS],
    /// Spans attributed to ranks ≥ MAX_RANKS (sharded, like a counter).
    dropped: [Pad<AtomicU64>; SHARDS],
}

fn table() -> &'static PopTable {
    static TABLE: std::sync::OnceLock<PopTable> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| PopTable {
        rows: std::array::from_fn(|_| {
            Pad(RankRow {
                phase_seconds: std::array::from_fn(|_| F64Cell::new()),
                last_end: F64Cell::new(),
            })
        }),
        dropped: std::array::from_fn(|_| Pad(AtomicU64::new(0))),
    })
}

/// Attribute the span `[t_start, t_end]` (run-epoch seconds) on `rank`
/// to `phase`. No-op while telemetry is disabled.
#[inline]
pub fn phase(rank: usize, phase: PopPhase, t_start: f64, t_end: f64) {
    if !crate::enabled() {
        return;
    }
    let t = table();
    if rank >= MAX_RANKS {
        t.dropped[crate::metrics::shard_index()].0.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let row = &t.rows[rank].0;
    row.phase_seconds[phase.index()].add(t_end - t_start);
    row.last_end.max(t_end);
}

/// Zero the table.
pub fn reset() {
    let t = table();
    for row in &t.rows {
        for c in &row.0.phase_seconds {
            c.reset();
        }
        row.0.last_end.reset();
    }
    for d in &t.dropped {
        d.0.store(0, Ordering::Relaxed);
    }
}

/// The POP rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct PopReport {
    /// Ranks that attributed any time (contiguous prefix assumed; the
    /// highest recording rank defines `ranks`).
    pub ranks: usize,
    /// Latest phase end over all ranks — the online wall clock.
    pub wall_time: f64,
    /// Σ per-rank useful (non-MPI) seconds.
    pub useful_time: f64,
    /// Σ per-rank MPI seconds.
    pub mpi_time: f64,
    /// `useful / (ranks × wall)`.
    pub parallel_efficiency: f64,
    /// Eq. 9 over per-rank useful time.
    pub load_balance: f64,
    /// `parallel_efficiency / load_balance` (= max useful / wall).
    pub comm_efficiency: f64,
    /// Per-rank useful seconds, rank order.
    pub per_rank_useful: Vec<f64>,
    /// Seconds per phase summed over ranks, [`PopPhase::ALL`] order.
    pub per_phase: Vec<(&'static str, f64)>,
    /// Spans dropped for ranks ≥ [`MAX_RANKS`].
    pub dropped: u64,
}

/// Merge the table into a [`PopReport`]; `None` if nothing was
/// recorded.
pub fn report() -> Option<PopReport> {
    let t = table();
    let mut ranks = 0;
    for (r, row) in t.rows.iter().enumerate() {
        let any = row.0.last_end.get() > 0.0
            || row.0.phase_seconds.iter().any(|c| c.get() > 0.0);
        if any {
            ranks = r + 1;
        }
    }
    let dropped = t
        .dropped
        .iter()
        .fold(0u64, |acc, d| acc.wrapping_add(d.0.load(Ordering::Relaxed)));
    if ranks == 0 {
        return None;
    }

    let mut per_rank_useful = vec![0.0f64; ranks];
    let mut mpi_time = 0.0f64;
    let mut wall = 0.0f64;
    let mut per_phase: Vec<(&'static str, f64)> =
        PopPhase::ALL.iter().map(|p| (p.name(), 0.0)).collect();
    for (r, row) in t.rows.iter().take(ranks).enumerate() {
        for (i, p) in PopPhase::ALL.iter().enumerate() {
            let s = row.0.phase_seconds[i].get();
            per_phase[i].1 += s;
            if *p == PopPhase::Mpi {
                mpi_time += s;
            } else {
                per_rank_useful[r] += s;
            }
        }
        wall = wall.max(row.0.last_end.get());
    }
    let useful_time: f64 = per_rank_useful.iter().sum();
    let max_useful = per_rank_useful.iter().cloned().fold(0.0f64, f64::max);
    let n = ranks as f64;
    // Zero-guard conventions follow cfpd_trace: an idle run is perfectly
    // efficient, an all-zero phase vector is perfectly balanced.
    let parallel_efficiency = if wall > 0.0 { useful_time / (n * wall) } else { 1.0 };
    let load_balance = if max_useful > 0.0 { useful_time / (n * max_useful) } else { 1.0 };
    let comm_efficiency = if wall > 0.0 && max_useful > 0.0 { max_useful / wall } else { 1.0 };
    Some(PopReport {
        ranks,
        wall_time: wall,
        useful_time,
        mpi_time,
        parallel_efficiency,
        load_balance,
        comm_efficiency,
        per_rank_useful,
        per_phase,
        dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollup_matches_hand_computation() {
        let _g = crate::testutil::guard();
        crate::set_enabled(true);
        reset();
        // Rank 0: 2 s useful + 1 s MPI, ends at 3. Rank 1: 1 s useful,
        // idles until 3 (its last span still ends at 3).
        phase(0, PopPhase::Assembly, 0.0, 2.0);
        phase(0, PopPhase::Mpi, 2.0, 3.0);
        phase(1, PopPhase::Particles, 0.0, 1.0);
        phase(1, PopPhase::Mpi, 1.0, 3.0);
        crate::set_enabled(false);
        let r = report().expect("recorded");
        assert_eq!(r.ranks, 2);
        assert_eq!(r.wall_time, 3.0);
        assert_eq!(r.useful_time, 3.0);
        assert_eq!(r.mpi_time, 3.0);
        // PE = 3 / (2*3) = 0.5; LB = 3 / (2*2) = 0.75; CommE = 2/3.
        assert!((r.parallel_efficiency - 0.5).abs() < 1e-12);
        assert!((r.load_balance - 0.75).abs() < 1e-12);
        assert!((r.comm_efficiency - 2.0 / 3.0).abs() < 1e-12);
        // The POP identity: PE = LB × CommE.
        assert!(
            (r.parallel_efficiency - r.load_balance * r.comm_efficiency).abs() < 1e-12
        );
        reset();
        assert!(report().is_none());
    }

    #[test]
    fn out_of_range_rank_is_counted_not_recorded() {
        let _g = crate::testutil::guard();
        crate::set_enabled(true);
        reset();
        phase(MAX_RANKS + 3, PopPhase::Sgs, 0.0, 1.0);
        phase(0, PopPhase::Sgs, 0.0, 1.0);
        crate::set_enabled(false);
        let r = report().expect("recorded");
        assert_eq!(r.ranks, 1);
        assert_eq!(r.dropped, 1);
        reset();
    }
}

//! Trace analysis: critical path through the happens-before graph and
//! the POP-style lost-cycles decomposition.
//!
//! The happens-before graph has two edge kinds:
//!
//! * **program order** — consecutive worker-0 intervals on one rank
//!   (they are non-overlapping by construction, so `prev.t_end ≤
//!   next.t_start`);
//! * **message edges** — each [`MsgRecord`] orders `t_send` on the
//!   sender before `t_recv` on the receiver. Barriers, allreduces,
//!   bcasts and gathers in `cfpd-simmpi` are built from tagged
//!   point-to-point sends, so collective dependency edges are message
//!   records too — no special cases.
//!
//! The critical path is computed by a forward dynamic program over
//! events in global `t_end` order, maximizing accumulated *useful*
//! (non-wait, non-overhead) time. Credits along a chain occupy disjoint
//! wall-clock intervals, which yields the two bounds the test suite
//! pins: path length ≥ max per-rank useful time (the program-order
//! chain is always available) and ≤ wall time.

use crate::event::{worker_view, Phase, Trace, WorkerEvent, WorkerState};
use crate::pop::{PopReport, PopTotals};

/// One hop of the critical path (a maximal run of same-rank credit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpSegment {
    pub rank: usize,
    pub t_start: f64,
    pub t_end: f64,
    /// Useful time credited inside this segment.
    pub useful: f64,
}

/// Critical-path result.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Accumulated useful time along the best chain.
    pub length: f64,
    /// Wall-clock span of the trace's worker events.
    pub wall: f64,
    /// Max per-rank useful time (lower bound on `length`).
    pub max_rank_useful: f64,
    /// Rank where the path ends.
    pub end_rank: usize,
    /// Per-rank segments of the path, in time order.
    pub segments: Vec<CpSegment>,
}

/// Compute the critical path. Works on the worker-0 timeline (the
/// thread that issues MPI calls); falls back to phase intervals for
/// untraced runs, where the path degenerates to the busiest rank's
/// program-order chain (no message records → no cross-rank edges).
pub fn critical_path(trace: &Trace) -> CriticalPath {
    let events: Vec<WorkerEvent> =
        worker_view(trace).into_iter().filter(|e| e.worker == 0).collect();
    let n = trace.num_ranks.max(1);
    let wall = events.iter().map(|e| e.t_end).fold(0.0, f64::max);

    // Process in global t_end order so every predecessor — same-rank or
    // message-edge — is finalized before it is queried.
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by(|&a, &b| {
        events[a]
            .t_end
            .total_cmp(&events[b].t_end)
            .then(events[a].rank.cmp(&events[b].rank))
            .then(events[a].t_start.total_cmp(&events[b].t_start))
    });

    // Messages grouped by destination rank, sorted by t_recv, with a
    // per-rank cursor: each wait event consumes the receives that
    // completed during it.
    let mut msgs_in: Vec<Vec<(f64, f64, usize)>> = vec![Vec::new(); n]; // (t_recv, t_send, src)
    for m in &trace.messages {
        if m.src < n && m.dst < n {
            msgs_in[m.dst].push((m.t_recv, m.t_send, m.src));
        }
    }
    for v in &mut msgs_in {
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    let mut msg_cursor = vec![0usize; n];

    // `frontier[r]` = (t_end, cp, last useful path node) of the newest
    // finalized event on rank r — the chain value available to any
    // successor at t ≥ t_end. Message-edge credits are only taken when
    // the frontier has not advanced past t_send, so a chain's credited
    // intervals stay disjoint in wall time (⇒ length ≤ wall).
    let mut frontier: Vec<(f64, f64, Option<usize>)> = vec![(0.0, 0.0, None); n];
    let mut cp = vec![0.0f64; events.len()];
    // `node[i]` = last useful event on the best chain ending at i
    // (i itself when i is useful); `chain[i]` = the useful node before
    // event i on that chain.
    let mut node: Vec<Option<usize>> = vec![None; events.len()];
    let mut chain: Vec<Option<usize>> = vec![None; events.len()];

    const EPS: f64 = 1e-12;
    for &i in &order {
        let e = &events[i];
        let (_, mut best, mut best_node) = frontier[e.rank];
        if e.state == WorkerState::MpiWait {
            // Message edges: receives completing within this wait bring
            // the sender's accumulated credit at t_send.
            let inbox = &msgs_in[e.rank];
            let cur = &mut msg_cursor[e.rank];
            while *cur < inbox.len() && inbox[*cur].0 <= e.t_end + EPS {
                let (_t_recv, t_send, src) = inbox[*cur];
                *cur += 1;
                let (src_end, src_cp, src_node) = frontier[src];
                if src_end <= t_send + EPS && src_cp > best {
                    best = src_cp;
                    best_node = src_node;
                }
            }
        }
        let credit = if e.state.is_useful() { e.duration() } else { 0.0 };
        cp[i] = best + credit;
        if credit > 0.0 {
            node[i] = Some(i);
            chain[i] = best_node;
        } else {
            node[i] = best_node;
        }
        // Per-rank events are sequential and processed in t_end order,
        // so cp is monotone along a rank: the frontier just advances.
        if e.t_end >= frontier[e.rank].0 {
            frontier[e.rank] = (e.t_end, cp[i], node[i]);
        }
    }

    // Per-rank useful totals (lower bound on the path length via each
    // rank's program-order chain).
    let mut useful = vec![0.0f64; n];
    for e in &events {
        if e.state.is_useful() {
            useful[e.rank] += e.duration();
        }
    }
    let max_rank_useful = useful.iter().fold(0.0f64, |a, &b| a.max(b));

    let end = order
        .iter()
        .copied()
        .max_by(|&a, &b| cp[a].total_cmp(&cp[b]).then(a.cmp(&b)));
    let (length, end_rank) = match end {
        Some(i) => (cp[i], events[i].rank),
        None => (0.0, 0),
    };

    // Walk the chain backwards; coalesce consecutive same-rank nodes
    // into segments. Chain pointers always reference earlier-processed
    // nodes, so the walk terminates.
    let mut segments: Vec<CpSegment> = Vec::new();
    let mut cursor = end.and_then(|i| node[i]);
    while let Some(i) = cursor {
        let e = &events[i];
        match segments.last_mut() {
            Some(s) if s.rank == e.rank => {
                s.t_start = s.t_start.min(e.t_start);
                s.useful += e.duration();
            }
            _ => segments.push(CpSegment {
                rank: e.rank,
                t_start: e.t_start,
                t_end: e.t_end,
                useful: e.duration(),
            }),
        }
        cursor = chain[i];
    }
    segments.reverse();

    CriticalPath { length, wall, max_rank_useful, end_rank, segments }
}

/// One row of the lost-cycles table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LostCyclesRow {
    pub rank: usize,
    pub phase: Phase,
    /// Time this rank spent in the phase.
    pub time: f64,
    /// max over ranks of `time` minus this rank's `time`: cycles lost
    /// to load imbalance in this phase.
    pub imbalance: f64,
}

/// POP-style lost-cycles decomposition of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct LostCycles {
    /// Wall time (end of last phase interval, as in [`PopTotals`]).
    pub wall: f64,
    /// Per-(rank, phase) rows, rank-major, only phases that occur.
    pub rows: Vec<LostCyclesRow>,
    /// Per-rank useful time (non-MpiComm phase intervals).
    pub useful: Vec<f64>,
    /// Per-rank time blocked inside MPI (from worker MpiWait intervals;
    /// zero for untraced runs).
    pub mpi_wait: Vec<f64>,
    /// Per-rank remainder `wall − useful − mpi_wait`: runtime overhead
    /// plus untraced idle time.
    pub overhead: Vec<f64>,
    /// The headline efficiencies: the run's [`PopTotals::report`].
    pub pop: PopReport,
}

/// Compute the lost-cycles decomposition. The headline efficiencies,
/// the wall clock and the per-rank useful time are the run's
/// [`PopTotals`]; the rows and the MPI-wait split come on top.
pub fn lost_cycles(trace: &Trace) -> LostCycles {
    let totals = PopTotals::of(trace);
    let n = totals.ranks();
    let wall = totals.wall;

    let mut phase_time = vec![[0.0f64; Phase::ALL.len()]; n];
    let mut phase_seen = [false; Phase::ALL.len()];
    for e in &trace.events {
        phase_time[e.rank][e.phase.index()] += e.duration();
        phase_seen[e.phase.index()] = true;
    }

    let mut mpi_wait = vec![0.0f64; n];
    for w in &trace.workers {
        if w.worker == 0 && w.state == WorkerState::MpiWait {
            mpi_wait[w.rank] += w.duration();
        }
    }

    let mut rows = Vec::new();
    for (p, &phase) in Phase::ALL.iter().enumerate() {
        if !phase_seen[p] {
            continue;
        }
        let max_t = (0..n).map(|r| phase_time[r][p]).fold(0.0f64, f64::max);
        for (rank, pt) in phase_time.iter().enumerate() {
            rows.push(LostCyclesRow {
                rank,
                phase,
                time: pt[p],
                imbalance: max_t - pt[p],
            });
        }
    }
    rows.sort_by_key(|a| (a.rank, a.phase));

    let overhead: Vec<f64> = (0..n)
        .map(|r| (wall - totals.useful[r] - mpi_wait[r]).max(0.0))
        .collect();

    LostCycles { wall, rows, pop: totals.report(), useful: totals.useful, mpi_wait, overhead }
}

impl LostCycles {
    /// Fixed-width text table for `cfpd trace analyze`.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "lost-cycles decomposition (per rank x phase, seconds)\n\
             rank  phase             time        imbalance\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:>4}  {:<16}  {:<10.6}  {:<10.6}\n",
                r.rank,
                r.phase.name(),
                r.time,
                r.imbalance
            ));
        }
        out.push_str("\nrank  useful      mpi-wait    overhead\n");
        for r in 0..self.useful.len() {
            out.push_str(&format!(
                "{:>4}  {:<10.6}  {:<10.6}  {:<10.6}\n",
                r, self.useful[r], self.mpi_wait[r], self.overhead[r]
            ));
        }
        out.push_str(&format!(
            "\nwall {:.6}s  PE {:.4}  LB {:.4}  CommE {:.4}\n",
            self.wall,
            self.pop.parallel_efficiency,
            self.pop.load_balance,
            self.pop.comm_efficiency
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_path_of_single_rank_is_its_useful_time() {
        let mut t = Trace::new(1);
        t.record(0, Phase::Assembly, 0.0, 2.0);
        t.record(0, Phase::Solver1, 2.0, 5.0);
        let cp = critical_path(&t);
        assert!((cp.length - 5.0).abs() < 1e-12);
        assert!((cp.max_rank_useful - 5.0).abs() < 1e-12);
        assert!(cp.length <= cp.wall + 1e-12);
    }

    #[test]
    fn message_edge_routes_path_through_sender() {
        // Rank 0 computes [0,4]; rank 1 computes [0,1], waits [1,5]
        // for a message sent at t=4, then computes [5,6]. True critical
        // path: 0's four seconds + 1's final second = 5.
        let mut t = Trace::new(2);
        t.record_worker(0, 0, WorkerState::Assembly, 0.0, 4.0);
        t.record_worker(1, 0, WorkerState::Assembly, 0.0, 1.0);
        t.record_worker(1, 0, WorkerState::MpiWait, 1.0, 5.0);
        t.record_worker(1, 0, WorkerState::Solver1, 5.0, 6.0);
        t.record_msg(0, 1, 7, 8, 4.0, 5.0);
        let cp = critical_path(&t);
        assert!((cp.length - 5.0).abs() < 1e-12, "length = {}", cp.length);
        assert_eq!(cp.end_rank, 1);
        assert!(cp.length >= cp.max_rank_useful - 1e-12);
        assert!(cp.length <= cp.wall + 1e-12);
        // The path must visit both ranks.
        let ranks: std::collections::HashSet<usize> =
            cp.segments.iter().map(|s| s.rank).collect();
        assert!(ranks.contains(&0) && ranks.contains(&1), "segments: {:?}", cp.segments);
    }

    #[test]
    fn path_bounds_hold_with_ignored_stale_message() {
        // A message whose sender frontier already advanced past t_send
        // must not inflate the path.
        let mut t = Trace::new(2);
        t.record_worker(0, 0, WorkerState::Assembly, 0.0, 10.0);
        t.record_worker(1, 0, WorkerState::MpiWait, 0.0, 2.0);
        t.record_worker(1, 0, WorkerState::Sgs, 2.0, 3.0);
        t.record_msg(0, 1, 1, 8, 0.5, 1.0);
        let cp = critical_path(&t);
        assert!(cp.length <= cp.wall + 1e-12);
        assert!(cp.length >= cp.max_rank_useful - 1e-12);
    }

    #[test]
    fn lost_cycles_decomposition_sums_to_wall() {
        let mut t = Trace::new(2);
        t.record(0, Phase::Assembly, 0.0, 3.0);
        t.record(1, Phase::Assembly, 0.0, 2.0);
        t.record_worker(0, 0, WorkerState::Assembly, 0.0, 3.0);
        t.record_worker(1, 0, WorkerState::Assembly, 0.0, 2.0);
        t.record_worker(1, 0, WorkerState::MpiWait, 2.0, 3.0);
        let lc = lost_cycles(&t);
        assert_eq!(lc.wall, 3.0);
        for r in 0..2 {
            let sum = lc.useful[r] + lc.mpi_wait[r] + lc.overhead[r];
            assert!((sum - lc.wall).abs() < 1e-12, "rank {r}: {sum}");
        }
        // Rank 1 lost 1s to imbalance in Assembly.
        let row = lc.rows.iter().find(|r| r.rank == 1).unwrap();
        assert!((row.imbalance - 1.0).abs() < 1e-12);
        assert!((lc.pop.parallel_efficiency - 5.0 / 6.0).abs() < 1e-12);
        assert!((lc.pop.load_balance - 5.0 / 6.0).abs() < 1e-12);
        assert!((lc.pop.comm_efficiency - 1.0).abs() < 1e-12);
        assert!(lc.render().contains("PE 0.8333"));
    }

    #[test]
    fn lost_cycles_matches_trace_stats_definitions() {
        // PE here must equal trace_stats' parallel_efficiency: both
        // read the one rollup.
        let mut t = Trace::new(2);
        t.record(0, Phase::Solver1, 0.0, 2.0);
        t.record(0, Phase::MpiComm, 2.0, 2.5);
        t.record(1, Phase::Solver1, 0.0, 2.5);
        let lc = lost_cycles(&t);
        let st = crate::stats::trace_stats(&t);
        assert!((lc.pop.parallel_efficiency - st.parallel_efficiency).abs() < 1e-15);
        assert!((lc.wall - st.wall_time).abs() < 1e-15);
    }
}

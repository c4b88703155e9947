//! Discrete-event simulation of ranks executing phase programs on the
//! virtual cluster, with optional DLB core lending.
//!
//! Each rank runs a *program*: a sequence of work segments (malleable —
//! they speed up with extra cores — or serial, like communication
//! latency), signal posts and signal waits. Ranks co-located on a node
//! share its cores; with DLB enabled, a rank blocked in a wait lends its
//! cores to the node's working ranks, exactly the LeWI behaviour of
//! `cfpd-dlb` but in virtual time — this is what lets us reproduce the
//! paper's 96/192-core results from a 1-core container.

use cfpd_trace::{Phase, Trace};
use std::collections::HashMap;

/// One step of a rank's program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Segment {
    /// Compute `amount` work units tagged as `phase`. If `malleable`,
    /// the rate scales with the cores currently held; otherwise it runs
    /// at single-core speed (communication latencies, serial sections).
    Work { phase: Phase, amount: f64, malleable: bool },
    /// Increment signal `id` by 1 (non-blocking).
    Post { id: u32 },
    /// Block until signal `id` reaches `count`.
    Wait { id: u32, count: u32 },
}

/// A rank's placement and program.
#[derive(Debug, Clone)]
pub struct RankProgram {
    pub node: usize,
    /// Cores this rank owns on its node (fractional under
    /// oversubscription, e.g. coupled 96+96 on 96 cores).
    pub owned_cores: f64,
    pub segments: Vec<Segment>,
}

/// DES parameters.
#[derive(Debug, Clone, Copy)]
pub struct DesConfig {
    /// Work units per second per core (platform core speed × strategy
    /// factors are baked into segment amounts by the scenario builder).
    pub core_speed: f64,
    /// Enable LeWI lending of blocked ranks' cores.
    pub dlb: bool,
    /// Parallel efficiency of running a malleable segment on `c` cores;
    /// the scenario supplies the platform's curve.
    pub efficiency_loss: f64,
}

impl DesConfig {
    #[inline]
    fn rate(&self, cores: f64, malleable: bool) -> f64 {
        if !malleable {
            return self.core_speed * cores.min(1.0);
        }
        self.core_speed * cores * crate::platform::efficiency_curve(self.efficiency_loss, cores)
    }
}

/// Result of a DES run.
#[derive(Debug, Clone)]
pub struct DesResult {
    /// Wall time until the last rank finished.
    pub total_time: f64,
    /// Per-rank, per-phase busy time intervals (Paraver-style trace).
    pub trace: Trace,
    /// Per-rank finish times.
    pub finish: Vec<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum RankState {
    /// Executing segment `seg` with `remaining` work.
    Working,
    /// Blocked in a Wait.
    Blocked,
    /// Program finished.
    Done,
}

/// Run the DES. Panics on deadlock (a Wait that can never be satisfied —
/// a scenario construction bug, not a runtime condition).
pub fn simulate(programs: &[RankProgram], cfg: &DesConfig) -> DesResult {
    let n = programs.len();
    let mut seg_idx = vec![0usize; n];
    let mut remaining = vec![0.0f64; n];
    let mut state = vec![RankState::Working; n];
    let mut signals: HashMap<u32, u32> = HashMap::new();
    let mut now = 0.0f64;
    let mut work_start = vec![0.0f64; n];
    let mut finish = vec![0.0f64; n];
    let mut trace = Trace::new(n);
    let num_nodes = programs.iter().map(|p| p.node).max().map_or(1, |m| m + 1);

    // Initialize: enter first segments.
    #[allow(clippy::needless_range_loop)]
    for r in 0..n {
        if programs[r].segments.is_empty() {
            state[r] = RankState::Done;
        }
    }

    // Advance a rank through non-work segments until it hits Work, a
    // blocking Wait, or the end. Returns true if any signal was posted
    // (which may unblock others).
    fn settle(
        r: usize,
        programs: &[RankProgram],
        seg_idx: &mut [usize],
        remaining: &mut [f64],
        state: &mut [RankState],
        signals: &mut HashMap<u32, u32>,
        now: f64,
        work_start: &mut [f64],
        finish: &mut [f64],
    ) -> bool {
        let mut posted = false;
        loop {
            let segs = &programs[r].segments;
            if seg_idx[r] >= segs.len() {
                if state[r] != RankState::Done {
                    state[r] = RankState::Done;
                    finish[r] = now;
                }
                return posted;
            }
            match segs[seg_idx[r]] {
                Segment::Work { amount, .. } => {
                    if amount <= 0.0 {
                        seg_idx[r] += 1;
                        continue;
                    }
                    remaining[r] = amount;
                    state[r] = RankState::Working;
                    work_start[r] = now;
                    return posted;
                }
                Segment::Post { id } => {
                    *signals.entry(id).or_insert(0) += 1;
                    posted = true;
                    seg_idx[r] += 1;
                }
                Segment::Wait { id, count } => {
                    if signals.get(&id).copied().unwrap_or(0) >= count {
                        seg_idx[r] += 1;
                    } else {
                        state[r] = RankState::Blocked;
                        return posted;
                    }
                }
            }
        }
    }

    // Settle everyone initially, repeating while posts unblock waiters.
    loop {
        let mut any_posted = false;
        for r in 0..n {
            if state[r] == RankState::Done {
                continue;
            }
            // Re-settle blocked ranks too (their signal may be ready now).
            if state[r] == RankState::Blocked || remaining[r] == 0.0 {
                any_posted |= settle(
                    r, programs, &mut seg_idx, &mut remaining, &mut state, &mut signals, now,
                    &mut work_start, &mut finish,
                );
            }
        }
        if !any_posted {
            break;
        }
    }

    let max_events = 200_000_000usize;
    let mut events = 0usize;
    loop {
        events += 1;
        assert!(events < max_events, "DES runaway");
        // Core allocation per node.
        let mut node_lent = vec![0.0f64; num_nodes];
        let mut node_workers = vec![0usize; num_nodes];
        for r in 0..n {
            match state[r] {
                RankState::Working => node_workers[programs[r].node] += 1,
                RankState::Blocked | RankState::Done => {
                    if cfg.dlb {
                        node_lent[programs[r].node] += programs[r].owned_cores;
                    }
                }
            }
        }
        let cores_of = |r: usize| -> f64 {
            let node = programs[r].node;
            let extra = if cfg.dlb && node_workers[node] > 0 {
                node_lent[node] / node_workers[node] as f64
            } else {
                0.0
            };
            programs[r].owned_cores + extra
        };

        // Find the earliest finisher among working ranks.
        let mut dt_min = f64::INFINITY;
        for r in 0..n {
            if state[r] == RankState::Working {
                if let Segment::Work { malleable, .. } = programs[r].segments[seg_idx[r]] {
                    let rate = cfg.rate(cores_of(r), malleable);
                    let dt = remaining[r] / rate.max(1e-300);
                    dt_min = dt_min.min(dt);
                }
            }
        }
        if !dt_min.is_finite() {
            // Nobody is working: either all done or deadlock.
            if state.iter().all(|&s| s == RankState::Done) {
                break;
            }
            panic!("DES deadlock: blocked ranks with no pending work");
        }

        // Advance time; drain work.
        now += dt_min;
        let mut finished_any = false;
        for r in 0..n {
            if state[r] != RankState::Working {
                continue;
            }
            if let Segment::Work { phase, malleable, .. } = programs[r].segments[seg_idx[r]] {
                let rate = cfg.rate(cores_of(r), malleable);
                remaining[r] -= rate * dt_min;
                if remaining[r] <= 1e-12 * rate.max(1.0) {
                    remaining[r] = 0.0;
                    trace.record(r, phase, work_start[r], now);
                    seg_idx[r] += 1;
                    finished_any = true;
                    settle(
                        r, programs, &mut seg_idx, &mut remaining, &mut state, &mut signals,
                        now, &mut work_start, &mut finish,
                    );
                }
            }
        }
        debug_assert!(finished_any);
        // Posts may unblock waiters; iterate to fixpoint.
        loop {
            let mut any = false;
            for r in 0..n {
                if state[r] == RankState::Blocked {
                    any |= settle(
                        r, programs, &mut seg_idx, &mut remaining, &mut state, &mut signals,
                        now, &mut work_start, &mut finish,
                    );
                }
            }
            if !any {
                break;
            }
        }
    }

    DesResult { total_time: now, trace, finish }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A group barrier at `id` for `participants` ranks: `Post{id}`
    /// followed by `Wait{id, participants}`.
    fn barrier_segments(id: u32, participants: u32) -> [Segment; 2] {
        [Segment::Post { id }, Segment::Wait { id, count: participants }]
    }

    fn cfg(dlb: bool) -> DesConfig {
        DesConfig { core_speed: 1.0, dlb, efficiency_loss: 0.0 }
    }

    fn work(amount: f64) -> Segment {
        Segment::Work { phase: Phase::Assembly, amount, malleable: true }
    }

    #[test]
    fn single_rank_time_is_work_over_speed() {
        let progs = vec![RankProgram { node: 0, owned_cores: 2.0, segments: vec![work(10.0)] }];
        let r = simulate(&progs, &cfg(false));
        assert!((r.total_time - 5.0).abs() < 1e-9, "{}", r.total_time);
    }

    #[test]
    fn barrier_waits_for_slowest() {
        let mk = |amount: f64| RankProgram {
            node: 0,
            owned_cores: 1.0,
            segments: {
                let mut s = vec![work(amount)];
                s.extend(barrier_segments(1, 2));
                s.push(work(1.0));
                s
            },
        };
        let r = simulate(&[mk(1.0), mk(9.0)], &cfg(false));
        assert!((r.total_time - 10.0).abs() < 1e-9, "{}", r.total_time);
        // Rank 0 idles 8 units at the barrier.
        assert!((r.finish[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn dlb_accelerates_the_straggler() {
        // 2 ranks, 1 core each, same node. Work 1 and 9. Without DLB the
        // barrier releases at t=9. With DLB: rank 0 finishes at 1, lends
        // its core; rank 1 runs the remaining 8 units at rate 2 ->
        // finishes at 1 + 4 = 5.
        let mk = |amount: f64| RankProgram {
            node: 0,
            owned_cores: 1.0,
            segments: {
                let mut s = vec![work(amount)];
                s.extend(barrier_segments(1, 2));
                s
            },
        };
        let no = simulate(&[mk(1.0), mk(9.0)], &cfg(false));
        let yes = simulate(&[mk(1.0), mk(9.0)], &cfg(true));
        assert!((no.total_time - 9.0).abs() < 1e-9);
        assert!((yes.total_time - 5.0).abs() < 1e-9, "{}", yes.total_time);
    }

    #[test]
    fn dlb_does_not_cross_nodes() {
        let mk = |node: usize, amount: f64| RankProgram {
            node,
            owned_cores: 1.0,
            segments: {
                let mut s = vec![work(amount)];
                s.extend(barrier_segments(1, 2));
                s
            },
        };
        // Straggler on node 1; the idle rank is on node 0: no help.
        let r = simulate(&[mk(0, 1.0), mk(1, 9.0)], &cfg(true));
        assert!((r.total_time - 9.0).abs() < 1e-9, "{}", r.total_time);
    }

    #[test]
    fn non_malleable_work_ignores_extra_cores() {
        let progs = vec![
            RankProgram {
                node: 0,
                owned_cores: 1.0,
                segments: vec![Segment::Work {
                    phase: Phase::MpiComm,
                    amount: 4.0,
                    malleable: false,
                }],
            },
            RankProgram { node: 0, owned_cores: 3.0, segments: vec![] },
        ];
        let r = simulate(&progs, &cfg(true));
        // Rank 1 is Done instantly and lends 3 cores; the comm segment
        // still runs at single-core rate.
        assert!((r.total_time - 4.0).abs() < 1e-9, "{}", r.total_time);
    }

    #[test]
    fn producer_consumer_signal_pipeline() {
        // Fluid posts velocity after its work; particles wait for it —
        // the coupled-mode dependency (Fig. 3).
        let fluid = RankProgram {
            node: 0,
            owned_cores: 1.0,
            segments: vec![work(3.0), Segment::Post { id: 7 }, work(3.0)],
        };
        let particles = RankProgram {
            node: 0,
            owned_cores: 1.0,
            segments: vec![Segment::Wait { id: 7, count: 1 }, work(2.0)],
        };
        let r = simulate(&[fluid, particles], &cfg(false));
        // Particles start at t=3, end at 5; fluid ends at 6.
        assert!((r.finish[1] - 5.0).abs() < 1e-9);
        assert!((r.finish[0] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn oversubscription_via_fractional_cores() {
        // Two ranks time-share one core (0.5 each): 4 units take 8 s.
        let mk = || RankProgram { node: 0, owned_cores: 0.5, segments: vec![work(4.0)] };
        let r = simulate(&[mk(), mk()], &cfg(false));
        assert!((r.total_time - 8.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn impossible_wait_panics() {
        let progs = vec![RankProgram {
            node: 0,
            owned_cores: 1.0,
            segments: vec![Segment::Wait { id: 1, count: 1 }],
        }];
        simulate(&progs, &cfg(false));
    }

    #[test]
    fn trace_records_phase_intervals() {
        let progs = vec![RankProgram {
            node: 0,
            owned_cores: 1.0,
            segments: vec![
                Segment::Work { phase: Phase::Assembly, amount: 2.0, malleable: true },
                Segment::Work { phase: Phase::Particles, amount: 1.0, malleable: true },
            ],
        }];
        let r = simulate(&progs, &cfg(false));
        assert_eq!(r.trace.events.len(), 2);
        assert_eq!(r.trace.per_rank_time(Phase::Assembly), vec![2.0]);
        assert_eq!(r.trace.per_rank_time(Phase::Particles), vec![1.0]);
    }

    #[test]
    fn efficiency_loss_slows_many_core_rates() {
        let progs = vec![RankProgram { node: 0, owned_cores: 8.0, segments: vec![work(8.0)] }];
        let ideal = simulate(&progs, &cfg(false));
        let lossy = simulate(
            &progs,
            &DesConfig { core_speed: 1.0, dlb: false, efficiency_loss: 0.05 },
        );
        assert!((ideal.total_time - 1.0).abs() < 1e-9);
        assert!(lossy.total_time > ideal.total_time);
    }
}

//! Trace event records.

/// Execution phases of one CFPD time step (the colored regions of the
/// paper's Fig. 2 trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// MPI communication / waiting (white in the paper's trace).
    MpiComm,
    /// Navier-Stokes matrix assembly (brown).
    Assembly,
    /// Momentum solver (pink).
    Solver1,
    /// Continuity solver (blue).
    Solver2,
    /// Subgrid-scale vector computation (purple).
    Sgs,
    /// Lagrangian particle transport (black).
    Particles,
}

impl Phase {
    /// All phases, in their within-step order.
    pub const ALL: [Phase; 6] = [
        Phase::MpiComm,
        Phase::Assembly,
        Phase::Solver1,
        Phase::Solver2,
        Phase::Sgs,
        Phase::Particles,
    ];

    /// Human-readable name (matching Table 1's rows).
    pub fn name(self) -> &'static str {
        match self {
            Phase::MpiComm => "MPI",
            Phase::Assembly => "Matrix assembly",
            Phase::Solver1 => "Solver1",
            Phase::Solver2 => "Solver2",
            Phase::Sgs => "SGS",
            Phase::Particles => "Particles",
        }
    }

    /// Position in [`Phase::ALL`]; also the flight recorder's phase code.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lower-case key of the POP rollup's per-phase seconds.
    pub fn key(self) -> &'static str {
        ["mpi", "assembly", "solver1", "solver2", "sgs", "particles"][self.index()]
    }

    /// One-character tag for the ASCII timeline.
    pub fn tag(self) -> char {
        match self {
            Phase::MpiComm => '.',
            Phase::Assembly => 'A',
            Phase::Solver1 => '1',
            Phase::Solver2 => '2',
            Phase::Sgs => 'S',
            Phase::Particles => 'P',
        }
    }
}

/// Chaos-layer incidents overlaid on the phase timeline: where the
/// fault plan struck, where a checkpoint was written. Point events (no
/// duration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosKind {
    /// The fault plan injected a delay / reorder / drop / stall / crash.
    FaultInjected,
    /// A step-granular checkpoint was written.
    CheckpointWritten,
}

impl ChaosKind {
    /// Human-readable name for legends and reports.
    pub fn name(self) -> &'static str {
        match self {
            ChaosKind::FaultInjected => "fault",
            ChaosKind::CheckpointWritten => "checkpoint",
        }
    }

    /// One-character overlay tag for the ASCII timeline.
    pub fn tag(self) -> char {
        match self {
            ChaosKind::FaultInjected => '!',
            ChaosKind::CheckpointWritten => 'C',
        }
    }
}

/// One chaos incident on one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosEvent {
    pub rank: usize,
    pub t: f64,
    pub kind: ChaosKind,
}

/// Per-(rank, worker) execution state — the thread-level refinement of
/// [`Phase`] that a Paraver timeline distinguishes (Fig. 2/4/5/8 of the
/// paper color threads by what they are *doing*, not just which phase
/// the rank is in).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkerState {
    /// Generic useful computation (pool workers inside a parallel
    /// region; they do not know the enclosing phase).
    Useful,
    /// Matrix assembly.
    Assembly,
    /// Momentum solver.
    Solver1,
    /// Continuity solver.
    Solver2,
    /// Subgrid-scale vectors.
    Sgs,
    /// Lagrangian particle transport + migration.
    Particles,
    /// Blocked inside an MPI call (recv / barrier / collective wait).
    MpiWait,
    /// Runtime overhead: setup, scheduling, fork/join outside any
    /// phase interval.
    RuntimeOverhead,
}

impl WorkerState {
    /// All states, in display order.
    pub const ALL: [WorkerState; 8] = [
        WorkerState::Useful,
        WorkerState::Assembly,
        WorkerState::Solver1,
        WorkerState::Solver2,
        WorkerState::Sgs,
        WorkerState::Particles,
        WorkerState::MpiWait,
        WorkerState::RuntimeOverhead,
    ];

    /// Human-readable name (used by `.pcf` and Chrome slice names).
    pub fn name(self) -> &'static str {
        match self {
            WorkerState::Useful => "Useful",
            WorkerState::Assembly => "Matrix assembly",
            WorkerState::Solver1 => "Solver1",
            WorkerState::Solver2 => "Solver2",
            WorkerState::Sgs => "SGS",
            WorkerState::Particles => "Particles",
            WorkerState::MpiWait => "MPI wait",
            WorkerState::RuntimeOverhead => "Runtime overhead",
        }
    }

    /// The worker state carved out of a rank-level phase interval.
    pub fn from_phase(phase: Phase) -> WorkerState {
        match phase {
            Phase::MpiComm => WorkerState::MpiWait,
            Phase::Assembly => WorkerState::Assembly,
            Phase::Solver1 => WorkerState::Solver1,
            Phase::Solver2 => WorkerState::Solver2,
            Phase::Sgs => WorkerState::Sgs,
            Phase::Particles => WorkerState::Particles,
        }
    }

    /// Whether time in this state counts as useful computation in the
    /// POP sense (neither communication nor runtime overhead).
    pub fn is_useful(self) -> bool {
        !matches!(self, WorkerState::MpiWait | WorkerState::RuntimeOverhead)
    }
}

/// One state interval of one worker thread on one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerEvent {
    pub rank: usize,
    /// Worker index within the rank; worker 0 is the rank's main
    /// thread (the one that issues MPI calls).
    pub worker: usize,
    pub state: WorkerState,
    pub t_start: f64,
    pub t_end: f64,
}

impl WorkerEvent {
    pub fn duration(&self) -> f64 {
        self.t_end - self.t_start
    }
}

/// One point-to-point message: the happens-before edge `t_send@src →
/// t_recv@dst`. Collectives in `cfpd-simmpi` are built from tagged
/// point-to-point sends, so barrier / allreduce dependency edges appear
/// here for free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgRecord {
    pub src: usize,
    pub dst: usize,
    pub tag: u64,
    pub bytes: usize,
    pub t_send: f64,
    pub t_recv: f64,
}

/// DLB core-migration transitions (the lend/borrow arrows of Fig. 8).
/// Point events stamped on the owning rank's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DlbMarkKind {
    /// Rank lent `cores` cores on entering a blocking call.
    Lend,
    /// Rank borrowed `cores` lent cores.
    Borrow,
    /// Rank reclaimed its lent cores on resuming.
    Reclaim,
    /// Borrowed cores were revoked by the owner's reclaim.
    Revoke,
    /// The rank was declared dead and its cores were seized.
    Crashed,
}

impl DlbMarkKind {
    pub fn name(self) -> &'static str {
        match self {
            DlbMarkKind::Lend => "lend",
            DlbMarkKind::Borrow => "borrow",
            DlbMarkKind::Reclaim => "reclaim",
            DlbMarkKind::Revoke => "revoke",
            DlbMarkKind::Crashed => "crashed",
        }
    }

    /// One-character overlay tag for the ASCII timeline.
    pub fn tag(self) -> char {
        match self {
            DlbMarkKind::Lend => 'L',
            DlbMarkKind::Borrow => 'G',
            DlbMarkKind::Reclaim => 'R',
            DlbMarkKind::Revoke => 'V',
            DlbMarkKind::Crashed => 'X',
        }
    }
}

/// One DLB transition on one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DlbMark {
    pub rank: usize,
    pub t: f64,
    pub kind: DlbMarkKind,
    /// Number of cores involved in the transition.
    pub cores: usize,
}

/// One phase interval on one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    pub rank: usize,
    pub phase: Phase,
    pub t_start: f64,
    pub t_end: f64,
}

impl TraceEvent {
    pub fn duration(&self) -> f64 {
        self.t_end - self.t_start
    }
}

/// A whole trace: events from all ranks.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub num_ranks: usize,
    pub events: Vec<TraceEvent>,
    /// Chaos incidents overlaid on the timeline (empty when the fault
    /// layer is disabled).
    pub chaos: Vec<ChaosEvent>,
    /// Per-(rank, worker) state intervals (empty unless the run was
    /// traced with `RunOptions::trace`).
    pub workers: Vec<WorkerEvent>,
    /// Point-to-point message records (empty unless traced).
    pub messages: Vec<MsgRecord>,
    /// DLB lend/reclaim transitions (empty unless DLB is enabled).
    pub dlb: Vec<DlbMark>,
}

impl Trace {
    pub fn new(num_ranks: usize) -> Trace {
        Trace {
            num_ranks,
            events: Vec::new(),
            chaos: Vec::new(),
            workers: Vec::new(),
            messages: Vec::new(),
            dlb: Vec::new(),
        }
    }

    /// Record an interval.
    pub fn record(&mut self, rank: usize, phase: Phase, t_start: f64, t_end: f64) {
        debug_assert!(t_end >= t_start, "negative interval");
        debug_assert!(rank < self.num_ranks);
        self.events.push(TraceEvent { rank, phase, t_start, t_end });
    }

    /// Record a chaos incident (fault injection, checkpoint).
    pub fn record_chaos(&mut self, rank: usize, t: f64, kind: ChaosKind) {
        debug_assert!(rank < self.num_ranks);
        self.chaos.push(ChaosEvent { rank, t, kind });
    }

    /// Record a worker-thread state interval.
    pub fn record_worker(
        &mut self,
        rank: usize,
        worker: usize,
        state: WorkerState,
        t_start: f64,
        t_end: f64,
    ) {
        debug_assert!(t_end >= t_start, "negative interval");
        debug_assert!(rank < self.num_ranks);
        self.workers.push(WorkerEvent { rank, worker, state, t_start, t_end });
    }

    /// Record a point-to-point message edge.
    pub fn record_msg(
        &mut self,
        src: usize,
        dst: usize,
        tag: u64,
        bytes: usize,
        t_send: f64,
        t_recv: f64,
    ) {
        debug_assert!(src < self.num_ranks && dst < self.num_ranks);
        self.messages.push(MsgRecord { src, dst, tag, bytes, t_send, t_recv });
    }

    /// Record a DLB core-migration transition.
    pub fn record_dlb(&mut self, rank: usize, t: f64, kind: DlbMarkKind, cores: usize) {
        debug_assert!(rank < self.num_ranks);
        self.dlb.push(DlbMark { rank, t, kind, cores });
    }

    /// Merge another trace's events (e.g. per-rank traces gathered at
    /// rank 0).
    pub fn merge(&mut self, other: &Trace) {
        self.events.extend_from_slice(&other.events);
        self.chaos.extend_from_slice(&other.chaos);
        self.workers.extend_from_slice(&other.workers);
        self.messages.extend_from_slice(&other.messages);
        self.dlb.extend_from_slice(&other.dlb);
    }

    /// End time of the last event (phase or worker interval).
    pub fn total_time(&self) -> f64 {
        let phase_end = self.events.iter().map(|e| e.t_end).fold(0.0, f64::max);
        self.workers.iter().map(|e| e.t_end).fold(phase_end, f64::max)
    }

    /// Time each rank spends in `phase`.
    pub fn per_rank_time(&self, phase: Phase) -> Vec<f64> {
        let mut t = vec![0.0; self.num_ranks];
        for e in &self.events {
            if e.phase == phase {
                t[e.rank] += e.duration();
            }
        }
        t
    }
}

/// The per-(rank, worker) view of a trace: the recorded worker events
/// when the run was traced, else a worker-0 fallback derived from the
/// rank-level phase intervals (so exporters and analyses work on
/// untraced / legacy traces too). Sorted by (rank, worker, t_start).
pub fn worker_view(trace: &Trace) -> Vec<WorkerEvent> {
    let mut view: Vec<WorkerEvent> = if trace.workers.is_empty() {
        trace
            .events
            .iter()
            .map(|e| WorkerEvent {
                rank: e.rank,
                worker: 0,
                state: WorkerState::from_phase(e.phase),
                t_start: e.t_start,
                t_end: e.t_end,
            })
            .collect()
    } else {
        trace.workers.clone()
    };
    view.sort_by(|a, b| {
        (a.rank, a.worker)
            .cmp(&(b.rank, b.worker))
            .then(a.t_start.total_cmp(&b.t_start))
    });
    view
}

/// Carve per-rank worker-0 state intervals out of rank-level phase
/// intervals and MPI wait intervals.
///
/// The main thread's timeline is the phase sequence with the blocked
/// stretches cut out: a wait nested inside a phase (allreduce inside a
/// solver, migration recv inside Particles) splits that phase interval
/// and becomes `MpiWait`; a standalone wait between phases (barrier)
/// becomes `MpiWait` on its own. The leading gap `[0, first activity)`
/// — setup before the first recorded phase — is labeled
/// `RuntimeOverhead`. By construction the result is non-overlapping per
/// rank.
///
/// `waits` are `(rank, t_start, t_end)` tuples; both inputs may be
/// unsorted.
pub fn carve_states(
    num_ranks: usize,
    phases: &[TraceEvent],
    waits: &[(usize, f64, f64)],
) -> Vec<WorkerEvent> {
    let mut out = Vec::new();
    for rank in 0..num_ranks {
        let mut ph: Vec<&TraceEvent> = phases.iter().filter(|e| e.rank == rank).collect();
        ph.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
        let mut wt: Vec<(f64, f64)> = waits
            .iter()
            .filter(|(r, _, _)| *r == rank)
            .map(|&(_, a, b)| (a, b))
            .collect();
        wt.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Coalesce overlapping waits defensively (the recorder's depth
        // counter already prevents nesting).
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(wt.len());
        for (a, b) in wt {
            match merged.last_mut() {
                Some(last) if a <= last.1 => last.1 = last.1.max(b),
                _ => merged.push((a, b)),
            }
        }

        let first_activity = ph
            .first()
            .map(|e| e.t_start)
            .into_iter()
            .chain(merged.first().map(|w| w.0))
            .fold(f64::INFINITY, f64::min);
        if first_activity.is_finite() && first_activity > 0.0 {
            out.push(WorkerEvent {
                rank,
                worker: 0,
                state: WorkerState::RuntimeOverhead,
                t_start: 0.0,
                t_end: first_activity,
            });
        }

        for e in &ph {
            // Phase interval minus the waits that intersect it.
            let mut cursor = e.t_start;
            for &(wa, wb) in &merged {
                if wb <= e.t_start || wa >= e.t_end {
                    continue;
                }
                let (ca, cb) = (wa.max(e.t_start), wb.min(e.t_end));
                if ca > cursor {
                    out.push(WorkerEvent {
                        rank,
                        worker: 0,
                        state: WorkerState::from_phase(e.phase),
                        t_start: cursor,
                        t_end: ca,
                    });
                }
                cursor = cursor.max(cb);
            }
            if e.t_end > cursor {
                out.push(WorkerEvent {
                    rank,
                    worker: 0,
                    state: WorkerState::from_phase(e.phase),
                    t_start: cursor,
                    t_end: e.t_end,
                });
            }
        }

        for &(wa, wb) in &merged {
            if wb > wa {
                out.push(WorkerEvent {
                    rank,
                    worker: 0,
                    state: WorkerState::MpiWait,
                    t_start: wa,
                    t_end: wb,
                });
            }
        }
    }
    out.sort_by(|a, b| {
        (a.rank, a.worker)
            .cmp(&(b.rank, b.worker))
            .then(a.t_start.total_cmp(&b.t_start))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut t = Trace::new(2);
        t.record(0, Phase::Assembly, 0.0, 2.0);
        t.record(1, Phase::Assembly, 0.0, 1.0);
        t.record(1, Phase::Particles, 1.0, 3.0);
        assert_eq!(t.total_time(), 3.0);
        assert_eq!(t.per_rank_time(Phase::Assembly), vec![2.0, 1.0]);
        assert_eq!(t.per_rank_time(Phase::Particles), vec![0.0, 2.0]);
    }

    #[test]
    fn merge_combines_events() {
        let mut a = Trace::new(2);
        a.record(0, Phase::Solver1, 0.0, 1.0);
        let mut b = Trace::new(2);
        b.record(1, Phase::Solver2, 0.0, 2.0);
        b.record_worker(1, 1, WorkerState::Useful, 0.5, 1.5);
        b.record_msg(1, 0, 7, 8, 0.1, 0.2);
        b.record_dlb(1, 0.3, DlbMarkKind::Lend, 2);
        a.merge(&b);
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.workers.len(), 1);
        assert_eq!(a.messages.len(), 1);
        assert_eq!(a.dlb.len(), 1);
    }

    #[test]
    fn total_time_covers_worker_events() {
        let mut t = Trace::new(1);
        t.record(0, Phase::Assembly, 0.0, 1.0);
        t.record_worker(0, 1, WorkerState::Useful, 0.0, 2.5);
        assert_eq!(t.total_time(), 2.5);
    }

    #[test]
    fn carve_splits_phase_around_nested_wait() {
        // Phase [0,10] with a wait [4,6] inside it → three intervals.
        let phases = vec![TraceEvent {
            rank: 0,
            phase: Phase::Solver1,
            t_start: 0.0,
            t_end: 10.0,
        }];
        let waits = vec![(0usize, 4.0, 6.0)];
        let carved = carve_states(1, &phases, &waits);
        assert_eq!(carved.len(), 3);
        assert_eq!(
            (carved[0].state, carved[0].t_start, carved[0].t_end),
            (WorkerState::Solver1, 0.0, 4.0)
        );
        assert_eq!(
            (carved[1].state, carved[1].t_start, carved[1].t_end),
            (WorkerState::MpiWait, 4.0, 6.0)
        );
        assert_eq!(
            (carved[2].state, carved[2].t_start, carved[2].t_end),
            (WorkerState::Solver1, 6.0, 10.0)
        );
    }

    #[test]
    fn carve_emits_leading_overhead_and_standalone_wait() {
        let phases = vec![TraceEvent {
            rank: 0,
            phase: Phase::Assembly,
            t_start: 1.0,
            t_end: 2.0,
        }];
        // Standalone barrier wait after the phase.
        let waits = vec![(0usize, 2.0, 3.0)];
        let carved = carve_states(1, &phases, &waits);
        assert_eq!(carved[0].state, WorkerState::RuntimeOverhead);
        assert_eq!((carved[0].t_start, carved[0].t_end), (0.0, 1.0));
        assert!(carved
            .iter()
            .any(|e| e.state == WorkerState::MpiWait && e.t_start == 2.0 && e.t_end == 3.0));
        // Non-overlap invariant.
        for w in carved.windows(2) {
            assert!(w[1].t_start >= w[0].t_end - 1e-12);
        }
    }

    #[test]
    fn carve_preserves_total_busy_time() {
        // Sum of carved durations == phase time + wait time outside
        // phases (waits inside phases replace phase time 1:1).
        let phases = vec![
            TraceEvent { rank: 0, phase: Phase::Assembly, t_start: 0.0, t_end: 4.0 },
            TraceEvent { rank: 0, phase: Phase::Particles, t_start: 5.0, t_end: 9.0 },
        ];
        let waits = vec![(0usize, 1.0, 2.0), (0usize, 4.0, 5.0), (0usize, 6.0, 7.0)];
        let carved = carve_states(1, &phases, &waits);
        let total: f64 = carved.iter().map(|e| e.duration()).sum();
        // [0,9] fully covered: phases span [0,4]+[5,9]=8, standalone
        // wait [4,5]=1, no leading gap.
        assert!((total - 9.0).abs() < 1e-12, "total = {total}");
        for w in carved.windows(2) {
            assert!(w[1].t_start >= w[0].t_end - 1e-12, "overlap: {w:?}");
        }
    }
}

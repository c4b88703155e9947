//! What a run hands back, and how it is put together: the
//! [`SimulationResult`] and its wall-clock-free [`LogicalEvent`] log,
//! the gather of every rank's share at rank 0 ([`finalize`]) and the
//! overlay of the fault, DLB and worker records on the gathered trace
//! ([`assemble`]).

use crate::checkpoint::{Checkpoint, RankCheckpoint};
use crate::fluid::FluidStepReport;
use cfpd_dlb::{DlbEventKind, DlbNode, DlbStats};
use cfpd_mesh::Vec3;
use cfpd_particles::ParticleCensus;
use cfpd_runtime::ThreadPool;
use cfpd_simmpi::{Comm, FaultEvent, TraceHooks};
use cfpd_testkit::digest::{digest_f64s, Digest};
use cfpd_trace::{
    carve_states, phase_breakdown, ChaosKind, DlbMarkKind, Phase, PhaseRow, Trace, WorkerState,
};
use std::sync::Arc;

/// Result of a simulation run.
#[derive(Debug)]
pub struct SimulationResult {
    /// Wall-clock per-rank phase trace (gathered at rank 0).
    pub trace: Trace,
    /// Table 1 style per-phase load balance / time share.
    pub breakdown: Vec<PhaseRow>,
    /// Final particle census (summed over ranks).
    pub census: ParticleCensus,
    /// Total wall time of the timed region.
    pub total_time: f64,
    /// DLB statistics when DLB was enabled.
    pub dlb: Option<DlbStats>,
    /// Wall-clock-free per-rank event log (gathered at rank 0, sorted by
    /// `(step, rank)`). Unlike `trace`, this is bit-reproducible across
    /// runs for a fixed config, at any thread count and with DLB on or
    /// off — the substrate of the golden-trace regression suite.
    pub logical: Vec<LogicalEvent>,
    /// The state at `RunOptions::stop_after`, when the run stopped there.
    pub checkpoint: Option<Checkpoint>,
    /// Every fault the chaos layer injected (empty without a fault plan).
    pub faults: Vec<FaultEvent>,
    /// Element count of the mesh the run was prepared on (the golden
    /// document's header prints it).
    pub elements: usize,
    /// Node count of that mesh.
    pub nodes: usize,
}

/// One deterministic milestone of the simulation: what was computed,
/// never how long it took. Floating-point payloads are carried as raw
/// bit patterns (`f64::to_bits`) so equality means bit-identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicalEvent {
    /// Matrix assembly on one rank (momentum + Poisson share elements).
    Assembly { step: usize, rank: usize, elements: usize },
    /// One linear solve: `system` 0..=2 are the momentum components,
    /// 3 is the pressure Poisson system.
    Solve {
        step: usize,
        rank: usize,
        system: u8,
        iterations: usize,
        residual_bits: u64,
        converged: bool,
    },
    /// FNV-1a digests of the full velocity / pressure fields after the
    /// fluid step (replicated solves: identical on every rank).
    FieldDigest { step: usize, rank: usize, velocity: u64, pressure: u64 },
    /// Particle migration: `(dest, count)` per non-empty send plus the
    /// total received, in rank order.
    Exchange { step: usize, rank: usize, sent: Vec<(usize, usize)>, received: usize },
    /// Post-step particle census of this rank's subdomain.
    Particles {
        step: usize,
        rank: usize,
        active: usize,
        deposited: usize,
        escaped: usize,
        lost: usize,
    },
}

impl LogicalEvent {
    pub fn step(&self) -> usize {
        match self {
            LogicalEvent::Assembly { step, .. }
            | LogicalEvent::Solve { step, .. }
            | LogicalEvent::FieldDigest { step, .. }
            | LogicalEvent::Exchange { step, .. }
            | LogicalEvent::Particles { step, .. } => *step,
        }
    }

    pub fn rank(&self) -> usize {
        match self {
            LogicalEvent::Assembly { rank, .. }
            | LogicalEvent::Solve { rank, .. }
            | LogicalEvent::FieldDigest { rank, .. }
            | LogicalEvent::Exchange { rank, .. }
            | LogicalEvent::Particles { rank, .. } => *rank,
        }
    }
}

/// Digest the velocity (component-wise) and pressure fields.
fn field_digests(velocity: &[Vec3], pressure: &[f64]) -> (u64, u64) {
    let mut dv = Digest::new();
    for v in velocity {
        dv.update_f64(v.x).update_f64(v.y).update_f64(v.z);
    }
    (dv.finish(), digest_f64s(pressure))
}

/// Append the fluid-step events (assembly, 4 solves, field digests) for
/// one rank-step to `log`.
pub(crate) fn log_fluid_step(
    log: &mut Vec<LogicalEvent>,
    step: usize,
    rank: usize,
    report: &FluidStepReport,
    velocity: &[Vec3],
    pressure: &[f64],
) {
    if let Some(a) = &report.assembly {
        log.push(LogicalEvent::Assembly { step, rank, elements: a.elements });
    }
    let mut solves: Vec<(u8, cfpd_solver::SolveStats)> = Vec::new();
    if let Some(s1) = &report.solver1 {
        solves.extend(s1.iter().enumerate().map(|(i, s)| (i as u8, *s)));
    }
    if let Some(s2) = &report.solver2 {
        solves.push((3, *s2));
    }
    for (system, s) in solves {
        log.push(LogicalEvent::Solve {
            step,
            rank,
            system,
            iterations: s.iterations,
            residual_bits: s.residual.to_bits(),
            converged: s.converged,
        });
    }
    let (dv, dp) = field_digests(velocity, pressure);
    log.push(LogicalEvent::FieldDigest { step, rank, velocity: dv, pressure: dp });
}

/// Per-rank result; only rank 0's value is meaningful (others return
/// empty).
pub(crate) struct RankOut {
    pub(crate) trace: Trace,
    pub(crate) census: ParticleCensus,
    pub(crate) total: f64,
    pub(crate) logical: Vec<LogicalEvent>,
    /// Gathered per-rank checkpoints (rank 0, when capture was asked).
    pub(crate) checkpoint: Option<Vec<RankCheckpoint>>,
}

/// Gather traces, censuses, logical event logs and (when capture was
/// requested) per-rank checkpoints at world rank 0.
pub(crate) fn finalize(
    comm: Comm,
    trace: Trace,
    census: ParticleCensus,
    total: f64,
    logical: Vec<LogicalEvent>,
    captured: Option<RankCheckpoint>,
) -> RankOut {
    let events: Vec<(usize, u8, f64, f64)> = trace
        .events
        .iter()
        .map(|e| {
            let pid = Phase::ALL.iter().position(|&p| p == e.phase).unwrap() as u8;
            (e.rank, pid, e.t_start, e.t_end)
        })
        .collect();
    let chaos_events: Vec<(usize, f64)> =
        trace.chaos.iter().map(|c| (c.rank, c.t)).collect();
    let gathered = comm.gather(0, events);
    let chaos_gathered = comm.gather(0, chaos_events);
    let censuses = comm.gather(0, (census.active, census.deposited, census.escaped, census.lost));
    let totals = comm.gather(0, total);
    let logs = comm.gather(0, logical);
    let cps = comm.gather(0, captured);
    if comm.rank() == 0 {
        let mut merged = Trace::new(comm.size());
        for ev in gathered.unwrap().into_iter().flatten() {
            merged.record(ev.0, Phase::ALL[ev.1 as usize], ev.2, ev.3);
        }
        // The only rank-local chaos markers are checkpoint captures;
        // fault/timeout markers come from the ChaosHooks log upstream.
        for (r, t) in chaos_gathered.unwrap().into_iter().flatten() {
            merged.record_chaos(r, t, ChaosKind::CheckpointWritten);
        }
        let mut c = ParticleCensus::default();
        for (a, d, e, l) in censuses.unwrap() {
            c.active += a;
            c.deposited += d;
            c.escaped += e;
            c.lost += l;
        }
        let t = totals.unwrap().into_iter().fold(0.0f64, f64::max);
        let mut log: Vec<LogicalEvent> = logs.unwrap().into_iter().flatten().collect();
        // Stable sort: per-rank recording order is preserved within a
        // (step, rank) group.
        log.sort_by_key(|e| (e.step(), e.rank()));
        let mut ranks: Vec<RankCheckpoint> =
            cps.unwrap().into_iter().flatten().collect();
        ranks.sort_by_key(|rc| rc.rank);
        let checkpoint = if ranks.len() == comm.size() { Some(ranks) } else { None };
        RankOut { trace: merged, census: c, total: t, logical: log, checkpoint }
    } else {
        RankOut {
            trace: Trace::new(0),
            census: ParticleCensus::default(),
            total: 0.0,
            logical: Vec::new(),
            checkpoint: None,
        }
    }
}

/// Build the [`SimulationResult`] of a run from what rank 0 gathered
/// (`out`) and what the run's hook chain recorded beside it: the
/// injected faults, the arbiter's transitions (`dlb`, when DLB was
/// on) and, for a traced run, the tracer's waits and messages plus the
/// pools' worker regions.
pub(crate) fn assemble(
    out: RankOut,
    checkpoint: Option<Checkpoint>,
    mesh_size: (usize, usize),
    faults: Vec<FaultEvent>,
    dlb: Option<&DlbNode>,
    traced: Option<(&TraceHooks, &[Arc<ThreadPool>])>,
) -> SimulationResult {
    let RankOut { mut trace, census, total, logical, checkpoint: _ } = out;

    // Overlay the injected-fault log on the wall-clock trace.
    for f in &faults {
        if f.rank < trace.num_ranks {
            trace.record_chaos(f.rank, f.t, ChaosKind::FaultInjected);
        }
    }

    // DLB transitions become first-class trace events (the lend/borrow
    // arrows of the paper's Fig. 8), so `render_timeline` shows cores
    // migrating between co-resident ranks.
    for e in dlb.map(DlbNode::events).unwrap_or_default() {
        let (kind, cores) = match e.kind {
            DlbEventKind::Lend { cores } => (DlbMarkKind::Lend, cores),
            DlbEventKind::Borrow { cores, .. } => (DlbMarkKind::Borrow, cores),
            DlbEventKind::Reclaim { cores } => (DlbMarkKind::Reclaim, cores),
            DlbEventKind::Revoke { cores, .. } => (DlbMarkKind::Revoke, cores),
            DlbEventKind::Crashed { cores } => (DlbMarkKind::Crashed, cores),
        };
        if e.rank < trace.num_ranks {
            trace.record_dlb(e.rank, e.t, kind, cores);
        }
    }

    // Assemble the worker-level trace: wait and message records from
    // the tracer hooks, worker-0 state intervals carved from the phase
    // timeline around the waits, and worker ≥ 1 Useful intervals from
    // the pools' region logs. All share the run's epoch.
    if let Some((tr, pools)) = traced {
        let waits = tr.drain_waits();
        let carved = carve_states(trace.num_ranks, &trace.events, &waits);
        trace.workers.extend(carved);
        for (rank, pool) in pools.iter().enumerate() {
            for (worker, t0, t1) in pool.worker_trace_drain() {
                trace.record_worker(rank, worker, WorkerState::Useful, t0, t1);
            }
        }
        for (src, dst, tag, bytes, t_send, t_recv) in tr.drain_msgs() {
            if src < trace.num_ranks && dst < trace.num_ranks {
                trace.record_msg(src, dst, tag, bytes, t_send, t_recv);
            }
        }
    }

    let breakdown = phase_breakdown(&trace);
    SimulationResult {
        trace,
        breakdown,
        census,
        total_time: total,
        dlb: dlb.map(DlbNode::stats),
        logical,
        checkpoint,
        faults,
        elements: mesh_size.0,
        nodes: mesh_size.1,
    }
}

//! Running a prepared simulation on the virtual cluster: ranks as
//! threads (`cfpd-simmpi`), partitioned assembly with replicated
//! solves, distributed particle tracking with migration, per-phase
//! tracing, both execution modes of Fig. 3, and optional DLB.
//!
//! A run is one [`Scenario`], and it is [`crate::prepare::prepare`] of
//! the scenario's key followed by [`run_prepared`]: everything derived
//! from the mesh lives in the [`Prepared`], and the rank functions here
//! allocate and advance values only. What a run hands back is put
//! together in [`crate::result`]; [`crate::run_scenario`] closes its
//! golden document with [`crate::golden::render_golden_document`].

use crate::checkpoint::{Checkpoint, RankCheckpoint};
use crate::config::{ExecutionMode, SimulationConfig};
use crate::fluid::{FluidSolver, PressureOperator};
use crate::prepare::Prepared;
use crate::result::{assemble, finalize, log_fluid_step, RankOut};
use crate::scenario::Scenario;
pub use crate::result::{LogicalEvent, SimulationResult};
use cfpd_dlb::DlbNode;
use cfpd_mesh::Vec3;
use cfpd_particles::{
    inject_at_inlet, step_particles, Locator, ParticleProps, ParticleSet, ParticleState,
};
use cfpd_runtime::ThreadPool;
use cfpd_simmpi::{
    ChaosHooks, Comm, FaultConfig, FaultPlan, MpiHooks, NoHooks, ProfileHooks, RankProfile,
    ReduceOp, TraceHooks, Universe,
};
use cfpd_trace::{ChaosKind, Phase, Trace};
use std::sync::Arc;
use std::time::Instant;

/// Everything of a [`Scenario`] beyond its configuration and its
/// `(ranks, threads)` shape: DLB, chaos injection, tracing, segment stop
/// and restart. `RunOptions::default()` is the plain run the goldens are
/// cut with.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Enable the LeWI arbiter.
    pub dlb: bool,
    /// Seeded fault plan injected into the MPI fabric ([`ChaosHooks`]
    /// wraps the DLB hooks, so chaos and load balancing compose).
    pub fault: Option<FaultConfig>,
    /// Resume from a previously captured checkpoint instead of injecting
    /// particles at step 0.
    pub restore: Option<Arc<Checkpoint>>,
    /// Stop the run at this step boundary: execute steps
    /// `[start, stop_after)` and capture a [`Checkpoint`] with
    /// `next_step == stop_after` instead of running to `config.steps`.
    /// Composable with `restore`, so a run can be executed as a chain of
    /// segments whose concatenated logical event logs are byte-identical
    /// to the uninterrupted run (the substrate of `cfpd serve`'s
    /// checkpoint-backed preemption). Values `>= config.steps` are
    /// equivalent to `None`.
    pub stop_after: Option<usize>,
    /// Record the full structured trace: per-(rank, worker) state
    /// events, MPI wait intervals, point-to-point message records and
    /// DLB transitions, all on one shared run clock. Off by default;
    /// the logical event log is the same either way.
    pub trace: bool,
    /// Deterministic per-rank speed/skew profile emulating a
    /// heterogeneous cluster (e.g. MareNostrum4-class next to
    /// ThunderX-class nodes). Injected into the PMPI hook chain exactly
    /// like chaos: blocking calls on slow ranks stall by a seeded,
    /// replayable amount, and the logical event log stays byte-identical
    /// to an unprofiled run.
    pub hetero: Option<RankProfile>,
}

/// Particle payload migrated between ranks when a particle crosses into
/// another rank's subdomain.
#[derive(Debug, Clone)]
struct Migrant {
    pos: Vec3,
    vel: Vec3,
    acc: Vec3,
    elem: u32,
    props: ParticleProps,
}

const TAG_MIGRATE: u64 = 10;
const TAG_VELOCITY: u64 = 11;

/// The message [`crate::run_scenario`] panics with: every failed rank's
/// own message.
pub fn rank_failures(fails: &[(usize, String)]) -> String {
    let msgs: Vec<String> = fails.iter().map(|(r, m)| format!("rank {r}: {m}")).collect();
    format!("simulation failed on {} rank(s):\n{}", msgs.len(), msgs.join("\n"))
}

/// Run scenario `s` on `prepared`, a [`Prepared`] of
/// [`Scenario::prepare_key`]: allocate the run's values, run its steps
/// on `s.threads` workers per rank, and leave `prepared` as it was found,
/// except for publishing the pressure operator if this is the first run
/// to assemble it. Rank failures (crash unwinds, deadlock reports,
/// panics) come back as `Err` with one `(rank, message)` entry each
/// instead of propagating, and a run refused before any rank started (a
/// checkpoint that does not belong to this run) as a single
/// `(0, message)` entry: `cfpd chaos --storm` prints the structured
/// deadlock report from it instead of hanging or aborting.
pub fn run_prepared(
    prepared: &Arc<Prepared>,
    s: &Scenario,
) -> Result<SimulationResult, Vec<(usize, String)>> {
    let (config, opts) = (&s.config, &s.opts);
    let n_ranks = prepared.ranks();
    assert_eq!(
        s.prepare_key().digest(),
        prepared.key_digest(),
        "run_prepared: the Prepared was built for another key"
    );
    // A stop boundary at or past the end is just an ordinary full run.
    let stop_after = opts.stop_after.filter(|&s| s < config.steps);
    if let Some(cp) = &opts.restore {
        if let Err(e) = cp.validate_for(config, n_ranks) {
            return Err(vec![(0, format!("refusing to restore checkpoint: {e}"))]);
        }
    }
    let config = Arc::new(config.clone());

    // The shared run clock: every trace record — phase intervals, wait
    // intervals, message timestamps, DLB events, injected faults, worker
    // regions — is measured against this one epoch when tracing, so
    // happens-before edges are monotone across ranks. Untraced ranks
    // time from their own start.
    let run_epoch = Instant::now();

    // One virtual node: this machine is one shared-memory node, so DLB
    // may lend between any pair of ranks (the cfpd-perfmodel DES models
    // the paper's 2-node topology; here we exercise the real lending
    // machinery). A blocked simmpi rank parks, it does not busy-wait, so
    // it lends every core it owns. Without DLB no arbiter exists and
    // each pool runs its own allotment.
    let dlb = opts.dlb.then(|| DlbNode::with_epoch(run_epoch));
    let threads = s.threads.max(1);
    let pools: Vec<Arc<ThreadPool>> =
        (0..n_ranks).map(|_| Arc::new(ThreadPool::new(threads * 2))).collect();
    for (r, pool) in pools.iter().enumerate() {
        match &dlb {
            Some(node) => node.register(r, Arc::clone(pool), threads),
            None => pool.set_active(threads),
        }
        if opts.trace {
            pool.worker_trace_start(run_epoch);
        }
    }

    // The hook chain: tracer (outermost, when tracing) wraps the
    // heterogeneity profile (when one is given) wraps chaos (when a
    // fault plan is given) wraps DLB. Physics code sees none of them.
    let base: Arc<dyn MpiHooks> = match &dlb {
        Some(node) => Arc::clone(node) as _,
        None => Arc::new(NoHooks),
    };
    let chaos: Option<Arc<ChaosHooks>> = opts
        .fault
        .map(|fc| ChaosHooks::new(n_ranks, run_epoch, FaultPlan::new(fc), Arc::clone(&base)));
    let mid: Arc<dyn MpiHooks> = match &chaos {
        Some(c) => Arc::clone(c) as _,
        None => base,
    };
    let mid: Arc<dyn MpiHooks> = match &opts.hetero {
        Some(p) if !p.is_uniform() => ProfileHooks::new(n_ranks, p.clone(), mid) as _,
        _ => mid,
    };
    let tracer: Option<Arc<TraceHooks>> = if opts.trace {
        Some(Arc::new(TraceHooks::new(n_ranks, run_epoch, Arc::clone(&mid))))
    } else {
        None
    };
    let hooks: Arc<dyn MpiHooks> = match &tracer {
        Some(t) => Arc::clone(t) as _,
        None => mid,
    };

    let cfg = Arc::clone(&config);
    let pools2 = pools.clone();
    let window = StepWindow {
        prepared: Arc::clone(prepared),
        // Decided once for all ranks: assembling the operator is a
        // collective, so either every rank of this run does it or none.
        pressure_op: prepared.pressure_op.get().cloned(),
        stop_after,
        restore: opts.restore.clone(),
        epoch: if opts.trace { Some(run_epoch) } else { None },
    };

    let results = Universe::run_fallible(n_ranks, hooks, move |comm| {
        rank_main(&cfg, &pools2[comm.rank()], comm, &window)
    });

    let mut oks = Vec::new();
    let mut fails = Vec::new();
    for (rank, r) in results.into_iter().enumerate() {
        match r {
            Ok(v) => oks.push(v),
            Err(m) => fails.push((rank, m)),
        }
    }
    if !fails.is_empty() {
        return Err(fails);
    }

    let mut out = oks.swap_remove(0);
    let checkpoint = out.checkpoint.take().map(|ranks| Checkpoint {
        next_step: stop_after.expect("only a segment stop captures"),
        n_ranks,
        seed: config.seed,
        config_digest: crate::checkpoint::config_digest(&config),
        ranks,
    });
    Ok(assemble(
        out,
        checkpoint,
        (prepared.elements(), prepared.nodes()),
        chaos.as_ref().map(|c| c.events()).unwrap_or_default(),
        dlb.as_deref(),
        tracer.as_deref().map(|t| (t, pools.as_slice())),
    ))
}

/// What every rank of a run shares: the prepared set-up and the
/// restore/stop window threaded into each rank's main loop.
#[derive(Clone)]
struct StepWindow {
    prepared: Arc<Prepared>,
    /// The pressure operator an earlier run on `prepared` published;
    /// `None` makes this run's first step assemble (and publish) it.
    pressure_op: Option<Arc<PressureOperator>>,
    stop_after: Option<usize>,
    restore: Option<Arc<Checkpoint>>,
    /// Shared run clock for traced runs; `None` times each rank from its
    /// own start.
    epoch: Option<Instant>,
}

/// The values-only solver of fluid rank `rank` over the prepared
/// structure.
fn fluid_solver<'p>(
    config: &SimulationConfig,
    prepared: &'p Prepared,
    rank: usize,
    pressure_op: Option<Arc<PressureOperator>>,
) -> FluidSolver<'p> {
    FluidSolver::on(
        &prepared.airway.mesh,
        Arc::clone(&prepared.fluid[rank]),
        config.fluid,
        config.dt,
        prepared.airway.inlet_direction * config.inflow_speed,
        config.solver_tol,
        config.solver_max_iters,
        pressure_op,
    )
}

/// Inject the run's particles (deterministic, identical on every
/// particle rank) and keep those whose element part `my_part` owns.
fn inject_owned(
    config: &SimulationConfig,
    prepared: &Prepared,
    locator: &Locator,
    my_part: usize,
    parts: usize,
) -> ParticleSet {
    let airway = &prepared.airway;
    let mut all = ParticleSet::default();
    inject_at_inlet(
        &mut all,
        locator,
        airway.inlet_center,
        airway.inlet_direction,
        airway.inlet_radius,
        config.inflow_speed,
        config.particle,
        config.num_particles,
        config.seed,
    );
    keep_owned(all, &prepared.owner, my_part, parts)
}

/// Log a phase interval into the run's trace and mirror it into the
/// flight recorder (timing-only: the recorder never feeds back into
/// simulation state).
fn record_phase(trace: &mut Trace, rank: usize, phase: Phase, t_start: f64, t_end: f64) {
    trace.record(rank, phase, t_start, t_end);
    cfpd_flight::record(
        cfpd_flight::EventKind::Phase,
        rank as u32,
        phase.index() as u32,
        t_start.to_bits(),
        t_end.to_bits(),
    );
}

/// After a fluid step: hand the pressure operator to the runs that come
/// after this one. Every rank holds the same reduced operator; rank 0
/// of the fluid group speaks for all, and only the first run on a
/// `Prepared` finds the slot empty.
fn publish_pressure_operator(prepared: &Prepared, fs: &FluidSolver, fluid_rank: usize) {
    if fluid_rank == 0 && prepared.pressure_op.get().is_none() {
        if let Some(op) = fs.pressure_operator() {
            // A concurrent run on the same `Prepared` may have won.
            let _ = prepared.pressure_op.set(Arc::clone(op));
        }
    }
}

/// Per-rank entry point: the one step loop of both execution modes.
///
/// A rank's role decides which blocks of a step it runs. A synchronous
/// rank solves the fluid and tracks its particles, both on `comm`, and
/// ends the step in a barrier. In coupled mode (Fig. 3) a fluid rank
/// solves on its group, whose root then sends the velocity to every
/// particle rank; a particle rank receives it (its DLB lending point)
/// and tracks on its group. Restore and capture follow the role: a rank
/// restores and captures the fields if it solves the fluid, and its
/// particles if it tracks them.
fn rank_main(
    config: &SimulationConfig,
    pool: &ThreadPool,
    comm: Comm,
    window: &StepWindow,
) -> RankOut {
    let prepared = &*window.prepared;
    let rank = comm.rank();
    // `particle_ranks` is `Some(f..f + p)` in coupled mode; `group` is
    // then the communicator of this rank's side of the split.
    let (particle_ranks, group) = match config.mode {
        ExecutionMode::Synchronous => (None, None),
        ExecutionMode::Coupled { fluid: f, particles: p } => {
            assert_eq!(comm.size(), f + p, "coupled mode rank count");
            (Some(f..f + p), Some(comm.split(usize::from(rank >= f), rank)))
        }
    };
    let local = group.as_ref().unwrap_or(&comm);
    let solves_fluid = particle_ranks.as_ref().is_none_or(|ps| rank < ps.start);
    let tracks_particles = particle_ranks.as_ref().is_none_or(|ps| rank >= ps.start);
    let mut fs = solves_fluid
        .then(|| fluid_solver(config, prepared, local.rank(), window.pressure_op.clone()));
    let locator = prepared.locator();

    let (mut mine, start_step) = match &window.restore {
        Some(cp) => {
            cfpd_telemetry::count!("core.checkpoint_restores");
            // Resume: overwrite the persistent cross-step state (fields,
            // SGS vectors, particle SoA) with the snapshot; the RNG only
            // runs at step-0 injection, so nothing else needs replaying.
            let rc = &cp.ranks[rank];
            if let Some(fs) = &mut fs {
                fs.velocity = rc.velocity.clone();
                fs.pressure = rc.pressure.clone();
                fs.sgs.values = rc.sgs.clone();
            }
            (rc.particles.clone(), cp.next_step)
        }
        None if tracks_particles => {
            (inject_owned(config, prepared, &locator, local.rank(), local.size()), 0)
        }
        None => (ParticleSet::default(), 0),
    };

    let mut trace = Trace::new(comm.size());
    let mut logical = Vec::new();
    let mut captured: Option<RankCheckpoint> = None;
    let epoch = window.epoch.unwrap_or_else(Instant::now);
    let t = |epoch: Instant| epoch.elapsed().as_secs_f64();

    for step in start_step..config.steps {
        // Segment stop: capture the pre-step state and end the run
        // without executing the step. Every rank stops at the same
        // boundary with nothing in flight: the barrier closed the
        // previous synchronous step, and every velocity a coupled fluid
        // root sent has been received.
        if window.stop_after == Some(step) {
            let now = t(epoch);
            trace.record_chaos(rank, now, ChaosKind::CheckpointWritten);
            cfpd_telemetry::count!("core.checkpoints_written");
            cfpd_flight::record(cfpd_flight::EventKind::Ckpt, rank as u32, 0, now.to_bits(), 0);
            let (velocity, pressure, sgs) = match &fs {
                Some(fs) => (fs.velocity.clone(), fs.pressure.clone(), fs.sgs.values.clone()),
                None => Default::default(),
            };
            captured =
                Some(RankCheckpoint { rank, velocity, pressure, sgs, particles: mine.clone() });
            break;
        }
        // ---- fluid phases (assembly, solver1, solver2, sgs) ----------
        if let Some(fs) = &mut fs {
            let t0 = t(epoch);
            let report = fs.step_reduced(pool, &mut |buf: &mut [f64]| {
                local.allreduce_slice_f64(buf, ReduceOp::Sum);
            });
            // Attribute the sub-phase times measured inside the step.
            let mut cursor = t0;
            for (phase, dur) in [
                (Phase::Assembly, report.t_assembly),
                (Phase::Solver1, report.t_solver1),
                (Phase::Solver2, report.t_solver2),
                (Phase::Sgs, report.t_sgs),
            ] {
                record_phase(&mut trace, rank, phase, cursor, cursor + dur);
                cursor += dur;
            }
            log_fluid_step(&mut logical, step, rank, &report, &fs.velocity, &fs.pressure);
            publish_pressure_operator(prepared, fs, local.rank());
        }
        // ---- coupled velocity hand-off (Fig. 3's "send velocity") ----
        let mut shipped: Option<Vec<Vec3>> = None;
        if let Some(dests) = particle_ranks.clone() {
            let tc = t(epoch);
            match &fs {
                Some(fs) if local.rank() == 0 => {
                    for dest in dests {
                        comm.send(dest, TAG_VELOCITY, fs.velocity.clone());
                    }
                }
                Some(_) => {}
                None => shipped = Some(comm.recv(0, TAG_VELOCITY)),
            }
            record_phase(&mut trace, rank, Phase::MpiComm, tc, t(epoch));
        }
        // ---- particle phase -------------------------------------------
        if tracks_particles {
            let velocity = match (&shipped, &fs) {
                (Some(v), _) => v,
                (None, Some(fs)) => &fs.velocity,
                (None, None) => unreachable!("a rank without a solver is shipped its velocity"),
            };
            let tp = t(epoch);
            step_particles(
                &mut mine,
                &locator,
                velocity,
                config.fluid.density,
                config.fluid.viscosity,
                Vec3::new(0.0, 0.0, -9.81),
                config.dt,
            );
            // Migration: ship particles that crossed into foreign subdomains.
            let outgoing = collect_migrants(&mut mine, &prepared.owner, local.rank());
            let (sent, received) = exchange_migrants(local, outgoing, &mut mine);
            record_phase(&mut trace, rank, Phase::Particles, tp, t(epoch));
            logical.push(LogicalEvent::Exchange { step, rank, sent, received });
            let c = mine.census();
            logical.push(LogicalEvent::Particles {
                step,
                rank,
                active: c.active,
                deposited: c.deposited,
                escaped: c.escaped,
                lost: c.lost,
            });
        }
        cfpd_telemetry::count!("core.rank_steps");
        cfpd_flight::record(cfpd_flight::EventKind::Step, rank as u32, 0, step as u64, 0);
        if particle_ranks.is_none() {
            comm.barrier();
        }
    }
    let total = t(epoch);
    finalize(comm, trace, mine.census(), total, logical, captured)
}

/// The freshly injected particles of `all` that sit in elements part
/// `my_part` of `parts` owns, in injection order.
fn keep_owned(all: ParticleSet, owner: &[u32], my_part: usize, parts: usize) -> ParticleSet {
    if parts == 1 {
        // The one part owns everything: no second copy to build.
        return all;
    }
    let mut mine = ParticleSet::default();
    for i in 0..all.len() {
        if owner[all.elem[i] as usize] as usize == my_part {
            push_particle(
                &mut mine,
                Migrant {
                    pos: all.pos[i],
                    vel: all.vel[i],
                    acc: all.acc[i],
                    elem: all.elem[i],
                    props: all.props[i],
                },
            );
        }
    }
    mine
}

fn push_particle(set: &mut ParticleSet, m: Migrant) {
    set.pos.push(m.pos);
    set.vel.push(m.vel);
    set.acc.push(m.acc);
    set.elem.push(m.elem);
    set.state.push(ParticleState::Active);
    set.props.push(m.props);
}

/// Remove active particles that now sit in foreign subdomains; returns
/// them bucketed by destination part.
fn collect_migrants(
    set: &mut ParticleSet,
    owner: &[u32],
    my_part: usize,
) -> std::collections::HashMap<usize, Vec<Migrant>> {
    let mut out: std::collections::HashMap<usize, Vec<Migrant>> = Default::default();
    let mut i = 0;
    while i < set.len() {
        if set.state[i] == ParticleState::Active && owner[set.elem[i] as usize] as usize != my_part
        {
            let dest = owner[set.elem[i] as usize] as usize;
            out.entry(dest).or_default().push(Migrant {
                pos: set.pos[i],
                vel: set.vel[i],
                acc: set.acc[i],
                elem: set.elem[i],
                props: set.props[i],
            });
            // swap_remove on every SoA column.
            set.pos.swap_remove(i);
            set.vel.swap_remove(i);
            set.acc.swap_remove(i);
            set.elem.swap_remove(i);
            set.state.swap_remove(i);
            set.props.swap_remove(i);
        } else {
            i += 1;
        }
    }
    out
}

/// All-to-all exchange of migrants within `comm` (part index == rank in
/// `comm`).
/// Returns the non-empty `(dest, count)` sends in rank order and the
/// total particle count received.
fn exchange_migrants(
    comm: &Comm,
    mut outgoing: std::collections::HashMap<usize, Vec<Migrant>>,
    set: &mut ParticleSet,
) -> (Vec<(usize, usize)>, usize) {
    let n = comm.size();
    let me = comm.rank();
    let mut sent = Vec::new();
    for dest in 0..n {
        if dest == me {
            continue;
        }
        let batch = outgoing.remove(&dest).unwrap_or_default();
        if !batch.is_empty() {
            sent.push((dest, batch.len()));
        }
        comm.send(dest, TAG_MIGRATE, batch);
    }
    let mut received = 0;
    for src in 0..n {
        if src == me {
            continue;
        }
        let batch: Vec<Migrant> = comm.recv(src, TAG_MIGRATE);
        received += batch.len();
        for m in batch {
            push_particle(set, m);
        }
    }
    (sent, received)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::prepare;
    use crate::scenario::run_scenario;
    use cfpd_mesh::AirwaySpec;
    use cfpd_particles::ParticleCensus;
    use cfpd_trace::{DlbMarkKind, WorkerState};

    fn tiny_config() -> SimulationConfig {
        SimulationConfig {
            airway: AirwaySpec {
                generations: 1,
                ..AirwaySpec::small()
            },
            num_particles: 60,
            steps: 2,
            solver_tol: 1e-5,
            solver_max_iters: 300,
            ..Default::default()
        }
    }

    #[test]
    fn sync_simulation_runs_on_two_ranks() {
        let cfg = tiny_config();
        let r = run_scenario(&Scenario::deterministic(cfg, 2)).result;
        assert!(r.total_time > 0.0);
        // All phases traced on both ranks.
        for phase in [Phase::Assembly, Phase::Solver1, Phase::Solver2, Phase::Sgs] {
            let t = r.trace.per_rank_time(phase);
            assert_eq!(t.len(), 2);
            assert!(t.iter().all(|&x| x > 0.0), "{phase:?}: {t:?}");
        }
        // Particles conserved.
        let c = r.census;
        assert!(c.active + c.deposited + c.escaped + c.lost > 0);
        assert_eq!(c.lost, 0);
        assert!(!r.breakdown.is_empty());
    }

    #[test]
    fn particle_count_conserved_across_migration() {
        let cfg = tiny_config();
        let serial = run_scenario(&Scenario::deterministic(cfg.clone(), 1)).result;
        let multi = run_scenario(&Scenario::deterministic(cfg, 3)).result;
        let total = |c: &ParticleCensus| c.active + c.deposited + c.escaped + c.lost;
        assert_eq!(total(&serial.census), total(&multi.census));
    }

    #[test]
    fn coupled_mode_runs() {
        let mut cfg = tiny_config();
        cfg.mode = ExecutionMode::Coupled { fluid: 2, particles: 1 };
        let r = run_scenario(&Scenario::deterministic(cfg, 0)).result;
        // Fluid phases on fluid ranks, particle phase on particle rank.
        let asm = r.trace.per_rank_time(Phase::Assembly);
        assert!(asm[0] > 0.0 && asm[1] > 0.0 && asm[2] == 0.0);
        let par = r.trace.per_rank_time(Phase::Particles);
        assert!(par[2] > 0.0 && par[0] == 0.0);
        let c = r.census;
        assert!(c.active + c.deposited + c.escaped > 0);
    }

    /// A run executed as a chain of one-step segments, each stopping at
    /// the next boundary and handing its checkpoint (through the text
    /// codec) to the next, stitches to the uninterrupted one-thread run:
    /// synchronous, and coupled 1+1 with LeWI lending at two threads.
    #[test]
    fn stop_after_segments_stitch_bit_identically() {
        let sync = SimulationConfig { steps: 3, ..tiny_config() };
        let coupled = SimulationConfig {
            mode: ExecutionMode::Coupled { fluid: 1, particles: 1 },
            ..sync.clone()
        };
        for (cfg, ranks, threads, dlb) in [(sync, 2, 1, false), (coupled, 0, 2, true)] {
            let plain = Scenario::deterministic(cfg, ranks);
            let full = run_scenario(&plain).result;
            let mut stitched: Vec<LogicalEvent> = Vec::new();
            let mut from: Option<Arc<Checkpoint>> = None;
            let mut last = None;
            for stop_after in [Some(1), Some(2), None] {
                let restore = from.take();
                let opts = RunOptions { dlb, restore, stop_after, ..Default::default() };
                let seg = run_scenario(&Scenario { threads, opts, ..plain.clone() }).result;
                stitched.extend(seg.logical.iter().cloned());
                if let Some(cp) = &seg.checkpoint {
                    assert_eq!(Some(cp.next_step), stop_after);
                    let cp = Checkpoint::from_text(&cp.to_text()).expect("round-trip");
                    from = Some(Arc::new(cp));
                } else {
                    assert_eq!(stop_after, None, "every stopped segment must capture");
                }
                last = Some(seg);
            }
            // Segments are contiguous step ranges, each internally sorted
            // by (step, rank), so plain concatenation is the full log.
            assert_eq!(stitched, full.logical, "{:?}", plain.config.mode);
            assert_eq!(last.unwrap().census, full.census, "{:?}", plain.config.mode);
        }
    }

    #[test]
    fn stop_at_or_past_the_end_is_a_plain_full_run() {
        let cfg = tiny_config();
        let opts = RunOptions { stop_after: Some(cfg.steps), ..Default::default() };
        let plain = Scenario::deterministic(cfg, 2);
        let full = run_scenario(&plain).result;
        let r = run_scenario(&Scenario { opts, ..plain }).result;
        assert!(r.checkpoint.is_none());
        assert_eq!(r.logical, full.logical);
        assert_eq!(r.census, full.census);
    }

    #[test]
    fn benign_chaos_leaves_the_logical_trace_bit_identical() {
        let cfg = tiny_config();
        let plain = Scenario::deterministic(cfg, 2);
        let clean = run_scenario(&plain).result;
        let mut stalls = 0;
        for seed in [7, 8, 9] {
            let fault = Some(FaultConfig::benign(seed));
            let opts = RunOptions { fault, trace: true, ..Default::default() };
            let chaotic = run_scenario(&Scenario { opts, ..plain.clone() }).result;
            assert!(!chaotic.faults.is_empty(), "benign plan injected nothing");
            assert_eq!(clean.logical, chaotic.logical);
            assert_eq!(clean.census, chaotic.census);
            // The wall-clock trace carries the fault markers, on the run
            // clock: a stall is injected inside a blocking call, so its
            // marker lies inside an MPI wait of its rank's main thread.
            assert!(!chaotic.trace.chaos.is_empty());
            for f in &chaotic.faults {
                if !matches!(f.kind, cfpd_simmpi::FaultEventKind::Stall { .. }) {
                    continue;
                }
                stalls += 1;
                let inside = chaotic.trace.workers.iter().any(|w| {
                    (w.rank, w.worker, w.state) == (f.rank, 0, WorkerState::MpiWait)
                        && w.t_start <= f.t
                        && f.t <= w.t_end
                });
                assert!(inside, "seed {seed}: stall at {} s on rank {} is outside every wait", f.t, f.rank);
            }
        }
        assert!(stalls > 0, "no stall injected over seeds 7..=9");
    }

    #[test]
    fn storm_chaos_yields_a_deadlock_report_not_a_hang() {
        let cfg = tiny_config();
        let opts = RunOptions { fault: Some(FaultConfig::storm(3)), ..Default::default() };
        let s = Scenario { opts, ..Scenario::deterministic(cfg, 2) };
        let r = run_prepared(&prepare(&s.prepare_key()).unwrap(), &s);
        let fails = r.expect_err("storm run must fail");
        assert!(
            fails.iter().any(|(_, m)| m.contains("DEADLOCK") || m.contains("deadlock")),
            "no deadlock diagnostics in {fails:?}"
        );
    }

    #[test]
    fn dlb_enabled_run_produces_stats() {
        let cfg = tiny_config();
        let opts = RunOptions { dlb: true, ..Default::default() };
        let s = Scenario { threads: 2, opts, ..Scenario::deterministic(cfg, 2) };
        let stats = run_scenario(&s).result.dlb.expect("dlb stats");
        // With blocking allreduces every step, lends must have happened.
        assert!(stats.lends > 0, "{stats:?}");
        assert_eq!(stats.lends, stats.reclaims);
    }

    #[test]
    fn traced_run_captures_workers_and_messages() {
        let cfg = tiny_config();
        let opts = RunOptions { trace: true, ..Default::default() };
        let r = run_scenario(&Scenario { opts, ..Scenario::deterministic(cfg, 2) }).result;
        let tr = &r.trace;
        assert!(!tr.workers.is_empty(), "traced run must record worker events");
        assert!(!tr.messages.is_empty(), "collectives ride on p2p sends");
        // Worker-0 timelines exist on every rank and carry MPI waits
        // (every step ends in a blocking allreduce).
        for rank in 0..2 {
            assert!(tr.workers.iter().any(|w| w.rank == rank && w.worker == 0));
        }
        assert!(tr.workers.iter().any(|w| w.state == WorkerState::MpiWait));
        // All records land inside [0, total_time] and never overlap
        // within one (rank, worker) lane.
        let wall = tr.total_time();
        let mut lanes = tr.workers.clone();
        lanes.sort_by(|a, b| {
            (a.rank, a.worker)
                .cmp(&(b.rank, b.worker))
                .then(a.t_start.total_cmp(&b.t_start))
        });
        for pair in lanes.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(a.t_start >= 0.0 && a.t_end <= wall + 1e-9, "{a:?}");
            if (a.rank, a.worker) == (b.rank, b.worker) {
                assert!(a.t_end <= b.t_start + 1e-9, "overlap: {a:?} vs {b:?}");
            }
        }
        // Message records are causally sane and in-range.
        for m in &tr.messages {
            assert!(m.src < 2 && m.dst < 2);
            assert!(m.t_send <= m.t_recv + 1e-9, "{m:?}");
        }
    }

    #[test]
    fn traced_dlb_run_records_dlb_marks() {
        let cfg = tiny_config();
        let opts = RunOptions { trace: true, dlb: true, ..Default::default() };
        let s = Scenario { threads: 2, opts, ..Scenario::deterministic(cfg, 2) };
        let r = run_scenario(&s).result;
        assert!(!r.trace.dlb.is_empty(), "DLB run must surface lend/reclaim marks");
        assert!(r.trace.dlb.iter().any(|m| m.kind == DlbMarkKind::Lend));
        assert!(r.trace.dlb.iter().any(|m| m.kind == DlbMarkKind::Reclaim));
    }

    /// The arbiter's statistics are a fold over its one event log, and
    /// that log is what the trace's DLB marks are: on a lending coupled
    /// 1+1 run the two agree kind for kind and core for core.
    #[test]
    fn dlb_stats_are_the_census_of_the_runs_marks() {
        let cfg = SimulationConfig {
            mode: ExecutionMode::Coupled { fluid: 1, particles: 1 },
            ..tiny_config()
        };
        let opts = RunOptions { dlb: true, ..Default::default() };
        let s = Scenario { threads: 2, opts, ..Scenario::deterministic(cfg, 0) };
        let r = run_scenario(&s).result;
        let stats = r.dlb.expect("dlb stats");
        let marks = |kind: DlbMarkKind| r.trace.dlb.iter().filter(move |m| m.kind == kind);
        assert!(stats.lends > 0 && stats.cores_lent_total > 0, "{stats:?}");
        assert_eq!(stats.lends, marks(DlbMarkKind::Lend).count());
        assert_eq!(stats.grants, marks(DlbMarkKind::Borrow).count());
        assert_eq!(stats.reclaims, marks(DlbMarkKind::Reclaim).count());
        assert_eq!(stats.revokes, marks(DlbMarkKind::Revoke).count());
        assert_eq!(stats.crashes, marks(DlbMarkKind::Crashed).count());
        let lent = marks(DlbMarkKind::Lend).chain(marks(DlbMarkKind::Crashed));
        assert_eq!(stats.cores_lent_total, lent.map(|m| m.cores).sum::<usize>());
    }

    #[test]
    fn hetero_profile_leaves_the_logical_trace_bit_identical() {
        let cfg = tiny_config();
        let plain = Scenario::deterministic(cfg, 2);
        let clean = run_scenario(&plain).result;
        let profile = cfpd_hetero::profile_by_name("mn4_thunder", 11).unwrap();
        let opts = RunOptions { hetero: Some(profile), ..Default::default() };
        let skewed = run_scenario(&Scenario { opts, ..plain }).result;
        // The profile only stretches time: what was computed is
        // untouched, so both golden documents stay byte-identical.
        assert_eq!(clean.logical, skewed.logical);
        assert_eq!(clean.census, skewed.census);
    }

    #[test]
    fn untraced_run_stays_clean() {
        let cfg = tiny_config();
        let r = run_scenario(&Scenario::deterministic(cfg, 2)).result;
        assert!(r.trace.workers.is_empty());
        assert!(r.trace.messages.is_empty());
        assert!(r.trace.dlb.is_empty());
    }
}


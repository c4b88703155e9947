//! The narrow waist: this is the only file of the benchmark that names
//! workspace symbols. Everything else works on the plain data returned
//! from here, so a refactor of the workspace (ROADMAP items 2, 4, 5)
//! can see in one place exactly which names the benchmark pins:
//!
//! * entry points — `cfpd_core::{run_scenario, Scenario}`, the campaign
//!   DSL (`CampaignSpec::from_text`, `expand`), `run_campaign`,
//!   `cfpd_serve::{Daemon, ServeConfig, http_call}`;
//! * layouts — `LayoutPlan::{optimized, disabled}`;
//! * golden checks — `golden_config`, `golden_trace`,
//!   `golden_trace_split`, `render_golden_doc`;
//! * probe targets — `generate_airway`, `Mesh::{node_adjacency,
//!   renumber_nodes, node_to_elements, element_adjacency, cost_weights}`,
//!   `rcm_perm`, `csr_bandwidth`, `bandwidth_under_perm`,
//!   `Graph::from_csr`, `partition_kway`, `FluidSolver::{new_with_layout,
//!   step}`, `CsrMatrix::{from_mesh, spmv}`, `Locator::new`,
//!   `inject_at_inlet`, `Checkpoint::{to_text, from_text}`,
//!   `Universe::run` + `Comm::{barrier, allreduce_f64}`,
//!   `DlbNode::{new, register, lend, reclaim}`, `ThreadPool`,
//!   `parallel_for`, `TaskGraph` + `Dep::mutex`, `Wal::{open, append}`,
//!   `CellSnapshot::write`, `trace_stats`, `load_balance`;
//! * utilities — `cfpd_testkit::{parse_json, Rng, digest_bytes}`.

pub use cfpd_testkit::{digest_bytes, parse_json, JsonValue, Rng};

use crate::check::{SimFacts, Solve};
use crate::spans::Spans;
use cfpd_campaign::{expand, run_bounded, run_campaign, CampaignSpec};
use cfpd_core::{
    golden_config, golden_trace, golden_trace_split, render_golden_doc, run_scenario, Checkpoint,
    ExecutionMode, FluidSolver, LayoutPlan, LogicalEvent, RunOptions, Scenario, ScenarioOutcome,
};
use cfpd_dlb::DlbNode;
use cfpd_mesh::generate_airway;
use cfpd_particles::{inject_at_inlet, Locator, ParticleSet};
use cfpd_partition::{bandwidth_under_perm, csr_bandwidth, partition_kway, rcm_perm, Graph};
use cfpd_runtime::{parallel_for, Dep, TaskGraph, ThreadPool};
use cfpd_serve::{
    http_call, CellAcc, CellSnapshot, Daemon, PersistGate, ServeConfig, Wal, WalRecord,
};
use cfpd_simmpi::{ReduceOp, Universe};
use cfpd_solver::CsrMatrix;
use cfpd_trace::{load_balance, trace_stats, WorkerState};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// No hidden retries: an op that has not finished by then is failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(60);

// ---------------------------------------------------------------------
// Simulation ops

/// Phase of a time step, in the order the trace crate lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    Mpi,
    Assembly,
    Solver1,
    Solver2,
    Sgs,
    Particles,
}

impl Phase {
    /// Span name (layer-qualified) of the phase.
    pub fn span_name(self) -> &'static str {
        match self {
            Phase::Mpi => "simmpi.comm",
            Phase::Assembly => "solver.assembly",
            Phase::Solver1 => "solver.solver1",
            Phase::Solver2 => "solver.solver2",
            Phase::Sgs => "solver.sgs",
            Phase::Particles => "particles.phase",
        }
    }
}

/// One phase interval of one rank, in seconds on that rank's run clock.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpan {
    pub rank: usize,
    pub phase: Phase,
    pub t0: f64,
    pub t1: f64,
}

/// One simulation run request: a single-cell campaign document parsed
/// by the real DSL.
#[derive(Debug, Clone)]
pub struct SimSpec {
    scenario: Scenario,
}

impl SimSpec {
    /// Parse campaign text that expands to exactly one cell.
    pub fn parse(text: &str) -> Result<SimSpec, String> {
        let mut cells = JobSpec::parse(text)?.cells();
        if cells.len() != 1 {
            return Err(format!(
                "workload expands to {} cells, expected 1",
                cells.len()
            ));
        }
        Ok(cells.remove(0))
    }

    pub fn steps(&self) -> usize {
        self.scenario.config.steps
    }

    pub fn particles(&self) -> usize {
        self.scenario.config.num_particles
    }

    /// Checkpoint/restart is defined for synchronous runs only.
    pub fn is_sync(&self) -> bool {
        self.scenario.config.mode == ExecutionMode::Synchronous
    }

    pub fn dlb(&self) -> bool {
        self.scenario.opts.dlb
    }

    /// The same run with the structured trace (MPI waits, messages) on.
    pub fn traced(&self) -> SimSpec {
        let mut s = self.clone();
        s.scenario.opts.trace = true;
        s
    }

    pub fn with_dlb(&self, on: bool) -> SimSpec {
        let mut s = self.clone();
        s.scenario.opts.dlb = on;
        s
    }

    /// The same run on the reference (unoptimized) layout.
    pub fn reference_layout(&self) -> SimSpec {
        let mut s = self.clone();
        s.scenario.config.layout = LayoutPlan::disabled();
        s
    }

    /// A smaller run of the same shape (mode, ranks, seed, inflow,
    /// layout, tolerances), for the untimed twin checks and `--quick`.
    pub fn reduced(&self, generations: usize, particles: usize, steps: usize) -> SimSpec {
        let mut s = self.clone();
        s.scenario.config.airway.generations = generations;
        s.scenario.config.num_particles = particles;
        s.scenario.config.steps = steps;
        s
    }
}

/// What one op returned, converted to plain data.
pub struct OpOut {
    pub facts: SimFacts,
    pub phases: Vec<PhaseSpan>,
    /// Particles shipped between ranks over the whole run.
    pub migrated: usize,
    /// `(lends, cores lent)` when DLB was on.
    pub dlb: Option<(usize, usize)>,
    /// Worker-0 MPI wait intervals `(rank, t0, t1)`; traced ops only.
    pub waits: Vec<(usize, f64, f64)>,
    /// Whether the structured trace was on (waits and messages recorded).
    pub traced: bool,
    /// Point-to-point messages and their payload bytes; traced ops only.
    pub msgs: usize,
    pub msg_bytes: usize,
    /// Parallel efficiency and load balance of the phase trace.
    pub pe: f64,
    pub load_balance: f64,
    raw: ScenarioOutcome,
}

fn convert(spec: &SimSpec, raw: ScenarioOutcome) -> OpOut {
    let r = &raw.result;
    let mut solves = Vec::new();
    let mut migrated = 0;
    for e in &r.logical {
        match e {
            LogicalEvent::Solve {
                step,
                rank,
                system,
                iterations,
                converged,
                ..
            } => solves.push(Solve {
                step: *step,
                rank: *rank,
                system: *system,
                iterations: *iterations,
                converged: *converged,
            }),
            LogicalEvent::Exchange { sent, .. } => {
                migrated += sent.iter().map(|(_, n)| n).sum::<usize>()
            }
            _ => {}
        }
    }
    let phases = r
        .trace
        .events
        .iter()
        .map(|e| PhaseSpan {
            rank: e.rank,
            phase: match e.phase {
                cfpd_trace::Phase::MpiComm => Phase::Mpi,
                cfpd_trace::Phase::Assembly => Phase::Assembly,
                cfpd_trace::Phase::Solver1 => Phase::Solver1,
                cfpd_trace::Phase::Solver2 => Phase::Solver2,
                cfpd_trace::Phase::Sgs => Phase::Sgs,
                cfpd_trace::Phase::Particles => Phase::Particles,
            },
            t0: e.t_start,
            t1: e.t_end,
        })
        .collect();
    let waits = r
        .trace
        .workers
        .iter()
        .filter(|w| w.worker == 0 && w.state == WorkerState::MpiWait)
        .map(|w| (w.rank, w.t_start, w.t_end))
        .collect();
    let mut useful = vec![0.0; r.trace.num_ranks.max(1)];
    for e in &r.trace.events {
        if e.phase != cfpd_trace::Phase::MpiComm {
            useful[e.rank] += e.duration();
        }
    }
    let c = r.census;
    OpOut {
        facts: SimFacts {
            doc: raw.doc.clone(),
            solves,
            census: [c.active, c.deposited, c.escaped, c.lost],
            particles: spec.particles(),
            max_iters: spec.scenario.config.solver_max_iters,
            events: r.logical.len(),
        },
        phases,
        migrated,
        dlb: r.dlb.as_ref().map(|d| (d.lends, d.cores_lent_total)),
        waits,
        traced: spec.scenario.opts.trace,
        msgs: r.trace.messages.len(),
        msg_bytes: r.trace.messages.iter().map(|m| m.bytes).sum(),
        pe: trace_stats(&r.trace).parallel_efficiency,
        load_balance: load_balance(&useful),
        raw,
    }
}

/// Run one op through `run_scenario`, golden document included. A rank
/// failure (deadlock verdict, panic) or [`OP_TIMEOUT`] is an `Err`.
pub fn run_op(spec: &SimSpec) -> Result<OpOut, String> {
    let scenario = spec.scenario.clone();
    let run = move || std::panic::catch_unwind(move || run_scenario(&scenario));
    match run_bounded(run, Some(OP_TIMEOUT)) {
        None => Err(format!("op exceeded its {} s budget", OP_TIMEOUT.as_secs())),
        Some(Err(_)) => Err("op panicked (rank failure or deadlock verdict)".to_string()),
        Some(Ok(raw)) => Ok(convert(spec, raw)),
    }
}

// ---------------------------------------------------------------------
// Golden and twin checks

/// `golden_config()` at 2 ranks, default and optimized layout, against
/// the checked-in goldens read at run time from `<root>/tests/golden`.
pub fn check_goldens(root: &Path) -> Vec<String> {
    let mut bad = Vec::new();
    for (file, layout) in [
        ("sync_small.golden", LayoutPlan::disabled()),
        ("sync_small_opt.golden", LayoutPlan::optimized()),
    ] {
        let path = root.join("tests/golden").join(file);
        let mut config = golden_config();
        config.layout = layout;
        match std::fs::read_to_string(&path) {
            Err(e) => bad.push(format!("cannot read {}: {e}", path.display())),
            Ok(want) if golden_trace(&config, 2) != want => {
                bad.push(format!("golden_config() no longer reproduces {file}"))
            }
            Ok(_) => {}
        }
    }
    bad
}

/// The checkpoint-restart twin: the run split after `split_after`
/// steps, round-tripped through the checkpoint codec and resumed, must
/// render the uninterrupted document.
pub fn split_twin_doc(spec: &SimSpec, split_after: usize) -> String {
    golden_trace_split(&spec.scenario.config, spec.scenario.ranks, split_after)
}

// ---------------------------------------------------------------------
// Set-up probes: replay, one call at a time, what `run_scenario` does
// before its first time step, with the op's own inputs.

/// Facts and per-call times of one replay of the op's set-up.
#[derive(Debug, Clone, Default)]
pub struct SetupProbe {
    pub elements: usize,
    pub nodes: usize,
    /// Node-adjacency bandwidth in the order the solver sees.
    pub rcm_bandwidth: usize,
    /// Heaviest part over mean part weight of the k-way partition.
    pub imbalance: f64,
    pub generate_s: f64,
    /// 0 when the layout does not renumber.
    pub adjacency_s: f64,
    pub rcm_s: f64,
    pub kway_s: f64,
    pub construct_s: f64,
    pub locator_build_s: f64,
    pub inject_s: f64,
    /// Sum of the calls that precede the stepping span: the mesh (built
    /// twice: once to run, once more by the document header) and the
    /// chain of the rank that starts stepping first.
    pub critical_s: f64,
}

pub fn probe_setup(spec: &SimSpec, spans: &mut Spans) -> SetupProbe {
    let cfg = &spec.scenario.config;
    let mut p = SetupProbe::default();
    let (airway, t) = spans.time("mesh.generate", || generate_airway(&cfg.airway));
    let mut airway = airway.expect("workload airway spec is valid");
    p.generate_s = t;
    if cfg.layout.rcm {
        let (adj, t) = spans.time("mesh.adjacency", || airway.mesh.node_adjacency());
        p.adjacency_s = t;
        let (perm, t) = spans.time("partition.rcm", || {
            let perm = rcm_perm(&adj);
            airway.mesh.renumber_nodes(&perm);
            perm
        });
        p.rcm_s = t;
        p.rcm_bandwidth = bandwidth_under_perm(&adj, &perm);
    } else {
        p.rcm_bandwidth = csr_bandwidth(&airway.mesh.node_adjacency());
    }
    let mesh = &airway.mesh;
    p.elements = mesh.num_elements();
    p.nodes = mesh.num_nodes();

    // Every rank partitions the whole mesh for itself.
    let fluid_parts = match cfg.mode {
        ExecutionMode::Synchronous => spec.scenario.ranks,
        ExecutionMode::Coupled { fluid, .. } => fluid,
    };
    let (my_elems, t) = spans.time("partition.kway", || {
        let n2e = mesh.node_to_elements();
        let adj = mesh.element_adjacency(&n2e);
        let g = Graph::from_csr(&adj, mesh.cost_weights());
        let part = partition_kway(&g, fluid_parts, 4);
        let w = part.part_weights(&g);
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        let imbalance = w.iter().cloned().fold(0.0, f64::max) / mean;
        (part.part_members().swap_remove(0), imbalance)
    });
    p.kway_s = t;
    p.imbalance = my_elems.1;
    let (fs, t) = spans.time("solver.construct", || {
        FluidSolver::new_with_layout(
            mesh,
            my_elems.0,
            cfg.strategy,
            cfg.subdomains_per_rank,
            cfg.fluid,
            cfg.dt,
            airway.inlet_direction * cfg.inflow_speed,
            cfg.solver_tol,
            cfg.solver_max_iters,
            cfg.layout,
        )
    });
    p.construct_s = t;
    drop(fs);
    let (locator, t) = spans.time("particles.locator_build", || Locator::new(mesh));
    p.locator_build_s = t;
    let (injected, t) = spans.time("particles.inject", || {
        let mut all = ParticleSet::default();
        inject_at_inlet(
            &mut all,
            &locator,
            airway.inlet_center,
            airway.inlet_direction,
            airway.inlet_radius,
            cfg.inflow_speed,
            cfg.particle,
            cfg.num_particles,
            cfg.seed,
        )
    });
    black_box(injected);
    p.inject_s = t;

    // A synchronous rank does both chains; in a coupled run the two
    // groups set up side by side and the stepping span opens with the
    // first of them to finish (the other's remainder overlaps step 0).
    let (fluid_chain, particle_chain) = (p.construct_s, p.locator_build_s + p.inject_s);
    p.critical_s = 2.0 * p.generate_s
        + p.adjacency_s
        + p.rcm_s
        + p.kway_s
        + match cfg.mode {
            ExecutionMode::Synchronous => fluid_chain + particle_chain,
            ExecutionMode::Coupled { .. } => fluid_chain.min(particle_chain),
        };
    p
}

/// Re-render the op's golden document from its logical log.
pub fn probe_render(spec: &SimSpec, op: &OpOut, spans: &mut Spans) -> f64 {
    let r = &op.raw.result;
    let (doc, t) = spans.time("core.render", || {
        render_golden_doc(
            &spec.scenario.config,
            spec.scenario.ranks,
            &r.logical,
            &r.census,
        )
    });
    assert_eq!(doc, op.raw.doc, "re-rendered document differs");
    t
}

/// Kernel-level probes on the whole mesh, one thread, no communication.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelProbe {
    /// Assembly phase of one stand-alone `FluidSolver::step`.
    pub assembly_kernel_s: f64,
    /// Median time of one CSR SpMV on the solver's sparsity pattern.
    pub spmv_s: f64,
    /// Bytes one SpMV touches, computed from the array sizes.
    pub spmv_bytes: usize,
}

pub fn probe_kernels(spec: &SimSpec, spans: &mut Spans) -> KernelProbe {
    let cfg = &spec.scenario.config;
    let mut airway = generate_airway(&cfg.airway).expect("workload airway spec is valid");
    if cfg.layout.rcm {
        let perm = rcm_perm(&airway.mesh.node_adjacency());
        airway.mesh.renumber_nodes(&perm);
    }
    let mesh = &airway.mesh;
    let matrix = CsrMatrix::from_mesh(mesh, &mesh.node_to_elements());
    let x = vec![1.0; matrix.n];
    let mut y = vec![0.0; matrix.n];
    let mut times = Vec::new();
    let outer = spans.begin("solver.spmv");
    for _ in 0..21 {
        let t0 = Instant::now();
        matrix.spmv(black_box(&x), &mut y);
        times.push(t0.elapsed().as_secs_f64());
        black_box(&y);
    }
    spans.end(outer);
    // values + column indices per entry; row pointer, x and y per row.
    let spmv_bytes = matrix.nnz() * (8 + 4) + matrix.n * (4 + 8 + 8);

    let pool = ThreadPool::new(1);
    let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
    let mut fs = FluidSolver::new_with_layout(
        mesh,
        elems,
        cfg.strategy,
        cfg.subdomains_per_rank,
        cfg.fluid,
        cfg.dt,
        airway.inlet_direction * cfg.inflow_speed,
        cfg.solver_tol,
        cfg.solver_max_iters,
        cfg.layout,
    );
    let (report, _) = spans.time("solver.assembly_kernel", || fs.step(&pool));
    KernelProbe {
        assembly_kernel_s: report.t_assembly,
        spmv_s: crate::stats::median(&times),
        spmv_bytes,
    }
}

/// Checkpoint codec times on the state of the op after its first step.
pub struct CheckpointProbe {
    pub text: String,
    pub encode_s: f64,
    pub decode_s: f64,
}

/// `None` for runs that cannot be checkpointed (coupled mode).
pub fn probe_checkpoint(spec: &SimSpec, spans: &mut Spans) -> Option<CheckpointProbe> {
    if !spec.is_sync() || spec.steps() < 2 {
        return None;
    }
    let mut s = spec.scenario.clone();
    s.opts = RunOptions {
        stop_after: Some(1),
        ..s.opts
    };
    let cp = run_scenario(&s)
        .result
        .checkpoint
        .expect("stop_after yields a checkpoint");
    let (text, encode_s) = spans.time("core.checkpoint_encode", || cp.to_text());
    let (back, decode_s) = spans.time("core.checkpoint_decode", || Checkpoint::from_text(&text));
    assert_eq!(back.expect("checkpoint text decodes").digest(), cp.digest());
    Some(CheckpointProbe {
        text,
        encode_s,
        decode_s,
    })
}

/// Empty 2-worker `parallel_for` region and a 16-task `mutexinoutset`
/// graph: `(region_us, task_us per task)`.
pub fn probe_runtime(spans: &mut Spans) -> (f64, f64) {
    const REGIONS: usize = 2000;
    const GRAPHS: usize = 200;
    let pool = ThreadPool::new(2);
    let ((), region) = spans.time("runtime.region", || {
        for _ in 0..REGIONS {
            parallel_for(&pool, 0..2, 1, |r| {
                black_box(r);
            });
        }
    });
    let ((), tasks) = spans.time("runtime.task", || {
        for _ in 0..GRAPHS {
            let mut g = TaskGraph::new();
            for i in 0..16 {
                g.add_task(&[Dep::mutex(i % 4)], move || {
                    black_box(i);
                });
            }
            g.execute(&pool);
        }
    });
    (
        region / REGIONS as f64 * 1e6,
        tasks / (GRAPHS * 16) as f64 * 1e6,
    )
}

/// One scalar allreduce between 2 ranks, microseconds.
pub fn probe_allreduce(spans: &mut Spans) -> f64 {
    const ROUNDS: usize = 2000;
    let (per_rank, _) = spans.time("simmpi.allreduce", || {
        Universe::run(2, |comm| {
            comm.barrier();
            let t0 = Instant::now();
            for _ in 0..ROUNDS {
                black_box(comm.allreduce_f64(1.0, ReduceOp::Sum));
            }
            t0.elapsed().as_secs_f64()
        })
    });
    per_rank[0] / ROUNDS as f64 * 1e6
}

/// One LeWI lend + reclaim pair on a 2-rank node, microseconds.
pub fn probe_lend_reclaim(spans: &mut Spans) -> f64 {
    const ROUNDS: usize = 2000;
    let node = DlbNode::new();
    for rank in 0..2 {
        node.register(rank, Arc::new(ThreadPool::new(2)), 1);
    }
    let ((), t) = spans.time("dlb.lend_reclaim", || {
        for _ in 0..ROUNDS {
            node.lend(1);
            node.reclaim(1);
        }
    });
    t / ROUNDS as f64 * 1e6
}

// ---------------------------------------------------------------------
// Campaign jobs and the daemon

/// A campaign document as submitted to the daemon.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub text: String,
    spec: CampaignSpec,
}

impl JobSpec {
    pub fn parse(text: &str) -> Result<JobSpec, String> {
        let spec = CampaignSpec::from_text(text).map_err(|e| e.to_string())?;
        Ok(JobSpec {
            text: text.to_string(),
            spec,
        })
    }

    pub fn cells(&self) -> Vec<SimSpec> {
        expand(&self.spec)
            .expect("spec validated at parse time")
            .into_iter()
            .map(|c| SimSpec {
                scenario: c.scenario,
            })
            .collect()
    }

    /// The canonical report of running the campaign directly, one cell
    /// at a time: what a served result must be byte-equal to.
    pub fn run_direct(&self) -> String {
        run_campaign(&self.spec, Some(1)).render_json()
    }
}

/// Parse + expand of a campaign document, microseconds.
pub fn probe_parse_expand(text: &str, spans: &mut Spans) -> f64 {
    const ROUNDS: usize = 200;
    let ((), t) = spans.time("campaign.parse_expand", || {
        for _ in 0..ROUNDS {
            let spec = CampaignSpec::from_text(black_box(text)).expect("valid workload text");
            black_box(expand(&spec).expect("valid workload matrix"));
        }
    });
    t / ROUNDS as f64 * 1e6
}

/// Direct run and report rendering of a job: `(direct_job_s,
/// render_json_us, report)`.
pub fn probe_direct_job(job: &JobSpec, spans: &mut Spans) -> (f64, f64, String) {
    let (report, direct) = spans.time("campaign.direct_job", || run_campaign(&job.spec, Some(1)));
    let (json, render) = spans.time("campaign.render_json", || report.render_json());
    (direct, render * 1e6, json)
}

/// An in-process daemon on an ephemeral port.
pub struct Served {
    daemon: Daemon,
    pub addr: String,
}

/// `Daemon::start` with 1 worker (so that the daemon keeps one core busy,
/// not both), a snapshot at every step boundary and everything else at
/// its default.
pub fn start_daemon(data_dir: &Path) -> std::io::Result<Served> {
    let daemon = Daemon::start(ServeConfig {
        data_dir: data_dir.to_path_buf(),
        workers: 1,
        ckpt_interval: 1,
        ..Default::default()
    })?;
    let addr = daemon.addr().to_string();
    Ok(Served { daemon, addr })
}

impl Served {
    /// Stop every daemon thread and wait for them.
    pub fn stop(self) {
        self.daemon.kill();
    }
}

/// One HTTP/1.1 request over a fresh connection: `(status, body)`.
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    http_call(addr, method, path, body)
}

pub fn wal_path(data_dir: &Path) -> PathBuf {
    data_dir.join("wal.log")
}

/// One WAL append (digest, write, flush), microseconds.
pub fn probe_wal_append(dir: &Path, spans: &mut Spans) -> std::io::Result<f64> {
    const ROUNDS: usize = 500;
    let wal = Wal::open(&dir.join("probe-wal.log"), "", 0, PersistGate::unlimited())?;
    let ((), t) = spans.time("serve.wal_append", || {
        for i in 0..ROUNDS {
            wal.append(&WalRecord::Ckpt {
                job: 1,
                cell: 0,
                step: i,
                snap_digest: i as u64,
            });
        }
    });
    Ok(t / ROUNDS as f64 * 1e6)
}

/// One atomic snapshot write of a job cell parked on `checkpoint_text`:
/// `(write_us, snapshot bytes)`.
pub fn probe_snapshot(checkpoint_text: String, dir: &Path, spans: &mut Spans) -> (f64, usize) {
    const ROUNDS: usize = 50;
    let snap = CellSnapshot {
        job: 1,
        cell: 0,
        attempt: 0,
        next_step: 1,
        acc: CellAcc::default(),
        events_text: String::new(),
        checkpoint_text,
    };
    let gate = PersistGate::unlimited();
    let path = dir.join("probe.snap");
    let ((), t) = spans.time("serve.snapshot_write", || {
        for _ in 0..ROUNDS {
            assert!(snap.write(&path, &gate), "snapshot write failed");
        }
    });
    (t / ROUNDS as f64 * 1e6, snap.to_text().len())
}

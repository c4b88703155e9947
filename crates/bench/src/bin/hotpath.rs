//! Hot-path benchmark: what the two layouts run — assembly, SpMV and
//! pressure solve on the airway mesh in either order — next to the
//! oracles of `cfpd_solver::oracle` and the serial references those
//! paths are held against, plus the RCM bandwidth reduction: the
//! evidence for DESIGN.md §9 and the raw-speed pass of §14. It prints
//! what production runs and what it is compared with, nothing else.
//!
//! Writes the usual text table to `results/BENCH_hotpath.txt` and a
//! machine-readable `results/BENCH_hotpath.json` (per-routine name,
//! median ns, timed iterations, element count). The JSON additionally
//! carries a `"phases"` section (per-phase default vs opt medians for
//! SpMV, Jacobi apply, axpy/dot, SGS sweep and assembly), a `"solve"`
//! section (iterations and time of the pressure solve to 1e-6: the
//! Jacobi-CG reference against the production deflated CG in either
//! node order) and an `"end_to_end"` section (assembly + that pressure
//! solve on each layout), so later PRs have a perf trajectory to diff
//! against. The
//! `setup/*` rows time what a run pays once before its first step: the
//! subdomain graph, the 16-way partition (and, of it, one seed search
//! and the refinement), the whole Multidep plan, the serial plan (the
//! batch schedule with no partition in front), the deflation structure
//! and its values, the particle locator (complete, and as a run builds it) and an injection — and, end to end on the optimized layout, `setup/prepare`
//! (everything a run derives from its mesh, built once per
//! `PrepareKey`) against `setup/instantiate` (the values-only solver
//! every further run on that `Prepared` allocates). `serve/boundary`
//! is one segment boundary of the daemon on this mesh's state, through
//! the writer its workers call: checkpoint encoded into the snapshot
//! buffer, digest, atomic write — and `serve/restore`
//! what a restarted daemon does with that file: read, verify against
//! the pinned digest, decode snapshot and checkpoint. `solver1/*` is the
//! momentum solve of a developed flow — three scalar solves (the oracle)
//! against the block solve — and `spmm3/sell` one of its three-column
//! sweeps; `sgs/default` is the oracle sweep (the plan's strategy, one
//! element at a time) against the lane sweep every run does
//! (`sgs/batched-lanes`, on the same converged field, and `sgs/iterating`,
//! on a field that has to iterate); `particles/step-oracle` is one transport step
//! of the injected particles through the scalar sweep
//! (`cfpd_particles::oracle`) against the lane-block sweep every run
//! does (`particles/step-lanes`); `assembly/serial-pass` is the
//! one-thread yardstick the set-up gate of `scripts/verify.sh` divides by.
//!
//! Full (non-`--quick`) runs refuse to overwrite a committed
//! `BENCH_hotpath.json` whose end-to-end numbers would regress by more
//! than 10%, unless `CFPD_BLESS_BENCH=1` — the bench-trajectory gate.
//!
//! `--quick` shrinks the mesh and sample count for the CI smoke in
//! `scripts/verify.sh`.

#![forbid(unsafe_code)]

use std::hint::black_box;

use cfpd_bench::{emit, emit_json, json_rows};
use cfpd_core::{
    prepare, BoundaryConditions, Checkpoint, FluidSolver, PrepareKey, Prepared, RankCheckpoint,
    SimulationConfig,
};
use cfpd_mesh::{generate_airway, AirwayMesh, AirwaySpec, FaceNeighbors, Mesh, Vec3};
use cfpd_particles::{inject_at_inlet, step_particles, Locator, ParticleProps, ParticleSet};
use cfpd_partition::{
    bandwidth_under_perm, csr_bandwidth, kway, partition_kway, rcm_perm, FaceGraphs,
};
use cfpd_runtime::ThreadPool;
use cfpd_serve::{CellAcc, CellSnapshot, CheckpointSection, PersistGate, SnapshotParts};
use cfpd_solver::{
    assemble_divergence, assemble_momentum, assemble_poisson, axpy_dot_fused, bicgstab3, cg,
    compute_sgs, oracle, spmm3_sweep, AssemblyPlan, AssemblyStrategy, Bicgstab3Workspace,
    CsrMatrix, Deflation, ElementOrder, FluidProps, LayoutPlan, RefElement, SellMatrix,
    SellStructure, SgsField, SolveStats,
};
use cfpd_testkit::bench::{Bench, BenchConfig, BenchStats};
use cfpd_testkit::json;

const N_SUBDOMAINS: usize = 16;
/// Tolerance of the `solve/*` rows, the one the benchmark workloads use.
const SOLVE_TOL: f64 = 1e-6;
const SOLVE_MAX_ITERS: usize = 20_000;
/// Chunk count for the standalone axpy/dot phase benches (mirrors the
/// fused CG's nnz-balanced splitting).
const AXPY_CHUNKS: usize = 64;

fn synthetic_velocity(mesh: &Mesh) -> Vec<Vec3> {
    mesh.coords.iter().map(|p| Vec3::new(p.z, -p.x, p.y * 0.5)).collect()
}

/// Dirichlet-closed pressure Poisson system (the Solver2 workload) and
/// its boundary node sets; `faces` is the mesh's face table.
fn pressure_system(mesh: &Mesh, faces: &FaceNeighbors, pool: &ThreadPool) -> PressureSystem {
    let n2e = mesh.node_to_elements();
    let mut matrix = SellMatrix::from_csr(&CsrMatrix::from_mesh(mesh, &n2e));
    let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
    let (strategy, order) = (AssemblyStrategy::Serial, ElementOrder::List);
    let plan = AssemblyPlan::new(mesh, faces, elems, strategy, 1, matrix.structure(), order);
    let refs = RefElement::all();
    let velocity = synthetic_velocity(mesh);
    let mut rhs = vec![0.0; mesh.num_nodes()];
    assemble_poisson(pool, &refs, mesh, &plan, &mut matrix);
    assemble_divergence(pool, &refs, mesh, &plan, &velocity, FluidProps::default(), 1e-4, &mut rhs);
    let bc = BoundaryConditions::from_mesh(mesh);
    for &v in &bc.outlet_nodes {
        matrix.set_dirichlet_row(v as usize);
        rhs[v as usize] = 0.0;
    }
    (matrix.to_csr(), rhs, bc)
}

fn bench_assembly(b: &mut Bench, mesh: &Mesh, faces: &FaceNeighbors, pool: &ThreadPool) {
    let n2e = mesh.node_to_elements();
    let template = CsrMatrix::from_mesh(mesh, &n2e);
    let sell = std::sync::Arc::new(SellStructure::from_csr(&template));
    let refs = RefElement::all();
    let velocity = synthetic_velocity(mesh);
    let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
    let multidep = |order| {
        let strategy = AssemblyStrategy::Multidep;
        AssemblyPlan::new(mesh, faces, elems.clone(), strategy, N_SUBDOMAINS, &sell, order)
    };
    let plan_default = multidep(ElementOrder::List);
    let plan_lanes = multidep(ElementOrder::KindGrouped);
    // One serial element pass — the oracle's scalar kernels, scattered on
    // one thread: the yardstick the set-up rows are held against in
    // `scripts/verify.sh` (host load moves one-thread rows together).
    let plan_serial = AssemblyPlan::new(
        mesh,
        faces,
        elems.clone(),
        AssemblyStrategy::Serial,
        1,
        &sell,
        ElementOrder::List,
    );
    let one_thread = ThreadPool::new(1);
    let (props, dt, gravity) = (FluidProps::default(), 1e-4, Vec3::new(0.0, 0.0, -9.81));
    let fresh_rhs = || vec![vec![0.0; mesh.num_nodes()]; 3];

    // What a run does on either layout: scattered straight into SELL order.
    let by_kind = ("assembly/batched-lanes", &plan_lanes);
    for (label, plan) in [("assembly/default", &plan_default), by_kind] {
        b.bench_batched(
            label,
            || (SellMatrix::zeros(std::sync::Arc::clone(&sell)), fresh_rhs()),
            |(mut a, mut rhs)| {
                let stats = assemble_momentum(
                    pool, &refs, mesh, plan, &velocity, props, dt, gravity, &mut a, &mut rhs,
                );
                black_box((a, rhs, stats.elements));
            },
        );
    }
    // The element-at-a-time loops the reference layout ran before
    // (`cfpd_solver::oracle`), adding into CSR.
    for (label, plan, pool) in [
        ("assembly/oracle", &plan_default, pool),
        ("assembly/serial-pass", &plan_serial, &one_thread),
    ] {
        b.bench_batched(
            label,
            || (template.clone(), fresh_rhs()),
            |(mut a, mut rhs)| {
                let stats = oracle::assemble_momentum(
                    pool, &refs, mesh, plan, &velocity, props, dt, gravity, &mut a, &mut rhs,
                );
                black_box((a, rhs, stats.elements));
            },
        );
    }
}

/// One SpMV in the CSR storage (serial: the reference every sweep is
/// bit-compared with) and in the SELL storage the solves sweep.
fn bench_spmv(b: &mut Bench, label: &str, matrix: &CsrMatrix) {
    let n = matrix.n;
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    b.bench(&format!("spmv/{label}"), || {
        let mut y = vec![0.0; n];
        matrix.spmv(black_box(&x), &mut y);
        black_box(y);
    });
    let sell = SellMatrix::from_csr(matrix);
    b.bench(&format!("spmv-sell/{label}"), || {
        let mut y = vec![0.0; n];
        sell.spmv(black_box(&x), &mut y);
        black_box(y);
    });
}

/// A Dirichlet-closed pressure system with its boundary node sets.
type PressureSystem = (CsrMatrix, Vec<f64>, BoundaryConditions);

/// Iteration counts of the `solve/*` rows (every sample of a row solves
/// the same system from the same start, so each count is a constant).
#[derive(Default)]
struct SolveIters {
    jacobi: usize,
    deflated: usize,
    deflated_native: usize,
}

/// The pressure solve to [`SOLVE_TOL`]: Jacobi CG (the reference)
/// against the production deflated CG on the RCM-ordered system (the
/// fast layout) and on the native order (the reference layout) — SELL
/// sweeps on both — and what building the deflation structure costs.
fn bench_solve(
    b: &mut Bench,
    native: &PressureSystem,
    rcm: &PressureSystem,
    pool: &ThreadPool,
) -> SolveIters {
    let mut iters = SolveIters::default();
    let (matrix, rhs, bc) = rcm;
    let n = matrix.n;
    b.bench_batched(
        "solve/poisson-jacobi",
        || vec![0.0; n],
        |mut x| {
            let stats = cg(matrix, rhs, &mut x, SOLVE_TOL, SOLVE_MAX_ITERS);
            assert!(stats.converged, "Jacobi CG: {stats:?}");
            iters.jacobi = stats.iterations;
            black_box(x);
        },
    );
    b.bench("setup/deflation-build", || {
        black_box(Deflation::new(matrix, &bc.inlet_nodes, &bc.outlet_nodes).num_groups());
    });
    let sell = SellMatrix::from_csr(matrix);
    let mut deflation = Deflation::new(matrix, &bc.inlet_nodes, &bc.outlet_nodes);
    // The operator is constant: a run loads its values once, with the
    // first step, and every solve after that only solves.
    b.bench("setup/deflation-refresh", || deflation.refresh(black_box(&sell)));
    b.bench_batched(
        "solve/poisson-deflated",
        || vec![0.0; n],
        |mut x| {
            let stats = deflation.solve(&sell, rhs, &mut x, SOLVE_TOL, SOLVE_MAX_ITERS, pool);
            assert!(stats.converged, "deflated CG: {stats:?}");
            iters.deflated = stats.iterations;
            black_box(x);
        },
    );
    let (matrix, rhs, bc) = native;
    let sell = SellMatrix::from_csr(matrix);
    let mut deflation = Deflation::new(matrix, &bc.inlet_nodes, &bc.outlet_nodes);
    deflation.refresh(&sell);
    b.bench_batched(
        "solve/poisson-deflated-native",
        || vec![0.0; n],
        |mut x| {
            let stats = deflation.solve(&sell, rhs, &mut x, SOLVE_TOL, SOLVE_MAX_ITERS, pool);
            assert!(stats.converged, "deflated CG, native order: {stats:?}");
            iters.deflated_native = stats.iterations;
            black_box(x);
        },
    );
    iters
}

/// Standalone per-phase kernels outside a full CG run: Jacobi apply,
/// axpy/dot (split vs fused) and the SGS sweep (the scalar oracle under
/// the plan's strategy against the kind-batched lane sweep every run
/// does).
fn bench_phases(
    b: &mut Bench,
    mesh: &Mesh,
    faces: &FaceNeighbors,
    matrix: &CsrMatrix,
    pool: &ThreadPool,
) {
    let n = matrix.n;
    let diag = matrix.diagonal();
    let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos()).collect();
    b.bench("jacobi/apply", || {
        let mut z = vec![0.0; n];
        for i in 0..n {
            let d = diag[i];
            z[i] = if d.abs() > 1e-300 { black_box(r[i]) / d } else { r[i] };
        }
        black_box(z);
    });

    let chunk = n.div_ceil(AXPY_CHUNKS).max(1);
    let ranges: Vec<std::ops::Range<usize>> =
        (0..n).step_by(chunk).map(|lo| lo..(lo + chunk).min(n)).collect();
    b.bench_batched(
        "axpy-dot/split",
        || r.clone(),
        |mut y| {
            let alpha = 0.3;
            for i in 0..n {
                y[i] += alpha * r[i];
            }
            let mut acc = 0.0;
            for yi in &y {
                acc += yi * yi;
            }
            black_box((y, acc));
        },
    );
    b.bench_batched(
        "axpy-dot/fused",
        || r.clone(),
        |mut y| {
            let acc = axpy_dot_fused(pool, &ranges, 0.3, &r, &mut y);
            black_box((y, acc));
        },
    );

    let refs = RefElement::all();
    let mut velocity = synthetic_velocity(mesh);
    let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
    let plan = AssemblyPlan::new(
        mesh,
        faces,
        elems,
        AssemblyStrategy::Multidep,
        N_SUBDOMAINS,
        &SellStructure::from_csr(matrix),
        ElementOrder::List,
    );
    let props = FluidProps::default();
    let mut field = SgsField::new(mesh, &plan.elems);
    b.bench("sgs/default", || {
        let stats =
            oracle::compute_sgs(pool, &refs, mesh, &plan, &velocity, props, &mut field, 5, 1e-6);
        black_box(stats.elements);
    });
    let mut field = SgsField::new(mesh, &plan.elems);
    b.bench("sgs/batched-lanes", || {
        let stats = compute_sgs(pool, &refs, mesh, &velocity, props, &mut field, 5, 1e-6);
        black_box(stats.elements);
    });
    // The same sweep on a field that has to iterate, as a step's does:
    // each sample sweeps with the other of two velocity fields, starting
    // from what the previous sample converged to.
    let mut other: Vec<Vec3> = mesh.coords.iter().map(|p| Vec3::new(p.y, 0.5 * p.z, -p.x)).collect();
    b.bench("sgs/iterating", || {
        std::mem::swap(&mut velocity, &mut other);
        let stats = compute_sgs(pool, &refs, mesh, &velocity, props, &mut field, 5, 1e-6);
        black_box(stats.total_iterations);
    });
}

/// Per-run set-up on the default (`Multidep`, 16 subdomains) path.
fn bench_setup(b: &mut Bench, airway: &AirwayMesh) {
    let mesh = &airway.mesh;
    let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
    let (weights, faces) = (mesh.cost_weights(), &airway.face_neighbors);
    // The graphs `decompose_subdomains` cuts on: the lane blocks' face
    // graph and the elements' (the row keeps its old name).
    b.bench("setup/element-graph", || {
        black_box(FaceGraphs::new(mesh.num_elements(), faces, &elems, &weights));
    });
    let graphs = FaceGraphs::new(mesh.num_elements(), faces, &elems, &weights);
    // The partition as `decompose_subdomains` runs it, and two of its
    // stages: the one seed walk on the blocks, and the fine level (the
    // block parts projected onto the elements and refined once).
    b.bench("setup/seed-search", || {
        black_box(graphs.blocks.pseudo_peripheral(0));
    });
    b.bench("setup/kway-16", || {
        black_box(graphs.partition(N_SUBDOMAINS));
    });
    let coarse = partition_kway(&graphs.blocks, N_SUBDOMAINS, 4);
    let fine = &graphs.elements;
    b.bench_batched(
        "setup/refine",
        || graphs.block.iter().map(|&b| coarse.parts[b as usize]).collect(),
        |projected| {
            black_box(kway::Grown::from_parts(fine, projected, N_SUBDOMAINS).refine(fine, 1));
        },
    );
    let sell = SellStructure::from_csr(&CsrMatrix::from_mesh(mesh, &mesh.node_to_elements()));
    b.bench_batched(
        "setup/plan-multidep",
        || elems.clone(),
        |elems| {
            black_box(AssemblyPlan::new(
                mesh,
                faces,
                elems,
                AssemblyStrategy::Multidep,
                N_SUBDOMAINS,
                &sell,
                ElementOrder::List,
            ));
        },
    );
    // The batch schedule with no partition in front: one set of every
    // element, its gather, `h` and scatter indices.
    b.bench_batched(
        "setup/plan-serial",
        || elems.clone(),
        |elems| {
            let (strategy, order) = (AssemblyStrategy::Serial, ElementOrder::KindGrouped);
            black_box(AssemblyPlan::new(mesh, faces, elems, strategy, 1, &sell, order));
        },
    );
    // A complete geometry: `Locator::new` and one containment test per
    // element, which builds every face-plane block. The injection gates
    // of `scripts/verify.sh` divide by this row; `setup/locator-lazy`,
    // `Locator::new` alone, is what a run pays before its first query.
    b.bench("setup/locator-build", || {
        let locator = Locator::new(mesh);
        black_box((0..mesh.num_elements()).filter(|&e| locator.contains(e, Vec3::ZERO, 0.0)).count());
    });
    b.bench("setup/locator-lazy", || {
        black_box(Locator::new(mesh).elem_size(0));
    });
    // One locator for every sample: the inlet's lazy candidate lists are
    // built in the first sample, not the median.
    let locator = Locator::new(mesh);
    let (center, dir, radius) = (airway.inlet_center, airway.inlet_direction, airway.inlet_radius);
    let inject = |locator: &Locator| {
        let mut set = ParticleSet::default();
        let injected =
            inject_at_inlet(&mut set, locator, center, dir, radius, 1.5, ParticleProps::default(), 10_000, 42);
        (set, injected)
    };
    b.bench("setup/inject-10k", || {
        black_box(inject(&locator));
    });
    // Every sample on a geometry no query has touched, as `particles_serial`
    // injects: it builds the lists its points land in. The geometry is
    // built, and the last one dropped, outside the timed region.
    let spent = std::cell::RefCell::new(None);
    let fresh = || {
        drop(spent.take());
        Locator::new(mesh)
    };
    b.bench_batched("setup/inject-10k-cold", fresh, |cold| {
        black_box(inject(&cold));
        spent.replace(Some(cold));
    });

    // One transport step of those particles through a field that varies
    // with position (so no two particles share a Reynolds number): the
    // scalar sweep (the oracle: what every step ran before) against the
    // lane-block sweep every run does. Same particles, same thread.
    let (set, _) = inject(&locator);
    let velocity = synthetic_velocity(mesh);
    let (air, gravity, dt) = (FluidProps::default(), Vec3::new(0.0, 0.0, -9.81), 1e-4);
    for (label, scalar) in [("particles/step-oracle", true), ("particles/step-lanes", false)] {
        let sweep = if scalar { cfpd_particles::oracle::step_particles } else { step_particles };
        b.bench_batched(label, || set.clone(), |mut set| {
            let stats = sweep(&mut set, &locator, &velocity, air.density, air.viscosity, gravity, dt);
            black_box((set, stats.moved));
        });
    }
}

/// The values-only solver a one-rank run of `config` allocates on its
/// `Prepared`.
fn instantiate<'p>(prepared: &'p Prepared, config: &SimulationConfig) -> FluidSolver<'p> {
    let airway = prepared.airway();
    FluidSolver::on(
        &airway.mesh,
        std::sync::Arc::clone(prepared.fluid_structure(0)),
        config.fluid,
        config.dt,
        airway.inlet_direction * config.inflow_speed,
        config.solver_tol,
        config.solver_max_iters,
        None,
    )
}

/// Set-up as a run pays it: all of it once per `PrepareKey`, then a
/// values-only solver per run — and what the daemon pays between two
/// segments of such a run.
fn bench_prepare_and_boundary(b: &mut Bench, spec: &AirwaySpec) {
    let config = SimulationConfig {
        airway: spec.clone(),
        layout: LayoutPlan::optimized(),
        ..Default::default()
    };
    let key = PrepareKey::of(&config, 1);
    b.bench("setup/prepare", || {
        black_box(prepare(&key).expect("valid spec").elements());
    });
    let prepared = prepare(&key).expect("valid spec");
    let airway = prepared.airway();
    let instantiate = || instantiate(&prepared, &config);
    b.bench("setup/instantiate", || {
        black_box(instantiate().velocity.len());
    });

    // The state a one-rank run of this mesh parks at a boundary (values
    // are synthetic: the codec's cost does not depend on them).
    let sgs_points = instantiate().sgs.values.len();
    let wave = |i: usize| (i as f64 * 0.37).sin();
    let cp = Checkpoint {
        next_step: 1,
        n_ranks: 1,
        seed: config.seed,
        config_digest: cfpd_core::config_digest(&config),
        ranks: vec![RankCheckpoint {
            rank: 0,
            velocity: synthetic_velocity(&airway.mesh),
            pressure: (0..prepared.nodes()).map(wave).collect(),
            sgs: (0..sgs_points).map(|i| Vec3::new(wave(i), -wave(i), 0.5)).collect(),
            particles: ParticleSet::default(),
        }],
    };
    let dir = std::env::temp_dir().join(format!("cfpd-hotpath-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (path, gate) = (dir.join("cell.snap"), PersistGate::unlimited());
    // The writer a worker calls at a boundary, on the buffer it keeps
    // across boundaries.
    let (acc, mut buf, mut pin) = (CellAcc::default(), Vec::new(), 0);
    b.bench("serve/boundary", || {
        let snap = SnapshotParts {
            job: 1,
            cell: 0,
            attempt: 0,
            next_step: cp.next_step,
            acc: &acc,
            events_text: "",
            checkpoint: CheckpointSection::Live(&cp),
        };
        let (digest, written) = snap.write(&path, &gate, &mut buf);
        assert!(written, "snapshot write failed");
        pin = digest;
    });
    // What a restarted daemon does with that file and the digest its WAL
    // pins: read, verify against the pin, decode both levels.
    b.bench("serve/restore", || {
        let text = std::fs::read_to_string(&path).expect("snapshot file");
        let snap = CellSnapshot::from_pinned_text(&text, pin).expect("pinned snapshot");
        black_box(Checkpoint::from_text(&snap.checkpoint_text).expect("checkpoint").next_step);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Solver1 as a step runs it, on one thread like the benchmark
/// workloads: the momentum system of the fifth step of a flow developing
/// from rest on the optimized layout (by then the three components need
/// different iteration counts), solved from that step's initial guess —
/// by three scalar solves on the CSR matrix (`solver1/scalar-x3`, the
/// oracle: what every step ran before, on the CSR view of the matrix)
/// and by the block solve on the SELL matrix the step assembled
/// (`solver1/block`). `spmm3/sell`
/// is one three-column sweep of that matrix, to be read against three
/// `spmv-sell/rcm-order` sweeps.
fn bench_solver1(b: &mut Bench, spec: &AirwaySpec) {
    let config = SimulationConfig {
        airway: spec.clone(),
        layout: LayoutPlan::optimized(),
        solver_tol: SOLVE_TOL,
        solver_max_iters: SOLVE_MAX_ITERS,
        ..Default::default()
    };
    let prepared = prepare(&PrepareKey::of(&config, 1)).expect("valid spec");
    let pool = ThreadPool::new(1);
    let mut fs = instantiate(&prepared, &config);
    for _ in 0..4 {
        fs.step(&pool);
    }
    let start = fs.velocity.clone();
    fs.step(&pool);
    let (sell, rhs) = fs.momentum_system();
    let (n, matrix) = (sell.n, &sell.to_csr());

    let x3: Vec<f64> = (0..3 * n).map(|k| (k as f64 * 0.37).sin()).collect();
    let sweep = sell.chunk_ranges(64);
    b.bench("spmm3/sell", || {
        let mut y = vec![0.0; 3 * n];
        spmm3_sweep(sell, &pool, &sweep, black_box(&x3), &mut y);
        black_box(y);
    });

    let mut scalar = [SolveStats { iterations: 0, residual: 0.0, converged: false }; 3];
    b.bench_batched(
        "solver1/scalar-x3",
        || [0, 1, 2].map(|c| start.iter().map(|v| [v.x, v.y, v.z][c]).collect::<Vec<f64>>()),
        |mut x| {
            for c in 0..3 {
                scalar[c] =
                    oracle::bicgstab(matrix, &rhs[c], &mut x[c], SOLVE_TOL, SOLVE_MAX_ITERS);
            }
            black_box(x);
        },
    );
    let diag = matrix.diagonal();
    let mut ws = Bicgstab3Workspace::new(n);
    let mut block = scalar;
    b.bench_batched(
        "solver1/block",
        || start.iter().flat_map(|v| [v.x, v.y, v.z]).collect::<Vec<f64>>(),
        |mut x| {
            block = bicgstab3(
                sell,
                &diag,
                [&rhs[0], &rhs[1], &rhs[2]],
                &mut x,
                SOLVE_TOL,
                SOLVE_MAX_ITERS,
                &pool,
                &mut ws,
            );
            black_box(x);
        },
    );
    assert!(scalar.iter().all(|s| s.converged), "solver1/scalar-x3: {scalar:?}");
    assert_eq!(block, scalar, "the block solve left its oracle");
}

fn median_ns(rows: &[(String, BenchStats)], name: &str) -> f64 {
    rows.iter()
        .find(|(n, _)| n == name)
        .map(|(_, s)| s.median * 1e9)
        .unwrap_or_else(|| panic!("bench row {name} missing"))
}

/// The per-phase default→opt mapping surfaced in the JSON and report.
const PHASES: [(&str, &str, &str); 5] = [
    ("spmv", "spmv/native-order", "spmv-sell/rcm-order"),
    ("jacobi", "jacobi/apply", "jacobi/apply"),
    ("axpy_dot", "axpy-dot/split", "axpy-dot/fused"),
    ("sgs", "sgs/default", "sgs/batched-lanes"),
    ("assembly", "assembly/default", "assembly/batched-lanes"),
];

struct EndToEnd {
    default_ns: f64,
    opt_ns: f64,
}

fn end_to_end(rows: &[(String, BenchStats)]) -> EndToEnd {
    EndToEnd {
        default_ns: median_ns(rows, "assembly/default")
            + median_ns(rows, "solve/poisson-deflated-native"),
        opt_ns: median_ns(rows, "assembly/batched-lanes")
            + median_ns(rows, "solve/poisson-deflated"),
    }
}

/// Bench-trajectory gate: against the committed `BENCH_hotpath.json`,
/// refuse a >10% end-to-end regression unless `CFPD_BLESS_BENCH=1`.
/// A committed file with the pre-phase schema (no `end_to_end` key)
/// allows the overwrite — that is the schema migration itself.
fn trajectory_gate(e2e: &EndToEnd) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_hotpath.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    let Ok(doc) = json::parse(&text) else {
        eprintln!("trajectory gate: committed BENCH_hotpath.json unparsable; allowing overwrite");
        return;
    };
    let Some(old) = doc.get("end_to_end") else {
        eprintln!("trajectory gate: committed schema predates phases; allowing overwrite");
        return;
    };
    let mut regressions = Vec::new();
    for (key, new_ns) in [("default_ns", e2e.default_ns), ("opt_ns", e2e.opt_ns)] {
        if let Some(old_ns) = old.get(key).and_then(|v| v.as_f64()) {
            if new_ns > old_ns * 1.10 {
                regressions.push(format!(
                    "{key}: {:.1} ms -> {:.1} ms (+{:.0}%)",
                    old_ns / 1e6,
                    new_ns / 1e6,
                    (new_ns / old_ns - 1.0) * 100.0
                ));
            }
        }
    }
    if regressions.is_empty() {
        return;
    }
    if std::env::var("CFPD_BLESS_BENCH").as_deref() == Ok("1") {
        eprintln!(
            "trajectory gate: CFPD_BLESS_BENCH=1, blessing regression: {}",
            regressions.join("; ")
        );
        return;
    }
    eprintln!(
        "trajectory gate: refusing to overwrite BENCH_hotpath.json with >10% end-to-end \
         regression ({}); rerun with CFPD_BLESS_BENCH=1 to bless",
        regressions.join("; ")
    );
    std::process::exit(1);
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    rows: &[(String, BenchStats)],
    e2e: &EndToEnd,
    iters: &SolveIters,
    elements: usize,
    nodes: usize,
    bw_before: usize,
    bw_after: usize,
    quick: bool,
) {
    let mut body = String::from("{\n");
    body.push_str(&format!("  \"bench\": \"hotpath\",\n  \"quick\": {quick},\n"));
    body.push_str(&format!("  \"elements\": {elements},\n  \"nodes\": {nodes},\n"));
    body.push_str(&format!(
        "  \"rcm\": {{ \"bandwidth_before\": {bw_before}, \"bandwidth_after\": {bw_after} }},\n"
    ));
    body.push_str("  \"phases\": {\n");
    for (i, (phase, d, o)) in PHASES.iter().enumerate() {
        let sep = if i + 1 == PHASES.len() { "" } else { "," };
        body.push_str(&format!(
            "    \"{phase}\": {{ \"default_ns\": {:.0}, \"opt_ns\": {:.0} }}{sep}\n",
            median_ns(rows, d),
            median_ns(rows, o)
        ));
    }
    body.push_str("  },\n");
    body.push_str(&format!(
        "  \"solve\": {{ \"tol\": {SOLVE_TOL:e}, \
         \"jacobi\": {{ \"iterations\": {}, \"ns\": {:.0} }}, \
         \"deflated\": {{ \"iterations\": {}, \"ns\": {:.0} }}, \
         \"deflated_native\": {{ \"iterations\": {}, \"ns\": {:.0} }} }},\n",
        iters.jacobi,
        median_ns(rows, "solve/poisson-jacobi"),
        iters.deflated,
        median_ns(rows, "solve/poisson-deflated"),
        iters.deflated_native,
        median_ns(rows, "solve/poisson-deflated-native"),
    ));
    body.push_str(&format!(
        "  \"end_to_end\": {{ \"default_ns\": {:.0}, \"opt_ns\": {:.0}, \"speedup\": {:.2} }},\n",
        e2e.default_ns,
        e2e.opt_ns,
        e2e.default_ns / e2e.opt_ns
    ));
    let flat: Vec<(String, [f64; 3], usize, usize)> = rows
        .iter()
        .map(|(n, s)| (n.clone(), [s.min, s.median, s.max].map(|t| t * 1e9), s.samples as usize, elements))
        .collect();
    body.push_str(&json_rows(&flat, 0));
    body.push_str("}\n");
    emit_json("BENCH_hotpath", quick, &body);
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let spec = if quick { AirwaySpec::small() } else { AirwaySpec::default() };
    let config = if quick {
        BenchConfig { warmup: 1, samples: 5 }
    } else {
        BenchConfig { warmup: 2, samples: 9 }
    };

    let airway = generate_airway(&spec).expect("airway mesh");
    let mesh = &airway.mesh;
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let pool = ThreadPool::new(workers);
    eprintln!(
        "hotpath bench: {} elements / {} nodes, {} worker(s), {} samples{}",
        mesh.num_elements(),
        mesh.num_nodes(),
        workers,
        config.samples,
        if quick { " (quick)" } else { "" }
    );

    // RCM bandwidth evidence + a renumbered copy of the mesh.
    let adj = mesh.node_adjacency();
    let perm = rcm_perm(&adj);
    let bw_before = csr_bandwidth(&adj);
    let bw_after = bandwidth_under_perm(&adj, &perm);
    let mut mesh_rcm = mesh.clone();
    mesh_rcm.renumber_nodes(&perm);

    let name = if quick { "BENCH_hotpath_quick" } else { "BENCH_hotpath" };
    let mut b = Bench::with_config(name, config);
    let faces = &airway.face_neighbors;
    bench_assembly(&mut b, mesh, faces, &pool);
    let native = pressure_system(mesh, faces, &pool);
    bench_spmv(&mut b, "native-order", &native.0);
    let rcm = pressure_system(&mesh_rcm, faces, &pool);
    bench_spmv(&mut b, "rcm-order", &rcm.0);
    let iters = bench_solve(&mut b, &native, &rcm, &pool);
    bench_phases(&mut b, mesh, faces, &native.0, &pool);
    bench_setup(&mut b, &airway);
    bench_prepare_and_boundary(&mut b, &spec);
    bench_solver1(&mut b, &spec);

    let e2e = end_to_end(b.rows());
    if !quick {
        trajectory_gate(&e2e);
    }

    let mut report = b.report();
    report.push_str(&format!(
        "\nRCM bandwidth on this mesh: {bw_before} -> {bw_after} ({}x reduction)\n",
        bw_before as f64 / bw_after.max(1) as f64
    ));
    report.push_str("\nper-phase breakdown (median, default -> opt):\n");
    for (phase, d, o) in PHASES {
        let dn = median_ns(b.rows(), d);
        let on = median_ns(b.rows(), o);
        report.push_str(&format!(
            "  {phase:<9} {:>12.1} us -> {:>12.1} us ({:.2}x)  [{d} -> {o}]\n",
            dn / 1e3,
            on / 1e3,
            dn / on.max(1.0)
        ));
    }
    report.push_str(&format!(
        "\npressure solve to {SOLVE_TOL:e} (rcm order): Jacobi CG {} iterations / {:.1} ms, \
         deflated CG {} iterations / {:.1} ms; native order: {} iterations / {:.1} ms\n",
        iters.jacobi,
        median_ns(b.rows(), "solve/poisson-jacobi") / 1e6,
        iters.deflated,
        median_ns(b.rows(), "solve/poisson-deflated") / 1e6,
        iters.deflated_native,
        median_ns(b.rows(), "solve/poisson-deflated-native") / 1e6,
    ));
    report.push_str(&format!(
        "\nend-to-end (assembly + pressure solve): {:.1} ms -> {:.1} ms ({:.2}x)\n",
        e2e.default_ns / 1e6,
        e2e.opt_ns / 1e6,
        e2e.default_ns / e2e.opt_ns
    ));
    emit(name, &report);
    write_json(
        b.rows(),
        &e2e,
        &iters,
        mesh.num_elements(),
        mesh.num_nodes(),
        bw_before,
        bw_after,
        quick,
    );
}

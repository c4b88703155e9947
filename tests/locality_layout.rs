//! Locality-layout acceptance tests: what the fast layout changes (RCM
//! node order, kind-batched SoA assembly) and what both layouts run
//! (the SELL-swept deflated pressure solve) must be provably profitable
//! and numerically pinned.
//!
//! * RCM: the permutation is a bijection, never increases CSR
//!   bandwidth on randomized airway/tube meshes, and measurably shrinks
//!   it on the canonical airway; `renumber_nodes` round-trips exactly.
//! * Batching: the monomorphized batch kernels produce **bit-identical**
//!   local element matrices for every `ElementKind`.
//! * Deflated CG: both layouts take the same Poisson iteration counts
//!   on the golden run, and at equal tolerance the pressure is at least
//!   as close to a tight reference as the Jacobi CG's.

use cfpd_core::{golden_config, run_simulation, BoundaryConditions, LayoutPlan, LogicalEvent};
use cfpd_mesh::{generate_airway, AirwaySpec, TubeParams, Vec3};
use cfpd_partition::{bandwidth_under_perm, csr_bandwidth, invert_perm, rcm_perm};
use cfpd_runtime::ThreadPool;
use cfpd_solver::{
    assemble_divergence, assemble_poisson, cg, kernels, oracle, AssemblyPlan, AssemblyStrategy,
    CsrMatrix, Deflation, ElementOrder, ElementScratch, FluidProps, RefElement, SellMatrix,
};
use cfpd_testkit::prop::{check, f64_range, map, usize_range, Gen, PropConfig};

/// Random (but valid) small airway specifications.
fn arb_spec() -> impl Gen<Value = AirwaySpec> {
    let raw = (
        usize_range(1, 3),       // generations 1..=2
        usize_range(6, 11),      // n_theta 6..=10
        usize_range(1, 3),       // n_bl_layers 1..=2
        usize_range(1, 3),       // n_core_rings 1..=2
        f64_range(0.6, 0.95),    // length ratio
        f64_range(20.0, 50.0),   // branch angle
    );
    map(raw, |(generations, n_theta, n_bl, n_core, lr, angle)| AirwaySpec {
        generations,
        tube: TubeParams {
            n_theta,
            n_bl_layers: n_bl,
            n_core_rings: n_core,
            ..TubeParams::default()
        },
        axial_segments_per_radius: 1.0,
        length_ratio: lr,
        branch_angle_deg: angle,
        ..AirwaySpec::default()
    })
}

/// RCM on random airway meshes: bijective, and the resulting bandwidth
/// never exceeds the generator's native ordering.
#[test]
fn rcm_is_bijective_and_never_widens_bandwidth() {
    check(
        "rcm_is_bijective_and_never_widens_bandwidth",
        PropConfig::cases(8),
        &arb_spec(),
        |spec| {
            let airway = generate_airway(spec).unwrap();
            let adj = airway.mesh.node_adjacency();
            let perm = rcm_perm(&adj);
            // Bijection: the inverse inverts.
            let inv = invert_perm(&perm);
            for (old, &new) in perm.iter().enumerate() {
                assert_eq!(inv[new as usize] as usize, old);
            }
            assert!(
                bandwidth_under_perm(&adj, &perm) <= csr_bandwidth(&adj),
                "RCM widened the bandwidth"
            );
        },
    );
}

/// Renumbering with a permutation and then its inverse restores every
/// coordinate and connectivity entry bit-for-bit, on random meshes.
#[test]
fn renumber_round_trips_on_random_meshes() {
    check(
        "renumber_round_trips_on_random_meshes",
        PropConfig::cases(6),
        &arb_spec(),
        |spec| {
            let reference = generate_airway(spec).unwrap().mesh;
            let mut mesh = generate_airway(spec).unwrap().mesh;
            let perm = rcm_perm(&mesh.node_adjacency());
            mesh.renumber_nodes(&perm);
            mesh.renumber_nodes(&invert_perm(&perm));
            assert_eq!(mesh.conn, reference.conn);
            for (a, b) in mesh.coords.iter().zip(&reference.coords) {
                assert_eq!(a.x.to_bits(), b.x.to_bits());
                assert_eq!(a.y.to_bits(), b.y.to_bits());
                assert_eq!(a.z.to_bits(), b.z.to_bits());
            }
        },
    );
}

/// On the canonical airway the generator's extrusion ordering is far
/// from optimal: RCM must deliver a real reduction, not a tie.
#[test]
fn rcm_shrinks_airway_bandwidth() {
    let airway = generate_airway(&AirwaySpec::small()).unwrap();
    let adj = airway.mesh.node_adjacency();
    let before = csr_bandwidth(&adj);
    let after = bandwidth_under_perm(&adj, &rcm_perm(&adj));
    assert!(
        after < before / 2,
        "RCM bandwidth {after} not < half of native {before}"
    );
}

/// The monomorphized batch kernels are bit-identical to the dynamic
/// kernels for every element of every kind (same loads, same FP
/// sequence — the foundation of the batching bit-identity policy).
#[test]
fn batch_kernels_bit_identical_per_element() {
    let mesh = generate_airway(&AirwaySpec::small()).unwrap().mesh;
    let refs = RefElement::all();
    let props = FluidProps::default();
    let dt = 1e-4;
    let gravity = Vec3::new(0.0, 0.0, -9.81);
    let velocity: Vec<Vec3> =
        mesh.coords.iter().map(|p| Vec3::new(p.z, -p.x, p.y * 0.5)).collect();

    let mut kinds_seen = std::collections::BTreeSet::new();
    let mut dyn_scratch = ElementScratch::default();
    let mut batch_scratch = ElementScratch::default();
    for e in 0..mesh.num_elements() {
        let kind = mesh.kinds[e];
        kinds_seen.insert(format!("{kind:?}"));
        let (_, nn) = dyn_scratch.load(&mesh, &velocity, e);
        let h = mesh.volume(e).abs().cbrt();
        let dm = oracle::momentum_kernel(&refs, &dyn_scratch, kind, nn, props, dt, h, gravity)
            .unwrap();
        let dp = oracle::poisson_kernel(&refs, &dyn_scratch, kind, nn).unwrap();

        let nodes = mesh.elem_nodes(e);
        batch_scratch.load_gather(&mesh.coords, &velocity, nodes);
        let re = &refs[RefElement::index_of(kind)];
        let (bm, bp) = match nn {
            4 => (
                kernels::momentum_kernel_n::<4>(re, &batch_scratch, props, dt, h, gravity),
                kernels::poisson_kernel_n::<4>(re, &batch_scratch),
            ),
            5 => (
                kernels::momentum_kernel_n::<5>(re, &batch_scratch, props, dt, h, gravity),
                kernels::poisson_kernel_n::<5>(re, &batch_scratch),
            ),
            _ => (
                kernels::momentum_kernel_n::<6>(re, &batch_scratch, props, dt, h, gravity),
                kernels::poisson_kernel_n::<6>(re, &batch_scratch),
            ),
        };
        let (bm, bp) = (bm.unwrap(), bp.unwrap());
        for i in 0..nn {
            for j in 0..nn {
                assert_eq!(
                    dm.a[i][j].to_bits(),
                    bm.a[i][j].to_bits(),
                    "elem {e} ({kind:?}) momentum a[{i}][{j}]"
                );
                assert_eq!(
                    dp.l[i][j].to_bits(),
                    bp.l[i][j].to_bits(),
                    "elem {e} ({kind:?}) poisson l[{i}][{j}]"
                );
            }
            for c in 0..3 {
                assert_eq!(
                    dm.b[i][c].to_bits(),
                    bm.b[i][c].to_bits(),
                    "elem {e} ({kind:?}) momentum b[{i}][{c}]"
                );
            }
        }
    }
    assert_eq!(kinds_seen.len(), 3, "hybrid mesh must exercise all kinds: {kinds_seen:?}");
}

/// Poisson iteration counts of the golden run, per step (every rank
/// solves the same replicated system, so rank 0 speaks for all).
fn golden_poisson_iterations(layout: LayoutPlan) -> Vec<usize> {
    let mut config = golden_config();
    config.layout = layout;
    run_simulation(&config, 2, 1, false)
        .logical
        .iter()
        .filter_map(|e| match e {
            LogicalEvent::Solve { rank: 0, system: 3, iterations, converged, .. } => {
                assert!(converged);
                Some(*iterations)
            }
            _ => None,
        })
        .collect()
}

/// The coarse space is a function of the mesh topology, not of the node
/// numbering, so the reference and the optimized (RCM-renumbered)
/// layout take the same number of Poisson iterations in every step of
/// the golden run — and deflation keeps that number small.
#[test]
fn both_layouts_take_equal_poisson_iterations_on_the_golden_run() {
    let reference = golden_poisson_iterations(LayoutPlan::disabled());
    let optimized = golden_poisson_iterations(LayoutPlan::optimized());
    assert_eq!(reference.len(), golden_config().steps);
    assert_eq!(reference, optimized);
    assert!(reference.iter().all(|&it| it <= 40), "deflation lost: {reference:?}");
}

/// At the tolerance the runs use, the deflated solve leaves the
/// pressure at least as close to a tight reference as the Jacobi CG
/// does: its error has no low-frequency part left to hide behind a
/// small residual.
#[test]
fn deflated_pressure_is_no_further_from_a_tight_reference_than_jacobi_cg() {
    let mesh = generate_airway(&AirwaySpec::small()).unwrap().mesh;
    let n2e = mesh.node_to_elements();
    let mut sell = SellMatrix::from_csr(&CsrMatrix::from_mesh(&mesh, &n2e));
    let n = mesh.num_nodes();
    let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
    let (strategy, order) = (AssemblyStrategy::Serial, ElementOrder::List);
    let faces = mesh.face_neighbors();
    let plan = AssemblyPlan::new(&mesh, &faces, elems, strategy, 1, sell.structure(), order);
    let refs = RefElement::all();
    let pool = ThreadPool::new(2);
    let velocity: Vec<Vec3> =
        mesh.coords.iter().map(|p| Vec3::new(p.y, -p.z, 0.4 - p.x)).collect();
    let mut rhs = vec![0.0; n];
    assemble_poisson(&pool, &refs, &mesh, &plan, &mut sell);
    assemble_divergence(&pool, &refs, &mesh, &plan, &velocity, FluidProps::default(), 1e-4, &mut rhs);
    let bc = BoundaryConditions::from_mesh(&mesh);
    for &v in &bc.outlet_nodes {
        sell.set_dirichlet_row(v as usize);
        rhs[v as usize] = 0.0;
    }
    // The oracle CG reads the CSR view of the matrix the solve sweeps.
    let matrix = sell.to_csr();

    let mut exact = vec![0.0; n];
    assert!(cg(&matrix, &rhs, &mut exact, 1e-13, 20_000).converged);
    let mut jacobi = vec![0.0; n];
    let s_jacobi = cg(&matrix, &rhs, &mut jacobi, 1e-6, 20_000);
    let mut deflated = vec![0.0; n];
    let mut deflation = Deflation::new(&matrix, &bc.inlet_nodes, &bc.outlet_nodes);
    deflation.refresh(&sell);
    let s_deflated = deflation.solve(&sell, &rhs, &mut deflated, 1e-6, 20_000, &pool);
    assert!(s_jacobi.converged && s_deflated.converged);
    assert!(s_deflated.iterations < s_jacobi.iterations);
    let error = |x: &[f64]| {
        let diff: f64 = x.iter().zip(&exact).map(|(a, b)| (a - b) * (a - b)).sum();
        diff.sqrt() / exact.iter().map(|v| v * v).sum::<f64>().sqrt()
    };
    assert!(
        error(&deflated) <= error(&jacobi),
        "deflated error {:e} > Jacobi error {:e}",
        error(&deflated),
        error(&jacobi)
    );
}

/// Renumbering the mesh with RCM leaves element volumes bit-identical
/// (pure relabeling) while shrinking the bandwidth of the rebuilt CSR
/// pattern — the property the simulation-level hook relies on.
#[test]
fn renumbered_mesh_preserves_geometry_and_shrinks_pattern() {
    let reference = generate_airway(&AirwaySpec::small()).unwrap().mesh;
    let mut mesh = generate_airway(&AirwaySpec::small()).unwrap().mesh;
    let adj = mesh.node_adjacency();
    let before = csr_bandwidth(&adj);
    mesh.renumber_nodes(&rcm_perm(&adj));
    for e in 0..mesh.num_elements() {
        assert_eq!(
            mesh.volume(e).to_bits(),
            reference.volume(e).to_bits(),
            "volume of element {e} changed under renumbering"
        );
    }
    let after = csr_bandwidth(&mesh.node_adjacency());
    assert!(after < before, "bandwidth {after} !< {before}");
}

//! Property-based cross-crate tests: on randomized airway meshes, the
//! three assembly strategies must produce the same matrix as the serial
//! reference (the order-fixed ones the very bits of their own
//! one-worker run), colorings must be valid, and subdomain
//! decompositions must partition the element set with correct adjacency. Runs on the
//! in-repo `cfpd-testkit` property runner (no external dependencies).

use cfpd_mesh::{generate_airway, AirwaySpec, TubeParams, Vec3};
use cfpd_partition::{decompose_subdomains, greedy_coloring, local_element_graph, Graph};
use cfpd_runtime::ThreadPool;
use cfpd_solver::{
    assemble_momentum, oracle, AssemblyPlan, AssemblyStrategy, CsrMatrix, ElementOrder, FluidProps,
    RefElement, SellMatrix, SellStructure,
};
use cfpd_testkit::prop::{check, f64_range, map, usize_range, Gen, PropConfig};
use std::sync::Arc;

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

/// Momentum matrix (in CSR entry order) and right-hand sides of one plan
/// on `pool`, in `order` — or, with none, through the element-at-a-time
/// oracle loops, which add into CSR.
#[allow(clippy::too_many_arguments)]
fn assemble(
    pool: &ThreadPool,
    mesh: &cfpd_mesh::Mesh,
    (template, sell): (&CsrMatrix, &Arc<SellStructure>),
    velocity: &[Vec3],
    strategy: AssemblyStrategy,
    n_sub: usize,
    order: Option<ElementOrder>,
) -> (Vec<f64>, Vec<Vec<f64>>) {
    let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
    let cut = order.unwrap_or(ElementOrder::List);
    let plan = AssemblyPlan::new(mesh, elems, strategy, n_sub, sell, cut);
    let mut rhs = vec![vec![0.0; mesh.num_nodes()]; 3];
    let (refs, props, dt, gravity) =
        (RefElement::all(), FluidProps::default(), 1e-4, Vec3::new(0.0, 0.0, -9.81));
    let values = if order.is_some() {
        let mut a = SellMatrix::zeros(Arc::clone(sell));
        assemble_momentum(
            pool, &refs, mesh, &plan, velocity, props, dt, gravity, &mut a, &mut rhs,
        );
        a.csr_values().collect()
    } else {
        let mut a = template.clone();
        oracle::assemble_momentum(
            pool, &refs, mesh, &plan, velocity, props, dt, gravity, &mut a, &mut rhs,
        );
        a.values
    };
    (values, rhs)
}

fn assert_close(what: &str, got: &[f64], want: &[f64]) {
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        let scale = x.abs().max(y.abs()).max(1.0);
        assert!((x - y).abs() <= 1e-9 * scale, "{what} entry {i}: {x} vs {y}");
    }
}

/// All four strategies on one random mesh, batches cut in `order`,
/// against the serial element-at-a-time oracle.
fn check_strategies(spec: &AirwaySpec, n_sub: usize, order: ElementOrder) {
    let airway = generate_airway(spec).unwrap();
    let mesh = &airway.mesh;
    let template = CsrMatrix::from_mesh(mesh, &mesh.node_to_elements());
    let sell = Arc::new(SellStructure::from_csr(&template));
    let (four, one) = (ThreadPool::new(4), ThreadPool::new(1));
    let velocity: Vec<Vec3> =
        mesh.coords.iter().map(|p| Vec3::new(p.z, -p.x, p.y * 0.5)).collect();
    let run = |pool: &ThreadPool, strategy, order| {
        assemble(pool, mesh, (&template, &sell), &velocity, strategy, n_sub, order)
    };

    let (vals_ref, rhs_ref) = run(&four, AssemblyStrategy::Serial, None);
    for strategy in AssemblyStrategy::ALL {
        let (vals, rhs) = run(&four, strategy, Some(order));
        if strategy != AssemblyStrategy::Atomics {
            let alone = run(&one, strategy, Some(order));
            assert!(
                vals == alone.0 && rhs == alone.1,
                "{strategy:?}: four workers moved bits of one"
            );
        }
        assert_close(&format!("{strategy:?}"), &vals, &vals_ref);
        for c in 0..3 {
            assert_close(&format!("{strategy:?} rhs[{c}]"), &rhs[c], &rhs_ref[c]);
        }
    }
}

/// The headline invariant of §3.1: parallelization must not change the
/// assembled system. For the order-fixed strategies (`Serial`,
/// `Coloring`, `Multidep`) that is literal — four workers assemble the
/// bits one worker does. Across strategies, and for `Atomics` (the
/// non-deterministic baseline of the paper's Fig. 4/6), sums are
/// regrouped: `1e-9 × scale`.
#[test]
fn strategies_assemble_identical_matrices() {
    let gen = (arb_spec(), usize_range(4, 32));
    check(
        "strategies_assemble_identical_matrices",
        PropConfig::cases(8),
        &gen,
        |(spec, n_sub)| check_strategies(spec, *n_sub, ElementOrder::List),
    );
}

/// The kind-grouped order (the fast layout's) under all four strategies
/// on random meshes: grouping regroups the element summation order (by
/// kind, per unit), so against the serial list-order oracle it agrees up
/// to FP reassociation — and against its own one-worker run bit for bit,
/// like the list-order sweeps.
#[test]
fn batched_assembly_matches_reference_under_all_strategies() {
    let gen = (arb_spec(), usize_range(4, 32));
    check(
        "batched_assembly_matches_reference_under_all_strategies",
        PropConfig::cases(6),
        &gen,
        |(spec, n_sub)| check_strategies(spec, *n_sub, ElementOrder::KindGrouped),
    );
}

/// Colorings over random meshes are proper colorings.
#[test]
fn coloring_always_valid() {
    check("coloring_always_valid", PropConfig::cases(8), &arb_spec(), |spec| {
        let airway = generate_airway(spec).unwrap();
        let n2e = airway.mesh.node_to_elements();
        let adj = airway.mesh.element_adjacency(&n2e);
        let g = Graph::from_csr_unit(&adj);
        let coloring = greedy_coloring(&g);
        let colors = &coloring.colors;
        assert!((0..g.num_vertices()).all(|v| g.neighbors(v).iter().all(|&w| colors[w as usize] != colors[v])));
        // Bounded by max degree + 1.
        let max_deg = (0..g.num_vertices()).map(|v| g.degree(v)).max().unwrap_or(0);
        assert!(coloring.num_colors <= max_deg + 1);
    });
}

/// Subdomain decompositions partition the elements, and their
/// adjacency is exactly node-sharing.
#[test]
fn subdomains_partition_and_adjacency_correct() {
    let gen = (arb_spec(), usize_range(2, 16));
    check(
        "subdomains_partition_and_adjacency_correct",
        PropConfig::cases(8),
        &gen,
        |(spec, n_sub)| {
            let airway = generate_airway(spec).unwrap();
            let mesh = &airway.mesh;
            let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
            let weights = mesh.cost_weights();
            let d = decompose_subdomains(mesh, &elems, &weights, *n_sub);
            // Partition property.
            let mut seen = vec![false; elems.len()];
            for m in &d.members {
                for &e in m {
                    assert!(!seen[e as usize], "element {e} in two subdomains");
                    seen[e as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
            // Adjacency symmetric & irreflexive.
            for (s, neigh) in d.adjacency.iter().enumerate() {
                for &t in neigh {
                    assert!(t as usize != s);
                    assert!(d.adjacency[t as usize].contains(&(s as u32)));
                }
            }
        },
    );
}

/// The local element graph is symmetric and self-loop free.
#[test]
fn local_element_graph_is_symmetric() {
    check("local_element_graph_is_symmetric", PropConfig::cases(8), &arb_spec(), |spec| {
        let airway = generate_airway(spec).unwrap();
        let mesh = &airway.mesh;
        let elems: Vec<u32> = (0..(mesh.num_elements() / 2).max(1) as u32).collect();
        let weights = vec![1.0; elems.len()];
        let g = local_element_graph(mesh, &elems, &weights);
        for v in 0..g.num_vertices() {
            for &w in g.neighbors(v) {
                assert!(w as usize != v, "self loop at {v}");
                assert!(
                    g.neighbors(w as usize).contains(&(v as u32)),
                    "asymmetric edge {v}->{w}"
                );
            }
        }
    });
}

//! The projection's finite-element operators against identities they
//! satisfy exactly, so that only rounding is left (`cargo test -p
//! cfpd-solver --test fe_oracles -- --nocapture` prints the measured
//! maxima).
//!
//! * Patch test of the pressure operator K_ij = ∫ ∇N_i · ∇N_j: for a
//!   linear field p, (K p)_i = ∫ ∇N_i · ∇p = ∇p · ∮ N_i n, which is zero
//!   on every row whose node lies on no boundary face.
//! * Weak divergence of a constant field, b_i = (ρ/dt) ∫ ∇N_i · u: zero
//!   on every such interior row for the same reason, and Σ_i b_i = 0 on
//!   every mesh because the shape functions sum to one.
//!
//! Both are assembled by the production sweeps (`assemble_poisson`,
//! `assemble_divergence`) on a serial plan in list order, on the
//! straight tube, `AirwaySpec::small()` and the 1-generation tree.

use cfpd_mesh::{generate_airway, AirwaySpec, Mesh, Vec3};
use cfpd_runtime::ThreadPool;
use cfpd_solver::{
    assemble_divergence, assemble_poisson, AssemblyPlan, AssemblyStrategy, CsrMatrix, ElementOrder,
    FluidProps, RefElement, SellMatrix, SellStructure,
};
use std::sync::Arc;

/// The meshes every identity is checked on, by name.
fn meshes() -> Vec<(&'static str, AirwaySpec)> {
    vec![
        ("straight tube", AirwaySpec { generations: 0, taper: 1.0, ..AirwaySpec::small() }),
        ("small tree", AirwaySpec::small()),
        ("1-generation tree", AirwaySpec { generations: 1, ..AirwaySpec::small() }),
    ]
}

/// `mesh`'s nodes that lie on a boundary face (inlet, outlet or wall).
fn boundary_nodes(mesh: &Mesh) -> Vec<bool> {
    let mut on = vec![false; mesh.num_nodes()];
    for &(e, f, _) in &mesh.boundary {
        let nodes = mesh.elem_nodes(e as usize);
        for &l in mesh.kinds[e as usize].faces()[f as usize] {
            on[nodes[l] as usize] = true;
        }
    }
    on
}

/// A serial plan over every element of `mesh`, summed in list order,
/// and an empty matrix on its pattern.
fn serial_plan(mesh: &Mesh) -> (AssemblyPlan, SellMatrix) {
    let pattern = CsrMatrix::from_mesh(mesh, &mesh.node_to_listed(0..mesh.num_elements() as u32));
    let sell = Arc::new(SellStructure::from_csr(&pattern));
    let elems = (0..mesh.num_elements() as u32).collect();
    let faces = mesh.face_neighbors();
    let plan = AssemblyPlan::new(
        mesh,
        &faces,
        elems,
        AssemblyStrategy::Serial,
        1,
        &sell,
        ElementOrder::List,
    );
    (plan, SellMatrix::zeros(sell))
}

/// The largest of `rows` over the interior rows, and how many there are.
fn interior_max(rows: impl Iterator<Item = f64>, boundary: &[bool]) -> (f64, usize) {
    rows.zip(boundary).filter(|(_, &b)| !b).fold((0.0, 0), |(m, n), (r, _)| (m.max(r), n + 1))
}

/// K applied to a linear field vanishes on every interior row: the
/// largest |(K p)_i| / (K_ii R), with |∇p| = 1 and R the trachea radius,
/// stays within 1024 roundings (measured: at most 65, 1.45e-14).
#[test]
fn the_pressure_operator_annihilates_linear_fields_on_interior_rows() {
    const BOUND: f64 = 1024.0 * f64::EPSILON;
    let pool = ThreadPool::new(1);
    let refs = RefElement::all();
    for (name, spec) in meshes() {
        let airway = generate_airway(&spec).unwrap();
        let mesh = &airway.mesh;
        let radius = spec.trachea_radius;
        let (plan, mut k) = serial_plan(mesh);
        assemble_poisson(&pool, &refs, mesh, &plan, &mut k);
        let diag = k.to_csr().diagonal();
        let boundary = boundary_nodes(mesh);
        let mut worst: f64 = 0.0;
        for grad in [
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 0.6, 0.8),
            airway.inlet_direction.normalized(),
        ] {
            // Centred on the inlet, so p is of the order of the mesh's extent.
            let p: Vec<f64> =
                mesh.coords.iter().map(|&x| grad.dot(x - airway.inlet_center)).collect();
            let mut kp = vec![0.0; p.len()];
            k.spmv(&p, &mut kp);
            let rows = kp.iter().zip(&diag).map(|(r, d)| r.abs() / (d * radius));
            let (max, interior) = interior_max(rows, &boundary);
            assert!(interior > 0, "{name}: no interior node");
            worst = worst.max(max);
        }
        println!(
            "{name}: {} elements, max |K p|_i / (K_ii R) on interior rows = {worst:.2e} ({:.0} roundings)",
            mesh.num_elements(),
            worst / f64::EPSILON
        );
        assert!(worst <= BOUND, "{name}: K p = {worst:e} of K_ii R on an interior row");
    }
}

/// The weak divergence of a constant unit field vanishes on every
/// interior row (largest |b_i| / (ρ R²) at dt = 1: within 256 roundings,
/// measured at most 7) and its rows sum to zero (|Σ_i b_i| / (ρ R²):
/// within 1024 roundings, measured at most 43).
#[test]
fn the_weak_divergence_of_a_constant_field_vanishes_on_interior_rows_and_in_sum() {
    const ROW_BOUND: f64 = 256.0 * f64::EPSILON;
    const SUM_BOUND: f64 = 1024.0 * f64::EPSILON;
    let pool = ThreadPool::new(1);
    let refs = RefElement::all();
    let props = FluidProps::default();
    for (name, spec) in meshes() {
        let airway = generate_airway(&spec).unwrap();
        let mesh = &airway.mesh;
        let scale = props.density * spec.trachea_radius * spec.trachea_radius;
        let (plan, _) = serial_plan(mesh);
        let boundary = boundary_nodes(mesh);
        let (mut worst_row, mut worst_sum): (f64, f64) = (0.0, 0.0);
        for u in [
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 0.6, 0.8),
            airway.inlet_direction.normalized(),
        ] {
            let velocity = vec![u; mesh.num_nodes()];
            let mut b = vec![0.0; mesh.num_nodes()];
            assemble_divergence(&pool, &refs, mesh, &plan, &velocity, props, 1.0, &mut b);
            let (max, _) = interior_max(b.iter().map(|r| r.abs() / scale), &boundary);
            worst_row = worst_row.max(max);
            worst_sum = worst_sum.max((b.iter().sum::<f64>() / scale).abs());
        }
        println!(
            "{name}: max |b_i| / (ρ R²) on interior rows = {worst_row:.2e} ({:.0} roundings), \
             |Σ b_i| / (ρ R²) = {worst_sum:.2e} ({:.0} roundings)",
            worst_row / f64::EPSILON,
            worst_sum / f64::EPSILON
        );
        assert!(worst_row <= ROW_BOUND, "{name}: b_i = {worst_row:e} ρR² on an interior row");
        assert!(worst_sum <= SUM_BOUND, "{name}: Σ b_i = {worst_sum:e} ρR²");
    }
}

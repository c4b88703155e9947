//! Potential-flow field through the airway tree: the inviscid
//! core-flow approximation classically used for fast aerosol-deposition
//! estimates. Solves `∇²φ = 0` with φ fixed at inlet and outlets
//! (natural zero-flux walls), then projects `u = −∇φ` to the nodes and
//! scales to the requested inlet speed.
//!
//! Compared to the time-stepped Navier-Stokes field of
//! [`crate::fluid::FluidSolver`], this field is weakly divergence-free
//! and exactly non-penetrating at walls — the properties that matter
//! for Lagrangian transport — at the cost of ignoring viscosity
//! (no boundary layers, no recirculation). The deposition example uses
//! it for exactly that reason (DESIGN.md §7).

use cfpd_mesh::{AirwayMesh, Vec3};
use cfpd_runtime::ThreadPool;
use cfpd_solver::{
    cg, AssemblyPlan, AssemblyStrategy, CsrMatrix, ElementOrder, RefElement, SellMatrix,
};

/// Solve the potential flow and return the nodal velocity field with
/// mean inlet speed `inlet_speed` [m/s] (flow directed from inlet to
/// outlets).
pub fn potential_flow(airway: &AirwayMesh, inlet_speed: f64) -> Vec<Vec3> {
    let mesh = &airway.mesh;
    let n = mesh.num_nodes();
    let n2e = mesh.node_to_elements();
    let mut lap = SellMatrix::from_csr(&CsrMatrix::from_mesh(mesh, &n2e));
    let mut rhs = vec![vec![0.0; n]];
    let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
    let (strategy, order) = (AssemblyStrategy::Serial, ElementOrder::List);
    let plan = AssemblyPlan::new(mesh, elems, strategy, 1, lap.structure(), order);
    let pool = ThreadPool::new(1);
    let refs = RefElement::all();
    let zero_vel = vec![Vec3::ZERO; n];
    cfpd_solver::assemble_poisson(&pool, &refs, mesh, &plan, &mut lap);
    // Dirichlet: φ = 1 at the inlet, φ = 0 at outlets; walls natural.
    let bc = crate::fluid::BoundaryConditions::from_mesh(mesh);
    for &v in &bc.inlet_nodes {
        lap.set_dirichlet_row(v as usize);
        rhs[0][v as usize] = 1.0;
    }
    for &v in &bc.outlet_nodes {
        lap.set_dirichlet_row(v as usize);
        rhs[0][v as usize] = 0.0;
    }
    let mut phi = vec![0.0; n];
    let stats = cg(&lap.to_csr(), &rhs[0], &mut phi, 1e-10, 10 * n);
    assert!(stats.converged, "potential solve failed: {stats:?}");

    // Nodal velocity u = −∇φ via lumped L2 projection.
    let mut grad = vec![Vec3::ZERO; n];
    let mut lumped = vec![0.0f64; n];
    let mut scratch = cfpd_solver::ElementScratch::default();
    for e in 0..mesh.num_elements() {
        let (kind, nn) = scratch.load(mesh, &zero_vel, e);
        let re = &refs[RefElement::index_of(kind)];
        let nodes = mesh.elem_nodes(e);
        for qp in &re.qps {
            if let Some(m) = cfpd_solver::map_qp(qp, &scratch.coords, nn) {
                let mut gp = Vec3::ZERO;
                for k in 0..nn {
                    gp += Vec3::new(m.grad[k][0], m.grad[k][1], m.grad[k][2])
                        * phi[nodes[k] as usize];
                }
                for k in 0..nn {
                    grad[nodes[k] as usize] += gp * (m.n[k] * m.dvol);
                    lumped[nodes[k] as usize] += m.n[k] * m.dvol;
                }
            }
        }
    }
    let mut u: Vec<Vec3> = grad
        .iter()
        .zip(&lumped)
        .map(|(g, &ml)| if ml > 0.0 { -*g / ml } else { Vec3::ZERO })
        .collect();

    // Scale so the mean inlet-node speed equals `inlet_speed`.
    let mean_inlet: f64 = bc
        .inlet_nodes
        .iter()
        .map(|&v| u[v as usize].norm())
        .sum::<f64>()
        / bc.inlet_nodes.len().max(1) as f64;
    if mean_inlet > 1e-30 {
        let s = inlet_speed / mean_inlet;
        for v in &mut u {
            *v = *v * s;
        }
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_mesh::{generate_airway, AirwaySpec};

    #[test]
    fn potential_flow_fills_the_whole_tree() {
        let airway = generate_airway(&AirwaySpec::small()).unwrap();
        let u = potential_flow(&airway, 2.0);
        let bc = crate::fluid::BoundaryConditions::from_mesh(&airway.mesh);
        // Inlet speed scaled as requested.
        let mean_inlet: f64 = bc.inlet_nodes.iter().map(|&v| u[v as usize].norm()).sum::<f64>()
            / bc.inlet_nodes.len() as f64;
        assert!((mean_inlet - 2.0).abs() < 1e-9);
        // Outlets carry comparable flux (inviscid tree: outlet speeds are
        // the same order as the inlet, not 10x smaller).
        let mean_outlet: f64 = bc.outlet_nodes.iter().map(|&v| u[v as usize].norm()).sum::<f64>()
            / bc.outlet_nodes.len() as f64;
        assert!(
            mean_outlet > 0.3 * mean_inlet,
            "outlet speed {mean_outlet} vs inlet {mean_inlet}"
        );
        // Flow points inward at the inlet (same direction as inhalation).
        let dir = airway.inlet_direction;
        let aligned = bc
            .inlet_nodes
            .iter()
            .filter(|&&v| u[v as usize].dot(dir) > 0.0)
            .count();
        assert!(aligned * 10 > bc.inlet_nodes.len() * 9, "inlet flow misdirected");
    }

    #[test]
    fn interior_speed_is_order_of_inlet_speed() {
        let airway = generate_airway(&AirwaySpec::small()).unwrap();
        let u = potential_flow(&airway, 1.0);
        let mean: f64 = u.iter().map(|v| v.norm()).sum::<f64>() / u.len() as f64;
        assert!(
            mean > 0.2,
            "bulk flow should be O(inlet speed), got mean {mean}"
        );
    }
}

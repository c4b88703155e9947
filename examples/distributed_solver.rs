//! Distributed-memory pressure solve with true halo exchanges — the
//! production MPI pattern (node ownership, assembly exchange, ghost
//! updates per CG iteration) running on the virtual cluster, validated
//! live against the serial solution.
//!
//! ```sh
//! cargo run --release --example distributed_solver
//! ```

use cfpd_core::assemble_and_solve_poisson;
use cfpd_mesh::{generate_airway, AirwaySpec, BoundaryKind, Vec3};
use cfpd_partition::{partition_kway, Graph};
use cfpd_simmpi::Universe;
use std::sync::Arc;

fn main() {
    let airway = Arc::new(generate_airway(&AirwaySpec::small()).expect("valid spec"));
    let mesh = &airway.mesh;
    println!(
        "mesh: {} elements, {} nodes; solving the pressure-Poisson system",
        mesh.num_elements(),
        mesh.num_nodes()
    );

    // Element partition (the MPI domain decomposition).
    let n2e = mesh.node_to_elements();
    let adj = mesh.element_adjacency(&n2e);
    let g = Graph::from_csr_unit(&adj);
    let ranks = 4;
    let owner = Arc::new(partition_kway(&g, ranks, 3).parts);

    // Synthetic velocity field driving the divergence RHS.
    let velocity: Arc<Vec<Vec3>> = Arc::new(
        mesh.coords.iter().map(|p| Vec3::new(p.z * 3.0, -p.x, p.y)).collect(),
    );
    // Dirichlet p = 0 at outlets.
    let outlet: Arc<Vec<u32>> = Arc::new({
        let mut s = std::collections::BTreeSet::new();
        for &(e, f, kind) in &mesh.boundary {
            if kind == BoundaryKind::Outlet {
                let nodes = mesh.elem_nodes(e as usize);
                for &li in mesh.kinds[e as usize].faces()[f as usize] {
                    s.insert(nodes[li]);
                }
            }
        }
        s.into_iter().collect()
    });

    // Serial reference.
    let x_serial = {
        let mut a = cfpd_solver::CsrMatrix::from_mesh(mesh, &n2e);
        let mut rhs = vec![0.0; mesh.num_nodes()];
        let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
        let plan = cfpd_solver::AssemblyPlan::new(
            mesh,
            elems,
            cfpd_solver::AssemblyStrategy::Serial,
            1,
        );
        let pool = cfpd_runtime::ThreadPool::new(1);
        let refs = cfpd_solver::RefElement::all();
        cfpd_solver::assemble_poisson(&pool, &refs, mesh, &plan, &mut a);
        cfpd_solver::assemble_divergence(
            &pool,
            &refs,
            mesh,
            &plan,
            &velocity,
            cfpd_solver::FluidProps::default(),
            1e-3,
            &mut rhs,
        );
        for &v in outlet.iter() {
            a.set_dirichlet_row(v as usize);
            rhs[v as usize] = 0.0;
        }
        let mut x = vec![0.0; mesh.num_nodes()];
        let s = cfpd_solver::cg(&a, &rhs, &mut x, 1e-10, 5000);
        println!("serial CG: {} iterations, residual {:.2e}", s.iterations, s.residual);
        x
    };

    // Distributed solve on 4 virtual ranks.
    let am = Arc::clone(&airway);
    let ow = Arc::clone(&owner);
    let vel = Arc::clone(&velocity);
    let out = Arc::clone(&outlet);
    let results = Universe::run(ranks, move |comm| {
        let (owned, values, stats) = assemble_and_solve_poisson(
            &am.mesh,
            &ow,
            &comm,
            &vel,
            cfpd_solver::FluidProps::default(),
            1e-3,
            &out,
            1e-10,
            5000,
        );
        if comm.rank() == 0 {
            println!(
                "distributed CG: {} iterations, residual {:.2e}",
                stats.iterations, stats.residual
            );
        }
        (comm.rank(), owned, values)
    });

    // Compare every owned nodal value against the serial solution.
    let scale = x_serial.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-12);
    let mut max_rel = 0.0f64;
    let mut total_owned = 0usize;
    for (rank, owned, values) in &results {
        total_owned += owned.len();
        for (&g, &v) in owned.iter().zip(values) {
            max_rel = max_rel.max((v - x_serial[g as usize]).abs() / scale);
        }
        println!("rank {rank}: owns {} of {} nodes", owned.len(), mesh.num_nodes());
    }
    assert_eq!(total_owned, mesh.num_nodes(), "ownership must partition the nodes");
    println!("max relative deviation from the serial solution: {max_rel:.2e}");
    assert!(max_rel < 1e-6, "distributed and serial solutions must agree");
    println!("distributed == serial ✓");
}

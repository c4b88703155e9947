//! Micro-benchmarks of the real executing kernels on the host machine
//! (single core in this container — these measure *throughput of the
//! real implementations*, complementing the virtual-platform figure
//! harnesses). Timed with the in-repo `cfpd-testkit` bench timer.

use std::hint::black_box;

use cfpd_bench::emit;
use cfpd_mesh::{generate_airway, AirwaySpec, Vec3};
use cfpd_partition::{greedy_coloring, partition_kway, Graph};
use cfpd_runtime::ThreadPool;
use cfpd_solver::{
    assemble_momentum, cg, AssemblyPlan, AssemblyStrategy, CsrMatrix, ElementOrder, FluidProps,
    RefElement, SellMatrix,
};
use cfpd_testkit::bench::{Bench, BenchConfig};

fn bench_assembly_strategies(b: &mut Bench) {
    let am = generate_airway(&AirwaySpec::small()).unwrap();
    let mesh = &am.mesh;
    let n2e = mesh.node_to_elements();
    let matrix = SellMatrix::from_csr(&CsrMatrix::from_mesh(mesh, &n2e));
    let refs = RefElement::all();
    let pool = ThreadPool::new(2);
    let velocity: Vec<Vec3> = mesh.coords.iter().map(|p| Vec3::new(p.z, 0.0, -1.0)).collect();
    let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();

    for strategy in AssemblyStrategy::ALL {
        let (sell, order) = (matrix.structure(), ElementOrder::List);
        let plan = AssemblyPlan::new(mesh, elems.clone(), strategy, 16, sell, order);
        b.bench_batched(
            &format!("assembly/{}", strategy.label()),
            || (matrix.clone(), vec![vec![0.0; mesh.num_nodes()]; 3]),
            |(mut a, mut rhs)| {
                let stats = assemble_momentum(
                    &pool,
                    &refs,
                    mesh,
                    &plan,
                    &velocity,
                    FluidProps::default(),
                    1e-4,
                    Vec3::new(0.0, 0.0, -9.81),
                    &mut a,
                    &mut rhs,
                );
                black_box(stats.elements);
            },
        );
    }
}

fn bench_solvers(b: &mut Bench) {
    let am = generate_airway(&AirwaySpec::small()).unwrap();
    let mesh = &am.mesh;
    let n2e = mesh.node_to_elements();
    let mut a = CsrMatrix::from_mesh(mesh, &n2e);
    // SPD Laplacian-like fill: off-diagonal -1, diagonal = degree.
    for row in 0..a.n {
        let (lo, hi) = (a.row_ptr[row] as usize, a.row_ptr[row + 1] as usize);
        let deg = (hi - lo - 1) as f64;
        for k in lo..hi {
            a.values[k] = if a.col_idx[k] as usize == row { deg + 1.0 } else { -1.0 };
        }
    }
    let b_vec = vec![1.0; a.n];

    let x = vec![1.0; a.n];
    let mut y = vec![0.0; a.n];
    b.bench("solver/spmv", || {
        a.spmv(black_box(&x), &mut y);
        black_box(y[0]);
    });
    b.bench("solver/cg", || {
        let mut x = vec![0.0; a.n];
        let stats = cg(&a, &b_vec, &mut x, 1e-8, 500);
        black_box(stats.iterations);
    });
}

fn bench_particles(b: &mut Bench) {
    use cfpd_particles::{inject_at_inlet, step_particles, Locator, ParticleProps, ParticleSet};
    let am = generate_airway(&AirwaySpec::small()).unwrap();
    let locator = Locator::new(&am.mesh);
    let mut set = ParticleSet::default();
    inject_at_inlet(
        &mut set,
        &locator,
        am.inlet_center,
        am.inlet_direction,
        am.inlet_radius,
        1.5,
        ParticleProps::default(),
        2000,
        42,
    );
    let flow: Vec<Vec3> = vec![Vec3::new(0.0, 0.0, -2.0); am.mesh.num_nodes()];

    b.bench_batched(
        "particles/step_2000",
        || set.clone(),
        |mut s| {
            let stats = step_particles(
                &mut s,
                &locator,
                &flow,
                1.14,
                1.9e-5,
                Vec3::new(0.0, 0.0, -9.81),
                1e-4,
            );
            black_box(stats.moved);
        },
    );
}

fn bench_partitioning(b: &mut Bench) {
    let am = generate_airway(&AirwaySpec::small()).unwrap();
    let n2e = am.mesh.node_to_elements();
    let adj = am.mesh.element_adjacency(&n2e);
    let g = Graph::from_csr_unit(&adj);

    b.bench("partition/kway_16", || {
        black_box(partition_kway(&g, 16, 4).edge_cut(&g));
    });
    b.bench("partition/coloring", || {
        black_box(greedy_coloring(&g).num_colors);
    });
}

fn bench_meshgen(b: &mut Bench) {
    b.bench("meshgen/airway_small", || {
        black_box(generate_airway(&AirwaySpec::small()).unwrap().mesh.num_elements());
    });
}

fn main() {
    let mut b = Bench::with_config("micro", BenchConfig { warmup: 3, samples: 10 });
    bench_assembly_strategies(&mut b);
    bench_solvers(&mut b);
    bench_particles(&mut b);
    bench_partitioning(&mut b);
    bench_meshgen(&mut b);
    emit("micro", &b.report());
}

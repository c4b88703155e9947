//! Stress and failure-injection tests of the runtime substrate stack:
//! simmpi × runtime × dlb under concurrency.

use cfpd_dlb::DlbNode;
use cfpd_mesh::{generate_airway, AirwaySpec, Vec3};
use cfpd_runtime::{
    balanced_ranges, parallel_for, parallel_for_ranges, prefix_weights, Dep, TaskGraph, ThreadPool,
};
use cfpd_simmpi::{ReduceOp, Universe};
use cfpd_solver::{
    assemble_divergence, assemble_momentum, assemble_pressure_gradient, AssemblyPlan,
    AssemblyStrategy, CsrMatrix, ElementOrder, FluidProps, RefElement, SellMatrix,
};
use cfpd_testkit::prop::{check, usize_range, vec_of, PropConfig};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn many_ranks_collectives_stress() {
    // Oversubscribed universe hammering collectives.
    let out = Universe::run(12, |comm| {
        let mut acc = 0.0;
        for round in 0..20 {
            acc += comm.allreduce_f64((comm.rank() + round) as f64, ReduceOp::Sum);
            comm.barrier();
            let all = comm.bcast(0, comm.gather(0, comm.rank()));
            assert_eq!(all.len(), 12);
        }
        acc
    });
    assert!(out.iter().all(|&x| (x - out[0]).abs() < 1e-12));
}

#[test]
fn repeated_splits_are_independent() {
    Universe::run(8, |comm| {
        for round in 0..5 {
            let color = (comm.rank() + round) % 2;
            let sub = comm.split(color, comm.rank());
            let sum = sub.allreduce_f64(1.0, ReduceOp::Sum);
            assert_eq!(sum as usize, sub.size());
        }
    });
}

#[test]
fn task_graph_random_dependences_all_run_once() {
    let pool = ThreadPool::new(4);
    let n = 300;
    let counter = Arc::new(AtomicUsize::new(0));
    let mut g = TaskGraph::new();
    // Pseudo-random but deterministic dependence pattern mixing all
    // kinds over 20 objects.
    let mut state = 12345u64;
    let mut rand = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for _ in 0..n {
        let obj = rand() % 20;
        let deps = match rand() % 4 {
            0 => vec![Dep::read(obj)],
            1 => vec![Dep::write(obj)],
            2 => vec![Dep::mutex(obj), Dep::mutex(rand() % 20)],
            _ => vec![Dep::readwrite(obj), Dep::read(rand() % 20)],
        };
        let c = Arc::clone(&counter);
        g.add_task(&deps, move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
    }
    let stats = g.execute(&pool);
    assert_eq!(counter.load(Ordering::SeqCst), n);
    assert_eq!(stats.tasks_run, n);
}

/// Every loop form the solver forks — dynamic chunks, the static split
/// of a fixed chunk list, a dependence graph — under a thread that keeps
/// flipping the active count (all values, then the LeWI extremes 1 and
/// max): 100 back-to-back regions each lose and duplicate nothing.
#[test]
fn pool_resize_under_load_loses_no_work() {
    let pool = Arc::new(ThreadPool::new(6));
    let p2 = Arc::clone(&pool);
    let stop = Arc::new(AtomicBool::new(false));
    let s2 = Arc::clone(&stop);
    let resizer = std::thread::spawn(move || {
        let mut n = 1;
        while !s2.load(Ordering::Relaxed) {
            p2.set_active(if n % 16 < 8 { n % 6 + 1 } else { 1 + 5 * (n % 2) });
            n += 1;
            std::thread::yield_now();
        }
    });

    let hits = AtomicUsize::new(0);
    for _ in 0..100 {
        parallel_for(&pool, 0..1000, 64, |r| {
            hits.fetch_add(r.len(), Ordering::Relaxed);
        });
    }
    assert_eq!(hits.load(Ordering::SeqCst), 100 * 1000);

    let ranges = balanced_ranges(&prefix_weights(1000, |i| (i % 5 + 1) as u32), 37);
    let chunk_hits: Vec<AtomicUsize> = ranges.iter().map(|_| AtomicUsize::new(0)).collect();
    for _ in 0..100 {
        parallel_for_ranges(&pool, &ranges, |c, r| {
            assert_eq!(r, ranges[c]);
            chunk_hits[c].fetch_add(1, Ordering::Relaxed);
        });
    }
    assert!(chunk_hits.iter().all(|h| h.load(Ordering::SeqCst) == 100));

    // A chain per object: task k of chain c must see k - 1 done.
    for _ in 0..100 {
        let progress: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let mut g = TaskGraph::new();
        for k in 0..8 {
            for (c, p) in progress.iter().enumerate() {
                g.add_task(&[Dep::readwrite(c)], move || {
                    assert_eq!(p.fetch_add(1, Ordering::SeqCst), k, "chain {c} out of order");
                });
            }
        }
        assert_eq!(g.execute(&pool).tasks_run, 32);
        assert!(progress.iter().all(|p| p.load(Ordering::SeqCst) == 8));
    }

    stop.store(true, Ordering::Relaxed);
    resizer.join().unwrap();
}

/// Spinning is bounded, so more pools than cores still complete: eight
/// four-executor pools fork back-to-back regions at once (32 threads
/// that would all like to spin, on a host with a handful of cores).
#[test]
fn more_pools_than_cores_still_complete() {
    let total = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                let pool = ThreadPool::new(4);
                for _ in 0..200 {
                    pool.run_region(|_| {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
    });
    assert_eq!(total.load(Ordering::SeqCst), 8 * 200 * 4);
}

/// The acceptance test of order-fixed multidependences: momentum matrix
/// and right-hand sides, divergence and pressure-gradient vectors are
/// `==` to the one-worker assembly while LeWI resizes the pool in the
/// middle of the sweeps. Rank 0 owns one core of a four-executor pool;
/// a script thread makes rank 1 (three cores) lend and reclaim with
/// random pauses in between, so rank 0's pool jumps between one and four
/// executors at points no two runs share. On the shrinking runner: a
/// failing script shrinks toward all-zero pauses. 64 subdomains on the
/// 2-generation mesh give enough adjacent tasks in flight that, with
/// `mutexinoutset` edges in place of the ordered ones, this test failed
/// in 6 of 6 runs on the 2-core bench host (at 16 it passed 6 of 6).
#[test]
fn assembly_is_bit_identical_under_random_lend_reclaim_scripts() {
    let spec = AirwaySpec { generations: 2, ..AirwaySpec::small() };
    let mesh = generate_airway(&spec).unwrap().mesh;
    let refs = RefElement::all();
    let template = SellMatrix::from_csr(&CsrMatrix::from_mesh(&mesh, &mesh.node_to_elements()));
    let n = mesh.num_nodes();
    let velocity: Vec<Vec3> =
        mesh.coords.iter().map(|p| Vec3::new(p.z * 2.0, p.x, -p.y * 0.5)).collect();
    let pressure: Vec<f64> = mesh.coords.iter().map(|p| p.x - 2.0 * p.z).collect();
    let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
    let faces = mesh.face_neighbors();
    let plans: Vec<AssemblyPlan> = [AssemblyStrategy::Multidep, AssemblyStrategy::Coloring]
        .into_iter()
        .map(|strategy| {
            let order = ElementOrder::KindGrouped;
            let (listed, sell) = (elems.clone(), template.structure());
            AssemblyPlan::new(&mesh, &faces, listed, strategy, 64, sell, order)
        })
        .collect();
    let assemble = |pool: &ThreadPool, plan: &AssemblyPlan| {
        let (props, dt) = (FluidProps::default(), 1e-4);
        let mut a = template.clone();
        let mut rhs = vec![vec![0.0; n]; 3];
        assemble_momentum(
            pool,
            &refs,
            &mesh,
            plan,
            &velocity,
            props,
            dt,
            Vec3::new(0.0, 0.0, -9.81),
            &mut a,
            &mut rhs,
        );
        let mut div = vec![0.0; n];
        assemble_divergence(pool, &refs, &mesh, plan, &velocity, props, dt, &mut div);
        let mut grad = vec![0.0; 3 * n];
        assemble_pressure_gradient(pool, &refs, &mesh, plan, &pressure, &mut grad);
        (a.values().to_vec(), rhs, div, grad)
    };
    let one = ThreadPool::new(1);
    let want: Vec<_> = plans.iter().map(|plan| assemble(&one, plan)).collect();

    check(
        "assembly_is_bit_identical_under_random_lend_reclaim_scripts",
        PropConfig::cases(12),
        &vec_of(usize_range(0, 100_000), 32),
        |pauses| {
            let node = DlbNode::new();
            let pool = Arc::new(ThreadPool::new(4));
            node.register(0, Arc::clone(&pool), 1);
            node.register(1, Arc::new(ThreadPool::new(3)), 3);
            let done = AtomicBool::new(false);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for (k, &pause) in pauses.iter().enumerate() {
                        for _ in 0..pause {
                            std::hint::spin_loop();
                        }
                        if k % 2 == 0 {
                            node.lend(1);
                        } else {
                            node.reclaim(1);
                        }
                    }
                    done.store(true, Ordering::Release);
                });
                // At least one pass per plan, then as many as the script lasts.
                let mut passes = 0;
                while passes < 2 || !done.load(Ordering::Acquire) {
                    let k = passes % plans.len();
                    assert!(
                        assemble(&pool, &plans[k]) == want[k],
                        "{:?} moved bits under a resized pool",
                        plans[k].strategy
                    );
                    passes += 1;
                }
            });
            node.reclaim(1);
            assert_eq!(node.active_of(0), Some(1));
            assert!(node.stats().grants > 0, "the script never grew the pool");
        },
    );
}

#[test]
fn dlb_with_many_ranks_stays_consistent() {
    let n = 6;
    let node = DlbNode::new();
    let pools: Vec<Arc<ThreadPool>> = (0..n).map(|_| Arc::new(ThreadPool::new(4))).collect();
    for (r, p) in pools.iter().enumerate() {
        node.register(r, Arc::clone(p), 2);
    }
    Universe::run_with_hooks(n, Arc::clone(&node) as _, |comm| {
        for _ in 0..10 {
            comm.barrier();
        }
    });
    // After all barriers complete, every pool is back at its ownership.
    for r in 0..n {
        assert_eq!(node.active_of(r), Some(2), "rank {r} not restored");
    }
    let (held, budget) = node.conservation();
    assert_eq!(held, budget, "core conservation violated");
    let stats = node.stats();
    assert_eq!(stats.lends, stats.reclaims, "unbalanced lend/reclaim");
    assert!(stats.lends > 0, "{n} ranks in 10 barriers never blocked");
}

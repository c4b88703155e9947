//! The three parallelizations of the matrix-assembly phase compared in
//! the paper (§3.1, Fig. 4), plus a serial reference:
//!
//! * **Atomics** — `omp parallel do` + `omp atomic` on every scatter-add
//!   (pays the atomic penalty whether or not there is a conflict);
//! * **Coloring** — Farhat-Crivelli: one parallel loop per color, no
//!   atomics, but spatial locality destroyed;
//! * **Multidep** — one task per Metis-style subdomain, adjacent
//!   subdomains linked with `mutexinoutset`: no atomics *and* contiguous
//!   elements processed by the same task (locality preserved).
//!
//! All strategies produce the same matrix up to floating-point
//! summation order (verified by the strategy-equivalence tests).

use crate::csr::{AtomicView, CsrMatrix, DisjointView};
use crate::kernels::{
    divergence_kernel, momentum_kernel, poisson_kernel, pressure_gradient_kernel, ElementScratch,
    FluidProps, LocalMomentum, LocalPoisson,
};
use crate::shape::{RefElement, MAX_NODES};
use cfpd_mesh::{Mesh, Vec3};
use cfpd_partition::{decompose_subdomains, greedy_coloring, local_element_graph};
use cfpd_runtime::{parallel_for, Dep, TaskGraph, ThreadPool};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which parallelization to use for a racy element loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssemblyStrategy {
    /// Single-threaded reference.
    Serial,
    /// Parallel loop with atomic scatter-adds.
    Atomics,
    /// Mesh coloring: one parallel loop per color, plain scatter.
    Coloring,
    /// Multidependences: subdomain tasks with mutexinoutset exclusion.
    Multidep,
}

impl AssemblyStrategy {
    pub const ALL: [AssemblyStrategy; 4] = [
        AssemblyStrategy::Serial,
        AssemblyStrategy::Atomics,
        AssemblyStrategy::Coloring,
        AssemblyStrategy::Multidep,
    ];

    pub fn label(self) -> &'static str {
        match self {
            AssemblyStrategy::Serial => "Serial",
            AssemblyStrategy::Atomics => "Atomics",
            AssemblyStrategy::Coloring => "Coloring",
            AssemblyStrategy::Multidep => "Multidep",
        }
    }
}

/// Precomputed schedule for assembling a fixed element set with a fixed
/// strategy (built once, reused every time step — as a production code
/// would).
#[derive(Debug)]
pub struct AssemblyPlan {
    pub strategy: AssemblyStrategy,
    /// Elements this plan assembles (global ids).
    pub elems: Vec<u32>,
    /// Coloring schedule: element ids per color.
    color_classes: Option<Vec<Vec<u32>>>,
    /// Multidep schedule: element ids per subdomain + per-subdomain
    /// mutexinoutset object lists (one object per adjacency edge).
    subdomains: Option<(Vec<Vec<u32>>, Vec<Vec<usize>>)>,
    /// Grain for the atomics parallel loop.
    grain: usize,
    /// Kind-batched SoA schedule, one batch set per parallel unit of the
    /// strategy. With it the four `assemble_*` entry points sum each
    /// unit's elements grouped by kind (the fast layout's order); without
    /// it in the unit's list order (the reference layout's).
    batches: Option<crate::batch::BatchSchedule>,
}

/// Counters describing one assembly execution, consumed by the
/// performance model (atomic ops, locality, task scheduling).
#[derive(Debug, Default, Clone)]
pub struct AssemblyStats {
    pub elements: usize,
    /// Quadrature-weighted element work (Tet4 ≡ 1).
    pub weighted_ops: f64,
    /// Atomic read-modify-writes issued (Atomics strategy only).
    pub atomic_adds: usize,
    /// Number of colors (Coloring strategy only).
    pub colors: usize,
    /// Number of subdomain tasks (Multidep only).
    pub tasks: usize,
    /// mutexinoutset acquisition retries (Multidep only).
    pub mutex_retries: usize,
}

impl AssemblyPlan {
    /// Build a plan for `elems` of `mesh` under `strategy`.
    /// `n_subdomains` controls the Multidep decomposition (ignored by
    /// the other strategies); a good default is several times the
    /// executor count.
    pub fn new(
        mesh: &Mesh,
        elems: Vec<u32>,
        strategy: AssemblyStrategy,
        n_subdomains: usize,
    ) -> AssemblyPlan {
        let weights: Vec<f64> =
            elems.iter().map(|&e| mesh.kinds[e as usize].cost_weight()).collect();
        let mut plan = AssemblyPlan {
            strategy,
            color_classes: None,
            subdomains: None,
            grain: 32,
            batches: None,
            elems,
        };
        match strategy {
            AssemblyStrategy::Serial | AssemblyStrategy::Atomics => {}
            AssemblyStrategy::Coloring => {
                let g = local_element_graph(mesh, &plan.elems, &weights);
                let coloring = greedy_coloring(&g);
                // Map local ids back to global element ids.
                let classes = coloring
                    .color_classes()
                    .into_iter()
                    .map(|class| class.into_iter().map(|li| plan.elems[li as usize]).collect())
                    .collect();
                plan.color_classes = Some(classes);
            }
            AssemblyStrategy::Multidep => {
                let n_sub = n_subdomains.max(1).min(plan.elems.len().max(1));
                let d = decompose_subdomains(mesh, &plan.elems, &weights, n_sub);
                // One mutex object per adjacency edge, numbered where its
                // lower end lists it; the upper end looks the number up
                // in the lower end's (ascending) neighbor list.
                let mut next = 0usize;
                let mut objs: Vec<Vec<usize>> = vec![Vec::new(); d.num_subdomains()];
                for (s, neigh) in d.adjacency.iter().enumerate() {
                    for &t in neigh {
                        let t = t as usize;
                        let id = if s < t {
                            next += 1;
                            next - 1
                        } else {
                            let at = d.adjacency[t]
                                .binary_search(&(s as u32))
                                .expect("subdomain adjacency is symmetric");
                            objs[t][at]
                        };
                        objs[s].push(id);
                    }
                }
                plan.subdomains = Some((d.members, objs));
            }
        }
        plan
    }

    /// [`AssemblyPlan::new`] plus a kind-batched SoA schedule built
    /// against `pattern`'s sparsity (gather lists, precomputed scatter
    /// indices, cached element lengths) — the element-sum order of the
    /// fast layout ([`crate::layout`]). The momentum and Poisson matrices
    /// of a mesh share one pattern, so one schedule serves both systems.
    pub fn with_batches(
        mesh: &Mesh,
        elems: Vec<u32>,
        strategy: AssemblyStrategy,
        n_subdomains: usize,
        pattern: &CsrMatrix,
    ) -> AssemblyPlan {
        let mut plan = AssemblyPlan::new(mesh, elems, strategy, n_subdomains);
        let units: Vec<crate::batch::BatchSet> = match strategy {
            AssemblyStrategy::Serial | AssemblyStrategy::Atomics => {
                vec![crate::batch::BatchSet::build(mesh, pattern, &plan.elems)]
            }
            AssemblyStrategy::Coloring => plan
                .color_classes
                .as_ref()
                .expect("coloring plan")
                .iter()
                .map(|class| crate::batch::BatchSet::build(mesh, pattern, class))
                .collect(),
            AssemblyStrategy::Multidep => plan
                .subdomains
                .as_ref()
                .expect("multidep plan")
                .0
                .iter()
                .map(|members| crate::batch::BatchSet::build(mesh, pattern, members))
                .collect(),
        };
        plan.batches = Some(crate::batch::BatchSchedule { units });
        plan
    }

    /// Number of colors (0 unless Coloring).
    pub fn num_colors(&self) -> usize {
        self.color_classes.as_ref().map_or(0, |c| c.len())
    }

    /// Number of subdomain tasks (0 unless Multidep).
    pub fn num_subdomains(&self) -> usize {
        self.subdomains.as_ref().map_or(0, |(m, _)| m.len())
    }

    /// The batched schedule, if this plan was built with
    /// [`AssemblyPlan::with_batches`].
    pub fn batch_schedule(&self) -> Option<&crate::batch::BatchSchedule> {
        self.batches.as_ref()
    }

    /// Element ids per color (Coloring only).
    pub(crate) fn color_classes(&self) -> Option<&[Vec<u32>]> {
        self.color_classes.as_deref()
    }

    /// Element ids per subdomain (Multidep only).
    pub(crate) fn subdomain_members(&self) -> Option<&[Vec<u32>]> {
        self.subdomains.as_ref().map(|(members, _)| members.as_slice())
    }

    /// Per-subdomain mutexinoutset object lists (Multidep only).
    pub(crate) fn mutex_objs(&self) -> Option<&Vec<Vec<usize>>> {
        self.subdomains.as_ref().map(|(_, objs)| objs)
    }

    /// The atomics-loop grain.
    pub(crate) fn atomics_grain(&self) -> usize {
        self.grain
    }
}

/// A local contribution ready to scatter: `nn` nodes, dense block `a`,
/// and `rhs_dim` right-hand-side components per node.
struct LocalBlock {
    nn: usize,
    a: [[f64; MAX_NODES]; MAX_NODES],
    b: [[f64; 3]; MAX_NODES],
}

impl From<LocalMomentum> for LocalBlock {
    fn from(m: LocalMomentum) -> Self {
        LocalBlock { nn: m.nn, a: m.a, b: m.b }
    }
}

impl From<LocalPoisson> for LocalBlock {
    fn from(p: LocalPoisson) -> Self {
        LocalBlock { nn: p.nn, a: p.l, b: [[0.0; 3]; MAX_NODES] }
    }
}

/// Generic strategy-dispatched assembly of a scalar CSR matrix plus up
/// to 3 RHS component vectors, in the list order of each strategy unit:
/// the summation order `tests/golden/sync_small.golden` pins, which is
/// why these loops stay beside the kind-batched ones of
/// [`crate::batch`]. `compute` produces the local block of one element
/// (given a per-executor scratch).
fn assemble_generic<K>(
    pool: &ThreadPool,
    mesh: &Mesh,
    plan: &AssemblyPlan,
    rhs_dim: usize,
    compute: K,
    matrix: &mut CsrMatrix,
    rhs: &mut [Vec<f64>],
) -> AssemblyStats
where
    K: Fn(&mut ElementScratch, usize) -> Option<LocalBlock> + Sync,
{
    assert!(rhs_dim <= 3 && rhs.len() == rhs_dim);
    let mut stats = AssemblyStats {
        elements: plan.elems.len(),
        weighted_ops: plan
            .elems
            .iter()
            .map(|&e| mesh.kinds[e as usize].cost_weight())
            .sum(),
        colors: plan.num_colors(),
        tasks: plan.num_subdomains(),
        ..Default::default()
    };

    let (pattern, values) = matrix.split_mut();
    match plan.strategy {
        AssemblyStrategy::Serial => {
            let mut scratch = ElementScratch::default();
            for &e in &plan.elems {
                let e = e as usize;
                let lb = compute(&mut scratch, e).expect("degenerate element");
                let nodes = mesh.elem_nodes(e);
                for i in 0..lb.nn {
                    let gi = nodes[i] as usize;
                    for j in 0..lb.nn {
                        let idx = pattern.entry_index(gi, nodes[j] as usize);
                        values[idx] += lb.a[i][j];
                    }
                    for (c, r) in rhs.iter_mut().enumerate() {
                        r[gi] += lb.b[i][c];
                    }
                }
            }
        }
        AssemblyStrategy::Atomics => {
            let av = AtomicView::from_slice(values);
            let rvs: Vec<AtomicView> =
                rhs.iter_mut().map(|r| AtomicView::from_slice(r)).collect();
            let elems = &plan.elems;
            parallel_for(pool, 0..elems.len(), plan.grain, |range| {
                let mut scratch = ElementScratch::default();
                for k in range {
                    let e = elems[k] as usize;
                    let lb = compute(&mut scratch, e).expect("degenerate element");
                    let nodes = mesh.elem_nodes(e);
                    for i in 0..lb.nn {
                        let gi = nodes[i] as usize;
                        for j in 0..lb.nn {
                            let idx = pattern.entry_index(gi, nodes[j] as usize);
                            av.add_at(idx, lb.a[i][j]);
                        }
                        for (c, rv) in rvs.iter().enumerate() {
                            rv.add_at(gi, lb.b[i][c]);
                        }
                    }
                }
            });
            stats.atomic_adds = av.atomic_ops.load(Ordering::Relaxed)
                + rvs.iter().map(|r| r.atomic_ops.load(Ordering::Relaxed)).sum::<usize>();
        }
        AssemblyStrategy::Coloring => {
            let dv = DisjointView::from_slice(values);
            let rvs: Vec<DisjointView> =
                rhs.iter_mut().map(|r| DisjointView::from_slice(r)).collect();
            let classes = plan.color_classes.as_ref().expect("coloring plan");
            for class in classes {
                parallel_for(pool, 0..class.len(), plan.grain, |range| {
                    let mut scratch = ElementScratch::default();
                    for k in range {
                        let e = class[k] as usize;
                        let lb = compute(&mut scratch, e).expect("degenerate element");
                        let nodes = mesh.elem_nodes(e);
                        for i in 0..lb.nn {
                            let gi = nodes[i] as usize;
                            for j in 0..lb.nn {
                                let idx = pattern.entry_index(gi, nodes[j] as usize);
                                // SAFETY: same-color elements share no
                                // node, so concurrent writes are disjoint.
                                unsafe { dv.add_at(idx, lb.a[i][j]) };
                            }
                            for (c, rv) in rvs.iter().enumerate() {
                                // SAFETY: as above (row index is a node
                                // of this element).
                                unsafe { rv.add_at(gi, lb.b[i][c]) };
                            }
                        }
                    }
                });
            }
        }
        AssemblyStrategy::Multidep => {
            let dv = DisjointView::from_slice(values);
            let rvs: Vec<DisjointView> =
                rhs.iter_mut().map(|r| DisjointView::from_slice(r)).collect();
            let (members, objs) = plan.subdomains.as_ref().expect("multidep plan");
            let retries = AtomicUsize::new(0);
            let mut graph = TaskGraph::new();
            for (s, elems) in members.iter().enumerate() {
                let deps: Vec<Dep> = objs[s].iter().map(|&o| Dep::mutex(o)).collect();
                let dv = &dv;
                let rvs = &rvs;
                let compute = &compute;
                graph.add_task(&deps, move || {
                    let mut scratch = ElementScratch::default();
                    for &e in elems {
                        let e = e as usize;
                        let lb = compute(&mut scratch, e).expect("degenerate element");
                        let nodes = mesh.elem_nodes(e);
                        for i in 0..lb.nn {
                            let gi = nodes[i] as usize;
                            for j in 0..lb.nn {
                                let idx = pattern.entry_index(gi, nodes[j] as usize);
                                // SAFETY: adjacent subdomains are mutually
                                // excluded via mutexinoutset; non-adjacent
                                // ones share no node.
                                unsafe { dv.add_at(idx, lb.a[i][j]) };
                            }
                            for (c, rv) in rvs.iter().enumerate() {
                                // SAFETY: as above.
                                unsafe { rv.add_at(gi, lb.b[i][c]) };
                            }
                        }
                    }
                });
            }
            let exec = graph.execute(pool);
            retries.fetch_add(exec.mutex_retries, Ordering::Relaxed);
            stats.mutex_retries = retries.load(Ordering::Relaxed);
        }
    }
    stats
}

fn count_assembly(plan: &AssemblyPlan) {
    cfpd_telemetry::count!("solver.assemblies");
    cfpd_telemetry::count!("solver.assembly_elements", plan.elems.len() as u64);
}

/// Assemble the momentum system (matrix + 3-component RHS) over
/// `plan.elems` using the plan's strategy. A plan built with batches
/// runs the kind-batched (lane) schedule under that strategy; otherwise
/// every strategy unit is one element loop in list order.
#[allow(clippy::too_many_arguments)]
pub fn assemble_momentum(
    pool: &ThreadPool,
    refs: &[RefElement; 3],
    mesh: &Mesh,
    plan: &AssemblyPlan,
    velocity: &[Vec3],
    pressure: &[f64],
    props: FluidProps,
    dt: f64,
    body_force: Vec3,
    matrix: &mut CsrMatrix,
    rhs: &mut [Vec<f64>],
) -> AssemblyStats {
    count_assembly(plan);
    if plan.batch_schedule().is_some() {
        return crate::batch::momentum_batched(
            pool, refs, mesh, plan, velocity, pressure, props, dt, body_force, matrix, rhs,
        );
    }
    assemble_generic(
        pool,
        mesh,
        plan,
        3,
        |scratch, e| {
            let (kind, nn) = scratch.load_with_pressure(mesh, velocity, pressure, e);
            let h = mesh.volume(e).abs().cbrt();
            momentum_kernel(refs, scratch, kind, nn, props, dt, h, body_force)
                .map(LocalBlock::from)
        },
        matrix,
        rhs,
    )
}

/// Assemble the pressure-Poisson matrix (the Laplacian; its right-hand
/// side is [`assemble_divergence`]'s), scheduled like
/// [`assemble_momentum`].
pub fn assemble_poisson(
    pool: &ThreadPool,
    refs: &[RefElement; 3],
    mesh: &Mesh,
    plan: &AssemblyPlan,
    matrix: &mut CsrMatrix,
) -> AssemblyStats {
    count_assembly(plan);
    if plan.batch_schedule().is_some() {
        return crate::batch::poisson_batched(pool, refs, mesh, plan, matrix);
    }
    assemble_generic(
        pool,
        mesh,
        plan,
        0,
        |scratch, e| {
            let (kind, nn) = scratch.load_coords(mesh, e);
            poisson_kernel(refs, scratch, kind, nn).map(LocalBlock::from)
        },
        matrix,
        &mut [],
    )
}

/// Add the weak divergence right-hand side of the pressure-Poisson
/// system, `(ρ/dt) ∫ ∇N_i · u`, of `plan.elems` into `rhs`. A plan built
/// with batches runs the kind-batched (lane) schedule under the plan's
/// strategy; otherwise this is one serial element loop in list order
/// (again the reference layout's summation order).
#[allow(clippy::too_many_arguments)]
pub fn assemble_divergence(
    pool: &ThreadPool,
    refs: &[RefElement; 3],
    mesh: &Mesh,
    plan: &AssemblyPlan,
    velocity: &[Vec3],
    props: FluidProps,
    dt: f64,
    rhs: &mut [f64],
) {
    if plan.batch_schedule().is_some() {
        return crate::batch::divergence_batched(pool, refs, mesh, plan, velocity, props, dt, rhs);
    }
    let mut scratch = ElementScratch::default();
    for &e in &plan.elems {
        let (kind, _) = scratch.load(mesh, velocity, e as usize);
        let b = divergence_kernel(refs, &scratch, kind, props, dt).expect("degenerate element");
        for (k, &v) in mesh.elem_nodes(e as usize).iter().enumerate() {
            rhs[v as usize] += b[k];
        }
    }
}

/// Add the weak nodal pressure gradient `∫ N_i ∇p` of `plan.elems` into
/// `grad` (component `c` of node `i` at `grad[3 i + c]`), scheduled like
/// [`assemble_divergence`].
pub fn assemble_pressure_gradient(
    pool: &ThreadPool,
    refs: &[RefElement; 3],
    mesh: &Mesh,
    plan: &AssemblyPlan,
    pressure: &[f64],
    grad: &mut [f64],
) {
    if plan.batch_schedule().is_some() {
        return crate::batch::pressure_gradient_batched(pool, refs, mesh, plan, pressure, grad);
    }
    let mut scratch = ElementScratch::default();
    for &e in &plan.elems {
        let (kind, _) = scratch.load_coords(mesh, e as usize);
        let nodes = mesh.elem_nodes(e as usize);
        for (k, &v) in nodes.iter().enumerate() {
            scratch.pres[k] = pressure[v as usize];
        }
        let g = pressure_gradient_kernel(refs, &scratch, kind).expect("degenerate element");
        for (k, &v) in nodes.iter().enumerate() {
            for c in 0..3 {
                grad[3 * v as usize + c] += g[k][c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_mesh::{generate_airway, AirwaySpec};

    struct Fixture {
        mesh: Mesh,
        refs: [RefElement; 3],
        pool: ThreadPool,
        velocity: Vec<Vec3>,
    }

    fn fixture() -> Fixture {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let velocity = am
            .mesh
            .coords
            .iter()
            .map(|p| Vec3::new(p.z * 2.0, p.x, -p.y * 0.5))
            .collect();
        Fixture { mesh: am.mesh, refs: RefElement::all(), pool: ThreadPool::new(4), velocity }
    }

    fn assemble_with(f: &Fixture, strategy: AssemblyStrategy) -> (CsrMatrix, Vec<Vec<f64>>, AssemblyStats) {
        let n2e = f.mesh.node_to_elements();
        let mut a = CsrMatrix::from_mesh(&f.mesh, &n2e);
        let n = f.mesh.num_nodes();
        let mut rhs = vec![vec![0.0; n]; 3];
        let elems: Vec<u32> = (0..f.mesh.num_elements() as u32).collect();
        let plan = AssemblyPlan::new(&f.mesh, elems, strategy, 24);
        let zero_p = vec![0.0; f.mesh.num_nodes()];
        let stats = assemble_momentum(
            &f.pool,
            &f.refs,
            &f.mesh,
            &plan,
            &f.velocity,
            &zero_p,
            FluidProps::default(),
            1e-4,
            Vec3::new(0.0, 0.0, -9.81),
            &mut a,
            &mut rhs,
        );
        (a, rhs, stats)
    }

    fn assert_matrices_close(a: &CsrMatrix, b: &CsrMatrix, tol: f64) {
        assert_eq!(a.nnz(), b.nnz());
        for k in 0..a.nnz() {
            let (x, y) = (a.values[k], b.values[k]);
            let scale = x.abs().max(y.abs()).max(1.0);
            assert!(
                (x - y).abs() <= tol * scale,
                "entry {k}: {x} vs {y}"
            );
        }
    }

    /// The headline correctness property: all four strategies assemble
    /// the same matrix and RHS (up to FP summation order).
    #[test]
    fn all_strategies_assemble_identically() {
        let f = fixture();
        let (a_ref, rhs_ref, _) = assemble_with(&f, AssemblyStrategy::Serial);
        for strategy in [
            AssemblyStrategy::Atomics,
            AssemblyStrategy::Coloring,
            AssemblyStrategy::Multidep,
        ] {
            let (a, rhs, _) = assemble_with(&f, strategy);
            assert_matrices_close(&a_ref, &a, 1e-9);
            for c in 0..3 {
                for i in 0..rhs_ref[c].len() {
                    let (x, y) = (rhs_ref[c][i], rhs[c][i]);
                    let scale = x.abs().max(y.abs()).max(1.0);
                    assert!(
                        (x - y).abs() <= 1e-9 * scale,
                        "{strategy:?} rhs[{c}][{i}]: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn atomics_counts_every_scatter() {
        let f = fixture();
        let (_, _, stats) = assemble_with(&f, AssemblyStrategy::Atomics);
        // Each element contributes nn*nn matrix + nn*3 rhs atomic adds.
        let expected: usize = (0..f.mesh.num_elements())
            .map(|e| {
                let nn = f.mesh.kinds[e].num_nodes();
                nn * nn + nn * 3
            })
            .sum();
        assert_eq!(stats.atomic_adds, expected);
    }

    #[test]
    fn coloring_plan_reports_colors() {
        let f = fixture();
        let (_, _, stats) = assemble_with(&f, AssemblyStrategy::Coloring);
        assert!(stats.colors > 1, "hybrid meshes need many colors, got {}", stats.colors);
        assert_eq!(stats.atomic_adds, 0);
    }

    #[test]
    fn multidep_plan_reports_tasks() {
        let f = fixture();
        let (_, _, stats) = assemble_with(&f, AssemblyStrategy::Multidep);
        assert_eq!(stats.tasks, 24);
        assert_eq!(stats.atomic_adds, 0);
    }

    /// Plan builds hash nothing, so two builds of one mesh in one
    /// process (where `RandomState` would differ) are equal, and every
    /// mutex object links exactly the two ends of one adjacency edge.
    #[test]
    fn plan_builds_are_reproducible() {
        let f = fixture();
        let elems: Vec<u32> = (0..f.mesh.num_elements() as u32).collect();
        let multidep =
            || AssemblyPlan::new(&f.mesh, elems.clone(), AssemblyStrategy::Multidep, 16);
        let (a, b) = (multidep(), multidep());
        assert_eq!(a.subdomains, b.subdomains);
        let (members, objs) = a.subdomains.as_ref().unwrap();
        assert_eq!(members.len(), 16);
        let mut ends: Vec<Vec<usize>> = Vec::new();
        for (s, ids) in objs.iter().enumerate() {
            for &id in ids {
                ends.resize(ends.len().max(id + 1), Vec::new());
                ends[id].push(s);
            }
        }
        assert!(ends.iter().all(|e| e.len() == 2 && e[0] != e[1]), "{ends:?}");
        ends.sort();
        assert!(ends.windows(2).all(|w| w[0] != w[1]), "two objects on one edge: {ends:?}");

        let coloring =
            || AssemblyPlan::new(&f.mesh, elems.clone(), AssemblyStrategy::Coloring, 16);
        assert_eq!(coloring().color_classes, coloring().color_classes);
    }

    #[test]
    fn poisson_matrix_is_symmetric() {
        let f = fixture();
        let n2e = f.mesh.node_to_elements();
        let mut a = CsrMatrix::from_mesh(&f.mesh, &n2e);
        let elems: Vec<u32> = (0..f.mesh.num_elements() as u32).collect();
        let plan = AssemblyPlan::new(&f.mesh, elems, AssemblyStrategy::Multidep, 16);
        assemble_poisson(&f.pool, &f.refs, &f.mesh, &plan, &mut a);
        let pat = a.pattern();
        for row in 0..a.n {
            let lo = a.row_ptr[row] as usize;
            let hi = a.row_ptr[row + 1] as usize;
            for k in lo..hi {
                let col = a.col_idx[k] as usize;
                let tr = a.values[pat.entry_index(col, row)];
                let scale = a.values[k].abs().max(tr.abs()).max(1e-12);
                assert!(
                    (a.values[k] - tr).abs() < 1e-9 * scale,
                    "L[{row},{col}] asymmetric"
                );
            }
        }
    }

    #[test]
    fn partial_element_set_assembly() {
        // Assembling half the elements (one MPI domain) works and only
        // touches rows of nodes in that half.
        let f = fixture();
        let n2e = f.mesh.node_to_elements();
        let mut a = CsrMatrix::from_mesh(&f.mesh, &n2e);
        let n = f.mesh.num_nodes();
        let mut rhs = vec![vec![0.0; n]; 3];
        let half: Vec<u32> = (0..(f.mesh.num_elements() / 2) as u32).collect();
        let touched: std::collections::HashSet<u32> = half
            .iter()
            .flat_map(|&e| f.mesh.elem_nodes(e as usize).iter().copied())
            .collect();
        let plan = AssemblyPlan::new(&f.mesh, half, AssemblyStrategy::Coloring, 8);
        let zero_p = vec![0.0; f.mesh.num_nodes()];
        assemble_momentum(
            &f.pool,
            &f.refs,
            &f.mesh,
            &plan,
            &f.velocity,
            &zero_p,
            FluidProps::default(),
            1e-4,
            Vec3::ZERO,
            &mut a,
            &mut rhs,
        );
        for node in 0..n as u32 {
            if !touched.contains(&node) {
                assert_eq!(rhs[0][node as usize], 0.0, "untouched node {node} has rhs");
            }
        }
    }
}

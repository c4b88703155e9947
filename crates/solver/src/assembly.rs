//! The three parallelizations of the matrix-assembly phase compared in
//! the paper (§3.1, Fig. 4), plus a serial reference:
//!
//! * **Atomics** — `omp parallel do` + `omp atomic` on every scatter-add
//!   (pays the atomic penalty whether or not there is a conflict);
//! * **Coloring** — Farhat-Crivelli: one parallel loop per color, no
//!   atomics, but spatial locality destroyed;
//! * **Multidep** — one task per Metis-style subdomain, adjacent
//!   subdomains linked by a dependence: no atomics *and* contiguous
//!   elements processed by the same task (locality preserved).
//!
//! The paper links adjacent subdomains with `mutexinoutset` (either
//! order, never both at once). Here every adjacency edge is *ordered*,
//! lower subdomain index first, so a row two subdomains share receives
//! its contributions in one fixed order for any worker count and under
//! a pool that LeWI resizes mid-sweep: `Multidep`, like `Coloring` and
//! `Serial`, assembles the same bits every time. Subdomains are
//! numbered by (colour of a greedy colouring of their adjacency, k-way
//! index), which keeps the ordered DAG as shallow as the colouring (3–4
//! levels) instead of one chain along the airway tree. `Atomics` is the
//! non-deterministic baseline of the paper's Fig. 4/6.
//!
//! Across strategies the matrices agree up to floating-point summation
//! order (verified by the strategy-equivalence tests).

use crate::csr::{AtomicView, CsrMatrix, DisjointView};
use crate::kernels::{
    divergence_kernel, momentum_kernel, poisson_kernel, pressure_gradient_kernel, ElementScratch,
    FluidProps, LocalMomentum, LocalPoisson,
};
use crate::shape::{RefElement, MAX_NODES};
use cfpd_mesh::{Mesh, Vec3};
use cfpd_partition::{decompose_subdomains, greedy_coloring, local_element_graph};
use cfpd_runtime::{parallel_for, Dep, TaskGraph, ThreadPool};
use std::sync::atomic::Ordering;

/// Which parallelization to use for a racy element loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssemblyStrategy {
    /// Single-threaded reference.
    Serial,
    /// Parallel loop with atomic scatter-adds.
    Atomics,
    /// Mesh coloring: one parallel loop per color, plain scatter.
    Coloring,
    /// Multidependences: subdomain tasks, adjacent ones ordered.
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
    /// Multidep schedule: element ids per subdomain (colour-numbered) +
    /// per-subdomain dependence object lists (one object per adjacency
    /// edge).
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
                let d =
                    decompose_subdomains(mesh, &plan.elems, &weights, n_sub).colour_numbered();
                // One object per adjacency edge, numbered where its
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

    /// Per-subdomain edge object lists (Multidep only).
    pub(crate) fn edge_objs(&self) -> Option<&Vec<Vec<usize>>> {
        self.subdomains.as_ref().map(|(_, objs)| objs)
    }

    /// The dependence list of subdomain task `s` in a sweep that adds
    /// into shared rows: `inout` on every edge object. Tasks are
    /// inserted in index order, so each edge orders its lower end before
    /// its upper end.
    pub(crate) fn ordered_deps(&self, s: usize) -> Vec<Dep> {
        self.edge_objs().expect("multidep plan")[s].iter().map(|&o| Dep::readwrite(o)).collect()
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
            let members = plan.subdomain_members().expect("multidep plan");
            let mut graph = TaskGraph::new();
            for (s, elems) in members.iter().enumerate() {
                let dv = &dv;
                let rvs = &rvs;
                let compute = &compute;
                graph.add_task(&plan.ordered_deps(s), move || {
                    let mut scratch = ElementScratch::default();
                    for &e in elems {
                        let e = e as usize;
                        let lb = compute(&mut scratch, e).expect("degenerate element");
                        let nodes = mesh.elem_nodes(e);
                        for i in 0..lb.nn {
                            let gi = nodes[i] as usize;
                            for j in 0..lb.nn {
                                let idx = pattern.entry_index(gi, nodes[j] as usize);
                                // SAFETY: adjacent subdomains are ordered
                                // by a dependence; non-adjacent ones
                                // share no node.
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
            graph.execute(pool);
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

    /// Everything the four `assemble_*` sweeps of one plan add up on
    /// `pool`: momentum matrix values, its three right-hand sides, the
    /// divergence vector and the pressure-gradient vector.
    type Assembled = (Vec<f64>, Vec<Vec<f64>>, Vec<f64>, Vec<f64>);

    fn plan_for(f: &Fixture, strategy: AssemblyStrategy, batched: bool) -> AssemblyPlan {
        let elems: Vec<u32> = (0..f.mesh.num_elements() as u32).collect();
        if batched {
            let pattern = CsrMatrix::from_mesh(&f.mesh, &f.mesh.node_to_elements());
            AssemblyPlan::with_batches(&f.mesh, elems, strategy, 24, &pattern)
        } else {
            AssemblyPlan::new(&f.mesh, elems, strategy, 24)
        }
    }

    fn assemble_all(f: &Fixture, plan: &AssemblyPlan, pool: &ThreadPool) -> (Assembled, AssemblyStats) {
        let n2e = f.mesh.node_to_elements();
        let mut a = CsrMatrix::from_mesh(&f.mesh, &n2e);
        let n = f.mesh.num_nodes();
        let mut rhs = vec![vec![0.0; n]; 3];
        let pressure: Vec<f64> = f.mesh.coords.iter().map(|p| p.x - 2.0 * p.z).collect();
        let (props, dt) = (FluidProps::default(), 1e-4);
        let stats = assemble_momentum(
            pool,
            &f.refs,
            &f.mesh,
            plan,
            &f.velocity,
            &pressure,
            props,
            dt,
            Vec3::new(0.0, 0.0, -9.81),
            &mut a,
            &mut rhs,
        );
        let mut div = vec![0.0; n];
        assemble_divergence(pool, &f.refs, &f.mesh, plan, &f.velocity, props, dt, &mut div);
        let mut grad = vec![0.0; 3 * n];
        assemble_pressure_gradient(pool, &f.refs, &f.mesh, plan, &pressure, &mut grad);
        ((a.values, rhs, div, grad), stats)
    }

    fn assemble_with(f: &Fixture, strategy: AssemblyStrategy) -> (Assembled, AssemblyStats) {
        assemble_all(f, &plan_for(f, strategy, false), &f.pool)
    }

    fn assert_close(what: &str, a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (k, (&x, &y)) in a.iter().zip(b).enumerate() {
            let scale = x.abs().max(y.abs()).max(1.0);
            assert!((x - y).abs() <= tol * scale, "{what}[{k}]: {x} vs {y}");
        }
    }

    /// The headline correctness property. The order-fixed strategies
    /// (`Coloring`, `Multidep`) assemble on four workers the very bits
    /// they assemble on one; across strategies, and for `Atomics` against
    /// anything, sums are regrouped and agree up to rounding.
    #[test]
    fn all_strategies_assemble_identically() {
        let f = fixture();
        let one = ThreadPool::new(1);
        let ((a_ref, rhs_ref, ..), _) = assemble_with(&f, AssemblyStrategy::Serial);
        for strategy in [
            AssemblyStrategy::Atomics,
            AssemblyStrategy::Coloring,
            AssemblyStrategy::Multidep,
        ] {
            let (got, _) = assemble_with(&f, strategy);
            if strategy != AssemblyStrategy::Atomics {
                let (alone, _) = assemble_all(&f, &plan_for(&f, strategy, false), &one);
                assert!(got == alone, "{strategy:?}: four workers moved bits of one");
            }
            assert_close(&format!("{strategy:?} matrix"), &got.0, &a_ref, 1e-9);
            for c in 0..3 {
                assert_close(&format!("{strategy:?} rhs[{c}]"), &got.1[c], &rhs_ref[c], 1e-9);
            }
        }
    }

    /// Momentum matrix and right-hand sides, divergence and pressure
    /// gradient are `==` for 1, 2 and 4 workers under both order-fixed
    /// strategies, on the list-order sweeps and on the kind-batched ones
    /// (the only ones that run the two vector passes in parallel).
    #[test]
    fn order_fixed_strategies_are_bit_identical_for_any_pool() {
        let f = fixture();
        for strategy in [AssemblyStrategy::Coloring, AssemblyStrategy::Multidep] {
            for batched in [false, true] {
                let plan = plan_for(&f, strategy, batched);
                let (want, _) = assemble_all(&f, &plan, &ThreadPool::new(1));
                assert!(want.2.iter().any(|&v| v != 0.0) && want.3.iter().any(|&v| v != 0.0));
                for workers in [2, 4] {
                    let (got, _) = assemble_all(&f, &plan, &ThreadPool::new(workers));
                    assert!(
                        got == want,
                        "{strategy:?} batched={batched}: {workers} workers moved bits"
                    );
                }
            }
        }
    }

    /// The ordered Multidep DAG leaves the pool something to do: its
    /// longest path, weighted by subdomain cost, is at most 0.3 of the
    /// total on the 2- and 4-generation meshes at 16 subdomains (0.19
    /// with three colours; lower-index-first on the k-way numbering,
    /// which follows the airway tree, gives 0.87).
    #[test]
    fn plan_longest_path_is_short() {
        for generations in [2, 4] {
            let spec = AirwaySpec { generations, ..AirwaySpec::small() };
            let mesh = generate_airway(&spec).unwrap().mesh;
            let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
            let plan = AssemblyPlan::new(&mesh, elems, AssemblyStrategy::Multidep, 16);
            let (members, objs) = plan.subdomains.as_ref().unwrap();
            let cost: Vec<f64> = members
                .iter()
                .map(|m| m.iter().map(|&e| mesh.kinds[e as usize].cost_weight()).sum())
                .collect();
            // path[t]: heaviest chain of ordered edges ending in task t.
            // An edge object is listed by its lower end first.
            let mut lower_end = std::collections::BTreeMap::new();
            let mut path = cost.clone();
            for (t, ids) in objs.iter().enumerate() {
                for id in ids {
                    if let Some(&s) = lower_end.get(id) {
                        path[t] = path[t].max(path[s] + cost[t]);
                    } else {
                        lower_end.insert(*id, t);
                    }
                }
            }
            let longest = path.iter().copied().fold(0.0, f64::max);
            let total: f64 = cost.iter().sum();
            assert!(
                longest <= 0.3 * total,
                "{generations} generations: longest path {:.2} of the total",
                longest / total
            );
        }
    }

    #[test]
    fn atomics_counts_every_scatter() {
        let f = fixture();
        let (_, stats) = assemble_with(&f, AssemblyStrategy::Atomics);
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
        let (_, stats) = assemble_with(&f, AssemblyStrategy::Coloring);
        assert!(stats.colors > 1, "hybrid meshes need many colors, got {}", stats.colors);
        assert_eq!(stats.atomic_adds, 0);
    }

    #[test]
    fn multidep_plan_reports_tasks() {
        let f = fixture();
        let (_, stats) = assemble_with(&f, AssemblyStrategy::Multidep);
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

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
//!
//! A strategy decides *who* sums which elements and what orders the
//! units; the sweep inside a unit is always the batch engine's
//! ([`crate::batch`]: same-kind batches, lane blocks, precomputed scatter
//! indices). An [`AssemblyPlan`] therefore carries its
//! [`BatchSchedule`], cut in the [`ElementOrder`] it was built with, and
//! the four `assemble_*` entry points have nothing to choose. The
//! element-at-a-time loops this replaced are the reference the tests
//! hold it to (`crate::oracle::assemble_momentum` and siblings).

use crate::batch::{BatchSchedule, ElementOrder};
use crate::sell::SellStructure;
use cfpd_mesh::{Csr, FaceNeighbors, Mesh};
use cfpd_partition::{decompose_subdomains, greedy_coloring, local_element_graph};
use cfpd_runtime::Dep;

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

/// Element ids per subdomain (colour-numbered) and per-subdomain
/// dependence object lists (one object per adjacency edge).
type Subdomains = (Vec<Vec<u32>>, Vec<Vec<usize>>);

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
    /// Multidep schedule.
    subdomains: Option<Subdomains>,
    /// Grain for the atomics parallel loop.
    grain: usize,
    /// Quadrature-weighted work of `elems` (Tet4 ≡ 1).
    weighted_ops: f64,
    /// What the four `assemble_*` sweeps walk: one batch set per
    /// parallel unit of the strategy, in the plan's element order.
    batches: BatchSchedule,
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

/// Who sums which elements under a strategy — the whole list, colour
/// classes, or ordered subdomains — which does not depend on how the
/// assembled matrices store their values: the half of an
/// [`AssemblyPlan`] that [`AssemblyPlan::schedule`] completes against a
/// [`SellStructure`]. `prepare` builds it while another thread shapes
/// that structure.
#[derive(Debug)]
pub struct AssemblyUnits {
    strategy: AssemblyStrategy,
    elems: Vec<u32>,
    color_classes: Option<Vec<Vec<u32>>>,
    subdomains: Option<Subdomains>,
    weighted_ops: f64,
    /// `mesh.node_to_listed(elems)`, which the scatter pass walks.
    node_elems: Csr,
}

impl AssemblyUnits {
    /// The units of `elems` of `mesh` under `strategy`. `n_subdomains`
    /// controls the Multidep decomposition, cut on the face table `faces`
    /// ([`Mesh::face_neighbors`]; both ignored by the other strategies);
    /// a good default is several times the executor count.
    pub fn new(
        mesh: &Mesh,
        faces: &FaceNeighbors,
        elems: Vec<u32>,
        strategy: AssemblyStrategy,
        n_subdomains: usize,
    ) -> AssemblyUnits {
        let weights: Vec<f64> =
            elems.iter().map(|&e| mesh.kinds[e as usize].cost_weight()).collect();
        let (mut color_classes, mut subdomains, mut node_elems) = (None, None, None);
        match strategy {
            AssemblyStrategy::Serial | AssemblyStrategy::Atomics => {}
            AssemblyStrategy::Coloring => {
                let g = local_element_graph(mesh, &elems, &weights);
                let coloring = greedy_coloring(&g);
                // Map local ids back to global element ids.
                let classes: Vec<Vec<u32>> = coloring
                    .color_classes()
                    .into_iter()
                    .map(|class| class.into_iter().map(|li| elems[li as usize]).collect())
                    .collect();
                debug_assert!(
                    classes.iter().all(|class| shares_no_node(mesh, class)),
                    "two elements of one colour share a node"
                );
                color_classes = Some(classes);
            }
            AssemblyStrategy::Multidep => {
                let n_sub = n_subdomains.max(1).min(elems.len().max(1));
                let d = decompose_subdomains(mesh, faces, &elems, &weights, n_sub);
                let d = d.colour_numbered();
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
                subdomains = Some((d.members, objs));
                node_elems = Some(d.node_elems);
            }
        }
        let node_elems = node_elems.unwrap_or_else(|| mesh.node_to_listed(elems.iter().copied()));
        AssemblyUnits {
            strategy,
            elems,
            color_classes,
            subdomains,
            weighted_ops: weights.iter().sum(),
            node_elems,
        }
    }
}

impl AssemblyPlan {
    /// Build a plan for `elems` of `mesh` under `strategy` (see
    /// [`AssemblyUnits::new`]), its units summed in `order`, scattering
    /// into matrices on `sell`.
    pub fn new(
        mesh: &Mesh,
        faces: &FaceNeighbors,
        elems: Vec<u32>,
        strategy: AssemblyStrategy,
        n_subdomains: usize,
        sell: &SellStructure,
        order: ElementOrder,
    ) -> AssemblyPlan {
        let units = AssemblyUnits::new(mesh, faces, elems, strategy, n_subdomains);
        AssemblyPlan::schedule(units, mesh, sell, order, &mesh.element_sizes())
    }

    /// The plan of `units`, its batches cut in `order`: gather lists,
    /// element lengths (read from `sizes`, [`Mesh::element_sizes`], a
    /// table built once per mesh) and scatter indices into the value
    /// array of a matrix on `sell`.
    pub fn schedule(
        units: AssemblyUnits,
        mesh: &Mesh,
        sell: &SellStructure,
        order: ElementOrder,
        sizes: &[f64],
    ) -> AssemblyPlan {
        let AssemblyUnits {
            strategy, elems, color_classes, subdomains, weighted_ops, node_elems,
        } = units;
        let lists: Vec<&[u32]> = match (&color_classes, &subdomains) {
            (Some(classes), _) => classes.iter().map(Vec::as_slice).collect(),
            (_, Some((members, _))) => members.iter().map(Vec::as_slice).collect(),
            _ => vec![&elems],
        };
        let batches =
            BatchSchedule::build(mesh, sizes, sell, strategy, &elems, &node_elems, &lists, order);
        let grain = 32;
        AssemblyPlan { strategy, color_classes, subdomains, grain, weighted_ops, batches, elems }
    }

    /// Number of colors (0 unless Coloring).
    pub fn num_colors(&self) -> usize {
        self.color_classes.as_ref().map_or(0, |c| c.len())
    }

    /// Number of subdomain tasks (0 unless Multidep).
    pub fn num_subdomains(&self) -> usize {
        self.subdomains.as_ref().map_or(0, |(m, _)| m.len())
    }

    /// The schedule the four `assemble_*` sweeps walk.
    pub fn batch_schedule(&self) -> &BatchSchedule {
        &self.batches
    }

    /// What every sweep of this plan reports before it has run.
    pub(crate) fn stats(&self) -> AssemblyStats {
        AssemblyStats {
            elements: self.elems.len(),
            weighted_ops: self.weighted_ops,
            colors: self.num_colors(),
            tasks: self.num_subdomains(),
            atomic_adds: 0,
        }
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

/// No node of `mesh` belongs to two elements of `class`.
fn shares_no_node(mesh: &Mesh, class: &[u32]) -> bool {
    let mut nodes: Vec<u32> =
        class.iter().flat_map(|&e| mesh.elem_nodes(e as usize)).copied().collect();
    nodes.sort_unstable();
    nodes.windows(2).all(|w| w[0] != w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{
        assemble_divergence, assemble_momentum, assemble_poisson, assemble_pressure_gradient,
    };
    use crate::csr::CsrMatrix;
    use crate::kernels::FluidProps;
    use crate::oracle;
    use crate::sell::SellMatrix;
    use crate::shape::RefElement;
    use cfpd_mesh::{generate_airway, AirwaySpec, ElementKind, Vec3};
    use std::sync::Arc;
    use cfpd_runtime::ThreadPool;
    use cfpd_testkit::prop::{check, usize_range, PropConfig};
    use cfpd_testkit::Rng;

    struct Fixture {
        mesh: Mesh,
        faces: Arc<FaceNeighbors>,
        pattern: CsrMatrix,
        sell: Arc<SellStructure>,
        refs: [RefElement; 3],
        pool: ThreadPool,
        velocity: Vec<Vec3>,
    }

    fn fixture_of(generations: usize) -> Fixture {
        let am = generate_airway(&AirwaySpec { generations, ..AirwaySpec::small() }).unwrap();
        let velocity = am
            .mesh
            .coords
            .iter()
            .map(|p| Vec3::new(p.z * 2.0, p.x, -p.y * 0.5))
            .collect();
        let pattern = CsrMatrix::from_mesh(&am.mesh, &am.mesh.node_to_elements());
        Fixture {
            mesh: am.mesh,
            faces: am.face_neighbors,
            sell: Arc::new(SellStructure::from_csr(&pattern)),
            pattern,
            refs: RefElement::all(),
            pool: ThreadPool::new(4),
            velocity,
        }
    }

    fn fixture() -> Fixture {
        fixture_of(AirwaySpec::small().generations)
    }

    /// Everything the sweeps of one plan add up, one vector each.
    const ASSEMBLED: [&str; 7] = [
        "momentum matrix",
        "momentum rhs x",
        "momentum rhs y",
        "momentum rhs z",
        "Poisson matrix",
        "divergence",
        "pressure gradient",
    ];

    fn all_elems(f: &Fixture) -> Vec<u32> {
        (0..f.mesh.num_elements() as u32).collect()
    }

    fn plan_of(
        f: &Fixture,
        elems: Vec<u32>,
        strategy: AssemblyStrategy,
        order: ElementOrder,
    ) -> AssemblyPlan {
        AssemblyPlan::new(&f.mesh, &f.faces, elems, strategy, 24, &f.sell, order)
    }

    fn plan_for(f: &Fixture, strategy: AssemblyStrategy, order: ElementOrder) -> AssemblyPlan {
        plan_of(f, all_elems(f), strategy, order)
    }

    /// The [`ASSEMBLED`] vectors of `plan` on `pool`, the matrices read
    /// in CSR entry order: through the batch engine, which scatters into
    /// SELL order, or through the element-at-a-time loops it replaced,
    /// which add into CSR matrices.
    fn assemble_all(
        f: &Fixture,
        plan: &AssemblyPlan,
        pool: &ThreadPool,
        through_oracle: bool,
    ) -> (Vec<Vec<f64>>, AssemblyStats) {
        let (mut a, mut l) = (f.pattern.clone(), f.pattern.clone());
        let (mut sell_a, mut sell_l) =
            (SellMatrix::zeros(Arc::clone(&f.sell)), SellMatrix::zeros(Arc::clone(&f.sell)));
        let n = f.mesh.num_nodes();
        let mut rhs = vec![vec![0.0; n]; 3];
        let (mut div, mut grad) = (vec![0.0; n], vec![0.0; 3 * n]);
        let pressure: Vec<f64> = f.mesh.coords.iter().map(|p| p.x - 2.0 * p.z).collect();
        let (props, dt) = (FluidProps::default(), 1e-4);
        let gravity = Vec3::new(0.0, 0.0, -9.81);
        let (refs, mesh, u) = (&f.refs, &f.mesh, &f.velocity[..]);
        let stats = if through_oracle {
            oracle::assemble_poisson(pool, refs, mesh, plan, &mut l);
            oracle::assemble_divergence(pool, refs, mesh, plan, u, props, dt, &mut div);
            oracle::assemble_pressure_gradient(pool, refs, mesh, plan, &pressure, &mut grad);
            oracle::assemble_momentum(
                pool, refs, mesh, plan, u, props, dt, gravity, &mut a, &mut rhs,
            )
        } else {
            assemble_poisson(pool, refs, mesh, plan, &mut sell_l);
            assemble_divergence(pool, refs, mesh, plan, u, props, dt, &mut div);
            assemble_pressure_gradient(pool, refs, mesh, plan, &pressure, &mut grad);
            let stats = assemble_momentum(
                pool, refs, mesh, plan, u, props, dt, gravity, &mut sell_a, &mut rhs,
            );
            (a, l) = (sell_a.to_csr(), sell_l.to_csr());
            stats
        };
        let [x, y, z]: [Vec<f64>; 3] = rhs.try_into().unwrap();
        (vec![a.values, x, y, z, l.values, div, grad], stats)
    }

    fn assemble_with(f: &Fixture, strategy: AssemblyStrategy) -> (Vec<Vec<f64>>, AssemblyStats) {
        assemble_all(f, &plan_for(f, strategy, ElementOrder::List), &f.pool, false)
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
        let serial = plan_for(&f, AssemblyStrategy::Serial, ElementOrder::List);
        let (want, _) = assemble_all(&f, &serial, &one, true);
        for strategy in [
            AssemblyStrategy::Atomics,
            AssemblyStrategy::Coloring,
            AssemblyStrategy::Multidep,
        ] {
            let (got, _) = assemble_with(&f, strategy);
            if strategy != AssemblyStrategy::Atomics {
                let plan = plan_for(&f, strategy, ElementOrder::List);
                let (alone, _) = assemble_all(&f, &plan, &one, false);
                assert!(got == alone, "{strategy:?}: four workers moved bits of one");
            }
            for (what, (g, w)) in ASSEMBLED.iter().zip(got.iter().zip(&want)) {
                assert_close(&format!("{strategy:?} {what}"), g, w, 1e-9);
            }
        }
    }

    /// Every sweep is `==` for 1, 2 and 4 workers under both order-fixed
    /// strategies, in list order and grouped by kind (the order that runs
    /// the two vector passes in parallel).
    #[test]
    fn order_fixed_strategies_are_bit_identical_for_any_pool() {
        let f = fixture();
        for strategy in [AssemblyStrategy::Coloring, AssemblyStrategy::Multidep] {
            for order in [ElementOrder::List, ElementOrder::KindGrouped] {
                let plan = plan_for(&f, strategy, order);
                let (want, _) = assemble_all(&f, &plan, &ThreadPool::new(1), false);
                assert!(want.iter().all(|v| v.iter().any(|&x| x != 0.0)));
                for workers in [2, 4] {
                    let (got, _) = assemble_all(&f, &plan, &ThreadPool::new(workers), false);
                    assert!(got == want, "{strategy:?} {order:?}: {workers} workers moved bits");
                }
            }
        }
    }

    /// Element lists a plan can be handed, all of them sub-lists or
    /// reorderings of the mesh's own: the generator's order, same-kind
    /// runs of 1 … 20 elements, no two neighbours of one kind, every
    /// other element (a rank's share of a round-robin split) and a random
    /// half in random order.
    fn element_list(f: &Fixture, shape: usize, rng: &mut Rng) -> Vec<u32> {
        let all = all_elems(f);
        let of_kind = |kind: ElementKind| -> Vec<u32> {
            all.iter().copied().filter(|&e| f.mesh.kinds[e as usize] == kind).collect()
        };
        let mut kinds = [ElementKind::Tet4, ElementKind::Pyr5, ElementKind::Pri6]
            .map(|k| of_kind(k).into_iter());
        match shape {
            0 => all,
            1 => {
                let mut list = Vec::new();
                while list.len() < all.len() {
                    let run = rng.range_usize(1, 21);
                    list.extend(kinds[rng.range_usize(0, 3)].by_ref().take(run));
                }
                list
            }
            2 => {
                let shortest = kinds.iter().map(|k| k.len()).min().unwrap();
                assert!(shortest > 0, "the airway has all three kinds");
                (0..3 * shortest).map(|i| kinds[i % 3].next().unwrap()).collect()
            }
            3 => {
                let parity = rng.range_usize(0, 2) as u32;
                all.into_iter().filter(|e| e % 2 == parity).collect()
            }
            _ => {
                let mut list = all;
                rng.shuffle(&mut list);
                list.truncate(list.len() / 2);
                list
            }
        }
    }

    /// What the reference layout rests on: a plan in list order adds up,
    /// through lane blocks and scalar tails, the very bits of the
    /// element-at-a-time loops it replaced — every sweep, every order-fixed
    /// strategy, any worker count, whatever the list looks like. `Atomics`
    /// regroups and agrees to rounding.
    #[test]
    fn list_order_batches_sum_the_bits_of_the_element_loops() {
        let fixtures = [fixture_of(1), fixture_of(2)];
        let pools = [1, 2, 4].map(ThreadPool::new);
        let gen = (usize_range(0, 2), usize_range(0, 5), usize_range(0, 1 << 16));
        check(
            "list_order_batches_sum_the_bits_of_the_element_loops",
            PropConfig::cases(10),
            &gen,
            |&(mesh, shape, seed)| {
                let f = &fixtures[mesh];
                let list = element_list(f, shape, &mut Rng::new(seed as u64));
                for strategy in AssemblyStrategy::ALL {
                    let plan = plan_of(f, list.clone(), strategy, ElementOrder::List);
                    let (want, _) = assemble_all(f, &plan, &pools[0], true);
                    assert!(want.iter().all(|v| v.iter().any(|&x| x != 0.0)));
                    for pool in &pools {
                        let (got, _) = assemble_all(f, &plan, pool, false);
                        for (what, (g, w)) in ASSEMBLED.iter().zip(got.iter().zip(&want)) {
                            if strategy == AssemblyStrategy::Atomics {
                                assert_close(what, g, w, 1e-9);
                            } else {
                                let workers = pool.max_workers();
                                assert!(g == w, "{strategy:?}, {workers} workers: {what} moved");
                            }
                        }
                    }
                }
            },
        );
    }

    /// Why colour classes may stay grouped by kind on the reference
    /// layout: no two elements of a class share a node, so a class adds
    /// into every entry at most once and any in-class order sums the
    /// same bits.
    #[test]
    fn a_colour_class_sums_the_same_bits_in_either_order() {
        let f = fixture();
        let coloring = plan_for(&f, AssemblyStrategy::Coloring, ElementOrder::List);
        let one = ThreadPool::new(1);
        let mut mixed = 0;
        for class in coloring.color_classes().unwrap() {
            assert!(shares_no_node(&f.mesh, class));
            let sums = |order| {
                let plan = plan_of(&f, class.clone(), AssemblyStrategy::Serial, order);
                assemble_all(&f, &plan, &one, false).0
            };
            assert!(sums(ElementOrder::List) == sums(ElementOrder::KindGrouped));
            let kind = |e: &u32| f.mesh.kinds[*e as usize].num_nodes();
            mixed += class.windows(2).any(|w| kind(&w[0]) > kind(&w[1])) as usize;
        }
        assert!(mixed > 0, "no class whose two orders differ: the test compares nothing");
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
            let airway = generate_airway(&spec).unwrap();
            let (mesh, faces) = (&airway.mesh, &airway.face_neighbors);
            let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
            let pattern = CsrMatrix::from_mesh(mesh, &mesh.node_to_elements());
            let sell = SellStructure::from_csr(&pattern);
            let (strategy, order) = (AssemblyStrategy::Multidep, ElementOrder::List);
            let plan = AssemblyPlan::new(mesh, faces, elems, strategy, 16, &sell, order);
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
        let weights: f64 = f.mesh.kinds.iter().map(|k| k.cost_weight()).sum();
        assert_eq!((stats.elements, stats.weighted_ops), (f.mesh.num_elements(), weights));
    }

    /// Plan builds hash nothing, so two builds of one mesh in one
    /// process (where `RandomState` would differ) are equal, and every
    /// mutex object links exactly the two ends of one adjacency edge.
    #[test]
    fn plan_builds_are_reproducible() {
        let f = fixture();
        let elems: Vec<u32> = (0..f.mesh.num_elements() as u32).collect();
        let plan = |strategy| {
            let order = ElementOrder::List;
            AssemblyPlan::new(&f.mesh, &f.faces, elems.clone(), strategy, 16, &f.sell, order)
        };
        let multidep = || plan(AssemblyStrategy::Multidep);
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

        let coloring = || plan(AssemblyStrategy::Coloring);
        assert_eq!(coloring().color_classes, coloring().color_classes);
    }

    #[test]
    fn poisson_matrix_is_symmetric() {
        let f = fixture();
        let plan = plan_for(&f, AssemblyStrategy::Multidep, ElementOrder::List);
        let mut sell = SellMatrix::zeros(Arc::clone(&f.sell));
        assemble_poisson(&f.pool, &f.refs, &f.mesh, &plan, &mut sell);
        let a = sell.to_csr();
        for row in 0..a.n {
            let lo = a.row_ptr[row] as usize;
            let hi = a.row_ptr[row + 1] as usize;
            for k in lo..hi {
                let col = a.col_idx[k] as usize;
                let tr = a.values[a.entry_index(col, row)];
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
        let half: Vec<u32> = (0..(f.mesh.num_elements() / 2) as u32).collect();
        let touched: std::collections::HashSet<u32> = half
            .iter()
            .flat_map(|&e| f.mesh.elem_nodes(e as usize).iter().copied())
            .collect();
        let plan = plan_of(&f, half, AssemblyStrategy::Coloring, ElementOrder::List);
        let (sums, _) = assemble_all(&f, &plan, &f.pool, false);
        for node in 0..f.mesh.num_nodes() as u32 {
            if !touched.contains(&node) {
                assert_eq!(sums[1][node as usize], 0.0, "untouched node {node} has rhs");
            }
        }
    }
}

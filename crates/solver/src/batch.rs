//! Kind-batched SoA assembly: the element loops of the fast layout
//! ([`crate::layout`]), run by the `assemble_*` entry points of
//! [`crate::assembly`] whenever the plan carries a [`BatchSchedule`].
//!
//! The unbatched assembly loop dispatches on `ElementKind` per element
//! and binary-searches the CSR pattern for every scatter-add. Batching
//! groups each parallel unit's elements by kind into contiguous batches
//! with three precomputed SoA side arrays:
//!
//! * `gather`  — `nn × len` node ids (the gather list),
//! * `scatter` — `nn² × len` flat CSR value indices (no pattern search
//!   in the hot loop),
//! * `h`       — cached characteristic element lengths (no per-element
//!   volume computation in the hot loop).
//!
//! Inside a batch every full block of [`LANES`] elements goes through
//! the lane kernels ([`crate::lanes`]) and the tail through kernels
//! monomorphized over the node count
//! ([`crate::kernels::momentum_kernel_n`]), so the inner loops have
//! compile-time trip counts and no per-element branch. The
//! floating-point sequence per element is identical to the dynamic
//! kernels — local matrices are bit-identical; only the order elements
//! are visited (grouped by kind) differs, which regroups the sums of
//! shared rows: the one thing the fast layout's own golden pins and the
//! strategy-equivalence tolerance covers.

use crate::assembly::{AssemblyPlan, AssemblyStats, AssemblyStrategy};
use crate::csr::{AtomicView, CsrMatrix, DisjointView};
use crate::kernels::{
    divergence_kernel_n, momentum_kernel_n, poisson_kernel_n, pressure_gradient_kernel_n,
    ElementScratch, FluidProps, LocalMomentum, LocalPoisson,
};
use crate::lanes::{
    divergence_kernel_lanes, momentum_kernel_lanes, poisson_kernel_lanes,
    pressure_gradient_kernel_lanes, LaneScratch, LANES,
};
use crate::shape::RefElement;
use cfpd_mesh::{ElementKind, Mesh, Vec3};
use cfpd_runtime::{parallel_for, TaskGraph, ThreadPool};
use std::ops::Range;
use std::sync::atomic::Ordering;

/// One contiguous same-kind batch of elements with its SoA side arrays.
#[derive(Debug, Clone)]
pub struct KindBatch {
    pub kind: ElementKind,
    /// Global element ids, in the original unit order.
    pub elems: Vec<u32>,
    /// Flattened gather list: element `b` reads nodes
    /// `gather[b*nn .. (b+1)*nn]`.
    pub gather: Vec<u32>,
    /// Flattened scatter list: element `b`'s (i,j) entry adds into CSR
    /// value index `scatter[b*nn*nn + i*nn + j]`.
    pub scatter: Vec<u32>,
    /// Characteristic element length `|V|^(1/3)` per element.
    pub h: Vec<f64>,
}

impl KindBatch {
    /// Nodes per element of this batch.
    #[inline]
    pub fn nn(&self) -> usize {
        self.kind.num_nodes()
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }
}

/// The batches of one parallel unit (full list, color class, or
/// subdomain), grouped by kind in `Tet4 → Pyr5 → Pri6` order.
#[derive(Debug, Clone, Default)]
pub struct BatchSet {
    pub batches: Vec<KindBatch>,
}

impl BatchSet {
    /// Group `elems` by kind (stable: original relative order kept
    /// within each batch) and precompute gather/scatter/h.
    pub fn build(mesh: &Mesh, pattern: &CsrMatrix, elems: &[u32]) -> BatchSet {
        let mut batches = Vec::new();
        for kind in [ElementKind::Tet4, ElementKind::Pyr5, ElementKind::Pri6] {
            let members: Vec<u32> = elems
                .iter()
                .copied()
                .filter(|&e| mesh.kinds[e as usize] == kind)
                .collect();
            if members.is_empty() {
                continue;
            }
            let nn = kind.num_nodes();
            let mut gather = Vec::with_capacity(nn * members.len());
            let mut scatter = Vec::with_capacity(nn * nn * members.len());
            let mut h = Vec::with_capacity(members.len());
            for &e in &members {
                let nodes = mesh.elem_nodes(e as usize);
                debug_assert_eq!(nodes.len(), nn);
                gather.extend_from_slice(nodes);
                for i in 0..nn {
                    for j in 0..nn {
                        scatter.push(
                            pattern.entry_index(nodes[i] as usize, nodes[j] as usize) as u32,
                        );
                    }
                }
                h.push(mesh.volume(e as usize).abs().cbrt());
            }
            batches.push(KindBatch { kind, elems: members, gather, scatter, h });
        }
        BatchSet { batches }
    }

    /// Total elements across all batches.
    pub fn num_elements(&self) -> usize {
        self.batches.iter().map(KindBatch::len).sum()
    }
}

/// Batched schedule of a plan: one [`BatchSet`] per parallel unit of
/// the strategy (Serial/Atomics: one; Coloring: per class; Multidep:
/// per subdomain).
#[derive(Debug, Clone, Default)]
pub struct BatchSchedule {
    pub units: Vec<BatchSet>,
}

/// Scatter discipline of one batched assembly (atomic vs. plain adds
/// under the strategy's no-conflict guarantee).
trait ScatterSink: Sync {
    fn add_matrix(&self, idx: usize, v: f64);
    fn add_rhs(&self, c: usize, node: usize, v: f64);
}

struct AtomicSink<'a> {
    matrix: AtomicView<'a>,
    rhs: Vec<AtomicView<'a>>,
}

impl ScatterSink for AtomicSink<'_> {
    #[inline]
    fn add_matrix(&self, idx: usize, v: f64) {
        self.matrix.add_at(idx, v);
    }
    #[inline]
    fn add_rhs(&self, c: usize, node: usize, v: f64) {
        self.rhs[c].add_at(node, v);
    }
}

struct DisjointSink<'a> {
    matrix: DisjointView<'a>,
    rhs: Vec<DisjointView<'a>>,
}

impl ScatterSink for DisjointSink<'_> {
    #[inline]
    fn add_matrix(&self, idx: usize, v: f64) {
        // SAFETY: the strategy schedule (serial order, color classes,
        // or ordered subdomain tasks) guarantees no concurrent access
        // to this entry — same contract as the unbatched path.
        unsafe { self.matrix.add_at(idx, v) };
    }
    #[inline]
    fn add_rhs(&self, c: usize, node: usize, v: f64) {
        // SAFETY: as above (the row is a node of the current element).
        unsafe { self.rhs[c].add_at(node, v) };
    }
}

/// What one batched sweep computes per element; implemented by the
/// momentum, Poisson, divergence and pressure-gradient contexts. Both
/// methods scatter through `sink` in element order, so a lane block
/// lands its adds in the same sequence as the scalar loop.
trait BatchCtx: Sync {
    /// Right-hand-side vectors the sweep scatters into.
    const RHS_DIM: usize;
    /// Element `b` of `batch` with the monomorphized scalar kernel.
    fn run_one<const NN: usize, S: ScatterSink>(
        &self,
        batch: &KindBatch,
        b: usize,
        scratch: &mut ElementScratch,
        sink: &S,
    );
    /// Elements `b..b + LANES` of `batch` with the lane kernel.
    fn run_lanes<const NN: usize, S: ScatterSink>(
        &self,
        batch: &KindBatch,
        b: usize,
        ls: &mut LaneScratch,
        sink: &S,
    );
}

fn run_n<C: BatchCtx, const NN: usize, S: ScatterSink>(
    ctx: &C,
    batch: &KindBatch,
    range: Range<usize>,
    scratch: &mut ElementScratch,
    sink: &S,
) {
    let mut b = range.start;
    let mut ls = LaneScratch::default();
    while b + LANES <= range.end {
        ctx.run_lanes::<NN, S>(batch, b, &mut ls, sink);
        b += LANES;
    }
    for bb in b..range.end {
        ctx.run_one::<NN, S>(batch, bb, scratch, sink);
    }
}

/// Process `range` of `batch` with kernels monomorphized over its kind.
fn run_batch<C: BatchCtx, S: ScatterSink>(
    ctx: &C,
    batch: &KindBatch,
    range: Range<usize>,
    scratch: &mut ElementScratch,
    sink: &S,
) {
    match batch.kind {
        ElementKind::Tet4 => run_n::<C, 4, S>(ctx, batch, range, scratch, sink),
        ElementKind::Pyr5 => run_n::<C, 5, S>(ctx, batch, range, scratch, sink),
        ElementKind::Pri6 => run_n::<C, 6, S>(ctx, batch, range, scratch, sink),
    }
}

struct MomentumCtx<'a> {
    refs: &'a [RefElement; 3],
    coords: &'a [Vec3],
    velocity: &'a [Vec3],
    pressure: &'a [f64],
    props: FluidProps,
    dt: f64,
    body_force: Vec3,
}

impl BatchCtx for MomentumCtx<'_> {
    const RHS_DIM: usize = 3;

    fn run_one<const NN: usize, S: ScatterSink>(
        &self,
        batch: &KindBatch,
        b: usize,
        scratch: &mut ElementScratch,
        sink: &S,
    ) {
        let re = &self.refs[RefElement::index_of(batch.kind)];
        let nodes = &batch.gather[b * NN..(b + 1) * NN];
        scratch.load_gather_with_pressure(self.coords, self.velocity, self.pressure, nodes);
        let lm: LocalMomentum =
            momentum_kernel_n::<NN>(re, scratch, self.props, self.dt, batch.h[b], self.body_force)
                .expect("degenerate element");
        let sc = &batch.scatter[b * NN * NN..(b + 1) * NN * NN];
        for i in 0..NN {
            for j in 0..NN {
                sink.add_matrix(sc[i * NN + j] as usize, lm.a[i][j]);
            }
            let gi = nodes[i] as usize;
            for c in 0..3 {
                sink.add_rhs(c, gi, lm.b[i][c]);
            }
        }
    }

    fn run_lanes<const NN: usize, S: ScatterSink>(
        &self,
        batch: &KindBatch,
        b: usize,
        ls: &mut LaneScratch,
        sink: &S,
    ) {
        let re = &self.refs[RefElement::index_of(batch.kind)];
        ls.load(
            self.coords,
            Some(self.velocity),
            Some(self.pressure),
            &batch.gather,
            &batch.h,
            NN,
            b,
        );
        let lm = momentum_kernel_lanes::<NN>(re, ls, self.props, self.dt, self.body_force)
            .expect("degenerate element");
        for l in 0..LANES {
            let bb = b + l;
            let nodes = &batch.gather[bb * NN..(bb + 1) * NN];
            let sc = &batch.scatter[bb * NN * NN..(bb + 1) * NN * NN];
            for i in 0..NN {
                for j in 0..NN {
                    sink.add_matrix(sc[i * NN + j] as usize, lm.a[i][j][l]);
                }
                let gi = nodes[i] as usize;
                for c in 0..3 {
                    sink.add_rhs(c, gi, lm.b[i][c][l]);
                }
            }
        }
    }
}

struct PoissonCtx<'a> {
    refs: &'a [RefElement; 3],
    coords: &'a [Vec3],
}

impl BatchCtx for PoissonCtx<'_> {
    const RHS_DIM: usize = 0;

    fn run_one<const NN: usize, S: ScatterSink>(
        &self,
        batch: &KindBatch,
        b: usize,
        scratch: &mut ElementScratch,
        sink: &S,
    ) {
        let re = &self.refs[RefElement::index_of(batch.kind)];
        scratch.load_gather_coords(self.coords, &batch.gather[b * NN..(b + 1) * NN]);
        let lp: LocalPoisson = poisson_kernel_n::<NN>(re, scratch).expect("degenerate element");
        let sc = &batch.scatter[b * NN * NN..(b + 1) * NN * NN];
        for i in 0..NN {
            for j in 0..NN {
                sink.add_matrix(sc[i * NN + j] as usize, lp.l[i][j]);
            }
        }
    }

    fn run_lanes<const NN: usize, S: ScatterSink>(
        &self,
        batch: &KindBatch,
        b: usize,
        ls: &mut LaneScratch,
        sink: &S,
    ) {
        let re = &self.refs[RefElement::index_of(batch.kind)];
        ls.load(self.coords, None, None, &batch.gather, &batch.h, NN, b);
        let lp = poisson_kernel_lanes::<NN>(re, ls).expect("degenerate element");
        for l in 0..LANES {
            let sc = &batch.scatter[(b + l) * NN * NN..(b + l + 1) * NN * NN];
            for i in 0..NN {
                for j in 0..NN {
                    sink.add_matrix(sc[i * NN + j] as usize, lp.l[i][j][l]);
                }
            }
        }
    }
}

/// The Poisson right-hand side `(ρ/dt) ∫ ∇N_i · u`, one vector.
struct DivergenceCtx<'a> {
    refs: &'a [RefElement; 3],
    coords: &'a [Vec3],
    velocity: &'a [Vec3],
    props: FluidProps,
    dt: f64,
}

impl BatchCtx for DivergenceCtx<'_> {
    const RHS_DIM: usize = 1;

    fn run_one<const NN: usize, S: ScatterSink>(
        &self,
        batch: &KindBatch,
        b: usize,
        scratch: &mut ElementScratch,
        sink: &S,
    ) {
        let re = &self.refs[RefElement::index_of(batch.kind)];
        let nodes = &batch.gather[b * NN..(b + 1) * NN];
        scratch.load_gather(self.coords, self.velocity, nodes);
        let div = divergence_kernel_n::<NN>(re, scratch, self.props, self.dt)
            .expect("degenerate element");
        for i in 0..NN {
            sink.add_rhs(0, nodes[i] as usize, div[i]);
        }
    }

    fn run_lanes<const NN: usize, S: ScatterSink>(
        &self,
        batch: &KindBatch,
        b: usize,
        ls: &mut LaneScratch,
        sink: &S,
    ) {
        let re = &self.refs[RefElement::index_of(batch.kind)];
        ls.load(self.coords, Some(self.velocity), None, &batch.gather, &batch.h, NN, b);
        let div = divergence_kernel_lanes::<NN>(re, ls, self.props, self.dt)
            .expect("degenerate element");
        for l in 0..LANES {
            let nodes = &batch.gather[(b + l) * NN..(b + l + 1) * NN];
            for i in 0..NN {
                sink.add_rhs(0, nodes[i] as usize, div[i][l]);
            }
        }
    }
}

/// The weak nodal pressure gradient `∫ N_i ∇p`, scattered into one
/// vector with component `c` of node `i` at `3 i + c`.
struct PressureGradientCtx<'a> {
    refs: &'a [RefElement; 3],
    coords: &'a [Vec3],
    pressure: &'a [f64],
}

impl BatchCtx for PressureGradientCtx<'_> {
    const RHS_DIM: usize = 1;

    fn run_one<const NN: usize, S: ScatterSink>(
        &self,
        batch: &KindBatch,
        b: usize,
        scratch: &mut ElementScratch,
        sink: &S,
    ) {
        let re = &self.refs[RefElement::index_of(batch.kind)];
        let nodes = &batch.gather[b * NN..(b + 1) * NN];
        scratch.load_gather_coords(self.coords, nodes);
        for (k, &v) in nodes.iter().enumerate() {
            scratch.pres[k] = self.pressure[v as usize];
        }
        let g = pressure_gradient_kernel_n::<NN>(re, scratch).expect("degenerate element");
        for i in 0..NN {
            for c in 0..3 {
                sink.add_rhs(0, 3 * nodes[i] as usize + c, g[i][c]);
            }
        }
    }

    fn run_lanes<const NN: usize, S: ScatterSink>(
        &self,
        batch: &KindBatch,
        b: usize,
        ls: &mut LaneScratch,
        sink: &S,
    ) {
        let re = &self.refs[RefElement::index_of(batch.kind)];
        ls.load(self.coords, None, Some(self.pressure), &batch.gather, &batch.h, NN, b);
        let g = pressure_gradient_kernel_lanes::<NN>(re, ls).expect("degenerate element");
        for l in 0..LANES {
            let nodes = &batch.gather[(b + l) * NN..(b + l + 1) * NN];
            for i in 0..NN {
                for c in 0..3 {
                    sink.add_rhs(0, 3 * nodes[i] as usize + c, g[i][c][l]);
                }
            }
        }
    }
}

/// Run a whole batch set serially through `sink` (one task / one color
/// worker / the serial strategy).
fn run_set<C: BatchCtx, S: ScatterSink>(
    ctx: &C,
    set: &BatchSet,
    scratch: &mut ElementScratch,
    sink: &S,
) {
    for batch in &set.batches {
        run_batch(ctx, batch, 0..batch.len(), scratch, sink);
    }
}

/// Strategy-dispatched batched sweep (the counterpart of the unbatched
/// `assemble_generic`, operating on the plan's [`BatchSchedule`]) adding
/// into the matrix `values` (empty for a right-hand-side-only context)
/// and the `C::RHS_DIM` vectors of `rhs`.
fn assemble_batched<C: BatchCtx, R: AsMut<[f64]>>(
    pool: &ThreadPool,
    mesh: &Mesh,
    plan: &AssemblyPlan,
    ctx: &C,
    values: &mut [f64],
    rhs: &mut [R],
) -> AssemblyStats {
    assert_eq!(rhs.len(), C::RHS_DIM);
    let sched = plan.batch_schedule().expect("the assemble_* entry points checked");
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

    match plan.strategy {
        AssemblyStrategy::Serial => {
            let sink = DisjointSink {
                matrix: DisjointView::from_slice(values),
                rhs: rhs.iter_mut().map(|r| DisjointView::from_slice(r.as_mut())).collect(),
            };
            let mut scratch = ElementScratch::default();
            for set in &sched.units {
                run_set(ctx, set, &mut scratch, &sink);
            }
        }
        AssemblyStrategy::Atomics => {
            let sink = AtomicSink {
                matrix: AtomicView::from_slice(values),
                rhs: rhs.iter_mut().map(|r| AtomicView::from_slice(r.as_mut())).collect(),
            };
            for set in &sched.units {
                for batch in &set.batches {
                    parallel_for(pool, 0..batch.len(), plan.atomics_grain(), |range| {
                        let mut scratch = ElementScratch::default();
                        run_batch(ctx, batch, range, &mut scratch, &sink);
                    });
                }
            }
            stats.atomic_adds = sink.matrix.atomic_ops.load(Ordering::Relaxed)
                + sink
                    .rhs
                    .iter()
                    .map(|r| r.atomic_ops.load(Ordering::Relaxed))
                    .sum::<usize>();
        }
        AssemblyStrategy::Coloring => {
            let sink = DisjointSink {
                matrix: DisjointView::from_slice(values),
                rhs: rhs.iter_mut().map(|r| DisjointView::from_slice(r.as_mut())).collect(),
            };
            // One unit per color class; classes stay barriers.
            for set in &sched.units {
                for batch in &set.batches {
                    parallel_for(pool, 0..batch.len(), plan.atomics_grain(), |range| {
                        let mut scratch = ElementScratch::default();
                        run_batch(ctx, batch, range, &mut scratch, &sink);
                    });
                }
            }
        }
        AssemblyStrategy::Multidep => {
            let sink = DisjointSink {
                matrix: DisjointView::from_slice(values),
                rhs: rhs.iter_mut().map(|r| DisjointView::from_slice(r.as_mut())).collect(),
            };
            let mut graph = TaskGraph::new();
            for (s, set) in sched.units.iter().enumerate() {
                let sink = &sink;
                graph.add_task(&plan.ordered_deps(s), move || {
                    let mut scratch = ElementScratch::default();
                    run_set(ctx, set, &mut scratch, sink);
                });
            }
            graph.execute(pool);
        }
    }
    stats
}

/// The batched schedule of [`crate::assembly::assemble_momentum`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn momentum_batched(
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
    let ctx =
        MomentumCtx { refs, coords: &mesh.coords, velocity, pressure, props, dt, body_force };
    assemble_batched(pool, mesh, plan, &ctx, &mut matrix.values, rhs)
}

/// The batched schedule of [`crate::assembly::assemble_poisson`].
pub(crate) fn poisson_batched(
    pool: &ThreadPool,
    refs: &[RefElement; 3],
    mesh: &Mesh,
    plan: &AssemblyPlan,
    matrix: &mut CsrMatrix,
) -> AssemblyStats {
    let ctx = PoissonCtx { refs, coords: &mesh.coords };
    assemble_batched::<_, Vec<f64>>(pool, mesh, plan, &ctx, &mut matrix.values, &mut [])
}

/// The batched schedule of [`crate::assembly::assemble_divergence`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn divergence_batched(
    pool: &ThreadPool,
    refs: &[RefElement; 3],
    mesh: &Mesh,
    plan: &AssemblyPlan,
    velocity: &[Vec3],
    props: FluidProps,
    dt: f64,
    rhs: &mut [f64],
) {
    let ctx = DivergenceCtx { refs, coords: &mesh.coords, velocity, props, dt };
    assemble_batched(pool, mesh, plan, &ctx, &mut [], &mut [rhs]);
}

/// The batched schedule of
/// [`crate::assembly::assemble_pressure_gradient`].
pub(crate) fn pressure_gradient_batched(
    pool: &ThreadPool,
    refs: &[RefElement; 3],
    mesh: &Mesh,
    plan: &AssemblyPlan,
    pressure: &[f64],
    grad: &mut [f64],
) {
    let ctx = PressureGradientCtx { refs, coords: &mesh.coords, pressure };
    assemble_batched(pool, mesh, plan, &ctx, &mut [], &mut [grad]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::assemble_momentum;
    use cfpd_mesh::{generate_airway, AirwaySpec};

    #[test]
    fn batch_sets_partition_the_element_list() {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let mesh = &am.mesh;
        let n2e = mesh.node_to_elements();
        let pattern = CsrMatrix::from_mesh(mesh, &n2e);
        let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
        let set = BatchSet::build(mesh, &pattern, &elems);
        assert_eq!(set.num_elements(), elems.len());
        let mut seen: Vec<u32> = set.batches.iter().flat_map(|b| b.elems.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, elems);
        for batch in &set.batches {
            assert_eq!(batch.gather.len(), batch.nn() * batch.len());
            assert_eq!(batch.scatter.len(), batch.nn() * batch.nn() * batch.len());
            assert_eq!(batch.h.len(), batch.len());
            assert!(batch.elems.iter().all(|&e| mesh.kinds[e as usize] == batch.kind));
        }
    }

    #[test]
    fn batched_momentum_matches_unbatched_serial() {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let mesh = &am.mesh;
        let n2e = mesh.node_to_elements();
        let template = CsrMatrix::from_mesh(mesh, &n2e);
        let refs = RefElement::all();
        let pool = ThreadPool::new(4);
        let velocity: Vec<Vec3> =
            mesh.coords.iter().map(|p| Vec3::new(p.z, -p.x, p.y * 0.5)).collect();
        let zero_p = vec![0.0; mesh.num_nodes()];
        let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();

        let assemble = |batched: bool, strategy: AssemblyStrategy| {
            let plan = if batched {
                AssemblyPlan::with_batches(mesh, elems.clone(), strategy, 16, &template)
            } else {
                AssemblyPlan::new(mesh, elems.clone(), strategy, 16)
            };
            let mut a = template.clone();
            let mut rhs = vec![vec![0.0; mesh.num_nodes()]; 3];
            assemble_momentum(
                &pool,
                &refs,
                mesh,
                &plan,
                &velocity,
                &zero_p,
                FluidProps::default(),
                1e-4,
                Vec3::new(0.0, 0.0, -9.81),
                &mut a,
                &mut rhs,
            );
            (a, rhs)
        };

        let (a_ref, rhs_ref) = assemble(false, AssemblyStrategy::Serial);
        for strategy in AssemblyStrategy::ALL {
            let (a, rhs) = assemble(true, strategy);
            for (k, (x, y)) in a.values.iter().zip(&a_ref.values).enumerate() {
                let scale = x.abs().max(y.abs()).max(1.0);
                assert!((x - y).abs() <= 1e-9 * scale, "{strategy:?} entry {k}: {x} vs {y}");
            }
            for c in 0..3 {
                for (i, (x, y)) in rhs[c].iter().zip(&rhs_ref[c]).enumerate() {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    assert!((x - y).abs() <= 1e-9 * scale, "{strategy:?} rhs[{c}][{i}]");
                }
            }
        }
    }

    /// The plan's batches swept in order with the scalar kernel alone:
    /// what [`run_n`] would do if no block ever went through the lanes.
    fn scalar_sweep<C: BatchCtx>(ctx: &C, plan: &AssemblyPlan, values: &mut [f64], rhs: &mut [Vec<f64>]) {
        let sink = DisjointSink {
            matrix: DisjointView::from_slice(values),
            rhs: rhs.iter_mut().map(|r| DisjointView::from_slice(r)).collect(),
        };
        let mut scratch = ElementScratch::default();
        for batch in plan.batch_schedule().unwrap().units.iter().flat_map(|set| &set.batches) {
            for b in 0..batch.len() {
                match batch.kind {
                    ElementKind::Tet4 => ctx.run_one::<4, _>(batch, b, &mut scratch, &sink),
                    ElementKind::Pyr5 => ctx.run_one::<5, _>(batch, b, &mut scratch, &sink),
                    ElementKind::Pri6 => ctx.run_one::<6, _>(batch, b, &mut scratch, &sink),
                }
            }
        }
    }

    /// Serial batched assembly — lane blocks and scalar tails — must be
    /// *bit-identical* to the same batches through the scalar kernel
    /// alone: same per-element bits (lane-kernel property tests)
    /// scattered in the same order.
    #[test]
    fn lane_batched_assembly_bit_identical_to_scalar_batched() {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let mesh = &am.mesh;
        let n2e = mesh.node_to_elements();
        let template = CsrMatrix::from_mesh(mesh, &n2e);
        let refs = RefElement::all();
        let pool = ThreadPool::new(2);
        let velocity: Vec<Vec3> =
            mesh.coords.iter().map(|p| Vec3::new(p.z, -p.x, p.y * 0.5)).collect();
        let pressure: Vec<f64> = mesh.coords.iter().map(|p| p.x * 3.0 - p.y).collect();
        let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
        let plan = AssemblyPlan::with_batches(mesh, elems, AssemblyStrategy::Serial, 16, &template);
        let (n, nnz, props) = (mesh.num_nodes(), template.nnz(), FluidProps::default());
        let coords = &mesh.coords[..];

        /// Both sweeps of one context; `rhs_len` entries per vector.
        fn check<C: BatchCtx>(
            what: &str,
            ctx: &C,
            (pool, mesh, plan): (&ThreadPool, &Mesh, &AssemblyPlan),
            nnz: usize,
            rhs_len: usize,
        ) {
            let fresh = || (vec![0.0; nnz], vec![vec![0.0; rhs_len]; C::RHS_DIM]);
            let (mut a_lanes, mut rhs_lanes) = fresh();
            assemble_batched(pool, mesh, plan, ctx, &mut a_lanes, &mut rhs_lanes);
            let (mut a_scalar, mut rhs_scalar) = fresh();
            scalar_sweep(ctx, plan, &mut a_scalar, &mut rhs_scalar);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a_lanes), bits(&a_scalar), "{what}: matrix");
            for (c, (l, s)) in rhs_lanes.iter().zip(&rhs_scalar).enumerate() {
                assert_eq!(bits(l), bits(s), "{what}: rhs {c}");
            }
            assert!(a_lanes.iter().chain(rhs_lanes.iter().flatten()).any(|v| *v != 0.0), "{what}");
        }

        let on = (&pool, mesh, &plan);
        let body_force = Vec3::new(0.0, 0.0, -9.81);
        let velocity = &velocity[..];
        let pressure = &pressure[..];
        let momentum =
            MomentumCtx { refs: &refs, coords, velocity, pressure, props, dt: 1e-4, body_force };
        check("momentum", &momentum, on, nnz, n);
        check("poisson", &PoissonCtx { refs: &refs, coords }, on, nnz, n);
        let divergence = DivergenceCtx { refs: &refs, coords, velocity, props, dt: 1e-4 };
        check("divergence", &divergence, on, 0, n);
        check("pressure gradient", &PressureGradientCtx { refs: &refs, coords, pressure }, on, 0, 3 * n);
    }

    /// The batched right-hand-side passes add the same per-element
    /// values as the serial element loops, in a different order.
    #[test]
    fn batched_rhs_passes_match_the_serial_loops() {
        use crate::assembly::{assemble_divergence, assemble_pressure_gradient};
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let mesh = &am.mesh;
        let n2e = mesh.node_to_elements();
        let template = CsrMatrix::from_mesh(mesh, &n2e);
        let refs = RefElement::all();
        let pool = ThreadPool::new(4);
        let velocity: Vec<Vec3> =
            mesh.coords.iter().map(|p| Vec3::new(p.z, -p.x, p.y * 0.5)).collect();
        let pressure: Vec<f64> = mesh.coords.iter().map(|p| p.x * 3.0 - p.y).collect();
        let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
        let props = FluidProps::default();
        let run = |plan: &AssemblyPlan| {
            let mut rhs = vec![0.0; mesh.num_nodes()];
            assemble_divergence(&pool, &refs, mesh, plan, &velocity, props, 1e-4, &mut rhs);
            let mut grad = vec![0.0; 3 * mesh.num_nodes()];
            assemble_pressure_gradient(&pool, &refs, mesh, plan, &pressure, &mut grad);
            (rhs, grad)
        };
        let (rhs_ref, grad_ref) =
            run(&AssemblyPlan::new(mesh, elems.clone(), AssemblyStrategy::Serial, 16));
        let close = |x: f64, y: f64, scale: f64| (x - y).abs() <= 1e-10 * scale;
        let rhs_scale = rhs_ref.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let grad_scale = grad_ref.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for strategy in AssemblyStrategy::ALL {
            let plan = AssemblyPlan::with_batches(mesh, elems.clone(), strategy, 16, &template);
            let (rhs, grad) = run(&plan);
            for (i, (x, y)) in rhs.iter().zip(&rhs_ref).enumerate() {
                assert!(close(*x, *y, rhs_scale), "{strategy:?} rhs[{i}]: {x} vs {y}");
            }
            for (i, (x, y)) in grad.iter().zip(&grad_ref).enumerate() {
                assert!(close(*x, *y, grad_scale), "{strategy:?} grad[{i}]: {x} vs {y}");
            }
        }
    }
}

//! The one assembly engine: every element sweep of a run — momentum,
//! Poisson, divergence, pressure gradient, under any strategy and on
//! either layout — walks a [`BatchSchedule`] of same-kind batches.
//!
//! Each parallel unit of the strategy (the whole list, a colour class, a
//! subdomain) is a [`BatchSet`]: its elements in sweep order, cut into
//! maximal same-kind runs, with three precomputed SoA side arrays shared
//! by all runs of the set:
//!
//! * `gather`  — `nn` node ids per element (the gather list),
//! * `scatter` — `nn²` value indices per element into the matrix's one
//!   value array, in its SELL-C-σ order ([`crate::sell`]), so the solves
//!   sweep what assembly wrote (no pattern search in the hot loop, no
//!   second copy of the matrix),
//! * `h`       — cached characteristic element lengths (no per-element
//!   volume computation in the hot loop).
//!
//! Inside a run every full block of [`LANES`] elements goes through the
//! lane kernels ([`crate::lanes`]) and the tail through kernels
//! monomorphized over the node count
//! ([`crate::kernels::momentum_kernel_n`]), so the inner loops have
//! compile-time trip counts and no per-element branch. Per element the
//! floating-point sequence is that of the dynamically dispatched scalar
//! kernels ([`crate::oracle`]) — local matrices are bit-identical — and a
//! lane block scatters its eight elements one after the other, so a set
//! adds into every shared row in exactly its sweep order.
//!
//! That order is the only thing a layout chooses ([`ElementOrder`]): the
//! unit's list order (the generator lists elements in same-kind runs that
//! are multiples of eight, so 97–100 % of an airway still go eight
//! abreast) or grouped by kind. Batching itself moves no bit; grouping
//! regroups the sums of shared rows, which is why each order has its own
//! golden.

use crate::assembly::{AssemblyPlan, AssemblyStats, AssemblyStrategy};
use crate::kernels::{
    divergence_kernel_n, lumped_mass_kernel, momentum_kernel_n, poisson_kernel_n,
    pressure_gradient_kernel_n, ElementScratch, FluidProps, LocalMomentum, LocalPoisson,
};
use crate::lanes::{
    divergence_kernel_lanes, lumped_mass_kernel_lanes, momentum_kernel_lanes,
    poisson_kernel_lanes, pressure_gradient_kernel_lanes, LaneScratch, LANES,
};
use crate::sell::{SellMatrix, SellStructure};
use crate::shape::RefElement;
use crate::shared::{AtomicView, SharedOut};
use cfpd_mesh::{Csr, ElementKind, Mesh, Vec3};
use cfpd_runtime::{parallel_for, TaskGraph, ThreadPool};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The order in which a plan sums the elements of each strategy unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementOrder {
    /// The unit's list order, and the two right-hand-side sweeps walk the
    /// plan's whole element list on the caller's thread whatever the
    /// strategy: what `tests/golden/sync_small.golden` pins.
    List,
    /// Grouped by kind (`Tet4 → Pyr5 → Pri6`, list order within a kind),
    /// all four sweeps on the strategy's units: what
    /// `tests/golden/sync_small_opt.golden` pins.
    KindGrouped,
}

/// One maximal same-kind run of a [`BatchSet`]: a view into the set's
/// arenas.
#[derive(Debug, Clone, Copy)]
pub struct KindBatch<'a> {
    pub kind: ElementKind,
    /// Global element ids, in sweep order.
    pub elems: &'a [u32],
    /// Flattened gather list: element `b` reads nodes
    /// `gather[b*nn .. (b+1)*nn]`.
    pub gather: &'a [u32],
    /// Flattened scatter list: element `b`'s (i,j) entry adds into SELL
    /// value index `scatter[b*nn*nn + i*nn + j]`. Empty in a set built
    /// without a pattern (right-hand-side sweeps only).
    pub scatter: &'a [u32],
    /// Characteristic element length `|V|^(1/3)` per element.
    pub h: &'a [f64],
}

impl KindBatch<'_> {
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

/// Where one same-kind run starts in its set's arenas.
#[derive(Debug, Clone, Copy)]
struct KindRun {
    kind: ElementKind,
    /// Index of the run's first element in `elems` / `h`, and how many.
    first: usize,
    len: usize,
    gather_at: usize,
    scatter_at: usize,
}

/// The elements of one parallel unit (full list, colour class, or
/// subdomain) in sweep order, cut into maximal same-kind runs over one
/// gather / scatter / `h` arena (a five-generation airway in list order
/// has 2 287 runs of ≈ 20 elements: one allocation per array, not per
/// run).
#[derive(Debug, Clone, Default)]
pub struct BatchSet {
    elems: Vec<u32>,
    gather: Vec<u32>,
    scatter: Vec<u32>,
    h: Vec<f64>,
    runs: Vec<KindRun>,
}

impl BatchSet {
    /// Put `elems` in `order` and lay out the set: its runs, its gather
    /// list, `h` read from `sizes` ([`Mesh::element_sizes`]) and — when
    /// the set is to scatter into a matrix — `nn²` zeroed value indices
    /// per element, which [`fill_scatter`] writes. One batch per
    /// maximal same-kind run: any number in list order, at most three when
    /// grouped by kind.
    pub(crate) fn cut(
        mesh: &Mesh,
        sizes: &[f64],
        list: &[u32],
        order: ElementOrder,
        scatter: bool,
    ) -> Self {
        let mut set = BatchSet { elems: list.to_vec(), ..Default::default() };
        if order == ElementOrder::KindGrouped {
            // Stable: list order survives within a kind.
            set.elems.sort_by_key(|&e| RefElement::index_of(mesh.kinds[e as usize]));
        }
        set.gather.reserve_exact(list.iter().map(|&e| mesh.kinds[e as usize].num_nodes()).sum());
        set.h.reserve_exact(list.len());
        let mut scatter_len = 0;
        for (at, &e) in set.elems.iter().enumerate() {
            let (e, kind) = (e as usize, mesh.kinds[e as usize]);
            if set.runs.last().is_none_or(|run| run.kind != kind) {
                set.runs.push(KindRun {
                    kind,
                    first: at,
                    len: 0,
                    gather_at: set.gather.len(),
                    scatter_at: scatter_len,
                });
            }
            set.runs.last_mut().expect("pushed above").len += 1;
            set.gather.extend_from_slice(mesh.elem_nodes(e));
            set.h.push(sizes[e]);
            scatter_len += usize::from(scatter) * kind.num_nodes().pow(2);
        }
        set.scatter = vec![0; scatter_len];
        set
    }

    /// The set's same-kind batches, in sweep order.
    pub fn batches(&self) -> impl Iterator<Item = KindBatch<'_>> {
        self.runs.iter().map(|run| {
            let (nn, elems) = (run.kind.num_nodes(), run.first..run.first + run.len);
            // A set built without a pattern has no scatter list at all.
            let scatter_len = if self.scatter.is_empty() { 0 } else { run.len * nn * nn };
            KindBatch {
                kind: run.kind,
                elems: &self.elems[elems.clone()],
                gather: &self.gather[run.gather_at..run.gather_at + run.len * nn],
                scatter: &self.scatter[run.scatter_at..run.scatter_at + scatter_len],
                h: &self.h[elems],
            }
        })
    }

    /// Total elements across all batches.
    pub fn num_elements(&self) -> usize {
        self.elems.len()
    }
}

/// Batched schedule of a plan: one [`BatchSet`] per parallel unit of
/// the strategy (Serial/Atomics: one; Coloring: per class; Multidep:
/// per subdomain), in the plan's [`ElementOrder`].
#[derive(Debug, Clone)]
pub struct BatchSchedule {
    pub units: Vec<BatchSet>,
    /// In list order under a strategy whose units are not the whole list:
    /// the plan's elements as one set (gather and `h`, no scatter
    /// indices), which the two right-hand-side sweeps walk on the
    /// caller's thread. `None` when they run on `units`.
    rhs_list: Option<BatchSet>,
}

impl BatchSchedule {
    /// The schedule of a plan over `elems` whose strategy sweeps
    /// `unit_lists`, scattering into matrices on `sell` (the momentum and
    /// Poisson matrices of a mesh share one structure, so one schedule
    /// serves both systems). `sizes` is [`Mesh::element_sizes`] and
    /// `node_elems` is `mesh.node_to_listed(elems)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build(
        mesh: &Mesh,
        sizes: &[f64],
        sell: &SellStructure,
        strategy: AssemblyStrategy,
        elems: &[u32],
        node_elems: &Csr,
        unit_lists: &[&[u32]],
        order: ElementOrder,
    ) -> BatchSchedule {
        // Same-colour elements share no node (`AssemblyPlan::new` checks),
        // so a colour class adds into every entry at most once and sums
        // the same bits in any in-class order; `Atomics` promises no
        // order. Both stay kind-grouped: three parallel regions per unit,
        // not one per 20-element run.
        let unit_order = match strategy {
            AssemblyStrategy::Atomics | AssemblyStrategy::Coloring => ElementOrder::KindGrouped,
            AssemblyStrategy::Serial | AssemblyStrategy::Multidep => order,
        };
        let cut = |list: &&[u32]| BatchSet::cut(mesh, sizes, list, unit_order, true);
        let mut units: Vec<BatchSet> = unit_lists.iter().map(cut).collect();
        fill_scatter(mesh, sell, elems, node_elems, &mut units);
        // The serial strategy's one unit already is the whole list.
        let rhs_list = (order == ElementOrder::List && strategy != AssemblyStrategy::Serial)
            .then(|| BatchSet::cut(mesh, sizes, elems, ElementOrder::List, false));
        BatchSchedule { units, rhs_list }
    }
}

/// Write the scatter indices of `sets`, which together hold each element
/// of `elems` once, in one pass over the rows of `sell` of the nodes those
/// elements touch (`node_elems` is `mesh.node_to_listed(elems)`): a row's
/// value indices are stamped into a node-indexed scratch by column, and
/// every element incident to the row copies its row of `nn` indices from
/// there — no search of the pattern per index.
fn fill_scatter(
    mesh: &Mesh,
    sell: &SellStructure,
    elems: &[u32],
    node_elems: &Csr,
    sets: &mut [BatchSet],
) {
    // Element → its set and where its `nn²` slots start in that set's arena.
    let mut slots = vec![(0u32, 0u32); mesh.num_elements()];
    for (s, set) in sets.iter().enumerate() {
        for run in &set.runs {
            let nn2 = run.kind.num_nodes().pow(2);
            for (b, &e) in set.elems[run.first..run.first + run.len].iter().enumerate() {
                slots[e as usize] = (s as u32, (run.scatter_at + b * nn2) as u32);
            }
        }
    }
    let mut at_col = vec![0u32; mesh.num_nodes()];
    for row in 0..node_elems.len() {
        let incident = node_elems.row(row);
        if incident.is_empty() {
            continue;
        }
        for (p, col) in sell.row_entries(row) {
            at_col[col as usize] = p as u32;
        }
        for &l in incident {
            let e = elems[l as usize] as usize;
            let (nodes, (s, first)) = (mesh.elem_nodes(e), slots[e]);
            let nn = nodes.len();
            let block = &mut sets[s as usize].scatter[first as usize..][..nn * nn];
            for (li, out) in block.chunks_exact_mut(nn).enumerate() {
                if nodes[li] as usize != row {
                    continue;
                }
                for (slot, &v) in out.iter_mut().zip(nodes) {
                    *slot = at_col[v as usize];
                    debug_assert!(
                        sell.position(row, v as usize) == Some(*slot as usize),
                        "({row},{v}) unlisted"
                    );
                }
            }
        }
    }
}

/// Strategy and units of a plan's momentum and Poisson sweeps.
fn matrix_sweep(plan: &AssemblyPlan) -> (AssemblyStrategy, &[BatchSet]) {
    (plan.strategy, &plan.batch_schedule().units)
}

/// Strategy and units of a plan's divergence and pressure-gradient sweeps.
fn rhs_sweep(plan: &AssemblyPlan) -> (AssemblyStrategy, &[BatchSet]) {
    match &plan.batch_schedule().rhs_list {
        Some(set) => (AssemblyStrategy::Serial, std::slice::from_ref(set)),
        None => matrix_sweep(plan),
    }
}

/// Scatter discipline of one batched assembly (atomic vs. plain adds
/// under the strategy's no-conflict guarantee).
trait ScatterSink: Sync {
    fn add_matrix(&self, idx: usize, v: f64);
    fn add_rhs(&self, c: usize, node: usize, v: f64);
}

struct AtomicSink<'a> {
    matrix: AtomicView<'a>,
    rhs: [AtomicView<'a>; 3],
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
    matrix: SharedOut<'a, f64>,
    rhs: [SharedOut<'a, f64>; 3],
}

impl<'a> DisjointSink<'a> {
    fn over<R: AsMut<[f64]>>(values: &'a mut [f64], rhs: &'a mut [R]) -> Self {
        DisjointSink {
            matrix: SharedOut::new(values),
            rhs: rhs_views(rhs, SharedOut::new),
        }
    }
}

impl ScatterSink for DisjointSink<'_> {
    #[inline]
    fn add_matrix(&self, idx: usize, v: f64) {
        // The strategy schedule (serial order, color classes, or ordered
        // subdomain tasks) keeps every other writer off this entry.
        self.matrix.add(idx, v);
    }
    #[inline]
    fn add_rhs(&self, c: usize, node: usize, v: f64) {
        self.rhs[c].add(node, v);
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

/// Kernel inputs of one executor, reused from batch to batch.
#[derive(Default)]
struct Scratch {
    one: ElementScratch,
    lanes: LaneScratch,
}

/// Full lane blocks of `range`, then its tail one element at a time;
/// returns how many elements went through the lane kernel.
fn run_n<C: BatchCtx, const NN: usize, S: ScatterSink>(
    ctx: &C,
    batch: &KindBatch,
    range: Range<usize>,
    scratch: &mut Scratch,
    sink: &S,
) -> usize {
    let mut b = range.start;
    while b + LANES <= range.end {
        ctx.run_lanes::<NN, S>(batch, b, &mut scratch.lanes, sink);
        b += LANES;
    }
    for bb in b..range.end {
        ctx.run_one::<NN, S>(batch, bb, &mut scratch.one, sink);
    }
    b - range.start
}

/// Process `range` of `batch` with kernels monomorphized over its kind;
/// returns [`run_n`]'s count.
fn run_batch<C: BatchCtx, S: ScatterSink>(
    ctx: &C,
    batch: &KindBatch,
    range: Range<usize>,
    scratch: &mut Scratch,
    sink: &S,
) -> usize {
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
        scratch.load_gather(self.coords, self.velocity, nodes);
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
        ls.load(self.coords, Some(self.velocity), None, batch.gather, batch.h, NN, b);
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
        ls.load(self.coords, None, None, batch.gather, batch.h, NN, b);
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
        ls.load(self.coords, Some(self.velocity), None, batch.gather, batch.h, NN, b);
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
        ls.load(self.coords, None, Some(self.pressure), batch.gather, batch.h, NN, b);
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

/// The lumped (row-sum) mass `∫ N_i`, one vector. A degenerate element
/// adds nothing, and a lane block holding one is redone element by
/// element.
struct LumpedMassCtx<'a> {
    refs: &'a [RefElement; 3],
    coords: &'a [Vec3],
}

impl BatchCtx for LumpedMassCtx<'_> {
    const RHS_DIM: usize = 1;

    fn run_one<const NN: usize, S: ScatterSink>(
        &self,
        batch: &KindBatch,
        b: usize,
        scratch: &mut ElementScratch,
        sink: &S,
    ) {
        let nodes = &batch.gather[b * NN..(b + 1) * NN];
        scratch.load_gather_coords(self.coords, nodes);
        if let Some(lm) = lumped_mass_kernel(self.refs, scratch, batch.kind, NN) {
            (0..NN).for_each(|i| sink.add_rhs(0, nodes[i] as usize, lm[i]));
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
        ls.load(self.coords, None, None, batch.gather, batch.h, NN, b);
        let Some(lm) = lumped_mass_kernel_lanes::<NN>(re, ls) else {
            let mut one = ElementScratch::default();
            return (b..b + LANES).for_each(|bb| self.run_one::<NN, S>(batch, bb, &mut one, sink));
        };
        for l in 0..LANES {
            let nodes = &batch.gather[(b + l) * NN..(b + l + 1) * NN];
            (0..NN).for_each(|i| sink.add_rhs(0, nodes[i] as usize, lm[i][l]));
        }
    }
}

/// The lumped mass of every node of `mesh` (`sizes` is
/// [`Mesh::element_sizes`]): its elements in list order, lane blocks and
/// scalar tails, each node summing its terms in element order. The mesh's
/// own arrays are the batches: a same-kind run's stretch of `conn` is its
/// gather list.
pub fn lumped_mass(refs: &[RefElement; 3], mesh: &Mesh, sizes: &[f64]) -> Vec<f64> {
    let all: Vec<u32> = (0..mesh.num_elements() as u32).collect();
    let mut mass = vec![0.0; mesh.num_nodes()];
    let (ctx, mut scratch, mut rhs) =
        (LumpedMassCtx { refs, coords: &mesh.coords }, Scratch::default(), [&mut mass]);
    let sink = DisjointSink::over(&mut [], &mut rhs);
    for run in all.chunk_by(|&a, &b| mesh.kinds[a as usize] == mesh.kinds[b as usize]) {
        let (first, end) = (run[0] as usize, run[run.len() - 1] as usize + 1);
        let gather = &mesh.conn[mesh.offsets[first] as usize..mesh.offsets[end] as usize];
        let (kind, h) = (mesh.kinds[first], &sizes[first..end]);
        let batch = KindBatch { kind, elems: run, gather, scatter: &[], h };
        run_batch(&ctx, &batch, 0..run.len(), &mut scratch, &sink);
    }
    mass
}

/// Run a whole batch set on the calling thread (one task, or the serial
/// strategy); returns how many of its elements went through lane blocks.
fn run_set<C: BatchCtx, S: ScatterSink>(ctx: &C, set: &BatchSet, sink: &S) -> usize {
    let mut scratch = Scratch::default();
    set.batches().map(|batch| run_batch(ctx, &batch, 0..batch.len(), &mut scratch, sink)).sum()
}

/// One view per right-hand-side slot of a sink; the slots a context does
/// not scatter into view nothing.
fn rhs_views<'a, R: AsMut<[f64]>, V>(
    rhs: &'a mut [R],
    view: impl Fn(&'a mut [f64]) -> V,
) -> [V; 3] {
    let mut rhs = rhs.iter_mut();
    std::array::from_fn(|_| view(rhs.next().map_or(&mut [], |r| r.as_mut())))
}

/// The strategy-dispatched element sweep behind the four `assemble_*`
/// entry points: adds `ctx`'s element contributions over `units` (the
/// plan's [`matrix_sweep`] or [`rhs_sweep`]) into the matrix `values`
/// (SELL order; empty for a right-hand-side-only context) and the
/// `C::RHS_DIM` vectors of `rhs`.
fn sweep<C: BatchCtx, R: AsMut<[f64]>>(
    pool: &ThreadPool,
    plan: &AssemblyPlan,
    (strategy, units): (AssemblyStrategy, &[BatchSet]),
    ctx: &C,
    values: &mut [f64],
    rhs: &mut [R],
) -> AssemblyStats {
    assert_eq!(rhs.len(), C::RHS_DIM);
    let mut stats = plan.stats();
    // Elements that went eight abreast, summed once per task or chunk.
    let lanes = AtomicUsize::new(0);

    match strategy {
        AssemblyStrategy::Serial => {
            let sink = DisjointSink::over(values, rhs);
            lanes.store(units.iter().map(|set| run_set(ctx, set, &sink)).sum(), Ordering::Relaxed);
        }
        AssemblyStrategy::Atomics => {
            let sink = AtomicSink {
                matrix: AtomicView::new(values),
                rhs: rhs_views(rhs, AtomicView::new),
            };
            run_chunked(pool, plan, units, ctx, &sink, &lanes);
            stats.atomic_adds = sink.matrix.atomic_ops.load(Ordering::Relaxed)
                + sink
                    .rhs
                    .iter()
                    .map(|r| r.atomic_ops.load(Ordering::Relaxed))
                    .sum::<usize>();
        }
        // One unit per color class; classes stay barriers.
        AssemblyStrategy::Coloring => {
            run_chunked(pool, plan, units, ctx, &DisjointSink::over(values, rhs), &lanes)
        }
        AssemblyStrategy::Multidep => {
            let sink = DisjointSink::over(values, rhs);
            let mut graph = TaskGraph::new();
            for (s, set) in units.iter().enumerate() {
                let (sink, lanes) = (&sink, &lanes);
                graph.add_task(&plan.ordered_deps(s), move || {
                    lanes.fetch_add(run_set(ctx, set, sink), Ordering::Relaxed);
                });
            }
            graph.execute(pool);
        }
    }
    let swept: usize = units.iter().map(BatchSet::num_elements).sum();
    let lanes = lanes.into_inner();
    cfpd_telemetry::count!("solver.lane_elements", lanes as u64);
    cfpd_telemetry::count!("solver.tail_elements", (swept - lanes) as u64);
    stats
}

/// Every batch of every unit as one parallel loop over its elements
/// (the Atomics and Coloring strategies).
fn run_chunked<C: BatchCtx, S: ScatterSink>(
    pool: &ThreadPool,
    plan: &AssemblyPlan,
    units: &[BatchSet],
    ctx: &C,
    sink: &S,
    lanes: &AtomicUsize,
) {
    for batch in units.iter().flat_map(BatchSet::batches) {
        parallel_for(pool, 0..batch.len(), plan.atomics_grain(), |range| {
            let mut scratch = Scratch::default();
            lanes.fetch_add(run_batch(ctx, &batch, range, &mut scratch, sink), Ordering::Relaxed);
        });
    }
}

fn count_assembly(plan: &AssemblyPlan) {
    cfpd_telemetry::count!("solver.assemblies");
    cfpd_telemetry::count!("solver.assembly_elements", plan.elems.len() as u64);
}

/// Assemble the momentum system (matrix + 3-component RHS) over
/// `plan.elems`, on the plan's strategy units in the plan's order.
/// `matrix` is on the [`SellStructure`] the plan was built against.
#[allow(clippy::too_many_arguments)]
pub fn assemble_momentum(
    pool: &ThreadPool,
    refs: &[RefElement; 3],
    mesh: &Mesh,
    plan: &AssemblyPlan,
    velocity: &[Vec3],
    props: FluidProps,
    dt: f64,
    body_force: Vec3,
    matrix: &mut SellMatrix,
    rhs: &mut [Vec<f64>],
) -> AssemblyStats {
    count_assembly(plan);
    let ctx = MomentumCtx { refs, coords: &mesh.coords, velocity, props, dt, body_force };
    sweep(pool, plan, matrix_sweep(plan), &ctx, matrix.values_mut(), rhs)
}

/// Assemble the pressure-Poisson matrix (the Laplacian; its right-hand
/// side is [`assemble_divergence`]'s), scheduled like
/// [`assemble_momentum`].
pub fn assemble_poisson(
    pool: &ThreadPool,
    refs: &[RefElement; 3],
    mesh: &Mesh,
    plan: &AssemblyPlan,
    matrix: &mut SellMatrix,
) -> AssemblyStats {
    count_assembly(plan);
    let ctx = PoissonCtx { refs, coords: &mesh.coords };
    sweep::<_, Vec<f64>>(pool, plan, matrix_sweep(plan), &ctx, matrix.values_mut(), &mut [])
}

/// Add the weak divergence right-hand side of the pressure-Poisson
/// system, `(ρ/dt) ∫ ∇N_i · u`, of `plan.elems` into `rhs`: on the
/// strategy's units when the plan groups by kind, over the whole list on
/// the caller's thread when it sums in list order ([`ElementOrder`]).
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
    let ctx = DivergenceCtx { refs, coords: &mesh.coords, velocity, props, dt };
    sweep(pool, plan, rhs_sweep(plan), &ctx, &mut [], &mut [rhs]);
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
    let ctx = PressureGradientCtx { refs, coords: &mesh.coords, pressure };
    sweep(pool, plan, rhs_sweep(plan), &ctx, &mut [], &mut [grad]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::AssemblyUnits;
    use crate::csr::CsrMatrix;
    use crate::oracle;
    use cfpd_mesh::{generate_airway, AirwaySpec, FaceNeighbors};
    use cfpd_testkit::Rng;
    use std::sync::Arc;

    /// Either order cuts the list into maximal same-kind runs whose side
    /// arrays are what the mesh says, element by element, with room for
    /// `nn²` scatter indices per element when asked.
    #[test]
    fn batch_sets_partition_the_element_list() {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let mesh = &am.mesh;
        let sizes = mesh.element_sizes();
        let elems: Vec<u32> = (0..mesh.num_elements() as u32).rev().collect();
        let mut grouped = elems.clone();
        grouped.sort_by_key(|&e| mesh.kinds[e as usize].num_nodes());
        for (order, want) in [(ElementOrder::List, &elems), (ElementOrder::KindGrouped, &grouped)] {
            for scatter in [true, false] {
                let set = BatchSet::cut(mesh, &sizes, &elems, order, scatter);
                let batches: Vec<KindBatch> = set.batches().collect();
                assert_eq!(batches.iter().map(KindBatch::len).sum::<usize>(), elems.len());
                assert!(batches.windows(2).all(|w| w[0].kind != w[1].kind), "runs are maximal");
                if order == ElementOrder::KindGrouped {
                    assert_eq!(batches.len(), 3);
                } else {
                    assert!(batches.len() > 3);
                }
                let mut at = 0;
                for batch in &batches {
                    assert!(!batch.is_empty());
                    assert_eq!(batch.elems, &want[at..at + batch.len()]);
                    at += batch.len();
                    let nn = batch.nn();
                    for (b, &e) in batch.elems.iter().enumerate() {
                        let nodes = mesh.elem_nodes(e as usize);
                        assert_eq!(mesh.kinds[e as usize], batch.kind);
                        assert_eq!(&batch.gather[b * nn..(b + 1) * nn], nodes);
                        assert_eq!(batch.h[b], mesh.volume(e as usize).abs().cbrt());
                    }
                    assert_eq!(batch.scatter.len(), usize::from(scatter) * nn * nn * batch.len());
                }
            }
        }
    }

    /// The one pass over the rows writes, for every element of every
    /// unit, the value index a search of the CSR pattern finds, taken
    /// through the slot map to its SELL position: under
    /// all four strategies, in either order, on 2 and 4 generations, over
    /// the whole mesh and over a rank's half of it. The shared size table
    /// is `|V|^(1/3)` bit for bit.
    #[test]
    fn one_pass_scatter_equals_the_pattern_search() {
        for generations in [2, 4] {
            let spec = AirwaySpec { generations, ..AirwaySpec::small() };
            let airway = generate_airway(&spec).unwrap();
            let (mesh, faces) = (&airway.mesh, &airway.face_neighbors);
            let sizes = mesh.element_sizes();
            for (e, h) in sizes.iter().enumerate() {
                assert_eq!(h.to_bits(), mesh.volume(e).abs().cbrt().to_bits(), "element {e}");
            }
            let pattern = CsrMatrix::from_mesh(mesh, &mesh.node_to_elements());
            let sell = SellStructure::from_csr(&pattern);
            let slot_of: Vec<usize> = sell.csr_order().collect();
            let all: Vec<u32> = (0..mesh.num_elements() as u32).collect();
            for elems in [&all[..], &all[all.len() / 2..]] {
                for (strategy, order) in AssemblyStrategy::ALL
                    .into_iter()
                    .flat_map(|s| [(s, ElementOrder::List), (s, ElementOrder::KindGrouped)])
                {
                    let list = elems.to_vec();
                    let units = AssemblyUnits::new(mesh, faces, list, strategy, 16);
                    let plan = AssemblyPlan::schedule(units, mesh, &sell, order, &sizes);
                    let mut swept = 0;
                    for batch in plan.batch_schedule().units.iter().flat_map(BatchSet::batches) {
                        let nn = batch.nn();
                        for (b, &e) in batch.elems.iter().enumerate() {
                            let nodes = mesh.elem_nodes(e as usize);
                            let sc = &batch.scatter[b * nn * nn..(b + 1) * nn * nn];
                            for (k, &idx) in sc.iter().enumerate() {
                                let (i, j) = (nodes[k / nn] as usize, nodes[k % nn] as usize);
                                let want = slot_of[pattern.entry_index(i, j)];
                                assert_eq!(idx as usize, want, "{strategy:?} {order:?}");
                            }
                        }
                        swept += batch.len();
                    }
                    assert_eq!(swept, elems.len(), "{strategy:?} {order:?}");
                }
            }
        }
    }

    /// Aim 4's number, from the schedule itself: the generator lists
    /// elements in same-kind runs of multiples of eight, so cut into 16
    /// subdomains the golden mesh and the benchmark's 4- and 5-generation
    /// airways still go ≥ 97 % eight abreast in list order — and a plan
    /// counts what its sweeps will report.
    #[test]
    fn list_order_keeps_the_airway_in_lane_blocks() {
        for generations in [2, 4, 5] {
            let spec = AirwaySpec { generations, ..AirwaySpec::small() };
            let airway = generate_airway(&spec).unwrap();
            let (mesh, faces) = (&airway.mesh, &airway.face_neighbors);
            let pattern = CsrMatrix::from_mesh(mesh, &mesh.node_to_elements());
            let sell = SellStructure::from_csr(&pattern);
            let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
            let (sizes, list) = (mesh.element_sizes(), ElementOrder::List);
            let whole = BatchSet::cut(mesh, &sizes, &elems, list, false);
            let whole_blocks = whole.batches().all(|b| b.len() % LANES == 0);
            assert!(whole_blocks, "generator runs are whole blocks at {generations}");
            let strategy = AssemblyStrategy::Multidep;
            let plan = AssemblyPlan::new(mesh, faces, elems, strategy, 16, &sell, list);
            let units = &plan.batch_schedule().units;
            let in_lanes: usize =
                units.iter().flat_map(BatchSet::batches).map(|b| b.len() / LANES * LANES).sum();
            let share = in_lanes as f64 / mesh.num_elements() as f64;
            assert!(share >= 0.97, "{share:.3} in full lane blocks at {generations} generations");
        }
    }

    /// The lane lumped mass is the scalar element loop's, bit for bit: on
    /// the airway (all three kinds, in runs of whole lane blocks) and on
    /// its elements relisted in runs of one to eleven, followed by a
    /// pyramid and a tet run whose first lane block holds a degenerate tet
    /// (two equal nodes).
    #[test]
    fn lane_lumped_mass_equals_the_scalar_loop() {
        let refs = RefElement::all();
        let scalar = |mesh: &Mesh| {
            let (mut scratch, mut mass) = (ElementScratch::default(), vec![0.0; mesh.num_nodes()]);
            for e in 0..mesh.num_elements() {
                let (kind, nn) = scratch.load_coords(mesh, e);
                if let Some(lm) = lumped_mass_kernel(&refs, &scratch, kind, nn) {
                    for (k, &v) in mesh.elem_nodes(e).iter().enumerate() {
                        mass[v as usize] += lm[k];
                    }
                }
            }
            mass
        };
        let airway = generate_airway(&AirwaySpec::small()).unwrap().mesh;
        let listed = &airway.kinds;
        let of_kind = |kind| (0..listed.len()).filter(move |&e| listed[e] == kind);
        let kinds = [ElementKind::Tet4, ElementKind::Pyr5, ElementKind::Pri6];
        let mut by_kind = kinds.map(|kind| of_kind(kind).collect::<Vec<_>>());
        let (mut list, mut run) = (Vec::new(), 0);
        while by_kind.iter().any(|k| !k.is_empty()) {
            for kind in &mut by_kind {
                run = run % 11 + 1;
                list.extend(kind.drain(..run.min(kind.len())));
            }
        }
        list.push(of_kind(ElementKind::Pyr5).next().unwrap());
        let tets: Vec<usize> = of_kind(ElementKind::Tet4).take(10).collect();
        let mut relisted = Mesh { offsets: vec![0], conn: Vec::new(), kinds: Vec::new(), ..airway.clone() };
        for (at, &e) in list.iter().chain(&tets).enumerate() {
            let mut nodes = airway.elem_nodes(e).to_vec();
            if at == list.len() + 3 {
                nodes[1] = nodes[0];
            }
            relisted.kinds.push(airway.kinds[e]);
            relisted.conn.extend(nodes);
            relisted.offsets.push(relisted.conn.len() as u32);
        }
        let ne = relisted.num_elements();
        let mut degenerate = ElementScratch::default();
        degenerate.load_coords(&relisted, ne - 7);
        assert!(lumped_mass_kernel(&refs, &degenerate, ElementKind::Tet4, 4).is_none());
        let all: Vec<u32> = (0..ne as u32).collect();
        let set = BatchSet::cut(&relisted, &relisted.element_sizes(), &all, ElementOrder::List, false);
        assert!(set.batches().any(|b| b.len() < LANES), "some runs are shorter than a block");
        for mesh in [&airway, &relisted] {
            let bits = |mass: Vec<f64>| mass.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(lumped_mass(&refs, mesh, &mesh.element_sizes())), bits(scalar(mesh)));
        }
    }

    struct Fixture {
        mesh: Mesh,
        faces: Arc<FaceNeighbors>,
        template: CsrMatrix,
        sell: Arc<SellStructure>,
        velocity: Vec<Vec3>,
        pressure: Vec<f64>,
    }

    fn fixture() -> Fixture {
        let airway = generate_airway(&AirwaySpec::small()).unwrap();
        let (mesh, faces) = (airway.mesh, airway.face_neighbors);
        let template = CsrMatrix::from_mesh(&mesh, &mesh.node_to_elements());
        let velocity = mesh.coords.iter().map(|p| Vec3::new(p.z, -p.x, p.y * 0.5)).collect();
        let pressure = mesh.coords.iter().map(|p| p.x * 3.0 - p.y).collect();
        let sell = Arc::new(SellStructure::from_csr(&template));
        Fixture { mesh, faces, template, sell, velocity, pressure }
    }

    fn plan(f: &Fixture, strategy: AssemblyStrategy, order: ElementOrder) -> AssemblyPlan {
        let elems: Vec<u32> = (0..f.mesh.num_elements() as u32).collect();
        AssemblyPlan::new(&f.mesh, &f.faces, elems, strategy, 16, &f.sell, order)
    }

    /// Grouped by kind, every strategy sums what the serial element loop
    /// sums, regrouped.
    #[test]
    fn batched_momentum_matches_unbatched_serial() {
        let f = fixture();
        let (refs, pool) = (RefElement::all(), ThreadPool::new(4));
        let (props, dt, gravity) = (FluidProps::default(), 1e-4, Vec3::new(0.0, 0.0, -9.81));
        let fresh_rhs = || vec![vec![0.0; f.mesh.num_nodes()]; 3];
        let (mesh, u) = (&f.mesh, &f.velocity[..]);
        let assemble = |strategy, order, through_oracle: bool| {
            let plan = plan(&f, strategy, order);
            let mut rhs = fresh_rhs();
            if through_oracle {
                let mut a = f.template.clone();
                oracle::assemble_momentum(
                    &pool, &refs, mesh, &plan, u, props, dt, gravity, &mut a, &mut rhs,
                );
                return (a, rhs);
            }
            let mut a = SellMatrix::zeros(Arc::clone(&f.sell));
            assemble_momentum(&pool, &refs, mesh, &plan, u, props, dt, gravity, &mut a, &mut rhs);
            (a.to_csr(), rhs)
        };

        let (a_ref, rhs_ref) = assemble(AssemblyStrategy::Serial, ElementOrder::List, true);
        for strategy in AssemblyStrategy::ALL {
            let (a, rhs) = assemble(strategy, ElementOrder::KindGrouped, false);
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
    fn scalar_sweep<C: BatchCtx>(
        ctx: &C,
        plan: &AssemblyPlan,
        values: &mut [f64],
        rhs: &mut [Vec<f64>],
    ) {
        let sink = DisjointSink::over(values, rhs);
        let mut scratch = ElementScratch::default();
        for batch in plan.batch_schedule().units.iter().flat_map(BatchSet::batches) {
            for b in 0..batch.len() {
                match batch.kind {
                    ElementKind::Tet4 => ctx.run_one::<4, _>(&batch, b, &mut scratch, &sink),
                    ElementKind::Pyr5 => ctx.run_one::<5, _>(&batch, b, &mut scratch, &sink),
                    ElementKind::Pri6 => ctx.run_one::<6, _>(&batch, b, &mut scratch, &sink),
                }
            }
        }
    }

    /// The first entry whose bits differ, if any.
    fn first_bit_mismatch(got: &[f64], want: &[f64]) -> Option<usize> {
        assert_eq!(got.len(), want.len());
        got.iter().zip(want).position(|(g, w)| g.to_bits() != w.to_bits())
    }

    /// The matrices a plan scatters straight into SELL order, read back
    /// through the slot map, against the element-at-a-time oracle adding
    /// into CSR in the plan's own summation order — its units in index
    /// order, each in sweep order, which is the order every shared entry
    /// sees under `Serial`, `Coloring` and `Multidep` whatever the pool.
    /// Bit for bit for those three at 1, 2 and 4 workers, on both
    /// layouts (native node order summed in list order, RCM order grouped
    /// by kind), over the whole mesh and a random half of it; `Atomics`
    /// regroups and agrees to rounding. The negative control: read back
    /// through a slot map with one swapped pair, the bits must differ.
    #[test]
    fn prop_scatter_through_the_slot_map_sums_the_csr_oracles_bits() {
        use cfpd_testkit::prop::{check, usize_range, PropConfig};
        let layouts: Vec<(Mesh, ElementOrder)> = [1, 2]
            .into_iter()
            .flat_map(|generations| {
                let spec = AirwaySpec { generations, ..AirwaySpec::small() };
                let native = generate_airway(&spec).unwrap().mesh;
                let mut rcm = native.clone();
                rcm.renumber_nodes(&cfpd_partition::rcm_perm(&rcm.node_adjacency()));
                [(native, ElementOrder::List), (rcm, ElementOrder::KindGrouped)]
            })
            .collect();
        let (refs, pools) = (RefElement::all(), [1, 2, 4].map(ThreadPool::new));
        let (props, dt, gravity) = (FluidProps::default(), 1e-4, Vec3::new(0.0, 0.0, -9.81));
        check(
            "scatter through the slot map sums the CSR oracle's bits",
            PropConfig::cases(8),
            &(usize_range(0, layouts.len()), usize_range(0, 1 << 16)),
            |&(layout, seed)| {
                let (mesh, order) = (&layouts[layout].0, layouts[layout].1);
                let pattern = CsrMatrix::from_mesh(mesh, &mesh.node_to_elements());
                let sell = Arc::new(SellStructure::from_csr(&pattern));
                let mut elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
                if seed % 2 == 1 {
                    Rng::new(seed as u64).shuffle(&mut elems);
                    elems.truncate(elems.len() / 2);
                }
                let u: Vec<Vec3> =
                    mesh.coords.iter().map(|p| Vec3::new(p.z, 0.5 - p.x, p.y)).collect();
                let fresh_rhs = || vec![vec![0.0; mesh.num_nodes()]; 3];
                let momentum = |pool, plan: &AssemblyPlan, rhs: &mut [Vec<f64>]| {
                    let mut a = SellMatrix::zeros(Arc::clone(&sell));
                    assemble_momentum(pool, &refs, mesh, plan, &u, props, dt, gravity, &mut a, rhs);
                    a
                };
                let faces = mesh.face_neighbors();
                for strategy in AssemblyStrategy::ALL {
                    let listed = elems.clone();
                    let plan = AssemblyPlan::new(mesh, &faces, listed, strategy, 16, &sell, order);
                    let units = &plan.batch_schedule().units;
                    let swept: Vec<u32> = units.iter().flat_map(|set| set.elems.clone()).collect();
                    let (serial, list) = (AssemblyStrategy::Serial, ElementOrder::List);
                    let serial = AssemblyPlan::new(mesh, &faces, swept, serial, 1, &sell, list);
                    let (mut a, mut l, mut rhs) = (pattern.clone(), pattern.clone(), fresh_rhs());
                    let one = &pools[0];
                    oracle::assemble_momentum(
                        one, &refs, mesh, &serial, &u, props, dt, gravity, &mut a, &mut rhs,
                    );
                    oracle::assemble_poisson(one, &refs, mesh, &serial, &mut l);
                    for pool in &pools {
                        let mut srhs = fresh_rhs();
                        let sa = momentum(pool, &plan, &mut srhs);
                        let mut sl = SellMatrix::zeros(Arc::clone(&sell));
                        assemble_poisson(pool, &refs, mesh, &plan, &mut sl);
                        let (ma, ml): (Vec<f64>, Vec<f64>) =
                            (sa.csr_values().collect(), sl.csr_values().collect());
                        let pairs = [("momentum", &ma, &a.values), ("Poisson", &ml, &l.values)]
                            .into_iter()
                            .chain((0..3).map(|c| ("momentum rhs", &srhs[c], &rhs[c])));
                        let workers = pool.max_workers();
                        for (what, got, want) in pairs {
                            if strategy == AssemblyStrategy::Atomics {
                                for (g, w) in got.iter().zip(want.iter()) {
                                    let scale = g.abs().max(w.abs()).max(1.0);
                                    assert!((g - w).abs() <= 1e-9 * scale, "{what}");
                                }
                            } else if let Some(e) = first_bit_mismatch(got, want) {
                                let at = format!("{strategy:?} {order:?}, {workers} workers");
                                panic!("{at}: {what} entry {e} moved");
                            }
                        }
                    }
                    if strategy == AssemblyStrategy::Serial {
                        let mut map: Vec<usize> = sell.csr_order().collect();
                        let far = (1..map.len()).find(|&e| a.values[e] != a.values[0]).unwrap();
                        map.swap(0, far);
                        let sa = momentum(one, &plan, &mut fresh_rhs());
                        let swapped: Vec<f64> = map.iter().map(|&p| sa.values()[p]).collect();
                        let mismatch = first_bit_mismatch(&swapped, &a.values);
                        assert_eq!(mismatch, Some(0), "one swapped slot must fail");
                    }
                }
            },
        );
    }

    /// Serial batched assembly — lane blocks and scalar tails — must be
    /// *bit-identical* to the same batches through the scalar kernel
    /// alone: same per-element bits (lane-kernel property tests)
    /// scattered in the same order. In either order.
    #[test]
    fn lane_batched_assembly_bit_identical_to_scalar_batched() {
        let f = fixture();
        let (refs, pool) = (RefElement::all(), ThreadPool::new(2));
        let (n, nnz, props) = (f.mesh.num_nodes(), f.template.nnz(), FluidProps::default());
        let (coords, velocity, pressure) = (&f.mesh.coords[..], &f.velocity[..], &f.pressure[..]);

        /// Both sweeps of one context; `rhs_len` entries per vector.
        fn check<C: BatchCtx>(
            what: &str,
            ctx: &C,
            (pool, plan): (&ThreadPool, &AssemblyPlan),
            nnz: usize,
            rhs_len: usize,
        ) {
            let fresh = || (vec![0.0; nnz], vec![vec![0.0; rhs_len]; C::RHS_DIM]);
            let (mut a_lanes, mut rhs_lanes) = fresh();
            sweep(pool, plan, matrix_sweep(plan), ctx, &mut a_lanes, &mut rhs_lanes);
            let (mut a_scalar, mut rhs_scalar) = fresh();
            scalar_sweep(ctx, plan, &mut a_scalar, &mut rhs_scalar);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a_lanes), bits(&a_scalar), "{what}: matrix");
            for (c, (l, s)) in rhs_lanes.iter().zip(&rhs_scalar).enumerate() {
                assert_eq!(bits(l), bits(s), "{what}: rhs {c}");
            }
            assert!(a_lanes.iter().chain(rhs_lanes.iter().flatten()).any(|v| *v != 0.0), "{what}");
        }

        for order in [ElementOrder::List, ElementOrder::KindGrouped] {
            let plan = plan(&f, AssemblyStrategy::Serial, order);
            let on = (&pool, &plan);
            let body_force = Vec3::new(0.0, 0.0, -9.81);
            let dt = 1e-4;
            let momentum = MomentumCtx { refs: &refs, coords, velocity, props, dt, body_force };
            check("momentum", &momentum, on, nnz, n);
            check("poisson", &PoissonCtx { refs: &refs, coords }, on, nnz, n);
            let divergence = DivergenceCtx { refs: &refs, coords, velocity, props, dt };
            check("divergence", &divergence, on, 0, n);
            let gradient = PressureGradientCtx { refs: &refs, coords, pressure };
            check("pressure gradient", &gradient, on, 0, 3 * n);
        }
    }

    /// Grouped by kind, the right-hand-side passes add the same
    /// per-element values as the serial element loops, in a different
    /// order.
    #[test]
    fn batched_rhs_passes_match_the_serial_loops() {
        let f = fixture();
        let (refs, pool, props) = (RefElement::all(), ThreadPool::new(4), FluidProps::default());
        let n = f.mesh.num_nodes();
        let serial = plan(&f, AssemblyStrategy::Serial, ElementOrder::List);
        let (mut rhs_ref, mut grad_ref) = (vec![0.0; n], vec![0.0; 3 * n]);
        let (mesh, u, p) = (&f.mesh, &f.velocity[..], &f.pressure[..]);
        oracle::assemble_divergence(&pool, &refs, mesh, &serial, u, props, 1e-4, &mut rhs_ref);
        oracle::assemble_pressure_gradient(&pool, &refs, mesh, &serial, p, &mut grad_ref);
        let close = |x: f64, y: f64, scale: f64| (x - y).abs() <= 1e-10 * scale;
        let rhs_scale = rhs_ref.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let grad_scale = grad_ref.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for strategy in AssemblyStrategy::ALL {
            let plan = plan(&f, strategy, ElementOrder::KindGrouped);
            let (mut rhs, mut grad) = (vec![0.0; n], vec![0.0; 3 * n]);
            assemble_divergence(&pool, &refs, mesh, &plan, u, props, 1e-4, &mut rhs);
            assemble_pressure_gradient(&pool, &refs, mesh, &plan, p, &mut grad);
            for (i, (x, y)) in rhs.iter().zip(&rhs_ref).enumerate() {
                assert!(close(*x, *y, rhs_scale), "{strategy:?} rhs[{i}]: {x} vs {y}");
            }
            for (i, (x, y)) in grad.iter().zip(&grad_ref).enumerate() {
                assert!(close(*x, *y, grad_scale), "{strategy:?} grad[{i}]: {x} vs {y}");
            }
        }
    }
}

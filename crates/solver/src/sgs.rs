//! The subgrid-scale (SGS) phase driver: a per-element loop with **no
//! global scatter** — the paper uses it to measure the pure scheduling
//! overhead of coloring and multidependences when no race protection is
//! needed at all (§4.3, Fig. 7; that strategy-following sweep is
//! [`crate::oracle::compute_sgs`]). Because the elements are mutually
//! independent, the order they are visited in moves no bit, and every
//! run sweeps them grouped by kind, eight per [`crate::simd::F64x8`]
//! operation.

use crate::batch::{BatchSet, ElementOrder, KindBatch};
use crate::kernels::{sgs_kernel_on, ElementScratch, FluidProps};
use crate::lanes::{
    get_lane_sgs, set_lane_sgs, sgs_kernel_lanes, LaneScratch, LaneSgs, LANES,
};
use crate::shape::{RefElement, MAX_QP};
use crate::shared::{Claim, SharedOut};
use cfpd_mesh::{ElementKind, Mesh, Vec3};
use cfpd_runtime::{balanced_ranges, parallel_for_ranges, ThreadPool};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Where each element's subgrid velocities live and how a sweep visits
/// the elements it was built for: the part of an [`SgsField`] that
/// depends on the mesh and the element list alone. Built once per
/// solver structure and shared by every field on it.
#[derive(Debug)]
pub struct SgsLayout {
    /// CSR offsets: element `e` owns `values[offsets[e]..offsets[e+1]]`.
    pub offsets: Vec<u32>,
    /// Characteristic element length ([`Mesh::element_sizes`]), shared.
    pub h: Arc<[f64]>,
    /// The sweep schedule: the layout's elements grouped
    /// `Tet4 → Pyr5 → Pri6`, stable within each kind, with gather lists
    /// and `h` in sweep order — and per kind batch its quadrature-point
    /// prefix, which [`balanced_ranges`] chunks by.
    set: BatchSet,
    qp_prefix: Vec<Vec<u32>>,
}

impl SgsLayout {
    /// Storage for every element of `mesh`, swept over `elems`; `h` is
    /// `mesh.element_sizes()`.
    pub fn new(mesh: &Mesh, elems: &[u32], h: Arc<[f64]>) -> SgsLayout {
        let ne = mesh.num_elements();
        let mut offsets = Vec::with_capacity(ne + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for e in 0..ne {
            total += mesh.kinds[e].num_quad_points() as u32;
            offsets.push(total);
        }
        let set = BatchSet::cut(mesh, &h, elems, ElementOrder::KindGrouped, false);
        let qp_prefix = set
            .batches()
            .map(|kb| (0..=kb.len() as u32).map(|b| b * kb.kind.num_quad_points() as u32).collect())
            .collect();
        SgsLayout { offsets, h, set, qp_prefix }
    }

    /// The sweep schedule: each kind batch with its quadrature-point prefix.
    pub fn batches(&self) -> impl Iterator<Item = (KindBatch<'_>, &[u32])> {
        self.set.batches().zip(self.qp_prefix.iter().map(Vec::as_slice))
    }
}

/// Per-element, per-quadrature-point subgrid velocity storage.
#[derive(Debug)]
pub struct SgsField {
    /// Flattened per-qp subgrid velocities.
    pub values: Vec<Vec3>,
    pub layout: Arc<SgsLayout>,
}

impl SgsField {
    /// A zero field over `mesh` whose sweeps visit `elems`.
    pub fn new(mesh: &Mesh, elems: &[u32]) -> SgsField {
        SgsField::on(Arc::new(SgsLayout::new(mesh, elems, mesh.element_sizes().into())))
    }

    /// A zero field on an existing layout.
    pub fn on(layout: Arc<SgsLayout>) -> SgsField {
        let total = *layout.offsets.last().expect("offsets hold at least the leading 0");
        SgsField { values: vec![Vec3::ZERO; total as usize], layout }
    }

    /// Subgrid velocities of element `e`.
    pub fn elem(&self, e: usize) -> &[Vec3] {
        &self.values[self.layout.offsets[e] as usize..self.layout.offsets[e + 1] as usize]
    }
}

/// Result of one SGS sweep: per-element inner-iteration counts (a cost
/// profile — elements in sheared flow iterate more, one of the organic
/// imbalance sources) and the weighted total work.
#[derive(Debug, Default, Clone)]
pub struct SgsStats {
    pub elements: usize,
    pub total_iterations: u64,
    pub max_iterations: usize,
}

/// Iteration counts of one sweep. Each chunk or task counts its own
/// elements privately and merges once; a sum and a maximum of integers
/// do not depend on the order the chunks arrive in.
#[derive(Default)]
pub(crate) struct IterTally {
    total: AtomicU64,
    max: AtomicUsize,
}

impl IterTally {
    pub(crate) fn merge(&self, (total, max): (u64, usize)) {
        self.total.fetch_add(total, Ordering::Relaxed);
        self.max.fetch_max(max, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self, elements: usize) -> SgsStats {
        SgsStats {
            elements,
            total_iterations: self.total.load(Ordering::Relaxed),
            max_iterations: self.max.load(Ordering::Relaxed),
        }
    }
}

/// What one chunk of the kind-batched sweep needs besides its batch.
struct BatchedSweep<'a> {
    refs: &'a [RefElement; 3],
    coords: &'a [Vec3],
    velocity: &'a [Vec3],
    props: FluidProps,
    view: SharedOut<'a, Vec3>,
    offsets: &'a [u32],
    max_iters: usize,
    tol: f64,
}

impl BatchedSweep<'_> {
    /// Storage of batch row `b`, the caller's until the claim drops.
    fn row_values(&self, kb: &KindBatch, b: usize) -> Claim<'_, Vec3> {
        let e = kb.elems[b] as usize;
        self.view.claim(self.offsets[e] as usize..self.offsets[e + 1] as usize)
    }

    /// Rows `range` of `kb`, whose kind has `NN` nodes: full blocks of
    /// [`LANES`] through the lane kernel, the tail (and any block with a
    /// degenerate element) through the scalar kernel — row by row the
    /// same bits either way. Returns the rows' `(Σ, max)` iterations.
    fn run<const NN: usize>(&self, kb: &KindBatch, range: Range<usize>) -> (u64, usize) {
        let re = &self.refs[RefElement::index_of(kb.kind)];
        let mut scratch = ElementScratch::default();
        let (mut total, mut max) = (0u64, 0usize);
        let mut count = |iters: usize| {
            total += iters as u64;
            max = max.max(iters);
        };
        let mut scalar_row = |b: usize| {
            scratch.load_gather(self.coords, self.velocity, &kb.gather[b * NN..(b + 1) * NN]);
            let values = self.row_values(kb, b);
            sgs_kernel_on(re, &scratch, NN, self.props, kb.h[b], values.slice, self.max_iters, self.tol)
        };
        let mut b = range.start;
        let mut ls = LaneScratch::default();
        let mut usg: LaneSgs = [[[0.0; LANES]; 3]; MAX_QP];
        while b + LANES <= range.end {
            ls.load(self.coords, Some(self.velocity), None, kb.gather, kb.h, NN, b);
            // The block holds its eight rows until it has written them.
            let mut rows: [Claim<Vec3>; LANES] = std::array::from_fn(|l| self.row_values(kb, b + l));
            for (l, values) in rows.iter().enumerate() {
                set_lane_sgs(&mut usg, l, values.slice);
            }
            let block =
                sgs_kernel_lanes::<NN>(re, &ls, self.props, &mut usg, self.max_iters, self.tol);
            match block {
                Some(iters) => {
                    for (l, values) in rows.iter_mut().enumerate() {
                        get_lane_sgs(&usg, l, values.slice);
                        count(iters[l]);
                    }
                }
                // Nothing was stored: the scalar kernel redoes the
                // block and skips the degenerate points itself.
                None => {
                    drop(rows);
                    (b..b + LANES).for_each(|bb| count(scalar_row(bb)));
                }
            }
            b += LANES;
        }
        (b..range.end).for_each(|bb| count(scalar_row(bb)));
        (total, max)
    }
}

/// Run one SGS update sweep over the elements `field`'s layout was built
/// for: grouped by kind through the layout's gather schedule, chunked by
/// quadrature-point count, eight elements per [`crate::simd::F64x8`]
/// operation. No per-element `elem_nodes` walk and no kind dispatch in
/// the hot loop. Each element's update is independent and reads only the
/// shared velocity field, so the sweep gives every element the bits of
/// the strategy-following scalar sweep ([`crate::oracle::compute_sgs`])
/// under any pool size (pinned by
/// `batched_sgs_bit_identical_to_serial_for_any_pool_and_kernel`).
#[allow(clippy::too_many_arguments)]
pub fn compute_sgs(
    pool: &ThreadPool,
    refs: &[RefElement; 3],
    mesh: &Mesh,
    velocity: &[Vec3],
    props: FluidProps,
    field: &mut SgsField,
    max_iters: usize,
    tol: f64,
) -> SgsStats {
    // Destructure to borrow the schedule and the value storage
    // simultaneously.
    let SgsField { values, layout } = field;
    let sweep = BatchedSweep {
        refs,
        coords: &mesh.coords,
        velocity,
        props,
        view: SharedOut::new(values),
        offsets: &layout.offsets,
        max_iters,
        tol,
    };
    let tally = IterTally::default();
    for (kb, qp_prefix) in layout.batches() {
        let ranges = balanced_ranges(qp_prefix, pool.max_workers().max(1) * 8);
        parallel_for_ranges(pool, &ranges, |_c, range| {
            tally.merge(match kb.kind {
                ElementKind::Tet4 => sweep.run::<4>(&kb, range),
                ElementKind::Pyr5 => sweep.run::<5>(&kb, range),
                ElementKind::Pri6 => sweep.run::<6>(&kb, range),
            });
        });
    }
    tally.stats(layout.set.num_elements())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::{AssemblyPlan, AssemblyStrategy};
    use crate::oracle::sgs_kernel;
    use crate::oracle;
    use cfpd_mesh::{generate_airway, AirwaySpec};

    fn fixture() -> (Mesh, [RefElement; 3], ThreadPool, Vec<Vec3>) {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let vel = am
            .mesh
            .coords
            .iter()
            .map(|p| Vec3::new(p.y * 20.0, -p.x * 10.0, 1.0))
            .collect();
        (am.mesh, RefElement::all(), ThreadPool::new(4), vel)
    }

    fn all_elems(mesh: &Mesh) -> Vec<u32> {
        (0..mesh.num_elements() as u32).collect()
    }

    /// The strategy-following scalar sweep, the oracle.
    fn run(strategy: AssemblyStrategy) -> (SgsField, SgsStats) {
        let (mesh, refs, pool, vel) = fixture();
        let pattern = crate::csr::CsrMatrix::from_mesh(&mesh, &mesh.node_to_elements());
        let sell = crate::sell::SellStructure::from_csr(&pattern);
        let order = crate::batch::ElementOrder::List;
        let plan = AssemblyPlan::new(&mesh, all_elems(&mesh), strategy, 16, &sell, order);
        let mut field = SgsField::new(&mesh, &plan.elems);
        let stats = oracle::compute_sgs(
            &pool,
            &refs,
            &mesh,
            &plan,
            &vel,
            FluidProps::default(),
            &mut field,
            10,
            1e-8,
        );
        (field, stats)
    }

    #[test]
    fn sgs_storage_sized_by_quadrature() {
        let (mesh, ..) = fixture();
        let field = SgsField::new(&mesh, &all_elems(&mesh));
        let expected: usize = (0..mesh.num_elements())
            .map(|e| mesh.kinds[e].num_quad_points())
            .sum();
        assert_eq!(field.values.len(), expected);
    }

    // A schedule that lists one element in two rows of a lane block, which
    // would write it twice.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two writers met")]
    fn an_element_in_two_batch_rows_panics() {
        let (mesh, refs, _, vel) = fixture();
        let mut elems = all_elems(&mesh);
        elems.insert(1, elems[0]);
        let mut field = SgsField::new(&mesh, &elems);
        let props = FluidProps::default();
        compute_sgs(&ThreadPool::new(1), &refs, &mesh, &vel, props, &mut field, 10, 1e-8);
    }

    #[test]
    fn all_strategies_compute_same_sgs() {
        let (reference, _) = run(AssemblyStrategy::Serial);
        for s in [AssemblyStrategy::Atomics, AssemblyStrategy::Coloring, AssemblyStrategy::Multidep]
        {
            let (field, stats) = run(s);
            assert_eq!(stats.elements, reference.layout.offsets.len() - 1);
            for (i, (a, b)) in field.values.iter().zip(&reference.values).enumerate() {
                assert!(
                    (*a - *b).norm() < 1e-12,
                    "{s:?} sgs[{i}] differs: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn rotational_flow_produces_nonzero_sgs() {
        let (field, stats) = run_batched(2);
        // A NaN or an infinity anywhere makes the sum fail the check.
        let sum: f64 = field.values.iter().map(|v| v.norm()).sum();
        assert!(sum > 0.0 && sum.is_finite(), "Σ|sgs| = {sum}");
        assert!(stats.total_iterations as usize >= stats.elements);
        assert!(stats.max_iterations >= 1);
    }

    /// The production sweep.
    fn run_batched(workers: usize) -> (SgsField, SgsStats) {
        let (mesh, refs, _, vel) = fixture();
        let pool = ThreadPool::new(workers);
        let mut field = SgsField::new(&mesh, &all_elems(&mesh));
        let props = FluidProps::default();
        let stats = compute_sgs(&pool, &refs, &mesh, &vel, props, &mut field, 10, 1e-8);
        (field, stats)
    }

    fn assert_values_bit_equal(got: &[Vec3], want: &[Vec3], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.x.to_bits(), b.x.to_bits(), "{what}: sgs[{i}].x {} vs {}", a.x, b.x);
            assert_eq!(a.y.to_bits(), b.y.to_bits(), "{what}: sgs[{i}].y {} vs {}", a.y, b.y);
            assert_eq!(a.z.to_bits(), b.z.to_bits(), "{what}: sgs[{i}].z {} vs {}", a.z, b.z);
        }
    }

    /// The batched sweep — lane blocks and scalar tails, any pool size —
    /// gives every element the serial oracle sweep's bits and the same
    /// iteration statistics.
    #[test]
    fn batched_sgs_bit_identical_to_serial_for_any_pool_and_kernel() {
        let (reference, ref_stats) = run(AssemblyStrategy::Serial);
        assert!(ref_stats.max_iterations > 1, "fixture flow must iterate");
        for workers in [1, 2, 4] {
            let what = format!("workers={workers}");
            let (field, stats) = run_batched(workers);
            assert_eq!(stats.elements, ref_stats.elements, "{what}");
            assert_eq!(stats.total_iterations, ref_stats.total_iterations, "{what}");
            assert_eq!(stats.max_iterations, ref_stats.max_iterations, "{what}");
            assert_values_bit_equal(&field.values, &reference.values, &what);
        }
    }

    /// A layout sweeps the elements it was built for and no others: two
    /// layouts on one mesh with different lists do not see each other's.
    #[test]
    fn a_layout_sweeps_its_own_element_list() {
        let (mesh, refs, pool, vel) = fixture();
        let (even, odd): (Vec<u32>, Vec<u32>) = all_elems(&mesh).iter().partition(|&&e| e % 2 == 0);
        let props = FluidProps::default();
        for (mine, other) in [(&even, &odd), (&odd, &even)] {
            let mut field = SgsField::new(&mesh, mine);
            let stats = compute_sgs(&pool, &refs, &mesh, &vel, props, &mut field, 10, 1e-8);
            assert_eq!(stats.elements, mine.len());
            assert!(mine.iter().any(|&e| field.elem(e as usize).iter().any(|v| *v != Vec3::ZERO)));
            assert!(other.iter().all(|&e| field.elem(e as usize).iter().all(|v| *v == Vec3::ZERO)));
        }
    }

    fn warm_start(i: usize) -> Vec3 {
        Vec3::new(0.01 * (i % 7) as f64, -0.02, 0.005 * (i % 3) as f64)
    }

    fn warm(mesh: &Mesh) -> Vec<Vec3> {
        (0..SgsField::new(mesh, &[]).values.len()).map(warm_start).collect()
    }

    /// The batch of `NN`-node elements of `layout`.
    fn batch_of<const NN: usize>(layout: &SgsLayout) -> KindBatch<'_> {
        layout.batches().map(|(kb, _)| kb).find(|kb| kb.nn() == NN).expect("every kind")
    }

    /// Rows `0..len` of the `NN`-node batch through [`BatchedSweep::run`]
    /// with lane blocks, from the storage `start`, against the scalar
    /// kernel row by row, on a mesh the caller may have damaged: the
    /// bits, the `(Σ, max)` iterations, and the per-lane counts of each
    /// full block straight from [`sgs_kernel_lanes`] — which leaves the
    /// storage of a block it refuses untouched. Returns the swept field.
    fn check_lane_rows<const NN: usize>(
        mesh: &Mesh,
        vel: &[Vec3],
        len: usize,
        start: &[Vec3],
    ) -> SgsField {
        let (refs, props, max_iters, tol) = (RefElement::all(), FluidProps::default(), 6, 1e-7);
        let mut want = SgsField::new(mesh, &all_elems(mesh));
        want.values.copy_from_slice(start);
        let layout = Arc::clone(&want.layout);
        let at = |e: u32| layout.offsets[e as usize] as usize..layout.offsets[e as usize + 1] as usize;
        let kb = batch_of::<NN>(&layout);
        let mut scratch = ElementScratch::default();
        let counts: Vec<usize> = (kb.elems[..len].iter())
            .map(|&e| {
                let ((kind, nn), h) = (scratch.load(mesh, vel, e as usize), layout.h[e as usize]);
                let values = &mut want.values[at(e)];
                sgs_kernel(&refs, &scratch, kind, nn, props, h, values, max_iters, tol)
            })
            .collect();

        let (re, mut ls) = (&refs[RefElement::index_of(kb.kind)], LaneScratch::default());
        for b in (0..len / LANES).map(|k| k * LANES) {
            ls.load(&mesh.coords, Some(vel), None, kb.gather, kb.h, NN, b);
            let mut usg: LaneSgs = [[[0.0; LANES]; 3]; MAX_QP];
            (0..LANES).for_each(|l| set_lane_sgs(&mut usg, l, &start[at(kb.elems[b + l])]));
            let before = usg;
            match sgs_kernel_lanes::<NN>(re, &ls, props, &mut usg, max_iters, tol) {
                Some(iters) => assert_eq!(iters[..], counts[b..b + LANES], "block {b}"),
                None => assert_eq!(usg, before, "block {b}: a refused block was written"),
            }
        }

        let mut got = SgsField { values: start.to_vec(), layout: Arc::clone(&layout) };
        let sweep = BatchedSweep {
            refs: &refs,
            coords: &mesh.coords,
            velocity: vel,
            props,
            view: SharedOut::new(&mut got.values),
            offsets: &layout.offsets,
            max_iters,
            tol,
        };
        let total = counts.iter().map(|&c| c as u64).sum();
        let what = format!("{NN} nodes, len {len}");
        assert_eq!(sweep.run::<NN>(&kb, 0..len), (total, *counts.iter().max().unwrap()), "{what}");
        assert_values_bit_equal(&got.values, &want.values, &what);
        got
    }

    /// Every tail shape of every kind: no block, one block, one block and
    /// a tail, two blocks, two blocks and one row.
    #[test]
    fn lane_blocks_and_scalar_tails_agree_for_every_chunk_length() {
        let (mesh, _, _, vel) = fixture();
        let start = warm(&mesh);
        for len in 1..=17 {
            check_lane_rows::<4>(&mesh, &vel, len, &start);
            check_lane_rows::<5>(&mesh, &vel, len, &start);
            check_lane_rows::<6>(&mesh, &vel, len, &start);
        }
    }

    /// Blocks whose points leave the fixed-point loop at different
    /// iterations: every other storage point starts at the value a sweep
    /// converged to far below the tolerance, the rest cold. The scalar
    /// kernel on one point alone says when that point leaves.
    #[test]
    fn points_of_a_block_converging_at_different_iterations_agree() {
        let (mesh, refs, pool, vel) = fixture();
        let props = FluidProps::default();
        let mut converged = SgsField::new(&mesh, &all_elems(&mesh));
        compute_sgs(&pool, &refs, &mesh, &vel, props, &mut converged, 50, 1e-12);
        let start: Vec<Vec3> = (converged.values.iter().enumerate())
            .map(|(i, v)| if i % 2 == 0 { *v } else { Vec3::ZERO })
            .collect();
        let layout = &converged.layout;
        let mut scratch = ElementScratch::default();
        for e in [batch_of::<4>(layout), batch_of::<5>(layout), batch_of::<6>(layout)]
            .map(|kb| kb.elems[0] as usize)
        {
            let (kind, nn) = scratch.load(&mesh, &vel, e);
            let (lo, h) = (layout.offsets[e] as usize, layout.h[e]);
            let leaves: Vec<usize> = (refs[RefElement::index_of(kind)].qps.iter().enumerate())
                .map(|(q, qp)| {
                    let one = RefElement { kind, qps: vec![*qp] };
                    sgs_kernel_on(&one, &scratch, nn, props, h, &mut [start[lo + q]], 6, 1e-7)
                })
                .collect();
            assert!(leaves.iter().min() < leaves.iter().max(), "{kind:?}: {leaves:?}");
        }
        check_lane_rows::<4>(&mesh, &vel, 16, &start);
        check_lane_rows::<5>(&mesh, &vel, 16, &start);
        check_lane_rows::<6>(&mesh, &vel, 16, &start);
    }

    /// A block holding a degenerate element goes to the scalar kernel
    /// whole: that element keeps its values (every point skipped), its
    /// seven neighbours get what the scalar kernel gives them. On a tet
    /// block and on a prism block.
    #[test]
    fn block_with_a_degenerate_element_falls_back_to_scalar() {
        fn check<const NN: usize>() {
            let (mut mesh, _, _, vel) = fixture();
            let probe = SgsField::new(&mesh, &all_elems(&mesh)).layout;
            let rows = batch_of::<NN>(&probe).elems;
            let (flat, other) = (rows[3] as usize, rows[4] as usize);
            // Collapse the edge 0–1 of row 3 (and of a prism its top twin
            // 3–4): the Jacobian's first row sums pairs of exact opposites,
            // so its determinant is exactly zero at every point (the
            // neighbours only change shape).
            let nodes = mesh.elem_nodes(flat).to_vec();
            let edges: &[(usize, usize)] = if NN == 6 { &[(1, 0), (4, 3)] } else { &[(1, 0)] };
            for &(to, from) in edges {
                mesh.coords[nodes[to] as usize] = mesh.coords[nodes[from] as usize];
            }
            let swept = check_lane_rows::<NN>(&mesh, &vel, 16, &warm(&mesh));
            let lo = swept.layout.offsets[flat] as usize;
            for (q, v) in swept.elem(flat).iter().enumerate() {
                assert_eq!(*v, warm_start(lo + q), "point {q} of the flat element moved");
            }
            assert_ne!(swept.elem(other)[0], warm_start(swept.layout.offsets[other] as usize));
        }
        check::<4>();
        check::<6>();
    }
}

//! Pool-parallel sparse kernels: the shared-memory second level of
//! parallelism for the solver phases (Alya's solvers run hybrid too;
//! here they let borrowed DLB cores accelerate the Krylov iterations).
//!
//! * **nnz-balanced row chunks** — [`CsrMatrix::row_chunks`] places
//!   chunk boundaries by binary search on `row_ptr` so every chunk
//!   carries about the same number of nonzeros, instead of the same
//!   number of rows (airway matrices are skewed: boundary-layer nodes
//!   have far denser rows than core nodes).
//! * **pool-distributed SELL sweeps** — [`spmv_sweep`] and
//!   [`spmm3_sweep`] hand contiguous chunk ranges of a [`SellMatrix`] to
//!   the pool; every `y[row]` carries the bits of the serial
//!   [`CsrMatrix::spmv`] on the matrix the mirror was loaded from.
//! * **chunk-ordered reductions** — [`ChunkedDot`] and
//!   [`axpy_dot_fused`] write per-chunk partial sums to a chunk-indexed
//!   slot array and sum the slots in chunk order, so a result depends
//!   only on the chunk decomposition, never on the pool size.
//!
//! Every write goes through [`crate::shared`].

use crate::csr::CsrMatrix;
use crate::sell::SellMatrix;
use crate::shared::{for_ranges_mut, map_ranges_mut, SharedOut};
use cfpd_runtime::{parallel_for_ranges, ThreadPool};
use std::ops::Range;

impl CsrMatrix {
    /// At most `max_chunks` contiguous row ranges of ≈ equal nonzero
    /// count (binary search on `row_ptr`), for parallel row sweeps.
    pub fn row_chunks(&self, max_chunks: usize) -> Vec<Range<usize>> {
        cfpd_runtime::balanced_ranges(&self.row_ptr, max_chunks)
    }
}

/// y = A x with the chunk ranges `sweep` (from
/// [`SellMatrix::chunk_ranges`] of `a`) distributed over the pool.
pub fn spmv_sweep(
    a: &SellMatrix,
    pool: &ThreadPool,
    sweep: &[Range<usize>],
    x: &[f64],
    y: &mut [f64],
) {
    assert_eq!(x.len(), a.n);
    assert_eq!(y.len(), a.n);
    cfpd_telemetry::count!("solver.spmv_calls");
    let out = SharedOut::new(y);
    parallel_for_ranges(pool, sweep, |_c, chunks| a.spmv_chunk_range(chunks, x, &out));
}

/// `Y = A X` for three interleaved columns (`x[3 j + c]`, `y[3 i + c]`)
/// with the chunk ranges `sweep` of `a` distributed over the pool: one
/// pass over the matrix where three [`spmv_sweep`] calls make three.
pub fn spmm3_sweep(
    a: &SellMatrix,
    pool: &ThreadPool,
    sweep: &[Range<usize>],
    x: &[f64],
    y: &mut [f64],
) {
    assert_eq!(x.len(), 3 * a.n);
    assert_eq!(y.len(), 3 * a.n);
    cfpd_telemetry::count!("solver.spmm3_calls");
    let out = SharedOut::new(y);
    parallel_for_ranges(pool, sweep, |_c, chunks| a.spmm3_chunk_range(chunks, x, &out));
}

/// xᵀy over a fixed set of index ranges, per-range partials summed in
/// range order, with the partial slots allocated once (a CG iteration
/// calls [`ChunkedDot::dot`] without touching the allocator).
///
/// Ranges are processed in groups of four, their accumulation chains
/// interleaved in lock-step: each partial is still the plain serial
/// `Σ x[i]·y[i]` over its own range (bit-identical to a per-range
/// loop), but four independent FP-add chains run at once, so the
/// 4-cycle add latency that would otherwise bound a single chain is
/// hidden.
pub struct ChunkedDot {
    ranges: Vec<Range<usize>>,
    /// `ranges` indices, four at a time.
    quads: Vec<Range<usize>>,
    parts: Vec<f64>,
}

impl ChunkedDot {
    pub fn new(ranges: Vec<Range<usize>>) -> ChunkedDot {
        let quads = (0..ranges.len().div_ceil(4))
            .map(|g| g * 4..ranges.len().min(g * 4 + 4))
            .collect();
        let parts = vec![0.0; ranges.len()];
        ChunkedDot { ranges, quads, parts }
    }

    /// The index ranges the partials are taken over.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    pub fn dot(&mut self, pool: &ThreadPool, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len());
        let ranges = &self.ranges;
        for_ranges_mut(pool, &self.quads, [&mut self.parts], |quad, [slots]| {
            // A quad short of four ranges runs empty ones in their place.
            let pair = |s: usize| match quad.clone().nth(s) {
                Some(c) => (&x[ranges[c].clone()], &y[ranges[c].clone()]),
                None => (&x[..0], &y[..0]),
            };
            let [(a0, b0), (a1, b1), (a2, b2), (a3, b3)] = std::array::from_fn(pair);
            // Lock-step over the common prefix (the balanced ranges are
            // near-equal, so this covers almost everything); re-sliced so
            // the indexing is provably in-bounds.
            let l = a0.len().min(a1.len()).min(a2.len()).min(a3.len());
            let (c_a0, c_b0) = (&a0[..l], &b0[..l]);
            let (c_a1, c_b1) = (&a1[..l], &b1[..l]);
            let (c_a2, c_b2) = (&a2[..l], &b2[..l]);
            let (c_a3, c_b3) = (&a3[..l], &b3[..l]);
            let mut accs = [0.0f64; 4];
            for k in 0..l {
                accs[0] += c_a0[k] * c_b0[k];
                accs[1] += c_a1[k] * c_b1[k];
                accs[2] += c_a2[k] * c_b2[k];
                accs[3] += c_a3[k] * c_b3[k];
            }
            // Per-range tails continue each chain past the prefix.
            let chains = [(a0, b0), (a1, b1), (a2, b2), (a3, b3)];
            for ((slot, mut acc), (a, b)) in slots.iter_mut().zip(accs).zip(chains) {
                for k in l..a.len() {
                    acc += a[k] * b[k];
                }
                *slot = acc;
            }
        });
        self.parts.iter().sum()
    }
}

/// Fused y += α x and yᵀy in one parallel region; deterministic for a
/// fixed `ranges` (chunk-ordered partial sums).
pub fn axpy_dot_fused(
    pool: &ThreadPool,
    ranges: &[Range<usize>],
    alpha: f64,
    x: &[f64],
    y: &mut [f64],
) -> f64 {
    assert_eq!(x.len(), y.len());
    let mut parts = vec![0.0; ranges.len()];
    map_ranges_mut(pool, ranges, [y], &mut parts, |range, [y]| {
        let mut acc = 0.0;
        for (yi, &xi) in y.iter_mut().zip(&x[range]) {
            *yi += alpha * xi;
            acc += *yi * *yi;
        }
        acc
    });
    parts.iter().sum()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn poisson_1d(n: usize) -> CsrMatrix {
        let mut row_ptr = vec![0u32];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..n {
            if i > 0 {
                col_idx.push((i - 1) as u32);
                values.push(-1.0);
            }
            col_idx.push(i as u32);
            values.push(2.0);
            if i + 1 < n {
                col_idx.push((i + 1) as u32);
                values.push(-1.0);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        CsrMatrix { n, row_ptr: row_ptr.into(), col_idx: col_idx.into(), values }
    }

    // The pool-swept SELL mirror against the serial SpMV of the CSR
    // matrix it was loaded from.
    #[test]
    fn swept_spmv_is_bit_identical_on_both_storages() {
        let a = poisson_1d(500);
        let sell = SellMatrix::from_csr(&a);
        let x: Vec<f64> = (0..500).map(|i| (i as f64 * 0.1).cos()).collect();
        let mut y_serial = vec![0.0; 500];
        a.spmv(&x, &mut y_serial);
        let pool = ThreadPool::new(4);
        let mut y_sell = vec![0.0; 500];
        spmv_sweep(&sell, &pool, &sell.chunk_ranges(7), &x, &mut y_sell);
        for i in 0..500 {
            assert_eq!(y_sell[i].to_bits(), y_serial[i].to_bits(), "sell row {i}");
        }
    }

    #[test]
    fn row_chunks_cover_all_rows_nnz_balanced() {
        let a = poisson_1d(1000);
        let ranges = a.row_chunks(7);
        assert!(ranges.len() <= 7);
        let mut next = 0;
        for r in &ranges {
            assert_eq!(r.start, next);
            next = r.end;
            let nnz = a.row_ptr[r.end] - a.row_ptr[r.start];
            // ~3000 nnz over 7 chunks: every chunk near 1/7 of the load.
            assert!((350..=550).contains(&nnz), "chunk {r:?} has {nnz} nnz");
        }
        assert_eq!(next, 1000);
    }

    #[test]
    fn chunked_dot_is_the_chunk_ordered_sum_for_any_pool() {
        let n = 1003;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| 0.5 - (i % 9) as f64 * 0.1).collect();
        let prefix: Vec<u32> = (0..=n).map(|i| i as u32).collect();
        // 7 ranges: one full quad and a 3-range tail.
        let ranges = cfpd_runtime::balanced_ranges(&prefix, 7);
        let want: f64 = ranges
            .iter()
            .map(|r| r.clone().map(|i| x[i] * y[i]).fold(0.0, |acc, v| acc + v))
            .sum();
        for workers in [1usize, 3] {
            let pool = ThreadPool::new(workers);
            let mut dots = ChunkedDot::new(ranges.clone());
            assert_eq!(dots.dot(&pool, &x, &y).to_bits(), want.to_bits(), "{workers} workers");
            // The slots are reused, not accumulated into.
            assert_eq!(dots.dot(&pool, &x, &y).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn fused_axpy_dot_matches_serial() {
        let x: Vec<f64> = (0..257).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut y: Vec<f64> = (0..257).map(|i| 0.5 - (i % 9) as f64 * 0.1).collect();
        let mut y_ref = y.clone();
        for i in 0..257 {
            y_ref[i] += 1.7 * x[i];
        }
        let want: f64 = y_ref.iter().map(|v| v * v).sum();
        let pool = ThreadPool::new(3);
        let prefix: Vec<u32> = (0..=257).map(|i| i as u32).collect();
        let ranges = cfpd_runtime::balanced_ranges(&prefix, 8);
        let got = axpy_dot_fused(&pool, &ranges, 1.7, &x, &mut y);
        for i in 0..257 {
            assert_eq!(y[i].to_bits(), y_ref[i].to_bits(), "y[{i}] not exact");
        }
        assert!((got - want).abs() <= 1e-12 * want.abs().max(1.0));
    }
}

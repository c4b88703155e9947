//! SELL-C-σ sparse storage for the solver's SpMV hot loop.
//!
//! The committed hotpath numbers show the pressure CG is *latency*
//! bound, not bandwidth bound: after RCM the whole matrix sits in the
//! last-level cache, and the CSR row loop is one long dependent
//! floating-point add chain (`acc += v*x` serializes at FP-add latency,
//! ~4 cycles per nonzero). SELL-C-σ fixes exactly that: rows are packed
//! into chunks of [`SELL_C`] rows stored column-major, so the inner
//! loop advances [`SELL_C`] *independent* accumulator chains at once —
//! the out-of-order core (or the compiler's vector units) overlaps
//! them and the chain latency is hidden.
//!
//! **Bit-identity contract.** Every row's scalar accumulation order is
//! preserved exactly: the chunk's column-major "common" part walks the
//! first `common` entries of each row in CSR order, and the per-row
//! remainder continues sequentially from there. No padding value is
//! ever added into an accumulator (the usual SELL zero-padding can flip
//! the sign of a ±0.0 row sum), so `y` is **bit-identical per row** to
//! [`CsrMatrix::spmv`] — pinned by property tests and by the opt-layout
//! golden.
//!
//! σ-sorting: within windows of [`SELL_SIGMA`] rows, rows are ordered
//! by descending length so chunk-mates have similar lengths and the
//! scalar remainder stays short. Sorting permutes only which *slot*
//! computes which row — each row's own arithmetic is untouched.

use crate::csr::CsrMatrix;
use std::sync::Arc;

/// Chunk height: number of rows (= independent accumulator chains)
/// processed together. 8 doubles = one AVX-512 register / two NEON-ish
/// quadwords; also enough chains to cover FP-add latency scalar-wise.
pub const SELL_C: usize = 8;

/// Row-sorting window. Must be a multiple of [`SELL_C`]. Small enough
/// that the row permutation stays local (cache-friendly `y` writes),
/// large enough to homogenize chunk row lengths.
pub const SELL_SIGMA: usize = 64;

/// The SELL-C-σ shape of one sparsity pattern: which row sits in which
/// slot, the chunk layout, the column indices and the gather map into
/// the source CSR value array. Built once per pattern and shared by
/// every [`SellMatrix`] on it.
#[derive(Debug)]
pub struct SellStructure {
    n: usize,
    /// Row stored in each slot (`chunk * SELL_C + lane`); `u32::MAX`
    /// marks an empty tail slot.
    rows: Vec<u32>,
    /// Entry offset of each chunk into `cols`/`src`/`vals`.
    chunk_ptr: Vec<u32>,
    /// Column-major ("common") length of each chunk: the shortest row.
    chunk_common: Vec<u32>,
    /// Row length per slot.
    slot_len: Vec<u32>,
    /// Column indices (chunk layout: common part column-major, then the
    /// per-lane remainders contiguous per lane).
    cols: Vec<u32>,
    /// Gather map into the source CSR value array (same layout).
    src: Vec<u32>,
}

/// A [`CsrMatrix`] re-shaped into SELL-C-σ form: a shared
/// [`SellStructure`] plus this matrix's own values, which are refreshed
/// from the source CSR with [`SellMatrix::update_values`] whenever the
/// matrix is re-assembled.
#[derive(Debug, Clone)]
pub struct SellMatrix {
    pub n: usize,
    s: Arc<SellStructure>,
    /// Values (same layout as the structure's `cols`).
    vals: Vec<f64>,
}

impl SellStructure {
    /// Shape the sparsity pattern of `a` into SELL-C-σ.
    pub fn from_csr(a: &CsrMatrix) -> SellStructure {
        let n = a.n;
        let n_chunks = n.div_ceil(SELL_C);
        // σ-sort: within each window, order rows by descending length
        // (stable, so equal-length rows keep their natural order).
        let mut rows: Vec<u32> = (0..n as u32).collect();
        let row_len = |r: u32| a.row_ptr[r as usize + 1] - a.row_ptr[r as usize];
        for window in rows.chunks_mut(SELL_SIGMA) {
            window.sort_by_key(|&r| std::cmp::Reverse(row_len(r)));
        }
        rows.resize(n_chunks * SELL_C, u32::MAX);

        let mut chunk_ptr = Vec::with_capacity(n_chunks + 1);
        let mut chunk_common = Vec::with_capacity(n_chunks);
        let mut slot_len = vec![0u32; n_chunks * SELL_C];
        let mut cols = Vec::new();
        let mut src = Vec::new();
        chunk_ptr.push(0u32);
        for c in 0..n_chunks {
            let slots = &rows[c * SELL_C..(c + 1) * SELL_C];
            for (l, &r) in slots.iter().enumerate() {
                slot_len[c * SELL_C + l] = if r == u32::MAX { 0 } else { row_len(r) };
            }
            let common =
                (0..SELL_C).map(|l| slot_len[c * SELL_C + l]).min().unwrap_or(0);
            chunk_common.push(common);
            // Common part: column-major over the chunk's lanes. Empty
            // tail slots force common == 0, so no placeholder entries
            // are emitted for them here.
            for k in 0..common {
                for &r in slots {
                    let e = a.row_ptr[r as usize] + k;
                    cols.push(a.col_idx[e as usize]);
                    src.push(e);
                }
            }
            // Remainders: each lane's leftover entries, in CSR order.
            for (l, &r) in slots.iter().enumerate() {
                if r == u32::MAX {
                    continue;
                }
                let lo = a.row_ptr[r as usize] + common;
                let hi = a.row_ptr[r as usize] + slot_len[c * SELL_C + l];
                for e in lo..hi {
                    cols.push(a.col_idx[e as usize]);
                    src.push(e);
                }
            }
            chunk_ptr.push(cols.len() as u32);
        }
        SellStructure { n, rows, chunk_ptr, chunk_common, slot_len, cols, src }
    }
}

impl SellMatrix {
    /// Shape the sparsity pattern of `a` into SELL-C-σ and load its
    /// current values.
    pub fn from_csr(a: &CsrMatrix) -> SellMatrix {
        SellMatrix::with_values(Arc::new(SellStructure::from_csr(a)), &a.values)
    }

    /// A matrix on an existing structure holding `csr_values`, the value
    /// array of a CSR matrix with the pattern the structure was shaped
    /// from.
    pub fn with_values(s: Arc<SellStructure>, csr_values: &[f64]) -> SellMatrix {
        let vals = s.src.iter().map(|&e| csr_values[e as usize]).collect();
        SellMatrix { n: s.n, s, vals }
    }

    /// Refresh the values from the source CSR value array (one gather
    /// pass; the pattern must be the one this structure was built from).
    pub fn update_values(&mut self, csr_values: &[f64]) {
        for (v, &s) in self.vals.iter_mut().zip(&self.s.src) {
            *v = csr_values[s as usize];
        }
    }

    /// Number of chunks.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.s.chunk_common.len()
    }

    /// Stored entries (== the source CSR nnz: no padding entries).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.s.cols.len()
    }

    /// y = A x over the chunk range `lo..hi` (each chunk writes only
    /// its own rows, so disjoint chunk ranges may run concurrently).
    ///
    /// Per row the accumulation order is exactly the CSR entry order,
    /// so each `y[row]` is bit-identical to [`CsrMatrix::spmv`].
    pub fn spmv_chunk_range(&self, lo: usize, hi: usize, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(y.len(), self.n);
        // SAFETY: exclusive borrow of the full output slice.
        unsafe { self.spmv_chunk_range_ptr(lo, hi, x, y.as_mut_ptr()) }
    }

    /// [`SellMatrix::spmv_chunk_range`] writing through a raw output
    /// pointer, for concurrent sweeps where disjoint chunk ranges own
    /// disjoint rows of `y`.
    ///
    /// # Safety
    /// `y` must be valid for writes at every row index of chunks
    /// `lo..hi`, and no other thread may access those rows concurrently.
    pub unsafe fn spmv_chunk_range_ptr(&self, lo: usize, hi: usize, x: &[f64], y: *mut f64) {
        // Raw pointers in the inner loops: the structure invariants
        // (every `cols` entry < n, every chunk offset < nnz) make the
        // accesses in-bounds, and eliding the checks lets the core
        // pipeline the SELL_C independent chains (or the compiler
        // vectorize them) — the whole point of the layout.
        let vals = self.vals.as_ptr();
        let cols = self.s.cols.as_ptr();
        let xp = x.as_ptr();
        for c in lo..hi {
            let base = self.s.chunk_ptr[c] as usize;
            let common = self.s.chunk_common[c] as usize;
            let mut acc = [0.0f64; SELL_C];
            // Common part: SELL_C independent chains, column-major.
            // SAFETY (both paths): `base + k * SELL_C + l <
            // chunk_ptr[c+1] <= nnz` for `k < common`, and every `cols`
            // entry indexes a valid row of the square matrix.
            #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
            unsafe {
                // One full-width gather + mul + add per column. LLVM's
                // autovectorizer caps AVX-512 codegen at 256 bits on
                // server CPUs (`prefer-256-bit` tuning), so the 8-lane
                // chunk is spelled out explicitly. Lane `l` performs
                // exactly the scalar path's `acc[l] += vals[off+l] *
                // x[cols[off+l]]` — separate IEEE mul and add (never
                // contracted to FMA), same `k` order — so each row's
                // result is bit-identical to the scalar loop below.
                use core::arch::x86_64::*;
                const _: () = assert!(SELL_C == 8, "zmm path assumes 8 lanes");
                let mut av = _mm512_setzero_pd();
                for k in 0..common {
                    let off = base + k * SELL_C;
                    let idx = _mm256_loadu_si256(cols.add(off) as *const __m256i);
                    let xv = _mm512_i32gather_pd::<8>(idx, xp);
                    av = _mm512_add_pd(av, _mm512_mul_pd(_mm512_loadu_pd(vals.add(off)), xv));
                }
                _mm512_storeu_pd(acc.as_mut_ptr(), av);
            }
            #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
            for k in 0..common {
                let off = base + k * SELL_C;
                for (l, a) in acc.iter_mut().enumerate() {
                    unsafe {
                        let col = *cols.add(off + l) as usize;
                        *a += *vals.add(off + l) * *xp.add(col);
                    }
                }
            }
            // Per-lane remainders, then the row writes.
            let mut off = base + common * SELL_C;
            for (l, &a0) in acc.iter().enumerate() {
                let row = self.s.rows[c * SELL_C + l];
                if row == u32::MAX {
                    continue;
                }
                let extra = self.s.slot_len[c * SELL_C + l] as usize - common;
                let mut a = a0;
                for _ in 0..extra {
                    // SAFETY: as above — remainder entries of chunk `c`.
                    unsafe {
                        a += *vals.add(off) * *xp.add(*cols.add(off) as usize);
                    }
                    off += 1;
                }
                unsafe { *y.add(row as usize) = a };
            }
        }
    }

    /// `Y = A X` for three interleaved columns (`x[3 j + c]` is entry
    /// `j` of column `c`, and so is `y`) over the chunk range `lo..hi`:
    /// one index load and one value load per stored entry serve all
    /// three columns, whose entries of `x` sit side by side.
    ///
    /// Per row and column the accumulation is the one of
    /// [`SellMatrix::spmv_chunk_range_ptr`] on that column alone, so
    /// `y[3 row + c]` carries the bits of [`CsrMatrix::spmv`].
    ///
    /// # Safety
    /// `y` must be valid for writes at `3 row .. 3 row + 3` for every
    /// row of chunks `lo..hi`, and no other thread may access those
    /// entries concurrently.
    pub unsafe fn spmm3_chunk_range_ptr(&self, lo: usize, hi: usize, x: &[f64], y: *mut f64) {
        // The raw reads below go up to `x[3 (n - 1) + 2]`.
        assert_eq!(x.len(), 3 * self.n);
        let vals = self.vals.as_ptr();
        let cols = self.s.cols.as_ptr();
        let xp = x.as_ptr();
        for c in lo..hi {
            let base = self.s.chunk_ptr[c] as usize;
            let common = self.s.chunk_common[c] as usize;
            // Common part: SELL_C independent rows, column-major.
            let mut acc = [RowSums3::zero(); SELL_C];
            for k in 0..common {
                let off = base + k * SELL_C;
                for (l, a) in acc.iter_mut().enumerate() {
                    // SAFETY: `off + l < chunk_ptr[c + 1] <= nnz` for
                    // `k < common`; every `cols` entry is `< n`, so its
                    // three entries of `x` exist by the assertion above.
                    unsafe { a.add(*vals.add(off + l), xp.add(3 * *cols.add(off + l) as usize)) };
                }
            }
            // Per-lane remainders, then the row writes.
            let mut off = base + common * SELL_C;
            for (l, a) in acc.iter_mut().enumerate() {
                let row = self.s.rows[c * SELL_C + l];
                if row == u32::MAX {
                    continue;
                }
                let extra = self.s.slot_len[c * SELL_C + l] as usize - common;
                for _ in 0..extra {
                    // SAFETY: as above — remainder entries of chunk `c`.
                    unsafe { a.add(*vals.add(off), xp.add(3 * *cols.add(off) as usize)) };
                    off += 1;
                }
                // SAFETY: the caller owns `y[3 row .. 3 row + 3]`.
                unsafe { a.store(y.add(3 * row as usize)) };
            }
        }
    }

    /// y = A x (serial, whole matrix).
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        cfpd_telemetry::count!("solver.sell_spmv_calls");
        self.spmv_chunk_range(0, self.num_chunks(), x, y);
    }

    /// Entry-balanced contiguous chunk ranges for parallel sweeps (the
    /// SELL analogue of [`CsrMatrix::row_chunks`]).
    pub fn chunk_ranges(&self, max_ranges: usize) -> Vec<std::ops::Range<usize>> {
        cfpd_runtime::balanced_ranges(&self.s.chunk_ptr, max_ranges)
    }
}

/// The running sums of one row over three interleaved columns. Every
/// step is `sum[c] += v * x[c]` with a separate IEEE multiply and add,
/// the scalar row loop's operations on each column.
///
/// With AVX-512VL the three sums share one 256-bit register, so an
/// entry costs one (masked, three-element) load of `x`, one multiply and
/// one add for all three columns; [`SELL_C`] rows in flight hide the add
/// latency. LLVM does not form these from the array version below.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f", target_feature = "avx512vl"))]
#[derive(Clone, Copy)]
struct RowSums3(core::arch::x86_64::__m256d);

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f", target_feature = "avx512vl"))]
impl RowSums3 {
    /// Lanes 0..3 hold the columns; lane 3 is never loaded or stored.
    const COLUMNS: u8 = 0b0111;

    #[inline(always)]
    fn zero() -> RowSums3 {
        // SAFETY (every `unsafe` of this impl): avx512f and avx512vl are
        // statically enabled in this cfg; masked-out lanes touch no memory.
        RowSums3(unsafe { core::arch::x86_64::_mm256_setzero_pd() })
    }

    /// # Safety
    /// `x` must be valid for reads of three `f64`.
    #[inline(always)]
    unsafe fn add(&mut self, v: f64, x: *const f64) {
        use core::arch::x86_64::*;
        unsafe {
            let xv = _mm256_maskz_loadu_pd(Self::COLUMNS, x);
            self.0 = _mm256_add_pd(self.0, _mm256_mul_pd(_mm256_set1_pd(v), xv));
        }
    }

    /// # Safety
    /// `y` must be valid for writes of three `f64`.
    #[inline(always)]
    unsafe fn store(self, y: *mut f64) {
        unsafe { core::arch::x86_64::_mm256_mask_storeu_pd(y, Self::COLUMNS, self.0) };
    }
}

#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f", target_feature = "avx512vl")))]
#[derive(Clone, Copy)]
struct RowSums3([f64; 3]);

#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f", target_feature = "avx512vl")))]
impl RowSums3 {
    #[inline(always)]
    fn zero() -> RowSums3 {
        RowSums3([0.0; 3])
    }

    /// # Safety
    /// `x` must be valid for reads of three `f64`.
    #[inline(always)]
    unsafe fn add(&mut self, v: f64, x: *const f64) {
        for (c, sum) in self.0.iter_mut().enumerate() {
            *sum += v * unsafe { *x.add(c) };
        }
    }

    /// # Safety
    /// `y` must be valid for writes of three `f64`.
    #[inline(always)]
    unsafe fn store(self, y: *mut f64) {
        unsafe { y.copy_from_nonoverlapping(self.0.as_ptr(), 3) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_mesh::{generate_airway, AirwaySpec};
    use cfpd_testkit::prop::{self, PropConfig};
    use cfpd_testkit::rng::Rng;

    fn airway_matrix() -> CsrMatrix {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let n2e = am.mesh.node_to_elements();
        let mut a = CsrMatrix::from_mesh(&am.mesh, &n2e);
        let mut rng = Rng::new(0x5e11_c516);
        for v in &mut a.values {
            *v = rng.range_f64(-2.0, 2.0);
        }
        a
    }

    /// Random small CSR matrix with arbitrary (possibly empty) rows.
    fn random_csr(rng: &mut Rng) -> CsrMatrix {
        let n = rng.range_usize(1, 200);
        let mut row_ptr = vec![0u32];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for _ in 0..n {
            let len = rng.range_usize(0, 12.min(n));
            let mut cols: Vec<u32> =
                (0..len).map(|_| rng.range_usize(0, n) as u32).collect();
            cols.sort_unstable();
            cols.dedup();
            for c in cols {
                col_idx.push(c);
                // Include exact zeros and negative-zero-prone values.
                values.push(match rng.range_usize(0, 5) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.range_f64(-10.0, 10.0),
                });
            }
            row_ptr.push(col_idx.len() as u32);
        }
        CsrMatrix { n, row_ptr: row_ptr.into(), col_idx: col_idx.into(), values }
    }

    #[test]
    fn sell_structure_accounts_every_entry() {
        let a = airway_matrix();
        let s = SellMatrix::from_csr(&a);
        assert_eq!(s.nnz(), a.nnz(), "SELL must store exactly the CSR entries");
        // Every row appears exactly once among the slots.
        let mut seen = vec![false; a.n];
        for &r in &s.s.rows {
            if r != u32::MAX {
                assert!(!seen[r as usize], "row {r} stored twice");
                seen[r as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn sell_spmv_bit_identical_to_csr_on_airway() {
        let a = airway_matrix();
        let s = SellMatrix::from_csr(&a);
        let x: Vec<f64> = (0..a.n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y_csr = vec![0.0; a.n];
        let mut y_sell = vec![0.0; a.n];
        a.spmv(&x, &mut y_csr);
        s.spmv(&x, &mut y_sell);
        for r in 0..a.n {
            assert_eq!(
                y_sell[r].to_bits(),
                y_csr[r].to_bits(),
                "row {r}: sell {} vs csr {}",
                y_sell[r],
                y_csr[r]
            );
        }
    }

    // SpMV and the three-column sweep on the SELL shape against
    // `CsrMatrix::spmv` per row (and column): random shapes with empty
    // rows, chunks with empty tail slots (`n` is rarely a multiple of 8)
    // and signed zeros, whose row sums a padded accumulation would flip.
    #[test]
    fn prop_sell_spmv_bit_identical_per_row() {
        use crate::parallel::spmm3_sweep;
        let pool = cfpd_runtime::ThreadPool::new(2);
        prop::check(
            "sell spmv and spmm3 bit-identical per row",
            PropConfig::cases(60),
            &prop::usize_range(0, 1 << 30),
            |&seed| {
                let mut rng = Rng::new(seed as u64);
                let a = random_csr(&mut rng);
                let s = SellMatrix::from_csr(&a);
                let mut signed_zeros_and_values = || -> Vec<f64> {
                    (0..a.n)
                        .map(|_| match rng.range_usize(0, 6) {
                            0 => 0.0,
                            1 => -0.0,
                            _ => rng.range_f64(-5.0, 5.0),
                        })
                        .collect()
                };
                let columns: [Vec<f64>; 3] = std::array::from_fn(|_| signed_zeros_and_values());
                let mut want = [vec![0.0; a.n], vec![0.0; a.n], vec![0.0; a.n]];
                for (x, y) in columns.iter().zip(&mut want) {
                    a.spmv(x, y);
                }

                let mut y_sell = vec![0.0; a.n];
                s.spmv(&columns[0], &mut y_sell);
                for r in 0..a.n {
                    assert_eq!(
                        y_sell[r].to_bits(),
                        want[0][r].to_bits(),
                        "row {r}: sell {:?} != csr {:?}",
                        y_sell[r],
                        want[0][r]
                    );
                }

                let x3: Vec<f64> = (0..3 * a.n).map(|k| columns[k % 3][k / 3]).collect();
                // Stale output must be overwritten, not added to.
                let mut y3 = vec![f64::NAN; 3 * a.n];
                spmm3_sweep(&s, &pool, &s.chunk_ranges(5), &x3, &mut y3);
                for (k, y) in y3.iter().enumerate() {
                    assert_eq!(
                        y.to_bits(),
                        want[k % 3][k / 3].to_bits(),
                        "spmm3 row {} column {}: {y:?} != {:?}",
                        k / 3,
                        k % 3,
                        want[k % 3][k / 3]
                    );
                }
            },
        );
    }

    #[test]
    fn update_values_tracks_reassembly() {
        let mut a = airway_matrix();
        let mut s = SellMatrix::from_csr(&a);
        // "Reassemble" with different values, refresh, compare again.
        let mut rng = Rng::new(77);
        for v in &mut a.values {
            *v = rng.range_f64(-1.0, 1.0);
        }
        s.update_values(&a.values);
        let x: Vec<f64> = (0..a.n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let mut y_csr = vec![0.0; a.n];
        let mut y_sell = vec![0.0; a.n];
        a.spmv(&x, &mut y_csr);
        s.spmv(&x, &mut y_sell);
        for r in 0..a.n {
            assert_eq!(y_sell[r].to_bits(), y_csr[r].to_bits(), "row {r}");
        }
    }

    #[test]
    fn chunk_ranges_cover_all_chunks() {
        let a = airway_matrix();
        let s = SellMatrix::from_csr(&a);
        let ranges = s.chunk_ranges(7);
        let mut next = 0;
        for r in &ranges {
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, s.num_chunks());
    }
}

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
use crate::shared::SharedOut;
use std::ops::Range;
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
/// slot, the chunk layout and the column indices. Built once per pattern
/// and shared by every [`SellMatrix`] on it.
#[derive(Debug)]
pub struct SellStructure {
    n: usize,
    /// Row stored in each slot (`chunk * SELL_C + lane`); `u32::MAX`
    /// marks an empty tail slot.
    rows: Vec<u32>,
    /// Slot of each row (the inverse of `rows`).
    slot_of_row: Vec<u32>,
    /// Entry offset of each chunk into `cols`/`vals`.
    chunk_ptr: Vec<u32>,
    /// Column-major ("common") length of each chunk: the shortest row.
    chunk_common: Vec<u32>,
    /// Row length per slot.
    slot_len: Vec<u32>,
    /// Column indices (chunk layout: common part column-major, then the
    /// per-lane remainders contiguous per lane).
    cols: Vec<u32>,
}

/// A sparse matrix in SELL-C-σ form: a shared [`SellStructure`] plus
/// this matrix's own values, the one value array it has. Assembly
/// scatters into it directly ([`crate::batch`]); code that thinks in CSR
/// entries reads it in their order ([`SellMatrix::csr_values`],
/// [`SellMatrix::to_csr`]).
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
        // The kernels' unchecked reads of `x` rest on this.
        assert!(a.col_idx.iter().all(|&j| (j as usize) < n), "a column index is out of range");
        let n_chunks = n.div_ceil(SELL_C);
        // σ-sort: within each window, order rows by descending length
        // (stable, so equal-length rows keep their natural order).
        let mut rows: Vec<u32> = (0..n as u32).collect();
        let row_len = |r: u32| a.row_ptr[r as usize + 1] - a.row_ptr[r as usize];
        for window in rows.chunks_mut(SELL_SIGMA) {
            window.sort_by_key(|&r| std::cmp::Reverse(row_len(r)));
        }
        rows.resize(n_chunks * SELL_C, u32::MAX);
        let mut slot_of_row = vec![0u32; n];
        for (slot, &r) in rows.iter().enumerate().take(n) {
            slot_of_row[r as usize] = slot as u32;
        }

        let mut chunk_ptr = Vec::with_capacity(n_chunks + 1);
        let mut chunk_common = Vec::with_capacity(n_chunks);
        let mut slot_len = vec![0u32; n_chunks * SELL_C];
        let mut cols = Vec::with_capacity(a.nnz());
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
                    cols.push(a.col_idx[(a.row_ptr[r as usize] + k) as usize]);
                }
            }
            // Remainders: each lane's leftover entries, in CSR order.
            for (l, &r) in slots.iter().enumerate() {
                if r == u32::MAX {
                    continue;
                }
                let lo = a.row_ptr[r as usize] + common;
                let hi = a.row_ptr[r as usize] + slot_len[c * SELL_C + l];
                cols.extend_from_slice(&a.col_idx[lo as usize..hi as usize]);
            }
            chunk_ptr.push(cols.len() as u32);
        }
        SellStructure { n, rows, slot_of_row, chunk_ptr, chunk_common, slot_len, cols }
    }

    /// The entries of `row` — value index and column — in CSR entry
    /// (ascending column) order: its first `common` entries column-major
    /// in the chunk, then its remainder, which follows the remainders of
    /// the lanes before it.
    pub(crate) fn row_entries(&self, row: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        let slot = self.slot_of_row[row] as usize;
        let (c, lane) = (slot / SELL_C, slot % SELL_C);
        let (base, common) = (self.chunk_ptr[c] as usize, self.chunk_common[c] as usize);
        let before: usize =
            self.slot_len[c * SELL_C..slot].iter().map(|&len| len as usize - common).sum();
        let rest = base + common * SELL_C + before;
        let extra = self.slot_len[slot] as usize - common;
        let entries = (0..common).map(move |k| base + k * SELL_C + lane);
        entries.chain(rest..rest + extra).map(|p| (p, self.cols[p]))
    }

    /// The slot map: the value index of every CSR entry, rows ascending
    /// and each row in column order — CSR entry `e` is the `e`-th item.
    /// A bijection onto `0..nnz`; walking it reads a [`SellMatrix`] in
    /// the order its source CSR matrix stores its values.
    pub(crate) fn csr_order(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).flat_map(|row| self.row_entries(row).map(|(p, _)| p))
    }

    /// Value index of entry (`row`, `col`); `None` if it is not in the
    /// pattern.
    pub fn position(&self, row: usize, col: usize) -> Option<usize> {
        self.row_entries(row).find(|&(_, c)| c as usize == col).map(|(p, _)| p)
    }
}

impl SellMatrix {
    /// Shape the sparsity pattern of `a` into SELL-C-σ and load its
    /// values.
    pub fn from_csr(a: &CsrMatrix) -> SellMatrix {
        let mut m = SellMatrix::zeros(Arc::new(SellStructure::from_csr(a)));
        let s = Arc::clone(&m.s);
        for (p, &v) in s.csr_order().zip(&a.values) {
            m.vals[p] = v;
        }
        m
    }

    /// A zero matrix on an existing structure.
    pub fn zeros(s: Arc<SellStructure>) -> SellMatrix {
        SellMatrix { n: s.n, vals: vec![0.0; s.cols.len()], s }
    }

    /// The structure the values are laid out on.
    pub fn structure(&self) -> &Arc<SellStructure> {
        &self.s
    }

    /// The values, in SELL order (index them with the structure's
    /// value indices).
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// The values, for scatter-assembly and cross-rank reduction.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// The values in CSR entry order ([`SellStructure::csr_order`]).
    pub fn csr_values(&self) -> impl Iterator<Item = f64> + '_ {
        self.s.csr_order().map(|p| self.vals[p])
    }

    /// The same matrix in CSR storage: the oracles' view of it.
    pub fn to_csr(&self) -> CsrMatrix {
        let s = &*self.s;
        let mut row_ptr = Vec::with_capacity(s.n + 1);
        row_ptr.push(0u32);
        for &slot in &s.slot_of_row {
            row_ptr.push(row_ptr[row_ptr.len() - 1] + s.slot_len[slot as usize]);
        }
        let col_idx: Vec<u32> = s.csr_order().map(|p| s.cols[p]).collect();
        let values = self.csr_values().collect();
        CsrMatrix { n: s.n, row_ptr: row_ptr.into(), col_idx: col_idx.into(), values }
    }

    /// Replace a row with the identity (Dirichlet boundary conditions).
    pub fn set_dirichlet_row(&mut self, row: usize) {
        for (p, col) in self.s.row_entries(row) {
            self.vals[p] = if col as usize == row { 1.0 } else { 0.0 };
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

    /// y = A x over the chunks `chunks`, each row written once through
    /// `y` (a chunk writes only its own rows, so disjoint chunk ranges may
    /// run concurrently).
    ///
    /// Per row the accumulation order is exactly the CSR entry order,
    /// so each `y[row]` is bit-identical to [`CsrMatrix::spmv`].
    pub(crate) fn spmv_chunk_range(&self, chunks: Range<usize>, x: &[f64], y: &SharedOut<f64>) {
        // The reads below are unchecked: they touch `x` at `cols` entries,
        // each `< n`, and the entries of chunks `chunks`, all below
        // `chunk_ptr[chunks.end]` (`from_csr` builds `chunk_ptr`
        // ascending). Checking each chunk's end instead made the serial
        // SpMV ≈ 10 % slower (20 alternated runs of a 400-sweep loop on
        // the quick mesh, 2-vCPU AVX-512 host).
        assert_eq!(x.len(), self.n);
        let (vals, cols) = (&self.vals[..], &self.s.cols[..]);
        assert!(self.s.chunk_ptr[chunks.end] as usize <= vals.len());
        for c in chunks {
            let base = self.s.chunk_ptr[c] as usize;
            let common = self.s.chunk_common[c] as usize;
            let mut acc = [0.0f64; SELL_C];
            // Common part: SELL_C independent chains, column-major.
            #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
            {
                // SAFETY: `base + k * SELL_C + 8 <= chunk_ptr[c + 1] <=
                // nnz` for `k < common`, and every `cols` entry indexes
                // `x` (see above).
                //
                // One full-width gather + mul + add per column. LLVM's
                // autovectorizer caps AVX-512 codegen at 256 bits on
                // server CPUs (`prefer-256-bit` tuning), so the 8-lane
                // chunk is spelled out explicitly. Lane `l` performs
                // exactly the scalar path's `acc[l] += vals[off+l] *
                // x[cols[off+l]]` — separate IEEE mul and add (never
                // contracted to FMA), same `k` order — so each row's
                // result is bit-identical to the scalar loop below.
                unsafe {
                    use core::arch::x86_64::*;
                    const _: () = assert!(SELL_C == 8, "zmm path assumes 8 lanes");
                    let mut av = _mm512_setzero_pd();
                    for k in 0..common {
                        let off = base + k * SELL_C;
                        let idx = _mm256_loadu_si256(cols.as_ptr().add(off) as *const __m256i);
                        let xv = _mm512_i32gather_pd::<8>(idx, x.as_ptr());
                        av = _mm512_add_pd(av, _mm512_mul_pd(_mm512_loadu_pd(vals.as_ptr().add(off)), xv));
                    }
                    _mm512_storeu_pd(acc.as_mut_ptr(), av);
                }
            }
            #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
            for k in 0..common {
                let off = base + k * SELL_C;
                for (l, a) in acc.iter_mut().enumerate() {
                    // SAFETY: `off + l < chunk_ptr[c + 1] <= nnz`, every
                    // `cols` entry `< n` (see above). Slice-checked reads
                    // here made the serial SpMV ≈ 1.7× slower (16
                    // alternated runs of a 400-sweep loop on the quick
                    // mesh, `target-cpu=x86-64-v3` build).
                    *a += unsafe { *vals.get_unchecked(off + l) * *x.get_unchecked(*cols.get_unchecked(off + l) as usize) };
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
                for p in off..off + extra {
                    // SAFETY: `p < chunk_ptr[c + 1] <= nnz`, every `cols`
                    // entry is `< n` (asserted by `SellStructure::from_csr`)
                    // and `x.len() == n`. Slice-checked reads made the
                    // serial SpMV ≈ 11 % slower (13.1 → 14.6 µs, five
                    // alternated 2 000-sweep runs on the quick mesh, 2-vCPU
                    // AVX-512 host).
                    a += unsafe { *vals.get_unchecked(p) * *x.get_unchecked(*cols.get_unchecked(p) as usize) };
                }
                off += extra;
                y.set(row as usize, a);
            }
        }
    }

    /// `Y = A X` for three interleaved columns (`x[3 j + c]` is entry
    /// `j` of column `c`, and so is `y`) over the chunks `chunks`: one
    /// index load and one value load per stored entry serve all three
    /// columns, whose entries of `x` sit side by side.
    ///
    /// Per row and column the accumulation is the one of
    /// [`SellMatrix::spmv_chunk_range`] on that column alone, so
    /// `y[3 row + c]` carries the bits of [`CsrMatrix::spmv`].
    pub(crate) fn spmm3_chunk_range(&self, chunks: Range<usize>, x: &[f64], y: &SharedOut<f64>) {
        assert_eq!(x.len(), 3 * self.n);
        let (vals, cols) = (&self.vals[..], &self.s.cols[..]);
        assert!(self.s.chunk_ptr[chunks.end] as usize <= vals.len());
        // SAFETY: `p < nnz` for every entry `p` of a chunk of `chunks`
        // (asserted above: `chunk_ptr` ascends), and every `cols` entry is
        // `< n` (asserted by `SellStructure::from_csr`), so
        // `x[3 j .. 3 j + 3]` exists (`x.len() == 3 n`, asserted above).
        // Checked reads made `spmm3/sell` 1.2–1.9× slower in eight
        // alternated runs of a 1 000-sweep loop on the quick mesh (2-vCPU
        // AVX-512 host).
        let entry = |p: usize| unsafe {
            let j = 3 * *cols.get_unchecked(p) as usize;
            (*vals.get_unchecked(p), &*(x.as_ptr().add(j) as *const [f64; 3]))
        };
        for c in chunks {
            let base = self.s.chunk_ptr[c] as usize;
            let common = self.s.chunk_common[c] as usize;
            // Common part: SELL_C independent rows, column-major.
            let mut acc = [RowSums3::zero(); SELL_C];
            for k in 0..common {
                for (l, a) in acc.iter_mut().enumerate() {
                    let (v, x) = entry(base + k * SELL_C + l);
                    a.add(v, x);
                }
            }
            // Per-lane remainders, then the row writes.
            let mut off = base + common * SELL_C;
            for (l, a) in acc.iter_mut().enumerate() {
                let row = self.s.rows[c * SELL_C + l] as usize;
                if row == u32::MAX as usize {
                    continue;
                }
                let extra = self.s.slot_len[c * SELL_C + l] as usize - common;
                for p in off..off + extra {
                    let (v, x) = entry(p);
                    a.add(v, x);
                }
                off += extra;
                let out = y.claim(3 * row..3 * row + 3);
                a.store((&mut *out.slice).try_into().expect("three columns"));
            }
        }
    }

    /// y = A x (serial, whole matrix).
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        cfpd_telemetry::count!("solver.sell_spmv_calls");
        self.spmv_chunk_range(0..self.num_chunks(), x, &SharedOut::new(y));
    }

    /// Entry-balanced contiguous chunk ranges for parallel sweeps (the
    /// SELL analogue of [`CsrMatrix::row_chunks`]).
    pub fn chunk_ranges(&self, max_ranges: usize) -> Vec<Range<usize>> {
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

    #[inline(always)]
    fn add(&mut self, v: f64, x: &[f64; 3]) {
        use core::arch::x86_64::*;
        unsafe {
            let xv = _mm256_maskz_loadu_pd(Self::COLUMNS, x.as_ptr());
            self.0 = _mm256_add_pd(self.0, _mm256_mul_pd(_mm256_set1_pd(v), xv));
        }
    }

    #[inline(always)]
    fn store(self, y: &mut [f64; 3]) {
        unsafe { core::arch::x86_64::_mm256_mask_storeu_pd(y.as_mut_ptr(), Self::COLUMNS, self.0) };
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

    #[inline(always)]
    fn add(&mut self, v: f64, x: &[f64; 3]) {
        for (sum, &xc) in self.0.iter_mut().zip(x) {
            *sum += v * xc;
        }
    }

    #[inline(always)]
    fn store(self, y: &mut [f64; 3]) {
        *y = self.0;
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

    /// The gather map, the oracle of the slot map: for each value index,
    /// the CSR entry it holds, laid out chunk by chunk as `from_csr` lays
    /// out `cols` and without `row_entries`.
    fn gather_map(a: &CsrMatrix) -> Vec<u32> {
        let s = SellStructure::from_csr(a);
        let mut src = Vec::with_capacity(a.nnz());
        for c in 0..s.chunk_common.len() {
            let slots = &s.rows[c * SELL_C..(c + 1) * SELL_C];
            let common = s.chunk_common[c];
            for k in 0..common {
                src.extend(slots.iter().map(|&r| a.row_ptr[r as usize] + k));
            }
            for (l, &r) in slots.iter().enumerate() {
                if r != u32::MAX {
                    let lo = a.row_ptr[r as usize];
                    src.extend(lo + common..lo + s.slot_len[c * SELL_C + l]);
                }
            }
        }
        src
    }

    /// What the slot map `map` (CSR entry → value index) must be for the
    /// SELL shape `m` of `a`: a bijection onto `0..nnz`, the inverse of
    /// the gather map, and the reading of `m`'s values in CSR order that
    /// gives back `a`'s values bit for bit.
    fn check_slot_map(a: &CsrMatrix, m: &SellMatrix, map: &[usize]) -> Result<(), String> {
        let nnz = a.nnz();
        if map.len() != nnz {
            return Err(format!("{} entries mapped, {nnz} stored", map.len()));
        }
        let mut seen = vec![false; nnz];
        for (e, &p) in map.iter().enumerate() {
            if p >= nnz || std::mem::replace(&mut seen[p], true) {
                return Err(format!("entry {e}: value index {p} out of range or taken twice"));
            }
        }
        for (p, &e) in gather_map(a).iter().enumerate() {
            if map[e as usize] != p {
                let back = map[e as usize];
                return Err(format!("value index {p} gathers entry {e}, which maps to {back}"));
            }
        }
        for (e, &p) in map.iter().enumerate() {
            if m.values()[p].to_bits() != a.values[e].to_bits() {
                return Err(format!("entry {e} reads {:?}, not {:?}", m.values()[p], a.values[e]));
            }
        }
        Ok(())
    }

    // The slot map on random shapes: `n` rarely a multiple of 8 or 64
    // (empty tail slots, a short last σ-window), empty rows, and chunks
    // whose rows are as long as the common part or longer. The run must
    // meet each of those shapes, or it proves nothing about them.
    #[test]
    fn prop_slot_map_is_the_inverse_of_the_gather_map() {
        use std::cell::Cell;
        let (tails, windows, at_common, past_common) =
            (Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0));
        prop::check(
            "slot map is a bijection onto 0..nnz and inverts the gather map",
            PropConfig::cases(60),
            &prop::usize_range(0, 1 << 30),
            |&seed| {
                let a = random_csr(&mut Rng::new(seed as u64));
                let m = SellMatrix::from_csr(&a);
                let map: Vec<usize> = m.structure().csr_order().collect();
                check_slot_map(&a, &m, &map).unwrap();
                // Row by row the columns come out in CSR order, and the
                // CSR view is the source matrix.
                for row in 0..a.n {
                    let want = &a.col_idx[a.row_ptr[row] as usize..a.row_ptr[row + 1] as usize];
                    let got: Vec<u32> = m.s.row_entries(row).map(|(_, col)| col).collect();
                    assert_eq!(got, want, "row {row}");
                }
                let back = m.to_csr();
                assert_eq!((&back.row_ptr, &back.col_idx), (&a.row_ptr, &a.col_idx));
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&back.values), bits(&a.values));

                let s = &m.s;
                tails.set(tails.get() + usize::from(!a.n.is_multiple_of(SELL_C)));
                let short_window = a.n > SELL_SIGMA && !a.n.is_multiple_of(SELL_SIGMA);
                windows.set(windows.get() + usize::from(short_window));
                for (slot, &len) in s.slot_len.iter().enumerate() {
                    let common = s.chunk_common[slot / SELL_C];
                    if common > 0 {
                        at_common.set(at_common.get() + usize::from(len == common));
                        past_common.set(past_common.get() + usize::from(len > common));
                    }
                }
            },
        );
        for (what, count) in [
            ("empty tail slots", tails),
            ("a short last σ-window", windows),
            ("rows of the common length", at_common),
            ("rows past the common length", past_common),
        ] {
            assert!(count.get() > 0, "no case had {what}");
        }
    }

    // The negative control of the check above: one swapped pair of value
    // indices must fail it, though the map stays a bijection.
    #[test]
    fn a_slot_map_with_one_swap_fails_the_check() {
        let a = airway_matrix();
        let m = SellMatrix::from_csr(&a);
        let mut map: Vec<usize> = m.structure().csr_order().collect();
        check_slot_map(&a, &m, &map).unwrap();
        let last = map.len() - 1;
        assert_ne!(a.values[0], a.values[last]);
        map.swap(0, last);
        let err = check_slot_map(&a, &m, &map).expect_err("a swapped slot must fail");
        assert!(err.contains("gathers entry"), "{err}");
    }

    // What the solver reads and writes by row: the Dirichlet rows and the
    // diagonal that `position` finds agree with the CSR ones.
    #[test]
    fn row_operations_match_the_csr_ones() {
        let mut a = airway_matrix();
        let mut m = SellMatrix::from_csr(&a);
        for row in [0, 7, a.n / 2, a.n - 1] {
            a.set_dirichlet_row(row);
            m.set_dirichlet_row(row);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&m.to_csr().values), bits(&a.values));
        for i in 0..a.n {
            let diagonal = m.values()[m.structure().position(i, i).expect("diagonal listed")];
            assert_eq!(diagonal.to_bits(), a.values[a.entry_index(i, i)].to_bits(), "row {i}");
        }
        assert_eq!(m.structure().position(0, a.n), None);
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

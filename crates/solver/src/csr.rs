//! CSR sparse matrices with the three scatter-add disciplines the paper
//! compares: atomic updates, and plain updates under an external
//! no-conflict guarantee (coloring / multidependences).

use cfpd_mesh::{Csr, Mesh};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Square CSR matrix over mesh nodes. The sparsity pattern is shared
/// by `Arc`: a clone owns its values only.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    pub n: usize,
    pub row_ptr: Arc<[u32]>,
    pub col_idx: Arc<[u32]>,
    pub values: Vec<f64>,
}

/// Shared view over an `f64` slice for concurrent scatter-add **with
/// atomic adds** (the `omp atomic` strategy). Created from an exclusive
/// borrow, so the cast to atomic words is sound.
pub struct AtomicView<'a> {
    values: &'a [AtomicU64],
    /// Number of atomic adds performed (for the performance model's
    /// atomic-penalty accounting).
    pub atomic_ops: AtomicUsize,
}

impl<'a> AtomicView<'a> {
    /// Wrap a mutable slice for concurrent atomic accumulation.
    pub fn from_slice(s: &'a mut [f64]) -> AtomicView<'a> {
        let ptr = s.as_mut_ptr() as *const AtomicU64;
        // SAFETY: f64 and AtomicU64 have identical size/alignment; the
        // exclusive borrow is converted into shared atomic access.
        let values = unsafe { std::slice::from_raw_parts(ptr, s.len()) };
        AtomicView { values, atomic_ops: AtomicUsize::new(0) }
    }
}

/// Shared view over an `f64` slice for concurrent scatter-add **without
/// atomics**, relying on an external guarantee that no two threads touch
/// the same entry concurrently (coloring / multidependences). The
/// guarantee is the caller's obligation; the strategy tests verify it by
/// comparing the result against serial assembly.
pub struct DisjointView<'a> {
    values: &'a [UnsafeCell<f64>],
}

impl<'a> DisjointView<'a> {
    /// Wrap a mutable slice for externally-synchronized accumulation.
    pub fn from_slice(s: &'a mut [f64]) -> DisjointView<'a> {
        let ptr = s.as_mut_ptr() as *const UnsafeCell<f64>;
        // SAFETY: same layout; exclusivity delegated to the caller's
        // coloring/multidependence guarantee.
        let values = unsafe { std::slice::from_raw_parts(ptr, s.len()) };
        DisjointView { values }
    }
}

// SAFETY: concurrent access is governed by the no-conflict contract
// documented above; entries touched by different threads are disjoint.
unsafe impl Sync for DisjointView<'_> {}

/// Immutable borrow of a CSR sparsity pattern, usable while the values
/// are mutably viewed for concurrent scatter.
#[derive(Clone, Copy)]
pub struct CsrPattern<'a> {
    pub n: usize,
    row_ptr: &'a [u32],
    col_idx: &'a [u32],
}

impl CsrPattern<'_> {
    /// Flat index of entry (row, col); panics if not in the pattern.
    #[inline]
    pub fn entry_index(&self, row: usize, col: usize) -> usize {
        let lo = self.row_ptr[row] as usize;
        let hi = self.row_ptr[row + 1] as usize;
        let cols = &self.col_idx[lo..hi];
        lo + cols
            .binary_search(&(col as u32))
            .unwrap_or_else(|_| panic!("entry ({row},{col}) not in sparsity pattern"))
    }
}

impl CsrMatrix {
    /// Build the node-node sparsity pattern of a mesh (an entry per pair
    /// of nodes sharing an element, plus the diagonal), values zeroed;
    /// `node_to_elem` is `mesh.node_to_elements()`.
    pub fn from_mesh(mesh: &Mesh, node_to_elem: &Csr) -> CsrMatrix {
        let identity: Vec<u32> = (0..mesh.num_nodes() as u32).collect();
        CsrMatrix::from_adjacency(&mesh.node_adjacency_of(node_to_elem), &identity)
    }

    /// The pattern of [`CsrMatrix::from_mesh`] once the mesh's nodes are
    /// renumbered by `perm` (`perm[old] = new`), from `adj`, its
    /// [`Mesh::node_adjacency`] before: row `perm[v]` lists `perm[v]` and
    /// `perm[w]` for every neighbour `w` of `v`, ascending.
    pub fn from_adjacency(adj: &Csr, perm: &[u32]) -> CsrMatrix {
        let n = perm.len();
        let mut old = vec![0u32; n];
        perm.iter().enumerate().for_each(|(v, &p)| old[p as usize] = v as u32);
        let (mut row_ptr, mut col_idx) = (vec![0u32], Vec::with_capacity(adj.targets.len() + n));
        for (row, &v) in old.iter().enumerate() {
            let start = col_idx.len();
            col_idx.push(row as u32);
            col_idx.extend(adj.row(v as usize).iter().map(|&w| perm[w as usize]));
            col_idx[start..].sort_unstable();
            row_ptr.push(col_idx.len() as u32);
        }
        let nnz = col_idx.len();
        CsrMatrix { n, row_ptr: row_ptr.into(), col_idx: col_idx.into(), values: vec![0.0; nnz] }
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Flat index of entry (row, col); panics if not in the pattern.
    #[inline]
    pub fn entry_index(&self, row: usize, col: usize) -> usize {
        self.pattern().entry_index(row, col)
    }

    /// Add `v` to entry (row, col) — serial scatter.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, v: f64) {
        let i = self.entry_index(row, col);
        self.values[i] += v;
    }

    /// Zero all values, keeping the pattern.
    pub fn clear(&mut self) {
        self.values.iter_mut().for_each(|v| *v = 0.0);
    }

    /// y = A x (serial).
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        cfpd_telemetry::count!("solver.spmv_calls");
        cfpd_telemetry::count!("solver.spmv_rows", self.n as u64);
        for row in 0..self.n {
            let lo = self.row_ptr[row] as usize;
            let hi = self.row_ptr[row + 1] as usize;
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            y[row] = acc;
        }
    }

    /// Diagonal entries (for Jacobi preconditioning).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.values[self.entry_index(i, i)]).collect()
    }

    /// Atomic concurrent-scatter view. Requires `&mut self`, so no other
    /// access can alias the values while the view lives.
    #[cfg(test)]
    pub fn atomic_view(&mut self) -> AtomicView<'_> {
        AtomicView::from_slice(&mut self.values)
    }

    /// Plain concurrent-scatter view (no-conflict contract on callers).
    #[cfg(test)]
    pub fn disjoint_view(&mut self) -> DisjointView<'_> {
        DisjointView::from_slice(&mut self.values)
    }

    /// Split into an immutable pattern handle and the mutable value
    /// slice — needed to look up entry indices while a concurrent
    /// scatter view over the values is live.
    pub(crate) fn split_mut(&mut self) -> (CsrPattern<'_>, &mut [f64]) {
        (
            CsrPattern { n: self.n, row_ptr: &self.row_ptr, col_idx: &self.col_idx },
            &mut self.values,
        )
    }

    /// Immutable pattern handle.
    pub fn pattern(&self) -> CsrPattern<'_> {
        CsrPattern { n: self.n, row_ptr: &self.row_ptr, col_idx: &self.col_idx }
    }

    /// Replace a row with the identity (Dirichlet boundary conditions),
    /// returning the diagonal to 1.
    pub fn set_dirichlet_row(&mut self, row: usize) {
        let lo = self.row_ptr[row] as usize;
        let hi = self.row_ptr[row + 1] as usize;
        for k in lo..hi {
            self.values[k] = if self.col_idx[k] as usize == row { 1.0 } else { 0.0 };
        }
    }
}

impl AtomicView<'_> {
    /// Atomically add `v` at flat index `idx` (CAS loop on the bit
    /// pattern — the portable equivalent of `omp atomic` on a double).
    #[inline]
    pub fn add_at(&self, idx: usize, v: f64) {
        let cell = &self.values[idx];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = f64::to_bits(f64::from_bits(cur) + v);
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        self.atomic_ops.fetch_add(1, Ordering::Relaxed);
    }
}

impl DisjointView<'_> {
    /// Add `v` at flat index `idx` with a plain read-modify-write.
    ///
    /// # Safety
    /// No other thread may access `idx` concurrently (guaranteed by the
    /// coloring / multidependences schedule).
    #[inline]
    pub unsafe fn add_at(&self, idx: usize, v: f64) {
        let p = self.values[idx].get();
        unsafe { *p += v };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_mesh::{generate_airway, AirwaySpec};

    fn demo_matrix() -> CsrMatrix {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let n2e = am.mesh.node_to_elements();
        CsrMatrix::from_mesh(&am.mesh, &n2e)
    }

    #[test]
    fn pattern_contains_diagonal_and_is_sorted() {
        let a = demo_matrix();
        for row in 0..a.n {
            let lo = a.row_ptr[row] as usize;
            let hi = a.row_ptr[row + 1] as usize;
            let cols = &a.col_idx[lo..hi];
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {row} unsorted");
            assert!(cols.binary_search(&(row as u32)).is_ok(), "row {row} lacks diagonal");
        }
    }

    /// Row `i` lists `i` and every node that shares an element with it:
    /// the pattern a walk over the elements finds, whatever the node order.
    #[test]
    fn pattern_lists_exactly_the_nodes_sharing_an_element() {
        use std::collections::BTreeSet;
        let mut mesh = generate_airway(&AirwaySpec::small()).unwrap().mesh;
        let n = mesh.num_nodes() as u32;
        for reversed in [false, true] {
            if reversed {
                mesh.renumber_nodes(&(0..n).rev().collect::<Vec<u32>>());
            }
            let mut rows: Vec<BTreeSet<u32>> = (0..n).map(|i| [i].into()).collect();
            for e in 0..mesh.num_elements() {
                for &i in mesh.elem_nodes(e) {
                    rows[i as usize].extend(mesh.elem_nodes(e));
                }
            }
            let a = CsrMatrix::from_mesh(&mesh, &mesh.node_to_elements());
            for (i, row) in rows.iter().enumerate() {
                let cols = &a.col_idx[a.row_ptr[i] as usize..a.row_ptr[i + 1] as usize];
                assert!(cols.iter().eq(row.iter()), "row {i}, reversed {reversed}");
            }
            assert_eq!(a.values.len(), a.nnz());
        }
    }

    #[test]
    fn pattern_is_symmetric() {
        let a = demo_matrix();
        for row in 0..a.n {
            let lo = a.row_ptr[row] as usize;
            let hi = a.row_ptr[row + 1] as usize;
            for k in lo..hi {
                let col = a.col_idx[k] as usize;
                // (col, row) must exist too.
                let _ = a.entry_index(col, row);
            }
        }
    }

    #[test]
    fn add_and_spmv() {
        // 2x2 matrix [[2, 1], [0, 3]] acting on [1, 2].
        let mut a = CsrMatrix {
            n: 2,
            row_ptr: vec![0, 2, 3].into(),
            col_idx: vec![0, 1, 1].into(),
            values: vec![0.0; 3],
        };
        a.add(0, 0, 2.0);
        a.add(0, 1, 1.0);
        a.add(1, 1, 3.0);
        let mut y = vec![0.0; 2];
        a.spmv(&[1.0, 2.0], &mut y);
        assert_eq!(y, vec![4.0, 6.0]);
        assert_eq!(a.diagonal(), vec![2.0, 3.0]);
    }

    #[test]
    fn atomic_view_concurrent_adds_do_not_lose_updates() {
        let mut a = CsrMatrix {
            n: 1,
            row_ptr: vec![0, 1].into(),
            col_idx: vec![0].into(),
            values: vec![0.0],
        };
        let view = a.atomic_view();
        let pool = cfpd_runtime::ThreadPool::new(4);
        cfpd_runtime::parallel_for(&pool, 0..10_000, 16, |r| {
            for _ in r {
                view.add_at(0, 1.0);
            }
        });
        assert_eq!(view.atomic_ops.load(Ordering::SeqCst), 10_000);
        drop(view);
        assert_eq!(a.values[0], 10_000.0);
    }

    #[test]
    fn disjoint_view_parallel_disjoint_writes() {
        let mut a = CsrMatrix {
            n: 4,
            row_ptr: vec![0, 1, 2, 3, 4].into(),
            col_idx: vec![0, 1, 2, 3].into(),
            values: vec![0.0; 4],
        };
        let view = a.disjoint_view();
        let pool = cfpd_runtime::ThreadPool::new(4);
        // Each index touched by exactly one chunk (grain 1, disjoint).
        cfpd_runtime::parallel_for(&pool, 0..4, 1, |r| {
            for i in r {
                // SAFETY: indices are disjoint across chunks.
                unsafe { view.add_at(i, (i + 1) as f64) };
            }
        });
        drop(view);
        assert_eq!(a.values, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn dirichlet_row() {
        let mut a = CsrMatrix {
            n: 2,
            row_ptr: vec![0, 2, 4].into(),
            col_idx: vec![0, 1, 0, 1].into(),
            values: vec![5.0, 6.0, 7.0, 8.0],
        };
        a.set_dirichlet_row(0);
        assert_eq!(a.values, vec![1.0, 0.0, 7.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "not in sparsity pattern")]
    fn missing_entry_panics() {
        let a = CsrMatrix {
            n: 2,
            row_ptr: vec![0, 1, 2].into(),
            col_idx: vec![0, 1].into(),
            values: vec![0.0; 2],
        };
        a.entry_index(0, 1);
    }
}

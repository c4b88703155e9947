//! CSR sparse matrices: the serial reference storage and the pattern
//! the SELL shape and the deflation structure are built from.

use cfpd_mesh::{Csr, Mesh};
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
        let lo = self.row_ptr[row] as usize;
        let cols = &self.col_idx[lo..self.row_ptr[row + 1] as usize];
        lo + cols
            .binary_search(&(col as u32))
            .unwrap_or_else(|_| panic!("entry ({row},{col}) not in sparsity pattern"))
    }

    /// Add `v` to entry (row, col) — serial scatter.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, v: f64) {
        let i = self.entry_index(row, col);
        self.values[i] += v;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::{AtomicView, SharedOut};
    use cfpd_mesh::{generate_airway, AirwaySpec};
    use std::sync::atomic::Ordering;

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
        let view = AtomicView::new(&mut a.values);
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
        let view = SharedOut::new(&mut a.values);
        let pool = cfpd_runtime::ThreadPool::new(4);
        // Each index touched by exactly one chunk (grain 1, disjoint).
        cfpd_runtime::parallel_for(&pool, 0..4, 1, |r| {
            for i in r {
                view.add(i, (i + 1) as f64);
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

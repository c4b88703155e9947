//! Solver2: a deflated, Jacobi-preconditioned, deterministic parallel CG
//! for the pressure (continuity) system — Alya's continuity solver is a
//! deflated CG for exactly this reason (Vázquez et al., PAPERS.md).
//!
//! The airway pressure system is a Laplacian on a long thin tree whose
//! only Dirichlet rows sit at the outlets. Its lowest modes vary along
//! the tree and are nearly constant across it; a diagonal preconditioner
//! cannot touch them, so plain CG needs hundreds of iterations. Deflation
//! removes them with a coarse space `W` that is piecewise constant over
//! cross-section sheets of the tree:
//!
//! * **groups** — breadth-first levels of the node graph seeded at the
//!   inlet nodes, split into connected components (one sheet per branch
//!   per level). Dirichlet nodes belong to no group. Levels and
//!   components are properties of the graph alone, so the node *sets*
//!   are the same under any renumbering.
//! * **coarse matrix** — `E = WᵀAW`. The identity Dirichlet rows couple
//!   to no group, so `E` is the Galerkin projection of the SPD interior
//!   block onto a full-rank `W` and is itself SPD. Groups only touch
//!   groups of adjacent levels, so in level order `E` has a narrow
//!   envelope; it is stored and Cholesky-factored as a skyline, never
//!   as a dense `k×k`.
//! * **iteration** (Saad et al. 2000) — `x₀ += W E⁻¹ Wᵀr`, then per
//!   iteration `p = z + βp − W E⁻¹ (AW)ᵀz`, everything else as in CG.
//!
//! The structure (levels, groups, the pattern of `AW`, the envelope of
//! `E`) is built once per solver from the matrix pattern, the way
//! [`crate::sell::SellMatrix`] is; the values (`AW`, `E`, its factor,
//! the Jacobi diagonal) are loaded by [`Deflation::refresh`] whenever
//! the matrix values change — once, for the constant pressure operator
//! of a fixed mesh — and [`Deflation::solve`] only solves.
//!
//! **Determinism.** The SpMV and the fused vector updates reduce
//! chunk-indexed partials in chunk order over a fixed
//! [`CG_CHUNKS`]-way decomposition; each entry of `(AW)ᵀz` is one serial
//! sum over its group's rows, owned by one chunk; the coarse solve is
//! serial. Nothing depends on the pool size, so the solve is
//! bit-identical for any number of executors.
//!
//! **Fallback.** A coarse pivot that is not safely positive (a
//! pure-Neumann component makes `E` singular) or an empty coarse space
//! (no inlet) drops deflation for those values: the loop runs as plain
//! Jacobi CG and `solver.deflation_fallbacks` is bumped per refresh.

use crate::csr::CsrMatrix;
use crate::krylov::SolveStats;
use crate::parallel::{spmv_sweep, ChunkedDot};
use crate::sell::SellMatrix;
use crate::shared::{for_ranges_mut, map_ranges_mut};
use cfpd_runtime::{balanced_ranges, ThreadPool};
use std::ops::Range;
use std::sync::Arc;

/// Chunk count of every parallel region of the solve: fixed (not
/// pool-derived) so the chunked reductions — and hence the whole solve —
/// are bit-identical no matter how many executors DLB has lent us.
pub(crate) const CG_CHUNKS: usize = 64;

const NONE: u32 = u32::MAX;

/// A Cholesky pivot of `E` must exceed this fraction of its diagonal
/// entry. Pivots of a well-posed coarse Laplacian stay within a small
/// factor of the diagonal; a singular `E` leaves rounding noise.
const PIVOT_FLOOR: f64 = 1e-12;

/// The coarse space of one sparsity pattern: groups, the pattern of
/// `AW`, the envelope of `E` and the fixed chunking of the solve. Built
/// once per pattern and shared by every [`Deflation`] on it.
#[derive(Debug)]
pub struct DeflationStructure {
    n: usize,
    /// Stored entries of the pattern.
    nnz: usize,
    /// Number of groups.
    k: usize,
    /// Group of each node; `k` for nodes in no group (`coarse[k]` is a
    /// slot that always holds 0).
    group: Vec<u32>,
    /// `AW` by group: the entries of group `g` are
    /// `aw_ptr[g]..aw_ptr[g+1]`, rows ascending.
    aw_ptr: Vec<u32>,
    aw_row: Vec<u32>,
    /// Entry-balanced group ranges for the parallel `(AW)ᵀz`.
    aw_ranges: Vec<Range<usize>>,
    /// Skyline of the lower triangle of `E`: row `g` stores columns
    /// `e_first[g]..=g` from `e_ptr[g]`.
    e_first: Vec<u32>,
    e_ptr: Vec<u32>,
    /// For each `AW` entry, the skyline entry it adds into ([`NONE`]:
    /// strict upper triangle, or row in no group).
    e_slot: Vec<u32>,
    /// nnz-balanced row chunks of the pattern: the fixed decomposition
    /// of the dots and fused updates.
    row_chunks: Vec<Range<usize>>,
}

/// The coarse space of the pressure solve and its factored coarse
/// matrix: a shared [`DeflationStructure`] plus the values one
/// [`Deflation::refresh`] loaded. See the module docs.
#[derive(Debug, Clone)]
pub struct Deflation {
    s: Arc<DeflationStructure>,
    aw_val: Vec<f64>,
    /// `E`, overwritten by its Cholesky factor.
    chol: Vec<f64>,
    /// Whether the last refresh produced a usable factor.
    active: bool,
    /// Diagonal of the refreshed matrix (the Jacobi preconditioner);
    /// empty until the first refresh.
    diag: Vec<f64>,
}

impl DeflationStructure {
    /// Build the coarse space for matrices with `pattern`'s sparsity:
    /// BFS levels from `seeds` (the inlet nodes) over the pattern graph,
    /// never entering `fixed` (the Dirichlet nodes, whose rows the
    /// caller keeps as identity rows).
    pub fn new(pattern: &CsrMatrix, seeds: &[u32], fixed: &[u32]) -> DeflationStructure {
        let n = pattern.n;
        let row = |v: usize| {
            &pattern.col_idx[pattern.row_ptr[v] as usize..pattern.row_ptr[v + 1] as usize]
        };
        let mut is_fixed = vec![false; n];
        for &v in fixed {
            is_fixed[v as usize] = true;
        }

        // Levels: graph distance from the seed set.
        let mut level = vec![NONE; n];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        for &s in seeds {
            if !is_fixed[s as usize] && level[s as usize] == NONE {
                level[s as usize] = 0;
                order.push(s);
            }
        }
        let mut head = 0;
        while head < order.len() {
            let v = order[head] as usize;
            head += 1;
            for &w in row(v) {
                if level[w as usize] == NONE && !is_fixed[w as usize] {
                    level[w as usize] = level[v] + 1;
                    order.push(w);
                }
            }
        }

        // Groups: components of each level, numbered as the BFS order
        // meets them — level by level, which is what keeps the envelope
        // of E narrow.
        let mut group = vec![NONE; n];
        let mut k = 0u32;
        let mut stack = Vec::new();
        for &v in &order {
            if group[v as usize] != NONE {
                continue;
            }
            group[v as usize] = k;
            stack.push(v);
            while let Some(u) = stack.pop() {
                for &w in row(u as usize) {
                    if level[w as usize] == level[u as usize] && group[w as usize] == NONE {
                        group[w as usize] = k;
                        stack.push(w);
                    }
                }
            }
            k += 1;
        }
        for g in &mut group {
            if *g == NONE {
                *g = k;
            }
        }
        let k = k as usize;

        // Pattern of AW, by group: (row i, group g) for every free row i
        // with a column in g. Rows are visited ascending, so each
        // group's list comes out sorted.
        let mut aw_ptr = vec![0u32; k + 1];
        let mut seen_by = vec![NONE; k];
        for i in (0..n).filter(|&i| !is_fixed[i]) {
            for &j in row(i) {
                let g = group[j as usize] as usize;
                if g < k && seen_by[g] != i as u32 {
                    seen_by[g] = i as u32;
                    aw_ptr[g + 1] += 1;
                }
            }
        }
        for g in 0..k {
            aw_ptr[g + 1] += aw_ptr[g];
        }
        let mut cursor = aw_ptr.clone();
        seen_by.fill(NONE);
        let mut aw_row = vec![0u32; aw_ptr[k] as usize];
        for i in (0..n).filter(|&i| !is_fixed[i]) {
            for &j in row(i) {
                let g = group[j as usize] as usize;
                if g < k && seen_by[g] != i as u32 {
                    seen_by[g] = i as u32;
                    aw_row[cursor[g] as usize] = i as u32;
                    cursor[g] += 1;
                }
            }
        }

        // Envelope of the lower triangle of E = Wᵀ(AW): the AW entry
        // (row i, group h) adds into E[group(i)][h].
        let mut e_first: Vec<u32> = (0..k as u32).collect();
        for h in 0..k {
            for t in aw_ptr[h] as usize..aw_ptr[h + 1] as usize {
                let g = group[aw_row[t] as usize] as usize;
                if g < k && h <= g {
                    e_first[g] = e_first[g].min(h as u32);
                }
            }
        }
        let mut e_ptr = vec![0u32; k + 1];
        for g in 0..k {
            e_ptr[g + 1] = e_ptr[g] + (g as u32 - e_first[g] + 1);
        }
        let mut e_slot = vec![NONE; aw_row.len()];
        for h in 0..k {
            for t in aw_ptr[h] as usize..aw_ptr[h + 1] as usize {
                let g = group[aw_row[t] as usize] as usize;
                if g < k && h <= g {
                    e_slot[t] = e_ptr[g] + (h as u32 - e_first[g]);
                }
            }
        }

        DeflationStructure {
            n,
            nnz: pattern.nnz(),
            k,
            group,
            aw_ranges: balanced_ranges(&aw_ptr, CG_CHUNKS),
            aw_ptr,
            aw_row,
            e_first,
            e_ptr,
            e_slot,
            row_chunks: pattern.row_chunks(CG_CHUNKS),
        }
    }
}

impl Deflation {
    /// [`DeflationStructure::new`] with no values loaded yet.
    pub fn new(pattern: &CsrMatrix, seeds: &[u32], fixed: &[u32]) -> Deflation {
        Deflation::on(Arc::new(DeflationStructure::new(pattern, seeds, fixed)))
    }

    /// A deflation on an existing structure, with no values loaded yet.
    pub fn on(s: Arc<DeflationStructure>) -> Deflation {
        Deflation {
            aw_val: vec![0.0; s.aw_row.len()],
            chol: vec![0.0; s.e_ptr[s.k] as usize],
            active: false,
            diag: Vec::new(),
            s,
        }
    }

    /// Number of groups (columns of `W`).
    pub fn num_groups(&self) -> usize {
        self.s.k
    }

    /// Stored entries of the skyline of `E`.
    pub fn profile(&self) -> usize {
        self.chol.len()
    }

    /// Group of node `v`, `None` for Dirichlet and unreached nodes.
    #[cfg(test)]
    pub fn group_of(&self, v: usize) -> Option<usize> {
        let g = self.s.group[v] as usize;
        (g < self.s.k).then_some(g)
    }

    /// Solve `A x = b` to `‖r‖/‖b‖ < tol`, `op` being the matrix last
    /// passed to [`Deflation::refresh`]. `x` holds the initial guess on
    /// entry and the solution on return.
    pub fn solve(
        &self,
        op: &SellMatrix,
        b: &[f64],
        x: &mut [f64],
        tol: f64,
        max_iters: usize,
        pool: &ThreadPool,
    ) -> SolveStats {
        self.solve_observed(op, b, x, tol, max_iters, pool, &mut |_, _| {})
    }

    /// [`Deflation::solve`] calling `observe(iteration, r)` with the
    /// residual vector at the top of every iteration.
    #[allow(clippy::too_many_arguments)]
    fn solve_observed(
        &self,
        op: &SellMatrix,
        b: &[f64],
        x: &mut [f64],
        tol: f64,
        max_iters: usize,
        pool: &ThreadPool,
        observe: &mut dyn FnMut(usize, &[f64]),
    ) -> SolveStats {
        let n = self.s.n;
        assert_eq!(self.diag.len(), n, "Deflation::refresh must load the matrix before a solve");
        assert_eq!(op.n, n);
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);

        let sweep = op.chunk_ranges(CG_CHUNKS);
        let mut dots = ChunkedDot::new(self.s.row_chunks.clone());
        // Coarse right-hand side / solution, plus the always-zero slot
        // of the nodes in no group.
        let mut coarse = vec![0.0; self.s.k + 1];
        let mut parts = vec![(0.0, 0.0); dots.ranges().len()];
        // b_norm in serial order: bit-identical to the reference CG.
        let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);

        let mut r = b.to_vec();
        let mut z = vec![0.0; n];
        let mut p = vec![0.0; n];
        let mut ap = vec![0.0; n];
        spmv_sweep(op, pool, &sweep, x, &mut ap);
        if self.active {
            // x₀ += W E⁻¹ Wᵀ(b − A x): afterwards Wᵀr = 0, which the
            // iteration below preserves.
            for i in 0..n {
                z[i] = b[i] - ap[i];
            }
            self.restrict(&z, &mut coarse);
            self.coarse_solve(&mut coarse);
            for (xi, &g) in x.iter_mut().zip(&self.s.group) {
                *xi += coarse[g as usize];
            }
            spmv_sweep(op, pool, &sweep, x, &mut ap);
        }
        // r = b − Ax, z = D⁻¹r: the update sweep from r = b with α = 1
        // (p is still zero, so x stays).
        let (mut rz, mut rr) = update_fused(
            pool,
            dots.ranges(),
            &self.diag,
            1.0,
            &p,
            &ap,
            x,
            &mut r,
            &mut z,
            &mut parts,
        );
        self.update_direction(pool, dots.ranges(), &z, 0.0, &mut p, &mut coarse);

        for it in 0..max_iters {
            let res = rr.sqrt() / b_norm;
            observe(it, &r);
            if res < tol {
                return SolveStats { iterations: it, residual: res, converged: true };
            }
            cfpd_telemetry::count!("solver.cg_iterations");
            cfpd_flight::record(cfpd_flight::EventKind::SolverIter, 0, 1, it as u64, res.to_bits());
            // Region 1: ap = A·p, then p·Ap over the row chunks.
            spmv_sweep(op, pool, &sweep, &p, &mut ap);
            let pap = dots.dot(pool, &p, &ap);
            if pap.abs() < 1e-300 {
                return SolveStats { iterations: it, residual: res, converged: false };
            }
            let alpha = rz / pap;
            // Region 2: solution/residual update + preconditioner + dots.
            let (rz_new, rr_new) = update_fused(
                pool,
                dots.ranges(),
                &self.diag,
                alpha,
                &p,
                &ap,
                x,
                &mut r,
                &mut z,
                &mut parts,
            );
            let beta = rz_new / rz;
            rz = rz_new;
            rr = rr_new;
            // Regions 3 and 4: μ = E⁻¹(AW)ᵀz, p = z + βp − Wμ.
            self.update_direction(pool, dots.ranges(), &z, beta, &mut p, &mut coarse);
        }
        let res = rr.sqrt() / b_norm;
        SolveStats { iterations: max_iters, residual: res, converged: res < tol }
    }

    /// Load the values of `a` — `AW`, `E` and its factor, the Jacobi
    /// diagonal — for the solves that follow. `a` must have the pattern
    /// this structure was built from, with identity rows at the `fixed`
    /// nodes. Call again whenever the values change. The values are read
    /// in CSR entry order, the order `AW` sums them in.
    pub fn refresh(&mut self, a: &SellMatrix) {
        let s = &*self.s;
        assert!(a.n == s.n && a.nnz() == s.nnz, "matrix does not have the deflation's pattern");
        self.diag = vec![0.0; a.n];
        self.aw_val.fill(0.0);
        // `AW`'s entries of group `g` ascend by row, so the one of row `i`
        // (none for a Dirichlet row) sits at or one past where the rows
        // before it left group `g`'s cursor.
        let (mut cursor, values) = (s.aw_ptr.clone(), a.values());
        for i in 0..a.n {
            for (p, col) in a.structure().row_entries(i) {
                if col as usize == i {
                    self.diag[i] = values[p];
                }
                let g = s.group[col as usize] as usize;
                if g < s.k {
                    let (t, end) = (&mut cursor[g], s.aw_ptr[g + 1]);
                    *t += u32::from(*t < end && s.aw_row[*t as usize] < i as u32);
                    if *t < end && s.aw_row[*t as usize] == i as u32 {
                        self.aw_val[*t as usize] += values[p];
                    }
                }
            }
        }
        self.chol.fill(0.0);
        for (&s, &v) in self.s.e_slot.iter().zip(&self.aw_val) {
            if s != NONE {
                self.chol[s as usize] += v;
            }
        }
        self.active = self.s.k > 0 && self.factor();
        if !self.active {
            cfpd_telemetry::count!("solver.deflation_fallbacks");
        }
    }

    /// In-place skyline Cholesky `E = LLᵀ`, row by row; fill stays
    /// inside the envelope. False when a pivot is not safely positive.
    fn factor(&mut self) -> bool {
        let (first, ptr, l) = (&self.s.e_first, &self.s.e_ptr, &mut self.chol);
        for i in 0..self.s.k {
            let (fi, ri) = (first[i] as usize, ptr[i] as usize);
            let e_ii = l[ri + i - fi];
            for j in fi..i {
                let (fj, rj) = (first[j] as usize, ptr[j] as usize);
                let mut s = l[ri + j - fi];
                for m in fi.max(fj)..j {
                    s -= l[ri + m - fi] * l[rj + m - fj];
                }
                l[ri + j - fi] = s / l[rj + j - fj];
            }
            let mut d = e_ii;
            for m in fi..i {
                d -= l[ri + m - fi] * l[ri + m - fi];
            }
            if d.is_nan() || d <= PIVOT_FLOOR * e_ii {
                return false;
            }
            l[ri + i - fi] = d.sqrt();
        }
        true
    }

    /// `v[..k] = E⁻¹ v[..k]` by forward and back substitution.
    fn coarse_solve(&self, v: &mut [f64]) {
        let (first, ptr, l) = (&self.s.e_first, &self.s.e_ptr, &self.chol);
        for i in 0..self.s.k {
            let (fi, ri) = (first[i] as usize, ptr[i] as usize);
            let mut s = v[i];
            for j in fi..i {
                s -= l[ri + j - fi] * v[j];
            }
            v[i] = s / l[ri + i - fi];
        }
        for i in (0..self.s.k).rev() {
            let (fi, ri) = (first[i] as usize, ptr[i] as usize);
            v[i] /= l[ri + i - fi];
            for j in fi..i {
                v[j] -= l[ri + j - fi] * v[i];
            }
        }
    }

    /// `coarse[..k] = Wᵀv`: group sums, nodes ascending.
    fn restrict(&self, v: &[f64], coarse: &mut [f64]) {
        coarse.fill(0.0);
        for (i, &vi) in v.iter().enumerate() {
            coarse[self.s.group[i] as usize] += vi;
        }
        coarse[self.s.k] = 0.0;
    }

    /// `p = z + βp − W E⁻¹ (AW)ᵀz` (plain `z + βp` without deflation).
    fn update_direction(
        &self,
        pool: &ThreadPool,
        ranges: &[Range<usize>],
        z: &[f64],
        beta: f64,
        p: &mut [f64],
        coarse: &mut [f64],
    ) {
        if self.active {
            let (ptr, rows, vals) = (&self.s.aw_ptr, &self.s.aw_row, &self.aw_val);
            for_ranges_mut(pool, &self.s.aw_ranges, [&mut *coarse], |groups, [out]| {
                for (slot, g) in out.iter_mut().zip(groups) {
                    let (lo, hi) = (ptr[g] as usize, ptr[g + 1] as usize);
                    let mut acc = 0.0;
                    for (&i, &v) in rows[lo..hi].iter().zip(&vals[lo..hi]) {
                        acc += v * z[i as usize];
                    }
                    *slot = acc;
                }
            });
            self.coarse_solve(coarse);
        }
        // Without deflation `coarse` is all zeros and this is z + βp.
        let (mu, group) = (&*coarse, &self.s.group);
        for_ranges_mut(pool, ranges, [p], |range, [p]| {
            for ((pi, &zi), &g) in p.iter_mut().zip(&z[range.clone()]).zip(&group[range]) {
                *pi = zi + beta * *pi - mu[g as usize];
            }
        });
    }
}

/// The fused sweep of one iteration: `x += αp`, `r −= α·Ap`, `z = D⁻¹r`,
/// returning `(r·z, r·r)` summed from the chunk-indexed `parts` in
/// chunk order.
#[allow(clippy::too_many_arguments)]
fn update_fused(
    pool: &ThreadPool,
    ranges: &[Range<usize>],
    diag: &[f64],
    alpha: f64,
    p: &[f64],
    ap: &[f64],
    x: &mut [f64],
    r: &mut [f64],
    z: &mut [f64],
    parts: &mut [(f64, f64)],
) -> (f64, f64) {
    map_ranges_mut(pool, ranges, [x, r, z], parts, |range, [x, r, z]| {
        let (mut rz_acc, mut rr_acc) = (0.0, 0.0);
        let ins = p[range.clone()].iter().zip(&ap[range.clone()]).zip(&diag[range]);
        for (((xi, ri), zi), ((&pi, &api), &d)) in x.iter_mut().zip(r).zip(z).zip(ins) {
            *xi += alpha * pi;
            *ri -= alpha * api;
            *zi = if d.abs() > 1e-300 { *ri / d } else { *ri };
            rz_acc += *ri * *zi;
            rr_acc += *ri * *ri;
        }
        (rz_acc, rr_acc)
    });
    (parts.iter().map(|p| p.0).sum(), parts.iter().map(|p| p.1).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::{AssemblyPlan, AssemblyStrategy};
    use crate::batch::{assemble_divergence, assemble_poisson, ElementOrder};
    use crate::kernels::FluidProps;
    use crate::krylov::cg;
    use crate::shape::RefElement;
    use cfpd_mesh::{generate_airway, AirwaySpec, BoundaryKind, Mesh, Vec3};
    use cfpd_testkit::prop::{self, PropConfig};
    use cfpd_testkit::rng::Rng;
    use std::collections::BTreeSet;

    /// Random connected weighted graph Laplacian on `n` nodes (a chain
    /// plus random chords) with a positive shift on some diagonal
    /// entries — SPD when `shifted`, singular with the constant vector
    /// in its kernel otherwise.
    fn random_laplacian(n: usize, rng: &mut Rng, shifted: bool) -> CsrMatrix {
        let mut w = vec![std::collections::BTreeMap::<usize, f64>::new(); n];
        let mut link = |i: usize, j: usize, v: f64| {
            if i != j {
                *w[i].entry(j).or_insert(0.0) += v;
                *w[j].entry(i).or_insert(0.0) += v;
            }
        };
        for i in 1..n {
            link(i - 1, i, rng.range_f64(0.5, 2.0));
        }
        for _ in 0..n {
            link(rng.range_usize(0, n), rng.range_usize(0, n), rng.range_f64(0.1, 1.0));
        }
        let (mut row_ptr, mut col_idx, mut values) = (vec![0u32], Vec::new(), Vec::new());
        for i in 0..n {
            let mut diag: f64 = w[i].values().sum();
            if shifted && (i == n - 1 || rng.range_usize(0, 6) == 0) {
                diag += rng.range_f64(0.1, 1.0);
            }
            let mut row: Vec<(usize, f64)> = w[i].iter().map(|(&j, &v)| (j, -v)).collect();
            row.push((i, diag));
            row.sort_by_key(|e| e.0);
            for (j, v) in row {
                col_idx.push(j as u32);
                values.push(v);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        CsrMatrix { n, row_ptr: row_ptr.into(), col_idx: col_idx.into(), values }
    }

    fn boundary_nodes(mesh: &Mesh, which: BoundaryKind) -> Vec<u32> {
        let mut set = BTreeSet::new();
        for &(e, f, kind) in &mesh.boundary {
            if kind == which {
                let nodes = mesh.elem_nodes(e as usize);
                set.extend(mesh.kinds[e as usize].faces()[f as usize].iter().map(|&li| nodes[li]));
            }
        }
        set.into_iter().collect()
    }

    /// The Dirichlet-closed airway pressure system with its inlet and
    /// outlet node sets.
    fn airway_system() -> (CsrMatrix, Vec<f64>, Vec<u32>, Vec<u32>) {
        let mesh = generate_airway(&AirwaySpec::small()).unwrap().mesh;
        let n2e = mesh.node_to_elements();
        let mut a = SellMatrix::from_csr(&CsrMatrix::from_mesh(&mesh, &n2e));
        let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
        let (strategy, order) = (AssemblyStrategy::Serial, ElementOrder::List);
        let plan = AssemblyPlan::new(&mesh, elems, strategy, 1, a.structure(), order);
        let (refs, pool) = (RefElement::all(), ThreadPool::new(1));
        let velocity: Vec<Vec3> =
            mesh.coords.iter().map(|p| Vec3::new(p.y, -p.z, 0.4 - p.x)).collect();
        let mut b = vec![0.0; mesh.num_nodes()];
        assemble_poisson(&pool, &refs, &mesh, &plan, &mut a);
        assemble_divergence(
            &pool,
            &refs,
            &mesh,
            &plan,
            &velocity,
            FluidProps::default(),
            1e-4,
            &mut b,
        );
        let outlet = boundary_nodes(&mesh, BoundaryKind::Outlet);
        for &v in &outlet {
            a.set_dirichlet_row(v as usize);
            b[v as usize] = 0.0;
        }
        (a.to_csr(), b, boundary_nodes(&mesh, BoundaryKind::Inlet), outlet)
    }

    fn max_abs(v: &[f64]) -> f64 {
        v.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Random SPD system sizes and seeds; shrinks towards small systems.
    fn arb_system() -> impl prop::Gen<Value = (usize, usize)> {
        (prop::usize_range(8, 160), prop::usize_range(0, 1 << 30))
    }

    #[test]
    fn prop_coarse_residual_stays_zero() {
        let pool = ThreadPool::new(2);
        prop::check(
            "Wᵀr = 0 after the projection and after every iteration",
            PropConfig::cases(40),
            &arb_system(),
            |&(n, seed)| {
                let mut rng = Rng::new(seed as u64);
                let a = random_laplacian(n, &mut rng, true);
                let b: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
                let mut x: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
                let mut d = Deflation::new(&a, &[rng.range_usize(0, n) as u32], &[]);
                assert!(d.num_groups() > 0);
                let sell = SellMatrix::from_csr(&a);
                d.refresh(&sell);
                let probe = d.clone();
                let bound = 1e-12 * max_abs(&b).max(1.0) * n as f64;
                let mut checked = 0;
                let stats =
                    d.solve_observed(&sell, &b, &mut x, 1e-10, 10 * n, &pool, &mut |it, r| {
                        let mut sums = vec![0.0; probe.s.k + 1];
                        for (i, ri) in r.iter().enumerate() {
                            sums[probe.s.group[i] as usize] += ri;
                        }
                        let worst = max_abs(&sums[..probe.s.k]);
                        assert!(worst <= bound, "iteration {it}: |Wᵀr| = {worst:e} > {bound:e}");
                        checked += 1;
                    });
                assert!(d.active, "SPD system must keep its deflation");
                assert!(stats.converged, "{stats:?}");
                assert_eq!(checked, stats.iterations + 1);
            },
        );
    }

    #[test]
    fn prop_agrees_with_reference_cg_on_random_spd() {
        let pool = ThreadPool::new(2);
        prop::check(
            "deflated solution = Jacobi CG solution at tol 1e-12",
            PropConfig::cases(40),
            &arb_system(),
            |&(n, seed)| {
                let mut rng = Rng::new(seed as u64);
                let a = random_laplacian(n, &mut rng, true);
                let b: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
                let seeds = [rng.range_usize(0, n) as u32, rng.range_usize(0, n) as u32];
                let mut x_ref = vec![0.0; n];
                assert!(cg(&a, &b, &mut x_ref, 1e-12, 20 * n).converged);
                let mut x = vec![0.0; n];
                let mut d = Deflation::new(&a, &seeds, &[]);
                let sell = SellMatrix::from_csr(&a);
                d.refresh(&sell);
                let stats = d.solve(&sell, &b, &mut x, 1e-12, 20 * n, &pool);
                assert!(stats.converged, "{stats:?}");
                let scale = max_abs(&x_ref).max(1e-300);
                for i in 0..n {
                    assert!(
                        (x[i] - x_ref[i]).abs() <= 1e-8 * scale,
                        "x[{i}]: {} vs {}",
                        x[i],
                        x_ref[i]
                    );
                }
            },
        );
    }

    #[test]
    fn agrees_with_reference_cg_on_airway_in_far_fewer_iterations() {
        let (a, b, inlet, outlet) = airway_system();
        let pool = ThreadPool::new(2);
        let mut x_ref = vec![0.0; a.n];
        let s_ref = cg(&a, &b, &mut x_ref, 1e-12, 5000);
        let mut x = vec![0.0; a.n];
        let mut d = Deflation::new(&a, &inlet, &outlet);
        let sell = SellMatrix::from_csr(&a);
        d.refresh(&sell);
        let s = d.solve(&sell, &b, &mut x, 1e-12, 5000, &pool);
        assert!(s_ref.converged && s.converged, "{s_ref:?} {s:?}");
        assert!(d.active);
        assert!(
            4 * s.iterations < s_ref.iterations,
            "deflated {} vs Jacobi {} iterations",
            s.iterations,
            s_ref.iterations
        );
        let scale = max_abs(&x_ref);
        for i in 0..a.n {
            assert!((x[i] - x_ref[i]).abs() <= 1e-8 * scale, "x[{i}]: {} vs {}", x[i], x_ref[i]);
        }
        // Dirichlet nodes are in no group; every other node is in one,
        // and the skyline is nowhere near a dense k×k.
        assert!(outlet.iter().all(|&v| d.group_of(v as usize).is_none()));
        assert_eq!((0..a.n).filter(|&v| d.group_of(v).is_none()).count(), outlet.len());
        assert!(d.profile() < d.num_groups() * d.num_groups() / 4);
    }

    #[test]
    fn prop_groups_are_invariant_under_renumbering() {
        let (a, _, inlet, outlet) = airway_system();
        let sets_of = |d: &Deflation, name: &dyn Fn(usize) -> u32| {
            let mut sets = vec![BTreeSet::new(); d.num_groups()];
            for v in 0..a.n {
                if let Some(g) = d.group_of(v) {
                    sets[g].insert(name(v));
                }
            }
            sets.into_iter().collect::<BTreeSet<_>>()
        };
        let want = sets_of(&Deflation::new(&a, &inlet, &outlet), &|v| v as u32);
        prop::check(
            "group node-sets under a random node permutation",
            PropConfig::cases(6),
            &prop::usize_range(0, 1 << 30),
            |&seed| {
                // perm[old] = new.
                let mut perm: Vec<u32> = (0..a.n as u32).collect();
                Rng::new(seed as u64).shuffle(&mut perm);
                let mut old_of = vec![0u32; a.n];
                for (old, &new) in perm.iter().enumerate() {
                    old_of[new as usize] = old as u32;
                }
                let (mut row_ptr, mut col_idx) = (vec![0u32], Vec::new());
                for new in 0..a.n {
                    let old = old_of[new] as usize;
                    let lo = col_idx.len();
                    col_idx.extend(
                        a.col_idx[a.row_ptr[old] as usize..a.row_ptr[old + 1] as usize]
                            .iter()
                            .map(|&c| perm[c as usize]),
                    );
                    col_idx[lo..].sort_unstable();
                    row_ptr.push(col_idx.len() as u32);
                }
                let values = vec![0.0; col_idx.len()];
                let permuted = CsrMatrix { n: a.n, row_ptr: row_ptr.into(), col_idx: col_idx.into(), values };
                let map =
                    |nodes: &[u32]| nodes.iter().map(|&v| perm[v as usize]).collect::<Vec<_>>();
                let d = Deflation::new(&permuted, &map(&inlet), &map(&outlet));
                assert_eq!(sets_of(&d, &|v| old_of[v]), want);
            },
        );
    }

    // One storage since the CSR sweep path went: the SELL matrix, whose
    // rows carry the bits of the CSR matrix's serial SpMV
    // (`prop_sell_spmv_bit_identical_per_row`).
    #[test]
    fn bit_identical_across_pool_sizes_and_storages() {
        let (a, b, inlet, outlet) = airway_system();
        let sell = SellMatrix::from_csr(&a);
        let mut runs = Vec::new();
        for workers in [1usize, 2, 4] {
            let pool = ThreadPool::new(workers);
            let mut d = Deflation::new(&a, &inlet, &outlet);
            d.refresh(&sell);
            let mut x = vec![0.0; a.n];
            let s = d.solve(&sell, &b, &mut x, 1e-8, 2000, &pool);
            runs.push((x, s));
        }
        let (x_ref, s_ref) = &runs[0];
        assert!(s_ref.converged);
        for (x, s) in &runs[1..] {
            assert_eq!(s.iterations, s_ref.iterations);
            assert_eq!(s.residual.to_bits(), s_ref.residual.to_bits());
            for i in 0..a.n {
                assert_eq!(x[i].to_bits(), x_ref[i].to_bits(), "x[{i}] differs");
            }
        }
    }

    #[test]
    fn singular_coarse_matrix_and_empty_coarse_space_fall_back() {
        let pool = ThreadPool::new(2);
        let n = 60;
        // Pure Neumann: every node grouped, A·1 = 0, so E·1 = 0.
        let a = random_laplacian(n, &mut Rng::new(7), false);
        let mut b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mean = b.iter().sum::<f64>() / n as f64;
        b.iter_mut().for_each(|v| *v -= mean);
        let mut d = Deflation::new(&a, &[0], &[]);
        assert!(d.num_groups() > 1);
        let sell = SellMatrix::from_csr(&a);
        d.refresh(&sell);
        let mut x = vec![0.0; n];
        let s = d.solve(&sell, &b, &mut x, 1e-8, 50 * n, &pool);
        assert!(!d.active, "a singular E must drop the deflation");
        assert!(s.converged, "{s:?}");

        // No inlet: no group at all; the solve is plain Jacobi CG.
        let a = random_laplacian(n, &mut Rng::new(8), true);
        let mut d = Deflation::new(&a, &[], &[]);
        assert_eq!(d.num_groups(), 0);
        let sell = SellMatrix::from_csr(&a);
        d.refresh(&sell);
        let mut x = vec![0.0; n];
        let s = d.solve(&sell, &b, &mut x, 1e-10, 50 * n, &pool);
        assert!(!d.active);
        assert!(s.converged, "{s:?}");
        let mut x_ref = vec![0.0; n];
        assert!(cg(&a, &b, &mut x_ref, 1e-10, 50 * n).converged);
        for i in 0..n {
            assert!((x[i] - x_ref[i]).abs() <= 1e-7 * max_abs(&x_ref), "x[{i}]");
        }
    }
}

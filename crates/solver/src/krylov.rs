//! Krylov solvers: the three-column block BiCGSTAB of the nonsymmetric
//! momentum system (the paper's *Solver1*, [`bicgstab3`]) and the plain
//! Jacobi-preconditioned Conjugate Gradient that serves as the reference
//! for the deflated CG of the SPD continuity/pressure system (*Solver2*,
//! [`crate::deflation`]).

use crate::csr::CsrMatrix;
use crate::deflation::CG_CHUNKS;
use crate::parallel::spmm3_sweep;
use crate::sell::SellMatrix;
use crate::simd::{F64x8, Mask8};
use cfpd_runtime::ThreadPool;

/// Result of an iterative solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    pub iterations: usize,
    pub residual: f64,
    pub converged: bool,
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[inline]
fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// One entry of the Jacobi (diagonal) preconditioner: `r / d`, or `r`
/// where the diagonal vanishes.
#[inline(always)]
fn jacobi1(d: f64, r: f64) -> f64 {
    if d.abs() > 1e-300 {
        r / d
    } else {
        r
    }
}

/// [`jacobi1`] on eight entries.
#[inline(always)]
fn jacobi8(d: F64x8, r: F64x8) -> F64x8 {
    d.abs().gt(F64x8::splat(1e-300)).select(r / d, r)
}

/// Jacobi (diagonal) preconditioner: z = D⁻¹ r.
fn jacobi(diag: &[f64], r: &[f64], z: &mut [f64]) {
    for i in 0..r.len() {
        z[i] = jacobi1(diag[i], r[i]);
    }
}

/// Jacobi-preconditioned CG on an SPD matrix. `x` holds the initial
/// guess on entry and the solution on return. Serial and undeflated:
/// the reference the production pressure solve
/// ([`crate::deflation::Deflation::solve`]) is tested and benchmarked
/// against.
pub fn cg(a: &CsrMatrix, b: &[f64], x: &mut [f64], tol: f64, max_iters: usize) -> SolveStats {
    let n = a.n;
    let diag = a.diagonal();
    let mut r = vec![0.0; n];
    a.spmv(x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let b_norm = norm(b).max(1e-300);
    let mut z = vec![0.0; n];
    jacobi(&diag, &r, &mut z);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];
    for it in 0..max_iters {
        let res = norm(&r) / b_norm;
        if res < tol {
            return SolveStats { iterations: it, residual: res, converged: true };
        }
        cfpd_telemetry::count!("solver.cg_iterations");
        cfpd_flight::record(cfpd_flight::EventKind::SolverIter, 0, 1, it as u64, res.to_bits());
        a.spmv(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap.abs() < 1e-300 {
            return SolveStats { iterations: it, residual: res, converged: false };
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        jacobi(&diag, &r, &mut z);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    let res = norm(&r) / b_norm;
    SolveStats { iterations: max_iters, residual: res, converged: res < tol }
}

/// Entries per step of the interleaved vector passes: 8 nodes × 3
/// columns, i.e. three [`F64x8`] — the shortest run after which a lane
/// holds the same column again.
const BLOCK: usize = 24;

#[inline(always)]
fn ld(v: &[f64], k: usize) -> F64x8 {
    F64x8::load(v[k..k + 8].try_into().expect("8 entries"))
}

#[inline(always)]
fn st(v: &mut [f64], k: usize, x: F64x8) {
    x.store((&mut v[k..k + 8]).try_into().expect("8 entries"))
}

/// One coefficient per column, spread over the lanes of an interleaved
/// block: entry `k` of a block belongs to column `k % 3`.
#[derive(Clone, Copy)]
struct PerColumn {
    scalar: [f64; 3],
    wide: [F64x8; 3],
}

impl PerColumn {
    fn new(scalar: [f64; 3]) -> PerColumn {
        let flat: [f64; BLOCK] = std::array::from_fn(|k| scalar[k % 3]);
        PerColumn { scalar, wide: std::array::from_fn(|j| ld(&flat, 8 * j)) }
    }
}

/// Three running sums, one per column, each the fold
/// `Iterator::sum::<f64>()` performs over that column's terms in node
/// order. The scalar solve the goldens were blessed with reduced with
/// `sum`, so the seed is taken from `sum` itself rather than assumed,
/// and the three chains only run side by side — no term ever changes
/// chain or place. That order is why these sums stay serial.
#[derive(Clone, Copy)]
struct Sum3([f64; 3]);

impl Sum3 {
    fn new() -> Sum3 {
        Sum3([std::iter::empty::<f64>().sum(); 3])
    }

    /// Add the terms of one interleaved block, node by node.
    #[inline(always)]
    fn add_block(&mut self, terms: &[f64; BLOCK]) {
        for node in terms.chunks_exact(3) {
            self.0[0] += node[0];
            self.0[1] += node[1];
            self.0[2] += node[2];
        }
    }
}

/// `a·bₘ` per column of interleaved blocks, for every `bₘ` in one pass.
fn dots3<const M: usize>(a: &[f64], b: [&[f64]; M]) -> [[f64; 3]; M] {
    let len = a.len();
    let full = len - len % BLOCK;
    let mut sums = [Sum3::new(); M];
    let mut terms = [[0.0; BLOCK]; M];
    for k0 in (0..full).step_by(BLOCK) {
        for j in 0..3 {
            let ak = ld(a, k0 + 8 * j);
            for m in 0..M {
                st(&mut terms[m], 8 * j, ak * ld(b[m], k0 + 8 * j));
            }
        }
        for m in 0..M {
            sums[m].add_block(&terms[m]);
        }
    }
    for k in full..len {
        for m in 0..M {
            sums[m].0[k % 3] += a[k] * b[m][k];
        }
    }
    sums.map(|s| s.0)
}

/// Work vectors of [`bicgstab3`], each an interleaved block of `3 n`
/// entries (entry `i` of column `c` at `3 i + c`), allocated once and
/// reused by every solve.
pub struct Bicgstab3Workspace {
    /// The residual `r`; between the two sweeps of an iteration it holds
    /// `s` instead (`r` is not read from the moment `s` exists until it
    /// is rebuilt from `s`).
    r: Vec<f64>,
    r0: Vec<f64>,
    v: Vec<f64>,
    p: Vec<f64>,
    phat: Vec<f64>,
    shat: Vec<f64>,
    t: Vec<f64>,
}

impl Bicgstab3Workspace {
    /// Work vectors for systems of `n` rows.
    pub fn new(n: usize) -> Bicgstab3Workspace {
        let block = || vec![0.0; 3 * n];
        Bicgstab3Workspace {
            r: block(),
            r0: block(),
            v: block(),
            p: block(),
            phat: block(),
            shat: block(),
            t: block(),
        }
    }

    /// With `A x` in `r`: `r = b − r`, `r₀ = r`. Returns `(b·b, r·r)`.
    fn start(&mut self, b: [&[f64]; 3]) -> ([f64; 3], [f64; 3]) {
        let (mut bb, mut rr) = (Sum3::new(), Sum3::new());
        let blocks = self.r.chunks_exact_mut(3).zip(self.r0.chunks_exact_mut(3));
        for (i, (r, r0)) in blocks.enumerate() {
            for c in 0..3 {
                let bi = b[c][i];
                let ri = bi - r[c];
                r[c] = ri;
                r0[c] = ri;
                bb.0[c] += bi * bi;
                rr.0[c] += ri * ri;
            }
        }
        (bb.0, rr.0)
    }

    /// `p = r + β (p − ω v)`, `p̂ = D⁻¹ p`. In the `first` iteration `p`
    /// and `v` are the zero vectors of the scalar solve — not read here,
    /// so no solve has to clear them: `p − ω v` is then the same
    /// `0 − ω·0` in every entry of a column.
    fn direction(&mut self, diag: &[f64], beta: PerColumn, omega: PerColumn, first: bool) {
        let (r, v) = (&self.r, &self.v);
        let (p, phat) = (&mut self.p, &mut self.phat);
        let len = r.len();
        let full = len - len % BLOCK;
        let rest = PerColumn::new(omega.scalar.map(|w| 0.0 - w * 0.0));
        for k0 in (0..full).step_by(BLOCK) {
            let d = ld(diag, k0 / 3).triple();
            for j in 0..3 {
                let k = k0 + 8 * j;
                let q = if first { rest.wide[j] } else { ld(p, k) - omega.wide[j] * ld(v, k) };
                let pk = ld(r, k) + beta.wide[j] * q;
                st(p, k, pk);
                st(phat, k, jacobi8(d[j], pk));
            }
        }
        for k in full..len {
            let c = k % 3;
            let q = if first { rest.scalar[c] } else { p[k] - omega.scalar[c] * v[k] };
            let pk = r[k] + beta.scalar[c] * q;
            p[k] = pk;
            phat[k] = jacobi1(diag[k / 3], pk);
        }
    }

    /// `s = r − α v` (written over `r`), `ŝ = D⁻¹ s`. Returns `s·s`.
    fn half_step(&mut self, diag: &[f64], alpha: PerColumn) -> [f64; 3] {
        let v = &self.v;
        let (s, shat) = (&mut self.r, &mut self.shat);
        let len = s.len();
        let full = len - len % BLOCK;
        let mut ss = Sum3::new();
        let mut terms = [0.0; BLOCK];
        for k0 in (0..full).step_by(BLOCK) {
            let d = ld(diag, k0 / 3).triple();
            for j in 0..3 {
                let k = k0 + 8 * j;
                let sk = ld(s, k) - alpha.wide[j] * ld(v, k);
                st(s, k, sk);
                st(shat, k, jacobi8(d[j], sk));
                st(&mut terms, 8 * j, sk * sk);
            }
            ss.add_block(&terms);
        }
        for k in full..len {
            let sk = s[k] - alpha.scalar[k % 3] * v[k];
            s[k] = sk;
            shat[k] = jacobi1(diag[k / 3], sk);
            ss.0[k % 3] += sk * sk;
        }
        ss.0
    }

    /// `x += α p̂ + ω ŝ` on the `live` columns and `r = s − ω t` (`s` is
    /// what `r` holds). Returns `(r·r, r₀·r)`.
    ///
    /// A column that is no longer live keeps its `x` because the write
    /// is masked, not because its coefficients are zero: after a
    /// breakdown its work vectors may hold NaN, and `0 × NaN` is NaN.
    fn full_step(
        &mut self,
        x: &mut [f64],
        alpha: PerColumn,
        omega: PerColumn,
        live: [bool; 3],
    ) -> ([f64; 3], [f64; 3]) {
        let (r0, phat, shat, t) = (&self.r0, &self.phat, &self.shat, &self.t);
        let r = &mut self.r;
        let len = r.len();
        let full = len - len % BLOCK;
        let flags = PerColumn::new(live.map(|on| if on { 1.0 } else { 0.0 }));
        let mask: [Mask8; 3] = flags.wide.map(|f| f.gt(F64x8::zero()));
        let (mut rr, mut r0r) = (Sum3::new(), Sum3::new());
        let (mut rr_terms, mut r0r_terms) = ([0.0; BLOCK], [0.0; BLOCK]);
        for k0 in (0..full).step_by(BLOCK) {
            for j in 0..3 {
                let k = k0 + 8 * j;
                let xk = ld(x, k);
                let moved = xk + (alpha.wide[j] * ld(phat, k) + omega.wide[j] * ld(shat, k));
                st(x, k, mask[j].select(moved, xk));
                let rk = ld(r, k) - omega.wide[j] * ld(t, k);
                st(r, k, rk);
                st(&mut rr_terms, 8 * j, rk * rk);
                st(&mut r0r_terms, 8 * j, ld(r0, k) * rk);
            }
            rr.add_block(&rr_terms);
            r0r.add_block(&r0r_terms);
        }
        for k in full..len {
            let c = k % 3;
            if live[c] {
                x[k] += alpha.scalar[c] * phat[k] + omega.scalar[c] * shat[k];
            }
            let rk = r[k] - omega.scalar[c] * t[k];
            r[k] = rk;
            rr.0[c] += rk * rk;
            r0r.0[c] += r0[k] * rk;
        }
        (rr.0, r0r.0)
    }
}

/// Per-column scalars and outcome of a block solve in flight.
struct Columns {
    /// `Some` once the column has left the iteration.
    stats: [Option<SolveStats>; 3],
    rho: [f64; 3],
    alpha: [f64; 3],
    omega: [f64; 3],
    beta: [f64; 3],
}

impl Columns {
    fn live(&self) -> [bool; 3] {
        self.stats.map(|s| s.is_none())
    }

    /// Columns still iterating, in order.
    fn live_columns(&self) -> impl Iterator<Item = usize> {
        let live = self.live();
        (0..3).filter(move |&c| live[c])
    }

    fn any_live(&self) -> bool {
        self.stats.iter().any(|s| s.is_none())
    }

    /// Column `c` leaves the iteration with this outcome. Its
    /// coefficients drop to zero, so from here on its work vectors only
    /// repeat themselves (`s = r`, then `r = s`) instead of drifting
    /// towards overflow or subnormals while the other columns run on.
    fn finish(&mut self, c: usize, iterations: usize, residual: f64, converged: bool) {
        self.stats[c] = Some(SolveStats { iterations, residual, converged });
        self.alpha[c] = 0.0;
        self.omega[c] = 0.0;
        self.beta[c] = 0.0;
    }
}

/// Jacobi-preconditioned BiCGSTAB for three right-hand sides on one
/// nonsymmetric matrix — the three velocity components of the momentum
/// system — as one block solve: every SpMV is one three-column sweep
/// that reads the matrix once ([`spmm3_sweep`], over the pool), every
/// vector update one pass over interleaved blocks.
///
/// `a` is the SELL mirror of the matrix, `b[c]` the right-hand side of
/// column `c`, `diag` the matrix diagonal, `x` the interleaved unknowns
/// (`x[3 i + c]`): the initial guesses on entry, the solutions on return.
///
/// **Each column is its own scalar solve, to the bit.** The columns
/// share sweeps and passes and nothing else: each has its own `ρ`, `α`,
/// `ω`, its own serial node-order dot products ([`Sum3`]) and takes its
/// own exits — converged at the top of an iteration, the `ρ`, `r̂₀·v`
/// and `t·t` breakdowns, the mid-iteration `‖s‖` test (which applies
/// `α p̂` only), `ω = 0`, the `max_iters` cap. A column that has left is
/// masked out of the `x` update while the others iterate on, and the
/// loop ends when the last one leaves. `x`, iteration count, residual
/// and flag of column `c` are those of the scalar solver
/// ([`crate::oracle::bicgstab`]) on the CSR matrix and `b[c]` alone, for
/// any pool size.
#[allow(clippy::too_many_arguments)]
pub fn bicgstab3(
    a: &SellMatrix,
    diag: &[f64],
    b: [&[f64]; 3],
    x: &mut [f64],
    tol: f64,
    max_iters: usize,
    pool: &ThreadPool,
    ws: &mut Bicgstab3Workspace,
) -> [SolveStats; 3] {
    let n = a.n;
    assert_eq!(diag.len(), n);
    assert!(b.iter().all(|col| col.len() == n));
    assert_eq!(x.len(), 3 * n);
    assert_eq!(ws.r.len(), 3 * n, "workspace of another size");

    let sweep = a.chunk_ranges(CG_CHUNKS);
    spmm3_sweep(a, pool, &sweep, x, &mut ws.r);
    let (bb, mut rr) = ws.start(b);
    // r₀ = r, so r₀·r is r·r term by term.
    let mut r0r = rr;
    let b_norm = bb.map(|v| v.sqrt().max(1e-300));
    let mut cols =
        Columns { stats: [None; 3], rho: [1.0; 3], alpha: [1.0; 3], omega: [1.0; 3], beta: [0.0; 3] };
    let mut res = [0.0f64; 3];

    for it in 0..max_iters {
        for c in cols.live_columns() {
            res[c] = rr[c].sqrt() / b_norm[c];
            if res[c] < tol {
                cols.finish(c, it, res[c], true);
            }
        }
        for c in cols.live_columns() {
            cfpd_telemetry::count!("solver.bicgstab_iterations");
            cfpd_flight::record(
                cfpd_flight::EventKind::SolverIter,
                0,
                2,
                it as u64,
                res[c].to_bits(),
            );
            if r0r[c].abs() < 1e-300 {
                cols.finish(c, it, res[c], false);
                continue;
            }
            cols.beta[c] = (r0r[c] / cols.rho[c]) * (cols.alpha[c] / cols.omega[c]);
            cols.rho[c] = r0r[c];
        }
        if !cols.any_live() {
            break;
        }

        ws.direction(diag, PerColumn::new(cols.beta), PerColumn::new(cols.omega), it == 0);
        spmm3_sweep(a, pool, &sweep, &ws.phat, &mut ws.v);
        let [r0v] = dots3(&ws.r0, [&ws.v]);
        for c in cols.live_columns() {
            if r0v[c].abs() < 1e-300 {
                cols.finish(c, it, res[c], false);
                continue;
            }
            cols.alpha[c] = cols.rho[c] / r0v[c];
        }

        let ss = ws.half_step(diag, PerColumn::new(cols.alpha));
        for c in cols.live_columns() {
            let res_s = ss[c].sqrt() / b_norm[c];
            if res_s < tol {
                let alpha = cols.alpha[c];
                for (xi, pi) in x[c..].iter_mut().step_by(3).zip(ws.phat[c..].iter().step_by(3)) {
                    *xi += alpha * pi;
                }
                cols.finish(c, it + 1, res_s, true);
            }
        }
        if !cols.any_live() {
            break;
        }

        spmm3_sweep(a, pool, &sweep, &ws.shat, &mut ws.t);
        let [tt, ts] = dots3(&ws.t, [&ws.t, &ws.r]);
        for c in cols.live_columns() {
            if tt[c].abs() < 1e-300 {
                cols.finish(c, it, res[c], false);
                continue;
            }
            cols.omega[c] = ts[c] / tt[c];
        }
        if !cols.any_live() {
            break;
        }

        let (alpha, omega) = (PerColumn::new(cols.alpha), PerColumn::new(cols.omega));
        (rr, r0r) = ws.full_step(x, alpha, omega, cols.live());
        for c in cols.live_columns() {
            if cols.omega[c].abs() < 1e-300 {
                let res = rr[c].sqrt() / b_norm[c];
                cols.finish(c, it + 1, res, res < tol);
            }
        }
    }
    for c in cols.live_columns() {
        let res = rr[c].sqrt() / b_norm[c];
        cols.finish(c, max_iters, res, res < tol);
    }
    cols.stats.map(|s| s.expect("every column has left the iteration"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::bicgstab;

    /// 1D Poisson matrix (tridiagonal 2,-1) of size n.
    fn poisson_1d(n: usize) -> CsrMatrix {
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

    /// Nonsymmetric convection-diffusion-like tridiagonal matrix.
    fn convdiff_1d(n: usize, peclet: f64) -> CsrMatrix {
        let mut a = poisson_1d(n);
        // Add upwind convection: -c on the subdiagonal, +c shifted.
        for i in 0..n {
            let lo = a.row_ptr[i] as usize;
            let hi = a.row_ptr[i + 1] as usize;
            for k in lo..hi {
                let j = a.col_idx[k] as usize;
                if j + 1 == i {
                    a.values[k] -= peclet;
                } else if j == i {
                    a.values[k] += peclet;
                }
            }
        }
        a
    }

    #[test]
    fn cg_solves_spd_system() {
        let n = 64;
        let a = poisson_1d(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);
        let mut x = vec![0.0; n];
        let stats = cg(&a, &b, &mut x, 1e-12, 1000);
        assert!(stats.converged, "{stats:?}");
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-8, "x[{i}]");
        }
    }

    #[test]
    fn cg_converges_in_at_most_n_iterations() {
        let n = 32;
        let a = poisson_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = cg(&a, &b, &mut x, 1e-10, n + 1);
        assert!(stats.converged, "CG must converge within n iters: {stats:?}");
    }

    #[test]
    fn bicgstab_solves_nonsymmetric_system() {
        let n = 64;
        let a = convdiff_1d(n, 0.7);
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);
        let mut x = vec![0.0; n];
        let stats = bicgstab(&a, &b, &mut x, 1e-12, 2000);
        assert!(stats.converged, "{stats:?}");
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-6, "x[{i}] = {} vs {}", x[i], x_true[i]);
        }
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let a = poisson_1d(16);
        let b = vec![0.0; 16];
        let mut x = vec![0.0; 16];
        let stats = cg(&a, &b, &mut x, 1e-12, 100);
        assert!(stats.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn warm_start_converges_immediately() {
        let n = 32;
        let a = poisson_1d(n);
        let x_true: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);
        let mut x = x_true.clone();
        let stats = cg(&a, &b, &mut x, 1e-10, 100);
        assert_eq!(stats.iterations, 0);
        assert!(stats.converged);
    }

    use cfpd_testkit::prop::{self, PropConfig};
    use cfpd_testkit::rng::Rng;
    use std::cell::Cell;

    impl Bicgstab3Workspace {
        /// What a solve on hostile data may leave behind.
        fn poison(&mut self) {
            let Bicgstab3Workspace { r, r0, v, p, phat, shat, t } = self;
            for block in [r, r0, v, p, phat, shat, t] {
                block.fill(f64::NAN);
            }
        }
    }

    /// Random nonsymmetric matrix with negative off-diagonal entries and
    /// `a_ii = 2 Σ_j |a_ij|`: strictly diagonally dominant, and
    /// `A D⁻¹ d = ½ d` for its diagonal `d` — the right-hand side `d`
    /// makes `s` vanish in the first half-step.
    fn random_dominant(n: usize, rng: &mut Rng) -> CsrMatrix {
        let (mut row_ptr, mut col_idx, mut values) = (vec![0u32], Vec::new(), Vec::new());
        for i in 0..n {
            let mut cols = vec![(i + 1) % n];
            for _ in 0..rng.range_usize(0, 6) {
                cols.push(rng.range_usize(0, n));
            }
            cols.retain(|&j| j != i);
            cols.sort_unstable();
            cols.dedup();
            let mut row: Vec<(usize, f64)> =
                cols.into_iter().map(|j| (j, -rng.range_f64(0.1, 1.0))).collect();
            let off: f64 = row.iter().map(|e| e.1.abs()).sum();
            row.push((i, 2.0 * off));
            row.sort_by_key(|e| e.0);
            for (j, v) in row {
                col_idx.push(j as u32);
                values.push(v);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        CsrMatrix { n, row_ptr: row_ptr.into(), col_idx: col_idx.into(), values }
    }

    /// How a column of the property is made to leave the iteration.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Exit {
        /// Random system: converges after a few iterations (at the top
        /// of the loop or through `‖s‖`), or runs into the cap.
        Iterates,
        ZeroRhs,
        /// Starts at the solution: `r = 0` to the bit.
        WarmStart,
        /// `‖s‖` test of the first iteration: only `α p̂` is applied.
        HalfStep,
        /// `ρ = r̂₀·r` below the breakdown threshold.
        Rho,
        /// `r̂₀·v` below it, with `ρ` above.
        R0v,
        /// `t·t` below it, with `ρ` and `r̂₀·v` above.
        Tt,
    }

    const EXITS: [Exit; 7] = [
        Exit::Iterates,
        Exit::ZeroRhs,
        Exit::WarmStart,
        Exit::HalfStep,
        Exit::Rho,
        Exit::R0v,
        Exit::Tt,
    ];

    /// Right-hand side and initial guess that send a solve on `a`
    /// through `exit`. The breakdowns are reached by scale: `u` scaled to
    /// `u·u = ρ` puts `ρ` itself, `r̂₀·v` (`= ½ ρ` for `u = d`) or `t·t`
    /// (a fraction of `ρ`) under the 1e-300 threshold.
    fn column(a: &CsrMatrix, exit: Exit, rng: &mut Rng) -> (Vec<f64>, Vec<f64>) {
        let n = a.n;
        let random = |rng: &mut Rng| (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect::<Vec<_>>();
        let scaled_to = |u: Vec<f64>, rho: f64| {
            let scale = (rho / dot(&u, &u)).sqrt();
            u.into_iter().map(|v| v * scale).collect::<Vec<_>>()
        };
        match exit {
            Exit::Iterates => (random(rng), random(rng)),
            // Signed zeros in `x`: adding `0·p̂ + 0·ŝ` would lose them.
            Exit::ZeroRhs => {
                (vec![0.0; n], (0..n).map(|i| if i % 2 == 0 { -0.0 } else { 0.0 }).collect())
            }
            Exit::WarmStart => {
                let x = random(rng);
                let mut b = vec![0.0; n];
                a.spmv(&x, &mut b);
                (b, x)
            }
            Exit::HalfStep => (a.diagonal(), vec![0.0; n]),
            Exit::Rho => (scaled_to(random(rng), 1e-304), vec![0.0; n]),
            Exit::R0v => (scaled_to(a.diagonal(), 1.5e-300), vec![0.0; n]),
            Exit::Tt => (scaled_to(random(rng), 3e-300), vec![0.0; n]),
        }
    }

    /// Which exits the property has met with the outcome they stand for.
    #[derive(Default)]
    struct Seen {
        exits: [Cell<bool>; 7],
        /// A `‖s‖` leaver next to a column that iterated on after it.
        half_step_beside_running: Cell<bool>,
        /// A column stopped by `max_iters = 1`.
        capped: Cell<bool>,
    }

    // Every column of the block solve against the scalar solve of that
    // column alone — `x`, iteration count, residual, flag, on the bits —
    // for random matrices and three pool sizes, on a workspace an earlier
    // solve left full of NaN, with the three columns of a case drawn from
    // every way out of the iteration.
    #[test]
    fn prop_bicgstab3_matches_three_scalar_solves() {
        let pools = [ThreadPool::new(1), ThreadPool::new(2), ThreadPool::new(4)];
        let seen = Seen::default();
        prop::check(
            "block BiCGSTAB = three scalar solves, bit for bit",
            PropConfig::cases(80),
            &(prop::usize_range(2, 120), prop::usize_range(0, 1 << 30)),
            |&(n, seed)| {
                let mut rng = Rng::new(seed as u64);
                let a = random_dominant(n, &mut rng);
                let sell = SellMatrix::from_csr(&a);
                let diag = a.diagonal();
                let exits: [Exit; 3] = std::array::from_fn(|_| EXITS[rng.range_usize(0, 7)]);
                let max_iters = [0, 1, 2, 200, 200][rng.range_usize(0, 5)];
                let tol = [1e-6, 1e-10][rng.range_usize(0, 2)];
                let cols: Vec<(Vec<f64>, Vec<f64>)> =
                    exits.iter().map(|&e| column(&a, e, &mut rng)).collect();

                let mut want_x = Vec::new();
                let mut want = Vec::new();
                for (b, x0) in &cols {
                    let mut x = x0.clone();
                    want.push(bicgstab(&a, b, &mut x, tol, max_iters));
                    want_x.push(x);
                }

                let b = [&cols[0].0[..], &cols[1].0[..], &cols[2].0[..]];
                let mut ws = Bicgstab3Workspace::new(n);
                for pool in &pools {
                    ws.poison();
                    let mut x: Vec<f64> = (0..3 * n).map(|k| cols[k % 3].1[k / 3]).collect();
                    let got = bicgstab3(&sell, &diag, b, &mut x, tol, max_iters, pool, &mut ws);
                    let what = format!("{} workers, {exits:?}, cap {max_iters}", pool.max_workers());
                    for c in 0..3 {
                        assert_eq!(got[c].iterations, want[c].iterations, "{what}: column {c}");
                        assert_eq!(got[c].converged, want[c].converged, "{what}: column {c}");
                        assert_eq!(
                            got[c].residual.to_bits(),
                            want[c].residual.to_bits(),
                            "{what}: column {c} residual {:e} vs {:e}",
                            got[c].residual,
                            want[c].residual
                        );
                        for i in 0..n {
                            assert_eq!(
                                x[3 * i + c].to_bits(),
                                want_x[c][i].to_bits(),
                                "{what}: x[{i}] of column {c}"
                            );
                        }
                    }
                }

                // Did each column leave the way it was built to?
                for (c, &exit) in exits.iter().enumerate() {
                    let SolveStats { iterations, converged, .. } = want[c];
                    let met = match exit {
                        Exit::Iterates => iterations >= 2 && converged,
                        Exit::ZeroRhs | Exit::WarmStart => iterations == 0 && converged,
                        Exit::HalfStep => iterations == 1 && converged,
                        // Stopped in iteration 0 without converging: a
                        // breakdown, and the two dots say which.
                        Exit::Rho | Exit::R0v | Exit::Tt => {
                            let b = &cols[c].0;
                            let mut phat = vec![0.0; n];
                            jacobi(&diag, b, &mut phat);
                            let mut v = vec![0.0; n];
                            a.spmv(&phat, &mut v);
                            let (rho, r0v) = (dot(b, b), dot(b, &v));
                            max_iters > 0
                                && iterations == 0
                                && !converged
                                && match exit {
                                    Exit::Rho => rho < 1e-300,
                                    Exit::R0v => rho >= 1e-300 && r0v.abs() < 1e-300,
                                    _ => rho >= 1e-300 && r0v.abs() >= 1e-300,
                                }
                        }
                    };
                    if met {
                        seen.exits[EXITS.iter().position(|&e| e == exit).unwrap()].set(true);
                    }
                    if exit == Exit::HalfStep && met && want.iter().any(|s| s.iterations >= 2) {
                        seen.half_step_beside_running.set(true);
                    }
                    if exit == Exit::Iterates && max_iters == 1 && iterations == 1 && !converged {
                        seen.capped.set(true);
                    }
                }
            },
        );
        for (exit, met) in EXITS.iter().zip(&seen.exits) {
            assert!(met.get(), "no column left through {exit:?}");
        }
        assert!(seen.half_step_beside_running.get(), "no ‖s‖ leaver beside a running column");
        assert!(seen.capped.get(), "no column was stopped by max_iters = 1");
    }

    // A column that has left the iteration keeps the bits of its `x`
    // even when its work vectors and coefficients are NaN (what a
    // breakdown can leave): the write is masked, in the wide blocks and
    // in the scalar tail.
    #[test]
    fn nan_in_a_finished_column_leaves_its_x_untouched() {
        let n = 8 + 3;
        let mut rng = Rng::new(0xdead);
        let mut ws = Bicgstab3Workspace::new(n);
        let blocks = [&mut ws.r, &mut ws.r0, &mut ws.phat, &mut ws.shat, &mut ws.t];
        for block in blocks {
            for (k, v) in block.iter_mut().enumerate() {
                *v = if k % 3 == 1 { f64::NAN } else { rng.range_f64(-1.0, 1.0) };
            }
        }
        let x0: Vec<f64> = (0..3 * n)
            .map(|k| if k % 2 == 0 { -0.0 } else { rng.range_f64(-1.0, 1.0) })
            .collect();
        let (phat, shat) = (ws.phat.clone(), ws.shat.clone());
        let mut x = x0.clone();
        let coefficients = |a: f64| PerColumn::new([a, f64::NAN, a]);
        ws.full_step(&mut x, coefficients(0.5), coefficients(0.25), [true, false, true]);
        for k in 0..3 * n {
            let want = if k % 3 == 1 { x0[k] } else { x0[k] + (0.5 * phat[k] + 0.25 * shat[k]) };
            assert_eq!(x[k].to_bits(), want.to_bits(), "x[{k}]");
        }
    }
}

//! The scalar BiCGSTAB that `krylov::bicgstab3` replaced,
//! kept as its oracle: one right-hand side, serial, allocating, its
//! diagonal looked up row by row — the exact arithmetic every column of
//! the block solve must reproduce.
//!
//! No library target compiles this file. `#[cfg(test)]` items do not
//! cross crate boundaries and the oracle has three users, so each mounts
//! the file itself: `krylov.rs` under `#[cfg(test)]` for the property
//! tests, `cfpd-core`'s `fluid.rs` under `#[cfg(test)]` for the stepper
//! that still runs three scalar solves, and the `hotpath` bench for its
//! `solver1/scalar-x3` row. The mounting module supplies `CsrMatrix` and
//! `SolveStats`.

use super::{CsrMatrix, SolveStats};

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[inline]
fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Jacobi (diagonal) preconditioner: z = D⁻¹ r.
fn jacobi(diag: &[f64], r: &[f64], z: &mut [f64]) {
    for i in 0..r.len() {
        let d = diag[i];
        z[i] = if d.abs() > 1e-300 { r[i] / d } else { r[i] };
    }
}

/// Jacobi-preconditioned BiCGSTAB for one nonsymmetric system. `x`
/// holds the initial guess on entry and the solution on return.
pub fn bicgstab(a: &CsrMatrix, b: &[f64], x: &mut [f64], tol: f64, max_iters: usize) -> SolveStats {
    let n = a.n;
    let diag = a.diagonal();
    let mut r = vec![0.0; n];
    a.spmv(x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let b_norm = norm(b).max(1e-300);
    let r0 = r.clone();
    let mut rho = 1.0f64;
    let mut alpha = 1.0f64;
    let mut omega = 1.0f64;
    let mut v = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut phat = vec![0.0; n];
    let mut s = vec![0.0; n];
    let mut shat = vec![0.0; n];
    let mut t = vec![0.0; n];
    for it in 0..max_iters {
        let res = norm(&r) / b_norm;
        if res < tol {
            return SolveStats { iterations: it, residual: res, converged: true };
        }
        let rho_new = dot(&r0, &r);
        if rho_new.abs() < 1e-300 {
            return SolveStats { iterations: it, residual: res, converged: false };
        }
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        jacobi(&diag, &p, &mut phat);
        a.spmv(&phat, &mut v);
        let r0v = dot(&r0, &v);
        if r0v.abs() < 1e-300 {
            return SolveStats { iterations: it, residual: res, converged: false };
        }
        alpha = rho / r0v;
        for i in 0..n {
            s[i] = r[i] - alpha * v[i];
        }
        if norm(&s) / b_norm < tol {
            for i in 0..n {
                x[i] += alpha * phat[i];
            }
            return SolveStats { iterations: it + 1, residual: norm(&s) / b_norm, converged: true };
        }
        jacobi(&diag, &s, &mut shat);
        a.spmv(&shat, &mut t);
        let tt = dot(&t, &t);
        if tt.abs() < 1e-300 {
            return SolveStats { iterations: it, residual: res, converged: false };
        }
        omega = dot(&t, &s) / tt;
        for i in 0..n {
            x[i] += alpha * phat[i] + omega * shat[i];
            r[i] = s[i] - omega * t[i];
        }
        if omega.abs() < 1e-300 {
            let res = norm(&r) / b_norm;
            return SolveStats { iterations: it + 1, residual: res, converged: res < tol };
        }
    }
    let res = norm(&r) / b_norm;
    SolveStats { iterations: max_iters, residual: res, converged: res < tol }
}

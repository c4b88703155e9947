//! Krylov solvers: BiCGSTAB (for the nonsymmetric momentum system —
//! the paper's *Solver1*) and the plain Jacobi-preconditioned Conjugate
//! Gradient that serves as the reference for the deflated CG of the
//! SPD continuity/pressure system (*Solver2*, [`crate::deflation`]).

use crate::csr::CsrMatrix;

/// A linear operator y = A x, abstracting over assembled sparse
/// matrices and matrix-free element stores. Solvers written against
/// this trait (currently [`bicgstab`]) run bit-identically on either
/// representation when the two `apply` implementations agree to the bit
/// (asserted by the matfree property tests).
pub trait LinearOperator {
    /// Number of rows/columns.
    fn size(&self) -> usize;
    /// y = A x.
    fn apply(&self, x: &[f64], y: &mut [f64]);
    /// Diagonal entries (for Jacobi preconditioning).
    fn diagonal(&self) -> Vec<f64>;
}

impl LinearOperator for CsrMatrix {
    fn size(&self) -> usize {
        self.n
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmv(x, y)
    }
    fn diagonal(&self) -> Vec<f64> {
        CsrMatrix::diagonal(self)
    }
}

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

/// Jacobi (diagonal) preconditioner: z = D⁻¹ r.
fn jacobi(diag: &[f64], r: &[f64], z: &mut [f64]) {
    for i in 0..r.len() {
        let d = diag[i];
        z[i] = if d.abs() > 1e-300 { r[i] / d } else { r[i] };
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

/// Jacobi-preconditioned BiCGSTAB for nonsymmetric systems. Generic
/// over [`LinearOperator`] so the momentum solve can run either on the
/// assembled CSR matrix or the matrix-free element store.
pub fn bicgstab<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iters: usize,
) -> SolveStats {
    let n = a.size();
    let diag = a.diagonal();
    let mut r = vec![0.0; n];
    a.apply(x, &mut r);
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
        cfpd_telemetry::count!("solver.bicgstab_iterations");
        cfpd_flight::record(cfpd_flight::EventKind::SolverIter, 0, 2, it as u64, res.to_bits());
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
        a.apply(&phat, &mut v);
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
        a.apply(&shat, &mut t);
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

#[cfg(test)]
mod tests {
    use super::*;

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
}

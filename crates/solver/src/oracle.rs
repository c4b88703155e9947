//! Reference implementations the bit-identity tests and the `hotpath`
//! bin compare against; no run reaches them.
//!
//! * [`bicgstab`] — the scalar BiCGSTAB that [`crate::krylov::bicgstab3`]
//!   replaced: one right-hand side, serial, allocating, on the CSR
//!   matrix, its diagonal looked up row by row — the exact arithmetic
//!   every column of the block solve must reproduce.
//! * [`compute_sgs`] — the SGS sweep that [`crate::sgs::compute_sgs`]
//!   replaced: the plan's strategy schedule, one element at a time
//!   through the dynamically dispatched scalar kernel.
//!
//! They are `pub`, not `#[cfg(test)]`, because their users sit in three
//! crates (this one's property tests, `cfpd-core`'s oracle steppers, the
//! `hotpath` rows `solver1/scalar-x3` and `sgs/default`) and test-only
//! items do not cross crate boundaries.

use crate::assembly::{AssemblyPlan, AssemblyStrategy};
use crate::csr::CsrMatrix;
use crate::kernels::{sgs_kernel, ElementScratch, FluidProps};
use crate::krylov::SolveStats;
use crate::sgs::{IterTally, SgsField, SgsStats, SgsView};
use crate::shape::RefElement;
use cfpd_mesh::{Mesh, Vec3};
use cfpd_runtime::{
    balanced_ranges, parallel_for, parallel_for_ranges, prefix_weights, Dep, TaskGraph, ThreadPool,
};

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

/// One SGS update sweep over `plan.elems` under the plan's strategy —
/// the schedules the plan built for assembly (color classes, subdomains
/// and their mutex objects). All strategies are race-free here by
/// construction (per-element storage), which is why the paper uses this
/// phase to isolate the scheduling overhead of coloring and
/// multidependences (§4.3, Fig. 7).
#[allow(clippy::too_many_arguments)]
pub fn compute_sgs(
    pool: &ThreadPool,
    refs: &[RefElement; 3],
    mesh: &Mesh,
    plan: &AssemblyPlan,
    velocity: &[Vec3],
    props: FluidProps,
    field: &mut SgsField,
    max_iters: usize,
    tol: f64,
) -> SgsStats {
    let SgsField { values, layout } = field;
    let (offsets, h) = (&layout.offsets, &layout.h);
    let view = SgsView::new(values);
    let tally = IterTally::default();

    // One chunk, color-class slice or subdomain: elements in list order.
    let sweep = |list: &[u32]| {
        let mut scratch = ElementScratch::default();
        let (mut total, mut max) = (0u64, 0usize);
        for &e in list {
            let e = e as usize;
            let (kind, nn) = scratch.load(mesh, velocity, e);
            // SAFETY: element ranges are disjoint; each element is
            // processed by exactly one executor per sweep.
            let slice = unsafe { view.range_mut(offsets[e] as usize, offsets[e + 1] as usize) };
            let iters = sgs_kernel(refs, &scratch, kind, nn, props, h[e], slice, max_iters, tol);
            total += iters as u64;
            max = max.max(iters);
        }
        tally.merge((total, max));
    };

    match plan.strategy {
        AssemblyStrategy::Serial => sweep(&plan.elems),
        AssemblyStrategy::Atomics => {
            // "Atomics" SGS is just a plain parallel loop — no shared
            // update exists, so no atomic is emitted (paper §4.3).
            // Chunked by quadrature-point count, not element count:
            // boundary-layer prisms carry more qps (and more inner
            // iterations) than core tets.
            let elems = &plan.elems;
            let prefix = prefix_weights(elems.len(), |k| {
                mesh.kinds[elems[k] as usize].num_quad_points() as u32
            });
            let ranges = balanced_ranges(&prefix, pool.max_workers().max(1) * 8);
            parallel_for_ranges(pool, &ranges, |_c, range| sweep(&elems[range]));
        }
        AssemblyStrategy::Coloring => {
            // Pointless for SGS but measured to expose its overhead.
            for class in plan.color_classes().expect("coloring plan") {
                parallel_for(pool, 0..class.len(), 32, |range| sweep(&class[range]));
            }
        }
        AssemblyStrategy::Multidep => {
            let members = plan.subdomain_members().expect("multidep plan");
            let objs = plan.edge_objs().expect("multidep plan");
            let mut graph = TaskGraph::new();
            for (members, objs) in members.iter().zip(objs) {
                let deps: Vec<Dep> = objs.iter().map(|&o| Dep::mutex(o)).collect();
                let sweep = &sweep;
                graph.add_task(&deps, move || sweep(members));
            }
            graph.execute(pool);
        }
    }
    tally.stats(plan.elems.len())
}

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
//! * [`assemble_momentum`], [`assemble_poisson`], [`assemble_divergence`],
//!   [`assemble_pressure_gradient`] — the element loops the batch engine
//!   ([`crate::batch`]) replaced on the reference layout: every strategy
//!   unit in list order, one element at a time, a CSR binary search per
//!   scatter-add, and the two right-hand-side loops serial over the whole
//!   list. A plan in [`crate::batch::ElementOrder::List`] must add up
//!   their bits.
//! * the kernels those loops call ([`momentum_kernel`], [`poisson_kernel`],
//!   [`divergence_kernel`], [`pressure_gradient_kernel`], [`sgs_kernel`]):
//!   kind and node count read per element at run time.
//!
//! They are `pub`, not `#[cfg(test)]`, because their users sit in three
//! crates (this one's property tests, `cfpd-core`'s oracle steppers, the
//! `hotpath` rows `solver1/scalar-x3`, `sgs/default`, `assembly/oracle`
//! and `assembly/serial-pass`) and test-only items do not cross crate
//! boundaries.

use crate::assembly::{AssemblyPlan, AssemblyStats, AssemblyStrategy};
use crate::csr::CsrMatrix;
use crate::kernels::{
    divergence_kernel_n, pressure_gradient_kernel_n, sgs_kernel_on, ElementScratch, FluidProps,
    LocalMomentum, LocalPoisson,
};
use crate::krylov::SolveStats;
use crate::sgs::{IterTally, SgsField, SgsStats};
use crate::shared::{AtomicView, SharedOut};
use crate::shape::{map_qp, MappedQp, RefElement, MAX_NODES};
use cfpd_mesh::{ElementKind, Mesh, Vec3};
use cfpd_runtime::{
    balanced_ranges, parallel_for, parallel_for_ranges, prefix_weights, Dep, TaskGraph, ThreadPool,
};
use std::sync::atomic::Ordering;

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
    let view = SharedOut::new(values);
    let tally = IterTally::default();

    // One chunk, color-class slice or subdomain: elements in list order.
    let sweep = |list: &[u32]| {
        let mut scratch = ElementScratch::default();
        let (mut total, mut max) = (0u64, 0usize);
        for &e in list {
            let e = e as usize;
            let (kind, nn) = scratch.load(mesh, velocity, e);
            // Element ranges are disjoint; each element is processed by
            // exactly one executor per sweep.
            let slice = view.claim(offsets[e] as usize..offsets[e + 1] as usize);
            let iters = sgs_kernel(refs, &scratch, kind, nn, props, h[e], slice.slice, max_iters, tol);
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

/// [`crate::kernels::momentum_kernel_n`] with the kind and node count
/// read per element at run time: the source the monomorphized and lane
/// kernels mirror operation for operation.
#[allow(clippy::too_many_arguments)]
pub fn momentum_kernel(
    refs: &[RefElement; 3],
    scratch: &ElementScratch,
    kind: ElementKind,
    nn: usize,
    props: FluidProps,
    dt: f64,
    h_elem: f64,
    body_force: Vec3,
) -> Option<LocalMomentum> {
    let re = &refs[RefElement::index_of(kind)];
    let mut out = LocalMomentum { nn, a: [[0.0; MAX_NODES]; MAX_NODES], b: [[0.0; 3]; MAX_NODES] };
    let rho_dt = props.density / dt;
    for qp in &re.qps {
        let m: MappedQp = map_qp(qp, &scratch.coords, nn)?;
        // Convecting velocity and old velocity at the point.
        let mut uc = Vec3::ZERO;
        for i in 0..nn {
            uc += scratch.vel[i] * m.n[i];
        }
        let speed = uc.norm();
        let (su_coef, udir) = if speed > 1e-12 {
            (0.5 * props.density * speed * h_elem, uc / speed)
        } else {
            (0.0, Vec3::ZERO)
        };
        for i in 0..nn {
            let ni = m.n[i];
            let gi = m.grad[i];
            let gi_s = udir.x * gi[0] + udir.y * gi[1] + udir.z * gi[2];
            for j in 0..nn {
                let gj = m.grad[j];
                let mass = rho_dt * ni * m.n[j];
                let diff = props.viscosity * (gi[0] * gj[0] + gi[1] * gj[1] + gi[2] * gj[2]);
                let conv =
                    props.density * ni * (uc.x * gj[0] + uc.y * gj[1] + uc.z * gj[2]);
                let gj_s = udir.x * gj[0] + udir.y * gj[1] + udir.z * gj[2];
                let su = su_coef * gi_s * gj_s;
                out.a[i][j] += (mass + diff + conv + su) * m.dvol;
            }
            // RHS: (ρ/dt) u_n + ρ f (non-incremental splitting: the
            // momentum step sees no pressure).
            let rhs = (uc * rho_dt + body_force * props.density) * (ni * m.dvol);
            out.b[i][0] += rhs.x;
            out.b[i][1] += rhs.y;
            out.b[i][2] += rhs.z;
        }
    }
    Some(out)
}


/// [`crate::kernels::poisson_kernel_n`] for a run-time node count.
pub fn poisson_kernel(
    refs: &[RefElement; 3],
    scratch: &ElementScratch,
    kind: ElementKind,
    nn: usize,
) -> Option<LocalPoisson> {
    let re = &refs[RefElement::index_of(kind)];
    let mut out = LocalPoisson { nn, l: [[0.0; MAX_NODES]; MAX_NODES] };
    for qp in &re.qps {
        let m = map_qp(qp, &scratch.coords, nn)?;
        for i in 0..nn {
            let gi = m.grad[i];
            for j in 0..nn {
                let gj = m.grad[j];
                out.l[i][j] += (gi[0] * gj[0] + gi[1] * gj[1] + gi[2] * gj[2]) * m.dvol;
            }
        }
    }
    Some(out)
}


/// Dispatch a node-count-monomorphized kernel on the element kind.
macro_rules! by_kind {
    ($kind:expr, $kernel:ident($($arg:expr),*)) => {
        match $kind {
            ElementKind::Tet4 => $kernel::<4>($($arg),*),
            ElementKind::Pyr5 => $kernel::<5>($($arg),*),
            ElementKind::Pri6 => $kernel::<6>($($arg),*),
        }
    };
}


/// [`divergence_kernel_n`] dispatched on the element kind.
pub fn divergence_kernel(
    refs: &[RefElement; 3],
    scratch: &ElementScratch,
    kind: ElementKind,
    props: FluidProps,
    dt: f64,
) -> Option<[f64; MAX_NODES]> {
    let re = &refs[RefElement::index_of(kind)];
    by_kind!(kind, divergence_kernel_n(re, scratch, props, dt))
}


/// [`pressure_gradient_kernel_n`] dispatched on the element kind.
pub fn pressure_gradient_kernel(
    refs: &[RefElement; 3],
    scratch: &ElementScratch,
    kind: ElementKind,
) -> Option<[[f64; 3]; MAX_NODES]> {
    let re = &refs[RefElement::index_of(kind)];
    by_kind!(kind, pressure_gradient_kernel_n(re, scratch))
}


/// [`sgs_kernel_on`] with the reference element looked up per element.
#[allow(clippy::too_many_arguments)]
pub fn sgs_kernel(
    refs: &[RefElement; 3],
    scratch: &ElementScratch,
    kind: ElementKind,
    nn: usize,
    props: FluidProps,
    h_elem: f64,
    sgs: &mut [Vec3],
    max_iters: usize,
    tol: f64,
) -> usize {
    let re = &refs[RefElement::index_of(kind)];
    sgs_kernel_on(re, scratch, nn, props, h_elem, sgs, max_iters, tol)
}

/// A local contribution ready to scatter: `nn` nodes, dense block `a`,
/// and `rhs_dim` right-hand-side components per node.
struct LocalBlock {
    nn: usize,
    a: [[f64; MAX_NODES]; MAX_NODES],
    b: [[f64; 3]; MAX_NODES],
}

impl From<LocalMomentum> for LocalBlock {
    fn from(m: LocalMomentum) -> Self {
        LocalBlock { nn: m.nn, a: m.a, b: m.b }
    }
}

impl From<LocalPoisson> for LocalBlock {
    fn from(p: LocalPoisson) -> Self {
        LocalBlock { nn: p.nn, a: p.l, b: [[0.0; 3]; MAX_NODES] }
    }
}

/// Generic strategy-dispatched assembly of a scalar CSR matrix plus up
/// to 3 RHS component vectors, in the list order of each strategy unit:
/// the summation order `tests/golden/sync_small.golden` pins. `compute`
/// produces the local block of one element (given a per-executor
/// scratch).
fn assemble_generic<K>(
    pool: &ThreadPool,
    mesh: &Mesh,
    plan: &AssemblyPlan,
    rhs_dim: usize,
    compute: K,
    matrix: &mut CsrMatrix,
    rhs: &mut [Vec<f64>],
) -> AssemblyStats
where
    K: Fn(&mut ElementScratch, usize) -> Option<LocalBlock> + Sync,
{
    assert!(rhs_dim <= 3 && rhs.len() == rhs_dim);
    let mut stats = plan.stats();

    // The values leave the matrix while the pattern names their entries.
    let mut values = std::mem::take(&mut matrix.values);
    let pattern = &*matrix;
    match plan.strategy {
        AssemblyStrategy::Serial => {
            let mut scratch = ElementScratch::default();
            for &e in &plan.elems {
                let e = e as usize;
                let lb = compute(&mut scratch, e).expect("degenerate element");
                let nodes = mesh.elem_nodes(e);
                for i in 0..lb.nn {
                    let gi = nodes[i] as usize;
                    for j in 0..lb.nn {
                        let idx = pattern.entry_index(gi, nodes[j] as usize);
                        values[idx] += lb.a[i][j];
                    }
                    for (c, r) in rhs.iter_mut().enumerate() {
                        r[gi] += lb.b[i][c];
                    }
                }
            }
        }
        AssemblyStrategy::Atomics => {
            let av = AtomicView::new(&mut values);
            let rvs: Vec<AtomicView> = rhs.iter_mut().map(|r| AtomicView::new(r)).collect();
            let elems = &plan.elems;
            parallel_for(pool, 0..elems.len(), plan.atomics_grain(), |range| {
                let mut scratch = ElementScratch::default();
                for k in range {
                    let e = elems[k] as usize;
                    let lb = compute(&mut scratch, e).expect("degenerate element");
                    let nodes = mesh.elem_nodes(e);
                    for i in 0..lb.nn {
                        let gi = nodes[i] as usize;
                        for j in 0..lb.nn {
                            let idx = pattern.entry_index(gi, nodes[j] as usize);
                            av.add_at(idx, lb.a[i][j]);
                        }
                        for (c, rv) in rvs.iter().enumerate() {
                            rv.add_at(gi, lb.b[i][c]);
                        }
                    }
                }
            });
            stats.atomic_adds = av.atomic_ops.load(Ordering::Relaxed)
                + rvs.iter().map(|r| r.atomic_ops.load(Ordering::Relaxed)).sum::<usize>();
        }
        AssemblyStrategy::Coloring => {
            let dv = SharedOut::new(&mut values);
            let rvs: Vec<SharedOut<f64>> = rhs.iter_mut().map(|r| SharedOut::new(r)).collect();
            let classes = plan.color_classes().expect("coloring plan");
            for class in classes {
                parallel_for(pool, 0..class.len(), plan.atomics_grain(), |range| {
                    let mut scratch = ElementScratch::default();
                    for k in range {
                        let e = class[k] as usize;
                        let lb = compute(&mut scratch, e).expect("degenerate element");
                        let nodes = mesh.elem_nodes(e);
                        for i in 0..lb.nn {
                            let gi = nodes[i] as usize;
                            for j in 0..lb.nn {
                                let idx = pattern.entry_index(gi, nodes[j] as usize);
                                // Same-color elements share no node, so
                                // concurrent writes are disjoint.
                                dv.add(idx, lb.a[i][j]);
                            }
                            for (c, rv) in rvs.iter().enumerate() {
                                rv.add(gi, lb.b[i][c]);
                            }
                        }
                    }
                });
            }
        }
        AssemblyStrategy::Multidep => {
            let dv = SharedOut::new(&mut values);
            let rvs: Vec<SharedOut<f64>> = rhs.iter_mut().map(|r| SharedOut::new(r)).collect();
            let members = plan.subdomain_members().expect("multidep plan");
            let mut graph = TaskGraph::new();
            for (s, elems) in members.iter().enumerate() {
                let dv = &dv;
                let rvs = &rvs;
                let compute = &compute;
                graph.add_task(&plan.ordered_deps(s), move || {
                    let mut scratch = ElementScratch::default();
                    for &e in elems {
                        let e = e as usize;
                        let lb = compute(&mut scratch, e).expect("degenerate element");
                        let nodes = mesh.elem_nodes(e);
                        for i in 0..lb.nn {
                            let gi = nodes[i] as usize;
                            for j in 0..lb.nn {
                                let idx = pattern.entry_index(gi, nodes[j] as usize);
                                // Adjacent subdomains are ordered by a
                                // dependence; non-adjacent ones share no
                                // node.
                                dv.add(idx, lb.a[i][j]);
                            }
                            for (c, rv) in rvs.iter().enumerate() {
                                rv.add(gi, lb.b[i][c]);
                            }
                        }
                    }
                });
            }
            graph.execute(pool);
        }
    }
    matrix.values = values;
    stats
}

/// The momentum system (matrix + 3-component RHS) over `plan.elems`
/// under the plan's strategy, every strategy unit one element loop in
/// list order (whatever order the plan's batches are cut in).
#[allow(clippy::too_many_arguments)]
pub fn assemble_momentum(
    pool: &ThreadPool,
    refs: &[RefElement; 3],
    mesh: &Mesh,
    plan: &AssemblyPlan,
    velocity: &[Vec3],
    props: FluidProps,
    dt: f64,
    body_force: Vec3,
    matrix: &mut CsrMatrix,
    rhs: &mut [Vec<f64>],
) -> AssemblyStats {
    assemble_generic(
        pool,
        mesh,
        plan,
        3,
        |scratch, e| {
            let (kind, nn) = scratch.load(mesh, velocity, e);
            let h = mesh.volume(e).abs().cbrt();
            momentum_kernel(refs, scratch, kind, nn, props, dt, h, body_force)
                .map(LocalBlock::from)
        },
        matrix,
        rhs,
    )
}

/// The pressure-Poisson matrix, scheduled like [`assemble_momentum`].
pub fn assemble_poisson(
    pool: &ThreadPool,
    refs: &[RefElement; 3],
    mesh: &Mesh,
    plan: &AssemblyPlan,
    matrix: &mut CsrMatrix,
) -> AssemblyStats {
    assemble_generic(
        pool,
        mesh,
        plan,
        0,
        |scratch, e| {
            let (kind, nn) = scratch.load_coords(mesh, e);
            poisson_kernel(refs, scratch, kind, nn).map(LocalBlock::from)
        },
        matrix,
        &mut [],
    )
}

/// Add the weak divergence right-hand side of the pressure-Poisson
/// system of `plan.elems` into `rhs`: one serial element loop in list
/// order, whatever the strategy (`_pool` is there for the signature of
/// the sweep this is compared with).
#[allow(clippy::too_many_arguments)]
pub fn assemble_divergence(
    _pool: &ThreadPool,
    refs: &[RefElement; 3],
    mesh: &Mesh,
    plan: &AssemblyPlan,
    velocity: &[Vec3],
    props: FluidProps,
    dt: f64,
    rhs: &mut [f64],
) {
    let mut scratch = ElementScratch::default();
    for &e in &plan.elems {
        let (kind, _) = scratch.load(mesh, velocity, e as usize);
        let b = divergence_kernel(refs, &scratch, kind, props, dt).expect("degenerate element");
        for (k, &v) in mesh.elem_nodes(e as usize).iter().enumerate() {
            rhs[v as usize] += b[k];
        }
    }
}

/// Add the weak nodal pressure gradient of `plan.elems` into `grad`
/// (component `c` of node `i` at `grad[3 i + c]`), like
/// [`assemble_divergence`].
pub fn assemble_pressure_gradient(
    _pool: &ThreadPool,
    refs: &[RefElement; 3],
    mesh: &Mesh,
    plan: &AssemblyPlan,
    pressure: &[f64],
    grad: &mut [f64],
) {
    let mut scratch = ElementScratch::default();
    for &e in &plan.elems {
        let (kind, _) = scratch.load_coords(mesh, e as usize);
        let nodes = mesh.elem_nodes(e as usize);
        for (k, &v) in nodes.iter().enumerate() {
            scratch.pres[k] = pressure[v as usize];
        }
        let g = pressure_gradient_kernel(refs, &scratch, kind).expect("degenerate element");
        for (k, &v) in nodes.iter().enumerate() {
            for c in 0..3 {
                grad[3 * v as usize + c] += g[k][c];
            }
        }
    }
}

//! Lane-SoA element kernels: the wide-SIMD assembly path.
//!
//! The batched assembly loop is still *scalar over elements*: one
//! element's quadrature kernel runs to completion before the next
//! starts, so the vector units only see the short `NN`-length inner
//! loops. This module restructures the hot kernels to evaluate
//! [`LANES`] same-kind elements at once over structure-of-lanes arrays
//! (`[f64; LANES]` innermost), giving the compiler clean 8-wide
//! vertical operations — the "OpenACC assembly" restructuring of the
//! Alya exascale paper, in portable Rust.
//!
//! **Bit-identity contract.** For each lane, the floating-point
//! operation sequence is *exactly* the scalar kernel's: same
//! association, same division (no reciprocal tricks), and the
//! data-dependent `speed > 1e-12` branch becomes a per-lane select
//! whose taken arm performs the identical `uc/speed` division. Rust
//! never enables FP contraction or reassociation, so widening the ISA
//! cannot change results: every local matrix/RHS entry is bit-identical
//! to [`crate::kernels::momentum_kernel_n`] /
//! [`crate::kernels::poisson_kernel_n`] — pinned by property tests.
//! [`sgs_kernel_lanes`] carries the same contract through a
//! data-dependent loop: a lane that has converged is frozen by a mask
//! while its neighbours iterate on.

use crate::kernels::FluidProps;
use crate::shape::{QuadPoint, RefElement, MAX_NODES, MAX_QP};
use crate::simd::{F64x8, Mask8};
use cfpd_mesh::Vec3;

/// Elements evaluated per kernel call: 8 doubles = one AVX-512 register
/// (two NEON/SVE-128 registers on the paper's Arm target).
pub const LANES: usize = 8;

/// One 8-wide SIMD "register" of per-element values.
pub type Lane = [f64; LANES];

/// Node data of [`LANES`] elements in structure-of-lanes layout.
#[derive(Debug, Clone)]
pub struct LaneScratch {
    /// `coords[node][axis][lane]`.
    pub coords: [[Lane; 3]; MAX_NODES],
    /// `vel[node][axis][lane]`.
    pub vel: [[Lane; 3]; MAX_NODES],
    /// `pres[node][lane]`.
    pub pres: [Lane; MAX_NODES],
    /// Characteristic element length per lane.
    pub h: Lane,
}

impl Default for LaneScratch {
    fn default() -> Self {
        LaneScratch {
            coords: [[[0.0; LANES]; 3]; MAX_NODES],
            vel: [[[0.0; LANES]; 3]; MAX_NODES],
            pres: [[0.0; LANES]; MAX_NODES],
            h: [0.0; LANES],
        }
    }
}

impl LaneScratch {
    /// Gather node data for elements `first..first+LANES` of a batch
    /// (flattened `gather` list, `nn` nodes per element). Reads exactly
    /// the values the scalar per-element gather reads; a kernel that
    /// reads no velocity or no pressure passes `None` and those slots
    /// keep what they held.
    #[allow(clippy::too_many_arguments)]
    pub fn load(
        &mut self,
        coords: &[Vec3],
        velocity: Option<&[Vec3]>,
        pressure: Option<&[f64]>,
        gather: &[u32],
        h: &[f64],
        nn: usize,
        first: usize,
    ) {
        for l in 0..LANES {
            let nodes = &gather[(first + l) * nn..(first + l + 1) * nn];
            for (k, &v) in nodes.iter().enumerate() {
                let c = coords[v as usize];
                self.coords[k][0][l] = c.x;
                self.coords[k][1][l] = c.y;
                self.coords[k][2][l] = c.z;
                if let Some(velocity) = velocity {
                    let u = velocity[v as usize];
                    self.vel[k][0][l] = u.x;
                    self.vel[k][1][l] = u.y;
                    self.vel[k][2][l] = u.z;
                }
                if let Some(pressure) = pressure {
                    self.pres[k][l] = pressure[v as usize];
                }
            }
            self.h[l] = h[first + l];
        }
    }
}

/// Local momentum matrices/RHS of [`LANES`] elements (lane-innermost).
#[derive(Debug, Clone)]
pub struct LaneMomentum {
    pub a: [[Lane; MAX_NODES]; MAX_NODES],
    pub b: [[Lane; 3]; MAX_NODES],
}

/// Local Poisson matrices of [`LANES`] elements.
#[derive(Debug, Clone)]
pub struct LanePoisson {
    pub l: [[Lane; MAX_NODES]; MAX_NODES],
}

/// Per-lane geometry at one quadrature point: `dvol` and physical
/// gradients (shape values are lane-independent and stay on the
/// [`QuadPoint`]).
struct LaneQp {
    dvol: F64x8,
    grad: [[F64x8; 3]; MAX_NODES],
}

/// [`crate::shape::map_qp`] over [`LANES`] elements. Returns `None` if
/// *any* lane has a non-invertible Jacobian (the assembly path treats
/// that as a mesh error, exactly like the scalar `.expect`).
///
/// Per lane this performs the identical straight-line op sequence of
/// the scalar map: Jacobian accumulation in node order, the same
/// cofactor determinant, the same adjugate-over-det inverse. The
/// [`F64x8`] expressions below mirror the scalar source tree
/// operator-for-operator, so each lane's bits match the scalar map.
fn map_qp_lanes(qp: &QuadPoint, coords: &[[Lane; 3]; MAX_NODES], nn: usize) -> Option<LaneQp> {
    let mut j = [[F64x8::zero(); 3]; 3];
    for i in 0..nn {
        let c = [
            F64x8::load(&coords[i][0]),
            F64x8::load(&coords[i][1]),
            F64x8::load(&coords[i][2]),
        ];
        for r in 0..3 {
            let d = F64x8::splat(qp.dn[i][r]);
            j[r][0] = j[r][0] + d * c[0];
            j[r][1] = j[r][1] + d * c[1];
            j[r][2] = j[r][2] + d * c[2];
        }
    }
    let det = j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
        - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
        + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0]);
    if det.abs().lt(F64x8::splat(1e-30)).any() {
        return None;
    }
    let inv_det = F64x8::splat(1.0) / det;
    let inv = [
        [
            (j[1][1] * j[2][2] - j[1][2] * j[2][1]) * inv_det,
            (j[0][2] * j[2][1] - j[0][1] * j[2][2]) * inv_det,
            (j[0][1] * j[1][2] - j[0][2] * j[1][1]) * inv_det,
        ],
        [
            (j[1][2] * j[2][0] - j[1][0] * j[2][2]) * inv_det,
            (j[0][0] * j[2][2] - j[0][2] * j[2][0]) * inv_det,
            (j[0][2] * j[1][0] - j[0][0] * j[1][2]) * inv_det,
        ],
        [
            (j[1][0] * j[2][1] - j[1][1] * j[2][0]) * inv_det,
            (j[0][1] * j[2][0] - j[0][0] * j[2][1]) * inv_det,
            (j[0][0] * j[1][1] - j[0][1] * j[1][0]) * inv_det,
        ],
    ];
    let mut grad = [[F64x8::zero(); 3]; MAX_NODES];
    for i in 0..nn {
        for c in 0..3 {
            grad[i][c] = inv[c][0] * F64x8::splat(qp.dn[i][0])
                + inv[c][1] * F64x8::splat(qp.dn[i][1])
                + inv[c][2] * F64x8::splat(qp.dn[i][2]);
        }
    }
    let dvol = F64x8::splat(qp.weight) * det.abs();
    Some(LaneQp { dvol, grad })
}

/// [`map_qp_lanes`] at one quadrature point after the other of a lane
/// block. The map of an affine tet does not depend on the point: its
/// reference gradients and its four weights are the same everywhere
/// (pinned in [`crate::shape`]'s tests), so the geometry of the first
/// point is, bit for bit, that of the other three and is kept for them.
/// Prisms and pyramids are mapped point by point.
struct MappedPoints<'a> {
    coords: &'a [[Lane; 3]; MAX_NODES],
    nn: usize,
    kept: Option<LaneQp>,
}

impl<'a> MappedPoints<'a> {
    fn new(coords: &'a [[Lane; 3]; MAX_NODES], nn: usize) -> MappedPoints<'a> {
        MappedPoints { coords, nn, kept: None }
    }

    /// The geometry at `qp`, the next point of the rule, and whether it
    /// was mapped anew rather than kept from the previous point; `None`
    /// as from [`map_qp_lanes`].
    #[inline(always)]
    fn next(&mut self, qp: &QuadPoint) -> Option<(&LaneQp, bool)> {
        let fresh = self.kept.is_none() || self.nn != 4;
        if fresh {
            self.kept = Some(map_qp_lanes(qp, self.coords, self.nn)?);
        }
        self.kept.as_ref().map(|m| (m, fresh))
    }
}

/// [`crate::kernels::momentum_kernel_n`] over [`LANES`] elements;
/// bit-identical per lane (see the module docs for the contract).
pub fn momentum_kernel_lanes<const NN: usize>(
    re: &RefElement,
    scratch: &LaneScratch,
    props: FluidProps,
    dt: f64,
    body_force: Vec3,
) -> Option<LaneMomentum> {
    let mut out = LaneMomentum {
        a: [[[0.0; LANES]; MAX_NODES]; MAX_NODES],
        b: [[[0.0; LANES]; 3]; MAX_NODES],
    };
    let rho_dt = props.density / dt;
    let bf = [
        body_force.x * props.density,
        body_force.y * props.density,
        body_force.z * props.density,
    ];
    let v_rho_dt = F64x8::splat(rho_dt);
    let mut points = MappedPoints::new(&scratch.coords, NN);
    for qp in &re.qps {
        let (m, _) = points.next(qp)?;
        // Convecting velocity at the point (node order, like scalar).
        let mut uc = [F64x8::zero(); 3];
        for i in 0..NN {
            let ni = F64x8::splat(qp.n[i]);
            for c in 0..3 {
                uc[c] = uc[c] + F64x8::load(&scratch.vel[i][c]) * ni;
            }
        }
        // speed = uc.norm(); per-lane select of (su_coef, udir). The
        // taken arm divides by the *actual* speed — `uc/speed`, not
        // `uc * (1/speed)` — matching the scalar kernel bit-for-bit.
        // (The untaken lanes' `uc/speed` may be ±inf/NaN; the select
        // discards them, exactly like the scalar untaken branch.)
        let speed = (uc[0] * uc[0] + uc[1] * uc[1] + uc[2] * uc[2]).sqrt();
        let moving = speed.gt(F64x8::splat(1e-12));
        let su_coef = moving.select(
            F64x8::splat(0.5 * props.density) * speed * F64x8::load(&scratch.h),
            F64x8::zero(),
        );
        let udir = [
            moving.select(uc[0] / speed, F64x8::zero()),
            moving.select(uc[1] / speed, F64x8::zero()),
            moving.select(uc[2] / speed, F64x8::zero()),
        ];
        let v_visc = F64x8::splat(props.viscosity);
        for i in 0..NN {
            let ni = qp.n[i];
            let gi = &m.grad[i];
            let gi_s = udir[0] * gi[0] + udir[1] * gi[1] + udir[2] * gi[2];
            let gi_su = su_coef * gi_s;
            for j in 0..NN {
                let gj = &m.grad[j];
                // mass = (ρ/dt)·N_i·N_j is lane-independent.
                let mass = F64x8::splat(rho_dt * ni * qp.n[j]);
                let rni = F64x8::splat(props.density * ni);
                let diff = v_visc * (gi[0] * gj[0] + gi[1] * gj[1] + gi[2] * gj[2]);
                let conv = rni * (uc[0] * gj[0] + uc[1] * gj[1] + uc[2] * gj[2]);
                let gj_s = udir[0] * gj[0] + udir[1] * gj[1] + udir[2] * gj[2];
                let su = gi_su * gj_s;
                let aij = &mut out.a[i][j];
                (F64x8::load(aij) + (mass + diff + conv + su) * m.dvol).store(aij);
            }
            for c in 0..3 {
                let t = F64x8::splat(ni) * m.dvol;
                let bic = &mut out.b[i][c];
                (F64x8::load(bic) + (uc[c] * v_rho_dt + F64x8::splat(bf[c])) * t).store(bic);
            }
        }
    }
    Some(out)
}

/// [`crate::kernels::poisson_kernel_n`] over [`LANES`] elements;
/// bit-identical per lane.
pub fn poisson_kernel_lanes<const NN: usize>(
    re: &RefElement,
    scratch: &LaneScratch,
) -> Option<LanePoisson> {
    let mut out = LanePoisson { l: [[[0.0; LANES]; MAX_NODES]; MAX_NODES] };
    let mut points = MappedPoints::new(&scratch.coords, NN);
    for qp in &re.qps {
        let (m, _) = points.next(qp)?;
        for i in 0..NN {
            let gi = &m.grad[i];
            for j in 0..NN {
                let gj = &m.grad[j];
                let lij = &mut out.l[i][j];
                (F64x8::load(lij)
                    + (gi[0] * gj[0] + gi[1] * gj[1] + gi[2] * gj[2]) * m.dvol)
                    .store(lij);
            }
        }
    }
    Some(out)
}

/// [`crate::kernels::divergence_kernel_n`] over [`LANES`] elements;
/// bit-identical per lane.
pub fn divergence_kernel_lanes<const NN: usize>(
    re: &RefElement,
    scratch: &LaneScratch,
    props: FluidProps,
    dt: f64,
) -> Option<[Lane; MAX_NODES]> {
    let mut out = [[0.0; LANES]; MAX_NODES];
    let v_rho_dt = F64x8::splat(props.density / dt);
    let mut points = MappedPoints::new(&scratch.coords, NN);
    for qp in &re.qps {
        let (m, _) = points.next(qp)?;
        let mut u = [F64x8::zero(); 3];
        for i in 0..NN {
            let ni = F64x8::splat(qp.n[i]);
            for c in 0..3 {
                u[c] = u[c] + F64x8::load(&scratch.vel[i][c]) * ni;
            }
        }
        for i in 0..NN {
            let gi = &m.grad[i];
            let bi = &mut out[i];
            (F64x8::load(bi)
                + v_rho_dt * (gi[0] * u[0] + gi[1] * u[1] + gi[2] * u[2]) * m.dvol)
                .store(bi);
        }
    }
    Some(out)
}

/// [`crate::kernels::pressure_gradient_kernel_n`] over [`LANES`]
/// elements; bit-identical per lane.
pub fn pressure_gradient_kernel_lanes<const NN: usize>(
    re: &RefElement,
    scratch: &LaneScratch,
) -> Option<[[Lane; 3]; MAX_NODES]> {
    let mut out = [[[0.0; LANES]; 3]; MAX_NODES];
    let mut points = MappedPoints::new(&scratch.coords, NN);
    for qp in &re.qps {
        let (m, _) = points.next(qp)?;
        let mut gp = [F64x8::zero(); 3];
        for k in 0..NN {
            let pk = F64x8::load(&scratch.pres[k]);
            for c in 0..3 {
                gp[c] = gp[c] + m.grad[k][c] * pk;
            }
        }
        for i in 0..NN {
            let w = F64x8::splat(qp.n[i]) * m.dvol;
            for c in 0..3 {
                let gic = &mut out[i][c];
                (F64x8::load(gic) + gp[c] * w).store(gic);
            }
        }
    }
    Some(out)
}

/// [`crate::kernels::lumped_mass_kernel`] over [`LANES`] elements;
/// bit-identical per lane.
pub fn lumped_mass_kernel_lanes<const NN: usize>(
    re: &RefElement,
    scratch: &LaneScratch,
) -> Option<[Lane; MAX_NODES]> {
    let mut out = [[0.0; LANES]; MAX_NODES];
    let mut points = MappedPoints::new(&scratch.coords, NN);
    for qp in &re.qps {
        let (m, _) = points.next(qp)?;
        for i in 0..NN {
            (F64x8::load(&out[i]) + F64x8::splat(qp.n[i]) * m.dvol).store(&mut out[i]);
        }
    }
    Some(out)
}

/// Subgrid velocities of [`LANES`] elements, `usg[qp][axis][lane]`.
pub type LaneSgs = [[Lane; 3]; MAX_QP];

/// Put one element's per-point subgrid velocities into lane `l`.
#[inline]
pub fn set_lane_sgs(sgs: &mut LaneSgs, l: usize, values: &[Vec3]) {
    for (q, v) in values.iter().enumerate() {
        sgs[q][0][l] = v.x;
        sgs[q][1][l] = v.y;
        sgs[q][2][l] = v.z;
    }
}

/// Read lane `l` back into one element's per-point subgrid velocities.
#[inline]
pub fn get_lane_sgs(sgs: &LaneSgs, l: usize, values: &mut [Vec3]) {
    for (q, v) in values.iter_mut().enumerate() {
        *v = Vec3::new(sgs[q][0][l], sgs[q][1][l], sgs[q][2][l]);
    }
}

#[inline(always)]
fn norm(v: &[F64x8; 3]) -> F64x8 {
    (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()
}

/// [`crate::kernels::sgs_kernel_on`] over [`LANES`] elements: per lane
/// the same values and the same iteration count, bit for bit.
///
/// Two passes. The first maps every quadrature point of the block and
/// builds its resolved velocity `u` and gradient `∇u`; `∇u` does not
/// read the point's shape values, so a tet, whose map is one for all
/// four points, builds it once. The second is one fixed-point loop over
/// every (point, lane) under a per-point "still iterating" mask: the
/// points' chains of sqrt and division are independent, so they overlap
/// instead of each waiting for the previous point's loop to leave. A
/// lane that converges at a point keeps the value it converged to
/// (`select` discards what later iterations compute for it) and stops
/// counting there; the loop leaves when no (point, lane) is active or
/// at `max_iters`, whichever the scalar loops would reach last.
///
/// Returns `None`, with `sgs` untouched, when any lane has a
/// non-invertible Jacobian at any point — the caller redoes the block
/// with the scalar kernel, which skips such a point for its own element
/// only.
pub fn sgs_kernel_lanes<const NN: usize>(
    re: &RefElement,
    scratch: &LaneScratch,
    props: FluidProps,
    sgs: &mut LaneSgs,
    max_iters: usize,
    tol: f64,
) -> Option<[usize; LANES]> {
    let nq = re.qps.len();
    let vel: [[F64x8; 3]; NN] =
        std::array::from_fn(|i| std::array::from_fn(|c| F64x8::load(&scratch.vel[i][c])));
    // Resolved velocity and its gradient at each point (node order); a
    // kept map keeps the previous point's gradient too.
    let mut u = [[F64x8::zero(); 3]; MAX_QP];
    let mut grad_u = [[[F64x8::zero(); 3]; 3]; MAX_QP];
    let mut points = MappedPoints::new(&scratch.coords, NN);
    for (q, qp) in re.qps.iter().enumerate() {
        let (m, fresh) = points.next(qp)?;
        if !fresh {
            grad_u[q] = grad_u[q - 1];
        }
        for i in 0..NN {
            let ni = F64x8::splat(qp.n[i]);
            for c in 0..3 {
                u[q][c] = u[q][c] + vel[i][c] * ni;
                if fresh {
                    for d in 0..3 {
                        grad_u[q][d][c] = grad_u[q][d][c] + m.grad[i][c] * vel[i][d];
                    }
                }
            }
        }
    }

    let nu = props.viscosity / props.density;
    let h = F64x8::load(&scratch.h);
    // The viscous part of τ⁻¹ does not change over the iterations; the
    // scalar kernel recomputes these same bits every time round.
    let tau_inv_visc = F64x8::splat(4.0 * nu) / (h * h);
    // Both the floor of τ⁻¹ and the guard of the relative tolerance.
    let tiny = F64x8::splat(1e-30);
    let v_tol = F64x8::splat(tol);
    let mut usg: [[F64x8; 3]; MAX_QP] =
        std::array::from_fn(|q| std::array::from_fn(|d| F64x8::load(&sgs[q][d])));
    let mut active = [Mask8::full(); MAX_QP];
    let mut used = [F64x8::zero(); MAX_QP];
    for it in 0..max_iters {
        let count = F64x8::splat((it + 1) as f64);
        let mut any = false;
        for q in 0..nq {
            if !active[q].any() {
                continue;
            }
            let (usg, active, grad_u) = (&mut usg[q], &mut active[q], &grad_u[q]);
            used[q] = active.select(count, used[q]);
            let a = [u[q][0] + usg[0], u[q][1] + usg[1], u[q][2] + usg[2]];
            let tau_inv = tau_inv_visc + F64x8::splat(2.0) * norm(&a) / h;
            // `tau_inv.max(1e-30)`: a NaN compares false and takes the
            // floor, as `f64::max` returns its non-NaN operand.
            let tau = F64x8::splat(1.0) / tau_inv.gt(tiny).select(tau_inv, tiny);
            let mut new = [F64x8::zero(); 3];
            let mut step = [F64x8::zero(); 3];
            for d in 0..3 {
                let conv = a[0] * grad_u[d][0] + a[1] * grad_u[d][1] + a[2] * grad_u[d][2];
                // A sign flip, not `0 − conv`: where the gradient
                // vanishes the scalar kernel stores −0.0.
                new[d] = -conv * tau;
                step[d] = new[d] - usg[d];
                usg[d] = active.select(new[d], usg[d]);
            }
            let converged = norm(&step).lt(v_tol * (norm(&new) + tiny));
            *active = active.and_not(converged);
            any |= active.any();
        }
        if !any {
            break;
        }
    }
    let mut iters = F64x8::splat(1.0);
    for q in 0..nq {
        iters = used[q].gt(iters).select(used[q], iters);
        for d in 0..3 {
            usg[q][d].store(&mut sgs[q][d]);
        }
    }
    Some(iters.to_array().map(|v| v as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{
        divergence_kernel_n, momentum_kernel_n, poisson_kernel_n, pressure_gradient_kernel_n,
        ElementScratch,
    };
    use cfpd_testkit::prop::{self, PropConfig};
    use cfpd_testkit::rng::Rng;
    use std::cell::Cell;

    /// Random well-shaped element: the reference nodes of the `nn`-node
    /// kind, jittered per node.
    fn random_element(rng: &mut Rng, nn: usize) -> Vec<Vec3> {
        let base: &[[f64; 3]] = match nn {
            4 => &[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            5 => &[
                [-1.0, -1.0, -1.0],
                [1.0, -1.0, -1.0],
                [1.0, 1.0, -1.0],
                [-1.0, 1.0, -1.0],
                [0.0, 0.0, 1.0],
            ],
            _ => &[
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [1.0, 0.0, 1.0],
                [0.0, 1.0, 1.0],
            ],
        };
        base.iter()
            .map(|p| {
                Vec3::new(
                    p[0] + rng.range_f64(-0.2, 0.2),
                    p[1] + rng.range_f64(-0.2, 0.2),
                    p[2] + rng.range_f64(-0.2, 0.2),
                )
            })
            .collect()
    }

    fn random_vec(rng: &mut Rng, scale: f64) -> Vec3 {
        Vec3::new(
            rng.range_f64(-scale, scale),
            rng.range_f64(-scale, scale),
            rng.range_f64(-scale, scale),
        )
    }

    /// Put one element into lane `l`; returns its scalar twin.
    fn set_lane(
        lanes: &mut LaneScratch,
        l: usize,
        coords: &[Vec3],
        vel: &[Vec3],
        pres: &[f64],
        h: f64,
    ) -> ElementScratch {
        let mut scalar = ElementScratch::default();
        for k in 0..coords.len() {
            let (c, v, p) = (coords[k], vel[k], pres[k]);
            scalar.coords[k] = c;
            scalar.vel[k] = v;
            scalar.pres[k] = p;
            lanes.coords[k][0][l] = c.x;
            lanes.coords[k][1][l] = c.y;
            lanes.coords[k][2][l] = c.z;
            lanes.vel[k][0][l] = v.x;
            lanes.vel[k][1][l] = v.y;
            lanes.vel[k][2][l] = v.z;
            lanes.pres[k][l] = p;
        }
        lanes.h[l] = h;
        scalar
    }

    /// Fill lane `l` of the lane scratch and a matching scalar scratch
    /// with a random tet. A few lanes get exactly-zero velocity to
    /// exercise the `speed > 1e-12` select.
    fn fill_lane(
        rng: &mut Rng,
        lanes: &mut LaneScratch,
        l: usize,
        still: bool,
    ) -> (ElementScratch, f64) {
        let coords = random_element(rng, 4);
        let vel: Vec<Vec3> =
            (0..4).map(|_| if still { Vec3::ZERO } else { random_vec(rng, 3.0) }).collect();
        let pres: Vec<f64> = (0..4).map(|_| rng.range_f64(-50.0, 50.0)).collect();
        let h = rng.range_f64(0.05, 0.5);
        (set_lane(lanes, l, &coords, &vel, &pres, h), h)
    }

    #[test]
    fn prop_momentum_lanes_bit_identical_to_scalar() {
        let refs = RefElement::all();
        prop::check(
            "momentum lane kernel bit-identical per lane",
            PropConfig::cases(40),
            &prop::usize_range(0, 1 << 30),
            |&seed| {
                let mut rng = Rng::new(seed as u64);
                let mut lanes = LaneScratch::default();
                let mut scalars = Vec::new();
                for l in 0..LANES {
                    scalars.push(fill_lane(&mut rng, &mut lanes, l, l % 3 == 0));
                }
                let props = FluidProps::default();
                let dt = 1e-4;
                let bf = Vec3::new(0.0, 0.0, -9.81);
                let re = &refs[0];
                let lm = momentum_kernel_lanes::<4>(re, &lanes, props, dt, bf).unwrap();
                for (l, (scalar, h)) in scalars.iter().enumerate() {
                    let want = momentum_kernel_n::<4>(re, scalar, props, dt, *h, bf).unwrap();
                    for i in 0..4 {
                        for j in 0..4 {
                            assert_eq!(
                                lm.a[i][j][l].to_bits(),
                                want.a[i][j].to_bits(),
                                "lane {l} a[{i}][{j}]: {} vs {}",
                                lm.a[i][j][l],
                                want.a[i][j]
                            );
                        }
                        for c in 0..3 {
                            assert_eq!(
                                lm.b[i][c][l].to_bits(),
                                want.b[i][c].to_bits(),
                                "lane {l} b[{i}][{c}]"
                            );
                        }
                    }
                }
            },
        );
    }

    #[test]
    fn prop_poisson_lanes_bit_identical_to_scalar() {
        let refs = RefElement::all();
        prop::check(
            "poisson, divergence and gradient lane kernels bit-identical per lane",
            PropConfig::cases(40),
            &prop::usize_range(0, 1 << 30),
            |&seed| {
                let mut rng = Rng::new(seed as u64);
                let mut lanes = LaneScratch::default();
                let mut scalars = Vec::new();
                for l in 0..LANES {
                    scalars.push(fill_lane(&mut rng, &mut lanes, l, l % 4 == 0));
                }
                let props = FluidProps::default();
                let dt = 1e-4;
                let re = &refs[0];
                let lp = poisson_kernel_lanes::<4>(re, &lanes).unwrap();
                let lb = divergence_kernel_lanes::<4>(re, &lanes, props, dt).unwrap();
                let lg = pressure_gradient_kernel_lanes::<4>(re, &lanes).unwrap();
                for (l, (scalar, _)) in scalars.iter().enumerate() {
                    let want = poisson_kernel_n::<4>(re, scalar).unwrap();
                    let want_b = divergence_kernel_n::<4>(re, scalar, props, dt).unwrap();
                    let want_g = pressure_gradient_kernel_n::<4>(re, scalar).unwrap();
                    for i in 0..4 {
                        for j in 0..4 {
                            assert_eq!(
                                lp.l[i][j][l].to_bits(),
                                want.l[i][j].to_bits(),
                                "lane {l} l[{i}][{j}]"
                            );
                        }
                        assert_eq!(lb[i][l].to_bits(), want_b[i].to_bits(), "lane {l} b[{i}]");
                        for c in 0..3 {
                            assert_eq!(
                                lg[i][c][l].to_bits(),
                                want_g[i][c].to_bits(),
                                "lane {l} g[{i}][{c}]"
                            );
                        }
                    }
                }
            },
        );
    }

    /// What the scalar loops of one block did, so the property can show
    /// it met every exit of the masked loop.
    #[derive(Default)]
    struct ExitsSeen {
        first: Cell<bool>,
        mid: Cell<bool>,
        never: Cell<bool>,
        fallback: Cell<bool>,
    }

    /// One block of eight `NN`-node elements whose scalar loops leave at
    /// different iterations, through the lane kernel and through eight
    /// scalar calls: values and iteration counts must agree on the bits.
    fn sgs_block_matches_scalar<const NN: usize>(re: &RefElement, seed: u64, seen: &ExitsSeen) {
        use crate::kernels::sgs_kernel_on;
        let mut rng = Rng::new(seed);
        let nq = re.qps.len();
        let max_iters = rng.range_usize(0, 8);
        let tol = [1e-2, 1e-6, 1e-10][rng.range_usize(0, 3)];
        let degenerate = (rng.range_usize(0, 4) == 0).then(|| rng.range_usize(0, LANES));
        let props = FluidProps::default();

        let mut lanes = LaneScratch::default();
        let mut lane_sgs: LaneSgs = [[[0.0; LANES]; 3]; MAX_QP];
        let mut scalars = Vec::new();
        for l in 0..LANES {
            let mut coords = random_element(&mut rng, NN);
            if degenerate == Some(l) {
                // Flattened into a plane: the determinant is exactly 0.
                coords.iter_mut().for_each(|c| c.z = 0.0);
            }
            let uniform = random_vec(&mut rng, 3.0);
            let sheared: Vec<Vec3> = (0..NN).map(|_| random_vec(&mut rng, 3.0)).collect();
            let warm: Vec<Vec3> = (0..nq).map(|_| random_vec(&mut rng, 0.5)).collect();
            let (vel, h, start) = match l {
                // Zero gradient, cold start: leaves at iteration 1 with
                // −0.0 components.
                0 => (vec![uniform; NN], 0.2, vec![Vec3::ZERO; nq]),
                // Fluid at rest, warm start: decays to a signed zero.
                1 => (vec![Vec3::ZERO; NN], 0.2, warm),
                2 => (vec![Vec3::ZERO; NN], 0.2, vec![Vec3::new(-0.0, 0.0, -0.0); nq]),
                // A NaN never compares converged and takes the τ⁻¹ floor.
                3 => {
                    let mut v = sheared;
                    v[0].y = f64::NAN;
                    (v, 0.2, warm)
                }
                // An element this long makes the fixed point expand.
                4 => (sheared, 1e3, warm),
                _ => (sheared, rng.range_f64(0.05, 0.5), warm),
            };
            let scalar = set_lane(&mut lanes, l, &coords, &vel, &[0.0; MAX_NODES][..NN], h);
            set_lane_sgs(&mut lane_sgs, l, &start);
            scalars.push((scalar, h, start));
        }

        let got = sgs_kernel_lanes::<NN>(re, &lanes, props, &mut lane_sgs, max_iters, tol);
        if degenerate.is_some() {
            assert!(got.is_none(), "a degenerate lane must send the block to the scalar kernel");
            seen.fallback.set(true);
            return;
        }
        let got = got.expect("no lane is degenerate");
        for (l, (scalar, h, start)) in scalars.iter_mut().enumerate() {
            let want = sgs_kernel_on(re, scalar, NN, props, *h, start, max_iters, tol);
            assert_eq!(got[l], want, "lane {l}: iteration count");
            seen.first.set(seen.first.get() || (want == 1 && max_iters > 1));
            seen.mid.set(seen.mid.get() || (want > 1 && want < max_iters));
            seen.never.set(seen.never.get() || (want == max_iters && l != 3 && max_iters > 1));
            for (q, v) in start.iter().enumerate() {
                for (c, w) in [v.x, v.y, v.z].into_iter().enumerate() {
                    let g = lane_sgs[q][c][l];
                    // NaN payloads are not part of the contract.
                    assert!(
                        g.to_bits() == w.to_bits() || (l == 3 && g.is_nan() && w.is_nan()),
                        "lane {l} sgs[{q}][{c}]: {g:e} vs {w:e} (max_iters {max_iters}, tol {tol:e})"
                    );
                }
            }
        }
    }

    #[test]
    fn prop_sgs_lanes_bit_identical_to_scalar_in_values_and_iterations() {
        let refs = RefElement::all();
        let seen = ExitsSeen::default();
        prop::check(
            "sgs lane kernel: per-lane values and iteration counts",
            PropConfig::cases(90),
            &prop::usize_range(0, 1 << 30),
            |&seed| match seed % 3 {
                0 => sgs_block_matches_scalar::<4>(&refs[0], seed as u64, &seen),
                1 => sgs_block_matches_scalar::<5>(&refs[1], seed as u64, &seen),
                _ => sgs_block_matches_scalar::<6>(&refs[2], seed as u64, &seen),
            },
        );
        assert!(seen.first.get(), "no lane left at iteration 1");
        assert!(seen.mid.get(), "no lane left mid-loop");
        assert!(seen.never.get(), "no lane ran into max_iters");
        assert!(seen.fallback.get(), "no block had a degenerate lane");
    }
}

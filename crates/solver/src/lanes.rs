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

use crate::kernels::FluidProps;
use crate::shape::{QuadPoint, RefElement, MAX_NODES};
use crate::simd::F64x8;
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
    /// reads no velocity passes `None` and the slots keep what they held.
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
                self.pres[k][l] = match pressure {
                    Some(p) => p[v as usize],
                    None => 0.0,
                };
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
    for qp in &re.qps {
        let m = map_qp_lanes(qp, &scratch.coords, NN)?;
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
        // Pressure gradient at the point. The scalar kernel recomputes
        // this identical sum inside its `i` loop; computing it once per
        // quadrature point yields the same bits.
        let mut gp = [F64x8::zero(); 3];
        for k in 0..NN {
            let pk = F64x8::load(&scratch.pres[k]);
            for c in 0..3 {
                gp[c] = gp[c] + m.grad[k][c] * pk;
            }
        }
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
                (F64x8::load(bic)
                    + (uc[c] * v_rho_dt + F64x8::splat(bf[c]) - gp[c]) * t)
                    .store(bic);
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
    for qp in &re.qps {
        let m = map_qp_lanes(qp, &scratch.coords, NN)?;
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
    for qp in &re.qps {
        let m = map_qp_lanes(qp, &scratch.coords, NN)?;
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
    for qp in &re.qps {
        let m = map_qp_lanes(qp, &scratch.coords, NN)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{
        divergence_kernel_n, momentum_kernel_n, poisson_kernel_n, pressure_gradient_kernel_n,
        ElementScratch,
    };
    use cfpd_testkit::prop::{self, PropConfig};
    use cfpd_testkit::rng::Rng;

    /// Random well-shaped tet: unit reference tet jittered per node.
    fn random_tet(rng: &mut Rng) -> [Vec3; 4] {
        let base = [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        base.map(|p| {
            p + Vec3::new(
                rng.range_f64(-0.2, 0.2),
                rng.range_f64(-0.2, 0.2),
                rng.range_f64(-0.2, 0.2),
            )
        })
    }

    /// Fill lane `l` of the lane scratch and a matching scalar scratch.
    fn fill_lane(
        rng: &mut Rng,
        lanes: &mut LaneScratch,
        l: usize,
        still: bool,
    ) -> (ElementScratch, f64) {
        let coords = random_tet(rng);
        let mut scalar = ElementScratch::default();
        for (k, &c) in coords.iter().enumerate() {
            // A few lanes get exactly-zero velocity to exercise the
            // `speed > 1e-12` select.
            let v = if still {
                Vec3::ZERO
            } else {
                Vec3::new(
                    rng.range_f64(-3.0, 3.0),
                    rng.range_f64(-3.0, 3.0),
                    rng.range_f64(-3.0, 3.0),
                )
            };
            let p = rng.range_f64(-50.0, 50.0);
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
        let h = rng.range_f64(0.05, 0.5);
        lanes.h[l] = h;
        (scalar, h)
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
}

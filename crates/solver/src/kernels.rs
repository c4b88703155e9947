//! FEM element kernels: the local dense matrices/vectors computed per
//! element during the paper's *matrix assembly* phase, and the
//! per-element subgrid-scale (SGS) update of the VMS stabilization.

use crate::shape::{map_qp, map_qp_dvol, MappedQp, RefElement, MAX_NODES};
use cfpd_mesh::{ElementKind, Mesh, Vec3};

/// Physical constants of the fluid (air at body temperature by default,
/// matching a respiratory simulation).
#[derive(Debug, Clone, Copy)]
pub struct FluidProps {
    /// Density ρ_f [kg/m³].
    pub density: f64,
    /// Dynamic viscosity µ_f [Pa·s].
    pub viscosity: f64,
}

impl Default for FluidProps {
    fn default() -> Self {
        // Air at ~37 °C.
        FluidProps { density: 1.14, viscosity: 1.9e-5 }
    }
}

/// Local output of the momentum kernel for one element: the matrix
/// `A_ij = ∫ (ρ/dt) N_i N_j + µ ∇N_i·∇N_j + ρ N_i (u·∇N_j)` and the
/// RHS `b_i = ∫ (ρ/dt) N_i u_n + ρ N_i f` per velocity component (no
/// pressure term: the splitting is non-incremental).
#[derive(Debug, Clone)]
pub struct LocalMomentum {
    pub nn: usize,
    pub a: [[f64; MAX_NODES]; MAX_NODES],
    pub b: [[f64; 3]; MAX_NODES],
}

/// Local Laplacian matrix `L_ij = ∫ ∇N_i·∇N_j` of the pressure-Poisson
/// system (its right-hand side is [`divergence_kernel_n`]'s).
#[derive(Debug, Clone)]
pub struct LocalPoisson {
    pub nn: usize,
    pub l: [[f64; MAX_NODES]; MAX_NODES],
}

/// Scratch holding per-element node data, reused across elements by one
/// executor (avoids per-element allocation in the hot loop).
#[derive(Debug, Clone)]
pub struct ElementScratch {
    pub coords: [Vec3; MAX_NODES],
    pub vel: [Vec3; MAX_NODES],
    /// Nodal pressure (read by the pressure-gradient kernel only).
    pub pres: [f64; MAX_NODES],
}

impl Default for ElementScratch {
    fn default() -> Self {
        ElementScratch {
            coords: [Vec3::ZERO; MAX_NODES],
            vel: [Vec3::ZERO; MAX_NODES],
            pres: [0.0; MAX_NODES],
        }
    }
}

impl ElementScratch {
    /// Load only the coordinates of element `e`, for kernels that read
    /// no field (velocity and pressure slots keep what they held).
    #[inline]
    pub fn load_coords(&mut self, mesh: &Mesh, e: usize) -> (ElementKind, usize) {
        let nodes = mesh.elem_nodes(e);
        self.load_gather_coords(&mesh.coords, nodes);
        (mesh.kinds[e], nodes.len())
    }

    /// Load coordinates and velocities of element `e` (the pressure
    /// slots keep what they held).
    #[inline]
    pub fn load(&mut self, mesh: &Mesh, velocity: &[Vec3], e: usize) -> (ElementKind, usize) {
        let nodes = mesh.elem_nodes(e);
        self.load_gather(&mesh.coords, velocity, nodes);
        (mesh.kinds[e], nodes.len())
    }

    /// [`ElementScratch::load_coords`] through a precomputed gather list.
    #[inline]
    pub fn load_gather_coords(&mut self, coords: &[Vec3], nodes: &[u32]) {
        for (k, &v) in nodes.iter().enumerate() {
            self.coords[k] = coords[v as usize];
        }
    }

    /// Load coordinates and velocities through a precomputed gather
    /// list (one batch row of a kind-batched SoA plan). Reads the same
    /// values in the same order as [`ElementScratch::load`], so the
    /// resulting kernel inputs are bit-identical.
    #[inline]
    pub fn load_gather(&mut self, coords: &[Vec3], velocity: &[Vec3], nodes: &[u32]) {
        for (k, &v) in nodes.iter().enumerate() {
            self.coords[k] = coords[v as usize];
            self.vel[k] = velocity[v as usize];
        }
    }
}

/// Momentum (convection–diffusion–reaction) element matrix and RHS for
/// the implicit velocity step, with streamline-upwind (SU) artificial
/// diffusion `k_su = ρ|u|h/2` along the flow direction — the minimal
/// stabilization that keeps the Galerkin convection term stable at the
/// high element Péclet numbers of an airway inhalation (a simplified
/// stand-in for Alya's full VMS stabilization, DESIGN.md §7).
///
/// `h_elem` is the characteristic element length (cbrt of volume);
/// `body_force` a constant volumetric force.
///
/// Monomorphized over the node count: the inner quadrature loops run
/// over the compile-time constant `NN`, so the compiler unrolls them and
/// no `ElementKind` branch sits in the batch inner loop. The
/// floating-point operation sequence is that of the dynamic-`nn`
/// [`crate::oracle::momentum_kernel`], so the local matrices are
/// **bit-identical** (asserted by the batching tests).
#[allow(clippy::too_many_arguments)]
pub fn momentum_kernel_n<const NN: usize>(
    re: &RefElement,
    scratch: &ElementScratch,
    props: FluidProps,
    dt: f64,
    h_elem: f64,
    body_force: Vec3,
) -> Option<LocalMomentum> {
    let mut out =
        LocalMomentum { nn: NN, a: [[0.0; MAX_NODES]; MAX_NODES], b: [[0.0; 3]; MAX_NODES] };
    let rho_dt = props.density / dt;
    for qp in &re.qps {
        let m: MappedQp = map_qp(qp, &scratch.coords, NN)?;
        let mut uc = Vec3::ZERO;
        for i in 0..NN {
            uc += scratch.vel[i] * m.n[i];
        }
        let speed = uc.norm();
        let (su_coef, udir) = if speed > 1e-12 {
            (0.5 * props.density * speed * h_elem, uc / speed)
        } else {
            (0.0, Vec3::ZERO)
        };
        for i in 0..NN {
            let ni = m.n[i];
            let gi = m.grad[i];
            let gi_s = udir.x * gi[0] + udir.y * gi[1] + udir.z * gi[2];
            for j in 0..NN {
                let gj = m.grad[j];
                let mass = rho_dt * ni * m.n[j];
                let diff = props.viscosity * (gi[0] * gj[0] + gi[1] * gj[1] + gi[2] * gj[2]);
                let conv =
                    props.density * ni * (uc.x * gj[0] + uc.y * gj[1] + uc.z * gj[2]);
                let gj_s = udir.x * gj[0] + udir.y * gj[1] + udir.z * gj[2];
                let su = su_coef * gi_s * gj_s;
                out.a[i][j] += (mass + diff + conv + su) * m.dvol;
            }
            let rhs = (uc * rho_dt + body_force * props.density) * (ni * m.dvol);
            out.b[i][0] += rhs.x;
            out.b[i][1] += rhs.y;
            out.b[i][2] += rhs.z;
        }
    }
    Some(out)
}

/// Pressure-Poisson element matrix `∫ ∇N_i·∇N_j`, monomorphized over the
/// node count like [`momentum_kernel_n`].
pub fn poisson_kernel_n<const NN: usize>(
    re: &RefElement,
    scratch: &ElementScratch,
) -> Option<LocalPoisson> {
    let mut out = LocalPoisson { nn: NN, l: [[0.0; MAX_NODES]; MAX_NODES] };
    for qp in &re.qps {
        let m = map_qp(qp, &scratch.coords, NN)?;
        for i in 0..NN {
            let gi = m.grad[i];
            for j in 0..NN {
                let gj = m.grad[j];
                out.l[i][j] += (gi[0] * gj[0] + gi[1] * gj[1] + gi[2] * gj[2]) * m.dvol;
            }
        }
    }
    Some(out)
}

/// Weak divergence right-hand side of the pressure-Poisson system,
/// `b_i = (ρ/dt) ∫ ∇N_i · u`, from the velocity loaded in `scratch`.
pub fn divergence_kernel_n<const NN: usize>(
    re: &RefElement,
    scratch: &ElementScratch,
    props: FluidProps,
    dt: f64,
) -> Option<[f64; MAX_NODES]> {
    let mut out = [0.0; MAX_NODES];
    let rho_dt = props.density / dt;
    for qp in &re.qps {
        let m = map_qp(qp, &scratch.coords, NN)?;
        let mut u = Vec3::ZERO;
        for i in 0..NN {
            u += scratch.vel[i] * m.n[i];
        }
        for i in 0..NN {
            let gi = m.grad[i];
            out[i] += rho_dt * (gi[0] * u.x + gi[1] * u.y + gi[2] * u.z) * m.dvol;
        }
    }
    Some(out)
}

/// Weak nodal pressure gradient `g_i = ∫ N_i ∇p` (the projection step
/// divides it by the lumped mass), from the pressure loaded in
/// `scratch`.
pub fn pressure_gradient_kernel_n<const NN: usize>(
    re: &RefElement,
    scratch: &ElementScratch,
) -> Option<[[f64; 3]; MAX_NODES]> {
    let mut out = [[0.0; 3]; MAX_NODES];
    for qp in &re.qps {
        let m = map_qp(qp, &scratch.coords, NN)?;
        let mut gp = [0.0; 3];
        for k in 0..NN {
            for c in 0..3 {
                gp[c] += m.grad[k][c] * scratch.pres[k];
            }
        }
        for i in 0..NN {
            let w = m.n[i] * m.dvol;
            for c in 0..3 {
                out[i][c] += gp[c] * w;
            }
        }
    }
    Some(out)
}

/// Lumped mass (row-sum) contributions of one element. An affine tet
/// maps every point of its rule alike (pinned in [`crate::shape`]'s
/// tests), so its first point's `dvol` serves all four.
pub fn lumped_mass_kernel(
    refs: &[RefElement; 3],
    scratch: &ElementScratch,
    kind: ElementKind,
    nn: usize,
) -> Option<[f64; MAX_NODES]> {
    let re = &refs[RefElement::index_of(kind)];
    let mut out = [0.0; MAX_NODES];
    let mut dvol = 0.0;
    for (q, qp) in re.qps.iter().enumerate() {
        if q == 0 || kind != ElementKind::Tet4 {
            dvol = map_qp_dvol(qp, &scratch.coords, nn)?;
        }
        for i in 0..nn {
            out[i] += qp.n[i] * dvol;
        }
    }
    Some(out)
}

/// One element's subgrid-scale update (VMS-like): iterate the algebraic
/// model `u' = τ · R(u, u')` at each quadrature point, where the
/// stabilization time τ follows Codina:
/// `τ⁻¹ = c1 ν/h² + c2 |u|/h`, and the residual is the convective one.
/// Read-only on global fields, writes only to the element's own SGS
/// storage — the paper's point that SGS needs *no* atomics (§4.3).
///
/// Returns the number of inner iterations used (a per-element cost that
/// varies with the local flow — an organic imbalance source). The
/// reference element is resolved by the caller (the kind-batched SGS
/// sweep hoists the dispatch out of its hot loop).
#[allow(clippy::too_many_arguments)]
pub fn sgs_kernel_on(
    re: &RefElement,
    scratch: &ElementScratch,
    nn: usize,
    props: FluidProps,
    h_elem: f64,
    sgs: &mut [Vec3],
    max_iters: usize,
    tol: f64,
) -> usize {
    let nu = props.viscosity / props.density;
    let mut iters_used = 1;
    for (q, qp) in re.qps.iter().enumerate() {
        let m = match map_qp(qp, &scratch.coords, nn) {
            Some(m) => m,
            None => continue,
        };
        // Resolved velocity and its gradient at the point.
        let mut u = Vec3::ZERO;
        let mut grad_u = [[0.0f64; 3]; 3];
        for i in 0..nn {
            u += scratch.vel[i] * m.n[i];
            let v = scratch.vel[i];
            for c in 0..3 {
                grad_u[0][c] += m.grad[i][c] * v.x;
                grad_u[1][c] += m.grad[i][c] * v.y;
                grad_u[2][c] += m.grad[i][c] * v.z;
            }
        }
        let mut usg = sgs[q];
        for it in 0..max_iters {
            let a = u + usg; // advective velocity includes the subgrid part
            let tau_inv = 4.0 * nu / (h_elem * h_elem) + 2.0 * a.norm() / h_elem;
            let tau = 1.0 / tau_inv.max(1e-30);
            // Convective residual of the resolved scale: -(a·∇)u.
            let conv = Vec3::new(
                a.x * grad_u[0][0] + a.y * grad_u[0][1] + a.z * grad_u[0][2],
                a.x * grad_u[1][0] + a.y * grad_u[1][1] + a.z * grad_u[1][2],
                a.x * grad_u[2][0] + a.y * grad_u[2][1] + a.z * grad_u[2][2],
            );
            let new = -conv * tau;
            let delta = (new - usg).norm();
            usg = new;
            iters_used = iters_used.max(it + 1);
            if delta < tol * (usg.norm() + 1e-30) {
                break;
            }
        }
        sgs[q] = usg;
    }
    iters_used
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{
        divergence_kernel, momentum_kernel, poisson_kernel, pressure_gradient_kernel, sgs_kernel,
    };
    use cfpd_mesh::MeshBuilder;

    fn unit_tet_mesh() -> Mesh {
        let mut b = MeshBuilder::new();
        let n0 = b.add_node(Vec3::new(0.0, 0.0, 0.0));
        let n1 = b.add_node(Vec3::new(1.0, 0.0, 0.0));
        let n2 = b.add_node(Vec3::new(0.0, 1.0, 0.0));
        let n3 = b.add_node(Vec3::new(0.0, 0.0, 1.0));
        b.add_tet([n0, n1, n2, n3]);
        b.finish()
    }

    #[test]
    fn momentum_mass_term_integrates_to_volume() {
        // With dt = 1, ρ = 1, µ = 0 and zero velocity, A is the mass
        // matrix: sum of all entries = element volume.
        let mesh = unit_tet_mesh();
        let refs = RefElement::all();
        let mut scratch = ElementScratch::default();
        let vel = vec![Vec3::ZERO; mesh.num_nodes()];
        let (kind, nn) = scratch.load(&mesh, &vel, 0);
        let props = FluidProps { density: 1.0, viscosity: 0.0 };
        let lm = momentum_kernel(&refs, &scratch, kind, nn, props, 1.0, 0.1, Vec3::ZERO).unwrap();
        let sum: f64 = (0..nn).flat_map(|i| (0..nn).map(move |j| (i, j)))
            .map(|(i, j)| lm.a[i][j])
            .sum();
        assert!((sum - 1.0 / 6.0).abs() < 1e-12, "mass sum {sum}");
    }

    #[test]
    fn poisson_rows_sum_to_zero() {
        // The Laplacian of a constant is zero: each row of L sums to 0.
        let mesh = unit_tet_mesh();
        let refs = RefElement::all();
        let mut scratch = ElementScratch::default();
        let vel = vec![Vec3::ZERO; mesh.num_nodes()];
        let (kind, nn) = scratch.load(&mesh, &vel, 0);
        let lp = poisson_kernel(&refs, &scratch, kind, nn).unwrap();
        for i in 0..nn {
            let s: f64 = lp.l[i][..nn].iter().sum();
            assert!(s.abs() < 1e-12, "row {i} sums to {s}");
        }
    }

    #[test]
    fn poisson_rhs_zero_for_divergence_free_field() {
        // Constant velocity field is divergence free: weak RHS must be
        // zero when summed over all nodes... individually it equals the
        // boundary flux; use the full-sum property instead: sum_i b_i =
        // (ρ/dt) ∫ div(u) = 0 for constant u (since sum_i ∇N_i = 0).
        let mesh = unit_tet_mesh();
        let refs = RefElement::all();
        let mut scratch = ElementScratch::default();
        let vel = vec![Vec3::new(1.0, 2.0, 3.0); mesh.num_nodes()];
        let (kind, nn) = scratch.load(&mesh, &vel, 0);
        let b = divergence_kernel(&refs, &scratch, kind, FluidProps::default(), 1.0).unwrap();
        let s: f64 = b[..nn].iter().sum();
        assert!(s.abs() < 1e-12, "sum {s}");
    }

    #[test]
    fn pressure_gradient_of_a_linear_field_is_exact() {
        // p = 2x − 3y + 5z has ∇p = (2, −3, 5) everywhere, so the weak
        // nodal gradients sum to ∇p · |V|.
        let mesh = unit_tet_mesh();
        let refs = RefElement::all();
        let mut scratch = ElementScratch::default();
        let (kind, nn) = scratch.load_coords(&mesh, 0);
        for k in 0..nn {
            let p = scratch.coords[k];
            scratch.pres[k] = 2.0 * p.x - 3.0 * p.y + 5.0 * p.z;
        }
        let g = pressure_gradient_kernel(&refs, &scratch, kind).unwrap();
        for (c, want) in [2.0, -3.0, 5.0].into_iter().enumerate() {
            let s: f64 = g[..nn].iter().map(|gi| gi[c]).sum();
            assert!((s - want / 6.0).abs() < 1e-12, "component {c}: {s}");
        }
    }

    #[test]
    fn lumped_mass_sums_to_volume() {
        let mesh = unit_tet_mesh();
        let refs = RefElement::all();
        let mut scratch = ElementScratch::default();
        let vel = vec![Vec3::ZERO; mesh.num_nodes()];
        let (kind, nn) = scratch.load(&mesh, &vel, 0);
        let lm = lumped_mass_kernel(&refs, &scratch, kind, nn).unwrap();
        let s: f64 = lm[..nn].iter().sum();
        assert!((s - 1.0 / 6.0).abs() < 1e-12);
    }

    /// Mapping a tet once gives, bit for bit, the lumped mass of mapping
    /// it at every point, on every element of the 2- and 4-generation
    /// airways.
    #[test]
    fn lumped_mass_maps_a_tet_once_with_the_same_bits() {
        let (refs, mut scratch) = (RefElement::all(), ElementScratch::default());
        for generations in [2, 4] {
            let spec = cfpd_mesh::AirwaySpec { generations, ..cfpd_mesh::AirwaySpec::small() };
            let mesh = cfpd_mesh::generate_airway(&spec).unwrap().mesh;
            for e in 0..mesh.num_elements() {
                let (kind, nn) = scratch.load_coords(&mesh, e);
                let mut per_point = [0.0; MAX_NODES];
                for qp in &refs[RefElement::index_of(kind)].qps {
                    let dvol = map_qp_dvol(qp, &scratch.coords, nn).unwrap();
                    (0..nn).for_each(|i| per_point[i] += qp.n[i] * dvol);
                }
                let got = lumped_mass_kernel(&refs, &scratch, kind, nn).unwrap();
                assert_eq!(got.map(f64::to_bits), per_point.map(f64::to_bits), "element {e}");
            }
        }
    }

    #[test]
    fn sgs_zero_for_uniform_flow() {
        // Uniform velocity has zero gradient -> zero convective residual
        // -> SGS velocity converges to zero.
        let mesh = unit_tet_mesh();
        let refs = RefElement::all();
        let mut scratch = ElementScratch::default();
        let vel = vec![Vec3::new(1.0, 0.0, 0.0); mesh.num_nodes()];
        let (kind, nn) = scratch.load(&mesh, &vel, 0);
        let mut sgs = vec![Vec3::new(0.1, 0.1, 0.1); 8];
        sgs_kernel(&refs, &scratch, kind, nn, FluidProps::default(), 0.5, &mut sgs, 10, 1e-10);
        for v in &sgs[..kind.num_quad_points()] {
            assert!(v.norm() < 1e-9, "sgs {v:?} should vanish");
        }
    }

    #[test]
    fn sgs_nonzero_for_sheared_flow() {
        let mesh = unit_tet_mesh();
        let refs = RefElement::all();
        let mut scratch = ElementScratch::default();
        // Shear u_x = 10 y advected by a constant cross-flow u_y = 5, so
        // the convective residual (a·∇)u is nonzero.
        let vel: Vec<Vec3> =
            mesh.coords.iter().map(|p| Vec3::new(p.y * 10.0, 5.0, 0.0)).collect();
        let (kind, nn) = scratch.load(&mesh, &vel, 0);
        let mut sgs = vec![Vec3::ZERO; 8];
        let iters =
            sgs_kernel(&refs, &scratch, kind, nn, FluidProps::default(), 0.5, &mut sgs, 20, 1e-8);
        assert!(iters >= 2, "sheared flow needs iterations, used {iters}");
        assert!(sgs[0].norm() > 0.0);
    }
}

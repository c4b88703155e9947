//! Isoparametric shape functions and quadrature for the hybrid element
//! family (first order: Tet4, Pyr5, Pri6).
//!
//! Conventions:
//! * Tet4 reference: vertices (0,0,0), (1,0,0), (0,1,0), (0,0,1).
//! * Pri6 reference: triangle (ξ,η) with ζ ∈ [0,1]; node `i+3` above `i`.
//! * Pyr5: degenerate ("collapsed-hex") trilinear map of [-1,1]³ with
//!   the four top nodes merged into the apex. The collapse factor is
//!   absorbed by the Jacobian determinant, so a plain 2×2×2 Gauss rule
//!   integrates correctly over the pyramid.

use cfpd_mesh::{ElementKind, Vec3};

/// Maximum nodes per element (prism).
pub const MAX_NODES: usize = 6;
/// Maximum quadrature points per element (pyramid: 8).
pub const MAX_QP: usize = 8;

/// Values of all shape functions and their reference-space gradients at
/// one quadrature point, with the quadrature weight.
#[derive(Debug, Clone, Copy)]
pub struct QuadPoint {
    pub weight: f64,
    /// N_i
    pub n: [f64; MAX_NODES],
    /// dN_i/d(ξ,η,ζ)
    pub dn: [[f64; 3]; MAX_NODES],
}

/// Per-element-type reference data (computed once, cached statically).
#[derive(Debug, Clone)]
pub struct RefElement {
    pub kind: ElementKind,
    pub qps: Vec<QuadPoint>,
}

const GP: f64 = 0.577_350_269_189_625_8; // 1/sqrt(3)

impl RefElement {
    /// Reference data for an element kind.
    pub fn new(kind: ElementKind) -> RefElement {
        let qps = match kind {
            ElementKind::Tet4 => tet4_qps(),
            ElementKind::Pyr5 => pyr5_qps(),
            ElementKind::Pri6 => pri6_qps(),
        };
        debug_assert_eq!(qps.len(), kind.num_quad_points());
        RefElement { kind, qps }
    }

    /// The three cached reference elements, indexable by kind.
    pub fn all() -> [RefElement; 3] {
        [
            RefElement::new(ElementKind::Tet4),
            RefElement::new(ElementKind::Pyr5),
            RefElement::new(ElementKind::Pri6),
        ]
    }

    /// Index of `kind` within [`RefElement::all`].
    #[inline]
    pub fn index_of(kind: ElementKind) -> usize {
        match kind {
            ElementKind::Tet4 => 0,
            ElementKind::Pyr5 => 1,
            ElementKind::Pri6 => 2,
        }
    }
}

fn tet4_shape(x: f64, y: f64, z: f64) -> ([f64; MAX_NODES], [[f64; 3]; MAX_NODES]) {
    let mut n = [0.0; MAX_NODES];
    let mut dn = [[0.0; 3]; MAX_NODES];
    n[0] = 1.0 - x - y - z;
    n[1] = x;
    n[2] = y;
    n[3] = z;
    dn[0] = [-1.0, -1.0, -1.0];
    dn[1] = [1.0, 0.0, 0.0];
    dn[2] = [0.0, 1.0, 0.0];
    dn[3] = [0.0, 0.0, 1.0];
    (n, dn)
}

fn tet4_qps() -> Vec<QuadPoint> {
    // 4-point degree-2 rule; reference volume 1/6.
    let a = 0.585_410_196_624_968_5;
    let b = 0.138_196_601_125_010_5;
    let w = 1.0 / 24.0;
    [(a, b, b), (b, a, b), (b, b, a), (b, b, b)]
        .iter()
        .map(|&(x, y, z)| {
            let (n, dn) = tet4_shape(x, y, z);
            QuadPoint { weight: w, n, dn }
        })
        .collect()
}

fn pri6_shape(x: f64, y: f64, z: f64) -> ([f64; MAX_NODES], [[f64; 3]; MAX_NODES]) {
    // Triangle coords (x, y), extrusion z in [0,1].
    let l = [1.0 - x - y, x, y];
    let dl = [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]];
    let mut n = [0.0; MAX_NODES];
    let mut dn = [[0.0; 3]; MAX_NODES];
    for i in 0..3 {
        n[i] = l[i] * (1.0 - z);
        n[i + 3] = l[i] * z;
        dn[i] = [dl[i][0] * (1.0 - z), dl[i][1] * (1.0 - z), -l[i]];
        dn[i + 3] = [dl[i][0] * z, dl[i][1] * z, l[i]];
    }
    (n, dn)
}

fn pri6_qps() -> Vec<QuadPoint> {
    // 3-point triangle rule x 2-point Gauss in z. Reference volume 1/2.
    let tri = [(1.0 / 6.0, 1.0 / 6.0), (2.0 / 3.0, 1.0 / 6.0), (1.0 / 6.0, 2.0 / 3.0)];
    let wt = 1.0 / 6.0;
    let zs = [(0.5 - GP / 2.0, 0.5), (0.5 + GP / 2.0, 0.5)];
    let mut qps = Vec::with_capacity(6);
    for &(x, y) in &tri {
        for &(z, wz) in &zs {
            let (n, dn) = pri6_shape(x, y, z);
            qps.push(QuadPoint { weight: wt * wz, n, dn });
        }
    }
    qps
}

fn pyr5_shape(x: f64, y: f64, z: f64) -> ([f64; MAX_NODES], [[f64; 3]; MAX_NODES]) {
    // Collapsed trilinear hex on [-1,1]^3: bottom nodes 0..3, top nodes
    // all map to node 4 (apex). Hex basis H_i = (1±x)(1±y)(1±z)/8.
    let mut n = [0.0; MAX_NODES];
    let mut dn = [[0.0; 3]; MAX_NODES];
    let xs = [-1.0, 1.0, 1.0, -1.0];
    let ys = [-1.0, -1.0, 1.0, 1.0];
    for i in 0..4 {
        n[i] = (1.0 + xs[i] * x) * (1.0 + ys[i] * y) * (1.0 - z) / 8.0;
        dn[i] = [
            xs[i] * (1.0 + ys[i] * y) * (1.0 - z) / 8.0,
            ys[i] * (1.0 + xs[i] * x) * (1.0 - z) / 8.0,
            -(1.0 + xs[i] * x) * (1.0 + ys[i] * y) / 8.0,
        ];
    }
    // Apex: sum of the four top hex functions = (1+z)/2.
    n[4] = (1.0 + z) / 2.0;
    dn[4] = [0.0, 0.0, 0.5];
    (n, dn)
}

fn pyr5_qps() -> Vec<QuadPoint> {
    // 2x2x2 Gauss on the collapsed hex; each weight 1.
    let mut qps = Vec::with_capacity(8);
    for &x in &[-GP, GP] {
        for &y in &[-GP, GP] {
            for &z in &[-GP, GP] {
                let (n, dn) = pyr5_shape(x, y, z);
                qps.push(QuadPoint { weight: 1.0, n, dn });
            }
        }
    }
    qps
}

/// Geometry of one element at one quadrature point: physical-space shape
/// gradients and the Jacobian-scaled integration weight.
#[derive(Debug, Clone, Copy)]
pub struct MappedQp {
    /// Integration weight × |det J|.
    pub dvol: f64,
    /// N_i (unchanged by the map).
    pub n: [f64; MAX_NODES],
    /// dN_i/d(x,y,z).
    pub grad: [[f64; 3]; MAX_NODES],
}

/// The Jacobian `J[r][c] = Σ_i dN_i/dξ_r · x_i[c]` of the element map at
/// one quadrature point, and its determinant.
#[inline(always)]
fn jacobian(qp: &QuadPoint, coords: &[Vec3], num_nodes: usize) -> ([[f64; 3]; 3], f64) {
    let mut j = [[0.0f64; 3]; 3];
    for i in 0..num_nodes {
        let c = coords[i];
        for r in 0..3 {
            j[r][0] += qp.dn[i][r] * c.x;
            j[r][1] += qp.dn[i][r] * c.y;
            j[r][2] += qp.dn[i][r] * c.z;
        }
    }
    let det = j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
        - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
        + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0]);
    (j, det)
}

/// The `dvol` of [`map_qp`] (same bits, same `None`), for kernels that
/// read no gradient: no inverse, no gradient map.
pub fn map_qp_dvol(qp: &QuadPoint, coords: &[Vec3], num_nodes: usize) -> Option<f64> {
    let (_, det) = jacobian(qp, coords, num_nodes);
    if det.abs() < 1e-30 {
        return None;
    }
    Some(qp.weight * det.abs())
}

/// Map one reference quadrature point onto a physical element given its
/// node coordinates. Returns `None` for a non-invertible Jacobian
/// (degenerate element) — callers treat that as a mesh error.
pub fn map_qp(qp: &QuadPoint, coords: &[Vec3], num_nodes: usize) -> Option<MappedQp> {
    let (j, det) = jacobian(qp, coords, num_nodes);
    if det.abs() < 1e-30 {
        return None;
    }
    let inv_det = 1.0 / det;
    // inv[c][r] = adj(J)[c][r] / det  (note transpose: we need J^{-T}
    // applied to reference gradients: grad_x N = J^{-1} (as row op)).
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
    let mut grad = [[0.0f64; 3]; MAX_NODES];
    for i in 0..num_nodes {
        for c in 0..3 {
            // dN/dx_c = sum_r dN/dxi_r * dxi_r/dx_c = sum_r inv[r][c]^T...
            grad[i][c] =
                inv[c][0] * qp.dn[i][0] + inv[c][1] * qp.dn[i][1] + inv[c][2] * qp.dn[i][2];
        }
    }
    Some(MappedQp { dvol: qp.weight * det.abs(), n: qp.n, grad })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} != {b}");
    }

    /// `map_qp_dvol` is `map_qp`'s `dvol` bit for bit on every element of
    /// the airway, and refuses the same degenerate element.
    #[test]
    fn dvol_alone_equals_the_full_map() {
        let mesh = cfpd_mesh::generate_airway(&cfpd_mesh::AirwaySpec::small()).unwrap().mesh;
        let refs = RefElement::all();
        let mut coords = [Vec3::ZERO; MAX_NODES];
        for e in 0..mesh.num_elements() {
            let nodes = mesh.elem_nodes(e);
            for (k, &v) in nodes.iter().enumerate() {
                coords[k] = mesh.coords[v as usize];
            }
            for qp in &refs[RefElement::index_of(mesh.kinds[e])].qps {
                let full = map_qp(qp, &coords, nodes.len()).expect("valid element").dvol;
                let alone = map_qp_dvol(qp, &coords, nodes.len()).expect("valid element");
                assert_eq!(alone.to_bits(), full.to_bits(), "element {e}");
            }
        }
        let flat = [Vec3::ZERO; MAX_NODES];
        let qp = &refs[0].qps[0];
        assert!(map_qp(qp, &flat, 4).is_none() && map_qp_dvol(qp, &flat, 4).is_none());
    }

    /// Partition of unity and zero gradient sum at every quadrature
    /// point of every element type.
    #[test]
    fn partition_of_unity() {
        for re in RefElement::all() {
            let nn = re.kind.num_nodes();
            for qp in &re.qps {
                let s: f64 = qp.n[..nn].iter().sum();
                approx(s, 1.0, 1e-12);
                for c in 0..3 {
                    let g: f64 = (0..nn).map(|i| qp.dn[i][c]).sum();
                    approx(g, 0.0, 1e-12);
                }
            }
        }
    }

    /// Quadrature weights sum to the reference volume.
    #[test]
    fn weights_sum_to_reference_volume() {
        let tet = RefElement::new(ElementKind::Tet4);
        approx(tet.qps.iter().map(|q| q.weight).sum(), 1.0 / 6.0, 1e-12);
        let pri = RefElement::new(ElementKind::Pri6);
        approx(pri.qps.iter().map(|q| q.weight).sum(), 0.5, 1e-12);
        let pyr = RefElement::new(ElementKind::Pyr5);
        approx(pyr.qps.iter().map(|q| q.weight).sum(), 8.0, 1e-12);
    }

    /// The tet is affine: every point of its rule carries the same
    /// reference gradients and the same weight, so its map onto a
    /// physical element is one map (`lanes::MappedPoints` computes it
    /// once). No point of the prism or pyramid rule repeats another's
    /// gradients. A quadrature change that breaks either half must fail
    /// here, not move physics silently.
    #[test]
    fn only_the_tet_maps_every_point_alike() {
        let bits = |q: &QuadPoint| -> Vec<u64> {
            q.dn.as_flattened().iter().chain([&q.weight]).map(|v| v.to_bits()).collect()
        };
        let same = |a: &QuadPoint, b: &QuadPoint| bits(a) == bits(b);
        for re in RefElement::all() {
            for (i, a) in re.qps.iter().enumerate() {
                for b in &re.qps[i + 1..] {
                    assert_eq!(same(a, b), re.kind == ElementKind::Tet4, "{:?}", re.kind);
                }
            }
        }
    }

    /// Integrating 1 over physical elements gives their volume.
    #[test]
    fn integrates_element_volume() {
        // Unit right tet: V = 1/6.
        let tet_coords = [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        let re = RefElement::new(ElementKind::Tet4);
        let v: f64 = re.qps.iter().map(|q| map_qp(q, &tet_coords, 4).unwrap().dvol).sum();
        approx(v, 1.0 / 6.0, 1e-12);

        // Prism: right triangle base area 1/2, height 2 => V = 1.
        let pri_coords = [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::new(1.0, 0.0, 2.0),
            Vec3::new(0.0, 1.0, 2.0),
        ];
        let re = RefElement::new(ElementKind::Pri6);
        let v: f64 = re.qps.iter().map(|q| map_qp(q, &pri_coords, 6).unwrap().dvol).sum();
        approx(v, 1.0, 1e-10);

        // Pyramid: unit square base, height 1 => V = 1/3.
        let pyr_coords = [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(1.0, 1.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.5, 0.5, 1.0),
        ];
        let re = RefElement::new(ElementKind::Pyr5);
        let v: f64 = re.qps.iter().map(|q| map_qp(q, &pyr_coords, 5).unwrap().dvol).sum();
        approx(v, 1.0 / 3.0, 1e-10);
    }

    /// Integrating a linear function f(x) = x + 2y - z over elements is
    /// exact (checks physical gradients and the map together): the
    /// integral equals f(centroid) * volume for simplices; verify on the
    /// tet against the analytic value.
    #[test]
    fn integrates_linear_functions_exactly() {
        let coords = [
            Vec3::new(0.2, 0.1, 0.0),
            Vec3::new(1.3, 0.0, 0.1),
            Vec3::new(0.0, 1.1, 0.2),
            Vec3::new(0.1, 0.0, 1.4),
        ];
        let f = |p: Vec3| p.x + 2.0 * p.y - p.z;
        let re = RefElement::new(ElementKind::Tet4);
        let mut integral = 0.0;
        let mut volume = 0.0;
        for q in &re.qps {
            let m = map_qp(q, &coords, 4).unwrap();
            // Interpolate position and f from nodal values.
            let mut fv = 0.0;
            for i in 0..4 {
                fv += m.n[i] * f(coords[i]);
            }
            integral += fv * m.dvol;
            volume += m.dvol;
        }
        let centroid = (coords[0] + coords[1] + coords[2] + coords[3]) / 4.0;
        approx(integral, f(centroid) * volume, 1e-12);
    }

    /// Physical gradients of a linear nodal field are the exact constant
    /// gradient.
    #[test]
    fn gradients_reproduce_linear_fields() {
        for re in RefElement::all() {
            let nn = re.kind.num_nodes();
            // Generic node placements per type.
            let coords: Vec<Vec3> = match re.kind {
                ElementKind::Tet4 => vec![
                    Vec3::new(0.0, 0.0, 0.0),
                    Vec3::new(1.1, 0.1, 0.0),
                    Vec3::new(0.0, 0.9, 0.1),
                    Vec3::new(0.1, 0.1, 1.2),
                ],
                ElementKind::Pyr5 => vec![
                    Vec3::new(0.0, 0.0, 0.0),
                    Vec3::new(1.0, 0.0, 0.0),
                    Vec3::new(1.0, 1.0, 0.0),
                    Vec3::new(0.0, 1.0, 0.0),
                    Vec3::new(0.5, 0.5, 1.0),
                ],
                ElementKind::Pri6 => vec![
                    Vec3::new(0.0, 0.0, 0.0),
                    Vec3::new(1.0, 0.0, 0.0),
                    Vec3::new(0.0, 1.0, 0.0),
                    Vec3::new(0.0, 0.0, 1.0),
                    Vec3::new(1.0, 0.0, 1.0),
                    Vec3::new(0.0, 1.0, 1.0),
                ],
            };
            let g_exact = [0.7, -1.3, 2.1];
            let nodal: Vec<f64> = coords
                .iter()
                .map(|p| g_exact[0] * p.x + g_exact[1] * p.y + g_exact[2] * p.z)
                .collect();
            for qp in &re.qps {
                let m = map_qp(qp, &coords, nn).unwrap();
                for c in 0..3 {
                    let g: f64 = (0..nn).map(|i| m.grad[i][c] * nodal[i]).sum();
                    approx(g, g_exact[c], 1e-9);
                }
            }
        }
    }

    #[test]
    fn degenerate_element_returns_none() {
        // All four tet nodes coplanar.
        let coords = [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.5, 0.5, 0.0),
        ];
        let re = RefElement::new(ElementKind::Tet4);
        assert!(map_qp(&re.qps[0], &coords, 4).is_none());
    }
}

//! Incremental mesh construction with orientation fixing.

use crate::element::ElementKind;
use crate::geom::Vec3;
use crate::mesh::Mesh;

/// Accumulates nodes and elements, fixing element orientation (positive
/// signed volume) on insertion so downstream FEM kernels never see
/// inverted Jacobians.
#[derive(Debug, Default)]
pub struct MeshBuilder {
    coords: Vec<Vec3>,
    kinds: Vec<ElementKind>,
    offsets: Vec<u32>,
    conn: Vec<u32>,
}

impl MeshBuilder {
    pub fn new() -> Self {
        MeshBuilder { offsets: vec![0], ..Default::default() }
    }

    /// Add a node, returning its index.
    pub fn add_node(&mut self, p: Vec3) -> u32 {
        self.coords.push(p);
        (self.coords.len() - 1) as u32
    }

    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    pub fn num_elements(&self) -> usize {
        self.kinds.len()
    }

    fn tet_volume(&self, n: &[u32; 4]) -> f64 {
        let p = |i: usize| self.coords[n[i] as usize];
        (p(1) - p(0)).cross(p(2) - p(0)).dot(p(3) - p(0)) / 6.0
    }

    /// Add a tetrahedron; swaps two vertices if negatively oriented.
    /// Returns the element index.
    pub fn add_tet(&mut self, mut n: [u32; 4]) -> u32 {
        if self.tet_volume(&n) < 0.0 {
            n.swap(1, 2);
        }
        self.push(ElementKind::Tet4, &n)
    }

    /// Add a pyramid (base 0-1-2-3 counter-clockwise seen from apex 4).
    /// Reverses the base loop if negatively oriented.
    pub fn add_pyramid(&mut self, mut n: [u32; 5]) -> u32 {
        let v = self.tet_volume(&[n[0], n[1], n[2], n[4]])
            + self.tet_volume(&[n[0], n[2], n[3], n[4]]);
        if v < 0.0 {
            n.swap(1, 3);
        }
        self.push(ElementKind::Pyr5, &n)
    }

    /// Add a prism (bottom 0-1-2, top 3-4-5, `i+3` above `i`). Swaps the
    /// two triangles if negatively oriented.
    pub fn add_prism(&mut self, mut n: [u32; 6]) -> u32 {
        let v = self.tet_volume(&[n[0], n[1], n[2], n[3]])
            + self.tet_volume(&[n[1], n[2], n[3], n[4]])
            + self.tet_volume(&[n[2], n[3], n[4], n[5]]);
        if v < 0.0 {
            n.swap(0, 3);
            n.swap(1, 4);
            n.swap(2, 5);
        }
        self.push(ElementKind::Pri6, &n)
    }

    fn push(&mut self, kind: ElementKind, nodes: &[u32]) -> u32 {
        debug_assert_eq!(nodes.len(), kind.num_nodes());
        debug_assert!(nodes.iter().all(|&v| (v as usize) < self.coords.len()));
        self.kinds.push(kind);
        self.conn.extend_from_slice(nodes);
        self.offsets.push(self.conn.len() as u32);
        (self.kinds.len() - 1) as u32
    }

    /// Finalize into an immutable [`Mesh`].
    pub fn finish(self) -> Mesh {
        Mesh {
            coords: self.coords,
            kinds: self.kinds,
            offsets: self.offsets,
            conn: self.conn,
            boundary: Vec::new(),
        }
    }
}

/// Split a (possibly warped) prism `bottom=(a0,a1,a2)`, `top=(b0,b1,b2)`
/// into 3 tetrahedra using the *lowest-global-index diagonal rule*: each
/// quad face takes the diagonal through its smallest node id. Because the
/// rule is face-local, adjacent prisms split their shared quad face the
/// same way, guaranteeing a conforming tetrahedralization.
///
/// Returns the three tets as vertex quadruples (orientation is fixed by
/// [`MeshBuilder::add_tet`] on insertion).
pub fn split_prism_into_tets(a: [u32; 3], b: [u32; 3]) -> [[u32; 4]; 3] {
    // Rotate/flip so the smallest vertex id of the whole prism sits at a0.
    let ids = [a[0], a[1], a[2], b[0], b[1], b[2]];
    let min_pos = (0..6).min_by_key(|&i| ids[i]).unwrap();
    let (a, b) = if min_pos < 3 {
        (rotate3(a, min_pos), rotate3(b, min_pos))
    } else {
        // Minimum in the top triangle: mirror the prism (swap top/bottom).
        (rotate3(b, min_pos - 3), rotate3(a, min_pos - 3))
    };
    // Now a[0] is the global min; the two quad faces containing a[0]
    // take diagonals a0-b1 and a0-b2 (through a0, the face minimum).
    // The third quad face (a1,a2,b2,b1) uses its own face minimum.
    let third = [a[1], a[2], b[1], b[2]];
    let fmin = *third.iter().min().unwrap();
    if fmin == a[1] || fmin == b[2] {
        // Diagonal a1-b2.
        [
            [a[0], b[0], b[1], b[2]],
            [a[0], a[1], a[2], b[2]],
            [a[0], a[1], b[2], b[1]],
        ]
    } else {
        // Diagonal a2-b1.
        [
            [a[0], b[0], b[1], b[2]],
            [a[0], a[1], a[2], b[1]],
            [a[0], a[2], b[2], b[1]],
        ]
    }
}

fn rotate3(v: [u32; 3], by: usize) -> [u32; 3] {
    [v[by % 3], v[(by + 1) % 3], v[(by + 2) % 3]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn orientation_fixed_on_insert() {
        let mut b = MeshBuilder::new();
        let n0 = b.add_node(Vec3::new(0.0, 0.0, 0.0));
        let n1 = b.add_node(Vec3::new(1.0, 0.0, 0.0));
        let n2 = b.add_node(Vec3::new(0.0, 1.0, 0.0));
        let n3 = b.add_node(Vec3::new(0.0, 0.0, 1.0));
        // Deliberately inverted ordering.
        b.add_tet([n0, n2, n1, n3]);
        let m = b.finish();
        assert!(m.volume(0) > 0.0);
    }

    /// The diagonal rule must produce the same diagonal on a quad face
    /// regardless of which adjacent prism asks.
    #[test]
    fn prism_split_is_face_consistent() {
        // Two prisms sharing the quad face (1,2,4,5)-(7,8): construct a
        // pair of prisms sharing quad (a1,a2,b2,b1) of the first.
        // Prism P: bottom (0,1,2) top (3,4,5). Shared quad (1,2,5,4).
        // Prism Q: bottom (1,6,2) top (4,7,5) shares the same quad.
        let p = split_prism_into_tets([0, 1, 2], [3, 4, 5]);
        let q = split_prism_into_tets([1, 6, 2], [4, 7, 5]);
        let diag_of = |tets: &[[u32; 4]; 3], quad: [u32; 4]| -> BTreeSet<(u32, u32)> {
            // Diagonals are node pairs within the quad that appear as an
            // edge of some tet but are not a quad side.
            let sides: BTreeSet<(u32, u32)> = [
                (quad[0], quad[1]),
                (quad[1], quad[2]),
                (quad[2], quad[3]),
                (quad[3], quad[0]),
            ]
            .iter()
            .map(|&(x, y)| (x.min(y), x.max(y)))
            .collect();
            let qset: BTreeSet<u32> = quad.iter().copied().collect();
            let mut found = BTreeSet::new();
            for tet in tets {
                for i in 0..4 {
                    for j in i + 1..4 {
                        let (x, y) = (tet[i].min(tet[j]), tet[i].max(tet[j]));
                        if qset.contains(&x) && qset.contains(&y) && !sides.contains(&(x, y)) {
                            found.insert((x, y));
                        }
                    }
                }
            }
            found
        };
        let quad = [1, 2, 5, 4];
        let dp = diag_of(&p, quad);
        let dq = diag_of(&q, quad);
        assert_eq!(dp.len(), 1, "exactly one diagonal per quad face: {dp:?}");
        assert_eq!(dp, dq, "adjacent prisms must agree on the diagonal");
    }

    #[test]
    fn prism_split_covers_volume() {
        // Geometric check: the 3 tets tile the prism (volumes sum).
        // Top = bottom translated, so all quad faces are planar and any
        // valid split yields the exact prism volume. (Warped prisms give
        // split-dependent volumes — that is inherent, not a bug.)
        let off = Vec3::new(0.1, 0.2, 1.0);
        let base = [Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0)];
        let pts = [base[0], base[1], base[2], base[0] + off, base[1] + off, base[2] + off];
        let tets = split_prism_into_tets([0, 1, 2], [3, 4, 5]);
        let vol = |t: &[u32; 4]| {
            let p = |i: u32| pts[i as usize];
            ((p(t[1]) - p(t[0])).cross(p(t[2]) - p(t[0])).dot(p(t[3]) - p(t[0])) / 6.0).abs()
        };
        let sum: f64 = tets.iter().map(vol).sum();
        // Prism volume via its own 3-tet split with the same diagonals is
        // `sum` by construction; sanity check against an independent
        // split (0,1,2,3)+(1,2,3,4)+(2,3,4,5).
        let alt = {
            let p = |i: usize| pts[i];
            let tv = |a: Vec3, b: Vec3, c: Vec3, d: Vec3| (b - a).cross(c - a).dot(d - a) / 6.0;
            (tv(p(0), p(1), p(2), p(3)) + tv(p(1), p(2), p(3), p(4)) + tv(p(2), p(3), p(4), p(5)))
                .abs()
        };
        assert!((sum - alt).abs() < 1e-9, "{sum} vs {alt}");
    }

    #[test]
    fn prism_split_all_rotations_consistent() {
        // The same physical prism presented with rotated node lists must
        // produce the same set of tets (as vertex sets).
        let canonical: BTreeSet<BTreeSet<u32>> = split_prism_into_tets([10, 11, 12], [13, 14, 15])
            .iter()
            .map(|t| t.iter().copied().collect())
            .collect();
        for r in 0..3 {
            let a = rotate3([10, 11, 12], r);
            let b = rotate3([13, 14, 15], r);
            let got: BTreeSet<BTreeSet<u32>> = split_prism_into_tets(a, b)
                .iter()
                .map(|t| t.iter().copied().collect())
                .collect();
            assert_eq!(got, canonical);
        }
    }
}

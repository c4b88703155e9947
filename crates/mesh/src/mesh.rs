//! The hybrid unstructured mesh container and its derived topology.
//!
//! Connectivity is stored in CSR form (mixed element arities), the same
//! layout a production FEM code like Alya uses. Derived maps — node→
//! element, element↔element adjacency through shared nodes (the source
//! of the assembly race condition, §3.1), and face neighbors (used by
//! the particle element-walk) — are computed on demand.

use crate::element::{BoundaryKind, ElementKind};
use crate::geom::Vec3;

/// An unstructured hybrid mesh (tetrahedra, pyramids, prisms).
#[derive(Debug, Clone, Default)]
pub struct Mesh {
    /// Node coordinates.
    pub coords: Vec<Vec3>,
    /// Element kinds, one per element.
    pub kinds: Vec<ElementKind>,
    /// CSR offsets into `conn`; element `e` owns `conn[offsets[e]..offsets[e+1]]`.
    pub offsets: Vec<u32>,
    /// Flattened element→node connectivity.
    pub conn: Vec<u32>,
    /// Exterior boundary faces: (element, local face index, kind).
    pub boundary: Vec<(u32, u8, BoundaryKind)>,
}

/// CSR adjacency structure (used for node→element and element↔element maps).
#[derive(Debug, Clone, Default)]
pub struct Csr {
    pub offsets: Vec<u32>,
    pub targets: Vec<u32>,
}

impl Csr {
    /// Group `(row, value)` pairs by row with a stable counting sort:
    /// row `r` of the result lists, in the order met, the values paired
    /// with `r`. Every row index must be below `rows`.
    pub fn group(rows: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Csr {
        let mut offsets = vec![0u32; rows + 1];
        for (r, _) in pairs.clone() {
            offsets[r as usize + 1] += 1;
        }
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; offsets[rows] as usize];
        for (r, value) in pairs {
            let c = &mut cursor[r as usize];
            targets[*c as usize] = value;
            *c += 1;
        }
        Csr { offsets, targets }
    }

    /// Neighbors of entry `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows moved by `perm` (`perm[old] = new`): row `perm[v]` of the
    /// result is row `v`, its values untouched.
    pub fn permute_rows(&self, perm: &[u32]) -> Csr {
        let mut old = vec![0u32; perm.len()];
        perm.iter().enumerate().for_each(|(v, &p)| old[p as usize] = v as u32);
        let mut moved = Csr { offsets: vec![0], targets: Vec::with_capacity(self.targets.len()) };
        for v in old {
            moved.targets.extend_from_slice(self.row(v as usize));
            moved.offsets.push(moved.targets.len() as u32);
        }
        moved
    }
}

/// Per-element face neighbor table: `neighbors[e][f]` is `Some(e')` if
/// local face `f` of element `e` is shared with element `e'`, `None` if
/// it is an exterior face. Faces are indexed per [`ElementKind::faces`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaceNeighbors {
    offsets: Vec<u32>,
    entries: Vec<Option<u32>>,
}

impl FaceNeighbors {
    /// Neighbor across local face `f` of element `e`.
    #[inline]
    pub fn neighbor(&self, e: usize, f: usize) -> Option<u32> {
        self.entries[self.offsets[e] as usize + f]
    }

    /// All face-neighbor slots of element `e`.
    #[inline]
    pub fn faces(&self, e: usize) -> &[Option<u32>] {
        &self.entries[self.offsets[e] as usize..self.offsets[e + 1] as usize]
    }

    /// Flat index of local face `f` of element `e`: the key of every
    /// per-face side table laid out beside this one.
    #[inline]
    pub fn slot(&self, e: usize, f: usize) -> usize {
        self.offsets[e] as usize + f
    }

    /// Total number of (element, face) slots.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.entries.len()
    }
}

/// Aggregate mesh statistics (element mix, sizes) for reporting.
#[derive(Debug, Clone, Default)]
pub struct MeshStats {
    pub num_nodes: usize,
    pub num_elements: usize,
    pub num_tets: usize,
    pub num_pyramids: usize,
    pub num_prisms: usize,
    pub total_volume: f64,
    pub min_volume: f64,
    pub max_volume: f64,
}

impl Mesh {
    /// Number of elements.
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.kinds.len()
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Nodes of element `e`.
    #[inline]
    pub fn elem_nodes(&self, e: usize) -> &[u32] {
        &self.conn[self.offsets[e] as usize..self.offsets[e + 1] as usize]
    }

    /// Centroid of element `e`.
    pub fn centroid(&self, e: usize) -> Vec3 {
        let nodes = self.elem_nodes(e);
        let mut c = Vec3::ZERO;
        for &n in nodes {
            c += self.coords[n as usize];
        }
        c / nodes.len() as f64
    }

    /// Signed volume of element `e`, computed by decomposing the element
    /// into tetrahedra fanned from its first node (exact for planar-faced
    /// convex elements; a very good approximation for the mildly warped
    /// quad faces the generator produces).
    pub fn volume(&self, e: usize) -> f64 {
        let nodes = self.elem_nodes(e);
        let kind = self.kinds[e];
        let p = |i: usize| self.coords[nodes[i] as usize];
        let tet_vol = |a: Vec3, b: Vec3, c: Vec3, d: Vec3| (b - a).cross(c - a).dot(d - a) / 6.0;
        match kind {
            ElementKind::Tet4 => tet_vol(p(0), p(1), p(2), p(3)),
            ElementKind::Pyr5 => {
                // Split base quad 0-1-2-3 along diagonal 0-2.
                tet_vol(p(0), p(1), p(2), p(4)) + tet_vol(p(0), p(2), p(3), p(4))
            }
            ElementKind::Pri6 => {
                // Standard 3-tet split (any valid split gives the volume).
                tet_vol(p(0), p(1), p(2), p(3))
                    + tet_vol(p(1), p(2), p(3), p(4))
                    + tet_vol(p(2), p(3), p(4), p(5))
            }
        }
    }

    /// Characteristic length `|V|^(1/3)` of every element: the one table
    /// the assembly schedule, the SGS sweep and the particle locator read.
    pub fn element_sizes(&self) -> Vec<f64> {
        (0..self.num_elements()).map(|e| self.volume(e).abs().cbrt()).collect()
    }

    /// Element mix and volume statistics.
    pub fn stats(&self) -> MeshStats {
        let mut s = MeshStats {
            num_nodes: self.num_nodes(),
            num_elements: self.num_elements(),
            min_volume: f64::INFINITY,
            max_volume: f64::NEG_INFINITY,
            ..Default::default()
        };
        for e in 0..self.num_elements() {
            match self.kinds[e] {
                ElementKind::Tet4 => s.num_tets += 1,
                ElementKind::Pyr5 => s.num_pyramids += 1,
                ElementKind::Pri6 => s.num_prisms += 1,
            }
            let v = self.volume(e);
            s.total_volume += v;
            s.min_volume = s.min_volume.min(v);
            s.max_volume = s.max_volume.max(v);
        }
        if self.num_elements() == 0 {
            s.min_volume = 0.0;
            s.max_volume = 0.0;
        }
        s
    }

    /// Node → incident elements map.
    pub fn node_to_elements(&self) -> Csr {
        self.node_to_listed(0..self.num_elements() as u32)
    }

    /// Node → incident elements map restricted to the element ids
    /// `elems` yields: row `v` holds, ascending, the positions in that
    /// sequence of the elements touching node `v`.
    pub fn node_to_listed(&self, elems: impl Iterator<Item = u32> + Clone) -> Csr {
        let pairs = elems.enumerate().flat_map(|(at, e)| {
            self.elem_nodes(e as usize).iter().map(move |&v| (v, at as u32))
        });
        Csr::group(self.num_nodes(), pairs)
    }

    /// Element ↔ element adjacency through **shared nodes** (deduplicated,
    /// ascending, no self-loops). Two elements sharing at least one node
    /// may race when scatter-adding into the global matrix — this graph
    /// drives mesh coloring and the multidependences task
    /// incompatibilities.
    pub fn element_adjacency(&self, node_to_elem: &Csr) -> Csr {
        self.listed_adjacency(0..self.num_elements() as u32, node_to_elem)
    }

    /// [`Mesh::element_adjacency`] among the elements `elems` yields,
    /// named by their positions in that sequence; `node_to_listed` is
    /// [`Mesh::node_to_listed`] of the same sequence.
    ///
    /// A row is the union of the (ascending) rows of its element's
    /// nodes. Mesh generators number neighbouring elements closely, so
    /// that union usually spans a few hundred ids: it is collected as a
    /// bit set over the span and read back in order, with no sort. A row
    /// whose span has more words than the rows have entries is gathered
    /// and sorted instead.
    pub fn listed_adjacency(
        &self,
        elems: impl ExactSizeIterator<Item = u32>,
        node_to_listed: &Csr,
    ) -> Csr {
        let mut offsets = Vec::with_capacity(elems.len() + 1);
        offsets.push(0u32);
        let mut targets: Vec<u32> = Vec::new();
        let mut bits = vec![0u64; elems.len() / 64 + 1];
        let mut gathered: Vec<u32> = Vec::new();
        for (at, e) in elems.enumerate() {
            let at = at as u32;
            let rows =
                || self.elem_nodes(e as usize).iter().map(|&v| node_to_listed.row(v as usize));
            // Every row holds `at`, so none is empty.
            let (mut lo, mut hi, mut entries) = (at, at, 0usize);
            for row in rows() {
                lo = lo.min(row[0]);
                hi = hi.max(row[row.len() - 1]);
                entries += row.len();
            }
            let (first, last) = ((lo >> 6) as usize, (hi >> 6) as usize);
            if last - first < entries {
                for row in rows() {
                    for &x in row {
                        bits[(x >> 6) as usize] |= 1u64 << (x & 63);
                    }
                }
                bits[(at >> 6) as usize] &= !(1u64 << (at & 63));
                for (w, word) in bits[first..=last].iter_mut().enumerate() {
                    let mut word = std::mem::take(word);
                    while word != 0 {
                        targets.push(((first + w) as u32) << 6 | word.trailing_zeros());
                        word &= word - 1;
                    }
                }
            } else {
                gathered.clear();
                for row in rows() {
                    gathered.extend(row.iter().filter(|&&x| x != at));
                }
                gathered.sort_unstable();
                gathered.dedup();
                targets.extend_from_slice(&gathered);
            }
            offsets.push(targets.len() as u32);
        }
        Csr { offsets, targets }
    }

    /// Face-neighbor table used by the particle element-walk locator.
    /// Also validates mesh conformity: every interior face must be shared
    /// by exactly two elements.
    pub fn face_neighbors(&self) -> FaceNeighbors {
        let mut offsets = Vec::with_capacity(self.num_elements() + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for e in 0..self.num_elements() {
            total += self.kinds[e].num_faces() as u32;
            offsets.push(total);
        }
        // Per face slot: its nodes sorted ascending (padded with u32::MAX
        // for triangles so quads and triangles never collide) and its
        // element.
        let mut keys: Vec<[u32; 4]> = Vec::with_capacity(total as usize);
        let mut owner: Vec<u32> = Vec::with_capacity(total as usize);
        for e in 0..self.num_elements() {
            let nodes = self.elem_nodes(e);
            for face in self.kinds[e].faces() {
                let mut key = [u32::MAX; 4];
                for (k, &li) in face.iter().enumerate() {
                    key[k] = nodes[li];
                }
                key[..face.len()].sort_unstable();
                keys.push(key);
                owner.push(e as u32);
            }
        }
        // Slots grouped by their lowest node: the two sides of an interior
        // face land in the same short bucket.
        let by_node = Csr::group(
            self.num_nodes(),
            keys.iter().enumerate().map(|(slot, key)| (key[0], slot as u32)),
        );
        let mut entries: Vec<Option<u32>> = vec![None; total as usize];
        for v in 0..by_node.len() {
            let bucket = by_node.row(v);
            for (i, &a) in bucket.iter().enumerate() {
                if entries[a as usize].is_some() {
                    continue;
                }
                // Whatever finds no partner is an exterior face: it
                // stays None.
                let partner = bucket[i + 1..].iter().find(|&&b| {
                    entries[b as usize].is_none() && keys[b as usize] == keys[a as usize]
                });
                if let Some(&b) = partner {
                    entries[a as usize] = Some(owner[b as usize]);
                    entries[b as usize] = Some(owner[a as usize]);
                }
            }
        }
        FaceNeighbors { offsets, entries }
    }

    /// Node ↔ node adjacency through shared elements (deduplicated,
    /// sorted, no self-loops) — exactly the off-diagonal sparsity
    /// pattern of the assembled FEM matrices, so its bandwidth is the
    /// CSR bandwidth the RCM reordering minimizes.
    pub fn node_adjacency(&self) -> Csr {
        self.node_adjacency_of(&self.node_to_elements())
    }

    /// [`Mesh::node_adjacency`] on `n2e`, which is `self.node_to_elements()`.
    pub fn node_adjacency_of(&self, n2e: &Csr) -> Csr {
        let n = self.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        // `mark[w] == v + 1` means w already recorded as a neighbor of v.
        let mut mark = vec![0u32; n];
        for v in 0..n {
            let stamp = v as u32 + 1;
            for &e in n2e.row(v) {
                for &w in self.elem_nodes(e as usize) {
                    if w as usize != v && mark[w as usize] != stamp {
                        mark[w as usize] = stamp;
                        targets.push(w);
                    }
                }
            }
            let start = *offsets.last().unwrap() as usize;
            targets[start..].sort_unstable();
            offsets.push(targets.len() as u32);
        }
        Csr { offsets, targets }
    }

    /// Renumber the nodes in place with `perm[old] = new`: coordinates
    /// move to their new slots and every connectivity entry is mapped.
    /// Element order, kinds, offsets and (element-indexed) boundary tags
    /// are untouched, so partitions, colorings and particle state built
    /// on element ids stay valid. Applying `perm` then its inverse
    /// restores the mesh exactly.
    pub fn renumber_nodes(&mut self, perm: &[u32]) {
        let n = self.num_nodes();
        assert_eq!(perm.len(), n, "permutation length must match node count");
        debug_assert!(
            {
                let mut seen = vec![false; n];
                perm.iter().all(|&p| {
                    let fresh = !seen[p as usize];
                    seen[p as usize] = true;
                    fresh
                })
            },
            "perm must be a bijection on 0..num_nodes"
        );
        let mut coords = vec![Vec3::ZERO; n];
        for (old, &new) in perm.iter().enumerate() {
            coords[new as usize] = self.coords[old];
        }
        self.coords = coords;
        for v in &mut self.conn {
            *v = perm[*v as usize];
        }
    }

    /// Boundary kind of every face slot of `faces` (see
    /// [`FaceNeighbors::slot`]); `None` for interior and untagged faces.
    pub fn boundary_table(&self, faces: &FaceNeighbors) -> Vec<Option<BoundaryKind>> {
        let mut table = vec![None; faces.num_slots()];
        for &(e, f, kind) in &self.boundary {
            table[faces.slot(e as usize, f as usize)] = Some(kind);
        }
        table
    }

    /// Check all element volumes are strictly positive; returns offending
    /// element indices (empty means valid).
    #[cfg(test)]
    pub fn negative_volume_elements(&self) -> Vec<usize> {
        (0..self.num_elements())
            .filter(|&e| self.volume(e) <= 0.0)
            .collect()
    }

    /// Per-element assembly cost weights (quadrature-richness based).
    pub fn cost_weights(&self) -> Vec<f64> {
        self.kinds.iter().map(|k| k.cost_weight()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MeshBuilder;

    /// Two tets sharing a face: a minimal conforming mesh.
    fn two_tets() -> Mesh {
        let mut b = MeshBuilder::new();
        let n0 = b.add_node(Vec3::new(0.0, 0.0, 0.0));
        let n1 = b.add_node(Vec3::new(1.0, 0.0, 0.0));
        let n2 = b.add_node(Vec3::new(0.0, 1.0, 0.0));
        let n3 = b.add_node(Vec3::new(0.0, 0.0, 1.0));
        let n4 = b.add_node(Vec3::new(1.0, 1.0, 1.0));
        b.add_tet([n0, n1, n2, n3]);
        b.add_tet([n1, n2, n3, n4]);
        b.finish()
    }

    #[test]
    fn volumes_positive_and_correct() {
        let m = two_tets();
        assert!((m.volume(0) - 1.0 / 6.0).abs() < 1e-12);
        assert!(m.volume(1) > 0.0);
        assert!(m.negative_volume_elements().is_empty());
    }

    #[test]
    fn node_to_elements_inverts_connectivity() {
        let m = two_tets();
        let n2e = m.node_to_elements();
        assert_eq!(n2e.row(0), &[0]); // node 0 only in tet 0
        assert_eq!(n2e.row(4), &[1]); // node 4 only in tet 1
        assert_eq!(n2e.row(1), &[0, 1]); // shared
    }

    #[test]
    fn element_adjacency_by_shared_node() {
        let m = two_tets();
        let n2e = m.node_to_elements();
        let adj = m.element_adjacency(&n2e);
        assert_eq!(adj.row(0), &[1]);
        assert_eq!(adj.row(1), &[0]);
    }

    #[test]
    fn face_neighbors_finds_shared_face() {
        let m = two_tets();
        let fns = m.face_neighbors();
        let shared0: Vec<_> = fns.faces(0).iter().filter(|n| n.is_some()).collect();
        assert_eq!(shared0.len(), 1);
        assert_eq!(fns.faces(0).iter().flatten().next(), Some(&1));
        assert_eq!(fns.faces(1).iter().flatten().next(), Some(&0));
    }

    #[test]
    fn pyramid_volume() {
        // Unit-square base, apex at height 1: V = 1/3.
        let mut b = MeshBuilder::new();
        let n: Vec<u32> = [
            (0.0, 0.0, 0.0),
            (1.0, 0.0, 0.0),
            (1.0, 1.0, 0.0),
            (0.0, 1.0, 0.0),
            (0.5, 0.5, 1.0),
        ]
        .iter()
        .map(|&(x, y, z)| b.add_node(Vec3::new(x, y, z)))
        .collect();
        b.add_pyramid([n[0], n[1], n[2], n[3], n[4]]);
        let m = b.finish();
        assert!((m.volume(0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn prism_volume() {
        // Right triangular prism: base area 1/2, height 2 => V = 1.
        let mut b = MeshBuilder::new();
        let pts = [
            (0.0, 0.0, 0.0),
            (1.0, 0.0, 0.0),
            (0.0, 1.0, 0.0),
            (0.0, 0.0, 2.0),
            (1.0, 0.0, 2.0),
            (0.0, 1.0, 2.0),
        ];
        let n: Vec<u32> = pts.iter().map(|&(x, y, z)| b.add_node(Vec3::new(x, y, z))).collect();
        b.add_prism([n[0], n[1], n[2], n[3], n[4], n[5]]);
        let m = b.finish();
        assert!((m.volume(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn node_adjacency_matches_shared_elements() {
        let m = two_tets();
        let adj = m.node_adjacency();
        // Node 0 is only in tet 0: neighbors are that tet's other nodes.
        assert_eq!(adj.row(0), &[1, 2, 3]);
        // Node 1 is in both tets: all other nodes are neighbors.
        assert_eq!(adj.row(1), &[0, 2, 3, 4]);
        // No self-loops anywhere.
        for v in 0..m.num_nodes() {
            assert!(!adj.row(v).contains(&(v as u32)));
        }
    }

    #[test]
    fn renumber_nodes_round_trips_exactly() {
        let m0 = two_tets();
        let mut m = m0.clone();
        let perm: Vec<u32> = vec![4, 2, 0, 1, 3]; // arbitrary bijection
        let mut inv = vec![0u32; perm.len()];
        for (a, &b) in perm.iter().enumerate() {
            inv[b as usize] = a as u32;
        }
        m.renumber_nodes(&perm);
        // Volumes (element-indexed geometry) are invariant bit-for-bit.
        assert_eq!(m.volume(0).to_bits(), m0.volume(0).to_bits());
        m.renumber_nodes(&inv);
        assert_eq!(m.conn, m0.conn);
        for (a, b) in m.coords.iter().zip(&m0.coords) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
    }

    #[test]
    fn stats_counts_mix() {
        let m = two_tets();
        let s = m.stats();
        assert_eq!(s.num_elements, 2);
        assert_eq!(s.num_tets, 2);
        assert_eq!(s.num_pyramids, 0);
        assert_eq!(s.num_prisms, 0);
        assert!(s.total_volume > 0.0);
    }
}

//! Locating particles in the unstructured hybrid mesh: a face-plane
//! containment test, a neighbor-walk search, and a uniform-grid global
//! fallback for injection and lost particles.

use cfpd_mesh::{BoundaryKind, FaceNeighbors, Mesh, Vec3};
use std::sync::Arc;

/// Result of a walk from one element toward a point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalkResult {
    /// Point is inside this element.
    Inside(u32),
    /// Walk left the mesh through an exterior face of this element with
    /// this boundary kind (deposition on walls, escape at outlets).
    ExitedBoundary(u32, BoundaryKind),
    /// Walk did not converge (pathological geometry); caller should fall
    /// back to a global search.
    Lost,
}

/// The plane of one element face: its centroid and outward unit normal.
#[derive(Debug, Clone, Copy)]
struct FacePlane {
    centroid: Vec3,
    /// All-NaN for a degenerate face (Newell normal shorter than 1e-30):
    /// every distance to it is NaN, no comparison with NaN holds, and
    /// the face drops out of [`Locator::worst_face`] as it must.
    normal: Vec3,
}

/// Plane of local face `face` (node indices into `nodes`) of an element.
fn face_plane(coords: &[Vec3], nodes: &[u32], face: &[usize]) -> FacePlane {
    // Face centroid and normal (Newell's method handles warped quads).
    let mut c = Vec3::ZERO;
    for &li in face.iter() {
        c += coords[nodes[li] as usize];
    }
    c = c / face.len() as f64;
    let mut n = Vec3::ZERO;
    for k in 0..face.len() {
        let a = coords[nodes[face[k]] as usize];
        let b = coords[nodes[face[(k + 1) % face.len()]] as usize];
        n += (a - c).cross(b - c);
    }
    let len = n.norm();
    let normal = if len < 1e-30 { Vec3::new(f64::NAN, f64::NAN, f64::NAN) } else { n / len };
    FacePlane { centroid: c, normal }
}

/// What a [`Locator`] precomputes from a mesh: face neighbors, face
/// planes, boundary classification, element sizes and a uniform grid
/// over element centroids for global lookups. Owns no reference to the
/// mesh, so one geometry serves every locator over it.
pub struct LocatorGeometry {
    face_neighbors: FaceNeighbors,
    /// Per face slot of `face_neighbors`.
    planes: Vec<FacePlane>,
    /// Per face slot of `face_neighbors`.
    boundary: Vec<Option<BoundaryKind>>,
    /// Characteristic size (volume cube root) per element.
    size: Vec<f64>,
    /// Centroid per element.
    centroids: Vec<Vec3>,
    // Uniform grid acceleration structure.
    grid_origin: Vec3,
    grid_cell: f64,
    grid_dims: [usize; 3],
    cells: Vec<Vec<u32>>,
}

/// Mesh locator: a mesh and its [`LocatorGeometry`].
pub struct Locator<'m> {
    mesh: &'m Mesh,
    g: Arc<LocatorGeometry>,
}

impl LocatorGeometry {
    pub fn new(mesh: &Mesh) -> LocatorGeometry {
        let face_neighbors = mesh.face_neighbors();
        let boundary = mesh.boundary_table(&face_neighbors);
        let mut planes = Vec::with_capacity(face_neighbors.num_slots());
        let mut size = Vec::with_capacity(mesh.num_elements());
        let mut centroids = Vec::with_capacity(mesh.num_elements());
        for e in 0..mesh.num_elements() {
            let nodes = mesh.elem_nodes(e);
            for face in mesh.kinds[e].faces() {
                planes.push(face_plane(&mesh.coords, nodes, face));
            }
            size.push(mesh.volume(e).abs().cbrt());
            centroids.push(mesh.centroid(e));
        }
        // Bounding box of all nodes.
        let mut lo = Vec3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut hi = Vec3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in &mesh.coords {
            lo = Vec3::new(lo.x.min(p.x), lo.y.min(p.y), lo.z.min(p.z));
            hi = Vec3::new(hi.x.max(p.x), hi.y.max(p.y), hi.z.max(p.z));
        }
        let ne = mesh.num_elements().max(1);
        // Aim for ~2 elements per cell.
        let target_cells = (ne as f64 / 2.0).max(1.0);
        let extent = hi - lo;
        let vol = (extent.x * extent.y * extent.z).max(1e-30);
        let cell = (vol / target_cells).cbrt().max(1e-9);
        let dims = [
            ((extent.x / cell).ceil() as usize).max(1),
            ((extent.y / cell).ceil() as usize).max(1),
            ((extent.z / cell).ceil() as usize).max(1),
        ];
        let mut cells = vec![Vec::new(); dims[0] * dims[1] * dims[2]];
        let index = |p: Vec3| -> usize {
            let ix = (((p.x - lo.x) / cell) as usize).min(dims[0] - 1);
            let iy = (((p.y - lo.y) / cell) as usize).min(dims[1] - 1);
            let iz = (((p.z - lo.z) / cell) as usize).min(dims[2] - 1);
            (iz * dims[1] + iy) * dims[0] + ix
        };
        for (e, &c) in centroids.iter().enumerate() {
            cells[index(c)].push(e as u32);
        }
        LocatorGeometry {
            face_neighbors,
            planes,
            boundary,
            size,
            centroids,
            grid_origin: lo,
            grid_cell: cell,
            grid_dims: dims,
            cells,
        }
    }
}

impl<'m> Locator<'m> {
    pub fn new(mesh: &'m Mesh) -> Locator<'m> {
        Locator::with_geometry(mesh, Arc::new(LocatorGeometry::new(mesh)))
    }

    /// A locator over `mesh` on a geometry built from that mesh.
    pub fn with_geometry(mesh: &'m Mesh, g: Arc<LocatorGeometry>) -> Locator<'m> {
        assert_eq!(g.size.len(), mesh.num_elements(), "geometry of another mesh");
        Locator { mesh, g }
    }

    /// Face-plane containment test: `p` is inside a convex element if it
    /// lies on the inner side of every face plane (planes through the
    /// face centroid with outward normal; tolerance `eps` relative to
    /// the element size).
    pub fn contains(&self, e: usize, p: Vec3, eps: f64) -> bool {
        self.max_face_violation(e, p) <= eps
    }

    /// The face planes of element `e`, in local face order.
    fn planes(&self, e: usize) -> &[FacePlane] {
        let first = self.g.face_neighbors.slot(e, 0);
        &self.g.planes[first..first + self.g.face_neighbors.faces(e).len()]
    }

    /// Largest signed distance of `p` beyond any face plane of `e`
    /// (negative = strictly inside) and the face index achieving it.
    fn worst_face(&self, e: usize, p: Vec3) -> (f64, usize) {
        let mut worst = (f64::NEG_INFINITY, 0usize);
        for (f, plane) in self.planes(e).iter().enumerate() {
            let d = (p - plane.centroid).dot(plane.normal);
            if d > worst.0 {
                worst = (d, f);
            }
        }
        worst
    }

    fn max_face_violation(&self, e: usize, p: Vec3) -> f64 {
        self.worst_face(e, p).0
    }

    /// Walk from `start` toward `p`, crossing at most `max_steps` faces.
    pub fn walk(&self, start: u32, p: Vec3, max_steps: usize) -> WalkResult {
        let mut e = start as usize;
        let mut prev = usize::MAX;
        for _ in 0..max_steps {
            let (violation, face) = self.worst_face(e, p);
            let h = self.g.size[e];
            if violation <= 1e-9 * h.max(1e-30) + 1e-15 {
                return WalkResult::Inside(e as u32);
            }
            match self.g.face_neighbors.neighbor(e, face) {
                Some(next) => {
                    if next as usize == prev {
                        // Ping-pong between two elements (point near a
                        // warped shared face): accept the closer one.
                        let va = self.max_face_violation(e, p);
                        let vb = self.max_face_violation(prev, p);
                        let best = if va <= vb { e } else { prev };
                        return WalkResult::Inside(best as u32);
                    }
                    prev = e;
                    e = next as usize;
                }
                None => {
                    let kind = self.g.boundary[self.g.face_neighbors.slot(e, face)]
                        .unwrap_or(BoundaryKind::Wall);
                    return WalkResult::ExitedBoundary(e as u32, kind);
                }
            }
        }
        WalkResult::Lost
    }

    /// The mesh this locator indexes.
    pub fn mesh(&self) -> &Mesh {
        self.mesh
    }

    /// Characteristic size (volume cube root) of element `e`.
    pub fn elem_size(&self, e: usize) -> f64 {
        self.g.size[e]
    }

    /// Probe forward from `p` along unit direction `dir` in steps of
    /// `h/2` up to `2h`, returning the first element containing a probe
    /// point. Used to hop across the thin uncovered voids between the
    /// star-filled junction cones of the airway mesh (see tracker docs).
    pub fn locate_forward(&self, p: Vec3, dir: Vec3, h: f64) -> Option<u32> {
        for k in 1..=4 {
            let probe = p + dir * (0.5 * h * k as f64);
            if let Some(e) = self.locate_global(probe) {
                return Some(e);
            }
        }
        None
    }

    /// The elements binned in the grid cell of `p` and its up to 26
    /// neighbors, cell by cell in z, y, x order and in element order
    /// within a cell — the scan order of [`Locator::locate_global`].
    fn candidates(&self, p: Vec3) -> impl Iterator<Item = u32> + '_ {
        let g = &*self.g;
        let d = g.grid_dims;
        let around = |x: f64, origin: f64, n: usize| {
            let i = (((x - origin) / g.grid_cell) as i64).clamp(0, n as i64 - 1) as usize;
            i.saturating_sub(1)..(i + 2).min(n)
        };
        let xs = around(p.x, g.grid_origin.x, d[0]);
        let ys = around(p.y, g.grid_origin.y, d[1]);
        around(p.z, g.grid_origin.z, d[2])
            .flat_map(move |z| ys.clone().map(move |y| z * d[1] + y))
            .flat_map(move |zy| xs.clone().map(move |x| &g.cells[zy * d[0] + x]))
            .flatten()
            .copied()
    }

    /// Global search via the uniform grid (used at injection and to
    /// recover lost particles). Returns the containing element, if any:
    /// the **first in scan order** ([`Locator::candidates`]) that
    /// contains `p`. Where elements overlap geometrically — the junction
    /// cones of the airway mesh do (DESIGN.md §7) — that order decides
    /// which one a particle lands in, so it is part of the result.
    pub fn locate_global(&self, p: Vec3) -> Option<u32> {
        // Pass 1, all an injection ever runs: leave a candidate at its
        // first violated face. "No face distance above eps" is
        // `contains` exactly — both skip the NaN planes of degenerate
        // faces — without the distances of the faces after the verdict.
        let inside = |&e: &u32| {
            let eps = 1e-9 * self.g.size[e as usize] + 1e-15;
            !self.planes(e as usize).iter().any(|pl| (p - pl.centroid).dot(pl.normal) > eps)
        };
        if let Some(e) = self.candidates(p).find(inside) {
            return Some(e);
        }
        // Pass 2, on a miss: walk from the nearest candidate centroid
        // (the first of equally near ones).
        let mut best: Option<(f64, u32)> = None;
        for e in self.candidates(p) {
            let dist = self.g.centroids[e as usize].dist(p);
            if best.is_none() || dist < best.unwrap().0 {
                best = Some((dist, e));
            }
        }
        match best.map(|(_, e)| self.walk(e, p, 64)) {
            Some(WalkResult::Inside(found)) => Some(found),
            _ => None,
        }
    }

    /// Least-squares linear reconstruction of the gradient of a nodal
    /// vector field over element `e`: returns `G[c]` = ∇(field_c) at the
    /// element (constant per element). Used by the Saffman lift model
    /// (needs the local vorticity) and by diagnostics.
    pub fn gradient(&self, e: usize, field: &[Vec3]) -> [Vec3; 3] {
        let nodes = self.mesh.elem_nodes(e);
        let centroid = self.mesh.centroid(e);
        // Mean field value.
        let mut mean = Vec3::ZERO;
        for &v in nodes {
            mean += field[v as usize];
        }
        mean = mean / nodes.len() as f64;
        // Normal equations A g_c = b_c with A = Σ dx dxᵀ.
        let mut a = [[0.0f64; 3]; 3];
        let mut b = [[0.0f64; 3]; 3]; // b[c][*]
        for &v in nodes {
            let dx = self.mesh.coords[v as usize] - centroid;
            let df = field[v as usize] - mean;
            let dxa = [dx.x, dx.y, dx.z];
            let dfa = [df.x, df.y, df.z];
            for r in 0..3 {
                for c in 0..3 {
                    a[r][c] += dxa[r] * dxa[c];
                }
                for c in 0..3 {
                    b[c][r] += dxa[r] * dfa[c];
                }
            }
        }
        // Invert A (3x3, SPD up to degeneracy; fall back to zero).
        let det = a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]);
        if det.abs() < 1e-30 {
            return [Vec3::ZERO; 3];
        }
        let inv_det = 1.0 / det;
        let inv = [
            [
                (a[1][1] * a[2][2] - a[1][2] * a[2][1]) * inv_det,
                (a[0][2] * a[2][1] - a[0][1] * a[2][2]) * inv_det,
                (a[0][1] * a[1][2] - a[0][2] * a[1][1]) * inv_det,
            ],
            [
                (a[1][2] * a[2][0] - a[1][0] * a[2][2]) * inv_det,
                (a[0][0] * a[2][2] - a[0][2] * a[2][0]) * inv_det,
                (a[0][2] * a[1][0] - a[0][0] * a[1][2]) * inv_det,
            ],
            [
                (a[1][0] * a[2][1] - a[1][1] * a[2][0]) * inv_det,
                (a[0][1] * a[2][0] - a[0][0] * a[2][1]) * inv_det,
                (a[0][0] * a[1][1] - a[0][1] * a[1][0]) * inv_det,
            ],
        ];
        let mut out = [Vec3::ZERO; 3];
        for c in 0..3 {
            out[c] = Vec3::new(
                inv[0][0] * b[c][0] + inv[0][1] * b[c][1] + inv[0][2] * b[c][2],
                inv[1][0] * b[c][0] + inv[1][1] * b[c][1] + inv[1][2] * b[c][2],
                inv[2][0] * b[c][0] + inv[2][1] * b[c][1] + inv[2][2] * b[c][2],
            );
        }
        out
    }

    /// Vorticity ω = ∇ × u of a nodal velocity field at element `e`.
    pub fn vorticity(&self, e: usize, field: &[Vec3]) -> Vec3 {
        let g = self.gradient(e, field);
        // g[c] = grad of component c; ω = (du_z/dy - du_y/dz, ...).
        Vec3::new(g[2].y - g[1].z, g[0].z - g[2].x, g[1].x - g[0].y)
    }

    /// Interpolate a nodal vector field at `p` inside element `e` using
    /// inverse-distance weights over the element nodes (a standard
    /// low-order interpolant for Lagrangian particle tracking).
    pub fn interpolate(&self, e: usize, p: Vec3, field: &[Vec3]) -> Vec3 {
        let nodes = self.mesh.elem_nodes(e);
        let mut wsum = 0.0;
        let mut acc = Vec3::ZERO;
        for &v in nodes {
            let d = self.mesh.coords[v as usize].dist(p);
            if d < 1e-14 {
                return field[v as usize];
            }
            let w = 1.0 / d;
            wsum += w;
            acc += field[v as usize] * w;
        }
        acc / wsum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_mesh::{generate_airway, AirwaySpec, MeshBuilder};
    use cfpd_testkit::prop::{check, f64_range, usize_range, PropConfig};
    use std::collections::HashMap;

    fn airway() -> cfpd_mesh::AirwayMesh {
        generate_airway(&AirwaySpec::small()).unwrap()
    }

    /// The locator this module replaced, kept as the oracle: every face
    /// plane and element size is recomputed from the node coordinates
    /// on every call, and boundary kinds come from a hash map. It shares
    /// the face-neighbor table and the grid of the locator under test.
    struct Oracle<'a> {
        loc: &'a Locator<'a>,
        boundary: HashMap<(u32, u8), BoundaryKind>,
    }

    impl<'a> Oracle<'a> {
        fn new(loc: &'a Locator<'a>) -> Oracle<'a> {
            let boundary = loc.mesh.boundary.iter().map(|&(e, f, k)| ((e, f), k)).collect();
            Oracle { loc, boundary }
        }

        fn worst_face(&self, e: usize, p: Vec3) -> (f64, usize) {
            let mesh = self.loc.mesh;
            let nodes = mesh.elem_nodes(e);
            let mut worst = (f64::NEG_INFINITY, 0usize);
            for (f, face) in mesh.kinds[e].faces().iter().enumerate() {
                let mut c = Vec3::ZERO;
                for &li in face.iter() {
                    c += mesh.coords[nodes[li] as usize];
                }
                c = c / face.len() as f64;
                let mut n = Vec3::ZERO;
                for k in 0..face.len() {
                    let a = mesh.coords[nodes[face[k]] as usize];
                    let b = mesh.coords[nodes[face[(k + 1) % face.len()]] as usize];
                    n += (a - c).cross(b - c);
                }
                let len = n.norm();
                if len < 1e-30 {
                    continue;
                }
                let d = (p - c).dot(n / len);
                if d > worst.0 {
                    worst = (d, f);
                }
            }
            worst
        }

        fn walk(&self, start: u32, p: Vec3, max_steps: usize) -> WalkResult {
            let mesh = self.loc.mesh;
            let mut e = start as usize;
            let mut prev = usize::MAX;
            for _ in 0..max_steps {
                let (violation, face) = self.worst_face(e, p);
                let h = mesh.volume(e).abs().cbrt();
                if violation <= 1e-9 * h.max(1e-30) + 1e-15 {
                    return WalkResult::Inside(e as u32);
                }
                match self.loc.g.face_neighbors.neighbor(e, face) {
                    Some(next) => {
                        if next as usize == prev {
                            let va = self.worst_face(e, p).0;
                            let vb = self.worst_face(prev, p).0;
                            let best = if va <= vb { e } else { prev };
                            return WalkResult::Inside(best as u32);
                        }
                        prev = e;
                        e = next as usize;
                    }
                    None => {
                        let kind = self
                            .boundary
                            .get(&(e as u32, face as u8))
                            .copied()
                            .unwrap_or(BoundaryKind::Wall);
                        return WalkResult::ExitedBoundary(e as u32, kind);
                    }
                }
            }
            WalkResult::Lost
        }

        fn locate_global(&self, p: Vec3) -> Option<u32> {
            let (loc, mesh) = (self.loc, self.loc.mesh);
            let d = loc.g.grid_dims;
            let at = |x: f64, o: f64, n: usize| (((x - o) / loc.g.grid_cell) as i64).clamp(0, n as i64 - 1);
            let ix = at(p.x, loc.g.grid_origin.x, d[0]);
            let iy = at(p.y, loc.g.grid_origin.y, d[1]);
            let iz = at(p.z, loc.g.grid_origin.z, d[2]);
            let mut best: Option<(f64, u32)> = None;
            for dz in -1..=1i64 {
                for dy in -1..=1i64 {
                    for dx in -1..=1i64 {
                        let (x, y, z) = (ix + dx, iy + dy, iz + dz);
                        if x < 0 || y < 0 || z < 0
                            || x >= d[0] as i64 || y >= d[1] as i64 || z >= d[2] as i64
                        {
                            continue;
                        }
                        let cell = &loc.g.cells[((z as usize) * d[1] + y as usize) * d[0] + x as usize];
                        for &e in cell {
                            let h = mesh.volume(e as usize).abs().cbrt();
                            if self.worst_face(e as usize, p).0 <= 1e-9 * h + 1e-15 {
                                return Some(e);
                            }
                            let dist = mesh.centroid(e as usize).dist(p);
                            if best.is_none() || dist < best.unwrap().0 {
                                best = Some((dist, e));
                            }
                        }
                    }
                }
            }
            match best.map(|(_, e)| self.walk(e, p, 64)) {
                Some(WalkResult::Inside(found)) => Some(found),
                _ => None,
            }
        }
    }

    fn same_bits(a: (f64, usize), b: (f64, usize)) -> bool {
        a.0.to_bits() == b.0.to_bits() && a.1 == b.1
    }

    /// 12 000 random points, each within four element sizes of a random
    /// element's centroid (inside it, in a neighbor, in a junction void
    /// or beyond the wall), each walked to from another random element:
    /// the cached face planes answer `worst_face`, `walk` and
    /// `locate_global` exactly like the recomputing oracle.
    #[test]
    fn cached_planes_equal_the_recomputing_oracle() {
        let am = airway();
        let loc = Locator::new(&am.mesh);
        let oracle = Oracle::new(&loc);
        let ne = am.mesh.num_elements();
        let offset = || f64_range(-4.0, 4.0);
        let gen = (usize_range(0, ne), offset(), offset(), offset(), usize_range(0, ne));
        let (inside, outside) = (std::cell::Cell::new(0usize), std::cell::Cell::new(0usize));
        check("cached locator == oracle", PropConfig::cases(12_000), &gen, |&(near, x, y, z, from)| {
            let p = am.mesh.centroid(near) + Vec3::new(x, y, z) * loc.elem_size(near);
            for e in [near, from] {
                assert!(same_bits(loc.worst_face(e, p), oracle.worst_face(e, p)));
                assert_eq!(loc.walk(e as u32, p, 256), oracle.walk(e as u32, p, 256));
            }
            let found = loc.locate_global(p);
            assert_eq!(found, oracle.locate_global(p));
            let tally = if found.is_some() { &inside } else { &outside };
            tally.set(tally.get() + 1);
        });
        assert!(
            inside.get() > 2_000 && outside.get() > 2_000,
            "lopsided sample: {} inside, {} outside",
            inside.get(),
            outside.get()
        );
    }

    /// A sliver tet with two coincident nodes has two zero-area faces;
    /// both the oracle (`len < 1e-30` → skip) and the cache (NaN normal)
    /// must leave them out and agree on the rest.
    #[test]
    fn degenerate_faces_are_skipped_like_the_oracle() {
        let mut b = MeshBuilder::new();
        let n0 = b.add_node(Vec3::new(0.0, 0.0, 0.0));
        let n1 = b.add_node(Vec3::new(1.0, 0.0, 0.0));
        let n2 = b.add_node(Vec3::new(0.0, 1.0, 0.0));
        let n3 = b.add_node(Vec3::new(0.0, 0.0, 1.0));
        let twin = b.add_node(Vec3::new(0.0, 0.0, 1.0));
        b.add_tet([n0, n1, n2, n3]);
        b.add_tet([n0, n1, n3, twin]);
        let mesh = b.finish();
        let loc = Locator::new(&mesh);
        let oracle = Oracle::new(&loc);
        let first = loc.g.face_neighbors.slot(1, 0);
        let skipped = loc.g.planes[first..first + 4].iter().filter(|pl| pl.normal.x.is_nan()).count();
        assert_eq!(skipped, 2, "faces through both coincident nodes have no area");
        let gen = (f64_range(-0.5, 1.5), f64_range(-0.5, 1.5), f64_range(-0.5, 1.5));
        check("degenerate faces", PropConfig::cases(2_000), &gen, |&(x, y, z)| {
            let p = Vec3::new(x, y, z);
            for e in 0..2 {
                assert!(same_bits(loc.worst_face(e, p), oracle.worst_face(e, p)));
                assert_eq!(loc.walk(e as u32, p, 16), oracle.walk(e as u32, p, 16));
            }
            assert_eq!(loc.locate_global(p), oracle.locate_global(p));
        });
    }

    /// The junction cones of the airway mesh overlap geometrically
    /// (DESIGN.md §7): a point well inside two elements belongs to the
    /// one `locate_global` scans first, whichever centroid is nearer —
    /// the answer of the recomputing oracle, and part of the contract.
    #[test]
    fn overlapping_elements_resolve_to_the_first_in_scan_order() {
        let am = airway();
        let loc = Locator::new(&am.mesh);
        let oracle = Oracle::new(&loc);
        let ne = am.mesh.num_elements();
        let well_inside = |e: usize, p: Vec3| loc.max_face_violation(e, p) < -0.05 * loc.elem_size(e);
        let mut decided_by_order = 0;
        for home in 0..ne {
            let p = am.mesh.centroid(home);
            let holders: Vec<u32> = loc.candidates(p).filter(|&e| well_inside(e as usize, p)).collect();
            if holders.len() < 2 {
                continue;
            }
            assert_eq!(loc.locate_global(p), Some(holders[0]), "centroid of {home} in {holders:?}");
            assert_eq!(oracle.locate_global(p), Some(holders[0]));
            let nearest = holders
                .iter()
                .copied()
                .min_by(|&a, &b| loc.g.centroids[a as usize].dist(p).total_cmp(&loc.g.centroids[b as usize].dist(p)));
            decided_by_order += usize::from(nearest != Some(holders[0]));
        }
        assert!(decided_by_order > 0, "no overlap where scan order and nearest centroid disagree");
    }

    #[test]
    fn centroid_is_inside_own_element() {
        let am = airway();
        let loc = Locator::new(&am.mesh);
        for e in (0..am.mesh.num_elements()).step_by(17) {
            let c = am.mesh.centroid(e);
            let h = am.mesh.volume(e).abs().cbrt();
            assert!(loc.contains(e, c, 1e-9 * h), "centroid of {e} not inside");
        }
    }

    #[test]
    fn walk_finds_neighbor_centroid() {
        let am = airway();
        let loc = Locator::new(&am.mesh);
        let fns = am.mesh.face_neighbors();
        let e = 0usize;
        // Find a neighbor and walk to its centroid.
        let nb = fns.faces(e).iter().flatten().next().copied().unwrap() as usize;
        let target = am.mesh.centroid(nb);
        match loc.walk(e as u32, target, 32) {
            WalkResult::Inside(found) => {
                // Must land on an element containing the target.
                let h = am.mesh.volume(found as usize).abs().cbrt();
                assert!(loc.contains(found as usize, target, 1e-6 * h));
            }
            other => panic!("walk failed: {other:?}"),
        }
    }

    #[test]
    fn walk_far_across_the_mesh() {
        let am = airway();
        let loc = Locator::new(&am.mesh);
        // Walk from element 0 to the centroid of the last element.
        let last = am.mesh.num_elements() - 1;
        let target = am.mesh.centroid(last);
        match loc.walk(0, target, 10_000) {
            WalkResult::Inside(found) => {
                let h = am.mesh.volume(found as usize).abs().cbrt();
                assert!(loc.contains(found as usize, target, 1e-6 * h));
            }
            WalkResult::ExitedBoundary(..) => {
                // Acceptable: the straight-line worst-face walk can exit
                // at a junction rim for very distant targets; global
                // relocation handles it.
                let found = loc.locate_global(target);
                assert!(found.is_some());
            }
            WalkResult::Lost => panic!("walk lost"),
        }
    }

    #[test]
    fn outside_point_exits_via_boundary() {
        let am = airway();
        let loc = Locator::new(&am.mesh);
        // A point far outside the mesh in +x.
        let p = Vec3::new(1.0, 0.0, -0.01);
        match loc.walk(0, p, 10_000) {
            WalkResult::ExitedBoundary(_, kind) => {
                assert!(matches!(kind, BoundaryKind::Wall | BoundaryKind::Inlet));
            }
            other => panic!("expected boundary exit, got {other:?}"),
        }
    }

    #[test]
    fn locate_global_finds_centroids() {
        let am = airway();
        let loc = Locator::new(&am.mesh);
        for e in (0..am.mesh.num_elements()).step_by(37) {
            let c = am.mesh.centroid(e);
            let found = loc.locate_global(c).unwrap_or_else(|| panic!("lost centroid of {e}"));
            let h = am.mesh.volume(found as usize).abs().cbrt();
            assert!(loc.contains(found as usize, c, 1e-6 * h));
        }
    }

    #[test]
    fn locate_global_rejects_far_outside() {
        let am = airway();
        let loc = Locator::new(&am.mesh);
        assert_eq!(loc.locate_global(Vec3::new(10.0, 10.0, 10.0)), None);
    }

    #[test]
    fn interpolation_reproduces_constant_field() {
        let am = airway();
        let loc = Locator::new(&am.mesh);
        let field = vec![Vec3::new(3.0, -1.0, 2.0); am.mesh.num_nodes()];
        let p = am.mesh.centroid(5);
        let v = loc.interpolate(5, p, &field);
        assert!((v - Vec3::new(3.0, -1.0, 2.0)).norm() < 1e-12);
    }
}

//! Locating particles in the unstructured hybrid mesh: a face-plane
//! containment test, a neighbor-walk search, and a uniform-grid global
//! fallback for injection and lost particles.

use cfpd_mesh::{BoundaryKind, FaceNeighbors, Mesh, Vec3};
use std::sync::{Arc, OnceLock};

/// Sub-boxes per grid-cell edge: [`Locator::locate_global`] scans the
/// candidate list of one of a cell's `K³` sub-boxes. A power of two, so
/// that `K·t` is exact in [`LocatorGeometry::cell_of`].
const K: usize = 8;
const SUB_BOXES: usize = K * K * K;
/// Elements per block of face planes: [`LocatorGeometry::planes`] builds
/// the planes of a block's elements together, the first time it reads one.
const PLANE_BLOCK: usize = 64;

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
    let at = |k: usize| coords[nodes[face[k]] as usize];
    let c = (0..face.len()).fold(Vec3::ZERO, |c, k| c + at(k)) / face.len() as f64;
    let n = (0..face.len()).fold(Vec3::ZERO, |n, k| n + (at(k) - c).cross(at((k + 1) % face.len()) - c));
    let len = n.norm();
    let normal = if len < 1e-30 { Vec3::new(f64::NAN, f64::NAN, f64::NAN) } else { n / len };
    FacePlane { centroid: c, normal }
}

/// What a [`Locator`] knows of a mesh: face neighbors and element sizes
/// (tables it shares), face planes, boundary classification and a uniform
/// grid over element centroids for global lookups. Owns no reference to the
/// mesh, so one geometry serves every locator over it; what it builds on
/// first use (face planes, candidate lists) it reads from the mesh of the
/// locator that asks.
pub struct LocatorGeometry {
    face_neighbors: Arc<FaceNeighbors>,
    /// Per block of [`PLANE_BLOCK`] elements, the planes of their face
    /// slots in slot order, built by the first query that reads one of
    /// them, on whichever thread asks ([`LocatorGeometry::planes`]).
    planes: Vec<OnceLock<Box<[FacePlane]>>>,
    /// Per face slot of `face_neighbors`.
    boundary: Vec<Option<BoundaryKind>>,
    /// Characteristic size (volume cube root) per element.
    size: Arc<[f64]>,
    /// Centroid per element.
    centroids: Vec<Vec3>,
    // Uniform grid acceleration structure.
    grid_origin: Vec3,
    grid_cell: f64,
    grid_dims: [usize; 3],
    /// The elements binned by centroid: cell `c` holds
    /// `cell_ids[cell_offsets[c]..cell_offsets[c + 1]]`, in element order.
    cell_offsets: Vec<u32>,
    cell_ids: Vec<u32>,
    /// Per cell, the candidate lists of its sub-boxes
    /// ([`LocatorGeometry::sub_box_list`]): the array is allocated by the
    /// first query that lands in the cell and each list built by the
    /// first that lands in its sub-box, on whichever thread asks.
    sub_box_lists: Vec<OnceLock<Box<[OnceLock<Box<[u32]>>]>>>,
}

/// Mesh locator: a mesh and its [`LocatorGeometry`].
pub struct Locator<'m> {
    mesh: &'m Mesh,
    g: Arc<LocatorGeometry>,
}

impl LocatorGeometry {
    /// The geometry of `mesh` on two tables built elsewhere and shared:
    /// its face neighbors (`mesh.face_neighbors()`) and its element sizes
    /// (`mesh.element_sizes()`).
    pub fn new(mesh: &Mesh, face_neighbors: Arc<FaceNeighbors>, size: Arc<[f64]>) -> Self {
        let boundary = mesh.boundary_table(&face_neighbors);
        let centroids: Vec<Vec3> = (0..mesh.num_elements()).map(|e| mesh.centroid(e)).collect();
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
        let dims = [extent.x, extent.y, extent.z].map(|x| ((x / cell).ceil() as usize).max(1));
        let num_cells = dims[0] * dims[1] * dims[2];
        let mut g = LocatorGeometry {
            face_neighbors,
            planes: (0..mesh.num_elements().div_ceil(PLANE_BLOCK)).map(|_| OnceLock::new()).collect(),
            boundary,
            size,
            centroids,
            grid_origin: lo,
            grid_cell: cell,
            grid_dims: dims,
            cell_offsets: vec![0; num_cells + 1],
            cell_ids: vec![0; mesh.num_elements()],
            sub_box_lists: (0..num_cells).map(|_| OnceLock::new()).collect(),
        };
        // A counting sort keeps element order within a cell.
        let bins: Vec<usize> = g.centroids.iter().map(|&c| g.linear(g.cell_of(c).0)).collect();
        for &b in &bins {
            g.cell_offsets[b + 1] += 1;
        }
        for b in 0..num_cells {
            g.cell_offsets[b + 1] += g.cell_offsets[b];
        }
        let mut next = g.cell_offsets.clone();
        for (e, &b) in bins.iter().enumerate() {
            g.cell_ids[next[b] as usize] = e as u32;
            next[b] += 1;
        }
        g
    }

    /// The grid cell of `p`, clamped to the grid, and the sub-box of the
    /// cell that `p` falls in (`0..SUB_BOXES`, x fastest) — the one index
    /// arithmetic of the grid. The cell is `⌊(x − origin) / cell⌋` clamped
    /// (`⌊Kt⌋ div K = ⌊t⌋`, and Kt is exact); `as usize` saturates, so
    /// negative and NaN coordinates land in cell 0.
    fn cell_of(&self, p: Vec3) -> ([usize; 3], usize) {
        let (o, mut cell, mut sub) = (self.grid_origin, [0; 3], 0);
        for (a, x) in [(2, p.z - o.z), (1, p.y - o.y), (0, p.x - o.x)] {
            let fine = ((x / self.grid_cell * K as f64) as usize).min(K * self.grid_dims[a] - 1);
            (cell[a], sub) = (fine / K, sub * K + fine % K);
        }
        (cell, sub)
    }

    fn linear(&self, cell: [usize; 3]) -> usize {
        (cell[2] * self.grid_dims[1] + cell[1]) * self.grid_dims[0] + cell[0]
    }

    /// The elements binned in cell `c`.
    fn cell(&self, c: usize) -> &[u32] {
        &self.cell_ids[self.cell_offsets[c] as usize..self.cell_offsets[c + 1] as usize]
    }

    /// The elements binned in `cell` and its up to 26 neighbors, cell by
    /// cell in z, y, x order and in element order within a cell — the
    /// scan order of [`Locator::locate_global`].
    fn candidates(&self, cell: [usize; 3]) -> impl Iterator<Item = u32> + '_ {
        let d = self.grid_dims;
        let around = |a: usize| cell[a].saturating_sub(1)..(cell[a] + 2).min(d[a]);
        let (xs, ys) = (around(0), around(1));
        around(2)
            .flat_map(move |z| ys.clone().map(move |y| z * d[1] + y))
            .flat_map(move |zy| xs.clone().map(move |x| self.cell(zy * d[0] + x)))
            .flatten()
            .copied()
    }

    /// The face planes of element `e` of `mesh`, in local face order.
    #[inline]
    fn planes(&self, mesh: &Mesh, e: usize) -> &[FacePlane] {
        let (fnb, b) = (&*self.face_neighbors, e / PLANE_BLOCK);
        let block = match self.planes[b].get() {
            Some(block) => block,
            None => self.plane_block(mesh, b),
        };
        let at = fnb.slot(e, 0) - fnb.slot(b * PLANE_BLOCK, 0);
        &block[at..at + fnb.faces(e).len()]
    }

    /// Block `b` of the face planes, built here by the first query that
    /// reads one of its elements (another thread may win the race).
    #[cold]
    fn plane_block(&self, mesh: &Mesh, b: usize) -> &[FacePlane] {
        self.planes[b].get_or_init(|| {
            cfpd_telemetry::count!("particles.locator_plane_blocks_built");
            let fnb = &*self.face_neighbors;
            let (first, end) = (b * PLANE_BLOCK, ((b + 1) * PLANE_BLOCK).min(mesh.num_elements()));
            let mut planes = Vec::with_capacity(fnb.slot(end, 0) - fnb.slot(first, 0));
            for e in first..end {
                let nodes = mesh.elem_nodes(e);
                planes.extend(mesh.kinds[e].faces().iter().map(|f| face_plane(&mesh.coords, nodes, f)));
            }
            planes.into_boxed_slice()
        })
    }

    /// Whether a face distance of `e` at `at(normal)` exceeds `1e-9·h +
    /// 1e-15` — at `|_| p`, exactly `!contains` (NaN planes exceed nothing).
    fn beyond_a_face(&self, mesh: &Mesh, e: usize, at: impl Fn(Vec3) -> Vec3) -> bool {
        let eps = 1e-9 * self.size[e] + 1e-15;
        self.planes(mesh, e).iter().any(|pl| (at(pl.normal) - pl.centroid).dot(pl.normal) > eps)
    }

    /// Sub-box `sub` of `cell`, `[low, high]` per axis, inflated by
    /// `1e-6` cell on every side (more than the rounding of
    /// [`LocatorGeometry::cell_of`] and of these bounds while coordinates
    /// stay within 10⁹ cells of zero) and unbounded where `cell_of` clamps.
    fn sub_box(&self, cell: [usize; 3], sub: usize) -> [[f64; 2]; 3] {
        let (o, h) = ([self.grid_origin.x, self.grid_origin.y, self.grid_origin.z], self.grid_cell);
        std::array::from_fn(|a| {
            let fine = cell[a] * K + sub / K.pow(a as u32) % K;
            let at = |f: usize, slack: f64| o[a] + f as f64 / K as f64 * h + slack * h;
            let lo = if fine == 0 { f64::NEG_INFINITY } else { at(fine, -1e-6) };
            let hi = if fine + 1 == K * self.grid_dims[a] { f64::INFINITY } else { at(fine + 1, 1e-6) };
            [lo, hi]
        })
    }

    /// The candidate list of sub-box `b` of `cell`: the scan of
    /// [`LocatorGeometry::candidates`] minus every element with a face
    /// distance above its tolerance at the box corner that minimises it
    /// (per axis the low bound where `n ≥ 0`, else the high one). The
    /// computed `(p − c)·n` is subtractions, multiplications by
    /// fixed-sign constants and additions, each monotone under IEEE
    /// rounding, so no finite point of the box reads less than that
    /// corner: a dropped element fails pass 1 all over the box, and the
    /// list's first hit is the scan's. An infinite corner (`−∞` or NaN) or
    /// a degenerate face (NaN) never drops anything.
    fn sub_box_list(&self, mesh: &Mesh, cell: [usize; 3], b: [[f64; 2]; 3]) -> Box<[u32]> {
        let side = |n: f64| usize::from(n < 0.0);
        let corner = |n: Vec3| Vec3::new(b[0][side(n.x)], b[1][side(n.y)], b[2][side(n.z)]);
        cfpd_telemetry::count!("particles.locator_lists_built");
        self.candidates(cell).filter(|&e| !self.beyond_a_face(mesh, e as usize, corner)).collect()
    }

    /// The candidate list of the sub-box of `cell` that holds `p`, or
    /// `None` when `p` is not finite or (rounding beyond the inflation)
    /// not inside that box — then the caller scans the whole
    /// neighbourhood, so the list is never trusted outside its box.
    fn sub_box_candidates(&self, mesh: &Mesh, cell: [usize; 3], sub: usize, p: Vec3) -> Option<&[u32]> {
        let (b, x) = (self.sub_box(cell, sub), [p.x, p.y, p.z]);
        if !(0..3).all(|a| x[a].is_finite() && b[a][0] <= x[a] && x[a] <= b[a][1]) {
            return None;
        }
        let lists = self.sub_box_lists[self.linear(cell)].get_or_init(|| {
            cfpd_telemetry::count!("particles.locator_cells_built");
            (0..SUB_BOXES).map(|_| OnceLock::new()).collect()
        });
        Some(lists[sub].get_or_init(|| self.sub_box_list(mesh, cell, b)))
    }
}

impl<'m> Locator<'m> {
    /// A locator on a geometry of its own, both tables built here.
    pub fn new(mesh: &'m Mesh) -> Locator<'m> {
        let (faces, sizes) = (Arc::new(mesh.face_neighbors()), mesh.element_sizes().into());
        Locator::with_geometry(mesh, Arc::new(LocatorGeometry::new(mesh, faces, sizes)))
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
        self.worst_face(e, p).0 <= eps
    }

    /// Largest signed distance of `p` beyond any face plane of `e`
    /// (negative = strictly inside) and the face index achieving it.
    fn worst_face(&self, e: usize, p: Vec3) -> (f64, usize) {
        let mut worst = (f64::NEG_INFINITY, 0usize);
        for (f, plane) in self.g.planes(self.mesh, e).iter().enumerate() {
            let d = (p - plane.centroid).dot(plane.normal);
            if d > worst.0 {
                worst = (d, f);
            }
        }
        worst
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
                        let best = if violation <= self.worst_face(prev, p).0 { e } else { prev };
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

    /// Global search via the uniform grid (used at injection and to
    /// recover lost particles). Returns the containing element, if any:
    /// the **first in scan order** ([`LocatorGeometry::candidates`]) that
    /// contains `p`. Where elements overlap geometrically — the junction
    /// cones of the airway mesh do (DESIGN.md §7) — that order decides
    /// which one a particle lands in, so it is part of the result.
    pub fn locate_global(&self, p: Vec3) -> Option<u32> {
        let g = &*self.g;
        let (cell, sub) = g.cell_of(p);
        // Pass 1, all an injection ever runs: the first candidate with no
        // face distance above eps, each left at its first violated face,
        // over the sub-box's list — a subsequence of the scan that drops
        // only elements failing this test everywhere in the box.
        let inside = |&&e: &&u32| !g.beyond_a_face(self.mesh, e as usize, |_| p);
        let found = match g.sub_box_candidates(self.mesh, cell, sub, p) {
            Some(list) => list.iter().find(inside).copied(),
            None => g.candidates(cell).find(|e| inside(&e)),
        };
        if found.is_some() {
            return found;
        }
        // Pass 2, on a miss: walk from the nearest centroid of the whole
        // neighbourhood (the first of equally near ones).
        let nearest = g.candidates(cell)
            .map(|e| (g.centroids[e as usize].dist(p), e))
            .reduce(|best, next| if next.0 < best.0 { next } else { best });
        match nearest.map(|(_, e)| self.walk(e, p, 64)) {
            Some(WalkResult::Inside(found)) => Some(found),
            _ => None,
        }
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

        /// The full 27-cell scan, in z, y, x and in-cell order, with the
        /// index arithmetic of the grid before sub-boxes: the first
        /// element containing `p`, else a walk from the nearest centroid.
        fn locate_global(&self, p: Vec3) -> Option<u32> {
            let (g, mesh) = (&self.loc.g, self.loc.mesh);
            let n = g.grid_dims.map(|n| n as i64);
            let at = |x: f64, o: f64, n: i64| (((x - o) / g.grid_cell) as i64).clamp(0, n - 1);
            let c = [at(p.x, g.grid_origin.x, n[0]), at(p.y, g.grid_origin.y, n[1]), at(p.z, g.grid_origin.z, n[2])];
            let mut scan = Vec::new();
            for z in (c[2] - 1..=c[2] + 1).filter(|z| (0..n[2]).contains(z)) {
                for y in (c[1] - 1..=c[1] + 1).filter(|y| (0..n[1]).contains(y)) {
                    for x in (c[0] - 1..=c[0] + 1).filter(|x| (0..n[0]).contains(x)) {
                        scan.extend_from_slice(g.cell(((z * n[1] + y) * n[0] + x) as usize));
                    }
                }
            }
            let h = |e: u32| mesh.volume(e as usize).abs().cbrt();
            if let Some(&e) = scan.iter().find(|&&e| self.worst_face(e as usize, p).0 <= 1e-9 * h(e) + 1e-15) {
                return Some(e);
            }
            let nearest = scan.into_iter().map(|e| (mesh.centroid(e as usize).dist(p), e));
            match nearest.reduce(|best, next| if next.0 < best.0 { next } else { best }).map(|(_, e)| self.walk(e, p, 64)) {
                Some(WalkResult::Inside(found)) => Some(found),
                _ => None,
            }
        }
    }

    fn same_bits(a: (f64, usize), b: (f64, usize)) -> bool {
        a.0.to_bits() == b.0.to_bits() && a.1 == b.1
    }

    fn bits(v: &Vec3) -> [u64; 3] {
        [v.x, v.y, v.z].map(f64::to_bits)
    }

    fn plane_bits(p: &FacePlane) -> ([u64; 3], [u64; 3]) {
        (bits(&p.centroid), bits(&p.normal))
    }

    /// Every block forced, in an order that starts mid-mesh: each face of
    /// each element has the bits of a `face_plane` computed for it alone,
    /// NaN normals of degenerate faces included, and every block is built.
    fn assert_forced_planes_are_face_planes(mesh: &Mesh) -> usize {
        let loc = Locator::new(mesh);
        let ne = mesh.num_elements();
        assert!(loc.g.planes.iter().all(|b| b.get().is_none()), "a new geometry builds no plane");
        for e in (ne / 2..ne).chain(0..ne / 2) {
            let (nodes, faces) = (mesh.elem_nodes(e), mesh.kinds[e].faces());
            let direct: Vec<_> = faces.iter().map(|f| plane_bits(&face_plane(&mesh.coords, nodes, f))).collect();
            assert_eq!(loc.g.planes(mesh, e).iter().map(plane_bits).collect::<Vec<_>>(), direct, "element {e}");
        }
        assert!(loc.g.planes.iter().all(|b| b.get().is_some()));
        loc.g.planes.len()
    }

    #[test]
    fn forced_plane_blocks_hold_the_planes_computed_one_by_one() {
        let am = airway();
        assert_eq!(am.mesh.num_elements(), 4_184);
        assert_eq!(assert_forced_planes_are_face_planes(&am.mesh), 66);
        let mut b = MeshBuilder::new();
        let n: Vec<u32> = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 1.0)]
            .map(|(x, y, z)| b.add_node(Vec3::new(x, y, z)))
            .into();
        b.add_tet([n[0], n[1], n[2], n[3]]);
        b.add_tet([n[0], n[1], n[3], n[4]]);
        assert_eq!(assert_forced_planes_are_face_planes(&b.finish()), 1, "the sliver's NaN normals too");
    }

    /// 16 000 random points where the cached face planes or the pruned
    /// scan could go wrong, each walked to from another random element
    /// and located globally: within four element sizes of a random
    /// element's centroid (inside it, in a neighbor, in a junction void or
    /// beyond the wall); a centroid snapped onto the sub-box boundaries,
    /// or onto the cell faces alone, of one to three axes, or one ulp off
    /// them; up to two
    /// cells beyond one of the grid's six sides; with a ±∞ or NaN
    /// coordinate. Before them, 2 000 points over the inlet disc drawn as
    /// `inject_at_inlet` draws them. `worst_face`, `walk` and
    /// `locate_global` answer exactly like the recomputing oracle and its
    /// full 27-cell scan, and every sub-box list built on the way (one per
    /// sub-box a query landed in) is a subsequence of that scan.
    #[test]
    fn cached_planes_equal_the_recomputing_oracle() {
        let am = airway();
        let loc = Locator::new(&am.mesh);
        let oracle = Oracle::new(&loc);
        let (g, ne) = (&*loc.g, am.mesh.num_elements());
        for p in crate::tracker::inlet_points(am.inlet_center, am.inlet_direction, am.inlet_radius, 11).take(2_000) {
            assert_eq!(loc.locate_global(p), oracle.locate_global(p), "inlet point {p:?}");
        }
        let (o, h) = ([g.grid_origin.x, g.grid_origin.y, g.grid_origin.z], g.grid_cell);
        let offset = || f64_range(-4.0, 4.0);
        let gen = (usize_range(0, ne), offset(), offset(), offset(), usize_range(0, ne), usize_range(0, 7), usize_range(0, 21));
        let tally = [(); 3].map(|_| std::cell::Cell::new(0usize));
        check("cached locator == oracle", PropConfig::cases(16_000), &gen, |&(near, x, y, z, from, kind, pick)| {
            let c = am.mesh.centroid(near);
            let mut q = [c.x, c.y, c.z];
            match kind {
                4 => {
                    let per_cell = if near % 2 == 0 { K as f64 } else { 1.0 };
                    for a in (0..3).filter(|a| (pick % 7 + 1) >> a & 1 == 1) {
                        let on = o[a] + ((q[a] - o[a]) / h * per_cell).round() / per_cell * h;
                        q[a] = [on.next_down(), on, on.next_up()][pick / 7];
                    }
                }
                5 => {
                    let (a, out) = (pick % 3, x.abs() / 2.0 * h);
                    q[a] = if pick / 3 % 2 == 0 { o[a] - out } else { o[a] + g.grid_dims[a] as f64 * h + out };
                }
                6 => q[pick % 3] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][pick / 7],
                _ => q = [c.x + x * loc.elem_size(near), c.y + y * loc.elem_size(near), c.z + z * loc.elem_size(near)],
            }
            let p = Vec3::new(q[0], q[1], q[2]);
            for e in [near, from] {
                assert!(same_bits(loc.worst_face(e, p), oracle.worst_face(e, p)));
                assert_eq!(loc.walk(e as u32, p, 256), oracle.walk(e as u32, p, 256));
            }
            let found = loc.locate_global(p);
            assert_eq!(found, oracle.locate_global(p));
            if let Some(i) = match kind { 0..=3 => Some(usize::from(found.is_some())), 4 => found.map(|_| 2), _ => None } {
                tally[i].set(tally[i].get() + 1);
            }
        });
        let [outside, inside, on_boundaries] = tally.map(|t| t.get());
        assert!(inside > 2_000 && outside > 2_000, "lopsided sample: {inside} inside, {outside} outside");
        assert!(on_boundaries > 1_000, "only {on_boundaries} boundary points inside the mesh");
        // Every list the sample built is a subsequence of its cell's scan,
        // and together they keep under a quarter of it.
        let ([nx, ny, _], (mut kept, mut scanned)) = (g.grid_dims, (0, 0));
        let touched = g.sub_box_lists.iter().enumerate().filter_map(|(c, l)| Some((c, l.get()?)));
        for (c, lists) in touched {
            let around: Vec<u32> = g.candidates([c % nx, c / nx % ny, c / (nx * ny)]).collect();
            for list in lists.iter().filter_map(OnceLock::get) {
                let mut rest = around.iter();
                assert!(list.iter().all(|e| rest.any(|a| a == e)), "cell {c}");
                (kept, scanned) = (kept + list.len(), scanned + around.len());
            }
        }
        assert!(kept * 4 < scanned && scanned > 100_000, "lists keep {kept} of {scanned} candidates");
    }

    /// A sliver tet with two coincident nodes has two zero-area faces;
    /// both the oracle (`len < 1e-30` → skip) and the cache (NaN normal)
    /// must leave them out and agree on the rest — also through the
    /// pruned scan, and at ±∞ and NaN coordinates, where the sliver's
    /// axis-aligned faces (zero normal components) make a distance NaN.
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
        let skipped = loc.g.planes(&mesh, 1).iter().filter(|pl| pl.normal.x.is_nan()).count();
        assert_eq!(skipped, 2, "faces through both coincident nodes have no area");
        let gen = (f64_range(-0.5, 1.5), f64_range(-0.5, 1.5), f64_range(-0.5, 1.5), usize_range(0, 18));
        check("degenerate faces", PropConfig::cases(2_000), &gen, |&(x, y, z, odd)| {
            let mut p = [x, y, z];
            if let Some(v) = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN].get(odd / 3) {
                p[odd % 3] = *v;
            }
            let p = Vec3::new(p[0], p[1], p[2]);
            for e in 0..2 {
                assert!(same_bits(loc.worst_face(e, p), oracle.worst_face(e, p)));
                assert_eq!(loc.walk(e as u32, p, 16), oracle.walk(e as u32, p, 16));
            }
            assert_eq!(loc.locate_global(p), oracle.locate_global(p));
        });
        // The queries went through the pruned path, and it pruned: some
        // sub-box list of the one cell holds fewer than both elements.
        let lists = loc.g.sub_box_lists[0].get().expect("the one cell was queried");
        let pruned = lists.iter().filter_map(OnceLock::get).any(|l| l.len() < 2);
        assert!(pruned, "no sub-box dropped an element");
    }

    /// Two threads inject 10 000 particles each through one fresh
    /// geometry, released together, racing to build its cells: both get the
    /// positions and elements of a serial injection through the oracle.
    #[test]
    fn concurrent_injections_through_one_geometry_match_the_oracle() {
        let am = airway();
        let geometry = Arc::clone(&Locator::new(&am.mesh).g);
        let (center, dir, radius) = (am.inlet_center, am.inlet_direction, am.inlet_radius);
        let start = std::sync::Barrier::new(2);
        let inject = || {
            let (loc, mut set) = (Locator::with_geometry(&am.mesh, geometry.clone()), crate::ParticleSet::default());
            start.wait();
            crate::inject_at_inlet(&mut set, &loc, center, dir, radius, 1.0, Default::default(), 10_000, 42);
            (set.pos, set.elem)
        };
        let sets = std::thread::scope(|s| [s.spawn(inject), s.spawn(inject)].map(|t| t.join().unwrap()));
        let loc = Locator::new(&am.mesh);
        let oracle = Oracle::new(&loc);
        let serial: (Vec<Vec3>, Vec<u32>) = crate::tracker::inlet_points(center, dir, radius, 42)
            .take(10_000)
            .filter_map(|p| Some((p, oracle.locate_global(p)?)))
            .unzip();
        assert_eq!(sets, [serial.clone(), serial]);
    }

    /// A geometry on the generator's face table and the shared size table
    /// is, field by field, the one `Locator::new` builds from the mesh
    /// alone — after a node renumbering too: both tables are
    /// element-indexed.
    #[test]
    fn a_geometry_on_shared_tables_equals_the_one_built_alone() {
        let mut am = generate_airway(&AirwaySpec { generations: 3, ..AirwaySpec::small() }).unwrap();
        let n = am.mesh.num_nodes() as u32;
        am.mesh.renumber_nodes(&(0..n).rev().collect::<Vec<u32>>());
        let sizes: Arc<[f64]> = am.mesh.element_sizes().into();
        let shared = LocatorGeometry::new(&am.mesh, Arc::clone(&am.face_neighbors), sizes);
        let alone = Locator::new(&am.mesh);
        let g = &*alone.g;
        let forced = |g: &LocatorGeometry| {
            let all = (0..am.mesh.num_elements()).flat_map(|e| g.planes(&am.mesh, e).iter());
            all.map(plane_bits).collect::<Vec<_>>()
        };
        assert_eq!(shared.face_neighbors, g.face_neighbors);
        assert_eq!(forced(&shared), forced(g));
        assert_eq!(shared.boundary, g.boundary);
        assert_eq!(shared.size.iter().map(|h| h.to_bits()).collect::<Vec<_>>(), g.size.iter().map(|h| h.to_bits()).collect::<Vec<_>>());
        assert_eq!(shared.centroids.iter().map(bits).collect::<Vec<_>>(), g.centroids.iter().map(bits).collect::<Vec<_>>());
        assert_eq!((bits(&shared.grid_origin), shared.grid_cell.to_bits(), shared.grid_dims), (bits(&g.grid_origin), g.grid_cell.to_bits(), g.grid_dims));
        assert_eq!((&shared.cell_offsets, &shared.cell_ids), (&g.cell_offsets, &g.cell_ids));
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
        let well_inside = |e: usize, p: Vec3| loc.worst_face(e, p).0 < -0.05 * loc.elem_size(e);
        let mut decided_by_order = 0;
        for home in 0..ne {
            let p = am.mesh.centroid(home);
            let holders: Vec<u32> = loc.g.candidates(loc.g.cell_of(p).0).filter(|&e| well_inside(e as usize, p)).collect();
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

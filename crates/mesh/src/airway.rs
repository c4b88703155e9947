//! Parametric generator of a human-airway-like bronchial tree mesh.
//!
//! The paper's mesh is a subject-specific geometry "extended from the
//! face to the 7th branch generation of the bronchopulmonary tree" with
//! 17.7 M hybrid elements. We cannot ship patient CT data, so this
//! module generates a *parametric* bronchial tree with the same
//! topological character: a trachea bifurcating recursively with
//! physiological radius/length ratios (Weibel-like), hybrid elements
//! (prism boundary layers, tet cores, pyramid junction transitions), a
//! single inlet where all particles enter (the cause of the particle
//! phase's extreme load imbalance, §2.2), and distal outlets.
//!
//! Element count scales from O(10³) (tests) to O(10⁶) with the
//! resolution parameters.

use crate::builder::MeshBuilder;
use crate::element::BoundaryKind;
use crate::geom::{Frame, Vec3};
use crate::mesh::{FaceNeighbors, Mesh};
use crate::tube::{fill_cap_to_hub, mesh_tube, CapFaces, TubeParams};
use std::sync::Arc;

/// Errors from airway generation parameter validation.
#[derive(Debug, Clone, PartialEq)]
pub enum MeshError {
    /// A parameter is out of its valid range; the message names it.
    InvalidParameter(String),
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshError::InvalidParameter(m) => write!(f, "invalid mesh parameter: {m}"),
        }
    }
}

impl std::error::Error for MeshError {}

/// Full specification of the airway tree mesh.
#[derive(Debug, Clone)]
pub struct AirwaySpec {
    /// Bifurcation generations below the trachea (the paper uses 7).
    pub generations: usize,
    /// Cross-section / boundary-layer resolution.
    pub tube: TubeParams,
    /// Axial segments per unit of local radius (controls element count).
    pub axial_segments_per_radius: f64,
    /// Trachea wall radius (m). Human trachea ≈ 9 mm.
    pub trachea_radius: f64,
    /// Trachea length (m). Human ≈ 0.12 m.
    pub trachea_length: f64,
    /// Child/parent radius ratio (Weibel model ≈ 2^(-1/3) ≈ 0.79).
    pub radius_ratio: f64,
    /// Child/parent length ratio.
    pub length_ratio: f64,
    /// Half-angle between the two children at a bifurcation (degrees).
    pub branch_angle_deg: f64,
    /// Taper of each tube (end radius / start radius).
    pub taper: f64,
}

impl Default for AirwaySpec {
    fn default() -> Self {
        AirwaySpec {
            generations: 4,
            tube: TubeParams::default(),
            axial_segments_per_radius: 2.0,
            trachea_radius: 0.009,
            trachea_length: 0.12,
            radius_ratio: 0.79,
            length_ratio: 0.8,
            branch_angle_deg: 35.0,
            taper: 0.95,
        }
    }
}

impl AirwaySpec {
    /// Tiny mesh for unit tests (O(10³) elements).
    pub fn small() -> Self {
        AirwaySpec {
            generations: 2,
            tube: TubeParams {
                n_theta: 8,
                n_bl_layers: 1,
                n_core_rings: 1,
                ..TubeParams::default()
            },
            axial_segments_per_radius: 1.0,
            ..Default::default()
        }
    }

    /// Validate all parameters, returning a descriptive error for the
    /// first violation found.
    pub fn validate(&self) -> Result<(), MeshError> {
        let err = |m: &str| Err(MeshError::InvalidParameter(m.to_string()));
        if self.tube.n_theta < 3 {
            return err("n_theta must be >= 3");
        }
        if self.tube.n_bl_layers < 1 {
            return err("n_bl_layers must be >= 1");
        }
        if self.tube.n_core_rings < 1 {
            return err("n_core_rings must be >= 1");
        }
        if !(self.tube.bl_thickness_frac > 0.0 && self.tube.bl_thickness_frac < 0.9) {
            return err("bl_thickness_frac must be in (0, 0.9)");
        }
        if self.tube.bl_growth <= 0.0 {
            return err("bl_growth must be positive");
        }
        if self.generations > 10 {
            return err("generations must be <= 10 (2^10 tubes already huge)");
        }
        if self.trachea_radius <= 0.0 || self.trachea_length <= 0.0 {
            return err("trachea dimensions must be positive");
        }
        if !(self.radius_ratio > 0.3 && self.radius_ratio < 1.0) {
            return err("radius_ratio must be in (0.3, 1.0)");
        }
        if !(self.length_ratio > 0.3 && self.length_ratio <= 1.0) {
            return err("length_ratio must be in (0.3, 1.0]");
        }
        if !(self.branch_angle_deg > 5.0 && self.branch_angle_deg < 80.0) {
            return err("branch_angle_deg must be in (5, 80)");
        }
        if !(self.taper > 0.5 && self.taper <= 1.0) {
            return err("taper must be in (0.5, 1.0]");
        }
        if self.axial_segments_per_radius <= 0.0 {
            return err("axial_segments_per_radius must be positive");
        }
        Ok(())
    }
}

/// Generated airway mesh plus the metadata needed by the particle
/// injector and the simulation boundary conditions.
#[derive(Debug)]
pub struct AirwayMesh {
    pub mesh: Mesh,
    /// Center of the inlet disc (trachea/mouth opening).
    pub inlet_center: Vec3,
    /// Inlet disc radius.
    pub inlet_radius: f64,
    /// Unit inflow direction (points into the airway).
    pub inlet_direction: Vec3,
    /// Number of tubes (branches) in the tree.
    pub num_tubes: usize,
    /// Number of bifurcation junctions filled.
    pub num_junctions: usize,
    /// Branch generation of each element (0 = trachea; junction fills
    /// carry their parent tube's generation). Enables per-generation
    /// deposition maps.
    pub elem_generation: Vec<u16>,
    /// The mesh's face-neighbor table, built once to classify the
    /// boundary. Element-indexed, so a node renumbering leaves it valid.
    pub face_neighbors: Arc<FaceNeighbors>,
}

/// Generate the airway tree mesh from `spec`.
pub fn generate_airway(spec: &AirwaySpec) -> Result<AirwayMesh, MeshError> {
    spec.validate()?;
    let mut b = MeshBuilder::new();
    let (mut inlet_nodes, mut outlet_nodes) = (Vec::new(), Vec::new());
    let mut num_tubes = 0usize;
    let mut num_junctions = 0usize;
    let mut gen_ranges: Vec<(std::ops::Range<u32>, u16)> = Vec::new();

    // Trachea: points "down" (-z), inlet at the origin.
    let root_frame = Frame::from_tangent(Vec3::new(0.0, 0.0, -1.0));
    let nz = ((spec.trachea_length / spec.trachea_radius) * spec.axial_segments_per_radius)
        .round()
        .max(1.0) as usize;
    let root = mesh_tube(
        &mut b,
        &spec.tube,
        Vec3::ZERO,
        root_frame,
        spec.trachea_length,
        spec.trachea_radius,
        spec.trachea_radius * spec.taper,
        nz,
    );
    num_tubes += 1;
    gen_ranges.push((root.elem_range.clone(), 0));
    let inlet_cap: CapFaces = root.start_cap.clone();
    inlet_nodes.extend(inlet_cap.all_nodes.iter().copied());

    if spec.generations == 0 {
        outlet_nodes.extend(root.end_cap.all_nodes.iter().copied());
    } else {
        branch_children(
            &mut b,
            spec,
            &root.end_cap,
            root_frame,
            spec.trachea_radius * spec.taper,
            spec.trachea_length,
            0,
            &mut outlet_nodes,
            &mut num_tubes,
            &mut num_junctions,
            &mut gen_ranges,
        );
    }

    let mut mesh = b.finish();
    let face_neighbors = Arc::new(classify_boundary(&mut mesh, &inlet_nodes, &outlet_nodes));
    let mut elem_generation = vec![0u16; mesh.num_elements()];
    for (range, g) in gen_ranges {
        for e in range {
            elem_generation[e as usize] = g;
        }
    }

    Ok(AirwayMesh {
        inlet_center: inlet_cap.center,
        inlet_radius: inlet_cap.radius,
        inlet_direction: -inlet_cap.outward,
        num_tubes,
        num_junctions,
        elem_generation,
        mesh,
        face_neighbors,
    })
}

/// Recursively attach two children to the end cap of an already-meshed
/// parent tube.
#[allow(clippy::too_many_arguments)]
fn branch_children(
    b: &mut MeshBuilder,
    spec: &AirwaySpec,
    parent_end: &CapFaces,
    parent_frame: Frame,
    parent_end_radius: f64,
    parent_length: f64,
    parent_generation: usize,
    outlet_nodes: &mut Vec<u32>,
    num_tubes: &mut usize,
    num_junctions: &mut usize,
    gen_ranges: &mut Vec<(std::ops::Range<u32>, u16)>,
) {
    let angle = spec.branch_angle_deg.to_radians();
    let hub_pos = parent_end.center + parent_frame.t * (parent_end_radius * 0.9);
    let hub = b.add_node(hub_pos);
    let fill = fill_cap_to_hub(b, parent_end, hub);
    gen_ranges.push((fill, parent_generation as u16));
    *num_junctions += 1;

    let child_radius = parent_end_radius * spec.radius_ratio;
    let child_length = parent_length * spec.length_ratio;
    let plane_frame = {
        let rot = std::f64::consts::FRAC_PI_2 * parent_generation as f64;
        let u = parent_frame.u.rotate_about(parent_frame.t, rot);
        let v = parent_frame.t.cross(u);
        Frame { t: parent_frame.t, u, v }
    };
    for sign in [-1.0, 1.0] {
        let dir =
            (plane_frame.t * angle.cos() + plane_frame.u * (sign * angle.sin())).normalized();
        let child_frame = plane_frame.transport_to(dir);
        let child_start = hub_pos + dir * (child_radius * 0.9);
        let nz = ((child_length / child_radius) * spec.axial_segments_per_radius)
            .round()
            .max(1.0) as usize;
        let ctm = mesh_tube(
            b,
            &spec.tube,
            child_start,
            child_frame,
            child_length,
            child_radius,
            child_radius * spec.taper,
            nz,
        );
        *num_tubes += 1;
        let child_generation = parent_generation + 1;
        gen_ranges.push((ctm.elem_range.clone(), child_generation as u16));
        let fill = fill_cap_to_hub(b, &ctm.start_cap, hub);
        gen_ranges.push((fill, child_generation as u16));
        if child_generation == spec.generations {
            outlet_nodes.extend(ctm.end_cap.all_nodes.iter().copied());
        } else {
            branch_children(
                b,
                spec,
                &ctm.end_cap,
                child_frame,
                child_radius * spec.taper,
                child_length,
                child_generation,
                outlet_nodes,
                num_tubes,
                num_junctions,
                gen_ranges,
            );
        }
    }
}

/// Classify every exterior face as Inlet, Outlet or Wall based on the
/// node sets recorded during generation, and store them on the mesh;
/// returns the face-neighbor table that says which faces are exterior.
fn classify_boundary(mesh: &mut Mesh, inlet: &[u32], outlet: &[u32]) -> FaceNeighbors {
    const INLET: u8 = 1;
    const OUTLET: u8 = 2;
    let mut flags = vec![0u8; mesh.num_nodes()];
    for (nodes, flag) in [(inlet, INLET), (outlet, OUTLET)] {
        nodes.iter().for_each(|&v| flags[v as usize] |= flag);
    }
    let fns = mesh.face_neighbors();
    let mut boundary = Vec::new();
    for e in 0..mesh.num_elements() {
        let (nodes, faces) = (mesh.elem_nodes(e), mesh.kinds[e].faces());
        for (f, _) in fns.faces(e).iter().enumerate().filter(|(_, nb)| nb.is_none()) {
            let all = |flag: u8| faces[f].iter().all(|&li| flags[nodes[li] as usize] & flag != 0);
            let kind = if all(INLET) {
                BoundaryKind::Inlet
            } else if all(OUTLET) {
                BoundaryKind::Outlet
            } else {
                BoundaryKind::Wall
            };
            boundary.push((e as u32, f as u8, kind));
        }
    }
    mesh.boundary = boundary;
    fns
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn small_airway_generates() {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let s = am.mesh.stats();
        // 2 generations: 1 + 2 + 4 = 7 tubes, 3 junctions.
        assert_eq!(am.num_tubes, 7);
        assert_eq!(am.num_junctions, 3);
        assert!(s.num_tets > 0 && s.num_prisms > 0 && s.num_pyramids > 0);
        assert!(am.mesh.negative_volume_elements().is_empty());
    }

    #[test]
    fn boundary_has_all_three_kinds() {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let kinds: HashSet<_> = am.mesh.boundary.iter().map(|&(_, _, k)| k).collect();
        assert!(kinds.contains(&BoundaryKind::Inlet));
        assert!(kinds.contains(&BoundaryKind::Outlet));
        assert!(kinds.contains(&BoundaryKind::Wall));
        // Walls dominate.
        let walls = am
            .mesh
            .boundary
            .iter()
            .filter(|&&(_, _, k)| k == BoundaryKind::Wall)
            .count();
        assert!(walls * 2 > am.mesh.boundary.len());
    }

    #[test]
    fn inlet_metadata_sane() {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        assert!((am.inlet_radius - 0.009).abs() < 1e-12);
        // Inflow direction points along the trachea axis (downward).
        assert!(am.inlet_direction.z < -0.99);
        assert_eq!(am.inlet_center, Vec3::ZERO);
    }

    #[test]
    fn generations_scale_element_count() {
        let m1 = generate_airway(&AirwaySpec { generations: 1, ..AirwaySpec::small() }).unwrap();
        let m2 = generate_airway(&AirwaySpec { generations: 3, ..AirwaySpec::small() }).unwrap();
        assert!(m2.mesh.num_elements() > 2 * m1.mesh.num_elements());
    }

    #[test]
    fn element_generations_tagged() {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        assert_eq!(am.elem_generation.len(), am.mesh.num_elements());
        let max_gen = *am.elem_generation.iter().max().unwrap();
        assert_eq!(max_gen as usize, 2, "deepest generation tag");
        // Trachea elements exist and sit near the top (z > -L).
        let gen0 = am.elem_generation.iter().filter(|&&g| g == 0).count();
        assert!(gen0 > 0);
        // Every element of generation g is (weakly) deeper than the
        // inlet; spot check: gen-2 centroids are below gen-0 mean.
        let mean_z = |g: u16| {
            let (mut s, mut n) = (0.0, 0);
            for e in 0..am.mesh.num_elements() {
                if am.elem_generation[e] == g {
                    s += am.mesh.centroid(e).z;
                    n += 1;
                }
            }
            s / n as f64
        };
        assert!(mean_z(2) < mean_z(0), "deeper generations sit lower");
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut s = AirwaySpec::small();
        s.tube.n_theta = 2;
        assert!(generate_airway(&s).is_err());
        let mut s = AirwaySpec::small();
        s.radius_ratio = 1.5;
        assert!(generate_airway(&s).is_err());
        let mut s = AirwaySpec::small();
        s.branch_angle_deg = 89.0;
        assert!(generate_airway(&s).is_err());
        let mut s = AirwaySpec::small();
        s.generations = 11;
        assert!(generate_airway(&s).is_err());
    }

    #[test]
    fn mesh_is_conforming_no_orphan_interior_faces() {
        // Every exterior face is classified; interior faces pair up. If
        // the junction fills were non-conforming, pyramids' quad faces
        // would appear as spurious exterior faces tagged Wall deep inside
        // the mesh. Check the count of exterior quad faces equals
        // inlet + outlet BL quads only.
        let spec = AirwaySpec::small();
        let am = generate_airway(&spec).unwrap();
        let quad_ext = am
            .mesh
            .boundary
            .iter()
            .filter(|&&(e, f, _)| am.mesh.kinds[e as usize].faces()[f as usize].len() == 4)
            .count();
        let per_cap = spec.tube.n_theta * spec.tube.n_bl_layers;
        let num_outlets = 4; // 2^2 terminal tubes
        assert_eq!(quad_ext, per_cap * (1 + num_outlets));
    }
}

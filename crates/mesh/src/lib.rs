//! # cfpd-mesh — hybrid unstructured meshes for respiratory CFPD
//!
//! This crate provides the geometric substrate of the reproduction of
//! *"Computational Fluid and Particle Dynamics Simulations for
//! Respiratory System: Runtime Optimization on an Arm Cluster"*
//! (Garcia-Gasulla et al., ICPP 2018):
//!
//! * [`geom`] — minimal 3D vector/frame math,
//! * [`element`] — the hybrid element family (tetrahedra, pyramids,
//!   prisms) used by the paper's 17.7 M-element airway mesh,
//! * [`mesh`] — CSR mesh container with derived topology (node→element,
//!   element adjacency through shared nodes, face neighbors),
//! * [`builder`] — incremental construction with orientation fixing and
//!   the conforming prism→tet split,
//! * [`tube`] / [`airway`] — the parametric bronchial-tree generator
//!   substituting for the paper's subject-specific CT geometry (see
//!   DESIGN.md §2 for why the substitution preserves the studied
//!   behaviour).
//!
//! ```
//! use cfpd_mesh::{AirwaySpec, generate_airway};
//! let airway = generate_airway(&AirwaySpec::small()).unwrap();
//! let stats = airway.mesh.stats();
//! assert!(stats.num_prisms > 0 && stats.num_tets > 0 && stats.num_pyramids > 0);
//! ```

#![forbid(unsafe_code)]

pub mod airway;
pub mod builder;
pub mod element;
pub mod geom;
pub mod mesh;
pub mod tube;
pub mod vtk;

pub use airway::{generate_airway, AirwayMesh, AirwaySpec, MeshError};
pub use builder::MeshBuilder;
pub use element::{BoundaryKind, ElementKind};
pub use geom::{Frame, Vec3};
pub use mesh::{Csr, FaceNeighbors, Mesh, MeshStats};
pub use tube::TubeParams;
pub use vtk::{to_vtk, write_vtk};

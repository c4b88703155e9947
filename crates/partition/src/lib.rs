//! # cfpd-partition — graph partitioning and coloring (Metis substitute)
//!
//! The paper relies on Metis at two levels: (i) decomposing the mesh
//! into per-MPI-process domains, and (ii) decomposing each MPI domain
//! into the subdomains that become OpenMP tasks in the multidependences
//! scheme (§3.1). It also uses mesh coloring (Farhat & Crivelli) as one
//! of the three assembly parallelization strategies. This crate
//! implements all three from scratch:
//!
//! * [`graph`] — CSR weighted graphs (the Metis input format),
//! * [`kway`] — greedy graph-growing k-way partitioning with boundary
//!   refinement,
//! * [`coloring`] — greedy largest-degree-first coloring,
//! * [`subdomain`] — subdomain decomposition, cut on the face graph of
//!   lane blocks and then of elements, + node-sharing adjacency (the
//!   "incompatibility" relation behind the multidependences) and its
//!   colour numbering,
//! * [`rcm`] — reverse Cuthill–McKee node reordering (CSR bandwidth
//!   reduction for the locality-aware hot path).

#![forbid(unsafe_code)]

pub mod coloring;
pub mod graph;
pub mod kway;
pub mod rcb;
pub mod rcm;
pub mod subdomain;

pub use coloring::{greedy_coloring, Coloring};
pub use graph::Graph;
pub use kway::{partition_kway, Partition};
pub use rcb::partition_rcb;
pub use rcm::{bandwidth_under_perm, csr_bandwidth, invert_perm, rcm_perm};
pub use subdomain::{
    decompose_subdomains, local_element_graph, FaceGraphs, SubdomainDecomposition,
};

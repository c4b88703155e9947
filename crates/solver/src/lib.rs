//! # cfpd-solver — FEM machinery for the incompressible flow solve
//!
//! Implements the numerical phases whose runtime behaviour the paper
//! studies (§2.2, Table 1):
//!
//! * **Matrix assembly** ([`assembly`]) — the racy scatter-add loop over
//!   hybrid elements, parallelized with the paper's three strategies
//!   (atomics / coloring / multidependences, Fig. 4);
//! * **Solver1 / Solver2** ([`krylov`], [`deflation`]) — a three-column
//!   block BiCGSTAB for the momentum system and a deflated CG for the
//!   pressure (continuity) system of a fractional-step scheme;
//! * **SGS** ([`sgs`]) — the per-element subgrid-scale sweep with no
//!   global writes (the phase the paper uses to isolate scheduling
//!   overhead), run in kind-grouped lane blocks;
//! * [`csr`] — the reference sparse storage; [`shape`] / [`kernels`] —
//!   isoparametric elements and the local integrals;
//! * [`batch`] — the one engine behind every element sweep: same-kind
//!   batches over precomputed gather / scatter arenas, lane kernels
//!   ([`lanes`]) in every full block of eight;
//! * **Layouts** ([`layout`]) — the two orders a run can fix: native
//!   node order with list-order element sums, or RCM with kind-grouped
//!   ones. The engine, SELL-shaped sweeps ([`sell`], [`parallel`]) and
//!   lane kernels run on both;
//! * [`oracle`] — the scalar reference implementations the bit-identity
//!   tests and the `hotpath` bench compare against (the element-at-a-time
//!   assembly loops and their dynamically dispatched kernels among
//!   them); no run reaches them.

#![deny(unsafe_code)]

pub mod assembly;
pub mod batch;
pub mod csr;
pub mod deflation;
pub mod kernels;
pub mod krylov;
pub mod lanes;
pub mod layout;
pub mod oracle;
pub mod parallel;
#[allow(unsafe_code)]
pub mod sell;
pub mod sgs;
pub mod shape;
#[allow(unsafe_code)]
mod shared;
#[allow(unsafe_code)]
pub mod simd;

pub use assembly::{AssemblyPlan, AssemblyStats, AssemblyStrategy, AssemblyUnits};
pub use batch::{
    assemble_divergence, assemble_momentum, assemble_poisson, assemble_pressure_gradient,
    BatchSchedule, BatchSet, ElementOrder, KindBatch,
};
pub use csr::CsrMatrix;
pub use kernels::{ElementScratch, FluidProps};
pub use deflation::{Deflation, DeflationStructure};
pub use krylov::{bicgstab3, cg, Bicgstab3Workspace, SolveStats};
pub use lanes::{momentum_kernel_lanes, poisson_kernel_lanes, LaneScratch, LANES};
pub use layout::LayoutPlan;
pub use parallel::{axpy_dot_fused, spmm3_sweep, spmv_sweep, ChunkedDot};
pub use sell::{SellMatrix, SellStructure, SELL_C, SELL_SIGMA};
pub use sgs::{compute_sgs, SgsField, SgsLayout, SgsStats};
pub use shape::{map_qp, MappedQp, QuadPoint, RefElement, MAX_NODES, MAX_QP};

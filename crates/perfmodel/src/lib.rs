//! # cfpd-perfmodel — virtual platforms + discrete-event cluster model
//!
//! The paper's evaluation compares two physical clusters (Intel-based
//! MareNostrum4 and Arm-based Thunder) that this reproduction cannot
//! access — and this container exposes a single CPU core, so wall-clock
//! parallel speedups are unobservable locally. Per DESIGN.md §2 the
//! substitution is: *measure real workloads* (element weights, particle
//! distributions, solver sizes from the actual executing code) and
//! *model cluster time* with
//!
//! * [`platform`] — per-cluster cost models calibrated against the
//!   paper's own published IPC numbers (§4.3), and
//! * [`des`] — a discrete-event simulation of ranks, nodes, barriers,
//!   velocity-exchange pipelines and LeWI core lending in virtual time,
//! * [`scenario`] — builders mapping the paper's execution modes
//!   (synchronous / coupled, Fig. 3) onto DES rank programs.

#![forbid(unsafe_code)]

pub mod des;
pub mod energy;
pub mod platform;
pub mod scenario;

pub use des::{simulate, DesConfig, DesResult, RankProgram, Segment};
pub use energy::{estimate_energy, EnergyReport, PowerModel};
pub use platform::{efficiency_curve, Platform, WORK_PER_TET_INSTR};
pub use scenario::{CoupledScenario, Mapping, PhaseSpec, Sensitivity, SyncScenario};

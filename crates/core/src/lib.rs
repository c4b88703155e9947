//! # cfpd-core — the CFPD simulation orchestrator (Alya substitute)
//!
//! Drives the full respiratory-system simulation of the paper: the
//! fractional-step incompressible flow solve ([`fluid`], phases
//! assembly / Solver1 / Solver2 / SGS) and the Lagrangian particle
//! transport, across a virtual MPI cluster ([`simulation`]) in both
//! execution modes of Fig. 3 (synchronous and coupled), with any of the
//! three assembly strategies and with or without DLB.
//!
//! [`workload`] extracts per-rank work profiles from real executions
//! for the virtual-platform model (`cfpd-perfmodel`) that regenerates
//! the paper's figures at 96/192-rank scale.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod config;
pub mod deposition;
pub mod flowfield;
pub mod fluid;
pub mod golden;
pub mod prepare;
pub mod result;
pub mod scenario;
pub mod simulation;
pub mod workload;

pub use checkpoint::{config_digest, Checkpoint, RankCheckpoint};
pub use cfpd_particles::ParticleCensus;
pub use cfpd_solver::LayoutPlan;
pub use config::{ExecutionMode, SimulationConfig};
pub use flowfield::potential_flow;
pub use fluid::{
    BoundaryConditions, FluidSolver, FluidStepReport, FluidStructure, PressureOperator,
};
pub use golden::{
    golden_config, golden_trace, golden_trace_split, render_golden_doc, render_golden_document,
    render_golden_events,
};
pub use prepare::{prepare, PrepareKey, PrepareMemo, Prepared};
pub use scenario::{run_scenario, run_scenario_prepared, Scenario, ScenarioOutcome};
pub use simulation::{rank_failures, run_prepared, LogicalEvent, RunOptions, SimulationResult};
pub use deposition::{deposition_map, DepositionMap, GenerationRow};
pub use workload::{measure_workload, PhaseCostModel, WorkloadProfile};

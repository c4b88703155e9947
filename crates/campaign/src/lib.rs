//! # cfpd-campaign — the scenario campaign engine
//!
//! The paper's evaluation is a *matrix*: execution modes × node counts
//! × DLB on/off. This crate turns that matrix into a first-class,
//! declarative object:
//!
//! * [`dsl`] — a zero-dependency line-oriented `key = value` +
//!   `[section]` format with real error spans (line-accurate duplicate
//!   and malformed-value reports) and a canonical renderer that
//!   round-trips;
//! * [`scenario`] — the typed layer: the scenario key registry, the
//!   mapping onto [`cfpd_core::Scenario`], regression budgets, and the
//!   cap on a matrix's size ([`MAX_MATRIX_CELLS`]);
//! * [`matrix`] — the expander: cross-product of `[matrix]` axes in
//!   odometer order minus `[exclude]` constraints, each cell a fully
//!   seeded deterministic run with a canonical id;
//! * [`runner`] — a bounded in-process worker pool fanning the cells
//!   out through `cfpd_core::run_scenario` (the exact code path behind
//!   `cfpd golden`), results ordered by expansion index so reports are
//!   byte-identical across pool sizes;
//! * [`aggregate`] — the joiner: deterministic per-cell metrics
//!   (physics digest, event/iteration counts, census, logical load
//!   balance) into one comparable table/JSON report, plus the
//!   baseline diff with budgets that backs `cfpd campaign report`'s
//!   nonzero-exit regression gate.
//!
//! Because every expanded cell is a deterministic run, the engine
//! doubles as the repo's differential-testing harness: the blessed
//! report of `examples/campaigns/small.campaign`
//! (`tests/golden/campaign_small.golden`) pins the full
//! sync/coupled × default/opt × DLB-off/on matrix bit-for-bit, turning
//! the existing pair of goldens into an N-cell gate.
//!
//! The `cfpd` binary (including `cfpd campaign run|expand|report` and
//! `cfpd serve`) lives in `cfpd-serve`, the top of the crate DAG — the
//! serve scheduler depends on this crate's runner and aggregate layers,
//! so the CLI rides with it to avoid a dependency cycle.

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod dsl;
pub mod matrix;
pub mod runner;
pub mod scenario;

pub use aggregate::{
    cell_metrics, compare, CampaignReport, CanonMetrics, CellAcc, CellFailure, CellMetrics,
    DeltaReport, WallMetrics,
};
pub use dsl::{parse, render, DslError, RawDoc, RawPair, RawSection};
pub use matrix::{expand, full_matrix_size, Cell};
pub use runner::{run_bounded, run_campaign, run_campaign_with};
pub use scenario::{Axis, Budget, CampaignSpec, CellSettings, MAX_MATRIX_CELLS, SCENARIO_KEYS};

//! The one run request, [`Scenario`], and the entry point that runs it
//! and renders its golden document, shared by the `cfpd` CLI, the
//! campaign engine (`cfpd-campaign`) and the job daemon (`cfpd-serve`).
//!
//! A scenario is run as [`crate::prepare::prepare`] of its
//! [`Scenario::prepare_key`] followed by [`run_prepared`], which returns
//! rank failures as an `Err`; [`run_scenario`] and
//! [`run_scenario_prepared`] add the document and panic on a failure.
//! One code path means a campaign cell and a hand-rolled `cfpd golden`
//! invocation of the same configuration are *the same run* — the
//! foundation of the differential golden matrix.

use crate::config::SimulationConfig;
use crate::golden::{render_golden_document, render_golden_events};
use crate::prepare::{prepare, PrepareKey, Prepared};
use crate::simulation::{rank_failures, run_prepared, RunOptions, SimulationResult};
use std::sync::Arc;
use cfpd_testkit::digest::digest_bytes;

/// A fully-resolved run request: configuration plus run shape. This is
/// the unit the campaign expander materializes per matrix cell and the
/// unit `cfpd golden` builds from its flags.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Physics + numerics configuration (mode, layout, seed, ...).
    pub config: SimulationConfig,
    /// Base rank count (synchronous mode; coupled mode derives
    /// `fluid + particles` from the config instead).
    pub ranks: usize,
    /// OpenMP-style workers per rank.
    pub threads: usize,
    /// Everything else: DLB, chaos, tracing, checkpointing.
    pub opts: RunOptions,
}

impl Scenario {
    /// The plain default shape: `ranks` ranks, one thread each, no
    /// DLB/chaos/trace. (Every shape is deterministic; this is the one
    /// the golden files are cut with.)
    pub fn deterministic(config: SimulationConfig, ranks: usize) -> Scenario {
        Scenario { config, ranks, threads: 1, opts: RunOptions::default() }
    }

    /// What of this scenario its set-up depends on.
    pub fn prepare_key(&self) -> PrepareKey {
        PrepareKey::of(&self.config, self.ranks)
    }
}

/// What a scenario run produced: the canonical golden document, its
/// FNV-1a digest (the "physics digest" campaign reports pin), and the
/// full simulation result for anyone who needs traces or DLB stats.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Canonical golden document (see [`crate::golden`]).
    pub doc: String,
    /// `digest_bytes` of `doc` — byte-equality of documents collapses
    /// to equality of this one `u64`.
    pub digest: u64,
    /// The underlying run.
    pub result: SimulationResult,
}

/// Run a scenario and render its golden document. This is the single
/// shared code path behind `cfpd golden`, `cfpd campaign run` and the
/// differential matrix tests. Panics (with the reason) when the run is
/// refused or a rank fails.
pub fn run_scenario(s: &Scenario) -> ScenarioOutcome {
    let prepared = prepare(&s.prepare_key()).unwrap_or_else(|e| panic!("{e}"));
    run_scenario_prepared(&prepared, s)
}

/// [`run_scenario`] on a [`Prepared`] of the scenario's
/// [`Scenario::prepare_key`], for callers that run several scenarios on
/// one set-up (see [`crate::prepare::PrepareMemo`]).
pub fn run_scenario_prepared(prepared: &Arc<Prepared>, s: &Scenario) -> ScenarioOutcome {
    let result =
        run_prepared(prepared, s).unwrap_or_else(|fails| panic!("{}", rank_failures(&fails)));
    let size = (result.elements, result.nodes);
    let events = render_golden_events(&result.logical);
    let doc = render_golden_document(&s.config, s.ranks, size, &events, &result.census);
    let digest = digest_bytes(doc.as_bytes());
    ScenarioOutcome { doc, digest, result }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::{golden_config, golden_trace};

    #[test]
    fn run_scenario_matches_golden_trace() {
        let mut cfg = golden_config();
        cfg.airway.generations = 1;
        cfg.num_particles = 40;
        cfg.steps = 1;
        let out = run_scenario(&Scenario::deterministic(cfg.clone(), 2));
        assert_eq!(out.doc, golden_trace(&cfg, 2));
        assert_eq!(out.digest, digest_bytes(out.doc.as_bytes()));
    }

    /// A run with no fluid or no particle rank is refused by its set-up
    /// before any rank starts: `prepare` + `run_prepared` return the
    /// reason, and `run_scenario` panics with it.
    #[test]
    fn a_run_without_fluid_or_particle_ranks_is_refused() {
        use crate::config::ExecutionMode;
        let sync = ExecutionMode::Synchronous;
        let coupled = |fluid, particles| ExecutionMode::Coupled { fluid, particles };
        for mode in [sync, coupled(0, 1), coupled(1, 0)] {
            let s = Scenario::deterministic(SimulationConfig { mode, ..golden_config() }, 0);
            let refused = prepare(&s.prepare_key())
                .and_then(|prepared| run_prepared(&prepared, &s).map_err(|f| rank_failures(&f)))
                .expect_err("a run without ranks");
            let want = format!("a run needs fluid and particle ranks, got {mode:?}");
            assert_eq!(refused, want);
            let panic = std::panic::catch_unwind(|| run_scenario(&s)).expect_err("a panic");
            assert_eq!(panic.downcast_ref::<String>(), Some(&want), "{mode:?}");
        }
    }
}

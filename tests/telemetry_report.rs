//! Telemetry subsystem acceptance gates.
//!
//! A run's counters describe the run that was measured, its POP rollup
//! (`cfpd_trace::PopTotals` over the run's own phase record) obeys the
//! POP identity, and enabling telemetry is invisible in the golden
//! document: summaries go to stderr, never into the trace.
//!
//! Telemetry state is process-global, so every test here serializes on
//! one mutex and ends with telemetry disabled and reset.

use std::sync::Mutex;

use cfpd_core::{golden_config, golden_trace, run_scenario, Scenario};
use cfpd_trace::PopTotals;

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

const TOL: f64 = 1e-9;
const RANKS: usize = 2;

fn with_telemetry_run<R>(f: impl FnOnce(&cfpd_core::SimulationResult) -> R) -> R {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cfpd_telemetry::set_enabled(true);
    cfpd_telemetry::reset();
    let r = run_scenario(&Scenario::deterministic(golden_config(), RANKS)).result;
    cfpd_telemetry::set_enabled(false);
    let out = f(&r);
    cfpd_telemetry::reset();
    out
}

/// The golden run's rollup: PE = LB × CommE, and 0 < PE, LB ≤ 1.
#[test]
fn pop_identity_holds_in_the_rollup() {
    with_telemetry_run(|r| {
        let totals = PopTotals::of(&r.trace);
        assert_eq!(totals.ranks(), RANKS);
        let report = totals.report();
        let recomposed = report.load_balance * report.comm_efficiency;
        assert!(
            (report.parallel_efficiency - recomposed).abs() <= TOL,
            "PE {} != LB x CommE {}",
            report.parallel_efficiency,
            recomposed
        );
        assert!(report.parallel_efficiency > 0.0 && report.parallel_efficiency <= 1.0 + TOL);
        assert!(report.load_balance > 0.0 && report.load_balance <= 1.0 + TOL);
    });
}

#[test]
fn counters_reflect_the_run_shape() {
    let cfg = golden_config();
    with_telemetry_run(|r| {
        let snap = cfpd_telemetry::snapshot();
        let counter = |name: &str| -> u64 {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("counter {name} missing from snapshot"))
        };
        assert_eq!(counter("core.rank_steps") as usize, RANKS * cfg.steps);
        assert!(counter("solver.cg_iterations") > 0, "CG ran");
        assert!(counter("solver.assemblies") > 0, "assembly ran");
        assert!(counter("solver.spmv_calls") > 0, "spmv ran");
        assert_eq!(counter("particles.steps") as usize, RANKS * cfg.steps);
        assert!(counter("mpi.msgs_sent") > 0, "ranks exchanged messages");
        // Metrics register lazily at first use, so a clean run leaves
        // the timeout counter absent entirely — absent or zero both
        // mean "no timeouts".
        let timeouts = snap
            .counters
            .iter()
            .find(|(n, _)| n == "mpi.timeouts")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert_eq!(timeouts, 0, "clean run has no timeouts");
        // The run result and the counters describe the same universe.
        let c = r.census;
        assert!(c.active + c.deposited + c.escaped + c.lost > 0);
    });
}

#[test]
fn snapshot_renders_to_both_surfaces() {
    with_telemetry_run(|r| {
        let snap = cfpd_telemetry::snapshot();
        assert!(snap.render_table().contains("== telemetry =="));
        let json = snap.render_json();
        for key in ["\"counters\"", "\"histograms\""] {
            assert!(json.contains(key), "JSON missing {key}: {json}");
        }
        // The POP block `cfpd report` prints next to the snapshot.
        let pop = PopTotals::of(&r.trace);
        assert!(pop.render_table().contains("parallel_efficiency"));
        let mut w = cfpd_telemetry::JsonWriter::new();
        pop.write_json(&mut w);
        let json = w.finish();
        for key in [
            "\"parallel_efficiency\"",
            "\"load_balance\"",
            "\"comm_efficiency\"",
        ] {
            assert!(json.contains(key), "POP JSON missing {key}: {json}");
        }
    });
}

/// Telemetry must be invisible on stdout: the golden document rendered
/// with telemetry enabled is byte-identical to the one rendered with it
/// disabled (summaries are the CLI's job and go to stderr).
#[test]
fn enabling_telemetry_keeps_the_golden_document_byte_identical() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cfpd_telemetry::set_enabled(false);
    cfpd_telemetry::reset();
    let off = golden_trace(&golden_config(), RANKS);
    cfpd_telemetry::set_enabled(true);
    cfpd_telemetry::reset();
    let on = golden_trace(&golden_config(), RANKS);
    cfpd_telemetry::set_enabled(false);
    cfpd_telemetry::reset();
    assert_eq!(on, off, "telemetry perturbed the golden document");
}

//! Trace-pipeline acceptance gates.
//!
//! Exporter output on a canonical synthetic trace is pinned byte-for-
//! byte by golden files (`tests/golden/trace_small.*`, regenerate with
//! `CFPD_BLESS=1 cargo test -p cfpd-core --test trace_pipeline`); live
//! traced runs are checked for the structural invariants that make the
//! formats meaningful — non-overlapping per-worker intervals inside
//! [0, total_time], critical-path bounds, and a zero structural delta
//! between identical-seed runs.

use std::path::PathBuf;

use cfpd_core::{golden_config, run_scenario, RunOptions, Scenario, SimulationResult};
use cfpd_testkit::parse_json;
use cfpd_trace::{
    critical_path, diff_summaries, export_chrome, export_pcf, export_prv, export_row,
    export_summary, ChaosKind, DlbMarkKind, Phase, Trace, WorkerState,
};

const RANKS: usize = 2;
const TOL: f64 = 1e-9;

fn traced_run() -> SimulationResult {
    let opts = RunOptions { trace: true, ..Default::default() };
    run_scenario(&Scenario { opts, ..Scenario::deterministic(golden_config(), RANKS) }).result
}

/// The canonical small trace every exporter golden pins: two ranks, two
/// workers on rank 0, phase + worker + message + DLB + chaos records,
/// all with fixed timestamps.
fn synthetic_trace() -> Trace {
    let mut t = Trace::new(2);
    t.record(0, Phase::Assembly, 0.0, 0.1);
    t.record(0, Phase::Solver1, 0.1, 0.3);
    t.record(0, Phase::MpiComm, 0.3, 0.4);
    t.record(1, Phase::Assembly, 0.0, 0.2);
    t.record(1, Phase::Solver1, 0.2, 0.35);
    t.record(1, Phase::MpiComm, 0.35, 0.4);
    t.record_worker(0, 0, WorkerState::Assembly, 0.0, 0.1);
    t.record_worker(0, 0, WorkerState::Solver1, 0.1, 0.3);
    t.record_worker(0, 0, WorkerState::MpiWait, 0.3, 0.4);
    t.record_worker(0, 1, WorkerState::Useful, 0.05, 0.25);
    t.record_worker(1, 0, WorkerState::Assembly, 0.0, 0.2);
    t.record_worker(1, 0, WorkerState::Solver1, 0.2, 0.35);
    t.record_worker(1, 0, WorkerState::MpiWait, 0.35, 0.4);
    t.record_msg(0, 1, 7, 64, 0.30, 0.36);
    t.record_msg(1, 0, 7, 64, 0.35, 0.38);
    t.record_dlb(0, 0.31, DlbMarkKind::Lend, 1);
    t.record_dlb(0, 0.39, DlbMarkKind::Reclaim, 1);
    t.record_chaos(1, 0.2, ChaosKind::FaultInjected);
    t
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name)
}

fn assert_matches_golden(actual: &str, name: &str) {
    let path = golden_path(name);
    if std::env::var_os("CFPD_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); run with CFPD_BLESS=1", path.display())
    });
    assert_eq!(actual, expected, "{name} drifted (CFPD_BLESS=1 to regenerate)");
}

#[test]
fn exporters_match_checked_in_goldens() {
    let t = synthetic_trace();
    assert_matches_golden(&export_prv(&t), "trace_small.prv");
    assert_matches_golden(&export_pcf(), "trace_small.pcf");
    assert_matches_golden(&export_row(&t), "trace_small.row");
    assert_matches_golden(&export_chrome(&t), "trace_small.chrome.json");
    assert_matches_golden(&export_summary(&t), "trace_small.summary.json");
}

#[test]
fn json_exports_satisfy_the_in_repo_parser() {
    let t = synthetic_trace();
    let chrome = parse_json(&export_chrome(&t)).expect("chrome export is valid RFC 8259");
    let events = chrome
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let summary = parse_json(&export_summary(&t)).expect("summary export is valid RFC 8259");
    assert_eq!(summary.get("ranks").and_then(|v| v.as_u64()), Some(2));
    // Message tags survive the near-u64::MAX range losslessly because
    // the exporter writes them as strings.
    let msgs = summary.get("messages").and_then(|v| v.as_array()).expect("messages");
    assert!(msgs.iter().all(|m| m.get("tag").and_then(|v| v.as_str()).is_some()));
}

/// Live property: every worker interval of a traced run lies inside
/// [0, total_time] and no two intervals of one (rank, worker) lane
/// overlap.
#[test]
fn traced_run_worker_intervals_are_disjoint_and_bounded() {
    let r = traced_run();
    let tr = &r.trace;
    assert!(!tr.workers.is_empty(), "traced run records worker events");
    let wall = tr.total_time();
    let mut lanes = tr.workers.clone();
    lanes.sort_by(|a, b| {
        (a.rank, a.worker)
            .cmp(&(b.rank, b.worker))
            .then(a.t_start.total_cmp(&b.t_start))
    });
    for w in &lanes {
        assert!(w.t_start >= 0.0 && w.t_end >= w.t_start, "{w:?}");
        assert!(w.t_end <= wall + TOL, "interval past total_time: {w:?}");
    }
    for pair in lanes.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if (a.rank, a.worker) == (b.rank, b.worker) {
            assert!(a.t_end <= b.t_start + TOL, "overlap: {a:?} vs {b:?}");
        }
    }
}

/// The critical path is sandwiched between the best single-rank chain
/// and the wall clock.
#[test]
fn critical_path_respects_its_bounds() {
    let r = traced_run();
    let cp = critical_path(&r.trace);
    assert!(cp.length > 0.0);
    assert!(
        cp.length >= cp.max_rank_useful - TOL,
        "path {} shorter than best program-order chain {}",
        cp.length,
        cp.max_rank_useful
    );
    assert!(
        cp.length <= cp.wall + TOL,
        "path {} exceeds wall {}",
        cp.length,
        cp.wall
    );
    assert!(!cp.segments.is_empty());
    // Segment useful time sums to the path length.
    let sum: f64 = cp.segments.iter().map(|s| s.useful).sum();
    assert!((sum - cp.length).abs() <= 1e-6, "segments {sum} vs length {}", cp.length);
}

/// Two identical-seed traced runs produce a zero structural delta:
/// same ranks, same per-(rank, phase) event counts, same messages.
#[test]
fn identical_seed_runs_diff_to_zero() {
    let a = export_summary(&traced_run().trace);
    let b = export_summary(&traced_run().trace);
    let report = diff_summaries(&a, &b).expect("summaries parse");
    assert!(
        report.is_zero(),
        "identical-seed runs structurally diverged:\n{}",
        report.render()
    );
    assert!(report.render().contains("ZERO"));
}

/// Tracing is an observer: the logical event log (the physics) of a
/// traced run is bit-identical to an untraced one.
#[test]
fn tracing_leaves_the_physics_untouched() {
    let traced = traced_run();
    let plain = run_scenario(&Scenario::deterministic(golden_config(), RANKS)).result;
    assert_eq!(traced.logical, plain.logical, "tracing perturbed the logical log");
    assert_eq!(traced.census, plain.census);
}

//! End-to-end exercise of the live observability plane: the supervisor
//! event feed, `GET /jobs/:id/progress`, lint-clean `/metrics` under a
//! running job, and the post-mortem flight dump a deadline kill leaves
//! behind.
//!
//! This file is deliberately a single test: the flight ring is
//! process-global, so the WAL-tail check needs a process where no other
//! daemon runs concurrently. A job's POP rollup on `/progress` is its
//! own; `tests/serve_resilience.rs` pins that.

use cfpd_serve::{http_call, lint_prometheus, wal, Daemon, ServeConfig, ServeFaultPlan};
use cfpd_testkit::{parse_json, JsonValue};
use std::path::PathBuf;
use std::time::Duration;

const TINY: &str = "\
[campaign]
name = obsv
[scenario]
ranks = 2
generations = 1
particles = 40
steps = 2
";

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cfpd-obsv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn get(addr: &str, path: &str) -> (u16, String) {
    http_call(addr, "GET", path, "").expect("http")
}

fn f64_at(doc: &JsonValue, path: &[&str]) -> f64 {
    let mut v = doc.clone();
    for key in path {
        v = v.get(key).unwrap_or_else(|| panic!("missing {key} in {doc:?}")).clone();
    }
    v.as_f64().unwrap_or_else(|| panic!("{path:?} is not a number"))
}

#[test]
fn observability_plane_end_to_end() {
    // ----- Part 1: a healthy job under observation ------------------
    let dir = tmp_dir("live");
    let cfg = ServeConfig {
        data_dir: dir.clone(),
        // Stall the first attempt so there is a guaranteed window where
        // the job is running while we hit /metrics and /progress.
        fault: ServeFaultPlan { stall_first_attempts: 1, stall_ms: 200, ..Default::default() },
        ..Default::default()
    };
    let daemon = Daemon::start(cfg).unwrap();
    let addr = daemon.addr().to_string();

    let (code, body) = http_call(&addr, "POST", "/jobs", TINY).unwrap();
    assert_eq!(code, 201, "{body}");

    // While it runs: metrics stay lint-clean, progress serves live
    // counters with finite ETA.
    let mut done = false;
    for _ in 0..600 {
        let (code, metrics) = get(&addr, "/metrics");
        assert_eq!(code, 200);
        lint_prometheus(&metrics).expect("/metrics must lint clean while the job runs");

        let (code, body) = get(&addr, "/jobs/1/progress");
        assert_eq!(code, 200, "{body}");
        let doc = parse_json(&body).expect("progress is valid JSON");
        assert_eq!(doc.get("job").and_then(|v| v.as_u64()), Some(1));
        let eta = f64_at(&doc, &["eta_s"]);
        assert!(eta.is_finite() && eta >= 0.0, "eta_s {eta}");
        if doc.get("state").and_then(|v| v.as_str()) == Some("done") {
            done = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(done, "job never finished");

    // The feed replays the whole lifecycle in order, and an exhausted
    // long-poll answers (empty) instead of hanging.
    let (code, body) = get(&addr, "/events?since=0&wait_ms=0");
    assert_eq!(code, 200, "{body}");
    let doc = parse_json(&body).unwrap();
    let events = doc.get("events").and_then(|v| v.as_array()).unwrap().to_vec();
    let kinds: Vec<&str> = events
        .iter()
        .filter(|e| e.get("job").and_then(|v| v.as_u64()) == Some(1))
        .filter_map(|e| e.get("kind").and_then(|v| v.as_str()))
        .collect();
    for (earlier, later) in [("admitted", "started"), ("started", "cell_done"), ("cell_done", "done")] {
        let a = kinds.iter().position(|k| *k == earlier);
        let b = kinds.iter().rposition(|k| *k == later);
        assert!(a.is_some() && b.is_some() && a < b, "{earlier} before {later}: {kinds:?}");
    }
    let last = doc.get("last").and_then(|v| v.as_u64()).unwrap();
    let (code, body) = get(&addr, &format!("/events?since={last}&wait_ms=150"));
    assert_eq!(code, 200);
    let doc = parse_json(&body).unwrap();
    assert!(doc.get("events").and_then(|v| v.as_array()).unwrap().is_empty());

    let (code, _) = http_call(&addr, "POST", "/drain", "").unwrap();
    assert_eq!(code, 200);
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);

    // ----- Part 2: a deadline kill leaves a digest-valid black box --
    cfpd_flight::reset(); // part 1's events are another daemon's story
    let dir = tmp_dir("deadline");
    let cfg = ServeConfig {
        data_dir: dir.clone(),
        job_deadline: Some(Duration::from_millis(250)),
        fault: ServeFaultPlan { stall_first_attempts: 1, stall_ms: 600, ..Default::default() },
        ..Default::default()
    };
    let daemon = Daemon::start(cfg).unwrap();
    let addr = daemon.addr().to_string();
    let (code, body) = http_call(&addr, "POST", "/jobs", TINY).unwrap();
    assert_eq!(code, 201, "{body}");

    let mut failed = false;
    for _ in 0..600 {
        let (_, body) = get(&addr, "/jobs/1");
        if body.contains("\"state\":\"failed\"") {
            assert!(body.contains("deadline"), "{body}");
            failed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(failed, "deadline never fired");

    // The daemon writes the dump after it has announced the Fail (the
    // dump mirrors that record, so it cannot come first) and not
    // atomically. Wait here, on the condition — a dump that
    // digest-verifies — with the budget the loop above has: 2 s was once
    // too short on a 2-core host busy with a build.
    let dump_path = wal::flight_path(&dir, 1);
    let mut text = String::new();
    for _ in 0..600 {
        text = std::fs::read_to_string(&dump_path).unwrap_or_default();
        if cfpd_flight::parse_dump(&text).is_ok() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(!text.is_empty(), "no flight dump at {}", dump_path.display());
    let dump = cfpd_flight::parse_dump(&text).expect("dump must digest-verify");

    // Tampering must break the digest guard.
    let tampered = text.replacen(" 1 wal ", " 2 wal ", 1);
    assert!(tampered != text && cfpd_flight::parse_dump(&tampered).is_err());

    // The dump's WAL-mirror tail lines up with the WAL's own records
    // for this job, ending in the deadline Fail.
    let replayed = wal::replay(&dir.join("wal.log"));
    let wal_kinds: Vec<u32> = replayed
        .records
        .iter()
        .filter(|r| r.job_id() == 1)
        .map(|r| r.kind_code())
        .collect();
    let dump_kinds: Vec<u32> = dump
        .events
        .iter()
        .filter(|e| e.kind == cfpd_flight::EventKind::Wal && e.rank == 1)
        .map(|e| e.code)
        .collect();
    assert_eq!(dump_kinds, wal_kinds, "flight WAL mirror must match the WAL");
    assert_eq!(wal_kinds.last(), Some(&9), "last record is the Fail");

    daemon.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

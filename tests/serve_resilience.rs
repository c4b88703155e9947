//! Resilience suite for `cfpd serve` — the daemon's crash-safety,
//! retry, preemption and overload contracts, exercised end-to-end over
//! real HTTP against real daemons in-process.
//!
//! The headline property (mirroring `checkpoint_recovery.rs` one layer
//! up): **kill the daemon at any persistence cut point, restart it from
//! the leftovers, and the completed job's result is byte-identical to
//! an uninterrupted run's** — the WAL replays, the snapshot resumes,
//! and no work is silently lost or doubled.

use cfpd_campaign::{run_campaign, CampaignSpec};
use cfpd_serve::http::{http_call, http_call_raw};
use cfpd_serve::wal::{self, PersistGate, Wal, WalRecord};
use cfpd_serve::{lint_prometheus, Daemon, ServeConfig, ServeFaultPlan};
use cfpd_testkit::digest_bytes;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn campaign_text(name: &str, steps: usize) -> String {
    format!(
        "[campaign]\nname = {name}\n[scenario]\nranks = 2\ngenerations = 1\n\
         particles = 40\nsteps = {steps}\n"
    )
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cfpd-resil-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn direct_json(text: &str) -> String {
    let spec = CampaignSpec::from_text(text).unwrap();
    run_campaign(&spec, Some(1)).render_json()
}

fn get(addr: &str, path: &str) -> (u16, String) {
    http_call(addr, "GET", path, "").expect("daemon reachable")
}

fn submit(addr: &str, text: &str) -> u64 {
    let (code, body) = http_call(addr, "POST", "/jobs", text).unwrap();
    assert_eq!(code, 201, "{body}");
    let v = cfpd_testkit::parse_json(&body).unwrap();
    v.get("job").and_then(|j| j.as_u64()).expect("job id in response")
}

/// Poll a job to a terminal state; returns its final status body.
fn poll_terminal(addr: &str, job: u64) -> String {
    for _ in 0..1500 {
        let (code, body) = get(addr, &format!("/jobs/{job}"));
        assert_eq!(code, 200, "{body}");
        for terminal in ["\"done\"", "\"failed\"", "\"cancelled\""] {
            if body.contains(terminal) {
                return body;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("job {job} never reached a terminal state");
}

/// Poll a job until its status names `state`; returns that status body.
fn wait_for_state(addr: &str, job: u64, state: &str) -> String {
    for _ in 0..5000 {
        let (_, body) = get(addr, &format!("/jobs/{job}"));
        if body.contains(&format!("\"state\":\"{state}\"")) {
            return body;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("job {job} never became {state}");
}

fn result_of(addr: &str, job: u64) -> String {
    let status = poll_terminal(addr, job);
    assert!(status.contains("\"done\""), "job {job} not done: {status}");
    let (code, body) = get(addr, &format!("/jobs/{job}/result"));
    assert_eq!(code, 200, "{body}");
    body
}

#[test]
fn served_results_are_byte_identical_to_direct_runs() {
    let text = format!(
        "{}[matrix]\nlayout = default, opt\n",
        campaign_text("identical", 2)
    );
    let dir = tmp_dir("identical");
    let daemon = Daemon::start(ServeConfig {
        data_dir: dir.clone(),
        ..Default::default()
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    let job = submit(&addr, &text);
    assert_eq!(result_of(&addr, job), direct_json(&text));
    daemon.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole: sweep the persistence cut point over the whole life of
/// a job; at every cut, kill the daemon and restart from the leftovers.
/// Every restart must converge to the same bytes, and for each input at
/// least one cut must resume mid-cell from a snapshot (proving the
/// no-recomputation path runs, not just queued-from-scratch recovery).
/// The inputs are a synchronous cell and the paper's own scenario, a
/// coupled 2+1 cell with LeWI lending, whose snapshot holds 3 ranks
/// while its `ranks` key says 2. The revived daemon is a new `Daemon`,
/// so it resumes on a set-up it builds itself: nothing a checkpoint
/// needs lives in the dead daemon's `PrepareMemo`.
#[test]
fn kill_and_restart_converges_from_every_persistence_cut() {
    let sync = campaign_text("killer", 4);
    let coupled = format!("{}mode = coupled:2+1\ndlb = on\n", campaign_text("killer-coupled", 4));
    for (tag, text) in [("sync", sync), ("coupled", coupled)] {
        let resumed_from = kill_sweep(tag, &text);
        assert!(
            !resumed_from.is_empty(),
            "{tag}: no cut in the sweep resumed from a mid-cell snapshot; the \
             no-recomputation path was never exercised"
        );
    }
}

/// One kill-and-restart sweep over `text`; returns the steps the cuts
/// that resumed mid-cell resumed from.
fn kill_sweep(tag: &str, text: &str) -> Vec<usize> {
    let expected = direct_json(text);
    let mut resumed_from: Vec<usize> = Vec::new();

    for cut in 0..12u64 {
        let dir = tmp_dir(&format!("kill-{tag}-{cut}"));
        let crashed = Daemon::start(ServeConfig {
            data_dir: dir.clone(),
            workers: 1,
            http_threads: 1,
            fault: ServeFaultPlan { freeze_wal_after: Some(cut), ..Default::default() },
            ..Default::default()
        })
        .unwrap();
        let addr = crashed.addr().to_string();
        let job = submit(&addr, text);
        // Run until the gate freezes (the simulated kill -9 instant) or
        // the job outruns the cut and finishes.
        for _ in 0..1500 {
            if crashed.gate_frozen() {
                break;
            }
            let (_, body) = get(&addr, &format!("/jobs/{job}"));
            if body.contains("\"done\"") {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        crashed.kill();

        // Restart from whatever reached disk.
        let revived = Daemon::start(ServeConfig {
            data_dir: dir.clone(),
            workers: 1,
            http_threads: 1,
            ..Default::default()
        })
        .unwrap();
        let addr = revived.addr().to_string();
        let (code, status) = get(&addr, &format!("/jobs/{job}"));
        let job = if code == 404 {
            // The crash predated the WAL submit record: the job is
            // simply gone, which is lost-request, not corruption.
            submit(&addr, text)
        } else {
            assert_eq!(code, 200, "{status}");
            if let Some(v) = cfpd_testkit::parse_json(&status)
                .ok()
                .and_then(|v| v.get("resumed_step").and_then(|s| s.as_u64()))
            {
                assert!(v >= 1, "a recovered snapshot always has progress");
                resumed_from.push(v as usize);
            }
            job
        };
        assert_eq!(
            result_of(&addr, job),
            expected,
            "{tag} cut {cut}: restart did not converge to the uninterrupted bytes"
        );
        revived.kill();
        let _ = std::fs::remove_dir_all(&dir);
    }
    resumed_from
}

/// A daemon whose persistence froze is still running, and must not undo
/// what is durable. Freeze exactly between the last `ckpt` record of a
/// cell and its `celldone`: the append is refused, so the snapshot that
/// `ckpt` points to has to outlive the cell finishing in memory — a
/// restart resumes from it, to the bytes of a direct run.
#[test]
fn a_frozen_daemon_keeps_the_snapshot_its_last_ckpt_points_to() {
    let steps = 4;
    let text = campaign_text("frozen-tail", steps);
    let expected = direct_json(&text);
    let mut met = false;

    for cut in 0..16u64 {
        let dir = tmp_dir(&format!("frozen-tail-{cut}"));
        let frozen = Daemon::start(ServeConfig {
            data_dir: dir.clone(),
            workers: 1,
            http_threads: 1,
            fault: ServeFaultPlan { freeze_wal_after: Some(cut), ..Default::default() },
            ..Default::default()
        })
        .unwrap();
        let addr = frozen.addr().to_string();
        let job = submit(&addr, &text);
        // Let the job finish in memory, frozen gate or not: the removal
        // under test happens after the refused append.
        assert!(poll_terminal(&addr, job).contains("\"done\""));
        let was_frozen = frozen.gate_frozen();
        frozen.kill();

        let wal = std::fs::read_to_string(dir.join("wal.log")).unwrap_or_default();
        let last = wal.lines().last().unwrap_or_default();
        let at_the_cut = was_frozen
            && last.contains(&format!(" ckpt job={job} cell=0 step={} ", steps - 1))
            && !wal.contains(" celldone ");
        if at_the_cut {
            met = true;
            assert!(
                dir.join(format!("job-{job}-cell-0.snap")).exists(),
                "the frozen daemon removed the snapshot its last ckpt record points to"
            );
            let revived = Daemon::start(ServeConfig {
                data_dir: dir.clone(),
                workers: 1,
                http_threads: 1,
                ..Default::default()
            })
            .unwrap();
            let addr = revived.addr().to_string();
            let (code, status) = get(&addr, &format!("/jobs/{job}"));
            assert_eq!(code, 200, "{status}");
            let resumed = cfpd_testkit::parse_json(&status)
                .ok()
                .and_then(|v| v.get("resumed_step").and_then(|s| s.as_u64()));
            assert_eq!(resumed, Some(steps as u64 - 1), "must resume, not recompute: {status}");
            assert_eq!(result_of(&addr, job), expected);
            revived.kill();
        }
        let _ = std::fs::remove_dir_all(&dir);
        if met {
            break;
        }
    }
    assert!(met, "no cut fell between the last ckpt record and celldone");
}

/// `tests/fixtures/serve_parent_snapshot` is the data directory a daemon
/// left behind when its persistence froze right after the first `ckpt`
/// record of a 12-step cell: snapshot and checkpoint in format v2, cut by
/// the daemon of the PR that defined it (`scripts/cut_snapshot_fixture.sh`;
/// the fixture's README says what invalidates it). The current writers
/// reproduce its bytes, the digest its header states is the one its WAL
/// pins, and a current daemon resumes it mid-cell to the bytes of a
/// direct run.
#[test]
fn a_snapshot_written_by_the_previous_format_writers_still_resumes() {
    use cfpd_core::Checkpoint;
    use cfpd_serve::wal::{replay, WalRecord};
    use cfpd_serve::CellSnapshot;
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/serve_parent_snapshot");
    let dir = tmp_dir("parent-fixture");
    std::fs::create_dir_all(&dir).unwrap();
    for name in ["wal.log", "job-1.campaign", "job-1-cell-0.snap"] {
        std::fs::copy(fixture.join(name), dir.join(name)).unwrap();
    }

    // Format v2, byte for byte, at both levels of the file.
    let on_disk = std::fs::read_to_string(dir.join("job-1-cell-0.snap")).unwrap();
    let pin = match replay(&dir.join("wal.log")).records.last() {
        Some(WalRecord::Ckpt { snap_digest, .. }) => *snap_digest,
        other => panic!("the fixture's WAL ends in {other:?}, not in a ckpt record"),
    };
    let snap = CellSnapshot::from_pinned_text(&on_disk, pin).expect("checked-in snapshot parses");
    assert_eq!(snap.to_text(), on_disk);
    let cp = Checkpoint::from_text(&snap.checkpoint_text).expect("checked-in checkpoint parses");
    assert_eq!(cp.to_text(), snap.checkpoint_text);

    let text = std::fs::read_to_string(dir.join("job-1.campaign")).unwrap();
    let revived = Daemon::start(ServeConfig {
        data_dir: dir.clone(),
        workers: 1,
        http_threads: 1,
        ..Default::default()
    })
    .unwrap();
    let addr = revived.addr().to_string();
    let (code, status) = get(&addr, "/jobs/1");
    assert_eq!(code, 200, "{status}");
    let resumed = cfpd_testkit::parse_json(&status)
        .ok()
        .and_then(|v| v.get("resumed_step").and_then(|s| s.as_u64()));
    assert_eq!(resumed, Some(1), "must resume from the pinned snapshot: {status}");
    assert_eq!(result_of(&addr, 1), direct_json(&text));
    revived.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mirror of the checkpoint codec's corruption sweep, for the WAL:
/// truncations and bit flips never panic the replayer and never yield
/// records past the damage.
#[test]
fn wal_truncation_and_bitflip_sweep_never_confuses_replay() {
    use cfpd_serve::wal::{replay, Replay};

    // Produce a real WAL by running a job to completion.
    let text = campaign_text("waldonor", 3);
    let dir = tmp_dir("waldonor");
    let daemon =
        Daemon::start(ServeConfig { data_dir: dir.clone(), ..Default::default() }).unwrap();
    let addr = daemon.addr().to_string();
    let job = submit(&addr, &text);
    let _ = result_of(&addr, job);
    daemon.kill();

    let wal_path = dir.join("wal.log");
    let pristine = std::fs::read_to_string(&wal_path).unwrap();
    let full: Replay = replay(&wal_path);
    assert!(!full.corrupt_tail);
    assert!(full.records.len() >= 6, "expected a meaty WAL, got {}", full.records.len());

    let scratch = dir.join("scratch.log");
    // Truncations at every byte boundary of the last few records.
    let tail_start = pristine.len().saturating_sub(200);
    for cut in (tail_start..pristine.len()).step_by(7) {
        std::fs::write(&scratch, &pristine[..cut]).unwrap();
        let r = replay(&scratch);
        assert!(r.records.len() <= full.records.len());
        assert_eq!(r.records[..], full.records[..r.records.len()], "cut at byte {cut}");
    }
    // Bit flips sprinkled across the document.
    for pos in (0..pristine.len()).step_by(97) {
        let mut bytes = pristine.clone().into_bytes();
        bytes[pos] ^= 0x01;
        std::fs::write(&scratch, &bytes).unwrap();
        let r = replay(&scratch); // must not panic
        assert!(r.records.len() <= full.records.len(), "flip at byte {pos}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded crash on every cell's first attempt: the retry path must
/// kick in (with WAL'd backoff records) and still converge to the
/// uninterrupted bytes.
#[test]
fn seeded_crashes_retry_and_still_produce_identical_bytes() {
    let text = campaign_text("crashy", 3);
    let dir = tmp_dir("crashy");
    let daemon = Daemon::start(ServeConfig {
        data_dir: dir.clone(),
        workers: 1,
        backoff_base_ms: 1,
        fault: ServeFaultPlan { crash_first_attempts: 1, ..Default::default() },
        ..Default::default()
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    let job = submit(&addr, &text);
    let result = result_of(&addr, job);
    assert_eq!(result, direct_json(&text), "retried job must match clean bytes");
    let (_, status) = get(&addr, &format!("/jobs/{job}"));
    let v = cfpd_testkit::parse_json(&status).unwrap();
    assert!(
        v.get("retries").and_then(|r| r.as_u64()).unwrap_or(0) >= 1,
        "the crash must be visible as a retry: {status}"
    );
    daemon.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cell that exhausts its retries fails *as a cell*; the job still
/// completes and reports the failure in the canonical report.
#[test]
fn retry_exhaustion_fails_the_cell_not_the_daemon() {
    let text = campaign_text("doomed", 2);
    let dir = tmp_dir("doomed");
    let daemon = Daemon::start(ServeConfig {
        data_dir: dir.clone(),
        workers: 1,
        retry_max: 1,
        backoff_base_ms: 1,
        fault: ServeFaultPlan { crash_first_attempts: 10, ..Default::default() },
        ..Default::default()
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    let job = submit(&addr, &text);
    let status = poll_terminal(&addr, job);
    assert!(status.contains("\"done\""), "job completes even with a dead cell: {status}");
    assert!(status.contains("\"cells_failed\":1"), "{status}");
    let (code, body) = get(&addr, &format!("/jobs/{job}/result"));
    assert_eq!(code, 200);
    assert!(body.contains("injected: seeded worker crash"), "{body}");
    daemon.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoint-backed preemption: on a one-slot node, a short job
/// admitted behind a long one finishes first; the long job parks on a
/// snapshot, resumes, and its bytes are unchanged. The long job is a
/// synchronous cell, then a coupled 1+1 cell with LeWI lending.
#[test]
fn preemption_lets_a_short_job_jump_a_long_one_without_changing_bytes() {
    let sync = campaign_text("longjob", 30);
    let coupled = format!("{}mode = coupled:1+1\ndlb = on\n", campaign_text("longjob-coupled", 30));
    for (tag, long_text) in [("sync", sync), ("coupled", coupled)] {
        let short_text = campaign_text("shortjob", 1);
        let dir = tmp_dir(&format!("preempt-{tag}"));
        let daemon = Daemon::start(ServeConfig {
            data_dir: dir.clone(),
            workers: 1,
            http_threads: 1,
            ..Default::default()
        })
        .unwrap();
        let addr = daemon.addr().to_string();

        let long_job = submit(&addr, &long_text);
        // Wait until the long job actually holds the slot.
        for _ in 0..500 {
            let (_, body) = get(&addr, &format!("/jobs/{long_job}"));
            if body.contains("\"running\"") {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let short_job = submit(&addr, &short_text);

        // The short job must finish while the long one is still live.
        let _short_result = result_of(&addr, short_job);
        let (_, long_status) = get(&addr, &format!("/jobs/{long_job}"));
        assert!(
            !long_status.contains("\"done\""),
            "{tag}: the long job should still be working when the short one finishes: \
             {long_status}"
        );

        assert_eq!(
            result_of(&addr, long_job),
            direct_json(&long_text),
            "{tag}: preemption must not change the long job's bytes"
        );
        let (_, metrics) = get(&addr, "/metrics");
        assert!(
            metrics.contains("cfpd_serve_preemptions"),
            "preemption must be observable on /metrics"
        );
        daemon.kill();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Overload sheds with 503 + Retry-After instead of queueing without
/// bound, and the shedding is visible on /metrics.
#[test]
fn overload_sheds_503_with_retry_after() {
    let dir = tmp_dir("overload");
    let daemon = Daemon::start(ServeConfig {
        data_dir: dir.clone(),
        workers: 1,
        queue_cap: 1,
        ..Default::default()
    })
    .unwrap();
    let addr = daemon.addr().to_string();

    let long = campaign_text("occupier", 30);
    let _job = submit(&addr, &long);
    let raw = http_call_raw(&addr, "POST", "/jobs", &campaign_text("shed", 1)).unwrap();
    assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
    let raw_lower = raw.to_lowercase();
    assert!(raw_lower.contains("retry-after:"), "shed response must carry Retry-After: {raw}");

    let (code, metrics) = get(&addr, "/metrics");
    assert_eq!(code, 200);
    assert!(metrics.contains("cfpd_serve_jobs_shed"), "{metrics}");
    assert!(metrics.contains("cfpd_serve_queue_depth"), "{metrics}");
    daemon.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-job deadline budgets: an admitted job past its budget fails with
/// a `deadline:` reason instead of running forever.
#[test]
fn job_deadlines_fail_overdue_jobs() {
    let dir = tmp_dir("deadline");
    let daemon = Daemon::start(ServeConfig {
        data_dir: dir.clone(),
        workers: 1,
        job_deadline: Some(Duration::ZERO),
        ..Default::default()
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    let job = submit(&addr, &campaign_text("late", 2));
    let status = poll_terminal(&addr, job);
    assert!(status.contains("\"failed\""), "{status}");
    assert!(status.contains("deadline"), "{status}");
    let (code, body) = get(&addr, &format!("/jobs/{job}/result"));
    assert_eq!(code, 409, "{body}");
    daemon.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cancellation: queued jobs cancel immediately; running jobs cancel at
/// the next segment boundary.
#[test]
fn cancellation_is_honoured_at_segment_boundaries() {
    let dir = tmp_dir("cancel");
    let daemon = Daemon::start(ServeConfig {
        data_dir: dir.clone(),
        workers: 1,
        http_threads: 1,
        ..Default::default()
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    let running = submit(&addr, &campaign_text("victim", 30));
    for _ in 0..500 {
        let (_, body) = get(&addr, &format!("/jobs/{running}"));
        if body.contains("\"running\"") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let queued = submit(&addr, &campaign_text("waiting", 30));

    let (code, body) = http_call(&addr, "DELETE", &format!("/jobs/{queued}"), "").unwrap();
    assert_eq!(code, 200, "queued job cancels immediately: {body}");
    let (code, body) = http_call(&addr, "DELETE", &format!("/jobs/{running}"), "").unwrap();
    assert_eq!(code, 202, "running job cancels at the next boundary: {body}");
    let status = poll_terminal(&addr, running);
    assert!(status.contains("\"cancelled\""), "{status}");
    let (code, _) = http_call(&addr, "DELETE", &format!("/jobs/{running}"), "").unwrap();
    assert_eq!(code, 409, "double cancel is a conflict");
    daemon.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hetero-keyed jobs go through the daemon like any other scenario key:
/// a campaign skewing rank speeds under DLB is accepted, runs to done,
/// and serves bytes identical to a direct run (the profile is
/// timing-only, so determinism must survive it).
#[test]
fn hetero_keyed_jobs_serve_byte_identical_results() {
    let text = format!("{}hetero = mn4_thunder\ndlb = on\n", campaign_text("skewed", 2));
    let dir = tmp_dir("hetero");
    let daemon =
        Daemon::start(ServeConfig { data_dir: dir.clone(), ..Default::default() }).unwrap();
    let addr = daemon.addr().to_string();
    let job = submit(&addr, &text);
    assert_eq!(result_of(&addr, job), direct_json(&text));
    daemon.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job whose spec file verifies against its WAL digest but no longer
/// parses (here: the retired DLB policy key, which a spec written before
/// reactive LeWI became the only policy may carry) is dropped on replay,
/// and the drop is counted instead of passing silently.
#[test]
fn replay_drops_a_verified_spec_this_build_refuses_and_counts_it() {
    let dir = tmp_dir("refused-spec");
    std::fs::create_dir_all(&dir).unwrap();
    // The retired key, spelled in two pieces so the source tree names it
    // nowhere.
    let spec = format!("{}{} = reactive\n", campaign_text("old", 2), concat!("dlb", "_policy"));
    assert!(CampaignSpec::from_text(&spec).is_err(), "the retired key must not parse");
    std::fs::write(wal::spec_path(&dir, 1), &spec).unwrap();
    let log = Wal::open(&dir.join("wal.log"), "", 1, PersistGate::unlimited()).unwrap();
    let submit =
        WalRecord::Submit { job: 1, name: "old".into(), spec_digest: digest_bytes(spec.as_bytes()) };
    assert!(log.append(&submit));
    drop(log);

    let daemon = Daemon::start(ServeConfig {
        data_dir: dir.clone(),
        workers: 1,
        http_threads: 1,
        ..Default::default()
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    let (code, body) = get(&addr, "/jobs/1");
    assert_eq!(code, 404, "a refused spec must not come back as a job: {body}");
    let (_, metrics) = get(&addr, "/metrics");
    let refused = metrics.lines().find_map(|l| l.strip_prefix("cfpd_serve_specs_refused "));
    assert_eq!(refused, Some("1"), "{metrics}");
    daemon.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A submission with an unknown scenario key is rejected with a 400
/// whose body names the offending key and its line — the operator can
/// fix the spec without reading daemon logs.
#[test]
fn unknown_scenario_keys_reject_with_offender_and_line() {
    let dir = tmp_dir("badkey");
    let daemon =
        Daemon::start(ServeConfig { data_dir: dir.clone(), ..Default::default() }).unwrap();
    let addr = daemon.addr().to_string();

    // Line 8 of the submitted text carries the typo'd key.
    let text = format!("{}heterro = mn4_thunder\n", campaign_text("typo", 2));
    let (code, body) = http_call(&addr, "POST", "/jobs", &text).unwrap();
    assert_eq!(code, 400, "{body}");
    assert!(body.contains("bad campaign spec"), "{body}");
    assert!(body.contains("heterro"), "400 must name the offending key: {body}");
    assert!(body.contains("line 8"), "400 must name the offending line: {body}");

    // A known key with a bogus value is diagnosed just as precisely.
    let text = format!("{}hetero = warp9\n", campaign_text("bogus", 2));
    let (code, body) = http_call(&addr, "POST", "/jobs", &text).unwrap();
    assert_eq!(code, 400, "{body}");
    assert!(body.contains("warp9"), "{body}");
    assert!(body.contains("line 8"), "{body}");
    daemon.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// /metrics is valid Prometheus exposition under the strict lint, with
/// the supervisor's counters present.
#[test]
fn metrics_lint_clean_with_supervisor_series() {
    let dir = tmp_dir("metrics");
    let daemon =
        Daemon::start(ServeConfig { data_dir: dir.clone(), ..Default::default() }).unwrap();
    let addr = daemon.addr().to_string();
    let job = submit(&addr, &campaign_text("observed", 2));
    let _ = result_of(&addr, job);
    let (code, metrics) = get(&addr, "/metrics");
    assert_eq!(code, 200);
    let samples = lint_prometheus(&metrics).expect("metrics must lint clean");
    assert!(samples > 10, "expected a rich document, got {samples} samples");
    for series in [
        "cfpd_serve_jobs_submitted",
        "cfpd_serve_jobs_done",
        "cfpd_serve_checkpoints",
        "cfpd_serve_wal_appends",
        "cfpd_serve_queue_depth",
        "cfpd_serve_state_done",
        "cfpd_core_prepare_builds",
        "cfpd_core_prepare_us_mesh",
        "cfpd_core_prepare_us_rcm",
        "cfpd_core_prepare_us_partition",
        "cfpd_core_prepare_us_plan",
        "cfpd_core_prepare_us_structure",
        "cfpd_core_prepare_us_locator",
        "cfpd_serve_boundary_us_count",
    ] {
        assert!(metrics.contains(series), "missing {series}");
    }
    daemon.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drain: running jobs park on their checkpoints, the daemon exits, and
/// a fresh daemon on the same data dir resumes them to the same bytes.
#[test]
fn drain_parks_running_jobs_and_a_restart_finishes_them() {
    let text = campaign_text("drainee", 30);
    let dir = tmp_dir("drain");
    let daemon = Daemon::start(ServeConfig {
        data_dir: dir.clone(),
        workers: 1,
        http_threads: 1,
        ..Default::default()
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    let job = submit(&addr, &text);
    for _ in 0..500 {
        let (_, body) = get(&addr, &format!("/jobs/{job}"));
        if body.contains("\"running\"") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let (code, body) = http_call(&addr, "POST", "/drain", "").unwrap();
    assert_eq!((code, body.as_str()), (200, "draining\n"));
    daemon.join(); // graceful: returns once workers have parked

    let revived =
        Daemon::start(ServeConfig { data_dir: dir.clone(), ..Default::default() }).unwrap();
    let addr = revived.addr().to_string();
    let (code, status) = get(&addr, &format!("/jobs/{job}"));
    assert_eq!(code, 200, "{status}");
    assert_eq!(result_of(&addr, job), direct_json(&text));
    revived.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /jobs/:id` of a job that ran under `live`, on that daemon once
/// the job is terminal and on a fault-free daemon restarted from its
/// data directory.
fn live_and_replayed_status(tag: &str, live: ServeConfig, text: &str) -> (String, String) {
    let dir = tmp_dir(tag);
    let daemon = Daemon::start(ServeConfig { data_dir: dir.clone(), workers: 1, ..live }).unwrap();
    let addr = daemon.addr().to_string();
    let job = submit(&addr, text);
    let live = poll_terminal(&addr, job);
    daemon.kill();

    let revived =
        Daemon::start(ServeConfig { data_dir: dir.clone(), ..Default::default() }).unwrap();
    let (code, replayed) = get(&revived.addr().to_string(), &format!("/jobs/{job}"));
    assert_eq!(code, 200, "{replayed}");
    revived.kill();
    let _ = std::fs::remove_dir_all(&dir);
    (live, replayed)
}

/// One `Store::apply` writes a job's state for the daemon that runs it
/// and for the daemon that replays its WAL, so the two answer `GET
/// /jobs/:id` with the same bytes — whatever the job went through.
#[test]
fn status_is_the_same_live_and_replayed() {
    let crashing = |crash_first_attempts, retry_max| ServeConfig {
        retry_max,
        backoff_base_ms: 1,
        fault: ServeFaultPlan { crash_first_attempts, ..Default::default() },
        ..Default::default()
    };
    let two_cells = format!("{}[matrix]\nseed = 1, 2\n", campaign_text("twice", 2));
    let overdue = ServeConfig { job_deadline: Some(Duration::ZERO), ..Default::default() };
    for (tag, live, text, expect) in [
        ("same-clean", ServeConfig::default(), two_cells.as_str(), "\"retries\":0"),
        // Every cell crashes once and is retried once.
        ("same-retried", crashing(1, 2), two_cells.as_str(), "\"retries\":2"),
        // A cell that always crashes: one retry, then the attempt that
        // exhausts the budget — which fails the cell and is no retry.
        ("same-exhausted", crashing(10, 1), &campaign_text("doomed", 2), "\"retries\":1"),
        ("same-deadline", overdue, &campaign_text("late", 2), "\"state\":\"failed\""),
    ] {
        let (live, replayed) = live_and_replayed_status(tag, live, text);
        assert!(live.contains(expect), "{tag}: {live}");
        assert_eq!(live, replayed, "{tag}: a restart changed the job's status");
    }

    // Cancelled while queued, behind a job that holds the only slot.
    let dir = tmp_dir("same-cancelled");
    let cfg = || ServeConfig { data_dir: dir.clone(), workers: 1, ..Default::default() };
    let daemon = Daemon::start(cfg()).unwrap();
    let addr = daemon.addr().to_string();
    let holder = submit(&addr, &campaign_text("holder", 300));
    wait_for_state(&addr, holder, "running");
    let queued = submit(&addr, &campaign_text("waiting", 300));
    let (code, body) = http_call(&addr, "DELETE", &format!("/jobs/{queued}"), "").unwrap();
    assert_eq!(code, 200, "queued job cancels immediately: {body}");
    let live = wait_for_state(&addr, queued, "cancelled");
    daemon.kill();
    let revived = Daemon::start(cfg()).unwrap();
    let (_, replayed) = get(&revived.addr().to_string(), &format!("/jobs/{queued}"));
    revived.kill();
    assert_eq!(live, replayed, "a restart changed the cancelled job's status");
    let _ = std::fs::remove_dir_all(&dir);

    // Parked mid-cell. Two slots run `first` and `victim`; `short` is
    // small enough to preempt the larger of them, `victim`, which parks
    // on a snapshot. The restarted daemon has one slot, which `first`
    // takes, so `victim` is still parked when it is asked about: the
    // same status, plus the step the snapshot resumes from.
    let dir = tmp_dir("same-parked");
    let daemon =
        Daemon::start(ServeConfig { data_dir: dir.clone(), workers: 2, ..Default::default() })
            .unwrap();
    let addr = daemon.addr().to_string();
    let first = submit(&addr, &campaign_text("first", 300));
    let victim = submit(&addr, &campaign_text("victim", 1000));
    wait_for_state(&addr, first, "running");
    wait_for_state(&addr, victim, "running");
    submit(&addr, &campaign_text("short", 100));
    let live = wait_for_state(&addr, victim, "checkpointed");
    daemon.kill();
    let revived =
        Daemon::start(ServeConfig { data_dir: dir.clone(), workers: 1, ..Default::default() })
            .unwrap();
    let (_, replayed) = get(&revived.addr().to_string(), &format!("/jobs/{victim}"));
    revived.kill();
    let resumed = cfpd_testkit::parse_json(&replayed)
        .ok()
        .and_then(|v| v.get("resumed_step").and_then(|s| s.as_u64()))
        .unwrap_or_else(|| panic!("the parked job must resume from its snapshot: {replayed}"));
    assert_eq!(
        live,
        replayed.replace(&format!(",\"resumed_step\":{resumed}"), ""),
        "a restart changed the parked job's status"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon of its own process, so that `/metrics` counts its work and
/// not that of the tests running beside this one.
struct ServedProcess {
    child: std::process::Child,
    addr: String,
}

impl ServedProcess {
    fn start(dir: &std::path::Path) -> ServedProcess {
        use std::io::BufRead;
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_cfpd"))
            .args(["serve", "run", "--addr", "127.0.0.1:0", "--data"])
            .arg(dir)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn cfpd serve run");
        let mut line = String::new();
        std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut line)
            .expect("the daemon's first line");
        let addr = line.trim().strip_prefix("cfpd-serve listening on ").map(String::from);
        let addr = addr.unwrap_or_else(|| panic!("unexpected first line {line:?}"));
        ServedProcess { child, addr }
    }
}

impl Drop for ServedProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A `dlb = on` cell is a segment chain on the daemon's own
/// `PrepareMemo`, like every cell: next to a `dlb = off` cell of the
/// same mesh it costs a memo hit, not a second set-up.
#[test]
fn a_dlb_cell_shares_the_daemons_set_up() {
    let text = format!("{}[matrix]\ndlb = off, on\n", campaign_text("shared-set-up", 2));
    let dir = tmp_dir("shared-set-up");
    let daemon = ServedProcess::start(&dir);
    let job = submit(&daemon.addr, &text);
    assert_eq!(result_of(&daemon.addr, job), direct_json(&text));
    let (_, metrics) = get(&daemon.addr, "/metrics");
    let counter = |name: &str| {
        let value = metrics.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
        value.map_or(0, |v| v.parse::<u64>().expect("a counter value"))
    };
    assert_eq!(
        (counter("cfpd_core_prepare_builds"), counter("cfpd_core_prepare_hits")),
        (1, 1),
        "two cells on one mesh: one set-up built, one found"
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A peer that connects and sends nothing holds an accept thread only
/// until the socket's timeout: with every accept thread so taken, the
/// next request is answered once the first of them expires, and `kill`
/// still joins.
#[test]
fn idle_connections_cannot_pin_the_accept_pool() {
    use cfpd_serve::http::IO_TIMEOUT;
    use std::net::TcpStream;
    let dir = tmp_dir("idle");
    let cfg = ServeConfig { data_dir: dir.clone(), ..Default::default() };
    let idle_peers = |addr: &str| -> Vec<TcpStream> {
        (0..cfg.http_threads).map(|_| TcpStream::connect(addr).expect("connect")).collect()
    };
    let daemon = Daemon::start(cfg.clone()).unwrap();
    let addr = daemon.addr().to_string();
    let patience = IO_TIMEOUT + Duration::from_secs(1);

    // The listen queue is first in, first out: both idle peers are
    // accepted before the request that follows them.
    let idle = idle_peers(&addr);
    let t0 = Instant::now();
    let (code, body) = get(&addr, "/healthz");
    assert_eq!((code, body.as_str()), (200, "ok\n"));
    assert!(t0.elapsed() <= patience, "/healthz took {:?}", t0.elapsed());

    let idle_again = idle_peers(&addr);
    std::thread::sleep(Duration::from_millis(50)); // let the accept threads take them
    let t0 = Instant::now();
    daemon.kill();
    assert!(t0.elapsed() <= patience, "kill took {:?}", t0.elapsed());
    drop((idle, idle_again));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `pop` object of a finished job's `/jobs/:id/progress`.
fn progress_pop(addr: &str, job: u64) -> cfpd_testkit::JsonValue {
    poll_terminal(addr, job);
    let (code, body) = get(addr, &format!("/jobs/{job}/progress"));
    assert_eq!(code, 200, "{body}");
    let doc = cfpd_testkit::parse_json(&body).expect("progress is valid JSON");
    doc.get("pop").cloned().unwrap_or_else(|| panic!("no pop in {body}"))
}

/// A job cut into one segment per step reads its efficiencies off the
/// sum of its segments' phase records, walls summed with useful time:
/// parallel efficiency stays in (0, 1] and equals LB x CommE.
#[test]
fn a_segmented_jobs_progress_efficiency_is_at_most_one() {
    let dir = tmp_dir("pop-segments");
    let cfg = ServeConfig { data_dir: dir.clone(), ckpt_interval: 1, ..Default::default() };
    let daemon = Daemon::start(cfg).unwrap();
    let addr = daemon.addr().to_string();
    let job = submit(&addr, &campaign_text("pop-segments", 8));
    let pop = progress_pop(&addr, job);
    let f = |key: &str| pop.get(key).and_then(|v| v.as_f64()).unwrap_or_else(|| panic!("{key}"));
    let (pe, lb, comm_e) = (f("parallel_efficiency"), f("load_balance"), f("comm_efficiency"));
    for (name, v) in [("PE", pe), ("LB", lb), ("CommE", comm_e)] {
        assert!(v > 0.0 && v <= 1.0, "{name} = {v} in {pop:?}");
    }
    assert!((pe - lb * comm_e).abs() <= 1e-9, "PE {pe} != LB {lb} x CommE {comm_e}");
    daemon.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each job's progress reports its own rollup: a second job running to
/// completion on the same daemon leaves the first one's numbers as
/// they were.
#[test]
fn a_finished_jobs_progress_pop_is_not_moved_by_the_next_job() {
    let dir = tmp_dir("pop-own");
    let daemon = Daemon::start(ServeConfig { data_dir: dir.clone(), ..Default::default() }).unwrap();
    let addr = daemon.addr().to_string();
    let first = submit(&addr, &campaign_text("pop-own-a", 2));
    let before = progress_pop(&addr, first);
    assert!(before.get("parallel_efficiency").is_some(), "{before:?}");
    let second = submit(&addr, &campaign_text("pop-own-b", 3));
    poll_terminal(&addr, second);
    assert_eq!(progress_pop(&addr, first), before, "job {second} moved job {first}'s rollup");
    daemon.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

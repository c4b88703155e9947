//! Snapshot format v2 under damage, and what becomes of a format this
//! build no longer reads.
//!
//! Its own test binary: `recover`'s refusal counter is process-global
//! telemetry, and `serve_resilience`'s kill sweeps refuse snapshots of
//! their own (a file one boundary newer than the last durable pin).

use cfpd_campaign::{run_campaign, CampaignSpec};
use cfpd_core::Checkpoint;
use cfpd_serve::http::http_call;
use cfpd_serve::wal::{replay, PersistGate, Wal, WalRecord};
use cfpd_serve::{CellSnapshot, Daemon, ServeConfig};
use cfpd_testkit::{digest_bytes, parse_json};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/serve_parent_snapshot")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cfpd-snapfmt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The fixture's snapshot and the digest its WAL pins.
fn pinned_fixture() -> (String, u64) {
    let text = std::fs::read_to_string(fixture().join("job-1-cell-0.snap")).unwrap();
    match replay(&fixture().join("wal.log")).records.last() {
        Some(WalRecord::Ckpt { snap_digest, .. }) => (text, *snap_digest),
        other => panic!("the fixture's WAL ends in {other:?}, not in a ckpt record"),
    }
}

/// What `recover` does with a pinned file, on text: snapshot against its
/// pin, then the checkpoint inside it.
fn restore(text: &str, pin: u64) -> Result<Checkpoint, String> {
    Checkpoint::from_text(&CellSnapshot::from_pinned_text(text, pin)?.checkpoint_text)
}

/// A real 151 KB snapshot, damaged every way a disk or a crash damages a
/// file: the guards refuse it — an `Err`, never a panic, never a state.
#[test]
fn a_damaged_v2_snapshot_is_refused_at_both_levels() {
    let (text, pin) = pinned_fixture();
    restore(&text, pin).expect("the undamaged file restores");
    let refused = |bytes: &[u8], what: &str| match std::str::from_utf8(bytes) {
        // `recover` reads with `read_to_string`: not UTF-8 is refused there.
        Err(_) => {}
        Ok(damaged) => assert!(restore(damaged, pin).is_err(), "{what} restored"),
    };

    // Every 97th byte, each of its bits in turn across the sweep.
    for (k, pos) in (0..text.len()).step_by(97).enumerate() {
        let mut bytes = text.clone().into_bytes();
        bytes[pos] ^= 1 << (k % 8);
        refused(&bytes, &format!("bit {} of byte {pos} flipped", k % 8));
    }

    // Truncation at every line start of the header, at a sample of the
    // body's, and inside a line; zero-extension.
    let line_starts: Vec<usize> =
        text.match_indices('\n').map(|(i, _)| i + 1).filter(|&i| i < text.len()).collect();
    let header = line_starts.iter().take(16);
    for &cut in header.chain(line_starts.iter().step_by(53)) {
        refused(&text.as_bytes()[..cut], &format!("truncation at byte {cut}"));
        refused(&text.as_bytes()[..cut + 1], &format!("truncation at byte {}", cut + 1));
    }
    refused(format!("{text}\0").as_bytes(), "a zero byte appended");

    // A header digest swapped for another well-formed one fails the pin;
    // with the pin swapped to match (a stale WAL record), the body check.
    let other = pin.rotate_left(8);
    let swapped = text.replacen(&format!("digest {pin:016x}"), &format!("digest {other:016x}"), 1);
    assert_ne!(swapped, text);
    assert!(restore(&swapped, pin).unwrap_err().contains("the WAL pins"));
    assert!(restore(&swapped, other).unwrap_err().contains("digest mismatch"));

    // The inner level on its own: the checkpoint text with the snapshot's
    // guard out of the way (which is how a checkpoint travels outside
    // `cfpd serve`).
    let cp_text = CellSnapshot::from_text(&text).unwrap().checkpoint_text;
    for (k, pos) in (0..cp_text.len()).step_by(97).enumerate() {
        let mut bytes = cp_text.clone().into_bytes();
        bytes[pos] ^= 1 << (k % 8);
        if let Ok(damaged) = std::str::from_utf8(&bytes) {
            assert!(Checkpoint::from_text(damaged).is_err(), "checkpoint byte {pos} flipped");
        }
    }
    for cut in cp_text.match_indices('\n').map(|(i, _)| i + 1).step_by(41) {
        if cut < cp_text.len() {
            assert!(Checkpoint::from_text(&cp_text[..cut]).is_err(), "checkpoint cut at {cut}");
        }
    }
}

/// A data directory a format-v1 daemon left behind — a v1 snapshot and
/// the v1 pin of it (FNV-1a of the whole file) in the WAL — on a daemon
/// that reads v2 only: the snapshot is refused by its magic line, the
/// refusal is counted, the cell restarts from step 0 (the path a torn
/// snapshot takes) and the job still serves the direct run's bytes.
#[test]
fn a_v1_data_directory_restarts_the_cell_and_counts_the_refusal() {
    let dir = tmp_dir("v1-dir");
    let spec = std::fs::read_to_string(fixture().join("job-1.campaign")).unwrap();
    std::fs::write(dir.join("job-1.campaign"), &spec).unwrap();

    // v1 as its writers laid it out: both magic lines, FNV-1a body digest
    // in the header, FNV-1a of the whole file in the `ckpt` record.
    let v2 = pinned_fixture().0;
    let body = v2.splitn(3, '\n').nth(2).unwrap();
    let body = body.replacen("cfpd checkpoint v2", "cfpd checkpoint v1", 1);
    let header_digest = digest_bytes(body.as_bytes());
    let v1 = format!("cfpd serve snapshot v1\ndigest {header_digest:016x}\n{body}");
    assert_eq!(v1.len(), v2.len());
    std::fs::write(dir.join("job-1-cell-0.snap"), &v1).unwrap();
    let wal = Wal::open(&dir.join("wal.log"), "", 1, PersistGate::unlimited()).unwrap();
    for rec in [
        WalRecord::Submit {
            job: 1,
            name: "parent_fixture".into(),
            spec_digest: digest_bytes(spec.as_bytes()),
        },
        WalRecord::Start { job: 1, cell: 0, attempt: 0 },
        WalRecord::Ckpt { job: 1, cell: 0, step: 1, snap_digest: digest_bytes(v1.as_bytes()) },
    ] {
        assert!(wal.append(&rec));
    }
    drop(wal);

    let daemon = Daemon::start(ServeConfig {
        data_dir: dir.clone(),
        workers: 1,
        http_threads: 1,
        ..Default::default()
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    let get = |path: &str| http_call(&addr, "GET", path, "").expect("daemon reachable");

    let (code, status) = get("/jobs/1");
    assert_eq!(code, 200, "{status}");
    let status = parse_json(&status).unwrap();
    assert!(status.get("resumed_step").is_none(), "a refused snapshot resumes nothing");
    let (_, metrics) = get("/metrics");
    let refused = metrics.lines().find_map(|l| l.strip_prefix("cfpd_serve_snapshots_refused "));
    assert_eq!(refused, Some("1"), "{metrics}");

    let mut done = false;
    for _ in 0..3000 {
        done = get("/jobs/1").1.contains("\"state\":\"done\"");
        if done {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(done, "the restarted cell never finished");
    let direct = run_campaign(&CampaignSpec::from_text(&spec).unwrap(), Some(1)).render_json();
    assert_eq!(get("/jobs/1/result").1, direct);
    daemon.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

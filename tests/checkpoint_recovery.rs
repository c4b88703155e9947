//! Checkpoint corruption-path recovery.
//!
//! Every way a checkpoint file can go bad on disk — truncation at an
//! arbitrary byte, a flipped digest digit, a header rewritten to point
//! at the wrong step — must surface as `Err` from the codec or the
//! validator, never a panic, and must leave the run resumable from the
//! previous *good* checkpoint: restoring that one and finishing the run
//! reproduces the uninterrupted logical log exactly.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use cfpd_core::{
    golden_config, run_simulation_fallible, run_simulation_opts, Checkpoint, RunOptions,
    SimulationConfig,
};

const RANKS: usize = 2;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cfpd_ckpt_test_{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

fn capture_at(config: &SimulationConfig, step: usize) -> Checkpoint {
    let r = run_simulation_opts(
        config,
        RANKS,
        1,
        &RunOptions { stop_after: Some(step), ..Default::default() },
    );
    r.checkpoint.expect("checkpoint captured")
}

/// A checkpoint file cut off at any byte offset parses to `Err`, never
/// a panic and never a silently-shortened checkpoint.
#[test]
fn truncated_file_is_an_error_at_every_cut_point() {
    let cp = capture_at(&golden_config(), 1);
    let text = cp.to_text();
    let path = scratch("truncated.ckpt");

    // Sweep cut points across the whole file, including mid-line cuts.
    // (Dropping only the final newline is legal — `lines()` accepts an
    // unterminated last line — so the deepest cut also removes the last
    // payload character.)
    let cuts: Vec<usize> = (1..20)
        .map(|i| i * text.len() / 20)
        .chain([text.len() - 2])
        .collect();
    for cut in cuts {
        fs::write(&path, &text.as_bytes()[..cut]).expect("write truncated file");
        let read_back = fs::read_to_string(&path).expect("read truncated file");
        let err = Checkpoint::from_text(&read_back)
            .expect_err(&format!("cut at byte {cut}/{} must not parse", text.len()));
        assert!(!err.is_empty());
    }

    // The untruncated file still parses: the loop above failed because
    // of the cuts, not some unrelated file problem.
    fs::write(&path, &text).expect("write full file");
    let full = fs::read_to_string(&path).expect("read full file");
    assert_eq!(Checkpoint::from_text(&full).expect("full file parses"), cp);
}

/// Flipping a single digit of the header digest is caught even though
/// the body is intact — and the error names both digests.
#[test]
fn flipped_digest_is_rejected() {
    let cp = capture_at(&golden_config(), 1);
    let text = cp.to_text();

    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    assert!(lines[1].starts_with("digest "));
    // The last hex digit, whatever it is, becomes another one.
    let last = lines[1].pop().expect("a digest digit");
    lines[1].push(if last == '0' { '1' } else { '0' });

    let err = Checkpoint::from_text(&(lines.join("\n") + "\n")).unwrap_err();
    assert!(err.contains("digest mismatch"), "unexpected error: {err}");
}

/// A payload flip deep in the body is equally fatal: the digest covers
/// every value, not just the header.
#[test]
fn flipped_payload_is_rejected() {
    let cp = capture_at(&golden_config(), 1);
    let text = cp.to_text();

    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let idx = lines
        .iter()
        .position(|l| l.starts_with("P "))
        .expect("checkpoint has a pressure line");
    let flipped: String = lines[idx]
        .chars()
        .map(|c| match c {
            'a' => 'b',
            'b' => 'a',
            '3' => '4',
            '4' => '3',
            other => other,
        })
        .collect();
    if flipped == lines[idx] {
        // All-zero payload: flip a zero instead.
        lines[idx] = lines[idx].replacen('0', "f", 1);
    } else {
        lines[idx] = flipped;
    }

    let err = Checkpoint::from_text(&(lines.join("\n") + "\n")).unwrap_err();
    assert!(err.contains("digest mismatch"), "unexpected error: {err}");
}

/// A checkpoint whose `next_step` points beyond the run, or that was
/// taken under a different configuration or rank count, is refused by
/// the validator with an `Err` — the caller decides what to do next.
#[test]
fn wrong_step_and_wrong_config_restarts_are_errors() {
    let config = golden_config();
    let cp = capture_at(&config, 1);

    // Wrong step: past the end of the run.
    let mut wrong_step = cp.clone();
    wrong_step.next_step = config.steps + 5;
    let err = wrong_step.validate_for(&config, RANKS).unwrap_err();
    assert!(err.contains("beyond"), "unexpected error: {err}");

    // Wrong universe shape.
    let err = cp.validate_for(&config, RANKS + 1).unwrap_err();
    assert!(err.contains("ranks"), "unexpected error: {err}");

    // Wrong configuration.
    let other = SimulationConfig { seed: config.seed + 1, ..config.clone() };
    let err = cp.validate_for(&other, RANKS).unwrap_err();
    assert!(err.contains("config digest"), "unexpected error: {err}");

    // The genuine article still validates.
    cp.validate_for(&config, RANKS).expect("good checkpoint validates");

    // The fallible entry point keeps its promise for each of them: a
    // refused restore is an `Err` with the validator's reason, not a
    // panic (and so is a mesh the generator rejects).
    let refused = |config: &SimulationConfig, ranks: usize, cp: &Checkpoint| {
        let opts = RunOptions { restore: Some(Arc::new(cp.clone())), ..Default::default() };
        let fails = run_simulation_fallible(config, ranks, 1, &opts).expect_err("refused");
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].1.contains("refusing to restore checkpoint"), "{fails:?}");
        fails[0].1.clone()
    };
    assert!(refused(&config, RANKS, &wrong_step).contains("beyond"));
    assert!(refused(&config, RANKS + 1, &cp).contains("ranks"));
    assert!(refused(&other, RANKS, &cp).contains("config digest"));
    let mut bad_mesh = config.clone();
    bad_mesh.airway.trachea_radius = -1.0;
    let fails =
        run_simulation_fallible(&bad_mesh, RANKS, 1, &RunOptions::default()).expect_err("refused");
    assert!(fails[0].1.contains("invalid airway spec"), "{fails:?}");
}

/// The recovery story end to end: the newest checkpoint file is
/// corrupt, so the driver falls back to the previous one — and the
/// resumed run is indistinguishable from the uninterrupted run.
#[test]
fn run_resumes_from_previous_checkpoint_after_corruption() {
    let config = golden_config();

    // Uninterrupted reference run.
    let full = run_simulation_opts(&config, RANKS, 1, &RunOptions::default());

    // Two generations of checkpoint files on disk: step 1 (older, good)
    // and step 2 (newer, corrupted in transit).
    let cp1 = capture_at(&config, 1);
    let cp2 = capture_at(&config, 2);
    let good_path = scratch("step1.ckpt");
    let bad_path = scratch("step2.ckpt");
    fs::write(&good_path, cp1.to_text()).expect("write step-1 checkpoint");
    let corrupt = {
        let text = cp2.to_text();
        let cut = text.len() * 3 / 4;
        text[..cut].to_string()
    };
    fs::write(&bad_path, corrupt).expect("write corrupted step-2 checkpoint");

    // Restart driver logic: newest first, fall back on error.
    let newest = fs::read_to_string(&bad_path).expect("read newest");
    assert!(
        Checkpoint::from_text(&newest).is_err(),
        "corrupted newest checkpoint must be rejected"
    );
    let previous = fs::read_to_string(&good_path).expect("read previous");
    let restored = Checkpoint::from_text(&previous).expect("previous checkpoint parses");
    restored.validate_for(&config, RANKS).expect("previous checkpoint validates");

    // Resume and stitch: steps before the split from the reference run,
    // the rest from the resumed run.
    let resumed = run_simulation_opts(
        &config,
        RANKS,
        1,
        &RunOptions { restore: Some(Arc::new(restored)), ..Default::default() },
    );
    assert_eq!(resumed.census, full.census, "restored run changed the particle census");
    let tail_expected: Vec<_> =
        full.logical.iter().filter(|e| e.step() >= 1).cloned().collect();
    assert_eq!(
        resumed.logical, tail_expected,
        "resumed run diverged from the uninterrupted run"
    );
}

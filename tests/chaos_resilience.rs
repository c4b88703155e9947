//! Chaos-layer resilience suite: the deterministic fault schedule, LeWI
//! core conservation under stall/crash scripts, golden-file stability
//! with chaos compiled in but disabled, and checkpoint/restart
//! invisibility in the golden document.

use cfpd_core::{golden_config, golden_trace, golden_trace_split, Checkpoint};
use cfpd_dlb::DlbNode;
use cfpd_runtime::ThreadPool;
use cfpd_simmpi::{FaultConfig, FaultPlan};
use cfpd_testkit::prop::{self, usize_range, PropConfig};
use cfpd_testkit::rng::Rng;
use std::path::PathBuf;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Fault schedule determinism
// ---------------------------------------------------------------------

/// Property: the fault plan is a pure function of the seed and the
/// message coordinates — two plans with the same seed agree on every
/// decision, and a different seed produces a different schedule
/// somewhere (no degenerate constant plans).
#[test]
fn prop_fault_schedule_is_pure_in_the_seed() {
    prop::check(
        "same seed, same schedule",
        PropConfig::cases(40),
        &usize_range(0, 1 << 20),
        |&seed| {
            let a = FaultPlan::new(FaultConfig::benign(seed as u64));
            let b = FaultPlan::new(FaultConfig::benign(seed as u64));
            for seq in 0..64 {
                for tag in [0u64, 10, 11, u64::MAX - 2] {
                    assert_eq!(
                        a.decide_send(0, 0, 1, tag, seq),
                        b.decide_send(0, 0, 1, tag, seq),
                        "seed {seed} tag {tag} seq {seq}"
                    );
                }
                assert_eq!(a.decide_stall(0, seq), b.decide_stall(0, seq));
            }
        },
    );
}

/// Decisions must not depend on query order (a plan is stateless): ask
/// for the same coordinates twice, interleaved with other queries.
#[test]
fn fault_schedule_is_stateless_across_query_order() {
    let plan = FaultPlan::new(FaultConfig::benign(99));
    let forward: Vec<_> = (0..100).map(|s| plan.decide_send(1, 0, 1, 10, s)).collect();
    // Interleave unrelated queries, then ask in reverse order.
    for s in 0..50 {
        plan.decide_send(2, 1, 0, 7, s);
        plan.decide_stall(1, s);
    }
    let backward: Vec<_> = (0..100)
        .rev()
        .map(|s| plan.decide_send(1, 0, 1, 10, s))
        .collect();
    let backward: Vec<_> = backward.into_iter().rev().collect();
    assert_eq!(forward, backward);
}

// ---------------------------------------------------------------------
// LeWI conservation under chaos (stalls, crashes)
// ---------------------------------------------------------------------

const RANKS: usize = 4;

/// Random stall/crash scripts against one DLB node: after every
/// operation the core-conservation invariant of `DlbNode::conservation`
/// must hold — chaos may move cores, never mint or leak them.
fn lewi_chaos_script(owned: &[usize; RANKS], seed: u64) {
    let total: usize = owned.iter().sum();
    let node = DlbNode::new();
    for (r, &o) in owned.iter().enumerate() {
        node.register(r, Arc::new(ThreadPool::new(total)), o);
    }
    let mut rng = Rng::new(seed);
    // blocked[r] mirrors what the script has done; crashes are sticky.
    let mut blocked = [false; RANKS];
    let mut crashed = [false; RANKS];
    for op in 0..200 {
        let r = rng.range_usize(0, RANKS);
        match rng.range_usize(0, 8) {
            // Stall entry: the rank blocks (lends).
            0..=3 => {
                if !blocked[r] && !crashed[r] {
                    node.lend(r);
                    blocked[r] = true;
                }
            }
            // Stall exit: the rank unblocks (reclaims).
            4..=6 => {
                if blocked[r] && !crashed[r] {
                    node.reclaim(r);
                    blocked[r] = false;
                }
            }
            // Fail-silent crash (rare; at most half the ranks so the
            // node keeps survivors).
            _ => {
                if crashed.iter().filter(|&&c| c).count() < RANKS / 2 && !crashed[r] {
                    node.mark_crashed(r);
                    crashed[r] = true;
                    blocked[r] = true;
                }
            }
        }
        let (have, want) = node.conservation();
        assert_eq!(
            have, want,
            "core conservation broken after op {op} (seed {seed})"
        );
    }
    // Recovery: every surviving blocked rank reclaims; conservation must
    // still hold at quiescence.
    for r in 0..RANKS {
        if blocked[r] && !crashed[r] {
            node.reclaim(r);
        }
    }
    let (have, want) = node.conservation();
    assert_eq!(have, want, "conservation broken at quiescence (seed {seed})");
}

/// Even allotment: every rank owns two cores.
#[test]
fn lewi_conserves_cores_under_chaos_keepone_even() {
    for seed in 0..12 {
        lewi_chaos_script(&[2, 2, 2, 2], seed);
    }
}

/// Uneven allotment: rank 0 owns half the node and ranks 2 and 3 one
/// core each, so a blocked one-core rank lends its only core.
#[test]
fn lewi_conserves_cores_under_chaos_lendall_neediest() {
    for seed in 0..12 {
        lewi_chaos_script(&[4, 2, 1, 1], seed);
    }
}

// ---------------------------------------------------------------------
// Golden-file guards
// ---------------------------------------------------------------------

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/sync_small.golden")
}

/// With the chaos layer compiled in but no fault plan configured, the
/// golden document must remain byte-identical to the checked-in file:
/// the whole fault machinery is free of observable side effects when
/// disabled.
#[test]
fn chaos_disabled_keeps_the_golden_file_byte_identical() {
    let expected = std::fs::read_to_string(golden_path()).expect("golden file present");
    let actual = golden_trace(&golden_config(), 2);
    assert_eq!(actual, expected, "disabled chaos layer perturbed the golden trace");
}

/// Checkpoint/restart acceptance gate: splitting the canonical run at a
/// step boundary (checkpoint → text round-trip → restore) renders the
/// *same bytes* as the checked-in golden file.
#[test]
fn checkpoint_restart_split_matches_the_golden_file() {
    let expected = std::fs::read_to_string(golden_path()).expect("golden file present");
    let cfg = golden_config();
    for split in 1..cfg.steps {
        let actual = golden_trace_split(&cfg, 2, split);
        assert_eq!(actual, expected, "split after step {split} is visible in the golden file");
    }
}

/// The checkpoint text codec is stable across a double round-trip and
/// the digest spots single-character corruption anywhere in the body.
#[test]
fn checkpoint_codec_round_trips_through_the_real_simulation() {
    use cfpd_core::{run_scenario, RunOptions, Scenario};
    let mut cfg = golden_config();
    cfg.airway.generations = 1;
    cfg.num_particles = 50;
    cfg.steps = 2;
    let opts = RunOptions { stop_after: Some(1), ..Default::default() };
    let r = run_scenario(&Scenario { opts, ..Scenario::deterministic(cfg, 2) }).result;
    let cp = r.checkpoint.expect("checkpoint captured");
    let text = cp.to_text();
    let once = Checkpoint::from_text(&text).expect("first round-trip");
    assert_eq!(once.to_text(), text, "codec is not a fixed point");
    assert_eq!(once, cp);
}

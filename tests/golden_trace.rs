//! Golden-trace regression suite: the canonical small run, serialized
//! as a wall-clock-free event trace with bit-pattern floats, must stay
//! byte-identical to the checked-in golden file — and identical across
//! repeated runs, both in-process and through the `cfpd golden` binary.
//!
//! Regenerate the golden after an *intended* physics change:
//! `CFPD_BLESS=1 cargo test -p cfpd-serve --test golden_trace`

use cfpd_core::{
    golden_config, golden_trace, run_scenario, ExecutionMode, LayoutPlan, RunOptions, Scenario,
};
use std::path::PathBuf;

const GOLDEN_RANKS: usize = 2;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/sync_small.golden")
}

fn opt_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/sync_small_opt.golden")
}

fn assert_matches_golden(actual: &str, path: &PathBuf) {
    if std::env::var_os("CFPD_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, actual).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with CFPD_BLESS=1", path.display()));
    if actual != expected {
        // Locate the first diverging line for a readable failure.
        let mismatch = actual
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match mismatch {
            Some((i, (a, b))) => panic!(
                "golden trace diverges at line {}:\n  actual:   {a}\n  expected: {b}\n\
                 (CFPD_BLESS=1 to regenerate after an intended change)",
                i + 1
            ),
            None => panic!(
                "golden trace length changed: {} vs {} lines",
                actual.lines().count(),
                expected.lines().count()
            ),
        }
    }
}

/// The physics gate: any bit drift in assembly, solves, fields,
/// migration or deposition shows up as a diff against the golden file.
#[test]
fn trace_matches_checked_in_golden() {
    let actual = golden_trace(&golden_config(), GOLDEN_RANKS);
    assert_matches_golden(&actual, &golden_path());
}

/// The flight recorder is timing-only by contract: with the ring
/// buffer recording every phase transition and solver heartbeat, both
/// goldens must still match byte-for-byte. (Enabling is safe under
/// parallel tests — recording never feeds back into physics.)
#[test]
fn goldens_are_byte_identical_with_flight_recorder_on() {
    cfpd_flight::set_enabled(true);
    let actual = golden_trace(&golden_config(), GOLDEN_RANKS);
    assert_matches_golden(&actual, &golden_path());
    let mut cfg = golden_config();
    cfg.layout = LayoutPlan::optimized();
    let actual = golden_trace(&cfg, GOLDEN_RANKS);
    assert_matches_golden(&actual, &opt_golden_path());
    assert!(
        !cfpd_flight::events().is_empty(),
        "the recorder must actually have captured the run it observed"
    );
    cfpd_flight::set_enabled(false);
}

/// The locality-optimized path (RCM + batched assembly + SELL SpMV) is
/// deterministic too and pinned by its own golden file — the default
/// golden above proves the optimization is invisible when disabled.
#[test]
fn opt_layout_trace_matches_its_own_golden() {
    let mut cfg = golden_config();
    cfg.layout = LayoutPlan::optimized();
    let actual = golden_trace(&cfg, GOLDEN_RANKS);
    assert!(
        actual.lines().nth(2).unwrap_or("").ends_with("layout=opt"),
        "opt trace must be marked in the run header"
    );
    assert_matches_golden(&actual, &opt_golden_path());
}

/// Determinism in-process: two runs in the same process produce
/// byte-identical traces.
#[test]
fn trace_is_reproducible_in_process() {
    let cfg = golden_config();
    let first = golden_trace(&cfg, GOLDEN_RANKS);
    let second = golden_trace(&cfg, GOLDEN_RANKS);
    assert!(!first.is_empty());
    assert_eq!(first, second, "same-process runs diverged");
}

/// The contract holds at more than one thread: two workers per rank
/// (pools of four) render the document of one worker per rank, byte for
/// byte, on both layouts — every sweep either writes disjoint rows or
/// sums in an order fixed by its plan, never by who ran what.
#[test]
fn two_threads_per_rank_render_the_one_thread_document() {
    for layout in [LayoutPlan::disabled(), LayoutPlan::optimized()] {
        let mut cfg = golden_config();
        cfg.layout = layout;
        let one = golden_trace(&cfg, GOLDEN_RANKS);
        let two = run_scenario(&Scenario {
            threads: 2,
            ..Scenario::deterministic(cfg, GOLDEN_RANKS)
        });
        assert_eq!(two.doc, one, "threads = 2 diverged from threads = 1 ({layout:?})");
    }
}

/// … and under LeWI: in `coupled:1+1` with DLB on, the particle rank
/// lends its only core whenever it blocks, so the fluid rank's pool
/// grows and shrinks in the middle of its sweeps at times no two runs
/// share. The document is the DLB-off one both times.
#[test]
fn a_pool_lewi_resizes_renders_the_same_document_every_run() {
    let mut cfg = golden_config();
    cfg.layout = LayoutPlan::optimized();
    cfg.mode = ExecutionMode::Coupled { fluid: 1, particles: 1 };
    let run = |dlb: bool| {
        run_scenario(&Scenario {
            opts: RunOptions { dlb, ..Default::default() },
            ..Scenario::deterministic(cfg.clone(), GOLDEN_RANKS)
        })
    };
    let off = run(false);
    let (first, second) = (run(true), run(true));
    assert_eq!(first.doc, second.doc, "two DLB runs diverged");
    assert_eq!(first.doc, off.doc, "lending changed the physics");
    let stats = first.result.dlb.expect("DLB was on");
    assert!(stats.grants > 0, "the particle rank never lent its core: {stats:?}");
}

/// Determinism across processes: running the actual `cfpd` binary twice
/// yields byte-identical stdout.
#[test]
fn cfpd_golden_subcommand_is_byte_identical_across_runs() {
    let run = || {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cfpd"))
            .args(["golden", "--ranks", "2"])
            .output()
            .expect("spawn cfpd");
        assert!(
            out.status.success(),
            "cfpd golden failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty());
    assert_eq!(first, second, "cfpd golden output differs between runs");
    // The binary serializes the same trace the library produces.
    let in_process = golden_trace(&golden_config(), GOLDEN_RANKS);
    assert_eq!(String::from_utf8(first).unwrap(), in_process);
}

/// A flag value that does not parse, a rank or thread count of zero and
/// a flag the verb does not read are usage errors like any other: exit 2
/// with a message naming the flag, before anything runs — not a panic,
/// and not a silent fall-back to the default mode.
#[test]
fn cfpd_refuses_flag_values_that_do_not_parse() {
    for (args, flag) in [
        (&["run", "--ranks", "abc"][..], "--ranks"),
        (&["run", "--steps"][..], "--steps"),
        (&["run", "--coupled", "1"][..], "--coupled"),
        (&["run", "--coupled", "1", "--dlb"][..], "--coupled"),
        (&["chaos", "--seed", "x"][..], "--seed"),
        (&["campaign", "run", "examples/campaigns/tiny.campaign", "--jobs", "-1"][..], "--jobs"),
        (&["run", "--ranks", "0"][..], "--ranks"),
        (&["run", "--threads", "0", "--steps", "1"][..], "--threads"),
        (&["golden", "--ranks", "0"][..], "--ranks"),
        // A flag the verb does not read, such as a misspelt `--ranks`.
        (&["run", "--rank", "4", "--steps", "1"][..], "--rank"),
        (&["golden", "--seed", "7"][..], "--seed"),
        (&["campaign", "expand", "examples/campaigns/tiny.campaign", "--job", "2"][..], "--job"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cfpd"))
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR").to_owned() + "/../..")
            .output()
            .expect("spawn cfpd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("{flag}:")), "{args:?} must name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran before refusing");
    }
}

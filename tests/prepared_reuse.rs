//! One set-up, many runs: what `cfpd_core::prepare` builds from a
//! `PrepareKey` may be shared by every run on that key without any of
//! them noticing.
//!
//! * Configurations that differ only in what the key leaves out (seed,
//!   particles, steps, inflow, `dt`, tolerances, DLB, a hetero profile)
//!   render the same document on a `Prepared` other runs have used as on
//!   a fresh one.
//! * Cells of several keys, interleaved at random on one two-entry
//!   `PrepareMemo` and each cut into random segments, stitch to the
//!   digest of their uninterrupted `run_scenario` — on 1 and 2 ranks,
//!   both layouts, hits, misses and rebuilt-after-eviction alike.

use cfpd_campaign::{cell_metrics, expand, CampaignSpec, Cell};
use cfpd_core::{
    prepare, run_scenario, run_scenario_prepared, Checkpoint, PrepareMemo, RunOptions, Scenario,
    SimulationConfig,
};
use cfpd_serve::runner::{finish_cell_metrics, run_segment};
use cfpd_serve::CellAcc;
use cfpd_testkit::prop::{self, PropConfig};
use std::sync::Arc;

const STEPS: usize = 3;

/// Eight cells on four keys (layout × subdomain count), two seeds each.
fn cells(ranks: usize) -> Vec<Cell> {
    let text = format!(
        "[campaign]\nname = reuse\n[scenario]\nranks = {ranks}\ngenerations = 1\n\
         particles = 30\nsteps = {STEPS}\n[matrix]\nlayout = default, opt\n\
         subdomains = 16, 5\nseed = 1, 2\n"
    );
    expand(&CampaignSpec::from_text(&text).unwrap()).unwrap()
}

#[test]
fn runs_that_share_a_key_cannot_tell_a_reused_set_up_from_a_fresh_one() {
    let base = cells(2).swap_remove(0).scenario;
    let vary = |f: &dyn Fn(&mut Scenario)| {
        let mut s = base.clone();
        f(&mut s);
        s
    };
    let variants = [
        base.clone(),
        vary(&|s| s.config.seed = 77),
        vary(&|s| s.config.num_particles = 11),
        vary(&|s| s.config.steps = 1),
        vary(&|s| s.config.inflow_speed = 0.9),
        vary(&|s| s.config.dt = 5e-5),
        vary(&|s| s.config = SimulationConfig { solver_tol: 1e-8, ..s.config.clone() }),
        vary(&|s| {
            s.opts.dlb = true;
            s.opts.hetero = Some(cfpd_hetero::profile_by_name("mn4_thunder", 77).unwrap());
        }),
    ];
    let shared = prepare(&base.prepare_key()).unwrap();
    // Twice over: the second round finds everything the first one left
    // behind (the published pressure operator above all).
    for round in 0..2 {
        for (i, s) in variants.iter().enumerate() {
            assert_eq!(s.prepare_key().digest(), shared.key_digest(), "variant {i}");
            let fresh = run_scenario(s);
            let reused = run_scenario_prepared(&shared, s);
            assert_eq!(reused.doc, fresh.doc, "round {round}, variant {i}");
        }
    }
}

/// Run `cell` on `memo` as the segments `cuts` asks for (bit `k` set:
/// stop after step `k + 1`), every checkpoint through its text codec,
/// and stitch the digest the way the daemon does.
fn stitched_digest(memo: &PrepareMemo, cell: &Cell, cuts: usize) -> u64 {
    let prepared = memo.get(&cell.scenario.prepare_key()).unwrap();
    let stops = (1..STEPS).filter(|k| cuts & (1 << (k - 1)) != 0).map(Some).chain([None]);
    let (mut acc, mut events) = (CellAcc::default(), String::new());
    let mut restore: Option<Arc<Checkpoint>> = None;
    for stop_after in stops {
        let opts = RunOptions { restore: restore.take(), stop_after, ..cell.scenario.opts.clone() };
        let seg = run_segment(&prepared, &Scenario { opts, ..cell.scenario.clone() }).unwrap();
        acc.absorb(&seg.logical);
        events.push_str(&seg.events_text);
        match seg.checkpoint {
            Some(cp) => {
                assert_eq!(Some(cp.next_step), stop_after);
                restore = Some(Arc::new(Checkpoint::from_text(&cp.to_text()).unwrap()));
            }
            None => {
                return finish_cell_metrics(cell, &prepared, &acc, &events, &seg.census).digest;
            }
        }
    }
    unreachable!("the last stop is None, which finishes the cell");
}

#[test]
fn segmented_cells_interleaved_on_one_memo_stitch_to_the_uninterrupted_digests() {
    // Per rank count: the cells and the digest each must stitch to.
    let universes: Vec<(Vec<Cell>, Vec<u64>)> = [1, 2]
        .into_iter()
        .map(|ranks| {
            let cells = cells(ranks);
            let want =
                cells.iter().map(|c| cell_metrics(c, &run_scenario(&c.scenario)).canon.digest).collect();
            (cells, want)
        })
        .collect();
    let check = |ranks_at: usize, ops: &[(usize, usize)]| {
        let (cells, want) = &universes[ranks_at];
        let memo = PrepareMemo::new();
        for (i, &(cell, cuts)) in ops.iter().enumerate() {
            assert_eq!(
                stitched_digest(&memo, &cells[cell], cuts),
                want[cell],
                "op {i}: cell {} cut {cuts:#b} on {} rank(s)",
                cells[cell].id,
                ranks_at + 1
            );
        }
    };

    // Cells 0/1, 2/3, 4/5, 6/7 share a key. Hit, two misses that evict
    // the first key, and that key again, rebuilt — then a hit on it.
    for ranks_at in 0..2 {
        check(ranks_at, &[(0, 0b11), (1, 0b01), (2, 0b10), (4, 0b11), (0, 0b10), (1, 0b00)]);
    }

    let ops = prop::vec_of((prop::usize_range(0, 8), prop::usize_range(0, 4)), 5);
    prop::check(
        "segmentations x interleavings on a shared memo",
        PropConfig::cases(10),
        &(prop::usize_range(0, 2), ops),
        |(ranks_at, ops)| check(*ranks_at, ops),
    );
}

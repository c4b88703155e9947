//! Segment execution for the daemon: run a slice `[start, stop_after)`
//! of a cell — its [`Scenario`] with `RunOptions::{restore, stop_after}`
//! set, through [`run_prepared`] like every run — and stitch finished
//! segments back into the canonical cell metrics.
//!
//! The byte-identity contract: for any segmentation of `0..steps`, the
//! concatenated golden event text plus the final census render to the
//! same document (and therefore the same digest) as one uninterrupted
//! run. The core guarantees the event stream ([`cfpd_core::golden`]
//! renders events segment-independently) and closes the document
//! ([`render_golden_document`]); this module is just careful
//! bookkeeping on top.

use cfpd_campaign::{CanonMetrics, Cell, CellAcc};
use cfpd_core::{
    rank_failures, render_golden_document, render_golden_events, run_prepared, Checkpoint,
    Prepared, Scenario,
};
use cfpd_particles::ParticleCensus;
use cfpd_testkit::digest_bytes;
use cfpd_trace::PopTotals;
use std::sync::Arc;

/// Outcome of one segment run.
pub struct SegmentOut {
    /// Golden event lines of this segment only.
    pub events_text: String,
    /// The run's logical events (for the accumulator).
    pub logical: Vec<cfpd_core::LogicalEvent>,
    /// Census after the segment (only meaningful when the cell finished).
    pub census: ParticleCensus,
    /// The parked physics state (`None` when the cell finished).
    pub checkpoint: Option<Checkpoint>,
    /// The segment's POP time totals, from its own phase record.
    pub pop: PopTotals,
}

/// Run the segment `s` asks for — steps `[restore.next_step,
/// stop_after)` of its `opts` (from step 0 without `restore`; to
/// completion without `stop_after` or at `>= steps`) — on `prepared`,
/// the set-up of `s.prepare_key()` that all segments of the cell share.
/// `Err` carries the reason a run was refused or every failed rank's
/// message.
pub fn run_segment(prepared: &Arc<Prepared>, s: &Scenario) -> Result<SegmentOut, String> {
    let result = run_prepared(prepared, s).map_err(|fails| rank_failures(&fails))?;
    Ok(SegmentOut {
        pop: PopTotals::of(&result.trace),
        events_text: render_golden_events(&result.logical),
        logical: result.logical,
        census: result.census,
        checkpoint: result.checkpoint,
    })
}

/// Stitch a finished cell back into its canonical metrics — the same
/// numbers `cfpd_campaign::cell_metrics` computes from an uninterrupted
/// run, through the same fold. `census` is the one of the cell's final
/// segment and closes the document; the mesh counts that head it are
/// `prepared`'s.
pub fn finish_cell_metrics(
    cell: &Cell,
    prepared: &Prepared,
    acc: &CellAcc,
    events_text: &str,
    census: &ParticleCensus,
) -> CanonMetrics {
    let s = &cell.scenario;
    let size = (prepared.elements(), prepared.nodes());
    let doc = render_golden_document(&s.config, s.ranks, size, events_text, census);
    acc.finish(digest_bytes(doc.as_bytes()), census)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_campaign::{cell_metrics, expand, CampaignSpec};
    use cfpd_core::{prepare, run_scenario, RunOptions};

    const TINY: &str = "\
[campaign]
name = seg
[scenario]
ranks = 2
generations = 1
particles = 40
steps = 3
";

    /// A synchronous cell and a coupled 1+1 cell with LeWI lending,
    /// each also at two threads per rank: a document does not depend on
    /// the thread count, so the reference stays the one-thread
    /// uninterrupted run.
    #[test]
    fn segment_chain_matches_the_uninterrupted_run_bit_for_bit() {
        let coupled = format!("{TINY}mode = coupled:1+1\ndlb = on\n");
        for text in [TINY, coupled.as_str()] {
            let cells = expand(&CampaignSpec::from_text(text).unwrap()).unwrap();
            let want = cell_metrics(&cells[0], &run_scenario(&cells[0].scenario));
            let prepared = prepare(&cells[0].scenario.prepare_key()).unwrap();
            for threads in [1, 2] {
                let mut cell = cells[0].clone();
                cell.scenario.threads = threads;
                let got = run_chain(&prepared, &cell);
                assert_eq!(got, want.canon, "{text}threads = {threads}");
            }
        }
    }

    /// The cell as a segment chain with a boundary after every step,
    /// snapshots round-tripped through text like the daemon does.
    fn run_chain(prepared: &Arc<Prepared>, cell: &Cell) -> CanonMetrics {
        let mut acc = CellAcc::default();
        let mut events = String::new();
        let mut restore: Option<Arc<Checkpoint>> = None;
        let mut last = None;
        for stop_after in [Some(1), Some(2), None] {
            let s = &cell.scenario;
            let opts = RunOptions { restore: restore.take(), stop_after, ..s.opts.clone() };
            let seg = run_segment(prepared, &Scenario { opts, ..s.clone() }).unwrap();
            acc.absorb(&seg.logical);
            events.push_str(&seg.events_text);
            match &seg.checkpoint {
                None => last = Some(seg),
                Some(cp) => {
                    let cp = Checkpoint::from_text(&cp.to_text()).expect("codec round-trip");
                    restore = Some(Arc::new(cp));
                }
            }
        }
        finish_cell_metrics(cell, prepared, &acc, &events, &last.unwrap().census)
    }
}

//! The campaign runner: fan the expanded matrix out across a bounded
//! in-process worker pool.
//!
//! Each worker claims cells from a shared atomic cursor and runs them
//! through [`cfpd_core::run_scenario_prepared`] — `cfpd golden`'s entry
//! point behind its set-up — so a campaign cell *is* a golden run. The
//! pool keeps the set-up of its most recent cells
//! ([`cfpd_core::PrepareMemo`]), so cells that differ only in seed,
//! DLB or inflow are prepared once. Results land in
//! a slot indexed by the cell's expansion index, which makes the
//! aggregate report independent of completion order and therefore of
//! the pool size: `jobs = 1`, `2` and `8` produce byte-identical
//! reports (pinned by the concurrency-determinism test).
//!
//! A panicking cell is caught per-worker (`catch_unwind`) and reported
//! as a failed cell; it never takes the campaign down with it. With a
//! per-cell wall-clock budget (`--cell-timeout`), a *stuck* cell is
//! likewise contained: the worker abandons it after the budget and
//! records `failed(timeout)` instead of wedging the whole campaign.

use crate::aggregate::{cell_metrics, CampaignReport, CellFailure, CellMetrics};
use crate::matrix::{expand, Cell};
use crate::scenario::CampaignSpec;
use cfpd_core::{run_scenario_prepared, PrepareMemo};
use cfpd_testkit::panic_message;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Run one cell, shielding the caller from panics.
fn run_cell(cell: &Cell, memo: &PrepareMemo) -> Result<CellMetrics, CellFailure> {
    let run = || {
        let prepared = memo.get(&cell.scenario.prepare_key())?;
        Ok(run_scenario_prepared(&prepared, &cell.scenario))
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(out)) => Ok(cell_metrics(cell, &out)),
        Ok(Err(message)) => Err(CellFailure { id: cell.id.clone(), message }),
        Err(payload) => {
            Err(CellFailure { id: cell.id.clone(), message: panic_message(payload) })
        }
    }
}

/// Run `f` with an optional wall-clock budget. `None` on timeout.
///
/// The budgeted path runs `f` on a freshly spawned thread and waits on
/// a channel; if the budget elapses first the thread is *abandoned* —
/// Rust has no safe way to kill it — so a truly stuck computation keeps
/// its detached thread until process exit. That is the documented (and
/// bounded: one thread per timed-out cell) cost of not wedging the
/// caller. Without a budget `f` runs inline on the caller's thread.
///
/// Shared by the campaign pool's per-cell timeout and the `cfpd serve`
/// scheduler's per-segment timeout.
pub fn run_bounded<T: Send + 'static>(
    f: impl FnOnce() -> T + Send + 'static,
    budget: Option<Duration>,
) -> Option<T> {
    let Some(budget) = budget else { return Some(f()) };
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(budget).ok()
}

/// [`run_cell`] under an optional wall-clock budget; a timed-out cell
/// becomes a `failed(timeout: ...)` report row.
fn run_cell_bounded(
    cell: &Cell,
    memo: &Arc<PrepareMemo>,
    timeout: Option<Duration>,
) -> Result<CellMetrics, CellFailure> {
    let (owned, memo) = (cell.clone(), Arc::clone(memo));
    match run_bounded(move || run_cell(&owned, &memo), timeout) {
        Some(result) => result,
        None => Err(CellFailure {
            id: cell.id.clone(),
            message: format!(
                "timeout: cell exceeded its {:.3}s wall-clock budget (worker abandoned)",
                timeout.expect("timeout fired").as_secs_f64()
            ),
        }),
    }
}

/// Run every cell of `cells` over a pool of `jobs` workers, each under
/// an optional wall-clock timeout; results in expansion order regardless
/// of completion order.
fn run_cells_with(
    name: &str,
    cells: &[Cell],
    jobs: usize,
    cell_timeout: Option<Duration>,
) -> CampaignReport {
    let jobs = jobs.max(1).min(cells.len().max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<CellMetrics, CellFailure>>>> =
        cells.iter().map(|_| Mutex::new(None)).collect();
    // Owned by this call: a later campaign starts cold.
    let memo = Arc::new(PrepareMemo::new());

    if jobs <= 1 && cell_timeout.is_none() {
        // Inline fast path: no worker threads for a serial campaign.
        for (cell, slot) in cells.iter().zip(&slots) {
            *slot.lock().unwrap() = Some(run_cell(cell, &memo));
        }
    } else {
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    let result = run_cell_bounded(cell, &memo, cell_timeout);
                    *slots[i].lock().unwrap() = Some(result);
                });
            }
        });
    }

    let results = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every cell slot filled"))
        .collect();
    CampaignReport { name: name.to_string(), cells: results }
}

/// Expand and run a whole campaign. `jobs` overrides the campaign's
/// own `jobs` setting when `Some`.
pub fn run_campaign(spec: &CampaignSpec, jobs: Option<usize>) -> CampaignReport {
    run_campaign_with(spec, jobs, None)
}

/// [`run_campaign`] with an optional per-cell wall-clock timeout.
pub fn run_campaign_with(
    spec: &CampaignSpec,
    jobs: Option<usize>,
    cell_timeout: Option<Duration>,
) -> CampaignReport {
    let cells = expand(spec).expect("spec validated at parse time");
    run_cells_with(&spec.name, &cells, jobs.unwrap_or(spec.jobs), cell_timeout)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = "\
[campaign]
name = unit
jobs = 2

[scenario]
ranks = 2
generations = 1
particles = 40
steps = 1

[matrix]
layout = default, opt
";

    #[test]
    fn pool_sizes_produce_identical_reports() {
        let spec = CampaignSpec::from_text(TINY).unwrap();
        let cells = expand(&spec).unwrap();
        let serial = run_cells_with(&spec.name, &cells, 1, None);
        let wide = run_cells_with(&spec.name, &cells, 4, None);
        assert_eq!(serial.render_json(), wide.render_json());
        assert_eq!(serial.failures(), 0);
    }

    #[test]
    fn generous_timeout_changes_nothing() {
        let spec = CampaignSpec::from_text(TINY).unwrap();
        let cells = expand(&spec).unwrap();
        let plain = run_cells_with(&spec.name, &cells, 2, None);
        let budgeted =
            run_cells_with(&spec.name, &cells, 2, Some(Duration::from_secs(600)));
        assert_eq!(plain.render_json(), budgeted.render_json());
    }

    #[test]
    fn stuck_computation_times_out_without_wedging_the_caller() {
        // The budget mechanism itself, without needing a stuck solver:
        // a sleeping closure must be abandoned once the budget elapses.
        let out = run_bounded(
            || {
                std::thread::sleep(Duration::from_secs(30));
                42
            },
            Some(Duration::from_millis(50)),
        );
        assert_eq!(out, None, "stuck closure must time out");
        let ok = run_bounded(|| 7, Some(Duration::from_secs(30)));
        assert_eq!(ok, Some(7));
        let inline = run_bounded(|| 9, None);
        assert_eq!(inline, Some(9));
    }
}

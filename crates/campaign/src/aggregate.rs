//! The campaign aggregator: join per-cell run outcomes into one
//! comparable report, render it (human table, canonical JSON, optional
//! wall-clock section), and diff it against a baseline with regression
//! budgets.
//!
//! ## Determinism contract
//!
//! The canonical report — `render_json` and `render_table` — contains
//! **only deterministic quantities**: physics digests, logical-event
//! and iteration counts, censuses, and load-balance numbers computed
//! from logical per-rank work (element counts), all ordered by
//! expansion index. It is byte-identical across repeat runs and across
//! worker-pool sizes, which is what lets a blessed report serve as an
//! N-cell golden. Wall-clock quantities (total time, POP efficiencies
//! from the run's phase trace) live in the separate, explicitly
//! non-canonical [`CampaignReport::render_timing`] section.

use crate::matrix::Cell;
use crate::scenario::Budget;
use cfpd_core::{LogicalEvent, ParticleCensus, ScenarioOutcome};
use cfpd_telemetry::JsonWriter;
use cfpd_testkit::{parse_json, JsonValue};
use std::fmt::Write as _;

/// The canonical numbers of one finished cell — everything the
/// canonical report renders besides the cell's id and axes. One struct
/// for the campaign report and for the `celldone` record `cfpd serve`
/// logs, so a replayed daemon reconstructs byte-identical results
/// without re-running work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanonMetrics {
    /// FNV-1a digest of the cell's golden document.
    pub digest: u64,
    /// Logical event count.
    pub events: u64,
    /// Total solver iterations over all systems / the Poisson system.
    pub iters_total: u64,
    pub iters_poisson: u64,
    /// active / deposited / escaped / lost.
    pub census: [u64; 4],
    /// `f64::to_bits` of the deposited fraction.
    pub deposited_frac_bits: u64,
    /// `f64::to_bits` of the assembly load balance L = mean/max over
    /// per-rank step-0 element counts (1.0 when a mode has a single
    /// assembling rank).
    pub lb_assembly_bits: u64,
}

/// Deterministic metrics of one cell (see the determinism contract).
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    pub id: String,
    pub axes: Vec<(String, String)>,
    pub canon: CanonMetrics,
    /// Non-canonical wall-clock metrics (never rendered canonically).
    pub wall: WallMetrics,
}

/// Wall-clock metrics of one cell — the POP-style rollup of the run's
/// own phase trace. Excluded from the canonical report by design; all
/// zero for a served cell, whose wall time spans segments, retries and
/// daemon restarts and means nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WallMetrics {
    pub total_time: f64,
    pub parallel_efficiency: f64,
    pub load_balance: f64,
    pub comm_efficiency: f64,
}

/// The fold behind [`CanonMetrics`]: a running accumulator over a cell's
/// logical events. A direct run absorbs them all at once; `cfpd serve`
/// absorbs segment by segment and snapshots the accumulator in between.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellAcc {
    pub events: u64,
    pub iters_total: u64,
    pub iters_poisson: u64,
    /// Per-rank step-0 assembly element counts, in arrival order (only
    /// the first segment contributes).
    pub elems: Vec<(usize, u64)>,
}

impl CellAcc {
    /// Fold one run's (or one segment's) events in.
    pub fn absorb(&mut self, logical: &[LogicalEvent]) {
        self.events += logical.len() as u64;
        for e in logical {
            match e {
                LogicalEvent::Solve { system, iterations, .. } => {
                    self.iters_total += *iterations as u64;
                    if *system == 3 {
                        self.iters_poisson += *iterations as u64;
                    }
                }
                LogicalEvent::Assembly { step: 0, rank, elements } => {
                    self.elems.push((*rank, *elements as u64));
                }
                _ => {}
            }
        }
    }

    /// Assembly load balance over logical work units (element counts):
    /// L = mean/max, the paper's eq. 9 with deterministic inputs.
    pub fn lb_assembly(&self) -> f64 {
        if self.elems.is_empty() {
            1.0
        } else {
            let sum: u64 = self.elems.iter().map(|(_, e)| e).sum();
            let max = self.elems.iter().map(|(_, e)| *e).max().unwrap_or(1).max(1);
            sum as f64 / (self.elems.len() as f64 * max as f64)
        }
    }

    /// Close the fold: `digest` is the finished cell's document digest,
    /// `census` the one that document ends with.
    pub fn finish(&self, digest: u64, census: &ParticleCensus) -> CanonMetrics {
        let c = census;
        let total = c.active + c.deposited + c.escaped + c.lost;
        let deposited_frac = if total == 0 { 0.0 } else { c.deposited as f64 / total as f64 };
        CanonMetrics {
            digest,
            events: self.events,
            iters_total: self.iters_total,
            iters_poisson: self.iters_poisson,
            census: [c.active as u64, c.deposited as u64, c.escaped as u64, c.lost as u64],
            deposited_frac_bits: deposited_frac.to_bits(),
            lb_assembly_bits: self.lb_assembly().to_bits(),
        }
    }
}

/// Extract [`CellMetrics`] from a finished run.
pub fn cell_metrics(cell: &Cell, out: &ScenarioOutcome) -> CellMetrics {
    let r = &out.result;
    let mut acc = CellAcc::default();
    acc.absorb(&r.logical);

    // Wall-clock POP rollup of this run's own phase trace.
    let pop = cfpd_trace::PopTotals::of(&r.trace).report();

    CellMetrics {
        id: cell.id.clone(),
        axes: cell.axes.clone(),
        canon: acc.finish(out.digest, &r.census),
        wall: WallMetrics {
            total_time: r.total_time,
            parallel_efficiency: pop.parallel_efficiency,
            load_balance: pop.load_balance,
            comm_efficiency: pop.comm_efficiency,
        },
    }
}

/// A cell that panicked instead of completing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    pub id: String,
    pub message: String,
}

/// The aggregate result of one campaign run, cells in expansion order.
#[derive(Debug)]
pub struct CampaignReport {
    pub name: String,
    pub cells: Vec<Result<CellMetrics, CellFailure>>,
}

fn hex(bits: u64) -> String {
    format!("{bits:016x}")
}

impl CampaignReport {
    pub fn failures(&self) -> usize {
        self.cells.iter().filter(|c| c.is_err()).count()
    }

    /// Canonical JSON document — the format baselines are stored in
    /// (`tests/golden/campaign_small.golden`) and [`compare`] consumes.
    pub fn render_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("campaign").string(&self.name);
        w.key("cells").u64(self.cells.len() as u64);
        w.key("matrix").begin_array();
        for cell in &self.cells {
            w.begin_object();
            match cell {
                Ok(m) => {
                    w.key("id").string(&m.id);
                    w.key("axes").begin_object();
                    for (k, v) in &m.axes {
                        w.key(k).string(v);
                    }
                    w.end_object();
                    let c = &m.canon;
                    w.key("digest").string(&hex(c.digest));
                    w.key("events").u64(c.events);
                    w.key("iters_total").u64(c.iters_total);
                    w.key("iters_poisson").u64(c.iters_poisson);
                    w.key("census").begin_object();
                    for (name, v) in
                        ["active", "deposited", "escaped", "lost"].iter().zip(c.census)
                    {
                        w.key(name).u64(v);
                    }
                    w.end_object();
                    w.key("deposited_frac").string(&hex(c.deposited_frac_bits));
                    w.key("lb_assembly").string(&hex(c.lb_assembly_bits));
                }
                Err(f) => {
                    w.key("id").string(&f.id);
                    w.key("error").string(&f.message);
                }
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let mut s = w.finish();
        s.push('\n');
        s
    }

    /// Human-readable table of the deterministic metrics.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let id_w = self
            .cells
            .iter()
            .map(|c| match c {
                Ok(m) => m.id.len(),
                Err(f) => f.id.len(),
            })
            .max()
            .unwrap_or(4)
            .max(4);
        writeln!(
            out,
            "campaign {}: {} cells ({} failed)",
            self.name,
            self.cells.len(),
            self.failures()
        )
        .unwrap();
        writeln!(
            out,
            "{:<id_w$}  {:<16}  {:>6}  {:>6}  {:>24}  {:>10}",
            "cell", "digest", "events", "iters", "census a/d/e/l", "lb(asm)"
        )
        .unwrap();
        for cell in &self.cells {
            match cell {
                Ok(m) => {
                    let c = &m.canon;
                    writeln!(
                        out,
                        "{:<id_w$}  {:<16}  {:>6}  {:>6}  {:>24}  {:>10.6}",
                        m.id,
                        hex(c.digest),
                        c.events,
                        c.iters_total,
                        format!(
                            "{}/{}/{}/{}",
                            c.census[0], c.census[1], c.census[2], c.census[3]
                        ),
                        f64::from_bits(c.lb_assembly_bits),
                    )
                    .unwrap();
                }
                Err(f) => {
                    writeln!(out, "{:<id_w$}  FAILED: {}", f.id, f.message).unwrap();
                }
            }
        }
        out
    }

    /// Wall-clock section (explicitly non-canonical: differs between
    /// runs and pool sizes; never part of the byte-identity contract).
    pub fn render_timing(&self) -> String {
        let mut out = String::new();
        writeln!(out, "[timing — wall clock, non-canonical]").unwrap();
        for cell in self.cells.iter().flatten() {
            writeln!(
                out,
                "  {:<40}  total {:>8.3}s  PE {:.3}  LB {:.3}  CommE {:.3}",
                cell.id,
                cell.wall.total_time,
                cell.wall.parallel_efficiency,
                cell.wall.load_balance,
                cell.wall.comm_efficiency,
            )
            .unwrap();
        }
        out
    }
}

/// One row of the baseline comparison.
#[derive(Debug, Clone)]
pub struct DeltaRow {
    pub id: String,
    pub digest_changed: bool,
    pub d_events: i64,
    pub d_iters: i64,
    pub d_census: [i64; 4],
    /// Over budget?
    pub regression: bool,
}

/// Result of comparing a current report against a baseline.
#[derive(Debug)]
pub struct DeltaReport {
    pub rows: Vec<DeltaRow>,
    /// Cell ids present in the baseline but not in the current run.
    pub missing: Vec<String>,
    /// Cell ids present in the current run but not in the baseline.
    pub extra: Vec<String>,
    /// Cells that failed to run (always regressions).
    pub failed: Vec<String>,
}

impl DeltaReport {
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regression).count()
            + self.missing.len()
            + self.extra.len()
            + self.failed.len()
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for id in &self.missing {
            writeln!(out, "MISSING  {id} (in baseline, not in run)").unwrap();
        }
        for id in &self.extra {
            writeln!(out, "EXTRA    {id} (in run, not in baseline)").unwrap();
        }
        for id in &self.failed {
            writeln!(out, "FAILED   {id}").unwrap();
        }
        for r in &self.rows {
            let tag = if r.regression {
                "REGRESS"
            } else if r.digest_changed || r.d_events != 0 || r.d_iters != 0 {
                "drift  "
            } else {
                "ok     "
            };
            writeln!(
                out,
                "{tag}  {:<40}  digest {}  Δevents {:+}  Δiters {:+}  Δcensus {:+}/{:+}/{:+}/{:+}",
                r.id,
                if r.digest_changed { "CHANGED" } else { "equal" },
                r.d_events,
                r.d_iters,
                r.d_census[0],
                r.d_census[1],
                r.d_census[2],
                r.d_census[3],
            )
            .unwrap();
        }
        let n = self.regressions();
        writeln!(
            out,
            "verdict: {}",
            if n == 0 { "zero regressions".to_string() } else { format!("{n} regression(s)") }
        )
        .unwrap();
        out
    }
}

fn cell_map(doc: &JsonValue) -> Result<Vec<(String, JsonValue)>, String> {
    let cells = doc
        .get("matrix")
        .and_then(|m| m.as_array())
        .ok_or("report has no 'matrix' array")?;
    let mut out = Vec::new();
    for c in cells {
        let id = c
            .get("id")
            .and_then(|v| v.as_str())
            .ok_or("matrix cell without 'id'")?
            .to_string();
        out.push((id, c.clone()));
    }
    Ok(out)
}

fn u64_field(cell: &JsonValue, key: &str) -> u64 {
    cell.get(key).and_then(|v| v.as_u64()).unwrap_or(0)
}

fn census_of(cell: &JsonValue) -> [u64; 4] {
    let mut out = [0u64; 4];
    if let Some(c) = cell.get("census") {
        for (i, name) in ["active", "deposited", "escaped", "lost"].iter().enumerate() {
            out[i] = c.get(name).and_then(|v| v.as_u64()).unwrap_or(0);
        }
    }
    out
}

/// Compare a current report (canonical JSON) against a baseline under
/// the given budget. `Err` means one of the documents is unreadable.
pub fn compare(current: &str, baseline: &str, budget: &Budget) -> Result<DeltaReport, String> {
    let cur = parse_json(current).map_err(|e| format!("current report: {e}"))?;
    let base = parse_json(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur_cells = cell_map(&cur)?;
    let base_cells = cell_map(&base)?;

    let mut rows = Vec::new();
    let mut failed = Vec::new();
    let mut extra = Vec::new();
    for (id, c) in &cur_cells {
        if c.get("error").is_some() {
            failed.push(id.clone());
            continue;
        }
        let Some((_, b)) = base_cells.iter().find(|(bid, _)| bid == id) else {
            extra.push(id.clone());
            continue;
        };
        let digest_changed = c.get("digest").and_then(|v| v.as_str())
            != b.get("digest").and_then(|v| v.as_str());
        let d_events = u64_field(c, "events") as i64 - u64_field(b, "events") as i64;
        let d_iters =
            u64_field(c, "iters_total") as i64 - u64_field(b, "iters_total") as i64;
        let (cc, bc) = (census_of(c), census_of(b));
        let d_census = [
            cc[0] as i64 - bc[0] as i64,
            cc[1] as i64 - bc[1] as i64,
            cc[2] as i64 - bc[2] as i64,
            cc[3] as i64 - bc[3] as i64,
        ];
        let regression = (budget.digest_exact && digest_changed)
            || d_events.unsigned_abs() > budget.events
            || d_iters.unsigned_abs() > budget.iters
            || d_census.iter().any(|d| d.unsigned_abs() > budget.census);
        rows.push(DeltaRow { id: id.clone(), digest_changed, d_events, d_iters, d_census, regression });
    }
    let missing = base_cells
        .iter()
        .filter(|(id, _)| !cur_cells.iter().any(|(cid, _)| cid == id))
        .map(|(id, _)| id.clone())
        .collect();
    Ok(DeltaReport { rows, missing, extra, failed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_json(digest: &str, iters: u64) -> String {
        format!(
            r#"{{"campaign":"t","cells":1,"matrix":[{{"id":"a","digest":"{digest}","events":10,"iters_total":{iters},"iters_poisson":4,"census":{{"active":5,"deposited":0,"escaped":0,"lost":0}}}}]}}"#
        )
    }

    #[test]
    fn identical_reports_compare_clean() {
        let a = report_json("00000000000000aa", 40);
        let d = compare(&a, &a, &Budget::default()).unwrap();
        assert_eq!(d.regressions(), 0);
        assert!(d.render().contains("zero regressions"));
    }

    #[test]
    fn digest_change_is_a_regression_unless_ignored() {
        let a = report_json("00000000000000aa", 40);
        let b = report_json("00000000000000bb", 40);
        let d = compare(&a, &b, &Budget::default()).unwrap();
        assert_eq!(d.regressions(), 1);
        let lax = Budget { digest_exact: false, ..Budget::default() };
        assert_eq!(compare(&a, &b, &lax).unwrap().regressions(), 0);
    }

    #[test]
    fn iteration_drift_respects_the_budget() {
        let a = report_json("00000000000000aa", 43);
        let b = report_json("00000000000000aa", 40);
        assert_eq!(compare(&a, &b, &Budget::default()).unwrap().regressions(), 1);
        let lax = Budget { iters: 3, ..Budget::default() };
        assert_eq!(compare(&a, &b, &lax).unwrap().regressions(), 0);
        let tight = Budget { iters: 2, ..Budget::default() };
        assert_eq!(compare(&a, &b, &tight).unwrap().regressions(), 1);
    }

    #[test]
    fn missing_and_extra_cells_are_regressions() {
        let a = report_json("00000000000000aa", 40);
        let empty = r#"{"campaign":"t","cells":0,"matrix":[]}"#;
        assert_eq!(compare(&a, empty, &Budget::default()).unwrap().regressions(), 1);
        assert_eq!(compare(empty, &a, &Budget::default()).unwrap().regressions(), 1);
    }
}

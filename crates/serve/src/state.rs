//! Supervisor state: jobs, their state machine, and the shared store
//! the worker pool and HTTP handlers operate on.
//!
//! The in-memory store is a *cache* of the WAL, and [`Store::apply`] is
//! what keeps that true: it is the only code that moves a job's durable
//! fields, the fields are private to this module so nothing else can,
//! and both the live daemon (append a record, then apply it) and a
//! restart (apply every record of the WAL's valid prefix) go through it.
//! Nothing here is authoritative, and nothing here does I/O.
//!
//! What each record kind moves is the arms of `apply`, one each
//! (tabulated in DESIGN.md §13, "The record is the transition").
//!
//! The WAL is disk input: a record for an unknown job, for a terminal
//! job, or for another cell than the job's current one is ignored, so
//! no sequence of records can panic `apply`, revert a terminal state or
//! finish a cell twice.
//!
//! Everything else a [`Job`] or the [`Store`] holds is *scheduling*
//! state, which dies with the process and is rebuilt, not replayed:
//! who owns a worker slot ([`Store::arbiter`]) and who waits for one
//! ([`Store::queue`]), the request flags, and [`Job::resume`] — the
//! in-memory copy of what the pinned snapshot file holds.

use crate::wal::WalRecord;
use cfpd_campaign::{CampaignReport, Cell, CellAcc, CellFailure, CellMetrics, WallMetrics};
use cfpd_core::Checkpoint;
use cfpd_dlb::JobArbiter;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// The job state machine:
///
/// ```text
/// queued ──▶ running ──▶ done
///    ▲          │  ▲└───▶ failed(reason)
///    │          ▼  │
///    └──── checkpointed      (preempt / drain / crash recovery)
///    any non-terminal ──▶ cancelled
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    /// Parked on a persisted snapshot; resumable bit-identically.
    Checkpointed,
    Done,
    Failed(String),
    Cancelled,
}

impl JobState {
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Checkpointed => "checkpointed",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done | JobState::Failed(_) | JobState::Cancelled)
    }
}

/// Where a parked cell resumes: the physics checkpoint plus the partial
/// golden text and metrics accumulator it was parked with.
#[derive(Debug, Clone)]
pub struct ResumePoint {
    pub next_step: usize,
    pub checkpoint: Arc<Checkpoint>,
    pub acc: CellAcc,
    pub events_text: String,
}

/// One admitted job. The private fields are the durable ones: only
/// [`Store::apply`] writes them (and [`Store::requeue`] the state).
#[derive(Debug)]
pub struct Job {
    pub id: u64,
    pub name: String,
    /// Expanded matrix, in expansion order.
    pub cells: Vec<Cell>,
    state: JobState,
    /// Finished cells by expansion index (`None` = not finished yet).
    /// Cells finish in order: exactly the first `cur_cell` are `Some`.
    cells_done: Vec<Option<Result<CellMetrics, CellFailure>>>,
    /// Index of the first unfinished cell.
    cur_cell: usize,
    /// Attempt counter of the current cell (0-based).
    attempt: u32,
    /// Total retries across all cells (for /metrics and status).
    retries: u64,
    /// Digest of the current cell's snapshot file as of its last `ckpt`
    /// record (`None` before the first): what a restart verifies the
    /// file against before resuming from it.
    pinned: Option<u64>,
    /// Progress of the current cell as of its last segment boundary
    /// (`None` before the first): where a parked, retried or recovered
    /// attempt resumes. The worker attaches it after committing `ckpt`
    /// and borrows `acc` and `events_text` out of it while it extends
    /// them at a boundary; a restart attaches it from the pinned file;
    /// `apply` only ever drops it, with the pin, when the cell concludes.
    pub resume: Option<ResumePoint>,
    /// Step a crash-recovered job resumed from (status visibility: the
    /// resilience suite asserts no step-0 recomputation happened).
    pub recovered_resume_step: Option<usize>,
    pub preempt_requested: bool,
    pub cancel_requested: bool,
    /// When the job was admitted (this daemon incarnation) — deadlines
    /// are wall-clock budgets from here.
    pub admitted: Instant,
}

impl Job {
    pub fn new(id: u64, name: String, cells: Vec<Cell>) -> Job {
        let n = cells.len();
        Job {
            id,
            name,
            cells,
            state: JobState::Queued,
            cells_done: (0..n).map(|_| None).collect(),
            cur_cell: 0,
            attempt: 0,
            retries: 0,
            pinned: None,
            resume: None,
            recovered_resume_step: None,
            preempt_requested: false,
            cancel_requested: false,
            admitted: Instant::now(),
        }
    }

    pub fn state(&self) -> &JobState {
        &self.state
    }

    pub fn cur_cell(&self) -> usize {
        self.cur_cell
    }

    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Digest the current cell's snapshot file must have to be resumed
    /// from (`None`: no boundary of this cell is on record).
    pub fn pinned_snapshot(&self) -> Option<u64> {
        self.pinned
    }

    /// Remaining work estimate in simulation steps — the preemption
    /// policy's cost proxy (steps, not cells: a 1-cell 100-step job is
    /// "longer" than a 4-cell 4-step one).
    pub fn remaining_steps(&self) -> u64 {
        let mut total = 0u64;
        for (i, cell) in self.cells.iter().enumerate() {
            if self.cells_done.get(i).map(|s| s.is_some()).unwrap_or(false) {
                continue;
            }
            let steps = cell.scenario.config.steps as u64;
            if i == self.cur_cell {
                let done = self.resume.as_ref().map(|r| r.next_step as u64).unwrap_or(0);
                total += steps.saturating_sub(done);
            } else {
                total += steps;
            }
        }
        total
    }

    pub fn cells_finished(&self) -> usize {
        self.cells_done.iter().filter(|s| s.is_some()).count()
    }

    pub fn cells_failed(&self) -> usize {
        self.cells_done
            .iter()
            .filter(|s| matches!(s, Some(Err(_))))
            .count()
    }

    /// The canonical campaign report of a finished job — same renderer,
    /// same bytes as `cfpd campaign run --json`.
    pub fn report(&self) -> CampaignReport {
        CampaignReport {
            name: self.name.clone(),
            cells: self
                .cells_done
                .iter()
                .cloned()
                .map(|s| s.expect("report of an unfinished job"))
                .collect(),
        }
    }

    /// Transition the state, keeping the per-state gauges exact.
    fn set_state(&mut self, state: JobState) {
        if cfpd_telemetry::enabled() {
            cfpd_telemetry::gauge(state_gauge(self.state.label())).add_unchecked(-1);
            cfpd_telemetry::gauge(state_gauge(state.label())).add_unchecked(1);
        }
        self.state = state;
    }

    /// The current cell (if one is left) concluded with `outcome`: on to
    /// the next one.
    fn conclude_cell(&mut self, outcome: impl FnOnce(&Cell) -> Result<CellMetrics, CellFailure>) {
        let Some(cell) = self.cells.get(self.cur_cell) else { return };
        self.cells_done[self.cur_cell] = Some(outcome(cell));
        self.cur_cell += 1;
        self.attempt = 0;
        self.pinned = None;
        self.resume = None;
    }
}

/// Everything the daemon's mutex guards.
pub struct Store {
    pub jobs: BTreeMap<u64, Job>,
    /// Dispatch order: job ids waiting for a worker slot (queued and
    /// checkpointed jobs both wait here).
    pub queue: VecDeque<u64>,
    next_id: u64,
    /// LeWI, lifted from ranks to jobs: a preempted job *lends* its
    /// worker slot; dispatch *reclaims* it when the job resumes. Slot
    /// ownership dies with the process, so no record moves it.
    pub arbiter: JobArbiter,
}

impl Store {
    pub fn new(worker_slots: usize) -> Store {
        Store {
            jobs: BTreeMap::new(),
            queue: VecDeque::new(),
            next_id: 1,
            arbiter: JobArbiter::new(worker_slots),
        }
    }

    /// The id the next admitted job gets.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Count of jobs occupying admission capacity (all non-terminal).
    pub fn live_jobs(&self) -> usize {
        self.jobs.values().filter(|j| !j.state.is_terminal()).count()
    }

    /// Register a freshly built job, for the `submit` record that names
    /// it: the live daemon builds it from the request body it parsed, a
    /// restart from the digest-checked spec file. A taken id is refused.
    pub fn admit(&mut self, job: Job) {
        if let Entry::Vacant(slot) = self.jobs.entry(job.id) {
            if cfpd_telemetry::enabled() {
                cfpd_telemetry::gauge(state_gauge(job.state.label())).add_unchecked(1);
            }
            slot.insert(job);
        }
    }

    /// The transition `rec` stands for — the one writer of a job's
    /// durable fields, for replay and for the live daemon alike.
    pub fn apply(&mut self, rec: &WalRecord) {
        if let WalRecord::Submit { job, .. } = rec {
            // The id is spent even when a torn spec file dropped the job.
            self.next_id = self.next_id.max(job.saturating_add(1));
        }
        let Some(job) = self.jobs.get_mut(&rec.job_id()) else { return };
        if job.state.is_terminal() {
            return;
        }
        let cur = job.cur_cell;
        match rec {
            // A record that names a cell names the current one.
            WalRecord::Start { cell, .. }
            | WalRecord::Ckpt { cell, .. }
            | WalRecord::CellDone { cell, .. }
            | WalRecord::CellFail { cell, .. }
            | WalRecord::Retry { cell, .. }
            | WalRecord::Preempt { cell, .. }
                if *cell != cur => {}
            WalRecord::Submit { .. } => {}
            WalRecord::Start { attempt, .. } => {
                job.attempt = *attempt;
                job.set_state(JobState::Running);
            }
            WalRecord::Ckpt { snap_digest, .. } => job.pinned = Some(*snap_digest),
            // Wall metrics stay zero: they are non-canonical and the
            // report never renders them.
            WalRecord::CellDone { rec, .. } => job.conclude_cell(|c| {
                Ok(CellMetrics {
                    id: c.id.clone(),
                    axes: c.axes.clone(),
                    canon: *rec,
                    wall: WallMetrics::default(),
                })
            }),
            WalRecord::CellFail { reason, .. } => job.conclude_cell(|c| {
                Err(CellFailure { id: c.id.clone(), message: reason.clone() })
            }),
            WalRecord::Retry { attempt, .. } => {
                job.attempt = *attempt;
                job.retries += 1;
            }
            WalRecord::Preempt { .. } => job.set_state(JobState::Checkpointed),
            // Only a job whose every cell has finished has a report.
            WalRecord::Done { .. } if cur < job.cells.len() => {}
            WalRecord::Done { .. } => job.set_state(JobState::Done),
            WalRecord::Fail { reason, .. } => job.set_state(JobState::Failed(reason.clone())),
            WalRecord::Cancel { .. } => job.set_state(JobState::Cancelled),
        }
    }

    /// Restart's second pass, for one job that survived replay without
    /// reaching a terminal state: it waits for a slot again — parked on
    /// `resume`, its pinned snapshot, when the file verified; from the
    /// start of its current cell otherwise.
    pub fn requeue(&mut self, id: u64, resume: Option<ResumePoint>) {
        let Some(job) = self.jobs.get_mut(&id) else { return };
        if job.state.is_terminal() {
            return;
        }
        job.recovered_resume_step = resume.as_ref().map(|r| r.next_step);
        job.set_state(if resume.is_some() { JobState::Checkpointed } else { JobState::Queued });
        job.resume = resume;
    }
}

/// Leak-free dynamic gauge names: the state set is closed, so map to
/// static strings (the registry interns `&'static str` keys).
fn state_gauge(label: &str) -> &'static str {
    match label {
        "queued" => "serve.state_queued",
        "running" => "serve.state_running",
        "checkpointed" => "serve.state_checkpointed",
        "done" => "serve.state_done",
        "failed" => "serve.state_failed",
        _ => "serve.state_cancelled",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_campaign::{expand, CampaignSpec, CanonMetrics};
    use cfpd_testkit::prop::{self, PropConfig};

    /// A job of `cells` cells (one per seed) of `steps` steps each.
    fn job(id: u64, steps: usize, cells: usize) -> Job {
        let seeds: Vec<String> = (1..=cells).map(|s| s.to_string()).collect();
        let text = format!(
            "[campaign]\nname = j{id}\n[scenario]\nranks = 2\ngenerations = 1\n\
             particles = 40\nsteps = {steps}\n[matrix]\nseed = {}\n",
            seeds.join(", ")
        );
        let spec = CampaignSpec::from_text(&text).unwrap();
        let cells = expand(&spec).unwrap();
        Job::new(id, spec.name, cells)
    }

    fn canon(digest: u64) -> CanonMetrics {
        CanonMetrics {
            digest,
            events: 3,
            iters_total: 40,
            iters_poisson: 20,
            census: [40, 0, 0, 0],
            deposited_frac_bits: 0,
            lb_assembly_bits: 1.0f64.to_bits(),
        }
    }

    #[test]
    fn remaining_steps_accounts_for_resume_progress() {
        let mut j = job(1, 10, 1);
        assert_eq!(j.remaining_steps(), 10);
        j.resume = Some(ResumePoint {
            next_step: 7,
            checkpoint: Arc::new(Checkpoint {
                next_step: 7,
                n_ranks: 2,
                seed: 0,
                config_digest: 0,
                ranks: Vec::new(),
            }),
            acc: CellAcc::default(),
            events_text: String::new(),
        });
        assert_eq!(j.remaining_steps(), 3);
        j.cells_done[0] = Some(Err(CellFailure { id: "base".into(), message: "x".into() }));
        assert_eq!(j.remaining_steps(), 0);
    }

    /// One life of a two-cell job, record by record: the module's table.
    #[test]
    fn apply_walks_the_transition_table() {
        let mut store = Store::new(1);
        store.admit(job(7, 2, 2));
        let mut apply = |rec: WalRecord| {
            store.apply(&rec);
            let j = &store.jobs[&7];
            (j.state().clone(), j.cur_cell(), j.attempt(), j.retries(), j.pinned_snapshot())
        };
        let reason = || "injected".to_string();

        apply(WalRecord::Submit { job: 7, name: "j7".into(), spec_digest: 0 });
        assert_eq!(
            apply(WalRecord::Start { job: 7, cell: 0, attempt: 0 }),
            (JobState::Running, 0, 0, 0, None)
        );
        assert_eq!(
            apply(WalRecord::Ckpt { job: 7, cell: 0, step: 1, snap_digest: 0xabc }),
            (JobState::Running, 0, 0, 0, Some(0xabc))
        );
        // A failed attempt that is retried counts; the pin survives it.
        let retry = WalRecord::Retry { job: 7, cell: 0, attempt: 1, backoff_ms: 5, reason: reason() };
        assert_eq!(apply(retry), (JobState::Running, 0, 1, 1, Some(0xabc)));
        assert_eq!(
            apply(WalRecord::Preempt { job: 7, cell: 0 }),
            (JobState::Checkpointed, 0, 1, 1, Some(0xabc))
        );
        apply(WalRecord::Start { job: 7, cell: 0, attempt: 1 });
        assert_eq!(
            apply(WalRecord::CellDone { job: 7, cell: 0, rec: canon(0x11) }),
            (JobState::Running, 1, 0, 1, None)
        );
        // The attempt that exhausts the budget is a failed cell, not a retry.
        assert_eq!(
            apply(WalRecord::CellFail { job: 7, cell: 1, reason: reason() }),
            (JobState::Running, 2, 0, 1, None)
        );
        assert_eq!(apply(WalRecord::Done { job: 7 }).0, JobState::Done);

        assert_eq!(store.next_id(), 8);
        let j = &store.jobs[&7];
        assert_eq!((j.cells_finished(), j.cells_failed()), (2, 1));
        let report = j.report();
        let first = report.cells[0].as_ref().expect("cell 0 finished");
        assert_eq!((first.id.as_str(), first.canon), (j.cells[0].id.as_str(), canon(0x11)));
        assert_eq!(report.cells[1].as_ref().unwrap_err().message, "injected");
    }

    /// The WAL is disk input. Arbitrary record sequences — unknown jobs,
    /// cell indexes past the matrix, `celldone` twice, `start` after
    /// `done`, `retry` with `attempt = u32::MAX`, a second `submit` of a
    /// taken id — replay without panic, never revert a terminal state,
    /// never finish more cells than the job has, and never finish a cell
    /// with a record that names another.
    #[test]
    fn apply_never_panics_on_hostile_records() {
        // (kind, job, cell, attempt selector); jobs 1 and 2 exist.
        let record = (
            prop::usize_range(0, 10),
            prop::usize_range(0, 4),
            prop::usize_range(0, 5),
            prop::usize_range(0, 3),
        );
        prop::check(
            "hostile record sequences",
            PropConfig::cases(200),
            &prop::vec_of(record, 24),
            |script| {
                let mut store = Store::new(1);
                store.admit(job(1, 2, 2));
                store.admit(job(2, 2, 3));
                for &(kind, id, cell, attempt) in script {
                    let id = id as u64;
                    let attempt = [0, 1, u32::MAX][attempt];
                    let reason = "hostile".to_string();
                    let rec = match kind {
                        0 => {
                            store.admit(job(id, 2, 1));
                            WalRecord::Submit { job: id, name: "again".into(), spec_digest: 0 }
                        }
                        1 => WalRecord::Start { job: id, cell, attempt },
                        2 => WalRecord::Ckpt { job: id, cell, step: cell, snap_digest: 7 },
                        3 => WalRecord::CellDone { job: id, cell, rec: canon(cell as u64) },
                        4 => WalRecord::CellFail { job: id, cell, reason },
                        5 => WalRecord::Retry { job: id, cell, attempt, backoff_ms: 1, reason },
                        6 => WalRecord::Preempt { job: id, cell },
                        7 => WalRecord::Done { job: id },
                        8 => WalRecord::Fail { job: id, reason },
                        _ => WalRecord::Cancel { job: id },
                    };
                    let before: Vec<(u64, JobState, usize)> = store
                        .jobs
                        .values()
                        .map(|j| (j.id, j.state().clone(), j.cells.len()))
                        .collect();
                    store.apply(&rec);
                    for (id, state, cells) in before {
                        let j = &store.jobs[&id];
                        assert_eq!(j.cells.len(), cells, "job {id} was replaced by {rec:?}");
                        if state.is_terminal() {
                            assert_eq!(*j.state(), state, "{rec:?} reverted a terminal state");
                        }
                        assert!(j.cells_finished() <= j.cells.len());
                        assert_eq!(j.cells_finished(), j.cur_cell(), "cells finish in order");
                        for (i, done) in j.cells_done.iter().enumerate() {
                            if let Some(Ok(m)) = done {
                                assert_eq!(m.canon.digest, i as u64, "cell {i} took {rec:?}");
                            }
                        }
                    }
                }
                // What a restart does next, and what a client may ask for.
                let ids: Vec<u64> = store.jobs.keys().copied().collect();
                for id in ids {
                    let was = store.jobs[&id].state().clone();
                    store.requeue(id, None);
                    let j = &store.jobs[&id];
                    assert_eq!(*j.state() == was, was.is_terminal() || was == JobState::Queued);
                    if *j.state() == JobState::Done {
                        assert_eq!(j.report().cells.len(), j.cells.len());
                    }
                }
            },
        );
    }
}

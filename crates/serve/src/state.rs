//! Supervisor state: jobs, their state machine, and the shared store
//! the worker pool and HTTP handlers operate on.
//!
//! The in-memory store is a *cache* of the WAL — every transition is
//! logged before (or atomically with) the in-memory update, and daemon
//! restart reconstructs the store purely from the WAL's valid prefix
//! plus the snapshot files it pins. Nothing here is authoritative.

use crate::snap::CellAcc;
use cfpd_campaign::{CampaignReport, CampaignSpec, Cell, CellFailure, CellMetrics};
use cfpd_core::Checkpoint;
use cfpd_dlb::JobArbiter;
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

/// One admitted job.
#[derive(Debug)]
pub struct Job {
    pub id: u64,
    pub name: String,
    pub spec: CampaignSpec,
    /// Expanded matrix, in expansion order.
    pub cells: Vec<Cell>,
    pub state: JobState,
    /// Finished cells by expansion index (`None` = not finished yet).
    pub cells_done: Vec<Option<Result<CellMetrics, CellFailure>>>,
    /// Index of the first unfinished cell.
    pub cur_cell: usize,
    /// Attempt counter of the current cell (0-based).
    pub attempt: u32,
    /// Total retries across all cells (for /metrics and status).
    pub retries: u64,
    /// Progress of the current cell as of its last segment boundary
    /// (`None` before the first): where a parked, retried or recovered
    /// attempt resumes. The worker borrows `acc` and `events_text` out of
    /// it while it extends them at a boundary; nothing else is copied.
    pub resume: Option<ResumePoint>,
    /// Step a crash-recovered job resumed from (status visibility: the
    /// resilience suite asserts no step-0 recomputation happened).
    pub recovered_resume_step: Option<usize>,
    pub preempt_requested: bool,
    pub cancel_requested: bool,
    /// When the job was admitted (this daemon incarnation) — deadlines
    /// are wall-clock budgets from here.
    pub admitted: Instant,
    /// Completion order stamp (the preemption test asserts a short job
    /// admitted *after* a long one finishes *before* it).
    pub finish_seq: Option<u64>,
}

impl Job {
    pub fn new(id: u64, spec: CampaignSpec, cells: Vec<Cell>) -> Job {
        let n = cells.len();
        Job {
            id,
            name: spec.name.clone(),
            spec,
            cells,
            state: JobState::Queued,
            cells_done: (0..n).map(|_| None).collect(),
            cur_cell: 0,
            attempt: 0,
            retries: 0,
            resume: None,
            recovered_resume_step: None,
            preempt_requested: false,
            cancel_requested: false,
            admitted: Instant::now(),
            finish_seq: None,
        }
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
}

/// Everything the daemon's mutex guards.
pub struct Store {
    pub jobs: BTreeMap<u64, Job>,
    /// Dispatch order: job ids waiting for a worker slot (queued and
    /// checkpointed jobs both wait here).
    pub queue: VecDeque<u64>,
    pub next_id: u64,
    /// LeWI, lifted from ranks to jobs: a preempted job *lends* its
    /// worker slot; dispatch *reclaims* it when the job resumes.
    pub arbiter: JobArbiter,
    finish_counter: u64,
}

impl Store {
    pub fn new(worker_slots: usize) -> Store {
        Store {
            jobs: BTreeMap::new(),
            queue: VecDeque::new(),
            next_id: 1,
            arbiter: JobArbiter::new(worker_slots),
            finish_counter: 0,
        }
    }

    /// Count of jobs occupying admission capacity (all non-terminal).
    pub fn live_jobs(&self) -> usize {
        self.jobs.values().filter(|j| !j.state.is_terminal()).count()
    }

    /// Transition a job's state, keeping the per-state gauges exact.
    pub fn set_state(&mut self, id: u64, state: JobState) {
        let Some(job) = self.jobs.get_mut(&id) else { return };
        if cfpd_telemetry::enabled() {
            cfpd_telemetry::gauge(state_gauge(job.state.label())).add_unchecked(-1);
            cfpd_telemetry::gauge(state_gauge(state.label())).add_unchecked(1);
        }
        if state.is_terminal() && job.finish_seq.is_none() {
            self.finish_counter += 1;
            job.finish_seq = Some(self.finish_counter);
        }
        job.state = state;
    }

    /// Register a freshly created job's gauge (+1 its initial state).
    pub fn register_job(&mut self, job: Job) -> u64 {
        let id = job.id;
        if cfpd_telemetry::enabled() {
            cfpd_telemetry::gauge(state_gauge(job.state.label())).add_unchecked(1);
        }
        self.jobs.insert(id, job);
        id
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
    use cfpd_campaign::expand;

    fn job(id: u64, steps: usize) -> Job {
        let text = format!(
            "[campaign]\nname = j{id}\n[scenario]\nranks = 2\ngenerations = 1\n\
             particles = 40\nsteps = {steps}\n"
        );
        let spec = CampaignSpec::from_text(&text).unwrap();
        let cells = expand(&spec).unwrap();
        Job::new(id, spec, cells)
    }

    #[test]
    fn remaining_steps_accounts_for_resume_progress() {
        let mut j = job(1, 10);
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

    #[test]
    fn terminal_transitions_stamp_a_finish_order() {
        let mut store = Store::new(1);
        let a = store.register_job(job(1, 2));
        let b = store.register_job(job(2, 2));
        store.set_state(b, JobState::Done);
        store.set_state(a, JobState::Cancelled);
        assert_eq!(store.jobs[&b].finish_seq, Some(1));
        assert_eq!(store.jobs[&a].finish_seq, Some(2));
        assert_eq!(store.live_jobs(), 0);
        // Re-entering a terminal state must not re-stamp.
        store.set_state(b, JobState::Done);
        assert_eq!(store.jobs[&b].finish_seq, Some(1));
    }
}

//! # cfpd-serve — crash-safe multi-tenant job daemon
//!
//! The ROADMAP's serving layer: a long-lived HTTP/1.1 daemon (`cfpd
//! serve`) that accepts `.campaign` specs as jobs, runs them on a
//! bounded worker pool, and — the robustness core — survives being
//! killed at *any* instant without losing or corrupting work:
//!
//! * [`wal`] — every job state transition is appended to a
//!   digest-guarded write-ahead log in the checkpoint codec's hex-text
//!   style; a restarted daemon replays the valid prefix and carries on;
//! * [`snap`] — per-cell progress snapshots: the partial golden event
//!   text, a metrics accumulator and a full `cfpd_core::checkpoint`,
//!   atomically written at every segment boundary, so an interrupted
//!   cell resumes *bit-identically* (the stitched result digest equals
//!   the uninterrupted run's, pinned against
//!   `tests/golden/campaign_small.golden`);
//! * [`state`] + [`daemon`] — the supervisor: job state machine
//!   (submitted → running → checkpointed → done/failed/cancelled) whose
//!   one writer, `Store::apply(&WalRecord)`, serves the live daemon and
//!   WAL replay alike,
//!   deadline budgets, bounded seeded exponential-backoff retry,
//!   checkpoint-backed **preemption** (pause a long job to admit a
//!   short one — `cfpd_dlb::JobArbiter` extends LeWI lending from
//!   ranks-within-a-run to jobs-within-a-node), and graceful overload
//!   degradation: a bounded admission queue that sheds with
//!   `503 + Retry-After`, and drain shutdown that checkpoints running
//!   jobs before exit;
//! * [`http`] — the dependency-free HTTP substrate (std `TcpListener`,
//!   thread-per-connection over a bounded accept pool) plus the tiny
//!   blocking client the CLI verbs and tests use;
//! * [`prom`] — a strict Prometheus text-format lint for `/metrics`;
//! * [`fault`] — `ServeFaultPlan`: seeded worker crashes, stuck cells
//!   and simulated mid-job daemon kills (a persistence gate freezes the
//!   WAL and snapshot files mid-flight, leaving the disk exactly as a
//!   real `kill -9` would).
//!
//! The `cfpd` binary lives here (top of the crate DAG) so `cfpd serve`
//! can reach the campaign engine without a dependency cycle.

#![forbid(unsafe_code)]

pub mod daemon;
pub mod fault;
pub mod feed;
pub mod http;
pub mod prom;
pub mod runner;
pub mod snap;
pub mod state;
pub mod wal;
pub mod watchdog;

pub use daemon::{Daemon, ServeConfig};
pub use fault::{CellFault, ServeFaultPlan};
pub use feed::{EventFeed, FeedEvent};
pub use http::{http_call, Request, Response};
pub use prom::lint_prometheus;
pub use cfpd_campaign::CellAcc;
pub use snap::{CellSnapshot, CheckpointSection, SnapshotParts};
pub use state::{Job, JobState};
pub use wal::{PersistGate, Wal, WalRecord};

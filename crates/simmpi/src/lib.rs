//! # cfpd-simmpi — a virtual MPI for single-process reproduction
//!
//! The paper's experiments run Alya with MPI across two cluster nodes.
//! This crate substitutes a *virtual cluster*: each MPI rank is an OS
//! thread, point-to-point messages are typed in-memory queues, and the
//! MPI collectives used by the simulation (barrier, allreduce, bcast,
//! gather, comm split) are implemented on top. There is one
//! blocking path: every receive, collective or not, waits in the same
//! loop, under the deadlock detector and a 60 s backstop. Two properties of real
//! MPI that the paper's techniques depend on are preserved faithfully:
//!
//! 1. **Blocking semantics** — ranks genuinely park while waiting, and
//! 2. **PMPI interception** — every blocking entry/exit fires
//!    [`hooks::MpiHooks`], the surface the DLB library (crate
//!    `cfpd-dlb`) uses to lend and reclaim cores, exactly like the real
//!    DLB intercepts `MPI_Recv`/`MPI_Barrier`/collectives via PMPI.
//!
//! Tags at `u64::MAX - 5 ..= u64::MAX` are reserved for internal
//! collectives; user code should use small tags.

#![forbid(unsafe_code)]

pub mod comm;
pub mod diag;
pub mod fault;
pub mod hooks;
pub mod profile;
pub mod tracer;
pub mod universe;

pub use comm::{Comm, CrashUnwind, ReduceOp, DEADLOCK_TIMEOUT};
pub use diag::{DeadlockReport, RankState, RankWait, UniverseDiag, WaitInfo};
pub use fault::{ChaosHooks, CrashSpec, FaultAction, FaultConfig, FaultEvent, FaultEventKind, FaultPlan};
pub use hooks::{BlockKind, MpiHooks, NoHooks};
pub use profile::{ProfileHooks, RankProfile};
pub use tracer::{MsgSpan, TraceHooks, WaitSpan};
pub use universe::Universe;

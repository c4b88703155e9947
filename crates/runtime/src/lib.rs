//! # cfpd-runtime — a task-based shared-memory runtime (OmpSs substitute)
//!
//! The paper's second level of parallelism is OmpSs/OpenMP. Its two key
//! features for this study are (1) a worker pool whose size can be
//! changed by the DLB library (`omp_set_num_threads` via
//! [`ThreadPool::set_active`]) and (2) OpenMP 5.0 *multidependences*:
//! dependence lists computed at runtime plus the `mutexinoutset`
//! relationship ([`taskgraph`]). Both are implemented here from scratch
//! on the std-based lock primitives of `cfpd-testkit::sync`.
//!
//! The three matrix-assembly parallelization strategies of the paper's
//! Fig. 4 (atomics / coloring / multidependences) are built on these
//! primitives in `cfpd-solver::assembly`.

#![deny(unsafe_code)]

pub mod chunk;
pub mod parallel_for;
#[allow(unsafe_code)]
pub mod pool;
#[allow(unsafe_code)]
pub mod taskgraph;

pub use chunk::{balanced_ranges, parallel_for_ranges, prefix_weights};
pub use parallel_for::parallel_for;
pub use pool::ThreadPool;
pub use taskgraph::{Dep, DepKind, ExecStats, TaskGraph, TaskId};

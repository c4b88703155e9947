//! The virtual cluster: spawns ranks as OS threads and wires them to a
//! world communicator plus a shared diagnostic registry (wait states,
//! deadlock detection, crash bookkeeping).

use crate::comm::{Comm, CommState, CrashUnwind};
use crate::diag::UniverseDiag;
use crate::hooks::{MpiHooks, NoHooks};
use std::sync::Arc;

/// Entry point of the virtual MPI world.
///
/// ```
/// use cfpd_simmpi::{Universe, ReduceOp};
/// let sums = Universe::run(4, |comm| {
///     comm.allreduce_f64(comm.rank() as f64, ReduceOp::Sum)
/// });
/// assert!(sums.iter().all(|&s| s == 6.0));
/// ```
pub struct Universe;

/// Marks the rank Finished on scope exit — including panic unwinds —
/// so the deadlock detector knows this rank can no longer send.
/// `mark_finished` is a no-op for ranks already declared Dead.
struct FinishGuard {
    diag: Arc<UniverseDiag>,
    rank: usize,
}

impl Drop for FinishGuard {
    fn drop(&mut self) {
        self.diag.mark_finished(self.rank);
    }
}

impl Universe {
    /// Run `size` ranks, each executing `f` with its world communicator
    /// on a dedicated thread. Returns the per-rank return values, rank
    /// order. Panics (with the rank id) if any rank panics.
    pub fn run<T, F>(size: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Comm) -> T + Send + Sync + 'static,
    {
        Self::run_with_hooks(size, Arc::new(NoHooks), f)
    }

    /// Like [`Universe::run`] but with PMPI-style interception hooks
    /// (the attachment point for the DLB library and the chaos layer).
    pub fn run_with_hooks<T, F>(size: usize, hooks: Arc<dyn MpiHooks>, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Comm) -> T + Send + Sync + 'static,
    {
        Self::run_fallible(size, hooks, f)
            .into_iter()
            .enumerate()
            .map(|(rank, r)| match r {
                Ok(v) => v,
                Err(msg) => panic!("rank {rank} panicked: {msg}"),
            })
            .collect()
    }

    /// Failure-tolerant variant: each rank's outcome is returned as a
    /// `Result` — `Err` carries the panic message, the rendered
    /// deadlock report, or the crash notice for ranks the fault plan
    /// killed — so chaos runs can inspect partial results instead of
    /// unwinding the caller.
    pub fn run_fallible<T, F>(
        size: usize,
        hooks: Arc<dyn MpiHooks>,
        f: F,
    ) -> Vec<Result<T, String>>
    where
        T: Send + 'static,
        F: Fn(Comm) -> T + Send + Sync + 'static,
    {
        assert!(size >= 1, "universe needs at least one rank");
        let diag = UniverseDiag::new(size);
        let state = CommState::new((0..size).collect(), 0);
        let f = Arc::new(f);
        let mut handles = Vec::with_capacity(size);
        for rank in 0..size {
            let comm = Comm::new(
                rank,
                size,
                rank,
                Arc::clone(&state),
                Arc::clone(&hooks),
                Arc::clone(&diag),
            );
            let f = Arc::clone(&f);
            let guard_diag = Arc::clone(&diag);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .spawn(move || {
                        let _finish = FinishGuard { diag: guard_diag, rank };
                        f(comm)
                    })
                    .expect("spawn rank thread"),
            );
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => Ok(v),
                Err(e) => {
                    if let Some(CrashUnwind(r)) = e.downcast_ref::<CrashUnwind>() {
                        Err(format!("rank {r} crashed (fail-silent)"))
                    } else {
                        let msg = e
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| e.downcast_ref::<&str>().copied())
                            .unwrap_or("<non-string panic>");
                        Err(msg.to_string())
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ChaosHooks, CrashSpec, FaultConfig, FaultPlan};
    use crate::hooks::CountingHooks;
    use std::sync::atomic::Ordering;

    #[test]
    fn ranks_return_values_in_rank_order() {
        let out = Universe::run(5, |comm| comm.rank() * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked: boom")]
    fn rank_panic_propagates_with_rank_id() {
        Universe::run(3, |comm| {
            if comm.rank() == 2 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn hooks_fire_on_blocking_recv() {
        let hooks = Arc::new(CountingHooks::default());
        let h2 = Arc::clone(&hooks);
        Universe::run_with_hooks(2, h2, |comm| {
            if comm.rank() == 0 {
                // Delay so rank 1 definitely blocks.
                std::thread::sleep(std::time::Duration::from_millis(30));
                comm.send(1, 0, 42u32);
            } else {
                let v: u32 = comm.recv(0, 0);
                assert_eq!(v, 42);
            }
        });
        assert_eq!(hooks.blocks.load(Ordering::SeqCst), 1);
        assert_eq!(hooks.unblocks.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn no_block_when_message_already_there() {
        let hooks = Arc::new(CountingHooks::default());
        let h2 = Arc::clone(&hooks);
        Universe::run_with_hooks(2, h2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, 1u8);
            } else {
                std::thread::sleep(std::time::Duration::from_millis(30));
                let _: u8 = comm.recv(0, 0);
            }
        });
        assert_eq!(hooks.blocks.load(Ordering::SeqCst), 0, "recv should not have blocked");
    }

    #[test]
    fn single_rank_universe() {
        let out = Universe::run(1, |comm| {
            comm.barrier();
            comm.allreduce_f64(3.0, crate::ReduceOp::Sum)
        });
        assert_eq!(out, vec![3.0]);
    }

    #[test]
    fn many_ranks_oversubscribed() {
        // More ranks than cores must still complete (threads, not spins).
        let out = Universe::run(32, |comm| {
            let s = comm.allreduce_f64(1.0, crate::ReduceOp::Sum);
            s as usize
        });
        assert!(out.iter().all(|&s| s == 32));
    }

    #[test]
    fn run_fallible_reports_panics_without_unwinding() {
        let out = Universe::run_fallible(3, Arc::new(NoHooks), |comm| {
            if comm.rank() == 1 {
                panic!("bad rank");
            }
            comm.rank()
        });
        assert_eq!(out[0], Ok(0));
        assert!(out[1].as_ref().unwrap_err().contains("bad rank"));
        assert_eq!(out[2], Ok(2));
    }

    #[test]
    fn crashed_rank_unwinds_and_peers_get_deadlock_report() {
        // Rank 1 crashes after its first send; rank 0's second recv can
        // never be satisfied → deadlock report naming the dead rank.
        let cfg = FaultConfig {
            crash: Some(CrashSpec { rank: 1, after_sends: 1 }),
            ..FaultConfig::quiet(0)
        };
        let chaos =
            ChaosHooks::new(2, std::time::Instant::now(), FaultPlan::new(cfg), Arc::new(NoHooks) as _);
        let out = Universe::run_fallible(2, chaos, |comm| {
            if comm.rank() == 1 {
                comm.send(0, 1, 10u32); // delivered
                comm.send(0, 2, 20u32); // swallowed: crash point
                // The crashed rank unwinds at its next blocking call.
                let _: u32 = comm.recv(0, 3);
                unreachable!("dead rank must not pass recv");
            } else {
                let a: u32 = comm.recv(1, 1);
                assert_eq!(a, 10);
                let _: u32 = comm.recv(1, 2); // never arrives
            }
            0u32
        });
        let e0 = out[0].as_ref().unwrap_err();
        assert!(e0.contains("DEADLOCK"), "rank 0 error: {e0}");
        assert!(e0.contains("CRASHED"), "rank 0 error: {e0}");
        let e1 = out[1].as_ref().unwrap_err();
        assert!(e1.contains("crashed (fail-silent)"), "rank 1 error: {e1}");
    }
}

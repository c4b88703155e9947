//! Deterministic fault injection for the virtual MPI fabric.
//!
//! The paper's argument is that runtime machinery keeps a run healthy
//! when reality diverges from the ideal — slow cores, blocked calls,
//! imbalance. This module makes "reality diverging" a first-class,
//! *reproducible* test input: a [`FaultPlan`] seeded through the
//! testkit PRNG decides, for every message and every blocking call,
//! whether to inject a delay, a reordering, a (bounded) drop with
//! redelivery, a rank stall, or a rank crash.
//!
//! Determinism contract: the decision for a message is a pure function
//! of `(seed, comm_id, src, dest, tag, seq)` — *never* of wall-clock
//! arrival order — so the same seed yields the identical injected-fault
//! schedule on every run regardless of thread interleaving. Injected
//! faults perturb timing and queue order only; because receivers match
//! messages by per-edge sequence number (MPI's non-overtaking rule),
//! delay/reorder/redelivered-drop plans leave the physics bit-identical.
//!
//! Attachment is through [`crate::hooks::MpiHooks`] ([`ChaosHooks`]
//! wraps any inner hooks, e.g. the DLB cluster), mirroring the paper's
//! "fix it in the runtime, not the source" philosophy: the simulation
//! code never mentions faults.

use crate::hooks::{BlockKind, MpiHooks};
use cfpd_testkit::digest::Digest;
use cfpd_testkit::rng::Rng;
use cfpd_testkit::sync::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What the fabric should do with one message (decided at send time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// Sleep `ms` milliseconds before enqueueing (a slow link).
    Delay { ms: u64 },
    /// Enqueue at a pseudo-random queue position instead of the back
    /// (cross-stream reordering; per-stream order is preserved by
    /// sequence-number matching).
    Reorder { slot: u64 },
    /// Swallow the message now, re-enqueue it after `after_ms` (a lost
    /// packet recovered by retransmission). Counted as in-flight so the
    /// deadlock detector never fires on a pending redelivery.
    DropRedeliver { after_ms: u64 },
    /// Swallow the message permanently (loss beyond the redelivery
    /// bound). Receivers waiting on it end in a deadlock report.
    DropForever,
    /// The sending rank has crashed (fail-silent): the message is
    /// swallowed and the rank is marked dead in the universe registry.
    SenderCrashed,
}

/// Scripted crash of one rank after it has performed `after_sends`
/// sends (fail-silent model: subsequent sends vanish).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    pub rank: usize,
    pub after_sends: u64,
}

/// Fault rates and bounds of one chaos run. All probabilities are per
/// message (or per blocking call, for stalls).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the whole schedule.
    pub seed: u64,
    /// Probability a message is delayed, and the delay cap.
    pub delay_prob: f64,
    pub max_delay_ms: u64,
    /// Probability a message is enqueued out of order.
    pub reorder_prob: f64,
    /// Probability a message is dropped.
    pub drop_prob: f64,
    /// How many times a dropped message may be redelivered. `0` means
    /// dropped messages are lost forever (the deadlock-provoking
    /// corner); `>= 1` means every drop is eventually redelivered.
    pub max_redeliveries: u32,
    /// Redelivery latency for recovered drops.
    pub redeliver_ms: u64,
    /// Probability a rank stalls when entering a blocking call, and the
    /// stall cap.
    pub stall_prob: f64,
    pub max_stall_ms: u64,
    /// Optional scripted rank crash.
    pub crash: Option<CrashSpec>,
}

impl FaultConfig {
    /// No faults at all (the plan is inert; useful as a baseline).
    pub fn quiet(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            delay_prob: 0.0,
            max_delay_ms: 0,
            reorder_prob: 0.0,
            drop_prob: 0.0,
            max_redeliveries: 1,
            redeliver_ms: 0,
            stall_prob: 0.0,
            max_stall_ms: 0,
            crash: None,
        }
    }

    /// The benign chaos preset: delays, reorderings, bounded
    /// drops-with-redelivery and short stalls — every fault is
    /// recoverable, so the physics must come out bit-identical.
    pub fn benign(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            delay_prob: 0.20,
            max_delay_ms: 3,
            reorder_prob: 0.25,
            drop_prob: 0.10,
            max_redeliveries: 1,
            redeliver_ms: 4,
            stall_prob: 0.10,
            max_stall_ms: 5,
            crash: None,
        }
    }

    /// The lossy corner: drops beyond the redelivery bound. A run under
    /// this plan must end in a structured deadlock report, never a hang.
    pub fn storm(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            delay_prob: 0.0,
            max_delay_ms: 0,
            reorder_prob: 0.0,
            drop_prob: 0.6,
            max_redeliveries: 0,
            redeliver_ms: 0,
            stall_prob: 0.0,
            max_stall_ms: 0,
            crash: None,
        }
    }
}

/// The seeded fault schedule: pure decision functions over message and
/// block-call coordinates.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        FaultPlan { cfg }
    }

    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// A PRNG stream keyed on the decision coordinates: same inputs,
    /// same stream, on every run and platform.
    fn stream(&self, domain: u64, keys: &[u64]) -> Rng {
        let mut d = Digest::new();
        d.update_u64(self.cfg.seed).update_u64(domain);
        for &k in keys {
            d.update_u64(k);
        }
        Rng::new(d.finish())
    }

    /// Decide the fate of message `seq` on the edge `src -> dest` of
    /// communicator `comm_id` with tag `tag`. Pure: independent of
    /// arrival order, thread timing and prior decisions.
    pub fn decide_send(
        &self,
        comm_id: u64,
        src: usize,
        dest: usize,
        tag: u64,
        seq: u64,
    ) -> FaultAction {
        let c = &self.cfg;
        if c.drop_prob <= 0.0 && c.reorder_prob <= 0.0 && c.delay_prob <= 0.0 {
            return FaultAction::Deliver;
        }
        let mut rng = self.stream(0x5E4D, &[comm_id, src as u64, dest as u64, tag, seq]);
        let roll = rng.f64();
        if roll < c.drop_prob {
            return if c.max_redeliveries > 0 {
                FaultAction::DropRedeliver { after_ms: c.redeliver_ms }
            } else {
                FaultAction::DropForever
            };
        }
        if roll < c.drop_prob + c.reorder_prob {
            return FaultAction::Reorder { slot: rng.next_u64() };
        }
        if roll < c.drop_prob + c.reorder_prob + c.delay_prob {
            return FaultAction::Delay { ms: 1 + rng.bounded_u64(c.max_delay_ms.max(1)) };
        }
        FaultAction::Deliver
    }

    /// Decide whether rank `rank`'s `nth` blocking call stalls, and for
    /// how many milliseconds.
    pub fn decide_stall(&self, rank: usize, nth: u64) -> Option<u64> {
        let c = &self.cfg;
        if c.stall_prob <= 0.0 {
            return None;
        }
        let mut rng = self.stream(0x57A11, &[rank as u64, nth]);
        if rng.f64() < c.stall_prob {
            Some(1 + rng.bounded_u64(c.max_stall_ms.max(1)))
        } else {
            None
        }
    }
}

/// One injected fault, timestamped against the run epoch the hooks were
/// given — the record the trace layer renders as chaos markers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub t: f64,
    pub rank: usize,
    pub kind: FaultEventKind,
}

/// What was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    Delay { ms: u64 },
    Reorder,
    DropRedeliver,
    DropLost,
    Stall { ms: u64 },
    Crash,
}

/// PMPI-style hooks that inject the [`FaultPlan`]'s schedule into the
/// fabric while forwarding every callback to an inner hooks object
/// (typically the DLB cluster) — chaos and load balancing compose.
pub struct ChaosHooks {
    plan: FaultPlan,
    inner: Arc<dyn MpiHooks>,
    epoch: Instant,
    log: Mutex<Vec<FaultEvent>>,
    /// Per-rank counters giving each blocking call / send a stable
    /// ordinal for the stall / crash decisions.
    blocks: Vec<AtomicU64>,
    sends: Vec<AtomicU64>,
    crashed: Vec<AtomicBool>,
}

impl ChaosHooks {
    /// Wrap `inner` with the fault schedule of `plan` for a universe of
    /// `n_ranks` ranks, stamping faults against `epoch` — the run clock
    /// that phase, wait, message and DLB records share.
    pub fn new(
        n_ranks: usize,
        epoch: Instant,
        plan: FaultPlan,
        inner: Arc<dyn MpiHooks>,
    ) -> Arc<ChaosHooks> {
        Arc::new(ChaosHooks {
            plan,
            inner,
            epoch,
            log: Mutex::new(Vec::new()),
            blocks: (0..n_ranks).map(|_| AtomicU64::new(0)).collect(),
            sends: (0..n_ranks).map(|_| AtomicU64::new(0)).collect(),
            crashed: (0..n_ranks).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    fn record(&self, rank: usize, kind: FaultEventKind) {
        cfpd_telemetry::count!("mpi.faults_injected");
        cfpd_flight::record(cfpd_flight::EventKind::Fault, rank as u32, 0, 0, 0);
        let t = self.epoch.elapsed().as_secs_f64();
        self.log.lock().push(FaultEvent { t, rank, kind });
    }

    /// Snapshot of every injected fault so far.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.log.lock().clone()
    }

    /// Number of injected faults.
    #[cfg(test)]
    pub fn fault_count(&self) -> usize {
        self.log.lock().len()
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl MpiHooks for ChaosHooks {
    fn on_block(&self, rank: usize, kind: BlockKind) {
        if let Some(c) = self.blocks.get(rank) {
            let nth = c.fetch_add(1, Ordering::Relaxed);
            if let Some(ms) = self.plan.decide_stall(rank, nth) {
                self.record(rank, FaultEventKind::Stall { ms });
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }
        self.inner.on_block(rank, kind);
    }

    fn on_unblock(&self, rank: usize, kind: BlockKind) {
        self.inner.on_unblock(rank, kind);
    }

    fn on_send(&self, comm_id: u64, src: usize, dest: usize, tag: u64, seq: u64) -> FaultAction {
        if let (Some(crash), Some(counter)) = (self.plan.cfg.crash, self.sends.get(src)) {
            let nth = counter.fetch_add(1, Ordering::Relaxed);
            if src == crash.rank && nth >= crash.after_sends {
                if !self.crashed[src].swap(true, Ordering::Relaxed) {
                    self.record(src, FaultEventKind::Crash);
                }
                return FaultAction::SenderCrashed;
            }
        }
        let action = self.plan.decide_send(comm_id, src, dest, tag, seq);
        match action {
            FaultAction::Deliver => {}
            FaultAction::Delay { ms } => self.record(src, FaultEventKind::Delay { ms }),
            FaultAction::Reorder { .. } => self.record(src, FaultEventKind::Reorder),
            FaultAction::DropRedeliver { .. } => self.record(src, FaultEventKind::DropRedeliver),
            FaultAction::DropForever => self.record(src, FaultEventKind::DropLost),
            FaultAction::SenderCrashed => {}
        }
        action
    }

    fn on_rank_dead(&self, rank: usize) {
        self.inner.on_rank_dead(rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHooks;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = FaultPlan::new(FaultConfig::benign(7));
        let b = FaultPlan::new(FaultConfig::benign(7));
        for seq in 0..200 {
            assert_eq!(
                a.decide_send(0, 0, 1, 11, seq),
                b.decide_send(0, 0, 1, 11, seq)
            );
            assert_eq!(a.decide_stall(1, seq), b.decide_stall(1, seq));
        }
    }

    #[test]
    fn benign_plan_injects_something_but_never_loses() {
        let plan = FaultPlan::new(FaultConfig::benign(42));
        let mut injected = 0usize;
        for seq in 0..500 {
            match plan.decide_send(0, 0, 1, 10, seq) {
                FaultAction::Deliver => {}
                FaultAction::DropForever | FaultAction::SenderCrashed => {
                    panic!("benign plan produced an unrecoverable fault")
                }
                _ => injected += 1,
            }
        }
        assert!(injected > 50, "benign plan too quiet: {injected}/500");
    }

    #[test]
    fn storm_plan_loses_messages_forever() {
        let plan = FaultPlan::new(FaultConfig::storm(3));
        let lost = (0..100)
            .filter(|&seq| plan.decide_send(0, 0, 1, 10, seq) == FaultAction::DropForever)
            .count();
        assert!(lost > 20, "storm plan too gentle: {lost}/100");
    }

    #[test]
    fn chaos_hooks_log_and_forward() {
        let inner = Arc::new(crate::hooks::CountingHooks::default());
        let chaos = ChaosHooks::new(2, Instant::now(), FaultPlan::new(FaultConfig::benign(1)), Arc::clone(&inner) as _);
        chaos.on_block(0, BlockKind::Recv);
        chaos.on_unblock(0, BlockKind::Recv);
        assert_eq!(inner.blocks.load(Ordering::SeqCst), 1);
        assert_eq!(inner.unblocks.load(Ordering::SeqCst), 1);
        for seq in 0..50 {
            chaos.on_send(0, 0, 1, 9, seq);
        }
        assert!(chaos.fault_count() > 0, "no faults logged over 50 sends");
    }

    #[test]
    fn scripted_crash_swallows_subsequent_sends() {
        let cfg = FaultConfig {
            crash: Some(CrashSpec { rank: 1, after_sends: 3 }),
            ..FaultConfig::quiet(0)
        };
        let chaos = ChaosHooks::new(2, Instant::now(), FaultPlan::new(cfg), Arc::new(NoHooks) as _);
        for seq in 0..3 {
            assert_eq!(chaos.on_send(0, 1, 0, 5, seq), FaultAction::Deliver);
        }
        assert_eq!(chaos.on_send(0, 1, 0, 5, 3), FaultAction::SenderCrashed);
        assert_eq!(chaos.on_send(0, 1, 0, 5, 4), FaultAction::SenderCrashed);
        // The other rank is unaffected.
        assert_eq!(chaos.on_send(0, 0, 1, 5, 0), FaultAction::Deliver);
        let crashes = chaos
            .events()
            .iter()
            .filter(|e| e.kind == FaultEventKind::Crash)
            .count();
        assert_eq!(crashes, 1, "crash must be logged exactly once");
    }
}

//! Deterministic heterogeneous-cluster emulation.
//!
//! The paper's headline comparison runs the same code on two very
//! different microarchitectures (out-of-order MareNostrum4 Xeons vs
//! in-order ThunderX Arm cores). This container is homogeneous, so
//! heterogeneity is *emulated*: a seeded [`RankProfile`] assigns each
//! rank a relative speed, and [`ProfileHooks`] — attached in the same
//! PMPI chain as [`crate::fault::ChaosHooks`] — injects a deterministic
//! extra delay whenever a slow rank enters a blocking call, as if its
//! compute phase had taken longer on a slower core.
//!
//! Determinism contract (mirrors [`crate::fault::FaultPlan`]): the
//! injected delay is a pure function of `(seed, rank, blocking-call
//! ordinal, call kind)` — never of wall-clock arrival order. Profiles
//! perturb timing only, so the logical trace and all goldens stay
//! byte-identical whether a profile is attached or not.

use crate::fault::FaultAction;
use crate::hooks::{BlockKind, MpiHooks};
use cfpd_testkit::digest::Digest;
use cfpd_testkit::rng::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Domain constant separating profile streams from the fault-plan
/// streams (`0x5E4D` sends, `0x57A11` stalls).
const PROFILE_DOMAIN: u64 = 0x48E7E0;

/// A seeded per-rank speed profile. Rank `r` runs at relative speed
/// `pattern[r % pattern.len()]` (`1.0` = fastest class), so one profile
/// describes any rank count — an alternating fast/slow pattern scales
/// from 2 emulated nodes to 64.
#[derive(Debug, Clone, PartialEq)]
pub struct RankProfile {
    /// Human-readable profile name (surfaces in reports and traces).
    pub name: String,
    /// Seed of the injected-delay schedule.
    pub seed: u64,
    /// Relative per-rank speeds in `(0, 1]`, indexed modulo its length.
    pub pattern: Vec<f64>,
    /// Delay scale: a rank of speed `s` sleeps up to
    /// `stall_ms * (1/s - 1)` milliseconds per blocking call.
    pub stall_ms: f64,
}

impl RankProfile {
    /// Build a profile; speeds must be finite and in `(0, 1]`.
    pub fn new(name: &str, seed: u64, pattern: Vec<f64>, stall_ms: f64) -> RankProfile {
        assert!(!pattern.is_empty(), "profile pattern must not be empty");
        for &s in &pattern {
            assert!(
                s.is_finite() && s > 0.0 && s <= 1.0,
                "profile speed {s} outside (0, 1]"
            );
        }
        assert!(stall_ms.is_finite() && stall_ms >= 0.0);
        RankProfile { name: name.to_string(), seed, pattern, stall_ms }
    }

    /// The homogeneous profile: every rank at full speed, nothing
    /// injected.
    pub fn uniform(seed: u64) -> RankProfile {
        RankProfile::new("uniform", seed, vec![1.0], 0.0)
    }

    /// Relative speed of `rank` (`1.0` = fastest class).
    pub fn speed_of(&self, rank: usize) -> f64 {
        self.pattern[rank % self.pattern.len()]
    }

    /// Slowdown factor of `rank` relative to the fastest class
    /// (`>= 1.0`).
    pub fn slow_factor(&self, rank: usize) -> f64 {
        1.0 / self.speed_of(rank)
    }

    /// True when no rank is slowed (nothing will ever be injected).
    pub fn is_uniform(&self) -> bool {
        self.stall_ms == 0.0 || self.pattern.iter().all(|&s| s == 1.0)
    }

    fn kind_key(kind: BlockKind) -> u64 {
        match kind {
            BlockKind::Recv => 0,
            BlockKind::Barrier => 1,
            BlockKind::Collective => 2,
        }
    }

    /// The injected delay for rank `rank`'s `nth` blocking call of
    /// `kind`. Pure: same inputs, same delay, on every run and platform.
    pub fn stall_of(&self, rank: usize, nth: u64, kind: BlockKind) -> Duration {
        let slowness = self.slow_factor(rank) - 1.0;
        if slowness <= 0.0 || self.stall_ms <= 0.0 {
            return Duration::ZERO;
        }
        let mut d = Digest::new();
        d.update_u64(self.seed)
            .update_u64(PROFILE_DOMAIN)
            .update_u64(rank as u64)
            .update_u64(nth)
            .update_u64(Self::kind_key(kind));
        let mut rng = Rng::new(d.finish());
        // Jitter in [0.5, 1.0] of the full stall keeps the schedule
        // non-degenerate without ever exceeding the configured cap.
        let ms = self.stall_ms * slowness * (0.5 + 0.5 * rng.f64());
        Duration::from_micros((ms * 1000.0) as u64)
    }
}

/// PMPI hooks injecting a [`RankProfile`]'s delay schedule while
/// forwarding every callback to an inner hooks object (typically the
/// DLB cluster, possibly already wrapped in chaos) — heterogeneity,
/// chaos and load balancing compose in one chain.
pub struct ProfileHooks {
    profile: RankProfile,
    inner: Arc<dyn MpiHooks>,
    /// Per-rank blocking-call ordinals (the `nth` of the pure schedule).
    blocks: Vec<AtomicU64>,
    /// Per-rank injected microseconds, for tests and diagnostics.
    injected_us: Vec<AtomicU64>,
}

impl ProfileHooks {
    /// Wrap `inner` with the delay schedule of `profile` for a universe
    /// of `n_ranks` ranks.
    pub fn new(
        n_ranks: usize,
        profile: RankProfile,
        inner: Arc<dyn MpiHooks>,
    ) -> Arc<ProfileHooks> {
        Arc::new(ProfileHooks {
            profile,
            inner,
            blocks: (0..n_ranks).map(|_| AtomicU64::new(0)).collect(),
            injected_us: (0..n_ranks).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    pub fn profile(&self) -> &RankProfile {
        &self.profile
    }

    /// Total microseconds injected into `rank` so far.
    #[cfg(test)]
    pub fn injected_micros(&self, rank: usize) -> u64 {
        self.injected_us.get(rank).map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

impl MpiHooks for ProfileHooks {
    fn on_block(&self, rank: usize, kind: BlockKind) {
        if let Some(c) = self.blocks.get(rank) {
            let nth = c.fetch_add(1, Ordering::Relaxed);
            let stall = self.profile.stall_of(rank, nth, kind);
            if stall > Duration::ZERO {
                self.injected_us[rank].fetch_add(stall.as_micros() as u64, Ordering::Relaxed);
                cfpd_telemetry::count!("hetero.stalls");
                std::thread::sleep(stall);
            }
        }
        self.inner.on_block(rank, kind);
    }

    fn on_unblock(&self, rank: usize, kind: BlockKind) {
        self.inner.on_unblock(rank, kind);
    }

    fn on_send(&self, comm_id: u64, src: usize, dest: usize, tag: u64, seq: u64) -> FaultAction {
        self.inner.on_send(comm_id, src, dest, tag, seq)
    }

    fn on_msg_recv(&self, comm_id: u64, src: usize, dest: usize, tag: u64, seq: u64, bytes: usize) {
        self.inner.on_msg_recv(comm_id, src, dest, tag, seq, bytes);
    }

    fn on_rank_dead(&self, rank: usize) {
        self.inner.on_rank_dead(rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::CountingHooks;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = RankProfile::new("mixed", 7, vec![1.0, 0.25], 3.0);
        let b = RankProfile::new("mixed", 7, vec![1.0, 0.25], 3.0);
        for nth in 0..100 {
            for kind in [BlockKind::Recv, BlockKind::Barrier, BlockKind::Collective] {
                assert_eq!(a.stall_of(1, nth, kind), b.stall_of(1, nth, kind));
            }
        }
        let c = RankProfile::new("mixed", 8, vec![1.0, 0.25], 3.0);
        let differs = (0..100)
            .any(|nth| a.stall_of(1, nth, BlockKind::Recv) != c.stall_of(1, nth, BlockKind::Recv));
        assert!(differs, "different seeds must yield different schedules");
    }

    #[test]
    fn fast_ranks_are_never_delayed() {
        let p = RankProfile::new("mixed", 11, vec![1.0, 0.2], 2.0);
        for nth in 0..50 {
            assert_eq!(p.stall_of(0, nth, BlockKind::Barrier), Duration::ZERO);
            assert_eq!(p.stall_of(2, nth, BlockKind::Barrier), Duration::ZERO);
            assert!(p.stall_of(1, nth, BlockKind::Barrier) > Duration::ZERO);
            assert!(p.stall_of(3, nth, BlockKind::Barrier) > Duration::ZERO);
        }
        assert!(RankProfile::uniform(0).is_uniform());
        assert!(!p.is_uniform());
    }

    #[test]
    fn stall_respects_the_configured_cap() {
        let p = RankProfile::new("mixed", 3, vec![1.0, 0.5], 4.0);
        // Speed 0.5 → slowness 1.0 → at most stall_ms (4 ms) per call.
        let cap = Duration::from_micros(4000);
        for nth in 0..200 {
            assert!(p.stall_of(1, nth, BlockKind::Recv) <= cap);
        }
    }

    #[test]
    fn hooks_delay_slow_ranks_and_forward() {
        let inner = Arc::new(CountingHooks::default());
        let profile = RankProfile::new("mixed", 5, vec![1.0, 0.4], 1.0);
        let hooks = ProfileHooks::new(2, profile, Arc::clone(&inner) as _);
        hooks.on_block(0, BlockKind::Barrier);
        hooks.on_block(1, BlockKind::Barrier);
        hooks.on_unblock(0, BlockKind::Barrier);
        hooks.on_unblock(1, BlockKind::Barrier);
        assert_eq!(inner.blocks.load(Ordering::SeqCst), 2);
        assert_eq!(inner.unblocks.load(Ordering::SeqCst), 2);
        assert_eq!(hooks.injected_micros(0), 0, "fast rank untouched");
        assert!(hooks.injected_micros(1) > 0, "slow rank delayed");
    }
}

//! The LeWI ("Lend When Idle") policy of the DLB library (§3.2).
//!
//! Ranks co-located on a node register their worker pool and core
//! allotment with a [`DlbNode`]. When a rank enters a blocking MPI call
//! it *lends* its cores to the node; the node redistributes them to the
//! busy ranks by growing their pools (`omp_set_num_threads`, here
//! [`cfpd_runtime::ThreadPool::set_active`]). When the blocked rank
//! returns, it *reclaims* its cores, shrinking borrowers back.

//! Graceful degradation under faults: a stalled rank's *kept* core is
//! donated once a lease timeout expires ([`DlbNode::sweep_leases`]),
//! and a crashed rank's whole allotment is permanently redistributed
//! ([`DlbNode::mark_crashed`]) — in both cases preserving LeWI's core
//! conservation (no core is ever minted; reclaim takes back exactly
//! what was actually lent, tracked per rank in `lent_out`).

use cfpd_runtime::ThreadPool;
use cfpd_testkit::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What happened on the node, with a timestamp relative to node
/// creation — this is the event stream rendered for the paper's Fig. 5.
#[derive(Debug, Clone, PartialEq)]
pub enum DlbEventKind {
    /// Rank blocked and lent `cores` to the node.
    Lend { cores: usize },
    /// Rank was granted `cores` extra cores (its pool grew to `active`).
    Borrow { cores: usize, active: usize },
    /// Rank unblocked and reclaimed its cores.
    Reclaim { cores: usize },
    /// Rank had borrowed cores revoked (its pool shrank to `active`).
    Revoke { cores: usize, active: usize },
    /// Rank overstayed its lending lease while blocked: its kept
    /// core(s) were forcibly donated to the node.
    LeaseExpired { cores: usize },
    /// Rank was declared crashed: its entire allotment was permanently
    /// donated to the node.
    Crashed { cores: usize },
}

/// Timestamped DLB event.
#[derive(Debug, Clone)]
pub struct DlbEvent {
    pub t: f64,
    pub rank: usize,
    pub kind: DlbEventKind,
}

struct RankSlot {
    pool: Arc<ThreadPool>,
    owned: usize,
    borrowed: usize,
    blocked: bool,
    /// Cores this rank has actually handed to the node and not yet
    /// reclaimed. Reclaim takes back exactly this much — never a
    /// recomputed `owned - keep`, which would mint cores after a lease
    /// sweep donated the kept core.
    lent_out: usize,
    /// When the rank entered its current blocking call (lease clock).
    blocked_since: Option<Instant>,
    /// Crashed ranks are out of the game: lend/reclaim ignore them and
    /// their allotment belongs to the node forever.
    crashed: bool,
}

struct NodeState {
    ranks: BTreeMap<usize, RankSlot>,
    /// Cores currently lent to the node and not yet granted to anyone.
    free_lent: usize,
}

/// Aggregated LeWI statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct DlbStats {
    pub lends: usize,
    pub reclaims: usize,
    pub grants: usize,
    pub revokes: usize,
    pub cores_lent_total: usize,
    pub lease_expiries: usize,
    pub crashes: usize,
}

/// Lending behaviour when a rank blocks in MPI (DLB's `LEWI_KEEP_ONE_CPU`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LendPolicy {
    /// Keep one core for an MPI library that busy-waits in its blocking
    /// calls (DLB's default on real MPI). A rank that owns one core
    /// never lends.
    KeepOne,
    /// Lend every core. The default here: `cfpd-simmpi` parks a blocked
    /// rank on a condvar, so nothing busy-waits and a kept core would
    /// idle — and it is the only way a one-thread rank can lend at all.
    #[default]
    LendAll,
}

impl LendPolicy {
    /// Cores a blocked rank holds back from the node.
    pub fn kept_cores(self) -> usize {
        match self {
            LendPolicy::KeepOne => 1,
            LendPolicy::LendAll => 0,
        }
    }
}

/// How lent cores are distributed among busy ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GrantPolicy {
    /// Round-robin one core at a time (even shares).
    #[default]
    Even,
    /// Give everything to the busy rank with the fewest active cores
    /// (helps a single dominant straggler fastest).
    Neediest,
}

/// Per-node DLB arbiter implementing LeWI.
pub struct DlbNode {
    state: Mutex<NodeState>,
    events: Mutex<Vec<DlbEvent>>,
    stats: Mutex<DlbStats>,
    epoch: Instant,
    lend_policy: LendPolicy,
    grant_policy: GrantPolicy,
    /// How long a blocked rank may sit on its kept core before a lease
    /// sweep donates it. `None` disables lease expiry.
    lease: Option<Duration>,
}

impl DlbNode {
    pub fn new() -> Arc<DlbNode> {
        Self::with_policies(LendPolicy::default(), GrantPolicy::default())
    }

    /// Create a node arbiter with explicit policies.
    pub fn with_policies(lend: LendPolicy, grant: GrantPolicy) -> Arc<DlbNode> {
        Self::with_lease(lend, grant, None)
    }

    /// Create a node arbiter with explicit policies and a lending lease:
    /// a rank blocked longer than `lease` has its kept core(s) donated
    /// by [`DlbNode::sweep_leases`].
    pub fn with_lease(
        lend: LendPolicy,
        grant: GrantPolicy,
        lease: Option<Duration>,
    ) -> Arc<DlbNode> {
        Self::with_lease_at(lend, grant, lease, Instant::now())
    }

    /// Like [`DlbNode::with_lease`] but with an explicit event-timestamp
    /// epoch — traced runs share one clock between DLB events, phase
    /// records and message records.
    pub fn with_lease_at(
        lend: LendPolicy,
        grant: GrantPolicy,
        lease: Option<Duration>,
        epoch: Instant,
    ) -> Arc<DlbNode> {
        Arc::new(DlbNode {
            state: Mutex::new(NodeState { ranks: BTreeMap::new(), free_lent: 0 }),
            events: Mutex::new(Vec::new()),
            stats: Mutex::new(DlbStats::default()),
            epoch,
            lend_policy: lend,
            grant_policy: grant,
            lease,
        })
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Register a rank living on this node with its pool and the number
    /// of cores it owns. The pool is clamped to `owned` immediately.
    pub fn register(&self, rank: usize, pool: Arc<ThreadPool>, owned: usize) {
        assert!(owned >= 1, "a rank owns at least one core");
        pool.set_active(owned);
        let mut st = self.state.lock();
        let prev = st.ranks.insert(
            rank,
            RankSlot {
                pool,
                owned,
                borrowed: 0,
                blocked: false,
                lent_out: 0,
                blocked_since: None,
                crashed: false,
            },
        );
        assert!(prev.is_none(), "rank {rank} registered twice");
    }

    /// Rank entered a blocking MPI call: lend its cores and redistribute.
    pub fn lend(&self, rank: usize) {
        let mut st = self.state.lock();
        let slot = match st.ranks.get_mut(&rank) {
            Some(s) => s,
            None => return, // unregistered rank (e.g. DLB off for it)
        };
        if slot.blocked || slot.crashed {
            return; // nested blocking (collective built on recv): ignore
        }
        slot.blocked = true;
        slot.blocked_since = Some(Instant::now());
        // A blocked rank has no use for borrowed cores either.
        let returned = slot.borrowed;
        slot.borrowed = 0;
        let keep = self.lend_policy.kept_cores();
        let lent = slot.owned.saturating_sub(keep);
        slot.lent_out = lent;
        slot.pool.set_active(keep.max(1));
        st.free_lent += lent + returned;
        drop(st);
        {
            let mut ev = self.events.lock();
            ev.push(DlbEvent { t: self.now(), rank, kind: DlbEventKind::Lend { cores: lent } });
        }
        {
            let mut s = self.stats.lock();
            s.lends += 1;
            s.cores_lent_total += lent;
        }
        cfpd_telemetry::count!("dlb.lends");
        cfpd_telemetry::count!("dlb.cores_lent_total", lent as u64);
        cfpd_telemetry::gauge_add!("dlb.cores_lent_out", lent as i64);
        cfpd_flight::record(cfpd_flight::EventKind::DlbLend, rank as u32, rank as u32, lent as u64, 0);
        self.redistribute();
    }

    /// Rank left its blocking call: reclaim owned cores, revoking
    /// borrowers if the free pool cannot cover them.
    pub fn reclaim(&self, rank: usize) {
        let mut st = self.state.lock();
        let slot = match st.ranks.get_mut(&rank) {
            Some(s) => s,
            None => return,
        };
        if slot.crashed || !slot.blocked {
            return;
        }
        slot.blocked = false;
        slot.blocked_since = None;
        // Take back exactly what was lent — including a kept core a
        // lease sweep donated mid-block — so no core is ever minted.
        let mut need = slot.lent_out;
        let reclaimed = need;
        slot.lent_out = 0;
        slot.pool.set_active(slot.owned + slot.borrowed);
        let from_free = need.min(st.free_lent);
        st.free_lent -= from_free;
        need -= from_free;
        // Revoke from borrowers (largest borrowers first).
        let mut revocations: Vec<(usize, usize, usize)> = Vec::new(); // (rank, revoke, new_active)
        if need > 0 {
            let mut borrowers: Vec<(usize, usize)> = st
                .ranks
                .iter()
                .filter(|(_, s)| s.borrowed > 0)
                .map(|(&r, s)| (r, s.borrowed))
                .collect();
            borrowers.sort_by_key(|&(r, b)| (std::cmp::Reverse(b), r));
            for (r, _) in borrowers {
                if need == 0 {
                    break;
                }
                let s = st.ranks.get_mut(&r).unwrap();
                let take = s.borrowed.min(need);
                s.borrowed -= take;
                need -= take;
                let active = s.owned + s.borrowed;
                s.pool.set_active(active);
                revocations.push((r, take, active));
            }
        }
        drop(st);
        let t = self.now();
        {
            let mut ev = self.events.lock();
            ev.push(DlbEvent {
                t,
                rank,
                kind: DlbEventKind::Reclaim { cores: from_free + revocations.iter().map(|r| r.1).sum::<usize>() },
            });
            for (r, take, active) in &revocations {
                ev.push(DlbEvent {
                    t,
                    rank: *r,
                    kind: DlbEventKind::Revoke { cores: *take, active: *active },
                });
            }
        }
        let mut s = self.stats.lock();
        s.reclaims += 1;
        s.revokes += revocations.len();
        drop(s);
        cfpd_telemetry::count!("dlb.reclaims");
        cfpd_telemetry::count!("dlb.revokes", revocations.len() as u64);
        cfpd_telemetry::gauge_add!("dlb.cores_lent_out", -(reclaimed as i64));
        cfpd_flight::record(
            cfpd_flight::EventKind::DlbReclaim,
            rank as u32,
            rank as u32,
            reclaimed as u64,
            0,
        );
    }

    /// Declare a rank crashed (fail-silent): everything it still holds
    /// — kept core, unlent cores, borrowed cores — is donated to the
    /// node permanently and the rank is excluded from future
    /// lend/reclaim traffic. Idempotent. The rank's own pool is floored
    /// at one worker (a pool cannot run with zero executors).
    pub fn mark_crashed(&self, rank: usize) {
        let mut st = self.state.lock();
        let slot = match st.ranks.get_mut(&rank) {
            Some(s) => s,
            None => return,
        };
        if slot.crashed {
            return;
        }
        slot.crashed = true;
        slot.blocked = true; // never a grant recipient again
        slot.blocked_since = None;
        let donated = slot.owned.saturating_sub(slot.lent_out) + slot.borrowed;
        slot.borrowed = 0;
        slot.lent_out = slot.owned;
        slot.pool.set_active(1);
        st.free_lent += donated;
        drop(st);
        {
            let mut ev = self.events.lock();
            ev.push(DlbEvent {
                t: self.now(),
                rank,
                kind: DlbEventKind::Crashed { cores: donated },
            });
        }
        {
            let mut s = self.stats.lock();
            s.crashes += 1;
            s.cores_lent_total += donated;
        }
        cfpd_telemetry::count!("dlb.crashes");
        cfpd_telemetry::count!("dlb.cores_lent_total", donated as u64);
        cfpd_telemetry::gauge_add!("dlb.cores_lent_out", donated as i64);
        self.redistribute();
    }

    /// Sweep the lending leases: any rank blocked longer than the
    /// node's lease has its kept core(s) donated so the node can keep
    /// working around a stalled peer. No-op without a configured lease.
    /// Returns how many ranks were swept.
    pub fn sweep_leases(&self) -> usize {
        let Some(lease) = self.lease else { return 0 };
        let mut st = self.state.lock();
        let mut swept: Vec<(usize, usize)> = Vec::new(); // (rank, donated)
        for (&rank, slot) in st.ranks.iter_mut() {
            if slot.crashed || !slot.blocked {
                continue;
            }
            let overdue = slot.blocked_since.is_some_and(|t0| t0.elapsed() >= lease);
            let held = slot.owned.saturating_sub(slot.lent_out);
            if overdue && held > 0 {
                slot.lent_out += held;
                slot.pool.set_active(1); // floor; the core itself is gone
                swept.push((rank, held));
            }
        }
        for &(_, donated) in &swept {
            st.free_lent += donated;
        }
        drop(st);
        if swept.is_empty() {
            return 0;
        }
        let t = self.now();
        {
            let mut ev = self.events.lock();
            for &(rank, donated) in &swept {
                ev.push(DlbEvent { t, rank, kind: DlbEventKind::LeaseExpired { cores: donated } });
            }
        }
        let swept_cores = swept.iter().map(|&(_, d)| d).sum::<usize>();
        {
            let mut s = self.stats.lock();
            s.lease_expiries += swept.len();
            s.cores_lent_total += swept_cores;
        }
        cfpd_telemetry::count!("dlb.lease_expiries", swept.len() as u64);
        cfpd_telemetry::count!("dlb.cores_lent_total", swept_cores as u64);
        cfpd_telemetry::gauge_add!("dlb.cores_lent_out", swept_cores as i64);
        self.redistribute();
        swept.len()
    }

    /// Core-conservation check for tests: total active workers across
    /// pools never exceed total owned cores plus the pool floor of each
    /// fully-lent (blocked-LendAll, lease-swept, or crashed) rank, and
    /// unaccounted free cores are non-negative.
    pub fn conservation(&self) -> (usize, usize) {
        let st = self.state.lock();
        let total_owned: usize = st.ranks.values().map(|s| s.owned).sum();
        let mut budget = total_owned;
        let mut active = 0usize;
        for s in st.ranks.values() {
            active += s.pool.active();
            // A rank whose entire allotment is lent away still runs a
            // single floor worker that owns no core.
            if s.lent_out >= s.owned {
                budget += 1;
            }
        }
        (active + st.free_lent, budget)
    }
    fn redistribute(&self) {
        let mut st = self.state.lock();
        if st.free_lent == 0 {
            return;
        }
        let busy: Vec<usize> = st
            .ranks
            .iter()
            .filter(|(_, s)| !s.blocked)
            .map(|(&r, _)| r)
            .collect();
        if busy.is_empty() {
            return;
        }
        let mut grants: Vec<(usize, usize, usize)> = Vec::new();
        let mut free = st.free_lent;
        // One core at a time; the recipient is chosen by the grant
        // policy. A rank saturated at its pool capacity absorbs nothing
        // (extra threads would be clamped and the cores wasted).
        let mut idx = 0usize;
        let mut granted_to: BTreeMap<usize, usize> = BTreeMap::new();
        while free > 0 {
            let has_room = |s: &RankSlot| s.owned + s.borrowed < s.pool.max_workers();
            let recipient = match self.grant_policy {
                GrantPolicy::Even => {
                    // Round-robin over busy ranks, skipping full pools.
                    let mut pick = None;
                    for k in 0..busy.len() {
                        let r = busy[(idx + k) % busy.len()];
                        if has_room(&st.ranks[&r]) {
                            idx = (idx + k + 1) % busy.len();
                            pick = Some(r);
                            break;
                        }
                    }
                    pick
                }
                GrantPolicy::Neediest => busy
                    .iter()
                    .copied()
                    .filter(|r| has_room(&st.ranks[r]))
                    .min_by_key(|r| {
                        let s = &st.ranks[r];
                        (s.owned + s.borrowed, *r)
                    }),
            };
            let Some(r) = recipient else { break };
            let slot = st.ranks.get_mut(&r).unwrap();
            slot.borrowed += 1;
            *granted_to.entry(r).or_default() += 1;
            free -= 1;
        }
        st.free_lent = free;
        for (&r, &n) in &granted_to {
            let s = &st.ranks[&r];
            let active = s.owned + s.borrowed;
            s.pool.set_active(active);
            grants.push((r, n, active));
        }
        drop(st);
        let t = self.now();
        let mut ev = self.events.lock();
        for (r, n, active) in &grants {
            ev.push(DlbEvent { t, rank: *r, kind: DlbEventKind::Borrow { cores: *n, active: *active } });
        }
        drop(ev);
        self.stats.lock().grants += grants.len();
        cfpd_telemetry::count!("dlb.grants", grants.len() as u64);
    }

    /// Snapshot of the event log.
    pub fn events(&self) -> Vec<DlbEvent> {
        self.events.lock().clone()
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> DlbStats {
        *self.stats.lock()
    }

    /// Current active executor count of a registered rank's pool.
    pub fn active_of(&self, rank: usize) -> Option<usize> {
        self.state.lock().ranks.get(&rank).map(|s| s.pool.active())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(max: usize) -> Arc<ThreadPool> {
        Arc::new(ThreadPool::new(max))
    }

    /// The policy of an MPI that busy-waits (not the default here): the
    /// tests that price a kept core name it.
    fn keep_one() -> Arc<DlbNode> {
        DlbNode::with_policies(LendPolicy::KeepOne, GrantPolicy::Even)
    }

    #[test]
    fn lend_grows_the_busy_rank() {
        let node = keep_one();
        node.register(0, pool(4), 2);
        node.register(1, pool(4), 2);
        assert_eq!(node.active_of(0), Some(2));
        node.lend(0);
        // Rank 0 keeps 1 core; its other core goes to rank 1.
        assert_eq!(node.active_of(0), Some(1));
        assert_eq!(node.active_of(1), Some(3));
        node.reclaim(0);
        assert_eq!(node.active_of(0), Some(2));
        assert_eq!(node.active_of(1), Some(2));
    }

    #[test]
    fn redistribution_is_even() {
        let node = keep_one();
        node.register(0, pool(8), 4);
        node.register(1, pool(8), 2);
        node.register(2, pool(8), 2);
        node.lend(0); // lends 3 (keeps 1)
        let a1 = node.active_of(1).unwrap();
        let a2 = node.active_of(2).unwrap();
        assert_eq!(a1 + a2, 2 + 2 + 3);
        assert!((a1 as i64 - a2 as i64).abs() <= 1, "{a1} vs {a2}");
    }

    #[test]
    fn reclaim_revokes_from_borrowers() {
        let node = keep_one();
        node.register(0, pool(8), 4);
        node.register(1, pool(8), 4);
        node.lend(0);
        assert_eq!(node.active_of(1), Some(7));
        node.reclaim(0);
        assert_eq!(node.active_of(0), Some(4));
        assert_eq!(node.active_of(1), Some(4));
        let stats = node.stats();
        assert_eq!(stats.lends, 1);
        assert_eq!(stats.reclaims, 1);
        assert!(stats.revokes >= 1);
    }

    #[test]
    fn blocked_borrower_returns_loans() {
        let node = keep_one();
        node.register(0, pool(8), 3);
        node.register(1, pool(8), 3);
        node.register(2, pool(8), 2);
        node.lend(0); // rank1/rank2 borrow rank0's 2 cores
        let borrowed_total = node.active_of(1).unwrap() + node.active_of(2).unwrap();
        assert_eq!(borrowed_total, 3 + 2 + 2);
        node.lend(1); // rank 1 blocks too: its owned + borrowed go to rank 2
        // Rank 2 can absorb up to its pool max (8).
        let a2 = node.active_of(2).unwrap();
        assert!(a2 > 2, "rank 2 should have grown, got {a2}");
        node.reclaim(0);
        node.reclaim(1);
        assert_eq!(node.active_of(0), Some(3));
        assert_eq!(node.active_of(1), Some(3));
        assert_eq!(node.active_of(2), Some(2));
    }

    #[test]
    fn grants_capped_by_pool_capacity() {
        let node = DlbNode::new();
        node.register(0, pool(8), 6);
        node.register(1, pool(4), 2); // can absorb at most 2 extra
        node.lend(0); // lends 5
        assert_eq!(node.active_of(1), Some(4), "cap at pool max_workers");
    }

    #[test]
    fn double_lend_is_idempotent() {
        let node = keep_one();
        node.register(0, pool(4), 2);
        node.register(1, pool(4), 2);
        node.lend(0);
        node.lend(0); // e.g. nested blocking calls
        assert_eq!(node.active_of(1), Some(3));
        node.reclaim(0);
        assert_eq!(node.active_of(1), Some(2));
        node.reclaim(0); // idempotent
        assert_eq!(node.active_of(0), Some(2));
    }

    #[test]
    fn unregistered_rank_ignored() {
        let node = DlbNode::new();
        node.register(0, pool(4), 2);
        node.lend(99); // no-op
        node.reclaim(99);
        assert_eq!(node.active_of(0), Some(2));
    }

    #[test]
    fn lend_all_policy_lends_every_core() {
        let node = DlbNode::with_policies(LendPolicy::LendAll, GrantPolicy::Even);
        node.register(0, pool(4), 2);
        node.register(1, pool(4), 2);
        node.lend(0);
        // Both of rank 0's cores go to rank 1 (pool floor keeps 1 thread
        // alive for the blocked rank's own pool).
        assert_eq!(node.active_of(1), Some(4));
        node.reclaim(0);
        assert_eq!(node.active_of(0), Some(2));
        assert_eq!(node.active_of(1), Some(2));
    }

    #[test]
    fn neediest_policy_feeds_the_smallest_pool() {
        let node = DlbNode::with_policies(LendPolicy::KeepOne, GrantPolicy::Neediest);
        node.register(0, pool(8), 5);
        node.register(1, pool(8), 4);
        node.register(2, pool(8), 1); // the straggler with fewest cores
        node.lend(0); // lends 4
        // All 4 go to rank 2 first until it catches up with rank 1.
        let a1 = node.active_of(1).unwrap();
        let a2 = node.active_of(2).unwrap();
        assert!(a2 > 1, "straggler must be fed first: {a2}");
        assert!(a2 >= a1 - 1, "neediest should roughly equalize: {a1} vs {a2}");
        node.reclaim(0);
        assert_eq!(node.active_of(2), Some(1));
    }

    fn assert_conserved(node: &DlbNode) {
        let (held, budget) = node.conservation();
        assert_eq!(held, budget, "core conservation violated");
    }

    #[test]
    fn lease_sweep_donates_the_kept_core_and_reclaim_recovers() {
        let node = DlbNode::with_lease(
            LendPolicy::KeepOne,
            GrantPolicy::Even,
            Some(Duration::ZERO), // every blocked rank is instantly overdue
        );
        node.register(0, pool(8), 4);
        node.register(1, pool(8), 4);
        node.lend(0); // lends 3, keeps 1
        assert_eq!(node.active_of(1), Some(7));
        assert_conserved(&node);
        assert_eq!(node.sweep_leases(), 1); // the kept core goes too
        assert_eq!(node.active_of(1), Some(8));
        assert_eq!(node.active_of(0), Some(1), "floor worker only");
        assert_conserved(&node);
        // Reclaim must take back owned cores exactly — including the
        // swept one — with no core minted or lost.
        node.reclaim(0);
        assert_eq!(node.active_of(0), Some(4));
        assert_eq!(node.active_of(1), Some(4));
        assert_conserved(&node);
        let stats = node.stats();
        assert_eq!(stats.lease_expiries, 1);
        assert!(node
            .events()
            .iter()
            .any(|e| matches!(e.kind, DlbEventKind::LeaseExpired { cores: 1 })));
    }

    #[test]
    fn lease_sweep_is_a_noop_without_a_lease_or_under_lend_all() {
        let node = DlbNode::new(); // no lease configured
        node.register(0, pool(4), 2);
        node.lend(0);
        assert_eq!(node.sweep_leases(), 0);
        // LendAll already lends everything: nothing left to sweep.
        let node = DlbNode::with_lease(
            LendPolicy::LendAll,
            GrantPolicy::Even,
            Some(Duration::ZERO),
        );
        node.register(0, pool(4), 2);
        node.register(1, pool(4), 2);
        node.lend(0);
        assert_eq!(node.sweep_leases(), 0);
        assert_conserved(&node);
    }

    #[test]
    fn crashed_rank_donates_everything_permanently() {
        let node = DlbNode::new();
        node.register(0, pool(8), 4);
        node.register(1, pool(8), 4);
        node.mark_crashed(0);
        assert_eq!(node.active_of(1), Some(8), "survivor gets the allotment");
        assert_eq!(node.active_of(0), Some(1), "floor worker only");
        assert_conserved(&node);
        // Idempotent, and lend/reclaim from the dead rank are ignored.
        node.mark_crashed(0);
        node.lend(0);
        node.reclaim(0);
        assert_eq!(node.active_of(1), Some(8));
        assert_eq!(node.stats().crashes, 1);
        assert_conserved(&node);
    }

    #[test]
    fn crash_of_a_blocked_rank_donates_only_the_kept_core() {
        let node = keep_one();
        node.register(0, pool(8), 4);
        node.register(1, pool(8), 4);
        node.lend(0); // 3 lent, 1 kept
        node.mark_crashed(0); // the kept core follows
        assert_eq!(node.active_of(1), Some(8));
        assert_conserved(&node);
        let crashed_cores: usize = node
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                DlbEventKind::Crashed { cores } => Some(cores),
                _ => None,
            })
            .sum();
        assert_eq!(crashed_cores, 1);
    }

    #[test]
    fn event_log_records_lend_borrow_reclaim() {
        let node = keep_one();
        node.register(0, pool(4), 2);
        node.register(1, pool(4), 2);
        node.lend(0);
        node.reclaim(0);
        let evs = node.events();
        assert!(matches!(evs[0].kind, DlbEventKind::Lend { cores: 1 }));
        assert!(evs.iter().any(|e| matches!(e.kind, DlbEventKind::Borrow { .. })));
        assert!(evs.iter().any(|e| matches!(e.kind, DlbEventKind::Reclaim { .. })));
    }
}

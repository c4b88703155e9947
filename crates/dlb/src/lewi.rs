//! The LeWI ("Lend When Idle") policy of the DLB library (§3.2).
//!
//! Ranks co-located on a node register their worker pool and core
//! allotment with a [`DlbNode`]. When a rank enters a blocking MPI call
//! it *lends* all its cores to the node; the node redistributes them
//! round-robin to the busy ranks by growing their pools
//! (`omp_set_num_threads`, here [`cfpd_runtime::ThreadPool::set_active`]).
//! When the blocked rank returns, it *reclaims* its cores, shrinking
//! borrowers back. A blocked rank keeps one floor worker that owns no
//! core: `cfpd-simmpi` parks a blocked rank on a condvar, so nothing
//! busy-waits.

//! Graceful degradation under faults: a crashed rank's whole allotment
//! is permanently redistributed ([`DlbNode::mark_crashed`]), preserving
//! LeWI's core conservation (no core is ever minted).

use cfpd_runtime::ThreadPool;
use cfpd_testkit::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

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
    /// Blocked in MPI with every owned core lent to the node — or
    /// crashed, which lends them forever.
    blocked: bool,
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
    pub crashes: usize,
}

/// Per-node DLB arbiter implementing LeWI.
pub struct DlbNode {
    state: Mutex<NodeState>,
    events: Mutex<Vec<DlbEvent>>,
    stats: Mutex<DlbStats>,
    epoch: Instant,
}

impl DlbNode {
    pub fn new() -> Arc<DlbNode> {
        Self::with_epoch(Instant::now())
    }

    /// A node arbiter timestamping its events against `epoch` — traced
    /// runs share one clock between DLB events, phase records and
    /// message records.
    pub fn with_epoch(epoch: Instant) -> Arc<DlbNode> {
        Arc::new(DlbNode {
            state: Mutex::new(NodeState { ranks: BTreeMap::new(), free_lent: 0 }),
            events: Mutex::new(Vec::new()),
            stats: Mutex::new(DlbStats::default()),
            epoch,
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
            RankSlot { pool, owned, borrowed: 0, blocked: false, crashed: false },
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
        if slot.blocked {
            return; // nested blocking (collective built on recv), or crashed: ignore
        }
        slot.blocked = true;
        // A blocked rank has no use for borrowed cores either.
        let returned = slot.borrowed;
        slot.borrowed = 0;
        let lent = slot.owned;
        slot.pool.set_active(1);
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
        let mut need = slot.owned;
        let reclaimed = need;
        slot.pool.set_active(slot.owned); // a blocked rank borrows nothing
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
    /// — owned cores it has not lent, borrowed cores — is donated to the
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
        // A blocked rank already lent its allotment (and borrows
        // nothing); a running one donates it now with what it borrowed.
        // Either way it is never a grant recipient again.
        let donated = if slot.blocked { 0 } else { slot.owned + slot.borrowed };
        slot.blocked = true;
        slot.borrowed = 0;
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

    /// Core-conservation check for tests: total active workers across
    /// pools never exceed total owned cores plus the pool floor of each
    /// blocked (or crashed) rank, and unaccounted free cores are
    /// non-negative.
    pub fn conservation(&self) -> (usize, usize) {
        let st = self.state.lock();
        let total_owned: usize = st.ranks.values().map(|s| s.owned).sum();
        let mut budget = total_owned;
        let mut active = 0usize;
        for s in st.ranks.values() {
            active += s.pool.active();
            // A rank whose entire allotment is lent away still runs a
            // single floor worker that owns no core.
            if s.blocked {
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
        // One core at a time, round-robin over busy ranks. A rank
        // saturated at its pool capacity absorbs nothing (extra threads
        // would be clamped and the cores wasted).
        let mut idx = 0usize;
        let mut granted_to: BTreeMap<usize, usize> = BTreeMap::new();
        while free > 0 {
            let has_room = |s: &RankSlot| s.owned + s.borrowed < s.pool.max_workers();
            let pick = (0..busy.len())
                .map(|k| (idx + k) % busy.len())
                .find(|&i| has_room(&st.ranks[&busy[i]]));
            let Some(i) = pick else { break };
            let r = busy[i];
            idx = (i + 1) % busy.len();
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
    // pub for tests/halo_lewi_invariants.rs: core conservation is checked on every rank's pool.
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

    #[test]
    fn lend_grows_the_busy_rank() {
        let node = DlbNode::new();
        node.register(0, pool(4), 2);
        node.register(1, pool(4), 2);
        assert_eq!(node.active_of(0), Some(2));
        node.lend(0);
        // Rank 0 lends both cores to rank 1 and keeps its floor worker.
        assert_eq!(node.active_of(0), Some(1));
        assert_eq!(node.active_of(1), Some(4));
        node.reclaim(0);
        assert_eq!(node.active_of(0), Some(2));
        assert_eq!(node.active_of(1), Some(2));
    }

    #[test]
    fn redistribution_is_even() {
        let node = DlbNode::new();
        node.register(0, pool(8), 4);
        node.register(1, pool(8), 2);
        node.register(2, pool(8), 2);
        node.lend(0); // lends 4
        let a1 = node.active_of(1).unwrap();
        let a2 = node.active_of(2).unwrap();
        assert_eq!(a1 + a2, 2 + 2 + 4);
        assert!((a1 as i64 - a2 as i64).abs() <= 1, "{a1} vs {a2}");
    }

    #[test]
    fn reclaim_revokes_from_borrowers() {
        let node = DlbNode::new();
        node.register(0, pool(8), 4);
        node.register(1, pool(8), 4);
        node.lend(0);
        assert_eq!(node.active_of(1), Some(8));
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
        let node = DlbNode::new();
        node.register(0, pool(8), 3);
        node.register(1, pool(8), 3);
        node.register(2, pool(8), 2);
        node.lend(0); // rank1/rank2 borrow rank0's 3 cores
        let borrowed_total = node.active_of(1).unwrap() + node.active_of(2).unwrap();
        assert_eq!(borrowed_total, 3 + 2 + 3);
        node.lend(1); // rank 1 blocks too: its owned + borrowed go to rank 2
        // Rank 2 absorbs up to its pool max (8).
        assert_eq!(node.active_of(2), Some(8));
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
        node.lend(0); // lends 6
        assert_eq!(node.active_of(1), Some(4), "cap at pool max_workers");
    }

    #[test]
    fn double_lend_is_idempotent() {
        let node = DlbNode::new();
        node.register(0, pool(4), 2);
        node.register(1, pool(4), 2);
        node.lend(0);
        node.lend(0); // e.g. nested blocking calls
        assert_eq!(node.active_of(1), Some(4));
        node.reclaim(0);
        assert_eq!(node.active_of(1), Some(2));
        node.reclaim(0); // idempotent
        assert_eq!(node.active_of(0), Some(2));
        assert_eq!(node.stats().lends, 1);
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
        // A one-core rank lends its only core — the coupled mode's
        // particle rank, which runs one worker.
        let node = DlbNode::new();
        node.register(0, pool(2), 1);
        node.register(1, pool(2), 1);
        node.lend(0);
        assert_eq!(node.active_of(0), Some(1), "floor worker only");
        assert_eq!(node.active_of(1), Some(2));
        node.reclaim(0);
        assert_eq!(node.active_of(0), Some(1));
        assert_eq!(node.active_of(1), Some(1));
    }

    fn assert_conserved(node: &DlbNode) {
        let (held, budget) = node.conservation();
        assert_eq!(held, budget, "core conservation violated");
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

    /// A blocked rank has already lent its whole allotment, so its
    /// crash donates no further core — and its cores stay with the
    /// survivor instead of coming back on a reclaim.
    #[test]
    fn crash_of_a_blocked_rank_donates_only_the_kept_core() {
        let node = DlbNode::new();
        node.register(0, pool(8), 4);
        node.register(1, pool(8), 4);
        node.lend(0); // all 4 lent
        node.mark_crashed(0);
        assert_eq!(node.active_of(1), Some(8));
        assert_conserved(&node);
        node.reclaim(0);
        assert_eq!(node.active_of(1), Some(8), "a crashed rank reclaims nothing");
        let crashed_cores: usize = node
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                DlbEventKind::Crashed { cores } => Some(cores),
                _ => None,
            })
            .sum();
        assert_eq!(crashed_cores, 0);
    }

    #[test]
    fn event_log_records_lend_borrow_reclaim() {
        let node = DlbNode::new();
        node.register(0, pool(4), 2);
        node.register(1, pool(4), 2);
        node.lend(0);
        node.reclaim(0);
        let evs = node.events();
        assert!(matches!(evs[0].kind, DlbEventKind::Lend { cores: 2 }));
        assert!(evs.iter().any(|e| matches!(e.kind, DlbEventKind::Borrow { .. })));
        assert!(evs.iter().any(|e| matches!(e.kind, DlbEventKind::Reclaim { .. })));
    }
}

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
use cfpd_simmpi::{BlockKind, MpiHooks};
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
    /// Every transition, in the order it happened: the node's only record.
    events: Vec<DlbEvent>,
}

impl NodeState {
    /// Append one event and emit its telemetry and flight record.
    fn log(&mut self, t: f64, rank: usize, kind: DlbEventKind) {
        match kind {
            DlbEventKind::Lend { cores } => {
                cfpd_telemetry::count!("dlb.lends");
                cfpd_telemetry::count!("dlb.cores_lent_total", cores as u64);
                cfpd_telemetry::gauge_add!("dlb.cores_lent_out", cores as i64);
                let r = rank as u32;
                cfpd_flight::record(cfpd_flight::EventKind::DlbLend, r, r, cores as u64, 0);
            }
            DlbEventKind::Borrow { .. } => cfpd_telemetry::count!("dlb.grants"),
            DlbEventKind::Reclaim { cores } => {
                cfpd_telemetry::count!("dlb.reclaims");
                cfpd_telemetry::gauge_add!("dlb.cores_lent_out", -(cores as i64));
                let r = rank as u32;
                cfpd_flight::record(cfpd_flight::EventKind::DlbReclaim, r, r, cores as u64, 0);
            }
            DlbEventKind::Revoke { .. } => cfpd_telemetry::count!("dlb.revokes"),
            DlbEventKind::Crashed { cores } => {
                cfpd_telemetry::count!("dlb.crashes");
                cfpd_telemetry::count!("dlb.cores_lent_total", cores as u64);
                cfpd_telemetry::gauge_add!("dlb.cores_lent_out", cores as i64);
            }
        }
        self.events.push(DlbEvent { t, rank, kind });
    }

    /// Grant the free cores one at a time, round-robin over the busy
    /// ranks. A rank saturated at its pool capacity absorbs nothing
    /// (extra threads would be clamped and the cores wasted).
    fn redistribute(&mut self, t: f64) {
        let busy: Vec<usize> =
            self.ranks.iter().filter(|(_, s)| !s.blocked).map(|(&r, _)| r).collect();
        let mut granted_to: BTreeMap<usize, usize> = BTreeMap::new();
        let mut idx = 0usize;
        while self.free_lent > 0 && !busy.is_empty() {
            let has_room = |s: &RankSlot| s.owned + s.borrowed < s.pool.max_workers();
            let pick = (0..busy.len())
                .map(|k| (idx + k) % busy.len())
                .find(|&i| has_room(&self.ranks[&busy[i]]));
            let Some(i) = pick else { break };
            idx = (i + 1) % busy.len();
            self.ranks.get_mut(&busy[i]).unwrap().borrowed += 1;
            *granted_to.entry(busy[i]).or_default() += 1;
            self.free_lent -= 1;
        }
        for (r, cores) in granted_to {
            let s = &self.ranks[&r];
            let active = s.owned + s.borrowed;
            s.pool.set_active(active);
            self.log(t, r, DlbEventKind::Borrow { cores, active });
        }
    }
}

/// Aggregated LeWI statistics, folded from the event log.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct DlbStats {
    pub lends: usize,
    pub reclaims: usize,
    pub grants: usize,
    pub revokes: usize,
    pub cores_lent_total: usize,
    pub crashes: usize,
}

/// The LeWI arbiter of one node: every rank of a run registers with the
/// one `DlbNode`, which is also the run's [`MpiHooks`] base.
pub struct DlbNode {
    state: Mutex<NodeState>,
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
            state: Mutex::new(NodeState { ranks: BTreeMap::new(), free_lent: 0, events: Vec::new() }),
            epoch,
        })
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
        let t = self.epoch.elapsed().as_secs_f64();
        let slot = match st.ranks.get_mut(&rank) {
            Some(s) => s,
            None => return, // unregistered rank (e.g. DLB off for it)
        };
        if slot.blocked {
            return; // nested blocking (collective built on recv), or crashed: ignore
        }
        slot.blocked = true;
        // A blocked rank has no use for borrowed cores either.
        let returned = std::mem::take(&mut slot.borrowed);
        let lent = slot.owned;
        slot.pool.set_active(1);
        st.free_lent += lent + returned;
        st.log(t, rank, DlbEventKind::Lend { cores: lent });
        st.redistribute(t);
    }

    /// Rank left its blocking call: reclaim owned cores, revoking
    /// borrowers if the free pool cannot cover them. Lent cores still
    /// free after that go to the busy ranks, this one included.
    pub fn reclaim(&self, rank: usize) {
        let mut st = self.state.lock();
        let t = self.epoch.elapsed().as_secs_f64();
        let slot = match st.ranks.get_mut(&rank) {
            Some(s) => s,
            None => return,
        };
        if slot.crashed || !slot.blocked {
            return;
        }
        slot.blocked = false;
        let mut need = slot.owned;
        slot.pool.set_active(slot.owned); // a blocked rank borrows nothing
        let from_free = need.min(st.free_lent);
        st.free_lent -= from_free;
        need -= from_free;
        // Revoke from borrowers (largest borrowers first).
        let mut borrowers: Vec<(usize, usize)> =
            st.ranks.iter().filter(|(_, s)| s.borrowed > 0).map(|(&r, s)| (r, s.borrowed)).collect();
        borrowers.sort_by_key(|&(r, b)| (std::cmp::Reverse(b), r));
        let mut revocations = Vec::new(); // (rank, revoked, new active)
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
        let cores = from_free + revocations.iter().map(|r| r.1).sum::<usize>();
        st.log(t, rank, DlbEventKind::Reclaim { cores });
        for (r, cores, active) in revocations {
            st.log(t, r, DlbEventKind::Revoke { cores, active });
        }
        st.redistribute(t);
    }

    /// Declare a rank crashed (fail-silent): everything it still holds
    /// — owned cores it has not lent, borrowed cores — is donated to the
    /// node permanently and the rank is excluded from future
    /// lend/reclaim traffic. Idempotent. The rank's own pool is floored
    /// at one worker (a pool cannot run with zero executors).
    pub fn mark_crashed(&self, rank: usize) {
        let mut st = self.state.lock();
        let t = self.epoch.elapsed().as_secs_f64();
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
        st.log(t, rank, DlbEventKind::Crashed { cores: donated });
        st.redistribute(t);
    }

    /// Core-conservation check: total active workers across pools plus
    /// the free cores equal total owned cores plus the pool floor of
    /// each blocked (or crashed) rank.
    // pub for tests/chaos_resilience.rs: conservation is checked after every transition under chaos.
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

    /// Snapshot of the event log, in transition order (so in time order).
    pub fn events(&self) -> Vec<DlbEvent> {
        self.state.lock().events.clone()
    }

    /// Aggregated statistics: a fold over the event log.
    pub fn stats(&self) -> DlbStats {
        let mut s = DlbStats::default();
        for e in &self.state.lock().events {
            match e.kind {
                DlbEventKind::Lend { cores } => {
                    s.lends += 1;
                    s.cores_lent_total += cores;
                }
                DlbEventKind::Borrow { .. } => s.grants += 1,
                DlbEventKind::Reclaim { .. } => s.reclaims += 1,
                DlbEventKind::Revoke { .. } => s.revokes += 1,
                DlbEventKind::Crashed { cores } => {
                    s.crashes += 1;
                    s.cores_lent_total += cores;
                }
            }
        }
        s
    }

    /// Current active executor count of a registered rank's pool.
    // pub for tests/halo_lewi_invariants.rs: core conservation is checked on every rank's pool.
    pub fn active_of(&self, rank: usize) -> Option<usize> {
        self.state.lock().ranks.get(&rank).map(|s| s.pool.active())
    }
}

/// The PMPI attachment: a rank lends on entering a blocking call,
/// reclaims on leaving it, and donates its allotment when the fabric
/// declares it dead. Simulation code never names DLB.
impl MpiHooks for DlbNode {
    fn on_block(&self, rank: usize, _kind: BlockKind) {
        self.lend(rank);
    }

    fn on_unblock(&self, rank: usize, _kind: BlockKind) {
        self.reclaim(rank);
    }

    fn on_rank_dead(&self, rank: usize) {
        self.mark_crashed(rank);
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

    /// Both one-core ranks block, then rank 0 returns: it reclaims its
    /// own core from the free pool, and the one rank 1 lent, still free,
    /// goes to it rather than idling until rank 1 returns.
    #[test]
    fn reclaim_hands_the_cores_left_free_to_busy_ranks() {
        let node = DlbNode::new();
        node.register(0, pool(2), 1);
        node.register(1, pool(2), 1);
        node.lend(1);
        node.lend(0);
        node.reclaim(0);
        assert_eq!(node.active_of(0), Some(2));
        assert_eq!(node.active_of(1), Some(1));
        assert_conserved(&node);
        let last = node.events().pop().expect("reclaim logged");
        assert_eq!(last.rank, 0);
        assert_eq!(last.kind, DlbEventKind::Borrow { cores: 1, active: 2 });
        node.reclaim(1);
        assert_eq!((node.active_of(0), node.active_of(1)), (Some(1), Some(1)));
        assert_conserved(&node);
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

    /// Four threads drive their own ranks through lend/reclaim (one of
    /// them lends twice, one crashes while blocked) at once: the log
    /// comes out in time order, its fold equals what the script itself
    /// tallied, and no core was minted or lost.
    #[test]
    fn concurrent_script_keeps_one_ordered_record() {
        let node = DlbNode::new();
        for rank in 0..4 {
            node.register(rank, pool(8), rank + 1);
        }
        // Per thread: (effective lends, effective reclaims, cores lent).
        let tallies: Vec<(usize, usize, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|rank| {
                    let node = &node;
                    scope.spawn(move || {
                        let (mut lends, mut reclaims) = (0, 0);
                        for i in 0..200 {
                            node.lend(rank);
                            if rank == 1 {
                                node.lend(rank); // nested block: ignored
                            }
                            if rank == 3 && i == 100 {
                                node.mark_crashed(rank); // blocked: donates nothing more
                            }
                            if rank != 3 || i <= 100 {
                                lends += 1;
                            }
                            node.reclaim(rank);
                            if rank != 3 || i < 100 {
                                reclaims += 1;
                            }
                            // Yield while running, so the others mostly
                            // find this rank busy and grant it cores.
                            std::thread::yield_now();
                        }
                        (lends, reclaims, lends * (rank + 1))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let events = node.events();
        assert!(events.windows(2).all(|w| w[0].t <= w[1].t), "log out of time order");
        let count = |f: fn(&DlbEventKind) -> bool| events.iter().filter(|e| f(&e.kind)).count();
        let census = DlbStats {
            lends: tallies.iter().map(|t| t.0).sum(),
            reclaims: tallies.iter().map(|t| t.1).sum(),
            grants: count(|k| matches!(k, DlbEventKind::Borrow { .. })),
            revokes: count(|k| matches!(k, DlbEventKind::Revoke { .. })),
            cores_lent_total: tallies.iter().map(|t| t.2).sum(),
            crashes: 1,
        };
        assert_eq!(node.stats(), census);
        assert!(census.grants > 0, "nobody borrowed in 800 lends");
        assert_conserved(&node);
        assert_eq!(node.active_of(3), Some(1), "a crashed rank keeps its floor worker only");
    }

    /// End-to-end through the PMPI hooks: an imbalanced 2-rank hybrid
    /// run where DLB visibly grows the busy rank's pool while the other
    /// blocks in recv — the Fig. 5 scenario.
    #[test]
    fn end_to_end_lending_during_mpi_block() {
        use cfpd_runtime::parallel_for;
        use cfpd_simmpi::Universe;
        use std::sync::atomic::{AtomicUsize, Ordering};

        let node = DlbNode::new();
        let pools: Vec<Arc<ThreadPool>> = (0..2).map(|_| pool(4)).collect();
        node.register(0, Arc::clone(&pools[0]), 2);
        node.register(1, Arc::clone(&pools[1]), 2);
        let observed_active = Arc::new(AtomicUsize::new(0));

        let pools2 = pools.clone();
        let obs = Arc::clone(&observed_active);
        Universe::run_with_hooks(2, Arc::clone(&node) as _, move |comm| {
            let pool = &pools2[comm.rank()];
            if comm.rank() == 0 {
                // Lightly loaded: blocks waiting for rank 1.
                let _: u8 = comm.recv(1, 0);
            } else {
                // Heavily loaded: work in parallel regions while rank 0
                // blocks; record the largest pool we saw.
                std::thread::sleep(std::time::Duration::from_millis(20));
                for _ in 0..20 {
                    parallel_for(pool, 0..1000, 100, |_r| {});
                    obs.fetch_max(pool.active(), Ordering::SeqCst);
                }
                comm.send(0, 0, 1u8);
            }
        });
        assert!(
            observed_active.load(Ordering::SeqCst) >= 3,
            "rank 1 should have borrowed rank 0's core while it blocked"
        );
        let stats = node.stats();
        assert!(stats.lends >= 1);
        assert!(stats.reclaims >= 1);
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

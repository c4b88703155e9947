//! Cluster-level DLB wiring: maps universe ranks to nodes and adapts the
//! simmpi PMPI hooks onto the per-node LeWI arbiters.
//!
//! DLB only moves cores *within* a node (cores cannot cross the network);
//! the paper runs on two nodes of each cluster, so the rank→node mapping
//! matters for how much imbalance DLB can absorb.

use crate::lewi::{DlbEvent, DlbNode, DlbStats};
use cfpd_runtime::ThreadPool;
use cfpd_simmpi::{BlockKind, MpiHooks};
use std::sync::Arc;
use std::time::Instant;

/// DLB for a whole virtual cluster: one [`DlbNode`] per node plus the
/// rank→node map. Implements [`MpiHooks`] so it can be passed directly
/// to `Universe::run_with_hooks` — making DLB *transparent to the
/// application*, as in the paper.
pub struct DlbCluster {
    nodes: Vec<Arc<DlbNode>>,
    node_of_rank: Vec<usize>,
    enabled: bool,
}

impl DlbCluster {
    /// Create a cluster with `num_nodes` nodes and a block distribution
    /// of `num_ranks` ranks over them (ranks 0..r/n on node 0, etc. —
    /// the usual scheduler placement).
    pub fn new_block(num_ranks: usize, num_nodes: usize) -> DlbCluster {
        Self::new_block_with_epoch(num_ranks, num_nodes, Instant::now())
    }

    /// Block distribution timestamping DLB events against `epoch`, so
    /// traced runs put lend/reclaim marks on the same clock as phase and
    /// message records.
    pub fn new_block_with_epoch(num_ranks: usize, num_nodes: usize, epoch: Instant) -> DlbCluster {
        assert!(num_nodes >= 1);
        let per = num_ranks.div_ceil(num_nodes);
        let node_of_rank = (0..num_ranks).map(|r| r / per).collect();
        DlbCluster {
            nodes: (0..num_nodes).map(|_| DlbNode::with_epoch(epoch)).collect(),
            node_of_rank,
            enabled: true,
        }
    }

    /// A disabled cluster: hooks become no-ops (the "original" runs in
    /// the paper's figures). Keeping the same object shape lets callers
    /// toggle DLB without restructuring.
    pub fn disabled(num_ranks: usize, num_nodes: usize) -> DlbCluster {
        let mut c = Self::new_block(num_ranks, num_nodes);
        c.enabled = false;
        c
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of_rank[rank]
    }

    /// Register a rank's pool and core allotment with its node arbiter.
    pub fn register(&self, rank: usize, pool: Arc<ThreadPool>, owned_cores: usize) {
        self.nodes[self.node_of_rank[rank]].register(rank, pool, owned_cores);
    }

    /// Node arbiter of `rank` (for inspection in tests / tracing).
    pub fn node(&self, node: usize) -> &Arc<DlbNode> {
        &self.nodes[node]
    }

    /// All events across nodes, tagged with node id.
    pub fn all_events(&self) -> Vec<(usize, DlbEvent)> {
        let mut out = Vec::new();
        for (n, node) in self.nodes.iter().enumerate() {
            for e in node.events() {
                out.push((n, e));
            }
        }
        out.sort_by(|a, b| a.1.t.partial_cmp(&b.1.t).unwrap());
        out
    }

    /// Summed statistics across nodes.
    pub fn total_stats(&self) -> DlbStats {
        let mut total = DlbStats::default();
        for n in &self.nodes {
            let s = n.stats();
            total.lends += s.lends;
            total.reclaims += s.reclaims;
            total.grants += s.grants;
            total.revokes += s.revokes;
            total.cores_lent_total += s.cores_lent_total;
            total.crashes += s.crashes;
        }
        total
    }

    /// Declare a rank crashed on its node (fail-silent degradation).
    pub fn mark_crashed(&self, rank: usize) {
        if self.enabled && rank < self.node_of_rank.len() {
            self.nodes[self.node_of_rank[rank]].mark_crashed(rank);
        }
    }
}

impl MpiHooks for DlbCluster {
    fn on_block(&self, rank: usize, _kind: BlockKind) {
        if self.enabled && rank < self.node_of_rank.len() {
            self.nodes[self.node_of_rank[rank]].lend(rank);
        }
    }

    fn on_unblock(&self, rank: usize, _kind: BlockKind) {
        if self.enabled && rank < self.node_of_rank.len() {
            self.nodes[self.node_of_rank[rank]].reclaim(rank);
        }
    }

    /// The fabric declared a rank dead: degrade gracefully by donating
    /// its cores to the survivors on its node.
    fn on_rank_dead(&self, rank: usize) {
        self.mark_crashed(rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_runtime::parallel_for;
    use cfpd_simmpi::Universe;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn block_distribution() {
        let c = DlbCluster::new_block(8, 2);
        assert_eq!(c.node_of(0), 0);
        assert_eq!(c.node_of(3), 0);
        assert_eq!(c.node_of(4), 1);
        assert_eq!(c.node_of(7), 1);
    }

    #[test]
    fn hooks_route_to_the_right_node() {
        let c = DlbCluster::new_block(4, 2);
        c.register(0, Arc::new(ThreadPool::new(4)), 2);
        c.register(1, Arc::new(ThreadPool::new(4)), 2);
        c.register(2, Arc::new(ThreadPool::new(4)), 2);
        c.register(3, Arc::new(ThreadPool::new(4)), 2);
        c.on_block(0, BlockKind::Recv);
        // Node 0's rank 1 grew by both of rank 0's cores (a blocked
        // rank lends all); node 1 untouched.
        assert_eq!(c.node(0).active_of(1), Some(4));
        assert_eq!(c.node(1).active_of(2), Some(2));
        assert_eq!(c.node(1).active_of(3), Some(2));
        c.on_unblock(0, BlockKind::Recv);
        assert_eq!(c.node(0).active_of(1), Some(2));
    }

    #[test]
    fn disabled_cluster_is_inert() {
        let c = DlbCluster::disabled(2, 1);
        c.register(0, Arc::new(ThreadPool::new(4)), 2);
        c.register(1, Arc::new(ThreadPool::new(4)), 2);
        c.on_block(0, BlockKind::Recv);
        assert_eq!(c.node(0).active_of(1), Some(2), "disabled DLB must not lend");
    }

    /// End-to-end: an imbalanced 2-rank hybrid run where DLB visibly
    /// grows the busy rank's pool while the other blocks in recv —
    /// the Fig. 5 scenario.
    #[test]
    fn end_to_end_lending_during_mpi_block() {
        let cluster = Arc::new(DlbCluster::new_block(2, 1));
        let pools: Vec<Arc<ThreadPool>> =
            (0..2).map(|_| Arc::new(ThreadPool::new(4))).collect();
        cluster.register(0, Arc::clone(&pools[0]), 2);
        cluster.register(1, Arc::clone(&pools[1]), 2);
        let observed_active = Arc::new(AtomicUsize::new(0));

        let pools2 = pools.clone();
        let obs = Arc::clone(&observed_active);
        let hooks: Arc<dyn cfpd_simmpi::MpiHooks> = Arc::clone(&cluster) as _;
        Universe::run_with_hooks(2, hooks, move |comm| {
            let pool = &pools2[comm.rank()];
            if comm.rank() == 0 {
                // Lightly loaded: blocks waiting for rank 1.
                let _: u8 = comm.recv(1, 0);
            } else {
                // Heavily loaded: work in parallel regions while rank 0
                // blocks; record the largest pool we saw.
                std::thread::sleep(std::time::Duration::from_millis(20));
                for _ in 0..20 {
                    let best = Arc::clone(&obs);
                    parallel_for(pool, 0..1000, 100, |_r| {});
                    best.fetch_max(pool.active(), Ordering::SeqCst);
                }
                comm.send(0, 0, 1u8);
            }
        });
        assert!(
            observed_active.load(Ordering::SeqCst) >= 3,
            "rank 1 should have borrowed rank 0's core while it blocked"
        );
        let stats = cluster.total_stats();
        assert!(stats.lends >= 1);
        assert!(stats.reclaims >= 1);
    }
}

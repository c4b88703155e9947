//! Trace-recording hooks: the Extrae of the virtual cluster.
//!
//! [`TraceHooks`] sits outermost on the PMPI-style hook chain
//! (tracer → chaos → DLB), observing every blocking entry/exit and
//! every message send/match, and forwarding each call to the inner
//! layer unchanged. It records, per universe-global rank:
//!
//! * **wait intervals** — `[on_block, on_unblock)` spans of the rank's
//!   main thread, with nesting collapsed by a depth counter so a
//!   re-entrant block (a collective built on recv) yields one interval;
//! * **message records** — each `on_send` stamps `t_send` keyed by
//!   `(comm_id, src, tag, seq)` in the *destination* rank's shard; the
//!   matching `on_msg_recv` (which fires on the receiving thread) pops
//!   it and emits a complete `(src, dst, tag, bytes, t_send, t_recv)`
//!   edge — the happens-before arrows of the critical-path analysis.
//!
//! State is sharded per rank behind its own mutex (the only cross-rank
//! touch is a sender stamping the destination's pending map), and the
//! drain methods merge shards deterministically in rank order. All
//! timestamps are seconds since the epoch supplied at construction, so
//! the caller can share one clock between phase records, wait records
//! and message records.

use crate::fault::FaultAction;
use crate::hooks::{BlockKind, MpiHooks};
use cfpd_testkit::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One completed wait interval: `(rank, t_start, t_end)`.
pub type WaitSpan = (usize, f64, f64);

/// One matched message: `(src, dst, tag, bytes, t_send, t_recv)`.
pub type MsgSpan = (usize, usize, u64, usize, f64, f64);

#[derive(Default)]
struct RankShard {
    /// Nesting depth of blocking calls on this rank's thread.
    depth: usize,
    /// Start of the outermost in-progress block.
    wait_start: f64,
    waits: Vec<(f64, f64)>,
    /// `(comm_id, global_src, tag, seq)` → `t_send` for messages whose
    /// receive has not matched yet (this rank is the destination).
    pending: HashMap<(u64, usize, u64, u64), f64>,
    msgs: Vec<MsgSpan>,
}

/// Recording hook layer; see module docs.
pub struct TraceHooks {
    inner: Arc<dyn MpiHooks>,
    epoch: Instant,
    shards: Vec<Mutex<RankShard>>,
}

impl TraceHooks {
    /// `num_ranks` universe-global ranks, timestamps relative to
    /// `epoch`, forwarding every call to `inner`.
    pub fn new(num_ranks: usize, epoch: Instant, inner: Arc<dyn MpiHooks>) -> TraceHooks {
        TraceHooks {
            inner,
            epoch,
            shards: (0..num_ranks).map(|_| Mutex::new(RankShard::default())).collect(),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Completed wait intervals, rank-major then time order.
    pub fn drain_waits(&self) -> Vec<WaitSpan> {
        let mut out = Vec::new();
        for (rank, shard) in self.shards.iter().enumerate() {
            let mut s = shard.lock();
            for (a, b) in s.waits.drain(..) {
                out.push((rank, a, b));
            }
        }
        out
    }

    /// Matched message edges, destination-rank-major then receive order.
    pub fn drain_msgs(&self) -> Vec<MsgSpan> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let mut s = shard.lock();
            out.extend(s.msgs.drain(..));
        }
        out
    }
}

impl MpiHooks for TraceHooks {
    fn on_block(&self, rank: usize, kind: BlockKind) {
        if let Some(shard) = self.shards.get(rank) {
            let t = self.now();
            let mut s = shard.lock();
            if s.depth == 0 {
                s.wait_start = t;
            }
            s.depth += 1;
        }
        self.inner.on_block(rank, kind);
    }

    fn on_unblock(&self, rank: usize, kind: BlockKind) {
        // Inner first, so the DLB reclaim timestamp precedes the wait
        // interval's close — matching the real PMPI exit order.
        self.inner.on_unblock(rank, kind);
        if let Some(shard) = self.shards.get(rank) {
            let t = self.now();
            let mut s = shard.lock();
            if s.depth > 0 {
                s.depth -= 1;
                if s.depth == 0 {
                    let start = s.wait_start;
                    s.waits.push((start, t));
                }
            }
        }
    }

    fn on_send(
        &self,
        comm_id: u64,
        src: usize,
        dest: usize,
        tag: u64,
        seq: u64,
    ) -> FaultAction {
        if let Some(shard) = self.shards.get(dest) {
            let t = self.now();
            shard.lock().pending.insert((comm_id, src, tag, seq), t);
        }
        self.inner.on_send(comm_id, src, dest, tag, seq)
    }

    fn on_msg_recv(
        &self,
        comm_id: u64,
        src: usize,
        dest: usize,
        tag: u64,
        seq: u64,
        bytes: usize,
    ) {
        if let Some(shard) = self.shards.get(dest) {
            let t_recv = self.now();
            let mut s = shard.lock();
            // A send stamped before the tracer was installed (or a
            // redelivered drop) has no pending entry; collapse the edge
            // to a point at t_recv rather than losing it.
            let t_send =
                s.pending.remove(&(comm_id, src, tag, seq)).unwrap_or(t_recv);
            s.msgs.push((src, dest, tag, bytes, t_send, t_recv));
        }
        self.inner.on_msg_recv(comm_id, src, dest, tag, seq, bytes);
    }

    fn on_rank_dead(&self, rank: usize) {
        self.inner.on_rank_dead(rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHooks;
    use crate::universe::Universe;

    #[test]
    fn block_unblock_nesting_yields_one_interval() {
        let h = TraceHooks::new(1, Instant::now(), Arc::new(NoHooks));
        h.on_block(0, BlockKind::Collective);
        h.on_block(0, BlockKind::Recv);
        h.on_unblock(0, BlockKind::Recv);
        h.on_unblock(0, BlockKind::Collective);
        let waits = h.drain_waits();
        assert_eq!(waits.len(), 1);
        let (rank, a, b) = waits[0];
        assert_eq!(rank, 0);
        assert!(b >= a);
    }

    #[test]
    fn send_recv_produces_a_happens_before_edge() {
        let h = TraceHooks::new(2, Instant::now(), Arc::new(NoHooks));
        let a = h.on_send(1, 0, 1, 42, 0);
        assert_eq!(a, FaultAction::Deliver);
        h.on_msg_recv(1, 0, 1, 42, 0, 24);
        let msgs = h.drain_msgs();
        assert_eq!(msgs.len(), 1);
        let (src, dst, tag, bytes, ts, tr) = msgs[0];
        assert_eq!((src, dst, tag, bytes), (0, 1, 42, 24));
        assert!(tr >= ts);
        // Drained: a second drain is empty.
        assert!(h.drain_msgs().is_empty());
    }

    #[test]
    fn unmatched_recv_falls_back_to_point_edge() {
        let h = TraceHooks::new(2, Instant::now(), Arc::new(NoHooks));
        h.on_msg_recv(1, 0, 1, 7, 3, 8);
        let msgs = h.drain_msgs();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].4, msgs[0].5, "t_send collapses to t_recv");
    }

    #[test]
    fn live_universe_traffic_is_recorded() {
        let h = Arc::new(TraceHooks::new(2, Instant::now(), Arc::new(NoHooks)));
        let h2 = Arc::clone(&h);
        Universe::run_with_hooks(2, h2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, vec![1.0f64; 4]);
                let _: u8 = comm.recv(1, 6);
            } else {
                let _: Vec<f64> = comm.recv(0, 5);
                comm.send(0, 6, 1u8);
            }
            comm.barrier();
        });
        let msgs = h.drain_msgs();
        // 2 user messages + barrier dissemination traffic.
        assert!(msgs.len() >= 2, "messages: {msgs:?}");
        assert!(msgs.iter().any(|m| m.2 == 5 && m.0 == 0 && m.1 == 1));
        assert!(msgs.iter().any(|m| m.2 == 6 && m.0 == 1 && m.1 == 0));
        for &(_, _, _, _, ts, tr) in &msgs {
            assert!(tr >= ts, "recv before send");
        }
        // Rank 1's first recv blocked (rank 0 sends immediately, but
        // rank 1 may still win the race) — at minimum the barrier
        // produced some wait on one of the ranks, or none if perfectly
        // raced; just check invariants on whatever was recorded.
        for &(r, a, b) in &h.drain_waits() {
            assert!(r < 2 && b >= a);
        }
    }
}

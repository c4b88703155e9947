//! PMPI-style interception hooks.
//!
//! The DLB library of the paper is *transparent to the application*: it
//! hooks the entry/exit of blocking MPI calls via the PMPI profiling
//! interface and lends/reclaims cores there (§3.2). `cfpd-simmpi`
//! reproduces that interception surface: every blocking wait inside a
//! communicator operation fires [`MpiHooks::on_block`] before parking
//! and [`MpiHooks::on_unblock`] after resuming.

/// Kind of blocking call being entered (mirrors the MPI entry points the
/// DLB PMPI layer intercepts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// Blocking receive.
    Recv,
    /// Barrier wait.
    Barrier,
    /// Collective wait (reduce / gather / bcast internals).
    Collective,
}

/// Interception interface. Implementations must be cheap and re-entrant:
/// they are called from every rank thread on every blocking call.
///
/// The `on_send` / `on_msg_recv` / `on_rank_dead` methods default to
/// no-ops so existing hooks (DLB, counters) are unaffected; the chaos
/// layer ([`crate::fault::ChaosHooks`]) overrides them to inject its
/// seeded fault schedule and to route failure notifications.
pub trait MpiHooks: Send + Sync {
    /// The universe-global rank `rank` is about to block in `kind`.
    fn on_block(&self, rank: usize, kind: BlockKind);
    /// The universe-global rank `rank` resumed from a blocking call.
    fn on_unblock(&self, rank: usize, kind: BlockKind);
    /// Message `seq` on edge `src -> dest` (global ranks) of
    /// communicator `comm_id` is about to be enqueued; the returned
    /// action tells the fabric how to deliver it.
    fn on_send(
        &self,
        _comm_id: u64,
        _src: usize,
        _dest: usize,
        _tag: u64,
        _seq: u64,
    ) -> crate::fault::FaultAction {
        crate::fault::FaultAction::Deliver
    }
    /// Message `seq` on edge `src -> dest` (global ranks) of
    /// communicator `comm_id` was taken out of the destination inbox
    /// (`bytes` payload bytes). Fires on the receiving rank's thread at
    /// match time — the `t_recv` end of a happens-before edge; the
    /// trace layer pairs it with the `on_send` it saw earlier.
    fn on_msg_recv(
        &self,
        _comm_id: u64,
        _src: usize,
        _dest: usize,
        _tag: u64,
        _seq: u64,
        _bytes: usize,
    ) {
    }
    /// Rank `rank` was declared dead (fail-silent crash).
    fn on_rank_dead(&self, _rank: usize) {}
}

/// No-op hooks (the default when DLB is disabled).
#[derive(Debug, Default)]
pub struct NoHooks;

impl MpiHooks for NoHooks {
    fn on_block(&self, _rank: usize, _kind: BlockKind) {}
    fn on_unblock(&self, _rank: usize, _kind: BlockKind) {}
}

/// Hooks that count block/unblock events, for this crate's unit tests.
#[cfg(test)]
#[derive(Debug, Default)]
pub struct CountingHooks {
    pub blocks: std::sync::atomic::AtomicUsize,
    pub unblocks: std::sync::atomic::AtomicUsize,
}

#[cfg(test)]
impl MpiHooks for CountingHooks {
    fn on_block(&self, _rank: usize, _kind: BlockKind) {
        self.blocks.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    fn on_unblock(&self, _rank: usize, _kind: BlockKind) {
        self.unblocks.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

//! Communicators: typed point-to-point messaging and collectives over
//! ranks-as-threads.
//!
//! Semantics follow MPI where it matters for the reproduction:
//! `send` is asynchronous (buffered), `recv` blocks until a matching
//! (source, tag) message arrives, collectives block all participants,
//! and `split` creates disjoint sub-communicators — the mechanism the
//! coupled fluid/particle execution mode uses (Fig. 3).
//!
//! Failure-awareness (the chaos layer):
//!
//! * every message carries a per-(source, dest, tag)-stream **sequence
//!   number** and receivers consume a stream *strictly in sequence
//!   order*, waiting out any gap (a delayed or pending-redelivery
//!   message) — MPI's non-overtaking rule enforced structurally, so
//!   injected queue reordering and redelivered drops can never change
//!   what a receive returns, only when it returns;
//! * `send` consults [`MpiHooks::on_send`], the attachment point of the
//!   seeded fault plan ([`crate::fault`]);
//! * blocking waits sleep in short poll slices, registering what they
//!   wait on in the universe's [`UniverseDiag`]; a confirmed wedge
//!   yields a structured [`DeadlockReport`] instead of a hang, and a
//!   wait past [`DEADLOCK_TIMEOUT`] panics with what it waited for.

use crate::diag::{DeadlockReport, UniverseDiag, WaitInfo};
use crate::fault::FaultAction;
use crate::hooks::{BlockKind, MpiHooks};
use cfpd_testkit::sync::{Condvar, Mutex};
use std::any::Any;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a blocking operation may wait before the universe declares a
/// deadlock (tests rely on this to fail fast instead of hanging). The
/// wait-registry detector usually fires far sooner; this is the
/// backstop for a wait it cannot call a deadlock (a peer that keeps
/// running but never sends).
pub const DEADLOCK_TIMEOUT: Duration = Duration::from_secs(60);

/// Blocked ranks re-examine the world (deadline, deadlock verdict) at
/// this cadence. Wake-ups on message arrival are immediate via the
/// condvar; the slice only bounds detection latency.
const POLL_SLICE: Duration = Duration::from_millis(20);

/// Classify a blocking wait for telemetry attribution. Histograms are
/// per class, not per raw tag, so the metric name set stays bounded;
/// barrier waits are recognised by [`BlockKind`] (the dissemination
/// rounds mangle the reserved tag), collectives by their reserved tag.
fn record_wait(rank: usize, kind: BlockKind, tag: u64, ns: u64) {
    use cfpd_telemetry::observe;
    // Flight-recorder op codes: 1 barrier, 2 allreduce, 3 bcast,
    // 4 gather, 5 split, 0 user point-to-point.
    let op;
    if kind == BlockKind::Barrier {
        observe!("mpi.wait_ns.barrier", ns);
        op = 1;
    } else {
        match u64::MAX.wrapping_sub(tag) {
            2 => {
                observe!("mpi.wait_ns.allreduce", ns);
                op = 2;
            }
            3 => {
                observe!("mpi.wait_ns.bcast", ns);
                op = 3;
            }
            4 => {
                observe!("mpi.wait_ns.gather", ns);
                op = 4;
            }
            5 => {
                observe!("mpi.wait_ns.split", ns);
                op = 5;
            }
            _ => {
                observe!("mpi.wait_ns.user", ns);
                op = 0;
            }
        }
    }
    cfpd_flight::record(cfpd_flight::EventKind::CommWait, rank as u32, op, ns, 0);
}

/// Panic payload of a fail-silent rank crash: the rank's thread unwinds
/// with this instead of blocking forever once it has been declared dead
/// by the fault plan. [`crate::Universe::run_fallible`] classifies it.
pub struct CrashUnwind(pub usize);

/// Why a blocking wait gave up; the caller panics with it.
#[derive(Debug)]
enum CommError {
    /// The backstop deadline expired with no matching message.
    /// `in_flight` lists the `(src, tag)` pairs sitting unmatched in the
    /// inbox — the "what arrived instead" half of the diagnostic.
    Timeout {
        src: usize,
        tag: u64,
        waited: Duration,
        in_flight: Vec<(usize, u64)>,
    },
    /// The whole universe is wedged; the report names every rank's wait.
    Deadlock(Arc<DeadlockReport>),
}

fn fmt_in_flight(list: &[(usize, u64)]) -> String {
    list.iter()
        .map(|(s, t)| format!("{t} from {s}"))
        .collect::<Vec<_>>()
        .join(", ")
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout { src, tag, waited, in_flight } => write!(
                f,
                "timeout after {waited:?}: expected tag {tag} from rank {src}, in-flight tags: [{}]",
                fmt_in_flight(in_flight)
            ),
            CommError::Deadlock(report) => write!(f, "{}", report.render()),
        }
    }
}

type Payload = Box<dyn Any + Send>;

struct Msg {
    src: usize,
    tag: u64,
    /// Per-(src, dest, tag)-stream sequence number; receivers consume a
    /// stream strictly in sequence order, so queue position never
    /// carries meaning and a gap (pending redelivery) is waited out
    /// instead of overtaken.
    seq: u64,
    payload: Payload,
}

#[derive(Default)]
struct InboxState {
    queue: Vec<Msg>,
    /// Next-expected sequence per (src, tag) stream.
    consumed: std::collections::HashMap<(usize, u64), u64>,
}

impl InboxState {
    /// Position of the next in-order message of stream `(src, tag)`, if
    /// it has arrived.
    fn match_pos(&self, src: usize, tag: u64) -> Option<usize> {
        let expected = *self.consumed.get(&(src, tag)).unwrap_or(&0);
        self.queue
            .iter()
            .position(|m| m.src == src && m.tag == tag && m.seq == expected)
    }

    /// Consume the message at `pos`, advancing its stream cursor.
    fn take(&mut self, pos: usize) -> Msg {
        let msg = self.queue.remove(pos);
        *self.consumed.entry((msg.src, msg.tag)).or_insert(0) += 1;
        msg
    }
}

#[derive(Default)]
struct Inbox {
    state: Mutex<InboxState>,
    cv: Condvar,
}

/// Shared state of one communicator.
pub(crate) struct CommState {
    /// Universe-unique id (0 = world; `split` allocates fresh ones) —
    /// keys the fault plan's per-message decisions.
    comm_id: u64,
    /// Map from communicator-local rank to universe-global rank.
    global_ranks: Vec<usize>,
    inboxes: Vec<Inbox>,
    /// Per-(src, dest, tag)-stream send counters.
    seqs: Mutex<std::collections::HashMap<(usize, usize, u64), u64>>,
}

impl CommState {
    pub(crate) fn new(global_ranks: Vec<usize>, comm_id: u64) -> Arc<CommState> {
        let n = global_ranks.len();
        Arc::new(CommState {
            comm_id,
            global_ranks,
            inboxes: (0..n).map(|_| Inbox::default()).collect(),
            seqs: Mutex::new(std::collections::HashMap::new()),
        })
    }

    /// Allocate the next sequence number of stream `(src, dest, tag)`.
    fn next_seq(&self, src: usize, dest: usize, tag: u64) -> u64 {
        let mut seqs = self.seqs.lock();
        let slot = seqs.entry((src, dest, tag)).or_insert(0);
        let seq = *slot;
        *slot += 1;
        seq
    }

    /// Enqueue at the back, or at a fault-chosen position for injected
    /// reordering (harmless: matching is by sequence, not position).
    fn enqueue(&self, dest: usize, msg: Msg, slot: Option<u64>, diag: &UniverseDiag) {
        let inbox = &self.inboxes[dest];
        let mut state = inbox.state.lock();
        match slot {
            Some(s) => {
                let pos = (s as usize) % (state.queue.len() + 1);
                state.queue.insert(pos, msg);
            }
            None => state.queue.push(msg),
        }
        drop(state);
        diag.bump_progress();
        inbox.cv.notify_all();
    }
}

/// A communicator handle held by one rank.
///
/// Cloneable only through [`Comm::split`]; each rank keeps exactly one
/// handle per communicator, mirroring MPI usage.
pub struct Comm {
    rank: usize,
    size: usize,
    /// Rank in the top-level universe (used for hook reporting so DLB
    /// can map blocked ranks to node-local core owners).
    global_rank: usize,
    state: Arc<CommState>,
    hooks: Arc<dyn MpiHooks>,
    diag: Arc<UniverseDiag>,
}

/// Reduction operators for the `allreduce` family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Max,
    Min,
}

impl ReduceOp {
    #[inline]
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        global_rank: usize,
        state: Arc<CommState>,
        hooks: Arc<dyn MpiHooks>,
        diag: Arc<UniverseDiag>,
    ) -> Comm {
        Comm { rank, size, global_rank, state, hooks, diag }
    }

    /// Standalone single-rank communicator.
    #[cfg(test)]
    pub fn solo() -> Comm {
        Comm::new(
            0,
            1,
            0,
            CommState::new(vec![0], 0),
            Arc::new(crate::hooks::NoHooks),
            UniverseDiag::new(1),
        )
    }

    /// This rank's id within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Rank id in the top-level universe.
    #[inline]
    pub fn global_rank(&self) -> usize {
        self.global_rank
    }

    /// The universe's diagnostic registry (wait states, deadlock
    /// verdict) — exposed for tests and the chaos CLI.
    pub fn diag(&self) -> &Arc<UniverseDiag> {
        &self.diag
    }

    /// Buffered asynchronous send of any `Send` value to `dest`.
    ///
    /// The fault plan (if any) may delay, reorder, drop-and-redeliver
    /// or swallow the message here; a rank declared crashed sends
    /// nothing at all (fail-silent).
    pub fn send<T: Send + 'static>(&self, dest: usize, tag: u64, value: T) {
        assert!(dest < self.size, "send to rank {dest} of {}", self.size);
        if self.diag.is_dead(self.global_rank) {
            return; // fail-silent: a dead rank's sends vanish
        }
        cfpd_telemetry::count!("mpi.msgs_sent");
        cfpd_telemetry::count!("mpi.bytes_sent", std::mem::size_of::<T>() as u64);
        let seq = self.state.next_seq(self.rank, dest, tag);
        let g_src = self.global_rank;
        let g_dest = self.state.global_ranks[dest];
        let msg = Msg { src: self.rank, tag, seq, payload: Box::new(value) };
        match self.hooks.on_send(self.state.comm_id, g_src, g_dest, tag, seq) {
            FaultAction::Deliver => self.state.enqueue(dest, msg, None, &self.diag),
            FaultAction::Delay { ms } => {
                // A slow link: the sender-side stall also delays every
                // later message on this edge, like a congested channel.
                std::thread::sleep(Duration::from_millis(ms));
                self.state.enqueue(dest, msg, None, &self.diag);
            }
            FaultAction::Reorder { slot } => {
                self.state.enqueue(dest, msg, Some(slot), &self.diag)
            }
            FaultAction::DropRedeliver { after_ms } => {
                // Held in flight: the deadlock detector must not fire
                // while the retransmission is pending.
                self.diag.chaos_hold();
                let state = Arc::clone(&self.state);
                let diag = Arc::clone(&self.diag);
                std::thread::Builder::new()
                    .name("chaos-redeliver".into())
                    .spawn(move || {
                        std::thread::sleep(Duration::from_millis(after_ms));
                        state.enqueue(dest, msg, None, &diag);
                        diag.chaos_release();
                    })
                    .expect("spawn chaos redelivery");
            }
            FaultAction::DropForever => {}
            FaultAction::SenderCrashed => {
                self.diag.mark_dead(g_src);
                self.hooks.on_rank_dead(g_src);
            }
        }
    }

    /// The `(src, tag)` pairs currently sitting unmatched in this
    /// rank's inbox (communicator-local source ranks).
    fn inbox_snapshot(&self) -> Vec<(usize, u64)> {
        self.state.inboxes[self.rank]
            .state
            .lock()
            .queue
            .iter()
            .map(|m| (m.src, m.tag))
            .collect()
    }

    /// The blocking core: wait for the *next in-sequence* message of
    /// stream `(src, tag)` until `deadline`, registering the wait with
    /// the universe's deadlock detector.
    fn recv_inner<T: Send + 'static>(
        &self,
        src: usize,
        tag: u64,
        kind: BlockKind,
        deadline: Instant,
    ) -> Result<T, CommError> {
        assert!(src < self.size, "recv from rank {src} of {}", self.size);
        let inbox = &self.state.inboxes[self.rank];
        let start = Instant::now();
        let mut blocked = false;
        loop {
            let mut queue = inbox.state.lock();
            // Strict in-sequence consumption: MPI's non-overtaking rule,
            // immune to queue-order faults; a gap (delayed or
            // pending-redelivery message) is waited out, never skipped.
            if let Some(pos) = queue.match_pos(src, tag) {
                let msg = queue.take(pos);
                drop(queue);
                self.diag.bump_progress();
                cfpd_telemetry::count!("mpi.msgs_received");
                cfpd_telemetry::count!(
                    "mpi.bytes_received",
                    std::mem::size_of::<T>() as u64
                );
                self.hooks.on_msg_recv(
                    self.state.comm_id,
                    self.state.global_ranks[src],
                    self.global_rank,
                    tag,
                    msg.seq,
                    std::mem::size_of::<T>(),
                );
                if blocked {
                    self.diag.end_wait(self.global_rank);
                    self.hooks.on_unblock(self.global_rank, kind);
                    if cfpd_telemetry::enabled() {
                        let ns = u64::try_from(start.elapsed().as_nanos())
                            .unwrap_or(u64::MAX);
                        record_wait(self.global_rank, kind, tag, ns);
                    }
                }
                return Ok(*msg.payload.downcast::<T>().unwrap_or_else(|_| {
                    panic!("rank {}: recv type mismatch from {src} tag {tag}", self.rank)
                }));
            }
            if self.diag.is_dead(self.global_rank) {
                drop(queue);
                std::panic::panic_any(CrashUnwind(self.global_rank));
            }
            if let Some(report) = self.diag.deadlock() {
                return Err(CommError::Deadlock(report));
            }
            if !blocked {
                blocked = true;
                self.diag.begin_wait(
                    self.global_rank,
                    WaitInfo {
                        kind,
                        src: self.state.global_ranks[src],
                        tag,
                        comm_id: self.state.comm_id,
                    },
                );
                self.hooks.on_block(self.global_rank, kind);
            }
            let timed_out = inbox.cv.wait_for(&mut queue, POLL_SLICE).timed_out();
            if !timed_out {
                continue; // notified: re-check the queue immediately
            }
            let in_flight: Vec<(usize, u64)> =
                queue.queue.iter().map(|m| (m.src, m.tag)).collect();
            drop(queue);
            self.diag.note_in_flight(
                self.global_rank,
                in_flight.iter().map(|&(s, t)| (self.state.global_ranks[s], t)).collect(),
            );
            if let Some(report) = self.diag.poll_deadlock() {
                return Err(CommError::Deadlock(report));
            }
            if Instant::now() >= deadline {
                self.diag.end_wait(self.global_rank);
                self.hooks.on_unblock(self.global_rank, kind);
                cfpd_telemetry::count!("mpi.timeouts");
                return Err(CommError::Timeout { src, tag, waited: start.elapsed(), in_flight });
            }
        }
    }

    /// Blocking receive of the next message from `src` with tag `tag`.
    /// Panics if the payload type does not match `T` (a programming
    /// error in the protocol); a wedged universe or 60 s timeout panics
    /// with a "who waits on whom" diagnostic instead of hanging.
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: u64) -> T {
        match self.recv_inner(src, tag, BlockKind::Recv, Instant::now() + DEADLOCK_TIMEOUT) {
            Ok(v) => v,
            Err(e) => panic!(
                "rank {}: deadlock waiting for message from {src} tag {tag}; \
                 expected tag {tag} from rank {src}, in-flight tags: [{}]\n{e}",
                self.rank,
                fmt_in_flight(&self.inbox_snapshot())
            ),
        }
    }

    /// Barrier across all ranks of the communicator (dissemination over
    /// point-to-point messages; correctness over cleverness).
    pub fn barrier(&self) {
        if let Err(e) = self.barrier_inner(Instant::now() + DEADLOCK_TIMEOUT) {
            panic!("rank {}: barrier failed: {e}", self.rank);
        }
    }

    fn barrier_inner(&self, deadline: Instant) -> Result<(), CommError> {
        let tag = u64::MAX - 1;
        // Dissemination barrier: log2(size) rounds.
        let mut round = 1usize;
        while round < self.size {
            let dest = (self.rank + round) % self.size;
            let src = (self.rank + self.size - round) % self.size;
            self.send(dest, tag.wrapping_add(round as u64), ());
            self.recv_inner::<()>(src, tag.wrapping_add(round as u64), BlockKind::Barrier, deadline)?;
            round *= 2;
        }
        Ok(())
    }

    /// All-reduce a scalar.
    pub fn allreduce_f64(&self, value: f64, op: ReduceOp) -> f64 {
        let mut buf = [value];
        self.allreduce_slice_f64(&mut buf, op);
        buf[0]
    }

    /// All-reduce a slice in place (every rank ends with the reduction).
    pub fn allreduce_slice_f64(&self, values: &mut [f64], op: ReduceOp) {
        if let Err(e) = self.allreduce_inner(values, op, Instant::now() + DEADLOCK_TIMEOUT) {
            panic!("rank {}: allreduce failed: {e}", self.rank);
        }
    }

    fn allreduce_inner(
        &self,
        values: &mut [f64],
        op: ReduceOp,
        deadline: Instant,
    ) -> Result<(), CommError> {
        const TAG: u64 = u64::MAX - 2;
        // Reduce to rank 0, then broadcast.
        if self.rank == 0 {
            for src in 1..self.size {
                let part: Vec<f64> =
                    self.recv_inner(src, TAG, BlockKind::Collective, deadline)?;
                assert_eq!(part.len(), values.len(), "allreduce length mismatch");
                for (v, p) in values.iter_mut().zip(part) {
                    *v = op.apply(*v, p);
                }
            }
            for dest in 1..self.size {
                self.send(dest, TAG, values.to_vec());
            }
        } else {
            self.send(0, TAG, values.to_vec());
            let result: Vec<f64> = self.recv_inner(0, TAG, BlockKind::Collective, deadline)?;
            values.copy_from_slice(&result);
        }
        Ok(())
    }

    /// Broadcast a cloneable value from `root` to every rank; each rank
    /// returns its copy.
    pub fn bcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> T {
        const TAG: u64 = u64::MAX - 3;
        if self.rank == root {
            let v = value.expect("root must provide the broadcast value");
            for dest in 0..self.size {
                if dest != root {
                    self.send(dest, TAG, v.clone());
                }
            }
            v
        } else {
            self.recv(root, TAG)
        }
    }

    /// Gather one value per rank at `root` (ordered by rank); non-roots
    /// get `None`.
    pub fn gather<T: Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>> {
        const TAG: u64 = u64::MAX - 4;
        if self.rank == root {
            let mut out: Vec<Option<T>> = (0..self.size).map(|_| None).collect();
            out[root] = Some(value);
            for src in 0..self.size {
                if src != root {
                    out[src] = Some(self.recv(src, TAG));
                }
            }
            Some(out.into_iter().map(Option::unwrap).collect())
        } else {
            self.send(root, TAG, value);
            None
        }
    }

    /// All-gather: every rank receives the vector of all ranks' values.
    #[cfg(test)]
    pub fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        let gathered = self.gather(0, value);
        self.bcast(0, gathered)
    }

    /// Split into sub-communicators by `color`; ranks of equal color form
    /// a new communicator ordered by `key` (ties by old rank). All ranks
    /// must call `split` collectively.
    pub fn split(&self, color: usize, key: usize) -> Comm {
        const TAG: u64 = u64::MAX - 5;
        // Rank 0 collects (color, key), forms groups, creates the shared
        // states and distributes (new_rank, new_size, Arc<CommState>).
        let pairs = self.gather(0, (color, key, self.rank));
        if self.rank == 0 {
            let mut pairs = pairs.unwrap();
            pairs.sort_by_key(|&(c, k, r)| (c, k, r));
            let mut i = 0usize;
            while i < pairs.len() {
                let c = pairs[i].0;
                let mut group = Vec::new();
                while i < pairs.len() && pairs[i].0 == c {
                    group.push(pairs[i].2);
                    i += 1;
                }
                let globals: Vec<usize> =
                    group.iter().map(|&old| self.state.global_ranks[old]).collect();
                let state = CommState::new(globals, self.diag.next_comm_id());
                for (new_rank, &old_rank) in group.iter().enumerate() {
                    self.send(old_rank, TAG, (new_rank, group.len(), Arc::clone(&state)));
                }
            }
        }
        let (new_rank, new_size, state): (usize, usize, Arc<CommState>) = self.recv(0, TAG);
        Comm::new(
            new_rank,
            new_size,
            self.global_rank,
            state,
            Arc::clone(&self.hooks),
            Arc::clone(&self.diag),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn send_recv_roundtrip() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1.0f64, 2.0, 3.0]);
            } else {
                let v: Vec<f64> = comm.recv(0, 7);
                assert_eq!(v, vec![1.0, 2.0, 3.0]);
            }
        });
    }

    #[test]
    fn recv_matches_tag_out_of_order() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 10u32);
                comm.send(1, 2, 20u32);
            } else {
                // Receive tag 2 first even though tag 1 arrived earlier.
                let b: u32 = comm.recv(0, 2);
                let a: u32 = comm.recv(0, 1);
                assert_eq!((a, b), (10, 20));
            }
        });
    }

    #[test]
    fn recv_consumes_same_stream_in_send_order_despite_queue_order() {
        // Messages on one (src, tag) stream must come out in send order
        // even if the queue is physically scrambled — the non-overtaking
        // guarantee that makes reorder faults physics-invisible.
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..10u32 {
                    comm.send(1, 4, i);
                }
            } else {
                std::thread::sleep(Duration::from_millis(20));
                {
                    // Scramble the physical queue order.
                    let mut q = comm.state.inboxes[1].state.lock();
                    q.queue.reverse();
                }
                for i in 0..10u32 {
                    assert_eq!(comm.recv::<u32>(0, 4), i);
                }
            }
        });
    }

    #[test]
    fn recv_timeout_reports_in_flight_tags() {
        // The backstop path of the blocking core, with a short deadline
        // in place of `DEADLOCK_TIMEOUT`: rank 0 keeps running (not in a
        // wait), so the detector stays quiet and the deadline expires.
        use std::sync::atomic::{AtomicBool, Ordering};
        static DONE: AtomicBool = AtomicBool::new(false);
        DONE.store(false, Ordering::SeqCst);
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 8, 1u8); // wrong tag on purpose
                while !DONE.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            } else {
                let deadline = Instant::now() + Duration::from_millis(120);
                let err = comm.recv_inner::<u8>(0, 42, BlockKind::Recv, deadline).unwrap_err();
                match &err {
                    CommError::Timeout { src, tag, in_flight, .. } => {
                        assert_eq!((*src, *tag), (0, 42));
                        assert_eq!(in_flight, &vec![(0, 8)]);
                    }
                    other => panic!("expected timeout, got {other}"),
                }
                assert!(
                    err.to_string().contains("expected tag 42 from rank 0, in-flight tags: [8 from 0]"),
                    "{err}"
                );
                // The mis-tagged message is still consumable afterwards.
                assert_eq!(comm.recv::<u8>(0, 8), 1);
                DONE.store(true, Ordering::SeqCst);
            }
        });
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        Universe::run(4, move |comm| {
            c2.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier, every rank must observe all 4 arrivals.
            assert_eq!(c2.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn allreduce_sum_max_min() {
        Universe::run(5, |comm| {
            let r = comm.rank() as f64;
            assert_eq!(comm.allreduce_f64(r, ReduceOp::Sum), 10.0);
            assert_eq!(comm.allreduce_f64(r, ReduceOp::Max), 4.0);
            assert_eq!(comm.allreduce_f64(r, ReduceOp::Min), 0.0);
        });
    }

    #[test]
    fn allreduce_slice() {
        Universe::run(3, |comm| {
            let mut v = vec![comm.rank() as f64, 1.0];
            comm.allreduce_slice_f64(&mut v, ReduceOp::Sum);
            assert_eq!(v, vec![3.0, 3.0]);
        });
    }

    #[test]
    fn bcast_from_nonzero_root() {
        Universe::run(4, |comm| {
            let v = if comm.rank() == 2 { Some(vec![9u8, 8]) } else { None };
            let got = comm.bcast(2, v);
            assert_eq!(got, vec![9, 8]);
        });
    }

    #[test]
    fn gather_and_allgather() {
        Universe::run(4, |comm| {
            let g = comm.gather(1, comm.rank() as u32 * 10);
            if comm.rank() == 1 {
                assert_eq!(g.unwrap(), vec![0, 10, 20, 30]);
            } else {
                assert!(g.is_none());
            }
            let all = comm.allgather(comm.rank() as u32);
            assert_eq!(all, vec![0, 1, 2, 3]);
        });
    }

    #[test]
    fn split_groups_by_color() {
        Universe::run(6, |comm| {
            let color = comm.rank() % 2;
            let sub = comm.split(color, comm.rank());
            assert_eq!(sub.size(), 3);
            // Even ranks 0,2,4 -> new ranks 0,1,2; odds likewise.
            assert_eq!(sub.rank(), comm.rank() / 2);
            // Sub-communicator collectives stay within the group.
            let sum = sub.allreduce_f64(comm.rank() as f64, ReduceOp::Sum);
            let expected = if color == 0 { 0.0 + 2.0 + 4.0 } else { 1.0 + 3.0 + 5.0 };
            assert_eq!(sum, expected);
        });
    }

    #[test]
    fn solo_comm() {
        let c = Comm::solo();
        assert_eq!(c.size(), 1);
        assert_eq!(c.allreduce_f64(5.0, ReduceOp::Sum), 5.0);
        c.barrier();
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, 1u32);
            } else {
                let _: f64 = comm.recv(0, 0);
            }
        });
    }

    #[test]
    #[should_panic(expected = "in-flight tags: [8 from 0]")]
    fn recv_never_sent_tag_fails_fast_with_diagnostic() {
        // A mistagged recv must fail with the "expected tag X from rank
        // Y, in-flight tags: [...]" report naming what arrived instead,
        // quickly (deadlock detector), not after a 60 s hang.
        let t0 = Instant::now();
        let result = std::panic::catch_unwind(|| {
            Universe::run(2, |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 8, 1u8);
                } else {
                    let _: u8 = comm.recv(0, 42); // nobody sends tag 42
                }
            });
        });
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "diagnosis took {:?}, should be sub-second",
            t0.elapsed()
        );
        std::panic::resume_unwind(result.unwrap_err());
    }
}

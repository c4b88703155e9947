//! # cfpd-flight — the flight recorder (post-mortem black box)
//!
//! A fixed-capacity, sharded ring buffer of recent structured events:
//! phase transitions, solver iteration heartbeats (with residuals), DLB
//! lend/reclaim marks, comm waits, fault injections, checkpoint and
//! WAL marks. Hot paths call [`record`] unconditionally; when the
//! recorder is disabled that is a single relaxed load and a branch
//! (same contract as `cfpd_telemetry::enabled`), and when enabled the
//! budget is ≤ 100 ns per record (pinned by the `flight_record` row of
//! `BENCH_telemetry_overhead.json`).
//!
//! ## Memory contract
//!
//! The ring is `SHARDS` shards of `SLOTS_PER_SHARD` slots, allocated
//! once on first use and never resized: recording never allocates. A
//! recording thread picks its shard once (thread-local, round-robin)
//! and only ever bumps that shard's cursor, so concurrent recorders do
//! not contend on a cacheline; the only cross-thread atomic is the
//! global sequence counter that gives dumps a total order. When a
//! shard wraps, its oldest events are overwritten (the recorder keeps
//! the *recent* window, like an aircraft flight recorder) and the
//! overwrite count is reported in the dump's `meta` line.
//!
//! Slots are plain `AtomicU64` fields written with relaxed stores,
//! bracketed by a release store of the sequence number (zeroed first,
//! written last). A reader that races a wrapping writer can observe a
//! torn slot; this is acceptable for a diagnostic ring — dumps are
//! taken from a supervisor after the interesting thread has already
//! died or been abandoned — and the dump's trailing digest guards the
//! *rendered text* so a reader can always tell whether the file it
//! holds is the file that was written.
//!
//! ## Timing-only invariant
//!
//! Recording never feeds back into simulation state: no branch in any
//! deterministic core path consults the recorder. The golden-trace
//! suites pin this by running the goldens byte-identical with the
//! recorder enabled.

#![forbid(unsafe_code)]

use cfpd_testkit::record::{self, parse_int};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Shards in the ring (matches `cfpd_telemetry::SHARDS`: more than the
/// worker counts the verify scenarios run).
pub const SHARDS: usize = 16;
/// Slots per shard; the ring holds the most recent ~`SHARDS × this`
/// events (skew between shards can bias the retained window slightly).
pub const SLOTS_PER_SHARD: usize = 4096;
/// Total slot capacity of the ring.
pub const CAPACITY: usize = SHARDS * SLOTS_PER_SHARD;

/// What a recorded event describes. Discriminants are part of the dump
/// text format (rendered by name, not number).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A POP phase attribution: `code` = phase index into
    /// [`PHASE_NAMES`], `a`/`b` = f64 bits of the start/end seconds.
    Phase = 1,
    /// Krylov iteration heartbeat: `code` 1 = CG, 2 = BiCGSTAB,
    /// `a` = iteration, `b` = f64 bits of the relative residual.
    SolverIter = 2,
    /// LeWI lend: `code` = lender rank, `a` = cores lent.
    DlbLend = 3,
    // 4 was DlbPreLend, retired with the predictive policy: never reuse it.
    /// Reclaim: `code` = reclaiming rank, `a` = cores reclaimed.
    DlbReclaim = 5,
    /// Blocking communication wait: `code` = collective op id,
    /// `a` = nanoseconds waited.
    CommWait = 6,
    /// Fault injection fired: `a` = detail (plan-specific).
    Fault = 7,
    /// A rank finished a simulation step: `a` = step index.
    Step = 8,
    /// Checkpoint written: `a` = f64 bits of the capture time (s).
    Ckpt = 9,
    /// Supervisor WAL append mirror: `rank` = job id (low 32 bits),
    /// `code` = WAL record kind, `a` = WAL sequence number.
    Wal = 10,
    /// Free-form supervisor mark (deadline kill, dump cause, …).
    Mark = 11,
}

/// Every kind with its name in the dump text: the one table that
/// [`EventKind::name`], [`EventKind::from_name`] and the ring's decoder
/// read.
const KINDS: [(EventKind, &str); 10] = [
    (EventKind::Phase, "phase"),
    (EventKind::SolverIter, "solver"),
    (EventKind::DlbLend, "lend"),
    (EventKind::DlbReclaim, "reclaim"),
    (EventKind::CommWait, "wait"),
    (EventKind::Fault, "fault"),
    (EventKind::Step, "step"),
    (EventKind::Ckpt, "ckpt"),
    (EventKind::Wal, "wal"),
    (EventKind::Mark, "mark"),
];

impl EventKind {
    pub fn name(self) -> &'static str {
        KINDS.iter().find(|(k, _)| *k == self).map_or("?", |(_, name)| name)
    }

    pub fn from_name(name: &str) -> Option<EventKind> {
        KINDS.iter().find(|(_, n)| *n == name).map(|(k, _)| *k)
    }

    fn from_u8(v: u8) -> Option<EventKind> {
        KINDS.iter().find(|(k, _)| *k as u8 == v).map(|(k, _)| *k)
    }
}

/// Phase names in `code` order for [`EventKind::Phase`] events — the
/// `cfpd_trace::Phase::ALL` index (and its `Phase::key` spelling).
pub const PHASE_NAMES: [&str; 6] =
    ["mpi", "assembly", "solver1", "solver2", "sgs", "particles"];

/// One drained event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Global recording order (monotonic, starts at 1).
    pub seq: u64,
    /// Nanoseconds since the recorder was first used.
    pub t_ns: u64,
    /// Recording rank (or job id for supervisor [`EventKind::Wal`]).
    pub rank: u32,
    pub kind: EventKind,
    pub code: u32,
    pub a: u64,
    pub b: u64,
}

impl FlightEvent {
    /// Human-readable one-line description (used by the timeline).
    pub fn describe(&self) -> String {
        match self.kind {
            EventKind::Phase => {
                let name =
                    PHASE_NAMES.get(self.code as usize).copied().unwrap_or("?");
                format!(
                    "phase {name} {:.6}s..{:.6}s",
                    f64::from_bits(self.a),
                    f64::from_bits(self.b)
                )
            }
            EventKind::SolverIter => {
                let which = if self.code == 2 { "bicgstab" } else { "cg" };
                format!(
                    "{which} iter {} residual {:.3e}",
                    self.a,
                    f64::from_bits(self.b)
                )
            }
            EventKind::DlbLend => {
                format!("dlb lend: rank {} lends {} cores", self.code, self.a)
            }
            EventKind::DlbReclaim => {
                format!("dlb reclaim: rank {} reclaims {} cores", self.code, self.a)
            }
            EventKind::CommWait => {
                format!("comm wait op#{} {} ns", self.code, self.a)
            }
            EventKind::Fault => format!("fault injected (detail {})", self.a),
            EventKind::Step => format!("step {} done", self.a),
            EventKind::Ckpt => {
                format!("checkpoint written at t={:.6}s", f64::from_bits(self.a))
            }
            EventKind::Wal => {
                format!("wal append kind#{} seq {} job {}", self.code, self.a, self.rank)
            }
            EventKind::Mark => format!("mark #{} ({})", self.code, self.a),
        }
    }
}

struct Slot {
    seq: AtomicU64,
    t_ns: AtomicU64,
    meta: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

struct Shard {
    cursor: AtomicUsize,
    slots: Box<[Slot]>,
}

struct Recorder {
    epoch: Instant,
    shards: Box<[Shard]>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(1);
static RECORDER: OnceLock<Recorder> = OnceLock::new();
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

#[inline]
fn shard_index() -> usize {
    MY_SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(v);
            v
        }
    })
}

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        shards: (0..SHARDS)
            .map(|_| Shard {
                cursor: AtomicUsize::new(0),
                slots: (0..SLOTS_PER_SHARD)
                    .map(|_| Slot {
                        seq: AtomicU64::new(0),
                        t_ns: AtomicU64::new(0),
                        meta: AtomicU64::new(0),
                        a: AtomicU64::new(0),
                        b: AtomicU64::new(0),
                    })
                    .collect(),
            })
            .collect(),
    })
}

/// Is the recorder on? Single relaxed load — the entire disabled-path
/// cost of an instrumented hot loop.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the recorder on or off. Enabling allocates the ring on first
/// use; disabling leaves recorded events in place for dumping.
pub fn set_enabled(on: bool) {
    if on {
        recorder(); // pin the epoch before the first record
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enable the recorder when `CFPD_FLIGHT=1` is set (mirrors
/// `cfpd_telemetry::init_from_env`).
pub fn init_from_env() {
    if std::env::var("CFPD_FLIGHT").map(|v| v == "1").unwrap_or(false) {
        set_enabled(true);
    }
}

#[inline]
fn pack_meta(rank: u32, kind: EventKind, code: u32) -> u64 {
    ((rank as u64) << 40) | ((kind as u64) << 32) | code as u64
}

/// Record one event. When disabled this is a relaxed load and a branch
/// (~0 cost); when enabled, one clock read, two `fetch_add`s and five
/// relaxed stores into this thread's shard — no allocation, no lock.
#[inline]
pub fn record(kind: EventKind, rank: u32, code: u32, a: u64, b: u64) {
    if !enabled() {
        return;
    }
    let rec = recorder();
    let d = rec.epoch.elapsed();
    let t_ns = d.as_secs().wrapping_mul(1_000_000_000).wrapping_add(d.subsec_nanos() as u64);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let shard = &rec.shards[shard_index()];
    let slot = &shard.slots[shard.cursor.fetch_add(1, Ordering::Relaxed) % SLOTS_PER_SHARD];
    // Zero the sequence first so a racing reader skips the slot rather
    // than pairing the new sequence with stale fields.
    slot.seq.store(0, Ordering::Release);
    slot.t_ns.store(t_ns, Ordering::Relaxed);
    slot.meta.store(pack_meta(rank, kind, code), Ordering::Relaxed);
    slot.a.store(a, Ordering::Relaxed);
    slot.b.store(b, Ordering::Relaxed);
    slot.seq.store(seq, Ordering::Release);
}

/// Total events overwritten by ring wrap so far.
pub fn dropped() -> u64 {
    let Some(rec) = RECORDER.get() else { return 0 };
    rec.shards
        .iter()
        .map(|s| s.cursor.load(Ordering::Relaxed).saturating_sub(SLOTS_PER_SHARD) as u64)
        .sum()
}

/// Drain a snapshot of the ring, merged across shards in recording
/// (sequence) order. Events being overwritten mid-read are skipped.
pub fn events() -> Vec<FlightEvent> {
    let Some(rec) = RECORDER.get() else { return Vec::new() };
    let mut out = Vec::new();
    for shard in rec.shards.iter() {
        for slot in shard.slots.iter() {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == 0 {
                continue;
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            let Some(kind) = EventKind::from_u8(((meta >> 32) & 0xff) as u8) else {
                continue;
            };
            out.push(FlightEvent {
                seq,
                t_ns: slot.t_ns.load(Ordering::Relaxed),
                rank: (meta >> 40) as u32,
                kind,
                code: (meta & 0xffff_ffff) as u32,
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            });
        }
    }
    out.sort_by_key(|e| e.seq);
    out
}

/// Clear the ring and restart the sequence counter (tests and
/// benchmarks; the daemon never resets — its dumps keep full context).
pub fn reset() {
    SEQ.store(1, Ordering::Relaxed);
    let Some(rec) = RECORDER.get() else { return };
    for shard in rec.shards.iter() {
        shard.cursor.store(0, Ordering::Relaxed);
        for slot in shard.slots.iter() {
            slot.seq.store(0, Ordering::Release);
        }
    }
}

/// A parsed, digest-verified dump.
#[derive(Debug, Clone)]
pub struct FlightDump {
    pub events: Vec<FlightEvent>,
    /// Events lost to ring wrap before the dump was taken.
    pub dropped: u64,
    pub capacity: u64,
}

const DUMP_MAGIC: &str = "cfpd flight v1";

/// Render the current ring as the digest-guarded dump text. The final
/// `digest <16 hex>` line is the FNV digest of every preceding byte,
/// so a truncated or edited file fails [`parse_dump`].
pub fn dump_text() -> String {
    render_dump(&events(), dropped())
}

/// Render an explicit event list as dump text (same format as
/// [`dump_text`]; used by tests).
pub fn render_dump(events: &[FlightEvent], dropped: u64) -> String {
    let n = events.len();
    let mut body = format!("{DUMP_MAGIC}\nmeta events={n} dropped={dropped} capacity={CAPACITY}\n");
    for e in events {
        let (seq, t_ns, rank, kind, code) = (e.seq, e.t_ns, e.rank, e.kind.name(), e.code);
        body += &format!("e {seq} {t_ns} {rank} {kind} {code} {:016x} {:016x}\n", e.a, e.b);
    }
    let digest = cfpd_testkit::digest_bytes(body.as_bytes());
    body + &format!("digest {digest:016x}\n")
}

/// Parse and digest-verify a dump produced by [`dump_text`], in
/// `cfpd_testkit::record`'s grammar: the `meta` fields in their order,
/// then exactly `events=` event lines, then the digest trailer.
pub fn parse_dump(text: &str) -> Result<FlightDump, String> {
    let (body, stated) = record::digest_trailer(text)?;
    record::check_digest("flight dump", stated, cfpd_testkit::digest_bytes(body.as_bytes()))?;
    let mut cur = record::Cursor { rest: body };
    cur.magic(DUMP_MAGIC, "flight dump")?;
    let mut meta = cur.fields("meta")?;
    let n = record::bounded_count(meta.int("events")?, cur.rest.len(), "event")?;
    let (dropped, capacity) = (meta.int("dropped")?, meta.int("capacity")?);
    meta.end()?;
    let events = (0..n).map(|_| parse_event(cur.fields("e")?)).collect::<Result<_, String>>()?;
    if !cur.rest.is_empty() {
        return Err(format!("more event lines than the {n} declared"));
    }
    Ok(FlightDump { events, dropped, capacity })
}

/// The `<seq> <t_ns> <rank> <kind> <code> <a> <b>` of an `e` line.
fn parse_event(mut e: record::Fields) -> Result<FlightEvent, String> {
    let kind = |k: &str| EventKind::from_name(k).ok_or_else(|| format!("unknown event kind {k:?}"));
    let event = FlightEvent {
        seq: parse_int(e.word("seq")?, "seq")?,
        t_ns: parse_int(e.word("t_ns")?, "t_ns")?,
        rank: parse_int(e.word("rank")?, "rank")?,
        kind: kind(e.word("kind")?)?,
        code: parse_int(e.word("code")?, "code")?,
        a: record::parse_hex(e.word("a")?, "a")?,
        b: record::parse_hex(e.word("b")?, "b")?,
    };
    e.end()?;
    Ok(event)
}

/// Render the last `last_n` events as a relative-time timeline.
pub fn render_timeline(events: &[FlightEvent], last_n: usize) -> String {
    let window = &events[events.len().saturating_sub(last_n)..];
    let mut out = String::new();
    if window.is_empty() {
        out.push_str("(no events)\n");
        return out;
    }
    let t0 = window[0].t_ns;
    out.push_str(&format!(
        "last {} of {} events (t relative to window start)\n",
        window.len(),
        events.len()
    ));
    for e in window {
        let dt_ms = (e.t_ns.saturating_sub(t0)) as f64 / 1e6;
        out.push_str(&format!("  +{dt_ms:>10.3} ms  r{:<4} {}\n", e.rank, e.describe()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The recorder is process-global; serialize tests that mutate it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = guard();
        set_enabled(false);
        reset();
        record(EventKind::Step, 0, 0, 7, 0);
        assert!(events().is_empty());
    }

    #[test]
    fn records_in_sequence_order_across_threads() {
        let _g = guard();
        set_enabled(true);
        reset();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                s.spawn(move || {
                    for i in 0..100u64 {
                        record(EventKind::Step, t, 0, i, 0);
                    }
                });
            }
        });
        set_enabled(false);
        let evs = events();
        assert_eq!(evs.len(), 400);
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(dropped(), 0);
        reset();
    }

    #[test]
    fn ring_wraps_and_keeps_the_recent_window() {
        let _g = guard();
        set_enabled(true);
        reset();
        // Single thread → single shard: overflow it deliberately.
        let n = SLOTS_PER_SHARD as u64 + 100;
        for i in 0..n {
            record(EventKind::SolverIter, 0, 1, i, 1.0f64.to_bits());
        }
        set_enabled(false);
        let evs = events();
        assert_eq!(evs.len(), SLOTS_PER_SHARD);
        assert!(dropped() >= 100);
        // The survivors are the most recent records.
        assert_eq!(evs.last().unwrap().a, n - 1);
        reset();
    }

    #[test]
    fn dump_round_trips_and_digest_guards_the_text() {
        let _g = guard();
        set_enabled(true);
        reset();
        record(EventKind::Phase, 1, 2, 0.5f64.to_bits(), 0.75f64.to_bits());
        record(EventKind::Wal, 42, 3, 17, 0);
        set_enabled(false);
        let text = dump_text();
        let dump = parse_dump(&text).expect("round trip");
        assert_eq!(dump.events.len(), 2);
        assert_eq!(dump.events, events());
        assert_eq!(dump.dropped, 0);
        // Any edit breaks the digest.
        let tampered = text.replace(" 42 wal ", " 43 wal ");
        assert!(parse_dump(&tampered).is_err());
        let truncated = &text[..text.len() / 2];
        assert!(parse_dump(truncated).is_err());
        reset();
    }

    #[test]
    fn timeline_renders_descriptions() {
        let evs = vec![
            FlightEvent {
                seq: 1,
                t_ns: 1_000_000,
                rank: 0,
                kind: EventKind::Phase,
                code: 2,
                a: 0.0f64.to_bits(),
                b: 0.25f64.to_bits(),
            },
            FlightEvent {
                seq: 2,
                t_ns: 2_500_000,
                rank: 1,
                kind: EventKind::SolverIter,
                code: 1,
                a: 9,
                b: 1e-7f64.to_bits(),
            },
        ];
        let tl = render_timeline(&evs, 10);
        assert!(tl.contains("phase solver1"));
        assert!(tl.contains("cg iter 9"));
        assert!(tl.contains("+     1.500 ms"));
    }

    #[test]
    fn describe_covers_every_kind() {
        for (kind, needle) in [
            (EventKind::DlbLend, "dlb lend"),
            (EventKind::DlbReclaim, "dlb reclaim"),
            (EventKind::CommWait, "comm wait"),
            (EventKind::Fault, "fault injected"),
            (EventKind::Step, "step"),
            (EventKind::Ckpt, "checkpoint"),
            (EventKind::Mark, "mark"),
        ] {
            let e = FlightEvent { seq: 1, t_ns: 0, rank: 0, kind, code: 0, a: 0, b: 0 };
            assert!(e.describe().contains(needle), "{kind:?}");
            assert_eq!(EventKind::from_name(kind.name()), Some(kind));
            assert_eq!(EventKind::from_u8(kind as u8), Some(kind));
        }
        // Code 4 is retired: a dump that carries it decodes to nothing.
        assert_eq!(EventKind::from_u8(4), None);
    }
}

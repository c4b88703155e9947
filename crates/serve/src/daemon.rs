//! The daemon: HTTP front end, worker pool, and the WAL-backed job
//! supervisor gluing [`crate::state`], [`crate::wal`], [`crate::snap`]
//! and [`crate::runner`] together.
//!
//! ## Crash safety
//!
//! Every state transition is one WAL record, and `commit` is the only
//! code that makes one: it appends the record *before* the in-memory
//! store mutates, then hands it to [`Store::apply`] — the function a
//! restart replays the log through, so the live store and the replayed
//! one cannot disagree. Segment boundaries persist a snapshot file
//! *before* its `ckpt` record. A daemon killed at any instant therefore
//! restarts into a consistent prefix: completed cells keep their recorded
//! metrics, the in-flight cell resumes from its last pinned snapshot
//! (bit-identically — no step is recomputed), and at worst what ran
//! since the last pinned boundary is re-run from it: the not-yet-pinned
//! segment, and the one started beside its boundary's write when the
//! crash fell within that write. By the `stop_after` stitching contract
//! the re-run produces the same bytes.
//!
//! ## Overload
//!
//! Admission is bounded by `queue_cap` live jobs: beyond it, `POST
//! /jobs` sheds with `503` + `Retry-After` instead of queueing without
//! bound. Everything is observable on `/metrics` (strict Prometheus
//! text, see [`crate::prom`]).

use crate::fault::CellFault;
use crate::feed::EventFeed;
use crate::runner::{finish_cell_metrics, run_segment};
use crate::snap::{CellSnapshot, CheckpointSection, SnapshotParts};
use crate::state::{Job, JobState, ResumePoint, Store};
use crate::wal::{self, PersistGate, Wal, WalRecord};
use crate::watchdog::Watchdog;
use crate::{http, ServeFaultPlan};
use cfpd_campaign::{expand, run_bounded, CampaignSpec, CanonMetrics, Cell, CellAcc};
use cfpd_core::{Checkpoint, PrepareMemo};
use cfpd_telemetry::JsonWriter;
use cfpd_testkit::record::{check_digest, write_atomic};
use cfpd_testkit::{digest_bytes, panic_message, SplitMix64};
use cfpd_trace::PopTotals;
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Daemon configuration. The defaults suit the test suite (ephemeral
/// port, tiny pools); `cfpd serve run` overrides from flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub addr: String,
    pub data_dir: PathBuf,
    /// Concurrent job slots (the [`cfpd_dlb::JobArbiter`] total).
    pub workers: usize,
    /// Admission bound: live (non-terminal) jobs beyond this shed 503.
    pub queue_cap: usize,
    /// Steps per segment of a cell — the recovery-granularity vs
    /// snapshot-overhead dial.
    pub ckpt_interval: usize,
    /// Wall-clock budget per segment; a stuck cell fails with
    /// `timeout: ...`.
    pub cell_timeout: Option<Duration>,
    /// Retries per cell after the first attempt.
    pub retry_max: u32,
    /// Exponential backoff base (doubles per retry, jittered, capped).
    pub backoff_base_ms: u64,
    /// Per-job wall-clock budget from admission.
    pub job_deadline: Option<Duration>,
    /// Accept-pool size (threads handling HTTP connections).
    pub http_threads: usize,
    /// Regression watchdog: warn when a phase's per-step time exceeds
    /// this factor × its rolling median across completed cells.
    pub drift_factor: f64,
    pub fault: ServeFaultPlan,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: PathBuf::from("serve-data"),
            workers: 2,
            queue_cap: 8,
            ckpt_interval: 1,
            cell_timeout: None,
            retry_max: 2,
            backoff_base_ms: 25,
            job_deadline: None,
            http_threads: 2,
            drift_factor: 3.0,
            fault: ServeFaultPlan::default(),
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    store: Mutex<Store>,
    cv: Condvar,
    wal: Wal,
    gate: Arc<PersistGate>,
    drain: AtomicBool,
    kill: AtomicBool,
    workers_alive: AtomicUsize,
    /// Where a stop connects to wake the acceptors blocked in `accept()`:
    /// the daemon's own address, loopback when it is bound to an
    /// unspecified one.
    wake_addr: SocketAddr,
    /// Supervisor event feed (`GET /events` long-polls it). Leaf lock:
    /// safe to post while holding the store mutex.
    feed: EventFeed,
    /// Rolling per-phase medians across completed cells.
    watchdog: Mutex<Watchdog>,
    /// Per-job POP time totals of the segments this daemon ran. Memory
    /// only: never in the WAL, a snapshot or the store. Leaf lock.
    job_pop: Mutex<HashMap<u64, PopTotals>>,
    /// Set-up of the most recently served cells. Owned by this daemon:
    /// a restarted one starts cold and rebuilds from the specs.
    memo: PrepareMemo,
}

impl Shared {
    fn store(&self) -> MutexGuard<'_, Store> {
        self.store.lock().expect("no thread panicked while holding the store")
    }

    fn job_pop(&self) -> MutexGuard<'_, HashMap<u64, PopTotals>> {
        self.job_pop.lock().expect("no thread panicked while holding the POP totals")
    }
}

/// A running daemon. [`Daemon::join`] blocks until shutdown (drain or
/// kill); [`Daemon::kill`] is the abrupt path the resilience tests use.
pub struct Daemon {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Daemon {
    pub fn start(cfg: ServeConfig) -> std::io::Result<Daemon> {
        std::fs::create_dir_all(&cfg.data_dir)?;
        cfpd_telemetry::set_enabled(true);
        cfpd_flight::set_enabled(true);
        let gate = match cfg.fault.freeze_wal_after {
            Some(n) => PersistGate::kill_after(n),
            None => PersistGate::unlimited(),
        };

        let wal_path = cfg.data_dir.join("wal.log");
        let replayed = wal::replay(&wal_path);
        let mut store = Store::new(cfg.workers);
        recover(&mut store, &cfg.data_dir, &replayed.records);
        let wal = Wal::open(&wal_path, &replayed.valid_text, replayed.next_seq, Arc::clone(&gate))?;

        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let wake_ip = match addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };

        let shared = Arc::new(Shared {
            workers_alive: AtomicUsize::new(cfg.workers),
            wake_addr: SocketAddr::new(wake_ip, addr.port()),
            watchdog: Mutex::new(Watchdog::new(cfg.drift_factor)),
            job_pop: Mutex::new(HashMap::new()),
            cfg,
            store: Mutex::new(store),
            cv: Condvar::new(),
            wal,
            gate,
            drain: AtomicBool::new(false),
            kill: AtomicBool::new(false),
            feed: EventFeed::new(1024),
            memo: PrepareMemo::new(),
        });

        let mut threads = Vec::new();
        for _ in 0..shared.cfg.workers {
            let sh = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(&sh)));
        }
        for _ in 0..acceptors(&shared.cfg) {
            let sh = Arc::clone(&shared);
            let l = listener.try_clone()?;
            threads.push(std::thread::spawn(move || accept_loop(l, &sh)));
        }
        shared.cv.notify_all();
        Ok(Daemon { shared, addr, threads })
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Has the simulated-crash gate frozen persistence?
    // pub for tests/serve_resilience.rs: a kill sweep waits for the frozen gate before killing.
    pub fn gate_frozen(&self) -> bool {
        self.shared.gate.frozen()
    }

    /// Block until the daemon shuts down (drain completed or killed).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Abrupt shutdown: stop all threads *without* parking or
    /// persisting anything — in-memory state dies, disk keeps whatever
    /// the WAL and snapshots already hold. With a frozen gate this is
    /// indistinguishable from `kill -9` at the freeze point.
    pub fn kill(self) {
        self.shared.kill.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        wake_acceptors(&self.shared);
        self.join();
    }
}

// ---------------------------------------------------------------------
// The one writer, live and replayed

/// The only way the live daemon changes a job's durable state: log the
/// record, [`Store::apply`] it, announce it. `false` means the
/// persistence gate is frozen and the record is not on disk — the
/// daemon carries on in memory, but must not undo anything the last
/// durable record still points to.
fn commit(sh: &Shared, store: &mut Store, rec: WalRecord) -> bool {
    let durable = sh.wal.append(&rec);
    store.apply(&rec);
    let cells = store.jobs.get(&rec.job_id()).map_or(0, |j| j.cells.len());
    sh.feed.announce(&rec, cells);
    durable
}

/// Rebuild the store from the WAL's valid prefix: the same
/// [`Store::apply`] over every record, then every job that did not end
/// goes back on the queue. Pure function of the records plus the
/// spec/snapshot files they pin.
fn recover(store: &mut Store, dir: &Path, records: &[WalRecord]) {
    for rec in records {
        if let WalRecord::Submit { job, spec_digest, .. } = rec {
            // A spec that is gone, fails its digest or no longer parses
            // in this build (a retired key) drops the job, and says so.
            let spec = std::fs::read_to_string(wal::spec_path(dir, *job))
                .map_err(|e| format!("unreadable: {e}"))
                .and_then(|text| {
                    check_digest("spec", *spec_digest, digest_bytes(text.as_bytes()))?;
                    parse_spec(&text)
                });
            match spec {
                Ok((name, cells)) => store.admit(Job::new(*job, name, cells)),
                Err(e) => {
                    eprintln!("cfpd-serve: job {job} dropped: spec refused: {e}");
                    cfpd_telemetry::count!("serve.specs_refused");
                }
            }
        }
        store.apply(rec);
    }

    // Re-queue every surviving non-terminal job, resuming from its
    // pinned snapshot when the file verifies against the WAL.
    let live: Vec<u64> =
        store.jobs.values().filter(|j| !j.state().is_terminal()).map(|j| j.id).collect();
    for id in live {
        let job = &store.jobs[&id];
        let resume = job.pinned_snapshot().and_then(|pin| {
            let cell = job.cells.get(job.cur_cell())?;
            let path = wal::snap_path(dir, id, cell.index);
            let restored = std::fs::read_to_string(&path)
                .map_err(|e| format!("unreadable: {e}"))
                .and_then(|text| resume_point(&text, pin, cell));
            if let Err(reason) = &restored {
                // Whatever the reason, the cell restarts from step 0:
                // that costs recompute, never correctness.
                eprintln!(
                    "cfpd-serve: job {id} restarts cell {}: {} refused: {reason}",
                    cell.index,
                    path.display()
                );
                cfpd_telemetry::count!("serve.snapshots_refused");
            }
            restored.ok()
        });
        store.requeue(id, resume);
        enqueue(store, id);
    }
}

/// The progress a pinned snapshot file holds, if the file is the one
/// the WAL pins (`pin`), whole, in this build's format, and cut from
/// `cell`'s configuration at this build's summation revision.
fn resume_point(text: &str, pin: u64, cell: &Cell) -> Result<ResumePoint, String> {
    let snap = CellSnapshot::from_pinned_text(text, pin)?;
    let cp = Checkpoint::from_text(&snap.checkpoint_text)?;
    cp.validate_for(&cell.scenario.config, cell.scenario.ranks)?;
    Ok(ResumePoint {
        next_step: snap.next_step,
        checkpoint: Arc::new(cp),
        acc: snap.acc,
        events_text: snap.events_text,
    })
}

/// A campaign text as a job's name and cells, for admission and for
/// replay alike.
fn parse_spec(text: &str) -> Result<(String, Vec<Cell>), String> {
    let spec = CampaignSpec::from_text(text).map_err(|e| format!("bad campaign spec: {e}"))?;
    match expand(&spec) {
        Ok(cells) if !cells.is_empty() => Ok((spec.name, cells)),
        Ok(_) => Err("campaign expands to zero cells".to_string()),
        Err(e) => Err(format!("bad campaign spec: {e}")),
    }
}

fn enqueue(store: &mut Store, id: u64) {
    store.queue.push_back(id);
    cfpd_telemetry::gauge_add!("serve.queue_depth", 1);
}

fn dequeue_at(store: &mut Store, idx: usize) {
    store.queue.remove(idx);
    cfpd_telemetry::gauge_add!("serve.queue_depth", -1);
}

// ---------------------------------------------------------------------
// Worker pool

fn worker_loop(sh: &Shared) {
    // The snapshot text of every boundary this worker writes, kept
    // across boundaries so that each renders into memory already mapped.
    let mut snap_buf = Vec::new();
    loop {
        let claimed = {
            let mut store = sh.store();
            loop {
                if sh.kill.load(Ordering::SeqCst) || sh.drain.load(Ordering::SeqCst) {
                    break None;
                }
                if let Some(id) = try_dispatch(sh, &mut store) {
                    break Some(id);
                }
                let (s, _) = sh
                    .cv
                    .wait_timeout(store, Duration::from_millis(50))
                    .expect("no thread panicked while holding the store");
                store = s;
            }
        };
        match claimed {
            Some(id) => run_job(sh, id, &mut snap_buf),
            None => break,
        }
    }
    let last = sh.workers_alive.fetch_sub(1, Ordering::SeqCst) == 1;
    if last && sh.drain.load(Ordering::SeqCst) {
        wake_acceptors(sh);
    }
}

/// Scan the queue for a dispatchable job and take a slot for it.
/// Holds the store lock; `Some(id)` means the job is now Running.
fn try_dispatch(sh: &Shared, store: &mut Store) -> Option<u64> {
    let mut idx = 0;
    while idx < store.queue.len() {
        let id = store.queue[idx];
        let took = match store.jobs.get(&id).map(Job::state) {
            Some(JobState::Queued) => store.arbiter.try_acquire(id),
            Some(JobState::Checkpointed) => store.arbiter.try_reclaim(id),
            _ => {
                dequeue_at(store, idx);
                continue;
            }
        };
        if took {
            dequeue_at(store, idx);
            let job = &store.jobs[&id];
            let (cell, attempt) = (job.cur_cell(), job.attempt());
            commit(sh, store, WalRecord::Start { job: id, cell, attempt });
            return Some(id);
        }
        idx += 1;
    }
    None
}

/// Why the worker stopped driving a job.
enum StopCause {
    Finished,
    Parked,
    Killed,
}

/// Drive one job until it finishes, parks, or the daemon dies.
/// The worker owns the job's slot for the duration.
fn run_job(sh: &Shared, id: u64, snap_buf: &mut Vec<u8>) {
    match drive(sh, id, snap_buf) {
        StopCause::Finished => sh.store().arbiter.release(id),
        StopCause::Parked => {} // slot already lent under the store lock
        StopCause::Killed => {} // abrupt death: bookkeeping is moot
    }
    sh.cv.notify_all();
}

fn drive(sh: &Shared, id: u64, snap_buf: &mut Vec<u8>) -> StopCause {
    loop {
        // Claim the next cell (or conclude the job) under the lock.
        if sh.kill.load(Ordering::SeqCst) {
            return StopCause::Killed;
        }
        let (cell, attempt, first_step) = {
            let mut store = sh.store();
            let job = &store.jobs[&id];

            if job.cancel_requested {
                commit(sh, &mut store, WalRecord::Cancel { job: id });
                return StopCause::Finished;
            }
            if let Some(deadline) = sh.cfg.job_deadline.filter(|d| job.admitted.elapsed() > *d) {
                let reason = format!(
                    "deadline: job exceeded its {:.3}s budget",
                    deadline.as_secs_f64()
                );
                commit(sh, &mut store, WalRecord::Fail { job: id, reason });
                drop(store);
                dump_flight(sh, id, "deadline kill");
                return StopCause::Finished;
            }
            let Some(cell) = job.cells.get(job.cur_cell()) else {
                commit(sh, &mut store, WalRecord::Done { job: id });
                return StopCause::Finished;
            };
            if job.preempt_requested {
                return park(sh, &mut store, id);
            }
            let first_step = job.resume.as_ref().map_or(0, |r| r.next_step);
            (cell.clone(), job.attempt(), first_step)
        };

        let cell_t0 = Instant::now();
        let fault = sh.cfg.fault.decide(id, cell.index as u64, attempt);
        match drive_segments(sh, id, &cell, attempt, fault, snap_buf) {
            SegmentsOutcome::Stopped(cause) => return cause,
            SegmentsOutcome::Cell(Ok((rec, pop))) => {
                let steps = (cell.scenario.config.steps - first_step) as u64;
                let wall_s = cell_t0.elapsed().as_secs_f64();
                let done = WalRecord::CellDone { job: id, cell: cell.index, rec };
                // The snapshot goes only once the log says the cell is
                // done: until then the last durable `ckpt` record points
                // at it, and a restart resumes from it.
                if commit(sh, &mut sh.store(), done) {
                    let _ = std::fs::remove_file(wal::snap_path(&sh.cfg.data_dir, id, cell.index));
                }
                observe_completion(sh, id, steps, wall_s, &pop);
            }
            SegmentsOutcome::Cell(Err(reason)) => {
                if let Some(cause) = handle_attempt_failure(sh, id, cell.index, reason) {
                    return cause;
                }
            }
        }
    }
}

/// Park a running job on its checkpoint (preemption or drain): log it,
/// lend the slot, requeue. Caller holds the store lock.
fn park(sh: &Shared, store: &mut Store, id: u64) -> StopCause {
    let job = store.jobs.get_mut(&id).expect("running job exists");
    let cell = job.cur_cell();
    let was_preempt = std::mem::take(&mut job.preempt_requested);
    commit(sh, store, WalRecord::Preempt { job: id, cell });
    store.arbiter.lend(id);
    enqueue(store, id);
    if was_preempt {
        cfpd_telemetry::count!("serve.preemptions");
        sh.feed.post("preempted", id, format!("parked at cell {cell}"));
    }
    sh.cv.notify_all();
    StopCause::Parked
}

/// Feed a completed cell's timing — `steps` steps in `wall_s` seconds,
/// `pop` the totals of the segments that ran them — to the regression
/// watchdog and turn any drift it reports into feed warnings.
fn observe_completion(sh: &Shared, id: u64, steps: u64, wall_s: f64, pop: &PopTotals) {
    let warnings = sh
        .watchdog
        .lock()
        .expect("no thread panicked while holding the watchdog")
        .observe_cell(steps, wall_s, &pop.phases);
    for w in warnings {
        cfpd_telemetry::count!("serve.drift_warnings");
        sh.feed.post(
            "phase_drift",
            id,
            format!(
                "phase {} at {:.2}x its rolling median ({:.3e}s vs {:.3e}s per step)",
                w.phase, w.drift, w.per_step_s, w.median_s
            ),
        );
    }
}

/// Dump the flight-recorder ring next to the job's WAL as the
/// post-mortem black box. Honours the simulated-crash discipline: a
/// frozen gate means "the process is already dead", so nothing may be
/// written. Overwrites any earlier dump — last death wins.
fn dump_flight(sh: &Shared, id: u64, cause: &str) {
    if sh.gate.frozen() || !cfpd_flight::enabled() {
        return;
    }
    let path = wal::flight_path(&sh.cfg.data_dir, id);
    if write_atomic(&path, cfpd_flight::dump_text().as_bytes()).is_ok() {
        cfpd_telemetry::count!("serve.flight_dumps");
        sh.feed.post("flight_dump", id, format!("{cause}; dump at {}", path.display()));
    }
}

enum SegmentsOutcome {
    /// The cell concluded (successfully, with the POP totals of the
    /// segments this call ran, or with a failed attempt).
    Cell(Result<(CanonMetrics, PopTotals), String>),
    /// The job parked or the daemon died mid-cell.
    Stopped(StopCause),
}

/// Run a cell as a segment chain on one shared set-up, persisting a
/// snapshot at every boundary and honouring preempt/drain/cancel/kill
/// between segments.
///
/// The cell's progress (`job.resume`) lives in the store, not here: a
/// failed or parked attempt leaves it where the next one finds it, and a
/// boundary borrows the accumulator and the event text out of it only
/// while it extends them.
///
/// Every segment runs on a scoped thread of its own. At a boundary at
/// which no stop is requested the worker starts the next segment from
/// the boundary's in-memory checkpoint first, and then renders, digests
/// and writes the boundary's snapshot and pins it (its `ckpt` record,
/// then its resume point) while that segment runs: the file goes before
/// its record and both before the next boundary, so the WAL and the
/// files read as if the boundary had been synchronous. A boundary at
/// which a stop is requested writes and pins before it stops.
fn drive_segments(
    sh: &Shared,
    id: u64,
    cell: &Cell,
    attempt: u32,
    fault: CellFault, // hits the first segment of the attempt
    snap_buf: &mut Vec<u8>,
) -> SegmentsOutcome {
    let steps = cell.scenario.config.steps;
    let interval = sh.cfg.ckpt_interval.max(1);
    let prepared = match sh.memo.get(&cell.scenario.prepare_key()) {
        Ok(p) => p,
        Err(reason) => return SegmentsOutcome::Cell(Err(reason)),
    };
    let (mut next_step, mut restore) = match &sh.store().jobs[&id].resume {
        Some(r) => (r.next_step, Some(Arc::clone(&r.checkpoint))),
        None => (0, None),
    };
    let mut cell_pop = PopTotals::default();
    match fault {
        CellFault::Crash => {
            return SegmentsOutcome::Cell(Err("injected: seeded worker crash".to_string()))
        }
        CellFault::Stall => std::thread::sleep(Duration::from_millis(sh.cfg.fault.stall_ms)),
        CellFault::None => {}
    }

    std::thread::scope(|scope| {
        // The boundary the worker pins beside the next segment, and when
        // the segment before it returned.
        let mut boundary: Option<(ResumePoint, Instant)> = None;
        loop {
            let until = next_step + interval;
            let stop_after = if until >= steps { None } else { Some(until) };
            let (seg_prepared, scenario) = (Arc::clone(&prepared), cell.scenario.clone());
            let seg_restore = restore.take();
            let segment = scope.spawn(move || {
                run_bounded(
                    move || {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                            run_segment(&seg_prepared, &scenario, seg_restore, stop_after)
                        }))
                    },
                    sh.cfg.cell_timeout,
                )
            });
            if let Some((point, returned)) = boundary.take() {
                observe_boundary(returned);
                let snap_digest = persist(sh, id, cell.index, attempt, &point, snap_buf);
                pin(sh, &mut sh.store(), id, cell.index, point, snap_digest);
            }
            let seg = segment.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            let returned = Instant::now();
            let seg = match seg {
                None => {
                    return SegmentsOutcome::Cell(Err(format!(
                        "timeout: segment exceeded its {:.3}s wall-clock budget \
                         (worker abandoned)",
                        sh.cfg.cell_timeout.expect("timeout fired").as_secs_f64()
                    )))
                }
                Some(Err(payload)) => return SegmentsOutcome::Cell(Err(panic_message(payload))),
                Some(Ok(Err(reason))) => return SegmentsOutcome::Cell(Err(reason)),
                Some(Ok(Ok(seg))) => seg,
            };
            cell_pop.add(&seg.pop);
            sh.job_pop().entry(id).or_default().add(&seg.pop);

            let (mut acc, mut events_text) = {
                let mut store = sh.store();
                match store.jobs.get_mut(&id).and_then(|j| j.resume.as_mut()) {
                    Some(r) => (std::mem::take(&mut r.acc), std::mem::take(&mut r.events_text)),
                    None => (CellAcc::default(), String::new()),
                }
            };
            acc.absorb(&seg.logical);
            events_text.push_str(&seg.events_text);

            if seg.done {
                let rec = finish_cell_metrics(cell, &prepared, &acc, &events_text, &seg.census);
                return SegmentsOutcome::Cell(Ok((rec, cell_pop)));
            }

            let cp = Arc::new(seg.checkpoint.expect("parked segment yields a checkpoint"));
            next_step = cp.next_step;
            restore = Some(Arc::clone(&cp));
            let point = ResumePoint { next_step, checkpoint: cp, acc, events_text };
            if !stop_requested(sh, id) {
                boundary = Some((point, returned));
                continue;
            }

            // A stop is pending: pin the progress, then honour it.
            let snap_digest = persist(sh, id, cell.index, attempt, &point, snap_buf);
            let mut store = sh.store();
            pin(sh, &mut store, id, cell.index, point, snap_digest);
            observe_boundary(returned);
            if sh.kill.load(Ordering::SeqCst) {
                return SegmentsOutcome::Stopped(StopCause::Killed);
            }
            let job = &store.jobs[&id];
            if job.cancel_requested {
                commit(sh, &mut store, WalRecord::Cancel { job: id });
                return SegmentsOutcome::Stopped(StopCause::Finished);
            }
            if job.preempt_requested || sh.drain.load(Ordering::SeqCst) {
                return SegmentsOutcome::Stopped(park(sh, &mut store, id));
            }
        }
    })
}

/// What the cell waited for at a boundary: from the return of the
/// segment before it to the start of the next one, or to its pin when a
/// stop is pending.
fn observe_boundary(returned: Instant) {
    cfpd_telemetry::observe!("serve.boundary_us", returned.elapsed().as_micros() as u64);
}

/// Is a kill, drain, cancellation or preemption pending for job `id`?
fn stop_requested(sh: &Shared, id: u64) -> bool {
    let store = sh.store();
    let job = &store.jobs[&id];
    sh.kill.load(Ordering::SeqCst)
        || sh.drain.load(Ordering::SeqCst)
        || job.cancel_requested
        || job.preempt_requested
}

/// Render, digest and write the snapshot of a boundary's resume point
/// into `buf` and the cell's snapshot file; returns the digest its
/// `ckpt` record pins.
fn persist(
    sh: &Shared,
    id: u64,
    cell: usize,
    attempt: u32,
    point: &ResumePoint,
    buf: &mut Vec<u8>,
) -> u64 {
    let t0 = Instant::now();
    let snap = SnapshotParts {
        job: id,
        cell,
        attempt,
        next_step: point.next_step,
        acc: &point.acc,
        events_text: &point.events_text,
        checkpoint: CheckpointSection::Live(&point.checkpoint),
    };
    let (snap_digest, _) = snap.write(&wal::snap_path(&sh.cfg.data_dir, id, cell), &sh.gate, buf);
    cfpd_telemetry::observe!("serve.snapshot_persist_us", t0.elapsed().as_micros() as u64);
    snap_digest
}

/// Pin a boundary whose snapshot `persist` wrote: its `ckpt` record,
/// which only now may point at the file, then the resume point the
/// store keeps for the cell.
fn pin(sh: &Shared, store: &mut Store, id: u64, cell: usize, point: ResumePoint, snap_digest: u64) {
    commit(sh, store, WalRecord::Ckpt { job: id, cell, step: point.next_step, snap_digest });
    store.jobs.get_mut(&id).expect("running job exists").resume = Some(point);
}

/// Book a failed attempt of cell `cell`: retry with seeded exponential
/// backoff while budget remains, otherwise record the cell as failed
/// and move on. `Some(cause)` ends the worker's ownership of the job.
fn handle_attempt_failure(sh: &Shared, id: u64, cell: usize, reason: String) -> Option<StopCause> {
    let mut store = sh.store();
    let attempt = store.jobs[&id].attempt().saturating_add(1);
    if attempt > sh.cfg.retry_max {
        commit(sh, &mut store, WalRecord::CellFail { job: id, cell, reason });
        drop(store);
        dump_flight(sh, id, "cell failed terminally");
        return None;
    }
    // Exponential backoff with seeded jitter, capped — deterministic
    // for a fixed (seed, job, attempt), so sweeps replay exactly.
    let base = sh.cfg.backoff_base_ms << (attempt - 1).min(16);
    let jitter = SplitMix64::new(sh.cfg.fault.seed ^ id ^ attempt as u64).next_u64()
        % sh.cfg.backoff_base_ms.max(1);
    let backoff_ms = base.min(250) + jitter;
    commit(sh, &mut store, WalRecord::Retry { job: id, cell, attempt, backoff_ms, reason });
    drop(store);
    if sh.kill.load(Ordering::SeqCst) {
        return Some(StopCause::Killed);
    }
    std::thread::sleep(Duration::from_millis(backoff_ms));
    None
}

// ---------------------------------------------------------------------
// HTTP front end

fn accept_loop(listener: TcpListener, sh: &Shared) {
    for conn in listener.incoming() {
        // A stop wakes every acceptor with one connection of its own
        // (`wake_acceptors`): the first one taken after it is dropped unread.
        if acceptors_stop(sh) {
            return;
        }
        // An error is a peer that went away before it was taken.
        let Ok(mut stream) = conn else { continue };
        cfpd_telemetry::count!("serve.http_requests");
        let resp = match http::read_request(&mut stream) {
            Ok(req) => route(sh, &req),
            Err(e) => http::Response::error(400, &e),
        };
        http::write_response(&mut stream, &resp);
    }
}

/// The acceptors block in `accept()` until one of two events ends them:
/// [`Daemon::kill`], or the last worker leaving a drain.
fn acceptors_stop(sh: &Shared) -> bool {
    sh.kill.load(Ordering::SeqCst)
        || (sh.drain.load(Ordering::SeqCst) && sh.workers_alive.load(Ordering::SeqCst) == 0)
}

fn acceptors(cfg: &ServeConfig) -> usize {
    cfg.http_threads.max(1)
}

/// Connect once per acceptor to the daemon's own address, after the
/// flags that [`acceptors_stop`] reads are set: each acceptor takes at
/// most one connection once they are, so every one of them wakes.
fn wake_acceptors(sh: &Shared) {
    for _ in 0..acceptors(&sh.cfg) {
        let _ = TcpStream::connect_timeout(&sh.wake_addr, http::IO_TIMEOUT);
    }
}

fn route(sh: &Shared, req: &http::Request) -> http::Response {
    // `req.path` may carry a query string (`/events?since=3`); segment
    // matching is on the path alone.
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.path.as_str(), ""),
    };
    let segs: Vec<&str> = path.trim_matches('/').split('/').collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => http::Response::text(200, "ok\n"),
        ("GET", ["metrics"]) => http::Response {
            status: 200,
            headers: Vec::new(),
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: cfpd_telemetry::snapshot().render_prometheus(),
        },
        ("POST", ["drain"]) => {
            sh.drain.store(true, Ordering::SeqCst);
            sh.cv.notify_all();
            // With no worker left to leave the drain, this is its end.
            if sh.workers_alive.load(Ordering::SeqCst) == 0 {
                wake_acceptors(sh);
            }
            http::Response::text(200, "draining\n")
        }
        ("POST", ["jobs"]) => submit(sh, &req.body),
        ("GET", ["jobs", id]) => with_job(sh, id, status_json),
        ("GET", ["jobs", id, "result"]) => with_job(sh, id, result_json),
        ("GET", ["jobs", id, "progress"]) => progress(sh, id),
        ("GET", ["events"]) => events(sh, query),
        ("DELETE", ["jobs", id]) => cancel(sh, id),
        _ => http::Response::error(404, "no such endpoint"),
    }
}

/// `GET /events?since=N&wait_ms=M`: long-poll the supervisor feed.
/// Waits bounded well under the HTTP client's 30 s read timeout.
fn events(sh: &Shared, query: &str) -> http::Response {
    let mut since = 0u64;
    let mut wait_ms = 5_000u64;
    for kv in query.split('&') {
        match kv.split_once('=') {
            Some(("since", v)) => since = v.parse().unwrap_or(0),
            Some(("wait_ms", v)) => wait_ms = v.parse().unwrap_or(wait_ms),
            _ => {}
        }
    }
    let (evs, last, first) = sh.feed.since(since, Duration::from_millis(wait_ms.min(10_000)));
    http::Response::json(200, EventFeed::render_json(&evs, last, first))
}

/// `GET /jobs/:id/progress`: in-flight counters, the job's own POP
/// rollup over the segments this daemon ran (the writer `cfpd report`
/// uses; `{}` before the first segment), and an ETA from observed step
/// rates — seeded by the perfmodel demand curve until the first cell
/// completes.
fn progress(sh: &Shared, id: &str) -> http::Response {
    let Ok(id) = id.parse::<u64>() else {
        return http::Response::error(400, "job id is not a number");
    };
    let store = sh.store();
    let Some(job) = store.jobs.get(&id) else {
        return http::Response::error(404, "no such job");
    };

    let steps_total: u64 = job.cells.iter().map(|c| c.scenario.config.steps as u64).sum();
    let remaining = job.remaining_steps() as u64;
    let steps_done = steps_total.saturating_sub(remaining);
    let elapsed_s = job.admitted.elapsed().as_secs_f64();
    let terminal = job.state().is_terminal();
    // Measured rate first (this job's own, then the daemon's rolling
    // median across completed cells), perfmodel prior as cold-start.
    let rate = if steps_done > 0 && elapsed_s > 0.0 {
        elapsed_s / steps_done as f64
    } else {
        sh.watchdog
            .lock()
            .unwrap()
            .step_seconds()
            .unwrap_or_else(|| model_step_seconds(job.cells.first()))
    };
    let eta_s = if terminal { 0.0 } else { remaining as f64 * rate };

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("job").u64(job.id);
    w.key("name").string(&job.name);
    w.key("state").string(job.state().label());
    w.key("cell").u64(job.cur_cell() as u64);
    w.key("cells").u64(job.cells.len() as u64);
    w.key("cells_done").u64(job.cells_finished() as u64);
    w.key("cells_failed").u64(job.cells_failed() as u64);
    w.key("attempt").u64(job.attempt() as u64);
    w.key("retries").u64(job.retries());
    w.key("steps_total").u64(steps_total);
    w.key("steps_done").u64(steps_done);
    w.key("elapsed_s").f64(elapsed_s);
    w.key("eta_s").f64(eta_s);
    w.key("pop");
    match sh.job_pop().get(&id) {
        Some(pop) => pop.write_json(&mut w),
        None => {
            w.begin_object().end_object();
        }
    }
    w.end_object();
    http::Response::json(200, w.finish())
}

/// Cold-start step-rate prior from the perfmodel platform: one step's
/// particle demand retired at MareNostrum4 MPI-only speed across the
/// cell's ranks, plus one collective. Deliberately rough — it only has
/// to be finite and positive until a real cell time replaces it.
fn model_step_seconds(cell: Option<&Cell>) -> f64 {
    let platform = cfpd_perfmodel::Platform::mare_nostrum4();
    let (ranks, particles) = match cell {
        Some(c) => (c.scenario.ranks.max(1), c.scenario.config.num_particles.max(1)),
        None => (1, 1),
    };
    let speed = platform.core_speed() * ranks as f64;
    particles as f64 / speed + platform.comm_latency
}

fn submit(sh: &Shared, body: &str) -> http::Response {
    if sh.drain.load(Ordering::SeqCst) {
        let mut resp = http::Response::error(503, "draining");
        resp.headers.push(("retry-after".to_string(), "5".to_string()));
        return resp;
    }
    let (name, cells) = match parse_spec(body) {
        Ok(parsed) => parsed,
        Err(e) => return http::Response::error(400, &e),
    };

    let mut store = sh.store();
    if store.live_jobs() >= sh.cfg.queue_cap {
        cfpd_telemetry::count!("serve.jobs_shed");
        sh.feed.post("shed", 0, "admission queue full");
        let mut resp = http::Response::error(503, "admission queue full");
        resp.headers.push(("retry-after".to_string(), "1".to_string()));
        return resp;
    }
    let id = store.next_id();
    // Spec file first, then the WAL record pinning its digest: a crash
    // between the two leaves an orphan file, never a dangling record, and
    // a spec the disk refuses admits nothing.
    if sh.gate.admit() {
        if let Err(e) = write_atomic(&wal::spec_path(&sh.cfg.data_dir, id), body.as_bytes()) {
            return http::Response::error(500, &format!("spec file not written: {e}"));
        }
    }
    store.admit(Job::new(id, name.clone(), cells));
    let spec_digest = digest_bytes(body.as_bytes());
    commit(sh, &mut store, WalRecord::Submit { job: id, name, spec_digest });
    enqueue(&mut store, id);
    maybe_preempt(&mut store);
    drop(store);
    sh.cv.notify_all();

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("job").u64(id);
    w.key("state").string("queued");
    w.end_object();
    http::Response::json(201, w.finish())
}

/// Checkpoint-backed preemption policy: when the node is full and a
/// queued job is at most half the size of the largest running job,
/// flag that job to park at its next segment boundary.
fn maybe_preempt(store: &mut Store) {
    if store.arbiter.free() > 0 {
        return;
    }
    let cand = store
        .queue
        .iter()
        .filter_map(|id| store.jobs.get(id))
        .filter(|j| matches!(j.state(), JobState::Queued | JobState::Checkpointed))
        .map(|j| j.remaining_steps())
        .min();
    let victim = store
        .jobs
        .values()
        .filter(|j| *j.state() == JobState::Running && !j.preempt_requested)
        .max_by_key(|j| j.remaining_steps())
        .map(|j| j.id);
    if let (Some(cand_rem), Some(victim_id)) = (cand, victim) {
        let victim_rem = store.jobs[&victim_id].remaining_steps();
        if cand_rem.saturating_mul(2) <= victim_rem {
            store.jobs.get_mut(&victim_id).unwrap().preempt_requested = true;
        }
    }
}

fn with_job(
    sh: &Shared,
    id: &str,
    f: fn(&Job) -> http::Response,
) -> http::Response {
    let Ok(id) = id.parse::<u64>() else {
        return http::Response::error(400, "job id is not a number");
    };
    match sh.store().jobs.get(&id) {
        Some(job) => f(job),
        None => http::Response::error(404, "no such job"),
    }
}

fn status_json(job: &Job) -> http::Response {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("job").u64(job.id);
    w.key("name").string(&job.name);
    w.key("state").string(job.state().label());
    if let JobState::Failed(reason) = job.state() {
        w.key("error").string(reason);
    }
    w.key("cell").u64(job.cur_cell() as u64);
    w.key("cells").u64(job.cells.len() as u64);
    w.key("cells_done").u64(job.cells_finished() as u64);
    w.key("cells_failed").u64(job.cells_failed() as u64);
    w.key("attempt").u64(job.attempt() as u64);
    w.key("retries").u64(job.retries());
    if let Some(step) = job.recovered_resume_step {
        w.key("resumed_step").u64(step as u64);
    }
    w.end_object();
    http::Response::json(200, w.finish())
}

fn result_json(job: &Job) -> http::Response {
    match job.state() {
        JobState::Done => http::Response::json(200, job.report().render_json()),
        JobState::Failed(reason) => {
            http::Response::error(409, &format!("job failed: {reason}"))
        }
        JobState::Cancelled => http::Response::error(409, "job was cancelled"),
        other => http::Response::error(409, &format!("job is {}, not done", other.label())),
    }
}

fn cancel(sh: &Shared, id: &str) -> http::Response {
    let Ok(id) = id.parse::<u64>() else {
        return http::Response::error(400, "job id is not a number");
    };
    let mut store = sh.store();
    let Some(job) = store.jobs.get_mut(&id) else {
        return http::Response::error(404, "no such job");
    };
    let (status, state) = match job.state() {
        state if state.is_terminal() => {
            return http::Response::error(409, "job is already terminal")
        }
        JobState::Running => {
            // The worker owns the slot; it observes the flag at the next
            // segment boundary and cancels there.
            job.cancel_requested = true;
            (202, "cancelling")
        }
        _ => {
            commit(sh, &mut store, WalRecord::Cancel { job: id });
            (200, "cancelled")
        }
    };
    drop(store);
    sh.cv.notify_all();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("job").u64(id);
    w.key("state").string(state);
    w.end_object();
    http::Response::json(status, w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::http_call;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join(format!("cfpd-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    const TINY: &str = "\
[campaign]
name = unit
[scenario]
ranks = 2
generations = 1
particles = 40
steps = 2
";

    fn poll_done(addr: &str, job: u64) -> String {
        for _ in 0..600 {
            let (code, body) =
                http_call(addr, "GET", &format!("/jobs/{job}"), "").unwrap();
            assert_eq!(code, 200, "{body}");
            if body.contains("\"state\":\"done\"") {
                let (code, body) =
                    http_call(addr, "GET", &format!("/jobs/{job}/result"), "").unwrap();
                assert_eq!(code, 200, "{body}");
                return body;
            }
            assert!(
                !body.contains("\"failed\"") && !body.contains("\"cancelled\""),
                "job went terminal the wrong way: {body}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("job {job} never finished");
    }

    #[test]
    fn submit_run_result_round_trip_matches_direct_execution() {
        let dir = tmp_dir("basic");
        let cfg = ServeConfig { data_dir: dir.clone(), ..Default::default() };
        let daemon = Daemon::start(cfg).unwrap();
        let addr = daemon.addr().to_string();

        let (code, body) = http_call(&addr, "GET", "/healthz", "").unwrap();
        assert_eq!((code, body.as_str()), (200, "ok\n"));

        let (code, body) = http_call(&addr, "POST", "/jobs", TINY).unwrap();
        assert_eq!(code, 201, "{body}");
        let result = poll_done(&addr, 1);

        let spec = CampaignSpec::from_text(TINY).unwrap();
        let direct = cfpd_campaign::run_campaign(&spec, Some(1)).render_json();
        assert_eq!(result, direct, "served result must be byte-identical");

        let (code, _) = http_call(&addr, "POST", "/drain", "").unwrap();
        assert_eq!(code, 200);
        daemon.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stop wakes the acceptors blocked in `accept()`: `kill` and a
    /// drain each return with every thread joined, also while an idle
    /// peer holds one acceptor in its read (until `http::IO_TIMEOUT`).
    #[test]
    fn kill_and_drain_wake_the_acceptors_blocked_in_accept() {
        let case = |tag: &str, idle_peer: bool, drain: bool| {
            let dir = tmp_dir(tag);
            let daemon =
                Daemon::start(ServeConfig { data_dir: dir.clone(), ..Default::default() })
                    .unwrap();
            let addr = daemon.addr().to_string();
            let _peer = idle_peer.then(|| TcpStream::connect(&addr).unwrap());
            // Both acceptors reach `accept()`; with the peer, one reads it.
            std::thread::sleep(Duration::from_millis(100));
            if drain {
                let (code, _) = http_call(&addr, "POST", "/drain", "").unwrap();
                assert_eq!(code, 200, "{tag}");
            }
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                if drain {
                    daemon.join();
                } else {
                    daemon.kill();
                }
                let _ = tx.send(());
            });
            let limit = Duration::from_secs(2) + if idle_peer { http::IO_TIMEOUT } else { Duration::ZERO };
            assert!(rx.recv_timeout(limit).is_ok(), "{tag}: daemon threads not joined in {limit:?}");
            let _ = std::fs::remove_dir_all(&dir);
        };
        std::thread::scope(|s| {
            s.spawn(|| case("stop-kill", false, false));
            s.spawn(|| case("stop-drain", false, true));
            s.spawn(|| case("stop-kill-idle", true, false));
            s.spawn(|| case("stop-drain-idle", true, true));
        });
    }

    #[test]
    fn bad_specs_and_unknown_endpoints_are_4xx() {
        let dir = tmp_dir("errs");
        let daemon =
            Daemon::start(ServeConfig { data_dir: dir.clone(), ..Default::default() })
                .unwrap();
        let addr = daemon.addr().to_string();
        let (code, body) = http_call(&addr, "POST", "/jobs", "[campaign]\n").unwrap();
        assert_eq!(code, 400, "{body}");
        let (code, _) = http_call(&addr, "GET", "/jobs/999", "").unwrap();
        assert_eq!(code, 404);
        let (code, _) = http_call(&addr, "GET", "/nope", "").unwrap();
        assert_eq!(code, 404);
        let (code, _) = http_call(&addr, "DELETE", "/jobs/abc", "").unwrap();
        assert_eq!(code, 400);
        daemon.kill();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

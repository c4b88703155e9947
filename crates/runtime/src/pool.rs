//! A resizable worker pool — the OpenMP/OmpSs substitute.
//!
//! The defining requirement (from the paper's DLB integration, §3.2) is
//! that the number of *active* workers can be changed between parallel
//! regions by an external agent, mirroring `omp_set_num_threads()` being
//! called by the DLB library when cores are lent or reclaimed. The pool
//! therefore spawns `max_workers` threads up front (the cores a rank
//! could ever own on its node) and activates a subset per region.
//!
//! Execution model: one *parallel region* at a time (exactly OpenMP's
//! fork-join model). The caller thread is executor 0 and participates;
//! workers `1..active` join. Work distribution inside a region is up to
//! the region body (e.g. [`crate::parallel_for`] uses a shared chunk
//! cursor, giving OpenMP `schedule(dynamic)` behaviour).
//!
//! Hand-off: a Krylov solve opens a region every few microseconds, so a
//! condvar wake per region (tens of microseconds) would cost more than
//! the sweep it forks. A worker that holds a core (`id < active`)
//! therefore spins on the region word for at most [`SPIN_LIMIT`]
//! iterations before it parks on the condvar, and the caller spins the
//! same bound on the finished count before it parks. A worker whose
//! core was taken away (`set_active` below its id — a LeWI reclaim)
//! stops spinning at its next iteration and parks: a core that was
//! reclaimed is never burnt. Who takes part in a region is fixed by the
//! participant count the caller publishes with it, never by `active`,
//! which may change at any time.
//!
//! Panics: each executor runs its share of a region under
//! `catch_unwind`, and a share counts as finished whether it returned or
//! panicked. The caller waits for every participant to leave the body,
//! whatever its own share did, and then resumes the first panic on its
//! own thread; the workers live on for the next region.

use cfpd_testkit::sync::{Condvar, Mutex};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Spin iterations (one `spin_loop` hint and one atomic load each,
/// 10–15 ns on the bench host, so about 0.1 ms) before a waiting
/// worker or caller parks. Longer than any serial stretch between two
/// regions of one solve, shorter than a phase. A constant, not a
/// setting.
const SPIN_LIMIT: u32 = 1 << 13;

/// Bits of the region word that hold the participant count; the
/// generation lives above them.
const PARTICIPANT_BITS: u32 = 16;

/// Type-erased pointer to the region body (`&dyn Fn(usize, usize)`
/// transmuted to `'static`; validity is guaranteed because
/// `run_region_with` does not return until every participant has left
/// the body).
struct RegionPtr(*const (dyn Fn(usize, usize) + Sync));

struct PoolState {
    /// `parked[id]`: worker `id` waits on `work_cv` (`parked[0]`: the
    /// caller waits on `done_cv`). Lets the other side skip the notify
    /// syscall when nobody sleeps.
    parked: Vec<bool>,
}

/// Worker-side trace recording (the per-thread Useful intervals that
/// feed the per-(rank, worker) timeline).
struct WorkerTrace {
    epoch: Instant,
    /// `(worker_id, t_start, t_end)` of each region execution.
    log: Vec<(usize, f64, f64)>,
}

struct Shared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// `generation << PARTICIPANT_BITS | participants` of the current
    /// region, in one word so a worker reads a consistent pair. The
    /// caller's `Release` store publishes `region` and the reset of
    /// `finished`; workers load it with `Acquire`.
    word: AtomicU64,
    /// The current region's body, on the caller's stack; null between
    /// regions. Only participants of the published region dereference
    /// it, and the caller waits for all of them.
    region: AtomicPtr<RegionPtr>,
    /// Participating workers that have left the current region's body,
    /// by returning or by panicking (`AcqRel` increments pair with the
    /// caller's `Acquire` loads, so what the workers wrote is visible
    /// once the count is complete).
    finished: AtomicUsize,
    /// The first panic payload of the current region, resumed on the
    /// caller once every participant has left the body.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Number of executors (caller + workers) activated for the *next*
    /// region. Changed by `set_active` — the `omp_set_num_threads`
    /// equivalent that DLB drives.
    active: AtomicUsize,
    shutdown: AtomicBool,
    /// Spin iterations made by workers waiting for a region (a
    /// statistic; the hand-off tests read it).
    worker_spins: AtomicU64,
    /// Fast gate for the tracing branch in `worker_loop` (the mutexed
    /// trace is only touched when set).
    trace_on: AtomicBool,
    trace: Mutex<Option<WorkerTrace>>,
}

/// Fork-join worker pool with a dynamically adjustable executor count.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    max_workers: usize,
}

impl ThreadPool {
    /// Create a pool able to use up to `max_workers` executors
    /// (including the caller thread). `max_workers - 1` threads are
    /// spawned; initially all are active.
    pub fn new(max_workers: usize) -> ThreadPool {
        assert!((1..1 << PARTICIPANT_BITS).contains(&max_workers));
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState { parked: vec![false; max_workers] }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            word: AtomicU64::new(0),
            region: AtomicPtr::new(std::ptr::null_mut()),
            finished: AtomicUsize::new(0),
            panic: Mutex::new(None),
            active: AtomicUsize::new(max_workers),
            shutdown: AtomicBool::new(false),
            worker_spins: AtomicU64::new(0),
            trace_on: AtomicBool::new(false),
            trace: Mutex::new(None),
        });
        let mut handles = Vec::with_capacity(max_workers.saturating_sub(1));
        for id in 1..max_workers {
            let sh = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("pool-worker-{id}"))
                    .spawn(move || worker_loop(sh, id))
                    .expect("spawn pool worker"),
            );
        }
        ThreadPool { shared, handles, max_workers }
    }

    /// Maximum executors this pool can ever use.
    #[inline]
    pub fn max_workers(&self) -> usize {
        self.max_workers
    }

    /// Executors that will participate in the next region.
    #[inline]
    pub fn active(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Set the executor count for subsequent regions (clamped to
    /// `1..=max_workers`). Safe to call from any thread at any time —
    /// this is the entry point DLB uses to lend/reclaim cores.
    pub fn set_active(&self, n: usize) {
        let n = n.clamp(1, self.max_workers);
        self.shared.active.store(n, Ordering::Relaxed);
    }

    /// Start recording per-worker region intervals, timestamped in
    /// seconds since `epoch` (share the simulation's run epoch so
    /// worker events line up with phase and message records). Clears
    /// any previous log.
    pub fn worker_trace_start(&self, epoch: Instant) {
        *self.shared.trace.lock() = Some(WorkerTrace { epoch, log: Vec::new() });
        self.shared.trace_on.store(true, Ordering::Release);
    }

    /// Stop recording and return the accumulated `(worker, t_start,
    /// t_end)` intervals, sorted by (worker, t_start). Worker 0 (the
    /// caller thread) is not recorded here — its timeline is carved
    /// from the phase/wait records instead.
    pub fn worker_trace_drain(&self) -> Vec<(usize, f64, f64)> {
        self.shared.trace_on.store(false, Ordering::Release);
        let mut log = match self.shared.trace.lock().take() {
            Some(t) => t.log,
            None => Vec::new(),
        };
        log.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        log
    }

    /// Execute one parallel region: `body(executor_id)` runs once on
    /// each of the `active()` executors (caller = id 0). Returns when
    /// all executors have left the body; if one of them panicked, the
    /// first panic is resumed here then.
    pub fn run_region<F>(&self, body: F)
    where
        F: Fn(usize) + Sync,
    {
        self.run_region_with(|id, _executors| body(id));
    }

    /// [`ThreadPool::run_region`] whose body is also told how many
    /// executors take part in *this* region — the count a static split
    /// must use, since `active()` may change between a read of it and
    /// the fork.
    pub fn run_region_with<F>(&self, body: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        cfpd_telemetry::count!("runtime.regions");
        let _span = cfpd_telemetry::span!("runtime.region_ns");
        let participants = self.active();
        if participants <= 1 {
            body(0, 1);
            return;
        }
        let sh = &*self.shared;
        // SAFETY: we erase the lifetime; workers only dereference while
        // the region is live, and we wait below until `finished ==
        // participants - 1` (our own share cannot unwind past the wait:
        // `run_share` catches it), so the borrow outlives all accesses.
        let ptr = RegionPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize, usize) + Sync + '_),
                *const (dyn Fn(usize, usize) + Sync + 'static),
            >(&body as &(dyn Fn(usize, usize) + Sync) as *const _)
        });
        let prev = sh.region.swap(&ptr as *const RegionPtr as *mut RegionPtr, Ordering::Relaxed);
        debug_assert!(prev.is_null(), "nested regions not supported");
        sh.finished.store(0, Ordering::Relaxed);
        let generation = (sh.word.load(Ordering::Relaxed) >> PARTICIPANT_BITS) + 1;
        sh.word.store(generation << PARTICIPANT_BITS | participants as u64, Ordering::Release);
        // A participant that parked (its first region after a grant, or
        // a gap longer than the spin bound) checks the word under this
        // lock before it sleeps, so it either saw the store above or is
        // marked parked here.
        if sh.state.lock().parked[1..participants].contains(&true) {
            sh.work_cv.notify_all();
        }
        run_share(sh, || body(0, participants));
        let pending = || sh.finished.load(Ordering::Acquire) < participants - 1;
        let mut spins = 0u32;
        while pending() && spins < SPIN_LIMIT {
            spins += 1;
            std::hint::spin_loop();
        }
        if pending() {
            let mut st = sh.state.lock();
            st.parked[0] = true;
            while pending() {
                sh.done_cv.wait(&mut st);
            }
            st.parked[0] = false;
        }
        sh.region.store(std::ptr::null_mut(), Ordering::Relaxed);
        if let Some(payload) = sh.panic.lock().take() {
            resume_unwind(payload);
        }
    }
}

/// Run one executor's share of a region; a panic is kept (the region's
/// first) instead of unwinding out of the executor.
fn run_share(shared: &Shared, share: impl FnOnce()) {
    if let Err(payload) = catch_unwind(AssertUnwindSafe(share)) {
        shared.panic.lock().get_or_insert(payload);
    }
}

/// Wait for a region newer than `last_generation`: spin while this
/// worker holds a core, then park. `None` on shutdown.
fn next_region(shared: &Shared, id: usize, last_generation: u64) -> Option<u64> {
    let is_new = |word: u64| word >> PARTICIPANT_BITS != last_generation;
    let waiting = || {
        !is_new(shared.word.load(Ordering::Acquire)) && !shared.shutdown.load(Ordering::Acquire)
    };
    let mut spins = 0u32;
    while waiting() && spins < SPIN_LIMIT && id < shared.active.load(Ordering::Relaxed) {
        spins += 1;
        std::hint::spin_loop();
    }
    shared.worker_spins.fetch_add(spins as u64, Ordering::Relaxed);
    if waiting() {
        let mut st = shared.state.lock();
        st.parked[id] = true;
        while waiting() {
            shared.work_cv.wait(&mut st);
        }
        st.parked[id] = false;
    }
    let word = shared.word.load(Ordering::Acquire);
    is_new(word).then_some(word)
}

fn worker_loop(shared: Arc<Shared>, id: usize) {
    let mut last_generation = 0u64;
    while let Some(word) = next_region(&shared, id, last_generation) {
        last_generation = word >> PARTICIPANT_BITS;
        let participants = (word & ((1 << PARTICIPANT_BITS) - 1)) as usize;
        if id >= participants {
            continue;
        }
        // SAFETY: this worker takes part in the published region, so the
        // caller keeps `region` and the body it points to alive until we
        // report completion below (see `run_region_with`).
        let body: &(dyn Fn(usize, usize) + Sync) =
            unsafe { &*(*shared.region.load(Ordering::Relaxed)).0 };
        let tracing = shared.trace_on.load(Ordering::Acquire);
        let t0 = if tracing {
            shared.trace.lock().as_ref().map(|t| t.epoch.elapsed().as_secs_f64())
        } else {
            None
        };
        run_share(&shared, || body(id, participants));
        if let Some(t0) = t0 {
            let mut tr = shared.trace.lock();
            if let Some(t) = tr.as_mut() {
                let t1 = t.epoch.elapsed().as_secs_f64();
                t.log.push((id, t0, t1));
            }
        }
        if shared.finished.fetch_add(1, Ordering::AcqRel) + 2 == participants {
            // Last one out. The caller re-reads `finished` under this
            // lock before it sleeps, so it either sees the count
            // complete or is marked parked here.
            if shared.state.lock().parked[0] {
                shared.done_cv.notify_all();
            }
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.state.lock();
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn region_runs_on_all_active_executors() {
        let pool = ThreadPool::new(4);
        let count = AtomicUsize::new(0);
        pool.run_region(|_id| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn executor_ids_are_distinct_and_in_range() {
        let pool = ThreadPool::new(4);
        let seen = Mutex::new(Vec::new());
        pool.run_region(|id| {
            seen.lock().push(id);
        });
        let mut ids = seen.into_inner();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn set_active_changes_participation() {
        let pool = ThreadPool::new(4);
        pool.set_active(2);
        let count = AtomicUsize::new(0);
        pool.run_region(|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 2);
        // Grow back (a DLB "lend" to this pool).
        pool.set_active(4);
        let count = AtomicUsize::new(0);
        pool.run_region(|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn set_active_clamps() {
        let pool = ThreadPool::new(3);
        pool.set_active(0);
        assert_eq!(pool.active(), 1);
        pool.set_active(100);
        assert_eq!(pool.active(), 3);
    }

    #[test]
    fn single_executor_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let mut x = 0;
        // Mutable capture works because with one executor the body runs
        // inline exactly once; prove it via a Mutex anyway.
        let cell = Mutex::new(&mut x);
        pool.run_region(|id| {
            assert_eq!(id, 0);
            **cell.lock() += 1;
        });
        assert_eq!(x, 1);
    }

    #[test]
    fn sequential_regions_reuse_workers() {
        let pool = ThreadPool::new(4);
        for _ in 0..50 {
            let count = AtomicUsize::new(0);
            pool.run_region(|_| {
                count.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(count.load(Ordering::SeqCst), 4);
        }
    }

    #[test]
    fn borrowed_data_visible_after_region() {
        let pool = ThreadPool::new(4);
        let data: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.run_region(|id| {
            data[id].store(id + 1, Ordering::SeqCst);
        });
        let vals: Vec<usize> = data.iter().map(|a| a.load(Ordering::SeqCst)).collect();
        assert_eq!(vals, vec![1, 2, 3, 4]);
    }

    /// Yield until `done()`; a test that would hang fails instead.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let t0 = Instant::now();
        while !done() {
            assert!(t0.elapsed().as_secs() < 30, "timed out waiting until {what}");
            std::thread::yield_now();
        }
    }

    fn parked(pool: &ThreadPool, id: usize) -> bool {
        pool.shared.state.lock().parked[id]
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        // Seven workers spinning for the next region.
        let pool = ThreadPool::new(8);
        pool.run_region(|_| {});
        drop(pool); // must not hang
        // Seven workers parked.
        let pool = ThreadPool::new(8);
        pool.set_active(1);
        wait_until("all workers park", || (1..8).all(|id| parked(&pool, id)));
        drop(pool);
    }

    /// A LeWI reclaim (`set_active` below the worker's id) while the
    /// worker spins for its next region: it parks within the spin bound
    /// and makes no spin iteration afterwards; a later grant gets it
    /// back through the condvar.
    #[test]
    fn a_revoked_worker_parks_and_stops_spinning() {
        let pool = ThreadPool::new(2);
        pool.run_region(|_| {}); // worker 1 holds a core: it spins now
        let before = pool.shared.worker_spins.load(Ordering::Relaxed);
        pool.set_active(1);
        wait_until("the revoked worker parks", || parked(&pool, 1));
        let spun = pool.shared.worker_spins.load(Ordering::Relaxed);
        assert!(spun - before <= SPIN_LIMIT as u64, "{} spins past the bound", spun - before);
        // Parked means parked: regions run inline, nothing wakes it.
        for _ in 0..100 {
            pool.run_region(|id| assert_eq!(id, 0));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(parked(&pool, 1));
        assert_eq!(pool.shared.worker_spins.load(Ordering::Relaxed), spun, "a parked worker spun");
        // Granted again: the next region wakes it and it takes part.
        pool.set_active(2);
        let count = AtomicUsize::new(0);
        pool.run_region(|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    /// Who takes part is what the caller published, not what `active`
    /// reads later: every region tells each of its executors the same
    /// count, ids cover it exactly, under a thread that keeps flipping
    /// `active`.
    #[test]
    fn a_region_reports_its_own_executor_count() {
        let pool = Arc::new(ThreadPool::new(4));
        let stop = Arc::new(AtomicBool::new(false));
        let flipper = {
            let (pool, stop) = (Arc::clone(&pool), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    pool.set_active(1);
                    pool.set_active(4);
                }
            })
        };
        for _ in 0..500 {
            let seen = Mutex::new(Vec::new());
            pool.run_region_with(|id, executors| seen.lock().push((id, executors)));
            let mut seen = seen.into_inner();
            seen.sort_unstable();
            let executors = seen[0].1;
            let want: Vec<(usize, usize)> = (0..executors).map(|id| (id, executors)).collect();
            assert_eq!(seen, want);
        }
        stop.store(true, Ordering::Relaxed);
        flipper.join().unwrap();
    }

    /// `test` on a thread of its own, failed after 30 s instead of hung.
    fn within_watchdog(test: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(test));
            let _ = tx.send(outcome);
        });
        match rx.recv_timeout(std::time::Duration::from_secs(30)) {
            Ok(Ok(())) => {}
            Ok(Err(payload)) => resume_unwind(payload),
            Err(_) => panic!("the test hung for 30 s"),
        }
    }

    /// A region on `pool` whose body is `body`, and the message it
    /// panicked with.
    fn panic_of(pool: &ThreadPool, body: impl Fn(usize) + Sync) -> String {
        let payload = catch_unwind(AssertUnwindSafe(|| pool.run_region(body)))
            .expect_err("the region did not panic");
        payload.downcast_ref::<&str>().expect("a literal panic message").to_string()
    }

    /// The region after a panic runs on every executor again.
    fn assert_all_take_part(pool: &ThreadPool) {
        let count = AtomicUsize::new(0);
        pool.run_region(|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), pool.max_workers());
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        within_watchdog(|| {
            let pool = ThreadPool::new(2);
            assert_eq!(panic_of(&pool, |id| assert!(id != 1, "worker share")), "worker share");
            assert_all_take_part(&pool);
        });
    }

    /// The caller's own panic waits for the worker to leave the body
    /// (which borrows the caller's stack) before it unwinds.
    #[test]
    fn a_caller_panic_waits_for_the_workers() {
        within_watchdog(|| {
            let pool = ThreadPool::new(2);
            let (worker_in, worker_left) = (AtomicBool::new(false), AtomicBool::new(false));
            let message = panic_of(&pool, |id| {
                if id == 0 {
                    // Panic while the worker is inside the body.
                    wait_until("the worker enters", || worker_in.load(Ordering::SeqCst));
                    panic!("caller share");
                }
                worker_in.store(true, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(50));
                worker_left.store(true, Ordering::SeqCst);
            });
            assert_eq!(message, "caller share");
            assert!(worker_left.load(Ordering::SeqCst), "unwound before the worker left");
            assert!(pool.shared.region.load(Ordering::Relaxed).is_null());
            assert_all_take_part(&pool);
        });
    }

    #[test]
    fn worker_trace_records_regions_for_workers_only() {
        let pool = ThreadPool::new(4);
        let epoch = Instant::now();
        pool.worker_trace_start(epoch);
        pool.run_region(|_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        pool.run_region(|_| {});
        let log = pool.worker_trace_drain();
        // Workers 1..3 ran two regions each; worker 0 is not recorded.
        assert_eq!(log.len(), 6, "log: {log:?}");
        assert!(log.iter().all(|&(w, a, b)| (1..4).contains(&w) && b >= a && a >= 0.0));
        // Sorted by (worker, t_start).
        for w in log.windows(2) {
            assert!((w[0].0, w[0].1) <= (w[1].0, w[1].1));
        }
        // Drained and off: further regions record nothing.
        pool.run_region(|_| {});
        assert!(pool.worker_trace_drain().is_empty());
    }

    #[test]
    fn worker_trace_off_by_default() {
        let pool = ThreadPool::new(3);
        pool.run_region(|_| {});
        assert!(pool.worker_trace_drain().is_empty());
    }
}

//! Task graph with OpenMP 5.0-style dependences, including
//! **multidependences**: runtime-computed dependence lists ("iterators
//! over dependences") and the `mutexinoutset` relationship the paper
//! evaluates (§3.1). `mutexinoutset` expresses *incompatibility*: two
//! tasks sharing such an object may run in either order but never
//! concurrently — exactly what adjacent mesh subdomains need during
//! matrix assembly.
//!
//! Semantics implemented (matching the OpenMP 5.0 rules):
//! * `In` after a writer group depends on the whole group;
//! * `Out`/`InOut` depend on intervening readers (WAR) or the previous
//!   writer group (WAW);
//! * consecutive `MutexInOutSet` accesses to an object form one
//!   *commutative group*: ordered against surrounding reads/writes, but
//!   unordered among themselves with runtime mutual exclusion.

use crate::pool::ThreadPool;
use cfpd_testkit::sync::Mutex;
use std::cell::UnsafeCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Dependence kind on an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    In,
    Out,
    InOut,
    MutexInOutSet,
}

/// One dependence of a task: `kind` access on object `obj`. Objects are
/// plain integers — the caller maps matrix blocks / subdomains / edges
/// to object ids (this is what the OpenMP dependence *iterators* compute
/// at runtime).
#[derive(Debug, Clone, Copy)]
pub struct Dep {
    pub obj: usize,
    pub kind: DepKind,
}

impl Dep {
    pub fn read(obj: usize) -> Dep {
        Dep { obj, kind: DepKind::In }
    }
    pub fn write(obj: usize) -> Dep {
        Dep { obj, kind: DepKind::Out }
    }
    pub fn readwrite(obj: usize) -> Dep {
        Dep { obj, kind: DepKind::InOut }
    }
    pub fn mutex(obj: usize) -> Dep {
        Dep { obj, kind: DepKind::MutexInOutSet }
    }
}

/// Identifier of a task within one graph.
pub type TaskId = usize;

type TaskFn<'scope> = Box<dyn FnOnce() + Send + 'scope>;

struct FuncSlot<'scope>(UnsafeCell<Option<TaskFn<'scope>>>);
// SAFETY: each slot is taken exactly once, by the single worker that
// popped its task id from the ready queue.
unsafe impl Sync for FuncSlot<'_> {}

#[derive(Default)]
struct ObjTracker {
    /// Readers since the last writer group.
    readers: Vec<TaskId>,
    /// Most recent writer group (single Out/InOut, or a mutexinoutset
    /// commutative group).
    writer_group: Vec<TaskId>,
    writer_is_mutex: bool,
    /// Predecessors the current mutex group was given (so late joiners
    /// of the same group depend on them too).
    group_preds: Vec<TaskId>,
}

/// Execution statistics (fed to the performance model's overhead
/// calibration and useful in tests).
#[derive(Debug, Default, Clone)]
pub struct ExecStats {
    pub tasks_run: usize,
    /// Times a worker had to requeue a task because a mutexinoutset
    /// object was held by a concurrent incompatible task.
    pub mutex_retries: usize,
    /// Maximum number of tasks that were ever ready simultaneously — a
    /// lower bound on achievable parallelism.
    pub max_ready: usize,
}

/// A dependence task graph; build with [`TaskGraph::add_task`], run with
/// [`TaskGraph::execute`].
pub struct TaskGraph<'scope> {
    funcs: Vec<FuncSlot<'scope>>,
    preds: Vec<Vec<TaskId>>,
    mutex_objs: Vec<Vec<usize>>,
    trackers: HashMap<usize, ObjTracker>,
}

impl<'scope> TaskGraph<'scope> {
    pub fn new() -> Self {
        TaskGraph {
            funcs: Vec::new(),
            preds: Vec::new(),
            mutex_objs: Vec::new(),
            trackers: HashMap::new(),
        }
    }

    /// Add a task with the given dependence list (computed at runtime —
    /// the "iterator over dependences" of OpenMP 5.0). Tasks are ordered
    /// by insertion ("program order") for the In/Out/InOut rules.
    pub fn add_task<F>(&mut self, deps: &[Dep], f: F) -> TaskId
    where
        F: FnOnce() + Send + 'scope,
    {
        let id = self.funcs.len();
        let mut my_preds: Vec<TaskId> = Vec::new();
        let mut my_mutex: Vec<usize> = Vec::new();

        for d in deps {
            let tr = self.trackers.entry(d.obj).or_default();
            match d.kind {
                DepKind::In => {
                    my_preds.extend_from_slice(&tr.writer_group);
                    tr.readers.push(id);
                }
                DepKind::Out | DepKind::InOut => {
                    if tr.readers.is_empty() {
                        my_preds.extend_from_slice(&tr.writer_group);
                    } else {
                        my_preds.extend_from_slice(&tr.readers);
                    }
                    tr.readers.clear();
                    tr.writer_group = vec![id];
                    tr.writer_is_mutex = false;
                    tr.group_preds.clear();
                }
                DepKind::MutexInOutSet => {
                    if tr.writer_is_mutex && tr.readers.is_empty() {
                        // Join the open commutative group.
                        my_preds.extend_from_slice(&tr.group_preds);
                        tr.writer_group.push(id);
                    } else {
                        let preds: Vec<TaskId> = if tr.readers.is_empty() {
                            tr.writer_group.clone()
                        } else {
                            tr.readers.clone()
                        };
                        my_preds.extend_from_slice(&preds);
                        tr.readers.clear();
                        tr.writer_group = vec![id];
                        tr.writer_is_mutex = true;
                        tr.group_preds = preds;
                    }
                    my_mutex.push(d.obj);
                }
            }
        }
        my_preds.sort_unstable();
        my_preds.dedup();
        // A dependence list may touch the same object several times
        // (e.g. `inout(o)` registering this task as o's writer group and
        // a later `in(o)` in the same list then reading that group).
        // OpenMP merges same-object deps per task; a task never depends
        // on itself — without this filter the self-edge would leave the
        // in-count permanently nonzero and hang the graph.
        my_preds.retain(|&p| p != id);
        my_mutex.sort_unstable();
        my_mutex.dedup();

        self.funcs.push(FuncSlot(UnsafeCell::new(Some(Box::new(f)))));
        self.preds.push(my_preds);
        self.mutex_objs.push(my_mutex);
        id
    }

    /// Execute all tasks on the pool, respecting dependences and
    /// mutexinoutset exclusion. Consumes the graph.
    pub fn execute(self, pool: &ThreadPool) -> ExecStats {
        let n = self.funcs.len();
        if n == 0 {
            return ExecStats::default();
        }
        // Invert predecessor lists into successor lists + in-counts.
        let mut successors: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut in_counts: Vec<AtomicUsize> = Vec::with_capacity(n);
        for (t, preds) in self.preds.iter().enumerate() {
            for &p in preds {
                debug_assert!(p < t, "edges must point forward in program order");
                successors[p].push(t as u32);
            }
            in_counts.push(AtomicUsize::new(preds.len()));
        }
        let num_objs = self
            .mutex_objs
            .iter()
            .flat_map(|v| v.iter())
            .copied()
            .max()
            .map_or(0, |m| m + 1);
        let locks: Vec<AtomicBool> = (0..num_objs).map(|_| AtomicBool::new(false)).collect();

        let ready: Mutex<VecDeque<u32>> = Mutex::new(
            (0..n)
                .filter(|&t| in_counts[t].load(Ordering::Relaxed) == 0)
                .map(|t| t as u32)
                .collect(),
        );
        let completed = AtomicUsize::new(0);
        let retries = AtomicUsize::new(0);
        let max_ready = AtomicUsize::new(ready.lock().len());
        let funcs = &self.funcs;
        let mutex_objs = &self.mutex_objs;

        pool.run_region(|_tid| loop {
            let task = ready.lock().pop_front();
            let t = match task {
                Some(t) => t as usize,
                None => {
                    if completed.load(Ordering::Acquire) == n {
                        break;
                    }
                    std::thread::yield_now();
                    continue;
                }
            };
            // Acquire mutexinoutset objects in ascending order; on any
            // failure release what we got and requeue the task.
            let objs = &mutex_objs[t];
            let mut acquired = 0usize;
            let ok = objs.iter().all(|&o| {
                if locks[o]
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    acquired += 1;
                    true
                } else {
                    false
                }
            });
            if !ok {
                for &o in &objs[..acquired] {
                    locks[o].store(false, Ordering::Release);
                }
                retries.fetch_add(1, Ordering::Relaxed);
                ready.lock().push_back(t as u32);
                std::thread::yield_now();
                continue;
            }
            // SAFETY: `t` was popped exactly once; we are the only
            // accessor of this slot.
            let f = unsafe { (*funcs[t].0.get()).take().expect("task claimed twice") };
            f();
            for &o in objs.iter() {
                locks[o].store(false, Ordering::Release);
            }
            // Release successors.
            let mut newly = Vec::new();
            for &s in &successors[t] {
                if in_counts[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                    newly.push(s);
                }
            }
            if !newly.is_empty() {
                let mut q = ready.lock();
                q.extend(newly);
                max_ready.fetch_max(q.len(), Ordering::Relaxed);
            }
            completed.fetch_add(1, Ordering::AcqRel);
        });

        debug_assert_eq!(completed.load(Ordering::SeqCst), n);
        ExecStats {
            tasks_run: n,
            mutex_retries: retries.load(Ordering::SeqCst),
            max_ready: max_ready.load(Ordering::SeqCst),
        }
    }
}

impl Default for TaskGraph<'_> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn out_then_in_ordering() {
        let pool = ThreadPool::new(4);
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut g = TaskGraph::new();
        for i in 0..1 {
            let l = Arc::clone(&log);
            g.add_task(&[Dep::write(0)], move || l.lock().push(("w", i)));
        }
        for i in 0..3 {
            let l = Arc::clone(&log);
            g.add_task(&[Dep::read(0)], move || l.lock().push(("r", i)));
        }
        let l = Arc::clone(&log);
        g.add_task(&[Dep::write(0)], move || l.lock().push(("w2", 0)));
        g.execute(&pool);
        let log = log.lock();
        assert_eq!(log.len(), 5);
        assert_eq!(log[0], ("w", 0), "writer first");
        assert_eq!(log[4], ("w2", 0), "second writer after all readers");
    }

    #[test]
    fn independent_objects_run_unordered() {
        // No ordering constraints: all tasks complete.
        let pool = ThreadPool::new(4);
        let count = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        for i in 0..100 {
            let c = Arc::clone(&count);
            g.add_task(&[Dep::write(i)], move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        let stats = g.execute(&pool);
        assert_eq!(count.load(Ordering::SeqCst), 100);
        assert_eq!(stats.tasks_run, 100);
        assert!(stats.max_ready >= 100, "all were ready at once");
    }

    #[test]
    fn mutexinoutset_excludes_but_does_not_order() {
        // Tasks sharing a mutex object must never overlap; track overlap
        // with an "inside" counter.
        let pool = ThreadPool::new(4);
        let inside = Arc::new(AtomicUsize::new(0));
        let max_inside = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        for _ in 0..50 {
            let ins = Arc::clone(&inside);
            let mx = Arc::clone(&max_inside);
            g.add_task(&[Dep::mutex(7)], move || {
                let now = ins.fetch_add(1, Ordering::SeqCst) + 1;
                mx.fetch_max(now, Ordering::SeqCst);
                std::thread::yield_now();
                ins.fetch_sub(1, Ordering::SeqCst);
            });
        }
        g.execute(&pool);
        assert_eq!(max_inside.load(Ordering::SeqCst), 1, "mutex tasks overlapped");
    }

    #[test]
    fn mutex_groups_with_disjoint_objects_run_in_parallel_eventually() {
        // Tasks on different mutex objects are unrelated; just verify
        // they all complete and that there is real available parallelism.
        let pool = ThreadPool::new(4);
        let count = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        for i in 0..40 {
            let c = Arc::clone(&count);
            g.add_task(&[Dep::mutex(i % 8)], move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        let stats = g.execute(&pool);
        assert_eq!(count.load(Ordering::SeqCst), 40);
        assert!(stats.max_ready >= 8);
    }

    #[test]
    fn multidependences_adjacency_pattern() {
        // The paper's pattern: one task per subdomain, mutexinoutset on
        // one object per adjacency edge. Adjacent tasks never overlap;
        // they all write to a shared array region guarded by that
        // exclusion — absence of lost updates proves the exclusion.
        let pool = ThreadPool::new(4);
        let n_sub = 16;
        // Ring adjacency: subdomain i adjacent to i-1, i+1. Edge object
        // id for (i, i+1) is i.
        let shared: Arc<Vec<AtomicUsize>> =
            Arc::new((0..n_sub).map(|_| AtomicUsize::new(0)).collect());
        let mut g = TaskGraph::new();
        for rep in 0..8 {
            let _ = rep;
            for i in 0..n_sub {
                let left_edge = (i + n_sub - 1) % n_sub;
                let right_edge = i;
                let sh = Arc::clone(&shared);
                g.add_task(
                    &[Dep::mutex(left_edge), Dep::mutex(right_edge)],
                    move || {
                        // Non-atomic read-modify-write on own + right
                        // neighbor slot, safe only under exclusion.
                        let a = sh[i].load(Ordering::Relaxed);
                        let b = sh[(i + 1) % n_sub].load(Ordering::Relaxed);
                        std::thread::yield_now();
                        sh[i].store(a + 1, Ordering::Relaxed);
                        sh[(i + 1) % n_sub].store(b + 1, Ordering::Relaxed);
                    },
                );
            }
        }
        g.execute(&pool);
        // Each slot written by its own task and its left neighbor's task,
        // 8 reps each => 16 increments per slot, none lost.
        for s in shared.iter() {
            assert_eq!(s.load(Ordering::SeqCst), 16);
        }
    }

    #[test]
    fn in_after_mutex_group_waits_for_whole_group() {
        let pool = ThreadPool::new(4);
        let done = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        for _ in 0..10 {
            let d = Arc::clone(&done);
            g.add_task(&[Dep::mutex(0)], move || {
                d.fetch_add(1, Ordering::SeqCst);
            });
        }
        let d = Arc::clone(&done);
        let observed = Arc::new(AtomicUsize::new(0));
        let obs = Arc::clone(&observed);
        g.add_task(&[Dep::read(0)], move || {
            obs.store(d.load(Ordering::SeqCst), Ordering::SeqCst);
        });
        g.execute(&pool);
        assert_eq!(observed.load(Ordering::SeqCst), 10, "reader ran before group finished");
    }

    /// Regression: a dependence list touching the same object twice
    /// (here inout + in on one object) must not create a self-edge —
    /// that would leave the task permanently unready and hang execution.
    #[test]
    fn same_object_twice_in_one_task_does_not_self_deadlock() {
        let pool = ThreadPool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        for combo in [
            vec![Dep::readwrite(0), Dep::read(0)],
            vec![Dep::write(1), Dep::mutex(1)],
            vec![Dep::mutex(2), Dep::readwrite(2)],
            vec![Dep::read(3), Dep::write(3), Dep::read(3)],
        ] {
            let r = Arc::clone(&ran);
            g.add_task(&combo, move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
        }
        let stats = g.execute(&pool);
        assert_eq!(ran.load(Ordering::SeqCst), 4);
        assert_eq!(stats.tasks_run, 4);
    }

    #[test]
    fn empty_graph() {
        let pool = ThreadPool::new(2);
        let g = TaskGraph::new();
        let stats = g.execute(&pool);
        assert_eq!(stats.tasks_run, 0);
    }

    #[test]
    fn war_ordering_write_after_read() {
        let pool = ThreadPool::new(4);
        let val = Arc::new(AtomicUsize::new(1));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut g = TaskGraph::new();
        for _ in 0..4 {
            let v = Arc::clone(&val);
            let s = Arc::clone(&seen);
            g.add_task(&[Dep::read(0)], move || {
                s.lock().push(v.load(Ordering::SeqCst));
            });
        }
        let v = Arc::clone(&val);
        g.add_task(&[Dep::write(0)], move || v.store(2, Ordering::SeqCst));
        g.execute(&pool);
        assert_eq!(*seen.lock(), vec![1, 1, 1, 1], "readers must run before the writer");
    }
}

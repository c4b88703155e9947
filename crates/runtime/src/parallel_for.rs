//! Chunked parallel loops over index ranges (the `omp parallel do`
//! equivalent, with dynamic scheduling).

use crate::pool::ThreadPool;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `body` over `range` in chunks of (at most) `grain` indices,
/// distributed dynamically over the pool's active executors.
///
/// Dynamic scheduling mirrors what a production FEM assembly loop uses
/// and lets late-joining or early-leaving executors balance naturally.
pub fn parallel_for<F>(pool: &ThreadPool, range: Range<usize>, grain: usize, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let grain = grain.max(1);
    let start = range.start;
    let end = range.end;
    if start >= end {
        return;
    }
    let cursor = AtomicUsize::new(start);
    pool.run_region(|_id| loop {
        let lo = cursor.fetch_add(grain, Ordering::Relaxed);
        if lo >= end {
            break;
        }
        let hi = (lo + grain).min(end);
        cfpd_telemetry::count!("runtime.chunks");
        body(lo..hi);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_index_exactly_once() {
        let pool = ThreadPool::new(4);
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(&pool, 0..n, 64, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_range_is_noop() {
        let pool = ThreadPool::new(2);
        parallel_for(&pool, 5..5, 8, |_| panic!("must not be called"));
    }

    #[test]
    fn grain_zero_treated_as_one() {
        let pool = ThreadPool::new(2);
        let sum = AtomicUsize::new(0);
        parallel_for(&pool, 0..10, 0, |r| {
            sum.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn tid_in_active_range() {
        // Chunks run on the active executors only.
        let pool = ThreadPool::new(4);
        pool.set_active(3);
        let threads = std::sync::Mutex::new(std::collections::HashSet::new());
        parallel_for(&pool, 0..1000, 16, |_r| {
            threads.lock().unwrap().insert(std::thread::current().id());
        });
        assert!((1..=3).contains(&threads.lock().unwrap().len()));
    }

    #[test]
    fn matches_sequential_reduction() {
        let pool = ThreadPool::new(4);
        let n = 5000;
        let total = AtomicUsize::new(0);
        parallel_for(&pool, 0..n, 37, |r| {
            let local: usize = r.sum();
            total.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), n * (n - 1) / 2);
    }
}

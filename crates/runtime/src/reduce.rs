//! Parallel reductions and statically-scheduled loops — the
//! `reduction(...)` and `schedule(static)` counterparts of the
//! dynamic-scheduling [`crate::parallel_for`].

use crate::pool::ThreadPool;
use cfpd_testkit::sync::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Parallel reduction over an index range: each executor folds chunks
/// with `fold`, partial results are combined with `combine`.
///
/// ```
/// use cfpd_runtime::{ThreadPool, parallel_reduce};
/// let pool = ThreadPool::new(4);
/// let sum = parallel_reduce(&pool, 0..1000, 64, 0u64,
///     |acc, range| acc + range.map(|i| i as u64).sum::<u64>(),
///     |a, b| a + b);
/// assert_eq!(sum, 499_500);
/// ```
pub fn parallel_reduce<T, F, C>(
    pool: &ThreadPool,
    range: Range<usize>,
    grain: usize,
    identity: T,
    fold: F,
    combine: C,
) -> T
where
    T: Clone + Send + Sync,
    F: Fn(T, Range<usize>) -> T + Sync,
    C: Fn(T, T) -> T + Sync,
{
    let grain = grain.max(1);
    let (start, end) = (range.start, range.end);
    if start >= end {
        return identity;
    }
    let cursor = AtomicUsize::new(start);
    let partials: Mutex<Vec<T>> = Mutex::new(Vec::new());
    pool.run_region(|_id| {
        let mut acc = identity.clone();
        loop {
            let lo = cursor.fetch_add(grain, Ordering::Relaxed);
            if lo >= end {
                break;
            }
            let hi = (lo + grain).min(end);
            acc = fold(acc, lo..hi);
        }
        partials.lock().push(acc);
    });
    partials
        .into_inner()
        .into_iter()
        .fold(identity, |a, b| combine(a, b))
}

/// Statically-scheduled parallel loop: the range is pre-split into one
/// contiguous block per executor (OpenMP `schedule(static)`), maximizing
/// spatial locality at the cost of balance for irregular work.
pub fn parallel_for_static<F>(pool: &ThreadPool, range: Range<usize>, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let (start, end) = (range.start, range.end);
    if start >= end {
        return;
    }
    let n = end - start;
    pool.run_region_with(|id, executors| {
        let per = n.div_ceil(executors);
        let lo = start + id * per;
        let hi = (lo + per).min(end);
        if lo < hi {
            body(lo..hi);
        }
    });
}

/// Parallel dot product of two equal-length slices (the hot kernel of
/// the Krylov solvers when run hybrid).
pub fn parallel_dot(pool: &ThreadPool, a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    parallel_reduce(
        pool,
        0..a.len(),
        4096,
        0.0f64,
        |acc, r| acc + r.map(|i| a[i] * b[i]).sum::<f64>(),
        |x, y| x + y,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_matches_sequential() {
        let pool = ThreadPool::new(4);
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let par = parallel_reduce(
            &pool,
            0..data.len(),
            128,
            0.0,
            |acc, r| acc + r.map(|i| data[i]).sum::<f64>(),
            |a, b| a + b,
        );
        let seq: f64 = data.iter().sum();
        assert!((par - seq).abs() < 1e-9);
    }

    #[test]
    fn reduce_empty_range_is_identity() {
        let pool = ThreadPool::new(2);
        let v = parallel_reduce(&pool, 3..3, 8, 42i64, |a, _| a + 1, |a, b| a + b);
        assert_eq!(v, 42);
    }

    #[test]
    fn reduce_max() {
        let pool = ThreadPool::new(4);
        let data: Vec<i64> = (0..5000).map(|i| (i * 7919) % 4999).collect();
        let m = parallel_reduce(
            &pool,
            0..data.len(),
            64,
            i64::MIN,
            |acc, r| r.fold(acc, |a, i| a.max(data[i])),
            |a, b| a.max(b),
        );
        assert_eq!(m, *data.iter().max().unwrap());
    }

    #[test]
    fn static_schedule_covers_range_once() {
        let pool = ThreadPool::new(3);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        parallel_for_static(&pool, 0..1000, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn static_schedule_respects_active_count() {
        let pool = ThreadPool::new(4);
        pool.set_active(2);
        let seen = Mutex::new(Vec::new());
        parallel_for_static(&pool, 0..100, |r| {
            seen.lock().push(r);
        });
        let blocks = seen.into_inner();
        assert_eq!(blocks.len(), 2, "one block per active executor: {blocks:?}");
    }

    #[test]
    fn dot_product() {
        let pool = ThreadPool::new(4);
        let a: Vec<f64> = (0..3000).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..3000).map(|i| 2.0 * i as f64).collect();
        let d = parallel_dot(&pool, &a, &b);
        let expect: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((d - expect).abs() / expect < 1e-12);
    }
}

//! Cost-balanced chunking: split an index range into contiguous chunks
//! of approximately equal *weight* instead of equal *length*.
//!
//! The FEM hot loops are skewed — rows of a CSR matrix differ in nnz,
//! elements differ in quadrature cost (boundary-layer prisms vs. core
//! tets) — so fixed-grain chunking (e.g. 256 rows per chunk) hands some
//! executors several times the work of others. Given the monotone
//! prefix-weight array these structures already carry (`row_ptr`, SGS
//! offsets, a cost prefix sum), [`balanced_ranges`] places chunk
//! boundaries by binary search so every chunk carries ≈ total/chunks
//! weight. The decomposition depends only on the prefix array and the
//! requested chunk count — never on thread count or timing — so any
//! chunk-indexed reduction summed in chunk order is deterministic.

use crate::pool::ThreadPool;
use std::ops::Range;

/// Split `0..prefix.len()-1` into at most `max_chunks` contiguous,
/// non-empty ranges of approximately equal weight, where item `i`
/// weighs `prefix[i+1] - prefix[i]`. `prefix` must be monotone
/// non-decreasing (a CSR `row_ptr` is exactly this).
pub fn balanced_ranges(prefix: &[u32], max_chunks: usize) -> Vec<Range<usize>> {
    let n = prefix.len().saturating_sub(1);
    if n == 0 {
        return Vec::new();
    }
    let chunks = max_chunks.clamp(1, n);
    let base = prefix[0] as u64;
    let total = prefix[n] as u64 - base;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for c in 1..=chunks {
        let end = if c == chunks {
            n
        } else {
            // First index whose prefix weight reaches c/chunks of the
            // total, never behind the previous boundary.
            let target = base + (total * c as u64) / chunks as u64;
            prefix[..=n]
                .partition_point(|&p| (p as u64) < target)
                .max(start + 1)
                .min(n)
        };
        if end > start {
            ranges.push(start..end);
            start = end;
        }
    }
    ranges
}

/// Prefix-weight array for [`balanced_ranges`] from a per-item integer
/// cost function: `prefix[i+1] - prefix[i] = cost(i)`.
pub fn prefix_weights<F: Fn(usize) -> u32>(n: usize, cost: F) -> Vec<u32> {
    let mut prefix = Vec::with_capacity(n + 1);
    let mut acc = 0u32;
    prefix.push(0);
    for i in 0..n {
        acc += cost(i);
        prefix.push(acc);
    }
    prefix
}

/// Run `body` once per pre-computed chunk, the chunk list split
/// statically into one contiguous block per executor of the region
/// (OpenMP `schedule(static)`): the chunk lists of the solver sweeps are
/// fixed and weight-balanced, and executor `id` sweeping the same rows
/// every time keeps them in the cache of the core that touched them
/// last. The body receives the chunk index (for chunk-ordered
/// deterministic reductions) and the index range.
pub fn parallel_for_ranges<F>(pool: &ThreadPool, ranges: &[Range<usize>], body: F)
where
    F: Fn(usize, Range<usize>) + Sync,
{
    if ranges.is_empty() {
        return;
    }
    let block = |id: usize, executors: usize| {
        let (lo, hi) = (ranges.len() * id / executors, ranges.len() * (id + 1) / executors);
        for (c, r) in ranges.iter().enumerate().take(hi).skip(lo) {
            body(c, r.clone());
        }
    };
    // With a single active executor skip the region hand-off entirely:
    // same chunks, same order as the one block of a one-executor region.
    if pool.active() <= 1 {
        block(0, 1);
        return;
    }
    pool.run_region_with(block);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn covers_all_items_in_order() {
        let prefix: Vec<u32> = (0..=100).map(|i| i * 3).collect();
        let ranges = balanced_ranges(&prefix, 7);
        assert!(ranges.len() <= 7);
        let mut next = 0;
        for r in &ranges {
            assert_eq!(r.start, next);
            assert!(r.end > r.start);
            next = r.end;
        }
        assert_eq!(next, 100);
    }

    #[test]
    fn skewed_weights_are_balanced() {
        // One huge item at the front, many tiny ones after.
        let costs: Vec<u32> = std::iter::once(1000).chain(std::iter::repeat(1).take(999)).collect();
        let prefix = prefix_weights(1000, |i| costs[i]);
        let ranges = balanced_ranges(&prefix, 4);
        // The heavy item must sit alone (its weight already exceeds the
        // per-chunk target).
        assert_eq!(ranges[0], 0..1);
        // Remaining chunks split the tail roughly evenly.
        for r in &ranges[1..] {
            let w: u32 = costs[r.clone()].iter().sum();
            assert!(w <= 600, "chunk {r:?} weighs {w}");
        }
    }

    #[test]
    fn more_chunks_than_items_degenerates_to_singletons() {
        let prefix = prefix_weights(3, |_| 5);
        let ranges = balanced_ranges(&prefix, 16);
        assert_eq!(ranges, vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn zero_weight_items_still_covered() {
        let prefix = vec![0u32, 0, 0, 10, 10, 20];
        let ranges = balanced_ranges(&prefix, 2);
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 5);
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, 5);
    }

    #[test]
    fn parallel_ranges_hit_every_chunk_once() {
        let pool = ThreadPool::new(4);
        let prefix = prefix_weights(512, |i| (i % 7 + 1) as u32);
        let ranges = balanced_ranges(&prefix, 13);
        let hits: Vec<AtomicUsize> = (0..512).map(|_| AtomicUsize::new(0)).collect();
        parallel_for_ranges(&pool, &ranges, |_c, r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}

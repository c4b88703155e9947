//! Sharded metric primitives: counters, gauges and log2-bucketed
//! histograms.
//!
//! Every metric is an array of [`SHARDS`] cacheline-padded atomic
//! cells. A recording thread picks its shard once (a thread-local,
//! assigned round-robin on first use) and then only ever touches that
//! cell with relaxed operations — no cross-thread cacheline traffic on
//! the hot path. Reads merge the shards in fixed index order, so a
//! snapshot of a quiesced metric is bit-deterministic.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Shards per metric. More than the worker counts this repo runs
/// (ranks × pool workers stay well under it in the verify scenarios);
/// a 17th thread shares a shard, which costs contention, not
/// correctness.
pub const SHARDS: usize = 16;

/// Pad to two cachelines (128 B covers prefetch-pair effects on both
/// x86 and the paper's Arm cores).
#[repr(align(128))]
pub(crate) struct Pad<T>(pub T);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// This thread's shard index (assigned round-robin on first use).
#[inline]
pub(crate) fn shard_index() -> usize {
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

/// Monotonic event counter.
pub struct Counter {
    shards: Box<[Pad<AtomicU64>]>,
}

impl Counter {
    pub(crate) fn new() -> Counter {
        Counter { shards: (0..SHARDS).map(|_| Pad(AtomicU64::new(0))).collect() }
    }

    /// Add `n`, checking the global enabled flag first.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.add_unchecked(n);
        }
    }

    /// Add `n` without consulting the enabled flag (the recording
    /// macros check it once and call this).
    #[inline]
    pub fn add_unchecked(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Merged value (fixed shard order, wrapping adds).
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(s.0.load(Ordering::Relaxed)))
    }

    pub(crate) fn reset(&self) {
        for s in self.shards.iter() {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Signed up/down gauge (e.g. cores currently lent out). Additive:
/// concurrent `add`s commute, the value is the merged sum of deltas.
pub struct Gauge {
    shards: Box<[Pad<AtomicU64>]>,
}

impl Gauge {
    pub(crate) fn new() -> Gauge {
        Gauge { shards: (0..SHARDS).map(|_| Pad(AtomicU64::new(0))).collect() }
    }

    /// Apply a signed delta, checking the global enabled flag first.
    #[inline]
    pub fn add(&self, delta: i64) {
        if crate::enabled() {
            self.add_unchecked(delta);
        }
    }

    /// Apply a signed delta without consulting the enabled flag.
    #[inline]
    pub fn add_unchecked(&self, delta: i64) {
        // Two's-complement wrapping add: the merged sum of deltas is
        // exact as long as the true value fits i64.
        self.shards[shard_index()].0.fetch_add(delta as u64, Ordering::Relaxed);
    }

    /// Merged value.
    pub fn value(&self) -> i64 {
        self.shards
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(s.0.load(Ordering::Relaxed)))
            as i64
    }

    pub(crate) fn reset(&self) {
        for s in self.shards.iter() {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Bucket count: bucket `i` holds values whose bit length is `i`, i.e.
/// bucket 0 is exactly `{0}` and bucket `i ≥ 1` spans `[2^(i-1), 2^i)`.
pub const BUCKETS: usize = 65;

/// Index of the log2 bucket for `v`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i` (0 for the zero bucket).
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 { 0 } else { 1u64 << (i - 1) }
}

/// Inclusive upper bound of bucket `i`.
pub fn bucket_hi(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// No count of its own: a snapshot counts its buckets, so the `+Inf`
/// bucket a scrape renders never falls below a finite one while another
/// thread records.
struct HistShard {
    buckets: [AtomicU64; BUCKETS],
    /// Wrapping sum of recorded values (exact unless > u64::MAX total).
    sum: AtomicU64,
    /// Exact extrema via relaxed `fetch_min`/`fetch_max`.
    min: AtomicU64,
    max: AtomicU64,
}

impl HistShard {
    fn new() -> HistShard {
        HistShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Log2-bucketed histogram with exact count / sum / min / max.
pub struct Histogram {
    shards: Box<[Pad<HistShard>]>,
}

/// Merged, read-side view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    pub buckets: [u64; BUCKETS],
}

impl HistSnapshot {
    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 { 0.0 } else { self.sum as f64 / self.count as f64 }
    }

    /// `(lo, hi, count)` rows of the non-empty buckets, in value order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lo(i), bucket_hi(i), c))
            .collect()
    }
}

impl Histogram {
    pub(crate) fn new() -> Histogram {
        Histogram { shards: (0..SHARDS).map(|_| Pad(HistShard::new())).collect() }
    }

    /// Record one observation, checking the global enabled flag first.
    #[inline]
    pub fn record(&self, v: u64) {
        if crate::enabled() {
            self.record_unchecked(v);
        }
    }

    /// Record one observation without consulting the enabled flag.
    #[inline]
    pub fn record_unchecked(&self, v: u64) {
        let shard = &self.shards[shard_index()].0;
        shard.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
        shard.min.fetch_min(v, Ordering::Relaxed);
        shard.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Merge the shards (fixed order) into a read-side snapshot.
    pub fn merged(&self) -> HistSnapshot {
        let mut out = HistSnapshot {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        };
        for s in self.shards.iter() {
            let s = &s.0;
            out.sum = out.sum.wrapping_add(s.sum.load(Ordering::Relaxed));
            out.min = out.min.min(s.min.load(Ordering::Relaxed));
            out.max = out.max.max(s.max.load(Ordering::Relaxed));
            for (dst, src) in out.buckets.iter_mut().zip(&s.buckets) {
                *dst = dst.wrapping_add(src.load(Ordering::Relaxed));
            }
        }
        out.count = out.buckets.iter().fold(0, |n, &b| n.wrapping_add(b));
        out
    }

    pub(crate) fn reset(&self) {
        for s in self.shards.iter() {
            s.0.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_lo(i)), i);
            assert_eq!(bucket_of(bucket_hi(i)), i);
        }
    }

    #[test]
    fn counter_merges_across_threads() {
        let _g = crate::testutil::guard();
        crate::set_enabled(true);
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        crate::set_enabled(false);
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn gauge_deltas_commute() {
        let _g = crate::testutil::guard();
        crate::set_enabled(true);
        let g = Gauge::new();
        std::thread::scope(|s| {
            for t in 0..6 {
                let g = &g;
                s.spawn(move || {
                    for _ in 0..100 {
                        g.add(if t % 2 == 0 { 3 } else { -2 });
                    }
                });
            }
        });
        crate::set_enabled(false);
        assert_eq!(g.value(), 3 * 300 - 2 * 300);
    }

    #[test]
    fn histogram_exact_min_max_sum() {
        let _g = crate::testutil::guard();
        crate::set_enabled(true);
        let h = Histogram::new();
        for v in [0u64, 1, 5, 1023, 1024, 7_000_000] {
            h.record(v);
        }
        crate::set_enabled(false);
        let s = h.merged();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1 + 5 + 1023 + 1024 + 7_000_000);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 7_000_000);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[3], 1); // 5 in [4,8)
        assert_eq!(s.buckets[10], 1); // 1023 in [512,1024)
        assert_eq!(s.buckets[11], 1); // 1024 in [1024,2048)
        assert_eq!(s.nonzero_buckets().len(), 6);
    }

    #[test]
    fn disabled_records_are_dropped() {
        let _g = crate::testutil::guard();
        crate::set_enabled(false);
        let c = Counter::new();
        let h = Histogram::new();
        c.add(1);
        h.record(9);
        assert_eq!(c.value(), 0);
        assert_eq!(h.merged().count, 0);
    }
}

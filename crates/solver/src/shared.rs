//! Concurrent disjoint writes: the one module where a parallel sweep gets
//! shared mutable access to an output, and the one place that says why it
//! is sound. Every sweep writes in one of three shapes:
//!
//! * **range-owned** — [`map_ranges_mut`] / [`for_ranges_mut`] check once
//!   per call that the ranges ascend without overlap and hand each body
//!   its own `&mut` sub-slices (vector updates, per-chunk partial sums);
//! * **scatter by index** — [`SharedOut`], for writers whose indices come
//!   from a schedule (SELL chunk rows, colour classes, ordered subdomain
//!   tasks, element storage ranges). The schedule promises that no two
//!   writers hold one entry at once; debug builds check every write;
//! * **atomic adds** — [`AtomicView`], the `omp atomic` strategy.

use cfpd_runtime::{parallel_for_ranges, ThreadPool};
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Run `body(range, pieces)` once per range of `ranges` over the pool,
/// `pieces[k]` being `data[k][range]`, and store what the body of range
/// `c` returns in `out[c]`. Panics, in every build, unless the ranges
/// ascend without overlap inside every slice of `data`: then each body
/// owns its sub-slices, because [`parallel_for_ranges`] runs one body per
/// range.
pub(crate) fn map_ranges_mut<T: Copy + Send, R: Copy + Send, const K: usize>(
    pool: &ThreadPool,
    ranges: &[Range<usize>],
    data: [&mut [T]; K],
    out: &mut [R],
    body: impl Fn(Range<usize>, [&mut [T]; K]) -> R + Sync,
) {
    assert_eq!(out.len(), ranges.len(), "one result slot per range");
    let mut end = 0;
    for r in ranges {
        assert!(end <= r.start && r.start <= r.end, "ranges must ascend: {r:?} after ..{end}");
        end = r.end;
    }
    let bases = data.map(|d| {
        assert!(end <= d.len(), "range end {end} beyond a slice of {}", d.len());
        Base(d.as_mut_ptr())
    });
    let (bases, out) = (&bases, SharedOut::new(out));
    parallel_for_ranges(pool, ranges, |c, r| {
        // SAFETY: `r` lies inside every slice of `data` and overlaps no
        // other range (checked above), and range `c` reaches one body.
        let pieces = bases.map(|b| unsafe { std::slice::from_raw_parts_mut(b.0.add(r.start), r.len()) });
        out.set(c, body(r, pieces));
    });
}

/// [`map_ranges_mut`] for bodies that return nothing.
pub(crate) fn for_ranges_mut<T: Copy + Send, const K: usize>(
    pool: &ThreadPool,
    ranges: &[Range<usize>],
    data: [&mut [T]; K],
    body: impl Fn(Range<usize>, [&mut [T]; K]) + Sync,
) {
    map_ranges_mut(pool, ranges, data, &mut vec![(); ranges.len()], body);
}

/// The base pointer of one slice of [`map_ranges_mut`]; the range check
/// is what makes sharing it sound.
#[derive(Clone, Copy)]
struct Base<T>(*mut T);
// SAFETY: each body derefs the pointer only inside its own range.
unsafe impl<T: Send> Sync for Base<T> {}

/// An exclusively borrowed slice that concurrent writers share, each
/// writing the entries its schedule gives it. The one invariant: no two
/// writers hold one entry at the same time. Every access indexes the
/// slice, so every build checks its bounds; debug builds also check the
/// invariant: each write (or [`SharedOut::claim`]) marks its entries busy
/// with an atomic swap and panics if another writer holds one.
pub(crate) struct SharedOut<'a, T> {
    cells: &'a [Cell<T>],
    /// The busy marks, one per entry in debug builds, none in release.
    busy: Box<[AtomicBool]>,
}
// SAFETY: writers reach an entry one at a time (the invariant above), so
// no two threads ever race on one `Cell`.
unsafe impl<T: Send> Sync for SharedOut<'_, T> {}

impl<'a, T: Copy> SharedOut<'a, T> {
    pub(crate) fn new(v: &'a mut [T]) -> SharedOut<'a, T> {
        let marks = if cfg!(debug_assertions) { v.len() } else { 0 };
        SharedOut {
            busy: (0..marks).map(|_| AtomicBool::new(false)).collect(),
            cells: Cell::from_mut(v).as_slice_of_cells(),
        }
    }

    /// Entries `range`, the caller's alone until the claim drops.
    pub(crate) fn claim(&self, range: Range<usize>) -> Claim<'_, T> {
        let cells = &self.cells[range.clone()];
        Claim {
            // SAFETY: `Cell<T>` has the layout of `T` and lets its value
            // be written through a shared borrow; no other writer holds
            // these entries (the invariant, checked in debug builds).
            slice: unsafe { std::slice::from_raw_parts_mut(cells.as_ptr() as *mut T, cells.len()) },
            _held: self.hold(range),
        }
    }

    /// `out[i] = v`.
    #[inline]
    pub(crate) fn set(&self, i: usize, v: T) {
        let (cell, _held) = (&self.cells[i], self.hold(i..i + 1));
        cell.set(v);
    }

    /// `out[i] += v`.
    #[inline]
    pub(crate) fn add(&self, i: usize, v: T)
    where
        T: std::ops::Add<Output = T>,
    {
        let (cell, _held) = (&self.cells[i], self.hold(i..i + 1));
        cell.set(cell.get() + v);
    }

    /// Marks entries `range` busy until the guard drops (debug builds).
    #[inline]
    fn hold(&self, range: Range<usize>) -> Held<'_> {
        if !cfg!(debug_assertions) {
            return Held(&[]);
        }
        let busy = &self.busy[range.clone()];
        for (i, b) in busy.iter().enumerate() {
            let entry = range.start + i;
            assert!(!b.swap(true, Ordering::Acquire), "two writers met on entry {entry} of a shared output");
        }
        Held(busy)
    }
}

/// Entries of a [`SharedOut`] held by one writer.
pub(crate) struct Claim<'s, T> {
    pub(crate) slice: &'s mut [T],
    _held: Held<'s>,
}

/// The busy marks of entries one writer holds, cleared on drop.
struct Held<'s>(&'s [AtomicBool]);

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.0.iter().for_each(|b| b.store(false, Ordering::Release));
    }
}

/// Shared view over an `f64` slice for concurrent scatter-add **with
/// atomic adds** (the `omp atomic` strategy).
pub(crate) struct AtomicView<'a> {
    values: &'a [AtomicU64],
    /// Number of atomic adds performed (for the performance model's
    /// atomic-penalty accounting).
    pub(crate) atomic_ops: AtomicUsize,
}

impl<'a> AtomicView<'a> {
    pub(crate) fn new(s: &'a mut [f64]) -> AtomicView<'a> {
        // SAFETY: f64 and AtomicU64 have identical size and alignment, and
        // the exclusive borrow becomes shared atomic access.
        let values = unsafe { std::slice::from_raw_parts(s.as_mut_ptr() as *const AtomicU64, s.len()) };
        AtomicView { values, atomic_ops: AtomicUsize::new(0) }
    }

    /// Atomically add `v` at `idx` (CAS loop on the bit pattern — the
    /// portable equivalent of `omp atomic` on a double).
    #[inline]
    pub(crate) fn add_at(&self, idx: usize, v: f64) {
        let cell = &self.values[idx];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = f64::to_bits(f64::from_bits(cur) + v);
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        self.atomic_ops.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_runtime::balanced_ranges;
    use cfpd_testkit::prop::{self, PropConfig};
    use cfpd_testkit::rng::Rng;

    // Every index reaches exactly one body, and every body's result its
    // own slot, whatever the weights, the chunk count and the executors.
    #[test]
    fn prop_range_helper_hands_every_index_to_one_body() {
        let pool = ThreadPool::new(3);
        prop::check(
            "range helper: one body per index",
            PropConfig::cases(60),
            &prop::usize_range(0, 1 << 30),
            |&seed| {
                let mut rng = Rng::new(seed as u64);
                let n = rng.range_usize(1, 300);
                let weights: Vec<u32> = (0..n).map(|_| rng.range_usize(0, 5) as u32).collect();
                let prefix = cfpd_runtime::prefix_weights(n, |i| weights[i]);
                let ranges = balanced_ranges(&prefix, rng.range_usize(1, 20));
                let covered = ranges.last().map_or(0, |r| r.end);
                for active in 1..=3 {
                    pool.set_active(active);
                    let (mut hits, mut lens) = (vec![0u32; covered], vec![0usize; ranges.len()]);
                    map_ranges_mut(&pool, &ranges, [&mut hits], &mut lens, |r, [h]| {
                        h.iter_mut().for_each(|x| *x += 1);
                        r.len()
                    });
                    assert!(hits.iter().all(|&x| x == 1), "{active} executors: hits {hits:?}");
                    let want: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    assert_eq!(lens, want, "{active} executors");
                }
            },
        );
    }

    #[test]
    #[should_panic(expected = "ranges must ascend")]
    fn overlapping_ranges_are_refused() {
        let mut v = vec![0.0; 10];
        for_ranges_mut(&ThreadPool::new(1), &[0..5, 4..10], [&mut v], |_, _| {});
    }

    #[test]
    #[should_panic(expected = "ranges must ascend")]
    fn unsorted_ranges_are_refused() {
        let mut v = vec![0.0; 10];
        for_ranges_mut(&ThreadPool::new(1), &[5..10, 0..5], [&mut v], |_, _| {});
    }

    // A scatter index past the end of the output.
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_write_past_the_end_panics() {
        let mut v = vec![0.0; 4];
        SharedOut::new(&mut v).add(4, 1.0);
    }

    // A schedule that lets a second writer reach an entry the first
    // still holds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two writers met on entry 3")]
    fn two_writers_on_one_entry_panic() {
        let mut v = vec![0.0; 8];
        let out = SharedOut::new(&mut v);
        let _first = out.claim(2..4);
        out.add(3, 1.0);
    }
}

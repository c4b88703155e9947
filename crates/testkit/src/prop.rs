//! A shrinking property-test runner — the in-repo replacement for the
//! `proptest` patterns the top-level suites use.
//!
//! A [`Gen`] produces random values and, given a failing value, a list
//! of *simpler* candidate values (shrinking). [`check`] generates
//! `cases` values from a deterministic seed, runs the property on each
//! (catching panics, so properties use plain `assert!`), and on failure
//! greedily shrinks the counterexample before reporting it.
//!
//! ```
//! use cfpd_testkit::prop::{check, f64_range, vec_of, PropConfig};
//! check("sum is finite", PropConfig::cases(32), &vec_of(f64_range(0.0, 1e6), 8), |v| {
//!     assert!(v.iter().sum::<f64>().is_finite());
//! });
//! ```

use crate::rng::Rng;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A generator of test values with optional shrinking.
pub trait Gen {
    type Value: Clone + Debug;

    /// Draw one value.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Candidate simplifications of a failing value, simplest first.
    /// Every candidate must satisfy the generator's own constraints
    /// (e.g. stay inside the range). The default is no shrinking.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

/// Runner configuration.
#[derive(Debug, Clone, Copy)]
pub struct PropConfig {
    /// Number of generated cases.
    pub cases: u32,
    /// Base seed; case `i` uses stream `seed + i`, so a reported case
    /// is reproducible in isolation.
    pub seed: u64,
    /// Budget of property executions spent shrinking a failure.
    pub max_shrinks: u32,
}

impl PropConfig {
    /// The default configuration with `cases` generated inputs.
    pub fn cases(cases: u32) -> PropConfig {
        PropConfig { cases, seed: 0x5EED_CF9D, max_shrinks: 400 }
    }

}

/// The message of a caught panic (`catch_unwind`'s `Err` payload).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Check `property` against `cases` generated values. Panics with the
/// (shrunk) counterexample on failure; prints a one-line report on
/// success so suites can count executed properties.
pub fn check<G, F>(name: &str, cfg: PropConfig, gen: &G, property: F)
where
    G: Gen,
    F: Fn(&G::Value),
{
    for case in 0..cfg.cases {
        let mut rng = Rng::new(cfg.seed.wrapping_add(case as u64));
        let value = gen.generate(&mut rng);
        let result = catch_unwind(AssertUnwindSafe(|| property(&value)));
        let Err(payload) = result else { continue };
        let mut failing = value;
        let mut cause = panic_message(payload);

        // Greedy shrink: adopt the first failing candidate, restart.
        let mut budget = cfg.max_shrinks;
        let mut shrunk_steps = 0u32;
        'outer: loop {
            for cand in gen.shrink(&failing) {
                if budget == 0 {
                    break 'outer;
                }
                budget -= 1;
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| property(&cand))) {
                    failing = cand;
                    cause = panic_message(p);
                    shrunk_steps += 1;
                    continue 'outer;
                }
            }
            break;
        }
        panic!(
            "property '{name}' falsified at case {case}/{} (seed {})\n\
             counterexample ({shrunk_steps} shrink steps): {failing:?}\n\
             cause: {cause}",
            cfg.cases, cfg.seed,
        );
    }
    println!("property '{name}': {} cases passed", cfg.cases);
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// Uniform `f64` in `[lo, hi)`; shrinks toward `lo`.
#[derive(Debug, Clone, Copy)]
pub struct F64Range {
    lo: f64,
    hi: f64,
}

/// Uniform `f64` in `[lo, hi)`.
pub fn f64_range(lo: f64, hi: f64) -> F64Range {
    assert!(lo < hi, "empty range {lo}..{hi}");
    F64Range { lo, hi }
}

impl Gen for F64Range {
    type Value = f64;

    fn generate(&self, rng: &mut Rng) -> f64 {
        rng.range_f64(self.lo, self.hi)
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        let d = *value - self.lo;
        if !(d > 0.0) {
            return Vec::new();
        }
        // Ladder toward the floor: the floor itself, then candidates
        // approaching `value` by halving the remaining distance — a
        // greedy pass over these bisects to the boundary of failure.
        let mut out = vec![self.lo];
        let mut step = d / 2.0;
        let floor = d * 1e-12;
        while step > floor && out.len() < 48 {
            let cand = *value - step;
            if cand > self.lo && cand < *value {
                out.push(cand);
            }
            step /= 2.0;
        }
        out
    }
}

/// Uniform `usize` in `[lo, hi)`; shrinks toward `lo`.
#[derive(Debug, Clone, Copy)]
pub struct UsizeRange {
    lo: usize,
    hi: usize,
}

/// Uniform `usize` in `[lo, hi)` (half-open, like `lo..hi`).
pub fn usize_range(lo: usize, hi: usize) -> UsizeRange {
    assert!(lo < hi, "empty range {lo}..{hi}");
    UsizeRange { lo, hi }
}

impl Gen for UsizeRange {
    type Value = usize;

    fn generate(&self, rng: &mut Rng) -> usize {
        rng.range_usize(self.lo, self.hi)
    }

    fn shrink(&self, value: &usize) -> Vec<usize> {
        let d = *value - self.lo;
        if d == 0 {
            return Vec::new();
        }
        let mut out = vec![self.lo];
        let mut step = d / 2;
        while step > 0 {
            out.push(*value - step);
            step /= 2;
        }
        // `value - 1` closes the gap when the halving ladder skips it.
        if d > 1 && out.last() != Some(&(*value - 1)) {
            out.push(*value - 1);
        }
        out
    }
}

/// Fixed-length vector of draws from an element generator. Shrinks
/// element-wise (the length is part of the property's contract, as in
/// `proptest::collection::vec(gen, n)` with a fixed `n`).
#[derive(Debug, Clone)]
pub struct VecOf<G> {
    elem: G,
    len: usize,
}

/// `len` independent draws from `elem`.
pub fn vec_of<G: Gen>(elem: G, len: usize) -> VecOf<G> {
    VecOf { elem, len }
}

impl<G: Gen> Gen for VecOf<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut Rng) -> Vec<G::Value> {
        (0..self.len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out = Vec::new();
        for (i, v) in value.iter().enumerate() {
            for cand in self.elem.shrink(v).into_iter().take(8) {
                let mut next = value.clone();
                next[i] = cand;
                out.push(next);
            }
        }
        out
    }
}

/// Transformed generator (`prop_map` analogue). Cannot shrink through
/// an arbitrary function — prefer generating the raw tuple and mapping
/// inside the property when shrinking matters.
pub struct Map<G, F> {
    inner: G,
    f: F,
}

/// Apply `f` to every draw of `gen`.
pub fn map<G, F, U>(gen: G, f: F) -> Map<G, F>
where
    G: Gen,
    F: Fn(G::Value) -> U,
    U: Clone + Debug,
{
    Map { inner: gen, f }
}

impl<G, F, U> Gen for Map<G, F>
where
    G: Gen,
    F: Fn(G::Value) -> U,
    U: Clone + Debug,
{
    type Value = U;

    fn generate(&self, rng: &mut Rng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Per-component shrink candidates taken when shrinking a tuple.
const TUPLE_SHRINKS_PER_COMPONENT: usize = 3;

macro_rules! tuple_gen {
    ($($g:ident / $v:ident / $idx:tt),+) => {
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);

            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx)
                        .into_iter()
                        .take(TUPLE_SHRINKS_PER_COMPONENT)
                    {
                        let mut next = value.clone();
                        next.$idx = cand;
                        out.push(next);
                    }
                )+
                out
            }
        }
    };
}

tuple_gen!(G0 / v0 / 0, G1 / v1 / 1);
tuple_gen!(G0 / v0 / 0, G1 / v1 / 1, G2 / v2 / 2);
tuple_gen!(G0 / v0 / 0, G1 / v1 / 1, G2 / v2 / 2, G3 / v3 / 3);
tuple_gen!(G0 / v0 / 0, G1 / v1 / 1, G2 / v2 / 2, G3 / v3 / 3, G4 / v4 / 4);
tuple_gen!(G0 / v0 / 0, G1 / v1 / 1, G2 / v2 / 2, G3 / v3 / 3, G4 / v4 / 4, G5 / v5 / 5);
tuple_gen!(
    G0 / v0 / 0,
    G1 / v1 / 1,
    G2 / v2 / 2,
    G3 / v3 / 3,
    G4 / v4 / 4,
    G5 / v5 / 5,
    G6 / v6 / 6
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_completes() {
        check("tautology", PropConfig::cases(50), &f64_range(0.0, 1.0), |x| {
            assert!(*x >= 0.0 && *x < 1.0);
        });
    }

    #[test]
    fn failing_property_reports_shrunk_counterexample() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            check(
                "x below 500",
                PropConfig::cases(100),
                &usize_range(0, 1000),
                |&x| assert!(x < 500, "got {x}"),
            );
        }));
        let msg = panic_message(result.unwrap_err());
        assert!(msg.contains("falsified"), "{msg}");
        // Greedy bisection toward the range floor must land exactly on
        // the smallest failing value.
        assert!(msg.contains("counterexample"), "{msg}");
        let shrunk: usize = msg
            .lines()
            .find(|l| l.contains("counterexample"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .expect("parse counterexample");
        assert_eq!(shrunk, 500, "{msg}");
    }

    #[test]
    fn vec_shrinking_isolates_the_offending_element() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            check(
                "all elements small",
                PropConfig::cases(50),
                &vec_of(f64_range(0.0, 10.0), 4),
                |v| assert!(v.iter().all(|&x| x < 9.0)),
            );
        }));
        let msg = panic_message(result.unwrap_err());
        // After shrinking, non-offending elements sit at the range floor.
        assert!(msg.contains("0.0"), "shrink left noise: {msg}");
    }

    #[test]
    fn tuple_generation_and_shrinking() {
        let gen = (usize_range(1, 10), f64_range(0.0, 1.0));
        let mut rng = Rng::new(1);
        let v = gen.generate(&mut rng);
        assert!((1..10).contains(&v.0));
        let shrinks = gen.shrink(&v);
        assert!(!shrinks.is_empty() || v.0 == 1);
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        let collect = || {
            let gen = vec_of(f64_range(0.0, 1.0), 3);
            let mut all = Vec::new();
            for case in 0..5u64 {
                let mut rng = Rng::new(PropConfig::cases(1).seed + case);
                all.push(gen.generate(&mut rng));
            }
            all
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn map_applies_function() {
        let gen = map(usize_range(0, 5), |x| x * 2);
        let mut rng = Rng::new(4);
        for _ in 0..20 {
            let v = gen.generate(&mut rng);
            assert_eq!(v % 2, 0);
            assert!(v < 10);
        }
    }
}

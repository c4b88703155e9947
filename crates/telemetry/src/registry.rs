//! The global static metrics registry.
//!
//! Metrics are created on first use, leaked to `'static` (a metric,
//! once named, lives for the process — the property that lets call
//! sites cache the handle in a `OnceLock` and skip the registry lock on
//! the hot path), and enumerated in name order for snapshots.

use crate::metrics::{Counter, Gauge, Histogram};
use crate::render::TelemetrySnapshot;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, &'static Counter>,
    gauges: BTreeMap<String, &'static Gauge>,
    histograms: BTreeMap<String, &'static Histogram>,
}

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(Registry::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// The counter named `name`, created on first use. Cache the returned
/// handle (the [`crate::count!`] macro does) — this takes the registry
/// lock.
pub fn counter(name: &str) -> &'static Counter {
    let mut r = registry();
    r.counters
        .entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::new(Counter::new())))
}

/// The gauge named `name`, created on first use.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut r = registry();
    r.gauges
        .entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::new(Gauge::new())))
}

/// The histogram named `name`, created on first use.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut r = registry();
    r.histograms
        .entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
}

/// Zero every registered metric. Used by `cfpd report` (and tests) to
/// scope a measurement to one run; concurrent recordings may survive a
/// reset, so quiesce first for exact reads.
pub fn reset() {
    let r = registry();
    for c in r.counters.values() {
        c.reset();
    }
    for g in r.gauges.values() {
        g.reset();
    }
    for h in r.histograms.values() {
        h.reset();
    }
}

/// Merge every registered metric (name order, fixed shard order) into a
/// read-side snapshot.
pub fn snapshot() -> TelemetrySnapshot {
    let r = registry();
    TelemetrySnapshot {
        counters: r.counters.iter().map(|(n, c)| (n.clone(), c.value())).collect(),
        gauges: r.gauges.iter().map(|(n, g)| (n.clone(), g.value())).collect(),
        histograms: r.histograms.iter().map(|(n, h)| (n.clone(), h.merged())).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_returns_same_metric() {
        let a = counter("registry.same") as *const Counter;
        let b = counter("registry.same") as *const Counter;
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_is_name_ordered_and_reset_zeroes() {
        let _g = crate::testutil::guard();
        crate::set_enabled(true);
        counter("registry.zz").add_unchecked(2);
        counter("registry.aa").add_unchecked(1);
        crate::set_enabled(false);
        let snap = snapshot();
        let names: Vec<&str> = snap
            .counters
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.starts_with("registry.aa") || n.starts_with("registry.zz"))
            .collect();
        assert_eq!(names, vec!["registry.aa", "registry.zz"]);
        reset();
        assert_eq!(counter("registry.zz").value(), 0);
        assert_eq!(counter("registry.aa").value(), 0);
    }
}

//! # cfpd-telemetry — always-on runtime observability
//!
//! The paper's whole argument rests on *measuring* where runtime goes
//! (Paraver traces, the Lₙ load balance of eq. 9, parallel efficiency).
//! `cfpd-trace` supports that analysis post hoc, from a fully recorded
//! event timeline — exactly what a production serving deployment cannot
//! afford to keep per request. This crate is the cheap always-on
//! counterpart, modelled on the POP methodology the paper uses and on
//! DLB's own statistics mode:
//!
//! * a static **registry** of named [`Counter`]s, [`Gauge`]s and
//!   log2-bucketed [`Histogram`]s, sharded per thread over
//!   cacheline-padded atomics (relaxed increments, snapshot-on-read
//!   merge in fixed shard order, so a read is bit-deterministic for a
//!   given set of recorded values);
//! * RAII [`Span`] timers;
//! * a [`TelemetrySnapshot`] with stable-ordered text-table and JSON
//!   renderers (the JSON writer in [`json`] is dependency-free and
//!   reused by `cfpd chaos --json`).
//!
//! ## Enablement and overhead
//!
//! Telemetry is **globally disabled by default** and enabled either
//! programmatically ([`set_enabled`]) or via `CFPD_TELEMETRY=1`
//! ([`init_from_env`]). The disabled path of every recording macro is a
//! single relaxed atomic load and a branch — ≤ ~5 ns per op, measured
//! by the `telemetry_overhead` bench (see `BENCH_telemetry_overhead.json`).
//! The enabled path budget is ≤ 50 ns per counter increment (one
//! thread-local shard lookup plus one relaxed `fetch_add` on an
//! uncontended padded cacheline). Telemetry never touches physics
//! state: golden traces are byte-identical with it on or off.
//!
//! ## Determinism contract
//!
//! Recording is concurrent and relaxed; *reading* is deterministic.
//! [`snapshot`] merges shards in fixed index order with wrapping
//! integer adds and fixed-order f64 sums, and orders metrics by name,
//! so two snapshots of identical recorded values render byte-identical
//! documents.

#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod registry;
pub mod render;
pub mod span;

pub use json::JsonWriter;
pub use metrics::{Counter, Gauge, HistSnapshot, Histogram};
pub use registry::{counter, gauge, histogram, reset, snapshot};
pub use render::TelemetrySnapshot;
pub use span::Span;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is telemetry recording globally enabled? The guard every recording
/// macro checks first — a single relaxed load on the disabled path.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off globally (all metrics, all threads).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enable recording when the `CFPD_TELEMETRY` environment variable is
/// `1` (the opt-in used by `cfpd golden` / `cfpd chaos`).
pub fn init_from_env() {
    if std::env::var("CFPD_TELEMETRY").as_deref() == Ok("1") {
        set_enabled(true);
    }
}

/// Bump a named counter by 1 (or by `$n`). The call site caches the
/// registry lookup in a `OnceLock`, so the steady-state enabled cost is
/// one thread-local shard pick plus one relaxed `fetch_add`; disabled,
/// it is one relaxed load and a branch.
#[macro_export]
macro_rules! count {
    ($name:expr) => {
        $crate::count!($name, 1u64)
    };
    ($name:expr, $n:expr) => {
        if $crate::enabled() {
            static SITE: ::std::sync::OnceLock<&'static $crate::Counter> =
                ::std::sync::OnceLock::new();
            SITE.get_or_init(|| $crate::counter($name)).add_unchecked($n);
        }
    };
}

/// Add a signed delta to a named gauge (same cost model as [`count!`]).
#[macro_export]
macro_rules! gauge_add {
    ($name:expr, $n:expr) => {
        if $crate::enabled() {
            static SITE: ::std::sync::OnceLock<&'static $crate::Gauge> =
                ::std::sync::OnceLock::new();
            SITE.get_or_init(|| $crate::gauge($name)).add_unchecked($n);
        }
    };
}

/// Record a `u64` observation into a named histogram.
#[macro_export]
macro_rules! observe {
    ($name:expr, $v:expr) => {
        if $crate::enabled() {
            static SITE: ::std::sync::OnceLock<&'static $crate::Histogram> =
                ::std::sync::OnceLock::new();
            SITE.get_or_init(|| $crate::histogram($name)).record_unchecked($v);
        }
    };
}

/// Start an RAII span that records its elapsed nanoseconds into the
/// named histogram when dropped. Returns `None` (no clock read at all)
/// while telemetry is disabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        if $crate::enabled() {
            static SITE: ::std::sync::OnceLock<&'static $crate::Histogram> =
                ::std::sync::OnceLock::new();
            Some($crate::Span::start(SITE.get_or_init(|| $crate::histogram($name))))
        } else {
            None
        }
    }};
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Unit tests flip the global enabled flag; serialize them so a
    /// disabled-path assertion never races an enabled test.
    pub fn guard() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_macros_record_nothing() {
        let _g = testutil::guard();
        set_enabled(false);
        count!("lib.disabled_counter");
        observe!("lib.disabled_hist", 42);
        assert!(span!("lib.disabled_span").is_none());
        set_enabled(true);
        count!("lib.disabled_counter");
        set_enabled(false);
        // Only the enabled increment landed.
        assert_eq!(counter("lib.disabled_counter").value(), 1);
        assert_eq!(histogram("lib.disabled_hist").merged().count, 0);
    }

    #[test]
    fn span_macro_times_into_histogram() {
        let _g = testutil::guard();
        set_enabled(true);
        {
            let _s = span!("lib.span_hist");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        set_enabled(false);
        let h = histogram("lib.span_hist").merged();
        assert_eq!(h.count, 1);
        assert!(h.min >= 1_000_000, "span recorded {} ns", h.min);
    }
}

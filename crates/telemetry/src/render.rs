//! Read-side snapshot and its renderers.
//!
//! Both renderers are deterministic: metrics come from the registry in
//! name order, histogram buckets in value order. Two snapshots of
//! identical recorded values render byte-identical documents.

use crate::json::JsonWriter;
use crate::metrics::HistSnapshot;
use std::fmt::Write as _;

/// A merged view of every registered metric, as produced by
/// [`crate::snapshot`].
pub struct TelemetrySnapshot {
    /// `(name, merged value)` in name order.
    pub counters: Vec<(String, u64)>,
    /// `(name, merged value)` in name order.
    pub gauges: Vec<(String, i64)>,
    /// `(name, merged view)` in name order.
    pub histograms: Vec<(String, HistSnapshot)>,
}

impl TelemetrySnapshot {
    /// Is there anything to report?
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|(_, v)| *v == 0)
            && self.gauges.iter().all(|(_, v)| *v == 0)
            && self.histograms.iter().all(|(_, h)| h.count == 0)
    }

    /// Fixed-width text table (zero-valued metrics are elided).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("== telemetry ==\n");
        let live_counters: Vec<_> =
            self.counters.iter().filter(|(_, v)| *v != 0).collect();
        if !live_counters.is_empty() {
            out.push_str("[counters]\n");
            for (name, v) in live_counters {
                let _ = writeln!(out, "  {name:<40} {v:>16}");
            }
        }
        let live_gauges: Vec<_> = self.gauges.iter().filter(|(_, v)| *v != 0).collect();
        if !live_gauges.is_empty() {
            out.push_str("[gauges]\n");
            for (name, v) in live_gauges {
                let _ = writeln!(out, "  {name:<40} {v:>16}");
            }
        }
        let live_hists: Vec<_> =
            self.histograms.iter().filter(|(_, h)| h.count != 0).collect();
        if !live_hists.is_empty() {
            out.push_str("[histograms]\n");
            for (name, h) in live_hists {
                let _ = writeln!(
                    out,
                    "  {name:<40} count={} min={} mean={:.1} max={}",
                    h.count,
                    h.min,
                    h.mean(),
                    h.max
                );
            }
        }
        out
    }

    /// Compact JSON document (zero-valued metrics included — the schema
    /// is stable regardless of what fired).
    pub fn render_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("counters").begin_object();
        for (name, v) in &self.counters {
            w.key(name).u64(*v);
        }
        w.end_object();
        w.key("gauges").begin_object();
        for (name, v) in &self.gauges {
            w.key(name).i64(*v);
        }
        w.end_object();
        w.key("histograms").begin_object();
        for (name, h) in &self.histograms {
            w.key(name).begin_object();
            w.key("count").u64(h.count);
            w.key("sum").u64(h.sum);
            w.key("min").u64(if h.count == 0 { 0 } else { h.min });
            w.key("max").u64(h.max);
            w.key("mean").f64(h.mean());
            w.key("buckets").begin_array();
            for (lo, hi, c) in h.nonzero_buckets() {
                w.begin_object();
                w.key("lo").u64(lo);
                w.key("hi").u64(hi);
                w.key("count").u64(c);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }

    /// Prometheus text exposition format (version 0.0.4).
    ///
    /// Renders from the same frozen, name-ordered snapshot as
    /// [`Self::render_json`] — never from the live registry — so a
    /// single snapshot taken under concurrent jobs yields one coherent,
    /// deterministic document (no interleaved shard reads; two calls on
    /// one snapshot are byte-identical). Metric names are prefixed with
    /// `cfpd_` and sanitized to `[a-zA-Z0-9_]` (dots become
    /// underscores). Histograms render as cumulative `_bucket` series
    /// over the log2 bucket upper bounds plus the mandatory
    /// `le="+Inf"`, `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 5);
            out.push_str("cfpd_");
            for c in name.chars() {
                out.push(if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' });
            }
            out
        }
        let mut out = String::new();
        let w = &mut out;
        for (name, v) in &self.counters {
            let n = sanitize(name);
            let _ = writeln!(w, "# TYPE {n} counter");
            let _ = writeln!(w, "{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            let _ = writeln!(w, "# TYPE {n} gauge");
            let _ = writeln!(w, "{n} {v}");
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            let _ = writeln!(w, "# TYPE {n} histogram");
            // Cumulative counts at each non-empty bucket's inclusive
            // upper bound; the final +Inf bucket always carries the
            // total.
            let mut cum = 0u64;
            for (_, hi, c) in h.nonzero_buckets() {
                cum += c;
                if hi == u64::MAX {
                    continue; // folded into +Inf below
                }
                let _ = writeln!(w, "{n}_bucket{{le=\"{hi}\"}} {cum}");
            }
            let _ = writeln!(w, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(w, "{n}_sum {}", h.sum);
            let _ = writeln!(w, "{n}_count {}", h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::BUCKETS;

    fn sample() -> TelemetrySnapshot {
        let mut buckets = [0u64; BUCKETS];
        buckets[1] = 2;
        buckets[3] = 1;
        TelemetrySnapshot {
            counters: vec![("a.count".into(), 3), ("b.zero".into(), 0)],
            gauges: vec![("g.cores".into(), -2)],
            histograms: vec![(
                "h.wait".into(),
                HistSnapshot { count: 3, sum: 7, min: 1, max: 5, buckets },
            )],
        }
    }

    #[test]
    fn renders_are_deterministic_and_structured() {
        let s = sample();
        assert_eq!(s.render_table(), s.render_table());
        assert_eq!(s.render_json(), s.render_json());
        let table = s.render_table();
        assert!(table.contains("a.count"));
        assert!(!table.contains("b.zero"), "zero counters elided from the table");
        let json = s.render_json();
        assert!(json.contains(r#""b.zero":0"#), "zero counters kept in JSON");
        assert!(json.contains(r#""lo":4,"hi":7,"count":1"#));
    }

    #[test]
    fn prometheus_render_is_deterministic_and_cumulative() {
        let s = sample();
        assert_eq!(s.render_prometheus(), s.render_prometheus());
        let prom = s.render_prometheus();
        // Dots sanitized, TYPE lines precede samples.
        assert!(prom.contains("# TYPE cfpd_a_count counter\ncfpd_a_count 3\n"));
        assert!(prom.contains("# TYPE cfpd_g_cores gauge\ncfpd_g_cores -2\n"));
        // Histogram buckets are cumulative: bucket 1 ([1,1]) holds 2,
        // bucket 3 ([4,7]) brings the running total to 3.
        assert!(prom.contains("cfpd_h_wait_bucket{le=\"1\"} 2\n"));
        assert!(prom.contains("cfpd_h_wait_bucket{le=\"7\"} 3\n"));
        assert!(prom.contains("cfpd_h_wait_bucket{le=\"+Inf\"} 3\n"));
        assert!(prom.contains("cfpd_h_wait_sum 7\n"));
        assert!(prom.contains("cfpd_h_wait_count 3\n"));
        assert!(prom.ends_with('\n'));
    }

    #[test]
    fn empty_snapshot_reports_empty() {
        let s = TelemetrySnapshot {
            counters: vec![("a".into(), 0)],
            gauges: vec![],
            histograms: vec![],
        };
        assert!(s.is_empty());
        assert_eq!(s.render_json(), r#"{"counters":{"a":0},"gauges":{},"histograms":{}}"#);
    }
}

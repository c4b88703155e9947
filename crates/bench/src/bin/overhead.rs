//! Telemetry overhead microbench.
//!
//! Times the per-operation cost of each telemetry primitive, most
//! importantly the disabled fast path: a `count!` with telemetry off
//! must stay in the single-digit-ns range so the hooks can remain
//! compiled into every hot loop unconditionally.
//!
//! Writes `results/BENCH_telemetry_overhead.json` plus a repo-root
//! copy `BENCH_telemetry_overhead.json` (same row schema as
//! `BENCH_hotpath.json`: `{ name, median_ns, min_ns, max_ns, iters,
//! elements }`, where the times are per-op and `elements` is ops per
//! sample).

#![forbid(unsafe_code)]

use cfpd_telemetry::{self as tel, Span};
use cfpd_testkit::bench::{Bench, BenchConfig, BenchStats};

const OPS: usize = 1_000_000;
const OPS_QUICK: usize = 100_000;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let ops = if quick { OPS_QUICK } else { OPS };
    let config = if quick {
        BenchConfig { warmup: 1, samples: 5 }
    } else {
        BenchConfig { warmup: 3, samples: 15 }
    };
    let mut b = Bench::with_config("telemetry_overhead", config);

    // Disabled path: the macro's `enabled()` check short-circuits, so
    // this is the cost every instrumented hot loop pays when telemetry
    // is off. black_box keeps the loop from being optimised away.
    tel::set_enabled(false);
    b.bench("counter_disabled", || {
        for i in 0..ops {
            tel::count!("bench.overhead.disabled");
            std::hint::black_box(i);
        }
    });

    tel::set_enabled(true);
    tel::reset();
    b.bench("counter_enabled", || {
        for i in 0..ops {
            tel::count!("bench.overhead.enabled");
            std::hint::black_box(i);
        }
    });

    b.bench("histogram_record", || {
        for i in 0..ops {
            tel::observe!("bench.overhead.hist", (i & 0xffff) as u64);
        }
    });

    // Span covers two Instant::now() calls plus a histogram record.
    let span_ops = ops / 10;
    let span_hist = tel::histogram("bench.overhead.span_ns");
    b.bench("span_create_drop", || {
        for _ in 0..span_ops {
            let s = Span::start(span_hist);
            std::hint::black_box(&s);
        }
    });
    tel::set_enabled(false);
    tel::reset();

    // Flight recorder: the disabled path is the cost compiled into
    // every hot loop when the black box is off; the enabled path is
    // the full ring write (seq claim + 5 atomic stores) and carries
    // the <= 100 ns/record budget from the observability contract.
    cfpd_flight::set_enabled(false);
    b.bench("flight_disabled", || {
        for i in 0..ops {
            cfpd_flight::record(cfpd_flight::EventKind::Mark, 0, 0, i as u64, 0);
            std::hint::black_box(i);
        }
    });

    cfpd_flight::set_enabled(true);
    cfpd_flight::reset();
    let flight_ops = ops / 10;
    b.bench("flight_record", || {
        for i in 0..flight_ops {
            cfpd_flight::record(cfpd_flight::EventKind::Mark, 0, 1, i as u64, i as u64);
        }
    });
    cfpd_flight::set_enabled(false);
    cfpd_flight::reset();

    println!("telemetry overhead ({} ops/sample{})", ops, if quick { ", quick" } else { "" });
    for (name, stats) in b.rows() {
        let per_op = per_op_ns(stats, ops_for(name, ops));
        println!("  {name:<20} {per_op:>8.2} ns/op  (median of {} samples)", stats.samples);
    }

    write_json(b.rows(), ops, quick);
}

fn ops_for(name: &str, ops: usize) -> usize {
    match name {
        "span_create_drop" | "flight_record" => ops / 10,
        _ => ops,
    }
}

fn per_op_ns(stats: &BenchStats, ops: usize) -> f64 {
    stats.median * 1e9 / ops as f64
}

fn write_json(rows: &[(String, BenchStats)], ops: usize, quick: bool) {
    let mut body = String::from("{\n");
    body.push_str(&format!(
        "  \"bench\": \"telemetry_overhead\",\n  \"quick\": {quick},\n  \"ops_per_sample\": {ops},\n"
    ));
    let flat: Vec<(String, [f64; 3], usize, usize)> = rows
        .iter()
        .map(|(name, s)| {
            let n = ops_for(name, ops);
            let per_op = [s.min, s.median, s.max].map(|t| t * 1e9 / n as f64);
            (name.clone(), per_op, s.samples as usize, n)
        })
        .collect();
    body.push_str(&cfpd_bench::json_rows(&flat, 3));
    body.push_str("}\n");
    cfpd_bench::emit_json("BENCH_telemetry_overhead", quick, &body);
}

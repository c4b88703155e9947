//! What a run is configured with, what it produces, and how that is
//! printed: a human-readable table, one line appended to the results
//! file, and the machine-readable last line of standard output.

use crate::host::{json_escape, HostBlock};
use crate::metrics::{declared, workload_index, Metrics, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats::Summary;
use std::io::Write;
use std::path::PathBuf;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// How long the timed loop of an untraced run measures.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke run: small inputs, few ops, numbers not comparable.
    pub quick: bool,
    /// Root of the checkout (holds `BENCHMARK.json` and `tests/golden`).
    pub root: PathBuf,
    /// Results file a line is appended to.
    pub out: PathBuf,
}

impl RunConfig {
    /// Every metric is a median over at least this many ops.
    pub fn min_ops(&self) -> usize {
        if self.quick {
            2
        } else {
            10
        }
    }

    /// Ops of each kind in the traced pass.
    pub fn traced_ops(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }

    /// Scratch directory of this process inside the checkout.
    pub fn scratch_dir(&self) -> PathBuf {
        self.root
            .join("benchmark/out")
            .join(format!("tmp-{}", std::process::id()))
    }
}

#[derive(Default)]
pub struct RunOutput {
    pub attempted: usize,
    pub failed: usize,
    /// Why ops or whole-run checks failed (first few).
    pub failures: Vec<String>,
    /// A check outside any op failed: the run is incorrect even with
    /// every op passing.
    pub run_check_failed: bool,
    pub metrics: Metrics,
    pub timings: Vec<(String, Summary)>,
    /// Explanatory lines printed under the table.
    pub lines: Vec<String>,
    /// The yardstick readings of the run (`host::HostScaled`), one per op.
    pub slowdowns: Vec<f64>,
    /// Digest of the workload's reference document (0 for `serve_jobs`).
    pub digest: u64,
    pub spans: Option<Spans>,
}

const MAX_FAILURE_LINES: usize = 12;

impl RunOutput {
    fn remember(&mut self, reasons: Vec<String>) {
        let room = MAX_FAILURE_LINES.saturating_sub(self.failures.len());
        self.failures.extend(reasons.into_iter().take(room));
    }

    /// Count the op just attempted as failed if any check objected.
    pub fn fail_op(&mut self, reasons: Vec<String>) {
        if !reasons.is_empty() {
            self.failed += 1;
            self.remember(reasons);
        }
    }

    /// A once-per-run check objected.
    pub fn fail_all(&mut self, reasons: Vec<String>) {
        if !reasons.is_empty() {
            self.run_check_failed = true;
            self.remember(reasons);
        }
    }

    /// The run could not start (no reference op, no daemon): one failed
    /// op, nothing measured.
    pub fn abort(mut self, reason: String) -> RunOutput {
        self.attempted = 1;
        self.failed = 1;
        self.failures.push(reason);
        self
    }

    pub fn timing(&mut self, label: &str, s: Summary) {
        self.timings.push((label.to_string(), s));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.run_check_failed && self.attempted > 0
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The human-readable report on standard output.
pub fn print_table(cfg: &RunConfig, out: &RunOutput, host: &HostBlock) {
    let w = workload_index(&cfg.workload).expect("workload validated");
    println!(
        "== {} seed {} {}{}",
        cfg.workload,
        cfg.seed,
        if cfg.trace {
            "traced pass (per-layer)"
        } else {
            "untraced run (end-to-end)"
        },
        if cfg.quick {
            "  [--quick: small inputs, numbers NOT comparable]"
        } else {
            ""
        },
    );
    println!(
        "host: nproc {} | {} | features {} | {} | commit {}",
        host.nproc, host.cpu_model, host.target_features, host.rustc, host.git_commit
    );
    println!(
        "host: loadavg {:.2} -> {:.2} | slowdown {:.3} (lowest {:.3}, highest {:.3}) | steal {:.4}",
        host.loadavg_before,
        host.loadavg_after,
        host.slowdown[1],
        host.slowdown[0],
        host.slowdown[2],
        host.steal_frac
    );
    println!(
        "ops: attempted {} failed {} correct {}",
        out.attempted,
        out.failed,
        out.correct()
    );
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    for (label, s) in &out.timings {
        println!("  {label:<44} {} [s]", s.render(1.0));
    }
    let mut layer = "";
    for d in declared(cfg.trace) {
        let Some(v) = out.metrics.get(d.name) else {
            debug_assert!(
                !d.applies_to(w),
                "{} applies to {} but was not measured",
                d.name,
                cfg.workload
            );
            continue;
        };
        let this = crate::spans::layer_of(d.name);
        if cfg.trace && this != layer {
            layer = this;
            println!("  [{layer}]");
        }
        println!("  {:<36} {:>16} {}", d.name, fmt_value(v), d.unit);
    }
    if let Some(spans) = &out.spans {
        println!("  self time per layer (span minus children), s:");
        for (layer, t) in spans.self_time_by_layer() {
            println!("    {layer:<12} {t:>10.4}");
        }
    }
    for l in &out.lines {
        println!("  {l}");
    }
}

/// Values for the declared metrics of this mode: measured, or 0 where
/// the metric does not apply to the workload.
fn declared_values(cfg: &RunConfig, out: &RunOutput) -> Vec<(&'static str, &'static str, f64)> {
    declared(cfg.trace)
        .iter()
        .map(|d| (d.name, d.unit, out.metrics.get(d.name).unwrap_or(0.0)))
        .collect()
}

fn metrics_json(values: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| {
            // JSON has no NaN or infinity; a reading that is neither is a bug
            // upstream, reported as 0 rather than as an unparsable line.
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn last_line(cfg: &RunConfig, out: &RunOutput) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics_json(&declared_values(cfg, out)),
    )
}

/// One run as one line of JSON, appended to the results file that
/// `compare` reads.
pub fn append_result(cfg: &RunConfig, out: &RunOutput, host: &HostBlock) -> std::io::Result<()> {
    let w = workload_index(&cfg.workload).expect("workload validated");
    let not_applicable: Vec<String> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .filter(|d| !d.applies_to(w))
        .map(|d| format!("\"{}\"", d.name))
        .collect();
    let measured: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .filter_map(|d| out.metrics.get(d.name).map(|v| (d.name, d.unit, v)))
        .collect();
    // Medians of every printed timing, the seconds as timed among them.
    let timings: Vec<String> = out
        .timings
        .iter()
        .map(|(label, t)| format!("\"{}\":{}", json_escape(label), t.median))
        .collect();
    let failures: Vec<String> = out
        .failures
        .iter()
        .map(|f| format!("\"{}\"", json_escape(f)))
        .collect();
    let line = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"quick\":{},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"digest\":\"{:016x}\",\
         \"metrics\":{},\"timing_medians\":{{{}}},\"not_applicable\":[{}],\"failures\":[{}],\
         \"host\":{}}}\n",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.quick,
        out.correct(),
        out.attempted,
        out.failed,
        out.digest,
        metrics_json(&measured),
        timings.join(","),
        not_applicable.join(","),
        failures.join(","),
        host.to_json(),
    );
    if let Some(dir) = cfg.out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&cfg.out)?;
    f.write_all(line.as_bytes())
}

//! Warmup + median bench timer — the in-repo `criterion` replacement.
//!
//! Each benchmark routine is run `warmup` times untimed, then `samples`
//! times timed; the report carries min / median / mean per routine.
//! Reports render as plain text compatible with the `results/*.txt`
//! layout the figure harnesses emit (header line, aligned columns), and
//! can be written to `results/<name>.txt` at the workspace root.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Sampling configuration.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Untimed runs before sampling (cache/branch-predictor warmup).
    pub warmup: u32,
    /// Timed runs per routine.
    pub samples: u32,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig { warmup: 3, samples: 10 }
    }
}

/// Robust summary of one routine's timed samples (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchStats {
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub mean: f64,
    pub samples: u32,
}

impl BenchStats {
    fn from_samples(mut times: Vec<f64>) -> BenchStats {
        assert!(!times.is_empty());
        times.sort_by(|a, b| a.total_cmp(b));
        let n = times.len();
        let median = if n % 2 == 1 {
            times[n / 2]
        } else {
            0.5 * (times[n / 2 - 1] + times[n / 2])
        };
        BenchStats {
            min: times[0],
            median,
            max: times[n - 1],
            mean: times.iter().sum::<f64>() / n as f64,
            samples: n as u32,
        }
    }
}

/// Append one provenance line for the artifact `body` of `stem` to
/// `trajectory.jsonl` in the results directory `dir`: when, its digest,
/// its size.
pub fn append_trajectory(dir: &Path, stem: &str, body: &str) -> std::io::Result<()> {
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let line = format!(
        "{{\"bench\":\"{stem}\",\"unix_s\":{unix_s},\"digest\":\"{:016x}\",\"bytes\":{}}}\n",
        crate::digest_bytes(body.as_bytes()),
        body.len()
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("trajectory.jsonl"))
        .and_then(|mut f| f.write_all(line.as_bytes()))
}

fn format_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} us", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

/// A named group of benchmark routines sharing one config and report.
pub struct Bench {
    name: String,
    config: BenchConfig,
    rows: Vec<(String, BenchStats)>,
}

impl Bench {
    pub fn new(name: &str) -> Bench {
        Bench::with_config(name, BenchConfig::default())
    }

    pub fn with_config(name: &str, config: BenchConfig) -> Bench {
        Bench { name: name.to_string(), config, rows: Vec::new() }
    }

    /// Time `routine` as-is (setup cost, if any, is included).
    pub fn bench<F: FnMut()>(&mut self, label: &str, mut routine: F) -> BenchStats {
        for _ in 0..self.config.warmup {
            routine();
        }
        let times: Vec<f64> = (0..self.config.samples.max(1))
            .map(|_| {
                let t0 = Instant::now();
                routine();
                t0.elapsed().as_secs_f64()
            })
            .collect();
        self.push(label, times)
    }

    /// Time `routine` on a fresh `setup()` product per sample, timing
    /// only the routine (criterion's `iter_batched`).
    pub fn bench_batched<I, S, F>(&mut self, label: &str, mut setup: S, mut routine: F) -> BenchStats
    where
        S: FnMut() -> I,
        F: FnMut(I),
    {
        for _ in 0..self.config.warmup {
            routine(setup());
        }
        let times: Vec<f64> = (0..self.config.samples.max(1))
            .map(|_| {
                let input = setup();
                let t0 = Instant::now();
                routine(input);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        self.push(label, times)
    }

    fn push(&mut self, label: &str, times: Vec<f64>) -> BenchStats {
        let stats = BenchStats::from_samples(times);
        self.rows.push((label.to_string(), stats));
        stats
    }

    /// All recorded rows, in execution order.
    pub fn rows(&self) -> &[(String, BenchStats)] {
        &self.rows
    }

    /// Plain-text report in the `results/*.txt` house style.
    pub fn report(&self) -> String {
        let mut out = format!(
            "{} — warmup {} / {} samples per routine (median-reported)\n\n",
            self.name, self.config.warmup, self.config.samples
        );
        let width = self.rows.iter().map(|(l, _)| l.len()).max().unwrap_or(8).max(8);
        out.push_str(&format!(
            "{:<width$}  {:>12}  {:>12}  {:>12}\n",
            "routine", "median", "min", "mean"
        ));
        out.push_str(&format!("{}\n", "-".repeat(width + 44)));
        for (label, s) in &self.rows {
            out.push_str(&format!(
                "{label:<width$}  {:>12}  {:>12}  {:>12}\n",
                format_time(s.median),
                format_time(s.min),
                format_time(s.mean),
            ));
        }
        out
    }

    /// Print the report and write it to `<results_dir>/<name>.txt`.
    pub fn emit(&self, results_dir: &Path) -> std::io::Result<PathBuf> {
        let text = self.report();
        print!("{text}");
        std::fs::create_dir_all(results_dir)?;
        let path = results_dir.join(format!("{}.txt", self.name));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(text.as_bytes())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_median_and_min() {
        let s = BenchStats::from_samples(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.mean, 2.0);
        let even = BenchStats::from_samples(vec![4.0, 1.0, 2.0, 3.0]);
        assert_eq!(even.median, 2.5);
    }

    #[test]
    fn bench_counts_warmup_and_samples() {
        let mut calls = 0u32;
        let mut b = Bench::with_config("smoke", BenchConfig { warmup: 2, samples: 5 });
        b.bench("count", || calls += 1);
        assert_eq!(calls, 7);
        assert_eq!(b.rows().len(), 1);
        assert_eq!(b.rows()[0].1.samples, 5);
    }

    #[test]
    fn bench_batched_times_only_the_routine() {
        let mut setups = 0u32;
        let mut runs = 0u32;
        let mut b = Bench::with_config("smoke", BenchConfig { warmup: 1, samples: 3 });
        b.bench_batched("batched", || setups += 1, |_| runs += 1);
        assert_eq!(setups, 4);
        assert_eq!(runs, 4);
    }

    #[test]
    fn report_lists_every_routine() {
        let mut b = Bench::with_config("layout", BenchConfig { warmup: 0, samples: 1 });
        b.bench("alpha", || {});
        b.bench("beta_longer_name", || {});
        let r = b.report();
        assert!(r.contains("alpha"));
        assert!(r.contains("beta_longer_name"));
        assert!(r.contains("median"));
    }

    #[test]
    fn time_formatting_scales() {
        assert_eq!(format_time(2.5), "2.500 s");
        assert_eq!(format_time(2.5e-3), "2.500 ms");
        assert_eq!(format_time(2.5e-6), "2.500 us");
        assert_eq!(format_time(2.5e-8), "25.0 ns");
    }
}

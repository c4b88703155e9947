//! `cfpd-benchmark`: the repository's benchmark, driven from outside
//! through `run_scenario`, campaign DSL text and the `cfpd-serve` daemon
//! over real HTTP. See `benchmark/README.md`.
//!
//! ```text
//! cfpd-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out FILE]
//! cfpd-benchmark compare A B
//! cfpd-benchmark manifest
//! ```

mod api;
mod check;
mod compare;
mod host;
mod layers;
mod metrics;
mod report;
mod serve;
mod sim;
mod spans;
mod stats;

use report::RunConfig;
use std::path::PathBuf;

/// What `BENCHMARK.json` asks the driver to pass as `--seconds`.
const RUN_SECONDS: u64 = 25;

const USAGE: &str = "usage:
  cfpd-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out FILE]
      workloads: fluid_serial particles_serial coupled_dlb serve_jobs
      --trace 0  untraced run, prints the end-to-end metrics (default)
      --trace 1  traced pass, prints the per-layer metrics
      --quick    small inputs and a few ops: a smoke run, numbers not comparable
      --out      results file one JSON line is appended to
                 (default benchmark/out/results.jsonl)
  cfpd-benchmark compare A B    verdict per workload and end-to-end metric
  cfpd-benchmark manifest       print BENCHMARK.json from the metric tables";

/// The checkout root: the working directory when it holds
/// `BENCHMARK.json` (how the driver runs the benchmark), else the parent
/// of this package's directory.
fn find_root() -> PathBuf {
    match std::env::current_dir() {
        Ok(cwd) if cwd.join("BENCHMARK.json").is_file() => cwd,
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".."),
    }
}

fn parse_run(args: &[String]) -> Result<RunConfig, String> {
    let root = find_root();
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: root.join("benchmark/out/results.jsonl"),
        root,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => {
                cfg.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => cfg.quick = true,
            "--out" => cfg.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if metrics::workload_index(&cfg.workload).is_none() {
        return Err(format!(
            "--workload must name one of the four workloads, got {:?}",
            cfg.workload
        ));
    }
    if cfg.quick {
        cfg.seconds = cfg.seconds.min(1.0);
    }
    Ok(cfg)
}

fn run(cfg: &RunConfig) {
    let host = host::HostStart::begin();
    let mut out = match (cfg.workload.as_str(), cfg.trace) {
        ("serve_jobs", false) => serve::run_untraced(cfg),
        ("serve_jobs", true) => serve::run_traced(cfg),
        (_, false) => sim::run_untraced(cfg),
        (_, true) => sim::run_traced(cfg),
    };
    let host = host.finish(&out.slowdowns);
    if cfg.trace {
        out.metrics.set("host.slowdown", host.slowdown[1]);
        out.metrics
            .set("host.slowdown_range_frac", host.slowdown_range_frac());
        out.metrics.set("host.steal_frac", host.steal_frac);
    }
    report::print_table(cfg, &out, &host);
    if let Some(spans) = &out.spans {
        let path = cfg
            .root
            .join("benchmark/out")
            .join(format!("trace_{}.json", cfg.workload));
        let written = std::fs::create_dir_all(path.parent().expect("path has a parent"))
            .and_then(|()| std::fs::write(&path, spans.to_chrome_json()));
        match written {
            Ok(()) => println!(
                "  {} spans written to {}",
                spans.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    if let Err(e) = report::append_result(cfg, &out, &host) {
        eprintln!("cannot append to {}: {e}", cfg.out.display());
    }
    println!("{}", report::last_line(cfg, &out));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            compare::run(&args[1], &args[2]).map(|r| print!("{r}"))
        }
        Some("manifest") if args.len() == 1 => {
            print!("{}", metrics::manifest_json(RUN_SECONDS));
            Ok(())
        }
        Some("-h" | "--help") | None => Err(USAGE.to_string()),
        _ => parse_run(&args).map(|cfg| run(&cfg)),
    };
    if let Err(e) = outcome {
        eprintln!("{e}");
        if e != USAGE {
            eprintln!("{USAGE}");
        }
        std::process::exit(2);
    }
    // An op that timed out left its thread behind; do not wait for it.
    std::process::exit(0);
}

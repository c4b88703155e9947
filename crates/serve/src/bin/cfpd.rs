//! `cfpd` — command-line front end of the reproduction.
//!
//! ```text
//! cfpd mesh     [--generations N] [--vtk FILE]      mesh stats / export
//! cfpd run      [--ranks N] [--threads N] [--dlb] [--coupled F P]
//!               [--particles N] [--steps N] [--strategy S]
//!               [--hetero PROFILE]
//! cfpd profile  [--ranks N] [--particles N]         Table-1-style profile
//! cfpd golden   [--ranks N] [--layout opt]          deterministic trace
//! cfpd chaos    [--seed S] [--ranks N] [--dlb] [--storm] [--json]
//!                                                   seeded fault-injection run
//! cfpd report   [--ranks N] [--json]                telemetry + POP rollup
//! cfpd trace    export|analyze|diff                 trace export and analysis
//! cfpd campaign expand|run|report FILE              scenario matrix engine
//! cfpd serve    run|submit|status|result|cancel|metrics|drain
//!                                                   crash-safe job daemon
//! cfpd flight   dump|analyze                        post-mortem black box
//! cfpd watch    JOB --addr HOST:PORT                a served job's progress
//! ```
//!
//! Argument parsing is deliberately dependency-free (tiny flag set).
//!
//! With `CFPD_TELEMETRY=1`, `golden` and `chaos` print an end-of-run
//! telemetry summary to **stderr** — stdout stays byte-identical to the
//! checked-in goldens.

#![forbid(unsafe_code)]

use cfpd_campaign::{expand, full_matrix_size, run_campaign_with, CampaignSpec};
use cfpd_serve::{http_call, lint_prometheus, Daemon, ServeConfig, ServeFaultPlan};
use cfpd_core::{
    golden_config, golden_trace_traced, measure_workload, run_scenario, run_simulation,
    run_simulation_fallible, run_simulation_opts, ExecutionMode, LayoutPlan, RunOptions, Scenario,
    SimulationConfig, PhaseCostModel,
};
use cfpd_mesh::{generate_airway, AirwaySpec};
use cfpd_simmpi::FaultConfig;
use cfpd_solver::AssemblyStrategy;
use cfpd_trace::{
    critical_path, diff_summaries, export_chrome, export_pcf, export_prv, export_row,
    export_summary, lost_cycles, render_timeline, Phase, PopTotals, Trace,
};
use std::path::{Path, PathBuf};

fn main() {
    cfpd_telemetry::init_from_env();
    cfpd_flight::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The one place a refused flag exits: every refusal is a message
    // naming the flag, made before the verb runs anything.
    if let Err(message) = dispatch(&args) {
        eprintln!("{message}");
        std::process::exit(2);
    }
}

/// Run the verb `args` names, or return the refusal of its flags.
fn dispatch(args: &[String]) -> Result<(), String> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let flags = |table: Table| Flags::parse(&args[1.min(args.len())..], table);
    match cmd {
        "mesh" => cmd_mesh(&flags(MESH)?),
        "run" => cmd_run(&flags(RUN)?),
        "profile" => cmd_profile(&flags(PROFILE)?),
        "golden" => return cmd_golden(&flags(GOLDEN)?),
        "chaos" => cmd_chaos(&flags(CHAOS)?),
        "report" => cmd_report(&flags(REPORT)?),
        "trace" => return cmd_trace(args),
        "campaign" => return cmd_campaign(args),
        "serve" => return cmd_serve(args),
        "flight" => return cmd_flight(args),
        "watch" => return cmd_watch(args),
        _ => {
            eprintln!(
                "usage: cfpd <mesh|run|profile|golden|chaos|report|trace|campaign|serve|flight|watch> [flags]\n\
                 \n\
                 mesh     --generations N  --vtk FILE\n\
                 run      --ranks N  --threads N  --dlb  --coupled F P\n\
                 \x20        --particles N  --steps N  --strategy atomics|coloring|multidep|serial\n\
                 \x20        --hetero uniform|mn4_thunder|thunder_tail\n\
                 profile  --ranks N  --particles N\n\
                 golden   --ranks N  --layout opt|default  --trace DIR\n\
                 chaos    --seed S  --ranks N  --dlb  --storm  --json  --trace DIR\n\
                 report   --ranks N  --json  --trace DIR  --baseline JSON [--tolerance X]\n\
                 trace    export --ranks N --dlb --out DIR | analyze [--threads N] [--strategy S] [--dlb] | diff A B\n\
                 campaign expand FILE | run FILE [--jobs N] [--json] [--report PATH] [--timing]\n\
                 \x20        [--cell-timeout SECS] | report FILE --baseline PATH [--jobs N]\n\
                 serve    run [--addr A] [--data DIR] [--workers N] ... | submit FILE | status JOB\n\
                 \x20        | result JOB | cancel JOB | metrics [--lint] | drain   (see cfpd serve)\n\
                 flight   dump [--ranks N] [--out FILE] | analyze FILE [--last N]\n\
                 watch    JOB --addr HOST:PORT [--interval-ms MS]"
            );
            std::process::exit(if cmd == "help" { 0 } else { 2 });
        }
    }
    Ok(())
}

/// Load and validate a campaign file; exit 2 with a `file:line: message`
/// diagnostic on any parse or validation error.
fn load_campaign(path: &str) -> CampaignSpec {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    });
    CampaignSpec::from_text(&text).unwrap_or_else(|e| {
        if e.line > 0 {
            eprintln!("{path}:{}: {}", e.line, e.message);
        } else {
            eprintln!("{path}: {}", e.message);
        }
        std::process::exit(2);
    })
}

/// `cfpd campaign <expand|run|report>` — the scenario matrix engine.
///
/// * `expand FILE` lists the expanded cells without running anything.
/// * `run FILE` fans the matrix out over the worker pool and prints the
///   deterministic aggregate report (exit 3 if any cell failed).
/// * `report FILE --baseline PATH` runs the matrix and diffs the
///   canonical JSON report against the baseline under the campaign's
///   `[budget]`; exit 1 when any delta exceeds its budget.
fn cmd_campaign(args: &[String]) -> Result<(), String> {
    let verb = args.get(1).map(String::as_str).unwrap_or("help");
    let file = args.get(2).map(String::as_str);
    let table = match verb {
        "run" => CAMPAIGN_RUN,
        "report" => CAMPAIGN_REPORT,
        _ => CAMPAIGN_EXPAND,
    };
    let flags = Flags::parse(&args[3.min(args.len())..], table)?;
    let usage = || -> ! {
        eprintln!(
            "usage: cfpd campaign expand FILE\n\
             \x20      cfpd campaign run FILE [--jobs N] [--json] [--report PATH] [--timing]\n\
             \x20          [--cell-timeout SECS]\n\
             \x20      cfpd campaign report FILE --baseline PATH [--jobs N] [--cell-timeout SECS]"
        );
        std::process::exit(if verb == "help" { 0 } else { 2 });
    };
    let Some(file) = file else { usage() };
    let spec = load_campaign(file);
    let jobs = flags.int("--jobs").map(|n| n as usize);
    let cell_timeout = flags.secs("--cell-timeout");
    match verb {
        "expand" => {
            let cells = expand(&spec).expect("validated spec expands");
            println!(
                "campaign {}: {} cells ({} before excludes)",
                spec.name,
                cells.len(),
                full_matrix_size(&spec),
            );
            for c in &cells {
                println!("  {}", c.id);
            }
        }
        "run" => {
            let report = run_campaign_with(&spec, jobs, cell_timeout);
            if let Some(path) = flags.get("--report") {
                std::fs::write(path, report.render_json()).unwrap_or_else(|e| {
                    eprintln!("{path}: {e}");
                    std::process::exit(2);
                });
                eprintln!("report: wrote {path}");
            }
            if flags.has("--json") {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_table());
            }
            if flags.has("--timing") {
                eprint!("{}", report.render_timing());
            }
            if report.failures() > 0 {
                std::process::exit(3);
            }
        }
        "report" => {
            let Some(baseline_path) = flags.get("--baseline") else {
                return Err("--baseline: campaign report needs a baseline PATH".to_string());
            };
            let baseline = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
                eprintln!("{baseline_path}: {e}");
                std::process::exit(2);
            });
            let report = run_campaign_with(&spec, jobs, cell_timeout);
            match cfpd_campaign::compare(&report.render_json(), &baseline, &spec.budget) {
                Ok(delta) => {
                    print!("{}", delta.render());
                    std::process::exit(i32::from(delta.regressions() > 0));
                }
                Err(e) => {
                    eprintln!("campaign report: {e}");
                    std::process::exit(2);
                }
            }
        }
        _ => usage(),
    }
    Ok(())
}

/// `cfpd serve <run|submit|status|result|cancel|metrics|drain>` — the
/// crash-safe job daemon and its client verbs.
///
/// * `run` starts the daemon in the foreground (prints the bound
///   address, serves until drained or killed);
/// * everything else is a thin HTTP client against `--addr`.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let verb = args.get(1).map(String::as_str).unwrap_or("help");
    let usage = || -> ! {
        eprintln!(
            "usage: cfpd serve run [--addr HOST:PORT] [--data DIR] [--workers N]\n\
             \x20         [--queue-cap N] [--ckpt-interval STEPS] [--cell-timeout SECS]\n\
             \x20         [--retry-max N] [--deadline SECS] [--http-threads N] [--drift-factor X]\n\
             \x20         [--fault-seed S] [--fault-crash-first N] [--fault-crash-per-mille X]\n\
             \x20         [--fault-stall-first N] [--fault-stall-ms MS] [--fault-freeze-wal-after N]\n\
             \x20      cfpd serve submit FILE --addr HOST:PORT\n\
             \x20      cfpd serve status JOB --addr HOST:PORT\n\
             \x20      cfpd serve result JOB --addr HOST:PORT\n\
             \x20      cfpd serve cancel JOB --addr HOST:PORT\n\
             \x20      cfpd serve metrics [--lint] --addr HOST:PORT\n\
             \x20      cfpd serve drain --addr HOST:PORT"
        );
        std::process::exit(if verb == "help" { 0 } else { 2 });
    };

    if verb == "run" {
        let flags = Flags::parse(&args[2.min(args.len())..], SERVE_RUN)?;
        // Seeded fault injection (off unless asked for): the same plan
        // the resilience suite drives in-process, exposed so a daemon
        // under external test can replay a chaos scenario from its seed.
        let fault = ServeFaultPlan {
            // The tables bound every value to its field's type.
            seed: flags.int("--fault-seed").unwrap_or(0),
            crash_first_attempts: flags.int("--fault-crash-first").unwrap_or(0) as u32,
            crash_per_mille: flags.int("--fault-crash-per-mille").unwrap_or(0) as u16,
            stall_first_attempts: flags.int("--fault-stall-first").unwrap_or(0) as u32,
            stall_ms: flags.int("--fault-stall-ms").unwrap_or(0),
            freeze_wal_after: flags.int("--fault-freeze-wal-after"),
        };
        let cfg = ServeConfig {
            addr: flags.get("--addr").unwrap_or("127.0.0.1:0").to_string(),
            data_dir: PathBuf::from(flags.get("--data").unwrap_or("serve-data")),
            workers: flags.usize_or("--workers", 2),
            queue_cap: flags.usize_or("--queue-cap", 8),
            ckpt_interval: flags.usize_or("--ckpt-interval", 1),
            cell_timeout: flags.secs("--cell-timeout"),
            retry_max: flags.usize_or("--retry-max", 2) as u32,
            backoff_base_ms: flags.usize_or("--backoff-ms", 25) as u64,
            job_deadline: flags.secs("--deadline"),
            http_threads: flags.usize_or("--http-threads", 2),
            drift_factor: flags.real("--drift-factor").unwrap_or(3.0),
            fault,
        };
        let daemon = Daemon::start(cfg).unwrap_or_else(|e| {
            eprintln!("serve run: {e}");
            std::process::exit(2);
        });
        println!("cfpd-serve listening on {}", daemon.addr());
        daemon.join();
        println!("cfpd-serve drained");
        return Ok(());
    }

    // Client verbs. Positional operand first, flags after.
    let operand = args.get(2).filter(|a| !a.starts_with("--")).map(String::as_str);
    let flag_start = if operand.is_some() { 3 } else { 2 };
    let table = if verb == "metrics" { SERVE_METRICS } else { SERVE_CLIENT };
    let flags = Flags::parse(&args[flag_start.min(args.len())..], table)?;
    if !matches!(verb, "submit" | "status" | "result" | "cancel" | "metrics" | "drain") {
        usage();
    }
    let Some(addr) = flags.get("--addr") else {
        return Err(format!("--addr: serve {verb} needs the daemon's HOST:PORT"));
    };
    let call = |method: &str, path: &str, body: &str| -> (u16, String) {
        http_call(addr, method, path, body).unwrap_or_else(|e| {
            eprintln!("serve {verb}: {addr}: {e}");
            std::process::exit(2);
        })
    };
    let need_operand = |what: &str| {
        operand.map(str::to_string).unwrap_or_else(|| {
            eprintln!("serve {verb}: {what} operand is required");
            std::process::exit(2);
        })
    };

    let (status, body) = match verb {
        "submit" => {
            let file = need_operand("FILE");
            let text = std::fs::read_to_string(&file).unwrap_or_else(|e| {
                eprintln!("{file}: {e}");
                std::process::exit(2);
            });
            call("POST", "/jobs", &text)
        }
        "status" => call("GET", &format!("/jobs/{}", need_operand("JOB")), ""),
        "result" => call("GET", &format!("/jobs/{}/result", need_operand("JOB")), ""),
        "cancel" => call("DELETE", &format!("/jobs/{}", need_operand("JOB")), ""),
        "metrics" => {
            let (status, body) = call("GET", "/metrics", "");
            if flags.has("--lint") {
                match lint_prometheus(&body) {
                    Ok(n) => eprintln!("metrics: {n} samples, lint clean"),
                    Err(e) => {
                        eprintln!("metrics: lint FAILED: {e}");
                        std::process::exit(1);
                    }
                }
            }
            (status, body)
        }
        "drain" => call("POST", "/drain", ""),
        _ => usage(),
    };
    print!("{body}");
    if !body.ends_with('\n') {
        println!();
    }
    if status >= 400 {
        std::process::exit(1);
    }
    Ok(())
}

/// `cfpd flight <dump|analyze>` — the post-mortem black box.
///
/// * `dump` runs the canonical golden-config case with the flight
///   recorder on and writes the ring as a digest-guarded dump (stdout
///   unless `--out FILE`);
/// * `analyze FILE` digest-verifies a dump, renders the last-N-events
///   timeline, and hands the phase events to the `cfpd_trace`
///   critical-path analysis. Exit 1 on a corrupt dump.
fn cmd_flight(args: &[String]) -> Result<(), String> {
    let verb = args.get(1).map(String::as_str).unwrap_or("help");
    match verb {
        "dump" => {
            let flags = Flags::parse(&args[2.min(args.len())..], FLIGHT_DUMP)?;
            let ranks = flags.usize_or("--ranks", 2);
            cfpd_telemetry::set_enabled(true);
            cfpd_flight::set_enabled(true);
            cfpd_flight::reset();
            let _ = run_scenario(&Scenario::deterministic(golden_config(), ranks));
            let text = cfpd_flight::dump_text();
            match flags.get("--out") {
                Some(path) => {
                    std::fs::write(path, &text).unwrap_or_else(|e| {
                        eprintln!("{path}: {e}");
                        std::process::exit(2);
                    });
                    eprintln!("flight: wrote {path}");
                }
                None => print!("{text}"),
            }
        }
        "analyze" => {
            let Some(file) = args.get(2).filter(|a| !a.starts_with("--")) else {
                eprintln!("usage: cfpd flight analyze FILE [--last N]");
                std::process::exit(2);
            };
            let flags = Flags::parse(&args[3.min(args.len())..], FLIGHT_ANALYZE)?;
            let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
                eprintln!("{file}: {e}");
                std::process::exit(2);
            });
            let dump = cfpd_flight::parse_dump(&text).unwrap_or_else(|e| {
                eprintln!("{file}: corrupt flight dump: {e}");
                std::process::exit(1);
            });
            println!(
                "flight dump: {} events ({} dropped by ring wrap, capacity {})",
                dump.events.len(),
                dump.dropped,
                dump.capacity,
            );
            print!("{}", cfpd_flight::render_timeline(&dump.events, flags.usize_or("--last", 40)));
            analyze_flight_phases(&dump.events);
        }
        _ => {
            eprintln!("usage: cfpd flight dump [--ranks N] [--out FILE]\n\
                       \x20      cfpd flight analyze FILE [--last N]");
            std::process::exit(if verb == "help" { 0 } else { 2 });
        }
    }
    Ok(())
}

/// Rebuild a [`cfpd_trace::Trace`] from a dump's phase events and run
/// the critical-path analysis over it.
fn analyze_flight_phases(events: &[cfpd_flight::FlightEvent]) {
    let phase_events: Vec<_> = events
        .iter()
        .filter(|e| {
            e.kind == cfpd_flight::EventKind::Phase && (e.code as usize) < Phase::ALL.len()
        })
        .collect();
    if phase_events.is_empty() {
        println!("critical path: no phase events in the dump");
        return;
    }
    let ranks = phase_events.iter().map(|e| e.rank as usize).max().unwrap_or(0) + 1;
    let mut trace = Trace::new(ranks);
    for e in &phase_events {
        let (t0, t1) = (f64::from_bits(e.a), f64::from_bits(e.b));
        if t1 >= t0 && t0.is_finite() && t1.is_finite() {
            trace.record(e.rank as usize, Phase::ALL[e.code as usize], t0, t1);
        }
    }
    let cp = critical_path(&trace);
    println!(
        "critical path: {:.6}s useful over {:.6}s wall ({} segments, ends on rank {})",
        cp.length,
        cp.wall,
        cp.segments.len(),
        cp.end_rank,
    );
    print!("{}", lost_cycles(&trace).render());
}

/// `cfpd watch JOB --addr HOST:PORT` — polling terminal view of one
/// job: a progress line per interval plus any new supervisor feed
/// events. Exits 0 when the job completes, 1 when it fails or is
/// cancelled.
fn cmd_watch(args: &[String]) -> Result<(), String> {
    let Some(job) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: cfpd watch JOB --addr HOST:PORT [--interval-ms MS]");
        std::process::exit(2);
    };
    let flags = Flags::parse(&args[2.min(args.len())..], WATCH)?;
    let Some(addr) = flags.get("--addr") else {
        return Err("--addr: watch needs the daemon's HOST:PORT".to_string());
    };
    let interval = std::time::Duration::from_millis(flags.int("--interval-ms").unwrap_or(500));
    let mut since = 0u64;
    loop {
        // Drain the supervisor feed first (no long-poll: the progress
        // line is the clock here).
        let (code, body) =
            http_call(addr, "GET", &format!("/events?since={since}&wait_ms=0"), "")
                .unwrap_or_else(|e| {
                    eprintln!("watch: {addr}: {e}");
                    std::process::exit(2);
                });
        if code == 200 {
            if let Ok(doc) = cfpd_testkit::parse_json(&body) {
                if let Some(last) = doc.get("last").and_then(|v| v.as_u64()) {
                    since = last;
                }
                for e in doc.get("events").and_then(|v| v.as_array()).unwrap_or(&[]) {
                    println!(
                        "event  seq {:>4}  {:<12} job {}  {}",
                        e.get("seq").and_then(|v| v.as_u64()).unwrap_or(0),
                        e.get("kind").and_then(|v| v.as_str()).unwrap_or("?"),
                        e.get("job").and_then(|v| v.as_u64()).unwrap_or(0),
                        e.get("detail").and_then(|v| v.as_str()).unwrap_or(""),
                    );
                }
            }
        }

        let (code, body) = http_call(addr, "GET", &format!("/jobs/{job}/progress"), "")
            .unwrap_or_else(|e| {
                eprintln!("watch: {addr}: {e}");
                std::process::exit(2);
            });
        if code != 200 {
            eprintln!("watch: job {job}: {body}");
            std::process::exit(2);
        }
        let doc = cfpd_testkit::parse_json(&body).unwrap_or_else(|e| {
            eprintln!("watch: bad progress document: {e}");
            std::process::exit(2);
        });
        let state = doc.get("state").and_then(|v| v.as_str()).unwrap_or("?").to_string();
        let f = |k: &str| doc.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let u = |k: &str| doc.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
        let pop = doc.get("pop");
        let pf = |k: &str| pop.and_then(|p| p.get(k)).and_then(|v| v.as_f64());
        let mut line = format!(
            "job {job}  {state:<12}  cell {}/{}  steps {}/{}  elapsed {:.1}s  eta {:.1}s",
            u("cell"),
            u("cells"),
            u("steps_done"),
            u("steps_total"),
            f("elapsed_s"),
            f("eta_s"),
        );
        if let (Some(pe), Some(lb), Some(ce)) =
            (pf("parallel_efficiency"), pf("load_balance"), pf("comm_efficiency"))
        {
            line.push_str(&format!("  PE {pe:.3}  LB {lb:.3}  CommE {ce:.3}"));
        }
        println!("{line}");
        match state.as_str() {
            "done" => return Ok(()),
            "failed" | "cancelled" => std::process::exit(1),
            _ => std::thread::sleep(interval),
        }
    }
}

/// Write the full exporter set for a trace into `dir`: Paraver triplet
/// (`trace.prv`/`.pcf`/`.row`), Chrome `chrome.json` and the canonical
/// diffable `summary.json`.
fn write_trace_dir(trace: &Trace, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("trace.prv"), export_prv(trace))?;
    std::fs::write(dir.join("trace.pcf"), export_pcf())?;
    std::fs::write(dir.join("trace.row"), export_row(trace))?;
    std::fs::write(dir.join("chrome.json"), export_chrome(trace))?;
    std::fs::write(dir.join("summary.json"), export_summary(trace))?;
    Ok(())
}

/// `cfpd trace <export|analyze|diff>` — the Paraver-class trace
/// pipeline on the canonical golden-config case.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let verb = args.get(1).map(String::as_str).unwrap_or("help");
    let flags = |table: Table| Flags::parse(&args[2.min(args.len())..], table);
    match verb {
        "export" => trace_export(&flags(TRACE_EXPORT)?),
        "analyze" => trace_analyze(&flags(TRACE_ANALYZE)?),
        "diff" => match (args.get(2), args.get(3)) {
            (Some(a), Some(b)) => trace_diff(a, b),
            _ => {
                eprintln!("usage: cfpd trace diff A B  (trace dirs or summary.json files)");
                std::process::exit(2);
            }
        },
        _ => {
            eprintln!(
                "usage: cfpd trace export  [--ranks N] [--dlb] [--out DIR]\n\
                 \x20      cfpd trace analyze [--ranks N] [--threads N] [--strategy S] [--dlb]\n\
                 \x20      cfpd trace diff A B   (trace dirs or summary.json files)"
            );
            std::process::exit(if verb == "help" { 0 } else { 2 });
        }
    }
    Ok(())
}

/// Run the canonical case with full tracing and write every export
/// format, then re-parse the JSON artifacts with the in-repo RFC 8259
/// parser as a self-check.
fn trace_export(flags: &Flags) {
    let ranks = flags.usize_or("--ranks", 2);
    let dlb = flags.has("--dlb");
    let out = PathBuf::from(flags.get("--out").unwrap_or("trace_out"));
    let config = golden_config();
    let opts = RunOptions { trace: true, dlb, ..Default::default() };
    let r = run_simulation_opts(&config, ranks, 1, &opts);
    write_trace_dir(&r.trace, &out).expect("write trace dir");
    for name in ["chrome.json", "summary.json"] {
        let text = std::fs::read_to_string(out.join(name)).expect(name);
        if let Err(e) = cfpd_testkit::parse_json(&text) {
            eprintln!("{name}: invalid JSON: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "wrote {} (ranks={ranks} dlb={}): trace.prv trace.pcf trace.row chrome.json summary.json",
        out.display(),
        if dlb { "on" } else { "off" },
    );
    println!(
        "events: {} phase, {} worker, {} messages, {} dlb marks",
        r.trace.events.len(),
        r.trace.workers.len(),
        r.trace.messages.len(),
        r.trace.dlb.len(),
    );
    println!("json artifacts validate against the in-repo RFC 8259 parser");
}

/// Critical-path and lost-cycles analysis of a freshly traced canonical
/// run. Exits 1 if the critical path leaves its bounds (at least the
/// busiest rank's useful time, at most the wall time).
fn trace_analyze(flags: &Flags) {
    let ranks = flags.usize_or("--ranks", 2);
    let threads = flags.usize_or("--threads", 1);
    let dlb = flags.has("--dlb");
    let mut config = golden_config();
    config.strategy = strategy_of(flags);
    let r = run_simulation_opts(
        &config,
        ranks,
        threads,
        &RunOptions { trace: true, dlb, ..Default::default() },
    );

    let cp = critical_path(&r.trace);
    println!(
        "critical path: {:.6}s useful over {:.6}s wall ({} segments, ends on rank {})",
        cp.length,
        cp.wall,
        cp.segments.len(),
        cp.end_rank,
    );
    for s in &cp.segments {
        println!(
            "  rank {} [{:.6}, {:.6}]  useful {:.6}s",
            s.rank, s.t_start, s.t_end, s.useful
        );
    }
    let sane = cp.length >= cp.max_rank_useful - 1e-9 && cp.length <= cp.wall + 1e-9;
    println!(
        "bounds: max-rank-useful {:.6} <= path <= wall {:.6}  [{}]",
        cp.max_rank_useful,
        cp.wall,
        if sane { "ok" } else { "VIOLATED" },
    );
    print!("{}", lost_cycles(&r.trace).render());
    if !sane {
        println!("VERDICT: VIOLATED");
        std::process::exit(1);
    }
    println!("VERDICT: critical path within its bounds");
}

/// Diff two trace summaries (dirs or `summary.json` paths); exit 0 on
/// zero structural delta, 1 on mismatch, 2 on unreadable input.
fn trace_diff(a: &str, b: &str) {
    let load = |p: &str| -> String {
        let path = Path::new(p);
        let path =
            if path.is_dir() { path.join("summary.json") } else { path.to_path_buf() };
        std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("{}: {e}", path.display());
            std::process::exit(2);
        })
    };
    let (sa, sb) = (load(a), load(b));
    match diff_summaries(&sa, &sb) {
        Ok(report) => {
            print!("{}", report.render());
            std::process::exit(i32::from(!report.is_zero()));
        }
        Err(e) => {
            eprintln!("trace diff: {e}");
            std::process::exit(2);
        }
    }
}

/// End-of-run telemetry summary on stderr (never stdout: the golden
/// files diff stdout byte-for-byte), with the `[pop]` block of the run's
/// own phase record when there is a run. No-op unless `CFPD_TELEMETRY=1`.
fn telemetry_summary_to_stderr(trace: Option<&Trace>) {
    if cfpd_telemetry::enabled() {
        eprint!("{}", cfpd_telemetry::snapshot().render_table());
        if let Some(trace) = trace {
            eprint!("{}", PopTotals::of(trace).render_table());
        }
    }
}

/// What a flag takes after it.
#[derive(Debug, Clone, Copy)]
enum Arg {
    /// Nothing: a switch.
    Switch,
    /// One word that is not itself a flag (a path, an address, a name).
    Text,
    /// One of these words.
    OneOf(&'static [&'static str]),
    /// An integer in `min..=max`.
    Int(u64, u64),
    /// A finite number above zero (seconds, factors).
    Positive,
    /// A finite number, zero or above (tolerances).
    NonNegative,
    /// Two integers in `min..=max`.
    Int2(u64, u64),
}

/// The flags a verb reads and what each takes.
type Table = &'static [(&'static str, Arg)];

/// Each rank and each worker is an operating-system thread.
const THREADS_MAX: u64 = 256;
const RANKS: Arg = Arg::Int(1, THREADS_MAX);
const THREADS: Arg = Arg::Int(1, THREADS_MAX);
/// `AirwaySpec` refuses more than ten.
const GENERATIONS: Arg = Arg::Int(0, 10);
const COUNT: Arg = Arg::Int(0, u32::MAX as u64);
const STRATEGIES: Arg = Arg::OneOf(&["atomics", "coloring", "multidep", "serial"]);

const MESH: Table = &[("--generations", GENERATIONS), ("--vtk", Arg::Text)];
const RUN: Table = &[
    ("--ranks", RANKS),
    ("--threads", THREADS),
    ("--dlb", Arg::Switch),
    ("--coupled", Arg::Int2(1, THREADS_MAX)),
    ("--generations", GENERATIONS),
    ("--particles", COUNT),
    ("--steps", COUNT),
    ("--strategy", STRATEGIES),
    ("--hetero", Arg::OneOf(&["uniform", "mn4_thunder", "thunder_tail"])),
];
const PROFILE: Table =
    &[("--ranks", RANKS), ("--particles", COUNT), ("--generations", GENERATIONS)];
const GOLDEN: Table = &[("--ranks", RANKS), ("--layout", Arg::Text), ("--trace", Arg::Text)];
const CHAOS: Table = &[
    ("--seed", Arg::Int(0, u64::MAX)),
    ("--ranks", RANKS),
    ("--dlb", Arg::Switch),
    ("--storm", Arg::Switch),
    ("--json", Arg::Switch),
    ("--trace", Arg::Text),
];
const REPORT: Table = &[
    ("--ranks", RANKS),
    ("--json", Arg::Switch),
    ("--trace", Arg::Text),
    ("--baseline", Arg::Text),
    ("--tolerance", Arg::NonNegative),
];
const TRACE_EXPORT: Table = &[("--ranks", RANKS), ("--dlb", Arg::Switch), ("--out", Arg::Text)];
const TRACE_ANALYZE: Table = &[
    ("--ranks", RANKS),
    ("--threads", THREADS),
    ("--strategy", STRATEGIES),
    ("--dlb", Arg::Switch),
];
const CAMPAIGN_EXPAND: Table = &[];
const CAMPAIGN_RUN: Table = &[
    ("--jobs", THREADS),
    ("--json", Arg::Switch),
    ("--report", Arg::Text),
    ("--timing", Arg::Switch),
    ("--cell-timeout", Arg::Positive),
];
const CAMPAIGN_REPORT: Table =
    &[("--baseline", Arg::Text), ("--jobs", THREADS), ("--cell-timeout", Arg::Positive)];
const SERVE_RUN: Table = &[
    ("--addr", Arg::Text),
    ("--data", Arg::Text),
    ("--workers", THREADS),
    ("--queue-cap", Arg::Int(1, u32::MAX as u64)),
    ("--ckpt-interval", Arg::Int(1, u32::MAX as u64)),
    ("--cell-timeout", Arg::Positive),
    ("--retry-max", COUNT),
    ("--backoff-ms", COUNT),
    ("--deadline", Arg::Positive),
    ("--http-threads", THREADS),
    ("--drift-factor", Arg::Positive),
    ("--fault-seed", Arg::Int(0, u64::MAX)),
    ("--fault-crash-first", COUNT),
    ("--fault-crash-per-mille", Arg::Int(0, 1000)),
    ("--fault-stall-first", COUNT),
    ("--fault-stall-ms", COUNT),
    ("--fault-freeze-wal-after", Arg::Int(0, u64::MAX)),
];
const SERVE_CLIENT: Table = &[("--addr", Arg::Text)];
const SERVE_METRICS: Table = &[("--addr", Arg::Text), ("--lint", Arg::Switch)];
const FLIGHT_DUMP: Table = &[("--ranks", RANKS), ("--out", Arg::Text)];
const FLIGHT_ANALYZE: Table = &[("--last", COUNT)];
const WATCH: Table = &[("--addr", Arg::Text), ("--interval-ms", Arg::Int(1, 3_600_000))];

/// A flag's checked value.
#[derive(Debug)]
enum Value {
    On,
    Text(String),
    Int(u64),
    Real(f64),
    Int2(u64, u64),
}

/// The flags of one invocation, each checked against the verb's
/// [`Table`] before anything runs: reading a value cannot fail.
#[derive(Debug)]
struct Flags(Vec<(&'static str, Value)>);

impl Flags {
    /// Check `args` against `table`. The refusal names the flag: one the
    /// verb does not read, one given twice, a value that is missing or is
    /// itself a flag, a word outside the flag's choices, a number that
    /// does not parse, overflows or leaves its range, or that is NaN.
    fn parse(args: &[String], table: Table) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let Some(&(name, arg_kind)) = table.iter().find(|(name, _)| name == arg) else {
                let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
                return Err(format!("{arg}: not a flag this verb reads [{}]", names.join(" ")));
            };
            if flags.iter().any(|(seen, _)| *seen == name) {
                return Err(format!("{name}: given more than once"));
            }
            let mut word = || match rest.next() {
                Some(v) if v.starts_with("--") => Err(format!("{name}: expects a value, got {v}")),
                Some(v) => Ok(v.as_str()),
                None => Err(format!("{name}: expects a value")),
            };
            let int = |v: &str, (min, max): (u64, u64)| {
                v.parse::<u64>().ok().filter(|n| (min..=max).contains(n)).ok_or_else(|| {
                    format!("{name}: invalid value {v:?}: expects an integer in {min}..={max}")
                })
            };
            let real = |v: &str, min_exclusive: bool| {
                let ok = |x: &f64| x.is_finite() && (*x > 0.0 || (!min_exclusive && *x == 0.0));
                let bound = if min_exclusive { "above 0" } else { "0 or above" };
                v.parse::<f64>().ok().filter(ok).ok_or_else(|| {
                    format!("{name}: invalid value {v:?}: expects a finite number {bound}")
                })
            };
            let value = match arg_kind {
                Arg::Switch => Value::On,
                Arg::Text => Value::Text(word()?.to_string()),
                Arg::OneOf(choices) => {
                    let v = word()?;
                    if !choices.contains(&v) {
                        return Err(format!("{name}: invalid value {v:?}: one of {choices:?}"));
                    }
                    Value::Text(v.to_string())
                }
                Arg::Int(min, max) => Value::Int(int(word()?, (min, max))?),
                Arg::Positive => Value::Real(real(word()?, true)?),
                Arg::NonNegative => Value::Real(real(word()?, false)?),
                Arg::Int2(min, max) => {
                    let (a, b) = (word()?, word()?);
                    Value::Int2(int(a, (min, max))?, int(b, (min, max))?)
                }
            };
            flags.push((name, value));
        }
        Ok(Flags(flags))
    }

    fn value(&self, name: &str) -> Option<&Value> {
        self.0.iter().find(|(flag, _)| *flag == name).map(|(_, value)| value)
    }

    fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The word after `name` (a [`Arg::Text`] or [`Arg::OneOf`] flag).
    fn get(&self, name: &str) -> Option<&str> {
        match self.value(name)? {
            Value::Text(v) => Some(v),
            other => unreachable!("{name} read as a word: {other:?}"),
        }
    }

    /// The integer after `name` (an [`Arg::Int`] flag).
    fn int(&self, name: &str) -> Option<u64> {
        match self.value(name)? {
            Value::Int(n) => Some(*n),
            other => unreachable!("{name} read as an integer: {other:?}"),
        }
    }

    /// [`Flags::int`] as a `usize`, `default` when absent.
    fn usize_or(&self, name: &str, default: usize) -> usize {
        self.int(name).map_or(default, |n| n as usize)
    }

    /// The number after `name` (an [`Arg::Positive`] or
    /// [`Arg::NonNegative`] flag).
    fn real(&self, name: &str) -> Option<f64> {
        match self.value(name)? {
            Value::Real(x) => Some(*x),
            other => unreachable!("{name} read as a number: {other:?}"),
        }
    }

    /// The two integers after `name` (an [`Arg::Int2`] flag).
    fn int2(&self, name: &str) -> Option<(usize, usize)> {
        match self.value(name)? {
            Value::Int2(a, b) => Some((*a as usize, *b as usize)),
            other => unreachable!("{name} read as two integers: {other:?}"),
        }
    }

    /// A `--flag SECS` duration.
    fn secs(&self, name: &str) -> Option<std::time::Duration> {
        self.real(name).map(std::time::Duration::from_secs_f64)
    }
}

fn strategy_of(flags: &Flags) -> AssemblyStrategy {
    match flags.get("--strategy").unwrap_or("multidep") {
        "atomics" => AssemblyStrategy::Atomics,
        "coloring" => AssemblyStrategy::Coloring,
        "serial" => AssemblyStrategy::Serial,
        _ => AssemblyStrategy::Multidep,
    }
}

fn cmd_mesh(flags: &Flags) {
    let spec = AirwaySpec {
        generations: flags.usize_or("--generations", 3),
        ..AirwaySpec::default()
    };
    let t0 = std::time::Instant::now();
    let airway = generate_airway(&spec).expect("valid spec");
    let s = airway.mesh.stats();
    println!(
        "generated in {:.2}s: {} branches, {} junctions",
        t0.elapsed().as_secs_f64(),
        airway.num_tubes,
        airway.num_junctions
    );
    println!(
        "elements: {} total = {} tets + {} pyramids + {} prisms",
        s.num_elements, s.num_tets, s.num_pyramids, s.num_prisms
    );
    println!("nodes: {}, volume: {:.3e} m^3", s.num_nodes, s.total_volume);
    println!(
        "inlet: center {:?}, radius {:.4} m",
        airway.inlet_center, airway.inlet_radius
    );
    if let Some(path) = flags.get("--vtk") {
        cfpd_mesh::write_vtk(&airway.mesh, std::path::Path::new(path), &[], &[])
            .expect("write VTK");
        println!("wrote {path}");
    }
}

fn cmd_run(flags: &Flags) {
    let mode = match flags.int2("--coupled") {
        Some((fluid, particles)) => ExecutionMode::Coupled { fluid, particles },
        None => ExecutionMode::Synchronous,
    };
    let config = SimulationConfig {
        airway: AirwaySpec { generations: flags.usize_or("--generations", 1), ..AirwaySpec::small() },
        num_particles: flags.usize_or("--particles", 500),
        steps: flags.usize_or("--steps", 5),
        strategy: strategy_of(flags),
        mode,
        ..Default::default()
    };
    let ranks = flags.usize_or("--ranks", 2);
    let threads = flags.usize_or("--threads", 1);
    let dlb = flags.has("--dlb");
    let hetero = flags.get("--hetero").map(|name| {
        cfpd_hetero::profile_by_name(name, config.seed).expect("the table lists the profiles")
    });
    println!(
        "running {:?} on {} ranks x {} threads, strategy {:?}, DLB {}",
        config.mode,
        config.total_ranks(ranks),
        threads,
        config.strategy,
        if dlb { "on" } else { "off" }
    );
    if let Some(p) = &hetero {
        println!("hetero profile: {} (seed {})", p.name, p.seed);
    }
    let outcome = run_scenario(&Scenario {
        config,
        ranks,
        threads,
        opts: RunOptions { dlb, hetero, ..Default::default() },
    });
    let r = outcome.result;
    println!("{}", render_timeline(&r.trace, 120, 16));
    println!("phase breakdown:");
    for row in &r.breakdown {
        println!(
            "  {:<16} L = {:.2}  {:>5.1}%",
            row.phase.name(),
            row.load_balance,
            row.pct_time
        );
    }
    println!("particles: {:?}", r.census);
    if let Some(stats) = r.dlb {
        println!(
            "dlb: {} lends / {} grants / {} reclaims",
            stats.lends, stats.grants, stats.reclaims
        );
    }
    // Digest of the run's golden document: equal for equal flags at any
    // `--threads` and with or without `--dlb` (verify.sh compares two
    // lending runs).
    println!("document: {:016x}", outcome.digest);
    println!("total: {:.3}s", r.total_time);
    telemetry_summary_to_stderr(Some(&r.trace));
}

/// Print the deterministic golden trace of the canonical small run:
/// byte-identical output on every invocation with the same flags.
/// `--layout opt` runs the fast layout, which is pinned by its own
/// golden file; without the flag the run uses the reference layout.
fn cmd_golden(flags: &Flags) -> Result<(), String> {
    let ranks = flags.usize_or("--ranks", 2);
    let mut config = golden_config();
    if let Some(name) = flags.get("--layout") {
        config.layout = LayoutPlan::parse(name).map_err(|e| format!("--layout: {e}"))?;
    }
    let trace = match flags.get("--trace") {
        // Traced run: stdout stays byte-identical to the untraced golden
        // (tracing never touches the logical log); the structured trace
        // goes to `DIR` and the note to stderr.
        Some(dir) => {
            let dir = PathBuf::from(dir);
            let (doc, r) = golden_trace_traced(&config, ranks);
            print!("{doc}");
            write_trace_dir(&r.trace, &dir).expect("write trace dir");
            eprintln!("trace: wrote {}", dir.display());
            r.trace
        }
        None => {
            let outcome = run_scenario(&Scenario::deterministic(config, ranks));
            print!("{}", outcome.doc);
            outcome.result.trace
        }
    };
    telemetry_summary_to_stderr(Some(&trace));
    Ok(())
}

/// Run the canonical golden-config case under a seeded fault plan.
///
/// Benign mode (default): a fault-free reference run, then the same run
/// under `FaultConfig::benign(seed)` — delays, reorderings, bounded
/// drops-with-redelivery, stalls. Every fault is recoverable, so the
/// logical event log (field digests included) must be *bit-identical*;
/// exit 0 on match, 1 on divergence.
///
/// Storm mode (`--storm`): drops beyond the redelivery bound. The run
/// must terminate with a structured per-rank deadlock report, never
/// hang; exit 3 when the report is produced, 4 if the run unexpectedly
/// completes or fails without diagnostics.
fn cmd_chaos(flags: &Flags) {
    let seed = flags.int("--seed").unwrap_or(7);
    let ranks = flags.usize_or("--ranks", 2);
    let dlb = flags.has("--dlb");
    let json = flags.has("--json");
    let trace_dir = flags.get("--trace").map(PathBuf::from);
    let config = golden_config();

    if flags.has("--storm") {
        if trace_dir.is_some() {
            eprintln!("trace: --trace is ignored in storm mode (the run terminates abnormally)");
        }
        if !json {
            println!("chaos storm: seed {seed}, {ranks} ranks — message loss beyond the redelivery bound");
        }
        let opts = RunOptions { dlb, fault: Some(FaultConfig::storm(seed)), ..Default::default() };
        match run_simulation_fallible(&config, ranks, 1, &opts) {
            Err(fails) => {
                let saw_report =
                    fails.iter().any(|(_, m)| m.to_lowercase().contains("deadlock"));
                if json {
                    println!("{}", storm_json(seed, ranks, saw_report, &fails));
                } else {
                    println!(
                        "run terminated with structured diagnostics on {} rank(s):",
                        fails.len()
                    );
                    for (rank, msg) in &fails {
                        println!("--- rank {rank} ---\n{msg}");
                    }
                }
                telemetry_summary_to_stderr(None);
                std::process::exit(if saw_report { 3 } else { 4 });
            }
            Ok(r) => {
                if json {
                    println!("{}", storm_json(seed, ranks, false, &[]));
                } else {
                    println!("unexpected: storm run completed without a deadlock report");
                }
                telemetry_summary_to_stderr(Some(&r.trace));
                std::process::exit(4);
            }
        }
    }

    if !json {
        println!(
            "chaos: seed {seed}, {ranks} ranks, benign fault plan \
             (delays, reorders, drops+redelivery, stalls), DLB {}",
            if dlb { "on" } else { "off" }
        );
    }
    let clean = run_simulation(&config, ranks, 1, false);
    let opts = RunOptions {
        dlb,
        fault: Some(FaultConfig::benign(seed)),
        trace: trace_dir.is_some(),
        ..Default::default()
    };
    let faulted = run_simulation_opts(&config, ranks, 1, &opts);
    if let Some(dir) = &trace_dir {
        write_trace_dir(&faulted.trace, dir).expect("write trace dir");
        eprintln!("trace: wrote {}", dir.display());
    }

    use cfpd_simmpi::FaultEventKind as K;
    let count = |pred: fn(&K) -> bool| faulted.faults.iter().filter(|e| pred(&e.kind)).count();
    let injected = [
        ("delays", count(|k| matches!(k, K::Delay { .. }))),
        ("reorders", count(|k| matches!(k, K::Reorder))),
        ("drops_redelivered", count(|k| matches!(k, K::DropRedeliver))),
        ("stalls", count(|k| matches!(k, K::Stall { .. }))),
    ];

    let events_match = clean.logical == faulted.logical;
    let census_match = clean.census == faulted.census;
    let identical = events_match && census_match;

    if json {
        let mut w = cfpd_telemetry::JsonWriter::new();
        w.begin_object();
        w.key("mode").string("benign");
        w.key("seed").u64(seed);
        w.key("ranks").u64(ranks as u64);
        w.key("dlb").bool(dlb);
        w.key("injected").begin_object();
        for (name, n) in injected {
            w.key(name).u64(n as u64);
        }
        w.end_object();
        w.key("logical_events").u64(clean.logical.len() as u64);
        w.key("verdict").string(if identical { "bit-identical" } else { "diverged" });
        w.end_object();
        println!("{}", w.finish());
        telemetry_summary_to_stderr(Some(&faulted.trace));
        std::process::exit(if identical { 0 } else { 1 });
    }

    println!(
        "injected: {} delays, {} reorders, {} drops (all redelivered), {} stalls",
        injected[0].1, injected[1].1, injected[2].1, injected[3].1,
    );
    println!("{}", render_timeline(&faulted.trace, 120, 16));

    if identical {
        println!(
            "VERDICT: bit-identical — {} logical events (field digests included) and the \
             final census match the fault-free run",
            clean.logical.len()
        );
        telemetry_summary_to_stderr(Some(&faulted.trace));
        std::process::exit(0);
    }
    if let Some((i, (a, b))) = clean
        .logical
        .iter()
        .zip(faulted.logical.iter())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        println!("first divergence at event {i}:\n  clean:   {a:?}\n  faulted: {b:?}");
    } else {
        println!(
            "event counts differ: clean {} vs faulted {}; censuses: {:?} vs {:?}",
            clean.logical.len(),
            faulted.logical.len(),
            clean.census,
            faulted.census
        );
    }
    println!("VERDICT: DIVERGED — benign faults must never change the physics");
    telemetry_summary_to_stderr(Some(&faulted.trace));
    std::process::exit(1);
}

/// Structured storm-mode report (the deadlock diagnostics as JSON).
fn storm_json(seed: u64, ranks: usize, deadlock: bool, fails: &[(usize, String)]) -> String {
    let mut w = cfpd_telemetry::JsonWriter::new();
    w.begin_object();
    w.key("mode").string("storm");
    w.key("seed").u64(seed);
    w.key("ranks").u64(ranks as u64);
    w.key("deadlock").bool(deadlock);
    w.key("failures").begin_array();
    for (rank, msg) in fails {
        w.begin_object();
        w.key("rank").u64(*rank as u64);
        w.key("message").string(msg);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Run the canonical golden-config simulation with telemetry enabled
/// and print the merged snapshot — counters, gauges, histograms — and
/// the POP rollup of the run's own phase record, as a text table or
/// (`--json`) one JSON document `{"telemetry":{...},"pop":{...}}`.
fn cmd_report(flags: &Flags) {
    let ranks = flags.usize_or("--ranks", 2);
    let config = golden_config();
    let trace_dir = flags.get("--trace").map(PathBuf::from);
    cfpd_telemetry::set_enabled(true);
    cfpd_telemetry::reset();
    let r = run_simulation_opts(
        &config,
        ranks,
        1,
        &RunOptions { trace: trace_dir.is_some(), ..Default::default() },
    );
    cfpd_telemetry::set_enabled(false);
    let snap = cfpd_telemetry::snapshot();
    if let Some(dir) = &trace_dir {
        write_trace_dir(&r.trace, dir).expect("write trace dir");
        eprintln!("trace: wrote {}", dir.display());
    }

    let pop = PopTotals::of(&r.trace);
    let mut w = cfpd_telemetry::JsonWriter::new();
    pop.write_json(&mut w);
    // The snapshot renders itself; splice the two documents into one.
    let doc = format!(r#"{{"telemetry":{},"pop":{}}}"#, snap.render_json(), w.finish());

    if let Some(baseline_path) = flags.get("--baseline") {
        let baseline = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
            eprintln!("{baseline_path}: {e}");
            std::process::exit(2);
        });
        let tol = flags.real("--tolerance").unwrap_or(0.25);
        match diff_report_docs(&doc, &baseline, tol) {
            Ok((rendered, regressions)) => {
                print!("{rendered}");
                std::process::exit(i32::from(regressions > 0));
            }
            Err(e) => {
                eprintln!("report --baseline: {e}");
                std::process::exit(2);
            }
        }
    }

    if flags.has("--json") {
        println!("{doc}");
    } else {
        print!("{}{}", snap.render_table(), pop.render_table());
    }
}

/// Diff a fresh `cfpd report --json` document against a prior capture,
/// with per-metric policies (the campaign `DeltaReport` idiom applied
/// to the telemetry snapshot):
///
/// * POP **efficiencies** regress only when they *drop*
///   more than `tol` relative to the baseline — higher is always fine;
/// * **counters** regress when they move more than `tol` relative in
///   either direction (they are deterministic for the canonical case,
///   but tolerant comparison keeps the tool usable across refactors);
/// * wall times, gauges and histograms are timing — never compared;
/// * metrics present on only one side are reported as drift, not
///   regression (new code adds counters routinely).
fn diff_report_docs(current: &str, baseline: &str, tol: f64) -> Result<(String, usize), String> {
    use std::fmt::Write as _;
    let cur = cfpd_testkit::parse_json(current).map_err(|e| format!("current report: {e}"))?;
    let base = cfpd_testkit::parse_json(baseline).map_err(|e| format!("baseline: {e}"))?;
    let tol = if tol.is_finite() && tol >= 0.0 { tol } else { 0.25 };

    let path_f64 = |doc: &cfpd_testkit::JsonValue, path: &[&str]| -> Option<f64> {
        let mut v = doc.clone();
        for key in path {
            v = v.get(key)?.clone();
        }
        v.as_f64()
    };

    let mut out = String::new();
    let mut regressions = 0usize;
    let mut row = |name: &str, cur: Option<f64>, base: Option<f64>, lower_is_worse: bool| {
        let (tag, detail) = match (cur, base) {
            (Some(c), Some(b)) => {
                let scale = b.abs().max(if lower_is_worse { b.abs() } else { 1.0 }).max(1e-12);
                let rel = (c - b) / scale;
                let regressed =
                    if lower_is_worse { rel < -tol } else { rel.abs() > tol };
                if regressed {
                    regressions += 1;
                    ("REGRESS", format!("{b:.6} -> {c:.6} ({:+.1}%)", rel * 100.0))
                } else if c != b {
                    ("drift  ", format!("{b:.6} -> {c:.6} ({:+.1}%)", rel * 100.0))
                } else {
                    ("ok     ", format!("{c:.6}"))
                }
            }
            (Some(c), None) => ("drift  ", format!("(new) {c:.6}")),
            (None, Some(b)) => ("drift  ", format!("{b:.6} -> (gone)")),
            (None, None) => return,
        };
        let _ = writeln!(out, "{tag}  {name:<44}  {detail}");
    };

    for metric in ["parallel_efficiency", "load_balance", "comm_efficiency"] {
        let path = ["pop", metric];
        row(&format!("pop.{metric}"), path_f64(&cur, &path), path_f64(&base, &path), true);
    }

    // Counters: union of both sides, in current-then-baseline order.
    let counters = |doc: &cfpd_testkit::JsonValue| -> Vec<(String, f64)> {
        match doc.get("telemetry").and_then(|t| t.get("counters")) {
            Some(cfpd_testkit::JsonValue::Object(members)) => members
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f)))
                .collect(),
            _ => Vec::new(),
        }
    };
    let cur_counters = counters(&cur);
    let base_counters = counters(&base);
    for (name, c) in &cur_counters {
        let b = base_counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
        row(&format!("counter.{name}"), Some(*c), b, false);
    }
    for (name, b) in &base_counters {
        if !cur_counters.iter().any(|(k, _)| k == name) {
            row(&format!("counter.{name}"), None, Some(*b), false);
        }
    }

    let _ = writeln!(
        out,
        "verdict: {} (tolerance {:.0}%)",
        if regressions == 0 {
            "zero regressions".to_string()
        } else {
            format!("{regressions} regression(s)")
        },
        tol * 100.0
    );
    Ok((out, regressions))
}

fn cmd_profile(flags: &Flags) {
    let ranks = flags.usize_or("--ranks", 16);
    let particles = flags.usize_or("--particles", 4000);
    let spec = AirwaySpec { generations: flags.usize_or("--generations", 3), ..AirwaySpec::default() };
    let airway = generate_airway(&spec).expect("valid spec");
    let w = measure_workload(&airway, ranks, particles, 10, PhaseCostModel::default(), 42);
    println!(
        "workload profile over {} ranks ({} elements, {} particles):",
        ranks,
        airway.mesh.num_elements(),
        particles
    );
    println!("  assembly  L{} = {:.3}", ranks, w.assembly_balance());
    println!("  solvers   L{} = {:.3}", ranks, cfpd_trace::load_balance(&w.solver1));
    println!("  sgs       L{} = {:.3}", ranks, cfpd_trace::load_balance(&w.sgs));
    for (s, _) in w.particles_per_step.iter().enumerate().take(3) {
        println!("  particles L{} = {:.4} (step {s})", ranks, w.particle_balance(s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_testkit::prop::{check, usize_range, PropConfig};
    use cfpd_testkit::Rng;

    /// Every verb's flag table.
    const TABLES: &[Table] = &[
        MESH, RUN, PROFILE, GOLDEN, CHAOS, REPORT, TRACE_EXPORT, TRACE_ANALYZE, CAMPAIGN_EXPAND,
        CAMPAIGN_RUN, CAMPAIGN_REPORT, SERVE_RUN, SERVE_CLIENT, SERVE_METRICS, FLIGHT_DUMP,
        FLIGHT_ANALYZE, WATCH,
    ];

    /// Words `arg` accepts after its flag.
    fn valid(arg: Arg, rng: &mut Rng) -> Vec<String> {
        let int = |min: u64, max: u64, rng: &mut Rng| {
            [min, max, min.saturating_add(1).min(max)][rng.range_usize(0, 3)].to_string()
        };
        match arg {
            Arg::Switch => vec![],
            Arg::Text => vec!["some/path".to_string()],
            Arg::OneOf(choices) => vec![choices[rng.range_usize(0, choices.len())].to_string()],
            Arg::Int(min, max) => vec![int(min, max, rng)],
            Arg::Positive => vec!["0.25".to_string()],
            Arg::NonNegative => vec!["0".to_string()],
            Arg::Int2(min, max) => vec![int(min, max, rng), int(min, max, rng)],
        }
    }

    /// Words `arg` refuses after its flag: negative, NaN, infinite,
    /// overflowing, fractional and out-of-range numbers, zero where the
    /// least is one, and words outside a flag's choices.
    fn refused(arg: Arg) -> Vec<Vec<String>> {
        let words = |w: &[&str]| w.iter().map(|s| vec![s.to_string()]).collect::<Vec<_>>();
        let ints = |min: u64, max: u64| {
            let mut bad = words(&["-1", "NaN", "1.5", "abc", "18446744073709551616", ""]);
            if min > 0 {
                bad.push(vec![(min - 1).to_string()]);
            }
            if max < u64::MAX {
                bad.push(vec![(max + 1).to_string()]);
            }
            bad
        };
        match arg {
            Arg::Switch | Arg::Text => vec![],
            Arg::OneOf(_) => words(&["bogus", "NaN"]),
            Arg::Int(min, max) => ints(min, max),
            Arg::Positive => words(&["0", "-1", "NaN", "inf", "1e400", "abc"]),
            Arg::NonNegative => words(&["-0.5", "NaN", "-inf", "abc"]),
            Arg::Int2(min, max) => {
                let good = vec![min.to_string()];
                let pairs = ints(min, max).into_iter().map(|bad| [bad.clone(), good.clone(), bad]);
                pairs.flat_map(|[a, b, c]| [[a, b.clone()].concat(), [b, c].concat()]).collect()
            }
        }
    }

    /// The other flags of `table` with valid values, in random order.
    fn valid_flags(table: Table, skip: usize, rng: &mut Rng) -> Vec<String> {
        let mut order: Vec<usize> = (0..table.len()).filter(|&k| k != skip).collect();
        rng.shuffle(&mut order);
        order.truncate(rng.range_usize(0, order.len() + 1));
        let mut argv = Vec::new();
        for k in order {
            argv.push(table[k].0.to_string());
            argv.extend(valid(table[k].1, rng));
        }
        argv
    }

    // Every verb's table against argv that is valid but for one hostile
    // part: a flag the verb does not read, a flag given twice, a value
    // that is missing or is the next flag, or a value the flag refuses.
    // Parsing never panics and the refusal names the flag; the same argv
    // without the hostile part parses, and every value reads back.
    #[test]
    fn prop_hostile_argv_is_refused_naming_the_flag() {
        let gen = (
            usize_range(0, TABLES.len()),
            usize_range(0, 64),
            usize_range(0, 5),
            usize_range(0, 1 << 30),
        );
        check(
            "hostile argv is refused naming the flag",
            PropConfig::cases(400),
            &gen,
            |&(t, f, hostility, seed)| {
                let (table, rng) = (TABLES[t], &mut Rng::new(seed as u64));
                let target = if table.is_empty() { None } else { Some(f % table.len()) };
                let before = valid_flags(table, target.unwrap_or(usize::MAX), rng);
                let parse = |argv: &[String]| Flags::parse(argv, table);

                let good = parse(&before).unwrap_or_else(|e| panic!("{before:?} refused: {e}"));
                for &(name, arg) in table {
                    match arg {
                        Arg::Switch => drop(good.has(name)),
                        Arg::Text | Arg::OneOf(_) => drop(good.get(name)),
                        Arg::Int(..) => drop(good.int(name)),
                        Arg::Positive | Arg::NonNegative => drop(good.real(name)),
                        Arg::Int2(..) => drop(good.int2(name)),
                    }
                }

                let (name, arg) = target.map_or(("--bogus", Arg::Switch), |k| table[k]);
                let bad_values = refused(arg);
                let (hostile, flag): (Vec<String>, &str) = match (hostility, target) {
                    (1, Some(_)) => {
                        let once = [vec![name.to_string()], valid(arg, rng)].concat();
                        ([once.clone(), once].concat(), name)
                    }
                    (2, Some(_)) if !matches!(arg, Arg::Switch) => (vec![name.to_string()], name),
                    (3, Some(_)) if !matches!(arg, Arg::Switch) => {
                        let mut names = table.iter().map(|(n, _)| *n);
                        let next = names.find(|n| *n != name).unwrap_or("--x");
                        (vec![name.to_string(), next.to_string(), "1".to_string()], name)
                    }
                    (4, Some(_)) if !bad_values.is_empty() => {
                        let bad = &bad_values[rng.range_usize(0, bad_values.len())];
                        ([vec![name.to_string()], bad.clone()].concat(), name)
                    }
                    _ => (vec!["--bogus".to_string(), "1".to_string()], "--bogus"),
                };
                // A missing value can only come last.
                let argv =
                    if hostility == 2 { [before, hostile] } else { [hostile, before] }.concat();
                match parse(&argv) {
                    Ok(flags) => panic!("{argv:?} parsed: {flags:?}"),
                    Err(e) => assert!(e.starts_with(&format!("{flag}:")), "{argv:?}: {e}"),
                }
            },
        );
    }
}

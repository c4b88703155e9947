//! The `serve_jobs` workload: an in-process daemon with one worker driven
//! over real HTTP by one closed-loop client, so that a single thread is
//! busy at any time (two of each read 2-3 times as noisy on a 2-core
//! host, README "Host and measured spread"). An op is one job — submit, poll until
//! done, fetch the result — and every job carries seeds no other job
//! has, so no result can be shared between jobs.

use crate::api::{self, JobSpec, Served};
use crate::check::check_served;
use crate::host::{peak_rss_mb, HostScaled};
use crate::layers::{emit_pass_probes, emit_setup_probes, LayerAcc};
use crate::report::{RunConfig, RunOutput};
use crate::spans::Spans;
use crate::stats::{median, quantile_sorted, summarize};
use std::path::Path;
use std::time::{Duration, Instant};

const TEMPLATE: &str = include_str!("../workloads/serve_jobs.campaign");
const POLL_EVERY: Duration = Duration::from_millis(10);
/// Jobs in the data directory the cold-start measurement restarts on.
const HISTORY_JOBS: usize = 8;
const RESTARTS: usize = 101;

/// The `k`-th job of `series` (the timed loop, the warm-up, the history,
/// the traced jobs): the template with two seeds derived from
/// the run's seed that no other job of the run uses.
fn job_text(cfg: &RunConfig, series: usize, k: usize) -> String {
    let base = cfg.seed * 1_000_000 + series as u64 * 100_000 + 2 * k as u64;
    let text = crate::sim::instantiate(TEMPLATE, cfg.seed)
        .replace("{seed_a}", &base.to_string())
        .replace("{seed_b}", &(base + 1).to_string());
    if cfg.quick {
        text.replace("generations = 2", "generations = 1")
    } else {
        text
    }
}

/// One served job, timed from the submit to the last result byte.
struct JobRun {
    latency_s: f64,
    /// The host's slowdown around the job; 1 until the closed loop sets it.
    slowdown: f64,
    admit_s: f64,
    polls_s: Vec<f64>,
    result_s: f64,
    status: u16,
    body: String,
}

fn extract_u64(json: &str, key: &str) -> Option<u64> {
    api::parse_json(json).ok()?.get(key)?.as_u64()
}

/// Submit → poll every 10 ms → result. Any non-2xx, a job that ends
/// other than `done`, or the op timeout is an `Err`: no retries.
fn run_job(addr: &str, text: &str, spans: Option<&mut Spans>) -> Result<JobRun, String> {
    let mut no_spans = Spans::new();
    let spans = spans.unwrap_or(&mut no_spans);
    let job_span = spans.begin("job");
    let t0 = Instant::now();
    let (submitted, admit_s) = spans.time("serve.admit", || api::http(addr, "POST", "/jobs", text));
    let (status, body) = submitted.map_err(|e| format!("submit: {e}"))?;
    if status != 201 {
        return Err(format!("submit answered {status}: {}", body.trim()));
    }
    let id = extract_u64(&body, "job").ok_or("submit answer names no job")?;
    let mut polls_s = Vec::new();
    let poll_span = spans.begin("serve.poll");
    loop {
        let t = Instant::now();
        let (status, body) =
            api::http(addr, "GET", &format!("/jobs/{id}"), "").map_err(|e| format!("poll: {e}"))?;
        polls_s.push(t.elapsed().as_secs_f64());
        if status != 200 {
            return Err(format!("poll answered {status}"));
        }
        let state = api::parse_json(&body)
            .ok()
            .and_then(|j| j.get("state").and_then(|s| s.as_str()).map(str::to_string))
            .unwrap_or_default();
        match state.as_str() {
            "done" => break,
            "failed" | "cancelled" => return Err(format!("job {id} ended {state}")),
            _ => {}
        }
        if t0.elapsed() > api::OP_TIMEOUT {
            return Err(format!(
                "job {id} not done after {} s",
                api::OP_TIMEOUT.as_secs()
            ));
        }
        std::thread::sleep(POLL_EVERY);
    }
    spans.end(poll_span);
    let (fetched, result_s) = spans.time("serve.result", || {
        api::http(addr, "GET", &format!("/jobs/{id}/result"), "")
    });
    let (status, body) = fetched.map_err(|e| format!("result: {e}"))?;
    let latency_s = t0.elapsed().as_secs_f64();
    spans.end(job_span);
    Ok(JobRun {
        latency_s,
        slowdown: 1.0,
        admit_s,
        polls_s,
        result_s,
        status,
        body,
    })
}

/// Is the `k`-th job of the loop compared byte for byte with a direct
/// run? The first two and every eighth: a direct run costs as much as
/// the job, and they are made after the timed loop.
fn verified(k: usize) -> bool {
    k < 2 || k.is_multiple_of(8)
}

/// What the closed loop of the client leaves: latencies and the
/// `(job text, result body)` pairs left to verify.
struct ClientLog {
    jobs: Vec<JobRun>,
    to_verify: Vec<(String, String)>,
    attempted: usize,
    failures: Vec<Vec<String>>,
}

/// The closed loop: the next job is submitted when the previous one's
/// result has arrived, for `seconds` and at least `min_jobs` jobs.
fn client_loop(cfg: &RunConfig, addr: &str, seconds: f64, min_jobs: usize) -> ClientLog {
    let mut log = ClientLog {
        jobs: Vec::new(),
        to_verify: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
    };
    let mut host = HostScaled::begin();
    let t_run = Instant::now();
    let mut k = 0;
    while t_run.elapsed().as_secs_f64() < seconds || k < min_jobs {
        let text = job_text(cfg, 0, k);
        log.attempted += 1;
        match run_job(addr, &text, None) {
            Err(e) => {
                log.failures.push(vec![e]);
                break;
            }
            Ok(mut job) => {
                job.slowdown = host.op_done();
                let bad = check_served(job.status, &job.body, 4, None);
                if !bad.is_empty() {
                    log.failures.push(bad);
                }
                if verified(k) {
                    log.to_verify.push((text, job.body.clone()));
                }
                log.jobs.push(job);
            }
        }
        k += 1;
    }
    log
}

/// Compare kept results byte for byte with direct campaign runs, two at
/// a time (the host has two cores). Untimed.
fn verify(pairs: &[(String, String)]) -> Vec<String> {
    let halves: Vec<&[(String, String)]> = pairs.chunks(pairs.len().div_ceil(2).max(1)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = halves
            .into_iter()
            .map(|half| {
                scope.spawn(move || {
                    let mut bad = Vec::new();
                    for (text, body) in half {
                        let direct = JobSpec::parse(text)
                            .expect("job text parsed before")
                            .run_direct();
                        bad.extend(check_served(200, body, 4, Some(&direct)));
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verify thread panicked"))
            .collect()
    })
}

fn healthz(addr: &str) -> bool {
    matches!(api::http(addr, "GET", "/healthz", ""), Ok((200, _)))
}

/// Median seconds from `Daemon::start` to the first `/healthz` 200,
/// over restarts on a data directory holding exactly [`HISTORY_JOBS`]
/// completed jobs (a WAL of fixed length). The history jobs are the
/// template on a 1-generation mesh: replay cost depends on the number
/// of records, not on what the cells computed.
fn cold_start(cfg: &RunConfig, dir: &Path) -> Result<ColdStart, String> {
    let history = dir.join("history");
    let served = api::start_daemon(&history).map_err(|e| format!("history daemon: {e}"))?;
    let mut failure = None;
    // A smoke run keeps the mechanism and drops the repetitions.
    let (history_jobs, restarts) = if cfg.quick {
        (2, 3)
    } else {
        (HISTORY_JOBS, RESTARTS)
    };
    for k in 0..history_jobs {
        let text = job_text(cfg, 9, k).replace("generations = 2", "generations = 1");
        if let Err(e) = run_job(&served.addr, &text, None) {
            failure = Some(format!("history job: {e}"));
            break;
        }
    }
    served.stop();
    if let Some(f) = failure {
        return Err(f);
    }
    let mut times = Vec::new();
    let mut host = HostScaled::begin();
    for _ in 0..restarts {
        let t0 = Instant::now();
        let served = api::start_daemon(&history).map_err(|e| format!("restart: {e}"))?;
        let healthy = healthz(&served.addr);
        times.push(t0.elapsed().as_secs_f64());
        served.stop();
        if !healthy {
            return Err("restarted daemon is not healthy".to_string());
        }
    }
    // The restarts take 0.1 s together: one slowdown for all of them.
    let slowdown = host.op_done();
    Ok(ColdStart {
        raw_s: median(&times),
        scaled_s: median(&times) / slowdown,
    })
}

/// Median cold start, as timed and divided by the host's slowdown.
struct ColdStart {
    raw_s: f64,
    scaled_s: f64,
}

struct Scratch(std::path::PathBuf);

impl Scratch {
    fn create(cfg: &RunConfig) -> std::io::Result<Scratch> {
        let dir = cfg.scratch_dir();
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn start(cfg: &RunConfig) -> std::io::Result<(Scratch, Served)> {
    let scratch = Scratch::create(cfg)?;
    let served = api::start_daemon(&scratch.0.join("live"))?;
    Ok((scratch, served))
}

/// Fold the client's log into the output; returns all job latencies, as
/// timed.
fn absorb_log(out: &mut RunOutput, log: &ClientLog) -> Vec<f64> {
    out.attempted += log.attempted;
    for f in &log.failures {
        out.fail_op(f.clone());
    }
    out.slowdowns.extend(log.jobs.iter().map(|j| j.slowdown));
    log.jobs.iter().map(|j| j.latency_s).collect()
}

fn steps_per_job(cfg: &RunConfig) -> usize {
    JobSpec::parse(&job_text(cfg, 0, 0))
        .expect("checked-in job template parses")
        .cells()
        .iter()
        .map(|c| c.steps())
        .sum()
}

/// The untraced run: the end-to-end metrics.
pub fn run_untraced(cfg: &RunConfig) -> RunOutput {
    let mut out = RunOutput::default();
    let (scratch, served) = match start(cfg) {
        Ok(pair) => pair,
        Err(e) => return out.abort(format!("cannot start the daemon: {e}")),
    };
    // One untimed warm-up job, verified like the others.
    let warm_text = job_text(cfg, 8, 0);
    let mut to_verify = Vec::new();
    match run_job(&served.addr, &warm_text, None) {
        Ok(job) => to_verify.push((warm_text, job.body)),
        Err(e) => out.fail_all(vec![format!("warm-up job: {e}")]),
    }

    // As on the simulation workloads: what the first op needs.
    let peak = peak_rss_mb();

    let log = client_loop(cfg, &served.addr, cfg.seconds, cfg.min_ops());
    let raw_latencies = absorb_log(&mut out, &log);
    // The metrics are medians of seconds divided by the host's slowdown
    // around each job, as on the simulation workloads.
    let latencies: Vec<f64> = log.jobs.iter().map(|j| j.latency_s / j.slowdown).collect();
    served.stop();
    let peak_all_jobs = peak_rss_mb();

    to_verify.extend(log.to_verify.iter().cloned());
    out.fail_all(verify(&to_verify));
    let setup = cold_start(cfg, &scratch.0);
    drop(scratch);
    if latencies.is_empty() {
        return out;
    }
    let steps = steps_per_job(cfg) as f64;
    out.metrics.set("run_wall_s", median(&latencies));
    out.metrics.set("step_s", median(&latencies) / steps);
    out.metrics.set("peak_rss_mb", peak);
    match setup {
        Ok(s) => {
            out.metrics.set("setup_s", s.scaled_s);
            out.lines.push(format!(
                "setup_s as timed, not host-scaled: {:.6} s",
                s.raw_s
            ));
        }
        Err(e) => out.fail_all(vec![e]),
    }
    out.timing("run_wall_s (job latency)", summarize(&latencies));
    out.timing(
        "run_wall_s as timed, not host-scaled",
        summarize(&raw_latencies),
    );
    out.lines.push(format!(
        "step_s = job latency / {steps} simulated steps per job; setup_s = daemon start to first \
         /healthz 200, median of {RESTARTS} restarts on {HISTORY_JOBS} completed jobs; \
         {} results compared byte for byte with direct runs; peak_rss_mb is VmHWM after the \
         first job, after all jobs it read {peak_all_jobs:.1} MB",
        to_verify.len(),
    ));
    out
}

/// Counter value from Prometheus text.
fn counter(metrics_text: &str, name: &str) -> f64 {
    metrics_text
        .lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or(0.0)
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// The traced pass: sequential jobs under spans, a short closed loop
/// without spans for throughput, the job's cells run directly for the layers
/// below, and the codec / WAL / snapshot probes.
pub fn run_traced(cfg: &RunConfig) -> RunOutput {
    let mut out = RunOutput::default();
    let mut spans = Spans::new();
    let (scratch, served) = match start(cfg) {
        Ok(pair) => pair,
        Err(e) => return out.abort(format!("cannot start the daemon: {e}")),
    };
    let workload = spans.begin("workload");
    if let Err(e) = run_job(&served.addr, &job_text(cfg, 8, 0), None) {
        out.fail_all(vec![format!("warm-up job: {e}")]);
    }

    // Jobs under spans, each followed by a direct run of its spec: the
    // base of serve.overhead_ratio.
    let wal = api::wal_path(&scratch.0.join("live"));
    let metrics_before = api::http(&served.addr, "GET", "/metrics", "")
        .map(|r| r.1)
        .unwrap_or_default();
    let wal_before = file_len(&wal);
    let (mut single, mut direct, mut render_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut admit, mut polls, mut result) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..cfg.traced_ops() {
        let text = job_text(cfg, 7, k);
        spans.next_op();
        out.attempted += 1;
        match run_job(&served.addr, &text, Some(&mut spans)) {
            Err(e) => out.fail_op(vec![e]),
            Ok(job) => {
                let job_spec = JobSpec::parse(&text).expect("job text parsed by the daemon");
                let (direct_s, render, report) = api::probe_direct_job(&job_spec, &mut spans);
                out.fail_op(check_served(job.status, &job.body, 4, Some(&report)));
                single.push(job.latency_s);
                admit.push(job.admit_s);
                polls.extend(job.polls_s);
                result.push(job.result_s);
                direct.push(direct_s);
                render_us.push(render);
            }
        }
    }
    let metrics_after = api::http(&served.addr, "GET", "/metrics", "")
        .map(|r| r.1)
        .unwrap_or_default();
    let jobs = single.len().max(1) as f64;
    let snapshots_per_job = (counter(&metrics_after, "cfpd_serve_checkpoints ")
        - counter(&metrics_before, "cfpd_serve_checkpoints "))
        / jobs;
    let wal_bytes_per_job = (file_len(&wal) - wal_before) / jobs;

    // The workload's own closed loop for half the run length: throughput
    // and the latency tail.
    let t_loop = Instant::now();
    let log = client_loop(cfg, &served.addr, cfg.seconds / 2.0, cfg.traced_ops());
    let loop_s = t_loop.elapsed().as_secs_f64();
    let mut latencies = absorb_log(&mut out, &log);
    served.stop();
    latencies.sort_by(f64::total_cmp);

    // The layers below: the job's four cells run directly, traced.
    let job_spec = JobSpec::parse(&job_text(cfg, 7, 0)).expect("checked-in job template parses");
    let cells = job_spec.cells();
    let mut acc = LayerAcc::default();
    let mut probes = Vec::new();
    let mut render_s = Vec::new();
    for cell in &cells {
        let op_span = spans.begin("op");
        match api::run_op(&cell.traced()) {
            Err(e) => out.fail_all(vec![format!("direct cell: {e}")]),
            Ok(op) => {
                out.fail_all(crate::check::check_sim_op(&op.facts, op.facts.digest()));
                acc.absorb(&op, cell.steps(), cell.particles());
                render_s.push(api::probe_render(cell, &op, &mut spans));
            }
        }
        probes.push(api::probe_setup(cell, &mut spans));
        spans.end(op_span);
    }

    let m = &mut out.metrics;
    acc.emit(m);
    acc.emit_simmpi(m);
    emit_setup_probes(m, &probes, &render_s);
    if let Some(cp) = emit_pass_probes(m, &cells[0], &job_spec.text, &mut spans) {
        let (write_us, snapshot_bytes) = api::probe_snapshot(cp.text, &scratch.0, &mut spans);
        m.set("serve.snapshot_write_us", write_us);
        m.set(
            "serve.snapshot_bytes_per_job",
            snapshots_per_job * snapshot_bytes as f64,
        );
    }
    match api::probe_wal_append(&scratch.0, &mut spans) {
        Ok(us) => m.set("serve.wal_append_us", us),
        Err(e) => out.failures.push(format!("WAL probe: {e}")),
    }
    match cold_start(cfg, &scratch.0) {
        Ok(s) => {
            m.set("serve.cold_start_ms", s.raw_s * 1e3);
            m.set("ladder.setup_s", s.raw_s);
        }
        Err(e) => out.fail_all(vec![e]),
    }
    drop(scratch);
    spans.end(workload);

    if !single.is_empty() && !latencies.is_empty() {
        let m = &mut out.metrics;
        let steps = steps_per_job(cfg) as f64;
        m.set("serve.admit_ms", median(&admit) * 1e3);
        m.set("serve.poll_us", median(&polls) * 1e6);
        m.set("serve.result_ms", median(&result) * 1e3);
        m.set("serve.job_latency_1client_s", median(&single));
        m.set("campaign.direct_job_s", median(&direct));
        m.set("campaign.render_json_us", median(&render_us));
        m.set("serve.overhead_ratio", median(&single) / median(&direct));
        m.set("serve.job_latency_p90_s", quantile_sorted(&latencies, 0.9));
        m.set("serve.jobs_per_s", latencies.len() as f64 / loop_s);
        m.set(
            "serve.segments_per_job",
            snapshots_per_job + cells.len() as f64,
        );
        m.set("serve.wal_bytes_per_job", wal_bytes_per_job);
        m.set("ladder.run_wall_s", median(&latencies));
        m.set("ladder.step_s", median(&latencies) / steps);
        out.timing("job latency under spans", summarize(&single));
        out.timing("job latency, closed loop", summarize(&latencies));
        out.timing("direct run_campaign(jobs=1) of the job", summarize(&direct));
        out.lines.push(format!(
            "serve.overhead_ratio {:.3} = 1-client job latency {:.4} s / direct job {:.4} s; \
             ladder.step_s is the served step (job latency / {steps} steps), ladder.step_phases_s \
             the phases of one step of the job's cells run directly",
            median(&single) / median(&direct),
            median(&single),
            median(&direct),
        ));
    }
    out.spans = Some(spans);
    out
}

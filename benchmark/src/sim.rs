//! The three simulation workloads: an op is one `run_scenario` call,
//! golden document included.

use crate::api::{self, OpOut, Phase, SimSpec};
use crate::check::{check_sim_op, check_twin};
use crate::host::{peak_rss_mb, HostScaled, Yardstick};
use crate::layers::{
    emit_pass_probes, emit_setup_probes, median_or_zero, probe_median, split_steps, stepping_span,
    LayerAcc,
};
use crate::report::{RunConfig, RunOutput};
use crate::spans::Spans;
use crate::stats::{median, summarize};
use std::time::Instant;

/// Fill a workload template: `{seed}` is the run's seed and `{inflow}`
/// is drawn uniformly from [1.45, 1.55] m/s by a generator seeded with
/// it, so the same seed gives the same inputs.
pub fn instantiate(template: &str, seed: u64) -> String {
    let inflow = api::Rng::new(seed).range_f64(1.45, 1.55);
    template
        .replace("{seed}", &seed.to_string())
        .replace("{inflow}", &format!("{inflow:.6}"))
}

fn template(workload: &str) -> &'static str {
    match workload {
        "fluid_serial" => include_str!("../workloads/fluid_serial.campaign"),
        "particles_serial" => include_str!("../workloads/particles_serial.campaign"),
        "coupled_dlb" => include_str!("../workloads/coupled_dlb.campaign"),
        other => unreachable!("{other} is not a simulation workload"),
    }
}

/// The run request of a workload; `--quick` shrinks it to a smoke size.
fn load(cfg: &RunConfig) -> SimSpec {
    let spec = SimSpec::parse(&instantiate(template(&cfg.workload), cfg.seed))
        .expect("checked-in workload template parses");
    if cfg.quick {
        small_twin(&spec)
    } else {
        spec
    }
}

/// The same shape at 2 generations, at most 2000 particles, 3 steps: what
/// the untimed twin checks and `--quick` run.
fn small_twin(spec: &SimSpec) -> SimSpec {
    spec.reduced(2, spec.particles().min(2000), 3)
}

/// Checks made once per run, untimed: the checked-in goldens, and on a
/// small twin of the workload the checkpoint-restart split (synchronous
/// runs) and the reference layout against the optimized one.
fn check_once(cfg: &RunConfig, spec: &SimSpec, out: &mut RunOutput) {
    out.fail_all(api::check_goldens(&cfg.root));
    let twin = small_twin(spec);
    let opt = match api::run_op(&twin) {
        Ok(op) => op,
        Err(e) => return out.fail_all(vec![format!("small twin: {e}")]),
    };
    out.fail_all(check_sim_op(&opt.facts, opt.facts.digest()));
    if twin.is_sync() && api::split_twin_doc(&twin, 1) != opt.facts.doc {
        out.fail_all(vec![
            "checkpoint-restart twin differs from the uninterrupted run".into(),
        ]);
    }
    match api::run_op(&twin.reference_layout()) {
        Ok(reference) => out.fail_all(check_twin(&opt.facts, &reference.facts)),
        Err(e) => out.fail_all(vec![format!("reference-layout twin: {e}")]),
    }
}

/// One timed op: `(wall seconds, result)`.
fn timed_op(spec: &SimSpec) -> (f64, Result<OpOut, String>) {
    let t0 = Instant::now();
    let out = api::run_op(spec);
    (t0.elapsed().as_secs_f64(), out)
}

/// The untraced run: the end-to-end metrics.
pub fn run_untraced(cfg: &RunConfig) -> RunOutput {
    let mut out = RunOutput::default();
    let spec = load(cfg);
    // One untimed warm-up op; its document is the reference every timed
    // op must reproduce byte for byte.
    let reference = match api::run_op(&spec) {
        Ok(op) => op.facts.digest(),
        Err(e) => return out.abort(format!("warm-up op: {e}")),
    };
    out.digest = reference;
    // What one `run_scenario` needs in a fresh process. The ops that
    // follow add only what the allocator retains from thread to thread,
    // which differs between identical runs (80–115 MB on `fluid_serial`).
    let peak_first_op = peak_rss_mb();

    // Raw seconds, and the same seconds divided by the host's slowdown
    // around the op: the metrics are medians of the latter.
    let (mut raw_wall, mut raw_setup, mut raw_steps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut run_wall, mut setup, mut steps) = (Vec::new(), Vec::new(), Vec::new());
    let mut residual = Vec::new();
    let mut host = HostScaled::begin();
    let t_run = Instant::now();
    while t_run.elapsed().as_secs_f64() < cfg.seconds || out.attempted < cfg.min_ops() {
        let (wall, op) = timed_op(&spec);
        let slowdown = host.op_done();
        out.attempted += 1;
        let op = match op {
            Ok(op) => op,
            Err(e) => {
                out.fail_op(vec![e]);
                break; // a timed-out or dead op leaves nothing to measure
            }
        };
        out.fail_op(check_sim_op(&op.facts, reference));
        let span = stepping_span(&op.phases);
        let rank0: Vec<f64> = split_steps(&op.phases)
            .first()
            .map(|r| r.iter().map(|s| s.duration()).collect())
            .unwrap_or_default();
        residual.push(span - rank0.iter().sum::<f64>());
        raw_wall.push(wall);
        raw_setup.push(wall - span);
        run_wall.push(wall / slowdown);
        setup.push((wall - span) / slowdown);
        steps.extend(rank0.iter().map(|s| s / slowdown));
        raw_steps.extend(rank0);
    }
    out.slowdowns = host.slowdowns;
    let peak_all_ops = peak_rss_mb();
    check_once(cfg, &spec, &mut out);
    if run_wall.is_empty() {
        return out;
    }

    out.metrics.set("run_wall_s", median(&run_wall));
    out.metrics.set("setup_s", median(&setup));
    out.metrics.set("step_s", median(&steps));
    out.metrics.set("peak_rss_mb", peak_first_op);
    out.timing("run_wall_s", summarize(&run_wall));
    out.timing("setup_s", summarize(&setup));
    out.timing("step_s", summarize(&steps));
    out.timing("run_wall_s as timed, not host-scaled", summarize(&raw_wall));
    out.timing("setup_s as timed, not host-scaled", summarize(&raw_setup));
    out.timing("step_s as timed, not host-scaled", summarize(&raw_steps));
    out.lines.push(format!(
        "identity run_wall_s = setup_s + sum(step durations): median residual {:+.4} s \
         (rank 0's steps against the longest-stepping rank's span)",
        median(&residual)
    ));
    out.lines.push(format!(
        "peak_rss_mb is VmHWM after the first op; after all {} ops it read {peak_all_ops:.1} MB",
        out.attempted + 1
    ));
    out
}

/// Record the steps and phases an op reported as spans under `parent`,
/// shifted from the op's run clock onto the recorder's by `offset`.
fn record_steps(spans: &mut Spans, parent: usize, op: &OpOut, offset: f64) {
    for (rank, steps) in split_steps(&op.phases).iter().enumerate() {
        for (k, s) in steps.iter().enumerate() {
            let step = spans.push(
                &format!("core.step{k}"),
                rank,
                s.t0 + offset,
                s.t1 + offset,
                Some(parent),
            );
            for p in op
                .phases
                .iter()
                .filter(|p| p.rank == rank && p.t0 >= s.t0 && p.t0 < s.t1)
            {
                spans.push(
                    p.phase.span_name(),
                    rank,
                    p.t0 + offset,
                    p.t1 + offset,
                    Some(step),
                );
            }
        }
    }
}

/// The traced pass: a few ops with benchmark-side spans, an untraced
/// twin of each for the tracing overhead, and the probes.
pub fn run_traced(cfg: &RunConfig) -> RunOutput {
    let mut out = RunOutput::default();
    let mut spans = Spans::new();
    let spec = load(cfg);
    let workload = spans.begin("workload");
    let reference = match api::run_op(&spec) {
        Ok(op) => op.facts.digest(),
        Err(e) => return out.abort(format!("warm-up op: {e}")),
    };
    out.digest = reference;

    let mut acc = LayerAcc::default();
    let mut traced_acc = LayerAcc::default();
    let (mut wall_plain, mut wall_traced, mut wall_dlb_off) = (Vec::new(), Vec::new(), Vec::new());
    let mut setup_plain = Vec::new();
    let mut probes = Vec::new();
    let mut render = Vec::new();
    // The traced pass reports seconds as timed; the yardstick readings
    // say how slow the host was meanwhile (`host.slowdown`).
    let yardstick = Yardstick::new();
    for i in 0..cfg.traced_ops() {
        out.slowdowns.push(yardstick.slowdown());
        // Alternate which kind of op runs first, so that neither always
        // follows the probes.
        let order = if i % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for traced in order {
            if !traced {
                // Untraced op: base of the tracing overhead and of the ladder.
                let (wall, op) = timed_op(&spec);
                out.attempted += 1;
                match op {
                    Err(e) => out.fail_op(vec![e]),
                    Ok(op) => {
                        out.fail_op(check_sim_op(&op.facts, reference));
                        wall_plain.push(wall);
                        setup_plain.push(wall - stepping_span(&op.phases));
                        acc.absorb(&op, spec.steps(), spec.particles());
                    }
                }
                // The DLB-off twin of a DLB workload, same inputs.
                if spec.dlb() {
                    let (wall, op) = timed_op(&spec.with_dlb(false));
                    out.attempted += 1;
                    match op {
                        Err(e) => out.fail_op(vec![e]),
                        Ok(op) => {
                            out.fail_op(check_sim_op(&op.facts, reference));
                            wall_dlb_off.push(wall);
                        }
                    }
                }
                continue;
            }
            // Traced op with spans: op -> {run -> step k -> phase, probes}.
            spans.next_op();
            let op_span = spans.begin("op");
            let run_span = spans.begin("core.run_scenario");
            let t_begin = spans.now();
            let (wall, op) = timed_op(&spec.traced());
            spans.end(run_span);
            out.attempted += 1;
            let probe = api::probe_setup(&spec, &mut spans);
            match op {
                Err(e) => out.fail_op(vec![e]),
                Ok(op) => {
                    out.fail_op(check_sim_op(&op.facts, reference));
                    wall_traced.push(wall);
                    traced_acc.absorb(&op, spec.steps(), spec.particles());
                    // A traced run starts its clock once the mesh is built
                    // and renumbered.
                    let offset = t_begin + probe.generate_s + probe.adjacency_s + probe.rcm_s;
                    record_steps(&mut spans, run_span, &op, offset);
                    render.push(api::probe_render(&spec, &op, &mut spans));
                }
            }
            probes.push(probe);
            spans.end(op_span);
        }
    }
    if wall_plain.is_empty() || wall_traced.is_empty() {
        return out;
    }

    let m = &mut out.metrics;
    acc.emit(m);
    traced_acc.emit_simmpi(m);
    emit_setup_probes(m, &probes, &render);

    let setup_s = median(&setup_plain);
    let probes_s = probe_median(&probes, |p| p.critical_s) + median_or_zero(&render);
    m.set("ladder.run_wall_s", median(&wall_plain));
    m.set("ladder.setup_s", setup_s);
    m.set("ladder.setup_probes_s", probes_s);
    m.set(
        "core.setup_unattributed_frac",
        (setup_s - probes_s) / setup_s,
    );
    let overhead = (median(&wall_traced) - median(&wall_plain)) / median(&wall_plain);
    m.set("trace.overhead_frac", overhead);
    if overhead < -0.05 {
        out.lines.push(format!(
            "trace.overhead_frac {overhead:+.3} is noisy: traced ops cannot be faster than \
             untraced ones; not a saving"
        ));
    }
    if !wall_dlb_off.is_empty() {
        let (on, off) = (median(&wall_plain), median(&wall_dlb_off));
        m.set("dlb.twin_off_run_wall_s", off);
        m.set("dlb.gain_ratio", off / on);
        out.lines.push(format!(
            "dlb.gain_ratio {:.3} = dlb-off twin {off:.4} s / dlb-on {on:.4} s, {} ops each",
            off / on,
            wall_dlb_off.len()
        ));
    }

    emit_pass_probes(
        m,
        &spec,
        &instantiate(template(&cfg.workload), cfg.seed),
        &mut spans,
    );
    spans.end(workload);

    out.timing(
        "run_wall_s (untraced ops of this pass)",
        summarize(&wall_plain),
    );
    out.timing("run_wall_s (traced ops)", summarize(&wall_traced));
    out.timing("step_s (rank 0, untraced ops)", summarize(&acc.step_s));
    let step = median(&acc.step_s);
    let solver: f64 = [Phase::Assembly, Phase::Solver1, Phase::Solver2, Phase::Sgs]
        .iter()
        .map(|&p| acc.phase_median(p))
        .sum();
    out.lines.push(format!(
        "layer separation: solver phases {:.1} % of step_s, particles.phase_s {:.1} % of step_s, \
         particles.inject_s {:.1} % of setup_s",
        100.0 * solver / step,
        100.0 * acc.phase_median(Phase::Particles) / step,
        100.0 * probe_median(&probes, |p| p.inject_s) / setup_s,
    ));
    out.spans = Some(spans);
    out
}

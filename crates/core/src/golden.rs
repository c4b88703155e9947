//! Golden-trace serialization: render a simulation run's logical event
//! log as a canonical text document that can be diffed byte-for-byte
//! against a checked-in golden file.
//!
//! Determinism contract: for any `threads_per_rank`, with DLB on or off,
//! the trace is bit-reproducible across runs and machines. Collectives
//! reduce in fixed rank order; inside a rank every pool sweep either
//! writes rows no other executor touches or sums in an order fixed by
//! its plan (chunk-indexed partials summed in chunk order, subdomain
//! tasks ordered along every shared row), never by which executor ran
//! what or by how many LeWI had granted at that instant. (`Atomics`
//! assembly is the exception, on purpose: the non-deterministic baseline
//! of the paper's Fig. 4/6, excluded from goldens.) All floating-point
//! payloads are rendered as `f64::to_bits` hex — a byte-equal trace
//! means bit-identical physics.
//!
//! Regenerate goldens after an *intended* physics change with
//! `CFPD_BLESS=1 cargo test -p cfpd-serve --test golden_trace`.

use crate::checkpoint::Checkpoint;
use crate::config::SimulationConfig;
use crate::simulation::{
    run_simulation, run_simulation_opts, LogicalEvent, RunOptions, SimulationResult,
};
use cfpd_mesh::{generate_airway, AirwaySpec};
use cfpd_particles::ParticleCensus;
use std::fmt::Write;
use std::sync::Arc;

/// The canonical small airway run the golden regression suite pins:
/// a 2-generation mesh, 200 particles, 3 steps, fixed seed.
pub fn golden_config() -> SimulationConfig {
    SimulationConfig {
        airway: AirwaySpec {
            generations: 2,
            ..AirwaySpec::small()
        },
        num_particles: 200,
        steps: 3,
        solver_tol: 1e-6,
        solver_max_iters: 500,
        seed: 20260807,
        ..Default::default()
    }
}

fn hex(bits: u64) -> String {
    format!("{bits:016x}")
}

/// Run the simulation in its plainest shape (1 thread per rank, DLB off)
/// and serialize its logical trace — the document any other shape of the
/// same configuration renders too.
pub fn golden_trace(config: &SimulationConfig, n_ranks: usize) -> String {
    render_run_doc(config, n_ranks, &run_simulation(config, n_ranks, 1, false))
}

/// [`golden_trace`] but with the structured wall-clock trace switched
/// on: returns the golden document (identical to [`golden_trace`] —
/// tracing never touches the logical event log) plus the full
/// [`SimulationResult`], whose `trace` carries worker, message and DLB
/// records ready for export.
pub fn golden_trace_traced(
    config: &SimulationConfig,
    n_ranks: usize,
) -> (String, SimulationResult) {
    let result = run_simulation_opts(
        config,
        n_ranks,
        1,
        &RunOptions { trace: true, ..Default::default() },
    );
    (render_run_doc(config, n_ranks, &result), result)
}

/// [`golden_trace`] but with the run *split in two*: execute steps
/// `[0, split_after)`, stop there with a checkpoint, round-trip it
/// through the text codec, restore into a fresh universe, finish the
/// run, and render the stitched logical log. Byte-equality with
/// [`golden_trace`] is the checkpoint/restart acceptance gate: a restart
/// is only correct if it is invisible in the golden file.
pub fn golden_trace_split(config: &SimulationConfig, n_ranks: usize, split_after: usize) -> String {
    assert!(
        split_after > 0 && split_after < config.steps,
        "split must fall strictly inside the run"
    );
    let part1 = run_simulation_opts(
        config,
        n_ranks,
        1,
        &RunOptions { stop_after: Some(split_after), ..Default::default() },
    );
    let cp = part1.checkpoint.expect("a stopped run captures its state");
    // Round-trip through the text codec so the gate also covers the
    // serialization path, not just the in-memory snapshot.
    let cp = Checkpoint::from_text(&cp.to_text()).expect("checkpoint text round-trip");
    let part2 = run_simulation_opts(
        config,
        n_ranks,
        1,
        &RunOptions { restore: Some(Arc::new(cp)), ..Default::default() },
    );
    let mut logical = part1.logical;
    logical.extend(part2.logical);
    let mut out = render_golden_header_for(config, n_ranks, part2.elements, part2.nodes);
    out.push_str(&render_golden_events(&logical));
    out.push_str(&render_golden_summary(&part2.census));
    out
}

/// The golden document of an executed run: [`render_golden_doc`] with
/// the header's mesh size taken from the run, not from a second mesh
/// generation.
pub(crate) fn render_run_doc(
    config: &SimulationConfig,
    n_ranks: usize,
    run: &SimulationResult,
) -> String {
    let mut out = render_golden_header_for(config, n_ranks, run.elements, run.nodes);
    out.push_str(&render_golden_events(&run.logical));
    out.push_str(&render_golden_summary(&run.census));
    out
}

/// Serialize a logical event log + final census as the canonical golden
/// document, for callers that hold no [`SimulationResult`] (the mesh
/// is generated once more to size the header).
///
/// The document is `header ++ event lines ++ summary`, and the three
/// parts are exposed individually ([`render_golden_header_for`],
/// [`render_golden_events`], [`render_golden_summary`]) because the
/// header depends only on the configuration, each event line depends
/// only on events already executed, and the summary depends only on the
/// final census — so a run executed as checkpointed *segments* can
/// persist its partial event text per segment and stitch a document
/// byte-identical to the uninterrupted run (`cfpd serve` relies on
/// this).
pub fn render_golden_doc(
    config: &SimulationConfig,
    n_ranks: usize,
    logical: &[LogicalEvent],
    census: &ParticleCensus,
) -> String {
    let mesh = generate_airway(&config.airway).expect("valid airway spec").mesh;
    let mut out = render_golden_header_for(config, n_ranks, mesh.num_elements(), mesh.num_nodes());
    out.push_str(&render_golden_events(logical));
    out.push_str(&render_golden_summary(census));
    out
}

/// The configuration-only header of the golden document (mesh + run
/// lines) for a mesh of `elements` and `nodes` (a run reports its counts
/// as `SimulationResult::{elements, nodes}`).
pub fn render_golden_header_for(
    config: &SimulationConfig,
    n_ranks: usize,
    elements: usize,
    nodes: usize,
) -> String {
    let mut out = String::new();
    let w = &mut out;
    writeln!(w, "cfpd golden trace v1").unwrap();
    writeln!(
        w,
        "mesh generations={} elements={elements} nodes={nodes}",
        config.airway.generations,
    )
    .unwrap();
    // The layout marker is appended only when an optimization is on, so
    // the default document stays byte-identical to pre-layout goldens.
    let layout_marker = if config.layout.is_default() {
        String::new()
    } else {
        format!(" layout={}", config.layout.label())
    };
    writeln!(
        w,
        "run ranks={} steps={} particles={} seed={} strategy={:?} subdomains={}{}",
        config.total_ranks(n_ranks),
        config.steps,
        config.num_particles,
        config.seed,
        config.strategy,
        config.subdomains_per_rank,
        layout_marker,
    )
    .unwrap();
    out
}

/// The per-event body lines of the golden document. Events from a
/// contiguous step range render independently of any later step, so
/// concatenating the rendered text of consecutive segments equals
/// rendering the full log at once.
pub fn render_golden_events(logical: &[LogicalEvent]) -> String {
    let mut out = String::new();
    let w = &mut out;
    for e in logical {
        match e {
            LogicalEvent::Assembly { step, rank, elements } => {
                writeln!(w, "step {step} rank {rank} assembly elements={elements}").unwrap();
            }
            LogicalEvent::Solve { step, rank, system, iterations, residual_bits, converged } => {
                writeln!(
                    w,
                    "step {step} rank {rank} solve system={system} iters={iterations} \
                     residual={} converged={converged}",
                    hex(*residual_bits),
                )
                .unwrap();
            }
            LogicalEvent::FieldDigest { step, rank, velocity, pressure } => {
                writeln!(
                    w,
                    "step {step} rank {rank} fields velocity={} pressure={}",
                    hex(*velocity),
                    hex(*pressure),
                )
                .unwrap();
            }
            LogicalEvent::Exchange { step, rank, sent, received } => {
                let sends: Vec<String> =
                    sent.iter().map(|(d, c)| format!("{d}:{c}")).collect();
                writeln!(
                    w,
                    "step {step} rank {rank} exchange sent=[{}] received={received}",
                    sends.join(" "),
                )
                .unwrap();
            }
            LogicalEvent::Particles { step, rank, active, deposited, escaped, lost } => {
                writeln!(
                    w,
                    "step {step} rank {rank} particles active={active} deposited={deposited} \
                     escaped={escaped} lost={lost}",
                )
                .unwrap();
            }
        }
    }
    out
}

/// The trailing summary lines, a pure function of the final census.
pub fn render_golden_summary(census: &ParticleCensus) -> String {
    let mut out = String::new();
    let w = &mut out;
    let c = census;
    let total = c.active + c.deposited + c.escaped + c.lost;
    writeln!(
        w,
        "summary census active={} deposited={} escaped={} lost={}",
        c.active, c.deposited, c.escaped, c.lost,
    )
    .unwrap();
    let frac = |n: usize| {
        if total == 0 { 0.0 } else { n as f64 / total as f64 }
    };
    writeln!(
        w,
        "summary deposition total={} deposited_frac={} escaped_frac={}",
        total,
        hex(frac(c.deposited).to_bits()),
        hex(frac(c.escaped).to_bits()),
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_has_header_events_and_summary() {
        let mut cfg = golden_config();
        cfg.airway.generations = 1;
        cfg.num_particles = 40;
        cfg.steps = 1;
        let trace = golden_trace(&cfg, 2);
        assert!(trace.starts_with("cfpd golden trace v1\n"));
        assert!(trace.contains("assembly elements="));
        assert!(trace.contains("solve system=3"));
        assert!(trace.contains("fields velocity="));
        assert!(trace.contains("summary census"));
        // Every rank-step contributes exchange + particles lines.
        assert_eq!(trace.matches(" exchange sent=").count(), 2);
        assert_eq!(trace.matches(" particles active=").count(), 2);
    }

    #[test]
    fn split_run_is_invisible_in_the_golden_document() {
        let mut cfg = golden_config();
        cfg.airway.generations = 1;
        cfg.num_particles = 40;
        cfg.steps = 2;
        assert_eq!(golden_trace_split(&cfg, 2, 1), golden_trace(&cfg, 2));
    }
}

//! Golden-trace serialization: render a simulation run's logical event
//! log as a canonical text document that can be diffed byte-for-byte
//! against a checked-in golden file. [`render_golden_document`] owns the
//! document's layout; every document — a [`crate::run_scenario`]
//! outcome, [`golden_trace_split`]'s stitched one, a served cell's,
//! [`render_golden_doc`]'s re-render — is closed by it.
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
use crate::scenario::{run_scenario, Scenario};
use crate::simulation::{LogicalEvent, RunOptions};
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
    run_scenario(&Scenario::deterministic(config.clone(), n_ranks)).doc
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
    let plain = Scenario::deterministic(config.clone(), n_ranks);
    let run = |opts: RunOptions| run_scenario(&Scenario { opts, ..plain.clone() }).result;
    let part1 = run(RunOptions { stop_after: Some(split_after), ..Default::default() });
    let cp = part1.checkpoint.expect("a stopped run captures its state");
    // Round-trip through the text codec so the gate also covers the
    // serialization path, not just the in-memory snapshot.
    let cp = Checkpoint::from_text(&cp.to_text()).expect("checkpoint text round-trip");
    let part2 = run(RunOptions { restore: Some(Arc::new(cp)), ..Default::default() });
    let mut logical = part1.logical;
    logical.extend(part2.logical);
    let size = (part2.elements, part2.nodes);
    render_golden_document(config, n_ranks, size, &render_golden_events(&logical), &part2.census)
}

/// Serialize a logical event log + final census as the canonical golden
/// document, for callers that hold no [`crate::SimulationResult`] (the
/// mesh is generated once more to size the header).
pub fn render_golden_doc(
    config: &SimulationConfig,
    n_ranks: usize,
    logical: &[LogicalEvent],
    census: &ParticleCensus,
) -> String {
    let mesh = generate_airway(&config.airway).expect("valid airway spec").mesh;
    let size = (mesh.num_elements(), mesh.num_nodes());
    render_golden_document(config, n_ranks, size, &render_golden_events(logical), census)
}

/// The golden document: `header ++ events_text ++ summary`, the one
/// place its layout is written down. The header depends only on the
/// configuration and the mesh size `(elements, nodes)` (a run reports
/// them as `SimulationResult::{elements, nodes}`), each event line only
/// on events already executed ([`render_golden_events`]), and the
/// summary only on the final census — so a run executed as checkpointed
/// *segments* can keep its event text per segment and close a document
/// byte-identical to the uninterrupted run's (`cfpd serve` relies on
/// this).
pub fn render_golden_document(
    config: &SimulationConfig,
    n_ranks: usize,
    (elements, nodes): (usize, usize),
    events_text: &str,
    census: &ParticleCensus,
) -> String {
    let mut out = render_golden_header(config, n_ranks, elements, nodes);
    out.push_str(events_text);
    out.push_str(&render_golden_summary(census));
    out
}

/// The configuration-only header of the golden document (mesh + run
/// lines) for a mesh of `elements` and `nodes`.
fn render_golden_header(
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
fn render_golden_summary(census: &ParticleCensus) -> String {
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

//! # cfpd-bench — harnesses regenerating every table and figure of the
//! paper's evaluation (§4)
//!
//! Each `benches/` target reproduces one artifact (see DESIGN.md §4 for
//! the experiment index) and writes its output both to stdout and to
//! `results/<name>.txt` at the workspace root. This library holds the
//! shared machinery: the figure-scale mesh, cached per-rank workload
//! profiles, scenario construction and table formatting.

#![forbid(unsafe_code)]

use cfpd_core::{measure_workload, PhaseCostModel, WorkloadProfile};
use cfpd_mesh::{generate_airway, AirwayMesh, AirwaySpec};
use cfpd_perfmodel::{CoupledScenario, Mapping, PhaseSpec, Platform, Sensitivity, SyncScenario};
use cfpd_solver::AssemblyStrategy;
use cfpd_trace::Phase;
use std::collections::HashMap;
use std::io::Write;

/// Reference particle count representing the paper's 4·10⁵ injection
/// (scaled 1:100 per DESIGN.md; the 7·10⁶ case is 17.5× this).
pub const PARTICLES_SMALL: usize = 4_000;
/// The 7·10⁶-equivalent injection.
pub const PARTICLES_LARGE: usize = 70_000;
/// Steps the paper averages over.
pub const STEPS: usize = 10;

/// Shared context: the figure-scale airway mesh plus caches of
/// per-rank-count workload profiles and coloring statistics.
pub struct FigureContext {
    pub airway: AirwayMesh,
    profiles: HashMap<usize, WorkloadProfile>,
    colors: HashMap<usize, usize>,
}

impl FigureContext {
    /// Build the figure mesh (4 branch generations, ~160 k hybrid
    /// elements — the largest scale that keeps every figure target
    /// under a few minutes on one core).
    pub fn new() -> FigureContext {
        let airway = generate_airway(&AirwaySpec::default()).expect("figure mesh");
        FigureContext { airway, profiles: HashMap::new(), colors: HashMap::new() }
    }

    /// Workload profile for `ranks` ranks at the reference particle
    /// count (cached). Particle vectors scale linearly for other counts.
    pub fn profile(&mut self, ranks: usize) -> &WorkloadProfile {
        let airway = &self.airway;
        self.profiles.entry(ranks).or_insert_with(|| {
            measure_workload(airway, ranks, PARTICLES_SMALL, STEPS, PhaseCostModel::default(), 42)
        })
    }

    /// Number of colors a rank-local greedy coloring needs at `ranks`
    /// ranks (measured on rank 0's subdomain; cached).
    pub fn colors_per_rank(&mut self, ranks: usize) -> usize {
        let airway = &self.airway;
        *self.colors.entry(ranks).or_insert_with(|| {
            let mesh = &airway.mesh;
            let n2e = mesh.node_to_elements();
            let adj = mesh.element_adjacency(&n2e);
            let g = cfpd_partition::Graph::from_csr_unit(&adj);
            let part = cfpd_partition::partition_kway(&g, ranks, 2);
            let members = part.part_members();
            let elems = &members[0];
            let weights: Vec<f64> =
                elems.iter().map(|&e| mesh.kinds[e as usize].cost_weight()).collect();
            let local = cfpd_partition::local_element_graph(mesh, elems, &weights);
            cfpd_partition::greedy_coloring(&local).num_colors
        })
    }

    /// Particle work vectors scaled to `num_particles`.
    pub fn particle_work(&mut self, ranks: usize, num_particles: usize) -> Vec<Vec<f64>> {
        let scale = num_particles as f64 / PARTICLES_SMALL as f64;
        self.profile(ranks)
            .particles_per_step
            .iter()
            .map(|v| v.iter().map(|w| w * scale).collect())
            .collect()
    }
}

impl Default for FigureContext {
    fn default() -> Self {
        Self::new()
    }
}

/// The five-phase synchronous step of the paper's profile, as DES phase
/// specs for `ranks` ranks under a strategy using `threads` per rank.
pub fn sync_phases(
    ctx: &mut FigureContext,
    ranks: usize,
    num_particles: usize,
    threads: usize,
) -> Vec<PhaseSpec> {
    let colors = ctx.colors_per_rank(ranks);
    let tasks = 16 * threads;
    let particles = ctx.particle_work(ranks, num_particles);
    let p = ctx.profile(ranks);
    vec![
        PhaseSpec::fixed(
            Phase::Assembly,
            p.assembly.clone(),
            Sensitivity::Assembly { colors, tasks },
        ),
        PhaseSpec::fixed(Phase::Solver1, p.solver1.clone(), Sensitivity::None),
        PhaseSpec::fixed(Phase::Solver2, p.solver2.clone(), Sensitivity::None),
        PhaseSpec::fixed(Phase::Sgs, p.sgs.clone(), Sensitivity::Sgs { colors, tasks }),
        PhaseSpec::per_step(Phase::Particles, particles, Sensitivity::None),
    ]
}

/// One x-axis entry of the Fig. 8–11 sweeps.
#[derive(Debug, Clone)]
pub struct DlbFigureRow {
    pub label: String,
    pub t_orig: f64,
    pub t_dlb: f64,
}

impl DlbFigureRow {
    pub fn speedup(&self) -> f64 {
        self.t_orig / self.t_dlb
    }
}

/// Run the Fig. 8–11 sweep: synchronous plus the coupled `f+p` ladder,
/// each with and without DLB, on `platform` with `num_particles`.
pub fn dlb_figure(
    ctx: &mut FigureContext,
    platform: &Platform,
    num_particles: usize,
) -> Vec<DlbFigureRow> {
    let c = platform.total_cores();
    let mut rows = Vec::new();

    // Synchronous with one rank per core.
    {
        let mut row = DlbFigureRow { label: format!("sync {c}"), t_orig: 0.0, t_dlb: 0.0 };
        for &dlb in &[false, true] {
            let scenario = SyncScenario {
                platform: platform.clone(),
                phases: sync_phases(ctx, c, num_particles, 1),
                steps: STEPS,
                threads_per_rank: 1,
                strategy: AssemblyStrategy::Multidep,
                dlb,
                mapping: Mapping::Block,
            };
            let t = scenario.run().total_time;
            if dlb {
                row.t_dlb = t;
            } else {
                row.t_orig = t;
            }
        }
        rows.push(row);
    }

    // Coupled ladder (fluid + particles). Includes oversubscribed
    // combinations — the "bad user decision" cases of the paper.
    let combos = [
        (c / 2, c / 2),
        (3 * c / 4, c / 4),
        (c / 4, 3 * c / 4),
        (c, c),
        (c / 2, c),
        (c, c / 2),
    ];
    for (f, p) in combos {
        let fluid_phases = {
            let colors = ctx.colors_per_rank(f);
            let prof = ctx.profile(f);
            vec![
                PhaseSpec::fixed(
                    Phase::Assembly,
                    prof.assembly.clone(),
                    Sensitivity::Assembly { colors, tasks: 16 },
                ),
                PhaseSpec::fixed(Phase::Solver1, prof.solver1.clone(), Sensitivity::None),
                PhaseSpec::fixed(Phase::Solver2, prof.solver2.clone(), Sensitivity::None),
                PhaseSpec::fixed(
                    Phase::Sgs,
                    prof.sgs.clone(),
                    Sensitivity::Sgs { colors, tasks: 16 },
                ),
            ]
        };
        let particle_phases = vec![PhaseSpec::per_step(
            Phase::Particles,
            ctx.particle_work(p, num_particles),
            Sensitivity::None,
        )];
        let mut row = DlbFigureRow { label: format!("{f}+{p}"), t_orig: 0.0, t_dlb: 0.0 };
        for &dlb in &[false, true] {
            let scenario = CoupledScenario {
                platform: platform.clone(),
                fluid_phases: fluid_phases.clone(),
                particle_phases: particle_phases.clone(),
                steps: STEPS,
                threads_per_rank: 1,
                strategy: AssemblyStrategy::Multidep,
                dlb,
                mapping: Mapping::RoundRobin,
            };
            let t = scenario.run().total_time;
            if dlb {
                row.t_dlb = t;
            } else {
                row.t_orig = t;
            }
        }
        rows.push(row);
    }
    rows
}

/// Write `body` to `path` whole, so that both copies of a pinned bench
/// are always byte-identical or absent.
fn write_atomic(path: &std::path::Path, body: &[u8]) {
    cfpd_testkit::record::write_atomic(path, body).expect("write json via a staged rename");
    println!("[written to {}]", path.display());
}

/// Write a bench JSON document to `results/<stem>[_quick].json` and,
/// for full (non-quick) runs, a repo-root copy `<stem>.json` — the
/// placement convention every bench binary shares. Both copies go
/// through the same atomic staged-rename path, and every full run
/// appends one provenance line to `results/trajectory.jsonl` so pinned
/// numbers carry a re-measurement history.
pub fn emit_json(stem: &str, quick: bool, body: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let file = if quick { format!("{stem}_quick.json") } else { format!("{stem}.json") };
    write_atomic(&dir.join(file), body.as_bytes());
    if !quick {
        let root_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(format!("{stem}.json"));
        write_atomic(&root_path, body.as_bytes());
        cfpd_testkit::bench::append_trajectory(&dir, stem, body).expect("append trajectory line");
    }
}

/// Render the shared `"rows": [...]` section of the bench JSON schema:
/// one `{ name, median_ns, min_ns, max_ns, iters, elements }` object per
/// row — the median and the sample range, `[min, median, max]` in the
/// tuple, printed to `prec` decimals.
pub fn json_rows(rows: &[(String, [f64; 3], usize, usize)], prec: usize) -> String {
    let mut body = String::from("  \"rows\": [\n");
    for (i, (name, [min, median, max], iters, elements)) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        body.push_str(&format!(
            "    {{ \"name\": \"{name}\", \"median_ns\": {median:.prec$}, \"min_ns\": {min:.prec$}, \
             \"max_ns\": {max:.prec$}, \"iters\": {iters}, \"elements\": {elements} }}{sep}\n"
        ));
    }
    body.push_str("  ]\n");
    body
}

/// Write `content` to `results/<name>.txt` (workspace root) and stdout.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.txt"));
    let mut f = std::fs::File::create(&path).expect("create results file");
    f.write_all(content.as_bytes()).expect("write results");
    println!("[written to {}]", path.display());
}

/// Simple fixed-width table formatter.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    let mut out = String::new();
    out.push_str(&fmt_row(&headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

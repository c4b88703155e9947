//! The metric declarations: one table from which `BENCHMARK.json` is
//! generated (`cfpd-benchmark manifest`) and against which every printed
//! metric is checked. Each row says on which workloads the metric
//! applies; the human-readable table leaves a metric out where it does
//! not apply, and the machine-readable last line — which must carry
//! every declared metric on every workload — reports 0 there.

use std::collections::BTreeMap;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "fluid_serial",
        "sync, 1 rank, 37k elements, 2000 particles: the plain single-threaded baseline; \
         assembly + Krylov + SGS fill the step, solver construction + k-way fill set-up",
    ),
    (
        "particles_serial",
        "sync, 1 rank, 4k elements, 80k particles: tracking fills the step and injection fills \
         set-up; solver work shows little",
    ),
    (
        "coupled_dlb",
        "coupled 1+1 with DLB, the paper's scenario: the fluid_serial solver on a pool that \
         grows and shrinks as the particle rank lends its core, plus a velocity exchange per step",
    ),
    (
        "serve_jobs",
        "1 closed-loop HTTP client submits unique-seed 4-cell campaigns to a 1-worker daemon: \
         per-segment re-set-up, checkpoint codec, snapshots, WAL and HTTP dominate, kernels do little",
    ),
];

pub fn workload_index(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|(n, _)| *n == name)
}

/// Workload sets, as bit masks over [`WORKLOADS`].
const FLUID: u8 = 1;
const PART: u8 = 2;
const COUPLED: u8 = 4;
const SERVE: u8 = 8;
const SIMS: u8 = FLUID | PART | COUPLED;
const ALL: u8 = SIMS | SERVE;
/// Checkpointing is defined for synchronous runs only.
const SYNC: u8 = FLUID | PART | SERVE;

#[derive(Debug, Clone, Copy)]
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true`: higher is better.
    pub higher: bool,
    /// Regression bound; `Some` marks an end-to-end metric.
    pub bound: Option<f64>,
    applies: u8,
}

impl MetricDecl {
    pub fn applies_to(&self, workload: usize) -> bool {
        self.applies & (1 << workload) != 0
    }

    pub fn better(&self) -> &'static str {
        if self.higher {
            "higher"
        } else {
            "lower"
        }
    }
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        higher: false,
        bound: Some(bound),
        applies: ALL,
    }
}

const fn low(name: &'static str, unit: &'static str, applies: u8) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        higher: false,
        bound: None,
        applies,
    }
}

const fn high(name: &'static str, unit: &'static str, applies: u8) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        higher: true,
        bound: None,
        applies,
    }
}

/// The three times are seconds divided by the host's slowdown around
/// each op (`host::HostScaled`). The bounds are as wide as the contract
/// allows, because what the scaling leaves of the host's own swing is
/// still 5-10 % between runs of one binary; README "Host and measured
/// spread" has the numbers.
pub const END_TO_END: [MetricDecl; 4] = [
    e2e("run_wall_s", "s", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("step_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.2),
];

pub const PER_LAYER: [MetricDecl; 73] = [
    // host: explains disagreement between sets of runs; gates nothing.
    low("host.slowdown", "ratio", ALL),
    low("host.slowdown_range_frac", "ratio", ALL),
    low("host.steal_frac", "ratio", ALL),
    // mesh
    low("mesh.generate_s", "s", ALL),
    low("mesh.adjacency_s", "s", ALL),
    low("mesh.elements", "count", ALL),
    low("mesh.nodes", "count", ALL),
    // partition
    low("partition.rcm_s", "s", ALL),
    low("partition.kway_s", "s", ALL),
    low("partition.rcm_bandwidth", "count", ALL),
    low("partition.imbalance", "ratio", ALL),
    // solver
    low("solver.construct_s", "s", ALL),
    low("solver.assembly_s", "s", ALL),
    low("solver.solver1_s", "s", ALL),
    low("solver.solver2_s", "s", ALL),
    low("solver.sgs_s", "s", ALL),
    low("solver.cg_iters_per_step", "count", ALL),
    low("solver.bicgstab_iters_per_step", "count", ALL),
    low("solver.step0_iters", "count", ALL),
    low("solver.assembly_kernel_s", "s", ALL),
    low("solver.spmv_s", "s", ALL),
    high("solver.spmv_gbps_computed", "GB/s", ALL),
    low("solver.cg_iter_s", "s", ALL),
    // particles
    low("particles.locator_build_s", "s", ALL),
    low("particles.inject_s", "s", ALL),
    low("particles.phase_s", "s", ALL),
    low("particles.ns_per_particle_step", "ns", ALL),
    low("particles.migrated_per_step", "count", ALL),
    low("particles.lost", "count", ALL),
    // simmpi
    low("simmpi.wait_s", "s", ALL),
    low("simmpi.wait_frac", "ratio", ALL),
    low("simmpi.msgs_per_step", "count", ALL),
    low("simmpi.bytes_per_step", "B", ALL),
    low("simmpi.allreduce_us", "us", ALL),
    // dlb
    high("dlb.lends", "count", COUPLED),
    high("dlb.cores_lent", "count", COUPLED),
    low("dlb.lend_reclaim_us", "us", ALL),
    low("dlb.twin_off_run_wall_s", "s", COUPLED),
    high("dlb.gain_ratio", "ratio", COUPLED),
    // runtime
    low("runtime.region_us", "us", ALL),
    low("runtime.task_us", "us", ALL),
    // core
    low("core.render_s", "s", ALL),
    low("core.checkpoint_encode_s", "s", SYNC),
    low("core.checkpoint_decode_s", "s", SYNC),
    low("core.checkpoint_bytes", "B", SYNC),
    high("core.pe", "ratio", ALL),
    high("core.load_balance", "ratio", ALL),
    low("core.step_unattributed_frac", "ratio", ALL),
    low("core.setup_unattributed_frac", "ratio", SIMS),
    // campaign
    low("campaign.parse_expand_us", "us", ALL),
    low("campaign.direct_job_s", "s", SERVE),
    low("campaign.render_json_us", "us", SERVE),
    // serve
    low("serve.admit_ms", "ms", SERVE),
    low("serve.poll_us", "us", SERVE),
    low("serve.result_ms", "ms", SERVE),
    low("serve.job_latency_1client_s", "s", SERVE),
    low("serve.job_latency_p90_s", "s", SERVE),
    high("serve.jobs_per_s", "1/s", SERVE),
    low("serve.overhead_ratio", "ratio", SERVE),
    low("serve.segments_per_job", "count", SERVE),
    low("serve.wal_bytes_per_job", "B", SERVE),
    low("serve.snapshot_bytes_per_job", "B", SERVE),
    low("serve.cold_start_ms", "ms", SERVE),
    low("serve.wal_append_us", "us", SERVE),
    low("serve.snapshot_write_us", "us", SERVE),
    // trace
    low("trace.overhead_frac", "ratio", SIMS),
    // ladder: the traced pass's own end-to-end reading, so each rung
    // can be read against the rung above it in one output.
    low("ladder.run_wall_s", "s", ALL),
    low("ladder.setup_s", "s", ALL),
    low("ladder.step_s", "s", ALL),
    low("ladder.setup_probes_s", "s", SIMS),
    low("ladder.step_phases_s", "s", ALL),
    low("ladder.solver_share_of_step", "ratio", ALL),
    low("ladder.particles_share_of_step", "ratio", ALL),
];

pub fn declared(trace: bool) -> &'static [MetricDecl] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Measured values by metric name. A metric that does not apply to the
/// workload is simply absent.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|d| d.name == name),
            "metric {name} is not declared"
        );
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest_json(run_seconds: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}\n"
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            d.name,
            d.unit,
            d.better(),
            d.bound.expect("end-to-end metrics carry a bound"),
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            d.name,
            d.unit,
            d.better(),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{parse_json, JsonValue};
    use std::collections::BTreeSet;

    fn checked_in() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(
            text.len() <= 64 * 1024,
            "BENCHMARK.json is limited to 64 KiB"
        );
        parse_json(&text).expect("BENCHMARK.json parses with cfpd_testkit::json")
    }

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        (1..=64).contains(&s.len())
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn valid_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&s.len()) && s.chars().all(ok)
    }

    fn field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
        v.get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("missing {key}"))
    }

    #[test]
    fn checked_in_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let seconds = checked_in()
            .get("run_seconds")
            .and_then(JsonValue::as_u64)
            .unwrap();
        assert_eq!(
            text,
            manifest_json(seconds),
            "regenerate with `cfpd-benchmark manifest`"
        );
        assert!((1..=60).contains(&seconds));
    }

    #[test]
    fn every_printed_metric_is_declared_and_every_declared_metric_is_printed() {
        let doc = checked_in();
        let mut names = BTreeSet::new();
        for (section, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = doc.get(section).and_then(JsonValue::as_array).unwrap();
            assert_eq!(declared.len(), table.len(), "{section}");
            for (json, decl) in declared.iter().zip(table) {
                // What the benchmark prints is exactly what the file declares...
                assert_eq!(field(json, "name"), decl.name);
                assert_eq!(field(json, "unit"), decl.unit);
                assert_eq!(field(json, "better"), decl.better());
                assert!(valid_name(decl.name), "{}", decl.name);
                assert!(valid_unit(decl.unit), "{}", decl.unit);
                assert!(names.insert(decl.name), "{} declared twice", decl.name);
                // ...and each declared metric is printed on some workload.
                assert!(
                    (0..WORKLOADS.len()).any(|w| decl.applies_to(w)),
                    "{}",
                    decl.name
                );
                match decl.bound {
                    Some(b) => {
                        assert_eq!(json.get("bound").and_then(JsonValue::as_f64), Some(b));
                        assert!(b > 0.0 && b <= 0.25);
                        assert!(
                            (0..WORKLOADS.len()).all(|w| decl.applies_to(w)),
                            "{}",
                            decl.name
                        );
                    }
                    None => assert!(json.get("bound").is_none()),
                }
            }
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && !d.higher));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .unwrap()
            .bound;
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup),
            "setup_s carries the largest bound"
        );
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn workloads_are_named_and_explained_in_one_line() {
        let doc = checked_in();
        let declared = doc.get("workloads").and_then(JsonValue::as_array).unwrap();
        assert_eq!(declared.len(), WORKLOADS.len());
        for (json, (name, why)) in declared.iter().zip(WORKLOADS) {
            assert_eq!(field(json, "name"), name);
            assert_eq!(field(json, "why"), why);
            assert!(valid_name(name));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {} chars",
                why.len()
            );
            assert_eq!(
                workload_index(name),
                WORKLOADS.iter().position(|w| w.0 == name)
            );
        }
        let command = doc.get("command").and_then(JsonValue::as_array).unwrap();
        assert!(command.len() <= 32);
        assert_eq!(
            doc.get("paths")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(1)
        );
    }

    #[test]
    fn undeclared_metrics_cannot_be_set() {
        let mut m = Metrics::default();
        m.set("run_wall_s", 1.0);
        assert_eq!(m.get("run_wall_s"), Some(1.0));
        assert_eq!(m.get("step_s"), None);
        assert!(std::panic::catch_unwind(move || m.set("made.up", 1.0)).is_err());
    }
}

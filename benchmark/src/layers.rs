//! Reading time steps and per-layer numbers out of what an op already
//! returns (its phase trace, logical counts, DLB stats). Shared by the
//! simulation workloads and by the direct cell runs of `serve_jobs`.

use crate::api::{self, CheckpointProbe, OpOut, Phase, PhaseSpan, SetupProbe, SimSpec};
use crate::metrics::Metrics;
use crate::spans::Spans;
use crate::stats::median;

/// One time step of one rank.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankStep {
    pub t0: f64,
    pub t1: f64,
    /// Seconds per [`Phase`], in declaration order.
    pub phase_s: [f64; 6],
}

impl RankStep {
    pub fn duration(&self) -> f64 {
        self.t1 - self.t0
    }

    pub fn attributed(&self) -> f64 {
        self.phase_s.iter().sum()
    }

    pub fn solver_s(&self) -> f64 {
        self.phase_s[Phase::Assembly as usize..=Phase::Sgs as usize]
            .iter()
            .sum()
    }
}

/// Split an op's phase intervals into `[rank][step]`. A rank's step
/// starts where the phase its trace opens with recurs: assembly on a
/// rank that solves the flow, the velocity receive on a particle rank of
/// a coupled run. Its last step ends with its last interval.
pub fn split_steps(phases: &[PhaseSpan]) -> Vec<Vec<RankStep>> {
    let ranks = phases.iter().map(|p| p.rank + 1).max().unwrap_or(0);
    let mut out = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        let mut mine: Vec<&PhaseSpan> = phases.iter().filter(|p| p.rank == rank).collect();
        mine.sort_by(|a, b| a.t0.total_cmp(&b.t0));
        let mut steps: Vec<RankStep> = Vec::new();
        let opener = mine.first().map(|p| p.phase);
        for p in mine {
            if Some(p.phase) == opener {
                if let Some(prev) = steps.last_mut() {
                    prev.t1 = p.t0;
                }
                steps.push(RankStep {
                    t0: p.t0,
                    t1: p.t1,
                    ..Default::default()
                });
            }
            let step = steps.last_mut().expect("the opening phase started a step");
            step.phase_s[p.phase as usize] += p.t1 - p.t0;
            step.t1 = step.t1.max(p.t1);
        }
        out.push(steps);
    }
    out
}

/// The stepping span of an op: first phase start to last phase end.
/// Untraced synchronous runs keep one clock per rank, each started when
/// that rank finished its set-up, so this is the longest-stepping rank.
pub fn stepping_span(phases: &[PhaseSpan]) -> f64 {
    let t0 = phases.iter().map(|p| p.t0).fold(f64::INFINITY, f64::min);
    let t1 = phases
        .iter()
        .map(|p| p.t1)
        .fold(f64::NEG_INFINITY, f64::max);
    if t1 > t0 {
        t1 - t0
    } else {
        0.0
    }
}

/// Per-step and per-op samples pooled over the ops of one workload.
#[derive(Debug, Default)]
pub struct LayerAcc {
    /// Per step, the slowest rank's time in each phase.
    phase_max: [Vec<f64>; 6],
    /// Per step, the slowest rank's blocked time (traced ops).
    wait_max: Vec<f64>,
    /// Rank 0's step durations.
    pub step_s: Vec<f64>,
    /// Per rank-step, the share of the step no phase accounts for.
    unattributed: Vec<f64>,
    /// Per step of rank 0, the time its phases account for.
    attributed_r0: Vec<f64>,
    solver_share: Vec<f64>,
    particles_share: Vec<f64>,
    cg_iters: Vec<f64>,
    bicgstab_iters: Vec<f64>,
    step0_iters: Vec<f64>,
    ns_per_particle_step: Vec<f64>,
    migrated_per_step: Vec<f64>,
    msgs_per_step: Vec<f64>,
    bytes_per_step: Vec<f64>,
    lost: Vec<f64>,
    pe: Vec<f64>,
    load_balance: Vec<f64>,
    lends: Vec<f64>,
    cores_lent: Vec<f64>,
    any_traced: bool,
}

impl LayerAcc {
    /// Fold in one op that ran `steps` steps over `particles` particles.
    pub fn absorb(&mut self, op: &OpOut, steps: usize, particles: usize) {
        let by_rank = split_steps(&op.phases);
        let n_steps = by_rank.iter().map(Vec::len).max().unwrap_or(0);
        for k in 0..n_steps {
            for (p, pool) in self.phase_max.iter_mut().enumerate() {
                let slowest = by_rank
                    .iter()
                    .filter_map(|r| r.get(k))
                    .map(|s| s.phase_s[p])
                    .fold(0.0, f64::max);
                pool.push(slowest);
            }
        }
        for (rank, rank_steps) in by_rank.iter().enumerate() {
            for s in rank_steps {
                if s.duration() > 0.0 {
                    self.unattributed
                        .push((s.duration() - s.attributed()) / s.duration());
                }
                if rank == 0 {
                    self.step_s.push(s.duration());
                    self.attributed_r0.push(s.attributed());
                    if s.duration() > 0.0 {
                        self.solver_share.push(s.solver_s() / s.duration());
                    }
                }
            }
        }
        // The particle phase is judged against rank 0's step too, but a
        // coupled run tracks on another rank: take the slowest rank.
        if let Some(r0) = by_rank.first() {
            for (k, s) in r0.iter().enumerate() {
                let slowest = by_rank
                    .iter()
                    .filter_map(|r| r.get(k))
                    .map(|s| s.phase_s[Phase::Particles as usize])
                    .fold(0.0, f64::max);
                if s.duration() > 0.0 {
                    self.particles_share.push(slowest / s.duration());
                }
                if particles > 0 {
                    self.ns_per_particle_step
                        .push(slowest * 1e9 / particles as f64);
                }
            }
        }
        if op.traced {
            self.any_traced = true;
            for k in 0..n_steps {
                let slowest = by_rank
                    .iter()
                    .enumerate()
                    .filter_map(|(rank, r)| r.get(k).map(|s| (rank, s)))
                    .map(|(rank, s)| {
                        op.waits
                            .iter()
                            .filter(|w| w.0 == rank && w.1 >= s.t0 && w.1 < s.t1)
                            .map(|w| w.2 - w.1)
                            .sum::<f64>()
                    })
                    .fold(0.0, f64::max);
                self.wait_max.push(slowest);
            }
            self.msgs_per_step.push(op.msgs as f64 / steps as f64);
            self.bytes_per_step.push(op.msg_bytes as f64 / steps as f64);
        }

        let solver_rank = op.facts.solves.iter().map(|s| s.rank).min().unwrap_or(0);
        let iters = |pick: &dyn Fn(&crate::check::Solve) -> bool| {
            op.facts
                .solves
                .iter()
                .filter(|s| s.rank == solver_rank && pick(s))
                .map(|s| s.iterations)
                .sum::<usize>() as f64
        };
        self.cg_iters.push(iters(&|s| s.system == 3) / steps as f64);
        self.bicgstab_iters
            .push(iters(&|s| s.system < 3) / steps as f64);
        self.step0_iters.push(iters(&|s| s.step == 0));
        self.migrated_per_step
            .push(op.migrated as f64 / steps as f64);
        self.lost.push(op.facts.census[3] as f64);
        self.pe.push(op.pe);
        self.load_balance.push(op.load_balance);
        if let Some((lends, cores)) = op.dlb {
            self.lends.push(lends as f64);
            self.cores_lent.push(cores as f64);
        }
    }

    pub fn phase_median(&self, phase: Phase) -> f64 {
        median_or_zero(&self.phase_max[phase as usize])
    }

    /// Write the layer metrics that are read from what ops return.
    pub fn emit(&self, m: &mut Metrics) {
        m.set("solver.assembly_s", self.phase_median(Phase::Assembly));
        m.set("solver.solver1_s", self.phase_median(Phase::Solver1));
        m.set("solver.solver2_s", self.phase_median(Phase::Solver2));
        m.set("solver.sgs_s", self.phase_median(Phase::Sgs));
        m.set("particles.phase_s", self.phase_median(Phase::Particles));
        let cg = median_or_zero(&self.cg_iters);
        m.set("solver.cg_iters_per_step", cg);
        m.set(
            "solver.bicgstab_iters_per_step",
            median_or_zero(&self.bicgstab_iters),
        );
        m.set("solver.step0_iters", median_or_zero(&self.step0_iters));
        if cg > 0.0 {
            m.set("solver.cg_iter_s", self.phase_median(Phase::Solver2) / cg);
        }
        m.set(
            "particles.ns_per_particle_step",
            median_or_zero(&self.ns_per_particle_step),
        );
        m.set(
            "particles.migrated_per_step",
            median_or_zero(&self.migrated_per_step),
        );
        m.set("particles.lost", median_or_zero(&self.lost));
        m.set("core.pe", median_or_zero(&self.pe));
        m.set("core.load_balance", median_or_zero(&self.load_balance));
        m.set(
            "core.step_unattributed_frac",
            median_or_zero(&self.unattributed),
        );
        let step = median_or_zero(&self.step_s);
        m.set("ladder.step_s", step);
        m.set("ladder.step_phases_s", median_or_zero(&self.attributed_r0));
        m.set(
            "ladder.solver_share_of_step",
            median_or_zero(&self.solver_share),
        );
        m.set(
            "ladder.particles_share_of_step",
            median_or_zero(&self.particles_share),
        );
        if !self.lends.is_empty() {
            m.set("dlb.lends", median(&self.lends));
            m.set("dlb.cores_lent", median(&self.cores_lent));
        }
    }

    /// Write the blocked time and message counts, which only traced ops
    /// record; nothing when no traced op was folded in.
    pub fn emit_simmpi(&self, m: &mut Metrics) {
        if !self.any_traced {
            return;
        }
        let (wait, step) = (median_or_zero(&self.wait_max), median_or_zero(&self.step_s));
        m.set("simmpi.wait_s", wait);
        if step > 0.0 {
            m.set("simmpi.wait_frac", wait / step);
        }
        m.set("simmpi.msgs_per_step", median_or_zero(&self.msgs_per_step));
        m.set(
            "simmpi.bytes_per_step",
            median_or_zero(&self.bytes_per_step),
        );
    }
}

/// Median over `probes` of one of their times.
pub fn probe_median(probes: &[SetupProbe], f: impl Fn(&SetupProbe) -> f64) -> f64 {
    median_or_zero(&probes.iter().map(f).collect::<Vec<_>>())
}

/// Write the set-up probe metrics: medians of the per-op replays, facts
/// from the first.
pub fn emit_setup_probes(m: &mut Metrics, probes: &[SetupProbe], render_s: &[f64]) {
    let Some(first) = probes.first() else { return };
    m.set("mesh.generate_s", probe_median(probes, |p| p.generate_s));
    m.set("mesh.adjacency_s", probe_median(probes, |p| p.adjacency_s));
    m.set("mesh.elements", first.elements as f64);
    m.set("mesh.nodes", first.nodes as f64);
    m.set("partition.rcm_s", probe_median(probes, |p| p.rcm_s));
    m.set("partition.kway_s", probe_median(probes, |p| p.kway_s));
    m.set("partition.rcm_bandwidth", first.rcm_bandwidth as f64);
    m.set("partition.imbalance", first.imbalance);
    m.set(
        "solver.construct_s",
        probe_median(probes, |p| p.construct_s),
    );
    m.set(
        "particles.locator_build_s",
        probe_median(probes, |p| p.locator_build_s),
    );
    m.set("particles.inject_s", probe_median(probes, |p| p.inject_s));
    m.set("core.render_s", median_or_zero(render_s));
}

/// Run the probes made once per traced pass — kernels on `spec`'s mesh,
/// runtime, simmpi, dlb, the DSL on `campaign_text`, the checkpoint
/// codec — and write their metrics. Returns the checkpoint probe.
pub fn emit_pass_probes(
    m: &mut Metrics,
    spec: &SimSpec,
    campaign_text: &str,
    spans: &mut Spans,
) -> Option<CheckpointProbe> {
    let kernels = api::probe_kernels(spec, spans);
    m.set("solver.assembly_kernel_s", kernels.assembly_kernel_s);
    m.set("solver.spmv_s", kernels.spmv_s);
    m.set(
        "solver.spmv_gbps_computed",
        kernels.spmv_bytes as f64 / kernels.spmv_s / 1e9,
    );
    let (region_us, task_us) = api::probe_runtime(spans);
    m.set("runtime.region_us", region_us);
    m.set("runtime.task_us", task_us);
    m.set("simmpi.allreduce_us", api::probe_allreduce(spans));
    m.set("dlb.lend_reclaim_us", api::probe_lend_reclaim(spans));
    m.set(
        "campaign.parse_expand_us",
        api::probe_parse_expand(campaign_text, spans),
    );
    let cp = api::probe_checkpoint(spec, spans)?;
    m.set("core.checkpoint_encode_s", cp.encode_s);
    m.set("core.checkpoint_decode_s", cp.decode_s);
    m.set("core.checkpoint_bytes", cp.text.len() as f64);
    Some(cp)
}

pub fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(rank: usize, phase: Phase, t0: f64, t1: f64) -> PhaseSpan {
        PhaseSpan {
            rank,
            phase,
            t0,
            t1,
        }
    }

    #[test]
    fn steps_open_with_the_ranks_first_phase() {
        // Rank 0 solves (opens with assembly), rank 1 tracks (opens with
        // the velocity receive), two steps each.
        let phases = vec![
            span(0, Phase::Assembly, 1.0, 2.0),
            span(0, Phase::Solver2, 2.0, 4.0),
            span(0, Phase::Mpi, 4.0, 4.5),
            span(0, Phase::Assembly, 5.0, 6.0),
            span(0, Phase::Solver2, 6.0, 7.0),
            span(1, Phase::Mpi, 0.5, 4.2),
            span(1, Phase::Particles, 4.2, 4.8),
            span(1, Phase::Mpi, 4.8, 7.1),
            span(1, Phase::Particles, 7.1, 7.5),
        ];
        let steps = split_steps(&phases);
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].len(), 2);
        assert_eq!((steps[0][0].t0, steps[0][0].t1), (1.0, 5.0));
        assert_eq!(steps[0][0].attributed(), 3.5);
        assert_eq!(steps[0][0].solver_s(), 3.0);
        assert_eq!((steps[0][1].t0, steps[0][1].t1), (5.0, 7.0));
        assert_eq!(steps[1].len(), 2);
        assert_eq!((steps[1][0].t0, steps[1][0].t1), (0.5, 4.8));
        // `black_box`: with these literals visible, rustc 1.95 at
        // opt-level 3 with debug assertions folds the max over the nine
        // ends to 7.1, dropping the last element; data that arrives at
        // run time, as every measured trace does, is reduced correctly.
        assert_eq!(stepping_span(std::hint::black_box(&phases)), 7.0);
        assert_eq!(stepping_span(&[]), 0.0);
    }
}

//! Deterministic virtual-time emulator of a heterogeneous cluster step
//! loop under reactive-LeWI vs predictive DLB.
//!
//! Why not reuse the perfmodel DES directly? With fully-malleable work
//! and *instant* lending, reactive LeWI already reaches the
//! `Σwork / Σcores` makespan lower bound — prediction cannot beat it.
//! The costs that make pre-lending pay are the ones real LeWI carries:
//!
//! - **lend latency**: a reactive lend only lands a detection delay
//!   *after* the fast rank blocks, so the straggler runs under-provisioned
//!   in the meantime;
//! - **kept cores**: what a blocked rank holds back under the
//!   [`LendPolicy`] in force — one busy-wait core under `KeepOne`, none
//!   under `LendAll`, which is what production runs since a blocked
//!   `cfpd-simmpi` rank parks.
//!
//! This emulator models both, in virtual time, with no randomness and no
//! wall-clock reads — every run is bit-identical. Per step each rank
//! owes `work_per_step / speed(rank)` core-seconds; rates follow the
//! shared [`efficiency_curve`]. Under [`DlbPolicy::Reactive`] every rank
//! starts on its owned cores and sheds all but its kept cores to
//! same-node workers `lend_latency` after finishing. Under
//! [`DlbPolicy::Predictive`] the [`ImbalancePredictor`] sets the step's
//! starting allocation (its
//! water-fill, renormalized per node), then the same reactive machinery
//! mops up whatever imbalance the model missed — and per-rank feedback
//! drops a mispredicting rank back to the reactive start for a step.

use crate::predictor::{ImbalancePredictor, PredictorConfig};
use crate::profiles;
use cfpd_dlb::{DlbPolicy, LendPolicy};
use cfpd_perfmodel::{efficiency_curve, Platform};
use cfpd_simmpi::RankProfile;

/// One emulated cluster + workload.
#[derive(Debug, Clone)]
pub struct EmulatorConfig {
    pub ranks: usize,
    pub nodes: usize,
    pub steps: usize,
    /// Cores each rank owns at step start.
    pub cores_per_rank: usize,
    /// Core-seconds a unit-speed rank owes per step.
    pub work_per_step: f64,
    /// Per-rank relative speeds (cycled if shorter than `ranks`).
    pub speeds: Vec<f64>,
    /// Speeds the predictor is calibrated with — `None` means the true
    /// `speeds` (a mismatch exercises the fallback path).
    pub calibration_speeds: Option<Vec<f64>>,
    /// Per-extra-core efficiency loss (shared curve).
    pub efficiency_loss: f64,
    /// Barrier/allreduce latency closing each step [s].
    pub comm_latency: f64,
    /// Delay between a rank blocking and its reactive lend landing [s].
    pub lend_latency: f64,
    pub predictor: PredictorConfig,
}

impl EmulatorConfig {
    /// A cluster of `ranks` ranks over `nodes` nodes running `profile`,
    /// with the non-speed constants taken from the MareNostrum4
    /// platform model (host cluster of the paper's DLB experiments).
    pub fn calibrated(
        profile: &RankProfile,
        ranks: usize,
        nodes: usize,
        steps: usize,
    ) -> EmulatorConfig {
        let mn4 = Platform::mare_nostrum4();
        EmulatorConfig {
            ranks,
            nodes,
            steps,
            cores_per_rank: 4,
            // Unit-speed ranks take ~1 s/step on their own cores.
            work_per_step: 4.0,
            speeds: profiles::speeds(profile, ranks),
            calibration_speeds: None,
            efficiency_loss: mn4.thread_efficiency_loss,
            comm_latency: mn4.comm_latency,
            // DLB detection + OpenMP region growth before lent cores do
            // useful work — the cost pre-lending sidesteps.
            lend_latency: 0.05,
            predictor: PredictorConfig::default(),
        }
    }

    fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks.div_ceil(self.nodes)
    }

    fn speed(&self, rank: usize) -> f64 {
        self.speeds[rank % self.speeds.len()]
    }
}

/// POP-style efficiency metrics of one emulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyMetrics {
    pub policy: DlbPolicy,
    /// Virtual wall-clock of the whole run [s].
    pub wall_secs: f64,
    /// Per-rank useful (computing) seconds.
    pub useful_secs: Vec<f64>,
    /// Load balance: avg(useful) / max(useful).
    pub lb: f64,
    /// Communication efficiency: max(useful) / wall.
    pub comm_e: f64,
    /// Parallel efficiency: LB × CommE = avg(useful) / wall.
    pub pe: f64,
    /// Pre-lend plans that shed at least one core (predictive only).
    pub pre_lends: u64,
    /// Steps a rank spent in reactive fallback (predictive only).
    pub fallbacks: u64,
}

/// Emulate `cfg` under `policy`.
pub fn emulate(cfg: &EmulatorConfig, policy: DlbPolicy) -> PolicyMetrics {
    assert!(cfg.ranks > 0 && cfg.nodes > 0 && cfg.cores_per_rank > 0);
    assert!(!cfg.speeds.is_empty());
    let n = cfg.ranks;
    let predictor = match policy {
        DlbPolicy::Reactive => None,
        DlbPolicy::Predictive => {
            let cal = cfg.calibration_speeds.as_deref().unwrap_or(&cfg.speeds);
            Some(ImbalancePredictor::calibrated(
                n,
                cfg.cores_per_rank,
                cal,
                cfg.predictor,
            ))
        }
    };

    let mut useful = vec![0.0f64; n];
    let mut wall = 0.0f64;
    for _step in 0..cfg.steps {
        // Step-start allocation.
        let alloc = match &predictor {
            None => vec![cfg.cores_per_rank as f64; n],
            Some(p) => {
                // plan() records each rank's predicted wait (and the
                // pre-lend counters) before the blocking call …
                for r in 0..n {
                    p.plan(r);
                }
                // … and the water-fill gives the continuous allocation,
                // renormalized so each node conserves its own cores.
                let global = p.allocations((n * cfg.cores_per_rank) as f64, 1.0);
                let alloc = renormalize_per_node(cfg, &global);
                // Score predictions against the cores actually granted.
                for r in 0..n {
                    p.note_allocation(r, alloc[r]);
                }
                alloc
            }
        };

        let finish = run_step(cfg, &alloc);
        let max_finish = finish.iter().fold(0.0f64, |a, &b| a.max(b));
        let t_end = max_finish + cfg.comm_latency;
        wall += t_end;
        for r in 0..n {
            useful[r] += finish[r];
            if let Some(p) = &predictor {
                p.observe(r, finish[r], alloc[r]);
                p.feedback(r, max_finish - finish[r]);
            }
        }
    }

    let avg = useful.iter().sum::<f64>() / n as f64;
    let max = useful.iter().fold(0.0f64, |a, &b| a.max(b));
    let lb = if max > 0.0 { avg / max } else { 1.0 };
    let comm_e = if wall > 0.0 { max / wall } else { 1.0 };
    let stats = predictor.map(|p| p.stats()).unwrap_or_default();
    PolicyMetrics {
        policy,
        wall_secs: wall,
        useful_secs: useful,
        lb,
        comm_e,
        pe: lb * comm_e,
        pre_lends: stats.plans,
        fallbacks: stats.fallbacks,
    }
}

/// Scale each node's slice of `global` so it sums to the node's cores
/// (the predictor's water-fill is cluster-wide; lending is intra-node).
fn renormalize_per_node(cfg: &EmulatorConfig, global: &[f64]) -> Vec<f64> {
    let mut alloc = global.to_vec();
    for node in 0..cfg.nodes {
        let members: Vec<usize> =
            (0..cfg.ranks).filter(|&r| cfg.node_of(r) == node).collect();
        if members.is_empty() {
            continue;
        }
        let have: f64 = members.iter().map(|&r| global[r]).sum();
        let want = (members.len() * cfg.cores_per_rank) as f64;
        if have > 0.0 {
            for &r in &members {
                alloc[r] = global[r] * want / have;
            }
        }
    }
    alloc
}

const EPS: f64 = 1e-9;

/// Run one step from allocation `alloc`; returns per-rank finish times.
///
/// Event loop in virtual time: the next event is either a rank
/// finishing (it then holds back [`LendPolicy::kept_cores`] of the
/// production policy and schedules a lend of the rest at
/// `t + lend_latency`) or a scheduled lend landing (its
/// cores are split equally among the node's still-working ranks; cores
/// with no worker left to take them idle out).
fn run_step(cfg: &EmulatorConfig, alloc: &[f64]) -> Vec<f64> {
    let kept = LendPolicy::default().kept_cores() as f64;
    let n = cfg.ranks;
    let mut finish = vec![0.0f64; n];
    for node in 0..cfg.nodes {
        let members: Vec<usize> =
            (0..n).filter(|&r| cfg.node_of(r) == node).collect();
        if members.is_empty() {
            continue;
        }
        let mut work: Vec<f64> =
            members.iter().map(|&r| cfg.work_per_step / cfg.speed(r)).collect();
        let mut cores: Vec<f64> = members.iter().map(|&r| alloc[r]).collect();
        let mut done = vec![false; members.len()];
        // Pending lends: (arrival time, cores).
        let mut lends: Vec<(f64, f64)> = Vec::new();
        let mut t = 0.0f64;
        loop {
            let working: Vec<usize> =
                (0..members.len()).filter(|&i| !done[i]).collect();
            if working.is_empty() {
                break;
            }
            let rate =
                |c: f64| c * efficiency_curve(cfg.efficiency_loss, c);
            let t_fin = working
                .iter()
                .map(|&i| t + work[i] / rate(cores[i]))
                .fold(f64::INFINITY, f64::min);
            let t_lend =
                lends.iter().map(|&(at, _)| at).fold(f64::INFINITY, f64::min);
            let t_next = t_fin.min(t_lend);
            let dt = t_next - t;
            for &i in &working {
                work[i] = (work[i] - dt * rate(cores[i])).max(0.0);
            }
            t = t_next;
            // Finishes first: a lend landing at the same instant goes to
            // the ranks still working after them.
            for &i in &working {
                if work[i] <= EPS {
                    done[i] = true;
                    finish[members[i]] = t;
                    let spare = (cores[i] - kept).max(0.0);
                    if spare > 0.0 {
                        lends.push((t + cfg.lend_latency, spare));
                    }
                    cores[i] = kept;
                }
            }
            let mut arrived = 0.0f64;
            lends.retain(|&(at, c)| {
                if at <= t + EPS {
                    arrived += c;
                    false
                } else {
                    true
                }
            });
            if arrived > 0.0 {
                let still: Vec<usize> =
                    (0..members.len()).filter(|&i| !done[i]).collect();
                if !still.is_empty() {
                    let each = arrived / still.len() as f64;
                    for &i in &still {
                        cores[i] += each;
                    }
                }
                // else: the lend landed after everyone blocked — idle.
            }
        }
    }
    finish
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_cfg() -> EmulatorConfig {
        let profile = profiles::profile_by_name("mn4_thunder", 7).unwrap();
        EmulatorConfig::calibrated(&profile, 4, 2, 6)
    }

    #[test]
    fn uniform_cluster_needs_no_dlb() {
        let profile = profiles::profile_by_name("uniform", 1).unwrap();
        let cfg = EmulatorConfig::calibrated(&profile, 4, 1, 3);
        let m = emulate(&cfg, DlbPolicy::Reactive);
        assert!(m.lb > 0.999, "{m:?}");
        assert!(m.pe > 0.99, "{m:?}");
        let p = emulate(&cfg, DlbPolicy::Predictive);
        assert_eq!(p.pre_lends, 0, "nothing to pre-lend when balanced");
    }

    #[test]
    fn predictive_beats_reactive_on_mixed_nodes() {
        let cfg = mixed_cfg();
        let re = emulate(&cfg, DlbPolicy::Reactive);
        let pr = emulate(&cfg, DlbPolicy::Predictive);
        assert!(re.pe < 0.9, "reactive leaves imbalance on the table: {re:?}");
        assert!(
            pr.pe > re.pe + 0.05,
            "predictive must improve PE: {} vs {}",
            pr.pe,
            re.pe
        );
        assert!(pr.wall_secs < re.wall_secs, "{} vs {}", pr.wall_secs, re.wall_secs);
        assert!(pr.pre_lends > 0);
        assert_eq!(pr.fallbacks, 0, "a calibrated model should hold: {pr:?}");
    }

    #[test]
    fn miscalibrated_model_falls_back_then_recovers() {
        let mut cfg = mixed_cfg();
        // Lie to the predictor: swap which class is slow.
        let mut lie = cfg.speeds.clone();
        lie.reverse();
        cfg.calibration_speeds = Some(lie);
        let pr = emulate(&cfg, DlbPolicy::Predictive);
        let re = emulate(&cfg, DlbPolicy::Reactive);
        assert!(pr.fallbacks > 0, "the lie must be caught: {pr:?}");
        // Observations overwrite the bad prior within a few steps, so
        // the run still ends ahead of pure reactive.
        assert!(pr.pe > re.pe, "{} vs {}", pr.pe, re.pe);
    }

    #[test]
    fn pop_identity_holds() {
        for policy in [DlbPolicy::Reactive, DlbPolicy::Predictive] {
            let m = emulate(&mixed_cfg(), policy);
            assert!((m.pe - m.lb * m.comm_e).abs() < 1e-12, "{m:?}");
            assert!(m.lb > 0.0 && m.lb <= 1.0);
            assert!(m.comm_e > 0.0 && m.comm_e <= 1.0);
        }
    }

    #[test]
    fn emulation_is_bit_deterministic() {
        let cfg = mixed_cfg();
        for policy in [DlbPolicy::Reactive, DlbPolicy::Predictive] {
            let a = emulate(&cfg, policy);
            let b = emulate(&cfg, policy);
            assert_eq!(a, b, "virtual time must not wobble");
        }
    }

    #[test]
    fn lend_latency_is_what_prediction_buys_back() {
        let mut cfg = mixed_cfg();
        cfg.lend_latency = 0.0;
        let re0 = emulate(&cfg, DlbPolicy::Reactive);
        cfg.lend_latency = 0.2;
        let re2 = emulate(&cfg, DlbPolicy::Reactive);
        let pr2 = emulate(&cfg, DlbPolicy::Predictive);
        // Reactive pays for every unit of latency; predictive shrugs it
        // off because its cores moved before the block.
        assert!(re2.wall_secs > re0.wall_secs);
        assert!(pr2.wall_secs < re2.wall_secs);
    }
}

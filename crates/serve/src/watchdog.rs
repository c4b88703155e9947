//! The regression watchdog: rolling per-phase medians across completed
//! cells, exported as `serve.phase_drift_<phase>` gauges (drift in
//! per-mille of the rolling median) plus a warning feed entry when a
//! phase exceeds its rolling baseline by a configurable factor — the
//! serving-side analogue of the `BENCH_hotpath.json` trajectory gate.
//!
//! Each completion brings the cell's own per-phase seconds (the summed
//! [`cfpd_trace::PopTotals`] of its segments), so concurrent cells never
//! read each other's time.

use cfpd_trace::Phase;
use std::collections::VecDeque;

const PHASES: usize = Phase::ALL.len();

/// Rolling window length per phase (completed cells).
const WINDOW: usize = 32;
/// Completions required before drift warnings can fire.
const MIN_SAMPLES: usize = 3;

/// A drift observation the daemon turns into a feed warning.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftWarning {
    pub phase: &'static str,
    /// Current per-step phase seconds ÷ rolling median.
    pub drift: f64,
    pub per_step_s: f64,
    pub median_s: f64,
}

pub struct Watchdog {
    /// Warn when a phase exceeds `factor ×` its rolling median.
    factor: f64,
    /// Rolling per-step phase seconds, newest at the back.
    windows: [VecDeque<f64>; PHASES],
    /// Last exported per-mille drift (gauges are additive, so exporting
    /// a new absolute value means adding the difference).
    exported: [i64; PHASES],
    /// Rolling observed wall seconds per simulation step (ETA input).
    step_wall: VecDeque<f64>,
}

impl Watchdog {
    pub fn new(factor: f64) -> Watchdog {
        Watchdog {
            factor: if factor.is_finite() && factor > 1.0 { factor } else { 3.0 },
            windows: std::array::from_fn(|_| VecDeque::new()),
            exported: [0; PHASES],
            step_wall: VecDeque::new(),
        }
    }

    /// Record a completed cell of `steps` steps that took `wall_s`
    /// seconds and spent `phase_s` seconds per phase ([`Phase::ALL`]
    /// order, summed over ranks). Returns the phases that drifted past
    /// the factor.
    pub fn observe_cell(
        &mut self,
        steps: u64,
        wall_s: f64,
        phase_s: &[f64; PHASES],
    ) -> Vec<DriftWarning> {
        if steps > 0 && wall_s.is_finite() && wall_s > 0.0 {
            self.step_wall.push_back(wall_s / steps as f64);
            while self.step_wall.len() > 2 * WINDOW {
                self.step_wall.pop_front();
            }
        }
        let mut warnings = Vec::new();
        if steps == 0 {
            return warnings;
        }
        for (i, (phase, secs)) in Phase::ALL.iter().zip(phase_s).enumerate() {
            let per_step = secs / steps as f64;
            let window = &mut self.windows[i];
            let median = median_of(window);
            window.push_back(per_step);
            while window.len() > WINDOW {
                window.pop_front();
            }
            let Some(median) = median else { continue };
            if median <= 0.0 || window.len() <= MIN_SAMPLES {
                continue;
            }
            let drift = per_step / median;
            self.export_drift(i, drift);
            if drift > self.factor {
                warnings.push(DriftWarning {
                    phase: phase.key(),
                    drift,
                    per_step_s: per_step,
                    median_s: median,
                });
            }
        }
        warnings
    }

    /// Set the `serve.phase_drift_<phase>` gauge to `drift` per-mille.
    fn export_drift(&mut self, phase: usize, drift: f64) {
        let mille = (drift * 1000.0).round() as i64;
        let delta = mille - self.exported[phase];
        self.exported[phase] = mille;
        if cfpd_telemetry::enabled() && delta != 0 {
            cfpd_telemetry::gauge(drift_gauge(phase)).add_unchecked(delta);
        }
    }

    /// Median observed wall seconds per simulation step, if any cell
    /// has completed (the ETA's measured rate).
    pub fn step_seconds(&self) -> Option<f64> {
        median_of(&self.step_wall)
    }
}

/// The closed phase set maps to static gauge names (the registry
/// interns `&'static str` keys; never format dynamic names).
fn drift_gauge(phase: usize) -> &'static str {
    match phase {
        0 => "serve.phase_drift_mpi",
        1 => "serve.phase_drift_assembly",
        2 => "serve.phase_drift_solver1",
        3 => "serve.phase_drift_solver2",
        4 => "serve.phase_drift_sgs",
        _ => "serve.phase_drift_particles",
    }
}

fn median_of(window: &VecDeque<f64>) -> Option<f64> {
    if window.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = window.iter().copied().collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { 0.5 * (v[mid - 1] + v[mid]) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_phases_never_warn_and_drift_warns_once_over_factor() {
        let mut wd = Watchdog::new(2.0);
        let solver1 = |secs: f64| {
            let mut phase_s = [0.0; PHASES];
            phase_s[Phase::Solver1.index()] = secs;
            phase_s
        };

        // Five steady cells: 10 ms of solver1 per step.
        for _ in 0..5 {
            assert!(wd.observe_cell(2, 0.05, &solver1(0.02)).is_empty());
        }
        // A 5× regression on the same phase.
        let warnings = wd.observe_cell(2, 0.3, &solver1(0.1));
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].phase, "solver1");
        assert!(warnings[0].drift > 2.0, "drift {}", warnings[0].drift);
    }

    #[test]
    fn step_seconds_is_the_median_of_observed_rates() {
        let mut wd = Watchdog::new(3.0);
        assert_eq!(wd.step_seconds(), None);
        for (steps, wall) in [(2u64, 0.2), (2, 0.4), (2, 0.6)] {
            wd.observe_cell(steps, wall, &[0.0; PHASES]);
        }
        assert!((wd.step_seconds().unwrap() - 0.2).abs() < 1e-12);
    }
}

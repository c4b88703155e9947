//! Simulation configuration: everything a run of the reproduction
//! needs, mirroring the knobs the paper varies in its evaluation.

use cfpd_mesh::AirwaySpec;
use cfpd_particles::ParticleProps;
use cfpd_solver::{AssemblyStrategy, FluidProps, LayoutPlan};

/// Execution mode (Fig. 3): synchronous (every rank solves fluid then
/// particles) or coupled (two rank groups running concurrently with a
/// velocity exchange).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    Synchronous,
    /// `fluid` + `particle` rank split (the paper's `f + p`).
    Coupled { fluid: usize, particles: usize },
}

/// Full configuration of a CFPD run.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Mesh geometry/resolution.
    pub airway: AirwaySpec,
    /// Fluid properties (air).
    pub fluid: FluidProps,
    /// Aerosol properties.
    pub particle: ParticleProps,
    /// Number of particles injected at the first step (paper: 4·10⁵ or
    /// 7·10⁶; scaled down per DESIGN.md).
    pub num_particles: usize,
    /// Inhalation speed at the inlet [m/s].
    pub inflow_speed: f64,
    /// Time-step size [s] (paper: 1e-4).
    pub dt: f64,
    /// Number of time steps (paper evaluation: 10).
    pub steps: usize,
    /// Assembly parallelization strategy.
    pub strategy: AssemblyStrategy,
    /// Subdomain tasks per rank for the Multidep strategy.
    pub subdomains_per_rank: usize,
    /// Execution mode.
    pub mode: ExecutionMode,
    /// Krylov tolerances.
    pub solver_tol: f64,
    pub solver_max_iters: usize,
    /// RNG seed for the particle injection.
    pub seed: u64,
    /// Opt-in locality optimizations (RCM renumbering, kind-batched
    /// assembly, SELL-shaped SpMV). Default: all off — the golden
    /// bit-identity path.
    pub layout: LayoutPlan,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            airway: AirwaySpec::small(),
            fluid: FluidProps::default(),
            particle: ParticleProps::default(),
            num_particles: 1000,
            inflow_speed: 1.5,
            dt: 1e-4,
            steps: 10,
            strategy: AssemblyStrategy::Multidep,
            subdomains_per_rank: 16,
            mode: ExecutionMode::Synchronous,
            solver_tol: 1e-6,
            solver_max_iters: 500,
            seed: 1234,
            layout: LayoutPlan::default(),
        }
    }
}

impl SimulationConfig {
    /// Total ranks the mode needs given a base count (sync: `n`;
    /// coupled: `fluid + particles`).
    pub fn total_ranks(&self, sync_ranks: usize) -> usize {
        match self.mode {
            ExecutionMode::Synchronous => sync_ranks,
            ExecutionMode::Coupled { fluid, particles } => fluid + particles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimulationConfig::default();
        assert!(c.dt > 0.0 && c.steps > 0);
        assert_eq!(c.total_ranks(4), 4);
        let coupled = SimulationConfig {
            mode: ExecutionMode::Coupled { fluid: 3, particles: 2 },
            ..c
        };
        assert_eq!(coupled.total_ranks(4), 5);
    }
}

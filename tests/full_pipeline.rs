//! Cross-crate integration tests: the full CFPD simulation across
//! execution modes, strategies, rank counts and DLB settings.

use cfpd_core::{run_scenario, ExecutionMode, RunOptions, Scenario, SimulationConfig};
use cfpd_mesh::AirwaySpec;
use cfpd_solver::AssemblyStrategy;
use cfpd_trace::Phase;

fn tiny() -> SimulationConfig {
    SimulationConfig {
        airway: AirwaySpec { generations: 1, ..AirwaySpec::small() },
        num_particles: 80,
        steps: 2,
        solver_tol: 1e-5,
        solver_max_iters: 300,
        ..Default::default()
    }
}

fn total(census: &cfpd_particles::ParticleCensus) -> usize {
    census.active + census.deposited + census.escaped + census.lost
}

#[test]
fn every_strategy_runs_the_full_simulation() {
    for strategy in AssemblyStrategy::ALL {
        let cfg = SimulationConfig { strategy, ..tiny() };
        let r = run_scenario(&Scenario::deterministic(cfg, 2)).result;
        assert!(r.total_time > 0.0, "{strategy:?}");
        assert!(total(&r.census) > 0, "{strategy:?}");
        assert_eq!(r.census.lost, 0, "{strategy:?} lost particles");
    }
}

#[test]
fn rank_count_does_not_change_particle_fate_totals() {
    let cfg = tiny();
    let counts: Vec<usize> = [1usize, 2, 4]
        .iter()
        .map(|&n| total(&run_scenario(&Scenario::deterministic(cfg.clone(), n)).result.census))
        .collect();
    assert_eq!(counts[0], counts[1]);
    assert_eq!(counts[1], counts[2]);
}

#[test]
fn sync_and_coupled_agree_on_injection_totals() {
    let sync_cfg = tiny();
    let sync = run_scenario(&Scenario::deterministic(sync_cfg, 2)).result;
    let coupled_cfg = SimulationConfig {
        mode: ExecutionMode::Coupled { fluid: 2, particles: 2 },
        ..tiny()
    };
    let coupled = run_scenario(&Scenario::deterministic(coupled_cfg, 0)).result;
    assert_eq!(total(&sync.census), total(&coupled.census));
}

#[test]
fn dlb_does_not_change_the_physics() {
    let off = Scenario { threads: 2, ..Scenario::deterministic(tiny(), 2) };
    let on = Scenario { opts: RunOptions { dlb: true, ..Default::default() }, ..off.clone() };
    let (off, on) = (run_scenario(&off).result, run_scenario(&on).result);
    // Same particle outcomes (deterministic injection + same numerics).
    assert_eq!(off.census, on.census);
    assert!(on.dlb.unwrap().lends > 0);
}

#[test]
fn trace_covers_all_fluid_phases_on_all_ranks() {
    let r = run_scenario(&Scenario::deterministic(tiny(), 3)).result;
    for phase in [Phase::Assembly, Phase::Solver1, Phase::Solver2, Phase::Sgs] {
        let times = r.trace.per_rank_time(phase);
        assert_eq!(times.len(), 3);
        assert!(times.iter().all(|&t| t > 0.0), "{phase:?} missing on some rank");
    }
    // Percentages sum to ~100.
    let pct: f64 = r.breakdown.iter().map(|b| b.pct_time).sum();
    assert!((pct - 100.0).abs() < 1e-6);
}

#[test]
fn coupled_mode_split_sizes_respected() {
    let cfg = SimulationConfig {
        mode: ExecutionMode::Coupled { fluid: 3, particles: 2 },
        ..tiny()
    };
    let r = run_scenario(&Scenario::deterministic(cfg, 0)).result;
    let asm = r.trace.per_rank_time(Phase::Assembly);
    let par = r.trace.per_rank_time(Phase::Particles);
    assert_eq!(asm.len(), 5);
    assert!(asm[..3].iter().all(|&t| t > 0.0), "fluid ranks assemble");
    assert!(asm[3..].iter().all(|&t| t == 0.0), "particle ranks do not");
    assert!(par[3..].iter().any(|&t| t > 0.0), "particle ranks track particles");
}

#[test]
fn more_particles_increase_particle_phase_share() {
    // Wall-clock comparisons need care when the suite's test threads
    // contend for cores: the *percentage* share is a ratio of two noisy
    // sums, and with 2 ranks the particle phase is dominated by fixed
    // migration-wait poll slices that drown the 10x-work signal. So:
    // single rank (no migration waits), absolute phase time (carries
    // the full signal), medians over interleaved reps.
    let time = |r: &cfpd_core::SimulationResult| {
        r.breakdown
            .iter()
            .find(|b| b.phase == Phase::Particles)
            .map_or(0.0, |b| b.max_time)
    };
    let big_cfg = SimulationConfig { num_particles: 800, ..tiny() };
    let mut small_times = Vec::new();
    let mut big_times = Vec::new();
    for _ in 0..5 {
        small_times.push(time(&run_scenario(&Scenario::deterministic(tiny(), 1)).result));
        big_times.push(time(&run_scenario(&Scenario::deterministic(big_cfg.clone(), 1)).result));
    }
    small_times.sort_by(f64::total_cmp);
    big_times.sort_by(f64::total_cmp);
    assert!(
        big_times[2] > small_times[2],
        "10x particles must grow the particle-phase time: {big_times:?} vs {small_times:?}"
    );
}

/// The particle books balance at every step: summed over the ranks that
/// track particles, active + deposited + escaped + lost is the number
/// injected — in a 2-rank synchronous run, where particles migrate
/// between the ranks, and in `coupled:1+1`; long enough steps that some
/// deposit on the walls.
#[test]
fn particle_books_balance_at_every_step() {
    use cfpd_core::LogicalEvent;
    use cfpd_particles::{inject_at_inlet, Locator, ParticleSet};
    let cfg = SimulationConfig { steps: 20, num_particles: 400, dt: 5e-3, ..tiny() };
    let am = cfpd_mesh::generate_airway(&cfg.airway).unwrap();
    let injected = inject_at_inlet(
        &mut ParticleSet::default(),
        &Locator::new(&am.mesh),
        am.inlet_center,
        am.inlet_direction,
        am.inlet_radius,
        cfg.inflow_speed,
        cfg.particle,
        cfg.num_particles,
        cfg.seed,
    );
    assert!(injected > cfg.num_particles / 2, "{injected} injected");
    let coupled = ExecutionMode::Coupled { fluid: 1, particles: 1 };
    for (mode, ranks, trackers) in [(ExecutionMode::Synchronous, 2, 2), (coupled, 0, 1)] {
        let config = SimulationConfig { mode, ..cfg.clone() };
        let r = run_scenario(&Scenario::deterministic(config, ranks)).result;
        // Per step: the ranks that reported and what they hold.
        let mut books = vec![(0, 0); cfg.steps];
        for e in &r.logical {
            if let LogicalEvent::Particles { step, active, deposited, escaped, lost, .. } = *e {
                books[step].0 += 1;
                books[step].1 += active + deposited + escaped + lost;
            }
        }
        assert_eq!(books, vec![(trackers, injected); cfg.steps], "{mode:?}");
        assert!(r.census.deposited > 0, "{mode:?}: the books hold more than active particles");
    }
}

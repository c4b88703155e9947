//! The paper's runtime-technique showcase on the virtual cluster: run
//! the same simulation in synchronous and coupled modes (Fig. 3), with
//! and without DLB, on real rank threads with real LeWI core lending —
//! then print the per-phase trace, the Lₙ load-balance metrics and the
//! DLB activity.
//!
//! ```sh
//! cargo run --release --example coupled_dlb
//! ```

use cfpd_core::{run_scenario, ExecutionMode, RunOptions, Scenario, SimulationConfig};
use cfpd_mesh::AirwaySpec;
use cfpd_trace::render_timeline;

fn main() {
    let base = SimulationConfig {
        airway: AirwaySpec { generations: 1, ..AirwaySpec::small() },
        num_particles: 300,
        steps: 3,
        solver_tol: 1e-5,
        solver_max_iters: 300,
        ..Default::default()
    };

    // --- synchronous mode, 3 ranks -----------------------------------
    println!("=== synchronous mode, 3 ranks x 2 threads ===");
    let sync = run_scenario(&Scenario { threads: 2, ..Scenario::deterministic(base.clone(), 3) });
    let sync = sync.result;
    println!("{}", render_timeline(&sync.trace, 100, 8));
    println!("per-phase load balance (eq. 9) and time share:");
    for row in &sync.breakdown {
        println!(
            "  {:<16} L{} = {:.2}   {:.1}% of step",
            row.phase.name(),
            sync.trace.num_ranks,
            row.load_balance,
            row.pct_time
        );
    }
    println!(
        "particles: {:?}, total {:.3}s\n",
        sync.census, sync.total_time
    );

    // --- coupled mode (2 fluid + 1 particle ranks) --------------------
    println!("=== coupled mode, 2 fluid + 1 particle ranks ===");
    let coupled_cfg = SimulationConfig {
        mode: ExecutionMode::Coupled { fluid: 2, particles: 1 },
        ..base.clone()
    };
    let coupled = Scenario { threads: 2, ..Scenario::deterministic(coupled_cfg, 0) };
    let with_dlb = Scenario { opts: RunOptions { dlb: true, ..Default::default() }, ..coupled.clone() };
    let coupled = run_scenario(&coupled).result;
    println!("{}", render_timeline(&coupled.trace, 100, 8));
    println!("particles: {:?}, total {:.3}s\n", coupled.census, coupled.total_time);

    // --- coupled mode with DLB ----------------------------------------
    println!("=== coupled mode + DLB (LeWI lending on blocking MPI calls) ===");
    let with_dlb = run_scenario(&with_dlb).result;
    let stats = with_dlb.dlb.expect("dlb stats");
    println!(
        "DLB activity: {} lends, {} grants, {} reclaims, {} core-loans",
        stats.lends, stats.grants, stats.reclaims, stats.cores_lent_total
    );
    println!(
        "particles: {:?}, total {:.3}s",
        with_dlb.census, with_dlb.total_time
    );
    println!(
        "\nNote: this box may have a single hardware core, so wall-clock\n\
         speedups are not observable here — the lending *behaviour* is what\n\
         this example demonstrates; the paper-scale performance effects are\n\
         reproduced by the cfpd-bench figure harnesses (cargo bench)."
    );
}

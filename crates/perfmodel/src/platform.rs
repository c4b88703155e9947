//! Virtual platform models of the paper's two clusters.
//!
//! This container has a single CPU core, and the paper's central
//! comparison (out-of-order Intel Xeon vs in-order Cavium ThunderX)
//! needs two microarchitectures — so cluster time is *modeled*, not
//! measured (see DESIGN.md §2). The model's constants are calibrated to
//! the paper's own published IPC measurements (§4.3):
//!
//! | cluster      | MPI-only IPC | atomics IPC | multidep IPC |
//! |--------------|--------------|-------------|--------------|
//! | MareNostrum4 | 2.25         | 1.15 (−50%) | 94–96 %      |
//! | Thunder      | 0.49         | 0.42 (−14%) | 94–96 %      |

use cfpd_solver::AssemblyStrategy;

/// A modeled cluster.
#[derive(Debug, Clone)]
pub struct Platform {
    pub name: &'static str,
    pub nodes: usize,
    pub cores_per_node: usize,
    /// Core clock [GHz].
    pub freq_ghz: f64,
    /// IPC of the pure-MPI code (the baseline for everything).
    pub base_ipc: f64,
    /// IPC multiplier while executing assembly with `omp atomic`
    /// scatter-adds (hurts deep out-of-order pipelines far more).
    pub atomic_ipc_factor: f64,
    /// IPC multiplier under mesh coloring (spatial locality loss).
    pub coloring_ipc_factor: f64,
    /// IPC multiplier under multidependences (paper: 94–96 % of MPI-only).
    pub multidep_ipc_factor: f64,
    /// Per-color parallel-loop launch overhead [s].
    pub color_barrier_cost: f64,
    /// Per-task scheduling cost of the task runtime [s].
    pub task_spawn_cost: f64,
    /// Latency of a barrier/allreduce across ranks [s].
    pub comm_latency: f64,
    /// Fraction of per-thread efficiency lost per extra thread in a
    /// shared-memory parallel region (sync + bandwidth contention).
    pub thread_efficiency_loss: f64,
}

impl Platform {
    /// MareNostrum4: 2 × Intel Xeon Platinum 8160, 24 cores @ 2.1 GHz
    /// per socket (48/node), out-of-order cores with high ILP.
    pub fn mare_nostrum4() -> Platform {
        Platform {
            name: "MareNostrum4",
            nodes: 2,
            cores_per_node: 48,
            freq_ghz: 2.1,
            base_ipc: 2.25,
            atomic_ipc_factor: 1.15 / 2.25, // ≈ 0.511 (−50 %, §4.3)
            coloring_ipc_factor: 0.78,
            multidep_ipc_factor: 0.95,
            color_barrier_cost: 8e-6,
            task_spawn_cost: 2e-6,
            comm_latency: 8e-6,
            thread_efficiency_loss: 0.012,
        }
    }

    /// Thunder: 2 × Cavium ThunderX CN8890, 48 custom Armv8 in-order
    /// cores @ 1.8 GHz per socket (96/node).
    pub fn thunder() -> Platform {
        Platform {
            name: "Thunder",
            nodes: 2,
            cores_per_node: 96,
            freq_ghz: 1.8,
            base_ipc: 0.49,
            atomic_ipc_factor: 0.42 / 0.49, // ≈ 0.857 (−14 %, §4.3)
            coloring_ipc_factor: 0.92,
            multidep_ipc_factor: 0.95,
            color_barrier_cost: 12e-6,
            task_spawn_cost: 3e-6,
            // Single 40 GbE link vs MN4's Omni-Path: slower collectives.
            comm_latency: 25e-6,
            thread_efficiency_loss: 0.008,
        }
    }

    /// Total cores across the modeled nodes.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// Work units one core retires per second at MPI-only IPC. Work
    /// units are normalized so that assembling one Tet4 costs
    /// [`WORK_PER_TET`] units.
    pub fn core_speed(&self) -> f64 {
        self.freq_ghz * 1e9 * self.base_ipc / WORK_PER_TET_INSTR
    }

    /// IPC multiplier of an assembly-like loop under `strategy`
    /// (relative to the MPI-only code).
    pub fn strategy_ipc_factor(&self, strategy: AssemblyStrategy) -> f64 {
        match strategy {
            AssemblyStrategy::Serial => 1.0,
            AssemblyStrategy::Atomics => self.atomic_ipc_factor,
            AssemblyStrategy::Coloring => self.coloring_ipc_factor,
            AssemblyStrategy::Multidep => self.multidep_ipc_factor,
        }
    }

    /// Parallel efficiency of a `threads`-wide shared-memory region.
    #[cfg(test)]
    pub fn thread_efficiency(&self, threads: f64) -> f64 {
        efficiency_curve(self.thread_efficiency_loss, threads)
    }

    /// Paper-cited IPC under a strategy (for the calibration report).
    pub fn modeled_ipc(&self, strategy: AssemblyStrategy) -> f64 {
        self.base_ipc * self.strategy_ipc_factor(strategy)
    }
}

/// Instructions to assemble one Tet4 element (order-of-magnitude
/// estimate; only the *ratio* between platforms and strategies matters
/// for the reproduced shapes, not this absolute scale).
pub const WORK_PER_TET_INSTR: f64 = 2.0e4;

/// The one shared speed-factor curve: parallel efficiency of a
/// `threads`-wide shared-memory region losing `loss` per extra thread.
///
/// The DES rate law (`DesConfig::rate`) consults this function with a
/// platform's `thread_efficiency_loss`. Guarantees
/// (pinned by a property test): the result is in `(0, 1]`, is exactly
/// `1.0` at or below one thread, and never increases with more threads.
pub fn efficiency_curve(loss: f64, threads: f64) -> f64 {
    1.0 / (1.0 + loss.max(0.0) * (threads - 1.0).max(0.0))
}

/// The one shared busy/idle clamp: split `busy` core-seconds out of a
/// `total` budget such that both parts are non-negative and sum to
/// exactly `total` (the energy model's former ad-hoc clamping).
pub(crate) fn busy_idle_split(busy: f64, total: f64) -> (f64, f64) {
    let busy = busy.min(total).max(0.0);
    (busy, (total - busy).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_paper_ipcs() {
        let mn4 = Platform::mare_nostrum4();
        assert!((mn4.modeled_ipc(AssemblyStrategy::Serial) - 2.25).abs() < 1e-12);
        assert!((mn4.modeled_ipc(AssemblyStrategy::Atomics) - 1.15).abs() < 1e-12);
        let th = Platform::thunder();
        assert!((th.modeled_ipc(AssemblyStrategy::Serial) - 0.49).abs() < 1e-12);
        assert!((th.modeled_ipc(AssemblyStrategy::Atomics) - 0.42).abs() < 1e-12);
    }

    #[test]
    fn atomic_penalty_much_worse_on_intel() {
        // The paper's architectural observation: the atomics slowdown is
        // ~50 % on the OoO Intel core but only ~14 % on the in-order Arm.
        let mn4 = Platform::mare_nostrum4();
        let th = Platform::thunder();
        assert!(mn4.atomic_ipc_factor < 0.6);
        assert!(th.atomic_ipc_factor > 0.8);
    }

    #[test]
    fn multidep_keeps_most_of_the_ipc() {
        for p in [Platform::mare_nostrum4(), Platform::thunder()] {
            let f = p.strategy_ipc_factor(AssemblyStrategy::Multidep);
            assert!((0.94..=0.96).contains(&f), "{}: {f}", p.name);
        }
    }

    #[test]
    fn totals_match_paper_hardware() {
        assert_eq!(Platform::mare_nostrum4().total_cores(), 96);
        assert_eq!(Platform::thunder().total_cores(), 192);
    }

    #[test]
    fn thread_efficiency_decreases() {
        let p = Platform::mare_nostrum4();
        assert_eq!(p.thread_efficiency(1.0), 1.0);
        assert!(p.thread_efficiency(4.0) < 1.0);
        assert!(p.thread_efficiency(4.0) > 0.9);
    }

    #[test]
    fn efficiency_curve_properties() {
        use cfpd_testkit::prop::{check, f64_range, PropConfig};
        let gen = (f64_range(0.0, 0.5), f64_range(0.0, 256.0), f64_range(0.0, 8.0));
        check(
            "efficiency curve is clamped, shared and monotone",
            PropConfig::cases(256),
            &gen,
            |&(loss, threads, dt)| {
                let eff = efficiency_curve(loss, threads);
                assert!(eff > 0.0 && eff <= 1.0, "eff {eff} outside (0, 1]");
                if threads <= 1.0 {
                    assert_eq!(eff, 1.0, "at most one thread loses nothing");
                }
                // More threads never increase per-thread efficiency.
                assert!(efficiency_curve(loss, threads + dt) <= eff);
                // The platform method is the same curve, not a copy.
                for p in [Platform::mare_nostrum4(), Platform::thunder()] {
                    assert_eq!(
                        p.thread_efficiency(threads),
                        efficiency_curve(p.thread_efficiency_loss, threads)
                    );
                }
            },
        );
    }

    #[test]
    fn busy_idle_split_properties() {
        use cfpd_testkit::prop::{check, f64_range, PropConfig};
        // Busy may exceed the budget (the clamp's whole purpose) and
        // even be negative on degenerate inputs; the split must always
        // be non-negative and sum exactly to the budget.
        let gen = (f64_range(-10.0, 2000.0), f64_range(0.0, 1000.0));
        check(
            "busy/idle split conserves the core-second budget",
            PropConfig::cases(256),
            &gen,
            |&(busy_in, total)| {
                let (busy, idle) = busy_idle_split(busy_in, total);
                assert!(busy >= 0.0 && idle >= 0.0);
                assert!(busy <= total);
                assert!((busy + idle - total).abs() <= 1e-12 * total.max(1.0));
            },
        );
    }
}

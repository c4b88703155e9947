//! **Figure 5** — DLB behaviour on an unbalanced hybrid run: when MPI
//! process 1 blocks in a communication call it lends its cores to MPI
//! process 2, which temporarily runs with more threads and finishes
//! faster; cores are reclaimed at the end of the blocking call.
//!
//! Unlike Figs. 6–11 (virtual-platform model), this figure exercises the
//! *real* machinery end-to-end: real rank threads (`cfpd-simmpi`), the
//! real LeWI arbiter (`cfpd-dlb`) and real resizable pools
//! (`cfpd-runtime`), with the event log rendered as a timeline.

use cfpd_bench::emit;
use cfpd_dlb::{DlbEventKind, DlbNode};
use cfpd_runtime::{parallel_for, ThreadPool};
use cfpd_simmpi::Universe;
use std::sync::Arc;

fn main() {
    let node = DlbNode::new();
    let pools: Vec<Arc<ThreadPool>> = (0..2).map(|_| Arc::new(ThreadPool::new(4))).collect();
    node.register(0, Arc::clone(&pools[0]), 2);
    node.register(1, Arc::clone(&pools[1]), 2);

    let pools2 = pools.clone();
    Universe::run_with_hooks(2, Arc::clone(&node) as _, move |comm| {
        let pool = &pools2[comm.rank()];
        if comm.rank() == 0 {
            // Lightly loaded rank: short compute, then blocks in recv —
            // the moment DLB lends its 2 cores to rank 1.
            parallel_for(pool, 0..200_000, 4096, |r| {
                let mut acc = 0.0f64;
                for i in r {
                    acc += (i as f64).sqrt();
                }
                std::hint::black_box(acc);
            });
            let _: u8 = comm.recv(1, 0);
        } else {
            // Heavily loaded rank: many parallel regions; its pool grows
            // while rank 0 is blocked.
            std::thread::sleep(std::time::Duration::from_millis(10));
            for _ in 0..30 {
                parallel_for(pool, 0..400_000, 4096, |r| {
                    let mut acc = 0.0f64;
                    for i in r {
                        acc += (i as f64).sqrt();
                    }
                    std::hint::black_box(acc);
                });
            }
            comm.send(0, 0, 1u8);
        }
    });

    let mut lines = Vec::new();
    lines.push("Figure 5 — DLB (LeWI) lend/borrow/reclaim event log".to_string());
    lines.push(String::new());
    lines.push(format!("{:>10}  {:>5}  {}", "t [ms]", "rank", "event"));
    lines.push("-".repeat(60));
    for e in node.events() {
        let desc = match e.kind {
            DlbEventKind::Lend { cores } => format!("blocked in MPI, lent {cores} core(s)"),
            DlbEventKind::Borrow { cores, active } => {
                format!("borrowed {cores} core(s) -> {active} active threads")
            }
            DlbEventKind::Reclaim { cores } => format!("unblocked, reclaimed {cores} core(s)"),
            DlbEventKind::Revoke { cores, active } => {
                format!("loan revoked ({cores}) -> {active} active threads")
            }
            DlbEventKind::Crashed { cores } => {
                format!("rank crashed, allotment donated permanently ({cores})")
            }
        };
        lines.push(format!("{:>10.3}  {:>5}  {}", e.t * 1e3, e.rank, desc));
    }
    let stats = node.stats();
    lines.push(String::new());
    lines.push(format!(
        "totals: {} lends, {} grants, {} reclaims, {} revokes, {} core-loans",
        stats.lends, stats.grants, stats.reclaims, stats.revokes, stats.cores_lent_total
    ));
    lines.push(
        "Shape check vs paper Fig. 5: blocked rank lends -> busy rank's thread count \
         rises above its ownership -> reclaim restores it."
            .to_string(),
    );
    emit("fig5_dlb_timeline", &lines.join("\n"));
}

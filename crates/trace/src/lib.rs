//! # cfpd-trace — performance tracing (Extrae + Paraver substitute)
//!
//! The paper instruments Alya with Extrae and inspects the trace with
//! Paraver (§2.2, Fig. 2). This crate provides the same capability at
//! the scale of this reproduction: phase-interval event records per
//! rank, per-(rank, worker) typed state events with point-to-point
//! message records, the load-balance metric Lₙ of eq. 9, per-phase time
//! breakdowns (Table 1), the POP efficiency rollup of a run's phase
//! record ([`pop`]), an ASCII timeline renderer (Fig. 2), Paraver
//! `.prv`/`.pcf`/`.row`, Chrome `trace_event` JSON and text summary
//! exporters ([`export`]), a critical-path / lost-cycles analysis
//! engine ([`analysis`]), and a deterministic trace diff ([`diff`]).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod balance;
pub mod diff;
pub mod event;
pub mod export;
pub mod pop;
pub mod render;
pub mod stats;

pub use analysis::{critical_path, lost_cycles, CpSegment, CriticalPath, LostCycles};
pub use balance::{load_balance, phase_breakdown, PhaseRow};
pub use diff::{diff_summaries, DiffReport};
pub use event::{
    carve_states, worker_view, ChaosEvent, ChaosKind, DlbMark, DlbMarkKind, MsgRecord,
    Phase, Trace, TraceEvent, WorkerEvent, WorkerState,
};
pub use export::{export_chrome, export_pcf, export_prv, export_row, export_summary};
pub use pop::{PopReport, PopTotals};
pub use render::{render_timeline, render_timeline_ranks};
pub use stats::{trace_stats, TraceStats};

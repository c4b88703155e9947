//! cfpd-hetero: heterogeneous-cluster emulation and predictive DLB.
//!
//! The paper runs the same CFPD workload on two very different
//! machines — out-of-order Xeon (MareNostrum4) and in-order ThunderX
//! (Thunder) — and balances load reactively with DLB/LeWI. This crate
//! asks the follow-on question: what happens on a *mixed* cluster, and
//! how much of the reactive scheme's cost can a model-driven predictor
//! win back by moving cores *before* ranks block?
//!
//! Three layers:
//!
//! - [`profiles`] — named per-rank speed/skew profiles calibrated from
//!   the [`cfpd_perfmodel::Platform`] models; live runs inject the skew
//!   deterministically via [`cfpd_simmpi::ProfileHooks`].
//! - [`predictor`] — the online [`ImbalancePredictor`]: per-rank demand
//!   EWMA fed by POP useful/wait telemetry, pre-lend planning, and a
//!   per-rank reactive fallback when predictions miss.
//! - [`emulator`] — a deterministic virtual-time step-loop emulator that
//!   prices the two real LeWI costs (lend latency, cores a blocked rank
//!   holds back under the lend policy in force)
//!   and scores reactive vs predictive with POP metrics (PE = LB × CommE).

pub mod emulator;
pub mod predictor;
pub mod profiles;

pub use emulator::{emulate, EmulatorConfig, PolicyMetrics};
pub use predictor::{ImbalancePredictor, PredictorConfig, PredictorStats};
pub use profiles::{profile_by_name, speeds, thunder_vs_mn4_speed, PROFILE_NAMES};

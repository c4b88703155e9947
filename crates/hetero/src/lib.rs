//! cfpd-hetero: heterogeneous rank profiles.
//!
//! The paper runs the same CFPD workload on two very different
//! machines — out-of-order Xeon (MareNostrum4) and in-order ThunderX
//! (Thunder) — and balances load reactively with DLB/LeWI. This crate
//! names per-rank speed/skew profiles calibrated from the
//! [`cfpd_perfmodel::Platform`] models, so one host can show what a
//! *mixed* cluster does to a run: live runs inject the skew
//! deterministically via [`cfpd_simmpi::ProfileHooks`], which affects
//! timing only.

#![forbid(unsafe_code)]

pub mod profiles;

pub use profiles::{profile_by_name, thunder_vs_mn4_speed, PROFILE_NAMES};

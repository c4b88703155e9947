//! # cfpd-dlb — Dynamic Load Balancing (LeWI) from scratch
//!
//! Reproduction of BSC's DLB library as used in the paper (§3.2): a
//! runtime agent, *transparent to the application*, that reacts to load
//! imbalance by moving cores between MPI processes co-located on a
//! node. A rank entering a blocking MPI call lends its cores
//! ([`lewi::DlbNode::lend`]); busy ranks' worker pools grow; on return
//! the cores are reclaimed. A run has one arbiter, and its event log is
//! the only record of what moved ([`lewi::DlbNode::stats`] folds it).
//! Attachment is via the PMPI-style hooks of `cfpd-simmpi`
//! ([`lewi::DlbNode`] implements [`cfpd_simmpi::MpiHooks`]), so the
//! simulation code never mentions DLB — the same "no source changes"
//! property the paper highlights.

#![forbid(unsafe_code)]

pub mod joblend;
pub mod lewi;

pub use joblend::JobArbiter;
pub use lewi::{DlbEvent, DlbEventKind, DlbNode, DlbStats};

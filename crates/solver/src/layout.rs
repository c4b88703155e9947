//! The opt-in locality layout plan.
//!
//! Independent switches form the locality-aware hot path: RCM node
//! reordering (applied to the mesh before solvers are built),
//! kind-batched SoA assembly, SELL-shaped SpMV, lane-SIMD element
//! kernels, and kind-batched SGS sweeps. The pressure solve itself is
//! not a switch: both layouts run the one deflated CG
//! ([`crate::deflation`]). The default is **everything off**, and the default path's
//! golden trace (`tests/golden/sync_small.golden`) must stay
//! byte-identical whether or not this code is compiled in. The
//! fully-enabled plan is pinned by its own golden
//! (`tests/golden/sync_small_opt.golden`); every switch is individually
//! bit-identical, so the opt golden needs no rebless when one flips.

/// Which locality optimizations a run enables. `Default` is all-off.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct LayoutPlan {
    /// Renumber mesh nodes with reverse Cuthill–McKee before building
    /// matrices (shrinks CSR bandwidth → better SpMV/assembly locality).
    pub rcm: bool,
    /// Group each parallel unit's elements by `ElementKind` into SoA
    /// batches with precomputed gather/scatter index lists.
    pub batched_assembly: bool,
    /// Route the SpMV of both Krylov solves through SELL-C-σ copies of
    /// their matrices (8 independent accumulator chains per chunk hide
    /// FP-add latency; bit-identical per row to the CSR SpMV).
    pub sell_spmv: bool,
    /// Evaluate element kernels 8 elements at a time over lane-SoA
    /// scratch (per-lane op sequence identical to the scalar kernels, so
    /// every local matrix entry carries identical bits).
    pub lane_kernels: bool,
    /// Run the SGS sweep over cached per-kind element batches instead of
    /// re-gathering per element each sweep.
    pub batched_sgs: bool,
}

/// The `Debug` rendering of a configuration is a durable format:
/// `cfpd_core::config_digest` and `PrepareKey::digest` hash it, and every
/// checkpoint on disk carries that digest and is refused under another.
/// It therefore still shows, always off and where the derive put it, the
/// `matrix_free` switch this struct had until the matrix-free momentum
/// path was deleted — a snapshot written before that still resumes
/// (`tests/fixtures/serve_parent_snapshot`).
impl std::fmt::Debug for LayoutPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayoutPlan")
            .field("rcm", &self.rcm)
            .field("batched_assembly", &self.batched_assembly)
            .field("sell_spmv", &self.sell_spmv)
            .field("lane_kernels", &self.lane_kernels)
            .field("batched_sgs", &self.batched_sgs)
            .field("matrix_free", &false)
            .finish()
    }
}

impl LayoutPlan {
    /// The default path: no layout optimization anywhere.
    pub fn disabled() -> LayoutPlan {
        LayoutPlan::default()
    }

    /// Every locality optimization on.
    pub fn optimized() -> LayoutPlan {
        LayoutPlan {
            rcm: true,
            batched_assembly: true,
            sell_spmv: true,
            lane_kernels: true,
            batched_sgs: true,
        }
    }

    /// Resolve from the `CFPD_LAYOUT` environment variable: `opt`
    /// enables the optimized plan, anything else (or unset) is the
    /// default.
    pub fn from_env() -> LayoutPlan {
        match std::env::var("CFPD_LAYOUT").as_deref() {
            Ok("opt") => LayoutPlan::optimized(),
            _ => LayoutPlan::disabled(),
        }
    }

    /// True when no optimization is enabled (the bit-identity path).
    pub fn is_default(&self) -> bool {
        *self == LayoutPlan::disabled()
    }

    /// Short label for trace headers and bench rows.
    pub fn label(&self) -> &'static str {
        if self.is_default() {
            "default"
        } else {
            "opt"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        assert!(LayoutPlan::default().is_default());
        assert_eq!(LayoutPlan::default(), LayoutPlan::disabled());
        assert_eq!(LayoutPlan::disabled().label(), "default");
    }

    #[test]
    fn debug_rendering_keeps_the_slot_checkpoint_digests_were_taken_over() {
        assert_eq!(
            format!("{:?}", LayoutPlan { sell_spmv: true, ..LayoutPlan::default() }),
            "LayoutPlan { rcm: false, batched_assembly: false, sell_spmv: true, \
             lane_kernels: false, batched_sgs: false, matrix_free: false }"
        );
    }

    #[test]
    fn optimized_enables_everything() {
        let l = LayoutPlan::optimized();
        assert!(l.rcm && l.batched_assembly);
        assert!(l.sell_spmv && l.lane_kernels && l.batched_sgs);
        assert!(!l.is_default());
        assert_eq!(l.label(), "opt");
    }
}

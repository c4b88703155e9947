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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayoutPlan {
    /// Renumber mesh nodes with reverse Cuthill–McKee before building
    /// matrices (shrinks CSR bandwidth → better SpMV/assembly locality).
    pub rcm: bool,
    /// Group each parallel unit's elements by `ElementKind` into SoA
    /// batches with precomputed gather/scatter index lists.
    pub batched_assembly: bool,
    /// Route the pressure-CG SpMV through a SELL-C-σ copy of the matrix
    /// (8 independent accumulator chains per chunk hide FP-add latency;
    /// bit-identical per row to the CSR SpMV).
    pub sell_spmv: bool,
    /// Evaluate element kernels 8 elements at a time over lane-SoA
    /// scratch (per-lane op sequence identical to the scalar kernels, so
    /// every local matrix entry carries identical bits).
    pub lane_kernels: bool,
    /// Run the SGS sweep over cached per-kind element batches instead of
    /// re-gathering per element each sweep.
    pub batched_sgs: bool,
    /// Solve the momentum system matrix-free: keep per-element local
    /// matrices and apply them row-wise on the fly instead of scattering
    /// into a global CSR (0 ULP vs the assembled apply). Opt-in via
    /// `CFPD_LAYOUT=opt-matfree`; not part of [`LayoutPlan::optimized`].
    pub matrix_free: bool,
}

impl LayoutPlan {
    /// The default path: no layout optimization anywhere.
    pub fn disabled() -> LayoutPlan {
        LayoutPlan::default()
    }

    /// All always-faster locality optimizations on (`matrix_free` stays
    /// off: it trades apply speed for skipping matrix materialisation,
    /// which is a workload-dependent win).
    pub fn optimized() -> LayoutPlan {
        LayoutPlan {
            rcm: true,
            batched_assembly: true,
            sell_spmv: true,
            lane_kernels: true,
            batched_sgs: true,
            matrix_free: false,
        }
    }

    /// Resolve from the `CFPD_LAYOUT` environment variable: `opt`
    /// enables the standard optimized plan, `opt-matfree` additionally
    /// solves the momentum system matrix-free, anything else (or unset)
    /// is the default.
    pub fn from_env() -> LayoutPlan {
        match std::env::var("CFPD_LAYOUT").as_deref() {
            Ok("opt") => LayoutPlan::optimized(),
            Ok("opt-matfree") => LayoutPlan { matrix_free: true, ..LayoutPlan::optimized() },
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
    fn optimized_enables_everything() {
        let l = LayoutPlan::optimized();
        assert!(l.rcm && l.batched_assembly);
        assert!(l.sell_spmv && l.lane_kernels && l.batched_sgs);
        assert!(!l.matrix_free, "matrix-free is opt-in, not part of `opt`");
        assert!(!l.is_default());
        assert_eq!(l.label(), "opt");
    }
}

//! The two layouts a run can use, and the only two.
//!
//! A layout fixes two *orders* — nothing else about a run depends on it:
//!
//! * **node order** — the mesh generator's native numbering, or reverse
//!   Cuthill–McKee (applied to the mesh before anything derives data
//!   from node ids);
//! * **element-sum order** — each shared matrix row and right-hand-side
//!   entry sums its element contributions in the strategy unit's list
//!   order, or grouped by element kind within each unit
//!   ([`crate::batch::ElementOrder`]: the order a plan's batches are cut
//!   in, and the only thing the assembly knows of a layout).
//!
//! Both regroup floating-point sums, so each layout has its own golden:
//! `tests/golden/sync_small.golden` pins the reference layout
//! ([`LayoutPlan::disabled`]: native order, list order) and
//! `tests/golden/sync_small_opt.golden` the fast one
//! ([`LayoutPlan::optimized`]: RCM, kind-grouped). Everything that is
//! bit-identical either way — the batch engine itself (same-kind
//! batches, lane kernels in every full block of eight, precomputed
//! scatter indices), SELL sweeps in both Krylov solves, the kind-batched
//! lane SGS sweep — runs on both and is not a choice: batching moves no
//! bit, only grouping by kind does.

/// Which of the two layouts a run uses. `Default` is the reference.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct LayoutPlan {
    /// The whole state: RCM node order and kind-grouped element sums
    /// when set, native order and list-order sums when not.
    pub rcm: bool,
}

/// The `Debug` rendering of a configuration is a durable format:
/// `cfpd_core::config_digest` and `PrepareKey::digest` hash it, and every
/// checkpoint on disk carries that digest and is refused under another.
/// It therefore still shows, where the derive put them, the five
/// switches this struct had while the layouts were a lattice (all equal
/// to the one state on the two points of it that were ever written to
/// disk) and the `matrix_free` switch of the deleted matrix-free path —
/// a snapshot written before either change still resumes
/// (`tests/fixtures/serve_parent_snapshot`).
impl std::fmt::Debug for LayoutPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayoutPlan")
            .field("rcm", &self.rcm)
            .field("batched_assembly", &self.rcm)
            .field("sell_spmv", &self.rcm)
            .field("lane_kernels", &self.rcm)
            .field("batched_sgs", &self.rcm)
            .field("matrix_free", &false)
            .finish()
    }
}

impl LayoutPlan {
    /// The reference layout: native node order, list-order element sums.
    pub fn disabled() -> LayoutPlan {
        LayoutPlan { rcm: false }
    }

    /// The fast layout: RCM node order, kind-grouped element sums.
    pub fn optimized() -> LayoutPlan {
        LayoutPlan { rcm: true }
    }

    /// The layout a user names: `"default"` or `"opt"` (the values of
    /// `cfpd golden --layout` and of the campaign DSL's `layout` key).
    pub fn parse(name: &str) -> Result<LayoutPlan, String> {
        match name {
            "default" => Ok(LayoutPlan::disabled()),
            "opt" => Ok(LayoutPlan::optimized()),
            other => Err(format!("unknown layout {other:?} (expected: default, opt)")),
        }
    }

    /// True for the reference layout.
    pub fn is_default(&self) -> bool {
        *self == LayoutPlan::disabled()
    }

    /// Short label for trace headers and bench rows; [`LayoutPlan::parse`]
    /// reads it back.
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

    // The digests every checkpoint carries are taken over these two
    // strings (`cfpd-core` pins the digests themselves by value).
    #[test]
    fn debug_rendering_keeps_the_slot_checkpoint_digests_were_taken_over() {
        assert_eq!(
            format!("{:?}", LayoutPlan::disabled()),
            "LayoutPlan { rcm: false, batched_assembly: false, sell_spmv: false, \
             lane_kernels: false, batched_sgs: false, matrix_free: false }"
        );
        assert_eq!(
            format!("{:?}", LayoutPlan::optimized()),
            "LayoutPlan { rcm: true, batched_assembly: true, sell_spmv: true, \
             lane_kernels: true, batched_sgs: true, matrix_free: false }"
        );
    }

    // No `..` in the literal: a second field is a compile error here,
    // which is where its author learns what it costs — four times the
    // configurations to pin, and a new digest for every snapshot on disk.
    #[test]
    fn optimized_enables_everything() {
        let l = LayoutPlan::optimized();
        assert_eq!(l, LayoutPlan { rcm: true });
        assert!(!l.is_default());
        assert_eq!(l.label(), "opt");
    }

    #[test]
    fn parse_reads_the_two_labels_and_nothing_else() {
        for l in [LayoutPlan::disabled(), LayoutPlan::optimized()] {
            assert_eq!(LayoutPlan::parse(l.label()), Ok(l));
        }
        let err = LayoutPlan::parse("fast").unwrap_err();
        assert!(err.contains("\"fast\"") && err.contains("default, opt"), "{err}");
        assert!(LayoutPlan::parse("").is_err());
    }
}

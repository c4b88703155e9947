//! Named heterogeneity profiles, calibrated against the platform models.
//!
//! The headline profile, `mn4_thunder`, alternates MareNostrum4-class
//! and Thunder-class ranks: the per-class relative speed is derived
//! from [`Platform::core_speed`] (frequency × IPC), not hand-tuned, so
//! the emulated skew tracks the paper's published calibration — a
//! ThunderX rank retires work at ≈ 19 % of a Xeon rank's rate.

use cfpd_perfmodel::Platform;
use cfpd_simmpi::RankProfile;

/// Names accepted by [`profile_by_name`] (campaign key `hetero = ...`).
pub const PROFILE_NAMES: &[&str] = &["uniform", "mn4_thunder", "thunder_tail"];

/// Delay scale for live runs [ms per unit slowness per blocking call]:
/// large enough that a mixed profile visibly skews wall-clock phase
/// times, small enough that tier-1 tests stay fast.
const LIVE_STALL_MS: f64 = 2.0;

/// Relative speed of a Thunder-class rank vs a MareNostrum4-class rank,
/// from the calibrated platform models.
pub fn thunder_vs_mn4_speed() -> f64 {
    Platform::thunder().core_speed() / Platform::mare_nostrum4().core_speed()
}

/// Resolve a profile by name. `Err` carries the unknown name and the
/// accepted set, for campaign/CLI diagnostics.
pub fn profile_by_name(name: &str, seed: u64) -> Result<RankProfile, String> {
    match name {
        "uniform" => Ok(RankProfile::uniform(seed)),
        // Alternating fast/slow: with the block rank→node mapping every
        // node holds both classes, so DLB has something to move.
        "mn4_thunder" => Ok(RankProfile::new(
            "mn4_thunder",
            seed,
            vec![1.0, thunder_vs_mn4_speed()],
            LIVE_STALL_MS,
        )),
        // One slow rank in four — the single-straggler regime.
        "thunder_tail" => Ok(RankProfile::new(
            "thunder_tail",
            seed,
            vec![1.0, 1.0, 1.0, thunder_vs_mn4_speed()],
            LIVE_STALL_MS,
        )),
        other => Err(format!(
            "unknown hetero profile {other:?} (known: {})",
            PROFILE_NAMES.join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thunder_ratio_tracks_the_platform_calibration() {
        // (1.8 GHz × 0.49 IPC) / (2.1 GHz × 2.25 IPC) ≈ 0.1867.
        let r = thunder_vs_mn4_speed();
        assert!((0.15..0.25).contains(&r), "{r}");
    }

    #[test]
    fn every_listed_profile_resolves() {
        for name in PROFILE_NAMES {
            let p = profile_by_name(name, 42).expect(name);
            assert_eq!(p.name, *name);
        }
        let err = profile_by_name("warp9", 0).unwrap_err();
        assert!(err.contains("warp9") && err.contains("mn4_thunder"), "{err}");
    }

    #[test]
    fn mixed_profile_alternates_classes() {
        let p = profile_by_name("mn4_thunder", 1).unwrap();
        let s: Vec<f64> = (0..4).map(|r| p.speed_of(r)).collect();
        assert_eq!(s[0], 1.0);
        assert!(s[1] < 1.0);
        assert_eq!(s[0], s[2]);
        assert_eq!(s[1], s[3]);
    }
}

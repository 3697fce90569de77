//! The instruction-set level the CPU kernels run at.
//!
//! Every flat kernel body is compiled twice by `isa_twin!`: for the
//! baseline target and for AVX2+FMA. This module picks which copy runs,
//! once, at run time:
//!
//! * [`SimdLevel`] names the levels: portable scalar, aarch64 NEON (the
//!   portable build, for which FMA is baseline), and x86-64 AVX2+FMA.
//! * [`active_level`] performs the one-time `is_x86_feature_detected!`
//!   probe, honouring the `SPMM_SIMD=scalar` environment override and the
//!   programmatic [`set_level_override`], which the harness `--simd` flag
//!   uses for A/B runs.
//!
//! The `simd` variant ([`FormatData::spmm_serial_simd`]) runs the same
//! flat bodies with a fused multiply-add at every level but
//! [`SimdLevel::Scalar`]: it rounds each `v · b + c` once, where the
//! other variants round twice and so stay bit-identical across the two
//! builds.
//!
//! [`FormatData::spmm_serial_simd`]: crate::FormatData::spmm_serial_simd

use std::sync::atomic::{AtomicU8, Ordering};

/// The SIMD tiers this crate implements, ordered by preference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SimdLevel {
    /// Portable scalar fallback — correct everywhere.
    Scalar = 0,
    /// aarch64 NEON (128-bit): the portable build, whose baseline already
    /// has NEON and FMA.
    Neon = 1,
    /// x86-64 AVX2 + FMA (256-bit).
    Avx2Fma = 2,
}

impl SimdLevel {
    /// Stable display name (also the accepted `--simd` flag spellings).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Neon => "neon",
            SimdLevel::Avx2Fma => "avx2",
        }
    }

    fn from_u8(raw: u8) -> Option<SimdLevel> {
        match raw {
            0 => Some(SimdLevel::Scalar),
            1 => Some(SimdLevel::Neon),
            2 => Some(SimdLevel::Avx2Fma),
            _ => None,
        }
    }
}

/// Sentinel for "not yet detected" in [`ACTIVE`].
const LEVEL_UNSET: u8 = u8::MAX;

/// The process-wide selected level; lazily initialized by [`active_level`].
static ACTIVE: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// The widest level the running hardware supports, probed fresh on every
/// call (the cached selection lives in [`active_level`]).
pub fn hardware_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return SimdLevel::Avx2Fma;
        }
        SimdLevel::Scalar
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is baseline on AArch64.
        SimdLevel::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdLevel::Scalar
    }
}

/// True when an `SPMM_SIMD` value requests the scalar fallback.
fn env_forces_scalar(value: &str) -> bool {
    matches!(
        value.trim().to_ascii_lowercase().as_str(),
        "scalar" | "off" | "none" | "0"
    )
}

/// The level every auto-dispatched CPU kernel uses. Detected once
/// (hardware probe, then the `SPMM_SIMD=scalar` environment override)
/// and cached; [`set_level_override`] replaces the cache.
pub fn active_level() -> SimdLevel {
    let raw = ACTIVE.load(Ordering::Relaxed);
    if let Some(level) = SimdLevel::from_u8(raw) {
        return level;
    }
    let detected = match std::env::var("SPMM_SIMD") {
        Ok(v) if env_forces_scalar(&v) => SimdLevel::Scalar,
        _ => hardware_level(),
    };
    ACTIVE.store(detected as u8, Ordering::Relaxed);
    detected
}

/// `level` if the running CPU supports it, [`SimdLevel::Scalar`]
/// otherwise. Running a level's kernel copy is sound only for a level
/// that passed through here (or came from [`active_level`]).
pub(crate) fn supported(level: SimdLevel) -> SimdLevel {
    if level == hardware_level() {
        level
    } else {
        SimdLevel::Scalar
    }
}

/// Force the active level (`Some`) or return to auto-detection (`None`).
///
/// A requested level the hardware cannot run is clamped to [`SimdLevel::
/// Scalar`] rather than trusted — the AVX2+FMA kernel copies are sound
/// only on a CPU the probe confirmed. Used by the harness `--simd scalar`
/// flag and the fallback tests; process-global, so concurrent tests must
/// restore `None` and at most one test may rely on the override at a
/// time.
pub fn set_level_override(level: Option<SimdLevel>) {
    match level {
        Some(requested) => ACTIVE.store(supported(requested) as u8, Ordering::Relaxed),
        None => ACTIVE.store(LEVEL_UNSET, Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_round_trip_and_name() {
        for level in [SimdLevel::Scalar, SimdLevel::Neon, SimdLevel::Avx2Fma] {
            assert_eq!(SimdLevel::from_u8(level as u8), Some(level));
            assert!(!level.name().is_empty());
        }
        assert_eq!(SimdLevel::from_u8(LEVEL_UNSET), None);
    }

    #[test]
    fn env_scalar_spellings() {
        for v in ["scalar", "SCALAR", " off ", "none", "0"] {
            assert!(env_forces_scalar(v), "{v:?}");
        }
        for v in ["auto", "avx2", "", "1"] {
            assert!(!env_forces_scalar(v), "{v:?}");
        }
    }

    #[test]
    fn override_clamps_to_hardware_and_restores() {
        // The only test that touches the process-global override (others
        // pin levels through the `_at` variants). Auto-detection honours
        // `SPMM_SIMD`, so it picks the hardware level only without it.
        set_level_override(None);
        let auto = active_level();
        if std::env::var_os("SPMM_SIMD").is_none() {
            assert_eq!(auto, hardware_level());
        }
        set_level_override(Some(SimdLevel::Scalar));
        assert_eq!(active_level(), SimdLevel::Scalar);
        // A level from another ISA (or an absent one) clamps to Scalar
        // rather than activating unverified kernels.
        let foreign = match hardware_level() {
            SimdLevel::Avx2Fma => SimdLevel::Neon,
            _ => SimdLevel::Avx2Fma,
        };
        set_level_override(Some(foreign));
        assert_eq!(active_level(), SimdLevel::Scalar);
        set_level_override(Some(hardware_level()));
        assert_eq!(active_level(), hardware_level());
        set_level_override(None);
        assert_eq!(active_level(), auto);
    }
}

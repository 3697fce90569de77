//! The instruction-set level the CPU kernels run at.
//!
//! Every flat kernel body is compiled three times by `isa_twin!`: for
//! the baseline target, for AVX2+FMA and for AVX-512F+VL (on top of
//! AVX2+FMA). This module picks which copy runs, once, at run time:
//!
//! * [`SimdLevel`] names the levels: portable scalar, aarch64 NEON (the
//!   portable build, for which FMA is baseline), x86-64 AVX2+FMA and
//!   x86-64 AVX-512.
//! * [`active_level`] performs the one-time `is_x86_feature_detected!`
//!   probe, honouring the `SPMM_SIMD=scalar` environment override and the
//!   programmatic [`set_level_override`], which the harness `--simd` flag
//!   uses for A/B runs.
//! * A level runs if it is [`SimdLevel::Scalar`] or sits at or below the
//!   [`hardware_level`] on the same ISA, so an AVX-512 CPU can still be
//!   pinned to AVX2+FMA; [`levels`] lists them.
//! * A body whose column count is a run-time `k` (the `normal`,
//!   transposed-B and `simd` SpMM bodies, and the tiled engine's ragged
//!   panels) runs its AVX2+FMA copy below 32 columns on an AVX-512 CPU
//!   (`at_width`). Const-width bodies take the AVX-512 copy at
//!   every width.
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
    /// x86-64 AVX-512F + AVX-512VL on top of AVX2 + FMA (512-bit, 32
    /// vector registers).
    Avx512 = 3,
}

impl SimdLevel {
    /// Every level, portable first; index `i` holds discriminant `i`.
    const ALL: [SimdLevel; 4] = [
        SimdLevel::Scalar,
        SimdLevel::Neon,
        SimdLevel::Avx2Fma,
        SimdLevel::Avx512,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Neon => "neon",
            SimdLevel::Avx2Fma => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    fn from_u8(raw: u8) -> Option<SimdLevel> {
        SimdLevel::ALL.get(usize::from(raw)).copied()
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
        use std::arch::is_x86_feature_detected as has;
        if !(has!("avx2") && has!("fma")) {
            return SimdLevel::Scalar;
        }
        if has!("avx512f") && has!("avx512vl") {
            return SimdLevel::Avx512;
        }
        SimdLevel::Avx2Fma
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
/// otherwise: a level runs if it is `Scalar`, or at or below the
/// [`hardware_level`] on the same ISA (AVX2+FMA on an AVX-512 CPU).
/// Running a level's kernel copy is sound only for a level that passed
/// through here (or came from [`active_level`]).
pub(crate) fn supported(level: SimdLevel) -> SimdLevel {
    match (level, hardware_level()) {
        (SimdLevel::Avx2Fma, SimdLevel::Avx512) => level,
        (level, hardware) if level == hardware => level,
        _ => SimdLevel::Scalar,
    }
}

/// Every level this CPU runs, portable first.
pub fn levels() -> Vec<SimdLevel> {
    SimdLevel::ALL
        .into_iter()
        .filter(|&level| supported(level) == level)
        .collect()
}

/// The level a body with a run-time column count `width` runs at: an
/// AVX-512 level runs the AVX2+FMA copy below 32 columns. At 512 bits
/// LLVM's vectorised `axpy` steps 8 lanes × 4 unroll = 32 columns, so a
/// narrower row would fall through to its scalar or 4-wide epilogue
/// (`csr` `normal` at `k = 16` ran 0.92–0.96× of AVX2+FMA).
pub(crate) fn at_width(level: SimdLevel, width: usize) -> SimdLevel {
    if level == SimdLevel::Avx512 && width < 32 {
        SimdLevel::Avx2Fma
    } else {
        level
    }
}

/// Force the active level (`Some`) or return to auto-detection (`None`).
///
/// A requested level the hardware cannot run is clamped to [`SimdLevel::
/// Scalar`] rather than trusted — the vector kernel copies are sound
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
        for level in SimdLevel::ALL {
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
    fn levels_climb_the_ladder_to_the_hardware() {
        let levels = levels();
        assert_eq!(levels[0], SimdLevel::Scalar);
        assert_eq!(levels.last(), Some(&hardware_level()));
        let want: &[SimdLevel] = match hardware_level() {
            SimdLevel::Avx512 => &[SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512],
            SimdLevel::Scalar => &[SimdLevel::Scalar],
            hardware => &[SimdLevel::Scalar, hardware],
        };
        assert_eq!(levels, want);
    }

    #[test]
    fn runtime_widths_below_32_leave_avx512_for_avx2() {
        assert_eq!(at_width(SimdLevel::Avx512, 31), SimdLevel::Avx2Fma);
        assert_eq!(at_width(SimdLevel::Avx512, 32), SimdLevel::Avx512);
        for level in [SimdLevel::Scalar, SimdLevel::Neon, SimdLevel::Avx2Fma] {
            assert_eq!(at_width(level, 1), level);
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
        // Every level the CPU runs can be pinned, AVX2+FMA on an AVX-512
        // CPU included.
        for level in levels() {
            set_level_override(Some(level));
            assert_eq!(active_level(), level);
        }
        // A level from another ISA (or an absent one) clamps to Scalar
        // rather than activating unverified kernels.
        let foreign = match hardware_level() {
            SimdLevel::Avx2Fma | SimdLevel::Avx512 => SimdLevel::Neon,
            _ => SimdLevel::Avx512,
        };
        set_level_override(Some(foreign));
        assert_eq!(active_level(), SimdLevel::Scalar);
        if hardware_level() == SimdLevel::Avx2Fma {
            set_level_override(Some(SimdLevel::Avx512));
            assert_eq!(active_level(), SimdLevel::Scalar);
        }
        set_level_override(None);
        assert_eq!(active_level(), auto);
    }
}

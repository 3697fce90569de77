//! Runtime-dispatched SIMD micro-kernels.
//!
//! The portable kernels in [`crate::serial`] lean on LLVM's
//! autovectorizer, which cannot fuse multiplies (the [`Scalar`] contract
//! rounds after the multiply) and gives up entirely on the gather-shaped
//! inner loops of SpMV. This module adds explicit vector kernels and picks
//! the widest unit the host actually has, once, at run time:
//!
//! * [`SimdLevel`] names the implemented tiers: portable scalar, aarch64
//!   NEON (stubbed, see the `neon` module), and x86-64 AVX2+FMA (the
//!   `x86` module).
//! * [`active_level`] performs the one-time `is_x86_feature_detected!`
//!   probe (honouring the `SPMM_SIMD=scalar` environment override and the
//!   programmatic [`set_level_override`], which the harness `--simd` flag
//!   uses for A/B runs).
//! * [`KernelTable`] is the dispatch surface: per-level tables of
//!   `unsafe fn` pointers over the index-free primitives (axpy along the
//!   k axis, dense dot). The safety argument is centralized — a table is
//!   only ever handed out for a level whose ISA was verified — so call
//!   sites stay mechanical.
//! * [`SimdScalar`] extends [`Scalar`] with the lane-count queries and the
//!   index-generic kernels (CSR gather-dot, SELL-C-σ slice SpMV) that
//!   cannot live behind plain fn pointers.
//! * The `*_spmm` / `*_spmv` functions mirror the serial kernel contract
//!   exactly (C fully overwritten, `k` leading columns) for CSR, ELL,
//!   BCSR and SELL-C-σ, with `*_at` variants taking an explicit level so
//!   tests and studies can pin scalar-vs-SIMD pairs regardless of the
//!   global selection.
//!
//! The SELL-C-σ SpMV kernel is the lane-width story from Kreutzer et al.:
//! when the matrix is built with [`spmm_core::SellMatrix::with_lane_width`]
//! (C = [`SimdScalar::lanes`]), each slice slot is one contiguous vector
//! load of C values, and the per-lane accumulators never leave their
//! vector register until the slice ends.

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::atomic::{AtomicU8, Ordering};

use spmm_core::{BcsrMatrix, CsrMatrix, DenseMatrix, EllMatrix, Index, Scalar, SellMatrix};

use crate::check_spmm_shapes;
use crate::spmv::check_spmv_shapes;

/// The SIMD tiers this crate implements, ordered by preference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SimdLevel {
    /// Portable scalar fallback — correct everywhere.
    Scalar = 0,
    /// aarch64 NEON (128-bit). Currently dispatch-only: the kernel bodies
    /// forward to scalar (see the `neon` module).
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

/// The level every auto-dispatched kernel in this module uses. Detected
/// once (hardware probe, then the `SPMM_SIMD=scalar` environment
/// override) and cached; [`set_level_override`] replaces the cache.
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

/// Force the active level (`Some`) or return to auto-detection (`None`).
///
/// A requested level the hardware cannot run is clamped to [`SimdLevel::
/// Scalar`] rather than trusted — the table lookup safety argument depends
/// on never activating an ISA the probe did not confirm. Used by the
/// harness `--simd scalar` flag and the fallback tests; process-global, so
/// concurrent tests must restore `None` and at most one test may rely on
/// the override at a time.
pub fn set_level_override(level: Option<SimdLevel>) {
    match level {
        Some(requested) => {
            let clamped = if requested == SimdLevel::Scalar || requested == hardware_level() {
                requested
            } else {
                SimdLevel::Scalar
            };
            ACTIVE.store(clamped as u8, Ordering::Relaxed);
        }
        None => ACTIVE.store(LEVEL_UNSET, Ordering::Relaxed),
    }
}

/// One level's kernel set: `unsafe fn` pointers over the index-free
/// primitives. The `unsafe` is the ISA contract — [`SimdScalar::table`]
/// only returns a table whose `level` the caller selected through the
/// verified-probe path, so invoking an entry is sound exactly when the
/// table came from that lookup.
pub struct KernelTable<T> {
    /// The level these kernels require.
    pub level: SimdLevel,
    /// Vector lanes per operation (1 for scalar).
    pub lanes: usize,
    /// `c[i] += a * b[i]` for `i in 0..c.len()`; requires
    /// `b.len() >= c.len()`.
    ///
    /// # Safety
    /// The ISA of `level` must be available on the running CPU.
    pub axpy: unsafe fn(&mut [T], T, &[T]),
    /// Dense dot product over `min(x.len(), y.len())` elements.
    ///
    /// # Safety
    /// The ISA of `level` must be available on the running CPU.
    pub dot: unsafe fn(&[T], &[T]) -> T,
}

/// Portable scalar axpy behind the [`KernelTable`] pointer type.
///
/// # Safety
/// None of its own (`unsafe fn` only to fit the table slot); requires
/// `b.len() >= c.len()` like every table entry.
unsafe fn axpy_scalar<T: Scalar>(c: &mut [T], a: T, b: &[T]) {
    for (cv, &bv) in c.iter_mut().zip(b) {
        *cv = a.mul_add(bv, *cv);
    }
}

/// Portable scalar dot behind the [`KernelTable`] pointer type.
///
/// # Safety
/// None of its own (`unsafe fn` only to fit the table slot).
unsafe fn dot_scalar<T: Scalar>(x: &[T], y: &[T]) -> T {
    let mut acc = T::ZERO;
    for (&a, &b) in x.iter().zip(y) {
        acc = a.mul_add(b, acc);
    }
    acc
}

/// Scalar gathered dot shared by the non-SIMD arms of
/// [`SimdScalar::gather_dot`].
fn gather_dot_scalar<T: Scalar, I: Index>(cols: &[I], vals: &[T], x: &[T]) -> T {
    let mut acc = T::ZERO;
    for (&j, &v) in cols.iter().zip(vals) {
        acc = v.mul_add(x[j.as_usize()], acc);
    }
    acc
}

static F64_SCALAR: KernelTable<f64> = KernelTable {
    level: SimdLevel::Scalar,
    lanes: 1,
    axpy: axpy_scalar::<f64>,
    dot: dot_scalar::<f64>,
};

static F32_SCALAR: KernelTable<f32> = KernelTable {
    level: SimdLevel::Scalar,
    lanes: 1,
    axpy: axpy_scalar::<f32>,
    dot: dot_scalar::<f32>,
};

#[cfg(target_arch = "x86_64")]
static F64_AVX2: KernelTable<f64> = KernelTable {
    level: SimdLevel::Avx2Fma,
    lanes: 4,
    axpy: x86::axpy_f64,
    dot: x86::dot_f64,
};

#[cfg(target_arch = "x86_64")]
static F32_AVX2: KernelTable<f32> = KernelTable {
    level: SimdLevel::Avx2Fma,
    lanes: 8,
    axpy: x86::axpy_f32,
    dot: x86::dot_f32,
};

#[cfg(target_arch = "aarch64")]
static F64_NEON: KernelTable<f64> = KernelTable {
    level: SimdLevel::Neon,
    lanes: 2,
    axpy: neon::axpy_f64,
    dot: neon::dot_f64,
};

#[cfg(target_arch = "aarch64")]
static F32_NEON: KernelTable<f32> = KernelTable {
    level: SimdLevel::Neon,
    lanes: 4,
    axpy: neon::axpy_f32,
    dot: neon::dot_f32,
};

/// A [`Scalar`] with SIMD kernels: lane counts, the per-level
/// [`KernelTable`], and the index-generic kernels that fn pointers cannot
/// express (trait methods may keep their own `I: Index` parameter).
pub trait SimdScalar: Scalar {
    /// Vector lanes of the widest unit at `level` for this element type.
    fn lanes(level: SimdLevel) -> usize;

    /// The kernel table for `level`. Levels whose ISA is not compiled in
    /// (or, for the stubbed NEON tier, not yet implemented) resolve to the
    /// portable scalar table, so the returned table is always safe to
    /// invoke after `level` came from [`active_level`] /
    /// [`set_level_override`].
    fn table(level: SimdLevel) -> &'static KernelTable<Self>;

    /// CSR-row gathered dot product: `Σ vals[e] * x[cols[e]]`.
    fn gather_dot<I: Index>(level: SimdLevel, cols: &[I], vals: &[Self], x: &[Self]) -> Self;

    /// Lane-vectorized SELL-C-σ slice SpMV: writes the slice's `c` per-lane
    /// dot products into `out[..c]` and returns `true`, or returns `false`
    /// (without touching `out`) when `c` does not match the level's lane
    /// count — the caller then runs the scalar slot walk. `cols`/`vals`
    /// must hold the slice's `width * c` slot-major entries.
    fn sell_slice<I: Index>(
        level: SimdLevel,
        c: usize,
        width: usize,
        cols: &[I],
        vals: &[Self],
        x: &[Self],
        out: &mut [Self],
    ) -> bool;
}

impl SimdScalar for f64 {
    fn lanes(level: SimdLevel) -> usize {
        match level {
            SimdLevel::Scalar => 1,
            SimdLevel::Neon => 2,
            SimdLevel::Avx2Fma => 4,
        }
    }

    fn table(level: SimdLevel) -> &'static KernelTable<f64> {
        match level {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2Fma => &F64_AVX2,
            #[cfg(target_arch = "aarch64")]
            SimdLevel::Neon => &F64_NEON,
            _ => &F64_SCALAR,
        }
    }

    fn gather_dot<I: Index>(level: SimdLevel, cols: &[I], vals: &[f64], x: &[f64]) -> f64 {
        match level {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2Fma => {
                // SAFETY: `level` only reaches Avx2Fma through the verified
                // detection path (see `set_level_override`).
                unsafe { x86::gather_dot_f64(cols, vals, x) }
            }
            _ => gather_dot_scalar(cols, vals, x),
        }
    }

    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    fn sell_slice<I: Index>(
        level: SimdLevel,
        c: usize,
        width: usize,
        cols: &[I],
        vals: &[f64],
        x: &[f64],
        out: &mut [f64],
    ) -> bool {
        match level {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2Fma if c == 4 && out.len() >= 4 => {
                // SAFETY: AVX2+FMA verified for this level; the slice holds
                // width × 4 slot-major entries per the caller contract.
                unsafe { x86::sell_slice_f64(width, cols, vals, x, out) };
                true
            }
            _ => false,
        }
    }
}

impl SimdScalar for f32 {
    fn lanes(level: SimdLevel) -> usize {
        match level {
            SimdLevel::Scalar => 1,
            SimdLevel::Neon => 4,
            SimdLevel::Avx2Fma => 8,
        }
    }

    fn table(level: SimdLevel) -> &'static KernelTable<f32> {
        match level {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2Fma => &F32_AVX2,
            #[cfg(target_arch = "aarch64")]
            SimdLevel::Neon => &F32_NEON,
            _ => &F32_SCALAR,
        }
    }

    fn gather_dot<I: Index>(level: SimdLevel, cols: &[I], vals: &[f32], x: &[f32]) -> f32 {
        match level {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2Fma => {
                // SAFETY: `level` only reaches Avx2Fma through the verified
                // detection path (see `set_level_override`).
                unsafe { x86::gather_dot_f32(cols, vals, x) }
            }
            _ => gather_dot_scalar(cols, vals, x),
        }
    }

    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    fn sell_slice<I: Index>(
        level: SimdLevel,
        c: usize,
        width: usize,
        cols: &[I],
        vals: &[f32],
        x: &[f32],
        out: &mut [f32],
    ) -> bool {
        match level {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2Fma if c == 8 && out.len() >= 8 => {
                // SAFETY: AVX2+FMA verified for this level; the slice holds
                // width × 8 slot-major entries per the caller contract.
                unsafe { x86::sell_slice_f32(width, cols, vals, x, out) };
                true
            }
            _ => false,
        }
    }
}

/// SIMD CSR SpMM at the process-wide [`active_level`].
pub fn csr_spmm<T: SimdScalar, I: Index>(
    a: &CsrMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    csr_spmm_at(active_level(), a, b, k, c);
}

/// SIMD CSR SpMM at an explicit level (tests and A/B studies).
pub fn csr_spmm_at<T: SimdScalar, I: Index>(
    level: SimdLevel,
    a: &CsrMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    let table = T::table(level);
    for i in 0..a.rows() {
        let (cols, vals) = a.row(i);
        let c_row = &mut c.row_mut(i)[..k];
        c_row.fill(T::ZERO);
        for (&j, &v) in cols.iter().zip(vals) {
            // SAFETY: the table's ISA was verified when `level` was
            // selected; `b.row(j)[..k]` has exactly `c_row.len()` elements.
            unsafe { (table.axpy)(c_row, v, &b.row(j.as_usize())[..k]) };
        }
    }
}

/// SIMD ELLPACK SpMM at the process-wide [`active_level`].
pub fn ell_spmm<T: SimdScalar, I: Index>(
    a: &EllMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    ell_spmm_at(active_level(), a, b, k, c);
}

/// SIMD ELLPACK SpMM at an explicit level.
pub fn ell_spmm_at<T: SimdScalar, I: Index>(
    level: SimdLevel,
    a: &EllMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    let table = T::table(level);
    for i in 0..a.rows() {
        let c_row = &mut c.row_mut(i)[..k];
        c_row.fill(T::ZERO);
        for (&j, &v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            // SAFETY: verified-level table; ELL padding entries carry a
            // valid column (so `b.row` stays in bounds) and value 0.
            unsafe { (table.axpy)(c_row, v, &b.row(j.as_usize())[..k]) };
        }
    }
}

/// SIMD BCSR SpMM at the process-wide [`active_level`].
pub fn bcsr_spmm<T: SimdScalar, I: Index>(
    a: &BcsrMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    bcsr_spmm_at(active_level(), a, b, k, c);
}

/// SIMD BCSR SpMM at an explicit level.
pub fn bcsr_spmm_at<T: SimdScalar, I: Index>(
    level: SimdLevel,
    a: &BcsrMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    let table = T::table(level);
    c.clear();
    let (r, bc_w) = (a.block_r(), a.block_c());
    let rows = a.rows();
    let cols = a.cols();
    for bi in 0..a.block_rows() {
        let row_lo = bi * r;
        let row_hi = (row_lo + r).min(rows);
        for i in row_lo..row_hi {
            let c_row = &mut c.row_mut(i)[..k];
            for (bcol, block) in a.block_row(bi) {
                let col_lo = bcol * bc_w;
                let brow = &block[(i - row_lo) * bc_w..(i - row_lo + 1) * bc_w];
                for (lc, &v) in brow.iter().enumerate() {
                    let j = col_lo + lc;
                    if j < cols && v != T::ZERO {
                        // SAFETY: verified-level table; row length matches.
                        unsafe { (table.axpy)(c_row, v, &b.row(j)[..k]) };
                    }
                }
            }
        }
    }
}

/// SIMD SELL-C-σ SpMM at the process-wide [`active_level`].
pub fn sell_spmm<T: SimdScalar, I: Index>(
    a: &SellMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    sell_spmm_at(active_level(), a, b, k, c);
}

/// SIMD SELL-C-σ SpMM at an explicit level. The k axis (not the slice
/// lane axis) is the vector axis here, like the other SpMM kernels — with
/// k ≥ the lane count every nonzero is full-width work, which SpMM has
/// and SpMV lacks.
pub fn sell_spmm_at<T: SimdScalar, I: Index>(
    level: SimdLevel,
    a: &SellMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    let table = T::table(level);
    let height = a.slice_height();
    for s in 0..a.nslices() {
        let (base, width) = a.slice(s);
        for lane in 0..height {
            let p = s * height + lane;
            if p >= a.rows() {
                break;
            }
            let row = a.row_at(p);
            let c_row = &mut c.row_mut(row)[..k];
            c_row.fill(T::ZERO);
            for slot in 0..width {
                let at = base + slot * height + lane;
                let v = a.values()[at];
                if v != T::ZERO {
                    // SAFETY: verified-level table; row length matches.
                    unsafe { (table.axpy)(c_row, v, &b.row(a.col_idx()[at].as_usize())[..k]) };
                }
            }
        }
    }
}

/// SIMD CSR SpMV at the process-wide [`active_level`].
pub fn csr_spmv<T: SimdScalar, I: Index>(a: &CsrMatrix<T, I>, x: &[T], y: &mut [T]) {
    csr_spmv_at(active_level(), a, x, y);
}

/// SIMD CSR SpMV at an explicit level: per-row gathered dot products.
pub fn csr_spmv_at<T: SimdScalar, I: Index>(
    level: SimdLevel,
    a: &CsrMatrix<T, I>,
    x: &[T],
    y: &mut [T],
) {
    check_spmv_shapes(a.rows(), a.cols(), x, y);
    for i in 0..a.rows() {
        let (cols, vals) = a.row(i);
        y[i] = T::gather_dot(level, cols, vals, x);
    }
}

/// SIMD SELL-C-σ SpMV at the process-wide [`active_level`].
pub fn sell_spmv<T: SimdScalar, I: Index>(a: &SellMatrix<T, I>, x: &[T], y: &mut [T]) {
    sell_spmv_at(active_level(), a, x, y);
}

/// SIMD SELL-C-σ SpMV at an explicit level.
///
/// When the matrix was built with `SellMatrix::with_lane_width` for this
/// level (C = lane count), each slice runs fully vectorized along the
/// lane axis via [`SimdScalar::sell_slice`] — one contiguous value load
/// per slot, accumulators pinned in a vector register. Any other C falls
/// back to the scalar slot walk, same results.
pub fn sell_spmv_at<T: SimdScalar, I: Index>(
    level: SimdLevel,
    a: &SellMatrix<T, I>,
    x: &[T],
    y: &mut [T],
) {
    check_spmv_shapes(a.rows(), a.cols(), x, y);
    let height = a.slice_height();
    let rows = a.rows();
    let mut out = vec![T::ZERO; height];
    for s in 0..a.nslices() {
        let (_, width) = a.slice(s);
        let cols = a.slice_cols(s);
        let vals = a.slice_vals(s);
        if !T::sell_slice(level, height, width, cols, vals, x, &mut out) {
            // Scalar slot walk over the slot-major slice. Ghost lanes and
            // in-row padding hold zero values, so no skip test is needed
            // for correctness; the products are discarded below.
            for (lane, o) in out.iter_mut().enumerate() {
                let mut acc = T::ZERO;
                for slot in 0..width {
                    let at = slot * height + lane;
                    acc = vals[at].mul_add(x[cols[at].as_usize()], acc);
                }
                *o = acc;
            }
        }
        for (lane, &o) in out.iter().enumerate() {
            let p = s * height + lane;
            if p < rows {
                y[a.row_at(p)] = o;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_core::CooMatrix;

    fn fixture() -> (CooMatrix<f64>, DenseMatrix<f64>) {
        let mut trips = Vec::new();
        for i in 0..37usize {
            for d in 0..(1 + (i * 7) % 5) {
                trips.push((i, (i * 5 + d * 3) % 29, 0.5 + ((i + d) % 11) as f64 * 0.25));
            }
        }
        trips.push((13, 28, -3.5));
        (
            CooMatrix::from_triplets(37, 29, &trips).unwrap(),
            DenseMatrix::from_fn(29, 19, |i, j| ((i * 3 + j) % 13) as f64 - 6.0),
        )
    }

    fn max_abs_diff(a: &DenseMatrix<f64>, b: &DenseMatrix<f64>, k: usize) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..a.rows() {
            for (x, y) in a.row(i)[..k].iter().zip(&b.row(i)[..k]) {
                worst = worst.max((x - y).abs());
            }
        }
        worst
    }

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
    fn tables_report_consistent_lanes() {
        for level in [SimdLevel::Scalar, SimdLevel::Neon, SimdLevel::Avx2Fma] {
            let t64 = <f64 as SimdScalar>::table(level);
            let t32 = <f32 as SimdScalar>::table(level);
            // A level resolves either to its own table or to the scalar
            // fallback; either way lanes must match the table's own level.
            assert_eq!(t64.lanes, <f64 as SimdScalar>::lanes(t64.level));
            assert_eq!(t32.lanes, <f32 as SimdScalar>::lanes(t32.level));
        }
        assert_eq!(<f64 as SimdScalar>::table(SimdLevel::Scalar).lanes, 1);
    }

    #[test]
    fn every_spmm_kernel_matches_reference_at_every_level() {
        let (coo, b) = fixture();
        let csr = CsrMatrix::<f64>::from_coo(&coo);
        let ell = EllMatrix::<f64>::from_coo(&coo).unwrap();
        let bcsr = BcsrMatrix::<f64>::from_coo(&coo, 4).unwrap();
        for level in [SimdLevel::Scalar, SimdLevel::Neon, hardware_level()] {
            for k in [1usize, 3, 4, 8, 13, 19] {
                let expected = coo.spmm_reference_k(&b, k);
                let mut c = DenseMatrix::from_fn(37, k, |_, _| 9.0);
                csr_spmm_at(level, &csr, &b, k, &mut c);
                assert!(
                    max_abs_diff(&c, &expected, k) < 1e-12,
                    "csr {level:?} k={k}"
                );
                let mut c = DenseMatrix::from_fn(37, k, |_, _| -9.0);
                ell_spmm_at(level, &ell, &b, k, &mut c);
                assert!(
                    max_abs_diff(&c, &expected, k) < 1e-12,
                    "ell {level:?} k={k}"
                );
                let mut c = DenseMatrix::from_fn(37, k, |_, _| 5.0);
                bcsr_spmm_at(level, &bcsr, &b, k, &mut c);
                assert!(
                    max_abs_diff(&c, &expected, k) < 1e-12,
                    "bcsr {level:?} k={k}"
                );
                for ch in [1usize, 4, 5, 8] {
                    let sell = SellMatrix::from_coo(&coo, ch, 16).unwrap();
                    let mut c = DenseMatrix::from_fn(37, k, |_, _| 2.0);
                    sell_spmm_at(level, &sell, &b, k, &mut c);
                    assert!(
                        max_abs_diff(&c, &expected, k) < 1e-12,
                        "sell C={ch} {level:?} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn spmv_kernels_match_reference_at_every_level() {
        let (coo, _) = fixture();
        let csr = CsrMatrix::<f64>::from_coo(&coo);
        let x: Vec<f64> = (0..29).map(|i| (i % 7) as f64 * 0.5 - 1.0).collect();
        let mut expected = vec![0.0f64; 37];
        crate::spmv::csr_spmv(&csr, &x, &mut expected);
        for level in [SimdLevel::Scalar, SimdLevel::Neon, hardware_level()] {
            let mut y = vec![7.0f64; 37];
            csr_spmv_at(level, &csr, &x, &mut y);
            for (a, e) in y.iter().zip(&expected) {
                assert!((a - e).abs() < 1e-12, "csr spmv {level:?}");
            }
            // Lane-width C (the vector path on AVX2 hosts) plus mismatched
            // C values (scalar slot walk) must agree.
            for ch in [1usize, 3, 4, 8] {
                let sell = SellMatrix::with_lane_width(&csr, ch, 16).unwrap();
                let mut y = vec![-7.0f64; 37];
                sell_spmv_at(level, &sell, &x, &mut y);
                for (a, e) in y.iter().zip(&expected) {
                    assert!((a - e).abs() < 1e-12, "sell spmv C={ch} {level:?}");
                }
            }
        }
    }

    #[test]
    fn axpy_and_dot_table_entries_agree_with_scalar() {
        let level = hardware_level();
        let table = <f64 as SimdScalar>::table(level);
        for n in [0usize, 1, 3, 4, 7, 8, 11, 16, 33] {
            let b: Vec<f64> = (0..n).map(|i| (i % 9) as f64 * 0.125 - 0.5).collect();
            let mut c_simd: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
            let mut c_ref = c_simd.clone();
            // SAFETY: `table` comes from the verified hardware level.
            unsafe { (table.axpy)(&mut c_simd, 1.75, &b) };
            // SAFETY: scalar table entries have no ISA requirement.
            unsafe { (F64_SCALAR.axpy)(&mut c_ref, 1.75, &b) };
            for (s, r) in c_simd.iter().zip(&c_ref) {
                assert!((s - r).abs() < 1e-12, "axpy n={n}");
            }
            // SAFETY: as above.
            let d_simd = unsafe { (table.dot)(&c_simd, &b) };
            // SAFETY: as above.
            let d_ref = unsafe { (F64_SCALAR.dot)(&c_ref, &b) };
            assert!((d_simd - d_ref).abs() < 1e-9, "dot n={n}");
        }
    }

    #[test]
    fn override_clamps_to_hardware_and_restores() {
        // The only test that touches the process-global override (others
        // pin levels through the `_at` variants).
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
        assert_eq!(active_level(), hardware_level());
    }
}

//! Study 12 (extension): what the ISA buys one kernel body.
//!
//! The vectorization study the paper leaves implicit: every CPU number it
//! reports comes from whatever the compiler auto-vectorized for a baseline
//! target. This study runs the `simd` variant of each kernel twice on the
//! host — pinned to [`SimdLevel::Scalar`], the portable build of its body
//! with unfused multiply-adds, and at the detected
//! [`spmm_kernels::simd::hardware_level`], the same body built for
//! AVX2+FMA with fused multiply-adds — per format (CSR, ELL, BCSR,
//! SELL-C-σ) and for the two `simd` SpMV kernels. No second kernel is
//! written per ISA: the gap is the compiler's, for one body. SELL is built
//! *lane-width-aware*: its slice height C is the FP64 lane count of
//! [`MachineProfile::container_host`] via [`SellMatrix::with_lane_width`],
//! so one slice slot is one vector register.
//!
//! Like Studies 8–11 this probes code generation, which is observable on
//! any host, so both sides are wall-clock measurements.

use spmm_core::{CooMatrix, CsrMatrix, DenseMatrix, SellMatrix, SparseFormat};
use spmm_kernels::dispatch::SELL_SIGMA;
use spmm_kernels::simd::{self, SimdLevel};
use spmm_kernels::FormatData;
use spmm_perfmodel::MachineProfile;

use super::{MatrixEntry, Series, StudyContext, StudyResult};
use crate::timer::time_repeated;

/// The k sweep of the vectorization study (§5.1's default plus the points
/// where the B panel stops fitting L1).
pub const SWEEP_KS: [usize; 5] = [32, 64, 128, 256, 512];

/// The study's kernels in series order: label, format, and whether it is
/// the SpMV kernel.
const KERNELS: [(&str, SparseFormat, bool); 6] = [
    ("csr", SparseFormat::Csr, false),
    ("ell", SparseFormat::Ell, false),
    ("bcsr", SparseFormat::Bcsr, false),
    ("sell", SparseFormat::Sell, false),
    ("csr-spmv", SparseFormat::Csr, true),
    ("sell-spmv", SparseFormat::Sell, true),
];

/// SELL-C-σ slice height matched to the modelled host's FP64 vector width.
pub fn sell_lane_width() -> usize {
    MachineProfile::container_host().simd_lanes_f64
}

/// `coo` in `format`; SELL-C-σ at the [`sell_lane_width`].
fn formatted(coo: &CooMatrix<f64>, format: SparseFormat, block: usize) -> FormatData<f64> {
    match format {
        SparseFormat::Sell => FormatData::Sell(
            SellMatrix::with_lane_width(&CsrMatrix::from_coo(coo), sell_lane_width(), SELL_SIGMA)
                .expect("SELL constructs"),
        ),
        _ => FormatData::from_coo(format, coo, block).expect("the suite formats"),
    }
}

/// A (scalar, simd) pair of empty series per kernel label.
fn series_pairs<'a>(labels: impl IntoIterator<Item = &'a str>) -> Vec<Series> {
    let mut series = Vec::new();
    for name in labels {
        for lvl in ["scalar", "simd"] {
            series.push(Series {
                label: format!("{name}/{lvl}"),
                values: Vec::new(),
            });
        }
    }
    series
}

fn measured(iterations: usize, flops: f64, f: impl FnMut()) -> f64 {
    let t = time_repeated(iterations, f);
    flops / t.avg.as_secs_f64() / 1e6
}

/// Largest error of `y` against `want`, relative to `max(|want|, 1)`.
fn worst_rel(y: &[f64], want: &[f64]) -> f64 {
    y.iter()
        .zip(want)
        .map(|(a, b)| (a - b).abs() / b.abs().max(1.0))
        .fold(0.0f64, f64::max)
}

/// Measured portable-vs-host-ISA MFLOPS per kernel and matrix at `ctx.k`.
/// Series come in (scalar, simd) pairs so [`simd_speedup_summary`] and
/// Study 9's `improvement_percent` pairing both apply.
pub fn study12(ctx: &StudyContext, suite: &[MatrixEntry]) -> StudyResult {
    let hw = simd::hardware_level();
    let iterations = 2;
    let mut series = series_pairs(KERNELS.iter().map(|&(name, _, _)| name));

    for entry in suite {
        let b = spmm_matgen::gen::dense_b(entry.coo.cols(), ctx.k, ctx.seed ^ 0xB);
        let reference = entry.coo.spmm_reference_k(&b, ctx.k);
        let useful_mm = spmm_kernels::spmm_flops(entry.coo.nnz(), ctx.k) as f64;
        let useful_mv = 2.0 * entry.coo.nnz() as f64;
        let mut c = DenseMatrix::zeros(entry.coo.rows(), ctx.k);
        let x: Vec<f64> = (0..entry.coo.cols()).map(|i| b.get(i, 0)).collect();
        let x_ref = entry.coo.spmv_reference(&x);
        let mut y = vec![0.0f64; entry.coo.rows()];

        for (ki, &(name, format, spmv)) in KERNELS.iter().enumerate() {
            let data = formatted(&entry.coo, format, ctx.block);
            for (li, level) in [SimdLevel::Scalar, hw].into_iter().enumerate() {
                let mflops = if spmv {
                    let mflops = measured(iterations, useful_mv, || {
                        assert!(data.spmv_serial_simd_at(level, &x, &mut y));
                    });
                    let worst = worst_rel(&y, &x_ref);
                    assert!(worst < 1e-9, "{} {name} {}", entry.name, level.name());
                    mflops
                } else {
                    let mflops = measured(iterations, useful_mm, || {
                        assert!(data.spmm_serial_simd_at(level, &b, ctx.k, &mut c));
                    });
                    assert!(
                        spmm_core::max_rel_error(&c, &reference) < 1e-9,
                        "{} {name} {}",
                        entry.name,
                        level.name()
                    );
                    mflops
                };
                series[2 * ki + li].values.push(mflops);
            }
        }
    }

    StudyResult {
        id: "study12".to_string(),
        figure: "Figure 6.3 (extension)".to_string(),
        title: format!(
            "Study 12: portable vs {} build of the same body (SELL C={})",
            hw.name(),
            sell_lane_width()
        ),
        rows: suite.iter().map(|m| m.name.clone()).collect(),
        series,
        unit: "MFLOPS".to_string(),
    }
}

/// Measured portable-vs-host-ISA MFLOPS for CSR and lane-width SELL
/// across the [`SWEEP_KS`] sweep on one matrix — the trajectory view: at
/// which k the vector units pull away from the portable build.
pub fn study12_k_sweep(ctx: &StudyContext, entry: &MatrixEntry) -> StudyResult {
    let hw = simd::hardware_level();
    let iterations = 2;
    let kernels = [SparseFormat::Csr, SparseFormat::Sell]
        .map(|format| formatted(&entry.coo, format, ctx.block));
    let mut series = series_pairs(["csr", "sell"]);

    for &k in &SWEEP_KS {
        let b = spmm_matgen::gen::dense_b(entry.coo.cols(), k, ctx.seed ^ 0xB);
        let reference = entry.coo.spmm_reference_k(&b, k);
        let useful = spmm_kernels::spmm_flops(entry.coo.nnz(), k) as f64;
        let mut c = DenseMatrix::zeros(entry.coo.rows(), k);

        for (ki, data) in kernels.iter().enumerate() {
            for (li, level) in [SimdLevel::Scalar, hw].into_iter().enumerate() {
                series[2 * ki + li]
                    .values
                    .push(measured(iterations, useful, || {
                        assert!(data.spmm_serial_simd_at(level, &b, k, &mut c));
                    }));
                assert!(spmm_core::max_rel_error(&c, &reference) < 1e-9);
            }
        }
    }

    StudyResult {
        id: format!("study12-ksweep-{}", entry.name),
        figure: "Figure 6.4 (extension)".to_string(),
        title: format!("Study 12: {} speedup vs k ({})", hw.name(), entry.name),
        rows: SWEEP_KS.iter().map(|k| format!("k={k}")).collect(),
        series,
        unit: "MFLOPS".to_string(),
    }
}

/// Mean host-ISA-over-portable speedup per kernel (1.0 = parity), walking
/// the study's (scalar, simd) series pairs.
pub fn simd_speedup_summary(result: &StudyResult) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < result.series.len() {
        let scalar = &result.series[i];
        let vector = &result.series[i + 1];
        let ratios: Vec<f64> = scalar
            .values
            .iter()
            .zip(&vector.values)
            .filter(|(s, v)| s.is_finite() && v.is_finite() && **s > 0.0)
            .map(|(s, v)| v / s)
            .collect();
        let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        let kernel = scalar.label.split('/').next().unwrap_or(&scalar.label);
        out.push((kernel.to_string(), mean));
        i += 2;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::studies::load_suite;

    #[test]
    fn study12_measures_every_pair() {
        let ctx = StudyContext::quick();
        let suite: Vec<_> = load_suite(&ctx).into_iter().take(3).collect();
        let r = study12(&ctx, &suite);
        assert_eq!(r.series.len(), 12); // 4 SpMM pairs + 2 SpMV pairs
        for s in &r.series {
            assert_eq!(s.values.len(), 3, "{}", s.label);
            assert!(s.values.iter().all(|v| v.is_finite() && *v > 0.0));
        }
        let speedups = simd_speedup_summary(&r);
        assert_eq!(speedups.len(), 6);
        assert!(speedups.iter().all(|(_, s)| s.is_finite() && *s > 0.0));
    }

    #[test]
    fn study12_k_sweep_covers_the_sweep() {
        let ctx = StudyContext::quick();
        let suite: Vec<_> = load_suite(&ctx).into_iter().take(1).collect();
        let r = study12_k_sweep(&ctx, &suite[0]);
        assert_eq!(r.rows.len(), SWEEP_KS.len());
        assert_eq!(r.series.len(), 4);
        for s in &r.series {
            assert_eq!(s.values.len(), SWEEP_KS.len(), "{}", s.label);
            assert!(s.values.iter().all(|v| *v > 0.0));
        }
    }

    #[test]
    fn sell_lane_width_is_vectorizable() {
        let lanes = sell_lane_width();
        assert!(lanes >= 4, "slice height {lanes} below the minimum");
        assert!(lanes.is_power_of_two());
    }
}

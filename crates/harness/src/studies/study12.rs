//! Study 12 (extension): what each ISA level buys one kernel body.
//!
//! The vectorization study the paper leaves implicit: every CPU number it
//! reports comes from whatever the compiler auto-vectorized for a baseline
//! target. This study runs the `simd` variant of each kernel at every
//! level the host runs ([`spmm_kernels::simd::levels`]) — pinned to
//! [`SimdLevel::Scalar`], the portable build of its body with unfused
//! multiply-adds, then the same body built for AVX2+FMA and, where the CPU
//! has it, AVX-512, both with fused multiply-adds — per format (CSR, ELL,
//! BCSR, SELL-C-σ) and for the two `simd` SpMV kernels. No second kernel
//! is written per ISA: the gap is the compiler's, for one body. SELL is
//! built *lane-width-aware*: its slice height C is the FP64 lane count of
//! [`MachineProfile::container_host`] via [`SellMatrix::with_lane_width`],
//! so one slice slot is one vector register.
//!
//! Each point is timed in [`ROUNDS`] rounds that call every level once,
//! rotating the order from round to round, so slow drift on a shared host
//! hits every level alike; a level's speedup is the per-round ratio to the
//! portable call of the same round. Like Studies 8–11 this probes code
//! generation, which is observable on any host, so every value is a
//! wall-clock measurement.

use spmm_core::{CooMatrix, CsrMatrix, DenseMatrix, SellMatrix, SparseFormat};
use spmm_kernels::dispatch::SELL_SIGMA;
use spmm_kernels::simd::{self, SimdLevel};
use spmm_kernels::FormatData;
use spmm_perfmodel::MachineProfile;

use super::{MatrixEntry, Series, StudyContext, StudyResult};
use crate::timer::time_once;

/// The k sweep of the vectorization study (§5.1's default plus the points
/// where the B panel stops fitting L1).
pub const SWEEP_KS: [usize; 5] = [32, 64, 128, 256, 512];

/// Timed rounds per point; each calls every level once.
pub const ROUNDS: usize = 9;

/// The study's kernels in row order: label, format, and whether it is
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

/// One empty series per label.
fn empty_series(labels: impl IntoIterator<Item = String>) -> Vec<Series> {
    let series = |label| Series {
        label,
        values: Vec::new(),
    };
    labels.into_iter().map(series).collect()
}

/// MFLOPS of `run(level)` per level (outer) and round (inner): one call
/// per level per round, the order rotating by one level each round.
fn rounds(levels: &[SimdLevel], flops: f64, mut run: impl FnMut(SimdLevel)) -> Vec<Vec<f64>> {
    let mut mflops = vec![Vec::with_capacity(ROUNDS); levels.len()];
    for round in 0..ROUNDS {
        for turn in 0..levels.len() {
            let l = (round + turn) % levels.len();
            let (_, t) = time_once(|| run(levels[l]));
            mflops[l].push(flops / t.as_secs_f64() / 1e6);
        }
    }
    mflops
}

/// The lower quartile, median and upper quartile of `xs`, interpolating
/// between order statistics.
fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    })
}

/// Largest error of `y` against `want`, relative to `max(|want|, 1)`.
fn worst_rel(y: &[f64], want: &[f64]) -> f64 {
    y.iter()
        .zip(want)
        .map(|(a, b)| (a - b).abs() / b.abs().max(1.0))
        .fold(0.0f64, f64::max)
}

/// Measured speedup of every vector level over the portable build, per
/// (matrix, kernel) point at `ctx.k`. Rows are `matrix/kernel`; each level
/// above [`SimdLevel::Scalar`] has three series: the median per-round
/// speedup (`avx2`) and its quartiles (`avx2 q1`, `avx2 q3`).
pub fn study12(ctx: &StudyContext, suite: &[MatrixEntry]) -> StudyResult {
    let levels = simd::levels();
    let mut series =
        empty_series(levels[1..].iter().flat_map(|level| {
            ["", " q1", " q3"].map(|suffix| format!("{}{suffix}", level.name()))
        }));
    let mut rows = Vec::new();

    for entry in suite {
        let b = spmm_matgen::gen::dense_b(entry.coo.cols(), ctx.k, ctx.seed ^ 0xB);
        let reference = entry.coo.spmm_reference_k(&b, ctx.k);
        let useful_mm = spmm_kernels::spmm_flops(entry.coo.nnz(), ctx.k) as f64;
        let useful_mv = 2.0 * entry.coo.nnz() as f64;
        let mut c = DenseMatrix::zeros(entry.coo.rows(), ctx.k);
        let x: Vec<f64> = (0..entry.coo.cols()).map(|i| b.get(i, 0)).collect();
        let x_ref = entry.coo.spmv_reference(&x);
        let mut y = vec![0.0f64; entry.coo.rows()];

        for &(name, format, spmv) in &KERNELS {
            let data = formatted(&entry.coo, format, ctx.block);
            let run = |level, c: &mut DenseMatrix<f64>, y: &mut [f64]| {
                if spmv {
                    assert!(data.spmv_serial_simd_at(level, &x, y));
                } else {
                    assert!(data.spmm_serial_simd_at(level, &b, ctx.k, c));
                }
            };
            // One untimed, checked call per level.
            for &level in &levels {
                run(level, &mut c, &mut y);
                let worst = if spmv {
                    worst_rel(&y, &x_ref)
                } else {
                    spmm_core::max_rel_error(&c, &reference)
                };
                assert!(worst < 1e-9, "{} {name} {}", entry.name, level.name());
            }
            let flops = if spmv { useful_mv } else { useful_mm };
            let mflops = rounds(&levels, flops, |level| run(level, &mut c, &mut y));
            for (l, at_level) in mflops.iter().enumerate().skip(1) {
                let ratios: Vec<f64> = at_level
                    .iter()
                    .zip(&mflops[0])
                    .map(|(v, s)| v / s)
                    .collect();
                let [q1, median, q3] = quartiles(&ratios);
                for (s, value) in [median, q1, q3].into_iter().enumerate() {
                    series[3 * (l - 1) + s].values.push(value);
                }
            }
            rows.push(format!("{}/{name}", entry.name));
        }
    }

    StudyResult {
        id: "study12".to_string(),
        figure: "Figure 6.3 (extension)".to_string(),
        title: format!(
            "Study 12: speedup of each ISA build over the portable one (SELL C={})",
            sell_lane_width()
        ),
        rows,
        series,
        unit: "x portable".to_string(),
    }
}

/// Measured portable-vs-host-ISA MFLOPS (medians of [`ROUNDS`]
/// alternating rounds) for CSR and lane-width SELL across the
/// [`SWEEP_KS`] sweep on one matrix — the trajectory view: at which k the
/// vector units pull away from the portable build.
pub fn study12_k_sweep(ctx: &StudyContext, entry: &MatrixEntry) -> StudyResult {
    let levels = [SimdLevel::Scalar, simd::hardware_level()];
    let kernels = [("csr", SparseFormat::Csr), ("sell", SparseFormat::Sell)];
    let mut series = empty_series(
        kernels
            .iter()
            .flat_map(|(name, _)| ["scalar", "simd"].map(|lvl| format!("{name}/{lvl}"))),
    );

    for &k in &SWEEP_KS {
        let b = spmm_matgen::gen::dense_b(entry.coo.cols(), k, ctx.seed ^ 0xB);
        let reference = entry.coo.spmm_reference_k(&b, k);
        let useful = spmm_kernels::spmm_flops(entry.coo.nnz(), k) as f64;
        let mut c = DenseMatrix::zeros(entry.coo.rows(), k);

        for (ki, (_, format)) in kernels.into_iter().enumerate() {
            let data = formatted(&entry.coo, format, ctx.block);
            // One untimed, checked call per level.
            for level in levels {
                assert!(data.spmm_serial_simd_at(level, &b, k, &mut c));
                assert!(spmm_core::max_rel_error(&c, &reference) < 1e-9);
            }
            let mflops = rounds(&levels, useful, |level| {
                assert!(data.spmm_serial_simd_at(level, &b, k, &mut c));
            });
            for (li, at_level) in mflops.iter().enumerate() {
                series[2 * ki + li].values.push(quartiles(at_level)[1]);
            }
        }
    }

    StudyResult {
        id: format!("study12-ksweep-{}", entry.name),
        figure: "Figure 6.4 (extension)".to_string(),
        title: format!(
            "Study 12: {} speedup vs k ({})",
            simd::hardware_level().name(),
            entry.name
        ),
        rows: SWEEP_KS.iter().map(|k| format!("k={k}")).collect(),
        series,
        unit: "MFLOPS".to_string(),
    }
}

/// One kernel's speedup at one ISA level across the study's matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelSpeedup {
    /// Kernel and level (`csr avx512`).
    pub label: String,
    /// Median over the matrices of the per-point median speedups.
    pub median: f64,
    /// Points whose speedup quartiles both lie above 1.
    pub faster: usize,
    /// Points whose speedup quartiles both lie below 1.
    pub slower: usize,
    /// Points measured.
    pub points: usize,
}

/// Per kernel and vector level: the median speedup over the portable
/// build, and at how many points its interquartile range excludes 1.
pub fn simd_speedup_summary(result: &StudyResult) -> Vec<LevelSpeedup> {
    let mut out = Vec::new();
    for triple in result.series.chunks_exact(3) {
        let [median, q1, q3] = [0, 1, 2].map(|s| &triple[s].values);
        for &(kernel, _, _) in &KERNELS {
            let points: Vec<usize> = (0..result.rows.len())
                .filter(|&r| result.rows[r].rsplit('/').next() == Some(kernel))
                .collect();
            let medians: Vec<f64> = points.iter().map(|&r| median[r]).collect();
            out.push(LevelSpeedup {
                label: format!("{kernel} {}", triple[0].label),
                median: quartiles(&medians)[1],
                faster: points.iter().filter(|&&r| q1[r] > 1.0).count(),
                slower: points.iter().filter(|&&r| q3[r] < 1.0).count(),
                points: points.len(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::studies::load_suite;

    #[test]
    fn study12_measures_every_level_at_every_point() {
        let ctx = StudyContext::quick();
        let suite: Vec<_> = load_suite(&ctx).into_iter().take(3).collect();
        let r = study12(&ctx, &suite);
        let vector_levels = simd::levels().len() - 1;
        assert_eq!(r.rows.len(), 3 * KERNELS.len());
        assert_eq!(r.series.len(), 3 * vector_levels);
        for triple in r.series.chunks_exact(3) {
            for s in triple {
                assert_eq!(s.values.len(), r.rows.len(), "{}", s.label);
                assert!(s.values.iter().all(|v| v.is_finite() && *v > 0.0));
            }
            for row in 0..r.rows.len() {
                let [median, q1, q3] = [0, 1, 2].map(|s| triple[s].values[row]);
                assert!(q1 <= median && median <= q3, "{}", r.rows[row]);
            }
        }
        let summary = simd_speedup_summary(&r);
        assert_eq!(summary.len(), KERNELS.len() * vector_levels);
        for s in &summary {
            assert!(s.median.is_finite() && s.median > 0.0, "{s:?}");
            assert_eq!(s.points, 3);
            assert!(s.faster + s.slower <= s.points);
        }
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[2.0, 1.0]), [1.25, 1.5, 1.75]);
    }

    #[test]
    fn rounds_rotate_the_level_order() {
        let levels = [SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512];
        let mut order = Vec::new();
        let mflops = rounds(&levels, 1.0, |level| order.push(level));
        assert!(mflops.iter().all(|m| m.len() == ROUNDS));
        assert_eq!(order.len(), 3 * ROUNDS);
        assert_eq!(
            order[..6],
            [levels[0], levels[1], levels[2], levels[1], levels[2], levels[0]]
        );
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

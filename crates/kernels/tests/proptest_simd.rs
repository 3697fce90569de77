//! Property tests on the SIMD micro-kernel layer: every vector kernel at
//! every dispatch level computes the COO reference result.
//!
//! Tolerance note: the AVX2 bodies use fused multiply-add, so each
//! accumulation rounds once where the scalar bodies round twice, and the
//! vector kernels also reassociate the reduction (4 or 8 partial sums).
//! Both effects perturb results by a few ULPs per accumulated term. With
//! the bounded dyadic inputs below (values are multiples of 1/8, at most
//! 120 terms per output) the divergence stays far under `TOL = 1e-9`
//! relative for f64; the f32 test widens that to `TOL_F32 = 1e-4`.

use proptest::prelude::*;
use spmm_core::{
    max_rel_error, BcsrMatrix, CooMatrix, CsrMatrix, DenseMatrix, EllMatrix, SellMatrix,
};
use spmm_kernels::simd::{self, SimdLevel, SimdScalar};

const TOL: f64 = 1e-9;
const TOL_F32: f64 = 1e-4;

fn sparse_matrix() -> impl Strategy<Value = CooMatrix<f64>> {
    (1usize..40, 1usize..40).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            (0..rows, 0..cols, -64i32..64).prop_map(|(r, c, v)| (r, c, v as f64 / 8.0)),
            0..120,
        )
        .prop_map(move |trips| CooMatrix::from_triplets(rows, cols, &trips).expect("in bounds"))
    })
}

/// Both dispatch levels reachable on this host. On an AVX2 machine this is
/// [scalar, avx2]; elsewhere it degenerates to the scalar level twice,
/// which still exercises the dispatch table.
fn levels() -> [SimdLevel; 2] {
    [SimdLevel::Scalar, simd::hardware_level()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simd_spmm_kernels_equal_reference(
        coo in sparse_matrix(),
        k in 1usize..12,
        block in 1usize..5,
        lanes_pow in 1u32..4,
        sigma in 1usize..16,
    ) {
        let b = DenseMatrix::from_fn(coo.cols(), k, |i, j| ((i * 13 + j * 5) % 11) as f64 - 5.0);
        let expected = coo.spmm_reference_k(&b, k);

        let csr = CsrMatrix::<f64>::from_coo(&coo);
        let ell = EllMatrix::from_coo(&coo).expect("ELL constructs");
        let bcsr = BcsrMatrix::from_coo(&coo, block).expect("BCSR constructs");
        // Lane widths 2/4/8 with varying σ exercise full slices, remainder
        // rows, and sort windows that straddle slice boundaries.
        let sell = SellMatrix::with_lane_width(&csr, 1 << lanes_pow, sigma)
            .expect("SELL constructs");

        for level in levels() {
            let mut c = DenseMatrix::from_fn(coo.rows(), k, |_, _| 42.0);
            simd::csr_spmm_at(level, &csr, &b, k, &mut c);
            prop_assert!(max_rel_error(&c, &expected) < TOL, "csr {}", level.name());

            c = DenseMatrix::from_fn(coo.rows(), k, |_, _| -1.5);
            simd::ell_spmm_at(level, &ell, &b, k, &mut c);
            prop_assert!(max_rel_error(&c, &expected) < TOL, "ell {}", level.name());

            c = DenseMatrix::from_fn(coo.rows(), k, |_, _| 7.0);
            simd::bcsr_spmm_at(level, &bcsr, &b, k, &mut c);
            prop_assert!(max_rel_error(&c, &expected) < TOL, "bcsr {}", level.name());

            c = DenseMatrix::from_fn(coo.rows(), k, |_, _| 0.25);
            simd::sell_spmm_at(level, &sell, &b, k, &mut c);
            prop_assert!(
                max_rel_error(&c, &expected) < TOL,
                "sell C={} σ={sigma} {}",
                1 << lanes_pow,
                level.name()
            );
        }
    }

    #[test]
    fn simd_spmv_kernels_equal_reference(
        coo in sparse_matrix(),
        lanes_pow in 1u32..4,
        sigma in 1usize..16,
    ) {
        let x: Vec<f64> = (0..coo.cols()).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let expected = coo.spmv_reference(&x);

        let csr = CsrMatrix::<f64>::from_coo(&coo);
        let sell = SellMatrix::with_lane_width(&csr, 1 << lanes_pow, sigma)
            .expect("SELL constructs");

        for level in levels() {
            let mut y = vec![9.0f64; coo.rows()];
            simd::csr_spmv_at(level, &csr, &x, &mut y);
            let worst = y
                .iter()
                .zip(&expected)
                .map(|(a, b)| (a - b).abs() / b.abs().max(1.0))
                .fold(0.0f64, f64::max);
            prop_assert!(worst < TOL, "csr-spmv {} diverged {worst:e}", level.name());

            let mut y = vec![-3.0f64; coo.rows()];
            simd::sell_spmv_at(level, &sell, &x, &mut y);
            let worst = y
                .iter()
                .zip(&expected)
                .map(|(a, b)| (a - b).abs() / b.abs().max(1.0))
                .fold(0.0f64, f64::max);
            prop_assert!(worst < TOL, "sell-spmv {} diverged {worst:e}", level.name());
        }
    }

    #[test]
    fn f32_simd_kernels_equal_reference(
        coo in sparse_matrix(),
        k in 1usize..10,
    ) {
        // Same dyadic values reconstructed at f32: products and partial
        // sums stay well inside the 24-bit mantissa, so scalar and 8-lane
        // FMA paths agree to TOL_F32 easily.
        let coo32 = CooMatrix::<f32>::from_triplets(
            coo.rows(),
            coo.cols(),
            &coo.iter().map(|(r, c, v)| (r, c, v as f32)).collect::<Vec<_>>(),
        )
        .expect("in bounds");
        let b = DenseMatrix::from_fn(coo.cols(), k, |i, j| ((i * 3 + j * 7) % 9) as f32 - 4.0);
        let expected = coo32.spmm_reference_k(&b, k);
        let csr = CsrMatrix::<f32>::from_coo(&coo32);
        let sell = SellMatrix::with_lane_width(&csr, 8, 8).expect("SELL constructs");

        for level in levels() {
            let mut c = DenseMatrix::from_fn(coo.rows(), k, |_, _| 11.0f32);
            simd::csr_spmm_at(level, &csr, &b, k, &mut c);
            prop_assert!(max_rel_error(&c, &expected) < TOL_F32, "csr f32 {}", level.name());

            c = DenseMatrix::from_fn(coo.rows(), k, |_, _| -2.0f32);
            simd::sell_spmm_at(level, &sell, &b, k, &mut c);
            prop_assert!(max_rel_error(&c, &expected) < TOL_F32, "sell f32 {}", level.name());
        }
    }
}

/// The force-scalar override (what `spmm-bench --simd scalar` and
/// `SPMM_SIMD=scalar` install) really pins the active-level entry points
/// to the portable bodies. This is the only test in this binary touching
/// the global level; everything else pins levels via the `_at` variants.
#[test]
fn force_scalar_override_pins_dispatch() {
    let coo = CooMatrix::from_triplets(
        5,
        7,
        &[
            (0, 0, 1.5),
            (1, 3, -2.0),
            (2, 6, 0.5),
            (4, 2, 3.0),
            (4, 5, -1.0),
        ],
    )
    .expect("in bounds");
    let b = DenseMatrix::from_fn(7, 9, |i, j| (i + 2 * j) as f64);
    let expected = coo.spmm_reference_k(&b, 9);
    let csr = CsrMatrix::<f64>::from_coo(&coo);

    // Auto-detection honours `SPMM_SIMD`, so it picks the hardware level
    // only without it.
    let auto = simd::active_level();
    if std::env::var_os("SPMM_SIMD").is_none() {
        assert_eq!(auto, simd::hardware_level());
    }
    simd::set_level_override(Some(SimdLevel::Scalar));
    assert_eq!(simd::active_level(), SimdLevel::Scalar);
    assert_eq!(<f64 as SimdScalar>::lanes(simd::active_level()), 1);
    let mut c = DenseMatrix::zeros(5, 9);
    simd::csr_spmm(&csr, &b, 9, &mut c);
    assert!(max_rel_error(&c, &expected) < TOL);

    simd::set_level_override(None);
    assert_eq!(simd::active_level(), auto);
    simd::csr_spmm(&csr, &b, 9, &mut c);
    assert!(max_rel_error(&c, &expected) < TOL);
}

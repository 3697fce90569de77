//! Property tests on the `simd` variant: every `simd` kernel at every
//! level the host runs ([`simd::levels`]) computes the COO reference result.
//!
//! Tolerance note: above the scalar level the kernels fuse each
//! multiply-add, rounding once where the other kernels round twice, and
//! the SpMV kernels also reassociate each row sum. Both effects perturb
//! results by a few ULPs per accumulated term. With the bounded dyadic
//! inputs below (values are multiples of 1/8, at most 120 terms per
//! output) the divergence stays far under `TOL = 1e-9` relative for f64;
//! the f32 test widens that to `TOL_F32 = 1e-4`.

use proptest::prelude::*;
use spmm_core::{max_rel_error, CooMatrix, CsrMatrix, DenseMatrix, SellMatrix, SparseFormat};
use spmm_kernels::simd::{self, SimdLevel};
use spmm_kernels::FormatData;

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

/// SELL-C-σ of `coo` with slice height `lanes`.
fn sell<T: spmm_core::Scalar>(coo: &CooMatrix<T>, lanes: usize, sigma: usize) -> FormatData<T> {
    let csr = CsrMatrix::from_coo(coo);
    FormatData::Sell(SellMatrix::with_lane_width(&csr, lanes, sigma).expect("SELL constructs"))
}

fn worst_rel(y: &[f64], want: &[f64]) -> f64 {
    y.iter()
        .zip(want)
        .map(|(a, b)| (a - b).abs() / b.abs().max(1.0))
        .fold(0.0f64, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simd_spmm_kernels_equal_reference(
        coo in sparse_matrix(),
        k in 1usize..12,
        block in 1usize..5,
        lanes in 1usize..12,
        sigma in 1usize..16,
    ) {
        let b = DenseMatrix::from_fn(coo.cols(), k, |i, j| ((i * 13 + j * 5) % 11) as f64 - 5.0);
        let expected = coo.spmm_reference_k(&b, k);
        // Slice heights 1..=11 with varying σ exercise full slices,
        // remainder rows, and sort windows that straddle slice boundaries.
        let kernels = [
            FormatData::from_coo(SparseFormat::Csr, &coo, block).unwrap(),
            FormatData::from_coo(SparseFormat::Ell, &coo, block).unwrap(),
            FormatData::from_coo(SparseFormat::Bcsr, &coo, block).unwrap(),
            sell(&coo, lanes, sigma),
        ];

        for level in simd::levels() {
            for data in &kernels {
                let mut c = DenseMatrix::from_fn(coo.rows(), k, |_, _| 42.0);
                prop_assert!(data.spmm_serial_simd_at(level, &b, k, &mut c));
                prop_assert!(
                    max_rel_error(&c, &expected) < TOL,
                    "{} C={lanes} σ={sigma} {}",
                    data.format(),
                    level.name()
                );
            }
        }
    }

    #[test]
    fn simd_spmv_kernels_equal_reference(
        coo in sparse_matrix(),
        lanes in 1usize..12,
        sigma in 1usize..16,
    ) {
        let x: Vec<f64> = (0..coo.cols()).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let expected = coo.spmv_reference(&x);
        let kernels = [
            FormatData::from_coo(SparseFormat::Csr, &coo, 1).unwrap(),
            sell(&coo, lanes, sigma),
        ];

        for level in simd::levels() {
            for data in &kernels {
                let mut y = vec![9.0f64; coo.rows()];
                prop_assert!(data.spmv_serial_simd_at(level, &x, &mut y));
                let worst = worst_rel(&y, &expected);
                prop_assert!(
                    worst < TOL,
                    "{}-spmv C={lanes} {} diverged {worst:e}",
                    data.format(),
                    level.name()
                );
            }
        }
    }

    #[test]
    fn f32_simd_kernels_equal_reference(
        coo in sparse_matrix(),
        k in 1usize..10,
    ) {
        // Same dyadic values reconstructed at f32: products and partial
        // sums stay well inside the 24-bit mantissa, so the unfused and
        // fused builds agree to TOL_F32 easily.
        let coo32 = CooMatrix::<f32>::from_triplets(
            coo.rows(),
            coo.cols(),
            &coo.iter().map(|(r, c, v)| (r, c, v as f32)).collect::<Vec<_>>(),
        )
        .expect("in bounds");
        let b = DenseMatrix::from_fn(coo.cols(), k, |i, j| ((i * 3 + j * 7) % 9) as f32 - 4.0);
        let expected = coo32.spmm_reference_k(&b, k);
        let kernels = [FormatData::Csr(CsrMatrix::from_coo(&coo32)), sell(&coo32, 8, 8)];

        for level in simd::levels() {
            for data in &kernels {
                let mut c = DenseMatrix::from_fn(coo.rows(), k, |_, _| 11.0f32);
                prop_assert!(data.spmm_serial_simd_at(level, &b, k, &mut c));
                prop_assert!(
                    max_rel_error(&c, &expected) < TOL_F32,
                    "{} f32 {}",
                    data.format(),
                    level.name()
                );
            }
        }
    }
}

/// The force-scalar override (what `spmm-bench --simd scalar` and
/// `SPMM_SIMD=scalar` install) really pins the active-level entry point
/// to the portable, unfused build. This is the only test in this binary
/// touching the global level; everything else pins levels via the `_at`
/// variants.
#[test]
fn force_scalar_override_pins_dispatch() {
    let coo = CooMatrix::<f64>::from_triplets(
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
    let b = DenseMatrix::from_fn(7, 9, |i, j| (i + 2 * j) as f64 * 0.1);
    let expected = coo.spmm_reference_k(&b, 9);
    let data = FormatData::from_coo(SparseFormat::Csr, &coo, 1).unwrap();
    let run = |at: Option<SimdLevel>| {
        let mut c = DenseMatrix::zeros(5, 9);
        match at {
            Some(level) => assert!(data.spmm_serial_simd_at(level, &b, 9, &mut c)),
            None => assert!(data.spmm_serial_simd(&b, 9, &mut c)),
        }
        assert!(max_rel_error(&c, &expected) < TOL);
        c
    };

    // Auto-detection honours `SPMM_SIMD`, so it picks the hardware level
    // only without it.
    let auto = simd::active_level();
    if std::env::var_os("SPMM_SIMD").is_none() {
        assert_eq!(auto, simd::hardware_level());
    }
    simd::set_level_override(Some(SimdLevel::Scalar));
    assert_eq!(simd::active_level(), SimdLevel::Scalar);
    assert_eq!(run(None), run(Some(SimdLevel::Scalar)));

    simd::set_level_override(None);
    assert_eq!(simd::active_level(), auto);
    assert_eq!(run(None), run(Some(auto)));
}

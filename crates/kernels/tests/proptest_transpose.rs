//! Property tests for the transpose variants: the `B^T` kernels (Study 8's
//! transposed-B layout, through `FormatData`) and the `A^T` path
//! (`CooMatrix::transpose` feeding the normal kernels) are checked for
//! CSR/ELL/BCSR against the `spmm-verify` Kahan oracle under its
//! sequential error model.

use proptest::prelude::*;
use spmm_core::{BcsrMatrix, CooMatrix, CsrMatrix, DenseMatrix, EllMatrix, SparseFormat};
use spmm_kernels::FormatData;
use spmm_parallel::{Schedule, ThreadPool};
use spmm_verify::{compare_spmm, oracle_spmm, ErrorModel};

fn sparse_matrix() -> impl Strategy<Value = CooMatrix<f64>> {
    (1usize..32, 1usize..32).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            // Sevenths are not dyadic, so accumulation-order differences
            // are actually visible to the tolerance model.
            (0..rows, 0..cols, -64i32..64).prop_map(|(r, c, v)| (r, c, v as f64 / 7.0)),
            0..96,
        )
        .prop_map(move |trips| CooMatrix::from_triplets(rows, cols, &trips).expect("in bounds"))
    })
}

/// The transposed-B formats these properties cover.
const BT_FORMATS: [SparseFormat; 3] = [SparseFormat::Csr, SparseFormat::Ell, SparseFormat::Bcsr];

fn pool() -> &'static ThreadPool {
    spmm_parallel::global_pool()
}

fn row_nnz(coo: &CooMatrix<f64>) -> Vec<usize> {
    let mut n = vec![0usize; coo.rows()];
    for (i, _, _) in coo.iter() {
        n[i] += 1;
    }
    n
}

/// Run all three B^T serial kernels and compare each against the oracle.
fn check_bt_serial(coo: &CooMatrix<f64>, b: &DenseMatrix<f64>, k: usize, block: usize) {
    let bt = b.transposed();
    let want = oracle_spmm(coo, b, k);
    let nnz = row_nnz(coo);
    // The bt scatter is fused (`mul_add`), so it gets the FMA budget.
    let model = ErrorModel::reassociating(1);

    for format in BT_FORMATS {
        let data = FormatData::<f64>::from_coo(format, coo, block).expect("constructs");
        let mut c = DenseMatrix::from_fn(coo.rows(), k, |_, _| 42.0);
        assert!(data.spmm_serial_bt(&bt, k, &mut c));
        assert!(
            compare_spmm(&c, &want, &nnz, &model).is_none(),
            "{format} bt diverged: {:?}",
            compare_spmm(&c, &want, &nnz, &model)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bt_serial_kernels_match_oracle(
        coo in sparse_matrix(),
        k in 1usize..10,
        block in 1usize..5,
    ) {
        let b = DenseMatrix::from_fn(coo.cols(), k, |i, j| ((i * 31 + j * 17 + 5) % 23) as f64 / 7.0 - 1.5);
        check_bt_serial(&coo, &b, k, block);
    }

    #[test]
    fn bt_parallel_kernels_match_oracle(
        coo in sparse_matrix(),
        k in 1usize..8,
        threads in 1usize..6,
        sched_idx in 0usize..3,
        block in 1usize..5,
    ) {
        let schedule = [Schedule::Static, Schedule::Dynamic(4), Schedule::Guided(2)][sched_idx];
        let b = DenseMatrix::from_fn(coo.cols(), k, |i, j| ((i * 3 + j * 7) % 13) as f64 / 7.0 - 0.9);
        let bt = b.transposed();
        let want = oracle_spmm(&coo, &b, k);
        let nnz = row_nnz(&coo);
        // Each output row is still one sequential scatter chain per thread,
        // but give the parallel split reassociation headroom anyway.
        let model = ErrorModel::reassociating(threads.max(2));

        for format in BT_FORMATS {
            let data = FormatData::<f64>::from_coo(format, &coo, block).expect("constructs");
            let mut c = DenseMatrix::from_fn(coo.rows(), k, |_, _| 9.0);
            prop_assert!(data.spmm_parallel_bt(pool(), threads, schedule, &bt, k, &mut c));
            prop_assert!(
                compare_spmm(&c, &want, &nnz, &model).is_none(),
                "{} bt parallel diverged", format
            );
        }
    }

    /// The A^T path: transposing the sparse operand and multiplying equals
    /// the oracle of the transposed matrix — for the same three formats,
    /// through the normal (non-bt) serial kernels.
    #[test]
    fn at_transpose_matches_oracle(
        coo in sparse_matrix(),
        k in 1usize..8,
        block in 1usize..5,
    ) {
        let at = coo.transpose();
        let b = DenseMatrix::from_fn(at.cols(), k, |i, j| ((i * 13 + j * 5) % 11) as f64 / 7.0 - 0.6);
        let want = oracle_spmm(&at, &b, k);
        let nnz = row_nnz(&at);
        let model = ErrorModel::sequential();

        let csr = CsrMatrix::<f64, usize>::from_coo(&at);
        let mut c = DenseMatrix::from_fn(at.rows(), k, |_, _| 1.0);
        spmm_kernels::serial::csr_spmm(&csr, &b, k, &mut c);
        prop_assert!(compare_spmm(&c, &want, &nnz, &model).is_none(), "csr a^t diverged");

        let ell = EllMatrix::<f64, usize>::from_coo(&at).expect("constructs");
        let mut c = DenseMatrix::from_fn(at.rows(), k, |_, _| 1.0);
        spmm_kernels::serial::ell_spmm(&ell, &b, k, &mut c);
        prop_assert!(compare_spmm(&c, &want, &nnz, &model).is_none(), "ell a^t diverged");

        let bcsr = BcsrMatrix::<f64, usize>::from_coo(&at, block).expect("constructs");
        let mut c = DenseMatrix::from_fn(at.rows(), k, |_, _| 1.0);
        spmm_kernels::serial::bcsr_spmm(&bcsr, &b, k, &mut c);
        prop_assert!(compare_spmm(&c, &want, &nnz, &model).is_none(), "bcsr a^t diverged");
    }

    /// B^T on its transposed operand closes the loop: `(A^T)^T = A`, so
    /// the bt kernels over `A^T`'s transpose-back must match A's oracle.
    #[test]
    fn double_transpose_roundtrips(coo in sparse_matrix(), k in 1usize..6) {
        let back = coo.transpose().transpose();
        let b = DenseMatrix::from_fn(coo.cols(), k, |i, j| ((i + 2 * j) % 9) as f64 / 7.0 - 0.4);
        let want = oracle_spmm(&coo, &b, k);
        let got = oracle_spmm(&back, &b, k);
        for i in 0..coo.rows() {
            for j in 0..k {
                prop_assert_eq!(got.get(i, j), want.get(i, j));
            }
        }
        check_bt_serial(&back, &b, k, 2);
    }
}

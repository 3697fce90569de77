//! Regression guard for the parallel COO kernels on entries that are not
//! sorted by row. `CooMatrix::push` keeps insertion order, so cutting the
//! entry list at "row boundaries" would not keep rows whole, and two
//! threads would update the same C row. The parallel SpMV, transposed-B
//! and normal SpMM kernels must instead return the serial result bit for
//! bit.

use spmm_core::{CooMatrix, DenseMatrix};
use spmm_kernels::FormatData;
use spmm_parallel::{Schedule, ThreadPool};

fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
    let differ = got
        .iter()
        .zip(want)
        .filter(|(g, w)| g.to_bits() != w.to_bits())
        .count();
    assert_eq!(
        differ,
        0,
        "{what}: {differ} of {} values differ",
        want.len()
    );
}

#[test]
fn parallel_coo_kernels_match_serial_on_unsorted_entries() {
    // Column-major push order: every row has entries all along the list.
    let (rows, cols, k) = (2000, 64, 4);
    let mut coo = CooMatrix::<f64>::new(rows, cols);
    for j in 0..cols {
        for i in 0..rows {
            if (i + j) % 3 != 0 {
                coo.push(i, j, 1.0 / (1 + i + 2 * j) as f64).unwrap();
            }
        }
    }
    assert!(!coo.is_sorted());
    let data = FormatData::Coo(coo);
    let b = DenseMatrix::from_fn(cols, k, |i, j| 1.0 / (3 + i * 5 + j) as f64);
    let bt = b.transposed();
    let x: Vec<f64> = (0..cols).map(|i| 1.0 / (i + 7) as f64).collect();

    let mut want_y = vec![0.0; rows];
    assert!(data.spmv_serial(&x, &mut want_y));
    let mut want_bt = DenseMatrix::zeros(rows, k);
    assert!(data.spmm_serial_bt(&bt, k, &mut want_bt));
    let mut want_c = DenseMatrix::zeros(rows, k);
    data.spmm_serial(&b, k, &mut want_c);

    let pool = ThreadPool::new(2);
    for threads in [2, 3, 2, 4] {
        let s = Schedule::Static;
        let mut y = vec![f64::NAN; rows];
        assert!(data.spmv_parallel(&pool, threads, s, &x, &mut y));
        assert_same_bits(&y, &want_y, &format!("spmv t={threads}"));

        let mut c = DenseMatrix::from_fn(rows, k, |_, _| f64::NAN);
        assert!(data.spmm_parallel_bt(&pool, threads, s, &bt, k, &mut c));
        assert_same_bits(c.as_slice(), want_bt.as_slice(), &format!("bt t={threads}"));

        let mut c = DenseMatrix::from_fn(rows, k, |_, _| f64::NAN);
        data.spmm_parallel(&pool, threads, s, &b, k, &mut c);
        assert_same_bits(
            c.as_slice(),
            want_c.as_slice(),
            &format!("spmm t={threads}"),
        );
    }
}

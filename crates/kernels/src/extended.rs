//! Kernels for the extension formats: SELL-C-σ and HYB.
//!
//! These formats are this reproduction's additions beyond the paper's four
//! (via its §6.3.1 "additional formats" direction and related work \[13\]);
//! their kernels follow the same contract as [`crate::serial`] and
//! [`crate::parallel`], including one range body per format shared by the
//! serial and parallel entry points.

use std::ops::Range;

use spmm_core::{DenseMatrix, HybMatrix, Index, Scalar, SellMatrix};
use spmm_parallel::{Schedule, ThreadPool};

use crate::check_spmm_shapes;
use crate::serial::{coo_entries, ell_rows};
use crate::simd::active_level;
use crate::util::{isa_twin, DisjointSlice, Exec};

/// Serial SELL-C-σ SpMM: slice loop, lane-major inner walk.
pub fn sell_spmm<T: Scalar, I: Index>(
    a: &SellMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    let c = DisjointSlice::new(c.as_mut_slice());
    // SAFETY: the only writer of C, shapes checked, and the level comes
    // from `active_level`.
    unsafe { sell_slices(active_level(), a, b, k, 0..a.nslices(), &c) };
}

/// Parallel SELL-C-σ SpMM over slices. Slices own disjoint padded
/// positions and the row permutation is a bijection, so the written C
/// rows are disjoint across slices.
pub fn sell_spmm_parallel<T: Scalar, I: Index>(
    pool: &ThreadPool,
    threads: usize,
    schedule: Schedule,
    a: &SellMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    let level = active_level();
    let c = DisjointSlice::new(c.as_mut_slice());
    pool.parallel_for(threads, 0..a.nslices(), schedule, |slices| {
        // SAFETY: disjoint slice ranges own disjoint C rows (see fn docs);
        // shapes checked; the level comes from `active_level`.
        unsafe { sell_slices(level, a, b, k, slices, &c) };
    });
}

isa_twin! {
    #[runtime_width(k)]
    /// The C rows of SELL slices `slices`, each zeroed then accumulated.
    ///
    /// # Safety
    /// Shapes passed `check_spmm_shapes`, and no other live call covers any
    /// of `slices`.
    pub(crate) unsafe fn sell_slices<T: Scalar, I: Index, B: ReadB<T>>(
        a: &SellMatrix<T, I>,
        b: B,
        k: usize,
        slices: Range<usize>,
        c: &DisjointSlice<'_, T>,
    ) {
        let height = a.slice_height();
        let rows = a.rows();
        for s in slices {
            let (base, width) = a.slice(s);
            for lane in 0..height {
                let p = s * height + lane;
                if p >= rows {
                    break;
                }
                // SAFETY: slice/permutation disjointness (see
                // `sell_spmm_parallel`) and this fn's contract.
                let c_row = unsafe { c.slice_mut(a.row_at(p) * k, k) };
                c_row.fill(T::ZERO);
                for slot in 0..width {
                    let at = base + slot * height + lane;
                    let v = a.values()[at];
                    if v != T::ZERO {
                        b.axpy(c_row, v, a.col_idx()[at].as_usize(), k);
                    }
                }
            }
        }
    }
}

/// Serial HYB SpMM: ELL part first (overwrites C), COO tail accumulated
/// on top.
pub fn hyb_spmm<T: Scalar, I: Index>(
    a: &HybMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    let level = active_level();
    let c = DisjointSlice::new(c.as_mut_slice());
    // SAFETY: the only writer of C; the ELL part and the tail share the
    // HYB shape; the level comes from `active_level`.
    unsafe {
        ell_rows(level, a.ell(), b, k, 0..a.rows(), &c);
        coo_entries(level, a.tail(), b, k, 0..a.tail().nnz(), &c);
    }
}

/// Parallel HYB SpMM: a parallel ELL pass, then a row-aligned parallel
/// accumulation of the tail (the two phases are separated by the pool's
/// implicit barrier).
pub fn hyb_spmm_parallel<T: Scalar, I: Index>(
    pool: &ThreadPool,
    threads: usize,
    schedule: Schedule,
    a: &HybMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    let level = active_level();
    let c = DisjointSlice::new(c.as_mut_slice());
    pool.parallel_for(threads, 0..a.rows(), schedule, |rows| {
        // SAFETY: disjoint row ranges; as in `hyb_spmm` otherwise.
        unsafe { ell_rows(level, a.ell(), b, k, rows, &c) };
    });
    Exec::Parallel(pool, threads, schedule).coo_ranges(a.tail(), |entries| {
        // SAFETY: row-aligned entry ranges; as in `hyb_spmm` otherwise.
        unsafe { coo_entries(level, a.tail(), b, k, entries, &c) };
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_core::CooMatrix;

    fn skewed() -> (CooMatrix<f64>, DenseMatrix<f64>) {
        let mut trips = Vec::new();
        for i in 0..40usize {
            for d in 0..(1 + i % 4) {
                trips.push((i, (i * 3 + d) % 30, 1.0 + (i * d) as f64 * 0.1));
            }
        }
        for j in 0..25 {
            trips.push((13, j, -0.5)); // monster row
        }
        (
            CooMatrix::from_triplets(40, 30, &trips).unwrap(),
            DenseMatrix::from_fn(30, 12, |i, j| ((i + 2 * j) % 9) as f64 - 4.0),
        )
    }

    #[test]
    fn sell_serial_and_parallel_match_reference() {
        let (coo, b) = fixture_pair();
        for (c_h, sigma) in [(1usize, 1usize), (4, 8), (8, 40), (5, 3)] {
            let sell = SellMatrix::from_coo(&coo, c_h, sigma).unwrap();
            for k in [1usize, 6, 12] {
                let expected = coo.spmm_reference_k(&b, k);
                let mut c = DenseMatrix::from_fn(40, k, |_, _| 9.0);
                sell_spmm(&sell, &b, k, &mut c);
                assert_eq!(c, expected, "serial C={c_h} σ={sigma} k={k}");
                let pool = ThreadPool::new(3);
                let mut c = DenseMatrix::from_fn(40, k, |_, _| -9.0);
                sell_spmm_parallel(&pool, 3, Schedule::Dynamic(1), &sell, &b, k, &mut c);
                assert_eq!(c, expected, "parallel C={c_h} σ={sigma} k={k}");
            }
        }
    }

    fn fixture_pair() -> (CooMatrix<f64>, DenseMatrix<f64>) {
        skewed()
    }

    #[test]
    fn hyb_serial_and_parallel_match_reference() {
        let (coo, b) = skewed();
        let hyb = HybMatrix::from_coo(&coo).unwrap();
        assert!(hyb.tail().nnz() > 0, "fixture must exercise the tail");
        let k = 12;
        let expected = coo.spmm_reference_k(&b, k);
        let mut c = DenseMatrix::zeros(40, k);
        hyb_spmm(&hyb, &b, k, &mut c);
        assert_eq!(c, expected, "serial");
        let pool = ThreadPool::new(4);
        for threads in [1, 2, 5] {
            let mut c = DenseMatrix::from_fn(40, k, |_, _| 3.0);
            hyb_spmm_parallel(&pool, threads, Schedule::Static, &hyb, &b, k, &mut c);
            assert_eq!(c, expected, "parallel t={threads}");
        }
    }

    #[test]
    fn hyb_with_empty_tail_and_empty_ell() {
        let (coo, b) = skewed();
        let csr = spmm_core::CsrMatrix::from_coo(&coo);
        let k = 4;
        let expected = coo.spmm_reference_k(&b, k);
        // Everything in ELL.
        let all_ell = HybMatrix::from_csr_with_width(&csr, 30).unwrap();
        let mut c = DenseMatrix::zeros(40, k);
        hyb_spmm(&all_ell, &b, k, &mut c);
        assert_eq!(c, expected);
        // Everything in the tail.
        let all_tail = HybMatrix::from_csr_with_width(&csr, 0).unwrap();
        let pool = ThreadPool::new(2);
        let mut c = DenseMatrix::zeros(40, k);
        hyb_spmm_parallel(&pool, 4, Schedule::Static, &all_tail, &b, k, &mut c);
        assert_eq!(c, expected);
    }

    #[test]
    fn sell_stores_fewer_slots_than_ell_on_skew() {
        let (coo, _) = skewed();
        let sell = SellMatrix::from_coo(&coo, 4, 40).unwrap();
        let ell = spmm_core::EllMatrix::from_coo(&coo).unwrap();
        assert!(
            sell.padded_len() < ell.padded_len(),
            "sell {} vs ell {}",
            sell.padded_len(),
            ell.padded_len()
        );
    }
}

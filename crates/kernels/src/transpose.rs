//! Transposed-B SpMM (the paper's Study 8).
//!
//! These kernels read a pre-transposed `B` (`bt`, shape `b.cols × b.rows`),
//! so gathering `B[j][kk]` becomes `bt[kk][j]` — the element order of a
//! dense multiply. The paper's hypothesis was that this might help; it
//! mostly doesn't, because the normal sparse kernels already stream B's
//! rows linearly while this layout strides across `bt` rows per nonzero.
//! The kernels exist to measure exactly that, so they are the normal range
//! bodies of [`crate::serial`] with only the B read swapped for
//! `Transposed`'s strided gather: same loops, same ISA build.
//!
//! Use [`spmm_core::DenseMatrix::transposed`] to produce `bt`; the suite
//! charges that transpose to the variant's formatting time. The kernels
//! are reached through [`FormatData::spmm_serial_bt`] and
//! [`FormatData::spmm_parallel_bt`].

use spmm_core::{DenseMatrix, Index, Scalar, SparseFormat};

use crate::dispatch::FormatData;
use crate::serial::{bcsr_block_rows, coo_entries, csr_rows, ell_rows};
use crate::simd::active_level;
use crate::util::{DisjointSlice, Exec, ReadB};

/// Validate shapes for a transposed-B kernel (`bt` is `B` transposed).
#[inline]
fn check_bt_shapes<T: Scalar>(
    a_rows: usize,
    a_cols: usize,
    bt: &DenseMatrix<T>,
    k: usize,
    c: &DenseMatrix<T>,
) {
    assert_eq!(
        a_cols,
        bt.cols(),
        "A has {a_cols} cols but Bt has {} cols",
        bt.cols()
    );
    assert!(k <= bt.rows(), "k = {k} exceeds Bt's {} rows", bt.rows());
    assert_eq!(
        c.rows(),
        a_rows,
        "C has {} rows but A has {a_rows}",
        c.rows()
    );
    assert_eq!(c.cols(), k, "C has {} cols but k = {k}", c.cols());
}

/// B read through its transpose `bt`: row `j` of B is column `j` of `bt`.
#[derive(Clone, Copy)]
pub(crate) struct Transposed<'a, T>(&'a DenseMatrix<T>);

impl<T: Scalar> ReadB<T> for Transposed<'_, T> {
    #[inline(always)]
    fn axpy(self, c_row: &mut [T], v: T, j: usize, k: usize) {
        for (kk, cv) in c_row[..k].iter_mut().enumerate() {
            // Strided: each kk reads a different bt row at the same column.
            *cv = v.mul_add(self.0.get(kk, j), *cv);
        }
    }
}

/// Transposed-B SpMM of `data` over `exec` (`bt` is B transposed) if it
/// is one of the paper's four formats; returns `false` (C untouched)
/// otherwise, matching the paper, which only built transpose kernels for
/// its four formats.
pub(crate) fn spmm_bt<T: Scalar, I: Index>(
    data: &FormatData<T, I>,
    exec: Exec<'_>,
    bt: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) -> bool {
    if !SparseFormat::PAPER.contains(&data.format()) {
        return false;
    }
    check_bt_shapes(data.rows(), data.cols(), bt, k, c);
    if let FormatData::Coo(_) = data {
        c.clear();
    }
    let (bt, level) = (Transposed(bt), active_level());
    let c = DisjointSlice::new(c.as_mut_slice());
    // SAFETY (every arm): `exec` hands each call a disjoint range
    // (row-aligned for COO) that owns its C rows; shapes checked; the
    // level comes from `active_level`.
    match data {
        FormatData::Coo(m) => exec.coo_ranges(m, |entries| unsafe {
            coo_entries(level, m, bt, k, entries, &c)
        }),
        FormatData::Csr(m) => exec.ranges(m.rows(), |rows| unsafe {
            csr_rows(level, m, bt, k, rows, &c)
        }),
        FormatData::Ell(m) => exec.ranges(m.rows(), |rows| unsafe {
            ell_rows(level, m, bt, k, rows, &c)
        }),
        FormatData::Bcsr(m) => exec.ranges(m.block_rows(), |block_rows| unsafe {
            bcsr_block_rows(level, m, bt, k, block_rows, &c)
        }),
        _ => unreachable!("{} has no transposed-B kernel", data.format()),
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_core::CooMatrix;
    use spmm_parallel::{Schedule, ThreadPool};

    fn fixture() -> (CooMatrix<f64>, DenseMatrix<f64>, DenseMatrix<f64>) {
        let coo = CooMatrix::from_triplets(
            8,
            6,
            &[
                (0, 0, 1.0),
                (0, 5, -2.0),
                (2, 1, 3.0),
                (2, 2, 4.0),
                (3, 3, 5.5),
                (5, 0, -6.0),
                (5, 1, 7.0),
                (5, 2, 8.0),
                (5, 3, 9.0),
                (7, 5, 10.0),
            ],
        )
        .unwrap();
        let b = DenseMatrix::from_fn(6, 9, |i, j| ((i * 13 + j * 5) % 17) as f64 - 8.0);
        let bt = b.transposed();
        (coo, b, bt)
    }

    #[test]
    fn serial_bt_kernels_match_reference() {
        let (coo, b, bt) = fixture();
        for format in SparseFormat::PAPER {
            let data = FormatData::from_coo(format, &coo, 3).unwrap();
            for k in [1, 4, 9] {
                let mut c = DenseMatrix::from_fn(8, k, |_, _| 5.0);
                assert!(data.spmm_serial_bt(&bt, k, &mut c));
                assert_eq!(c, coo.spmm_reference_k(&b, k), "{format} k={k}");
            }
        }
    }

    #[test]
    fn parallel_bt_kernels_match_reference() {
        let pool = ThreadPool::new(4);
        let (coo, b, bt) = fixture();
        let expected = coo.spmm_reference_k(&b, 5);
        for format in SparseFormat::PAPER {
            let data = FormatData::from_coo(format, &coo, 2).unwrap();
            for (threads, schedule) in [
                (1, Schedule::Static),
                (3, Schedule::Dynamic(1)),
                (6, Schedule::Static),
            ] {
                let mut c = DenseMatrix::from_fn(8, 5, |_, _| -1.0);
                assert!(data.spmm_parallel_bt(&pool, threads, schedule, &bt, 5, &mut c));
                assert_eq!(c, expected, "{format} t={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "Bt")]
    fn untransposed_b_is_rejected_when_shapes_differ() {
        let (coo, b, _) = fixture();
        // b is 6x9; passing it as bt fails the cols check (a.cols = 6,
        // b.cols = 9).
        let mut c = DenseMatrix::zeros(8, 4);
        FormatData::Coo(coo).spmm_serial_bt(&b, 4, &mut c);
    }
}

//! CPU-parallel SpMM kernels (the paper's "OMP" kernels).
//!
//! Each kernel parallelizes the loop the paper's OpenMP pragmas annotate:
//! rows for CSR/ELL, row-aligned entry ranges for COO, block rows for BCSR,
//! strips for BELL and tiles for CSR5. The thread count and schedule are
//! per-call parameters, matching the suite's `-t` flag. Every chunk runs
//! the same range body as the serial kernel of its format (see
//! [`crate::serial`]), at the [`active_level`] read once per call.

use std::ops::Range;

use spmm_core::{
    BcsrMatrix, BellMatrix, CooMatrix, Csr5Matrix, CsrMatrix, DenseMatrix, EllMatrix, Index, Scalar,
};
use spmm_parallel::{Schedule, ThreadPool};

use crate::check_spmm_shapes;
use crate::serial::{bcsr_block_rows, bell_strips, coo_entries, csr_rows, ell_rows};
use crate::simd::active_level;
use crate::util::{axpy, isa_twin, DisjointSlice, Exec};

/// COO SpMM parallelized over row-aligned entry ranges: each thread's
/// range is extended to a row boundary so no two threads touch the same C
/// row. Entries not sorted by row (a matrix filled by `push`) cannot be cut
/// that way and run on one thread. The schedule is necessarily static —
/// COO has no cheap way to rebalance mid-run, which is exactly why the
/// paper finds COO's parallel behaviour diverges from CSR's on skewed
/// matrices.
pub fn coo_spmm<T: Scalar, I: Index>(
    pool: &ThreadPool,
    threads: usize,
    a: &CooMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    c.clear();
    let level = active_level();
    let c = DisjointSlice::new(c.as_mut_slice());
    Exec::Parallel(pool, threads, Schedule::Static).coo_ranges(a, |entries| {
        // SAFETY: row-aligned ranges give each C row exactly one writer;
        // shapes checked; the level comes from `active_level`.
        unsafe { coo_entries(level, a, b, k, entries, &c) };
    });
}

/// CSR SpMM parallelized over rows.
pub fn csr_spmm<T: Scalar, I: Index>(
    pool: &ThreadPool,
    threads: usize,
    schedule: Schedule,
    a: &CsrMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    let level = active_level();
    let c = DisjointSlice::new(c.as_mut_slice());
    pool.parallel_for(threads, 0..a.rows(), schedule, |rows| {
        // SAFETY (this and every parallel_for chunk below): the pool hands
        // out disjoint ranges, which own disjoint C rows; shapes checked;
        // the level comes from `active_level`.
        unsafe { csr_rows(level, a, b, k, rows, &c) };
    });
}

/// CSR SpMM with an nnz-balanced static row split: rows are cut where the
/// `row_ptr` nonzero prefix is even, not where the row count is. This is
/// the static-schedule fix for power-law matrices (`torso1`'s monster
/// rows): each thread gets one contiguous chunk (no cursor traffic, like
/// `Schedule::Static`) but the chunks carry near-equal arithmetic.
pub fn csr_spmm_balanced<T: Scalar, I: Index>(
    pool: &ThreadPool,
    threads: usize,
    a: &CsrMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    let threads = threads.max(1);
    let row_ptr = a.row_ptr();
    let ranges = spmm_parallel::balanced_partition(a.rows(), threads, |i| row_ptr[i].as_usize());
    csr_spmm_balanced_in(pool, threads, a, b, k, &ranges, c);
}

/// [`csr_spmm_balanced`] against a precomputed partition (one range per
/// thread, concatenating to `0..rows`), so the timed loop of a benchmark
/// can reuse the split instead of reallocating it on every call.
pub fn csr_spmm_balanced_in<T: Scalar, I: Index>(
    pool: &ThreadPool,
    threads: usize,
    a: &CsrMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    ranges: &[Range<usize>],
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    let threads = threads.max(1).min(ranges.len());
    let level = active_level();
    let c = DisjointSlice::new(c.as_mut_slice());
    pool.broadcast(threads, |tid| {
        // SAFETY: the partition's ranges are disjoint by construction, so
        // each C row has exactly one writer; as in `csr_spmm` otherwise.
        unsafe { csr_rows(level, a, b, k, ranges[tid].clone(), &c) };
    });
}

/// ELLPACK SpMM parallelized over rows. The constant row width makes the
/// per-row work identical (modulo padding), which is why ELL favours high
/// static thread counts in Study 3.1.
pub fn ell_spmm<T: Scalar, I: Index>(
    pool: &ThreadPool,
    threads: usize,
    schedule: Schedule,
    a: &EllMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    let level = active_level();
    let c = DisjointSlice::new(c.as_mut_slice());
    pool.parallel_for(threads, 0..a.rows(), schedule, |rows| {
        // SAFETY: as in `csr_spmm`.
        unsafe { ell_rows(level, a, b, k, rows, &c) };
    });
}

/// BCSR SpMM parallelized over block rows — the coarse, regular work units
/// the format was designed to expose.
pub fn bcsr_spmm<T: Scalar, I: Index>(
    pool: &ThreadPool,
    threads: usize,
    schedule: Schedule,
    a: &BcsrMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    let level = active_level();
    let c = DisjointSlice::new(c.as_mut_slice());
    pool.parallel_for(threads, 0..a.block_rows(), schedule, |block_rows| {
        // SAFETY: as in `csr_spmm`; block rows partition the rows.
        unsafe { bcsr_block_rows(level, a, b, k, block_rows, &c) };
    });
}

/// Blocked-ELLPACK SpMM parallelized over strips.
pub fn bell_spmm<T: Scalar, I: Index>(
    pool: &ThreadPool,
    threads: usize,
    schedule: Schedule,
    a: &BellMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    let level = active_level();
    let c = DisjointSlice::new(c.as_mut_slice());
    pool.parallel_for(threads, 0..a.strips(), schedule, |strips| {
        // SAFETY: as in `csr_spmm`; strips partition the rows.
        unsafe { bell_strips(level, a, b, k, strips, &c) };
    });
}

/// CSR5-style SpMM parallelized over nnz tiles — perfect load balance even
/// on `torso1`-like skew, at the price of a carry fix-up for rows that
/// straddle tiles.
pub fn csr5_spmm<T: Scalar, I: Index>(
    pool: &ThreadPool,
    threads: usize,
    schedule: Schedule,
    a: &Csr5Matrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    c.clear();
    let ntiles = a.ntiles();
    if ntiles == 0 {
        return;
    }

    // Per-tile carry buffer: partial sums for a tile whose first segment
    // continues a row begun in an earlier tile.
    let mut carry = vec![T::ZERO; ntiles * k];
    let level = active_level();
    let carry_slice = DisjointSlice::new(&mut carry);
    let c_slice = DisjointSlice::new(c.as_mut_slice());
    pool.parallel_for(threads, 0..ntiles, schedule, |tiles| {
        // SAFETY: as in `csr_spmm`; row ownership per `csr5_carry_tiles`.
        unsafe { csr5_carry_tiles(level, a, b, k, tiles, &c_slice, &carry_slice) };
    });

    // Sequential carry fix-up (CSR5's calibration step).
    for t in 0..ntiles {
        if a.tile_starts_mid_row(t) {
            let row = a.tile(t).segments[0].0.as_usize();
            let c_row = c.row_mut(row);
            for (cv, &add) in c_row[..k].iter_mut().zip(&carry[t * k..t * k + k]) {
                *cv += add;
            }
        }
    }
}

isa_twin! {
    #[runtime_width(k)]
    /// CSR5 tiles `tiles` accumulated into C (cleared by the caller), except
    /// that a tile whose first segment continues a row begun in an earlier
    /// tile writes that segment to its private `carry` row `t`.
    ///
    /// # Safety
    /// Shapes passed `check_spmm_shapes`, `carry` holds `a.ntiles() × k`
    /// elements, and no other live call covers any of `tiles`: a row's direct
    /// writes belong to the single tile holding the row's first entry.
    unsafe fn csr5_carry_tiles<T: Scalar, I: Index>(
        a: &Csr5Matrix<T, I>,
        b: &DenseMatrix<T>,
        k: usize,
        tiles: Range<usize>,
        c: &DisjointSlice<'_, T>,
        carry: &DisjointSlice<'_, T>,
    ) {
        for t in tiles {
            let tile = a.tile(t);
            let mid_row_start = a.tile_starts_mid_row(t);
            for (s, &(row, start)) in tile.segments.iter().enumerate() {
                let seg_lo = start.as_usize().max(tile.entry_lo);
                let seg_hi = match tile.segments.get(s + 1) {
                    Some(&(_, next)) => next.as_usize(),
                    None => tile.entry_hi,
                };
                // SAFETY: row ownership per this fn's contract; continuation
                // tiles use their private carry row instead.
                let c_row = if s == 0 && mid_row_start {
                    unsafe { carry.slice_mut(t * k, k) }
                } else {
                    unsafe { c.slice_mut(row.as_usize() * k, k) }
                };
                for e in seg_lo..seg_hi {
                    let local = e - tile.entry_lo;
                    axpy(
                        c_row,
                        tile.values[local],
                        b.row(tile.col_idx[local].as_usize()),
                        k,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(rows: usize, cols: usize, seed: u64) -> (CooMatrix<f64>, DenseMatrix<f64>) {
        // Small deterministic LCG so the kernels crate stays rand-free.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut trips = Vec::new();
        for i in 0..rows {
            let deg = (next() % 6) as usize + (if i % 7 == 0 { 20 } else { 0 });
            for _ in 0..deg {
                let j = (next() % cols as u64) as usize;
                let v = ((next() % 1000) as f64 - 500.0) / 100.0;
                trips.push((i, j, v));
            }
        }
        let coo = CooMatrix::from_triplets(rows, cols, &trips).unwrap();
        let b = DenseMatrix::from_fn(cols, 16, |i, j| ((i * 31 + j * 7) % 23) as f64 - 11.0);
        (coo, b)
    }

    fn assert_close(got: &DenseMatrix<f64>, want: &DenseMatrix<f64>, label: &str) {
        let err = spmm_core::max_rel_error(got, want);
        assert!(err < 1e-10, "{label}: max rel error {err}");
    }

    #[test]
    fn all_parallel_kernels_match_reference() {
        let pool = ThreadPool::new(4);
        let (coo, b) = fixture(97, 61, 42);
        let csr = CsrMatrix::from_coo(&coo);
        let ell = EllMatrix::from_coo(&coo).unwrap();
        let bcsr = BcsrMatrix::from_coo(&coo, 4).unwrap();
        let bell = BellMatrix::from_coo(&coo, 4).unwrap();
        let csr5 = Csr5Matrix::from_csr_with_tile(&csr, 16).unwrap();

        for threads in [1, 2, 4, 7] {
            for k in [1, 8, 16] {
                let expected = coo.spmm_reference_k(&b, k);
                let mut c = DenseMatrix::zeros(97, k);

                coo_spmm(&pool, threads, &coo, &b, k, &mut c);
                assert_close(&c, &expected, &format!("coo t={threads} k={k}"));
                csr_spmm(&pool, threads, Schedule::Static, &csr, &b, k, &mut c);
                assert_close(&c, &expected, &format!("csr t={threads} k={k}"));
                csr_spmm_balanced(&pool, threads, &csr, &b, k, &mut c);
                assert_close(&c, &expected, &format!("csr-bal t={threads} k={k}"));
                ell_spmm(&pool, threads, Schedule::Static, &ell, &b, k, &mut c);
                assert_close(&c, &expected, &format!("ell t={threads} k={k}"));
                bcsr_spmm(&pool, threads, Schedule::Static, &bcsr, &b, k, &mut c);
                assert_close(&c, &expected, &format!("bcsr t={threads} k={k}"));
                bell_spmm(&pool, threads, Schedule::Static, &bell, &b, k, &mut c);
                assert_close(&c, &expected, &format!("bell t={threads} k={k}"));
                csr5_spmm(&pool, threads, Schedule::Static, &csr5, &b, k, &mut c);
                assert_close(&c, &expected, &format!("csr5 t={threads} k={k}"));
            }
        }
    }

    #[test]
    fn schedules_agree() {
        let pool = ThreadPool::new(4);
        let (coo, b) = fixture(64, 64, 7);
        let csr = CsrMatrix::from_coo(&coo);
        let expected = coo.spmm_reference_k(&b, 8);
        for sched in [
            Schedule::Static,
            Schedule::Dynamic(3),
            Schedule::Guided(2),
            Schedule::Auto,
        ] {
            let mut c = DenseMatrix::zeros(64, 8);
            csr_spmm(&pool, 4, sched, &csr, &b, 8, &mut c);
            assert_close(&c, &expected, &format!("{sched:?}"));
        }
    }

    #[test]
    fn coo_row_alignment_with_heavy_rows() {
        // One row holds most entries: boundary alignment must still
        // partition correctly (several threads collapse onto one range).
        let mut trips = vec![(0usize, 0usize, 1.0f64)];
        for j in 0..500 {
            trips.push((3, j % 50, 0.25));
        }
        trips.push((49, 49, 2.0));
        let coo = CooMatrix::<f64>::from_triplets(50, 50, &trips).unwrap();
        let b = DenseMatrix::from_fn(50, 4, |i, j| (i + j) as f64);
        let expected = coo.spmm_reference(&b);
        let pool = ThreadPool::new(4);
        for threads in [2, 4, 8] {
            let mut c = DenseMatrix::zeros(50, 4);
            coo_spmm(&pool, threads, &coo, &b, 4, &mut c);
            assert_close(&c, &expected, &format!("heavy t={threads}"));
        }
    }

    #[test]
    fn csr5_carry_rows_across_many_tiles() {
        // A single row spanning dozens of 4-entry tiles exercises the
        // carry fix-up on nearly every tile.
        let trips: Vec<(usize, usize, f64)> = (0..200)
            .map(|e| (1usize, e % 40, 1.0 + e as f64 * 0.01))
            .collect();
        let coo = CooMatrix::<f64>::from_triplets(3, 40, &trips).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let csr5 = Csr5Matrix::from_csr_with_tile(&csr, 4).unwrap();
        let b = DenseMatrix::from_fn(40, 5, |i, j| ((i + 2 * j) % 9) as f64);
        let expected = coo.spmm_reference(&b);
        let pool = ThreadPool::new(4);
        let mut c = DenseMatrix::zeros(3, 5);
        csr5_spmm(&pool, 4, Schedule::Dynamic(1), &csr5, &b, 5, &mut c);
        assert_close(&c, &expected, "csr5 carry");
    }

    #[test]
    fn oversubscribed_threads_work() {
        let pool = ThreadPool::new(2);
        let (coo, b) = fixture(40, 40, 3);
        let csr = CsrMatrix::from_coo(&coo);
        let expected = coo.spmm_reference_k(&b, 8);
        let mut c = DenseMatrix::zeros(40, 8);
        csr_spmm(&pool, 32, Schedule::Static, &csr, &b, 8, &mut c);
        assert_close(&c, &expected, "oversubscribed");
    }

    #[test]
    fn empty_matrix_parallel() {
        let pool = ThreadPool::new(2);
        let coo = CooMatrix::<f64>::new(8, 8);
        let b = DenseMatrix::from_fn(8, 4, |_, _| 1.0);
        let mut c = DenseMatrix::from_fn(8, 4, |_, _| 9.0);
        coo_spmm(&pool, 4, &coo, &b, 4, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
        let csr5 = Csr5Matrix::from_coo(&coo).unwrap();
        let mut c = DenseMatrix::from_fn(8, 4, |_, _| 9.0);
        csr5_spmm(&pool, 4, Schedule::Static, &csr5, &b, 4, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }
}

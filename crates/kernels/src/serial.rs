//! Serial SpMM kernels: one per format, runtime-`k`.
//!
//! These are the paper's baseline calculation functions. All overwrite `C`
//! (shape `a.rows() × k`), reading the first `k` columns of `B`.
//!
//! Each format's loop is one `#[inline(always)]` body over a row range
//! (block-row range for BCSR, strip range for BELL, tile range for CSR5,
//! row-aligned entry range for COO) that writes C through a
//! `DisjointSlice`. `isa_twin!` compiles every body for the baseline
//! target and for AVX2+FMA; the entry points here run it once over the
//! whole matrix at [`active_level`], and [`crate::parallel`] runs it once
//! per chunk. The COO, CSR, ELL and BCSR bodies are generic in how they
//! read B, so Study 8's transposed-B kernels ([`crate::transpose`]) are
//! the same bodies over a pre-transposed B, and the `simd` variant
//! ([`FormatData::spmm_serial_simd`]) the same bodies with a fused B
//! read.
//!
//! [`FormatData::spmm_serial_simd`]: crate::FormatData::spmm_serial_simd

use std::ops::Range;

use spmm_core::{
    BcsrMatrix, BellMatrix, CooMatrix, Csr5Matrix, CsrMatrix, DenseMatrix, EllMatrix, Index, Scalar,
};

use crate::check_spmm_shapes;
use crate::simd::active_level;
use crate::util::{axpy, isa_twin, DisjointSlice};

/// COO SpMM: a single pass over the triplets.
pub fn coo_spmm<T: Scalar, I: Index>(
    a: &CooMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    c.clear();
    let c = DisjointSlice::new(c.as_mut_slice());
    // SAFETY (this and every serial entry point below): the only writer
    // of C, shapes checked, and the level comes from `active_level`.
    unsafe { coo_entries(active_level(), a, b, k, 0..a.nnz(), &c) };
}

/// CSR SpMM: row loop over the compressed rows.
pub fn csr_spmm<T: Scalar, I: Index>(
    a: &CsrMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    let c = DisjointSlice::new(c.as_mut_slice());
    // SAFETY: as in `coo_spmm`.
    unsafe { csr_rows(active_level(), a, b, k, 0..a.rows(), &c) };
}

/// ELLPACK SpMM: fixed-width slot loop. Padding slots multiply an explicit
/// zero against a real row of B — the wasted work the format trades for
/// regularity.
pub fn ell_spmm<T: Scalar, I: Index>(
    a: &EllMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    let c = DisjointSlice::new(c.as_mut_slice());
    // SAFETY: as in `coo_spmm`.
    unsafe { ell_rows(active_level(), a, b, k, 0..a.rows(), &c) };
}

/// BCSR SpMM: block-row loop; each stored block contributes a dense
/// `r × c`-by-`c × k` multiply into `r` rows of C.
pub fn bcsr_spmm<T: Scalar, I: Index>(
    a: &BcsrMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    let c = DisjointSlice::new(c.as_mut_slice());
    // SAFETY: as in `coo_spmm`.
    unsafe { bcsr_block_rows(active_level(), a, b, k, 0..a.block_rows(), &c) };
}

/// Blocked-ELLPACK SpMM: strip loop over the ELL-padded block slots.
pub fn bell_spmm<T: Scalar, I: Index>(
    a: &BellMatrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    let c = DisjointSlice::new(c.as_mut_slice());
    // SAFETY: as in `coo_spmm`.
    unsafe { bell_strips(active_level(), a, b, k, 0..a.strips(), &c) };
}

/// CSR5-style SpMM: tile loop with segment-local accumulation. Serially the
/// carry logic is unnecessary (tiles run in order), so segments accumulate
/// straight into C.
pub fn csr5_spmm<T: Scalar, I: Index>(
    a: &Csr5Matrix<T, I>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) {
    check_spmm_shapes(a.rows(), a.cols(), b, k, c);
    c.clear();
    let c = DisjointSlice::new(c.as_mut_slice());
    // SAFETY: as in `coo_spmm`.
    unsafe { csr5_tiles(active_level(), a, b, k, 0..a.ntiles(), &c) };
}

// ---------------------------------------------------------------------------
// Range bodies. `c` is C's `a.rows() × k` buffer (row pitch `k`). The COO,
// CSR, ELL and BCSR bodies read B through a `ReadB`: B itself here and in
// `crate::parallel`, a pre-transposed B in `crate::transpose`, a fused B
// read in `crate::optimized::spmm_simd`.
//
// SAFETY contract (all): shapes passed `check_spmm_shapes` (or its
// transposed-B twin), and this call has exclusive access to every C row
// its range writes.
// ---------------------------------------------------------------------------

isa_twin! {
    #[runtime_width(k)]
    /// `C[r] += v · B[j]` over the COO entries in `entries`. Accumulates (the
    /// caller clears C); a C row is written by every entry of that row, so a
    /// parallel caller must cut `entries` at row boundaries.
    pub(crate) unsafe fn coo_entries<T: Scalar, I: Index, B: ReadB<T>>(
        a: &CooMatrix<T, I>,
        b: B,
        k: usize,
        entries: Range<usize>,
        c: &DisjointSlice<'_, T>,
    ) {
        let (rows, cols, vals) = (a.row_indices(), a.col_indices(), a.values());
        for e in entries {
            // SAFETY: exclusive row access per the contract above.
            let c_row = unsafe { c.slice_mut(rows[e].as_usize() * k, k) };
            b.axpy(c_row, vals[e], cols[e].as_usize(), k);
        }
    }

    #[runtime_width(k)]
    /// CSR rows `rows` of C, each zeroed then accumulated.
    pub(crate) unsafe fn csr_rows<T: Scalar, I: Index, B: ReadB<T>>(
        a: &CsrMatrix<T, I>,
        b: B,
        k: usize,
        rows: Range<usize>,
        c: &DisjointSlice<'_, T>,
    ) {
        for i in rows {
            // SAFETY: exclusive row access per the contract above.
            let c_row = unsafe { c.slice_mut(i * k, k) };
            c_row.fill(T::ZERO);
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                b.axpy(c_row, v, j.as_usize(), k);
            }
        }
    }

    #[runtime_width(k)]
    /// ELLPACK rows `rows` of C, each zeroed then accumulated.
    pub(crate) unsafe fn ell_rows<T: Scalar, I: Index, B: ReadB<T>>(
        a: &EllMatrix<T, I>,
        b: B,
        k: usize,
        rows: Range<usize>,
        c: &DisjointSlice<'_, T>,
    ) {
        for i in rows {
            // SAFETY: exclusive row access per the contract above.
            let c_row = unsafe { c.slice_mut(i * k, k) };
            c_row.fill(T::ZERO);
            for (&j, &v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
                b.axpy(c_row, v, j.as_usize(), k);
            }
        }
    }

    #[runtime_width(k)]
    /// The C rows of BCSR block rows `block_rows`, zeroed then accumulated
    /// block by block.
    pub(crate) unsafe fn bcsr_block_rows<T: Scalar, I: Index, B: ReadB<T>>(
        a: &BcsrMatrix<T, I>,
        b: B,
        k: usize,
        block_rows: Range<usize>,
        c: &DisjointSlice<'_, T>,
    ) {
        let (r, bc_w) = (a.block_r(), a.block_c());
        let (rows, cols) = (a.rows(), a.cols());
        for bi in block_rows {
            let row_lo = bi * r;
            let row_hi = (row_lo + r).min(rows);
            // SAFETY: exclusive row access per the contract above.
            unsafe { c.slice_mut(row_lo * k, (row_hi - row_lo) * k) }.fill(T::ZERO);
            for (bcol, block) in a.block_row(bi) {
                let col_lo = bcol * bc_w;
                for i in row_lo..row_hi {
                    let brow = &block[(i - row_lo) * bc_w..(i - row_lo + 1) * bc_w];
                    // SAFETY: as above.
                    let c_row = unsafe { c.slice_mut(i * k, k) };
                    for (lc, &v) in brow.iter().enumerate() {
                        let j = col_lo + lc;
                        // Ragged edge blocks may extend past the matrix; their
                        // out-of-range slots are zero but must not index B.
                        if j < cols && v != T::ZERO {
                            b.axpy(c_row, v, j, k);
                        }
                    }
                }
            }
        }
    }

    #[runtime_width(k)]
    /// The C rows of BELL strips `strips`, zeroed then accumulated slot by
    /// slot.
    pub(crate) unsafe fn bell_strips<T: Scalar, I: Index>(
        a: &BellMatrix<T, I>,
        b: &DenseMatrix<T>,
        k: usize,
        strips: Range<usize>,
        c: &DisjointSlice<'_, T>,
    ) {
        let (r, bc_w) = (a.block_r(), a.block_c());
        let (rows, cols) = (a.rows(), a.cols());
        for s in strips {
            let row_lo = s * r;
            let row_hi = (row_lo + r).min(rows);
            // SAFETY: exclusive row access per the contract above.
            unsafe { c.slice_mut(row_lo * k, (row_hi - row_lo) * k) }.fill(T::ZERO);
            for slot in 0..a.block_width() {
                let col_lo = a.slot_block_col(s, slot) * bc_w;
                let block = a.slot_values(s, slot);
                for i in row_lo..row_hi {
                    let brow = &block[(i - row_lo) * bc_w..(i - row_lo + 1) * bc_w];
                    // SAFETY: as above.
                    let c_row = unsafe { c.slice_mut(i * k, k) };
                    for (lc, &v) in brow.iter().enumerate() {
                        let j = col_lo + lc;
                        if j < cols && v != T::ZERO {
                            axpy(c_row, v, b.row(j), k);
                        }
                    }
                }
            }
        }
    }

    #[runtime_width(k)]
    /// CSR5 tiles `tiles`, accumulated straight into C (the caller clears
    /// it). Serial only: a row that straddles tiles is written by each of
    /// them, which [`crate::parallel::csr5_spmm`]'s carry body avoids.
    unsafe fn csr5_tiles<T: Scalar, I: Index>(
        a: &Csr5Matrix<T, I>,
        b: &DenseMatrix<T>,
        k: usize,
        tiles: Range<usize>,
        c: &DisjointSlice<'_, T>,
    ) {
        for t in tiles {
            let tile = a.tile(t);
            for (s, &(row, start)) in tile.segments.iter().enumerate() {
                let seg_lo = start.as_usize().max(tile.entry_lo);
                let seg_hi = match tile.segments.get(s + 1) {
                    Some(&(_, next)) => next.as_usize(),
                    None => tile.entry_hi,
                };
                // SAFETY: exclusive row access per the contract above.
                let c_row = unsafe { c.slice_mut(row.as_usize() * k, k) };
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
    use spmm_core::SparseMatrix;

    fn fixture() -> (CooMatrix<f64>, DenseMatrix<f64>) {
        let coo = CooMatrix::from_triplets(
            6,
            5,
            &[
                (0, 0, 1.0),
                (0, 4, 2.0),
                (1, 2, -3.0),
                (2, 0, 4.0),
                (2, 1, 5.0),
                (2, 2, 6.0),
                (2, 3, 7.0),
                (4, 4, 8.0),
                (5, 0, -9.0),
                (5, 4, 10.0),
            ],
        )
        .unwrap();
        let b = DenseMatrix::from_fn(5, 7, |i, j| ((i + 1) * (j + 2)) as f64 * 0.5);
        (coo, b)
    }

    fn reference(coo: &CooMatrix<f64>, b: &DenseMatrix<f64>, k: usize) -> DenseMatrix<f64> {
        coo.spmm_reference_k(b, k)
    }

    #[test]
    fn all_formats_match_reference_for_all_k() {
        let (coo, b) = fixture();
        let csr = CsrMatrix::from_coo(&coo);
        let ell = EllMatrix::from_coo(&coo).unwrap();
        let bcsr = BcsrMatrix::from_coo(&coo, 2).unwrap();
        let bell = BellMatrix::from_coo(&coo, 2).unwrap();
        let csr5 = Csr5Matrix::from_csr_with_tile(&csr, 3).unwrap();

        for k in [1, 2, 3, 7] {
            let expected = reference(&coo, &b, k);
            let mut c = DenseMatrix::zeros(6, k);

            coo_spmm(&coo, &b, k, &mut c);
            assert_eq!(c, expected, "coo k={k}");
            csr_spmm(&csr, &b, k, &mut c);
            assert_eq!(c, expected, "csr k={k}");
            ell_spmm(&ell, &b, k, &mut c);
            assert_eq!(c, expected, "ell k={k}");
            bcsr_spmm(&bcsr, &b, k, &mut c);
            assert_eq!(c, expected, "bcsr k={k}");
            bell_spmm(&bell, &b, k, &mut c);
            assert_eq!(c, expected, "bell k={k}");
            csr5_spmm(&csr5, &b, k, &mut c);
            assert_eq!(c, expected, "csr5 k={k}");
        }
    }

    #[test]
    fn kernels_overwrite_stale_c() {
        let (coo, b) = fixture();
        let csr = CsrMatrix::from_coo(&coo);
        let expected = reference(&coo, &b, 4);
        let mut c = DenseMatrix::from_fn(6, 4, |_, _| 99.0);
        csr_spmm(&csr, &b, 4, &mut c);
        assert_eq!(c, expected);
        let mut c = DenseMatrix::from_fn(6, 4, |_, _| -5.0);
        coo_spmm(&coo, &b, 4, &mut c);
        assert_eq!(c, expected);
    }

    #[test]
    fn bcsr_many_block_sizes() {
        let (coo, b) = fixture();
        let expected = reference(&coo, &b, 5);
        for bs in [1, 2, 3, 4, 6, 10] {
            let bcsr = BcsrMatrix::from_coo(&coo, bs).unwrap();
            let mut c = DenseMatrix::zeros(6, 5);
            bcsr_spmm(&bcsr, &b, 5, &mut c);
            assert_eq!(c, expected, "block size {bs}");
        }
    }

    #[test]
    fn csr5_many_tile_sizes() {
        let (coo, b) = fixture();
        let csr = CsrMatrix::from_coo(&coo);
        let expected = reference(&coo, &b, 5);
        for ts in [1, 2, 4, 8, 64] {
            let m = Csr5Matrix::from_csr_with_tile(&csr, ts).unwrap();
            let mut c = DenseMatrix::zeros(6, 5);
            csr5_spmm(&m, &b, 5, &mut c);
            assert_eq!(c, expected, "tile size {ts}");
        }
    }

    #[test]
    fn empty_matrix_yields_zero_c() {
        let coo = CooMatrix::<f64>::new(4, 4);
        let b = DenseMatrix::from_fn(4, 3, |_, _| 1.0);
        let mut c = DenseMatrix::from_fn(4, 3, |_, _| 7.0);
        csr_spmm(&CsrMatrix::from_coo(&coo), &b, 3, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn f32_kernels_work() {
        let coo: CooMatrix<f32, u32> =
            CooMatrix::from_triplets(3, 3, &[(0, 0, 1.5f32), (1, 2, 2.5), (2, 1, -0.5)]).unwrap();
        let b = DenseMatrix::from_fn(3, 2, |i, j| (i + j) as f32);
        let expected = coo.spmm_reference(&b);
        let mut c = DenseMatrix::zeros(3, 2);
        csr_spmm(&CsrMatrix::from_coo(&coo), &b, 2, &mut c);
        assert_eq!(c, expected);
    }

    #[test]
    fn ragged_edge_blocks_do_not_touch_out_of_range_b_rows() {
        // 5-row/col matrix with 4x4 blocks: block 1 spans cols 4..8 but B
        // only has 5 rows; the kernel must not read b.row(5..8).
        let coo = CooMatrix::<f64>::from_triplets(5, 5, &[(4, 4, 2.0), (0, 0, 1.0)]).unwrap();
        let bcsr = BcsrMatrix::from_coo(&coo, 4).unwrap();
        assert!(bcsr.stored_entries() > coo.nnz());
        let b = DenseMatrix::from_fn(5, 2, |i, _| i as f64);
        let mut c = DenseMatrix::zeros(5, 2);
        bcsr_spmm(&bcsr, &b, 2, &mut c);
        assert_eq!(c, coo.spmm_reference(&b));
    }
}

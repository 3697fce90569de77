//! SELL-C-σ: sliced ELLPACK with local row sorting.
//!
//! The format of Anzt, Tomov & Dongarra's SELL-C/SELL-C-σ work — citation
//! [13] of the paper and the natural next step after ELLPACK on its
//! "additional formats" list. The matrix is cut into slices of `C` rows;
//! each slice is ELL-padded only to its *own* widest row, and rows are
//! sorted by length within windows of `σ` rows first, so long rows share
//! slices with long rows and the padding collapses. With `C = rows`,
//! `σ = 1` it degenerates to plain ELLPACK; with σ large it approaches
//! CSR's compactness while keeping ELL's regular slice kernels.

use crate::{CooMatrix, CsrMatrix, Index, Scalar, SparseError, SparseFormat, SparseMatrix};

/// A sparse matrix in SELL-C-σ format.
#[derive(Debug, Clone, PartialEq)]
pub struct SellMatrix<T, I = usize> {
    rows: usize,
    cols: usize,
    /// Slice height (rows per slice).
    c: usize,
    /// Sorting window (rows sorted by degree within each σ-window).
    sigma: usize,
    /// `perm[p]` = original row stored at padded position `p`.
    perm: Vec<I>,
    /// Per-slice start offset into `col_idx`/`values` (`nslices + 1`).
    slice_ptr: Vec<I>,
    /// Per-slice width (widest row of the slice).
    slice_width: Vec<I>,
    /// Column indices, slice-major: within a slice, slot-major then
    /// row-major (`slice_ptr[s] + slot * c + lane`), the layout that
    /// coalesces on SIMD/SIMT lanes.
    col_idx: Vec<I>,
    /// Values, same layout; padding slots are zero.
    values: Vec<T>,
    nnz: usize,
}

impl<T: Scalar, I: Index> SellMatrix<T, I> {
    /// Build from CSR with slice height `c` and sorting window `sigma`.
    pub fn from_csr(csr: &CsrMatrix<T, I>, c: usize, sigma: usize) -> Result<Self, SparseError> {
        if c == 0 || sigma == 0 {
            return Err(SparseError::Parse("SELL-C-σ needs c ≥ 1 and σ ≥ 1".into()));
        }
        let rows = csr.rows();
        let cols = csr.cols();

        // Sort rows by descending degree within each σ-window.
        let mut perm: Vec<usize> = (0..rows).collect();
        for window in perm.chunks_mut(sigma) {
            window.sort_by_key(|&r| std::cmp::Reverse(csr.row_nnz(r)));
        }

        let nslices = rows.div_ceil(c);
        let mut slice_ptr = Vec::with_capacity(nslices + 1);
        let mut slice_width = Vec::with_capacity(nslices);
        slice_ptr.push(I::from_usize(0));
        let mut total = 0usize;
        for s in 0..nslices {
            let lo = s * c;
            let hi = (lo + c).min(rows);
            let width = (lo..hi).map(|p| csr.row_nnz(perm[p])).max().unwrap_or(0);
            slice_width.push(I::from_usize(width));
            total += width * c;
            slice_ptr.push(I::from_usize(total));
        }

        let mut col_idx = vec![I::default(); total];
        let mut values = vec![T::ZERO; total];
        for s in 0..nslices {
            let base = slice_ptr[s].as_usize();
            let width = slice_width[s].as_usize();
            for lane in 0..c {
                let p = s * c + lane;
                if p >= rows {
                    // Ghost lanes of the ragged last slice: keep zero
                    // values and a safe column index.
                    for slot in 0..width {
                        col_idx[base + slot * c + lane] = I::from_usize(0);
                    }
                    continue;
                }
                let (rcols, rvals) = csr.row(perm[p]);
                let pad_col = rcols.last().map(|ci| ci.as_usize()).unwrap_or(0);
                for slot in 0..width {
                    let at = base + slot * c + lane;
                    if slot < rcols.len() {
                        col_idx[at] = rcols[slot];
                        values[at] = rvals[slot];
                    } else {
                        col_idx[at] = I::from_usize(pad_col);
                    }
                }
            }
        }

        Ok(SellMatrix {
            rows,
            cols,
            c,
            sigma,
            perm: perm.into_iter().map(I::from_usize).collect(),
            slice_ptr,
            slice_width,
            col_idx,
            values,
            nnz: csr.nnz(),
        })
    }

    /// Build from COO, routed through the conversion graph's CSR hub.
    pub fn from_coo(coo: &CooMatrix<T, I>, c: usize, sigma: usize) -> Result<Self, SparseError> {
        crate::ConversionGraph::shared()
            .convert_coo(
                coo,
                SparseFormat::Sell,
                &crate::ConvertConfig::with_sell(c, sigma),
            )?
            .matrix
            .into_sell()
    }

    /// Build with the slice height matched to a SIMD lane count (Kreutzer
    /// et al.'s rule: the SELL-C-σ win only materializes when C equals the
    /// hardware vector width). `lanes = 0` is treated as 1. The resulting
    /// slices are exactly the padded views [`slice_cols`](Self::slice_cols)
    /// / [`slice_vals`](Self::slice_vals) hand to the vector kernels: one
    /// contiguous load of `lanes` values per slot.
    pub fn with_lane_width(
        csr: &CsrMatrix<T, I>,
        lanes: usize,
        sigma: usize,
    ) -> Result<Self, SparseError> {
        Self::from_csr(csr, lanes.max(1), sigma)
    }

    /// The column indices of slice `s`: `width_of(s) * slice_height()`
    /// entries, slot-major (`slot * c + lane`). Ghost lanes hold column 0.
    #[inline(always)]
    pub fn slice_cols(&self, s: usize) -> &[I] {
        let (base, width) = self.slice(s);
        &self.col_idx[base..base + width * self.c]
    }

    /// The values of slice `s`, same layout as
    /// [`slice_cols`](Self::slice_cols); padding and ghost-lane slots hold
    /// exact zeros.
    #[inline(always)]
    pub fn slice_vals(&self, s: usize) -> &[T] {
        let (base, width) = self.slice(s);
        &self.values[base..base + width * self.c]
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Slice height `C`.
    #[inline(always)]
    pub fn slice_height(&self) -> usize {
        self.c
    }

    /// Sorting window `σ`.
    #[inline(always)]
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Number of slices.
    #[inline(always)]
    pub fn nslices(&self) -> usize {
        self.slice_width.len()
    }

    /// Real nonzero count.
    #[inline(always)]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Padded slot count.
    #[inline(always)]
    pub fn padded_len(&self) -> usize {
        self.values.len()
    }

    /// The original row stored at padded position `p`.
    #[inline(always)]
    pub fn row_at(&self, p: usize) -> usize {
        self.perm[p].as_usize()
    }

    /// Width of slice `s`.
    #[inline(always)]
    pub fn width_of(&self, s: usize) -> usize {
        self.slice_width[s].as_usize()
    }

    /// Raw slice data: `(base offset, width)`.
    #[inline(always)]
    pub fn slice(&self, s: usize) -> (usize, usize) {
        (self.slice_ptr[s].as_usize(), self.width_of(s))
    }

    /// Column index array.
    #[inline(always)]
    pub fn col_idx(&self) -> &[I] {
        &self.col_idx
    }

    /// Value array.
    #[inline(always)]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Fraction of slots that are padding. Larger σ should never increase
    /// this (sorting can only tighten slices).
    pub fn padding_fraction(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        1.0 - self.nnz as f64 / self.values.len() as f64
    }
}

impl<T: Scalar, I: Index> SparseMatrix<T> for SellMatrix<T, I> {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn stored_entries(&self) -> usize {
        self.padded_len()
    }

    fn format(&self) -> SparseFormat {
        SparseFormat::Sell
    }

    fn to_coo(&self) -> CooMatrix<T, usize> {
        let mut coo = CooMatrix::new(self.rows, self.cols);
        for s in 0..self.nslices() {
            let (base, width) = self.slice(s);
            for lane in 0..self.c {
                let p = s * self.c + lane;
                if p >= self.rows {
                    continue;
                }
                let row = self.row_at(p);
                for slot in 0..width {
                    let at = base + slot * self.c + lane;
                    let v = self.values[at];
                    if v != T::ZERO {
                        coo.push(row, self.col_idx[at].as_usize(), v)
                            .expect("SELL indices are in bounds");
                    }
                }
            }
        }
        coo.sort_and_sum_duplicates();
        coo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed() -> CooMatrix<f64> {
        // Rows of very different lengths so σ matters.
        let mut trips = Vec::new();
        for i in 0..16usize {
            let deg = if i % 4 == 0 { 8 } else { 1 + i % 3 };
            for d in 0..deg {
                trips.push((i, (i + d * 3) % 16, (i * 10 + d) as f64 + 1.0));
            }
        }
        CooMatrix::from_triplets(16, 16, &trips).unwrap()
    }

    #[test]
    fn roundtrip_various_c_sigma() {
        let coo = skewed();
        for c in [1usize, 2, 4, 5, 16] {
            for sigma in [1usize, 4, 16] {
                let sell = SellMatrix::from_coo(&coo, c, sigma).unwrap();
                assert_eq!(sell.to_dense(), coo.to_dense(), "C={c} σ={sigma}");
                assert_eq!(sell.nnz(), coo.nnz());
            }
        }
    }

    #[test]
    fn sigma_one_c_rows_equals_ell_padding() {
        // One slice spanning everything + no sorting = plain ELLPACK.
        let coo = skewed();
        let sell = SellMatrix::from_coo(&coo, 16, 1).unwrap();
        let ell = crate::EllMatrix::from_coo(&coo).unwrap();
        assert_eq!(sell.padded_len(), ell.padded_len());
    }

    #[test]
    fn sorting_reduces_padding() {
        let coo = skewed();
        let unsorted = SellMatrix::from_coo(&coo, 4, 1).unwrap();
        let sorted = SellMatrix::from_coo(&coo, 4, 16).unwrap();
        assert!(
            sorted.padded_len() <= unsorted.padded_len(),
            "σ=16 {} vs σ=1 {}",
            sorted.padded_len(),
            unsorted.padded_len()
        );
        // And for this skewed fixture, strictly so.
        assert!(sorted.padding_fraction() < unsorted.padding_fraction());
    }

    #[test]
    fn permutation_is_a_bijection() {
        let sell = SellMatrix::from_coo(&skewed(), 4, 8).unwrap();
        let mut seen = [false; 16];
        for p in 0..16 {
            let r = sell.row_at(p);
            assert!(!seen[r], "row {r} appears twice");
            seen[r] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn ragged_last_slice() {
        // 10 rows with C = 4: last slice has 2 ghost lanes.
        let coo = CooMatrix::<f64>::from_triplets(
            10,
            10,
            &(0..10).map(|i| (i, i, i as f64 + 1.0)).collect::<Vec<_>>(),
        )
        .unwrap();
        let sell = SellMatrix::from_coo(&coo, 4, 4).unwrap();
        assert_eq!(sell.nslices(), 3);
        assert_eq!(sell.to_dense(), coo.to_dense());
    }

    #[test]
    fn lane_width_constructor_and_slice_views() {
        let coo = skewed();
        let csr = CsrMatrix::from_coo(&coo);
        for lanes in [0usize, 1, 2, 4, 8] {
            let sell = SellMatrix::with_lane_width(&csr, lanes, 8).unwrap();
            assert_eq!(sell.slice_height(), lanes.max(1));
            let mut total = 0usize;
            for s in 0..sell.nslices() {
                let cols = sell.slice_cols(s);
                let vals = sell.slice_vals(s);
                assert_eq!(cols.len(), sell.width_of(s) * sell.slice_height());
                assert_eq!(vals.len(), cols.len());
                let (base, _) = sell.slice(s);
                assert_eq!(base, total, "slices are contiguous");
                total += vals.len();
                // Every view entry matches the flat arrays.
                assert_eq!(cols, &sell.col_idx()[base..base + cols.len()]);
                assert_eq!(vals, &sell.values()[base..base + vals.len()]);
            }
            assert_eq!(total, sell.padded_len());
            assert_eq!(sell.to_dense(), coo.to_dense(), "lanes={lanes}");
        }
    }

    #[test]
    fn ghost_lane_slots_are_zero_with_column_zero() {
        // 10 rows, C = 4 → 2 ghost lanes in the last slice.
        let coo = CooMatrix::<f64>::from_triplets(
            10,
            10,
            &(0..10).map(|i| (i, i, i as f64 + 1.0)).collect::<Vec<_>>(),
        )
        .unwrap();
        let sell = SellMatrix::with_lane_width(&CsrMatrix::from_coo(&coo), 4, 4).unwrap();
        let s = sell.nslices() - 1;
        let (cols, vals) = (sell.slice_cols(s), sell.slice_vals(s));
        let c = sell.slice_height();
        for slot in 0..sell.width_of(s) {
            for lane in 0..c {
                if s * c + lane >= sell.rows() {
                    assert_eq!(cols[slot * c + lane].as_usize(), 0);
                    assert_eq!(vals[slot * c + lane], 0.0);
                }
            }
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        let coo = skewed();
        assert!(SellMatrix::from_coo(&coo, 0, 1).is_err());
        assert!(SellMatrix::from_coo(&coo, 4, 0).is_err());
    }

    #[test]
    fn empty_matrix() {
        let coo = CooMatrix::<f64>::new(5, 5);
        let sell = SellMatrix::from_coo(&coo, 2, 4).unwrap();
        assert_eq!(sell.padded_len(), 0);
        assert_eq!(sell.to_dense(), coo.to_dense());
    }
}

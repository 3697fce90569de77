//! ELLPACK (ELL): fixed-width padded rows.

use crate::{CooMatrix, CsrMatrix, Index, Scalar, SparseError, SparseFormat, SparseMatrix};

/// A sparse matrix in ELLPACK format.
///
/// Every row stores exactly `width` slots, where `width` is the nonzero
/// count of the fullest row (or a caller-chosen value at least that large).
/// Shorter rows are padded with explicit zeros whose column index repeats
/// the row's last real column, keeping the padding spatially close to the
/// data as the paper's formatter does (§2.1, §4.2). The regular shape is
/// what makes ELL trivially vectorizable — and what makes it collapse on
/// matrices with one overfull row (the paper's `torso1`, column ratio 44).
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix<T, I = usize> {
    rows: usize,
    cols: usize,
    width: usize,
    /// `rows * width` column indices, row-major (`row * width + slot`).
    col_idx: Vec<I>,
    /// `rows * width` values, row-major; padding slots hold zero.
    values: Vec<T>,
    /// Real (unpadded) nonzero count.
    nnz: usize,
}

impl<T: Scalar, I: Index> EllMatrix<T, I> {
    /// Build from CSR with `width` equal to the fullest row. The natural
    /// width always fits, so this constructor cannot fail.
    pub fn from_csr(csr: &CsrMatrix<T, I>) -> Self {
        let width = (0..csr.rows()).map(|i| csr.row_nnz(i)).max().unwrap_or(0);
        Self::build(csr, width)
    }

    /// Build from CSR with an explicit `width >= max_row_nnz`.
    pub fn from_csr_with_width(csr: &CsrMatrix<T, I>, width: usize) -> Result<Self, SparseError> {
        let max_nnz = (0..csr.rows()).map(|i| csr.row_nnz(i)).max().unwrap_or(0);
        if width < max_nnz {
            return Err(SparseError::ShapeMismatch {
                detail: format!("ELL width {width} is below the fullest row ({max_nnz})"),
            });
        }
        Ok(Self::build(csr, width))
    }

    /// Shared body: each row keeps its first `min(row_nnz, width)` entries,
    /// so a `width` below the fullest row truncates (HYB spills the rest to
    /// its tail) and a covering `width` copies the CSR exactly.
    pub(crate) fn build(csr: &CsrMatrix<T, I>, width: usize) -> Self {
        let rows = csr.rows();
        let cols = csr.cols();
        let mut col_idx = vec![I::default(); rows * width];
        let mut values = vec![T::ZERO; rows * width];
        let mut nnz = 0;
        for i in 0..rows {
            let (rcols, rvals) = csr.row(i);
            let kept = rcols.len().min(width);
            let (rcols, rvals) = (&rcols[..kept], &rvals[..kept]);
            let base = i * width;
            col_idx[base..base + kept].copy_from_slice(rcols);
            values[base..base + kept].copy_from_slice(rvals);
            // Pad with the last real column of the row (or a clamped
            // diagonal position for empty rows) so padded loads stay local.
            let pad_col = rcols
                .last()
                .map(|c| c.as_usize())
                .unwrap_or_else(|| i.min(cols.saturating_sub(1)));
            col_idx[base + kept..base + width].fill(I::from_usize(pad_col));
            nnz += kept;
        }
        EllMatrix {
            rows,
            cols,
            width,
            col_idx,
            values,
            nnz,
        }
    }

    /// Build from COO, routed through the conversion graph's CSR hub.
    pub fn from_coo(coo: &CooMatrix<T, I>) -> Result<Self, SparseError> {
        crate::ConversionGraph::shared()
            .convert_coo(coo, SparseFormat::Ell, &crate::ConvertConfig::default())?
            .matrix
            .into_ell()
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the logical matrix.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Slots per row (the fullest row's nonzero count).
    #[inline(always)]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Real nonzero count (excludes padding).
    #[inline(always)]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Padded slot count `rows * width`.
    #[inline(always)]
    pub fn padded_len(&self) -> usize {
        self.rows * self.width
    }

    /// Column-index slots of row `i`.
    #[inline(always)]
    pub fn row_cols(&self, i: usize) -> &[I] {
        &self.col_idx[i * self.width..(i + 1) * self.width]
    }

    /// Value slots of row `i` (padding slots are zero).
    #[inline(always)]
    pub fn row_vals(&self, i: usize) -> &[T] {
        &self.values[i * self.width..(i + 1) * self.width]
    }

    /// Full column-index array.
    #[inline(always)]
    pub fn col_idx(&self) -> &[I] {
        &self.col_idx
    }

    /// Full value array.
    #[inline(always)]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Fraction of slots that are padding (0.0 = perfectly regular matrix).
    pub fn padding_fraction(&self) -> f64 {
        if self.padded_len() == 0 {
            return 0.0;
        }
        1.0 - self.nnz as f64 / self.padded_len() as f64
    }
}

impl<T: Scalar, I: Index> SparseMatrix<T> for EllMatrix<T, I> {
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
        SparseFormat::Ell
    }

    fn to_coo(&self) -> CooMatrix<T, usize> {
        // Padding entries are zero-valued duplicates of a real coordinate;
        // drop them rather than emit duplicate coordinates.
        let mut coo = CooMatrix::new(self.rows, self.cols);
        for i in 0..self.rows {
            for (&c, &v) in self.row_cols(i).iter().zip(self.row_vals(i)) {
                if v != T::ZERO {
                    coo.push(i, c.as_usize(), v)
                        .expect("ELL indices are in bounds");
                }
            }
        }
        coo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix<f64> {
        CooMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 1, 2.0),
                (0, 3, 3.0),
                (1, 2, 4.0),
                (3, 0, 5.0),
                (3, 3, 6.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn width_is_fullest_row() {
        let ell = EllMatrix::from_coo(&sample()).unwrap();
        assert_eq!(ell.width(), 3);
        assert_eq!(ell.padded_len(), 12);
        assert_eq!(ell.nnz(), 6);
    }

    #[test]
    fn padding_repeats_last_column() {
        let ell = EllMatrix::from_coo(&sample()).unwrap();
        // Row 1 has one entry at column 2; the two pad slots repeat column 2.
        let cols: Vec<usize> = ell.row_cols(1).iter().map(|c| c.as_usize()).collect();
        assert_eq!(cols, vec![2, 2, 2]);
        assert_eq!(ell.row_vals(1), &[4.0, 0.0, 0.0]);
        // Row 2 is empty; pads point at the (clamped) diagonal.
        let cols: Vec<usize> = ell.row_cols(2).iter().map(|c| c.as_usize()).collect();
        assert_eq!(cols, vec![2, 2, 2]);
    }

    #[test]
    fn dense_roundtrip_ignores_padding() {
        let coo = sample();
        let ell = EllMatrix::from_coo(&coo).unwrap();
        assert_eq!(ell.to_dense(), coo.to_dense());
        assert_eq!(ell.to_coo(), coo.to_coo());
    }

    #[test]
    fn explicit_width_must_cover_fullest_row() {
        let csr = CsrMatrix::from_coo(&sample());
        assert!(EllMatrix::from_csr_with_width(&csr, 2).is_err());
        let wide = EllMatrix::from_csr_with_width(&csr, 5).unwrap();
        assert_eq!(wide.width(), 5);
        assert_eq!(wide.to_dense(), sample().to_dense());
    }

    #[test]
    fn padding_fraction() {
        let ell = EllMatrix::from_coo(&sample()).unwrap();
        assert!((ell.padding_fraction() - 0.5).abs() < 1e-12);

        // A perfectly regular matrix has zero padding.
        let reg = CooMatrix::<f64>::from_triplets(
            2,
            2,
            &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)],
        )
        .unwrap();
        assert_eq!(EllMatrix::from_coo(&reg).unwrap().padding_fraction(), 0.0);
    }

    #[test]
    fn empty_matrix() {
        let coo = CooMatrix::<f64>::new(3, 3);
        let ell = EllMatrix::from_coo(&coo).unwrap();
        assert_eq!(ell.width(), 0);
        assert_eq!(ell.padded_len(), 0);
        assert_eq!(ell.padding_fraction(), 0.0);
    }
}

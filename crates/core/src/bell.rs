//! Blocked-ELLPACK (BELL): ELL padding applied to dense blocks.

use crate::bcsr::BlockSlots;
use crate::{CooMatrix, CsrMatrix, Index, Scalar, SparseError, SparseFormat, SparseMatrix};

/// A sparse matrix in Blocked-ELLPACK format.
///
/// The paper describes BELL as "halfway between ELL and BCSR" (§2.2): rows
/// are grouped into `r`-row strips, each strip's nonzeros are covered by
/// `r × c` dense blocks as in BCSR, and then every strip is padded to the
/// same number of blocks (the widest strip), as in ELL. The thesis's own
/// BELL draft was shelved (§6.3.1); this is that future-work format.
#[derive(Debug, Clone, PartialEq)]
pub struct BellMatrix<T, I = usize> {
    rows: usize,
    cols: usize,
    r: usize,
    c: usize,
    /// Blocks per strip after padding (the widest strip's block count).
    block_width: usize,
    /// `strips * block_width` block-column indices, strip-major.
    block_col_idx: Vec<I>,
    /// `strips * block_width * r * c` values; padding blocks are all-zero.
    values: Vec<T>,
    nnz: usize,
}

impl<T: Scalar, I: Index> BellMatrix<T, I> {
    /// Build from CSR with square `b × b` blocks.
    pub fn from_csr(csr: &CsrMatrix<T, I>, b: usize) -> Result<Self, SparseError> {
        Self::from_csr_rect(csr, b, b)
    }

    /// Build from CSR with rectangular `r × c` blocks.
    pub fn from_csr_rect(csr: &CsrMatrix<T, I>, r: usize, c: usize) -> Result<Self, SparseError> {
        if r == 0 || c == 0 {
            return Err(SparseError::InvalidBlockSize { r, c });
        }
        let (rows, cols) = (csr.rows(), csr.cols());
        let strips = rows.div_ceil(r);
        let block_cols = cols.div_ceil(c);
        let mut slots = BlockSlots::new(csr, r, c);

        // Pass 1: each strip's occupied block columns, CSR-style; the
        // widest strip fixes the padded layout before any value is stored.
        let mut strip_ptr = Vec::with_capacity(strips + 1);
        strip_ptr.push(0);
        let mut occupied: Vec<I> = Vec::new();
        for s in 0..strips {
            occupied.extend(slots.occupied(s).iter().map(|&bc| I::from_usize(bc)));
            strip_ptr.push(occupied.len());
        }
        let block_width = strip_ptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);

        // Pass 2: copy each strip's block columns into its padded slots and
        // scatter its values; both outputs are allocated once. `values` is
        // zeroed in one allocation rather than strip by strip, so padding
        // blocks (most of the array on a skewed matrix) are never written.
        let area = r * c;
        let mut block_col_idx = Vec::with_capacity(strips * block_width);
        let mut values = vec![T::ZERO; strips * block_width * area];
        for s in 0..strips {
            let occ = &occupied[strip_ptr[s]..strip_ptr[s + 1]];
            // ELL-style locality padding: repeat the strip's last real block
            // column (or the clamped diagonal block for empty strips).
            let pad = occ
                .last()
                .copied()
                .unwrap_or_else(|| I::from_usize(s.min(block_cols.saturating_sub(1))));
            block_col_idx.extend_from_slice(occ);
            block_col_idx.resize((s + 1) * block_width, pad);
            slots.scatter(s, occ, &mut values[s * block_width * area..]);
        }

        Ok(BellMatrix {
            rows,
            cols,
            r,
            c,
            block_width,
            block_col_idx,
            values,
            nnz: csr.nnz(),
        })
    }

    /// Build from COO, routed through the conversion graph's CSR hub.
    pub fn from_coo(coo: &CooMatrix<T, I>, b: usize) -> Result<Self, SparseError> {
        crate::ConversionGraph::shared()
            .convert_coo(
                coo,
                SparseFormat::Bell,
                &crate::ConvertConfig::with_block(b),
            )?
            .matrix
            .into_bell()
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

    /// Block height.
    #[inline(always)]
    pub fn block_r(&self) -> usize {
        self.r
    }

    /// Block width.
    #[inline(always)]
    pub fn block_c(&self) -> usize {
        self.c
    }

    /// Number of row strips.
    #[inline(always)]
    pub fn strips(&self) -> usize {
        self.rows.div_ceil(self.r)
    }

    /// Blocks per strip after ELL padding.
    #[inline(always)]
    pub fn block_width(&self) -> usize {
        self.block_width
    }

    /// Real nonzero count.
    #[inline(always)]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Block-column index array (strip-major).
    #[inline(always)]
    pub fn block_col_idx(&self) -> &[I] {
        &self.block_col_idx
    }

    /// Value array.
    #[inline(always)]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The block-column index of slot `slot` in strip `s`.
    #[inline(always)]
    pub fn slot_block_col(&self, s: usize, slot: usize) -> usize {
        self.block_col_idx[s * self.block_width + slot].as_usize()
    }

    /// The dense values of slot `slot` in strip `s`, row-major.
    #[inline(always)]
    pub fn slot_values(&self, s: usize, slot: usize) -> &[T] {
        let area = self.r * self.c;
        let idx = s * self.block_width + slot;
        &self.values[idx * area..(idx + 1) * area]
    }

    /// Fraction of stored value slots that hold real nonzeros.
    pub fn fill_ratio(&self) -> f64 {
        if self.values.is_empty() {
            return 1.0;
        }
        self.nnz as f64 / self.values.len() as f64
    }
}

impl<T: Scalar, I: Index> SparseMatrix<T> for BellMatrix<T, I> {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn stored_entries(&self) -> usize {
        self.values.len()
    }

    fn format(&self) -> SparseFormat {
        SparseFormat::Bell
    }

    fn to_coo(&self) -> CooMatrix<T, usize> {
        let mut coo = CooMatrix::new(self.rows, self.cols);
        for s in 0..self.strips() {
            for slot in 0..self.block_width {
                let bc = self.slot_block_col(s, slot);
                let block = self.slot_values(s, slot);
                for lr in 0..self.r {
                    let row = s * self.r + lr;
                    if row >= self.rows {
                        break;
                    }
                    for lc in 0..self.c {
                        let col = bc * self.c + lc;
                        let v = block[lr * self.c + lc];
                        if col < self.cols && v != T::ZERO {
                            coo.push(row, col, v).expect("BELL indices are in bounds");
                        }
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

    fn sample() -> CooMatrix<f64> {
        CooMatrix::from_triplets(
            6,
            6,
            &[
                (0, 0, 1.0),
                (0, 5, 2.0),
                (1, 1, 3.0),
                (2, 2, 4.0),
                (3, 3, 5.0),
                (4, 0, 6.0),
                (4, 2, 7.0),
                (4, 4, 8.0),
                (5, 5, 9.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_all_block_sizes() {
        for b in [1, 2, 3, 4, 6] {
            let coo = sample();
            let bell = BellMatrix::from_coo(&coo, b).unwrap();
            assert_eq!(bell.to_dense(), coo.to_dense(), "block size {b}");
            assert_eq!(bell.nnz(), coo.nnz());
        }
    }

    #[test]
    fn every_strip_has_block_width_slots() {
        let bell = BellMatrix::from_coo(&sample(), 2).unwrap();
        // Strip 2 (rows 4-5) touches block cols 0, 1, 2 -> width is 3.
        assert_eq!(bell.block_width(), 3);
        assert_eq!(bell.block_col_idx().len(), bell.strips() * 3);
    }

    #[test]
    fn padding_blocks_are_zero_valued() {
        let bell = BellMatrix::from_coo(&sample(), 2).unwrap();
        // Strip 1 (rows 2-3) occupies only block col 1; slots 1 and 2 are
        // padding and must be all-zero.
        assert!(bell.slot_values(1, 1).iter().all(|&v| v == 0.0));
        assert!(bell.slot_values(1, 2).iter().all(|&v| v == 0.0));
        // Padding repeats the last real block column.
        assert_eq!(bell.slot_block_col(1, 1), bell.slot_block_col(1, 0));
    }

    #[test]
    fn fill_ratio_bounded() {
        let bell = BellMatrix::from_coo(&sample(), 2).unwrap();
        assert!(bell.fill_ratio() > 0.0 && bell.fill_ratio() <= 1.0);
        let bcsr_like = BellMatrix::from_coo(&sample(), 1).unwrap();
        // 1x1 BELL still pads strips to equal width, so fill can be < 1.
        assert!(bcsr_like.fill_ratio() <= 1.0);
    }

    #[test]
    fn zero_block_size_rejected() {
        let csr = CsrMatrix::from_coo(&sample());
        assert!(BellMatrix::from_csr(&csr, 0).is_err());
    }

    #[test]
    fn rectangular_blocks_roundtrip() {
        let coo = sample();
        let bell = BellMatrix::from_csr_rect(&CsrMatrix::from_coo(&coo), 3, 2).unwrap();
        assert_eq!(bell.to_dense(), coo.to_dense());
    }

    #[test]
    fn empty_matrix() {
        let coo = CooMatrix::<f64>::new(4, 4);
        let bell = BellMatrix::from_coo(&coo, 2).unwrap();
        assert_eq!(bell.block_width(), 0);
        assert_eq!(bell.nnz(), 0);
        assert_eq!(bell.to_dense(), coo.to_dense());
    }
}

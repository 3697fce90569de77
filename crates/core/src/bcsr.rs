//! Blocked compressed sparse row (BCSR).

use std::io::{Read, Write};
use std::ops::Range;

use crate::{CooMatrix, CsrMatrix, Index, Scalar, SparseError, SparseFormat, SparseMatrix};

/// A sparse matrix in BCSR format: CSR over dense `r × c` blocks.
///
/// Any block of the `r × c` grid containing at least one nonzero is stored
/// densely (missing positions hold explicit zeros), and the blocks of each
/// block-row are indexed CSR-style. Block size is the format's tuning knob —
/// the paper's Study 5 sweeps it (2, 4, 16) and finds smaller blocks usually
/// win because fill-in grows with block area.
///
/// The thesis's original formatter took ~40 hours for its 14-matrix suite
/// (§6.3.2); this implementation replaces it with a two-pass scatter build
/// that runs in `O(nnz + blocks)` and supports the same save/load cache the
/// thesis shipped as an interim workaround.
#[derive(Debug, Clone, PartialEq)]
pub struct BcsrMatrix<T, I = usize> {
    rows: usize,
    cols: usize,
    /// Block height.
    r: usize,
    /// Block width.
    c: usize,
    /// `ceil(rows / r) + 1` pointers into `col_idx`, per block-row.
    row_ptr: Vec<I>,
    /// Block-column index of each stored block.
    col_idx: Vec<I>,
    /// `nblocks * r * c` values, blocks in row-ptr order, row-major inside
    /// each block.
    values: Vec<T>,
    /// Real (unpadded) nonzero count.
    nnz: usize,
}

impl<T: Scalar, I: Index> BcsrMatrix<T, I> {
    /// Build from CSR with square `b × b` blocks (the suite's `-b` flag).
    pub fn from_csr(csr: &CsrMatrix<T, I>, b: usize) -> Result<Self, SparseError> {
        Self::from_csr_rect(csr, b, b)
    }

    /// Build from CSR with rectangular `r × c` blocks.
    pub fn from_csr_rect(csr: &CsrMatrix<T, I>, r: usize, c: usize) -> Result<Self, SparseError> {
        if r == 0 || c == 0 {
            return Err(SparseError::InvalidBlockSize { r, c });
        }
        let (rows, cols) = (csr.rows(), csr.cols());
        let block_rows = rows.div_ceil(r);
        let mut slots = BlockSlots::new(csr, r, c);

        // Pass 1: each block-row's occupied block columns, which fixes the
        // block count before any value is stored.
        let mut row_ptr = Vec::with_capacity(block_rows + 1);
        row_ptr.push(I::from_usize(0));
        let mut col_idx: Vec<I> = Vec::new();
        for bi in 0..block_rows {
            col_idx.extend(slots.occupied(bi).iter().map(|&bc| I::from_usize(bc)));
            row_ptr.push(I::from_usize(col_idx.len()));
        }

        // Pass 2: scatter each block-row into `values`, allocated once.
        // Zeroing a block-row just before its scatter keeps it in cache.
        let area = r * c;
        let mut values = Vec::with_capacity(col_idx.len() * area);
        for bi in 0..block_rows {
            let (lo, hi) = (row_ptr[bi].as_usize(), row_ptr[bi + 1].as_usize());
            values.resize(hi * area, T::ZERO);
            slots.scatter(bi, &col_idx[lo..hi], &mut values[lo * area..]);
        }

        Ok(BcsrMatrix {
            rows,
            cols,
            r,
            c,
            row_ptr,
            col_idx,
            values,
            nnz: csr.nnz(),
        })
    }

    /// Build from COO, routed through the conversion graph's CSR hub.
    pub fn from_coo(coo: &CooMatrix<T, I>, b: usize) -> Result<Self, SparseError> {
        crate::ConversionGraph::shared()
            .convert_coo(
                coo,
                SparseFormat::Bcsr,
                &crate::ConvertConfig::with_block(b),
            )?
            .matrix
            .into_bcsr()
    }

    /// The thesis-style naive formatter, kept as an ablation baseline.
    ///
    /// For every candidate block of the `r × c` grid it re-scans the
    /// covered CSR rows to test occupancy and then again to gather values:
    /// `O(block_rows · block_cols · r · avg_row_nnz)` — the algorithm
    /// whose cost the thesis reports as ~40 hours for its suite (§6.3.2).
    /// Produces bit-identical output to [`BcsrMatrix::from_csr`]; exists
    /// so the formatting-time ablation bench can quantify the speedup of
    /// the two-pass scatter build.
    pub fn from_csr_naive(csr: &CsrMatrix<T, I>, b: usize) -> Result<Self, SparseError> {
        if b == 0 {
            return Err(SparseError::InvalidBlockSize { r: b, c: b });
        }
        let (r, c) = (b, b);
        let rows = csr.rows();
        let cols = csr.cols();
        let block_rows = rows.div_ceil(r);
        let block_cols = cols.div_ceil(c);
        let area = r * c;

        let mut row_ptr = Vec::with_capacity(block_rows + 1);
        row_ptr.push(I::from_usize(0));
        let mut col_idx: Vec<I> = Vec::new();
        let mut values: Vec<T> = Vec::new();

        for bi in 0..block_rows {
            let row_lo = bi * r;
            let row_hi = (row_lo + r).min(rows);
            for bc in 0..block_cols {
                let col_lo = bc * c;
                let col_hi = col_lo + c;
                // Scan 1: is this block occupied?
                let occupied = (row_lo..row_hi).any(|i| {
                    csr.row(i)
                        .0
                        .iter()
                        .any(|&cc| (col_lo..col_hi).contains(&cc.as_usize()))
                });
                if !occupied {
                    continue;
                }
                // Scan 2: gather the block's values.
                col_idx.push(I::from_usize(bc));
                let base = values.len();
                values.resize(base + area, T::ZERO);
                for i in row_lo..row_hi {
                    let (rcols, rvals) = csr.row(i);
                    for (&cc, &v) in rcols.iter().zip(rvals) {
                        let cu = cc.as_usize();
                        if (col_lo..col_hi).contains(&cu) {
                            values[base + (i - row_lo) * c + (cu - col_lo)] += v;
                        }
                    }
                }
            }
            row_ptr.push(I::from_usize(col_idx.len()));
        }

        Ok(BcsrMatrix {
            rows,
            cols,
            r,
            c,
            row_ptr,
            col_idx,
            values,
            nnz: csr.nnz(),
        })
    }

    /// Logical row count.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count.
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

    /// Number of block rows.
    #[inline(always)]
    pub fn block_rows(&self) -> usize {
        self.rows.div_ceil(self.r)
    }

    /// Number of stored blocks.
    #[inline(always)]
    pub fn nblocks(&self) -> usize {
        self.col_idx.len()
    }

    /// Real nonzero count (excludes block fill-in).
    #[inline(always)]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Block-row pointer array.
    #[inline(always)]
    pub fn row_ptr(&self) -> &[I] {
        &self.row_ptr
    }

    /// Block-column index array.
    #[inline(always)]
    pub fn col_idx(&self) -> &[I] {
        &self.col_idx
    }

    /// Value array (`nblocks * r * c`).
    #[inline(always)]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The dense values of stored block `idx`, row-major.
    #[inline(always)]
    pub fn block_values(&self, idx: usize) -> &[T] {
        let area = self.r * self.c;
        &self.values[idx * area..(idx + 1) * area]
    }

    /// Iterate stored blocks of block-row `bi` as `(block_col, values)`.
    pub fn block_row(&self, bi: usize) -> impl Iterator<Item = (usize, &[T])> + '_ {
        let lo = self.row_ptr[bi].as_usize();
        let hi = self.row_ptr[bi + 1].as_usize();
        (lo..hi).map(move |b| (self.col_idx[b].as_usize(), self.block_values(b)))
    }

    /// Fraction of stored slots that hold real nonzeros (1.0 = perfectly
    /// blocked matrix). Lower means more wasted compute.
    pub fn fill_ratio(&self) -> f64 {
        if self.values.is_empty() {
            return 1.0;
        }
        self.nnz as f64 / self.values.len() as f64
    }

    /// Count of explicit padding zeros stored by the blocking.
    pub fn explicit_zeros(&self) -> usize {
        self.values.len() - self.nnz
    }

    /// Serialize to the suite's binary block-cache file (§6.3.2 interim
    /// tool): lets expensive blockings be computed once and reloaded.
    pub fn write_cache(&self, w: &mut impl Write) -> Result<(), SparseError> {
        w.write_all(b"BCSRCAC1")?;
        for v in [
            self.rows as u64,
            self.cols as u64,
            self.r as u64,
            self.c as u64,
            self.nnz as u64,
            self.row_ptr.len() as u64,
            self.col_idx.len() as u64,
        ] {
            w.write_all(&v.to_le_bytes())?;
        }
        for p in &self.row_ptr {
            w.write_all(&(p.as_usize() as u64).to_le_bytes())?;
        }
        for cidx in &self.col_idx {
            w.write_all(&(cidx.as_usize() as u64).to_le_bytes())?;
        }
        for v in &self.values {
            w.write_all(&v.to_f64().to_le_bytes())?;
        }
        Ok(())
    }

    /// Deserialize a block-cache file written by [`BcsrMatrix::write_cache`].
    pub fn read_cache(rd: &mut impl Read) -> Result<Self, SparseError> {
        let mut magic = [0u8; 8];
        rd.read_exact(&mut magic)?;
        if &magic != b"BCSRCAC1" {
            return Err(SparseError::Parse("not a BCSR cache file".into()));
        }
        let mut u64buf = [0u8; 8];
        let mut next_u64 = |rd: &mut dyn Read| -> Result<u64, SparseError> {
            rd.read_exact(&mut u64buf)?;
            Ok(u64::from_le_bytes(u64buf))
        };
        let rows = next_u64(rd)? as usize;
        let cols = next_u64(rd)? as usize;
        let r = next_u64(rd)? as usize;
        let c = next_u64(rd)? as usize;
        let nnz = next_u64(rd)? as usize;
        let ptr_len = next_u64(rd)? as usize;
        let nblocks = next_u64(rd)? as usize;
        if r == 0 || c == 0 {
            return Err(SparseError::InvalidBlockSize { r, c });
        }
        if ptr_len != rows.div_ceil(r) + 1 {
            return Err(SparseError::Parse("row_ptr length mismatch".into()));
        }
        let mut row_ptr = Vec::with_capacity(ptr_len);
        for _ in 0..ptr_len {
            row_ptr.push(I::from_usize(next_u64(rd)? as usize));
        }
        let mut col_idx = Vec::with_capacity(nblocks);
        for _ in 0..nblocks {
            col_idx.push(I::from_usize(next_u64(rd)? as usize));
        }
        let mut values = Vec::with_capacity(nblocks * r * c);
        for _ in 0..nblocks * r * c {
            values.push(T::from_f64(f64::from_le_bytes({
                rd.read_exact(&mut u64buf)?;
                u64buf
            })));
        }
        if row_ptr.last().map(|p| p.as_usize()) != Some(nblocks) {
            return Err(SparseError::Parse("row_ptr does not end at nblocks".into()));
        }
        Ok(BcsrMatrix {
            rows,
            cols,
            r,
            c,
            row_ptr,
            col_idx,
            values,
            nnz,
        })
    }
}

/// The scatter array the BCSR and BELL builds share. `slot_of[bc]` is
/// block column `bc`'s slot within the block-row being built, or
/// `usize::MAX`; `touched` lists the marked columns, so resetting costs
/// O(blocks) rather than O(block columns).
pub(crate) struct BlockSlots<'a, T, I> {
    csr: &'a CsrMatrix<T, I>,
    r: usize,
    c: usize,
    slot_of: Vec<usize>,
    touched: Vec<usize>,
}

impl<'a, T: Scalar, I: Index> BlockSlots<'a, T, I> {
    /// Slots for `csr` cut into `r × c` blocks.
    pub(crate) fn new(csr: &'a CsrMatrix<T, I>, r: usize, c: usize) -> Self {
        BlockSlots {
            csr,
            r,
            c,
            slot_of: vec![usize::MAX; csr.cols().div_ceil(c)],
            touched: Vec::new(),
        }
    }

    /// The rows of block-row `bi`.
    fn rows(&self, bi: usize) -> Range<usize> {
        bi * self.r..((bi + 1) * self.r).min(self.csr.rows())
    }

    /// The block columns block-row `bi` occupies, ascending.
    pub(crate) fn occupied(&mut self, bi: usize) -> &[usize] {
        self.touched.clear();
        for i in self.rows(bi) {
            for &col in self.csr.row(i).0 {
                let bc = col.as_usize() / self.c;
                if self.slot_of[bc] == usize::MAX {
                    self.slot_of[bc] = 0;
                    self.touched.push(bc);
                }
            }
        }
        for &bc in &self.touched {
            self.slot_of[bc] = usize::MAX;
        }
        self.touched.sort_unstable();
        &self.touched
    }

    /// Sum block-row `bi`'s entries into its dense row-major blocks:
    /// `block_cols` lists the block-row's [`occupied`](Self::occupied)
    /// block columns and block `slot` starts at `values[slot * r * c]`.
    pub(crate) fn scatter(&mut self, bi: usize, block_cols: &[I], values: &mut [T]) {
        for (slot, &bc) in block_cols.iter().enumerate() {
            self.slot_of[bc.as_usize()] = slot;
        }
        let (c, area) = (self.c, self.r * self.c);
        for (local_r, i) in self.rows(bi).enumerate() {
            let (rcols, rvals) = self.csr.row(i);
            for (&col, &v) in rcols.iter().zip(rvals) {
                let cu = col.as_usize();
                // `+=`, not `=`: COO (and thus CSR, which preserves it)
                // may carry duplicate coordinates, and their sum is the
                // entry every summing kernel computes.
                values[self.slot_of[cu / c] * area + local_r * c + cu % c] += v;
            }
        }
        for &bc in block_cols {
            self.slot_of[bc.as_usize()] = usize::MAX;
        }
    }
}

impl<T: Scalar, I: Index> SparseMatrix<T> for BcsrMatrix<T, I> {
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
        SparseFormat::Bcsr
    }

    fn to_coo(&self) -> CooMatrix<T, usize> {
        let mut coo = CooMatrix::new(self.rows, self.cols);
        for bi in 0..self.block_rows() {
            for (bc, block) in self.block_row(bi) {
                for lr in 0..self.r {
                    let row = bi * self.r + lr;
                    if row >= self.rows {
                        break;
                    }
                    for lc in 0..self.c {
                        let col = bc * self.c + lc;
                        let v = block[lr * self.c + lc];
                        if col < self.cols && v != T::ZERO {
                            coo.push(row, col, v).expect("BCSR indices are in bounds");
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
            5,
            5,
            &[
                (0, 0, 1.0),
                (0, 1, 2.0),
                (1, 0, 3.0),
                (2, 4, 4.0),
                (3, 3, 5.0),
                (4, 4, 6.0),
                (4, 0, 7.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn blocking_covers_all_nonzeros() {
        for b in [1, 2, 3, 4, 5, 7] {
            let coo = sample();
            let bcsr = BcsrMatrix::from_coo(&coo, b).unwrap();
            assert_eq!(bcsr.to_dense(), coo.to_dense(), "block size {b}");
            assert_eq!(bcsr.nnz(), coo.nnz());
        }
    }

    #[test]
    fn block_structure_for_2x2() {
        let bcsr = BcsrMatrix::from_coo(&sample(), 2).unwrap();
        assert_eq!(bcsr.block_rows(), 3);
        // Block row 0 covers rows 0-1: nonzeros at cols 0,1 -> block col 0.
        let blocks: Vec<usize> = bcsr.block_row(0).map(|(bc, _)| bc).collect();
        assert_eq!(blocks, vec![0]);
        let (_, vals) = bcsr.block_row(0).next().unwrap();
        assert_eq!(vals, &[1.0, 2.0, 3.0, 0.0]);
        // Block row 1 covers rows 2-3: cols 4 and 3 -> block cols 2 and 1.
        let blocks: Vec<usize> = bcsr.block_row(1).map(|(bc, _)| bc).collect();
        assert_eq!(blocks, vec![1, 2]);
    }

    #[test]
    fn block_size_one_equals_csr_structure() {
        let coo = sample();
        let bcsr = BcsrMatrix::from_coo(&coo, 1).unwrap();
        assert_eq!(bcsr.nblocks(), coo.nnz());
        assert_eq!(bcsr.fill_ratio(), 1.0);
        assert_eq!(bcsr.explicit_zeros(), 0);
    }

    #[test]
    fn fill_ratio_degrades_with_block_size() {
        let coo = sample();
        let b2 = BcsrMatrix::from_coo(&coo, 2).unwrap();
        let b4 = BcsrMatrix::from_coo(&coo, 4).unwrap();
        assert!(b2.fill_ratio() >= b4.fill_ratio());
        assert!(b2.fill_ratio() < 1.0);
    }

    #[test]
    fn zero_block_size_rejected() {
        let csr = CsrMatrix::from_coo(&sample());
        assert!(matches!(
            BcsrMatrix::from_csr(&csr, 0),
            Err(SparseError::InvalidBlockSize { .. })
        ));
        assert!(BcsrMatrix::from_csr_rect(&csr, 2, 0).is_err());
    }

    #[test]
    fn rectangular_blocks() {
        let coo = sample();
        let bcsr = BcsrMatrix::from_csr_rect(&CsrMatrix::from_coo(&coo), 1, 3).unwrap();
        assert_eq!(bcsr.to_dense(), coo.to_dense());
        assert_eq!(bcsr.block_r(), 1);
        assert_eq!(bcsr.block_c(), 3);
    }

    #[test]
    fn cache_roundtrip() {
        let coo = sample();
        let bcsr = BcsrMatrix::from_coo(&coo, 2).unwrap();
        let mut buf = Vec::new();
        bcsr.write_cache(&mut buf).unwrap();
        let loaded = BcsrMatrix::<f64>::read_cache(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded, bcsr);
    }

    #[test]
    fn cache_rejects_garbage() {
        let mut bad = b"NOTACACH".to_vec();
        bad.extend_from_slice(&[0u8; 64]);
        assert!(BcsrMatrix::<f64, usize>::read_cache(&mut bad.as_slice()).is_err());
        // Truncated file.
        let coo = sample();
        let bcsr = BcsrMatrix::from_coo(&coo, 2).unwrap();
        let mut buf = Vec::new();
        bcsr.write_cache(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(BcsrMatrix::<f64, usize>::read_cache(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn naive_formatter_is_bit_identical_to_fast_one() {
        // The ablation baseline must agree exactly (same block order, same
        // fill) so timing comparisons measure algorithm cost only.
        let coo = sample();
        let csr = CsrMatrix::from_coo(&coo);
        for b in [1, 2, 3, 4, 7] {
            let fast = BcsrMatrix::from_csr(&csr, b).unwrap();
            let naive = BcsrMatrix::from_csr_naive(&csr, b).unwrap();
            assert_eq!(fast, naive, "block size {b}");
        }
        assert!(BcsrMatrix::from_csr_naive(&csr, 0).is_err());
    }

    #[test]
    fn non_divisible_dimensions_pad_cleanly() {
        // 5x5 with 4x4 blocks: ragged edge blocks must not invent entries.
        let coo = sample();
        let bcsr = BcsrMatrix::from_coo(&coo, 4).unwrap();
        assert_eq!(bcsr.to_dense(), coo.to_dense());
        assert_eq!(bcsr.to_coo(), coo.to_coo());
    }
}

//! Compressed sparse row (CSR).

use crate::{CooMatrix, Index, MatrixProperties, Scalar, SparseFormat, SparseMatrix};

/// A sparse matrix in compressed sparse row format.
///
/// CSR compresses COO's row array into a `rows + 1` pointer array; it is the
/// baseline "general CPU" format the paper's serial studies favour.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T, I = usize> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<I>,
    col_idx: Vec<I>,
    values: Vec<T>,
}

impl<T: Scalar, I: Index> CsrMatrix<T, I> {
    /// Compress a COO matrix into CSR via a counting sort over rows.
    ///
    /// Runs in `O(rows + nnz)` and preserves the column order within each
    /// row that the COO matrix has (sorted, for a sorted COO). When the
    /// rows never decrease — every COO that `from_triplets`, the suite
    /// generators or the MatrixMarket reader build — the counting sort is
    /// the identity, so the column and value arrays are copied instead of
    /// scattered entry by entry.
    pub fn from_coo(coo: &CooMatrix<T, I>) -> Self {
        let rows = coo.rows();
        let mut row_ptr_usize = vec![0usize; rows + 1];
        let mut row_sorted = true;
        let mut prev = 0;
        for &r in coo.row_indices() {
            let r = r.as_usize();
            row_sorted &= r >= prev;
            prev = r;
            row_ptr_usize[r + 1] += 1;
        }
        for i in 0..rows {
            row_ptr_usize[i + 1] += row_ptr_usize[i];
        }

        let (col_idx, values) = if row_sorted {
            (coo.col_indices().to_vec(), coo.values().to_vec())
        } else {
            let nnz = coo.nnz();
            let mut col_idx = vec![I::default(); nnz];
            let mut values = vec![T::ZERO; nnz];
            let mut cursor = row_ptr_usize.clone();
            for ((&r, &c), &v) in coo
                .row_indices()
                .iter()
                .zip(coo.col_indices())
                .zip(coo.values())
            {
                let slot = cursor[r.as_usize()];
                col_idx[slot] = c;
                values[slot] = v;
                cursor[r.as_usize()] += 1;
            }
            (col_idx, values)
        };

        CsrMatrix {
            rows,
            cols: coo.cols(),
            row_ptr: row_ptr_usize.into_iter().map(I::from_usize).collect(),
            col_idx,
            values,
        }
    }

    /// Assemble directly from raw parts (used by converters and tests).
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<I>,
        col_idx: Vec<I>,
        values: Vec<T>,
    ) -> Self {
        assert_eq!(
            row_ptr.len(),
            rows + 1,
            "row_ptr must have rows + 1 entries"
        );
        assert_eq!(
            col_idx.len(),
            values.len(),
            "col_idx and values must be parallel"
        );
        assert_eq!(
            row_ptr.last().map(|p| p.as_usize()),
            Some(values.len()),
            "row_ptr must end at nnz"
        );
        debug_assert!(col_idx.iter().all(|c| c.as_usize() < cols.max(1)));
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of stored entries.
    #[inline(always)]
    pub fn nnz(&self) -> usize {
        self.values.len()
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

    /// Row pointer array (`rows + 1` entries).
    #[inline(always)]
    pub fn row_ptr(&self) -> &[I] {
        &self.row_ptr
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

    /// The column indices and values of row `i`.
    #[inline(always)]
    pub fn row(&self, i: usize) -> (&[I], &[T]) {
        let lo = self.row_ptr[i].as_usize();
        let hi = self.row_ptr[i + 1].as_usize();
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of nonzeros stored in row `i`.
    #[inline(always)]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1].as_usize() - self.row_ptr[i].as_usize()
    }

    /// The transpose as a new CSR matrix (built through CSC semantics:
    /// a counting sort over columns).
    pub fn transpose(&self) -> CsrMatrix<T, I> {
        let mut col_counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            col_counts[c.as_usize() + 1] += 1;
        }
        for j in 0..self.cols {
            col_counts[j + 1] += col_counts[j];
        }
        let mut cursor = col_counts.clone();
        let mut t_col = vec![I::default(); self.nnz()];
        let mut t_val = vec![T::ZERO; self.nnz()];
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = cursor[c.as_usize()];
                t_col[slot] = I::from_usize(i);
                t_val[slot] = v;
                cursor[c.as_usize()] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr: col_counts.into_iter().map(I::from_usize).collect(),
            col_idx: t_col,
            values: t_val,
        }
    }

    /// The Table 5.1 metric set, computed from `row_ptr` without a COO pass.
    pub fn properties(&self) -> MatrixProperties {
        let counts: Vec<usize> = (0..self.rows).map(|i| self.row_nnz(i)).collect();
        let bandwidth = (0..self.rows)
            .flat_map(|i| self.row(i).0.iter().map(move |c| i.abs_diff(c.as_usize())))
            .max()
            .unwrap_or(0);
        MatrixProperties::from_row_counts(self.rows, self.cols, &counts, bandwidth)
    }
}

impl<T: Scalar, I: Index> SparseMatrix<T> for CsrMatrix<T, I> {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn stored_entries(&self) -> usize {
        self.nnz()
    }

    fn format(&self) -> SparseFormat {
        SparseFormat::Csr
    }

    fn to_coo(&self) -> CooMatrix<T, usize> {
        let mut coo = CooMatrix::new(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(i, c.as_usize(), v)
                    .expect("CSR indices are in bounds");
            }
        }
        coo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> CooMatrix<f64> {
        CooMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 3, 2.0),
                (1, 1, 3.0),
                (3, 0, 4.0),
                (3, 2, 5.0),
                (3, 3, 6.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_coo_builds_correct_pointers() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        let ptr: Vec<usize> = csr.row_ptr().iter().map(|&p| p.as_usize()).collect();
        assert_eq!(ptr, vec![0, 2, 3, 3, 6]);
        assert_eq!(csr.row_nnz(0), 2);
        assert_eq!(csr.row_nnz(2), 0);
        assert_eq!(
            csr.row(3)
                .0
                .iter()
                .map(|c| c.as_usize())
                .collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
    }

    #[test]
    fn row_sorted_coo_is_copied_verbatim() {
        // Rows in order, columns out of order within a row, and a
        // duplicate coordinate: the CSR arrays are the COO's, unchanged.
        let mut coo = CooMatrix::<f64>::new(4, 5);
        for (r, c, v) in [
            (0, 4, 1.0),
            (0, 1, 2.0),
            (0, 4, 3.0),
            (2, 3, 4.0),
            (2, 0, 5.0),
            (3, 2, 6.0),
        ] {
            coo.push(r, c, v).unwrap();
        }
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.col_idx(), coo.col_indices());
        assert_eq!(csr.values(), coo.values());
        assert_eq!(csr.row_ptr(), &[0, 3, 3, 5, 6]);
    }

    #[test]
    fn roundtrip_through_coo() {
        let coo = sample_coo();
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.to_coo(), coo.to_coo());
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let coo = sample_coo();
        let csr = CsrMatrix::from_coo(&coo);
        let t = csr.transpose();
        assert_eq!(t.to_dense(), coo.to_dense().transposed());
        // Transposing twice restores the original.
        assert_eq!(t.transpose().to_dense(), coo.to_dense());
    }

    #[test]
    fn properties_match_coo_properties() {
        let coo = sample_coo();
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.properties(), coo.properties());
    }

    #[test]
    fn empty_rows_are_representable() {
        let coo = CooMatrix::<f64>::new(5, 5);
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.nnz(), 0);
        for i in 0..5 {
            assert_eq!(csr.row_nnz(i), 0);
        }
    }

    #[test]
    fn narrow_indices_work() {
        let coo: CooMatrix<f32, u32> =
            CooMatrix::from_triplets(3, 3, &[(0, 1, 1.5f32), (2, 2, 2.5)]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.row(2).1, &[2.5f32]);
    }

    #[test]
    #[should_panic(expected = "row_ptr must have rows + 1 entries")]
    fn from_parts_validates_row_ptr_len() {
        let _ = CsrMatrix::<f64>::from_parts(2, 2, vec![0, 0], vec![], vec![]);
    }
}

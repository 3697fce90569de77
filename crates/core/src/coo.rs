//! Coordinate (COO) format: the suite's load and verification format.

use crate::{
    DenseMatrix, Index, MatrixProperties, Scalar, SparseError, SparseFormat, SparseMatrix,
};

/// A sparse matrix in coordinate format: parallel arrays of row indices,
/// column indices and values, one entry per stored nonzero.
///
/// COO corresponds one-to-one with the MatrixMarket file layout, so the
/// suite loads every matrix as COO and converts from there; the paper also
/// uses the COO multiply as its verification oracle because a dense–dense
/// reference multiply was too slow (§4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix<T, I = usize> {
    rows: usize,
    cols: usize,
    row_idx: Vec<I>,
    col_idx: Vec<I>,
    values: Vec<T>,
}

impl<T: Scalar, I: Index> CooMatrix<T, I> {
    /// An empty matrix of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::with_capacity(rows, cols, 0)
    }

    /// An empty matrix with room for `capacity` entries.
    pub(crate) fn with_capacity(rows: usize, cols: usize, capacity: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            row_idx: Vec::with_capacity(capacity),
            col_idx: Vec::with_capacity(capacity),
            values: Vec::with_capacity(capacity),
        }
    }

    /// Build from `(row, col, value)` triplets, validating bounds.
    ///
    /// Entries are sorted row-major and duplicate coordinates are summed,
    /// matching MatrixMarket assembly semantics.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, T)],
    ) -> Result<Self, SparseError> {
        let mut m = CooMatrix::with_capacity(rows, cols, triplets.len());
        for &(r, c, v) in triplets {
            m.push(r, c, v)?;
        }
        m.sort_and_sum_duplicates();
        Ok(m)
    }

    /// Append one entry (no sorting or duplicate merging).
    pub fn push(&mut self, row: usize, col: usize, value: T) -> Result<(), SparseError> {
        if row >= self.rows || col >= self.cols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        self.row_idx.push(I::from_usize(row));
        self.col_idx.push(I::from_usize(col));
        self.values.push(value);
        Ok(())
    }

    /// Sort entries row-major (row, then column) and sum duplicates.
    pub fn sort_and_sum_duplicates(&mut self) {
        let mut order: Vec<usize> = (0..self.values.len()).collect();
        order.sort_unstable_by_key(|&e| (self.row_idx[e], self.col_idx[e]));

        let mut row_idx = Vec::with_capacity(order.len());
        let mut col_idx = Vec::with_capacity(order.len());
        let mut values: Vec<T> = Vec::with_capacity(order.len());
        for &e in &order {
            let (r, c, v) = (self.row_idx[e], self.col_idx[e], self.values[e]);
            if let (Some(&lr), Some(&lc)) = (row_idx.last(), col_idx.last()) {
                if lr == r && lc == c {
                    *values.last_mut().expect("values parallel to indices") += v;
                    continue;
                }
            }
            row_idx.push(r);
            col_idx.push(c);
            values.push(v);
        }
        self.row_idx = row_idx;
        self.col_idx = col_idx;
        self.values = values;
    }

    /// `true` if entries are sorted row-major with no duplicate coordinates.
    pub fn is_sorted(&self) -> bool {
        self.row_idx
            .iter()
            .zip(&self.col_idx)
            .zip(self.row_idx.iter().zip(&self.col_idx).skip(1))
            .all(|((r0, c0), (r1, c1))| (r0, c0) < (r1, c1))
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

    /// Row index array.
    #[inline(always)]
    pub fn row_indices(&self) -> &[I] {
        &self.row_idx
    }

    /// Column index array.
    #[inline(always)]
    pub fn col_indices(&self) -> &[I] {
        &self.col_idx
    }

    /// Value array.
    #[inline(always)]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Iterate over `(row, col, value)` triplets in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        self.row_idx
            .iter()
            .zip(&self.col_idx)
            .zip(&self.values)
            .map(|((&r, &c), &v)| (r.as_usize(), c.as_usize(), v))
    }

    /// The transpose as a new (sorted) COO matrix.
    pub fn transpose(&self) -> CooMatrix<T, I> {
        let mut t = CooMatrix::new(self.cols, self.rows);
        t.row_idx = self.col_idx.clone();
        t.col_idx = self.row_idx.clone();
        t.values = self.values.clone();
        t.sort_and_sum_duplicates();
        t
    }

    /// Drop explicitly stored zeros (padding from blocked formats).
    pub fn prune_zeros(&mut self) {
        let mut keep = 0;
        for e in 0..self.values.len() {
            if self.values[e] != T::ZERO {
                self.row_idx[keep] = self.row_idx[e];
                self.col_idx[keep] = self.col_idx[e];
                self.values[keep] = self.values[e];
                keep += 1;
            }
        }
        self.row_idx.truncate(keep);
        self.col_idx.truncate(keep);
        self.values.truncate(keep);
    }

    /// Re-index into a (possibly) narrower index type.
    pub fn with_index_type<J: Index>(&self) -> Option<CooMatrix<T, J>> {
        if self.rows.max(self.cols) > J::MAX_USIZE.saturating_add(1) {
            return None;
        }
        let mut out = CooMatrix::new(self.rows, self.cols);
        out.row_idx = self
            .row_idx
            .iter()
            .map(|&r| J::try_from_usize(r.as_usize()))
            .collect::<Option<_>>()?;
        out.col_idx = self
            .col_idx
            .iter()
            .map(|&c| J::try_from_usize(c.as_usize()))
            .collect::<Option<_>>()?;
        out.values = self.values.clone();
        Some(out)
    }

    /// Number of nonzeros in each row.
    pub fn row_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.rows];
        for &r in &self.row_idx {
            counts[r.as_usize()] += 1;
        }
        counts
    }

    /// The Table 5.1 metric set for this matrix.
    pub fn properties(&self) -> MatrixProperties {
        let bandwidth = self
            .iter()
            .map(|(r, c, _)| r.abs_diff(c))
            .max()
            .unwrap_or(0);
        MatrixProperties::from_row_counts(self.rows, self.cols, &self.row_counts(), bandwidth)
    }

    /// Reference SpMM over the first `k` columns of `b`: `C = A · B[:, :k]`.
    ///
    /// This is the verification oracle of the suite (§4.3). It is a plain
    /// triplet loop, independent of every optimized kernel.
    pub fn spmm_reference_k(&self, b: &DenseMatrix<T>, k: usize) -> DenseMatrix<T> {
        assert_eq!(
            self.cols,
            b.rows(),
            "A is {}x{} but B has {} rows",
            self.rows,
            self.cols,
            b.rows()
        );
        assert!(k <= b.cols(), "k = {k} exceeds B's {} columns", b.cols());
        let mut c = DenseMatrix::zeros(self.rows, k);
        for ((&r, &j), &v) in self.row_idx.iter().zip(&self.col_idx).zip(&self.values) {
            let b_row = &b.row(j.as_usize())[..k];
            let c_row = &mut c.row_mut(r.as_usize())[..k];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv = v.mul_add(bv, *cv);
            }
        }
        c
    }

    /// Reference SpMM over all columns of `b`.
    pub fn spmm_reference(&self, b: &DenseMatrix<T>) -> DenseMatrix<T> {
        self.spmm_reference_k(b, b.cols())
    }

    /// Reference SpMV: `y = A · x`.
    pub fn spmv_reference(&self, x: &[T]) -> Vec<T> {
        assert_eq!(
            self.cols,
            x.len(),
            "A is {}x{} but x has {} entries",
            self.rows,
            self.cols,
            x.len()
        );
        let mut y = vec![T::ZERO; self.rows];
        for ((&r, &j), &v) in self.row_idx.iter().zip(&self.col_idx).zip(&self.values) {
            y[r.as_usize()] = v.mul_add(x[j.as_usize()], y[r.as_usize()]);
        }
        y
    }
}

impl<T: Scalar, I: Index> SparseMatrix<T> for CooMatrix<T, I> {
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
        SparseFormat::Coo
    }

    fn to_coo(&self) -> CooMatrix<T, usize> {
        let mut out = CooMatrix::new(self.rows, self.cols);
        out.row_idx = self.row_idx.iter().map(|&r| r.as_usize()).collect();
        out.col_idx = self.col_idx.iter().map(|&c| c.as_usize()).collect();
        out.values = self.values.clone();
        out
    }

    fn to_dense(&self) -> DenseMatrix<T> {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            let cur = d.get(r, c);
            d.set(r, c, cur + v);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix<f64> {
        CooMatrix::from_triplets(3, 4, &[(2, 3, 4.0), (0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0)])
            .unwrap()
    }

    #[test]
    fn from_triplets_sorts_row_major() {
        let m = sample();
        assert!(m.is_sorted());
        let order: Vec<_> = m.iter().collect();
        assert_eq!(
            order,
            vec![(0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0), (2, 3, 4.0)]
        );
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CooMatrix::<f64>::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)])
            .unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.iter().next(), Some((0, 0, 3.5)));
    }

    #[test]
    fn out_of_bounds_rejected() {
        assert!(CooMatrix::<f64>::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CooMatrix::<f64>::from_triplets(2, 2, &[(0, 2, 1.0)]).is_err());
    }

    #[test]
    fn spmm_reference_matches_dense_multiply() {
        let m = sample();
        let b = DenseMatrix::from_fn(4, 3, |i, j| (i * 3 + j + 1) as f64);
        let c = m.spmm_reference(&b);
        // Hand-computed: row 0 = 1*B[0], row 1 = 2*B[1], row 2 = 3*B[0] + 4*B[3].
        assert_eq!(c.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(c.row(1), &[8.0, 10.0, 12.0]);
        assert_eq!(c.row(2), &[3.0 + 40.0, 6.0 + 44.0, 9.0 + 48.0]);
    }

    #[test]
    fn spmm_k_limits_columns() {
        let m = sample();
        let b = DenseMatrix::from_fn(4, 8, |i, j| (i + j) as f64);
        let c = m.spmm_reference_k(&b, 2);
        assert_eq!(c.cols(), 2);
        let full = m.spmm_reference(&b);
        for i in 0..3 {
            assert_eq!(c.row(i), &full.row(i)[..2]);
        }
    }

    #[test]
    fn spmv_matches_spmm_with_one_column() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = m.spmv_reference(&x);
        let b = DenseMatrix::from_vec(4, 1, x).unwrap();
        let c = m.spmm_reference(&b);
        for (i, &yv) in y.iter().enumerate() {
            assert_eq!(yv, c.get(i, 0));
        }
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 3);
        assert_eq!(m.to_dense().transposed(), t.to_dense());
    }

    #[test]
    fn prune_zeros_removes_padding() {
        let mut m = CooMatrix::<f64>::from_triplets(2, 2, &[(0, 0, 0.0), (0, 1, 5.0), (1, 0, 0.0)])
            .unwrap();
        m.prune_zeros();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.iter().next(), Some((0, 1, 5.0)));
    }

    #[test]
    fn narrow_index_conversion() {
        let m = sample();
        let narrow: CooMatrix<f64, u16> = m.with_index_type().unwrap();
        assert_eq!(narrow.to_coo(), m.to_coo());
    }

    #[test]
    fn row_counts_and_properties() {
        let m = sample();
        assert_eq!(m.row_counts(), vec![1, 1, 2]);
        let p = m.properties();
        assert_eq!(p.nnz, 4);
        assert_eq!(p.max_row_nnz, 2);
    }

    #[test]
    fn empty_matrix_behaves() {
        let m = CooMatrix::<f64>::new(3, 3);
        assert_eq!(m.nnz(), 0);
        let b = DenseMatrix::from_fn(3, 2, |_, _| 1.0);
        let c = m.spmm_reference(&b);
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
        assert!(m.is_sorted());
    }
}

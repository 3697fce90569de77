//! Row-major dense matrices (operand B and result C of SpMM).

use crate::{Scalar, SparseError};

/// A row-major dense matrix.
///
/// The suite generates B densely and multiplies it by the formatted sparse
/// A; C is also dense. Row-major storage means kernel inner loops walk
/// `b.row(col_of_nonzero)` linearly — the access pattern the paper's
/// transpose study (Study 8) contrasts with column-major access.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// An all-zeros `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        DenseMatrix { rows, cols, data }
    }

    /// Wrap an existing row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, SparseError> {
        if data.len() != rows * cols {
            return Err(SparseError::ShapeMismatch {
                detail: format!(
                    "buffer of {} values cannot back a {rows}x{cols} matrix",
                    data.len()
                ),
            });
        }
        Ok(DenseMatrix { rows, cols, data })
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

    /// The element at `(i, j)`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Overwrite the element at `(i, j)`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a contiguous slice.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable contiguous slice.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The whole backing buffer, row-major.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The whole backing buffer, mutable.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Reset every element to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(T::ZERO);
    }

    /// Reshape in place to `rows × cols` with every element zero, reusing
    /// the existing allocation when it is large enough. Returns `true` if
    /// the buffer had to grow (i.e. an allocation happened).
    pub fn reset(&mut self, rows: usize, cols: usize) -> bool {
        let need = rows * cols;
        let grew = need > self.data.capacity();
        self.data.clear();
        self.data.resize(need, T::ZERO);
        self.rows = rows;
        self.cols = cols;
        grew
    }

    /// [`DenseMatrix::transposed`] writing into a caller-owned buffer.
    /// Returns `true` if `out` had to grow.
    pub fn transposed_into(&self, out: &mut DenseMatrix<T>) -> bool {
        let grew = out.reset(self.cols, self.rows);
        for i in 0..self.rows {
            let src = self.row(i);
            for (j, &v) in src.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
        grew
    }

    /// An owned transpose (`cols × rows`).
    ///
    /// This is the explicit pre-pass of the paper's Study 8: transposing B
    /// so the multiply can read what were B's columns as rows.
    pub fn transposed(&self) -> DenseMatrix<T> {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let src = self.row(i);
            for (j, &v) in src.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
        out
    }

    /// Frobenius-style elementwise maximum absolute difference.
    pub fn max_abs_diff(&self, other: &DenseMatrix<T>) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "max_abs_diff requires equal shapes"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// Iterate over `(row, col, value)` of every element.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(idx, &v)| (idx / cols, idx % cols, v))
    }
}

/// B packed into contiguous column panels for the cache-blocked kernels.
///
/// The flat kernels read `b.row(j)[..k]`, a `k`-wide strided window of a
/// `b.cols()`-pitch buffer: at large `k` every nonzero of A drags a full
/// `k * 8`-byte row of B through the cache, and the working set of one
/// sweep over A is `touched_rows × k × 8` bytes. Packing splits the first
/// `k` columns into `⌈k / panel_w⌉` panels and stores each panel's
/// `b_rows × width` block contiguously, so a tiled kernel sweeps A once
/// per panel against a working set `panel_w / k` times smaller — sized by
/// the tile selector to sit in L1/L2 — and reads it at unit stride.
///
/// Packing is a one-time pre-pass over B (like Study 8's explicit
/// transpose) and is amortized across every multiply that reuses B.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedPanels<T> {
    b_rows: usize,
    k: usize,
    panel_w: usize,
    data: Vec<T>,
    /// Start of each panel in `data`, plus the total length: panel `p`
    /// occupies `data[offsets[p]..offsets[p + 1]]`.
    offsets: Vec<usize>,
}

impl<T: Scalar> PackedPanels<T> {
    /// Pack the first `k` columns of `b` into panels of `panel_w` columns
    /// (the last panel may be narrower).
    ///
    /// # Panics
    /// If `k` exceeds `b.cols()` or `panel_w` is zero.
    pub fn pack(b: &DenseMatrix<T>, k: usize, panel_w: usize) -> Self {
        let mut out = PackedPanels::empty();
        out.pack_into(b, k, panel_w);
        out
    }

    /// A zero-capacity pack buffer for [`PackedPanels::pack_into`] reuse.
    pub fn empty() -> Self {
        PackedPanels {
            b_rows: 0,
            k: 0,
            panel_w: 1,
            data: Vec::new(),
            offsets: vec![0],
        }
    }

    /// [`PackedPanels::pack`] writing into this buffer, reusing its
    /// allocations when large enough. Returns `true` if a buffer grew.
    ///
    /// # Panics
    /// If `k` exceeds `b.cols()` or `panel_w` is zero.
    pub fn pack_into(&mut self, b: &DenseMatrix<T>, k: usize, panel_w: usize) -> bool {
        assert!(
            k <= b.cols(),
            "cannot pack {k} columns of a {}-column B",
            b.cols()
        );
        assert!(panel_w > 0, "panel width must be positive");
        let b_rows = b.rows();
        let n_panels = k.div_ceil(panel_w).max(1);
        let len = b_rows * k;
        let grew = len > self.data.capacity() || n_panels + 1 > self.offsets.capacity();
        self.data.clear();
        if len > self.data.capacity() {
            // One allocation, at the capacity that growing row by row
            // reaches for a power-of-two panel width, so no intermediate
            // copies and no larger footprint. An exact-size buffer moved
            // glibc's dynamic mmap and trim thresholds so that freed packs
            // went back to the OS and were faulted in again on the next
            // prepare.
            self.data.reserve_exact(len.next_power_of_two());
        }
        self.offsets.clear();
        self.offsets.push(0);
        for p in 0..n_panels {
            let lo = p * panel_w;
            let hi = (lo + panel_w).min(k);
            for row in 0..b_rows {
                self.data.extend_from_slice(&b.row(row)[lo..hi]);
            }
            self.offsets.push(self.data.len());
        }
        self.b_rows = b_rows;
        self.k = k;
        self.panel_w = panel_w;
        grew
    }

    /// Rows of the packed B.
    #[inline(always)]
    pub fn b_rows(&self) -> usize {
        self.b_rows
    }

    /// Total packed columns (the kernel's `k`).
    #[inline(always)]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Nominal panel width (the last panel may be narrower).
    #[inline(always)]
    pub fn panel_w(&self) -> usize {
        self.panel_w
    }

    /// Number of panels.
    #[inline(always)]
    pub fn n_panels(&self) -> usize {
        self.offsets.len() - 1
    }

    /// First original B column covered by panel `p`.
    #[inline(always)]
    pub fn panel_start(&self, p: usize) -> usize {
        p * self.panel_w
    }

    /// Width of panel `p`.
    #[inline(always)]
    pub fn width(&self, p: usize) -> usize {
        (self.k - self.panel_start(p)).min(self.panel_w)
    }

    /// Panel `p` as one contiguous `b_rows × width(p)` row-major block.
    #[inline(always)]
    pub fn panel(&self, p: usize) -> &[T] {
        &self.data[self.offsets[p]..self.offsets[p + 1]]
    }

    /// Bytes of packed payload.
    pub fn packed_bytes(&self) -> usize {
        std::mem::size_of::<T>() * self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = DenseMatrix::<f64>::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = DenseMatrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0f32; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0f32; 4]).is_ok());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = DenseMatrix::<f32>::zeros(2, 2);
        m.set(1, 0, 7.0);
        assert_eq!(m.get(1, 0), 7.0);
        m.clear();
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn transpose_is_involution() {
        let m = DenseMatrix::from_fn(3, 5, |i, j| (i * 100 + j) as f64);
        let t = m.transposed();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 3);
        for i in 0..3 {
            for j in 0..5 {
                assert_eq!(t.get(j, i), m.get(i, j));
            }
        }
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn max_abs_diff_detects_change() {
        let a = DenseMatrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set(1, 1, 100.0);
        assert_eq!(a.max_abs_diff(&b), 98.0);
    }

    #[test]
    fn iter_yields_all_coordinates() {
        let m = DenseMatrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64);
        let items: Vec<_> = m.iter().collect();
        assert_eq!(
            items,
            vec![(0, 0, 0.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, 3.0)]
        );
    }

    #[test]
    fn packed_panels_cover_prefix_exactly() {
        let b = DenseMatrix::from_fn(5, 11, |i, j| (i * 100 + j) as f64);
        for (k, w) in [(11, 4), (11, 11), (11, 64), (7, 3), (1, 1), (8, 4)] {
            let packed = PackedPanels::pack(&b, k, w);
            assert_eq!(packed.b_rows(), 5);
            assert_eq!(packed.k(), k);
            assert_eq!(packed.n_panels(), k.div_ceil(w));
            let mut widths = 0;
            for p in 0..packed.n_panels() {
                let width = packed.width(p);
                widths += width;
                let panel = packed.panel(p);
                assert_eq!(panel.len(), 5 * width);
                for row in 0..5 {
                    assert_eq!(
                        &panel[row * width..(row + 1) * width],
                        &b.row(row)[packed.panel_start(p)..packed.panel_start(p) + width],
                        "k={k} w={w} panel {p} row {row}"
                    );
                }
            }
            assert_eq!(widths, k);
            assert_eq!(packed.packed_bytes(), 8 * 5 * k);
        }
    }

    #[test]
    fn packed_panels_last_panel_is_ragged() {
        let b = DenseMatrix::from_fn(3, 10, |i, j| (i + j) as f64);
        let packed = PackedPanels::pack(&b, 10, 4);
        assert_eq!(packed.n_panels(), 3);
        assert_eq!(packed.width(0), 4);
        assert_eq!(packed.width(2), 2);
        assert_eq!(packed.panel(2).len(), 3 * 2);
    }

    #[test]
    #[should_panic(expected = "cannot pack")]
    fn packed_panels_reject_k_beyond_b() {
        let b = DenseMatrix::<f64>::zeros(2, 4);
        PackedPanels::pack(&b, 5, 2);
    }
}

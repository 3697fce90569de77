//! Row-major dense matrices (operand B and result C of SpMM).

use std::fmt;

use crate::{Scalar, SparseError};

/// Byte boundary every dense buffer starts on: one cache line, and one
/// AVX-512 vector.
const ALIGN: usize = 64;

/// A zero-initialised buffer whose visible elements start on an
/// [`ALIGN`]-byte boundary.
///
/// Safe Rust cannot ask `Vec<T>` for more than `T`'s own alignment, so the
/// buffer over-allocates by `ALIGN / size_of::<T>()` elements and shows
/// the slice that starts at the first aligned element. If
/// `align_offset` names no offset within that padding, it shows the slice
/// at offset 0: contents stay correct, only unaligned.
struct AlignedBuf<T> {
    raw: Vec<T>,
    offset: usize,
    len: usize,
}

impl<T: Scalar> AlignedBuf<T> {
    /// A fresh buffer of `len` zeros with room for `room >= len`. A zero
    /// value lets the allocator hand out already-zeroed pages.
    fn zeroed(len: usize, room: usize) -> Self {
        let pad = ALIGN / std::mem::size_of::<T>();
        let raw = vec![T::ZERO; room.max(len) + pad];
        let offset = raw.as_ptr().align_offset(ALIGN);
        let offset = if offset <= pad { offset } else { 0 };
        AlignedBuf { raw, offset, len }
    }

    /// An aligned copy of `src`.
    fn copied(src: &[T]) -> Self {
        let mut buf = Self::zeroed(src.len(), src.len());
        buf.as_mut_slice().copy_from_slice(src);
        buf
    }

    /// Elements the current allocation can show without growing.
    fn room(&self) -> usize {
        self.raw.len() - self.offset
    }

    /// Show `len` zeros, reusing the allocation when it has room;
    /// otherwise take a fresh zeroed one with room for `grow_to >= len`.
    /// Returns `true` if it allocated.
    fn reset(&mut self, len: usize, grow_to: usize) -> bool {
        if len > self.room() {
            *self = Self::zeroed(len, grow_to);
            return true;
        }
        self.len = len;
        self.as_mut_slice().fill(T::ZERO);
        false
    }
}

impl<T> AlignedBuf<T> {
    #[inline(always)]
    fn as_slice(&self) -> &[T] {
        &self.raw[self.offset..self.offset + self.len]
    }

    #[inline(always)]
    fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.raw[self.offset..self.offset + self.len]
    }
}

impl<T: Scalar> Clone for AlignedBuf<T> {
    fn clone(&self) -> Self {
        Self::copied(self.as_slice())
    }
}

/// Compares contents, never the padding or the offset.
impl<T: PartialEq> PartialEq for AlignedBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: fmt::Debug> fmt::Debug for AlignedBuf<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// A row-major dense matrix.
///
/// The suite generates B densely and multiplies it by the formatted sparse
/// A; C is also dense. Row-major storage means kernel inner loops walk
/// `b.row(col_of_nonzero)` linearly — the access pattern the paper's
/// transpose study (Study 8) contrasts with column-major access.
///
/// The buffer starts on a 64-byte boundary, so a row whose width is a
/// multiple of the vector width never splits a cache line, and a kernel's
/// speed does not depend on where the heap put its operands. Clones and
/// transposes are aligned too; equality compares shape and contents.
#[derive(Debug, PartialEq)]
pub struct DenseMatrix<T> {
    rows: usize,
    cols: usize,
    data: AlignedBuf<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// An all-zeros `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: AlignedBuf::zeroed(rows * cols, rows * cols),
        }
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = DenseMatrix::zeros(rows, cols);
        for i in 0..rows {
            for (j, v) in m.row_mut(i).iter_mut().enumerate() {
                *v = f(i, j);
            }
        }
        m
    }

    /// Copy an existing row-major buffer into an aligned one.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, SparseError> {
        if data.len() != rows * cols {
            return Err(SparseError::ShapeMismatch {
                detail: format!(
                    "buffer of {} values cannot back a {rows}x{cols} matrix",
                    data.len()
                ),
            });
        }
        Ok(DenseMatrix {
            rows,
            cols,
            data: AlignedBuf::copied(&data),
        })
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
        self.data.as_slice()[i * self.cols + j]
    }

    /// Overwrite the element at `(i, j)`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data.as_mut_slice()[i * self.cols + j] = v;
    }

    /// Row `i` as a contiguous slice.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data.as_slice()[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable contiguous slice.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data.as_mut_slice()[i * self.cols..(i + 1) * self.cols]
    }

    /// The whole backing buffer, row-major, starting on a 64-byte
    /// boundary.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        self.data.as_slice()
    }

    /// The whole backing buffer, mutable.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.data.as_mut_slice()
    }

    /// Reset every element to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.as_mut_slice().fill(T::ZERO);
    }

    /// Reshape in place to `rows × cols` with every element zero, reusing
    /// the existing allocation when it is large enough. Returns `true` if
    /// the buffer had to grow (i.e. an allocation happened); a grown
    /// buffer is a fresh zeroed one, so growth costs no fill.
    pub fn reset(&mut self, rows: usize, cols: usize) -> bool {
        let need = rows * cols;
        self.rows = rows;
        self.cols = cols;
        self.data.reset(need, need)
    }

    /// [`DenseMatrix::transposed`] writing into a caller-owned buffer.
    /// Returns `true` if `out` had to grow.
    pub fn transposed_into(&self, out: &mut DenseMatrix<T>) -> bool {
        let grew = out.reset(self.cols, self.rows);
        let dst = out.as_mut_slice();
        for i in 0..self.rows {
            for (j, &v) in self.row(i).iter().enumerate() {
                dst[j * self.rows + i] = v;
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
        self.transposed_into(&mut out);
        out
    }

    /// Frobenius-style elementwise maximum absolute difference.
    pub fn max_abs_diff(&self, other: &DenseMatrix<T>) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "max_abs_diff requires equal shapes"
        );
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// Iterate over `(row, col, value)` of every element.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        let cols = self.cols;
        self.as_slice()
            .iter()
            .enumerate()
            .map(move |(idx, &v)| (idx / cols, idx % cols, v))
    }
}

/// By hand, so the clone is a fresh aligned buffer.
impl<T: Scalar> Clone for DenseMatrix<T> {
    fn clone(&self) -> Self {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
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
///
/// The pack starts on a 64-byte boundary, as [`DenseMatrix`] does, so
/// every panel whose width is a multiple of 8 does too.
#[derive(Debug, PartialEq)]
pub struct PackedPanels<T> {
    b_rows: usize,
    k: usize,
    panel_w: usize,
    data: AlignedBuf<T>,
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
            data: AlignedBuf::zeroed(0, 0),
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
        let grew_offsets = n_panels + 1 > self.offsets.capacity();
        // A grown pack has the capacity that growing row by row reaches
        // for a power-of-two panel width. An exact-size buffer moved
        // glibc's dynamic mmap and trim thresholds so that freed packs
        // went back to the OS and were faulted in again on the next
        // prepare.
        let grew = self.data.reset(len, len.next_power_of_two()) || grew_offsets;
        self.offsets.clear();
        self.offsets.push(0);
        let out = self.data.as_mut_slice();
        let mut at = 0;
        for p in 0..n_panels {
            let lo = p * panel_w;
            let hi = (lo + panel_w).min(k);
            for row in 0..b_rows {
                out[at..at + hi - lo].copy_from_slice(&b.row(row)[lo..hi]);
                at += hi - lo;
            }
            self.offsets.push(at);
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
        &self.data.as_slice()[self.offsets[p]..self.offsets[p + 1]]
    }

    /// Bytes of packed payload.
    pub fn packed_bytes(&self) -> usize {
        std::mem::size_of::<T>() * self.data.len
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

    fn starts_on_a_cache_line<T>(s: &[T]) -> bool {
        (s.as_ptr() as usize).is_multiple_of(ALIGN)
    }

    fn every_buffer_is_aligned<T: Scalar>() {
        let f = DenseMatrix::from_fn(7, 5, |i, j| T::from_f64((i * 5 + j) as f64));
        let built = [
            DenseMatrix::zeros(7, 5),
            DenseMatrix::from_vec(7, 5, f.as_slice().to_vec()).unwrap(),
            f.clone(),
            f.transposed(),
            f,
        ];
        for m in &built {
            assert!(starts_on_a_cache_line(m.as_slice()), "{} {m:?}", T::NAME);
        }
        let mut m = DenseMatrix::<T>::from_fn(3, 3, |_, _| T::ONE);
        for (rows, cols, grows) in [(50, 9, true), (4, 2, false), (50, 9, false)] {
            m.as_mut_slice().fill(T::ONE);
            assert_eq!(m.reset(rows, cols), grows, "{} {rows}x{cols}", T::NAME);
            assert!(
                starts_on_a_cache_line(m.as_slice()),
                "{} {rows}x{cols}",
                T::NAME
            );
            assert!(m.as_slice().iter().all(|&v| v == T::ZERO));
        }
    }

    #[test]
    fn f64_and_f32_buffers_start_on_a_cache_line() {
        every_buffer_is_aligned::<f64>();
        every_buffer_is_aligned::<f32>();
    }

    #[test]
    fn equality_ignores_offset_and_padding() {
        let a = DenseMatrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        let mut raw = vec![-1.0; 1 + 6 + 8];
        raw[1..7].copy_from_slice(a.as_slice());
        let shifted = DenseMatrix {
            rows: 2,
            cols: 3,
            data: AlignedBuf {
                raw,
                offset: 1,
                len: 6,
            },
        };
        assert_eq!(a, shifted);
        assert_eq!(shifted.clone(), a);
        assert!(starts_on_a_cache_line(shifted.clone().as_slice()));
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
    fn packed_panels_start_on_a_cache_line() {
        let b = DenseMatrix::from_fn(13, 40, |i, j| (i * 40 + j) as f64);
        let mut packed = PackedPanels::empty();
        for (k, w) in [(40, 8), (40, 16), (24, 8), (40, 32)] {
            packed.pack_into(&b, k, w);
            for p in 0..packed.n_panels() {
                assert!(starts_on_a_cache_line(packed.panel(p)), "k={k} w={w} p={p}");
            }
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

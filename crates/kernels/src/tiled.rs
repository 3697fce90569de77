//! Cache-blocked, register-tiled SpMM over a panel-packed B.
//!
//! The flat kernels in [`crate::serial`]/[`crate::optimized`] stream all
//! `k` columns of B through the cache for every touched row. Once the
//! working set of B rows times `k * 8` bytes exceeds L2 (banded matrices
//! with a wide band) or the LLC (heavy-row matrices touching most of B),
//! every nonzero pays a cache or memory round-trip. The tiled engine
//! splits `k` into **panels** of `panel_w` columns, packs each panel
//! contiguously ([`PackedPanels`], done once, outside the timed region —
//! the same amortization argument as Study 8's pre-transposed B), and
//! sweeps the whole sparse matrix once per panel. Each sweep touches a
//! `k / panel_w`-times smaller slice of B at unit stride, so the panel
//! stays resident across rows that share columns.
//!
//! Within a panel, rows are processed in **register tiles** of `MR` rows:
//! a `MR × W` stack-array accumulator block (`W` = the panel width, a
//! const generic dispatched through the same
//! [`dispatch_const_k!`](crate::optimized) machinery as the Study 9
//! kernels) is filled entirely before C is stored, batching the writes to
//! C and keeping the inner `axpy` loop free of loads/stores to C.
//!
//! # Parallel decomposition
//!
//! The parallel entry points schedule a **2-D tile grid**: row chunks ×
//! k-panels, flattened to a 1-D index space for
//! [`ThreadPool::parallel_for`] so every [`Schedule`] (static / dynamic /
//! guided) applies unchanged. The disjointness argument extends the 1-D
//! row-split one: tile `(chunk, panel)` writes exactly the C elements
//! `{rows of chunk} × {columns of panel}`. Two distinct tiles differ in
//! the chunk (disjoint row sets) or in the panel (disjoint column
//! ranges), so no C element has two writers and `DisjointSlice` hands
//! each tile its rows-by-panel-columns window safely.
//!
//! Panel widths outside [`SUPPORTED_K`](crate::optimized::SUPPORTED_K)
//! (and the ragged last panel when `panel_w` does not divide `k`) fall
//! back to a runtime-width kernel built on the crate's `util::axpy`, so any
//! `(k, panel_w)` pair computes correctly — only the common widths get
//! the specialized instantiations.

use std::ops::Range;

use spmm_core::{BcsrMatrix, CsrMatrix, DenseMatrix, EllMatrix, Index, PackedPanels, Scalar};
use spmm_parallel::{Schedule, ThreadPool};

use crate::optimized::dispatch_const_k;
use crate::simd::SimdLevel;
use crate::util::{axpy, isa_twin, DisjointSlice};

/// `acc[..] += v * b_row[..K]` with the bound known at compile time.
#[inline(always)]
fn axpy_const<T: Scalar, const K: usize>(acc: &mut [T; K], v: T, b_row: &[T]) {
    let b_row = &b_row[..K];
    for kk in 0..K {
        acc[kk] = v.mul_add(b_row[kk], acc[kk]);
    }
}

/// Register-tile heights with dedicated instantiations; `TileConfig`
/// rounds any requested `row_block` down to one of these.
pub const SUPPORTED_MR: [usize; 3] = [1, 2, 4];

/// Shape of the tiled execution: the k-panel width and the register-tile
/// height.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConfig {
    /// Columns of B per packed panel.
    pub panel_w: usize,
    /// Rows per register tile (MR). Rounded down to [`SUPPORTED_MR`].
    pub row_block: usize,
}

impl TileConfig {
    /// Build a config, clamping both dimensions to at least 1.
    pub fn new(panel_w: usize, row_block: usize) -> Self {
        TileConfig {
            panel_w: panel_w.max(1),
            row_block: row_block.max(1),
        }
    }

    /// Default shape for a given `k`: 64-wide panels (a 512-byte f64 panel
    /// row — one or two cache lines per B row per sweep) and MR = 4.
    pub fn for_k(k: usize) -> Self {
        TileConfig::new(k.clamp(1, 64), 4)
    }

    /// Pack the first `k` columns of `b` into panels of this width.
    pub fn pack<T: Scalar>(&self, b: &DenseMatrix<T>, k: usize) -> PackedPanels<T> {
        let _span = spmm_trace::span!("pack");
        if spmm_trace::enabled() {
            spmm_trace::counter("tiled.panels_packed").add(k.div_ceil(self.panel_w.max(1)) as u64);
        }
        PackedPanels::pack(b, k, self.panel_w)
    }

    /// The largest supported register-tile height ≤ `row_block`.
    fn mr(&self) -> usize {
        match self.row_block {
            0 | 1 => 1,
            2 | 3 => 2,
            _ => 4,
        }
    }
}

/// Validate the tiled kernel contract (the packed-B analogue of
/// `check_spmm_shapes`).
fn check_tiled_shapes<T: Scalar>(
    a_rows: usize,
    a_cols: usize,
    packed: &PackedPanels<T>,
    c: &DenseMatrix<T>,
) {
    assert_eq!(
        a_cols,
        packed.b_rows(),
        "A has {a_cols} cols but packed B has {} rows",
        packed.b_rows()
    );
    assert_eq!(
        c.rows(),
        a_rows,
        "C has {} rows but A has {a_rows}",
        c.rows()
    );
    assert_eq!(
        c.cols(),
        packed.k(),
        "C has {} cols but packed k = {}",
        c.cols(),
        packed.k()
    );
}

// ---------------------------------------------------------------------------
// Micro-kernels. All take the C buffer as a `DisjointSlice` so the serial
// and 2-D parallel drivers share one implementation, and `isa_twin!`
// compiles each for the baseline target and for AVX2+FMA (recompiling the
// shared `axpy_const` / `axpy` inner loops, so the MR × W register tile
// lives in vector registers).
//
// SAFETY contract (all): the caller must guarantee this call has
// exclusive access to the C elements `{rows}` × `[col_off, col_off + W)`,
// that `rows` is within `0..a.rows()`, that `panel` is the packed panel
// covering columns `[col_off, col_off + W)` of B with `a.cols()` rows,
// and that `pitch == c.cols() == packed.k()`.
// ---------------------------------------------------------------------------

isa_twin! {
    /// CSR register tile: `MR` rows of A against one `W`-wide panel.
    unsafe fn csr_tile<T: Scalar, I: Index, const MR: usize, const W: usize>(
        a: &CsrMatrix<T, I>,
        rows: Range<usize>,
        panel: &[T],
        col_off: usize,
        c: &DisjointSlice<'_, T>,
        pitch: usize,
    ) {
        let mut i = rows.start;
        while i + MR <= rows.end {
            let mut acc = [[T::ZERO; W]; MR];
            for r in 0..MR {
                let (cols, vals) = a.row(i + r);
                for (&j, &v) in cols.iter().zip(vals) {
                    axpy_const(&mut acc[r], v, &panel[j.as_usize() * W..]);
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                // SAFETY: tile ownership per the module contract above.
                unsafe { c.slice_mut((i + r) * pitch + col_off, W) }.copy_from_slice(acc_row);
            }
            i += MR;
        }
        // Ragged tail of the row chunk: single-row tiles.
        while i < rows.end {
            let mut acc = [T::ZERO; W];
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                axpy_const(&mut acc, v, &panel[j.as_usize() * W..]);
            }
            // SAFETY: as above.
            unsafe { c.slice_mut(i * pitch + col_off, W) }.copy_from_slice(&acc);
            i += 1;
        }
    }

    /// ELLPACK register tile. Identical structure to [`csr_tile`]; padding
    /// slots multiply an explicit zero like the flat ELL kernels do.
    unsafe fn ell_tile<T: Scalar, I: Index, const MR: usize, const W: usize>(
        a: &EllMatrix<T, I>,
        rows: Range<usize>,
        panel: &[T],
        col_off: usize,
        c: &DisjointSlice<'_, T>,
        pitch: usize,
    ) {
        let mut i = rows.start;
        while i + MR <= rows.end {
            let mut acc = [[T::ZERO; W]; MR];
            for r in 0..MR {
                let (cols, vals) = (a.row_cols(i + r), a.row_vals(i + r));
                for (&j, &v) in cols.iter().zip(vals) {
                    axpy_const(&mut acc[r], v, &panel[j.as_usize() * W..]);
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                // SAFETY: tile ownership per the module contract above.
                unsafe { c.slice_mut((i + r) * pitch + col_off, W) }.copy_from_slice(acc_row);
            }
            i += MR;
        }
        while i < rows.end {
            let mut acc = [T::ZERO; W];
            let (cols, vals) = (a.row_cols(i), a.row_vals(i));
            for (&j, &v) in cols.iter().zip(vals) {
                axpy_const(&mut acc, v, &panel[j.as_usize() * W..]);
            }
            // SAFETY: as above.
            unsafe { c.slice_mut(i * pitch + col_off, W) }.copy_from_slice(&acc);
            i += 1;
        }
    }

    /// BCSR panel tile over a range of *block* rows. The register tile is the
    /// natural `block_r × W` accumulator of one block row; MR is not used
    /// because the block height is a runtime property of the format.
    unsafe fn bcsr_tile<T: Scalar, I: Index, const W: usize>(
        a: &BcsrMatrix<T, I>,
        block_rows: Range<usize>,
        panel: &[T],
        col_off: usize,
        c: &DisjointSlice<'_, T>,
        pitch: usize,
    ) {
        let (r, bc_w) = (a.block_r(), a.block_c());
        let rows = a.rows();
        let cols = a.cols();
        for bi in block_rows {
            let row_lo = bi * r;
            let row_hi = (row_lo + r).min(rows);
            for i in row_lo..row_hi {
                let mut acc = [T::ZERO; W];
                for (bcol, block) in a.block_row(bi) {
                    let col_lo = bcol * bc_w;
                    let brow = &block[(i - row_lo) * bc_w..(i - row_lo + 1) * bc_w];
                    for (lc, &v) in brow.iter().enumerate() {
                        let j = col_lo + lc;
                        // Ragged edge blocks may extend past the matrix; their
                        // out-of-range slots are zero but must not index B.
                        if j < cols && v != T::ZERO {
                            axpy_const(&mut acc, v, &panel[j * W..]);
                        }
                    }
                }
                // SAFETY: tile ownership per the module contract above.
                unsafe { c.slice_mut(i * pitch + col_off, W) }.copy_from_slice(&acc);
            }
        }
    }

    // Runtime-width fallbacks for panel widths outside SUPPORTED_K (ragged
    // last panels, odd user-chosen widths).

    #[runtime_width(w)]
    unsafe fn csr_tile_any<T: Scalar, I: Index>(
        a: &CsrMatrix<T, I>,
        rows: Range<usize>,
        panel: &[T],
        w: usize,
        col_off: usize,
        c: &DisjointSlice<'_, T>,
        pitch: usize,
    ) {
        for i in rows {
            // SAFETY: tile ownership per the module contract above.
            let c_row = unsafe { c.slice_mut(i * pitch + col_off, w) };
            c_row.fill(T::ZERO);
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                axpy(c_row, v, &panel[j.as_usize() * w..], w);
            }
        }
    }

    #[runtime_width(w)]
    unsafe fn ell_tile_any<T: Scalar, I: Index>(
        a: &EllMatrix<T, I>,
        rows: Range<usize>,
        panel: &[T],
        w: usize,
        col_off: usize,
        c: &DisjointSlice<'_, T>,
        pitch: usize,
    ) {
        for i in rows {
            // SAFETY: tile ownership per the module contract above.
            let c_row = unsafe { c.slice_mut(i * pitch + col_off, w) };
            c_row.fill(T::ZERO);
            let (cols, vals) = (a.row_cols(i), a.row_vals(i));
            for (&j, &v) in cols.iter().zip(vals) {
                axpy(c_row, v, &panel[j.as_usize() * w..], w);
            }
        }
    }

    #[runtime_width(w)]
    unsafe fn bcsr_tile_any<T: Scalar, I: Index>(
        a: &BcsrMatrix<T, I>,
        block_rows: Range<usize>,
        panel: &[T],
        w: usize,
        col_off: usize,
        c: &DisjointSlice<'_, T>,
        pitch: usize,
    ) {
        let (r, bc_w) = (a.block_r(), a.block_c());
        let rows = a.rows();
        let cols = a.cols();
        for bi in block_rows {
            let row_lo = bi * r;
            let row_hi = (row_lo + r).min(rows);
            for i in row_lo..row_hi {
                // SAFETY: tile ownership per the module contract above.
                let c_row = unsafe { c.slice_mut(i * pitch + col_off, w) };
                c_row.fill(T::ZERO);
                for (bcol, block) in a.block_row(bi) {
                    let col_lo = bcol * bc_w;
                    let brow = &block[(i - row_lo) * bc_w..(i - row_lo + 1) * bc_w];
                    for (lc, &v) in brow.iter().enumerate() {
                        let j = col_lo + lc;
                        if j < cols && v != T::ZERO {
                            axpy(c_row, v, &panel[j * w..], w);
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-(rows × panel) drivers: dispatch width + MR (and the SIMD level)
// onto the micro-kernels. Same SAFETY contract as the micro-kernels they
// call, plus `level` must have come from the verified-probe path in
// `crate::simd`.
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
unsafe fn csr_panel_tile<T: Scalar, I: Index>(
    a: &CsrMatrix<T, I>,
    packed: &PackedPanels<T>,
    p: usize,
    rows: Range<usize>,
    mr: usize,
    level: SimdLevel,
    c: &DisjointSlice<'_, T>,
    pitch: usize,
) {
    let w = packed.width(p);
    let off = packed.panel_start(p);
    let panel = packed.panel(p);
    // SAFETY (for every dispatched call): forwarded from this fn's contract.
    let handled = match mr {
        1 => {
            dispatch_const_k!(w, unsafe csr_tile::<T, I, {1}>(level, a, rows.clone(), panel, off, c, pitch))
        }
        2 => {
            dispatch_const_k!(w, unsafe csr_tile::<T, I, {2}>(level, a, rows.clone(), panel, off, c, pitch))
        }
        _ => {
            dispatch_const_k!(w, unsafe csr_tile::<T, I, {4}>(level, a, rows.clone(), panel, off, c, pitch))
        }
    };
    if !handled {
        // SAFETY: forwarded.
        unsafe { csr_tile_any(level, a, rows, panel, w, off, c, pitch) };
    }
}

#[allow(clippy::too_many_arguments)]
unsafe fn ell_panel_tile<T: Scalar, I: Index>(
    a: &EllMatrix<T, I>,
    packed: &PackedPanels<T>,
    p: usize,
    rows: Range<usize>,
    mr: usize,
    level: SimdLevel,
    c: &DisjointSlice<'_, T>,
    pitch: usize,
) {
    let w = packed.width(p);
    let off = packed.panel_start(p);
    let panel = packed.panel(p);
    // SAFETY (for every dispatched call): forwarded from this fn's contract.
    let handled = match mr {
        1 => {
            dispatch_const_k!(w, unsafe ell_tile::<T, I, {1}>(level, a, rows.clone(), panel, off, c, pitch))
        }
        2 => {
            dispatch_const_k!(w, unsafe ell_tile::<T, I, {2}>(level, a, rows.clone(), panel, off, c, pitch))
        }
        _ => {
            dispatch_const_k!(w, unsafe ell_tile::<T, I, {4}>(level, a, rows.clone(), panel, off, c, pitch))
        }
    };
    if !handled {
        // SAFETY: forwarded.
        unsafe { ell_tile_any(level, a, rows, panel, w, off, c, pitch) };
    }
}

unsafe fn bcsr_panel_tile<T: Scalar, I: Index>(
    a: &BcsrMatrix<T, I>,
    packed: &PackedPanels<T>,
    p: usize,
    block_rows: Range<usize>,
    level: SimdLevel,
    c: &DisjointSlice<'_, T>,
    pitch: usize,
) {
    let w = packed.width(p);
    let off = packed.panel_start(p);
    let panel = packed.panel(p);
    // SAFETY (both calls): forwarded from this fn's contract.
    let handled = dispatch_const_k!(
        w,
        unsafe bcsr_tile::<T, I>(level, a, block_rows.clone(), panel, off, c, pitch)
    );
    if !handled {
        // SAFETY: forwarded.
        unsafe { bcsr_tile_any(level, a, block_rows, panel, w, off, c, pitch) };
    }
}

// ---------------------------------------------------------------------------
// Serial entry points: panel-major loop — one full sweep of A per panel,
// so the packed panel stays cache-resident across the sweep.
// ---------------------------------------------------------------------------

/// Serial cache-blocked CSR SpMM against a panel-packed B.
pub fn csr_spmm_tiled<T: Scalar, I: Index>(
    a: &CsrMatrix<T, I>,
    packed: &PackedPanels<T>,
    cfg: TileConfig,
    c: &mut DenseMatrix<T>,
) {
    check_tiled_shapes(a.rows(), a.cols(), packed, c);
    let pitch = packed.k();
    let rows = a.rows();
    let mr = cfg.mr();
    let level = crate::simd::active_level();
    let c_slice = DisjointSlice::new(c.as_mut_slice());
    for p in 0..packed.n_panels() {
        // SAFETY: serial execution — this is the only writer, and each
        // (row, panel) window is visited exactly once.
        unsafe { csr_panel_tile(a, packed, p, 0..rows, mr, level, &c_slice, pitch) };
    }
}

/// Serial cache-blocked ELLPACK SpMM against a panel-packed B.
pub fn ell_spmm_tiled<T: Scalar, I: Index>(
    a: &EllMatrix<T, I>,
    packed: &PackedPanels<T>,
    cfg: TileConfig,
    c: &mut DenseMatrix<T>,
) {
    check_tiled_shapes(a.rows(), a.cols(), packed, c);
    let pitch = packed.k();
    let rows = a.rows();
    let mr = cfg.mr();
    let level = crate::simd::active_level();
    let c_slice = DisjointSlice::new(c.as_mut_slice());
    for p in 0..packed.n_panels() {
        // SAFETY: serial execution, single writer (see csr_spmm_tiled).
        unsafe { ell_panel_tile(a, packed, p, 0..rows, mr, level, &c_slice, pitch) };
    }
}

/// Serial cache-blocked BCSR SpMM against a panel-packed B.
pub fn bcsr_spmm_tiled<T: Scalar, I: Index>(
    a: &BcsrMatrix<T, I>,
    packed: &PackedPanels<T>,
    _cfg: TileConfig,
    c: &mut DenseMatrix<T>,
) {
    check_tiled_shapes(a.rows(), a.cols(), packed, c);
    let pitch = packed.k();
    let level = crate::simd::active_level();
    let c_slice = DisjointSlice::new(c.as_mut_slice());
    for p in 0..packed.n_panels() {
        // SAFETY: serial execution, single writer (see csr_spmm_tiled).
        unsafe { bcsr_panel_tile(a, packed, p, 0..a.block_rows(), level, &c_slice, pitch) };
    }
}

// ---------------------------------------------------------------------------
// Parallel entry points: 2-D (row chunk × panel) tile grid.
// ---------------------------------------------------------------------------

/// Rows (or block rows) per chunk: aim for ~4 chunks per thread for load
/// balance, rounded up to a whole number of register tiles.
fn chunk_len(n: usize, threads: usize, granule: usize) -> usize {
    let granule = granule.max(1);
    let target = n.div_ceil(threads.max(1) * 4).max(1);
    target.div_ceil(granule) * granule
}

/// Iterate the 2-D tile grid for one contiguous range of flattened tile
/// indices, invoking `tile_body(chunk_rows, panel)` per tile.
fn for_tiles(
    tiles: Range<usize>,
    n_panels: usize,
    chunk: usize,
    n_rows: usize,
    mut tile_body: impl FnMut(Range<usize>, usize),
) {
    for t in tiles {
        let (ci, p) = (t / n_panels, t % n_panels);
        let lo = ci * chunk;
        let hi = (lo + chunk).min(n_rows);
        tile_body(lo..hi, p);
    }
}

/// Parallel 2-D tiled CSR SpMM: row chunks × k-panels over the pool.
#[allow(clippy::too_many_arguments)]
pub fn csr_spmm_tiled_parallel<T: Scalar, I: Index>(
    pool: &ThreadPool,
    threads: usize,
    schedule: Schedule,
    a: &CsrMatrix<T, I>,
    packed: &PackedPanels<T>,
    cfg: TileConfig,
    c: &mut DenseMatrix<T>,
) {
    check_tiled_shapes(a.rows(), a.cols(), packed, c);
    let (rows, n_panels, pitch) = (a.rows(), packed.n_panels(), packed.k());
    if rows == 0 {
        return;
    }
    let mr = cfg.mr();
    let level = crate::simd::active_level();
    let chunk = chunk_len(rows, threads, mr);
    let n_tiles = rows.div_ceil(chunk) * n_panels;
    let c_slice = DisjointSlice::new(c.as_mut_slice());
    pool.parallel_for(threads, 0..n_tiles, schedule, |tiles| {
        for_tiles(tiles, n_panels, chunk, rows, |rows, p| {
            // SAFETY: tile (chunk, panel) owns C rows `rows` × the panel's
            // columns; distinct tiles differ in chunk (disjoint rows) or
            // panel (disjoint columns), so writers never overlap.
            unsafe { csr_panel_tile(a, packed, p, rows, mr, level, &c_slice, pitch) };
        });
    });
}

/// Parallel 2-D tiled ELLPACK SpMM.
#[allow(clippy::too_many_arguments)]
pub fn ell_spmm_tiled_parallel<T: Scalar, I: Index>(
    pool: &ThreadPool,
    threads: usize,
    schedule: Schedule,
    a: &EllMatrix<T, I>,
    packed: &PackedPanels<T>,
    cfg: TileConfig,
    c: &mut DenseMatrix<T>,
) {
    check_tiled_shapes(a.rows(), a.cols(), packed, c);
    let (rows, n_panels, pitch) = (a.rows(), packed.n_panels(), packed.k());
    if rows == 0 {
        return;
    }
    let mr = cfg.mr();
    let level = crate::simd::active_level();
    let chunk = chunk_len(rows, threads, mr);
    let n_tiles = rows.div_ceil(chunk) * n_panels;
    let c_slice = DisjointSlice::new(c.as_mut_slice());
    pool.parallel_for(threads, 0..n_tiles, schedule, |tiles| {
        for_tiles(tiles, n_panels, chunk, rows, |rows, p| {
            // SAFETY: 2-D tile disjointness (see csr_spmm_tiled_parallel).
            unsafe { ell_panel_tile(a, packed, p, rows, mr, level, &c_slice, pitch) };
        });
    });
}

/// Parallel 2-D tiled BCSR SpMM: block-row chunks × k-panels.
#[allow(clippy::too_many_arguments)]
pub fn bcsr_spmm_tiled_parallel<T: Scalar, I: Index>(
    pool: &ThreadPool,
    threads: usize,
    schedule: Schedule,
    a: &BcsrMatrix<T, I>,
    packed: &PackedPanels<T>,
    _cfg: TileConfig,
    c: &mut DenseMatrix<T>,
) {
    check_tiled_shapes(a.rows(), a.cols(), packed, c);
    let (block_rows, n_panels, pitch) = (a.block_rows(), packed.n_panels(), packed.k());
    if block_rows == 0 {
        return;
    }
    let chunk = chunk_len(block_rows, threads, 1);
    let level = crate::simd::active_level();
    let n_tiles = block_rows.div_ceil(chunk) * n_panels;
    let c_slice = DisjointSlice::new(c.as_mut_slice());
    pool.parallel_for(threads, 0..n_tiles, schedule, |tiles| {
        for_tiles(tiles, n_panels, chunk, block_rows, |brows, p| {
            // SAFETY: 2-D tile disjointness; block-row chunks write
            // disjoint scalar-row sets (block rows partition the rows).
            unsafe { bcsr_panel_tile(a, packed, p, brows, level, &c_slice, pitch) };
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_core::CooMatrix;

    fn fixture(rows: usize, cols: usize, k: usize) -> (CooMatrix<f64>, DenseMatrix<f64>) {
        let mut triplets = Vec::new();
        for i in 0..rows {
            for j in 0..cols {
                // A deterministic, irregular pattern: ~1/3 density with
                // sign and magnitude varying per entry.
                if (i * 7 + j * 13) % 3 == 0 {
                    triplets.push((i, j, ((i + 1) as f64) * 0.5 - (j as f64) * 0.25));
                }
            }
        }
        let coo = CooMatrix::from_triplets(rows, cols, &triplets).unwrap();
        let b = DenseMatrix::from_fn(cols, k, |i, j| ((i * 31 + j * 17) % 11) as f64 - 5.0);
        (coo, b)
    }

    #[test]
    fn tiled_csr_matches_reference_across_tile_shapes() {
        let (coo, b) = fixture(23, 19, 40);
        let csr = CsrMatrix::from_coo(&coo);
        for k in [1, 8, 13, 40] {
            let expected = coo.spmm_reference_k(&b, k);
            for panel_w in [1, 3, 8, 16, 64] {
                for row_block in [1, 2, 3, 4, 9] {
                    let cfg = TileConfig::new(panel_w, row_block);
                    let packed = cfg.pack(&b, k);
                    let mut c = DenseMatrix::from_fn(23, k, |_, _| 42.0);
                    csr_spmm_tiled(&csr, &packed, cfg, &mut c);
                    assert!(
                        c.max_abs_diff(&expected) < 1e-12,
                        "k={k} panel_w={panel_w} mr={row_block}"
                    );
                }
            }
        }
    }

    #[test]
    fn tiled_ell_and_bcsr_match_reference() {
        let (coo, b) = fixture(17, 17, 24);
        let ell = EllMatrix::from_coo(&coo).unwrap();
        let bcsr = BcsrMatrix::from_coo(&coo, 3).unwrap();
        let expected = coo.spmm_reference_k(&b, 24);
        for panel_w in [5, 8, 24, 32] {
            let cfg = TileConfig::new(panel_w, 4);
            let packed = cfg.pack(&b, 24);
            let mut c = DenseMatrix::zeros(17, 24);
            ell_spmm_tiled(&ell, &packed, cfg, &mut c);
            assert!(c.max_abs_diff(&expected) < 1e-12, "ell panel_w={panel_w}");
            let mut c = DenseMatrix::zeros(17, 24);
            bcsr_spmm_tiled(&bcsr, &packed, cfg, &mut c);
            assert!(c.max_abs_diff(&expected) < 1e-12, "bcsr panel_w={panel_w}");
        }
    }

    #[test]
    fn tiled_parallel_matches_serial_for_all_schedules() {
        let (coo, b) = fixture(37, 29, 20);
        let csr = CsrMatrix::from_coo(&coo);
        let ell = EllMatrix::from_coo(&coo).unwrap();
        let bcsr = BcsrMatrix::from_coo(&coo, 2).unwrap();
        let expected = coo.spmm_reference_k(&b, 20);
        let pool = ThreadPool::new(4);
        let cfg = TileConfig::new(8, 4);
        let packed = cfg.pack(&b, 20);
        for schedule in [Schedule::Static, Schedule::Dynamic(1), Schedule::Guided(1)] {
            for threads in [1, 3, 4, 9] {
                let mut c = DenseMatrix::from_fn(37, 20, |_, _| -7.0);
                csr_spmm_tiled_parallel(&pool, threads, schedule, &csr, &packed, cfg, &mut c);
                assert!(
                    c.max_abs_diff(&expected) < 1e-12,
                    "csr {schedule:?} t={threads}"
                );
                let mut c = DenseMatrix::zeros(37, 20);
                ell_spmm_tiled_parallel(&pool, threads, schedule, &ell, &packed, cfg, &mut c);
                assert!(
                    c.max_abs_diff(&expected) < 1e-12,
                    "ell {schedule:?} t={threads}"
                );
                let mut c = DenseMatrix::zeros(37, 20);
                bcsr_spmm_tiled_parallel(&pool, threads, schedule, &bcsr, &packed, cfg, &mut c);
                assert!(
                    c.max_abs_diff(&expected) < 1e-12,
                    "bcsr {schedule:?} t={threads}"
                );
            }
        }
    }

    #[test]
    fn empty_matrix_and_zero_rows_are_fine() {
        let coo = CooMatrix::<f64>::new(5, 5);
        let b = DenseMatrix::from_fn(5, 8, |_, _| 1.0);
        let csr = CsrMatrix::from_coo(&coo);
        let cfg = TileConfig::for_k(8);
        let packed = cfg.pack(&b, 8);
        let mut c = DenseMatrix::from_fn(5, 8, |_, _| 3.0);
        csr_spmm_tiled(&csr, &packed, cfg, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
        let pool = ThreadPool::new(2);
        let mut c = DenseMatrix::from_fn(5, 8, |_, _| 3.0);
        csr_spmm_tiled_parallel(&pool, 2, Schedule::Static, &csr, &packed, cfg, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn tiled_levels_agree() {
        // Pin the panel drivers to each level directly (the public entry
        // points read the process-global level): the AVX2 register tiles
        // must match the portable ones to FMA rounding for every width
        // class — const-dispatched, runtime fallback, and ragged panels.
        let (coo, b) = fixture(29, 23, 40);
        let csr = CsrMatrix::from_coo(&coo);
        let ell = EllMatrix::from_coo(&coo).unwrap();
        let bcsr = BcsrMatrix::from_coo(&coo, 3).unwrap();
        let expected = coo.spmm_reference_k(&b, 40);
        for level in crate::simd::levels() {
            for (panel_w, mr) in [(8usize, 1usize), (8, 4), (16, 2), (5, 4), (40, 1)] {
                let cfg = TileConfig::new(panel_w, mr);
                let packed = cfg.pack(&b, 40);
                let pitch = packed.k();
                let mut c = DenseMatrix::from_fn(29, 40, |_, _| 1.5);
                let c_slice = DisjointSlice::new(c.as_mut_slice());
                for p in 0..packed.n_panels() {
                    // SAFETY: serial, single writer, each window once.
                    unsafe {
                        csr_panel_tile(&csr, &packed, p, 0..29, cfg.mr(), level, &c_slice, pitch)
                    };
                }
                assert!(
                    c.max_abs_diff(&expected) < 1e-12,
                    "csr {level:?} w={panel_w} mr={mr}"
                );
                let mut c = DenseMatrix::from_fn(29, 40, |_, _| -2.0);
                let c_slice = DisjointSlice::new(c.as_mut_slice());
                for p in 0..packed.n_panels() {
                    // SAFETY: as above.
                    unsafe {
                        ell_panel_tile(&ell, &packed, p, 0..29, cfg.mr(), level, &c_slice, pitch)
                    };
                }
                assert!(
                    c.max_abs_diff(&expected) < 1e-12,
                    "ell {level:?} w={panel_w} mr={mr}"
                );
                let mut c = DenseMatrix::from_fn(29, 40, |_, _| 4.0);
                let c_slice = DisjointSlice::new(c.as_mut_slice());
                for p in 0..packed.n_panels() {
                    // SAFETY: as above.
                    unsafe {
                        bcsr_panel_tile(
                            &bcsr,
                            &packed,
                            p,
                            0..bcsr.block_rows(),
                            level,
                            &c_slice,
                            pitch,
                        )
                    };
                }
                assert!(
                    c.max_abs_diff(&expected) < 1e-12,
                    "bcsr {level:?} w={panel_w} mr={mr}"
                );
            }
        }
    }

    #[test]
    fn config_rounds_row_block_to_supported_mr() {
        assert_eq!(TileConfig::new(8, 1).mr(), 1);
        assert_eq!(TileConfig::new(8, 2).mr(), 2);
        assert_eq!(TileConfig::new(8, 3).mr(), 2);
        assert_eq!(TileConfig::new(8, 4).mr(), 4);
        assert_eq!(TileConfig::new(8, 100).mr(), 4);
        assert!(SUPPORTED_MR.contains(&TileConfig::new(8, 7).mr()));
    }

    #[test]
    #[should_panic(expected = "packed k")]
    fn shape_mismatch_panics() {
        let (coo, b) = fixture(4, 4, 8);
        let csr = CsrMatrix::from_coo(&coo);
        let cfg = TileConfig::for_k(8);
        let packed = cfg.pack(&b, 8);
        let mut c = DenseMatrix::zeros(4, 6);
        csr_spmm_tiled(&csr, &packed, cfg, &mut c);
    }
}

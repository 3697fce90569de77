//! Manually optimized kernels (the paper's Study 9), and SpMV.
//!
//! The thesis applied two manual optimizations to its calculation kernels:
//! hoisting the value load out of the k loop, and baking the k-loop bound
//! in at compile time with C++ templates so the compiler emits SIMD and
//! unrolled code. Here the same trick is Rust const generics: each format
//! has one range body over `const K: usize` that accumulates a row into a
//! stack array of exactly `K` elements, and `dispatch_const_k!` selects
//! the [`SUPPORTED_K`] instantiation at run time (other values report no
//! kernel, as the C++ suite would fall back to the generic template). As
//! in [`crate::serial`], `isa_twin!` compiles every body for the baseline
//! target and for AVX2+FMA, and the serial and parallel entry points run
//! the same body, once or once per chunk.
//!
//! SpMV (the paper's §6.3.4 extension) is the `K = 1` instance of these
//! bodies: x is a `cols × 1` B and y a `rows × 1` C.
//!
//! The `simd` variant (Study 12) is the last manual optimization: a fused
//! multiply-add. Its SpMM ([`FormatData::spmm_serial_simd_at`]) runs the
//! normal range bodies of CSR, ELL, BCSR and SELL-C-σ with a fused B
//! read, and its SpMV ([`FormatData::spmv_serial_simd_at`]) two bodies
//! that also reassociate each row sum: CSR's gathered dot over four
//! partial sums and SELL-C-σ's lane-inner slice walk.

use std::ops::Range;

use spmm_core::{
    BcsrMatrix, CooMatrix, CsrMatrix, DenseMatrix, EllMatrix, Index, Scalar, SellMatrix,
    SparseFormat,
};

use crate::dispatch::FormatData;
use crate::extended::sell_slices;
use crate::serial::{bcsr_block_rows, csr_rows, ell_rows};
use crate::simd::{self, active_level, SimdLevel};
use crate::util::{isa_twin, DisjointSlice, Exec, Fused, ReadB};
use crate::{check_spmm_shapes, check_spmv_shapes};

/// The k values with dedicated compile-time instantiations: the paper's
/// Study 4 sweep values (1028 is served by the runtime fallback).
pub const SUPPORTED_K: [usize; 7] = [8, 16, 32, 64, 128, 256, 512];

/// Map a runtime `k` onto the matching const instantiation of a kernel.
///
/// One macro serves every const-`K` dispatcher in this crate (the Study 9
/// kernels here and the tiled panel kernels in [`crate::tiled`]); the
/// supported-K list is written exactly once, in the `@go` arm, and a unit
/// test pins it to [`SUPPORTED_K`]. Two call shapes, both for an `unsafe
/// fn` (the caller's enclosing SAFETY argument is forwarded):
///
/// * `dispatch_const_k!(k, unsafe kernel::<T, I>(args...))` — generics
///   `<T, I, const K>`;
/// * `dispatch_const_k!(k, unsafe kernel::<T, I, {MR}>(args...))` —
///   generics `<T, I, const MR, const K>` (the tiled register-blocked
///   micro-kernels).
///
/// Evaluates to `true` if `k` had an instantiation (the kernel ran) and
/// `false` otherwise (nothing touched).
macro_rules! dispatch_const_k {
    ($k:expr, unsafe $kernel:ident::<$T:ty, $I:ty>($($args:expr),* $(,)?)) => {
        dispatch_const_k!(@go $k; (unsafe_plain) $kernel::<$T, $I>($($args),*))
    };
    ($k:expr, unsafe $kernel:ident::<$T:ty, $I:ty, {$MR:literal}>($($args:expr),* $(,)?)) => {
        dispatch_const_k!(@go $k; (unsafe_mr $MR) $kernel::<$T, $I>($($args),*))
    };
    // The single authoritative instantiation list (== SUPPORTED_K).
    (@go $k:expr; $($shape:tt)*) => {
        dispatch_const_k!(@munch $k; [8 16 32 64 128 256 512]; $($shape)*)
    };
    (@munch $k:expr; []; $($shape:tt)*) => { false };
    (@munch $k:expr; [$K:literal $($rest:literal)*]; $($shape:tt)*) => {
        if $k == $K {
            dispatch_const_k!(@call $K; $($shape)*);
            true
        } else {
            dispatch_const_k!(@munch $k; [$($rest)*]; $($shape)*)
        }
    };
    (@call $K:literal; (unsafe_plain) $kernel:ident::<$T:ty, $I:ty>($($args:expr),*)) => {
        // SAFETY: forwarded — the `unsafe` call shape requires the caller
        // to discharge the kernel's safety contract at the dispatch site.
        unsafe { $kernel::<$T, $I, $K>($($args),*) }
    };
    (@call $K:literal; (unsafe_mr $MR:literal) $kernel:ident::<$T:ty, $I:ty>($($args:expr),*)) => {
        // SAFETY: forwarded, as above.
        unsafe { $kernel::<$T, $I, $MR, $K>($($args),*) }
    };
}
pub(crate) use dispatch_const_k;

/// Const-`K` SpMM of `data` over `exec` if it is one of the paper's four
/// formats and `k` is in [`SUPPORTED_K`]; returns `false` (C untouched)
/// otherwise.
pub(crate) fn spmm_fixed_k<T: Scalar, I: Index>(
    data: &FormatData<T, I>,
    exec: Exec<'_>,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) -> bool {
    if !SparseFormat::PAPER.contains(&data.format()) {
        return false;
    }
    check_spmm_shapes(data.rows(), data.cols(), b, k, c);
    let c = c.as_mut_slice();
    // SAFETY: a paper format, and C holds `rows × k` (shapes checked).
    dispatch_const_k!(k, unsafe spmm_const::<T, I>(data, exec, b, c))
}

/// SpMV `y = A · x` of `data` over `exec`: the `K = 1` instance of the
/// const-`K` bodies. Returns `false` for formats other than the paper's
/// four.
pub(crate) fn spmv<T: Scalar, I: Index>(
    data: &FormatData<T, I>,
    exec: Exec<'_>,
    x: &[T],
    y: &mut [T],
) -> bool {
    if !SparseFormat::PAPER.contains(&data.format()) {
        return false;
    }
    check_spmv_shapes(data.rows(), data.cols(), x, y);
    // SAFETY: a paper format, and y holds `rows × 1` (shapes checked).
    unsafe { spmm_const::<T, I, 1>(data, exec, x, y) };
    true
}

/// The `simd` variant's SpMM: the normal serial range body of CSR, ELL,
/// BCSR or SELL-C-σ at `level`, reading B with a fused multiply-add at
/// every level but [`SimdLevel::Scalar`], where it is the normal serial
/// kernel bit for bit. A level the CPU lacks runs as `Scalar`. Returns
/// `false` (C untouched) for the other formats.
pub(crate) fn spmm_simd<T: Scalar, I: Index>(
    data: &FormatData<T, I>,
    level: SimdLevel,
    b: &DenseMatrix<T>,
    k: usize,
    c: &mut DenseMatrix<T>,
) -> bool {
    /// # Safety
    /// As for the range bodies, over the whole matrix.
    unsafe fn run<T: Scalar, I: Index>(
        data: &FormatData<T, I>,
        level: SimdLevel,
        b: impl ReadB<T>,
        k: usize,
        c: &DisjointSlice<'_, T>,
    ) {
        // SAFETY (every arm): forwarded from this fn's contract.
        match data {
            FormatData::Csr(m) => unsafe { csr_rows(level, m, b, k, 0..m.rows(), c) },
            FormatData::Ell(m) => unsafe { ell_rows(level, m, b, k, 0..m.rows(), c) },
            FormatData::Bcsr(m) => unsafe { bcsr_block_rows(level, m, b, k, 0..m.block_rows(), c) },
            FormatData::Sell(m) => unsafe { sell_slices(level, m, b, k, 0..m.nslices(), c) },
            _ => unreachable!("{} has no simd kernel", data.format()),
        }
    }
    let supported = matches!(
        data,
        FormatData::Csr(_) | FormatData::Ell(_) | FormatData::Bcsr(_) | FormatData::Sell(_)
    );
    if !supported {
        return false;
    }
    check_spmm_shapes(data.rows(), data.cols(), b, k, c);
    let level = simd::supported(level);
    let c = DisjointSlice::new(c.as_mut_slice());
    // SAFETY: the only writer of C, shapes checked, and a level this CPU
    // supports.
    unsafe {
        if level == SimdLevel::Scalar {
            run(data, level, b, k, &c);
        } else {
            run(data, level, Fused(b), k, &c);
        }
    }
    true
}

/// The `simd` variant's SpMV `y = A · x`: CSR's gathered dot or
/// SELL-C-σ's lane-inner slice walk at `level`, fused at every level but
/// [`SimdLevel::Scalar`]. Both reassociate each row sum, so unlike
/// [`spmv`] they are not SpMM at `k = 1`. A level the CPU lacks runs as
/// `Scalar`. Returns `false` for the other formats.
pub(crate) fn spmv_simd<T: Scalar, I: Index>(
    data: &FormatData<T, I>,
    level: SimdLevel,
    x: &[T],
    y: &mut [T],
) -> bool {
    /// # Safety
    /// As for the SpMV bodies.
    unsafe fn run<T: Scalar, I: Index>(
        data: &FormatData<T, I>,
        level: SimdLevel,
        x: impl ReadB<T>,
        y: &mut [T],
    ) {
        // SAFETY (every arm): forwarded from this fn's contract.
        match data {
            FormatData::Csr(m) => unsafe { csr_spmv_dot(level, m, x, y) },
            FormatData::Sell(m) => unsafe { sell_spmv_lanes(level, m, x, y) },
            _ => unreachable!("{} has no simd SpMV kernel", data.format()),
        }
    }
    if !matches!(data, FormatData::Csr(_) | FormatData::Sell(_)) {
        return false;
    }
    check_spmv_shapes(data.rows(), data.cols(), x, y);
    let level = simd::supported(level);
    // SAFETY: shapes checked, and a level this CPU supports.
    unsafe {
        if level == SimdLevel::Scalar {
            run(data, level, x, y);
        } else {
            run(data, level, Fused(x), y);
        }
    }
    true
}

/// `C = A · B` through the const-`K` body of `data`'s format, run over
/// `exec` at the [`active_level`]. `c` holds C row-major (`rows × K`).
///
/// # Safety
/// `data` is COO, CSR, ELL or BCSR, and `c.len() == data.rows() * K`.
unsafe fn spmm_const<T: Scalar, I: Index, const K: usize>(
    data: &FormatData<T, I>,
    exec: Exec<'_>,
    b: impl ReadB<T> + Sync,
    c: &mut [T],
) {
    let level = active_level();
    if let FormatData::Coo(_) = data {
        c.fill(T::ZERO);
    }
    let c = DisjointSlice::new(c);
    // SAFETY (every arm): `exec` hands each call a disjoint range
    // (row-aligned for COO) that owns its C rows; shapes per this fn's
    // contract; the level comes from `active_level`.
    match data {
        FormatData::Coo(m) => exec.coo_ranges(m, |entries| unsafe {
            coo_entries_const::<T, I, K, _>(level, m, b, entries, &c)
        }),
        FormatData::Csr(m) => exec.ranges(m.rows(), |rows| unsafe {
            csr_rows_const::<T, I, K, _>(level, m, b, rows, &c)
        }),
        FormatData::Ell(m) => exec.ranges(m.rows(), |rows| unsafe {
            ell_rows_const::<T, I, K, _>(level, m, b, rows, &c)
        }),
        FormatData::Bcsr(m) => exec.ranges(m.block_rows(), |block_rows| unsafe {
            bcsr_block_rows_const::<T, I, K, _>(level, m, b, block_rows, &c)
        }),
        _ => unreachable!("{} has no const-K kernel", data.format()),
    }
}

// ---------------------------------------------------------------------------
// Range bodies. Each row accumulates in a `[T; K]` register array and is
// written to C, the `a.rows() × K` buffer `c`, once. B is read through a
// `ReadB`: B itself, or SpMV's x at `K = 1`.
//
// SAFETY contract (all): `c` holds `a.rows() × K` elements, and this call
// has exclusive access to every C row its range writes.
// ---------------------------------------------------------------------------

isa_twin! {
    /// `C[r] += A[r] · B` over the COO entries in `entries`. Accumulates
    /// (the caller clears C). A run of entries in one row shares a
    /// register accumulator, flushed into C when the row changes — the
    /// load hoisting applied to C.
    unsafe fn coo_entries_const<T: Scalar, I: Index, const K: usize, B: ReadB<T>>(
        a: &CooMatrix<T, I>,
        b: B,
        entries: Range<usize>,
        c: &DisjointSlice<'_, T>,
    ) {
        let (rows, cols, vals) = (a.row_indices(), a.col_indices(), a.values());
        let flush = |row: usize, acc: &[T; K]| {
            // SAFETY: exclusive row access per the contract above.
            let c_row = unsafe { c.slice_mut(row * K, K) };
            for (cv, &av) in c_row.iter_mut().zip(acc) {
                *cv += av;
            }
        };
        let mut acc = [T::ZERO; K];
        let mut current = None;
        for e in entries {
            let r = rows[e].as_usize();
            if current != Some(r) {
                if let Some(row) = current {
                    flush(row, &acc);
                }
                acc = [T::ZERO; K];
                current = Some(r);
            }
            b.axpy(&mut acc, vals[e], cols[e].as_usize(), K);
        }
        if let Some(row) = current {
            flush(row, &acc);
        }
    }

    /// CSR rows `rows` of C, each overwritten.
    unsafe fn csr_rows_const<T: Scalar, I: Index, const K: usize, B: ReadB<T>>(
        a: &CsrMatrix<T, I>,
        b: B,
        rows: Range<usize>,
        c: &DisjointSlice<'_, T>,
    ) {
        for i in rows {
            let mut acc = [T::ZERO; K];
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                b.axpy(&mut acc, v, j.as_usize(), K);
            }
            // SAFETY: exclusive row access per the contract above.
            unsafe { c.slice_mut(i * K, K) }.copy_from_slice(&acc);
        }
    }

    /// ELLPACK rows `rows` of C, each overwritten.
    unsafe fn ell_rows_const<T: Scalar, I: Index, const K: usize, B: ReadB<T>>(
        a: &EllMatrix<T, I>,
        b: B,
        rows: Range<usize>,
        c: &DisjointSlice<'_, T>,
    ) {
        for i in rows {
            let mut acc = [T::ZERO; K];
            for (&j, &v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
                b.axpy(&mut acc, v, j.as_usize(), K);
            }
            // SAFETY: exclusive row access per the contract above.
            unsafe { c.slice_mut(i * K, K) }.copy_from_slice(&acc);
        }
    }

    /// The C rows of BCSR block rows `block_rows`, each overwritten.
    unsafe fn bcsr_block_rows_const<T: Scalar, I: Index, const K: usize, B: ReadB<T>>(
        a: &BcsrMatrix<T, I>,
        b: B,
        block_rows: Range<usize>,
        c: &DisjointSlice<'_, T>,
    ) {
        let (r, bc_w) = (a.block_r(), a.block_c());
        let (rows, cols) = (a.rows(), a.cols());
        for bi in block_rows {
            let row_lo = bi * r;
            for i in row_lo..(row_lo + r).min(rows) {
                let mut acc = [T::ZERO; K];
                for (bcol, block) in a.block_row(bi) {
                    let col_lo = bcol * bc_w;
                    let brow = &block[(i - row_lo) * bc_w..(i - row_lo + 1) * bc_w];
                    for (lc, &v) in brow.iter().enumerate() {
                        let j = col_lo + lc;
                        // Ragged edge blocks may extend past the matrix;
                        // their out-of-range slots are zero but must not
                        // index B.
                        if j < cols && v != T::ZERO {
                            b.axpy(&mut acc, v, j, K);
                        }
                    }
                }
                // SAFETY: exclusive row access per the contract above.
                unsafe { c.slice_mut(i * K, K) }.copy_from_slice(&acc);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The `simd` variant's SpMV bodies, serial only. x is read through a
// `ReadB` (a slice, or a fused one) as a `cols × 1` B.
//
// SAFETY contract (both): `x` holds `a.cols()` elements and `y`
// `a.rows()`.
// ---------------------------------------------------------------------------

isa_twin! {
    /// CSR SpMV, each row a gathered dot product over four partial sums:
    /// entry `4m + l` goes to sum `l`, the sums add as `(s0 + s2) + (s1 +
    /// s3)`, and the last `nnz mod 4` entries follow in order. The four
    /// independent add chains overlap where the `K = 1` body waits on one.
    unsafe fn csr_spmv_dot<T: Scalar, I: Index, B: ReadB<T>>(
        a: &CsrMatrix<T, I>,
        x: B,
        y: &mut [T],
    ) {
        let madd = |acc: &mut T, v: T, j: I| x.axpy(std::slice::from_mut(acc), v, j.as_usize(), 1);
        for (i, yi) in y.iter_mut().enumerate() {
            let (cols, vals) = a.row(i);
            let (cols4, vals4) = (cols.chunks_exact(4), vals.chunks_exact(4));
            let tail = cols4.remainder().iter().zip(vals4.remainder());
            let mut acc = [T::ZERO; 4];
            for (c4, v4) in cols4.zip(vals4) {
                for l in 0..4 {
                    madd(&mut acc[l], v4[l], c4[l]);
                }
            }
            let mut sum = (acc[0] + acc[2]) + (acc[1] + acc[3]);
            for (&j, &v) in tail {
                madd(&mut sum, v, j);
            }
            *yi = sum;
        }
    }

    /// SELL-C-σ SpMV, lane-inner: a group of a slice's lanes accumulates
    /// side by side in a stack array while the walk runs over its
    /// slot-major values, so each slot is a few contiguous values and as
    /// many independent sums (Kreutzer et al.). Lanes go in groups of four,
    /// whose sums stay in registers, and the last `C mod 4` one by one.
    /// Ghost lanes and in-row padding hold zero values with a valid column,
    /// so they need no test; ghost lanes are dropped on write.
    unsafe fn sell_spmv_lanes<T: Scalar, I: Index, B: ReadB<T>>(
        a: &SellMatrix<T, I>,
        x: B,
        y: &mut [T],
    ) {
        /// The sums of lanes `lo..lo + G` of a slice of `height` lanes.
        #[inline(always)]
        fn group<T: Scalar, I: Index, B: ReadB<T>, const G: usize>(
            x: B,
            (cols, vals): (&[I], &[T]),
            height: usize,
            lo: usize,
        ) -> [T; G] {
            let mut acc = [T::ZERO; G];
            for (cs, vs) in cols.chunks_exact(height).zip(vals.chunks_exact(height)) {
                let (cs, vs) = (&cs[lo..lo + G], &vs[lo..lo + G]);
                for l in 0..G {
                    x.axpy(std::slice::from_mut(&mut acc[l]), vs[l], cs[l].as_usize(), 1);
                }
            }
            acc
        }

        let (height, rows) = (a.slice_height(), a.rows());
        let full = height - height % 4;
        for s in 0..a.nslices() {
            let slice = (a.slice_cols(s), a.slice_vals(s));
            let mut write = |lo: usize, sums: &[T]| {
                for (l, &sum) in sums.iter().enumerate() {
                    let p = s * height + lo + l;
                    if p < rows {
                        y[a.row_at(p)] = sum;
                    }
                }
            };
            for lo in (0..full).step_by(4) {
                write(lo, &group::<T, I, B, 4>(x, slice, height, lo));
            }
            for lo in full..height {
                write(lo, &group::<T, I, B, 1>(x, slice, height, lo));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_parallel::{Schedule, ThreadPool};

    fn fixture() -> (CooMatrix<f64>, DenseMatrix<f64>) {
        let mut trips = Vec::new();
        for i in 0..30usize {
            for d in 0..(i % 5 + 1) {
                trips.push((i, (i * 3 + d * 7) % 20, (i as f64 - d as f64) * 0.5 + 1.0));
            }
        }
        let coo = CooMatrix::from_triplets(30, 20, &trips).unwrap();
        let b = DenseMatrix::from_fn(20, 64, |i, j| ((i * 7 + j) % 13) as f64 - 6.0);
        (coo, b)
    }

    fn paper_formats(coo: &CooMatrix<f64>, block: usize) -> Vec<FormatData<f64>> {
        SparseFormat::PAPER
            .iter()
            .map(|&f| FormatData::from_coo(f, coo, block).unwrap())
            .collect()
    }

    #[test]
    fn const_k_kernels_match_reference() {
        let (coo, b) = fixture();
        for data in paper_formats(&coo, 3) {
            for k in [8usize, 16, 32, 64] {
                let expected = coo.spmm_reference_k(&b, k);
                let mut c = DenseMatrix::from_fn(30, k, |_, _| 7.0);
                assert!(data.spmm_serial_fixed_k(&b, k, &mut c), "k={k}");
                assert_eq!(c, expected, "{} k={k}", data.format());
            }
        }
    }

    #[test]
    fn unsupported_k_reports_false_and_leaves_c_alone() {
        let (coo, b) = fixture();
        let csr = FormatData::Csr(CsrMatrix::from_coo(&coo));
        let mut c = DenseMatrix::from_fn(30, 7, |_, _| 42.0);
        assert!(!csr.spmm_serial_fixed_k(&b, 7, &mut c));
        assert!(c.as_slice().iter().all(|&v| v == 42.0));
    }

    #[test]
    fn parallel_const_k_matches() {
        let pool = ThreadPool::new(4);
        let (coo, b) = fixture();
        let expected = coo.spmm_reference_k(&b, 32);
        for data in paper_formats(&coo, 3) {
            let ran = matches!(data, FormatData::Csr(_) | FormatData::Ell(_));
            for (threads, schedule) in [(4, Schedule::Static), (3, Schedule::Dynamic(2))] {
                let mut c = DenseMatrix::zeros(30, 32);
                let got = data.spmm_parallel_fixed_k(&pool, threads, schedule, &b, 32, &mut c);
                assert_eq!(got, ran, "{}", data.format());
                if ran {
                    assert_eq!(c, expected, "{} {schedule:?}", data.format());
                }
            }
        }
    }

    #[test]
    fn coo_run_accumulator_handles_gaps_and_tail() {
        // Rows 0 and 29 populated with a long empty gap between; the
        // carried accumulator must flush correctly at both row change and
        // end of stream.
        let coo = CooMatrix::<f64>::from_triplets(30, 8, &[(0, 1, 2.0), (0, 2, 3.0), (29, 7, 4.0)])
            .unwrap();
        let b = DenseMatrix::from_fn(8, 8, |i, j| (i + j) as f64);
        let expected = coo.spmm_reference(&b);
        let mut c = DenseMatrix::zeros(30, 8);
        assert!(FormatData::Coo(coo).spmm_serial_fixed_k(&b, 8, &mut c));
        assert_eq!(c, expected);
    }

    #[test]
    fn supported_k_list_is_dispatchable() {
        let (coo, b16) = fixture();
        let csr = FormatData::Csr(CsrMatrix::from_coo(&coo));
        // b only has 64 columns; widen for the big K values.
        let b = DenseMatrix::from_fn(20, 512, |i, j| b16.get(i, j % 64));
        for &k in &SUPPORTED_K {
            let mut c = DenseMatrix::zeros(30, k);
            assert!(csr.spmm_serial_fixed_k(&b, k, &mut c), "k={k}");
            assert_eq!(c, coo.spmm_reference_k(&b, k), "k={k}");
        }
    }

    #[test]
    fn spmv_matches_reference_serial_and_parallel() {
        let (coo, _) = fixture();
        let x: Vec<f64> = (0..20).map(|i| i as f64 * 0.25 - 2.0).collect();
        let expected = coo.spmv_reference(&x);
        let pool = ThreadPool::new(4);
        for data in paper_formats(&coo, 3) {
            let mut y = vec![9.0; 30];
            assert!(data.spmv_serial(&x, &mut y));
            assert_eq!(y, expected, "{} serial", data.format());
            for (t, schedule) in [
                (1, Schedule::Static),
                (2, Schedule::Dynamic(1)),
                (5, Schedule::Static),
            ] {
                let mut y = vec![9.0; 30];
                assert!(data.spmv_parallel(&pool, t, schedule, &x, &mut y));
                assert_eq!(y, expected, "{} t={t}", data.format());
            }
        }
    }

    #[test]
    fn spmv_is_spmm_at_k1() {
        // The batched-vectors story of §2.3: SpMV is SpMM with k = 1.
        let (coo, _) = fixture();
        let x: Vec<f64> = (0..20).map(|i| 1.0 / (i as f64 + 3.0)).collect();
        let b = DenseMatrix::from_vec(20, 1, x.clone()).unwrap();
        for data in paper_formats(&coo, 4) {
            let mut c = DenseMatrix::zeros(30, 1);
            data.spmm_serial(&b, 1, &mut c);
            let mut y = vec![0.0; 30];
            assert!(data.spmv_serial(&x, &mut y));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y), bits(c.as_slice()), "{}", data.format());
        }
    }
}

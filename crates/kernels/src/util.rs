//! Internal helpers shared by every CPU kernel family.

use std::marker::PhantomData;
use std::ops::Range;

use spmm_core::{CooMatrix, DenseMatrix, Index, Scalar};
use spmm_parallel::{Schedule, ThreadPool};

/// Compile each kernel body it wraps twice — for the baseline target and
/// under `#[target_feature(enable = "avx2", enable = "fma")]` — behind one
/// function that takes a leading [`SimdLevel`] and runs the AVX2+FMA copy
/// when the level is [`SimdLevel::Avx2Fma`], the portable one otherwise.
/// The body is `#[inline(always)]`, so LLVM inlines it (and the `axpy`
/// loops inside it) into the AVX2 copy and vectorizes them 256 bits wide.
/// [`Scalar::mul_add`] is an unfused `a * b + c` that Rust never
/// contracts, and [`Scalar::fused_mul_add`] (the [`Fused`] readers) is
/// correctly rounded in both copies, so both copies compute
/// bit-identical results.
///
/// Each wrapped item is an `unsafe fn` over `<T: Scalar, I: Index, const
/// ..: usize>`, optionally followed by `B: ReadB<T>` for the flat bodies
/// that are generic in how they read B (see [`ReadB`]). The generated
/// function keeps the body's contract, plus: `level` must be one the
/// running CPU supports — a value returned by
/// [`active_level`](crate::simd::active_level), which
/// [`set_level_override`](crate::simd::set_level_override) clamps to
/// probed levels.
///
/// [`SimdLevel`]: crate::simd::SimdLevel
/// [`SimdLevel::Avx2Fma`]: crate::simd::SimdLevel::Avx2Fma
/// [`Scalar::mul_add`]: spmm_core::Scalar::mul_add
/// [`Scalar::fused_mul_add`]: spmm_core::Scalar::fused_mul_add
macro_rules! isa_twin {
    // One item, its generics normalised to a declaration list and the
    // matching turbofish list.
    (@emit $(#[$attr:meta])* $vis:vis $name:ident [$($decl:tt)*] [$($args:tt)*]
        ($($arg:ident: $ty:ty),*) $body:block) => {
        $(#[$attr])*
        #[allow(clippy::too_many_arguments)]
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
        $vis unsafe fn $name<$($decl)*>(level: $crate::simd::SimdLevel, $($arg: $ty),*) {
            #[inline(always)]
            #[allow(clippy::too_many_arguments)]
            unsafe fn body<$($decl)*>($($arg: $ty),*) $body

            #[cfg(target_arch = "x86_64")]
            if level == $crate::simd::SimdLevel::Avx2Fma {
                // Safety: the body's contract, and AVX2 and FMA available.
                #[target_feature(enable = "avx2", enable = "fma")]
                #[allow(clippy::too_many_arguments)]
                unsafe fn avx2<$($decl)*>($($arg: $ty),*) {
                    // SAFETY: the body's contract is forwarded verbatim.
                    unsafe { body::<$($args)*>($($arg),*) }
                }
                // SAFETY: the body's contract is forwarded; the caller
                // passes a level the CPU was probed for, so AVX2 and FMA
                // are available.
                return unsafe { avx2::<$($args)*>($($arg),*) };
            }
            // SAFETY: the body's contract is forwarded verbatim.
            unsafe { body::<$($args)*>($($arg),*) }
        }
    };
    () => {};
    (
        $(#[$attr:meta])*
        $vis:vis unsafe fn $name:ident<
            $T:ident: Scalar, $I:ident: Index $(, const $C:ident: usize)*
        >($($arg:ident: $ty:ty),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $crate::util::isa_twin! {
            @emit $(#[$attr])* $vis $name
            [$T: spmm_core::Scalar, $I: spmm_core::Index $(, const $C: usize)*]
            [$T, $I $(, $C)*]
            ($($arg: $ty),*) $body
        }
        $crate::util::isa_twin! { $($rest)* }
    };
    // The reader is matched by its name `B`, not as a fragment, so the
    // matcher can tell it from a const parameter. `>>` is one token in the
    // input, so the matcher spells it as one.
    (
        $(#[$attr:meta])*
        $vis:vis unsafe fn $name:ident<
            $T:ident: Scalar, $I:ident: Index, $(const $C:ident: usize,)* B: ReadB<$BT:ident>>(
            $($arg:ident: $ty:ty),* $(,)?
        ) $body:block
        $($rest:tt)*
    ) => {
        $crate::util::isa_twin! {
            @emit $(#[$attr])* $vis $name
            [$T: spmm_core::Scalar, $I: spmm_core::Index, $(const $C: usize,)* B: $crate::util::ReadB<$BT>]
            [$T, $I, $($C,)* B]
            ($($arg: $ty),*) $body
        }
        $crate::util::isa_twin! { $($rest)* }
    };
}
pub(crate) use isa_twin;

/// A shareable pointer to a mutable slice for parallel kernels that write
/// disjoint regions (distinct C rows / block rows / tiles) from multiple
/// threads.
pub(crate) struct DisjointSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: every user hands out non-overlapping sub-slices (asserted in
// `slice_mut`); the underlying `&mut [T]` outlives the parallel region
// because the pool blocks until all participants finish.
unsafe impl<T: Send> Send for DisjointSlice<'_, T> {}
unsafe impl<T: Send> Sync for DisjointSlice<'_, T> {}

impl<'a, T> DisjointSlice<'a, T> {
    pub(crate) fn new(slice: &'a mut [T]) -> Self {
        DisjointSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// A mutable view of `start..start + len`.
    ///
    /// # Safety
    /// Callers must guarantee no two live views overlap.
    // The `&self -> &mut` shape is the point of this type: it is the
    // aliasing escape hatch the parallel kernels build their disjointness
    // argument on (clippy::mut_from_ref flags exactly this pattern).
    #[allow(clippy::mut_from_ref)]
    #[inline(always)]
    pub(crate) unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start + len <= self.len, "disjoint slice out of bounds");
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

/// `c_row[..] += a * b_row[..]` over exactly `k` leading elements.
///
/// The slice re-borrow (`&b_row[..k]`) pins both lengths so LLVM drops the
/// bounds checks and vectorizes the loop.
#[inline(always)]
pub(crate) fn axpy<T: Scalar>(c_row: &mut [T], a: T, b_row: &[T], k: usize) {
    let c_row = &mut c_row[..k];
    let b_row = &b_row[..k];
    for (cv, &bv) in c_row.iter_mut().zip(b_row) {
        *cv = a.mul_add(bv, *cv);
    }
}

/// How a flat kernel body reads B: [`ReadB::axpy`] adds `v · B[j][..k]`
/// to a C row. `&DenseMatrix` reads row `j` of B itself, contiguous;
/// [`Transposed`](crate::transpose::Transposed) gathers it from a
/// pre-transposed B (Study 8); a slice is SpMV's x, a `cols × 1` B; and
/// [`Fused`] reads either of the last two with a fused multiply-add (the
/// `simd` variant). The bodies are monomorphised per reader, so the
/// row-major instance compiles to the same loop as a body written against
/// `&DenseMatrix` directly.
pub(crate) trait ReadB<T>: Copy {
    /// `c_row[..k] += v · B[j][..k]`.
    fn axpy(self, c_row: &mut [T], v: T, j: usize, k: usize);
}

impl<T: Scalar> ReadB<T> for &DenseMatrix<T> {
    #[inline(always)]
    fn axpy(self, c_row: &mut [T], v: T, j: usize, k: usize) {
        axpy(c_row, v, self.row(j), k);
    }
}

impl<T: Scalar> ReadB<T> for &[T] {
    #[inline(always)]
    fn axpy(self, c_row: &mut [T], v: T, j: usize, k: usize) {
        debug_assert_eq!(k, 1, "a vector is a one-column B");
        c_row[0] = v.mul_add(self[j], c_row[0]);
    }
}

/// B or x read as by the wrapped reader, but with every multiply-add fused
/// ([`Scalar::fused_mul_add`]): one rounding per term instead of two.
/// The `simd` variant's readers, run only at a level with FMA: built for
/// AVX2+FMA each term is one `vfmadd`, where a build without FMA would
/// call libm.
#[derive(Clone, Copy)]
pub(crate) struct Fused<R>(pub(crate) R);

impl<T: Scalar> ReadB<T> for Fused<&DenseMatrix<T>> {
    #[inline(always)]
    fn axpy(self, c_row: &mut [T], v: T, j: usize, k: usize) {
        let c_row = &mut c_row[..k];
        let b_row = &self.0.row(j)[..k];
        for (cv, &bv) in c_row.iter_mut().zip(b_row) {
            *cv = v.fused_mul_add(bv, *cv);
        }
    }
}

impl<T: Scalar> ReadB<T> for Fused<&[T]> {
    #[inline(always)]
    fn axpy(self, c_row: &mut [T], v: T, j: usize, k: usize) {
        debug_assert_eq!(k, 1, "a vector is a one-column B");
        c_row[0] = v.fused_mul_add(self.0[j], c_row[0]);
    }
}

/// Where a kernel runs its range body: once over the whole range on the
/// calling thread, or once per chunk of a pool's parallel loop.
#[derive(Clone, Copy)]
pub(crate) enum Exec<'p> {
    /// One call over the whole range.
    Serial,
    /// One call per chunk of `pool.parallel_for(threads, .., schedule)`.
    Parallel(&'p ThreadPool, usize, Schedule),
}

impl Exec<'_> {
    /// Run `body` over `0..n`: once, or once per chunk. Chunks are
    /// disjoint, so a body whose range owns its C rows needs no locking.
    pub(crate) fn ranges(self, n: usize, body: impl Fn(Range<usize>) + Sync) {
        match self {
            Exec::Serial => body(0..n),
            Exec::Parallel(pool, threads, schedule) => {
                pool.parallel_for(threads, 0..n, schedule, body)
            }
        }
    }

    /// Run `body` over ranges of `a`'s entries such that no row has
    /// entries in two ranges. A parallel run splits the entries evenly and
    /// pushes each cut forward to a row start; the split is static, since
    /// COO has no cheap way to rebalance, so the schedule is ignored. The
    /// cuts keep rows whole only when the entries are sorted by row, which
    /// one O(nnz) scan checks; otherwise (a `CooMatrix` filled by `push`
    /// keeps insertion order) one range covers every entry.
    pub(crate) fn coo_ranges<T: Scalar, I: Index>(
        self,
        a: &CooMatrix<T, I>,
        body: impl Fn(Range<usize>) + Sync,
    ) {
        let rows = a.row_indices();
        let nnz = rows.len();
        match self {
            Exec::Parallel(pool, threads, _) if rows.windows(2).all(|w| w[0] <= w[1]) => {
                let threads = threads.clamp(1, nnz.max(1));
                let cut = |t: usize| {
                    let mut at = t * nnz / threads;
                    while at > 0 && at < nnz && rows[at] == rows[at - 1] {
                        at += 1;
                    }
                    at
                };
                pool.broadcast(threads, |t| body(cut(t)..cut(t + 1)));
            }
            _ => body(0..nnz),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_accumulates_prefix_only() {
        let mut c = vec![1.0f64; 6];
        let b = vec![2.0f64; 6];
        axpy(&mut c, 3.0, &b, 4);
        assert_eq!(c, vec![7.0, 7.0, 7.0, 7.0, 1.0, 1.0]);
    }

    #[test]
    fn disjoint_slice_subviews() {
        let mut data = vec![0u32; 10];
        let ds = DisjointSlice::new(&mut data);
        // Two non-overlapping views, used here on one thread.
        let a = unsafe { ds.slice_mut(0, 5) };
        let b = unsafe { ds.slice_mut(5, 5) };
        a.fill(1);
        b.fill(2);
        assert_eq!(data[4], 1);
        assert_eq!(data[5], 2);
    }
}

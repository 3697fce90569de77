//! # spmm-kernels
//!
//! The SpMM and SpMV computation kernels of SpMM-Bench.
//!
//! For every format of [`spmm_core`] this crate provides the kernel matrix
//! the paper benchmarks:
//!
//! * **serial** SpMM ([`serial`]) — the baseline calculation function;
//! * **parallel** SpMM ([`parallel`]) — OpenMP-style row/block/tile
//!   parallel loops over the [`spmm_parallel::ThreadPool`];
//! * **transposed-B** variants ([`transpose`]) — Study 8's kernels, which
//!   read a pre-transposed B with the dense-multiply access pattern;
//! * **const-`K` specialized** variants ([`optimized`]) — Study 9's manual
//!   optimizations: the k-loop bound baked in at compile time (C++
//!   templates in the thesis, const generics here) plus hoisted value
//!   loads;
//! * **SpMV** — the paper's §6.3.4 future-work extension, the `K = 1`
//!   instance of the const-`K` kernels.
//!
//! Each of these families has one range body per format, shared by its
//! serial entry point (one call over the whole matrix) and its parallel
//! one (one call per chunk), and compiled both for the portable target and
//! for AVX2+FMA, picked at run time by [`simd::active_level`]. The
//! transposed-B kernels are the serial bodies with a different B read; the
//! tiled engine ([`tiled`]) and the explicit vector kernels ([`simd`])
//! complete the set.
//!
//! Every SpMM kernel shares one contract: `C` (shape `a.rows() × k`) is
//! fully overwritten, `B` must have at least `k` columns (the suite's `-k`
//! flag picks how much of the multiplication to perform), and the result
//! equals the COO reference multiply bit-for-bit in exact arithmetic.
//!
//! [`dispatch::FormatData`] packages a formatted matrix with uniform
//! `spmm_*` entry points so the harness can drive every (format × backend ×
//! variant) combination from run-time parameters.

#![warn(missing_docs)]
// Kernel loops index several parallel arrays at once (col_idx, values,
// bounds); the zip/enumerate rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]

pub mod dispatch;
pub mod extended;
pub mod optimized;
pub mod parallel;
pub mod serial;
pub mod simd;
pub mod tiled;
pub mod transpose;
mod util;
pub mod workspace;

pub use dispatch::FormatData;
pub use workspace::{Workspace, WorkspaceView};

use spmm_core::{DenseMatrix, Scalar};

/// Validate the shared SpMM kernel contract; called by every kernel.
#[inline]
pub(crate) fn check_spmm_shapes<T: Scalar>(
    a_rows: usize,
    a_cols: usize,
    b: &DenseMatrix<T>,
    k: usize,
    c: &DenseMatrix<T>,
) {
    assert_eq!(
        a_cols,
        b.rows(),
        "A has {a_cols} cols but B has {} rows",
        b.rows()
    );
    assert!(k <= b.cols(), "k = {k} exceeds B's {} columns", b.cols());
    assert_eq!(
        c.rows(),
        a_rows,
        "C has {} rows but A has {a_rows}",
        c.rows()
    );
    assert_eq!(c.cols(), k, "C has {} cols but k = {k}", c.cols());
}

/// Validate the SpMV contract: `x` has `a_cols` entries, `y` `a_rows`.
#[inline]
pub(crate) fn check_spmv_shapes<T>(a_rows: usize, a_cols: usize, x: &[T], y: &[T]) {
    assert_eq!(a_cols, x.len(), "A has {a_cols} cols but x has {}", x.len());
    assert_eq!(a_rows, y.len(), "A has {a_rows} rows but y has {}", y.len());
}

/// Floating-point operations one SpMM performs: 2 flops (multiply + add)
/// per stored entry per k-column. Blocked formats do the padded work, so
/// their `stored_entries` (not the real nnz) is what the hardware executes;
/// the paper's MFLOPS figures count *useful* flops (`nnz * 2k`), which is
/// what this returns.
pub fn spmm_flops(nnz: usize, k: usize) -> u64 {
    2 * nnz as u64 * k as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_count() {
        assert_eq!(spmm_flops(100, 128), 25_600);
        assert_eq!(spmm_flops(0, 128), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds B")]
    fn shape_check_rejects_big_k() {
        let b = DenseMatrix::<f64>::zeros(4, 8);
        let c = DenseMatrix::<f64>::zeros(4, 16);
        check_spmm_shapes(4, 4, &b, 16, &c);
    }
}

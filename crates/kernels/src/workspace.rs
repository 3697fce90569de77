//! Reusable execution buffers: the arena behind steady-state
//! zero-allocation benchmarking.
//!
//! Every scratch buffer a plan needs — the output C matrix, the SpMV y
//! vector, the Study-8 transposed B, the tiled engine's packed panels and
//! the nnz-balanced row partition — lives here and is grown once during
//! plan preparation, then reused verbatim by every timed iteration and by
//! back-to-back study points of compatible shape. Growth and reuse are
//! counted in the `spmm-trace` metrics registry (`workspace.alloc_bytes`,
//! `workspace.alloc_count`, `workspace.reuse_count`), which is how the
//! harness asserts the timed loop performs zero allocations.
//!
//! Every dense buffer here (C, y, the transposed B and the pack) is a
//! [`DenseMatrix`] or [`PackedPanels`] and so starts on a 64-byte boundary:
//! the kernels' vector loads and stores never split a cache line because of
//! where the heap happened to put a buffer.

use std::ops::Range;

use spmm_core::{DenseMatrix, PackedPanels, Scalar};

/// Record one acquire in the metrics registry: an allocation (the buffer
/// grew by `bytes`) or a reuse.
fn note(grew: bool, bytes: usize) {
    if !spmm_trace::enabled() {
        return;
    }
    if grew {
        spmm_trace::counter("workspace.alloc_count").inc();
        spmm_trace::counter("workspace.alloc_bytes").add(bytes as u64);
    } else {
        spmm_trace::counter("workspace.reuse_count").inc();
    }
}

/// The arena of reusable buffers threaded through the executor.
#[derive(Debug)]
pub struct Workspace<T> {
    c: DenseMatrix<T>,
    bt: DenseMatrix<T>,
    packed: PackedPanels<T>,
    y: DenseMatrix<T>,
    partition: Vec<Range<usize>>,
}

impl<T: Scalar> Default for Workspace<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> Workspace<T> {
    /// An empty workspace; buffers grow on first acquire.
    pub fn new() -> Self {
        Workspace {
            c: DenseMatrix::zeros(0, 0),
            bt: DenseMatrix::zeros(0, 0),
            packed: PackedPanels::empty(),
            y: DenseMatrix::zeros(0, 0),
            partition: Vec::new(),
        }
    }

    /// Acquire the output matrix at `rows × k`, zeroed.
    pub fn acquire_c(&mut self, rows: usize, k: usize) -> &mut DenseMatrix<T> {
        let grew = self.c.reset(rows, k);
        note(grew, rows * k * std::mem::size_of::<T>());
        &mut self.c
    }

    /// The output matrix as last produced.
    pub fn c(&self) -> &DenseMatrix<T> {
        &self.c
    }

    /// Mutable access to the output matrix without reshaping (the timed
    /// loop overwrites C in place; kernels zero their own rows).
    pub fn c_mut(&mut self) -> &mut DenseMatrix<T> {
        &mut self.c
    }

    /// Acquire the SpMV output vector at `rows`, zeroed.
    pub fn acquire_y(&mut self, rows: usize) -> &mut [T] {
        let grew = self.y.reset(rows, 1);
        note(grew, rows * std::mem::size_of::<T>());
        self.y.as_mut_slice()
    }

    /// The SpMV output as last produced.
    pub fn y(&self) -> &[T] {
        self.y.as_slice()
    }

    /// Transpose `b` into the workspace's scratch (Study 8's pre-pass).
    pub fn acquire_bt(&mut self, b: &DenseMatrix<T>) -> &DenseMatrix<T> {
        let grew = b.transposed_into(&mut self.bt);
        note(grew, b.rows() * b.cols() * std::mem::size_of::<T>());
        &self.bt
    }

    /// The transposed B as last produced.
    pub fn bt(&self) -> &DenseMatrix<T> {
        &self.bt
    }

    /// Pack the first `k` columns of `b` into `panel_w`-wide panels in
    /// the workspace's pack buffer.
    pub fn acquire_packed(
        &mut self,
        b: &DenseMatrix<T>,
        k: usize,
        panel_w: usize,
    ) -> &PackedPanels<T> {
        let grew = self.packed.pack_into(b, k, panel_w);
        note(grew, b.rows() * k * std::mem::size_of::<T>());
        &self.packed
    }

    /// The packed panels as last produced.
    pub fn packed(&self) -> &PackedPanels<T> {
        &self.packed
    }

    /// Compute an nnz-balanced row partition into the workspace's range
    /// buffer (see [`spmm_parallel::balanced_partition_into`]).
    pub fn acquire_partition(
        &mut self,
        n: usize,
        parts: usize,
        prefix: impl Fn(usize) -> usize,
    ) -> &[Range<usize>] {
        let grew = parts.max(1) > self.partition.capacity();
        note(grew, parts.max(1) * std::mem::size_of::<Range<usize>>());
        spmm_parallel::balanced_partition_into(n, parts, prefix, &mut self.partition);
        &self.partition
    }

    /// The partition as last computed.
    pub fn partition(&self) -> &[Range<usize>] {
        &self.partition
    }

    /// Split view: mutable C alongside shared packed/bt/partition, for
    /// kernels that read scratch while writing the output.
    pub fn split(&mut self) -> WorkspaceView<'_, T> {
        WorkspaceView {
            c: &mut self.c,
            y: self.y.as_mut_slice(),
            bt: &self.bt,
            packed: &self.packed,
            partition: &self.partition,
        }
    }
}

/// Disjoint borrows of a [`Workspace`]'s buffers (see
/// [`Workspace::split`]).
pub struct WorkspaceView<'a, T> {
    /// Output matrix (mutable).
    pub c: &'a mut DenseMatrix<T>,
    /// SpMV output (mutable).
    pub y: &'a mut [T],
    /// Transposed B scratch.
    pub bt: &'a DenseMatrix<T>,
    /// Packed B panels.
    pub packed: &'a PackedPanels<T>,
    /// Balanced row partition.
    pub partition: &'a [Range<usize>],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_reuse_without_growing() {
        let mut ws: Workspace<f64> = Workspace::new();
        ws.acquire_c(16, 8).set(3, 3, 1.0);
        assert_eq!(ws.c().get(3, 3), 1.0);
        // Same shape: contents rezeroed, no growth needed.
        assert_eq!(ws.acquire_c(16, 8).get(3, 3), 0.0);
        // Smaller shape also fits the existing allocation.
        ws.acquire_c(4, 4);
        assert_eq!((ws.c().rows(), ws.c().cols()), (4, 4));
    }

    #[test]
    fn alloc_metrics_track_growth_and_reuse() {
        spmm_trace::set_trace_level(spmm_trace::TraceLevel::Full);
        let before = spmm_trace::MetricsSnapshot::capture();
        let mut ws: Workspace<f64> = Workspace::new();
        ws.acquire_c(8, 8);
        ws.acquire_c(8, 8);
        ws.acquire_y(32);
        ws.acquire_y(16);
        let delta = spmm_trace::MetricsSnapshot::capture().delta_since(&before);
        spmm_trace::set_trace_level(spmm_trace::TraceLevel::Off);
        if spmm_trace::COMPILED_IN {
            // Other tests in this binary may touch workspaces concurrently
            // while the level is raised, so assert lower bounds.
            assert!(delta.counter("workspace.alloc_count").unwrap_or(0) >= 2);
            assert!(delta.counter("workspace.reuse_count").unwrap_or(0) >= 2);
            assert!(
                delta.counter("workspace.alloc_bytes").unwrap_or(0) >= (8 * 8 * 8 + 32 * 8) as u64
            );
        }
    }

    #[test]
    fn transpose_and_pack_scratch_round_trip() {
        let b = DenseMatrix::from_fn(6, 5, |i, j| (i * 5 + j) as f64);
        let mut ws: Workspace<f64> = Workspace::new();
        assert_eq!(ws.acquire_bt(&b), &b.transposed());
        assert_eq!(ws.acquire_packed(&b, 4, 2), &PackedPanels::pack(&b, 4, 2));
        // Re-acquiring with the same shapes reuses the buffers.
        assert_eq!(ws.acquire_bt(&b), &b.transposed());
        assert_eq!(ws.acquire_packed(&b, 4, 2), &PackedPanels::pack(&b, 4, 2));
    }

    fn starts_on_a_cache_line<T>(s: &[T]) -> bool {
        (s.as_ptr() as usize).is_multiple_of(64)
    }

    #[test]
    fn every_acquired_buffer_starts_on_a_cache_line() {
        let b = DenseMatrix::from_fn(37, 48, |i, j| (i * 48 + j) as f64);
        let mut ws: Workspace<f64> = Workspace::new();
        for rows in [37, 101, 5] {
            assert!(starts_on_a_cache_line(ws.acquire_c(rows, 48).as_slice()));
            assert!(starts_on_a_cache_line(ws.acquire_y(rows)));
            assert!(starts_on_a_cache_line(ws.acquire_bt(&b).as_slice()));
            for w in [8, 16, 24] {
                let packed = ws.acquire_packed(&b, 40, w);
                assert!((0..packed.n_panels()).all(|p| starts_on_a_cache_line(packed.panel(p))));
            }
        }
    }

    #[test]
    fn partition_matches_allocating_twin() {
        let prefix = |i: usize| i * i;
        let mut ws: Workspace<f64> = Workspace::new();
        let got = ws.acquire_partition(100, 4, prefix).to_vec();
        assert_eq!(got, spmm_parallel::balanced_partition(100, 4, prefix));
    }
}

//! Logical memory-traffic accounting for the telemetry layer.
//!
//! Kernels report *algorithmic* traffic — the bytes their access pattern
//! demands, ignoring cache reuse — so the numbers are exact, cheap to
//! compute once per kernel call, and comparable across formats. The
//! cache-aware counterpart lives in `spmm-perfmodel`, whose prediction
//! the report's attainment line divides by.

use crate::{MemoryFootprint, Scalar};

/// Bytes moved by one kernel call, split by direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    /// Bytes read: format payload plus every demanded B element.
    pub bytes_read: u64,
    /// Bytes written: the C (or y) output, written once.
    pub bytes_written: u64,
}

/// Algorithmic traffic of one SpMM call `C = A · B` with `k` dense columns.
///
/// Every stored entry of A demands `k` values of B (no reuse assumed),
/// the format payload is streamed once, and C is written once.
pub fn spmm_traffic(
    rows: usize,
    k: usize,
    stored_entries: usize,
    format_bytes: usize,
    value_bytes: usize,
) -> Traffic {
    Traffic {
        bytes_read: format_bytes as u64 + (stored_entries * k * value_bytes) as u64,
        bytes_written: (rows * k * value_bytes) as u64,
    }
}

/// Algorithmic traffic of one SpMV call `y = A · x` (SpMM with `k = 1`).
pub fn spmv_traffic(
    rows: usize,
    stored_entries: usize,
    format_bytes: usize,
    value_bytes: usize,
) -> Traffic {
    spmm_traffic(rows, 1, stored_entries, format_bytes, value_bytes)
}

/// Record a freshly built representation's footprint in the metrics
/// registry: bumps the `convert.calls` counter, adds to `convert.bytes_built`,
/// and samples the per-format `footprint_bytes[{format}]` histogram.
pub fn record_footprint<M: MemoryFootprint>(format_name: &str, matrix: &M) {
    if !spmm_trace::enabled() {
        return;
    }
    let bytes = matrix.memory_footprint() as u64;
    spmm_trace::counter("convert.calls").inc();
    spmm_trace::counter("convert.bytes_built").add(bytes);
    spmm_trace::histogram(&format!("footprint_bytes[{format_name}]")).record(bytes);
}

/// `value_bytes` for a scalar type, as needed by [`spmm_traffic`].
pub fn value_bytes<T: Scalar>() -> usize {
    T::BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmm_traffic_counts_all_directions() {
        // 4 rows, k=2, 6 stored entries, 100-byte format, f64 values.
        let t = spmm_traffic(4, 2, 6, 100, 8);
        assert_eq!(t.bytes_read, 100 + 6 * 2 * 8);
        assert_eq!(t.bytes_written, 4 * 2 * 8);
    }

    #[test]
    fn spmv_is_spmm_with_k_one() {
        assert_eq!(spmv_traffic(4, 6, 100, 8), spmm_traffic(4, 1, 6, 100, 8));
    }

    #[test]
    fn value_bytes_matches_scalar() {
        assert_eq!(value_bytes::<f64>(), 8);
        assert_eq!(value_bytes::<f32>(), 4);
    }
}

//! Every `FormatData` SpMM/SpMV entry point records its call exactly once
//! in the metrics registry: `*.kernel_calls` goes up by one and `*.flops`
//! by the useful flops when the kernel ran, and neither moves when the
//! entry point returned `false`.
//!
//! The counters are process-global, so this file is its own test binary
//! with a single test.

use spmm_core::{CooMatrix, DenseMatrix, SparseFormat};
use spmm_kernels::simd::{self, SimdLevel};
use spmm_kernels::tiled::TileConfig;
use spmm_kernels::{spmm_flops, FormatData};
use spmm_parallel::{Schedule, ThreadPool};
use spmm_trace::{MetricsSnapshot, TraceLevel};

const ROWS: usize = 37;
const COLS: usize = 29;
/// In `optimized::SUPPORTED_K`, so the const-K kernels run.
const K: usize = 16;

fn fixture() -> CooMatrix<f64> {
    let mut trips = Vec::new();
    for i in 0..ROWS {
        for d in 0..(i % 5 + 1) {
            trips.push((i, (i * 3 + d * 7) % COLS, 0.5 + (i + d) as f64 * 0.25));
        }
    }
    CooMatrix::from_triplets(ROWS, COLS, &trips).unwrap()
}

/// `(kernel_calls, flops)` deltas of one op's counters.
fn op_delta(delta: &MetricsSnapshot, op: &str) -> (u64, u64) {
    let get = |name: &str| delta.counter(&format!("{op}.{name}")).unwrap_or(0);
    (get("kernel_calls"), get("flops"))
}

/// Run one entry point and check both ops' counters against its return.
fn check(what: &str, op: &str, flops: u64, call: impl FnOnce() -> bool) {
    let before = MetricsSnapshot::capture();
    let ran = call();
    let delta = MetricsSnapshot::capture().delta_since(&before);
    let other = if op == "spmm" { "spmv" } else { "spmm" };
    let expected = if ran { (1, flops) } else { (0, 0) };
    assert_eq!(op_delta(&delta, op), expected, "{what} (ran: {ran})");
    assert_eq!(op_delta(&delta, other), (0, 0), "{what} touched {other}.*");
}

#[test]
fn every_entry_point_records_exactly_once() {
    if !spmm_trace::COMPILED_IN {
        return;
    }
    spmm_trace::set_trace_level(TraceLevel::Full);

    let coo = fixture();
    let b = DenseMatrix::from_fn(COLS, K, |i, j| ((i + 2 * j) % 7) as f64 - 3.0);
    let bt = b.transposed();
    let x: Vec<f64> = (0..COLS).map(|i| i as f64 * 0.5 - 4.0).collect();
    let pool = ThreadPool::new(2);
    let cfg = TileConfig::new(8, 8);
    let packed = cfg.pack(&b, K);
    let levels = [SimdLevel::Scalar, simd::hardware_level()];

    for fmt in SparseFormat::ALL {
        let data = FormatData::from_coo(fmt, &coo, 2).unwrap();
        let mm = spmm_flops(data.nnz(), K);
        let mv = spmm_flops(data.nnz(), 1);
        let mut c = DenseMatrix::zeros(ROWS, K);
        let mut y = vec![0.0; ROWS];
        let s = Schedule::Static;
        let name = |entry: &str| format!("{fmt} {entry}");

        check(&name("spmm_serial"), "spmm", mm, || {
            data.spmm_serial(&b, K, &mut c);
            true
        });
        check(&name("spmm_parallel"), "spmm", mm, || {
            data.spmm_parallel(&pool, 2, s, &b, K, &mut c);
            true
        });
        check(&name("spmm_serial_bt"), "spmm", mm, || {
            data.spmm_serial_bt(&bt, K, &mut c)
        });
        check(&name("spmm_parallel_bt"), "spmm", mm, || {
            data.spmm_parallel_bt(&pool, 2, s, &bt, K, &mut c)
        });
        check(&name("spmm_serial_fixed_k"), "spmm", mm, || {
            data.spmm_serial_fixed_k(&b, K, &mut c)
        });
        check(&name("spmm_parallel_fixed_k"), "spmm", mm, || {
            data.spmm_parallel_fixed_k(&pool, 2, s, &b, K, &mut c)
        });
        check(&name("spmm_serial_tiled"), "spmm", mm, || {
            data.spmm_serial_tiled(&packed, cfg, &mut c)
        });
        check(&name("spmm_parallel_tiled"), "spmm", mm, || {
            data.spmm_parallel_tiled(&pool, 2, s, &packed, cfg, &mut c)
        });
        check(&name("spmm_parallel_balanced"), "spmm", mm, || {
            data.spmm_parallel_balanced(&pool, 2, &b, K, &mut c)
        });
        check(&name("spmm_serial_simd"), "spmm", mm, || {
            data.spmm_serial_simd(&b, K, &mut c)
        });
        for level in levels {
            check(&name("spmm_serial_simd_at"), "spmm", mm, || {
                data.spmm_serial_simd_at(level, &b, K, &mut c)
            });
            check(&name("spmv_serial_simd_at"), "spmv", mv, || {
                data.spmv_serial_simd_at(level, &x, &mut y)
            });
        }
        check(&name("spmv_serial"), "spmv", mv, || {
            data.spmv_serial(&x, &mut y)
        });
        check(&name("spmv_parallel"), "spmv", mv, || {
            data.spmv_parallel(&pool, 2, s, &x, &mut y)
        });

        // The `_unprobed` twins exist to measure the probes' cost, so they
        // are checked as refusals: no counter may move.
        check(&name("spmm_serial_unprobed"), "spmm", mm, || {
            data.spmm_serial_unprobed(&b, K, &mut c);
            false
        });
        check(&name("spmm_serial_simd_unprobed"), "spmm", mm, || {
            data.spmm_serial_simd_unprobed(&b, K, &mut c);
            false
        });
    }

    // A const-K call at a k with no instantiation refuses and records
    // nothing, like an unsupported format.
    let csr = FormatData::from_coo(SparseFormat::Csr, &coo, 2).unwrap();
    let b9 = DenseMatrix::from_fn(COLS, 9, |_, _| 1.0);
    let mut c9 = DenseMatrix::zeros(ROWS, 9);
    check("csr spmm_serial_fixed_k k=9", "spmm", 0, || {
        csr.spmm_serial_fixed_k(&b9, 9, &mut c9)
    });

    spmm_trace::set_trace_level(TraceLevel::Off);
}

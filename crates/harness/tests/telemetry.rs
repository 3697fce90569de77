//! End-to-end telemetry tests: spans, metrics and the chrome trace sink
//! exercised through the real harness on a real (tiny) benchmark.
//!
//! Tracing state is process-global, so every test here takes a shared
//! lock and restores `TraceLevel::Off` before releasing it.

use std::sync::{Mutex, MutexGuard, OnceLock};

use spmm_core::{CooMatrix, DenseMatrix, SparseFormat};
use spmm_harness::benchmark::{run, SuiteBenchmark};
use spmm_harness::json::Json;
use spmm_harness::Params;
use spmm_kernels::FormatData;
use spmm_trace::{MetricsSnapshot, TraceLevel};

fn guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn tiny_params() -> Params {
    Params {
        matrix: "bcsstk13".into(),
        scale: 0.2,
        k: 16,
        iterations: 2,
        threads: 2,
        ..Params::default()
    }
}

#[test]
fn run_spans_nest_and_round_trip_through_chrome_json() {
    if !spmm_trace::COMPILED_IN {
        return; // probes are compiled out; nothing records
    }
    let _g = guard();
    spmm_trace::set_trace_level(TraceLevel::Full);
    spmm_trace::clear_spans();

    let mut bench = SuiteBenchmark::from_params(tiny_params()).unwrap();
    let report = run(&mut bench).unwrap();
    spmm_trace::set_trace_level(TraceLevel::Off);
    let events = spmm_trace::take_spans();

    // Every harness phase shows up, plus the kernel layers underneath.
    let names: std::collections::HashSet<&str> = events.iter().map(|e| e.name).collect();
    for expect in ["format", "warmup", "calc", "verify", "convert", "compute"] {
        assert!(names.contains(expect), "missing span `{expect}`");
    }
    let calc = events.iter().find(|e| e.name == "calc").unwrap();
    assert_eq!(calc.label, "normal");
    // Kernel spans sit inside the harness phase spans.
    let compute = events.iter().find(|e| e.name == "compute").unwrap();
    assert!(compute.depth > 0, "compute should nest inside a phase span");

    // The report folds the same spans into its phase tree.
    let tree = report.phase_tree.expect("tracing was on");
    assert!(tree.contains("calc[normal]"), "{tree}");
    assert!(tree.contains("format"), "{tree}");

    // The chrome sink serializes all of it, parseable by the vendored
    // JSON module, one complete event per span.
    let text = spmm_trace::chrome_trace_json(&events);
    let parsed = Json::parse(&text).unwrap();
    let Json::Arr(items) = &parsed["traceEvents"] else {
        panic!("traceEvents should be an array");
    };
    assert_eq!(items.len(), events.len());
    for item in items {
        assert_eq!(item["ph"], "X");
        assert!(item["ts"].as_f64().is_some());
        assert!(item["dur"].as_f64().is_some());
        assert!(item["name"].as_str().is_some());
    }
}

#[test]
fn metric_totals_match_a_hand_computed_spmm() {
    if !spmm_trace::COMPILED_IN {
        return;
    }
    let _g = guard();
    spmm_trace::set_trace_level(TraceLevel::Spans);

    // 3×3, 4 nonzeros, k = 8: small enough to count everything by hand.
    let coo = CooMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0)])
        .unwrap();
    let b = DenseMatrix::from_fn(3, 8, |i, j| (i + j) as f64);
    let mut c = DenseMatrix::zeros(3, 8);

    let before = MetricsSnapshot::capture();
    let data = FormatData::<f64>::from_coo(SparseFormat::Csr, &coo, 2).unwrap();
    data.spmm_serial(&b, 8, &mut c);
    let delta = MetricsSnapshot::capture().delta_since(&before);
    spmm_trace::set_trace_level(TraceLevel::Off);

    assert_eq!(delta.counter("convert.calls"), Some(1));
    assert_eq!(delta.counter("spmm.kernel_calls"), Some(1));
    // 2 flops per stored entry per dense column: 2 · 4 · 8.
    assert_eq!(delta.counter("spmm.flops"), Some(2 * 4 * 8));
    // Demand traffic: the format once, plus nnz · k values of B read and
    // rows · k values of C written, all f64.
    let footprint = data.memory_footprint() as u64;
    assert_eq!(
        delta.counter("spmm.bytes_read"),
        Some(footprint + 4 * 8 * 8)
    );
    assert_eq!(delta.counter("spmm.bytes_written"), Some(3 * 8 * 8));
    assert_eq!(delta.counter("convert.bytes_built"), Some(footprint));

    // The kernel still computes the right answer while being counted.
    let reference = coo.spmm_reference_k(&b, 8);
    assert!(c.max_abs_diff(&reference) < 1e-12);
}

#[test]
fn disabled_tracing_records_nothing_through_the_harness() {
    let _g = guard();
    spmm_trace::set_trace_level(TraceLevel::Off);
    let count = spmm_trace::span_count();
    let before = MetricsSnapshot::capture();

    let mut bench = SuiteBenchmark::from_params(tiny_params()).unwrap();
    let report = run(&mut bench).unwrap();

    assert_eq!(spmm_trace::span_count(), count, "no spans when off");
    let delta = MetricsSnapshot::capture().delta_since(&before);
    assert_eq!(delta.counter("spmm.kernel_calls").unwrap_or(0), 0);
    assert!(report.phase_tree.is_none());
    // The attained fraction is measured-vs-plan, not telemetry: present
    // either way.
    assert!(report.attained_fraction.is_some());
    assert_eq!(report.verified, Some(true));
}

//! `spmm-trace`: the SpMM-Bench observability layer.
//!
//! A zero-dependency (std-only) crate providing three cooperating pieces:
//!
//! * **Spans** ([`span!`], [`SpanGuard`]) — RAII phase timers that nest
//!   per thread and collect into a process-global buffer.
//! * **Metrics** ([`counter`], [`gauge`], [`histogram`]) — a lazily
//!   registered set of atomics probes read via [`MetricsSnapshot`].
//! * **Sinks** ([`chrome_trace_json`], [`phase_tree`] /
//!   [`render_phase_tree`]) — export spans as a chrome://tracing file or
//!   an aggregated plain-text tree.
//!
//! # Cost model
//!
//! Every probe is gated twice. At compile time, [`COMPILED_IN`] reflects
//! the `telemetry` cargo feature; when it is off, probes const-fold to
//! nothing. At runtime, [`TraceLevel`] (default [`TraceLevel::Off`])
//! keeps probes down to one relaxed atomic load until tracing is enabled
//! with [`set_trace_level`]. Kernels therefore instrument freely at
//! phase granularity — never per row. Comparing a default build with a
//! `--no-default-features` build measures the disabled-probe cost; the
//! engine-path benchmark (`enginebench/`) reports the enabled cost as
//! `trace.*_overhead_frac`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chrome;
mod level;
mod metrics;
mod span;
mod tree;

pub use chrome::chrome_trace_json;
pub use level::{enabled, full_enabled, set_trace_level, trace_level, TraceLevel, COMPILED_IN};
pub use metrics::{
    counter, gauge, histogram, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use span::{
    clear_spans, span, span_count, span_labeled, spans_since, take_spans, SpanEvent, SpanGuard,
};
pub use tree::{phase_tree, render_phase_tree, PhaseNode};

#[cfg(test)]
pub(crate) mod testing {
    //! Serializes unit tests that touch the process-global span buffer,
    //! trace level, or metrics registry.
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn serial_guard() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod integration_tests {
    use super::*;

    #[test]
    #[cfg(feature = "telemetry")]
    fn span_to_chrome_trace_pipeline() {
        let _lock = crate::testing::serial_guard();
        set_trace_level(TraceLevel::Spans);
        clear_spans();
        {
            let _outer = span!("benchmark");
            for _ in 0..3 {
                let _inner = span!("calc", "normal");
            }
        }
        set_trace_level(TraceLevel::Off);
        let spans = take_spans();
        assert_eq!(spans.len(), 4);
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        let tree = phase_tree(&spans);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].key, "benchmark");
        assert_eq!(tree[0].children[0].key, "calc[normal]");
        assert_eq!(tree[0].children[0].count, 3);
    }

    #[test]
    fn compiled_in_matches_feature() {
        assert_eq!(COMPILED_IN, cfg!(feature = "telemetry"));
    }
}

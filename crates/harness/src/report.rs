//! Benchmark reports: the suite's output metrics (§4.3).

use std::fmt;
use std::time::Duration;

use crate::benchmark::{Backend, Op, SpmmBenchmark, SuiteBenchmark};
use crate::json::Json;
use crate::params::Params;
use crate::timer::{flops, Timings};

/// Everything one benchmark run reports: runtime data, matrix data and
/// parameter information, exactly the §4.3 metric set.
#[derive(Debug, Clone)]
pub struct Report {
    /// Matrix name.
    pub matrix: String,
    /// Format name.
    pub format: String,
    /// Backend name.
    pub backend: String,
    /// Variant name.
    pub variant: String,
    /// Columns of B the kernel multiplied: the k-loop bound, 1 for SpMV.
    pub k: usize,
    /// Host threads the kernel ran on: `-t` for the parallel backend, 1
    /// otherwise.
    pub threads: usize,
    /// Block size (blocked formats).
    pub block: usize,
    /// Calc iterations averaged.
    pub iterations: usize,

    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Nonzeros.
    pub nnz: usize,
    /// Max nonzeros in a row.
    pub max_row_nnz: usize,
    /// Mean nonzeros per row.
    pub avg_row_nnz: f64,
    /// Column ratio (max / avg).
    pub column_ratio: f64,
    /// Row-degree variance.
    pub variance: f64,
    /// Row-degree standard deviation.
    pub std_dev: f64,

    /// Formatting time in seconds.
    pub format_time_s: f64,
    /// Mean calculation time in seconds (simulated for GPU backends).
    pub avg_calc_time_s: f64,
    /// Total benchmark wall time in seconds.
    pub total_time_s: f64,
    /// Useful FLOPs per calc.
    pub useful_flops: u64,
    /// FLOPS against the average calc time.
    pub flops: f64,
    /// MFLOPS (the paper's reporting unit: higher is better).
    pub mflops: f64,
    /// GFLOPS.
    pub gflops: f64,
    /// True if the time came from the GPU simulator, not host wall-clock.
    pub simulated: bool,
    /// Verification outcome (`None` = skipped).
    pub verified: Option<bool>,
    /// Formatted representation payload bytes.
    pub memory_footprint: usize,

    /// `mflops / predicted_mflops`: how much of the planner's predicted
    /// rate the measured kernel attained (host CPU SpMM runs only).
    pub attained_fraction: Option<f64>,
    /// Rendered span phase tree of the run (tracing enabled only).
    pub phase_tree: Option<String>,

    /// Conversion route the planner chose (`"coo->csr->bcsr"`).
    pub plan_route: Option<String>,
    /// Planner-predicted MFLOPS for host CPU SpMM strategies.
    pub predicted_mflops: Option<f64>,
    /// Bytes allocated inside the timed loop (full tracing only; the
    /// engine guarantees this is zero or the run fails).
    pub steady_alloc_bytes: Option<u64>,
}

impl Report {
    /// Assemble a report from a finished run.
    pub fn new(
        bench: &SuiteBenchmark,
        params: &Params,
        format_time: Duration,
        avg_calc: Duration,
        timings: Timings,
        simulated: bool,
        verification: Option<Result<(), spmm_core::VerifyError>>,
    ) -> Report {
        let p = bench.properties();
        let useful = bench.useful_flops();
        let f = flops(useful, avg_calc);
        Report {
            matrix: params.matrix.clone(),
            format: params.format.name().to_string(),
            backend: params.backend.name().to_string(),
            variant: params.variant.name().to_string(),
            k: if params.op == Op::Spmv { 1 } else { params.k },
            threads: if params.backend == Backend::Parallel {
                params.threads
            } else {
                1
            },
            block: params.block,
            iterations: params.iterations,
            rows: p.rows,
            cols: p.cols,
            nnz: p.nnz,
            max_row_nnz: p.max_row_nnz,
            avg_row_nnz: p.avg_row_nnz,
            column_ratio: p.column_ratio,
            variance: p.variance,
            std_dev: p.std_dev,
            format_time_s: format_time.as_secs_f64(),
            avg_calc_time_s: avg_calc.as_secs_f64(),
            total_time_s: format_time.as_secs_f64() + timings.total.as_secs_f64(),
            useful_flops: useful,
            flops: f,
            mflops: f / 1e6,
            gflops: f / 1e9,
            simulated,
            verified: verification.map(|v| v.is_ok()),
            memory_footprint: bench.data().map_or(0, |d| d.memory_footprint()),
            attained_fraction: None,
            phase_tree: None,
            plan_route: None,
            predicted_mflops: None,
            steady_alloc_bytes: None,
        }
    }

    /// CSV header matching [`Report::csv_row`].
    pub fn csv_header() -> &'static str {
        "matrix,format,backend,variant,k,threads,block,iterations,\
         rows,cols,nnz,max,avg,ratio,variance,std_dev,\
         format_time_s,avg_calc_time_s,total_time_s,mflops,simulated,verified,footprint_bytes,\
         attained_fraction,\
         plan_route,predicted_mflops,steady_alloc_bytes"
    }

    /// One CSV row.
    pub fn csv_row(&self) -> String {
        let opt =
            |v: Option<f64>, digits: usize| v.map_or(String::new(), |v| format!("{v:.digits$}"));
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{:.2},{:.2},{:.2},{:.2},{:.6},{:.6e},{:.6},{:.2},{},{},{},{},{},{},{}",
            self.matrix,
            self.format,
            self.backend,
            self.variant,
            self.k,
            self.threads,
            self.block,
            self.iterations,
            self.rows,
            self.cols,
            self.nnz,
            self.max_row_nnz,
            self.avg_row_nnz,
            self.column_ratio,
            self.variance,
            self.std_dev,
            self.format_time_s,
            self.avg_calc_time_s,
            self.total_time_s,
            self.mflops,
            self.simulated,
            self.verified.map_or("skipped".to_string(), |v| v.to_string()),
            self.memory_footprint,
            opt(self.attained_fraction, 4),
            self.plan_route.as_deref().unwrap_or(""),
            opt(self.predicted_mflops, 2),
            self.steady_alloc_bytes
                .map_or(String::new(), |b| b.to_string()),
        )
    }

    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        Json::obj()
            .with("matrix", self.matrix.as_str())
            .with("format", self.format.as_str())
            .with("backend", self.backend.as_str())
            .with("variant", self.variant.as_str())
            .with("k", self.k)
            .with("threads", self.threads)
            .with("block", self.block)
            .with("iterations", self.iterations)
            .with("rows", self.rows)
            .with("cols", self.cols)
            .with("nnz", self.nnz)
            .with("max_row_nnz", self.max_row_nnz)
            .with("avg_row_nnz", self.avg_row_nnz)
            .with("column_ratio", self.column_ratio)
            .with("variance", self.variance)
            .with("std_dev", self.std_dev)
            .with("format_time_s", self.format_time_s)
            .with("avg_calc_time_s", self.avg_calc_time_s)
            .with("total_time_s", self.total_time_s)
            .with("useful_flops", self.useful_flops)
            .with("flops", self.flops)
            .with("mflops", self.mflops)
            .with("gflops", self.gflops)
            .with("simulated", self.simulated)
            .with("verified", self.verified)
            .with("memory_footprint", self.memory_footprint)
            .with("attained_fraction", self.attained_fraction)
            .with("plan_route", self.plan_route.clone())
            .with("predicted_mflops", self.predicted_mflops)
            .with("steady_alloc_bytes", self.steady_alloc_bytes)
            .pretty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== {} / {} / {} / {} ==",
            self.matrix, self.format, self.backend, self.variant
        )?;
        writeln!(
            f,
            "matrix:      {}x{}, nnz {}, max {}, avg {:.1}, ratio {:.1}, var {:.1}, std {:.1}",
            self.rows,
            self.cols,
            self.nnz,
            self.max_row_nnz,
            self.avg_row_nnz,
            self.column_ratio,
            self.variance,
            self.std_dev
        )?;
        writeln!(
            f,
            "params:      k={}, threads={}, block={}, iterations={}",
            self.k, self.threads, self.block, self.iterations
        )?;
        writeln!(f, "format time: {:.6} s", self.format_time_s)?;
        writeln!(
            f,
            "calc time:   {:.6} s avg{}",
            self.avg_calc_time_s,
            if self.simulated {
                " (simulated device time)"
            } else {
                ""
            }
        )?;
        writeln!(f, "total time:  {:.6} s", self.total_time_s)?;
        writeln!(
            f,
            "performance: {:.0} FLOPS = {:.2} MFLOPS = {:.4} GFLOPS",
            self.flops, self.mflops, self.gflops
        )?;
        writeln!(f, "footprint:   {} bytes", self.memory_footprint)?;
        if let Some(route) = &self.plan_route {
            write!(f, "plan:        {route}")?;
            if let Some(pred) = self.predicted_mflops {
                write!(f, " (predicted {pred:.2} MFLOPS)")?;
            }
            writeln!(f)?;
        }
        if let Some(bytes) = self.steady_alloc_bytes {
            writeln!(f, "steady alloc: {bytes} bytes in the timed loop")?;
        }
        if let Some(fraction) = self.attained_fraction {
            writeln!(
                f,
                "attainment:  {:.1}% of the predicted rate",
                fraction * 100.0
            )?;
        }
        match self.verified {
            Some(true) => writeln!(f, "verify:      PASSED"),
            Some(false) => writeln!(f, "verify:      FAILED"),
            None => writeln!(f, "verify:      skipped"),
        }?;
        if let Some(tree) = &self.phase_tree {
            writeln!(f, "phases:")?;
            for line in tree.lines() {
                writeln!(f, "  {line}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::run;

    fn sample_report() -> Report {
        let params = Params {
            matrix: "dw4096".into(),
            scale: 0.2,
            k: 8,
            iterations: 1,
            ..Params::default()
        };
        let mut bench = SuiteBenchmark::from_params(params).unwrap();
        run(&mut bench).unwrap()
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let r = sample_report();
        assert_eq!(
            r.csv_row().split(',').count(),
            Report::csv_header().split(',').count()
        );
    }

    #[test]
    fn json_serializes_and_contains_fields() {
        let r = sample_report();
        let j = r.to_json();
        assert!(j.contains("\"matrix\""));
        assert!(j.contains("\"mflops\""));
        let parsed = crate::json::Json::parse(&j).unwrap();
        assert_eq!(parsed["format"], "csr");
    }

    #[test]
    fn display_is_human_readable() {
        let r = sample_report();
        let text = r.to_string();
        assert!(text.contains("MFLOPS"));
        assert!(text.contains("verify:      PASSED"));
    }

    #[test]
    fn report_names_the_threads_and_columns_that_ran() {
        let report = |backend, op| {
            let params = Params::builder()
                .matrix("dw4096")
                .backend(backend)
                .op(op)
                .threads(3)
                .iterations(1)
                .scale(0.2)
                .build()
                .unwrap();
            run(&mut SuiteBenchmark::from_params(params).unwrap()).unwrap()
        };
        for (backend, op, k, threads) in [
            (Backend::Serial, Op::Spmm, 128, 1),
            (Backend::Parallel, Op::Spmm, 128, 3),
            (Backend::Serial, Op::Spmv, 1, 1),
            (Backend::Parallel, Op::Spmv, 1, 3),
        ] {
            let r = report(backend, op);
            let label = format!("{} {}", backend.name(), op.name());
            assert_eq!((r.k, r.threads), (k, threads), "{label}");
            assert!(
                r.to_string()
                    .contains(&format!("params:      k={k}, threads={threads},")),
                "{label}"
            );
            let csv = r.csv_row();
            let fields: Vec<&str> = csv.split(',').collect();
            assert_eq!(
                fields[4..6],
                [k.to_string(), threads.to_string()],
                "{label}"
            );
            let json = Json::parse(&r.to_json()).unwrap();
            assert_eq!(json["k"].as_f64(), Some(k as f64), "{label}");
            assert_eq!(json["threads"].as_f64(), Some(threads as f64), "{label}");
        }
    }

    #[test]
    fn flops_accounting_consistent() {
        let r = sample_report();
        assert!((r.gflops * 1000.0 - r.mflops).abs() < 1e-9);
        assert_eq!(r.useful_flops, 2 * r.nnz as u64 * r.k as u64);
    }
}

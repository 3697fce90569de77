//! The benchmark object model: the paper's C++ class as a Rust trait.
//!
//! Since the plan/execute split, this module is thin orchestration: the
//! [`SuiteBenchmark`] owns the inputs (matrix, dense operand, parameters)
//! and delegates *all* conversion and kernel dispatch to
//! [`crate::engine`] — `format()` builds a [`crate::engine::Plan`] and
//! prepares an [`crate::engine::Executor`]; `calc()` runs one prepared
//! iteration. No per-format `match` lives here anymore.

use std::str::FromStr;
use std::time::Duration;

use spmm_core::{
    suggested_tolerance, verify, CooMatrix, DenseMatrix, MatrixProperties, VerifyError,
};
use spmm_gpusim::{DeviceProfile, LaunchStats};
use spmm_kernels::FormatData;
use spmm_trace::TraceLevel;

use crate::engine::{Executor, Plan, Planner};
use crate::errors::HarnessError;
use crate::params::Params;
use crate::report::Report;
use crate::timer::{time_once, time_repeated};

/// Execution backend of a kernel (the paper's serial / OMP / GPU columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Single-threaded CPU.
    Serial,
    /// CPU parallel via the OpenMP-like runtime.
    Parallel,
    /// Simulated H100 (the Grace Hopper GPU).
    GpuH100,
    /// Simulated A100 (the Aries GPU).
    GpuA100,
}

impl Backend {
    /// Name used in reports and CSV.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Serial => "serial",
            Backend::Parallel => "omp",
            Backend::GpuH100 => "gpu-h100",
            Backend::GpuA100 => "gpu-a100",
        }
    }

    /// The simulated device, if this is a GPU backend.
    pub fn device(self) -> Option<DeviceProfile> {
        match self {
            Backend::GpuH100 => Some(DeviceProfile::h100()),
            Backend::GpuA100 => Some(DeviceProfile::a100()),
            _ => None,
        }
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "serial" => Ok(Backend::Serial),
            "parallel" | "omp" => Ok(Backend::Parallel),
            "gpu" | "gpu-h100" => Ok(Backend::GpuH100),
            "gpu-a100" => Ok(Backend::GpuA100),
            other => Err(format!("unknown backend `{other}`")),
        }
    }
}

/// Kernel variant within a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The standard kernel.
    Normal,
    /// Transposed-B kernel (Study 8).
    TransposedB,
    /// Const-`K` manually optimized kernel (Study 9).
    FixedK,
    /// The normal range bodies with a fused multiply-add above the scalar
    /// SIMD level, plus CSR/SELL SpMV bodies (Study 12) — serial only.
    Simd,
    /// Cache-blocked tiled engine over packed B panels (Study 11);
    /// CPU-only, CSR/ELL/BCSR.
    Tiled,
    /// Vendor (cuSPARSE-style) kernel — GPU backends only (Study 7).
    Vendor,
}

impl Variant {
    /// Name used in reports and CSV.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Normal => "normal",
            Variant::TransposedB => "transposed",
            Variant::FixedK => "fixed-k",
            Variant::Simd => "simd",
            Variant::Tiled => "tiled",
            Variant::Vendor => "cusparse",
        }
    }
}

impl FromStr for Variant {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "normal" => Ok(Variant::Normal),
            "transposed" | "bt" => Ok(Variant::TransposedB),
            "fixed-k" | "fixedk" | "const-k" => Ok(Variant::FixedK),
            "simd" | "vector" => Ok(Variant::Simd),
            "tiled" | "tile" => Ok(Variant::Tiled),
            "cusparse" | "vendor" => Ok(Variant::Vendor),
            other => Err(format!("unknown variant `{other}`")),
        }
    }
}

/// The operation benchmarked: the paper's SpMM, or the §6.3.4 SpMV
/// extension (the dense operand collapses to one vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Sparse × dense matrix.
    Spmm,
    /// Sparse × vector.
    Spmv,
}

impl Op {
    /// Name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Op::Spmm => "spmm",
            Op::Spmv => "spmv",
        }
    }
}

impl FromStr for Op {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "spmm" => Ok(Op::Spmm),
            "spmv" => Ok(Op::Spmv),
            other => Err(format!("unknown op `{other}` (spmm or spmv)")),
        }
    }
}

/// The suite's benchmark interface — the Rust rendering of the thesis's
/// C++ base class (§4.1): a custom format implements `format()` and
/// `calc()`, and inherits timing, verification and reporting.
pub trait SpmmBenchmark {
    /// Human-readable kernel name.
    fn name(&self) -> String;
    /// Build the format-specific representation from the loaded COO
    /// matrix. Called once, timed as "formatting time".
    fn format(&mut self) -> Result<(), HarnessError>;
    /// One multiplication pass. Called `-n` times, averaged.
    fn calc(&mut self) -> Result<(), HarnessError>;
    /// Check the last result against the COO reference multiply.
    fn verify(&self) -> Result<(), VerifyError>;
    /// Useful FLOPs of one `calc()` (the MFLOPS numerator).
    fn useful_flops(&self) -> u64;
}

/// The built-in benchmark covering every (format × backend × variant)
/// combination. Owns the inputs; planning, conversion and kernels live in
/// the [`crate::engine`] the benchmark prepares during `format()`.
pub struct SuiteBenchmark {
    matrix_name: String,
    coo: CooMatrix<f64>,
    properties: MatrixProperties,
    b: DenseMatrix<f64>,
    /// SpMV operand (first column of B, `cols × 1`), for `--op spmv`.
    x: DenseMatrix<f64>,
    params: Params,
    exec: Option<Executor>,
}

impl SuiteBenchmark {
    /// Assemble a benchmark from an already-loaded matrix.
    pub fn new(matrix_name: &str, coo: CooMatrix<f64>, params: Params) -> Self {
        let b = spmm_matgen::gen::dense_b(coo.cols(), params.k, params.seed ^ 0xB);
        let properties = coo.properties();
        let x = DenseMatrix::from_fn(coo.cols(), 1, |i, _| b.get(i, 0));
        SuiteBenchmark {
            matrix_name: matrix_name.to_string(),
            coo,
            properties,
            b,
            x,
            params,
            exec: None,
        }
    }

    /// Load the matrix named by `params.matrix` (suite name or `.mtx`
    /// path) and assemble the benchmark.
    pub fn from_params(params: Params) -> Result<Self, HarnessError> {
        let coo = if params.matrix.ends_with(".mtx") {
            spmm_matgen::mm::read_matrix_market_file(&params.matrix).map_err(|e| {
                HarnessError::MatrixLoad {
                    path: params.matrix.clone(),
                    detail: e.to_string(),
                }
            })?
        } else {
            spmm_matgen::by_name(&params.matrix)
                .ok_or_else(|| HarnessError::UnknownMatrix(params.matrix.clone()))?
                .generate(params.scale, params.seed)
        };
        let name = params.matrix.clone();
        Ok(SuiteBenchmark::new(&name, coo, params))
    }

    /// Matrix properties (the Table 5.1 metrics).
    pub fn properties(&self) -> &MatrixProperties {
        &self.properties
    }

    /// The loaded COO matrix.
    pub fn coo(&self) -> &CooMatrix<f64> {
        &self.coo
    }

    /// The dense operand B.
    pub fn b(&self) -> &DenseMatrix<f64> {
        &self.b
    }

    /// The plan behind this benchmark, if `format()` has run.
    pub fn plan(&self) -> Option<&Plan> {
        self.exec.as_ref().map(|e| e.plan())
    }

    /// The formatted matrix, if `format()` has run.
    pub fn data(&self) -> Option<&FormatData<f64>> {
        self.exec.as_ref().and_then(|e| e.data())
    }

    /// The result matrix of the last `calc()` (`None` before `format()`).
    pub fn result(&self) -> Option<&DenseMatrix<f64>> {
        self.exec.as_ref().map(|e| e.result())
    }

    /// Simulated launch stats of the last GPU calc.
    pub fn last_gpu_stats(&self) -> Option<&LaunchStats> {
        self.exec.as_ref().and_then(|e| e.last_gpu_stats())
    }
}

impl SpmmBenchmark for SuiteBenchmark {
    fn name(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}",
            self.matrix_name,
            self.params.op.name(),
            self.params.format,
            self.params.backend.name(),
            self.params.variant.name()
        )
    }

    fn format(&mut self) -> Result<(), HarnessError> {
        let plan = Planner::new().plan(&self.properties, &self.params)?;
        let mut exec = Executor::new(plan);
        exec.prepare(&self.coo, &self.b)?;
        self.exec = Some(exec);
        Ok(())
    }

    fn calc(&mut self) -> Result<(), HarnessError> {
        let exec = self
            .exec
            .as_mut()
            .ok_or_else(|| HarnessError::Calc("calc() before format()".into()))?;
        exec.execute(&self.b, self.x.as_slice())
    }

    fn verify(&self) -> Result<(), VerifyError> {
        let tol = suggested_tolerance::<f64>(self.properties.max_row_nnz.max(1));
        let exec = self.exec.as_ref().expect("format() ran");
        if self.params.op == Op::Spmv {
            let y = exec.y();
            let got = DenseMatrix::from_fn(y.len(), 1, |i, _| y[i]);
            let want = self.coo.spmm_reference(&self.x);
            return verify(&got, &want, tol);
        }
        let reference = self.coo.spmm_reference_k(&self.b, self.params.k);
        verify(exec.result(), &reference, tol)
    }

    fn useful_flops(&self) -> u64 {
        match self.params.op {
            Op::Spmm => spmm_kernels::spmm_flops(self.coo.nnz(), self.params.k),
            Op::Spmv => 2 * self.coo.nnz() as u64,
        }
    }
}

/// Run a benchmark end to end: plan + prepare (timed as formatting), `-n`
/// timed calculation calls, verification, report assembly. This is the
/// suite's main loop.
///
/// Each phase runs under a telemetry span (`format` / `warmup` /
/// `calc[variant]` / `verify`), and the spans this run produced are folded
/// into the report's phase tree when tracing is on. Under `--trace-level
/// full` the run additionally audits the timed loop: any
/// `workspace.alloc_bytes` growth between the warm-up and the last
/// iteration fails the run, which is how CI pins the engine's
/// zero-steady-state-allocation guarantee.
pub fn run(bench: &mut SuiteBenchmark) -> Result<Report, HarnessError> {
    let params = bench.params.clone();
    let spans_before = spmm_trace::span_count();

    let (fmt_result, format_time) = time_once(|| {
        let _span = spmm_trace::span!("format");
        bench.format()
    });
    fmt_result?;

    // First call outside the timing loop validates the combination (and
    // warms the pool and every workspace buffer), mirroring the suite's
    // untimed warm-up.
    {
        let _span = spmm_trace::span!("warmup");
        bench.calc()?;
    }

    // Audit steady-state allocations across the timed loop when the run
    // itself asked for full tracing (binaries set the global level from
    // params before calling run, so the counters are live).
    let audit_allocs = params.trace_level == TraceLevel::Full && spmm_trace::full_enabled();
    let alloc_before = audit_allocs.then(spmm_trace::MetricsSnapshot::capture);

    let variant_tag = params.variant.name();
    let mut calc_err: Option<HarnessError> = None;
    let timings = time_repeated(params.iterations, || {
        let _span = spmm_trace::span!("calc", variant_tag);
        if let Err(e) = bench.calc() {
            calc_err = Some(e);
        }
    });
    if let Some(e) = calc_err {
        return Err(e);
    }

    let steady_alloc_bytes = alloc_before.map(|before| {
        let delta = spmm_trace::MetricsSnapshot::capture().delta_since(&before);
        delta.counter("workspace.alloc_bytes").unwrap_or(0)
    });
    if let Some(bytes) = steady_alloc_bytes {
        if bytes > 0 {
            return Err(HarnessError::Calc(format!(
                "steady-state violation: the timed loop grew workspace buffers by {bytes} bytes \
                 (every buffer must be acquired during format())"
            )));
        }
    }

    // GPU backends report the simulator's time, not host wall-clock.
    let (avg_calc, simulated) = match bench.last_gpu_stats() {
        Some(stats) => (Duration::from_secs_f64(stats.time_s), true),
        None => (timings.avg, false),
    };

    let verification = if params.no_verify {
        None
    } else {
        let _span = spmm_trace::span!("verify");
        Some(bench.verify())
    };

    let mut report = Report::new(
        bench,
        &params,
        format_time,
        avg_calc,
        timings,
        simulated,
        verification,
    );
    report.steady_alloc_bytes = steady_alloc_bytes;
    if let Some(plan) = bench.plan() {
        report.plan_route = Some(plan.route_string());
        report.predicted_mflops = plan.predicted_mflops;
        report.attained_fraction = plan.predicted_mflops.map(|p| report.mflops / p);
    }

    // Fold this run's spans into a phase tree for the report.
    if spmm_trace::enabled() {
        let events = spmm_trace::spans_since(spans_before);
        if !events.is_empty() {
            let tree = spmm_trace::phase_tree(&events);
            report.phase_tree = Some(spmm_trace::render_phase_tree(&tree));
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> Params {
        Params {
            matrix: "bcsstk13".into(),
            scale: 0.2,
            k: 16,
            iterations: 2,
            threads: 3,
            ..Params::default()
        }
    }

    #[test]
    fn serial_csr_end_to_end() {
        let mut bench = SuiteBenchmark::from_params(small_params()).unwrap();
        let report = run(&mut bench).unwrap();
        assert!(report.mflops > 0.0);
        assert_eq!(report.verified, Some(true));
        assert!(!report.simulated);
        assert!(report.format_time_s >= 0.0);
    }

    #[test]
    fn every_backend_variant_combination_that_should_work_works() {
        use spmm_core::SparseFormat::*;
        let combos: &[(spmm_core::SparseFormat, Backend, Variant)] = &[
            (Coo, Backend::Serial, Variant::Normal),
            (Csr, Backend::Parallel, Variant::Normal),
            (Ell, Backend::Serial, Variant::TransposedB),
            (Bcsr, Backend::Parallel, Variant::TransposedB),
            (Csr, Backend::Serial, Variant::FixedK),
            (Ell, Backend::Parallel, Variant::FixedK),
            (Csr, Backend::GpuH100, Variant::Normal),
            (Coo, Backend::GpuA100, Variant::Normal),
            (Csr, Backend::GpuH100, Variant::Vendor),
            (Bell, Backend::Serial, Variant::Normal),
            (Csr5, Backend::Parallel, Variant::Normal),
            (Csr, Backend::Serial, Variant::Simd),
            (Ell, Backend::Serial, Variant::Simd),
            (Bcsr, Backend::Serial, Variant::Simd),
            (Sell, Backend::Serial, Variant::Simd),
            (Csr, Backend::Serial, Variant::Tiled),
            (Ell, Backend::Parallel, Variant::Tiled),
            (Bcsr, Backend::Parallel, Variant::Tiled),
        ];
        for &(format, backend, variant) in combos {
            let params = Params {
                format,
                backend,
                variant,
                ..small_params()
            };
            let mut bench = SuiteBenchmark::from_params(params).unwrap();
            let report = run(&mut bench)
                .unwrap_or_else(|e| panic!("{format}/{}/{}: {e}", backend.name(), variant.name()));
            assert_eq!(
                report.verified,
                Some(true),
                "{format}/{}/{} verification",
                backend.name(),
                variant.name()
            );
        }
    }

    #[test]
    fn reports_carry_plan_metadata() {
        let params = Params {
            format: spmm_core::SparseFormat::Bcsr,
            ..small_params()
        };
        let mut bench = SuiteBenchmark::from_params(params).unwrap();
        let report = run(&mut bench).unwrap();
        // BCSR routes through the CSR hub; the route lands in the report.
        assert_eq!(report.plan_route.as_deref(), Some("coo->csr->bcsr"));
        assert!(report.predicted_mflops.unwrap() > 0.0);
    }

    #[test]
    fn attainment_divides_by_the_plans_prediction() {
        use spmm_core::SparseFormat::*;
        for (format, variant) in [(Bcsr, Variant::Tiled), (Sell, Variant::Simd)] {
            let params = Params {
                format,
                variant,
                ..small_params()
            };
            let mut bench = SuiteBenchmark::from_params(params).unwrap();
            let report = run(&mut bench).unwrap();
            let predicted = report.predicted_mflops.unwrap();
            assert_eq!(
                report.attained_fraction,
                Some(report.mflops / predicted),
                "{format}/{}",
                variant.name()
            );
        }
        // A simulated device has no CPU prediction, so no attainment.
        let params = Params {
            backend: Backend::GpuH100,
            ..small_params()
        };
        let mut bench = SuiteBenchmark::from_params(params).unwrap();
        let report = run(&mut bench).unwrap();
        assert_eq!(report.predicted_mflops, None);
        assert_eq!(report.attained_fraction, None);
    }

    #[test]
    fn unsupported_combinations_error_cleanly() {
        // BELL has no transpose kernel.
        let params = Params {
            format: spmm_core::SparseFormat::Bell,
            variant: Variant::TransposedB,
            ..small_params()
        };
        let mut bench = SuiteBenchmark::from_params(params).unwrap();
        assert!(run(&mut bench).is_err());
        // cuSPARSE variant needs a GPU backend.
        let params = Params {
            variant: Variant::Vendor,
            backend: Backend::Serial,
            ..small_params()
        };
        let mut bench = SuiteBenchmark::from_params(params).unwrap();
        assert!(run(&mut bench).is_err());
        // cuSPARSE only does COO/CSR.
        let params = Params {
            variant: Variant::Vendor,
            backend: Backend::GpuH100,
            format: spmm_core::SparseFormat::Ell,
            ..small_params()
        };
        let mut bench = SuiteBenchmark::from_params(params).unwrap();
        assert!(run(&mut bench).is_err());
        // The simd variant is serial-only, and COO has no SIMD kernel.
        let params = Params {
            variant: Variant::Simd,
            backend: Backend::Parallel,
            ..small_params()
        };
        let mut bench = SuiteBenchmark::from_params(params).unwrap();
        assert!(run(&mut bench).is_err());
        let params = Params {
            variant: Variant::Simd,
            format: spmm_core::SparseFormat::Coo,
            ..small_params()
        };
        let mut bench = SuiteBenchmark::from_params(params).unwrap();
        assert!(run(&mut bench).is_err());
        // The tiled engine covers CSR/ELL/BCSR only.
        let params = Params {
            variant: Variant::Tiled,
            format: spmm_core::SparseFormat::Sell,
            ..small_params()
        };
        let mut bench = SuiteBenchmark::from_params(params).unwrap();
        assert!(run(&mut bench).is_err());
    }

    #[test]
    fn gpu_reports_simulated_time() {
        let params = Params {
            backend: Backend::GpuH100,
            ..small_params()
        };
        let mut bench = SuiteBenchmark::from_params(params).unwrap();
        let report = run(&mut bench).unwrap();
        assert!(report.simulated);
        assert!(report.mflops > 0.0);
    }

    #[test]
    fn spmv_op_end_to_end() {
        for backend in [Backend::Serial, Backend::Parallel] {
            let params = Params {
                op: Op::Spmv,
                backend,
                ..small_params()
            };
            let mut bench = SuiteBenchmark::from_params(params).unwrap();
            let report = run(&mut bench).unwrap();
            assert_eq!(report.verified, Some(true), "{}", backend.name());
            // SpMV useful flops are k-independent.
            assert_eq!(report.useful_flops, 2 * report.nnz as u64);
        }
        // SpMV has no GPU kernels.
        let params = Params {
            op: Op::Spmv,
            backend: Backend::GpuH100,
            ..small_params()
        };
        let mut bench = SuiteBenchmark::from_params(params).unwrap();
        assert!(run(&mut bench).is_err());
        // SELL/HYB/CSR5 have no SpMV kernels either: clean error.
        let params = Params {
            op: Op::Spmv,
            format: spmm_core::SparseFormat::Sell,
            ..small_params()
        };
        let mut bench = SuiteBenchmark::from_params(params).unwrap();
        assert!(run(&mut bench).is_err());
        // ... but the simd variant does carry a SELL SpMV kernel (lanes
        // across the slice are its native vector axis), plus CSR.
        for format in [spmm_core::SparseFormat::Csr, spmm_core::SparseFormat::Sell] {
            let params = Params {
                op: Op::Spmv,
                variant: Variant::Simd,
                format,
                ..small_params()
            };
            let mut bench = SuiteBenchmark::from_params(params).unwrap();
            let report = run(&mut bench).unwrap();
            assert_eq!(report.verified, Some(true), "{format} simd spmv");
        }
    }

    #[test]
    fn extension_formats_run_through_the_harness() {
        for format in [spmm_core::SparseFormat::Sell, spmm_core::SparseFormat::Hyb] {
            for backend in [Backend::Serial, Backend::Parallel] {
                let params = Params {
                    format,
                    backend,
                    ..small_params()
                };
                let mut bench = SuiteBenchmark::from_params(params).unwrap();
                let report = run(&mut bench).unwrap();
                assert_eq!(report.verified, Some(true), "{format}/{}", backend.name());
            }
        }
    }

    #[test]
    fn unknown_matrix_is_an_error() {
        let params = Params {
            matrix: "not_a_matrix".into(),
            ..small_params()
        };
        assert!(SuiteBenchmark::from_params(params).is_err());
    }

    #[test]
    fn backend_variant_parsing() {
        assert_eq!("omp".parse::<Backend>().unwrap(), Backend::Parallel);
        assert_eq!("gpu".parse::<Backend>().unwrap(), Backend::GpuH100);
        assert_eq!("bt".parse::<Variant>().unwrap(), Variant::TransposedB);
        assert_eq!("tiled".parse::<Variant>().unwrap(), Variant::Tiled);
        assert!("quantum".parse::<Backend>().is_err());
    }
}

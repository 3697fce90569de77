//! The workloads: which engine points each one runs, and why it exists.

use spmm_core::SparseFormat;
use spmm_harness::{Backend, HarnessError, Op, Params, Variant};
use spmm_parallel::Schedule;
use spmm_verify::ErrorModel;

/// Widest SIMD lane count in the suite: reassociating points get at least
/// this many partial sums in their error budget, as `spmm-bench --verify`
/// gives them.
const SIMD_LANES: usize = 8;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Serial SpMM repeated on one prepared matrix.
    SteadySpmm,
    /// Every format prepared and run a few times.
    FormatOneshot,
    /// Large memory-bound SpMV and narrow SpMM, serial and two-thread.
    ParallelBandwidth,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SteadySpmm,
        Workload::FormatOneshot,
        Workload::ParallelBandwidth,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadySpmm => "steady-spmm",
            Workload::FormatOneshot => "format-oneshot",
            Workload::ParallelBandwidth => "parallel-bandwidth",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: the use it stands for and the layer it
    /// exposes. Every run record carries it.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SteadySpmm => {
                "a solver or GNN loop multiplying one matrix many times: conversion is amortised, \
                 so kernel changes show here and conversion changes should not"
            }
            Workload::FormatOneshot => {
                "the paper's formatting-time column: all eight formats and every conversion route \
                 edge with few executes per prepare, what a one-shot caller pays"
            }
            Workload::ParallelBandwidth => {
                "memory-bound SpMV and k=16 SpMM at large scale with serial baselines: the only \
                 workload through spmm-parallel, and it charges kernels that move more bytes"
            }
        }
    }

    /// Suite replicas and their scales, in run order.
    pub fn matrices(self) -> &'static [(&'static str, f64)] {
        match self {
            Workload::SteadySpmm => &[("af23560", 0.15), ("cant", 0.15), ("torso1", 0.15)],
            // Two banded matrices with different row-length skew. torso1 is
            // left out: its ELL padding alone would take about 0.9 GB.
            Workload::FormatOneshot => &[("bcsstk17", 0.5), ("pdb1HYS", 0.5)],
            Workload::ParallelBandwidth => &[("cant", 1.0), ("torso1", 0.5)],
        }
    }

    /// Every point, grouped by matrix in [`Workload::matrices`] order.
    /// Parallel points use `threads` threads.
    pub fn points(self, threads: usize) -> Vec<Point> {
        use SparseFormat::{Csr, Sell};
        use Variant::{Normal, Simd, Tiled};
        let mut points = Vec::new();
        for &(matrix, scale) in self.matrices() {
            let point = |format, backend, variant, op, k| Point {
                matrix,
                scale,
                format,
                backend,
                variant,
                op,
                k,
                threads: if backend == Backend::Parallel {
                    threads
                } else {
                    1
                },
            };
            let (serial, parallel) = (Backend::Serial, Backend::Parallel);
            match self {
                Workload::SteadySpmm => {
                    for k in [128, 512] {
                        for (format, variant) in [(Csr, Normal), (Csr, Tiled), (Sell, Simd)] {
                            points.push(point(format, serial, variant, Op::Spmm, k));
                        }
                    }
                }
                Workload::FormatOneshot => {
                    for format in SparseFormat::ALL {
                        points.push(point(format, serial, Normal, Op::Spmm, 32));
                    }
                }
                Workload::ParallelBandwidth => {
                    points.push(point(Csr, serial, Normal, Op::Spmv, 1));
                    points.push(point(Csr, parallel, Normal, Op::Spmv, 1));
                    points.push(point(Csr, serial, Normal, Op::Spmm, 16));
                    points.push(point(Csr, parallel, Normal, Op::Spmm, 16));
                    points.push(point(Csr, parallel, Tiled, Op::Spmm, 16));
                }
            }
        }
        points
    }
}

/// Threads a parallel point uses: two, or one on a single-core host.
pub fn threads() -> usize {
    spmm_parallel::default_threads().clamp(1, 2)
}

/// How an executor runs a point; the counter audit reports per strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Serial row-loop SpMM.
    SerialNormal,
    /// Serial tiled SpMM over packed B panels.
    SerialTiled,
    /// Serial SIMD SpMM.
    SerialSimd,
    /// Pool-parallel row-loop SpMM.
    ParallelNormal,
    /// Pool-parallel tiled SpMM.
    ParallelTiled,
    /// Serial SpMV.
    SpmvSerial,
    /// Pool-parallel SpMV.
    SpmvParallel,
}

impl Strategy {
    /// Every strategy some workload runs.
    pub const ALL: [Strategy; 7] = [
        Strategy::SerialNormal,
        Strategy::SerialTiled,
        Strategy::SerialSimd,
        Strategy::ParallelNormal,
        Strategy::ParallelTiled,
        Strategy::SpmvSerial,
        Strategy::SpmvParallel,
    ];

    /// Metric-name spelling.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::SerialNormal => "serial_normal",
            Strategy::SerialTiled => "serial_tiled",
            Strategy::SerialSimd => "serial_simd",
            Strategy::ParallelNormal => "parallel_normal",
            Strategy::ParallelTiled => "parallel_tiled",
            Strategy::SpmvSerial => "spmv_serial",
            Strategy::SpmvParallel => "spmv_parallel",
        }
    }

    /// The point that runs this strategy on a matrix: CSR, except SELL for
    /// the SIMD path, at width `k` (1 for SpMV).
    pub fn probe_point(self, matrix: &'static str, scale: f64, k: usize, threads: usize) -> Point {
        use SparseFormat::{Csr, Sell};
        use Variant::{Normal, Simd, Tiled};
        let (format, parallel, variant, op) = match self {
            Strategy::SerialNormal => (Csr, false, Normal, Op::Spmm),
            Strategy::SerialTiled => (Csr, false, Tiled, Op::Spmm),
            Strategy::SerialSimd => (Sell, false, Simd, Op::Spmm),
            Strategy::ParallelNormal => (Csr, true, Normal, Op::Spmm),
            Strategy::ParallelTiled => (Csr, true, Tiled, Op::Spmm),
            Strategy::SpmvSerial => (Csr, false, Normal, Op::Spmv),
            Strategy::SpmvParallel => (Csr, true, Normal, Op::Spmv),
        };
        Point {
            matrix,
            scale,
            format,
            backend: if parallel {
                Backend::Parallel
            } else {
                Backend::Serial
            },
            variant,
            op,
            k: if op == Op::Spmv { 1 } else { k },
            threads: if parallel { threads } else { 1 },
        }
    }
}

/// One (matrix, format, backend, variant, op, width) combination driven
/// through the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Suite matrix name.
    pub matrix: &'static str,
    /// Replica scale.
    pub scale: f64,
    /// Target format.
    pub format: SparseFormat,
    /// Serial or pool-parallel.
    pub backend: Backend,
    /// Kernel variant.
    pub variant: Variant,
    /// SpMM or SpMV.
    pub op: Op,
    /// Dense width (1 for SpMV).
    pub k: usize,
    /// Threads the point runs on.
    pub threads: usize,
}

impl Point {
    /// `<matrix>.<format>.<variant>[.<t>t].k<k>`, with `.spmv` in place of
    /// the width for SpMV.
    pub fn label(&self) -> String {
        let mut label = format!("{}.{}.{}", self.matrix, self.format, self.variant.name());
        if self.backend == Backend::Parallel {
            label.push_str(&format!(".{}t", self.threads));
        }
        match self.op {
            Op::Spmm => label.push_str(&format!(".k{}", self.k)),
            Op::Spmv => label.push_str(".spmv"),
        }
        label
    }

    /// The execution strategy the point's plan resolves to.
    pub fn strategy(&self) -> Strategy {
        let parallel = self.backend == Backend::Parallel;
        match (self.op, parallel, self.variant) {
            (Op::Spmv, false, _) => Strategy::SpmvSerial,
            (Op::Spmv, true, _) => Strategy::SpmvParallel,
            (Op::Spmm, false, Variant::Tiled) => Strategy::SerialTiled,
            (Op::Spmm, false, Variant::Simd) => Strategy::SerialSimd,
            (Op::Spmm, false, _) => Strategy::SerialNormal,
            (Op::Spmm, true, Variant::Tiled) => Strategy::ParallelTiled,
            (Op::Spmm, true, _) => Strategy::ParallelNormal,
        }
    }

    /// Validated harness parameters (parallel points use `--schedule auto`).
    pub fn params(&self, seed: u64) -> Result<Params, HarnessError> {
        let schedule = match self.backend {
            Backend::Parallel => Schedule::Auto,
            _ => Schedule::Static,
        };
        Params::builder()
            .matrix(self.matrix)
            .format(self.format)
            .backend(self.backend)
            .variant(self.variant)
            .op(self.op)
            .k(self.k)
            .threads(self.threads)
            .schedule(schedule)
            .scale(self.scale)
            .seed(seed)
            .build()
    }

    /// Useful flops of one call: 2·nnz·k (2·nnz for SpMV).
    pub fn flops(&self, nnz: usize) -> f64 {
        spmm_kernels::spmm_flops(nnz, self.k) as f64
    }

    /// Bytes one call must move at least, computed from array sizes: the
    /// formatted matrix once, B (or x) once and C (or y) once.
    pub fn compulsory_bytes(&self, format_bytes: usize, rows: usize, cols: usize) -> f64 {
        (format_bytes + (rows + cols) * self.k * std::mem::size_of::<f64>()) as f64
    }

    /// The oracle's error model. Every point gets the reassociating
    /// budget: besides the SIMD, tiled and parallel kernels, the serial
    /// CSR kernel drifts a few ULPs past the sequential budget on torso1's
    /// heavy rows.
    pub fn error_model(&self) -> ErrorModel {
        ErrorModel::reassociating(self.threads.max(SIMD_LANES))
    }
}

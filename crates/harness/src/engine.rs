//! The plan/execute engine: decide once, run N times.
//!
//! Historically [`crate::benchmark`] interleaved deciding *what* to run
//! (format conversion, kernel selection, scratch shapes) with running it.
//! This module splits the two:
//!
//! * [`Planner`] consults the [`spmm_perfmodel`] machine model and the
//!   [`spmm_core`] conversion graph to build a [`Plan`]: the conversion
//!   route, the execution strategy, the tile shape (when tiling), and the
//!   predicted MFLOPS — all from matrix *statistics*, before any data is
//!   converted.
//! * [`Executor`] owns the buffers: the formatted matrix, a
//!   [`spmm_kernels::Workspace`] arena (output C, SpMV y, transposed B,
//!   packed panels) and the GPU accumulator scratch. `prepare` grows them
//!   once; `execute` runs one timed iteration allocation-free, which the
//!   harness checks through the `workspace.*` metrics when full tracing
//!   is on.
//!
//! [`crate::benchmark::run`] and both binaries drive this pair; studies
//! that benchmark whole (format × kernel) grids reuse the same plan
//! metadata through [`Plan::route_string`].

use spmm_core::convert::{default_edge_cost, route_string};
use spmm_core::{CooMatrix, DenseMatrix, MatrixProperties, MatrixStats, SparseFormat};
use spmm_gpusim::{GpuScratch, LaunchStats};
use spmm_kernels::tiled::TileConfig;
use spmm_kernels::{FormatData, Workspace};
use spmm_parallel::global_pool;
use spmm_perfmodel::{
    conversion_seconds, estimate_spmm_mflops, select_tile_shape, MachineProfile, SpmmWorkload,
};

use crate::benchmark::{Backend, Op, Variant};
use crate::errors::HarnessError;
use crate::params::{self, Params};

/// How the executor runs one calculation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecStrategy {
    /// CPU SpMM: one [`FormatData`] entry point per (variant, parallel).
    /// `Variant::Tiled` runs against workspace-packed B panels.
    Cpu {
        /// Run on the pool rather than single-threaded.
        parallel: bool,
        /// The kernel family (never `Vendor`, which is GPU-only).
        variant: Variant,
    },
    /// Simulated GPU SpMM (`vendor` = the cuSPARSE-style library kernels).
    Gpu {
        /// Use the vendor-library kernels instead of the offload ones.
        vendor: bool,
    },
    /// Sparse × vector (CPU only).
    Spmv,
}

/// Everything decided before the first byte is converted: the route, the
/// strategy, the tile shape and the model's predictions.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The parameters the plan was built for.
    pub params: Params,
    /// Conversion route from COO to the target format, endpoints included.
    pub route: Vec<SparseFormat>,
    /// Tile shape for the tiled strategy (`None` otherwise).
    pub tile: Option<TileConfig>,
    /// Model-predicted MFLOPS for host CPU SpMM strategies.
    pub predicted_mflops: Option<f64>,
    /// Modelled one-core seconds the conversion route costs.
    pub conversion_s: f64,
    /// How the executor will run each iteration.
    pub strategy: ExecStrategy,
}

impl Plan {
    /// The route as `"coo->csr->bcsr"`.
    pub fn route_string(&self) -> String {
        route_string(&self.route)
    }
}

/// Estimated stored slots (padding included) a format keeps for a matrix
/// with these statistics — the planner's stand-in for the real
/// `stored_entries()` it cannot know before converting.
fn estimated_stored_entries(format: SparseFormat, s: &MatrixStats) -> usize {
    match format {
        SparseFormat::Ell => s.rows.saturating_mul(s.max_row_nnz),
        SparseFormat::Sell => (s.nnz as f64 * 1.15) as usize,
        SparseFormat::Bcsr | SparseFormat::Bell => (s.nnz as f64 * 1.5) as usize,
        _ => s.nnz,
    }
}

/// Builds [`Plan`]s from matrix statistics and parameters.
#[derive(Debug, Clone)]
pub struct Planner {
    machine: MachineProfile,
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new()
    }
}

impl Planner {
    /// A planner modelling the local host.
    pub fn new() -> Self {
        Planner {
            machine: MachineProfile::container_host(),
        }
    }

    /// A planner modelling an explicit machine (the studies' Arm/x86
    /// profiles).
    pub fn with_machine(machine: MachineProfile) -> Self {
        Planner { machine }
    }

    /// The machine being modelled.
    pub fn machine(&self) -> &MachineProfile {
        &self.machine
    }

    /// Build the plan for one benchmark: strategy, conversion route, tile
    /// shape and predictions. Fails with [`HarnessError::InvalidParams`]
    /// when the parameters break the rule table `ParamsBuilder` enforces
    /// up front, so struct-literal [`Params`] get the same check.
    pub fn plan(&self, props: &MatrixProperties, params: &Params) -> Result<Plan, HarnessError> {
        let _span = spmm_trace::span!("plan");
        params::validate(params)?;
        let strategy = strategy(params);

        let stats = MatrixStats {
            rows: props.rows,
            cols: props.cols,
            nnz: props.nnz,
            max_row_nnz: props.max_row_nnz,
            block: params.block.max(1),
        };
        let route = spmm_core::ConversionGraph::shared()
            .route(SparseFormat::Coo, params.format, &stats)
            .map_err(HarnessError::Conversion)?;
        let route_bytes: f64 = route
            .windows(2)
            .map(|w| default_edge_cost(w[0], w[1], &stats))
            .sum();

        let workload = SpmmWorkload::new(
            params.format,
            props.rows,
            props.cols,
            props.nnz,
            estimated_stored_entries(params.format, &stats),
            props.max_row_nnz,
            spmm_core::convert::estimated_format_bytes(params.format, &stats) as usize,
            params.block,
            params.k,
        )
        .with_col_window(props.bandwidth.max(1));

        let tile = (params.variant == Variant::Tiled).then(|| {
            let shape = select_tile_shape(
                &self.machine,
                &workload,
                &spmm_kernels::optimized::SUPPORTED_K,
            );
            TileConfig::new(shape.panel_w, shape.row_block)
        });

        let predicted_mflops = match strategy {
            ExecStrategy::Cpu { parallel, .. } => {
                let threads = if parallel { params.threads } else { 1 };
                Some(estimate_spmm_mflops(&self.machine, &workload, threads))
            }
            // The model has no GPU or SpMV roofline.
            ExecStrategy::Gpu { .. } | ExecStrategy::Spmv => None,
        };

        Ok(Plan {
            params: params.clone(),
            route,
            tile,
            predicted_mflops,
            conversion_s: conversion_seconds(&self.machine, route_bytes),
            strategy,
        })
    }
}

/// The strategy for parameters that passed [`params::validate`].
fn strategy(params: &Params) -> ExecStrategy {
    if params.op == Op::Spmv {
        ExecStrategy::Spmv
    } else if params.backend.device().is_some() {
        ExecStrategy::Gpu {
            vendor: params.variant == Variant::Vendor,
        }
    } else {
        ExecStrategy::Cpu {
            parallel: params.backend == Backend::Parallel,
            variant: params.variant,
        }
    }
}

/// A B that does not fit an `a_cols`-column matrix at `k` is an
/// [`HarnessError::Operand`], not a kernel assertion.
fn check_b(a_cols: usize, k: usize, b: &DenseMatrix<f64>) -> Result<(), HarnessError> {
    if b.rows() != a_cols || b.cols() < k {
        return Err(HarnessError::Operand(format!(
            "B is {}x{} but A has {a_cols} columns and k = {k}",
            b.rows(),
            b.cols()
        )));
    }
    Ok(())
}

/// Owns a [`Plan`] plus every buffer it needs; `prepare` once, `execute`
/// N times with zero steady-state allocations.
pub struct Executor {
    plan: Plan,
    data: Option<FormatData<f64>>,
    ws: Workspace<f64>,
    gpu: GpuScratch<f64>,
    last_gpu_stats: Option<LaunchStats>,
}

impl Executor {
    /// Wrap a plan with empty buffers.
    pub fn new(plan: Plan) -> Self {
        Executor {
            plan,
            data: None,
            ws: Workspace::new(),
            gpu: GpuScratch::new(),
            last_gpu_stats: None,
        }
    }

    /// The plan being executed. `prepare` converts along `plan.route`
    /// as planned; it never routes again.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The formatted matrix, once `prepare` has run.
    pub fn data(&self) -> Option<&FormatData<f64>> {
        self.data.as_ref()
    }

    /// Simulated stats of the last GPU execute.
    pub fn last_gpu_stats(&self) -> Option<&LaunchStats> {
        self.last_gpu_stats.as_ref()
    }

    /// The SpMM output of the last execute.
    pub fn result(&self) -> &DenseMatrix<f64> {
        self.ws.c()
    }

    /// The SpMV output of the last execute.
    pub fn y(&self) -> &[f64] {
        self.ws.y()
    }

    /// Convert the matrix along the planned route and grow every buffer
    /// the strategy needs. This is the benchmark's "formatting" phase:
    /// one `convert[<edge>]` span per route edge, then one `acquire`
    /// span. A route that does not lead from COO to the planned format
    /// is a [`HarnessError::Conversion`]; a B that does not fit the
    /// matrix at `k` is a [`HarnessError::Operand`].
    pub fn prepare(
        &mut self,
        coo: &CooMatrix<f64>,
        b: &DenseMatrix<f64>,
    ) -> Result<(), HarnessError> {
        let _span = spmm_trace::span!("prepare");
        let params = &self.plan.params;
        if self.plan.strategy != ExecStrategy::Spmv {
            check_b(coo.cols(), params.k, b)?;
        }
        let data = FormatData::from_coo_along(params.format, coo, &self.plan.route, params.block)
            .map_err(HarnessError::Conversion)?;

        let _acquire = spmm_trace::span!("acquire");
        match self.plan.strategy {
            ExecStrategy::Cpu { variant, .. } => {
                match variant {
                    Variant::TransposedB => {
                        self.ws.acquire_bt(b);
                    }
                    Variant::Tiled => {
                        let cfg = self
                            .plan
                            .tile
                            .unwrap_or_else(|| TileConfig::for_k(params.k));
                        self.plan.tile = Some(cfg);
                        self.ws.acquire_packed(b, params.k, cfg.panel_w);
                    }
                    _ => {}
                }
                self.ws.acquire_c(coo.rows(), params.k);
            }
            ExecStrategy::Gpu { .. } => {
                self.ws.acquire_c(coo.rows(), params.k);
            }
            ExecStrategy::Spmv => {
                self.ws.acquire_y(coo.rows());
            }
        }
        self.data = Some(data);
        Ok(())
    }

    /// Run one iteration of the planned kernel. `x` is the SpMV operand
    /// (ignored by SpMM strategies). Performs no allocations: every
    /// buffer was grown by `prepare`.
    pub fn execute(&mut self, b: &DenseMatrix<f64>, x: &[f64]) -> Result<(), HarnessError> {
        let params = &self.plan.params;
        let k = params.k;
        let data = self
            .data
            .as_ref()
            .ok_or_else(|| HarnessError::Calc("calc() before format()".into()))?;
        if self.plan.strategy == ExecStrategy::Spmv {
            if x.len() != data.cols() {
                return Err(HarnessError::Operand(format!(
                    "x has {} entries but A has {} columns",
                    x.len(),
                    data.cols()
                )));
            }
        } else {
            check_b(data.cols(), k, b)?;
        }
        match self.plan.strategy {
            ExecStrategy::Cpu { parallel, variant } => {
                let (pool, threads, schedule) = (global_pool(), params.threads, params.schedule);
                let view = self.ws.split();
                let (bt, packed, c) = (view.bt, view.packed, view.c);
                let ran = match (variant, parallel, self.plan.tile) {
                    (Variant::Normal, false, _) => {
                        data.spmm_serial(b, k, c);
                        true
                    }
                    (Variant::Normal, true, _) => {
                        data.spmm_parallel(pool, threads, schedule, b, k, c);
                        true
                    }
                    (Variant::TransposedB, false, _) => data.spmm_serial_bt(bt, k, c),
                    (Variant::TransposedB, true, _) => {
                        data.spmm_parallel_bt(pool, threads, schedule, bt, k, c)
                    }
                    (Variant::FixedK, false, _) => data.spmm_serial_fixed_k(b, k, c),
                    (Variant::FixedK, true, _) => {
                        data.spmm_parallel_fixed_k(pool, threads, schedule, b, k, c)
                    }
                    (Variant::Simd, false, _) => data.spmm_serial_simd(b, k, c),
                    (Variant::Tiled, false, Some(cfg)) => data.spmm_serial_tiled(packed, cfg, c),
                    (Variant::Tiled, true, Some(cfg)) => {
                        data.spmm_parallel_tiled(pool, threads, schedule, packed, cfg, c)
                    }
                    // Parallel simd, vendor on a CPU, or tiled before prepare.
                    _ => false,
                };
                if !ran {
                    return Err(HarnessError::Unsupported(format!(
                        "no {} kernel for {} on {}",
                        variant.name(),
                        params.format,
                        params.backend.name()
                    )));
                }
            }
            ExecStrategy::Gpu { vendor } => {
                let device = params.backend.device().ok_or_else(|| {
                    HarnessError::Unsupported(format!(
                        "gpu strategy on the {} backend, which has no device",
                        params.backend.name()
                    ))
                })?;
                let c = self.ws.c_mut();
                let stats = if vendor {
                    match data {
                        FormatData::Csr(m) => {
                            spmm_gpusim::vendor::cusparse_csr_spmm(&device, m, b, k, c)
                        }
                        FormatData::Coo(m) => {
                            spmm_gpusim::vendor::cusparse_coo_spmm(&device, m, b, k, c)
                        }
                        other => {
                            return Err(HarnessError::Unsupported(format!(
                                "cuSPARSE provides only COO and CSR SpMM (asked for {})",
                                other.format()
                            )))
                        }
                    }
                } else {
                    match data {
                        FormatData::Coo(m) => {
                            spmm_gpusim::kernels::coo_spmm_gpu(&device, m, b, k, c)
                        }
                        FormatData::Csr(m) => spmm_gpusim::kernels::csr_spmm_gpu_in(
                            &device,
                            m,
                            b,
                            k,
                            c,
                            &mut self.gpu,
                        ),
                        FormatData::Ell(m) => spmm_gpusim::kernels::ell_spmm_gpu_in(
                            &device,
                            m,
                            b,
                            k,
                            c,
                            &mut self.gpu,
                        ),
                        FormatData::Bcsr(m) => {
                            spmm_gpusim::kernels::bcsr_spmm_gpu(&device, m, b, k, c)
                        }
                        FormatData::Sell(m) => spmm_gpusim::kernels::sell_spmm_gpu_in(
                            &device,
                            m,
                            b,
                            k,
                            c,
                            &mut self.gpu,
                        ),
                        other => {
                            return Err(HarnessError::Unsupported(format!(
                                "no GPU kernel for format {}",
                                other.format()
                            )))
                        }
                    }
                };
                self.last_gpu_stats = Some(stats);
            }
            ExecStrategy::Spmv => {
                let view = self.ws.split();
                let y = view.y;
                let ran = match (params.backend, params.variant) {
                    (Backend::Serial, Variant::Normal) => data.spmv_serial(x, y),
                    (Backend::Serial, Variant::Simd) => {
                        data.spmv_serial_simd_at(spmm_kernels::simd::active_level(), x, y)
                    }
                    (Backend::Parallel, Variant::Normal) => {
                        data.spmv_parallel(global_pool(), params.threads, params.schedule, x, y)
                    }
                    _ => false,
                };
                if !ran {
                    return Err(HarnessError::Unsupported(format!(
                        "no {} SpMV kernel for {} on {}",
                        params.variant.name(),
                        params.format,
                        params.backend.name()
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use spmm_core::{ConversionGraph, ConvertConfig, SparseError};

    fn props_and_coo() -> (CooMatrix<f64>, MatrixProperties) {
        let mut trips = Vec::new();
        for i in 0..64usize {
            for d in 0..(i % 4 + 1) {
                trips.push((i, (i * 3 + d * 11) % 48, 1.0 + (i + d) as f64 * 0.25));
            }
        }
        let coo = CooMatrix::from_triplets(64, 48, &trips).unwrap();
        let props = coo.properties();
        (coo, props)
    }

    #[test]
    fn plan_routes_blocked_formats_through_csr() {
        let (_, props) = props_and_coo();
        let params = Params {
            format: SparseFormat::Bcsr,
            ..Params::default()
        };
        let plan = Planner::new().plan(&props, &params).unwrap();
        assert_eq!(
            plan.route,
            vec![SparseFormat::Coo, SparseFormat::Csr, SparseFormat::Bcsr]
        );
        assert_eq!(plan.route_string(), "coo->csr->bcsr");
        assert!(plan.conversion_s > 0.0);
        assert!(plan.predicted_mflops.unwrap() > 0.0);
    }

    #[test]
    fn tiled_plans_pin_a_tile_shape_and_execute() {
        let (coo, props) = props_and_coo();
        let params = Params {
            format: SparseFormat::Csr,
            variant: Variant::Tiled,
            k: 16,
            ..Params::default()
        };
        let plan = Planner::new().plan(&props, &params).unwrap();
        assert!(matches!(
            plan.strategy,
            ExecStrategy::Cpu {
                parallel: false,
                variant: Variant::Tiled
            }
        ));
        let tile = plan.tile.unwrap();
        assert!(tile.panel_w >= 1 && tile.panel_w <= 16);

        let b = DenseMatrix::from_fn(48, 16, |i, j| ((i + j) % 5) as f64 - 2.0);
        let expected = coo.spmm_reference_k(&b, 16);
        let mut exec = Executor::new(plan);
        exec.prepare(&coo, &b).unwrap();
        exec.execute(&b, &[]).unwrap();
        assert_eq!(exec.result(), &expected);
    }

    #[test]
    fn simd_plans_predict_the_normal_rate() {
        // The `simd` variant runs the normal range bodies with a fused
        // multiply-add, so the model has no separate rate for it.
        let (_, props) = props_and_coo();
        for format in [SparseFormat::Csr, SparseFormat::Sell] {
            let predict = |variant| {
                let params = Params {
                    format,
                    variant,
                    ..Params::default()
                };
                Planner::new()
                    .plan(&props, &params)
                    .unwrap()
                    .predicted_mflops
            };
            let simd = predict(Variant::Simd);
            assert!(simd.is_some_and(|m| m > 0.0), "{format}");
            assert_eq!(simd, predict(Variant::Normal), "{format}");
        }
    }

    #[test]
    fn gpu_and_spmv_plans_have_no_cpu_prediction() {
        let (_, props) = props_and_coo();
        let gpu = Params {
            backend: Backend::GpuH100,
            ..Params::default()
        };
        let plan = Planner::new().plan(&props, &gpu).unwrap();
        assert!(matches!(plan.strategy, ExecStrategy::Gpu { vendor: false }));
        assert!(plan.predicted_mflops.is_none());

        let spmv = Params {
            op: Op::Spmv,
            ..Params::default()
        };
        let plan = Planner::new().plan(&props, &spmv).unwrap();
        assert!(matches!(plan.strategy, ExecStrategy::Spmv));
        assert!(plan.predicted_mflops.is_none());

        let gpu_spmv = Params {
            op: Op::Spmv,
            backend: Backend::GpuA100,
            ..Params::default()
        };
        assert!(matches!(
            Planner::new().plan(&props, &gpu_spmv),
            Err(HarnessError::InvalidParams(_))
        ));
    }

    #[test]
    fn a_gpu_strategy_on_a_cpu_backend_is_a_typed_error() {
        let (coo, props) = props_and_coo();
        let params = Params::default();
        let mut plan = Planner::new().plan(&props, &params).unwrap();
        plan.strategy = ExecStrategy::Gpu { vendor: false };

        let b = DenseMatrix::from_fn(48, params.k, |i, j| (i + j) as f64);
        let mut exec = Executor::new(plan);
        exec.prepare(&coo, &b).unwrap();
        assert!(matches!(
            exec.execute(&b, &[]),
            Err(HarnessError::Unsupported(_))
        ));
    }

    #[test]
    fn a_mis_shaped_operand_is_a_typed_error() {
        let (coo, props) = props_and_coo();
        let run = |variant, b: &DenseMatrix<f64>, exec_b: &DenseMatrix<f64>| {
            let params = Params {
                variant,
                k: 16,
                ..Params::default()
            };
            let mut exec = Executor::new(Planner::new().plan(&props, &params).unwrap());
            let prepared = exec.prepare(&coo, b);
            (prepared, exec.execute(exec_b, &[]))
        };
        let fits = DenseMatrix::from_fn(48, 16, |i, j| (i + j) as f64);
        let short_rows = DenseMatrix::from_fn(47, 16, |i, j| (i + j) as f64);
        let narrow = DenseMatrix::from_fn(48, 15, |i, j| (i + j) as f64);
        for variant in [Variant::Normal, Variant::TransposedB, Variant::Tiled] {
            for bad in [&short_rows, &narrow] {
                let (prepared, executed) = run(variant, bad, bad);
                assert!(
                    matches!(prepared, Err(HarnessError::Operand(_))),
                    "{variant:?}"
                );
                assert!(matches!(executed, Err(HarnessError::Calc(_))));
                let (prepared, executed) = run(variant, &fits, bad);
                assert!(prepared.is_ok());
                assert!(
                    matches!(executed, Err(HarnessError::Operand(_))),
                    "{variant:?}"
                );
            }
        }

        let spmv = Params {
            op: Op::Spmv,
            ..Params::default()
        };
        let mut exec = Executor::new(Planner::new().plan(&props, &spmv).unwrap());
        exec.prepare(&coo, &fits).unwrap();
        assert!(matches!(
            exec.execute(&fits, &[1.0; 47]),
            Err(HarnessError::Operand(_))
        ));
        exec.execute(&fits, &[1.0; 48]).unwrap();
    }

    #[test]
    fn a_route_that_does_not_reach_the_format_fails_in_prepare() {
        use SparseFormat as F;
        let (coo, props) = props_and_coo();
        let params = Params {
            format: F::Bcsr,
            ..Params::default()
        };
        let plan = Planner::new().plan(&props, &params).unwrap();
        let b = DenseMatrix::from_fn(48, params.k, |i, j| (i + j) as f64);
        for route in [
            vec![],
            vec![F::Csr, F::Bcsr],
            vec![F::Coo, F::Csr],
            vec![F::Coo, F::Csr, F::Ell, F::Bcsr],
            vec![F::Coo, F::Bcsr],
        ] {
            let mut exec = Executor::new(Plan {
                route: route.clone(),
                ..plan.clone()
            });
            assert!(
                matches!(
                    exec.prepare(&coo, &b),
                    Err(HarnessError::Conversion(SparseError::NoRoute { .. }))
                ),
                "{route:?}"
            );
            assert!(exec.data().is_none());
        }
    }

    #[test]
    fn prepare_follows_the_route_the_stats_would_pick() {
        let cfg = |block| ConvertConfig {
            block,
            sell_c: spmm_kernels::dispatch::SELL_SLICE_HEIGHT,
            sell_sigma: spmm_kernels::dispatch::SELL_SIGMA,
        };
        for name in ["cant", "torso1"] {
            let coo = spmm_matgen::by_name(name).unwrap().generate(0.02, 1);
            let props = coo.properties();
            for format in SparseFormat::ALL {
                let params = Params {
                    format,
                    k: 8,
                    ..Params::default()
                };
                let plan = Planner::new().plan(&props, &params).unwrap();
                let derived = ConversionGraph::shared()
                    .convert_coo(&coo, format, &cfg(params.block))
                    .unwrap();
                assert_eq!(plan.route, derived.route, "{name} {format}");

                let b = DenseMatrix::from_fn(coo.cols(), 8, |i, j| ((i + j) % 3) as f64);
                let mut exec = Executor::new(plan.clone());
                exec.prepare(&coo, &b).unwrap();
                assert_eq!(exec.plan().route, plan.route, "{name} {format}");
                assert_eq!(exec.data().unwrap().format(), format);
            }
        }
    }
}

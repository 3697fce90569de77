//! The traced run: the same points, with the benchmark's own `spmm_trace`
//! spans around every public call it makes, split into per-layer metrics.
//! Nothing inside the program is instrumented for it.
//!
//! | span                | public call it wraps                                      |
//! |---------------------|-----------------------------------------------------------|
//! | `bench.calib`       | the triad and FMA probes ([`crate::calib`])               |
//! | `bench.generate`    | `MatrixSpec::generate`, `dense_b`                         |
//! | `bench.plan`        | `Planner::plan`                                           |
//! | `bench.prepare`     | `Executor::prepare`                                       |
//! | `bench.convert[e]`  | route edge `e` replayed through its per-edge constructor  |
//! | `bench.pack`        | `TileConfig::pack`, replayed                              |
//! | `bench.execute`     | `Executor::execute`                                       |
//! | `bench.ab_dispatch` | `Executor::execute` against the bare `FormatData` call    |
//! | `bench.ab_trace`    | `Executor::execute` at each `TraceLevel`                  |
//! | `bench.verify`      | `oracle_spmm`/`oracle_spmv` + `compare_spmm`/`compare_spmv` |
//! | `bench.probe`       | `FormatData::from_coo` and the two-thread probe           |
//! | `bench.audit`       | `Executor::execute` under `TraceLevel::Full`, `MetricsSnapshot` |
//! | `bench.release`     | dropping executors, replayed formats and inputs           |
//!
//! Wall time outside these spans is `bench.unattributed_frac`. The
//! strategy probes (`core.stored_over_nnz.*`, `trace.*.<strategy>`, and
//! `parallel.speedup_2t` where a workload has no serial/two-thread pair)
//! run on the workload's first matrix, so every workload reports every
//! metric `BENCHMARK.json` lists; `core.convert.<edge>_s` is 0 where no
//! route of the workload takes that edge.

use std::time::{Duration, Instant};

use spmm_core::{
    AnyMatrix, BcsrMatrix, BellMatrix, CooMatrix, Csr5Matrix, CsrMatrix, DenseMatrix, EllMatrix,
    HybMatrix, PackedPanels, SellMatrix, SparseError, SparseFormat,
};
use spmm_harness::json::Json;
use spmm_harness::{Backend, Executor, Op, Params, Planner};
use spmm_kernels::dispatch::{SELL_SIGMA, SELL_SLICE_HEIGHT};
use spmm_kernels::tiled::TileConfig;
use spmm_kernels::FormatData;
use spmm_parallel::Schedule;
use spmm_trace::{MetricsSnapshot, TraceLevel};

use crate::calib::Calibration;
use crate::inputs::Inputs;
use crate::oracle;
use crate::stats::{geomean, median, overhead};
use crate::workload::{self, Point, Strategy};
use crate::{Config, Metric, Outcome, MIB};

/// Set-ups per point; layer times take their median.
const REPS: usize = 3;
/// Fewest timed executes, A/B pairs or rounds per point.
const MIN_SAMPLES: usize = 3;
/// Most timed executes, A/B pairs or rounds per point.
const MAX_SAMPLES: usize = 200;
/// Executes per strategy in the counter audit.
const AUDIT_EXECUTES: usize = 3;
/// Route edges by metric name: COO canonicalised in place, then the hub
/// and the six CSR-sourced constructors.
const EDGES: [&str; 8] = [
    "coo_csr", "coo_coo", "csr_ell", "csr_bcsr", "csr_bell", "csr_csr5", "csr_sell", "csr_hyb",
];

/// Run `f` under a benchmark span; return its result and wall seconds.
fn timed<R>(name: &'static str, label: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = spmm_trace::span_labeled(name, label);
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Sets the trace level and puts the previous one back on drop.
struct LevelGuard(TraceLevel);

impl LevelGuard {
    fn set(level: TraceLevel) -> LevelGuard {
        let previous = spmm_trace::trace_level();
        spmm_trace::set_trace_level(level);
        LevelGuard(previous)
    }
}

impl Drop for LevelGuard {
    fn drop(&mut self) {
        spmm_trace::set_trace_level(self.0);
    }
}

/// Everything the traced run measured on one point.
struct PointTrace {
    point: Point,
    route: String,
    plan_s: Vec<f64>,
    prepare_s: Vec<f64>,
    /// `(edge, seconds per rep)` for each replayed route edge.
    edges: Vec<(&'static str, Vec<f64>)>,
    pack_s: Vec<f64>,
    exec_s: Vec<f64>,
    /// `ln(engine / bare)` per dispatch pair.
    dispatch: Vec<f64>,
    /// `ln(spans / off)` and `ln(full / off)` per rotation.
    spans_cost: Vec<f64>,
    full_cost: Vec<f64>,
    verify_s: f64,
    worst_budget_frac: f64,
    conversion_model_s: f64,
    predicted_mflops: Option<f64>,
    format_bytes: f64,
    flops: f64,
    bytes: f64,
    roof_gflops: f64,
    failure: Option<String>,
}

impl PointTrace {
    fn new(point: &Point) -> PointTrace {
        PointTrace {
            point: point.clone(),
            route: String::new(),
            plan_s: Vec::new(),
            prepare_s: Vec::new(),
            edges: Vec::new(),
            pack_s: Vec::new(),
            exec_s: Vec::new(),
            dispatch: Vec::new(),
            spans_cost: Vec::new(),
            full_cost: Vec::new(),
            verify_s: 0.0,
            worst_budget_frac: 0.0,
            conversion_model_s: 0.0,
            predicted_mflops: None,
            format_bytes: 0.0,
            flops: 0.0,
            bytes: 0.0,
            roof_gflops: 0.0,
            failure: None,
        }
    }

    fn gflops(&self) -> f64 {
        self.flops / median(&self.exec_s) / 1e9
    }

    fn edge_s(&self, edge: &str) -> f64 {
        self.edges
            .iter()
            .filter(|(e, _)| *e == edge)
            .map(|(_, s)| median(s))
            .sum()
    }

    fn edges_s(&self) -> f64 {
        self.edges.iter().map(|(_, s)| median(s)).sum()
    }

    fn pack(&self) -> f64 {
        if self.pack_s.is_empty() {
            0.0
        } else {
            median(&self.pack_s)
        }
    }
}

/// The strategy probes on the workload's first matrix.
struct Probes {
    stored_over_nnz: Vec<(SparseFormat, f64)>,
    /// Kernel calls, flops over expected and spans, per execute.
    audit: Vec<(Strategy, [f64; 3])>,
    speedup_2t: Option<f64>,
}

/// The traced run of `cfg.workload`.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let threads = workload::threads();
    let points = cfg.workload.points(threads);
    let share = cfg.seconds / points.len() as f64;
    let planner = Planner::new();
    let audit_k = points.iter().find(|p| p.op == Op::Spmm).map_or(1, |p| p.k);

    spmm_trace::set_trace_level(TraceLevel::Spans);
    spmm_trace::clear_spans();
    let wall = Instant::now();
    let (calib, _) = timed("bench.calib", "", || Calibration::measure(threads));
    let mut traces: Vec<PointTrace> = Vec::with_capacity(points.len());
    let mut probes = None;
    for (i, &(matrix, scale)) in cfg.workload.matrices().iter().enumerate() {
        let mine: Vec<&Point> = points.iter().filter(|p| p.matrix == matrix).collect();
        let ks: Vec<usize> = mine.iter().map(|p| p.k).chain([audit_k]).collect();
        let (inputs, _) = timed("bench.generate", matrix, || {
            Inputs::generate(matrix, scale * cfg.scale_mul, cfg.seed, ks)
        });
        let inputs = inputs?;
        for p in mine {
            let mut t = PointTrace::new(p);
            let traced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                trace_point(&mut t, &inputs, &planner, &calib, share, cfg)
            }));
            t.failure = match traced {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some(e),
                Err(_) => Some("panicked".to_string()),
            };
            traces.push(t);
        }
        if i == 0 {
            let need_speedup = matched_speedups(&traces).is_empty();
            probes = Some(probe(
                &inputs,
                &planner,
                audit_k,
                threads,
                cfg.seed,
                need_speedup.then_some(share),
            )?);
        }
        timed("bench.release", "", || drop(inputs));
    }
    let wall_s = wall.elapsed().as_secs_f64();
    spmm_trace::set_trace_level(TraceLevel::Off);
    let spans = spmm_trace::take_spans();
    let probes = probes.ok_or("the workload has no matrices")?;
    Ok(summarise(&calib, &traces, &probes, &spans, wall_s))
}

fn trace_point(
    t: &mut PointTrace,
    inputs: &Inputs,
    planner: &Planner,
    calib: &Calibration,
    share: f64,
    cfg: &Config,
) -> Result<(), String> {
    let start = Instant::now();
    let p = t.point.clone();
    let params = p.params(cfg.seed).map_err(|e| e.to_string())?;
    let (b, x) = (inputs.b(p.k), inputs.x());
    let mut exec: Option<Executor> = None;
    let mut packed: Option<PackedPanels<f64>> = None;
    for _ in 0..REPS {
        timed("bench.release", "", || drop(exec.take()));
        let (plan, s) = timed("bench.plan", "", || planner.plan(&inputs.props, &params));
        t.plan_s.push(s);
        let mut next = Executor::new(plan.map_err(|e| e.to_string())?);
        let (prepared, s) = timed("bench.prepare", "", || next.prepare(&inputs.coo, b));
        prepared.map_err(|e| e.to_string())?;
        t.prepare_s.push(s);
        let (first, _) = timed("bench.execute", "first", || next.execute(b, x));
        first.map_err(|e| e.to_string())?;
        let built = replay_route(&next.plan().route, &inputs.coo, params.block, &mut t.edges)?;
        timed("bench.release", "", || drop(built));
        if let Some(tile) = next.plan().tile {
            let (panels, s) = timed("bench.pack", "", || tile.pack(b, p.k));
            t.pack_s.push(s);
            timed("bench.release", "", || drop(packed.replace(panels)));
        }
        exec = Some(next);
    }
    let mut exec = exec.expect("REPS is at least one");
    {
        let plan = exec.plan();
        t.route = plan.route_string();
        t.conversion_model_s = plan.conversion_s;
        t.predicted_mflops = plan.predicted_mflops;
        let data = exec.data().ok_or("prepare left no formatted matrix")?;
        t.format_bytes = data.memory_footprint() as f64;
        t.flops = p.flops(inputs.coo.nnz());
        t.bytes = p.compulsory_bytes(data.memory_footprint(), data.rows(), data.cols());
        t.roof_gflops = calib.roof_gflops(t.flops, t.bytes, p.threads);
    }

    // The point's share: traced executes to 40%, dispatch pairs to 70%,
    // trace-level rotations to the end.
    let until = |frac: f64| start + Duration::from_secs_f64(share * frac);
    while t.exec_s.len() < MAX_SAMPLES
        && (t.exec_s.len() < MIN_SAMPLES || Instant::now() < until(0.4))
    {
        let (r, s) = timed("bench.execute", "", || exec.execute(b, x));
        r.map_err(|e| e.to_string())?;
        t.exec_s.push(s);
    }
    let (dispatch, _) = timed("bench.ab_dispatch", "", || {
        dispatch_ab(&mut exec, &p, &params, b, x, packed.as_ref(), until(0.7))
    });
    t.dispatch = dispatch?;
    let (costs, _) = timed("bench.ab_trace", "", || {
        trace_ab(&mut exec, b, x, until(1.0))
    });
    (t.spans_cost, t.full_cost) = costs?;
    let (verdict, s) = timed("bench.verify", "", || {
        oracle::check(inputs, &p, &exec, cfg.corrupt_output)
    });
    t.verify_s = s;
    t.worst_budget_frac = verdict?;
    timed("bench.release", "", || drop((exec, packed)));
    Ok(())
}

/// Replay `route` through the public per-edge constructors, each under
/// its own span, appending each edge's time to `edges`. Returns the built
/// matrices so the caller frees them outside the edge spans.
fn replay_route(
    route: &[SparseFormat],
    coo: &CooMatrix<f64>,
    block: usize,
    edges: &mut Vec<(&'static str, Vec<f64>)>,
) -> Result<Vec<AnyMatrix<f64>>, String> {
    use SparseFormat as F;
    let mut note = |edge: &'static str, s: f64| match edges.iter_mut().find(|(e, _)| *e == edge) {
        Some((_, times)) => times.push(s),
        None => edges.push((edge, vec![s])),
    };
    let mut built = Vec::new();
    if route.len() == 1 {
        // The identity route: prepare canonicalises the COO input.
        let (m, s) = timed("bench.convert", "coo_coo", || {
            let mut m = coo.clone();
            if !m.is_sorted() {
                m.sort_and_sum_duplicates();
            }
            m
        });
        note("coo_coo", s);
        built.push(AnyMatrix::Coo(m));
        return Ok(built);
    }
    let mut csr: Option<CsrMatrix<f64>> = None;
    for hop in route.windows(2) {
        let edge = match (hop[0], hop[1]) {
            (F::Coo, F::Csr) => "coo_csr",
            (F::Csr, F::Ell) => "csr_ell",
            (F::Csr, F::Bcsr) => "csr_bcsr",
            (F::Csr, F::Bell) => "csr_bell",
            (F::Csr, F::Csr5) => "csr_csr5",
            (F::Csr, F::Sell) => "csr_sell",
            (F::Csr, F::Hyb) => "csr_hyb",
            (from, to) => return Err(format!("route edge {from}->{to} has no replay")),
        };
        if edge == "coo_csr" {
            let (m, s) = timed("bench.convert", edge, || CsrMatrix::from_coo(coo));
            note(edge, s);
            csr = Some(m);
            continue;
        }
        let src = csr
            .as_ref()
            .ok_or_else(|| format!("edge {edge} does not start from CSR"))?;
        let (m, s) = timed("bench.convert", edge, || from_csr(hop[1], src, block));
        note(edge, s);
        built.push(m.map_err(|e| e.to_string())?);
    }
    built.extend(csr.map(AnyMatrix::Csr));
    Ok(built)
}

/// The CSR-sourced constructor for `to`.
fn from_csr(
    to: SparseFormat,
    csr: &CsrMatrix<f64>,
    block: usize,
) -> Result<AnyMatrix<f64>, SparseError> {
    match to {
        SparseFormat::Ell => Ok(AnyMatrix::Ell(EllMatrix::from_csr(csr))),
        SparseFormat::Bcsr => BcsrMatrix::from_csr(csr, block).map(AnyMatrix::Bcsr),
        SparseFormat::Bell => BellMatrix::from_csr(csr, block).map(AnyMatrix::Bell),
        SparseFormat::Csr5 => Csr5Matrix::from_csr(csr).map(AnyMatrix::Csr5),
        SparseFormat::Sell => {
            SellMatrix::from_csr(csr, SELL_SLICE_HEIGHT, SELL_SIGMA).map(AnyMatrix::Sell)
        }
        SparseFormat::Hyb => HybMatrix::from_csr(csr).map(AnyMatrix::Hyb),
        other => Err(SparseError::NoRoute {
            from: SparseFormat::Csr,
            to: other,
        }),
    }
}

/// The `FormatData` method `Executor::execute` dispatches to for `p`.
#[allow(clippy::too_many_arguments)]
fn bare_call(
    data: &FormatData<f64>,
    p: &Point,
    schedule: Schedule,
    b: &DenseMatrix<f64>,
    x: &[f64],
    packed: Option<(&PackedPanels<f64>, TileConfig)>,
    c: &mut DenseMatrix<f64>,
    y: &mut [f64],
) -> bool {
    let pool = spmm_parallel::global_pool();
    match (p.strategy(), packed) {
        (Strategy::SerialNormal, _) => {
            data.spmm_serial(b, p.k, c);
            true
        }
        (Strategy::SerialSimd, _) => data.spmm_serial_simd(b, p.k, c),
        (Strategy::SerialTiled, Some((panels, tile))) => data.spmm_serial_tiled(panels, tile, c),
        (Strategy::ParallelNormal, _) => {
            data.spmm_parallel(pool, p.threads, schedule, b, p.k, c);
            true
        }
        (Strategy::ParallelTiled, Some((panels, tile))) => {
            data.spmm_parallel_tiled(pool, p.threads, schedule, panels, tile, c)
        }
        (Strategy::SpmvSerial, _) => data.spmv_serial(x, y),
        (Strategy::SpmvParallel, _) => data.spmv_parallel(pool, p.threads, schedule, x, y),
        (Strategy::SerialTiled | Strategy::ParallelTiled, None) => false,
    }
}

/// Paired, order-alternating A/B of `Executor::execute` against the bare
/// `FormatData` call on the same matrix and operands, telemetry off.
/// Returns `ln(engine / bare)` per pair.
fn dispatch_ab(
    exec: &mut Executor,
    p: &Point,
    params: &Params,
    b: &DenseMatrix<f64>,
    x: &[f64],
    packed: Option<&PackedPanels<f64>>,
    until: Instant,
) -> Result<Vec<f64>, String> {
    let _off = LevelGuard::set(TraceLevel::Off);
    let rows = exec.data().map_or(0, |d| d.rows());
    let (mut c, mut y) = (DenseMatrix::zeros(rows, p.k), vec![0.0; rows]);
    let packed = packed.zip(exec.plan().tile);
    let mut log_ratios = Vec::new();
    while log_ratios.len() < MAX_SAMPLES
        && (log_ratios.len() < MIN_SAMPLES || Instant::now() < until)
    {
        let engine_first = log_ratios.len() % 2 == 0;
        let (mut engine, mut bare) = (0.0, 0.0);
        for engine_turn in [engine_first, !engine_first] {
            let start = Instant::now();
            if engine_turn {
                exec.execute(b, x).map_err(|e| e.to_string())?;
                engine = start.elapsed().as_secs_f64();
            } else {
                let data = exec.data().ok_or("prepare left no formatted matrix")?;
                if !bare_call(data, p, params.schedule, b, x, packed, &mut c, &mut y) {
                    return Err(format!("{} has no bare kernel", p.label()));
                }
                bare = start.elapsed().as_secs_f64();
            }
        }
        log_ratios.push((engine / bare).ln());
    }
    Ok(log_ratios)
}

/// Rotating A/B/C of `Executor::execute` with telemetry off, at spans and
/// at full level. Returns `ln(traced / untraced)` per rotation per level.
fn trace_ab(
    exec: &mut Executor,
    b: &DenseMatrix<f64>,
    x: &[f64],
    until: Instant,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    const LEVELS: [TraceLevel; 3] = [TraceLevel::Off, TraceLevel::Spans, TraceLevel::Full];
    let _restore = LevelGuard::set(TraceLevel::Off);
    let (mut spans, mut full) = (Vec::new(), Vec::new());
    while spans.len() < MAX_SAMPLES && (spans.len() < MIN_SAMPLES || Instant::now() < until) {
        let mut secs = [0.0; 3];
        for i in 0..3 {
            let level = (spans.len() + i) % 3;
            spmm_trace::set_trace_level(LEVELS[level]);
            let start = Instant::now();
            exec.execute(b, x).map_err(|e| e.to_string())?;
            secs[level] = start.elapsed().as_secs_f64();
        }
        spans.push((secs[1] / secs[0]).ln());
        full.push((secs[2] / secs[0]).ln());
    }
    Ok((spans, full))
}

fn prepared(p: &Point, inputs: &Inputs, planner: &Planner, seed: u64) -> Result<Executor, String> {
    let params = p.params(seed).map_err(|e| e.to_string())?;
    let plan = planner
        .plan(&inputs.props, &params)
        .map_err(|e| e.to_string())?;
    let mut exec = Executor::new(plan);
    exec.prepare(&inputs.coo, inputs.b(p.k))
        .map_err(|e| e.to_string())?;
    Ok(exec)
}

/// Stored-over-nnz of every format, the counter audit of every strategy
/// and, when `speedup_share` is given, a serial/two-thread CSR probe.
fn probe(
    inputs: &Inputs,
    planner: &Planner,
    k: usize,
    threads: usize,
    seed: u64,
    speedup_share: Option<f64>,
) -> Result<Probes, String> {
    let (stored, _) = timed("bench.probe", "formats", || {
        let nnz = inputs.coo.nnz().max(1) as f64;
        SparseFormat::ALL
            .iter()
            .map(|&f| {
                let data =
                    FormatData::<f64>::from_coo(f, &inputs.coo, 4).map_err(|e| e.to_string())?;
                Ok((f, data.stored_entries() as f64 / nnz))
            })
            .collect::<Result<Vec<_>, String>>()
    });
    let mut audit = Vec::new();
    for strategy in Strategy::ALL {
        let (counts, _) = timed("bench.audit", strategy.name(), || {
            audit_strategy(strategy, inputs, planner, k, threads, seed)
        });
        audit.push((strategy, counts?));
    }
    let speedup_2t = match speedup_share {
        Some(share) => Some(
            timed("bench.probe", "speedup", || {
                speedup_probe(inputs, planner, k, threads, seed, share)
            })
            .0?,
        ),
        None => None,
    };
    Ok(Probes {
        stored_over_nnz: stored?,
        audit,
        speedup_2t,
    })
}

/// `MetricsSnapshot` deltas over [`AUDIT_EXECUTES`] executes under
/// `TraceLevel::Full`: kernel calls, recorded flops over the expected
/// 2·nnz·k, and spans, each per execute.
fn audit_strategy(
    strategy: Strategy,
    inputs: &Inputs,
    planner: &Planner,
    k: usize,
    threads: usize,
    seed: u64,
) -> Result<[f64; 3], String> {
    let p = strategy.probe_point(inputs.name, inputs.scale, k, threads);
    let mut exec = prepared(&p, inputs, planner, seed)?;
    let (b, x) = (inputs.b(p.k), inputs.x());
    // One execute first registers every counter the path records.
    exec.execute(b, x).map_err(|e| e.to_string())?;
    let _full = LevelGuard::set(TraceLevel::Full);
    let before = MetricsSnapshot::capture();
    let spans_before = spmm_trace::span_count();
    for _ in 0..AUDIT_EXECUTES {
        exec.execute(b, x).map_err(|e| e.to_string())?;
    }
    let spans = spmm_trace::span_count() - spans_before;
    let delta = MetricsSnapshot::capture().delta_since(&before);
    let count = |name: &str| delta.counter(name).unwrap_or(0) as f64;
    let n = AUDIT_EXECUTES as f64;
    Ok([
        (count("spmm.kernel_calls") + count("spmv.kernel_calls")) / n,
        (count("spmm.flops") + count("spmv.flops")) / (n * p.flops(inputs.coo.nnz())),
        spans as f64 / n,
    ])
}

/// Serial over two-thread CSR execute time on this matrix, alternating.
fn speedup_probe(
    inputs: &Inputs,
    planner: &Planner,
    k: usize,
    threads: usize,
    seed: u64,
    share: f64,
) -> Result<f64, String> {
    let serial = Strategy::SerialNormal.probe_point(inputs.name, inputs.scale, k, threads);
    let parallel = Strategy::ParallelNormal.probe_point(inputs.name, inputs.scale, k, threads);
    let (mut one, mut two) = (
        prepared(&serial, inputs, planner, seed)?,
        prepared(&parallel, inputs, planner, seed)?,
    );
    let (b, x) = (inputs.b(k), inputs.x());
    let until = Instant::now() + Duration::from_secs_f64(share);
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    while t1.len() < MAX_SAMPLES && (t1.len() < MIN_SAMPLES || Instant::now() < until) {
        for (exec, times) in [(&mut one, &mut t1), (&mut two, &mut t2)] {
            let start = Instant::now();
            exec.execute(b, x).map_err(|e| e.to_string())?;
            times.push(start.elapsed().as_secs_f64());
        }
    }
    Ok(median(&t1) / median(&t2))
}

/// Serial over two-thread execute time for every parallel point with a
/// serial twin (same matrix, op, width, format and variant).
fn matched_speedups(traces: &[PointTrace]) -> Vec<f64> {
    traces
        .iter()
        .filter(|t| t.point.backend == Backend::Parallel && t.failure.is_none())
        .filter_map(|t| {
            let twin = traces.iter().find(|u| {
                let (p, q) = (&t.point, &u.point);
                q.backend == Backend::Serial
                    && u.failure.is_none()
                    && (q.matrix, q.op, q.k, q.format, q.variant)
                        == (p.matrix, p.op, p.k, p.format, p.variant)
            })?;
            Some(median(&twin.exec_s) / median(&t.exec_s))
        })
        .collect()
}

fn summarise(
    calib: &Calibration,
    traces: &[PointTrace],
    probes: &Probes,
    spans: &[spmm_trace::SpanEvent],
    wall_s: f64,
) -> Outcome {
    let ok: Vec<&PointTrace> = traces.iter().filter(|t| t.failure.is_none()).collect();
    let total = |f: &dyn Fn(&PointTrace) -> f64| ok.iter().map(|t| f(t)).sum::<f64>();
    let prepare = total(&|t| median(&t.prepare_s));
    let edges = total(&|t| t.edges_s());
    let pack = total(&|t| t.pack());
    let dispatch: Vec<f64> = ok.iter().flat_map(|t| t.dispatch.iter().copied()).collect();
    let spans_cost: Vec<f64> = ok
        .iter()
        .flat_map(|t| t.spans_cost.iter().copied())
        .collect();
    let full_cost: Vec<f64> = ok
        .iter()
        .flat_map(|t| t.full_cost.iter().copied())
        .collect();
    let (dispatch_frac, dispatch_upper) = overhead(&dispatch);
    let predicted: Vec<f64> = ok
        .iter()
        .filter_map(|t| t.predicted_mflops.map(|m| m / 1e3 / t.gflops()))
        .collect();
    let speedup = probes
        .speedup_2t
        .unwrap_or_else(|| geomean(&matched_speedups(traces)));

    // Wall time outside the benchmark's own top-level layer spans.
    let main_tid = spans
        .iter()
        .find(|s| s.name.starts_with("bench."))
        .map(|s| s.tid);
    let covered_us: f64 = spans
        .iter()
        .filter(|s| Some(s.tid) == main_tid && s.depth == 0 && s.name.starts_with("bench."))
        .map(|s| s.dur_us)
        .sum();

    let mut m = vec![
        Metric::new("calib.triad_gbps", calib.dram_gbps[0], "GB/s"),
        Metric::new("calib.triad_gbps_2t", calib.dram_gbps[1], "GB/s"),
        Metric::new("calib.triad_l1_gbps", calib.l1_gbps[0], "GB/s"),
        Metric::new("calib.fma_peak_gflops", calib.fma_gflops[0], "GFLOP/s"),
        Metric::new("calib.fma_peak_gflops_2t", calib.fma_gflops[1], "GFLOP/s"),
        Metric::new("calib.llc_mb", calib.llc_bytes as f64 / MIB, "MiB"),
        Metric::new(
            "calib.triad_array_mb",
            calib.dram_array_bytes as f64 / MIB,
            "MiB",
        ),
        Metric::new("engine.plan_us", total(&|t| median(&t.plan_s)) * 1e6, "us"),
        Metric::new("engine.prepare_s", prepare, "s"),
        Metric::new(
            "engine.prepare_unattributed_frac",
            (prepare - edges - pack) / prepare,
            "ratio",
        ),
        Metric::new("engine.dispatch_overhead_frac", dispatch_frac, "ratio"),
        Metric::new("engine.dispatch_overhead_upper95", dispatch_upper, "ratio"),
    ];
    for edge in EDGES {
        m.push(Metric::new(
            format!("core.convert.{edge}_s"),
            total(&|t| t.edge_s(edge)),
            "s",
        ));
    }
    for (format, ratio) in &probes.stored_over_nnz {
        m.push(Metric::new(
            format!("core.stored_over_nnz.{format}"),
            *ratio,
            "ratio",
        ));
    }
    m.extend([
        Metric::new("core.format_mb", total(&|t| t.format_bytes) / MIB, "MiB"),
        Metric::new("kernels.pack_s", pack, "s"),
        Metric::new(
            "kernels.roofline_frac",
            ok.iter()
                .map(|t| t.gflops() / t.roof_gflops)
                .fold(f64::NAN, f64::max),
            "ratio",
        ),
        Metric::new(
            "kernels.bytes_per_flop",
            total(&|t| t.bytes) / total(&|t| t.flops),
            "computed-B/flop",
        ),
        Metric::new("parallel.speedup_2t", speedup, "ratio"),
        Metric::new(
            "perfmodel.predicted_over_measured",
            geomean(&predicted),
            "ratio",
        ),
        Metric::new(
            "perfmodel.conversion_over_measured",
            total(&|t| t.conversion_model_s) / edges,
            "ratio",
        ),
        Metric::new("verify.oracle_s", total(&|t| t.verify_s), "s"),
        Metric::new(
            "verify.worst_budget_frac",
            ok.iter().map(|t| t.worst_budget_frac).fold(0.0, f64::max),
            "ratio",
        ),
        Metric::new(
            "trace.spans_overhead_frac",
            overhead(&spans_cost).0,
            "ratio",
        ),
        Metric::new("trace.full_overhead_frac", overhead(&full_cost).0, "ratio"),
    ]);
    for (strategy, [calls, flops, spans_per]) in &probes.audit {
        let s = strategy.name();
        m.push(Metric::new(
            format!("trace.kernel_calls_per_execute.{s}"),
            *calls,
            "count",
        ));
        m.push(Metric::new(
            format!("trace.flops_over_expected.{s}"),
            *flops,
            "ratio",
        ));
        m.push(Metric::new(
            format!("trace.spans_per_execute.{s}"),
            *spans_per,
            "count",
        ));
    }
    m.push(Metric::new(
        "bench.unattributed_frac",
        1.0 - covered_us / (wall_s * 1e6),
        "ratio",
    ));

    let mut out = Outcome {
        attempted: traces.len(),
        failed: traces.len() - ok.len(),
        metrics: m,
        ..Outcome::default()
    };
    let mut points = Vec::new();
    for t in traces {
        let status = t.failure.clone().unwrap_or_else(|| "ok".to_string());
        let roofline = t.gflops() / t.roof_gflops;
        out.lines.push(format!(
            "kernels.gflops.{:<34} {:>8.3} GFLOP/s  roof {:>8.3}  ({:.3} of roof)  route {}  {status}",
            t.point.label(),
            t.gflops(),
            t.roof_gflops,
            roofline,
            t.route
        ));
        let edges = t
            .edges
            .iter()
            .fold(Json::obj(), |o, (e, s)| o.with(e, median(s) * 1e3));
        points.push(
            Json::obj()
                .with("point", t.point.label())
                .with("strategy", t.point.strategy().name())
                .with("route", t.route.as_str())
                .with("setup_samples", t.prepare_s.len())
                .with("execute_samples", t.exec_s.len())
                .with("dispatch_pairs", t.dispatch.len())
                .with("trace_rotations", t.spans_cost.len())
                .with("plan_us", median(&t.plan_s) * 1e6)
                .with("prepare_ms", median(&t.prepare_s) * 1e3)
                .with("edges_ms", t.edges_s() * 1e3)
                .with("edge_ms", edges)
                .with("pack_ms", t.pack() * 1e3)
                .with("gflops", t.gflops())
                .with("roof_gflops", t.roof_gflops)
                .with("roofline_frac", roofline)
                .with("computed_bytes", t.bytes)
                .with("flops", t.flops)
                .with("predicted_mflops", t.predicted_mflops)
                .with("conversion_model_ms", t.conversion_model_s * 1e3)
                .with("verify_s", t.verify_s)
                .with("worst_budget_frac", t.worst_budget_frac)
                .with("status", status),
        );
    }
    let calibration = Json::obj()
        .with("llc_bytes", calib.llc_bytes)
        .with("triad_array_bytes", calib.dram_array_bytes)
        .with("triad_dram_gbps", &calib.dram_gbps[..])
        .with("triad_l1_gbps", &calib.l1_gbps[..])
        .with("fma_peak_gflops", &calib.fma_gflops[..]);
    out.record.push(("calibration".to_string(), calibration));
    out.record.push(("points".to_string(), Json::Arr(points)));

    // Layer self times from the phase tree, next to the tree itself.
    let tree = spmm_trace::phase_tree(spans);
    let mut self_ms = Vec::new();
    collect_self_ms(&tree, "", &mut self_ms);
    out.record
        .push(("layer_self_ms".to_string(), Json::Obj(self_ms)));
    out.artifacts
        .push(("trace.json", spmm_trace::chrome_trace_json(spans)));
    out.artifacts
        .push(("phases.txt", spmm_trace::render_phase_tree(&tree)));
    out
}

fn collect_self_ms(nodes: &[spmm_trace::PhaseNode], prefix: &str, out: &mut Vec<(String, Json)>) {
    for node in nodes {
        let key = if prefix.is_empty() {
            node.key.clone()
        } else {
            format!("{prefix}/{}", node.key)
        };
        out.push((key.clone(), Json::from(node.self_us() / 1e3)));
        collect_self_ms(&node.children, &key, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_route_edge_has_a_metric_name() {
        let coo = CooMatrix::from_triplets(4, 4, &[(0, 0, 1.0), (1, 2, 2.0), (3, 3, 3.0)]).unwrap();
        for format in SparseFormat::ALL {
            let stats = spmm_core::MatrixStats::of_coo(&coo);
            let route = spmm_core::ConversionGraph::shared()
                .route(SparseFormat::Coo, format, &stats)
                .unwrap();
            let mut edges = Vec::new();
            replay_route(&route, &coo, 2, &mut edges).unwrap();
            assert!(
                edges.iter().all(|(e, _)| EDGES.contains(e)),
                "{format}: {edges:?}"
            );
        }
    }
}

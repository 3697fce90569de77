//! `spmm-enginebench`: the repository's benchmark of the public
//! `Planner::plan` -> `Executor::prepare` -> `Executor::execute` path.
//!
//! One invocation runs one workload as a closed loop from a single
//! caller: each `execute` starts when the previous one returns, and no
//! point uses more threads than the host has (at most two). Inputs are
//! suite replicas generated from `--seed`; every point's output is checked
//! against the `spmm-verify` oracle outside the timed path.
//!
//! ```text
//! cargo run --release --manifest-path enginebench/Cargo.toml -- \
//!     --workload steady-spmm --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off;
//! `--trace 1` is the separate traced run that splits the time by layer
//! (see [`layers`]). The last line of standard output is the one-line JSON
//! result. A run record goes to `--out-dir` (default `.bench_runs`), and a
//! traced run adds a chrome trace and a phase tree next to it.

mod calib;
mod inputs;
mod layers;
mod oracle;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use spmm_harness::json::Json;
use spmm_harness::{Executor, Planner};
use spmm_trace::TraceLevel;

use inputs::Inputs;
use stats::{geomean, median, quantile};
use workload::{Point, Workload};

const USAGE: &str =
    "usage: spmm-enginebench --workload <steady-spmm|format-oneshot|parallel-bandwidth> \
                     --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]";

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measuring budget, seconds.
    pub seconds: f64,
    /// The traced per-layer run instead of the end-to-end one.
    pub trace: bool,
    /// Where the run record goes (`None`: nowhere).
    pub out_dir: Option<PathBuf>,
    /// Multiplies every replica scale: 1 on the command line; the tests
    /// shrink the workloads with it.
    pub scale_mul: f64,
    /// Add 1 to one output entry before the oracle check; the tests use it
    /// to show the gate fails.
    pub corrupt_output: bool,
}

impl Config {
    fn parse(args: &[String]) -> Result<Config, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut out_dir = Some(PathBuf::from(".bench_runs"));
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::parse(name)
                            .ok_or_else(|| format!("unknown workload `{name}`"))?,
                    );
                }
                "--seed" => {
                    seed = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|e| format!("bad --seed: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s: f64 = value()?
                        .parse()
                        .map_err(|e| format!("bad --seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1 (got `{other}`)")),
                    })
                }
                "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Config {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            out_dir,
            scale_mul: 1.0,
            corrupt_output: false,
        })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("spmm-enginebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if cfg.trace {
        layers::run(&cfg)
    } else {
        run_e2e(&cfg)
    };
    let outcome = match outcome.and_then(|o| write_record(&cfg, &o).map(|()| o)) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("spmm-enginebench: {e}");
            return ExitCode::from(1);
        }
    };
    print!("{}", outcome.summary(&cfg));
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Points attempted.
    pub attempted: usize,
    /// Points that errored or failed the oracle.
    pub failed: usize,
    /// The run's metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Per-point summary lines.
    pub lines: Vec<String>,
    /// Extra run-record fields.
    pub record: Vec<(String, Json)>,
    /// Files written next to the record: `(suffix, contents)`.
    pub artifacts: Vec<(&'static str, String)>,
}

impl Outcome {
    /// A metric's value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Correct when every point passed and every metric is a number.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics.
    /// A metric without a finite value prints as 0; `correct` is false then.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable lines: the run header, one line per point, every
    /// metric with its unit, and `fail_frac`.
    pub fn summary(&self, cfg: &Config) -> String {
        let mut out = format!(
            "spmm-enginebench {} seed={} seconds={} trace={} threads={} nproc={}\n",
            cfg.workload.name(),
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace),
            workload::threads(),
            spmm_parallel::default_threads()
        );
        for line in &self.lines {
            out.push_str(&format!("  {line}\n"));
        }
        for m in &self.metrics {
            out.push_str(&format!("{:<48} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        out.push_str(&format!(
            "{:<48} {:>16.6} ratio ({} of {} points failed)\n",
            "fail_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        ));
        out
    }
}

/// Write `<out_dir>/<workload>-seed<n>-trace<0|1>.json` and the run's
/// artifacts next to it. Records of two commits diff line by line.
fn write_record(cfg: &Config, outcome: &Outcome) -> Result<(), String> {
    let Some(dir) = &cfg.out_dir else {
        return Ok(());
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    let metrics = outcome.metrics.iter().fold(Json::obj(), |obj, m| {
        obj.with(
            &m.name,
            Json::obj().with("value", m.value).with("unit", m.unit),
        )
    });
    let mut record = Json::obj()
        .with("benchmark", "spmm-enginebench")
        .with("git_rev", git_rev())
        .with("workload", cfg.workload.name())
        .with("why", cfg.workload.why())
        .with("seed", cfg.seed)
        .with("seconds", cfg.seconds)
        .with("trace", cfg.trace)
        .with("nproc", spmm_parallel::default_threads())
        .with("threads", workload::threads())
        .with(
            "loop",
            "closed: one caller, each execute starts when the previous one returns",
        )
        .with("correct", outcome.correct())
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with("metrics", metrics);
    for (key, value) in &outcome.record {
        record = record.with(key, value.clone());
    }
    let write = |path: &Path, body: &str| {
        std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(&dir.join(format!("{stem}.json")), &(record.pretty() + "\n"))?;
    for (suffix, body) in &outcome.artifacts {
        write(&dir.join(format!("{stem}.{suffix}")), body)?;
    }
    Ok(())
}

/// The checkout's commit, read from `./.git` only; `unknown` elsewhere.
fn git_rev() -> String {
    Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().trim_end_matches("kB");
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Set-ups per point in the end-to-end run; `setup_s` and
/// `first_result_s` take their median.
const SETUP_REPS: usize = 5;
/// Fewest steady executes per point, whatever the budget.
const MIN_SAMPLES: usize = 10;
/// Most steady executes per point (bounds the buffer on tiny inputs).
const MAX_SAMPLES: usize = 100_000;

/// Samples one point produced in the end-to-end run.
struct PointRun {
    point: Point,
    route: String,
    setup_s: Vec<f64>,
    first_s: Vec<f64>,
    exec_s: Vec<f64>,
    flops: f64,
    failure: Option<String>,
}

/// The end-to-end run, telemetry off. Each point is set up
/// [`SETUP_REPS`] times (plan + prepare, then the first execute a one-shot
/// caller also waits for); the last executor then runs back-to-back
/// executes for the point's share of `--seconds`. Outputs are checked
/// against the oracle afterwards, outside every timed region.
fn run_e2e(cfg: &Config) -> Result<Outcome, String> {
    spmm_trace::set_trace_level(TraceLevel::Off);
    let points = cfg.workload.points(workload::threads());
    let share = cfg.seconds / points.len() as f64;
    let planner = Planner::new();
    let mut runs = Vec::with_capacity(points.len());
    for &(matrix, scale) in cfg.workload.matrices() {
        let mine: Vec<&Point> = points.iter().filter(|p| p.matrix == matrix).collect();
        let inputs = Inputs::generate(
            matrix,
            scale * cfg.scale_mul,
            cfg.seed,
            mine.iter().map(|p| p.k),
        )?;
        for p in mine {
            let mut run = PointRun {
                point: p.clone(),
                route: String::new(),
                setup_s: Vec::new(),
                first_s: Vec::new(),
                exec_s: Vec::new(),
                flops: p.flops(inputs.coo.nnz()),
                failure: None,
            };
            let measured = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                measure(&mut run, &planner, &inputs, share, cfg)
            }));
            run.failure = match measured {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some(e),
                Err(_) => Some("panicked".to_string()),
            };
            runs.push(run);
        }
    }
    Ok(summarise_e2e(&runs))
}

fn measure(
    run: &mut PointRun,
    planner: &Planner,
    inputs: &Inputs,
    share: f64,
    cfg: &Config,
) -> Result<(), String> {
    let p = run.point.clone();
    let params = p.params(cfg.seed).map_err(|e| e.to_string())?;
    let (b, x) = (inputs.b(p.k), inputs.x());
    let start = Instant::now();
    let mut exec: Option<Executor> = None;
    for _ in 0..SETUP_REPS {
        // Free the previous set-up first, so no rep times another's teardown.
        drop(exec.take());
        let t0 = Instant::now();
        let plan = planner
            .plan(&inputs.props, &params)
            .map_err(|e| e.to_string())?;
        let mut next = Executor::new(plan);
        next.prepare(&inputs.coo, b).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        next.execute(b, x).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        run.setup_s.push((t1 - t0).as_secs_f64());
        run.first_s.push((t2 - t0).as_secs_f64());
        exec = Some(next);
    }
    let mut exec = exec.expect("SETUP_REPS is at least one");
    run.route = exec.plan().route_string();
    while run.exec_s.len() < MAX_SAMPLES
        && (run.exec_s.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < share)
    {
        let t = Instant::now();
        exec.execute(b, x).map_err(|e| e.to_string())?;
        run.exec_s.push(t.elapsed().as_secs_f64());
    }
    oracle::check(inputs, &p, &exec, cfg.corrupt_output).map(|_| ())
}

fn summarise_e2e(runs: &[PointRun]) -> Outcome {
    let ok: Vec<&PointRun> = runs.iter().filter(|r| r.failure.is_none()).collect();
    let total = |f: &dyn Fn(&PointRun) -> f64| ok.iter().map(|r| f(r)).sum::<f64>();
    let rates: Vec<f64> = ok
        .iter()
        .map(|r| r.flops / median(&r.exec_s) / 1e9)
        .collect();
    let mut out = Outcome {
        attempted: runs.len(),
        failed: runs.len() - ok.len(),
        ..Outcome::default()
    };
    out.metrics = vec![
        Metric::new("gflops", geomean(&rates), "GFLOP/s"),
        Metric::new("execute_ms_p50", total(&|r| median(&r.exec_s)) * 1e3, "ms"),
        Metric::new(
            "execute_ms_p90",
            total(&|r| quantile(&r.exec_s, 0.9)) * 1e3,
            "ms",
        ),
        Metric::new("setup_s", total(&|r| median(&r.setup_s)), "s"),
        Metric::new("first_result_s", total(&|r| median(&r.first_s)), "s"),
        Metric::new("peak_rss_mb", peak_rss_mib(), "MiB"),
        Metric::new(
            "verified_frac",
            ok.len() as f64 / runs.len().max(1) as f64,
            "ratio",
        ),
    ];
    let mut points = Vec::new();
    for r in runs {
        let status = r.failure.clone().unwrap_or_else(|| "ok".to_string());
        let gflops = r.flops / median(&r.exec_s) / 1e9;
        out.lines.push(format!(
            "{:<34} {:<16} setup {:>9.3} ms  first {:>9.3} ms  execute p50 {:>9.3} ms p90 {:>9.3} ms (n={})  {:>7.3} GFLOP/s  {status}",
            r.point.label(),
            r.route,
            median(&r.setup_s) * 1e3,
            median(&r.first_s) * 1e3,
            median(&r.exec_s) * 1e3,
            quantile(&r.exec_s, 0.9) * 1e3,
            r.exec_s.len(),
            gflops,
        ));
        points.push(
            Json::obj()
                .with("point", r.point.label())
                .with("strategy", r.point.strategy().name())
                .with("route", r.route.as_str())
                .with("setup_samples", r.setup_s.len())
                .with("execute_samples", r.exec_s.len())
                .with("setup_ms_p50", median(&r.setup_s) * 1e3)
                .with("first_result_ms_p50", median(&r.first_s) * 1e3)
                .with("execute_ms_p50", median(&r.exec_s) * 1e3)
                .with("execute_ms_p90", quantile(&r.exec_s, 0.9) * 1e3)
                .with("gflops", gflops)
                .with("status", status),
        );
    }
    out.record.push(("points".to_string(), Json::Arr(points)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The runs share the process-wide trace level and span buffer.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn small(workload: Workload, trace: bool) -> Config {
        Config {
            workload,
            seed: 7,
            seconds: 1.0,
            trace,
            out_dir: None,
            scale_mul: 0.2,
            corrupt_output: false,
        }
    }

    fn names(spec: &Json, key: &str) -> Vec<String> {
        match spec.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("named")
                        .to_string()
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no `{key}` list"),
        }
    }

    #[test]
    fn every_workload_passes_the_oracle_and_emits_the_listed_metrics() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names(&spec, "workloads"), listed);
        for workload in Workload::ALL {
            let e2e = run_e2e(&small(workload, false)).unwrap();
            assert!(e2e.correct(), "{}", e2e.summary(&small(workload, false)));
            let got: Vec<String> = e2e.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(got, names(&spec, "end_to_end"));

            let traced = layers::run(&small(workload, true)).unwrap();
            assert!(
                traced.correct(),
                "{}",
                traced.summary(&small(workload, true))
            );
            let got: Vec<String> = traced.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(got, names(&spec, "per_layer"));
            // The calibrated roofline bounds every point.
            let roofline = traced.metric("kernels.roofline_frac").unwrap();
            assert!(roofline <= 1.1, "{workload:?}: roofline_frac {roofline}");
            // The layer spans cover the traced run's wall time.
            let unattributed = traced.metric("bench.unattributed_frac").unwrap();
            assert!(
                unattributed < 0.05,
                "{workload:?}: unattributed {unattributed}"
            );
            // Replayed route edges fit inside the prepare they replay.
            let Some((_, Json::Arr(points))) = traced.record.iter().find(|(k, _)| k == "points")
            else {
                panic!("traced record has per-point entries");
            };
            for point in points {
                let field = |key: &str| point.get(key).and_then(Json::as_f64).unwrap();
                assert!(
                    field("edges_ms") <= field("prepare_ms") * 1.1 + 0.05,
                    "{workload:?}: {}",
                    point.pretty()
                );
            }
        }
    }

    #[test]
    fn a_corrupted_output_counts_as_a_failure() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let cfg = Config {
            corrupt_output: true,
            ..small(Workload::FormatOneshot, false)
        };
        let outcome = run_e2e(&cfg).unwrap();
        assert_eq!(outcome.failed, outcome.attempted);
        assert!(!outcome.correct());
        assert!(outcome.metric("verified_frac").unwrap() < 1.0);
    }

    #[test]
    fn the_command_line_is_checked() {
        let parse =
            |args: &[&str]| Config::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let ok = parse(&[
            "--workload",
            "steady-spmm",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.trace),
            (Workload::SteadySpmm, 3, true)
        );
        assert!(parse(&[
            "--workload",
            "nope",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(parse(&[
            "--workload",
            "steady-spmm",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(parse(&["--workload", "steady-spmm"]).is_err());
    }
}

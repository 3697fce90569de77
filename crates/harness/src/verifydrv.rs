//! The harness side of the differential oracle: a [`spmm_verify`]
//! [`CaseRunner`] that routes every case through the Planner/Executor
//! pair, so the verify pass exercises plans exactly as benchmarks do —
//! conversion routes, workspace arenas, kernel selection and all.
//!
//! The combination matrix is not hand-enumerated: [`EngineRunner`]
//! proposes every (format × backend × variant × schedule × op) tuple and
//! keeps the ones [`crate::params::ParamsBuilder`] accepts, so the
//! differential matrix stays in lockstep with the validation table and
//! the dispatch layer it mirrors. `spmm-bench --verify` and the CI
//! `verify` job drive [`run_verify`].

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use spmm_core::SparseFormat;
use spmm_verify::{
    adversarial_corpus, random_corpus, run_differential, Case, CaseRunner, Combo, DiffConfig,
    DiffReport, ErrorModel, RunOutput, VerifyOp,
};

use crate::benchmark::{Backend, Op, Variant};
use crate::engine::{Executor, Planner};
use crate::errors::HarnessError;
use crate::params::Params;

/// Which corpus `--verify` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusKind {
    /// The hand-built adversarial corpus.
    Adversarial,
    /// The seeded random corpus.
    Random,
    /// Both corpora.
    Both,
}

impl FromStr for CorpusKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "adversarial" => Ok(CorpusKind::Adversarial),
            "random" => Ok(CorpusKind::Random),
            "both" => Ok(CorpusKind::Both),
            other => Err(format!(
                "unknown corpus `{other}` (adversarial, random or both)"
            )),
        }
    }
}

/// Number of random cases `--verify-corpus random|both` generates.
pub const RANDOM_CASES: usize = 12;

/// Build the corpus for a kind.
pub fn build_corpus(kind: CorpusKind, seed: u64) -> Vec<Case> {
    match kind {
        CorpusKind::Adversarial => adversarial_corpus(),
        CorpusKind::Random => random_corpus(RANDOM_CASES, seed),
        CorpusKind::Both => {
            let mut cases = adversarial_corpus();
            cases.extend(random_corpus(RANDOM_CASES, seed));
            cases
        }
    }
}

const BACKENDS: [Backend; 4] = [
    Backend::Serial,
    Backend::Parallel,
    Backend::GpuH100,
    Backend::GpuA100,
];
const VARIANTS: [Variant; 6] = [
    Variant::Normal,
    Variant::TransposedB,
    Variant::FixedK,
    Variant::Simd,
    Variant::Tiled,
    Variant::Vendor,
];

/// A [`CaseRunner`] over the plan/execute engine.
pub struct EngineRunner {
    /// Thread count for parallel combinations.
    pub threads: usize,
}

impl Default for EngineRunner {
    fn default() -> Self {
        // Small but > 1, so the pool's split paths are exercised on the
        // corpus's small matrices.
        EngineRunner { threads: 3 }
    }
}

impl EngineRunner {
    /// Reconstruct the [`Params`] a combo stands for, re-running the
    /// builder's validation (`Err` means the tuple has no kernel).
    fn params_for(&self, combo: &Combo, case: &Case) -> Result<Params, HarnessError> {
        let backend = Backend::from_str(&combo.backend).map_err(HarnessError::InvalidParams)?;
        let variant = Variant::from_str(&combo.variant).map_err(HarnessError::InvalidParams)?;
        let schedule = combo
            .schedule
            .parse()
            .map_err(|e: String| HarnessError::InvalidParams(e))?;
        let op = match combo.op {
            VerifyOp::Spmm => Op::Spmm,
            VerifyOp::Spmv => Op::Spmv,
        };
        Params::builder()
            .matrix(case.name.clone())
            .format(combo.format)
            .backend(backend)
            .variant(variant)
            .op(op)
            .schedule(schedule)
            .k(case.k)
            .block(case.block)
            .threads(self.threads)
            .iterations(1)
            .build()
    }

    /// The error model for one combination: anything that reorders sums —
    /// SIMD lanes, unrolled fixed-k accumulators, thread-parallel or GPU
    /// reductions — gets the reassociating budget.
    fn model_for(backend: Backend, variant: Variant, threads: usize) -> ErrorModel {
        let lanes = match backend {
            Backend::Serial => 8, // widest SIMD lane count in the suite
            Backend::Parallel => threads.max(8),
            Backend::GpuH100 | Backend::GpuA100 => 32,
        };
        // TransposedB counts too: its scatter uses `mul_add`, and fused
        // rounding is one of the reassociation-class deviations the model
        // budgets for (SIMD / FMA / parallel reduction).
        let reassociates = backend != Backend::Serial
            || matches!(
                variant,
                Variant::Simd | Variant::FixedK | Variant::Tiled | Variant::TransposedB
            );
        if reassociates {
            ErrorModel::reassociating(lanes)
        } else {
            ErrorModel::sequential()
        }
    }
}

impl CaseRunner for EngineRunner {
    fn combos(&self, case: &Case) -> Vec<Combo> {
        let mut combos = Vec::new();
        for op in [VerifyOp::Spmm, VerifyOp::Spmv] {
            for format in SparseFormat::ALL {
                for backend in BACKENDS {
                    let schedules: &[&str] = if backend == Backend::Parallel {
                        &["static", "dynamic,16", "guided,4"]
                    } else {
                        &["static"]
                    };
                    for variant in VARIANTS {
                        for schedule in schedules {
                            let combo = Combo {
                                format,
                                backend: backend.name().to_string(),
                                variant: variant.name().to_string(),
                                schedule: schedule.to_string(),
                                op,
                                model: Self::model_for(backend, variant, self.threads),
                            };
                            if self.params_for(&combo, case).is_ok() {
                                combos.push(combo);
                            }
                        }
                    }
                }
            }
        }
        combos
    }

    fn run(&mut self, combo: &Combo, case: &Case) -> Result<RunOutput, String> {
        let params = match self.params_for(combo, case) {
            Ok(p) => p,
            // Validation rejected the tuple for THIS case (e.g. a shrunk k
            // without a fixed-k instantiation): a skip, not a failure.
            Err(_) => return Ok(RunOutput::Unsupported),
        };
        // A panicking conversion or kernel is exactly what the adversarial
        // corpus hunts for; turn it into a reported failure instead of
        // tearing down the verify run. So is a kernel refusing a tuple the
        // validation table accepted: the table and the kernels disagree.
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<RunOutput, HarnessError> {
                let props = case.coo.properties();
                let plan = Planner::new().plan(&props, &params)?;
                let mut exec = Executor::new(plan);
                let b = case.b();
                let x = case.x();
                exec.prepare(&case.coo, &b)?;
                exec.execute(&b, &x)?;
                Ok(match combo.op {
                    VerifyOp::Spmm => RunOutput::Spmm(exec.result().clone()),
                    VerifyOp::Spmv => RunOutput::Spmv(exec.y().to_vec()),
                })
            }));
        match outcome {
            Ok(Ok(out)) => Ok(out),
            Ok(Err(e)) => Err(format!("engine error: {e}")),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(format!("panicked: {msg}"))
            }
        }
    }
}

/// Where `--verify` writes shrunk reproducers.
pub fn default_repro_dir() -> PathBuf {
    PathBuf::from("results").join("repro")
}

/// Run the differential oracle over `corpus`, routed through the
/// Planner/Executor engine, shrinking failures into `repro_dir`.
pub fn run_verify(kind: CorpusKind, seed: u64, repro_dir: Option<&Path>) -> DiffReport {
    let cases = build_corpus(kind, seed);
    let mut runner = EngineRunner::default();
    run_differential(
        &mut runner,
        &cases,
        &DiffConfig {
            shrink: true,
            repro_dir: repro_dir.map(Path::to_path_buf),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_verify::DiffConfig;

    #[test]
    fn combo_matrix_mirrors_the_validation_table() {
        let runner = EngineRunner::default();
        let case = &adversarial_corpus()[2]; // empty-rows: 8x8, k=8
        let combos = runner.combos(case);
        // Spot checks against the kernel matrix: serial/simd exists for
        // csr but not coo; cuSPARSE exists on GPU for csr only; spmv has
        // no GPU rows at all.
        let has = |f: SparseFormat, b: &str, v: &str, op: VerifyOp| {
            combos
                .iter()
                .any(|c| c.format == f && c.backend == b && c.variant == v && c.op == op)
        };
        assert!(has(SparseFormat::Csr, "serial", "simd", VerifyOp::Spmm));
        assert!(!has(SparseFormat::Coo, "serial", "simd", VerifyOp::Spmm));
        assert!(has(
            SparseFormat::Csr,
            "gpu-h100",
            "cusparse",
            VerifyOp::Spmm
        ));
        assert!(!has(
            SparseFormat::Ell,
            "gpu-h100",
            "cusparse",
            VerifyOp::Spmm
        ));
        assert!(combos
            .iter()
            .filter(|c| c.op == VerifyOp::Spmv)
            .all(|c| c.backend == "serial" || c.backend == "omp"));
        // Parallel combos fan out over three schedules.
        assert_eq!(
            combos
                .iter()
                .filter(|c| c.format == SparseFormat::Csr
                    && c.backend == "omp"
                    && c.variant == "normal"
                    && c.op == VerifyOp::Spmm)
                .count(),
            3
        );
        // The full matrix is substantial — the table is worth printing.
        assert!(combos.len() > 80, "got {} combos", combos.len());
    }

    #[test]
    fn engine_passes_a_small_slice_of_the_corpus() {
        // The full corpus runs in the integration test and CI; here one
        // ragged case exercises the runner plumbing end to end.
        let cases: Vec<Case> = adversarial_corpus()
            .into_iter()
            .filter(|c| c.name == "sell-boundary-9")
            .collect();
        assert_eq!(cases.len(), 1);
        let mut runner = EngineRunner::default();
        let report = run_differential(&mut runner, &cases, &DiffConfig::default());
        assert!(report.passed(), "{}", report.render());
        assert!(report.runs() > 50);
    }

    /// The acceptance-criteria bug injection: a sign flip in one SIMD
    /// lane (output columns `j % 4 == 3`), applied on top of the real
    /// engine output, under `#[cfg(test)]`.
    struct LaneFlipRunner(EngineRunner);

    impl CaseRunner for LaneFlipRunner {
        fn combos(&self, case: &Case) -> Vec<Combo> {
            // The simd slice of the real matrix plus a healthy control.
            self.0
                .combos(case)
                .into_iter()
                .filter(|c| c.variant == "simd" || (c.variant == "normal" && c.backend == "serial"))
                .collect()
        }

        fn run(&mut self, combo: &Combo, case: &Case) -> Result<RunOutput, String> {
            let out = self.0.run(combo, case)?;
            if combo.variant != "simd" {
                return Ok(out);
            }
            Ok(match out {
                RunOutput::Spmm(mut c) => {
                    for i in 0..c.rows() {
                        for j in (3..c.cols()).step_by(4) {
                            c.set(i, j, -c.get(i, j));
                        }
                    }
                    RunOutput::Spmm(c)
                }
                other => other,
            })
        }
    }

    #[test]
    fn injected_lane_flip_is_caught_and_shrunk() {
        let dir = std::env::temp_dir().join("spmm-verify-lane-flip");
        std::fs::remove_dir_all(&dir).ok();
        // One dense-ish case is enough: the bug fires on every simd combo.
        let cases: Vec<Case> = adversarial_corpus()
            .into_iter()
            .filter(|c| c.name == "sell-boundary-16")
            .collect();
        let mut runner = LaneFlipRunner(EngineRunner::default());
        let report = run_differential(
            &mut runner,
            &cases,
            &DiffConfig {
                shrink: true,
                repro_dir: Some(dir.clone()),
            },
        );
        assert!(!report.passed(), "the flipped lane must be detected");
        for f in &report.failures {
            assert!(
                f.combo.contains("/simd/"),
                "control combo failed: {}",
                f.combo
            );
        }
        // Acceptance bound: a reproducer of <= 8x8 with <= 12 nnz.
        let smallest = report
            .failures
            .iter()
            .filter_map(|f| f.shrunk.as_ref())
            .min_by_key(|s| (s.nnz, s.rows * s.cols))
            .expect("shrunk reproducer recorded");
        assert!(
            smallest.rows <= 8 && smallest.cols <= 8 && smallest.nnz <= 12,
            "{smallest:?}"
        );
        assert!(smallest.path.as_ref().is_some_and(|p| p.exists()));
        std::fs::remove_dir_all(&dir).ok();
    }
}

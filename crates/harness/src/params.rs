//! The suite's command-line parameters (§4.3 of the paper).
//!
//! [`Params`] is built through [`ParamsBuilder`], which validates
//! cross-field constraints (backend × variant × format × op) once, at
//! build time; [`Params::parse`] is a thin flag loop over the builder.

use spmm_core::SparseFormat;
use spmm_parallel::Schedule;
use spmm_trace::TraceLevel;

use crate::benchmark::{Backend, Op, Variant};
use crate::errors::HarnessError;

/// Parsed benchmark parameters.
///
/// Mirrors the thesis suite's flags: iteration count, thread count (or a
/// thread list for the Study 3.1 sweep), BCSR block size, the k-loop bound
/// and a debug flag — plus the selectors this implementation adds because
/// one binary drives every kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Matrix: a suite name (`torso1`) or a path to a `.mtx` file.
    pub matrix: String,
    /// Sparse format to benchmark.
    pub format: SparseFormat,
    /// Execution backend.
    pub backend: Backend,
    /// Kernel variant (normal / transposed-B / const-K).
    pub variant: Variant,
    /// Operation: SpMM (the paper's) or SpMV (§6.3.4).
    pub op: Op,
    /// Times the calculation function is called (`-n`).
    pub iterations: usize,
    /// Thread count for parallel kernels (`-t`).
    pub threads: usize,
    /// Thread list for the best-thread-count feature (Study 3.1).
    pub thread_list: Vec<usize>,
    /// BCSR/BELL block size (`-b`).
    pub block: usize,
    /// k-loop bound (`-k`).
    pub k: usize,
    /// Loop schedule for parallel kernels.
    pub schedule: Schedule,
    /// Force the scalar SIMD level (`--simd scalar`), pinning every CPU
    /// kernel (flat, transposed-B, const-K, SpMV, tiled and `simd`) to its
    /// portable build. The
    /// `SPMM_SIMD=scalar` environment variable has the same effect.
    pub simd_scalar: bool,
    /// Scale factor for generated suite matrices.
    pub scale: f64,
    /// RNG seed for generated matrices and B.
    pub seed: u64,
    /// Skip result verification (it can dominate tiny runs).
    pub no_verify: bool,
    /// Emit the report as CSV instead of human-readable text.
    pub csv: bool,
    /// Debug output flag.
    pub debug: bool,
    /// Write a chrome://tracing JSON file here after the run (`--trace-out`).
    pub trace_out: Option<String>,
    /// Runtime telemetry level (`--trace-level`; defaults to `spans` when
    /// `--trace-out` is given, `off` otherwise).
    pub trace_level: TraceLevel,
}

impl Default for Params {
    fn default() -> Self {
        // §5.1 defaults: k = 128, 32 threads, BCSR block size 4.
        Params {
            matrix: "bcsstk13".to_string(),
            format: SparseFormat::Csr,
            backend: Backend::Serial,
            variant: Variant::Normal,
            op: Op::Spmm,
            iterations: 3,
            threads: 32,
            thread_list: Vec::new(),
            block: 4,
            k: 128,
            schedule: Schedule::Static,
            simd_scalar: false,
            scale: 0.02,
            seed: 42,
            no_verify: false,
            csv: false,
            debug: false,
            trace_out: None,
            trace_level: TraceLevel::Off,
        }
    }
}

/// Builder for [`Params`] with build-time cross-field validation.
///
/// ```
/// use spmm_harness::{Params, Variant, Backend};
/// use spmm_core::SparseFormat;
///
/// let p = Params::builder()
///     .matrix("torso1")
///     .format(SparseFormat::Csr)
///     .backend(Backend::Serial)
///     .variant(Variant::Simd)
///     .build()
///     .unwrap();
/// assert_eq!(p.variant, Variant::Simd);
///
/// // Invalid combinations fail at build time, not deep inside `run`:
/// assert!(Params::builder()
///     .format(SparseFormat::Bell)
///     .variant(Variant::TransposedB)
///     .build()
///     .is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParamsBuilder {
    params: Params,
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(mut self, value: $ty) -> Self {
            self.params.$name = value;
            self
        }
    };
}

impl ParamsBuilder {
    setter!(
        /// Sparse format to benchmark.
        format: SparseFormat
    );
    setter!(
        /// Execution backend.
        backend: Backend
    );
    setter!(
        /// Kernel variant.
        variant: Variant
    );
    setter!(
        /// Operation (SpMM or SpMV).
        op: Op
    );
    setter!(
        /// Calc iterations to average.
        iterations: usize
    );
    setter!(
        /// Thread count for parallel kernels.
        threads: usize
    );
    setter!(
        /// Thread counts for the best-thread sweep.
        thread_list: Vec<usize>
    );
    setter!(
        /// BCSR/BELL block size.
        block: usize
    );
    setter!(
        /// k-loop bound.
        k: usize
    );
    setter!(
        /// Loop schedule for parallel kernels.
        schedule: Schedule
    );
    setter!(
        /// Pin every CPU kernel to its portable build.
        simd_scalar: bool
    );
    setter!(
        /// Scale factor for generated suite matrices.
        scale: f64
    );
    setter!(
        /// RNG seed.
        seed: u64
    );
    setter!(
        /// Skip the verification pass.
        no_verify: bool
    );
    setter!(
        /// Emit CSV output.
        csv: bool
    );
    setter!(
        /// Debug output flag.
        debug: bool
    );
    setter!(
        /// Runtime telemetry level.
        trace_level: TraceLevel
    );

    /// Matrix: a suite name or `.mtx` path.
    pub fn matrix(mut self, name: impl Into<String>) -> Self {
        self.params.matrix = name.into();
        self
    }

    /// Write a chrome://tracing file here after the run.
    pub fn trace_out(mut self, path: impl Into<String>) -> Self {
        self.params.trace_out = Some(path.into());
        self
    }

    /// Validate every cross-field constraint and produce the [`Params`].
    pub fn build(mut self) -> Result<Params, HarnessError> {
        // --trace-out implies span-level tracing unless a level was chosen.
        if self.params.trace_out.is_some() && self.params.trace_level == TraceLevel::Off {
            self.params.trace_level = TraceLevel::Spans;
        }
        validate(&self.params)?;
        Ok(self.params)
    }
}

fn invalid(msg: impl Into<String>) -> HarnessError {
    HarnessError::InvalidParams(msg.into())
}

/// The cross-field rule table. Field-range checks first, then the
/// backend × variant × format × op kernel-support table. The builder and
/// `Planner::plan` both enforce it, so an unsupported combination fails
/// with an explanation before anything is converted.
pub(crate) fn validate(p: &Params) -> Result<(), HarnessError> {
    use SparseFormat as F;

    if p.iterations == 0 {
        return Err(invalid("-n must be at least 1"));
    }
    if p.k == 0 {
        return Err(invalid("-k must be at least 1"));
    }
    if p.block == 0 {
        return Err(invalid("-b must be at least 1"));
    }
    if p.threads == 0 {
        return Err(invalid("-t must be at least 1"));
    }
    if p.scale <= 0.0 || p.scale.is_nan() {
        return Err(invalid("--scale must be positive"));
    }
    if p.thread_list.contains(&0) {
        return Err(invalid("--thread-list entries must be at least 1"));
    }

    let gpu = p.backend.device().is_some();
    match p.variant {
        Variant::Vendor => {
            if !gpu {
                return Err(invalid("the cuSPARSE variant requires a GPU backend"));
            }
            if !matches!(p.format, F::Coo | F::Csr) {
                return Err(invalid(format!(
                    "the cuSPARSE variant supports coo/csr only (got {})",
                    p.format
                )));
            }
        }
        Variant::Simd => {
            if p.backend != Backend::Serial {
                return Err(invalid("the simd variant is serial-only"));
            }
            let ok = match p.op {
                Op::Spmm => matches!(p.format, F::Csr | F::Ell | F::Bcsr | F::Sell),
                Op::Spmv => matches!(p.format, F::Csr | F::Sell),
            };
            if !ok {
                return Err(invalid(format!(
                    "no simd kernel for {}/{:?}",
                    p.format, p.op
                )));
            }
        }
        Variant::TransposedB => {
            if gpu || !F::PAPER.contains(&p.format) {
                return Err(invalid(format!(
                    "the transposed variant covers the paper's cpu formats only (got {}/{})",
                    p.format,
                    p.backend.name()
                )));
            }
        }
        Variant::FixedK => {
            if gpu {
                return Err(invalid("the fixed-k variant is cpu-only"));
            }
            let ok = match p.backend {
                Backend::Serial => F::PAPER.contains(&p.format),
                Backend::Parallel => matches!(p.format, F::Csr | F::Ell),
                _ => false,
            };
            if !ok {
                return Err(invalid(format!(
                    "no fixed-k kernel for {}/{}",
                    p.format,
                    p.backend.name()
                )));
            }
            let supported = &spmm_kernels::optimized::SUPPORTED_K;
            if p.op == Op::Spmm && !supported.contains(&p.k) {
                return Err(invalid(format!(
                    "k={} has no fixed-k instantiation (supported: {supported:?})",
                    p.k
                )));
            }
        }
        Variant::Tiled => {
            if gpu {
                return Err(invalid("the tiled variant is cpu-only"));
            }
            if p.op == Op::Spmv {
                return Err(invalid("spmv supports the normal and simd variants only"));
            }
            if !matches!(p.format, F::Csr | F::Ell | F::Bcsr) {
                return Err(invalid(format!(
                    "the tiled engine covers csr/ell/bcsr only (got {})",
                    p.format
                )));
            }
        }
        Variant::Normal => {}
    }

    if gpu {
        if p.op == Op::Spmv {
            return Err(invalid("spmv has no gpu backend"));
        }
        if p.variant == Variant::Normal
            && !matches!(p.format, F::Coo | F::Csr | F::Ell | F::Bcsr | F::Sell)
        {
            return Err(invalid(format!("no gpu kernel for {}", p.format)));
        }
    }

    if p.op == Op::Spmv {
        if !matches!(p.variant, Variant::Normal | Variant::Simd) {
            return Err(invalid("spmv supports the normal and simd variants only"));
        }
        if p.variant == Variant::Normal && !F::PAPER.contains(&p.format) {
            return Err(invalid(format!("no spmv kernel for {}", p.format)));
        }
    }

    Ok(())
}

impl Params {
    /// Start building parameters from the paper's defaults.
    pub fn builder() -> ParamsBuilder {
        ParamsBuilder::default()
    }

    /// Parse from CLI-style arguments (without the program name). A thin
    /// flag loop over [`ParamsBuilder`]: flags populate fields, then the
    /// builder's `build` runs the validation table.
    pub fn parse(args: &[String]) -> Result<Params, HarnessError> {
        let mut b = Params::builder();
        let bad = |msg: String| HarnessError::InvalidParams(msg);
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| -> Result<&String, HarnessError> {
                it.next()
                    .ok_or_else(|| HarnessError::InvalidParams(format!("{flag} needs a value")))
            };
            b = match arg.as_str() {
                "-m" | "--matrix" => b.matrix(value(arg)?.clone()),
                "-f" | "--format" => {
                    b.format(value(arg)?.parse().map_err(|e| bad(format!("{e}")))?)
                }
                "--backend" => b.backend(value(arg)?.parse().map_err(bad)?),
                "--variant" => b.variant(value(arg)?.parse().map_err(bad)?),
                "--op" => b.op(value(arg)?.parse().map_err(bad)?),
                "-n" | "--iterations" => b.iterations(parse_num(value(arg)?)?),
                "-t" | "--threads" => b.threads(parse_num(value(arg)?)?),
                "--thread-list" => b.thread_list(
                    value(arg)?
                        .split(',')
                        .map(|s| parse_num(s.trim()))
                        .collect::<Result<_, _>>()?,
                ),
                "-b" | "--block" => b.block(parse_num(value(arg)?)?),
                "-k" => b.k(parse_num(value(arg)?)?),
                "--schedule" => b.schedule(value(arg)?.parse().map_err(bad)?),
                "--simd" => match value(arg)?.to_ascii_lowercase().as_str() {
                    "auto" => b.simd_scalar(false),
                    "scalar" => b.simd_scalar(true),
                    other => return Err(bad(format!("--simd takes auto|scalar (got `{other}`)"))),
                },
                "--scale" => b.scale(
                    value(arg)?
                        .parse()
                        .map_err(|e| bad(format!("bad scale: {e}")))?,
                ),
                "--seed" => b.seed(
                    value(arg)?
                        .parse()
                        .map_err(|e| bad(format!("bad seed: {e}")))?,
                ),
                "--trace-out" => b.trace_out(value(arg)?.clone()),
                "--trace-level" => b.trace_level(value(arg)?.parse().map_err(bad)?),
                "--no-verify" => b.no_verify(true),
                "--csv" => b.csv(true),
                "-d" | "--debug" => b.debug(true),
                "-h" | "--help" => return Err(HarnessError::Usage(Params::usage().to_string())),
                other => {
                    return Err(HarnessError::Usage(format!(
                        "unknown flag `{other}`\n{}",
                        Params::usage()
                    )))
                }
            };
        }
        b.build()
    }

    /// Usage text for `--help`.
    pub fn usage() -> &'static str {
        "spmm-bench: benchmark one SpMM kernel\n\
         \n\
         options:\n\
           -m, --matrix <name|file.mtx>  suite matrix name or MatrixMarket path\n\
           --list-matrices               print the 14-matrix suite and exit\n\
           -f, --format <coo|csr|ell|bcsr|bell|csr5|sell|hyb>\n\
           --backend <serial|parallel|gpu-h100|gpu-a100>\n\
           --variant <normal|transposed|fixed-k|simd|tiled|cusparse>\n\
           --op <spmm|spmv>              operation (default spmm)\n\
           -n, --iterations <N>          calc() calls to average (default 3)\n\
           -t, --threads <N>             parallel thread count (default 32)\n\
           --thread-list <a,b,c>         try each count, report the best\n\
           -b, --block <N>               BCSR/BELL block size (default 4)\n\
           -k <N>                        k-loop bound (default 128)\n\
           --schedule <static|dynamic[,c]|guided[,c]|auto>\n\
           --simd <auto|scalar>          pin every CPU kernel to its portable build\n\
           --scale <f>                   suite matrix scale factor (default 0.02)\n\
           --seed <N>                    RNG seed (default 42)\n\
           --trace-out <file.json>       write a chrome://tracing trace\n\
           --trace-level <off|spans|full> telemetry detail (default: spans\n\
                                         when --trace-out is set, else off)\n\
           --no-verify                   skip the COO verification pass\n\
           --verify                      run the differential correctness\n\
                                         oracle over the full kernel matrix\n\
                                         and exit (ignores other flags)\n\
           --verify-corpus <adversarial|random|both>\n\
                                         corpus for --verify (default both)\n\
           --csv                         machine-readable output\n\
           -d, --debug                   debug output"
    }
}

fn parse_num(s: &str) -> Result<usize, HarnessError> {
    s.parse::<usize>()
        .map_err(|e| HarnessError::InvalidParams(format!("bad number `{s}`: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Params, HarnessError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Params::parse(&owned)
    }

    #[test]
    fn defaults_match_the_paper() {
        let p = Params::default();
        assert_eq!(p.k, 128);
        assert_eq!(p.threads, 32);
        assert_eq!(p.block, 4);
        assert_eq!(p.trace_level, TraceLevel::Off);
        assert!(p.trace_out.is_none());
    }

    #[test]
    fn full_flag_set_parses() {
        let p = parse(&[
            "-m",
            "torso1",
            "-f",
            "bcsr",
            "--backend",
            "parallel",
            "-n",
            "5",
            "-t",
            "16",
            "-b",
            "8",
            "-k",
            "256",
            "--schedule",
            "dynamic,32",
            "--scale",
            "0.1",
            "--seed",
            "7",
            "--csv",
            "-d",
        ])
        .unwrap();
        assert_eq!(p.matrix, "torso1");
        assert_eq!(p.format, SparseFormat::Bcsr);
        assert_eq!(p.backend, Backend::Parallel);
        assert_eq!(p.iterations, 5);
        assert_eq!(p.threads, 16);
        assert_eq!(p.block, 8);
        assert_eq!(p.k, 256);
        assert_eq!(p.schedule, Schedule::Dynamic(32));
        assert_eq!(p.scale, 0.1);
        assert_eq!(p.seed, 7);
        assert!(p.csv && p.debug);
    }

    #[test]
    fn thread_list_parses() {
        let p = parse(&["--thread-list", "2,4, 8,16"]).unwrap();
        assert_eq!(p.thread_list, vec![2, 4, 8, 16]);
    }

    #[test]
    fn simd_and_auto_schedule_parse() {
        assert!(parse(&["--simd", "scalar"]).unwrap().simd_scalar);
        assert!(!parse(&["--simd", "auto"]).unwrap().simd_scalar);
        assert!(!parse(&[]).unwrap().simd_scalar);
        assert!(parse(&["--simd", "avx512"]).is_err());
        assert_eq!(
            parse(&["--schedule", "auto"]).unwrap().schedule,
            Schedule::Auto
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--format", "fancy"]).is_err());
        assert!(parse(&["-n", "0"]).is_err());
        assert!(parse(&["-k", "zero"]).is_err());
        assert!(parse(&["--mystery"]).is_err());
        assert!(parse(&["-t"]).is_err());
    }

    #[test]
    fn backend_and_variant_parse() {
        let p = parse(&["--backend", "gpu-a100", "--variant", "fixed-k"]);
        // fixed-k is cpu-only: the builder now rejects this pair up front.
        assert!(matches!(p, Err(HarnessError::InvalidParams(_))));
        let p = parse(&["--backend", "gpu-a100"]).unwrap();
        assert_eq!(p.backend, Backend::GpuA100);
        let p = parse(&["--variant", "fixed-k"]).unwrap();
        assert_eq!(p.variant, Variant::FixedK);
    }

    #[test]
    fn op_parses() {
        assert_eq!(parse(&["--op", "spmv"]).unwrap().op, Op::Spmv);
        assert_eq!(parse(&[]).unwrap().op, Op::Spmm);
        assert!(parse(&["--op", "spgemm"]).is_err());
    }

    #[test]
    fn trace_flags_parse_and_imply_spans() {
        let p = parse(&["--trace-out", "/tmp/t.json"]).unwrap();
        assert_eq!(p.trace_out.as_deref(), Some("/tmp/t.json"));
        assert_eq!(p.trace_level, TraceLevel::Spans);
        let p = parse(&["--trace-out", "t.json", "--trace-level", "full"]).unwrap();
        assert_eq!(p.trace_level, TraceLevel::Full);
        let p = parse(&["--trace-level", "off"]).unwrap();
        assert_eq!(p.trace_level, TraceLevel::Off);
        assert!(parse(&["--trace-level", "verbose"]).is_err());
    }

    #[test]
    fn builder_validates_cross_field_rules() {
        use crate::benchmark::{Backend, Op, Variant};
        use SparseFormat as F;

        // The kernel matrix's supported pairs build fine.
        assert!(Params::builder()
            .format(F::Sell)
            .variant(Variant::Simd)
            .build()
            .is_ok());
        assert!(Params::builder()
            .format(F::Bcsr)
            .backend(Backend::Parallel)
            .variant(Variant::Tiled)
            .build()
            .is_ok());
        assert!(Params::builder()
            .backend(Backend::GpuH100)
            .variant(Variant::Vendor)
            .build()
            .is_ok());

        // Unsupported pairs fail at build time with InvalidParams.
        let cases: &[ParamsBuilder] = &[
            // bell has no transposed kernel
            Params::builder()
                .format(F::Bell)
                .variant(Variant::TransposedB),
            // cuSPARSE needs a GPU
            Params::builder().variant(Variant::Vendor),
            // cuSPARSE is coo/csr only
            Params::builder()
                .backend(Backend::GpuH100)
                .format(F::Ell)
                .variant(Variant::Vendor),
            // simd is serial-only
            Params::builder()
                .backend(Backend::Parallel)
                .variant(Variant::Simd),
            // no simd kernel for coo
            Params::builder().format(F::Coo).variant(Variant::Simd),
            // tiled is cpu-only and covers csr/ell/bcsr
            Params::builder()
                .backend(Backend::GpuH100)
                .variant(Variant::Tiled),
            Params::builder().format(F::Coo).variant(Variant::Tiled),
            Params::builder().variant(Variant::Tiled).op(Op::Spmv),
            // spmv is cpu-only
            Params::builder().backend(Backend::GpuA100).op(Op::Spmv),
            // fixed-k needs an instantiated k
            Params::builder().variant(Variant::FixedK).k(100),
            // zero fields
            Params::builder().iterations(0),
            Params::builder().k(0),
            Params::builder().threads(0),
            Params::builder().scale(0.0),
        ];
        for (i, case) in cases.iter().enumerate() {
            assert!(
                matches!(case.clone().build(), Err(HarnessError::InvalidParams(_))),
                "case {i} should fail validation"
            );
        }
    }

    #[test]
    fn builder_sets_every_field() {
        let p = Params::builder()
            .matrix("cant")
            .format(SparseFormat::Ell)
            .backend(Backend::Parallel)
            .variant(Variant::Normal)
            .op(Op::Spmm)
            .iterations(7)
            .threads(4)
            .thread_list(vec![1, 2])
            .block(2)
            .k(64)
            .schedule(Schedule::Auto)
            .simd_scalar(true)
            .scale(0.5)
            .seed(9)
            .no_verify(true)
            .csv(true)
            .debug(true)
            .trace_out("trace.json")
            .build()
            .unwrap();
        assert_eq!(p.matrix, "cant");
        assert_eq!(p.iterations, 7);
        assert_eq!(p.thread_list, vec![1, 2]);
        assert_eq!(p.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(p.trace_level, TraceLevel::Spans);
        assert!(p.simd_scalar && p.no_verify && p.csv && p.debug);
    }
}

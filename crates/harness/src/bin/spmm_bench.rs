//! `spmm-bench`: run one SpMM kernel benchmark, like the thesis suite's
//! per-kernel binaries.
//!
//! ```text
//! spmm-bench -m torso1 -f bcsr --backend parallel -t 32 -b 4 -k 128
//! ```

use spmm_harness::benchmark::{run, SuiteBenchmark};
use spmm_harness::verifydrv::{default_repro_dir, run_verify, CorpusKind};
use spmm_harness::{Params, Report};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--verify") {
        verify_mode(&args);
        return;
    }
    if args.iter().any(|a| a == "--list-matrices") {
        println!(
            "{:<16} {:>8} {:>10} {:>6} {:>6} {:>6}",
            "name", "rows", "nnz", "max", "avg", "ratio"
        );
        for spec in spmm_matgen::full_suite() {
            println!(
                "{:<16} {:>8} {:>10} {:>6} {:>6} {:>6}",
                spec.name,
                spec.rows,
                spec.paper.nnz,
                spec.paper.max,
                spec.paper.avg,
                spec.paper.ratio
            );
        }
        return;
    }
    let params = match Params::parse(&args) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    spmm_trace::set_trace_level(params.trace_level);
    if params.simd_scalar {
        // Pin every CPU kernel (flat, transposed-B, const-K, SpMV, tiled
        // and simd) to its portable build (same effect as SPMM_SIMD=scalar).
        spmm_kernels::simd::set_level_override(Some(spmm_kernels::simd::SimdLevel::Scalar));
    }

    // The thesis's best-thread-count feature (Study 3.1): run the whole
    // benchmark once per listed thread count and report the winner.
    if !params.thread_list.is_empty() {
        let mut best: Option<(usize, Report)> = None;
        for &t in &params.thread_list {
            let p = Params {
                threads: t,
                thread_list: Vec::new(),
                ..params.clone()
            };
            match SuiteBenchmark::from_params(p).and_then(|mut b| run(&mut b)) {
                Ok(report) => {
                    if params.debug {
                        eprintln!("threads {t}: {:.2} MFLOPS", report.mflops);
                    }
                    if best.as_ref().is_none_or(|(_, r)| report.mflops > r.mflops) {
                        best = Some((t, report));
                    }
                }
                Err(e) => eprintln!("threads {t}: {e}"),
            }
        }
        match best {
            Some((t, report)) => {
                println!("best thread count: {t}");
                emit(&params, &report);
                flush_trace(&params);
            }
            None => {
                eprintln!("every thread count failed");
                std::process::exit(1);
            }
        }
        return;
    }

    match SuiteBenchmark::from_params(params.clone()).and_then(|mut b| run(&mut b)) {
        Ok(report) => {
            emit(&params, &report);
            flush_trace(&params);
            if report.verified == Some(false) {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// `--verify`: run the differential correctness oracle over the full
/// format × backend × variant × schedule matrix and exit non-zero on any
/// mismatch. Shrunk reproducers land under `results/repro/`.
fn verify_mode(args: &[String]) {
    let mut kind = CorpusKind::Both;
    let mut seed = 42u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--verify-corpus" => match it.next().map(|v| v.parse()) {
                Some(Ok(k)) => kind = k,
                _ => {
                    eprintln!("--verify-corpus needs one of: adversarial, random, both");
                    std::process::exit(2);
                }
            },
            "--seed" => {
                if let Some(Ok(s)) = it.next().map(|v| v.parse()) {
                    seed = s;
                }
            }
            _ => {}
        }
    }
    let repro = default_repro_dir();
    let report = run_verify(kind, seed, Some(&repro));
    print!("{}", report.render());
    if report.passed() {
        println!("verify: PASS");
    } else {
        eprintln!(
            "verify: FAIL — shrunk reproducers written to {}",
            repro.display()
        );
        std::process::exit(1);
    }
}

/// Write the chrome://tracing file if `--trace-out` asked for one.
fn flush_trace(params: &Params) {
    if let Some(path) = &params.trace_out {
        match spmm_harness::telemetry::flush_trace_to(path) {
            Ok(n) => eprintln!("wrote {n} trace events to {path}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn emit(params: &Params, report: &Report) {
    if params.csv {
        println!("{}", Report::csv_header());
        println!("{}", report.csv_row());
    } else {
        print!("{report}");
    }
}

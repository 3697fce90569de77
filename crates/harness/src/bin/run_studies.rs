//! `run-studies`: regenerate every table and figure of the paper.
//!
//! Writes one CSV + JSON per study into `results/` (or `--out <dir>`),
//! prints terminal charts, and summarizes the headline comparisons. Use
//! `--quick` for a fast smoke run or `--scale <f>` to size the suite.

use std::cell::RefCell;
use std::fs;
use std::path::PathBuf;

use spmm_harness::json::Json;
use spmm_harness::studies::{
    load_suite, study1, study10, study11, study12, study2, study3, study3_1, study4, study5,
    study6, study7, study8, study9, table51, Arch, StudyContext, StudyResult,
};
use spmm_trace::{MetricsSnapshot, TraceLevel};

fn main() {
    let mut ctx = StudyContext::default();
    let mut out = PathBuf::from("results");
    let mut charts = true;
    let mut trace_out: Option<String> = None;
    let mut trace_level: Option<TraceLevel> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => ctx = StudyContext::quick(),
            "--scale" => {
                ctx.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--seed" => {
                ctx.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--out" => {
                out = PathBuf::from(it.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--no-charts" => charts = false,
            "--trace-out" => {
                trace_out =
                    Some(it.next().unwrap_or_else(|| die("--trace-out needs a path")).clone());
            }
            "--trace-level" => {
                trace_level = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--trace-level takes off|spans|full")),
                );
            }
            other => die(&format!(
                "unknown flag `{other}`\nusage: run-studies [--quick] [--scale f] [--seed n] [--out dir] [--no-charts] [--trace-out file.json] [--trace-level off|spans|full]"
            )),
        }
    }
    // --trace-out implies span tracing, like spmm-bench.
    let level = trace_level.unwrap_or(if trace_out.is_some() {
        TraceLevel::Spans
    } else {
        TraceLevel::Off
    });
    spmm_trace::set_trace_level(level);
    // Study 9 requires a const-K instantiation.
    if !spmm_kernels::optimized::SUPPORTED_K.contains(&ctx.k) {
        ctx.k = 128;
    }

    fs::create_dir_all(&out).unwrap_or_else(|e| die(&format!("cannot create {out:?}: {e}")));
    eprintln!(
        "generating the 14-matrix suite at scale {} (seed {}) ...",
        ctx.scale, ctx.seed
    );
    let suite = load_suite(&ctx);

    // Table 5.1.
    let rows = table51::table51(&suite);
    println!("{}", table51::render(&rows));
    write(&out, "table51.csv", &table51::to_csv(&rows));

    let arm = Arch::arm();
    let x86 = Arch::x86();

    // With telemetry on, record each study's metrics delta: what the
    // kernels did (calls, flops, bytes, tiles, chunks) between this emit
    // and the previous one, keyed by study id.
    let telemetry_on = spmm_trace::enabled();
    let telemetry: RefCell<Vec<(String, Json)>> = RefCell::new(Vec::new());
    let last_snapshot = RefCell::new(MetricsSnapshot::capture());
    let emit = |r: &StudyResult| {
        write(&out, &format!("{}.csv", r.id), &r.to_csv());
        write(&out, &format!("{}.json", r.id), &r.to_json());
        write(
            &out,
            &format!("{}.svg", r.id),
            &spmm_harness::svg::study_svg(r),
        );
        if telemetry_on {
            let now = MetricsSnapshot::capture();
            let delta = now.delta_since(&last_snapshot.borrow());
            telemetry
                .borrow_mut()
                .push((r.id.clone(), spmm_harness::telemetry::metrics_json(&delta)));
            *last_snapshot.borrow_mut() = now;
        }
        if charts {
            println!("{}", r.render());
        } else {
            eprintln!("wrote {}", r.id);
        }
    };

    for arch in [&arm, &x86] {
        let s1 = study1::study1(&ctx, arch, &suite);
        let (s2, winners) = study2::study2(&s1);
        emit(&s1);
        emit(&s2);
        println!("Study 2 winners on {}:", arch.machine.name);
        for (fmt, who) in &winners {
            let mut counts = std::collections::BTreeMap::new();
            for w in who.iter().flatten() {
                *counts.entry(w.split('/').nth(1).unwrap_or(w)).or_insert(0) += 1;
            }
            println!("  {fmt}: {counts:?}");
        }

        emit(&study3::study3(&ctx, arch, &suite));
        let s31 = study3_1::study3_1(&ctx, arch, &suite);
        emit(&s31);
        println!(
            "Study 3.1 ({}): matrices best at 72 threads per format: {:?}",
            arch.label,
            study3_1::count_top_thread_wins(&s31)
        );
        emit(&study4::study4(&ctx, arch, &suite));
        emit(&study5::study5(&ctx, arch, &suite));
        emit(&study7::study7(&ctx, arch));
    }

    emit(&study6::study6_formats(&ctx, &suite));
    emit(&study6::study6_bcsr(&ctx, &suite));

    // Host-measured studies.
    eprintln!("measuring Study 8 (transpose) on the host ...");
    let s8 = study8::study8(&ctx, "arm", &suite);
    emit(&s8);
    println!(
        "Study 8: transposed-B won >10% on {} of {} cells (the paper: only a few)",
        study8::transpose_win_count(&s8, 0.10),
        s8.rows.len() * 4
    );

    eprintln!("measuring Study 9 (manual optimizations) on the host ...");
    let s9 = study9::study9(&ctx, &suite);
    emit(&s9);
    println!("Study 9 improvement (% vs normal kernel, mean over matrices):");
    for (label, deltas) in study9::improvement_percent(&s9) {
        let mean = deltas.iter().sum::<f64>() / deltas.len().max(1) as f64;
        println!("  {label}: {mean:+.1}%");
    }

    // Study 10 (extension): the padding-repair formats.
    eprintln!("measuring Study 10 (ELL vs SELL vs HYB) on the host ...");
    emit(&study10::study10(&ctx, &suite));

    // Study 11 (extension): the cache-blocked tiled engine.
    eprintln!("measuring Study 11 (tiled vs flat) on the host ...");
    let s11 = study11::study11(&ctx, &suite);
    emit(&s11);
    println!("Study 11 tiled-over-flat serial speedup (mean over matrices):");
    for (format, speedup) in study11::tiled_speedup(&s11) {
        println!("  {format}: {speedup:.2}x");
    }

    // Study 12 (extension): the simd kernels' portable vs host-ISA build.
    eprintln!("measuring Study 12 (portable vs host-ISA build) on the host ...");
    let s12 = study12::study12(&ctx, &suite);
    emit(&s12);
    println!("Study 12 host-ISA-over-portable speedup (mean over matrices):");
    for (kernel, speedup) in study12::simd_speedup_summary(&s12) {
        println!("  {kernel}: {speedup:.2}x");
    }
    emit(&study12::study12_k_sweep(&ctx, &suite[0]));

    // Memory-footprint extra (§6.3.5): report per-format bytes at f64/usize.
    let mut footprint_csv = String::from("matrix");
    for f in spmm_core::SparseFormat::ALL {
        footprint_csv.push(',');
        footprint_csv.push_str(f.name());
    }
    footprint_csv.push('\n');
    for entry in &suite {
        footprint_csv.push_str(&entry.name);
        for f in spmm_core::SparseFormat::ALL {
            match spmm_kernels::FormatData::from_coo(f, &entry.coo, ctx.block) {
                Ok(data) => footprint_csv.push_str(&format!(",{}", data.memory_footprint())),
                Err(e) => {
                    eprintln!("warning: skipping {f} footprint for {}: {e}", entry.name);
                    footprint_csv.push(',');
                }
            }
        }
        footprint_csv.push('\n');
    }
    write(&out, "memory_footprint.csv", &footprint_csv);

    if telemetry_on {
        let mut doc = Json::obj();
        for (id, block) in telemetry.into_inner() {
            doc = doc.with(&id, block);
        }
        write(&out, "telemetry.json", &doc.pretty());
        eprintln!("wrote telemetry.json (per-study metric deltas)");
    }
    if let Some(path) = trace_out {
        match spmm_harness::telemetry::flush_trace_to(&path) {
            Ok(n) => eprintln!("wrote {n} trace events to {path}"),
            Err(e) => die(&e.to_string()),
        }
    }

    eprintln!("done; results in {out:?}");
}

fn write(dir: &std::path::Path, name: &str, content: &str) {
    let path = dir.join(name);
    fs::write(&path, content).unwrap_or_else(|e| die(&format!("cannot write {path:?}: {e}")));
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

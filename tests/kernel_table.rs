//! Tier-1 guard on the kernel-support table (`Params` validation): every
//! (op, format, backend, variant) tuple on one small adversarial case.
//!
//! * A tuple the builder accepts must plan, prepare and execute through
//!   the Planner/Executor engine and match the compensated oracle under
//!   the error model the verify driver assigns to that combination.
//! * A tuple the builder rejects must be rejected again when it reaches
//!   `Planner::plan` as a struct literal, with `InvalidParams`.

use spmm_bench::core::SparseFormat;
use spmm_bench::harness::{
    Backend, EngineRunner, Executor, HarnessError, Op, Params, Planner, Variant,
};
use spmm_verify::{
    adversarial_corpus, compare_spmm, compare_spmv, oracle_spmm, oracle_spmv, CaseRunner, VerifyOp,
};

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

#[test]
fn every_accepted_tuple_runs_and_every_rejected_tuple_fails_to_plan() {
    let case = adversarial_corpus()
        .into_iter()
        .find(|c| c.name == "ragged-blocks")
        .expect("corpus has the ragged-blocks case");
    let (b, x) = (case.b(), case.x());
    let props = case.coo.properties();
    let row_nnz = case.coo.row_counts();
    let want_mm = oracle_spmm(&case.coo, &b, case.k);
    let want_mv = oracle_spmv(&case.coo, &x);
    let combos = EngineRunner::default().combos(&case);
    let planner = Planner::new();

    let (mut accepted, mut rejected) = (0, 0);
    let mut failures = Vec::new();
    for op in [Op::Spmm, Op::Spmv] {
        for format in SparseFormat::ALL {
            for backend in BACKENDS {
                for variant in VARIANTS {
                    let label = format!(
                        "{}/{format}/{}/{}",
                        op.name(),
                        backend.name(),
                        variant.name()
                    );
                    let literal = Params {
                        matrix: case.name.clone(),
                        format,
                        backend,
                        variant,
                        op,
                        k: case.k,
                        block: case.block,
                        threads: 3,
                        iterations: 1,
                        ..Params::default()
                    };
                    let built = Params::builder()
                        .matrix(case.name.clone())
                        .format(format)
                        .backend(backend)
                        .variant(variant)
                        .op(op)
                        .k(case.k)
                        .block(case.block)
                        .threads(3)
                        .iterations(1)
                        .build();
                    let planned = planner.plan(&props, &literal);

                    if built.is_err() {
                        rejected += 1;
                        if !matches!(planned, Err(HarnessError::InvalidParams(_))) {
                            failures.push(format!(
                                "{label}: rejected by the builder but plan gave {:?}",
                                planned.map(|p| p.strategy)
                            ));
                        }
                        continue;
                    }
                    accepted += 1;

                    let verify_op = match op {
                        Op::Spmm => VerifyOp::Spmm,
                        Op::Spmv => VerifyOp::Spmv,
                    };
                    let Some(combo) = combos.iter().find(|c| {
                        c.op == verify_op
                            && c.format == format
                            && c.backend == backend.name()
                            && c.variant == variant.name()
                    }) else {
                        failures.push(format!("{label}: accepted but not in the verify matrix"));
                        continue;
                    };
                    let plan = match planned {
                        Ok(plan) => plan,
                        Err(e) => {
                            failures.push(format!("{label}: plan: {e}"));
                            continue;
                        }
                    };
                    let mut exec = Executor::new(plan);
                    if let Err(e) = exec
                        .prepare(&case.coo, &b)
                        .and_then(|()| exec.execute(&b, &x))
                    {
                        failures.push(format!("{label}: {e}"));
                        continue;
                    }
                    let mismatch = match op {
                        Op::Spmm => compare_spmm(exec.result(), &want_mm, &row_nnz, &combo.model),
                        Op::Spmv => compare_spmv(exec.y(), &want_mv, &row_nnz, &combo.model),
                    };
                    if let Some(m) = mismatch {
                        failures.push(format!("{label}: {m}"));
                    }
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    // 2 ops x 8 formats x 4 backends x 6 variants, and the verify matrix
    // holds exactly the accepted tuples (once each at the static schedule).
    assert_eq!(accepted + rejected, 384);
    let verified = combos.iter().filter(|c| c.schedule == "static").count();
    assert_eq!(
        accepted, verified,
        "{accepted} accepted, {rejected} rejected"
    );
}

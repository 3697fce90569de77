//! Tier-1 guard on every format conversion: each of the eight formats,
//! prepared and run serially with the normal kernel through the
//! Planner/Executor engine, must match the compensated oracle on every
//! case of the adversarial corpus.

use spmm_bench::core::SparseFormat;
use spmm_bench::harness::{Backend, Executor, Op, Params, Planner, Variant};
use spmm_verify::{adversarial_corpus, compare_spmm, oracle_spmm, ErrorModel};

#[test]
fn every_format_matches_the_oracle_on_the_adversarial_corpus() {
    let planner = Planner::new();
    let mut failures = Vec::new();
    let mut runs = 0;
    for case in adversarial_corpus() {
        let (b, x) = (case.b(), case.x());
        let want = oracle_spmm(&case.coo, &b, case.k);
        let row_nnz = case.coo.row_counts();
        for format in SparseFormat::ALL {
            let params = Params::builder()
                .matrix(case.name.clone())
                .format(format)
                .backend(Backend::Serial)
                .variant(Variant::Normal)
                .op(Op::Spmm)
                .k(case.k)
                .block(case.block)
                .iterations(1)
                .build()
                .expect("serial/normal SpMM is valid for every format");
            let label = format!("{}/{format}", case.name);
            let plan = planner
                .plan(&case.coo.properties(), &params)
                .unwrap_or_else(|e| panic!("{label}: plan: {e}"));
            let mut exec = Executor::new(plan);
            if let Err(e) = exec
                .prepare(&case.coo, &b)
                .and_then(|()| exec.execute(&b, &x))
            {
                failures.push(format!("{label}: {e}"));
                continue;
            }
            let got = exec.result();
            if (got.rows(), got.cols()) != (want.rows(), want.cols()) {
                failures.push(format!(
                    "{label}: output is {}x{}, want {}x{}",
                    got.rows(),
                    got.cols(),
                    want.rows(),
                    want.cols()
                ));
            } else if let Some(m) = compare_spmm(got, &want, &row_nnz, &ErrorModel::sequential()) {
                failures.push(format!("{label}: {m}"));
            }
            runs += 1;
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(runs >= 8 * 20, "only {runs} runs");
}

//! The correctness gate: a point's output against the `spmm-verify`
//! oracle, one row block at a time so the check adds little memory (and
//! so stays out of the run's peak resident set).

use spmm_core::{CooMatrix, DenseMatrix};
use spmm_harness::{Executor, Op};
use spmm_verify::{
    compare_spmm, compare_spmv, oracle_spmm, oracle_spmv, ulp_distance, ErrorModel, Mismatch,
};

use crate::inputs::Inputs;
use crate::workload::Point;

/// Output rows checked per oracle call.
const BLOCK_ROWS: usize = 1024;

/// Check the executor's last output for `p` against the compensated
/// oracle. `Ok` carries the worst entry's error as a share of its
/// per-row budget; `Err` describes the first block's worst mismatch.
/// `corrupt` adds 1 to the first output entry before comparing.
pub fn check(inputs: &Inputs, p: &Point, exec: &Executor, corrupt: bool) -> Result<f64, String> {
    let model = p.error_model();
    let sorted;
    let coo = if inputs.coo.is_sorted() {
        &inputs.coo
    } else {
        let mut copy = inputs.coo.clone();
        copy.sort_and_sum_duplicates();
        sorted = copy;
        &sorted
    };
    let (rows, width) = (coo.rows(), p.k);
    let out = match p.op {
        Op::Spmm if exec.result().cols() != width => {
            return Err(format!(
                "output has {} columns, want {width}",
                exec.result().cols()
            ))
        }
        Op::Spmm => exec.result().as_slice(),
        Op::Spmv => exec.y(),
    };
    if out.len() != rows * width {
        return Err(format!(
            "output holds {} values, want {}",
            out.len(),
            rows * width
        ));
    }

    let (ri, ci, vals) = (coo.row_indices(), coo.col_indices(), coo.values());
    let mut worst = 0.0f64;
    let mut at = 0;
    for r0 in (0..rows).step_by(BLOCK_ROWS) {
        let r1 = (r0 + BLOCK_ROWS).min(rows);
        let begin = at;
        while at < ri.len() && ri[at] < r1 {
            at += 1;
        }
        let trips: Vec<(usize, usize, f64)> =
            (begin..at).map(|e| (ri[e] - r0, ci[e], vals[e])).collect();
        let block = CooMatrix::<f64>::from_triplets(r1 - r0, coo.cols(), &trips)
            .map_err(|e| e.to_string())?;
        let row_nnz = block.row_counts();
        let mut got = out[r0 * width..r1 * width].to_vec();
        if corrupt && r0 == 0 {
            got[0] += 1.0;
        }
        let (mismatch, want) = match p.op {
            Op::Spmm => {
                let want = oracle_spmm(&block, inputs.b(width), width);
                let got = DenseMatrix::from_vec(r1 - r0, width, got.clone())
                    .map_err(|e| e.to_string())?;
                (
                    compare_spmm(&got, &want, &row_nnz, &model),
                    want.as_slice().to_vec(),
                )
            }
            Op::Spmv => {
                let want = oracle_spmv(&block, inputs.x());
                (compare_spmv(&got, &want, &row_nnz, &model), want)
            }
        };
        if let Some(Mismatch {
            row,
            col,
            got,
            want,
            rel,
            ulp,
        }) = mismatch
        {
            return Err(format!(
                "oracle mismatch at [{}, {col}]: got {got:e}, want {want:e} (rel {rel:.2e}, {ulp} ulp)",
                r0 + row
            ));
        }
        for (e, (g, w)) in got.iter().zip(&want).enumerate() {
            worst = worst.max(budget_share(*g, *w, row_nnz[e / width], &model));
        }
    }
    Ok(worst)
}

/// An entry's error as a share of its budget: the entry passes when
/// either its ULP distance or its relative error is within budget, so the
/// smaller of the two shares decides.
fn budget_share(got: f64, want: f64, dot_len: usize, model: &ErrorModel) -> f64 {
    if !got.is_finite() || !want.is_finite() {
        return if got.is_finite() == want.is_finite() {
            0.0
        } else {
            f64::INFINITY
        };
    }
    let ulp = ulp_distance(got, want) as f64 / model.ulp_budget(dot_len) as f64;
    let rel = (got - want).abs() / want.abs().max(1.0) / model.rel_tolerance::<f64>(dot_len);
    ulp.min(rel)
}

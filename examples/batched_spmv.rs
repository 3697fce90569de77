//! Batched vectors: many SpMVs vs one SpMM (§2.3 of the paper).
//!
//! When several vectors must be multiplied by the same sparse matrix, the
//! vectors can be "stacked" into a dense matrix and processed as one SpMM.
//! The paper argues this is potentially more efficient than repeated SpMV
//! because the formatted matrix A is traversed once per batch instead of
//! once per vector. This example measures exactly that trade.
//!
//! ```text
//! cargo run --release --example batched_spmv
//! ```

use std::time::Instant;

use spmm_bench::core::{CsrMatrix, DenseMatrix};
use spmm_bench::kernels::FormatData;
use spmm_bench::matgen;

fn main() {
    let spec = matgen::by_name("cant").expect("cant is in the suite");
    let coo = spec.generate(0.05, 7);
    let csr = FormatData::Csr(CsrMatrix::from_coo(&coo));
    let n = coo.cols();
    println!("matrix: cant replica — {}", coo.properties());

    for batch in [1usize, 4, 16, 64] {
        // The batch of vectors, as columns of a dense B.
        let b = DenseMatrix::from_fn(n, batch, |i, j| ((i * 7 + j * 13) % 17) as f64 - 8.0);

        // One SpMV per vector.
        let start = Instant::now();
        let mut ys = vec![vec![0.0f64; coo.rows()]; batch];
        let mut x = vec![0.0f64; n];
        for (j, y) in ys.iter_mut().enumerate() {
            for (i, xv) in x.iter_mut().enumerate() {
                *xv = b.get(i, j);
            }
            csr.spmv_serial(&x, y);
        }
        let spmv_t = start.elapsed();

        // One SpMM over the stacked batch.
        let start = Instant::now();
        let mut c = DenseMatrix::zeros(coo.rows(), batch);
        csr.spmm_serial(&b, batch, &mut c);
        let spmm_t = start.elapsed();

        // Same math, same numbers.
        for (j, y) in ys.iter().enumerate() {
            for (i, &v) in y.iter().enumerate() {
                assert_eq!(v, c.get(i, j), "batch {batch}, vector {j}, row {i}");
            }
        }

        println!(
            "batch {batch:>3}: {batch:>3} x SpMV = {:>8.2} ms | 1 x SpMM = {:>8.2} ms | speedup {:.2}x",
            spmv_t.as_secs_f64() * 1e3,
            spmm_t.as_secs_f64() * 1e3,
            spmv_t.as_secs_f64() / spmm_t.as_secs_f64(),
        );
    }
    println!("(SpMM wins as the batch grows: A streams once per batch, not once per vector)");
}

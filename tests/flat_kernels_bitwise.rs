//! Tier-1 guard on the ISA twins of the flat CPU kernels: the normal,
//! transposed-B and const-`K` SpMM kernels and SpMV, for every format that
//! has them, serial and two-thread parallel (static and dynamic
//! schedules), at several `k` (the const-`K` kernels at those in
//! `SUPPORTED_K`), over the adversarial corpus. Everything runs once with
//! the portable instantiation (`SimdLevel::Scalar`) and once at the host's
//! widest level. Every run must match the compensated oracle, and C must
//! be equal bit for bit between the two: the AVX2+FMA build does the same
//! unfused operations in the same order. SpMV's y must also equal
//! `spmm_serial`'s C at k = 1 bit for bit, since SpMV is the `K = 1`
//! instance of the const-`K` bodies.
//!
//! The SIMD level override is process-global, so this file is its own
//! test binary with a single test.

use spmm_bench::core::{DenseMatrix, SparseFormat};
use spmm_bench::kernels::simd::{self, SimdLevel};
use spmm_bench::kernels::FormatData;
use spmm_bench::parallel::{Schedule, ThreadPool};
use spmm_verify::{adversarial_corpus, compare_spmm, oracle_spmm, Case, ErrorModel};

/// `k = 1` comes first: SpMV is checked against the oracle at `KS[0]`.
const KS: [usize; 5] = [1, 3, 8, 33, 128];

/// `None` is the serial kernel; `Some` a two-thread parallel schedule.
const BACKENDS: [Option<Schedule>; 3] = [None, Some(Schedule::Static), Some(Schedule::Dynamic(3))];

/// The SpMM kernel families under test.
#[derive(Debug, Clone, Copy)]
enum Family {
    Normal,
    TransposedB,
    FixedK,
}

/// Runs per corpus case: the normal kernels for 8 formats, transposed-B
/// for the paper's 4, each at 3 backends × 5 `k`; const-`K` at the 2 `KS`
/// in `SUPPORTED_K`, serial for 4 formats and parallel for CSR and ELL at
/// 2 schedules; SpMV for 4 formats at 3 backends.
const RUNS_PER_CASE: usize = 8 * 3 * 5 + 4 * 3 * 5 + (4 + 2 * 2) * 2 + 4 * 3;

fn same_bits(a: &DenseMatrix<f64>, b: &DenseMatrix<f64>) -> bool {
    let bits = |m: &DenseMatrix<f64>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    bits(a) == bits(b)
}

/// Run every (case, format, backend, family, k) and SpMV at `level`,
/// checking each result against the oracle, and return the labelled
/// results in run order.
fn run_all(level: SimdLevel, failures: &mut Vec<String>) -> Vec<(String, DenseMatrix<f64>)> {
    simd::set_level_override(Some(level));
    assert_eq!(simd::active_level(), level, "override did not take");
    let pool = ThreadPool::new(2);
    let mut out = Vec::new();
    for case in adversarial_corpus() {
        // The case's deterministic operand, widened to the largest k.
        let b = Case {
            k: KS[KS.len() - 1],
            ..case.clone()
        }
        .b();
        let bt = b.transposed();
        // x is B's first column, so SpMV's y is the k = 1 SpMM's C.
        let x: Vec<f64> = (0..b.rows()).map(|i| b.get(i, 0)).collect();
        let rows = case.coo.rows();
        let row_nnz = case.coo.row_counts();
        let wants = KS.map(|k| oracle_spmm(&case.coo, &b, k));
        for format in SparseFormat::ALL {
            let data = FormatData::from_coo(format, &case.coo, case.block)
                .unwrap_or_else(|e| panic!("{}/{format}: {e}", case.name));
            // Whether `data` has the family's kernel (at this `k`).
            let spmm = |family, backend: Option<Schedule>, k, c: &mut DenseMatrix<f64>| match (
                family, backend,
            ) {
                (Family::Normal, None) => {
                    data.spmm_serial(&b, k, c);
                    true
                }
                (Family::Normal, Some(s)) => {
                    data.spmm_parallel(&pool, 2, s, &b, k, c);
                    true
                }
                (Family::TransposedB, None) => data.spmm_serial_bt(&bt, k, c),
                (Family::TransposedB, Some(s)) => data.spmm_parallel_bt(&pool, 2, s, &bt, k, c),
                (Family::FixedK, None) => data.spmm_serial_fixed_k(&b, k, c),
                (Family::FixedK, Some(s)) => data.spmm_parallel_fixed_k(&pool, 2, s, &b, k, c),
            };
            let mut k1 = DenseMatrix::zeros(rows, 1);
            data.spmm_serial(&b, 1, &mut k1);
            for backend in BACKENDS {
                let mut runs = Vec::new();
                for (ki, k) in KS.into_iter().enumerate() {
                    for family in [Family::Normal, Family::TransposedB, Family::FixedK] {
                        let mut c = DenseMatrix::from_fn(rows, k, |_, _| f64::NAN);
                        if spmm(family, backend, k, &mut c) {
                            runs.push((format!("{family:?}/k={k}"), ki, c));
                        }
                    }
                }
                let mut y = vec![f64::NAN; rows];
                let ran = match backend {
                    None => data.spmv_serial(&x, &mut y),
                    Some(s) => data.spmv_parallel(&pool, 2, s, &x, &mut y),
                };
                if ran {
                    let y = DenseMatrix::from_vec(rows, 1, y).unwrap();
                    if !same_bits(&y, &k1) {
                        failures.push(format!(
                            "{}/{format}/{backend:?}/spmv/{}: y differs from spmm_serial at k = 1",
                            case.name,
                            level.name()
                        ));
                    }
                    runs.push(("spmv".to_string(), 0, y));
                }
                let model = match backend {
                    None => ErrorModel::sequential(),
                    Some(_) => ErrorModel::reassociating(8),
                };
                for (what, ki, c) in runs {
                    let label =
                        format!("{}/{format}/{backend:?}/{what}/{}", case.name, level.name());
                    if let Some(m) = compare_spmm(&c, &wants[ki], &row_nnz, &model) {
                        failures.push(format!("{label}: {m}"));
                    }
                    out.push((label, c));
                }
            }
        }
    }
    out
}

#[test]
fn portable_and_host_isa_kernels_agree_bit_for_bit() {
    let mut failures = Vec::new();
    let portable = run_all(SimdLevel::Scalar, &mut failures);
    let host = run_all(simd::hardware_level(), &mut failures);
    simd::set_level_override(None);

    assert_eq!(portable.len(), host.len());
    for ((label, p), (_, h)) in portable.iter().zip(&host) {
        if !same_bits(p, h) {
            failures.push(format!("{label}: C differs between the ISA builds"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    let cases = adversarial_corpus().len();
    assert!(cases >= 20, "only {cases} corpus cases");
    assert_eq!(portable.len(), cases * RUNS_PER_CASE);
}

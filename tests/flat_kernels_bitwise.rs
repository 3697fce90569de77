//! Tier-1 guard on the ISA twins of the flat SpMM kernels: every format,
//! serial and two-thread parallel (static and dynamic schedules), at
//! several `k`, over the adversarial corpus, run once with the portable
//! instantiation (`SimdLevel::Scalar`) and once at the host's widest
//! level. Both runs must match the compensated oracle, and C must be
//! equal bit for bit: the AVX2+FMA build does the same unfused operations
//! in the same order.
//!
//! The SIMD level override is process-global, so this file is its own
//! test binary with a single test.

use spmm_bench::core::{DenseMatrix, SparseFormat};
use spmm_bench::kernels::simd::{self, SimdLevel};
use spmm_bench::kernels::FormatData;
use spmm_bench::parallel::{Schedule, ThreadPool};
use spmm_verify::{adversarial_corpus, compare_spmm, oracle_spmm, Case, ErrorModel};

const KS: [usize; 5] = [1, 3, 8, 33, 128];

/// `None` is the serial kernel; `Some` a two-thread parallel schedule.
const BACKENDS: [Option<Schedule>; 3] = [None, Some(Schedule::Static), Some(Schedule::Dynamic(3))];

/// Run every (case, format, backend, k) at `level`, checking each C
/// against the oracle, and return the labelled results in run order.
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
        let row_nnz = case.coo.row_counts();
        for format in SparseFormat::ALL {
            let data = FormatData::from_coo(format, &case.coo, case.block)
                .unwrap_or_else(|e| panic!("{}/{format}: {e}", case.name));
            for backend in BACKENDS {
                for k in KS {
                    let label =
                        format!("{}/{format}/{backend:?}/k={k}/{}", case.name, level.name());
                    let mut c = DenseMatrix::from_fn(case.coo.rows(), k, |_, _| f64::NAN);
                    let model = match backend {
                        None => {
                            data.spmm_serial(&b, k, &mut c);
                            ErrorModel::sequential()
                        }
                        Some(schedule) => {
                            data.spmm_parallel(&pool, 2, schedule, &b, k, &mut c);
                            ErrorModel::reassociating(8)
                        }
                    };
                    let want = oracle_spmm(&case.coo, &b, k);
                    if let Some(m) = compare_spmm(&c, &want, &row_nnz, &model) {
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
        let p_bits = p.as_slice().iter().map(|v| v.to_bits());
        if !p_bits.eq(h.as_slice().iter().map(|v| v.to_bits())) {
            failures.push(format!("{label}: C differs between the ISA builds"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(
        portable.len() >= 20 * 8 * 3 * 5,
        "only {} runs",
        portable.len()
    );
}

//! Tier-1 guard on the ISA twins of the flat CPU kernels: the normal,
//! transposed-B and const-`K` SpMM kernels and SpMV, for every format that
//! has them, serial and two-thread parallel (static and dynamic
//! schedules), at several `k` (the const-`K` kernels at those in
//! `SUPPORTED_K`), over the adversarial corpus. Everything runs once at
//! every level the host runs (`simd::levels()`: the portable
//! instantiation first, then AVX2+FMA and AVX-512 where the CPU has
//! them). Every run must match the compensated oracle, and C must be
//! equal bit for bit across the levels: the vector builds do the same
//! unfused operations in the same order. SpMV's y must also equal
//! `spmm_serial`'s C at k = 1 bit for bit, since SpMV is the `K = 1`
//! instance of the const-`K` bodies.
//!
//! The `simd` variant is the same bodies with a fused multiply-add above
//! the scalar level, so it gets its own two checks: pinned to
//! `SimdLevel::Scalar` it equals `spmm_serial` bit for bit, and at each
//! level above it equals a fused reference computed here.
//!
//! The SIMD level override is process-global, so this file is its own
//! test binary, and only its first test touches the override; the `simd`
//! tests pin their level explicitly and compare against `spmm_serial`,
//! whose result is the same at either level.

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
    let levels = simd::levels();
    assert_eq!(levels[0], SimdLevel::Scalar);
    let portable = run_all(SimdLevel::Scalar, &mut failures);
    for &level in &levels[1..] {
        let host = run_all(level, &mut failures);
        assert_eq!(portable.len(), host.len());
        for ((label, p), (_, h)) in portable.iter().zip(&host) {
            if !same_bits(p, h) {
                failures.push(format!("{label}: C differs between the ISA builds"));
            }
        }
    }
    simd::set_level_override(None);

    assert!(failures.is_empty(), "{}", failures.join("\n"));
    let cases = adversarial_corpus().len();
    assert!(cases >= 20, "only {cases} corpus cases");
    assert_eq!(portable.len(), cases * RUNS_PER_CASE);
}

/// The formats with a `simd` SpMM kernel.
const SIMD_FORMATS: [SparseFormat; 4] = [
    SparseFormat::Csr,
    SparseFormat::Ell,
    SparseFormat::Bcsr,
    SparseFormat::Sell,
];

/// Every corpus case with its operand at the largest `k`.
fn corpus_with_b() -> Vec<(Case, DenseMatrix<f64>)> {
    adversarial_corpus()
        .into_iter()
        .map(|case| {
            let b = Case {
                k: KS[KS.len() - 1],
                ..case.clone()
            }
            .b();
            (case, b)
        })
        .collect()
}

#[test]
fn simd_at_scalar_level_is_spmm_serial_bit_for_bit() {
    let mut failures = Vec::new();
    let mut runs = 0;
    for (case, b) in corpus_with_b() {
        let rows = case.coo.rows();
        for format in SparseFormat::ALL {
            let data = FormatData::from_coo(format, &case.coo, case.block).unwrap();
            for k in KS {
                let mut c = DenseMatrix::from_fn(rows, k, |_, _| f64::NAN);
                let ran = data.spmm_serial_simd_at(SimdLevel::Scalar, &b, k, &mut c);
                assert_eq!(ran, SIMD_FORMATS.contains(&format), "{format}");
                if !ran {
                    continue;
                }
                let mut want = DenseMatrix::zeros(rows, k);
                data.spmm_serial(&b, k, &mut want);
                if !same_bits(&c, &want) {
                    failures.push(format!("{}/{format}/k={k}", case.name));
                }
                runs += 1;
            }
        }
    }
    assert!(
        failures.is_empty(),
        "differs from spmm_serial:\n{}",
        failures.join("\n")
    );
    assert_eq!(
        runs,
        adversarial_corpus().len() * SIMD_FORMATS.len() * KS.len()
    );
}

/// `C[i][..k]` accumulated from zero with one fused multiply-add
/// (`f64::mul_add`) per stored entry of row `i`, in storage order. All
/// four `simd` formats hold a row's entries in CSR's order, but BCSR keeps
/// one dense slot per column: duplicate entries, which CSR keeps apart,
/// are summed into it in order (`dense_slots`).
fn fused_reference(
    csr: &FormatData<f64>,
    dense_slots: bool,
    b: &DenseMatrix<f64>,
    k: usize,
) -> DenseMatrix<f64> {
    let FormatData::Csr(csr) = csr else {
        panic!("not CSR");
    };
    let mut c = DenseMatrix::zeros(csr.rows(), k);
    for i in 0..csr.rows() {
        let (cols, vals) = csr.row(i);
        let mut entries: Vec<(usize, f64)> = Vec::new();
        for (&j, &v) in cols.iter().zip(vals) {
            match entries.last_mut() {
                Some((last, sum)) if dense_slots && *last == j => *sum += v,
                _ => entries.push((j, v)),
            }
        }
        let c_row = &mut c.row_mut(i)[..k];
        for (j, v) in entries {
            for (cv, &bv) in c_row.iter_mut().zip(&b.row(j)[..k]) {
                *cv = v.mul_add(bv, *cv);
            }
        }
    }
    c
}

#[test]
fn simd_at_host_level_is_the_fused_reference() {
    let mut failures = Vec::new();
    let mut cases = 0;
    // The padding and zero entries some formats add or skip are exact
    // no-ops (`0 · b + c == c`) only for finite b, so the comparison is
    // IEEE `==` (which equates ±0) on the cases with finite values.
    for (case, b) in corpus_with_b() {
        if !case.coo.iter().all(|(_, _, v)| v.is_finite()) {
            continue;
        }
        cases += 1;
        let rows = case.coo.rows();
        let csr = FormatData::from_coo(SparseFormat::Csr, &case.coo, case.block).unwrap();
        for format in SIMD_FORMATS {
            let data = FormatData::from_coo(format, &case.coo, case.block).unwrap();
            for k in KS {
                let want = fused_reference(&csr, format == SparseFormat::Bcsr, &b, k);
                for &level in &simd::levels()[1..] {
                    let mut c = DenseMatrix::from_fn(rows, k, |_, _| f64::NAN);
                    assert!(data.spmm_serial_simd_at(level, &b, k, &mut c));
                    if c.as_slice() != want.as_slice() {
                        failures.push(format!("{}/{format}/k={k}/{}", case.name, level.name()));
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "differs from the fused reference:\n{}",
        failures.join("\n")
    );
    // All but the NaN and infinity payload cases.
    assert!(cases >= 18, "only {cases} finite corpus cases");
}

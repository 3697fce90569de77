//! Result verification against the COO reference multiply (§4.3).

use std::fmt;

use crate::{DenseMatrix, Scalar};

/// A verification failure: where and by how much the result diverged.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// Row of the worst element.
    pub row: usize,
    /// Column of the worst element.
    pub col: usize,
    /// Value the kernel produced.
    pub got: f64,
    /// Value the reference produced.
    pub expected: f64,
    /// Relative error of the worst element.
    pub rel_error: f64,
    /// The tolerance that was exceeded.
    pub tolerance: f64,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verification failed at ({}, {}): got {:.6e}, expected {:.6e} \
             (rel error {:.3e} > tol {:.1e})",
            self.row, self.col, self.got, self.expected, self.rel_error, self.tolerance
        )
    }
}

impl std::error::Error for VerifyError {}

#[inline]
fn rel_error(got: f64, expected: f64) -> f64 {
    let diff = (got - expected).abs();
    if diff == 0.0 {
        return 0.0;
    }
    diff / expected.abs().max(1.0)
}

/// Largest elementwise relative error between `got` and `expected`
/// (denominator floored at 1.0 so near-zero references don't explode).
pub fn max_rel_error<T: Scalar>(got: &DenseMatrix<T>, expected: &DenseMatrix<T>) -> f64 {
    assert_eq!(
        (got.rows(), got.cols()),
        (expected.rows(), expected.cols()),
        "verification requires equal shapes"
    );
    got.as_slice()
        .iter()
        .zip(expected.as_slice())
        .map(|(&g, &e)| rel_error(g.to_f64(), e.to_f64()))
        .fold(0.0, f64::max)
}

/// Suggested verification tolerance for a scalar type, scaled by the dot
/// product length (accumulation order differs between kernels, so error
/// grows with the number of summed terms).
pub fn suggested_tolerance<T: Scalar>(dot_length: usize) -> f64 {
    let eps = if T::BYTES == 4 {
        f32::EPSILON as f64
    } else {
        f64::EPSILON
    };
    // sqrt(n) expected error growth for random signs, with generous headroom.
    eps * 64.0 * (dot_length.max(1) as f64).sqrt()
}

/// Check `got` against `expected`, failing if any element's relative error
/// exceeds `tolerance`. This is the suite's built-in verification function.
pub fn verify<T: Scalar>(
    got: &DenseMatrix<T>,
    expected: &DenseMatrix<T>,
    tolerance: f64,
) -> Result<(), VerifyError> {
    assert_eq!(
        (got.rows(), got.cols()),
        (expected.rows(), expected.cols()),
        "verification requires equal shapes"
    );
    let mut worst: Option<VerifyError> = None;
    for (idx, (&g, &e)) in got.as_slice().iter().zip(expected.as_slice()).enumerate() {
        let (g, e) = (g.to_f64(), e.to_f64());
        let err = rel_error(g, e);
        let beyond = err > tolerance || !g.is_finite();
        if beyond && worst.as_ref().is_none_or(|w| err > w.rel_error) {
            worst = Some(VerifyError {
                row: idx / got.cols(),
                col: idx % got.cols(),
                got: g,
                expected: e,
                rel_error: err,
                tolerance,
            });
        }
    }
    match worst {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_matrices_verify() {
        let a = DenseMatrix::from_fn(3, 3, |i, j| (i * j) as f64);
        assert!(verify(&a, &a, 0.0).is_ok());
        assert_eq!(max_rel_error(&a, &a), 0.0);
    }

    #[test]
    fn small_perturbation_within_tolerance() {
        let a = DenseMatrix::from_fn(2, 2, |_, _| 1000.0);
        let mut b = a.clone();
        b.set(0, 0, 1000.0 * (1.0 + 1e-12));
        assert!(verify(&b, &a, 1e-9).is_ok());
        assert!(verify(&b, &a, 1e-14).is_err());
    }

    #[test]
    fn error_reports_worst_element() {
        let a = DenseMatrix::from_fn(2, 3, |_, _| 10.0);
        let mut b = a.clone();
        b.set(0, 1, 10.1); // 1% off
        b.set(1, 2, 15.0); // 50% off — the worst
        let err = verify(&b, &a, 1e-3).unwrap_err();
        assert_eq!((err.row, err.col), (1, 2));
        assert!((err.rel_error - 0.5).abs() < 1e-12);
        assert!(err.to_string().contains("(1, 2)"));
    }

    #[test]
    fn nan_always_fails() {
        let a = DenseMatrix::from_fn(1, 1, |_, _| 1.0f64);
        let mut b = a.clone();
        b.set(0, 0, f64::NAN);
        assert!(verify(&b, &a, f64::INFINITY).is_err());
    }

    #[test]
    fn near_zero_reference_uses_absolute_scale() {
        // expected == 0, got == 1e-15: rel_error floors the denominator at 1,
        // so this tiny absolute residue passes reasonable tolerances.
        let a = DenseMatrix::from_fn(1, 1, |_, _| 0.0f64);
        let mut b = a.clone();
        b.set(0, 0, 1e-15);
        assert!(verify(&b, &a, 1e-12).is_ok());
    }

    #[test]
    fn suggested_tolerance_scales() {
        assert!(suggested_tolerance::<f32>(100) > suggested_tolerance::<f64>(100));
        assert!(suggested_tolerance::<f64>(10_000) > suggested_tolerance::<f64>(100));
    }
}

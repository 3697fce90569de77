//! The floating-point value types the suite can compute with.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A floating-point scalar usable as a matrix value.
///
/// The paper's suite originally stored everything as 64-bit doubles and
/// identifies switching to 32-bit floats as the main lever on its memory
/// footprint (§6.3.5); making the whole library generic over `Scalar` makes
/// that a type parameter instead of a rewrite.
pub trait Scalar:
    Copy
    + PartialEq
    + PartialOrd
    + Default
    + Send
    + Sync
    + fmt::Debug
    + fmt::Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Size of one stored value in bytes.
    const BYTES: usize = std::mem::size_of::<Self>();
    /// Short type name used in reports ("f32"/"f64").
    const NAME: &'static str;

    /// Lossy conversion from `f64` (used by generators and test fixtures).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` (used by verification and metrics).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Unfused multiply-add `self * a + b`: the product is rounded before
    /// the add, and Rust never contracts the two into one FMA, so every
    /// build computes the same bits.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Fused multiply-add `self * a + b` with a single rounding
    /// (`f64::mul_add`). One instruction on a target with FMA; without
    /// one it is a slow libm call, so kernels use it only in code built
    /// for FMA.
    fn fused_mul_add(self, a: Self, b: Self) -> Self;
    /// `true` for NaN or infinite values.
    fn is_finite(self) -> bool;
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NAME: &'static str = "f32";

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        // Plain `a * b + c`: `f32::mul_add` is a correctness tool, not a
        // performance one — without target FMA support it lowers to a slow
        // libm call, which would distort every kernel measurement.
        self * a + b
    }

    #[inline(always)]
    fn fused_mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }

    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NAME: &'static str = "f64";

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self * a + b
    }

    #[inline(always)]
    fn fused_mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }

    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<T: Scalar>() {
        assert_eq!(T::ZERO + T::ONE, T::ONE);
        assert_eq!(T::ONE.mul_add(T::ONE, T::ONE), T::from_f64(2.0));
        assert_eq!(T::from_f64(-3.5).abs().to_f64(), 3.5);
        assert!(T::ONE.is_finite());
        assert!(!T::from_f64(f64::NAN).is_finite());
        assert_eq!(T::default(), T::ZERO);
    }

    #[test]
    fn f32_contract() {
        exercise::<f32>();
        assert_eq!(f32::BYTES, 4);
        assert_eq!(f32::NAME, "f32");
    }

    #[test]
    fn f64_contract() {
        exercise::<f64>();
        assert_eq!(f64::BYTES, 8);
        assert_eq!(f64::NAME, "f64");
    }

    #[test]
    fn mul_add_rounds_twice_and_fused_mul_add_once() {
        fn residual<T: Scalar>(eps: T) -> (T, T) {
            // (1 + ε)² = 1 + 2ε + ε²: only the single rounding keeps ε².
            let a = T::ONE + eps;
            let c = -(T::ONE + eps + eps);
            (Scalar::mul_add(a, a, c), a.fused_mul_add(a, c))
        }
        assert_eq!(residual(f64::EPSILON), (0.0, f64::EPSILON * f64::EPSILON));
        assert_eq!(residual(f32::EPSILON), (0.0, f32::EPSILON * f32::EPSILON));
    }

    #[test]
    fn sum_works_via_trait() {
        fn total<T: Scalar>(xs: &[T]) -> T {
            xs.iter().copied().sum()
        }
        assert_eq!(total(&[1.0f64, 2.0, 3.0]), 6.0);
        assert_eq!(total(&[1.0f32, 2.0, 3.0]), 6.0);
    }
}

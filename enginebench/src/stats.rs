//! Order statistics and ratio estimators over timing samples.

/// The `q`-quantile of `xs`, interpolating linearly between order
/// statistics; NaN for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The geometric mean of positive `xs`; NaN for no samples.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Overhead from paired log-ratios `ln(a / b)`: the point estimate and the
/// upper end of its 95% interval, both as fractions (`ratio - 1`).
pub fn overhead(log_ratios: &[f64]) -> (f64, f64) {
    let n = log_ratios.len() as f64;
    if log_ratios.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mean = log_ratios.iter().sum::<f64>() / n;
    let var = if log_ratios.len() > 1 {
        log_ratios.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    let upper = mean + 1.96 * (var / n).sqrt();
    (mean.exp() - 1.0, upper.exp() - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        let (mid, upper) = overhead(&[0.0, 0.02, -0.02]);
        assert!(mid.abs() < 1e-12 && upper > 0.0);
    }
}

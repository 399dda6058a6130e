//! Five-number-style descriptive summaries.
//!
//! Experiment reports repeatedly need "describe this batch of numbers";
//! [`describe`] computes the standard summary in one pass over a slice
//! (exact order statistics, not streaming estimates — report-sized inputs
//! are small).

/// Descriptive statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of finite samples described.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased sample standard deviation (`NaN` for fewer than two).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Lower quartile (linear interpolation).
    pub q25: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q75: f64,
    /// Maximum.
    pub max: f64,
}

/// Exact quantile of a **sorted** slice with linear interpolation
/// (type-7, the R/NumPy default).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Describes a sample, ignoring non-finite values. Returns `None` for an
/// empty (or all-non-finite) input.
#[must_use]
pub fn describe(xs: &[f64]) -> Option<Summary> {
    let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = sorted.len();
    let mean = sorted.iter().sum::<f64>() / n as f64;
    let std_dev = if n < 2 {
        f64::NAN
    } else {
        (sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
    };
    Some(Summary {
        count: n,
        mean,
        std_dev,
        min: sorted[0],
        q25: quantile_sorted(&sorted, 0.25),
        median: quantile_sorted(&sorted, 0.50),
        q75: quantile_sorted(&sorted, 0.75),
        max: sorted[n - 1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_none() {
        assert!(describe(&[]).is_none());
        assert!(describe(&[f64::NAN, f64::INFINITY]).is_none());
    }

    #[test]
    fn single_value() {
        let s = describe(&[7.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.max, 7.0);
        assert!(s.std_dev.is_nan());
    }

    #[test]
    fn known_quartiles() {
        // 1..=5: q25 = 2, median = 3, q75 = 4 under type-7.
        let s = describe(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.q25, 2.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q75, 4.0);
    }

    #[test]
    fn interpolated_quartiles() {
        // 1..=4: median = 2.5.
        let s = describe(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.q25 - 1.75).abs() < 1e-12);
        assert!((s.q75 - 3.25).abs() < 1e-12);
    }

    #[test]
    fn ignores_non_finite() {
        let s = describe(&[1.0, f64::NAN, 3.0]).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.mean, 2.0);
    }

    #[test]
    fn mean_and_sd_match_direct() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = describe(&xs).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        // sample sd of this classic set: sqrt(32/7).
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }
}

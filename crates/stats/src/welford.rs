//! Numerically stable online moment accumulation.
//!
//! Welford's algorithm avoids the catastrophic cancellation of the naive
//! `E[X²] − E[X]²` formula, which matters here because simulation runs push
//! tens of millions of samples whose magnitudes differ wildly (probe delays
//! range from 0.02 s to 10 s in the paper's SAPP configuration).

/// Online mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use presence_stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.count(), 8);
/// assert!((w.mean() - 5.0).abs() < 1e-12);
/// assert!((w.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// Non-finite samples are ignored (and not counted); simulation code can
    /// therefore push raw ratios without pre-filtering division-by-zero
    /// artefacts.
    #[inline]
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds every sample from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }

    /// Number of (finite) observations pushed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` if no observation has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sample mean; `NaN` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`n − 1` denominator); `NaN` for fewer than
    /// two observations.
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            f64::NAN
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation; `NaN` for fewer than two observations.
    #[must_use]
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation; `+∞` when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `−∞` when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} !~ {b}");
    }

    #[test]
    fn empty_is_nan() {
        let w = Welford::new();
        assert!(w.mean().is_nan());
        assert!(w.sample_variance().is_nan());
        assert!(w.is_empty());
        assert_eq!(w.count(), 0);
    }

    #[test]
    fn single_sample() {
        let mut w = Welford::new();
        w.push(42.0);
        assert_eq!(w.count(), 1);
        assert_close(w.mean(), 42.0, 1e-12);
        assert!(w.sample_variance().is_nan());
        assert_eq!(w.min(), 42.0);
        assert_eq!(w.max(), 42.0);
    }

    #[test]
    fn matches_two_pass_computation() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let mut w = Welford::new();
        w.extend(xs.iter().copied());
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert_close(w.mean(), mean, 1e-9);
        assert_close(w.sample_variance(), var, 1e-9);
    }

    #[test]
    fn ignores_non_finite() {
        let mut w = Welford::new();
        w.push(1.0);
        w.push(f64::NAN);
        w.push(f64::INFINITY);
        w.push(3.0);
        assert_eq!(w.count(), 2);
        assert_close(w.mean(), 2.0, 1e-12);
    }

    #[test]
    fn numerical_stability_large_offset() {
        // Naive E[X^2]-E[X]^2 fails catastrophically here.
        let offset = 1e9;
        let mut w = Welford::new();
        for i in 0..10_000 {
            w.push(offset + (i % 2) as f64);
        }
        assert_close(w.mean(), offset + 0.5, 1e-3);
        assert_close(w.sample_variance(), 0.25, 1e-3);
    }

    #[test]
    fn sum_tracks_total() {
        let mut w = Welford::new();
        w.extend([1.5, 2.5, 6.0]);
        assert_close(w.sum(), 10.0, 1e-12);
    }
}

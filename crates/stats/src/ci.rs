//! Confidence intervals and Student-t / normal quantiles.
//!
//! The paper's steady-state study uses batch means with a confidence interval
//! of width 0.1 at confidence level 0.95. Computing that interval requires
//! the Student-t quantile for `n − 1` degrees of freedom; we implement it via
//! the classic Cornish–Fisher-style expansion from the normal quantile
//! (Abramowitz & Stegun 26.7.5), which is accurate to well below the noise
//! floor of any simulation estimate for `df ≥ 1`.

/// Quantile function (inverse CDF) of the standard normal distribution.
///
/// Uses Acklam's rational approximation (relative error < 1.15e−9 over the
/// full open interval) — orders of magnitude more accurate than any
/// simulation estimate it will ever be multiplied with.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
#[must_use]
pub fn z_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must be in (0, 1), got {p}");

    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Quantile function of Student's t distribution with `df` degrees of
/// freedom.
///
/// For small `df` the exact closed forms are used (`df = 1`: Cauchy,
/// `df = 2`: algebraic); otherwise the Cornish–Fisher expansion around the
/// normal quantile (Abramowitz & Stegun 26.7.5), which is accurate to a few
/// units in the fourth decimal for `df ≥ 3` — far below simulation noise.
///
/// # Panics
///
/// Panics if `p ∉ (0, 1)` or `df == 0`.
#[must_use]
pub fn t_quantile(p: f64, df: u64) -> f64 {
    assert!(df > 0, "degrees of freedom must be positive");
    assert!(p > 0.0 && p < 1.0, "probability must be in (0, 1), got {p}");

    match df {
        1 => (std::f64::consts::PI * (p - 0.5)).tan(),
        2 => {
            // F(t) = 1/2 + t / (2 √(2 + t²))  ⇒  t = u √(2 / (1 − u²)), u = 2p − 1.
            let u = 2.0 * p - 1.0;
            u * (2.0 / (1.0 - u * u)).sqrt()
        }
        _ => {
            let z = z_quantile(p);
            let n = df as f64;
            let g1 = (z.powi(3) + z) / 4.0;
            let g2 = (5.0 * z.powi(5) + 16.0 * z.powi(3) + 3.0 * z) / 96.0;
            let g3 = (3.0 * z.powi(7) + 19.0 * z.powi(5) + 17.0 * z.powi(3) - 15.0 * z) / 384.0;
            let g4 = (79.0 * z.powi(9) + 776.0 * z.powi(7) + 1482.0 * z.powi(5)
                - 1920.0 * z.powi(3)
                - 945.0 * z)
                / 92160.0;
            z + g1 / n + g2 / n.powi(2) + g3 / n.powi(3) + g4 / n.powi(4)
        }
    }
}

/// A two-sided confidence interval around a point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (sample mean).
    pub mean: f64,
    /// Half-width of the interval: the interval is `mean ± half_width`.
    pub half_width: f64,
    /// Confidence level the interval was computed at, e.g. `0.95`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Builds a Student-t confidence interval from summary statistics.
    ///
    /// `n` is the number of (batch) means, `std_dev` their sample standard
    /// deviation. Returns an interval with infinite half-width when `n < 2`
    /// so callers can use "is the interval narrow enough yet?" uniformly as
    /// a stopping rule.
    #[must_use]
    pub fn from_stats(mean: f64, std_dev: f64, n: u64, level: f64) -> Self {
        assert!(level > 0.0 && level < 1.0, "level must be in (0, 1)");
        let half_width = if n < 2 || !std_dev.is_finite() {
            f64::INFINITY
        } else {
            let t = t_quantile(0.5 + level / 2.0, n - 1);
            t * std_dev / (n as f64).sqrt()
        };
        Self {
            mean,
            half_width,
            level,
        }
    }

    /// Lower bound of the interval.
    #[must_use]
    pub fn low(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound of the interval.
    #[must_use]
    pub fn high(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Relative half-width `half_width / |mean|`; `+∞` when the mean is zero.
    ///
    /// The paper's stopping rule "confidence interval 0.1" is interpreted, as
    /// is conventional for MÖBIUS, as *relative* half-width ≤ 0.1.
    #[must_use]
    pub fn relative_half_width(&self) -> f64 {
        if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.half_width / self.mean.abs()
        }
    }

    /// Whether the interval contains `x`.
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        x >= self.low() && x <= self.high()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} !~ {b} (eps {eps})");
    }

    #[test]
    fn normal_quantile_reference_values() {
        // Reference values from standard tables.
        assert_close(z_quantile(0.5), 0.0, 1e-9);
        assert_close(z_quantile(0.975), 1.959_963_985, 1e-8);
        assert_close(z_quantile(0.95), 1.644_853_627, 1e-8);
        assert_close(z_quantile(0.99), 2.326_347_874, 1e-8);
        assert_close(z_quantile(0.999), 3.090_232_306, 1e-7);
        assert_close(z_quantile(0.025), -1.959_963_985, 1e-8);
        assert_close(z_quantile(1e-6), -4.753_424_309, 1e-6);
    }

    #[test]
    fn normal_quantile_symmetry() {
        for &p in &[0.01, 0.1, 0.25, 0.4, 0.49] {
            assert_close(z_quantile(p), -z_quantile(1.0 - p), 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn normal_quantile_rejects_zero() {
        let _ = z_quantile(0.0);
    }

    #[test]
    fn t_quantile_reference_values() {
        // Two-sided 95% => p = 0.975. Reference: standard t tables.
        assert_close(t_quantile(0.975, 1), 12.706, 2e-3);
        assert_close(t_quantile(0.975, 2), 4.303, 2e-3);
        assert_close(t_quantile(0.975, 5), 2.571, 2e-3);
        assert_close(t_quantile(0.975, 10), 2.228, 2e-3);
        assert_close(t_quantile(0.975, 30), 2.042, 2e-3);
        assert_close(t_quantile(0.975, 120), 1.980, 2e-3);
        assert_close(t_quantile(0.95, 10), 1.812, 2e-3);
        assert_close(t_quantile(0.99, 20), 2.528, 3e-3);
    }

    #[test]
    fn t_quantile_approaches_normal() {
        let t = t_quantile(0.975, 100_000);
        assert_close(t, z_quantile(0.975), 1e-4);
    }

    #[test]
    fn t_quantile_median_is_zero() {
        for df in [1, 2, 3, 10, 50] {
            assert_close(t_quantile(0.5, df), 0.0, 1e-9);
        }
    }

    #[test]
    fn t_quantile_symmetry() {
        for df in [1u64, 2, 3, 7, 25] {
            for &p in &[0.9, 0.95, 0.99] {
                assert_close(t_quantile(p, df), -t_quantile(1.0 - p, df), 1e-6);
            }
        }
    }

    #[test]
    #[should_panic(expected = "degrees of freedom")]
    fn t_quantile_rejects_zero_df() {
        let _ = t_quantile(0.5, 0);
    }

    #[test]
    fn ci_basic() {
        // 10 batch means with mean 5, sd 1 → half width = t(.975, 9)/sqrt(10).
        let ci = ConfidenceInterval::from_stats(5.0, 1.0, 10, 0.95);
        let expected = t_quantile(0.975, 9) / 10f64.sqrt();
        assert_close(ci.half_width, expected, 1e-6);
        assert!(ci.contains(5.0));
        assert!(ci.contains(ci.low()));
        assert!(!ci.contains(ci.high() + 1e-9));
        assert_close(ci.relative_half_width(), expected / 5.0, 1e-9);
    }

    #[test]
    fn ci_insufficient_samples_is_infinite() {
        let ci = ConfidenceInterval::from_stats(5.0, 1.0, 1, 0.95);
        assert!(ci.half_width.is_infinite());
        assert!(ci.relative_half_width().is_infinite());
    }

    #[test]
    fn ci_zero_mean_relative_width_infinite() {
        let ci = ConfidenceInterval::from_stats(0.0, 1.0, 10, 0.95);
        assert!(ci.relative_half_width().is_infinite());
    }
}

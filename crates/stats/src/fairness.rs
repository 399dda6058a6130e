//! Fairness metrics over per-node allocations.
//!
//! The paper demonstrates SAPP's unfairness with plots; to let benches and
//! tests *assert* the finding we quantify it. Jain's fairness index is the
//! standard choice: 1.0 for a perfectly equal allocation, `1/n` when a
//! single node monopolises the resource. Under SAPP, per-CP probe
//! frequencies should score well below DCPP's near-1.0.

/// Jain's fairness index: `(Σxᵢ)² / (n · Σxᵢ²)`.
///
/// Ranges over `[1/n, 1]` for non-negative allocations; returns `NaN` for an
/// empty slice and `1.0` when every allocation is zero (an all-zero
/// allocation is trivially equal).
///
/// # Examples
///
/// ```
/// use presence_stats::jain_index;
///
/// assert!((jain_index(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
/// let skewed = jain_index(&[10.0, 0.0, 0.0]);
/// assert!((skewed - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let sum: f64 = xs.iter().sum();
    let sq_sum: f64 = xs.iter().map(|x| x * x).sum();
    if sq_sum == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq_sum)
}

/// Ratio of the largest to the smallest allocation; `+∞` when the smallest
/// is zero but the largest is not, `NaN` for empty input or all-zero input.
///
/// The paper's steady-state finding — most CPs at delay ≈ 10 s while two sit
/// at ≈ 0.4 s — corresponds to a max/min frequency ratio of roughly 25.
#[must_use]
pub fn max_min_ratio(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &x in xs {
        if !x.is_finite() {
            continue;
        }
        min = min.min(x);
        max = max.max(x);
    }
    if !max.is_finite() {
        return f64::NAN;
    }
    if min == 0.0 {
        return if max == 0.0 { f64::NAN } else { f64::INFINITY };
    }
    max / min
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_equal_allocation_is_one() {
        assert!((jain_index(&[5.0; 20]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_monopoly_is_one_over_n() {
        let idx = jain_index(&[0.0, 0.0, 0.0, 8.0]);
        assert!((idx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_empty_is_nan() {
        assert!(jain_index(&[]).is_nan());
    }

    #[test]
    fn jain_all_zero_is_one() {
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn jain_in_bounds() {
        let xs = [0.1, 2.5, 7.0, 0.4, 0.4];
        let j = jain_index(&xs);
        assert!(j >= 1.0 / xs.len() as f64 - 1e-12);
        assert!(j <= 1.0 + 1e-12);
    }

    #[test]
    fn jain_paper_shape_is_unfair() {
        // 18 CPs at frequency 0.1/s, 2 at 2.5/s — the paper's SAPP shape.
        let mut xs = vec![0.1; 18];
        xs.extend([2.5, 2.5]);
        let j = jain_index(&xs);
        assert!(j < 0.4, "expected strong unfairness, got {j}");
    }

    #[test]
    fn max_min_basic() {
        assert!((max_min_ratio(&[0.4, 10.0]) - 25.0).abs() < 1e-12);
        assert!(max_min_ratio(&[0.0, 1.0]).is_infinite());
        assert!(max_min_ratio(&[]).is_nan());
        assert!(max_min_ratio(&[0.0, 0.0]).is_nan());
    }
}

//! Per-window ("regime") slicing of time-stamped series.
//!
//! The scenario lab runs experiments whose network and churn regimes
//! switch at configured sim-time boundaries, and reports metrics *per
//! regime window* — device load while the loss storm raged, fairness
//! after the flash crowd drained, and so on. These helpers turn a set of
//! regime start times into half-open windows and slice time-sorted
//! `(t, value)` series against them. They are plain functions over slices
//! so the same slicing serves simulation output, bench reports, and the
//! wall-clock runtime.

/// Turns sorted window starts into half-open `[start, end)` windows, the
/// last one closing at `horizon`.
///
/// # Panics
///
/// Panics if `starts` is empty, unsorted, or reaches past `horizon`.
#[must_use]
pub fn slice_windows(starts: &[f64], horizon: f64) -> Vec<(f64, f64)> {
    assert!(!starts.is_empty(), "need at least one window start");
    let mut windows = Vec::with_capacity(starts.len());
    for (i, &start) in starts.iter().enumerate() {
        let end = starts.get(i + 1).copied().unwrap_or(horizon);
        assert!(
            start < end,
            "window starts must be sorted below the horizon"
        );
        windows.push((start, end));
    }
    windows
}

/// The contiguous run of samples of a time-sorted `(t, value)` series
/// falling in `[from, to)` — two binary searches, no allocation.
#[must_use]
pub fn window_slice(series: &[(f64, f64)], from: f64, to: f64) -> &[(f64, f64)] {
    let lo = series.partition_point(|&(t, _)| t < from);
    let hi = series.partition_point(|&(t, _)| t < to);
    &series[lo..hi]
}

/// Mean of the values of a `(t, value)` series window; `None` when empty.
#[must_use]
pub fn window_mean(window: &[(f64, f64)]) -> Option<f64> {
    if window.is_empty() {
        return None;
    }
    Some(window.iter().map(|&(_, v)| v).sum::<f64>() / window.len() as f64)
}

/// Time-weighted mean of a *step* series (each sample's value holds until
/// the next sample) over `[from, to)` — the right mean for population
/// curves, where a window between two resamples still has a well-defined
/// population: the last value set before it. `None` only when the series
/// is empty or starts after `to`.
#[must_use]
pub fn step_mean(series: &[(f64, f64)], from: f64, to: f64) -> Option<f64> {
    if to <= from {
        return None;
    }
    // Last sample at or before `from` (the value in force as the window
    // opens), then every sample strictly inside the window.
    let first_inside = series.partition_point(|&(t, _)| t <= from);
    let mut current = first_inside.checked_sub(1).map(|i| series[i].1);
    let mut weighted = 0.0;
    let mut covered = 0.0;
    let mut cursor = from;
    for &(t, v) in &series[first_inside..] {
        if t >= to {
            break;
        }
        if let Some(value) = current {
            weighted += value * (t - cursor);
            covered += t - cursor;
        }
        current = Some(v);
        cursor = t;
    }
    let value = current?;
    weighted += value * (to - cursor);
    covered += to - cursor;
    if covered > 0.0 {
        Some(weighted / covered)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cover_the_horizon() {
        let w = slice_windows(&[0.0, 2.0, 5.0], 50.0);
        assert_eq!(w, vec![(0.0, 2.0), (2.0, 5.0), (5.0, 50.0)]);
        assert_eq!(slice_windows(&[0.0], 10.0), vec![(0.0, 10.0)]);
    }

    #[test]
    #[should_panic(expected = "sorted below the horizon")]
    fn windows_reject_start_at_horizon() {
        let _ = slice_windows(&[0.0, 10.0], 10.0);
    }

    #[test]
    fn step_mean_carries_the_last_value_into_the_window() {
        let series = [(0.0, 10.0), (4.0, 20.0)];
        // Window entirely between samples: the value set at t = 0 holds.
        assert_eq!(step_mean(&series, 1.0, 3.0), Some(10.0));
        // Window straddling the step: 1 s at 10 + 1 s at 20.
        assert_eq!(step_mean(&series, 3.0, 5.0), Some(15.0));
        // Window after everything: last value holds.
        assert_eq!(step_mean(&series, 10.0, 20.0), Some(20.0));
        // Window before the first sample: nothing is in force yet…
        assert_eq!(step_mean(&series, -2.0, -1.0), None);
        // …and a window opening exactly at the first sample uses it.
        assert_eq!(step_mean(&series, 0.0, 2.0), Some(10.0));
        assert_eq!(step_mean(&[], 0.0, 1.0), None);
    }

    #[test]
    fn window_slice_is_half_open() {
        let series = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)];
        assert_eq!(window_slice(&series, 1.0, 3.0), &series[1..3]);
        assert_eq!(window_slice(&series, 0.5, 0.9), &[] as &[(f64, f64)]);
        assert_eq!(window_slice(&series, 0.0, 100.0), &series[..]);
        assert_eq!(window_mean(window_slice(&series, 1.0, 3.0)), Some(2.5));
        assert_eq!(window_mean(&[]), None);
    }
}

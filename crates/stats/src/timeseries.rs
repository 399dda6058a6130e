//! Timestamped sample recording with windowed queries.
//!
//! The paper's Figures 2–4 plot per-CP probe *frequency* (1/δ) against
//! simulated time, and Figure 5 plots device load and population size over a
//! 30-minute window. [`TimeSeries`] is the recorder behind all of those: the
//! simulation pushes `(t, value)` pairs and the experiment harness queries
//! windows, resamples onto a uniform grid for plotting, and computes
//! time-weighted means.

use crate::welford::Welford;
use serde::{Deserialize, Serialize};

/// One timestamped observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Time of the observation, in seconds.
    pub t: f64,
    /// Observed value.
    pub value: f64,
}

/// Summary statistics over (a window of) a time series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeSeriesSummary {
    /// Number of samples in the window.
    pub count: u64,
    /// Plain (unweighted) mean of the sampled values.
    pub mean: f64,
    /// Unbiased sample variance of the values.
    pub variance: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

/// An append-only time series with monotonically non-decreasing timestamps.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    samples: Vec<Sample>,
}

impl TimeSeries {
    /// Creates an empty series.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty series with preallocated capacity.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            samples: Vec::with_capacity(n),
        }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not finite or moves backwards in time — simulation
    /// clocks are monotone, so a violation is a harness bug worth failing
    /// loudly on.
    #[inline]
    pub fn push(&mut self, t: f64, value: f64) {
        assert!(t.is_finite(), "timestamp must be finite");
        if let Some(last) = self.samples.last() {
            assert!(
                t >= last.t,
                "timestamps must be non-decreasing: {t} after {}",
                last.t
            );
        }
        self.samples.push(Sample { t, value });
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All samples, in time order.
    #[must_use]
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// First timestamp, if any.
    #[must_use]
    pub fn start(&self) -> Option<f64> {
        self.samples.first().map(|s| s.t)
    }

    /// Last timestamp, if any.
    #[must_use]
    pub fn end(&self) -> Option<f64> {
        self.samples.last().map(|s| s.t)
    }

    /// Samples with `from <= t < to`.
    #[must_use]
    pub fn window(&self, from: f64, to: f64) -> &[Sample] {
        let lo = self.samples.partition_point(|s| s.t < from);
        let hi = self.samples.partition_point(|s| s.t < to);
        &self.samples[lo..hi]
    }

    /// Summary over `[from, to)`; `None` when the window is empty.
    #[must_use]
    pub fn summarize(&self, from: f64, to: f64) -> Option<TimeSeriesSummary> {
        let w = self.window(from, to);
        if w.is_empty() {
            return None;
        }
        let mut acc = Welford::new();
        for s in w {
            acc.push(s.value);
        }
        Some(TimeSeriesSummary {
            count: acc.count(),
            mean: acc.mean(),
            variance: acc.sample_variance(),
            min: acc.min(),
            max: acc.max(),
        })
    }

    /// Summary over the whole series.
    ///
    /// Uses an explicit `+∞` upper bound rather than `end + 1.0`: for
    /// timestamps at or above 2^53, `e + 1.0 == e` and a half-open window
    /// ending there would silently drop the last sample.
    #[must_use]
    pub fn summarize_all(&self) -> Option<TimeSeriesSummary> {
        self.start().and_then(|s| self.summarize(s, f64::INFINITY))
    }

    /// Value in effect at time `t` under *sample-and-hold* semantics: the
    /// value of the latest sample with timestamp `<= t`. `None` before the
    /// first sample.
    ///
    /// This is the right interpolation for step signals such as "number of
    /// CPs currently present" (Figure 5's second curve).
    #[must_use]
    pub fn value_at(&self, t: f64) -> Option<f64> {
        let idx = self.samples.partition_point(|s| s.t <= t);
        if idx == 0 {
            None
        } else {
            Some(self.samples[idx - 1].value)
        }
    }

    /// Resamples onto a uniform grid of `points` timestamps spanning
    /// `[from, to]` using sample-and-hold. Entries before the first sample
    /// hold `f64::NAN`.
    ///
    /// This is what the plotting/CSV layer feeds to gnuplot-style output so
    /// that different runs are comparable point-by-point.
    #[must_use]
    pub fn resample(&self, from: f64, to: f64, points: usize) -> Vec<Sample> {
        assert!(points >= 2, "need at least two grid points");
        assert!(to > from, "empty resample interval");
        let step = (to - from) / (points - 1) as f64;
        (0..points)
            .map(|i| {
                let t = from + i as f64 * step;
                Sample {
                    t,
                    value: self.value_at(t).unwrap_or(f64::NAN),
                }
            })
            .collect()
    }

    /// Time-weighted mean of a step signal over `[from, to)`: each sample's
    /// value is weighted by how long it remained the latest sample.
    ///
    /// `None` if no sample is in effect anywhere in the window.
    #[must_use]
    pub fn time_weighted_mean(&self, from: f64, to: f64) -> Option<f64> {
        if to <= from {
            return None;
        }
        let mut acc = 0.0;
        let mut covered = 0.0;
        let mut current = self.value_at(from);
        let mut cursor = from;
        for s in self.window(from, to) {
            if let Some(v) = current {
                acc += v * (s.t - cursor);
                covered += s.t - cursor;
            }
            current = Some(s.value);
            cursor = s.t;
        }
        if let Some(v) = current {
            acc += v * (to - cursor);
            covered += to - cursor;
        }
        if covered > 0.0 {
            Some(acc / covered)
        } else {
            None
        }
    }
}

/// Tracks the time-weighted average of a piecewise-constant signal online,
/// without storing samples.
///
/// The paper reports "the average buffer length is very small (≈ 0.004)";
/// that is a time-weighted average of the buffer-occupancy step signal, and
/// this accumulator computes exactly that in O(1) memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeWeighted {
    last_t: f64,
    last_v: f64,
    weighted_sum: f64,
    elapsed: f64,
    max: f64,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            last_t: 0.0,
            last_v: 0.0,
            weighted_sum: 0.0,
            elapsed: 0.0,
            max: f64::NEG_INFINITY,
            started: false,
        }
    }

    /// Records that the signal changed to `v` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if time moves backwards.
    #[inline]
    pub fn set(&mut self, t: f64, v: f64) {
        if self.started {
            assert!(t >= self.last_t, "time must not move backwards");
            self.weighted_sum += self.last_v * (t - self.last_t);
            self.elapsed += t - self.last_t;
        }
        self.started = true;
        self.last_t = t;
        self.last_v = v;
        self.max = self.max.max(v);
    }

    /// Finalises the signal up to time `t` and returns the time-weighted
    /// mean so far; `None` if the signal never changed or no time elapsed.
    #[must_use]
    pub fn mean_until(&self, t: f64) -> Option<f64> {
        if !self.started {
            return None;
        }
        let extra = (t - self.last_t).max(0.0);
        let total = self.elapsed + extra;
        if total <= 0.0 {
            return None;
        }
        Some((self.weighted_sum + self.last_v * extra) / total)
    }

    /// Largest value ever set; `−∞` before the first `set`.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Current (latest) value; `None` before the first `set`.
    #[must_use]
    pub fn current(&self) -> Option<f64> {
        self.started.then_some(self.last_v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_window() {
        let mut ts = TimeSeries::new();
        for i in 0..10 {
            ts.push(i as f64, (i * i) as f64);
        }
        let w = ts.window(2.0, 5.0);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].value, 4.0);
        assert_eq!(w[2].value, 16.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_travel() {
        let mut ts = TimeSeries::new();
        ts.push(5.0, 1.0);
        ts.push(4.0, 1.0);
    }

    #[test]
    fn equal_timestamps_allowed() {
        let mut ts = TimeSeries::new();
        ts.push(1.0, 1.0);
        ts.push(1.0, 2.0);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn summarize_window() {
        let mut ts = TimeSeries::new();
        ts.push(0.0, 1.0);
        ts.push(1.0, 3.0);
        ts.push(2.0, 5.0);
        let s = ts.summarize(0.0, 3.0).unwrap();
        assert_eq!(s.count, 3);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!(ts.summarize(10.0, 20.0).is_none());
    }

    #[test]
    fn summarize_all_spans_everything() {
        let mut ts = TimeSeries::new();
        ts.push(0.0, 1.0);
        ts.push(1.0, 3.0);
        ts.push(2.0, 5.0);
        let s = ts.summarize_all().unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.max, 5.0);
        assert!(TimeSeries::new().summarize_all().is_none());
    }

    #[test]
    fn summarize_all_keeps_huge_timestamps() {
        // Regression: the old `summarize(start, end + 1.0)` upper bound
        // collapses for timestamps >= 2^53 (where `e + 1.0 == e`), silently
        // dropping the last sample from the half-open window.
        let t = 2f64.powi(53);
        assert_eq!(t + 1.0, t); // the precondition that broke the old code
        let mut ts = TimeSeries::new();
        ts.push(0.0, 1.0);
        ts.push(t, 7.0);
        let s = ts.summarize_all().unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 7.0);

        // A series of a single huge-timestamp sample must not vanish.
        let mut ts = TimeSeries::new();
        ts.push(t, 7.0);
        let s = ts.summarize_all().unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.0);
    }

    #[test]
    fn value_at_sample_and_hold() {
        let mut ts = TimeSeries::new();
        ts.push(1.0, 10.0);
        ts.push(3.0, 20.0);
        assert_eq!(ts.value_at(0.5), None);
        assert_eq!(ts.value_at(1.0), Some(10.0));
        assert_eq!(ts.value_at(2.9), Some(10.0));
        assert_eq!(ts.value_at(3.0), Some(20.0));
        assert_eq!(ts.value_at(100.0), Some(20.0));
    }

    #[test]
    fn resample_grid() {
        let mut ts = TimeSeries::new();
        ts.push(0.0, 1.0);
        ts.push(5.0, 2.0);
        let grid = ts.resample(0.0, 10.0, 11);
        assert_eq!(grid.len(), 11);
        assert_eq!(grid[0].value, 1.0);
        assert_eq!(grid[4].value, 1.0);
        assert_eq!(grid[5].value, 2.0);
        assert_eq!(grid[10].value, 2.0);
        assert!((grid[10].t - 10.0).abs() < 1e-12);
    }

    #[test]
    fn resample_before_first_sample_is_nan() {
        let mut ts = TimeSeries::new();
        ts.push(5.0, 1.0);
        let grid = ts.resample(0.0, 10.0, 3);
        assert!(grid[0].value.is_nan());
        assert_eq!(grid[2].value, 1.0);
    }

    #[test]
    fn time_weighted_mean_step_signal() {
        let mut ts = TimeSeries::new();
        ts.push(0.0, 0.0);
        ts.push(1.0, 10.0); // 10 for 9 time units out of 10
        let m = ts.time_weighted_mean(0.0, 10.0).unwrap();
        assert!((m - 9.0).abs() < 1e-12, "got {m}");
    }

    #[test]
    fn time_weighted_mean_ignores_uncovered_prefix() {
        let mut ts = TimeSeries::new();
        ts.push(5.0, 4.0);
        // Window [0,10): only [5,10) is covered, value 4 throughout.
        let m = ts.time_weighted_mean(0.0, 10.0).unwrap();
        assert!((m - 4.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_accumulator_matches_series() {
        let mut ts = TimeSeries::new();
        let mut tw = TimeWeighted::new();
        let steps = [(0.0, 2.0), (1.0, 4.0), (4.0, 0.0), (6.0, 1.0)];
        for &(t, v) in &steps {
            ts.push(t, v);
            tw.set(t, v);
        }
        let a = ts.time_weighted_mean(0.0, 10.0).unwrap();
        let b = tw.mean_until(10.0).unwrap();
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        assert_eq!(tw.max(), 4.0);
        assert_eq!(tw.current(), Some(1.0));
    }

    #[test]
    fn time_weighted_empty() {
        let tw = TimeWeighted::new();
        assert!(tw.mean_until(10.0).is_none());
        assert!(tw.current().is_none());
    }

    #[test]
    fn buffer_occupancy_scenario() {
        // A buffer that is almost always empty, briefly at 2: the paper's
        // "average buffer length ~ 0.004" style of measurement.
        let mut tw = TimeWeighted::new();
        tw.set(0.0, 0.0);
        tw.set(100.0, 2.0);
        tw.set(100.2, 0.0);
        let m = tw.mean_until(1000.0).unwrap();
        assert!((m - 0.0004).abs() < 1e-9, "mean occupancy {m}");
    }
}

//! Timestamped sample recording.
//!
//! The paper's Figures 2–4 plot per-CP probe *frequency* (1/δ) against
//! simulated time, and Figure 5 plots device load and population size over a
//! 30-minute window. [`TimeSeries`] is the recorder behind all of those: the
//! simulation pushes `(t, value)` pairs and the experiment harness reads the
//! samples back (the lab's per-window views are [`crate::window_slice`] and
//! friends). [`TimeWeighted`] is the O(1)-memory time-weighted mean.

/// One timestamped observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Time of the observation, in seconds.
    pub t: f64,
    /// Observed value.
    pub value: f64,
}

/// An append-only time series with monotonically non-decreasing timestamps.
#[derive(Debug, Clone, Default, PartialEq)]
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
}

/// Tracks the time-weighted average of a piecewise-constant signal online,
/// without storing samples.
///
/// The paper reports "the average buffer length is very small (≈ 0.004)";
/// that is a time-weighted average of the buffer-occupancy step signal, and
/// this accumulator computes exactly that in O(1) memory.
#[derive(Debug, Clone, Copy, PartialEq)]
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn time_weighted_accumulator_matches_series() {
        let mut tw = TimeWeighted::new();
        let steps = [(0.0, 2.0), (1.0, 4.0), (4.0, 0.0), (6.0, 1.0)];
        for &(t, v) in &steps {
            tw.set(t, v);
        }
        // Each step's value, weighted by how long it held, over [0, 10).
        let ends = [1.0, 4.0, 6.0, 10.0];
        let a = steps
            .iter()
            .zip(ends)
            .map(|(&(t, v), end)| v * (end - t))
            .sum::<f64>()
            / 10.0;
        let b = tw.mean_until(10.0).unwrap();
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        assert_eq!(tw.max(), 4.0);
        assert_eq!(tw.last_v, 1.0);
    }

    #[test]
    fn time_weighted_empty() {
        let tw = TimeWeighted::new();
        assert!(tw.mean_until(10.0).is_none());
        assert!(!tw.started);
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

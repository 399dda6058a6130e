//! Fixed-width histograms with a mode count.
//!
//! Used by the experiment harness to summarise per-CP probe-delay
//! distributions — the paper's §3 finding is precisely that this
//! distribution is *bimodal* under SAPP (most CPs near δ_max = 10 s, a few
//! near 0.4 s), which a histogram makes directly visible.

/// A histogram over a fixed range with uniform bin width.
///
/// Samples outside the range (non-finite ones included) are not binned.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    low: f64,
    high: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram over `[low, high)` with `bins` uniform bins.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`, the bounds are not finite, or `bins == 0`.
    #[must_use]
    pub fn new(low: f64, high: f64, bins: usize) -> Self {
        assert!(low.is_finite() && high.is_finite(), "bounds must be finite");
        assert!(low < high, "low must be below high");
        assert!(bins > 0, "need at least one bin");
        Self {
            low,
            high,
            counts: vec![0; bins],
        }
    }

    /// Adds one sample. A sample outside `[low, high]` is dropped; the top
    /// edge itself is counted in the last bin.
    pub fn record(&mut self, x: f64) {
        // NaN fails both comparisons, so it is dropped too.
        if !(x >= self.low && x <= self.high) {
            return;
        }
        let width = (self.high - self.low) / self.counts.len() as f64;
        let idx = (((x - self.low) / width) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Adds every sample from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }

    /// Counts the local maxima ("modes") of the bin counts after collapsing
    /// zero bins; a crude but effective bimodality detector used by the E1
    /// experiment to assert the paper's "two populations of CPs" finding.
    #[must_use]
    pub fn mode_count(&self) -> usize {
        // Collapse to nonzero runs: a mode is a run of nonzero bins separated
        // from other runs by zeros, or a strict local maximum within a run.
        let mut peaks = 0;
        let mut prev: Option<u64> = None;
        let mut rising = true;
        for &c in &self.counts {
            match prev {
                None => {
                    if c > 0 {
                        rising = true;
                    }
                }
                Some(p) => {
                    if c > p {
                        rising = true;
                    } else if c < p {
                        if rising && p > 0 {
                            peaks += 1;
                        }
                        rising = false;
                    }
                }
            }
            prev = Some(c);
        }
        if rising && prev.unwrap_or(0) > 0 {
            peaks += 1;
        }
        peaks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.extend([0.5, 1.5, 1.6, 9.9]);
        assert_eq!(h.counts, [1, 2, 0, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn top_edge_goes_to_last_bin() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(10.0);
        assert_eq!(h.counts, [0, 0, 0, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.extend([-0.1, 1.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.5]);
        assert_eq!(h.counts, [0, 0, 1, 0], "only the in-range sample is binned");
    }

    #[test]
    #[should_panic(expected = "low must be below high")]
    fn rejects_inverted_range() {
        let _ = Histogram::new(1.0, 0.0, 4);
    }

    #[test]
    fn bimodality_detection() {
        let mut h = Histogram::new(0.0, 10.0, 20);
        // Cluster near 0.4 and cluster near 9.5 — the paper's SAPP shape.
        for _ in 0..10 {
            h.record(0.4);
            h.record(9.5);
        }
        assert_eq!(h.mode_count(), 2);

        let mut uni = Histogram::new(0.0, 10.0, 20);
        for _ in 0..10 {
            uni.record(5.0);
        }
        assert_eq!(uni.mode_count(), 1);
    }

    #[test]
    fn mode_count_empty_is_zero() {
        let h = Histogram::new(0.0, 1.0, 5);
        assert_eq!(h.mode_count(), 0);
    }
}

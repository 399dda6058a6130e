//! Fixed-width histograms with quantile queries.
//!
//! Used by the experiment harness to summarise per-CP probe-delay
//! distributions — the paper's §3 finding is precisely that this
//! distribution is *bimodal* under SAPP (most CPs near δ_max = 10 s, a few
//! near 0.4 s), which a histogram makes directly visible.

use serde::{Deserialize, Serialize};

/// One bin of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistogramBin {
    /// Inclusive lower edge.
    pub low: f64,
    /// Exclusive upper edge (inclusive for the last bin).
    pub high: f64,
    /// Number of samples that fell in `[low, high)`.
    pub count: u64,
}

/// A histogram over a fixed range with uniform bin width.
///
/// Samples below the range go to an underflow counter, samples above to an
/// overflow counter; both are reported separately so no data is silently
/// lost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    low: f64,
    high: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total_in_range: u64,
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
            underflow: 0,
            overflow: 0,
            total_in_range: 0,
        }
    }

    /// Adds one sample. Non-finite samples count as overflow (they are
    /// certainly not in range and must not vanish silently).
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            self.overflow += 1;
            return;
        }
        if x < self.low {
            self.underflow += 1;
            return;
        }
        if x > self.high || (x == self.high && self.high != self.low) {
            // The top edge itself is counted in the last bin.
            if x == self.high {
                *self.counts.last_mut().expect("bins > 0") += 1;
                self.total_in_range += 1;
            } else {
                self.overflow += 1;
            }
            return;
        }
        let width = (self.high - self.low) / self.counts.len() as f64;
        let idx = (((x - self.low) / width) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total_in_range += 1;
    }

    /// Adds every sample from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }

    /// Width of each bin.
    fn bin_width(&self) -> f64 {
        (self.high - self.low) / self.counts.len() as f64
    }

    /// Samples that fell above the range (including non-finite ones).
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Samples inside the range.
    #[must_use]
    pub fn in_range(&self) -> u64 {
        self.total_in_range
    }

    /// Total samples recorded, in and out of range.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total_in_range + self.underflow + self.overflow
    }

    /// Iterates over the bins in ascending order.
    pub fn bins(&self) -> impl Iterator<Item = HistogramBin> + '_ {
        let width = self.bin_width();
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &count)| HistogramBin {
                low: self.low + i as f64 * width,
                high: self.low + (i + 1) as f64 * width,
                count,
            })
    }

    /// Approximate quantile (linear interpolation inside the containing
    /// bin) over the in-range samples. `q` must be in `[0, 1]`.
    ///
    /// Returns `None` when no sample is in range.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.total_in_range == 0 {
            return None;
        }
        let target = q * self.total_in_range as f64;
        let mut acc = 0.0;
        let width = self.bin_width();
        for (i, &c) in self.counts.iter().enumerate() {
            let next = acc + c as f64;
            if next >= target && c > 0 {
                let frac = if c == 0 {
                    0.0
                } else {
                    (target - acc) / c as f64
                };
                return Some(self.low + (i as f64 + frac.clamp(0.0, 1.0)) * width);
            }
            acc = next;
        }
        Some(self.high)
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
        let bins: Vec<_> = h.bins().collect();
        assert_eq!(bins[0].count, 1);
        assert_eq!(bins[1].count, 2);
        assert_eq!(bins[9].count, 1);
        assert_eq!(h.in_range(), 4);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn top_edge_goes_to_last_bin() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(10.0);
        assert_eq!(h.in_range(), 1);
        assert_eq!(h.bins().last().unwrap().count, 1);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.extend([-0.1, 1.1, f64::NAN, f64::INFINITY, 0.5]);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow(), 3);
        assert_eq!(h.in_range(), 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    #[should_panic(expected = "low must be below high")]
    fn rejects_inverted_range() {
        let _ = Histogram::new(1.0, 0.0, 4);
    }

    #[test]
    fn quantiles_uniform() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((median - 50.0).abs() <= 1.0, "median {median}");
        let p90 = h.quantile(0.9).unwrap();
        assert!((p90 - 90.0).abs() <= 1.0, "p90 {p90}");
        assert_eq!(h.quantile(0.0).unwrap(), 0.0);
    }

    #[test]
    fn quantile_empty_is_none() {
        let h = Histogram::new(0.0, 1.0, 10);
        assert!(h.quantile(0.5).is_none());
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

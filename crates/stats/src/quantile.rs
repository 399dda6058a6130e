//! Constant-memory online quantile estimation (the P² algorithm).
//!
//! Long transient runs (20 000 simulated seconds, millions of probe cycles)
//! would be expensive to summarise by storing every sample. P² (Jain &
//! Chlamtac, 1985) tracks a single quantile with five markers and O(1)
//! update cost, which is plenty for the harness's p50/p95/p99 summaries.

/// Online estimator of a single quantile using the P² algorithm.
///
/// # Examples
///
/// ```
/// use presence_stats::P2Quantile;
///
/// let mut p95 = P2Quantile::new(0.95);
/// for i in 1..=1000 {
///     p95.push(i as f64);
/// }
/// let est = p95.estimate().unwrap();
/// assert!((est - 950.0).abs() < 15.0);
/// ```
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights.
    heights: [f64; 5],
    /// Marker positions (1-based as in the original paper).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    /// Number of samples seen; below 5 we buffer into `heights` directly.
    count: usize,
}

impl P2Quantile {
    /// Creates an estimator for quantile `q ∈ (0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not strictly between 0 and 1.
    #[must_use]
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1), got {q}");
        Self {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// Number of samples pushed.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Adds one observation. Non-finite samples are ignored.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.count < 5 {
            self.heights[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            }
            return;
        }
        self.count += 1;

        // Find the cell k such that heights[k] <= x < heights[k+1].
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }

        // Adjust the interior markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = &self.heights;
        let n = &self.positions;
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let q = &self.heights;
        let n = &self.positions;
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        q[i] + d * (q[j] - q[i]) / (n[j] - n[i])
    }

    /// Current estimate; `None` before any sample has been seen.
    ///
    /// With fewer than five samples the estimate falls back to the exact
    /// order statistic of the buffered samples.
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n @ 1..=4 => {
                let mut buf: Vec<f64> = self.heights[..n].to_vec();
                buf.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                let idx = ((self.q * n as f64).ceil() as usize).clamp(1, n) - 1;
                Some(buf[idx])
            }
            _ => Some(self.heights[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift for reproducible pseudo-random streams.
    fn xorshift_stream(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed.max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn empty_estimate_is_none() {
        let p = P2Quantile::new(0.5);
        assert!(p.estimate().is_none());
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn rejects_invalid_quantile() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    fn small_counts_use_exact_order_statistics() {
        let mut p = P2Quantile::new(0.5);
        p.push(3.0);
        assert_eq!(p.estimate(), Some(3.0));
        p.push(1.0);
        p.push(2.0);
        // Median of {1,2,3} = 2.
        assert_eq!(p.estimate(), Some(2.0));
    }

    #[test]
    fn median_of_uniform() {
        let mut p = P2Quantile::new(0.5);
        for x in xorshift_stream(42, 50_000) {
            p.push(x);
        }
        let est = p.estimate().unwrap();
        assert!((est - 0.5).abs() < 0.02, "median estimate {est}");
    }

    #[test]
    fn p99_of_uniform() {
        let mut p = P2Quantile::new(0.99);
        for x in xorshift_stream(7, 100_000) {
            p.push(x);
        }
        let est = p.estimate().unwrap();
        assert!((est - 0.99).abs() < 0.02, "p99 estimate {est}");
    }

    #[test]
    fn monotone_stream() {
        let mut p = P2Quantile::new(0.9);
        for i in 0..10_000 {
            p.push(i as f64);
        }
        let est = p.estimate().unwrap();
        assert!((est - 9_000.0).abs() < 200.0, "p90 estimate {est}");
    }

    #[test]
    fn ignores_non_finite() {
        let mut p = P2Quantile::new(0.5);
        for x in [1.0, f64::NAN, 2.0, f64::NEG_INFINITY, 3.0] {
            p.push(x);
        }
        assert_eq!(p.count(), 3);
    }

    #[test]
    fn bimodal_median_sits_between_modes() {
        let mut p = P2Quantile::new(0.5);
        for i in 0..20_000 {
            p.push(if i % 2 == 0 { 0.4 } else { 10.0 });
        }
        let est = p.estimate().unwrap();
        assert!(est > 0.3 && est < 10.1, "bimodal median {est}");
    }
}

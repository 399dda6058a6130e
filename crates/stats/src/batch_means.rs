//! Steady-state estimation with the batch-means technique.
//!
//! This mirrors the methodology in §3 of the paper: the MÖBIUS steady-state
//! solver collects a stream of observations, discards an initial warm-up
//! transient, groups the remainder into batches, and treats the batch means
//! as (approximately) i.i.d. normal samples to build a Student-t confidence
//! interval. Simulation stops when the interval's relative half-width drops
//! below a target (the paper uses 0.1 at level 0.95).

use crate::ci::ConfidenceInterval;
use crate::welford::Welford;

/// Configuration for a [`BatchMeans`] estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchMeansConfig {
    /// Number of initial observations discarded as warm-up transient.
    pub warmup: u64,
    /// Observations per batch.
    pub batch_size: u64,
    /// Minimum number of completed batches before a verdict is attempted.
    /// Must be at least 2 (a t interval needs two batch means); 10–30 is
    /// typical.
    pub min_batches: u64,
    /// Confidence level for the interval, e.g. `0.95`.
    pub level: f64,
    /// Target relative half-width, e.g. `0.1` (the paper's setting).
    pub target_relative_half_width: f64,
}

impl Default for BatchMeansConfig {
    fn default() -> Self {
        // The paper's settings: CI 0.1 at 0.95.
        Self {
            warmup: 1_000,
            batch_size: 1_000,
            min_batches: 20,
            level: 0.95,
            target_relative_half_width: 0.1,
        }
    }
}

impl BatchMeansConfig {
    /// Validates the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if self.min_batches < 2 {
            return Err("min_batches must be at least 2".into());
        }
        if !(self.level > 0.0 && self.level < 1.0) {
            return Err(format!("level must be in (0, 1), got {}", self.level));
        }
        if self.target_relative_half_width <= 0.0 || self.target_relative_half_width.is_nan() {
            return Err("target_relative_half_width must be positive".into());
        }
        Ok(())
    }
}

/// The estimator's answer to "have we simulated long enough?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteadyStateVerdict {
    /// Still inside the warm-up transient.
    WarmingUp,
    /// Past warm-up but fewer than `min_batches` complete batches.
    Collecting,
    /// Enough batches, but the interval is still wider than the target.
    NotConverged,
    /// The relative half-width target has been met.
    Converged,
}

/// Online batch-means steady-state estimator.
///
/// # Examples
///
/// ```
/// use presence_stats::{BatchMeans, BatchMeansConfig, SteadyStateVerdict};
///
/// let cfg = BatchMeansConfig {
///     warmup: 100,
///     batch_size: 50,
///     min_batches: 10,
///     level: 0.95,
///     target_relative_half_width: 0.1,
/// };
/// let mut bm = BatchMeans::new(cfg).unwrap();
/// let mut x = 0.6f64;
/// for i in 0..20_000 {
///     // A noisy but stationary sequence.
///     x = 0.9 * x + 0.1 * (0.5 + 0.4 * ((i * 2654435761u64 % 1000) as f64 / 1000.0 - 0.5));
///     bm.push(x);
///     if bm.verdict() == SteadyStateVerdict::Converged {
///         break;
///     }
/// }
/// let ci = bm.interval();
/// assert!(ci.contains(bm.mean()));
/// ```
#[derive(Debug, Clone)]
pub struct BatchMeans {
    cfg: BatchMeansConfig,
    seen: u64,
    current_batch: Welford,
    batch_means: Welford,
    all_post_warmup: Welford,
}

impl BatchMeans {
    /// Creates an estimator; rejects invalid configurations.
    pub fn new(cfg: BatchMeansConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            seen: 0,
            current_batch: Welford::new(),
            batch_means: Welford::new(),
            all_post_warmup: Welford::new(),
        })
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.seen <= self.cfg.warmup {
            return;
        }
        self.all_post_warmup.push(x);
        self.current_batch.push(x);
        if self.current_batch.count() >= self.cfg.batch_size {
            let m = self.current_batch.mean();
            self.batch_means.push(m);
            self.current_batch = Welford::new();
        }
    }

    /// Number of completed batches.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.batch_means.count()
    }

    /// Grand mean over all completed batches (`NaN` if none).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.batch_means.mean()
    }

    /// Variance of the underlying post-warm-up observations (not of the
    /// batch means). This is the quantity the paper reports as, e.g., "the
    /// variance [of the device load is] 20.0".
    #[must_use]
    pub fn observation_variance(&self) -> f64 {
        self.all_post_warmup.sample_variance()
    }

    /// Current confidence interval over the batch means.
    #[must_use]
    pub fn interval(&self) -> ConfidenceInterval {
        ConfidenceInterval::from_stats(
            self.batch_means.mean(),
            self.batch_means.sample_std_dev(),
            self.batch_means.count(),
            self.cfg.level,
        )
    }

    /// Current stopping-rule verdict.
    #[must_use]
    pub fn verdict(&self) -> SteadyStateVerdict {
        if self.seen <= self.cfg.warmup {
            return SteadyStateVerdict::WarmingUp;
        }
        if self.batch_means.count() < self.cfg.min_batches {
            return SteadyStateVerdict::Collecting;
        }
        if self.interval().relative_half_width() <= self.cfg.target_relative_half_width {
            SteadyStateVerdict::Converged
        } else {
            SteadyStateVerdict::NotConverged
        }
    }

    /// Convenience: `verdict() == Converged`.
    #[must_use]
    pub fn is_converged(&self) -> bool {
        self.verdict() == SteadyStateVerdict::Converged
    }

    /// The configuration this estimator was built with.
    #[must_use]
    pub fn config(&self) -> &BatchMeansConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(warmup: u64, batch: u64, min_batches: u64) -> BatchMeansConfig {
        BatchMeansConfig {
            warmup,
            batch_size: batch,
            min_batches,
            level: 0.95,
            target_relative_half_width: 0.1,
        }
    }

    #[test]
    fn rejects_bad_config() {
        assert!(BatchMeans::new(cfg(0, 0, 10)).is_err());
        assert!(BatchMeans::new(cfg(0, 10, 1)).is_err());
        let mut c = cfg(0, 10, 10);
        c.level = 1.5;
        assert!(BatchMeans::new(c).is_err());
        let mut c = cfg(0, 10, 10);
        c.target_relative_half_width = 0.0;
        assert!(BatchMeans::new(c).is_err());
    }

    #[test]
    fn warmup_is_discarded() {
        let mut bm = BatchMeans::new(cfg(10, 5, 2)).unwrap();
        // Warm-up samples are wildly different from the steady phase.
        for _ in 0..10 {
            bm.push(1_000_000.0);
        }
        assert_eq!(bm.verdict(), SteadyStateVerdict::WarmingUp);
        for _ in 0..100 {
            bm.push(5.0);
        }
        assert!((bm.mean() - 5.0).abs() < 1e-12);
        assert_eq!(bm.batches(), 20);
    }

    #[test]
    fn batching_boundaries_exact() {
        let mut bm = BatchMeans::new(cfg(0, 4, 2)).unwrap();
        for i in 0..12 {
            bm.push(i as f64);
        }
        // Batches [0..=3], [4..=7], [8..=11]: means 1.5, 5.5 and 9.5.
        assert_eq!(bm.batches(), 3);
        assert_eq!(bm.batch_means.min(), 1.5);
        assert_eq!(bm.batch_means.max(), 9.5);
        assert_eq!(bm.mean(), 5.5);
    }

    #[test]
    fn constant_stream_converges() {
        let mut bm = BatchMeans::new(cfg(5, 10, 5)).unwrap();
        for _ in 0..100 {
            bm.push(7.0);
        }
        assert_eq!(bm.verdict(), SteadyStateVerdict::Converged);
        let ci = bm.interval();
        assert!((ci.mean - 7.0).abs() < 1e-12);
        // Zero variance → zero half-width.
        assert!(ci.half_width.abs() < 1e-12);
    }

    #[test]
    fn collecting_before_min_batches() {
        let mut bm = BatchMeans::new(cfg(0, 10, 5)).unwrap();
        for _ in 0..25 {
            bm.push(1.0);
        }
        assert_eq!(bm.batches(), 2);
        assert_eq!(bm.verdict(), SteadyStateVerdict::Collecting);
    }

    #[test]
    fn noisy_stream_eventually_converges() {
        let mut bm = BatchMeans::new(cfg(100, 100, 10)).unwrap();
        // Deterministic pseudo-noise around 10.0.
        let mut state: u64 = 0x9e3779b97f4a7c15;
        let mut n = 0u64;
        while !bm.is_converged() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            bm.push(10.0 + (u - 0.5) * 4.0);
            n += 1;
            assert!(n < 1_000_000, "did not converge");
        }
        let ci = bm.interval();
        assert!(ci.contains(10.0), "interval {:?} should contain 10", ci);
        assert!(ci.relative_half_width() <= 0.1);
    }

    #[test]
    fn observation_variance_matches_direct() {
        let mut bm = BatchMeans::new(cfg(0, 5, 2)).unwrap();
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        for &x in &xs {
            bm.push(x);
        }
        let mean = 5.5;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 9.0;
        assert!((bm.observation_variance() - var).abs() < 1e-12);
    }

    #[test]
    fn partial_batch_not_counted() {
        let mut bm = BatchMeans::new(cfg(0, 10, 2)).unwrap();
        for _ in 0..19 {
            bm.push(1.0);
        }
        assert_eq!(bm.batches(), 1);
        bm.push(1.0);
        assert_eq!(bm.batches(), 2);
    }
}

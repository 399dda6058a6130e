//! Network delay models.
//!
//! The paper models one-way network delay as "a uniform probabilistic choice
//! between three modes of operation: a slow, a medium and a fast mode", and
//! notes that "we have experimented with several other types of networks,
//! and obtained similar phenomena for all of them". We therefore make the
//! delay model a trait with the paper's [`ThreeMode`] model as the default
//! and two alternatives for sensitivity studies: [`ConstantDelay`] and
//! [`UniformDelay`].

use presence_des::{SimDuration, StreamRng};

/// Samples a one-way network delay for each transmitted message.
///
/// A model is stationary: it reads no clock. A regime that changes during
/// a run replaces the fabric's model at its instant
/// ([`crate::Fabric::set_delay`]).
pub trait DelayModel: std::fmt::Debug + Send {
    /// Draws the delay for one message.
    fn sample(&mut self, rng: &mut StreamRng) -> SimDuration;
}

/// A constant (deterministic) delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstantDelay(pub SimDuration);

impl DelayModel for ConstantDelay {
    fn sample(&mut self, _rng: &mut StreamRng) -> SimDuration {
        self.0
    }
}

/// Uniformly distributed delay over `[low, high]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformDelay {
    low: SimDuration,
    high: SimDuration,
}

impl UniformDelay {
    /// Creates a uniform delay over `[low, high]`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    #[must_use]
    pub fn new(low: SimDuration, high: SimDuration) -> Self {
        assert!(low <= high, "uniform delay bounds inverted");
        Self { low, high }
    }
}

impl DelayModel for UniformDelay {
    fn sample(&mut self, rng: &mut StreamRng) -> SimDuration {
        if self.low == self.high {
            return self.low;
        }
        let nanos = rng.uniform(
            self.low.as_nanos() as f64,
            self.high.as_nanos() as f64 + 1.0,
        );
        SimDuration::from_nanos((nanos as u64).min(self.high.as_nanos()))
    }
}

/// The paper's network model: each message independently experiences one of
/// three delays (slow / medium / fast), chosen uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreeMode {
    /// Delay in the slow mode (the largest of the three).
    pub slow: SimDuration,
    /// Delay in the medium mode.
    pub medium: SimDuration,
    /// Delay in the fast mode (the smallest of the three).
    pub fast: SimDuration,
}

impl ThreeMode {
    /// Creates a three-mode delay.
    ///
    /// # Panics
    ///
    /// Panics unless `fast ≤ medium ≤ slow`.
    #[must_use]
    pub fn new(slow: SimDuration, medium: SimDuration, fast: SimDuration) -> Self {
        assert!(
            fast <= medium && medium <= slow,
            "three-mode delays must satisfy fast <= medium <= slow"
        );
        Self { slow, medium, fast }
    }

    /// The delays consistent with the paper's timeout constants.
    ///
    /// The paper sets `TOF = 0.022 = 2·RTT_max + C_max` and
    /// `TOS = 0.021 = RTT_max + C_max`, which pins the maximal round-trip
    /// delay at 1 ms (one-way 0.5 ms) and the maximal device computation
    /// time at 20 ms. The slow mode is therefore 0.5 ms one way, with
    /// medium/fast at 0.3 ms and 0.1 ms.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(
            SimDuration::from_micros(500),
            SimDuration::from_micros(300),
            SimDuration::from_micros(100),
        )
    }
}

impl DelayModel for ThreeMode {
    fn sample(&mut self, rng: &mut StreamRng) -> SimDuration {
        match rng.index(3) {
            0 => self.slow,
            1 => self.medium,
            _ => self.fast,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StreamRng {
        StreamRng::new(0xfeed, 0)
    }

    #[test]
    fn constant_is_constant() {
        let mut m = ConstantDelay(SimDuration::from_millis(5));
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(m.sample(&mut r), SimDuration::from_millis(5));
        }
    }

    #[test]
    fn uniform_within_bounds() {
        let lo = SimDuration::from_micros(100);
        let hi = SimDuration::from_micros(500);
        let mut m = UniformDelay::new(lo, hi);
        let mut r = rng();
        for _ in 0..10_000 {
            let d = m.sample(&mut r);
            assert!(d >= lo && d <= hi, "sample {d} out of bounds");
        }
    }

    #[test]
    fn uniform_degenerate_point() {
        let d = SimDuration::from_micros(7);
        let mut m = UniformDelay::new(d, d);
        assert_eq!(m.sample(&mut rng()), d);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn uniform_rejects_inverted() {
        let _ = UniformDelay::new(SimDuration::from_micros(2), SimDuration::from_micros(1));
    }

    #[test]
    fn three_mode_hits_all_modes_uniformly() {
        let mut m = ThreeMode::paper_default();
        let mut r = rng();
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            let d = m.sample(&mut r);
            if d == m.slow {
                counts[0] += 1;
            } else if d == m.medium {
                counts[1] += 1;
            } else if d == m.fast {
                counts[2] += 1;
            } else {
                panic!("unexpected delay {d}");
            }
        }
        for &c in &counts {
            let frac = c as f64 / 30_000.0;
            assert!((frac - 1.0 / 3.0).abs() < 0.02, "mode fraction {frac}");
        }
    }

    #[test]
    fn three_mode_paper_default_matches_timeout_math() {
        let m = ThreeMode::paper_default();
        // RTT_max = 2 * one-way slow = 1 ms; TOF = 2*RTT + 20ms comp = 22ms.
        let rtt_max = m.slow + m.slow;
        assert_eq!(rtt_max, SimDuration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "fast <= medium <= slow")]
    fn three_mode_rejects_misordered() {
        let _ = ThreeMode::new(
            SimDuration::from_micros(1),
            SimDuration::from_micros(2),
            SimDuration::from_micros(3),
        );
    }
}

//! Packet-loss models.
//!
//! The paper's Figure 5 experiment assumes "packet losses are not
//! considered, i.e., every transmitted probe will eventually be answered",
//! and then conjectures (§5) that real losses — "which will occur in bursts
//! due to the limited capacity of devices" — would *spread the join spikes
//! over time*. Experiment E7 tests that conjecture, which requires both an
//! independent ([`BernoulliLoss`]) and a bursty ([`GilbertElliott`]) loss
//! model.

use presence_des::StreamRng;

/// Decides, per message, whether the network drops it.
///
/// A model is stationary: it reads no clock. A regime that changes during
/// a run replaces the fabric's model at its instant
/// ([`crate::Fabric::set_loss`]).
pub trait LossModel: std::fmt::Debug + Send {
    /// Returns `true` if the message should be dropped.
    fn should_drop(&mut self, rng: &mut StreamRng) -> bool;
}

/// The lossless network of the paper's baseline experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoLoss;

impl LossModel for NoLoss {
    fn should_drop(&mut self, _rng: &mut StreamRng) -> bool {
        false
    }
}

/// Independent (i.i.d.) loss with a fixed probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BernoulliLoss {
    p: f64,
}

impl BernoulliLoss {
    /// Creates a loss model dropping each message independently with
    /// probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1]`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        Self { p }
    }
}

impl LossModel for BernoulliLoss {
    fn should_drop(&mut self, rng: &mut StreamRng) -> bool {
        rng.bernoulli(self.p)
    }
}

/// Two-state Markov (Gilbert–Elliott) burst-loss model.
///
/// The channel alternates between a *good* state with low loss and a *bad*
/// state with high loss; state transitions happen per message. This is the
/// standard model for the bursty losses the paper expects from "the limited
/// capacity of devices".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// P(good → bad) per message.
    p_gb: f64,
    /// P(bad → good) per message.
    p_bg: f64,
    /// Loss probability while in the good state.
    loss_good: f64,
    /// Loss probability while in the bad state.
    loss_bad: f64,
    in_bad: bool,
}

impl GilbertElliott {
    /// Creates a Gilbert–Elliott channel starting in the good state.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    #[must_use]
    pub fn new(p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64) -> Self {
        for (name, p) in [
            ("p_gb", p_gb),
            ("p_bg", p_bg),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} out of range: {p}");
        }
        Self {
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
            in_bad: false,
        }
    }

    /// A moderately bursty channel with the given long-run average loss
    /// rate: bursts last ~20 messages, good periods scale to match.
    ///
    /// # Panics
    ///
    /// Panics if `avg_loss` is not in `(0, 0.5]`.
    #[must_use]
    pub fn bursty(avg_loss: f64) -> Self {
        assert!(
            avg_loss > 0.0 && avg_loss <= 0.5,
            "average loss must be in (0, 0.5]"
        );
        // In the bad state we lose 90% of messages; in good, 0.1%.
        // Stationary P(bad) = p_gb / (p_gb + p_bg). Solve for p_gb with
        // p_bg = 1/20 (mean burst length 20):
        //   avg = P(bad)*0.9 + P(good)*0.001
        let p_bg: f64 = 1.0 / 20.0;
        let want_p_bad = ((avg_loss - 0.001) / (0.9 - 0.001)).clamp(1e-6, 0.999);
        let p_gb = want_p_bad * p_bg / (1.0 - want_p_bad);
        Self::new(p_gb.min(1.0), p_bg, 0.001, 0.9)
    }
}

impl LossModel for GilbertElliott {
    fn should_drop(&mut self, rng: &mut StreamRng) -> bool {
        // Transition first, then sample loss in the new state.
        if self.in_bad {
            if rng.bernoulli(self.p_bg) {
                self.in_bad = false;
            }
        } else if rng.bernoulli(self.p_gb) {
            self.in_bad = true;
        }
        let p = if self.in_bad {
            self.loss_bad
        } else {
            self.loss_good
        };
        rng.bernoulli(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StreamRng {
        StreamRng::new(0xabcd, 1)
    }

    #[test]
    fn no_loss_never_drops() {
        let mut m = NoLoss;
        let mut r = rng();
        assert!((0..10_000).all(|_| !m.should_drop(&mut r)));
    }

    #[test]
    fn bernoulli_rate_matches() {
        let mut m = BernoulliLoss::new(0.2);
        let mut r = rng();
        let drops = (0..100_000).filter(|_| m.should_drop(&mut r)).count();
        let rate = drops as f64 / 100_000.0;
        assert!((rate - 0.2).abs() < 0.01, "drop rate {rate}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = rng();
        assert!(!BernoulliLoss::new(0.0).should_drop(&mut r));
        assert!(BernoulliLoss::new(1.0).should_drop(&mut r));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bernoulli_rejects_bad_probability() {
        let _ = BernoulliLoss::new(1.5);
    }

    #[test]
    fn gilbert_elliott_long_run_rate() {
        let mut m = GilbertElliott::bursty(0.1);
        let mut r = rng();
        let n = 500_000;
        let drops = (0..n).filter(|_| m.should_drop(&mut r)).count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.02, "long-run loss rate {rate}");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Compare the distribution of loss-run lengths against Bernoulli at
        // the same average rate: GE should produce much longer runs.
        fn max_run(mut m: impl LossModel, r: &mut StreamRng, n: usize) -> usize {
            let mut max = 0;
            let mut cur = 0;
            for _ in 0..n {
                if m.should_drop(r) {
                    cur += 1;
                    max = max.max(cur);
                } else {
                    cur = 0;
                }
            }
            max
        }
        let mut r1 = StreamRng::new(0x11, 0);
        let mut r2 = StreamRng::new(0x11, 1);
        let ge_run = max_run(GilbertElliott::bursty(0.05), &mut r1, 200_000);
        let be_run = max_run(BernoulliLoss::new(0.05), &mut r2, 200_000);
        assert!(
            ge_run > 2 * be_run,
            "GE max run {ge_run} should dwarf Bernoulli max run {be_run}"
        );
    }

    #[test]
    fn gilbert_elliott_visits_both_states() {
        let mut m = GilbertElliott::bursty(0.2);
        let mut r = rng();
        let mut saw_bad = false;
        let mut saw_good = false;
        for _ in 0..100_000 {
            let _ = m.should_drop(&mut r);
            if m.in_bad {
                saw_bad = true;
            } else {
                saw_good = true;
            }
        }
        assert!(saw_bad && saw_good);
    }

    #[test]
    #[should_panic(expected = "average loss")]
    fn bursty_rejects_extreme_rate() {
        let _ = GilbertElliott::bursty(0.9);
    }
}

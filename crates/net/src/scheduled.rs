//! Time-varying ("scheduled") network models.
//!
//! The paper's future-work section conjectures how the protocols behave
//! under conditions that *change during a run* — bursty losses arriving
//! mid-experiment, links that degrade and recover. [`Scheduled<M>`] turns
//! any stationary [`DelayModel`] or [`LossModel`] into a piecewise
//! schedule: a sorted list of `(start, model)` segments, where the segment
//! whose start is the latest one `≤ now` is active. Switching is exact at
//! the boundary: a message sent at precisely the boundary instant already
//! uses the new model.
//!
//! The wrapper adds **no RNG draws** of its own, so a degenerate
//! single-segment schedule is draw-for-draw identical to the bare model —
//! the property the scenario lab leans on to keep paper-faithful catalog
//! entries bit-identical to the hard-coded presets (pinned by
//! `tests/proptests.rs` and the sim-level golden suite).

use crate::delay::DelayModel;
use crate::loss::LossModel;
use presence_des::{SimDuration, SimTime, StreamRng};

/// A piecewise-stationary model: `segments[i].1` is active from
/// `segments[i].0` (inclusive) until the next segment's start (exclusive).
///
/// Queries must come with non-decreasing `now` values — exactly what a
/// discrete-event simulation produces. The active-segment cursor only
/// moves forward, so each send pays an O(1) boundary check, not a search.
#[derive(Debug)]
pub struct Scheduled<M> {
    segments: Vec<(SimTime, M)>,
    current: usize,
}

impl<M> Scheduled<M> {
    /// Builds a schedule from explicit segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, if the first segment does not start
    /// at t = 0 (there would be no model before it), or if starts are not
    /// strictly increasing.
    #[must_use]
    pub fn from_segments(segments: Vec<(SimTime, M)>) -> Self {
        assert!(!segments.is_empty(), "schedule needs at least one segment");
        assert_eq!(
            segments[0].0,
            SimTime::ZERO,
            "first segment must start at t = 0"
        );
        for pair in segments.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "segment starts must be strictly increasing"
            );
        }
        Self {
            segments,
            current: 0,
        }
    }

    fn advance(&mut self, now: SimTime) {
        while self.current + 1 < self.segments.len() && self.segments[self.current + 1].0 <= now {
            self.current += 1;
        }
    }

    fn active(&mut self, now: SimTime) -> &mut M {
        self.advance(now);
        &mut self.segments[self.current].1
    }
}

impl<M: DelayModel> DelayModel for Scheduled<M> {
    fn sample(&mut self, now: SimTime, rng: &mut StreamRng) -> SimDuration {
        self.active(now).sample(now, rng)
    }
}

impl<M: LossModel> LossModel for Scheduled<M> {
    fn should_drop(&mut self, now: SimTime, rng: &mut StreamRng) -> bool {
        self.active(now).should_drop(now, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::ConstantDelay;
    use crate::loss::{BernoulliLoss, NoLoss};

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn d(millis: u64) -> SimDuration {
        SimDuration::from_millis(millis)
    }

    fn rng() -> StreamRng {
        StreamRng::new(0x5c4ed, 0)
    }

    #[test]
    fn switches_exactly_at_the_boundary() {
        let mut m = Scheduled::from_segments(vec![
            (SimTime::ZERO, ConstantDelay(d(1))),
            (t(10.0), ConstantDelay(d(5))),
        ]);
        let mut r = rng();
        assert_eq!(m.sample(t(0.0), &mut r), d(1));
        assert_eq!(m.sample(t(9.999_999), &mut r), d(1), "just before");
        assert_eq!(m.sample(t(10.0), &mut r), d(5), "at the boundary");
        assert_eq!(m.sample(t(10.0), &mut r), d(5), "still at the boundary");
        assert_eq!(m.sample(t(500.0), &mut r), d(5), "long after");
    }

    #[test]
    fn walks_multiple_boundaries_in_one_step() {
        let mut m = Scheduled::from_segments(vec![
            (SimTime::ZERO, ConstantDelay(d(1))),
            (t(1.0), ConstantDelay(d(2))),
            (t(2.0), ConstantDelay(d(3))),
            (t(3.0), ConstantDelay(d(4))),
        ]);
        let mut r = rng();
        // A quiet network may not send for several regimes; the cursor
        // must catch up across all of them at once.
        assert_eq!(m.sample(t(2.5), &mut r), d(3));
        assert_eq!(m.sample(t(3.0), &mut r), d(4));
    }

    #[test]
    fn loss_schedule_switches() {
        let mut m = Scheduled::from_segments(vec![(SimTime::ZERO, NoLoss)]);
        // NoLoss → NoLoss keeps the type uniform; dyn-box heterogeneous
        // schedules are covered below.
        let mut r = rng();
        assert!(!m.should_drop(t(0.0), &mut r));

        let mut m: Scheduled<Box<dyn LossModel>> = Scheduled::from_segments(vec![
            (SimTime::ZERO, Box::new(NoLoss) as Box<dyn LossModel>),
            (t(5.0), Box::new(BernoulliLoss::new(1.0))),
        ]);
        assert!(!m.should_drop(t(4.9), &mut r));
        assert!(m.should_drop(t(5.0), &mut r), "certain loss after switch");
    }

    #[test]
    fn heterogeneous_boxed_delay_schedule() {
        let mut m: Scheduled<Box<dyn DelayModel>> = Scheduled::from_segments(vec![
            (
                SimTime::ZERO,
                Box::new(ConstantDelay(d(2))) as Box<dyn DelayModel>,
            ),
            (t(1.0), Box::new(crate::delay::ThreeMode::paper_default())),
        ]);
        let mut r = rng();
        assert_eq!(m.sample(t(0.5), &mut r), d(2));
        let after = m.sample(t(1.5), &mut r);
        assert!(after <= SimDuration::from_micros(500));
    }

    #[test]
    fn degenerate_schedule_matches_bare_model_draw_for_draw() {
        let mut bare = crate::delay::ThreeMode::paper_default();
        let mut scheduled = Scheduled::from_segments(vec![(
            SimTime::ZERO,
            crate::delay::ThreeMode::paper_default(),
        )]);
        let mut r1 = StreamRng::new(42, 7);
        let mut r2 = StreamRng::new(42, 7);
        for i in 0..10_000 {
            let now = t(f64::from(i) * 0.01);
            assert_eq!(bare.sample(now, &mut r1), scheduled.sample(now, &mut r2));
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_non_increasing_segments() {
        let _ = Scheduled::from_segments(vec![
            (SimTime::ZERO, NoLoss),
            (t(5.0), NoLoss),
            (t(5.0), NoLoss),
        ]);
    }

    #[test]
    #[should_panic(expected = "start at t = 0")]
    fn rejects_late_first_segment() {
        let _ = Scheduled::from_segments(vec![(t(1.0), NoLoss)]);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn rejects_empty_schedule() {
        let _ = Scheduled::from_segments(Vec::<(SimTime, NoLoss)>::new());
    }
}

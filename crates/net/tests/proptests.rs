//! Property-based tests for the network substrate.

use presence_des::{SimDuration, SimTime, StreamRng};
use presence_net::{
    BernoulliLoss, ConstantDelay, DelayModel, Fabric, GilbertElliott, LossModel, NoLoss,
    SendOutcome, ThreeMode, UniformDelay,
};
use proptest::prelude::*;

/// One kind per stationary delay model.
const DELAY_KINDS: u8 = 3;

fn any_delay() -> impl Strategy<Value = (u8, u64, u64)> {
    // (kind, a, b) with a <= b, in nanoseconds up to 10 ms.
    (0u8..DELAY_KINDS, 0u64..10_000_000, 0u64..10_000_000)
        .prop_map(|(k, a, b)| (k, a.min(b), a.max(b).max(1)))
}

fn build_delay(kind: u8, a: u64, b: u64) -> Box<dyn DelayModel> {
    match kind {
        0 => Box::new(ConstantDelay(SimDuration::from_nanos(a))),
        1 => Box::new(UniformDelay::new(
            SimDuration::from_nanos(a),
            SimDuration::from_nanos(b),
        )),
        _ => Box::new(ThreeMode::new(
            SimDuration::from_nanos(b),
            SimDuration::from_nanos(a / 2 + b / 2),
            SimDuration::from_nanos(a),
        )),
    }
}

proptest! {
    /// Every delay model stays under the maximum its parameters state:
    /// the constant itself, the upper bound of uniform and three-mode
    /// (its slow mode).
    #[test]
    fn delay_models_respect_max((kind, a, b) in any_delay(), seed in any::<u64>()) {
        let mut model = build_delay(kind, a, b);
        let max = SimDuration::from_nanos(if kind == 0 { a } else { b });
        let mut rng = StreamRng::new(seed, 0);
        for _ in 0..500 {
            let d = model.sample(&mut rng);
            prop_assert!(d <= max, "sample {d} above stated max {max}");
        }
    }

    /// Fabric conservation: offered = admitted + dropped, delivered never
    /// exceeds admitted, and in-flight is admitted − delivered.
    #[test]
    fn fabric_conserves_messages(
        capacity in 1usize..64,
        loss_p in 0.0..0.5f64,
        steps in prop::collection::vec(0u64..5_000_000, 1..300),
        seed in any::<u64>(),
    ) {
        let mut fabric = Fabric::new(
            capacity,
            Box::new(ConstantDelay(SimDuration::from_millis(1))),
            Box::new(BernoulliLoss::new(loss_p)),
        );
        let mut rng = StreamRng::new(seed, 1);
        let mut now = SimTime::ZERO;
        for &step in &steps {
            now += SimDuration::from_nanos(step);
            match fabric.send(now, &mut rng) {
                SendOutcome::Deliver(at) => prop_assert!(at > now),
                SendOutcome::DroppedLoss | SendOutcome::DroppedOverflow => {}
            }
            let s = fabric.stats_at(now);
            prop_assert_eq!(s.offered, s.admitted + s.dropped_loss + s.dropped_overflow);
            prop_assert!(s.delivered <= s.admitted);
            prop_assert_eq!(fabric.in_flight_at(now) as u64, s.admitted - s.delivered);
            prop_assert!(s.peak_in_flight <= capacity);
        }
        // Far enough in the future every deadline has settled.
        let end = now + SimDuration::from_secs(1);
        let s = fabric.stats_at(end);
        prop_assert_eq!(s.delivered, s.admitted);
        prop_assert_eq!(fabric.in_flight_at(end), 0);
    }

    /// The lazy-drain fabric is decision-for-decision identical to an
    /// eagerly-notified reference: same admit/overflow/loss verdicts, same
    /// delivery times, same peak, and a bit-identical occupancy integral,
    /// under random send/delivery interleavings (random inter-send gaps
    /// against a random constant delay make deliveries land arbitrarily
    /// between — and exactly on — send instants).
    #[test]
    fn lazy_fabric_matches_eager_reference(
        capacity in 1usize..8,
        delay_nanos in 1u64..2_000_000,
        loss_p in 0.0..0.3f64,
        steps in prop::collection::vec(0u64..3_000_000, 1..400),
        seed in any::<u64>(),
    ) {
        /// The pre-refactor fabric semantics, restated: the driver calls
        /// `on_delivered` for every deadline, eagerly, in time order, with
        /// deliveries settling before a send they tie with.
        struct EagerFabric {
            capacity: usize,
            in_flight: usize,
            delay: ConstantDelay,
            loss: BernoulliLoss,
            delivered: u64,
            peak: usize,
            occupancy: presence_stats::TimeWeighted,
            pending: std::collections::BinaryHeap<std::cmp::Reverse<SimTime>>,
        }
        impl EagerFabric {
            fn on_delivered(&mut self, at: SimTime) {
                self.in_flight -= 1;
                self.delivered += 1;
                self.occupancy.set(at.as_secs_f64(), self.in_flight as f64);
            }
            fn drain_due(&mut self, now: SimTime) {
                while let Some(&std::cmp::Reverse(at)) = self.pending.peek() {
                    if at > now { break; }
                    self.pending.pop();
                    self.on_delivered(at);
                }
            }
            fn send(&mut self, now: SimTime, rng: &mut StreamRng) -> SendOutcome {
                self.drain_due(now);
                if self.in_flight >= self.capacity {
                    return SendOutcome::DroppedOverflow;
                }
                if self.loss.should_drop(rng) {
                    return SendOutcome::DroppedLoss;
                }
                self.in_flight += 1;
                self.peak = self.peak.max(self.in_flight);
                self.occupancy.set(now.as_secs_f64(), self.in_flight as f64);
                let at = now + self.delay.sample(rng);
                self.pending.push(std::cmp::Reverse(at));
                SendOutcome::Deliver(at)
            }
        }

        let delay = SimDuration::from_nanos(delay_nanos);
        let mut lazy = Fabric::new(
            capacity,
            Box::new(ConstantDelay(delay)),
            Box::new(BernoulliLoss::new(loss_p)),
        );
        let mut eager = EagerFabric {
            capacity,
            in_flight: 0,
            delay: ConstantDelay(delay),
            loss: BernoulliLoss::new(loss_p),
            delivered: 0,
            peak: 0,
            occupancy: presence_stats::TimeWeighted::new(),
            pending: std::collections::BinaryHeap::new(),
        };
        // Identical RNG streams: if any decision diverges, the streams
        // desynchronise and the mismatch is caught on the spot.
        let mut rng_lazy = StreamRng::new(seed, 4);
        let mut rng_eager = rng_lazy.clone();

        let mut now = SimTime::ZERO;
        for &step in &steps {
            now += SimDuration::from_nanos(step);
            let a = lazy.send(now, &mut rng_lazy);
            let b = eager.send(now, &mut rng_eager);
            prop_assert_eq!(a, b, "send verdict diverged at {}", now);
            prop_assert_eq!(lazy.in_flight_at(now), eager.in_flight, "in-flight diverged");
        }
        let end = now + delay + SimDuration::from_secs(1);
        eager.drain_due(end);
        let s = lazy.stats_at(end);
        prop_assert_eq!(s.delivered, eager.delivered);
        prop_assert_eq!(s.peak_in_flight, eager.peak);
        prop_assert_eq!(lazy.in_flight_at(end), eager.in_flight);
        // The occupancy integral must be *bit*-identical, not just close:
        // both sides saw the same (t, value) step sequence.
        let lazy_mean = lazy.mean_occupancy(end).map(f64::to_bits);
        let eager_mean = eager.occupancy.mean_until(end.as_secs_f64()).map(f64::to_bits);
        prop_assert_eq!(lazy_mean, eager_mean);
    }

    /// The fabric never admits beyond capacity.
    #[test]
    fn fabric_capacity_is_hard(capacity in 1usize..32, extra in 1usize..32, seed in any::<u64>()) {
        let mut fabric = Fabric::new(
            capacity,
            Box::new(ConstantDelay(SimDuration::from_secs(1))),
            Box::new(NoLoss),
        );
        let mut rng = StreamRng::new(seed, 2);
        let mut admitted = 0;
        for _ in 0..capacity + extra {
            match fabric.send(SimTime::ZERO, &mut rng) {
                SendOutcome::Deliver(_) => admitted += 1,
                SendOutcome::DroppedOverflow => {}
                SendOutcome::DroppedLoss => unreachable!("no loss configured"),
            }
        }
        prop_assert_eq!(admitted, capacity);
        prop_assert_eq!(fabric.stats_at(SimTime::ZERO).dropped_overflow as usize, extra);
    }

    /// Gilbert–Elliott long-run loss rate lands near its target.
    #[test]
    fn gilbert_elliott_rate_targets(target in 0.02..0.4f64, seed in any::<u64>()) {
        let mut model = GilbertElliott::bursty(target);
        let mut rng = StreamRng::new(seed, 3);
        let n = 200_000;
        let drops = (0..n).filter(|_| model.should_drop(&mut rng)).count();
        let rate = drops as f64 / n as f64;
        prop_assert!(
            (rate - target).abs() < 0.05 + target * 0.3,
            "target {target}, measured {rate}"
        );
    }

    /// Gilbert–Elliott's empirical drop rate converges to the analytic
    /// stationary value `P(bad)·loss_bad + P(good)·loss_good` for
    /// arbitrary channel parameters, not just the `bursty` preset. The
    /// tolerance widens with burst length (longer bursts mix slower).
    #[test]
    fn gilbert_elliott_converges_to_stationary_rate(
        p_gb in 0.001..0.3f64,
        p_bg in 0.02..0.5f64,
        loss_good in 0.0..0.05f64,
        loss_bad in 0.5..1.0f64,
        seed in any::<u64>(),
    ) {
        let mut model = GilbertElliott::new(p_gb, p_bg, loss_good, loss_bad);
        let p_bad = p_gb / (p_gb + p_bg);
        let expected = p_bad * loss_bad + (1.0 - p_bad) * loss_good;
        let mut rng = StreamRng::new(seed, 5);
        let n = 400_000;
        let drops = (0..n).filter(|_| model.should_drop(&mut rng)).count();
        let rate = drops as f64 / n as f64;
        // Mixing time scales with 1/(p_gb + p_bg); the sampling error of
        // n draws with that correlation length is ~sqrt(T/n) in spirit.
        let tolerance = 0.01 + 0.6 / ((p_gb + p_bg) * (n as f64).sqrt());
        prop_assert!(
            (rate - expected).abs() < tolerance,
            "stationary {expected:.4}, measured {rate:.4}, tolerance {tolerance:.4}"
        );
    }
}

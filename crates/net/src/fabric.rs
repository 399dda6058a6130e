//! The network fabric: in-flight message accounting, delay and loss
//! application, and overflow behaviour.
//!
//! The paper models the network as a single process with a bounded buffer
//! (20 000 elements) through which all probes and replies travel. The
//! fabric reproduces that: each message admitted occupies one buffer slot
//! from send until delivery; a full buffer drops the message (a "buffer
//! overrun"); the loss model may also discard it. The fabric is clockless —
//! it *decides* when a message would arrive, and the caller (the simulation
//! glue or a test harness) performs the actual delivery.
//!
//! # Lazy delivery accounting
//!
//! The caller does **not** report deliveries back. Instead the fabric keeps
//! an internal min-heap of the delivery deadlines it has handed out and
//! settles every deadline `≤ now`, in time order, at the start of each
//! [`send`](Fabric::send) and each time-indexed query. This is what lets
//! the simulation glue schedule the delivery event directly on the
//! destination actor (one dispatch, no delivery callback hop) while the
//! buffer accounting stays exactly what an eagerly-notified fabric would
//! compute: deadlines are applied in the same time order, and a deadline
//! that ties with a `send` settles first — matching the engine's FIFO
//! order, where the delivery event (scheduled at admit time, hence with the
//! smaller sequence number) fires before a same-instant send. `in_flight`,
//! the overflow decisions, `peak_in_flight`, and the time-weighted
//! occupancy integral are therefore bit-identical to the eager version —
//! `tests/proptests.rs` pins that against a reference model.

use crate::delay::DelayModel;
use crate::loss::LossModel;
use presence_des::{SimTime, StreamRng};
use presence_stats::TimeWeighted;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Counters describing everything a fabric did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FabricStats {
    /// Messages offered to the fabric.
    pub offered: u64,
    /// Messages admitted and scheduled for delivery.
    pub admitted: u64,
    /// Messages dropped because the buffer was full.
    pub dropped_overflow: u64,
    /// Messages dropped by the loss model.
    pub dropped_loss: u64,
    /// Messages whose delivery deadline has passed.
    pub delivered: u64,
    /// Highest in-flight count observed.
    pub peak_in_flight: usize,
    /// Messages addressed to an unregistered destination. The fabric never
    /// sees those (they are refused before admission); the routing layer
    /// counts them here so misroutes cannot masquerade as network loss.
    pub unroutable: u64,
}

/// The fabric's verdict on one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The message is admitted and will be counted as delivered at the
    /// given time (the caller schedules the actual hand-off).
    Deliver(SimTime),
    /// The message was dropped by the loss model.
    DroppedLoss,
    /// The message was dropped because the buffer was full.
    DroppedOverflow,
}

/// A bounded, lossy, delaying message fabric.
pub struct Fabric {
    capacity: usize,
    in_flight: usize,
    delay: Box<dyn DelayModel>,
    loss: Box<dyn LossModel>,
    stats: FabricStats,
    occupancy: TimeWeighted,
    /// Delivery deadlines handed out but not yet settled, drained in time
    /// order by [`Fabric::settle`]. Equal deadlines commute (each settles
    /// one anonymous slot), so the heap's tie order is immaterial.
    pending: BinaryHeap<Reverse<SimTime>>,
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("capacity", &self.capacity)
            .field("in_flight", &self.in_flight)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Fabric {
    /// Creates a fabric with the given buffer capacity, delay model, and
    /// loss model.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize, delay: Box<dyn DelayModel>, loss: Box<dyn LossModel>) -> Self {
        assert!(capacity > 0, "fabric capacity must be positive");
        Self {
            capacity,
            in_flight: 0,
            delay,
            loss,
            stats: FabricStats::default(),
            occupancy: TimeWeighted::new(),
            pending: BinaryHeap::new(),
        }
    }

    /// The paper's configuration: 20 000-element buffer, three-mode delay,
    /// no loss.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(
            20_000,
            Box::new(crate::delay::ThreeMode::paper_default()),
            Box::new(crate::loss::NoLoss),
        )
    }

    /// Settles every pending delivery deadline `≤ now`, in time order:
    /// frees the buffer slot, counts the delivery, and extends the
    /// occupancy integral at the deadline's own timestamp.
    #[inline]
    pub fn settle(&mut self, now: SimTime) {
        while let Some(&Reverse(at)) = self.pending.peek() {
            if at > now {
                break;
            }
            self.pending.pop();
            debug_assert!(self.in_flight > 0, "deadline without in-flight message");
            self.in_flight -= 1;
            self.stats.delivered += 1;
            self.occupancy.set(at.as_secs_f64(), self.in_flight as f64);
        }
    }

    /// Offers a message to the fabric at time `now`. On
    /// [`SendOutcome::Deliver`], the fabric has already booked the returned
    /// delivery time; the caller's only job is to hand the message over at
    /// that instant.
    ///
    /// Deadlines `≤ now` settle first, so a delivery tying with this send
    /// frees its slot before the overflow check — the same order an eager
    /// engine would process the two events in.
    #[inline]
    pub fn send(&mut self, now: SimTime, rng: &mut StreamRng) -> SendOutcome {
        self.settle(now);
        self.stats.offered += 1;
        if self.in_flight >= self.capacity {
            self.stats.dropped_overflow += 1;
            return SendOutcome::DroppedOverflow;
        }
        if self.loss.should_drop(rng) {
            self.stats.dropped_loss += 1;
            return SendOutcome::DroppedLoss;
        }
        self.in_flight += 1;
        self.stats.admitted += 1;
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.in_flight);
        self.occupancy.set(now.as_secs_f64(), self.in_flight as f64);
        let at = now + self.delay.sample(rng);
        self.pending.push(Reverse(at));
        SendOutcome::Deliver(at)
    }

    /// Replaces the delay model for every later [`send`](Fabric::send).
    pub fn set_delay(&mut self, delay: Box<dyn DelayModel>) {
        self.delay = delay;
    }

    /// Replaces the loss model for every later [`send`](Fabric::send).
    pub fn set_loss(&mut self, loss: Box<dyn LossModel>) {
        self.loss = loss;
    }

    /// Records a message that could not be routed (no registered
    /// destination). Such messages never occupy a buffer slot.
    pub fn count_unroutable(&mut self) {
        self.stats.unroutable += 1;
    }

    /// Messages in flight at `now` (the paper's "buffer length").
    #[must_use]
    pub fn in_flight_at(&mut self, now: SimTime) -> usize {
        self.settle(now);
        self.in_flight
    }

    /// Lifetime counters as of `now` (deliveries due by `now` are settled
    /// first).
    #[must_use]
    pub fn stats_at(&mut self, now: SimTime) -> FabricStats {
        self.settle(now);
        self.stats
    }

    /// Time-weighted mean in-flight count up to `now` — the paper's
    /// "average buffer length" (≈ 0.004 in its steady-state study).
    #[must_use]
    pub fn mean_occupancy(&mut self, now: SimTime) -> Option<f64> {
        self.settle(now);
        self.occupancy.mean_until(now.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::ConstantDelay;
    use crate::loss::{BernoulliLoss, NoLoss};
    use presence_des::SimDuration;

    fn rng() -> StreamRng {
        StreamRng::new(0x5eed, 0)
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn delivers_with_delay() {
        let mut f = Fabric::new(
            10,
            Box::new(ConstantDelay(SimDuration::from_millis(5))),
            Box::new(NoLoss),
        );
        let mut r = rng();
        match f.send(t(1.0), &mut r) {
            SendOutcome::Deliver(at) => assert_eq!(at, t(1.005)),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(f.in_flight_at(t(1.004)), 1, "still in transit");
        assert_eq!(f.in_flight_at(t(1.005)), 0, "deadline settles lazily");
        assert_eq!(f.stats_at(t(1.005)).delivered, 1);
    }

    #[test]
    fn overflow_drops() {
        let mut f = Fabric::new(
            2,
            Box::new(ConstantDelay(SimDuration::from_secs(1))),
            Box::new(NoLoss),
        );
        let mut r = rng();
        assert!(matches!(f.send(t(0.0), &mut r), SendOutcome::Deliver(_)));
        assert!(matches!(f.send(t(0.0), &mut r), SendOutcome::Deliver(_)));
        assert_eq!(f.send(t(0.0), &mut r), SendOutcome::DroppedOverflow);
        assert_eq!(f.stats_at(t(0.0)).dropped_overflow, 1);
        // A send at exactly the delivery deadline settles the slot first.
        assert!(matches!(f.send(t(1.0), &mut r), SendOutcome::Deliver(_)));
    }

    #[test]
    fn loss_model_applies() {
        let mut f = Fabric::new(
            1_000_000,
            Box::new(ConstantDelay(SimDuration::from_millis(1))),
            Box::new(BernoulliLoss::new(0.5)),
        );
        let mut r = rng();
        let mut lost = 0;
        for i in 0..10_000 {
            match f.send(t(i as f64 * 0.01), &mut r) {
                SendOutcome::DroppedLoss => lost += 1,
                SendOutcome::Deliver(_) | SendOutcome::DroppedOverflow => {}
            }
        }
        let rate = lost as f64 / 10_000.0;
        assert!((rate - 0.5).abs() < 0.03, "loss rate {rate}");
        let s = f.stats_at(t(1_000.0));
        assert_eq!(s.delivered, s.admitted, "all deadlines passed");
    }

    #[test]
    fn occupancy_accounting() {
        let mut f = Fabric::new(
            10,
            Box::new(ConstantDelay(SimDuration::from_secs(1))),
            Box::new(NoLoss),
        );
        let mut r = rng();
        // One message in flight for 1s out of 100s → mean 0.01.
        assert!(matches!(f.send(t(0.0), &mut r), SendOutcome::Deliver(_)));
        let mean = f.mean_occupancy(t(100.0)).unwrap();
        assert!((mean - 0.01).abs() < 1e-9, "mean occupancy {mean}");
        assert_eq!(f.stats_at(t(100.0)).peak_in_flight, 1);
    }

    #[test]
    fn settle_is_idempotent_and_ordered() {
        let mut f = Fabric::new(
            10,
            Box::new(ConstantDelay(SimDuration::from_secs(1))),
            Box::new(NoLoss),
        );
        let mut r = rng();
        for i in 0..5 {
            assert!(matches!(
                f.send(t(f64::from(i) * 0.1), &mut r),
                SendOutcome::Deliver(_)
            ));
        }
        f.settle(t(1.15));
        f.settle(t(1.15));
        let s = f.stats_at(t(1.15));
        assert_eq!(s.delivered, 2, "deadlines at 1.0 and 1.1 settled once");
        assert_eq!(f.in_flight_at(t(1.15)), 3);
        assert_eq!(f.in_flight_at(t(2.0)), 0);
    }

    #[test]
    fn unroutable_counter() {
        let mut f = Fabric::paper_default();
        f.count_unroutable();
        let s = f.stats_at(t(0.0));
        assert_eq!(s.unroutable, 1);
        assert_eq!(s.offered, 0, "unroutable messages are never offered");
    }

    #[test]
    fn paper_default_shape() {
        let mut f = Fabric::paper_default();
        assert_eq!(f.capacity, 20_000);
        assert_eq!(f.in_flight_at(SimTime::ZERO), 0);
    }
}

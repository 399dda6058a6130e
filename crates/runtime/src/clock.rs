//! Wall-clock time mapped onto the protocol time axis.
//!
//! The sans-io machines in `presence-core` speak [`SimTime`] — nanoseconds
//! since an epoch. Under the simulator that epoch is virtual; here it is
//! the moment the runtime started. A trait keeps hosts testable with a
//! hand-cranked clock.

use presence_des::SimTime;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A source of protocol time.
pub trait Clock: Send + Sync {
    /// Nanoseconds since this runtime's epoch.
    fn now(&self) -> SimTime;

    /// How long, on the wall, until this clock reads `deadline` (zero once
    /// it has) — or `None` when the clock does not move with the wall
    /// (hand-cranked, stepped per read) and only polling can tell. The
    /// shard loop blocks an idle thread for this long; the default reads
    /// nothing, so a clock that leaves it alone is polled exactly as often
    /// as it always was.
    fn wall_until(&self, _deadline: SimTime) -> Option<Duration> {
        None
    }
}

/// The real wall clock, anchored at construction.
#[derive(Debug, Clone)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// Creates a clock whose epoch is *now*.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> SimTime {
        let elapsed = self.origin.elapsed();
        SimTime::from_nanos(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX))
    }

    fn wall_until(&self, deadline: SimTime) -> Option<Duration> {
        let left = deadline.saturating_since(self.now());
        Some(Duration::from_nanos(left.as_nanos()))
    }
}

/// A manually advanced clock for tests.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    now: Arc<Mutex<SimTime>>,
}

impl ManualClock {
    /// Creates a clock at `t = 0`.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the clock to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time.
    pub fn set(&self, t: SimTime) {
        let mut now = self.now.lock().expect("clock lock poisoned");
        assert!(t >= *now, "manual clock moved backwards");
        *now = t;
    }
}

impl Clock for ManualClock {
    fn now(&self) -> SimTime {
        *self.now.lock().expect("clock lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotone() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn only_the_system_clock_knows_the_wall_distance_to_a_deadline() {
        let c = SystemClock::new();
        assert_eq!(c.wall_until(SimTime::ZERO), Some(Duration::ZERO));
        let far = c.now() + presence_des::SimDuration::from_secs(60);
        let left = c.wall_until(far).expect("wall clock");
        assert!(left > Duration::from_secs(59) && left <= Duration::from_secs(60));
        assert!(c.wall_until(SimTime::MAX).expect("wall clock") > Duration::from_secs(60));
        assert_eq!(ManualClock::new().wall_until(far), None);
    }

    #[test]
    fn manual_clock_advances() {
        let c = ManualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.set(SimTime::from_secs_f64(1.5));
        assert_eq!(c.now(), SimTime::from_secs_f64(1.5));
        c.set(SimTime::from_secs_f64(2.0));
        assert_eq!(c.now(), SimTime::from_secs_f64(2.0));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn manual_clock_rejects_time_travel() {
        let c = ManualClock::new();
        c.set(SimTime::from_secs_f64(5.0));
        c.set(SimTime::from_secs_f64(1.0));
    }
}

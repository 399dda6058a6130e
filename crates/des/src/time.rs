//! Virtual time for the simulation engine.
//!
//! Time is a `u64` count of **nanoseconds** since simulation start. Using an
//! integer clock (instead of `f64` seconds) keeps the event queue free of
//! floating-point comparison hazards: two events scheduled at "the same"
//! instant compare equal exactly, and accumulation over the paper's
//! 20 000-simulated-second transient runs cannot drift.
//!
//! Conversions to `f64` seconds happen only at the statistics boundary.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Nanoseconds per second, the resolution of the virtual clock.
const NANOS_PER_SEC: u64 = 1_000_000_000;

/// A span of virtual time (non-negative).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Deserialize, Serialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        Self(nanos)
    }

    /// Creates a duration from whole microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        Self(micros * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        Self(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs * NANOS_PER_SEC)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be non-negative and finite, got {secs}"
        );
        let nanos = secs * NANOS_PER_SEC as f64;
        assert!(
            nanos <= u64::MAX as f64,
            "duration {secs}s overflows the virtual clock"
        );
        Self(nanos.round() as u64)
    }

    /// The duration in whole nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Scales the duration by a non-negative factor, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite factor.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be non-negative and finite"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.9}s", self.as_secs_f64())
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

/// An instant on the virtual clock (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch, `t = 0`.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole nanoseconds since the epoch.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        Self(nanos)
    }

    /// Creates an instant from fractional seconds since the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(SimDuration::from_secs_f64(secs).as_nanos())
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Time elapsed since `earlier`; [`SimDuration::ZERO`] if `earlier` is in
    /// the future (saturating, like `Instant::saturating_duration_since`).
    #[must_use]
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    const fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        match self.0.checked_add(d.as_nanos()) {
            Some(n) => Some(SimTime(n)),
            None => None,
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        self.checked_add(rhs).expect("virtual clock overflow")
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Exact elapsed time; panics if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("subtracting a later SimTime from an earlier one"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_seconds() {
        for &s in &[0.0, 0.021, 0.022, 1.0, 2.5, 20_000.0] {
            let t = SimTime::from_secs_f64(s);
            assert!((t.as_secs_f64() - s).abs() < 1e-9, "round-trip of {s}");
        }
    }

    #[test]
    fn nanosecond_resolution_is_exact() {
        let t = SimTime::from_secs_f64(0.022);
        assert_eq!(t.as_nanos(), 22_000_000);
        let d = SimDuration::from_secs_f64(0.021);
        assert_eq!(d.as_nanos(), 21_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs_f64(1.0) + SimDuration::from_secs_f64(0.5);
        assert_eq!(t, SimTime::from_secs_f64(1.5));
        let d = SimTime::from_secs_f64(3.0) - SimTime::from_secs_f64(1.0);
        assert_eq!(d, SimDuration::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "later SimTime")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_secs_f64(1.0) - SimTime::from_secs_f64(2.0);
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_secs_f64(1.0);
        let b = SimTime::from_secs_f64(2.0);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_rejected() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_duration_rejected() {
        let _ = SimDuration::from_secs_f64(f64::NAN);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs_f64(1.0) < SimTime::from_secs_f64(1.000000001));
        assert_eq!(SimTime::ZERO.min(SimTime::MAX), SimTime::ZERO);
        assert_eq!(SimTime::ZERO.max(SimTime::MAX), SimTime::MAX);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(10).mul_f64(0.5);
        assert_eq!(d, SimDuration::from_secs(5));
        assert_eq!(SimDuration::from_secs(1).mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_secs_f64(1.5)), "t=1.500000s");
        assert_eq!(format!("{}", SimDuration::from_millis(22)), "0.022000000s");
    }

    #[test]
    fn checked_add_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
    }
}

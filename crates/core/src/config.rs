//! Protocol configuration with validation.
//!
//! All constants carry the values used in the paper's simulation studies as
//! `paper_default()` constructors, so every experiment in `presence-bench`
//! is traceable to §3/§5 of the paper.

use crate::error::ConfigError;
use presence_des::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Timing of the bounded-retransmission probe cycle (Fig. 1).
///
/// A cycle starts with a probe; if no reply arrives within `tof`, the probe
/// is retransmitted up to `max_retransmissions` times with timeout `tos`
/// each. A cycle with no reply at all declares the device absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize, Serialize)]
pub struct ProbeCycleConfig {
    /// Timeout after the first probe (`TOF`). The paper: 2·RTT_max + C_max.
    pub tof: SimDuration,
    /// Timeout after each retransmission (`TOS`), typically < `tof`.
    pub tos: SimDuration,
    /// Maximum number of retransmissions (the paper: 3, i.e. 4 probes).
    pub max_retransmissions: u32,
}

impl ProbeCycleConfig {
    /// The paper's values: `TOF = 0.022 s`, `TOS = 0.021 s`, 3 retries.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            tof: SimDuration::from_millis(22),
            tos: SimDuration::from_millis(21),
            max_retransmissions: 3,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tof == SimDuration::ZERO {
            return Err(ConfigError::new("tof must be positive"));
        }
        if self.tos == SimDuration::ZERO {
            return Err(ConfigError::new("tos must be positive"));
        }
        if self.tos > self.tof {
            return Err(ConfigError::new(
                "tos should not exceed tof (the paper assumes TOS < TOF)",
            ));
        }
        Ok(())
    }

    /// Fig. 1's bounded retransmission: after `transmissions` unanswered
    /// transmissions of one cycle, the timeout to arm with the next one
    /// (`TOS`), or `None` once all `1 + max_retransmissions` are spent and
    /// the cycle fails.
    #[inline]
    #[must_use]
    pub fn retry(&self, transmissions: u32) -> Option<SimDuration> {
        (transmissions <= self.max_retransmissions).then_some(self.tos)
    }

    /// Worst-case time from the first probe transmission to the absence
    /// verdict: `tof + max_retransmissions · tos`.
    #[must_use]
    pub fn worst_case_detection(&self) -> SimDuration {
        let mut d = self.tof;
        for _ in 0..self.max_retransmissions {
            d = d + self.tos;
        }
        d
    }
}

/// Configuration of the self-adaptive probe protocol (SAPP, §2).
#[derive(Debug, Clone, Copy, PartialEq, Deserialize, Serialize)]
pub struct SappConfig {
    /// Probe-cycle timing.
    pub cycle: ProbeCycleConfig,
    /// Multiplicative delay increase factor `α_inc > 1`.
    pub alpha_inc: f64,
    /// Multiplicative delay decrease factor `α_dec > 1` (applied as `δ/α_dec`).
    pub alpha_dec: f64,
    /// Dead-band width `β > 1`: no adaptation while
    /// `L_ideal/β ≤ L_exp ≤ β·L_ideal`.
    pub beta: f64,
    /// The reference ideal probe load `L_ideal` (a large constant known to
    /// all nodes).
    pub l_ideal: f64,
    /// Minimal inter-probe-cycle delay `δ_min`.
    pub delta_min: SimDuration,
    /// Maximal inter-probe-cycle delay `δ_max`.
    pub delta_max: SimDuration,
    /// Initial inter-probe-cycle delay a CP starts with.
    pub initial_delay: SimDuration,
}

impl SappConfig {
    /// The paper's §3 values: `α_inc = 2`, `α_dec = 3/2`, `β = 3/2`,
    /// `L_ideal = 10⁶`, `δ_min = 0.02`, `δ_max = 10`; CPs start greedy at
    /// `δ_min`.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            cycle: ProbeCycleConfig::paper_default(),
            alpha_inc: 2.0,
            alpha_dec: 1.5,
            beta: 1.5,
            l_ideal: 1e6,
            delta_min: SimDuration::from_millis(20),
            delta_max: SimDuration::from_secs(10),
            initial_delay: SimDuration::from_millis(20),
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.cycle.validate()?;
        if self.alpha_inc <= 1.0 || !self.alpha_inc.is_finite() {
            return Err(ConfigError::new("alpha_inc must exceed 1"));
        }
        if self.alpha_dec <= 1.0 || !self.alpha_dec.is_finite() {
            return Err(ConfigError::new("alpha_dec must exceed 1"));
        }
        if self.beta <= 1.0 || !self.beta.is_finite() {
            return Err(ConfigError::new("beta must exceed 1"));
        }
        if self.l_ideal <= 0.0 || !self.l_ideal.is_finite() {
            return Err(ConfigError::new("l_ideal must be positive"));
        }
        if self.delta_min == SimDuration::ZERO {
            return Err(ConfigError::new("delta_min must be positive"));
        }
        if self.delta_max <= self.delta_min {
            return Err(ConfigError::new("delta_max must exceed delta_min"));
        }
        if self.initial_delay < self.delta_min || self.initial_delay > self.delta_max {
            return Err(ConfigError::new(
                "initial_delay must lie within [delta_min, delta_max]",
            ));
        }
        Ok(())
    }
}

/// Configuration of a SAPP device.
#[derive(Debug, Clone, Copy, PartialEq, Deserialize, Serialize)]
pub struct SappDeviceConfig {
    /// The reference ideal probe load `L_ideal` (must match the CPs').
    pub l_ideal: f64,
    /// The device's private nominal probe load `L_nom` (probes/second it is
    /// willing to serve). The increment is `Δ = L_ideal / L_nom`.
    pub l_nom: f64,
}

impl SappDeviceConfig {
    /// The paper's values: `L_ideal = 10⁶`, `L_nom = 10` (so `Δ = 10⁵`).
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            l_ideal: 1e6,
            l_nom: 10.0,
        }
    }

    /// The probe-counter increment `Δ = L_ideal / L_nom`, rounded to the
    /// nearest integer.
    #[must_use]
    pub fn delta(&self) -> u64 {
        (self.l_ideal / self.l_nom).round() as u64
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.l_ideal <= 0.0 || !self.l_ideal.is_finite() {
            return Err(ConfigError::new("l_ideal must be positive"));
        }
        if self.l_nom <= 0.0 || !self.l_nom.is_finite() {
            return Err(ConfigError::new("l_nom must be positive"));
        }
        if self.l_ideal < self.l_nom {
            return Err(ConfigError::new(
                "l_ideal must be at least l_nom (the paper assumes L_ideal >> L_nom)",
            ));
        }
        if self.delta() == 0 {
            return Err(ConfigError::new("delta rounds to zero"));
        }
        Ok(())
    }
}

/// Configuration of the device-controlled probe protocol (DCPP, §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize, Serialize)]
pub struct DcppConfig {
    /// Probe-cycle timing (same bounded retransmission as SAPP).
    pub cycle: ProbeCycleConfig,
    /// Minimal spacing between two consecutive probes at the device,
    /// `δ_min = 1/L_nom`.
    pub delta_min: SimDuration,
    /// Minimal delay a CP is asked to wait, `d_min = 1/f_max` (no CP need
    /// probe more often than `f_max`).
    pub d_min: SimDuration,
}

impl DcppConfig {
    /// The paper's §5 values: `δ_min = 0.1 s` (`L_nom = 10`) and
    /// `d_min = 0.5 s` (`f_max = 2`).
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            cycle: ProbeCycleConfig::paper_default(),
            delta_min: SimDuration::from_millis(100),
            d_min: SimDuration::from_millis(500),
        }
    }

    /// The nominal device load `L_nom = 1/δ_min` in probes/second.
    #[must_use]
    pub fn l_nom(&self) -> f64 {
        1.0 / self.delta_min.as_secs_f64()
    }

    /// The maximal per-CP probe frequency `f_max = 1/d_min`.
    #[must_use]
    pub fn f_max(&self) -> f64 {
        1.0 / self.d_min.as_secs_f64()
    }

    /// The device's slot rule (§4), clamped as the
    /// [`crate::DcppDevice`] docs derive: the instant a probe arriving at
    /// `now` is scheduled for, when the previous one was scheduled for
    /// `nt` — `max(max(nt, now) + δ_min, now + d_min)`.
    #[inline]
    #[must_use]
    pub fn schedule(&self, nt: SimTime, now: SimTime) -> SimTime {
        slot(nt, now, (self.delta_min, self.d_min))
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.cycle.validate()?;
        if self.delta_min == SimDuration::ZERO {
            return Err(ConfigError::new("delta_min must be positive"));
        }
        if self.d_min == SimDuration::ZERO {
            return Err(ConfigError::new("d_min must be positive"));
        }
        if self.d_min < self.delta_min {
            return Err(ConfigError::new(
                "d_min should be at least delta_min (a single CP may not exceed the device's total budget)",
            ));
        }
        Ok(())
    }
}

/// [`DcppConfig::schedule`] for a holder of only the rule's two
/// spacings, `δ_min` and `d_min` ([`crate::DcppDevice`] keeps no more).
#[inline]
pub(crate) fn slot(nt: SimTime, now: SimTime, (delta, d): (SimDuration, SimDuration)) -> SimTime {
    (nt.max(now) + delta).max(now + d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_validate() {
        ProbeCycleConfig::paper_default().validate().unwrap();
        SappConfig::paper_default().validate().unwrap();
        SappDeviceConfig::paper_default().validate().unwrap();
        DcppConfig::paper_default().validate().unwrap();
    }

    #[test]
    fn paper_cycle_constants() {
        let c = ProbeCycleConfig::paper_default();
        assert_eq!(c.tof, SimDuration::from_millis(22));
        assert_eq!(c.tos, SimDuration::from_millis(21));
        assert_eq!(c.max_retransmissions, 3);
        // Worst-case detection: 0.022 + 3 * 0.021 = 0.085 s — the paper's
        // "in the order of one second" requirement is easily met.
        assert_eq!(c.worst_case_detection(), SimDuration::from_millis(85));
    }

    #[test]
    fn sapp_device_delta() {
        let d = SappDeviceConfig::paper_default();
        assert_eq!(d.delta(), 100_000);
    }

    #[test]
    fn dcpp_derived_rates() {
        let c = DcppConfig::paper_default();
        assert!((c.l_nom() - 10.0).abs() < 1e-9);
        assert!((c.f_max() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_rejects_tos_above_tof() {
        let mut c = ProbeCycleConfig::paper_default();
        c.tos = SimDuration::from_millis(30);
        assert!(c.validate().is_err());
    }

    #[test]
    fn cycle_rejects_zero_timeouts() {
        let mut c = ProbeCycleConfig::paper_default();
        c.tof = SimDuration::ZERO;
        assert!(c.validate().is_err());
        let mut c = ProbeCycleConfig::paper_default();
        c.tos = SimDuration::ZERO;
        assert!(c.validate().is_err());
    }

    #[test]
    fn sapp_rejects_bad_factors() {
        for f in [0.5, 1.0, f64::NAN, f64::INFINITY] {
            let mut c = SappConfig::paper_default();
            c.alpha_inc = f;
            assert!(c.validate().is_err(), "alpha_inc = {f} accepted");
            let mut c = SappConfig::paper_default();
            c.alpha_dec = f;
            assert!(c.validate().is_err(), "alpha_dec = {f} accepted");
            let mut c = SappConfig::paper_default();
            c.beta = f;
            assert!(c.validate().is_err(), "beta = {f} accepted");
        }
    }

    #[test]
    fn sapp_rejects_inverted_delays() {
        let mut c = SappConfig::paper_default();
        c.delta_max = SimDuration::from_millis(10);
        assert!(c.validate().is_err());
    }

    #[test]
    fn sapp_rejects_out_of_band_initial_delay() {
        let mut c = SappConfig::paper_default();
        c.initial_delay = SimDuration::from_secs(100);
        assert!(c.validate().is_err());
    }

    #[test]
    fn sapp_device_rejects_inverted_loads() {
        let mut c = SappDeviceConfig::paper_default();
        c.l_nom = 1e7; // above l_ideal
        assert!(c.validate().is_err());
    }

    #[test]
    fn dcpp_rejects_d_min_below_delta_min() {
        let mut c = DcppConfig::paper_default();
        c.d_min = SimDuration::from_millis(50);
        assert!(c.validate().is_err());
    }

    #[test]
    fn configs_serde_roundtrip() {
        let c = SappConfig::paper_default();
        let json = serde_json::to_string(&c).unwrap();
        let back: SappConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);

        let d = DcppConfig::paper_default();
        let json = serde_json::to_string(&d).unwrap();
        let back: DcppConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}

//! A2 — the §2 device-side load-control knob.
//!
//! "If the device finds that it is getting too many probes, it can, say,
//! double its value of Δ. As a consequence, the CPs will consider the
//! device more busy and adapt their respective probing frequencies
//! accordingly. The probe load of the device will, in this example,
//! eventually drop to one half of its previous value."
//!
//! This ablation doubles Δ mid-run and measures the device load before and
//! after. Note the paper's "one half" is the idealised limit: with the
//! dead band `[L_ideal/β, β·L_ideal]` the CPs only slow down until the
//! (doubled) experienced load re-enters the band, so the settled ratio
//! lies in `[1/2, 1)` — halving is the bound, not the fixed point.

use crate::{DeviceActor, Protocol, Scenario, ScenarioConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Result of the Δ-doubling experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct A2Report {
    /// When Δ was doubled (seconds).
    pub double_at: f64,
    /// Mean load over the settled window before the doubling.
    pub load_before: f64,
    /// Mean load over the settled window after the doubling.
    pub load_after: f64,
    /// `load_after / load_before` (paper's prediction: ≈ 0.5).
    pub ratio: f64,
    /// Full `(window_start, probes_per_second)` series.
    pub load_series: Vec<(f64, f64)>,
    /// Seconds simulated.
    pub duration: f64,
    /// Seed used.
    pub seed: u64,
}

impl fmt::Display for A2Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "A2 — SAPP device Δ-doubling at t = {:.0} s (seed {})",
            self.double_at, self.seed
        )?;
        writeln!(f, "  load before   {:.2} probes/s", self.load_before)?;
        writeln!(f, "  load after    {:.2} probes/s", self.load_after)?;
        writeln!(
            f,
            "  ratio         {:.2} (paper: -> 0.5; dead band admits [0.5, 1))",
            self.ratio
        )
    }
}

/// Runs the Δ-doubling experiment: SAPP with `k` CPs, Δ doubles at
/// `duration/2`.
#[must_use]
pub fn a2_delta_doubling(k: u32, duration: f64, seed: u64) -> A2Report {
    let double_at = duration / 2.0;
    let mut cfg = ScenarioConfig::paper_defaults(Protocol::sapp_paper(), k, duration, seed);
    cfg.load_window = 5.0;
    let mut scenario = Scenario::build(cfg);
    scenario.run_until(double_at);
    let device = scenario.device_actor();
    scenario
        .sim_mut()
        .actor_mut::<DeviceActor>(device)
        .expect("device actor")
        .double_delta();
    scenario.run();
    let result = scenario.collect();

    // Settled windows: skip the first quarter (join transient) before the
    // doubling, and the first quarter after it (adaptation transient).
    let before: Vec<f64> = result
        .load_series
        .iter()
        .filter(|&&(t, _)| t > double_at * 0.5 && t < double_at)
        .map(|&(_, v)| v)
        .collect();
    let settle = double_at + (duration - double_at) * 0.5;
    let after: Vec<f64> = result
        .load_series
        .iter()
        .filter(|&&(t, _)| t > settle)
        .map(|&(_, v)| v)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (lb, la) = (mean(&before), mean(&after));

    A2Report {
        double_at,
        load_before: lb,
        load_after: la,
        ratio: la / lb,
        load_series: result.load_series,
        duration: result.duration,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a2_doubling_halves_the_load() {
        let r = a2_delta_doubling(20, 8_000.0, 3);
        // The load must drop materially, and never below the paper's
        // idealised halving (modulo estimation noise).
        assert!(
            r.ratio > 0.35 && r.ratio < 0.9,
            "load ratio {} outside the dead-band-admissible range (before {}, after {})",
            r.ratio,
            r.load_before,
            r.load_after
        );
        assert!(r.load_after < r.load_before, "doubling Δ must reduce load");
    }

    #[test]
    fn a2_renders() {
        let r = a2_delta_doubling(5, 600.0, 1);
        assert!(r.to_string().contains("A2"));
    }
}

//! E6 — §5's static-case claim for DCPP.
//!
//! "Due to its deterministic nature, the protocol ensures that once a
//! situation is reached where the number of probing CPs does not change,
//! the device has a probe load of `L_nom`, and the probe frequency is
//! nearly the same for all CPs."
//!
//! This preset sweeps the static population `k` and verifies both halves:
//! load ≈ `min(k·f_max, L_nom)` (for small `k` the per-CP cap binds) and
//! Jain fairness ≈ 1.

use crate::{Protocol, Scenario, ScenarioConfig};
use serde::Serialize;
use std::fmt;

/// One population point of the sweep.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct E6Row {
    /// Static CP population.
    pub k: u32,
    /// Measured device load (probes/s).
    pub load: f64,
    /// The theoretical load `min(k·f_max, L_nom)`.
    pub expected_load: f64,
    /// Jain fairness index over per-CP frequencies.
    pub fairness_jain: f64,
    /// Max/min per-CP frequency ratio.
    pub frequency_spread: f64,
    /// Mean per-CP probing frequency.
    pub mean_cp_frequency: f64,
}

/// The full sweep.
#[derive(Debug, Clone, Serialize)]
pub struct E6Report {
    /// One row per population size.
    pub rows: Vec<E6Row>,
    /// Seconds simulated per point.
    pub duration: f64,
    /// Seed used.
    pub seed: u64,
}

impl fmt::Display for E6Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E6 — DCPP static fairness & load cap ({:.0} s per point, seed {})",
            self.duration, self.seed
        )?;
        writeln!(
            f,
            "  {:>4} {:>10} {:>10} {:>8} {:>8} {:>10}",
            "k", "load", "expected", "jain", "spread", "cp freq"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>4} {:>10.2} {:>10.2} {:>8.3} {:>8.2} {:>10.3}",
                r.k,
                r.load,
                r.expected_load,
                r.fairness_jain,
                r.frequency_spread,
                r.mean_cp_frequency
            )?;
        }
        Ok(())
    }
}

/// Runs the static sweep over the given populations.
#[must_use]
pub fn e6_dcpp_static_fairness(ks: &[u32], duration: f64, seed: u64) -> E6Report {
    let dcpp = presence_core::DcppConfig::paper_default();
    let l_nom = dcpp.l_nom();
    let f_max = dcpp.f_max();
    let mut rows = Vec::with_capacity(ks.len());
    for &k in ks {
        let cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), k, duration, seed);
        let mut scenario = Scenario::build(cfg);
        scenario.run();
        let result = scenario.collect();
        let freqs: Vec<f64> = result
            .active_cps()
            .iter()
            .map(|c| c.mean_frequency)
            .collect();
        let mean_freq = freqs.iter().sum::<f64>() / freqs.len().max(1) as f64;
        rows.push(E6Row {
            k,
            load: result.load_mean,
            expected_load: (f64::from(k) * f_max).min(l_nom),
            fairness_jain: result.fairness_jain,
            frequency_spread: result.frequency_spread(),
            mean_cp_frequency: mean_freq,
        });
    }
    E6Report {
        rows,
        duration,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_load_matches_theory_and_is_fair() {
        let r = e6_dcpp_static_fairness(&[1, 2, 5, 20], 400.0, 3);
        for row in &r.rows {
            assert!(
                (row.load - row.expected_load).abs() / row.expected_load < 0.25,
                "k={}: load {} vs expected {}",
                row.k,
                row.load,
                row.expected_load
            );
            assert!(
                row.fairness_jain > 0.98,
                "k={}: DCPP must be fair, jain {}",
                row.k,
                row.fairness_jain
            );
        }
        // The per-CP frequency decreases once the device budget saturates.
        let f5 = r.rows[2].mean_cp_frequency;
        let f20 = r.rows[3].mean_cp_frequency;
        assert!(f20 < f5, "per-CP frequency must drop with k: {f5} -> {f20}");
    }

    #[test]
    fn e6_renders_table() {
        let r = e6_dcpp_static_fairness(&[1, 2], 100.0, 1);
        let text = r.to_string();
        assert!(text.contains("E6"));
        assert!(text.lines().count() >= 4);
    }
}

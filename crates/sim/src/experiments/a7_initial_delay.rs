//! A7 — sensitivity to SAPP's *unstated* initial delay (extension).
//!
//! The paper never says what δ a CP starts with. That choice decides the
//! whole transient: greedy joiners (δ_min) cause a thundering herd that
//! cascades upward; conservative joiners (δ_max) trickle down. Because
//! SAPP's dead band freezes whatever configuration the transient produces,
//! the initial δ materially shifts the steady state — this ablation quantifies how much, which is also our
//! best explanation for the magnitude gap between our E1 and the paper's.

use crate::{Protocol, Scenario, ScenarioConfig};
use presence_core::{SappConfig, SappDeviceConfig};
use presence_des::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One initial-delay choice.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct A7Row {
    /// The initial δ (seconds).
    pub initial_delay: f64,
    /// Human label for the choice.
    pub label: String,
    /// Mean device load.
    pub load_mean: f64,
    /// Jain fairness index.
    pub fairness_jain: f64,
    /// Max/min frequency ratio.
    pub frequency_spread: f64,
    /// Per-CP mean delays, sorted.
    pub mean_delays: Vec<f64>,
}

/// The initial-delay sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct A7Report {
    /// One row per starting point.
    pub rows: Vec<A7Row>,
    /// CP population.
    pub k: u32,
    /// Seconds simulated per row.
    pub duration: f64,
    /// Seed used.
    pub seed: u64,
}

impl fmt::Display for A7Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "A7 — SAPP sensitivity to the (unstated) initial δ (k = {}, {:.0} s, seed {})",
            self.k, self.duration, self.seed
        )?;
        writeln!(
            f,
            "  {:<22} {:>8} {:>7} {:>8}  delays (sorted)",
            "initial δ", "load", "jain", "spread"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<22} {:>8.2} {:>7.3} {:>7.1}×  {}",
                r.label,
                r.load_mean,
                r.fairness_jain,
                r.frequency_spread,
                r.mean_delays
                    .iter()
                    .map(|d| format!("{d:.2}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            )?;
        }
        Ok(())
    }
}

/// Runs the sweep over greedy (δ_min), middle (1 s), and conservative
/// (δ_max) starting delays.
#[must_use]
pub fn a7_initial_delay(k: u32, duration: f64, seed: u64) -> A7Report {
    let choices: [(f64, &str); 3] = [
        (0.02, "greedy (δ_min = 0.02)"),
        (1.0, "middle (1 s)"),
        (10.0, "conservative (δ_max)"),
    ];
    let mut rows = Vec::new();
    for (initial, label) in choices {
        let cp = SappConfig {
            initial_delay: SimDuration::from_secs_f64(initial),
            ..SappConfig::paper_default()
        };
        let protocol = Protocol::Sapp {
            cp,
            device: SappDeviceConfig::paper_default(),
        };
        let cfg = ScenarioConfig::paper_defaults(protocol, k, duration, seed);
        let mut scenario = Scenario::build(cfg);
        scenario.run();
        let result = scenario.collect();
        rows.push(A7Row {
            initial_delay: initial,
            label: label.to_string(),
            load_mean: result.load_mean,
            fairness_jain: result.fairness_jain,
            frequency_spread: result.frequency_spread(),
            mean_delays: result.sorted_mean_delays(),
        });
    }
    A7Report {
        rows,
        k,
        duration,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a7_all_starting_points_stay_near_budget() {
        let r = a7_initial_delay(10, 2_000.0, 3);
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            assert!(
                row.load_mean > 3.0 && row.load_mean < 25.0,
                "{}: load {}",
                row.label,
                row.load_mean
            );
            assert_eq!(row.mean_delays.len(), 10);
        }
    }

    #[test]
    fn a7_initial_delay_changes_steady_state() {
        // The frozen configurations differ between greedy and conservative
        // starts — the dead band remembers the transient.
        let r = a7_initial_delay(10, 2_000.0, 3);
        let greedy = &r.rows[0].mean_delays;
        let conservative = &r.rows[2].mean_delays;
        let diff: f64 = greedy
            .iter()
            .zip(conservative)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(
            diff > 0.5,
            "steady states identical across initial δ (diff {diff})"
        );
    }

    #[test]
    fn a7_renders() {
        let r = a7_initial_delay(3, 300.0, 1);
        assert!(r.to_string().contains("A7"));
    }
}

//! A3 — the naive fixed-rate baseline the paper's introduction dismisses.
//!
//! "The simplest scheme one could consider is to regularly probe a device —
//! 'are you still there?'. This scheme, however, easily leads to over- or
//! underloading of devices." This preset quantifies that: fixed-rate
//! probing scales its device load linearly with the population, while SAPP
//! and DCPP hold it near `L_nom`.

use crate::{Protocol, Scenario, ScenarioConfig};
use presence_core::ProbeCycleConfig;
use serde::Serialize;
use std::fmt;

/// One population point comparing the three protocols.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct A3Row {
    /// CP population.
    pub k: u32,
    /// Device load under fixed-rate probing (period 0.5 s).
    pub fixed_rate_load: f64,
    /// Device load under SAPP.
    pub sapp_load: f64,
    /// Device load under DCPP.
    pub dcpp_load: f64,
}

/// The population sweep.
#[derive(Debug, Clone, Serialize)]
pub struct A3Report {
    /// One row per population.
    pub rows: Vec<A3Row>,
    /// Fixed-rate probing period used (seconds).
    pub period: f64,
    /// Seconds simulated per cell.
    pub duration: f64,
    /// Seed used.
    pub seed: u64,
}

impl fmt::Display for A3Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "A3 — device load vs population: fixed-rate (T = {:.1} s) vs SAPP vs DCPP ({:.0} s per cell, seed {})",
            self.period, self.duration, self.seed
        )?;
        writeln!(
            f,
            "  {:>4} {:>12} {:>10} {:>10}",
            "k", "fixed-rate", "SAPP", "DCPP"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>4} {:>12.1} {:>10.1} {:>10.1}",
                r.k, r.fixed_rate_load, r.sapp_load, r.dcpp_load
            )?;
        }
        writeln!(
            f,
            "  (L_nom = 10 probes/s; fixed-rate grows as k/T, the adaptive protocols cap)"
        )
    }
}

fn load_of(protocol: Protocol, k: u32, duration: f64, seed: u64) -> f64 {
    let cfg = ScenarioConfig::paper_defaults(protocol, k, duration, seed);
    let mut scenario = Scenario::build(cfg);
    scenario.run();
    scenario.collect().load_mean
}

/// Runs the baseline comparison over the given populations.
#[must_use]
pub fn a3_fixed_rate_baseline(ks: &[u32], duration: f64, seed: u64) -> A3Report {
    let period = 0.5;
    let mut rows = Vec::with_capacity(ks.len());
    for &k in ks {
        let fixed = Protocol::FixedRate {
            cycle: ProbeCycleConfig::paper_default(),
            period,
        };
        rows.push(A3Row {
            k,
            fixed_rate_load: load_of(fixed, k, duration, seed),
            sapp_load: load_of(Protocol::sapp_paper(), k, duration, seed),
            dcpp_load: load_of(Protocol::dcpp_paper(), k, duration, seed),
        });
    }
    A3Report {
        rows,
        period,
        duration,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a3_fixed_rate_grows_linearly_but_adaptive_caps() {
        let r = a3_fixed_rate_baseline(&[5, 40], 400.0, 3);
        let small = &r.rows[0];
        let large = &r.rows[1];
        // Fixed rate: load ≈ k / 0.5 = 2k.
        assert!(
            (small.fixed_rate_load - 10.0).abs() < 2.0,
            "fixed k=5: {}",
            small.fixed_rate_load
        );
        assert!(
            (large.fixed_rate_load - 80.0).abs() < 10.0,
            "fixed k=40: {}",
            large.fixed_rate_load
        );
        // DCPP pins the load at L_nom regardless.
        assert!(
            (large.dcpp_load - 10.0).abs() < 2.0,
            "dcpp k=40: {}",
            large.dcpp_load
        );
        // SAPP keeps it the same order as L_nom (not k-proportional).
        assert!(large.sapp_load < 30.0, "sapp k=40: {}", large.sapp_load);
    }

    #[test]
    fn a3_renders() {
        let r = a3_fixed_rate_baseline(&[2], 100.0, 1);
        assert!(r.to_string().contains("A3"));
    }
}

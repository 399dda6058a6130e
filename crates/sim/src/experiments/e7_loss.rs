//! E7 — §5's closing conjecture: packet loss spreads DCPP's join spikes.
//!
//! "In case of packet losses, however, which will occur in bursts due to
//! the limited capacity of devices, the load caused by new CPs will spread
//! better over time, since some CPs will only receive a reply after some
//! re-probing. We can therefore expect that in practice the peaks in the
//! device load as they appear as spikes in Fig. 5 will be a bit wider."
//!
//! This preset runs the E5 workload under increasing (bursty) loss and
//! quantifies the spikes: their height should drop and their energy spread
//! as loss grows.

use crate::{ChurnModel, LossKind, Protocol, Scenario, ScenarioConfig};
use serde::Serialize;
use std::fmt;

/// One loss setting of the sweep.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct E7Row {
    /// Average loss rate simulated.
    pub loss_rate: f64,
    /// Whether the loss was bursty (Gilbert–Elliott) or i.i.d.
    pub bursty: bool,
    /// Mean device load.
    pub load_mean: f64,
    /// Variance of the load samples.
    pub load_variance: f64,
    /// Largest load window (spike height).
    pub peak_load: f64,
    /// Fraction of windows above `1.5 · L_nom` (spike prevalence — rises
    /// as spikes widen even while the peak shrinks).
    pub elevated_fraction: f64,
    /// Probe retransmissions per successful cycle (the re-probing that does
    /// the spreading).
    pub retransmissions_per_cycle: f64,
}

/// The full loss sweep.
#[derive(Debug, Clone, Serialize)]
pub struct E7Report {
    /// One row per loss configuration.
    pub rows: Vec<E7Row>,
    /// Seconds simulated per point.
    pub duration: f64,
    /// Seed used.
    pub seed: u64,
}

impl fmt::Display for E7Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E7 — DCPP join-spike spreading under loss ({:.0} s per point, seed {})",
            self.duration, self.seed
        )?;
        writeln!(
            f,
            "  {:>6} {:>7} {:>8} {:>9} {:>7} {:>10} {:>12}",
            "loss", "bursty", "load", "variance", "peak", ">1.5 L_nom", "retx/cycle"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>5.0}% {:>7} {:>8.2} {:>9.1} {:>7.1} {:>9.1}% {:>12.3}",
                r.loss_rate * 100.0,
                r.bursty,
                r.load_mean,
                r.load_variance,
                r.peak_load,
                r.elevated_fraction * 100.0,
                r.retransmissions_per_cycle
            )?;
        }
        Ok(())
    }
}

fn run_one(loss: LossKind, loss_rate: f64, bursty: bool, duration: f64, seed: u64) -> E7Row {
    let mut cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 60, duration, seed);
    cfg.initially_active = 20;
    cfg.churn = ChurnModel::paper_fig5();
    cfg.load_window = 2.0;
    cfg.loss = loss;
    let mut scenario = Scenario::build(cfg);
    scenario.run();
    let result = scenario.collect();

    let loads: Vec<f64> = result.load_series.iter().map(|&(_, v)| v).collect();
    let peak = loads.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let elevated = loads.iter().filter(|&&v| v > 15.0).count() as f64 / loads.len().max(1) as f64;

    let (mut retx, mut cycles) = (0u64, 0u64);
    for cp in &result.cps {
        retx += cp.retransmissions;
        cycles += cp.cycles_succeeded;
    }

    E7Row {
        loss_rate,
        bursty,
        load_mean: result.load_mean,
        load_variance: result.load_variance,
        peak_load: peak,
        elevated_fraction: elevated,
        retransmissions_per_cycle: retx as f64 / cycles.max(1) as f64,
    }
}

/// Runs the loss sweep: lossless, then i.i.d. and bursty loss at rising
/// rates.
#[must_use]
pub fn e7_dcpp_loss_spread(duration: f64, seed: u64) -> E7Report {
    let rows = vec![
        run_one(LossKind::None, 0.0, false, duration, seed),
        run_one(LossKind::Bernoulli(0.01), 0.01, false, duration, seed),
        run_one(LossKind::Bernoulli(0.05), 0.05, false, duration, seed),
        run_one(LossKind::Bursty(0.05), 0.05, true, duration, seed),
        run_one(LossKind::Bursty(0.10), 0.10, true, duration, seed),
    ];
    E7Report {
        rows,
        duration,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_loss_induces_retransmissions() {
        let r = e7_dcpp_loss_spread(600.0, 17);
        let lossless = &r.rows[0];
        let lossy = &r.rows[2]; // 5% i.i.d.
        assert!(
            lossless.retransmissions_per_cycle < 0.01,
            "retransmissions without loss: {}",
            lossless.retransmissions_per_cycle
        );
        assert!(
            lossy.retransmissions_per_cycle > lossless.retransmissions_per_cycle + 0.01,
            "loss must cause re-probing"
        );
    }

    #[test]
    fn e7_load_stays_controlled_under_loss() {
        let r = e7_dcpp_loss_spread(600.0, 17);
        for row in &r.rows {
            assert!(
                row.load_mean < 15.0,
                "loss {:.0}%: load {} escaped the DCPP cap",
                row.loss_rate * 100.0,
                row.load_mean
            );
        }
    }

    #[test]
    fn e7_renders() {
        let r = e7_dcpp_loss_spread(200.0, 1);
        assert!(r.to_string().contains("E7"));
        assert_eq!(r.rows.len(), 5);
    }
}

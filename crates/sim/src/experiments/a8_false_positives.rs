//! A8 — false absence verdicts under loss (extension).
//!
//! The bounded-retransmission design (Fig. 1) declares a device absent
//! after 4 unanswered probes. Under i.i.d. loss with probability `p` (drop
//! applied independently to each probe and each reply), a cycle falsely
//! fails with probability
//!
//! ```text
//! P(false) = (1 − (1 − p)²)⁴  =  q⁴,   q = probability one round trip dies
//! ```
//!
//! since each of the 4 transmissions needs its probe *and* its reply to
//! survive. Bursty loss breaks the independence and inflates the rate by
//! orders of magnitude — which is why the paper's §5 expects losses "in
//! bursts" to be the operative regime. This experiment measures both and
//! checks the i.i.d. case against the closed form.

use crate::{LossKind, Protocol, Scenario, ScenarioConfig};
use serde::Serialize;
use std::fmt;

/// One loss configuration.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct A8Row {
    /// Loss probability per message.
    pub loss: f64,
    /// Whether the loss is bursty (Gilbert–Elliott).
    pub bursty: bool,
    /// Probe cycles completed (successfully) across all CPs.
    pub cycles: u64,
    /// False absence verdicts observed.
    pub false_verdicts: u64,
    /// Measured false-verdict rate per cycle.
    pub measured_rate: f64,
    /// The i.i.d. closed form `q⁴` (NaN for bursty rows, where it does not
    /// apply).
    pub analytic_rate: f64,
}

/// The false-positive study.
#[derive(Debug, Clone, Serialize)]
pub struct A8Report {
    /// One row per loss setting.
    pub rows: Vec<A8Row>,
    /// CP population.
    pub k: u32,
    /// Virtual seconds per row.
    pub duration: f64,
    /// Seed used.
    pub seed: u64,
}

impl fmt::Display for A8Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "A8 — false absence verdicts under loss (DCPP, k = {}, {:.0} s per row, seed {})",
            self.k, self.duration, self.seed
        )?;
        writeln!(
            f,
            "  {:>6} {:>7} {:>9} {:>7} {:>12} {:>12}",
            "loss", "bursty", "cycles", "false", "measured", "analytic q⁴"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>5.0}% {:>7} {:>9} {:>7} {:>12.2e} {:>12}",
                r.loss * 100.0,
                r.bursty,
                r.cycles,
                r.false_verdicts,
                r.measured_rate,
                if r.analytic_rate.is_nan() {
                    "n/a".to_string()
                } else {
                    format!("{:.2e}", r.analytic_rate)
                }
            )?;
        }
        writeln!(
            f,
            "  (bursty loss voids the independence assumption — rates explode)"
        )
    }
}

fn run_one(loss: LossKind, loss_p: f64, bursty: bool, k: u32, duration: f64, seed: u64) -> A8Row {
    // DCPP with a short d_min maximises cycles per virtual second, giving
    // the tightest estimate of the per-cycle false-verdict rate.
    let mut dcpp = presence_core::DcppConfig::paper_default();
    dcpp.delta_min = presence_des::SimDuration::from_millis(10);
    dcpp.d_min = presence_des::SimDuration::from_millis(100);
    let mut cfg = ScenarioConfig::paper_defaults(Protocol::Dcpp { cfg: dcpp }, k, duration, seed);
    cfg.loss = loss;
    let mut scenario = Scenario::build(cfg);
    scenario.run();
    let result = scenario.collect();

    // The device never left, so every verdict is false. `cycles_failed`
    // counts them even across CP re-joins (there are none here: a stopped
    // CP stays stopped, so at most one verdict per CP).
    let cycles: u64 = result.cps.iter().map(|c| c.cycles_succeeded).sum();
    let false_verdicts: u64 = result.cps.iter().map(|c| c.cycles_failed).sum();
    let attempts = cycles + false_verdicts;
    let q = 1.0 - (1.0 - loss_p) * (1.0 - loss_p);
    A8Row {
        loss: loss_p,
        bursty,
        cycles,
        false_verdicts,
        measured_rate: false_verdicts as f64 / attempts.max(1) as f64,
        analytic_rate: if bursty { f64::NAN } else { q.powi(4) },
    }
}

/// Runs the false-positive study.
#[must_use]
pub fn a8_false_positives(k: u32, duration: f64, seed: u64) -> A8Report {
    let rows = vec![
        run_one(LossKind::None, 0.0, false, k, duration, seed),
        run_one(LossKind::Bernoulli(0.05), 0.05, false, k, duration, seed),
        run_one(LossKind::Bernoulli(0.20), 0.20, false, k, duration, seed),
        run_one(LossKind::Bursty(0.05), 0.05, true, k, duration, seed),
        run_one(LossKind::Bursty(0.20), 0.20, true, k, duration, seed),
    ];
    A8Report {
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
    fn a8_no_loss_no_false_verdicts() {
        let r = a8_false_positives(10, 500.0, 3);
        assert_eq!(r.rows[0].false_verdicts, 0);
        assert!(r.rows[0].cycles > 1_000, "cycles {}", r.rows[0].cycles);
    }

    #[test]
    fn a8_iid_rate_matches_closed_form_at_high_loss() {
        // At p = 0.20: q = 0.36, q^4 ≈ 1.68e-2 — large enough to measure
        // in a short run.
        let r = a8_false_positives(10, 2_000.0, 3);
        let row = &r.rows[2];
        assert!(row.false_verdicts > 0, "no false verdicts at 20% loss");
        let ratio = row.measured_rate / row.analytic_rate;
        assert!(
            ratio > 0.3 && ratio < 3.0,
            "measured {:.3e} vs analytic {:.3e} (ratio {ratio})",
            row.measured_rate,
            row.analytic_rate
        );
    }

    #[test]
    fn a8_bursty_loss_is_far_worse_than_iid() {
        let r = a8_false_positives(10, 2_000.0, 3);
        let iid = &r.rows[1]; // 5% i.i.d.
        let bursty = &r.rows[3]; // 5% bursty
        assert!(
            bursty.measured_rate > 5.0 * iid.measured_rate.max(1e-9),
            "bursty {:.3e} not clearly worse than i.i.d. {:.3e}",
            bursty.measured_rate,
            iid.measured_rate
        );
    }

    #[test]
    fn a8_renders() {
        let r = a8_false_positives(3, 200.0, 1);
        assert!(r.to_string().contains("A8"));
    }
}

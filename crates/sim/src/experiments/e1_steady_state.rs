//! E1 — §3 steady-state study of SAPP.
//!
//! Paper setup: 1 device, k = 20 CPs, `α_inc = 2`, `α_dec = 3/2`,
//! `β = 3/2`, `L_ideal = 10⁶`, `L_nom = 10` (Δ = 10⁵), `δ_min = 0.02`,
//! `δ_max = 10`, 20 000-element buffer, three-mode network; batch-means
//! steady-state simulation at confidence interval 0.1, level 0.95.
//!
//! Paper findings this report mirrors:
//! * per-CP mean delays are wildly unequal (most ≈ 10, a few ≪ 1);
//! * some CPs have high delay variance (one: mean 8, variance ≈ 13.5);
//! * the device load is nevertheless near `L_nom = 10` with low variance;
//! * the mean network buffer length is tiny (≈ 0.004).

use crate::{Protocol, Scenario, ScenarioConfig};
use presence_stats::{jain_index, max_min_ratio, BatchMeans, BatchMeansConfig, Histogram};
use serde::Serialize;
use std::fmt;

/// Result of the E1 steady-state study.
#[derive(Debug, Clone, Serialize)]
pub struct E1Report {
    /// Virtual seconds simulated.
    pub duration: f64,
    /// Device load point estimate (probes/s).
    pub load_mean: f64,
    /// Device load confidence half-width at 0.95.
    pub load_ci_half_width: f64,
    /// Whether the batch-means stopping rule (rel. half-width ≤ 0.1) held.
    pub load_converged: bool,
    /// Variance of the windowed load samples.
    pub load_variance: f64,
    /// Mean network buffer occupancy (paper: ≈ 0.004).
    pub mean_buffer_occupancy: f64,
    /// Per-CP mean delays, sorted ascending.
    pub cp_mean_delays: Vec<f64>,
    /// Per-CP delay variances (same order as the ids, not sorted).
    pub cp_delay_variances: Vec<f64>,
    /// Jain fairness index over per-CP mean frequencies.
    pub fairness_jain: f64,
    /// Max/min ratio of per-CP mean frequencies.
    pub frequency_spread: f64,
    /// Number of modes detected in the delay histogram (paper: 2).
    pub delay_modes: usize,
    /// The seed used.
    pub seed: u64,
}

impl fmt::Display for E1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E1 — SAPP steady state (k = 20, paper constants)")?;
        writeln!(
            f,
            "  simulated                {:.0} s (seed {})",
            self.duration, self.seed
        )?;
        writeln!(
            f,
            "  device load              {:.2} ± {:.2} probes/s (paper: ≈ L_nom = 10) {}",
            self.load_mean,
            self.load_ci_half_width,
            if self.load_converged {
                "[converged]"
            } else {
                "[NOT converged]"
            }
        )?;
        writeln!(f, "  load variance            {:.3}", self.load_variance)?;
        writeln!(
            f,
            "  mean buffer occupancy    {:.4} (paper: ≈ 0.004)",
            self.mean_buffer_occupancy
        )?;
        writeln!(
            f,
            "  CP mean delays (sorted)  {}",
            self.cp_mean_delays
                .iter()
                .map(|d| format!("{d:.2}"))
                .collect::<Vec<_>>()
                .join(" ")
        )?;
        writeln!(
            f,
            "  fairness (Jain)          {:.3}   frequency spread {:.1}× (paper: strong inequality, ≈ 25×)",
            self.fairness_jain, self.frequency_spread
        )?;
        writeln!(
            f,
            "  delay histogram modes    {} (paper: bimodal)",
            self.delay_modes
        )
    }
}

/// Runs the E1 steady-state study.
///
/// `duration` of 20 000 s matches the paper's transient horizon and is ample
/// for the load estimate to converge; shorter runs are fine for smoke tests.
#[must_use]
pub fn e1_sapp_steady_state(duration: f64, seed: u64) -> E1Report {
    let mut cfg = ScenarioConfig::paper_defaults(Protocol::sapp_paper(), 20, duration, seed);
    cfg.load_window = 5.0;
    let mut scenario = Scenario::build(cfg);
    scenario.run();
    let result = scenario.collect();

    // Batch-means over the windowed load samples, paper stopping rule.
    let bm_cfg = BatchMeansConfig {
        warmup: 20, // discard the first 100 s of windows (join transient)
        batch_size: 20,
        min_batches: 10,
        level: 0.95,
        target_relative_half_width: 0.1,
    };
    let mut bm = BatchMeans::new(bm_cfg).expect("valid batch-means config");
    for &(_, rate) in &result.load_series {
        bm.push(rate);
    }
    let ci = bm.interval();

    let mut delays = result.sorted_mean_delays();
    if delays.is_empty() {
        delays.push(f64::NAN);
    }
    let variances: Vec<f64> = result
        .active_cps()
        .iter()
        .map(|c| c.delay_variance)
        .collect();

    let mut hist = Histogram::new(0.0, 10.5, 21);
    hist.extend(delays.iter().copied());

    let freqs: Vec<f64> = result
        .active_cps()
        .iter()
        .map(|c| c.mean_frequency)
        .collect();

    E1Report {
        duration: result.duration,
        load_mean: bm.mean(),
        load_ci_half_width: ci.half_width,
        load_converged: bm.is_converged(),
        load_variance: bm.observation_variance(),
        mean_buffer_occupancy: result.mean_buffer_occupancy.unwrap_or(f64::NAN),
        cp_mean_delays: delays,
        cp_delay_variances: variances,
        fairness_jain: jain_index(&freqs),
        frequency_spread: max_min_ratio(&freqs),
        delay_modes: hist.mode_count(),
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_shape_holds_on_short_run() {
        let r = e1_sapp_steady_state(3_000.0, 7);
        // Device load near L_nom despite CP-side chaos.
        assert!(
            r.load_mean > 5.0 && r.load_mean < 20.0,
            "load {}",
            r.load_mean
        );
        // Buffer almost always empty.
        assert!(
            r.mean_buffer_occupancy < 0.5,
            "buffer occupancy {}",
            r.mean_buffer_occupancy
        );
        assert_eq!(r.cp_mean_delays.len(), 20);
        // Sorted ascending.
        for w in r.cp_mean_delays.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        assert!(r.load_converged, "batch means should converge in 3000 s");
    }

    #[test]
    fn e1_renders() {
        let r = e1_sapp_steady_state(500.0, 1);
        let text = r.to_string();
        assert!(text.contains("E1"));
        assert!(text.contains("device load"));
    }
}

//! A4 — absence-detection latency across designs.
//!
//! The paper's requirement: "the absence of nodes should be detected
//! quickly (e.g., in the order of one second) while avoiding to overload
//! nodes". This preset crashes the device mid-run and measures, per CP,
//! the time from crash to verdict under SAPP and DCPP (with and without
//! loss). Every row runs through [`Scenario`]: the engine, the network and
//! its loss model.
//!
//! A probe protocol pays `δ` (the probing interval in force) plus the
//! `TOF + 3·TOS = 85 ms` verdict.

use crate::{LossKind, Protocol, Scenario, ScenarioConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Latency statistics for one detector configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct A4Row {
    /// Human-readable configuration label.
    pub label: String,
    /// Mean detection latency (seconds) across monitors.
    pub mean_latency: f64,
    /// Worst detection latency.
    pub max_latency: f64,
    /// Best detection latency.
    pub min_latency: f64,
    /// Monitors that detected the crash / monitors still watching at crash
    /// time (monitors that had already issued a — necessarily false —
    /// verdict before the crash are not eligible).
    pub detected: (usize, usize),
    /// Verdicts issued *before* the crash (false positives, e.g. a run of
    /// lost probes exhausting the retransmission budget).
    pub false_verdicts: usize,
}

/// The detection-latency comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct A4Report {
    /// One row per configuration.
    pub rows: Vec<A4Row>,
    /// When the device crashed (seconds into the run).
    pub crash_at: f64,
    /// Seed used.
    pub seed: u64,
}

impl fmt::Display for A4Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "A4 — detection latency after a silent crash at t = {:.0} s (seed {})",
            self.crash_at, self.seed
        )?;
        writeln!(
            f,
            "  {:<34} {:>8} {:>8} {:>8} {:>9}",
            "configuration", "mean", "min", "max", "detected"
        )?;
        for r in &self.rows {
            write!(
                f,
                "  {:<34} {:>7.3}s {:>7.3}s {:>7.3}s {:>5}/{:<3}",
                r.label, r.mean_latency, r.min_latency, r.max_latency, r.detected.0, r.detected.1
            )?;
            if r.false_verdicts > 0 {
                write!(f, " ({} false verdict(s) pre-crash)", r.false_verdicts)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

fn probe_latencies(
    protocol: Protocol,
    loss: LossKind,
    label: &str,
    k: u32,
    crash_at: f64,
    seed: u64,
) -> A4Row {
    let mut cfg = ScenarioConfig::paper_defaults(protocol, k, crash_at + 60.0, seed);
    cfg.loss = loss;
    let mut scenario = Scenario::build(cfg);
    scenario.crash_device_at(crash_at);
    scenario.run();
    let result = scenario.collect();

    // Partition verdicts around the crash: only verdicts at/after the crash
    // measure *crash detection*; earlier ones are loss-induced false
    // positives (the CP stopped probing, so it cannot witness the crash).
    let mut latencies = Vec::new();
    let mut false_verdicts = 0usize;
    for cp in &result.cps {
        match cp.detected_absent_at {
            Some(t) if t >= crash_at => latencies.push(t - crash_at),
            Some(_) => false_verdicts += 1,
            None => {}
        }
    }
    // No detections (e.g. every CP false-verdicted pre-crash): report flat
    // zeros rather than ±∞ from empty folds; `detected: (0, _)` carries the
    // "nothing was measured" signal.
    let (mean, min, max) = if latencies.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        (
            latencies.iter().sum::<f64>() / latencies.len() as f64,
            latencies.iter().copied().fold(f64::INFINITY, f64::min),
            latencies.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    };
    A4Row {
        label: label.to_string(),
        mean_latency: mean,
        max_latency: max,
        min_latency: min,
        detected: (latencies.len(), result.cps.len() - false_verdicts),
        false_verdicts,
    }
}

/// Runs the full detection-latency comparison with `k` CPs per
/// configuration.
#[must_use]
pub fn a4_detection_latency(k: u32, crash_at: f64, seed: u64) -> A4Report {
    let rows = vec![
        probe_latencies(
            Protocol::dcpp_paper(),
            LossKind::None,
            "DCPP probe (lossless)",
            k,
            crash_at,
            seed,
        ),
        probe_latencies(
            Protocol::dcpp_paper(),
            LossKind::Bernoulli(0.05),
            "DCPP probe (5% loss)",
            k,
            crash_at,
            seed,
        ),
        probe_latencies(
            Protocol::sapp_paper(),
            LossKind::None,
            "SAPP probe (lossless)",
            k,
            crash_at,
            seed,
        ),
    ];
    A4Report {
        rows,
        crash_at,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a4_all_configs_detect() {
        let r = a4_detection_latency(5, 120.0, 3);
        for row in &r.rows {
            assert_eq!(
                row.detected.0, row.detected.1,
                "{}: only {}/{} detected",
                row.label, row.detected.0, row.detected.1
            );
            assert!(row.mean_latency > 0.0, "{}", row.label);
        }
    }

    #[test]
    fn a4_dcpp_latency_bounded_by_wait_plus_verdict() {
        let r = a4_detection_latency(5, 120.0, 3);
        let dcpp = &r.rows[0];
        // Worst case: the CP just started its d_min..(k·δ_min) wait when the
        // crash hit, plus the 85 ms verdict. With 5 CPs the assigned wait is
        // ~max(d_min, 5·δ_min) = 0.5 s.
        assert!(
            dcpp.max_latency < 2.0,
            "DCPP max latency {}",
            dcpp.max_latency
        );
    }

    #[test]
    fn a4_renders() {
        let r = a4_detection_latency(2, 60.0, 1);
        assert!(r.to_string().contains("A4"));
        assert_eq!(r.rows.len(), 3);
    }
}

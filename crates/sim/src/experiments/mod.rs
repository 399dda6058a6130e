//! Experiment presets — one per paper artifact.
//!
//! The paper has no numbered tables; its quantitative evaluation consists of
//! in-text steady-state numbers (§3, §5) and Figures 2–5. Each preset here
//! regenerates one of those artifacts (E1–E7) or probes a design choice the
//! paper discusses qualitatively (A1–A4, A7–A8). [`CATALOG`] lists them all
//! for the one `experiments <id|all>` binary in `presence-bench`.
//!
//! | id | paper artifact |
//! |----|----------------|
//! | E1 | §3 steady-state: bimodal CP delays, device load ≈ `L_nom`, buffer ≈ 0.004 |
//! | E2 | Fig. 2: probe frequencies of 3 CPs over 20 000 s (starvation) |
//! | E3 | Fig. 3: 7 of 20 CPs over one minute (oscillation) |
//! | E4 | Fig. 4: 18 of 20 CPs leave at once |
//! | E5 | Fig. 5 + §5: DCPP under uniform-resample churn (load 9.7, var 20) |
//! | E6 | §5 claim: DCPP static fairness and load cap |
//! | E7 | §5 conjecture: packet loss widens DCPP join spikes |
//! | A1 | SAPP `α_inc`/`α_dec`/`β` sensitivity sweep |
//! | A2 | §2 device-side Δ-doubling load control |
//! | A3 | naive fixed-rate baseline over/underload |
//! | A4 | crash-detection latency of the probe protocols, with and without loss |
//! | A7 | (extension) sensitivity to SAPP's unstated initial δ |
//! | A8 | (extension) false absence verdicts under i.i.d. vs bursty loss |

mod a1_sapp_sweep;
mod a2_delta_double;
mod a3_baseline;
mod a4_detection;
mod a7_initial_delay;
mod a8_false_positives;
mod e1_steady_state;
mod e2_fig2;
mod e3_fig3;
mod e4_fig4;
mod e5_fig5;
mod e6_dcpp_static;
mod e7_loss;

use a1_sapp_sweep::a1_sapp_param_sweep;
use a2_delta_double::a2_delta_doubling;
use a3_baseline::a3_fixed_rate_baseline;
use a4_detection::a4_detection_latency;
use a7_initial_delay::a7_initial_delay;
use a8_false_positives::a8_false_positives;
use e1_steady_state::e1_sapp_steady_state;
use e2_fig2::{e2_fig2_three_cps, FigureReport};
use e3_fig3::e3_fig3_twenty_cps_minute;
use e4_fig4::e4_fig4_burst_leave;
use e5_fig5::{e5_fig5_dcpp_churn, E5Report};
use e6_dcpp_static::e6_dcpp_static_fairness;
use e7_loss::e7_dcpp_loss_spread;

use crate::{run_lab, Protocol, ScenarioConfig, ScenarioSpec};
use serde::Serialize;
use std::fmt::Display;

/// What one [`CATALOG`] run is asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The experiment's `--duration`. What it measures is the
    /// experiment's own business: a run length for most, the window start
    /// for E3, the crash instant for A4.
    pub duration: f64,
    /// Root seed.
    pub seed: u64,
    /// Workers for the experiments that fan out internally (A1's grid,
    /// E1's cross-check). Results are identical at any value.
    pub jobs: usize,
    /// Render the report as JSON instead of text.
    pub json: bool,
    /// Append what a standalone text run shows beyond the report: the
    /// ASCII chart of a figure, E1's independent-replications cross-check.
    pub extras: bool,
}

/// One row of the experiment catalog.
pub struct Experiment {
    /// Short id, as the paper-artifact table above numbers it (`"e1"` … `"a8"`).
    pub id: &'static str,
    /// `--duration` of a standalone run at paper scale.
    pub duration: f64,
    /// `--duration` of the reduced-scale run `experiments all` makes (at
    /// its default scale of 1).
    pub quick: f64,
    /// Runs the preset and renders its report; the text ends in a newline.
    pub run: fn(&RunArgs) -> String,
}

const fn row(
    id: &'static str,
    duration: f64,
    quick: f64,
    run: fn(&RunArgs) -> String,
) -> Experiment {
    Experiment {
        id,
        duration,
        quick,
        run,
    }
}

const KS: [u32; 7] = [1, 2, 5, 10, 20, 40, 60];

fn plain<R: Display + Serialize>(report: &R, args: &RunArgs) -> String {
    if args.json {
        serde_json::to_string_pretty(report).expect("report serialises") + "\n"
    } else {
        format!("{report}\n")
    }
}

/// The report, then its ASCII `chart` when a standalone text run shows
/// extras.
fn charted<R: Display + Serialize>(report: &R, chart: fn(&R) -> String, args: &RunArgs) -> String {
    let mut out = plain(report, args);
    if args.extras {
        out += &chart(report);
    }
    out
}

/// E1's headline numbers come from one long batch-means run (the paper's
/// methodology). A standalone text run also prints an independent-
/// replications cross-check of the same configuration — four extra seeds
/// — since batch means within one run is only trustworthy when it agrees
/// with genuinely independent runs.
fn run_e1(args: &RunArgs) -> String {
    let mut out = plain(&e1_sapp_steady_state(args.duration, args.seed), args);
    if args.extras {
        let seeds: Vec<u64> = (1..=4).map(|i| args.seed.wrapping_add(i)).collect();
        let check_duration = args.duration.min(5_000.0);
        let base =
            ScenarioConfig::paper_defaults(Protocol::sapp_paper(), 20, check_duration, args.seed);
        let spec = ScenarioSpec::new("e1-cross-check", "E1 at independent seeds", base);
        let report = run_lab(&spec, &seeds, args.jobs).expect("E1's cross-check spec is valid");
        let intervals = report.intervals().expect("four seeds give intervals");
        out += &format!(
            "cross-check: independent replications ({} seeds × {check_duration:.0} s)\n{intervals}",
            seeds.len()
        );
    }
    out
}

/// Every experiment, in report order (E1…E7, A1…A4, A7…A8).
pub const CATALOG: [Experiment; 13] = [
    row("e1", 20_000.0, 5_000.0, run_e1),
    row("e2", 20_000.0, 5_000.0, |a| {
        let report = e2_fig2_three_cps(a.duration, a.seed);
        charted(&report, FigureReport::to_ascii, a)
    }),
    row("e3", 12_300.0, 1_200.0, |a| {
        let report = e3_fig3_twenty_cps_minute(a.duration, a.seed);
        charted(&report, FigureReport::to_ascii, a)
    }),
    row("e4", 20_000.0, 5_000.0, |a| {
        let report = e4_fig4_burst_leave(a.duration, a.duration / 10.0, a.seed);
        charted(&report, FigureReport::to_ascii, a)
    }),
    row("e5", 3_000.0, 1_800.0, |a| {
        let report = e5_fig5_dcpp_churn(a.duration, a.seed);
        charted(&report, E5Report::to_ascii, a)
    }),
    row("e6", 2_000.0, 500.0, |a| {
        plain(&e6_dcpp_static_fairness(&KS, a.duration, a.seed), a)
    }),
    row("e7", 3_000.0, 1_000.0, |a| {
        plain(&e7_dcpp_loss_spread(a.duration, a.seed), a)
    }),
    row("a1", 2_000.0, 500.0, |a| {
        plain(&a1_sapp_param_sweep(20, a.duration, a.seed, a.jobs), a)
    }),
    row("a2", 10_000.0, 8_000.0, |a| {
        plain(&a2_delta_doubling(20, a.duration, a.seed), a)
    }),
    row("a3", 1_000.0, 500.0, |a| {
        plain(&a3_fixed_rate_baseline(&KS, a.duration, a.seed), a)
    }),
    row("a4", 300.0, 300.0, |a| {
        plain(&a4_detection_latency(20, a.duration, a.seed), a)
    }),
    row("a7", 20_000.0, 2_000.0, |a| {
        plain(&a7_initial_delay(20, a.duration, a.seed), a)
    }),
    row("a8", 5_000.0, 2_000.0, |a| {
        plain(&a8_false_positives(20, a.duration, a.seed), a)
    }),
];

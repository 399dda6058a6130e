//! Terminal-friendly analytics over a parsed trace — the `spotter` bin's
//! engine: busiest actors, the regime-switch timeline, per-phase fairness
//! (Jain's index over the per-CP frequency counters between switches), and
//! probe-cycle latency percentiles from the flow events.

use crate::reader::ChromeTrace;
use presence_stats::jain_index;
use std::collections::HashMap;

/// Latency percentiles in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// One regime phase and its fairness figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseFairness {
    /// Phase start (µs).
    pub begin_us: f64,
    /// Phase end (µs).
    pub end_us: f64,
    /// Jain's fairness index over per-CP mean probe frequency in the
    /// phase (1.0 = perfectly fair), or `None` when no CP counter
    /// samples fall inside the phase.
    pub jain: Option<f64>,
}

/// Everything `spotter` prints.
#[derive(Debug, Clone, Default)]
pub struct SpotterReport {
    /// `(track name, activity)` sorted busiest-first, where activity is
    /// the number of slices and instants on the track.
    pub busiest: Vec<(String, usize)>,
    /// `(time µs, switch ordinal)` of every regime switch, in time order.
    pub regime_switches: Vec<(f64, u64)>,
    /// Fairness per regime phase (phases are delimited by the switches
    /// and the trace's own time bounds).
    pub phases: Vec<PhaseFairness>,
    /// Probe cycles started (`s` flow events).
    pub cycles_started: usize,
    /// Probe cycles completed (`s` matched by `f`).
    pub cycles_completed: usize,
    /// Latency percentiles over completed cycles.
    pub cycle_latency: Option<Percentiles>,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let index = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[index.min(sorted.len() - 1)]
}

/// Distils a [`SpotterReport`] from a parsed trace, keeping the `top_n`
/// busiest tracks.
#[must_use]
pub fn analyze(trace: &ChromeTrace, top_n: usize) -> SpotterReport {
    let mut report = SpotterReport::default();

    // Busiest tracks: slices + instants per tid.
    let mut activity: HashMap<u64, usize> = HashMap::new();
    for event in &trace.events {
        if matches!(event.ph.as_str(), "X" | "i") {
            if let Some(tid) = event.tid {
                *activity.entry(tid).or_insert(0) += 1;
            }
        }
    }
    let mut busiest: Vec<(String, usize)> = activity
        .into_iter()
        .map(|(tid, count)| {
            let name = trace
                .thread_name(tid)
                .map_or_else(|| format!("tid{tid}"), str::to_string);
            (name, count)
        })
        .collect();
    busiest.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    busiest.truncate(top_n);
    report.busiest = busiest;

    // Regime-switch timeline.
    for event in &trace.events {
        if event.ph == "i" && event.name == "regime_switch" {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let ordinal = event.arg_f64("switch").unwrap_or(0.0) as u64;
            report.regime_switches.push((event.ts, ordinal));
        }
    }
    report
        .regime_switches
        .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    // Per-phase fairness from the per-CP frequency counters.
    let mut cp_samples: HashMap<&str, Vec<(f64, f64)>> = HashMap::new();
    let mut bounds: Option<(f64, f64)> = None;
    for event in &trace.events {
        if event.ph == "M" {
            continue;
        }
        let (lo, hi) = bounds.get_or_insert((event.ts, event.ts));
        *lo = lo.min(event.ts);
        *hi = hi.max(event.ts);
        if event.ph == "C" && event.name.starts_with("cp") && event.name.ends_with(".frequency") {
            if let Some(value) = event.arg_f64("value") {
                cp_samples
                    .entry(event.name.as_str())
                    .or_default()
                    .push((event.ts, value));
            }
        }
    }
    if let Some((lo, hi)) = bounds {
        let mut cuts = vec![lo];
        cuts.extend(report.regime_switches.iter().map(|&(ts, _)| ts));
        cuts.push(hi);
        for window in cuts.windows(2) {
            let (begin, end) = (window[0], window[1]);
            let means: Vec<f64> = cp_samples
                .values()
                .filter_map(|samples| {
                    let in_phase: Vec<f64> = samples
                        .iter()
                        .filter(|&&(ts, _)| ts >= begin && ts <= end)
                        .map(|&(_, v)| v)
                        .collect();
                    if in_phase.is_empty() {
                        None
                    } else {
                        #[allow(clippy::cast_precision_loss)]
                        Some(in_phase.iter().sum::<f64>() / in_phase.len() as f64)
                    }
                })
                .collect();
            report.phases.push(PhaseFairness {
                begin_us: begin,
                end_us: end,
                jain: (!means.is_empty()).then(|| jain_index(&means)),
            });
        }
    }

    // Probe-cycle latency from the flow events.
    let mut starts: HashMap<u64, f64> = HashMap::new();
    let mut latencies: Vec<f64> = Vec::new();
    for event in &trace.events {
        match event.ph.as_str() {
            "s" => {
                if let Some(id) = event.id {
                    starts.insert(id, event.ts);
                    report.cycles_started += 1;
                }
            }
            "f" => {
                if let Some(begin) = event.id.and_then(|id| starts.get(&id)) {
                    latencies.push(event.ts - begin);
                    report.cycles_completed += 1;
                }
            }
            _ => {}
        }
    }
    if !latencies.is_empty() {
        latencies.sort_by(f64::total_cmp);
        report.cycle_latency = Some(Percentiles {
            p50: percentile(&latencies, 50.0),
            p90: percentile(&latencies, 90.0),
            p99: percentile(&latencies, 99.0),
        });
    }
    report
}

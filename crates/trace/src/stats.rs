//! Terminal-friendly analytics over a parsed trace — the `spotter` bin's
//! engine: busiest actors, probe-cycle latency percentiles from the flow
//! events, and the run the trace records ([`TraceRun`]). That last part
//! holds no fold of its own: `spotter` slices it into regime windows with
//! the scenario lab's code, so it prints what `lab` prints for the run.

use crate::reader::ChromeTrace;
use std::collections::{HashMap, HashSet};

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

/// What a trace records of its run, in seconds: the timeline marks that
/// bound its regime windows, and the series the scenario lab's window
/// fold reads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceRun {
    /// `regime_switch` instants, in time order.
    pub switches: Vec<f64>,
    /// The `failure` instant, if the run had a device crash or Bye.
    pub failure: Option<f64>,
    /// The `run_end` instant; `None` in a trace that does not mark it.
    pub end: Option<f64>,
    /// `device.load` samples.
    pub load: Vec<(f64, f64)>,
    /// `population` samples.
    pub population: Vec<(f64, f64)>,
    /// The samples of each `cpN.frequency` counter, in file order.
    pub frequencies: Vec<Vec<(f64, f64)>>,
    /// The first `absent` instant of each track that has one, in file
    /// order: each CP's first verdict.
    pub verdicts: Vec<f64>,
}

/// Everything `spotter` prints.
#[derive(Debug, Clone, Default)]
pub struct SpotterReport {
    /// `(track name, activity)` sorted busiest-first, where activity is
    /// the number of slices and instants on the track.
    pub busiest: Vec<(String, usize)>,
    /// The run the trace records.
    pub run: TraceRun,
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

    // The run: timeline marks, the counters the window fold reads, and
    // each track's first verdict.
    let run = &mut report.run;
    let mut frequency_of: HashMap<&str, usize> = HashMap::new();
    let mut verdict_tracks: HashSet<Option<u64>> = HashSet::new();
    for event in &trace.events {
        let secs = event.ts / 1e6;
        match (event.ph.as_str(), event.name.as_str()) {
            ("i", "regime_switch") => run.switches.push(secs),
            ("i", "failure") => {
                run.failure.get_or_insert(secs);
            }
            ("i", "run_end") => run.end = Some(secs),
            ("i", "absent") if verdict_tracks.insert(event.tid) => run.verdicts.push(secs),
            ("C", name) => {
                let Some(sample) = event.arg_f64("value").map(|v| (secs, v)) else {
                    continue;
                };
                if name == "device.load" {
                    run.load.push(sample);
                } else if name == "population" {
                    run.population.push(sample);
                } else if name.starts_with("cp") && name.ends_with(".frequency") {
                    let index = *frequency_of.entry(name).or_insert_with(|| {
                        run.frequencies.push(Vec::new());
                        run.frequencies.len() - 1
                    });
                    run.frequencies[index].push(sample);
                }
            }
            _ => {}
        }
    }
    run.switches.sort_by(f64::total_cmp);

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

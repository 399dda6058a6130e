//! Structural invariants a well-formed presence trace must satisfy.
//!
//! Checked by the CI trace stage and the proptest battery: the trace has
//! events at all, phases are from the known set, every sliced/instant
//! event lands on a named track, every flow begins before it ends, and
//! every counter series is time-monotone.

use crate::reader::ChromeTrace;
use std::collections::{HashMap, HashSet};

/// Summary counts from a successful validation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events.
    pub events: usize,
    /// Named tracks (`thread_name` metadata events).
    pub tracks: usize,
    /// `X` slices.
    pub slices: usize,
    /// `i` instants.
    pub instants: usize,
    /// Flows started (`s`).
    pub flows_started: usize,
    /// Flows finished (`f`).
    pub flows_finished: usize,
    /// Distinct counter names (`C`).
    pub counter_tracks: usize,
}

#[derive(Default)]
struct FlowAgg {
    start: Option<f64>,
    finish: Option<f64>,
    steps: Vec<f64>,
}

/// Validates `trace`, returning summary counts.
///
/// # Errors
///
/// Returns a description of the first violated invariant: no events at
/// all (an export that wrote nothing), an unknown phase, an unnamed
/// track, a negative-duration slice, a flow that ends before it starts
/// (or never started), a duplicated flow endpoint, or a counter whose
/// samples go backwards in time.
pub fn validate(trace: &ChromeTrace) -> Result<TraceCheck, String> {
    if trace.events.is_empty() {
        return Err("the trace has no events".to_string());
    }
    let mut check = TraceCheck {
        events: trace.events.len(),
        ..TraceCheck::default()
    };
    let named: HashSet<u64> = trace
        .events
        .iter()
        .filter(|e| e.ph == "M" && e.name == "thread_name")
        .filter_map(|e| e.tid)
        .collect();
    check.tracks = named.len();
    let mut flows: HashMap<u64, FlowAgg> = HashMap::new();
    let mut counter_last: HashMap<&str, f64> = HashMap::new();
    for (index, event) in trace.events.iter().enumerate() {
        match event.ph.as_str() {
            "M" => {}
            "X" | "i" | "s" | "t" | "f" => {
                let tid = event
                    .tid
                    .ok_or_else(|| format!("event {index} ({}) has no tid", event.ph))?;
                if !named.contains(&tid) {
                    return Err(format!(
                        "event {index} ({}) on unnamed track {tid}",
                        event.ph
                    ));
                }
                match event.ph.as_str() {
                    "X" => {
                        check.slices += 1;
                        let dur = event
                            .dur
                            .ok_or_else(|| format!("slice {index} has no dur"))?;
                        if dur < 0.0 {
                            return Err(format!("slice {index} has negative dur {dur}"));
                        }
                    }
                    "i" => check.instants += 1,
                    flow_ph => {
                        let id = event
                            .id
                            .ok_or_else(|| format!("flow event {index} has no id"))?;
                        let agg = flows.entry(id).or_default();
                        match flow_ph {
                            "s" => {
                                if agg.start.replace(event.ts).is_some() {
                                    return Err(format!("flow {id} started twice"));
                                }
                                check.flows_started += 1;
                            }
                            "t" => agg.steps.push(event.ts),
                            _ => {
                                if agg.finish.replace(event.ts).is_some() {
                                    return Err(format!("flow {id} finished twice"));
                                }
                                check.flows_finished += 1;
                            }
                        }
                    }
                }
            }
            "C" => {
                let last = counter_last.entry(event.name.as_str()).or_insert(f64::MIN);
                if event.ts < *last {
                    return Err(format!(
                        "counter `{}` goes backwards in time at event {index} ({} < {})",
                        event.name, event.ts, last
                    ));
                }
                *last = event.ts;
            }
            other => return Err(format!("event {index} has unknown phase `{other}`")),
        }
    }
    check.counter_tracks = counter_last.len();
    for (id, agg) in &flows {
        let Some(start) = agg.start else {
            return Err(format!("flow {id} has steps/finish but never started"));
        };
        for &step in &agg.steps {
            if step < start {
                return Err(format!("flow {id} steps before it starts"));
            }
        }
        if let Some(finish) = agg.finish {
            if finish < start {
                return Err(format!(
                    "flow {id} finishes at {finish} before starting at {start}"
                ));
            }
            // Steps *after* the finish are legal: the device may process a
            // retransmitted probe after an earlier reply already completed
            // the cycle.
        }
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::parse;

    #[test]
    fn a_trace_without_events_is_rejected() {
        let empty = parse("{\"traceEvents\":[]}").expect("parses");
        assert_eq!(validate(&empty), Err("the trace has no events".to_string()));
        let named = parse("{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0}]}")
            .expect("parses");
        assert_eq!(validate(&named).map(|check| check.events), Ok(1));
    }
}

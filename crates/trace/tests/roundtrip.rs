//! Deterministic end-to-end exercise of the writer, reader, validator,
//! and spotter analytics on a small hand-built model — its regime windows
//! sliced by the scenario lab's fold, as `spotter` slices them.

use presence_sim::slice_trace;
use presence_trace::{
    analyze, parse, validate, write_chrome_json, FlowPhase, PointKind, TraceModel, TraceRun,
};

fn sample_model() -> TraceModel {
    let mut model = TraceModel::default();
    let cp0 = model.add_track("cp0", Some(0));
    let cp1 = model.add_track("cp1", Some(1));
    let device = model.add_track("device", Some(2));

    // Two complete cycles on cp0, one in-flight on cp1.
    for (id, cp, t0) in [(1u64, cp0, 1_000_000u64), (2, cp0, 5_000_000)] {
        model.push_point(
            t0,
            cp,
            PointKind::Flow {
                id,
                phase: FlowPhase::ProbeSend,
            },
        );
        model.push_point(
            t0 + 200_000,
            device,
            PointKind::Flow {
                id,
                phase: FlowPhase::ProbeRecv,
            },
        );
        model.push_point(
            t0 + 450_000,
            device,
            PointKind::Flow {
                id,
                phase: FlowPhase::ReplySend,
            },
        );
        model.push_point(
            t0 + 700_000,
            cp,
            PointKind::Flow {
                id,
                phase: FlowPhase::ReplyRecv,
            },
        );
    }
    model.push_point(
        9_000_000,
        cp1,
        PointKind::Flow {
            id: 3,
            phase: FlowPhase::ProbeSend,
        },
    );
    model.push_point(9_500_000, cp1, PointKind::Absent);
    model.push_point(9_800_000, cp1, PointKind::Absent);
    model.push_point(4_000_000, device, PointKind::RegimeSwitch);
    model.push_point(9_000_000, device, PointKind::Failure);
    model.push_point(10_000_000, device, PointKind::RunEnd);
    model.add_counter("cp0.frequency", vec![(2_000_000, 4.0), (6_000_000, 2.0)]);
    model.add_counter("cp1.frequency", vec![(2_000_000, 4.0), (6_000_000, 6.0)]);
    model.add_counter("device.load", vec![(1_000_000, 0.2), (8_000_000, 0.4)]);
    model
}

#[test]
fn writes_parses_validates_and_analyzes() {
    let json = write_chrome_json(&sample_model());
    assert!(json.starts_with("{\"traceEvents\":["));
    let trace = parse(&json).expect("parses");
    let check = validate(&trace).expect("validates");
    assert_eq!(check.tracks, 3);
    assert_eq!(check.flows_started, 3);
    assert_eq!(check.flows_finished, 2);
    assert_eq!(check.counter_tracks, 3);
    assert!(check.slices > 0 && check.instants == 5);

    let report = analyze(&trace, 3);
    assert_eq!(report.cycles_started, 3);
    assert_eq!(report.cycles_completed, 2);
    let latency = report.cycle_latency.expect("two completed cycles");
    assert!((latency.p50 - 700.0).abs() < 1e-9, "700 µs cycles");
    // The run, in seconds: cp1's second verdict is not its first.
    assert_eq!(
        report.run,
        TraceRun {
            switches: vec![0.004],
            failure: Some(0.009),
            end: Some(0.01),
            load: vec![(0.001, 0.2), (0.008, 0.4)],
            population: vec![],
            frequencies: vec![
                vec![(0.002, 4.0), (0.006, 2.0)],
                vec![(0.002, 4.0), (0.006, 6.0)],
            ],
            verdicts: vec![0.0095],
        }
    );
    // Two windows around the switch, closed at the run's end; fairness
    // defined in both (cp0 and cp1 sampled at 2 ms and 6 ms).
    let slices = slice_trace(&report.run).expect("the trace marks its end");
    let windows: Vec<(f64, f64)> = slices.iter().map(|s| (s.start, s.end)).collect();
    assert_eq!(windows, vec![(0.0, 0.004), (0.004, 0.01)]);
    // Window 1: equal frequencies -> perfectly fair; window 2: 2 vs 6.
    assert!((slices[0].fairness_jain.unwrap() - 1.0).abs() < 1e-9);
    assert!(slices[1].fairness_jain.unwrap() < 1.0);
    assert_eq!(slices[0].load_mean, Some(0.2));
    assert_eq!(slices[1].load_mean, Some(0.4));
    // The one first verdict lands in window 2, 0.5 ms after the crash.
    assert_eq!((slices[0].detections, slices[1].detections), (0, 1));
    assert!((slices[1].detection_latency_mean.unwrap() - 0.0005).abs() < 1e-12);
    assert_eq!(report.busiest.len(), 3);
    assert_eq!(report.busiest[0].0, "device");
}

/// A probe the device processes twice (a retransmission, or a re-joined
/// CP's restarted sequence) gets one service span per pass, each reply
/// paired with the latest receipt before it; a reply stamped before that
/// receipt (a track out of time order) gets none.
#[test]
fn a_probe_processed_twice_gets_a_span_per_pass() {
    let mut model = TraceModel::default();
    let device = model.add_track("device", Some(0));
    let flow = |id, phase| PointKind::Flow { id, phase };
    for (t, id, phase) in [
        (1_000_000, 7, FlowPhase::ProbeRecv),
        (1_250_000, 7, FlowPhase::ReplySend),
        (3_000_000, 7, FlowPhase::ProbeRecv),
        (3_400_000, 7, FlowPhase::ReplySend),
        (6_000_000, 8, FlowPhase::ProbeRecv),
        (5_000_000, 8, FlowPhase::ReplySend),
    ] {
        model.push_point(t, device, flow(id, phase));
    }
    let trace = parse(&write_chrome_json(&model)).expect("parses");
    let spans: Vec<(f64, Option<f64>)> = (trace.events.iter())
        .filter(|e| e.name == "process")
        .map(|e| (e.ts, e.dur))
        .collect();
    assert_eq!(spans, vec![(1_000.0, Some(250.0)), (3_000.0, Some(400.0))]);
}

#[test]
fn output_is_byte_deterministic() {
    let a = write_chrome_json(&sample_model());
    let b = write_chrome_json(&sample_model());
    assert_eq!(a, b);
}

#[test]
fn reader_rejects_garbage() {
    assert!(parse("not json").is_err());
    assert!(parse("{}").is_err());
    assert!(parse("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
}

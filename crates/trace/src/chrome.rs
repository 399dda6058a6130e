//! Serialises a [`TraceModel`] to the Chrome JSON trace format.
//!
//! The output loads directly in Perfetto's trace viewer (and in Chrome's
//! legacy `about:tracing`): one process (pid 0) with one named thread per
//! actor track, dur-0 `X` slices for lifecycle points (so flow arrows have
//! slices to bind to), a real-duration `process` slice on the device track
//! for each probe's service time, `s`/`t`/`f` flow events stitching every
//! probe→reply lifecycle across the network hops, `i` instants for absence
//! verdicts and for the run's timeline (regime switches, the device
//! failure, the run's end), and `C` counter samples.
//!
//! Output is byte-deterministic: events are emitted in model order, object
//! keys are insertion-ordered, and floats use shortest round-trip
//! formatting — the properties the golden-fixture test pins.

use crate::model::{EngineEventKind, FlowPhase, PointKind, TraceModel};
use serde::Value;
use std::collections::HashMap;

/// Microsecond timestamp for Perfetto (fractional µs keep full ns
/// precision as the shortest round-trip decimal).
#[allow(clippy::cast_precision_loss)]
fn ts_us(time_ns: u64) -> f64 {
    time_ns as f64 / 1000.0
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

fn push_event(out: &mut String, first: &mut bool, event: &Value) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str(&serde_json::to_string(event).expect("value serialisation is infallible"));
}

fn phase_slice_name(phase: FlowPhase) -> &'static str {
    match phase {
        FlowPhase::ProbeSend => "probe_send",
        FlowPhase::ProbeRecv => "probe_recv",
        FlowPhase::ReplySend => "reply_send",
        FlowPhase::ReplyRecv => "reply_recv",
    }
}

/// `s` begins a flow at the probe send, `t` steps it through the device,
/// `f` finishes it at the reply receive.
fn phase_flow_ph(phase: FlowPhase) -> &'static str {
    match phase {
        FlowPhase::ProbeSend => "s",
        FlowPhase::ProbeRecv | FlowPhase::ReplySend => "t",
        FlowPhase::ReplyRecv => "f",
    }
}

fn engine_slice_name(kind: EngineEventKind) -> &'static str {
    match kind {
        EngineEventKind::Dispatch => "dispatch",
        EngineEventKind::TimerArm => "timer_arm",
        EngineEventKind::TimerCancel => "timer_cancel",
        EngineEventKind::TimerFire => "timer_fire",
    }
}

/// Renders the model as a Chrome JSON trace (`{"traceEvents":[...]}`),
/// one event per line.
#[must_use]
pub fn write_chrome_json(model: &TraceModel) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;

    // Process + thread metadata name the tracks in the viewer.
    push_event(
        &mut out,
        &mut first,
        &obj(vec![
            ("name", s("process_name")),
            ("ph", s("M")),
            ("pid", Value::U64(0)),
            ("tid", Value::U64(0)),
            ("args", obj(vec![("name", s("presence"))])),
        ]),
    );
    for (tid, track) in model.tracks.iter().enumerate() {
        push_event(
            &mut out,
            &mut first,
            &obj(vec![
                ("name", s("thread_name")),
                ("ph", s("M")),
                ("pid", Value::U64(0)),
                ("tid", Value::U64(tid as u64)),
                ("args", obj(vec![("name", s(&track.name))])),
            ]),
        );
    }

    // Device service spans: a real-duration `process` slice per probe that
    // has both its recv and its send on the same track. A flow id can be
    // processed more than once (a retransmitted probe, or a re-joined CP
    // whose fresh prober restarts its sequence), so each send pairs with
    // the latest recv before it (each track's flow points are in time
    // order); a send timed before that recv breaks the order and gets no
    // span rather than a wrapped duration.
    let mut recv_at: HashMap<(u32, u64), u64> = HashMap::new();
    for point in &model.points {
        let PointKind::Flow { id, phase } = point.kind else {
            continue;
        };
        if phase == FlowPhase::ProbeRecv {
            recv_at.insert((point.track, id), point.time_ns);
        }
        if phase != FlowPhase::ReplySend {
            continue;
        }
        let Some((begin, dur)) = (recv_at.get(&(point.track, id)))
            .and_then(|&begin| Some((begin, point.time_ns.checked_sub(begin)?)))
        else {
            continue;
        };
        push_event(
            &mut out,
            &mut first,
            &obj(vec![
                ("name", s("process")),
                ("cat", s("device")),
                ("ph", s("X")),
                ("ts", Value::F64(ts_us(begin))),
                ("dur", Value::F64(ts_us(dur))),
                ("pid", Value::U64(0)),
                ("tid", Value::U64(u64::from(point.track))),
                ("args", obj(vec![("flow", Value::U64(id))])),
            ]),
        );
    }

    // Lifecycle points: a dur-0 slice (the flow's anchor) plus the flow
    // event itself; instants for verdicts and the run's timeline.
    for point in &model.points {
        let tid = Value::U64(u64::from(point.track));
        let ts = Value::F64(ts_us(point.time_ns));
        match point.kind {
            PointKind::Flow { id, phase } => {
                push_event(
                    &mut out,
                    &mut first,
                    &obj(vec![
                        ("name", s(phase_slice_name(phase))),
                        ("cat", s("probe")),
                        ("ph", s("X")),
                        ("ts", ts.clone()),
                        ("dur", Value::F64(0.0)),
                        ("pid", Value::U64(0)),
                        ("tid", tid.clone()),
                        ("args", obj(vec![("flow", Value::U64(id))])),
                    ]),
                );
                let mut fields = vec![
                    ("name", s("probe")),
                    ("cat", s("probe")),
                    ("ph", s(phase_flow_ph(phase))),
                    ("id", Value::U64(id)),
                    ("ts", ts),
                    ("pid", Value::U64(0)),
                    ("tid", tid),
                ];
                if phase == FlowPhase::ReplyRecv {
                    // Bind the finish to the enclosing slice's start.
                    fields.push(("bp", s("e")));
                }
                push_event(&mut out, &mut first, &obj(fields));
            }
            PointKind::Absent => push_event(
                &mut out,
                &mut first,
                &obj(vec![
                    ("name", s("absent")),
                    ("cat", s("verdict")),
                    ("ph", s("i")),
                    ("ts", ts),
                    ("pid", Value::U64(0)),
                    ("tid", tid),
                    ("s", s("t")),
                ]),
            ),
            PointKind::RegimeSwitch | PointKind::Failure | PointKind::RunEnd => {
                let name = match point.kind {
                    PointKind::RegimeSwitch => "regime_switch",
                    PointKind::Failure => "failure",
                    _ => "run_end",
                };
                // Global scope: a mark of the run's timeline spans every
                // track in the viewer.
                push_event(
                    &mut out,
                    &mut first,
                    &obj(vec![
                        ("name", s(name)),
                        ("cat", s("timeline")),
                        ("ph", s("i")),
                        ("ts", ts),
                        ("pid", Value::U64(0)),
                        ("tid", tid),
                        ("s", s("g")),
                    ]),
                );
            }
        }
    }

    // Counter samples.
    for counter in &model.counters {
        for &(time_ns, value) in &counter.samples {
            push_event(
                &mut out,
                &mut first,
                &obj(vec![
                    ("name", s(&counter.name)),
                    ("ph", s("C")),
                    ("ts", Value::F64(ts_us(time_ns))),
                    ("pid", Value::U64(0)),
                    ("args", obj(vec![("value", Value::F64(value))])),
                ]),
            );
        }
    }

    // The engine stream, routed onto the actor tracks.
    for event in &model.engine {
        let Some(track) = model.track_of_actor(event.actor) else {
            continue;
        };
        push_event(
            &mut out,
            &mut first,
            &obj(vec![
                ("name", s(engine_slice_name(event.kind))),
                ("cat", s("engine")),
                ("ph", s("X")),
                ("ts", Value::F64(ts_us(event.time_ns))),
                ("dur", Value::F64(0.0)),
                ("pid", Value::U64(0)),
                ("tid", Value::U64(u64::from(track))),
            ]),
        );
    }

    out.push_str("\n]}\n");
    out
}

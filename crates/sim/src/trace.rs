//! Per-actor trace capture behind the `presence-trace` layer.
//!
//! Every actor that participates in a probe lifecycle owns an
//! `Option<Box<…Trace>>` buffer, `None` by default: the steady-state loop
//! pays exactly one predictable branch per emission point and allocates
//! nothing while tracing is off (the PR 5 alloc gate runs with tracing
//! disabled and stays green). [`crate::Scenario::enable_trace`] installs
//! the buffers; `collect_trace` drains them into a
//! [`presence_trace::TraceModel`] in actor-id order (each buffer is filled
//! by exactly one actor), so the assembled model — and the serialised
//! Chrome JSON — is a pure function of the trajectory.
//!
//! All buffers share an `until_ns` horizon so a `--trace-until` cap bounds
//! trace size uniformly: an event past the horizon is dropped by every
//! recorder, never by just some of them (no orphan flow steps).
//!
//! No actor records the run's timeline. Its regime switches and its
//! device failure are fixed by the spec that built the run: the scenario
//! marks each switch on its `Timeline` as it posts the switch's event,
//! and the spec sets the failure; `into_model` writes them, and the run's
//! end, as instants on the device track. A trace reader cuts
//! its regime windows at exactly the instants [`crate::run_lab`] does.
//!
//! The engine stream has two sources, neither of them inside the engine:
//! its `Dispatch` records come from the simulation's dispatch hook, which
//! the scenario installs, and its timer records from the CPs, which own
//! every protocol timer and note each arm, cancel and fire in their
//! [`CpTrace`]. `into_model` merges the two in a stable `(time, actor)`
//! order: within one instant and actor, the deliveries come first, then
//! the timer actions in the order the CP took them.

use crate::metrics::ScenarioResult;
use presence_core::CpId;
use presence_trace::{EngineEvent, EngineEventKind, FlowPhase, PointKind, TraceModel};
use std::collections::BTreeSet;

/// Nanoseconds per fabric-counter sampling bucket: the network recorders
/// keep at most one sample per simulated millisecond so counter tracks
/// stay bounded on message-heavy runs.
const SAMPLE_BUCKET_NS: u64 = 1_000_000;

/// The flow id stitching one probe cycle across CP → network → device →
/// network → CP: the CP's identity in the high bits, the per-session
/// cycle sequence number in the low 40. Both endpoints of the lifecycle
/// can compute it locally (the probe carries `cp` and `seq` on the wire).
#[must_use]
pub fn flow_id(cp: CpId, seq: u64) -> u64 {
    (u64::from(cp.0) << 40) | (seq & 0xFF_FFFF_FFFF)
}

/// CP-side lifecycle recorder: probe sends, reply receipts, absence
/// verdicts and, for the engine stream, protocol timer actions.
#[derive(Debug)]
pub struct CpTrace {
    until_ns: u64,
    /// `(time_ns, flow id, phase)` in emission (= time) order.
    pub flows: Vec<(u64, u64, FlowPhase)>,
    /// Absence-verdict instants (ns).
    pub absents: Vec<u64>,
    /// `(time_ns, kind)` of every timer arm, cancel and fire, in the order
    /// the CP took them; `None` unless the engine stream was requested.
    pub timers: Option<Vec<(u64, EngineEventKind)>>,
    /// Sequence numbers whose flow start was recorded. A retransmission
    /// reuses its cycle's `seq`, and a re-joined CP's fresh prober restarts
    /// the sequence — both would duplicate a flow start, which the trace
    /// format forbids; only the first send per seq opens the flow.
    started: BTreeSet<u64>,
    /// Sequence numbers whose flow finish was recorded (a stale reply must
    /// not finish a flow twice).
    done: BTreeSet<u64>,
}

impl CpTrace {
    pub(crate) fn new(until_ns: u64, timers: bool) -> Self {
        Self {
            until_ns,
            flows: Vec::new(),
            absents: Vec::new(),
            timers: timers.then(Vec::new),
            started: BTreeSet::new(),
            done: BTreeSet::new(),
        }
    }

    pub(crate) fn probe_send(&mut self, time_ns: u64, cp: CpId, seq: u64) {
        if time_ns <= self.until_ns && self.started.insert(seq) {
            self.flows
                .push((time_ns, flow_id(cp, seq), FlowPhase::ProbeSend));
        }
    }

    pub(crate) fn reply_recv(&mut self, time_ns: u64, cp: CpId, seq: u64) {
        if time_ns <= self.until_ns && self.started.contains(&seq) && self.done.insert(seq) {
            self.flows
                .push((time_ns, flow_id(cp, seq), FlowPhase::ReplyRecv));
        }
    }

    pub(crate) fn absent(&mut self, time_ns: u64) {
        if time_ns <= self.until_ns {
            self.absents.push(time_ns);
        }
    }

    pub(crate) fn timer(&mut self, time_ns: u64, kind: EngineEventKind) {
        if let Some(timers) = &mut self.timers {
            if time_ns <= self.until_ns {
                timers.push((time_ns, kind));
            }
        }
    }
}

/// Device-side lifecycle recorder: probe receipts and (scheduled) reply
/// departures. No dedup is needed — repeated processing of a retransmitted
/// probe records extra flow *steps*, which the format allows.
#[derive(Debug)]
pub struct DeviceTrace {
    until_ns: u64,
    /// `(time_ns, flow id, phase)`; `ReplySend` entries are pushed out of
    /// time order (the departure lies one processing delay in the future),
    /// so the collector sorts this buffer once before building the model.
    pub flows: Vec<(u64, u64, FlowPhase)>,
}

impl DeviceTrace {
    pub(crate) fn new(until_ns: u64) -> Self {
        Self {
            until_ns,
            flows: Vec::new(),
        }
    }

    pub(crate) fn probe(&mut self, recv_ns: u64, send_ns: u64, cp: CpId, seq: u64) {
        let id = flow_id(cp, seq);
        if recv_ns <= self.until_ns {
            self.flows.push((recv_ns, id, FlowPhase::ProbeRecv));
        }
        if send_ns <= self.until_ns {
            self.flows.push((send_ns, id, FlowPhase::ReplySend));
        }
    }

    pub(crate) fn sorted_flows(mut self) -> Vec<(u64, u64, FlowPhase)> {
        self.flows
            .sort_by_key(|&(t, id, phase)| (t, id, matches!(phase, FlowPhase::ReplySend)));
        self.flows
    }
}

/// Network recorder: in-flight counter samples, at most one per
/// simulated millisecond.
#[derive(Debug)]
pub struct NetTrace {
    until_ns: u64,
    last_bucket: Option<u64>,
    /// `(time_ns, fabric in-flight count)`.
    pub in_flight: Vec<(u64, f64)>,
}

impl NetTrace {
    pub(crate) fn new(until_ns: u64) -> Self {
        Self {
            until_ns,
            last_bucket: None,
            in_flight: Vec::new(),
        }
    }

    /// Whether a sample should be taken at `time_ns` (claims the bucket).
    pub(crate) fn wants_sample(&mut self, time_ns: u64) -> bool {
        if time_ns > self.until_ns {
            return false;
        }
        let bucket = time_ns / SAMPLE_BUCKET_NS;
        if self.last_bucket == Some(bucket) {
            return false;
        }
        self.last_bucket = Some(bucket);
        true
    }

    #[allow(clippy::cast_precision_loss)]
    pub(crate) fn sample(&mut self, time_ns: u64, in_flight: usize) {
        self.in_flight.push((time_ns, in_flight as f64));
    }
}

/// The run's timeline, fixed by the spec that built it before the run
/// starts — the trace's only source of regime-window boundaries.
#[derive(Debug, Default)]
pub(crate) struct Timeline {
    /// Every regime switch instant (ns), of any kind, in spec order.
    pub(crate) switches: Vec<u64>,
    /// The scheduled device crash or Bye (ns).
    pub(crate) failure: Option<u64>,
}

/// Everything a scenario drains out of its actors and dispatch hook after
/// a traced run, keyed by actor index.
pub(crate) struct TraceCapture<'a> {
    /// The run's end: its horizon, or the trace cap when that is earlier.
    pub(crate) end_ns: u64,
    pub(crate) timeline: &'a Timeline,
    pub(crate) net: (usize, Option<Box<NetTrace>>),
    pub(crate) device: (usize, Option<Box<DeviceTrace>>),
    /// `(actor index, buffer)` per CP, in `CpId` order.
    pub(crate) cps: Vec<(usize, Option<Box<CpTrace>>)>,
    /// The churn actor's index (its track carries its engine stream).
    pub(crate) churn: usize,
    /// `(time_ns, target actor)` per delivery, in firing order; empty
    /// unless the engine stream was requested.
    pub(crate) dispatches: Vec<(u64, usize)>,
}

/// Seconds → virtual nanoseconds, for series recorded in float seconds.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn secs_ns(t: f64) -> u64 {
    (t * 1e9).round().max(0.0) as u64
}

impl TraceCapture<'_> {
    /// Assembles the final [`TraceModel`]: one track per actor, lifecycle
    /// points from the live buffers, the run's timeline, counter tracks
    /// synthesised from the collected result's series, and the engine
    /// stream merged from the dispatch records and the CPs' timer records.
    pub(crate) fn into_model(self, result: &ScenarioResult) -> TraceModel {
        let cap = self.end_ns;
        let mut model = TraceModel::default();
        // `net0`: the track and counter names the trace fixture pins.
        model.add_track("net0", Some(self.net.0));
        let device_track = model.add_track("device", Some(self.device.0));
        let mut cp_tracks = Vec::with_capacity(self.cps.len());
        for (i, &(actor, _)) in self.cps.iter().enumerate() {
            cp_tracks.push(model.add_track(format!("cp{i}"), Some(actor)));
        }
        model.add_track("churn", Some(self.churn));

        if let Some(dev) = self.device.1 {
            for (t, id, phase) in dev.sorted_flows() {
                model.push_point(t, device_track, PointKind::Flow { id, phase });
            }
        }
        let mut engine: Vec<EngineEvent> = self
            .dispatches
            .into_iter()
            .map(|(time_ns, actor)| EngineEvent {
                time_ns,
                actor,
                kind: EngineEventKind::Dispatch,
            })
            .collect();
        for ((actor, buf), &track) in self.cps.into_iter().zip(&cp_tracks) {
            let Some(buf) = buf else { continue };
            for &(t, id, phase) in &buf.flows {
                model.push_point(t, track, PointKind::Flow { id, phase });
            }
            for &t in &buf.absents {
                model.push_point(t, track, PointKind::Absent);
            }
            for &(time_ns, kind) in buf.timers.iter().flatten() {
                engine.push(EngineEvent {
                    time_ns,
                    actor,
                    kind,
                });
            }
        }
        engine.sort_by_key(|e| (e.time_ns, e.actor));
        model.engine = engine;
        // The timeline's marks land on the device track. A mark at or past
        // the end falls outside the traced run (a switch there would open
        // an empty window), so it is left out.
        let switches = self.timeline.switches.iter();
        let marks = switches.map(|&t| (t, PointKind::RegimeSwitch));
        let failure = self.timeline.failure.map(|t| (t, PointKind::Failure));
        for (t, kind) in marks.chain(failure).filter(|&(t, _)| t < cap) {
            model.push_point(t, device_track, kind);
        }
        model.push_point(cap, device_track, PointKind::RunEnd);

        if let Some(buf) = self.net.1 {
            if !buf.in_flight.is_empty() {
                model.add_counter("net0.in_flight", buf.in_flight);
            }
        }
        let capped = |series: &[(f64, f64)]| -> Vec<(u64, f64)> {
            series
                .iter()
                .map(|&(t, v)| (secs_ns(t), v))
                .filter(|&(t, _)| t <= cap)
                .collect()
        };
        let load = capped(&result.load_series);
        if !load.is_empty() {
            model.add_counter("device.load", load);
        }
        for (i, cp) in result.cps.iter().enumerate() {
            let freq = capped(&cp.frequency_series);
            if !freq.is_empty() {
                model.add_counter(format!("cp{i}.frequency"), freq);
            }
        }
        let population = capped(&result.population_series);
        if !population.is_empty() {
            model.add_counter("population", population);
        }
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_id_packs_cp_and_seq() {
        assert_eq!(flow_id(CpId(0), 0), 0);
        assert_eq!(flow_id(CpId(1), 0), 1 << 40);
        assert_eq!(flow_id(CpId(3), 7), (3 << 40) | 7);
        // Sequence numbers beyond 40 bits wrap into the cp-local space
        // instead of corrupting the cp bits.
        assert_eq!(flow_id(CpId(2), 1 << 41), 2 << 40);
    }

    #[test]
    fn cp_trace_dedups_restarts_and_stale_replies() {
        let mut t = CpTrace::new(u64::MAX, false);
        t.probe_send(10, CpId(0), 1);
        t.probe_send(20, CpId(0), 1); // retransmission: step elsewhere, no new start
        t.reply_recv(30, CpId(0), 1);
        t.reply_recv(40, CpId(0), 1); // stale duplicate reply
        t.reply_recv(50, CpId(0), 2); // reply for an unrecorded cycle
        assert_eq!(
            t.flows,
            vec![
                (10, flow_id(CpId(0), 1), FlowPhase::ProbeSend),
                (30, flow_id(CpId(0), 1), FlowPhase::ReplyRecv),
            ]
        );
    }

    #[test]
    fn until_cap_drops_late_events_everywhere() {
        let mut cp = CpTrace::new(100, true);
        cp.probe_send(101, CpId(0), 1);
        cp.absent(101);
        cp.timer(101, EngineEventKind::TimerArm);
        assert!(cp.flows.is_empty() && cp.absents.is_empty());
        assert_eq!(cp.timers, Some(vec![]));
        let mut dev = DeviceTrace::new(100);
        dev.probe(99, 101, CpId(0), 1);
        assert_eq!(dev.flows.len(), 1, "recv kept, capped reply send dropped");
        let mut net = NetTrace::new(100);
        assert!(!net.wants_sample(101));
    }

    #[test]
    fn net_trace_buckets_samples_per_millisecond() {
        let mut net = NetTrace::new(u64::MAX);
        assert!(net.wants_sample(0));
        assert!(!net.wants_sample(999_999));
        assert!(net.wants_sample(1_000_000));
        net.sample(1_000_000, 3);
        assert_eq!(net.in_flight, vec![(1_000_000, 3.0)]);
    }
}

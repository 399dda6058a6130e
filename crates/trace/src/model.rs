//! The engine-agnostic trace model the simulation layer fills.
//!
//! A [`TraceModel`] is ordinary data — no handles into a live simulation:
//! every point carries its actor track and virtual time, and the writer
//! orders output by construction, not by engine internals.

/// One step of a probe→reply lifecycle, in flow order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPhase {
    /// CP handed the probe to the network.
    ProbeSend,
    /// Device received the probe.
    ProbeRecv,
    /// Device handed the reply to the network (after processing).
    ReplySend,
    /// CP received the reply — the cycle completed.
    ReplyRecv,
}

/// What a [`TracePoint`] records on its track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointKind {
    /// A probe→reply lifecycle step, correlated across tracks by `id`
    /// (the writer stitches the phases into one Perfetto flow).
    Flow {
        /// Flow correlation id (unique per probe cycle).
        id: u64,
        /// Which lifecycle step this is.
        phase: FlowPhase,
    },
    /// A CP declared the device absent.
    Absent,
    /// A regime switch of any kind (delay, loss or churn) that the run's
    /// spec scheduled. The run's regime windows open at these instants.
    RegimeSwitch,
    /// The device failure the run's spec scheduled, a silent crash or a
    /// Bye: the instant its detection latency counts from.
    Failure,
    /// The run's end, where its last regime window closes: the horizon,
    /// or the trace cap when that is earlier.
    RunEnd,
}

/// One timestamped point on an actor's track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracePoint {
    /// Virtual time in nanoseconds.
    pub time_ns: u64,
    /// Index into [`TraceModel::tracks`].
    pub track: u32,
    /// What happened.
    pub kind: PointKind,
}

/// What an [`EngineEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEventKind {
    /// The engine delivered an event to the actor — every delivery, timer
    /// fires included.
    Dispatch,
    /// The actor armed a protocol timer.
    TimerArm,
    /// The actor cancelled a pending protocol timer.
    TimerCancel,
    /// A pending protocol timer fired.
    TimerFire,
}

/// One entry of the engine stream: what happened, when, and to whom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineEvent {
    /// Virtual time in nanoseconds.
    pub time_ns: u64,
    /// Global actor index: the delivery's target, or the timer's owner.
    pub actor: usize,
    /// What happened.
    pub kind: EngineEventKind,
}

/// One named timeline (a Perfetto "thread").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Track {
    /// Display name (e.g. `cp3`, `device`, `net0`, `churn`).
    pub name: String,
    /// Global actor index backing this track, when there is one — engine
    /// events are routed onto tracks through this mapping.
    pub actor: Option<usize>,
}

/// A named counter series (a Perfetto counter track).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterTrack {
    /// Counter name (e.g. `device.load`, `cp3.frequency`).
    pub name: String,
    /// `(time_ns, value)` samples in non-decreasing time order.
    pub samples: Vec<(u64, f64)>,
}

/// Everything one traced run produced.
#[derive(Debug, Default)]
pub struct TraceModel {
    /// Actor tracks, in tid order (track index == Perfetto tid).
    pub tracks: Vec<Track>,
    /// Flow and instant points emitted by the actors. Each track's flow
    /// points are in time order: the writer pairs a device's reply with
    /// the latest receipt of its probe before it.
    pub points: Vec<TracePoint>,
    /// Counter tracks.
    pub counters: Vec<CounterTrack>,
    /// The engine stream (deliveries and timer actions) in a stable
    /// `(time, actor)` order. Empty unless the engine stream was
    /// requested — it is by far the densest part of a trace.
    pub engine: Vec<EngineEvent>,
}

impl TraceModel {
    /// Registers a track and returns its index (the Perfetto tid).
    pub fn add_track(&mut self, name: impl Into<String>, actor: Option<usize>) -> u32 {
        let tid = u32::try_from(self.tracks.len()).expect("track count fits u32");
        self.tracks.push(Track {
            name: name.into(),
            actor,
        });
        tid
    }

    /// Records a point (flow step or instant) on `track`; a flow step
    /// must not precede the track's earlier ones.
    pub fn push_point(&mut self, time_ns: u64, track: u32, kind: PointKind) {
        self.points.push(TracePoint {
            time_ns,
            track,
            kind,
        });
    }

    /// Registers a counter series (samples must be time-sorted).
    pub fn add_counter(&mut self, name: impl Into<String>, samples: Vec<(u64, f64)>) {
        debug_assert!(samples.windows(2).all(|w| w[0].0 <= w[1].0));
        self.counters.push(CounterTrack {
            name: name.into(),
            samples,
        });
    }

    /// The track index backing a global actor id, if one was registered.
    pub(crate) fn track_of_actor(&self, actor: usize) -> Option<u32> {
        self.tracks
            .iter()
            .position(|t| t.actor == Some(actor))
            .map(|i| u32::try_from(i).expect("track count fits u32"))
    }
}

//! The device actor: wraps a device state machine (SAPP or DCPP), models
//! the device's computation time, and records the load series the paper
//! plots.

use crate::event::{Addr, SimEvent};
use crate::recorder::RecorderMode;
use crate::trace::DeviceTrace;
use presence_core::{AutoTuner, Bye, DeviceMachine, TuneDecision, WireMessage};
use presence_des::{Actor, ActorId, Context, SimDuration, SimTime, StreamRng, TimerSlots};
use presence_stats::{JumpingWindowRate, TimeSeries, Welford};

/// How long the device takes to process a probe before the reply leaves.
///
/// The paper's timeout derivation assumes a maximal computation time
/// `C_max = 20 ms`; we default to a uniform draw over `[1 ms, 20 ms]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessingModel {
    /// Minimum processing time.
    pub min: SimDuration,
    /// Maximum processing time.
    pub max: SimDuration,
}

impl ProcessingModel {
    /// The default consistent with the paper's `TOF`/`TOS` constants.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            min: SimDuration::from_millis(1),
            max: SimDuration::from_millis(20),
        }
    }

    /// A fixed processing time.
    #[must_use]
    pub fn constant(d: SimDuration) -> Self {
        Self { min: d, max: d }
    }

    fn sample(&self, rng: &mut StreamRng) -> SimDuration {
        if self.min == self.max {
            self.min
        } else {
            SimDuration::from_nanos(
                rng.uniform(self.min.as_nanos() as f64, self.max.as_nanos() as f64) as u64,
            )
        }
    }
}

/// The simulated device node.
pub struct DeviceActor {
    machine: DeviceMachine,
    network: ActorId,
    processing: ProcessingModel,
    /// Optional device-side Δ auto-tuner (SAPP only; see
    /// [`presence_core::AutoTuner`]).
    tuner: Option<AutoTuner>,
    alive: bool,
    /// Probes-per-second series in jumping windows (Figure 5's load curve).
    load: JumpingWindowRate,
    /// Probe arrival timestamps (seconds) — kept for summary statistics.
    arrivals: TimeSeries,
    /// Replies scheduled on the network but still inside the processing
    /// window, keyed by a private emission counter. A crash or leave
    /// cancels them — the device dies *mid computation*, so a reply whose
    /// processing has not finished must never escape. Fired handles are
    /// pruned lazily before each insert; at L_nom ≈ 10 probes/s and a
    /// ≤ 20 ms processing window the live depth is almost always ≤ 1, so
    /// the two inline slots cover it (the spill map is pre-allocated for
    /// overload phases, keeping the steady-state loop allocation-free).
    processing_replies: TimerSlots<u64>,
    /// Monotone key source for `processing_replies`.
    reply_seq: u64,
    stopped_at: Option<SimTime>,
    /// Recorder granularity; [`RecorderMode::Streaming`] skips the arrival
    /// series and folds closed load windows into `load_acc` on the fly.
    mode: RecorderMode,
    /// Streaming-mode accumulator over closed load windows (excluding the
    /// first, warm-up window — matching the full-mode summary).
    load_acc: Welford,
    /// Closed load windows seen so far in streaming mode (to skip the
    /// warm-up window).
    load_windows_seen: u64,
    /// Lifecycle trace buffer; `None` (one predictable branch per probe)
    /// unless [`DeviceActor::set_trace`] armed it.
    trace: Option<Box<DeviceTrace>>,
}

impl DeviceActor {
    /// Creates a device actor.
    ///
    /// `load_window` is the width (seconds) of the jumping windows used for
    /// the load series; the paper's Figure 5 resolution is a few seconds.
    /// `horizon` is the configured run length (seconds), used only to
    /// pre-size the recorders so 20 000 s runs don't regrow them.
    #[must_use]
    pub fn new(
        machine: DeviceMachine,
        network: ActorId,
        processing: ProcessingModel,
        load_window: f64,
        horizon: f64,
    ) -> Self {
        // The protocols hold the device near L_nom = 10 probes/s; a small
        // headroom factor covers overload phases without overcommitting.
        let arrivals_hint = (horizon * 12.0).min(4e6) as usize;
        let windows_hint = (horizon / load_window).min(4e6) as usize + 1;
        Self {
            machine,
            network,
            processing,
            tuner: None,
            alive: true,
            load: JumpingWindowRate::with_capacity(0.0, load_window, windows_hint),
            arrivals: TimeSeries::with_capacity(arrivals_hint),
            processing_replies: TimerSlots::with_spill_capacity(8),
            reply_seq: 0,
            stopped_at: None,
            mode: RecorderMode::Full,
            load_acc: Welford::new(),
            load_windows_seen: 0,
            trace: None,
        }
    }

    /// Arms lifecycle tracing up to `until_ns` (virtual nanoseconds).
    pub fn set_trace(&mut self, until_ns: u64) {
        self.trace = Some(Box::new(DeviceTrace::new(until_ns)));
    }

    /// Takes the trace buffer accumulated since [`DeviceActor::set_trace`].
    pub fn take_trace(&mut self) -> Option<Box<DeviceTrace>> {
        self.trace.take()
    }

    /// Switches the recorder granularity. Call before the first event:
    /// streaming mode drops the (pre-sized) arrival series and load-series
    /// backing storage so memory stays flat at any horizon.
    pub fn set_recorder_mode(&mut self, mode: RecorderMode) {
        self.mode = mode;
        if mode == RecorderMode::Streaming {
            self.arrivals = TimeSeries::new();
            self.load = JumpingWindowRate::new(0.0, self.load.width());
        }
    }

    /// Folds every closed load window into the streaming accumulator,
    /// skipping the first (warm-up) window — the same exclusion the
    /// full-mode summary applies.
    fn stream_closed_windows(&mut self) {
        let seen = &mut self.load_windows_seen;
        let acc = &mut self.load_acc;
        self.load.drain_closed(|_, rate| {
            if *seen > 0 {
                acc.push(rate);
            }
            *seen += 1;
        });
    }

    /// Streaming-mode load summary `(mean, sample_variance)` over all
    /// windows closed by `now`, excluding the warm-up window.
    ///
    /// # Panics
    ///
    /// Panics if the actor is in [`RecorderMode::Full`] — the full-mode
    /// summary is computed from [`DeviceActor::load_series_until`].
    #[must_use]
    pub fn streaming_load_stats(&mut self, now: SimTime) -> (f64, f64) {
        assert_eq!(self.mode, RecorderMode::Streaming, "streaming mode only");
        self.load.advance_to(now.as_secs_f64());
        self.stream_closed_windows();
        (self.load_acc.mean(), self.load_acc.sample_variance())
    }

    /// Installs a device-side Δ auto-tuner (meaningful for SAPP devices;
    /// ignored by DCPP, whose load control is inherent).
    pub fn set_tuner(&mut self, tuner: AutoTuner) {
        self.tuner = Some(tuner);
    }

    /// The installed tuner, if any.
    #[must_use]
    pub fn tuner(&self) -> Option<&AutoTuner> {
        self.tuner.as_ref()
    }

    /// Whether the device is still answering probes.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// When the device crashed or left, if it did.
    #[must_use]
    pub fn stopped_at(&self) -> Option<SimTime> {
        self.stopped_at
    }

    /// Total probes answered.
    #[must_use]
    pub fn probes_received(&self) -> u64 {
        self.machine.probes_received()
    }

    /// Flushes load windows up to `now` and returns the full series of
    /// `(window_start, probes_per_second)` points.
    #[must_use]
    pub fn load_series_until(&mut self, now: SimTime) -> Vec<(f64, f64)> {
        self.load.advance_to(now.as_secs_f64());
        self.load.series().to_vec()
    }

    /// Probe arrival timestamps.
    #[must_use]
    pub fn arrivals(&self) -> &TimeSeries {
        &self.arrivals
    }

    /// Cancels every reply still inside its processing window: the device
    /// stopped mid-computation, so those replies never hit the wire.
    fn abort_processing(&mut self, ctx: &mut Context<'_, SimEvent>) {
        self.processing_replies.drain(|_, handle| {
            ctx.cancel(handle);
        });
    }
}

impl Actor<SimEvent> for DeviceActor {
    fn on_event(&mut self, ctx: &mut Context<'_, SimEvent>, event: SimEvent) {
        match event {
            SimEvent::Deliver(WireMessage::Probe(probe)) => {
                if !self.alive {
                    return;
                }
                let now = ctx.now();
                self.load.record(now.as_secs_f64());
                match self.mode {
                    RecorderMode::Full => self.arrivals.push(now.as_secs_f64(), 1.0),
                    RecorderMode::Streaming => self.stream_closed_windows(),
                }
                if let (Some(tuner), DeviceMachine::Sapp(dev)) =
                    (self.tuner.as_mut(), &mut self.machine)
                {
                    match tuner.on_probe(now) {
                        TuneDecision::Doubled => dev.double_delta(),
                        TuneDecision::Halved => {
                            // Halve by retuning l_nom back toward base:
                            // Δ = base Δ · multiplier.
                            let base = dev.l_nom();
                            dev.set_l_nom(base); // recompute Δ from l_nom…
                            for _ in 1..tuner.multiplier() {
                                dev.double_delta();
                            }
                        }
                        TuneDecision::Hold => {}
                    }
                }
                let reply = self.machine.on_probe(now, probe);
                let delay = self.processing.sample(ctx.rng());
                if let Some(t) = self.trace.as_deref_mut() {
                    t.probe(
                        now.as_nanos(),
                        (now + delay).as_nanos(),
                        probe.cp,
                        probe.seq,
                    );
                }
                // Single-hop fast path: the reply's `Send` is scheduled on
                // the network for the instant processing completes — no
                // intermediate self-event. The handle is kept so a crash
                // inside the processing window still suppresses the reply.
                let handle = ctx.schedule_in(
                    delay,
                    self.network,
                    SimEvent::Send {
                        to: Addr::Cp(reply.probe.cp),
                        msg: WireMessage::Reply(reply),
                    },
                );
                self.processing_replies.retain(|_, h| ctx.is_pending(h));
                let key = self.reply_seq;
                self.reply_seq += 1;
                self.processing_replies.insert(key, handle);
            }
            SimEvent::Crash => {
                if self.alive {
                    self.alive = false;
                    self.stopped_at = Some(ctx.now());
                    self.abort_processing(ctx);
                }
            }
            SimEvent::GracefulLeave => {
                if self.alive {
                    self.alive = false;
                    self.stopped_at = Some(ctx.now());
                    self.abort_processing(ctx);
                    ctx.send_now(
                        self.network,
                        SimEvent::Broadcast {
                            msg: WireMessage::Bye(Bye {
                                device: self.machine.id(),
                            }),
                        },
                    );
                }
            }
            SimEvent::DoubleDelta => {
                if let DeviceMachine::Sapp(d) = &mut self.machine {
                    d.double_delta();
                }
            }
            SimEvent::Deliver(_) => {
                // Devices ignore non-probe traffic.
            }
            other => {
                debug_assert!(false, "device actor got unexpected event {other:?}");
            }
        }
    }
}

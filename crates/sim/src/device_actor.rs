//! The device actor: wraps a device state machine (SAPP or DCPP), models
//! the device's computation time, and records the load series the paper
//! plots.

use crate::event::{Addr, SimEvent};
use crate::trace::DeviceTrace;
use presence_core::{Bye, DeviceMachine, WireMessage};
use presence_des::{Actor, ActorId, Context, EventHandle, SimDuration, SimTime, StreamRng};
use presence_stats::JumpingWindowRate;

/// How long the device takes to process a probe before the reply leaves.
///
/// The paper's timeout derivation assumes a maximal computation time
/// `C_max = 20 ms`; the paper-default scenarios draw uniformly over
/// `[1 ms, 20 ms]`. The mega shard draws its uniform network delays with
/// the same sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessingModel {
    /// Minimum processing time.
    pub min: SimDuration,
    /// Maximum processing time.
    pub max: SimDuration,
}

impl ProcessingModel {
    /// A fixed processing time.
    #[must_use]
    pub fn constant(d: SimDuration) -> Self {
        Self { min: d, max: d }
    }

    /// A uniform draw over `[lo, hi]` seconds.
    #[must_use]
    pub fn between((lo, hi): (f64, f64)) -> Self {
        Self {
            min: SimDuration::from_secs_f64(lo),
            max: SimDuration::from_secs_f64(hi),
        }
    }

    #[inline]
    pub(crate) fn sample(&self, rng: &mut StreamRng) -> SimDuration {
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
    alive: bool,
    /// Probes-per-second series in jumping windows (Figure 5's load curve).
    load: JumpingWindowRate,
    /// Replies scheduled on the network but still inside the processing
    /// window. A crash or leave cancels them — the device dies *mid
    /// computation*, so a reply whose processing has not finished must
    /// never escape. Fired handles are pruned before each push; at
    /// L_nom ≈ 10 probes/s and a ≤ 20 ms processing window the live depth
    /// is almost always ≤ 1, and the capacity reserved up front covers
    /// overload phases, keeping the steady-state loop allocation-free.
    processing_replies: Vec<EventHandle>,
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
    /// pre-size the load series so 20 000 s runs don't regrow it.
    #[must_use]
    pub fn new(
        machine: DeviceMachine,
        network: ActorId,
        processing: ProcessingModel,
        load_window: f64,
        horizon: f64,
    ) -> Self {
        let windows_hint = (horizon / load_window).min(4e6) as usize + 1;
        Self {
            machine,
            network,
            processing,
            alive: true,
            load: JumpingWindowRate::with_capacity(0.0, load_window, windows_hint),
            processing_replies: Vec::with_capacity(8),
            trace: None,
        }
    }

    /// Arms lifecycle tracing up to `until_ns` (virtual nanoseconds).
    pub(crate) fn set_trace(&mut self, until_ns: u64) {
        self.trace = Some(Box::new(DeviceTrace::new(until_ns)));
    }

    /// Takes the trace buffer accumulated since [`DeviceActor::set_trace`].
    pub(crate) fn take_trace(&mut self) -> Option<Box<DeviceTrace>> {
        self.trace.take()
    }

    /// Doubles a SAPP device's Δ — §2's device-side load control ("it
    /// can, say, double its value of Δ"). A DCPP device caps its load by
    /// construction, so this does nothing to it.
    pub(crate) fn double_delta(&mut self) {
        if let DeviceMachine::Sapp(d) = &mut self.machine {
            d.double_delta();
        }
    }

    /// Total probes answered.
    #[must_use]
    pub fn probes_received(&self) -> u64 {
        self.machine.probes_received()
    }

    /// Flushes load windows up to `now` and returns the full series of
    /// `(window_start, probes_per_second)` points.
    #[must_use]
    pub(crate) fn load_series_until(&mut self, now: SimTime) -> Vec<(f64, f64)> {
        self.load.advance_to(now.as_secs_f64());
        self.load.series().to_vec()
    }

    /// Cancels every reply still inside its processing window: the device
    /// stopped mid-computation, so those replies never hit the wire.
    /// Cancels commute, so their order does not matter.
    fn abort_processing(&mut self, ctx: &mut Context<'_, SimEvent>) {
        for handle in self.processing_replies.drain(..) {
            ctx.cancel(handle);
        }
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
                self.processing_replies.retain(|&h| ctx.is_pending(h));
                self.processing_replies.push(handle);
            }
            SimEvent::Crash => {
                if self.alive {
                    self.alive = false;
                    self.abort_processing(ctx);
                }
            }
            SimEvent::GracefulLeave => {
                if self.alive {
                    self.alive = false;
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
            SimEvent::Deliver(_) => {
                // Devices ignore non-probe traffic.
            }
            other => {
                debug_assert!(false, "device actor got unexpected event {other:?}");
            }
        }
    }
}

//! The control-point actor: wraps a [`Prober`] state machine, executes its
//! actions against the simulated network and timer service, records the
//! per-CP delay/frequency series behind Figures 2–4, and (optionally) runs
//! the overlay dissemination of leave notices.

use crate::event::{Addr, SimEvent};
use crate::metrics::CpSummary;
use crate::trace::CpTrace;
use presence_core::{
    CpAction, CpId, CpStats, DcppConfig, DcppCp, Disseminator, FixedRateCp, LeaveNotice,
    NoticeDisposition, OverlayView, ProbeCycleConfig, Prober, Reply, ReplyBody, SappConfig, SappCp,
    TimerToken, Verdict, WireMessage,
};
use presence_des::{Actor, ActorId, Context, EventHandle, SimDuration, SimTime};
use presence_stats::{TimeSeries, Welford};
use presence_trace::EngineEventKind;

/// Factory for the prober machine a CP (re-)creates each time it joins.
#[derive(Debug, Clone)]
pub enum ProberFactory {
    /// Build SAPP CPs with this configuration.
    Sapp(SappConfig),
    /// Build DCPP CPs with this configuration.
    Dcpp(DcppConfig),
    /// Build fixed-rate baseline CPs with this cycle config and period.
    FixedRate(ProbeCycleConfig, SimDuration),
}

impl ProberFactory {
    /// A fresh prober machine for CP `id`.
    #[must_use]
    pub fn build(&self, id: CpId) -> Box<dyn Prober + Send> {
        match self {
            ProberFactory::Sapp(cfg) => Box::new(SappCp::new(id, *cfg)),
            ProberFactory::Dcpp(cfg) => Box::new(DcppCp::new(id, *cfg)),
            ProberFactory::FixedRate(cycle, period) => {
                Box::new(FixedRateCp::new(id, *cycle, *period))
            }
        }
    }
}

/// Everything a finished run wants to know about one CP.
#[derive(Debug, Clone)]
pub struct CpRecord {
    /// The CP's identity.
    pub id: CpId,
    /// `(t, 1/δ)` samples — one per completed probe cycle (the exact series
    /// plotted in Figures 2–4).
    pub frequency_series: TimeSeries,
    /// Welford accumulator over the per-cycle delay δ (seconds).
    pub delay_stats: Welford,
    /// Probe-cycle statistics accumulated over all *finished* sessions;
    /// [`CpActor::stats`] adds the one in progress.
    pub stats: CpStats,
    /// When this CP declared the device absent, if it did.
    pub detected_absent_at: Option<SimTime>,
    /// Number of times this CP joined the network.
    pub joins: u64,
    /// Leave notices forwarded by this CP.
    pub notices_forwarded: u64,
}

/// The simulated control-point node.
pub struct CpActor {
    id: CpId,
    factory: ProberFactory,
    network: ActorId,
    device: presence_core::DeviceId,
    prober: Option<Box<dyn Prober + Send>>,
    /// The one live protocol timer. Every machine arms through its
    /// `Retransmitter`, so a CP holds at most one at a time: its probe
    /// cycle awaits a reply under one TOF/TOS timeout, or sleeps until
    /// one wake.
    timer: Option<(TimerToken, EventHandle)>,
    /// A timer handle freed by a `CancelTimer` earlier in the current
    /// action batch, kept alive so a following `StartTimer` can rearm it
    /// in place ([`Context::rearm_timer`]) instead of paying a queue
    /// remove + insert. Flushed (actually cancelled) at the end of the
    /// batch if nothing reuses it.
    rearm_slot: Option<EventHandle>,
    /// Scratch buffer for prober action batches, reused across events so
    /// the steady-state probe loop allocates nothing (ROADMAP open item
    /// (b)). Taken out of `self` while a batch executes, then put back
    /// with its capacity intact.
    scratch: Vec<CpAction>,
    /// Dissemination state (only consulted when `disseminate` is set).
    disseminate: bool,
    overlay: OverlayView,
    gossip: Disseminator,
    record: CpRecord,
    active: bool,
    /// Lifecycle trace buffer; `None` (a single predictable branch per
    /// emission point) unless [`CpActor::set_trace`] armed it.
    trace: Option<Box<CpTrace>>,
}

impl CpActor {
    /// Creates an (initially inactive) CP actor. Send it [`SimEvent::Join`]
    /// to bring it online. `samples_hint` pre-sizes the per-cycle frequency
    /// series (one sample per completed probe cycle) so long-horizon runs
    /// don't regrow it.
    #[must_use]
    pub fn new(
        id: CpId,
        factory: ProberFactory,
        network: ActorId,
        device: presence_core::DeviceId,
        disseminate: bool,
        samples_hint: usize,
    ) -> Self {
        Self {
            id,
            factory,
            network,
            device,
            prober: None,
            timer: None,
            rearm_slot: None,
            scratch: Vec::new(),
            disseminate,
            overlay: OverlayView::new(id),
            gossip: Disseminator::new(id),
            record: CpRecord {
                id,
                frequency_series: TimeSeries::with_capacity(samples_hint),
                delay_stats: Welford::new(),
                stats: CpStats::default(),
                detected_absent_at: None,
                joins: 0,
                notices_forwarded: 0,
            },
            active: false,
            trace: None,
        }
    }

    /// Arms lifecycle tracing up to `until_ns` (virtual nanoseconds);
    /// `timers` also records each timer arm, cancel and fire (the engine
    /// stream's timer records — the CP owns its timers, the engine does
    /// not know them).
    pub fn set_trace(&mut self, until_ns: u64, timers: bool) {
        self.trace = Some(Box::new(CpTrace::new(until_ns, timers)));
    }

    /// Notes a timer action in the trace, when tracing is armed.
    fn trace_timer(&mut self, now: SimTime, kind: EngineEventKind) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.timer(now.as_nanos(), kind);
        }
    }

    /// Takes the trace buffer accumulated since [`CpActor::set_trace`].
    pub fn take_trace(&mut self) -> Option<Box<CpTrace>> {
        self.trace.take()
    }

    /// The CP's identity.
    #[must_use]
    pub fn id(&self) -> CpId {
        self.id
    }

    /// Probe-cycle statistics over all sessions, the one in progress (if
    /// any) included.
    #[must_use]
    pub fn stats(&self) -> CpStats {
        let mut stats = self.record.stats;
        if let Some(p) = &self.prober {
            stats += p.stats();
        }
        stats
    }

    /// The per-CP summary as of now, the session in progress included.
    pub(crate) fn summary(&self) -> CpSummary {
        CpSummary::from_record(&self.record, self.prober.as_ref().map(|p| p.stats()))
    }

    /// The live prober's terminal verdict, reason included ([`CpRecord`]
    /// keeps only the instant). `None` while the CP is offline.
    #[must_use]
    pub fn verdict(&self) -> Option<Verdict> {
        self.prober.as_ref().and_then(|p| p.verdict())
    }

    /// The overlay view (peers learned from replies).
    #[must_use]
    pub fn overlay(&self) -> &OverlayView {
        &self.overlay
    }

    fn accumulate_session_stats(&mut self) {
        if let Some(p) = &self.prober {
            self.record.stats += p.stats();
        }
    }

    /// Executes one prober action batch, draining `actions` in place (the
    /// caller hands back the scratch buffer afterwards so its capacity is
    /// reused by the next event).
    fn execute(&mut self, ctx: &mut Context<'_, SimEvent>, actions: &mut Vec<CpAction>) {
        debug_assert!(
            self.rearm_slot.is_none(),
            "rearm slot leaked across batches"
        );
        for action in actions.drain(..) {
            match action {
                CpAction::SendProbe(probe) => {
                    if let Some(t) = self.trace.as_deref_mut() {
                        t.probe_send(ctx.now().as_nanos(), probe.cp, probe.seq);
                    }
                    let device = self.device;
                    ctx.send_now(
                        self.network,
                        SimEvent::Send {
                            to: Addr::Device(device),
                            msg: WireMessage::Probe(probe),
                        },
                    );
                }
                CpAction::StartTimer { token, after } => {
                    // Cancel-then-rearm fast path: when this batch just
                    // freed a timer, move its queued event in place and
                    // rewrite the payload with the fresh token. Rearming
                    // mints the same sequence number a fresh schedule
                    // would, so the trajectory is identical either way.
                    let rearmed = self
                        .rearm_slot
                        .take()
                        .and_then(|h| ctx.rearm_timer(h, after, SimEvent::Timer(token)));
                    let handle =
                        rearmed.unwrap_or_else(|| ctx.set_timer(after, SimEvent::Timer(token)));
                    debug_assert!(self.timer.is_none(), "a CP holds one live timer");
                    self.timer = Some((token, handle));
                    self.trace_timer(ctx.now(), EngineEventKind::TimerArm);
                }
                CpAction::CancelTimer { token } => {
                    if let Some((_, handle)) = self.timer.take_if(|&mut (t, _)| t == token) {
                        self.trace_timer(ctx.now(), EngineEventKind::TimerCancel);
                        // Defer: a StartTimer later in this batch usually
                        // rearms the same queue slot in place.
                        if let Some(stale) = self.rearm_slot.replace(handle) {
                            ctx.cancel(stale);
                        }
                    }
                }
                CpAction::DeviceAbsent { at, .. } => {
                    if let Some(t) = self.trace.as_deref_mut() {
                        t.absent(at.as_nanos());
                    }
                    if self.record.detected_absent_at.is_none() {
                        self.record.detected_absent_at = Some(at);
                    }
                    if self.disseminate {
                        let device = self.device;
                        let notices = self.gossip.on_local_detection(device, &self.overlay);
                        self.record.notices_forwarded += notices.len() as u64;
                        for (peer, notice) in notices {
                            ctx.send_now(
                                self.network,
                                SimEvent::Send {
                                    to: Addr::Cp(peer),
                                    msg: WireMessage::LeaveNotice(notice),
                                },
                            );
                        }
                    }
                }
            }
        }
        // No StartTimer claimed the freed slot: finish the deferred cancel.
        if let Some(stale) = self.rearm_slot.take() {
            ctx.cancel(stale);
        }
    }

    fn sample_delay(&mut self, now: SimTime) {
        if let Some(p) = &self.prober {
            if let Some(delay) = p.current_delay() {
                let d = delay.as_secs_f64();
                self.record
                    .frequency_series
                    .push(now.as_secs_f64(), 1.0 / d);
                self.record.delay_stats.push(d);
            }
        }
    }

    fn on_reply(&mut self, ctx: &mut Context<'_, SimEvent>, reply: Reply) {
        let Some(prober) = self.prober.as_mut() else {
            return;
        };
        if let Some(t) = self.trace.as_deref_mut() {
            t.reply_recv(ctx.now().as_nanos(), reply.probe.cp, reply.probe.seq);
        }
        if let ReplyBody::Sapp { last_probers, .. } = reply.body {
            self.overlay.observe(last_probers);
        }
        let mut out = std::mem::take(&mut self.scratch);
        let before = prober.stats().cycles_succeeded;
        prober.on_reply(ctx.now(), &reply, &mut out);
        let completed = prober.stats().cycles_succeeded > before;
        self.execute(ctx, &mut out);
        self.scratch = out;
        if completed {
            self.sample_delay(ctx.now());
        }
    }

    fn on_notice(&mut self, ctx: &mut Context<'_, SimEvent>, notice: LeaveNotice) {
        let disposition = self.gossip.on_notice(notice, &self.overlay);
        if let NoticeDisposition::Fresh { forward_to } = disposition {
            if let Some(prober) = self.prober.as_mut() {
                let mut out = std::mem::take(&mut self.scratch);
                prober.on_leave_notice(ctx.now(), &mut out);
                self.execute(ctx, &mut out);
                self.scratch = out;
            }
            if self.disseminate {
                let restamped = LeaveNotice {
                    device: notice.device,
                    reporter: self.id,
                };
                self.record.notices_forwarded += forward_to.len() as u64;
                for peer in forward_to {
                    ctx.send_now(
                        self.network,
                        SimEvent::Send {
                            to: Addr::Cp(peer),
                            msg: WireMessage::LeaveNotice(restamped),
                        },
                    );
                }
            }
        }
    }

    fn leave(&mut self, ctx: &mut Context<'_, SimEvent>) {
        self.accumulate_session_stats();
        self.prober = None;
        self.active = false;
        if let Some((_, handle)) = self.timer.take() {
            self.trace_timer(ctx.now(), EngineEventKind::TimerCancel);
            ctx.cancel(handle);
        }
    }
}

impl Actor<SimEvent> for CpActor {
    fn on_event(&mut self, ctx: &mut Context<'_, SimEvent>, event: SimEvent) {
        match event {
            SimEvent::Join => {
                if self.active {
                    return;
                }
                self.active = true;
                self.record.joins += 1;
                let mut prober = self.factory.build(self.id);
                let mut out = std::mem::take(&mut self.scratch);
                prober.start(ctx.now(), &mut out);
                self.prober = Some(prober);
                self.execute(ctx, &mut out);
                self.scratch = out;
                // SAPP and fixed-rate CPs know their delay from the start;
                // record it so the frequency series covers the whole session.
                self.sample_delay(ctx.now());
            }
            SimEvent::Leave => {
                if self.active {
                    self.leave(ctx);
                }
            }
            SimEvent::Timer(token) => {
                // A timer for a past session may fire after a leave/join;
                // only the current session's timer is held.
                if self.timer.take_if(|&mut (t, _)| t == token).is_none() {
                    return;
                }
                self.trace_timer(ctx.now(), EngineEventKind::TimerFire);
                let Some(prober) = self.prober.as_mut() else {
                    return;
                };
                let mut out = std::mem::take(&mut self.scratch);
                prober.on_timer(ctx.now(), token, &mut out);
                self.execute(ctx, &mut out);
                self.scratch = out;
            }
            SimEvent::Deliver(WireMessage::Reply(reply)) => {
                self.on_reply(ctx, reply);
            }
            SimEvent::Deliver(WireMessage::Bye(_)) => {
                if let Some(prober) = self.prober.as_mut() {
                    let mut out = std::mem::take(&mut self.scratch);
                    prober.on_bye(ctx.now(), &mut out);
                    self.execute(ctx, &mut out);
                    self.scratch = out;
                }
            }
            SimEvent::Deliver(WireMessage::LeaveNotice(notice)) => {
                self.on_notice(ctx, notice);
            }
            SimEvent::Deliver(WireMessage::Probe(_)) => {
                // CPs are not probed; ignore.
            }
            other => {
                debug_assert!(false, "cp actor got unexpected event {other:?}");
            }
        }
    }
}

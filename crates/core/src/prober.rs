//! The common interface of all CP-side (probing) state machines.
//!
//! Drivers — the discrete-event simulator in `presence-sim` and the
//! wall-clock hosts in `presence-runtime` — program against this trait, so
//! SAPP, DCPP, and the baseline probers are interchangeable in every
//! scenario and experiment.

use crate::types::{CpAction, CpId, CpStats, Reply, TimerToken, Verdict};
use presence_des::{SimDuration, SimTime};

/// A sans-io probing state machine (the CP side of a probe protocol).
///
/// Lifecycle: `start` once, then feed `on_reply` / `on_timer` / `on_bye`
/// as the environment observes them. Every call may emit
/// [`CpAction`]s that the driver must execute (send a probe, arm or cancel
/// a timer, surface an absence verdict).
///
/// A prober holds at most one live timer: it emits
/// [`CpAction::StartTimer`] only once its last timer has fired or been
/// cancelled (by a [`CpAction::CancelTimer`] earlier in the same batch, at
/// the latest). [`Retransmitter`](crate::Retransmitter), which every
/// prober in this crate arms its timers through, keeps the rule, and the
/// simulator's CP actor and the UDP host both rely on it: each keeps one
/// timer slot per prober.
pub trait Prober {
    /// The identity of this control point.
    fn cp(&self) -> CpId;

    /// Begins probing. Must be called exactly once.
    fn start(&mut self, now: SimTime, out: &mut Vec<CpAction>);

    /// Delivers a reply received from the device.
    fn on_reply(&mut self, now: SimTime, reply: &Reply, out: &mut Vec<CpAction>);

    /// Delivers a timer firing previously requested via
    /// [`CpAction::StartTimer`]. Stale timers (already cancelled or
    /// superseded) must be tolerated.
    fn on_timer(&mut self, now: SimTime, token: TimerToken, out: &mut Vec<CpAction>);

    /// The device announced a graceful leave.
    fn on_bye(&mut self, now: SimTime, out: &mut Vec<CpAction>);

    /// Does nothing. No message makes a CP stop on another CP's word: a
    /// verdict is the exhausted retransmission budget or the device's own
    /// Bye. This provided method survives only because the out-of-workspace
    /// benchmark (`benchmark/src/udp_fleet.rs:229–231`) forwards it from its
    /// wrapper prober; it goes when the benchmark drops that forward.
    fn on_leave_notice(&mut self, _now: SimTime, _out: &mut Vec<CpAction>) {}

    /// Probe-cycle statistics.
    fn stats(&self) -> &CpStats;

    /// Whether the machine has reached a terminal state (device declared
    /// absent).
    fn is_stopped(&self) -> bool;

    /// The terminal absence verdict, once reached. `Some` exactly when
    /// [`Prober::is_stopped`] holds; mirrors the
    /// [`CpAction::DeviceAbsent`] the machine emitted, so drivers can read
    /// the outcome without scraping the action stream.
    fn verdict(&self) -> Option<Verdict>;

    /// The current inter-probe-cycle delay, when the machine knows one
    /// (SAPP: the adapted `δ`; DCPP: the last device-assigned wait;
    /// fixed-rate: the period). `None` before the first assignment for
    /// device-controlled protocols.
    fn current_delay(&self) -> Option<SimDuration>;
}

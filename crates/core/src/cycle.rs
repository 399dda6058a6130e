//! The CP lifecycle: bounded-retransmission probe cycles (Fig. 1 of the
//! paper) separated by inter-cycle sleeps, until a verdict stops it.
//!
//! Both protocols share this mechanism: a probe cycle starts with a probe
//! and ends with either a reply (successful) or a timeout after three
//! retransmissions (unsuccessful). The first timeout is `TOF`, subsequent
//! ones `TOS < TOF` — once the first probe goes unanswered the device is
//! probably gone, so the remaining probes are sent in rapid succession to
//! shorten detection time.
//!
//! [`Retransmitter`] owns the whole lifecycle — start once, probe, sleep,
//! wake and probe again, stop with a [`Verdict`] — and every timer of it.
//! The CP machines that embed it own only the rule for the next
//! inter-cycle delay (SAPP's Eq. 1 adaptation, DCPP's device-dictated
//! wait, the baseline's fixed period): on an accepted reply they compute
//! that delay and hand it to [`Retransmitter::sleep`].

use crate::config::ProbeCycleConfig;
use crate::types::{AbsenceReason, CpAction, CpId, CpStats, Probe, Reply, TimerToken, Verdict};
use presence_des::{SimDuration, SimTime};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// `start` not called yet.
    NotStarted,
    /// A probe (or retransmission) is awaiting a reply.
    Awaiting {
        seq: u64,
        /// Transmissions so far (1 after the initial probe).
        transmissions: u32,
        last_send: SimTime,
        timer: TimerToken,
    },
    /// A reply completed the cycle; the owner is about to call `sleep`.
    Accepted,
    /// Waiting out the inter-cycle delay.
    Sleeping { wake: TimerToken },
    /// The device was declared absent; the machine is inert.
    Stopped(Verdict),
}

/// The lifecycle engine embedded in every CP machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Retransmitter {
    cfg: ProbeCycleConfig,
    cp: CpId,
    state: State,
    next_seq: u64,
    next_token: u64,
    stats: CpStats,
}

impl Retransmitter {
    /// Creates an engine for control point `cp`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid — validate configs at the
    /// boundary with [`ProbeCycleConfig::validate`] for a recoverable error.
    #[must_use]
    pub fn new(cp: CpId, cfg: ProbeCycleConfig) -> Self {
        cfg.validate().expect("invalid probe-cycle configuration");
        Self {
            cfg,
            cp,
            state: State::NotStarted,
            next_seq: 0,
            next_token: 0,
            stats: CpStats::default(),
        }
    }

    /// The owning control point.
    #[must_use]
    pub fn cp(&self) -> CpId {
        self.cp
    }

    /// Running statistics.
    #[must_use]
    pub fn stats(&self) -> &CpStats {
        &self.stats
    }

    /// The terminal verdict, once reached; mirrors the
    /// [`CpAction::DeviceAbsent`] emitted at the stop.
    #[must_use]
    pub fn verdict(&self) -> Option<Verdict> {
        match self.state {
            State::Stopped(verdict) => Some(verdict),
            _ => None,
        }
    }

    /// One counter serves the cycle timeouts and the wake timers, so the
    /// tokens of one machine never collide.
    fn mint_token(&mut self) -> TimerToken {
        let t = TimerToken(self.next_token);
        self.next_token += 1;
        t
    }

    /// Begins probing: the first cycle starts at `now`.
    ///
    /// # Panics
    ///
    /// Panics when called a second time — a driver bug.
    pub fn start(&mut self, now: SimTime, out: &mut Vec<CpAction>) {
        assert!(
            matches!(self.state, State::NotStarted),
            "start called twice on the prober of {:?}",
            self.cp
        );
        self.begin_cycle(now, out);
    }

    /// Emits the probe of a new cycle and arms the first-probe timeout
    /// (`TOF`).
    fn begin_cycle(&mut self, now: SimTime, out: &mut Vec<CpAction>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let timer = self.mint_token();
        self.stats.cycles_started += 1;
        self.stats.probes_sent += 1;
        out.push(CpAction::SendProbe(Probe { cp: self.cp, seq }));
        out.push(CpAction::StartTimer {
            token: timer,
            after: self.cfg.tof,
        });
        self.state = State::Awaiting {
            seq,
            transmissions: 1,
            last_send: now,
            timer,
        };
    }

    /// Processes a reply arriving at `now`. When it answers the in-flight
    /// cycle, the cycle timeout is cancelled and the paper's anchor time
    /// `t` for the `L_exp` estimate is returned — the owner must then call
    /// [`Retransmitter::sleep`] with the next delay. `None` means ignore
    /// it: addressed to another CP, of an older cycle (counted stale), or
    /// after the stop.
    pub fn on_reply(
        &mut self,
        now: SimTime,
        reply: &Reply,
        out: &mut Vec<CpAction>,
    ) -> Option<SimTime> {
        if reply.probe.cp != self.cp {
            return None;
        }
        match self.state {
            State::Awaiting {
                seq,
                transmissions,
                last_send,
                timer,
            } if seq == reply.probe.seq => {
                out.push(CpAction::CancelTimer { token: timer });
                self.state = State::Accepted;
                self.stats.cycles_succeeded += 1;
                // The paper: "Assume the CP receives a reply on a probe with
                // probe-count pc at time t. (In case of a failed probe, the
                // time at which the retransmitted probe has been sent is
                // taken.)"
                Some(if transmissions == 1 { now } else { last_send })
            }
            State::Stopped(_) => None,
            _ => {
                self.stats.stale_replies += 1;
                None
            }
        }
    }

    /// Sleeps `after` before the next cycle: arms the wake timer that
    /// [`Retransmitter::on_timer`] will recognise. Call exactly once after
    /// each accepted reply.
    ///
    /// # Panics
    ///
    /// Panics unless a reply was just accepted — an owner bug.
    pub fn sleep(&mut self, after: SimDuration, out: &mut Vec<CpAction>) {
        assert!(
            matches!(self.state, State::Accepted),
            "sleep while {:?}",
            self.state
        );
        let wake = self.mint_token();
        self.state = State::Sleeping { wake };
        out.push(CpAction::StartTimer { token: wake, after });
    }

    /// Processes a timer firing with the given token: a cycle timeout
    /// retransmits or — once the budget is spent — declares the device
    /// absent; the wake timer begins the next cycle. Any other token (a
    /// stale timer, or any timer after the stop) is ignored.
    pub fn on_timer(&mut self, now: SimTime, token: TimerToken, out: &mut Vec<CpAction>) {
        match self.state {
            State::Awaiting {
                seq,
                transmissions,
                timer,
                ..
            } if timer == token => match self.cfg.retry(transmissions) {
                Some(after) => {
                    let new_timer = self.mint_token();
                    self.stats.probes_sent += 1;
                    self.stats.retransmissions += 1;
                    out.push(CpAction::SendProbe(Probe { cp: self.cp, seq }));
                    out.push(CpAction::StartTimer {
                        token: new_timer,
                        after,
                    });
                    self.state = State::Awaiting {
                        seq,
                        transmissions: transmissions + 1,
                        last_send: now,
                        timer: new_timer,
                    };
                }
                None => {
                    self.stats.cycles_failed += 1;
                    self.declare_absent(now, AbsenceReason::ProbeTimeout, out);
                }
            },
            State::Sleeping { wake } if wake == token => self.begin_cycle(now, out),
            _ => {}
        }
    }

    /// Stops probing because the device's own Bye said it is gone: cancels
    /// the outstanding timer, then declares the device absent with
    /// [`AbsenceReason::ByeReceived`] as the fourth timeout declares it
    /// with [`AbsenceReason::ProbeTimeout`]. Inert once stopped.
    pub fn stop(&mut self, now: SimTime, out: &mut Vec<CpAction>) {
        match self.state {
            State::Stopped(_) => return,
            State::Awaiting { timer: token, .. } | State::Sleeping { wake: token } => {
                out.push(CpAction::CancelTimer { token });
            }
            State::NotStarted | State::Accepted => {}
        }
        self.declare_absent(now, AbsenceReason::ByeReceived, out);
    }

    fn declare_absent(&mut self, now: SimTime, reason: AbsenceReason, out: &mut Vec<CpAction>) {
        self.state = State::Stopped(Verdict { at: now, reason });
        out.push(CpAction::DeviceAbsent { at: now, reason });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DeviceId, ReplyBody};
    use crate::{DcppConfig, DcppCp, FixedRateCp, Prober, SappConfig, SappCp};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn engine() -> Retransmitter {
        Retransmitter::new(CpId(1), ProbeCycleConfig::paper_default())
    }

    fn dcpp_reply(probe: Probe) -> Reply {
        Reply {
            probe,
            device: DeviceId(0),
            body: ReplyBody::Dcpp {
                wait: SimDuration::from_millis(500),
            },
        }
    }

    fn sapp_reply(probe: Probe) -> Reply {
        Reply {
            probe,
            device: DeviceId(0),
            body: ReplyBody::Sapp {
                pc: 100_000,
                last_probers: [None, None],
            },
        }
    }

    fn find_probe(out: &[CpAction]) -> Probe {
        out.iter()
            .find_map(|a| match a {
                CpAction::SendProbe(p) => Some(*p),
                _ => None,
            })
            .expect("no probe emitted")
    }

    fn find_timer(out: &[CpAction]) -> (TimerToken, SimDuration) {
        out.iter()
            .find_map(|a| match a {
                CpAction::StartTimer { token, after } => Some((*token, *after)),
                _ => None,
            })
            .expect("no timer armed")
    }

    #[test]
    fn successful_first_probe() {
        let mut e = engine();
        let mut out = Vec::new();
        e.start(t(0.0), &mut out);
        let probe = find_probe(&out);
        let (_, after) = find_timer(&out);
        assert_eq!(after, SimDuration::from_millis(22), "first timeout is TOF");

        out.clear();
        let anchor = e.on_reply(t(0.005), &dcpp_reply(probe), &mut out);
        assert_eq!(anchor, Some(t(0.005)), "first-attempt anchor is reply time");
        assert!(matches!(out[0], CpAction::CancelTimer { .. }));
        assert_eq!(e.stats().cycles_succeeded, 1);
        assert_eq!(e.stats().probes_sent, 1);
    }

    #[test]
    fn retransmission_uses_tos_and_same_seq() {
        let mut e = engine();
        let mut out = Vec::new();
        e.start(t(0.0), &mut out);
        let probe = find_probe(&out);
        let (tok, _) = find_timer(&out);

        out.clear();
        e.on_timer(t(0.022), tok, &mut out);
        assert!(e.verdict().is_none());
        let re = find_probe(&out);
        assert_eq!(re.seq, probe.seq, "retransmission reuses the cycle seq");
        let (_, after) = find_timer(&out);
        assert_eq!(after, SimDuration::from_millis(21), "retry timeout is TOS");
        assert_eq!(e.stats().retransmissions, 1);
    }

    #[test]
    fn anchor_after_retransmission_is_send_time() {
        let mut e = engine();
        let mut out = Vec::new();
        e.start(t(0.0), &mut out);
        let probe = find_probe(&out);
        let (tok, _) = find_timer(&out);
        out.clear();
        e.on_timer(t(0.022), tok, &mut out); // retransmit at 0.022
        out.clear();
        let anchor = e.on_reply(t(0.030), &dcpp_reply(probe), &mut out);
        assert_eq!(
            anchor,
            Some(t(0.022)),
            "anchor is the retransmission send time"
        );
    }

    #[test]
    fn four_unanswered_probes_fail_the_cycle() {
        let mut e = engine();
        let mut out = Vec::new();
        e.start(t(0.0), &mut out);
        let mut now = 0.022;
        // Three retransmissions succeed in being sent…
        for i in 0..3 {
            let (tok, _) = find_timer(&out);
            out.clear();
            e.on_timer(t(now), tok, &mut out);
            assert_eq!(find_probe(&out).seq, 0, "retry {i}");
            assert!(e.verdict().is_none(), "retry {i}");
            now += 0.021;
        }
        // …the fourth timeout fails the cycle.
        let (tok, _) = find_timer(&out);
        out.clear();
        e.on_timer(t(now), tok, &mut out);
        assert!(!out.iter().any(|a| matches!(a, CpAction::SendProbe(_))));
        assert!(e.verdict().is_some());
        assert_eq!(e.stats().probes_sent, 4);
        assert_eq!(e.stats().cycles_failed, 1);
        // Total detection time: TOF + 3 TOS = 0.085 s.
        assert!((now - 0.085).abs() < 1e-9);
    }

    #[test]
    fn stale_reply_ignored() {
        let mut e = engine();
        let mut out = Vec::new();
        e.start(t(0.0), &mut out);
        let probe = find_probe(&out);
        out.clear();
        // Reply to a different (older) seq.
        let other = Probe {
            seq: probe.seq + 100,
            ..probe
        };
        assert_eq!(e.on_reply(t(0.01), &dcpp_reply(other), &mut out), None);
        assert!(out.is_empty());
        assert_eq!(e.stats().stale_replies, 1);
        // The cycle is still in flight.
        assert!(e.on_reply(t(0.01), &dcpp_reply(probe), &mut out).is_some());
    }

    #[test]
    fn duplicate_reply_is_stale() {
        let mut e = engine();
        let mut out = Vec::new();
        e.start(t(0.0), &mut out);
        let probe = find_probe(&out);
        out.clear();
        assert!(e.on_reply(t(0.01), &dcpp_reply(probe), &mut out).is_some());
        e.sleep(SimDuration::from_millis(500), &mut out);
        out.clear();
        // The duplicate (e.g. the reply to a retransmission) must not
        // complete a second cycle.
        assert_eq!(e.on_reply(t(0.011), &dcpp_reply(probe), &mut out), None);
        assert_eq!(e.stats().cycles_succeeded, 1);
    }

    #[test]
    fn stale_timer_ignored() {
        let mut e = engine();
        let mut out = Vec::new();
        e.start(t(0.0), &mut out);
        let probe = find_probe(&out);
        let (tok, _) = find_timer(&out);
        out.clear();
        e.on_reply(t(0.01), &dcpp_reply(probe), &mut out);
        e.sleep(SimDuration::from_millis(500), &mut out);
        out.clear();
        // The cancelled timeout fires anyway (drivers may race) — ignored.
        e.on_timer(t(0.022), tok, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn seqs_increase_per_cycle() {
        let mut e = engine();
        let mut out = Vec::new();
        e.start(t(0.0), &mut out);
        let p1 = find_probe(&out);
        out.clear();
        e.on_reply(t(0.01), &dcpp_reply(p1), &mut out);
        e.sleep(SimDuration::from_secs(1), &mut out);
        let (wake, _) = find_timer(&out);
        out.clear();
        e.on_timer(t(1.01), wake, &mut out);
        assert_eq!(find_probe(&out).seq, p1.seq + 1);
    }

    #[test]
    fn minted_tokens_unique() {
        let mut e = engine();
        let a = e.mint_token();
        let b = e.mint_token();
        assert_ne!(a, b);
    }

    #[test]
    fn custom_retransmission_count() {
        let cfg = ProbeCycleConfig {
            max_retransmissions: 1,
            ..ProbeCycleConfig::paper_default()
        };
        let mut e = Retransmitter::new(CpId(0), cfg);
        let mut out = Vec::new();
        e.start(t(0.0), &mut out);
        let (tok, _) = find_timer(&out);
        out.clear();
        e.on_timer(t(0.022), tok, &mut out);
        find_probe(&out);
        assert!(e.verdict().is_none());
        let (tok, _) = find_timer(&out);
        out.clear();
        e.on_timer(t(0.043), tok, &mut out);
        assert!(e.verdict().is_some());
    }

    // -----------------------------------------------------------------
    // The lifecycle battery: one lifecycle, three delay rules. Every CP
    // machine is driven through the same script behind `dyn Prober`.
    // -----------------------------------------------------------------

    const ME: CpId = CpId(1);

    /// Name, machine, and a maker of the replies it understands.
    type Kind = (&'static str, Box<dyn Prober>, fn(Probe) -> Reply);

    fn kinds() -> [Kind; 3] {
        let cycle = ProbeCycleConfig::paper_default();
        let period = SimDuration::from_millis(250);
        [
            (
                "dcpp",
                Box::new(DcppCp::new(ME, DcppConfig::paper_default())),
                dcpp_reply,
            ),
            (
                "sapp",
                Box::new(SappCp::new(ME, SappConfig::paper_default())),
                sapp_reply,
            ),
            // The baseline accepts any body.
            (
                "fixed-rate",
                Box::new(FixedRateCp::new(ME, cycle, period)),
                dcpp_reply,
            ),
        ]
    }

    /// Starts `cp` and answers its first probe: returns the probe, the
    /// cancelled cycle timer and the armed wake timer — the machine sleeps.
    fn start_and_sleep(
        kind: &str,
        cp: &mut dyn Prober,
        reply: fn(Probe) -> Reply,
    ) -> (Probe, TimerToken, TimerToken) {
        let mut out = Vec::new();
        cp.start(t(0.0), &mut out);
        let probe = find_probe(&out);
        let (timeout, _) = find_timer(&out);
        out.clear();
        cp.on_reply(t(0.001), &reply(probe), &mut out);
        let (wake, after) = find_timer(&out);
        // Accepting cancels the cycle timer, then arms a wake minted after it.
        assert_eq!(
            out,
            [
                CpAction::CancelTimer { token: timeout },
                CpAction::StartTimer { token: wake, after },
            ],
            "{kind}"
        );
        assert_eq!(wake, TimerToken(timeout.0 + 1), "{kind}");
        assert_eq!(Some(after), cp.current_delay(), "{kind}");
        (probe, timeout, wake)
    }

    #[test]
    fn double_start_panics() {
        for (kind, mut cp, _) in kinds() {
            let mut out = Vec::new();
            cp.start(t(0.0), &mut out);
            let again = catch_unwind(AssertUnwindSafe(|| cp.start(t(1.0), &mut out)));
            let payload = again.expect_err(kind);
            let text = payload.downcast_ref::<String>().expect("formatted panic");
            assert!(text.contains("start called twice"), "{kind}: {text}");
        }
    }

    #[test]
    fn wake_begins_the_next_cycle_with_the_next_seq() {
        for (kind, mut cp, reply) in kinds() {
            let (first, _, wake) = start_and_sleep(kind, cp.as_mut(), reply);
            let mut out = Vec::new();
            cp.on_timer(t(0.6), wake, &mut out);
            assert_eq!(find_probe(&out).seq, first.seq + 1, "{kind}");
            assert_eq!(find_timer(&out).1, SimDuration::from_millis(22), "{kind}");
            assert_eq!(cp.stats().cycles_started, 2, "{kind}");
            // The spent wake token means nothing any more.
            out.clear();
            cp.on_timer(t(0.61), wake, &mut out);
            assert!(out.is_empty(), "{kind}");
        }
    }

    #[test]
    fn retransmits_then_succeeds() {
        for (kind, mut cp, reply) in kinds() {
            let mut out = Vec::new();
            cp.start(t(0.0), &mut out);
            let probe = find_probe(&out);
            let (timeout, _) = find_timer(&out);
            out.clear();
            cp.on_timer(t(0.022), timeout, &mut out);
            assert_eq!(find_probe(&out), probe, "{kind}: same seq retransmitted");
            out.clear();
            cp.on_reply(t(0.03), &reply(probe), &mut out);
            assert_eq!(cp.stats().cycles_succeeded, 1, "{kind}");
            assert_eq!(cp.stats().retransmissions, 1, "{kind}");
            assert!(!cp.is_stopped(), "{kind}");
            assert!(
                matches!(
                    out[..],
                    [CpAction::CancelTimer { .. }, CpAction::StartTimer { .. }]
                ),
                "{kind}: {out:?}"
            );
        }
    }

    #[test]
    fn exhausted_budget_is_a_probe_timeout_verdict() {
        let budget = 1 + ProbeCycleConfig::paper_default().max_retransmissions;
        for (kind, mut cp, _) in kinds() {
            let mut out = Vec::new();
            cp.start(t(0.0), &mut out);
            let mut now = 0.022;
            for _ in 0..budget {
                assert_eq!(cp.verdict(), None, "{kind}");
                let (timeout, _) = find_timer(&out);
                out.clear();
                cp.on_timer(t(now), timeout, &mut out);
                now += 0.021;
            }
            let at = t(now - 0.021);
            let reason = AbsenceReason::ProbeTimeout;
            // The fired timer needs no cancelling: the verdict stands alone.
            assert_eq!(out, [CpAction::DeviceAbsent { at, reason }], "{kind}");
            assert!(cp.is_stopped(), "{kind}");
            assert_eq!(cp.verdict(), Some(Verdict { at, reason }), "{kind}");
            assert_eq!(cp.stats().probes_sent, u64::from(budget), "{kind}");
            assert_eq!(cp.stats().cycles_failed, 1, "{kind}");
        }
    }

    #[test]
    fn bye_cancels_the_outstanding_timer_then_declares_absent() {
        let at = t(0.2);
        let reason = AbsenceReason::ByeReceived;
        for sleeping in [true, false] {
            for (kind, mut cp, reply) in kinds() {
                // The outstanding timer: the wake, or the cycle timeout.
                let mut out = Vec::new();
                let token = if sleeping {
                    start_and_sleep(kind, cp.as_mut(), reply).2
                } else {
                    cp.start(t(0.0), &mut out);
                    find_timer(&out).0
                };
                out.clear();
                cp.on_bye(at, &mut out);
                let what = format!("{kind}, sleeping: {sleeping}");
                assert_eq!(
                    out,
                    [
                        CpAction::CancelTimer { token },
                        CpAction::DeviceAbsent { at, reason },
                    ],
                    "{what}"
                );
                assert!(cp.is_stopped(), "{what}");
                assert_eq!(cp.verdict(), Some(Verdict { at, reason }), "{what}");
                assert_eq!(cp.stats().cycles_failed, 0, "{what}: no cycle timed out");
            }
        }
    }

    #[test]
    fn stale_and_foreign_replies_change_nothing() {
        for (kind, mut cp, reply) in kinds() {
            let mut out = Vec::new();
            cp.start(t(0.0), &mut out);
            let probe = find_probe(&out);
            out.clear();
            let before = *cp.stats();

            // Addressed to another CP: not even counted.
            let foreign = Probe {
                cp: CpId(55),
                seq: probe.seq,
            };
            cp.on_reply(t(0.001), &reply(foreign), &mut out);
            assert!(out.is_empty(), "{kind}");
            assert_eq!(*cp.stats(), before, "{kind}");

            // Ours, but of another cycle: counted, otherwise inert.
            let stale = Probe {
                cp: ME,
                seq: probe.seq + 7,
            };
            cp.on_reply(t(0.002), &reply(stale), &mut out);
            assert!(out.is_empty(), "{kind}");
            assert_eq!(cp.stats().stale_replies, 1, "{kind}");
            assert_eq!(cp.stats().cycles_succeeded, 0, "{kind}");

            // The cycle is still in flight: the real reply completes it.
            cp.on_reply(t(0.003), &reply(probe), &mut out);
            assert_eq!(cp.stats().cycles_succeeded, 1, "{kind}");
        }
    }

    /// A reply of the other protocol is a driver bug (`debug_assert!`); a
    /// release build drops it before the cycle sees it.
    #[test]
    fn wrong_protocol_reply_never_reaches_the_cycle() {
        let [dcpp, sapp, _] = kinds();
        let wrong_for: [fn(Probe) -> Reply; 2] = [sapp_reply, dcpp_reply];
        for ((kind, mut cp, _), wrong) in [dcpp, sapp].into_iter().zip(wrong_for) {
            let mut out = Vec::new();
            cp.start(t(0.0), &mut out);
            let probe = find_probe(&out);
            let (timeout, _) = find_timer(&out);
            out.clear();
            let before = *cp.stats();
            let fed = catch_unwind(AssertUnwindSafe(|| {
                cp.on_reply(t(0.001), &wrong(probe), &mut out);
            }));
            if cfg!(debug_assertions) {
                assert!(fed.is_err(), "{kind}: debug builds flag the driver bug");
                continue;
            }
            assert!(out.is_empty(), "{kind}");
            assert_eq!(*cp.stats(), before, "{kind}: not even counted stale");
            // Still in flight: the cycle timer retransmits the same probe.
            cp.on_timer(t(0.022), timeout, &mut out);
            assert_eq!(find_probe(&out), probe, "{kind}");
        }
    }

    #[test]
    fn every_entry_point_is_inert_after_a_stop() {
        for (kind, mut cp, reply) in kinds() {
            let (probe, timeout, wake) = start_and_sleep(kind, cp.as_mut(), reply);
            let mut out = Vec::new();
            cp.on_bye(t(0.2), &mut out);
            out.clear();
            let stats = *cp.stats();
            let verdict = cp.verdict();
            assert!(verdict.is_some(), "{kind}");

            cp.on_reply(t(0.3), &reply(probe), &mut out);
            cp.on_timer(t(0.3), timeout, &mut out);
            cp.on_timer(t(0.3), wake, &mut out);
            cp.on_bye(t(0.3), &mut out);
            assert!(out.is_empty(), "{kind}: {out:?}");
            assert_eq!(*cp.stats(), stats, "{kind}");
            assert_eq!(cp.verdict(), verdict, "{kind}: the first verdict stands");
            assert!(cp.is_stopped(), "{kind}");
        }
    }
}

//! Property-based tests for the protocol state machines.
//!
//! These drive the sans-io machines with adversarial event sequences and
//! check the paper's stated invariants:
//!
//! * SAPP's delay always stays inside `[δ_min, δ_max]` (Eq. 1 clamps);
//! * DCPP's device never schedules two probes closer than `δ_min` and never
//!   asks a CP to wait less than `d_min` (§4 constraints (i) and (ii)), and
//!   its clamped slot rule is the literal one while it is backlogged;
//! * the probe cycle never sends more than `1 + max_retransmissions`
//!   transmissions per cycle.

use presence_core::{
    CpAction, CpId, DcppConfig, DcppCp, DcppDevice, DeviceId, Probe, ProbeCycleConfig, Prober,
    Reply, ReplyBody, Retransmitter, SappConfig, SappCp,
};
use presence_des::{SimDuration, SimTime};
use proptest::prelude::*;

fn t(secs: f64) -> SimTime {
    SimTime::from_secs_f64(secs)
}

/// Extracts every timer-start token from an action batch.
fn timers(out: &[CpAction]) -> Vec<presence_core::TimerToken> {
    out.iter()
        .filter_map(|a| match a {
            CpAction::StartTimer { token, .. } => Some(*token),
            _ => None,
        })
        .collect()
}

fn probes(out: &[CpAction]) -> Vec<Probe> {
    out.iter()
        .filter_map(|a| match a {
            CpAction::SendProbe(p) => Some(*p),
            _ => None,
        })
        .collect()
}

proptest! {
    /// DCPP device invariants (i) and (ii) hold under arbitrary arrival
    /// patterns: scheduled slots are strictly increasing and ≥ δ_min
    /// apart — §4 (i): "two consecutive probes are at least δ_min time
    /// units apart" — and every assigned wait is ≥ d_min. The device
    /// ignores which CP probes (`nt = schedule(nt, now)`), so arrivals are
    /// drawn as bursts: a gap, then a run of simultaneous probes (exact
    /// zero gaps) up to a join burst of 80 CPs at one instant. Spacing
    /// ≥ δ_min = 0.1 s is what caps the device at L_nom = 10 slots in any
    /// second.
    #[test]
    fn dcpp_device_constraints(
        bursts in prop::collection::vec((0.0..2.0f64, 1usize..81), 1..40),
    ) {
        let cfg = DcppConfig::paper_default();
        let mut device = DcppDevice::new(DeviceId(0), cfg);
        let mut now = 0.0;
        let mut prev_slot: Option<SimTime> = None;
        for (gap, burst) in bursts {
            now += gap;
            for _ in 0..burst {
                let reply = device.on_probe(t(now), Probe { cp: CpId(0), seq: 0 });
                let ReplyBody::Dcpp { wait } = reply.body else { panic!("wrong body") };
                // (ii) no CP asked to probe sooner than d_min.
                prop_assert!(wait >= cfg.d_min, "wait {wait} below d_min");
                let slot = t(now) + wait;
                // (i) consecutive scheduled slots at least delta_min apart.
                if let Some(prev) = prev_slot {
                    prop_assert!(slot > prev, "schedule must be strictly increasing");
                    prop_assert!(
                        slot.saturating_since(prev) >= cfg.delta_min,
                        "slots {prev} and {slot} closer than delta_min"
                    );
                }
                prev_slot = Some(slot);
            }
        }
    }

    /// `DcppConfig::schedule` is the paper's literal slot rule
    /// `max{nt, t} + max{δ_min, d_min − (nt − t)}` while the device is
    /// backlogged (`nt ≥ t`); once it is idle (`nt < t`) the wait is
    /// exactly `d_min`, where the literal rule adds the idle gap `t − nt`.
    #[test]
    fn dcpp_schedule_is_the_literal_rule_while_backlogged(
        delta_min in 1u64..2_000_000_000,
        d_min_extra in 0u64..2_000_000_000,
        now in 0u64..1_000_000_000_000,
        nt_offset in -10_000_000_000i64..10_000_000_000,
    ) {
        let cfg = DcppConfig {
            delta_min: SimDuration::from_nanos(delta_min),
            d_min: SimDuration::from_nanos(delta_min + d_min_extra),
            ..DcppConfig::paper_default()
        };
        prop_assert!(cfg.validate().is_ok());
        let nt = now.saturating_add_signed(nt_offset);
        let slot = cfg.schedule(SimTime::from_nanos(nt), SimTime::from_nanos(now));
        // Signed nanoseconds: the literal backlog term may go negative.
        let ns = |v: u64| i128::from(v);
        let (t, nt, slot) = (ns(now), ns(nt), ns(slot.as_nanos()));
        let (delta_min, d_min) = (ns(delta_min), ns(cfg.d_min.as_nanos()));
        let literal = nt.max(t) + delta_min.max(d_min - (nt - t));
        if nt >= t {
            prop_assert_eq!(slot, literal);
        } else {
            prop_assert_eq!(slot - t, d_min);
            prop_assert_eq!(literal - slot, t - nt);
        }
    }

    /// SAPP's delay stays inside [δ_min, δ_max] from the start and after
    /// every reply, whatever pc values the device reports — so a CP never
    /// probes faster than 1/δ_min (§2's frequency cap).
    #[test]
    fn sapp_delay_stays_clamped(pcs in prop::collection::vec(1u64..10_000_000_000, 2..100)) {
        let cfg = SappConfig::paper_default();
        let mut cp = SappCp::new(CpId(0), cfg);
        let mut out = Vec::new();
        cp.start(t(0.0), &mut out);
        let clamped = |d: SimDuration| cfg.delta_min <= d && d <= cfg.delta_max;
        prop_assert!(clamped(cp.current_delay().unwrap()), "initial delay out of bounds");
        let mut now = 0.0;
        let mut pc_acc = 0u64;
        for pc_jump in pcs {
            let probe = probes(&out).last().copied().expect("probe in flight");
            pc_acc = pc_acc.saturating_add(pc_jump);
            now += 0.001;
            out.clear();
            cp.on_reply(
                t(now),
                &Reply {
                    probe,
                    device: DeviceId(0),
                    body: ReplyBody::Sapp { pc: pc_acc, last_probers: [None, None] },
                },
                &mut out,
            );
            prop_assert!(clamped(cp.current_delay().unwrap()), "delay out of bounds");
            // Wake up for the next cycle.
            let wake = *timers(&out).last().expect("wake timer");
            now += cp.current_delay().unwrap().as_secs_f64();
            out.clear();
            cp.on_timer(t(now), wake, &mut out);
        }
    }

    /// A probe cycle sends at most 1 + max_retransmissions transmissions,
    /// then fails — under any retransmission limit.
    #[test]
    fn cycle_transmission_budget(max_retx in 0u32..10) {
        let cfg = ProbeCycleConfig {
            max_retransmissions: max_retx,
            ..ProbeCycleConfig::paper_default()
        };
        let mut e = Retransmitter::new(CpId(0), cfg);
        let mut out = Vec::new();
        e.start(t(0.0), &mut out);
        let mut transmissions = probes(&out).len() as u32;
        let mut now = 0.1;
        while !e.is_stopped() {
            let tok = *timers(&out).last().expect("timer armed");
            out.clear();
            e.on_timer(t(now), tok, &mut out);
            transmissions += probes(&out).len() as u32;
            now += 0.1;
        }
        prop_assert_eq!(transmissions, 1 + max_retx);
        prop_assert_eq!(e.stats().probes_sent, (1 + max_retx) as u64);
    }

    /// Replies with arbitrary wrong sequence numbers never complete a DCPP
    /// cycle or schedule a wake timer.
    #[test]
    fn dcpp_cp_ignores_wrong_seqs(wrong_seqs in prop::collection::vec(1u64..1000, 1..50)) {
        let mut cp = DcppCp::new(CpId(3), DcppConfig::paper_default());
        let mut out = Vec::new();
        cp.start(t(0.0), &mut out);
        let real = probes(&out)[0];
        for (i, &seq) in wrong_seqs.iter().enumerate() {
            if seq == real.seq {
                continue;
            }
            out.clear();
            cp.on_reply(
                t(0.001 + i as f64 * 1e-6),
                &Reply {
                    probe: Probe { cp: CpId(3), seq },
                    device: DeviceId(0),
                    body: ReplyBody::Dcpp { wait: SimDuration::from_millis(100) },
                },
                &mut out,
            );
            prop_assert!(out.is_empty(), "stale reply produced actions");
        }
        prop_assert_eq!(cp.stats().cycles_succeeded, 0);
        prop_assert!(!cp.is_stopped());
    }

    /// SAPP adaptation is monotone in the right direction: a higher
    /// experienced load never yields a *shorter* next delay than a lower
    /// one, starting from the same state.
    #[test]
    fn sapp_adaptation_monotone(l_low in 1.0..5e6f64, l_high in 1.0..5e6f64) {
        prop_assume!(l_low <= l_high);
        let run = |l_exp: f64| -> f64 {
            let mut cfg = SappConfig::paper_default();
            cfg.initial_delay = SimDuration::from_secs(1);
            let mut cp = SappCp::new(CpId(0), cfg);
            let mut out = Vec::new();
            cp.start(t(0.0), &mut out);
            let p1 = probes(&out)[0];
            out.clear();
            // First reply sets the anchor at pc=0-ish.
            cp.on_reply(t(1.0), &Reply {
                probe: p1,
                device: DeviceId(0),
                body: ReplyBody::Sapp { pc: 1, last_probers: [None, None] },
            }, &mut out);
            let wake = *timers(&out).last().unwrap();
            out.clear();
            cp.on_timer(t(2.0), wake, &mut out);
            let p2 = probes(&out)[0];
            out.clear();
            // Second reply exactly 1 s after the first: Δpc = l_exp.
            cp.on_reply(t(2.0), &Reply {
                probe: p2,
                device: DeviceId(0),
                body: ReplyBody::Sapp { pc: 1 + l_exp as u64, last_probers: [None, None] },
            }, &mut out);
            cp.current_delay().unwrap().as_secs_f64()
        };
        prop_assert!(run(l_high) >= run(l_low) - 1e-12);
    }
}

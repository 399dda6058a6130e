//! SAPP control-point behaviour (§2, "CP behavior" and "Adapting the
//! probing frequency").
//!
//! A CP runs the shared lifecycle ([`Retransmitter`]) and adapts its
//! inter-cycle delay `δ` from the *experienced probe load*
//!
//! ```text
//! L_exp = (pc' − pc) / (t' − t)
//! ```
//!
//! computed over two consecutive successful probes, per Eq. (1):
//!
//! ```text
//! δ' = min(α_inc · δ, δ_max)   if L_exp > β · L_ideal
//! δ' = max(δ / α_dec, δ_min)   if L_exp < L_ideal / β
//! δ' = δ                        otherwise
//! ```
//!
//! This is the protocol the paper shows to be **unfair**: the experienced
//! load cannot distinguish "many CPs at medium rate" from "few CPs at high
//! rate", and greedy fast CPs grab freed bandwidth before slow CPs notice,
//! so some CPs starve at `δ_max` while others oscillate near `δ_min`.

use crate::config::SappConfig;
use crate::cycle::Retransmitter;
use crate::prober::Prober;
use crate::types::{CpAction, CpId, CpStats, Reply, ReplyBody, TimerToken, Verdict};
use presence_des::{SimDuration, SimTime};

/// The control-point side of the self-adaptive probe protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct SappCp {
    cfg: SappConfig,
    cycle: Retransmitter,
    /// Current inter-probe-cycle delay `δ`.
    delay: SimDuration,
    /// `(t, pc)` of the last successful probe — the anchor for `L_exp`.
    anchor: Option<(SimTime, u64)>,
}

impl SappCp {
    /// Creates a CP that will probe one device.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; validate at the boundary with
    /// [`SappConfig::validate`] for a recoverable error.
    #[must_use]
    pub fn new(cp: CpId, cfg: SappConfig) -> Self {
        cfg.validate().expect("invalid SAPP configuration");
        Self {
            cycle: Retransmitter::new(cp, cfg.cycle),
            cfg,
            delay: cfg.initial_delay,
            anchor: None,
        }
    }

    /// Applies Eq. (1) to the current delay given an experienced load.
    fn adapt(&mut self, l_exp: f64) {
        if l_exp > self.cfg.beta * self.cfg.l_ideal {
            let widened = self.delay.mul_f64(self.cfg.alpha_inc);
            self.delay = if widened > self.cfg.delta_max {
                self.cfg.delta_max
            } else {
                widened
            };
        } else if l_exp < self.cfg.l_ideal / self.cfg.beta {
            let shortened = self.delay.mul_f64(1.0 / self.cfg.alpha_dec);
            self.delay = if shortened < self.cfg.delta_min {
                self.cfg.delta_min
            } else {
                shortened
            };
        }
    }
}

impl Prober for SappCp {
    fn cp(&self) -> CpId {
        self.cycle.cp()
    }

    fn start(&mut self, now: SimTime, out: &mut Vec<CpAction>) {
        self.cycle.start(now, out);
    }

    fn on_reply(&mut self, now: SimTime, reply: &Reply, out: &mut Vec<CpAction>) {
        let ReplyBody::Sapp { pc, .. } = reply.body else {
            debug_assert!(false, "SAPP CP received a non-SAPP reply");
            return;
        };
        if let Some(anchor) = self.cycle.on_reply(now, reply, out) {
            if let Some((prev_t, prev_pc)) = self.anchor {
                let dt = anchor.saturating_since(prev_t).as_secs_f64();
                if dt > 0.0 {
                    let l_exp = (pc.saturating_sub(prev_pc)) as f64 / dt;
                    self.adapt(l_exp);
                }
            }
            self.anchor = Some((anchor, pc));
            self.cycle.sleep(self.delay, out);
        }
    }

    fn on_timer(&mut self, now: SimTime, token: TimerToken, out: &mut Vec<CpAction>) {
        self.cycle.on_timer(now, token, out);
    }

    fn on_bye(&mut self, now: SimTime, out: &mut Vec<CpAction>) {
        self.cycle.stop(now, out);
    }

    fn stats(&self) -> &CpStats {
        self.cycle.stats()
    }

    fn verdict(&self) -> Option<Verdict> {
        self.cycle.verdict()
    }

    fn current_delay(&self) -> Option<SimDuration> {
        Some(self.delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DeviceId, Probe};

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn cp() -> SappCp {
        SappCp::new(CpId(1), SappConfig::paper_default())
    }

    fn sapp_reply(probe: Probe, pc: u64) -> Reply {
        Reply {
            probe,
            device: DeviceId(0),
            body: ReplyBody::Sapp {
                pc,
                last_probers: [None, None],
            },
        }
    }

    fn sent_probe(out: &[CpAction]) -> Probe {
        out.iter()
            .find_map(|a| match a {
                CpAction::SendProbe(p) => Some(*p),
                _ => None,
            })
            .expect("no probe in actions")
    }

    fn wake_delay(out: &[CpAction]) -> SimDuration {
        out.iter()
            .find_map(|a| match a {
                CpAction::StartTimer { after, .. } => Some(*after),
                _ => None,
            })
            .expect("no timer in actions")
    }

    /// Drives one successful probe cycle: start (or wake) has already sent
    /// the probe in `out`; feeds a reply with the given pc at `reply_t`.
    fn complete_cycle(
        cp: &mut SappCp,
        out: &mut Vec<CpAction>,
        pc: u64,
        reply_t: f64,
    ) -> SimDuration {
        let probe = sent_probe(out);
        out.clear();
        cp.on_reply(t(reply_t), &sapp_reply(probe, pc), out);
        wake_delay(out)
    }

    #[test]
    fn starts_by_probing_immediately() {
        let mut c = cp();
        let mut out = Vec::new();
        c.start(t(0.0), &mut out);
        let p = sent_probe(&out);
        assert_eq!(p.cp, CpId(1));
        assert_eq!(c.stats().cycles_started, 1);
    }

    #[test]
    fn first_reply_sets_anchor_without_adapting() {
        let mut c = cp();
        let mut out = Vec::new();
        c.start(t(0.0), &mut out);
        let d = complete_cycle(&mut c, &mut out, 100_000, 0.001);
        assert_eq!(d, c.cfg.initial_delay, "no adaptation on first reply");
        assert_eq!(c.anchor, Some((t(0.001), 100_000)));
    }

    #[test]
    fn overload_increases_delay() {
        let mut c = cp();
        let mut out = Vec::new();
        c.start(t(0.0), &mut out);
        complete_cycle(&mut c, &mut out, 100_000, 0.001);
        // Wake and run a second cycle. Make pc jump so hard that
        // L_exp > beta * L_ideal = 1.5e6.
        let wake = out
            .iter()
            .find_map(|a| match a {
                CpAction::StartTimer { token, .. } => Some(*token),
                _ => None,
            })
            .unwrap();
        out.clear();
        c.on_timer(t(0.021), wake, &mut out);
        // 1.0 s later: Δpc = 2_000_000 over ~1.02 s → ~1.96e6 > 1.5e6.
        let d = complete_cycle(&mut c, &mut out, 2_100_000, 1.021);
        let expected = c.cfg.initial_delay.mul_f64(c.cfg.alpha_inc);
        assert_eq!(d, expected, "delay doubled by alpha_inc");
    }

    #[test]
    fn underload_decreases_delay() {
        let mut cfg = SappConfig::paper_default();
        cfg.initial_delay = SimDuration::from_secs(1);
        let mut c = SappCp::new(CpId(1), cfg);
        let mut out = Vec::new();
        c.start(t(0.0), &mut out);
        complete_cycle(&mut c, &mut out, 100_000, 0.001);
        let wake = out
            .iter()
            .find_map(|a| match a {
                CpAction::StartTimer { token, .. } => Some(*token),
                _ => None,
            })
            .unwrap();
        out.clear();
        c.on_timer(t(1.001), wake, &mut out);
        // Δpc = 100_000 over ~1 s → 1e5 < L_ideal/beta ≈ 6.67e5 → shorten.
        let d = complete_cycle(&mut c, &mut out, 200_000, 2.002);
        let expected = SimDuration::from_secs(1).mul_f64(1.0 / 1.5);
        assert_eq!(d, expected);
    }

    #[test]
    fn dead_band_holds_delay() {
        let mut c = cp();
        let mut out = Vec::new();
        c.start(t(0.0), &mut out);
        complete_cycle(&mut c, &mut out, 100_000, 0.001);
        let wake = out
            .iter()
            .find_map(|a| match a {
                CpAction::StartTimer { token, .. } => Some(*token),
                _ => None,
            })
            .unwrap();
        out.clear();
        c.on_timer(t(0.021), wake, &mut out);
        // Δpc = 1_000_000 over ~1.0 s → 1e6 = L_ideal: inside dead band.
        let d = complete_cycle(&mut c, &mut out, 1_100_000, 1.001);
        assert_eq!(d, c.cfg.initial_delay);
    }

    #[test]
    fn delay_clamped_at_delta_max() {
        let mut cfg = SappConfig::paper_default();
        cfg.initial_delay = SimDuration::from_secs(8);
        let mut c = SappCp::new(CpId(1), cfg);
        let mut out = Vec::new();
        c.start(t(0.0), &mut out);
        complete_cycle(&mut c, &mut out, 100_000, 0.001);
        let wake = out
            .iter()
            .find_map(|a| match a {
                CpAction::StartTimer { token, .. } => Some(*token),
                _ => None,
            })
            .unwrap();
        out.clear();
        c.on_timer(t(8.001), wake, &mut out);
        // Overload: would double 8 → 16, clamped at δ_max = 10.
        let d = complete_cycle(&mut c, &mut out, 100_000_000, 9.0);
        assert_eq!(d, cfg.delta_max);
    }

    #[test]
    fn delay_clamped_at_delta_min() {
        let mut c = cp(); // initial = δ_min already
        let mut out = Vec::new();
        c.start(t(0.0), &mut out);
        complete_cycle(&mut c, &mut out, 100_000, 0.001);
        let wake = out
            .iter()
            .find_map(|a| match a {
                CpAction::StartTimer { token, .. } => Some(*token),
                _ => None,
            })
            .unwrap();
        out.clear();
        c.on_timer(t(10.0), wake, &mut out);
        // Underload over 10 s → would shorten below δ_min, clamped.
        let d = complete_cycle(&mut c, &mut out, 200_000, 20.0);
        assert_eq!(d, c.cfg.delta_min);
    }
}

//! DCPP control-point behaviour (§4, "CP behavior").
//!
//! "The CP behavior is, compared to the SAPP, much simpler": the same
//! lifecycle ([`Retransmitter`]), but the inter-cycle delay is simply the
//! wait time the device put in its reply. No estimation, no adaptation
//! — which is exactly why the protocol is fair and cheap enough for "small
//! computing devices such as mobile phones, PDAs, and so on". In code:
//! the only method with a body is `on_reply`.

use crate::config::DcppConfig;
use crate::cycle::Retransmitter;
use crate::prober::Prober;
use crate::types::{CpAction, CpId, CpStats, Reply, ReplyBody, TimerToken, Verdict};
use presence_des::{SimDuration, SimTime};

/// The control-point side of the device-controlled probe protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct DcppCp {
    cycle: Retransmitter,
    /// The wait the device assigned in the most recent reply.
    last_wait: Option<SimDuration>,
}

impl DcppCp {
    /// Creates a CP that will probe one device.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; validate at the boundary with
    /// [`DcppConfig::validate`] for a recoverable error.
    #[must_use]
    pub fn new(cp: CpId, cfg: DcppConfig) -> Self {
        cfg.validate().expect("invalid DCPP configuration");
        Self {
            cycle: Retransmitter::new(cp, cfg.cycle),
            last_wait: None,
        }
    }
}

// A DCPP prober is the machine every hub CP and every UDP prober slot
// boxes: it keeps only its lifecycle and the last wait, never its config.
const _: () = assert!(std::mem::size_of::<DcppCp>() <= 144);

impl Prober for DcppCp {
    fn cp(&self) -> CpId {
        self.cycle.cp()
    }

    fn start(&mut self, now: SimTime, out: &mut Vec<CpAction>) {
        self.cycle.start(now, out);
    }

    fn on_reply(&mut self, now: SimTime, reply: &Reply, out: &mut Vec<CpAction>) {
        let ReplyBody::Dcpp { wait } = reply.body else {
            debug_assert!(false, "DCPP CP received a non-DCPP reply");
            return;
        };
        if self.cycle.on_reply(now, reply, out).is_some() {
            self.last_wait = Some(wait);
            self.cycle.sleep(wait, out);
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
        self.last_wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DeviceId, Probe};

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn cp() -> DcppCp {
        DcppCp::new(CpId(2), DcppConfig::paper_default())
    }

    fn dcpp_reply(probe: Probe, wait_ms: u64) -> Reply {
        Reply {
            probe,
            device: DeviceId(0),
            body: ReplyBody::Dcpp {
                wait: SimDuration::from_millis(wait_ms),
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

    #[test]
    fn obeys_device_assigned_wait() {
        let mut c = cp();
        let mut out = Vec::new();
        c.start(t(0.0), &mut out);
        let probe = sent_probe(&out);
        out.clear();
        c.on_reply(t(0.001), &dcpp_reply(probe, 500), &mut out);
        // Must sleep exactly the assigned 500 ms.
        let timer = out
            .iter()
            .find_map(|a| match a {
                CpAction::StartTimer { after, .. } => Some(*after),
                _ => None,
            })
            .unwrap();
        assert_eq!(timer, SimDuration::from_millis(500));
        assert_eq!(c.last_wait, Some(SimDuration::from_millis(500)));
        assert_eq!(c.current_delay(), Some(SimDuration::from_millis(500)));
    }

    #[test]
    fn no_delay_known_before_first_reply() {
        let mut c = cp();
        assert_eq!(c.current_delay(), None);
        let mut out = Vec::new();
        c.start(t(0.0), &mut out);
        assert_eq!(c.current_delay(), None);
    }

    #[test]
    fn stale_reply_does_not_double_schedule() {
        let mut c = cp();
        let mut out = Vec::new();
        c.start(t(0.0), &mut out);
        let probe = sent_probe(&out);
        out.clear();
        c.on_reply(t(0.001), &dcpp_reply(probe, 500), &mut out);
        out.clear();
        // Duplicate reply (e.g. the device answered a retransmission too).
        c.on_reply(t(0.002), &dcpp_reply(probe, 700), &mut out);
        assert!(out.is_empty(), "stale reply must be inert");
        assert_eq!(c.last_wait, Some(SimDuration::from_millis(500)));
        assert_eq!(c.stats().stale_replies, 1);
    }
}

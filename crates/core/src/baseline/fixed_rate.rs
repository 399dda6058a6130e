//! The naive baseline: probe at a fixed rate.
//!
//! This is the "simplest scheme one could consider" that the paper's
//! introduction dismisses because it "easily leads to over- or underloading
//! of devices": with `k` CPs probing a device at period `T`, the device
//! load is `k/T` regardless of what the device can sustain. Experiment A3
//! measures exactly that against SAPP and DCPP. The shared lifecycle
//! ([`Retransmitter`]) with the simplest delay rule: always `period`.

use crate::config::ProbeCycleConfig;
use crate::cycle::Retransmitter;
use crate::prober::Prober;
use crate::types::{CpAction, CpId, CpStats, Reply, TimerToken, Verdict};
use presence_des::{SimDuration, SimTime};

/// A control point that probes with a fixed inter-cycle period.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedRateCp {
    cycle: Retransmitter,
    period: SimDuration,
}

impl FixedRateCp {
    /// Creates a CP probing every `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or the cycle configuration is invalid.
    #[must_use]
    pub fn new(cp: CpId, cycle: ProbeCycleConfig, period: SimDuration) -> Self {
        assert!(period > SimDuration::ZERO, "period must be positive");
        Self {
            cycle: Retransmitter::new(cp, cycle),
            period,
        }
    }
}

impl Prober for FixedRateCp {
    fn cp(&self) -> CpId {
        self.cycle.cp()
    }

    fn start(&mut self, now: SimTime, out: &mut Vec<CpAction>) {
        self.cycle.start(now, out);
    }

    fn on_reply(&mut self, now: SimTime, reply: &Reply, out: &mut Vec<CpAction>) {
        // Any reply body is acceptable: the baseline ignores payloads.
        if self.cycle.on_reply(now, reply, out).is_some() {
            self.cycle.sleep(self.period, out);
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
        Some(self.period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DeviceId, ReplyBody};

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn cp(period_ms: u64) -> FixedRateCp {
        FixedRateCp::new(
            CpId(0),
            ProbeCycleConfig::paper_default(),
            SimDuration::from_millis(period_ms),
        )
    }

    fn reply_to(out: &[CpAction]) -> Reply {
        let probe = out
            .iter()
            .find_map(|a| match a {
                CpAction::SendProbe(p) => Some(*p),
                _ => None,
            })
            .expect("no probe");
        Reply {
            probe,
            device: DeviceId(0),
            body: ReplyBody::Dcpp {
                wait: SimDuration::from_millis(999), // ignored by baseline
            },
        }
    }

    #[test]
    fn fixed_period_regardless_of_payload() {
        let mut c = cp(250);
        let mut out = Vec::new();
        c.start(t(0.0), &mut out);
        let r = reply_to(&out);
        out.clear();
        c.on_reply(t(0.001), &r, &mut out);
        let after = out
            .iter()
            .find_map(|a| match a {
                CpAction::StartTimer { after, .. } => Some(*after),
                _ => None,
            })
            .unwrap();
        assert_eq!(
            after,
            SimDuration::from_millis(250),
            "ignores the reply's wait"
        );
        assert_eq!(c.current_delay(), Some(SimDuration::from_millis(250)));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = FixedRateCp::new(
            CpId(0),
            ProbeCycleConfig::paper_default(),
            SimDuration::ZERO,
        );
    }
}

//! SAPP device behaviour (§2, "Device behavior").
//!
//! A device maintains a probe counter `pc`, incremented by `Δ = L_ideal /
//! L_nom` on every probe. The reply carries the updated `pc`; CPs derive
//! the experienced load from successive `pc` values. Because `Δ` is private
//! to the device it can steer its own load: doubling `Δ` makes CPs perceive
//! the device as twice as busy and (eventually) halves the real probe load.

use crate::config::SappDeviceConfig;
use crate::types::{CpId, DeviceId, Probe, Reply, ReplyBody};
use presence_des::SimTime;

/// The device side of the self-adaptive probe protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct SappDevice {
    id: DeviceId,
    /// The probe counter `pc`.
    pc: u64,
    /// The current increment `Δ` (starts at `cfg.delta()`, may be retuned).
    delta: u64,
    /// Last two *distinct* probing CPs, most recent first. Returned on each
    /// reply, as the paper's reply format specifies; they are the links of
    /// the overlay whose dissemination phase the paper defers, and no CP in
    /// this tree reads them.
    last_probers: [Option<CpId>; 2],
    /// Total probes answered.
    probes_received: u64,
}

impl SappDevice {
    /// Creates a device with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; validate at the boundary with
    /// [`SappDeviceConfig::validate`] for a recoverable error.
    #[must_use]
    pub fn new(id: DeviceId, cfg: SappDeviceConfig) -> Self {
        cfg.validate().expect("invalid SAPP device configuration");
        Self {
            id,
            pc: 0,
            delta: cfg.delta(),
            last_probers: [None, None],
            probes_received: 0,
        }
    }

    /// The device's identity.
    #[must_use]
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// Total probes answered.
    #[must_use]
    pub fn probes_received(&self) -> u64 {
        self.probes_received
    }

    /// Handles a probe: increments `pc` by `Δ`, updates the last-probers
    /// list, and produces the reply. SAPP's reply does not depend on the
    /// arrival instant; the parameter keeps both devices' signatures one.
    #[inline]
    pub fn on_probe(&mut self, _now: SimTime, probe: Probe) -> Reply {
        self.pc = self.pc.saturating_add(self.delta);
        self.probes_received += 1;
        let reply = Reply {
            probe,
            device: self.id,
            body: ReplyBody::Sapp {
                pc: self.pc,
                // The overlay links returned are the probers *before* this
                // probe, so a CP learns of peers other than itself whenever
                // possible.
                last_probers: self.last_probers,
            },
        };
        self.note_prober(probe.cp);
        reply
    }

    /// Records `cp` as the most recent prober, keeping the list to the last
    /// two *distinct* CPs.
    fn note_prober(&mut self, cp: CpId) {
        if self.last_probers[0] == Some(cp) {
            return; // same CP again: list unchanged
        }
        self.last_probers[1] = self.last_probers[0];
        self.last_probers[0] = Some(cp);
    }

    /// Doubles `Δ` — the paper's example of device-side load control: "If
    /// the device finds that it is getting too many probes, it can, say,
    /// double its value of Δ. […] The probe load of the device will, in
    /// this example, eventually drop to one half of its previous value."
    pub fn double_delta(&mut self) {
        self.delta = self.delta.saturating_mul(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Probe;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn device() -> SappDevice {
        SappDevice::new(DeviceId(0), SappDeviceConfig::paper_default())
    }

    fn probe(cp: u32, seq: u64) -> Probe {
        Probe { cp: CpId(cp), seq }
    }

    #[test]
    fn pc_increments_by_delta() {
        let mut d = device();
        assert_eq!(d.delta, 100_000);
        let r1 = d.on_probe(t(0.0), probe(1, 0));
        match r1.body {
            ReplyBody::Sapp { pc, .. } => assert_eq!(pc, 100_000),
            other => panic!("{other:?}"),
        }
        let r2 = d.on_probe(t(0.1), probe(2, 0));
        match r2.body {
            ReplyBody::Sapp { pc, .. } => assert_eq!(pc, 200_000),
            other => panic!("{other:?}"),
        }
        assert_eq!(d.probes_received(), 2);
    }

    #[test]
    fn reply_echoes_probe_identity() {
        let mut d = device();
        let p = probe(7, 42);
        let r = d.on_probe(t(0.0), p);
        assert_eq!(r.probe, p);
        assert_eq!(r.device, DeviceId(0));
    }

    #[test]
    fn last_probers_track_distinct_cps() {
        let mut d = device();
        // First prober sees an empty list.
        let r = d.on_probe(t(0.0), probe(1, 0));
        match r.body {
            ReplyBody::Sapp { last_probers, .. } => {
                assert_eq!(last_probers, [None, None]);
            }
            other => panic!("{other:?}"),
        }
        // Second prober sees the first.
        let r = d.on_probe(t(0.1), probe(2, 0));
        match r.body {
            ReplyBody::Sapp { last_probers, .. } => {
                assert_eq!(last_probers, [Some(CpId(1)), None]);
            }
            other => panic!("{other:?}"),
        }
        // Third prober sees the last two, most recent first.
        let r = d.on_probe(t(0.2), probe(3, 0));
        match r.body {
            ReplyBody::Sapp { last_probers, .. } => {
                assert_eq!(last_probers, [Some(CpId(2)), Some(CpId(1))]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn repeat_prober_does_not_duplicate() {
        let mut d = device();
        d.on_probe(t(0.0), probe(1, 0));
        d.on_probe(t(0.1), probe(1, 1));
        d.on_probe(t(0.2), probe(1, 2));
        let r = d.on_probe(t(0.3), probe(2, 0));
        match r.body {
            ReplyBody::Sapp { last_probers, .. } => {
                assert_eq!(last_probers, [Some(CpId(1)), None]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn alternating_probers() {
        let mut d = device();
        d.on_probe(t(0.0), probe(1, 0));
        d.on_probe(t(0.1), probe(2, 0));
        d.on_probe(t(0.2), probe(1, 1));
        let r = d.on_probe(t(0.3), probe(3, 0));
        match r.body {
            ReplyBody::Sapp { last_probers, .. } => {
                assert_eq!(last_probers, [Some(CpId(1)), Some(CpId(2))]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn double_delta_doubles() {
        let mut d = device();
        d.double_delta();
        assert_eq!(d.delta, 200_000);
        let r = d.on_probe(t(0.0), probe(1, 0));
        match r.body {
            ReplyBody::Sapp { pc, .. } => assert_eq!(pc, 200_000),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pc_saturates_instead_of_wrapping() {
        let mut d = device();
        d.pc = u64::MAX - 1;
        d.on_probe(t(0.0), probe(1, 0));
        assert_eq!(d.pc, u64::MAX);
    }
}

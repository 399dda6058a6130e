//! The common interface of device-side (probed) state machines, and the
//! closed enum over them that every host of the machines holds.

use crate::config::{DcppConfig, SappDeviceConfig};
use crate::types::{DeviceId, Probe, Reply};
use crate::{DcppDevice, SappDevice};
use presence_des::SimTime;

/// A sans-io device: answers probes, nothing more.
///
/// Both [`crate::SappDevice`] and [`crate::DcppDevice`] implement this, so
/// drivers and scenarios can switch protocol by swapping one value.
pub trait Responder {
    /// The device's identity.
    fn id(&self) -> DeviceId;

    /// Handles a probe arriving at `now`, producing the reply to send back.
    fn on_probe(&mut self, now: SimTime, probe: Probe) -> Reply;

    /// Total probes answered so far (the device-load numerator).
    fn probes_received(&self) -> u64;
}

impl Responder for crate::SappDevice {
    fn id(&self) -> DeviceId {
        Self::id(self)
    }
    fn on_probe(&mut self, now: SimTime, probe: Probe) -> Reply {
        Self::on_probe(self, now, probe)
    }
    fn probes_received(&self) -> u64 {
        Self::probes_received(self)
    }
}

impl Responder for crate::DcppDevice {
    fn id(&self) -> DeviceId {
        Self::id(self)
    }
    fn on_probe(&mut self, now: SimTime, probe: Probe) -> Reply {
        Self::on_probe(self, now, probe)
    }
    fn probes_received(&self) -> u64 {
        Self::probes_received(self)
    }
}

/// The device machine of either protocol: what the simulator's device
/// actor and a UDP shard both hold, as [`crate::Prober`] is what both hold
/// on the CP side.
#[derive(Debug, Clone)]
pub enum DeviceMachine {
    /// A self-adaptive-protocol device.
    Sapp(SappDevice),
    /// A device-controlled-protocol device.
    Dcpp(DcppDevice),
}

impl DeviceMachine {
    /// A DCPP device with paper-default configuration.
    #[must_use]
    pub fn dcpp_paper(id: DeviceId) -> Self {
        DeviceMachine::Dcpp(DcppDevice::new(id, DcppConfig::paper_default()))
    }

    /// A SAPP device with paper-default configuration.
    #[must_use]
    pub fn sapp_paper(id: DeviceId) -> Self {
        DeviceMachine::Sapp(SappDevice::new(id, SappDeviceConfig::paper_default()))
    }

    /// The device's identity.
    #[must_use]
    pub fn id(&self) -> DeviceId {
        match self {
            DeviceMachine::Sapp(d) => d.id(),
            DeviceMachine::Dcpp(d) => d.id(),
        }
    }

    /// Answers one probe, whichever protocol the device speaks.
    #[inline]
    pub fn on_probe(&mut self, now: SimTime, probe: Probe) -> Reply {
        match self {
            DeviceMachine::Sapp(d) => d.on_probe(now, probe),
            DeviceMachine::Dcpp(d) => d.on_probe(now, probe),
        }
    }

    /// Total probes answered.
    #[must_use]
    pub fn probes_received(&self) -> u64 {
        match self {
            DeviceMachine::Sapp(d) => d.probes_received(),
            DeviceMachine::Dcpp(d) => d.probes_received(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpId, ReplyBody};

    #[test]
    fn devices_are_interchangeable_behind_the_trait() {
        let mut devices: Vec<Box<dyn Responder>> = vec![
            Box::new(SappDevice::new(
                DeviceId(0),
                SappDeviceConfig::paper_default(),
            )),
            Box::new(DcppDevice::new(DeviceId(1), DcppConfig::paper_default())),
        ];
        for d in &mut devices {
            let probe = Probe {
                cp: CpId(1),
                seq: 0,
            };
            let reply = d.on_probe(SimTime::ZERO, probe);
            assert_eq!(reply.probe, probe);
            assert_eq!(reply.device, d.id());
            assert_eq!(d.probes_received(), 1);
        }
    }

    #[test]
    fn device_machine_dispatches_to_its_variant() {
        let probe = Probe {
            cp: CpId(1),
            seq: 0,
        };
        let mut sapp = DeviceMachine::sapp_paper(DeviceId(3));
        let mut dcpp = DeviceMachine::dcpp_paper(DeviceId(4));
        assert_eq!((sapp.id(), dcpp.id()), (DeviceId(3), DeviceId(4)));
        let reply = sapp.on_probe(SimTime::ZERO, probe);
        assert!(matches!(reply.body, ReplyBody::Sapp { .. }));
        assert_eq!(reply.device, DeviceId(3));
        let reply = dcpp.on_probe(SimTime::ZERO, probe);
        assert!(matches!(reply.body, ReplyBody::Dcpp { .. }));
        assert_eq!(reply.device, DeviceId(4));
        assert_eq!((sapp.probes_received(), dcpp.probes_received()), (1, 1));
    }
}

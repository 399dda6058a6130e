//! What a [`ShardedHost`](crate::ShardedHost) serves and how it is told
//! to stop: the device machine of either protocol, and the shared
//! cooperative shutdown flag.

use presence_core::{DcppConfig, DcppDevice, DeviceId, Probe, Reply, SappDevice, SappDeviceConfig};
use presence_des::SimTime;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Cooperative shutdown flag shared between hosts and their controller.
#[derive(Debug, Clone, Default)]
pub struct StopFlag(Arc<AtomicBool>);

impl StopFlag {
    /// Creates an unset flag.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests shutdown.
    pub fn stop(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown was requested.
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// The device machine a shard serves.
pub enum DeviceHost {
    /// A SAPP device.
    Sapp(SappDevice),
    /// A DCPP device.
    Dcpp(DcppDevice),
}

impl DeviceHost {
    /// A DCPP device with paper-default configuration.
    #[must_use]
    pub fn dcpp_paper(id: DeviceId) -> Self {
        DeviceHost::Dcpp(DcppDevice::new(id, DcppConfig::paper_default()))
    }

    /// A SAPP device with paper-default configuration.
    #[must_use]
    pub fn sapp_paper(id: DeviceId) -> Self {
        DeviceHost::Sapp(SappDevice::new(id, SappDeviceConfig::paper_default()))
    }

    /// Probes answered so far.
    #[must_use]
    pub fn probes_received(&self) -> u64 {
        match self {
            DeviceHost::Sapp(d) => d.probes_received(),
            DeviceHost::Dcpp(d) => d.probes_received(),
        }
    }

    /// The device's identity.
    #[must_use]
    pub fn id(&self) -> DeviceId {
        match self {
            DeviceHost::Sapp(d) => d.id(),
            DeviceHost::Dcpp(d) => d.id(),
        }
    }

    /// Answers one probe, whichever protocol the device speaks.
    pub fn on_probe(&mut self, now: SimTime, probe: Probe) -> Reply {
        match self {
            DeviceHost::Sapp(d) => d.on_probe(now, probe),
            DeviceHost::Dcpp(d) => d.on_probe(now, probe),
        }
    }
}

//! Shared protocol vocabulary: node identities, wire messages, and the
//! actions protocol state machines emit.
//!
//! Both probe protocols share the same message skeleton (Fig. 1 of the
//! paper): control points send [`Probe`]s, devices answer with a [`Reply`]
//! whose payload differs per protocol (a probe counter for SAPP, a wait
//! time for DCPP), and devices leaving gracefully broadcast a [`Bye`].

use presence_des::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identity of a control point (CP) — the probing role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CpId(pub u32);

impl fmt::Display for CpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cp{:02}", self.0)
    }
}

/// Identity of a device — the probed role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{:02}", self.0)
    }
}

/// A probe ("are you still there?") sent by a CP to a device.
///
/// `seq` identifies the probe *cycle*; retransmissions within a cycle reuse
/// it, so a late reply to an earlier transmission of the same cycle still
/// counts (and a reply to a previous cycle is recognisably stale).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Probe {
    /// The probing CP.
    pub cp: CpId,
    /// Probe-cycle sequence number, unique per CP.
    pub seq: u64,
}

/// Protocol-specific payload of a reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplyBody {
    /// SAPP: the device's probe counter after incrementing by Δ, plus the
    /// ids of the last two distinct probing CPs (the links of the paper's
    /// CP overlay, whose dissemination phase the paper defers; no CP in
    /// this tree reads them).
    Sapp {
        /// Probe counter value `pc` after this probe's increment.
        pc: u64,
        /// The last two distinct CPs that probed before this one.
        last_probers: [Option<CpId>; 2],
    },
    /// DCPP: how long this CP must wait before its next probe.
    Dcpp {
        /// The delay `nt' − t` computed by the device.
        wait: SimDuration,
    },
}

/// A device's answer to a [`Probe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reply {
    /// The probe this reply answers (CP id + cycle sequence).
    pub probe: Probe,
    /// The answering device.
    pub device: DeviceId,
    /// Protocol-specific content.
    pub body: ReplyBody,
}

/// Graceful-leave announcement ("bye-message" in the paper's introduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bye {
    /// The departing device.
    pub device: DeviceId,
}

/// Everything that can travel over the network between nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireMessage {
    /// CP → device.
    Probe(Probe),
    /// Device → CP.
    Reply(Reply),
    /// Device → all (graceful leave).
    Bye(Bye),
}

/// Opaque handle correlating a timer request with its firing.
///
/// State machines mint monotonically increasing tokens; drivers map them to
/// whatever their environment uses (DES event handles, wall-clock timers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerToken(pub u64);

/// An instruction from a CP-side state machine to its driver.
///
/// The state machines are *sans-io*: they never talk to a network or a
/// clock, they only return actions. The same machines therefore run under
/// the discrete-event simulator and the wall-clock UDP runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CpAction {
    /// Transmit a probe to the device.
    SendProbe(Probe),
    /// Arm a timer that must fire after `after`, delivering `token`.
    StartTimer {
        /// Token to hand back when the timer fires.
        token: TimerToken,
        /// Delay until firing.
        after: SimDuration,
    },
    /// Disarm a previously started timer (ignore if already fired).
    CancelTimer {
        /// The token the timer was armed with.
        token: TimerToken,
    },
    /// The device has been declared absent (4 unanswered probes, or a Bye).
    DeviceAbsent {
        /// When the verdict was reached.
        at: SimTime,
        /// Why the verdict was reached.
        reason: AbsenceReason,
    },
}

/// Why a CP declared the device absent.
///
/// A verdict has exactly two sources: the CP's own exhausted
/// retransmission budget (a whole probe cycle unanswered, which is
/// [`ProbeCycleConfig::worst_case_detection`](crate::ProbeCycleConfig::worst_case_detection)
/// of silence after the cycle's first probe), or the device's own Bye.
/// No other node can make a CP declare a device absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsenceReason {
    /// The initial probe and all retransmissions went unanswered.
    ProbeTimeout,
    /// The device announced its departure with a bye-message.
    ByeReceived,
}

/// A terminal absence verdict: when it was reached and why.
///
/// Every [`crate::Prober`] records its verdict internally the moment it
/// emits [`CpAction::DeviceAbsent`], so its drivers (the simulator's CP
/// actor, which is also the conformance oracle, and the wall-clock UDP
/// host) read the outcome from the machine instead of scraping the action
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// When the verdict was reached (protocol time).
    pub at: SimTime,
    /// Why the device was declared absent.
    pub reason: AbsenceReason,
}

/// Running statistics every CP-side machine maintains.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpStats {
    /// Probe transmissions (including retransmissions).
    pub probes_sent: u64,
    /// Probe cycles begun.
    pub cycles_started: u64,
    /// Cycles that ended with an accepted reply.
    pub cycles_succeeded: u64,
    /// Cycles that ended in four unanswered transmissions.
    pub cycles_failed: u64,
    /// Replies discarded as stale (wrong cycle).
    pub stale_replies: u64,
    /// Retransmissions sent.
    pub retransmissions: u64,
}

/// Field-wise sum: how a driver folds one session's statistics into a
/// running total.
impl std::ops::AddAssign<&CpStats> for CpStats {
    fn add_assign(&mut self, other: &CpStats) {
        self.probes_sent += other.probes_sent;
        self.cycles_started += other.cycles_started;
        self.cycles_succeeded += other.cycles_succeeded;
        self.cycles_failed += other.cycles_failed;
        self.stale_replies += other.stale_replies;
        self.retransmissions += other.retransmissions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cp_stats_add_assign_is_field_wise_with_default_identity() {
        let a = CpStats {
            probes_sent: 1,
            cycles_started: 2,
            cycles_succeeded: 3,
            cycles_failed: 4,
            stale_replies: 5,
            retransmissions: 6,
        };
        let mut sum = CpStats::default();
        sum += &a;
        assert_eq!(sum, a, "Default is the identity");
        sum += &a;
        let doubled = CpStats {
            probes_sent: 2,
            cycles_started: 4,
            cycles_succeeded: 6,
            cycles_failed: 8,
            stale_replies: 10,
            retransmissions: 12,
        };
        assert_eq!(sum, doubled);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CpId(3).to_string(), "cp03");
        assert_eq!(DeviceId(0).to_string(), "dev00");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(CpId(1));
        set.insert(CpId(1));
        set.insert(CpId(2));
        assert_eq!(set.len(), 2);
        assert!(CpId(1) < CpId(2));
    }
}

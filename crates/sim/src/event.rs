//! The event vocabulary of a hub simulation: the messages its four actor
//! kinds (CP, device, network, churn) exchange. The mega shard runs alone
//! on its own index event, [`crate::MegaEvent`].

use crate::churn::ChurnModel;
use crate::scenario::{DelayKind, LossKind};
use presence_core::{CpId, DeviceId, TimerToken, WireMessage};
use serde::{Deserialize, Serialize};

/// Network-level address of a node actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Addr {
    /// A control point.
    Cp(CpId),
    /// A device.
    Device(DeviceId),
}

/// The model a [`crate::Switch`] puts in force.
#[derive(Debug, Clone, Copy, PartialEq, Deserialize, Serialize)]
pub enum Regime {
    /// A new one-way delay model.
    Delay(DelayKind),
    /// A new loss model.
    Loss(LossKind),
    /// A new churn workload.
    Churn(ChurnModel),
}

/// Everything that can be scheduled in a hub simulation.
#[derive(Debug, Clone)]
pub enum SimEvent {
    /// (to the network actor) Admit `msg` for unicast delivery to `to`.
    Send {
        /// Destination address.
        to: Addr,
        /// The message.
        msg: WireMessage,
    },
    /// (to the network actor) Admit `msg` for delivery to every registered
    /// CP (a device's Bye multicast).
    Broadcast {
        /// The message.
        msg: WireMessage,
    },
    /// (to a node actor) A message arrives from the network.
    ///
    /// Scheduled by the network actor directly on the destination at admit
    /// time, for the sampled delivery instant — the single-hop fast path.
    /// One `Send` dispatch plus one `Deliver` firing is the complete
    /// per-message event cost (the events-per-delivered-message ≤ 2
    /// contract pinned by
    /// `tests/golden_equivalence.rs::typed_dispatch_preserves_golden_trio_trajectories`).
    Deliver(WireMessage),
    /// (to a node actor) A protocol timer fired.
    Timer(TimerToken),
    /// (to a CP actor) Join the network and start probing.
    Join,
    /// (to a CP actor) Leave the network silently (stop probing).
    Leave,
    /// (to a device actor) Crash: stop answering, without a Bye.
    Crash,
    /// (to a device actor) Leave gracefully: broadcast a Bye, stop
    /// answering.
    GracefulLeave,
    /// (to the churn actor) Resample the target CP population.
    ResampleChurn,
    /// (to the network actor for a delay or loss model, to the churn actor
    /// for a churn model) Put a new regime in force. The scenario posts
    /// every switch before the run starts, so each has a lower sequence
    /// number than any event the run creates: **a switch is the first
    /// event at its instant**, and a message sent at that instant already
    /// meets the new network model. The network actor swaps the fabric's
    /// model; the churn actor cancels its pending self-events and
    /// not-yet-fired wave steps, and re-arms under the new model.
    Switch(Regime),
    /// (to the churn actor, from itself) One step of a staggered
    /// join/leave wave: flip CP `index`'s membership now and forward the
    /// `Join`/`Leave`, so flags and the population series move when the
    /// change actually happens, not when the wave was scheduled.
    ChurnWave {
        /// Index into the churn actor's CP pool.
        index: u32,
        /// `true` joins the CP, `false` leaves it.
        join: bool,
    },
}

// The hub's queue holds each event beside the engine's 8-byte destination,
// 64 bytes in all: the payload may shrink from here, never grow.
const _: () = assert!(std::mem::size_of::<SimEvent>() <= 56);

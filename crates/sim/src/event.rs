//! The event vocabulary of a hub simulation: the messages its four actor
//! kinds (CP, device, network, churn) exchange. The mega shard runs alone
//! on its own index event, [`crate::MegaEvent`].

use crate::churn::ChurnModel;
use presence_core::{CpId, DeviceId, TimerToken, WireMessage};

/// Network-level address of a node actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Addr {
    /// A control point.
    Cp(CpId),
    /// A device.
    Device(DeviceId),
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
    /// `tests/golden_equivalence.rs::golden_trio_meets_two_events_per_message_contract`).
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
    /// (to the churn actor, from itself) Switch to a new churn model
    /// mid-run at a configured boundary. The churn actor cancels its
    /// pending self-events, unwinds any not-yet-fired wave joins/leaves,
    /// and re-arms under the new model.
    SetChurn(ChurnModel),
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
    /// (to a device actor, SAPP Δ-retuning ablation) Multiply Δ by two.
    DoubleDelta,
}

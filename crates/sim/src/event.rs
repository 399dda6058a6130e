//! The event vocabulary shared by all simulation actors.

use crate::churn::ChurnModel;
use presence_core::{CpId, DeviceId, TimerToken, WireMessage};
use presence_des::SimDuration;

/// Network-level address of a node actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Addr {
    /// A control point.
    Cp(CpId),
    /// A device.
    Device(DeviceId),
}

/// Everything that can be scheduled in a presence simulation.
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
    /// (to the churn actor) Switch to a new churn model mid-run — sent by
    /// the regime scheduler at a configured boundary. The churn actor
    /// cancels its pending self-events, unwinds any not-yet-fired wave
    /// joins/leaves, and re-arms under the new model.
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
    /// (to a [`crate::MegaDcppShard`]) A probe from pair `pair` arrives at
    /// its device. Mega events carry dense indices instead of wire structs:
    /// at 10⁶ pairs the per-event footprint is what bounds queue memory.
    MegaProbe {
        /// Dense (CP, device) pair index inside the shard.
        pair: u32,
        /// Probe-cycle sequence number (per pair).
        seq: u32,
    },
    /// (to a [`crate::MegaDcppShard`]) The device's reply for cycle `seq`
    /// arrives back at pair `pair`'s CP.
    MegaReply {
        /// Dense pair index.
        pair: u32,
        /// The cycle it answers.
        seq: u32,
        /// The device-dictated wait until the next probe.
        wait: SimDuration,
    },
    /// (to a [`crate::MegaDcppShard`]) Pair `pair`'s single outstanding
    /// timer fired: a probe timeout while probing, the inter-cycle wake
    /// while sleeping (the shard keeps at most one timer per pair, so the
    /// pair's phase disambiguates).
    MegaTimer {
        /// Dense pair index.
        pair: u32,
    },
}

//! Deterministic discrete-event simulation engine for the `presence`
//! workspace.
//!
//! The paper evaluated its protocols with the MODEST/MÖBIUS tool chain —
//! formal stochastic-timed models fed to a trusted simulator. This crate is
//! our substitute substrate: a compact DES kernel with explicitly documented
//! semantics so the whole analysis chain can be audited.
//!
//! Guarantees:
//!
//! * **Total event order.** Events fire ordered by `(virtual time, sequence
//!   number)`; ties in time resolve in scheduling order (FIFO), never by
//!   heap whim.
//! * **Integer clock.** [`SimTime`] counts nanoseconds in a `u64`; no
//!   floating-point drift can reorder events over long runs.
//! * **Deterministic randomness.** Each actor owns a [`StreamRng`] derived
//!   from the root seed and its actor id; a run is a pure function of its
//!   seed and configuration.
//!
//! There is one engine. A [`Simulation`] keeps its actors in *lanes*, each
//! with its own queue and clock, and one loop pops and dispatches their
//! events. One lane (the default) runs as a single unbounded window;
//! several ([`Simulation::with_lanes`]) advance by conservative time
//! windows with a deterministic exchange at each barrier, on worker
//! threads if allowed — the [`region`] module drives that, and the
//! trajectory is the same at any lane and worker count.
//!
//! See [`Simulation`] for the entry point and an end-to-end example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod queue;
pub mod region;
mod rng;
mod time;
mod timer_slots;

pub use engine::{
    Actor, ActorId, Context, DynActorSet, EngineEvent, EngineEventKind, EventHandle, ProjectActor,
    RunOutcome, Simulation, TraceRecord,
};
pub use queue::{EventKey, EventQueue, QueueProfile};
pub use region::{BarrierMark, WindowPolicy};
pub use rng::{derive_seed, splitmix64, StreamRng};
pub use time::{SimDuration, SimTime, NANOS_PER_SEC};
pub use timer_slots::TimerSlots;

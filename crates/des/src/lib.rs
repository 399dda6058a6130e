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
//! There is one engine and one loop: a [`Simulation`] owns one event
//! queue, one clock and one actor table, and pops and dispatches events in
//! order until the queue drains, a horizon is reached or an event budget
//! runs out.
//!
//! See [`Simulation`] for the entry point and an end-to-end example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod queue;
mod rng;
mod time;
mod timer_slots;

pub use engine::{
    Actor, ActorId, Context, EventHandle, ProjectActor, RunOutcome, Simulation, TraceRecord,
};
pub use queue::{EventKey, EventQueue, QueueProfile};
pub use rng::{derive_seed, splitmix64, StreamRng};
pub use time::{SimDuration, SimTime, NANOS_PER_SEC};
pub use timer_slots::TimerSlots;

//! Simulated network substrate for the `presence` workspace.
//!
//! The paper's analysis runs both probe protocols over a network process
//! with (i) a bounded buffer of 20 000 elements, (ii) per-message delays
//! drawn from a uniform choice among three modes (slow / medium / fast),
//! and (iii) — for the Figure 5 study — no packet loss, with burst loss
//! discussed qualitatively. This crate builds those pieces as composable
//! parts:
//!
//! * [`DelayModel`] with [`ThreeMode`] (the paper's model),
//!   [`ConstantDelay`] and [`UniformDelay`];
//! * [`LossModel`] with [`NoLoss`], [`BernoulliLoss`], and the bursty
//!   [`GilbertElliott`] channel (for the paper's §5 loss conjecture);
//! * [`Fabric`] — the complete network: bounded-buffer admission with
//!   time-weighted occupancy accounting (the paper's "average buffer
//!   length ≈ 0.004"), loss, delay, and delivery bookkeeping, independent
//!   of any particular event loop. Its models are stationary; a run whose
//!   network changes mid-way swaps them at each instant
//!   ([`Fabric::set_delay`], [`Fabric::set_loss`]) — the scenario lab's
//!   time-varying network regimes.
//!
//! Everything is payload-agnostic; the simulation glue in `presence-sim`
//! marries the fabric to the DES engine and to protocol messages.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod fabric;
mod loss;

pub use delay::{ConstantDelay, DelayModel, ThreeMode, UniformDelay};
pub use fabric::{Fabric, FabricStats, SendOutcome};
pub use loss::{BernoulliLoss, GilbertElliott, LossModel, NoLoss};

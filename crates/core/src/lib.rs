//! # presence-core
//!
//! Sans-io implementations of the node-presence probe protocols from
//! *"Are You Still There? — A Lightweight Algorithm To Monitor Node
//! Presence in Self-Configuring Networks"* (Bohnenkamp, Gorter, Guidi,
//! Katoen; DSN 2005):
//!
//! * **SAPP** — the self-adaptive probe protocol of Bodlaender et al.
//!   ([`SappDevice`], [`SappCp`]): devices expose a Δ-scaled probe counter,
//!   CPs estimate the experienced load and adapt their probing delay
//!   multiplicatively. The paper shows this protocol is *unfair* (CPs
//!   starve, frequencies oscillate).
//! * **DCPP** — the device-controlled probe protocol, the paper's
//!   contribution ([`DcppDevice`], [`DcppCp`]): the device schedules every
//!   prober explicitly, guaranteeing a load cap of `L_nom = 1/δ_min` and
//!   near-equal per-CP frequencies.
//!
//! Plus the substrate both share and the baseline the evaluation compares
//! against:
//!
//! * the CP lifecycle ([`Retransmitter`]): bounded-retransmission probe
//!   cycles (TOF/TOS timeouts, max 3 retransmissions, Fig. 1), the sleep
//!   between them, and the stop with a verdict — the exhausted
//!   retransmission budget or the device's own Bye, never another CP's
//!   word (SAPP replies carry the paper's last-two-probers overlay field,
//!   but the dissemination phase the paper defers is not built, and no CP
//!   reads the field);
//! * naive fixed-rate probing ([`FixedRateCp`]), the scheme the paper's
//!   introduction dismisses.
//!
//! ## Sans-io design
//!
//! Every state machine is pure: inputs are `(now, event)`, outputs are
//! [`CpAction`]s the driver executes. The same code runs under the
//! deterministic discrete-event simulator (`presence-sim`) and the
//! wall-clock UDP runtime (`presence-runtime`). See [`Prober`] for the
//! driver contract.
//!
//! ## Quick example
//!
//! ```
//! use presence_core::{
//!     CpAction, CpId, DcppConfig, DcppCp, DcppDevice, DeviceId, Prober,
//! };
//! use presence_des::SimTime;
//!
//! let mut device = DcppDevice::new(DeviceId(0), DcppConfig::paper_default());
//! let mut cp = DcppCp::new(CpId(1), DcppConfig::paper_default());
//!
//! // CP emits its first probe…
//! let mut actions = Vec::new();
//! cp.start(SimTime::ZERO, &mut actions);
//! let probe = actions
//!     .iter()
//!     .find_map(|a| match a {
//!         CpAction::SendProbe(p) => Some(*p),
//!         _ => None,
//!     })
//!     .unwrap();
//!
//! // …the device schedules it and replies with a wait time…
//! let reply = device.on_probe(SimTime::ZERO, probe);
//!
//! // …and the CP obeys, sleeping exactly that long.
//! actions.clear();
//! cp.on_reply(SimTime::ZERO, &reply, &mut actions);
//! assert!(cp.current_delay().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod config;
mod cycle;
mod dcpp;
mod error;
mod prober;
mod responder;
mod sapp;
mod types;

pub use baseline::FixedRateCp;
pub use config::{DcppConfig, ProbeCycleConfig, SappConfig, SappDeviceConfig};
pub use cycle::Retransmitter;
pub use dcpp::{DcppCp, DcppDevice};
pub use error::ConfigError;
pub use prober::Prober;
pub use responder::{DeviceMachine, Responder};
pub use sapp::{SappCp, SappDevice};
pub use types::{
    AbsenceReason, Bye, CpAction, CpId, CpStats, DeviceId, Probe, Reply, ReplyBody, TimerToken,
    Verdict, WireMessage,
};

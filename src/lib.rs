//! # presence
//!
//! A faithful, production-quality reproduction of *"Are You Still There? —
//! A Lightweight Algorithm To Monitor Node Presence in Self-Configuring
//! Networks"* (Bohnenkamp, Gorter, Guidi, Katoen; DSN 2005), packaged as a
//! facade over the workspace crates:
//!
//! * [`core`] (`presence-core`) — the SAPP and DCPP probe protocols as
//!   sans-io state machines, plus baseline failure detectors;
//! * [`des`] (`presence-des`) — the deterministic discrete-event simulation
//!   engine (the MODEST/MÖBIUS substitute);
//! * [`net`] (`presence-net`) — delay models, loss models, and the network
//!   fabric (whose admission is the paper's bounded buffer);
//! * [`stats`] (`presence-stats`) — batch means, confidence intervals,
//!   histograms, time series, fairness indices;
//! * [`sim`] (`presence-sim`) — scenarios, churn workloads, and one
//!   experiment preset per paper figure/claim;
//! * [`trace`] (`presence-trace`) — Chrome/Perfetto trace export,
//!   validation, and the `spotter` analytics;
//! * [`runtime`] (`presence-runtime`) — wall-clock hosts running the same
//!   state machines over UDP.
//!
//! ## Thirty-second tour
//!
//! ```
//! use presence::sim::{Protocol, Scenario, ScenarioConfig};
//!
//! // Run the paper's protagonist (DCPP) with 10 control points for a
//! // virtual minute and check the device load stayed at its budget.
//! let cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 10, 60.0, 42);
//! let mut scenario = Scenario::build(cfg);
//! scenario.run();
//! let result = scenario.collect();
//! assert!(result.device_probes > 0);
//! assert!(result.fairness_jain > 0.9); // DCPP is fair by construction
//! ```
//!
//! See `examples/` for runnable scenarios (including a live UDP demo) and
//! `crates/bench/src/bin/` for the binaries that regenerate every figure
//! and in-text number of the paper's evaluation. `EXPERIMENTS.md` records
//! paper-vs-measured for each. `crates/bench/src/conformance.rs` is the
//! harness that pins the UDP host against the simulator as oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use presence_core as core;
pub use presence_des as des;
pub use presence_net as net;
pub use presence_runtime as runtime;
pub use presence_sim as sim;
pub use presence_stats as stats;
pub use presence_trace as trace;

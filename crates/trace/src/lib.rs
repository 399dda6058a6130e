//! Chrome/Perfetto trace export and terminal analysis for presence
//! simulations.
//!
//! The simulation layer fills a [`TraceModel`] — actor tracks, probe→reply
//! flow points, the run's timeline (its regime switches, device failure
//! and end, all fixed by the spec that built it), counter series, and the
//! engine stream.
//! This crate turns that model into the [Chrome JSON trace format] that
//! Perfetto's trace viewer loads directly
//! ([`chrome::write_chrome_json`]), parses such a file back
//! ([`reader::parse`]), checks its structural invariants
//! ([`validate::validate`]), and distils terminal-friendly statistics from
//! it ([`stats::analyze`] — the `spotter` bin's engine — whose
//! [`TraceRun`] is what the scenario lab's regime-window fold reads back).
//!
//! Everything is std-only: JSON goes through the workspace's serde shim,
//! so the output is byte-deterministic (insertion-ordered object keys,
//! shortest round-trip float formatting) — deterministic enough to pin a
//! golden fixture bit-for-bit.
//!
//! [Chrome JSON trace format]:
//!     https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod model;
pub mod reader;
pub mod stats;
pub mod validate;

pub use chrome::write_chrome_json;
pub use model::{
    CounterTrack, EngineEvent, EngineEventKind, FlowPhase, PointKind, TraceModel, TracePoint, Track,
};
pub use reader::{parse, ChromeEvent, ChromeTrace};
pub use stats::{analyze, SpotterReport, TraceRun};
pub use validate::{validate, TraceCheck};

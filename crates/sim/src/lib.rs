//! # presence-sim
//!
//! The simulation harness that reproduces the paper's evaluation: it runs
//! the sans-io protocol machines from `presence-core` over the
//! deterministic DES engine (`presence-des`) and the simulated network
//! (`presence-net`), under the workloads the paper studies.
//!
//! * [`Scenario`] / [`ScenarioConfig`] — build and run one experiment
//!   (protocol, population, network, churn, seed, duration) on the
//!   paper's network: one process, one bounded buffer.
//! * [`ChurnModel`] — static populations, the Figure 4 burst-leave, the
//!   Figure 5 uniform-resample churn, and the lab's flash-crowd and
//!   diurnal workloads.
//! * [`ScenarioResult`] — device load series, per-CP frequency series
//!   (Figures 2–4), buffer occupancy, fairness indices.
//! * [`experiments`] — one preset per paper artifact (E1–E7) and ablation
//!   (A1–A4, A6–A8); the `presence-bench` binaries are thin wrappers over
//!   these.
//! * [`parallel`] — the one worker loop behind every seed- and
//!   parameter-parallel study (`PRESENCE_JOBS` / `--jobs` workers), whose
//!   results are bit-identical to a serial run.
//!
//! ```
//! use presence_sim::{Protocol, Scenario, ScenarioConfig};
//!
//! let cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 5, 60.0, 42);
//! let mut scenario = Scenario::build(cfg);
//! scenario.run();
//! let result = scenario.collect();
//! assert!(result.device_probes > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor_set;
mod churn;
mod cp_actor;
mod device_actor;
mod event;
pub mod experiments;
pub mod lab;
mod mega;
mod metrics;
mod network_actor;
mod output;
pub mod parallel;
mod replication;
mod scenario;
pub mod test_profile;
pub mod trace;

pub use actor_set::{PresenceActorSet, PresenceSim};
pub use churn::{ChurnActor, ChurnModel};
pub use cp_actor::{CpActor, CpRecord, ProberFactory};
pub use device_actor::{DeviceActor, ProcessingModel};
pub use event::{Addr, SimEvent};
pub use lab::{
    builtin_catalog, run_lab, run_spec_once, slice_result, ChurnPhase, DelayPhase, LabReport,
    LabSeedResult, LossPhase, RegimeSlice, ScenarioSpec,
};
pub use mega::{
    mega_catalog, MegaConfig, MegaDcppShard, MegaEvent, MegaResult, MegaScenario, MegaSpec,
};
pub use metrics::{CpSummary, ScenarioResult};
pub use network_actor::NetworkActor;
pub use output::{ascii_chart, kv_table, series_to_csv};
pub use parallel::{for_each_indexed, job_count, run_indexed};
pub use replication::{replicate, ReplicationPoint, ReplicationSummary};
pub use scenario::{
    golden_trio, DelayKind, LossKind, Protocol, Scenario, ScenarioConfig, SpecError,
};
pub use trace::flow_id;

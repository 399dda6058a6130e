//! Statistics substrate for the `presence` workspace.
//!
//! The paper ("Are You Still There?", DSN 2005) evaluates its probe protocols
//! with discrete-event simulation analysed through two lenses:
//!
//! * **steady-state** estimation using the *batch means* technique with a
//!   relative confidence-interval stopping rule (confidence interval width
//!   0.1 at level 0.95), and
//! * **transient** plots of per-control-point probe frequencies and device
//!   load over (virtual) time.
//!
//! This crate provides exactly those tools, implemented from first
//! principles so that the whole analysis chain is auditable:
//!
//! * [`Welford`] — numerically stable online mean/variance,
//! * [`BatchMeans`] — steady-state point estimates with Student-t
//!   confidence intervals and a relative-half-width stopping rule,
//! * [`ConfidenceInterval`] and Student-t quantiles ([`t_quantile`]),
//! * [`Histogram`] — fixed-width binning with a mode count (the bimodality
//!   check behind E1),
//! * [`P2Quantile`] — constant-memory online quantile estimation,
//! * [`TimeSeries`] — timestamped samples (the substrate for reproducing
//!   Figures 2–5),
//! * [`TimeWeighted`] — time-weighted averages (e.g. mean buffer
//!   occupancy ≈ 0.004 in the paper's steady-state study),
//! * [`JumpingWindowRate`] — event rates over jumping windows (device
//!   load in probes/second, Figure 5),
//! * fairness metrics ([`jain_index`], [`max_min_ratio`]) used to
//!   quantify the unfairness the paper demonstrates graphically,
//! * [`slice_windows`] / [`window_slice`] — per-regime-window slicing of
//!   time-stamped series (the scenario lab's sliced metrics).
//!
//! All estimators are plain `f64` state machines with no dependencies, so
//! they can run inside the simulator, inside benches, or inside the
//! wall-clock runtime unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch_means;
mod ci;
mod fairness;
mod histogram;
mod quantile;
mod rate;
mod slice;
mod summary;
mod timeseries;
mod welford;

pub use batch_means::{BatchMeans, BatchMeansConfig, SteadyStateVerdict};
pub use ci::{t_quantile, z_quantile, ConfidenceInterval};
pub use fairness::{jain_index, max_min_ratio};
pub use histogram::Histogram;
pub use quantile::P2Quantile;
pub use rate::JumpingWindowRate;
pub use slice::{slice_windows, step_mean, window_mean, window_slice};
pub use summary::{describe, Summary};
pub use timeseries::{Sample, TimeSeries, TimeWeighted};
pub use welford::Welford;

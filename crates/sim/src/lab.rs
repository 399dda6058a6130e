//! The scenario lab: declarative, time-varying experiment specifications.
//!
//! A [`ScenarioSpec`] is the JSON-authorable description of one lab
//! experiment: a protocol, a population, **phased** network and churn
//! regimes (each a timeline of models switching at configured sim-time
//! boundaries), an optional device failure, and a horizon. It *lowers*
//! onto the existing [`ScenarioConfig`] machinery — nothing about the
//! engine changes; a single-phase spec builds an actor graph identical to
//! [`Scenario::build`], which is how the paper-faithful catalog entries
//! reproduce the golden trajectories bit-for-bit.
//!
//! * delay/loss phases become a [`presence_net::Scheduled`] wrapper that
//!   switches models exactly at the boundaries;
//! * churn phases after the first become the churn actor's own
//!   [`crate::SimEvent::SetChurn`] switches, one per boundary;
//! * every phase start becomes a **regime window**, and [`slice_result`]
//!   reports device load, Jain fairness, population, and detection
//!   latency per window;
//! * [`run_lab`] fans replications across the [`crate::parallel`] worker
//!   pool and merges them in seed order, so a [`LabReport`] is
//!   byte-identical at any worker count.
//!
//! Shipped specs are the repository's `catalog/*.json` files, edited by
//! hand and embedded at build time ([`builtin_catalog`]); the `lab`
//! binary (`presence-bench`) lists, validates, runs, and prints them, or
//! any spec file given by path.

use crate::churn::ChurnModel;
use crate::metrics::ScenarioResult;
use crate::parallel::run_indexed;
use crate::scenario::{err, DelayKind, LossKind, Protocol, Scenario, ScenarioConfig, SpecError};
use presence_des::SimTime;
use presence_net::{DelayModel, LossModel, Scheduled};
use presence_stats::{
    jain_index, merge_boundaries, slice_windows, step_mean, window_mean, window_slice,
};
use serde::{Deserialize, Serialize};

/// One timed phase of the delay regime: `delay` is active from `start`
/// seconds until the next phase (or the horizon).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayPhase {
    /// Phase start (seconds; the first phase must start at 0).
    pub start: f64,
    /// The delay model active during this phase.
    pub delay: DelayKind,
}

/// One timed phase of the loss regime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossPhase {
    /// Phase start (seconds; the first phase must start at 0).
    pub start: f64,
    /// The loss model active during this phase.
    pub loss: LossKind,
}

/// One timed phase of the churn regime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnPhase {
    /// Phase start (seconds; the first phase must start at 0).
    pub start: f64,
    /// The churn model active during this phase.
    pub churn: ChurnModel,
}

/// A declarative, serialisable scenario: everything [`ScenarioConfig`]
/// holds, with the three stationary model choices generalised to phased
/// regime timelines plus an optional mid-run device failure. A key that
/// names no field is an error, so a misspelt or retired option fails to
/// parse instead of being silently ignored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScenarioSpec {
    /// Catalog name (kebab-case by convention).
    pub name: String,
    /// One-line human description of what the scenario stresses.
    pub description: String,
    /// Protocol under test.
    pub protocol: Protocol,
    /// Size of the CP pool (upper bound on the population).
    pub cp_pool: u32,
    /// How many CPs are active from the start.
    pub initially_active: u32,
    /// Network buffer capacity (the paper: 20 000).
    pub buffer_capacity: usize,
    /// Delay regime timeline (first phase starts at 0).
    pub delay: Vec<DelayPhase>,
    /// Loss regime timeline (first phase starts at 0).
    pub loss: Vec<LossPhase>,
    /// Churn regime timeline (first phase starts at 0).
    pub churn: Vec<ChurnPhase>,
    /// Device processing time bounds (seconds): `(min, max)`.
    pub processing: (f64, f64),
    /// Stagger window for initial joins (seconds).
    pub join_stagger: f64,
    /// Width of the device-load measurement windows (seconds).
    pub load_window: f64,
    /// Run SAPP's overlay dissemination of leave notices.
    pub disseminate: bool,
    /// Crash the device (silent leave) at this instant, if set.
    pub crash_at: Option<f64>,
    /// Graceful device leave (Bye broadcast) at this instant, if set.
    pub bye_at: Option<f64>,
    /// Root seed.
    pub seed: u64,
    /// Virtual run length (seconds).
    pub duration: f64,
}

/// Checks one phase timeline: non-empty, anchored at 0, strictly
/// increasing, every start inside the horizon.
fn check_phases(kind: &str, starts: &[f64], duration: f64) -> Result<(), SpecError> {
    if starts.is_empty() {
        return Err(err(format!("{kind} timeline must have at least one phase")));
    }
    if starts[0] != 0.0 {
        return Err(err(format!("first {kind} phase must start at t = 0")));
    }
    for pair in starts.windows(2) {
        if pair[0] >= pair[1] {
            return Err(err(format!(
                "{kind} phase starts must be strictly increasing"
            )));
        }
    }
    let last = starts[starts.len() - 1];
    if last >= duration {
        return Err(err(format!(
            "{kind} phase at {last} s starts at or after the {duration} s horizon"
        )));
    }
    if starts.iter().any(|s| !s.is_finite()) {
        return Err(err(format!("{kind} phase starts must be finite")));
    }
    Ok(())
}

impl ScenarioSpec {
    /// Wraps a stationary [`ScenarioConfig`] into a single-phase spec —
    /// the starting point for a spec built in code rather than read from
    /// a file.
    #[must_use]
    pub fn from_config(name: &str, description: &str, cfg: ScenarioConfig) -> Self {
        Self {
            name: name.to_string(),
            description: description.to_string(),
            protocol: cfg.protocol,
            cp_pool: cfg.cp_pool,
            initially_active: cfg.initially_active,
            buffer_capacity: cfg.buffer_capacity,
            delay: vec![DelayPhase {
                start: 0.0,
                delay: cfg.delay,
            }],
            loss: vec![LossPhase {
                start: 0.0,
                loss: cfg.loss,
            }],
            churn: vec![ChurnPhase {
                start: 0.0,
                churn: cfg.churn,
            }],
            processing: cfg.processing,
            join_stagger: cfg.join_stagger,
            load_window: cfg.load_window,
            disseminate: cfg.disseminate,
            crash_at: None,
            bye_at: None,
            seed: cfg.seed,
            duration: cfg.duration,
        }
    }

    /// The stationary config this spec lowers onto: first phase of every
    /// timeline. [`ScenarioSpec::build`] overrides the network models and
    /// churn switches on top of it.
    #[must_use]
    pub fn base_config(&self) -> ScenarioConfig {
        ScenarioConfig {
            protocol: self.protocol,
            cp_pool: self.cp_pool,
            initially_active: self.initially_active,
            buffer_capacity: self.buffer_capacity,
            delay: self.delay[0].delay,
            loss: self.loss[0].loss,
            churn: self.churn[0].churn,
            processing: self.processing,
            join_stagger: self.join_stagger,
            load_window: self.load_window,
            disseminate: self.disseminate,
            seed: self.seed,
            duration: self.duration,
        }
    }

    /// Validates every structural invariant a runnable spec must satisfy,
    /// as a `Result` (batch tooling reports all catalog problems instead
    /// of panicking on the first): the name, everything stationary
    /// ([`ScenarioConfig::validate`] on the first phases), the later
    /// phases, the three timelines, and the failure instant.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(err("name must not be empty"));
        }
        // The timelines first: `base_config` needs a first phase of each.
        let delay_starts: Vec<f64> = self.delay.iter().map(|p| p.start).collect();
        let loss_starts: Vec<f64> = self.loss.iter().map(|p| p.start).collect();
        let churn_starts: Vec<f64> = self.churn.iter().map(|p| p.start).collect();
        check_phases("delay", &delay_starts, self.duration)?;
        check_phases("loss", &loss_starts, self.duration)?;
        check_phases("churn", &churn_starts, self.duration)?;

        self.base_config().validate()?;
        for phase in &self.delay[1..] {
            phase.delay.validate()?;
        }
        for phase in &self.loss[1..] {
            phase.loss.validate()?;
        }
        for phase in &self.churn[1..] {
            phase.churn.validate()?;
        }

        for (label, at) in [("crash_at", self.crash_at), ("bye_at", self.bye_at)] {
            if let Some(at) = at {
                if !(at > 0.0 && at < self.duration) {
                    return Err(err(format!("{label} must fall inside (0, duration)")));
                }
            }
        }
        if self.crash_at.is_some() && self.bye_at.is_some() {
            return Err(err("a device cannot both crash and say Bye"));
        }
        Ok(())
    }

    /// Every regime boundary of this spec (union of the three timelines'
    /// phase starts), sorted and deduplicated, starting with 0 — the
    /// window starts of the per-regime metric slices.
    #[must_use]
    pub fn regime_starts(&self) -> Vec<f64> {
        let delay: Vec<f64> = self.delay.iter().map(|p| p.start).collect();
        let loss: Vec<f64> = self.loss.iter().map(|p| p.start).collect();
        let churn: Vec<f64> = self.churn.iter().map(|p| p.start).collect();
        merge_boundaries(&[&delay, &loss, &churn], self.duration)
    }

    /// The per-regime `[start, end)` windows of this spec.
    #[must_use]
    pub fn regime_windows(&self) -> Vec<(f64, f64)> {
        slice_windows(&self.regime_starts(), self.duration)
    }

    /// Builds the runnable scenario this spec describes. A single-phase
    /// spec produces an actor graph identical to
    /// [`Scenario::build`]`(self.base_config())` — same actors, same RNG
    /// streams, bit-identical trajectory.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant (the spec is re-validated so
    /// hand-built specs cannot skip it).
    pub fn build(&self) -> Result<Scenario, SpecError> {
        self.validate()?;
        let mut scenario = Scenario::assemble(
            self.base_config(),
            self.delay_model(),
            self.loss_model(),
            &self.churn_switches(),
        );
        if let Some(at) = self.crash_at {
            scenario.crash_device_at(at);
        }
        if let Some(at) = self.bye_at {
            scenario.device_bye_at(at);
        }
        Ok(scenario)
    }

    /// The spec's delay model (phased specs get a [`Scheduled`] wrapper).
    fn delay_model(&self) -> Box<dyn DelayModel> {
        if self.delay.len() == 1 {
            self.delay[0].delay.build()
        } else {
            Box::new(Scheduled::from_segments(
                self.delay
                    .iter()
                    .map(|p| (SimTime::from_secs_f64(p.start), p.delay.build()))
                    .collect(),
            ))
        }
    }

    /// The spec's loss model.
    fn loss_model(&self) -> Box<dyn LossModel> {
        if self.loss.len() == 1 {
            self.loss[0].loss.build()
        } else {
            Box::new(Scheduled::from_segments(
                self.loss
                    .iter()
                    .map(|p| (SimTime::from_secs_f64(p.start), p.loss.build()))
                    .collect(),
            ))
        }
    }

    /// The mid-run churn regime switches (every churn phase after the
    /// first).
    fn churn_switches(&self) -> Vec<(f64, ChurnModel)> {
        self.churn[1..].iter().map(|p| (p.start, p.churn)).collect()
    }

    /// Parses and validates a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a parse or validation error.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let spec: ScenarioSpec =
            serde_json::from_str(text).map_err(|e| err(format!("parse error: {e}")))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Serialises the spec as pretty JSON (the catalog file format).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialises")
    }
}

// ---------------------------------------------------------------------------
// Per-regime metric slices
// ---------------------------------------------------------------------------

/// Metrics of one regime window of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegimeSlice {
    /// Window start (seconds).
    pub start: f64,
    /// Window end (exclusive; the last window ends at the horizon).
    pub end: f64,
    /// Mean device load (probes/s) over load windows starting inside the
    /// slice; `None` if no load window landed here.
    pub load_mean: Option<f64>,
    /// Jain fairness index over the per-CP mean probe frequencies within
    /// the slice (CPs with at least one completed cycle here).
    pub fairness_jain: Option<f64>,
    /// Time-weighted mean driven population over the slice (the series
    /// is a step function, so the value set before the window carries
    /// into it).
    pub population_mean: Option<f64>,
    /// CPs whose absence verdict fell inside this slice.
    pub detections: u32,
    /// Mean verdict latency (seconds after the configured crash/bye) of
    /// those detections; `None` without a failure or without detections.
    pub detection_latency_mean: Option<f64>,
}

/// Slices one run's result along the given regime windows. `failure_at`
/// (the spec's `crash_at`/`bye_at`) anchors detection latency.
#[must_use]
pub fn slice_result(
    result: &ScenarioResult,
    windows: &[(f64, f64)],
    failure_at: Option<f64>,
) -> Vec<RegimeSlice> {
    windows
        .iter()
        .map(|&(start, end)| {
            let load = window_slice(&result.load_series, start, end);
            let population = step_mean(&result.population_series, start, end);

            // Per-CP mean frequency within the window, over CPs that
            // completed a cycle here.
            let freqs: Vec<f64> = result
                .cps
                .iter()
                .filter_map(|cp| window_mean(window_slice(&cp.frequency_series, start, end)))
                .collect();
            let fairness = if freqs.is_empty() {
                None
            } else {
                Some(jain_index(&freqs))
            };

            let verdicts: Vec<f64> = result
                .cps
                .iter()
                .filter_map(|cp| cp.detected_absent_at)
                .filter(|&t| t >= start && t < end)
                .collect();
            let latency = failure_at.and_then(|at| {
                let late: Vec<f64> = verdicts
                    .iter()
                    .map(|&t| t - at)
                    .filter(|&d| d >= 0.0)
                    .collect();
                if late.is_empty() {
                    None
                } else {
                    Some(late.iter().sum::<f64>() / late.len() as f64)
                }
            });

            RegimeSlice {
                start,
                end,
                load_mean: window_mean(load),
                fairness_jain: fairness,
                population_mean: population,
                detections: verdicts.len() as u32,
                detection_latency_mean: latency,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The lab runner
// ---------------------------------------------------------------------------

/// Whole-run numbers of one replication.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabSeedResult {
    /// Seed of this replication.
    pub seed: u64,
    /// Mean device load over the whole run.
    pub load_mean: f64,
    /// Whole-run Jain fairness.
    pub fairness_jain: f64,
    /// Engine events processed.
    pub events_processed: u64,
    /// Messages delivered by the fabric.
    pub messages_delivered: u64,
    /// Messages the loss regime dropped.
    pub messages_dropped_loss: u64,
    /// Messages dropped on buffer overflow.
    pub messages_dropped_overflow: u64,
    /// Messages the fabric could not route to any live recipient
    /// (`FabricStats::unroutable`).
    pub messages_unroutable: u64,
    /// Per-regime slices of this replication.
    pub slices: Vec<RegimeSlice>,
}

/// The lab's aggregate answer for one spec: per-seed results plus
/// cross-seed means per regime window. Byte-identical at any worker
/// count (replications merge in seed order before any folding).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabReport {
    /// Spec name.
    pub name: String,
    /// Seeds run.
    pub seeds: Vec<u64>,
    /// The regime windows the slices refer to.
    pub windows: Vec<(f64, f64)>,
    /// Cross-seed aggregate slice per window: each floating-point metric
    /// is the mean over the seeds where it was defined, while
    /// `detections` is the **total across all seeds** (a count, not a
    /// mean — compare against `per_seed` slices accordingly).
    pub slices: Vec<RegimeSlice>,
    /// One entry per seed, in seed order.
    pub per_seed: Vec<LabSeedResult>,
}

/// Aggregates the per-seed slices of one window: floating-point metrics
/// averaged over the seeds where they were defined, `detections` summed
/// (it is a count; see [`LabReport::slices`]).
fn mean_slice(window: (f64, f64), per_seed: &[&RegimeSlice]) -> RegimeSlice {
    fn mean_defined(values: impl Iterator<Item = Option<f64>>) -> Option<f64> {
        let defined: Vec<f64> = values.flatten().collect();
        if defined.is_empty() {
            None
        } else {
            Some(defined.iter().sum::<f64>() / defined.len() as f64)
        }
    }
    RegimeSlice {
        start: window.0,
        end: window.1,
        load_mean: mean_defined(per_seed.iter().map(|s| s.load_mean)),
        fairness_jain: mean_defined(per_seed.iter().map(|s| s.fairness_jain)),
        population_mean: mean_defined(per_seed.iter().map(|s| s.population_mean)),
        detections: per_seed.iter().map(|s| s.detections).sum(),
        detection_latency_mean: mean_defined(per_seed.iter().map(|s| s.detection_latency_mean)),
    }
}

/// Runs `spec` once under its own seed and returns the raw result (the
/// golden-comparison path).
///
/// # Errors
///
/// Returns the spec's first violated invariant.
pub fn run_spec_once(spec: &ScenarioSpec) -> Result<ScenarioResult, SpecError> {
    let mut scenario = spec.build()?;
    scenario.run();
    Ok(scenario.collect())
}

/// Runs `spec` under each seed (overriding `spec.seed`) across `jobs`
/// workers and reports per-regime-sliced metrics. The report is
/// **byte-identical for every `jobs` value**: replications are
/// independent simulations merged back in seed order before the
/// (order-sensitive) cross-seed folds.
///
/// # Errors
///
/// Returns the spec's first violated invariant (checked once, before any
/// worker spawns).
///
/// # Panics
///
/// Panics if `seeds` is empty or `jobs` is zero.
pub fn run_lab(spec: &ScenarioSpec, seeds: &[u64], jobs: usize) -> Result<LabReport, SpecError> {
    assert!(!seeds.is_empty(), "need at least one seed");
    spec.validate()?;
    let windows = spec.regime_windows();
    let failure_at = spec.crash_at.or(spec.bye_at);

    let per_seed = run_indexed(seeds.len(), jobs, |i| {
        let mut seeded = spec.clone();
        seeded.seed = seeds[i];
        // The spec was validated above; a failure here would be a race on
        // the borrowed spec, which the worker pool forbids.
        let mut scenario = seeded.build().expect("validated spec builds");
        scenario.run();
        let result = scenario.collect();
        LabSeedResult {
            seed: seeds[i],
            load_mean: result.load_mean,
            fairness_jain: result.fairness_jain,
            events_processed: result.events_processed,
            messages_delivered: result.messages_delivered,
            messages_dropped_loss: result.messages_dropped_loss,
            messages_dropped_overflow: result.messages_dropped_overflow,
            messages_unroutable: result.messages_unroutable,
            slices: slice_result(&result, &windows, failure_at),
        }
    });

    let slices = windows
        .iter()
        .enumerate()
        .map(|(w, &window)| {
            let per: Vec<&RegimeSlice> = per_seed.iter().map(|s| &s.slices[w]).collect();
            mean_slice(window, &per)
        })
        .collect();

    Ok(LabReport {
        name: spec.name.clone(),
        seeds: seeds.to_vec(),
        windows,
        slices,
        per_seed,
    })
}

// ---------------------------------------------------------------------------
// The shipped catalog
// ---------------------------------------------------------------------------

/// `catalog/*.json`, embedded at build time, in shipping order. The files
/// are the catalog: a new scenario is a new file plus its line here.
#[rustfmt::skip]
const CATALOG: [(&str, &str); 9] = [
    ("paper-sapp", include_str!("../../../catalog/paper-sapp.json")),
    ("paper-dcpp", include_str!("../../../catalog/paper-dcpp.json")),
    ("paper-churn", include_str!("../../../catalog/paper-churn.json")),
    ("partition-recovery", include_str!("../../../catalog/partition-recovery.json")),
    ("flash-crowd", include_str!("../../../catalog/flash-crowd.json")),
    ("diurnal-day", include_str!("../../../catalog/diurnal-day.json")),
    ("bursty-loss-storm", include_str!("../../../catalog/bursty-loss-storm.json")),
    ("crash-under-loss", include_str!("../../../catalog/crash-under-loss.json")),
    ("mixed-regime-stress", include_str!("../../../catalog/mixed-regime-stress.json")),
];

/// The shipped catalog — the repository's `catalog/*.json` files, parsed
/// and validated, in shipping order.
///
/// The first three are the paper-faithful golden trio — single-phase
/// specs whose trajectories are bit-identical to the hard-coded presets
/// ([`crate::golden_trio`]). The rest exercise what the paper only
/// conjectures: partitions that heal, flash crowds, diurnal populations,
/// bursty loss storms, and a mixed scenario where delay, loss, and churn
/// all switch mid-run.
///
/// # Panics
///
/// Panics, naming the file, if an embedded file does not parse, does not
/// validate, or is not named after its file stem — a bug in the
/// repository, not bad input.
#[must_use]
pub fn builtin_catalog() -> Vec<ScenarioSpec> {
    CATALOG
        .iter()
        .map(|&(stem, text)| {
            let spec = ScenarioSpec::from_json(text)
                .unwrap_or_else(|e| panic!("catalog/{stem}.json: {e}"));
            assert_eq!(spec.name, stem, "catalog/{stem}.json: name is not the stem");
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::golden_trio;

    fn quick_spec() -> ScenarioSpec {
        let mut cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 6, 60.0, 3);
        cfg.load_window = 2.0;
        ScenarioSpec::from_config("quick", "unit-test spec", cfg)
    }

    #[test]
    fn single_phase_spec_matches_bare_scenario_bit_for_bit() {
        for (name, cfg) in golden_trio() {
            let spec = ScenarioSpec::from_config(name, "paper preset", cfg);
            let via_spec = run_spec_once(&spec).expect("spec runs");
            let mut bare = Scenario::build(cfg);
            bare.run();
            let direct = bare.collect();
            assert_eq!(
                serde_json::to_string(&via_spec).unwrap(),
                serde_json::to_string(&direct).unwrap(),
                "{name}: spec lowering must not perturb the trajectory"
            );
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let mut spec = quick_spec();
        spec.delay.push(DelayPhase {
            start: 20.0,
            delay: DelayKind::Uniform(0.0001, 0.001),
        });
        spec.loss.push(LossPhase {
            start: 30.0,
            loss: LossKind::Bursty(0.1),
        });
        spec.churn.push(ChurnPhase {
            start: 40.0,
            churn: ChurnModel::Diurnal {
                period: 20.0,
                min: 1,
                max: 6,
                rate: 0.5,
            },
        });
        spec.crash_at = Some(50.0);
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).expect("round-trips");
        assert_eq!(back, spec);
    }

    #[test]
    fn unknown_spec_key_is_an_error_naming_it() {
        let (stem, text) = CATALOG[0];
        let extended = text.replacen('{', "{\n  \"no_such_key\": 1,", 1);
        let e = ScenarioSpec::from_json(&extended)
            .expect_err("an unknown key must not parse")
            .to_string();
        assert!(
            e.contains("unknown field `no_such_key`"),
            "catalog/{stem}.json + no_such_key: {e}"
        );
    }

    #[test]
    fn validation_catches_structural_errors() {
        type Mutation = Box<dyn Fn(&mut ScenarioSpec)>;
        let cases: Vec<(&str, Mutation)> = vec![
            ("empty name", Box::new(|s| s.name.clear())),
            ("no CPs", Box::new(|s| s.cp_pool = 0)),
            (
                "oversized active set",
                Box::new(|s| s.initially_active = 99),
            ),
            ("zero buffer", Box::new(|s| s.buffer_capacity = 0)),
            ("no delay phases", Box::new(|s| s.delay.clear())),
            ("late first phase", Box::new(|s| s.delay[0].start = 1.0)),
            (
                "phase past horizon",
                Box::new(|s| {
                    s.loss.push(LossPhase {
                        start: 60.0,
                        loss: LossKind::None,
                    });
                }),
            ),
            (
                "non-increasing churn phases",
                Box::new(|s| {
                    s.churn.push(ChurnPhase {
                        start: 0.0,
                        churn: ChurnModel::Static,
                    });
                }),
            ),
            (
                "bad loss probability",
                Box::new(|s| s.loss[0].loss = LossKind::Bernoulli(1.5)),
            ),
            (
                "bad bursty rate",
                Box::new(|s| s.loss[0].loss = LossKind::Bursty(0.9)),
            ),
            (
                "inverted uniform delay",
                Box::new(|s| s.delay[0].delay = DelayKind::Uniform(0.5, 0.1)),
            ),
            (
                "inverted diurnal bounds",
                Box::new(|s| {
                    s.churn[0].churn = ChurnModel::Diurnal {
                        period: 10.0,
                        min: 9,
                        max: 2,
                        rate: 0.1,
                    };
                }),
            ),
            ("crash outside run", Box::new(|s| s.crash_at = Some(99.0))),
            (
                "crash and bye together",
                Box::new(|s| {
                    s.crash_at = Some(10.0);
                    s.bye_at = Some(20.0);
                }),
            ),
            (
                "bad DcppConfig",
                Box::new(|s| {
                    let mut cfg = presence_core::DcppConfig::paper_default();
                    cfg.delta_min = presence_des::SimDuration::ZERO;
                    s.protocol = Protocol::Dcpp { cfg };
                }),
            ),
            (
                "bad SappConfig",
                Box::new(|s| {
                    let mut cp = presence_core::SappConfig::paper_default();
                    cp.beta = 0.5;
                    s.protocol = Protocol::Sapp {
                        cp,
                        device: presence_core::SappDeviceConfig::paper_default(),
                    };
                }),
            ),
            (
                "zero FixedRate period",
                Box::new(|s| {
                    s.protocol = Protocol::FixedRate {
                        cycle: presence_core::ProbeCycleConfig::paper_default(),
                        period: 0.0,
                    };
                }),
            ),
        ];
        for (what, mutate) in cases {
            let mut spec = quick_spec();
            mutate(&mut spec);
            assert!(spec.validate().is_err(), "{what}: should be rejected");
        }
        assert!(quick_spec().validate().is_ok());
    }

    #[test]
    fn regime_windows_union_all_timelines() {
        let mut spec = quick_spec();
        spec.delay.push(DelayPhase {
            start: 20.0,
            delay: DelayKind::Constant(0.001),
        });
        spec.loss.push(LossPhase {
            start: 30.0,
            loss: LossKind::Bernoulli(0.05),
        });
        spec.churn.push(ChurnPhase {
            start: 20.0,
            churn: ChurnModel::Static,
        });
        assert_eq!(
            spec.regime_windows(),
            vec![(0.0, 20.0), (20.0, 30.0), (30.0, 60.0)]
        );
    }

    #[test]
    fn lab_report_slices_and_is_jobs_invariant() {
        let mut spec = quick_spec();
        spec.loss.push(LossPhase {
            start: 30.0,
            loss: LossKind::Bernoulli(0.2),
        });
        let seeds = [1, 2, 3, 4];
        let serial = run_lab(&spec, &seeds, 1).expect("runs");
        let parallel = run_lab(&spec, &seeds, 3).expect("runs");
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap(),
            "worker count must not perturb the report"
        );
        assert_eq!(serial.windows.len(), 2);
        assert_eq!(serial.slices.len(), 2);
        assert_eq!(serial.per_seed.len(), 4);
        // Loss kicks in only in the second window.
        let lossy: u64 = serial
            .per_seed
            .iter()
            .map(|s| s.messages_dropped_loss)
            .sum();
        assert!(lossy > 0, "Bernoulli(0.2) regime must drop something");
        for s in &serial.slices {
            assert!(s.load_mean.is_some(), "device load defined in every window");
        }
    }

    #[test]
    fn builtin_catalog_validates_and_has_unique_names() {
        let catalog = builtin_catalog();
        assert!(catalog.len() >= 8, "catalog has {} entries", catalog.len());
        let mut names: Vec<&str> = catalog.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), catalog.len(), "catalog names must be unique");
        for spec in &catalog {
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            let back = ScenarioSpec::from_json(&spec.to_json())
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(&back, spec, "{} must round-trip", spec.name);
        }
        let mixed = catalog
            .iter()
            .find(|s| s.name == "mixed-regime-stress")
            .expect("acceptance scenario shipped");
        assert!(
            mixed.delay.len() > 1 && mixed.loss.len() > 1 && mixed.churn.len() > 1,
            "mixed scenario must switch all three regimes"
        );
    }

    #[test]
    fn crash_detection_latency_lands_in_the_right_slice() {
        let mut spec = quick_spec();
        spec.churn.push(ChurnPhase {
            start: 30.0,
            churn: ChurnModel::Static,
        });
        spec.crash_at = Some(40.0);
        let report = run_lab(&spec, &[7], 1).expect("runs");
        assert_eq!(report.slices.len(), 2);
        assert_eq!(report.slices[0].detections, 0);
        assert_eq!(report.slices[1].detections, 6, "all 6 CPs detect");
        let latency = report.slices[1]
            .detection_latency_mean
            .expect("latency defined");
        assert!(latency > 0.0 && latency < 10.0, "latency {latency}");
    }
}

//! The scenario lab: declarative, time-varying experiment specifications.
//!
//! A [`ScenarioSpec`] is the JSON-authorable description of one lab
//! experiment: a name, the [`ScenarioConfig`] that holds at `t = 0`, one
//! time-ordered list of regime [`Switch`]es (a new delay, loss or churn
//! model from a configured sim-time instant on), and an optional device
//! failure. It *lowers* onto [`Scenario::build`] — nothing about the
//! engine changes; a switch-free spec builds an actor graph identical to
//! [`Scenario::build`]'s, which is how the paper-faithful catalog entries
//! reproduce the golden trajectories bit-for-bit.
//!
//! * every switch becomes one engine event, [`crate::SimEvent::Switch`],
//!   that the scenario posts before the run: a delay or loss switch goes
//!   to the network actor, which swaps the fabric's model, and a churn
//!   switch to the churn actor, which re-arms. Posted before the run, a
//!   switch is the first event at its instant, whatever its kind;
//! * `t = 0` and every switch instant open a **regime window**, and one
//!   fold reports device load, Jain fairness, population, and detection
//!   latency per window — over a run's [`ScenarioResult`] in [`run_lab`],
//!   and over the same run read back from its trace in [`slice_trace`],
//!   so the `spotter` bin prints the windows `lab` prints;
//! * [`run_lab`] fans replications across the [`crate::parallel`] worker
//!   pool and merges them in seed order, so a [`LabReport`] is
//!   byte-identical at any worker count — the crate's one cross-seed
//!   runner; [`LabReport::intervals`] folds its per-seed whole-run numbers
//!   into Student-t intervals.
//!
//! Shipped specs are the repository's `catalog/*.json` files, edited by
//! hand and embedded at build time ([`builtin_catalog`]); the `lab`
//! binary (`presence-bench`) lists, validates, runs, and prints them, or
//! any spec file given by path.

use crate::event::Regime;
use crate::metrics::ScenarioResult;
use crate::parallel::run_indexed;
use crate::scenario::{err, Scenario, ScenarioConfig, SpecError};
use presence_des::SimTime;
use presence_stats::{jain_index, slice_windows, step_mean, window_mean, window_slice};
use presence_trace::TraceRun;
use serde::{Deserialize, Serialize};
use std::mem::discriminant;

/// One regime change: `to` is in force from `at` seconds until the next
/// switch of its kind (or the horizon).
#[derive(Debug, Clone, Copy, PartialEq, Deserialize, Serialize)]
#[serde(deny_unknown_fields)]
pub struct Switch {
    /// Switch instant (seconds, inside the run). The switch is the first
    /// event at this instant: a message sent at `at` meets the new model,
    /// and a replaced churn model takes no action at `at`.
    pub at: f64,
    /// The model in force from `at` on.
    pub to: Regime,
}

/// A declarative, serialisable scenario: a named [`ScenarioConfig`] (the
/// models at `t = 0`), the regime switches after it, and an optional
/// mid-run device failure. A key that names no field — here or inside
/// `config` — is an error, so a misspelt or retired option fails to parse
/// instead of being silently ignored.
#[derive(Debug, Clone, PartialEq, Deserialize, Serialize)]
#[serde(deny_unknown_fields)]
pub struct ScenarioSpec {
    /// Catalog name (kebab-case by convention).
    pub name: String,
    /// One-line human description of what the scenario stresses.
    pub description: String,
    /// Everything stationary, and the delay, loss and churn models at
    /// `t = 0`.
    pub config: ScenarioConfig,
    /// Later regime changes, in time order.
    pub switches: Vec<Switch>,
    /// Crash the device (silent leave) at this instant, if set.
    pub crash_at: Option<f64>,
    /// Graceful device leave (Bye broadcast) at this instant, if set.
    pub bye_at: Option<f64>,
}

impl ScenarioSpec {
    /// A switch-free spec over `config` — the starting point for a spec
    /// built in code rather than read from a file.
    #[must_use]
    pub fn new(name: &str, description: &str, config: ScenarioConfig) -> Self {
        Self {
            name: name.to_string(),
            description: description.to_string(),
            config,
            switches: Vec::new(),
            crash_at: None,
            bye_at: None,
        }
    }

    /// Validates every structural invariant a runnable spec must satisfy:
    /// the name, [`ScenarioConfig::validate`], the failure instant, and
    /// each switch — inside `(0, duration)`, no earlier than the one
    /// before it, alone of its kind at its instant (to the nanosecond),
    /// with a valid model.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(err("name must not be empty"));
        }
        self.config.validate()?;
        let duration = self.config.duration;
        for (k, &Switch { at, to }) in self.switches.iter().enumerate() {
            let earlier = &self.switches[..k];
            if !(at > 0.0 && at < duration) {
                return Err(err(format!("switch at {at} s is outside (0, duration)")));
            }
            if earlier.last().is_some_and(|prev| prev.at > at) {
                return Err(err(format!("switch at {at} s is out of time order")));
            }
            // At the engine's nanosecond resolution, a switch must not round
            // onto `t = 0` or onto another switch of its kind.
            let (tick, kind) = (SimTime::from_secs_f64(at), discriminant(&to));
            let clash =
                |p: &Switch| SimTime::from_secs_f64(p.at) == tick && discriminant(&p.to) == kind;
            if tick == SimTime::ZERO || earlier.iter().any(clash) {
                return Err(err(format!("two models of one kind at {at} s")));
            }
            match to {
                Regime::Delay(delay) => delay.validate(),
                Regime::Loss(loss) => loss.validate(),
                Regime::Churn(churn) => churn.validate(),
            }?;
        }

        for (label, at) in [("crash_at", self.crash_at), ("bye_at", self.bye_at)] {
            if let Some(at) = at {
                if !(at > 0.0 && at < duration) {
                    return Err(err(format!("{label} must fall inside (0, duration)")));
                }
            }
        }
        if self.crash_at.is_some() && self.bye_at.is_some() {
            return Err(err("a device cannot both crash and say Bye"));
        }
        Ok(())
    }

    /// The per-regime `[start, end)` windows of this spec: one opens at
    /// `t = 0` and at each distinct switch instant.
    #[must_use]
    pub fn regime_windows(&self) -> Vec<(f64, f64)> {
        let switches: Vec<f64> = self.switches.iter().map(|s| s.at).collect();
        regime_windows(&switches, self.config.duration)
    }

    /// Builds the runnable scenario this spec describes. A switch-free
    /// spec produces an actor graph identical to
    /// [`Scenario::build`]`(self.config)` — same actors, same RNG streams,
    /// bit-identical trajectory.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant (the spec is re-validated so
    /// hand-built specs cannot skip it).
    pub fn build(&self) -> Result<Scenario, SpecError> {
        self.validate()?;
        let mut scenario = Scenario::build(self.config);
        // Posted first, each switch precedes every other event at its
        // instant: the crash or Bye below, and all the run creates.
        for &Switch { at, to } in &self.switches {
            scenario.switch_at(at, to);
        }
        let failure = self.crash_at.or(self.bye_at);
        scenario.timeline.failure = failure.map(|at| SimTime::from_secs_f64(at).as_nanos());
        if let Some(at) = self.crash_at {
            scenario.crash_device_at(at);
        }
        if let Some(at) = self.bye_at {
            scenario.device_bye_at(at);
        }
        Ok(scenario)
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
}

// ---------------------------------------------------------------------------
// Per-regime metric slices
// ---------------------------------------------------------------------------

/// Metrics of one regime window of one run.
#[derive(Debug, Clone, PartialEq, Serialize)]
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

/// The `[start, end)` regime windows of a run whose regimes switch at
/// `switches` (seconds, in time order): one opens at `t = 0` and at each
/// distinct switch instant inside `(0, end)`, and the last closes at
/// `end`, which must be positive.
fn regime_windows(switches: &[f64], end: f64) -> Vec<(f64, f64)> {
    let mut starts = vec![0.0];
    starts.extend(switches.iter().copied().filter(|&at| at > 0.0 && at < end));
    starts.dedup();
    slice_windows(&starts, end)
}

/// A run's series as its trace carries them, for [`run_lab`]'s window
/// fold. The timeline marks stay empty: the spec, not the result, holds
/// them.
impl From<&ScenarioResult> for TraceRun {
    fn from(result: &ScenarioResult) -> Self {
        Self {
            load: result.load_series.clone(),
            population: result.population_series.clone(),
            frequencies: (result.cps.iter())
                .map(|cp| cp.frequency_series.clone())
                .collect(),
            verdicts: (result.cps.iter())
                .filter_map(|cp| cp.detected_absent_at)
                .collect(),
            ..Self::default()
        }
    }
}

/// Slices one run's series along the given regime windows. `failure_at`
/// (the spec's `crash_at`/`bye_at`) anchors detection latency; `run`'s
/// own timeline marks are not read.
fn slice_result(
    run: &TraceRun,
    windows: &[(f64, f64)],
    failure_at: Option<f64>,
) -> Vec<RegimeSlice> {
    windows
        .iter()
        .map(|&(start, end)| {
            let load = window_slice(&run.load, start, end);
            let population = step_mean(&run.population, start, end);

            // Per-CP mean frequency within the window, over CPs that
            // completed a cycle here.
            let freqs: Vec<f64> = run
                .frequencies
                .iter()
                .filter_map(|frequency| window_mean(window_slice(frequency, start, end)))
                .collect();
            let fairness = if freqs.is_empty() {
                None
            } else {
                Some(jain_index(&freqs))
            };

            let verdicts: Vec<f64> = run
                .verdicts
                .iter()
                .copied()
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

/// The regime windows of the run a trace records, sliced by the fold
/// behind [`run_lab`]'s per-seed slices: windows open at `t = 0` and at
/// the trace's `regime_switch` instants and close at its `run_end`, and
/// detection latency counts from its `failure`. A trace without a
/// `run_end` has no windows (`None`).
#[must_use]
pub fn slice_trace(run: &TraceRun) -> Option<Vec<RegimeSlice>> {
    let end = run.end.filter(|&end| end > 0.0)?;
    let windows = regime_windows(&run.switches, end);
    Some(slice_result(run, &windows, run.failure))
}

// ---------------------------------------------------------------------------
// The lab runner
// ---------------------------------------------------------------------------

/// Whole-run numbers of one replication.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LabSeedResult {
    /// Seed of this replication.
    pub seed: u64,
    /// Mean device load over the run, its first (warm-up) load window
    /// excluded as in [`ScenarioResult::load_mean`]; the regime slices
    /// count that window, so a one-window report's two loads differ.
    pub load_mean: f64,
    /// Whole-run Jain fairness.
    pub fairness_jain: f64,
    /// Max/min ratio of the active CPs' mean probe frequencies
    /// ([`ScenarioResult::frequency_spread`]).
    pub frequency_spread: f64,
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
#[derive(Debug, Clone, PartialEq, Serialize)]
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

/// Checks that no seed repeats in `seeds`: [`run_lab`] would count a
/// repeated seed's run twice in its cross-seed folds.
///
/// # Errors
///
/// Names the first repeated seed.
pub fn check_seeds(seeds: &[u64]) -> Result<(), SpecError> {
    for (i, seed) in seeds.iter().enumerate() {
        if seeds[..i].contains(seed) {
            return Err(err(format!("seed {seed} is repeated in {seeds:?}")));
        }
    }
    Ok(())
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
/// worker spawns), or [`check_seeds`]' error on a repeated seed.
///
/// # Panics
///
/// Panics if `seeds` is empty or `jobs` is zero.
pub fn run_lab(spec: &ScenarioSpec, seeds: &[u64], jobs: usize) -> Result<LabReport, SpecError> {
    assert!(!seeds.is_empty(), "need at least one seed");
    spec.validate()?;
    check_seeds(seeds)?;
    let windows = spec.regime_windows();
    let failure_at = spec.crash_at.or(spec.bye_at);

    let per_seed = run_indexed(seeds.len(), jobs, |i| {
        let mut seeded = spec.clone();
        seeded.config.seed = seeds[i];
        // The spec was validated above; a failure here would be a race on
        // the borrowed spec, which the worker pool forbids.
        let mut scenario = seeded.build().expect("validated spec builds");
        scenario.run();
        let result = scenario.collect();
        LabSeedResult {
            seed: seeds[i],
            load_mean: result.load_mean,
            fairness_jain: result.fairness_jain,
            frequency_spread: result.frequency_spread(),
            events_processed: result.events_processed,
            messages_delivered: result.messages_delivered,
            messages_dropped_loss: result.messages_dropped_loss,
            messages_dropped_overflow: result.messages_dropped_overflow,
            messages_unroutable: result.messages_unroutable,
            slices: slice_result(&TraceRun::from(&result), &windows, failure_at),
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

/// One embedded catalog file, parsed, validated and checked to be named
/// after its stem.
///
/// # Panics
///
/// Panics, naming the file, on any of the three — a bug in the
/// repository, not bad input.
fn catalog_entry((stem, text): (&str, &str)) -> ScenarioSpec {
    let spec = ScenarioSpec::from_json(text).unwrap_or_else(|e| panic!("catalog/{stem}.json: {e}"));
    assert_eq!(spec.name, stem, "catalog/{stem}.json: name is not the stem");
    spec
}

/// The shipped catalog — the repository's `catalog/*.json` files, parsed
/// and validated, in shipping order.
///
/// The first three are the paper-faithful golden trio
/// ([`golden_trio`]). The rest exercise what the paper only conjectures:
/// partitions that heal, flash crowds, diurnal populations, bursty loss
/// storms, and a mixed scenario where delay, loss, and churn all switch
/// mid-run.
///
/// # Panics
///
/// Panics, naming the file, if an embedded file does not parse, does not
/// validate, or is not named after its file stem — a bug in the
/// repository, not bad input.
#[must_use]
pub fn builtin_catalog() -> Vec<ScenarioSpec> {
    CATALOG.into_iter().map(catalog_entry).collect()
}

/// The three scenarios pinned by the golden-equivalence suite, as
/// `(name, config)`: the configs of the switch-free catalog entries
/// `paper-sapp`, `paper-dcpp` (the paper-default 30-CP configuration the
/// events-per-message acceptance gate measures) and `paper-churn` (a
/// Figure-5 churn run), named `sapp`, `dcpp` and `churn`. The recorded
/// fixtures live in `tests/golden/` and are regenerated with the
/// `golden_fixtures` bin.
///
/// # Panics
///
/// As [`builtin_catalog`], on a broken embedded file.
#[must_use]
pub fn golden_trio() -> [(&'static str, ScenarioConfig); 3] {
    let config = |k: usize| catalog_entry(CATALOG[k]).config;
    [
        ("sapp", config(0)),
        ("dcpp", config(1)),
        ("churn", config(2)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChurnModel, DelayKind, LossKind, Protocol};

    fn quick_spec() -> ScenarioSpec {
        let mut cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 6, 60.0, 3);
        cfg.load_window = 2.0;
        ScenarioSpec::new("quick", "unit-test spec", cfg)
    }

    fn switch(at: f64, to: Regime) -> Switch {
        Switch { at, to }
    }

    #[test]
    fn single_phase_spec_matches_bare_scenario_bit_for_bit() {
        for (name, cfg) in golden_trio() {
            let spec = ScenarioSpec::new(name, "paper preset", cfg);
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
        spec.switches = vec![
            switch(20.0, Regime::Delay(DelayKind::Uniform(0.0001, 0.001))),
            switch(30.0, Regime::Loss(LossKind::Bursty(0.1))),
            switch(
                40.0,
                Regime::Churn(ChurnModel::Diurnal {
                    period: 20.0,
                    min: 1,
                    max: 6,
                    rate: 0.5,
                }),
            ),
        ];
        spec.crash_at = Some(50.0);
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back = ScenarioSpec::from_json(&json).expect("round-trips");
        assert_eq!(back, spec);
    }

    #[test]
    fn unknown_spec_key_is_an_error_naming_it() {
        let (stem, text) = CATALOG[0];
        for (place, extended) in [
            (
                "top level",
                text.replacen('{', "{\n  \"no_such_key\": 1,", 1),
            ),
            (
                "config",
                text.replacen("\"config\": {", "\"config\": {\n    \"no_such_key\": 1,", 1),
            ),
        ] {
            assert_ne!(extended, text, "{place}: the key was not inserted");
            let e = ScenarioSpec::from_json(&extended)
                .expect_err("an unknown key must not parse")
                .to_string();
            assert!(
                e.contains("unknown field `no_such_key`"),
                "catalog/{stem}.json + no_such_key at {place}: {e}"
            );
        }
    }

    #[test]
    fn validation_catches_structural_errors() {
        type Mutation = Box<dyn Fn(&mut ScenarioSpec)>;
        let calm = Regime::Loss(LossKind::None);
        let cases: Vec<(&str, Mutation)> = vec![
            ("empty name", Box::new(|s| s.name.clear())),
            ("no CPs", Box::new(|s| s.config.cp_pool = 0)),
            (
                "oversized active set",
                Box::new(|s| s.config.initially_active = 99),
            ),
            (
                "switch at 0",
                Box::new(move |s| s.switches.push(switch(0.0, calm))),
            ),
            (
                "switch at the horizon",
                Box::new(move |s| s.switches.push(switch(60.0, calm))),
            ),
            (
                "NaN switch instant",
                Box::new(move |s| s.switches.push(switch(f64::NAN, calm))),
            ),
            (
                "switches out of time order",
                Box::new(|s| {
                    s.switches = vec![
                        switch(30.0, Regime::Churn(ChurnModel::Static)),
                        switch(20.0, Regime::Delay(DelayKind::ThreeModePaper)),
                    ];
                }),
            ),
            (
                "two loss switches at one instant",
                Box::new(move |s| s.switches = vec![switch(30.0, calm), switch(30.0, calm)]),
            ),
            (
                "two loss switches within one nanosecond",
                Box::new(move |s| {
                    s.switches = vec![switch(30.0, calm), switch(30.0 + 1e-10, calm)]
                }),
            ),
            (
                "switch inside the first nanosecond",
                Box::new(move |s| s.switches.push(switch(1e-10, calm))),
            ),
            (
                "bad loss probability",
                Box::new(|s| s.config.loss = LossKind::Bernoulli(1.5)),
            ),
            (
                "bad bursty rate in a switch",
                Box::new(|s| {
                    s.switches
                        .push(switch(30.0, Regime::Loss(LossKind::Bursty(0.9))))
                }),
            ),
            (
                "inverted uniform delay",
                Box::new(|s| s.config.delay = DelayKind::Uniform(0.5, 0.1)),
            ),
            (
                "inverted diurnal bounds",
                Box::new(|s| {
                    s.config.churn = ChurnModel::Diurnal {
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
                    s.config.protocol = Protocol::Dcpp { cfg };
                }),
            ),
            (
                "bad SappConfig",
                Box::new(|s| {
                    let mut cp = presence_core::SappConfig::paper_default();
                    cp.beta = 0.5;
                    s.config.protocol = Protocol::Sapp {
                        cp,
                        device: presence_core::SappDeviceConfig::paper_default(),
                    };
                }),
            ),
            (
                "zero FixedRate period",
                Box::new(|s| {
                    s.config.protocol = Protocol::FixedRate {
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
        // Switches of different kinds may share an instant
        // (`mixed-regime-stress` switches loss and churn at 450 s).
        let mut shared = quick_spec();
        shared.switches = vec![
            switch(30.0, calm),
            switch(30.0, Regime::Churn(ChurnModel::Static)),
        ];
        assert_eq!(shared.validate(), Ok(()));
    }

    #[test]
    fn regime_windows_union_all_timelines() {
        let mut spec = quick_spec();
        spec.switches = vec![
            switch(20.0, Regime::Delay(DelayKind::Constant(0.001))),
            switch(20.0, Regime::Churn(ChurnModel::Static)),
            switch(30.0, Regime::Loss(LossKind::Bernoulli(0.05))),
        ];
        assert_eq!(
            spec.regime_windows(),
            vec![(0.0, 20.0), (20.0, 30.0), (30.0, 60.0)]
        );
    }

    #[test]
    fn lab_report_slices_and_is_jobs_invariant() {
        let mut spec = quick_spec();
        spec.switches
            .push(switch(30.0, Regime::Loss(LossKind::Bernoulli(0.2))));
        let seeds = [1, 2, 3, 4];
        let serial = run_lab(&spec, &seeds, 1).expect("runs");
        let parallel = run_lab(&spec, &seeds, 3).expect("runs");
        let repeated = run_lab(&spec, &[1, 2, 1], 1).expect_err("a repeated seed");
        assert_eq!(repeated.0, "seed 1 is repeated in [1, 2, 1]");
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
            let json = serde_json::to_string_pretty(spec).unwrap();
            let back =
                ScenarioSpec::from_json(&json).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(&back, spec, "{} must round-trip", spec.name);
        }
        let mixed = catalog
            .iter()
            .find(|s| s.name == "mixed-regime-stress")
            .expect("acceptance scenario shipped");
        let switched = |kind: Regime| {
            mixed
                .switches
                .iter()
                .any(|s| discriminant(&s.to) == discriminant(&kind))
        };
        assert!(
            switched(Regime::Delay(DelayKind::ThreeModePaper))
                && switched(Regime::Loss(LossKind::None))
                && switched(Regime::Churn(ChurnModel::Static)),
            "mixed scenario must switch all three regimes"
        );
    }

    #[test]
    fn crash_detection_latency_lands_in_the_right_slice() {
        let mut spec = quick_spec();
        spec.switches
            .push(switch(30.0, Regime::Churn(ChurnModel::Static)));
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

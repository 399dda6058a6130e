//! Acceptance suite for the scenario lab.
//!
//! * Every shipped `catalog/*.json` file is embedded in the catalog,
//!   parses, validates, and runs green.
//! * The mixed-regime acceptance scenario (delay + loss + churn all
//!   switching mid-run) produces per-regime metric slices and is
//!   byte-identical across worker counts.
//! * The new churn generators behave as specified (flash crowds peak and
//!   drain; diurnal populations follow the sinusoid band).
//! * A switch is the first event at its instant, for every kind.

use presence::des::SimTime;
use presence::sim::{
    builtin_catalog, mega_catalog, run_lab, run_spec_once, ChurnModel, DelayKind, Protocol, Regime,
    ScenarioConfig, ScenarioSpec, Switch,
};
use std::path::Path;

/// The `*.json` file stems under `dir`, sorted.
fn json_stems(dir: &Path) -> Vec<String> {
    let mut stems: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .map(|p| p.file_stem().unwrap().to_str().unwrap().to_string())
        .collect();
    stems.sort();
    stems
}

/// The files are the catalog, and the catalog is all the files: a file
/// added under `catalog/` but not embedded, or embedded but deleted, is
/// red. (That every entry parses, validates and is named after its file
/// stem is what reading either catalog asserts.)
#[test]
fn catalog_files_are_exactly_the_embedded_entries() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("catalog");
    let mut names: Vec<String> = builtin_catalog().into_iter().map(|s| s.name).collect();
    names.sort();
    assert_eq!(
        json_stems(&dir),
        names,
        "catalog/*.json vs builtin_catalog()"
    );
    let mut mega: Vec<String> = mega_catalog().into_iter().map(|s| s.name).collect();
    mega.sort();
    assert_eq!(
        json_stems(&dir.join("mega")),
        mega,
        "catalog/mega/*.json vs mega_catalog()"
    );
}

/// Every catalog entry runs green end to end and reports a load sample in
/// every regime window (populations and fairness may legitimately vanish
/// in a full-partition window).
#[test]
fn every_catalog_entry_runs_green() {
    for spec in builtin_catalog() {
        let report = run_lab(&spec, &[1], 1).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(report.windows.len(), spec.regime_windows().len());
        assert!(
            !report.per_seed.is_empty() && report.per_seed[0].events_processed > 0,
            "{}: no events processed",
            spec.name
        );
        for slice in &report.slices {
            assert!(
                slice.load_mean.is_some(),
                "{}: window [{}, {}) has no load samples",
                spec.name,
                slice.start,
                slice.end
            );
        }
    }
}

/// The acceptance scenario: all three regimes switch mid-run, slices are
/// produced for every window, and the report is byte-identical at any
/// worker count.
#[test]
fn mixed_regime_slices_and_is_jobs_invariant() {
    let spec = builtin_catalog()
        .into_iter()
        .find(|s| s.name == "mixed-regime-stress")
        .expect("acceptance scenario shipped");
    let switched = |kind: fn(&Regime) -> bool| spec.switches.iter().filter(|s| kind(&s.to)).count();
    assert!(switched(|r| matches!(r, Regime::Delay(_))) > 0);
    assert!(switched(|r| matches!(r, Regime::Loss(_))) > 0);
    assert!(switched(|r| matches!(r, Regime::Churn(_))) > 0);
    let seeds = [1, 2, 3];
    let serial = run_lab(&spec, &seeds, 1).expect("serial run");
    for jobs in [2, 4] {
        let parallel = run_lab(&spec, &seeds, jobs).expect("parallel run");
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap(),
            "lab report diverged at --jobs {jobs}"
        );
    }
    assert!(serial.windows.len() >= 5, "windows: {:?}", serial.windows);
    // The loss storm must actually have dropped traffic. (That every
    // churn switch applies exactly once is the golden replay's to show:
    // `lab-mixed` is this spec, and a skipped or doubled switch moves its
    // `events_processed`.)
    assert!(serial.per_seed.iter().all(|s| s.messages_dropped_loss > 0));
}

/// Flash crowds surge to the configured peak and drain back.
#[test]
fn flash_crowd_peaks_and_drains() {
    let spec = builtin_catalog()
        .into_iter()
        .find(|s| s.name == "flash-crowd")
        .expect("flash-crowd shipped");
    let ChurnModel::FlashCrowd { peak, .. } = spec.config.churn else {
        panic!("flash-crowd entry must use the FlashCrowd model");
    };
    let mut scenario = spec.build().expect("builds");
    scenario.run();
    let result = scenario.collect();
    let populations: Vec<f64> = result.population_series.iter().map(|&(_, p)| p).collect();
    let max = populations.iter().copied().fold(f64::NAN, f64::max);
    assert_eq!(max, f64::from(peak), "wave must reach the peak");
    let last = *populations.last().expect("population recorded");
    assert_eq!(
        last,
        f64::from(spec.config.initially_active),
        "population must drain back to the pre-surge baseline"
    );
}

/// Diurnal populations stay inside the configured band and actually move.
#[test]
fn diurnal_population_tracks_the_sinusoid_band() {
    let spec = builtin_catalog()
        .into_iter()
        .find(|s| s.name == "diurnal-day")
        .expect("diurnal-day shipped");
    let ChurnModel::Diurnal { min, max, .. } = spec.config.churn else {
        panic!("diurnal-day entry must use the Diurnal model");
    };
    let mut scenario = spec.build().expect("builds");
    scenario.run();
    let result = scenario.collect();
    assert!(
        result.population_series.len() > 20,
        "only {} resamples",
        result.population_series.len()
    );
    // Skip the initial sample (initially_active, set before the model
    // drives anything).
    let driven = &result.population_series[1..];
    for &(t, p) in driven {
        assert!(
            p >= f64::from(min) && p <= f64::from(max),
            "population {p} at {t} s outside [{min}, {max}]"
        );
    }
    let lo = driven.iter().map(|&(_, p)| p).fold(f64::NAN, f64::min);
    let hi = driven.iter().map(|&(_, p)| p).fold(f64::NAN, f64::max);
    assert!(
        hi - lo >= f64::from(max - min) * 0.5,
        "population barely moved: [{lo}, {hi}]"
    );
}

/// A regime switch mid-run changes observable network behaviour: a spec
/// whose loss regime turns total mid-run stops delivering exactly then.
#[test]
fn loss_switch_is_visible_in_the_slices() {
    let mut spec = builtin_catalog()
        .into_iter()
        .find(|s| s.name == "partition-recovery")
        .expect("partition-recovery shipped");
    // Single seed is enough; drop the churn recovery to isolate the loss.
    spec.config.churn = ChurnModel::Static;
    spec.switches.retain(|s| !matches!(s.to, Regime::Churn(_)));
    let report = run_lab(&spec, &[9], 1).expect("runs");
    assert_eq!(report.slices.len(), 3);
    let healthy = report.slices[0].load_mean.expect("pre-partition load");
    let partitioned = report.slices[1].load_mean.expect("partition load");
    assert!(
        healthy > 5.0 && partitioned < 1.0,
        "partition must crater the device load: {healthy} -> {partitioned}"
    );
    assert!(
        report.slices[1].detections > 0,
        "a total partition must trigger absence verdicts"
    );
}

/// A churn switch at the instant the replaced model would act comes
/// first, so the old model's action never happens: the burst leave due at
/// 50 s is switched off at 50 s, and all ten CPs stay.
#[test]
fn a_churn_switch_precedes_the_replaced_models_action_at_its_instant() {
    let mut cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 10, 100.0, 5);
    cfg.churn = ChurnModel::BurstLeave {
        at: 50.0,
        leavers: 8,
    };
    let mut spec = ScenarioSpec::new("burst-switched-off", "switch at the burst", cfg);
    spec.switches = vec![Switch {
        at: 50.0,
        to: Regime::Churn(ChurnModel::Static),
    }];
    let report = run_lab(&spec, &[1], 1).expect("runs");
    let populations: Vec<Option<f64>> = report.slices.iter().map(|s| s.population_mean).collect();
    assert_eq!(populations, vec![Some(10.0), Some(10.0)]);
}

/// A delay switch at the instant of the device's Bye comes first, so the
/// Bye leaves under the new model: every verdict lands exactly 5 ms after
/// it. One nanosecond later, the Bye still meets the old 1 ms delay.
#[test]
fn a_message_sent_at_a_delay_switch_meets_the_new_model() {
    let bye = 30.0;
    let verdicts = |switch_ns: u64| {
        let mut cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 5, 60.0, 3);
        cfg.delay = DelayKind::Constant(0.001);
        let mut spec = ScenarioSpec::new("bye-at-switch", "Bye at a delay switch", cfg);
        spec.switches = vec![Switch {
            at: (SimTime::from_secs_f64(bye).as_nanos() + switch_ns) as f64 / 1e9,
            to: Regime::Delay(DelayKind::Constant(0.005)),
        }];
        spec.bye_at = Some(bye);
        let result = run_spec_once(&spec).expect("runs");
        let verdicts: Vec<u64> = result
            .cps
            .iter()
            .map(|cp| SimTime::from_secs_f64(cp.detected_absent_at.expect("Bye seen")).as_nanos())
            .collect();
        assert_eq!(verdicts.len(), 5);
        verdicts
    };
    let at = |delay_ms: u64| SimTime::from_secs_f64(bye).as_nanos() + delay_ms * 1_000_000;
    assert_eq!(verdicts(0), vec![at(5); 5], "switch at the Bye");
    assert_eq!(verdicts(1), vec![at(1); 5], "switch 1 ns after the Bye");
}

//! End-to-end pins for the presence-trace pipeline: a scenario must
//! export a Perfetto-loadable Chrome JSON trace with actor tracks, probe
//! flow events, and counter tracks, deterministically and matching the
//! recorded fixture byte for byte.

use presence::des::SimTime;
use presence::sim::{
    run_lab, slice_trace, ChurnModel, Protocol, Regime, RegimeSlice, Scenario, ScenarioConfig,
};
use presence::trace::{
    analyze, parse, validate, write_chrome_json, EngineEventKind, PointKind, TraceModel,
};

/// The full pipeline on a paper-default DCPP hub: model → Chrome JSON →
/// parse → validate → spotter analytics.
#[test]
fn hub_trace_exports_and_validates() {
    let cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 10, 60.0, 42);
    let mut scenario = Scenario::build(cfg);
    scenario.enable_trace(None, true);
    scenario.run();
    let result = scenario.collect();
    let model = scenario.collect_trace(&result);

    // One track per actor: network, device, 10 CPs, churn.
    assert_eq!(model.tracks.len(), 1 + 1 + 10 + 1);
    assert!(!model.engine.is_empty(), "engine stream was requested");

    let json = write_chrome_json(&model);
    let trace = parse(&json).expect("exported trace parses");
    let check = validate(&trace).unwrap_or_else(|e| panic!("exported trace invalid: {e}"));
    assert_eq!(check.tracks, model.tracks.len());
    assert!(check.flows_started > 0, "no probe cycles traced");
    assert!(
        check.flows_finished > 0 && check.flows_finished <= check.flows_started,
        "reply flows inconsistent ({} started, {} finished)",
        check.flows_started,
        check.flows_finished
    );
    assert!(
        check.counter_tracks >= 3,
        "want >= 3 counter tracks, got {}",
        check.counter_tracks
    );
    for name in [
        "device.load",
        "population",
        "cp0.frequency",
        "net0.in_flight",
    ] {
        assert!(
            trace.events.iter().any(|e| e.ph == "C" && e.name == name),
            "missing counter track `{name}`"
        );
    }

    let report = analyze(&trace, 5);
    assert_eq!(report.busiest.len(), 5);
    assert_eq!(report.cycles_started, check.flows_started);
    assert_eq!(report.cycles_completed, check.flows_finished);
    let latency = report
        .cycle_latency
        .expect("completed cycles give percentiles");
    assert!(latency.p50 > 0.0 && latency.p50 <= latency.p99);
}

/// Rendering the collected model is deterministic: two identical runs
/// export byte-identical JSON.
#[test]
fn trace_export_is_deterministic() {
    let export = || {
        let cfg = ScenarioConfig::paper_defaults(Protocol::sapp_paper(), 4, 30.0, 9);
        let mut scenario = Scenario::build(cfg);
        scenario.enable_trace(Some(20.0), true);
        scenario.run();
        let result = scenario.collect();
        write_chrome_json(&scenario.collect_trace(&result))
    };
    assert_eq!(export(), export());
}

/// The exported trace of the paper-default DCPP catalog entry matches
/// the recorded fixture bit-for-bit (regenerate with the
/// `golden_fixtures` bin when the trace format legitimately changes).
#[test]
fn paper_dcpp_trace_matches_golden_fixture() {
    let spec = presence::sim::builtin_catalog()
        .into_iter()
        .find(|s| s.name == "paper-dcpp")
        .expect("paper-dcpp is in the builtin catalog");
    let mut scenario = spec.build().expect("spec builds");
    scenario.enable_trace(Some(10.0), false);
    scenario.run();
    let result = scenario.collect();
    let json = write_chrome_json(&scenario.collect_trace(&result));

    let path = format!(
        "{}/tests/golden/trace-paper-dcpp.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("fixture {path} unreadable ({e}); regenerate with the golden_fixtures bin")
    });
    assert!(
        json == golden,
        "trace format drifted from tests/golden/trace-paper-dcpp.json \
         ({} vs {} bytes); regenerate with the golden_fixtures bin if intended",
        json.len(),
        golden.len()
    );
    // The fixture itself must stay a valid trace.
    let check = validate(&parse(&golden).expect("fixture parses")).expect("fixture validates");
    assert!(check.flows_started > 0 && check.counter_tracks >= 3);
}

/// Runs the builtin catalog entry `name` over its whole horizon with the
/// engine stream on; returns the model and the run's event count.
fn engine_traced(name: &str) -> (TraceModel, u64) {
    let spec = presence::sim::builtin_catalog()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} is in the builtin catalog"));
    let mut scenario = spec.build().expect("spec builds");
    scenario.enable_trace(None, true);
    scenario.run();
    let result = scenario.collect();
    (scenario.collect_trace(&result), result.events_processed)
}

fn count(model: &TraceModel, actor: Option<usize>, kind: EngineEventKind) -> usize {
    model
        .engine
        .iter()
        .filter(|e| e.kind == kind && actor.is_none_or(|a| e.actor == a))
        .count()
}

/// The engine stream sees every delivery and every protocol timer. Every
/// processed event is one delivery, so the dispatch hook records exactly
/// one `Dispatch` per processed event, with and without churn; every timer
/// a CP armed was cancelled, fired, or is its one timer still live at the
/// horizon.
#[test]
fn paper_dcpp_engine_trace_sees_protocol_timers() {
    let (model, events) = engine_traced("paper-dcpp");
    let dispatches = count(&model, None, EngineEventKind::Dispatch);
    assert_eq!(
        dispatches as u64, events,
        "one dispatch per processed event"
    );
    let cps: Vec<usize> = model
        .tracks
        .iter()
        .filter(|t| t.name.starts_with("cp"))
        .filter_map(|t| t.actor)
        .collect();
    assert!(!cps.is_empty(), "no CP tracks");
    assert!(
        count(&model, None, EngineEventKind::TimerFire) > 0,
        "no timer fires"
    );
    for cp in cps {
        let arms = count(&model, Some(cp), EngineEventKind::TimerArm);
        let cancels = count(&model, Some(cp), EngineEventKind::TimerCancel);
        let fires = count(&model, Some(cp), EngineEventKind::TimerFire);
        let live = arms.checked_sub(cancels + fires).unwrap_or_else(|| {
            panic!("actor {cp}: {cancels} cancels + {fires} fires > {arms} arms")
        });
        assert!(live <= 1, "actor {cp}: {live} timers live at the horizon");
    }
    assert!(
        model
            .engine
            .windows(2)
            .all(|w| (w[0].time_ns, w[0].actor) <= (w[1].time_ns, w[1].actor)),
        "engine stream out of (time, actor) order"
    );

    let (model, events) = engine_traced("paper-churn");
    let dispatches = count(&model, None, EngineEventKind::Dispatch);
    assert_eq!(
        dispatches as u64, events,
        "one dispatch per processed event under churn"
    );
}

/// Every regime switch is one engine event: the engine stream holds
/// exactly one `Dispatch` on the network actor at each delay or loss
/// switch, and one on the churn actor at each churn switch — two when the
/// new model is a flash crowd starting at that very instant, which fires
/// its own start right after the switch.
#[test]
fn every_regime_switch_is_one_dispatch_on_its_actor() {
    let spec = presence::sim::builtin_catalog()
        .into_iter()
        .find(|s| s.name == "mixed-regime-stress")
        .expect("mixed-regime-stress is in the builtin catalog");
    let (model, _) = engine_traced("mixed-regime-stress");
    let track = |name: &str| {
        model
            .tracks
            .iter()
            .find(|t| t.name == name)
            .and_then(|t| t.actor)
            .unwrap_or_else(|| panic!("no {name} track"))
    };
    let (net, churn) = (track("net0"), track("churn"));
    for switch in &spec.switches {
        let at = SimTime::from_secs_f64(switch.at).as_nanos();
        let (actor, expected) = match switch.to {
            Regime::Delay(_) | Regime::Loss(_) => (net, 1),
            Regime::Churn(ChurnModel::FlashCrowd { at: start, .. }) if start == switch.at => {
                (churn, 2)
            }
            Regime::Churn(_) => (churn, 1),
        };
        let dispatches = (model.engine.iter())
            .filter(|e| e.kind == EngineEventKind::Dispatch && e.time_ns == at && e.actor == actor)
            .count();
        assert_eq!(
            dispatches, expected,
            "switch at {} s to {:?}",
            switch.at, switch.to
        );
    }
}

/// `spotter` reads a run back from its trace into the regime windows
/// `lab` reports for that run: the same windows, starts and ends, and
/// every figure equal at the precision `lab` prints (load 2 decimals,
/// Jain 3, population 1, latency 3, verdict count exact). The three runs
/// switch every regime kind, cut a window at a loss-only partition, and
/// anchor a detection latency on a crash.
#[test]
fn spotter_reads_labs_windows_from_the_trace() {
    let printed = |s: &RegimeSlice| {
        let at = |v: Option<f64>, places: usize| v.map(|v| format!("{v:.places$}"));
        (
            at(s.load_mean, 2),
            at(s.fairness_jain, 3),
            at(s.population_mean, 1),
            s.detections,
            at(s.detection_latency_mean, 3),
        )
    };
    for name in [
        "mixed-regime-stress",
        "partition-recovery",
        "crash-under-loss",
    ] {
        let mut spec = presence::sim::builtin_catalog()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} is in the builtin catalog"));
        let lab = run_lab(&spec, &[1], 1).expect("lab runs");
        spec.config.seed = 1;
        let mut scenario = spec.build().expect("spec builds");
        scenario.enable_trace(None, false);
        scenario.run();
        let result = scenario.collect();
        let json = write_chrome_json(&scenario.collect_trace(&result));
        let trace = parse(&json).expect("exported trace parses");
        let slices = slice_trace(&analyze(&trace, 1).run).expect("the trace marks its end");

        let windows: Vec<(f64, f64)> = slices.iter().map(|s| (s.start, s.end)).collect();
        assert_eq!(windows, lab.windows, "{name}: spotter's windows vs lab's");
        for (read, ran) in slices.iter().zip(&lab.slices) {
            assert_eq!(
                printed(read),
                printed(ran),
                "{name}: window {:?}, spotter vs lab",
                (read.start, read.end)
            );
        }
    }
}

/// A trace cap (`lab --trace-until`) ends the traced run: the timeline
/// keeps the switches before the cap and marks the run's end at it, and
/// `spotter`'s last window closes there. A switch at the cap itself would
/// open an empty window, so the timeline leaves it out too.
#[test]
fn a_trace_cap_ends_the_run_timeline() {
    let spec = presence::sim::builtin_catalog()
        .into_iter()
        .find(|s| s.name == "mixed-regime-stress")
        .expect("mixed-regime-stress is in the builtin catalog");
    let ns = |secs: u64| secs * 1_000_000_000;
    for (cap, switches, windows) in [
        (
            260,
            vec![200, 250],
            vec![(0.0, 200.0), (200.0, 250.0), (250.0, 260.0)],
        ),
        (250, vec![200], vec![(0.0, 200.0), (200.0, 250.0)]),
    ] {
        let mut scenario = spec.build().expect("spec builds");
        scenario.enable_trace(Some(cap as f64), false);
        scenario.run();
        let result = scenario.collect();
        let model = scenario.collect_trace(&result);
        let marks: Vec<(u64, PointKind)> = (model.points.iter())
            .filter(|p| {
                matches!(
                    p.kind,
                    PointKind::RegimeSwitch | PointKind::Failure | PointKind::RunEnd
                )
            })
            .map(|p| (p.time_ns, p.kind))
            .collect();
        let mut expected: Vec<(u64, PointKind)> = (switches.into_iter())
            .map(|at| (ns(at), PointKind::RegimeSwitch))
            .collect();
        expected.push((ns(cap), PointKind::RunEnd));
        assert_eq!(marks, expected, "cap {cap} s: the timeline marks");

        let trace = parse(&write_chrome_json(&model)).expect("exported trace parses");
        let slices = slice_trace(&analyze(&trace, 1).run).expect("the trace marks its end");
        let read: Vec<(f64, f64)> = slices.iter().map(|s| (s.start, s.end)).collect();
        assert_eq!(read, windows, "cap {cap} s: spotter's windows");
    }
}

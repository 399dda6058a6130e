//! The golden replay suite: every recorded fixture under `tests/golden/`
//! (`sapp`, `dcpp`, `churn`, `lab-mixed`) must replay bit-for-bit through
//! [`Scenario`].
//!
//! The fixtures are full `ScenarioResult` dumps recorded **before** the
//! typed-dispatch + timer-slot rewrite (PR 5), so a divergence is a
//! changed trajectory, never fixture drift. Every metric must match,
//! **including `events_processed`**: dispatch and timer refactors must not
//! change what is scheduled.
//!
//! Regenerate with `cargo run --release -p presence-bench --bin
//! golden_fixtures` — but only in a PR that *intends* a trajectory (or
//! event-count) change, and say so there.

use presence::sim::{builtin_catalog, golden_trio, Scenario, ScenarioResult};

/// The recorded result, as canonical JSON plus its event count. Compared
/// as JSON, not structs: never-active CPs carry NaN metrics (serialised
/// as null), and NaN ≠ NaN would fail a field-level comparison of two
/// bit-identical trajectories.
fn fixture(name: &str) -> (String, u64) {
    let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("fixture {path} unreadable ({e}); regenerate with the golden_fixtures bin")
    });
    let golden: ScenarioResult = serde_json::from_str(&text).expect("fixture deserialises");
    (
        serde_json::to_string(&golden).expect("golden serialises"),
        golden.events_processed,
    )
}

/// Runs `scenario` and compares the result with the fixture recorded for
/// `name`.
fn replay(name: &str, mut scenario: Scenario) {
    let (golden, golden_events) = fixture(name);
    scenario.run();
    let result = scenario.collect();

    assert_eq!(
        result.messages_unroutable, 0,
        "{name}: messages went unroutable"
    );
    assert_eq!(
        result.events_processed, golden_events,
        "{name}: events_processed diverged from the recorded run"
    );
    assert_eq!(
        serde_json::to_string(&result).expect("result serialises"),
        golden,
        "{name}: trajectory diverged from the recorded run"
    );
}

/// Typed dispatch, inline timer slots and every engine refactor since
/// must leave the trio's recorded trajectories untouched.
#[test]
fn typed_dispatch_preserves_golden_trio_trajectories() {
    for (name, cfg) in golden_trio() {
        replay(name, Scenario::build(cfg));
    }
}

/// …and the regime-switching lab trajectory — mid-run churn-model
/// switches (`SetChurn`), staggered wave events, `Scheduled` delay/loss —
/// which rides engine paths the paper trio never touches.
#[test]
fn typed_dispatch_preserves_mixed_regime_lab_trajectory() {
    let spec = builtin_catalog()
        .into_iter()
        .find(|s| s.name == "mixed-regime-stress")
        .expect("mixed-regime-stress is in the builtin catalog");
    replay("lab-mixed", spec.build().expect("spec builds"));
}

/// The events_processed acceptance record for the single-hop refactor,
/// against the counts the **pre-refactor** engine produced for the trio
/// (hard-coded, not read from the fixtures: the fixtures are regenerated
/// whenever a PR intends a trajectory change, while these baselines are a
/// historical fact of the 3-events-per-message engine). A regression that
/// re-adds per-message hops pushes the counts back up and fails here.
#[test]
fn single_hop_fast_path_cuts_events_processed_by_a_quarter() {
    // Recorded at the PR 3 boundary (see CHANGES.md).
    let pre_refactor_events = [("sapp", 14_552u64), ("dcpp", 24_200), ("churn", 47_512)];
    for (name, cfg) in golden_trio() {
        let (_, baseline) = *pre_refactor_events
            .iter()
            .find(|(n, _)| *n == name)
            .expect("trio name has a recorded baseline");
        let mut scenario = Scenario::build(cfg);
        scenario.run();
        let events = scenario.collect().events_processed;
        assert!(
            (events as f64) <= 0.75 * baseline as f64,
            "{name}: events_processed {events} did not drop ≥ 25% from the \
             pre-refactor {baseline}"
        );
    }
}

/// The events-per-delivered-message ≤ 2 (+ drop/in-flight share) contract,
/// on the same trio the fixtures pin.
#[test]
fn golden_trio_meets_two_events_per_message_contract() {
    for (name, cfg) in golden_trio() {
        let mut scenario = Scenario::build(cfg);
        scenario.run();
        let result = scenario.collect();
        let epm = result
            .events_per_delivered_message()
            .expect("trio delivers messages");
        assert!(
            epm <= 2.05,
            "{name}: events-per-delivered-message {epm} exceeds the 2.05 gate"
        );
    }
}

//! The golden replay suite: every recorded fixture under `tests/golden/`
//! (`sapp`, `dcpp`, `churn`, `lab-mixed`) must replay bit-for-bit through
//! [`Scenario`], and so must the catalog entries that state the trio as
//! specs (`paper-sapp`, `paper-dcpp`, `paper-churn`).
//!
//! The fixtures are full `ScenarioResult` dumps recorded **before** the
//! typed-dispatch + timer-slot rewrite (PR 5), so a divergence is a
//! changed trajectory, never fixture drift. Every metric must match,
//! **including `events_processed`**: dispatch and timer refactors must not
//! change what is scheduled. A divergence names the first differing line
//! of the pretty-printed result, with both sides.
//!
//! Regenerate with `cargo run --release -p presence-bench --bin
//! golden_fixtures` — but only in a PR that *intends* a trajectory (or
//! event-count) change, and say so there.

use presence::sim::{builtin_catalog, golden_trio, Scenario, ScenarioResult};

/// The recorded result, pretty-printed. Compared as JSON, not structs:
/// never-active CPs carry NaN metrics (serialised as null), and NaN ≠ NaN
/// would fail a field-level comparison of two bit-identical trajectories.
fn fixture(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("fixture {path} unreadable ({e}); regenerate with the golden_fixtures bin")
    });
    let golden: ScenarioResult = serde_json::from_str(&text).expect("fixture deserialises");
    serde_json::to_string_pretty(&golden).expect("golden serialises")
}

/// Panics at the first line where two pretty-printed results differ,
/// naming the line and showing both sides.
fn assert_same_lines(label: &str, replayed: &str, golden: &str) {
    let (mut replayed, mut golden) = (replayed.lines(), golden.lines());
    for line in 1.. {
        match (replayed.next(), golden.next()) {
            (None, None) => return,
            (r, g) if r == g => {}
            (r, g) => panic!(
                "{label}: trajectory diverged from the recorded run at line {line} of the \
                 pretty-printed result\n  replayed: {}\n  golden:   {}",
                r.unwrap_or("<end of result>"),
                g.unwrap_or("<end of fixture>")
            ),
        }
    }
}

/// Runs `scenario` and compares the result with `golden`, a recorded
/// [`fixture`]; `label` names the run in a failure.
fn replay(label: &str, golden: &str, mut scenario: Scenario) -> ScenarioResult {
    scenario.run();
    let result = scenario.collect();
    assert_eq!(
        result.messages_unroutable, 0,
        "{label}: messages went unroutable"
    );
    let replayed = serde_json::to_string_pretty(&result).expect("result serialises");
    assert_same_lines(label, &replayed, golden);
    result
}

/// Events each trio scenario processed on the engine before the
/// single-hop refactor, which spent three events per message (CHANGES.md
/// records the run). Hard-coded, not read from the fixtures: the fixtures
/// are regenerated whenever a change intends a different trajectory,
/// while these are a historical fact.
const PRE_SINGLE_HOP_EVENTS: [(&str, u64); 3] =
    [("sapp", 14_552), ("dcpp", 24_200), ("churn", 47_512)];

/// Typed dispatch, inline timer slots and every engine refactor since
/// must leave the trio's recorded trajectories untouched, whether a run is
/// built from `golden_trio()` or lowered from its `paper-*` catalog entry.
/// Each replayed run must also keep the single-hop fast path's two
/// records: at most 0.75 × the pre-refactor event count (a regression that
/// re-adds per-message hops pushes it back up), and at most 2.05 engine
/// events per delivered message.
#[test]
fn typed_dispatch_preserves_golden_trio_trajectories() {
    let catalog = builtin_catalog();
    for (name, cfg) in golden_trio() {
        let golden = fixture(name);
        let entry = format!("paper-{name}");
        let spec = catalog
            .iter()
            .find(|s| s.name == entry)
            .unwrap_or_else(|| panic!("catalog entry {entry} missing"));
        let (_, baseline) = PRE_SINGLE_HOP_EVENTS
            .into_iter()
            .find(|&(n, _)| n == name)
            .expect("trio name has a recorded baseline");
        for (label, scenario) in [
            (name, Scenario::build(cfg)),
            (entry.as_str(), spec.build().expect("paper spec builds")),
        ] {
            let result = replay(label, &golden, scenario);
            let events = result.events_processed;
            assert!(
                (events as f64) <= 0.75 * baseline as f64,
                "{label}: events_processed {events} did not drop ≥ 25% from the \
                 pre-refactor {baseline}"
            );
            let epm = result
                .events_per_delivered_message()
                .expect("trio delivers messages");
            assert!(
                epm <= 2.05,
                "{label}: events-per-delivered-message {epm} exceeds the 2.05 gate"
            );
        }
    }
}

/// …and the regime-switching lab trajectory — mid-run delay, loss and
/// churn switches (`SimEvent::Switch`), staggered wave events — which
/// rides engine paths the paper trio never touches.
#[test]
fn typed_dispatch_preserves_mixed_regime_lab_trajectory() {
    let spec = builtin_catalog()
        .into_iter()
        .find(|s| s.name == "mixed-regime-stress")
        .expect("mixed-regime-stress is in the builtin catalog");
    replay(
        "mixed-regime-stress",
        &fixture("lab-mixed"),
        spec.build().expect("spec builds"),
    );
}

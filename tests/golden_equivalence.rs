//! The golden replay suite: every recorded fixture under `tests/golden/`
//! must replay bit-for-bit through the one [`Scenario`], on the topology
//! it was recorded on, at every region count, worker count, and window
//! policy the engine offers.
//!
//! | topology | fixtures | swept |
//! |----------|----------|-------|
//! | [`Topology::Hub`] | `sapp`, `dcpp`, `churn`, `lab-mixed` | — (one region by construction) |
//! | [`Topology::Planes`] | `decomposed-*` of the same four | regions {1, 2, 4, 8} × workers {1, 4} × window policy |
//!
//! The fixtures are full `ScenarioResult` dumps recorded on one region
//! (one engine lane) — the hub ones **before** the typed-dispatch +
//! timer-slot rewrite (PR 5) — so a divergence on a multi-region row is a
//! barrier-ordering or lookahead bug, and one on a one-region row a
//! changed trajectory; never fixture drift. Every metric must match,
//! **including `events_processed`**: dispatch and timer refactors must not
//! change what is scheduled.
//!
//! Regenerate with `cargo run --release -p presence-bench --bin
//! golden_fixtures` — but only in a PR that *intends* a trajectory (or
//! event-count) change, and say so there.

use presence::des::WindowPolicy;
use presence::sim::{builtin_catalog, golden_trio, Scenario, ScenarioResult, Topology};

/// One row of the sweep: where the scenario runs and how its windows
/// (when it has more than one region) are driven.
#[derive(Debug, Clone, Copy)]
struct Row {
    topology: Topology,
    workers: usize,
    policy: WindowPolicy,
}

/// A one-region row, where workers and window policy have nothing to act
/// on.
fn sequential(topology: Topology) -> Row {
    Row {
        topology,
        workers: 1,
        policy: WindowPolicy::default(),
    }
}

/// The hub is one region: nothing to sweep.
fn hub_rows() -> Vec<Row> {
    vec![sequential(Topology::Hub)]
}

/// Regions {1, 2, 4, 8} × workers {1, 4} × both window policies; the
/// one-region case has no windows and so contributes a single row.
fn planes_rows() -> Vec<Row> {
    let mut rows = vec![sequential(Topology::Planes { regions: 1 })];
    for regions in [2usize, 4, 8] {
        for workers in [1usize, 4] {
            for policy in [WindowPolicy::Adaptive, WindowPolicy::Static] {
                rows.push(Row {
                    topology: Topology::Planes { regions },
                    workers,
                    policy,
                });
            }
        }
    }
    rows
}

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

/// Replays the scenario `build` produces on every row and compares each
/// run with the fixture recorded for `name` on that topology.
fn replay(name: &str, rows: &[Row], build: &dyn Fn(Topology) -> Scenario) {
    let on_planes = matches!(rows[0].topology, Topology::Planes { .. });
    let fixture_name = if on_planes {
        format!("decomposed-{name}")
    } else {
        name.to_string()
    };
    let (golden, golden_events) = fixture(&fixture_name);

    for row in rows {
        let mut scenario = build(row.topology);
        scenario.set_workers(row.workers);
        scenario.set_window_policy(row.policy);
        scenario.run();
        let result = scenario.collect();

        assert_eq!(
            result.messages_unroutable, 0,
            "{fixture_name} {row:?}: messages went unroutable"
        );
        assert_eq!(
            result.events_processed, golden_events,
            "{fixture_name} {row:?}: events_processed diverged from the recorded run"
        );
        assert_eq!(
            serde_json::to_string(&result).expect("result serialises"),
            golden,
            "{fixture_name} {row:?}: trajectory diverged from the recorded run"
        );

        // The row ran the way it claims: a multi-region row really
        // planned its cut (with the lookahead as evidence), executed
        // windows and exchanged events across them; a one-region row ran
        // none; only the multi-plane network relays.
        let plan = scenario.region_plan();
        match row.topology {
            Topology::Planes { regions } if regions > 1 => {
                assert_eq!(plan.effective, regions, "{fixture_name}: {}", plan.reason);
                assert!(plan.reason.contains("lookahead"), "{}", plan.reason);
                let (windows, exchanges, _) = scenario.region_counters().expect("several regions");
                assert!(windows > 0, "{fixture_name} {row:?}: no windows executed");
                assert!(
                    exchanges > 0,
                    "{fixture_name} {row:?}: no cross-region events exchanged"
                );
            }
            _ => {
                assert_eq!(plan.effective, 1, "{fixture_name}: {}", plan.reason);
                assert!(scenario.region_counters().is_none());
            }
        }
        assert_eq!(
            scenario.relays_forwarded() > 0,
            on_planes,
            "{fixture_name} {row:?}: cross-plane relays"
        );
    }
}

fn replay_trio(rows: &[Row]) {
    for (name, cfg) in golden_trio() {
        replay(name, rows, &|topology| Scenario::build_on(cfg, topology));
    }
}

/// The regime-switching lab spec: mid-run churn-model switches
/// (`SetChurn`), staggered wave events, and per-plane `Scheduled`
/// delay/loss instances that must stay in lockstep with the recorded
/// single-instance run.
fn replay_lab(rows: &[Row]) {
    let spec = builtin_catalog()
        .into_iter()
        .find(|s| s.name == "mixed-regime-stress")
        .expect("mixed-regime-stress is in the builtin catalog");
    replay("lab-mixed", rows, &|topology| {
        spec.build_on(topology).expect("spec builds")
    });
}

/// Typed dispatch, inline timer slots and every engine refactor since
/// must leave the hub trio's recorded trajectories untouched.
#[test]
fn typed_dispatch_preserves_golden_trio_trajectories() {
    replay_trio(&hub_rows());
}

/// …and the regime-switching lab trajectory, which rides engine paths the
/// paper trio never touches.
#[test]
fn typed_dispatch_preserves_mixed_regime_lab_trajectory() {
    replay_lab(&hub_rows());
}

/// The soundness pin for the multi-plane topology: fixtures recorded on
/// one region must replay window by window at every region count, worker
/// count and window policy.
#[test]
fn decomposed_trio_replays_on_every_regioned_row() {
    replay_trio(&planes_rows());
}

#[test]
fn decomposed_lab_replays_on_every_regioned_row() {
    replay_lab(&planes_rows());
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

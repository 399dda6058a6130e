//! Regenerates the golden-trajectory fixtures under `tests/golden/`.
//!
//! Each fixture is the full `ScenarioResult` JSON of one pinned scenario:
//! the three `golden_trio()` presets plus the `mixed-regime-stress` lab
//! spec (a regime-switching churn trajectory that exercises the
//! `Scheduled` network models, the churn actor's own regime switches,
//! and every churn generator — the coverage the paper trio lacks).
//!
//! The replay suite (`tests/golden_equivalence.rs`) asserts
//! **every** metric, `events_processed` included: since the PR 5 typed
//! dispatch rewrite, engine refactors are expected to preserve event
//! counts exactly, so a changed count is a changed trajectory. A PR that
//! legitimately changes counts (a new event-collapsing fast path) must
//! regenerate the fixtures and say so.
//!
//! Usage: `cargo run --release -p presence-bench --bin golden_fixtures
//! [OUT_DIR]` (writes into `tests/golden/` relative to the workspace root
//! unless given a directory; an argument starting with `-` exits 1).

use presence_bench::exit_bad_argument;
use presence_sim::{builtin_catalog, golden_trio, run_spec_once, Scenario, ScenarioResult};
use std::path::PathBuf;

/// The lab spec pinned alongside the trio: delay, loss and churn switches,
/// shared with the shipped catalog.
const LAB_FIXTURE_SPEC: &str = "mixed-regime-stress";

/// The scenario pinned as a Chrome JSON trace fixture
/// (`trace-paper-dcpp.json`) — the paper-default DCPP catalog entry.
const TRACE_FIXTURE_SPEC: &str = "paper-dcpp";

/// Horizon cap (virtual seconds) of the trace fixture: long enough for
/// several probe cycles per CP, short enough to keep the fixture small.
const TRACE_FIXTURE_UNTIL: f64 = 10.0;

fn write_fixture(out_dir: &std::path::Path, name: &str, result: &ScenarioResult) {
    let json = serde_json::to_string_pretty(result).expect("result serialises");
    let path = out_dir.join(format!("{name}.json"));
    std::fs::write(&path, json).expect("write fixture");
    println!(
        "{}: {} events, {} probes -> {}",
        name,
        result.events_processed,
        result.device_probes,
        path.display()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = match args.as_slice() {
        [] => PathBuf::from("tests/golden"),
        [dir] if !dir.starts_with('-') => PathBuf::from(dir),
        _ => exit_bad_argument(
            "golden_fixtures",
            &format!("usage: golden_fixtures [OUT_DIR], got {args:?}"),
        ),
    };
    std::fs::create_dir_all(&out_dir).expect("create fixture directory");
    for (name, cfg) in golden_trio() {
        let mut scenario = Scenario::build(cfg);
        scenario.run();
        write_fixture(&out_dir, name, &scenario.collect());
    }
    let spec = builtin_catalog()
        .into_iter()
        .find(|s| s.name == LAB_FIXTURE_SPEC)
        .expect("lab fixture spec is in the builtin catalog");
    let result = run_spec_once(&spec).expect("lab fixture spec runs");
    write_fixture(&out_dir, "lab-mixed", &result);

    // The Chrome JSON trace fixture: the full export pipeline on the
    // paper-default DCPP entry, horizon-capped, pinned byte-for-byte by
    // `tests/trace_export.rs`. A legitimate format change (new track,
    // renamed counter, different float rendering) must regenerate this
    // and say so.
    let trace_spec = builtin_catalog()
        .into_iter()
        .find(|s| s.name == TRACE_FIXTURE_SPEC)
        .expect("trace fixture spec is in the builtin catalog");
    let mut traced = trace_spec.build().expect("trace fixture spec builds");
    traced.enable_trace(Some(TRACE_FIXTURE_UNTIL), false);
    traced.run();
    let result = traced.collect();
    let json = presence_trace::write_chrome_json(&traced.collect_trace(&result));
    let path = out_dir.join(format!("trace-{TRACE_FIXTURE_SPEC}.json"));
    std::fs::write(&path, &json).expect("write trace fixture");
    println!(
        "trace-{TRACE_FIXTURE_SPEC}: {} bytes (first {TRACE_FIXTURE_UNTIL} s) -> {}",
        json.len(),
        path.display()
    );
}

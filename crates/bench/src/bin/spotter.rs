//! The trace inspector: read a Chrome JSON trace exported by
//! `lab --trace` back in, check its structural invariants, and print the
//! terminal digest — busiest actors, the run's regime windows, and
//! probe-cycle latency percentiles.
//!
//! The windows are `lab`'s own: cut at the regime switches and closed at
//! the run's end that the trace marks (both fixed by the run's spec),
//! sliced by the lab's fold (`presence_sim::slice_trace`) from the trace's
//! counter tracks and verdict instants, and printed by `lab`'s table
//! printer. On a trace of a whole run (`lab <entry> --seeds N --trace`)
//! they read as `lab <entry> --seeds N` prints them; a `--trace-until`
//! cap ends the last window at the cap.
//!
//! ```text
//! spotter out.json            # validate + full digest (top 10 actors)
//! ```
//!
//! Exit status: 0 when the trace parses and validates, 1 otherwise — the
//! CI trace stage relies on this.

use presence_bench::{out, outln, windows_table};
use presence_sim::slice_trace;
use presence_trace::{analyze, parse, validate};
use std::process::ExitCode;

/// Busiest tracks the digest lists.
const TOP: usize = 10;

fn run(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let trace = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let check = validate(&trace).map_err(|e| format!("{path}: invalid trace: {e}"))?;
    outln!(
        "{path}: {} events · {} tracks · {} slices · {} instants · {} counter tracks",
        check.events,
        check.tracks,
        check.slices,
        check.instants,
        check.counter_tracks
    );

    let report = analyze(&trace, TOP);

    outln!("\nbusiest actors (slices + instants):");
    if report.busiest.is_empty() {
        outln!("  (none)");
    }
    for (name, activity) in &report.busiest {
        outln!("  {name:<16} {activity:>8}");
    }

    outln!("\nregime windows:");
    match slice_trace(&report.run) {
        Some(slices) => out!("{}", windows_table(&slices)),
        None => outln!("  (none — the trace marks no run end)"),
    }

    outln!(
        "\nprobe cycles: {} started, {} completed",
        report.cycles_started,
        report.cycles_completed
    );
    match report.cycle_latency {
        Some(p) => outln!(
            "cycle latency: p50 {:.1} µs · p90 {:.1} µs · p99 {:.1} µs",
            p.p50,
            p.p90,
            p.p99
        ),
        None => outln!("cycle latency: no completed cycles in the trace"),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            other if other.starts_with("--") => {
                eprintln!("spotter: unknown flag {other}");
                return ExitCode::FAILURE;
            }
            other => path = Some(other.to_string()),
        }
    }
    let Some(path) = path else {
        eprintln!("usage: spotter <trace.json>");
        return ExitCode::FAILURE;
    };
    match run(&path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spotter: {e}");
            ExitCode::FAILURE
        }
    }
}

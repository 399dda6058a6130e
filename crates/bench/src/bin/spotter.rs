//! The trace inspector: read a Chrome JSON trace exported by
//! `lab --trace` back in, check its structural invariants, and print the
//! terminal digest — busiest actors, the regime-switch timeline,
//! per-phase fairness, and probe-cycle latency percentiles.
//!
//! ```text
//! spotter out.json            # validate + full digest (top 10 actors)
//! spotter out.json --top 5    # keep the 5 busiest actors
//! ```
//!
//! Exit status: 0 when the trace parses and validates, 1 otherwise — the
//! CI trace stage relies on this.

use presence_trace::{analyze, parse, validate};
use std::process::ExitCode;

fn us_to_s(us: f64) -> f64 {
    us / 1e6
}

fn run(path: &str, top_n: usize) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let trace = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let check = validate(&trace).map_err(|e| format!("{path}: invalid trace: {e}"))?;
    println!(
        "{path}: {} events · {} tracks · {} slices · {} instants · {} counter tracks",
        check.events, check.tracks, check.slices, check.instants, check.counter_tracks
    );

    let report = analyze(&trace, top_n);

    println!("\nbusiest actors (slices + instants):");
    if report.busiest.is_empty() {
        println!("  (none)");
    }
    for (name, activity) in &report.busiest {
        println!("  {name:<16} {activity:>8}");
    }

    println!("\nregime switches:");
    if report.regime_switches.is_empty() {
        println!("  (none — single-regime run)");
    }
    for (ts, ordinal) in &report.regime_switches {
        println!("  #{ordinal:<3} at {:>10.3} s", us_to_s(*ts));
    }

    println!("\nper-phase fairness (Jain over per-CP probe frequency):");
    for phase in &report.phases {
        let jain = phase
            .jain
            .map_or_else(|| "    —".to_string(), |j| format!("{j:.3}"));
        println!(
            "  {:>10.3} s .. {:>10.3} s   {jain}",
            us_to_s(phase.begin_us),
            us_to_s(phase.end_us)
        );
    }

    println!(
        "\nprobe cycles: {} started, {} completed",
        report.cycles_started, report.cycles_completed
    );
    match report.cycle_latency {
        Some(p) => println!(
            "cycle latency: p50 {:.1} µs · p90 {:.1} µs · p99 {:.1} µs",
            p.p50, p.p90, p.p99
        ),
        None => println!("cycle latency: no completed cycles in the trace"),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut top_n = 10usize;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => top_n = n,
                _ => {
                    eprintln!("spotter: --top takes a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            other if other.starts_with("--") => {
                eprintln!("spotter: unknown flag {other}");
                return ExitCode::FAILURE;
            }
            other => path = Some(other.to_string()),
        }
    }
    let Some(path) = path else {
        eprintln!("usage: spotter <trace.json> [--top N]");
        return ExitCode::FAILURE;
    };
    match run(&path, top_n) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spotter: {e}");
            ExitCode::FAILURE
        }
    }
}

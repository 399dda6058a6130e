//! Bounded-memory smoke test for the mega-scale path: runs one mega
//! catalog scenario (default `mega-ci`: 10⁵ devices on the calendar queue
//! with streaming recorders) and fails if the process high-water RSS
//! exceeds the budget — the guard that the struct-of-arrays shard and
//! streaming recorders actually hold memory flat, not just that they
//! finish.
//!
//! ```text
//! mega_smoke                 # run mega-ci, assert VmHWM < 512 MiB
//! mega_smoke mega-1m         # any mega catalog name (`lab --list` shows them)
//! mega_smoke --budget-mb N   # override the budget (512 is sized for mega-ci)
//! ```
//!
//! The RSS probe reads `/proc/self/status` (Linux). Where that is absent
//! the run still validates the protocol invariants and reports throughput,
//! skipping only the memory assertion.

use presence_sim::{mega_catalog, MegaScenario, MegaSpec};
use std::process::ExitCode;
use std::time::Instant;

const DEFAULT_BUDGET_MB: u64 = 512;
const DEFAULT_SPEC: &str = "mega-ci";

/// The mega catalog entry called `name`, or the message listing what the
/// catalog does hold.
fn resolve(name: &str) -> Result<MegaSpec, String> {
    let catalog = mega_catalog();
    let known: Vec<&str> = catalog.iter().map(|s| s.name.as_str()).collect();
    let unknown = format!(
        "unknown mega scenario {name} (catalog: {})",
        known.join(", ")
    );
    catalog.into_iter().find(|s| s.name == name).ok_or(unknown)
}

/// Whether the lossless physics assertions (no failed cycle, wait mean at
/// the d_min floor) apply to `spec`.
fn is_lossless(spec: &MegaSpec) -> bool {
    spec.config.loss == 0.0
}

/// Peak resident set size in KiB from `/proc/self/status`, if available.
fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut budget_mb = DEFAULT_BUDGET_MB;
    let mut name = DEFAULT_SPEC;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--budget-mb" => match it.next().map(|v| v.parse()) {
                Some(Ok(mb)) => budget_mb = mb,
                _ => {
                    eprintln!("mega_smoke: --budget-mb takes a size in MiB");
                    return ExitCode::FAILURE;
                }
            },
            other if other.starts_with("--") => {
                eprintln!("mega_smoke: unknown argument {other}");
                return ExitCode::FAILURE;
            }
            other => name = other,
        }
    }

    let spec = match resolve(name) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("mega_smoke: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{name}: {} devices / {} CPs, {} s virtual, budget {budget_mb} MiB…",
        spec.config.devices, spec.config.cps, spec.config.duration
    );
    let start = Instant::now();
    let mut scenario = MegaScenario::build(spec.config);
    scenario.run();
    let result = scenario.collect();
    let wall = start.elapsed().as_secs_f64();
    println!(
        "{name}: {} events in {wall:.2} s ({:.0} events/s), {} cycles, \
         wait mean {:.3} s, {:.2} probes/s/device",
        result.events_processed,
        result.events_processed as f64 / wall,
        result.cycles_succeeded,
        result.wait_mean,
        result.load_mean_per_device,
    );

    let mut failures = Vec::new();
    if result.cycles_succeeded == 0 {
        failures.push("no probe cycle completed".to_string());
    }
    if is_lossless(&spec) {
        if result.cycles_failed != 0 || result.stopped_pairs != 0 {
            failures.push(format!(
                "lossless run failed cycles: {} failed, {} stopped pairs",
                result.cycles_failed, result.stopped_pairs
            ));
        }
        // One watcher per device: the spec's d_min frequency floor binds.
        let d_min = spec.config.dcpp.d_min.as_secs_f64();
        if (result.wait_mean - d_min).abs() > 0.1 * d_min {
            failures.push(format!(
                "wait mean {:.4} s strayed from the d_min floor {d_min} s",
                result.wait_mean
            ));
        }
    }
    match vm_hwm_kib() {
        Some(kib) => {
            println!("peak RSS {:.1} MiB", kib as f64 / 1024.0);
            if kib > budget_mb * 1024 {
                failures.push(format!(
                    "peak RSS {:.1} MiB exceeds the {budget_mb} MiB budget",
                    kib as f64 / 1024.0
                ));
            }
        }
        None => println!("(no /proc/self/status here; skipping the RSS budget assertion)"),
    }

    if failures.is_empty() {
        println!("ok  mega smoke");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("mega_smoke: {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_resolve_and_the_lossless_switch_follows_loss() {
        for spec in mega_catalog() {
            assert_eq!(resolve(&spec.name), Ok(spec));
        }
        assert!(is_lossless(&resolve("mega-ci").unwrap()));
        assert!(is_lossless(&resolve("mega-1m").unwrap()));
        assert!(!is_lossless(&resolve("mega-1m-lossy").unwrap()));
        let err = resolve("mega-2m").unwrap_err();
        for spec in mega_catalog() {
            assert!(err.contains(&spec.name), "{err}");
        }
    }
}

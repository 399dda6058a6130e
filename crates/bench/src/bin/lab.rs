//! The scenario-lab runner: take a declarative scenario — a catalog entry
//! (the repository's `catalog/*.json`, embedded at build time) or any spec
//! file — fan replications across the worker pool, and print
//! per-regime-sliced metrics.
//!
//! ```text
//! lab --list                         # show the catalog
//! lab mixed-regime-stress            # run one entry (3 seeds by default)
//! lab path/to/spec.json              # …or any spec file by path
//! lab --all                          # run every catalog entry
//! lab --check                        # CI gate: every embedded catalog
//!                                    # file parses, validates and is named
//!                                    # after its stem; smoke-run the
//!                                    # mixed-regime scenario
//! ```
//!
//! Options: `--seeds 1,2,3` (explicit seeds), `--replications N` (seeds
//! 1..=N), `--jobs N` (worker pool width, default `PRESENCE_JOBS` /
//! machine parallelism), `--json PATH` (write the full `LabReport`).
//!
//! Tracing: `--trace PATH` re-runs the first seed with presence tracing
//! armed and writes a Chrome JSON trace that Perfetto's viewer loads
//! directly — one track per actor, probe→reply flow arrows, counter
//! tracks for load/frequency/fabric occupancy. `--trace-until SECS` caps
//! the traced horizon (the run still completes; only the buffers stop),
//! `--trace-engine` adds the dense engine stream (a dispatch span per
//! delivery, from the engine's dispatch hook; timer arm/cancel/fire, from
//! the CPs that own the timers). Inspect traces offline with the
//! `spotter` bin. A flag that would be ignored is an error (exit 1):
//! `--trace-until` or `--trace-engine` without `--trace`, and `--trace`
//! or `--json` beside `--all`, `--check` or `--list`.
//!
//! Reports are **byte-identical at any `--jobs` value** — replications
//! merge in seed order before any cross-seed folding (pinned by
//! `tests/determinism.rs`).

use presence_sim::{builtin_catalog, job_count, mega_catalog, run_lab, LabReport, ScenarioSpec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What `--trace PATH [--trace-until SECS] [--trace-engine]` asked for.
struct TraceRequest {
    path: PathBuf,
    until: Option<f64>,
    engine: bool,
}

/// Runs the first seed once more with tracing armed and writes the
/// Chrome JSON trace. A dedicated run keeps the report path untouched:
/// the replications the report aggregates stay untraced (and unperturbed
/// — tracing does not change trajectories, but it does cost memory).
fn export_trace(spec: &ScenarioSpec, seed: u64, request: &TraceRequest) -> Result<(), String> {
    let mut seeded = spec.clone();
    seeded.seed = seed;
    let err = |e: presence_sim::SpecError| format!("{}: {e}", spec.name);
    let mut scenario = seeded.build().map_err(err)?;
    scenario.enable_trace(request.until, request.engine);
    scenario.run();
    let result = scenario.collect();
    let model = scenario.collect_trace(&result);
    let json = presence_trace::write_chrome_json(&model);
    std::fs::write(&request.path, &json)
        .map_err(|e| format!("write {}: {e}", request.path.display()))?;
    println!(
        "trace -> {} (seed {seed}, {} tracks, {} flow/instant points, {} counters, {} bytes)",
        request.path.display(),
        model.tracks.len(),
        model.points.len(),
        model.counters.len(),
        json.len()
    );
    Ok(())
}

fn fmt_opt(v: Option<f64>, width: usize, precision: usize) -> String {
    match v {
        Some(v) => format!("{v:>width$.precision$}"),
        None => format!("{:>width$}", "—"),
    }
}

fn print_report(report: &LabReport) {
    println!(
        "\n=== {} · seeds {:?} · {} regime window(s) ===",
        report.name,
        report.seeds,
        report.windows.len()
    );
    // "detΣ": verdict counts are totals across all seeds; the other
    // columns are cross-seed means.
    println!(
        "{:>12} {:>12} | {:>9} {:>9} {:>9} {:>6} {:>9}",
        "from (s)", "to (s)", "load/s", "jain", "popul.", "detΣ", "lat. (s)"
    );
    for s in &report.slices {
        println!(
            "{:>12.1} {:>12.1} | {} {} {} {:>6} {}",
            s.start,
            s.end,
            fmt_opt(s.load_mean, 9, 2),
            fmt_opt(s.fairness_jain, 9, 3),
            fmt_opt(s.population_mean, 9, 1),
            s.detections,
            fmt_opt(s.detection_latency_mean, 9, 3),
        );
    }
    let events: u64 = report.per_seed.iter().map(|s| s.events_processed).sum();
    let delivered: u64 = report.per_seed.iter().map(|s| s.messages_delivered).sum();
    let lost: u64 = report
        .per_seed
        .iter()
        .map(|s| s.messages_dropped_loss)
        .sum();
    println!(
        "totals over {} seed(s): {events} events, {delivered} delivered, {lost} lost to the loss regime",
        report.per_seed.len()
    );
}

fn run_one(
    spec: &ScenarioSpec,
    seeds: &[u64],
    jobs: usize,
    json_out: Option<&Path>,
    trace: Option<&TraceRequest>,
) -> Result<(), String> {
    let report = run_lab(spec, seeds, jobs).map_err(|e| format!("{}: {e}", spec.name))?;
    print_report(&report);
    if let Some(path) = json_out {
        let text = serde_json::to_string_pretty(&report).expect("report serialises");
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("report -> {}", path.display());
    }
    if let Some(request) = trace {
        export_trace(spec, seeds[0], request)?;
    }
    Ok(())
}

/// The CI gate. Reading either catalog panics, naming the file, on an
/// embedded entry that does not parse, does not validate, or is not named
/// after its stem; then the mixed-regime acceptance scenario runs with
/// per-regime slices under 2 seeds.
fn check(jobs: usize) -> Result<(), String> {
    let catalog = builtin_catalog();
    for spec in &catalog {
        println!("ok  catalog/{}.json", spec.name);
    }
    let mixed = catalog
        .iter()
        .find(|s| s.name == "mixed-regime-stress")
        .ok_or("catalog is missing the mixed-regime-stress acceptance scenario")?;
    let report = run_lab(mixed, &[1, 2], jobs).map_err(|e| e.to_string())?;
    if report.slices.len() < 3 {
        return Err(format!(
            "mixed-regime smoke produced only {} regime slices",
            report.slices.len()
        ));
    }
    if !report.slices.iter().all(|s| s.load_mean.is_some()) {
        return Err("mixed-regime smoke left a regime window without load samples".into());
    }
    println!(
        "ok  mixed-regime smoke: {} windows, {} events",
        report.slices.len(),
        report
            .per_seed
            .iter()
            .map(|s| s.events_processed)
            .sum::<u64>()
    );
    for spec in mega_catalog() {
        println!("ok  catalog/mega/{}.json", spec.name);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs = job_count();
    let mut seeds: Vec<u64> = vec![1, 2, 3];
    let mut json_out: Option<PathBuf> = None;
    let mut list = false;
    let mut all = false;
    let mut do_check = false;
    let mut target: Option<String> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut trace_until: Option<f64> = None;
    let mut trace_engine = false;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match arg.as_str() {
            "--list" => list = true,
            "--all" => all = true,
            "--check" => do_check = true,
            "--jobs" => {
                jobs = value("--jobs")
                    .parse()
                    .expect("--jobs must be a positive integer");
                assert!(jobs > 0, "--jobs must be a positive integer");
            }
            "--json" => json_out = Some(PathBuf::from(value("--json"))),
            "--trace" => trace_path = Some(PathBuf::from(value("--trace"))),
            "--trace-until" => {
                let secs: f64 = value("--trace-until")
                    .parse()
                    .expect("--trace-until SECS (virtual seconds)");
                assert!(secs > 0.0, "--trace-until must be positive");
                trace_until = Some(secs);
            }
            "--trace-engine" => trace_engine = true,
            "--seeds" => {
                seeds = value("--seeds")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--seeds a,b,c"))
                    .collect();
            }
            "--replications" => {
                let n: u64 = value("--replications").parse().expect("--replications N");
                assert!(n > 0, "--replications must be positive");
                seeds = (1..=n).collect();
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
            other => target = Some(other.to_string()),
        }
    }

    let trace = trace_path.map(|path| TraceRequest {
        path,
        until: trace_until,
        engine: trace_engine,
    });

    let outcome = (|| -> Result<(), String> {
        if trace.is_none() && trace_until.is_some() {
            return Err("--trace-until needs --trace PATH".into());
        }
        if trace.is_none() && trace_engine {
            return Err("--trace-engine needs --trace PATH".into());
        }
        if trace.is_some() && (all || do_check || list) {
            return Err("--trace needs a single scenario target".into());
        }
        if json_out.is_some() && (all || do_check || list) {
            return Err("--json needs a single scenario target".into());
        }
        if do_check {
            return check(jobs);
        }
        if list {
            for spec in builtin_catalog() {
                println!(
                    "{:<22} {:>6.0} s  {}",
                    spec.name, spec.duration, spec.description
                );
            }
            for spec in mega_catalog() {
                println!(
                    "{:<22} {:>6.0} s  {} (mega: run via `mega_smoke {}`)",
                    spec.name, spec.config.duration, spec.description, spec.name
                );
            }
            return Ok(());
        }
        if all {
            for spec in builtin_catalog() {
                run_one(&spec, &seeds, jobs, None, None)?;
            }
            return Ok(());
        }
        let Some(target) = target else {
            return Err("usage: lab [--list | --all | --check | <name|spec.json>] \
                 [--seeds a,b,c | --replications N] [--jobs N] [--json PATH] \
                 [--trace PATH [--trace-until SECS] [--trace-engine]]"
                .into());
        };
        // A path to a spec file, or a catalog entry name.
        let spec = if target.ends_with(".json") {
            let text = std::fs::read_to_string(&target).map_err(|e| format!("{target}: {e}"))?;
            ScenarioSpec::from_json(&text).map_err(|e| format!("{target}: {e}"))?
        } else {
            builtin_catalog()
                .into_iter()
                .find(|s| s.name == target)
                .ok_or_else(|| format!("no catalog entry named {target:?} (try --list)"))?
        };
        run_one(&spec, &seeds, jobs, json_out.as_deref(), trace.as_ref())
    })();

    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lab: {e}");
            ExitCode::FAILURE
        }
    }
}

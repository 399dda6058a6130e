//! The scenario-lab runner: load a declarative catalog scenario, fan
//! replications across the worker pool, and print per-regime-sliced
//! metrics.
//!
//! ```text
//! lab --list                         # show the catalog
//! lab mixed-regime-stress            # run one entry (3 seeds by default)
//! lab catalog/flash-crowd.json       # …or any spec file by path
//! lab --all                          # run every catalog entry
//! lab --check                        # CI gate: validate every file, pin
//!                                    # them to the built-ins, smoke-run
//!                                    # the mixed-regime scenario
//! lab --emit-catalog catalog         # (re)generate the shipped files
//! ```
//!
//! Options: `--seeds 1,2,3` (explicit seeds), `--replications N` (seeds
//! 1..=N), `--jobs N` (worker pool width, default `PRESENCE_JOBS` /
//! machine parallelism), `--json PATH` (write the full `LabReport`),
//! `--catalog DIR` (default: the repository's `catalog/`).
//!
//! Tracing: `--trace PATH` re-runs the first seed with presence tracing
//! armed and writes a Chrome JSON trace that Perfetto's viewer loads
//! directly — one track per actor, probe→reply flow arrows, counter
//! tracks for load/frequency/fabric occupancy. `--trace-until SECS` caps
//! the traced horizon (the run still completes; only the buffers stop),
//! `--trace-engine` adds the dense engine stream (dispatch spans, timer
//! arm/cancel/fire). Inspect traces offline with the `spotter` bin.
//!
//! Reports are **byte-identical at any `--jobs` value** — replications
//! merge in seed order before any cross-seed folding (pinned by
//! `tests/determinism.rs`).

use presence_sim::{
    builtin_catalog, job_count, mega_catalog, run_lab, LabReport, MegaSpec, ScenarioSpec,
};
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

fn default_catalog_dir() -> PathBuf {
    // crates/bench/../../catalog — the repository's shipped catalog.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../catalog")
}

fn load_catalog_dir(dir: &Path) -> Result<Vec<(PathBuf, ScenarioSpec)>, String> {
    let mut entries = Vec::new();
    let listing = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read catalog dir {}: {e}", dir.display()))?;
    for entry in listing {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("json") {
            entries.push(path);
        }
    }
    entries.sort();
    let mut specs = Vec::new();
    for path in entries {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let spec =
            ScenarioSpec::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        if stem != spec.name {
            return Err(format!(
                "{}: file stem does not match spec name {:?}",
                path.display(),
                spec.name
            ));
        }
        specs.push((path, spec));
    }
    if specs.is_empty() {
        return Err(format!(
            "catalog dir {} holds no .json specs",
            dir.display()
        ));
    }
    Ok(specs)
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

/// Loads the shipped `catalog/mega/` definitions (absence of the subdir is
/// an empty catalog, reported by the caller).
fn load_mega_dir(dir: &Path) -> Result<Vec<(PathBuf, MegaSpec)>, String> {
    let mega_dir = dir.join("mega");
    if !mega_dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&mega_dir)
        .map_err(|e| format!("cannot read {}: {e}", mega_dir.display()))?
        .map(|e| e.map(|e| e.path()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    paths.retain(|p| p.extension().and_then(|e| e.to_str()) == Some("json"));
    paths.sort();
    let mut specs = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let spec: MegaSpec =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        if stem != spec.name {
            return Err(format!(
                "{}: file stem does not match spec name {:?}",
                path.display(),
                spec.name
            ));
        }
        specs.push((path, spec));
    }
    Ok(specs)
}

/// The CI gate: every shipped file parses, validates, matches its
/// built-in definition, and the mixed-regime acceptance scenario runs
/// with per-regime slices under 2 seeds.
fn check(dir: &Path, jobs: usize) -> Result<(), String> {
    let files = load_catalog_dir(dir)?;
    let builtins = builtin_catalog();
    if files.len() != builtins.len() {
        return Err(format!(
            "catalog drift: {} files on disk, {} built-in definitions",
            files.len(),
            builtins.len()
        ));
    }
    for (path, spec) in &files {
        let builtin = builtins
            .iter()
            .find(|b| b.name == spec.name)
            .ok_or_else(|| format!("{}: no built-in definition", path.display()))?;
        if builtin != spec {
            return Err(format!(
                "{}: drifted from the built-in definition (regenerate with --emit-catalog)",
                path.display()
            ));
        }
        println!("ok  {}", path.display());
    }
    let mixed = files
        .iter()
        .map(|(_, s)| s)
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
    let mega_files = load_mega_dir(dir)?;
    let mega_builtins = mega_catalog();
    if mega_files.len() != mega_builtins.len() {
        return Err(format!(
            "mega catalog drift: {} files on disk, {} built-in definitions",
            mega_files.len(),
            mega_builtins.len()
        ));
    }
    for (path, spec) in &mega_files {
        let builtin = mega_builtins
            .iter()
            .find(|b| b.name == spec.name)
            .ok_or_else(|| format!("{}: no built-in mega definition", path.display()))?;
        if builtin != spec {
            return Err(format!(
                "{}: drifted from the built-in definition (regenerate with --emit-catalog)",
                path.display()
            ));
        }
        spec.config.validate();
        println!("ok  {}", path.display());
    }
    Ok(())
}

fn emit_catalog(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    for spec in builtin_catalog() {
        spec.validate().map_err(|e| format!("{}: {e}", spec.name))?;
        let path = dir.join(format!("{}.json", spec.name));
        std::fs::write(&path, spec.to_json() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    let mega_dir = dir.join("mega");
    std::fs::create_dir_all(&mega_dir).map_err(|e| format!("mkdir {}: {e}", mega_dir.display()))?;
    for spec in mega_catalog() {
        spec.config.validate();
        let path = mega_dir.join(format!("{}.json", spec.name));
        let text = serde_json::to_string_pretty(&spec).expect("mega spec serialises");
        std::fs::write(&path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut catalog_dir = default_catalog_dir();
    let mut jobs = job_count();
    let mut seeds: Vec<u64> = vec![1, 2, 3];
    let mut json_out: Option<PathBuf> = None;
    let mut list = false;
    let mut all = false;
    let mut do_check = false;
    let mut emit: Option<PathBuf> = None;
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
            "--emit-catalog" => emit = Some(PathBuf::from(value("--emit-catalog"))),
            "--catalog" => catalog_dir = PathBuf::from(value("--catalog")),
            "--jobs" => jobs = value("--jobs").parse().expect("--jobs N"),
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
        if trace.is_some() && (all || do_check || list || emit.is_some()) {
            return Err("--trace needs a single scenario target".into());
        }
        if let Some(dir) = emit {
            return emit_catalog(&dir);
        }
        if do_check {
            return check(&catalog_dir, jobs);
        }
        if list {
            for (path, spec) in load_catalog_dir(&catalog_dir)? {
                println!(
                    "{:<22} {:>6.0} s  {}",
                    spec.name, spec.duration, spec.description
                );
                let _ = path;
            }
            for (_, spec) in load_mega_dir(&catalog_dir)? {
                println!(
                    "{:<22} {:>6.0} s  {} (mega: run via `mega_smoke {}`)",
                    spec.name, spec.config.duration, spec.description, spec.name
                );
            }
            return Ok(());
        }
        if all {
            for (_, spec) in load_catalog_dir(&catalog_dir)? {
                run_one(&spec, &seeds, jobs, None, None)?;
            }
            return Ok(());
        }
        let Some(target) = target else {
            return Err(
                "usage: lab [--list | --all | --check | --emit-catalog DIR | <name|spec.json>] \
                 [--seeds a,b,c | --replications N] [--jobs N] [--json PATH] \
                 [--trace PATH [--trace-until SECS] [--trace-engine]] [--catalog DIR]"
                    .into(),
            );
        };
        // A path to a spec file, or a catalog entry name.
        let spec = if target.ends_with(".json") {
            let text = std::fs::read_to_string(&target).map_err(|e| format!("{target}: {e}"))?;
            ScenarioSpec::from_json(&text).map_err(|e| format!("{target}: {e}"))?
        } else {
            load_catalog_dir(&catalog_dir)?
                .into_iter()
                .map(|(_, s)| s)
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

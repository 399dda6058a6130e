//! The scenario-lab runner: take a declarative scenario — a catalog entry
//! (the repository's `catalog/*.json`, embedded at build time) or any spec
//! file — fan replications across the worker pool, and print
//! per-regime-sliced metrics. From two seeds on, the report ends with the
//! 95 % Student-t intervals of the whole-run device load, fairness and
//! frequency spread across the seeds (`LabReport::intervals`), the
//! workspace's one cross-seed study:
//!
//! ```text
//! replications: n = 10
//!   device load  8.39 ± 0.29 probes/s
//!   fairness     0.999 ± 0.000
//!   freq spread  1.11 ± 0.05×
//! ```
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
//! Options: `--seeds 1,2,3` (explicit seeds; default 1,2,3), `--jobs N`
//! (worker pool width, default `PRESENCE_JOBS` / machine parallelism),
//! `--json PATH` (write the full `LabReport`).
//!
//! Tracing: `--trace PATH` re-runs the first seed with presence tracing
//! armed and writes a Chrome JSON trace that Perfetto's viewer loads
//! directly — one track per actor, probe→reply flow arrows, the spec's
//! timeline (regime switches, device failure, the run's end), counter
//! tracks for load/frequency/fabric occupancy. `--trace-until SECS` caps
//! the traced horizon (the run still completes; only the buffers stop),
//! `--trace-engine` adds the dense engine stream (a dispatch span per
//! delivery, from the engine's dispatch hook; timer arm/cancel/fire, from
//! the CPs that own the timers). Inspect traces offline with the
//! `spotter` bin, which prints this run's regime windows as `lab` does.
//! A flag that would be ignored is an error (exit 1):
//! `--trace-until` or `--trace-engine` without `--trace`, and `--trace`
//! or `--json` beside `--all`, `--check` or `--list`. So is a flag whose
//! value is missing or malformed (`--seeds 1,x`, `--jobs 0`); the message
//! names the flag, and so does a seed given twice (`--seeds 1,1`).
//!
//! Reports are **byte-identical at any `--jobs` value** — replications
//! merge in seed order before any cross-seed folding (pinned by
//! `tests/determinism.rs`). Output goes through `presence_bench::out!`,
//! so a reader that stops early (`lab --all | head`) ends the printing,
//! not the run.

use presence_bench::{out, outln, windows_table};
use presence_sim::{
    builtin_catalog, check_seeds, job_count, mega_catalog, run_lab, LabReport, ScenarioSpec,
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
    seeded.config.seed = seed;
    let err = |e: presence_sim::SpecError| format!("{}: {e}", spec.name);
    let mut scenario = seeded.build().map_err(err)?;
    scenario.enable_trace(request.until, request.engine);
    scenario.run();
    let result = scenario.collect();
    let model = scenario.collect_trace(&result);
    let json = presence_trace::write_chrome_json(&model);
    std::fs::write(&request.path, &json)
        .map_err(|e| format!("write {}: {e}", request.path.display()))?;
    outln!(
        "trace -> {} (seed {seed}, {} tracks, {} flow/instant points, {} counters, {} bytes)",
        request.path.display(),
        model.tracks.len(),
        model.points.len(),
        model.counters.len(),
        json.len()
    );
    Ok(())
}

/// The text `lab` prints for one report: its header, the regime-window
/// table, the totals line, and from two seeds on the whole-run intervals.
fn report_text(report: &LabReport) -> String {
    let events: u64 = report.per_seed.iter().map(|s| s.events_processed).sum();
    let delivered: u64 = report.per_seed.iter().map(|s| s.messages_delivered).sum();
    let lost: u64 = report
        .per_seed
        .iter()
        .map(|s| s.messages_dropped_loss)
        .sum();
    let mut text = format!(
        "\n=== {} · seeds {:?} · {} regime window(s) ===\n{}\
         totals over {} seed(s): {events} events, {delivered} delivered, {lost} lost to the loss regime\n",
        report.name,
        report.seeds,
        report.windows.len(),
        windows_table(&report.slices),
        report.per_seed.len()
    );
    if let Some(intervals) = report.intervals() {
        text += &intervals.to_string();
    }
    text
}

fn run_one(
    spec: &ScenarioSpec,
    seeds: &[u64],
    jobs: usize,
    json_out: Option<&Path>,
    trace: Option<&TraceRequest>,
) -> Result<(), String> {
    let report = run_lab(spec, seeds, jobs).map_err(|e| format!("{}: {e}", spec.name))?;
    out!("{}", report_text(&report));
    if let Some(path) = json_out {
        let text = serde_json::to_string_pretty(&report).expect("report serialises");
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        outln!("report -> {}", path.display());
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
        outln!("ok  catalog/{}.json", spec.name);
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
    outln!(
        "ok  mixed-regime smoke: {} windows, {} events",
        report.slices.len(),
        report
            .per_seed
            .iter()
            .map(|s| s.events_processed)
            .sum::<u64>()
    );
    for spec in mega_catalog() {
        outln!("ok  catalog/mega/{}.json", spec.name);
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

    let outcome = (|| -> Result<(), String> {
        // `text` as a `flag` value that `valid` accepts, or an error naming
        // the flag and `what` it takes.
        fn parsed<T: std::str::FromStr>(
            flag: &str,
            text: &str,
            what: &str,
            valid: impl Fn(&T) -> bool,
        ) -> Result<T, String> {
            text.trim()
                .parse()
                .ok()
                .filter(valid)
                .ok_or_else(|| format!("{flag} must be {what}, got {text:?}"))
        }
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
            match arg.as_str() {
                "--list" => list = true,
                "--all" => all = true,
                "--check" => do_check = true,
                "--jobs" => {
                    let text = value("--jobs")?;
                    jobs = parsed("--jobs", &text, "a positive integer", |&n| n > 0)?;
                }
                "--json" => json_out = Some(PathBuf::from(value("--json")?)),
                "--trace" => trace_path = Some(PathBuf::from(value("--trace")?)),
                "--trace-until" => {
                    let text = value("--trace-until")?;
                    let what = "positive virtual seconds";
                    let secs = parsed("--trace-until", &text, what, |&s: &f64| {
                        s > 0.0 && s.is_finite()
                    })?;
                    trace_until = Some(secs);
                }
                "--trace-engine" => trace_engine = true,
                "--seeds" => {
                    let text = value("--seeds")?;
                    seeds = text
                        .split(',')
                        .map(|s| s.trim().parse())
                        .collect::<Result<_, _>>()
                        .map_err(|_| format!("--seeds takes integers a,b,c, got {text:?}"))?;
                    check_seeds(&seeds).map_err(|e| format!("--seeds: {}", e.0))?;
                }
                other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
                other => target = Some(other.to_string()),
            }
        }

        let trace = trace_path.map(|path| TraceRequest {
            path,
            until: trace_until,
            engine: trace_engine,
        });
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
                outln!(
                    "{:<22} {:>6.0} s  {}",
                    spec.name,
                    spec.config.duration,
                    spec.description
                );
            }
            for spec in mega_catalog() {
                outln!(
                    "{:<22} {:>6.0} s  {} (mega: run via `mega_smoke {}`)",
                    spec.name,
                    spec.config.duration,
                    spec.description,
                    spec.name
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
                 [--seeds a,b,c] [--jobs N] [--json PATH] \
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

#[cfg(test)]
mod tests {
    use super::*;
    use presence_sim::{Protocol, ScenarioConfig};

    #[test]
    fn the_interval_block_follows_the_totals_from_two_seeds_on() {
        let cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 4, 30.0, 0);
        let spec = ScenarioSpec::new("tiny", "a short DCPP run", cfg);
        let text = |seeds: &[u64]| report_text(&run_lab(&spec, seeds, 1).expect("runs"));

        let one = text(&[1]);
        assert!(one.ends_with("lost to the loss regime\n"), "{one}");
        assert!(
            !one.contains("replications") && !one.contains("inf"),
            "{one}"
        );

        let two = text(&[1, 2]);
        let (head, block) = two.split_once("regime\nreplications: n = 2\n").expect(&two);
        assert!(head.contains("totals over 2 seed(s)"), "{two}");
        assert_eq!(block.lines().count(), 3, "{two}");
        assert!(!block.contains("inf"), "{two}");
    }
}

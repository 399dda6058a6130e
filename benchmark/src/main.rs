//! `presence-benchmark`: the repo benchmark. One workload per process:
//!
//! ```text
//! presence-benchmark --workload <name> --seed <S> [--seconds <N>] [--trace 0|1]
//!                    [--layers] [--smoke] [--fault golden|silence]
//! ```
//!
//! `--trace 0` (the default) is the measured run: tracing off, end-to-end
//! metrics only. `--trace 1` is the traced run: every per-layer kernel,
//! then a short pass of each pipeline with the benchmark's own spans and
//! counters on, written as a Chrome trace under `benchmark/out/`.
//! `--layers` is the traced run plus the printed reconciliation tables.
//! The last line of standard output is the result as one JSON object. See
//! `README.md`.

mod kernels;
mod layers;
mod measure;
mod sim_hub;
mod sim_mega;
mod spans;
mod udp;
mod udp_fleet;
mod udp_serve;

use measure::{peak_rss_mb, Checks, KernelBudget, Report};
use serde::Value;
use spans::SpanLog;
use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 4] = ["sim-hub", "sim-mega", "udp-fleet", "udp-serve"];

/// A deliberately broken input, to show that the checks can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Expect one event more than `tests/golden` records.
    Golden,
    /// Silence one device of `udp-serve` from the start.
    Silence,
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub layers: bool,
    pub smoke: bool,
    pub fault: Option<Fault>,
}

fn usage() -> String {
    format!(
        "usage: presence-benchmark --workload <{}> --seed <S> [--seconds <N>] [--trace 0|1] \
         [--layers] [--smoke] [--fault golden|silence]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        layers: false,
        smoke: false,
        fault: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--layers" => opts.layers = true,
            "--smoke" => opts.smoke = true,
            "--fault" => {
                opts.fault = Some(match value()?.as_str() {
                    "golden" => Fault::Golden,
                    "silence" => Fault::Silence,
                    other => return Err(format!("--fault takes golden or silence, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !opts.smoke && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(opts)
}

/// The four end-to-end metrics every workload reports. `timed` is the
/// workload's estimate of (`cost_us_per_op`, `wait_p50_us`); how each
/// workload gets from its rounds or windows to that estimate is in
/// `measure::quiet_round`, `measure::lower_quartile` and `measure::quietest`,
/// and so is how it reduces its set-ups to `setup_s`.
pub fn put_end_to_end(report: &mut Report, timed: (f64, f64), setup_s: f64) {
    report.put("cost_us_per_op", timed.0, "us");
    report.put("wait_p50_us", timed.1, "us");
    report.put("setup_s", setup_s, "s");
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
}

fn run_workload(opts: &Opts, checks: &mut Checks, report: &mut Report) {
    match opts.workload.as_str() {
        "sim-hub" => sim_hub::run(opts, checks, report),
        "sim-mega" => sim_mega::run(opts, checks, report),
        "udp-fleet" => udp_fleet::run(opts, checks, report),
        "udp-serve" => udp_serve::run(opts, checks, report),
        other => unreachable!("workload {other} passed validation"),
    }
}

fn trace_path(opts: &Opts) -> PathBuf {
    let name = if opts.smoke {
        "smoke"
    } else {
        opts.workload.as_str()
    };
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{name}-{}.json", opts.seed))
}

/// The traced run. The per-layer list is one list for the whole repo, so
/// every traced run surveys every layer: the kernels, then a short pass of
/// each of the four pipelines with spans and counters on.
fn survey(opts: &Opts, checks: &mut Checks, report: &mut Report) {
    let budget = if opts.smoke {
        KernelBudget::SMOKE
    } else {
        KernelBudget::FULL
    };
    let mut spans = SpanLog::new();
    let t0 = std::time::Instant::now();
    let lap = |what: &str| eprintln!("survey: {what} done at {:.1} s", t0.elapsed().as_secs_f64());
    kernels::run_all(budget, report);
    kernels::trace_layer(opts.seed, if opts.smoke { 1 } else { 5 }, report);
    lap("kernels");
    let hub = sim_hub::survey(opts, checks, report, &mut spans);
    lap("sim-hub");
    let mega = sim_mega::survey(opts, checks, report, &mut spans);
    lap("sim-mega");
    let fleet = udp_fleet::survey(opts, checks, report, &mut spans);
    lap("udp-fleet");
    let serve = udp_serve::survey(opts, checks, report, &mut spans);
    lap("udp-serve");

    let tables = [
        layers::hub(report, &hub),
        layers::mega(report, &mega),
        layers::serve(report, &serve),
        layers::fleet(report, &fleet),
    ];
    let [hub_table, mega_table, serve_table, _] = &tables;
    report.put("sim.hub.model_ns_per_event", hub_table.model_ns(), "ns");
    report.put(
        "sim.hub.residual_ns_per_event",
        hub_table.residual_ns(),
        "ns",
    );
    report.put("sim.mega.model_ns_per_event", mega_table.model_ns(), "ns");
    report.put(
        "sim.mega.residual_ns_per_event",
        mega_table.residual_ns(),
        "ns",
    );
    report.put(
        "runtime.serve.cpu_floor_ratio",
        serve_table.measured_ns / serve_table.model_ns(),
        "ratio",
    );
    if opts.layers {
        for table in &tables {
            table.print();
        }
        println!();
    }

    let path = trace_path(opts);
    let written = spans.write_validated(&path);
    lap("trace");
    checks.check(written.is_ok(), || {
        format!("trace {}: {}", path.display(), written.clone().unwrap_err())
    });
    if let Ok(check) = written {
        eprintln!(
            "trace: {} spans on {} tracks ({} beyond the cap dropped) -> {}",
            check.slices,
            check.tracks,
            spans.dropped,
            path.display()
        );
    }
}

/// Everything once, shortened: a health check that prints no comparable
/// numbers.
fn smoke(opts: &Opts, checks: &mut Checks) {
    let t0 = std::time::Instant::now();
    for workload in WORKLOADS {
        let mut report = Report::default();
        let one = Opts {
            workload: workload.to_string(),
            // Three quarter-length windows for the UDP medians.
            seconds: if workload.starts_with("udp") {
                1.5
            } else {
                0.5
            },
            ..opts.clone()
        };
        run_workload(&one, checks, &mut report);
        check_names(&report, "end_to_end", checks);
        eprintln!(
            "smoke: {workload} done at {:.1} s ({} checks so far, {} failed)",
            t0.elapsed().as_secs_f64(),
            checks.attempted,
            checks.failed
        );
    }
    let mut report = Report::default();
    let layered = Opts {
        layers: true,
        ..opts.clone()
    };
    survey(&layered, checks, &mut report);
    check_names(&report, "per_layer", checks);
}

/// The metric names `BENCHMARK.json` declares under `section`, with units.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let root: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
    let field = |v: &Value, name: &str| -> Value {
        v.as_object()
            .and_then(|fields| fields.iter().find(|(k, _)| k == name))
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("BENCHMARK.json: no {name}"))
    };
    let text_of = |v: Value| match v {
        Value::Str(s) => s,
        other => panic!("BENCHMARK.json: expected a string, found {other:?}"),
    };
    field(&root, section)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| (text_of(field(m, "name")), text_of(field(m, "unit"))))
        .collect()
}

/// The run must print exactly the metrics `BENCHMARK.json` declares for
/// its mode, each with its declared unit.
fn check_names(report: &Report, section: &str, checks: &mut Checks) {
    let declared = declared(section);
    let mut printed: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    let mut wanted = declared.clone();
    printed.sort();
    wanted.sort();
    checks.check(printed == wanted, || {
        let missing: Vec<_> = wanted.iter().filter(|w| !printed.contains(w)).collect();
        let extra: Vec<_> = printed.iter().filter(|p| !wanted.contains(p)).collect();
        format!("{section}: BENCHMARK.json declares {missing:?} unprinted; printed undeclared {extra:?}")
    });
}

/// A number as measured, with all its digits. Non-finite values cannot be
/// written as JSON numbers; they are printed as `null` and fail the run.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn print_result(checks: &Checks, report: &Report) {
    let detail: Vec<String> = report
        .detail
        .iter()
        .map(|(name, d)| {
            format!(
                "\"{name}\": {{\"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}}}",
                d.count,
                json_number(d.min),
                json_number(d.q25),
                json_number(d.median),
                json_number(d.q75),
                json_number(d.max)
            )
        })
        .collect();
    println!("{{\"detail\": {{{}}}}}", detail.join(", "));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.correct(),
        checks.attempted,
        checks.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let mut report = Report::default();
    if opts.smoke {
        smoke(&opts, &mut checks);
        println!(
            "smoke: {} checks, {} failed",
            checks.attempted, checks.failed
        );
        return if checks.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if opts.trace || opts.layers {
        survey(&opts, &mut checks, &mut report);
        check_names(&report, "per_layer", &mut checks);
    } else {
        run_workload(&opts, &mut checks, &mut report);
        check_names(&report, "end_to_end", &mut checks);
    }
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    checks.check(finite, || "a metric is not a finite number".to_string());
    print_result(&checks, &report);
    if checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

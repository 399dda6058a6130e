//! Serial hot-path performance report for the engine fast paths
//! (single-hop delivery, typed actor dispatch, inline timer slots,
//! calendar event queue): events/sec, events-per-delivered-message, and
//! wall time for the standard SAPP/DCPP/churn trio (`golden_trio`, the
//! same configurations the golden-equivalence suite pins) at CI horizons.
//!
//! * `perf_report [out.json]` — run the trio plus a sharded-UDP loopback
//!   throughput probe (the serving runtime under a real kernel socket
//!   path), print the table, write the report (default
//!   `BENCH_PR10.json`).
//! * `perf_report --regions` — additionally run the multi-core scaling
//!   suite: the trio on the multi-plane topology (`Topology::Planes`) at
//!   regions ∈ {1, 2, 4, 8} with workers matched to regions, under both
//!   window policies, recording wall-clock curves, barrier/window
//!   counters, and the adaptive-vs-static window ratio; with `--mega`
//!   also the `mega-1m` sharded engine at shards ∈ {1, 2, 4, 8}. Each
//!   point records its region plan (planned lookahead, or the collapsing
//!   route when the partition is refused).
//! * `perf_report --mega` — additionally run the `mega-1m` catalog
//!   scenario (10⁶ devices / 10⁴ CPs on the calendar queue with streaming
//!   recorders) once and record its throughput in the report.
//! * `perf_report --check` — additionally exit non-zero if any scenario
//!   breaks a structural gate: events-per-delivered-message above 2.05,
//!   `events_processed` differing from the golden fixture recorded in
//!   `tests/golden/` (dispatch refactors must not change event counts),
//!   a multi-plane trio scenario whose adaptive-window run is not
//!   byte-identical to its static-window run (or executes *more* windows
//!   than static), or trio throughput collapsing below half of
//!   the committed `BENCH_PR8.json` snapshot (the one wall-clock gate;
//!   halved to absorb CI box noise while still catching
//!   order-of-magnitude regressions).

use presence_core::{CpId, DcppConfig, DcppCp, DcppDevice, DeviceId};
use presence_des::{SimDuration, SimTime, WindowPolicy};
use presence_runtime::{shards_from_env, Clock, DeviceHost, HostConfig, ShardedHost, SystemClock};
use presence_sim::{
    golden_trio, mega_catalog, run_mega_sharded, run_mega_spec, MegaResult, Scenario, Topology,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events-per-delivered-message ceiling: 2 exact for the single-hop path,
/// plus 2.5 % headroom for dropped and still-in-flight messages.
const EPM_GATE: f64 = 2.05;

/// Repeat each scenario until the accumulated wall time passes this, so
/// the events/sec figure is not a single-run noise sample.
const MIN_WALL_SECS: f64 = 0.25;

/// `--check` fails if a trio scenario's events/sec drops below this
/// fraction of its `BENCH_PR8.json` snapshot.
const THROUGHPUT_GATE_FRACTION: f64 = 0.5;

/// The committed throughput snapshot the `--check` floor reads.
const BASELINE_FILE: &str = "BENCH_PR8.json";

/// The region/shard counts the `--regions` scaling suite sweeps.
const SCALING_POINTS: [usize; 4] = [1, 2, 4, 8];

#[derive(Debug, Serialize)]
struct ScenarioReport {
    name: String,
    virtual_seconds: f64,
    runs: u64,
    wall_seconds_per_run: f64,
    events_per_run: u64,
    events_per_sec: f64,
    delivered_messages: u64,
    events_per_delivered_message: f64,
}

#[derive(Debug, Serialize)]
struct MegaReport {
    name: String,
    wall_seconds: f64,
    events_per_sec: f64,
    result: MegaResult,
}

/// One point on a decomposed-trio scaling curve: the adaptive-policy run
/// is the recorded datum; the static-policy run of the same configuration
/// supplies the window-count denominator.
#[derive(Debug, Serialize)]
struct TrioScalingPoint {
    name: String,
    regions: usize,
    workers: usize,
    /// The planner's verdict for this point: effective regions plus the
    /// planned lookahead, or the collapsing route when it refuses.
    region_plan: String,
    wall_seconds: f64,
    events_per_sec: f64,
    /// Cross-plane `Relay`/`RelayBroadcast` forwards (the decomposition's
    /// extra hops; 0 would mean the cut carries no traffic).
    relays_forwarded: u64,
    /// Windows executed under the adaptive policy (summed over regions).
    windows_executed: u64,
    /// Cross-region events exchanged at barriers (adaptive run).
    barrier_exchanges: u64,
    /// Mean events per window (adaptive run).
    events_per_window: f64,
    /// Windows the *static* policy executed on the same configuration.
    static_windows_executed: u64,
    /// `windows_executed / static_windows_executed` — below 1.0 means the
    /// adaptive policy widened windows and barriered less.
    adaptive_window_ratio: f64,
}

/// One point on the `mega-1m` sharded scaling curve.
#[derive(Debug, Serialize)]
struct MegaScalingPoint {
    name: String,
    shards: usize,
    workers: usize,
    wall_seconds: f64,
    events_processed: u64,
    events_per_sec: f64,
}

/// The `--regions` scaling suite: wall-clock curves over region/shard
/// counts, with the barrier/window counters that explain them.
#[derive(Debug, Serialize)]
struct ScalingReport {
    points: Vec<usize>,
    trio: Vec<TrioScalingPoint>,
    mega: Vec<MegaScalingPoint>,
}

/// Throughput of the sharded UDP serving runtime on loopback: real
/// sockets, real kernel, wall clock.
#[derive(Debug, Serialize)]
struct UdpLoopbackReport {
    /// Shards per host (`RUNTIME_SHARDS`, or parallelism-derived).
    shards: usize,
    /// DCPP device/CP pairs served.
    pairs: u32,
    wall_seconds: f64,
    probes_sent: u64,
    probes_answered: u64,
    /// Datagrams put on the wire by both hosts together.
    datagrams: u64,
    datagrams_per_sec: f64,
    /// Backpressure drops reported by the host counters (gated to 0).
    backpressure_dropped: u64,
}

#[derive(Debug, Serialize)]
struct Report {
    epm_gate: f64,
    scenarios: Vec<ScenarioReport>,
    udp_loopback: UdpLoopbackReport,
    mega: Option<MegaReport>,
    /// Present when `--regions` ran the scaling suite.
    scaling: Option<ScalingReport>,
}

/// The one golden-fixture field the `--check` gate needs (the shim's
/// derive skips the unknown keys of the full `ScenarioResult` dump).
#[derive(Debug, Deserialize)]
struct GoldenEvents {
    events_processed: u64,
}

/// The baseline fields the throughput gate reads from [`BASELINE_FILE`].
#[derive(Debug, Deserialize)]
struct BaselineScenario {
    name: String,
    events_per_sec: f64,
}

#[derive(Debug, Deserialize)]
struct BaselineReport {
    scenarios: Vec<BaselineScenario>,
}

/// `events_processed` from `tests/golden/<name>.json`. `Ok(None)` means
/// the fixture file is absent (e.g. the bin runs outside the workspace
/// root) — the count gate is skipped with a notice while the EPM gate
/// still applies. A fixture that exists but fails to parse is an `Err`:
/// under `--check` that is a gate failure, never a silent skip.
fn golden_events(name: &str) -> Result<Option<u64>, String> {
    let text = match std::fs::read_to_string(format!("tests/golden/{name}.json")) {
        Ok(text) => text,
        Err(_) => return Ok(None),
    };
    let golden: GoldenEvents = serde_json::from_str(&text)
        .map_err(|e| format!("golden fixture tests/golden/{name}.json unparseable: {e:?}"))?;
    Ok(Some(golden.events_processed))
}

/// The committed [`BASELINE_FILE`] throughput snapshot; same absence
/// semantics as [`golden_events`].
fn baseline_events_per_sec(name: &str) -> Result<Option<f64>, String> {
    let text = match std::fs::read_to_string(BASELINE_FILE) {
        Ok(text) => text,
        Err(_) => return Ok(None),
    };
    let baseline: BaselineReport = serde_json::from_str(&text)
        .map_err(|e| format!("baseline {BASELINE_FILE} unparseable: {e:?}"))?;
    Ok(baseline
        .scenarios
        .iter()
        .find(|s| s.name == name)
        .map(|s| s.events_per_sec))
}

/// Measures the sharded UDP host on loopback: a fleet of DCPP pairs with
/// tightened waits, real sockets, wall clock. The datagram rate is the
/// end-to-end serving throughput (probe out, reply back, both counted);
/// under `--check` any backpressure drop fails the gate.
fn run_udp_loopback(gate_failures: &mut Vec<String>, check: bool) -> UdpLoopbackReport {
    let shards = shards_from_env();
    let pairs: u32 = 256;
    let mut cfg = DcppConfig::paper_default();
    cfg.delta_min = SimDuration::from_millis(2);
    cfg.d_min = SimDuration::from_millis(10);
    let host_cfg = HostConfig {
        shards,
        bind: "127.0.0.1:0".to_string(),
        recv_batch: 64,
        poll_interval: Duration::from_millis(1),
    };
    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    let mut devices = ShardedHost::bind(&host_cfg).expect("bind device host");
    for d in 0..pairs {
        devices.add_device(DeviceHost::Dcpp(DcppDevice::new(DeviceId(d), cfg)), None);
    }
    let mut cps = ShardedHost::bind(&host_cfg).expect("bind cp host");
    let stagger = cfg.d_min.as_nanos() / u64::from(pairs);
    for d in 0..pairs {
        cps.add_prober(
            Box::new(DcppCp::new(CpId(d), cfg)),
            devices.addr_of(DeviceId(d)),
            DeviceId(d),
            SimTime::ZERO + SimDuration::from_nanos(u64::from(d) * stagger),
        );
    }
    let start = Instant::now();
    let device_handle = devices.start(Arc::clone(&clock));
    let cp_handle = cps.start(Arc::clone(&clock));
    std::thread::sleep(Duration::from_secs(1));
    let cp_report = cp_handle.join();
    // Let in-flight probes drain before counting the device side.
    std::thread::sleep(Duration::from_millis(50));
    let device_report = device_handle.join();
    let wall = start.elapsed().as_secs_f64();

    let probes_sent: u64 = cp_report.probers.iter().map(|p| p.stats.probes_sent).sum();
    let probes_answered: u64 = device_report
        .devices
        .iter()
        .map(|d| d.probes_received)
        .sum();
    let datagrams = cp_report.stats.datagrams_sent + device_report.stats.datagrams_sent;
    let dropped = cp_report.stats.dropped() + device_report.stats.dropped();
    let report = UdpLoopbackReport {
        shards,
        pairs,
        wall_seconds: wall,
        probes_sent,
        probes_answered,
        datagrams,
        datagrams_per_sec: datagrams as f64 / wall,
        backpressure_dropped: dropped,
    };
    println!(
        "udp-loopback: {pairs} DCPP pairs x{shards} shard(s): {datagrams} datagrams \
         in {wall:.2} s ({:.0} datagrams/s), {dropped} backpressure drops",
        report.datagrams_per_sec
    );
    if check && dropped != 0 {
        gate_failures.push(format!(
            "udp-loopback: {dropped} backpressure drops (counters must read zero)"
        ));
    }
    report
}

fn run_mega() -> MegaReport {
    let spec = mega_catalog()
        .into_iter()
        .find(|s| s.name == "mega-1m")
        .expect("mega-1m catalog entry");
    println!(
        "mega-1m: {} devices / {} CPs on the calendar queue…",
        spec.config.devices, spec.config.cps
    );
    let start = Instant::now();
    let result = run_mega_spec(&spec);
    let wall = start.elapsed().as_secs_f64();
    let report = MegaReport {
        name: spec.name,
        wall_seconds: wall,
        events_per_sec: result.events_processed as f64 / wall,
        result,
    };
    println!(
        "mega-1m: {:>9} events in {:>7.2} s ({:>9.0} events/s), \
         {} cycles, wait mean {:.3} s, {:.2} probes/s/device",
        report.result.events_processed,
        wall,
        report.events_per_sec,
        report.result.cycles_succeeded,
        report.result.wait_mean,
        report.result.load_mean_per_device,
    );
    report
}

/// Runs one multi-plane trio configuration and returns the scenario plus
/// its wall time (build + run, collection excluded — same protocol as the
/// serial table).
fn run_decomposed(
    cfg: presence_sim::ScenarioConfig,
    regions: usize,
    policy: WindowPolicy,
) -> (Scenario, f64) {
    let start = Instant::now();
    let mut scenario = Scenario::build_on(cfg, Topology::Planes { regions });
    scenario.set_workers(regions);
    scenario.set_window_policy(policy);
    scenario.run();
    (scenario, start.elapsed().as_secs_f64())
}

/// The decomposed-trio half of the scaling suite: every preset at every
/// region count, adaptive policy timed and recorded, static policy run
/// once more for the window-ratio denominator.
fn run_trio_scaling(gate_failures: &mut Vec<String>) -> Vec<TrioScalingPoint> {
    let mut points = Vec::new();
    for (name, cfg) in golden_trio() {
        for regions in SCALING_POINTS {
            let (mut scenario, wall) = run_decomposed(cfg, regions, WindowPolicy::Adaptive);
            let plan = scenario.region_plan();
            let plan_line = format!(
                "requested {} -> effective {} ({})",
                plan.requested, plan.effective, plan.reason
            );
            let events = scenario.collect().events_processed;
            let (windows, exchanges, per_window) =
                scenario.region_counters().unwrap_or((0, 0, 0.0));
            let (static_run, _) = run_decomposed(cfg, regions, WindowPolicy::Static);
            let static_windows = static_run.region_counters().map_or(0, |(w, _, _)| w);
            if windows > static_windows {
                gate_failures.push(format!(
                    "{name} regions={regions}: adaptive executed {windows} windows, \
                     static only {static_windows}"
                ));
            }
            let ratio = if static_windows == 0 {
                1.0
            } else {
                windows as f64 / static_windows as f64
            };
            let point = TrioScalingPoint {
                name: name.to_string(),
                regions,
                workers: regions,
                region_plan: plan_line,
                wall_seconds: wall,
                events_per_sec: events as f64 / wall,
                relays_forwarded: scenario.relays_forwarded(),
                windows_executed: windows,
                barrier_exchanges: exchanges,
                events_per_window: per_window,
                static_windows_executed: static_windows,
                adaptive_window_ratio: ratio,
            };
            println!(
                "{:>6} x{}: {:>8.4} s ({:>9.0} events/s), {} windows \
                 (static {}, ratio {:.3}), {} barrier events — {}",
                name,
                regions,
                wall,
                point.events_per_sec,
                windows,
                static_windows,
                ratio,
                exchanges,
                point.region_plan
            );
            points.push(point);
        }
    }
    points
}

/// The `mega-1m` half of the scaling suite: the sharded engine at each
/// shard count with workers matched.
fn run_mega_scaling() -> Vec<MegaScalingPoint> {
    let spec = mega_catalog()
        .into_iter()
        .find(|s| s.name == "mega-1m")
        .expect("mega-1m catalog entry");
    let mut points = Vec::new();
    for shards in SCALING_POINTS {
        let start = Instant::now();
        let results = run_mega_sharded(&spec.config, shards, shards);
        let wall = start.elapsed().as_secs_f64();
        let events: u64 = results.iter().map(|r| r.events_processed).sum();
        let point = MegaScalingPoint {
            name: spec.name.clone(),
            shards,
            workers: shards,
            wall_seconds: wall,
            events_processed: events,
            events_per_sec: events as f64 / wall,
        };
        println!(
            "mega-1m x{shards}: {:>9} events in {:>7.2} s ({:>9.0} events/s)",
            events, wall, point.events_per_sec
        );
        points.push(point);
    }
    points
}

/// The `--check` adaptive-equivalence gate: on the decomposed trio at
/// four regions, the adaptive-window run must be byte-identical to the
/// static-window run (wider windows must never reorder a trajectory) and
/// must not barrier more often.
fn check_adaptive_equivalence(gate_failures: &mut Vec<String>) {
    for (name, cfg) in golden_trio() {
        let (mut adaptive, _) = run_decomposed(cfg, 4, WindowPolicy::Adaptive);
        let (mut static_run, _) = run_decomposed(cfg, 4, WindowPolicy::Static);
        let a = serde_json::to_string(&adaptive.collect()).expect("result serialises");
        let s = serde_json::to_string(&static_run.collect()).expect("result serialises");
        let a_windows = adaptive.region_counters().map_or(0, |(w, _, _)| w);
        let s_windows = static_run.region_counters().map_or(0, |(w, _, _)| w);
        if a == s && a_windows <= s_windows {
            println!(
                "  {name}: adaptive byte-identical to static \
                 ({a_windows} windows vs {s_windows})"
            );
        } else if a != s {
            gate_failures.push(format!(
                "{name}: decomposed adaptive result diverges from static at regions=4"
            ));
        } else {
            gate_failures.push(format!(
                "{name}: adaptive executed {a_windows} windows, static only {s_windows}"
            ));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut mega = false;
    let mut scaling = false;
    let mut out_path: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            "--check" => check = true,
            "--mega" => mega = true,
            "--regions" => scaling = true,
            other if other.starts_with("--") => {
                panic!(
                    "unknown flag {other} (perf_report [--check] [--mega] [--regions] [out.json])"
                )
            }
            other => out_path = Some(other.to_string()),
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_PR10.json".to_string());

    let mut scenarios = Vec::new();
    let mut gate_failures = Vec::new();
    for (name, cfg) in golden_trio() {
        let mut runs = 0u64;
        let mut last = None;
        // Each repeat is timed individually and the throughput figure
        // comes from the *fastest* one: scheduler contention on a shared
        // CI box only ever slows a run down, so the minimum wall time is
        // the low-variance estimator of what the code can actually do —
        // means drift with box load and trip the gate spuriously.
        let mut best_wall = f64::INFINITY;
        let start = Instant::now();
        while runs == 0 || start.elapsed().as_secs_f64() < MIN_WALL_SECS {
            let run_start = Instant::now();
            let mut scenario = Scenario::build(cfg);
            scenario.run();
            best_wall = best_wall.min(run_start.elapsed().as_secs_f64());
            last = Some(scenario);
            runs += 1;
        }
        // Collection (which clones every recorded series) happens once,
        // outside the timed region: the wall figure is build + run only.
        let mut scenario = last.expect("at least one run");
        let result = scenario.collect();
        let epm = result
            .events_per_delivered_message()
            .expect("trio delivers messages");
        let report = ScenarioReport {
            name: name.to_string(),
            virtual_seconds: result.duration,
            runs,
            wall_seconds_per_run: best_wall,
            events_per_run: result.events_processed,
            events_per_sec: result.events_processed as f64 / best_wall,
            delivered_messages: result.messages_delivered,
            events_per_delivered_message: epm,
        };
        println!(
            "{:>6}: {:>8} events in {:>8.4} s/run best-of-{runs} \
             ({:>9.0} events/s), events/delivered-msg {:.4}",
            name, report.events_per_run, best_wall, report.events_per_sec, epm
        );
        if epm > EPM_GATE {
            gate_failures.push(format!("{name}: {epm:.4} > {EPM_GATE}"));
        }
        if check {
            // Structural dispatch gate: the refactored engine must process
            // exactly the event count the pre-refactor fixture recorded.
            match golden_events(name) {
                Ok(Some(golden)) if golden != result.events_processed => {
                    gate_failures.push(format!(
                        "{name}: events_processed {} != golden fixture {golden}",
                        result.events_processed
                    ));
                }
                Ok(Some(_)) => {}
                Ok(None) => println!(
                    "  (no golden fixture for {name} here; skipping the \
                     events_processed gate)"
                ),
                Err(e) => gate_failures.push(e),
            }
            // Throughput floor against the committed PR6 snapshot.
            match baseline_events_per_sec(name) {
                Ok(Some(baseline)) => {
                    let floor = baseline * THROUGHPUT_GATE_FRACTION;
                    if report.events_per_sec < floor {
                        gate_failures.push(format!(
                            "{name}: {:.0} events/s below {:.0} \
                             ({THROUGHPUT_GATE_FRACTION} x {BASELINE_FILE} snapshot {baseline:.0})",
                            report.events_per_sec, floor
                        ));
                    }
                }
                Ok(None) => {
                    println!("  (no {BASELINE_FILE} here; skipping the throughput gate for {name})")
                }
                Err(e) => gate_failures.push(e),
            }
        }
        scenarios.push(report);
    }

    let udp_loopback = run_udp_loopback(&mut gate_failures, check);

    if check {
        println!("adaptive-window gate (decomposed trio, adaptive vs static at regions=4):");
        check_adaptive_equivalence(&mut gate_failures);
    }

    let scaling_report = if scaling {
        println!(
            "scaling suite: decomposed trio at regions {SCALING_POINTS:?} \
             (workers matched), adaptive + static"
        );
        let trio = run_trio_scaling(&mut gate_failures);
        let mega_points = if mega { run_mega_scaling() } else { Vec::new() };
        Some(ScalingReport {
            points: SCALING_POINTS.to_vec(),
            trio,
            mega: mega_points,
        })
    } else {
        None
    };

    let mega_report = if mega && !scaling {
        Some(run_mega())
    } else {
        None
    };

    let report = Report {
        epm_gate: EPM_GATE,
        scenarios,
        udp_loopback,
        mega: mega_report,
        scaling: scaling_report,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out_path, json).expect("write report");
    println!("report -> {out_path}");

    if check && !gate_failures.is_empty() {
        eprintln!("perf structural gates failed:");
        for f in &gate_failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

//! Sim/runtime conformance inspector and loopback stress driver.
//!
//! * `conformance` — run the standard conformance scenarios (the same
//!   catalogue `tests/conformance.rs` pins) through both the simulator
//!   as oracle and the sharded UDP runtime at `RUNTIME_SHARDS`, print the
//!   agreement table, and exit non-zero on any divergence.
//! * `conformance --stress [N]` — serve `N` (default 10 000) DCPP
//!   devices and `N` probers over loopback UDP on the wall clock for a
//!   few seconds and require **zero** backpressure drops, zero decode
//!   errors, zero receive and send errors, zero unroutable datagrams, and
//!   zero false absence verdicts from the `ShardCounters` surface. This
//!   is the serving-runtime acceptance gate: the sharded host must
//!   sustain a five-digit device population on a CI container without
//!   shedding load — the busy path of the shard loop. Each shard's line
//!   also says how many datagrams one send call carried on average: how
//!   well its flushes coalesce into runs.
//! * `conformance --idle` — the idle path: one device host and one CP
//!   host on the wall clock for 3 s, first with no CP at all, then with
//!   five paper-default DCPP CPs holding the device at the paper's
//!   `L_nom` = 10 probes/s. Prints shard CPU, loop iterations, probes and
//!   `join` latency, and exits non-zero if a shard woke more often than
//!   blocking allows, a probe went unanswered, a verdict fired, or `join`
//!   had to wait for a blocked shard.
//!
//! `RUNTIME_SHARDS` controls the shard count of every host in the first
//! two modes; `--idle` is one device against five CPs and always runs one
//! shard per host.

use presence_bench::conformance::{
    dcpp_fleet, dcpp_pair, fixed_rate_pair, mixed_fleet, run_oracle, run_udp, sapp_pair,
    ConformanceScenario,
};
use presence_core::{CpId, DcppConfig, DcppCp, DcppDevice, DeviceId, DeviceMachine};
use presence_des::{SimDuration, SimTime};
use presence_runtime::{shards_from_env, Clock, HostConfig, HostHandle, ShardedHost, SystemClock};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn run_catalogue(shards: usize) -> bool {
    let scenarios: Vec<ConformanceScenario> = vec![
        dcpp_pair(),
        dcpp_fleet(6),
        sapp_pair(),
        mixed_fleet(),
        fixed_rate_pair(),
    ];
    let mut all_ok = true;
    println!("scenario        shards  cps  devices  verdicts  probes   agreement");
    for scenario in &scenarios {
        let oracle = run_oracle(scenario);
        let udp = match run_udp(scenario, shards) {
            Ok(r) => r,
            Err(e) => {
                println!("{:<15} {shards:>6}  UDP run failed: {e}", scenario.name);
                all_ok = false;
                continue;
            }
        };
        let verdicts = oracle.cps.iter().filter(|c| c.verdict.is_some()).count();
        let probes: u64 = oracle.cps.iter().map(|c| c.stats.probes_sent).sum();
        let ok = oracle == udp;
        all_ok &= ok;
        println!(
            "{:<15} {shards:>6} {:>4} {:>8} {:>9} {:>7}   {}",
            scenario.name,
            scenario.cps.len(),
            scenario.devices.len(),
            verdicts,
            probes,
            if ok { "EXACT" } else { "DIVERGED" }
        );
        if !ok {
            for (o, u) in oracle.cps.iter().zip(&udp.cps) {
                if o != u {
                    println!("  cp {:?}: oracle {o:?}\n           udp    {u:?}", o.cp);
                }
            }
            for (o, u) in oracle.devices.iter().zip(&udp.devices) {
                if o != u {
                    println!("  device {:?}: oracle {o:?} udp {u:?}", o.device);
                }
            }
            if oracle.timers_fired != udp.timers_fired {
                println!(
                    "  timers fired: oracle {} udp {}",
                    oracle.timers_fired, udp.timers_fired
                );
            }
        }
    }
    all_ok
}

/// Waits until the host's activity counter stops moving (in-flight
/// datagrams drained), bounded by `limit`.
fn settle(host: &HostHandle, limit: Duration) {
    let deadline = Instant::now() + limit;
    let mut last = host.activity();
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        let now = host.activity();
        if now == last {
            return;
        }
        last = now;
    }
}

fn run_stress(devices_n: u32, shards: usize) -> bool {
    let cfg = DcppConfig::paper_default(); // d_min = 500 ms: ~2 probes/s/CP
    let host_cfg = HostConfig::loopback(shards);
    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());

    let mut devices = ShardedHost::bind(&host_cfg).expect("bind device host");
    for d in 0..devices_n {
        devices.add_device(DeviceMachine::Dcpp(DcppDevice::new(DeviceId(d), cfg)), None);
    }
    let mut cps = ShardedHost::bind(&host_cfg).expect("bind cp host");
    // Stagger starts across one full probe period so the steady state is
    // phase-spread: a thundering herd of 10k simultaneous probes would
    // measure the kernel's socket buffer, not the host.
    let stagger = cfg.d_min.as_nanos() / u64::from(devices_n.max(1));
    for d in 0..devices_n {
        cps.add_prober(
            Box::new(DcppCp::new(CpId(d), cfg)),
            devices.addr_of(DeviceId(d)),
            DeviceId(d),
            SimTime::ZERO + SimDuration::from_nanos(u64::from(d) * stagger),
        );
    }

    println!(
        "stress: {devices_n} DCPP devices / {devices_n} CPs, {shards} shard(s) per host, \
         d_min {:.3} s",
        cfg.d_min.as_secs_f64()
    );
    let start = Instant::now();
    let device_handle = devices.start(Arc::clone(&clock));
    let cp_handle = cps.start(Arc::clone(&clock));

    // Run long enough for several full probe cycles per CP.
    std::thread::sleep(Duration::from_secs(4));
    let cp_report = cp_handle.join();
    settle(&device_handle, Duration::from_secs(2));
    let device_report = device_handle.join();
    let wall = start.elapsed().as_secs_f64();

    let sent: u64 = cp_report.probers.iter().map(|p| p.stats.probes_sent).sum();
    let answered: u64 = device_report
        .devices
        .iter()
        .map(|d| d.probes_received)
        .sum();
    let datagrams = cp_report.stats.datagrams_sent + device_report.stats.datagrams_sent;
    let false_verdicts = cp_report
        .probers
        .iter()
        .filter(|p| p.verdict.is_some())
        .count();
    let drops = cp_report.stats.dropped() + device_report.stats.dropped();
    let decode_errors = cp_report.stats.decode_errors + device_report.stats.decode_errors;
    let recv_errors = cp_report.stats.recv_errors + device_report.stats.recv_errors;
    let send_errors = cp_report.stats.send_errors + device_report.stats.send_errors;
    let unroutable = cp_report.stats.unroutable + device_report.stats.unroutable;

    println!(
        "stress: {sent} probes sent, {answered} answered, {datagrams} datagrams \
         in {wall:.1} s ({:.0} datagrams/s)",
        datagrams as f64 / wall
    );
    println!(
        "stress: backpressure drops {drops}, decode errors {decode_errors}, \
         recv_errors {recv_errors}, send_errors {send_errors}, unroutable {unroutable}, \
         false verdicts {false_verdicts}"
    );
    for (side, report) in [("cp", &cp_report), ("device", &device_report)] {
        for (i, s) in report.per_shard.iter().enumerate() {
            println!(
                "  {side} shard {i}: sent {} received {} timers {}, \
                 {:.1} datagrams per send call, {:.1} per receive call",
                s.datagrams_sent,
                s.datagrams_received,
                s.timers_fired,
                s.datagrams_sent as f64 / s.send_calls.max(1) as f64,
                s.datagrams_received as f64 / s.recv_calls.max(1) as f64
            );
        }
    }

    let mut ok = true;
    if drops + decode_errors + recv_errors + send_errors + unroutable != 0 {
        println!("FAIL: host shed load (the backpressure counters must read zero)");
        ok = false;
    }
    if false_verdicts != 0 {
        println!("FAIL: {false_verdicts} false absence verdicts under load");
        ok = false;
    }
    let min_cycles = u64::from(devices_n) * 4; // ≥ 4 full cycles per CP in 4 s
    let cycles: u64 = cp_report
        .probers
        .iter()
        .map(|p| p.stats.cycles_succeeded)
        .sum();
    if cycles < min_cycles {
        println!("FAIL: only {cycles} cycles completed (need ≥ {min_cycles})");
        ok = false;
    }
    ok
}

/// On-CPU nanoseconds so far of this process's live shard threads: the
/// first field of `/proc/self/task/<tid>/schedstat` for every thread named
/// `presence-shard-*` (0 where `/proc` has no such file).
fn shard_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|comm| comm.starts_with("presence-shard"))
        })
        .filter_map(|task| {
            let stat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

/// Loop iterations a shard may make per second with nothing to do (an
/// idle shard re-checks its stop flag 50 times a second; the polling loop
/// this gate keeps out made ~800).
const IDLE_ITERATIONS_PER_S: f64 = 120.0;
/// Loop iterations both hosts together may make per second at the paper's
/// 10 probes/s (~180 measured; the polling loop made ~1 700).
const PAPER_RATE_ITERATIONS_PER_S: f64 = 400.0;
/// `join` on blocked shards: one stop re-check (20 ms) plus slack.
const JOIN_LIMIT: Duration = Duration::from_millis(250);

/// One 3 s phase of `--idle`: a one-device host and a host of `cps_n`
/// paper-default DCPP CPs, one shard each, on the wall clock.
fn run_idle_phase(cps_n: u32) -> bool {
    let cfg = DcppConfig::paper_default();
    let host_cfg = HostConfig::loopback(1);
    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    let mut devices = ShardedHost::bind(&host_cfg).expect("bind device host");
    devices.add_device(DeviceMachine::dcpp_paper(DeviceId(0)), None);
    let mut cps = ShardedHost::bind(&host_cfg).expect("bind cp host");
    for cp in 0..cps_n {
        cps.add_prober(
            Box::new(DcppCp::new(CpId(cp), cfg)),
            devices.addr_of(DeviceId(0)),
            DeviceId(0),
            SimTime::from_nanos(cfg.delta_min.as_nanos() * u64::from(cp)),
        );
    }

    let start = Instant::now();
    let device_handle = devices.start(Arc::clone(&clock));
    let cp_handle = cps.start(Arc::clone(&clock));
    std::thread::sleep(Duration::from_secs(3));
    let wall = start.elapsed().as_secs_f64();
    let cpu_ms_per_s = shard_cpu_ns() as f64 / 1e6 / wall;
    let per_s = |handle: &HostHandle| handle.iterations()[0] as f64 / wall;
    let (device_rate, cp_rate) = (per_s(&device_handle), per_s(&cp_handle));

    let joining = Instant::now();
    let cp_report = cp_handle.join();
    let cp_join = joining.elapsed();
    settle(&device_handle, Duration::from_secs(2));
    let joining = Instant::now();
    let device_report = device_handle.join();
    let join = cp_join.max(joining.elapsed());

    let sent: u64 = cp_report.probers.iter().map(|p| p.stats.probes_sent).sum();
    let answered = device_report.devices[0].probes_received;
    let verdicts = cp_report
        .probers
        .iter()
        .filter(|p| p.verdict.is_some())
        .count();
    println!(
        "idle: {cps_n} CPs: shard CPU {cpu_ms_per_s:.1} ms/s, loop iterations/s device \
         {device_rate:.0} cp {cp_rate:.0}, {:.1} probes/s ({sent} sent, {answered} answered), \
         join {:.1} ms",
        sent as f64 / wall,
        join.as_secs_f64() * 1e3
    );

    let mut ok = true;
    let polling = if cps_n == 0 {
        device_rate.max(cp_rate) > IDLE_ITERATIONS_PER_S
    } else {
        device_rate + cp_rate > PAPER_RATE_ITERATIONS_PER_S
    };
    if polling {
        println!(
            "FAIL: shards are polling, not blocking (budget: {IDLE_ITERATIONS_PER_S} \
             iterations/s per idle shard, {PAPER_RATE_ITERATIONS_PER_S} for the paper-rate pair)"
        );
        ok = false;
    }
    // The other way to get a blocking loop wrong: never waking for a timer.
    if sent != answered || (sent as f64) < 1.6 * f64::from(cps_n) * wall {
        println!("FAIL: {sent} probes sent, {answered} answered (each CP owes ~2 a second)");
        ok = false;
    }
    if verdicts != 0 {
        println!("FAIL: {verdicts} false absence verdicts at the paper's own rate");
        ok = false;
    }
    if join > JOIN_LIMIT {
        println!("FAIL: join waited {join:?} for a blocked shard (limit {JOIN_LIMIT:?})");
        ok = false;
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let shards = shards_from_env();
    let mut stress: Option<u32> = None;
    let mut idle = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--stress" => {
                stress = Some(
                    iter.next()
                        .map(|v| v.parse().expect("--stress takes a device count"))
                        .unwrap_or(10_000),
                );
            }
            "--idle" => idle = true,
            other => panic!("unknown flag {other} (conformance [--stress [N] | --idle])"),
        }
    }

    let ok = if idle {
        // `&` not `&&`: the paper-rate phase runs even if the idle one failed.
        run_idle_phase(0) & run_idle_phase(5)
    } else {
        match stress {
            Some(n) => run_stress(n, shards),
            None => run_catalogue(shards),
        }
    };
    if !ok {
        std::process::exit(1);
    }
}

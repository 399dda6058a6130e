//! Loopback stress driver for the sharded UDP host.
//!
//! `conformance` serves 10 000 DCPP devices and 10 000 probers over
//! loopback UDP on the wall clock for a few seconds and requires **zero**
//! backpressure drops, zero decode errors, zero receive and send errors,
//! zero unroutable datagrams, and zero false absence verdicts, read from
//! the `HostReport` each host's `join` returns (its summed `ShardStats`
//! and its probers' verdicts). This is the serving-runtime acceptance
//! gate: the sharded host must sustain a five-digit device population on
//! a CI container without shedding load — the busy path of the shard
//! loop. Each shard's line also says how many datagrams one send call
//! carried on average: how well its flushes coalesce into runs.
//! `RUNTIME_SHARDS` sets the shard count of both hosts.
//!
//! Sim/runtime agreement is not checked here: the conformance suite
//! (`cargo test -p presence-bench --test conformance`) is that gate, and
//! the shard loop's idle path is gated by the runtime's own `shard::`
//! tests. It takes no argument: any argument is an error (exit 1).

use presence_bench::{exit_bad_argument, outln};
use presence_core::{CpId, DcppConfig, DcppCp, DcppDevice, DeviceId, DeviceMachine};
use presence_des::{SimDuration, SimTime};
use presence_runtime::{shards_from_env, Clock, HostConfig, HostHandle, ShardedHost, SystemClock};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Devices, and probers, each host serves.
const DEVICES: u32 = 10_000;

fn run_stress(shards: usize) -> bool {
    let cfg = DcppConfig::paper_default(); // d_min = 500 ms: ~2 probes/s/CP
    let host_cfg = HostConfig::loopback(shards);
    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());

    let mut devices = ShardedHost::bind(&host_cfg).expect("bind device host");
    for d in 0..DEVICES {
        devices.add_device(DeviceMachine::Dcpp(DcppDevice::new(DeviceId(d), cfg)), None);
    }
    let mut cps = ShardedHost::bind(&host_cfg).expect("bind cp host");
    // Stagger starts across one full probe period so the steady state is
    // phase-spread: a thundering herd of 10k simultaneous probes would
    // measure the kernel's socket buffer, not the host.
    let stagger = cfg.d_min.as_nanos() / u64::from(DEVICES);
    for d in 0..DEVICES {
        cps.add_prober(
            Box::new(DcppCp::new(CpId(d), cfg)),
            devices.addr_of(DeviceId(d)),
            DeviceId(d),
            SimTime::ZERO + SimDuration::from_nanos(u64::from(d) * stagger),
        );
    }

    outln!(
        "stress: {DEVICES} DCPP devices / {DEVICES} CPs, {shards} shard(s) per host, \
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

    outln!(
        "stress: {sent} probes sent, {answered} answered, {datagrams} datagrams \
         in {wall:.1} s ({:.0} datagrams/s)",
        datagrams as f64 / wall
    );
    outln!(
        "stress: backpressure drops {drops}, decode errors {decode_errors}, \
         recv_errors {recv_errors}, send_errors {send_errors}, unroutable {unroutable}, \
         false verdicts {false_verdicts}"
    );
    for (side, report) in [("cp", &cp_report), ("device", &device_report)] {
        for (i, s) in report.per_shard.iter().enumerate() {
            outln!(
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
        eprintln!("conformance: FAIL: host shed load (the backpressure counters must read zero)");
        ok = false;
    }
    if false_verdicts != 0 {
        eprintln!("conformance: FAIL: {false_verdicts} false absence verdicts under load");
        ok = false;
    }
    let min_cycles = u64::from(DEVICES) * 4; // ≥ 4 full cycles per CP in 4 s
    let cycles: u64 = cp_report
        .probers
        .iter()
        .map(|p| p.stats.cycles_succeeded)
        .sum();
    if cycles < min_cycles {
        eprintln!("conformance: FAIL: only {cycles} cycles completed (need ≥ {min_cycles})");
        ok = false;
    }
    ok
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        exit_bad_argument(
            "conformance",
            &format!("unexpected argument {arg}; usage: conformance (no arguments)"),
        );
    }
    if !run_stress(shards_from_env()) {
        std::process::exit(1);
    }
}

//! End-to-end tests over real loopback UDP sockets: both protocols, real
//! threads, real timers — the deployment configuration, not the simulator.
//! Devices and control points each run on their own one-shard
//! [`ShardedHost`], so every probe and reply crosses a socket pair.

use presence::core::{
    CpId, DcppConfig, DcppCp, DcppDevice, DeviceId, DeviceMachine, ProbeCycleConfig, Prober,
    SappConfig, SappCp, SappDevice, SappDeviceConfig,
};
use presence::des::{SimDuration, SimTime};
use presence::runtime::{Clock, HostConfig, HostHandle, HostReport, ShardedHost, SystemClock};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const DEVICE: DeviceId = DeviceId(0);

/// Binds `device` on one one-shard host and `probers` (all watching it)
/// on another; returns `(device host, prober host)`.
fn bind(device: DeviceMachine, probers: Vec<Box<dyn Prober + Send>>) -> (ShardedHost, ShardedHost) {
    let mut devices = ShardedHost::bind(&HostConfig::loopback(1)).expect("bind device host");
    devices.add_device(device, None);
    let mut cps = ShardedHost::bind(&HostConfig::loopback(1)).expect("bind cp host");
    for prober in probers {
        cps.add_prober(prober, devices.addr_of(DEVICE), DEVICE, SimTime::ZERO);
    }
    (devices, cps)
}

/// Starts both hosts of a [`bind`] pair on one wall clock.
fn start((devices, cps): (ShardedHost, ShardedHost)) -> (HostHandle, HostHandle) {
    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    (devices.start(Arc::clone(&clock)), cps.start(clock))
}

fn total_cycles(report: &HostReport) -> u64 {
    report
        .probers
        .iter()
        .map(|p| p.stats.cycles_succeeded)
        .sum()
}

#[test]
fn dcpp_over_udp_many_cps() {
    // Scaled-down timing: device takes 100 probes/s, CPs wait ≥ 40 ms.
    let mut cfg = DcppConfig::paper_default();
    cfg.delta_min = SimDuration::from_millis(10);
    cfg.d_min = SimDuration::from_millis(40);

    let (device, cps) = start(bind(
        DeviceMachine::Dcpp(DcppDevice::new(DEVICE, cfg)),
        (0..5u32)
            .map(|i| Box::new(DcppCp::new(CpId(i), cfg)) as Box<dyn Prober + Send>)
            .collect(),
    ));

    thread::sleep(Duration::from_millis(800));
    // Probers first, so the device has seen every probe they count.
    let cps = cps.join();
    let device = device.join();

    for p in &cps.probers {
        assert!(p.verdict.is_none(), "false verdict over UDP for {:?}", p.cp);
    }
    let total_cycles = total_cycles(&cps);
    assert!(
        total_cycles >= 20,
        "only {total_cycles} cycles across 5 CPs in 800 ms"
    );
    assert!(device.devices[0].probes_received >= total_cycles);
}

#[test]
fn sapp_over_udp_adapts_and_detects_crash() {
    // SAPP CP against a SAPP device; after 500 ms the device dies and the
    // CP must detect within δ + TOF + 3·TOS.
    let cp_cfg = SappConfig {
        // Slow the greedy start slightly so the wall-clock run is gentle.
        initial_delay: SimDuration::from_millis(30),
        delta_min: SimDuration::from_millis(30),
        ..SappConfig::paper_default()
    };
    let dev_cfg = SappDeviceConfig::paper_default();

    let (device, cp) = start(bind(
        DeviceMachine::Sapp(SappDevice::new(DEVICE, dev_cfg)),
        vec![Box::new(SappCp::new(CpId(0), cp_cfg))],
    ));

    thread::sleep(Duration::from_millis(500));
    // Kill the device only; the CP keeps probing into the void.
    let device = device.join();
    assert!(
        device.devices[0].probes_received > 3,
        "device barely probed"
    );

    // A live prober always has a timer armed (cycle timeout or next
    // wake); the timer queue runs empty only once it has reached its verdict.
    let deadline = Instant::now() + Duration::from_secs(20);
    while cp.next_deadline().is_some() && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    let cp = cp.join();
    assert!(
        cp.probers[0].verdict.is_some(),
        "CP never noticed the crash"
    );
    assert!(cp.probers[0].stats.cycles_succeeded > 3);
}

#[test]
fn udp_cp_survives_garbage_datagrams() {
    // A hostile or buggy peer sprays garbage at the CP's socket; the codec
    // must drop it and the protocol proceed unharmed.
    let mut cfg = DcppConfig::paper_default();
    cfg.delta_min = SimDuration::from_millis(10);
    cfg.d_min = SimDuration::from_millis(30);
    cfg.cycle = ProbeCycleConfig::paper_default();

    let hosts = bind(
        DeviceMachine::Dcpp(DcppDevice::new(DEVICE, cfg)),
        vec![Box::new(DcppCp::new(CpId(0), cfg))],
    );
    let cp_local = hosts.1.local_addrs()[0];
    let (device, cp) = start(hosts);

    // Garbage sprayer.
    let noise = std::net::UdpSocket::bind("127.0.0.1:0").expect("noise socket");
    let mut sprayed = 0;
    for i in 0..200u8 {
        if noise.send_to(&[0xff, i, i, i, i, i], cp_local).is_ok() {
            sprayed += 1;
        }
        if i % 50 == 0 {
            thread::sleep(Duration::from_millis(10));
        }
    }

    thread::sleep(Duration::from_millis(400));
    let cp = cp.join();
    let _ = device.join();
    assert!(
        cp.probers[0].verdict.is_none(),
        "garbage datagrams tricked the CP into a verdict"
    );
    let cycles = total_cycles(&cp);
    assert!(cycles >= 5, "garbage stalled the protocol: {cycles} cycles");
    // Dropped loudly, not silently: every garbage datagram that reached
    // the socket is counted as a decode error.
    assert!(sprayed > 0 && cp.stats.decode_errors > 0);
    assert!(cp.stats.decode_errors <= sprayed);
}

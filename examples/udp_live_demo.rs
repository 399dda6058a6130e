//! Live demo: the same protocol machines, on real UDP sockets.
//!
//! Serves a DCPP device from one single-shard [`ShardedHost`] and three
//! control points from another, over loopback UDP — no simulator involved.
//! After two wall-clock seconds the device host is shut down and the CPs
//! must detect its absence via probe timeouts. Run with:
//!
//! ```text
//! cargo run --example udp_live_demo
//! ```

use presence::core::{CpId, DcppConfig, DcppCp, DcppDevice, DeviceId, DeviceMachine};
use presence::des::{SimDuration, SimTime};
use presence::runtime::{Clock, HostConfig, ShardedHost, SystemClock};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn main() {
    // Scaled-down timing so the demo finishes in seconds: the device
    // accepts 100 probes/s and asks each CP to wait ≥ 50 ms.
    let mut cfg = DcppConfig::paper_default();
    cfg.delta_min = SimDuration::from_millis(10);
    cfg.d_min = SimDuration::from_millis(50);

    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    let device_id = DeviceId(0);

    let mut devices = ShardedHost::bind(&HostConfig::loopback(1)).expect("bind device socket");
    devices.add_device(DeviceMachine::Dcpp(DcppDevice::new(device_id, cfg)), None);
    let device_addr = devices.addr_of(device_id);
    println!("device listening on {device_addr} (DCPP, L_nom = 100/s, f_max = 20/s)");

    // Three CPs on their own host (own socket, own thread).
    let mut cps = ShardedHost::bind(&HostConfig::loopback(1)).expect("bind CP socket");
    for i in 0..3u32 {
        cps.add_prober(
            Box::new(DcppCp::new(CpId(i), cfg)),
            device_addr,
            device_id,
            SimTime::ZERO,
        );
    }
    let devices = devices.start(Arc::clone(&clock));
    let cps = cps.start(clock);

    // Let them probe for two real seconds…
    thread::sleep(Duration::from_secs(2));
    println!("stopping the device (silent crash — no Bye)…");
    let devices = devices.join();

    // …the CPs now run into four straight timeouts and conclude absence:
    // a prober that has reached its verdict leaves no timer armed.
    let deadline = Instant::now() + Duration::from_secs(10);
    while cps.next_deadline().is_some() && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
    }
    let cps = cps.join();

    let mut detected = 0;
    for p in &cps.probers {
        println!(
            "cp{:02}: {} cycles, {} probes, absent verdict: {}",
            p.cp.0,
            p.stats.cycles_succeeded,
            p.stats.probes_sent,
            p.verdict.map_or("none".into(), |v| format!(
                "{:.3}s on the runtime clock",
                v.at.as_secs_f64()
            ))
        );
        assert!(
            p.stats.cycles_succeeded > 5,
            "cp{} barely probed; expected dozens of cycles in 2 s",
            p.cp.0
        );
        if p.verdict.is_some() {
            detected += 1;
        }
    }

    println!(
        "device answered {} probes before shutdown; {detected}/3 CPs detected the crash",
        devices.devices[0].probes_received
    );
    assert_eq!(detected, 3, "all CPs must detect the crash");
    println!("\nSame state machines as the simulator, real sockets, same behaviour. ✓");
}

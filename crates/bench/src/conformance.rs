//! Sim/runtime conformance: the simulator as an oracle for the UDP host.
//!
//! The repo's central claim is that the *same* sans-io machines run under
//! the simulator and under the wall-clock runtime. This module turns that
//! claim into a checkable property: drive identical machine populations
//!
//! 1. through the product simulator — its own [`CpActor`], [`DeviceActor`]
//!    and [`NetworkActor`] over a zero-delay, lossless [`Fabric`]
//!    ([`run_oracle`]), and
//! 2. through real loopback UDP sockets under a [`ManualClock`]
//!    ([`run_udp`]),
//!
//! and require verdict-for-verdict agreement — absence reasons, verdict
//! instants, cycle counts, probes sent, probes answered.
//!
//! # Why the two paths must agree exactly
//!
//! The UDP run holds virtual time frozen while datagrams fly: the
//! controller advances the [`ManualClock`] to the next armed timer
//! deadline only once both hosts are provably quiescent, so every
//! message exchange completes "instantaneously" on the virtual time
//! axis — exactly the semantics of the oracle's zero-delay network.
//! With identical inputs at identical virtual instants, the machines
//! (which are deterministic) must produce identical outputs; any
//! disagreement is a runtime bug (mis-armed timer, mis-routed datagram,
//! dropped message), not noise.
//!
//! # What the simulator as oracle makes cheap
//!
//! The oracle's network is an argument, not code: a lossy or delayed
//! oracle is `Fabric::new(cap, delay, loss)` with other models, drawing
//! from the engine's seeded streams. That is the starting point of
//! lossy-lockstep conformance (ROADMAP item 2(a)) — what is left to build
//! there is the UDP-side shaper that makes the same draws.
//!
//! # The quiescence proof
//!
//! Sampling "no traffic for a while" would race a descheduled shard
//! thread. Instead the controller uses the shards' own counters for a
//! timing-free proof: a host is quiescent once, over two consecutive
//! observation windows, **every** shard completed at least one full
//! loop iteration (socket drained, due timers fired) while the summed
//! activity counters did not move. Any datagram still in a kernel
//! buffer would have been drained by one of those iterations and
//! counted; any due timer would have fired. Three such windows in a row
//! are required for margin.

use presence_core::{CpId, DcppConfig, DeviceId, DeviceMachine, ProbeCycleConfig};
use presence_des::{ActorId, SimDuration, SimTime, Simulation};
use presence_net::{ConstantDelay, Fabric, NoLoss};
use presence_runtime::{
    Clock, DeviceReport, HostConfig, HostHandle, ManualClock, ProberReport, ShardedHost,
};
use presence_sim::{
    Addr, CpActor, DeviceActor, NetworkActor, PresenceSim, ProcessingModel, Protocol, SimEvent,
};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One control point in a conformance scenario.
#[derive(Debug, Clone)]
pub struct CpSpec {
    /// Its identity.
    pub id: CpId,
    /// Its protocol and configuration.
    pub protocol: Protocol,
    /// The device it watches.
    pub target: DeviceId,
    /// When it starts probing (virtual time).
    pub start_at: SimTime,
}

/// One device in a conformance scenario.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// The fresh machine (identity, protocol, configuration); each run
    /// hosts its own clone.
    pub machine: DeviceMachine,
    /// When it goes silent (departs without a Bye), if ever.
    pub silence_at: Option<SimTime>,
}

/// A population of CPs and devices plus a virtual-time horizon.
#[derive(Debug, Clone)]
pub struct ConformanceScenario {
    /// Scenario name (for reports).
    pub name: &'static str,
    /// The control points.
    pub cps: Vec<CpSpec>,
    /// The devices.
    pub devices: Vec<DeviceSpec>,
    /// Virtual end time: timers with deadlines `≤ horizon` fire, matching
    /// `Simulation::run_until`.
    pub horizon: SimTime,
}

/// Everything one execution path reports, in the host's own report
/// vocabulary and sorted by id, so reports from the two paths compare
/// with `==`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceReport {
    /// Per-CP outcomes: verdict (instant and reason) and cycle statistics.
    pub cps: Vec<ProberReport>,
    /// Per-device outcomes: probes answered.
    pub devices: Vec<DeviceReport>,
    /// Timer entries that came due: one per CP start, one per device
    /// departure, one per protocol timer still armed at its deadline. The
    /// machines shrug off a stale timer, so a host that drops a
    /// `CancelTimer` reports the same verdicts and statistics — this
    /// count is what tells the two apart.
    pub timers_fired: u64,
}

// ---------------------------------------------------------------------
// Oracle path: the simulator over a zero-delay, lossless fabric.
// ---------------------------------------------------------------------

/// Runs the scenario through the simulator's own actors with a zero-delay
/// lossless network and zero device processing time. This is the
/// reference semantics.
///
/// # Panics
///
/// Panics, naming the scenario, if the fabric did not deliver every
/// message — which is what a [`CpSpec`] targeting a device the scenario
/// does not list comes to.
#[must_use]
pub fn run_oracle(scenario: &ConformanceScenario) -> ConformanceReport {
    let mut sim: PresenceSim = Simulation::with_actor_set(0);
    // One probe or its reply per CP is all that is ever in flight.
    let fabric = Fabric::new(
        scenario.cps.len().max(1),
        Box::new(ConstantDelay(SimDuration::ZERO)),
        Box::new(NoLoss),
    );
    let network = sim.add_member(NetworkActor::new(fabric).into());

    let mut routes: Vec<(Addr, ActorId)> = Vec::new();
    let horizon_secs = scenario.horizon.as_secs_f64();
    for spec in &scenario.devices {
        let instant = ProcessingModel::constant(SimDuration::ZERO);
        let device = DeviceActor::new(spec.machine.clone(), network, instant, 1.0, horizon_secs);
        let actor = sim.add_member(device.into());
        if let Some(at) = spec.silence_at {
            sim.schedule_at(at, actor, SimEvent::Crash);
        }
        routes.push((Addr::Device(spec.machine.id()), actor));
    }
    for spec in &scenario.cps {
        let cp = CpActor::new(spec.id, spec.protocol, network, spec.target, 0);
        let actor = sim.add_member(cp.into());
        sim.schedule_at(spec.start_at, actor, SimEvent::Join);
        routes.push((Addr::Cp(spec.id), actor));
    }
    let net = sim
        .actor_mut::<NetworkActor>(network)
        .expect("network actor");
    for &(addr, actor) in &routes {
        net.register(addr, actor);
    }

    sim.run_until(scenario.horizon);

    let now = sim.now();
    let fabric = sim
        .actor_mut::<NetworkActor>(network)
        .expect("network actor")
        .fabric_stats(now);
    assert!(
        fabric.unroutable == 0 && fabric.dropped_loss == 0 && fabric.dropped_overflow == 0,
        "scenario `{}`: the oracle's fabric must deliver every message, but ended with \
         {fabric:?}; CPs whose target is not among the scenario's devices: {:?}",
        scenario.name,
        scenario
            .cps
            .iter()
            .filter(|c| routes.iter().all(|&(a, _)| a != Addr::Device(c.target)))
            .map(|c| (c.id, c.target))
            .collect::<Vec<_>>()
    );

    let mut report = ConformanceReport {
        cps: Vec::new(),
        devices: Vec::new(),
        // Every engine event that is not a message hop (the `Send`
        // dispatch, the `Deliver` firing) is a Join, a Crash or a timer.
        timers_fired: sim.events_processed() - fabric.offered - fabric.delivered,
    };
    for &(addr, actor) in &routes {
        match addr {
            Addr::Cp(cp) => {
                let actor = sim.actor::<CpActor>(actor).expect("cp actor");
                report.cps.push(ProberReport {
                    cp,
                    verdict: actor.verdict(),
                    stats: actor.stats(),
                });
            }
            Addr::Device(device) => {
                let actor = sim.actor::<DeviceActor>(actor).expect("device actor");
                report.devices.push(DeviceReport {
                    device,
                    probes_received: actor.probes_received(),
                });
            }
        }
    }
    report.cps.sort_by_key(|c| c.cp.0);
    report.devices.sort_by_key(|d| d.device.0);
    report
}

// ---------------------------------------------------------------------
// UDP path: real sockets, lockstep virtual clock.
// ---------------------------------------------------------------------

/// Waits until every shard of every host has completed, in each of three
/// consecutive observation windows, at least one full loop iteration with
/// zero activity across all hosts (see the module docs for why this
/// proves no datagram is in flight and no timer is due).
fn wait_quiescent(hosts: &[&HostHandle], guard: Instant) {
    let sample = |hosts: &[&HostHandle]| -> (Vec<Vec<u64>>, u64) {
        (
            hosts.iter().map(|h| h.iterations()).collect(),
            hosts.iter().map(|h| h.activity()).sum(),
        )
    };
    let (mut prev_iters, mut prev_activity) = sample(hosts);
    let mut silent_windows = 0;
    while silent_windows < 3 {
        assert!(
            Instant::now() < guard,
            "conformance controller stalled waiting for quiescence \
             (activity {prev_activity})"
        );
        std::thread::sleep(Duration::from_micros(300));
        let (iters, activity) = sample(hosts);
        let advanced = iters
            .iter()
            .zip(&prev_iters)
            .all(|(now, before)| now.iter().zip(before).all(|(n, b)| n > b));
        if advanced && activity == prev_activity {
            silent_windows += 1;
        } else {
            silent_windows = 0;
        }
        prev_iters = iters;
        prev_activity = activity;
    }
}

/// Advances the shared [`ManualClock`] deadline-by-deadline until every
/// armed timer past `horizon` (or no timers remain).
fn lockstep(clock: &ManualClock, hosts: &[&HostHandle], horizon: SimTime) {
    // Generous wall-clock guard: a conformance run is hundreds of
    // quiescence rounds of a few milliseconds each.
    let guard = Instant::now() + Duration::from_secs(120);
    loop {
        wait_quiescent(hosts, guard);
        let Some(next) = hosts.iter().filter_map(|h| h.next_deadline()).min() else {
            break;
        };
        if next > horizon {
            break;
        }
        // Due entries would have fired (and counted as activity) before
        // quiescence was provable, so the published minimum is strictly
        // in the future.
        assert!(
            next > clock.now(),
            "quiescent host still publishes a due deadline"
        );
        clock.set(next);
    }
}

/// Runs the scenario over real loopback UDP: devices on one sharded host,
/// CPs on another, both on a shared [`ManualClock`] advanced in lockstep
/// with the armed timer deadlines.
pub fn run_udp(scenario: &ConformanceScenario, shards: usize) -> io::Result<ConformanceReport> {
    let config = HostConfig {
        // Aggressive polling: the controller's quiescence windows wait on
        // full loop iterations, so idle sleeps bound the per-step latency.
        poll_interval: Duration::from_micros(200),
        ..HostConfig::loopback(shards)
    };
    let clock = ManualClock::new();
    let shared: Arc<dyn Clock> = Arc::new(clock.clone());

    let mut devices = ShardedHost::bind(&config)?;
    for spec in &scenario.devices {
        devices.add_device(spec.machine.clone(), spec.silence_at);
    }
    let mut cps = ShardedHost::bind(&config)?;
    for spec in &scenario.cps {
        cps.add_prober(
            spec.protocol.prober(spec.id),
            devices.addr_of(spec.target),
            spec.target,
            spec.start_at,
        );
    }

    let device_handle = devices.start(Arc::clone(&shared));
    let cp_handle = cps.start(Arc::clone(&shared));

    lockstep(&clock, &[&device_handle, &cp_handle], scenario.horizon);

    // `join` hands both lists back sorted by id.
    let cp_report = cp_handle.join();
    let device_report = device_handle.join();
    Ok(ConformanceReport {
        cps: cp_report.probers,
        devices: device_report.devices,
        timers_fired: cp_report.stats.timers_fired + device_report.stats.timers_fired,
    })
}

// ---------------------------------------------------------------------
// Standard scenarios.
// ---------------------------------------------------------------------

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn at_ms(v: u64) -> SimTime {
    SimTime::ZERO + ms(v)
}

/// The catalogue's DCPP configuration: paper defaults with the waits
/// tightened so a few virtual seconds hold dozens of cycles.
fn fast_dcpp() -> DcppConfig {
    let mut cfg = DcppConfig::paper_default();
    cfg.delta_min = ms(20);
    cfg.d_min = ms(100);
    cfg
}

/// Device `id` of `protocol`, silent from `silence_at` if given.
fn device(id: u32, protocol: Protocol, silence_at: Option<SimTime>) -> DeviceSpec {
    DeviceSpec {
        machine: protocol.device(DeviceId(id)),
        silence_at,
    }
}

/// CP `id` watching device `id`.
fn cp(id: u32, protocol: Protocol, start_at: SimTime) -> CpSpec {
    CpSpec {
        id: CpId(id),
        protocol,
        target: DeviceId(id),
        start_at,
    }
}

/// One DCPP CP probing one present device.
#[must_use]
pub fn dcpp_pair() -> ConformanceScenario {
    let dcpp = Protocol::Dcpp { cfg: fast_dcpp() };
    ConformanceScenario {
        name: "dcpp-pair",
        cps: vec![cp(0, dcpp, SimTime::ZERO)],
        devices: vec![device(0, dcpp, None)],
        horizon: at_ms(5_000),
    }
}

/// A DCPP fleet with staggered starts and one device departing silently
/// mid-run, so both the steady-state and the timeout-cascade paths are
/// compared.
#[must_use]
pub fn dcpp_fleet(pairs: u32) -> ConformanceScenario {
    let dcpp = Protocol::Dcpp { cfg: fast_dcpp() };
    ConformanceScenario {
        name: "dcpp-fleet",
        cps: (0..pairs)
            .map(|d| cp(d, dcpp, at_ms(u64::from(d) * 7)))
            .collect(),
        // The last device departs halfway through.
        devices: (0..pairs)
            .map(|d| device(d, dcpp, (d == pairs - 1).then(|| at_ms(1_500))))
            .collect(),
        horizon: at_ms(3_000),
    }
}

/// One SAPP CP adapting against one SAPP device.
#[must_use]
pub fn sapp_pair() -> ConformanceScenario {
    let sapp = Protocol::sapp_paper();
    ConformanceScenario {
        name: "sapp-pair",
        cps: vec![cp(0, sapp, SimTime::ZERO)],
        devices: vec![device(0, sapp, None)],
        horizon: at_ms(2_000),
    }
}

/// DCPP and SAPP pairs sharing the same two sharded hosts, including a
/// SAPP device that departs.
#[must_use]
pub fn mixed_fleet() -> ConformanceScenario {
    let dcpp = Protocol::Dcpp { cfg: fast_dcpp() };
    let sapp = Protocol::sapp_paper();
    ConformanceScenario {
        name: "mixed-fleet",
        cps: vec![
            cp(0, dcpp, SimTime::ZERO),
            cp(1, sapp, at_ms(3)),
            cp(2, sapp, at_ms(6)),
        ],
        devices: vec![
            device(0, dcpp, None),
            device(1, sapp, None),
            device(2, sapp, Some(at_ms(900))),
        ],
        horizon: at_ms(2_000),
    }
}

/// The fixed-rate baseline prober against a DCPP device (it ignores the
/// reply payload) that departs mid-run: the baseline's steady cycles and
/// its timeout cascade, on the third `Prober` implementation.
#[must_use]
pub fn fixed_rate_pair() -> ConformanceScenario {
    ConformanceScenario {
        name: "fixed-rate-pair",
        cps: vec![cp(
            0,
            Protocol::FixedRate {
                cycle: ProbeCycleConfig::paper_default(),
                period: 0.1,
            },
            SimTime::ZERO,
        )],
        devices: vec![device(
            0,
            Protocol::Dcpp { cfg: fast_dcpp() },
            Some(at_ms(1_250)),
        )],
        horizon: at_ms(2_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presence_core::AbsenceReason;

    #[test]
    fn oracle_dcpp_pair_steady_state() {
        let report = run_oracle(&dcpp_pair());
        let cp = &report.cps[0];
        assert!(cp.verdict.is_none(), "false verdict: {:?}", cp.verdict);
        // d_min = 100 ms over a 5 s horizon: roughly one cycle per 100 ms.
        assert!(
            (40..=52).contains(&cp.stats.cycles_succeeded),
            "unexpected cycle count {}",
            cp.stats.cycles_succeeded
        );
        assert_eq!(cp.stats.retransmissions, 0);
        assert_eq!(report.devices[0].probes_received, cp.stats.probes_sent);
    }

    /// The paper's detection bound, on the three scenarios with a silent
    /// device. A CP whose device goes silent at `T` declares it absent no
    /// earlier than `T + worst_case_detection()`: the last cycle it starts
    /// after `T` must run out its whole retransmission budget, and over
    /// the lossless fabric that cycle is the only one that retransmits.
    /// When the CP's wait between cycles is bounded by `w` it declares it
    /// no later than `T + w + worst_case_detection()`. That `w` is
    /// `d_min` for a DCPP CP that is its device's only watcher and the
    /// period for a fixed-rate CP; a SAPP CP's wait adapts, so it gets the
    /// lower bound only. No CP whose device stays gets a verdict.
    /// Conformance requires the UDP report to equal the oracle's, so this
    /// holds for the host too.
    #[test]
    fn oracle_verdicts_keep_the_detection_bound() {
        for scenario in [dcpp_fleet(6), fixed_rate_pair(), mixed_fleet()] {
            let report = run_oracle(&scenario);
            for cp in &report.cps {
                let spec = scenario.cps.iter().find(|s| s.id == cp.cp).unwrap();
                let watchers = scenario.cps.iter().filter(|s| s.target == spec.target);
                assert_eq!(watchers.count(), 1, "{}: one CP per device", scenario.name);
                let device = scenario
                    .devices
                    .iter()
                    .find(|d| d.machine.id() == spec.target);
                let silent_at = device.unwrap().silence_at;
                let (cycle, wait) = match spec.protocol {
                    Protocol::Dcpp { cfg } => (cfg.cycle, Some(cfg.d_min)),
                    Protocol::FixedRate { cycle, period } => {
                        (cycle, Some(SimDuration::from_secs_f64(period)))
                    }
                    Protocol::Sapp { cp, .. } => (cp.cycle, None),
                };
                let detection = cycle.worst_case_detection();
                let name = format!("{} {:?}", scenario.name, cp.cp);
                match (silent_at, cp.verdict) {
                    (None, verdict) => assert!(verdict.is_none(), "{name}: false {verdict:?}"),
                    (Some(_), None) => panic!("{name}: silent device never detected"),
                    (Some(t), Some(v)) => {
                        assert_eq!(v.reason, AbsenceReason::ProbeTimeout, "{name}");
                        assert_eq!(
                            cp.stats.retransmissions,
                            u64::from(cycle.max_retransmissions),
                            "{name}: retransmissions"
                        );
                        assert!(
                            v.at >= t + detection,
                            "{name}: silent {t}, verdict {}",
                            v.at
                        );
                        if let Some(w) = wait {
                            let latest = t + w + detection;
                            assert!(v.at <= latest, "{name}: verdict {} after {latest}", v.at);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(
        expected = "scenario `dcpp-pair`: the oracle's fabric must deliver every message"
    )]
    fn oracle_names_the_scenario_when_a_target_is_missing() {
        let mut scenario = dcpp_pair();
        scenario.cps[0].target = DeviceId(9);
        let _ = run_oracle(&scenario);
    }

    #[test]
    fn oracle_sapp_pair_adapts_without_verdict() {
        let report = run_oracle(&sapp_pair());
        let cp = &report.cps[0];
        assert!(cp.verdict.is_none());
        assert!(cp.stats.cycles_succeeded > 5, "SAPP barely cycled");
    }
}

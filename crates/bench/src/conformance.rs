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
//! # What this path is for
//!
//! Zero delay and zero loss are the only network this socket path can
//! run in lockstep, and that is its whole job: to show the socket loop
//! moves the bytes the shard's protocol core emits, unchanged. Loss,
//! delay and stalls belong in the engine, where a core can be hosted
//! behind the network actor (ROADMAP item 4(a)); no UDP-side shaper is
//! built.
//!
//! # The quiescence proof
//!
//! Sampling "no traffic for a while" would race a descheduled shard
//! thread. Instead the controller reads what each shard publishes at the
//! end of every loop iteration, before it sleeps or blocks — one
//! snapshot holding the iteration count and that iteration's counts
//! together — for a timing-free proof. An observation window closes only
//! once **every** shard of both hosts has completed at least one full
//! loop iteration (due timers fired, socket drained) since it opened,
//! however long the shards' own idle sleeps make that; the window is
//! silent if the summed activity did not move across it. Any datagram
//! still in a kernel buffer would have been drained by one of those
//! iterations and counted in the same snapshot; any due timer would have
//! fired. Three silent windows in a row prove the hosts quiescent, with
//! margin. No wall-clock interval enters the proof, so the hosts run
//! with the shard loop's own coalescing window, as every other host
//! does; a shard that stops iterating altogether fails the run, naming
//! its host and shard.

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
struct CpSpec {
    /// Its identity.
    id: CpId,
    /// Its protocol and configuration.
    protocol: Protocol,
    /// The device it watches.
    target: DeviceId,
    /// When it starts probing (virtual time).
    start_at: SimTime,
}

/// One device in a conformance scenario.
#[derive(Debug, Clone)]
struct DeviceSpec {
    /// The fresh machine (identity, protocol, configuration); each run
    /// hosts its own clone.
    machine: DeviceMachine,
    /// When it goes silent (departs without a Bye), if ever.
    silence_at: Option<SimTime>,
}

/// A population of CPs and devices plus a virtual-time horizon.
#[derive(Debug, Clone)]
pub struct ConformanceScenario {
    /// Scenario name (for reports).
    pub name: &'static str,
    /// The control points.
    cps: Vec<CpSpec>,
    /// The devices.
    devices: Vec<DeviceSpec>,
    /// Virtual end time: timers with deadlines `≤ horizon` fire, matching
    /// `Simulation::run_until`.
    horizon: SimTime,
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
/// message — which is what a CP targeting a device the scenario
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

/// What the controller reads of its hosts at one instant: each host's
/// per-shard completed loop iterations, and the activity summed over all
/// of them.
#[derive(Clone)]
struct Sample {
    iterations: Vec<Vec<u64>>,
    activity: u64,
}

fn sample(hosts: &[(&str, &HostHandle)]) -> Sample {
    Sample {
        iterations: hosts.iter().map(|(_, h)| h.iterations()).collect(),
        activity: hosts.iter().map(|(_, h)| h.activity()).sum(),
    }
}

/// The first shard, as `(host, shard)` indices, that has not completed a
/// loop iteration between `opened` and `now`.
fn lagging(opened: &Sample, now: &Sample) -> Option<(usize, usize)> {
    opened
        .iterations
        .iter()
        .zip(&now.iterations)
        .enumerate()
        .find_map(|(h, (before, after))| {
            let s = before.iter().zip(after).position(|(b, a)| a <= b)?;
            Some((h, s))
        })
}

/// Waits until three consecutive observation windows were silent (see the
/// module docs for why that proves no datagram is in flight and no timer
/// is due). A window closes only once every shard has completed a loop
/// iteration since it opened; it is silent if the summed activity did not
/// move across it. `read` samples the hosts named by `names`, in order.
///
/// # Panics
///
/// Panics if the hosts are not quiescent by `guard`, naming the host and
/// the shard if some shard completed no iteration in the open window.
fn wait_quiescent(names: &[&str], mut read: impl FnMut() -> Sample, guard: Instant) {
    let mut opened = read();
    let mut silent_windows = 0;
    while silent_windows < 3 {
        let now = read();
        let lag = lagging(&opened, &now);
        if Instant::now() >= guard {
            let stalled = lag.map_or(
                "every shard iterates but activity still moves".into(),
                |(h, s)| {
                    format!(
                        "{} shard {s} completed no loop iteration since iteration {}",
                        names[h], opened.iterations[h][s]
                    )
                },
            );
            panic!(
                "conformance controller stalled waiting for quiescence: {stalled} (activity {})",
                now.activity
            );
        }
        if lag.is_some() {
            std::thread::sleep(Duration::from_micros(100));
            continue;
        }
        silent_windows = if now.activity == opened.activity {
            silent_windows + 1
        } else {
            0
        };
        opened = now;
    }
}

/// Advances the shared [`ManualClock`] deadline-by-deadline until every
/// armed timer past `horizon` (or no timers remain).
fn lockstep(clock: &ManualClock, hosts: &[(&str, &HostHandle)], horizon: SimTime) {
    // Generous wall-clock guard: a conformance run is hundreds of
    // quiescence rounds of a few milliseconds each.
    let guard = Instant::now() + Duration::from_secs(120);
    let names: Vec<&str> = hosts.iter().map(|&(name, _)| name).collect();
    loop {
        wait_quiescent(&names, || sample(hosts), guard);
        let Some(next) = hosts.iter().filter_map(|(_, h)| h.next_deadline()).min() else {
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
    let config = HostConfig::loopback(shards);
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

    let hosts = [("device host", &device_handle), ("CP host", &cp_handle)];
    lockstep(&clock, &hosts, scenario.horizon);

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

    fn at(iterations: &[&[u64]], activity: u64) -> Sample {
        Sample {
            iterations: iterations.iter().map(|shards| shards.to_vec()).collect(),
            activity,
        }
    }

    #[test]
    fn a_window_waits_for_every_shard_of_every_host() {
        let opened = at(&[&[5, 5], &[7]], 10);
        assert_eq!(lagging(&opened, &at(&[&[6, 6], &[8]], 10)), None);
        assert_eq!(lagging(&opened, &at(&[&[6, 5], &[8]], 10)), Some((0, 1)));
        assert_eq!(lagging(&opened, &at(&[&[9, 9], &[7]], 10)), Some((1, 0)));
    }

    /// Three silent windows take three rounds in which every shard
    /// iterated; a round with a lagging shard closes no window, and one
    /// whose activity moved starts the count again.
    #[test]
    fn quiescence_needs_three_silent_windows_closed_by_iterations() {
        let rounds = [
            at(&[&[0, 0]], 4),
            at(&[&[1, 0]], 4), // shard 1 lags: the window stays open
            at(&[&[1, 1]], 5), // closes, not silent
            at(&[&[2, 2]], 5),
            at(&[&[3, 3]], 5),
            at(&[&[4, 4]], 5),
        ];
        let mut reads = 0;
        let guard = Instant::now() + Duration::from_secs(60);
        wait_quiescent(
            &["host"],
            || {
                reads += 1;
                rounds[reads - 1].clone()
            },
            guard,
        );
        assert_eq!(reads, rounds.len());
    }

    #[test]
    #[should_panic(expected = "CP host shard 1 completed no loop iteration since iteration 3")]
    fn a_stall_names_the_host_and_shard_that_stopped_iterating() {
        let mut round = 0;
        let read = || {
            round += 1;
            at(&[&[round], &[round, 3]], 0)
        };
        wait_quiescent(&["device host", "CP host"], read, Instant::now());
    }

    #[test]
    fn oracle_sapp_pair_adapts_without_verdict() {
        let report = run_oracle(&sapp_pair());
        let cp = &report.cps[0];
        assert!(cp.verdict.is_none());
        assert!(cp.stats.cycles_succeeded > 5, "SAPP barely cycled");
    }
}

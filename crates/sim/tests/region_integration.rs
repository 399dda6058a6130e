//! Sim-layer integration tests for the regioned engine:
//! one-network-per-region cross-delivery, the multi-plane scenario's
//! window accounting, and the sharded mega path. (Trajectory equivalence
//! across topologies, regions, workers and window policies is the golden
//! replay suite's job: `tests/golden_equivalence.rs` at the workspace
//! root.)

use presence_core::{CpId, DeviceId, Probe, WireMessage};
use presence_des::WindowPolicy;
use presence_des::{ActorId, RegionSim, SimDuration, SimTime, Simulation};
use presence_net::{ConstantDelay, Fabric, NoLoss};
use presence_sim::{
    run_mega_sharded, shard_configs, Addr, CollectorActor, MegaConfig, MegaScenario, NetworkActor,
    PresenceActorSet, PresenceSim, Protocol, Scenario, ScenarioConfig, SimEvent, Topology,
};

const LINK_DELAY: SimDuration = SimDuration::from_millis(2);

fn probe(seq: u64) -> WireMessage {
    WireMessage::Probe(Probe { cp: CpId(0), seq })
}

fn fabric() -> Fabric {
    Fabric::new(1024, Box::new(ConstantDelay(LINK_DELAY)), Box::new(NoLoss))
}

/// Builds the two-hub population in fixed membership order; `add` places
/// each member (hub A, collector A, hub B, collector B) in its region and
/// returns its id. Ids come out identical on both engines because the
/// join order is identical.
fn build_two_hubs<F>(mut add: F) -> [ActorId; 4]
where
    F: FnMut(usize, PresenceActorSet) -> ActorId,
{
    let net_a = add(0, NetworkActor::new(fabric()).into());
    let col_a = add(0, CollectorActor::new().into());
    let net_b = add(1, NetworkActor::new(fabric()).into());
    let col_b = add(1, CollectorActor::new().into());
    [net_a, col_a, net_b, col_b]
}

fn inject_sends<S>(mut schedule: S, net_a: ActorId, net_b: ActorId)
where
    S: FnMut(SimTime, ActorId, SimEvent),
{
    for i in 0..40u32 {
        let t = SimTime::from_nanos(u64::from(i) * 137_000 + 13);
        let target = if i % 3 == 0 { net_b } else { net_a };
        schedule(
            t,
            target,
            SimEvent::Send {
                to: Addr::Device(DeviceId(0)),
                msg: probe(u64::from(i)),
            },
        );
    }
}

const END: SimTime = SimTime::from_nanos(100_000_000);

/// Sequential reference: both hubs and collectors on one engine.
fn run_two_hub_sequential() -> (String, u64) {
    let mut sim: PresenceSim = Simulation::with_actor_set(7);
    let [net_a, col_a, net_b, col_b] = build_two_hubs(|_, m| sim.add_member(m));
    // Hub A delivers into B's half and vice versa.
    sim.actor_mut::<NetworkActor>(net_a)
        .unwrap()
        .register(Addr::Device(DeviceId(0)), col_b);
    sim.actor_mut::<NetworkActor>(net_b)
        .unwrap()
        .register(Addr::Device(DeviceId(0)), col_a);
    inject_sends(
        |t, target, ev| {
            sim.schedule_at(t, target, ev);
        },
        net_a,
        net_b,
    );
    sim.run_until(END);
    let log = format!(
        "{:?} / {:?}",
        sim.actor::<CollectorActor>(col_a).unwrap().events(),
        sim.actor::<CollectorActor>(col_b).unwrap().events()
    );
    (log, sim.events_processed())
}

fn run_two_hub_regioned(workers: usize) -> (String, u64) {
    let mut reg: RegionSim<SimEvent, PresenceActorSet> = RegionSim::new(7, 2, LINK_DELAY);
    reg.set_workers(workers);
    let [net_a, col_a, net_b, col_b] = build_two_hubs(|r, m| reg.add_member(r, m));
    reg.actor_mut::<NetworkActor>(net_a)
        .unwrap()
        .register(Addr::Device(DeviceId(0)), col_b);
    reg.actor_mut::<NetworkActor>(net_b)
        .unwrap()
        .register(Addr::Device(DeviceId(0)), col_a);
    inject_sends(|t, target, ev| reg.schedule_at(t, target, ev), net_a, net_b);
    reg.run_until(END);
    let log = format!(
        "{:?} / {:?}",
        reg.actor::<CollectorActor>(col_a).unwrap().events(),
        reg.actor::<CollectorActor>(col_b).unwrap().events()
    );
    (log, reg.events_processed())
}

/// One `NetworkActor` per region, every delivery routed into the *other*
/// region: the fabric's constant delay equals the declared lookahead, so
/// each delivery lands exactly on a window boundary — and the regioned
/// run must still match the sequential engine bit-for-bit, at any worker
/// count.
#[test]
fn network_per_region_cross_delivery_matches_sequential() {
    let expected = run_two_hub_sequential();
    assert!(expected.1 > 40, "stimuli produced no deliveries");
    for workers in [1usize, 4] {
        let got = run_two_hub_regioned(workers);
        assert_eq!(got, expected, "workers={workers}");
    }
}

/// `run_mega_sharded` with one shard is byte-for-byte a plain
/// [`MegaScenario`] run: same root seed, same stream 0, same calendar
/// queue profile.
#[test]
fn single_shard_equals_plain_mega_scenario() {
    let cfg = MegaConfig::defaults(40, 3, 2.0, 9);
    let sharded = run_mega_sharded(&cfg, 1, 1);
    let mut sc = MegaScenario::build(cfg);
    sc.run();
    let plain = sc.collect();
    assert_eq!(
        serde_json::to_string(&sharded).unwrap(),
        serde_json::to_string(&vec![plain]).unwrap()
    );
}

/// The shard-per-region fan-out is thread-schedule independent: serial
/// and threaded execution serialise to identical JSON.
#[test]
fn sharded_serial_and_threaded_are_byte_identical() {
    let cfg = MegaConfig::defaults(64, 4, 2.0, 11);
    let serial = run_mega_sharded(&cfg, 4, 1);
    let threaded = run_mega_sharded(&cfg, 4, 4);
    assert_eq!(serial.len(), 4);
    assert!(
        serial.iter().all(|r| r.events_processed > 0),
        "every shard must have run"
    );
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&threaded).unwrap(),
        "worker count must not perturb results"
    );
}

/// Adaptive windows never barrier more than static ones on the same
/// multi-plane run (the adaptive policy's efficiency claim, on a real
/// scenario).
#[test]
fn decomposed_adaptive_windows_at_most_static() {
    let mut cfg = ScenarioConfig::paper_defaults(Protocol::sapp_paper(), 10, 20.0, 11);
    cfg.load_window = 2.0;
    let windows = |policy: WindowPolicy| {
        let mut sc = Scenario::build_on(cfg, Topology::Planes { regions: 4 });
        sc.set_workers(1);
        sc.set_window_policy(policy);
        sc.run();
        sc.region_counters().expect("windowed engine").0
    };
    let adaptive = windows(WindowPolicy::Adaptive);
    let static_ = windows(WindowPolicy::Static);
    assert!(
        adaptive <= static_,
        "adaptive executed {adaptive} windows, static {static_}"
    );
}

/// A region count beyond the plane count is clamped, and the plan says
/// so: the request is recorded as asked, the effective count is what ran.
#[test]
fn region_request_is_clamped_to_the_plane_count() {
    let cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 12, 5.0, 42);
    let scenario = Scenario::build_on(cfg, Topology::Planes { regions: 64 });
    let plan = scenario.region_plan();
    assert_eq!(plan.requested, 64);
    assert_eq!(plan.effective, presence_sim::DECOMPOSED_PLANES);
}

/// `sim_mut` hands out the sequential simulation, which a multi-region
/// scenario does not have: it must say so rather than return something
/// that is not the running engine.
#[test]
#[should_panic(expected = "sim_mut needs the sequential engine")]
fn sim_mut_on_a_regioned_scenario_panics_clearly() {
    let cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 12, 5.0, 42);
    let mut scenario = Scenario::build_on(cfg, Topology::Planes { regions: 2 });
    let _ = scenario.sim_mut();
}

/// The population split is even, total-preserving, and clamps the shard
/// count at the device count.
#[test]
fn shard_configs_split_preserves_population() {
    let cfg = MegaConfig::defaults(10, 5, 1.0, 1);
    let cfgs = shard_configs(&cfg, 4);
    assert_eq!(cfgs.len(), 4);
    assert_eq!(cfgs.iter().map(|c| c.devices).sum::<u32>(), 10);
    assert!(cfgs.iter().all(|c| c.cps >= 1));
    let few = shard_configs(&MegaConfig::defaults(2, 1, 1.0, 1), 8);
    assert_eq!(few.len(), 2);
}

//! Sim-layer integration tests for multi-lane runs:
//! one-network-per-region cross-delivery, the multi-plane scenario's
//! window accounting, and the sharded mega path. (Trajectory equivalence
//! across topologies, regions, workers and window policies is the golden
//! replay suite's job: `tests/golden_equivalence.rs` at the workspace
//! root.)

use presence_core::{CpId, DeviceId, Probe, WireMessage};
use presence_des::{QueueProfile, SimDuration, SimTime, Simulation, WindowPolicy};
use presence_net::{ConstantDelay, Fabric, NoLoss};
use presence_sim::{
    run_mega_sharded, shard_configs, Addr, CollectorActor, MegaConfig, MegaScenario, NetworkActor,
    PresenceSim, Protocol, Scenario, ScenarioConfig, SimEvent, Topology,
};

const LINK_DELAY: SimDuration = SimDuration::from_millis(2);

fn probe(seq: u64) -> WireMessage {
    WireMessage::Probe(Probe { cp: CpId(0), seq })
}

fn fabric() -> Fabric {
    Fabric::new(1024, Box::new(ConstantDelay(LINK_DELAY)), Box::new(NoLoss))
}

const END: SimTime = SimTime::from_nanos(100_000_000);

/// Runs the two-hub population — hub A, collector A, hub B, collector B,
/// in that membership order, so ids are the same at any lane count — with
/// half B in lane `lanes - 1`: `lanes == 1` is the one-lane reference.
fn run_two_hubs(lanes: usize, workers: usize) -> (String, u64) {
    let mut sim: PresenceSim =
        Simulation::with_lanes(7, lanes, Some(LINK_DELAY), QueueProfile::Heap);
    sim.set_workers(workers);
    let b = lanes - 1;
    let net_a = sim.add_member_in(0, NetworkActor::new(fabric()).into());
    let col_a = sim.add_member_in(0, CollectorActor::new().into());
    let net_b = sim.add_member_in(b, NetworkActor::new(fabric()).into());
    let col_b = sim.add_member_in(b, CollectorActor::new().into());
    // Hub A delivers into B's half and vice versa.
    sim.actor_mut::<NetworkActor>(net_a)
        .unwrap()
        .register(Addr::Device(DeviceId(0)), col_b);
    sim.actor_mut::<NetworkActor>(net_b)
        .unwrap()
        .register(Addr::Device(DeviceId(0)), col_a);
    for i in 0..40u32 {
        let t = SimTime::from_nanos(u64::from(i) * 137_000 + 13);
        let target = if i % 3 == 0 { net_b } else { net_a };
        sim.schedule_at(
            t,
            target,
            SimEvent::Send {
                to: Addr::Device(DeviceId(0)),
                msg: probe(u64::from(i)),
            },
        );
    }
    sim.run_until(END);
    let log = format!(
        "{:?} / {:?}",
        sim.actor::<CollectorActor>(col_a).unwrap().events(),
        sim.actor::<CollectorActor>(col_b).unwrap().events()
    );
    (log, sim.events_processed())
}

/// One `NetworkActor` per region, every delivery routed into the *other*
/// region: the fabric's constant delay equals the declared lookahead, so
/// each delivery lands exactly on a window boundary — and the two-lane
/// run must still match the one-lane run bit-for-bit, at any worker
/// count.
#[test]
fn network_per_region_cross_delivery_matches_sequential() {
    let expected = run_two_hubs(1, 1);
    assert!(expected.1 > 40, "stimuli produced no deliveries");
    for workers in [1usize, 4] {
        let got = run_two_hubs(2, workers);
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
        sc.region_counters().expect("four regions run windows").0
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

/// `sim_mut` hands out the running simulation on every topology: a trace
/// hook installed through it on four regions sees the same dispatches as
/// on one, at any worker count. (The hook order differs by design — one
/// region streams in firing order, several merge each barrier's records
/// by `(time, target)` — so both sides are put in that canonical order.)
#[test]
fn sim_mut_installs_a_trace_hook_on_any_region_count() {
    use std::cell::RefCell;
    use std::rc::Rc;
    let cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 12, 5.0, 42);
    let traced = |regions: usize, workers: usize| {
        let mut scenario = Scenario::build_on(cfg, Topology::Planes { regions });
        scenario.set_workers(workers);
        let log = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&log);
        scenario
            .sim_mut()
            .set_trace(move |r| sink.borrow_mut().push((r.time, r.target)));
        scenario.run();
        assert_eq!(
            log.borrow().len() as u64,
            scenario.sim_mut().events_processed()
        );
        let mut records = log.take();
        records.sort();
        records
    };
    let one_region = traced(1, 1);
    assert!(one_region.len() > 200, "the scenario must have run");
    for workers in [1usize, 4] {
        assert_eq!(traced(4, workers), one_region, "workers={workers}");
    }
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

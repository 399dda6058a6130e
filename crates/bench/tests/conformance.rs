//! Sim/runtime conformance: the simulator is the oracle for the sharded
//! UDP host.
//!
//! Every scenario here runs twice — once through the simulator's own
//! actors over a zero-delay lossless fabric, once over real loopback UDP
//! sockets under a lockstep virtual clock — and the two reports must agree
//! **exactly**: verdicts (instant and reason), cycle counts, probes sent,
//! probes answered, timers that came due. See `presence_bench::conformance` for why exact
//! agreement is the correct expectation and not flakiness-bait.
//!
//! The UDP side honours `RUNTIME_SHARDS` (the ci.sh conformance stage
//! runs the suite at 1 and at 4); each test also pins one explicit shard
//! count so a plain `cargo test` covers both single- and multi-shard
//! routing.

use presence_bench::conformance::{
    dcpp_fleet, dcpp_pair, fixed_rate_pair, mixed_fleet, run_oracle, run_udp, sapp_pair,
    ConformanceScenario,
};
use presence_runtime::shards_from_env;

fn assert_conformance(scenario: &ConformanceScenario, shards: usize) {
    let oracle = run_oracle(scenario);
    let udp = run_udp(scenario, shards).expect("udp conformance run failed");
    assert_eq!(
        oracle, udp,
        "scenario `{}` diverged between sim oracle and UDP runtime at {} shard(s)",
        scenario.name, shards
    );
}

#[test]
fn dcpp_pair_conforms() {
    assert_conformance(&dcpp_pair(), shards_from_env());
}

#[test]
fn dcpp_fleet_conforms_single_shard() {
    assert_conformance(&dcpp_fleet(6), 1);
}

#[test]
fn dcpp_fleet_conforms_multi_shard() {
    assert_conformance(&dcpp_fleet(6), shards_from_env().max(2));
}

#[test]
fn sapp_pair_conforms() {
    assert_conformance(&sapp_pair(), shards_from_env());
}

#[test]
fn mixed_fleet_conforms() {
    assert_conformance(&mixed_fleet(), shards_from_env());
}

/// `FixedRateCp` is the one `Prober` the UDP host had never run under the
/// oracle; pinned at both shard counts like the DCPP fleet.
#[test]
fn fixed_rate_pair_conforms_single_shard() {
    assert_conformance(&fixed_rate_pair(), 1);
}

#[test]
fn fixed_rate_pair_conforms_multi_shard() {
    assert_conformance(&fixed_rate_pair(), 4);
}

/// The deflaked successor of the old `dcpp_over_in_memory_transport`
/// test, which slept 400 wall-clock milliseconds and hoped for ≥ 3
/// cycles. On the virtual clock the cycle count is *exact*, the verdict
/// check is *exact*, and CI load cannot perturb either.
#[test]
fn dcpp_runtime_cycles_are_exact_on_virtual_clock() {
    let scenario = dcpp_pair();
    let report = run_udp(&scenario, 1).expect("udp run failed");
    let cp = &report.cps[0];
    assert!(cp.verdict.is_none(), "false absence verdict");
    // horizon 5 s, d_min 100 ms: the oracle pins the exact count; here we
    // assert the envelope so the test documents the workload by itself.
    assert!(
        (40..=52).contains(&cp.stats.cycles_succeeded),
        "cycle count {} outside the d_min-determined envelope",
        cp.stats.cycles_succeeded
    );
    assert_eq!(cp.stats.retransmissions, 0, "loopback lost probes");
    assert_eq!(
        report.devices[0].probes_received, cp.stats.probes_sent,
        "device answered a different number of probes than the CP sent"
    );
}

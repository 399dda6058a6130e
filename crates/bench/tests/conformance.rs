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
//!
//! Each scenario's oracle counts are pinned too, so a change that moves
//! both paths alike (a machine or scenario edit) is red here as well.
//! Every test prints its agreement line; `--nocapture` shows them.

use presence_bench::conformance::{
    dcpp_fleet, dcpp_pair, fixed_rate_pair, mixed_fleet, run_oracle, run_udp, sapp_pair,
    ConformanceReport, ConformanceScenario,
};
use presence_runtime::shards_from_env;

/// CPs, devices, verdicts, probes sent and timers fired.
type Counts = (usize, usize, usize, u64, u64);

fn counts(report: &ConformanceReport) -> Counts {
    (
        report.cps.len(),
        report.devices.len(),
        report.cps.iter().filter(|c| c.verdict.is_some()).count(),
        report.cps.iter().map(|c| c.stats.probes_sent).sum(),
        report.timers_fired,
    )
}

/// Runs `scenario` through the oracle and over UDP at `shards`, requires
/// the two reports to be equal and the oracle's counts to be `pinned`.
fn assert_conformance(scenario: &ConformanceScenario, shards: usize, pinned: Counts) {
    let oracle = run_oracle(scenario);
    let udp = run_udp(scenario, shards).expect("udp conformance run failed");
    let (cps, devices, verdicts, probes, timers) = counts(&oracle);
    println!(
        "{} at {shards} shard(s): {cps} CPs, {devices} devices, {verdicts} verdicts, \
         {probes} probes, {timers} timers: {}",
        scenario.name,
        if oracle == udp { "EXACT" } else { "DIVERGED" }
    );
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
    assert_eq!(
        oracle, udp,
        "scenario `{}` diverged between sim oracle and UDP runtime at {} shard(s)",
        scenario.name, shards
    );
    assert_eq!(
        counts(&oracle),
        pinned,
        "scenario `{}`: oracle (CPs, devices, verdicts, probes, timers) moved",
        scenario.name
    );
}

#[test]
fn dcpp_pair_conforms() {
    assert_conformance(&dcpp_pair(), shards_from_env(), (1, 1, 0, 51, 51));
}

#[test]
fn dcpp_fleet_conforms_single_shard() {
    assert_conformance(&dcpp_fleet(6), 1, (6, 6, 1, 170, 172));
}

#[test]
fn dcpp_fleet_conforms_multi_shard() {
    assert_conformance(
        &dcpp_fleet(6),
        shards_from_env().max(2),
        (6, 6, 1, 170, 172),
    );
}

#[test]
fn sapp_pair_conforms() {
    assert_conformance(&sapp_pair(), shards_from_env(), (1, 1, 0, 27, 27));
}

#[test]
fn mixed_fleet_conforms() {
    assert_conformance(&mixed_fleet(), shards_from_env(), (3, 3, 1, 65, 67));
}

/// `FixedRateCp` is the one `Prober` the UDP host had never run under the
/// oracle; pinned at both shard counts like the DCPP fleet.
#[test]
fn fixed_rate_pair_conforms_single_shard() {
    assert_conformance(&fixed_rate_pair(), 1, (1, 1, 1, 17, 19));
}

#[test]
fn fixed_rate_pair_conforms_multi_shard() {
    assert_conformance(&fixed_rate_pair(), 4, (1, 1, 1, 17, 19));
}

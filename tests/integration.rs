//! Workspace integration tests: cross-crate behaviour that no single crate
//! can check alone — protocol machines under the full simulator, and the
//! Bye broadcast path.

use presence::sim::test_profile::horizon;
use presence::sim::{ChurnModel, LossKind, Protocol, Scenario, ScenarioConfig};

/// DCPP's steady-state per-CP wait must equal `k · δ_min` (once
/// `k · δ_min > d_min`) — checked through the whole stack: sans-io
/// machines, DES engine, network fabric.
#[test]
fn dcpp_steady_state_wait_is_k_delta_min() {
    let k = 20;
    let cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), k, 600.0, 5);
    let mut scenario = Scenario::build(cfg);
    scenario.run();
    let result = scenario.collect();
    // A misroute would show up as probe loss here; the unroutable counter
    // separates the two failure modes.
    debug_assert_eq!(result.messages_unroutable, 0, "misrouted messages");
    // k·δ_min = 20 · 0.1 = 2 s; each CP's mean delay converges there.
    for cp in result.active_cps() {
        assert!(
            (cp.mean_delay - 2.0).abs() < 0.3,
            "cp{:02} mean delay {} (expected ≈ 2.0)",
            cp.id.0,
            cp.mean_delay
        );
    }
    assert!(
        (result.load_mean - 10.0).abs() < 1.5,
        "load {}",
        result.load_mean
    );
}

/// A graceful Bye reaches every active CP through the broadcast path and
/// stops all probing immediately.
#[test]
fn bye_broadcast_stops_everyone() {
    let cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 10, 200.0, 17);
    let mut scenario = Scenario::build(cfg);
    scenario.device_bye_at(100.0);
    scenario.run();
    let result = scenario.collect();
    for cp in &result.cps {
        let at = cp.detected_absent_at.expect("bye missed");
        assert!(
            (100.0..100.5).contains(&at),
            "cp{:02} verdict at {at}",
            cp.id.0
        );
    }
    // No probes answered after the leave.
    let late_probes: usize = result
        .load_series
        .iter()
        .filter(|&&(t, rate)| t > 105.0 && rate > 0.0)
        .count();
    assert_eq!(late_probes, 0, "device kept answering after its Bye");
}

/// Loss + churn + crash together: the protocols still converge to a
/// correct verdict for every CP that was present at crash time.
#[test]
fn stress_churn_loss_crash() {
    let mut cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 30, 900.0, 23);
    cfg.initially_active = 10;
    cfg.churn = ChurnModel::UniformResample {
        min: 1,
        max: 30,
        rate: 0.1,
    };
    cfg.loss = LossKind::Bursty(0.05);
    let mut scenario = Scenario::build(cfg);
    scenario.crash_device_at(800.0);
    scenario.run();
    let result = scenario.collect();

    // Under BURSTY loss a run of four swallowed probes is a legitimate
    // (if unfortunate) absence verdict — the bounded-retransmission design
    // trades false positives for fast detection, and the paper does not
    // add an acquittal mechanism. What must hold: every verdict issued
    // before the crash is backed by a failed cycle (no verdict out of thin
    // air).
    for cp in &result.cps {
        if let Some(at) = cp.detected_absent_at {
            if at < 800.0 {
                assert!(
                    cp.cycles_failed > 0,
                    "cp{:02} verdict at {at} without any failed cycle",
                    cp.id.0
                );
            }
        }
    }
    // The device load stayed capped until the crash despite loss + churn.
    for &(t, rate) in &result.load_series {
        if t > 50.0 && t < 790.0 {
            assert!(rate < 40.0, "load spike {rate} at t={t} escaped control");
        }
    }
}

/// The E2E fairness contrast that is the paper's main claim, at reduced
/// scale so it runs in CI time.
#[test]
fn headline_fairness_contrast() {
    let fairness = |protocol: Protocol| {
        let cfg = ScenarioConfig::paper_defaults(protocol, 10, horizon(1_500.0, 5_000.0), 3);
        let mut scenario = Scenario::build(cfg);
        scenario.run();
        scenario.collect().fairness_jain
    };
    let sapp = fairness(Protocol::sapp_paper());
    let dcpp = fairness(Protocol::dcpp_paper());
    assert!(
        dcpp > 0.99,
        "DCPP should be essentially perfectly fair, got {dcpp}"
    );
    assert!(
        dcpp >= sapp,
        "DCPP ({dcpp}) must not be less fair than SAPP ({sapp})"
    );
}

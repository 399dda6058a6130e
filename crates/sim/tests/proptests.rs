//! Property-based tests over randomly generated scenarios: the invariants
//! that must hold for *any* configuration, not just the paper's points.

use presence_sim::{
    ChurnModel, DelayKind, LossKind, Protocol, Regime, Scenario, ScenarioConfig, ScenarioSpec,
    Switch,
};
use proptest::prelude::*;

/// Small scenario space that stays fast enough for property testing.
fn any_protocol() -> impl Strategy<Value = Protocol> {
    prop_oneof![
        Just(Protocol::sapp_paper()),
        Just(Protocol::dcpp_paper()),
        Just(Protocol::FixedRate {
            cycle: presence_core::ProbeCycleConfig::paper_default(),
            period: 0.5,
        }),
    ]
}

fn any_loss() -> impl Strategy<Value = LossKind> {
    prop_oneof![
        Just(LossKind::None),
        (0.001..0.1f64).prop_map(LossKind::Bernoulli),
        (0.01..0.1f64).prop_map(LossKind::Bursty),
    ]
}

fn any_churn(max_pool: u32) -> impl Strategy<Value = ChurnModel> {
    prop_oneof![
        Just(ChurnModel::Static),
        (10.0..40.0f64, 1..max_pool)
            .prop_map(|(at, leavers)| ChurnModel::BurstLeave { at, leavers }),
        (0.02..0.2f64).prop_map(move |rate| ChurnModel::UniformResample {
            min: 1,
            max: max_pool,
            rate,
        }),
        (5.0..30.0f64, 2..max_pool.max(3), 1.0..20.0f64, 0.0..20.0f64).prop_map(
            |(at, peak, ramp, hold)| ChurnModel::FlashCrowd {
                at,
                peak,
                ramp,
                hold,
            }
        ),
        (20.0..200.0f64, 0.05..0.5f64).prop_map(move |(period, rate)| ChurnModel::Diurnal {
            period,
            min: 1,
            max: max_pool,
            rate,
        }),
    ]
}

fn any_delay_kind() -> impl Strategy<Value = DelayKind> {
    prop_oneof![
        Just(DelayKind::ThreeModePaper),
        (0.0001..0.01f64).prop_map(DelayKind::Constant),
        (0.0001..0.001f64, 0.001..0.01f64).prop_map(|(lo, hi)| DelayKind::Uniform(lo, hi)),
    ]
}

/// A random spec with up to three models of each kind — the first in
/// `config`, the rest as switches at 25, 50 and 75 s (so kinds share
/// instants) — the whole authorable surface of the scenario lab.
fn any_spec() -> impl Strategy<Value = ScenarioSpec> {
    let models = (
        prop::collection::vec(any_delay_kind(), 1..4),
        prop::collection::vec(any_loss(), 1..4),
        prop::collection::vec(any_churn(8), 1..4),
    );
    (
        any_protocol(),
        2..10u32,
        models,
        any::<u64>(),
        prop_oneof![Just(None), (10.0..90.0f64).prop_map(Some)],
    )
        .prop_map(
            |(protocol, pool, (delays, losses, churns), seed, crash_at)| {
                let mut cfg = ScenarioConfig::paper_defaults(protocol, pool, 100.0, seed);
                cfg.load_window = 5.0;
                cfg.delay = delays[0];
                cfg.loss = losses[0];
                cfg.churn = churns[0];
                let mut spec = ScenarioSpec::new("prop-spec", "random lab spec", cfg);
                // Model k takes over at 100·k/4 seconds.
                let later = |n: usize| (1..n).map(|k| 100.0 * k as f64 / 4.0);
                spec.switches = later(delays.len())
                    .zip(delays[1..].iter().map(|&d| Regime::Delay(d)))
                    .chain(later(losses.len()).zip(losses[1..].iter().map(|&l| Regime::Loss(l))))
                    .chain(later(churns.len()).zip(churns[1..].iter().map(|&c| Regime::Churn(c))))
                    .map(|(at, to)| Switch { at, to })
                    .collect();
                spec.switches.sort_by(|a, b| a.at.total_cmp(&b.at));
                spec.crash_at = crash_at;
                spec
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid spec serialises to JSON and parses back **losslessly** —
    /// the catalog's round-trip guarantee, over the whole authorable
    /// surface (every model kind, regime switches, optional crash).
    #[test]
    fn scenario_spec_round_trips_losslessly(spec in any_spec()) {
        prop_assert!(spec.validate().is_ok(), "generated spec must be valid");
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back = ScenarioSpec::from_json(&json)
            .map_err(|e| TestCaseError::fail(format!("reparse: {e}")))?;
        prop_assert_eq!(&back, &spec, "round-trip must be lossless");
        // And serialisation is deterministic: a second trip is identical.
        prop_assert_eq!(serde_json::to_string_pretty(&back).unwrap(), json);
    }

    /// Any valid spec *runs*: the lowering produces a live scenario whose
    /// regime windows tile the horizon.
    #[test]
    fn any_spec_builds_and_slices(spec in any_spec()) {
        let windows = spec.regime_windows();
        prop_assert_eq!(windows[0].0, 0.0);
        prop_assert_eq!(windows[windows.len() - 1].1, spec.config.duration);
        for pair in windows.windows(2) {
            prop_assert_eq!(pair[0].1, pair[1].0, "windows must tile");
        }
        let report = presence_sim::run_lab(&spec, &[spec.config.seed], 1)
            .map_err(|e| TestCaseError::fail(format!("run: {e}")))?;
        prop_assert_eq!(report.per_seed.len(), 1);
        prop_assert!(report.per_seed[0].events_processed > 0);
    }

    /// No scenario configuration panics, and basic accounting invariants
    /// hold: cycles succeeded ≤ probes sent; the device answers at most
    /// the number of probes admitted to the network.
    #[test]
    fn scenario_accounting_invariants(
        protocol in any_protocol(),
        loss in any_loss(),
        pool in 2u32..12,
        seed in 0u64..1_000,
    ) {
        let mut cfg = ScenarioConfig::paper_defaults(protocol, pool, 60.0, seed);
        cfg.loss = loss;
        let mut scenario = Scenario::build(cfg);
        scenario.run();
        let r = scenario.collect();

        let probes_sent: u64 = r.cps.iter().map(|c| c.probes_sent).sum();
        let cycles: u64 = r.cps.iter().map(|c| c.cycles_succeeded).sum();
        prop_assert!(cycles <= probes_sent, "more successes than probes");
        prop_assert!(
            r.device_probes <= probes_sent,
            "device answered {} of {} probes sent",
            r.device_probes,
            probes_sent
        );
        prop_assert!(r.messages_offered >= probes_sent);
        // Load series values are non-negative and finite.
        for &(_, v) in &r.load_series {
            prop_assert!(v >= 0.0 && v.is_finite());
        }
    }

    /// DCPP's device budget holds under ANY churn and loss: no settled
    /// measurement window may exceed L_nom by more than the join-burst
    /// allowance the paper describes.
    #[test]
    fn dcpp_load_cap_universal(
        loss in any_loss(),
        churn in any_churn(12),
        pool in 2u32..12,
        seed in 0u64..1_000,
    ) {
        let mut cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), pool, 120.0, seed);
        cfg.loss = loss;
        cfg.churn = churn;
        cfg.load_window = 5.0;
        let mut scenario = Scenario::build(cfg);
        scenario.run();
        let r = scenario.collect();
        // A 5 s window can absorb one join burst of ≤ pool first-probes on
        // top of the L_nom budget.
        let cap = 10.0 + f64::from(pool) / 5.0 + 1.0;
        for &(t, v) in &r.load_series {
            if t < 5.0 {
                continue; // initial joins
            }
            prop_assert!(
                v <= cap,
                "window at t={t} carried {v} probes/s (cap {cap})"
            );
        }
    }

    /// Determinism holds for every configuration: same seed, same result.
    #[test]
    fn any_scenario_is_deterministic(
        protocol in any_protocol(),
        loss in any_loss(),
        pool in 2u32..8,
        seed in 0u64..1_000,
    ) {
        let run = || {
            let mut cfg = ScenarioConfig::paper_defaults(protocol, pool, 30.0, seed);
            cfg.loss = loss;
            let mut scenario = Scenario::build(cfg);
            scenario.run();
            let r = scenario.collect();
            (r.events_processed, r.device_probes, r.load_series)
        };
        prop_assert_eq!(run(), run());
    }

    /// A device crash is detected by every CP active at the time, under
    /// lossless networks, for every protocol.
    #[test]
    fn crash_always_detected_lossless(
        protocol in any_protocol(),
        pool in 2u32..8,
        seed in 0u64..1_000,
        crash_at in 20.0..40.0f64,
    ) {
        let cfg = ScenarioConfig::paper_defaults(protocol, pool, crash_at + 60.0, seed);
        let mut scenario = Scenario::build(cfg);
        scenario.crash_device_at(crash_at);
        scenario.run();
        let r = scenario.collect();
        for cp in r.active_cps() {
            let at = cp.detected_absent_at;
            prop_assert!(
                at.is_some(),
                "cp{:02} never detected the crash at {crash_at}",
                cp.id.0
            );
            let at = at.unwrap();
            prop_assert!(at >= crash_at, "verdict {at} precedes crash {crash_at}");
            // Generous universal bound: one maximal probing interval
            // (δ_max = 10 for SAPP) + verdict time + slack.
            prop_assert!(at - crash_at < 12.0, "detection took {}", at - crash_at);
        }
    }

    /// The fabric conserves messages: offered = admitted + dropped, and
    /// under no loss, nothing is dropped unless the buffer overflows
    /// (which the paper-sized buffer never does at these scales).
    #[test]
    fn lossless_network_drops_nothing(
        protocol in any_protocol(),
        pool in 2u32..10,
        seed in 0u64..1_000,
    ) {
        let cfg = ScenarioConfig::paper_defaults(protocol, pool, 60.0, seed);
        let mut scenario = Scenario::build(cfg);
        scenario.run();
        let r = scenario.collect();
        prop_assert_eq!(r.messages_dropped_loss, 0);
        prop_assert_eq!(r.messages_dropped_overflow, 0);
    }
}

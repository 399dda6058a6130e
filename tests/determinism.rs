//! Deterministic-replay regression tests: building and running the same
//! `ScenarioConfig` (same seed) twice must yield **bit-identical**
//! `ScenarioResult` metrics — the property every experiment in the paper
//! reproduction leans on (common random numbers, replayable figures).
//!
//! Serializing the whole result and comparing the JSON text is the
//! strictest practical check: every counter, every series point, every
//! floating-point metric must match to the last bit.

use presence::core::ProbeCycleConfig;
use presence::sim::{ChurnModel, LossKind, Protocol, Scenario, ScenarioConfig};

fn run_to_json(protocol: Protocol, seed: u64) -> String {
    let mut cfg = ScenarioConfig::paper_defaults(protocol, 12, 120.0, seed);
    // Exercise the stochastic subsystems too: loss and churn both draw from
    // the seeded streams, so replay must cover them.
    cfg.loss = LossKind::Bernoulli(0.01);
    cfg.churn = ChurnModel::UniformResample {
        min: 2,
        max: 12,
        rate: 0.05,
    };
    let mut scenario = Scenario::build(cfg);
    scenario.run();
    let result = scenario.collect();
    serde_json::to_string(&result).expect("ScenarioResult serializes")
}

fn assert_replays_bit_identical(protocol: Protocol, name: &str) {
    let a = run_to_json(protocol, 42);
    let b = run_to_json(protocol, 42);
    assert_eq!(a, b, "{name}: same seed must replay bit-identically");

    let c = run_to_json(protocol, 43);
    assert_ne!(a, c, "{name}: different seeds should not collide");
}

#[test]
fn sapp_replay_is_bit_identical() {
    assert_replays_bit_identical(Protocol::sapp_paper(), "SAPP");
}

#[test]
fn dcpp_replay_is_bit_identical() {
    assert_replays_bit_identical(Protocol::dcpp_paper(), "DCPP");
}

#[test]
fn fixed_rate_replay_is_bit_identical() {
    assert_replays_bit_identical(
        Protocol::FixedRate {
            cycle: ProbeCycleConfig::paper_default(),
            period: 0.5,
        },
        "fixed-rate",
    );
}

/// The parallel replication engine must be invisible in the results: a
/// replication study fanned over 4 workers (`PRESENCE_JOBS=4` /
/// `--jobs 4`) is bit-identical to the serial run (`PRESENCE_JOBS=1`),
/// per-seed results and interval block alike, for both protocols. Only
/// wall-clock may differ.
#[test]
fn parallel_replication_equals_serial() {
    use presence::sim::{run_lab, LabReport, ScenarioSpec};

    for (name, protocol) in [
        ("SAPP", Protocol::sapp_paper()),
        ("DCPP", Protocol::dcpp_paper()),
    ] {
        let mut base = ScenarioConfig::paper_defaults(protocol, 8, 90.0, 0);
        // Stochastic subsystems on, so workers exercise the full RNG
        // stream isolation story.
        base.loss = LossKind::Bernoulli(0.01);
        base.churn = ChurnModel::UniformResample {
            min: 2,
            max: 8,
            rate: 0.05,
        };
        let spec = ScenarioSpec::new("replications", "jobs-invariance pin", base);
        let seeds = [11, 12, 13, 14, 15, 16];
        // `{:?}` prints every float to the last bit.
        let study = |report: &LabReport| {
            let intervals = report.intervals().expect("six seeds give intervals");
            format!("{:?}\n{intervals}", report.per_seed)
        };
        let serial = study(&run_lab(&spec, &seeds, 1).expect("serial study"));
        let parallel = study(&run_lab(&spec, &seeds, 4).expect("parallel study"));
        assert_eq!(
            serial, parallel,
            "{name}: 4-worker study diverged from serial"
        );
    }
}

/// The parallel fan-out must be invisible in the results: a `LabReport`
/// (per-seed results, `frequency_spread` included, **and** per-regime
/// metric slices) serialises to byte-identical JSON at any `--jobs` value,
/// and renders the same interval block, under time-varying delay, loss,
/// and churn regimes, for both protocols. Only wall-clock may differ.
#[test]
fn lab_report_is_byte_identical_at_any_jobs_value() {
    use presence::sim::{run_lab, DelayKind, LabReport, Regime, ScenarioSpec, Switch};

    for (name, protocol) in [
        ("SAPP", Protocol::sapp_paper()),
        ("DCPP", Protocol::dcpp_paper()),
    ] {
        let cfg = ScenarioConfig::paper_defaults(protocol, 10, 120.0, 0);
        let mut spec = ScenarioSpec::new("determinism-lab", "jobs-invariance pin", cfg);
        spec.switches = vec![
            Switch {
                at: 40.0,
                to: Regime::Delay(DelayKind::Uniform(0.0002, 0.002)),
            },
            Switch {
                at: 60.0,
                to: Regime::Loss(LossKind::Bursty(0.1)),
            },
            Switch {
                at: 80.0,
                to: Regime::Churn(ChurnModel::UniformResample {
                    min: 2,
                    max: 10,
                    rate: 0.1,
                }),
            },
        ];
        let seeds = [21, 22, 23, 24, 25];
        let text = |report: &LabReport| {
            let json = serde_json::to_string(report).expect("report serialises");
            let intervals = report.intervals().expect("five seeds give intervals");
            format!("{json}\n{intervals}")
        };
        let serial = text(&run_lab(&spec, &seeds, 1).expect("serial lab run"));
        assert!(serial.contains("\"frequency_spread\":"), "{serial}");
        assert!(serial.contains("replications: n = 5"), "{serial}");
        for jobs in [2, 4, 8] {
            let parallel = text(&run_lab(&spec, &seeds, jobs).expect("parallel lab run"));
            assert_eq!(
                serial, parallel,
                "{name}: lab report diverged at jobs = {jobs}"
            );
        }
    }
}

/// A crash injection is part of the replayed trajectory too: the verdict
/// times must match bit-for-bit across replays.
#[test]
fn crash_detection_times_replay_exactly() {
    let run = || {
        let cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 8, 120.0, 7);
        let mut scenario = Scenario::build(cfg);
        scenario.crash_device_at(60.0);
        scenario.run();
        let r = scenario.collect();
        r.cps
            .iter()
            .map(|c| (c.id.0, c.detected_absent_at))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

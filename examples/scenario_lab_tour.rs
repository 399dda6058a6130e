//! Scenario-lab tour: author a time-varying experiment in code, run it
//! across a replication pool, and read the per-regime metric slices.
//!
//! The scenario below starts as a calm paper-default DCPP network, then
//! at t = 120 s a Gilbert–Elliott loss storm rolls in while a flash
//! crowd of control points surges on, and at t = 240 s the storm clears
//! into a diurnal churn pattern. Every regime boundary opens a metric
//! window — the numbers show how detection load and fairness move as
//! conditions change. Run with:
//!
//! ```text
//! cargo run --release --example scenario_lab_tour
//! ```
//!
//! The same experiment, authored as JSON, could ship in `catalog/` and
//! run through `cargo run -p presence-bench --bin lab` — specs
//! round-trip losslessly between the two forms.

use presence::sim::{
    run_lab, ChurnModel, LossKind, Protocol, Regime, ScenarioConfig, ScenarioSpec, Switch,
};

fn main() {
    let mut cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 24, 360.0, 7);
    cfg.initially_active = 6;
    let mut spec = ScenarioSpec::new(
        "lab-tour",
        "calm start, loss storm + flash crowd, diurnal recovery",
        cfg,
    );
    let at = |at: f64, to: Regime| Switch { at, to };
    spec.switches = vec![
        at(120.0, Regime::Loss(LossKind::Bursty(0.15))),
        at(
            120.0,
            Regime::Churn(ChurnModel::FlashCrowd {
                at: 120.0,
                peak: 24,
                ramp: 20.0,
                hold: 60.0,
            }),
        ),
        at(240.0, Regime::Loss(LossKind::None)),
        at(
            240.0,
            Regime::Churn(ChurnModel::Diurnal {
                period: 120.0,
                min: 4,
                max: 20,
                rate: 0.2,
            }),
        ),
    ];
    spec.validate().expect("spec is well-formed");

    // Five replications across the worker pool (PRESENCE_JOBS honoured);
    // the report is byte-identical at any worker count.
    let report =
        run_lab(&spec, &[1, 2, 3, 4, 5], presence::sim::job_count()).expect("validated spec runs");

    println!("scenario lab tour — {}\n", spec.description);
    println!(
        "{:>8} {:>8} | {:>9} {:>9} {:>9}",
        "from (s)", "to (s)", "load/s", "jain", "popul."
    );
    let fmt = |v: Option<f64>| match v {
        Some(v) => format!("{v:9.2}"),
        None => format!("{:>9}", "—"),
    };
    for slice in &report.slices {
        println!(
            "{:>8.0} {:>8.0} | {} {} {}",
            slice.start,
            slice.end,
            fmt(slice.load_mean),
            fmt(slice.fairness_jain),
            fmt(slice.population_mean),
        );
    }
    let lost: u64 = report
        .per_seed
        .iter()
        .map(|s| s.messages_dropped_loss)
        .sum();
    println!(
        "\nacross {} seeds: {} messages lost to the storm window",
        report.seeds.len(),
        lost
    );
    println!(
        "regime windows open at t = 0 and at each distinct switch instant: {:?}",
        report.windows
    );
}

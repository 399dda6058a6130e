//! Independent replications across seeds.
//!
//! Single simulation runs — the paper's and ours — are one draw from a
//! random process; SAPP's outcomes in particular are seed-sensitive (which
//! frozen unfair configuration a run lands in). This module runs the same
//! scenario under several seeds and reports Student-t confidence intervals
//! over the replication means, the standard methodology the paper's
//! batch-means machinery approximates within a single long run.
//!
//! Replications are independent by construction (each builds its own
//! `Simulation` from its own seed), so [`replicate`] fans them out across
//! a [`crate::parallel`] worker pool of the caller's size (the binaries'
//! `--jobs`, or [`crate::job_count`]) and takes the per-seed points back
//! **in seed order** before folding the summary statistics.
//! The resulting [`ReplicationSummary`] is bit-identical to a serial run
//! at any worker count.

use crate::parallel::run_indexed;
use crate::{Scenario, ScenarioConfig, ScenarioResult};
use presence_stats::{ConfidenceInterval, Welford};
use std::fmt;

/// Per-seed observations retained by a replication study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationPoint {
    /// Seed of this replication.
    pub seed: u64,
    /// Mean device load.
    pub load_mean: f64,
    /// Jain fairness index.
    pub fairness_jain: f64,
    /// Max/min per-CP frequency ratio.
    pub frequency_spread: f64,
}

/// Cross-seed summary with confidence intervals.
#[derive(Debug, Clone)]
pub struct ReplicationSummary {
    /// One point per seed.
    pub points: Vec<ReplicationPoint>,
    /// CI over the per-seed load means.
    pub load: ConfidenceInterval,
    /// CI over the per-seed fairness indices.
    pub fairness: ConfidenceInterval,
    /// CI over the per-seed frequency spreads.
    pub spread: ConfidenceInterval,
}

impl fmt::Display for ReplicationSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "replications: n = {}", self.points.len())?;
        writeln!(
            f,
            "  device load  {:.2} ± {:.2} probes/s",
            self.load.mean, self.load.half_width
        )?;
        writeln!(
            f,
            "  fairness     {:.3} ± {:.3}",
            self.fairness.mean, self.fairness.half_width
        )?;
        writeln!(
            f,
            "  freq spread  {:.2} ± {:.2}×",
            self.spread.mean, self.spread.half_width
        )
    }
}

/// Runs one replication: `base` with its seed overridden. Borrows the base
/// configuration — the only per-seed copy is the `Copy`-cheap config value
/// handed to [`Scenario::build`]; nothing heap-allocated is cloned per
/// seed.
fn run_one(base: &ScenarioConfig, seed: u64) -> ReplicationPoint {
    let mut cfg = *base;
    cfg.seed = seed;
    let mut scenario = Scenario::build(cfg);
    scenario.run();
    let result: ScenarioResult = scenario.collect();
    ReplicationPoint {
        seed,
        load_mean: result.load_mean,
        fairness_jain: result.fairness_jain,
        frequency_spread: result.frequency_spread(),
    }
}

/// Runs `base` under each seed (overriding `base.seed`) on `jobs` workers
/// and summarises.
///
/// The summary is **bit-identical for every `jobs` value**: replications
/// are independent simulations, and the per-seed points come back in seed
/// order before the (order-sensitive) statistics are folded.
///
/// # Panics
///
/// Panics if `seeds` is empty, `jobs` is zero, or `base` is invalid — the
/// configuration is validated once here, not once per seed inside the
/// worker pool.
#[must_use]
pub fn replicate(
    base: &ScenarioConfig,
    seeds: &[u64],
    level: f64,
    jobs: usize,
) -> ReplicationSummary {
    assert!(!seeds.is_empty(), "need at least one seed");
    base.validate().expect("cannot replicate");
    let points = run_indexed(seeds.len(), jobs, |i| run_one(base, seeds[i]));
    let mut load = Welford::new();
    let mut fairness = Welford::new();
    let mut spread = Welford::new();
    for point in &points {
        load.push(point.load_mean);
        fairness.push(point.fairness_jain);
        spread.push(point.frequency_spread);
    }
    let ci = |w: &Welford| {
        ConfidenceInterval::from_stats(w.mean(), w.sample_std_dev(), w.count(), level)
    };
    ReplicationSummary {
        load: ci(&load),
        fairness: ci(&fairness),
        spread: ci(&spread),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{job_count, Protocol};

    #[test]
    fn dcpp_replications_are_tight() {
        let base = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 10, 200.0, 0);
        let summary = replicate(&base, &[1, 2, 3, 4, 5], 0.95, job_count());
        assert_eq!(summary.points.len(), 5);
        // DCPP is deterministic-by-design: seed-to-seed variation is tiny.
        assert!(
            summary.load.half_width < 0.5,
            "DCPP load CI ± {}",
            summary.load.half_width
        );
        assert!(summary.fairness.mean > 0.99);
    }

    #[test]
    fn sapp_replications_show_spread_above_one() {
        let base = ScenarioConfig::paper_defaults(Protocol::sapp_paper(), 5, 3_000.0, 0);
        let summary = replicate(&base, &[1, 3, 7], 0.95, job_count());
        assert!(summary.spread.mean >= 1.0);
        assert!(summary.load.mean > 3.0 && summary.load.mean < 25.0);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seeds_rejected() {
        let base = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 2, 10.0, 0);
        let _ = replicate(&base, &[], 0.95, 1);
    }

    #[test]
    #[should_panic(expected = "at least one CP")]
    fn invalid_base_rejected_before_any_worker_runs() {
        let mut base = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 2, 10.0, 0);
        base.cp_pool = 0;
        // Validation is hoisted out of the per-seed loop: this panics on
        // the calling thread, not inside a worker.
        let _ = replicate(&base, &[1, 2, 3], 0.95, 4);
    }

    #[test]
    fn worker_count_does_not_change_the_summary() {
        let base = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 4, 60.0, 0);
        let seeds = [5, 6, 7, 8, 9];
        let serial = replicate(&base, &seeds, 0.95, 1);
        let parallel = replicate(&base, &seeds, 0.95, 3);
        // `{:?}` prints every float to the last bit.
        let bits = |s: &ReplicationSummary| format!("{s:?}");
        assert_eq!(
            bits(&serial),
            bits(&parallel),
            "jobs must not perturb results"
        );
        assert_eq!(
            parallel.points.iter().map(|p| p.seed).collect::<Vec<_>>(),
            seeds,
            "points must come back in seed order"
        );
    }

    #[test]
    fn summary_renders() {
        let base = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 3, 50.0, 0);
        let summary = replicate(&base, &[1, 2], 0.95, job_count());
        let text = summary.to_string();
        assert!(text.contains("replications: n = 2"));
    }
}

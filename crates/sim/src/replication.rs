//! Independent replications across seeds, folded into intervals.
//!
//! Single simulation runs — the paper's and ours — are one draw from a
//! random process; SAPP's outcomes in particular are seed-sensitive (which
//! frozen unfair configuration a run lands in). [`crate::run_lab`] runs a
//! spec under several seeds, and [`LabReport::intervals`] reports
//! Student-t confidence intervals over the per-seed whole-run means, the
//! standard methodology the paper's batch-means machinery approximates
//! within a single long run.
//!
//! The per-seed results come back from the worker pool in seed order, and
//! the fold reads them in that order, so the intervals are bit-identical
//! at any worker count.

use crate::lab::{LabReport, LabSeedResult};
use presence_stats::{ConfidenceInterval, Welford};
use std::fmt;

/// Confidence level of the intervals [`LabReport::intervals`] renders.
const LEVEL: f64 = 0.95;

impl LabReport {
    /// The 95 % Student-t intervals of the whole-run device load, Jain
    /// fairness and frequency spread across the seeds, rendered as the
    /// `replications: n = …` block; `None` below two seeds, where a
    /// sample has no spread to build an interval from.
    #[must_use]
    pub fn intervals(&self) -> Option<impl fmt::Display + '_> {
        (self.per_seed.len() >= 2).then_some(Intervals(self))
    }

    /// The Student-t interval of one whole-run `metric` over the seeds,
    /// folded in seed order (so it is as jobs-invariant as the report).
    fn interval(&self, metric: fn(&LabSeedResult) -> f64) -> ConfidenceInterval {
        let mut seeds = Welford::new();
        seeds.extend(self.per_seed.iter().map(metric));
        ConfidenceInterval::from_stats(seeds.mean(), seeds.sample_std_dev(), seeds.count(), LEVEL)
    }
}

/// What [`LabReport::intervals`] renders.
struct Intervals<'a>(&'a LabReport);

impl fmt::Display for Intervals<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let report = self.0;
        let load = report.interval(|s| s.load_mean);
        let fairness = report.interval(|s| s.fairness_jain);
        let spread = report.interval(|s| s.frequency_spread);
        writeln!(f, "replications: n = {}", report.per_seed.len())?;
        writeln!(
            f,
            "  device load  {:.2} ± {:.2} probes/s",
            load.mean, load.half_width
        )?;
        writeln!(
            f,
            "  fairness     {:.3} ± {:.3}",
            fairness.mean, fairness.half_width
        )?;
        writeln!(
            f,
            "  freq spread  {:.2} ± {:.2}×",
            spread.mean, spread.half_width
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::{job_count, run_lab, LabReport, Protocol, ScenarioConfig, ScenarioSpec};

    fn spec(protocol: Protocol, cps: u32, duration: f64) -> ScenarioSpec {
        let cfg = ScenarioConfig::paper_defaults(protocol, cps, duration, 0);
        ScenarioSpec::new("replications", "unit-test spec", cfg)
    }

    #[test]
    fn dcpp_replications_are_tight() {
        let spec = spec(Protocol::dcpp_paper(), 10, 200.0);
        let report = run_lab(&spec, &[1, 2, 3, 4, 5], job_count()).expect("runs");
        assert_eq!(report.per_seed.len(), 5);
        // DCPP is deterministic by design: seed-to-seed variation is tiny.
        let load = report.interval(|s| s.load_mean);
        assert!(load.half_width < 0.5, "DCPP load CI ± {}", load.half_width);
        assert!(report.interval(|s| s.fairness_jain).mean > 0.99);
    }

    #[test]
    fn sapp_replications_show_spread_above_one() {
        let spec = spec(Protocol::sapp_paper(), 5, 3_000.0);
        let report = run_lab(&spec, &[1, 3, 7], job_count()).expect("runs");
        assert!(report.interval(|s| s.frequency_spread).mean >= 1.0);
        let load = report.interval(|s| s.load_mean).mean;
        assert!(load > 3.0 && load < 25.0, "SAPP load {load}");
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seeds_rejected() {
        let _ = run_lab(&spec(Protocol::dcpp_paper(), 2, 10.0), &[], 1);
    }

    #[test]
    #[should_panic(expected = "at least one CP")]
    fn invalid_base_rejected_before_any_worker_runs() {
        let mut spec = spec(Protocol::dcpp_paper(), 2, 10.0);
        spec.config.cp_pool = 0;
        // Validation is hoisted out of the per-seed loop: `run_lab` returns
        // the error on the calling thread, where this panics with it, and
        // no worker panics.
        run_lab(&spec, &[1, 2, 3], 4).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn worker_count_does_not_change_the_summary() {
        let spec = spec(Protocol::dcpp_paper(), 4, 60.0);
        let seeds = [5, 6, 7, 8, 9];
        let serial = run_lab(&spec, &seeds, 1).expect("runs");
        let parallel = run_lab(&spec, &seeds, 3).expect("runs");
        // `{:?}` prints every float to the last bit.
        let bits = |r: &LabReport| {
            let (load, fairness) = (r.interval(|s| s.load_mean), r.interval(|s| s.fairness_jain));
            let spread = r.interval(|s| s.frequency_spread);
            format!("{:?} {load:?} {fairness:?} {spread:?}", r.per_seed)
        };
        assert_eq!(
            bits(&serial),
            bits(&parallel),
            "jobs must not perturb results"
        );
        assert_eq!(
            (parallel.per_seed.iter())
                .map(|s| s.seed)
                .collect::<Vec<_>>(),
            seeds,
            "per-seed results must come back in seed order"
        );
    }

    #[test]
    fn summary_renders() {
        let spec = spec(Protocol::dcpp_paper(), 3, 50.0);
        let one = run_lab(&spec, &[1], 1).expect("runs");
        assert!(one.intervals().is_none(), "one seed has no interval");
        let two = run_lab(&spec, &[1, 2], job_count()).expect("runs");
        let text = two.intervals().expect("two seeds do").to_string();
        assert!(text.starts_with("replications: n = 2\n"), "{text}");
        assert_eq!(text.lines().count(), 4, "{text}");
        assert!(!text.contains("inf"), "{text}");
    }
}

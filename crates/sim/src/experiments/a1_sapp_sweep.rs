//! A1 — sensitivity of SAPP's unfairness to its adaptation constants.
//!
//! The paper fixes `α_inc = 2`, `α_dec = 3/2`, `β = 3/2` (from [1]) and
//! shows unfairness for that point. This ablation sweeps the three
//! constants to check whether the pathology is intrinsic to the
//! multiplicative-adaptation design (as the paper's §3 analysis argues) or
//! an artefact of one parameter choice.

use crate::{run_indexed, Protocol, Scenario, ScenarioConfig};
use presence_core::{SappConfig, SappDeviceConfig};
use serde::Serialize;
use std::fmt;

/// One parameter point.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct A1Cell {
    /// Delay growth factor.
    pub alpha_inc: f64,
    /// Delay shrink factor.
    pub alpha_dec: f64,
    /// Dead-band width.
    pub beta: f64,
    /// Jain fairness over per-CP frequencies.
    pub fairness_jain: f64,
    /// Max/min frequency ratio.
    pub frequency_spread: f64,
    /// Mean device load.
    pub load_mean: f64,
}

/// The full sweep.
#[derive(Debug, Clone, Serialize)]
pub struct A1Report {
    /// All parameter points evaluated.
    pub cells: Vec<A1Cell>,
    /// CP population used.
    pub k: u32,
    /// Seconds simulated per cell.
    pub duration: f64,
    /// Seed used.
    pub seed: u64,
}

impl fmt::Display for A1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "A1 — SAPP parameter sweep (k = {}, {:.0} s per cell, seed {})",
            self.k, self.duration, self.seed
        )?;
        writeln!(
            f,
            "  {:>6} {:>6} {:>5} {:>7} {:>8} {:>8}",
            "α_inc", "α_dec", "β", "jain", "spread", "load"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "  {:>6.2} {:>6.2} {:>5.2} {:>7.3} {:>8.2} {:>8.2}",
                c.alpha_inc, c.alpha_dec, c.beta, c.fairness_jain, c.frequency_spread, c.load_mean
            )?;
        }
        Ok(())
    }
}

/// Runs the sweep over a small grid around the paper's point on `jobs`
/// workers (the `--jobs` flag). Every cell is an independent simulation,
/// so the pool fans them out; the report's cell order is the serial nested
/// loop's order regardless of `jobs`.
#[must_use]
pub fn a1_sapp_param_sweep(k: u32, duration: f64, seed: u64, jobs: usize) -> A1Report {
    let mut grid = Vec::with_capacity(27);
    for &alpha_inc in &[1.5, 2.0, 3.0] {
        for &alpha_dec in &[1.25, 1.5, 2.0] {
            for &beta in &[1.25, 1.5, 2.0] {
                grid.push((alpha_inc, alpha_dec, beta));
            }
        }
    }
    let cells = run_indexed(grid.len(), jobs, |i| {
        let (alpha_inc, alpha_dec, beta) = grid[i];
        let cp = SappConfig {
            alpha_inc,
            alpha_dec,
            beta,
            ..SappConfig::paper_default()
        };
        let protocol = Protocol::Sapp {
            cp,
            device: SappDeviceConfig::paper_default(),
        };
        let cfg = ScenarioConfig::paper_defaults(protocol, k, duration, seed);
        let mut scenario = Scenario::build(cfg);
        scenario.run();
        let result = scenario.collect();
        A1Cell {
            alpha_inc,
            alpha_dec,
            beta,
            fairness_jain: result.fairness_jain,
            frequency_spread: result.frequency_spread(),
            load_mean: result.load_mean,
        }
    });
    A1Report {
        cells,
        k,
        duration,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job_count;

    #[test]
    fn a1_covers_the_grid() {
        let r = a1_sapp_param_sweep(3, 150.0, 1, job_count());
        assert_eq!(r.cells.len(), 27);
        for c in &r.cells {
            assert!(c.load_mean.is_finite());
            assert!(c.fairness_jain.is_finite());
        }
    }

    #[test]
    fn a1_renders() {
        let r = a1_sapp_param_sweep(2, 60.0, 1, job_count());
        assert!(r.to_string().contains("A1"));
    }

    #[test]
    fn a1_worker_count_does_not_change_cells() {
        let serial = a1_sapp_param_sweep(2, 60.0, 3, 1);
        let parallel = a1_sapp_param_sweep(2, 60.0, 3, 4);
        let bits = |r: &A1Report| {
            r.cells
                .iter()
                .map(|c| {
                    (
                        c.alpha_inc.to_bits(),
                        c.alpha_dec.to_bits(),
                        c.beta.to_bits(),
                        c.fairness_jain.to_bits(),
                        c.frequency_spread.to_bits(),
                        c.load_mean.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&serial), bits(&parallel));
    }
}

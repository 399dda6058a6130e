//! What the `presence-bench` binaries share: the sim/runtime
//! [`conformance`] harness (the `conformance` bin and
//! `tests/conformance.rs` drive it), and flag parsing for the
//! `experiments` and `replications` binaries (the other bins — `lab`,
//! `conformance`, `mega_smoke`, `spotter`, `golden_fixtures` — parse their
//! own arguments; timing lives in the repo's `benchmark/` package, not
//! here).
//!
//! `experiments <id|all>` and `replications` parse the same optional
//! flags:
//!
//! ```text
//! --seed <u64>        root seed (default 3)
//! --duration <secs>   virtual run length where applicable
//! --jobs <n>          worker threads for replication/sweep bins
//!                     (default: PRESENCE_JOBS, else machine parallelism)
//! --json              emit the report as JSON (`experiments <id>` only)
//! --csv               emit the figure's data series as CSV (`experiments
//!                     e2|e3|e4` only)
//! ```

pub mod conformance;

use std::env;

/// Parsed common command-line options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Root seed for the run.
    pub seed: u64,
    /// Virtual duration override, if given.
    pub duration: Option<f64>,
    /// Worker-thread override (`--jobs N`), if given.
    pub jobs: Option<usize>,
    /// Emit JSON.
    pub json: bool,
    /// Emit CSV series.
    pub csv: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            seed: 3,
            duration: None,
            jobs: None,
            json: false,
            csv: false,
        }
    }
}

impl Options {
    /// Worker count for replication/sweep bins: the `--jobs` flag if given,
    /// otherwise `PRESENCE_JOBS` / machine parallelism (see
    /// [`presence_sim::parallel::job_count`]). The results are
    /// bit-identical at any value — only wall-clock changes.
    #[must_use]
    pub fn resolved_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(presence_sim::job_count)
    }

    /// Exits with status 1, naming the flag, if `--json` or `--csv` was
    /// given to `command`, which would ignore it.
    pub fn reject_output_flags(&self, command: &str) {
        for (flag, set) in [("--json", self.json), ("--csv", self.csv)] {
            if set {
                eprintln!("{command}: {flag} is not supported");
                std::process::exit(1);
            }
        }
    }
}

/// Parses `std::env::args`. Unknown flags abort with a usage message.
#[must_use]
pub fn parse_args() -> Options {
    parse_from(env::args().skip(1))
}

/// Parses an explicit argument list (testable core of [`parse_args`]).
///
/// # Panics
///
/// Panics on malformed or unknown arguments, printing usage — acceptable
/// for experiment binaries whose only user is the harness.
#[must_use]
pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Options {
    let mut opts = Options::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => {
                let v = iter.next().expect("--seed needs a value");
                opts.seed = v.parse().expect("--seed must be a u64");
            }
            "--duration" => {
                let v = iter.next().expect("--duration needs a value");
                opts.duration = Some(v.parse().expect("--duration must be a number"));
            }
            "--jobs" => {
                let v = iter.next().expect("--jobs needs a value");
                let jobs: usize = v.parse().expect("--jobs must be a positive integer");
                assert!(jobs > 0, "--jobs must be a positive integer");
                opts.jobs = Some(jobs);
            }
            "--json" => opts.json = true,
            "--csv" => opts.csv = true,
            other => {
                panic!(
                    "unknown argument {other}; supported: --seed N --duration SECS --jobs N \
                     --json --csv"
                )
            }
        }
    }
    opts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let o = parse_from(args(&[]));
        assert_eq!(o, Options::default());
    }

    #[test]
    fn full_parse() {
        let o = parse_from(args(&[
            "--seed",
            "42",
            "--duration",
            "123.5",
            "--jobs",
            "4",
            "--json",
            "--csv",
        ]));
        assert_eq!(o.seed, 42);
        assert_eq!(o.duration, Some(123.5));
        assert_eq!(o.jobs, Some(4));
        assert_eq!(o.resolved_jobs(), 4);
        assert!(o.json && o.csv);
    }

    #[test]
    fn unset_jobs_resolve_to_at_least_one_worker() {
        assert!(Options::default().resolved_jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "positive integer")]
    fn zero_jobs_rejected() {
        let _ = parse_from(args(&["--jobs", "0"]));
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_flag_panics() {
        let _ = parse_from(args(&["--frobnicate"]));
    }

    #[test]
    #[should_panic(expected = "--seed needs a value")]
    fn missing_value_panics() {
        let _ = parse_from(args(&["--seed"]));
    }
}

//! What the `presence-bench` targets share: the sim/runtime
//! [`conformance`] harness (`tests/conformance.rs` is the suite that
//! drives it), flag parsing for the `experiments` and `replications`
//! binaries, and [`exit_bad_argument`]. The other bins — `lab`,
//! `conformance`, `mega_smoke`, `spotter`, `golden_fixtures` — parse their
//! own arguments, and every bin reports one it cannot use as
//! `<bin>: <message>` with exit status 1, never a panic. Timing lives in
//! the repo's `benchmark/` package, not here.
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
use std::num::NonZeroUsize;
use std::str::FromStr;

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
                exit_bad_argument(command, &format!("{flag} is not supported"));
            }
        }
    }
}

/// Prints `<command>: <message>` and exits with status 1: how the
/// `presence-bench` binaries report an argument they cannot use.
pub fn exit_bad_argument(command: &str, message: &str) -> ! {
    eprintln!("{command}: {message}");
    std::process::exit(1);
}

/// Parses `std::env::args`; see [`parse_from`].
///
/// # Errors
///
/// As [`parse_from`].
pub fn parse_args() -> Result<Options, String> {
    parse_from(env::args().skip(1))
}

/// Parses an explicit argument list (testable core of [`parse_args`]).
///
/// # Errors
///
/// An unknown argument, a flag without its value, or a value of the wrong
/// kind (`--jobs 0`, `--seed x`) is an error whose message names the flag.
pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => opts.seed = value(&arg, iter.next(), "a u64")?,
            "--duration" => opts.duration = Some(value(&arg, iter.next(), "a number")?),
            "--jobs" => {
                let jobs: NonZeroUsize = value(&arg, iter.next(), "a positive integer")?;
                opts.jobs = Some(jobs.get());
            }
            "--json" => opts.json = true,
            "--csv" => opts.csv = true,
            other => {
                return Err(format!(
                    "unknown argument {other}; supported: --seed N --duration SECS --jobs N \
                     --json --csv"
                ))
            }
        }
    }
    Ok(opts)
}

/// `text`, the value given after `flag`, parsed; or an error naming the
/// flag and `what` it takes.
fn value<T: FromStr>(flag: &str, text: Option<String>, what: &str) -> Result<T, String> {
    let text = text.ok_or_else(|| format!("{flag} needs a value"))?;
    text.parse()
        .map_err(|_| format!("{flag} must be {what}, got {text:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let o = parse_from(args(&[])).unwrap();
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
        ]))
        .unwrap();
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

    // A bad argument is an `Err` naming the flag; unwrapping it panics
    // with that message, which `expected` matches.

    #[test]
    #[should_panic(expected = r#"--jobs must be a positive integer, got \"0\""#)]
    fn zero_jobs_rejected() {
        parse_from(args(&["--jobs", "0"])).unwrap();
    }

    #[test]
    #[should_panic(expected = "unknown argument --frobnicate")]
    fn unknown_flag_panics() {
        parse_from(args(&["--frobnicate"])).unwrap();
    }

    #[test]
    #[should_panic(expected = "--seed needs a value")]
    fn missing_value_panics() {
        parse_from(args(&["--seed"])).unwrap();
    }

    #[test]
    fn malformed_value_names_the_flag() {
        let err = parse_from(args(&["--seed", "x"])).unwrap_err();
        assert_eq!(err, r#"--seed must be a u64, got "x""#);
    }
}

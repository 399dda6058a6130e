//! What the `presence-bench` targets share: the sim/runtime
//! [`conformance`] harness (`tests/conformance.rs` is the suite that
//! drives it), [`exit_bad_argument`], the stdout writer every bin prints
//! through ([`out!`], [`outln!`]), the regime-window table
//! ([`windows_table`]) that `lab` and `spotter` both print, and the
//! `experiments` bin's flag parser ([`parse_from`]; its flags are listed
//! in that bin's docs). The other bins — `lab`, `conformance`,
//! `mega_smoke`, `spotter`, `golden_fixtures` — parse their own
//! arguments, and every bin reports one it cannot use as
//! `<bin>: <message>` with exit status 1, never a panic. Timing lives in
//! the repo's `benchmark/` package, not here.

pub mod conformance;

use presence_sim::RegimeSlice;
use std::fmt::{self, Write as _};
use std::io::{self, Write as _};
use std::num::NonZeroUsize;
use std::str::FromStr;

/// Writes to stdout as `print!` does, except when the reader has closed
/// the pipe (`lab --all | head`): then the write is dropped quietly
/// instead of panicking, as is every later one, and the run goes on to
/// the exit status its own checks decide. Any other write error panics,
/// as `print!` would.
pub fn write_stdout(args: fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().write_fmt(args) {
        if e.kind() != io::ErrorKind::BrokenPipe {
            panic!("failed printing to stdout: {e}");
        }
    }
}

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Prints `<command>: <message>` and exits with status 1: how the
/// `presence-bench` binaries report an argument they cannot use.
pub fn exit_bad_argument(command: &str, message: &str) -> ! {
    eprintln!("{command}: {message}");
    std::process::exit(1);
}

fn fmt_opt(v: Option<f64>, width: usize, precision: usize) -> String {
    match v {
        Some(v) => format!("{v:>width$.precision$}"),
        None => format!("{:>width$}", "—"),
    }
}

/// A regime-window table, one row per slice: `lab`'s report of a run and
/// `spotter`'s reading of that run's trace print this one table. In a
/// cross-seed report, "detΣ" (verdict counts) is a total across the
/// seeds; the other columns are cross-seed means.
#[must_use]
pub fn windows_table(slices: &[RegimeSlice]) -> String {
    let mut table = format!(
        "{:>12} {:>12} | {:>9} {:>9} {:>9} {:>6} {:>9}\n",
        "from (s)", "to (s)", "load/s", "jain", "popul.", "detΣ", "lat. (s)"
    );
    for s in slices {
        // Writing to a `String` cannot fail.
        let _ = writeln!(
            table,
            "{:>12.1} {:>12.1} | {} {} {} {:>6} {}",
            s.start,
            s.end,
            fmt_opt(s.load_mean, 9, 2),
            fmt_opt(s.fairness_jain, 9, 3),
            fmt_opt(s.population_mean, 9, 1),
            s.detections,
            fmt_opt(s.detection_latency_mean, 9, 3),
        );
    }
    table
}

/// The `experiments` bin's parsed flags.
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
}

impl Default for Options {
    fn default() -> Self {
        Self {
            seed: 3,
            duration: None,
            jobs: None,
            json: false,
        }
    }
}

impl Options {
    /// The worker count: the `--jobs` flag if given, otherwise
    /// `PRESENCE_JOBS` / machine parallelism (see
    /// [`presence_sim::job_count`]). The results are bit-identical at any
    /// value — only wall-clock changes.
    #[must_use]
    pub fn resolved_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(presence_sim::job_count)
    }
}

/// Parses the flags after the experiment id
/// (`std::env::args().skip(2)` in the `experiments` bin).
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
            other => {
                return Err(format!(
                    "unknown argument {other}; supported: --seed N --duration SECS --jobs N --json"
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

    #[test]
    fn windows_table_has_a_header_and_one_row_per_slice_with_dashes_for_undefined() {
        let slice = RegimeSlice {
            start: 0.0,
            end: 300.0,
            load_mean: Some(10.08),
            fairness_jain: None,
            population_mean: Some(30.0),
            detections: 2,
            detection_latency_mean: None,
        };
        let table = windows_table(&[slice]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 2, "{table}");
        assert!(
            lines[0].contains("load/s") && lines[0].contains("detΣ"),
            "{table}"
        );
        assert_eq!(
            lines[1],
            "         0.0        300.0 |     10.08         —      30.0      2         —"
        );
    }

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
        ]))
        .unwrap();
        assert_eq!(o.seed, 42);
        assert_eq!(o.duration, Some(123.5));
        assert_eq!(o.jobs, Some(4));
        assert_eq!(o.resolved_jobs(), 4);
        assert!(o.json);
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

//! Cross-seed replication study: the headline metrics (device load,
//! fairness, frequency spread) for SAPP and DCPP with Student-t confidence
//! intervals over independent seeds — the methodological upgrade over any
//! single run's numbers.
//!
//! Seeds fan out across `--jobs N` worker threads (default `PRESENCE_JOBS`
//! / machine parallelism); the summary is bit-identical at any worker
//! count, so `--jobs` trades only wall-clock, never results. The summary
//! is text only: `--json` and `--csv` exit 1, as does a malformed flag.

use presence_bench::{exit_bad_argument, parse_args};
use presence_sim::{replicate, Protocol, ScenarioConfig};

fn main() {
    let opts = parse_args().unwrap_or_else(|e| exit_bad_argument("replications", &e));
    opts.reject_output_flags("replications");
    let duration = opts.duration.unwrap_or(5_000.0);
    let jobs = opts.resolved_jobs();
    let seeds: Vec<u64> = (1..=10)
        .map(|i| opts.seed.wrapping_mul(31).wrapping_add(i))
        .collect();

    for (name, protocol) in [
        ("SAPP", Protocol::sapp_paper()),
        ("DCPP", Protocol::dcpp_paper()),
    ] {
        let base = ScenarioConfig::paper_defaults(protocol, 20, duration, 0);
        // The output deliberately omits the worker count: it is
        // byte-identical at any `--jobs` value, and keeping it so makes
        // that trivially checkable with `diff`.
        let summary = replicate(&base, &seeds, 0.95, jobs);
        println!("{name} (k = 20, {duration:.0} s, {} seeds)", seeds.len());
        println!("{summary}");
    }
}

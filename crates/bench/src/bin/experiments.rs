//! The paper's evaluation, one experiment at a time or all at once:
//!
//! ```text
//! experiments <id> [--seed N] [--duration SECS] [--jobs N] [--json] [--csv]
//! experiments all  [--seed N] [--duration SCALE] [--jobs N]
//! ```
//!
//! `<id>` is a row of [`presence_sim::experiments::CATALOG`] (`e1` … `e7`,
//! `a1` … `a4`, `a7` … `a8`) and runs at paper scale unless `--duration`
//! says otherwise. A flag the command would ignore — `--csv` on any row
//! but the figures `e2` … `e4`, `--json` or `--csv` beside `all` — exits 1,
//! and so does an unknown id, an unknown flag or a malformed value.
//!
//! `all` runs every experiment at reduced scale (`--duration` is a scale
//! factor on the catalog's quick horizons, default 1) — a quick end-to-end
//! regeneration of the paper's evaluation section. The experiments are
//! mutually independent simulations, so they run through the `--jobs N`
//! worker pool (default `PRESENCE_JOBS` / machine parallelism). Reports
//! are rendered off-thread, streamed back, and printed in catalog order as
//! soon as each in-order prefix completes — so the output is
//! byte-identical at any worker count, and with `--jobs 1` each report
//! still appears the moment its experiment finishes.

use presence_bench::{exit_bad_argument, parse_from};
use presence_sim::experiments::{RunArgs, CATALOG};
use presence_sim::for_each_indexed;

fn main() {
    let mut args = std::env::args().skip(1);
    let which = args.next().unwrap_or_default();
    let opts = parse_from(args).unwrap_or_else(|e| exit_bad_argument("experiments", &e));
    let jobs = opts.resolved_jobs();

    if which == "all" {
        opts.reject_output_flags("experiments all");
        let scale = opts.duration.unwrap_or(1.0);
        // Each experiment keeps its internal fan-out on the worker that
        // runs it: the outer pool already saturates the machine.
        let run = |i: usize| {
            (CATALOG[i].run)(&RunArgs {
                duration: CATALOG[i].quick * scale,
                seed: opts.seed,
                jobs: 1,
                json: false,
                csv: false,
                extras: false,
            })
        };
        for_each_indexed(CATALOG.len(), jobs, run, |_, report| println!("{report}"));
        return;
    }

    let Some(experiment) = CATALOG.iter().find(|e| e.id == which) else {
        let ids: Vec<&str> = CATALOG.iter().map(|e| e.id).collect();
        exit_bad_argument(
            "experiments",
            &format!(
                "unknown experiment {which:?}; usage: experiments <id|all> [--seed N] \
                 [--duration SECS] [--jobs N] [--json] [--csv]; ids: {}",
                ids.join(" ")
            ),
        );
    };
    if opts.csv && !experiment.csv {
        exit_bad_argument(
            &format!("experiments {which}"),
            "--csv is not supported (figures e2–e4 only)",
        );
    }
    print!(
        "{}",
        (experiment.run)(&RunArgs {
            duration: opts.duration.unwrap_or(experiment.duration),
            seed: opts.seed,
            jobs,
            json: opts.json,
            csv: opts.csv,
            extras: !opts.json,
        })
    );
}

//! The paper's evaluation, one experiment at a time or all at once:
//!
//! ```text
//! experiments <id> [--seed N] [--duration SECS] [--jobs N] [--json] [--csv]
//! experiments all  [--seed N] [--duration SCALE] [--jobs N]
//! ```
//!
//! `<id>` is a row of [`presence_sim::experiments::CATALOG`] (`e1` … `e7`,
//! `a1` … `a4`, `a6` … `a8`) and runs at paper scale unless `--duration`
//! says otherwise.
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

use presence_bench::parse_from;
use presence_sim::experiments::{RunArgs, CATALOG};
use presence_sim::for_each_indexed;

fn main() {
    let mut args = std::env::args().skip(1);
    let which = args.next().unwrap_or_default();
    let opts = parse_from(args);
    let jobs = opts.resolved_jobs();

    if which == "all" {
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
        panic!(
            "usage: experiments <id|all> [--seed N] [--duration SECS] [--jobs N] [--json] \
             [--csv]; ids: {}",
            ids.join(" ")
        );
    };
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

//! Worker-pool plumbing for seed- and parameter-parallel studies.
//!
//! The paper's evidence is statistical: SAPP's unfairness claim rests on
//! many independent replications, and each replication is an independent
//! pure function of its `ScenarioConfig` (see `presence-des`'s determinism
//! guarantees). That makes cross-seed and cross-parameter studies
//! embarrassingly parallel — this module fans them out over scoped worker
//! threads while keeping every result **bit-identical** to the serial run:
//!
//! * work items are dispatched to workers through an atomic cursor
//!   (work-stealing, so long seeds don't straggle behind short ones);
//! * results come back tagged with their dispatch index and are parked
//!   until their turn, so the caller sees them in dispatch order before any
//!   order-sensitive (floating-point) folding happens;
//! * with one worker (or one item) everything runs inline on the calling
//!   thread — `PRESENCE_JOBS=1` is *exactly* the serial engine.
//!
//! There is one worker loop, [`for_each_indexed`]; [`run_indexed`] collects
//! from it.
//!
//! The worker count comes from the `PRESENCE_JOBS` environment variable
//! (or the `--jobs` flag in the experiment binaries, which overrides it)
//! and defaults to the machine's available parallelism.

use std::collections::BTreeMap;
use std::env;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// Resolves the worker count: `PRESENCE_JOBS` if set, otherwise the
/// machine's available parallelism (1 if that cannot be determined).
///
/// # Panics
///
/// Panics if `PRESENCE_JOBS` is set to anything but a positive integer, so
/// a typo cannot silently serialise (or explode) a study.
#[must_use]
pub fn job_count() -> usize {
    parse_jobs(env::var("PRESENCE_JOBS").ok().as_deref())
}

/// Pure core of [`job_count`]: interprets an optional `PRESENCE_JOBS`
/// value.
///
/// # Panics
///
/// Panics on a non-numeric or zero value.
#[must_use]
fn parse_jobs(var: Option<&str>) -> usize {
    match var {
        // `PRESENCE_JOBS= cmd` is the shell idiom for clearing a variable
        // for one command; treat it as unset, not as a typo.
        Some(raw) if !raw.trim().is_empty() => match raw.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => panic!("PRESENCE_JOBS must be a positive integer, got {raw:?}"),
        },
        _ => thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// Runs `task(0..n)` across `jobs` workers and returns the results in
/// index order.
///
/// Each call of `task(i)` must be independent of every other (our tasks
/// are: one fully self-contained simulation per index). Scheduling can
/// interleave calls arbitrarily, but the returned `Vec` is always
/// `[task(0), task(1), …]` — callers can fold it exactly as a serial loop
/// would. A panicking task propagates to the caller.
///
/// # Panics
///
/// Panics if `jobs == 0`, or if any task panics.
#[must_use]
pub fn run_indexed<T, F>(n: usize, jobs: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(n);
    for_each_indexed(n, jobs, task, |_, result| out.push(result));
    out
}

/// The worker loop: runs `task(0..n)` across `jobs` workers and streams
/// the results — `consume(i, result)` runs on the calling thread, in index
/// order, as soon as the in-order prefix is available (result `0` is
/// delivered the moment it completes, not after the whole batch).
/// Out-of-order completions are parked until their turn. With one worker
/// (or one item) everything runs inline: no threads, no channels.
///
/// # Panics
///
/// Panics if `jobs == 0`, or if any task panics (with the first panicking
/// worker's own payload).
pub fn for_each_indexed<T, F, C>(n: usize, jobs: usize, task: F, mut consume: C)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    C: FnMut(usize, T),
{
    assert!(jobs > 0, "need at least one worker");
    if jobs == 1 || n <= 1 {
        for i in 0..n {
            let result = task(i);
            consume(i, result);
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    let mut next = 0usize;
    thread::scope(|scope| {
        // Work-stealing: each worker pulls the next index from `cursor`.
        let workers: Vec<_> = (0..jobs.min(n))
            .map(|_| {
                let (tx, cursor, task) = (tx.clone(), &cursor, &task);
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // A send only fails when the receiver is gone, i.e. the
                    // caller is already unwinding from another worker's panic.
                    if tx.send((i, task(i))).is_err() {
                        break;
                    }
                })
            })
            .collect();
        drop(tx);
        // Drain inside the scope so delivery overlaps the workers. If a
        // worker panics, the channel just closes early here and the join
        // below re-raises the worker's panic.
        let mut parked: BTreeMap<usize, T> = BTreeMap::new();
        for (i, result) in rx {
            parked.insert(i, result);
            while let Some(result) = parked.remove(&next) {
                consume(next, result);
                next += 1;
            }
        }
        // Join every worker and re-raise the first panic (in spawn order)
        // with its own payload. Leaving the join to the scope would replace
        // the task's message with "a scoped thread panicked".
        let panics: Vec<_> = workers
            .into_iter()
            .filter_map(|worker| worker.join().err())
            .collect();
        if let Some(payload) = panics.into_iter().next() {
            std::panic::resume_unwind(payload);
        }
    });
    // Only reachable when every worker exited cleanly, so every index must
    // have been delivered exactly once.
    assert_eq!(next, n, "worker pool lost results");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let serial = run_indexed(37, 1, |i| i * i);
        let parallel = run_indexed(37, 4, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial[6], 36);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        assert_eq!(run_indexed(2, 16, |i| i), vec![0, 1]);
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn results_come_back_in_dispatch_order_despite_skew() {
        // Make early indices the slowest so completion order inverts
        // dispatch order with >1 worker.
        let out = run_indexed(8, 4, |i| {
            std::thread::sleep(std::time::Duration::from_millis(8 - i as u64));
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _ = run_indexed(4, 2, |i| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn for_each_worker_panics_propagate() {
        for_each_indexed(
            4,
            2,
            |i| {
                if i == 3 {
                    panic!("boom");
                }
                i
            },
            |_, _| {},
        );
    }

    #[test]
    fn for_each_streams_in_index_order() {
        // Invert completion order; delivery must still be 0, 1, 2, …
        let mut seen = Vec::new();
        for_each_indexed(
            6,
            3,
            |i| {
                std::thread::sleep(std::time::Duration::from_millis(6 - i as u64));
                i * 10
            },
            |i, r| seen.push((i, r)),
        );
        assert_eq!(seen, (0..6).map(|i| (i, i * 10)).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_serial_path_streams_too() {
        let mut seen = Vec::new();
        for_each_indexed(4, 1, |i| i, |i, r| seen.push((i, r)));
        assert_eq!(seen, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn parse_jobs_resolves_env_values() {
        assert_eq!(parse_jobs(Some("3")), 3);
        assert_eq!(parse_jobs(Some(" 8 ")), 8);
        assert!(parse_jobs(None) >= 1);
        // `PRESENCE_JOBS= cmd` clears the variable: same as unset.
        assert_eq!(parse_jobs(Some("")), parse_jobs(None));
        assert_eq!(parse_jobs(Some("  ")), parse_jobs(None));
    }

    #[test]
    #[should_panic(expected = "positive integer")]
    fn parse_jobs_rejects_zero() {
        let _ = parse_jobs(Some("0"));
    }

    #[test]
    #[should_panic(expected = "positive integer")]
    fn parse_jobs_rejects_garbage() {
        let _ = parse_jobs(Some("many"));
    }
}

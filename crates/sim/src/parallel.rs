//! Worker-pool plumbing for seed- and parameter-parallel studies.
//!
//! The paper's evidence is statistical: SAPP's unfairness claim rests on
//! many independent replications, and each replication is an independent
//! pure function of its `ScenarioConfig` (see `presence-des`'s determinism
//! guarantees). That makes cross-seed and cross-parameter studies
//! embarrassingly parallel — this module fans them out over
//! `std::thread::scope` workers while keeping every result **bit-identical**
//! to the serial run:
//!
//! * work items are dispatched to workers through an atomic cursor
//!   (work-stealing, so long seeds don't straggle behind short ones);
//! * results come back tagged with their dispatch index and are restored to
//!   dispatch order with [`presence_stats::merge_indexed`] before any
//!   order-sensitive (floating-point) folding happens;
//! * with one worker (or one item) everything runs inline on the calling
//!   thread — `PRESENCE_JOBS=1` is *exactly* the serial engine.
//!
//! The worker count comes from the `PRESENCE_JOBS` environment variable
//! (or the `--jobs` flag in the experiment binaries, which overrides it)
//! and defaults to the machine's available parallelism.

use presence_stats::merge_indexed;
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
pub fn parse_jobs(var: Option<&str>) -> usize {
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

/// Spawns the shared work-stealing loop: `jobs.min(n)` workers pull
/// indices from `cursor` and send `(index, task(index))` down `tx`. The
/// caller owns the drain strategy (collect-then-merge, or streamed) and
/// must hand the returned handles to [`join_workers`].
fn spawn_workers<'scope, T, F>(
    scope: &'scope thread::Scope<'scope, '_>,
    n: usize,
    jobs: usize,
    cursor: &'scope AtomicUsize,
    tx: &mpsc::Sender<(usize, T)>,
    task: &'scope F,
) -> Vec<thread::ScopedJoinHandle<'scope, ()>>
where
    T: Send + 'scope,
    F: Fn(usize) -> T + Sync,
{
    (0..jobs.min(n))
        .map(|_| {
            let tx = tx.clone();
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
        .collect()
}

/// Joins every worker and re-raises the first panic (in spawn order) with
/// its own payload. Leaving the join to `thread::scope` would replace the
/// task's message with the fixed "a scoped thread panicked".
fn join_workers(handles: Vec<thread::ScopedJoinHandle<'_, ()>>) {
    let panics: Vec<_> = handles
        .into_iter()
        .filter_map(|handle| handle.join().err())
        .collect();
    if let Some(payload) = panics.into_iter().next() {
        std::panic::resume_unwind(payload);
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
    assert!(jobs > 0, "need at least one worker");
    if jobs == 1 || n <= 1 {
        // Inline serial path: no threads, no channels — byte-for-byte the
        // behaviour every determinism test pins.
        return (0..n).map(task).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    thread::scope(|scope| join_workers(spawn_workers(scope, n, jobs, &cursor, &tx, &task)));
    drop(tx);
    merge_indexed(rx.into_iter().collect())
}

/// Like [`run_indexed`], but streams: `consume(i, result)` runs on the
/// calling thread, in index order, as soon as the in-order prefix is
/// available — result `0` is delivered the moment it completes, not after
/// the whole batch. Out-of-order completions are buffered until their
/// turn. Use this when results should reach the user incrementally (e.g.
/// printing experiment reports); use [`run_indexed`] when the whole batch
/// is folded at once.
///
/// # Panics
///
/// Panics if `jobs == 0`, or if any task panics.
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
        let workers = spawn_workers(scope, n, jobs, &cursor, &tx, &task);
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
        join_workers(workers);
    });
    // Only reachable when every worker exited cleanly, so every index must
    // have been delivered exactly once.
    assert_eq!(next, n, "worker pool lost results");
}

/// Runs a `(parameter × seed)` grid through the worker pool.
///
/// Experiments like the A1 sensitivity sweep evaluate a grid of parameter
/// points, each potentially under several seeds. `ParamSweep` flattens the
/// grid, dispatches every `(parameter, seed)` cell to the pool, and
/// regroups the results per parameter point (seeds in input order within
/// each group) — so a sweep's report is independent of the worker count.
///
/// # Examples
///
/// ```
/// use presence_sim::ParamSweep;
///
/// let groups = ParamSweep::with_jobs(2).run(&[10, 20], &[1, 2, 3], |&p, seed| p + seed);
/// assert_eq!(groups, vec![vec![11, 12, 13], vec![21, 22, 23]]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ParamSweep {
    jobs: usize,
}

impl Default for ParamSweep {
    fn default() -> Self {
        Self::new()
    }
}

impl ParamSweep {
    /// A sweep using [`job_count`] workers (`PRESENCE_JOBS` / machine
    /// parallelism).
    #[must_use]
    pub fn new() -> Self {
        Self { jobs: job_count() }
    }

    /// A sweep with an explicit worker count (the `--jobs` flag).
    ///
    /// # Panics
    ///
    /// Panics if `jobs == 0`.
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        assert!(jobs > 0, "need at least one worker");
        Self { jobs }
    }

    /// The worker count this sweep will use.
    #[must_use]
    pub fn jobs(self) -> usize {
        self.jobs
    }

    /// Evaluates `task(param, seed)` for every grid cell, returning one
    /// group per parameter point (in input order), each holding the
    /// results for `seeds` (in input order).
    pub fn run<P, R, F>(self, params: &[P], seeds: &[u64], task: F) -> Vec<Vec<R>>
    where
        P: Sync,
        R: Send,
        F: Fn(&P, u64) -> R + Sync,
    {
        if params.is_empty() || seeds.is_empty() {
            return params.iter().map(|_| Vec::new()).collect();
        }
        let per_param = seeds.len();
        let flat = run_indexed(params.len() * per_param, self.jobs, |i| {
            task(&params[i / per_param], seeds[i % per_param])
        });
        let mut grouped = Vec::with_capacity(params.len());
        let mut results = flat.into_iter();
        for _ in 0..params.len() {
            grouped.push(results.by_ref().take(per_param).collect());
        }
        grouped
    }
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
    fn param_sweep_groups_by_param() {
        let groups =
            ParamSweep::with_jobs(3).run(&["a", "b"], &[10, 20, 30], |p, s| format!("{p}{s}"));
        assert_eq!(
            groups,
            vec![
                vec!["a10".to_string(), "a20".into(), "a30".into()],
                vec!["b10".to_string(), "b20".into(), "b30".into()],
            ]
        );
    }

    #[test]
    fn param_sweep_empty_edges() {
        let none: Vec<Vec<u64>> = ParamSweep::with_jobs(2).run(&[] as &[u32], &[1], |_, s| s);
        assert!(none.is_empty());
        let empty_seeds = ParamSweep::with_jobs(2).run(&[1u32, 2], &[], |&p, _| p);
        assert_eq!(empty_seeds, vec![Vec::<u32>::new(), Vec::new()]);
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

//! What the two UDP workloads share: per-thread CPU accounting of the
//! host's shard threads, 2-second window estimators, and the shutdown
//! sequence that lets in-flight datagrams land before the report is taken.

use crate::measure::{quantile_of, threads_named};
use crate::Opts;
use presence_runtime::{HostHandle, HostReport};
use std::time::{Duration, Instant};

/// Every UDP metric is taken per window of this length, and the windows are
/// reduced to one number by `measure::lower_quartile` or `measure::quietest`
/// (end to end) or the median (per layer): a single window's p99 on this box
/// is anywhere from 3 to 42 ms (one scheduler stall).
const WINDOW_NS: u64 = 2_000_000_000;

/// Traffic sent before the first measured window.
const WARMUP_NS: u64 = 1_000_000_000;

/// Thread ids of the `presence-shard-*` threads that are not in `before`:
/// the one shard of the host just started. A thread names itself as it
/// starts, so this waits (up to a second) for the name to appear.
pub fn new_shard_threads(before: &[u32]) -> Vec<u32> {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let new: Vec<u32> = threads_named("presence-shard")
            .into_iter()
            .filter(|tid| !before.contains(tid))
            .collect();
        if !new.is_empty() || Instant::now() > deadline {
            return new;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
}

pub fn shard_threads() -> Vec<u32> {
    threads_named("presence-shard")
}

/// The measured phase of a UDP pass: `count` windows of `width_ns` after a
/// warm-up, on whatever clock the samples are stamped in.
pub struct Windows {
    pub start_ns: u64,
    pub width_ns: u64,
    pub count: usize,
}

impl Windows {
    /// Windows covering at least `seconds`, the first starting one warm-up
    /// after `now_ns`. `--smoke` quarters the window length.
    pub fn after_warmup(opts: &Opts, now_ns: u64, seconds: f64) -> Self {
        let width_ns = if opts.smoke { WINDOW_NS / 4 } else { WINDOW_NS };
        Self {
            start_ns: now_ns + WARMUP_NS,
            width_ns,
            count: ((seconds * 1e9) as u64).div_ceil(width_ns).max(1) as usize,
        }
    }

    /// The instant of edge `k` (edge 0 opens the first window).
    pub fn edge_ns(&self, k: usize) -> u64 {
        self.start_ns + k as u64 * self.width_ns
    }

    pub fn span_s(&self) -> f64 {
        (self.count as u64 * self.width_ns) as f64 / 1e9
    }

    pub fn index(&self, t_ns: u64) -> Option<usize> {
        let i = t_ns.checked_sub(self.start_ns)? / self.width_ns;
        ((i as usize) < self.count).then_some(i as usize)
    }

    /// The `q`-quantile of each window's values; empty windows are skipped.
    pub fn quantiles(&self, samples: impl Iterator<Item = (u64, f64)>, q: f64) -> Vec<f64> {
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); self.count];
        for (t, v) in samples {
            if let Some(i) = self.index(t) {
                buckets[i].push(v);
            }
        }
        buckets
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| quantile_of(b, q))
            .collect()
    }
}

/// Waits (up to two seconds) until the host's counters stop moving, then
/// joins it: datagrams still in flight when the senders stopped are served
/// and counted, not cut off.
pub fn drain_and_join(handle: HostHandle) -> HostReport {
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut last = handle.activity();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = handle.activity();
        if now == last || Instant::now() > deadline {
            break;
        }
        last = now;
    }
    handle.join()
}

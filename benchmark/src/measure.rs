//! Estimators, `/proc` readers, the kernel timing harness and the check
//! ledger shared by every workload.

use presence_stats::Summary;
use std::time::{Duration, Instant};

pub fn median(values: &[f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// The estimator of the UDP workloads' CPU cost taken per 2-second window
/// and of their set-up time: the lower quartile. This box's noise is one-sided (memory- and
/// kernel-bound code slowed for a while after any sustained load, a frozen
/// vCPU: a sample is only ever slowed) and comes in phases of seconds to
/// minutes, so the median flips between two modes whenever more than half
/// a run falls in a rough phase, while the quiet quarter of the samples is
/// the program's own doing.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quantile_of(values, 0.25)
}

/// The estimator of the UDP workloads' `wait_p50_us`: the quietest window's
/// median. A probe waits out up to three 1 ms sleeps of the shard loops, and
/// how late an idle vCPU wakes from one is the box's doing and changes by
/// the minute: over ten runs of a rough quarter-hour the windows' lower
/// quartile spread 10 % (`udp-serve`) and 6 % (`udp-fleet`), their minimum
/// 3.6 % and 2.2 %. (Not for the CPU cost: the window after a stall serves
/// its backlog in larger batches and is cheaper per probe than a quiet one.)
pub fn quietest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The estimator of the simulation workloads. Every round of a run repeats
/// the same work slice for slice (`rounds[r][i]` is the wall time of slice
/// `i` in round `r`), so the fastest observation of each slice is that
/// slice's time on a quiet box, and the slices' minima together are one
/// quiet round, even when no single round of the run was quiet throughout.
/// Sizing runs: over seven 20-second chunks the quiet round of `sim-hub`
/// spread 0.7 % where the median round spread 5.9 % and the lower-quartile
/// round 2.3 %; `sim-mega`, whose 83 MB live in shared cache and DRAM,
/// 8 % against 15 %.
pub fn quiet_round(rounds: &[Vec<f64>]) -> Vec<f64> {
    let slices = rounds.first().map_or(0, Vec::len);
    (0..slices)
        .map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// `q`-quantile (`q` in `[0, 1]`) of unsorted samples, linearly interpolated.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set (`VmRSS`) in MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Thread ids of this process whose name starts with `prefix` (the kernel
/// truncates names to 15 bytes, so `presence-shard-3` reads
/// `presence-shard-`).
pub fn threads_named(prefix: &str) -> Vec<u32> {
    let mut tids = Vec::new();
    for entry in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let Ok(entry) = entry else { continue };
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let comm = std::fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        if comm.trim_end().starts_with(prefix) {
            tids.push(tid);
        }
    }
    tids.sort_unstable();
    tids
}

/// On-CPU nanoseconds of one thread: `schedstat`'s first field (ns
/// resolution), falling back to `stat`'s utime + stime (10 ms ticks).
pub fn thread_cpu_ns(tid: u32) -> u64 {
    if let Ok(s) = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")) {
        if let Some(ns) = s.split_whitespace().next().and_then(|f| f.parse().ok()) {
            return ns;
        }
    }
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).unwrap_or_default();
    // Fields after the parenthesised comm; utime and stime are the 12th
    // and 13th of those.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i).and_then(|f| f.parse::<u64>().ok()))
        .sum();
    ticks * 10_000_000
}

pub fn threads_cpu_ns(tids: &[u32]) -> u64 {
    tids.iter().map(|&t| thread_cpu_ns(t)).sum()
}

/// How long a kernel is timed: `batches` samples of at least `batch` each.
#[derive(Debug, Clone, Copy)]
pub struct KernelBudget {
    pub batches: usize,
    pub batch: Duration,
}

impl KernelBudget {
    pub const FULL: Self = Self {
        batches: 9,
        batch: Duration::from_millis(20),
    };
    pub const SMOKE: Self = Self {
        batches: 3,
        batch: Duration::from_millis(2),
    };
}

/// Times `pass`, which performs a fixed number of operations and returns
/// that number. One sample repeats `pass` until `budget.batch` has elapsed;
/// the result is the median ns/op over `budget.batches` samples, after one
/// untimed pass.
pub fn kernel_ns(budget: KernelBudget, mut pass: impl FnMut() -> u64) -> f64 {
    std::hint::black_box(pass());
    let mut samples = Vec::with_capacity(budget.batches);
    for _ in 0..budget.batches {
        let start = Instant::now();
        let mut ops = 0u64;
        while start.elapsed() < budget.batch {
            ops += std::hint::black_box(pass());
        }
        samples.push(start.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&samples)
}

/// The ledger behind `correct`, `attempted` and `failed`. Two kinds of
/// entry. An output *check* is one attempted operation, and failing one
/// makes the run wrong: the program produced an output it must not produce.
/// A *count* records bulk operations of which some did not complete (a probe
/// never answered, a cycle that ended in an absence verdict): they are
/// reported as failed. The UDP workloads retransmit for 2 s before they give
/// an operation up, so that a stall of this box fails none.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    wrong: bool,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong = true;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    pub fn count(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("note: {failed} of {attempted} {what} did not complete");
        }
    }

    /// Whether every output was right.
    pub fn correct(&self) -> bool {
        !self.wrong
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in print order, plus the per-metric in-run distribution where
/// one exists (printed on the detail line, never on the result line).
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub detail: Vec<(String, Summary)>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Keeps the in-run distribution of the samples behind `name` for the
    /// detail line.
    pub fn note(&mut self, name: &str, samples: &[f64]) {
        if let Some(summary) = presence_stats::describe(samples) {
            self.detail.push((name.to_string(), summary));
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} not reported yet"))
            .value
    }
}

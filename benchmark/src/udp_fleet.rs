//! `udp-fleet`: closed loop with think time, the deployment shape. One
//! device `ShardedHost` (256 `DcppDevice`s) and one CP `ShardedHost`
//! (2 048 `DcppCp`s, 8 watchers per device), one shard each, `SystemClock`,
//! `δ_min = 25 ms`, `d_min = 100 ms`, paper `TOF`/`TOS`, 95 retransmissions
//! (see `RETRANSMISSIONS`): every device sits at its cap `L_nom = 40`
//! probes/s and the fleet runs ≈ 10 k cycles/s, far below capacity. The
//! only workload where timers matter.

use crate::measure::{lower_quartile, median, quietest, threads_cpu_ns, Checks, Report};
use crate::spans::SpanLog;
use crate::udp::{drain_and_join, new_shard_threads, shard_threads, Windows};
use crate::Opts;
use presence_core::{
    CpAction, CpId, CpStats, DcppConfig, DcppCp, DcppDevice, DeviceId, ProbeCycleConfig, Prober,
    Reply, ReplyBody, TimerToken, Verdict,
};
use presence_des::{SimDuration, SimTime, StreamRng};
use presence_runtime::{
    Clock, DeviceHost, HostConfig, HostHandle, ShardStats, ShardedHost, SystemClock,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const WATCHERS: u32 = 8;
const SETUPS: usize = 15;

/// Probers start uniformly over this span of host time.
const JOIN_STAGGER_S: f64 = 0.5;

/// Cycles written to the trace as spans.
const SPAN_CYCLES: usize = 250;

fn devices(opts: &Opts) -> u32 {
    if opts.smoke {
        32
    } else {
        256
    }
}

/// A cycle gives up after `TOF + 95 · TOS` = 2.017 s of silence, not the
/// paper's `TOF + 3 · TOS` = 85 ms. Every device of this workload is
/// present, so every absence verdict is a failed operation, and on this box
/// the paper's budget fails a few hundred cycles in one run out of three:
/// about once a minute the VM stalls for 30–100 ms several times within a
/// second, every prober that came due meanwhile probes at once when it
/// resumes, the burst overflows a socket's 208 KB receive buffer (some 270
/// datagrams), and a cycle that loses four transmissions that way ends in a
/// verdict. `TOF` and `TOS` stay the paper's, so every cycle arms and
/// cancels the same timers and a lost datagram is still retransmitted 22 ms
/// later; only the give-up point moves.
const RETRANSMISSIONS: u32 = 95;

pub fn dcpp() -> DcppConfig {
    DcppConfig {
        delta_min: SimDuration::from_millis(25),
        d_min: SimDuration::from_millis(100),
        cycle: ProbeCycleConfig {
            max_retransmissions: RETRANSMISSIONS,
            ..ProbeCycleConfig::paper_default()
        },
    }
}

/// One accepted probe cycle, in host-clock nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    /// When the cycle was due: the armed deadline of the wake timer that
    /// started it (the start instant for a prober's first cycle).
    pub due_ns: u64,
    /// When its first probe was emitted.
    pub sent_ns: u64,
    /// When its reply was accepted.
    pub done_ns: u64,
}

/// What the `Prober` wrappers record. One host shard thread writes, the
/// main thread reads after the join (and polls `cycles.len()` in set-up),
/// so the mutex is never contended during measurement.
#[derive(Debug, Default)]
pub struct Log {
    pub cycles: Vec<Cycle>,
    /// (host ns of the `on_timer` call, ns past the armed deadline).
    pub timer_late: Vec<(u64, u64)>,
    /// (host ns, target device) of every cycle's first probe.
    pub sends: Vec<(u64, u32)>,
    /// Accepted replies that were not DCPP, carried `wait < d_min` or did
    /// not echo the cycle's sequence number.
    pub bad_replies: u64,
    /// Absence verdicts reached before the cycle had sent all its
    /// transmissions and waited them out.
    pub unjustified_verdicts: u64,
    /// Wall ns of each inner `on_reply` / `on_timer` call (traced run only).
    pub on_reply_ns: Vec<u32>,
    pub on_timer_ns: Vec<u32>,
}

/// Forwards every `Prober` call to the wrapped `DcppCp` and records, from
/// the `now` arguments and the emitted actions alone (no clock reads of its
/// own unless `traced`), cycle timing and timer lateness.
struct Watched {
    inner: DcppCp,
    log: Arc<Mutex<Log>>,
    traced: bool,
    cfg: DcppConfig,
    device: DeviceId,
    /// Armed timers and their deadlines (a CP holds at most two).
    timers: Vec<(TimerToken, SimTime)>,
    /// Sequence number, due instant and first-send instant of the cycle in
    /// flight.
    cycle: Option<(u64, SimTime, SimTime)>,
    /// Probes sent in that cycle.
    transmissions: u32,
    /// Deadline of the timer being fired, until the actions show whether
    /// it began a cycle.
    fired_deadline: Option<SimTime>,
}

impl Watched {
    fn observe(&mut self, now: SimTime, actions: &[CpAction]) {
        for action in actions {
            match *action {
                CpAction::SendProbe(probe) => {
                    if self.cycle.map(|c| c.0) != Some(probe.seq) {
                        let due = self.fired_deadline.unwrap_or(now);
                        self.cycle = Some((probe.seq, due, now));
                        self.transmissions = 0;
                        self.log().sends.push((now.as_nanos(), self.device.0));
                    }
                    self.transmissions += 1;
                }
                CpAction::StartTimer { token, after } => self.timers.push((token, now + after)),
                CpAction::CancelTimer { token } => self.timers.retain(|t| t.0 != token),
                // The paper's guarantee: no absence verdict before the
                // initial probe and every retransmission went unanswered
                // for TOF + n·TOS.
                CpAction::DeviceAbsent { at, .. } => {
                    let cycle = self.cfg.cycle;
                    let waited =
                        cycle.tof + cycle.tos.mul_f64(f64::from(cycle.max_retransmissions));
                    let justified = self.transmissions == cycle.max_retransmissions + 1
                        && self.cycle.is_some_and(|(_, _, sent)| at >= sent + waited);
                    if !justified {
                        self.log().unjustified_verdicts += 1;
                    }
                }
            }
        }
        self.fired_deadline = None;
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log
            .lock()
            .expect("no thread panics holding the fleet log")
    }
}

impl Prober for Watched {
    fn cp(&self) -> CpId {
        self.inner.cp()
    }

    fn start(&mut self, now: SimTime, out: &mut Vec<CpAction>) {
        let from = out.len();
        self.inner.start(now, out);
        self.observe(now, &out[from..]);
    }

    fn on_reply(&mut self, now: SimTime, reply: &Reply, out: &mut Vec<CpAction>) {
        let from = out.len();
        let before = self.inner.stats().cycles_succeeded;
        let t0 = self.traced.then(Instant::now);
        self.inner.on_reply(now, reply, out);
        let inner_ns = t0.map(|t| t.elapsed().as_nanos() as u32);
        let accepted = self.inner.stats().cycles_succeeded > before;
        let cycle = self.cycle;
        self.observe(now, &out[from..]);
        let mut log = self.log();
        if let Some(ns) = inner_ns {
            log.on_reply_ns.push(ns);
        }
        if !accepted {
            return;
        }
        let good = matches!(reply.body, ReplyBody::Dcpp { wait } if wait >= self.cfg.d_min)
            && cycle.is_some_and(|c| c.0 == reply.probe.seq);
        if !good {
            log.bad_replies += 1;
        }
        if let Some((_, due, sent)) = cycle {
            log.cycles.push(Cycle {
                due_ns: due.as_nanos(),
                sent_ns: sent.as_nanos(),
                done_ns: now.as_nanos(),
            });
        }
    }

    fn on_timer(&mut self, now: SimTime, token: TimerToken, out: &mut Vec<CpAction>) {
        let from = out.len();
        let deadline = self
            .timers
            .iter()
            .position(|t| t.0 == token)
            .map(|i| self.timers.swap_remove(i).1);
        self.fired_deadline = deadline;
        let t0 = self.traced.then(Instant::now);
        self.inner.on_timer(now, token, out);
        let inner_ns = t0.map(|t| t.elapsed().as_nanos() as u32);
        self.observe(now, &out[from..]);
        let mut log = self.log();
        if let Some(ns) = inner_ns {
            log.on_timer_ns.push(ns);
        }
        if let Some(deadline) = deadline {
            log.timer_late.push((
                now.as_nanos(),
                now.as_nanos().saturating_sub(deadline.as_nanos()),
            ));
        }
    }

    fn on_bye(&mut self, now: SimTime, out: &mut Vec<CpAction>) {
        self.inner.on_bye(now, out);
    }

    fn on_leave_notice(&mut self, now: SimTime, out: &mut Vec<CpAction>) {
        self.inner.on_leave_notice(now, out);
    }

    fn stats(&self) -> &CpStats {
        self.inner.stats()
    }

    fn is_stopped(&self) -> bool {
        self.inner.is_stopped()
    }

    fn verdict(&self) -> Option<Verdict> {
        self.inner.verdict()
    }

    fn current_delay(&self) -> Option<SimDuration> {
        self.inner.current_delay()
    }
}

/// A `SystemClock` that counts its reads (traced run only).
struct CountingClock {
    inner: SystemClock,
    reads: Arc<AtomicU64>,
}

impl Clock for CountingClock {
    fn now(&self) -> SimTime {
        // A statistic that publishes no other data.
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.now()
    }
}

/// A started fleet.
struct Fleet {
    clock: Arc<dyn Clock>,
    clock_reads: Arc<AtomicU64>,
    log: Arc<Mutex<Log>>,
    device_host: HostHandle,
    cp_host: HostHandle,
    device_tids: Vec<u32>,
    cp_tids: Vec<u32>,
    /// Bind + register + start + first accepted reply.
    setup_s: f64,
}

/// Binds, registers and starts both hosts and waits for the first accepted
/// reply. Every device→CP assignment and join offset comes from the seed.
fn start_fleet(opts: &Opts, traced: bool) -> Fleet {
    let t0 = Instant::now();
    let cfg = dcpp();
    let devices = devices(opts);
    let clock_reads = Arc::new(AtomicU64::new(0));
    let clock: Arc<dyn Clock> = if traced {
        Arc::new(CountingClock {
            inner: SystemClock::new(),
            reads: Arc::clone(&clock_reads),
        })
    } else {
        Arc::new(SystemClock::new())
    };
    let log = Arc::new(Mutex::new(Log::default()));

    let mut device_host = ShardedHost::bind(&HostConfig::loopback(1)).expect("bind device host");
    for d in 0..devices {
        device_host.add_device(DeviceHost::Dcpp(DcppDevice::new(DeviceId(d), cfg)), None);
    }
    let mut cp_host = ShardedHost::bind(&HostConfig::loopback(1)).expect("bind CP host");
    let mut rng = StreamRng::new(opts.seed, 0);
    let mut cps: Vec<u32> = (0..devices * WATCHERS).collect();
    for i in (1..cps.len()).rev() {
        cps.swap(i, rng.index(i + 1));
    }
    for (slot, &cp) in cps.iter().enumerate() {
        let device = DeviceId(slot as u32 / WATCHERS);
        let start_at = SimTime::from_secs_f64(rng.uniform(0.0, JOIN_STAGGER_S));
        let prober = Watched {
            inner: DcppCp::new(CpId(cp), cfg),
            log: Arc::clone(&log),
            traced,
            cfg,
            device,
            timers: Vec::with_capacity(2),
            cycle: None,
            transmissions: 0,
            fired_deadline: None,
        };
        cp_host.add_prober(
            Box::new(prober),
            device_host.addr_of(device),
            device,
            start_at,
        );
    }

    let before = shard_threads();
    let device_host = device_host.start(Arc::clone(&clock));
    let device_tids = new_shard_threads(&before);
    let cp_host = cp_host.start(Arc::clone(&clock));
    let cp_tids = new_shard_threads(&[before, device_tids.clone()].concat());
    let deadline = Instant::now() + Duration::from_secs(5);
    while log.lock().expect("fleet log").cycles.is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    Fleet {
        clock,
        clock_reads,
        log,
        device_host,
        cp_host,
        device_tids,
        cp_tids,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// One edge of a measurement window.
#[derive(Debug, Clone, Copy)]
struct Edge {
    device_cpu_ns: u64,
    cp_cpu_ns: u64,
    device: ShardStats,
    cp: ShardStats,
    iterations: u64,
    clock_reads: u64,
}

impl Fleet {
    fn edge(&self) -> Edge {
        Edge {
            device_cpu_ns: threads_cpu_ns(&self.device_tids),
            cp_cpu_ns: threads_cpu_ns(&self.cp_tids),
            device: self.device_host.stats(),
            cp: self.cp_host.stats(),
            iterations: self
                .device_host
                .iterations()
                .iter()
                .chain(&self.cp_host.iterations())
                .sum(),
            clock_reads: self.clock_reads.load(Ordering::Relaxed),
        }
    }
}

/// Everything one fleet pass measured. Per-window vectors hold one value
/// per 2-second window.
pub struct Pass {
    pub setup_s: f64,
    pub wait_p50_us: Vec<f64>,
    pub wait_p99_us: Vec<f64>,
    pub rtt_p50_us: Vec<f64>,
    pub rtt_p99_us: Vec<f64>,
    pub timer_late_p50_us: Vec<f64>,
    pub timer_late_p99_us: Vec<f64>,
    pub cpu_us_per_cycle: Vec<f64>,
    pub cp_cpu_us_per_cycle: Vec<f64>,
    pub device_cpu_us_per_cycle: Vec<f64>,
    pub cycles_per_s: f64,
    pub datagrams_per_s: f64,
    pub iterations_per_datagram: f64,
    pub clock_reads_per_cycle: f64,
    pub late_ratio: f64,
    pub retransmissions: u64,
    pub stale_replies: u64,
    pub device_load_ratio: f64,
    pub on_reply_ns: f64,
    pub on_timer_ns: f64,
}

/// Runs the fleet for a warm-up second plus `seconds` of measured windows,
/// then shuts it down, checks its outputs and reduces the log.
pub fn pass(
    opts: &Opts,
    seconds: f64,
    traced: bool,
    checks: &mut Checks,
    spans: Option<&mut SpanLog>,
) -> Pass {
    let fleet = start_fleet(opts, traced);
    let span_offset = spans
        .as_ref()
        .map(|s| s.now() as i128 - i128::from(fleet.clock.now().as_nanos()));
    let windows = Windows::after_warmup(opts, fleet.clock.now().as_nanos(), seconds);
    let count = windows.count;
    let mut edges = Vec::with_capacity(count + 1);
    for k in 0..=count {
        let now = fleet.clock.now().as_nanos();
        std::thread::sleep(Duration::from_nanos(windows.edge_ns(k).saturating_sub(now)));
        edges.push(fleet.edge());
    }

    // Probers first, then the devices once what is in flight has landed.
    let cp_report = fleet.cp_host.join();
    let device_report = drain_and_join(fleet.device_host);
    let log = std::mem::take(&mut *fleet.log.lock().expect("fleet log"));

    // Wrong outputs: any one makes the run wrong.
    let misrouted = |s: &ShardStats| s.decode_errors + s.unroutable;
    let wrong = misrouted(&cp_report.stats)
        + misrouted(&device_report.stats)
        + log.bad_replies
        + log.unjustified_verdicts;
    checks.check(wrong == 0, || {
        format!(
            "udp-fleet: {} bad replies, {} unjustified verdicts, CP host {:?}, device host {:?}",
            log.bad_replies, log.unjustified_verdicts, cp_report.stats, device_report.stats
        )
    });
    // Cycles that did not complete: every device is present, so every
    // verdict is a false absence (a stalled host's, if justified), and a
    // refused send is a probe or reply that never left.
    let false_verdicts = cp_report
        .probers
        .iter()
        .filter(|p| p.verdict.is_some())
        .count() as u64;
    let started: u64 = cp_report
        .probers
        .iter()
        .map(|p| p.stats.cycles_started)
        .sum();
    checks.count(
        started,
        false_verdicts
            + cp_report.stats.dropped_sendpressure
            + device_report.stats.dropped_sendpressure,
        "udp-fleet cycles (false absence verdicts, refused sends)",
    );
    // The paper's guarantee: device load ≤ L_nom, in cycles started (the
    // retransmissions that follow a frozen host are not the schedule's).
    // Counted over the measured windows, past the join burst (eight
    // unscheduled first probes per device).
    let mut probes_at = vec![0u64; device_report.devices.len()];
    for &(at, device) in &log.sends {
        if windows.index(at).is_some() {
            probes_at[device as usize] += 1;
        }
    }
    let busiest = probes_at.iter().copied().max().unwrap_or(0);
    let at_cap = windows.span_s() * dcpp().l_nom();
    let device_load_ratio = busiest as f64 / at_cap;
    // Slots δ_min apart put at most span / δ_min + 1 probes in a span.
    checks.check(busiest > 0 && busiest as f64 <= 1.02 * at_cap + 1.0, || {
        format!("udp-fleet: busiest device at {device_load_ratio:.3} of L_nom")
    });

    let us = |ns: u64| ns as f64 / 1e3;
    let by_done = |f: fn(&Cycle) -> u64| log.cycles.iter().map(move |c| (c.done_ns, us(f(c))));
    let late = || log.timer_late.iter().map(|&(at, ns)| (at, us(ns)));
    let mut done_in = vec![0u64; count];
    for c in &log.cycles {
        if let Some(i) = windows.index(c.done_ns) {
            done_in[i] += 1;
        }
    }
    let per_cycle = |cpu: &dyn Fn(&Edge) -> u64| -> Vec<f64> {
        edges
            .windows(2)
            .zip(&done_in)
            .filter(|(_, &n)| n > 0)
            .map(|(w, &n)| us(cpu(&w[1]) - cpu(&w[0])) / n as f64)
            .collect()
    };
    let measured: u64 = done_in.iter().sum();
    let span_s = windows.span_s();
    let (first, last) = (edges[0], edges[count]);
    let datagrams = (last.device.datagrams_received + last.cp.datagrams_received)
        - (first.device.datagrams_received + first.cp.datagrams_received);
    let in_windows = |c: &&Cycle| windows.index(c.done_ns).is_some();
    let tof_ns = dcpp().cycle.tof.as_nanos();
    let late_cycles = log
        .cycles
        .iter()
        .filter(in_windows)
        .filter(|c| c.done_ns - c.sent_ns > tof_ns)
        .count();

    if let (Some(spans), Some(offset)) = (spans, span_offset) {
        let at = |ns: u64| (i128::from(ns) + offset).max(0) as u64;
        for (i, c) in log
            .cycles
            .iter()
            .filter(in_windows)
            .take(SPAN_CYCLES)
            .enumerate()
        {
            let of = ("probe", i as u64);
            let id = spans.push(
                "cycle",
                "udp-fleet",
                (at(c.due_ns), at(c.done_ns)),
                None,
                of,
            );
            spans.push(
                "timer_late",
                "udp-fleet",
                (at(c.due_ns), at(c.sent_ns)),
                Some(id),
                of,
            );
            spans.push(
                "rtt",
                "udp-fleet",
                (at(c.sent_ns), at(c.done_ns)),
                Some(id),
                of,
            );
        }
    }

    let median_u32 = |v: &[u32]| {
        if v.is_empty() {
            0.0
        } else {
            median(&v.iter().map(|&x| f64::from(x)).collect::<Vec<_>>())
        }
    };
    Pass {
        setup_s: fleet.setup_s,
        wait_p50_us: windows.quantiles(by_done(|c| c.done_ns - c.due_ns), 0.5),
        wait_p99_us: windows.quantiles(by_done(|c| c.done_ns - c.due_ns), 0.99),
        rtt_p50_us: windows.quantiles(by_done(|c| c.done_ns - c.sent_ns), 0.5),
        rtt_p99_us: windows.quantiles(by_done(|c| c.done_ns - c.sent_ns), 0.99),
        timer_late_p50_us: windows.quantiles(late(), 0.5),
        timer_late_p99_us: windows.quantiles(late(), 0.99),
        cpu_us_per_cycle: per_cycle(&|e| e.device_cpu_ns + e.cp_cpu_ns),
        cp_cpu_us_per_cycle: per_cycle(&|e| e.cp_cpu_ns),
        device_cpu_us_per_cycle: per_cycle(&|e| e.device_cpu_ns),
        cycles_per_s: measured as f64 / span_s,
        datagrams_per_s: datagrams as f64 / span_s,
        iterations_per_datagram: (last.iterations - first.iterations) as f64
            / datagrams.max(1) as f64,
        clock_reads_per_cycle: (last.clock_reads - first.clock_reads) as f64
            / measured.max(1) as f64,
        late_ratio: late_cycles as f64 / measured.max(1) as f64,
        retransmissions: cp_report
            .probers
            .iter()
            .map(|p| p.stats.retransmissions)
            .sum(),
        stale_replies: cp_report
            .probers
            .iter()
            .map(|p| p.stats.stale_replies)
            .sum(),
        device_load_ratio,
        on_reply_ns: median_u32(&log.on_reply_ns),
        on_timer_ns: median_u32(&log.on_timer_ns),
    }
}

/// Bind, register, start, first accepted reply, stop: one set-up sample.
fn setup_once(opts: &Opts) -> f64 {
    let fleet = start_fleet(opts, false);
    let _ = fleet.cp_host.join();
    let _ = fleet.device_host.join();
    fleet.setup_s
}

/// The untraced run: end-to-end metrics only.
pub fn run(opts: &Opts, checks: &mut Checks, report: &mut Report) {
    let pass = pass(opts, opts.seconds, false, checks, None);
    // The other set-ups are timed after the measured phase, when the box is
    // in the state this workload's own load puts it in.
    let mut setups = vec![pass.setup_s];
    setups.extend((1..SETUPS).map(|_| setup_once(opts)));
    report.note("cost_us_per_op", &pass.cpu_us_per_cycle);
    report.note("wait_p50_us", &pass.wait_p50_us);
    let timed = (
        lower_quartile(&pass.cpu_us_per_cycle),
        quietest(&pass.wait_p50_us),
    );
    report.note("setup_s", &setups);
    crate::put_end_to_end(report, timed, lower_quartile(&setups));
}

/// The survey passes: one untraced (the fleet numbers), one traced (inner
/// call times, clock reads, overhead), as `runtime.fleet.*` and
/// `runtime.prober.*`.
pub fn survey(opts: &Opts, checks: &mut Checks, report: &mut Report, spans: &mut SpanLog) -> Pass {
    // Three windows untraced (a median survives one disturbed window), two
    // traced.
    let (plain_s, traced_s) = if opts.smoke { (1.0, 1.0) } else { (6.0, 4.0) };
    let plain = pass(opts, plain_s, false, checks, Some(spans));
    let traced = pass(opts, traced_s, true, checks, None);
    let m = |v: &[f64]| median(v);
    report.put("runtime.fleet.wait_p99_us", m(&plain.wait_p99_us), "us");
    report.put("runtime.fleet.rtt_p50_us", m(&plain.rtt_p50_us), "us");
    report.put("runtime.fleet.rtt_p99_us", m(&plain.rtt_p99_us), "us");
    report.put(
        "runtime.fleet.timer_late_p50_us",
        m(&plain.timer_late_p50_us),
        "us",
    );
    report.put(
        "runtime.fleet.timer_late_p99_us",
        m(&plain.timer_late_p99_us),
        "us",
    );
    report.put("runtime.fleet.cycles_per_s", plain.cycles_per_s, "1/s");
    report.put(
        "runtime.fleet.datagrams_per_s",
        plain.datagrams_per_s,
        "1/s",
    );
    report.put(
        "runtime.fleet.iterations_per_datagram",
        plain.iterations_per_datagram,
        "ratio",
    );
    report.put(
        "runtime.fleet.cp_cpu_us_per_probe",
        m(&plain.cp_cpu_us_per_cycle),
        "us",
    );
    report.put(
        "runtime.fleet.device_cpu_us_per_probe",
        m(&plain.device_cpu_us_per_cycle),
        "us",
    );
    report.put("runtime.fleet.late_ratio", plain.late_ratio, "ratio");
    report.put(
        "runtime.fleet.retransmissions",
        plain.retransmissions as f64,
        "count",
    );
    report.put(
        "runtime.fleet.stale_replies",
        plain.stale_replies as f64,
        "count",
    );
    report.put(
        "runtime.fleet.device_load_ratio",
        plain.device_load_ratio,
        "ratio",
    );
    report.put("runtime.prober.on_reply_ns", traced.on_reply_ns, "ns");
    report.put("runtime.prober.on_timer_ns", traced.on_timer_ns, "ns");
    report.put(
        "runtime.fleet.clock_reads_per_probe",
        traced.clock_reads_per_cycle,
        "ratio",
    );
    report.put(
        "runtime.fleet.trace_overhead_ratio",
        lower_quartile(&traced.cpu_us_per_cycle) / lower_quartile(&plain.cpu_us_per_cycle),
        "ratio",
    );
    plain
}

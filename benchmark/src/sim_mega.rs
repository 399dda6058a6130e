//! `sim-mega`: the same `des` layer used differently. `MegaScenario` on the
//! `mega-ci` catalog config (100 000 devices / 1 000 CPs, 5 virtual s):
//! calendar queue, ~10⁵ pending events, streaming recorders, no fabric and
//! no `core` machines (the SoA shard samples its own delays).

use crate::measure::{quantile_of, quiet_round, quietest, rss_mb, Checks, Report};
use crate::spans::SpanLog;
use crate::Opts;
use presence_sim::{mega_catalog, MegaConfig, MegaResult, MegaScenario};
use std::time::Instant;

/// Steps of virtual time per run; the wall time of one step is the
/// `wait_*` sample (0.05 virtual s on `mega-ci`).
const SLICES: usize = 100;

const MIN_ROUNDS: usize = 3;

pub fn config(opts: &Opts) -> MegaConfig {
    let mut cfg = mega_catalog()
        .into_iter()
        .find(|spec| spec.name == "mega-ci")
        .expect("mega-ci is in the catalog")
        .config;
    cfg.seed = opts.seed;
    if opts.smoke {
        cfg.devices /= 10;
        cfg.cps /= 10;
    }
    cfg
}

pub struct MegaRun {
    /// `MegaScenario::build` plus the first `step()`: the lazy population
    /// initialisation (one wake timer per pair).
    pub first_event_s: f64,
    pub run_s: f64,
    pub slices: Vec<f64>,
    /// Resident memory at the end of the run, scenario still alive, above
    /// what was resident before the build.
    pub rss_added_mb: f64,
    pub result: MegaResult,
}

impl MegaRun {
    pub fn ns_per_event(&self) -> f64 {
        self.run_s * 1e9 / self.result.events_processed as f64
    }
}

pub fn run_once(cfg: MegaConfig) -> MegaRun {
    let rss_before = rss_mb();
    let t0 = Instant::now();
    let mut scenario = MegaScenario::build(cfg);
    scenario.sim_mut().step();
    let first_event_s = t0.elapsed().as_secs_f64();
    let mut slices = Vec::with_capacity(SLICES);
    let t1 = Instant::now();
    let mut mark = t1;
    for k in 1..=SLICES {
        scenario
            .sim_mut()
            .run_until(presence_des::SimTime::from_secs_f64(
                cfg.duration * k as f64 / SLICES as f64,
            ));
        let now = Instant::now();
        slices.push((now - mark).as_secs_f64());
        mark = now;
    }
    let run_s = (mark - t1).as_secs_f64();
    let rss_added_mb = rss_mb() - rss_before;
    let result = scenario.collect();
    MegaRun {
        first_event_s,
        run_s,
        slices,
        rss_added_mb,
        result,
    }
}

/// No cycle may fail on the lossless LAN config, a lone watcher must be
/// told to wait exactly `d_min`, and no device may see more than `L_nom`.
fn check_run(cfg: &MegaConfig, run: &MegaRun, checks: &mut Checks) {
    let r = &run.result;
    let d_min = cfg.dcpp.d_min.as_secs_f64();
    checks.check(
        r.cycles_failed == 0
            && r.cycles_succeeded > 0
            && (r.wait_mean - d_min).abs() <= 0.01 * d_min
            && r.load_mean_per_device <= cfg.dcpp.l_nom(),
        || {
            format!(
                "sim-mega: cycles_failed {} wait_mean {} (d_min {d_min}) load {} (L_nom {})",
                r.cycles_failed,
                r.wait_mean,
                r.load_mean_per_device,
                cfg.dcpp.l_nom()
            )
        },
    );
}

pub fn measure_runs(opts: &Opts, seconds: f64, checks: &mut Checks) -> Vec<MegaRun> {
    let cfg = config(opts);
    let mut runs: Vec<MegaRun> = Vec::new();
    let start = Instant::now();
    while runs.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let run = run_once(cfg);
        check_run(&cfg, &run, checks);
        runs.push(run);
    }
    let bytes = |run: &MegaRun| serde_json::to_string(&run.result).expect("result serialises");
    checks.check(bytes(&runs[0]) == bytes(&runs[1]), || {
        "sim-mega: two runs at one seed serialise differently".to_string()
    });
    runs
}

/// The quiet round of `runs` (see `measure::quiet_round`): per slice of
/// virtual time, the fastest wall µs any run took for it.
fn quiet_slices_us(runs: &[MegaRun]) -> Vec<f64> {
    let per_run: Vec<Vec<f64>> = runs
        .iter()
        .map(|run| run.slices.iter().map(|w| w * 1e6).collect())
        .collect();
    quiet_round(&per_run)
}

/// The untraced run: end-to-end metrics only.
pub fn run(opts: &Opts, checks: &mut Checks, report: &mut Report) {
    let runs = measure_runs(opts, opts.seconds, checks);
    let quiet = quiet_slices_us(&runs);
    let timed = (
        quiet.iter().sum::<f64>() / runs[0].result.events_processed as f64,
        quantile_of(&quiet, 0.5),
    );
    let costs: Vec<f64> = runs.iter().map(|r| r.ns_per_event() / 1e3).collect();
    report.note("cost_us_per_op", &costs);
    // Every run sets up anew; the quietest set-up, as for the slices.
    let setups: Vec<f64> = runs.iter().map(|r| r.first_event_s).collect();
    report.note("setup_s", &setups);
    crate::put_end_to_end(report, timed, quietest(&setups));
}

/// The survey pass: the median of three runs, as `sim.mega.*`.
pub fn survey(
    opts: &Opts,
    checks: &mut Checks,
    report: &mut Report,
    spans: &mut SpanLog,
) -> MegaRun {
    let cfg = config(opts);
    let start = spans.now();
    let mut runs = measure_runs(opts, 0.0, checks);
    let end = spans.now();
    runs.truncate(MIN_ROUNDS);
    report.put(
        "sim.mega.wait_p99_us",
        quantile_of(&quiet_slices_us(&runs), 0.99),
        "us",
    );
    // Freed memory is reused by later runs, so the first run's growth (the
    // largest) is the footprint.
    let rss_added_mb = runs.iter().map(|r| r.rss_added_mb).fold(0.0, f64::max);
    runs.sort_by(|a, b| a.run_s.total_cmp(&b.run_s));
    let run = runs.swap_remove(MIN_ROUNDS / 2);
    let id = spans.push("runs", "sim-mega", (start, end), None, ("round", 0));
    let ns = |s: f64| (s * 1e9) as u64;
    let first = start + ns(run.first_event_s);
    spans.push(
        "first_event",
        "sim-mega",
        (start, first),
        Some(id),
        ("round", 0),
    );
    spans.push(
        "run",
        "sim-mega",
        (first, first + ns(run.run_s)),
        Some(id),
        ("round", 0),
    );

    report.put(
        "sim.mega.events",
        run.result.events_processed as f64,
        "count",
    );
    report.put("sim.mega.ns_per_event", run.ns_per_event(), "ns");
    report.put("sim.mega.first_event_s", run.first_event_s, "s");
    report.put(
        "sim.mega.bytes_per_pair",
        rss_added_mb * 1024.0 * 1024.0 / f64::from(cfg.pairs()),
        "B",
    );
    run
}

//! `sim-hub`: what a paper reproducer runs. Sequential engine, hub
//! topology, heap queue, full recorders; one round is four scenarios at the
//! paper-exact 20 000 virtual-second horizon.

use crate::measure::{quantile_of, quiet_round, Checks, Report};
use crate::spans::SpanLog;
use crate::{Fault, Opts};
use presence_des::{derive_seed, ActorId};
use presence_sim::{golden_trio, LossKind, Scenario, ScenarioConfig, ScenarioResult};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The paper-exact horizon (virtual seconds).
const HORIZON: f64 = 20_000.0;

/// A scenario advances in this many equal steps of virtual time; the wall
/// time of one step is the `wait_*` sample (1 000 virtual s at `HORIZON`).
const SLICES: usize = 20;

const MIN_ROUNDS: usize = 3;

/// The four scenario configs of one round: `golden_trio()`'s with seed and
/// duration replaced, plus `lossy` = the `dcpp` config under 2 % Bernoulli
/// loss (bursty 5 % loss makes every CP declare absence within seconds and
/// measures nothing).
pub fn configs(seed: u64, horizon: f64) -> Vec<(&'static str, ScenarioConfig)> {
    let trio = golden_trio();
    let mut lossy = trio[1].1;
    lossy.loss = LossKind::Bernoulli(0.02);
    let mut cfgs: Vec<(&'static str, ScenarioConfig)> =
        trio.iter().map(|(name, cfg)| (*name, *cfg)).collect();
    cfgs.push(("lossy", lossy));
    for (i, (_, cfg)) in cfgs.iter_mut().enumerate() {
        cfg.seed = derive_seed(seed, i as u64);
        cfg.duration = horizon;
    }
    cfgs
}

pub fn horizon(opts: &Opts) -> f64 {
    if opts.smoke {
        1_000.0
    } else {
        HORIZON
    }
}

/// One scenario taken through build → run → collect, each timed apart.
pub struct ScenarioRun {
    pub name: &'static str,
    pub build_s: f64,
    pub run_s: f64,
    pub collect_s: f64,
    /// Wall seconds of each of the `SLICES` steps of `run`.
    pub slices: Vec<f64>,
    pub result: ScenarioResult,
}

pub struct Round {
    pub runs: Vec<ScenarioRun>,
}

impl Round {
    pub fn events(&self) -> u64 {
        self.runs.iter().map(|r| r.result.events_processed).sum()
    }
    pub fn run_s(&self) -> f64 {
        self.runs.iter().map(|r| r.run_s).sum()
    }
    pub fn ns_per_event(&self) -> f64 {
        self.run_s() * 1e9 / self.events() as f64
    }
}

/// Which kind of actor a dispatch went to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cp = 0,
    Device = 1,
    Network = 2,
    Churn = 3,
}

pub const KINDS: [(&str, Kind); 4] = [
    ("cp", Kind::Cp),
    ("device", Kind::Device),
    ("network", Kind::Network),
    ("churn", Kind::Churn),
];

/// What the traced run's dispatch hook accumulates: per actor kind, how
/// many events it was handed and the wall time from each of its dispatches
/// to the next dispatch (its self time, engine overhead included).
#[derive(Debug, Default)]
pub struct DispatchProfile {
    pub events: [u64; 4],
    pub self_ns: [u64; 4],
    last: Option<(Instant, Kind)>,
    /// The first dispatches of the run, kept as spans: (kind, start, end).
    pub first: Vec<(Kind, Instant, Instant)>,
}

impl DispatchProfile {
    const KEEP: usize = 128;

    fn close(&mut self, now: Instant) {
        if let Some((since, kind)) = self.last.take() {
            self.self_ns[kind as usize] += (now - since).as_nanos() as u64;
            if self.first.len() < Self::KEEP {
                self.first.push((kind, since, now));
            }
        }
    }

    fn dispatch(&mut self, kind: Kind) {
        let now = Instant::now();
        self.close(now);
        self.events[kind as usize] += 1;
        self.last = Some((now, kind));
    }
}

fn kind_table(scenario: &Scenario) -> Vec<Kind> {
    let index = |id: ActorId| id.index();
    let top = scenario
        .cp_actors()
        .iter()
        .map(|&id| index(id))
        .chain([
            index(scenario.device_actor()),
            index(scenario.churn_actor()),
        ])
        .max()
        .expect("scenario has actors");
    // Whatever is neither device, CP nor churn driver is the network actor.
    let mut table = vec![Kind::Network; top + 1];
    for &cp in scenario.cp_actors() {
        table[index(cp)] = Kind::Cp;
    }
    table[index(scenario.device_actor())] = Kind::Device;
    table[index(scenario.churn_actor())] = Kind::Churn;
    table
}

/// Builds, runs (in `SLICES` steps) and collects one scenario. With a
/// `profile`, installs the per-dispatch hook first: that is the traced run.
pub fn run_scenario(
    name: &'static str,
    cfg: ScenarioConfig,
    profile: Option<&Rc<RefCell<DispatchProfile>>>,
) -> ScenarioRun {
    let t0 = Instant::now();
    let mut scenario = Scenario::build(cfg);
    let build_s = t0.elapsed().as_secs_f64();
    if let Some(profile) = profile {
        let table = kind_table(&scenario);
        let profile = Rc::clone(profile);
        scenario.sim_mut().set_trace(move |record| {
            let kind = table
                .get(record.target.index())
                .copied()
                .unwrap_or(Kind::Network);
            profile.borrow_mut().dispatch(kind);
        });
    }
    let mut slices = Vec::with_capacity(SLICES);
    let t1 = Instant::now();
    let mut mark = t1;
    for k in 1..=SLICES {
        scenario.run_until(cfg.duration * k as f64 / SLICES as f64);
        let now = Instant::now();
        slices.push((now - mark).as_secs_f64());
        mark = now;
    }
    let run_s = (mark - t1).as_secs_f64();
    if let Some(profile) = profile {
        profile.borrow_mut().close(mark);
    }
    let t2 = Instant::now();
    let result = scenario.collect();
    let collect_s = t2.elapsed().as_secs_f64();
    ScenarioRun {
        name,
        build_s,
        run_s,
        collect_s,
        slices,
        result,
    }
}

pub fn run_round(cfgs: &[(&'static str, ScenarioConfig)]) -> Round {
    Round {
        runs: cfgs
            .iter()
            .map(|(name, cfg)| run_scenario(name, *cfg, None))
            .collect(),
    }
}

/// `events_processed` of a recorded fixture. Read with a scan for the one
/// field, not a full parse: the workspace's JSON shim re-validates the rest
/// of the input at every string character, so its parse time is quadratic
/// in the file size (14 s for a 1.1 MB trace).
fn fixture_events(name: &str) -> Result<u64, String> {
    let path = format!("{}/../tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let key = "\"events_processed\":";
    let at = text
        .find(key)
        .ok_or_else(|| format!("{path}: no events_processed"))?;
    let digits: String = text[at + key.len()..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .map_err(|e| format!("{path}: events_processed: {e}"))
}

/// At the fixtures' own seeds and CI horizons the trio must process
/// exactly the recorded number of events, at ≤ 2.05 events per delivered
/// message: the program under test still simulates what the fixtures pin.
pub fn check_golden(opts: &Opts, checks: &mut Checks) {
    for (name, cfg) in golden_trio() {
        let mut scenario = Scenario::build(cfg);
        scenario.run();
        let result = scenario.collect();
        let expected = match fixture_events(name) {
            // The deliberately broken input: a count the engine cannot hit.
            Ok(n) if opts.fault == Some(Fault::Golden) => Ok(n + 1),
            other => other,
        };
        checks.check(expected == Ok(result.events_processed), || {
            format!(
                "{name}: events_processed {} but tests/golden says {expected:?}",
                result.events_processed
            )
        });
        let per_msg = result.events_per_delivered_message();
        checks.check(per_msg.is_some_and(|r| r <= 2.05), || {
            format!("{name}: {per_msg:?} events per delivered message (limit 2.05)")
        });
    }
}

/// The per-round output checks.
fn check_round(round: &Round, checks: &mut Checks) {
    for run in &round.runs {
        let r = &run.result;
        checks.check(r.messages_unroutable == 0 && r.events_processed > 0, || {
            format!(
                "{}: {} unroutable messages",
                run.name, r.messages_unroutable
            )
        });
        if run.name == "lossy" {
            let probing = r
                .cps
                .iter()
                .filter(|c| c.detected_absent_at.is_none())
                .count();
            let retransmissions: u64 = r.cps.iter().map(|c| c.retransmissions).sum();
            checks.check(
                probing * 10 >= r.cps.len() * 9 && retransmissions > 0,
                || {
                    format!(
                        "lossy: {probing}/{} CPs still probing, {retransmissions} retransmissions",
                        r.cps.len()
                    )
                },
            );
        }
    }
}

/// What a user pays before the first measured event, as every round pays
/// it: each scenario's build and its first slice. Reduced over the rounds
/// like the slices (`measure::quiet_round`): set-ups timed in a burst after
/// the measured phase all fell into one phase of the box, and over twelve
/// runs their lower quartile ranged 1.54x where these pieces' minima, taken
/// across the whole run, ranged 1.07x.
fn setup_pieces(rounds: &[Round]) -> Vec<Vec<f64>> {
    rounds
        .iter()
        .map(|round| {
            round
                .runs
                .iter()
                .flat_map(|s| [s.build_s, s.slices[0]])
                .collect()
        })
        .collect()
}

/// Rounds of the measured (untraced) phase, each checked and then reduced
/// to its counters: a 30-second run must not hold forty rounds of
/// recorder output.
pub fn measure_rounds(opts: &Opts, seconds: f64, checks: &mut Checks) -> Vec<Round> {
    let cfgs = configs(opts.seed, horizon(opts));
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let mut round = run_round(&cfgs);
        check_round(&round, checks);
        for run in &mut round.runs {
            let r = &mut run.result;
            r.load_series = Vec::new();
            r.population_series = Vec::new();
            for cp in &mut r.cps {
                cp.frequency_series = Vec::new();
            }
        }
        rounds.push(round);
    }
    rounds
}

/// The quiet round of `rounds` (see `measure::quiet_round`): per slice of
/// virtual time, the fastest wall µs any round took for it.
fn quiet_slices_us(rounds: &[Round]) -> Vec<f64> {
    let per_round: Vec<Vec<f64>> = rounds
        .iter()
        .map(|round| {
            round
                .runs
                .iter()
                .flat_map(|s| s.slices.iter().map(|w| w * 1e6))
                .collect()
        })
        .collect();
    quiet_round(&per_round)
}

/// One round repeated at the same seed must serialise to the same bytes.
/// Run after the measured phase and after `peak_rss_mb` is read: the
/// serialised text is the benchmark's memory, not the simulator's.
pub fn check_deterministic(opts: &Opts, checks: &mut Checks) {
    let cfgs = configs(opts.seed, horizon(opts));
    let bytes = |round: Round| -> Vec<String> {
        round
            .runs
            .iter()
            .map(|r| serde_json::to_string(&r.result).expect("result serialises"))
            .collect()
    };
    let first = bytes(run_round(&cfgs));
    checks.check(first == bytes(run_round(&cfgs)), || {
        "sim-hub: two rounds at one seed serialise differently".to_string()
    });
}

/// The untraced run: end-to-end metrics only.
pub fn run(opts: &Opts, checks: &mut Checks, report: &mut Report) {
    let rounds = measure_rounds(opts, opts.seconds, checks);
    let quiet = quiet_slices_us(&rounds);
    let timed = (
        quiet.iter().sum::<f64>() / rounds[0].events() as f64,
        quantile_of(&quiet, 0.5),
    );
    let costs: Vec<f64> = rounds.iter().map(|r| r.ns_per_event() / 1e3).collect();
    report.note("cost_us_per_op", &costs);
    let setups = setup_pieces(&rounds);
    let whole: Vec<f64> = setups.iter().map(|round| round.iter().sum()).collect();
    report.note("setup_s", &whole);
    crate::put_end_to_end(report, timed, quiet_round(&setups).iter().sum());
    check_deterministic(opts, checks);
    check_golden(opts, checks);
}

/// Timer operations per processed event, from the round's protocol
/// counters. (The engine's structured trace cannot count them: it
/// classifies only `Context::set_timer` events as timers, and the CP actor
/// arms its timers with `schedule_in`, so `take_engine_trace` reports every
/// timer as a plain dispatch.)
pub struct TimerRates {
    /// Every probe transmission arms a timeout, every accepted reply a wake.
    pub arms: f64,
    /// Every accepted reply cancels its cycle's timeout (the CP actor fuses
    /// that cancel with the wake's arm into one in-place reschedule).
    pub cancels: f64,
    /// Every transmission but a joiner's first follows a timer firing, and
    /// so does every absence verdict.
    pub fires: f64,
}

pub fn timer_rates(round: &Round) -> TimerRates {
    let events = round.events() as f64;
    let sum = |pick: fn(&presence_sim::CpSummary) -> u64| {
        round
            .runs
            .iter()
            .flat_map(|r| r.result.cps.iter())
            .map(pick)
            .sum::<u64>() as f64
    };
    TimerRates {
        arms: (sum(|c| c.probes_sent) + sum(|c| c.cycles_succeeded)) / events,
        cancels: sum(|c| c.cycles_succeeded) / events,
        fires: (sum(|c| c.probes_sent) - sum(|c| c.joins) + sum(|c| c.cycles_failed)) / events,
    }
}

/// How often one round performs each kernel's operation, per processed
/// event, read off the round's own results.
pub struct OpRates {
    pub offered_three_mode: f64,
    pub offered_bernoulli: f64,
    pub dcpp_probes: f64,
    pub sapp_probes: f64,
    pub dcpp_cycles: f64,
    pub sapp_cycles: f64,
    pub retransmissions: f64,
}

pub fn op_rates(round: &Round) -> OpRates {
    let events = round.events() as f64;
    // Σ of `pick` over the scenarios `of` selects, per processed event.
    let rate = |of: fn(&str) -> bool, pick: fn(&ScenarioResult) -> u64| {
        let total: u64 = round
            .runs
            .iter()
            .filter(|r| of(r.name))
            .map(|r| pick(&r.result))
            .sum();
        total as f64 / events
    };
    let cycles = |r: &ScenarioResult| r.cps.iter().map(|c| c.cycles_succeeded).sum();
    OpRates {
        offered_three_mode: rate(|n| n != "lossy", |r| r.messages_offered),
        offered_bernoulli: rate(|n| n == "lossy", |r| r.messages_offered),
        dcpp_probes: rate(|n| n != "sapp", |r| r.device_probes),
        sapp_probes: rate(|n| n == "sapp", |r| r.device_probes),
        dcpp_cycles: rate(|n| n != "sapp", cycles),
        sapp_cycles: rate(|n| n == "sapp", cycles),
        retransmissions: rate(|_| true, |r| r.cps.iter().map(|c| c.retransmissions).sum()),
    }
}

/// What the traced pass hands to the reconciliation in `layers.rs`.
pub struct Survey {
    pub reference: Round,
    pub timers: TimerRates,
}

/// One round under the dispatch hook, with its spans: the round, each
/// scenario's build / run / collect under it, and the first dispatches.
fn traced_round(
    cfgs: &[(&'static str, ScenarioConfig)],
    number: u64,
    reference: &Round,
    checks: &mut Checks,
    spans: &mut SpanLog,
) -> (f64, DispatchProfile) {
    let profile = Rc::new(RefCell::new(DispatchProfile::default()));
    let of = ("round", number);
    let round_start = spans.now();
    let mut run_s = 0.0;
    let mut children = Vec::new();
    for ((name, cfg), untraced) in cfgs.iter().zip(&reference.runs) {
        let t0 = spans.now();
        let run = run_scenario(name, *cfg, Some(&profile));
        run_s += run.run_s;
        let ns = |s: f64| (s * 1e9) as u64;
        let b = t0 + ns(run.build_s);
        let r = b + ns(run.run_s);
        children.push((format!("{name}.build"), (t0, b)));
        children.push((format!("{name}.run"), (b, r)));
        children.push((format!("{name}.collect"), (r, r + ns(run.collect_s))));
        checks.check(
            run.result.events_processed == untraced.result.events_processed,
            || format!("{name}: the traced run processed a different number of events"),
        );
    }
    let round_id = spans.push("round", "sim-hub", (round_start, spans.now()), None, of);
    for (name, range) in children {
        spans.push(name, "sim-hub", range, Some(round_id), of);
    }
    let profile = Rc::try_unwrap(profile)
        .expect("hooks dropped with their scenarios")
        .into_inner();
    for (kind, from, to) in &profile.first {
        let name = KINDS[*kind as usize].0;
        spans.push(
            format!("dispatch.{name}"),
            "sim-hub.dispatch",
            (spans.at(*from), spans.at(*to)),
            Some(round_id),
            of,
        );
    }
    (run_s, profile)
}

/// The traced pass: three untraced rounds and, between them, two rounds
/// under the dispatch hook; the fastest of each kind is kept (the box's
/// noise only slows a round). Reports the `sim.hub.*`, `sim.{kind}.*` and
/// `sim.engine.*` per-layer metrics.
pub fn survey(
    opts: &Opts,
    checks: &mut Checks,
    report: &mut Report,
    spans: &mut SpanLog,
) -> Survey {
    let cfgs = configs(opts.seed, horizon(opts));
    let mut rounds = vec![run_round(&cfgs)];
    let mut traced = Vec::new();
    for number in 0..2 {
        traced.push(traced_round(&cfgs, number, &rounds[0], checks, spans));
        rounds.push(run_round(&cfgs));
    }
    for round in &rounds {
        check_round(round, checks);
    }
    check_golden(opts, checks);
    report.put(
        "sim.hub.wait_p99_us",
        quantile_of(&quiet_slices_us(&rounds), 0.99),
        "us",
    );
    let fastest = |a: &f64, b: &f64| a.total_cmp(b);
    let reference = rounds
        .into_iter()
        .min_by(|a, b| fastest(&a.run_s(), &b.run_s()))
        .expect("three rounds");
    let (traced_run_s, profile) = traced
        .into_iter()
        .min_by(|a, b| fastest(&a.0, &b.0))
        .expect("two rounds");

    for run in &reference.runs {
        let name = run.name;
        report.put(
            format!("sim.hub.{name}.events_per_s"),
            run.result.events_processed as f64 / run.run_s,
            "1/s",
        );
        report.put(
            format!("sim.hub.{name}.events"),
            run.result.events_processed as f64,
            "count",
        );
    }
    let offered: u64 = reference
        .runs
        .iter()
        .map(|r| r.result.messages_offered)
        .sum();
    let delivered: u64 = reference
        .runs
        .iter()
        .map(|r| r.result.messages_delivered)
        .sum();
    report.put(
        "sim.hub.events_per_delivered_msg",
        (offered + delivered) as f64 / delivered as f64,
        "ratio",
    );
    let total = |pick: fn(&ScenarioRun) -> f64| reference.runs.iter().map(pick).sum::<f64>();
    report.put("sim.hub.build_ms", total(|r| r.build_s) * 1e3, "ms");
    report.put("sim.hub.collect_ms", total(|r| r.collect_s) * 1e3, "ms");
    for (name, kind) in KINDS {
        let events = profile.events[kind as usize];
        report.put(format!("sim.{name}.events"), events as f64, "count");
        // Mean self time of one dispatch to this kind of actor.
        report.put(
            format!("sim.{name}.self_ns"),
            profile.self_ns[kind as usize] as f64 / events.max(1) as f64,
            "ns",
        );
    }
    report.put(
        "sim.hub.trace_overhead_ratio",
        traced_run_s / reference.run_s(),
        "ratio",
    );
    let timers = timer_rates(&reference);
    report.put("sim.engine.timer_arms_per_event", timers.arms, "ratio");
    report.put(
        "sim.engine.timer_cancels_per_event",
        timers.cancels,
        "ratio",
    );
    report.put("sim.engine.timer_fires_per_event", timers.fires, "ratio");
    Survey { reference, timers }
}

//! Scenario configuration and construction.
//!
//! A [`ScenarioConfig`] is a complete, serialisable description of one
//! simulation run: protocol, population, network, churn, and seed.
//! [`Scenario::build`] wires the actors together on the paper's network
//! (one process, one bounded buffer); [`Scenario::run`] executes and
//! [`Scenario::collect`] extracts a [`ScenarioResult`].

use crate::actor_set::PresenceSim;
use crate::churn::{ChurnActor, ChurnModel};
use crate::cp_actor::{CpActor, ProberFactory};
use crate::device_actor::{DeviceActor, ProcessingModel};
use crate::event::{Addr, SimEvent};
use crate::metrics::{CpSummary, ScenarioResult};
use crate::network_actor::NetworkActor;
use crate::trace::TraceCapture;
use presence_core::{
    ConfigError, CpId, DcppConfig, DcppDevice, DeviceId, DeviceMachine, ProbeCycleConfig,
    SappConfig, SappDevice, SappDeviceConfig,
};
use presence_des::{ActorId, SimDuration, SimTime};
use presence_net::{
    BernoulliLoss, ConstantDelay, DelayModel, ExponentialDelay, Fabric, GilbertElliott, LossModel,
    NoLoss, ThreeMode, UniformDelay,
};
use presence_stats::jain_index;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Why a [`ScenarioConfig`] or a [`crate::ScenarioSpec`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scenario spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

pub(crate) fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// Serialisable choice of one-way network delay model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DelayKind {
    /// Fixed delay (seconds).
    Constant(f64),
    /// Uniform over `[low, high]` seconds.
    Uniform(f64, f64),
    /// The paper's three-mode model with its default constants.
    ThreeModePaper,
    /// Exponential with the given mean, truncated at `cap` (seconds).
    Exponential {
        /// Mean one-way delay.
        mean: f64,
        /// Hard cap.
        cap: f64,
    },
}

impl DelayKind {
    pub(crate) fn validate(self) -> Result<(), SpecError> {
        match self {
            DelayKind::Constant(s) => {
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(err("constant delay must be non-negative"));
                }
            }
            DelayKind::Uniform(lo, hi) => {
                if !(lo >= 0.0 && lo <= hi && hi.is_finite()) {
                    return Err(err("uniform delay bounds must satisfy 0 <= low <= high"));
                }
            }
            DelayKind::ThreeModePaper => {}
            DelayKind::Exponential { mean, cap } => {
                if !(mean > 0.0 && mean.is_finite() && cap > 0.0 && cap.is_finite()) {
                    return Err(err("exponential delay needs positive mean and cap"));
                }
            }
        }
        Ok(())
    }

    pub(crate) fn build(self) -> Box<dyn DelayModel> {
        match self {
            DelayKind::Constant(s) => Box::new(ConstantDelay(SimDuration::from_secs_f64(s))),
            DelayKind::Uniform(lo, hi) => Box::new(UniformDelay::new(
                SimDuration::from_secs_f64(lo),
                SimDuration::from_secs_f64(hi),
            )),
            DelayKind::ThreeModePaper => Box::new(ThreeMode::paper_default()),
            DelayKind::Exponential { mean, cap } => {
                Box::new(ExponentialDelay::new(mean, SimDuration::from_secs_f64(cap)))
            }
        }
    }
}

/// Serialisable choice of loss model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LossKind {
    /// No loss (the paper's Figure 5 assumption).
    None,
    /// Independent loss with this probability.
    Bernoulli(f64),
    /// Bursty (Gilbert–Elliott) loss with this long-run average rate.
    Bursty(f64),
}

impl LossKind {
    pub(crate) fn validate(self) -> Result<(), SpecError> {
        match self {
            LossKind::None => {}
            LossKind::Bernoulli(p) => {
                if !(0.0..=1.0).contains(&p) {
                    return Err(err("Bernoulli loss probability must be in [0, 1]"));
                }
            }
            LossKind::Bursty(r) => {
                if !(r > 0.0 && r <= 0.5) {
                    return Err(err("bursty loss average rate must be in (0, 0.5]"));
                }
            }
        }
        Ok(())
    }

    pub(crate) fn build(self) -> Box<dyn LossModel> {
        match self {
            LossKind::None => Box::new(NoLoss),
            LossKind::Bernoulli(p) => Box::new(BernoulliLoss::new(p)),
            LossKind::Bursty(r) => Box::new(GilbertElliott::bursty(r)),
        }
    }
}

/// Which protocol the scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Protocol {
    /// SAPP with the given CP and device configurations.
    Sapp {
        /// CP-side configuration.
        cp: SappConfig,
        /// Device-side configuration.
        device: SappDeviceConfig,
    },
    /// DCPP with the given (shared) configuration.
    Dcpp {
        /// Protocol configuration.
        cfg: DcppConfig,
    },
    /// The naive fixed-rate baseline.
    FixedRate {
        /// Probe-cycle timing.
        cycle: ProbeCycleConfig,
        /// Fixed inter-cycle period (seconds).
        period: f64,
    },
}

impl Protocol {
    /// SAPP with all paper-default constants.
    #[must_use]
    pub fn sapp_paper() -> Self {
        Protocol::Sapp {
            cp: SappConfig::paper_default(),
            device: SappDeviceConfig::paper_default(),
        }
    }

    /// DCPP with all paper-default constants.
    #[must_use]
    pub fn dcpp_paper() -> Self {
        Protocol::Dcpp {
            cfg: DcppConfig::paper_default(),
        }
    }

    /// The checks the protocol machines would otherwise panic on when
    /// they are built (the device at assembly, a CP at its first join).
    fn validate(&self) -> Result<(), SpecError> {
        let named = |field: &str, e: ConfigError| err(format!("{field}: {}", e.message()));
        match self {
            Protocol::Sapp { cp, device } => {
                cp.validate().map_err(|e| named("protocol.Sapp.cp", e))?;
                device
                    .validate()
                    .map_err(|e| named("protocol.Sapp.device", e))
            }
            Protocol::Dcpp { cfg } => cfg.validate().map_err(|e| named("protocol.Dcpp.cfg", e)),
            Protocol::FixedRate { cycle, period } => {
                cycle
                    .validate()
                    .map_err(|e| named("protocol.FixedRate.cycle", e))?;
                // Under one clock tick the period rounds to zero.
                if !(*period >= 1e-9 && period.is_finite()) {
                    return Err(err("protocol.FixedRate.period must be positive"));
                }
                Ok(())
            }
        }
    }
}

/// A complete description of one simulation run.
///
/// The config is `Copy`: every field is a plain value (model *choices*,
/// not model *state*), so replication workers can stamp out per-seed
/// variants from a borrowed base without cloning anything heap-allocated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Size of the CP pool (upper bound on the population).
    pub cp_pool: u32,
    /// How many CPs are active from the start.
    pub initially_active: u32,
    /// Network buffer capacity (the paper: 20 000).
    pub buffer_capacity: usize,
    /// One-way delay model.
    pub delay: DelayKind,
    /// Loss model.
    pub loss: LossKind,
    /// Churn workload.
    pub churn: ChurnModel,
    /// Device processing time bounds (seconds): `(min, max)`.
    pub processing: (f64, f64),
    /// Stagger window for initial joins (seconds).
    pub join_stagger: f64,
    /// Width of the device-load measurement windows (seconds).
    pub load_window: f64,
    /// Run SAPP's overlay dissemination of leave notices.
    pub disseminate: bool,
    /// Root seed.
    pub seed: u64,
    /// Virtual run length (seconds).
    pub duration: f64,
}

impl ScenarioConfig {
    /// A paper-faithful configuration: three-mode network, 20 000-element
    /// buffer, no loss, 1–20 ms device processing, 1 s join stagger.
    #[must_use]
    pub fn paper_defaults(protocol: Protocol, cps: u32, duration: f64, seed: u64) -> Self {
        Self {
            protocol,
            cp_pool: cps,
            initially_active: cps,
            buffer_capacity: 20_000,
            delay: DelayKind::ThreeModePaper,
            loss: LossKind::None,
            churn: ChurnModel::Static,
            processing: (0.001, 0.020),
            join_stagger: 1.0,
            load_window: 5.0,
            disseminate: false,
            seed,
            duration,
        }
    }

    /// Checks every invariant a runnable configuration must satisfy — the
    /// one validator of everything stationary ([`crate::ScenarioSpec`]
    /// adds only what its phases and failures bring). [`Scenario::build`]
    /// calls this; batch runners (replication studies, parameter sweeps)
    /// call it once up front so an invalid base fails fast on the calling
    /// thread instead of once per worker.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.cp_pool == 0 {
            return Err(err("need at least one CP"));
        }
        if self.initially_active > self.cp_pool {
            return Err(err("initially_active exceeds the pool"));
        }
        if self.buffer_capacity == 0 {
            return Err(err("buffer capacity must be positive"));
        }
        check_run(
            self.duration,
            self.processing,
            self.join_stagger,
            self.load_window,
        )?;
        self.delay.validate()?;
        self.loss.validate()?;
        self.churn.validate()?;
        self.protocol.validate()
    }
}

/// The run-shape checks a hub scenario and a mega run share: a finite
/// horizon, device processing bounds, the join stagger and the load
/// window.
pub(crate) fn check_run(
    duration: f64,
    (p_min, p_max): (f64, f64),
    join_stagger: f64,
    load_window: f64,
) -> Result<(), SpecError> {
    if !(duration > 0.0 && duration.is_finite()) {
        return Err(err("duration must be positive and finite"));
    }
    if !(p_min >= 0.0 && p_min <= p_max && p_max.is_finite()) {
        return Err(err("processing bounds must satisfy 0 <= min <= max"));
    }
    if !(join_stagger >= 0.0 && join_stagger.is_finite()) {
        return Err(err("join stagger must be non-negative"));
    }
    if !(load_window > 0.0 && load_window.is_finite()) {
        return Err(err("load window must be positive"));
    }
    Ok(())
}

/// The three scenarios pinned by the golden-equivalence suite: one SAPP,
/// one DCPP (the paper-default 30-CP configuration the events-per-message
/// acceptance gate measures), and one Figure-5 churn run. The recorded
/// fixtures live in `tests/golden/` and are regenerated with the
/// `golden_fixtures` bin; the golden test asserts that engine refactors
/// preserve every `ScenarioResult` field, `events_processed` included.
#[must_use]
pub fn golden_trio() -> [(&'static str, ScenarioConfig); 3] {
    let sapp = ScenarioConfig::paper_defaults(Protocol::sapp_paper(), 10, 200.0, 11);
    let dcpp = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 30, 300.0, 7);
    let mut churn = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 60, 600.0, 21);
    churn.initially_active = 20;
    churn.churn = ChurnModel::paper_fig5();
    [("sapp", sapp), ("dcpp", dcpp), ("churn", churn)]
}

/// A built, runnable scenario.
///
/// Runs on the typed actor set ([`crate::PresenceSim`]): every node is an
/// inline [`crate::PresenceActorSet`] member and the engine dispatches
/// events through a direct variant match — the hot path carries no boxed
/// trait objects. Every participant reaches the one [`NetworkActor`]
/// directly, as in the paper.
pub struct Scenario {
    sim: PresenceSim,
    cfg: ScenarioConfig,
    device: ActorId,
    network: ActorId,
    churn: ActorId,
    cps: Vec<ActorId>,
    /// Trace horizon (ns) when [`Scenario::enable_trace`] armed tracing.
    trace_until_ns: Option<u64>,
    /// `(time_ns, target actor)` per delivery, filled by the dispatch hook
    /// that [`Scenario::enable_trace`] installs for the engine stream.
    dispatches: Rc<RefCell<Vec<(u64, usize)>>>,
}

impl Scenario {
    /// Wires up all actors for `cfg`.
    #[must_use]
    pub fn build(cfg: ScenarioConfig) -> Self {
        Self::assemble(cfg, cfg.delay.build(), cfg.loss.build(), &[])
    }

    /// [`Scenario::build`] with explicit (possibly time-varying) network
    /// models and mid-run churn regime switches — the scenario-lab entry
    /// point. `cfg.delay`/`cfg.loss` are ignored in favour of `delay` and
    /// `loss`; the churn actor posts itself `churn_switches` (absolute
    /// seconds, ascending) at start-up, so a switch-free scenario is
    /// event-for-event identical to [`Scenario::build`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid ([`ScenarioConfig::validate`]), or unless
    /// the switch times are strictly increasing and positive.
    #[must_use]
    pub fn assemble(
        cfg: ScenarioConfig,
        delay: Box<dyn DelayModel>,
        loss: Box<dyn LossModel>,
        churn_switches: &[(f64, ChurnModel)],
    ) -> Self {
        cfg.validate().expect("cannot assemble a scenario");

        // Actor add order (network, device, CPs, churn) fixes the actor
        // ids and with them every RNG stream.
        let mut sim = PresenceSim::with_actor_set(cfg.seed);
        let fabric = Fabric::new(cfg.buffer_capacity, delay, loss);
        let network = sim.add_member(NetworkActor::new(fabric).into());

        let device_id = DeviceId(0);
        let machine = match cfg.protocol {
            Protocol::Sapp { device, .. } => {
                DeviceMachine::Sapp(SappDevice::new(device_id, device))
            }
            Protocol::Dcpp { cfg: c } => DeviceMachine::Dcpp(DcppDevice::new(device_id, c)),
            // The fixed-rate baseline probes a DCPP device (any responder
            // works; the baseline ignores reply payloads).
            Protocol::FixedRate { .. } => DeviceMachine::dcpp_paper(device_id),
        };
        let processing = ProcessingModel::between(cfg.processing);
        let device_actor =
            DeviceActor::new(machine, network, processing, cfg.load_window, cfg.duration);
        let device = sim.add_member(device_actor.into());

        let factory = match cfg.protocol {
            Protocol::Sapp { cp, .. } => ProberFactory::Sapp(cp),
            Protocol::Dcpp { cfg: c } => ProberFactory::Dcpp(c),
            Protocol::FixedRate { cycle, period } => {
                ProberFactory::FixedRate(cycle, SimDuration::from_secs_f64(period))
            }
        };

        // One frequency sample lands per completed cycle; the protocols
        // hold the device near L_nom = 10 cycles/s shared across the pool,
        // so this hint is the fair-share expectation with 2× headroom for
        // the unfair (SAPP) trajectories.
        let samples_hint =
            ((cfg.duration * 20.0 / f64::from(cfg.cp_pool)).min(4e6) as usize).max(16);
        let mut cps = Vec::with_capacity(cfg.cp_pool as usize);
        for i in 0..cfg.cp_pool {
            let cp_actor = CpActor::new(
                CpId(i),
                factory.clone(),
                network,
                device_id,
                cfg.disseminate,
                samples_hint,
            );
            cps.push(sim.add_member(cp_actor.into()));
        }

        let net = sim.actor_mut::<NetworkActor>(network).expect("network");
        net.register(Addr::Device(device_id), device);
        for (i, &actor) in cps.iter().enumerate() {
            net.register(Addr::Cp(CpId(i as u32)), actor);
        }

        let churn_actor = ChurnActor::new(
            cfg.churn,
            cps.clone(),
            cfg.initially_active,
            SimDuration::from_secs_f64(cfg.join_stagger),
            cfg.duration,
            churn_switches.to_vec(),
        );
        let churn = sim.add_member(churn_actor.into());

        Self {
            sim,
            cfg,
            device,
            network,
            churn,
            cps,
            trace_until_ns: None,
            dispatches: Rc::default(),
        }
    }

    /// Arms presence tracing on every actor (and, when `engine` is set,
    /// the engine stream). `until` caps the horizon in virtual seconds
    /// (`None` = the whole run). Call before [`Scenario::run`]; drain with
    /// [`Scenario::collect_trace`]. The simulated trajectory is unchanged —
    /// tracing only buffers observations.
    ///
    /// The engine stream's `Dispatch` records come from the simulation's
    /// one observer, its dispatch hook: while the engine stream is on, the
    /// scenario owns that hook slot, so a hook installed through
    /// [`Scenario::sim_mut`] replaces the recorder (and is replaced by it,
    /// if installed first). Its timer records come from the CPs, which own
    /// the protocol timers.
    pub fn enable_trace(&mut self, until: Option<f64>, engine: bool) {
        let until_ns = until.map_or(u64::MAX, |s| SimTime::from_secs_f64(s).as_nanos());
        self.trace_until_ns = Some(until_ns);
        if engine {
            let sink = Rc::clone(&self.dispatches);
            self.sim.set_trace(move |record| {
                let time_ns = record.time.as_nanos();
                if time_ns <= until_ns {
                    sink.borrow_mut().push((time_ns, record.target.index()));
                }
            });
        }
        self.sim
            .actor_mut::<NetworkActor>(self.network)
            .expect("network actor")
            .set_trace(until_ns);
        self.sim
            .actor_mut::<DeviceActor>(self.device)
            .expect("device actor")
            .set_trace(until_ns);
        for &cp in &self.cps {
            self.sim
                .actor_mut::<CpActor>(cp)
                .expect("cp actor")
                .set_trace(until_ns, engine);
        }
        self.sim
            .actor_mut::<ChurnActor>(self.churn)
            .expect("churn actor")
            .set_trace(until_ns);
    }

    /// Drains the trace buffers into a [`presence_trace::TraceModel`]
    /// (counter tracks are synthesised from `result`'s series, so pass the
    /// [`Scenario::collect`] output of the same run).
    ///
    /// # Panics
    ///
    /// Panics if [`Scenario::enable_trace`] was not called.
    #[must_use]
    pub fn collect_trace(&mut self, result: &ScenarioResult) -> presence_trace::TraceModel {
        let until_ns = self
            .trace_until_ns
            .expect("enable_trace before collect_trace");
        let net_buf = self
            .sim
            .actor_mut::<NetworkActor>(self.network)
            .expect("network actor")
            .take_trace();
        let device_buf = self
            .sim
            .actor_mut::<DeviceActor>(self.device)
            .expect("device actor")
            .take_trace();
        let mut cps = Vec::with_capacity(self.cps.len());
        for &cp in &self.cps {
            cps.push((
                cp.index(),
                self.sim
                    .actor_mut::<CpActor>(cp)
                    .expect("cp actor")
                    .take_trace(),
            ));
        }
        let churn_buf = self
            .sim
            .actor_mut::<ChurnActor>(self.churn)
            .expect("churn actor")
            .take_trace();
        TraceCapture {
            until_ns,
            net: (self.network.index(), net_buf),
            device: (self.device.index(), device_buf),
            cps,
            churn: (self.churn.index(), churn_buf),
            dispatches: self.dispatches.take(),
        }
        .into_model(result)
    }

    /// The underlying simulation (for custom
    /// interventions: crashes, Δ-retuning, extra probes, dispatch hooks).
    pub fn sim_mut(&mut self) -> &mut PresenceSim {
        &mut self.sim
    }

    /// Actor id of the device.
    #[must_use]
    pub fn device_actor(&self) -> ActorId {
        self.device
    }

    /// Actor ids of the CP pool.
    #[must_use]
    pub fn cp_actors(&self) -> &[ActorId] {
        &self.cps
    }

    /// Actor id of the churn driver.
    #[must_use]
    pub fn churn_actor(&self) -> ActorId {
        self.churn
    }

    fn schedule_on_device(&mut self, at: f64, event: SimEvent) {
        self.sim
            .schedule_at(SimTime::from_secs_f64(at), self.device, event);
    }

    /// Schedules a device crash (silent leave) at `at` seconds.
    pub fn crash_device_at(&mut self, at: f64) {
        self.schedule_on_device(at, SimEvent::Crash);
    }

    /// Schedules a graceful device leave (Bye broadcast) at `at` seconds.
    pub fn device_bye_at(&mut self, at: f64) {
        self.schedule_on_device(at, SimEvent::GracefulLeave);
    }

    /// Runs the scenario for its configured duration.
    pub fn run(&mut self) {
        self.run_until(self.cfg.duration);
    }

    /// Runs until the given virtual time (may be called repeatedly for
    /// checkpointed collection).
    pub fn run_until(&mut self, at: f64) {
        self.sim.run_until(SimTime::from_secs_f64(at));
    }

    /// Extracts the results accumulated so far.
    #[must_use]
    pub fn collect(&mut self) -> ScenarioResult {
        let now = self.sim.now();

        let (load_series, load_mean, load_variance) = {
            let dev = self
                .sim
                .actor_mut::<DeviceActor>(self.device)
                .expect("device actor");
            let series = dev.load_series_until(now);
            // Load over the steady part (skip the first window).
            let mut acc = presence_stats::Welford::new();
            for &(_, rate) in series.iter().skip(1) {
                acc.push(rate);
            }
            (series, acc.mean(), acc.sample_variance())
        };

        let device_probes = self
            .sim
            .actor::<DeviceActor>(self.device)
            .expect("device actor")
            .probes_received();

        // Mutable: the fabric settles delivery deadlines ≤ now before
        // reporting (lazy delivery accounting).
        let net = self
            .sim
            .actor_mut::<NetworkActor>(self.network)
            .expect("network actor");
        let stats = net.fabric_stats(now);
        let mean_buffer_occupancy = net.mean_occupancy(now);

        let population_series: Vec<(f64, f64)> = self
            .sim
            .actor::<ChurnActor>(self.churn)
            .expect("churn actor")
            .population_series()
            .samples()
            .iter()
            .map(|s| (s.t, s.value))
            .collect();

        let cps: Vec<CpSummary> = self
            .cps
            .iter()
            .map(|&cp| self.sim.actor::<CpActor>(cp).expect("cp actor").summary())
            .collect();

        // Fairness over CPs that ever probed.
        let freqs: Vec<f64> = cps
            .iter()
            .filter(|c| c.cycles_succeeded > 0)
            .map(|c| c.mean_frequency)
            .collect();
        let fairness = jain_index(&freqs);

        ScenarioResult {
            duration: now.as_secs_f64(),
            events_processed: self.sim.events_processed(),
            device_probes,
            load_series,
            load_mean,
            load_variance,
            mean_buffer_occupancy,
            messages_offered: stats.offered,
            messages_delivered: stats.delivered,
            messages_dropped_overflow: stats.dropped_overflow,
            messages_dropped_loss: stats.dropped_loss,
            messages_unroutable: stats.unroutable,
            population_series,
            cps,
            fairness_jain: fairness,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(protocol: Protocol, cps: u32, secs: f64, seed: u64) -> ScenarioResult {
        let mut cfg = ScenarioConfig::paper_defaults(protocol, cps, secs, seed);
        cfg.load_window = 2.0;
        let mut sc = Scenario::build(cfg);
        sc.run();
        sc.collect()
    }

    #[test]
    fn dcpp_static_two_cps_probes_flow() {
        let r = quick(Protocol::dcpp_paper(), 2, 100.0, 7);
        assert!(
            r.device_probes > 50,
            "only {} probes in 100 s",
            r.device_probes
        );
        assert!(r.cps.iter().all(|c| c.cycles_succeeded > 10));
        // Nobody declared the device absent.
        assert!(r.cps.iter().all(|c| c.detected_absent_at.is_none()));
    }

    #[test]
    fn dcpp_static_load_near_l_nom() {
        // 30 CPs want 2/s each = 60/s demand; DCPP caps at L_nom = 10/s.
        let r = quick(Protocol::dcpp_paper(), 30, 300.0, 11);
        assert!(
            (r.load_mean - 10.0).abs() < 1.5,
            "DCPP load {} should be near 10",
            r.load_mean
        );
        assert!(r.fairness_jain > 0.95, "DCPP fairness {}", r.fairness_jain);
    }

    #[test]
    fn sapp_static_load_near_l_nom_but_unfair() {
        // 3 CPs over the paper's 20 000 s horizon (Figure 2's setup): the
        // population diverges — one CP ends up probing several times slower
        // than the others and never recovers. With only three CPs the
        // divergence is trajectory-dependent, so the fixture pins a seed
        // whose trajectory exhibits it under the workspace RNG streams
        // (at 20 CPs it is robust across seeds; see paper_claims.rs).
        let r = quick(Protocol::sapp_paper(), 3, 20_000.0, 2);
        // The paper: device load is "quite good (near to L_nom = 10)".
        assert!(
            r.load_mean > 4.0 && r.load_mean < 25.0,
            "SAPP load {} out of plausible band",
            r.load_mean
        );
        // And the CPs are unfair (Jain below DCPP's ~1.0, wide spread).
        assert!(
            r.fairness_jain < 0.95,
            "SAPP fairness {} unexpectedly high",
            r.fairness_jain
        );
        assert!(
            r.frequency_spread() > 1.5,
            "SAPP frequency spread {} unexpectedly tight",
            r.frequency_spread()
        );
    }

    #[test]
    fn fixed_rate_overloads_device() {
        // 50 CPs at 2/s each = 100/s at the device: the naive baseline
        // has no defence.
        let r = quick(
            Protocol::FixedRate {
                cycle: ProbeCycleConfig::paper_default(),
                period: 0.5,
            },
            50,
            100.0,
            5,
        );
        assert!(
            r.load_mean > 50.0,
            "fixed-rate load {} should vastly exceed L_nom",
            r.load_mean
        );
    }

    #[test]
    fn crash_is_detected_quickly() {
        let mut cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 5, 120.0, 9);
        cfg.load_window = 2.0;
        let mut sc = Scenario::build(cfg);
        sc.crash_device_at(60.0);
        sc.run();
        let r = sc.collect();
        for c in &r.cps {
            let at = c
                .detected_absent_at
                .unwrap_or_else(|| panic!("cp{} never detected the crash", c.id.0));
            assert!(at >= 60.0, "detection before the crash?");
            // Worst case: wait out the assigned delay (≤ ~d_min + backlog)
            // plus the 85 ms verdict; generous bound of 5 s.
            assert!(at < 65.0, "cp{} took {}s to notice", c.id.0, at - 60.0);
        }
    }

    /// The device dies mid-computation: a crash cancels every reply still
    /// inside its processing window, however many there are. 30 CPs at
    /// 10 probes/s each against a fixed 20 ms computation keep about six
    /// replies in flight, so no cycle may complete after the crash.
    #[test]
    fn crash_suppresses_every_reply_in_processing() {
        let protocol = Protocol::FixedRate {
            cycle: ProbeCycleConfig::paper_default(),
            period: 0.1,
        };
        let mut cfg = ScenarioConfig::paper_defaults(protocol, 30, 12.0, 5);
        cfg.delay = DelayKind::Constant(0.0);
        cfg.processing = (0.02, 0.02);
        let mut sc = Scenario::build(cfg);
        sc.crash_device_at(10.0);
        sc.run();
        let r = sc.collect();
        for c in &r.cps {
            let (last, _) = c.frequency_series.last().expect("cycles before the crash");
            assert!(*last <= 10.0, "cp{} completed a cycle at {last}", c.id.0);
            assert!(
                c.detected_absent_at.is_some(),
                "cp{} never detected the crash",
                c.id.0
            );
        }
        assert_eq!(r.cps.len(), 30);
    }

    #[test]
    fn bye_stops_all_cps_immediately() {
        let cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 5, 120.0, 13);
        let mut sc = Scenario::build(cfg);
        sc.device_bye_at(60.0);
        sc.run();
        let r = sc.collect();
        for c in &r.cps {
            let at = c.detected_absent_at.expect("bye must be seen");
            assert!((60.0..60.5).contains(&at), "bye detection at {at}");
        }
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let a = quick(Protocol::sapp_paper(), 10, 50.0, 42);
        let b = quick(Protocol::sapp_paper(), 10, 50.0, 42);
        assert_eq!(a.device_probes, b.device_probes);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.load_series, b.load_series);
        // A different seed shifts the join stagger and the processing
        // jitter, which SAPP's reply-timed load estimates are sensitive to.
        let c = quick(Protocol::sapp_paper(), 10, 50.0, 43);
        let freq = |r: &ScenarioResult| {
            r.cps
                .iter()
                .flat_map(|cp| {
                    cp.frequency_series
                        .iter()
                        .map(|&(t, f)| (t.to_bits(), f.to_bits()))
                })
                .collect::<Vec<_>>()
        };
        assert_ne!(freq(&a), freq(&c), "different seeds must diverge");
    }

    #[test]
    fn churn_population_tracks_model() {
        let mut cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 60, 600.0, 21);
        cfg.initially_active = 20;
        cfg.churn = ChurnModel::paper_fig5();
        let mut sc = Scenario::build(cfg);
        sc.run();
        let r = sc.collect();
        assert!(
            r.population_series.len() > 10,
            "population resampled only {} times in 600 s",
            r.population_series.len()
        );
        for &(_, p) in &r.population_series {
            assert!((0.0..=60.0).contains(&p), "population {p} out of range");
        }
    }

    #[test]
    fn burst_leave_reduces_population() {
        let mut cfg = ScenarioConfig::paper_defaults(Protocol::sapp_paper(), 20, 100.0, 2);
        cfg.churn = ChurnModel::BurstLeave {
            at: 50.0,
            leavers: 18,
        };
        let mut sc = Scenario::build(cfg);
        sc.run();
        let r = sc.collect();
        let last = r.population_series.last().unwrap();
        assert_eq!(last.1, 2.0, "2 CPs must remain");
    }

    #[test]
    fn cp_rejoin_accumulates_sessions() {
        // A CP leaves and rejoins: its record must count both sessions.
        let mut cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 3, 120.0, 31);
        cfg.join_stagger = 0.0;
        let mut sc = Scenario::build(cfg);
        let cp0 = sc.cp_actors()[0];
        {
            let sim = sc.sim_mut();
            sim.schedule_at(SimTime::from_secs_f64(40.0), cp0, crate::SimEvent::Leave);
            sim.schedule_at(SimTime::from_secs_f64(80.0), cp0, crate::SimEvent::Join);
        }
        sc.run();
        let r = sc.collect();
        let cp = &r.cps[0];
        assert_eq!(cp.joins, 2, "rejoin not counted");
        // It probed in both sessions: cycles roughly double a single
        // 40-second session's worth.
        assert!(cp.cycles_succeeded > 30, "cycles {}", cp.cycles_succeeded);
        // Frequency series spans both sessions.
        let first = cp.frequency_series.first().unwrap().0;
        let last = cp.frequency_series.last().unwrap().0;
        assert!(first < 40.0 && last > 80.0);
    }

    #[test]
    fn sapp_overlay_peers_learned_through_replies() {
        let mut cfg = ScenarioConfig::paper_defaults(Protocol::sapp_paper(), 5, 60.0, 3);
        cfg.disseminate = true;
        let mut sc = Scenario::build(cfg);
        sc.run();
        let cp0 = sc.cp_actors()[0];
        let actor = sc.sim_mut().actor::<CpActor>(cp0).expect("cp actor");
        assert!(
            !actor.overlay().is_empty(),
            "cp00 learned no overlay peers from 60 s of SAPP replies"
        );
    }

    #[test]
    #[should_panic(expected = "processing bounds")]
    fn rejects_inverted_processing_bounds_before_the_run() {
        let mut cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 5, 10.0, 0);
        cfg.processing = (0.02, 0.001);
        let _ = Scenario::build(cfg);
    }

    #[test]
    #[should_panic(expected = "initially_active exceeds the pool")]
    fn rejects_oversized_active_set() {
        let mut cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 5, 10.0, 0);
        cfg.initially_active = 6;
        let _ = Scenario::build(cfg);
    }

    fn assemble_with_switches(switches: &[(f64, ChurnModel)]) -> Scenario {
        let cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 5, 10.0, 0);
        Scenario::assemble(cfg, cfg.delay.build(), cfg.loss.build(), switches)
    }

    #[test]
    #[should_panic(expected = "churn switch times must be strictly increasing")]
    fn rejects_churn_switches_out_of_order() {
        let _ = assemble_with_switches(&[(5.0, ChurnModel::Static), (5.0, ChurnModel::Static)]);
    }

    #[test]
    #[should_panic(expected = "first churn switch must be after t = 0")]
    fn rejects_churn_switch_at_zero() {
        let _ = assemble_with_switches(&[(0.0, ChurnModel::Static)]);
    }
}

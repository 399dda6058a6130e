//! Churn workloads: how the CP population evolves over a run.
//!
//! The paper's scenarios map onto these models:
//!
//! * §3 steady-state and Figures 2–3: [`ChurnModel::Static`] — `k` CPs
//!   present throughout.
//! * Figure 4: [`ChurnModel::BurstLeave`] — 18 of 20 CPs leave at once.
//! * Figure 5 / §5: [`ChurnModel::UniformResample`] — the active population
//!   is redrawn from `U{min..max}` at exponentially distributed intervals
//!   ("this choice is repeated every X time-units, where X is exponentially
//!   distributed with rate 0.05").
//!
//! The scenario lab adds the workloads the paper only conjectures about
//! (§5: populations that surge and drain rather than resample uniformly):
//!
//! * [`ChurnModel::FlashCrowd`] — a join wave ramping the population up to
//!   a peak, holding, then draining back down (joins and leaves spread
//!   evenly over the ramp, not lock-stepped);
//! * [`ChurnModel::Diurnal`] — a sinusoid-modulated MMPP: the population
//!   tracks a day-shaped sinusoid between `min` and `max`, resampled at
//!   exponentially distributed instants whose rate is itself modulated by
//!   the sinusoid (churn is busiest near the peak).
//!
//! Models can be **switched mid-run**: each switch is a
//! [`crate::SimEvent::Switch`] the scenario posts to the churn actor
//! before the run, so it is the first event at its instant and the model
//! it replaces takes no action there; the actor re-arms under the new
//! model deterministically.

use crate::event::{Regime, SimEvent};
use crate::scenario::{err, SpecError};
use presence_des::{Actor, ActorId, Context, EventHandle, SimDuration, SimTime};
use presence_stats::TimeSeries;
use serde::{Deserialize, Serialize};

/// A population workload.
#[derive(Debug, Clone, Copy, PartialEq, Deserialize, Serialize)]
pub enum ChurnModel {
    /// All initially active CPs stay for the whole run.
    Static,
    /// At time `at`, `leavers` CPs (the highest-indexed active ones) leave
    /// simultaneously — the Figure 4 workload with `leavers = 18`.
    BurstLeave {
        /// When the burst happens (seconds).
        at: f64,
        /// How many CPs leave.
        leavers: u32,
    },
    /// Redraw the target population uniformly from `[min, max]` at
    /// exponentially distributed intervals with the given `rate` — the
    /// Figure 5 workload with `min = 1`, `max = 60`, `rate = 0.05`.
    UniformResample {
        /// Smallest population.
        min: u32,
        /// Largest population.
        max: u32,
        /// Rate of the exponential inter-resample time (1/mean).
        rate: f64,
    },
    /// A flash crowd: at time `at`, the population ramps up to `peak` with
    /// joins spread evenly over `ramp` seconds, holds for `hold` seconds,
    /// then drains back to the pre-surge population with leaves spread
    /// over another `ramp` seconds. `ramp = 0` degenerates to a lock-step
    /// spike (the adversarial variant of the paper's join-spike worry).
    FlashCrowd {
        /// When the up-ramp starts (seconds).
        at: f64,
        /// Target population at the top of the wave.
        peak: u32,
        /// Width of each ramp (seconds).
        ramp: f64,
        /// How long the crowd stays at the peak (seconds).
        hold: f64,
    },
    /// A sinusoid-modulated MMPP: the mean population follows
    /// `min + (max − min)·(1 − cos(2πt/period))/2` (troughs at t = 0 and
    /// every full period), resampled at exponentially distributed instants
    /// whose rate is `rate · (0.5 + 1.5·s(t))` — churn activity surges
    /// with the population. Each resample draws the target uniformly from
    /// a ±⅛-range band around the sinusoid mean.
    Diurnal {
        /// Length of one day (seconds).
        period: f64,
        /// Trough population.
        min: u32,
        /// Peak population.
        max: u32,
        /// Baseline resample rate (1/mean seconds).
        rate: f64,
    },
}

impl ChurnModel {
    pub(crate) fn validate(self) -> Result<(), SpecError> {
        match self {
            ChurnModel::Static => {}
            ChurnModel::BurstLeave { at, .. } => {
                if !(at >= 0.0 && at.is_finite()) {
                    return Err(err("burst-leave time must be non-negative"));
                }
            }
            ChurnModel::UniformResample { min, max, rate } => {
                if min > max {
                    return Err(err("uniform-resample population bounds inverted"));
                }
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err(err("uniform-resample rate must be positive"));
                }
            }
            ChurnModel::FlashCrowd { at, ramp, hold, .. } => {
                if !(at >= 0.0 && at.is_finite()) {
                    return Err(err("flash-crowd start must be non-negative"));
                }
                if !(ramp >= 0.0 && ramp.is_finite() && hold >= 0.0 && hold.is_finite()) {
                    return Err(err("flash-crowd ramp and hold must be non-negative"));
                }
            }
            ChurnModel::Diurnal {
                period,
                min,
                max,
                rate,
            } => {
                if !(period > 0.0 && period.is_finite()) {
                    return Err(err("diurnal period must be positive"));
                }
                if min > max {
                    return Err(err("diurnal population bounds inverted"));
                }
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err(err("diurnal rate must be positive"));
                }
            }
        }
        Ok(())
    }

    /// The Figure 5 workload.
    #[must_use]
    pub fn paper_fig5() -> Self {
        ChurnModel::UniformResample {
            min: 1,
            max: 60,
            rate: 0.05,
        }
    }

    /// The normalised sinusoid `s(t) = (1 − cos(2πt/period))/2 ∈ [0, 1]`
    /// shared by the [`ChurnModel::Diurnal`] population mean and resample
    /// rate.
    fn diurnal_phase(period: f64, t: f64) -> f64 {
        (1.0 - (2.0 * std::f64::consts::PI * t / period).cos()) / 2.0
    }
}

/// How far the initial joins are staggered, uniformly: it avoids the
/// artificial lock-step of all CPs starting at exactly t = 0.
const JOIN_STAGGER: SimDuration = SimDuration::from_secs(1);

/// The actor that drives joins and leaves according to a [`ChurnModel`].
pub struct ChurnActor {
    model: ChurnModel,
    cps: Vec<ActorId>,
    active: Vec<bool>,
    /// `(t, population)` step series — Figure 5's second curve.
    population: TimeSeries,
    /// The next scheduled self-event (resample / wave step), cancelled on
    /// a model switch so stale events from the old regime never fire.
    pending_self: Option<EventHandle>,
    /// Staggered wave steps ([`SimEvent::ChurnWave`] self-events) not yet
    /// fired. Membership flags and the population series only move when a
    /// step fires, so a model switch simply cancels the pending ones —
    /// bookkeeping always matches what the CPs actually experienced.
    wave: Vec<EventHandle>,
    /// Flash-crowd state machine: 0 = waiting for the up-ramp, 1 = at the
    /// peak waiting for the drain.
    flash_step: u8,
    /// Population before the flash-crowd up-ramp (the drain target).
    flash_baseline: u32,
}

impl ChurnActor {
    /// Creates the churn driver for `cps`, of which the first
    /// `initially_active` join at start (staggered uniformly over the
    /// first second). `horizon` is the configured run length (seconds),
    /// used to pre-size the population series for the expected number of
    /// resamples.
    ///
    /// # Panics
    ///
    /// Panics if `initially_active` exceeds the CP pool.
    #[must_use]
    pub fn new(model: ChurnModel, cps: Vec<ActorId>, initially_active: u32, horizon: f64) -> Self {
        assert!(
            (initially_active as usize) <= cps.len(),
            "more initially active CPs than the pool holds"
        );
        // The initial joiners are marked now; `on_start` sends their joins.
        let active = (0..cps.len())
            .map(|i| i < initially_active as usize)
            .collect();
        let samples_hint = Self::samples_hint(model, horizon);
        Self {
            model,
            cps,
            active,
            population: TimeSeries::with_capacity(samples_hint),
            pending_self: None,
            wave: Vec::new(),
            flash_step: 0,
            flash_baseline: 0,
        }
    }

    /// One sample at start plus one per resample; 1.5× headroom keeps an
    /// unlucky exponential draw sequence from forcing a regrow.
    fn samples_hint(model: ChurnModel, horizon: f64) -> usize {
        match model {
            ChurnModel::Static => 1,
            ChurnModel::BurstLeave { .. } => 2,
            ChurnModel::FlashCrowd { .. } => 3,
            ChurnModel::UniformResample { rate, .. } => {
                (horizon * rate * 1.5).min(4e6) as usize + 2
            }
            // Peak resample rate is 2·rate; size for the mean ~1·rate
            // with the same headroom.
            ChurnModel::Diurnal { rate, .. } => (horizon * rate * 1.5).min(4e6) as usize + 2,
        }
    }

    /// The `(t, population)` series recorded so far.
    #[must_use]
    pub(crate) fn population_series(&self) -> &TimeSeries {
        &self.population
    }

    fn active_count(&self) -> u32 {
        self.active.iter().filter(|&&a| a).count() as u32
    }

    fn record_population(&mut self, now: SimTime) {
        self.population
            .push(now.as_secs_f64(), f64::from(self.active_count()));
    }

    /// Moves the active population to `target` by joining inactive CPs (in
    /// index order) or leaving active ones (highest index first — matching
    /// the "18 of 20 leave, CPs 1–2 stay" reading of Figure 4).
    ///
    /// Each changed CP gets its own same-instant `Join`/`Leave`, sent as its
    /// flag flips: the sends mint consecutive sequence numbers, so the CPs
    /// react in that order before anything else scheduled for this instant.
    fn drive_to(&mut self, ctx: &mut Context<'_, SimEvent>, target: u32) {
        let mut current = self.active_count();
        while current < target {
            let Some(idx) = self.active.iter().position(|&a| !a) else {
                break;
            };
            self.active[idx] = true;
            ctx.send_now(self.cps[idx], SimEvent::Join);
            current += 1;
        }
        while current > target {
            let Some(idx) = self.active.iter().rposition(|&a| a) else {
                break;
            };
            self.active[idx] = false;
            ctx.send_now(self.cps[idx], SimEvent::Leave);
            current -= 1;
        }
        self.record_population(ctx.now());
    }

    /// Schedules the next self-event the current model needs (if any).
    /// Draw order matches the pre-switchable actor exactly, so seeded
    /// trajectories are unchanged for the paper's three models.
    fn arm(&mut self, ctx: &mut Context<'_, SimEvent>) {
        let me = ctx.me();
        self.pending_self = match self.model {
            ChurnModel::Static => None,
            ChurnModel::BurstLeave { at, .. } => {
                let at = SimTime::from_secs_f64(at).max(ctx.now());
                Some(ctx.schedule_at(at, me, SimEvent::ResampleChurn))
            }
            ChurnModel::UniformResample { rate, .. } => {
                let wait = ctx.rng().exponential(rate);
                Some(ctx.schedule_in(
                    SimDuration::from_secs_f64(wait),
                    me,
                    SimEvent::ResampleChurn,
                ))
            }
            ChurnModel::FlashCrowd { at, .. } => {
                self.flash_step = 0;
                let at = SimTime::from_secs_f64(at).max(ctx.now());
                Some(ctx.schedule_at(at, me, SimEvent::ResampleChurn))
            }
            ChurnModel::Diurnal { period, rate, .. } => {
                let lambda = Self::diurnal_rate(rate, period, ctx.now().as_secs_f64());
                let wait = ctx.rng().exponential(lambda);
                Some(ctx.schedule_in(
                    SimDuration::from_secs_f64(wait),
                    me,
                    SimEvent::ResampleChurn,
                ))
            }
        };
    }

    /// The sinusoid-modulated resample rate: `rate · (0.5 + 1.5·s(t))`,
    /// between 0.5× (trough) and 2× (peak) the baseline.
    fn diurnal_rate(rate: f64, period: f64, t: f64) -> f64 {
        rate * (0.5 + 1.5 * ChurnModel::diurnal_phase(period, t))
    }

    /// Schedules a staggered wave of joins or leaves: `targets` CP indices
    /// change membership spread evenly over `ramp` seconds (the k-th at
    /// `ramp·(k+1)/n`). Each step is a [`SimEvent::ChurnWave`] self-event:
    /// the membership flag, the forwarded `Join`/`Leave`, and the
    /// population sample all happen when the step *fires*, so the recorded
    /// population ramps with reality instead of leading it, and a model
    /// switch mid-wave only has to cancel the un-fired steps (costs one
    /// extra engine event per wave member; waves are rare).
    fn schedule_wave(
        &mut self,
        ctx: &mut Context<'_, SimEvent>,
        targets: Vec<usize>,
        is_join: bool,
        ramp: f64,
    ) {
        let n = targets.len();
        let me = ctx.me();
        self.wave.retain(|&h| ctx.is_pending(h));
        for (k, idx) in targets.into_iter().enumerate() {
            let offset = SimDuration::from_secs_f64(ramp * (k + 1) as f64 / n as f64);
            let handle = ctx.schedule_in(
                offset,
                me,
                SimEvent::ChurnWave {
                    index: idx as u32,
                    join: is_join,
                },
            );
            self.wave.push(handle);
        }
    }

    /// One step of the flash-crowd machine.
    fn flash_fire(&mut self, ctx: &mut Context<'_, SimEvent>) {
        let ChurnModel::FlashCrowd {
            peak, ramp, hold, ..
        } = self.model
        else {
            unreachable!("flash step outside FlashCrowd model");
        };
        match self.flash_step {
            0 => {
                self.flash_baseline = self.active_count();
                let want = peak.min(self.cps.len() as u32);
                let need = want.saturating_sub(self.flash_baseline) as usize;
                // Lowest-index inactive CPs join, flags flipping as each
                // wave step fires.
                let joiners: Vec<usize> = self
                    .active
                    .iter()
                    .enumerate()
                    .filter(|&(_, &a)| !a)
                    .map(|(i, _)| i)
                    .take(need)
                    .collect();
                if !joiners.is_empty() {
                    self.schedule_wave(ctx, joiners, true, ramp);
                }
                self.flash_step = 1;
                let me = ctx.me();
                let drain_at = ctx.now() + SimDuration::from_secs_f64(ramp + hold);
                self.pending_self = Some(ctx.schedule_at(drain_at, me, SimEvent::ResampleChurn));
            }
            _ => {
                let need = self.active_count().saturating_sub(self.flash_baseline) as usize;
                // Highest-index active CPs drain first (the Figure 4
                // convention).
                let leavers: Vec<usize> = self
                    .active
                    .iter()
                    .enumerate()
                    .rev()
                    .filter(|&(_, &a)| a)
                    .map(|(i, _)| i)
                    .take(need)
                    .collect();
                if !leavers.is_empty() {
                    self.schedule_wave(ctx, leavers, false, ramp);
                }
                // The wave is over; the model goes quiet (no more
                // self-events) until a regime switch replaces it.
                self.pending_self = None;
                self.flash_step = 2;
            }
        }
    }
}

impl Actor<SimEvent> for ChurnActor {
    fn on_start(&mut self, ctx: &mut Context<'_, SimEvent>) {
        // Stagger the initial joins.
        for idx in 0..self.active_count() as usize {
            let offset = SimDuration::from_nanos(
                ctx.rng().uniform(0.0, JOIN_STAGGER.as_nanos() as f64) as u64,
            );
            ctx.schedule_in(offset, self.cps[idx], SimEvent::Join);
        }
        self.record_population(ctx.now());
        self.arm(ctx);
    }

    fn on_event(&mut self, ctx: &mut Context<'_, SimEvent>, event: SimEvent) {
        match event {
            SimEvent::ResampleChurn => match self.model {
                ChurnModel::Static => {}
                ChurnModel::BurstLeave { leavers, .. } => {
                    self.pending_self = None;
                    let target = self.active_count().saturating_sub(leavers);
                    self.drive_to(ctx, target);
                }
                ChurnModel::UniformResample { min, max, rate } => {
                    let target = ctx
                        .rng()
                        .uniform_inclusive_u64(u64::from(min), u64::from(max))
                        as u32;
                    self.drive_to(ctx, target.min(self.cps.len() as u32));
                    let wait = ctx.rng().exponential(rate);
                    let me = ctx.me();
                    self.pending_self = Some(ctx.schedule_in(
                        SimDuration::from_secs_f64(wait),
                        me,
                        SimEvent::ResampleChurn,
                    ));
                }
                ChurnModel::FlashCrowd { .. } => self.flash_fire(ctx),
                ChurnModel::Diurnal {
                    period,
                    min,
                    max,
                    rate,
                } => {
                    let t = ctx.now().as_secs_f64();
                    let span = f64::from(max.saturating_sub(min));
                    let mean = f64::from(min) + span * ChurnModel::diurnal_phase(period, t);
                    let band = (span / 8.0).max(1.0);
                    let lo = (mean - band).max(f64::from(min)).round() as u64;
                    let hi = (mean + band).min(f64::from(max)).round() as u64;
                    let target = ctx.rng().uniform_inclusive_u64(lo, hi.max(lo)) as u32;
                    self.drive_to(ctx, target.min(self.cps.len() as u32));
                    let lambda = Self::diurnal_rate(rate, period, t);
                    let wait = ctx.rng().exponential(lambda);
                    let me = ctx.me();
                    self.pending_self = Some(ctx.schedule_in(
                        SimDuration::from_secs_f64(wait),
                        me,
                        SimEvent::ResampleChurn,
                    ));
                }
            },
            SimEvent::ChurnWave { index, join } => {
                let idx = index as usize;
                self.active[idx] = join;
                let event = if join {
                    SimEvent::Join
                } else {
                    SimEvent::Leave
                };
                ctx.send_now(self.cps[idx], event);
                self.record_population(ctx.now());
                self.wave.retain(|&h| ctx.is_pending(h));
            }
            SimEvent::Switch(Regime::Churn(model)) => {
                if let Some(handle) = self.pending_self.take() {
                    ctx.cancel(handle);
                }
                // Cancel wave steps that have not fired yet; flags and the
                // population series only move at fire time, so there is
                // nothing to unwind beyond the events themselves.
                for handle in std::mem::take(&mut self.wave) {
                    ctx.cancel(handle);
                }
                self.model = model;
                self.arm(ctx);
            }
            other => {
                debug_assert!(false, "churn actor got unexpected event {other:?}");
            }
        }
    }
}

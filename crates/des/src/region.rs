//! Conservative time-windowed parallel simulation: one run, many lanes.
//!
//! This module is the N-lane driver of the engine's one run loop. A
//! [`Simulation`] built by [`Simulation::with_lanes`] partitions its
//! actors into *lanes* (one per region of the simulated system), each
//! owning its own event queue (reusing [`QueueProfile`]) and advancing
//! independently inside a safe window `[t, t + lookahead)`. Events whose
//! target lives in another lane are parked in the minting lane's outbox
//! and exchanged at the window barrier, where a deterministic merge admits
//! them in `(mint_time, source_lane, source_order)` order —
//! thread-schedule-independent by construction, so a run is a pure
//! function of its seed and partition, never of worker timing. A one-lane
//! simulation is the degenerate case — one unbounded window, no barrier —
//! and never enters this module.
//!
//! # The lookahead contract
//!
//! The engine is *conservative*: lane R may execute its window only if
//! every event that will ever arrive in that window is already queued.
//! That holds when every cross-lane scheduling delay is at least the
//! declared `lookahead` (in the presence stack, the fabric's
//! [`DelayModel::min_delay`] bound; see `presence_net`). The engine does
//! not trust the declaration: a cross-lane event landing inside the
//! current window **panics** at the scheduling call — the violation is
//! loud and attributed, never a silent reorder or a deadlock. A zero
//! lookahead is rejected at construction for the same reason.
//!
//! # Adaptive windows
//!
//! The static window `[t_min, t_min + lookahead)` is sound but pays one
//! barrier per lookahead of virtual time even when cross-lane traffic
//! is sparse (a ping-pong with a 250 µs gap and 10 µs lookahead crosses
//! 25 barriers per hop). Under [`WindowPolicy::Adaptive`] (the default)
//! each lane reports its earliest possible next activity `h_R` at the
//! barrier (queue head, or its clock if starts are pending), and the
//! lane `M` *uniquely* holding `t_min = min h_R` runs a wider window:
//!
//! ```text
//! end_M = max(t_min + lookahead, m2 + lookahead)
//! ```
//!
//! where `m2 = min over R ≠ M of h_R` (the run horizon when no other
//! lane has work), **dynamically cut** while the window runs: the
//! moment `M` mints a cross-lane event arriving at `c`, its bound
//! drops to `min(end_M, c + lookahead)`. Every other lane keeps the
//! static `t_min + lookahead` end.
//!
//! *Safety:* an event arriving in `M` is minted by some lane `R ≠ M`,
//! reacting either to an event already queued somewhere else — every
//! such event sits at ≥ `m2`, so the arrival is ≥ `m2 + lookahead` — or
//! to traffic `M` itself emitted; `M`'s earliest outbound arrival is
//! some `c`, so the re-mint reaches `M` at ≥ `c + lookahead`, which is
//! exactly where the dynamic cut stopped it. Chains of more hops only
//! add lookahead. Non-minimal lanes cannot widen (the `t_min` holder
//! can mint into them at `t_min + lookahead` directly). The cross-lane
//! soundness check accordingly becomes per-target — an event must land
//! at or after its *target's* window end — and the lookahead-violation
//! panic stays as the net underneath. Both policies produce bit-identical
//! trajectories; adaptive executes the same events in fewer, wider
//! windows ([`Simulation::windows_executed`] adaptive ≤ static, round by
//! round).
//!
//! # Bit-identity across lane counts
//!
//! Each actor keeps the [`StreamRng`](crate::StreamRng) stream of its
//! *global* index, whatever lane it lives in, and lanes preserve local
//! FIFO mint order, so an N-lane run reproduces the one-lane run
//! event-for-event provided no two events minted in *different* lanes tie
//! at the same `(time, target)` instant (ties wholly within one lane keep
//! their FIFO order exactly). Continuous or positive-gap cross-lane delays
//! satisfy this; the model proptest in `tests/region_model.rs` pins the
//! equivalence over random partitions, topologies, and seeds, at every
//! worker count.
//!
//! [`DelayModel::min_delay`]: trait method in `presence-net`

use crate::engine::{Actor, Lane, LaneRouter, RunOutcome, Simulation};
use crate::queue::QueueProfile;
use crate::time::{SimDuration, SimTime};
use std::sync::Arc;

/// How a multi-lane [`Simulation`] sizes its conservative windows (see
/// the [module docs](self) for the safety argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowPolicy {
    /// Every lane runs `[t_min, t_min + lookahead)` — the classic
    /// conservative advance, one barrier per lookahead of busy time.
    Static,
    /// The lane uniquely holding the earliest activity runs to
    /// `max(t_min + lookahead, m2 + lookahead)` — `m2` being the other
    /// lanes' earliest activity — cut dynamically to one lookahead past
    /// its own first cross-lane arrival: strictly wider windows,
    /// bit-identical trajectory, fewer barriers when cross-lane traffic
    /// is sparse (see the [module docs](self) for the safety argument).
    #[default]
    Adaptive,
}

/// One window-barrier mark from a multi-lane run's structured trace: the
/// global frontier the barrier completed at and how many cross-lane
/// events it exchanged. One-lane runs have no barriers, so these live
/// beside the [`EngineEvent`](crate::EngineEvent) stream rather than in it
/// — stripping them recovers the lane-invariant trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierMark {
    /// Global frontier when the barrier completed.
    pub time: SimTime,
    /// Cross-lane events exchanged at this barrier.
    pub exchanged: u64,
}

/// Executes one round of windows, one scoped thread per active lane.
pub(crate) type ThreadedWindows<E, S> = fn(Vec<(&mut Lane<E, S>, SimTime)>);

fn run_windows_threaded<E: Clone + Send + 'static, S: Actor<E> + Send>(
    active: Vec<(&mut Lane<E, S>, SimTime)>,
) {
    // Join in lane order and re-raise the first panic with its own
    // payload: a dropped handle would surface as `scope`'s fixed "a
    // scoped thread panicked" and lose the lookahead-violation
    // diagnostic exactly when the engine runs in parallel.
    let first_panic = std::thread::scope(|scope| {
        let handles: Vec<_> = active
            .into_iter()
            .map(|(lane, end)| scope.spawn(move || lane.run_window(end, &mut None)))
            .collect();
        // Every handle is joined (an unjoined panic would make `scope`
        // itself panic); only the first payload is kept.
        let panics: Vec<_> = handles
            .into_iter()
            .filter_map(|handle| handle.join().err())
            .collect();
        panics.into_iter().next()
    });
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
}

impl<E: Clone + Send + 'static, S: Actor<E> + Send> Simulation<E, S> {
    /// Creates a simulation of `lanes` lanes on the given queue profile
    /// (one lane is exactly [`Simulation::with_actor_set_and_profile`]).
    /// `lookahead` is the least delay of any cross-lane event; `None`
    /// declares the lanes *isolated* (e.g. one population shard each):
    /// any cross-lane scheduling call panics, and each run is one window.
    ///
    /// Windows may execute on worker threads ([`Simulation::set_workers`]),
    /// which is why this constructor — and no run method — asks for `Send`
    /// members: typed actor-set enums are, [`crate::DynActorSet`] is not.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`, or if `lookahead` is zero — a route that
    /// can deliver instantly admits no safe window, so it is rejected here
    /// instead of deadlocking or reordering at run time.
    #[must_use]
    pub fn with_lanes(
        root_seed: u64,
        lanes: usize,
        lookahead: Option<SimDuration>,
        profile: QueueProfile,
    ) -> Self {
        assert!(lanes > 0, "a simulation needs at least one lane");
        assert!(
            lookahead != Some(SimDuration::ZERO),
            "zero lookahead rejected: a cross-region route that can deliver \
             instantly admits no safe window (fix the partition, or add a \
             delay floor to the route)"
        );
        let mut sim = Self::with_actor_set_and_profile(root_seed, profile);
        if lanes > 1 {
            sim.lanes
                .extend((1..lanes).map(|_| Lane::new(root_seed, profile)));
            sim.lookahead = lookahead;
            sim.workers =
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            sim.threaded = Some(run_windows_threaded::<E, S>);
        }
        sim
    }
}

impl<E: 'static, S: Actor<E>> Simulation<E, S> {
    /// Caps the worker threads used per round of windows (1 forces inline
    /// serial execution; one lane never uses any). Results are
    /// bit-identical at any setting; only wall time changes.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Selects the window sizing policy (default
    /// [`WindowPolicy::Adaptive`]). Trajectories are bit-identical under
    /// either; only the number of barriers changes.
    pub fn set_window_policy(&mut self, policy: WindowPolicy) {
        self.policy = policy;
    }

    /// Windows executed so far: one per drive-loop round (every lane
    /// with work runs one window per round, then all lanes barrier).
    /// Always 0 on one lane.
    #[must_use]
    pub fn windows_executed(&self) -> u64 {
        self.windows_executed
    }

    /// Cross-lane events exchanged at barriers so far.
    #[must_use]
    pub fn barrier_exchanges(&self) -> u64 {
        self.barrier_exchanges
    }

    /// Drains the buffered [`BarrierMark`]s (one per window barrier
    /// executed while [`Simulation::enable_engine_trace`] was on).
    pub fn take_barrier_marks(&mut self) -> Vec<BarrierMark> {
        std::mem::take(&mut self.barriers)
    }

    /// (Re)installs the routers after membership changes (the actor table
    /// only grows): every lane learns the shared global → (lane, slot) map.
    fn seal(&mut self) {
        let router = self.lanes[0].core.router.as_ref();
        if router.is_some_and(|r| r.locate.len() == self.locate.len()) {
            return;
        }
        let locate: Arc<[(usize, usize)]> = self.locate.as_slice().into();
        let count = self.lanes.len();
        for (index, lane) in self.lanes.iter_mut().enumerate() {
            let sentinel = lane
                .core
                .router
                .as_ref()
                .map_or(u64::MAX, |r| r.sentinel_seq);
            lane.core.router = Some(LaneRouter {
                locate: Arc::clone(&locate),
                my_lane: index,
                window_ends: vec![SimTime::MAX; count],
                lookahead: self.lookahead.unwrap_or(SimDuration::ZERO),
                sentinel_seq: sentinel,
                outbox: Vec::new(),
            });
        }
    }
}

impl<E: Clone + 'static, S: Actor<E>> Simulation<E, S> {
    /// The window loop of a multi-lane run. `end` bounds the run
    /// (inclusive); `None` runs to global idle. `horizon` is the same
    /// bound as an exclusive instant.
    pub(crate) fn drive(&mut self, end: Option<SimTime>, horizon: SimTime) -> RunOutcome {
        self.seal();
        let mut ends: Vec<SimTime> = Vec::with_capacity(self.lanes.len());
        loop {
            // Stop is barrier-granular: the lane whose actor called
            // `Context::stop` halts at once, the others finish the window,
            // and the barrier below completes before this returns — a
            // later run resumes from queues that hold every minted event.
            let stopped = self.lanes.iter_mut().fold(false, |stopped, lane| {
                stopped | std::mem::take(&mut lane.core.stop_requested)
            });
            if stopped {
                return RunOutcome::Stopped;
            }
            let activity: Vec<Option<SimTime>> =
                self.lanes.iter().map(Lane::next_activity).collect();
            let Some(t_min) = activity.iter().flatten().copied().min() else {
                // Queues drained and no starts pending; outboxes are
                // always empty at the top of the loop (drained at every
                // barrier), so the simulation is globally idle.
                return RunOutcome::Idle;
            };
            if end.is_some_and(|end| t_min > end) {
                return RunOutcome::ReachedTime;
            }
            self.window_ends(t_min, horizon, &activity, &mut ends);
            // Every router learns the full per-lane frontier: a minting
            // lane checks cross events against the *target's* end.
            for lane in &mut self.lanes {
                let router = lane.core.router.as_mut().expect("sealed run has routers");
                router.window_ends.clear();
                router.window_ends.extend_from_slice(&ends);
            }
            self.run_windows(&ends);
            self.windows_executed += 1;
            self.flush_trace();
            let exchanged = self.merge_outboxes();
            let etrace = self.lanes[0].core.etrace.as_deref();
            if etrace.is_some_and(|t| t.record_events) {
                // The global frontier is the smallest window end:
                // everything before it has executed in every lane.
                let frontier = ends.iter().copied().min().unwrap_or(horizon);
                self.barriers.push(BarrierMark {
                    time: frontier.min(end.unwrap_or(SimTime::MAX)),
                    exchanged,
                });
            }
        }
    }

    /// Delivers every record buffered during the last round of windows to
    /// the trace hook, merged in `(time, target)` order (see
    /// [`Simulation::set_trace`]).
    fn flush_trace(&mut self) {
        let Some(hook) = self.trace.as_mut() else {
            return;
        };
        let records = &mut self.trace_scratch;
        for lane in &mut self.lanes {
            lane.core.drain_raw_records_into(records);
        }
        records.sort_by_key(|r| (r.time, r.target));
        for record in records.iter() {
            hook(record);
        }
        records.clear();
    }

    /// Computes each lane's window end for the next round (see the
    /// [module docs](self)): the classic conservative `t_min + lookahead`
    /// under [`WindowPolicy::Static`]; under [`WindowPolicy::Adaptive`]
    /// the unique `t_min` holder widens to `m2 + lookahead` — nothing can
    /// reach it earlier unless its own outbound traffic circles back,
    /// which the router's dynamic cut bounds at run time. All ends are
    /// clamped to the run horizon; isolated lanes always run straight to
    /// the horizon.
    fn window_ends(
        &self,
        t_min: SimTime,
        horizon: SimTime,
        activity: &[Option<SimTime>],
        ends: &mut Vec<SimTime>,
    ) {
        ends.clear();
        let count = self.lanes.len();
        let Some(lookahead) = self.lookahead else {
            ends.resize(count, horizon);
            return;
        };
        let static_end = t_min.checked_add(lookahead).unwrap_or(SimTime::MAX);
        if self.policy == WindowPolicy::Static {
            ends.resize(count, static_end.min(horizon));
            return;
        }
        let minimal = activity
            .iter()
            .filter(|h| **h == Some(t_min))
            .take(2)
            .count();
        ends.extend((0..count).map(|target| {
            if minimal != 1 || activity[target] != Some(t_min) {
                // Tied minima, or not the frontier lane: another lane
                // can mint a direct arrival at t_min + lookahead.
                return static_end.min(horizon);
            }
            // The unique frontier lane leaps to the others' earliest
            // possible direct mint; its own cross mints cut the window
            // further at run time (see `LaneRouter::window_ends`).
            let direct = activity
                .iter()
                .enumerate()
                .filter(|&(source, _)| source != target)
                .filter_map(|(_, h)| *h)
                .min()
                .map_or(SimTime::MAX, |m2| {
                    m2.checked_add(lookahead).unwrap_or(SimTime::MAX)
                });
            static_end.max(direct).min(horizon)
        }));
    }

    /// Executes one window on every lane that has work, in parallel when
    /// more than one worker is configured. Lanes are mutually disjoint,
    /// so the windows are data-race-free by construction; results do not
    /// depend on the worker count. The trace hook is not handed to the
    /// lanes: they buffer raw records for [`Self::flush_trace`].
    fn run_windows(&mut self, ends: &[SimTime]) {
        let active: Vec<(&mut Lane<E, S>, SimTime)> = self
            .lanes
            .iter_mut()
            .zip(ends.iter().copied())
            .filter(|(lane, end)| lane.next_activity().is_some_and(|t| t < *end))
            .collect();
        match self.threaded {
            Some(threaded) if self.workers > 1 && active.len() > 1 => threaded(active),
            _ => {
                for (lane, end) in active {
                    lane.run_window(end, &mut None);
                }
            }
        }
    }

    /// The barrier merge: drains every lane's outbox and admits the
    /// events into their target lanes in `(mint_time, source_lane,
    /// source_order)` order — a total order fixed by the simulation's own
    /// trajectory, independent of thread scheduling. Returns how many
    /// events it moved.
    fn merge_outboxes(&mut self) -> u64 {
        let mut moves = Vec::new();
        for lane in &mut self.lanes {
            let router = lane.core.router.as_mut().expect("sealed run has routers");
            moves.append(&mut router.outbox);
        }
        let exchanged = moves.len() as u64;
        self.barrier_exchanges += exchanged;
        // Stable: equal mint times stay in (source lane, source order),
        // the order they were just collected in.
        moves.sort_by_key(|outbound| outbound.mint_time);
        for outbound in moves {
            let (lane, _) = self.locate[outbound.target.0];
            let core = &mut self.lanes[lane].core;
            debug_assert!(
                outbound.time >= core.now,
                "barrier admitted an event into the past: lookahead violation"
            );
            core.push_local(outbound.time, outbound.target, outbound.payload);
        }
        exchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ActorId, Context, ProjectActor};

    type Ev = u32;

    /// Ping-pong chain: forwards each event to `peer` after `delay`,
    /// logging everything it receives, with one RNG draw per event so
    /// stream alignment is also under test.
    struct Relay {
        peer: ActorId,
        delay: SimDuration,
        limit: u32,
        log: Vec<(SimTime, Ev, u64)>,
    }

    impl Actor<Ev> for Relay {
        fn on_start(&mut self, ctx: &mut Context<'_, Ev>) {
            if self.limit > 0 {
                ctx.schedule_in(self.delay, self.peer, 0);
            }
        }
        fn on_event(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
            let draw = ctx.rng().next_u64();
            self.log.push((ctx.now(), ev, draw));
            if ev < self.limit {
                let peer = self.peer;
                let delay = self.delay;
                ctx.schedule_in(delay, peer, ev + 1);
            }
        }
    }

    impl ProjectActor<Relay> for Relay {
        fn project(&self) -> Option<&Relay> {
            Some(self)
        }
        fn project_mut(&mut self) -> Option<&mut Relay> {
            Some(self)
        }
    }

    /// A simulation whose member type is the relay itself.
    type RelaySim = Simulation<Ev, Relay>;

    /// `lanes` lanes joined by [`LOOKAHEAD`].
    fn laned(seed: u64, lanes: usize) -> RelaySim {
        Simulation::with_lanes(seed, lanes, Some(LOOKAHEAD), QueueProfile::Heap)
    }

    /// `lanes` lanes that may not talk to each other.
    fn isolated(seed: u64, lanes: usize) -> RelaySim {
        Simulation::with_lanes(seed, lanes, None, QueueProfile::Heap)
    }

    fn relay(peer: usize, delay_nanos: u64, limit: u32) -> Relay {
        Relay {
            peer: ActorId(peer),
            delay: SimDuration::from_nanos(delay_nanos),
            limit,
            log: Vec::new(),
        }
    }

    const LOOKAHEAD: SimDuration = SimDuration::from_micros(10);

    /// Builds the same two-relay population sequentially and regioned
    /// (one relay per region) and asserts bit-identical logs and counts.
    fn assert_matches_sequential(delay_a: u64, delay_b: u64, limit: u32, end_secs: f64) {
        let end = SimTime::from_secs_f64(end_secs);

        let mut seq: RelaySim = Simulation::with_actor_set(0xabcd);
        let a_seq = seq.add_member(relay(1, delay_a, limit));
        let b_seq = seq.add_member(relay(0, delay_b, limit));
        seq.run_until(end);

        let mut reg = laned(0xabcd, 2);
        let a_reg = reg.add_member_in(0, relay(1, delay_a, limit));
        let b_reg = reg.add_member_in(1, relay(0, delay_b, limit));
        assert_eq!((a_seq, b_seq), (a_reg, b_reg), "global id layout matches");
        reg.run_until(end);

        for (s, r) in [(a_seq, a_reg), (b_seq, b_reg)] {
            assert_eq!(
                seq.actor::<Relay>(s).unwrap().log,
                reg.actor::<Relay>(r).unwrap().log,
                "per-actor trajectories must be bit-identical"
            );
        }
        assert_eq!(seq.events_processed(), reg.events_processed());
        assert_eq!(seq.now(), reg.now());
    }

    #[test]
    fn cross_region_ping_pong_matches_sequential() {
        // Delays comfortably above the lookahead, and distinct so no
        // cross-region (time, target) ties can occur.
        assert_matches_sequential(25_000, 35_000, 40, 0.01);
    }

    #[test]
    fn delay_exactly_at_lookahead_window_boundary() {
        // Every event lands exactly on a window boundary (delay ==
        // lookahead): the boundary belongs to the *next* window, and each
        // event must fire exactly once.
        assert_matches_sequential(10_000, 10_000, 25, 0.01);
    }

    #[test]
    fn idle_region_mid_window_catches_up() {
        // Region 1's relay stops forwarding after 3 hops while region 0
        // keeps a private timer chain running: one region goes idle
        // mid-run and must neither stall the other nor corrupt the clock.
        let end = SimTime::from_secs_f64(0.005);

        let mut seq: RelaySim = Simulation::with_actor_set(7);
        let a = seq.add_member(relay(0, 20_000, 100)); // self-loop, region 0
        let b = seq.add_member(relay(1, 30_000, 3)); // self-loop, dies early
        seq.run_until(end);

        let mut reg = laned(7, 2);
        let ra = reg.add_member_in(0, relay(0, 20_000, 100));
        let rb = reg.add_member_in(1, relay(1, 30_000, 3));
        reg.run_until(end);

        assert_eq!(
            seq.actor::<Relay>(a).unwrap().log,
            reg.actor::<Relay>(ra).unwrap().log
        );
        assert_eq!(
            seq.actor::<Relay>(b).unwrap().log,
            reg.actor::<Relay>(rb).unwrap().log
        );
        assert_eq!(seq.events_processed(), reg.events_processed());
    }

    /// A lane whose window ends on an event that schedules nothing stands
    /// at the barrier with the root of its queue vacant (see
    /// [`crate::queue`]): the merge's `push_local` seats inbound events
    /// there and the next round reads `next_activity` across it. Both ends
    /// of a cross-lane relay pair are also fed from outside every ~7 µs
    /// (payloads past the limit: logged, never forwarded) against a 10 µs
    /// lookahead, so most windows end that way with more pending — and a
    /// lane that ran ahead on a stale root would log out of order.
    #[test]
    fn barrier_merge_over_a_vacant_queue_root_matches_sequential() {
        let end = SimTime::from_secs_f64(0.002);
        let populate = |sim: &mut RelaySim, lanes: usize| -> [ActorId; 2] {
            let ids = [
                sim.add_member_in(0, relay(1, 10_000, 150)),
                sim.add_member_in(lanes - 1, relay(0, 11_000, 150)),
            ];
            for k in 0..250u64 {
                sim.schedule_at(SimTime::from_nanos(1_000 + k * 7_300), ids[0], 1_000);
                sim.schedule_at(SimTime::from_nanos(2_000 + k * 6_100), ids[1], 1_000);
            }
            ids
        };
        let logs = |sim: &RelaySim, ids: [ActorId; 2]| {
            ids.map(|id| sim.actor::<Relay>(id).unwrap().log.clone())
        };

        let mut seq = laned(21, 1);
        let seq_ids = populate(&mut seq, 1);
        seq.run_until(end);
        assert!(seq.events_processed() > 500);

        for workers in [1usize, 4] {
            let mut reg = laned(21, 2);
            reg.set_workers(workers);
            let ids = populate(&mut reg, 2);
            assert_eq!(ids, seq_ids, "global id layout matches");
            reg.run_until(end);
            assert_eq!(logs(&reg, ids), logs(&seq, seq_ids), "workers={workers}");
            assert_eq!(reg.events_processed(), seq.events_processed());
            assert_eq!(reg.queue_len(), seq.queue_len());
        }
    }

    #[test]
    fn serial_and_threaded_execution_are_bit_identical() {
        let run = |workers: usize| {
            let mut reg = laned(99, 4);
            let ids: Vec<ActorId> = (0..4)
                .map(|r| reg.add_member_in(r, relay((r + 1) % 4, 15_000 + r as u64, 60)))
                .collect();
            reg.set_workers(workers);
            reg.run_until(SimTime::from_secs_f64(0.01));
            let logs: Vec<_> = ids
                .iter()
                .map(|&id| reg.actor::<Relay>(id).unwrap().log.clone())
                .collect();
            (logs, reg.events_processed())
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn run_until_idle_drains_everything() {
        let mut reg = laned(3, 2);
        let a = reg.add_member_in(0, relay(1, 12_000, 10));
        let _b = reg.add_member_in(1, relay(0, 13_000, 10));
        assert_eq!(reg.run_until_idle(), RunOutcome::Idle);
        // 2 starts mint one event each; the chain then runs to the limit.
        assert!(reg.actor::<Relay>(a).unwrap().log.len() >= 5);
        assert!(reg.events_processed() > 0);
    }

    #[test]
    #[should_panic(expected = "zero lookahead rejected")]
    fn zero_lookahead_is_rejected_at_construction() {
        let _: RelaySim = Simulation::with_lanes(1, 2, Some(SimDuration::ZERO), QueueProfile::Heap);
    }

    /// Runs `build`'s simulation at forced worker counts 1 (inline
    /// windows) and 4 (one scoped thread per region) and asserts that the
    /// lookahead-violation diagnostic reaches the caller with its message
    /// either way — the result must not depend on the box's core count.
    fn assert_violation_panics(build: impl Fn() -> RelaySim, end_secs: f64) {
        for workers in [1usize, 4] {
            let mut reg = build();
            reg.set_workers(workers);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                reg.run_until(SimTime::from_secs_f64(end_secs));
            }))
            .expect_err("a lookahead violation must panic");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .expect("the panic payload is a message");
            assert!(
                message.contains("lands inside the current window"),
                "workers={workers}: diagnostic lost, got {message:?}"
            );
        }
    }

    #[test]
    fn lookahead_violation_panics_loudly() {
        // Declared lookahead 10 µs, but the cross-region delay is 1 µs:
        // the very first cross send must be rejected, not reordered.
        assert_violation_panics(
            || {
                let mut reg = laned(5, 2);
                reg.add_member_in(0, relay(1, 1_000, 10));
                reg.add_member_in(1, relay(0, 1_000, 10));
                reg
            },
            0.001,
        );
    }

    #[test]
    fn isolated_partition_rejects_any_cross_send() {
        assert_violation_panics(
            || {
                let mut reg = isolated(5, 2);
                reg.add_member_in(0, relay(1, 1_000_000, 10));
                reg.add_member_in(1, relay(0, 1_000_000, 10));
                reg
            },
            1.0,
        );
    }

    #[test]
    fn isolated_regions_match_sequential() {
        // Two self-contained timer chains, one per region: an isolated
        // partition runs them in a single window each and still matches
        // the one-lane run exactly.
        let end = SimTime::from_secs_f64(0.01);
        let mut seq: RelaySim = Simulation::with_actor_set(11);
        let a = seq.add_member(relay(0, 21_000, 50));
        let b = seq.add_member(relay(1, 17_000, 50));
        seq.run_until(end);

        let mut reg = isolated(11, 2);
        let ra = reg.add_member_in(0, relay(0, 21_000, 50));
        let rb = reg.add_member_in(1, relay(1, 17_000, 50));
        reg.run_until(end);

        assert_eq!(
            seq.actor::<Relay>(a).unwrap().log,
            reg.actor::<Relay>(ra).unwrap().log
        );
        assert_eq!(
            seq.actor::<Relay>(b).unwrap().log,
            reg.actor::<Relay>(rb).unwrap().log
        );
        assert_eq!(seq.events_processed(), reg.events_processed());
    }

    #[test]
    fn adaptive_matches_static_with_fewer_windows() {
        // Sparse cross traffic: two relays ping-ponging with delays far
        // above the lookahead. Static pays a barrier every 10 µs of busy
        // time; adaptive jumps straight to the next activity.
        let end = SimTime::from_secs_f64(0.01);
        let run = |policy: WindowPolicy| {
            let mut reg = laned(0xfeed, 2);
            reg.set_window_policy(policy);
            let a = reg.add_member_in(0, relay(1, 250_000, 30));
            let b = reg.add_member_in(1, relay(0, 330_000, 30));
            reg.run_until(end);
            let logs = (
                reg.actor::<Relay>(a).unwrap().log.clone(),
                reg.actor::<Relay>(b).unwrap().log.clone(),
            );
            (logs, reg.events_processed(), reg.windows_executed())
        };
        let (adaptive_logs, adaptive_events, adaptive_windows) = run(WindowPolicy::Adaptive);
        let (static_logs, static_events, static_windows) = run(WindowPolicy::Static);
        assert_eq!(adaptive_logs, static_logs, "trajectory must not change");
        assert_eq!(adaptive_events, static_events);
        assert!(
            adaptive_windows < static_windows,
            "sparse traffic must need fewer adaptive windows \
             ({adaptive_windows} vs {static_windows})"
        );
    }

    #[test]
    fn adaptive_counts_windows_and_barrier_exchanges() {
        let mut reg = laned(21, 2);
        let a = reg.add_member_in(0, relay(1, 50_000, 9));
        let _b = reg.add_member_in(1, relay(0, 50_000, 9));
        reg.run_until_idle();
        assert!(reg.windows_executed() > 0);
        // Every forwarded token crosses the cut: 2 start tokens + 10
        // forwards (hops 0..=9 fire on each side, minting until the limit).
        assert!(reg.barrier_exchanges() > 0);
        assert!(reg.events_processed() > 0);
        let _ = reg.actor::<Relay>(a);
    }

    #[test]
    fn adaptive_keeps_the_violation_panic() {
        assert_violation_panics(
            || {
                let mut reg = laned(5, 2);
                reg.set_window_policy(WindowPolicy::Adaptive);
                reg.add_member_in(0, relay(1, 1_000, 10));
                reg.add_member_in(1, relay(0, 1_000, 10));
                reg
            },
            0.001,
        );
    }

    /// The canonical structured trace is engine-invariant: the regioned
    /// run (any worker count) reproduces the sequential stream exactly,
    /// and its barrier marks strip away cleanly.
    #[test]
    fn engine_trace_is_bit_identical_to_sequential() {
        let end = SimTime::from_secs_f64(0.01);
        let mut seq: RelaySim = Simulation::with_actor_set(0xabcd);
        seq.enable_engine_trace();
        seq.add_member(relay(1, 25_000, 40));
        seq.add_member(relay(0, 35_000, 40));
        seq.run_until(end);
        let sequential = seq.take_engine_trace();
        assert!(!sequential.is_empty());

        for workers in [1, 4] {
            let mut reg = laned(0xabcd, 2);
            reg.enable_engine_trace();
            reg.add_member_in(0, relay(1, 25_000, 40));
            reg.add_member_in(1, relay(0, 35_000, 40));
            reg.set_workers(workers);
            reg.run_until(end);
            assert_eq!(
                reg.take_engine_trace(),
                sequential,
                "workers={workers}: canonical trace must match sequential"
            );
            let marks = reg.take_barrier_marks();
            assert!(!marks.is_empty(), "regioned run records barrier marks");
            assert!(marks.windows(2).all(|w| w[0].time <= w[1].time));
        }
    }

    /// `set_trace` parity: the regioned hook observes every processed
    /// event exactly once, in a worker-count-independent order.
    #[test]
    fn set_trace_hook_sees_every_event_deterministically() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let run = |workers: usize| {
            let mut reg = laned(9, 2);
            reg.add_member_in(0, relay(1, 25_000, 20));
            reg.add_member_in(1, relay(0, 35_000, 20));
            let log = Rc::new(RefCell::new(Vec::new()));
            let log2 = Rc::clone(&log);
            reg.set_trace(move |rec| log2.borrow_mut().push((rec.time, rec.target)));
            reg.set_workers(workers);
            reg.run_until(SimTime::from_secs_f64(0.01));
            let records = log.borrow().clone();
            assert_eq!(records.len() as u64, reg.events_processed());
            records
        };
        assert_eq!(run(1), run(4));
    }

    /// `now()` after `run_until_idle` is the last executed event at any
    /// lane count — not the last window frontier (one lookahead later),
    /// and not the end of time on isolated lanes — while `run_until`
    /// leaves the clock exactly at `end`.
    #[test]
    fn now_is_the_last_event_at_any_lane_count() {
        // One self-looping relay per lane, three ticks a second apart.
        const SECOND: u64 = 1_000_000_000;
        let ten_ms = Some(SimDuration::from_millis(10));
        for (lanes, lookahead) in [(1usize, None), (2, ten_ms), (2, None)] {
            let build = || {
                let mut sim: RelaySim =
                    Simulation::with_lanes(1, lanes, lookahead, QueueProfile::Heap);
                for lane in 0..lanes {
                    sim.add_member_in(lane, relay(lane, SECOND, 2));
                }
                sim
            };
            let mut sim = build();
            assert_eq!(sim.run_until_idle(), RunOutcome::Idle);
            assert_eq!(
                sim.now(),
                SimTime::from_secs_f64(3.0),
                "lanes={lanes} lookahead={lookahead:?}"
            );
            let mut sim = build();
            sim.run_until(SimTime::from_secs_f64(2.5));
            assert_eq!(sim.now(), SimTime::from_secs_f64(2.5));
        }
    }

    /// What addresses a single event needs one lane and says so; what is
    /// a plain sum over lanes is defined at any count.
    #[test]
    fn event_granular_operations_name_the_lane_count() {
        let build = || {
            let mut sim = laned(1, 3);
            let ids: Vec<ActorId> = (0..3)
                .map(|lane| sim.add_member_in(lane, relay(lane, 20_000, 0)))
                .collect();
            for &id in &ids {
                sim.schedule_at(SimTime::from_nanos(5), id, 9);
            }
            (sim, ids)
        };
        let (sim, ids) = build();
        assert_eq!(sim.queue_len(), 3);
        assert_eq!(sim.actor_count(), ids.len());
        let refused = |op: fn(&mut RelaySim)| {
            let (mut sim, _) = build();
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op(&mut sim)))
                .expect_err("event-granular operation on three lanes must panic");
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert!(message.contains("this one has 3 lanes"), "got {message:?}");
        };
        refused(|sim| {
            sim.step();
        });
        refused(|sim| {
            sim.run(10);
        });
        refused(|sim| {
            let handle = sim.schedule_at(SimTime::from_nanos(7), ActorId(0), 1);
            sim.cancel(handle);
        });
        refused(|sim| {
            let handle = sim.schedule_at(SimTime::from_nanos(7), ActorId(0), 1);
            sim.reschedule(handle, SimTime::from_nanos(8));
        });
    }

    /// Mid-run spawn mints global ids from one lane's view of the actor
    /// table: with several lanes it must refuse, not collide.
    #[test]
    #[should_panic(expected = "mid-run actor spawn is not supported in a multi-lane")]
    fn mid_run_spawn_on_several_lanes_is_refused() {
        struct Spawner;
        impl Actor<Ev> for Spawner {
            fn on_event(&mut self, ctx: &mut Context<'_, Ev>, _: Ev) {
                ctx.spawn_member(Spawner);
            }
        }
        let mut sim: Simulation<Ev, Spawner> =
            Simulation::with_lanes(1, 2, Some(LOOKAHEAD), QueueProfile::Heap);
        sim.set_workers(1);
        let spawner = sim.add_member_in(0, Spawner);
        sim.add_member_in(1, Spawner);
        sim.schedule_at(SimTime::from_nanos(5), spawner, 0);
        sim.run_until_idle();
    }

    #[test]
    fn external_stimuli_and_single_region_degenerate() {
        // `with_lanes` at one lane is the plain one-lane simulation:
        // inject external events and compare.
        let end = SimTime::from_secs_f64(0.01);
        let mut seq: RelaySim = Simulation::with_actor_set(13);
        let a = seq.add_member(relay(0, 40_000, 5));
        seq.schedule_at(SimTime::from_nanos(500), a, 100);
        seq.run_until(end);

        let mut reg = laned(13, 1);
        let ra = reg.add_member_in(0, relay(0, 40_000, 5));
        reg.schedule_at(SimTime::from_nanos(500), ra, 100);
        reg.run_until(end);

        assert_eq!(
            seq.actor::<Relay>(a).unwrap().log,
            reg.actor::<Relay>(ra).unwrap().log
        );
        assert_eq!(seq.events_processed(), reg.events_processed());
    }
}

//! Conservative time-windowed parallel simulation: one run, many regions.
//!
//! A [`RegionSim`] partitions one simulation's actors into *regions*, each
//! owning its own event queue (reusing [`QueueProfile`]) and advancing
//! independently inside a safe window `[t, t + lookahead)`. Events whose
//! target lives in another region are parked in the minting region's
//! outbox and exchanged at the window barrier, where a deterministic merge
//! admits them in `(mint_time, source_region, source_order)` order —
//! thread-schedule-independent by construction, so a run is a pure
//! function of its seed and partition, never of worker timing.
//!
//! # The lookahead contract
//!
//! The engine is *conservative*: region R may execute its window only if
//! every event that will ever arrive in that window is already queued.
//! That holds when every cross-region scheduling delay is at least the
//! declared `lookahead` (in the presence stack, the fabric's
//! [`DelayModel::min_delay`] bound; see `presence_net`). The engine does
//! not trust the declaration: a cross-region event landing inside the
//! current window **panics** at the scheduling call — the violation is
//! loud and attributed, never a silent reorder or a deadlock. A zero
//! lookahead is rejected at construction for the same reason.
//!
//! # Adaptive windows
//!
//! The static window `[t_min, t_min + lookahead)` is sound but pays one
//! barrier per lookahead of virtual time even when cross-region traffic
//! is sparse (a ping-pong with a 250 µs gap and 10 µs lookahead crosses
//! 25 barriers per hop). Under [`WindowPolicy::Adaptive`] (the default)
//! each region reports its earliest possible next activity `h_R` at the
//! barrier (queue head, or its clock if starts are pending), and the
//! region `M` *uniquely* holding `t_min = min h_R` runs a wider window:
//!
//! ```text
//! end_M = max(t_min + lookahead, m2 + lookahead)
//! ```
//!
//! where `m2 = min over R ≠ M of h_R` (the run horizon when no other
//! region has work), **dynamically cut** while the window runs: the
//! moment `M` mints a cross-region event arriving at `c`, its bound
//! drops to `min(end_M, c + lookahead)`. Every other region keeps the
//! static `t_min + lookahead` end.
//!
//! *Safety:* an event arriving in `M` is minted by some region `R ≠ M`,
//! reacting either to an event already queued somewhere else — every
//! such event sits at ≥ `m2`, so the arrival is ≥ `m2 + lookahead` — or
//! to traffic `M` itself emitted; `M`'s earliest outbound arrival is
//! some `c`, so the re-mint reaches `M` at ≥ `c + lookahead`, which is
//! exactly where the dynamic cut stopped it. Chains of more hops only
//! add lookahead. Non-minimal regions cannot widen (the `t_min` holder
//! can mint into them at `t_min + lookahead` directly). The cross-region
//! soundness check accordingly becomes per-target — an event must land
//! at or after its *target's* window end — and the lookahead-violation
//! panic stays as the net underneath. Both policies produce bit-identical
//! trajectories; adaptive executes the same events in fewer, wider
//! windows ([`RegionSim::windows_executed`] adaptive ≤ static, round by
//! round).
//!
//! # Bit-identity with the sequential engine
//!
//! Each actor keeps the [`StreamRng`] stream of its *global* index —
//! identical to the same population in a sequential [`Simulation`] — and
//! regions preserve local FIFO mint order, so a regioned run reproduces
//! the sequential run event-for-event provided no two events minted in
//! *different* regions tie at the same `(time, target)` instant (ties
//! wholly within one region keep their FIFO order exactly). Continuous or
//! positive-gap cross-region delays satisfy this; the region-model
//! proptest in `tests/region_model.rs` pins the equivalence over random
//! partitions, topologies, and seeds, at every worker count.
//!
//! [`DelayModel::min_delay`]: trait method in `presence-net`

use crate::engine::{
    Actor, ActorId, Context, Core, Dest, EngineEvent, RegionRouter, RunOutcome, TraceRecord,
};
use crate::queue::{EventQueue, QueueProfile};
use crate::rng::StreamRng;
use crate::time::{SimDuration, SimTime};
use std::sync::Arc;

/// The raw trace hook installed by [`RegionSim::set_trace`].
type TraceHook = Box<dyn FnMut(&TraceRecord)>;

/// How a [`RegionSim`] sizes its conservative windows (see the
/// [module docs](self) for the safety argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowPolicy {
    /// Every region runs `[t_min, t_min + lookahead)` — the classic
    /// conservative advance, one barrier per lookahead of busy time.
    Static,
    /// The region uniquely holding the earliest activity runs to
    /// `max(t_min + lookahead, m2 + lookahead)` — `m2` being the other
    /// regions' earliest activity — cut dynamically to one lookahead past
    /// its own first cross-region arrival: strictly wider windows,
    /// bit-identical trajectory, fewer barriers when cross-region traffic
    /// is sparse (see the [module docs](self) for the safety argument).
    #[default]
    Adaptive,
}

/// One region's private slice of the simulation: its actors, their RNG
/// streams, and a scheduler core with its own event queue and outbox.
struct RegionState<E: 'static, S: Actor<E>> {
    core: Core<E>,
    actors: Vec<S>,
    /// Slot → global actor index (RNG streams and `ActorId`s are global).
    global_ids: Vec<usize>,
    rngs: Vec<StreamRng>,
    started: Vec<bool>,
    /// Whether any actor in this region still awaits `on_start`.
    starts_pending: bool,
    events_processed: u64,
    /// Global actor index → (region, slot), shared by every region so
    /// batch dispatch can resolve targets locally.
    locate: Arc<Vec<(u32, u32)>>,
}

impl<E: 'static, S: Actor<E>> RegionState<E, S> {
    /// The earliest instant at which this region could possibly act: its
    /// next queued event, or the current clock if starts are pending.
    fn next_activity(&self) -> Option<SimTime> {
        if self.starts_pending {
            return Some(self.core.now);
        }
        self.core.queue.peek().map(|k| k.time)
    }

    fn dispatch(&mut self, slot: usize, payload: Option<E>) {
        let mut pending: Vec<S> = Vec::new();
        {
            let actor = &mut self.actors[slot];
            let mut ctx = Context {
                core: &mut self.core,
                rng: &mut self.rngs[slot],
                pending_spawns: &mut pending,
                me: ActorId(self.global_ids[slot]),
            };
            match payload {
                Some(ev) => actor.on_event(&mut ctx, ev),
                None => actor.on_start(&mut ctx),
            }
        }
        assert!(
            pending.is_empty(),
            "mid-run actor spawn is not supported in a regioned simulation \
             (the global actor table is fixed at run start)"
        );
    }

    fn flush_starts(&mut self) {
        if !self.starts_pending {
            return;
        }
        for slot in 0..self.actors.len() {
            if !self.started[slot] {
                self.started[slot] = true;
                self.dispatch(slot, None);
            }
        }
        self.starts_pending = false;
    }
}

impl<E: Clone + 'static, S: Actor<E>> RegionState<E, S> {
    /// Advances this region through one window: runs `on_start` backlog,
    /// then fires every queued event strictly before `window_end`. A
    /// region whose queue empties (or never had events this window) simply
    /// returns — going idle mid-window is the normal case, not an error.
    fn run_window(&mut self, window_end: SimTime) {
        self.flush_starts();
        loop {
            // Re-read the bound each iteration: a cross-region mint cuts
            // this region's own window end (see `RegionRouter`), so an
            // adaptive window that leapt ahead stops as soon as its own
            // outbound traffic could circle back.
            let bound = self
                .core
                .router
                .as_ref()
                .map_or(window_end, |r| r.window_ends[r.my_region as usize]);
            match self.core.queue.peek() {
                Some(key) if key.time < bound => {}
                _ => return,
            }
            if self.core.stop_requested {
                return;
            }
            let (key, (dest, payload)) = self.core.queue.pop().expect("peeked event pops");
            debug_assert!(key.time >= self.core.now, "region queue went backwards");
            self.core.now = key.time;
            self.events_processed += 1;
            match dest {
                Dest::One(target) => {
                    self.core.note_dispatch(key.time, target, key.seq);
                    let (_, slot) = self.locate[target.0];
                    self.dispatch(slot as usize, Some(payload));
                }
                Dest::Batch(targets) => {
                    let (&last, rest) = targets.split_last().expect("batch is never empty");
                    for &target in rest {
                        self.core.note_dispatch(key.time, target, key.seq);
                        let (_, slot) = self.locate[target.0];
                        self.dispatch(slot as usize, Some(payload.clone()));
                    }
                    self.core.note_dispatch(key.time, last, key.seq);
                    let (_, slot) = self.locate[last.0];
                    self.dispatch(slot as usize, Some(payload));
                }
            }
        }
    }
}

/// A conservative time-windowed parallel simulation over actor storage `S`
/// (see the [module docs](self) for the protocol and its guarantees).
///
/// Construction mirrors [`Simulation`]: actors join via
/// [`RegionSim::add_member`] with an explicit region, receiving globally
/// numbered [`ActorId`]s (and therefore the same RNG streams the
/// sequential engine would hand them). Unlike `Simulation` there is no
/// dynamic-storage default: a parallel run hands regions to worker
/// threads, so the member type must be `Send` (typed actor-set enums are;
/// the `Rc`-friendly [`crate::DynActorSet`] is not).
///
/// [`Simulation`]: crate::Simulation
pub struct RegionSim<E: 'static, S: Actor<E>> {
    regions: Vec<RegionState<E, S>>,
    /// Global actor index → (region, slot).
    locate: Vec<(u32, u32)>,
    /// `None` means the partition is *isolated*: no cross-region events
    /// are permitted at all (infinite lookahead — one window per run).
    lookahead: Option<SimDuration>,
    root_seed: u64,
    now: SimTime,
    /// Upper bound on worker threads per window barrier; 1 executes the
    /// windows inline (bit-identical results either way).
    workers: usize,
    /// Window sizing policy (trajectory-invariant; affects barrier count
    /// only).
    policy: WindowPolicy,
    /// Windows executed (drive-loop rounds ending in a barrier).
    windows_executed: u64,
    /// Cross-region events exchanged at barriers over the sim's lifetime.
    barrier_exchanges: u64,
    /// Whether the per-region routers have been (re)installed since the
    /// last membership change.
    sealed: bool,
    /// Trace hook with [`crate::Simulation::set_trace`] parity: invoked
    /// for every processed event, in deterministic barrier-merge order.
    trace: Option<TraceHook>,
    /// Reusable scratch for the per-barrier trace merge.
    trace_scratch: Vec<TraceRecord>,
    /// Barrier marks buffered while structured tracing is on.
    barriers: Vec<BarrierMark>,
    /// Whether structured tracing (and barrier marks) are enabled.
    etrace_enabled: bool,
}

/// One window-barrier mark from a regioned run's structured trace: when
/// the barrier completed (the global frontier) and how many cross-region
/// events it exchanged. Sequential runs have no barriers, so these live
/// beside the [`EngineEvent`] stream rather than in it — stripping them
/// recovers the engine-invariant trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierMark {
    /// Global frontier when the barrier completed.
    pub time: SimTime,
    /// Cross-region events exchanged at this barrier.
    pub exchanged: u64,
}

impl<E: 'static, S: Actor<E>> RegionSim<E, S> {
    /// Creates a regioned simulation with `regions` regions and the given
    /// cross-region lookahead, on the default heap queue profile.
    ///
    /// # Panics
    ///
    /// Panics if `regions == 0`, or if `lookahead` is zero — a route that
    /// can deliver instantly admits no safe window, so the configuration
    /// is rejected loudly at construction instead of deadlocking or
    /// reordering at run time. (Use [`RegionSim::isolated`] for partitions
    /// with no cross-region communication at all.)
    #[must_use]
    pub fn new(root_seed: u64, regions: usize, lookahead: SimDuration) -> Self {
        Self::with_profile(root_seed, regions, Some(lookahead), QueueProfile::Heap)
    }

    /// A partition whose regions never exchange events (e.g. one
    /// independent population shard per region): any cross-region
    /// scheduling call panics, and each run is a single window.
    #[must_use]
    pub fn isolated(root_seed: u64, regions: usize) -> Self {
        Self::with_profile(root_seed, regions, None, QueueProfile::Heap)
    }

    /// [`RegionSim::new`]/[`RegionSim::isolated`] with an explicit queue
    /// profile per region (`lookahead: None` means isolated). Mega-scale
    /// regions select [`QueueProfile::calendar`] here.
    ///
    /// # Panics
    ///
    /// Panics if `regions == 0` or `lookahead == Some(SimDuration::ZERO)`.
    #[must_use]
    pub fn with_profile(
        root_seed: u64,
        regions: usize,
        lookahead: Option<SimDuration>,
        profile: QueueProfile,
    ) -> Self {
        assert!(
            regions > 0,
            "a regioned simulation needs at least one region"
        );
        assert!(
            lookahead != Some(SimDuration::ZERO),
            "zero lookahead rejected: a cross-region route that can deliver \
             instantly admits no safe window (fix the partition, or add a \
             delay floor to the route)"
        );
        let locate = Arc::new(Vec::new());
        let regions = (0..regions)
            .map(|_| RegionState {
                core: Core {
                    now: SimTime::ZERO,
                    queue: EventQueue::with_profile(profile),
                    next_seq: 0,
                    stop_requested: false,
                    actor_count: 0,
                    router: None,
                    etrace: None,
                },
                actors: Vec::new(),
                global_ids: Vec::new(),
                rngs: Vec::new(),
                started: Vec::new(),
                starts_pending: false,
                events_processed: 0,
                locate: Arc::clone(&locate),
            })
            .collect();
        Self {
            regions,
            locate: Vec::new(),
            lookahead,
            root_seed,
            now: SimTime::ZERO,
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            policy: WindowPolicy::default(),
            windows_executed: 0,
            barrier_exchanges: 0,
            sealed: false,
            trace: None,
            trace_scratch: Vec::new(),
            barriers: Vec::new(),
            etrace_enabled: false,
        }
    }

    /// Installs a trace hook with [`crate::Simulation::set_trace`]
    /// parity: the hook observes every processed event exactly once.
    /// Regions buffer their records while a window runs and the hook is
    /// invoked at each barrier, merged in `(time, target)` order — a
    /// total order fixed by the trajectory, independent of worker
    /// scheduling. The `seq` field is the *region-local* sequence number
    /// (engine sequence numbering is per-region here); `time` and
    /// `target` match the sequential engine's records exactly.
    pub fn set_trace<F: FnMut(&TraceRecord) + 'static>(&mut self, hook: F) {
        for region in &mut self.regions {
            region.core.enable_raw_records();
        }
        self.trace = Some(Box::new(hook));
    }

    /// Switches the structured engine trace on for every region
    /// (idempotent) — the regioned mirror of
    /// [`crate::Simulation::enable_engine_trace`]. Window barriers are
    /// additionally recorded as [`BarrierMark`]s.
    pub fn enable_engine_trace(&mut self) {
        for region in &mut self.regions {
            region.core.enable_etrace();
        }
        self.etrace_enabled = true;
    }

    /// Drains the structured trace in canonical `(time, actor)` order —
    /// bit-identical to [`crate::Simulation::take_engine_trace`] on the
    /// same population and seed (each actor's trajectory is identical
    /// and lives in exactly one region, so the stable cross-region sort
    /// reconstructs the sequential stream exactly).
    pub fn take_engine_trace(&mut self) -> Vec<EngineEvent> {
        let mut events = Vec::new();
        for region in &mut self.regions {
            events.append(&mut region.core.take_etrace_events());
        }
        events.sort_by_key(|e| (e.time, e.actor));
        events
    }

    /// Drains the buffered [`BarrierMark`]s (one per window barrier
    /// executed while [`RegionSim::enable_engine_trace`] was on).
    pub fn take_barrier_marks(&mut self) -> Vec<BarrierMark> {
        std::mem::take(&mut self.barriers)
    }

    /// Caps the worker threads used per window (1 forces inline serial
    /// execution). Results are bit-identical at any setting; only wall
    /// time changes.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Selects the window sizing policy (default
    /// [`WindowPolicy::Adaptive`]). Trajectories are bit-identical under
    /// either; only the number of barriers changes.
    pub fn set_window_policy(&mut self, policy: WindowPolicy) {
        self.policy = policy;
    }

    /// The active window sizing policy.
    #[must_use]
    pub fn window_policy(&self) -> WindowPolicy {
        self.policy
    }

    /// The configured cross-region lookahead (`None` for an isolated
    /// partition).
    #[must_use]
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }

    /// Windows executed so far: one per drive-loop round (every region
    /// with work runs one window per round, then all regions barrier).
    #[must_use]
    pub fn windows_executed(&self) -> u64 {
        self.windows_executed
    }

    /// Cross-region events exchanged at barriers so far.
    #[must_use]
    pub fn barrier_exchanges(&self) -> u64 {
        self.barrier_exchanges
    }

    /// Mean events processed per window (0 before the first window) —
    /// the figure of merit for window sizing: higher means less barrier
    /// overhead per unit of work.
    #[must_use]
    pub fn events_per_window(&self) -> f64 {
        if self.windows_executed == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.events_processed() as f64 / self.windows_executed as f64
        }
    }

    /// The number of regions.
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Registers `member` in `region`, returning its globally numbered id.
    /// Global ids (and therefore RNG streams) are assigned in call order,
    /// independent of the region — assembling the same population in the
    /// same order into a sequential [`Simulation`] yields the same
    /// actor-id layout and the same random streams.
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range.
    pub fn add_member(&mut self, region: usize, member: S) -> ActorId {
        assert!(region < self.regions.len(), "unknown region {region}");
        let global = self.locate.len();
        let slot = self.regions[region].actors.len();
        self.locate
            .push((u32::try_from(region).expect("region fits u32"), {
                u32::try_from(slot).expect("slot fits u32")
            }));
        let state = &mut self.regions[region];
        state.actors.push(member);
        state.global_ids.push(global);
        state
            .rngs
            .push(StreamRng::new(self.root_seed, global as u64));
        state.started.push(false);
        state.starts_pending = true;
        self.sealed = false;
        ActorId(global)
    }

    /// Current virtual time: the last completed barrier (or the end passed
    /// to [`RegionSim::run_until`]).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed across all regions. With identical
    /// trajectories this equals the sequential engine's count exactly:
    /// every event is minted once and fired once, on whichever side of a
    /// barrier it lands.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.regions.iter().map(|r| r.events_processed).sum()
    }

    /// Events processed by one region alone (fan-out observability for
    /// isolated shard-per-region runs).
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range.
    #[must_use]
    pub fn region_events_processed(&self, region: usize) -> u64 {
        self.regions[region].events_processed
    }

    /// Number of registered actors (across all regions).
    #[must_use]
    pub fn actor_count(&self) -> usize {
        self.locate.len()
    }

    /// Immutable access to an actor by its global id, projected to its
    /// concrete type (the regioned mirror of [`crate::Simulation::actor`]).
    #[must_use]
    pub fn actor<A>(&self, id: ActorId) -> Option<&A>
    where
        S: crate::engine::ProjectActor<A>,
    {
        let &(region, slot) = self.locate.get(id.0)?;
        self.regions[region as usize].actors[slot as usize].project()
    }

    /// Mutable access to an actor by its global id.
    #[must_use]
    pub fn actor_mut<A>(&mut self, id: ActorId) -> Option<&mut A>
    where
        S: crate::engine::ProjectActor<A>,
    {
        let &(region, slot) = self.locate.get(id.0)?;
        self.regions[region as usize].actors[slot as usize].project_mut()
    }

    /// Schedules an external stimulus for `target` (any region) at `at`.
    ///
    /// # Panics
    ///
    /// Panics if the target is unknown or `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, target: ActorId, payload: E) {
        let &(region, _) = self.locate.get(target.0).expect("unknown actor");
        let state = &mut self.regions[region as usize];
        // Bypass the router (external injection is not a cross-region
        // event minted by an actor): push straight into the owning queue.
        let seq = state.core.next_seq;
        state.core.next_seq += 1;
        assert!(at >= state.core.now, "cannot schedule into the past");
        state.core.queue.push(at, seq, (Dest::One(target), payload));
    }

    /// (Re)installs the routers after membership changes: every region
    /// learns the global actor count and the shared global→region map.
    fn seal(&mut self) {
        if self.sealed {
            return;
        }
        let region_of: Arc<[u32]> = self.locate.iter().map(|&(r, _)| r).collect();
        let locate = Arc::new(self.locate.clone());
        let total = self.locate.len();
        let count = self.regions.len();
        for (index, state) in self.regions.iter_mut().enumerate() {
            state.core.actor_count = total;
            state.locate = Arc::clone(&locate);
            let sentinel = state
                .core
                .router
                .as_ref()
                .map_or(u64::MAX, |r| r.sentinel_seq);
            state.core.router = Some(RegionRouter {
                region_of: Arc::clone(&region_of),
                my_region: u32::try_from(index).expect("region fits u32"),
                window_ends: vec![SimTime::MAX; count],
                lookahead: self.lookahead.unwrap_or(SimDuration::ZERO),
                sentinel_seq: sentinel,
                outbox: Vec::new(),
            });
        }
        self.sealed = true;
    }
}

impl<E: Clone + Send + 'static, S: Actor<E> + Send> RegionSim<E, S> {
    /// Runs until the virtual clock reaches `end` (processing every event
    /// with `time ≤ end`), the queues drain, or an actor stops the run.
    /// On [`RunOutcome::ReachedTime`] the clock is left exactly at `end`
    /// (mirroring [`crate::Simulation::run_until`]).
    pub fn run_until(&mut self, end: SimTime) -> RunOutcome {
        let outcome = self.drive(Some(end));
        if outcome != RunOutcome::Stopped {
            self.now = self.now.max(end);
            for region in &mut self.regions {
                region.core.now = region.core.now.max(end);
            }
        }
        outcome
    }

    /// Runs until every region's queue is empty (and no cross-region
    /// events remain in flight) or an actor stops the run.
    pub fn run_until_idle(&mut self) -> RunOutcome {
        self.drive(None)
    }

    /// The window loop. `end` bounds the run (inclusive, like
    /// [`crate::Simulation::run_until`]); `None` runs to global idle.
    fn drive(&mut self, end: Option<SimTime>) -> RunOutcome {
        self.seal();
        // Exclusive horizon: `end` is inclusive and the clock is integer
        // nanoseconds, so the half-open window machinery uses `end + 1ns`.
        let horizon = end.map_or(SimTime::MAX, |e| {
            e.checked_add(SimDuration::from_nanos(1))
                .unwrap_or(SimTime::MAX)
        });
        let mut ends: Vec<SimTime> = Vec::with_capacity(self.regions.len());
        loop {
            if self.take_stop_request() {
                return RunOutcome::Stopped;
            }
            let activity: Vec<Option<SimTime>> = self
                .regions
                .iter()
                .map(RegionState::next_activity)
                .collect();
            let Some(t_min) = activity.iter().flatten().copied().min() else {
                // Queues drained and no starts pending; outboxes are
                // always empty at the top of the loop (drained at every
                // barrier), so the simulation is globally idle.
                return RunOutcome::Idle;
            };
            if let Some(end) = end {
                if t_min > end {
                    return RunOutcome::ReachedTime;
                }
            }
            self.window_ends(t_min, horizon, &activity, &mut ends);
            // Every router learns the full per-region frontier: a minting
            // region checks cross events against the *target's* end.
            for state in &mut self.regions {
                let router = state.core.router.as_mut().expect("sealed run has routers");
                router.window_ends.clear();
                router.window_ends.extend_from_slice(&ends);
            }
            self.run_windows(&ends);
            self.windows_executed += 1;
            self.flush_trace();
            if self.take_stop_request() {
                return RunOutcome::Stopped;
            }
            // The global frontier is the smallest window end: everything
            // before it has executed in every region.
            let frontier = ends.iter().copied().min().unwrap_or(horizon);
            self.now = self.now.max(frontier.min(end.unwrap_or(SimTime::MAX)));
            let before = self.barrier_exchanges;
            self.merge_outboxes();
            if self.etrace_enabled {
                self.barriers.push(BarrierMark {
                    time: self.now,
                    exchanged: self.barrier_exchanges - before,
                });
            }
        }
    }

    /// Delivers every record buffered during the last round of windows to
    /// the trace hook, merged in `(time, target)` order (see
    /// [`RegionSim::set_trace`]).
    fn flush_trace(&mut self) {
        let Some(hook) = self.trace.as_mut() else {
            return;
        };
        let records = &mut self.trace_scratch;
        for region in &mut self.regions {
            region.core.drain_raw_records_into(records);
        }
        records.sort_by_key(|r| (r.time, r.target));
        for record in records.iter() {
            hook(record);
        }
        records.clear();
    }

    /// Computes each region's window end for the next round (see the
    /// [module docs](self)): the classic conservative `t_min + lookahead`
    /// under [`WindowPolicy::Static`]; under [`WindowPolicy::Adaptive`]
    /// the unique `t_min` holder widens to `m2 + lookahead` — nothing can
    /// reach it earlier unless its own outbound traffic circles back,
    /// which the router's dynamic cut bounds at run time. All ends are
    /// clamped to the run horizon; an isolated partition always runs
    /// straight to the horizon.
    fn window_ends(
        &self,
        t_min: SimTime,
        horizon: SimTime,
        activity: &[Option<SimTime>],
        ends: &mut Vec<SimTime>,
    ) {
        ends.clear();
        let count = self.regions.len();
        let Some(lookahead) = self.lookahead else {
            ends.resize(count, horizon);
            return;
        };
        let static_end = t_min.checked_add(lookahead).unwrap_or(SimTime::MAX);
        if self.policy == WindowPolicy::Static {
            ends.resize(count, static_end.min(horizon));
            return;
        }
        if count == 1 {
            // Degenerate single region: no cross-region events can exist,
            // so the whole run is one window.
            ends.push(horizon);
            return;
        }
        let minimal = activity
            .iter()
            .filter(|h| **h == Some(t_min))
            .take(2)
            .count();
        ends.extend((0..count).map(|target| {
            if minimal != 1 || activity[target] != Some(t_min) {
                // Tied minima, or not the frontier region: another region
                // can mint a direct arrival at t_min + lookahead.
                return static_end.min(horizon);
            }
            // The unique frontier region leaps to the others' earliest
            // possible direct mint; its own cross mints cut the window
            // further at run time (see `RegionRouter::window_ends`).
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

    /// Clears and reports any region's stop request (stop is
    /// barrier-granular: the whole run halts at the end of the window in
    /// which any actor called [`crate::Context::stop`]).
    fn take_stop_request(&mut self) -> bool {
        let mut stopped = false;
        for region in &mut self.regions {
            stopped |= region.core.stop_requested;
            region.core.stop_requested = false;
        }
        stopped
    }

    /// Executes one window on every region that has work, in parallel when
    /// more than one worker is configured. Regions are mutually disjoint,
    /// so the windows are data-race-free by construction; results do not
    /// depend on the worker count.
    fn run_windows(&mut self, ends: &[SimTime]) {
        let mut active: Vec<(&mut RegionState<E, S>, SimTime)> = self
            .regions
            .iter_mut()
            .zip(ends.iter().copied())
            .filter(|(r, end)| r.next_activity().is_some_and(|t| t < *end))
            .collect();
        if self.workers <= 1 || active.len() <= 1 {
            for (region, end) in active {
                region.run_window(end);
            }
            return;
        }
        // Join in region order and re-raise the first panic with its own
        // payload: a dropped handle would surface as `scope`'s fixed "a
        // scoped thread panicked" and lose the lookahead-violation
        // diagnostic exactly when the engine runs in parallel.
        let first_panic = std::thread::scope(|scope| {
            let handles: Vec<_> = active
                .drain(..)
                .map(|(region, end)| scope.spawn(move || region.run_window(end)))
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

    /// The barrier merge: drains every region's outbox and admits the
    /// events into their target regions in `(mint_time, source_region,
    /// source_order)` order — a total order fixed by the simulation's own
    /// trajectory, independent of thread scheduling.
    fn merge_outboxes(&mut self) {
        let mut moves = Vec::new();
        for (source, region) in self.regions.iter_mut().enumerate() {
            let router = region.core.router.as_mut().expect("sealed run has routers");
            for (order, outbound) in router.outbox.drain(..).enumerate() {
                moves.push((outbound.mint_time, source, order, outbound));
            }
        }
        if moves.is_empty() {
            return;
        }
        self.barrier_exchanges += moves.len() as u64;
        moves.sort_by_key(|m| (m.0, m.1, m.2));
        for (_, _, _, outbound) in moves {
            let (region, _) = self.locate[outbound.target.0];
            let state = &mut self.regions[region as usize];
            let seq = state.core.next_seq;
            state.core.next_seq += 1;
            debug_assert!(
                outbound.time >= state.core.now,
                "barrier admitted an event into the past: lookahead violation"
            );
            state.core.queue.push(
                outbound.time,
                seq,
                (Dest::One(outbound.target), outbound.payload),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ProjectActor, Simulation};

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

    /// A regioned simulation whose member type is the relay itself.
    type RelayRegionSim = RegionSim<Ev, Relay>;
    type RelaySim = Simulation<Ev, Relay>;

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

        let mut reg: RelayRegionSim = RegionSim::new(0xabcd, 2, LOOKAHEAD);
        let a_reg = reg.add_member(0, relay(1, delay_a, limit));
        let b_reg = reg.add_member(1, relay(0, delay_b, limit));
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

        let mut reg: RelayRegionSim = RegionSim::new(7, 2, LOOKAHEAD);
        let ra = reg.add_member(0, relay(0, 20_000, 100));
        let rb = reg.add_member(1, relay(1, 30_000, 3));
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
    fn serial_and_threaded_execution_are_bit_identical() {
        let run = |workers: usize| {
            let mut reg: RelayRegionSim = RegionSim::new(99, 4, LOOKAHEAD);
            let ids: Vec<ActorId> = (0..4)
                .map(|r| reg.add_member(r, relay((r + 1) % 4, 15_000 + r as u64, 60)))
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
        let mut reg: RelayRegionSim = RegionSim::new(3, 2, LOOKAHEAD);
        let a = reg.add_member(0, relay(1, 12_000, 10));
        let _b = reg.add_member(1, relay(0, 13_000, 10));
        assert_eq!(reg.run_until_idle(), RunOutcome::Idle);
        // 2 starts mint one event each; the chain then runs to the limit.
        assert!(reg.actor::<Relay>(a).unwrap().log.len() >= 5);
        assert!(reg.events_processed() > 0);
    }

    #[test]
    #[should_panic(expected = "zero lookahead rejected")]
    fn zero_lookahead_is_rejected_at_construction() {
        let _: RelayRegionSim = RegionSim::new(1, 2, SimDuration::ZERO);
    }

    /// Runs `build`'s simulation at forced worker counts 1 (inline
    /// windows) and 4 (one scoped thread per region) and asserts that the
    /// lookahead-violation diagnostic reaches the caller with its message
    /// either way — the result must not depend on the box's core count.
    fn assert_violation_panics(build: impl Fn() -> RelayRegionSim, end_secs: f64) {
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
                let mut reg: RelayRegionSim = RegionSim::new(5, 2, LOOKAHEAD);
                reg.add_member(0, relay(1, 1_000, 10));
                reg.add_member(1, relay(0, 1_000, 10));
                reg
            },
            0.001,
        );
    }

    #[test]
    fn isolated_partition_rejects_any_cross_send() {
        assert_violation_panics(
            || {
                let mut reg: RelayRegionSim = RegionSim::isolated(5, 2);
                reg.add_member(0, relay(1, 1_000_000, 10));
                reg.add_member(1, relay(0, 1_000_000, 10));
                reg
            },
            1.0,
        );
    }

    #[test]
    fn isolated_regions_match_sequential() {
        // Two self-contained timer chains, one per region: an isolated
        // partition runs them in a single window each and still matches
        // the sequential engine exactly.
        let end = SimTime::from_secs_f64(0.01);
        let mut seq: RelaySim = Simulation::with_actor_set(11);
        let a = seq.add_member(relay(0, 21_000, 50));
        let b = seq.add_member(relay(1, 17_000, 50));
        seq.run_until(end);

        let mut reg: RelayRegionSim = RegionSim::isolated(11, 2);
        let ra = reg.add_member(0, relay(0, 21_000, 50));
        let rb = reg.add_member(1, relay(1, 17_000, 50));
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
            let mut reg: RelayRegionSim = RegionSim::new(0xfeed, 2, LOOKAHEAD);
            reg.set_window_policy(policy);
            let a = reg.add_member(0, relay(1, 250_000, 30));
            let b = reg.add_member(1, relay(0, 330_000, 30));
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
        let mut reg: RelayRegionSim = RegionSim::new(21, 2, LOOKAHEAD);
        let a = reg.add_member(0, relay(1, 50_000, 9));
        let _b = reg.add_member(1, relay(0, 50_000, 9));
        reg.run_until_idle();
        assert!(reg.windows_executed() > 0);
        // Every forwarded token crosses the cut: 2 start tokens + 10
        // forwards (hops 0..=9 fire on each side, minting until the limit).
        assert!(reg.barrier_exchanges() > 0);
        assert!(reg.events_per_window() > 0.0);
        let _ = reg.actor::<Relay>(a);
    }

    #[test]
    fn adaptive_keeps_the_violation_panic() {
        assert_violation_panics(
            || {
                let mut reg: RelayRegionSim = RegionSim::new(5, 2, LOOKAHEAD);
                reg.set_window_policy(WindowPolicy::Adaptive);
                reg.add_member(0, relay(1, 1_000, 10));
                reg.add_member(1, relay(0, 1_000, 10));
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
            let mut reg: RelayRegionSim = RegionSim::new(0xabcd, 2, LOOKAHEAD);
            reg.enable_engine_trace();
            reg.add_member(0, relay(1, 25_000, 40));
            reg.add_member(1, relay(0, 35_000, 40));
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
            let mut reg: RelayRegionSim = RegionSim::new(9, 2, LOOKAHEAD);
            reg.add_member(0, relay(1, 25_000, 20));
            reg.add_member(1, relay(0, 35_000, 20));
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

    #[test]
    fn external_stimuli_and_single_region_degenerate() {
        // One region is the sequential engine with extra bookkeeping:
        // inject external events and compare.
        let end = SimTime::from_secs_f64(0.01);
        let mut seq: RelaySim = Simulation::with_actor_set(13);
        let a = seq.add_member(relay(0, 40_000, 5));
        seq.schedule_at(SimTime::from_nanos(500), a, 100);
        seq.run_until(end);

        let mut reg: RelayRegionSim = RegionSim::new(13, 1, LOOKAHEAD);
        let ra = reg.add_member(0, relay(0, 40_000, 5));
        reg.schedule_at(SimTime::from_nanos(500), ra, 100);
        reg.run_until(end);

        assert_eq!(
            seq.actor::<Relay>(a).unwrap().log,
            reg.actor::<Relay>(ra).unwrap().log
        );
        assert_eq!(seq.events_processed(), reg.events_processed());
    }
}

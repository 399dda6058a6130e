//! The discrete-event simulation engine.
//!
//! A [`Simulation`] owns a set of actors, one virtual clock and one stable
//! time-ordered event queue, and runs one pop → dispatch loop over them.
//! Determinism guarantees:
//!
//! * Events fire in `(time, sequence-number)` order — two events scheduled
//!   for the same instant fire in the order they were scheduled, regardless
//!   of heap internals (the queue itself lives in [`crate::queue`]).
//! * Each actor draws randomness only from its own [`StreamRng`], derived
//!   from the root seed and the actor's id, so runs replay exactly and
//!   actors don't perturb each other's streams.
//!
//! # Typed actor storage
//!
//! `Simulation<E, S>` is generic over its member type `S`, any type
//! implementing [`Actor<E>`]. A one-kind simulation names the actor type
//! itself (`Simulation<E, A>`: every `A` projects to itself, see
//! [`ProjectActor`]); a simulation domain with several kinds supplies an
//! enum over them whose `Actor` impl is a `match`, so the per-event hot
//! path dispatches without a vtable call — no box per actor, no pointer
//! chase per event. The table is closed while an event is handled: an
//! actor cannot add members, so the engine borrows the member in place
//! (the actor table and the scheduler core are disjoint) and dispatch is a
//! plain indexed borrow. Populations that grow and shrink are modelled the
//! way the paper's CP pool is — members built up front and toggled by
//! events — and [`Simulation::add_member`] between two runs is the only
//! late join.
//!
//! # One observer
//!
//! The engine owns the clock and the queue, and nothing else: it does not
//! know which events are timers. Its one observer is the dispatch hook
//! ([`Simulation::set_trace`]), which sees each delivery as a
//! [`TraceRecord`]. What an event *means* — a timer arm, a cancel, a fire
//! — is reported by the actor that scheduled it ([`Context::set_timer`]
//! is a plain self-addressed [`Context::schedule_in`]).
//!
//! This is the stand-in for the paper's MODEST/MÖBIUS tool chain: a small,
//! auditable kernel whose event semantics are plain enough to validate by
//! inspection (the paper stresses that simulation results are only
//! trustworthy when the simulator's semantics are).

use crate::queue::{EventKey, EventQueue, QueueProfile};
use crate::rng::StreamRng;
use crate::time::{SimDuration, SimTime};
use std::mem::size_of;
use std::num::NonZeroU64;

/// Identifies an actor within one [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub(crate) usize);

impl ActorId {
    /// The raw index (stable for the lifetime of the simulation).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a scheduled event, usable to [cancel](Context::cancel) it.
///
/// It names the queue slot the event sits in, so cancelling, rearming or
/// testing it goes straight to that slot. The slot's occupant must carry
/// the handle's sequence number, which keeps a handle whose event fired or
/// was cancelled from reaching the event that reused the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    /// The event's sequence number plus one: the niche that keeps
    /// `Option<EventHandle>` at the handle's own size.
    seq: NonZeroU64,
    /// The slot [`EventQueue::push`] returned for the event.
    slot: u32,
}

impl EventHandle {
    fn new(seq: u64, slot: u32) -> Self {
        let seq =
            NonZeroU64::new(seq.wrapping_add(1)).expect("sequence numbers end below u64::MAX");
        Self { seq, slot }
    }

    fn seq(self) -> u64 {
        self.seq.get() - 1
    }
}

// A timer slot (`Option<EventHandle>`) costs no tag: the mega shard keeps
// one per device pair.
const _: () = assert!(size_of::<Option<EventHandle>>() == 16);

/// A simulation participant.
///
/// Actors are passive: they only run when an event addressed to them fires.
/// All interaction with the world — scheduling future events, sending to
/// other actors, randomness — goes through the [`Context`].
///
/// The trait doubles as the bound on a simulation's *member type*: a typed
/// simulation stores an enum over its actor kinds whose `Actor` impl is a
/// `match` delegating to the active variant.
pub trait Actor<E>: 'static {
    /// Called once, at the entry of the first run method after the actor
    /// was added — before any of its events fire.
    fn on_start(&mut self, _ctx: &mut Context<'_, E>) {}

    /// Called for every event addressed to this actor.
    fn on_event(&mut self, ctx: &mut Context<'_, E>, event: E);
}

/// Projection from a simulation's member type to one concrete actor kind —
/// what [`Simulation::actor`]/[`Simulation::actor_mut`] use to hand out
/// typed access.
///
/// Every type projects to itself, which is all a one-kind simulation
/// (`Simulation<E, A>`) needs; an enum member type implements it per
/// variant:
///
/// ```
/// use presence_des::{Actor, Context, ProjectActor};
///
/// struct Ping;
/// struct Pong;
/// # impl Actor<u32> for Ping { fn on_event(&mut self, _: &mut Context<'_, u32>, _: u32) {} }
/// # impl Actor<u32> for Pong { fn on_event(&mut self, _: &mut Context<'_, u32>, _: u32) {} }
///
/// enum Member {
///     Ping(Ping),
///     Pong(Pong),
/// }
/// # impl Actor<u32> for Member {
/// #     fn on_event(&mut self, ctx: &mut Context<'_, u32>, ev: u32) {
/// #         match self {
/// #             Member::Ping(a) => a.on_event(ctx, ev),
/// #             Member::Pong(a) => a.on_event(ctx, ev),
/// #         }
/// #     }
/// # }
///
/// impl ProjectActor<Ping> for Member {
///     fn project(&self) -> Option<&Ping> {
///         match self {
///             Member::Ping(a) => Some(a),
///             _ => None,
///         }
///     }
///     fn project_mut(&mut self) -> Option<&mut Ping> {
///         match self {
///             Member::Ping(a) => Some(a),
///             _ => None,
///         }
///     }
/// }
/// ```
pub trait ProjectActor<A> {
    /// The member as an `A`, if that is what it holds.
    fn project(&self) -> Option<&A>;
    /// The member as a mutable `A`, if that is what it holds.
    fn project_mut(&mut self) -> Option<&mut A>;
}

impl<A> ProjectActor<A> for A {
    fn project(&self) -> Option<&A> {
        Some(self)
    }
    fn project_mut(&mut self) -> Option<&mut A> {
        Some(self)
    }
}

/// A record handed to the trace hook for every processed event.
#[derive(Debug, Clone, Copy)]
pub struct TraceRecord {
    /// Virtual time at which the event fired.
    pub time: SimTime,
    /// The actor that received it.
    pub target: ActorId,
    /// The event's global sequence number.
    pub seq: u64,
}

/// Why a run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The requested end time was reached (queue may still hold events).
    ReachedTime,
    /// The event queue drained completely.
    Idle,
    /// The event budget was exhausted.
    EventBudget,
}

/// The destination of one queued event: a single actor, or a batch
/// delivered to every listed actor in order within one engine event.
///
/// A batch occupies **one** queue slot and one sequence number. Because a
/// loop of same-instant `send_now` calls mints consecutive sequence
/// numbers (nothing can be scheduled between them), collapsing the loop
/// into a batch cannot reorder anything: every other event either precedes
/// the whole run of sends or follows it, exactly as before. The batch
/// therefore preserves seeded trajectories bit-for-bit while costing one
/// queue operation instead of k (the churn actor's `drive_to` is the
/// motivating caller).
///
/// Batches are rare, so their target lists wait in a side table of
/// [`Core`] and the queued destination is one word, not a fat pointer.
#[derive(Debug, Clone, Copy)]
enum Dest {
    /// The actor with this index.
    One(u32),
    /// Every actor of the target list at this index of `Core::batches`.
    Batch(u32),
}

// Every queued event carries a `Dest` beside its payload.
const _: () = assert!(size_of::<Dest>() <= 8);

/// Mutable scheduler state shared between the engine loop and [`Context`].
struct Core<E> {
    now: SimTime,
    /// Live events only: cancellation removes entries immediately (see
    /// [`crate::queue`]), so there are no tombstones to skip at pop time.
    queue: EventQueue<(Dest, E)>,
    /// The target lists of pending batch events, at the index their
    /// [`Dest::Batch`] names; a free entry is empty and listed in
    /// `free_batches`.
    batches: Vec<Vec<ActorId>>,
    free_batches: Vec<u32>,
    next_seq: u64,
    actor_count: usize,
}

impl<E> Core<E> {
    fn push(&mut self, time: SimTime, target: ActorId, payload: E) -> EventHandle {
        // `add_member` keeps every actor index below `u32::MAX`.
        self.push_dest(time, Dest::One(target.0 as u32), payload)
    }

    fn push_batch(&mut self, time: SimTime, targets: Vec<ActorId>, payload: E) -> EventHandle {
        assert!(!targets.is_empty(), "batch needs at least one target");
        let index = match self.free_batches.pop() {
            Some(index) => {
                self.batches[index as usize] = targets;
                index
            }
            None => {
                let index = u32::try_from(self.batches.len()).expect("batch table overflow");
                self.batches.push(targets);
                index
            }
        };
        self.push_dest(time, Dest::Batch(index), payload)
    }

    #[inline]
    fn push_dest(&mut self, time: SimTime, dest: Dest, payload: E) -> EventHandle {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.queue.push(time, seq, (dest, payload));
        EventHandle::new(seq, slot)
    }

    /// Takes the target list of a batch event that left the queue, freeing
    /// its table entry.
    fn take_batch(&mut self, index: u32) -> Vec<ActorId> {
        self.free_batches.push(index);
        std::mem::take(&mut self.batches[index as usize])
    }

    /// Cancels a pending event. Returns whether it was still pending.
    fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.queue.cancel_slot(handle.slot, handle.seq()) {
            Some((Dest::Batch(index), _)) => {
                self.take_batch(index);
                true
            }
            Some((Dest::One(_), _)) => true,
            None => false,
        }
    }
}

/// The API an actor uses to interact with the simulation while handling an
/// event.
pub struct Context<'a, E> {
    core: &'a mut Core<E>,
    rng: &'a mut StreamRng,
    me: ActorId,
}

impl<'a, E> Context<'a, E> {
    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The id of the actor currently handling an event.
    #[must_use]
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// This actor's private random stream.
    pub fn rng(&mut self) -> &mut StreamRng {
        self.rng
    }

    /// Schedules `payload` for `target` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or `target` does not exist.
    pub fn schedule_at(&mut self, at: SimTime, target: ActorId, payload: E) -> EventHandle {
        assert!(
            target.0 < self.core.actor_count,
            "scheduling for unknown actor {target:?}"
        );
        self.core.push(at, target, payload)
    }

    /// Schedules `payload` for `target` after a delay.
    pub fn schedule_in(&mut self, delay: SimDuration, target: ActorId, payload: E) -> EventHandle {
        let at = self.core.now + delay;
        self.schedule_at(at, target, payload)
    }

    /// Schedules `payload` for this actor after a delay (a timer).
    pub fn set_timer(&mut self, delay: SimDuration, payload: E) -> EventHandle {
        let me = self.me;
        self.schedule_in(delay, me, payload)
    }

    /// Sends `payload` to `target` at the current instant (it fires after
    /// all events already scheduled for this instant).
    pub fn send_now(&mut self, target: ActorId, payload: E) -> EventHandle {
        let now = self.core.now;
        self.schedule_at(now, target, payload)
    }

    /// Sends one copy of `payload` to every target at the current instant
    /// as a **single** engine event: one queue slot, one sequence number,
    /// one `events_processed` tick; the targets are dispatched in list
    /// order when it fires. Equivalent to a loop of [`Context::send_now`]
    /// calls in every observable ordering (a same-instant `send_now` run
    /// mints consecutive sequence numbers, so nothing can interleave), but
    /// k − 1 queue operations cheaper. Cancelling the returned handle
    /// cancels delivery to the whole batch.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty or names an unknown actor.
    pub fn send_now_batch(&mut self, targets: Vec<ActorId>, payload: E) -> EventHandle {
        for &target in &targets {
            assert!(
                target.0 < self.core.actor_count,
                "scheduling for unknown actor {target:?}"
            );
        }
        let now = self.core.now;
        self.core.push_batch(now, targets, payload)
    }

    /// Cancels a previously scheduled event, returning whether it was
    /// still pending. Cancelling an event that has already fired (or was
    /// already cancelled) is a **true** no-op: nothing is retained, so
    /// fire-then-cancel patterns cannot grow engine state.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.core.cancel(handle)
    }

    /// Whether the event behind `handle` is still pending (neither fired
    /// nor cancelled).
    #[must_use]
    pub fn is_pending(&self, handle: EventHandle) -> bool {
        self.core.queue.contains_slot(handle.slot, handle.seq())
    }

    /// The cancel-then-rearm fast path: moves the pending event behind
    /// `handle` to `now + delay` **and** replaces its payload in place
    /// (timers are rearmed with a fresh token, so the queued payload must
    /// be rewritten along with the deadline) — no slab free/alloc, no
    /// queue remove/insert, a single in-place heap re-seat. The event's
    /// target actor is unchanged. Returns the fresh handle; the old one is
    /// dead. The event re-enters the same-instant FIFO order as if
    /// scheduled now, and one sequence number is consumed either way, so
    /// a rearm and cancel-then-schedule produce bit-identical
    /// trajectories.
    ///
    /// Returns `None` (and consumes nothing) when the event already fired
    /// or was cancelled — callers fall back to a fresh schedule.
    pub fn rearm_timer(
        &mut self,
        handle: EventHandle,
        delay: SimDuration,
        payload: E,
    ) -> Option<EventHandle> {
        let core = &mut *self.core;
        let at = core.now + delay;
        // The sequence number is minted only if the event was pending.
        let seq = core.next_seq;
        let (slot, entry) = core
            .queue
            .reschedule_slot(handle.slot, handle.seq(), at, seq)?;
        core.next_seq += 1;
        entry.1 = payload;
        Some(EventHandle::new(seq, slot))
    }
}

/// Observer hook invoked for every processed event when tracing is on.
type TraceHook = Box<dyn FnMut(&TraceRecord)>;

/// A deterministic discrete-event simulation over members of type `S`
/// (one actor type, or an enum over several).
///
/// One event queue, one clock, one actor table: actor `ActorId(i)` is
/// member `i` of the table and draws from RNG stream `i`.
///
/// # Examples
///
/// ```
/// use presence_des::{Actor, Context, SimDuration, SimTime, Simulation};
///
/// struct Counter {
///     fired: u32,
/// }
///
/// impl Actor<&'static str> for Counter {
///     fn on_start(&mut self, ctx: &mut Context<'_, &'static str>) {
///         ctx.set_timer(SimDuration::from_secs(1), "tick");
///     }
///     fn on_event(&mut self, ctx: &mut Context<'_, &'static str>, ev: &'static str) {
///         assert_eq!(ev, "tick");
///         self.fired += 1;
///         if self.fired < 3 {
///             ctx.set_timer(SimDuration::from_secs(1), "tick");
///         }
///     }
/// }
///
/// let mut sim: Simulation<&'static str, Counter> = Simulation::with_actor_set(42);
/// let id = sim.add_member(Counter { fired: 0 });
/// sim.run_until_idle();
/// assert_eq!(sim.now(), SimTime::from_secs_f64(3.0));
/// assert_eq!(sim.actor::<Counter>(id).unwrap().fired, 3);
/// ```
pub struct Simulation<E: 'static, S: Actor<E>> {
    core: Core<E>,
    actors: Vec<S>,
    /// One stream per actor, at the actor's index.
    rngs: Vec<StreamRng>,
    /// Members `[..next_start]` have had `on_start`: members join, and
    /// start, in index order.
    next_start: usize,
    events_processed: u64,
    root_seed: u64,
    trace: Option<TraceHook>,
}

impl<E: 'static, S: Actor<E>> Simulation<E, S> {
    /// Creates an empty simulation with the given root seed, storing
    /// actors as the member type `S`.
    #[must_use]
    pub fn with_actor_set(root_seed: u64) -> Self {
        Self::with_actor_set_and_profile(root_seed, QueueProfile::Heap)
    }

    /// [`Simulation::with_actor_set`] with an explicit event-queue storage
    /// profile. Pop order — and therefore every simulation result — is
    /// identical across profiles; only the cost curve differs. Mega-scale
    /// scenarios (millions of pending events) select
    /// [`QueueProfile::calendar`] here.
    #[must_use]
    pub fn with_actor_set_and_profile(root_seed: u64, profile: QueueProfile) -> Self {
        Self {
            core: Core {
                now: SimTime::ZERO,
                queue: EventQueue::with_profile(profile),
                batches: Vec::new(),
                free_batches: Vec::new(),
                next_seq: 0,
                actor_count: 0,
            },
            actors: Vec::new(),
            rngs: Vec::new(),
            next_start: 0,
            events_processed: 0,
            root_seed,
            trace: None,
        }
    }

    /// Installs the simulation's one observer: a hook that sees every
    /// delivery exactly once, at its dispatch, in firing order (a batch
    /// event shows once per member). A second call replaces the first
    /// hook. Without one, dispatch pays one predictable branch and
    /// allocates nothing.
    pub fn set_trace<F: FnMut(&TraceRecord) + 'static>(&mut self, hook: F) {
        self.trace = Some(Box::new(hook));
    }

    /// Registers an actor, given as the simulation's member type (for an
    /// enum set usually through a `From` impl), and returns its id. It
    /// joins at the next index, on the RNG stream of that index, and its
    /// `on_start` runs at the entry of the next run method — also when
    /// earlier runs have already happened.
    ///
    /// # Panics
    ///
    /// Panics if the table already holds `u32::MAX` members.
    pub fn add_member(&mut self, member: S) -> ActorId {
        let id = ActorId(self.actors.len());
        assert!(id.0 < u32::MAX as usize, "actor table overflow");
        self.rngs.push(StreamRng::new(self.root_seed, id.0 as u64));
        self.actors.push(member);
        self.core.actor_count = self.actors.len();
        id
    }

    /// Current virtual time: the time of the last executed event, or the
    /// `end` of the last [`Simulation::run_until`] that reached it.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Number of events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of live events currently queued. Cancelled events are
    /// removed eagerly, so the count is exact — never inflated by
    /// tombstones.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.core.queue.len()
    }

    /// Immutable access to an actor, projected to its concrete type (a
    /// variant match for an enum set).
    ///
    /// Returns `None` if the id is unknown or the kind does not match.
    #[must_use]
    pub fn actor<A>(&self, id: ActorId) -> Option<&A>
    where
        S: ProjectActor<A>,
    {
        self.actors.get(id.0)?.project()
    }

    /// Mutable access to an actor, projected to its concrete type.
    #[must_use]
    pub fn actor_mut<A>(&mut self, id: ActorId) -> Option<&mut A>
    where
        S: ProjectActor<A>,
    {
        self.actors.get_mut(id.0)?.project_mut()
    }

    /// Schedules an event from outside the simulation (e.g. initial stimuli
    /// or experiment-driven interventions).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or the target is unknown.
    pub fn schedule_at(&mut self, at: SimTime, target: ActorId, payload: E) -> EventHandle {
        assert!(target.0 < self.actors.len(), "unknown actor {target:?}");
        self.core.push(at, target, payload)
    }

    /// Cancels an event scheduled with [`Simulation::schedule_at`] or from a
    /// context, returning whether it was still pending. Cancelling a fired
    /// or already-cancelled handle is a true no-op (nothing is retained).
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.core.cancel(handle)
    }

    /// Hands `ev` to actor `me`'s `on_event`.
    ///
    /// The member is borrowed **in place**: the actor table, the scheduler
    /// core, and the RNG table are disjoint, so no take/put-back swap is
    /// needed. Re-entrant dispatch is impossible by construction — an
    /// actor interacts with others only through queued events, and a
    /// message to itself fires in a later dispatch that observes every
    /// state change made here (pinned by the engine's self-send test).
    #[inline]
    fn dispatch(&mut self, me: ActorId, ev: E) {
        let mut ctx = Context {
            core: &mut self.core,
            rng: &mut self.rngs[me.0],
            me,
        };
        self.actors[me.0].on_event(&mut ctx, ev);
    }

    /// Runs actor `me`'s `on_start`, borrowed in place as for
    /// [`dispatch`](Self::dispatch).
    fn start(&mut self, me: ActorId) {
        let mut ctx = Context {
            core: &mut self.core,
            rng: &mut self.rngs[me.0],
            me,
        };
        self.actors[me.0].on_start(&mut ctx);
    }

    /// Runs `on_start` for every member added since the last run. Called
    /// at the entry of every run method: the table cannot grow while
    /// events fire.
    fn flush_starts(&mut self) {
        while self.next_start < self.actors.len() {
            let me = ActorId(self.next_start);
            self.next_start += 1;
            self.start(me);
        }
    }

    /// Classifies the run that just returned; `unfinished` is the outcome
    /// when live events remain.
    fn outcome(&self, unfinished: RunOutcome) -> RunOutcome {
        if self.core.queue.is_empty() {
            RunOutcome::Idle
        } else {
            unfinished
        }
    }
}

/// The run loop. Requires `E: Clone` so a batch event
/// ([`Context::send_now_batch`]) can hand each target its own copy of the
/// payload (the final target receives the original without cloning).
impl<E: Clone + 'static, S: Actor<E>> Simulation<E, S> {
    /// Hands one popped event to one target. Observers see one record per
    /// member dispatch (a batch's members share its time and seq), so they
    /// still see every delivery.
    #[inline]
    fn deliver(&mut self, key: EventKey, target: ActorId, payload: E) {
        if let Some(hook) = &mut self.trace {
            hook(&TraceRecord {
                time: key.time,
                target,
                seq: key.seq,
            });
        }
        self.dispatch(target, payload);
    }

    /// Pops and dispatches the next event — which may be a batch
    /// delivering to several actors in order. Returns `false` when the
    /// queue is empty. Cancelled events were removed at cancel time, so
    /// every pop is live.
    fn fire_next(&mut self) -> bool {
        let Some((key, (dest, payload))) = self.core.queue.pop() else {
            return false;
        };
        debug_assert!(key.time >= self.core.now, "event queue went backwards");
        self.core.now = key.time;
        self.events_processed += 1;
        match dest {
            Dest::One(target) => self.deliver(key, ActorId(target as usize), payload),
            Dest::Batch(index) => {
                let targets = self.core.take_batch(index);
                let (&last, rest) = targets.split_last().expect("batch is never empty");
                for &target in rest {
                    self.deliver(key, target, payload.clone());
                }
                self.deliver(key, last, payload);
            }
        }
        true
    }

    /// Processes a single event — which may be a batch delivering to
    /// several actors in order. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.flush_starts();
        self.fire_next()
    }

    /// Runs until the queue drains or `max_events` have been processed.
    ///
    /// [`RunOutcome::EventBudget`] is returned only when live events remain
    /// unprocessed: `run(0)` on an idle simulation, or a budget that is
    /// consumed exactly as the queue drains, report [`RunOutcome::Idle`].
    pub fn run(&mut self, max_events: u64) -> RunOutcome {
        self.flush_starts();
        for _ in 0..max_events {
            if !self.fire_next() {
                break;
            }
        }
        self.outcome(RunOutcome::EventBudget)
    }

    /// Runs until the virtual clock reaches `end` (processing every event
    /// with `time ≤ end`) or the queue drains. The clock is left exactly
    /// at `end` (or where it was, if already past).
    pub fn run_until(&mut self, end: SimTime) -> RunOutcome {
        let outcome = self.run_through(end);
        self.core.now = self.core.now.max(end);
        outcome
    }

    /// Runs until the queue is empty.
    pub fn run_until_idle(&mut self) -> RunOutcome {
        self.run_through(SimTime::MAX)
    }

    /// Runs the `on_start` backlog, then fires every queued event up to
    /// and including `end`.
    fn run_through(&mut self, end: SimTime) -> RunOutcome {
        self.flush_starts();
        // The head of the queue is always live (true cancellation).
        while self.core.queue.peek().is_some_and(|key| key.time <= end) {
            self.fire_next();
        }
        self.outcome(RunOutcome::ReachedTime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Ev = u32;

    /// Records the order in which its events fire.
    struct Recorder {
        log: Vec<(f64, Ev)>,
    }

    impl Actor<Ev> for Recorder {
        fn on_event(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
            self.log.push((ctx.now().as_secs_f64(), ev));
        }
    }

    /// Member type of the tests that mix kinds: [`Recorder`] peers beside
    /// the one actor `D` that drives them.
    enum Cast<D> {
        Peer(Recorder),
        Driver(D),
    }

    impl<D> Cast<D> {
        fn peer() -> Self {
            Cast::Peer(Recorder { log: vec![] })
        }

        /// The events a peer received, in firing order.
        fn received(&self) -> Vec<Ev> {
            match self {
                Cast::Peer(r) => r.log.iter().map(|&(_, e)| e).collect(),
                Cast::Driver(_) => panic!("not a peer"),
            }
        }
    }

    impl<D: Actor<Ev>> Actor<Ev> for Cast<D> {
        fn on_start(&mut self, ctx: &mut Context<'_, Ev>) {
            match self {
                Cast::Peer(a) => a.on_start(ctx),
                Cast::Driver(a) => a.on_start(ctx),
            }
        }
        fn on_event(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
            match self {
                Cast::Peer(a) => a.on_event(ctx, ev),
                Cast::Driver(a) => a.on_event(ctx, ev),
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::with_actor_set(1);
        let id = sim.add_member(Recorder { log: vec![] });
        sim.schedule_at(SimTime::from_secs_f64(3.0), id, 3);
        sim.schedule_at(SimTime::from_secs_f64(1.0), id, 1);
        sim.schedule_at(SimTime::from_secs_f64(2.0), id, 2);
        assert_eq!(sim.run_until_idle(), RunOutcome::Idle);
        let events: Vec<Ev> = sim
            .actor::<Recorder>(id)
            .unwrap()
            .log
            .iter()
            .map(|&(_, e)| e)
            .collect();
        assert_eq!(events, vec![1, 2, 3]);
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut sim = Simulation::with_actor_set(1);
        let id = sim.add_member(Recorder { log: vec![] });
        let t = SimTime::from_secs_f64(1.0);
        for i in 0..100 {
            sim.schedule_at(t, id, i);
        }
        sim.run_until_idle();
        let events: Vec<Ev> = sim
            .actor::<Recorder>(id)
            .unwrap()
            .log
            .iter()
            .map(|&(_, e)| e)
            .collect();
        assert_eq!(events, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let mut sim = Simulation::with_actor_set(1);
        let id = sim.add_member(Recorder { log: vec![] });
        sim.schedule_at(SimTime::from_secs_f64(1.0), id, 1);
        sim.schedule_at(SimTime::from_secs_f64(5.0), id, 5);
        let outcome = sim.run_until(SimTime::from_secs_f64(2.0));
        assert_eq!(outcome, RunOutcome::ReachedTime);
        assert_eq!(sim.now(), SimTime::from_secs_f64(2.0));
        assert_eq!(sim.actor::<Recorder>(id).unwrap().log.len(), 1);
        // Continue to the rest.
        assert_eq!(sim.run_until_idle(), RunOutcome::Idle);
        assert_eq!(sim.actor::<Recorder>(id).unwrap().log.len(), 2);
    }

    #[test]
    fn run_until_inclusive_of_end_instant() {
        let mut sim = Simulation::with_actor_set(1);
        let id = sim.add_member(Recorder { log: vec![] });
        sim.schedule_at(SimTime::from_secs_f64(2.0), id, 7);
        sim.run_until(SimTime::from_secs_f64(2.0));
        assert_eq!(sim.actor::<Recorder>(id).unwrap().log.len(), 1);
    }

    #[test]
    fn idle_run_until_advances_clock() {
        let mut sim: Simulation<Ev, Recorder> = Simulation::with_actor_set(1);
        let _ = sim.add_member(Recorder { log: vec![] });
        assert_eq!(
            sim.run_until(SimTime::from_secs_f64(10.0)),
            RunOutcome::Idle
        );
        assert_eq!(sim.now(), SimTime::from_secs_f64(10.0));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_the_past_panics() {
        struct Bad;
        impl Actor<Ev> for Bad {
            fn on_event(&mut self, _: &mut Context<'_, Ev>, _: Ev) {}
        }
        let mut sim = Simulation::with_actor_set(1);
        let id = sim.add_member(Bad);
        sim.schedule_at(SimTime::from_secs_f64(5.0), id, 0);
        sim.run_until_idle();
        // now == 5.0; scheduling at 1.0 must panic.
        sim.schedule_at(SimTime::from_secs_f64(1.0), id, 0);
    }

    #[test]
    #[should_panic(expected = "unknown actor")]
    fn scheduling_for_unknown_actor_panics() {
        let mut sim: Simulation<Ev, Recorder> = Simulation::with_actor_set(1);
        sim.schedule_at(SimTime::ZERO, ActorId(3), 0);
    }

    /// An actor that sets a timer and cancels it before it fires.
    struct Canceller {
        fired: bool,
    }

    impl Actor<Ev> for Canceller {
        fn on_start(&mut self, ctx: &mut Context<'_, Ev>) {
            let h = ctx.set_timer(SimDuration::from_secs(1), 1);
            ctx.cancel(h);
            ctx.set_timer(SimDuration::from_secs(2), 2);
        }
        fn on_event(&mut self, _ctx: &mut Context<'_, Ev>, ev: Ev) {
            assert_eq!(ev, 2, "cancelled timer fired");
            self.fired = true;
        }
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut sim = Simulation::with_actor_set(1);
        let id = sim.add_member(Canceller { fired: false });
        sim.run_until_idle();
        assert!(sim.actor::<Canceller>(id).unwrap().fired);
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut sim = Simulation::with_actor_set(1);
        let id = sim.add_member(Recorder { log: vec![] });
        let h = sim.schedule_at(SimTime::from_secs_f64(1.0), id, 1);
        sim.run_until_idle();
        // Already fired — must not disturb anything, and must report the
        // no-op rather than parking a tombstone.
        assert!(!sim.cancel(h));
        sim.schedule_at(SimTime::from_secs_f64(2.0), id, 2);
        sim.run_until_idle();
        assert_eq!(sim.actor::<Recorder>(id).unwrap().log.len(), 2);
    }

    #[test]
    fn cancel_reports_whether_the_event_was_pending() {
        let mut sim = Simulation::with_actor_set(1);
        let id = sim.add_member(Recorder { log: vec![] });
        let h = sim.schedule_at(SimTime::from_secs_f64(1.0), id, 1);
        assert!(sim.cancel(h), "pending event");
        assert!(!sim.cancel(h), "double cancel");
        sim.run_until_idle();
        assert!(sim.actor::<Recorder>(id).unwrap().log.is_empty());
    }

    /// Satellite regression: `queue_len` must be the exact live count —
    /// the tombstone design counted cancelled events as queued.
    #[test]
    fn queue_len_counts_only_live_events() {
        let mut sim = Simulation::with_actor_set(1);
        let id = sim.add_member(Recorder { log: vec![] });
        let handles: Vec<_> = (0..10)
            .map(|i| sim.schedule_at(SimTime::from_secs_f64(f64::from(i) + 1.0), id, i as Ev))
            .collect();
        assert_eq!(sim.queue_len(), 10);
        for (i, h) in handles.iter().enumerate().take(5) {
            assert!(sim.cancel(*h), "handle {i} was pending");
            assert_eq!(sim.queue_len(), 10 - i - 1);
        }
        sim.run_until_idle();
        assert_eq!(sim.queue_len(), 0);
        assert_eq!(sim.actor::<Recorder>(id).unwrap().log.len(), 5);
    }

    /// A timer that rearms itself in place instead of cancel + schedule.
    struct Rearmer {
        handle: Option<EventHandle>,
        fired: Vec<Ev>,
    }

    impl Actor<Ev> for Rearmer {
        fn on_start(&mut self, ctx: &mut Context<'_, Ev>) {
            // Arm for t=1, then immediately push the deadline out to t=2
            // with a fresh payload.
            let h = ctx.set_timer(SimDuration::from_secs(1), 1);
            self.handle = ctx.rearm_timer(h, SimDuration::from_secs(2), 2);
            assert!(self.handle.is_some());
            assert!(!ctx.is_pending(h), "old handle must be dead");
            assert!(ctx.is_pending(self.handle.unwrap()));
        }
        fn on_event(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
            self.fired.push(ev);
            // Rearming a fired handle is a no-op returning None.
            let dead = self.handle.take().unwrap();
            let later = SimDuration::from_secs(1);
            assert!(ctx.rearm_timer(dead, later, 3).is_none());
        }
    }

    #[test]
    fn reschedule_moves_timer_and_kills_old_handle() {
        let mut sim = Simulation::with_actor_set(1);
        let id = sim.add_member(Rearmer {
            handle: None,
            fired: vec![],
        });
        sim.run_until_idle();
        assert_eq!(sim.now(), SimTime::from_secs_f64(2.0));
        assert_eq!(sim.actor::<Rearmer>(id).unwrap().fired, vec![2]);
        assert_eq!(sim.events_processed(), 1);
    }

    /// Runs its script for every event it receives.
    struct Scripted<F>(F);

    impl<F: FnMut(&mut Context<'_, Ev>, Ev) + 'static> Actor<Ev> for Scripted<F> {
        fn on_event(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
            (self.0)(ctx, ev);
        }
    }

    /// Runs `script` as the one actor of a simulation, from one event `0`
    /// at t = 1 s, and returns `(seconds, event)` per firing.
    fn run_script(mut script: impl FnMut(&mut Context<'_, Ev>, Ev) + 'static) -> Vec<(f64, Ev)> {
        use std::cell::RefCell;
        use std::rc::Rc;
        let log = Rc::new(RefCell::new(Vec::new()));
        let log2 = Rc::clone(&log);
        let mut sim = Simulation::with_actor_set(1);
        let id = sim.add_member(Scripted(move |ctx: &mut Context<'_, Ev>, ev| {
            log2.borrow_mut().push((ctx.now().as_secs_f64(), ev));
            script(ctx, ev);
        }));
        sim.schedule_at(SimTime::from_secs_f64(1.0), id, 0);
        assert_eq!(sim.run_until_idle(), RunOutcome::Idle);
        let out = log.borrow().clone();
        out
    }

    /// `a`'s event is gone and `b`'s took its slot: `a` must reach nothing
    /// — not cancel, test or rearm `b` — and `b` must stay pending.
    fn assert_stale(ctx: &mut Context<'_, Ev>, a: EventHandle, b: EventHandle) {
        assert_eq!(a.slot, b.slot, "b did not reuse a's slot");
        assert!(!ctx.is_pending(a), "stale handle reads pending");
        assert!(!ctx.cancel(a), "stale handle cancelled");
        assert!(
            ctx.rearm_timer(a, SimDuration::from_secs(5), 99).is_none(),
            "stale handle rearmed"
        );
        assert!(ctx.is_pending(b), "the slot's new event was disturbed");
    }

    #[test]
    fn stale_handle_of_a_fired_event_misses_its_slots_next_occupant() {
        let mut a = None;
        let log = run_script(move |ctx, ev| match ev {
            0 => a = Some(ctx.set_timer(SimDuration::from_secs(1), 1)),
            1 => {
                let b = ctx.set_timer(SimDuration::from_secs(1), 2);
                assert_stale(ctx, a.expect("armed"), b);
            }
            _ => {}
        });
        assert_eq!(log, vec![(1.0, 0), (2.0, 1), (3.0, 2)]);
    }

    #[test]
    fn stale_handle_of_a_cancelled_event_misses_its_slots_next_occupant() {
        let log = run_script(|ctx, ev| {
            if ev == 0 {
                let a = ctx.set_timer(SimDuration::from_secs(1), 1);
                assert!(ctx.cancel(a));
                let b = ctx.set_timer(SimDuration::from_secs(2), 2);
                assert_stale(ctx, a, b);
            }
        });
        assert_eq!(log, vec![(1.0, 0), (3.0, 2)]);
    }

    /// Events sent "now" wait in the queue's same-instant run buffer, and
    /// every handle to one names the buffer's one reserved slot.
    #[test]
    fn stale_handle_of_a_fired_run_entry_misses_a_later_run_entry() {
        let mut a = None;
        let log = run_script(move |ctx, ev| match ev {
            0 => a = Some(ctx.send_now(ctx.me(), 1)),
            1 => {
                let b = ctx.send_now(ctx.me(), 2);
                assert_stale(ctx, a.expect("sent"), b);
            }
            _ => {}
        });
        assert_eq!(log, vec![(1.0, 0), (1.0, 1), (1.0, 2)]);
    }

    /// An in-place rearm and cancel-then-schedule consume sequence numbers
    /// identically, so the two idioms interleave same-instant events the
    /// same way — the property the CP timer fast path relies on.
    #[test]
    fn reschedule_orders_like_cancel_then_schedule() {
        fn trace(rearm_in_place: bool) -> Vec<(u64, Ev)> {
            struct Driver {
                rearm_in_place: bool,
                peer: ActorId,
            }
            impl Actor<Ev> for Driver {
                fn on_start(&mut self, ctx: &mut Context<'_, Ev>) {
                    let h = ctx.set_timer(SimDuration::from_secs(5), 7);
                    // An unrelated same-instant event competing for order.
                    ctx.schedule_at(SimTime::from_secs_f64(3.0), self.peer, 9);
                    if self.rearm_in_place {
                        ctx.rearm_timer(h, SimDuration::from_secs(3), 8).unwrap();
                    } else {
                        ctx.cancel(h);
                        ctx.set_timer(SimDuration::from_secs(3), 8);
                    }
                }
                fn on_event(&mut self, _: &mut Context<'_, Ev>, _: Ev) {}
            }
            let mut sim = Simulation::with_actor_set(1);
            let peer = sim.add_member(Cast::peer());
            sim.add_member(Cast::Driver(Driver {
                rearm_in_place,
                peer,
            }));
            use std::cell::RefCell;
            use std::rc::Rc;
            let log = Rc::new(RefCell::new(Vec::new()));
            let log2 = Rc::clone(&log);
            sim.set_trace(move |rec| log2.borrow_mut().push((rec.seq, rec.target.0 as Ev)));
            sim.run_until_idle();
            let out = log.borrow().clone();
            out
        }
        assert_eq!(trace(true), trace(false));
    }

    /// A batch send must be indistinguishable from a loop of `send_now`
    /// calls in everything but event count: same delivery order, same
    /// interleaving with competing same-instant events.
    #[test]
    fn batch_send_orders_like_send_now_loop() {
        fn run(batch: bool) -> (Vec<(usize, Ev)>, u64) {
            struct Driver {
                batch: bool,
                peers: Vec<ActorId>,
            }
            impl Actor<Ev> for Driver {
                fn on_event(&mut self, ctx: &mut Context<'_, Ev>, _: Ev) {
                    // A competing event minted before the sends…
                    ctx.send_now(self.peers[0], 99);
                    if self.batch {
                        ctx.send_now_batch(self.peers.clone(), 7);
                    } else {
                        for &p in &self.peers {
                            ctx.send_now(p, 7);
                        }
                    }
                    // …and one minted after.
                    ctx.send_now(self.peers[2], 42);
                }
            }
            let mut sim = Simulation::with_actor_set(1);
            let peers: Vec<ActorId> = (0..3).map(|_| sim.add_member(Cast::peer())).collect();
            let d = sim.add_member(Cast::Driver(Driver {
                batch,
                peers: peers.clone(),
            }));
            sim.schedule_at(SimTime::from_secs_f64(1.0), d, 0);
            sim.run_until_idle();
            let mut log = Vec::new();
            for (i, &p) in peers.iter().enumerate() {
                for e in sim.actor::<Cast<Driver>>(p).unwrap().received() {
                    log.push((i, e));
                }
            }
            (log, sim.events_processed())
        }
        let (batched, batched_events) = run(true);
        let (serial, serial_events) = run(false);
        assert_eq!(batched, serial, "delivery must match the serial loop");
        // driver + 99 + batch(1 vs 3) + 42
        assert_eq!(serial_events, 6);
        assert_eq!(batched_events, 4, "3 sends collapse into one event");
    }

    #[test]
    fn batch_send_traces_every_member_and_cancels_whole() {
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Batcher {
            peers: Vec<ActorId>,
            cancel_it: bool,
        }
        impl Actor<Ev> for Batcher {
            fn on_event(&mut self, ctx: &mut Context<'_, Ev>, _: Ev) {
                let h = ctx.send_now_batch(self.peers.clone(), 5);
                assert!(ctx.is_pending(h));
                if self.cancel_it {
                    assert!(ctx.cancel(h));
                }
            }
        }
        for cancel_it in [false, true] {
            let mut sim = Simulation::with_actor_set(1);
            let peers: Vec<ActorId> = (0..4).map(|_| sim.add_member(Cast::peer())).collect();
            let b = sim.add_member(Cast::Driver(Batcher {
                peers: peers.clone(),
                cancel_it,
            }));
            let records = Rc::new(RefCell::new(Vec::new()));
            let r2 = Rc::clone(&records);
            sim.set_trace(move |rec| r2.borrow_mut().push((rec.seq, rec.target)));
            sim.schedule_at(SimTime::ZERO, b, 0);
            sim.run_until_idle();
            let delivered: usize = peers
                .iter()
                .map(|&p| sim.actor::<Cast<Batcher>>(p).unwrap().received().len())
                .sum();
            if cancel_it {
                assert_eq!(delivered, 0, "cancelled batch must not deliver");
                assert_eq!(records.borrow().len(), 1, "only the driver event");
            } else {
                assert_eq!(delivered, 4);
                // 1 driver record + 4 member records sharing one seq.
                let recs = records.borrow();
                assert_eq!(recs.len(), 5);
                let batch_seq = recs[1].0;
                assert!(recs[1..].iter().all(|&(s, _)| s == batch_seq));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn empty_batch_panics() {
        struct Empty;
        impl Actor<Ev> for Empty {
            fn on_event(&mut self, ctx: &mut Context<'_, Ev>, _: Ev) {
                ctx.send_now_batch(Vec::new(), 1);
            }
        }
        let mut sim = Simulation::with_actor_set(1);
        let id = sim.add_member(Empty);
        sim.schedule_at(SimTime::ZERO, id, 0);
        sim.run_until_idle();
    }

    /// Ping-pong pair demonstrating actor-to-actor messaging.
    struct Ping {
        peer: Option<ActorId>,
        rounds: u32,
        max: u32,
    }

    impl Actor<Ev> for Ping {
        fn on_event(&mut self, ctx: &mut Context<'_, Ev>, _ev: Ev) {
            self.rounds += 1;
            if self.rounds < self.max {
                let peer = self.peer.expect("peer set");
                ctx.schedule_in(SimDuration::from_millis(10), peer, 0);
            }
        }
    }

    #[test]
    fn ping_pong() {
        let mut sim = Simulation::with_actor_set(1);
        let a = sim.add_member(Ping {
            peer: None,
            rounds: 0,
            max: 10,
        });
        let b = sim.add_member(Ping {
            peer: None,
            rounds: 0,
            max: 10,
        });
        sim.actor_mut::<Ping>(a).unwrap().peer = Some(b);
        sim.actor_mut::<Ping>(b).unwrap().peer = Some(a);
        sim.schedule_at(SimTime::ZERO, a, 0);
        sim.run_until_idle();
        let ra = sim.actor::<Ping>(a).unwrap().rounds;
        let rb = sim.actor::<Ping>(b).unwrap().rounds;
        assert_eq!(ra + rb, 19); // a fires 10 times, b 9 (b's 10th never sent)
    }

    /// Satellite regression: an exhausted budget used to mask an empty
    /// queue — `run(0)` on an idle sim reported `EventBudget` even though
    /// nothing was pending.
    #[test]
    fn run_zero_on_idle_sim_reports_idle() {
        let mut sim: Simulation<Ev, Recorder> = Simulation::with_actor_set(1);
        let _ = sim.add_member(Recorder { log: vec![] });
        assert_eq!(sim.run(0), RunOutcome::Idle);
        assert_eq!(sim.run(10), RunOutcome::Idle);
    }

    /// Satellite regression: a budget consumed exactly as the queue drains
    /// must report `Idle` (nothing pending), not `EventBudget`.
    #[test]
    fn run_budget_exactly_consumed_by_drain_reports_idle() {
        let mut sim = Simulation::with_actor_set(1);
        let id = sim.add_member(Recorder { log: vec![] });
        for i in 0..5 {
            sim.schedule_at(SimTime::from_secs_f64(f64::from(i)), id, i as Ev);
        }
        assert_eq!(sim.run(5), RunOutcome::Idle);
        assert_eq!(sim.events_processed(), 5);
    }

    /// A budget smaller than the queue still reports `EventBudget`.
    #[test]
    fn run_budget_with_events_left_reports_event_budget() {
        let mut sim = Simulation::with_actor_set(1);
        let id = sim.add_member(Recorder { log: vec![] });
        for i in 0..5 {
            sim.schedule_at(SimTime::from_secs_f64(f64::from(i)), id, i as Ev);
        }
        assert_eq!(sim.run(3), RunOutcome::EventBudget);
        assert_eq!(sim.run(0), RunOutcome::EventBudget, "2 events still queued");
        assert_eq!(sim.run(2), RunOutcome::Idle);
    }

    #[test]
    fn event_budget() {
        struct Endless;
        impl Actor<Ev> for Endless {
            fn on_start(&mut self, ctx: &mut Context<'_, Ev>) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn on_event(&mut self, ctx: &mut Context<'_, Ev>, _: Ev) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
        }
        let mut sim = Simulation::with_actor_set(1);
        sim.add_member(Endless);
        assert_eq!(sim.run(100), RunOutcome::EventBudget);
        assert_eq!(sim.events_processed(), 100);
    }

    #[test]
    fn unknown_actor_id_is_none() {
        let mut sim = Simulation::with_actor_set(1);
        let id = sim.add_member(Recorder { log: vec![] });
        assert!(sim.actor::<Recorder>(id).is_some());
        assert!(sim.actor::<Recorder>(ActorId(99)).is_none());
        assert!(sim.actor_mut::<Recorder>(ActorId(99)).is_none());
    }

    /// The only late join there is: a member added between two runs is
    /// started at the entry of the next run, at the clock of that moment
    /// and before any event fires — its own included.
    #[test]
    fn member_added_between_runs_starts_at_next_run_entry() {
        #[derive(Default)]
        struct Joiner {
            started_at: Option<SimTime>,
            got: Vec<Ev>,
        }
        impl Actor<Ev> for Joiner {
            fn on_start(&mut self, ctx: &mut Context<'_, Ev>) {
                assert!(self.got.is_empty(), "an event fired before on_start");
                self.started_at = Some(ctx.now());
                ctx.set_timer(SimDuration::from_secs(1), 100);
            }
            fn on_event(&mut self, _: &mut Context<'_, Ev>, ev: Ev) {
                assert!(self.started_at.is_some(), "an event fired before on_start");
                self.got.push(ev);
            }
        }
        let mut sim = Simulation::with_actor_set(1);
        let first = sim.add_member(Joiner::default());
        let two = SimTime::from_secs_f64(2.0);
        assert_eq!(sim.run_until(two), RunOutcome::Idle);
        assert_eq!(sim.actor::<Joiner>(first).unwrap().got, vec![100]);

        let late = sim.add_member(Joiner::default());
        // Queued for the newcomer before it has started, at this instant.
        sim.schedule_at(two, late, 2);
        assert!(
            sim.actor::<Joiner>(late).unwrap().started_at.is_none(),
            "nothing starts outside a run"
        );
        assert!(sim.step());
        let joiner = sim.actor::<Joiner>(late).unwrap();
        assert_eq!(joiner.started_at, Some(two));
        assert_eq!(joiner.got, vec![2]);
        assert_eq!(sim.run_until_idle(), RunOutcome::Idle);
        assert_eq!(sim.actor::<Joiner>(late).unwrap().got, vec![2, 100]);
        assert_eq!(sim.now(), SimTime::from_secs_f64(3.0));
        // The first member was not started a second time.
        assert_eq!(sim.actor::<Joiner>(first).unwrap().got, vec![100]);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> Vec<u64> {
            struct Jitter;
            impl Actor<Ev> for Jitter {
                fn on_start(&mut self, ctx: &mut Context<'_, Ev>) {
                    ctx.set_timer(SimDuration::from_secs(1), 0);
                }
                fn on_event(&mut self, ctx: &mut Context<'_, Ev>, n: Ev) {
                    if n < 50 {
                        let d = ctx.rng().uniform(0.1, 2.0);
                        ctx.set_timer(SimDuration::from_secs_f64(d), n + 1);
                    }
                }
            }
            let mut sim = Simulation::with_actor_set(seed);
            sim.add_member(Jitter);
            let mut times = Vec::new();
            // Collect event times via trace hook into a shared Vec.
            use std::cell::RefCell;
            use std::rc::Rc;
            let log = Rc::new(RefCell::new(Vec::new()));
            let log2 = Rc::clone(&log);
            sim.set_trace(move |rec| log2.borrow_mut().push(rec.time.as_nanos()));
            sim.run_until_idle();
            times.extend(log.borrow().iter().copied());
            times
        }
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must replay identically");
        assert_ne!(a, c, "different seeds should diverge");
    }

    /// No run method asks for `Send`: an actor may share an `Rc` with the
    /// test that drives it.
    #[test]
    fn rc_holding_actors_run_without_send() {
        use std::cell::Cell;
        use std::rc::Rc;
        struct Shared(Rc<Cell<Ev>>);
        impl Actor<Ev> for Shared {
            fn on_event(&mut self, _: &mut Context<'_, Ev>, ev: Ev) {
                self.0.set(self.0.get() + ev);
            }
        }
        let total = Rc::new(Cell::new(0));
        let mut sim = Simulation::with_actor_set(1);
        let id = sim.add_member(Shared(Rc::clone(&total)));
        sim.schedule_at(SimTime::from_secs_f64(1.0), id, 2);
        sim.schedule_at(SimTime::from_secs_f64(2.0), id, 3);
        assert!(sim.step());
        assert_eq!(sim.run_until(SimTime::from_secs_f64(5.0)), RunOutcome::Idle);
        assert_eq!(total.get(), 5);
    }

    #[test]
    fn trace_hook_sees_every_event() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut sim = Simulation::with_actor_set(1);
        let id = sim.add_member(Recorder { log: vec![] });
        let count = Rc::new(RefCell::new(0u32));
        let c2 = Rc::clone(&count);
        sim.set_trace(move |_| *c2.borrow_mut() += 1);
        for i in 0..5 {
            sim.schedule_at(SimTime::from_secs_f64(i as f64), id, i);
        }
        sim.run_until_idle();
        assert_eq!(*count.borrow(), 5);
    }
}

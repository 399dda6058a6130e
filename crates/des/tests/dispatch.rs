//! Regression tests for the dispatch edge cases the typed actor-set path
//! must preserve, run against **both** storage modes (the default
//! `DynActorSet` and a local enum member type) and cross-checked against
//! each other:
//!
//! * an actor spawned from `pending_spawns` mid-batch is started and
//!   receives its events in exactly the order the spawning handler
//!   scheduled them, interleaved identically with competing events;
//! * an actor sending to itself during `handle` observes every state
//!   change the earlier dispatch made (the old take/put-back dance and
//!   the new in-place borrow must be indistinguishable);
//! * the dynamic `Context::spawn` API panics loudly inside a typed
//!   simulation instead of corrupting the actor table;
//! * the queue's vacant root (a pop defers its heap repair to whoever
//!   comes next) is invisible at the engine's surface: `queue_len`,
//!   `is_pending` and external `cancel`/`reschedule`/`schedule_at` between
//!   `step`s and after a `stop`;
//! * the three ways to drive a simulation (`step`, `run(n)`, `run_until`)
//!   agree event for event across a mid-run spawn and repeated stops
//!   (a proptest over random token rings; soaked in CI at
//!   `PROPTEST_CASES=1024`, see `ci.sh`).

use presence_des::{
    Actor, ActorId, Context, EventHandle, ProjectActor, RunOutcome, SimDuration, SimTime,
    Simulation,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

type Ev = u32;

/// Records events; asserts `on_start` ran before any of them.
struct Child {
    started: bool,
    log: Vec<Ev>,
}

impl Child {
    fn new() -> Self {
        Self {
            started: false,
            log: Vec::new(),
        }
    }
}

impl Actor<Ev> for Child {
    fn on_start(&mut self, _ctx: &mut Context<'_, Ev>) {
        self.started = true;
    }
    fn on_event(&mut self, _ctx: &mut Context<'_, Ev>, ev: Ev) {
        assert!(self.started, "event delivered before on_start");
        self.log.push(ev);
    }
}

/// Spawns a child mid-event and schedules a mix of same-instant and
/// delayed events around the spawn.
struct Spawner {
    typed: bool,
    peer: ActorId,
    child: Option<ActorId>,
}

impl Actor<Ev> for Spawner {
    fn on_event(&mut self, ctx: &mut Context<'_, Ev>, _: Ev) {
        // A competing same-instant event minted before the spawn…
        ctx.send_now(self.peer, 100);
        let child = if self.typed {
            ctx.spawn_member(Member::Child(Child::new()))
        } else {
            ctx.spawn(Child::new())
        };
        self.child = Some(child);
        // …events for the not-yet-absorbed child, in a deliberate order…
        ctx.send_now(child, 1);
        ctx.send_now(child, 2);
        ctx.schedule_in(SimDuration::from_secs(1), child, 3);
        // …and a competing event minted after.
        ctx.send_now(self.peer, 200);
    }
}

/// The typed member set used by the enum-path variants of these tests.
enum Member {
    Spawner(Spawner),
    Child(Child),
    Counter(SelfCounter),
}

impl Actor<Ev> for Member {
    fn on_start(&mut self, ctx: &mut Context<'_, Ev>) {
        match self {
            Member::Spawner(a) => a.on_start(ctx),
            Member::Child(a) => a.on_start(ctx),
            Member::Counter(a) => a.on_start(ctx),
        }
    }
    fn on_event(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
        match self {
            Member::Spawner(a) => a.on_event(ctx, ev),
            Member::Child(a) => a.on_event(ctx, ev),
            Member::Counter(a) => a.on_event(ctx, ev),
        }
    }
}

macro_rules! member_projection {
    ($variant:ident, $kind:ty) => {
        impl ProjectActor<$kind> for Member {
            fn project(&self) -> Option<&$kind> {
                match self {
                    Member::$variant(a) => Some(a),
                    _ => None,
                }
            }
            fn project_mut(&mut self) -> Option<&mut $kind> {
                match self {
                    Member::$variant(a) => Some(a),
                    _ => None,
                }
            }
        }
    };
}

member_projection!(Spawner, Spawner);
member_projection!(Child, Child);
member_projection!(Counter, SelfCounter);

/// One `(seq, target)` record per processed event, plus the logs the run
/// produced — everything the two storage modes must agree on.
#[derive(Debug, PartialEq)]
struct SpawnRunRecord {
    trace: Vec<(u64, usize)>,
    peer_log: Vec<Ev>,
    child_log: Vec<Ev>,
}

fn traced<E, S, F, G>(sim: &mut Simulation<E, S>, run: F, collect: G) -> SpawnRunRecord
where
    E: Clone + 'static,
    S: Actor<E>,
    F: FnOnce(&mut Simulation<E, S>),
    G: FnOnce(&Simulation<E, S>, Vec<(u64, usize)>) -> SpawnRunRecord,
{
    let trace = Rc::new(RefCell::new(Vec::new()));
    let t2 = Rc::clone(&trace);
    sim.set_trace(move |rec| t2.borrow_mut().push((rec.seq, rec.target.index())));
    run(sim);
    let trace = trace.borrow().clone();
    collect(sim, trace)
}

fn spawn_run_dyn() -> SpawnRunRecord {
    let mut sim: Simulation<Ev> = Simulation::new(7);
    let peer = sim.add_actor(Child::new());
    let spawner = sim.add_actor(Spawner {
        typed: false,
        peer,
        child: None,
    });
    sim.schedule_at(SimTime::from_secs_f64(1.0), spawner, 0);
    traced(
        &mut sim,
        |sim| {
            assert_eq!(sim.run_until_idle(), RunOutcome::Idle);
        },
        |sim, trace| {
            let child = sim.actor::<Spawner>(spawner).unwrap().child.unwrap();
            SpawnRunRecord {
                trace,
                peer_log: sim.actor::<Child>(peer).unwrap().log.clone(),
                child_log: sim.actor::<Child>(child).unwrap().log.clone(),
            }
        },
    )
}

fn spawn_run_typed() -> SpawnRunRecord {
    let mut sim: Simulation<Ev, Member> = Simulation::with_actor_set(7);
    let peer = sim.add_member(Member::Child(Child::new()));
    let spawner = sim.add_member(Member::Spawner(Spawner {
        typed: true,
        peer,
        child: None,
    }));
    sim.schedule_at(SimTime::from_secs_f64(1.0), spawner, 0);
    traced(
        &mut sim,
        |sim| {
            assert_eq!(sim.run_until_idle(), RunOutcome::Idle);
        },
        |sim, trace| {
            let child = sim.actor::<Spawner>(spawner).unwrap().child.unwrap();
            SpawnRunRecord {
                trace,
                peer_log: sim.actor::<Child>(peer).unwrap().log.clone(),
                child_log: sim.actor::<Child>(child).unwrap().log.clone(),
            }
        },
    )
}

/// The spawned actor's events fire in scheduling order, interleaved
/// correctly with the competitors, and the enum path reproduces the
/// dynamic path's trace exactly.
#[test]
fn mid_batch_spawn_receives_events_in_order_on_both_paths() {
    let dynamic = spawn_run_dyn();
    assert_eq!(dynamic.child_log, vec![1, 2, 3]);
    assert_eq!(
        dynamic.peer_log,
        vec![100, 200],
        "competing events keep their FIFO positions around the spawn"
    );
    let typed = spawn_run_typed();
    assert_eq!(
        dynamic, typed,
        "typed dispatch must replay the dynamic trace event-for-event"
    );
}

/// Counts its own events, mutating itself before *and after* the
/// self-send: the next dispatch must observe both mutations.
struct SelfCounter {
    value: u32,
    observed: Vec<u32>,
}

impl Actor<Ev> for SelfCounter {
    fn on_event(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
        self.observed.push(self.value);
        self.value += 1;
        if ev < 3 {
            let me = ctx.me();
            ctx.send_now(me, ev + 1);
        }
        // Mutation after the self-send: the queued event fires later, so
        // it must still see this write (the put-back happened, or — now —
        // the in-place borrow wrote through).
        self.value += 10;
    }
}

#[test]
fn self_send_during_handle_observes_all_state_changes() {
    // Dynamic storage.
    let mut sim: Simulation<Ev> = Simulation::new(1);
    let id = sim.add_actor(SelfCounter {
        value: 0,
        observed: vec![],
    });
    sim.schedule_at(SimTime::ZERO, id, 0);
    sim.run_until_idle();
    let dyn_observed = sim.actor::<SelfCounter>(id).unwrap().observed.clone();
    assert_eq!(dyn_observed, vec![0, 11, 22, 33]);

    // Typed storage: identical semantics.
    let mut sim: Simulation<Ev, Member> = Simulation::with_actor_set(1);
    let id = sim.add_member(Member::Counter(SelfCounter {
        value: 0,
        observed: vec![],
    }));
    sim.schedule_at(SimTime::ZERO, id, 0);
    sim.run_until_idle();
    let typed_observed = &sim.actor::<SelfCounter>(id).unwrap().observed;
    assert_eq!(typed_observed, &dyn_observed);
}

/// Spawning during `on_start` (before any event fires) chains: the spawned
/// actor is started by the same flush and is addressable at t = 0.
#[test]
fn spawn_during_on_start_is_started_and_addressable() {
    struct StartSpawner {
        child: Option<ActorId>,
    }
    impl Actor<Ev> for StartSpawner {
        fn on_start(&mut self, ctx: &mut Context<'_, Ev>) {
            let child = ctx.spawn(Child::new());
            self.child = Some(child);
            ctx.send_now(child, 42);
        }
        fn on_event(&mut self, _: &mut Context<'_, Ev>, _: Ev) {}
    }
    let mut sim: Simulation<Ev> = Simulation::new(3);
    let s = sim.add_actor(StartSpawner { child: None });
    sim.run_until_idle();
    let child = sim.actor::<StartSpawner>(s).unwrap().child.unwrap();
    let c = sim.actor::<Child>(child).unwrap();
    assert!(c.started);
    assert_eq!(c.log, vec![42]);
}

/// The dynamic `spawn` API cannot silently inject a boxed actor into a
/// typed member table.
#[test]
#[should_panic(expected = "member type must match")]
fn dynamic_spawn_inside_typed_simulation_panics() {
    struct BadSpawn;
    impl Actor<Ev> for BadSpawn {
        fn on_event(&mut self, ctx: &mut Context<'_, Ev>, _: Ev) {
            let _ = ctx.spawn(Child::new());
        }
    }
    enum Solo {
        Bad(BadSpawn),
    }
    impl Actor<Ev> for Solo {
        fn on_event(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
            let Solo::Bad(a) = self;
            a.on_event(ctx, ev);
        }
    }
    let mut sim: Simulation<Ev, Solo> = Simulation::with_actor_set(1);
    let id = sim.add_member(Solo::Bad(BadSpawn));
    sim.schedule_at(SimTime::ZERO, id, 0);
    sim.run_until_idle();
}

/// Logs its events with, for each, which of `handles` were pending while
/// the handler ran; stops the run on `stop_on`. Never schedules anything,
/// so every event it handles leaves the queue's root vacant.
struct Watcher {
    handles: Vec<EventHandle>,
    stop_on: Option<Ev>,
    log: Vec<(SimTime, Ev, Vec<bool>)>,
}

impl Actor<Ev> for Watcher {
    fn on_event(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
        let pending = self.handles.iter().map(|&h| ctx.is_pending(h)).collect();
        self.log.push((ctx.now(), ev, pending));
        if self.stop_on == Some(ev) {
            ctx.stop();
        }
    }
}

/// Six events for one [`Watcher`] at 1 µs … 6 µs, payloads 0 … 5.
fn watched(stop_on: Option<Ev>) -> (Simulation<Ev>, ActorId, Vec<EventHandle>) {
    let mut sim: Simulation<Ev> = Simulation::new(1);
    let id = sim.add_actor(Watcher {
        handles: Vec::new(),
        stop_on,
        log: Vec::new(),
    });
    let handles: Vec<EventHandle> = (0..6)
        .map(|i| sim.schedule_at(SimTime::from_nanos(1_000 * (u64::from(i) + 1)), id, i))
        .collect();
    sim.actor_mut::<Watcher>(id).unwrap().handles = handles.clone();
    (sim, id, handles)
}

/// `step()` returns with the root of the queue vacant. Between steps the
/// engine's readers must neither count nor find the fired event, and an
/// external `cancel` / `reschedule` must land on a whole heap.
#[test]
fn step_keeps_queue_len_and_is_pending_exact() {
    let (mut sim, id, handles) = watched(None);
    assert!(sim.step());
    assert_eq!(sim.queue_len(), 5);
    assert!(sim.cancel(handles[3]), "pending event");
    assert!(!sim.cancel(handles[0]), "fired event");
    assert_eq!(sim.queue_len(), 4);
    let moved = sim
        .reschedule(handles[1], SimTime::from_nanos(10_000))
        .expect("pending event");
    assert_eq!(sim.queue_len(), 4);
    let mut left = 4;
    while sim.step() {
        left -= 1;
        assert_eq!(sim.queue_len(), left);
    }
    assert_eq!(left, 0);
    let log = &sim.actor::<Watcher>(id).unwrap().log;
    let fired: Vec<Ev> = log.iter().map(|&(_, ev, _)| ev).collect();
    assert_eq!(fired, vec![0, 2, 4, 5, 1]);
    assert_eq!(log[4].0, SimTime::from_nanos(10_000));
    // What each handler saw pending: the events still to fire, never its
    // own, never the cancelled one, and the rescheduled one's old handle
    // dead from the moment it moved.
    let expect = |pending: [usize; 6]| pending.map(|p| p == 1).to_vec();
    assert_eq!(log[0].2, expect([0, 1, 1, 1, 1, 1]));
    assert_eq!(log[1].2, expect([0, 0, 0, 0, 1, 1]));
    assert_eq!(log[2].2, expect([0, 0, 0, 0, 0, 1]));
    assert_eq!(log[3].2, expect([0, 0, 0, 0, 0, 0]));
    assert!(!sim.cancel(moved), "fired under its new handle");
}

/// A `stop()` from a handler that schedules nothing hands the caller a
/// queue with a vacant root; events scheduled from outside — before, among
/// and after what is pending — and the run that follows must fire in plain
/// `(time, seq)` order.
#[test]
fn stop_then_external_schedule_then_run_until_fires_in_order() {
    let (mut sim, id, _) = watched(Some(2));
    assert_eq!(sim.run_until_idle(), RunOutcome::Stopped);
    assert_eq!((sim.events_processed(), sim.queue_len()), (3, 3));
    for (nanos, ev) in [(3_000, 10), (4_500, 11), (9_000, 12), (5_000, 13)] {
        sim.schedule_at(SimTime::from_nanos(nanos), id, ev);
    }
    assert_eq!(sim.queue_len(), 7);
    assert_eq!(
        sim.run_until(SimTime::from_nanos(8_000)),
        RunOutcome::ReachedTime
    );
    assert_eq!(sim.queue_len(), 1);
    assert_eq!(sim.run_until_idle(), RunOutcome::Idle);
    let fired: Vec<(u64, Ev)> = sim
        .actor::<Watcher>(id)
        .unwrap()
        .log
        .iter()
        .map(|(at, ev, _)| (at.as_nanos(), *ev))
        .collect();
    assert_eq!(
        fired,
        vec![
            (1_000, 0),
            (2_000, 1),
            (3_000, 2),
            (3_000, 10),
            (4_000, 3),
            (4_500, 11),
            (5_000, 4),
            (5_000, 13),
            (6_000, 5),
            (9_000, 12),
        ]
    );
}

/// Least link delay of a generated ring, so no hop is instantaneous.
const MIN_LINK: SimDuration = SimDuration::from_micros(10);

/// Hop budget of the ring a spawning node starts mid-run.
const SPAWNED_HOPS: u32 = 5;

/// Ring node: on start (if a token source) and on each received token,
/// draw from its RNG stream, log, and forward to its successor until the
/// token's hop budget runs out. `next` is patched in after every node has
/// joined (actor ids are only minted at `add_member` time); a node left
/// without one is a ring of its own. One node spawns such a ring on its
/// first token, and one node stops the run on every token.
struct Node {
    next: Option<ActorId>,
    delay: SimDuration,
    source_hops: Option<u32>,
    spawns: bool,
    stops: bool,
    log: Vec<(u64, u32, u64)>,
}

impl Actor<u32> for Node {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        if let Some(hops) = self.source_hops {
            let next = self.next.unwrap_or_else(|| ctx.me());
            ctx.schedule_in(self.delay, next, hops);
        }
    }

    fn on_event(&mut self, ctx: &mut Context<'_, u32>, hops_left: u32) {
        let draw = ctx.rng().next_u64();
        self.log.push((ctx.now().as_nanos(), hops_left, draw));
        if std::mem::take(&mut self.spawns) {
            ctx.spawn_member(Node {
                next: None,
                delay: self.delay,
                source_hops: Some(SPAWNED_HOPS),
                spawns: false,
                stops: false,
                log: Vec::new(),
            });
        }
        if self.stops {
            ctx.stop();
        }
        if hops_left > 0 {
            let next = self.next.unwrap_or_else(|| ctx.me());
            ctx.schedule_in(self.delay, next, hops_left - 1);
        }
    }
}

impl ProjectActor<Node> for Node {
    fn project(&self) -> Option<&Node> {
        Some(self)
    }
    fn project_mut(&mut self) -> Option<&mut Node> {
        Some(self)
    }
}

/// One generated ring: per-node link delays (nanoseconds past
/// [`MIN_LINK`]) and the token's hop budget.
#[derive(Debug, Clone)]
struct RingSpec {
    delays: Vec<u64>,
    hops: u32,
}

fn ring_spec() -> impl Strategy<Value = RingSpec> {
    (prop::collection::vec(0u64..1_000_000, 1..5), 1u32..40)
        .prop_map(|(delays, hops)| RingSpec { delays, hops })
}

/// `(time, target, seq)` of every dispatch, in hook order.
type Trace = Rc<RefCell<Vec<(u64, usize, u64)>>>;

/// The driver-agreement population: disjoint token rings joined ring
/// after ring (node 0 of each is its token source), a trace hook, and the
/// spawning and stopping behaviours switched on for one node each.
fn build_for_drivers(
    rings: &[RingSpec],
    seed: u64,
    spawner: usize,
    stopper: usize,
) -> (Simulation<u32, Node>, Vec<ActorId>, Trace) {
    let mut sim = Simulation::with_actor_set(seed);
    let mut ids = Vec::new();
    for ring in rings {
        let base = ids.len();
        for (i, &extra) in ring.delays.iter().enumerate() {
            ids.push(sim.add_member(Node {
                next: None,
                delay: MIN_LINK + SimDuration::from_nanos(extra),
                source_hops: (i == 0).then_some(ring.hops),
                spawns: false,
                stops: false,
                log: Vec::new(),
            }));
        }
        let n = ring.delays.len();
        for i in 0..n {
            sim.actor_mut::<Node>(ids[base + i]).unwrap().next = Some(ids[base + (i + 1) % n]);
        }
    }
    sim.actor_mut::<Node>(ids[spawner % ids.len()])
        .unwrap()
        .spawns = true;
    sim.actor_mut::<Node>(ids[stopper % ids.len()])
        .unwrap()
        .stops = true;
    let trace = Trace::default();
    let sink = Rc::clone(&trace);
    sim.set_trace(move |r| {
        sink.borrow_mut()
            .push((r.time.as_nanos(), r.target.index(), r.seq));
    });
    (sim, ids, trace)
}

proptest! {
    /// The three ways to drive a simulation agree: `step()` until it
    /// returns `false` and `run(n)` in random chunks pop one event at a
    /// time, `run_until` runs the bounded loop — same trace, same event
    /// count, same clock, with one node spawning a ring mid-run and one
    /// calling `Context::stop()` on every token. Each stop ends the run
    /// right after its own event, and a resumed run loses nothing.
    #[test]
    fn one_lane_drivers_agree_and_stop_resumes(
        rings in prop::collection::vec(ring_spec(), 1..4),
        seed in any::<u64>(),
        spawner in 0usize..16,
        stopper in 0usize..16,
        chunks in prop::collection::vec(1u64..8, 1..6),
    ) {
        // Hop budgets (< 40) times max per-hop delay (< 10 µs + 1 ms) keep
        // every token comfortably inside a 100 ms horizon.
        let end = SimTime::from_nanos(100_000_000);
        let last_time = |trace: &Trace| SimTime::from_nanos(trace.borrow().last().unwrap().0);

        // `step()` neither honours nor clears a stop request.
        let (mut stepped, ids, step_trace) = build_for_drivers(&rings, seed, spawner, stopper);
        while stepped.step() {}
        prop_assert_eq!(stepped.now(), last_time(&step_trace));
        let stopper_id = ids[stopper % ids.len()];
        let stops = stepped.actor::<Node>(stopper_id).unwrap().log.len();
        // A short token never reaches the far side of its ring.
        let spawner_id = ids[spawner % ids.len()];
        let spawned = usize::from(!stepped.actor::<Node>(spawner_id).unwrap().log.is_empty());

        let (mut chunked, _, run_trace) = build_for_drivers(&rings, seed, spawner, stopper);
        let mut run_stops = 0;
        for &chunk in chunks.iter().cycle() {
            match chunked.run(chunk) {
                RunOutcome::Idle => break,
                RunOutcome::Stopped => {
                    run_stops += 1;
                    prop_assert_eq!(run_trace.borrow().last().unwrap().1, stopper_id.index());
                }
                outcome => prop_assert_eq!(outcome, RunOutcome::EventBudget),
            }
        }
        prop_assert_eq!(run_stops, stops);
        prop_assert_eq!(chunked.now(), last_time(&run_trace));

        let (mut bounded, _, bounded_trace) = build_for_drivers(&rings, seed, spawner, stopper);
        let mut bounded_stops = 0;
        while bounded.run_until(end) == RunOutcome::Stopped {
            bounded_stops += 1;
            prop_assert_eq!(bounded_trace.borrow().last().unwrap().1, stopper_id.index());
            prop_assert_eq!(bounded.now(), last_time(&bounded_trace));
        }
        prop_assert_eq!(bounded_stops, stops);

        // Bring the event-at-a-time runs to `end` as well (the first call
        // of the stepped one only clears its stale stop request).
        for sim in [&mut stepped, &mut chunked] {
            while sim.run_until(end) == RunOutcome::Stopped {}
        }
        prop_assert_eq!(&*step_trace.borrow(), &*bounded_trace.borrow());
        prop_assert_eq!(&*run_trace.borrow(), &*bounded_trace.borrow());
        for sim in [&stepped, &chunked, &bounded] {
            prop_assert_eq!(sim.now(), end);
            prop_assert_eq!(sim.events_processed(), bounded_trace.borrow().len() as u64);
            prop_assert_eq!(sim.actor_count(), ids.len() + spawned, "the spawned ring joined");
        }
    }
}

//! Regression tests for the dispatch edge cases the engine's one
//! pop → dispatch loop must preserve:
//!
//! * an actor sending to itself during `handle` observes every state
//!   change the earlier dispatch made (the member is borrowed in place);
//! * the queue's vacant root (a pop defers its heap repair to whoever
//!   comes next) is invisible at the engine's surface: `queue_len`,
//!   `is_pending` and external `cancel`/`schedule_at` between `step`s;
//! * the three ways to drive a simulation (`step`, `run(n)`, `run_until`)
//!   agree event for event, and a run resumed after a budget or a horizon
//!   loses nothing (a proptest over random token rings; soaked in CI at
//!   `PROPTEST_CASES=1024`, see `ci.sh`).

use presence_des::{
    Actor, ActorId, Context, EventHandle, RunOutcome, SimDuration, SimTime, Simulation,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

type Ev = u32;

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
        // it must still see this write (the in-place borrow wrote through).
        self.value += 10;
    }
}

#[test]
fn self_send_during_handle_observes_all_state_changes() {
    let mut sim: Simulation<Ev, SelfCounter> = Simulation::with_actor_set(1);
    let id = sim.add_member(SelfCounter {
        value: 0,
        observed: vec![],
    });
    sim.schedule_at(SimTime::ZERO, id, 0);
    sim.run_until_idle();
    let observed = &sim.actor::<SelfCounter>(id).unwrap().observed;
    assert_eq!(observed, &[0, 11, 22, 33]);
}

/// Logs its events with, for each, which of `handles` were pending while
/// the handler ran. Never schedules anything, so every event it handles
/// leaves the queue's root vacant.
struct Watcher {
    handles: Vec<EventHandle>,
    log: Vec<(SimTime, Ev, Vec<bool>)>,
}

impl Actor<Ev> for Watcher {
    fn on_event(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
        let pending = self.handles.iter().map(|&h| ctx.is_pending(h)).collect();
        self.log.push((ctx.now(), ev, pending));
    }
}

/// Six events for one [`Watcher`] at 1 µs … 6 µs, payloads 0 … 5.
fn watched() -> (Simulation<Ev, Watcher>, ActorId, Vec<EventHandle>) {
    let mut sim = Simulation::with_actor_set(1);
    let id = sim.add_member(Watcher {
        handles: Vec::new(),
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
/// external `cancel` must land on a whole heap.
#[test]
fn step_keeps_queue_len_and_is_pending_exact() {
    let (mut sim, id, handles) = watched();
    assert!(sim.step());
    assert_eq!(sim.queue_len(), 5);
    assert!(sim.cancel(handles[3]), "pending event");
    assert!(!sim.cancel(handles[0]), "fired event");
    assert_eq!(sim.queue_len(), 4);
    let mut left = 4;
    while sim.step() {
        left -= 1;
        assert_eq!(sim.queue_len(), left);
    }
    assert_eq!(left, 0);
    let log = &sim.actor::<Watcher>(id).unwrap().log;
    let fired: Vec<Ev> = log.iter().map(|&(_, ev, _)| ev).collect();
    assert_eq!(fired, vec![0, 1, 2, 4, 5]);
    // What each handler saw pending: the events still to fire, never its
    // own, never the cancelled one.
    let expect = |pending: [usize; 6]| pending.map(|p| p == 1).to_vec();
    assert_eq!(log[0].2, expect([0, 1, 1, 1, 1, 1]));
    assert_eq!(log[1].2, expect([0, 0, 1, 0, 1, 1]));
    assert_eq!(log[2].2, expect([0, 0, 0, 0, 1, 1]));
    assert_eq!(log[3].2, expect([0, 0, 0, 0, 0, 1]));
    assert_eq!(log[4].2, expect([0, 0, 0, 0, 0, 0]));
    assert!(!sim.cancel(handles[5]), "fired event");
}

/// `step()` from a handler that schedules nothing hands the caller a queue
/// with a vacant root; events scheduled from outside — before, among and
/// after what is pending — and the run that follows must fire in plain
/// `(time, seq)` order.
#[test]
fn step_then_external_schedule_then_run_until_fires_in_order() {
    let (mut sim, id, _) = watched();
    for _ in 0..3 {
        assert!(sim.step());
    }
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

/// Ring node: on start (if a token source) and on each received token,
/// draw from its RNG stream, log, and forward to its successor until the
/// token's hop budget runs out. `next` is patched in after every node has
/// joined (actor ids are only minted at `add_member` time).
struct Node {
    next: Option<ActorId>,
    delay: SimDuration,
    source_hops: Option<u32>,
    log: Vec<(u64, u32, u64)>,
}

impl Actor<u32> for Node {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        if let Some(hops) = self.source_hops {
            ctx.schedule_in(self.delay, self.next.expect("ring closed"), hops);
        }
    }

    fn on_event(&mut self, ctx: &mut Context<'_, u32>, hops_left: u32) {
        let draw = ctx.rng().next_u64();
        self.log.push((ctx.now().as_nanos(), hops_left, draw));
        if hops_left > 0 {
            ctx.schedule_in(self.delay, self.next.expect("ring closed"), hops_left - 1);
        }
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
/// after ring (node 0 of each is its token source) and a trace hook.
fn build_for_drivers(rings: &[RingSpec], seed: u64) -> (Simulation<u32, Node>, Trace) {
    let mut sim = Simulation::with_actor_set(seed);
    let mut ids = Vec::new();
    for ring in rings {
        let base = ids.len();
        for (i, &extra) in ring.delays.iter().enumerate() {
            ids.push(sim.add_member(Node {
                next: None,
                delay: MIN_LINK + SimDuration::from_nanos(extra),
                source_hops: (i == 0).then_some(ring.hops),
                log: Vec::new(),
            }));
        }
        let n = ring.delays.len();
        for i in 0..n {
            sim.actor_mut::<Node>(ids[base + i]).unwrap().next = Some(ids[base + (i + 1) % n]);
        }
    }
    let trace = Trace::default();
    let sink = Rc::clone(&trace);
    sim.set_trace(move |r| {
        sink.borrow_mut()
            .push((r.time.as_nanos(), r.target.index(), r.seq));
    });
    (sim, trace)
}

proptest! {
    /// The three ways to drive a simulation agree: `step()` until it
    /// returns `false` and `run(n)` in random chunks pop one event at a
    /// time, `run_until` runs the bounded loop — resumed at random
    /// horizons, each of which leaves the clock exactly there — and all
    /// three give the same trace, the same event count and the same clock.
    #[test]
    fn one_lane_drivers_agree_and_resume(
        rings in prop::collection::vec(ring_spec(), 1..4),
        seed in any::<u64>(),
        chunks in prop::collection::vec(1u64..8, 1..6),
        mut cuts in prop::collection::vec(0u64..100_000_000, 0..6),
    ) {
        // Hop budgets (< 40) times max per-hop delay (< 10 µs + 1 ms) keep
        // every token comfortably inside a 100 ms horizon.
        let end = SimTime::from_nanos(100_000_000);
        let last_time = |trace: &Trace| SimTime::from_nanos(trace.borrow().last().unwrap().0);

        let (mut stepped, step_trace) = build_for_drivers(&rings, seed);
        while stepped.step() {}
        prop_assert_eq!(stepped.now(), last_time(&step_trace));

        let (mut chunked, run_trace) = build_for_drivers(&rings, seed);
        for &chunk in chunks.iter().cycle() {
            match chunked.run(chunk) {
                RunOutcome::Idle => break,
                outcome => prop_assert_eq!(outcome, RunOutcome::EventBudget),
            }
        }
        prop_assert_eq!(chunked.now(), last_time(&run_trace));

        let (mut bounded, bounded_trace) = build_for_drivers(&rings, seed);
        cuts.sort_unstable();
        for &cut in &cuts {
            let at = SimTime::from_nanos(cut);
            let outcome = bounded.run_until(at);
            prop_assert!(matches!(outcome, RunOutcome::ReachedTime | RunOutcome::Idle));
            prop_assert_eq!(bounded.now(), at);
            if let Some(&(last, _, _)) = bounded_trace.borrow().last() {
                prop_assert!(last <= cut, "fired past its horizon");
            }
        }

        for sim in [&mut stepped, &mut chunked, &mut bounded] {
            prop_assert_eq!(sim.run_until(end), RunOutcome::Idle);
        }
        prop_assert_eq!(&*step_trace.borrow(), &*bounded_trace.borrow());
        prop_assert_eq!(&*run_trace.borrow(), &*bounded_trace.borrow());
        for sim in [&stepped, &chunked, &bounded] {
            prop_assert_eq!(sim.now(), end);
            prop_assert_eq!(sim.events_processed(), bounded_trace.borrow().len() as u64);
        }
    }
}

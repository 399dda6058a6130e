//! Lane-barrier model proptest: a [`Simulation`] split into several
//! lanes (conservative time windows, barrier exchange) must reproduce the
//! one-lane run exactly — per-actor logs, RNG draws, and event counts —
//! over random topologies, partitions, seeds, queue profiles, and worker
//! counts; and the three ways to drive one lane (`step`, `run(n)`,
//! `run_until`) must agree with each other.
//!
//! Topologies are unions of disjoint token rings. Each ring node forwards
//! to exactly one successor, so every actor receives events from a single
//! source actor — by construction no two events minted in *different*
//! regions can tie at the same `(time, target)`, which is precisely the
//! precondition under which lanes guarantee bit-identity (ties within one
//! region keep FIFO order at any lane count). Region assignment
//! is round-robin across ring membership, so rings cross region
//! boundaries constantly and the window barrier carries real traffic.
//!
//! Soaked in CI at `PROPTEST_CASES=1024` (see `ci.sh`).

use presence_des::{
    Actor, ActorId, Context, ProjectActor, QueueProfile, RunOutcome, SimDuration, SimTime,
    Simulation, WindowPolicy,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Cross-region lookahead declared for every regioned run; every link
/// delay generated below is at least this, so all schedules are safe.
const LOOKAHEAD: SimDuration = SimDuration::from_micros(10);

/// Ring node: on start (if a token source) and on each received token,
/// draw from its RNG stream, log, and forward to its successor until the
/// token's hop budget runs out. `next` is patched in after every node has
/// joined (actor ids are only minted at `add_member` time); a node left
/// without one is a ring of its own. The driver-agreement arm also makes
/// one node spawn such a ring on its first token, and one node stop the
/// run on every token.
struct Node {
    next: Option<ActorId>,
    delay: SimDuration,
    source_hops: Option<u32>,
    spawns: bool,
    stops: bool,
    log: Vec<(u64, u32, u64)>,
}

/// Hop budget of the ring a spawning node starts mid-run.
const SPAWNED_HOPS: u32 = 5;

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

/// One generated ring: per-node link delays (nanoseconds past the
/// lookahead) and the token's hop budget.
#[derive(Debug, Clone)]
struct RingSpec {
    delays: Vec<u64>,
    hops: u32,
}

fn ring_spec() -> impl Strategy<Value = RingSpec> {
    (prop::collection::vec(0u64..1_000_000, 1..5), 1u32..40)
        .prop_map(|(delays, hops)| RingSpec { delays, hops })
}

/// Builds the node list for a set of rings plus each node's successor
/// *index*; global actor order is ring after ring, so the population is
/// identical at every lane count.
fn build_nodes(rings: &[RingSpec]) -> Vec<(Node, usize)> {
    let mut nodes = Vec::new();
    let mut base = 0usize;
    for ring in rings {
        let n = ring.delays.len();
        for (i, &extra) in ring.delays.iter().enumerate() {
            nodes.push((
                Node {
                    next: None,
                    delay: LOOKAHEAD + SimDuration::from_nanos(extra),
                    source_hops: (i == 0).then_some(ring.hops),
                    spawns: false,
                    stops: false,
                    log: Vec::new(),
                },
                base + (i + 1) % n,
            ));
        }
        base += n;
    }
    nodes
}

/// What a run exposes for comparison: every node's `(time, hops, draw)`
/// log, plus the total event count.
type RunObservables = (Vec<Vec<(u64, u32, u64)>>, u64);

/// Builds the population on `regions` lanes (round-robin partition),
/// ring links patched; `regions == 1` is the one-lane reference.
fn build(
    rings: &[RingSpec],
    seed: u64,
    regions: usize,
    profile: QueueProfile,
) -> (Simulation<u32, Node>, Vec<ActorId>) {
    let mut sim = Simulation::with_lanes(seed, regions, Some(LOOKAHEAD), profile);
    let (ids, nexts): (Vec<ActorId>, Vec<usize>) = build_nodes(rings)
        .into_iter()
        .enumerate()
        .map(|(i, (n, next))| (sim.add_member_in(i % regions, n), next))
        .unzip();
    for (i, &next) in nexts.iter().enumerate() {
        sim.actor_mut::<Node>(ids[i]).unwrap().next = Some(ids[next]);
    }
    (sim, ids)
}

fn observe(sim: &Simulation<u32, Node>, ids: &[ActorId]) -> RunObservables {
    let logs = ids
        .iter()
        .map(|&id| sim.actor::<Node>(id).unwrap().log.clone())
        .collect();
    (logs, sim.events_processed())
}

/// Runs the population on one lane (heap queue) and returns every node's
/// log plus the total event count.
fn run_sequential(rings: &[RingSpec], seed: u64, end: SimTime) -> RunObservables {
    let (mut sim, ids) = build(rings, seed, 1, QueueProfile::Heap);
    sim.run_until(end);
    observe(&sim, &ids)
}

/// Runs the same population on `regions` lanes and returns the same
/// observables, plus the window counter so the adaptive arm can assert
/// barrier savings.
fn run_regioned(
    rings: &[RingSpec],
    seed: u64,
    end: SimTime,
    regions: usize,
    workers: usize,
    profile: QueueProfile,
    policy: WindowPolicy,
) -> (RunObservables, u64) {
    let (mut sim, ids) = build(rings, seed, regions, profile);
    sim.set_window_policy(policy);
    sim.set_workers(workers);
    sim.run_until(end);
    (observe(&sim, &ids), sim.windows_executed())
}

/// `(time, target, seq)` of every dispatch, in hook order.
type Trace = Rc<RefCell<Vec<(u64, usize, u64)>>>;

/// The driver-agreement population: one lane, a trace hook, and the
/// spawning and stopping behaviours switched on for one node each.
fn build_for_drivers(
    rings: &[RingSpec],
    seed: u64,
    spawner: usize,
    stopper: usize,
) -> (Simulation<u32, Node>, Vec<ActorId>, Trace) {
    let (mut sim, ids) = build(rings, seed, 1, QueueProfile::Heap);
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
    /// Regioned execution is bit-identical to sequential for every region
    /// count, worker count, and queue profile — logs, RNG draws, and
    /// event totals all match.
    #[test]
    fn regioned_run_matches_sequential(
        rings in prop::collection::vec(ring_spec(), 1..4),
        seed in any::<u64>(),
        calendar in any::<bool>(),
    ) {
        // Hop budgets (< 40) times max per-hop delay (< 10µs + 1ms) keep
        // every token comfortably inside a 100 ms horizon, so the run
        // always drains before `end` and both engines see every event.
        let end = SimTime::from_nanos(100_000_000);
        let expected = run_sequential(&rings, seed, end);
        let profile = if calendar {
            QueueProfile::calendar()
        } else {
            QueueProfile::Heap
        };
        for regions in [1usize, 2, 4] {
            for workers in [1usize, 4] {
                let (got, _) = run_regioned(
                    &rings, seed, end, regions, workers, profile, WindowPolicy::default(),
                );
                prop_assert_eq!(
                    &got, &expected,
                    "mismatch at regions={} workers={} calendar={}",
                    regions, workers, calendar
                );
            }
        }
    }

    /// Adaptive windows are a pure barrier-count optimisation: over the
    /// same random rings, regions {1,2,4} × workers {1,4}, an adaptive
    /// run is event-for-event bit-identical to the static-window and
    /// sequential runs, and never needs more windows than static.
    #[test]
    fn adaptive_windows_match_static_and_sequential(
        rings in prop::collection::vec(ring_spec(), 1..4),
        seed in any::<u64>(),
    ) {
        let end = SimTime::from_nanos(100_000_000);
        let expected = run_sequential(&rings, seed, end);
        for regions in [1usize, 2, 4] {
            for workers in [1usize, 4] {
                let (adaptive, adaptive_windows) = run_regioned(
                    &rings, seed, end, regions, workers,
                    QueueProfile::Heap, WindowPolicy::Adaptive,
                );
                let (static_run, static_windows) = run_regioned(
                    &rings, seed, end, regions, workers,
                    QueueProfile::Heap, WindowPolicy::Static,
                );
                prop_assert_eq!(
                    &adaptive, &expected,
                    "adaptive diverged from sequential at regions={} workers={}",
                    regions, workers
                );
                prop_assert_eq!(
                    &static_run, &expected,
                    "static diverged from sequential at regions={} workers={}",
                    regions, workers
                );
                prop_assert!(
                    adaptive_windows <= static_windows,
                    "adaptive needed more windows ({} > {}) at regions={} workers={}",
                    adaptive_windows, static_windows, regions, workers
                );
            }
        }
    }

    /// The three ways to drive one lane agree: `step()` until it returns
    /// `false` and `run(n)` in random chunks pop one event at a time,
    /// `run_until` runs the lane's window loop — same trace, same event
    /// count, same clock, with one node spawning a ring mid-run and one
    /// calling `Context::stop()` on every token. Stop is event-granular on
    /// one lane (each call ends the run right after its own event) and
    /// barrier-granular on two (the stopping lane halts at once, the
    /// barrier completes, and a resumed run loses nothing).
    #[test]
    fn one_lane_drivers_agree_and_stop_resumes(
        rings in prop::collection::vec(ring_spec(), 1..4),
        seed in any::<u64>(),
        spawner in 0usize..16,
        stopper in 0usize..16,
        chunks in prop::collection::vec(1u64..8, 1..6),
    ) {
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

        let (mut windowed, _, window_trace) = build_for_drivers(&rings, seed, spawner, stopper);
        let mut window_stops = 0;
        while windowed.run_until(end) == RunOutcome::Stopped {
            window_stops += 1;
            prop_assert_eq!(window_trace.borrow().last().unwrap().1, stopper_id.index());
            prop_assert_eq!(windowed.now(), last_time(&window_trace));
        }
        prop_assert_eq!(window_stops, stops);

        // Bring the event-at-a-time runs to `end` as well (the first call
        // of the stepped one only clears its stale stop request).
        for sim in [&mut stepped, &mut chunked] {
            while sim.run_until(end) == RunOutcome::Stopped {}
        }
        prop_assert_eq!(&*step_trace.borrow(), &*window_trace.borrow());
        prop_assert_eq!(&*run_trace.borrow(), &*window_trace.borrow());
        for sim in [&stepped, &chunked, &windowed] {
            prop_assert_eq!(sim.now(), end);
            prop_assert_eq!(sim.events_processed(), window_trace.borrow().len() as u64);
            prop_assert_eq!(sim.actor_count(), ids.len() + spawned, "the spawned ring joined");
        }

        // Two lanes, no spawner (a multi-lane actor table is fixed): every
        // stop surfaces as its own `Stopped`, and resuming reproduces the
        // one-lane logs exactly.
        let (mut reference, _) = build(&rings, seed, 1, QueueProfile::Heap);
        reference.actor_mut::<Node>(stopper_id).unwrap().stops = true;
        while reference.run_until(end) == RunOutcome::Stopped {}
        for workers in [1usize, 4] {
            let (mut laned, laned_ids) = build(&rings, seed, 2, QueueProfile::Heap);
            laned.set_workers(workers);
            laned.actor_mut::<Node>(stopper_id).unwrap().stops = true;
            let mut laned_stops = 0;
            while laned.run_until(end) == RunOutcome::Stopped {
                laned_stops += 1;
                prop_assert_eq!(
                    laned.actor::<Node>(stopper_id).unwrap().log.len(), laned_stops,
                    "the stopping lane must halt at its own stop (workers={})", workers
                );
            }
            prop_assert_eq!(
                observe(&laned, &laned_ids), observe(&reference, &ids),
                "workers={}", workers
            );
            prop_assert_eq!(laned.now(), end);
        }
    }

    /// External stimuli injected via `schedule_at` land identically at
    /// one lane and two (they bypass the router and mint local sequence
    /// numbers directly in the owning lane).
    #[test]
    fn external_stimuli_match_sequential(
        times in prop::collection::vec(0u64..50_000_000, 1..30),
        seed in any::<u64>(),
    ) {
        // A quiet two-node ring (no source token); all traffic is the
        // injected stimuli on node 0, each carrying a 0-hop budget so no
        // forwarding ever crosses the region boundary.
        let ring = [RingSpec { delays: vec![0, 0], hops: 1 }];
        let end = SimTime::from_nanos(60_000_000);

        let run = |regions: usize| {
            let (mut sim, ids) = build(&ring, seed, regions, QueueProfile::Heap);
            for &id in &ids {
                sim.actor_mut::<Node>(id).unwrap().source_hops = None;
            }
            for &t in &times {
                sim.schedule_at(SimTime::from_nanos(t), ids[0], 0);
            }
            sim.run_until(end);
            (sim, ids)
        };
        let (sim, seq_ids) = run(1);
        let (reg, reg_ids) = run(2);

        prop_assert_eq!(sim.events_processed(), reg.events_processed());
        let seq_log = &sim.actor::<Node>(seq_ids[0]).unwrap().log;
        let reg_log = &reg.actor::<Node>(reg_ids[0]).unwrap().log;
        prop_assert_eq!(seq_log, reg_log);
    }
}

//! Stress tests for the DES engine at scales beyond the unit tests:
//! large actor populations, deep timer cancellation churn, and long
//! timer chains — the regimes the experiment harness actually exercises.

use presence_des::{Actor, Context, SimDuration, SimTime, Simulation};

type Ev = u64;

/// An actor that bounces messages to a random peer, with a TTL.
struct Gossiper {
    peers: Vec<presence_des::ActorId>,
    received: u64,
}

impl Actor<Ev> for Gossiper {
    fn on_event(&mut self, ctx: &mut Context<'_, Ev>, ttl: Ev) {
        self.received += 1;
        if ttl > 0 && !self.peers.is_empty() {
            let idx = ctx.rng().index(self.peers.len());
            let peer = self.peers[idx];
            let jitter = ctx.rng().uniform(0.001, 0.1);
            ctx.schedule_in(SimDuration::from_secs_f64(jitter), peer, ttl - 1);
        }
    }
}

#[test]
fn thousand_actor_gossip_terminates_deterministically() {
    let run = |seed: u64| -> (u64, u64) {
        let mut sim = Simulation::with_actor_set(seed);
        let ids: Vec<_> = (0..1_000)
            .map(|_| {
                sim.add_member(Gossiper {
                    peers: Vec::new(),
                    received: 0,
                })
            })
            .collect();
        for &id in &ids {
            sim.actor_mut::<Gossiper>(id).unwrap().peers = ids.clone();
        }
        // Inject 50 rumours with TTL 100.
        for (i, &id) in ids.iter().take(50).enumerate() {
            sim.schedule_at(SimTime::from_nanos(i as u64), id, 100);
        }
        sim.run(u64::MAX);
        assert_eq!(sim.queue_len(), 0);
        let total: u64 = ids
            .iter()
            .map(|&id| sim.actor::<Gossiper>(id).unwrap().received)
            .sum();
        (total, sim.events_processed())
    };
    let (total_a, events_a) = run(42);
    let (total_b, events_b) = run(42);
    assert_eq!(total_a, 50 * 101, "every TTL hop must be delivered");
    assert_eq!((total_a, events_a), (total_b, events_b), "replay mismatch");
}

/// Arms and immediately cancels a million timers interleaved with live
/// ones; cancelled timers must neither fire nor linger in the queue.
#[test]
fn heavy_cancellation_churn() {
    struct Churner {
        remaining: u32,
        live_fired: u32,
    }
    impl Actor<Ev> for Churner {
        fn on_start(&mut self, ctx: &mut Context<'_, Ev>) {
            ctx.set_timer(SimDuration::from_nanos(1), 1);
        }
        fn on_event(&mut self, ctx: &mut Context<'_, Ev>, tag: Ev) {
            assert_eq!(tag, 1, "a cancelled (tag 0) timer fired");
            self.live_fired += 1;
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            // Ten dead timers per live one.
            for _ in 0..10 {
                let h = ctx.set_timer(SimDuration::from_nanos(5), 0);
                ctx.cancel(h);
            }
            ctx.set_timer(SimDuration::from_nanos(10), 1);
        }
    }
    let mut sim = Simulation::with_actor_set(7);
    let id = sim.add_member(Churner {
        remaining: 100_000,
        live_fired: 0,
    });
    sim.run(u64::MAX);
    assert_eq!(sim.queue_len(), 0);
    let churner = sim.actor::<Churner>(id).unwrap();
    assert_eq!(churner.live_fired, 100_001);
}

/// Regression for the tombstone leak: `cancel` on an already-fired handle
/// used to insert its (unique, hence never-removed) seq into the cancelled
/// set, so retry/cancel-pattern sims grew state forever. With true
/// cancellation the engine must retain nothing across a million
/// fire-then-cancel cycles, report every such cancel as a no-op, and keep
/// `queue_len` at the exact live count throughout.
#[test]
fn million_fire_then_cancel_cycles_retain_nothing() {
    struct Sink {
        fired: u64,
    }
    impl Actor<Ev> for Sink {
        fn on_event(&mut self, _: &mut Context<'_, Ev>, _: Ev) {
            self.fired += 1;
        }
    }
    let mut sim = Simulation::with_actor_set(1);
    let id = sim.add_member(Sink { fired: 0 });
    for round in 0..1_000_000u64 {
        let h = sim.schedule_at(SimTime::from_nanos(round), id, round);
        assert!(sim.step(), "event {round} must fire");
        assert!(!sim.cancel(h), "cancel after fire must be a no-op");
        assert_eq!(sim.queue_len(), 0, "live count drifted at round {round}");
    }
    assert_eq!(sim.events_processed(), 1_000_000);
    assert_eq!(sim.actor::<Sink>(id).unwrap().fired, 1_000_000);
}

/// A long serial timer chain: virtual time accumulates exactly, with no
/// drift over ten million nanosecond steps.
#[test]
fn long_chain_no_time_drift() {
    struct Chain {
        remaining: u64,
    }
    impl Actor<Ev> for Chain {
        fn on_start(&mut self, ctx: &mut Context<'_, Ev>) {
            ctx.set_timer(SimDuration::from_nanos(3), 0);
        }
        fn on_event(&mut self, ctx: &mut Context<'_, Ev>, _: Ev) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.set_timer(SimDuration::from_nanos(3), 0);
            }
        }
    }
    const STEPS: u64 = 1_000_000;
    let mut sim = Simulation::with_actor_set(1);
    sim.add_member(Chain { remaining: STEPS });
    sim.run(u64::MAX);
    assert_eq!(sim.now().as_nanos(), (STEPS + 1) * 3);
    assert_eq!(sim.events_processed(), STEPS + 1);
}

/// run_until called repeatedly in small increments must agree with a
/// single run_until over the whole horizon.
#[test]
fn incremental_run_until_equivalence() {
    fn build(seed: u64) -> (Simulation<Ev, Gossiper>, Vec<presence_des::ActorId>) {
        let mut sim = Simulation::with_actor_set(seed);
        let ids: Vec<_> = (0..20)
            .map(|_| {
                sim.add_member(Gossiper {
                    peers: Vec::new(),
                    received: 0,
                })
            })
            .collect();
        for &id in &ids {
            sim.actor_mut::<Gossiper>(id).unwrap().peers = ids.clone();
        }
        for &id in &ids {
            sim.schedule_at(SimTime::ZERO, id, 500);
        }
        (sim, ids)
    }

    let (mut whole, ids_a) = build(3);
    whole.run_until(SimTime::from_secs_f64(10.0));
    let totals_a: Vec<u64> = ids_a
        .iter()
        .map(|&id| whole.actor::<Gossiper>(id).unwrap().received)
        .collect();

    let (mut steps, ids_b) = build(3);
    for i in 1..=100 {
        steps.run_until(SimTime::from_secs_f64(i as f64 * 0.1));
    }
    let totals_b: Vec<u64> = ids_b
        .iter()
        .map(|&id| steps.actor::<Gossiper>(id).unwrap().received)
        .collect();

    assert_eq!(totals_a, totals_b);
    assert_eq!(whole.events_processed(), steps.events_processed());
}

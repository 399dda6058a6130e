//! Property-based tests for the DES engine: ordering, determinism,
//! cancellation, and clock monotonicity under arbitrary schedules.

use presence_des::{Actor, Context, RunOutcome, SimDuration, SimTime, Simulation};
use proptest::prelude::*;

/// Actor that records (time, tag) for every event it receives.
struct Sink {
    log: Vec<(u64, u32)>,
}

impl Actor<u32> for Sink {
    fn on_event(&mut self, ctx: &mut Context<'_, u32>, ev: u32) {
        self.log.push((ctx.now().as_nanos(), ev));
    }
}

proptest! {
    /// Events always fire in non-decreasing time order, FIFO within a time.
    #[test]
    fn firing_order_is_total(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim = Simulation::with_actor_set(0);
        let id = sim.add_member(Sink { log: vec![] });
        for (tag, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime::from_nanos(t), id, tag as u32);
        }
        sim.run_until_idle();
        let log = &sim.actor::<Sink>(id).unwrap().log;
        prop_assert_eq!(log.len(), times.len());
        for w in log.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated for simultaneous events");
            }
        }
    }

    /// Same seed + same schedule ⇒ identical event log.
    #[test]
    fn deterministic_under_seed(seed in any::<u64>(), times in prop::collection::vec(0u64..1_000_000, 1..100)) {
        let run = |seed: u64| {
            let mut sim = Simulation::with_actor_set(seed);
            let id = sim.add_member(Sink { log: vec![] });
            for (tag, &t) in times.iter().enumerate() {
                sim.schedule_at(SimTime::from_nanos(t), id, tag as u32);
            }
            sim.run_until_idle();
            sim.actor::<Sink>(id).unwrap().log.clone()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Cancelling a subset of events fires exactly the complement.
    #[test]
    fn cancellation_fires_complement(
        times in prop::collection::vec(0u64..1_000_000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut sim = Simulation::with_actor_set(0);
        let id = sim.add_member(Sink { log: vec![] });
        let mut expected = Vec::new();
        for (tag, &t) in times.iter().enumerate() {
            let h = sim.schedule_at(SimTime::from_nanos(t), id, tag as u32);
            if *cancel_mask.get(tag).unwrap_or(&false) {
                sim.cancel(h);
            } else {
                expected.push(tag as u32);
            }
        }
        sim.run_until_idle();
        let mut fired: Vec<u32> = sim.actor::<Sink>(id).unwrap().log.iter().map(|&(_, e)| e).collect();
        fired.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(fired, expected);
    }

    /// run_until(t) processes exactly the events with time <= t.
    #[test]
    fn run_until_boundary(times in prop::collection::vec(0u64..1_000_000, 1..100), cut in 0u64..1_000_000) {
        let mut sim = Simulation::with_actor_set(0);
        let id = sim.add_member(Sink { log: vec![] });
        for (tag, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime::from_nanos(t), id, tag as u32);
        }
        sim.run_until(SimTime::from_nanos(cut));
        let fired = sim.actor::<Sink>(id).unwrap().log.len();
        let expected = times.iter().filter(|&&t| t <= cut).count();
        prop_assert_eq!(fired, expected);
        prop_assert!(sim.now() >= SimTime::from_nanos(cut));
    }

    /// Chained timers advance the clock by exactly the sum of delays.
    #[test]
    fn timer_chain_sums_delays(delays in prop::collection::vec(1u64..10_000_000, 1..50)) {
        struct Chain {
            delays: Vec<u64>,
            next: usize,
        }
        impl Actor<u32> for Chain {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                if let Some(&d) = self.delays.first() {
                    self.next = 1;
                    ctx.set_timer(SimDuration::from_nanos(d), 0);
                }
            }
            fn on_event(&mut self, ctx: &mut Context<'_, u32>, _: u32) {
                if let Some(&d) = self.delays.get(self.next) {
                    self.next += 1;
                    ctx.set_timer(SimDuration::from_nanos(d), 0);
                }
            }
        }
        let total: u64 = delays.iter().sum();
        let mut sim = Simulation::with_actor_set(0);
        sim.add_member(Chain { delays, next: 0 });
        let outcome = sim.run_until_idle();
        prop_assert_eq!(outcome, RunOutcome::Idle);
        prop_assert_eq!(sim.now().as_nanos(), total);
    }

    /// The event budget is honoured exactly.
    #[test]
    fn event_budget_exact(budget in 1u64..500) {
        struct Endless;
        impl Actor<u32> for Endless {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_timer(SimDuration::from_nanos(1), 0);
            }
            fn on_event(&mut self, ctx: &mut Context<'_, u32>, _: u32) {
                ctx.set_timer(SimDuration::from_nanos(1), 0);
            }
        }
        let mut sim = Simulation::with_actor_set(0);
        sim.add_member(Endless);
        prop_assert_eq!(sim.run(budget), RunOutcome::EventBudget);
        prop_assert_eq!(sim.events_processed(), budget);
    }
}

// ---------------------------------------------------------------------------
// EventQueue model checking: the d-ary heap must agree with a brute-force
// reference model under arbitrary push/pop/cancel/reschedule interleavings.
// About half the pushes land on the instant last popped (the engine's
// `send_now`), so the same-instant run buffer is filled, cancelled from,
// rescheduled out of, overtaken by pushes into the past and popped
// interleaved with equal-time heap entries of smaller seq. About half the
// cancels, reschedules and contains checks go through the slot `push`
// returned (the engine's handle path), the rest by bare seq.
// ---------------------------------------------------------------------------

/// The seq a destructive op aims at: an arbitrary one when bit 0 of the pick
/// is clear, else one of the last six minted (where run-buffer entries are).
fn target_seq(pick: u64, next_seq: u64) -> u64 {
    if pick & 1 == 0 {
        pick >> 1
    } else {
        next_seq.saturating_sub(1 + (pick >> 2) % 6)
    }
}

/// The instant an op schedules at: the one last popped when bit 1 of the
/// pick is clear (once something has been popped), else the drawn time.
fn target_time(pick: u64, drawn: u64, last_popped: Option<u64>) -> u64 {
    match last_popped {
        Some(t) if pick & 2 == 0 => t,
        _ => drawn,
    }
}

/// The slot an op on `seq` goes through, or `None` to send it by bare seq:
/// a slot when the op draws the handle path and the queue handed one out
/// for `seq`. `slots[seq]` is that slot (`None` for a seq minted by a
/// reschedule by bare seq, which returns no slot). A handle whose event
/// fired or was cancelled still names its old slot, which a later event
/// may hold.
fn handle_slot(by_handle: bool, slots: &[Option<u32>], seq: u64) -> Option<u32> {
    slots
        .get(seq as usize)
        .copied()
        .flatten()
        .filter(|_| by_handle)
}

mod event_queue_model {
    use presence_des::{EventQueue, SimTime};
    use proptest::prelude::*;

    /// Brute-force reference: an unsorted list, popped by scanning for the
    /// minimum `(time, seq)` — obviously correct, O(n) per op.
    #[derive(Default)]
    struct Model {
        live: Vec<(u64, u64)>, // (time, seq)
    }

    impl Model {
        fn push(&mut self, time: u64, seq: u64) {
            self.live.push((time, seq));
        }
        fn pop(&mut self) -> Option<(u64, u64)> {
            let best = self.live.iter().enumerate().min_by_key(|&(_, &key)| key)?.0;
            Some(self.live.swap_remove(best))
        }
        fn cancel(&mut self, seq: u64) -> bool {
            match self.live.iter().position(|&(_, s)| s == seq) {
                Some(i) => {
                    self.live.swap_remove(i);
                    true
                }
                None => false,
            }
        }
        fn contains(&self, seq: u64) -> bool {
            self.live.iter().any(|&(_, s)| s == seq)
        }
        fn reschedule(&mut self, seq: u64, time: u64, new_seq: u64) -> bool {
            let pending = self.cancel(seq);
            if pending {
                self.push(time, new_seq);
            }
            pending
        }
    }

    proptest! {
        /// Drained in one go, the queue reproduces the model's total order
        /// (time ascending, FIFO on seq within a time).
        #[test]
        fn drain_matches_reference_order(
            times in prop::collection::vec(0u64..64, 1..200),
        ) {
            let mut q = EventQueue::new();
            let mut model = Model::default();
            for (seq, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), seq as u64, ());
                model.push(t, seq as u64);
            }
            prop_assert_eq!(q.len(), times.len());
            while let Some((key, ())) = q.pop() {
                let expect = model.pop().expect("model drained early");
                prop_assert_eq!((key.time.as_nanos(), key.seq), expect);
            }
            prop_assert!(model.pop().is_none(), "queue drained early");
        }

        /// Arbitrary interleavings of push / cancel / reschedule / pop
        /// agree with the model at every step: cancel and reschedule hit
        /// exactly the pending seqs, pops come out in model order, and
        /// `len` / `contains` / `peek` stay exact.
        #[test]
        fn interleaved_ops_match_reference(
            ops in prop::collection::vec(
                (0u64..64, 0u64..200, 0u32..6, any::<bool>()),
                1..300,
            ),
        ) {
            let mut q = EventQueue::new();
            let mut model = Model::default();
            let mut slots: Vec<Option<u32>> = Vec::new();
            let mut next_seq = 0u64;
            let mut last_popped = None;
            for &(time, pick, kind, by_handle) in &ops {
                let at = super::target_time(pick, time, last_popped);
                let seq = super::target_seq(pick, next_seq);
                let handle = super::handle_slot(by_handle, &slots, seq);
                match kind {
                    // Push twice as often as the other ops so the queue
                    // actually fills up.
                    0 | 1 => {
                        slots.push(Some(q.push(SimTime::from_nanos(at), next_seq, ())));
                        model.push(at, next_seq);
                        next_seq += 1;
                    }
                    2 => {
                        // Cancel a seq — pending, fired, or never issued;
                        // queue and model must agree.
                        let got = match handle {
                            Some(slot) => q.cancel_slot(slot, seq),
                            None => q.cancel(seq),
                        };
                        let expect = model.cancel(seq);
                        prop_assert_eq!(got.is_some(), expect, "cancel({}) disagreed", seq);
                        prop_assert!(!q.contains(seq), "cancelled seq still pending");
                    }
                    3 => {
                        // The fresh seq is minted like the engine does:
                        // only when the event was pending.
                        let at = SimTime::from_nanos(at);
                        let got = match handle {
                            Some(slot) => q
                                .reschedule_slot(slot, seq, at, next_seq)
                                .map(|(slot, _)| Some(slot)),
                            None => q.reschedule(seq, at, next_seq).map(|_| None),
                        };
                        let expect = model.reschedule(seq, at.as_nanos(), next_seq);
                        prop_assert_eq!(got.is_some(), expect, "reschedule({}) disagreed", seq);
                        if let Some(slot) = got {
                            prop_assert!(q.contains(next_seq) && !q.contains(seq));
                            if let Some(slot) = slot {
                                prop_assert!(q.contains_slot(slot, next_seq), "new slot misses");
                            }
                            slots.push(slot);
                            next_seq += 1;
                        }
                    }
                    4 => {
                        let got = match handle {
                            Some(slot) => q.contains_slot(slot, seq),
                            None => q.contains(seq),
                        };
                        prop_assert_eq!(got, model.contains(seq));
                        let head = model.live.iter().min().copied();
                        prop_assert_eq!(
                            q.peek().map(|k| (k.time.as_nanos(), k.seq)),
                            head,
                            "peek disagreed"
                        );
                    }
                    _ => {
                        let got = q.pop().map(|(k, ())| (k.time.as_nanos(), k.seq));
                        let expect = model.pop();
                        prop_assert_eq!(got, expect, "pop disagreed");
                        last_popped = got.map(|(t, _)| t).or(last_popped);
                    }
                }
                prop_assert_eq!(q.len(), model.live.len(), "live count diverged");
            }
            // Full drain at the end must still agree.
            while let Some((key, ())) = q.pop() {
                let expect = model.pop().expect("model drained early");
                prop_assert_eq!((key.time.as_nanos(), key.seq), expect);
            }
            prop_assert!(model.pop().is_none());
            prop_assert!(q.is_empty());
        }

        /// Cancel soundness: cancelling a random subset leaves exactly the
        /// complement, in order, and cancels of fired events return None.
        #[test]
        fn cancelled_subset_never_surfaces(
            times in prop::collection::vec(0u64..1_000, 1..150),
            mask in prop::collection::vec(any::<bool>(), 1..150),
        ) {
            let mut q = EventQueue::new();
            for (seq, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), seq as u64, seq);
            }
            let mut kept = Vec::new();
            for seq in 0..times.len() as u64 {
                if *mask.get(seq as usize).unwrap_or(&false) {
                    prop_assert_eq!(q.cancel(seq), Some(seq as usize));
                } else {
                    kept.push(seq);
                }
            }
            let mut surfaced: Vec<u64> = Vec::new();
            while let Some((key, item)) = q.pop() {
                prop_assert_eq!(key.seq as usize, item);
                prop_assert_eq!(q.cancel(key.seq), None, "fired seq cancellable");
                surfaced.push(key.seq);
            }
            surfaced.sort_unstable();
            prop_assert_eq!(surfaced, kept);
        }
    }
}

// ---------------------------------------------------------------------------
// Calendar-queue model checking: an EventQueue with a calendar profile must
// agree with the plain 4-ary heap EventQueue — the engine's proven
// reference — step for step under arbitrary push / cancel / reschedule /
// pop interleavings. Bucket widths and ring lengths are drawn tiny so every
// run crosses bucket, window-slide, far-overflow, and rebase boundaries.
// ---------------------------------------------------------------------------

mod calendar_queue_model {
    use presence_des::{EventQueue, QueueProfile, SimDuration, SimTime};
    use proptest::prelude::*;

    proptest! {
        /// Drained in one go, both profiles produce the identical
        /// `(time, seq)` sequence.
        #[test]
        fn drain_matches_heap_order(
            times in prop::collection::vec(0u64..100_000, 1..300),
            width in 1u64..5_000,
            buckets in 2usize..32,
        ) {
            let mut cal = EventQueue::with_profile(QueueProfile::Calendar {
                bucket_width: SimDuration::from_nanos(width),
                buckets,
            });
            let mut heap = EventQueue::new();
            for (seq, &t) in times.iter().enumerate() {
                cal.push(SimTime::from_nanos(t), seq as u64, ());
                heap.push(SimTime::from_nanos(t), seq as u64, ());
            }
            prop_assert_eq!(cal.len(), heap.len());
            while let Some((expect, ())) = heap.pop() {
                let got = cal.pop().map(|(k, ())| k);
                prop_assert_eq!(got, Some(expect), "pop order diverged");
            }
            prop_assert!(cal.pop().is_none(), "calendar retained events");
            prop_assert!(cal.is_empty());
        }

        /// Arbitrary interleavings of push / cancel / reschedule / pop /
        /// peek agree with the heap profile at every step. An op that draws
        /// the handle path sends the calendar queue's half through its slot
        /// and the heap's by bare seq; the other half the other way round.
        #[test]
        fn interleaved_ops_match_heap(
            ops in prop::collection::vec(
                (0u64..50_000, 0u64..400, 0u32..8, any::<bool>()),
                1..400,
            ),
            width in 1u64..3_000,
            buckets in 2usize..24,
        ) {
            let mut cal = EventQueue::with_profile(QueueProfile::Calendar {
                bucket_width: SimDuration::from_nanos(width),
                buckets,
            });
            let mut heap = EventQueue::new();
            let (mut cal_slots, mut heap_slots): (Vec<Option<u32>>, Vec<Option<u32>>) =
                (Vec::new(), Vec::new());
            let mut next_seq = 0u64;
            let mut last_popped = None;
            for &(time, pick, kind, by_handle) in &ops {
                let at = SimTime::from_nanos(super::target_time(pick, time, last_popped));
                let seq = super::target_seq(pick, next_seq);
                let cal_handle = super::handle_slot(by_handle, &cal_slots, seq);
                let heap_handle = super::handle_slot(!by_handle, &heap_slots, seq);
                match kind {
                    // Push three times as often as the destructive ops so
                    // the tiers actually fill up.
                    0..=2 => {
                        cal_slots.push(Some(cal.push(at, next_seq, next_seq)));
                        heap_slots.push(Some(heap.push(at, next_seq, next_seq)));
                        next_seq += 1;
                    }
                    3 => {
                        let got = match cal_handle {
                            Some(slot) => cal.cancel_slot(slot, seq),
                            None => cal.cancel(seq),
                        };
                        let expect = match heap_handle {
                            Some(slot) => heap.cancel_slot(slot, seq),
                            None => heap.cancel(seq),
                        };
                        prop_assert_eq!(got, expect, "cancel({}) disagreed", seq);
                        prop_assert_eq!(cal.contains(seq), heap.contains(seq));
                    }
                    4 => {
                        // The fresh seq is minted like the engine does.
                        let new_seq = next_seq;
                        let got = match cal_handle {
                            Some(slot) => cal
                                .reschedule_slot(slot, seq, at, new_seq)
                                .map(|(slot, &mut item)| (Some(slot), item)),
                            None => cal.reschedule(seq, at, new_seq).map(|&mut item| (None, item)),
                        };
                        let expect = match heap_handle {
                            Some(slot) => heap
                                .reschedule_slot(slot, seq, at, new_seq)
                                .map(|(slot, &mut item)| (Some(slot), item)),
                            None => heap.reschedule(seq, at, new_seq).map(|&mut item| (None, item)),
                        };
                        prop_assert_eq!(
                            got.map(|(_, item)| item),
                            expect.map(|(_, item)| item),
                            "reschedule({}) disagreed",
                            seq
                        );
                        if let (Some((cal_slot, _)), Some((heap_slot, _))) = (got, expect) {
                            cal_slots.push(cal_slot);
                            heap_slots.push(heap_slot);
                            next_seq += 1;
                        }
                    }
                    5 => {
                        prop_assert_eq!(cal.peek(), heap.peek(), "peek disagreed");
                        let got = match cal_handle {
                            Some(slot) => cal.contains_slot(slot, seq),
                            None => cal.contains(seq),
                        };
                        let expect = match heap_handle {
                            Some(slot) => heap.contains_slot(slot, seq),
                            None => heap.contains(seq),
                        };
                        prop_assert_eq!(got, expect, "contains({}) disagreed", seq);
                    }
                    _ => {
                        let got = cal.pop();
                        let expect = heap.pop();
                        prop_assert_eq!(got, expect, "pop disagreed");
                        last_popped = got.map(|(k, _)| k.time.as_nanos()).or(last_popped);
                    }
                }
                prop_assert_eq!(cal.len(), heap.len(), "len diverged");
                prop_assert_eq!(cal.is_empty(), heap.is_empty());
            }
            // Full drain at the end must still agree.
            loop {
                let got = cal.pop();
                let expect = heap.pop();
                prop_assert_eq!(got, expect, "drain disagreed");
                if expect.is_none() {
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// TimerSlots model checking: the two-slot inline cache must agree with a
// HashMap reference under arbitrary set/cancel/rearm/fire/is_pending
// interleavings — including the spill-past-2-slots path (keys range over
// six values, so three-plus live timers occur constantly).
// ---------------------------------------------------------------------------

mod timer_slots_model {
    use presence_des::{Actor, Context, EventHandle, SimTime, Simulation, TimerSlots};
    use proptest::prelude::*;
    use std::collections::HashMap;

    struct Sink;
    impl Actor<u32> for Sink {
        fn on_event(&mut self, _: &mut Context<'_, u32>, _: u32) {}
    }

    const KEYS: u8 = 6;

    proptest! {
        /// Step-for-step agreement with a `HashMap` reference model. Ops:
        /// 0 = set (arm a fresh engine timer and insert), 1 = cancel,
        /// 2 = rearm in place, 3 = fire (the engine consumed it; the
        /// bookkeeping forgets it), 4 = is_pending/lookup, 5 = retain
        /// (prune a deterministic subset). After every op the full key
        /// space must resolve identically on both sides.
        #[test]
        fn matches_hashmap_reference(
            ops in prop::collection::vec((0u8..6, 0u8..KEYS), 1..300),
        ) {
            let mut sim: Simulation<u32, Sink> = Simulation::with_actor_set(1);
            let actor = sim.add_member(Sink);
            let mut at = 1.0f64;
            let mut slots: TimerSlots<u8> = TimerSlots::new();
            let mut model: HashMap<u8, EventHandle> = HashMap::new();
            for &(op, key) in &ops {
                match op {
                    0 => {
                        at += 1.0;
                        let h = sim.schedule_at(
                            SimTime::from_secs_f64(at),
                            actor,
                            u32::from(key),
                        );
                        // A replaced timer is cancelled by the caller in
                        // real use; mirror that so the sim stays tidy.
                        let (a, b) = (slots.insert(key, h), model.insert(key, h));
                        prop_assert_eq!(a, b, "insert returned different old handle");
                        if let Some(old) = a {
                            sim.cancel(old);
                        }
                    }
                    1 => {
                        let (a, b) = (slots.remove(key), model.remove(&key));
                        prop_assert_eq!(a, b, "cancel removed different handle");
                        if let Some(h) = a {
                            sim.cancel(h);
                        }
                    }
                    2 => {
                        // Rearm: pull the live handle, move the engine
                        // event to a later instant, store the fresh handle.
                        let (a, b) = (slots.remove(key), model.remove(&key));
                        prop_assert_eq!(a, b, "rearm found different handle");
                        if let Some(h) = a {
                            at += 1.0;
                            prop_assert!(sim.cancel(h), "handle minted by this run is pending");
                            let fresh =
                                sim.schedule_at(SimTime::from_secs_f64(at), actor, u32::from(key));
                            prop_assert_eq!(slots.insert(key, fresh), None);
                            model.insert(key, fresh);
                        }
                    }
                    3 => {
                        // Fire: the engine delivered the event; both sides
                        // drop the bookkeeping entry.
                        let (a, b) = (slots.remove(key), model.remove(&key));
                        prop_assert_eq!(a, b, "fire removed different handle");
                        if let Some(h) = a {
                            sim.cancel(h);
                        }
                    }
                    4 => {
                        prop_assert_eq!(slots.get(key), model.get(&key).copied());
                        prop_assert_eq!(slots.contains(key), model.contains_key(&key));
                    }
                    _ => {
                        // Prune: keep even keys only (a deterministic
                        // stand-in for "handle still pending" predicates).
                        slots.retain(|k, _| k % 2 == 0);
                        model.retain(|k, _| k % 2 == 0);
                    }
                }
                prop_assert_eq!(slots.len(), model.len(), "len diverged");
                prop_assert_eq!(slots.is_empty(), model.is_empty());
                for k in 0..KEYS {
                    prop_assert_eq!(
                        slots.get(k),
                        model.get(&k).copied(),
                        "key {} resolved differently",
                        k
                    );
                }
            }
            // Drain must surface exactly the model's final contents.
            let mut drained: Vec<(u8, EventHandle)> = Vec::new();
            slots.drain(|k, h| drained.push((k, h)));
            prop_assert!(slots.is_empty());
            drained.sort_by_key(|&(k, _)| k);
            let mut expected: Vec<(u8, EventHandle)> = model.into_iter().collect();
            expected.sort_by_key(|&(k, _)| k);
            prop_assert_eq!(drained, expected);
        }
    }
}

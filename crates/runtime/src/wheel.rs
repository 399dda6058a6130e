//! A lazily-reconciled timer wheel, with no product caller.
//!
//! The shards keep their timers in the simulator's own
//! [`EventQueue`](presence_des::EventQueue), addressed by handle. The
//! wheel stays exported only because the repo benchmark's
//! `runtime.wheel.*` kernels time it; it goes when those kernels move to
//! the queue.
//!
//! A `BTreeMap<TimerToken, SimTime>` scanned in full on every loop
//! iteration is fine for one prober with two timers and hopeless for a
//! shard hosting thousands. In a [`TimerWheel`] the *authoritative*
//! state is a plain map from key to deadline, and the ordered structure is
//! only a schedule cache that is reconciled lazily.
//!
//! * `insert` / `cancel` are O(1) map operations plus (for insert) a heap
//!   push; `cancel` never touches the heap.
//! * `pop_due` / `next_deadline` pop heap entries and validate each
//!   against the authoritative map — entries whose key was cancelled or
//!   re-armed since are stale and discarded. Every armed timer creates
//!   exactly one heap entry, so stale entries are bounded by the number of
//!   `insert` calls and each is discarded exactly once: amortised
//!   O(log n) per armed timer, no tombstone leak.
//!
//! Keys are generic: the shards once keyed theirs by `(machine, token)`.

use presence_des::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;

/// A map from timer keys to deadlines with an efficient
/// earliest-deadline-first drain.
#[derive(Debug)]
pub struct TimerWheel<K> {
    /// The truth: live deadline and arming generation per key.
    live: HashMap<K, (SimTime, u64)>,
    /// The schedule cache: every arming pushes `(deadline, generation,
    /// key)`; entries are validated against `live` when popped.
    heap: BinaryHeap<Reverse<(SimTime, u64, K)>>,
    /// Arming generation counter — distinguishes a live entry from a
    /// stale one even when a key is re-armed at the same deadline.
    generation: u64,
}

impl<K: Copy + Eq + Hash + Ord> Default for TimerWheel<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Eq + Hash + Ord> TimerWheel<K> {
    /// Creates an empty wheel.
    #[must_use]
    pub fn new() -> Self {
        Self {
            live: HashMap::new(),
            heap: BinaryHeap::new(),
            generation: 0,
        }
    }

    /// Arms (or re-arms) the timer under `key` to fire at `at`. Returns
    /// the previous deadline if the key was already armed.
    pub fn insert(&mut self, key: K, at: SimTime) -> Option<SimTime> {
        self.generation += 1;
        let prev = self.live.insert(key, (at, self.generation));
        self.heap.push(Reverse((at, self.generation, key)));
        prev.map(|(t, _)| t)
    }

    /// Disarms the timer under `key`. Returns its deadline if it was live.
    /// The stale schedule-cache entry is discarded lazily.
    pub fn cancel(&mut self, key: K) -> Option<SimTime> {
        self.live.remove(&key).map(|(t, _)| t)
    }

    /// Discards stale heap entries until the top is live (or the heap is
    /// empty).
    fn reconcile(&mut self) {
        while let Some(Reverse((at, generation, key))) = self.heap.peek() {
            match self.live.get(key) {
                Some(&(live_at, live_generation))
                    if live_at == *at && live_generation == *generation =>
                {
                    return;
                }
                _ => {
                    self.heap.pop();
                }
            }
        }
    }

    /// The earliest live deadline.
    #[must_use]
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        self.reconcile();
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Removes and returns the earliest live timer if its deadline is at
    /// or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(K, SimTime)> {
        self.reconcile();
        let Reverse((at, _, key)) = self.heap.peek().copied()?;
        if at > now {
            return None;
        }
        self.heap.pop();
        self.live.remove(&key);
        Some((key, at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn fires_in_deadline_order() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.insert(1, t(30));
        w.insert(2, t(10));
        w.insert(3, t(20));
        assert_eq!(w.next_deadline(), Some(t(10)));
        assert_eq!(w.pop_due(t(25)), Some((2, t(10))));
        assert_eq!(w.pop_due(t(25)), Some((3, t(20))));
        assert_eq!(w.pop_due(t(25)), None, "deadline 30 not due at 25");
        assert_eq!(w.live.len(), 1);
    }

    #[test]
    fn cancel_is_lazy_but_authoritative() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.insert(1, t(10));
        w.insert(2, t(20));
        assert_eq!(w.cancel(1), Some(t(10)));
        assert_eq!(w.cancel(1), None);
        assert_eq!(w.next_deadline(), Some(t(20)), "stale entry skipped");
        assert_eq!(w.pop_due(t(100)), Some((2, t(20))));
        assert!(w.live.is_empty());
        assert_eq!(w.pop_due(t(100)), None);
    }

    #[test]
    fn rearm_supersedes_even_at_same_deadline() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.insert(1, t(10));
        // Cancel + re-arm at the SAME deadline: the generation counter
        // must keep the stale cache entry from double-firing the key.
        assert_eq!(w.cancel(1), Some(t(10)));
        w.insert(1, t(10));
        assert_eq!(w.pop_due(t(10)), Some((1, t(10))));
        assert_eq!(w.pop_due(t(10)), None, "stale duplicate fired");
        assert!(w.live.is_empty());
    }

    #[test]
    fn rearm_to_later_deadline() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        assert_eq!(w.insert(1, t(10)), None);
        assert_eq!(w.insert(1, t(50)), Some(t(10)));
        assert_eq!(w.pop_due(t(20)), None, "superseded deadline fired");
        assert_eq!(w.pop_due(t(50)), Some((1, t(50))));
    }

    #[test]
    fn model_check_against_btreemap() {
        // Drive wheel and a reference BTreeMap through a deterministic
        // pseudo-random op sequence; drain order must match.
        use std::collections::BTreeMap;
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let mut reference: BTreeMap<u32, SimTime> = BTreeMap::new();
        let mut x: u64 = 0x243f_6a88_85a3_08d3;
        for step in 0..2000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) as u32 % 16;
            let op = (x >> 60) % 4;
            match op {
                0 | 1 => {
                    let at = t(step % 97);
                    assert_eq!(w.insert(key, at), reference.insert(key, at));
                }
                2 => assert_eq!(w.cancel(key), reference.remove(&key)),
                _ => {
                    assert_eq!(
                        w.live.get(&key).map(|&(t, _)| t),
                        reference.get(&key).copied()
                    );
                    assert_eq!(
                        w.next_deadline(),
                        reference.values().min().copied(),
                        "min deadline diverged at step {step}"
                    );
                }
            }
            assert_eq!(w.live.len(), reference.len());
        }
        // Drain everything due; order must be deadline-sorted and the set
        // must equal the reference's.
        let mut drained = Vec::new();
        while let Some((k, at)) = w.pop_due(SimTime::MAX) {
            drained.push((at, k));
        }
        assert!(drained.windows(2).all(|p| p[0].0 <= p[1].0), "unsorted");
        let mut expect: Vec<(SimTime, u32)> =
            reference.into_iter().map(|(k, at)| (at, k)).collect();
        expect.sort();
        let mut got = drained.clone();
        got.sort();
        assert_eq!(got, expect);
    }
}

//! A two-slot inline timer cache.
//!
//! No actor in the workspace uses it: a control point holds one live timer
//! (`Option<(TimerToken, EventHandle)>`) and a device a `Vec` of the
//! replies inside their processing window. It is kept only for the repo
//! benchmark's `des.timer_slots.insert_remove_ns` kernel, and goes with
//! that kernel.
//!
//! It was built for nodes holding very few keyed timers: a
//! `HashMap<Token, EventHandle>` pays a hash, a probe sequence, and (once,
//! per actor) a heap allocation for what is almost always a one- or
//! two-element collection.
//!
//! [`TimerSlots`] stores the first two live entries **inline** — lookup is
//! at most two key comparisons on a cache-resident 48-byte struct, and an
//! actor that never exceeds two live timers never allocates. Entries past
//! two spill into a lazily boxed `HashMap`, so correctness never depends
//! on the ≤ 2 expectation: the structure behaves exactly like a map at any
//! population (pinned by a model-based proptest against a `HashMap`
//! reference, spill path included).
//!
//! None of the operations touch the event queue or any RNG.

use crate::engine::EventHandle;
use std::collections::HashMap;
use std::hash::Hash;

/// An inline-first map from timer keys to [`EventHandle`]s: two inline
/// slots, lazily allocated spill for the rest.
///
/// # Examples
///
/// ```
/// use presence_des::{SimTime, Simulation, TimerSlots};
///
/// # struct Sink;
/// # impl presence_des::Actor<u32> for Sink {
/// #     fn on_event(&mut self, _: &mut presence_des::Context<'_, u32>, _: u32) {}
/// # }
/// let mut sim: Simulation<u32, Sink> = Simulation::with_actor_set(1);
/// let id = sim.add_member(Sink);
/// let mut timers: TimerSlots<u8> = TimerSlots::new();
/// let h = sim.schedule_at(SimTime::from_secs_f64(1.0), id, 7);
/// assert_eq!(timers.insert(3, h), None);
/// assert_eq!(timers.remove(3), Some(h));
/// assert!(timers.is_empty());
/// ```
#[derive(Debug)]
pub struct TimerSlots<K> {
    /// The inline fast path: the first two live entries.
    slots: [Option<(K, EventHandle)>; 2],
    /// Overflow past two live entries; allocated on first spill and kept
    /// (empty) afterwards so a node that spiked once doesn't re-allocate
    /// on the next spike. Boxed so the never-spilling common case pays a
    /// single pointer of footprint, not a full inline `HashMap` header —
    /// the struct stays small enough to live inside every actor.
    #[allow(clippy::box_collection)]
    spill: Option<Box<HashMap<K, EventHandle>>>,
}

impl<K> Default for TimerSlots<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> TimerSlots<K> {
    /// Creates an empty cache (no heap allocation).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            slots: [None, None],
            spill: None,
        }
    }
}

impl<K: Copy + Eq + Hash> TimerSlots<K> {
    /// Creates an empty cache whose spill map is pre-allocated for
    /// `capacity` overflow entries. For nodes where occasional bursts past
    /// two live timers are expected (the device under overload), this
    /// moves the one-off spill allocation to construction time so the
    /// steady-state loop stays allocation-free even across its first
    /// burst.
    #[must_use]
    pub fn with_spill_capacity(capacity: usize) -> Self {
        Self {
            slots: [None, None],
            spill: Some(Box::new(HashMap::with_capacity(capacity))),
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        let inline = self.slots.iter().filter(|s| s.is_some()).count();
        inline + self.spill.as_ref().map_or(0, |m| m.len())
    }

    /// Whether no entries are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none) && self.spill.as_ref().is_none_or(|m| m.is_empty())
    }

    /// The handle stored under `key`, if any.
    #[must_use]
    pub fn get(&self, key: K) -> Option<EventHandle> {
        for (k, h) in self.slots.iter().flatten() {
            if *k == key {
                return Some(*h);
            }
        }
        self.spill.as_ref().and_then(|m| m.get(&key).copied())
    }

    /// Whether an entry is stored under `key`.
    #[must_use]
    pub fn contains(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Inserts (or replaces) the handle under `key`, returning the
    /// replaced handle if the key was already live — the same contract as
    /// `HashMap::insert`.
    pub fn insert(&mut self, key: K, handle: EventHandle) -> Option<EventHandle> {
        // Replace in place wherever the key already lives.
        for (k, h) in self.slots.iter_mut().flatten() {
            if *k == key {
                return Some(std::mem::replace(h, handle));
            }
        }
        // A key can only live in the spill if the spill is non-empty; the
        // emptiness check keeps the pre-warmed-spill common case (device
        // steady state) from paying a hash per insert.
        if let Some(spill) = &mut self.spill {
            if !spill.is_empty() {
                if let Some(old) = spill.get_mut(&key) {
                    return Some(std::mem::replace(old, handle));
                }
            }
        }
        // New key: first free inline slot, else spill.
        for slot in &mut self.slots {
            if slot.is_none() {
                *slot = Some((key, handle));
                return None;
            }
        }
        self.spill
            .get_or_insert_with(Box::default)
            .insert(key, handle)
    }

    /// Removes and returns the handle stored under `key`.
    pub fn remove(&mut self, key: K) -> Option<EventHandle> {
        for slot in &mut self.slots {
            if let Some((k, _)) = slot {
                if *k == key {
                    return slot.take().map(|(_, h)| h);
                }
            }
        }
        self.spill.as_mut().and_then(|m| m.remove(&key))
    }

    /// Removes every entry, invoking `f` on each. The inline slots drain
    /// in slot order, then the spill map in its iteration order — callers
    /// must not depend on the order (the engine's cancel operations
    /// commute, which is what this is for).
    pub fn drain(&mut self, mut f: impl FnMut(K, EventHandle)) {
        for slot in &mut self.slots {
            if let Some((k, h)) = slot.take() {
                f(k, h);
            }
        }
        if let Some(spill) = &mut self.spill {
            for (k, h) in spill.drain() {
                f(k, h);
            }
        }
    }

    /// Keeps only the entries for which `f` returns `true` (the pruning
    /// pass the device runs over its in-flight processing completions).
    pub fn retain(&mut self, mut f: impl FnMut(K, EventHandle) -> bool) {
        for slot in &mut self.slots {
            if let Some((k, h)) = slot {
                if !f(*k, *h) {
                    *slot = None;
                }
            }
        }
        // As in `insert`: an empty pre-warmed spill (the device's steady
        // state) would still walk its whole table.
        if let Some(spill) = &mut self.spill {
            if !spill.is_empty() {
                spill.retain(|&k, &mut h| f(k, h));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Actor, Context, Simulation};
    use crate::time::SimTime;

    struct Sink;
    impl Actor<u32> for Sink {
        fn on_event(&mut self, _: &mut Context<'_, u32>, _: u32) {}
    }

    /// Mints distinct handles from a throwaway simulation.
    fn handles(n: usize) -> Vec<EventHandle> {
        let mut sim: Simulation<u32, Sink> = Simulation::with_actor_set(1);
        let id = sim.add_member(Sink);
        (0..n)
            .map(|i| sim.schedule_at(SimTime::from_secs_f64(1.0 + i as f64), id, 0))
            .collect()
    }

    #[test]
    fn inline_slots_cover_two_keys_without_spill() {
        let hs = handles(3);
        let mut t: TimerSlots<u8> = TimerSlots::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(1, hs[0]), None);
        assert_eq!(t.insert(2, hs[1]), None);
        assert_eq!(t.len(), 2);
        assert!(t.spill.is_none(), "two keys must stay inline");
        assert_eq!(t.insert(1, hs[2]), Some(hs[0]), "replace returns old");
        assert_eq!(t.get(1), Some(hs[2]));
        assert_eq!(t.remove(2), Some(hs[1]));
        assert_eq!(t.remove(2), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn third_key_spills_and_behaves_like_a_map() {
        let hs = handles(4);
        let mut t: TimerSlots<u8> = TimerSlots::new();
        t.insert(1, hs[0]);
        t.insert(2, hs[1]);
        t.insert(3, hs[2]);
        assert!(t.spill.is_some(), "third key must spill");
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(3), Some(hs[2]));
        assert_eq!(t.insert(3, hs[3]), Some(hs[2]), "replace in spill");
        // Removing an inline key then inserting a fresh one reuses the
        // inline slot even while the spill holds an entry.
        assert_eq!(t.remove(1), Some(hs[0]));
        assert_eq!(t.insert(4, hs[0]), None);
        assert_eq!(t.len(), 3);
        let mut drained = Vec::new();
        t.drain(|k, h| drained.push((k, h)));
        assert_eq!(drained.len(), 3);
        assert!(t.is_empty());
    }

    #[test]
    fn retain_prunes_inline_and_spill() {
        let hs = handles(4);
        let mut t: TimerSlots<u8> = TimerSlots::new();
        for (i, &h) in hs.iter().enumerate() {
            t.insert(i as u8, h);
        }
        t.retain(|k, _| k % 2 == 0);
        assert_eq!(t.len(), 2);
        assert!(t.contains(0) && t.contains(2));
        assert!(!t.contains(1) && !t.contains(3));
    }

    #[test]
    fn with_spill_capacity_preallocates() {
        let hs = handles(3);
        let mut t: TimerSlots<u8> = TimerSlots::with_spill_capacity(8);
        assert!(t.is_empty());
        for (i, &h) in hs.iter().enumerate() {
            t.insert(i as u8, h);
        }
        assert_eq!(t.len(), 3);
        assert!(t.spill.as_ref().is_some_and(|m| m.capacity() >= 8));
    }
}

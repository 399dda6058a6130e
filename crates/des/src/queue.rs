//! The engine's event queue: a d-ary min-heap with true cancellation by
//! handle.
//!
//! The first engine used `BinaryHeap<Scheduled> + HashSet<u64>` with *lazy*
//! cancellation: a cancelled sequence number was parked in the set and the
//! event skipped when it surfaced at the heap root. That design had two
//! defects this module exists to remove:
//!
//! * cancelling a handle whose event had **already fired** inserted a
//!   tombstone that nothing could ever remove (sequence numbers are unique),
//!   so long-running simulations with retry/cancel patterns grew the set
//!   without bound;
//! * `len()` counted tombstones as live events, overstating queue depth to
//!   backpressure and diagnostic readers.
//!
//! [`EventQueue`] instead removes a cancelled event *immediately*, found
//! through the handle [`push`](EventQueue::push) returned: the slab slot the
//! payload sits in, held together with the event's seq.
//!
//! * [`pop`](EventQueue::pop) is `O(log₄ n)` and yields events in exactly
//!   the engine's documented `(time, seq)` total order — FIFO for
//!   simultaneous events, bit-for-bit identical to the old heap's order;
//! * [`cancel_slot`](EventQueue::cancel_slot) goes straight to the slot,
//!   checks that its occupant still carries the handle's seq, and repairs
//!   the heap locally (constant in the common cancel-a-pending-timeout
//!   case, `O(log n)` worst case). It retains **zero** state afterwards,
//!   and a handle whose event already fired or was cancelled is a pure
//!   no-op — also once another event has reused its slot, because that
//!   event carries another seq;
//! * [`len`](EventQueue::len) is the exact live event count.
//!
//! Layout, tuned for the pop-dominated hot path: keys live *inline* in the
//! heap (`Vec<(EventKey, u32)>`), so sift comparisons walk contiguous
//! memory exactly like a plain binary heap; payloads live in a slab
//! (`Vec<Option<T>>` with a free list) whose slots the heap references, so
//! payloads never move during sifts; and where each slot's `(key, slot)`
//! pair sits — heap position, bucket, far list — is a parallel
//! `locs: Vec<Loc>`, so the upkeep every sift level and swap-remove does is
//! one `Loc` store that never touches a payload, and a payload is written
//! into its slot once and read out of it once. The handle check reads the
//! slot's occupancy, its `Loc`, and the seq of the key the `Loc` points
//! at. No `push`, `pop`, `cancel_slot` or `reschedule_slot` does any
//! hash-map work, and the slab never grows beyond the high-water mark of
//! *concurrently live* events.
//!
//! [`cancel`](EventQueue::cancel), [`reschedule`](EventQueue::reschedule)
//! and [`contains`](EventQueue::contains) still take a bare seq. They find
//! its slot by a scan of every tier, `O(n)`, and then take the slot path.
//! They are kept only for the repo benchmark's queue kernels, which
//! address events by bare seq, and go when those kernels are re-pointed at
//! handles. The same scan checks a push or reschedule whose seq is not
//! above every seq seen so far for a duplicate; the engine never mints
//! such a seq.
//!
//! # The same-instant run
//!
//! An actor that sends "now" pushes an event at the instant just popped.
//! Through the tiers that event would sift to the heap root, take a slab
//! slot, and be popped again one dispatch later — all to order it against
//! events it is already known to follow. Such a push goes to a **run
//! buffer** instead, a `VecDeque<(EventKey, T)>` outside slab and tiers,
//! and `push` returns the one slot value the slab never mints, which names
//! the buffer. A push is eligible when
//!
//! * its time equals the run's instant — the time of the last event popped
//!   from the tiers, frozen while the buffer holds events — and
//! * its seq exceeds every seq this queue has been handed (pushes and
//!   reschedules; one `u64` high-water mark), which is what the engine's
//!   monotonic counter always mints.
//!
//! The second condition makes the buffer strictly ascending by
//! construction (the new seq exceeds the buffer's back) and proves the seq
//! is not pending anywhere, so the duplicate-seq check costs a comparison,
//! not a scan. Anything else — another instant, a seq below the mark —
//! takes the tiers as before, after the duplicate scan when the seq is
//! below the mark.
//!
//! Order is unchanged because nothing about order is assumed: `pop` and
//! `peek` compare the buffer's front with the heap root (the minimum of
//! the tiers) and take the smaller `(time, seq)` key, so an equal-time heap
//! event of smaller seq still goes first, and so does a later push into
//! the past. The buffer is one more sorted source in a two-way merge; the
//! pop sequence is the same total order on both profiles, which the
//! `event_queue_model` and `calendar_queue_model` proptests pin with half
//! their pushes landing on the instant last popped. A handle that names
//! the buffer is looked up by a binary search of it on seq, so one that
//! has fired finds nothing; a rescheduled buffer entry moves to the tiers
//! (the buffer holds one instant) and gets a slab slot. `len` counts both.
//!
//! # The vacant root
//!
//! A textbook pop moves the heap's last entry to the root and sinks it; in
//! a simulation that entry is a wake timer hundreds of milliseconds out and
//! sinks most of the way back. And the handler of the event just popped
//! usually pushes next — a delivery a fraction of a millisecond ahead, a
//! reply's send, a timeout — with a key that belongs at or near the root,
//! which an append would have to sift all the way up. So a `pop` that
//! leaves at least one entry behind repairs nothing: it marks the root
//! **vacant** (one `bool`; the popped pair stays in `heap[0]` as a stale
//! placeholder, its slot already released). Then
//!
//! * the next push routed to the heap tier is seated at the root and sifted
//!   down once — no append, no `sift_up`;
//! * anything else that needs a whole heap — the next tiered `pop`, a
//!   tiered cancel or reschedule — first calls `fill`, which seats the
//!   heap's last entry at the root: exactly the textbook repair, deferred;
//! * `peek`, and `pop`'s comparison with the run buffer, read the minimum
//!   of the root's (at most four) children — the minimum of a heap without
//!   its root — so `peek` stays `&self`, and popping from the run buffer
//!   keeps the vacancy for *that* event's handler;
//! * `len` leaves the placeholder out, `clear` resets the flag, and a pop
//!   that empties the heap leaves no vacancy (vacant ⟹ a live entry below).
//!
//! Order cannot change: `pop` still returns the minimum `(time, seq)` key
//! of a set whose keys are unique, and which entry sits where inside the
//! heap is not observable. The vacancy is visible only through time.
//!
//! Counted on one `sim-hub` round (seed 7, 3 921 223 events): all
//! 3 131 316 tiered pops leave a vacancy; 2 346 431 of them (74.9 %) are
//! filled by the handler's push, which then sinks 0.05 levels on average,
//! and 784 885 (25.1 %, the reply → in-place rearm events) by the deferred
//! repair at 1.71 levels — the textbook cost, no more. On `sim-mega`
//! (calendar profile, where most pushes route to ring buckets) 422 573 of
//! 2 783 457 vacancies (15.2 %) meet a heap-routed push, sinking 4.2 levels
//! against 3.5 for a repair: no gain there and none claimed.
//!
//! # The calendar tier ([`QueueProfile::Calendar`])
//!
//! At mega scale (millions of pending events) even a 4-ary heap pays
//! `O(log n)` with poor locality per operation. A queue built with
//! [`EventQueue::with_profile`] and a calendar profile keeps the heap as a
//! small *near* tier and adds two *future* tiers:
//!
//! * a **bucket ring**: `buckets` unordered `Vec`s, each covering one
//!   `bucket_width` span of virtual time — push/cancel are O(1) appends and
//!   swap-removes;
//! * a **far overflow** list for events beyond the ring's window.
//!
//! The tier boundary is the absolute bucket index `base`: events in buckets
//! `< base` live in the heap, `[base, base + buckets)` in the ring,
//! `≥ base + buckets` in `far`. Pops always come off the heap; when it
//! drains, the earliest non-empty bucket is migrated wholesale into the
//! heap and `base` advances past it, pulling far events whose bucket
//! entered the window along the way. Because every heap event strictly
//! precedes every ring event, which strictly precedes every far event
//! (modulo the pull-before-migrate discipline), the pop sequence is the
//! exact sorted `(time, seq)` order — **bit-for-bit identical** to the
//! plain heap profile, which the `calendar_queue_model` proptest pins.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Heap arity. A 4-ary heap halves the tree depth of a binary heap at the
/// cost of three extra (contiguous, cheap) key comparisons per level — a
/// good trade when the queue is large enough for depth to mean cache
/// misses.
const ARITY: usize = 4;

/// The slot [`EventQueue::push`] returns for an event that joined the
/// same-instant run: it has no slab slot, and slab growth never mints this
/// value.
const RUN: u32 = u32::MAX;

/// Total-order key of a queued event: virtual time first, then the global
/// schedule sequence number (FIFO tie-break within an instant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// When the event fires.
    pub time: SimTime,
    /// Schedule order, unique per queue lifetime.
    pub seq: u64,
}

/// Storage-tier selection for an [`EventQueue`], fixed at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueProfile {
    /// The 4-ary heap alone: `O(log₄ n)` pops, best for the
    /// paper-scale populations every golden scenario runs at. This is the
    /// default ([`EventQueue::new`]).
    #[default]
    Heap,
    /// Heap + calendar bucket ring + far overflow: O(1) scheduling and
    /// cancellation at millions of pending events. Pop order is identical
    /// to [`QueueProfile::Heap`].
    Calendar {
        /// Virtual-time span of one bucket. Pending events spread across
        /// roughly one bucket's worth of time collapse into a single
        /// unordered `Vec`.
        bucket_width: SimDuration,
        /// Number of buckets in the ring; the window covers
        /// `buckets × bucket_width` of virtual time ahead of the cursor.
        buckets: usize,
    },
}

impl QueueProfile {
    /// A calendar profile tuned for the mega scenarios: 1 ms buckets and a
    /// 4096-bucket ring (a ~4 s window), sized so DCPP's 21–22 ms cycle
    /// timers and sub-second wake timers land in the ring and only deeply
    /// backlogged wake times spill to the far tier.
    #[must_use]
    pub fn calendar() -> Self {
        Self::Calendar {
            bucket_width: SimDuration::from_millis(1),
            buckets: 4096,
        }
    }
}

/// Destination tier for a key, as selected by `EventQueue::route`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Heap,
    Bucket(usize),
    Far,
}

/// Where a slab slot's `(key, slot)` pair currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// Position inside `heap`.
    Heap(u32),
    /// `ring[slot][pos]` of the calendar tier.
    Bucket { slot: u32, pos: u32 },
    /// Position inside the calendar tier's far-overflow list.
    Far(u32),
}

/// The calendar (future) tiers of a [`QueueProfile::Calendar`] queue.
#[derive(Debug)]
struct Calendar {
    /// Bucket width in nanoseconds (> 0).
    width: u64,
    /// The bucket ring; slot `i` holds the unique absolute bucket index
    /// `≡ i (mod ring.len())` inside the window `[base, base + ring.len())`.
    ring: Vec<Vec<(EventKey, u32)>>,
    /// Absolute bucket index of the tier boundary: heap events have bucket
    /// index `< base`, ring events `≥ base`.
    base: u64,
    /// Live events across all ring buckets.
    in_ring: usize,
    /// Events beyond the ring window (absolute index `≥ base + ring.len()`).
    far: Vec<(EventKey, u32)>,
    /// Lower bound on the minimum bucket index in `far`; `u64::MAX` when
    /// empty. May be stale-low after removals (only costs a wasted scan).
    far_min_idx: u64,
    /// Reusable migration buffer, swapped with a bucket being drained so
    /// steady-state migration never allocates.
    scratch: Vec<(EventKey, u32)>,
}

impl Calendar {
    fn bucket_index(&self, time: SimTime) -> u64 {
        time.as_nanos() / self.width
    }

    fn window_end(&self) -> u64 {
        self.base.saturating_add(self.ring.len() as u64)
    }
}

/// A priority queue of events ordered by [`EventKey`], supporting true
/// cancellation by handle (no tombstones) and an exact live [`len`].
///
/// [`len`]: EventQueue::len
///
/// # Examples
///
/// ```
/// use presence_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs_f64(2.0), 0, "late");
/// q.push(SimTime::from_secs_f64(1.0), 1, "early");
/// let slot = q.push(SimTime::from_secs_f64(3.0), 2, "cancelled");
/// assert_eq!(q.cancel_slot(slot, 2), Some("cancelled"));
/// assert_eq!(q.cancel_slot(slot, 2), None); // true no-op, nothing retained
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.pop().map(|(_, item)| item), Some("early"));
/// assert_eq!(q.pop().map(|(_, item)| item), Some("late"));
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    /// `(key, slab slot)` pairs arranged as a 4-ary min-heap on the keys.
    heap: Vec<(EventKey, u32)>,
    /// Stable payload storage; `None` slots are parked on `free`. The
    /// containers reference slots by index, so payloads stay put while the
    /// heap sifts or buckets shuffle.
    slab: Vec<Option<T>>,
    /// `locs[slot]`: where the occupied slot's `(key, slot)` pair lives.
    /// Parallel to `slab`; stale for a free slot.
    locs: Vec<Loc>,
    /// Reusable slab slots.
    free: Vec<u32>,
    /// The calendar tiers; `None` for [`QueueProfile::Heap`].
    cal: Option<Box<Calendar>>,
    /// The same-instant run: events all at `run_time`, strictly ascending
    /// in seq, held outside slab and tiers (see the module docs).
    run: VecDeque<(EventKey, T)>,
    /// The one instant whose pushes may join `run`: the time of the last
    /// event popped from the tiers while `run` was empty, so it cannot
    /// move under the events `run` holds. `None` until the first pop.
    run_time: Option<SimTime>,
    /// Largest seq ever pushed (tiers or run). A seq above it cannot be
    /// pending anywhere, which is what lets a push skip the duplicate scan.
    max_seq: u64,
    /// The root is vacant: `heap[0]` is the stale pair of the event last
    /// popped, and every other heap entry (at least one) is live and in
    /// heap order below it (see the module docs).
    vacant: bool,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue with the default [`QueueProfile::Heap`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_profile(QueueProfile::Heap)
    }

    /// Creates an empty queue with the given storage profile.
    ///
    /// # Panics
    ///
    /// Panics if a calendar profile has a zero bucket width or fewer than
    /// two buckets.
    #[must_use]
    pub fn with_profile(profile: QueueProfile) -> Self {
        let cal = match profile {
            QueueProfile::Heap => None,
            QueueProfile::Calendar {
                bucket_width,
                buckets,
            } => {
                assert!(
                    bucket_width > SimDuration::ZERO,
                    "calendar bucket width must be positive"
                );
                assert!(buckets >= 2, "calendar ring needs at least two buckets");
                Some(Box::new(Calendar {
                    width: bucket_width.as_nanos(),
                    ring: (0..buckets).map(|_| Vec::new()).collect(),
                    base: 0,
                    in_ring: 0,
                    far: Vec::new(),
                    far_min_idx: u64::MAX,
                    scratch: Vec::new(),
                }))
            }
        };
        Self {
            heap: Vec::new(),
            slab: Vec::new(),
            locs: Vec::new(),
            free: Vec::new(),
            cal,
            run: VecDeque::new(),
            run_time: None,
            max_seq: 0,
            vacant: false,
        }
    }

    /// Number of live (non-cancelled, non-fired) events.
    #[must_use]
    pub fn len(&self) -> usize {
        let future = self
            .cal
            .as_ref()
            .map_or(0, |cal| cal.in_ring + cal.far.len());
        self.heap.len() - usize::from(self.vacant) + future + self.run.len()
    }

    /// Whether no live events are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the event [`push`](Self::push) put in `slot` as `seq` is
    /// still pending. A handle whose event fired or was cancelled answers
    /// `false`, also once another event has taken its slot.
    #[must_use]
    pub fn contains_slot(&self, slot: u32, seq: u64) -> bool {
        if slot == RUN {
            self.run_position(seq).is_some()
        } else {
            self.seq_in(slot) == Some(seq)
        }
    }

    /// Whether the event with this sequence number is still pending: a
    /// scan of every tier (see [`cancel`](Self::cancel)).
    #[must_use]
    pub fn contains(&self, seq: u64) -> bool {
        self.find(seq).is_some()
    }

    /// Key of the next event to fire, if any.
    ///
    /// With a calendar profile this is O(1) in practice: every mutating
    /// operation restores the "heap empty ⟹ queue empty" invariant by
    /// migrating eagerly, so the fallback scan over the future tiers only
    /// runs if that discipline is ever broken.
    #[must_use]
    pub fn peek(&self) -> Option<EventKey> {
        let run = self.run.front().map(|&(key, _)| key);
        let tiers = self.peek_tiers();
        match (run, tiers) {
            (Some(r), Some(t)) => Some(r.min(t)),
            (r, t) => r.or(t),
        }
    }

    /// Earliest key in the heap: the root, or while the root is vacant the
    /// least of its children (a vacant root has at least one).
    fn heap_min(&self) -> Option<EventKey> {
        if self.vacant {
            let end = (1 + ARITY).min(self.heap.len());
            self.heap[1..end].iter().map(|&(key, _)| key).min()
        } else {
            self.heap.first().map(|&(key, _)| key)
        }
    }

    /// Earliest key across heap, ring and far.
    fn peek_tiers(&self) -> Option<EventKey> {
        if let Some(key) = self.heap_min() {
            return Some(key);
        }
        let cal = self.cal.as_ref()?;
        // Fallback: the earliest non-empty bucket's minimum precedes every
        // later bucket; far events may share the window's last bucket index
        // with ring events, so take the global minimum across both.
        let mut best: Option<EventKey> = None;
        if cal.in_ring > 0 {
            for off in 0..cal.ring.len() as u64 {
                let s = ((cal.base + off) % cal.ring.len() as u64) as usize;
                if let Some(m) = cal.ring[s].iter().map(|&(k, _)| k).min() {
                    best = Some(m);
                    break;
                }
            }
        }
        for &(k, _) in &cal.far {
            if best.is_none_or(|b| k < b) {
                best = Some(k);
            }
        }
        best
    }

    /// Enqueues `item` to fire at `(time, seq)` and returns the slot it
    /// sits in: the handle [`cancel_slot`](Self::cancel_slot),
    /// [`reschedule_slot`](Self::reschedule_slot) and
    /// [`contains_slot`](Self::contains_slot) take together with `seq`.
    /// An event that joined the same-instant run gets the one reserved
    /// slot, which names the run buffer.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is already pending (sequence numbers must be unique)
    /// or the queue holds `u32::MAX` live events.
    #[inline]
    pub fn push(&mut self, time: SimTime, seq: u64, item: T) -> u32 {
        let key = EventKey { time, seq };
        if seq > self.max_seq {
            self.max_seq = seq;
            if self.run_time == Some(time) {
                // A same-instant run: above every seq pushed so far, so it
                // is not pending and sorts behind the buffer's back.
                self.run.push_back((key, item));
                return RUN;
            }
        } else {
            assert!(
                self.find(seq).is_none(),
                "duplicate event sequence number {seq}"
            );
        }
        self.push_tiers(key, item)
    }

    /// Enqueues into the slab and the tier `key.time` routes to, returning
    /// the slab slot. The caller has made sure `key.seq` is not pending.
    #[inline]
    fn push_tiers(&mut self, key: EventKey, item: T) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(item);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len())
                    .ok()
                    .filter(|&slot| slot != RUN)
                    .expect("event queue overflow");
                self.slab.push(Some(item));
                // A placeholder no container position equals, until
                // `attach` routes the key to its tier and records where.
                self.locs.push(Loc::Far(u32::MAX));
                slot
            }
        };
        self.attach(key, slot);
        if self.heap.is_empty() {
            self.ensure_front();
        }
        slot
    }

    /// Removes and returns the earliest event (ties broken FIFO by `seq`).
    #[inline]
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        if let Some(&(run_key, _)) = self.run.front() {
            if self.heap_min().is_none_or(|key| run_key < key) {
                // `run_time` stays: it is this event's own instant. So does
                // a vacant root, for this event's handler to push into.
                return self.run.pop_front();
            }
        }
        self.fill();
        if self.heap.is_empty() {
            self.ensure_front();
            if self.heap.is_empty() {
                return None;
            }
        }
        let (key, slot) = self.heap[0];
        let item = self.release(slot);
        if self.heap.len() > 1 {
            // Leave the root vacant: a handler's next push usually belongs
            // right there, and anything else seats the last entry first.
            self.vacant = true;
        } else {
            self.heap.clear();
            self.ensure_front();
        }
        if self.run.is_empty() {
            self.run_time = Some(key.time);
        }
        Some((key, item))
    }

    /// Cancels the pending event [`push`](Self::push) put in `slot` as
    /// `seq`, returning its payload. A handle whose event already fired or
    /// was cancelled returns `None` and leaves the queue untouched — also
    /// once another event has taken its slot, since the slot's occupant
    /// must carry `seq`. Nothing is retained, so cancel-after-fire cannot
    /// leak.
    pub fn cancel_slot(&mut self, slot: u32, seq: u64) -> Option<T> {
        if slot == RUN {
            let pos = self.run_position(seq)?;
            return self.run.remove(pos).map(|(_, item)| item);
        }
        if self.seq_in(slot) != Some(seq) {
            return None;
        }
        self.fill();
        self.detach(self.locs[slot as usize]);
        let item = self.release(slot);
        if self.heap.is_empty() {
            self.ensure_front();
        }
        Some(item)
    }

    /// [`cancel_slot`](Self::cancel_slot) for a caller that kept only the
    /// sequence number: the slot is found by a scan of every tier, `O(n)`.
    /// Kept, with the scans behind [`reschedule`](Self::reschedule) and
    /// [`contains`](Self::contains), only for the repo benchmark's queue
    /// kernels, which address events by bare seq; the benchmark change
    /// that re-points those kernels at handles deletes all three.
    pub fn cancel(&mut self, seq: u64) -> Option<T> {
        let slot = self.find(seq)?;
        self.cancel_slot(slot, seq)
    }

    /// Reschedules the pending event [`push`](Self::push) put in `slot` as
    /// `seq` to fire at `(new_time, new_seq)`, in place: the payload stays
    /// in its slab slot and the heap entry's key is rewritten and
    /// re-seated with a single sift. Compared to `cancel` + `push` this
    /// skips the slab free/realloc and one full heap remove/insert pair —
    /// the win behind the engine's cancel-then-rearm timer fast path. (An
    /// event waiting in the same-instant run has no slot or heap entry yet
    /// and is moved to the tiers.)
    ///
    /// Returns the event's slot from now on — unchanged, except for an
    /// event that left the run — and a mutable reference to the (still in
    /// place) payload, so the caller can rewrite it for the new firing
    /// (e.g. a rearmed timer carrying a fresh token). A stale handle, as
    /// for [`cancel_slot`](Self::cancel_slot), returns `None` and leaves
    /// the queue untouched.
    ///
    /// # Panics
    ///
    /// Panics if `new_seq` is already pending (sequence numbers must be
    /// unique, exactly as for [`push`](EventQueue::push)).
    pub fn reschedule_slot(
        &mut self,
        slot: u32,
        seq: u64,
        new_time: SimTime,
        new_seq: u64,
    ) -> Option<(u32, &mut T)> {
        // Every check comes before the first mutation, so a caught panic
        // leaves `seq` pending and findable. A `new_seq` above every seq
        // pushed so far (what the engine always mints) needs no scan.
        if !self.contains_slot(slot, seq) {
            return None;
        }
        assert!(
            new_seq > self.max_seq || new_seq == seq || self.find(new_seq).is_none(),
            "duplicate event sequence number {new_seq}"
        );
        self.max_seq = self.max_seq.max(new_seq);
        let new_key = EventKey {
            time: new_time,
            seq: new_seq,
        };
        let slot = if slot == RUN {
            // A run entry moves to the tiers: the buffer holds one instant.
            let pos = self.run_position(seq).expect("checked above");
            let (_, item) = self.run.remove(pos).expect("checked above");
            self.push_tiers(new_key, item)
        } else {
            self.fill();
            let loc = self.locs[slot as usize];
            if let (Loc::Heap(pos), Route::Heap) = (loc, self.route(new_time)) {
                // Fast path: the key stays in the heap and re-seats with a
                // single sift — the engine's cancel-then-rearm timer pattern.
                let heap_pos = pos as usize;
                let old_key = self.heap[heap_pos].0;
                self.heap[heap_pos].0 = new_key;
                if new_key < old_key {
                    self.sift_up(heap_pos);
                } else {
                    self.sift_down(heap_pos);
                }
            } else {
                self.detach(loc);
                self.attach(new_key, slot);
                if self.heap.is_empty() {
                    self.ensure_front();
                }
            }
            slot
        };
        let item = self.slab[slot as usize]
            .as_mut()
            .expect("rescheduled slot is occupied");
        Some((slot, item))
    }

    /// [`reschedule_slot`](Self::reschedule_slot) by bare sequence number:
    /// a scan, kept only for the benchmark (see [`cancel`](Self::cancel)).
    ///
    /// # Panics
    ///
    /// Panics if `new_seq` is already pending.
    pub fn reschedule(&mut self, seq: u64, new_time: SimTime, new_seq: u64) -> Option<&mut T> {
        let slot = self.find(seq)?;
        self.reschedule_slot(slot, seq, new_time, new_seq)
            .map(|(_, item)| item)
    }

    /// Drops every pending event.
    pub fn clear(&mut self) {
        self.run.clear();
        self.run_time = None;
        self.max_seq = 0;
        self.vacant = false;
        self.heap.clear();
        self.slab.clear();
        self.locs.clear();
        self.free.clear();
        if let Some(cal) = self.cal.as_mut() {
            for bucket in &mut cal.ring {
                bucket.clear();
            }
            cal.base = 0;
            cal.in_ring = 0;
            cal.far.clear();
            cal.far_min_idx = u64::MAX;
        }
    }

    /// Position of `seq` in the run buffer (sorted by seq: binary search).
    fn run_position(&self, seq: u64) -> Option<usize> {
        if self.run.is_empty() {
            return None;
        }
        self.run.binary_search_by_key(&seq, |(key, _)| key.seq).ok()
    }

    /// The seq of the event occupying slab `slot`, `None` for a free or
    /// never-minted slot: the check that keeps a stale handle from reaching
    /// the event that reused its slot.
    #[inline]
    fn seq_in(&self, slot: u32) -> Option<u64> {
        self.slab.get(slot as usize)?.as_ref()?;
        let pair = match self.locs[slot as usize] {
            Loc::Heap(pos) => self.heap[pos as usize],
            Loc::Bucket { slot: s, pos } => {
                self.cal.as_ref().expect("bucket loc implies calendar").ring[s as usize]
                    [pos as usize]
            }
            Loc::Far(pos) => self.cal.as_ref().expect("far loc implies calendar").far[pos as usize],
        };
        Some(pair.0.seq)
    }

    /// The slot of the pending event `seq` — the run's reserved slot for a
    /// run entry — by a scan of every tier; `None` when it is not pending.
    fn find(&self, seq: u64) -> Option<u32> {
        let live = &self.heap[usize::from(self.vacant)..];
        let future = self
            .cal
            .iter()
            .flat_map(|cal| cal.ring.iter().flatten().chain(&cal.far));
        live.iter()
            .chain(future)
            .find(|(key, _)| key.seq == seq)
            .map(|&(_, slot)| slot)
            .or_else(|| self.run_position(seq).map(|_| RUN))
    }

    /// Which tier a key scheduled at `time` belongs to right now.
    fn route(&self, time: SimTime) -> Route {
        match &self.cal {
            None => Route::Heap,
            Some(cal) => {
                let idx = cal.bucket_index(time);
                if idx < cal.base {
                    Route::Heap
                } else if idx < cal.window_end() {
                    Route::Bucket((idx % cal.ring.len() as u64) as usize)
                } else {
                    Route::Far
                }
            }
        }
    }

    /// Inserts `(key, slot)` into the tier [`route`](Self::route) selects,
    /// recording the location in `locs`.
    fn attach(&mut self, key: EventKey, slot: u32) {
        match self.route(key.time) {
            // One sift, no append: a push right after a pop is usually
            // near-term and barely sinks.
            Route::Heap if self.vacant => self.seat_at_root((key, slot)),
            Route::Heap => {
                let pos = u32::try_from(self.heap.len()).expect("event queue overflow");
                self.locs[slot as usize] = Loc::Heap(pos);
                self.heap.push((key, slot));
                self.sift_up(pos as usize);
            }
            Route::Bucket(s) => {
                let cal = self.cal.as_mut().expect("bucket route implies calendar");
                let pos = u32::try_from(cal.ring[s].len()).expect("event queue overflow");
                cal.ring[s].push((key, slot));
                cal.in_ring += 1;
                self.locs[slot as usize] = Loc::Bucket {
                    slot: s as u32,
                    pos,
                };
            }
            Route::Far => {
                let cal = self.cal.as_mut().expect("far route implies calendar");
                let pos = u32::try_from(cal.far.len()).expect("event queue overflow");
                let idx = cal.bucket_index(key.time);
                cal.far.push((key, slot));
                cal.far_min_idx = cal.far_min_idx.min(idx);
                self.locs[slot as usize] = Loc::Far(pos);
            }
        }
    }

    /// Removes the `(key, slot)` pair at `loc` from its container and
    /// repairs the container. The slab is left untouched.
    fn detach(&mut self, loc: Loc) {
        match loc {
            Loc::Heap(pos) => self.remove_heap_entry(pos as usize),
            Loc::Bucket { slot: s, pos } => {
                let cal = self.cal.as_mut().expect("bucket loc implies calendar");
                let bucket = &mut cal.ring[s as usize];
                bucket.swap_remove(pos as usize);
                cal.in_ring -= 1;
                if let Some(&(_, moved)) = bucket.get(pos as usize) {
                    self.locs[moved as usize] = Loc::Bucket { slot: s, pos };
                }
            }
            Loc::Far(pos) => {
                let cal = self.cal.as_mut().expect("far loc implies calendar");
                cal.far.swap_remove(pos as usize);
                // far_min_idx may now be stale-low; that only costs a
                // wasted pull scan, never correctness.
                if let Some(&(_, moved)) = cal.far.get(pos as usize) {
                    self.locs[moved as usize] = Loc::Far(pos);
                }
            }
        }
    }

    /// Frees the slab slot of a removed event, returning its payload.
    #[inline]
    fn release(&mut self, slot: u32) -> T {
        let item = self.slab[slot as usize]
            .take()
            .expect("removed slab slot is occupied");
        self.free.push(slot);
        item
    }

    /// Restores the calendar invariant "heap empty ⟹ queue empty" by
    /// migrating the earliest non-empty bucket into the heap, rebasing the
    /// window from the far tier when the whole ring is empty, and pulling
    /// far events whose bucket slides into the window as `base` advances
    /// (so `base` never passes an event still parked in `far`).
    fn ensure_front(&mut self) {
        if !self.heap.is_empty() {
            return;
        }
        let Some(cal) = self.cal.as_mut() else {
            return;
        };
        if cal.in_ring == 0 && cal.far.is_empty() {
            return;
        }
        let ring_len = cal.ring.len() as u64;
        if cal.in_ring == 0 {
            // Ring exhausted: rebase the window onto the earliest far
            // bucket. The heap is empty, so moving `base` backwards (far
            // events may predate the old window after it slid) is safe.
            let mut min_idx = u64::MAX;
            for &(key, _) in &cal.far {
                min_idx = min_idx.min(cal.bucket_index(key.time));
            }
            cal.base = min_idx;
            Self::pull_far(cal, &mut self.locs);
            debug_assert!(cal.in_ring > 0, "rebase pulled nothing into the ring");
        }
        let s = loop {
            if cal.far_min_idx < cal.window_end() {
                Self::pull_far(cal, &mut self.locs);
            }
            let s = (cal.base % ring_len) as usize;
            if !cal.ring[s].is_empty() {
                break s;
            }
            cal.base += 1;
        };
        cal.base += 1;
        let mut scratch = std::mem::take(&mut cal.scratch);
        std::mem::swap(&mut cal.ring[s], &mut scratch);
        cal.in_ring -= scratch.len();
        for (key, slot) in scratch.drain(..) {
            let pos = u32::try_from(self.heap.len()).expect("event queue overflow");
            self.locs[slot as usize] = Loc::Heap(pos);
            self.heap.push((key, slot));
            self.sift_up(pos as usize);
        }
        self.cal.as_mut().expect("calendar profile").scratch = scratch;
    }

    /// Moves every far event whose bucket fell inside the ring window into
    /// its bucket, and recomputes the exact far minimum.
    fn pull_far(cal: &mut Calendar, locs: &mut [Loc]) {
        let ring_len = cal.ring.len() as u64;
        let window_end = cal.window_end();
        let mut min_out = u64::MAX;
        let mut i = 0;
        while i < cal.far.len() {
            let (key, slot) = cal.far[i];
            let idx = key.time.as_nanos() / cal.width;
            if idx < window_end {
                debug_assert!(idx >= cal.base, "far event behind the window base");
                cal.far.swap_remove(i);
                if let Some(&(_, moved)) = cal.far.get(i) {
                    locs[moved as usize] = Loc::Far(i as u32);
                }
                let s = (idx % ring_len) as usize;
                let pos = u32::try_from(cal.ring[s].len()).expect("event queue overflow");
                cal.ring[s].push((key, slot));
                cal.in_ring += 1;
                locs[slot as usize] = Loc::Bucket {
                    slot: s as u32,
                    pos,
                };
            } else {
                min_out = min_out.min(idx);
                i += 1;
            }
        }
        cal.far_min_idx = min_out;
    }

    /// Seats the heap's last entry at a vacant root — the repair `pop`
    /// deferred — so the heap is whole again. No-op when the root is live.
    fn fill(&mut self) {
        if self.vacant {
            let last = self.heap.pop().expect("a vacant root has entries below");
            self.seat_at_root(last);
        }
    }

    /// Ends a vacancy: `pair` takes the root and sinks into place.
    fn seat_at_root(&mut self, pair: (EventKey, u32)) {
        self.vacant = false;
        self.heap[0] = pair;
        self.set_heap_pos(0);
        self.sift_down(0);
    }

    /// Removes the heap entry at `heap_pos` and repairs the heap. The slab
    /// is left untouched.
    fn remove_heap_entry(&mut self, heap_pos: usize) {
        let last = self.heap.len() - 1;
        self.heap.swap(heap_pos, last);
        self.heap.pop().expect("heap non-empty");
        // If the removed entry was not the heap's last, a filler from the
        // bottom now sits at `heap_pos` and must be re-seated.
        if heap_pos < self.heap.len() {
            self.set_heap_pos(heap_pos);
            // The filler came from the bottom, so it usually sinks; it can
            // need to rise when the removed entry sat below the filler's
            // correct position (possible for interior removals).
            let settled = self.sift_down(heap_pos);
            if settled == heap_pos {
                self.sift_up(heap_pos);
            }
        }
    }

    /// Records `heap[heap_pos]`'s new position in `locs`.
    fn set_heap_pos(&mut self, heap_pos: usize) {
        let slot = self.heap[heap_pos].1;
        self.locs[slot as usize] = Loc::Heap(heap_pos as u32);
    }

    /// Hole-based sift: the moving element is held aside while displaced
    /// elements shift into the hole, so each level costs one heap write
    /// and one `locs` store instead of a full swap's two of each.
    fn sift_up(&mut self, start: usize) -> usize {
        let moving = self.heap[start];
        let mut pos = start;
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if moving.0 < self.heap[parent].0 {
                self.heap[pos] = self.heap[parent];
                self.set_heap_pos(pos);
                pos = parent;
            } else {
                break;
            }
        }
        if pos != start {
            self.heap[pos] = moving;
            self.set_heap_pos(pos);
        }
        pos
    }

    fn sift_down(&mut self, start: usize) -> usize {
        let moving = self.heap[start];
        let mut pos = start;
        loop {
            let first_child = pos * ARITY + 1;
            if first_child >= self.heap.len() {
                break;
            }
            let end = (first_child + ARITY).min(self.heap.len());
            let mut best = first_child;
            let mut best_key = self.heap[first_child].0;
            for child in (first_child + 1)..end {
                let key = self.heap[child].0;
                if key < best_key {
                    best = child;
                    best_key = key;
                }
            }
            if best_key < moving.0 {
                self.heap[pos] = self.heap[best];
                self.set_heap_pos(pos);
                pos = best;
            } else {
                break;
            }
        }
        if pos != start {
            self.heap[pos] = moving;
            self.set_heap_pos(pos);
        }
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(nanos: u64) -> SimTime {
        SimTime::from_nanos(nanos)
    }

    /// Checks every structural invariant the queue relies on, across the
    /// run buffer and all three tiers.
    fn assert_invariants<T>(q: &EventQueue<T>) {
        use std::collections::HashSet;
        let mut seqs = HashSet::new();
        for (pos, &(key, _)) in q.run.iter().enumerate() {
            assert_eq!(Some(key.time), q.run_time, "run entry off its instant");
            assert!(key.seq <= q.max_seq, "max_seq below a run entry");
            assert!(seqs.insert(key.seq), "seq {} pending twice", key.seq);
            if pos > 0 {
                assert!(q.run[pos - 1].0.seq < key.seq, "run not ascending");
            }
        }
        assert_eq!(q.locs.len(), q.slab.len(), "locs not parallel to slab");
        assert!(
            q.slab.len() <= RUN as usize,
            "slab minted the run's reserved slot"
        );
        // Free slots hold nothing and are listed once; every occupied
        // slot's `locs` entry leads to a container entry that holds a key
        // and names the slot back.
        let mut free = vec![false; q.slab.len()];
        for &slot in &q.free {
            assert!(q.slab[slot as usize].is_none(), "free slot occupied");
            assert!(
                !std::mem::replace(&mut free[slot as usize], true),
                "slot freed twice"
            );
        }
        for (slot, entry) in q.slab.iter().enumerate() {
            assert_eq!(
                entry.is_none(),
                free[slot],
                "slot {slot} neither free nor occupied"
            );
            if entry.is_some() {
                let seq = q.seq_in(slot as u32).expect("occupied slot holds a key");
                assert_eq!(
                    q.find(seq),
                    Some(slot as u32),
                    "slot {slot} not where its loc says"
                );
            }
        }
        let live = q.slab.len() - q.free.len();
        // The recorded location of a slot a container holds.
        let loc = |slot: u32, key: EventKey, seqs: &mut HashSet<u64>| {
            assert_ne!(slot, RUN, "container holds the run's reserved slot");
            assert!(
                q.slab[slot as usize].is_some(),
                "container holds a free slot"
            );
            assert!(key.seq <= q.max_seq, "max_seq below a tiered entry");
            assert!(seqs.insert(key.seq), "seq {} pending twice", key.seq);
            q.locs[slot as usize]
        };
        // A vacant root holds the stale pair of the event last popped: its
        // slot is released, and it bounds nothing below it.
        let root = usize::from(q.vacant);
        assert!(
            !q.vacant || q.heap.len() > 1,
            "vacant root with no live entry below"
        );
        for (pos, &(key, slot)) in q.heap.iter().enumerate().skip(root) {
            assert_eq!(
                loc(slot, key, &mut seqs),
                Loc::Heap(pos as u32),
                "stale heap loc"
            );
            if pos > 0 {
                let parent = (pos - 1) / ARITY;
                assert!(
                    parent < root || q.heap[parent].0 <= key,
                    "heap property violated"
                );
            }
        }
        let Some(cal) = &q.cal else {
            assert_eq!(q.len(), seqs.len(), "len out of sync");
            assert_eq!(q.heap.len() - root, live, "live slab entries out of sync");
            return;
        };
        let ring_len = cal.ring.len() as u64;
        for &(key, _) in &q.heap[root..] {
            assert!(
                cal.bucket_index(key.time) < cal.base,
                "heap event at or past the window base"
            );
        }
        let mut in_ring = 0;
        for (s, bucket) in cal.ring.iter().enumerate() {
            for (pos, &(key, slot)) in bucket.iter().enumerate() {
                assert_eq!(
                    loc(slot, key, &mut seqs),
                    Loc::Bucket {
                        slot: s as u32,
                        pos: pos as u32
                    },
                    "stale bucket loc"
                );
                let idx = cal.bucket_index(key.time);
                assert!(
                    idx >= cal.base && idx < cal.window_end(),
                    "ring event outside the window"
                );
                assert_eq!((idx % ring_len) as usize, s, "event in the wrong bucket");
                in_ring += 1;
            }
        }
        assert_eq!(in_ring, cal.in_ring, "ring count out of sync");
        for (pos, &(key, slot)) in cal.far.iter().enumerate() {
            assert_eq!(
                loc(slot, key, &mut seqs),
                Loc::Far(pos as u32),
                "stale far loc"
            );
            assert!(
                cal.bucket_index(key.time) >= cal.base,
                "far event behind the window base"
            );
            assert!(
                cal.bucket_index(key.time) >= cal.far_min_idx,
                "far_min_idx overshoots"
            );
        }
        assert_eq!(q.len(), seqs.len(), "len out of sync");
        assert_eq!(q.len() - q.run.len(), live, "live slab entries out of sync");
        if cal.in_ring + cal.far.len() > 0 {
            assert!(
                !q.heap.is_empty(),
                "eager migration invariant broken: empty heap with future events"
            );
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(t(3), 0, 'c');
        q.push(t(1), 1, 'a');
        q.push(t(2), 2, 'b');
        q.push(t(1), 3, 'x'); // same instant as seq 1 → fires after it
        assert_invariants(&q);
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, c)| c)).collect();
        assert_eq!(order, vec!['a', 'x', 'b', 'c']);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(t(5), 0, ());
        q.push(t(2), 1, ());
        assert_eq!(q.peek().map(|k| k.seq), Some(1));
        let (key, ()) = q.pop().unwrap();
        assert_eq!(key.seq, 1);
        assert_eq!(key.time, t(2));
    }

    #[test]
    fn cancel_is_exact_and_repeatable() {
        let mut q = EventQueue::new();
        q.push(t(1), 0, "keep");
        q.push(t(2), 1, "drop");
        assert_eq!(q.cancel(1), Some("drop"));
        assert_eq!(q.cancel(1), None, "double cancel");
        assert_eq!(q.cancel(99), None, "never-scheduled seq");
        assert_eq!(q.len(), 1);
        assert_invariants(&q);
        assert_eq!(q.pop().map(|(_, s)| s), Some("keep"));
        assert_eq!(q.cancel(0), None, "cancel after fire");
        assert_invariants(&q);
    }

    #[test]
    fn interior_cancel_keeps_order() {
        // Cancel entries at every position of a populated heap; the
        // survivors must still pop in key order.
        for cancelled in 0..32u64 {
            let mut q = EventQueue::new();
            for seq in 0..32u64 {
                // Scrambled times, with collisions, to exercise ties.
                q.push(t((seq * 7) % 11), seq, seq);
            }
            assert_eq!(q.cancel(cancelled), Some(cancelled));
            assert_invariants(&q);
            let mut popped = Vec::new();
            let mut last_key = None;
            while let Some((key, seq)) = q.pop() {
                if let Some(prev) = last_key {
                    assert!(prev < key, "order violated after cancelling {cancelled}");
                }
                last_key = Some(key);
                popped.push(seq);
            }
            assert_eq!(popped.len(), 31);
            assert!(!popped.contains(&cancelled));
        }
    }

    /// Satellite regression: a million fire-then-cancel cycles must retain
    /// nothing — with the lazy-tombstone design this grew the cancelled set
    /// by one entry per cycle, forever.
    #[test]
    fn million_fire_then_cancel_cycles_retain_nothing() {
        let mut q = EventQueue::new();
        for seq in 0..1_000_000u64 {
            let slot = q.push(t(seq), seq, ());
            let (key, ()) = q.pop().expect("just pushed");
            assert_eq!(key.seq, seq);
            // The event already "fired" (was popped): cancel is a no-op.
            assert_eq!(q.cancel_slot(slot, seq), None);
            assert_eq!(q.cancel(seq), None);
        }
        assert_eq!(q.len(), 0);
        assert!(q.slab.len() <= 1, "slab grew to {}", q.slab.len());
        assert!(q.free.len() <= 1, "free list grew to {}", q.free.len());
        assert!(q.heap.capacity() <= 4, "heap storage grew");
    }

    /// The slab high-water mark tracks *concurrently live* events, not
    /// total throughput: heavy schedule/cancel churn reuses slots.
    #[test]
    fn slab_reuses_slots_under_churn() {
        let mut q = EventQueue::new();
        let mut seq = 0u64;
        for round in 0..10_000u64 {
            // Ten short-lived events per round, all cancelled.
            let base = seq;
            for _ in 0..10 {
                q.push(t(round + 100), seq, ());
                seq += 1;
            }
            for s in base..seq {
                assert_eq!(q.cancel(s), Some(()));
            }
        }
        assert_eq!(q.len(), 0);
        assert!(q.slab.len() <= 10, "slab grew to {}", q.slab.len());
        assert_invariants(&q);
    }

    /// A slot handle is checked against the seq it was minted with: once
    /// its event fired or was cancelled and another event took the slot,
    /// the old handle reaches nothing.
    #[test]
    fn stale_slot_handles_miss_the_slots_new_occupant() {
        for calendar in [false, true] {
            let mut q = if calendar {
                small_calendar()
            } else {
                EventQueue::new()
            };
            let a = q.push(t(1_000), 0, 'a');
            let c = q.push(t(2_000), 1, 'c');
            assert_eq!(q.cancel_slot(c, 1), Some('c'));
            assert_eq!(q.pop().map(|(_, x)| x), Some('a'));
            let b = q.push(t(3_000), 2, 'b');
            let d = q.push(t(4_000), 3, 'd');
            let (mut old, mut new) = ([a, c], [b, d]);
            old.sort_unstable();
            new.sort_unstable();
            assert_eq!(old, new, "the new events took the freed slots");
            for (slot, seq) in [(a, 0), (c, 1)] {
                assert!(!q.contains_slot(slot, seq));
                assert_eq!(q.cancel_slot(slot, seq), None);
                assert!(q.reschedule_slot(slot, seq, t(9_000), 10).is_none());
            }
            assert_invariants(&q);
            assert!(q.contains_slot(b, 2) && q.contains_slot(d, 3));
            let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, x)| x)).collect();
            assert_eq!(order, vec!['b', 'd']);
        }
    }

    #[test]
    fn reschedule_moves_in_both_directions() {
        let mut q = EventQueue::new();
        for seq in 0..8u64 {
            q.push(t(10 + seq), seq, seq);
        }
        // Pull seq 6 to the front (decrease-key)…
        assert!(q.reschedule(6, t(1), 100).is_some());
        // …and push seq 0 to the back (increase-key).
        assert!(q.reschedule(0, t(99), 101).is_some());
        assert_invariants(&q);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, s)| s)).collect();
        assert_eq!(order, vec![6, 1, 2, 3, 4, 5, 7, 0]);
    }

    #[test]
    fn reschedule_reuses_the_payload_slot() {
        let mut q = EventQueue::new();
        q.push(t(5), 0, "timer");
        let slab_before = q.slab.len();
        for round in 0..1_000u64 {
            assert!(q.reschedule(round, t(5 + round), round + 1).is_some());
        }
        assert_eq!(q.slab.len(), slab_before, "reschedule must not grow slab");
        assert!(q.free.is_empty());
        assert_invariants(&q);
        assert_eq!(q.pop().map(|(k, s)| (k.seq, s)), Some((1_000, "timer")));
    }

    #[test]
    fn reschedule_ties_break_by_new_seq() {
        let mut q = EventQueue::new();
        q.push(t(5), 0, 'a');
        q.push(t(5), 1, 'b');
        // Rearm 'a' for the same instant with a fresh (larger) seq: it must
        // now fire after 'b', exactly as cancel + re-push would order it.
        assert!(q.reschedule(0, t(5), 2).is_some());
        assert_invariants(&q);
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, c)| c)).collect();
        assert_eq!(order, vec!['b', 'a']);
    }

    #[test]
    fn reschedule_unknown_seq_is_noop() {
        let mut q = EventQueue::new();
        q.push(t(1), 0, ());
        let (key, ()) = q.pop().unwrap();
        assert!(q.reschedule(key.seq, t(2), 10).is_none(), "already fired");
        assert!(q.reschedule(99, t(2), 11).is_none(), "never scheduled");
        assert!(q.is_empty());
        assert_invariants(&q);
    }

    #[test]
    #[should_panic(expected = "duplicate event sequence number")]
    fn reschedule_to_pending_seq_panics() {
        let mut q = EventQueue::new();
        q.push(t(1), 0, ());
        q.push(t(2), 1, ());
        let _ = q.reschedule(0, t(3), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate event sequence number")]
    fn duplicate_seq_panics() {
        let mut q = EventQueue::new();
        q.push(t(1), 7, ());
        q.push(t(2), 7, ());
    }

    #[test]
    fn duplicate_seq_panic_leaves_queue_consistent() {
        let mut q = EventQueue::new();
        q.push(t(1), 7, 'a');
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.push(t(2), 7, 'b')));
        assert!(panicked.is_err());
        assert_invariants(&q);
        assert_eq!(q.len(), 1);
        assert_eq!(q.cancel(7), Some('a'), "original event must survive");
        assert_invariants(&q);
    }

    #[test]
    fn reschedule_duplicate_panic_leaves_queue_consistent() {
        let mut q = EventQueue::new();
        q.push(t(1), 0, 'a');
        q.push(t(2), 1, 'b');
        q.push(t(2), 2, 'c');
        assert_eq!(q.pop().map(|(_, c)| c), Some('a'));
        q.push(t(1), 3, 'r'); // joins the run
        for (seq, survivor) in [(1, 'b'), (3, 'r')] {
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = q.reschedule(seq, t(9), 2);
            }));
            assert!(panicked.is_err());
            assert_invariants(&q);
            assert_eq!(q.len(), 3);
            assert!(q.contains(seq), "entry {seq} vanished from lookup");
            assert_eq!(q.cancel(seq), Some(survivor), "original must survive");
            assert_invariants(&q);
            q.push(t(5), 10 + seq, survivor);
        }
    }

    /// Every payload that enters the queue is dropped exactly once, on
    /// whichever path it leaves by: handed back by `pop` or `cancel`,
    /// discarded by a caught duplicate-seq panic, cleared, or dropped with
    /// the queue itself — on both profiles, from every tier.
    #[test]
    fn every_payload_is_dropped_exactly_once() {
        use std::cell::Cell;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::rc::Rc;

        struct Counted(Rc<Cell<usize>>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        struct Tally {
            drops: Rc<Cell<usize>>,
            pushed: usize,
        }
        impl Tally {
            fn item(&mut self) -> Counted {
                self.pushed += 1;
                Counted(Rc::clone(&self.drops))
            }
            fn check(&self, q: &EventQueue<Counted>) {
                assert_invariants(q);
                assert_eq!(
                    self.drops.get(),
                    self.pushed - q.len(),
                    "drops ≠ pushed − len"
                );
            }
        }
        fn far_and_ring(q: &EventQueue<Counted>) -> (usize, usize) {
            q.cal
                .as_ref()
                .map_or((0, 0), |cal| (cal.far.len(), cal.in_ring))
        }

        for calendar in [false, true] {
            let mut tally = Tally {
                drops: Rc::new(Cell::new(0)),
                pushed: 0,
            };
            let mut q = if calendar {
                small_calendar()
            } else {
                EventQueue::new()
            };
            // Heap (the calendar migrates bucket 5 and moves its base to
            // 6), ring, far, and heap again (bucket 5 is behind the base).
            for (time, seq) in [(5_000, 0), (8_000, 1), (90_000, 2), (5_000, 3)] {
                q.push(t(time), seq, tally.item());
                tally.check(&q);
            }
            assert_eq!(far_and_ring(&q), if calendar { (1, 1) } else { (0, 0) });
            drop(q.pop().expect("four pending"));
            tally.check(&q);
            // The instant just popped, fresh seqs: the run buffer.
            for seq in [4, 5] {
                q.push(t(5_000), seq, tally.item());
                tally.check(&q);
            }
            assert_eq!(q.run.len(), 2);
            // Cancel from the run, then from the ring (heap profile: heap).
            for seq in [5, 1] {
                drop(q.cancel(seq).expect("pending"));
                tally.check(&q);
            }
            // In place; far → ring (heap profile: in place); run → tiers.
            for (seq, time, new_seq) in [(3, 5_500, 6), (2, 9_000, 7), (4, 9_500, 8)] {
                assert!(q.reschedule(seq, t(time), new_seq).is_some());
                tally.check(&q);
            }
            assert!(q.run.is_empty());
            // A duplicate of a tiered seq, then of a run seq.
            q.push(t(5_000), 9, tally.item());
            assert_eq!(q.run.len(), 1);
            for seq in [7, 9] {
                let item = tally.item();
                let panicked = catch_unwind(AssertUnwindSafe(|| q.push(t(20_000), seq, item)));
                assert!(panicked.is_err());
                tally.check(&q);
            }
            drop(q.pop().expect("pending"));
            tally.check(&q);
            q.clear();
            tally.check(&q);
            assert_eq!(tally.drops.get(), tally.pushed);
            // Refill every tier and drop the queue whole.
            for (time, seq) in [(100, 0), (3_000, 1), (80_000, 2)] {
                q.push(t(time), seq, tally.item());
            }
            drop(q.pop().expect("three pending"));
            q.push(t(100), 3, tally.item());
            assert_eq!(q.run.len(), 1);
            tally.check(&q);
            drop(q);
            assert_eq!(tally.drops.get(), tally.pushed, "dropping the queue");
        }
    }

    // -- same-instant run ---------------------------------------------------

    /// A queue that has just popped an event at `t(10)`, so pushes at
    /// `t(10)` with fresh seqs are run-eligible; `t(10)`/seq 1 and
    /// `t(20)`/seq 2 are still in the heap.
    fn mid_instant() -> EventQueue<char> {
        let mut q = EventQueue::new();
        q.push(t(10), 0, 'p');
        q.push(t(10), 1, 'h');
        q.push(t(20), 2, 'l');
        assert_eq!(q.pop().map(|(_, c)| c), Some('p'));
        q
    }

    #[test]
    fn same_instant_push_bypasses_slab_index_and_heap() {
        let mut q = mid_instant();
        let (slab, free, heap) = (q.slab.len(), q.free.len(), q.heap.len());
        assert_eq!(q.push(t(10), 3, 'x'), RUN);
        assert_eq!(q.push(t(10), 4, 'y'), RUN);
        assert_eq!(q.run.len(), 2);
        assert_eq!(
            (q.slab.len(), q.free.len(), q.heap.len()),
            (slab, free, heap)
        );
        assert_eq!(q.len(), 4);
        assert!(q.contains(3) && q.contains(4) && !q.contains(5));
        assert_invariants(&q);
        // The equal-time heap entry has the smaller seq and goes first.
        assert_eq!(q.peek().map(|k| k.seq), Some(1));
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, c)| c)).collect();
        assert_eq!(order, vec!['h', 'x', 'y', 'l']);
        assert_invariants(&q);
    }

    #[test]
    fn only_the_popped_instant_and_fresh_seqs_join_the_run() {
        let mut q = mid_instant();
        q.push(t(11), 3, 'a'); // another instant
        assert!(q.run.is_empty());
        q.push(t(10), 5, 'b');
        assert_eq!(q.run.len(), 1);
        q.push(t(10), 4, 'c'); // seq below one already pushed: heap
        assert_eq!(q.run.len(), 1);
        q.push(t(5), 6, 'd'); // into the past: heap, pops before the run
        assert_invariants(&q);
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, c)| c)).collect();
        assert_eq!(order, vec!['d', 'h', 'c', 'b', 'a', 'l']);
    }

    #[test]
    fn run_entries_cancel_and_reschedule() {
        let mut q = mid_instant();
        for seq in 3..8 {
            q.push(t(10), seq, 'r');
        }
        assert_eq!(q.cancel(5), Some('r'));
        assert_eq!(q.cancel(5), None, "double cancel");
        assert_eq!(q.len(), 6);
        assert_invariants(&q);
        // A rescheduled run entry moves to the tiers, even at its own time.
        *q.reschedule(4, t(10), 8).expect("pending") = 's';
        *q.reschedule(6, t(15), 9).expect("pending") = 'u';
        assert!(q.reschedule(4, t(10), 10).is_none(), "old seq is gone");
        assert_eq!(q.run.len(), 2);
        assert_invariants(&q);
        let order: Vec<(u64, char)> =
            std::iter::from_fn(|| q.pop().map(|(k, c)| (k.seq, c))).collect();
        assert_eq!(
            order,
            vec![(1, 'h'), (3, 'r'), (7, 'r'), (8, 's'), (9, 'u'), (2, 'l')]
        );
    }

    #[test]
    fn run_survives_a_pop_of_an_earlier_instant() {
        let mut q = mid_instant();
        q.push(t(10), 3, 'x');
        q.push(t(4), 4, 'e'); // into the past
        assert_eq!(q.pop().map(|(_, c)| c), Some('e'));
        // The run keeps its own instant, not the one just popped.
        q.push(t(4), 5, 'f');
        q.push(t(10), 6, 'y');
        assert_eq!(q.run.len(), 2);
        assert_invariants(&q);
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, c)| c)).collect();
        assert_eq!(order, vec!['f', 'h', 'x', 'y', 'l']);
    }

    #[test]
    #[should_panic(expected = "duplicate event sequence number")]
    fn duplicate_of_a_run_seq_panics() {
        let mut q = mid_instant();
        q.push(t(10), 3, 'x');
        q.push(t(30), 3, 'y');
    }

    #[test]
    #[should_panic(expected = "duplicate event sequence number")]
    fn reschedule_to_a_run_seq_panics() {
        let mut q = mid_instant();
        q.push(t(10), 3, 'x');
        let _ = q.reschedule(2, t(30), 3);
    }

    #[test]
    fn clear_drops_the_run() {
        let mut q = mid_instant();
        q.push(t(10), 3, 'x');
        q.clear();
        assert!(q.is_empty() && q.pop().is_none() && !q.contains(3));
        // Nothing has been popped since the clear: no instant is eligible.
        q.push(t(10), 0, 'a');
        assert!(q.run.is_empty());
        assert_invariants(&q);
    }

    // -- vacant root --------------------------------------------------------

    #[test]
    fn pop_leaves_the_root_vacant_and_the_next_push_sits_there() {
        let mut q = EventQueue::new();
        for seq in 0..6u64 {
            q.push(t(10 * (seq + 1)), seq, seq);
        }
        assert_eq!(q.pop().map(|(_, s)| s), Some(0));
        assert!(q.vacant);
        assert_eq!((q.heap.len(), q.len()), (6, 5));
        assert_eq!(q.peek().map(|k| k.seq), Some(1), "peek skips the vacancy");
        assert!(!q.contains(0));
        assert_invariants(&q);
        // A near-term push takes the root itself; nothing is appended.
        q.push(t(15), 6, 6);
        assert!(!q.vacant);
        assert_eq!((q.heap.len(), q.heap[0].0.seq), (6, 6));
        assert_invariants(&q);
        // A far push after the next pop sinks from the root to a leaf.
        assert_eq!(q.pop().map(|(_, s)| s), Some(6));
        q.push(t(99), 7, 7);
        assert_eq!(q.heap.len(), 6);
        assert_invariants(&q);
        // Down to the last entry there is nothing to leave a vacancy above.
        let order: Vec<u64> = std::iter::from_fn(|| {
            let popped = q.pop().map(|(_, s)| s);
            assert_eq!(q.vacant, !q.is_empty());
            assert_invariants(&q);
            popped
        })
        .collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5, 7]);
        assert!(q.heap.is_empty());
    }

    /// A seeded walk over every operation on both profiles, half the pushes
    /// right after a pop (so at a vacant root) and half the cancels and
    /// reschedules through the slot `push` returned (the rest by bare seq),
    /// with the white-box invariants and the public readers checked after
    /// every step and every pop compared with a sorted reference.
    #[test]
    fn seeded_walk_holds_invariants_after_every_step() {
        use crate::rng::StreamRng;
        use std::collections::BTreeMap;

        fn check(q: &EventQueue<u64>, model: &BTreeMap<EventKey, u64>, probe: u64, slots: &[u32]) {
            assert_invariants(q);
            assert_eq!(q.len(), model.len());
            assert_eq!(q.is_empty(), model.is_empty());
            assert_eq!(q.peek(), model.keys().next().copied());
            let pending = model.keys().any(|k| k.seq == probe);
            assert_eq!(q.contains(probe), pending);
            if let Some(&slot) = slots.get(probe as usize) {
                assert_eq!(q.contains_slot(slot, probe), pending);
            }
        }

        let (mut vacancies, mut seated) = (0u32, 0u32);
        for calendar in [false, true] {
            for seed in 0..8u64 {
                let mut rng = StreamRng::new(seed, u64::from(calendar));
                let mut q: EventQueue<u64> = if calendar {
                    small_calendar()
                } else {
                    EventQueue::new()
                };
                let mut model = BTreeMap::new();
                // `slots[seq]`: the slot the queue handed out for `seq`.
                let mut slots: Vec<u32> = Vec::new();
                let (mut now, mut next_seq, mut push_next) = (0u64, 0u64, false);
                // Offsets of 0 join the run; up to 40 µs crosses the small
                // calendar's 16 µs window into the far tier.
                let when = |rng: &mut StreamRng, now: u64| match rng.index(8) {
                    0 => now,
                    1 => now.saturating_sub(rng.index(2_000) as u64),
                    _ => now + rng.index(40_000) as u64,
                };
                for _ in 0..3_000 {
                    let live: Vec<u64> = model.keys().map(|k: &EventKey| k.seq).collect();
                    // One draw in eight names any seq minted so far or the
                    // next one: pending, fired, cancelled or never seen.
                    let pick = |rng: &mut StreamRng, minted: u64| {
                        let any = rng.index(minted as usize + 1) as u64;
                        if live.is_empty() || rng.index(8) == 0 {
                            any
                        } else {
                            live[rng.index(live.len())]
                        }
                    };
                    let op = if std::mem::take(&mut push_next) {
                        0
                    } else {
                        rng.index(16)
                    };
                    match op {
                        0..=4 => {
                            let key = EventKey {
                                time: t(when(&mut rng, now)),
                                seq: next_seq,
                            };
                            seated += u32::from(q.vacant && q.route(key.time) == Route::Heap);
                            slots.push(q.push(key.time, key.seq, key.seq));
                            model.insert(key, key.seq);
                            next_seq += 1;
                        }
                        5..=9 => {
                            let expected = model.pop_first();
                            assert_eq!(q.pop(), expected);
                            if let Some((key, _)) = expected {
                                now = key.time.as_nanos();
                            }
                            vacancies += u32::from(q.vacant);
                            push_next = rng.index(2) == 0;
                        }
                        10..=11 => {
                            let seq = pick(&mut rng, next_seq);
                            let key = model.keys().find(|k| k.seq == seq).copied();
                            let got = match slots.get(seq as usize) {
                                Some(&slot) if rng.index(2) == 0 => q.cancel_slot(slot, seq),
                                _ => q.cancel(seq),
                            };
                            assert_eq!(got, key.and_then(|k| model.remove(&k)));
                        }
                        12..=14 => {
                            let seq = pick(&mut rng, next_seq);
                            let new_key = EventKey {
                                time: t(when(&mut rng, now)),
                                seq: next_seq,
                            };
                            let old = model.keys().find(|k| k.seq == seq).copied();
                            let moved = match slots.get(seq as usize) {
                                Some(&slot) if rng.index(2) == 0 => q
                                    .reschedule_slot(slot, seq, new_key.time, new_key.seq)
                                    .map(|(slot, &mut item)| (slot, item)),
                                _ => q
                                    .reschedule(seq, new_key.time, new_key.seq)
                                    .copied()
                                    .map(|item| (q.find(new_key.seq).expect("pending"), item)),
                            };
                            assert_eq!(moved.map(|m| m.1), old.and_then(|k| model.remove(&k)));
                            if let Some((slot, item)) = moved {
                                model.insert(new_key, item);
                                slots.push(slot);
                                next_seq += 1;
                            }
                        }
                        _ if rng.index(64) == 0 => {
                            q.clear();
                            model.clear();
                        }
                        _ => {}
                    }
                    check(&q, &model, pick(&mut rng, next_seq), &slots);
                }
                while let Some(expected) = model.pop_first() {
                    assert_eq!(q.pop(), Some(expected));
                    check(&q, &model, expected.0.seq, &slots);
                }
                assert!(q.pop().is_none());
            }
        }
        // The walk is only worth its name if it lives in the new state.
        assert!(vacancies > 5_000, "only {vacancies} pops left a vacancy");
        assert!(seated > 2_000, "only {seated} pushes found a vacant root");
    }

    #[test]
    fn clear_empties_everything() {
        let mut q = EventQueue::new();
        for seq in 0..10 {
            q.push(t(seq), seq, seq);
        }
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert_eq!(q.cancel(3), None);
        q.push(t(1), 100, 0);
        assert_eq!(q.len(), 1);
        assert_invariants(&q);
    }

    // -- calendar profile ---------------------------------------------------

    /// A small calendar: 16 buckets of 1 µs, so tests cross bucket, window
    /// and far boundaries with tiny time values.
    fn small_calendar<T>() -> EventQueue<T> {
        EventQueue::with_profile(QueueProfile::Calendar {
            bucket_width: SimDuration::from_nanos(1_000),
            buckets: 16,
        })
    }

    #[test]
    fn profile_roundtrips() {
        let q: EventQueue<()> = small_calendar();
        let cal = q.cal.as_ref().expect("a calendar profile builds a ring");
        assert_eq!((cal.width, cal.ring.len()), (1_000, 16));
        let q: EventQueue<()> = EventQueue::new();
        assert!(q.cal.is_none(), "the heap profile has no ring");
        assert_eq!(QueueProfile::default(), QueueProfile::Heap);
    }

    #[test]
    fn calendar_pops_in_time_then_seq_order() {
        let mut q = small_calendar();
        // Spread across near bucket, mid ring, and far overflow, with a tie.
        q.push(t(40_000), 0, 'f'); // far (idx 40 ≥ 16)
        q.push(t(3), 1, 'a');
        q.push(t(2_500), 2, 'c');
        q.push(t(3), 3, 'b'); // same instant as seq 1 → fires after it
        q.push(t(15_999), 4, 'e'); // last ring bucket
        q.push(t(9_000), 5, 'd');
        assert_invariants(&q);
        assert_eq!(q.len(), 6);
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, c)| c)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd', 'e', 'f']);
    }

    #[test]
    fn calendar_peek_matches_pop_everywhere() {
        let mut q = small_calendar();
        for seq in 0..64u64 {
            q.push(t((seq * 7919) % 50_000), seq, seq);
        }
        assert_invariants(&q);
        while let Some(key) = q.peek() {
            let (popped, _) = q.pop().expect("peeked queue pops");
            assert_eq!(popped, key, "peek disagreed with pop");
        }
        assert!(q.is_empty());
    }

    #[test]
    fn calendar_cancel_hits_every_tier() {
        let mut q = small_calendar();
        q.push(t(100), 0, "near");
        q.push(t(5_000), 1, "ring");
        q.push(t(5_100), 2, "ring2");
        q.push(t(90_000), 3, "far");
        q.push(t(91_000), 4, "far2");
        assert_invariants(&q);
        assert_eq!(q.cancel(1), Some("ring"));
        assert_invariants(&q);
        assert_eq!(q.cancel(3), Some("far"));
        assert_invariants(&q);
        assert_eq!(q.cancel(3), None, "double cancel");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, s)| s)).collect();
        assert_eq!(order, vec!["near", "ring2", "far2"]);
        assert_invariants(&q);
    }

    #[test]
    fn calendar_window_slides_over_long_horizons() {
        // Events far beyond the initial window, scheduled in pop-interleaved
        // rounds, keep arriving in order as the window slides and rebases.
        let mut q = small_calendar();
        let mut seq = 0u64;
        let mut expected = Vec::new();
        for round in 0..50u64 {
            for k in 0..4u64 {
                let time = round * 20_000 + k * 6_000; // crosses window spans
                q.push(t(time), seq, (time, seq));
                expected.push((time, seq));
                seq += 1;
            }
        }
        assert_invariants(&q);
        expected.sort_unstable();
        let mut got = Vec::new();
        while let Some((key, item)) = q.pop() {
            assert_eq!((key.time.as_nanos(), key.seq), (item.0, item.1));
            got.push(item);
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn calendar_push_into_the_past_goes_to_the_heap() {
        let mut q = small_calendar();
        q.push(t(10_000), 0, "later");
        // First pop migrates bucket 10 and advances the base past it.
        assert_eq!(q.pop().map(|(_, s)| s), Some("later"));
        // A push before the base lands in the heap tier and still pops
        // ahead of everything in the ring.
        q.push(t(500), 1, "past");
        q.push(t(12_000), 2, "future");
        assert_invariants(&q);
        assert_eq!(q.pop().map(|(_, s)| s), Some("past"));
        assert_eq!(q.pop().map(|(_, s)| s), Some("future"));
    }

    #[test]
    fn calendar_reschedule_crosses_tiers() {
        let mut q = small_calendar();
        q.push(t(2_000), 0, "a");
        q.push(t(3_000), 1, "b");
        q.push(t(50_000), 2, "c");
        // ring → far
        assert!(q.reschedule(0, t(60_000), 10).is_some());
        assert_invariants(&q);
        // far → ring
        assert!(q.reschedule(2, t(4_000), 11).is_some());
        assert_invariants(&q);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, s)| s)).collect();
        assert_eq!(order, vec!["b", "c", "a"]);
    }

    #[test]
    fn calendar_reschedule_ties_break_by_new_seq() {
        let mut q = small_calendar();
        q.push(t(5_000), 0, 'a');
        q.push(t(5_000), 1, 'b');
        assert!(q.reschedule(0, t(5_000), 2).is_some());
        assert_invariants(&q);
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, c)| c)).collect();
        assert_eq!(order, vec!['b', 'a']);
    }

    #[test]
    fn calendar_clear_resets_the_window() {
        let mut q = small_calendar();
        for seq in 0..32u64 {
            q.push(t(seq * 3_000), seq, seq);
        }
        let _ = q.pop();
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        q.push(t(1), 100, 0);
        assert_eq!(q.len(), 1);
        assert_invariants(&q);
    }

    #[test]
    fn calendar_far_tier_rebases_backwards_safely() {
        let mut q = small_calendar();
        // Drain a late event so the base slides far forward…
        q.push(t(200_000), 0, ());
        assert_eq!(q.pop().map(|(k, ())| k.seq), Some(0));
        // …then queue events that are all "past" relative to pushes but in
        // the future of the (empty) queue — they route via heap or far and
        // must still drain in order.
        q.push(t(250_000), 1, ());
        q.push(t(210_000), 2, ());
        assert_invariants(&q);
        assert_eq!(q.pop().map(|(k, ())| k.seq), Some(2));
        assert_eq!(q.pop().map(|(k, ())| k.seq), Some(1));
    }

    #[test]
    fn calendar_million_events_flat_structures() {
        // A mega-scale smoke: a million pushes spread over many windows
        // drain in exactly sorted order, and churny fire-then-cancel cycles
        // retain nothing (same guarantee as the heap profile).
        let mut q = EventQueue::with_profile(QueueProfile::Calendar {
            bucket_width: SimDuration::from_nanos(1_000),
            buckets: 256,
        });
        let mut last = None;
        let slots: Vec<u32> = (0..100_000u64)
            .map(|seq| q.push(t((seq * 48_271) % 10_000_000), seq, ()))
            .collect();
        while let Some((key, ())) = q.pop() {
            if let Some(prev) = last {
                assert!(prev < key, "order violated");
            }
            last = Some(key);
            let slot = slots[key.seq as usize];
            assert_eq!(q.cancel_slot(slot, key.seq), None, "fired seq cancellable");
        }
        assert_eq!(q.len(), 0);
        assert!(q.slab.iter().all(Option::is_none));
    }
}

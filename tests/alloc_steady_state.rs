//! Allocation regression gate: the steady-state DCPP probe loop must not
//! touch the heap.
//!
//! PR 4 made the claim in a comment ("the steady-state loop is
//! allocation-free"); this test turns it into a regression gate with a
//! counting `#[global_allocator]`. The test lives in its **own**
//! integration-test binary so no concurrent test can pollute the counter,
//! and the binary contains exactly one `#[test]`.
//!
//! Mechanics: build the paper-default 30-CP DCPP scenario, run a warm-up
//! long enough for every one-off allocation to happen (joins, prober
//! boxes, recorder capacity hints, the event queue's high-water mark,
//! the device's reserved in-processing reply list), snapshot the
//! allocation counter, run a further measurement window, and assert the
//! counter did not move. Everything on the per-event path — typed enum
//! dispatch, the CP's one timer slot and the device's reply list, the
//! reusable CP action scratch, the slab-backed event queue — must hold
//! that line.

use presence::sim::{Protocol, Scenario, ScenarioConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation (frees are irrelevant to the
/// gate: a steady loop that frees without allocating is impossible, and
/// frees never grow the heap).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic
// with no aliasing or layout obligations of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_dcpp_loop_is_allocation_free() {
    // The paper-default DCPP configuration the golden suite pins, with the
    // horizon the capacity hints are sized from.
    let cfg = ScenarioConfig::paper_defaults(Protocol::dcpp_paper(), 30, 300.0, 7);
    let mut scenario = Scenario::build(cfg);

    // Warm-up: joins staggered over the first second, probers built, every
    // recorder at capacity-stable fill, the event queue past its
    // high-water mark.
    scenario.run_until(40.0);

    // The allocation counter is process-global, and the libtest harness
    // keeps its own threads that may allocate at any moment — noise the
    // deterministic simulation cannot produce. Measuring several disjoint
    // windows and gating on the *minimum* delta filters that noise while
    // still catching any real steady-state allocation: an allocation on
    // the per-event (or even per-cycle) path would show up in **every**
    // window, thousands of times.
    let mut min_delta = u64::MAX;
    let mut total_events = 0u64;
    for window in 0..5u64 {
        let end = 40.0 + 40.0 * (window + 1) as f64;
        let events_before = scenario.sim_mut().events_processed();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        scenario.run_until(end);
        let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let events = scenario.sim_mut().events_processed() - events_before;
        assert!(
            events > 1_000,
            "window {window} processed only {events} events — not steady state"
        );
        total_events += events;
        min_delta = min_delta.min(delta);
    }
    assert_eq!(
        min_delta,
        0,
        "every steady-state window allocated (≥ {min_delta} times per \
         ~{} events): the DCPP loop is supposed to be allocation-free — \
         typed dispatch, timer slots, scratch reuse, and the slab queue \
         all promise it",
        total_events / 5
    );
}

//! Allocation regression gate for the UDP host: once warm, a shard
//! serving a steady probe load must not touch the heap.
//!
//! The host's side of `alloc_steady_state.rs`, with the same counting
//! `#[global_allocator]`, in its own integration-test binary holding
//! exactly one `#[test]`. Two one-shard loopback hosts on the wall clock:
//! 8 DCPP devices on one, 64 DCPP control points (8 per device) on the
//! other. After a warm-up long enough for every one-off allocation (the
//! prober boxes, the dense machine tables, each shard's timer queue, send
//! arena, action scratch and receive buffer at their high-water marks),
//! five windows each count allocations and replies. Every probe cycle
//! goes through the shard's whole per-datagram path — decode, route, the
//! machine, encode into the arena, the GSO flush, the timer queue — so
//! an allocation anywhere on it shows in every window, once per reply or
//! more.

use presence::core::{CpId, DcppConfig, DcppCp, DcppDevice, DeviceId, DeviceMachine};
use presence::des::{SimDuration, SimTime};
use presence::runtime::{Clock, HostConfig, ShardedHost, SystemClock};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

const DEVICES: u32 = 8;
const CPS: u32 = 64;
const WINDOW: Duration = Duration::from_millis(150);
/// Replies a window must see: at δ_min = 5 ms the 8 devices answer up to
/// 1 600 probes/s, ~240 a window; an idle or stalled host sees none.
const MIN_REPLIES: u64 = 50;

#[test]
fn steady_state_host_loop_is_allocation_free() {
    // Tightened waits (as the runtime's own loopback tests use) so a
    // window of a fraction of a second holds hundreds of probe cycles.
    let mut cfg = DcppConfig::paper_default();
    cfg.delta_min = SimDuration::from_millis(5);
    cfg.d_min = SimDuration::from_millis(10);

    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    let mut devices = ShardedHost::bind(&HostConfig::loopback(1)).expect("bind device host");
    for d in 0..DEVICES {
        let device = DeviceMachine::Dcpp(DcppDevice::new(DeviceId(d), cfg));
        devices.add_device(device, None);
    }
    let mut cps = ShardedHost::bind(&HostConfig::loopback(1)).expect("bind CP host");
    for cp in 0..CPS {
        let device = DeviceId(cp % DEVICES);
        cps.add_prober(
            Box::new(DcppCp::new(CpId(cp), cfg)),
            devices.addr_of(device),
            device,
            SimTime::from_nanos(u64::from(cp) * 1_000_000),
        );
    }
    let device_host = devices.start(Arc::clone(&clock));
    let cp_host = cps.start(Arc::clone(&clock));

    // Warm-up: every prober started (the last at 63 ms) and every buffer
    // at its high-water mark.
    std::thread::sleep(Duration::from_secs(1));

    // The counter is process-global and the test harness keeps threads of
    // its own that may allocate at any moment; gating on the minimum over
    // several windows filters that noise, while an allocation on the
    // per-datagram path shows in every window.
    let mut windows = Vec::with_capacity(5);
    for _ in 0..5 {
        let replies_before = device_host.stats().datagrams_sent;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        std::thread::sleep(WINDOW);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let replies = device_host.stats().datagrams_sent - replies_before;
        windows.push((allocations, replies));
    }

    let _ = cp_host.join();
    let _ = device_host.join();
    println!("host steady state: (allocations, replies) per window {windows:?}");
    for (window, &(_, replies)) in windows.iter().enumerate() {
        assert!(
            replies >= MIN_REPLIES,
            "window {window} saw only {replies} replies — not steady state: {windows:?}"
        );
    }
    let min = windows.iter().map(|&(allocations, _)| allocations).min();
    assert_eq!(
        min,
        Some(0),
        "every steady-state window allocated — (allocations, replies) per \
         window: {windows:?}"
    );
}

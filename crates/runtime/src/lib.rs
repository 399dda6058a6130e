//! # presence-runtime
//!
//! Wall-clock runtime for the presence protocols. The *same* sans-io state
//! machines that the simulator drives (`presence-core`) run here against
//! real time and real sockets:
//!
//! * [`codec`] — a compact binary wire format (13-byte probes);
//! * [`ShardedHost`] — the one UDP host: device and prober machines spread
//!   over worker threads by id, one socket, one timer queue (the
//!   simulator's [`EventQueue`](presence_des::EventQueue)) and one send
//!   arena per shard; a single shard is the small case, not a separate
//!   code path;
//! * [`Clock`] — wall-clock ([`SystemClock`]) or hand-cranked
//!   ([`ManualClock`]) time sources; [`Clock::wall_until`] is how an idle
//!   shard learns how long it may block.
//!
//! The crate is safe Rust except for one private module, `sys`, the three
//! socket calls std lacks. An idle shard blocks in `ppoll(2)` until its
//! socket is readable or its next timer is due, and std offers no such
//! wait — it has no poll, and its only timed receive (`set_read_timeout`,
//! i.e. `SO_RCVTIMEO`) is rounded to scheduler ticks, 8 ms for a 1 ms
//! timeout at HZ = 250. A shard hands each run of same-destination,
//! same-length datagrams to the kernel as one `sendmsg(2)` with UDP
//! segmentation offload (`UDP_SEGMENT`), where std sends one datagram per
//! call. And its socket has UDP generic receive offload on (`UDP_GRO`), so
//! such a run arrives whole and is read by one `recvmsg(2)`, where std
//! reads one datagram per call. Linux ≥ 5.0 only: on an older kernel
//! [`ShardedHost::bind`] fails.
//!
//! The crate is the host and nothing else: it takes `SimTime`,
//! `SimDuration` and the `EventQueue` its shards keep their timers in from
//! `presence-des`, and no engine. The harness that pins it
//! against the simulator as oracle needs both sides, so it lives above
//! both, in `presence-bench` (`crates/bench/src/conformance.rs`).
//!
//! Because simulation and deployment share one protocol implementation,
//! the behaviours measured in `presence-sim`'s experiments are the
//! behaviours of the deployable code — the property the paper's
//! MODEST-based methodology argues for ("a trustworthy analysis chain").
//!
//! ```
//! use presence_core::{CpId, DcppConfig, DcppCp, DeviceId, DeviceMachine};
//! use presence_des::SimTime;
//! use presence_runtime::{HostConfig, ShardedHost, SystemClock};
//! use std::sync::Arc;
//!
//! // One shard serves a device and the control point probing it.
//! let mut host = ShardedHost::bind(&HostConfig::loopback(1)).unwrap();
//! host.add_device(DeviceMachine::dcpp_paper(DeviceId(0)), None);
//! let device_addr = host.addr_of(DeviceId(0));
//! host.add_prober(
//!     Box::new(DcppCp::new(CpId(0), DcppConfig::paper_default())),
//!     device_addr,
//!     DeviceId(0),
//!     SimTime::ZERO,
//! );
//! let handle = host.start(Arc::new(SystemClock::new()));
//! // Serve until the first probe and its reply have both arrived.
//! let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
//! while handle.stats().datagrams_received < 2 && std::time::Instant::now() < deadline {
//!     std::thread::sleep(std::time::Duration::from_millis(1));
//! }
//! let report = handle.join();
//! assert!(report.probers[0].verdict.is_none());
//! assert!(report.devices[0].probes_received >= 1);
//! ```

// `deny`, not `forbid`: exactly one module, `sys`, allows `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;

mod clock;
mod shard;
mod stats;
mod sys;
mod wheel;

pub use clock::{Clock, ManualClock, SystemClock};
/// `presence_core::DeviceMachine` under the name `benchmark/` imports;
/// goes in the `benchmark`-archetype PR that retires `TimerWheel`.
pub use presence_core::DeviceMachine as DeviceHost;
pub use shard::{
    shards_from_env, DeviceReport, HostConfig, HostHandle, HostReport, ProberReport, ShardedHost,
};
pub use stats::{ShardCounters, ShardStats, NO_DEADLINE};
pub use wheel::TimerWheel;

//! Shard-level counters for the sharded presence host.
//!
//! Mirrors the shape of `presence_net::FabricStats`: monotone counters a
//! controller can sample live (each shard thread updates its own
//! [`ShardCounters`] through an `Arc`) and a plain snapshot struct
//! ([`ShardStats`]) for reports. Backpressure is explicit — a datagram the
//! host could not route or send is *counted*, never silently lost.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel stored in [`ShardCounters::next_deadline_nanos`] when the
/// shard's timer wheel is empty.
pub const NO_DEADLINE: u64 = u64::MAX;

/// Live counters owned by one shard thread, sampled by controllers.
///
/// All counters are monotone except `next_deadline_nanos` (the shard's
/// earliest armed timer deadline, republished every loop iteration) and
/// `loop_iterations` (monotone, but a liveness signal rather than a
/// traffic counter: it proves the shard completed full
/// drain-fire-publish iterations, which the conformance controller uses
/// for its quiescence proof).
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Datagrams received and decoded.
    pub datagrams_received: AtomicU64,
    /// Receive syscalls that returned bytes: one per run or lone
    /// datagram, so `datagrams_received / recv_calls` is how well runs
    /// arrive whole.
    pub recv_calls: AtomicU64,
    /// Datagrams handed to the kernel.
    pub datagrams_sent: AtomicU64,
    /// Send syscalls issued, whatever their outcome: one per run of
    /// same-destination, same-length datagrams, so `datagrams_sent /
    /// send_calls` is how well the shard coalesces.
    pub send_calls: AtomicU64,
    /// Datagrams that failed to decode (garbage, truncation, trailing
    /// bytes), plus one per run too long for the receive buffer.
    pub decode_errors: AtomicU64,
    /// Socket receive calls that failed with anything but "no datagram
    /// waiting".
    pub recv_errors: AtomicU64,
    /// Decoded datagrams with no hosted device or prober to route to.
    pub unroutable: AtomicU64,
    /// Datagrams addressed to a device that has gone silent (departed).
    pub dropped_departed: AtomicU64,
    /// Outbound datagrams dropped because the kernel would not accept
    /// them yet (send buffer full).
    pub dropped_sendpressure: AtomicU64,
    /// Outbound datagrams lost to a send that failed with anything but
    /// "would block".
    pub send_errors: AtomicU64,
    /// Timer-wheel entries fired.
    pub timers_fired: AtomicU64,
    /// Completed shard-loop iterations (drain + fire + publish).
    pub loop_iterations: AtomicU64,
    /// Earliest armed deadline in nanoseconds, or [`NO_DEADLINE`].
    pub next_deadline_nanos: AtomicU64,
}

impl ShardCounters {
    /// Creates zeroed counters with no published deadline.
    #[must_use]
    pub fn new() -> Self {
        let c = Self::default();
        c.next_deadline_nanos.store(NO_DEADLINE, Ordering::Release);
        c
    }

    /// Sum of all traffic-and-work counters — changes if and only if the
    /// shard did *anything* (received, sent, dropped, fired). Quiescence
    /// detectors compare successive samples of this. `send_calls` and
    /// `recv_calls` are left out: they only move with the datagram
    /// outcomes already counted.
    #[must_use]
    pub fn activity(&self) -> u64 {
        self.datagrams_received.load(Ordering::Acquire)
            + self.datagrams_sent.load(Ordering::Acquire)
            + self.decode_errors.load(Ordering::Acquire)
            + self.recv_errors.load(Ordering::Acquire)
            + self.unroutable.load(Ordering::Acquire)
            + self.dropped_departed.load(Ordering::Acquire)
            + self.dropped_sendpressure.load(Ordering::Acquire)
            + self.send_errors.load(Ordering::Acquire)
            + self.timers_fired.load(Ordering::Acquire)
    }

    /// A plain-value snapshot of the counters.
    #[must_use]
    pub fn snapshot(&self) -> ShardStats {
        ShardStats {
            datagrams_received: self.datagrams_received.load(Ordering::Acquire),
            recv_calls: self.recv_calls.load(Ordering::Acquire),
            datagrams_sent: self.datagrams_sent.load(Ordering::Acquire),
            send_calls: self.send_calls.load(Ordering::Acquire),
            decode_errors: self.decode_errors.load(Ordering::Acquire),
            recv_errors: self.recv_errors.load(Ordering::Acquire),
            unroutable: self.unroutable.load(Ordering::Acquire),
            dropped_departed: self.dropped_departed.load(Ordering::Acquire),
            dropped_sendpressure: self.dropped_sendpressure.load(Ordering::Acquire),
            send_errors: self.send_errors.load(Ordering::Acquire),
            timers_fired: self.timers_fired.load(Ordering::Acquire),
        }
    }
}

/// Point-in-time snapshot of one shard's counters (or, summed, a whole
/// host's).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Datagrams received and decoded.
    pub datagrams_received: u64,
    /// Receive syscalls that returned bytes (one per run).
    pub recv_calls: u64,
    /// Datagrams handed to the kernel.
    pub datagrams_sent: u64,
    /// Send syscalls issued (one per run of datagrams).
    pub send_calls: u64,
    /// Datagrams that failed to decode.
    pub decode_errors: u64,
    /// Failed socket receive calls (other than "no datagram waiting").
    pub recv_errors: u64,
    /// Decoded datagrams with no hosted device or prober.
    pub unroutable: u64,
    /// Datagrams addressed to a departed (silenced) device.
    pub dropped_departed: u64,
    /// Outbound datagrams the kernel would not take yet (buffer full).
    pub dropped_sendpressure: u64,
    /// Failed socket sends (other than "would block").
    pub send_errors: u64,
    /// Timer-wheel entries fired.
    pub timers_fired: u64,
}

impl ShardStats {
    /// Backpressure drops: datagrams lost to the host's own limits (as
    /// opposed to protocol-intended drops like departed devices).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped_sendpressure
    }

    /// Component-wise sum.
    #[must_use]
    pub fn merged(self, other: ShardStats) -> ShardStats {
        ShardStats {
            datagrams_received: self.datagrams_received + other.datagrams_received,
            recv_calls: self.recv_calls + other.recv_calls,
            datagrams_sent: self.datagrams_sent + other.datagrams_sent,
            send_calls: self.send_calls + other.send_calls,
            decode_errors: self.decode_errors + other.decode_errors,
            recv_errors: self.recv_errors + other.recv_errors,
            unroutable: self.unroutable + other.unroutable,
            dropped_departed: self.dropped_departed + other.dropped_departed,
            dropped_sendpressure: self.dropped_sendpressure + other.dropped_sendpressure,
            send_errors: self.send_errors + other.send_errors,
            timers_fired: self.timers_fired + other.timers_fired,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_tracks_every_counter() {
        let c = ShardCounters::new();
        assert_eq!(c.activity(), 0);
        c.datagrams_received.fetch_add(2, Ordering::Release);
        c.dropped_sendpressure.fetch_add(1, Ordering::Release);
        c.timers_fired.fetch_add(3, Ordering::Release);
        c.send_errors.fetch_add(4, Ordering::Release);
        assert_eq!(c.activity(), 10);
        // loop_iterations is liveness, not activity; send_calls and
        // recv_calls only move with the datagram outcomes.
        c.loop_iterations.fetch_add(10, Ordering::Release);
        c.send_calls.fetch_add(1, Ordering::Release);
        c.recv_calls.fetch_add(1, Ordering::Release);
        assert_eq!(c.activity(), 10);
    }

    #[test]
    fn snapshot_and_merge() {
        let c = ShardCounters::new();
        c.datagrams_sent.fetch_add(4, Ordering::Release);
        c.send_calls.fetch_add(2, Ordering::Release);
        c.recv_calls.fetch_add(5, Ordering::Release);
        c.unroutable.fetch_add(1, Ordering::Release);
        c.recv_errors.fetch_add(2, Ordering::Release);
        c.send_errors.fetch_add(3, Ordering::Release);
        let a = c.snapshot();
        let b = ShardStats {
            datagrams_sent: 1,
            send_calls: 1,
            recv_calls: 2,
            recv_errors: 1,
            send_errors: 1,
            dropped_sendpressure: 2,
            ..ShardStats::default()
        };
        let m = a.merged(b);
        assert_eq!(m.datagrams_sent, 5);
        assert_eq!(m.send_calls, 3);
        assert_eq!(m.recv_calls, 7);
        assert_eq!(m.unroutable, 1);
        assert_eq!(m.recv_errors, 3);
        assert_eq!(m.send_errors, 4);
        assert_eq!(m.dropped(), 2);
    }
}

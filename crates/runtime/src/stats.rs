//! What a shard of the sharded presence host counts.
//!
//! Mirrors the shape of `presence_net::FabricStats`: plain monotone
//! counters ([`ShardStats`]) that a shard's core adds its routing and
//! timer outcomes to and its socket loop adds the socket's to, and that
//! the loop publishes once per loop iteration — one snapshot a
//! controller can sample live, summed across shards for reports.
//! Backpressure is explicit — a datagram the host could not route or send
//! is *counted*, never silently lost.

/// One shard's counters (or, summed, a whole host's).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Datagrams received and decoded.
    pub datagrams_received: u64,
    /// Receive syscalls that returned bytes: one per run or lone
    /// datagram, so `datagrams_received / recv_calls` is how well runs
    /// arrive whole.
    pub recv_calls: u64,
    /// Datagrams handed to the kernel.
    pub datagrams_sent: u64,
    /// Send syscalls issued, whatever their outcome: one per run of
    /// same-destination, same-length datagrams, so `datagrams_sent /
    /// send_calls` is how well the shard coalesces.
    pub send_calls: u64,
    /// Datagrams that failed to decode (garbage, truncation, trailing
    /// bytes), plus one per run too long for the receive buffer.
    pub decode_errors: u64,
    /// Socket receive calls that failed with anything but "no datagram
    /// waiting".
    pub recv_errors: u64,
    /// Decoded datagrams with no hosted device or prober to route to.
    pub unroutable: u64,
    /// Datagrams addressed to a device that has gone silent (departed).
    pub dropped_departed: u64,
    /// Outbound datagrams dropped because the kernel would not accept
    /// them yet (send buffer full).
    pub dropped_sendpressure: u64,
    /// Outbound datagrams lost to a send that failed with anything but
    /// "would block".
    pub send_errors: u64,
    /// Timers fired: prober starts, protocol timers and device silences.
    /// A cancelled timer never fires and is not counted.
    pub timers_fired: u64,
}

impl ShardStats {
    /// Backpressure drops: datagrams lost to the host's own limits (as
    /// opposed to protocol-intended drops like departed devices).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped_sendpressure
    }

    /// Sum of all traffic-and-work counters — changes if and only if the
    /// shard did *anything* (received, sent, dropped, fired). `send_calls`
    /// and `recv_calls` are left out: they only move with the datagram
    /// outcomes already counted.
    pub(crate) fn activity(&self) -> u64 {
        self.datagrams_received
            + self.datagrams_sent
            + self.decode_errors
            + self.recv_errors
            + self.unroutable
            + self.dropped_departed
            + self.dropped_sendpressure
            + self.send_errors
            + self.timers_fired
    }

    /// Component-wise sum.
    pub(crate) fn merged(self, other: ShardStats) -> ShardStats {
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
        let mut s = ShardStats::default();
        assert_eq!(s.activity(), 0);
        s.datagrams_received += 2;
        s.dropped_sendpressure += 1;
        s.timers_fired += 3;
        s.send_errors += 4;
        assert_eq!(s.activity(), 10);
        // send_calls and recv_calls only move with the datagram outcomes.
        s.send_calls += 1;
        s.recv_calls += 1;
        assert_eq!(s.activity(), 10);
    }

    #[test]
    fn snapshot_and_merge() {
        // A snapshot is a plain copy; merging sums every field.
        let a = ShardStats {
            datagrams_sent: 4,
            send_calls: 2,
            recv_calls: 5,
            unroutable: 1,
            recv_errors: 2,
            send_errors: 3,
            ..ShardStats::default()
        };
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

//! Blocking until a socket is readable or a timeout passes: `ppoll(2)`.
//!
//! The crate's only `unsafe`: std's one timed socket wait,
//! `set_read_timeout`, is `SO_RCVTIMEO`, which the kernel rounds to
//! scheduler ticks (4 ms at HZ = 250: a 1 ms timeout returns after ~8 ms).
//! `ppoll` takes nanoseconds on a high-resolution timer and reads nothing,
//! so the shard's own non-blocking drain stays the only receive path.
#![allow(unsafe_code)]

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::net::UdpSocket;
use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x001;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        mask: *const c_void,
    ) -> c_int;
}

/// Blocks until `socket` has a datagram queued (`true`) or `timeout` has
/// passed (`false`; also on a signal or a refused call, which the caller's
/// loop treats as one more empty window). Level-triggered: `true` again
/// until the datagram is read.
pub(crate) fn wait_readable(socket: &UdpSocket, timeout: Duration) -> bool {
    let mut fd = PollFd {
        fd: socket.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        // Below 10^9: fits a `c_long` of any width.
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fd` and `timeout` are live, correctly laid-out locals for
    // the whole call and `nfds` is exactly the one entry passed; a null
    // mask leaves the signal mask alone. The kernel validates the
    // descriptor, which `socket` keeps open.
    unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) > 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn times_out_on_an_empty_socket_and_sees_a_queued_datagram_until_drained() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket.set_nonblocking(true).unwrap();
        let timeout = Duration::from_millis(5);
        let t0 = Instant::now();
        assert!(!wait_readable(&socket, timeout));
        assert!(
            t0.elapsed() >= timeout,
            "returned early: {:?}",
            t0.elapsed()
        );

        socket.send_to(b"x", socket.local_addr().unwrap()).unwrap();
        // Loopback delivery is synchronous with `send_to`, so a generous
        // timeout is only ever slept through if readiness is missed.
        let long = Duration::from_secs(30);
        let t0 = Instant::now();
        assert!(wait_readable(&socket, long));
        assert!(wait_readable(&socket, long), "level-triggered");
        assert!(t0.elapsed() < Duration::from_secs(10));

        let mut buf = [0u8; 8];
        socket.recv_from(&mut buf).unwrap();
        assert!(!wait_readable(&socket, Duration::ZERO));
    }
}

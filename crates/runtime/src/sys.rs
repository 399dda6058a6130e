//! The socket calls std lacks: `ppoll(2)` to wait, `sendmsg(2)` with UDP
//! generic segmentation offload to send a run of datagrams.
//!
//! The crate's only `unsafe`, for two reasons:
//!
//! * **Waiting.** std's one timed socket wait, `set_read_timeout`, is
//!   `SO_RCVTIMEO`, which the kernel rounds to scheduler ticks (4 ms at
//!   HZ = 250: a 1 ms timeout returns after ~8 ms). `ppoll` takes
//!   nanoseconds on a high-resolution timer and reads nothing, so the
//!   shard's own non-blocking drain stays the only receive path.
//! * **Sending a run.** std sends one datagram per call, and what a
//!   loopback datagram costs is its trip through the network stack, not
//!   the syscall. `send_segments` hands the kernel up to `MAX_SEGMENTS`
//!   equal-length datagrams for one destination as a single `sendmsg`
//!   carrying a `UDP_SEGMENT` control message: the stack is walked once,
//!   and the run is cut back into separate datagrams, in order, on the
//!   way out. `UDP_SEGMENT` exists since Linux 4.18. There is no
//!   fallback: a kernel or route that cannot segment refuses every run,
//!   and the shard counts each refused datagram in `send_errors`.
//!
//! Linux only; `msghdr` and `cmsghdr` are laid out as glibc lays them out.
#![allow(unsafe_code)]

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io;
use std::mem::size_of;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::AsRawFd;
use std::ptr;
use std::time::Duration;

/// Most datagrams one `send_segments` call carries: `UDP_MAX_SEGMENTS` on
/// Linux 4.18, a cap later kernels only raised.
pub(crate) const MAX_SEGMENTS: usize = 64;

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

#[repr(C)]
#[derive(Clone, Copy)]
struct IoVec {
    base: *const c_void,
    len: usize,
}

#[repr(C)]
struct MsgHdr {
    name: *const c_void,
    namelen: u32,
    iov: *const IoVec,
    iovlen: usize,
    control: *const c_void,
    controllen: usize,
    flags: c_int,
}

#[repr(C)]
struct CmsgHdr {
    len: usize,
    level: c_int,
    kind: c_int,
}

/// The one control message a run carries: `SOL_UDP` / `UDP_SEGMENT` and
/// the segment size. Its size is `CMSG_SPACE(2)`; `hdr.len` is
/// `CMSG_LEN(2)`.
#[repr(C)]
struct SegmentCmsg {
    hdr: CmsgHdr,
    segment_size: u16,
}

const SOL_UDP: c_int = 17;
const UDP_SEGMENT: c_int = 103;

#[repr(C)]
#[derive(Clone, Copy)]
struct SockaddrIn {
    family: u16,
    /// Network byte order.
    port: u16,
    addr: [u8; 4],
    zero: [u8; 8],
}

#[repr(C)]
#[derive(Clone, Copy)]
struct SockaddrIn6 {
    family: u16,
    /// Network byte order.
    port: u16,
    flowinfo: u32,
    addr: [u8; 16],
    scope_id: u32,
}

#[repr(C)]
union Sockaddr {
    v4: SockaddrIn,
    v6: SockaddrIn6,
}

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;

const _: () = {
    assert!(size_of::<SockaddrIn>() == 16);
    assert!(size_of::<SockaddrIn6>() == 28);
};

#[cfg(target_pointer_width = "64")]
const _: () = {
    assert!(size_of::<MsgHdr>() == 56);
    assert!(size_of::<CmsgHdr>() + size_of::<u16>() == 18, "CMSG_LEN(2)");
    assert!(size_of::<SegmentCmsg>() == 24, "CMSG_SPACE(2)");
};

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        mask: *const c_void,
    ) -> c_int;

    fn sendmsg(fd: c_int, msg: *const MsgHdr, flags: c_int) -> isize;
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
    unsafe { ppoll(&mut fd, 1, &timeout, ptr::null()) > 0 }
}

/// Sends `segments` to `dest` as one `sendmsg(2)`; the receiver sees
/// them as separate datagrams, in order. All or nothing, like one
/// `send_to`: on an error none of them left.
///
/// # Panics
///
/// Unless there are 1 to `MAX_SEGMENTS` segments of one non-zero length:
/// the kernel cuts the gathered bytes at every multiple of the first
/// segment's length, so a segment of another length would be reframed.
pub(crate) fn send_segments<'a>(
    socket: &UdpSocket,
    dest: SocketAddr,
    segments: impl IntoIterator<Item = &'a [u8]>,
) -> io::Result<()> {
    let mut iov = [IoVec {
        base: ptr::null(),
        len: 0,
    }; MAX_SEGMENTS];
    let mut count = 0;
    for segment in segments {
        assert!(count < MAX_SEGMENTS, "more than {MAX_SEGMENTS} segments");
        iov[count] = IoVec {
            base: segment.as_ptr().cast(),
            len: segment.len(),
        };
        count += 1;
    }
    let iov = &iov[..count];
    let size = iov.first().map_or(0, |v| v.len);
    assert!(
        size > 0 && iov.iter().all(|v| v.len == size),
        "a run is datagrams of one non-zero length"
    );
    let cmsg = SegmentCmsg {
        hdr: CmsgHdr {
            len: size_of::<CmsgHdr>() + size_of::<u16>(),
            level: SOL_UDP,
            kind: UDP_SEGMENT,
        },
        segment_size: u16::try_from(size).expect("a segment fits a UDP datagram"),
    };
    let (name, namelen) = sockaddr(dest);
    let msg = MsgHdr {
        name: ptr::from_ref(&name).cast(),
        namelen,
        iov: iov.as_ptr(),
        iovlen: iov.len(),
        control: ptr::from_ref(&cmsg).cast(),
        controllen: size_of::<SegmentCmsg>(),
        flags: 0,
    };
    // SAFETY: every pointer in `msg` is to a live, correctly laid-out
    // local (`name`, `iov`, `cmsg`) or to a segment borrowed for `'a`, and
    // each length covers exactly its buffer: `namelen` the written
    // variant of `name`, `iovlen` the filled entries, `controllen` one
    // `CMSG_SPACE(2)` message. The kernel only reads them, and validates
    // the descriptor, which `socket` keeps open.
    let sent = unsafe { sendmsg(socket.as_raw_fd(), &msg, 0) };
    if sent < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(())
    }
}

/// `dest` as the kernel's `sockaddr_in` / `sockaddr_in6`, with the length
/// of the variant written — the same bytes std's `send_to` passes.
fn sockaddr(dest: SocketAddr) -> (Sockaddr, u32) {
    match dest {
        SocketAddr::V4(a) => (
            Sockaddr {
                v4: SockaddrIn {
                    family: AF_INET,
                    port: a.port().to_be(),
                    addr: a.ip().octets(),
                    zero: [0; 8],
                },
            },
            size_of::<SockaddrIn>() as u32,
        ),
        SocketAddr::V6(a) => (
            Sockaddr {
                v6: SockaddrIn6 {
                    family: AF_INET6,
                    port: a.port().to_be(),
                    flowinfo: a.flowinfo(),
                    addr: a.ip().octets(),
                    scope_id: a.scope_id(),
                },
            },
            size_of::<SockaddrIn6>() as u32,
        ),
    }
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

    /// Sends a full run of numbered 3-byte segments from one socket bound
    /// on `bind` to another and reads them back one datagram each.
    fn segments_arrive_as_datagrams_in_order(bind: &str) {
        let tx = UdpSocket::bind(bind).unwrap();
        let rx = UdpSocket::bind(bind).unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let run: Vec<[u8; 3]> = (0..MAX_SEGMENTS as u8).map(|i| [i, i, !i]).collect();
        send_segments(&tx, rx.local_addr().unwrap(), run.iter().map(|s| &s[..])).unwrap();
        let mut buf = [0u8; 16];
        for segment in &run {
            let (n, from) = rx.recv_from(&mut buf).unwrap();
            assert_eq!(&buf[..n], segment);
            assert_eq!(from, tx.local_addr().unwrap());
        }
    }

    #[test]
    fn a_run_arrives_as_separate_datagrams_in_order_over_ipv4() {
        segments_arrive_as_datagrams_in_order("127.0.0.1:0");
    }

    #[test]
    fn a_run_arrives_as_separate_datagrams_in_order_over_ipv6() {
        segments_arrive_as_datagrams_in_order("[::1]:0");
    }

    #[test]
    fn a_refused_run_is_an_error() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let nowhere: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let err = send_segments(&socket, nowhere, [&b"ab"[..], b"cd"]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    }

    #[test]
    #[should_panic(expected = "a run is datagrams of one non-zero length")]
    fn segments_of_different_lengths_are_refused_before_the_kernel() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let _ = send_segments(&socket, socket.local_addr().unwrap(), [&b"ab"[..], b"c"]);
    }
}

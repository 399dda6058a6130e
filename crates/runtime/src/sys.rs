//! The socket calls std lacks: `ppoll(2)` to wait, `sendmsg(2)` with UDP
//! generic segmentation offload to send a run of datagrams, and
//! `recvmsg(2)` with UDP generic receive offload to take a run whole.
//!
//! The crate's only `unsafe`, for three reasons:
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
//!   carrying a `UDP_SEGMENT` control message: the stack is walked once.
//!   A receiver without `UDP_GRO` gets the run cut back into separate
//!   datagrams, in order. There is no fallback: a kernel or route that
//!   cannot segment refuses every run, and the shard counts each refused
//!   datagram in `send_errors`.
//! * **Receiving a run.** A socket with `UDP_GRO` on ([`enable_gro`])
//!   keeps a run whole: one skb, charged once to the receive buffer, read
//!   by one `recvmsg` ([`recv_segments`]) whose `UDP_GRO` control message
//!   carries the segment size. A lone datagram arrives without one and is
//!   a run of one.
//!
//! `UDP_GRO` exists since Linux 5.0 (`UDP_SEGMENT` since 4.18), so the
//! host needs Linux ≥ 5.0; on an older kernel `enable_gro` fails and the
//! host does not bind. Linux only; `msghdr` and `cmsghdr` are laid out as
//! glibc lays them out.
#![allow(unsafe_code)]

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io;
use std::mem::size_of;
use std::net::{SocketAddr, SocketAddrV6, UdpSocket};
use std::os::fd::AsRawFd;
use std::ptr;
use std::time::Duration;

/// Most datagrams one `send_segments` call carries: `UDP_MAX_SEGMENTS` on
/// Linux 4.18, a cap later kernels only raised. Also the most segments
/// the kernel coalesces into one received run (`UDP_GRO_CNT_MAX`).
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

/// The control message a received run carries: `SOL_UDP` / `UDP_GRO` and
/// the segment size as an `int`. Its size is `CMSG_SPACE(4)`; `hdr.len`
/// is `CMSG_LEN(4)`.
#[repr(C)]
struct GroCmsg {
    hdr: CmsgHdr,
    segment_size: c_int,
}

const SOL_UDP: c_int = 17;
const UDP_SEGMENT: c_int = 103;
const UDP_GRO: c_int = 104;
const MSG_TRUNC: c_int = 0x20;

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
    assert!(
        size_of::<CmsgHdr>() + size_of::<c_int>() == 20,
        "CMSG_LEN(4)"
    );
    assert!(size_of::<GroCmsg>() == 24, "CMSG_SPACE(4)");
};

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        mask: *const c_void,
    ) -> c_int;

    fn sendmsg(fd: c_int, msg: *const MsgHdr, flags: c_int) -> isize;

    fn recvmsg(fd: c_int, msg: *mut MsgHdr, flags: c_int) -> isize;

    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_void, len: u32) -> c_int;
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
/// them as separate datagrams, in order, or with `UDP_GRO` on as one run.
/// All or nothing, like one `send_to`: on an error none of them left.
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

/// Turns on UDP generic receive offload: a run sent as one GSO `sendmsg`
/// reaches `socket` whole, for [`recv_segments`] to read in one call.
pub(crate) fn enable_gro(socket: &UdpSocket) -> io::Result<()> {
    let on: c_int = 1;
    // SAFETY: `on` is a live `int` for the whole call and the length
    // passed is its size; the kernel only reads it, and validates the
    // descriptor, which `socket` keeps open.
    let rc = unsafe {
        setsockopt(
            socket.as_raw_fd(),
            SOL_UDP,
            UDP_GRO,
            ptr::from_ref(&on).cast(),
            size_of::<c_int>() as u32,
        )
    };
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(())
    }
}

/// What one [`recv_segments`] call read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    /// Bytes written to the buffer: the run's segments back to back.
    pub(crate) len: usize,
    /// Where the bytes are cut: every segment but the last is this long
    /// (the last may be shorter). A lone datagram is a run of one, so
    /// this is `len`.
    pub(crate) segment_size: usize,
    /// Who sent it.
    pub(crate) from: SocketAddr,
    /// The run was longer than the buffer and its tail is lost
    /// (`MSG_TRUNC`).
    pub(crate) truncated: bool,
}

/// Reads the next queued run — or lone datagram — into `buf` with one
/// `recvmsg(2)`. Fails as `recv_from` does: `WouldBlock` when a
/// non-blocking socket has nothing queued.
pub(crate) fn recv_segments(socket: &UdpSocket, buf: &mut [u8]) -> io::Result<Run> {
    let iov = IoVec {
        base: buf.as_mut_ptr().cast_const().cast(),
        len: buf.len(),
    };
    let mut name = Sockaddr {
        v6: SockaddrIn6 {
            family: 0,
            port: 0,
            flowinfo: 0,
            addr: [0; 16],
            scope_id: 0,
        },
    };
    let mut cmsg = GroCmsg {
        hdr: CmsgHdr {
            len: 0,
            level: 0,
            kind: 0,
        },
        segment_size: 0,
    };
    let mut msg = MsgHdr {
        name: ptr::from_mut(&mut name).cast_const().cast(),
        namelen: size_of::<Sockaddr>() as u32,
        iov: &iov,
        iovlen: 1,
        control: ptr::from_mut(&mut cmsg).cast_const().cast(),
        controllen: size_of::<GroCmsg>(),
        flags: 0,
    };
    // SAFETY: every pointer in `msg` is to a live, correctly laid-out
    // local or to `buf`, and each length covers exactly its buffer:
    // `namelen` the larger `Sockaddr` variant, `iov` all of `buf`,
    // `controllen` one `CMSG_SPACE(4)` message. The pointers the kernel
    // writes through (`name`, `buf`, `cmsg`) come from exclusive borrows
    // held across the call, and it writes no more than those lengths. It
    // validates the descriptor, which `socket` keeps open.
    let read = unsafe { recvmsg(socket.as_raw_fd(), &mut msg, 0) };
    let len = usize::try_from(read).map_err(|_| io::Error::last_os_error())?;
    let gro = msg.controllen >= size_of::<CmsgHdr>() + size_of::<c_int>()
        && cmsg.hdr.level == SOL_UDP
        && cmsg.hdr.kind == UDP_GRO;
    let segment_size = match usize::try_from(cmsg.segment_size) {
        Ok(size) if gro && size > 0 => size,
        _ => len,
    };
    // SAFETY: `name` was built whole as its larger variant, and the
    // kernel only overwrote bytes of it.
    let from = unsafe { socket_addr(&name) }?;
    Ok(Run {
        len,
        segment_size,
        from,
        truncated: msg.flags & MSG_TRUNC != 0,
    })
}

/// The sender address the kernel wrote into `name`.
///
/// # Safety
///
/// Every byte of `name` must be initialised, as when it is built as its
/// larger variant: then every field of either variant reads initialised
/// bytes, since both are integers and byte arrays without padding.
unsafe fn socket_addr(name: &Sockaddr) -> io::Result<SocketAddr> {
    // SAFETY: both variants start with the `u16` family, initialised by
    // the caller's guarantee.
    match unsafe { name.v4.family } {
        AF_INET => {
            // SAFETY: initialised by the caller's guarantee.
            let a = unsafe { name.v4 };
            Ok(SocketAddr::from((a.addr, u16::from_be(a.port))))
        }
        AF_INET6 => {
            // SAFETY: initialised by the caller's guarantee.
            let a = unsafe { name.v6 };
            Ok(SocketAddr::V6(SocketAddrV6::new(
                a.addr.into(),
                u16::from_be(a.port),
                a.flowinfo,
                a.scope_id,
            )))
        }
        family => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("sender of address family {family}"),
        )),
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
    /// on `bind` to another without `UDP_GRO` and reads them back one
    /// datagram each.
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

    /// Sends a full run of numbered 3-byte segments to a socket with
    /// `UDP_GRO` on, both bound on `bind`, and reads it back in one call.
    fn a_run_is_received_whole(bind: &str) {
        let tx = UdpSocket::bind(bind).unwrap();
        let rx = UdpSocket::bind(bind).unwrap();
        enable_gro(&rx).unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let run: Vec<[u8; 3]> = (0..MAX_SEGMENTS as u8).map(|i| [i, i, !i]).collect();
        send_segments(&tx, rx.local_addr().unwrap(), run.iter().map(|s| &s[..])).unwrap();
        let mut buf = [0u8; 4 * MAX_SEGMENTS];
        let got = recv_segments(&rx, &mut buf).unwrap();
        let expected = Run {
            len: 3 * MAX_SEGMENTS,
            segment_size: 3,
            from: tx.local_addr().unwrap(),
            truncated: false,
        };
        assert_eq!(got, expected);
        assert_eq!(&buf[..got.len], run.concat());
    }

    #[test]
    fn a_run_is_received_whole_over_ipv4() {
        a_run_is_received_whole("127.0.0.1:0");
    }

    #[test]
    fn a_run_is_received_whole_over_ipv6() {
        a_run_is_received_whole("[::1]:0");
    }

    #[test]
    fn a_lone_datagram_is_a_run_of_one() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        enable_gro(&rx).unwrap();
        rx.set_nonblocking(true).unwrap();
        let me = rx.local_addr().unwrap();
        rx.send_to(b"hello", me).unwrap();
        let mut buf = [0u8; 16];
        let got = recv_segments(&rx, &mut buf).unwrap();
        let expected = Run {
            len: 5,
            segment_size: 5,
            from: me,
            truncated: false,
        };
        assert_eq!(got, expected);
        assert_eq!(&buf[..5], b"hello");
        let err = recv_segments(&rx, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock, "{err}");
    }

    #[test]
    fn a_run_longer_than_the_buffer_is_marked_truncated() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        enable_gro(&rx).unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let me = rx.local_addr().unwrap();
        send_segments(&rx, me, [&b"abcd"[..], b"efgh"]).unwrap();
        let mut buf = [0u8; 6];
        let got = recv_segments(&rx, &mut buf).unwrap();
        assert!(got.truncated);
        assert_eq!((got.len, got.segment_size), (6, 4));
        assert_eq!(&buf, b"abcdef");
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

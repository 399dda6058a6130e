//! Binary wire codec for [`WireMessage`].
//!
//! A compact, explicit little-endian format (no serde reflection on the
//! wire): every datagram starts with a one-byte message tag, followed by
//! fixed-width fields. Probes are 13 bytes, replies at most 33 — small
//! enough that even the paper's PDAs-and-mobile-phones deployment target
//! would not blink.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! Probe        = 0x01 cp:u32 seq:u64
//! Reply(SAPP)  = 0x02 cp:u32 seq:u64 device:u32 pc:u64 p0:u32 p1:u32
//!                 (p0/p1 = last probers + 1; 0 encodes None)
//! Reply(DCPP)  = 0x03 cp:u32 seq:u64 device:u32 wait_nanos:u64
//! Bye          = 0x04 device:u32
//! (retired)    = 0x05 never reused: it once carried a CP-to-CP leave notice
//! Addressed    = 0x06 device:u32 <any of the above>
//! ```
//!
//! Tag `0x05` decodes as [`DecodeError::UnknownTag`]: no node can make a CP
//! declare a device absent on another CP's word, and a new message takes a
//! fresh tag so an old sender's datagram is never read as something else.
//!
//! The `Addressed` frame exists for the sharded presence host
//! ([`crate::ShardedHost`]): a plain [`Probe`] does not name its target
//! device (point-to-point transports address by socket), but a host
//! serving thousands of devices behind one socket per shard needs the
//! destination in the datagram. Replies travel back unwrapped — the
//! `probe.cp` field already identifies the prober on a shared socket.

use presence_core::{Bye, CpId, DeviceId, Probe, Reply, ReplyBody, WireMessage};
use presence_des::SimDuration;
use std::error::Error;
use std::fmt;

const TAG_PROBE: u8 = 0x01;
const TAG_REPLY_SAPP: u8 = 0x02;
const TAG_REPLY_DCPP: u8 = 0x03;
const TAG_BYE: u8 = 0x04;
const TAG_ADDRESSED: u8 = 0x06;

/// Longest datagram a receiver needs room for. Every encoding this module
/// can produce — including the 5-byte [`encode_addressed`] envelope —
/// fits with generous headroom (pinned by a proptest). Decoding accepts
/// exactly one encoding and rejects bytes after it
/// ([`DecodeError::TrailingBytes`]), so a longer datagram is never valid.
/// A receiver must read such a datagram whole to reject it: cut to this
/// size, one whose head is a valid message would be answered.
pub const MAX_DATAGRAM: usize = 256;

/// A datagram could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer was shorter than the message layout requires.
    Truncated,
    /// The leading tag byte is not a known message type.
    UnknownTag(u8),
    /// This many bytes followed a complete message.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "datagram truncated"),
            DecodeError::UnknownTag(t) => write!(f, "unknown message tag 0x{t:02x}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} bytes after the message"),
        }
    }
}

impl Error for DecodeError {}

/// Little-endian reader over a byte slice (replaces the `bytes` crate's
/// `Buf` so the runtime stays dependency-free).
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn get_u8(&mut self) -> Result<u8, DecodeError> {
        let (&b, rest) = self.buf.split_first().ok_or(DecodeError::Truncated)?;
        self.buf = rest;
        Ok(b)
    }

    fn get_u32_le(&mut self) -> Result<u32, DecodeError> {
        if self.buf.len() < 4 {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = self.buf.split_at(4);
        self.buf = rest;
        Ok(u32::from_le_bytes(head.try_into().expect("4 bytes")))
    }

    fn get_u64_le(&mut self) -> Result<u64, DecodeError> {
        if self.buf.len() < 8 {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = self.buf.split_at(8);
        self.buf = rest;
        Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
    }
}

fn put_prober(buf: &mut Vec<u8>, p: Option<CpId>) {
    // The wire format shifts ids by one so 0 can mean "no prober", which
    // reserves CpId(u32::MAX): the protocol never allocates it (CP ids are
    // small). Encoding it anyway degrades to "none" in release builds, but
    // is a caught invariant violation under test.
    debug_assert!(
        p.is_none_or(|c| c.0 != u32::MAX),
        "CpId(u32::MAX) is reserved by the wire format"
    );
    let encoded = p.and_then(|c| c.0.checked_add(1)).unwrap_or(0);
    buf.extend_from_slice(&encoded.to_le_bytes());
}

fn get_prober(v: u32) -> Option<CpId> {
    v.checked_sub(1).map(CpId)
}

/// Longest bare encoding: a SAPP reply.
const MAX_MESSAGE: usize = 33;

/// Encodes a message into a fresh buffer. The host itself appends to a
/// buffer it keeps instead.
#[must_use]
pub fn encode(msg: &WireMessage) -> Vec<u8> {
    let mut buf = Vec::with_capacity(MAX_MESSAGE);
    encode_into(&mut buf, msg);
    buf
}

/// Encodes a message wrapped in the device-addressed host frame into a
/// fresh buffer.
#[must_use]
pub fn encode_addressed(device: DeviceId, msg: &WireMessage) -> Vec<u8> {
    let mut buf = Vec::with_capacity(5 + MAX_MESSAGE);
    encode_addressed_into(&mut buf, device, msg);
    buf
}

/// Appends `msg` wrapped in the device-addressed host frame to `buf`.
pub(crate) fn encode_addressed_into(buf: &mut Vec<u8>, device: DeviceId, msg: &WireMessage) {
    buf.push(TAG_ADDRESSED);
    buf.extend_from_slice(&device.0.to_le_bytes());
    encode_into(buf, msg);
}

/// The one encoder: appends `msg`'s bytes to `buf`.
pub(crate) fn encode_into(buf: &mut Vec<u8>, msg: &WireMessage) {
    match msg {
        WireMessage::Probe(p) => {
            buf.push(TAG_PROBE);
            buf.extend_from_slice(&p.cp.0.to_le_bytes());
            buf.extend_from_slice(&p.seq.to_le_bytes());
        }
        WireMessage::Reply(r) => match r.body {
            ReplyBody::Sapp { pc, last_probers } => {
                buf.push(TAG_REPLY_SAPP);
                buf.extend_from_slice(&r.probe.cp.0.to_le_bytes());
                buf.extend_from_slice(&r.probe.seq.to_le_bytes());
                buf.extend_from_slice(&r.device.0.to_le_bytes());
                buf.extend_from_slice(&pc.to_le_bytes());
                put_prober(buf, last_probers[0]);
                put_prober(buf, last_probers[1]);
            }
            ReplyBody::Dcpp { wait } => {
                buf.push(TAG_REPLY_DCPP);
                buf.extend_from_slice(&r.probe.cp.0.to_le_bytes());
                buf.extend_from_slice(&r.probe.seq.to_le_bytes());
                buf.extend_from_slice(&r.device.0.to_le_bytes());
                buf.extend_from_slice(&wait.as_nanos().to_le_bytes());
            }
        },
        WireMessage::Bye(b) => {
            buf.push(TAG_BYE);
            buf.extend_from_slice(&b.device.0.to_le_bytes());
        }
    }
}

/// One datagram as a shard socket sees it: either a plain wire message or
/// one wrapped in the device-addressed host frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Datagram {
    /// A bare wire message (point-to-point transports, replies).
    Direct(WireMessage),
    /// A message addressed to one hosted device.
    Addressed(DeviceId, WireMessage),
}

/// Decodes one datagram, accepting both bare messages and the
/// device-addressed host frame, with no bytes after the message.
pub fn decode_datagram(buf: &[u8]) -> Result<Datagram, DecodeError> {
    match buf.first() {
        Some(&TAG_ADDRESSED) => {
            let mut r = Reader { buf: &buf[1..] };
            let device = DeviceId(r.get_u32_le()?);
            Ok(Datagram::Addressed(device, decode(r.buf)?))
        }
        _ => Ok(Datagram::Direct(decode(buf)?)),
    }
}

/// Decodes one bare message: exactly one encoding, no bytes after it.
fn decode(buf: &[u8]) -> Result<WireMessage, DecodeError> {
    let mut r = Reader { buf };
    let msg = read_message(&mut r)?;
    match r.buf.len() {
        0 => Ok(msg),
        n => Err(DecodeError::TrailingBytes(n)),
    }
}

/// Reads one message off the front of `r`.
fn read_message(r: &mut Reader<'_>) -> Result<WireMessage, DecodeError> {
    let tag = r.get_u8()?;
    match tag {
        TAG_PROBE => Ok(WireMessage::Probe(Probe {
            cp: CpId(r.get_u32_le()?),
            seq: r.get_u64_le()?,
        })),
        TAG_REPLY_SAPP => {
            let cp = CpId(r.get_u32_le()?);
            let seq = r.get_u64_le()?;
            let device = DeviceId(r.get_u32_le()?);
            let pc = r.get_u64_le()?;
            let p0 = get_prober(r.get_u32_le()?);
            let p1 = get_prober(r.get_u32_le()?);
            Ok(WireMessage::Reply(Reply {
                probe: Probe { cp, seq },
                device,
                body: ReplyBody::Sapp {
                    pc,
                    last_probers: [p0, p1],
                },
            }))
        }
        TAG_REPLY_DCPP => {
            let cp = CpId(r.get_u32_le()?);
            let seq = r.get_u64_le()?;
            let device = DeviceId(r.get_u32_le()?);
            let wait = SimDuration::from_nanos(r.get_u64_le()?);
            Ok(WireMessage::Reply(Reply {
                probe: Probe { cp, seq },
                device,
                body: ReplyBody::Dcpp { wait },
            }))
        }
        TAG_BYE => Ok(WireMessage::Bye(Bye {
            device: DeviceId(r.get_u32_le()?),
        })),
        other => Err(DecodeError::UnknownTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: WireMessage) {
        let bytes = encode(&msg);
        let back = decode(&bytes).expect("decode");
        assert_eq!(back, msg, "roundtrip mismatch");
    }

    #[test]
    fn probe_roundtrip() {
        roundtrip(WireMessage::Probe(Probe {
            cp: CpId(7),
            seq: u64::MAX,
        }));
    }

    #[test]
    fn sapp_reply_roundtrip() {
        roundtrip(WireMessage::Reply(Reply {
            probe: Probe {
                cp: CpId(0),
                seq: 42,
            },
            device: DeviceId(3),
            body: ReplyBody::Sapp {
                pc: 123_456_789_000,
                last_probers: [Some(CpId(0)), None],
            },
        }));
        roundtrip(WireMessage::Reply(Reply {
            probe: Probe {
                cp: CpId(9),
                seq: 0,
            },
            device: DeviceId(0),
            body: ReplyBody::Sapp {
                pc: 0,
                last_probers: [None, None],
            },
        }));
    }

    #[test]
    fn dcpp_reply_roundtrip() {
        roundtrip(WireMessage::Reply(Reply {
            probe: Probe {
                cp: CpId(1),
                seq: 2,
            },
            device: DeviceId(0),
            body: ReplyBody::Dcpp {
                wait: SimDuration::from_millis(500),
            },
        }));
    }

    #[test]
    fn bye_roundtrip() {
        roundtrip(WireMessage::Bye(Bye {
            device: DeviceId(5),
        }));
    }

    #[test]
    fn retired_notice_tag_is_unknown() {
        // The 9-byte layout tag 0x05 once carried: device 5, reporter 2.
        assert_eq!(
            decode(&[0x05, 5, 0, 0, 0, 2, 0, 0, 0]),
            Err(DecodeError::UnknownTag(0x05))
        );
    }

    #[test]
    fn prober_zero_id_distinct_from_none() {
        // CpId(0) must decode as Some(CpId(0)), not None.
        let msg = WireMessage::Reply(Reply {
            probe: Probe {
                cp: CpId(1),
                seq: 1,
            },
            device: DeviceId(0),
            body: ReplyBody::Sapp {
                pc: 1,
                last_probers: [Some(CpId(0)), Some(CpId(0))],
            },
        });
        roundtrip(msg);
    }

    #[test]
    fn truncated_rejected() {
        let bytes = encode(&WireMessage::Probe(Probe {
            cp: CpId(1),
            seq: 1,
        }));
        for n in 0..bytes.len() {
            assert_eq!(
                decode(&bytes[..n]),
                Err(DecodeError::Truncated),
                "prefix of {n} bytes accepted"
            );
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(decode(&[0xff, 0, 0, 0]), Err(DecodeError::UnknownTag(0xff)));
    }

    #[test]
    fn probe_is_13_bytes() {
        let bytes = encode(&WireMessage::Probe(Probe {
            cp: CpId(1),
            seq: 1,
        }));
        assert_eq!(bytes.len(), 13);
    }

    #[test]
    fn addressed_frame_roundtrip() {
        let msg = WireMessage::Probe(Probe {
            cp: CpId(3),
            seq: 77,
        });
        let bytes = encode_addressed(DeviceId(42), &msg);
        assert_eq!(bytes.len(), 5 + 13);
        assert_eq!(
            decode_datagram(&bytes).unwrap(),
            Datagram::Addressed(DeviceId(42), msg)
        );
        // Bare messages pass through decode_datagram unchanged.
        assert_eq!(
            decode_datagram(&encode(&msg)).unwrap(),
            Datagram::Direct(msg)
        );
    }

    #[test]
    fn addressed_frame_truncations_rejected() {
        let bytes = encode_addressed(
            DeviceId(1),
            &WireMessage::Probe(Probe {
                cp: CpId(1),
                seq: 1,
            }),
        );
        for n in 0..bytes.len() {
            assert!(decode_datagram(&bytes[..n]).is_err(), "prefix {n} accepted");
        }
    }

    #[test]
    fn error_displays() {
        assert_eq!(DecodeError::Truncated.to_string(), "datagram truncated");
        assert!(DecodeError::UnknownTag(0xab).to_string().contains("0xab"));
        assert_eq!(
            DecodeError::TrailingBytes(3).to_string(),
            "3 bytes after the message"
        );
    }
}

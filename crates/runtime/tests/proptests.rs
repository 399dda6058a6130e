//! Property-based tests for the wire codec: every representable message
//! round-trips, and no byte mangling can cause a panic (only an error or a
//! wrong-but-well-formed message).

use presence_core::{Bye, CpId, DeviceId, Probe, Reply, ReplyBody, WireMessage};
use presence_des::SimDuration;
use presence_runtime::codec::{
    decode_datagram, encode, encode_addressed, Datagram, DecodeError, MAX_DATAGRAM,
};
use proptest::prelude::*;

fn any_prober() -> impl Strategy<Value = Option<CpId>> {
    prop_oneof![
        Just(None),
        // CpId(u32::MAX) is reserved: it would collide with the +1 "none"
        // encoding (the codec encodes it as "no prober"). Every other id,
        // including CpId(u32::MAX - 1) which encodes as u32::MAX, must
        // round-trip.
        (0u32..u32::MAX).prop_map(|v| Some(CpId(v))),
    ]
}

fn any_message() -> impl Strategy<Value = WireMessage> {
    prop_oneof![
        (any::<u32>(), any::<u64>())
            .prop_map(|(cp, seq)| { WireMessage::Probe(Probe { cp: CpId(cp), seq }) }),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            any_prober(),
            any_prober(),
        )
            .prop_map(|(cp, seq, dev, pc, p0, p1)| {
                WireMessage::Reply(Reply {
                    probe: Probe { cp: CpId(cp), seq },
                    device: DeviceId(dev),
                    body: ReplyBody::Sapp {
                        pc,
                        last_probers: [p0, p1],
                    },
                })
            }),
        (any::<u32>(), any::<u64>(), any::<u32>(), any::<u64>()).prop_map(
            |(cp, seq, dev, wait)| {
                WireMessage::Reply(Reply {
                    probe: Probe { cp: CpId(cp), seq },
                    device: DeviceId(dev),
                    body: ReplyBody::Dcpp {
                        wait: SimDuration::from_nanos(wait),
                    },
                })
            }
        ),
        any::<u32>().prop_map(|d| WireMessage::Bye(Bye {
            device: DeviceId(d)
        })),
    ]
}

proptest! {
    /// encode → decode is the identity for every representable message.
    #[test]
    fn roundtrip(msg in any_message()) {
        let bytes = encode(&msg);
        let back = decode_datagram(&bytes).expect("decode");
        prop_assert_eq!(back, Datagram::Direct(msg));
    }

    /// Decoding arbitrary bytes never panics.
    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode_datagram(&bytes);
    }

    /// Every strict prefix of a valid encoding is rejected as truncated
    /// (no partial message is ever accepted as complete).
    #[test]
    fn prefixes_rejected(msg in any_message()) {
        let bytes = encode(&msg);
        for n in 0..bytes.len() {
            prop_assert!(decode_datagram(&bytes[..n]).is_err(), "prefix {n} accepted");
        }
    }

    /// Any bytes after a complete message make the datagram invalid, bare
    /// or addressed: a datagram is exactly one encoding, so an over-long
    /// one is never answered for the message at its head.
    #[test]
    fn trailing_bytes_rejected(msg in any_message(), dev in any::<u32>(), extra in prop::collection::vec(any::<u8>(), 1..300)) {
        let trailing = DecodeError::TrailingBytes(extra.len());
        let mut bare = encode(&msg);
        bare.extend(&extra);
        prop_assert_eq!(decode_datagram(&bare), Err(trailing.clone()));
        let mut addressed = encode_addressed(DeviceId(dev), &msg);
        addressed.extend(&extra);
        prop_assert_eq!(decode_datagram(&addressed), Err(trailing));
    }

    /// Encodings have exactly the documented fixed width per variant
    /// (module docs: probes 13 bytes, replies at most 33).
    #[test]
    fn encoding_length_matches_layout(msg in any_message()) {
        let expected = match &msg {
            WireMessage::Probe(_) => 13,
            WireMessage::Reply(r) => match r.body {
                ReplyBody::Sapp { .. } => 33,
                ReplyBody::Dcpp { .. } => 25,
            },
            WireMessage::Bye(_) => 5,
        };
        prop_assert_eq!(encode(&msg).len(), expected);
    }

    /// Flipping any single byte of a valid encoding never panics the
    /// decoder: the result is an error or a (possibly different) message.
    #[test]
    fn single_byte_corruption_never_panics(msg in any_message(), pos in any::<u64>(), flip in 1u8..=255) {
        let mut bytes = encode(&msg).to_vec();
        let idx = (pos % bytes.len() as u64) as usize;
        bytes[idx] ^= flip;
        let _ = decode_datagram(&bytes);
    }

    /// Encoding is injective: two messages that differ produce different
    /// byte strings (otherwise decode could not be the identity).
    #[test]
    fn encode_is_injective(a in any_message(), b in any_message()) {
        if a != b {
            prop_assert_ne!(encode(&a), encode(&b));
        }
    }

    /// Every encoding this codec can produce — bare or wrapped in the
    /// device-addressed host frame — fits in `MAX_DATAGRAM`, the room a
    /// receiver keeps per datagram.
    #[test]
    fn every_encoding_fits_the_receive_buffer(msg in any_message(), dev in any::<u32>()) {
        prop_assert!(encode(&msg).len() <= MAX_DATAGRAM);
        prop_assert!(encode_addressed(DeviceId(dev), &msg).len() <= MAX_DATAGRAM);
    }

    /// The addressed host frame round-trips for every message and target
    /// device.
    #[test]
    fn addressed_frame_roundtrips(msg in any_message(), dev in any::<u32>()) {
        let bytes = encode_addressed(DeviceId(dev), &msg);
        let back = decode_datagram(&bytes).expect("decode addressed");
        prop_assert_eq!(back, Datagram::Addressed(DeviceId(dev), msg));
    }
}

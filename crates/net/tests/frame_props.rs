//! Property tests for the full `Frame` codec: every variant round-trips
//! through payload encoding and stream I/O, and
//! adversarial inputs — truncation, byte corruption, random bytes,
//! absurd length/count prefixes — always yield a decode *error*, never a
//! panic or a huge speculative allocation.

use std::io::Cursor;
use std::sync::Arc;

use muppet_core::codec;
use muppet_core::event::{Event, Key};
use muppet_core::Codec;
use muppet_net::frame::{
    FlushItem, Frame, MembershipPhase, MembershipUpdate, WireEvent, MAX_FORWARDS, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
use muppet_net::topology::NodeSpec;
use proptest::prelude::*;

fn arb_event() -> impl Strategy<Value = Event> {
    (
        "[A-Za-z][A-Za-z0-9_]{0,11}",
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..48),
        proptest::collection::vec(any::<u8>(), 0..256),
        any::<u64>(),
    )
        .prop_map(|(stream, ts, key, value, seq)| {
            let mut event = Event::new(stream.as_str(), ts, Key::from(key), value);
            event.seq = seq;
            event
        })
}

fn arb_wire_event() -> impl Strategy<Value = WireEvent> {
    (
        arb_event(),
        0usize..256,
        any::<u64>(),
        any::<bool>(),
        any::<bool>(),
        proptest::option::of(0u64..1024),
        0u8..=MAX_FORWARDS,
    )
        .prop_map(|(event, op, injected_us, redirected, external, hint, forwards)| WireEvent {
            op,
            event,
            injected_us,
            redirected,
            external,
            thread_hint: hint.map(|t| t as usize),
            forwards,
        })
}

fn arb_node_spec() -> impl Strategy<Value = NodeSpec> {
    (0usize..64, "[a-z0-9.\\-]{1,24}", any::<u16>(), any::<u16>())
        .prop_map(|(id, host, port, http_port)| NodeSpec { id, host, port, http_port })
}

fn arb_membership() -> impl Strategy<Value = MembershipUpdate> {
    (
        any::<u64>(),
        0u8..3,
        proptest::collection::vec(0usize..64, 0..4),
        proptest::collection::vec(arb_node_spec(), 0..6),
    )
        .prop_map(|(epoch, phase, joined, nodes)| MembershipUpdate {
            epoch,
            phase: match phase {
                0 => MembershipPhase::Prepare,
                1 => MembershipPhase::Commit,
                _ => MembershipPhase::Abort,
            },
            joined,
            members: Vec::new(),
            nodes,
        })
}

fn arb_membership_with_members() -> impl Strategy<Value = MembershipUpdate> {
    (arb_membership(), proptest::collection::vec(0usize..64, 0..8))
        .prop_map(|(update, members)| MembershipUpdate { members, ..update })
}

fn arb_opt_bytes() -> impl Strategy<Value = Option<Vec<u8>>> {
    proptest::option::of(proptest::collection::vec(any::<u8>(), 0..64))
}

fn arb_codec() -> impl Strategy<Value = Codec> {
    prop_oneof![Just(Codec::Json), Just(Codec::Mbf)]
}

fn arb_store_put_item() -> impl Strategy<Value = FlushItem> {
    (
        "[a-z][a-z0-9_-]{0,15}",
        proptest::collection::vec(any::<u8>(), 0..48),
        proptest::collection::vec(any::<u8>(), 0..128),
        proptest::option::of(any::<u64>()),
        arb_codec(),
    )
        .prop_map(|(updater, key, value, ttl_secs, codec)| FlushItem {
            updater: updater.into(),
            key: Key::from(key),
            bytes: value.into(),
            codec,
            ttl_secs,
        })
}

fn arb_store_get_item() -> impl Strategy<Value = (Arc<str>, Key)> {
    ("[a-z][a-z0-9_-]{0,15}", proptest::collection::vec(any::<u8>(), 0..48))
        .prop_map(|(updater, key)| (updater.into(), Key::from(key)))
}

/// Exactly the 16 variants (the enum match in
/// `every_variant_is_generated` fails to compile when one is added).
fn arb_frame() -> BoxedStrategy<Frame> {
    let updater = "[a-z][a-z0-9_-]{0,15}";
    prop_oneof![
        // Only a current-version hello round-trips: any other version
        // decodes with nothing but its version (see the hello properties).
        (0usize..64).prop_map(Frame::hello),
        Just(Frame::HelloAck),
        proptest::collection::vec((arb_wire_event(), arb_absorbed()), 0..12)
            .prop_map(Frame::Events),
        (0usize..64, any::<u64>())
            .prop_map(|(failed, epoch)| Frame::FailureReport { failed, epoch }),
        (0usize..64, any::<u64>())
            .prop_map(|(failed, epoch)| Frame::FailureBroadcast { failed, epoch }),
        (0usize..64).prop_map(|machine| Frame::Join { machine }),
        arb_membership_with_members().prop_map(Frame::Membership),
        (any::<u64>(), any::<bool>())
            .prop_map(|(epoch, accepted)| Frame::MembershipReply { epoch, accepted }),
        (updater, proptest::collection::vec(any::<u8>(), 0..48))
            .prop_map(|(updater, key)| Frame::SlateGet { updater, key }),
        arb_opt_bytes().prop_map(|value| Frame::SlateValue { value }),
        (proptest::collection::vec(arb_store_put_item(), 0..8), any::<u64>())
            .prop_map(|(items, now_us)| Frame::StorePut { items, now_us }),
        proptest::collection::vec(any::<bool>(), 0..32).prop_map(|ok| Frame::StoreAck { ok }),
        (proptest::collection::vec(arb_store_get_item(), 0..8), any::<u64>())
            .prop_map(|(items, now_us)| Frame::StoreGet { items, now_us }),
        proptest::collection::vec(arb_opt_bytes(), 0..8)
            .prop_map(|values| Frame::StoreValue { values }),
        (0usize..64).prop_map(|machine| Frame::Reintroduce { machine }),
        any::<u64>().prop_map(|epoch| Frame::ReintroduceAck { epoch }),
    ]
    .boxed()
}

/// Absorbed counts: mostly the uncombined 1, plus the whole flagged range.
fn arb_absorbed() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1u64), 2u64..=4, 2u64..=u64::MAX]
}

/// Which of the 16 variants `frame` is.
fn variant_index(frame: &Frame) -> usize {
    match frame {
        Frame::Hello { .. } => 0,
        Frame::HelloAck => 1,
        Frame::Events(_) => 2,
        Frame::FailureReport { .. } => 3,
        Frame::FailureBroadcast { .. } => 4,
        Frame::Join { .. } => 5,
        Frame::Membership(_) => 6,
        Frame::MembershipReply { .. } => 7,
        Frame::SlateGet { .. } => 8,
        Frame::SlateValue { .. } => 9,
        Frame::StorePut { .. } => 10,
        Frame::StoreAck { .. } => 11,
        Frame::StoreGet { .. } => 12,
        Frame::StoreValue { .. } => 13,
        Frame::Reintroduce { .. } => 14,
        Frame::ReintroduceAck { .. } => 15,
    }
}

#[test]
fn every_variant_is_generated() {
    let mut rng = TestRng::from_label("every_variant_is_generated", 0);
    let mut seen = [false; 16];
    for _ in 0..2_000 {
        seen[variant_index(&arb_frame().generate(&mut rng))] = true;
    }
    assert_eq!(seen, [true; 16], "arb_frame misses a variant");
}

proptest! {
    #[test]
    fn every_variant_roundtrips_through_payload_and_stream(frame in arb_frame()) {
        // Payload-level roundtrip.
        let payload = frame.encode_payload();
        prop_assert_eq!(Frame::decode_payload(&payload), Some(frame.clone()));
        // Stream-level roundtrip (header + CRC + payload).
        let mut wire = Vec::new();
        frame.write_to(&mut wire).unwrap();
        let back = Frame::read_from(&mut Cursor::new(&wire)).unwrap();
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn framed_sequences_roundtrip_in_order(frames in proptest::collection::vec(arb_frame(), 1..8)) {
        let mut wire = Vec::new();
        for frame in &frames {
            frame.write_to(&mut wire).unwrap();
        }
        let mut cursor = Cursor::new(&wire);
        for frame in &frames {
            prop_assert_eq!(&Frame::read_from(&mut cursor).unwrap(), frame);
        }
    }

    #[test]
    fn truncation_is_an_error_never_a_panic(frame in arb_frame(), cut in any::<u64>()) {
        let mut wire = Vec::new();
        frame.write_to(&mut wire).unwrap();
        // Any strict prefix must fail to read (EOF or decode error).
        let cut = (cut as usize) % wire.len();
        wire.truncate(cut);
        prop_assert!(Frame::read_from(&mut Cursor::new(&wire)).is_err());
    }

    #[test]
    fn payload_truncation_is_a_decode_error(frame in arb_frame(), cut in any::<u64>()) {
        let payload = frame.encode_payload();
        let cut = (cut as usize) % payload.len();
        // decode_payload must reject every strict prefix: either the
        // fields run out of bytes or the trailing-consumption check
        // fires. Never a panic.
        prop_assert_eq!(Frame::decode_payload(&payload[..cut]), None);
    }

    #[test]
    fn byte_corruption_is_detected(frame in arb_frame(), at in any::<u64>(), flip in 1u8..=255) {
        let mut wire = Vec::new();
        frame.write_to(&mut wire).unwrap();
        let at = (at as usize) % wire.len();
        wire[at] ^= flip;
        // A corrupted length prefix desyncs the stream (read error / EOF);
        // a corrupted CRC or payload byte trips the checksum. Either way:
        // an error, not a wrong frame and not a panic.
        prop_assert!(Frame::read_from(&mut Cursor::new(&wire)).is_err());
    }

    #[test]
    fn random_bytes_never_panic_the_payload_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Whatever comes back must be reached without panicking; random
        // bytes decoding to Some(frame) would be fine (and wildly
        // unlikely past the kind byte), the property is "total, no UB-ish
        // surprises, no over-allocation".
        let _ = Frame::decode_payload(&bytes);
    }

    #[test]
    fn random_bytes_never_panic_the_stream_reader(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Frame::read_from(&mut Cursor::new(&bytes));
    }

    #[test]
    fn absurd_length_prefixes_are_rejected_before_allocating(len in any::<u32>(), crc in any::<u32>()) {
        // A header claiming up to 4 GiB of payload with no body: must be
        // rejected (over the frame limit) or fail on EOF — and must not
        // try to allocate the claimed length when it exceeds the limit.
        let mut wire = Vec::new();
        codec::put_u32(&mut wire, len);
        codec::put_u32(&mut wire, crc);
        let err = Frame::read_from(&mut Cursor::new(&wire)).unwrap_err();
        if len as usize > MAX_FRAME_BYTES {
            prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn absurd_run_counts_are_rejected_without_allocating(
        kind in prop_oneof![Just(25u8), Just(22), Just(17), Just(18), Just(19)],
        count in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        // The five counted kinds (Events, StorePut, StoreAck, StoreGet,
        // StoreValue) with an arbitrary count varint and a junk body: the
        // per-item decode runs out of bytes and the pre-allocation is
        // capped by the buffer length — no panic, no huge reserve, and a
        // count the body cannot hold is a decode error.
        let mut payload = vec![kind];
        codec::put_varint(&mut payload, count);
        payload.extend_from_slice(&body);
        let decoded = Frame::decode_payload(&payload);
        if count > body.len() as u64 {
            prop_assert_eq!(decoded, None);
        }
    }

    #[test]
    fn retired_and_unassigned_kinds_never_decode(
        nth in 0usize..240,
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        const SURVIVING: [u8; 16] = [1, 3, 4, 5, 6, 12, 13, 14, 17, 18, 19, 20, 21, 22, 24, 25];
        let kind = (0..=u8::MAX).filter(|k| !SURVIVING.contains(k)).nth(nth).unwrap();
        let mut payload = vec![kind];
        payload.extend_from_slice(&body);
        prop_assert_eq!(Frame::decode_payload(&payload), None);
    }

    #[test]
    fn a_hello_of_another_version_keeps_only_its_version(
        version in any::<u64>(),
        tail in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let version = if version == PROTOCOL_VERSION { version + 1 } else { version };
        let mut payload = vec![1u8];
        codec::put_varint(&mut payload, version);
        payload.extend_from_slice(&tail);
        prop_assert_eq!(
            Frame::decode_payload(&payload),
            Some(Frame::Hello { sender: 0, version })
        );
    }

    #[test]
    fn absurd_membership_counts_are_rejected_without_allocating(
        epoch in any::<u64>(),
        joined_count in any::<u64>(),
        node_count in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        // KIND_MEMBERSHIP = 13: corrupt joined/node counts with a junk
        // body must fail cleanly — the per-entry decode runs out of bytes
        // and the pre-allocations are capped by the buffer length.
        let mut payload = vec![13u8];
        codec::put_varint(&mut payload, epoch);
        payload.push(0); // prepare
        codec::put_varint(&mut payload, joined_count);
        codec::put_varint(&mut payload, node_count);
        payload.extend_from_slice(&body);
        let _ = Frame::decode_payload(&payload);
    }
}

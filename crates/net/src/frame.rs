//! Wire frames.
//!
//! Every message on a muppet connection is one length-prefixed frame:
//!
//! ```text
//! [u32 LE payload length][u32 LE crc32c(payload)][payload]
//! payload = [u8 kind][kind-specific fields]
//! ```
//!
//! Fields reuse `muppet-core::codec` primitives (varints, length-prefixed
//! byte strings, the event wire encoding). The CRC catches corruption and
//! desynchronization; decoding is bounds-checked throughout and never
//! panics on malformed input.

use std::borrow::Cow;
use std::io::{self, Read, Write};

use bytes::Bytes;
use muppet_core::codec::{
    self, get_event, get_len_prefixed, get_opt_bytes, get_opt_varint, get_varint, put_event,
    put_len_prefixed, put_opt_bytes, put_opt_varint, put_varint,
};
use muppet_core::event::Event;
use muppet_core::workflow::OpId;
use muppet_core::{mbf, Codec, Json};

use crate::topology::NodeSpec;
use crate::transport::MachineId;

/// Refuse frames larger than this (corrupt length prefixes otherwise
/// trigger absurd allocations).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// An event in flight between machines, with the routing metadata the
/// receiving engine needs to finish delivery.
#[derive(Clone, Debug, PartialEq)]
pub struct WireEvent {
    /// Destination operator.
    pub op: OpId,
    /// The event itself.
    pub event: Event,
    /// Sender-engine-relative µs at external injection (approximate across
    /// processes; see DESIGN.md §5).
    pub injected_us: u64,
    /// Already redirected to an overflow stream once (no double redirects).
    pub redirected: bool,
    /// Originated from an external `submit` (overflow policy distinguishes
    /// external from internal events, §5).
    pub external: bool,
    /// Muppet 1.0: the destination worker thread resolved by the sender's
    /// op rings (the worker layout is deterministic, so the hint is valid
    /// cluster-wide). `None` for Muppet 2.0 two-choice dispatch at the
    /// receiver.
    pub thread_hint: Option<usize>,
    /// Times this event has been forwarded by a machine that no longer
    /// owned its key (elastic handoff / laggard rings). Capped at
    /// [`MAX_FORWARDS`] on the wire; receivers drop-and-log beyond it so
    /// disagreeing rings can never ping-pong an event forever.
    pub forwards: u8,
}

/// Hop bound for ownership forwarding (3 bits in the wire flags byte).
pub const MAX_FORWARDS: u8 = 7;

/// Which step of the membership protocol a [`MembershipUpdate`] carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipPhase {
    /// Stage the candidate rings and flush moved-away dirty slates, then
    /// ack (request/response — the handoff barrier).
    Prepare,
    /// Install the staged epoch (one-way).
    Commit,
    /// Discard the staged epoch: the join was aborted before commit
    /// (one-way). Prepared nodes revert to their committed rings; the
    /// already-flushed slates fault back in from the store.
    Abort,
}

/// An epoch-stamped membership change in flight between the master and
/// the workers (elastic scale-out; DESIGN.md §7).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MembershipUpdate {
    /// The epoch this update creates (or, for an abort, discards).
    pub epoch: u64,
    /// Prepare, commit, or abort.
    pub phase: MembershipPhase,
    /// Machine ids entering the rings at this epoch.
    pub joined: Vec<MachineId>,
    /// The complete committed ring membership *after* this epoch — not
    /// just the delta. A worker that missed an earlier epoch heals from
    /// this: any member absent from its rings is (re-)added when the
    /// update stages, so one lost frame can never diverge membership
    /// forever.
    pub members: Vec<MachineId>,
    /// The full cluster node list (workers learn new peers' addresses
    /// from here; ids are contiguous and include not-yet-joined
    /// reservations).
    pub nodes: Vec<NodeSpec>,
}

/// One slate write inside a [`Frame::StorePut`] — the wire image of a
/// dirty-slate snapshot headed for the store host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StorePutItem {
    /// Update function (store column).
    pub updater: String,
    /// Event key (store row).
    pub key: Vec<u8>,
    /// Slate bytes — refcounted, so a flush snapshot moves from the
    /// slate cache into the frame without copying the payload.
    pub value: Bytes,
    /// Slate TTL, if the updater configured one.
    pub ttl_secs: Option<u64>,
    /// Payload format of `value`. Travels with every item: the store may
    /// compress the bytes, after which they can no longer be sniffed.
    pub codec: Codec,
}

/// One slate read inside a [`Frame::StoreGet`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreGetItem {
    /// Update function (store column).
    pub updater: String,
    /// Event key (store row).
    pub key: Vec<u8>,
}

/// One protocol message. DESIGN.md §5 has the kind table (byte,
/// direction, reply).
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Connection preamble, always the first frame: protocol version,
    /// sender machine, and the codec capabilities the dialer offers
    /// ([`CODEC_MBF`] bit). A hello of another version decodes with only
    /// its `version` filled in, so the receiver can name what it refuses.
    Hello { sender: MachineId, version: u64, codecs: u8 },
    /// Reply to every accepted [`Frame::Hello`], carrying the receiver's
    /// codec capabilities; the intersection of offered and acked bits is
    /// the connection's negotiated codec.
    HelloAck { codecs: u8 },
    /// Deliver a run of events (one-way; losses surface as connection
    /// errors). One frame header, one CRC, one syscall for the whole run —
    /// the amortization that makes the wire keep up with the firehose
    /// (§4.1). Each entry carries the number of original same-⟨op,key⟩
    /// events its payload absorbed through the operator's declared
    /// associative combiner (map-side pre-aggregation in the sender
    /// outbox), so the receiver can account for original events without
    /// unfolding; an uncombined event is the case `absorbed == 1`.
    Events(Vec<(WireEvent, u64)>),
    /// Worker → master: `failed` was unreachable on send (§4.3), observed
    /// under membership `epoch` (stale-epoch reports about a re-joined id
    /// are rejected by the master).
    FailureReport { failed: MachineId, epoch: u64 },
    /// Master → everyone: drop `failed` from all hash rings (§4.3),
    /// stamped with the epoch the failure was accepted under.
    FailureBroadcast { failed: MachineId, epoch: u64 },
    /// Joiner → master: machine `machine` (previously reserved via the
    /// HTTP `/join` admin call) is live and ready to enter the rings.
    Join { machine: MachineId },
    /// Master → workers: an epoch-stamped membership change (prepare,
    /// commit or abort; see [`MembershipUpdate`]).
    Membership(MembershipUpdate),
    /// Worker → master reply to a [`Frame::Membership`] prepare. Accepted:
    /// the epoch is staged and moved-away dirty slates were flushed before
    /// this reply. Refused (e.g. a newer epoch already staged): the master
    /// fails fast instead of burning a reply timeout and misreading a
    /// healthy worker as dead.
    MembershipReply { epoch: u64, accepted: bool },
    /// Request the live cached slate of ⟨updater, key⟩ (§4.4 remote read).
    SlateGet { updater: String, key: Vec<u8> },
    /// Response to [`Frame::SlateGet`].
    SlateValue { value: Option<Vec<u8>> },
    /// Persist a run of slates on the store-hosting node in ONE framed
    /// round trip (the §4.2 write-behind flush: a tick's dirty set crosses
    /// the wire as one frame, one CRC, one syscall). A single slate is a
    /// run of one.
    StorePut { items: Vec<StorePutItem>, now_us: u64 },
    /// Response to [`Frame::StorePut`]: per-item success, in order (false
    /// = the store refused that cell; the sender keeps it dirty).
    StoreAck { ok: Vec<bool> },
    /// Load a run of slates from the store-hosting node in one round trip.
    StoreGet { items: Vec<StoreGetItem>, now_us: u64 },
    /// Response to [`Frame::StoreGet`]: per-item values, in order. No
    /// codec tag: values come back uncompressed, and the MBF magic byte is
    /// sniffable.
    StoreValue { values: Vec<Option<Vec<u8>>> },
    /// A restarted incarnation of `machine` re-identifying itself (crash
    /// recovery): the receiver clears its §4.3 death-ledger entry, marks
    /// the machine routable again, and — on the master — re-runs the
    /// join protocol so the returning node regains its ring position.
    Reintroduce { machine: usize },
    /// Response to [`Frame::Reintroduce`]: the receiver's membership
    /// epoch, so the returning node can fence itself.
    ReintroduceAck { epoch: u64 },
}

/// Protocol version carried in [`Frame::Hello`]; the only one a node
/// speaks (DESIGN.md §5).
pub const PROTOCOL_VERSION: u64 = 7;

/// Codec-capability bit in the hello/ack `codecs` byte: the peer can
/// decode MBF payloads in event values and store frames.
pub const CODEC_MBF: u8 = 0b0000_0001;

// Kind bytes are never renumbered and a retired byte (2, 7–11, 15, 16, 23)
// is never reused.
const KIND_HELLO: u8 = 1;
const KIND_FAILURE_REPORT: u8 = 3;
const KIND_FAILURE_BROADCAST: u8 = 4;
const KIND_SLATE_GET: u8 = 5;
const KIND_SLATE_VALUE: u8 = 6;
const KIND_JOIN: u8 = 12;
const KIND_MEMBERSHIP: u8 = 13;
const KIND_MEMBERSHIP_REPLY: u8 = 14;
const KIND_STORE_ACK: u8 = 17;
const KIND_STORE_GET: u8 = 18;
const KIND_STORE_VALUE: u8 = 19;
const KIND_REINTRODUCE: u8 = 20;
const KIND_REINTRODUCE_ACK: u8 = 21;
const KIND_STORE_PUT: u8 = 22;
const KIND_HELLO_ACK: u8 = 24;
const KIND_EVENTS: u8 = 25;

/// The encoded floor of one event inside a batch (op + injected_us +
/// flags + hint tag + the event's own fixed fields) — used to bound the
/// batch-vector pre-allocation against corrupt counts.
const MIN_WIRE_EVENT_BYTES: usize = 8;

/// Wire-event flags bit 5: the entry absorbed more than itself, and its
/// count follows the event. Bits 0–1 are `redirected`/`external`, 2–4 the
/// forwarding hop count.
const FLAG_ABSORBED: u8 = 1 << 5;

fn codec_byte(codec: Codec) -> u8 {
    match codec {
        Codec::Json => 0,
        Codec::Mbf => 1,
    }
}

fn codec_from_byte(byte: u8) -> Option<Codec> {
    match byte {
        0 => Some(Codec::Json),
        1 => Some(Codec::Mbf),
        _ => None,
    }
}

/// `value` as it crosses a connection: unchanged when the connection
/// negotiated MBF, else any MBF payload re-encoded as canonical JSON
/// text. Bytes that are not MBF, or fail to decode, travel as-is (payloads
/// are opaque to the wire).
fn wire_value(value: &[u8], allow_mbf: bool) -> Cow<'_, [u8]> {
    if !allow_mbf && mbf::is_mbf(value) {
        if let Ok(doc) = Json::from_mbf(value) {
            return Cow::Owned(doc.to_compact().into_bytes());
        }
    }
    Cow::Borrowed(value)
}

/// An optional slate value, transcoded for the connection by
/// [`wire_value`].
fn put_opt_value(out: &mut Vec<u8>, value: Option<&[u8]>, allow_mbf: bool) {
    put_opt_bytes(out, value.map(|bytes| wire_value(bytes, allow_mbf)).as_deref());
}

/// Encode one [`Frame::Events`] entry. An uncombined event (`absorbed ==
/// 1`) costs no count byte: the count rides behind [`FLAG_ABSORBED`].
fn put_wire_event(out: &mut Vec<u8>, ev: &WireEvent, absorbed: u64, allow_mbf: bool) {
    put_varint(out, ev.op as u64);
    put_varint(out, ev.injected_us);
    let mut flags = 0u8;
    if ev.redirected {
        flags |= 1;
    }
    if ev.external {
        flags |= 2;
    }
    // Bits 2..=4: the forwarding hop count, saturating at MAX_FORWARDS.
    flags |= ev.forwards.min(MAX_FORWARDS) << 2;
    if absorbed > 1 {
        flags |= FLAG_ABSORBED;
    }
    out.push(flags);
    put_opt_varint(out, ev.thread_hint.map(|t| t as u64));
    match wire_value(&ev.event.value, allow_mbf) {
        Cow::Borrowed(_) => put_event(out, &ev.event),
        Cow::Owned(json) => put_event(out, &Event { value: json.into(), ..ev.event.clone() }),
    }
    if absorbed > 1 {
        put_varint(out, absorbed);
    }
}

/// Decode one [`Frame::Events`] entry. Returns the event, its absorbed
/// count and the bytes consumed; `None` on malformed input.
fn get_wire_event(buf: &[u8]) -> Option<(WireEvent, u64, usize)> {
    let mut at = 0;
    let (op, n) = get_varint(buf)?;
    at += n;
    let (injected_us, n) = get_varint(&buf[at..])?;
    at += n;
    let flags = *buf.get(at)?;
    at += 1;
    let (hint, n) = get_opt_varint(&buf[at..])?;
    at += n;
    let (event, n) = get_event(&buf[at..])?;
    at += n;
    let absorbed = if flags & FLAG_ABSORBED != 0 {
        let (count, n) = get_varint(&buf[at..])?;
        at += n;
        // "Absorbed nothing" has one spelling: the unflagged entry.
        if count < 2 {
            return None;
        }
        count
    } else {
        1
    };
    Some((
        WireEvent {
            op: op as OpId,
            event,
            injected_us,
            redirected: flags & 1 != 0,
            external: flags & 2 != 0,
            thread_hint: hint.map(|t| t as usize),
            forwards: (flags >> 2) & 0x07,
        },
        absorbed,
        at,
    ))
}

fn put_node_spec(out: &mut Vec<u8>, node: &NodeSpec) {
    put_varint(out, node.id as u64);
    put_len_prefixed(out, node.host.as_bytes());
    put_varint(out, node.port as u64);
    put_varint(out, node.http_port as u64);
}

fn get_node_spec(buf: &[u8]) -> Option<(NodeSpec, usize)> {
    let mut at = 0;
    let (id, n) = get_varint(buf)?;
    at += n;
    let (host, n) = get_len_prefixed(&buf[at..])?;
    let host = std::str::from_utf8(host).ok()?.to_string();
    at += n;
    let (port, n) = get_varint(&buf[at..])?;
    if port > u16::MAX as u64 {
        return None;
    }
    at += n;
    let (http_port, n) = get_varint(&buf[at..])?;
    if http_port > u16::MAX as u64 {
        return None;
    }
    at += n;
    Some((
        NodeSpec { id: id as MachineId, host, port: port as u16, http_port: http_port as u16 },
        at,
    ))
}

/// The one events encoder: a [`Frame::Events`] payload from entries held
/// by reference (senders must not clone events just to build a `Frame`).
/// `allow_mbf` is the connection's negotiated codec: when false, any MBF
/// event value is transcoded to JSON text on the way out.
pub fn encode_events<'a>(
    entries: impl ExactSizeIterator<Item = (&'a WireEvent, u64)>,
    allow_mbf: bool,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 * entries.len().max(1));
    out.push(KIND_EVENTS);
    put_varint(&mut out, entries.len() as u64);
    for (ev, absorbed) in entries {
        put_wire_event(&mut out, ev, absorbed, allow_mbf);
    }
    out
}

/// [`encode_events`] over uncombined events.
pub fn encode_events_payload(events: &[WireEvent], allow_mbf: bool) -> Vec<u8> {
    encode_events(events.iter().map(|ev| (ev, 1)), allow_mbf)
}

impl Frame {
    /// A hello, offering MBF iff `offer_mbf`.
    pub fn hello(sender: MachineId, offer_mbf: bool) -> Frame {
        Frame::Hello {
            sender,
            version: PROTOCOL_VERSION,
            codecs: if offer_mbf { CODEC_MBF } else { 0 },
        }
    }

    /// Encode the payload (kind byte + fields), without the outer
    /// length/CRC header, for a connection that negotiated MBF.
    pub fn encode_payload(&self) -> Vec<u8> {
        self.encode_payload_for(true)
    }

    /// Encode the payload for a connection's negotiated codec. With
    /// `allow_mbf` false this is the one place an MBF payload becomes JSON
    /// text: event values, put items, store and slate values.
    pub fn encode_payload_for(&self, allow_mbf: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Frame::Hello { sender, version, codecs } => {
                out.push(KIND_HELLO);
                put_varint(&mut out, *version);
                put_varint(&mut out, *sender as u64);
                out.push(*codecs);
            }
            Frame::HelloAck { codecs } => {
                out.push(KIND_HELLO_ACK);
                out.push(*codecs);
            }
            Frame::Events(entries) => {
                return encode_events(entries.iter().map(|(ev, n)| (ev, *n)), allow_mbf);
            }
            Frame::FailureReport { failed, epoch } => {
                out.push(KIND_FAILURE_REPORT);
                put_varint(&mut out, *failed as u64);
                put_varint(&mut out, *epoch);
            }
            Frame::FailureBroadcast { failed, epoch } => {
                out.push(KIND_FAILURE_BROADCAST);
                put_varint(&mut out, *failed as u64);
                put_varint(&mut out, *epoch);
            }
            Frame::Join { machine } => {
                out.push(KIND_JOIN);
                put_varint(&mut out, *machine as u64);
            }
            Frame::Membership(update) => {
                out.push(KIND_MEMBERSHIP);
                put_varint(&mut out, update.epoch);
                out.push(match update.phase {
                    MembershipPhase::Prepare => 0,
                    MembershipPhase::Commit => 1,
                    MembershipPhase::Abort => 2,
                });
                put_varint(&mut out, update.joined.len() as u64);
                for &id in &update.joined {
                    put_varint(&mut out, id as u64);
                }
                put_varint(&mut out, update.members.len() as u64);
                for &id in &update.members {
                    put_varint(&mut out, id as u64);
                }
                put_varint(&mut out, update.nodes.len() as u64);
                for node in &update.nodes {
                    put_node_spec(&mut out, node);
                }
            }
            Frame::MembershipReply { epoch, accepted } => {
                out.push(KIND_MEMBERSHIP_REPLY);
                put_varint(&mut out, *epoch);
                out.push(u8::from(*accepted));
            }
            Frame::SlateGet { updater, key } => {
                out.push(KIND_SLATE_GET);
                put_len_prefixed(&mut out, updater.as_bytes());
                put_len_prefixed(&mut out, key);
            }
            Frame::SlateValue { value } => {
                out.push(KIND_SLATE_VALUE);
                put_opt_value(&mut out, value.as_deref(), allow_mbf);
            }
            Frame::StorePut { items, now_us } => {
                out.push(KIND_STORE_PUT);
                put_varint(&mut out, items.len() as u64);
                for item in items {
                    // A connection that cannot carry MBF cannot carry its
                    // tag either. Undecodable MBF then travels raw under
                    // the JSON tag; readers sniff payloads, so nothing is
                    // lost.
                    let downgrade = !allow_mbf && item.codec == Codec::Mbf;
                    put_len_prefixed(&mut out, item.updater.as_bytes());
                    put_len_prefixed(&mut out, &item.key);
                    put_len_prefixed(&mut out, &wire_value(&item.value, !downgrade));
                    put_opt_varint(&mut out, item.ttl_secs);
                    out.push(codec_byte(if downgrade { Codec::Json } else { item.codec }));
                }
                put_varint(&mut out, *now_us);
            }
            Frame::StoreAck { ok } => {
                out.push(KIND_STORE_ACK);
                put_varint(&mut out, ok.len() as u64);
                out.extend(ok.iter().map(|&b| u8::from(b)));
            }
            Frame::StoreGet { items, now_us } => {
                out.push(KIND_STORE_GET);
                put_varint(&mut out, items.len() as u64);
                for item in items {
                    put_len_prefixed(&mut out, item.updater.as_bytes());
                    put_len_prefixed(&mut out, &item.key);
                }
                put_varint(&mut out, *now_us);
            }
            Frame::StoreValue { values } => {
                out.push(KIND_STORE_VALUE);
                put_varint(&mut out, values.len() as u64);
                for value in values {
                    put_opt_value(&mut out, value.as_deref(), allow_mbf);
                }
            }
            Frame::Reintroduce { machine } => {
                out.push(KIND_REINTRODUCE);
                put_varint(&mut out, *machine as u64);
            }
            Frame::ReintroduceAck { epoch } => {
                out.push(KIND_REINTRODUCE_ACK);
                put_varint(&mut out, *epoch);
            }
        }
        out
    }

    /// Decode a payload produced by [`Frame::encode_payload_for`]. `None`
    /// on malformed input.
    pub fn decode_payload(buf: &[u8]) -> Option<Frame> {
        let kind = *buf.first()?;
        let rest = &buf[1..];
        let frame = match kind {
            KIND_HELLO => {
                let (version, n) = get_varint(rest)?;
                if version != PROTOCOL_VERSION {
                    // Another binary's hello: its layout is unknown past
                    // the version, which is all the receiver needs to
                    // count and log the refusal.
                    return Some(Frame::Hello { sender: 0, version, codecs: 0 });
                }
                let (sender, m) = get_varint(&rest[n..])?;
                let codecs = *rest.get(n + m)?;
                expect_consumed(rest, n + m + 1)?;
                Frame::Hello { sender: sender as MachineId, version, codecs }
            }
            KIND_HELLO_ACK => {
                let codecs = *rest.first()?;
                expect_consumed(rest, 1)?;
                Frame::HelloAck { codecs }
            }
            KIND_EVENTS => {
                let (count, mut at) = get_varint(rest)?;
                // Cap the pre-allocation by what the buffer could possibly
                // hold: a corrupt count must not trigger a huge reserve.
                let possible = rest.len() / MIN_WIRE_EVENT_BYTES + 1;
                let mut entries = Vec::with_capacity((count as usize).min(possible));
                for _ in 0..count {
                    let (ev, absorbed, n) = get_wire_event(&rest[at..])?;
                    at += n;
                    entries.push((ev, absorbed));
                }
                expect_consumed(rest, at)?;
                Frame::Events(entries)
            }
            KIND_FAILURE_REPORT => {
                let (failed, n) = get_varint(rest)?;
                let (epoch, m) = get_varint(&rest[n..])?;
                expect_consumed(rest, n + m)?;
                Frame::FailureReport { failed: failed as MachineId, epoch }
            }
            KIND_FAILURE_BROADCAST => {
                let (failed, n) = get_varint(rest)?;
                let (epoch, m) = get_varint(&rest[n..])?;
                expect_consumed(rest, n + m)?;
                Frame::FailureBroadcast { failed: failed as MachineId, epoch }
            }
            KIND_JOIN => {
                let (machine, n) = get_varint(rest)?;
                expect_consumed(rest, n)?;
                Frame::Join { machine: machine as MachineId }
            }
            KIND_MEMBERSHIP => {
                let mut at = 0;
                let (epoch, n) = get_varint(rest)?;
                at += n;
                let phase = match *rest.get(at)? {
                    0 => MembershipPhase::Prepare,
                    1 => MembershipPhase::Commit,
                    2 => MembershipPhase::Abort,
                    _ => return None,
                };
                at += 1;
                let (joined_count, n) = get_varint(&rest[at..])?;
                at += n;
                // Cap pre-allocations by what the buffer could hold (one
                // byte per varint at minimum) — a corrupt count must not
                // trigger a huge reserve.
                let possible = rest.len() + 1;
                let mut joined = Vec::with_capacity((joined_count as usize).min(possible));
                for _ in 0..joined_count {
                    let (id, n) = get_varint(&rest[at..])?;
                    at += n;
                    joined.push(id as MachineId);
                }
                let (member_count, n) = get_varint(&rest[at..])?;
                at += n;
                let mut members = Vec::with_capacity((member_count as usize).min(possible));
                for _ in 0..member_count {
                    let (id, n) = get_varint(&rest[at..])?;
                    at += n;
                    members.push(id as MachineId);
                }
                let (node_count, n) = get_varint(&rest[at..])?;
                at += n;
                let possible = rest.len() / 4 + 1;
                let mut nodes = Vec::with_capacity((node_count as usize).min(possible));
                for _ in 0..node_count {
                    let (node, n) = get_node_spec(&rest[at..])?;
                    at += n;
                    nodes.push(node);
                }
                expect_consumed(rest, at)?;
                Frame::Membership(MembershipUpdate { epoch, phase, joined, members, nodes })
            }
            KIND_MEMBERSHIP_REPLY => {
                let (epoch, n) = get_varint(rest)?;
                let accepted = get_bool(rest, n)?;
                expect_consumed(rest, n + 1)?;
                Frame::MembershipReply { epoch, accepted }
            }
            KIND_SLATE_GET => {
                let (updater, n) = get_len_prefixed(rest)?;
                let (key, m) = get_len_prefixed(&rest[n..])?;
                expect_consumed(rest, n + m)?;
                Frame::SlateGet {
                    updater: std::str::from_utf8(updater).ok()?.to_string(),
                    key: key.to_vec(),
                }
            }
            KIND_SLATE_VALUE => {
                let (value, n) = get_opt_bytes(rest)?;
                expect_consumed(rest, n)?;
                Frame::SlateValue { value }
            }
            KIND_STORE_PUT => {
                let (count, mut at) = get_varint(rest)?;
                // Cap the pre-allocation by what the buffer could possibly
                // hold (≥5 bytes per item: three length prefixes, the ttl
                // tag, the codec tag) — a corrupt count must not trigger a
                // huge reserve.
                let possible = rest.len() / 5 + 1;
                let mut items = Vec::with_capacity((count as usize).min(possible));
                for _ in 0..count {
                    let (updater, n) = get_len_prefixed(&rest[at..])?;
                    let updater = std::str::from_utf8(updater).ok()?.to_string();
                    at += n;
                    let (key, n) = get_len_prefixed(&rest[at..])?;
                    let key = key.to_vec();
                    at += n;
                    let (value, n) = get_len_prefixed(&rest[at..])?;
                    let value = Bytes::copy_from_slice(value);
                    at += n;
                    let (ttl_secs, n) = get_opt_varint(&rest[at..])?;
                    at += n;
                    let codec = codec_from_byte(*rest.get(at)?)?;
                    at += 1;
                    items.push(StorePutItem { updater, key, value, ttl_secs, codec });
                }
                let (now_us, n) = get_varint(&rest[at..])?;
                at += n;
                expect_consumed(rest, at)?;
                Frame::StorePut { items, now_us }
            }
            KIND_STORE_ACK => {
                let (count, mut at) = get_varint(rest)?;
                let possible = rest.len() + 1;
                let mut ok = Vec::with_capacity((count as usize).min(possible));
                for _ in 0..count {
                    ok.push(get_bool(rest, at)?);
                    at += 1;
                }
                expect_consumed(rest, at)?;
                Frame::StoreAck { ok }
            }
            KIND_STORE_GET => {
                let (count, mut at) = get_varint(rest)?;
                let possible = rest.len() / 2 + 1;
                let mut items = Vec::with_capacity((count as usize).min(possible));
                for _ in 0..count {
                    let (updater, n) = get_len_prefixed(&rest[at..])?;
                    let updater = std::str::from_utf8(updater).ok()?.to_string();
                    at += n;
                    let (key, n) = get_len_prefixed(&rest[at..])?;
                    let key = key.to_vec();
                    at += n;
                    items.push(StoreGetItem { updater, key });
                }
                let (now_us, n) = get_varint(&rest[at..])?;
                at += n;
                expect_consumed(rest, at)?;
                Frame::StoreGet { items, now_us }
            }
            KIND_STORE_VALUE => {
                let (count, mut at) = get_varint(rest)?;
                let possible = rest.len() + 1;
                let mut values = Vec::with_capacity((count as usize).min(possible));
                for _ in 0..count {
                    let (value, n) = get_opt_bytes(&rest[at..])?;
                    at += n;
                    values.push(value);
                }
                expect_consumed(rest, at)?;
                Frame::StoreValue { values }
            }
            KIND_REINTRODUCE => {
                let (machine, n) = get_varint(rest)?;
                expect_consumed(rest, n)?;
                Frame::Reintroduce { machine: machine as usize }
            }
            KIND_REINTRODUCE_ACK => {
                let (epoch, n) = get_varint(rest)?;
                expect_consumed(rest, n)?;
                Frame::ReintroduceAck { epoch }
            }
            _ => return None,
        };
        Some(frame)
    }

    /// Write one complete frame (header + payload) to `w`. Errors with
    /// `InvalidData` on payloads over [`MAX_FRAME_BYTES`] — receivers
    /// would reject (and kill the connection over) anything larger, so
    /// surfacing it at the sender keeps the failure deterministic instead
    /// of looking like a dead peer.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        write_payload(w, &self.encode_payload())
    }

    /// Read one complete frame from `r`. Errors with `InvalidData` on
    /// oversized lengths, CRC mismatches, or undecodable payloads.
    pub fn read_from(r: &mut impl Read) -> io::Result<Frame> {
        let mut head = [0u8; 8];
        r.read_exact(&mut head)?;
        // lint: allow(no-unwrap-in-prod) — 8-byte header array, offsets statically in bounds
        let len = codec::get_u32(&head, 0).expect("fixed header") as usize;
        // lint: allow(no-unwrap-in-prod) — 8-byte header array, offsets statically in bounds
        let crc = codec::get_u32(&head, 4).expect("fixed header");
        if len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds limit"),
            ));
        }
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)?;
        if codec::crc32c(&payload) != crc {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "frame CRC mismatch"));
        }
        Frame::decode_payload(&payload)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "undecodable frame payload"))
    }
}

/// Write an already-encoded payload with the frame header. Shared by
/// [`Frame::write_to`] and callers that pre-encode (e.g. to size-check
/// before touching the socket).
pub fn write_payload(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte limit", payload.len()),
        ));
    }
    let mut head = Vec::with_capacity(8 + payload.len());
    codec::put_u32(&mut head, payload.len() as u32);
    codec::put_u32(&mut head, codec::crc32c(payload));
    head.extend_from_slice(payload);
    w.write_all(&head)
}

fn expect_consumed(buf: &[u8], consumed: usize) -> Option<()> {
    if consumed == buf.len() {
        Some(())
    } else {
        None
    }
}

/// The 0/1 byte at `buf[at]`; anything else is malformed.
fn get_bool(buf: &[u8], at: usize) -> Option<bool> {
    match *buf.get(at)? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_core::event::Key;

    /// Every kind byte that decodes; the rest of 0..=255 is retired
    /// (2, 7–11, 15, 16, 23) or never assigned.
    const SURVIVING_KINDS: [u8; 16] = [1, 3, 4, 5, 6, 12, 13, 14, 17, 18, 19, 20, 21, 22, 24, 25];

    fn sample_wire_event(seq: u64) -> WireEvent {
        let mut event = Event::new("S1", 99, Key::from("walmart"), b"checkin".to_vec());
        event.seq = seq;
        WireEvent {
            op: 4,
            event,
            injected_us: 123,
            redirected: true,
            external: false,
            thread_hint: Some(7),
            forwards: 3,
        }
    }

    fn bare_wire_event() -> WireEvent {
        WireEvent {
            op: 0,
            event: Event::new("S2", 7, Key::from(""), Vec::new()),
            injected_us: 0,
            redirected: false,
            external: true,
            thread_hint: None,
            forwards: 0,
        }
    }

    fn put_item(
        key: &[u8],
        value: &'static [u8],
        ttl_secs: Option<u64>,
        codec: Codec,
    ) -> StorePutItem {
        StorePutItem {
            updater: "counter".into(),
            key: key.to_vec(),
            value: Bytes::from_static(value),
            ttl_secs,
            codec,
        }
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::hello(2, true),
            Frame::hello(2, false),
            Frame::HelloAck { codecs: CODEC_MBF },
            Frame::HelloAck { codecs: 0 },
            Frame::Events(Vec::new()),
            Frame::Events(vec![(sample_wire_event(3), 1)]),
            Frame::Events(vec![
                (sample_wire_event(1), 1),
                (sample_wire_event(2), 10_000),
                (bare_wire_event(), 3),
            ]),
            Frame::FailureReport { failed: 1, epoch: 4 },
            Frame::FailureBroadcast { failed: 0, epoch: 0 },
            Frame::Join { machine: 3 },
            Frame::Membership(MembershipUpdate {
                epoch: 2,
                phase: MembershipPhase::Prepare,
                joined: vec![3],
                members: vec![0, 1, 2, 3],
                nodes: vec![
                    NodeSpec { id: 0, host: "127.0.0.1".into(), port: 9100, http_port: 8100 },
                    NodeSpec { id: 3, host: "10.0.0.7".into(), port: 9103, http_port: 0 },
                ],
            }),
            Frame::Membership(MembershipUpdate {
                epoch: 5,
                phase: MembershipPhase::Commit,
                joined: Vec::new(),
                members: Vec::new(),
                nodes: Vec::new(),
            }),
            Frame::Membership(MembershipUpdate {
                epoch: 6,
                phase: MembershipPhase::Abort,
                joined: vec![4],
                members: Vec::new(),
                nodes: Vec::new(),
            }),
            Frame::MembershipReply { epoch: 2, accepted: true },
            Frame::MembershipReply { epoch: 9, accepted: false },
            Frame::SlateGet { updater: "counter".into(), key: b"best-buy".to_vec() },
            Frame::SlateValue { value: Some(b"42".to_vec()) },
            Frame::SlateValue { value: None },
            Frame::StorePut { items: Vec::new(), now_us: 0 },
            Frame::StorePut {
                items: vec![
                    put_item(b"mixed", b"\xb1\x03\x2a", None, Codec::Mbf),
                    put_item(b"text", b"42", Some(9), Codec::Json),
                    put_item(b"", b"", None, Codec::Json),
                ],
                now_us: 9_001,
            },
            Frame::StoreAck { ok: vec![true, false, true] },
            Frame::StoreAck { ok: Vec::new() },
            Frame::StoreGet {
                items: vec![
                    StoreGetItem { updater: "counter".into(), key: b"a".to_vec() },
                    StoreGetItem { updater: "counter".into(), key: b"b".to_vec() },
                ],
                now_us: 77,
            },
            Frame::StoreValue {
                values: vec![Some(b"\xb1\x03\x2a".to_vec()), None, Some(b"42".to_vec())],
            },
            Frame::StoreValue { values: Vec::new() },
            Frame::Reintroduce { machine: 3 },
            Frame::ReintroduceAck { epoch: 9 },
        ]
    }

    #[test]
    fn payload_roundtrip_every_kind() {
        let mut kinds = std::collections::BTreeSet::new();
        for frame in sample_frames() {
            let payload = frame.encode_payload();
            kinds.insert(payload[0]);
            assert_eq!(Frame::decode_payload(&payload), Some(frame.clone()), "{frame:?}");
        }
        assert_eq!(kinds.into_iter().collect::<Vec<u8>>(), SURVIVING_KINDS);
    }

    #[test]
    fn stream_roundtrip_through_io() {
        let mut buf = Vec::new();
        for frame in sample_frames() {
            frame.write_to(&mut buf).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for frame in sample_frames() {
            assert_eq!(Frame::read_from(&mut cursor).unwrap(), frame);
        }
    }

    /// The format, pinned byte by byte (header: u32 LE payload length, u32
    /// LE crc32c of the payload): a drift in any kind's layout fails here
    /// even when encoder and decoder drift together.
    #[test]
    fn golden_bytes_of_every_kind() {
        let u = || "U".to_string();
        let golden: Vec<(Frame, &[u8])> = vec![
            (
                Frame::Hello { sender: 2, version: 7, codecs: CODEC_MBF },
                // kind, version, sender, codecs
                &[4, 0, 0, 0, 0xfb, 0x36, 0xfc, 0x34, 1, 7, 2, 1],
            ),
            (Frame::HelloAck { codecs: CODEC_MBF }, &[2, 0, 0, 0, 0xe8, 0xc6, 0xdb, 0xa1, 24, 1]),
            (
                Frame::Events(vec![
                    (
                        WireEvent {
                            op: 4,
                            event: Event { seq: 1, ..Event::new("S1", 99, Key::from("k"), "v") },
                            injected_us: 123,
                            redirected: true,
                            external: false,
                            thread_hint: Some(7),
                            forwards: 3,
                        },
                        1,
                    ),
                    (
                        WireEvent {
                            event: Event::new("S1", 7, Key::from(""), "6"),
                            ..bare_wire_event()
                        },
                        3,
                    ),
                ]),
                &[
                    29, 0, 0, 0, 0xc5, 0x7a, 0x0f, 0xc9, // header
                    25, 2, // kind, two entries
                    // op 4, injected 123, flags = redirected | forwards 3 << 2, hint Some(7),
                    // "S1", ts 99, seq 1, "k", "v" — no count byte.
                    4, 123, 0x0d, 1, 7, 2, b'S', b'1', 99, 1, 1, b'k', 1, b'v',
                    // op 0, injected 0, flags = external | FLAG_ABSORBED, no hint,
                    // "S1", ts 7, seq 0, "", "6", then the absorbed count 3.
                    0, 0, 0x22, 0, 2, b'S', b'1', 7, 0, 0, 1, b'6', 3,
                ],
            ),
            (
                Frame::FailureReport { failed: 3, epoch: 300 },
                &[4, 0, 0, 0, 0xe5, 0xc9, 0x86, 0x76, 3, 3, 0xac, 0x02],
            ),
            (
                Frame::FailureBroadcast { failed: 3, epoch: 1 },
                &[3, 0, 0, 0, 0xfa, 0x2c, 0x36, 0x38, 4, 3, 1],
            ),
            (Frame::Join { machine: 5 }, &[2, 0, 0, 0, 0xaa, 0xc1, 0x0e, 0x17, 12, 5]),
            (
                Frame::Membership(MembershipUpdate {
                    epoch: 2,
                    phase: MembershipPhase::Prepare,
                    joined: vec![3],
                    members: vec![0, 3],
                    nodes: vec![NodeSpec { id: 3, host: "h".into(), port: 9103, http_port: 0 }],
                }),
                &[
                    15, 0, 0, 0, 0xb9, 0x4c, 0x84, 0x5c, // header
                    13, 2, 0, // kind, epoch, prepare
                    1, 3, // joined
                    2, 0, 3, // members
                    1, 3, 1, b'h', 0x8f, 0x47, 0, // one node: id, host, port 9103, http 0
                ],
            ),
            (
                Frame::MembershipReply { epoch: 2, accepted: true },
                &[3, 0, 0, 0, 0x45, 0xd8, 0xaa, 0x5c, 14, 2, 1],
            ),
            (
                Frame::SlateGet { updater: u(), key: b"k".to_vec() },
                &[5, 0, 0, 0, 0x88, 0x66, 0xd6, 0x27, 5, 1, b'U', 1, b'k'],
            ),
            (
                Frame::SlateValue { value: Some(b"42".to_vec()) },
                &[5, 0, 0, 0, 0x71, 0xa5, 0x23, 0x98, 6, 1, 2, b'4', b'2'],
            ),
            (
                Frame::StorePut {
                    items: vec![
                        StorePutItem {
                            updater: u(),
                            ..put_item(b"k", b"42", Some(60), Codec::Json)
                        },
                        StorePutItem {
                            updater: u(),
                            ..put_item(b"", b"\xb1\x00", None, Codec::Mbf)
                        },
                    ],
                    now_us: 9,
                },
                &[
                    21, 0, 0, 0, 0x6d, 0xef, 0x5d, 0x13, // header
                    22, 2, // kind, two items
                    1, b'U', 1, b'k', 2, b'4', b'2', 1, 60, 0, // ttl Some(60), tag Json
                    1, b'U', 0, 2, 0xb1, 0x00, 0, 1, // no ttl, tag Mbf
                    9, // now_us
                ],
            ),
            (
                Frame::StoreAck { ok: vec![true, false] },
                &[4, 0, 0, 0, 0x38, 0x9a, 0x8b, 0x20, 17, 2, 1, 0],
            ),
            (
                Frame::StoreGet {
                    items: vec![StoreGetItem { updater: u(), key: b"k".to_vec() }],
                    now_us: 9,
                },
                &[7, 0, 0, 0, 0xea, 0xbf, 0x7b, 0x30, 18, 1, 1, b'U', 1, b'k', 9],
            ),
            (
                Frame::StoreValue { values: vec![Some(b"42".to_vec()), None] },
                &[7, 0, 0, 0, 0x94, 0x09, 0xa9, 0xab, 19, 2, 1, 2, b'4', b'2', 0],
            ),
            (Frame::Reintroduce { machine: 3 }, &[2, 0, 0, 0, 0x7b, 0x14, 0x7e, 0x93, 20, 3]),
            (Frame::ReintroduceAck { epoch: 9 }, &[2, 0, 0, 0, 0x34, 0xa4, 0x3e, 0xeb, 21, 9]),
        ];
        let kinds: Vec<u8> = golden.iter().map(|(_, wire)| wire[8]).collect();
        let mut sorted = kinds.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, SURVIVING_KINDS, "one golden per surviving kind");
        for (frame, wire) in golden {
            let mut written = Vec::new();
            frame.write_to(&mut written).unwrap();
            assert_eq!(written, wire, "{frame:?}");
            assert_eq!(Frame::read_from(&mut std::io::Cursor::new(wire)).unwrap(), frame);
        }
    }

    #[test]
    fn retired_and_unassigned_kinds_decode_to_none() {
        // The bodies are what the retired kinds used to carry (a wire
        // event, a counted run of them, a bare epoch): no compatibility
        // reader is left behind any of them.
        let mut event = Vec::new();
        put_wire_event(&mut event, &sample_wire_event(1), 1, true);
        let bodies: [&[u8]; 4] = [&[], &[7], &event, &[&[1u8][..], &event].concat()];
        for kind in (0..=u8::MAX).filter(|k| !SURVIVING_KINDS.contains(k)) {
            for body in bodies {
                let payload = [&[kind][..], body].concat();
                assert_eq!(Frame::decode_payload(&payload), None, "kind {kind}");
            }
        }
        assert_eq!(Frame::decode_payload(&[]), None);
    }

    #[test]
    fn forwards_roundtrip_and_saturate_on_the_wire() {
        let mut ev = sample_wire_event(1);
        ev.forwards = MAX_FORWARDS + 5; // encodes saturated, not wrapped
        let payload = Frame::Events(vec![(ev, 1)]).encode_payload();
        match Frame::decode_payload(&payload) {
            Some(Frame::Events(back)) => assert_eq!(back[0].0.forwards, MAX_FORWARDS),
            other => panic!("expected an Events frame, got {other:?}"),
        }
    }

    #[test]
    fn a_flagged_count_of_zero_or_one_is_refused() {
        let entry = |flagged_count: u64| {
            let mut payload = vec![KIND_EVENTS, 1];
            put_wire_event(&mut payload, &sample_wire_event(1), 2, true);
            let count_at = payload.len() - 1;
            payload[count_at] = flagged_count as u8;
            payload
        };
        assert!(matches!(Frame::decode_payload(&entry(2)), Some(Frame::Events(e)) if e[0].1 == 2));
        assert_eq!(Frame::decode_payload(&entry(1)), None);
        assert_eq!(Frame::decode_payload(&entry(0)), None);
        // And a flagged entry whose count is missing altogether.
        let mut truncated = entry(2);
        truncated.pop();
        assert_eq!(Frame::decode_payload(&truncated), None);
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = Vec::new();
        Frame::FailureReport { failed: 3, epoch: 1 }.write_to(&mut buf).unwrap();
        // Flip a payload bit: CRC must catch it.
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let err = Frame::read_from(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_and_truncated_frames_error() {
        let mut buf = Vec::new();
        codec::put_u32(&mut buf, (MAX_FRAME_BYTES + 1) as u32);
        codec::put_u32(&mut buf, 0);
        assert!(Frame::read_from(&mut std::io::Cursor::new(buf)).is_err());

        let mut ok = Vec::new();
        Frame::Join { machine: 1 }.write_to(&mut ok).unwrap();
        ok.truncate(ok.len() - 1);
        assert!(Frame::read_from(&mut std::io::Cursor::new(ok)).is_err());
    }

    #[test]
    fn trailing_garbage_in_payload_rejected() {
        for frame in sample_frames() {
            let mut payload = frame.encode_payload();
            payload.push(0xde);
            assert_eq!(Frame::decode_payload(&payload), None, "{frame:?}");
        }
    }

    #[test]
    fn a_hello_of_another_version_decodes_with_only_its_version() {
        for version in [0u64, 3, 6, PROTOCOL_VERSION + 1, u64::MAX] {
            // Whatever follows the version is not interpreted: a v4 hello
            // had no codecs byte, a future one may have more.
            for tail in [&[][..], &[2], &[2, 1, 9, 9]] {
                let mut payload = vec![KIND_HELLO];
                put_varint(&mut payload, version);
                payload.extend_from_slice(tail);
                assert_eq!(
                    Frame::decode_payload(&payload),
                    Some(Frame::Hello { sender: 0, version, codecs: 0 }),
                    "version {version}"
                );
            }
        }
        // The current version is decoded strictly.
        assert_eq!(Frame::decode_payload(&[KIND_HELLO, PROTOCOL_VERSION as u8, 2]), None);
        assert_eq!(Frame::decode_payload(&[KIND_HELLO, PROTOCOL_VERSION as u8, 2, 1, 0]), None);
    }

    fn mbf_doc() -> (Vec<u8>, &'static str) {
        let text = r#"{"loc":"walmart","n":42}"#;
        (Json::parse(text).unwrap().to_mbf().unwrap(), text)
    }

    #[test]
    fn encode_events_payload_is_the_events_frame_of_uncombined_entries() {
        let (raw, _) = mbf_doc();
        let mut carrier = sample_wire_event(2);
        carrier.event.value = raw.into();
        let events = vec![sample_wire_event(1), carrier, bare_wire_event()];
        let frame = Frame::Events(events.iter().map(|ev| (ev.clone(), 1)).collect());
        for allow_mbf in [true, false] {
            assert_eq!(
                encode_events_payload(&events, allow_mbf),
                frame.encode_payload_for(allow_mbf)
            );
        }
        assert_eq!(encode_events_payload(&[], true), Frame::Events(Vec::new()).encode_payload());
    }

    #[test]
    fn events_transcode_mbf_values_for_json_peers_and_keep_their_counts() {
        let (raw, text) = mbf_doc();
        let mut carrier = sample_wire_event(1);
        carrier.event.value = raw.into();
        let frame = Frame::Events(vec![(carrier, 7), (sample_wire_event(2), 1)]);
        let Frame::Events(entries) = &frame else { unreachable!() };
        match Frame::decode_payload(&frame.encode_payload_for(false)) {
            Some(Frame::Events(back)) => {
                assert_eq!(std::str::from_utf8(&back[0].0.event.value).unwrap(), text);
                assert_eq!(back[0].1, 7, "absorbed count survives the downgrade");
                assert_eq!(back[0].0.event.key, entries[0].0.event.key);
                assert_eq!(back[1], entries[1], "JSON values pass through untouched");
            }
            other => panic!("expected Events, got {other:?}"),
        }
        // With MBF allowed the value travels verbatim, in a smaller frame.
        assert!(frame.encode_payload_for(true).len() < frame.encode_payload_for(false).len());
        assert_eq!(Frame::decode_payload(&frame.encode_payload_for(true)), Some(frame));
    }

    #[test]
    fn store_and_slate_values_transcode_for_json_peers() {
        let (raw, text) = mbf_doc();
        let put = Frame::StorePut {
            items: vec![
                StorePutItem {
                    value: raw.clone().into(),
                    ..put_item(b"k", b"", Some(3), Codec::Mbf)
                },
                // Tagged MBF but undecodable: travels raw, retagged.
                put_item(b"junk", b"\xb1\xff", None, Codec::Mbf),
                put_item(b"text", b"42", None, Codec::Json),
            ],
            now_us: 7,
        };
        match Frame::decode_payload(&put.encode_payload_for(false)) {
            Some(Frame::StorePut { items, now_us: 7 }) => {
                assert_eq!((&items[0].value[..], items[0].codec), (text.as_bytes(), Codec::Json));
                assert_eq!(items[0].ttl_secs, Some(3));
                assert_eq!((&items[1].value[..], items[1].codec), (&b"\xb1\xff"[..], Codec::Json));
                assert_eq!(items[2], put_item(b"text", b"42", None, Codec::Json));
            }
            other => panic!("unexpected downgrade: {other:?}"),
        }
        assert_eq!(Frame::decode_payload(&put.encode_payload_for(true)), Some(put));

        let values =
            Frame::StoreValue { values: vec![Some(raw.clone()), None, Some(b"42".to_vec())] };
        assert_eq!(
            Frame::decode_payload(&values.encode_payload_for(false)),
            Some(Frame::StoreValue {
                values: vec![Some(text.as_bytes().to_vec()), None, Some(b"42".to_vec())]
            })
        );
        let slate = Frame::SlateValue { value: Some(raw) };
        assert_eq!(
            Frame::decode_payload(&slate.encode_payload_for(false)),
            Some(Frame::SlateValue { value: Some(text.as_bytes().to_vec()) })
        );
        assert_eq!(Frame::decode_payload(&slate.encode_payload_for(true)), Some(slate));
    }

    #[test]
    fn corrupt_counts_are_rejected_without_huge_allocation() {
        // A run claiming u64::MAX entries with a near-empty body must fail
        // cleanly (the per-entry decode runs out of bytes) and the
        // pre-allocation is capped by the buffer length.
        for kind in [KIND_EVENTS, KIND_STORE_PUT, KIND_STORE_GET, KIND_STORE_VALUE, KIND_STORE_ACK]
        {
            let mut payload = vec![kind];
            put_varint(&mut payload, u64::MAX);
            assert_eq!(Frame::decode_payload(&payload), None, "kind {kind}");
            payload.extend_from_slice(&[1, 0, 1, 0]);
            assert_eq!(Frame::decode_payload(&payload), None, "kind {kind}");
        }
    }
}

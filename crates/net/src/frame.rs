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

use std::io::{self, Read, Write};
use std::sync::Arc;

use bytes::Bytes;
use muppet_core::codec::{
    self, get_event, get_len_prefixed, get_opt_bytes, get_opt_varint, get_varint, put_event,
    put_len_prefixed, put_opt_bytes, put_opt_varint, put_varint,
};
use muppet_core::event::{Event, Key, StreamId};
use muppet_core::workflow::OpId;
use muppet_core::Codec;

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

/// What two events must agree on to fold ([`WireEvent::run_key`]).
pub type RunKey = (OpId, StreamId, Key, bool, Option<(bool, Option<usize>)>);

impl WireEvent {
    /// The run key [`fold_runs`] folds by: operator, stream, key and the
    /// redirect mark — in a worker's drained batch; in a sender outbox
    /// (`outbox`) also what the receiver's delivery still reads (overflow
    /// class, 1.0 thread hint).
    pub fn run_key(&self, outbox: bool) -> RunKey {
        let delivery = outbox.then_some((self.external, self.thread_hint));
        (self.op, self.event.stream.clone(), self.event.key.clone(), self.redirected, delivery)
    }
}

/// A worker's queue entry: an event with its enqueue stamp, which a fold
/// carries along ([`fold_runs`]).
impl<S> std::borrow::Borrow<WireEvent> for (WireEvent, S) {
    fn borrow(&self) -> &WireEvent {
        &self.0
    }
}

impl<S> std::borrow::BorrowMut<WireEvent> for (WireEvent, S) {
    fn borrow_mut(&mut self) -> &mut WireEvent {
        &mut self.0
    }
}

/// Map-side pre-aggregation, the one fold of the sender outbox and the
/// worker drain: events with the same `run_key` (`None`: never folds)
/// coalesce into the run's first event through `combine` — the
/// operator's declared order-free combiner, `None` a veto. Returns the
/// carriers in first-occurrence order, each with the number of events it
/// absorbed (itself included). A carrier keeps the run's largest ts/seq
/// (output ts = input ts + 1 stays §3-legal for the whole run), earliest
/// injection stamp (latency is measured pessimistically) and largest
/// forwarding debt; a veto re-points the run at the vetoed event, so
/// per-key order is kept.
pub fn fold_runs<T: std::borrow::BorrowMut<WireEvent>, K: Eq + std::hash::Hash>(
    items: impl IntoIterator<Item = T>,
    run_key: impl Fn(&WireEvent) -> Option<K>,
    mut combine: impl FnMut(OpId, &[u8], &[u8]) -> Option<Vec<u8>>,
) -> Vec<(T, u64)> {
    let items = items.into_iter();
    let mut carriers: Vec<(T, u64)> = Vec::with_capacity(items.size_hint().0);
    let mut open: std::collections::HashMap<K, usize> = std::collections::HashMap::new();
    for mut item in items {
        let ev: &mut WireEvent = item.borrow_mut();
        if let Some(run) = run_key(ev) {
            if let Some(&at) = open.get(&run) {
                let (carrier, count) = &mut carriers[at];
                let acc: &mut WireEvent = carrier.borrow_mut();
                if let Some(folded) = combine(ev.op, &acc.event.value, &ev.event.value) {
                    acc.event.value = folded.into();
                    acc.event.ts = acc.event.ts.max(ev.event.ts);
                    acc.event.seq = acc.event.seq.max(ev.event.seq);
                    acc.injected_us = acc.injected_us.min(ev.injected_us);
                    acc.forwards = acc.forwards.max(ev.forwards);
                    *count += 1;
                    continue;
                }
            }
            open.insert(run, carriers.len());
        }
        carriers.push((item, 1));
    }
    carriers
}

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

/// One slate write: a dirty-slate snapshot from the slate cache's flush,
/// the item of a [`Frame::StorePut`], and what the store host persists.
/// One shape from cache to store — the snapshot is taken under the slot's
/// state lock but written without it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlushItem {
    /// The update function's name (store column).
    pub updater: Arc<str>,
    /// The event key (store row).
    pub key: Key,
    /// The slate bytes at snapshot time — refcounted, so the snapshot
    /// reaches the frame without copying the payload.
    pub bytes: Bytes,
    /// Format of `bytes` (the cache materializes in the store's codec;
    /// raw/legacy payloads stay [`Codec::Json`]). Travels with every item:
    /// the store may compress the bytes, after which they can no longer
    /// be sniffed.
    pub codec: Codec,
    /// TTL configured for this updater's slates.
    pub ttl_secs: Option<u64>,
}

/// One protocol message. DESIGN.md §5 has the kind table (byte,
/// direction, reply).
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Connection preamble, always the first frame: protocol version and
    /// sender machine. A hello of another version decodes with only its
    /// `version` filled in, so the receiver can name what it refuses.
    Hello { sender: MachineId, version: u64 },
    /// Reply to every accepted [`Frame::Hello`].
    HelloAck,
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
    StorePut { items: Vec<FlushItem>, now_us: u64 },
    /// Response to [`Frame::StorePut`]: per-item success, in order (false
    /// = the store refused that cell; the sender keeps it dirty).
    StoreAck { ok: Vec<bool> },
    /// Load a run of slates from the store-hosting node in one round trip.
    StoreGet { items: Vec<(Arc<str>, Key)>, now_us: u64 },
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
pub const PROTOCOL_VERSION: u64 = 8;

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

/// Encode one [`Frame::Events`] entry. An uncombined event (`absorbed ==
/// 1`) costs no count byte: the count rides behind [`FLAG_ABSORBED`].
fn put_wire_event(out: &mut Vec<u8>, ev: &WireEvent, absorbed: u64) {
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
    put_event(out, &ev.event);
    if absorbed > 1 {
        put_varint(out, absorbed);
    }
}

/// Decode one [`Frame::Events`] entry. Returns the event, its absorbed
/// count and the bytes consumed; `None` on malformed input. An event of
/// `prev`'s stream shares that id.
fn get_wire_event(buf: &[u8], prev: Option<&StreamId>) -> Option<(WireEvent, u64, usize)> {
    let mut at = 0;
    let (op, n) = get_varint(buf)?;
    at += n;
    let (injected_us, n) = get_varint(&buf[at..])?;
    at += n;
    let flags = *buf.get(at)?;
    at += 1;
    let (hint, n) = get_opt_varint(&buf[at..])?;
    at += n;
    let (event, n) = get_event(&buf[at..], prev)?;
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
/// Event values travel as the engine tagged them; receivers sniff MBF.
pub fn encode_events<'a>(entries: impl ExactSizeIterator<Item = (&'a WireEvent, u64)>) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 * entries.len().max(1));
    out.push(KIND_EVENTS);
    put_varint(&mut out, entries.len() as u64);
    for (ev, absorbed) in entries {
        put_wire_event(&mut out, ev, absorbed);
    }
    out
}

/// [`encode_events`] over uncombined events. The flag is ignored: the
/// wire has one encoding.
pub fn encode_events_payload(events: &[WireEvent], _allow_mbf: bool) -> Vec<u8> {
    encode_events(events.iter().map(|ev| (ev, 1)))
}

impl Frame {
    /// This binary's hello.
    pub fn hello(sender: MachineId) -> Frame {
        Frame::Hello { sender, version: PROTOCOL_VERSION }
    }

    /// Encode the payload (kind byte + fields), without the outer
    /// length/CRC header. Values travel with the bytes and tags the engine
    /// handed over.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Frame::Hello { sender, version } => {
                out.push(KIND_HELLO);
                put_varint(&mut out, *version);
                put_varint(&mut out, *sender as u64);
            }
            Frame::HelloAck => out.push(KIND_HELLO_ACK),
            Frame::Events(entries) => {
                return encode_events(entries.iter().map(|(ev, n)| (ev, *n)));
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
                put_opt_bytes(&mut out, value.as_deref());
            }
            Frame::StorePut { items, now_us } => {
                out.push(KIND_STORE_PUT);
                put_varint(&mut out, items.len() as u64);
                for item in items {
                    put_len_prefixed(&mut out, item.updater.as_bytes());
                    put_len_prefixed(&mut out, item.key.as_bytes());
                    put_len_prefixed(&mut out, &item.bytes);
                    put_opt_varint(&mut out, item.ttl_secs);
                    out.push(codec_byte(item.codec));
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
                for (updater, key) in items {
                    put_len_prefixed(&mut out, updater.as_bytes());
                    put_len_prefixed(&mut out, key.as_bytes());
                }
                put_varint(&mut out, *now_us);
            }
            Frame::StoreValue { values } => {
                out.push(KIND_STORE_VALUE);
                put_varint(&mut out, values.len() as u64);
                for value in values {
                    put_opt_bytes(&mut out, value.as_deref());
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

    /// Decode a payload produced by [`Frame::encode_payload`]. `None`
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
                    return Some(Frame::Hello { sender: 0, version });
                }
                let (sender, m) = get_varint(&rest[n..])?;
                expect_consumed(rest, n + m)?;
                Frame::Hello { sender: sender as MachineId, version }
            }
            KIND_HELLO_ACK => {
                expect_consumed(rest, 0)?;
                Frame::HelloAck
            }
            KIND_EVENTS => {
                let (count, mut at) = get_varint(rest)?;
                // Cap the pre-allocation by what the buffer could possibly
                // hold: a corrupt count must not trigger a huge reserve.
                let possible = rest.len() / MIN_WIRE_EVENT_BYTES + 1;
                let mut entries: Vec<(WireEvent, u64)> =
                    Vec::with_capacity((count as usize).min(possible));
                for _ in 0..count {
                    let prev = entries.last().map(|(ev, _)| &ev.event.stream);
                    let (ev, absorbed, n) = get_wire_event(&rest[at..], prev)?;
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
                    let updater = Arc::from(std::str::from_utf8(updater).ok()?);
                    at += n;
                    let (key, n) = get_len_prefixed(&rest[at..])?;
                    let key = Key::from(key);
                    at += n;
                    let (bytes, n) = get_len_prefixed(&rest[at..])?;
                    let bytes = Bytes::copy_from_slice(bytes);
                    at += n;
                    let (ttl_secs, n) = get_opt_varint(&rest[at..])?;
                    at += n;
                    let codec = codec_from_byte(*rest.get(at)?)?;
                    at += 1;
                    items.push(FlushItem { updater, key, bytes, codec, ttl_secs });
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
                    let updater = Arc::from(std::str::from_utf8(updater).ok()?);
                    at += n;
                    let (key, n) = get_len_prefixed(&rest[at..])?;
                    at += n;
                    items.push((updater, Key::from(key)));
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
    use muppet_core::Json;

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
    ) -> FlushItem {
        FlushItem {
            updater: "counter".into(),
            key: Key::from(key),
            bytes: Bytes::from_static(value),
            codec,
            ttl_secs,
        }
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::hello(2),
            Frame::HelloAck,
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
                items: vec![("counter".into(), Key::from("a")), ("counter".into(), Key::from("b"))],
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
                Frame::Hello { sender: 2, version: 8 },
                // kind, version, sender
                &[3, 0, 0, 0, 0x4b, 0x82, 0x0a, 0xb9, 1, 8, 2],
            ),
            (Frame::HelloAck, &[1, 0, 0, 0, 0xf1, 0xcc, 0xfa, 0xc8, 24]),
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
                        FlushItem {
                            updater: "U".into(),
                            ..put_item(b"k", b"42", Some(60), Codec::Json)
                        },
                        FlushItem {
                            updater: "U".into(),
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
                Frame::StoreGet { items: vec![("U".into(), Key::from("k"))], now_us: 9 },
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
        put_wire_event(&mut event, &sample_wire_event(1), 1);
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
    fn entries_of_one_stream_share_its_decoded_id() {
        let frame = Frame::Events(vec![
            (sample_wire_event(1), 1),
            (sample_wire_event(2), 1),
            (bare_wire_event(), 1),
        ]);
        let Some(Frame::Events(back)) = Frame::decode_payload(&frame.encode_payload()) else {
            panic!("expected an Events frame");
        };
        let stream = |i: usize| back[i].0.event.stream.as_str();
        assert_eq!(stream(0).as_ptr(), stream(1).as_ptr(), "S1 decoded once");
        assert_eq!((stream(0), stream(2)), ("S1", "S2"));
    }

    #[test]
    fn a_flagged_count_of_zero_or_one_is_refused() {
        let entry = |flagged_count: u64| {
            let mut payload = vec![KIND_EVENTS, 1];
            put_wire_event(&mut payload, &sample_wire_event(1), 2);
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
        for version in [0u64, 3, 6, 7, PROTOCOL_VERSION + 1, u64::MAX] {
            // Whatever follows the version is not interpreted: a v7 hello
            // had a codecs byte, a future one may have more.
            for tail in [&[][..], &[2], &[2, 1, 9, 9]] {
                let mut payload = vec![KIND_HELLO];
                put_varint(&mut payload, version);
                payload.extend_from_slice(tail);
                assert_eq!(
                    Frame::decode_payload(&payload),
                    Some(Frame::Hello { sender: 0, version }),
                    "version {version}"
                );
            }
        }
        // The current version is decoded strictly.
        assert_eq!(Frame::decode_payload(&[KIND_HELLO, PROTOCOL_VERSION as u8]), None);
        assert_eq!(Frame::decode_payload(&[KIND_HELLO, PROTOCOL_VERSION as u8, 2, 1]), None);
        assert_eq!(Frame::decode_payload(&[KIND_HELLO_ACK, 1]), None);
    }

    #[test]
    fn encode_events_payload_is_the_events_frame_of_uncombined_entries() {
        let mut carrier = sample_wire_event(2);
        carrier.event.value = Json::parse(r#"{"n":42}"#).unwrap().to_mbf().unwrap().into();
        let events = vec![sample_wire_event(1), carrier, bare_wire_event()];
        let frame = Frame::Events(events.iter().map(|ev| (ev.clone(), 1)).collect());
        // The flag is ignored: an MBF value crosses as its own bytes.
        for allow_mbf in [true, false] {
            assert_eq!(encode_events_payload(&events, allow_mbf), frame.encode_payload());
        }
        assert_eq!(Frame::decode_payload(&frame.encode_payload()), Some(frame));
        assert_eq!(encode_events_payload(&[], true), Frame::Events(Vec::new()).encode_payload());
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

    fn keyed_event(op: OpId, key: &str, value: &str) -> WireEvent {
        WireEvent {
            op,
            event: Event::new("S", 1, Key::from(key), value.as_bytes().to_vec()),
            injected_us: 7,
            redirected: false,
            external: true,
            thread_hint: None,
            forwards: 0,
        }
    }

    /// Op 1 declares a decimal-sum combiner, every other op none.
    fn sum_op_1(op: OpId, acc: &[u8], next: &[u8]) -> Option<Vec<u8>> {
        (op == 1).then(|| muppet_core::operator::combine_decimal_sum(acc, next)).flatten()
    }

    #[test]
    fn fold_runs_coalesces_same_key_runs_in_first_occurrence_order() {
        let raw = vec![
            keyed_event(1, "a", "1"),
            keyed_event(1, "b", "5"),
            keyed_event(1, "a", "2"),
            keyed_event(2, "a", "9"), // op 2 declares no combiner
            keyed_event(1, "a", "3"),
            keyed_event(2, "a", "9"),
        ];
        let entries = fold_runs(raw, |ev| Some(ev.run_key(true)), sum_op_1);
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[0].0.event.value.as_ref(), b"6", "1+2+3 folded");
        assert_eq!(entries[0].1, 3);
        assert_eq!(entries[1].0.event.value.as_ref(), b"5");
        assert_eq!(entries[1].1, 1);
        assert_eq!(entries[2].1, 1, "non-combining op never folds");
        assert_eq!(entries[3].1, 1);
    }

    #[test]
    fn fold_runs_without_a_combiner_passes_through() {
        let raw = vec![keyed_event(1, "a", "1"), keyed_event(1, "a", "2")];
        let entries = fold_runs(raw, |ev| Some(ev.run_key(true)), |_, _, _| None);
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|(_, c)| *c == 1));
    }

    #[test]
    fn delivery_metadata_splits_outbox_runs_but_not_drain_runs() {
        let mut internal = keyed_event(1, "a", "2");
        internal.external = false;
        let mut hinted = keyed_event(1, "a", "3");
        hinted.thread_hint = Some(1);
        let raw = vec![(keyed_event(1, "a", "1"), 10u64), (internal, 11), (hinted, 12)];
        let outbox = fold_runs(raw.clone(), |ev| Some(ev.run_key(true)), sum_op_1);
        assert_eq!(outbox.iter().map(|(_, n)| *n).collect::<Vec<_>>(), [1, 1, 1]);
        let drain = fold_runs(raw, |ev| Some(ev.run_key(false)), sum_op_1);
        assert_eq!(drain.len(), 1, "the drain key ignores external and thread_hint");
        let ((carrier, stamp), absorbed) = &drain[0];
        assert_eq!((carrier.event.value.as_ref(), *stamp, *absorbed), (&b"6"[..], 10, 3));
    }
}

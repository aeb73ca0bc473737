//! Events, streams, and keys — the ⟨sid, ts, k, v⟩ tuples of Section 3.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;

use crate::hash::fx64_pair;

pub use crate::time::Timestamp;

/// Identifier of a stream, e.g. `"S1"` or `"twitter-firehose"`.
///
/// Cheap to clone (`Arc<str>`); hashes and compares by name. Stream names
/// are global across an application, exactly as the paper's `sid`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(Arc<str>);

impl StreamId {
    /// The stream name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for StreamId {
    fn from(s: &str) -> Self {
        StreamId(Arc::from(s))
    }
}

impl From<String> for StreamId {
    fn from(s: String) -> Self {
        StreamId(Arc::from(s))
    }
}

impl Borrow<str> for StreamId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StreamId({})", self.0)
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// An event key.
///
/// Keys "have atomic values and need not be unique across events" (§3); they
/// group events the way MapReduce keys do. Internally a cheaply-cloneable
/// byte string ([`Bytes`]); most applications use UTF-8 text keys (user IDs,
/// retailer names, `"<topic> <minute>"` compounds).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Key(Bytes);

impl Key {
    /// An empty key.
    pub const fn empty() -> Self {
        Key(Bytes::new())
    }

    /// Raw key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The key as UTF-8 text, if valid.
    pub fn as_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.0).ok()
    }

    /// Number of bytes in the key.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the key has zero bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Deterministic hash of ⟨key, destination operator⟩ — the routing hash
    /// of §4.1: "give all workers the same hash function to map ⟨event key,
    /// destination map/update function⟩ to workers".
    pub fn route_hash(&self, operator: &str) -> u64 {
        fx64_pair(&self.0, operator.as_bytes())
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key(Bytes::copy_from_slice(s.as_bytes()))
    }
}

impl From<String> for Key {
    fn from(s: String) -> Self {
        Key(Bytes::from(s.into_bytes()))
    }
}

impl From<Vec<u8>> for Key {
    fn from(v: Vec<u8>) -> Self {
        Key(Bytes::from(v))
    }
}

impl From<&[u8]> for Key {
    fn from(v: &[u8]) -> Self {
        Key(Bytes::copy_from_slice(v))
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_str() {
            Some(s) => write!(f, "Key({s:?})"),
            None => write!(f, "Key(0x{})", hex(&self.0)),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// An event: the ⟨sid, ts, k, v⟩ tuple of §3.
///
/// * `stream` — which stream the event belongs to;
/// * `ts` — a global timestamp (logical microseconds);
/// * `key` — groups events, like MapReduce keys;
/// * `value` — an arbitrary blob (commonly JSON, e.g. a whole tweet).
///
/// `seq` is the deterministic tie-breaker: executors assign consecutive
/// sequence numbers at admission so that events with equal timestamps have a
/// well-defined total order `(ts, seq)` (§3's "deterministic tie-breaking
/// procedure").
#[derive(Clone, PartialEq, Eq)]
pub struct Event {
    /// Stream the event belongs to (`sid`).
    pub stream: StreamId,
    /// Global timestamp (`ts`), logical microseconds.
    pub ts: Timestamp,
    /// Grouping key (`k`).
    pub key: Key,
    /// Payload blob (`v`). Cheap to clone.
    pub value: Bytes,
    /// Tie-breaking sequence number assigned by the executor at admission.
    pub seq: u64,
}

impl Event {
    /// Build an event with `seq = 0` (executors overwrite `seq`).
    pub fn new(
        stream: impl Into<StreamId>,
        ts: Timestamp,
        key: Key,
        value: impl Into<Bytes>,
    ) -> Self {
        Event { stream: stream.into(), ts, key, value: value.into(), seq: 0 }
    }

    /// The total order used to feed operators: increasing `(ts, seq)`.
    pub fn order(&self) -> (Timestamp, u64) {
        (self.ts, self.seq)
    }

    /// Payload as UTF-8 text, if valid.
    pub fn value_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.value).ok()
    }

    /// Approximate in-memory footprint, used for queue byte accounting.
    pub fn approx_size(&self) -> usize {
        std::mem::size_of::<Event>()
            + self.stream.as_str().len()
            + self.key.len()
            + self.value.len()
    }
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Event {{ stream: {}, ts: {}, seq: {}, key: {:?}, value: {} bytes }}",
            self.stream,
            self.ts,
            self.seq,
            self.key,
            self.value.len()
        )
    }
}

/// An emitted-but-not-yet-admitted event: what operators produce via
/// [`crate::operator::Emitter::publish`]. The runtime assigns the timestamp
/// (input ts + 1, per §3: "each output event has a timestamp greater than
/// the timestamp of the input event") and the tie-break `seq`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EmitRecord {
    /// Destination stream name.
    pub stream: StreamId,
    /// Key of the new event.
    pub key: Key,
    /// Payload of the new event.
    pub value: Bytes,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_id_equality_and_borrow() {
        let a = StreamId::from("S1");
        let b = StreamId::from(String::from("S1"));
        assert_eq!(a, b);
        let mut set = std::collections::HashSet::new();
        set.insert(a.clone());
        // Borrow<str> lets us look up by &str without allocating.
        assert!(set.contains("S1"));
        assert_eq!(a.to_string(), "S1");
    }

    #[test]
    fn key_text_and_binary() {
        let k = Key::from("walmart");
        assert_eq!(k.as_str(), Some("walmart"));
        assert_eq!(k.len(), 7);
        let b = Key::from(vec![0xff, 0xfe]);
        assert_eq!(b.as_str(), None);
        assert!(format!("{b:?}").contains("fffe"));
        assert!(Key::empty().is_empty());
    }

    #[test]
    fn route_hash_depends_on_operator() {
        let k = Key::from("best-buy");
        assert_ne!(k.route_hash("U1"), k.route_hash("U2"));
        assert_eq!(k.route_hash("U1"), k.route_hash("U1"));
    }

    #[test]
    fn same_key_different_updaters_have_distinct_slates_premise() {
        // §3: "each pair ⟨update U, key k⟩ uniquely determines a slate".
        // The routing hash is the mechanism; two updaters on one key must be
        // separable.
        let k = Key::from("kosmix");
        let (a, b) = (k.route_hash("profile"), k.route_hash("venues"));
        assert_ne!(a, b);
    }

    #[test]
    fn event_order_is_ts_then_seq() {
        let mut e1 = Event::new("S1", 10, Key::from("a"), "x");
        let mut e2 = Event::new("S2", 10, Key::from("b"), "y");
        e1.seq = 1;
        e2.seq = 2;
        assert!(e1.order() < e2.order());
        let e3 = Event::new("S1", 9, Key::from("c"), "z");
        assert!(e3.order() < e1.order());
    }

    #[test]
    fn event_value_str_and_size() {
        let e = Event::new("S1", 1, Key::from("k"), "payload");
        assert_eq!(e.value_str(), Some("payload"));
        assert!(e.approx_size() >= "S1".len() + 1 + 7);
        let bin = Event::new("S1", 1, Key::from("k"), vec![0xff, 0x00]);
        assert_eq!(bin.value_str(), None);
    }

    #[test]
    fn event_debug_is_compact() {
        let e = Event::new("S1", 42, Key::from("k"), vec![1, 2, 3]);
        let s = format!("{e:?}");
        assert!(s.contains("ts: 42"), "{s}");
        assert!(s.contains("3 bytes"), "{s}");
    }
}

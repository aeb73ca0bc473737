//! Events, streams, and keys — the ⟨sid, ts, k, v⟩ tuples of Section 3.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The payload type of [`Event::value`], re-exported so a producer can
/// build one without depending on the `bytes` crate itself.
pub use bytes::Bytes;

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

/// Longest key held inline, inside the [`Key`] value itself.
const INLINE_KEY_BYTES: usize = 22;

/// An event key.
///
/// Keys "have atomic values and need not be unique across events" (§3); they
/// group events the way MapReduce keys do. Most applications use short
/// UTF-8 text keys (user IDs, retailer names, `"<topic> <minute>"`
/// compounds), so a key of at most 22 bytes lives inside the 24-byte
/// value — cloning, hashing and comparing it touch no heap — and a
/// longer key lives in one shared `Arc<[u8]>`. Equality, order and hash
/// are those of the byte string alone, whichever form holds it.
#[derive(Clone)]
pub struct Key(KeyRepr);

#[derive(Clone)]
enum KeyRepr {
    /// The first `len` bytes of `buf`; a key that fits is always inline.
    Inline {
        len: u8,
        buf: [u8; INLINE_KEY_BYTES],
    },
    Heap(Arc<[u8]>),
}

impl Key {
    /// An empty key.
    pub const fn empty() -> Self {
        Key(KeyRepr::Inline { len: 0, buf: [0; INLINE_KEY_BYTES] })
    }

    /// Raw key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            KeyRepr::Inline { len, buf } => &buf[..usize::from(*len)],
            KeyRepr::Heap(bytes) => bytes,
        }
    }

    /// The key as UTF-8 text, if valid.
    pub fn as_str(&self) -> Option<&str> {
        std::str::from_utf8(self.as_bytes()).ok()
    }

    /// Number of bytes in the key.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether the key has zero bytes.
    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }

    /// Deterministic hash of ⟨key, destination operator⟩ — the routing hash
    /// of §4.1: "give all workers the same hash function to map ⟨event key,
    /// destination map/update function⟩ to workers".
    pub fn route_hash(&self, operator: &str) -> u64 {
        fx64_pair(self.as_bytes(), operator.as_bytes())
    }
}

impl Default for Key {
    fn default() -> Self {
        Key::empty()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Key) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl From<&[u8]> for Key {
    fn from(v: &[u8]) -> Self {
        if v.len() > INLINE_KEY_BYTES {
            return Key(KeyRepr::Heap(Arc::from(v)));
        }
        let mut buf = [0; INLINE_KEY_BYTES];
        buf[..v.len()].copy_from_slice(v);
        Key(KeyRepr::Inline { len: v.len() as u8, buf })
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key::from(s.as_bytes())
    }
}

impl From<String> for Key {
    fn from(s: String) -> Self {
        Key::from(s.as_bytes())
    }
}

impl From<Vec<u8>> for Key {
    fn from(v: Vec<u8>) -> Self {
        Key::from(v.as_slice())
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_str() {
            Some(s) => write!(f, "Key({s:?})"),
            None => write!(f, "Key(0x{})", hex(self.as_bytes())),
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

    /// A key of `len` bytes whose first byte is `first`.
    fn key_of(len: usize, first: u8) -> Vec<u8> {
        (0..len).map(|i| if i == 0 { first } else { b'a' + (i % 26) as u8 }).collect()
    }

    #[test]
    fn keys_round_trip_at_every_form_boundary() {
        for len in [0, 1, INLINE_KEY_BYTES - 1, INLINE_KEY_BYTES, INLINE_KEY_BYTES + 1, 64] {
            for first in [b'k', 0xff, 0x00] {
                let bytes = key_of(len, first);
                let keys = [
                    Key::from(bytes.as_slice()),
                    Key::from(bytes.clone()),
                    Key::from(String::from_utf8_lossy(&bytes).into_owned()),
                ];
                assert_eq!(keys[0].as_bytes(), bytes.as_slice(), "len {len}");
                assert_eq!(keys[0], keys[1]);
                assert_eq!(keys[0].len(), len);
                assert_eq!(keys[0].is_empty(), len == 0);
                assert_eq!(keys[0].clone(), keys[0]);
                assert_eq!(keys[0].as_str().is_some(), std::str::from_utf8(&bytes).is_ok());
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    assert_eq!(keys[2].as_str(), Some(text));
                    assert_eq!(keys[2], Key::from(text));
                }
            }
        }
        assert_eq!(Key::default(), Key::empty());
        assert_eq!(Key::from(""), Key::empty());
    }

    #[test]
    fn key_hash_is_the_hash_of_its_bytes() {
        use std::collections::hash_map::DefaultHasher;
        fn hash_with<H: Hasher + Default>(value: &(impl Hash + ?Sized)) -> u64 {
            let mut h = H::default();
            value.hash(&mut h);
            h.finish()
        }
        for len in [0, 5, INLINE_KEY_BYTES, INLINE_KEY_BYTES + 1, 64] {
            let bytes = key_of(len, 0xfe);
            let key = Key::from(bytes.as_slice());
            let fx = hash_with::<crate::hash::FxHasher64>(&key);
            assert_eq!(fx, hash_with::<crate::hash::FxHasher64>(bytes.as_slice()), "len {len}");
            let vendored = Bytes::from(bytes.clone());
            assert_eq!(fx, hash_with::<crate::hash::FxHasher64>(&vendored), "len {len}");
            let sip = hash_with::<DefaultHasher>(&key);
            assert_eq!(sip, hash_with::<DefaultHasher>(bytes.as_slice()), "len {len}");
            assert_eq!(key.route_hash("U1"), fx64_pair(&bytes, b"U1"));
        }
    }

    #[test]
    fn key_order_is_byte_order_across_forms() {
        let mut bytes: Vec<Vec<u8>> = Vec::new();
        for len in [0, 1, 7, INLINE_KEY_BYTES - 1, INLINE_KEY_BYTES, INLINE_KEY_BYTES + 1, 64] {
            for first in [0x00, b'a', b'k', 0x80, 0xff] {
                bytes.push(key_of(len, first));
            }
        }
        // A long key that shares a short one's whole prefix sorts after it.
        bytes.push(key_of(INLINE_KEY_BYTES + 1, b'k')[..INLINE_KEY_BYTES].to_vec());
        for a in &bytes {
            for b in &bytes {
                let (ka, kb) = (Key::from(a.as_slice()), Key::from(b.as_slice()));
                assert_eq!(ka.cmp(&kb), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(ka == kb, a == b);
            }
        }
    }

    #[test]
    fn keys_and_events_stay_their_size() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
        assert!(std::mem::size_of::<Event>() <= 80, "{}", std::mem::size_of::<Event>());
    }

    #[test]
    fn key_debug_prints_text_or_hex() {
        assert_eq!(format!("{:?}", Key::from("walmart")), r#"Key("walmart")"#);
        assert_eq!(format!("{:?}", Key::from("say \"hi\"")), r#"Key("say \"hi\"")"#);
        assert_eq!(format!("{:?}", Key::from(vec![0xff, 0x00])), "Key(0xff00)");
        assert_eq!(format!("{:?}", Key::from(key_of(30, 0xff))).len(), "Key(0x)".len() + 60);
        assert_eq!(format!("{:?}", Key::empty()), r#"Key("")"#);
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

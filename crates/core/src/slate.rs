//! Slates — the "memories" of update functions.
//!
//! A slate is the in-memory data structure that "summarizes all events with
//! key k that an update function U has seen so far" (§3). Each pair
//! ⟨updater, key⟩ uniquely determines a slate. Slates are:
//!
//! * updated in place by the updater on every event with the key;
//! * cached in the memory of the machine running the updater;
//! * persisted (compressed) to the key-value store at row `k`, column `U`;
//! * readable live over HTTP (§4.4);
//! * subject to a per-updater time-to-live after which they reset to empty.
//!
//! Following the paper's Java API (Figure 4), the canonical representation
//! is an opaque byte blob that the updater replaces wholesale
//! (`replaceSlate`). Convenience accessors cover the common encodings the
//! paper mentions: UTF-8 text counters and JSON objects.
//!
//! A slate holds one of four representations: raw **bytes**, an undecoded
//! **MBF** payload, a resident parsed **JSON** document, or a resident
//! decimal **counter**. The last three render their byte forms lazily, once
//! per mutation, and only at real byte boundaries; every boundary sees
//! exactly the bytes the byte path would have produced. DESIGN.md §8
//! "Resident slates" describes each and when it renders.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use bytes::Bytes;

use crate::json::{self, Json};
use crate::mbf::{self, Codec};

/// Global count of byte-payload → JSON-document parses (all slates).
static PARSES: AtomicU64 = AtomicU64::new(0);
/// Global count of JSON-document → byte-payload serializations.
static SERIALIZATIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide (parses, serializations) counters for **JSON-text** slate
/// payloads — an allocations-ish proxy the hot-path benchmarks record: the
/// seed path pays one parse *and* one serialization per update, the
/// resident path parses once per cache fault and serializes once per
/// flush. MBF decodes/encodes are not counted.
pub fn repr_counters() -> (u64, u64) {
    (PARSES.load(Ordering::Relaxed), SERIALIZATIONS.load(Ordering::Relaxed))
}

/// The payload: raw bytes, a resident decimal counter, an undecoded MBF
/// payload, or a resident parsed document with its byte forms cached
/// lazily per codec.
#[derive(Clone, Debug)]
enum Repr {
    Bytes(Bytes),
    Counter {
        n: u64,
        /// `n` as decimal text; filled on first byte access after a
        /// mutation.
        text: OnceLock<Bytes>,
    },
    Mbf {
        raw: Bytes,
        /// Cached JSON-text rendering (decode + serialize), filled only if
        /// a text boundary reads an undecoded MBF slate.
        json: OnceLock<Bytes>,
    },
    Json {
        doc: Json,
        /// Serialized JSON text; filled on first JSON byte access after a
        /// mutation (or carried over from the parse when untouched).
        json: OnceLock<Bytes>,
        /// Encoded MBF payload; filled on first MBF byte access after a
        /// mutation (or carried over from the decode when untouched).
        mbf: OnceLock<Bytes>,
    },
}

/// A slate: the per-⟨updater, key⟩ summary blob, plus bookkeeping the
/// runtime uses for cache/flush management.
#[derive(Clone, Debug)]
pub struct Slate {
    repr: Repr,
    /// Bumped on every mutation; lets caches detect dirtiness cheaply.
    version: u64,
}

impl Default for Slate {
    fn default() -> Self {
        Slate { repr: Repr::Bytes(Bytes::new()), version: 0 }
    }
}

impl PartialEq for Slate {
    fn eq(&self, other: &Self) -> bool {
        self.version == other.version && self.bytes() == other.bytes()
    }
}

impl Eq for Slate {}

impl Slate {
    /// A fresh, empty slate — what an updater receives "when [it] accesses a
    /// slate associated with a key k for the first time" (§3). The updater
    /// is responsible for initializing its variables.
    pub fn empty() -> Self {
        Slate::default()
    }

    /// Build a slate from raw bytes (e.g. loaded from the key-value store).
    pub fn from_bytes(data: Vec<u8>) -> Self {
        Slate { repr: Repr::Bytes(Bytes::from(data)), version: 0 }
    }

    /// Build a slate from a stored payload tagged with its codec: MBF
    /// payloads stay undecoded until an accessor needs the document (and
    /// an untouched slate re-materializes byte-identically in MBF), JSON
    /// payloads behave exactly like [`Slate::from_bytes`].
    pub fn from_stored(data: Vec<u8>, codec: Codec) -> Self {
        let raw = Bytes::from(data);
        match codec {
            Codec::Json => Slate { repr: Repr::Bytes(raw), version: 0 },
            Codec::Mbf if raw.is_empty() => Slate::default(),
            Codec::Mbf => Slate { repr: Repr::Mbf { raw, json: OnceLock::new() }, version: 0 },
        }
    }

    /// True if no updater has written anything yet (or the slate expired).
    /// A resident document is never empty (its serialization is at least
    /// `null`), and an MBF payload always has at least a magic + tag byte.
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Bytes(b) => b.is_empty(),
            Repr::Counter { .. } | Repr::Mbf { .. } | Repr::Json { .. } => false,
        }
    }

    /// The slate payload as **JSON text** (or the raw blob for non-JSON
    /// payloads) — the human-facing byte form served by HTTP `/slate` and
    /// used by the text accessors. For a resident document this
    /// materializes (and caches) the serialization; for an undecoded MBF
    /// payload it renders (and caches) the canonical JSON text. Byte
    /// boundaries that can carry either codec use [`Slate::materialize`]
    /// instead.
    pub fn bytes(&self) -> &[u8] {
        match &self.repr {
            Repr::Bytes(b) => b,
            Repr::Counter { n, text } => text.get_or_init(|| render_decimal(*n)),
            Repr::Mbf { raw, json } => json.get_or_init(|| match Json::from_mbf(raw) {
                Ok(doc) => serialize(&doc),
                // Corrupt MBF: fall back to the raw payload rather than
                // invent bytes; readers treat it as opaque.
                Err(_) => raw.clone(),
            }),
            Repr::Json { doc, json, .. } => json.get_or_init(|| serialize(doc)),
        }
    }

    /// Byte length of the payload in its current natural form (an
    /// undecoded MBF payload reports its MBF length without rendering
    /// JSON text; a resident document materializes its serialization).
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Mbf { raw, .. } => raw.len(),
            _ => self.bytes().len(),
        }
    }

    /// Payload as UTF-8 text, if valid. (Figure 4 stores a decimal counter
    /// as text.)
    pub fn as_str(&self) -> Option<&str> {
        std::str::from_utf8(self.bytes()).ok()
    }

    /// Decode the payload as JSON — "our applications often use JSON to
    /// encode slates for language independence and flexibility" (§4.2).
    /// Returns an owned document; hot paths with `&mut` access should use
    /// [`Slate::ensure_json`] / [`Slate::json_mut`] instead, which parse at
    /// most once per slate.
    pub fn as_json(&self) -> Option<Json> {
        match &self.repr {
            Repr::Bytes(_) | Repr::Counter { .. } => {
                let b = self.bytes();
                if b.is_empty() {
                    return None;
                }
                if mbf::is_mbf(b) {
                    return Json::from_mbf(b).ok();
                }
                PARSES.fetch_add(1, Ordering::Relaxed);
                Json::parse(std::str::from_utf8(b).ok()?).ok()
            }
            Repr::Mbf { raw, .. } => Json::from_mbf(raw).ok(),
            Repr::Json { doc, .. } => Some(doc.clone()),
        }
    }

    /// Make the parsed document resident (parsing/decoding at most once)
    /// and return a shared reference to it. Does **not** count as a
    /// mutation: the original payload is kept cached under its codec, so
    /// an untouched slate still flushes byte-identically. `None` when the
    /// payload is empty or neither parseable JSON nor decodable MBF (the
    /// representation is left as-is).
    pub fn ensure_json(&mut self) -> Option<&Json> {
        if let Repr::Counter { .. } = self.repr {
            // A counter's document is its text's: parse that, as the byte
            // path would.
            self.repr = Repr::Bytes(self.to_shared());
        }
        match &self.repr {
            Repr::Bytes(b) if !b.is_empty() && mbf::is_mbf(b) => {
                // Raw bytes that carry an MBF payload (e.g. replaced
                // wholesale from an MBF event value): decode, keep the
                // payload cached as MBF.
                let doc = Json::from_mbf(b).ok()?;
                let mbf_cache = OnceLock::new();
                let _ = mbf_cache.set(b.clone());
                self.repr = Repr::Json { doc, json: OnceLock::new(), mbf: mbf_cache };
            }
            Repr::Bytes(b) if !b.is_empty() => {
                PARSES.fetch_add(1, Ordering::Relaxed);
                let doc = Json::parse(std::str::from_utf8(b).ok()?).ok()?;
                let json = OnceLock::new();
                let _ = json.set(b.clone());
                self.repr = Repr::Json { doc, json, mbf: OnceLock::new() };
            }
            Repr::Mbf { raw, .. } => {
                let doc = Json::from_mbf(raw).ok()?;
                let mbf_cache = OnceLock::new();
                let _ = mbf_cache.set(raw.clone());
                self.repr = Repr::Json { doc, json: OnceLock::new(), mbf: mbf_cache };
            }
            _ => {}
        }
        match &self.repr {
            Repr::Json { doc, .. } => Some(doc),
            Repr::Bytes(_) | Repr::Counter { .. } | Repr::Mbf { .. } => None,
        }
    }

    /// Mutable access to the resident document. Counts as a mutation:
    /// `version` is bumped and the cached byte forms are invalidated —
    /// serialization happens only at the next byte boundary. `None` when
    /// the payload is empty or not JSON/MBF (nothing is changed then).
    pub fn json_mut(&mut self) -> Option<&mut Json> {
        self.ensure_json()?;
        self.version += 1;
        match &mut self.repr {
            Repr::Json { doc, json, mbf } => {
                json.take(); // invalidate: the doc is about to change
                mbf.take();
                Some(doc)
            }
            _ => unreachable!("ensure_json left a resident doc"),
        }
    }

    /// Mutable access to the resident document, installing `init()` when
    /// the slate is empty or unparseable (the Figure 4 "parse failure ⟹
    /// start fresh" posture). Always counts as a mutation.
    pub fn json_mut_or(&mut self, init: impl FnOnce() -> Json) -> &mut Json {
        if self.ensure_json().is_none() {
            self.repr = Repr::Json { doc: init(), json: OnceLock::new(), mbf: OnceLock::new() };
        }
        self.version += 1;
        match &mut self.repr {
            Repr::Json { doc, json, mbf } => {
                json.take();
                mbf.take();
                doc
            }
            _ => unreachable!("a resident doc was just installed"),
        }
    }

    /// Like [`Slate::json_mut_or`], but also falls back to `init()` when
    /// the payload parses to something other than an object — the common
    /// app shape is an object slate mutated with [`Json::set`], which
    /// panics on non-objects, and a foreign or corrupt payload must
    /// rebuild (the old parse-and-replace behaviour) rather than panic a
    /// worker. `init` must return an object.
    pub fn obj_mut_or(&mut self, init: impl FnOnce() -> Json) -> &mut Json {
        if !matches!(self.ensure_json(), Some(Json::Obj(_))) {
            self.repr = Repr::Json { doc: init(), json: OnceLock::new(), mbf: OnceLock::new() };
        }
        self.version += 1;
        match &mut self.repr {
            Repr::Json { doc, json, mbf } => {
                json.take();
                mbf.take();
                doc
            }
            _ => unreachable!("a resident doc was just installed"),
        }
    }

    /// Replace the entire payload — the `replaceSlate` call of Figure 4.
    pub fn replace(&mut self, data: Vec<u8>) {
        self.repr = Repr::Bytes(Bytes::from(data));
        self.version += 1;
    }

    /// Replace the payload with a JSON document, taking ownership: the
    /// document becomes resident and is serialized only at the next byte
    /// boundary.
    pub fn set_json(&mut self, value: Json) {
        self.repr = Repr::Json { doc: value, json: OnceLock::new(), mbf: OnceLock::new() };
        self.version += 1;
    }

    /// Replace the payload with serialized JSON (clones `value`; prefer
    /// [`Slate::set_json`] when the document can be moved in).
    pub fn replace_json(&mut self, value: &Json) {
        self.set_json(value.clone());
    }

    /// Reset to empty (TTL expiry / explicit deletion).
    pub fn clear(&mut self) {
        if !self.is_empty() {
            self.repr = Repr::Bytes(Bytes::new());
            self.version += 1;
        }
    }

    /// Monotone mutation counter; equal versions ⟹ byte-identical payloads
    /// for slates that share a lineage.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The payload as a cheaply-shareable [`Bytes`] in **JSON text** form
    /// (used by boundaries that must stay human-readable). No copy: bytes
    /// payloads share their buffer, resident documents share the
    /// materialized cache. Codec-aware boundaries use
    /// [`Slate::materialize`].
    pub fn to_shared(&self) -> Bytes {
        self.materialize(Codec::Json).0
    }

    /// Materialize the payload in the requested codec, returning the bytes
    /// and the codec they are actually in:
    ///
    /// * raw non-JSON payloads (counter text, opaque blobs) are returned
    ///   verbatim and tagged by sniffing — they are never transcoded;
    /// * a resident counter renders its decimal text at most once per
    ///   mutation, tagged JSON, under either requested codec;
    /// * an untouched slate loaded from bytes returns those exact bytes
    ///   when asked for its own codec (byte-identical flush);
    /// * a resident document serializes at most once per codec per
    ///   mutation (cached in a per-codec `OnceLock`);
    /// * a document the MBF encoder rejects (over-deep, over-long) falls
    ///   back to JSON text — the returned codec says so.
    pub fn materialize(&self, codec: Codec) -> (Bytes, Codec) {
        match (&self.repr, codec) {
            (Repr::Bytes(b), _) => (b.clone(), Codec::sniff(b)),
            (Repr::Counter { n, text }, _) => {
                (text.get_or_init(|| render_decimal(*n)).clone(), Codec::Json)
            }
            (Repr::Mbf { raw, .. }, Codec::Mbf) => (raw.clone(), Codec::Mbf),
            (Repr::Mbf { raw, json }, Codec::Json) => {
                let text = json.get_or_init(|| match Json::from_mbf(raw) {
                    Ok(doc) => serialize(&doc),
                    Err(_) => raw.clone(),
                });
                (text.clone(), Codec::sniff(text))
            }
            (Repr::Json { doc, json, .. }, Codec::Json) => {
                (json.get_or_init(|| serialize(doc)).clone(), Codec::Json)
            }
            (Repr::Json { doc, json, mbf }, Codec::Mbf) => {
                if let Some(b) = mbf.get() {
                    return (b.clone(), Codec::Mbf);
                }
                match doc.to_mbf() {
                    Ok(encoded) => {
                        let _ = mbf.set(Bytes::from(encoded));
                        (mbf.get().expect("just set").clone(), Codec::Mbf)
                    }
                    Err(_) => (json.get_or_init(|| serialize(doc)).clone(), Codec::Json),
                }
            }
        }
    }

    // --- typed counter helpers (the dominant slate shape in the paper's
    // examples: checkin counts, topic counts per minute) ---

    /// Read the payload as a decimal `u64` counter; 0 when empty/invalid
    /// (mirrors Figure 4's `NumberFormatException` fallback).
    pub fn counter(&self) -> u64 {
        match &self.repr {
            Repr::Counter { n, .. } => *n,
            _ => parse_decimal(self.bytes()).unwrap_or(0),
        }
    }

    /// Increment the decimal counter payload by `delta` (saturating) and
    /// return the new value. Any other payload is read once by
    /// [`Slate::counter`]'s rule and replaced by a resident counter, which
    /// later increments update in place; its text renders only at a byte
    /// boundary.
    pub fn incr_counter(&mut self, delta: u64) -> u64 {
        self.version += 1;
        if let Repr::Counter { n, text } = &mut self.repr {
            *n = n.saturating_add(delta);
            text.take();
            return *n;
        }
        let n = self.counter().saturating_add(delta);
        self.repr = Repr::Counter { n, text: OnceLock::new() };
        n
    }
}

/// The one rule for decimal counter text (slates, and the values counter
/// updaters add and combine): a `u64` after trimming whitespace, `None`
/// otherwise.
pub fn parse_decimal(bytes: &[u8]) -> Option<u64> {
    std::str::from_utf8(bytes).ok()?.trim().parse().ok()
}

fn render_decimal(n: u64) -> Bytes {
    let mut out = Vec::with_capacity(20);
    json::write_decimal(&mut out, n);
    Bytes::from(out)
}

fn serialize(doc: &Json) -> Bytes {
    SERIALIZATIONS.fetch_add(1, Ordering::Relaxed);
    let mut out = Vec::new();
    doc.write_into(&mut out);
    Bytes::from(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_slate_is_empty() {
        let s = Slate::empty();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.version(), 0);
        assert_eq!(s.counter(), 0);
        assert_eq!(s.as_json(), None);
    }

    #[test]
    fn replace_bumps_version() {
        let mut s = Slate::empty();
        s.replace(b"17".to_vec());
        assert_eq!(s.version(), 1);
        assert_eq!(s.as_str(), Some("17"));
        s.replace(b"18".to_vec());
        assert_eq!(s.version(), 2);
    }

    #[test]
    fn counter_semantics_match_figure_4() {
        // Figure 4: parse failure ⟹ count = 0, then ++count.
        let mut s = Slate::from_bytes(b"not-a-number".to_vec());
        assert_eq!(s.counter(), 0);
        assert_eq!(s.incr_counter(1), 1);
        assert_eq!(s.incr_counter(1), 2);
        assert_eq!(s.as_str(), Some("2"));
    }

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        let mut s = Slate::from_bytes(u64::MAX.to_string().into_bytes());
        assert_eq!(s.incr_counter(5), u64::MAX);
        assert_eq!(s.bytes(), u64::MAX.to_string().as_bytes());
    }

    #[test]
    fn a_counter_renders_its_text_once_per_mutation() {
        let mut s = Slate::from_bytes(b" 41 ".to_vec());
        assert_eq!(s.incr_counter(1), 42);
        let (flushed, codec) = s.materialize(Codec::Mbf);
        assert_eq!((flushed.as_ref(), codec), (&b"42"[..], Codec::Json));
        assert_eq!(flushed.as_ptr(), s.to_shared().as_ptr(), "one rendering, shared");
        assert_eq!(s.incr_counter(958), 1000);
        assert_eq!((s.bytes(), s.len(), s.version()), (&b"1000"[..], 4, 2));
    }

    #[test]
    fn parse_decimal_is_trimmed_u64_text() {
        for (text, want) in [
            (&b"7"[..], Some(7)),
            (b"007", Some(7)),
            (b" 7\n", Some(7)),
            (b"+7", Some(7)),
            ("\u{a0}7".as_bytes(), Some(7)),
            (b"18446744073709551615", Some(u64::MAX)),
            (b"18446744073709551616", None),
            (b"", None),
            (b"-1", None),
            (b"7x", None),
            (&[0xff, b'7'], None),
        ] {
            assert_eq!(parse_decimal(text), want, "{text:?}");
        }
    }

    #[test]
    fn json_roundtrip_through_slate() {
        let mut s = Slate::empty();
        let v = Json::parse(r#"{"count": 3, "days": 2}"#).unwrap();
        s.replace_json(&v);
        let back = s.as_json().unwrap();
        assert_eq!(back.get("count").and_then(Json::as_u64), Some(3));
        assert_eq!(back.get("days").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn clear_only_bumps_version_when_nonempty() {
        let mut s = Slate::empty();
        s.clear();
        assert_eq!(s.version(), 0);
        s.replace(b"x".to_vec());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.version(), 2);
    }

    #[test]
    fn from_bytes_preserves_payload() {
        let s = Slate::from_bytes(vec![1, 2, 3]);
        assert_eq!(s.bytes(), &[1, 2, 3]);
        // Invalid UTF-8 payloads read as None:
        let t = Slate::from_bytes(vec![0xff, 0xfe]);
        assert_eq!(t.as_str(), None);
        assert_eq!(s.to_shared().as_ref(), &[1, 2, 3]);
    }

    #[test]
    fn ensure_json_preserves_bytes_and_version() {
        // A resident conversion is not a mutation: the slate flushes the
        // exact bytes it was loaded with, even if parse→serialize would
        // not roundtrip them identically (e.g. whitespace).
        let original = b"{ \"count\" : 3 }".to_vec();
        let mut s = Slate::from_bytes(original.clone());
        assert_eq!(s.ensure_json().unwrap().get("count").and_then(Json::as_u64), Some(3));
        assert_eq!(s.version(), 0);
        assert_eq!(s.bytes(), original.as_slice(), "untouched resident slate keeps its bytes");
        // A second ensure_json returns the same resident doc (the repr
        // stays Json; re-parsing would lose the cached original bytes).
        s.ensure_json().unwrap();
        assert_eq!(s.bytes(), original.as_slice());
    }

    #[test]
    fn json_mut_bumps_version_and_reserializes() {
        let mut s = Slate::from_bytes(br#"{"count":3}"#.to_vec());
        {
            let doc = s.json_mut().unwrap();
            doc.set("count", Json::num(4));
        }
        assert_eq!(s.version(), 1);
        assert_eq!(s.bytes(), br#"{"count":4}"#);
        assert_eq!(s.len(), 11);
    }

    #[test]
    fn json_mut_on_non_json_is_none_and_untouched() {
        let mut s = Slate::from_bytes(b"not json".to_vec());
        assert!(s.json_mut().is_none());
        assert_eq!(s.version(), 0);
        assert_eq!(s.bytes(), b"not json");
        let mut empty = Slate::empty();
        assert!(empty.json_mut().is_none());
    }

    #[test]
    fn json_mut_or_installs_default() {
        let mut s = Slate::empty();
        {
            let doc = s.json_mut_or(|| Json::obj([("n", Json::num(0))]));
            doc.set("n", Json::num(1));
        }
        assert_eq!(s.version(), 1);
        assert_eq!(s.bytes(), br#"{"n":1}"#);
        // Unparseable payloads fall back to the default too.
        let mut bad = Slate::from_bytes(b"garbage".to_vec());
        bad.json_mut_or(|| Json::obj([("n", Json::num(7))]));
        assert_eq!(bad.bytes(), br#"{"n":7}"#);
    }

    #[test]
    fn obj_mut_or_rebuilds_non_object_payloads() {
        // A corrupt (or foreign) payload that parses to a non-object must
        // rebuild from the default, not panic the worker on `set`.
        for payload in [&b"5"[..], b"[1,2]", b"\"str\"", b"garbage", b""] {
            let mut s = Slate::from_bytes(payload.to_vec());
            let doc = s.obj_mut_or(|| Json::obj([("n", Json::num(0))]));
            doc.set("n", Json::num(1));
            assert_eq!(s.bytes(), br#"{"n":1}"#, "payload {payload:?}");
        }
        // Object payloads are mutated in place.
        let mut s = Slate::from_bytes(br#"{"n":41,"extra":true}"#.to_vec());
        s.obj_mut_or(|| Json::obj([("n", Json::num(0))])).set("n", Json::num(42));
        assert_eq!(s.bytes(), br#"{"n":42,"extra":true}"#);
    }

    #[test]
    fn set_json_matches_replace_json_bytes() {
        let v = Json::obj([("a", Json::num(1)), ("b", Json::str("x"))]);
        let mut a = Slate::empty();
        let mut b = Slate::empty();
        a.replace_json(&v);
        b.set_json(v);
        assert_eq!(a.bytes(), b.bytes());
        assert_eq!(a, b);
    }

    #[test]
    fn resident_clear_resets_to_empty_bytes() {
        let mut s = Slate::empty();
        s.set_json(Json::obj([("x", Json::num(1))]));
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.bytes(), b"");
        assert_eq!(s.version(), 2);
    }

    #[test]
    fn resident_and_bytes_slates_compare_by_payload() {
        let mut resident = Slate::empty();
        resident.set_json(Json::obj([("n", Json::num(3))]));
        let mut bytes = Slate::empty();
        bytes.replace(br#"{"n":3}"#.to_vec());
        assert_eq!(resident, bytes, "same version, same payload");
    }

    // --- MBF representation ---

    fn doc() -> Json {
        Json::obj([("count", Json::num(3)), ("name", Json::str("muppet"))])
    }

    #[test]
    fn from_stored_mbf_stays_undecoded_and_flushes_byte_identically() {
        let mbf = doc().to_mbf().unwrap();
        let s = Slate::from_stored(mbf.clone(), Codec::Mbf);
        assert!(!s.is_empty());
        assert_eq!(s.len(), mbf.len(), "len reports the MBF payload without rendering JSON");
        let (bytes, codec) = s.materialize(Codec::Mbf);
        assert_eq!(codec, Codec::Mbf);
        assert_eq!(bytes.as_ref(), mbf.as_slice(), "untouched MBF slate re-materializes verbatim");
    }

    #[test]
    fn mbf_slate_renders_canonical_json_text_at_text_boundaries() {
        let mbf = doc().to_mbf().unwrap();
        let s = Slate::from_stored(mbf, Codec::Mbf);
        assert_eq!(s.bytes(), doc().to_compact().as_bytes());
        let (bytes, codec) = s.materialize(Codec::Json);
        assert_eq!(codec, Codec::Json);
        assert_eq!(bytes.as_ref(), doc().to_compact().as_bytes());
    }

    #[test]
    fn ensure_json_on_mbf_is_not_a_mutation_and_keeps_the_payload() {
        let mbf = doc().to_mbf().unwrap();
        let mut s = Slate::from_stored(mbf.clone(), Codec::Mbf);
        assert_eq!(s.ensure_json().unwrap().get("count").and_then(Json::as_u64), Some(3));
        assert_eq!(s.version(), 0);
        let (bytes, codec) = s.materialize(Codec::Mbf);
        assert_eq!((bytes.as_ref(), codec), (mbf.as_slice(), Codec::Mbf));
    }

    #[test]
    fn mutating_an_mbf_slate_reencodes_in_both_codecs() {
        let mut s = Slate::from_stored(doc().to_mbf().unwrap(), Codec::Mbf);
        s.json_mut().unwrap().set("count", Json::num(4));
        assert_eq!(s.version(), 1);
        let expect = Json::obj([("count", Json::num(4)), ("name", Json::str("muppet"))]);
        let (mbf_bytes, c1) = s.materialize(Codec::Mbf);
        assert_eq!(c1, Codec::Mbf);
        assert_eq!(Json::from_mbf(&mbf_bytes).unwrap(), expect);
        let (json_bytes, c2) = s.materialize(Codec::Json);
        assert_eq!(c2, Codec::Json);
        assert_eq!(json_bytes.as_ref(), expect.to_compact().as_bytes());
    }

    #[test]
    fn materialize_mbf_from_resident_doc_roundtrips() {
        let mut s = Slate::empty();
        s.set_json(doc());
        let (bytes, codec) = s.materialize(Codec::Mbf);
        assert_eq!(codec, Codec::Mbf);
        assert_eq!(Json::from_mbf(&bytes).unwrap(), doc());
        // Cached: a second call returns the same buffer.
        let (again, _) = s.materialize(Codec::Mbf);
        assert_eq!(bytes.as_ptr(), again.as_ptr());
    }

    #[test]
    fn raw_payloads_are_never_transcoded() {
        // Counter text stays raw under either requested codec.
        let mut s = Slate::empty();
        s.incr_counter(7);
        let (bytes, codec) = s.materialize(Codec::Mbf);
        assert_eq!((bytes.as_ref(), codec), (&b"7"[..], Codec::Json));
        let (bytes, codec) = s.materialize(Codec::Json);
        assert_eq!((bytes.as_ref(), codec), (&b"7"[..], Codec::Json));
    }

    #[test]
    fn replaced_mbf_bytes_are_sniffed_and_usable() {
        // replaceSlate with an MBF payload (e.g. copied from an MBF event
        // value): materialize tags it correctly and accessors decode it.
        let mbf = doc().to_mbf().unwrap();
        let mut s = Slate::empty();
        s.replace(mbf.clone());
        let (bytes, codec) = s.materialize(Codec::Mbf);
        assert_eq!((bytes.as_ref(), codec), (mbf.as_slice(), Codec::Mbf));
        assert_eq!(s.as_json().unwrap(), doc());
        assert_eq!(s.ensure_json().unwrap(), &doc());
    }

    #[test]
    fn corrupt_mbf_payload_degrades_to_opaque_bytes() {
        let mut mbf = doc().to_mbf().unwrap();
        mbf.truncate(mbf.len() - 1);
        let mut s = Slate::from_stored(mbf.clone(), Codec::Mbf);
        assert!(s.ensure_json().is_none());
        assert_eq!(s.version(), 0);
        // Text boundary falls back to the raw payload; MBF boundary
        // returns it verbatim.
        assert_eq!(s.bytes(), mbf.as_slice());
        let (bytes, codec) = s.materialize(Codec::Mbf);
        assert_eq!((bytes.as_ref(), codec), (mbf.as_slice(), Codec::Mbf));
    }

    #[test]
    fn from_stored_empty_mbf_is_empty() {
        let s = Slate::from_stored(Vec::new(), Codec::Mbf);
        assert!(s.is_empty());
        assert_eq!(s.materialize(Codec::Mbf).0.len(), 0);
    }
}

//! MBF — the Muppet Binary Format for slate and event payloads.
//!
//! "Our applications often use JSON to encode slates" (§4.2) — and every
//! byte boundary (event frames, SSTable blocks, WAL records, flush
//! materialization) used to pay JSON's text bloat and parse cost. MBF is a
//! compact self-describing tagged binary encoding of exactly the [`Json`]
//! value model: one magic byte, then a recursive tagged value.
//!
//! ```text
//! payload := MAGIC value
//! value   := 0x00                                  -- null
//!          | 0x01 | 0x02                           -- false | true
//!          | 0x03 varint                           -- non-negative integer
//!          | 0x04 varint                           -- negative integer (magnitude)
//!          | 0x05 f64-le (8 bytes)                 -- non-integral / large float
//!          | 0x06 varint-len utf8-bytes            -- string (length-capped)
//!          | 0x07 varint-count value*              -- array
//!          | 0x08 varint-count (varint-len key value)*  -- object
//!          | 0x10..=0x7F                           -- fixint: the integer tag−0x10 (0..=111)
//!          | 0xA0..=0xBF utf8-bytes                -- fixstr: tag&0x1F bytes (len 0..=31)
//! ```
//!
//! The fix ranges are the msgpack trick: the common case — small counters,
//! short labels — costs one tag byte total instead of tag + varint. The
//! encoder always uses the fix form when a value qualifies (so encoding
//! stays canonical); the decoder accepts both forms.
//!
//! Design points:
//!
//! * **Sniffable.** `MAGIC` has the high bit set, so an MBF payload can
//!   never be confused with JSON text, a decimal counter, or any other
//!   ASCII payload — [`is_mbf`] is a single byte test.
//! * **Canonical-equivalent to JSON.** The integer/float split mirrors the
//!   JSON serializer's exact rule (`fract() == 0.0 && |n| < 2⁵³` prints as
//!   an integer), and non-finite floats encode as null exactly as
//!   [`Json::write_into`] serializes them — so
//!   `from_mbf(to_mbf(v)) == parse(serialize(v))` for every value.
//! * **Hardened decode.** Bounds-checked everywhere, depth-capped at
//!   [`json::MAX_DEPTH`], string lengths capped at [`MAX_STR_LEN`],
//!   container counts checked against the remaining buffer — truncated or
//!   corrupt input returns an error, never panics, never over-allocates.
//!
//! [`crate::json::scan`] reads fields of MBF payloads without decoding a
//! tree: DESIGN.md §8 "Operators read fields".

use std::borrow::Cow;

use crate::codec::{get_varint, put_varint};
use crate::error::{Error, Result};
use crate::json::{self, Field, Json, Raw};

/// First byte of every MBF payload. High bit set: no JSON text, counter
/// text, or other UTF-8/ASCII payload in this codebase begins with it.
pub const MAGIC: u8 = 0xB1;

/// Maximum length of an encoded string or object key (32 MiB). Slates and
/// event values are orders of magnitude smaller; the cap bounds what a
/// corrupt or adversarial length prefix can make the decoder do.
pub const MAX_STR_LEN: usize = 32 << 20;

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_INT_POS: u8 = 0x03;
const TAG_INT_NEG: u8 = 0x04;
const TAG_F64: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_ARR: u8 = 0x07;
const TAG_OBJ: u8 = 0x08;
/// Fixint range: `TAG_FIXINT_MIN + v` encodes the integer `v` in one byte.
const TAG_FIXINT_MIN: u8 = 0x10;
const TAG_FIXINT_MAX: u8 = 0x7F;
/// Largest integer with a one-byte fixint encoding.
const FIXINT_MAX: u64 = (TAG_FIXINT_MAX - TAG_FIXINT_MIN) as u64;
/// Fixstr range: `TAG_FIXSTR_MIN | len` prefixes a string of `len ≤ 31`.
const TAG_FIXSTR_MIN: u8 = 0xA0;
const TAG_FIXSTR_MAX: u8 = 0xBF;
/// Longest string with a one-byte fixstr prefix.
const FIXSTR_MAX: usize = (TAG_FIXSTR_MAX - TAG_FIXSTR_MIN) as usize;

/// True if `bytes` starts with the MBF magic byte — a payload-codec sniff
/// that is exact against every text payload (JSON, counters) the system
/// produces.
#[inline]
pub fn is_mbf(bytes: &[u8]) -> bool {
    bytes.first() == Some(&MAGIC)
}

/// The concrete byte encoding of a payload at a byte boundary (wire frame,
/// WAL record, SSTable cell). `Json` doubles as "raw/legacy bytes": counter
/// text and pre-MBF payloads are tagged `Json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Codec {
    /// JSON text (or raw/opaque bytes — counters, payloads of no format).
    #[default]
    Json,
    /// MBF tagged binary.
    Mbf,
}

impl Codec {
    pub fn name(self) -> &'static str {
        match self {
            Codec::Json => "json",
            Codec::Mbf => "mbf",
        }
    }

    /// Sniff the codec of a payload by its first byte.
    #[inline]
    pub fn sniff(bytes: &[u8]) -> Codec {
        if is_mbf(bytes) {
            Codec::Mbf
        } else {
            Codec::Json
        }
    }
}

impl std::fmt::Display for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Operator-facing codec knob (DESIGN.md §13): what this node writes —
/// its flushes at rest and, under `Mbf`, its ingest. Every reader sniffs,
/// so a node reads what its peers wrote whatever its own choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CodecChoice {
    /// MBF at rest; ingested values as they arrived. JSON at the HTTP
    /// boundary.
    #[default]
    Auto,
    /// Write text: flushes store JSON.
    Json,
    /// As `Auto`, and container-shaped ingested values are transcoded to
    /// MBF.
    Mbf,
}

impl CodecChoice {
    /// The codec this node writes at its byte boundaries (store, WAL,
    /// flush).
    pub fn store_codec(self) -> Codec {
        match self {
            CodecChoice::Json => Codec::Json,
            CodecChoice::Auto | CodecChoice::Mbf => Codec::Mbf,
        }
    }
}

impl std::str::FromStr for CodecChoice {
    type Err = Error;

    fn from_str(s: &str) -> Result<CodecChoice> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(CodecChoice::Auto),
            "json" => Ok(CodecChoice::Json),
            "mbf" => Ok(CodecChoice::Mbf),
            other => {
                Err(Error::Config(format!("unknown codec {other:?} (expected json|mbf|auto)")))
            }
        }
    }
}

impl std::fmt::Display for CodecChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CodecChoice::Auto => "auto",
            CodecChoice::Json => "json",
            CodecChoice::Mbf => "mbf",
        })
    }
}

fn encode_err(message: impl Into<String>) -> Error {
    Error::Mbf { offset: 0, message: message.into() }
}

fn decode_err(offset: usize, message: impl Into<String>) -> Error {
    Error::Mbf { offset, message: message.into() }
}

/// Append the MBF encoding of `value` to `out` (without re-emitting the
/// magic byte — used by [`Json::to_mbf`] and by tests that need raw
/// values). Fails on strings longer than [`MAX_STR_LEN`] and nesting
/// deeper than [`json::MAX_DEPTH`].
pub fn encode_value(out: &mut Vec<u8>, value: &Json) -> Result<()> {
    encode_at(out, value, 0)
}

fn encode_at(out: &mut Vec<u8>, value: &Json, depth: usize) -> Result<()> {
    if depth > json::MAX_DEPTH {
        return Err(encode_err(format!("nesting deeper than {}", json::MAX_DEPTH)));
    }
    match value {
        Json::Null => out.push(TAG_NULL),
        Json::Bool(false) => out.push(TAG_FALSE),
        Json::Bool(true) => out.push(TAG_TRUE),
        Json::Num(n) => encode_number(out, *n),
        Json::Str(s) => {
            encode_str(out, s)?;
        }
        Json::Arr(items) => {
            out.push(TAG_ARR);
            put_varint(out, items.len() as u64);
            for item in items {
                encode_at(out, item, depth + 1)?;
            }
        }
        Json::Obj(pairs) => {
            out.push(TAG_OBJ);
            put_varint(out, pairs.len() as u64);
            for (key, item) in pairs {
                if key.len() > MAX_STR_LEN {
                    return Err(encode_err(format!(
                        "object key of {} bytes exceeds the {MAX_STR_LEN}-byte cap",
                        key.len()
                    )));
                }
                put_varint(out, key.len() as u64);
                out.extend_from_slice(key.as_bytes());
                encode_at(out, item, depth + 1)?;
            }
        }
    }
    Ok(())
}

fn encode_str(out: &mut Vec<u8>, s: &str) -> Result<()> {
    if s.len() > MAX_STR_LEN {
        return Err(encode_err(format!(
            "string of {} bytes exceeds the {MAX_STR_LEN}-byte cap",
            s.len()
        )));
    }
    if s.len() <= FIXSTR_MAX {
        out.push(TAG_FIXSTR_MIN | s.len() as u8);
    } else {
        out.push(TAG_STR);
        put_varint(out, s.len() as u64);
    }
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Mirror of the JSON serializer's number rule: integral values with
/// `|n| < 2⁵³` become varint integers (the exact set `write_number` prints
/// without a decimal point), every other finite value is a raw f64, and
/// non-finite values become null (JSON has no Inf/NaN). Keeping the split
/// identical is what makes the cross-codec equivalence property
/// `from_mbf(to_mbf(v)) == parse(serialize(v))` hold exactly.
fn encode_number(out: &mut Vec<u8>, n: f64) {
    if n.is_finite() {
        if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
            let i = n as i64;
            if (0..=FIXINT_MAX as i64).contains(&i) {
                out.push(TAG_FIXINT_MIN + i as u8);
            } else if i >= 0 {
                out.push(TAG_INT_POS);
                put_varint(out, i as u64);
            } else {
                out.push(TAG_INT_NEG);
                put_varint(out, i.unsigned_abs());
            }
        } else {
            out.push(TAG_F64);
            out.extend_from_slice(&n.to_le_bytes());
        }
    } else {
        out.push(TAG_NULL);
    }
}

/// Decode one MBF value from the front of `buf` (no magic byte). Returns
/// `(value, bytes_consumed)`.
pub fn decode_value(buf: &[u8]) -> Result<(Json, usize)> {
    decode_at(buf, 0, 0)
}

fn decode_at(buf: &[u8], base: usize, depth: usize) -> Result<(Json, usize)> {
    let obj = match buf.first() {
        Some(&TAG_ARR) if depth <= json::MAX_DEPTH => false,
        Some(&TAG_OBJ) if depth <= json::MAX_DEPTH => true,
        _ => {
            let (field, n) = field_at(buf, base, depth)?;
            return Ok((field.into_json()?, n));
        }
    };
    let (mut items, mut pairs) = (Vec::new(), Vec::new());
    let n = members(&buf[1..], base + 1, obj, |key, at| {
        let (value, n) = decode_at(&buf[1 + at..], base + 1 + at, depth + 1)?;
        match key {
            Some(key) => pairs.push((key.to_owned(), value)),
            None => items.push(value),
        }
        Ok(n)
    })?;
    Ok((if obj { Json::Obj(pairs) } else { Json::Arr(items) }, 1 + n))
}

/// The scanner's side of [`decode_at`] (which defers every scalar to it):
/// one value, borrowed — strings borrow, and arrays and objects are
/// validated member by member and come back as their raw sub-slice.
fn field_at(buf: &[u8], base: usize, depth: usize) -> Result<(Field<'_>, usize)> {
    if depth > json::MAX_DEPTH {
        return Err(decode_err(base, format!("nesting deeper than {}", json::MAX_DEPTH)));
    }
    let (&tag, rest) =
        buf.split_first().ok_or_else(|| decode_err(base, "truncated: missing tag"))?;
    let mut at = 1;
    let field = match tag {
        TAG_NULL => Field::Null,
        TAG_FALSE => Field::Bool(false),
        TAG_TRUE => Field::Bool(true),
        TAG_INT_POS | TAG_INT_NEG => {
            let (v, n) = get_varint(rest).ok_or_else(|| decode_err(base + at, "bad integer"))?;
            at += n;
            Field::Num(if tag == TAG_INT_POS { v as f64 } else { -(v as f64) })
        }
        TAG_F64 => {
            let bytes: [u8; 8] = rest
                .get(..8)
                .and_then(|s| s.try_into().ok())
                .ok_or_else(|| decode_err(base + at, "truncated f64"))?;
            at += 8;
            Field::Num(f64::from_le_bytes(bytes))
        }
        TAG_STR => {
            let (s, n) = str_at(rest, base + at)?;
            at += n;
            Field::Str(Cow::Borrowed(s))
        }
        TAG_ARR | TAG_OBJ => {
            at += members(rest, base + at, tag == TAG_OBJ, |_, i| {
                Ok(field_at(&rest[i..], base + 1 + i, depth + 1)?.1)
            })?;
            let raw = Raw { codec: Codec::Mbf, bytes: &buf[..at] };
            if tag == TAG_OBJ {
                Field::Obj(raw)
            } else {
                Field::Arr(raw)
            }
        }
        TAG_FIXINT_MIN..=TAG_FIXINT_MAX => Field::Num((tag - TAG_FIXINT_MIN) as f64),
        TAG_FIXSTR_MIN..=TAG_FIXSTR_MAX => {
            let len = (tag & 0x1F) as usize;
            let bytes = rest.get(..len).ok_or_else(|| decode_err(base + at, "truncated string"))?;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| decode_err(base + at, "string is not UTF-8"))?;
            at += len;
            Field::Str(Cow::Borrowed(s))
        }
        other => return Err(decode_err(base, format!("unknown tag 0x{other:02x}"))),
    };
    Ok((field, at))
}

/// `Raw`'s walk over one MBF value: each top-level member of an array or
/// object goes to `member` (key `None` in arrays), and the value must fill
/// `buf` exactly.
pub(crate) fn walk<'a>(
    buf: &'a [u8],
    mut member: impl FnMut(Option<&str>, Field<'a>),
) -> Result<()> {
    let n = match buf.split_first() {
        Some((&tag @ (TAG_ARR | TAG_OBJ), rest)) => {
            1 + members(rest, 1, tag == TAG_OBJ, |key, at| {
                let (value, n) = field_at(&rest[at..], 1 + at, 1)?;
                member(key, value);
                Ok(n)
            })?
        }
        _ => field_at(buf, 0, 0)?.1,
    };
    if n != buf.len() {
        return Err(decode_err(n, "trailing bytes after value"));
    }
    Ok(())
}

/// The container walk under both [`decode_at`] and [`field_at`]: reads the
/// count of the array or object whose tag precedes `rest`, and hands each
/// member's key (`None` in arrays) and offset in `rest` to `member`, which
/// consumes the value and returns its length. Returns the bytes of `rest`
/// consumed.
fn members<'a>(
    rest: &'a [u8],
    base: usize,
    obj: bool,
    mut member: impl FnMut(Option<&'a str>, usize) -> Result<usize>,
) -> Result<usize> {
    let (count, mut at) =
        get_varint(rest).ok_or_else(|| decode_err(base, "bad container count"))?;
    // Each member is at least one tag byte: a count beyond the remaining
    // buffer is corrupt, and rejecting it up front keeps a forged count
    // from driving the loop.
    if count > (rest.len() - at) as u64 {
        return Err(decode_err(base + at, "container count exceeds buffer"));
    }
    for _ in 0..count {
        let key = if obj {
            let (key, n) = str_at(&rest[at..], base + at)?;
            at += n;
            Some(key)
        } else {
            None
        };
        at += member(key, at)?;
    }
    Ok(at)
}

/// A varint-length-prefixed UTF-8 string (string values and object keys),
/// borrowed. The tag byte, if any, has already been consumed.
fn str_at(buf: &[u8], base: usize) -> Result<(&str, usize)> {
    let (len, n) = get_varint(buf).ok_or_else(|| decode_err(base, "bad string length"))?;
    if len > MAX_STR_LEN as u64 {
        return Err(decode_err(
            base,
            format!("string length {len} exceeds the {MAX_STR_LEN}-byte cap"),
        ));
    }
    let len = len as usize;
    let end = n.checked_add(len).ok_or_else(|| decode_err(base, "string length overflow"))?;
    let bytes = buf.get(n..end).ok_or_else(|| decode_err(base, "truncated string"))?;
    let s = std::str::from_utf8(bytes).map_err(|_| decode_err(base + n, "string is not UTF-8"))?;
    Ok((s, end))
}

impl Json {
    /// Encode this document as an MBF payload (magic byte + tagged value).
    /// Fails on strings over [`MAX_STR_LEN`] or nesting over
    /// [`json::MAX_DEPTH`] — callers fall back to JSON text then.
    pub fn to_mbf(&self) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(16);
        out.push(MAGIC);
        encode_value(&mut out, self)?;
        Ok(out)
    }

    /// Decode an MBF payload (magic byte + tagged value). Rejects missing
    /// magic, trailing bytes, truncation, unknown tags, over-cap strings,
    /// and over-deep nesting — always an error, never a panic.
    pub fn from_mbf(bytes: &[u8]) -> Result<Json> {
        let (&first, rest) = bytes.split_first().ok_or_else(|| decode_err(0, "empty payload"))?;
        if first != MAGIC {
            return Err(decode_err(0, format!("bad magic byte 0x{first:02x}")));
        }
        let (value, consumed) = decode_at(rest, 1, 0)?;
        if consumed != rest.len() {
            return Err(decode_err(1 + consumed, "trailing bytes after value"));
        }
        Ok(value)
    }

    /// Codec-agnostic payload decode: MBF payloads (sniffed by magic byte)
    /// decode as MBF, anything else parses as JSON text. This is what
    /// applications use on event values, so a workflow computes identical
    /// results whether its values ride JSON or MBF.
    pub fn from_payload(bytes: &[u8]) -> Result<Json> {
        if is_mbf(bytes) {
            Json::from_mbf(bytes)
        } else {
            Json::parse_bytes(bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) -> Json {
        Json::from_mbf(&v.to_mbf().unwrap()).unwrap()
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::num(0),
            Json::num(1),
            Json::num(-1),
            Json::num(127),
            Json::num(128),
            Json::Num(2f64.powi(53) - 1.0),
            Json::Num(-(2f64.powi(53) - 1.0)),
            Json::Num(2f64.powi(53)),
            Json::Num(0.5),
            Json::Num(-3.25),
            Json::Num(f64::MIN_POSITIVE),
            Json::str(""),
            Json::str("hello"),
            Json::str("héllo ∞ 🚀"),
            Json::arr([]),
            Json::obj([("a", Json::num(1)), ("a", Json::num(2))]),
        ] {
            assert_eq!(roundtrip(&v), v, "value {v:?}");
        }
    }

    #[test]
    fn nested_containers_roundtrip() {
        let v = Json::obj([
            ("counts", Json::arr([Json::num(1), Json::num(2), Json::num(3)])),
            ("meta", Json::obj([("name", Json::str("hot_topics")), ("on", Json::Bool(true))])),
            ("empty", Json::arr([])),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn non_finite_floats_encode_as_null_like_json() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(roundtrip(&Json::Num(n)), Json::Null);
            // Same canonicalization as the JSON text serializer.
            assert_eq!(Json::parse(&Json::Num(n).to_compact()).unwrap(), Json::Null);
        }
    }

    #[test]
    fn integral_floats_use_integer_tags() {
        let enc = Json::num(300).to_mbf().unwrap();
        assert_eq!(enc[1], TAG_INT_POS);
        let enc = Json::num(-300).to_mbf().unwrap();
        assert_eq!(enc[1], TAG_INT_NEG);
        // 2^53 falls outside the integer-print range: stored as raw f64.
        let enc = Json::Num(2f64.powi(53)).to_mbf().unwrap();
        assert_eq!(enc[1], TAG_F64);
    }

    #[test]
    fn fix_range_boundaries_encode_one_byte_and_roundtrip() {
        // 0..=111 are single-byte fixints; 112 falls back to tag+varint.
        let enc = Json::num(FIXINT_MAX as f64).to_mbf().unwrap();
        assert_eq!(enc.len(), 2, "magic + one fixint byte");
        assert_eq!(enc[1], TAG_FIXINT_MAX);
        let enc = Json::num(FIXINT_MAX as f64 + 1.0).to_mbf().unwrap();
        assert_eq!(enc[1], TAG_INT_POS);
        // Strings of ≤31 bytes carry their length in the tag byte.
        let s = "x".repeat(FIXSTR_MAX);
        let enc = Json::str(&s).to_mbf().unwrap();
        assert_eq!(enc.len(), 2 + FIXSTR_MAX, "magic + fixstr tag + bytes");
        assert_eq!(enc[1], TAG_FIXSTR_MAX);
        let enc = Json::str("x".repeat(FIXSTR_MAX + 1)).to_mbf().unwrap();
        assert_eq!(enc[1], TAG_STR);
        for v in [Json::num(0), Json::num(111), Json::num(112), Json::str(""), Json::str(&s)] {
            assert_eq!(roundtrip(&v), v, "value {v:?}");
        }
        // The decoder accepts the long forms the encoder no longer emits.
        let mut long = vec![MAGIC, TAG_INT_POS];
        put_varint(&mut long, 7);
        assert_eq!(Json::from_mbf(&long).unwrap(), Json::num(7));
        let mut long = vec![MAGIC, TAG_STR];
        put_varint(&mut long, 2);
        long.extend_from_slice(b"hi");
        assert_eq!(Json::from_mbf(&long).unwrap(), Json::str("hi"));
    }

    #[test]
    fn mbf_is_smaller_than_json_on_a_typical_slate() {
        // Shaped like the hot_topics/retailer bench slates: short string
        // labels, large counters, and epoch-scale timestamps.
        let typical = Json::obj([
            ("count", Json::num(1_234_567)),
            ("updated_ts", Json::num(1_700_000_000_000_f64)),
            (
                "topics",
                Json::arr(
                    (0..20)
                        .map(|i| {
                            Json::obj([
                                ("name", Json::str(format!("topic-{i}"))),
                                ("hits", Json::num((10_000 + i * 37) as f64)),
                                ("last_ts", Json::num((1_700_000_000_000i64 + i) as f64)),
                            ])
                        })
                        .collect::<Vec<_>>(),
                ),
            ),
        ]);
        // The documents the apps actually move (the byte ledger PR 9
        // recorded): a retailer checkin payload, a minute-counter slate, a
        // hot-detector slate (key-heavy: a fifth) and a tweet (string-heavy:
        // smaller, if not by much).
        let checkin = r#"{"id":48213,"user":"user-417","venue":{"name":"Walmart Supercenter","lat":37.31415926535,"lng":-122.27182818284}}"#;
        let minute = r#"{"count":17,"day":15170}"#;
        let detector =
            r#"{"total_count":412,"days":3,"last_day":15170,"today_count":17,"emitted_day":null}"#;
        let tweet = r#"{"user":"user-93","text":"watching the game tonight","topics":["sports"]}"#;
        let parsed = |text: &str| Json::parse(text).unwrap();
        for (doc, num, den) in [
            (typical, 3, 4),
            (parsed(checkin), 3, 4),
            (parsed(minute), 3, 4),
            (parsed(detector), 4, 5),
            (parsed(tweet), 19, 20),
        ] {
            let (mbf, json) = (doc.to_mbf().unwrap().len(), doc.to_compact().len());
            assert!(
                mbf * den <= json * num,
                "mbf {mbf} vs json {json}: over {num}/{den} for {doc:?}"
            );
        }
    }

    #[test]
    fn truncation_never_panics() {
        let v = Json::obj([
            ("s", Json::str("some string value")),
            ("a", Json::arr([Json::num(1), Json::Num(1.5), Json::Null])),
        ]);
        let enc = v.to_mbf().unwrap();
        for cut in 0..enc.len() {
            assert!(Json::from_mbf(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corruption_is_an_error_not_a_panic() {
        let enc = Json::obj([("k", Json::str("v"))]).to_mbf().unwrap();
        for i in 0..enc.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = enc.clone();
                bad[i] ^= flip;
                let _ = Json::from_mbf(&bad); // must not panic
            }
        }
    }

    #[test]
    fn forged_container_count_is_rejected_without_allocating() {
        // Array claiming u32::MAX elements in a 10-byte buffer.
        let mut bad = vec![MAGIC, TAG_ARR];
        put_varint(&mut bad, u32::MAX as u64);
        assert!(Json::from_mbf(&bad).is_err());
    }

    #[test]
    fn over_cap_string_is_rejected_on_decode() {
        let mut bad = vec![MAGIC, TAG_STR];
        put_varint(&mut bad, (MAX_STR_LEN as u64) + 1);
        assert!(Json::from_mbf(&bad).is_err());
    }

    #[test]
    fn over_deep_nesting_is_rejected_both_ways() {
        let mut v = Json::num(1);
        for _ in 0..json::MAX_DEPTH + 2 {
            v = Json::arr([v]);
        }
        assert!(v.to_mbf().is_err());
        // Hand-built over-deep payload: nested single-element arrays.
        let mut bad = vec![MAGIC];
        for _ in 0..json::MAX_DEPTH + 2 {
            bad.push(TAG_ARR);
            bad.push(1);
        }
        bad.push(TAG_NULL);
        assert!(Json::from_mbf(&bad).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut enc = Json::num(1).to_mbf().unwrap();
        enc.push(TAG_NULL);
        assert!(Json::from_mbf(&enc).is_err());
    }

    #[test]
    fn bad_magic_and_empty_are_rejected() {
        assert!(Json::from_mbf(b"").is_err());
        assert!(Json::from_mbf(b"{\"a\":1}").is_err());
        assert!(Json::from_mbf(&[0xff, TAG_NULL]).is_err());
    }

    #[test]
    fn sniffing_separates_mbf_from_every_text_payload() {
        assert!(is_mbf(&Json::num(7).to_mbf().unwrap()));
        for text in ["{\"a\":1}", "[1,2]", "42", "  {}", "\"s\"", "null", ""] {
            assert!(!is_mbf(text.as_bytes()), "{text:?}");
            assert_eq!(Codec::sniff(text.as_bytes()), Codec::Json);
        }
        assert_eq!(Codec::sniff(&[MAGIC, TAG_NULL]), Codec::Mbf);
    }

    #[test]
    fn from_payload_decodes_both_codecs_identically() {
        let v = Json::obj([("n", Json::num(3)), ("s", Json::str("x"))]);
        let from_json = Json::from_payload(v.to_compact().as_bytes()).unwrap();
        let from_mbf = Json::from_payload(&v.to_mbf().unwrap()).unwrap();
        assert_eq!(from_json, from_mbf);
        assert_eq!(from_json, v);
    }

    #[test]
    fn codec_choice_parses_and_resolves() {
        use std::str::FromStr;
        assert_eq!(CodecChoice::from_str("auto").unwrap(), CodecChoice::Auto);
        assert_eq!(CodecChoice::from_str(" MBF ").unwrap(), CodecChoice::Mbf);
        assert_eq!(CodecChoice::from_str("json").unwrap(), CodecChoice::Json);
        assert!(CodecChoice::from_str("bson").is_err());
        assert_eq!(CodecChoice::Json.store_codec(), Codec::Json);
        assert_eq!(CodecChoice::Auto.store_codec(), Codec::Mbf);
        assert_eq!(CodecChoice::Mbf.store_codec(), Codec::Mbf);
    }
}

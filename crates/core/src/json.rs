//! A small, complete JSON implementation.
//!
//! Muppet applications "often use JSON to encode slates for language
//! independence and flexibility" (§4.2), and the motivating feeds (tweets,
//! checkins) are JSON objects (§2). The workspace is dependency-light, so
//! JSON lives here: a strict recursive-descent parser (UTF-8 input, full
//! escape handling including surrogate pairs, depth-limited) and a
//! serializer (compact and pretty).
//!
//! Objects preserve insertion order — slate payloads are diffed byte-wise
//! in tests, so serialization must be deterministic.
//!
//! Operators that read a few fields of an event use [`scan`] instead of
//! the tree: DESIGN.md §8 "Operators read fields".

use std::borrow::Cow;
use std::fmt;

use crate::error::{Error, Result};
use crate::mbf::{self, Codec};

/// Maximum nesting depth the parser accepts; guards against stack overflow
/// on adversarial inputs read back from disk.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number. Stored as `f64` (as in JavaScript); integer
    /// accessors check representability.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    // ---------- constructors ----------

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build a number value.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Build an object from key/value pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    // ---------- accessors ----------

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable object field lookup.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Insert or replace an object field; the key is allocated only on
    /// insert. Panics on non-objects — misuse is a programming error, not
    /// a data error.
    pub fn set<K: AsRef<str> + Into<String>>(&mut self, key: K, value: Json) {
        let Json::Obj(pairs) = self else { panic!("Json::set on non-object") };
        match pairs.iter_mut().find(|(k, _)| k == key.as_ref()) {
            Some(slot) => slot.1 = value,
            None => pairs.push((key.into(), value)),
        }
    }

    /// Array element lookup.
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(index),
            _ => None,
        }
    }

    /// `&str` view of a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer view; `None` if the number is fractional, out of range, or
    /// the value is not a number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(u64_of)
    }

    /// Signed integer view with the same representability rules.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64().and_then(i64_of)
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object view.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    // ---------- parsing ----------

    /// Parse a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json> {
        Parser::new(text).whole(|p| p.value(0))
    }

    /// Parse from raw bytes (must be UTF-8).
    pub fn parse_bytes(bytes: &[u8]) -> Result<Json> {
        Json::parse(utf8(bytes)?)
    }

    // ---------- serialization ----------

    /// Compact serialization (no whitespace). Same as `to_string()`.
    pub fn to_compact(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out, None, 0);
        // The serializer only emits valid UTF-8.
        String::from_utf8(out).expect("serializer emits UTF-8")
    }

    /// Pretty serialization with 2-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out, Some(2), 0);
        String::from_utf8(out).expect("serializer emits UTF-8")
    }

    /// Compact serialization appended to a byte buffer — the flush path,
    /// which previously detoured through an intermediate `String` per
    /// slate write. Byte-for-byte identical to [`Json::to_compact`].
    pub fn write_into(&self, out: &mut Vec<u8>) {
        self.write(out, None, 0);
    }

    fn write(&self, out: &mut Vec<u8>, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    newline_indent(out, indent, level + 1);
                    item.write(out, indent, level + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, level);
                }
                out.push(b']');
            }
            Json::Obj(pairs) => {
                out.push(b'{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_string(out, k);
                    out.push(b':');
                    if indent.is_some() {
                        out.push(b' ');
                    }
                    v.write(out, indent, level + 1);
                }
                if !pairs.is_empty() {
                    newline_indent(out, indent, level);
                }
                out.push(b'}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

/// The integer views' representability rule, shared by [`Json`] and
/// [`Field`]: integral and within ±2⁵³.
fn u64_of(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as u64)
}

fn i64_of(n: f64) -> Option<i64> {
    (n.fract() == 0.0 && n.abs() <= 2f64.powi(53)).then_some(n as i64)
}

fn utf8(bytes: &[u8]) -> Result<&str> {
    std::str::from_utf8(bytes)
        .map_err(|e| Error::Json { offset: e.valid_up_to(), message: "invalid UTF-8".into() })
}

/// The field scanner: the first match for each of `names` among the
/// top-level members of an event payload in either codec (sniffed like
/// [`Json::from_payload`]), borrowed from `payload`. The same pass
/// validates the whole payload, so it accepts exactly what `from_payload`
/// accepts. DESIGN.md §8 "Operators read fields".
pub fn scan<'a, const N: usize>(
    payload: &'a [u8],
    names: [&str; N],
) -> Result<[Option<Field<'a>>; N]> {
    let raw = match payload.split_first() {
        Some((&mbf::MAGIC, value)) => Raw { codec: Codec::Mbf, bytes: value },
        _ => Raw { codec: Codec::Json, bytes: payload },
    };
    raw.try_fields(names)
}

/// One value found by [`scan`], borrowed from the payload.
#[derive(Clone, Debug, PartialEq)]
pub enum Field<'a> {
    Null,
    Bool(bool),
    /// Decoded exactly as the tree decodes it.
    Num(f64),
    /// Borrowed unless JSON text escaped it.
    Str(Cow<'a, str>),
    Arr(Raw<'a>),
    Obj(Raw<'a>),
}

impl<'a> Field<'a> {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Field::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Field::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Same rule as [`Json::as_u64`].
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(u64_of)
    }

    /// Same rule as [`Json::as_i64`].
    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64().and_then(i64_of)
    }

    pub fn as_arr(&self) -> Option<Raw<'a>> {
        match self {
            Field::Arr(raw) => Some(*raw),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<Raw<'a>> {
        match self {
            Field::Obj(raw) => Some(*raw),
            _ => None,
        }
    }

    /// The tree value (containers parse their sub-slice).
    pub fn into_json(self) -> Result<Json> {
        Ok(match self {
            Field::Null => Json::Null,
            Field::Bool(b) => Json::Bool(b),
            Field::Num(n) => Json::Num(n),
            Field::Str(s) => Json::Str(s.into_owned()),
            Field::Arr(raw) | Field::Obj(raw) => return raw.to_json(),
        })
    }
}

/// A nested array or object of a scanned payload: its bytes in the
/// payload's codec (for MBF, one tagged value). Every `Raw` handed out
/// was validated by the walk that found it, so walking it again cannot
/// fail.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Raw<'a> {
    pub(crate) codec: Codec,
    pub(crate) bytes: &'a [u8],
}

impl<'a> Raw<'a> {
    /// [`scan`] one level down (`venue.name`): all `None` on an array.
    pub fn fields<const N: usize>(&self, names: [&str; N]) -> [Option<Field<'a>>; N] {
        self.try_fields(names).unwrap_or_else(|_| std::array::from_fn(|_| None))
    }

    /// Visit each element of an array (`topics[*]`), or each member value
    /// of an object.
    pub fn items(&self, mut item: impl FnMut(Field<'a>)) {
        // Cannot fail: see the type's doc.
        let _ = self.walk(|_, value| item(value));
    }

    pub fn to_json(&self) -> Result<Json> {
        match self.codec {
            Codec::Json => Json::parse_bytes(self.bytes),
            Codec::Mbf => mbf::decode_value(self.bytes).map(|(value, _)| value),
        }
    }

    fn try_fields<const N: usize>(&self, names: [&str; N]) -> Result<[Option<Field<'a>>; N]> {
        let mut out = std::array::from_fn(|_| None);
        self.walk(|key, value| {
            for (slot, name) in out.iter_mut().zip(names) {
                if slot.is_none() && key == Some(name) {
                    *slot = Some(value.clone());
                }
            }
        })?;
        Ok(out)
    }

    /// Validate the whole value, handing each top-level member (key `None`
    /// in arrays; none for a scalar) to `member`.
    fn walk(&self, member: impl FnMut(Option<&str>, Field<'a>)) -> Result<()> {
        match self.codec {
            Codec::Json => Parser::new(utf8(self.bytes)?).whole(|p| p.walk(member)),
            Codec::Mbf => mbf::walk(self.bytes, member),
        }
    }
}

fn newline_indent(out: &mut Vec<u8>, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push(b'\n');
        for _ in 0..width * level {
            out.push(b' ');
        }
    }
}

fn write_number(out: &mut Vec<u8>, n: f64) {
    use std::io::Write;
    if n.is_finite() {
        if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
            // Integral values print without the trailing ".0" so counters
            // roundtrip byte-identically.
            write!(out, "{}", n as i64).expect("Vec write is infallible");
        } else {
            write!(out, "{n}").expect("Vec write is infallible");
        }
    } else {
        // JSON has no Inf/NaN; serialize as null like most permissive encoders.
        out.extend_from_slice(b"null");
    }
}

fn write_string(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let mut utf8 = [0u8; 4];
    for c in s.chars() {
        match c {
            '"' => out.extend_from_slice(b"\\\""),
            '\\' => out.extend_from_slice(b"\\\\"),
            '\n' => out.extend_from_slice(b"\\n"),
            '\r' => out.extend_from_slice(b"\\r"),
            '\t' => out.extend_from_slice(b"\\t"),
            '\u{08}' => out.extend_from_slice(b"\\b"),
            '\u{0c}' => out.extend_from_slice(b"\\f"),
            c if (c as u32) < 0x20 => {
                use std::io::Write;
                write!(out, "\\u{:04x}", c as u32).expect("Vec write is infallible");
            }
            c => out.extend_from_slice(c.encode_utf8(&mut utf8).as_bytes()),
        }
    }
    out.push(b'"');
}

/// The one JSON grammar: the tree parser ([`Parser::value`]) and the field
/// scanner ([`Parser::field`]) share every lexical primitive, the container
/// walk ([`Parser::members`]) and the depth limit.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser { text, bytes: text.as_bytes(), pos: 0 }
    }

    /// Run `body` over a whole document: surrounding whitespace only.
    fn whole<T>(mut self, body: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.skip_ws();
        let value = body(&mut self)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    fn err(&self, message: impl Into<String>) -> Error {
        Error::Json { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn slice(&self, start: usize, end: usize) -> Result<&'a str> {
        self.text.get(start..end).ok_or_else(|| self.err("invalid UTF-8"))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        match self.bump() {
            Some(b) if b == byte => Ok(()),
            Some(b) => Err(self.err(format!("expected {:?}, found {:?}", byte as char, b as char))),
            None => Err(self.err(format!("expected {:?}, found end of input", byte as char))),
        }
    }

    fn literal<T>(&mut self, word: &str, value: T) -> Result<T> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("invalid literal, expected {word}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json> {
        if depth > MAX_DEPTH || !matches!(self.peek(), Some(b'[' | b'{')) {
            return self.field(depth)?.into_json();
        }
        let (mut items, mut pairs) = (Vec::new(), Vec::new());
        let obj = self.members(|p, key| {
            let value = p.value(depth + 1)?;
            match key {
                Some(key) => pairs.push((key.into_owned(), value)),
                None => items.push(value),
            }
            Ok(())
        })?;
        Ok(if obj { Json::Obj(pairs) } else { Json::Arr(items) })
    }

    /// One value without building a tree: scalars decode, strings borrow
    /// unless escaped, and containers are validated member by member and
    /// come back as their raw sub-slice.
    fn field(&mut self, depth: usize) -> Result<Field<'a>> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Field::Null),
            Some(b't') => self.literal("true", Field::Bool(true)),
            Some(b'f') => self.literal("false", Field::Bool(false)),
            Some(b'"') => self.string().map(Field::Str),
            Some(b'-' | b'0'..=b'9') => self.number().map(Field::Num),
            Some(b'[' | b'{') => {
                let start = self.pos;
                let obj = self.members(|p, _| p.field(depth + 1).map(drop))?;
                let raw = Raw { codec: Codec::Json, bytes: &self.bytes[start..self.pos] };
                Ok(if obj { Field::Obj(raw) } else { Field::Arr(raw) })
            }
            Some(b) => Err(self.err(format!("unexpected character {:?}", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// [`Raw`]'s walk over JSON text.
    fn walk(&mut self, mut member: impl FnMut(Option<&str>, Field<'a>)) -> Result<()> {
        if !matches!(self.peek(), Some(b'[' | b'{')) {
            return self.field(0).map(drop);
        }
        self.members(|p, key| {
            let value = p.field(1)?;
            member(key.as_deref(), value);
            Ok(())
        })
        .map(drop)
    }

    /// Walk the array or object at the cursor, handing each member's key
    /// (`None` in arrays) to `member`, which parses the value. Returns
    /// whether it was an object.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Option<Cow<'a, str>>) -> Result<()>,
    ) -> Result<bool> {
        let obj = self.bump() == Some(b'{');
        let close = if obj { b'}' } else { b']' };
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(obj);
        }
        loop {
            self.skip_ws();
            let key = if obj {
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                Some(key)
            } else {
                None
            };
            member(self, key)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b) if b == close => return Ok(obj),
                Some(b) => {
                    return Err(self.err(format!(
                        "expected ',' or {:?}, found {:?}",
                        close as char, b as char
                    )))
                }
                None if obj => return Err(self.err("unterminated object")),
                None => return Err(self.err("unterminated array")),
            }
        }
    }

    /// A string, borrowed from the input unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut owned: Option<String> = None;
        loop {
            let run = self.pos;
            // Fast path: skip a run of plain bytes at once (the input is
            // &str, and the run stops only at ASCII markers — boundaries).
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            match self.bump() {
                Some(b'"') => {
                    let end = self.pos - 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(self.slice(start, end)?),
                        Some(mut out) => {
                            out.push_str(self.slice(run, end)?);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let plain = self.slice(run, self.pos - 1)?;
                    let c = self.escape()?;
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(plain);
                    out.push(c);
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hi = self.hex4()?;
                if (0xd800..0xdc00).contains(&hi) {
                    // High surrogate: require a following \uXXXX low surrogate.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                    char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else if (0xdc00..0xe000).contains(&hi) {
                    return Err(self.err("unpaired low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                }
            }
            Some(b) => return Err(self.err(format!("invalid escape \\{:?}", b as char))),
            None => return Err(self.err("unterminated escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32> {
        let mut value = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char).to_digit(16).ok_or_else(|| self.err("invalid hex digit"))?;
            value = value * 16 + digit;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<f64> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: 0 | [1-9][0-9]*
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        self.slice(start, self.pos)?.parse::<f64>().map_err(|_| self.err("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-0.5e2").unwrap(), Json::Num(-50.0));
        assert_eq!(Json::parse(r#""hi""#).unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": "d"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().at(0).unwrap().as_u64(), Some(1));
        assert!(v.get("a").unwrap().at(1).unwrap().get("b").unwrap().is_null());
        assert_eq!(v.get("c").unwrap().as_str(), Some("d"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.at(0), None);
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = Json::parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
        assert_eq!(v.to_compact(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn escapes_roundtrip() {
        let src = r#""line\nbreak \"quoted\" \\ \/ \t \b \f A é 😀""#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.as_str().unwrap(), "line\nbreak \"quoted\" \\ / \t \u{8} \u{c} A é 😀");
        // Serialize and reparse — value-identical.
        let reparsed = Json::parse(&v.to_compact()).unwrap();
        assert_eq!(reparsed, v);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\":}",
            "[1,]",
            "{,}",
            "01",
            "1.",
            "1e",
            "+1",
            "nul",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "{\"a\":1}extra",
            "[1 2]",
            "'single'",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn rejects_control_chars_in_strings() {
        assert!(Json::parse("\"a\nb\"").is_err());
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn integers_serialize_without_decimal_point() {
        assert_eq!(Json::Num(3.0).to_compact(), "3");
        assert_eq!(Json::Num(-2.0).to_compact(), "-2");
        assert_eq!(Json::Num(2.5).to_compact(), "2.5");
        assert_eq!(Json::Num(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn pretty_output_is_reparseable() {
        let v = Json::obj([
            ("count", Json::num(3)),
            ("tags", Json::arr([Json::str("a"), Json::str("b")])),
            ("empty", Json::obj::<String>([])),
        ]);
        let pretty = v.to_pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn set_and_get_mut() {
        let mut v = Json::obj([("count", Json::num(1))]);
        v.set("count", Json::num(2));
        v.set("extra", Json::str("x"));
        assert_eq!(v.get("count").unwrap().as_u64(), Some(2));
        *v.get_mut("extra").unwrap() = Json::Null;
        assert!(v.get("extra").unwrap().is_null());
    }

    #[test]
    fn integer_accessors_check_range() {
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_i64(), Some(-1));
        assert_eq!(Json::Num(1e300).as_u64(), None);
        assert_eq!(Json::Str("3".into()).as_u64(), None);
    }

    #[test]
    fn parse_bytes_validates_utf8() {
        assert!(Json::parse_bytes(b"{\"a\":1}").is_ok());
        assert!(Json::parse_bytes(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn unicode_passthrough_in_fast_path() {
        let v = Json::parse("\"héllo wörld ✓\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo wörld ✓"));
    }

    #[test]
    fn write_into_matches_to_compact() {
        let v = Json::obj([
            ("count", Json::num(3)),
            ("frac", Json::num(2.5)),
            ("text", Json::str("a\"b\\c\né😀")),
            ("list", Json::arr([Json::Null, Json::Bool(true)])),
        ]);
        let mut buf = Vec::new();
        v.write_into(&mut buf);
        assert_eq!(buf, v.to_compact().into_bytes());
        // Appends rather than overwrites.
        let mut prefixed = b"x".to_vec();
        v.write_into(&mut prefixed);
        assert_eq!(&prefixed[1..], buf.as_slice());
    }

    #[test]
    fn scan_borrows_first_matches_in_either_codec() {
        let text = r#"{"id":7,"\u0075ser":"a","user":"b","text":"x\ny","venue":{"name":"Target"},"topics":["t1",2]}"#;
        let mbf = Json::parse(text).unwrap().to_mbf().unwrap();
        for payload in [text.as_bytes(), &mbf] {
            let [user, text, id, venue, topics, missing] =
                scan(payload, ["user", "text", "id", "venue", "topics", "nope"]).unwrap();
            // An escaped key matches; the first of two duplicates wins.
            assert!(matches!(user, Some(Field::Str(Cow::Borrowed("a")))));
            assert_eq!(text.unwrap().as_str(), Some("x\ny"));
            assert_eq!(id.unwrap().as_u64(), Some(7));
            assert!(missing.is_none());
            let [name] = venue.unwrap().as_obj().unwrap().fields(["name"]);
            assert!(matches!(name, Some(Field::Str(Cow::Borrowed("Target")))));
            let mut items = Vec::new();
            topics.unwrap().as_arr().unwrap().items(|item| items.push(item));
            assert_eq!(items, [Field::Str(Cow::Borrowed("t1")), Field::Num(2.0)]);
        }
        // Only escaped strings allocate.
        let [text] = scan(text.as_bytes(), ["text"]).unwrap();
        assert!(matches!(text, Some(Field::Str(Cow::Owned(_)))));
        // The whole payload is validated, as `from_payload` does.
        assert!(scan(br#"{"user":"a"}garbage"#, ["user"]).is_err());
        assert!(scan(br#"{"user":"a","x":[1,}"#, ["user"]).is_err());
        assert_eq!(scan(b"[1,2]", ["user"]).unwrap(), [None]);
    }

    #[test]
    fn whitespace_tolerance() {
        let v = Json::parse(" \t\r\n { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }
}

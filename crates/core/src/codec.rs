//! Binary encoding primitives shared by the WAL, SSTable, and network
//! framing code: LEB128 varints, length-prefixed byte strings, and a
//! checksum — plus the wire encoding of [`Event`]s used by `muppet-net`'s
//! framing. All decoding is bounds-checked and returns `None`/errors
//! instead of panicking — these functions parse data from disk and from
//! the network.

use crate::event::{Event, Key, StreamId};

/// Maximum encoded size of a varint u64.
pub const MAX_VARINT_LEN: usize = 10;

/// Append a LEB128 varint encoding of `value` to `out`.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode a varint from the front of `buf`. Returns `(value, bytes_read)`.
#[inline]
pub fn get_varint(buf: &[u8]) -> Option<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return None;
        }
        let payload = (byte & 0x7f) as u64;
        // The 10th byte may only contribute 1 bit.
        if shift == 63 && payload > 1 {
            return None;
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Some((value, i + 1));
        }
        shift += 7;
    }
    None
}

/// Append a varint length prefix followed by the bytes.
#[inline]
pub fn put_len_prefixed(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Read a length-prefixed byte string from the front of `buf`.
/// Returns `(bytes, total_bytes_read)`.
#[inline]
pub fn get_len_prefixed(buf: &[u8]) -> Option<(&[u8], usize)> {
    let (len, n) = get_varint(buf)?;
    let len = usize::try_from(len).ok()?;
    let end = n.checked_add(len)?;
    if end > buf.len() {
        return None;
    }
    Some((&buf[n..end], end))
}

/// Append an optional byte string: a presence byte (0/1) then, when
/// present, the length-prefixed bytes. Shared by the network framing and
/// store codecs (previously copy-pasted in each).
#[inline]
pub fn put_opt_bytes(out: &mut Vec<u8>, value: Option<&[u8]>) {
    match value {
        Some(bytes) => {
            out.push(1);
            put_len_prefixed(out, bytes);
        }
        None => out.push(0),
    }
}

/// Read an optional byte string written by [`put_opt_bytes`]. Returns
/// `(value, bytes_read)`; `None` on truncation or a presence byte other
/// than 0/1.
#[inline]
pub fn get_opt_bytes(buf: &[u8]) -> Option<(Option<Vec<u8>>, usize)> {
    match *buf.first()? {
        0 => Some((None, 1)),
        1 => {
            let (bytes, n) = get_len_prefixed(&buf[1..])?;
            Some((Some(bytes.to_vec()), 1 + n))
        }
        _ => None,
    }
}

/// Append an optional varint: a presence byte (0/1) then, when present,
/// the varint.
#[inline]
pub fn put_opt_varint(out: &mut Vec<u8>, value: Option<u64>) {
    match value {
        Some(v) => {
            out.push(1);
            put_varint(out, v);
        }
        None => out.push(0),
    }
}

/// Read an optional varint written by [`put_opt_varint`]. Returns
/// `(value, bytes_read)`; `None` on truncation, a presence byte other
/// than 0/1, or an overlong varint (same >10-byte rejection as
/// [`get_varint`]).
#[inline]
pub fn get_opt_varint(buf: &[u8]) -> Option<(Option<u64>, usize)> {
    match *buf.first()? {
        0 => Some((None, 1)),
        1 => {
            let (v, n) = get_varint(&buf[1..])?;
            Some((Some(v), 1 + n))
        }
        _ => None,
    }
}

/// Append a fixed little-endian u32.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read a fixed little-endian u32 at `offset`.
#[inline]
pub fn get_u32(buf: &[u8], offset: usize) -> Option<u32> {
    let end = offset.checked_add(4)?;
    buf.get(offset..end).map(|s| u32::from_le_bytes(s.try_into().unwrap()))
}

/// Append a fixed little-endian u64.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read a fixed little-endian u64 at `offset`.
#[inline]
pub fn get_u64(buf: &[u8], offset: usize) -> Option<u64> {
    let end = offset.checked_add(8)?;
    buf.get(offset..end).map(|s| u64::from_le_bytes(s.try_into().unwrap()))
}

/// CRC-32C (Castagnoli) over `bytes`, implemented with a 256-entry table.
/// Used to detect torn or corrupted WAL and SSTable records.
pub fn crc32c(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0x82f6_3b78 } else { crc >> 1 };
            }
            *entry = crc;
        }
        t
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Append the wire encoding of an event: stream, ts, seq, key, value —
/// strings and blobs length-prefixed, integers as varints.
pub fn put_event(out: &mut Vec<u8>, event: &Event) {
    put_len_prefixed(out, event.stream.as_str().as_bytes());
    put_varint(out, event.ts);
    put_varint(out, event.seq);
    put_len_prefixed(out, event.key.as_bytes());
    put_len_prefixed(out, &event.value);
}

/// Decode an event from the front of `buf`. Returns `(event,
/// bytes_read)`; `None` on truncated or malformed input (including a
/// non-UTF-8 stream name).
pub fn get_event(buf: &[u8]) -> Option<(Event, usize)> {
    let mut at = 0;
    let (stream, n) = get_len_prefixed(&buf[at..])?;
    let stream = std::str::from_utf8(stream).ok()?;
    at += n;
    let (ts, n) = get_varint(&buf[at..])?;
    at += n;
    let (seq, n) = get_varint(&buf[at..])?;
    at += n;
    let (key, n) = get_len_prefixed(&buf[at..])?;
    at += n;
    let key = Key::from(key);
    let (value, n) = get_len_prefixed(&buf[at..])?;
    at += n;
    let mut event = Event::new(StreamId::from(stream), ts, key, value.to_vec());
    event.seq = seq;
    Some((event, at))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_edge_values() {
        for v in [0u64, 1, 127, 128, 255, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let (got, n) = get_varint(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn varint_single_byte_for_small_values() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_varint(&mut buf, 128);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn varint_rejects_truncation_and_overlong() {
        assert!(get_varint(&[]).is_none());
        assert!(get_varint(&[0x80]).is_none());
        assert!(get_varint(&[0x80; 10]).is_none());
        // 10th byte with more than 1 significant bit overflows u64.
        let mut overlong = vec![0xffu8; 9];
        overlong.push(0x02);
        assert!(get_varint(&overlong).is_none());
    }

    #[test]
    fn varint_u64_max_is_ten_bytes() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), MAX_VARINT_LEN);
        assert_eq!(get_varint(&buf), Some((u64::MAX, 10)));
    }

    #[test]
    fn len_prefixed_roundtrip() {
        let mut buf = Vec::new();
        put_len_prefixed(&mut buf, b"hello");
        put_len_prefixed(&mut buf, b"");
        let (a, n) = get_len_prefixed(&buf).unwrap();
        assert_eq!(a, b"hello");
        let (b, m) = get_len_prefixed(&buf[n..]).unwrap();
        assert_eq!(b, b"");
        assert_eq!(n + m, buf.len());
    }

    #[test]
    fn len_prefixed_rejects_truncated_payload() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 100); // claims 100 bytes follow
        buf.extend_from_slice(b"short");
        assert!(get_len_prefixed(&buf).is_none());
    }

    #[test]
    fn len_prefixed_rejects_huge_length_without_overflow() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        assert!(get_len_prefixed(&buf).is_none());
    }

    #[test]
    fn opt_bytes_roundtrip_and_reject_bad_presence() {
        let mut buf = Vec::new();
        put_opt_bytes(&mut buf, Some(b"payload"));
        put_opt_bytes(&mut buf, None);
        let (a, n) = get_opt_bytes(&buf).unwrap();
        assert_eq!(a.as_deref(), Some(&b"payload"[..]));
        let (b, m) = get_opt_bytes(&buf[n..]).unwrap();
        assert_eq!(b, None);
        assert_eq!(n + m, buf.len());
        assert!(get_opt_bytes(&[]).is_none());
        assert!(get_opt_bytes(&[2]).is_none(), "presence byte must be 0/1");
        assert!(get_opt_bytes(&[1, 5, b'x']).is_none(), "truncated payload");
    }

    #[test]
    fn opt_varint_roundtrip_and_reject_overlong() {
        let mut buf = Vec::new();
        put_opt_varint(&mut buf, Some(u64::MAX));
        put_opt_varint(&mut buf, None);
        let (a, n) = get_opt_varint(&buf).unwrap();
        assert_eq!(a, Some(u64::MAX));
        let (b, m) = get_opt_varint(&buf[n..]).unwrap();
        assert_eq!(b, None);
        assert_eq!(n + m, buf.len());
        assert!(get_opt_varint(&[]).is_none());
        assert!(get_opt_varint(&[7]).is_none(), "presence byte must be 0/1");
        // Present flag followed by an 11-byte (overlong) varint.
        let mut overlong = vec![1u8];
        overlong.extend_from_slice(&[0x80; 10]);
        overlong.push(0x01);
        assert!(get_opt_varint(&overlong).is_none());
    }

    #[test]
    fn fixed_ints_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, 0x0102_0304_0506_0708);
        assert_eq!(get_u32(&buf, 0), Some(0xdead_beef));
        assert_eq!(get_u64(&buf, 4), Some(0x0102_0304_0506_0708));
        assert_eq!(get_u32(&buf, 9), None);
        assert_eq!(get_u64(&buf, usize::MAX), None);
    }

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 test vector: 32 bytes of zeros.
        assert_eq!(crc32c(&[0u8; 32]), 0x8a91_36aa);
        // "123456789"
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn crc32c_detects_bitflips() {
        let base = crc32c(b"muppet slate payload");
        let mut corrupted = b"muppet slate payload".to_vec();
        corrupted[3] ^= 0x01;
        assert_ne!(crc32c(&corrupted), base);
    }

    #[test]
    fn event_wire_roundtrip() {
        let mut e = Event::new("S1", 123_456, Key::from("walmart"), vec![0xff, 0x00, 0x7f]);
        e.seq = 42;
        let mut buf = Vec::new();
        put_event(&mut buf, &e);
        // A second event concatenates cleanly.
        let empty = Event::new("", 0, Key::empty(), Vec::new());
        put_event(&mut buf, &empty);
        let (got, n) = get_event(&buf).unwrap();
        assert_eq!(got, e);
        let (got2, m) = get_event(&buf[n..]).unwrap();
        assert_eq!(got2, empty);
        assert_eq!(n + m, buf.len());
    }

    #[test]
    fn event_wire_rejects_truncation_and_bad_utf8() {
        let e = Event::new("stream", 7, Key::from("k"), b"value".to_vec());
        let mut buf = Vec::new();
        put_event(&mut buf, &e);
        for cut in 0..buf.len() {
            assert!(get_event(&buf[..cut]).is_none(), "cut at {cut} must fail");
        }
        // Corrupt the stream name with invalid UTF-8.
        let mut bad = buf.clone();
        bad[1] = 0xff;
        assert!(get_event(&bad).is_none());
    }
}

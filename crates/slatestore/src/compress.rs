//! Slate compression.
//!
//! "Our applications often use JSON to encode slates ... so Muppet
//! compresses each slate before storing it in the key-value store" (§4.2).
//! JSON slates are repetitive (field names recur), so a small LZSS codec —
//! greedy hash-chain matching over a 32 KiB window — recovers most of that
//! redundancy without external dependencies.
//!
//! A value is one mode byte and its payload: stored raw (its length is
//! the cell's), or the LZSS token stream behind its uncompressed length.
//! DESIGN.md §2 has the layout.
//!
//! Token stream: groups of 8 items prefixed by a flag byte (bit i set ⟹
//! item i is a match). Literal = 1 byte. Match = 2-byte little-endian
//! `offset-1` (1..=32768) + 1 byte `length-MIN_MATCH` (match lengths
//! 4..=259). Inputs LZSS does not shrink are stored raw.

use muppet_core::codec::{get_varint, put_varint};

use crate::types::{StoreError, StoreResult};

const MODE_RAW: u8 = 0;
const MODE_LZSS: u8 = 1;
const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = MIN_MATCH + 255;
/// Bytes of a match token: the most input any `MAX_MATCH` output costs.
const MATCH_TOKEN: usize = 3;
/// Hash table size cap: 2^15 heads, for inputs of 32 KiB and more.
const MAX_HASH_BITS: u32 = 15;
/// Bounded match-chain probes per position: caps worst-case compress time.
const MAX_CHAIN: usize = 32;

#[inline]
fn hash4(bytes: &[u8], bits: u32) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9e37_79b1) >> (32 - bits)) as usize
}

/// Compress `input`. Never fails; stores it raw when LZSS does not help.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    if input.len() >= MIN_MATCH {
        out.push(MODE_LZSS);
        put_varint(&mut out, input.len() as u64);
        // The table is sized to the input (≥ 4 heads, since the input
        // holds a match's worth): a short slate does not clear 128 KiB.
        let bits = input.len().next_power_of_two().trailing_zeros().min(MAX_HASH_BITS);
        let mut head = vec![u32::MAX; 1 << bits];
        let mut prev = vec![u32::MAX; input.len()];
        let mut pos = 0usize;
        let mut flag_at = 0usize;
        let mut flag_bit = 8u8;

        while pos < input.len() {
            if flag_bit == 8 {
                flag_at = out.len();
                out.push(0);
                flag_bit = 0;
            }
            let mut best_len = 0usize;
            let mut best_off = 0usize;
            if pos + MIN_MATCH <= input.len() {
                let h = hash4(&input[pos..], bits);
                let mut candidate = head[h];
                let mut probes = 0;
                while candidate != u32::MAX && probes < MAX_CHAIN {
                    let c = candidate as usize;
                    if pos - c > WINDOW {
                        break;
                    }
                    let limit = (input.len() - pos).min(MAX_MATCH);
                    let mut len = 0usize;
                    while len < limit && input[c + len] == input[pos + len] {
                        len += 1;
                    }
                    if len > best_len {
                        best_len = len;
                        best_off = pos - c;
                        if len == limit {
                            break;
                        }
                    }
                    candidate = prev[c];
                    probes += 1;
                }
                prev[pos] = head[h];
                head[h] = pos as u32;
            }

            if best_len >= MIN_MATCH {
                out[flag_at] |= 1 << flag_bit;
                let off = (best_off - 1) as u16;
                out.extend_from_slice(&off.to_le_bytes());
                out.push((best_len - MIN_MATCH) as u8);
                // Chain the covered positions so later matches can
                // reference inside this one.
                for p in pos + 1..(pos + best_len).min(input.len() + 1 - MIN_MATCH) {
                    let h = hash4(&input[p..], bits);
                    prev[p] = head[h];
                    head[h] = p as u32;
                }
                pos += best_len;
            } else {
                out.push(input[pos]);
                pos += 1;
            }
            flag_bit += 1;
        }
    }

    if out.is_empty() || out.len() > input.len() {
        out.clear();
        out.push(MODE_RAW);
        out.extend_from_slice(input);
    }
    out
}

/// Decompress a buffer produced by [`compress`]. Fully bounds-checked: a
/// declared length the tokens cannot expand to is refused before anything
/// is allocated for it.
pub fn decompress(data: &[u8]) -> StoreResult<Vec<u8>> {
    let err = |msg: &str| StoreError::Compression(msg.into());
    let Some((&mode, rest)) = data.split_first() else {
        return Err(err("empty value"));
    };
    match mode {
        MODE_RAW => Ok(rest.to_vec()),
        MODE_LZSS => {
            let (expect_len, n) = get_varint(rest).ok_or_else(|| err("bad length"))?;
            let mut rest = &rest[n..];
            let reachable =
                (rest.len() / MATCH_TOKEN).saturating_mul(MAX_MATCH) + rest.len() % MATCH_TOKEN;
            let expect_len = usize::try_from(expect_len)
                .ok()
                .filter(|&len| len <= reachable)
                .ok_or_else(|| err("declared length past what the tokens can expand to"))?;
            let mut out = Vec::with_capacity(expect_len);
            while out.len() < expect_len {
                let Some((&flags, after)) = rest.split_first() else {
                    return Err(err("truncated flags"));
                };
                rest = after;
                for bit in 0..8 {
                    if out.len() >= expect_len {
                        break;
                    }
                    if flags & (1 << bit) != 0 {
                        if rest.len() < MATCH_TOKEN {
                            return Err(err("truncated match"));
                        }
                        let off = u16::from_le_bytes([rest[0], rest[1]]) as usize + 1;
                        let len = rest[2] as usize + MIN_MATCH;
                        rest = &rest[MATCH_TOKEN..];
                        if off > out.len() {
                            return Err(err("match offset out of range"));
                        }
                        let start = out.len() - off;
                        for i in 0..len {
                            let b = out[start + i];
                            out.push(b);
                        }
                    } else {
                        let Some((&b, after)) = rest.split_first() else {
                            return Err(err("truncated literal"));
                        };
                        rest = after;
                        out.push(b);
                    }
                }
            }
            if out.len() != expect_len {
                return Err(err("length mismatch after decode"));
            }
            Ok(out)
        }
        _ => Err(StoreError::Compression(format!("unknown mode {mode}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(input: &[u8]) -> Vec<u8> {
        let packed = compress(input);
        decompress(&packed).unwrap()
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(roundtrip(b""), b"");
        assert_eq!(roundtrip(b"a"), b"a");
        assert_eq!(roundtrip(b"abc"), b"abc");
        assert_eq!(roundtrip(b"abcd"), b"abcd");
    }

    #[test]
    fn repetitive_json_shrinks() {
        let slate = br#"{"count": 42, "last_seen": 123456, "interests": ["deals", "deals", "deals", "deals"], "count_by_day": {"mon": 1, "tue": 1, "wed": 1, "thu": 1}}"#;
        let packed = compress(slate);
        assert_eq!(decompress(&packed).unwrap(), slate);
        assert!(packed.len() < slate.len(), "{} !< {}", packed.len(), slate.len());
    }

    #[test]
    fn long_runs_compress_hard() {
        let input = vec![b'x'; 100_000];
        let packed = compress(&input);
        assert!(packed.len() < input.len() / 50, "run-length-ish input: {}", packed.len());
        assert_eq!(decompress(&packed).unwrap(), input);
    }

    #[test]
    fn incompressible_data_stores_raw_with_small_overhead() {
        // Pseudo-random bytes via a simple LCG (deterministic).
        let mut state = 0x12345678u64;
        let input: Vec<u8> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        let packed = compress(&input);
        assert_eq!(packed.len(), input.len() + 1, "raw fallback costs the mode byte");
        assert_eq!(decompress(&packed).unwrap(), input);
    }

    #[test]
    fn a_short_value_costs_one_byte_more_than_itself() {
        for value in [&b""[..], b"7", b"1234", b"12345678"] {
            let packed = compress(value);
            assert_eq!(packed, [&[MODE_RAW][..], value].concat());
            assert_eq!(decompress(&packed).unwrap(), value);
        }
    }

    #[test]
    fn overlapping_matches_decode_correctly() {
        // "aaaa..." forces matches that overlap their own output.
        let input = b"abababababababababababababab".to_vec();
        assert_eq!(roundtrip(&input), input);
    }

    #[test]
    fn decompress_rejects_garbage() {
        assert!(decompress(b"").is_err());
        assert!(decompress(b"\x09hello").is_err(), "unknown mode");
        assert!(decompress(&[MODE_LZSS]).is_err(), "no length");
        // Valid header, truncated body.
        let mut packed = compress(b"hello world hello world hello world");
        assert_eq!(packed[0], MODE_LZSS);
        packed.truncate(packed.len() - 3);
        assert!(decompress(&packed).is_err());
    }

    #[test]
    fn a_declared_length_past_what_the_tokens_can_reach_is_refused_before_allocating() {
        // Once "memory allocation of 9223372036854775807 bytes failed":
        // the same declared length under the old "MZ" header, then under
        // the one-byte header.
        let huge = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let old = [&[0x4d, 0x5a, MODE_LZSS][..], &huge].concat();
        let new = [&[MODE_LZSS][..], &huge].concat();
        for data in [old, new] {
            assert!(matches!(decompress(&data), Err(StoreError::Compression(_))));
        }
        // Three bytes after the length reach at most one longest match.
        let mut max = vec![MODE_LZSS];
        put_varint(&mut max, MAX_MATCH as u64 + 1);
        max.extend_from_slice(&[0b1, 0, 255]);
        assert!(decompress(&max).unwrap_err().to_string().contains("declared length"));
    }

    #[test]
    fn decompress_rejects_bad_match_offset() {
        // Hand-craft: LZSS, len=4, flags=0b1 (match), offset 999, len 0.
        let mut buf = vec![MODE_LZSS];
        put_varint(&mut buf, 4);
        buf.push(0b1);
        buf.extend_from_slice(&998u16.to_le_bytes());
        buf.push(0);
        assert!(decompress(&buf).is_err());
    }

    #[test]
    fn large_window_reference() {
        // Two copies of a 20 KiB block: second copy should reference the first.
        let mut block = Vec::new();
        for i in 0..2500u32 {
            block.extend_from_slice(format!("retailer-{i:04},").as_bytes());
        }
        let mut input = block.clone();
        input.extend_from_slice(&block);
        let packed = compress(&input);
        assert!(packed.len() < input.len() * 2 / 3);
        assert_eq!(decompress(&packed).unwrap(), input);
    }
}

//! Bloom filters for SSTables.
//!
//! Every SSTable carries a bloom filter over its cell keys so point reads
//! skip tables that cannot contain the key — essential once compaction
//! lets multiple overlapping tables accumulate ("the more times a row is
//! flushed to disk ... the more files will have to be checked for the row
//! when it needs to be retrieved", §4.2).
//!
//! Double hashing (Kirsch–Mitzenmacher): probe i uses `h1 + i·h2`.

use muppet_core::codec::{get_u64, put_u64};
use muppet_core::hash::{fx64, mix64};

use crate::types::{StoreError, StoreResult};

/// A fixed-size bloom filter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    k: u32,
}

impl BloomFilter {
    /// Size the filter for `expected_items` at roughly `fp_rate` false
    /// positives (clamped to sane ranges).
    pub fn with_capacity(expected_items: usize, fp_rate: f64) -> Self {
        let n = expected_items.max(1) as f64;
        let p = fp_rate.clamp(1e-6, 0.5);
        let ln2 = std::f64::consts::LN_2;
        let m_bits = (-(n * p.ln()) / (ln2 * ln2)).ceil().max(64.0) as usize;
        let k = ((m_bits as f64 / n) * ln2).round().clamp(1.0, 16.0) as u32;
        BloomFilter { bits: vec![0u64; m_bits.div_ceil(64)], k }
    }

    #[inline]
    fn probes(&self, item: &[u8]) -> impl Iterator<Item = usize> + '_ {
        let h1 = fx64(item);
        let h2 = mix64(h1) | 1;
        let m = self.bits.len() as u64 * 64;
        (0..self.k as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % m) as usize)
    }

    /// Insert an item.
    pub fn insert(&mut self, item: &[u8]) {
        let positions: Vec<usize> = self.probes(item).collect();
        for pos in positions {
            self.bits[pos / 64] |= 1 << (pos % 64);
        }
    }

    /// Whether the item *might* be present (false positives possible,
    /// false negatives impossible).
    pub fn may_contain(&self, item: &[u8]) -> bool {
        self.probes(item).all(|pos| self.bits[pos / 64] & (1 << (pos % 64)) != 0)
    }

    /// Serialized representation: `[k: u64][nwords: u64][words...]`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.bits.len() * 8);
        put_u64(&mut out, self.k as u64);
        put_u64(&mut out, self.bits.len() as u64);
        for &w in &self.bits {
            put_u64(&mut out, w);
        }
        out
    }

    /// Parse a serialized filter.
    pub fn from_bytes(data: &[u8]) -> StoreResult<Self> {
        let k = get_u64(data, 0).ok_or_else(|| StoreError::Corrupt("bloom: truncated k".into()))?;
        let n =
            get_u64(data, 8).ok_or_else(|| StoreError::Corrupt("bloom: truncated len".into()))?;
        let n =
            usize::try_from(n).map_err(|_| StoreError::Corrupt("bloom: len overflow".into()))?;
        if data.len() != 16 + n * 8 {
            return Err(StoreError::Corrupt("bloom: length mismatch".into()));
        }
        if !(1..=64).contains(&k) {
            return Err(StoreError::Corrupt("bloom: bad k".into()));
        }
        // lint: allow(no-unwrap-in-prod) — length validated as exactly 16 + n*8 above
        let bits = (0..n).map(|i| get_u64(data, 16 + i * 8).expect("bounds checked")).collect();
        Ok(BloomFilter { bits, k: k as u32 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::with_capacity(1000, 0.01);
        let items: Vec<String> = (0..1000).map(|i| format!("slate-key-{i}")).collect();
        for item in &items {
            bf.insert(item.as_bytes());
        }
        for item in &items {
            assert!(bf.may_contain(item.as_bytes()), "false negative on {item}");
        }
    }

    #[test]
    fn false_positive_rate_is_plausible() {
        let mut bf = BloomFilter::with_capacity(1000, 0.01);
        for i in 0..1000 {
            bf.insert(format!("present-{i}").as_bytes());
        }
        let fps = (0..10_000).filter(|i| bf.may_contain(format!("absent-{i}").as_bytes())).count();
        // Target 1%; accept up to 3% to avoid flakiness.
        assert!(fps < 300, "false positive count {fps} too high");
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let bf = BloomFilter::with_capacity(100, 0.01);
        assert!(!bf.may_contain(b"anything"));
    }

    #[test]
    fn serialization_roundtrip() {
        let mut bf = BloomFilter::with_capacity(50, 0.05);
        for i in 0..50 {
            bf.insert(format!("row-{i}").as_bytes());
        }
        let bytes = bf.to_bytes();
        let back = BloomFilter::from_bytes(&bytes).unwrap();
        assert_eq!(back, bf);
        for i in 0..50 {
            assert!(back.may_contain(format!("row-{i}").as_bytes()));
        }
    }

    #[test]
    fn deserialization_rejects_corruption() {
        assert!(BloomFilter::from_bytes(&[]).is_err());
        assert!(BloomFilter::from_bytes(&[0u8; 15]).is_err());
        let mut bytes = BloomFilter::with_capacity(10, 0.1).to_bytes();
        bytes.pop();
        assert!(BloomFilter::from_bytes(&bytes).is_err());
        // k = 0 is invalid.
        let mut zero_k = Vec::new();
        put_u64(&mut zero_k, 0);
        put_u64(&mut zero_k, 1);
        put_u64(&mut zero_k, 0);
        assert!(BloomFilter::from_bytes(&zero_k).is_err());
    }

    #[test]
    fn tiny_capacity_does_not_panic() {
        let mut bf = BloomFilter::with_capacity(0, 0.000001);
        bf.insert(b"x");
        assert!(bf.may_contain(b"x"));
    }
}

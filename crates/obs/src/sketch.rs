//! The space-saving heavy-hitters sketch (Metwally et al.) behind
//! per-⟨op, key⟩ rate telemetry.
//!
//! §5: "The distribution of event keys can be strongly skewed ...
//! updaters can receive widely varying loads." Exact per-key counting
//! over an unbounded key universe is off the table on the hot path, so
//! each shard of the engine's hot-key sketch has a fixed capacity: the
//! top keys are counted exactly once they enter, and any key's reported
//! count overshoots its true count by at most `err` (the count it
//! inherited when it evicted the previous minimum). Classic guarantee:
//! with capacity `m` after `N` offered events, `err ≤ N / m`, so any key
//! with true rate above `N / m` is guaranteed present.

use std::collections::HashMap;
use std::hash::Hash;

/// One tracked heavy hitter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeavyHitter<K> {
    /// The tracked key.
    pub key: K,
    /// Estimated count (true count ≤ `count`, ≥ `count - err`).
    pub count: u64,
    /// Overestimation bound inherited at entry.
    pub err: u64,
}

/// A fixed-capacity space-saving sketch.
#[derive(Clone, Debug)]
pub struct SpaceSaving<K: Eq + Hash + Clone> {
    capacity: usize,
    index: HashMap<K, usize>,
    entries: Vec<HeavyHitter<K>>,
    offered: u64,
}

impl<K: Eq + Hash + Clone> SpaceSaving<K> {
    /// A sketch tracking at most `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpaceSaving {
            capacity,
            index: HashMap::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
            offered: 0,
        }
    }

    /// Offer one occurrence of `key`.
    pub fn offer(&mut self, key: K) {
        self.offer_n(key, 1);
    }

    /// Offer `weight` occurrences of `key` (sampled callers offer the
    /// sampling interval as the weight).
    pub fn offer_n(&mut self, key: K, weight: u64) {
        self.offered += weight;
        if let Some(&i) = self.index.get(&key) {
            self.entries[i].count += weight;
            return;
        }
        if self.entries.len() < self.capacity {
            let i = self.entries.len();
            self.entries.push(HeavyHitter { key: key.clone(), count: weight, err: 0 });
            self.index.insert(key, i);
            return;
        }
        // Evict the minimum: the newcomer inherits its count as error.
        let (min_i, _) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.count)
            // lint: allow(no-unwrap-in-prod) — reached only when entries.len() == capacity >= 1
            .expect("capacity >= 1 so entries is non-empty");
        let evicted_count = self.entries[min_i].count;
        let old_key = std::mem::replace(
            &mut self.entries[min_i],
            HeavyHitter { key: key.clone(), count: evicted_count + weight, err: evicted_count },
        )
        .key;
        self.index.remove(&old_key);
        self.index.insert(key, min_i);
    }

    /// The top `k` tracked keys, highest estimated count first (ties by
    /// smaller error).
    pub fn top(&self, k: usize) -> Vec<HeavyHitter<K>> {
        let mut all = self.entries.clone();
        all.sort_by(|a, b| b.count.cmp(&a.count).then(a.err.cmp(&b.err)));
        all.truncate(k);
        all
    }

    /// The estimated count for `key`, if tracked.
    pub fn estimate(&self, key: &K) -> Option<u64> {
        self.index.get(key).map(|&i| self.entries[i].count)
    }

    /// Keys currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no key has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum keys tracked.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total weight offered (the `N` in the `N / m` error bound).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// The worst-case overestimation of any reported count right now.
    pub fn error_bound(&self) -> u64 {
        self.offered / self.capacity as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_capacity() {
        let mut s = SpaceSaving::new(8);
        for _ in 0..5 {
            s.offer("a");
        }
        for _ in 0..3 {
            s.offer("b");
        }
        assert_eq!(s.estimate(&"a"), Some(5));
        assert_eq!(s.estimate(&"b"), Some(3));
        let top = s.top(10);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].key, "a");
        assert_eq!(top[0].err, 0, "no eviction happened, counts are exact");
        assert_eq!(s.offered(), 8);
    }

    #[test]
    fn eviction_inherits_error() {
        let mut s = SpaceSaving::new(2);
        s.offer("a");
        s.offer("a");
        s.offer("b");
        // "c" evicts "b" (the min, count 1) and inherits err = 1.
        s.offer("c");
        assert_eq!(s.estimate(&"b"), None);
        let c = s.top(10).into_iter().find(|h| h.key == "c").unwrap();
        assert_eq!(c.count, 2);
        assert_eq!(c.err, 1);
    }

    #[test]
    fn heavy_key_survives_noise() {
        let mut s = SpaceSaving::new(4);
        for i in 0..1000u64 {
            s.offer("hot");
            s.offer(match i % 3 {
                0 => "x",
                1 => "y",
                _ => "z",
            });
            // A stream of one-off keys hammering the sketch.
            if i % 2 == 0 {
                s.offer_n(Box::leak(format!("cold-{i}").into_boxed_str()) as &str, 1);
            }
        }
        let top = s.top(1);
        assert_eq!(top[0].key, "hot");
        assert!(top[0].count >= 1000, "hot key never undercounts");
        assert!(top[0].count - top[0].err <= 1000, "guaranteed-count lower bound holds");
    }

    #[test]
    fn weighted_offers_count_in_bulk() {
        let mut s = SpaceSaving::new(2);
        s.offer_n("a", 64);
        s.offer_n("a", 64);
        assert_eq!(s.estimate(&"a"), Some(128));
        assert_eq!(s.offered(), 128);
        assert_eq!(s.error_bound(), 64);
    }
}

//! An intrusive-list LRU map used by the slate caches.
//!
//! Slot-based doubly-linked list over a `Vec` (no per-node allocation, no
//! unsafe): `get`/`insert`/`pop_lru` are O(1) expected. Generic so it can be
//! tested independently of slate semantics.

use std::collections::HashMap;
use std::hash::Hash;

use muppet_core::hash::FxBuildHasher;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// An LRU-ordered hash map.
#[derive(Debug)]
pub struct LruMap<K, V> {
    map: HashMap<K, usize, FxBuildHasher>,
    nodes: Vec<Option<Node<K, V>>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl<K: Eq + Hash + Clone, V> Default for LruMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        LruMap {
            map: HashMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    // Intrusive-list invariant (whole impl): every index reached via
    // `map`, `head`, `tail`, or a node's `prev`/`next` refers to an
    // occupied slot — freed slots are unlinked first and only reachable
    // through `free`. The `expect`/`unwrap` calls below assert exactly
    // that; there is no error to surface.
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            // lint: allow(no-unwrap-in-prod) — intrusive-list invariant, see above
            let n = self.nodes[idx].as_ref().expect("linked node exists");
            (n.prev, n.next)
        };
        if prev != NIL {
            // lint: allow(no-unwrap-in-prod) — intrusive-list invariant, see above
            self.nodes[prev].as_mut().unwrap().next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            // lint: allow(no-unwrap-in-prod) — intrusive-list invariant, see above
            self.nodes[next].as_mut().unwrap().prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        {
            // lint: allow(no-unwrap-in-prod) — intrusive-list invariant, see above
            let n = self.nodes[idx].as_mut().expect("node exists");
            n.prev = NIL;
            n.next = self.head;
        }
        if self.head != NIL {
            // lint: allow(no-unwrap-in-prod) — intrusive-list invariant, see above
            self.nodes[self.head].as_mut().unwrap().prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Get and mark as most-recently-used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        self.nodes[idx].as_ref().map(|n| &n.value)
    }

    /// Peek without touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.nodes[idx].as_ref().map(|n| &n.value)
    }

    /// Insert or replace; the entry becomes most-recently-used. Returns the
    /// previous value if the key existed.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(&idx) = self.map.get(&key) {
            // lint: allow(no-unwrap-in-prod) — intrusive-list invariant, see `unlink`
            let old = std::mem::replace(&mut self.nodes[idx].as_mut().unwrap().value, value);
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return Some(old);
        }
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.nodes.push(None);
                self.nodes.len() - 1
            }
        };
        self.nodes[idx] = Some(Node { key: key.clone(), value, prev: NIL, next: NIL });
        self.map.insert(key, idx);
        self.push_front(idx);
        None
    }

    /// Remove a specific key.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        self.free.push(idx);
        self.nodes[idx].take().map(|n| n.value)
    }

    /// Remove and return the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        self.unlink(idx);
        // lint: allow(no-unwrap-in-prod) — intrusive-list invariant, see `unlink`
        let node = self.nodes[idx].take().expect("tail node exists");
        self.map.remove(&node.key);
        self.free.push(idx);
        Some((node.key, node.value))
    }

    /// Iterate entries from most- to least-recently-used.
    pub fn iter(&self) -> LruIter<'_, K, V> {
        LruIter { lru: self, cursor: self.head }
    }
}

/// MRU→LRU iterator over an [`LruMap`].
pub struct LruIter<'a, K, V> {
    lru: &'a LruMap<K, V>,
    cursor: usize,
}

impl<'a, K: Eq + Hash + Clone, V> Iterator for LruIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        // lint: allow(no-unwrap-in-prod) — intrusive-list invariant, see `unlink`
        let node = self.lru.nodes[self.cursor].as_ref().expect("cursor node exists");
        self.cursor = node.next;
        Some((&node.key, &node.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_updates_recency() {
        let mut lru = LruMap::new();
        lru.insert("a", 1);
        lru.insert("b", 2);
        lru.insert("c", 3);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.iter().last(), Some((&"a", &1)));
        // Touch "a": "b" becomes LRU.
        assert_eq!(lru.get(&"a"), Some(&1));
        assert_eq!(lru.iter().last(), Some((&"b", &2)));
        assert_eq!(lru.pop_lru(), Some(("b", 2)));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn replace_keeps_single_entry() {
        let mut lru = LruMap::new();
        assert_eq!(lru.insert("k", 1), None);
        assert_eq!(lru.insert("k", 2), Some(1));
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&"k"), Some(&2));
    }

    #[test]
    fn remove_and_slot_reuse() {
        let mut lru = LruMap::new();
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.remove(&"a"), Some(1));
        assert_eq!(lru.remove(&"a"), None);
        lru.insert("c", 3); // reuses the freed slot
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&"c"), Some(&3));
        assert_eq!(lru.get(&"b"), Some(&2));
    }

    #[test]
    fn pop_order_is_lru() {
        let mut lru = LruMap::new();
        for i in 0..5 {
            lru.insert(i, i * 10);
        }
        lru.get(&0); // 0 now MRU; order: 1,2,3,4,0
        let mut popped = Vec::new();
        while let Some((k, _)) = lru.pop_lru() {
            popped.push(k);
        }
        assert_eq!(popped, vec![1, 2, 3, 4, 0]);
        assert!(lru.is_empty());
        assert_eq!(lru.pop_lru(), None);
    }

    #[test]
    fn peek_does_not_touch_recency() {
        let mut lru = LruMap::new();
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.peek(&"a"), Some(&1));
        assert_eq!(lru.iter().last(), Some((&"a", &1)), "peek must not promote");
    }

    #[test]
    fn iter_runs_mru_to_lru() {
        let mut lru = LruMap::new();
        for i in 0..4 {
            lru.insert(i, ());
        }
        let keys: Vec<i32> = lru.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![3, 2, 1, 0]);
    }

    #[test]
    fn single_entry_edge_cases() {
        let mut lru = LruMap::new();
        lru.insert("only", 1);
        assert_eq!(lru.get(&"only"), Some(&1)); // head == idx path
        assert_eq!(lru.pop_lru(), Some(("only", 1)));
        assert!(lru.is_empty());
        lru.insert("again", 2);
        assert_eq!(lru.iter().last(), Some((&"again", &2)));
    }

    #[test]
    fn large_churn_consistency() {
        let mut lru = LruMap::new();
        let mut model = std::collections::HashMap::new();
        for i in 0..10_000u64 {
            let k = i % 257;
            lru.insert(k, i);
            model.insert(k, i);
            if i % 3 == 0 {
                let dead = (i * 7) % 257;
                assert_eq!(lru.remove(&dead), model.remove(&dead));
            }
        }
        assert_eq!(lru.len(), model.len());
        for (k, v) in &model {
            assert_eq!(lru.peek(k), Some(v));
        }
    }
}

//! Dynamic hot-key splitting (DESIGN.md §14): the one place that answers
//! "is ⟨op, key⟩ split, and what is its subkey?". The owner-side detector
//! installs a combining ⟨op, key⟩ when the cache's space-saving sketch
//! estimates its event count past the threshold; while installed, senders
//! and owners rewrite the key round-robin to one of
//! [`SPLIT_WAYS`] ring-distributed subkeys. Reads merge base +
//! subslates through the declared combiner, so the split is invisible to
//! exactness. Subkeys are ordinary keys to every other subsystem
//! (handoff, flush, recovery) — no epoch special-casing. The clock and the
//! sketch's estimates are arguments, never read here.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use muppet_core::event::Key;
use muppet_core::sync::{Mutex, RwLock};
use muppet_core::workflow::OpId;
use muppet_obs::Counter;

use crate::dispatch::{split_base_of, split_subkey, SPLIT_WAYS};

/// Keys tracked per cache shard by the space-saving hot-key sketch; also
/// the most collapse floors the tracker keeps.
pub(crate) const HOT_KEY_CAPACITY: usize = 64;

/// Cooling-probe window for split hot keys: a key whose rewrite traffic
/// over one window falls below half the threshold collapses back to
/// base-key routing (its subslates persist and keep merging on read).
const SPLIT_COOL_WINDOW_US: u64 = 250_000;

/// One hot-key sketch probe per this many update events: keeps the
/// steady detector cost to a relaxed `fetch_add`.
const SPLIT_PROBE_EVERY: u64 = 64;

/// A batch-fold run that absorbed at least this many events probes the
/// splitter unconditionally — coalescing that deep is itself the skew
/// signal, and the sampled per-event probe undersamples keys the fold has
/// already collapsed.
pub(crate) const SPLIT_FOLD_PROBE_MIN: u64 = 8;

/// The split state of one engine.
pub(crate) struct SplitTracker {
    /// Sketch estimate at which a pair splits.
    threshold: u64,
    /// Per op, whether it may split: splitting is on and its updater
    /// declares a combiner. Empty when splitting is off.
    splittable: Vec<bool>,
    /// Actively split ⟨op, key⟩ pairs. Touched on the rewrite path only
    /// when `active > 0`, so unsplit workloads never take the lock.
    map: RwLock<HashMap<(OpId, Key), Arc<SplitEntry>>>,
    /// Fast-path gate: the number of entries in `map`.
    active: AtomicU64,
    /// Sampled-probe counter for the hot detector.
    probe: AtomicU64,
    /// Collapsed pairs' sketch estimates at collapse, as read by the first
    /// over-threshold probe after it (`None` until then). The sketch count
    /// is cumulative, so a pair re-splits only on heat gained since. At
    /// most [`HOT_KEY_CAPACITY`] entries.
    floors: Mutex<HashMap<(OpId, Key), Option<u64>>>,
}

/// Per-split-key routing state.
struct SplitEntry {
    /// Round-robin subkey cursor.
    rr: AtomicU64,
    /// Rewrites observed in the current cooling window.
    hits: AtomicU64,
    /// Engine-relative µs when the current cooling window opened.
    window_us: AtomicU64,
}

impl SplitTracker {
    /// A tracker splitting at `threshold` (0 = never) the ops whose
    /// `combines` entry is true.
    pub(crate) fn new(threshold: u64, combines: Vec<bool>) -> SplitTracker {
        SplitTracker {
            threshold,
            splittable: if threshold > 0 { combines } else { Vec::new() },
            map: RwLock::new(HashMap::new()),
            active: AtomicU64::new(0),
            probe: AtomicU64::new(0),
            floors: Mutex::new(HashMap::new()),
        }
    }

    /// Whether splitting is configured on.
    pub(crate) fn enabled(&self) -> bool {
        !self.splittable.is_empty()
    }

    /// Pairs split right now.
    pub(crate) fn active(&self) -> u64 {
        self.active.load(Ordering::Acquire)
    }

    /// Whether ⟨op, key⟩ may split: a splittable op and a base key (a
    /// split never recurses).
    fn candidate(&self, op: OpId, key: &Key) -> bool {
        self.splittable.get(op) == Some(&true) && split_base_of(key).is_none()
    }

    /// The rewrite, on the sender's and the owner's path alike: `key`
    /// becomes the round-robin subkey of a split ⟨op, key⟩. Each rewrite
    /// bumps the entry's cooling window; a window whose rewrite traffic
    /// fell below half the threshold collapses the entry — routing reverts
    /// to the base key while the subslates persist (reads keep merging
    /// them, so no update is ever lost to a collapse).
    pub(crate) fn rewrite(&self, op: OpId, key: &mut Key, now_us: impl FnOnce() -> u64) {
        if self.splittable.get(op) != Some(&true) || self.active() == 0 {
            return;
        }
        let id = (op, key.clone());
        let Some(entry) = self.map.read().get(&id).cloned() else { return };
        let now = now_us();
        let opened = entry.window_us.load(Ordering::Acquire);
        if now.saturating_sub(opened) >= SPLIT_COOL_WINDOW_US
            && entry
                .window_us
                .compare_exchange(opened, now, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            && entry.hits.swap(0, Ordering::AcqRel) < self.threshold / 2
        {
            if self.map.write().remove(&id).is_some() {
                self.active.fetch_sub(1, Ordering::AcqRel);
            }
            let mut floors = self.floors.lock();
            if floors.len() >= HOT_KEY_CAPACITY {
                if let Some(old) = floors.keys().next().cloned() {
                    floors.remove(&old);
                }
            }
            floors.insert(id, None);
            return;
        }
        entry.hits.fetch_add(1, Ordering::Relaxed);
        let shard = entry.rr.fetch_add(1, Ordering::Relaxed) as usize % SPLIT_WAYS;
        *key = split_subkey(key, shard);
    }

    /// The owner-side detector on one update event: one in
    /// [`SPLIT_PROBE_EVERY`] candidates asks the sketch.
    pub(crate) fn sample(
        &self,
        op: OpId,
        key: &Key,
        estimate: impl FnOnce() -> Option<u64>,
        now_us: u64,
    ) {
        if self.candidate(op, key)
            && self.probe.fetch_add(1, Ordering::Relaxed).is_multiple_of(SPLIT_PROBE_EVERY)
        {
            self.probe(op, key, estimate, now_us);
        }
    }

    /// Install a split for a candidate ⟨op, key⟩ whose sketch estimate
    /// crossed the threshold — by a threshold's worth above its floor, if
    /// it collapsed before. The batch fold calls this directly for runs it
    /// coalesced past [`SPLIT_FOLD_PROBE_MIN`]: under deep folding a hot
    /// key surfaces as a handful of carriers, so the sampled probe would
    /// almost never land on it — but the absorbed count *is* the heat
    /// signal, already paid for.
    pub(crate) fn probe(
        &self,
        op: OpId,
        key: &Key,
        estimate: impl FnOnce() -> Option<u64>,
        now_us: u64,
    ) {
        if !self.candidate(op, key) {
            return;
        }
        let Some(est) = estimate().filter(|&est| est >= self.threshold) else { return };
        let id = (op, key.clone());
        let floor = match self.floors.lock().get_mut(&id) {
            Some(floor) => *floor.get_or_insert(est),
            None => 0,
        };
        if est.saturating_sub(floor) < self.threshold {
            return;
        }
        self.floors.lock().remove(&id);
        if let Entry::Vacant(v) = self.map.write().entry(id) {
            v.insert(Arc::new(SplitEntry {
                rr: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                window_us: AtomicU64::new(now_us),
            }));
            self.active.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Merge-on-read: a key that is (or ever was) split holds part of its
    /// total in up to [`SPLIT_WAYS`] subslates; `read` fetches each and
    /// `combine` folds it into the base value. Collapsed keys keep their
    /// subslate residue, so this runs whenever the op may split — reads of
    /// never-split keys cost [`SPLIT_WAYS`] cache misses only then.
    pub(crate) fn read_merged(
        &self,
        op: OpId,
        key: &Key,
        read: impl Fn(&Key) -> Option<Vec<u8>>,
        combine: impl Fn(&[u8], &[u8]) -> Option<Vec<u8>>,
        merges: &Counter,
    ) -> Option<Vec<u8>> {
        let mut acc = read(key);
        if !self.candidate(op, key) {
            return acc;
        }
        let mut merged = false;
        for part in (0..SPLIT_WAYS).filter_map(|shard| read(&split_subkey(key, shard))) {
            merged = true;
            acc = match acc {
                None => Some(part),
                // Splitting requires a total combiner (the
                // `Updater::combine` contract); on a veto keep the
                // accumulated prefix rather than corrupt it.
                Some(a) => Some(combine(&a, &part).unwrap_or(a)),
            };
        }
        if merged {
            merges.inc();
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: u64 = 100;

    fn tracker() -> SplitTracker {
        SplitTracker::new(T, vec![true, false])
    }

    fn rewritten(t: &SplitTracker, key: &str, now: u64) -> Key {
        let mut key = Key::from(key);
        t.rewrite(0, &mut key, || now);
        key
    }

    /// Install `key`, then let its first cooling window pass cold.
    fn split_then_collapse(t: &SplitTracker, key: &str) {
        t.probe(0, &Key::from(key), || Some(T), 0);
        assert_eq!(rewritten(t, key, SPLIT_COOL_WINDOW_US), Key::from(key), "collapsed");
    }

    #[test]
    fn a_key_installs_at_the_threshold_and_not_below() {
        let t = tracker();
        let hot = Key::from("hot");
        t.probe(0, &hot, || Some(T - 1), 0);
        t.probe(0, &hot, || None, 0);
        assert_eq!((t.active(), rewritten(&t, "hot", 1)), (0, hot.clone()));
        t.probe(1, &hot, || Some(T), 0);
        assert_eq!(t.active(), 0, "an op without a combiner never splits");
        t.probe(0, &split_subkey(&hot, 1), || Some(T), 0);
        assert_eq!(t.active(), 0, "a split never recurses");
        t.probe(0, &hot, || Some(T), 0);
        assert_eq!(t.active(), 1);
        assert!(!SplitTracker::new(0, vec![true]).enabled(), "threshold 0 is off");
    }

    #[test]
    fn rewrites_go_round_robin_over_the_split_ways() {
        let t = tracker();
        t.probe(0, &Key::from("hot"), || Some(T), 0);
        let base = Key::from("hot");
        let subkeys: Vec<Key> =
            (0..2 * SPLIT_WAYS).map(|i| rewritten(&t, "hot", i as u64)).collect();
        let expected: Vec<Key> =
            (0..2 * SPLIT_WAYS).map(|i| split_subkey(&base, i % SPLIT_WAYS)).collect();
        assert_eq!(subkeys, expected);
        assert_eq!(rewritten(&t, "cold", 0), Key::from("cold"));
    }

    #[test]
    fn a_cold_window_collapses_the_split_and_records_a_floor() {
        let t = tracker();
        t.probe(0, &Key::from("warm"), || Some(T), 0);
        // A hot window keeps it split: T/2 rewrites before the window ends.
        for i in 0..T / 2 {
            assert_ne!(rewritten(&t, "warm", i), Key::from("warm"));
        }
        assert_ne!(rewritten(&t, "warm", SPLIT_COOL_WINDOW_US), Key::from("warm"));
        // The next window saw one rewrite: under T/2, so it collapses.
        assert_eq!(rewritten(&t, "warm", 2 * SPLIT_COOL_WINDOW_US), Key::from("warm"));
        assert_eq!(t.active(), 0);
        assert_eq!(t.floors.lock().get(&(0, Key::from("warm"))), Some(&None));
    }

    #[test]
    fn a_resplit_needs_a_threshold_of_heat_above_the_floor() {
        let t = tracker();
        let key = Key::from("k");
        split_then_collapse(&t, "k");
        // The sketch is cumulative: the first probe after the collapse
        // records its estimate as the floor.
        t.probe(0, &key, || Some(3 * T), 1);
        t.probe(0, &key, || Some(4 * T - 1), 2);
        assert_eq!(t.active(), 0);
        t.probe(0, &key, || Some(4 * T), 3);
        assert_eq!(t.active(), 1);
        assert!(t.floors.lock().is_empty(), "a re-split clears its floor");
    }

    #[test]
    fn floors_stay_capped_at_the_sketch_capacity() {
        let t = tracker();
        for i in 0..HOT_KEY_CAPACITY + 5 {
            split_then_collapse(&t, &format!("k{i}"));
        }
        assert_eq!(t.floors.lock().len(), HOT_KEY_CAPACITY);
    }

    #[test]
    fn reads_merge_the_subslates_through_the_combiner() {
        let t = tracker();
        let merges = Counter::default();
        let base = Key::from("k");
        let read = |key: &Key| (*key != split_subkey(&base, 2)).then(|| b"2".to_vec());
        let sum = |a: &[u8], b: &[u8]| muppet_core::operator::combine_decimal_sum(a, b);
        let total = 2 * SPLIT_WAYS as u64;
        assert_eq!(t.read_merged(0, &base, read, sum, &merges), Some(total.to_string().into()));
        assert_eq!(t.read_merged(1, &base, read, sum, &merges), Some(b"2".to_vec()));
        assert_eq!(merges.get(), 1, "only the splittable op merged");
    }
}

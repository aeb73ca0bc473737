//! Slate caches (§4.2).
//!
//! "These slates are cached in the memory of the machine running U" and
//! persisted to the key-value store with a configurable flush policy
//! "ranging from 'immediate write-through' to 'only when evicted from
//! cache'". Muppet 2.0 keeps "all slates ... in a single 'central' slate
//! cache" per machine; Muppet 1.0 fragments the same budget across
//! per-worker caches (§4.5) — both are instances of this type, differing
//! only in how many instances a machine owns and their capacity.
//!
//! Concurrency model: the cache hands out `Arc<SlateSlot>`s; workers lock a
//! slot's state while running the update function. Two-choice dispatch
//! bounds contention on any slot to two workers (§4.5).
//!
//! Outside write-through, the store is behind the event path on every
//! route but one: a miss *loads* its slate before the update can run — one
//! backend round trip, shared by all the misses of a drained batch
//! ([`SlateCache::prefetch`]). Nothing else is *written* on that path.
//! Dirty slates reach the backend through one flush core (`flush_slots`:
//! snapshot under the slot lock, ONE `store_many` per batch outside it,
//! compare-and-set `flushed_version`) as [`FlushItem`]s, the store frame's
//! own item. It is driven by write-through ([`SlateCache::write_through`],
//! once the update has released the slot lock), the periodic sweep
//! ([`SlateCache::flush_dirty`]), the recovery line's
//! [`SlateCache::flush_barrier`], hand-off
//! ([`SlateCache::flush_slot_now`]) and eviction: a miss over capacity
//! only *selects* its LRU victims into the eviction backlog, and
//! [`SlateCache::retire_evicted`] writes them back and removes them later,
//! in one batch, when the caller has nothing better to do.
//!
//! The dirty set is kept once: each shard's dirty index holds an entry
//! exactly while its slot is dirty (save while a write-through write is on
//! the wire). The sweep and the barrier list it
//! (never drain it), and [`SlateCache::dirty_count`] counts it without
//! locking a slate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use muppet_core::event::Key;
use muppet_core::hash::fx64_pair;
use muppet_core::slate::Slate;
use muppet_core::sync::{audit, Condvar, Mutex};
use muppet_core::workflow::OpId;
use muppet_core::Codec;
use muppet_obs::{Counter, Logger, Registry};
use muppet_slatestore::cluster::StoreCluster;
use muppet_slatestore::types::CellKey;

use crate::lru::LruMap;
use crate::stats::CacheMetrics;

/// Cap on one batched flush call (dirty slates per `store_many`): the
/// engine's only value; [`SlateCache::with_flush_batch`] sets another for
/// one cache.
pub const DEFAULT_FLUSH_BATCH_MAX: usize = 256;

/// Soft byte cap on one flush batch's payload: a batch closes early
/// rather than approach the wire's 64 MB hard frame limit (an oversized
/// `StorePut` frame would be refused wholesale and rebuilt identically
/// on every sweep — a flush livelock). A single slate over the cap
/// still flushes alone.
pub const FLUSH_BATCH_SOFT_BYTES: usize = 8 << 20;

pub use muppet_core::config::FlushPolicy;
pub use muppet_net::FlushItem;

/// Where cache misses load from and flushes write to: runs of slates, in
/// order. Implemented by the slate-store cluster and the remote store
/// backend; tests may substitute an in-memory backend. Implementors write
/// the two run methods; a single slate is a run of one.
pub trait SlateBackend: Send + Sync + 'static {
    /// Load the persisted bytes of a run of ⟨updater, key⟩s, one result
    /// per item, in order. Bytes come back uncompressed in whatever codec
    /// they were stored under — the MBF magic byte is sniffable, so no tag
    /// travels on this path. A batch-capable backend turns the run into
    /// one store round trip (one `StoreGet` frame over the wire).
    fn load_many(&self, items: &[(Arc<str>, Key)], now_us: u64) -> Vec<Option<Vec<u8>>>;

    /// Persist a run of slates, each tagged with its codec (the store may
    /// compress them, after which the payload is no longer sniffable — the
    /// tag must travel explicitly). Returns per-item success in order:
    /// `false` when the write did not reach the store (quorum failure,
    /// dead store host), and the caller must keep that slate dirty so a
    /// later flush retries — dropping it would silently lose the update.
    /// A batch-capable backend turns a flush tick's dirty set into one
    /// store round trip (one `StorePut` frame over the wire, one WAL group
    /// commit on the LSM node).
    fn store_many(&self, items: &[FlushItem], now_us: u64) -> Vec<bool>;

    /// [`SlateBackend::load_many`] of one ⟨updater, key⟩.
    fn load(&self, updater: &str, key: &Key, now_us: u64) -> Option<Vec<u8>> {
        self.load_many(&[(Arc::from(updater), key.clone())], now_us).pop().flatten()
    }

    /// [`SlateBackend::store_many`] of one slate.
    fn store(
        &self,
        updater: &str,
        key: &Key,
        bytes: &[u8],
        codec: Codec,
        ttl_secs: Option<u64>,
        now_us: u64,
    ) -> bool {
        let bytes = Bytes::copy_from_slice(bytes);
        let item =
            FlushItem { updater: Arc::from(updater), key: key.clone(), bytes, codec, ttl_secs };
        self.store_many(&[item], now_us).first() == Some(&true)
    }
}

/// Backend that drops writes and never finds anything — engines without an
/// attached store use this.
#[derive(Debug, Default)]
pub struct NullBackend;

impl SlateBackend for NullBackend {
    fn load_many(&self, items: &[(Arc<str>, Key)], _now_us: u64) -> Vec<Option<Vec<u8>>> {
        vec![None; items.len()]
    }

    fn store_many(&self, items: &[FlushItem], _now_us: u64) -> Vec<bool> {
        // With no store attached there is nothing to retry against:
        // report success so caches do not accumulate forever-dirty slates.
        vec![true; items.len()]
    }
}

impl SlateBackend for StoreCluster {
    fn load_many(&self, items: &[(Arc<str>, Key)], now_us: u64) -> Vec<Option<Vec<u8>>> {
        let keys: Vec<CellKey> = items
            .iter()
            .map(|(updater, key)| CellKey::new(key.as_bytes(), updater.as_bytes()))
            .collect();
        // Quorum failures surface as cache misses: the paper's posture is
        // availability-first on the read path.
        self.get_many(&keys, now_us)
            .into_iter()
            .map(|r| r.ok().flatten().map(|b| b.to_vec()))
            .collect()
    }

    fn store_many(&self, items: &[FlushItem], now_us: u64) -> Vec<bool> {
        // One `put_many`: cells grouped per storage node, each node's run
        // WAL-group-committed (one fsync per batch under `sync_each`). A
        // write failure keeps the slate dirty; a later flush retries.
        let cells: Vec<(CellKey, &[u8], Codec, Option<u64>)> = items
            .iter()
            .map(|item| {
                (
                    CellKey::new(item.key.as_bytes(), item.updater.as_bytes()),
                    item.bytes.as_ref(),
                    item.codec,
                    item.ttl_secs,
                )
            })
            .collect();
        self.put_many(&cells, now_us).into_iter().map(|r| r.is_ok()).collect()
    }
}

/// Mutable slate state guarded by the slot lock.
#[derive(Debug)]
pub struct SlateState {
    /// The live slate.
    pub slate: Slate,
    /// Version already persisted; `slate.version() > flushed_version` ⟹
    /// dirty.
    pub flushed_version: u64,
    /// Engine-relative µs of the last updater write (drives TTL reset).
    pub last_write_us: u64,
    /// Whether this slot is registered in its shard's dirty index
    /// (guarded by the state lock, so the clean→dirty transition
    /// registers exactly once — steady-state re-writes of an
    /// already-dirty slate touch no extra lock — and the dirty→clean
    /// transition deregisters exactly once).
    indexed: bool,
    /// A flush of this slot's snapshot is mid-flight to the backend
    /// (guarded by the state lock). Concurrent flushes of one slot must
    /// be refused: the backend write runs outside the state lock and the
    /// store resolves same-key writes by arrival order, so two in-flight
    /// snapshots could land newest-first and leave the STALE bytes
    /// durable while the CAS marks the slot clean — a silently lost
    /// update. (The pre-pipeline code serialized flushes by holding the
    /// state lock across the write; this flag restores that exclusion
    /// without the blocking.)
    flushing: bool,
}

impl SlateState {
    /// Whether the slate has unpersisted changes.
    pub fn dirty(&self) -> bool {
        self.slate.version() > self.flushed_version
    }
}

/// One cached slate: identity + lockable state.
#[derive(Debug)]
pub struct SlateSlot {
    /// The updater's workflow id (shard + dirty-index addressing).
    pub op: OpId,
    /// The update function's name (store column).
    pub updater: Arc<str>,
    /// The event key (store row).
    pub key: Key,
    /// TTL configured for this updater's slates.
    pub ttl_secs: Option<u64>,
    /// Lockable state; workers hold this lock while updating.
    pub state: Mutex<SlateState>,
}

/// A snapshot of slate-cache statistics: counters and gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Misses that found a persisted slate in the store.
    pub store_loads: u64,
    /// Slates evicted for capacity.
    pub evictions: u64,
    /// Writes issued to the backend.
    pub flush_writes: u64,
    /// Backend writes that failed (the slate stayed dirty for retry).
    pub flush_failures: u64,
    /// Slates reset because their TTL lapsed.
    pub ttl_resets: u64,
    /// Live entries.
    pub entries: u64,
    /// Dirty entries (unpersisted).
    pub dirty: u64,
    /// Lock shards the cache's budget is split over.
    pub shards: u64,
    /// Batched `store_many` calls issued by flush sweeps.
    pub flush_batches: u64,
    /// Median flush-batch size (power-of-two bucket upper bound).
    pub flush_batch_p50: u64,
    /// Largest single flush batch.
    pub flush_batch_largest: u64,
    /// Backend round trips (loads + stores + batched stores): over a
    /// remote store host this is the wire-round-trip count of the slate
    /// path.
    pub store_round_trips: u64,
    /// Concurrent misses on the same ⟨op, key⟩ that shared another miss's
    /// in-flight backend load instead of stampeding the store.
    pub miss_coalesced: u64,
    /// Eviction victims chosen and not yet written back (gauge).
    pub evict_backlog: u64,
}

/// One lock shard: its own LRU map, its slice of the capacity budget, and
/// its hit/miss cells.
struct Shard {
    map: Mutex<LruMap<(OpId, Key), Arc<SlateSlot>>>,
    /// The dirty index: exactly the slots with unpersisted writes — an
    /// entry is registered on the clean→dirty transition and removed when
    /// the slot becomes clean or leaves the cache. Flush sweeps, the
    /// recovery-line barrier and the dirty count read this instead of
    /// walking the map, so their cost scales with the dirty set, not the
    /// cache size. Weak so an index entry never pins a slot resident (the
    /// eviction strong-count protocol stays exact).
    dirty: Mutex<HashMap<(OpId, Key), Weak<SlateSlot>>>,
    /// Single-flight read-through: ⟨op, key⟩s with a backend load already
    /// in flight. Concurrent misses park on the flight instead of
    /// stampeding the store with duplicate loads.
    flights: Mutex<HashMap<(OpId, Key), Arc<Flight>>>,
    capacity: usize,
    /// Eviction victims selected from this shard and not yet resolved
    /// (waiting in the backlog or mid-retire). They are still resident,
    /// so victim selection subtracts them from the capacity excess.
    victims: AtomicUsize,
    hits: Counter,
    misses: Counter,
}

impl Shard {
    /// Whether the map still holds this exact slot under its key.
    fn holds(&self, slot: &Arc<SlateSlot>) -> bool {
        let map = self.map.lock();
        map.peek(&(slot.op, slot.key.clone())).is_some_and(|s| Arc::ptr_eq(s, slot))
    }

    /// Drop `slot` from the map if nobody raced the eviction: the entry
    /// still holds this exact slot, no worker borrowed it (count == map +
    /// the caller's binding) and no write left it dirty.
    fn remove_if_idle(&self, slot: &Arc<SlateSlot>) -> bool {
        let k = (slot.op, slot.key.clone());
        let mut map = self.map.lock();
        let idle = map.peek(&k).is_some_and(|s| Arc::ptr_eq(s, slot))
            && Arc::strong_count(slot) == 2
            && !slot.state.lock().dirty();
        if idle {
            map.remove(&k);
        }
        idle
    }
}

/// Outcome of one flush attempt of one slot.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FlushOutcome {
    /// Nothing to write: the slot was already persisted.
    Clean,
    /// The snapshot reached the backend (the slot is persisted up to it).
    Written,
    /// Another flush of this slot is mid-flight; this attempt did not
    /// write (the slot stays dirty and indexed).
    InFlight,
    /// The backend refused the write; the slot stays dirty for retry.
    Failed,
}

/// A single-flight ticket: the leader resolves it once its loaded slot is
/// in the map; waiters block on it, then retry the map lookup.
#[derive(Default)]
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Flight {
    /// Block until the leader resolves the flight. `finish` sets `done`
    /// under this mutex, and [`FlightGuard`] resolves every flight on every
    /// exit, unwinding included, so the wait needs no timeout. A waiter
    /// stays parked for as long as its leader's backend load takes.
    fn wait(&self) {
        let mut done = self.done.lock();
        while !*done {
            self.cv.wait(&mut done);
        }
    }

    fn finish(&self) {
        *self.done.lock() = true;
        self.cv.notify_all();
    }
}

/// Resolves its flights on every exit — including an unwinding backend
/// panic. A stranded flight would hang every future miss on its key
/// forever; with the guard, waiters wake, retry, and (if the slot never
/// landed) elect a fresh leader.
struct FlightGuard<'a> {
    cache: &'a SlateCache,
    keys: Vec<(OpId, Key)>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        for k in &self.keys {
            if let Some(flight) = self.cache.shard_of(k.0, &k.1).flights.lock().remove(k) {
                flight.finish();
            }
        }
    }
}

/// Per-shard statistics snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Lookups served from this shard.
    pub hits: u64,
    /// Lookups that missed in this shard.
    pub misses: u64,
    /// Live entries in this shard.
    pub entries: u64,
    /// This shard's slice of the capacity budget.
    pub capacity: u64,
}

/// An LRU slate cache bound to a backend, split into power-of-two lock
/// shards so a machine's worker pool stops serializing on one mutex
/// (the Muppet 2.0 central cache was a single `Mutex<LruMap>` — with 4+
/// workers the map lock was the hottest line on the machine). Shard
/// selection hashes ⟨op, key⟩ with the same fx64 family the routing rings
/// use; each shard owns an even slice of the capacity budget and runs the
/// full eviction/flush/TTL protocol independently.
pub struct SlateCache {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; shard count is a power of two.
    shard_mask: u64,
    policy: FlushPolicy,
    backend: Arc<dyn SlateBackend>,
    /// Codec flushes materialize slates in before handing bytes to the
    /// backend ([`muppet_core::CodecChoice::store_codec`] resolves the
    /// engine's wire-codec setting to this).
    store_codec: Codec,
    /// Dirty slates coalesced into one `store_many` call at most.
    flush_batch_max: usize,
    /// The eviction backlog: victims selected by misses, still resident,
    /// waiting for [`SlateCache::retire_evicted`] to write them back and
    /// remove them.
    backlog: Mutex<Vec<Arc<SlateSlot>>>,
    /// Victims selected and not yet resolved, summed over the shards —
    /// the backlog plus whatever a retire currently holds. The
    /// no-eviction path reads this (relaxed) and nothing else. A count
    /// only: it publishes no data (the list has its own lock), and a
    /// reader that misses another thread's increment is covered by that
    /// thread's own check.
    backlog_len: AtomicUsize,
    metrics: CacheMetrics,
    /// Incident logger (flush failures, aggregated once per sweep).
    logger: Arc<Logger>,
}

impl std::fmt::Debug for SlateCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlateCache")
            .field("capacity", &self.capacity())
            .field("shards", &self.shards.len())
            .field("policy", &self.policy)
            .finish()
    }
}

impl SlateCache {
    /// A single-shard cache holding up to `capacity` slates (the Muppet
    /// 1.0 per-worker caches, which have exactly one owner and gain
    /// nothing from sharding).
    pub fn new(capacity: usize, policy: FlushPolicy, backend: Arc<dyn SlateBackend>) -> Self {
        SlateCache::with_shards(capacity, policy, backend, 1)
    }

    /// A cache holding up to `capacity` slates split over `shards` lock
    /// shards (rounded up to a power of two). The total budget is pinned:
    /// shard capacities sum to exactly `max(capacity, shards)`.
    pub fn with_shards(
        capacity: usize,
        policy: FlushPolicy,
        backend: Arc<dyn SlateBackend>,
        shards: usize,
    ) -> Self {
        let n = shards.max(1).next_power_of_two();
        let metrics = CacheMetrics::register(&Registry::new(), n);
        SlateCache::with_metrics(capacity, policy, backend, shards, metrics)
    }

    /// [`SlateCache::with_shards`], recording into `metrics` — which must
    /// have a hit/miss cell per shard.
    pub(crate) fn with_metrics(
        capacity: usize,
        policy: FlushPolicy,
        backend: Arc<dyn SlateBackend>,
        shards: usize,
        metrics: CacheMetrics,
    ) -> Self {
        let n = shards.max(1).next_power_of_two();
        let capacity = capacity.max(n); // every shard holds at least one slate
        let (base, extra) = (capacity / n, capacity % n);
        let shards: Vec<Shard> = (0..n)
            .map(|i| Shard {
                map: Mutex::new(LruMap::new()),
                dirty: Mutex::new(HashMap::new()),
                flights: Mutex::new(HashMap::new()),
                capacity: base + usize::from(i < extra),
                victims: AtomicUsize::new(0),
                hits: metrics.shard_hits[i].clone(),
                misses: metrics.shard_misses[i].clone(),
            })
            .collect();
        SlateCache {
            shards: shards.into_boxed_slice(),
            shard_mask: (n - 1) as u64,
            policy,
            backend,
            store_codec: Codec::Json,
            flush_batch_max: DEFAULT_FLUSH_BATCH_MAX,
            backlog: Mutex::new(Vec::new()),
            backlog_len: AtomicUsize::new(0),
            metrics,
            logger: Logger::disabled(),
        }
    }

    /// Set the flush-batch cap: dirty slates coalesced into one backend
    /// `store_many` call at most, and (up to the capacity) eviction
    /// victims the backlog holds before a miss retires them inline
    /// (1 = the per-slate write-behind path).
    pub fn with_flush_batch(mut self, flush_batch_max: usize) -> Self {
        self.flush_batch_max = flush_batch_max.max(1);
        self
    }

    /// Set the codec flushes materialize slates in before they reach the
    /// backend. Under [`Codec::Mbf`] dirty JSON-document slates encode to
    /// binary once per flush; raw/legacy payloads still go out verbatim
    /// (tagged JSON).
    pub fn with_store_codec(mut self, codec: Codec) -> Self {
        self.store_codec = codec;
        self
    }

    /// Route flush-incident warnings through `logger`.
    pub fn with_logger(mut self, logger: Arc<Logger>) -> Self {
        self.logger = logger;
        self
    }

    /// The flush policy.
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// Total capacity across shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.capacity).sum()
    }

    /// The shard owning ⟨`op`, `key`⟩ — the same fx64 the rings route by,
    /// with the op id mixed in so two updaters' slates for one key spread.
    fn shard_of(&self, op: OpId, key: &Key) -> &Shard {
        let h = fx64_pair(key.as_bytes(), &(op as u64).to_le_bytes());
        &self.shards[(h & self.shard_mask) as usize]
    }

    /// Fetch (or create) the slot for ⟨updater `op`, `key`⟩. On a miss the
    /// backend is consulted ("Muppet retrieves the slate from the Cassandra
    /// cluster", §4.2) with single-flight read-through: the load runs with
    /// no cache lock held, and concurrent misses on the same ⟨op, key⟩
    /// share the one in-flight load instead of stampeding the store. If
    /// nothing is stored the slot starts empty and the update function
    /// initializes it. Cached slates whose TTL lapsed reset to empty
    /// ("resetting to an empty slate at that time").
    ///
    /// A miss that pushes its shard over capacity only *selects* the LRU
    /// victims into the eviction backlog and returns: the caller runs its
    /// update first and pays for the write-back later, batched, through
    /// [`SlateCache::retire_evicted`]. The one exception is the bound: a
    /// miss that finds `min(flush_batch_max, capacity)` victims waiting
    /// retires them inline (still as one batch), so residency never
    /// exceeds capacity plus that bound even if nobody else retires.
    pub fn get_or_load(
        &self,
        op: OpId,
        updater: &Arc<str>,
        key: &Key,
        ttl_secs: Option<u64>,
        now_us: u64,
    ) -> Arc<SlateSlot> {
        let shard = self.shard_of(op, key);
        loop {
            let flight = {
                let mut map = shard.map.lock();
                if let Some(slot) = map.get(&(op, key.clone())) {
                    shard.hits.inc();
                    let slot = Arc::clone(slot);
                    drop(map);
                    self.maybe_ttl_reset(&slot, now_us);
                    return slot;
                }
                let mut flights = shard.flights.lock();
                match flights.get(&(op, key.clone())) {
                    Some(flight) => {
                        // Another miss is already loading this slate from
                        // the backend: share its flight.
                        self.metrics.miss_coalesced.inc();
                        Arc::clone(flight)
                    }
                    None => {
                        shard.misses.inc();
                        flights.insert((op, key.clone()), Arc::new(Flight::default()));
                        drop(flights);
                        drop(map);
                        return self.load_as_leader(op, updater, key, ttl_secs, now_us);
                    }
                }
            };
            flight.wait();
            // Retry: the leader's slot is (usually) a map hit now.
        }
    }

    /// The leader half of single-flight read-through: consult the backend
    /// with NO cache locks held, install the slot, resolve the flight and
    /// queue any capacity excess for eviction.
    fn load_as_leader(
        &self,
        op: OpId,
        updater: &Arc<str>,
        key: &Key,
        ttl_secs: Option<u64>,
        now_us: u64,
    ) -> Arc<SlateSlot> {
        let guard = FlightGuard { cache: self, keys: vec![(op, key.clone())] };
        audit::point();
        let loaded = self.backend.load_many(&[(Arc::clone(updater), key.clone())], now_us);
        self.metrics.store_round_trips.inc();
        let loaded = loaded.into_iter().next().flatten();
        let (slot, victims) = self.install(op, updater, key, ttl_secs, loaded, now_us);
        drop(guard); // wake the waiters before anything else
        self.queue_victims(victims, now_us);
        slot
    }

    /// Batch the loads of a run of misses: take the flights of the
    /// `wanted` ⟨op, updater, key, ttl⟩s that are neither resident nor
    /// already loading, fetch them with ONE `load_many`, install the slots
    /// and resolve the flights — the `get_or_load` calls that follow are
    /// hits. At most one backlog's worth is prefetched, so a batch larger
    /// than a tiny cache does not evict its own head.
    pub fn prefetch(&self, wanted: &[(OpId, &Arc<str>, &Key, Option<u64>)], now_us: u64) {
        let mut guard = FlightGuard { cache: self, keys: Vec::new() };
        let mut lead = Vec::new();
        let most = self.backlog_bound();
        for &(op, updater, key, ttl_secs) in wanted {
            if lead.len() >= most {
                break;
            }
            let shard = self.shard_of(op, key);
            let map = shard.map.lock();
            let mut flights = shard.flights.lock();
            let k = (op, key.clone());
            if map.peek(&k).is_none() && !flights.contains_key(&k) {
                flights.insert(k.clone(), Arc::new(Flight::default()));
                guard.keys.push(k);
                lead.push((op, updater, key, ttl_secs));
            }
        }
        if lead.len() < 2 {
            return; // nothing to batch: the guard hands a lone flight back
        }
        let items: Vec<(Arc<str>, Key)> =
            lead.iter().map(|&(_, u, k, _)| (Arc::clone(u), k.clone())).collect();
        let loaded = self.backend.load_many(&items, now_us);
        self.metrics.store_round_trips.inc();
        if loaded.len() != lead.len() {
            return; // a misbehaving backend: fall back to per-key loads
        }
        let mut victims = Vec::new();
        for ((op, updater, key, ttl_secs), data) in lead.into_iter().zip(loaded) {
            self.shard_of(op, key).misses.inc();
            victims.extend(self.install(op, updater, key, ttl_secs, data, now_us).1);
        }
        drop(guard);
        self.queue_victims(victims, now_us);
    }

    /// Put a freshly loaded slate (or an empty one) into the map and
    /// select this shard's capacity excess. Returns the resident slot and
    /// the victims.
    fn install(
        &self,
        op: OpId,
        updater: &Arc<str>,
        key: &Key,
        ttl_secs: Option<u64>,
        loaded: Option<Vec<u8>>,
        now_us: u64,
    ) -> (Arc<SlateSlot>, Vec<Arc<SlateSlot>>) {
        if loaded.is_some() {
            self.metrics.store_loads.inc();
        }
        // The load path is untagged (the store decompresses before
        // returning), so the payload's codec is sniffed from its first
        // byte: MBF slates stay undecoded binary until an accessor needs
        // the document, JSON slates behave exactly as before.
        let slate = loaded
            .map(|data| {
                let codec = Codec::sniff(&data);
                Slate::from_stored(data, codec)
            })
            .unwrap_or_default();
        let flushed_version = slate.version();
        let fresh = Arc::new(SlateSlot {
            op,
            updater: Arc::clone(updater),
            key: key.clone(),
            ttl_secs,
            state: Mutex::new(SlateState {
                slate,
                flushed_version,
                last_write_us: now_us,
                indexed: false,
                flushing: false,
            }),
        });
        let shard = self.shard_of(op, key);
        let mut map = shard.map.lock();
        if let Some(existing) = map.get(&(op, key.clone())) {
            // An externally-built slot landed while we were loading
            // (elastic handoff `insert_slot`): it carries live state —
            // our freshly loaded copy is the stale one. Keep theirs.
            return (Arc::clone(existing), Vec::new());
        }
        map.insert((op, key.clone()), Arc::clone(&fresh));
        let victims = self.pick_eviction_victims(shard, &mut map);
        (fresh, victims)
    }

    /// Queue freshly selected victims; a full backlog is retired inline.
    fn queue_victims(&self, victims: Vec<Arc<SlateSlot>>, now_us: u64) {
        if !victims.is_empty() {
            self.backlog.lock().extend(victims);
            if self.backlog_len.load(Ordering::Relaxed) >= self.backlog_bound() {
                self.retire_evicted(now_us);
            }
        }
    }

    /// Most victims the backlog holds before a miss retires it inline.
    fn backlog_bound(&self) -> usize {
        self.flush_batch_max.min(self.capacity())
    }

    /// Select eviction victims beyond capacity (called with the shard map
    /// locked) — but keep them *resident*: each candidate is reinserted
    /// immediately (as MRU) and only leaves the map once
    /// [`SlateCache::retire_evicted`] has persisted it. That is what makes
    /// deferring the write safe: a victim touched again while it waits is
    /// a cache hit, never a second copy loaded from the (still unwritten)
    /// backend. Victims already waiting are still resident, so they are
    /// subtracted from the excess — otherwise every miss would re-select
    /// for the same overshoot. `pop_lru` moves the map's reference out,
    /// so an unborrowed victim has strong_count == 1; anything higher
    /// means a worker, the backlog (an earlier selection), or the
    /// leader's fresh binding still holds it — skip those, bounded so a
    /// fully-borrowed cache cannot spin. (The dirty index holds only
    /// `Weak` references, so being dirty never disguises a slot as
    /// borrowed.)
    fn pick_eviction_victims(
        &self,
        shard: &Shard,
        map: &mut LruMap<(OpId, Key), Arc<SlateSlot>>,
    ) -> Vec<Arc<SlateSlot>> {
        let waiting = shard.victims.load(Ordering::Relaxed);
        let excess = map.len().saturating_sub(shard.capacity + waiting);
        let mut victims = Vec::new();
        let mut skipped: Vec<((OpId, Key), Arc<SlateSlot>)> = Vec::new();
        // Reinserting keeps `map.len()` constant, so the loop is bounded
        // by the victim count, not by the map shrinking.
        let max_picks = map.len();
        while victims.len() < excess && victims.len() + skipped.len() < max_picks {
            let Some((k, victim)) = map.pop_lru() else { break };
            if Arc::strong_count(&victim) > 1 {
                skipped.push((k, victim));
                continue;
            }
            map.insert(k, Arc::clone(&victim)); // stays resident until retired
            victims.push(victim);
        }
        for (k, v) in skipped {
            map.insert(k, v); // reinsert as MRU; retry next time
        }
        shard.victims.fetch_add(victims.len(), Ordering::Relaxed);
        self.backlog_len.fetch_add(victims.len(), Ordering::Relaxed);
        victims
    }

    /// Victims selected for eviction and not yet written back (one
    /// relaxed load — the check callers make before
    /// [`SlateCache::retire_evicted`]).
    pub fn evict_backlog(&self) -> usize {
        self.backlog_len.load(Ordering::Relaxed)
    }

    /// Write back and remove the victims waiting in the eviction backlog:
    /// ONE batched flush for all of them, then each leaves the map only if
    /// nobody raced us — the entry still holds this exact slot, no worker
    /// borrowed it meanwhile (count == map + our binding) and no write
    /// re-dirtied it. A victim whose write the backend refused goes back
    /// into the backlog (resident, dirty, indexed) for the next retire;
    /// any other survivor was touched while it waited and simply stays
    /// cached. Entries whose key left this cache since selection
    /// (hand-off, poison discard) are dropped *before* the snapshot, so a
    /// long wait never becomes a stale write over a new owner's slate.
    /// Returns the number of slates evicted.
    pub fn retire_evicted(&self, now_us: u64) -> u64 {
        let waiting = std::mem::take(&mut *self.backlog.lock());
        if waiting.is_empty() {
            return 0;
        }
        let (victims, gone): (Vec<_>, Vec<_>) =
            waiting.into_iter().partition(|slot| self.shard_of(slot.op, &slot.key).holds(slot));
        gone.iter().for_each(|slot| self.resolve_victim(slot));
        let outcomes = self.flush_slots(&victims, now_us);
        let mut evicted = 0u64;
        for (victim, outcome) in victims.into_iter().zip(outcomes) {
            let shard = self.shard_of(victim.op, &victim.key);
            if outcome == FlushOutcome::Failed && shard.holds(&victim) {
                self.backlog.lock().push(victim);
                continue;
            }
            if shard.remove_if_idle(&victim) {
                self.metrics.evictions.inc();
                evicted += 1;
            }
            self.resolve_victim(&victim);
        }
        evicted
    }

    /// A selected victim stops counting against its shard's excess: it
    /// was evicted, or it stays cached as an ordinary resident.
    fn resolve_victim(&self, slot: &SlateSlot) {
        self.shard_of(slot.op, &slot.key).victims.fetch_sub(1, Ordering::Relaxed);
        self.backlog_len.fetch_sub(1, Ordering::Relaxed);
    }

    fn maybe_ttl_reset(&self, slot: &Arc<SlateSlot>, now_us: u64) {
        let Some(ttl) = slot.ttl_secs else { return };
        let mut state = slot.state.lock();
        if !state.slate.is_empty()
            && now_us.saturating_sub(state.last_write_us) > ttl.saturating_mul(1_000_000)
        {
            state.slate.clear();
            state.flushed_version = state.slate.version();
            self.unindex(slot, &mut state);
            self.metrics.ttl_resets.inc();
        }
    }

    /// Register `slot` in its shard's dirty index if it is dirty and not
    /// already there (caller holds the slot's state lock — the `indexed`
    /// flag makes steady-state re-writes of an already-dirty slate free).
    fn index_if_dirty(&self, slot: &Arc<SlateSlot>, state: &mut SlateState) {
        if state.dirty() && !state.indexed {
            state.indexed = true;
            self.shard_of(slot.op, &slot.key)
                .dirty
                .lock()
                .insert((slot.op, slot.key.clone()), Arc::downgrade(slot));
        }
    }

    /// Deregister `slot` from its shard's dirty index when it becomes
    /// clean (caller holds the slot's state lock, the order
    /// [`SlateCache::index_if_dirty`] uses). An entry another slot of the
    /// same key registered since is left alone.
    fn unindex(&self, slot: &Arc<SlateSlot>, state: &mut SlateState) {
        if std::mem::take(&mut state.indexed) {
            let mut dirty = self.shard_of(slot.op, &slot.key).dirty.lock();
            let id = (slot.op, slot.key.clone());
            if dirty.get(&id).is_some_and(|weak| weak.as_ptr() == Arc::as_ptr(slot)) {
                dirty.remove(&id);
            }
        }
    }

    /// Record a completed updater write on `slot` (caller holds its state
    /// lock). A slate left dirty is registered in its shard's dirty index,
    /// where every flush finds it without scanning the cache. No backend
    /// call: under write-through the caller then runs
    /// [`SlateCache::write_through`] with the lock released, which indexes
    /// the slot only if its write is refused — registering every write
    /// just to deregister it at the write's compare-and-set would put two
    /// index-lock round trips on every event.
    pub fn note_write(&self, slot: &Arc<SlateSlot>, state: &mut SlateState, now_us: u64) {
        state.last_write_us = now_us;
        if self.policy != FlushPolicy::WriteThrough {
            self.index_if_dirty(slot, state);
        }
    }

    /// Under [`FlushPolicy::WriteThrough`], persist `slot` now through the
    /// flush core, a batch of one, after [`SlateCache::note_write`] and
    /// with the slot lock released — a reader never waits on the store
    /// write. A flush already in flight on the slot (a second worker's
    /// write-through) is waited out and the slot re-flushed, since its
    /// compare-and-set covers only its own snapshot: every completed write
    /// is in the store when this returns. A refused write leaves the slate
    /// dirty and indexed (the eviction, hand-off or shutdown flush retries
    /// it). A no-op under any other policy.
    pub fn write_through(&self, slot: &Arc<SlateSlot>, now_us: u64) {
        if self.policy == FlushPolicy::WriteThrough && !self.flush_slot_now(slot, now_us) {
            self.index_if_dirty(slot, &mut slot.state.lock());
        }
    }

    /// The one flush core — write-through, sweeps, eviction retires and
    /// hand-off flushes all run it. Snapshot phase: bytes + version per
    /// dirty slot, each under its own briefly-held state lock. Write
    /// phase: ONE batched backend call per `flush_batch_max` slates (one
    /// store round trip over a remote host, one WAL group commit per
    /// replica), with no lock held, so no worker ever stalls behind the
    /// store write of a slate it is mutating. Then a compare-and-set: `flushed_version`
    /// advances only to the version actually written, and only a slot it
    /// leaves clean leaves the dirty index — a slate mutated mid-flight
    /// stays dirty and indexed, as does one the backend refused. A slot
    /// another flush already has in flight is skipped (`InFlight`): the
    /// store resolves same-key writes by arrival order, so a second
    /// concurrent write could land the stale snapshot last. Returns one
    /// outcome per slot, in order.
    fn flush_slots(&self, slots: &[Arc<SlateSlot>], now_us: u64) -> Vec<FlushOutcome> {
        let mut outcomes: Vec<FlushOutcome> = Vec::with_capacity(slots.len());
        let mut failed = 0u64;
        let mut at = 0usize;
        while at < slots.len() {
            // A batch closes at `flush_batch_max` slates OR
            // `FLUSH_BATCH_SOFT_BYTES` of payload, whichever first — a
            // count-only cap could assemble a frame over the wire's hard
            // size limit, which would be rejected wholesale and rebuilt
            // identically forever. A single slate over the soft cap
            // still flushes (alone).
            let mut items: Vec<FlushItem> = Vec::new();
            let mut meta: Vec<(usize, u64)> = Vec::new();
            let mut batch_bytes = 0usize;
            while at < slots.len() && items.len() < self.flush_batch_max {
                let slot = &slots[at];
                let ((bytes, codec), version) = {
                    let mut state = slot.state.lock();
                    if !state.dirty() {
                        outcomes.push(FlushOutcome::Clean);
                        at += 1;
                        continue;
                    }
                    if state.flushing {
                        outcomes.push(FlushOutcome::InFlight);
                        at += 1;
                        continue;
                    }
                    // This flush owns the snapshot; a concurrent flush
                    // skips the slot until the CAS below.
                    state.flushing = true;
                    (state.slate.materialize(self.store_codec), state.slate.version())
                };
                if !items.is_empty() && batch_bytes + bytes.len() > FLUSH_BATCH_SOFT_BYTES {
                    // Close this batch; the slot opens the next one. The
                    // snapshot above claimed the slot (flushing = true) —
                    // release the claim or no flush could ever touch it
                    // again (`at` is not advanced, so it is re-snapshotted
                    // as the next batch's first item).
                    slot.state.lock().flushing = false;
                    break;
                }
                batch_bytes += bytes.len();
                items.push(FlushItem {
                    updater: Arc::clone(&slot.updater),
                    key: slot.key.clone(),
                    bytes,
                    codec,
                    ttl_secs: slot.ttl_secs,
                });
                meta.push((at, version));
                outcomes.push(FlushOutcome::Failed); // until the backend acks it
                at += 1;
            }
            if items.is_empty() {
                continue;
            }
            audit::point();
            let t0 = Instant::now();
            let oks = self.backend.store_many(&items, now_us);
            self.metrics.flush_latency.record(t0.elapsed().as_micros() as u64);
            self.metrics.store_round_trips.inc();
            self.metrics.flush_batch.record(items.len() as u64);
            debug_assert_eq!(oks.len(), items.len(), "store_many must ack per item");
            // A short ack vector (a misbehaving backend) fails the
            // uncovered tail: those slates stay dirty for retry.
            let oks = oks.into_iter().chain(std::iter::repeat(false));
            for ((i, version), ok) in meta.into_iter().zip(oks) {
                let slot = &slots[i];
                let mut state = slot.state.lock();
                state.flushing = false;
                if ok {
                    if version > state.flushed_version {
                        state.flushed_version = version;
                    }
                    self.metrics.flush_writes.inc();
                    outcomes[i] = FlushOutcome::Written;
                } else {
                    self.metrics.flush_failures.inc();
                    failed += 1;
                }
                if !state.dirty() {
                    self.unindex(slot, &mut state);
                }
            }
        }
        if failed > 0 {
            // One warn per call, not per slate: a store outage during a
            // large sweep is one incident, and per-slot records from
            // concurrent flushes would interleave into noise.
            self.logger.warn(
                "flush: backend refused writes; slates stay dirty for retry",
                &[("failed", failed.into()), ("slates", slots.len().into())],
            );
        }
        outcomes
    }

    /// Public flush-one entry point — a batch of one through the shared
    /// core (elastic handoff: the old owner flushes moved-away slates
    /// before acking the epoch — the ack certifies the slate is durable,
    /// so an in-flight background flush is *waited out* and the slot
    /// re-checked, never skipped; the wait is bounded by the backend's
    /// own write timeout). Returns false when the backend write failed.
    pub fn flush_slot_now(&self, slot: &Arc<SlateSlot>, now_us: u64) -> bool {
        loop {
            match self.flush_slots(std::slice::from_ref(slot), now_us).first() {
                Some(FlushOutcome::InFlight) => std::thread::sleep(Duration::from_millis(1)),
                Some(FlushOutcome::Failed) => return false,
                _ => return true,
            }
        }
    }

    /// Remove every cached slate of updater `op` whose key matches
    /// `moved`, returning the removed ⟨key, slot⟩ pairs (elastic handoff:
    /// the keys whose ring arc moved to another machine). The caller
    /// decides what to do with them — flush to the store, or hand them
    /// directly to the new owner's cache in-process.
    pub fn take_matching(
        &self,
        op: OpId,
        moved: &dyn Fn(&Key) -> bool,
    ) -> Vec<(Key, Arc<SlateSlot>)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let mut map = shard.map.lock();
            let keys: Vec<Key> = map
                .iter()
                .filter(|((o, k), _)| *o == op && moved(k))
                .map(|((_, k), _)| k.clone())
                .collect();
            let taken: Vec<(Key, Arc<SlateSlot>)> = keys
                .into_iter()
                .filter_map(|k| map.remove(&(op, k.clone())).map(|slot| (k, slot)))
                .collect();
            drop(map);
            // The slots leave this cache: purge their dirty-index entries
            // (the new owner's cache re-registers them on insert), then
            // mark them unindexed. The two locks are never nested — every
            // other path orders state → dirty (`index_if_dirty` under the
            // caller's state lock), so taking state while holding dirty
            // here would be an AB-BA deadlock with a concurrent flusher.
            {
                let mut dirty = shard.dirty.lock();
                for (k, _) in &taken {
                    dirty.remove(&(op, k.clone()));
                }
            }
            for (_, slot) in &taken {
                slot.state.lock().indexed = false;
            }
            out.extend(taken);
        }
        // Moved keys waiting for eviction leave the backlog too: whatever
        // the caller does with the slot, this cache must not write it
        // later, over the new owner's slate.
        let purged: Vec<Arc<SlateSlot>> =
            self.backlog.lock().extract_if(.., |slot| slot.op == op && moved(&slot.key)).collect();
        purged.iter().for_each(|slot| self.resolve_victim(slot));
        out
    }

    /// Drop one ⟨op, key⟩ slot from the cache *without* flushing it —
    /// poison containment: a panicking updater may have left the slate
    /// half-mutated, so its cached state must be thrown away (never
    /// flushed) and the next touch refaults the store's last good
    /// version. Same lock discipline as [`SlateCache::take_matching`]:
    /// map, then dirty, then slot state — never nested.
    pub fn discard(&self, op: OpId, key: &Key) {
        let shard = self.shard_of(op, key);
        let slot = shard.map.lock().remove(&(op, key.clone()));
        shard.dirty.lock().remove(&(op, key.clone()));
        if let Some(slot) = slot {
            slot.state.lock().indexed = false;
        }
    }

    /// Insert an externally-built slot (elastic handoff between in-process
    /// machines: the moved slate keeps its state, dirtiness included — a
    /// dirty arrival enters this cache's dirty index so the next flush
    /// sweep finds it; `take_matching` cleared its old registration).
    pub fn insert_slot(&self, op: OpId, key: Key, slot: Arc<SlateSlot>) {
        debug_assert_eq!(slot.op, op, "a handed-off slot keeps its op identity");
        self.shard_of(op, &key).map.lock().insert((op, key), Arc::clone(&slot));
        self.index_if_dirty(&slot, &mut slot.state.lock());
    }

    /// Every slot in the dirty index, each shard listed under its index
    /// lock. The index is listed, never drained: an entry leaves only when
    /// its slot becomes clean or leaves the cache, so a slot another flush
    /// has in flight is still found.
    fn dirty_slots(&self) -> Vec<Arc<SlateSlot>> {
        let listed = self.shards.iter().flat_map(|shard| -> Vec<_> {
            shard.dirty.lock().values().filter_map(Weak::upgrade).collect()
        });
        listed.collect()
    }

    /// Flush every dirty slate (background flusher tick / graceful
    /// shutdown). The sweep lists the per-shard dirty indexes — visiting
    /// only dirty slots, not the whole cache — and hands them to the
    /// shared flush core, which skips a slot another flush has in flight
    /// and leaves a refused one indexed for the next tick. Returns the
    /// number of slates written.
    pub fn flush_dirty(&self, now_us: u64) -> u64 {
        let outcomes = self.flush_slots(&self.dirty_slots(), now_us);
        outcomes.iter().filter(|o| **o == FlushOutcome::Written).count() as u64
    }

    /// The recovery line's sweep: write every slate dirty when it starts —
    /// the dirty index lists them all — waiting out a slot another flush
    /// holds as [`SlateCache::flush_slot_now`] does (its write may not have
    /// landed yet). Returns how many of them it could not write; a slate
    /// dirtied after the sweep found it does not count.
    pub fn flush_barrier(&self, now_us: u64) -> u64 {
        let dirty = self.dirty_slots();
        let outcomes = self.flush_slots(&dirty, now_us);
        let unwritten = dirty.iter().zip(outcomes).filter(|(slot, outcome)| match outcome {
            FlushOutcome::InFlight => !self.flush_slot_now(slot, now_us),
            outcome => *outcome == FlushOutcome::Failed,
        });
        unwritten.count() as u64
    }

    /// Read a slate's current bytes without creating it (HTTP reads, §4.4:
    /// "the fetch retrieves the slate from Muppet's slate cache ... to
    /// ensure an up-to-date reply").
    pub fn read(&self, op: OpId, key: &Key) -> Option<Vec<u8>> {
        let slot = {
            let map = self.shard_of(op, key).map.lock();
            map.peek(&(op, key.clone())).map(Arc::clone)
        }?;
        let state = slot.state.lock();
        if state.slate.is_empty() {
            None
        } else {
            Some(state.slate.bytes().to_vec())
        }
    }

    /// Keys currently cached for updater `op` (bulk reads / debugging).
    pub fn keys_of(&self, op: OpId) -> Vec<Key> {
        let mut keys = Vec::new();
        for shard in self.shards.iter() {
            keys.extend(
                shard.map.lock().iter().filter(|((o, _), _)| *o == op).map(|((_, k), _)| k.clone()),
            );
        }
        keys
    }

    /// Number of dirty slates that would be lost if this machine crashed
    /// right now (§4.3: "whatever changes ... not yet been flushed to the
    /// key-value store are lost"): the dirty index's live entries, read
    /// under the index locks only — no slate is locked.
    pub fn dirty_count(&self) -> u64 {
        let live =
            |shard: &Shard| shard.dirty.lock().values().filter(|w| w.strong_count() > 0).count();
        self.shards.iter().map(live).sum::<usize>() as u64
    }

    /// Per-shard statistics (hit/miss/occupancy per lock shard).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                hits: s.hits.get(),
                misses: s.misses.get(),
                entries: s.map.lock().len() as u64,
                capacity: s.capacity as u64,
            })
            .collect()
    }

    /// Statistics snapshot: the counters this cache records into, and its
    /// own gauges.
    pub fn stats(&self) -> CacheStats {
        self.metrics.read([self])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testkit::SEEDS;
    use muppet_check::sched;
    use muppet_core::sync::RwLock;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicU64;

    /// In-memory backend recording stores.
    #[derive(Debug, Default)]
    struct MemBackend {
        data: RwLock<HashMap<(String, Key), Vec<u8>>>,
        stores: AtomicU64,
    }

    impl SlateBackend for MemBackend {
        fn load_many(&self, items: &[(Arc<str>, Key)], _now: u64) -> Vec<Option<Vec<u8>>> {
            let data = self.data.read();
            items.iter().map(|(u, k)| data.get(&(u.to_string(), k.clone())).cloned()).collect()
        }
        fn store_many(&self, items: &[FlushItem], _now: u64) -> Vec<bool> {
            self.stores.fetch_add(items.len() as u64, Ordering::Relaxed);
            let mut data = self.data.write();
            for i in items {
                data.insert((i.updater.to_string(), i.key.clone()), i.bytes.to_vec());
            }
            vec![true; items.len()]
        }
    }

    /// Backend whose first `fail_n` writes fail (store outage), then
    /// recovers — the regression harness for lost-on-evict updates.
    #[derive(Debug, Default)]
    struct FlakyBackend {
        inner: MemBackend,
        failures_left: AtomicU64,
        failed: AtomicU64,
    }

    impl FlakyBackend {
        fn failing(n: u64) -> Self {
            FlakyBackend {
                inner: MemBackend::default(),
                failures_left: AtomicU64::new(n),
                failed: AtomicU64::new(0),
            }
        }
    }

    impl SlateBackend for FlakyBackend {
        fn load_many(&self, items: &[(Arc<str>, Key)], now: u64) -> Vec<Option<Vec<u8>>> {
            self.inner.load_many(items, now)
        }
        fn store_many(&self, items: &[FlushItem], now: u64) -> Vec<bool> {
            let left = &self.failures_left;
            let store = |item: &FlushItem| {
                if left
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                    .is_ok()
                {
                    self.failed.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                self.inner.store_many(std::slice::from_ref(item), now)[0]
            };
            items.iter().map(store).collect()
        }
    }

    /// Backend recording the shape of the traffic: the size of every
    /// `load_many` and `store_many`, and an optional run of store batches
    /// refused wholesale.
    #[derive(Debug, Default)]
    struct RecBackend {
        inner: MemBackend,
        batches: Mutex<Vec<usize>>,
        refuse_batches: AtomicU64,
        load_batches: Mutex<Vec<usize>>,
    }

    impl SlateBackend for RecBackend {
        fn load_many(&self, items: &[(Arc<str>, Key)], now: u64) -> Vec<Option<Vec<u8>>> {
            self.load_batches.lock().push(items.len());
            self.inner.load_many(items, now)
        }
        fn store_many(&self, items: &[FlushItem], now: u64) -> Vec<bool> {
            self.batches.lock().push(items.len());
            let refuse = self
                .refuse_batches
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                .is_ok();
            match refuse {
                true => vec![false; items.len()],
                false => self.inner.store_many(items, now),
            }
        }
    }

    /// Touch `key` and leave it dirty with `value`.
    fn write(cache: &SlateCache, key: &str, value: &str, now: u64) {
        let slot = cache.get_or_load(0, &updater_name(), &Key::from(key), None, now);
        let mut state = slot.state.lock();
        state.slate.replace(value.as_bytes().to_vec());
        cache.note_write(&slot, &mut state, now);
    }

    /// Backend whose store calls block until the test releases them, and
    /// whose loads are slow — the harness for "no worker stalls behind a
    /// wire round trip".
    struct SlowBackend {
        inner: MemBackend,
        /// Signalled (once per store call) when a store is in flight.
        entered: std::sync::mpsc::Sender<()>,
        /// Store calls block here until the test sends a token.
        release: Mutex<std::sync::mpsc::Receiver<()>>,
        loads: AtomicU64,
    }

    impl SlowBackend {
        fn gated() -> (Arc<SlowBackend>, std::sync::mpsc::Receiver<()>, std::sync::mpsc::Sender<()>)
        {
            let (entered_tx, entered_rx) = std::sync::mpsc::channel();
            let (release_tx, release_rx) = std::sync::mpsc::channel();
            let backend = Arc::new(SlowBackend {
                inner: MemBackend::default(),
                entered: entered_tx,
                release: Mutex::new(release_rx),
                loads: AtomicU64::new(0),
            });
            (backend, entered_rx, release_tx)
        }
    }

    impl SlateBackend for SlowBackend {
        fn load_many(&self, items: &[(Arc<str>, Key)], now: u64) -> Vec<Option<Vec<u8>>> {
            self.loads.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(30));
            self.inner.load_many(items, now)
        }
        fn store_many(&self, items: &[FlushItem], now: u64) -> Vec<bool> {
            let _ = self.entered.send(());
            let _ = self.release.lock().recv(); // park until released
            self.inner.store_many(items, now)
        }
    }

    fn updater_name() -> Arc<str> {
        Arc::from("U1")
    }

    #[test]
    fn miss_then_hit() {
        let backend = Arc::new(MemBackend::default());
        let cache = SlateCache::new(10, FlushPolicy::OnEvict, backend);
        let name = updater_name();
        let k = Key::from("walmart");
        let slot = cache.get_or_load(0, &name, &k, None, 0);
        assert!(slot.state.lock().slate.is_empty(), "fresh slate starts empty");
        let again = cache.get_or_load(0, &name, &k, None, 1);
        assert!(Arc::ptr_eq(&slot, &again));
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn write_through_persists_immediately() {
        let backend = Arc::new(MemBackend::default());
        let cache = SlateCache::new(10, FlushPolicy::WriteThrough, Arc::clone(&backend) as _);
        let name = updater_name();
        let k = Key::from("k");
        let slot = cache.get_or_load(0, &name, &k, None, 0);
        {
            let mut state = slot.state.lock();
            state.slate.replace(b"5".to_vec());
            cache.note_write(&slot, &mut state, 10);
        }
        cache.write_through(&slot, 10);
        assert!(!slot.state.lock().dirty());
        assert_eq!(backend.load("U1", &k, 0), Some(b"5".to_vec()));
        assert_eq!(cache.stats().flush_writes, 1);
    }

    #[test]
    fn interval_policy_leaves_dirty_until_flush() {
        let backend = Arc::new(MemBackend::default());
        let cache = SlateCache::new(10, FlushPolicy::IntervalMs(100), Arc::clone(&backend) as _);
        let name = updater_name();
        let k = Key::from("k");
        let slot = cache.get_or_load(0, &name, &k, None, 0);
        {
            let mut state = slot.state.lock();
            state.slate.replace(b"7".to_vec());
            cache.note_write(&slot, &mut state, 10);
            assert!(state.dirty(), "interval policy defers the write");
        }
        assert_eq!(cache.dirty_count(), 1);
        assert_eq!(backend.load("U1", &k, 0), None);
        assert_eq!(cache.flush_dirty(20), 1);
        assert_eq!(backend.load("U1", &k, 0), Some(b"7".to_vec()));
        assert_eq!(cache.dirty_count(), 0);
        // Re-flush with no new writes is a no-op.
        assert_eq!(cache.flush_dirty(30), 0);
    }

    #[test]
    fn eviction_flushes_dirty_victims() {
        let backend = Arc::new(MemBackend::default());
        let cache = SlateCache::new(2, FlushPolicy::OnEvict, Arc::clone(&backend) as _);
        let name = updater_name();
        for i in 0..5 {
            let k = Key::from(format!("k{i}"));
            let slot = cache.get_or_load(0, &name, &k, None, i);
            let mut state = slot.state.lock();
            state.slate.replace(format!("v{i}").into_bytes());
            cache.note_write(&slot, &mut state, i);
        }
        cache.retire_evicted(5);
        let s = cache.stats();
        assert!(s.evictions >= 3, "capacity 2 with 5 inserts evicts ≥3: {s:?}");
        assert!(s.flush_writes >= 3, "dirty victims must be persisted");
        // The evicted slates are in the store, reloadable.
        let k0 = Key::from("k0");
        let slot = cache.get_or_load(0, &name, &k0, None, 100);
        assert_eq!(slot.state.lock().slate.bytes(), b"v0");
        assert_eq!(cache.stats().store_loads, 1);
    }

    #[test]
    fn dirty_index_holds_only_dirty_slots_without_a_flusher() {
        // No interval flusher drains the index (an engine with an ingest
        // WAL, or a store-less one): eviction retires and the recovery
        // line's barrier are its only flushes, and each must take the
        // entries of the slots it writes out of the index.
        let backend = Arc::new(MemBackend::default());
        let cache = SlateCache::new(4, FlushPolicy::OnEvict, backend as _);
        for i in 0..1000 {
            write(&cache, &format!("k{i}"), "v", i);
            cache.retire_evicted(i);
        }
        cache.flush_barrier(1000);
        let indexed: usize = cache.shards.iter().map(|shard| shard.dirty.lock().len()).sum();
        let resident: usize = cache.shards.iter().map(|shard| shard.map.lock().len()).sum();
        assert!(resident <= 4, "capacity 4 holds {resident} slots");
        assert!(indexed <= resident, "{indexed} index entries for {resident} resident slots");
        assert_eq!(cache.dirty_count(), 0);
    }

    #[test]
    fn evicted_dirty_slate_survives_a_failed_store_write() {
        // The regression: a dirty slate evicted for capacity whose store
        // write fails used to be dropped from the map — the update was
        // silently lost. It must stay resident (dirty) and reach the
        // store once the backend recovers.
        let backend = Arc::new(FlakyBackend::failing(2));
        let cache = SlateCache::new(1, FlushPolicy::OnEvict, Arc::clone(&backend) as _);
        let name = updater_name();
        let precious = Key::from("precious");
        {
            let slot = cache.get_or_load(0, &name, &precious, None, 0);
            let mut state = slot.state.lock();
            state.slate.replace(b"critical-update".to_vec());
            cache.note_write(&slot, &mut state, 0);
        } // slot Arc dropped: evictable
          // Capacity pressure while the store is down: the eviction flush
          // fails and the victim must be reinserted, not dropped.
        cache.get_or_load(0, &name, &Key::from("intruder-1"), None, 1);
        assert!(backend.failed.load(Ordering::Relaxed) >= 1, "the outage was exercised");
        assert_eq!(
            cache.read(0, &precious),
            Some(b"critical-update".to_vec()),
            "a failed eviction flush must keep the slate resident"
        );
        assert!(cache.stats().flush_failures >= 1);
        assert_eq!(backend.load("U1", &precious, 0), None, "nothing reached the store yet");
        // Burn through the remaining failure, then a flusher sweep
        // succeeds and the value lands in the store.
        let mut swept = 0;
        while backend.load("U1", &precious, 0).is_none() {
            cache.flush_dirty(10 + swept);
            swept += 1;
            assert!(swept < 10, "flush retries never reached the recovered store");
        }
        assert_eq!(backend.load("U1", &precious, 0), Some(b"critical-update".to_vec()));
        assert_eq!(cache.dirty_count(), 0);
    }

    #[test]
    fn capacity_overflow_evicts_only_the_excess() {
        // Regression: victims stay resident until retired, so the
        // selection loop must stop at the capacity excess — one insert
        // over capacity evicts one entry, not the whole cache — and must
        // not count the victims already waiting as excess again.
        let cache = SlateCache::new(4, FlushPolicy::OnEvict, Arc::new(NullBackend));
        let name = updater_name();
        for i in 0..5 {
            cache.get_or_load(0, &name, &Key::from(format!("k{i}")), None, i);
        }
        assert_eq!(cache.evict_backlog(), 1);
        cache.get_or_load(0, &name, &Key::from("k5"), None, 5);
        assert_eq!(cache.evict_backlog(), 2, "the second miss selects one more victim, not two");
        cache.get_or_load(0, &name, &Key::from("k5"), None, 6);
        assert_eq!(cache.evict_backlog(), 2, "a hit selects nothing");
        assert_eq!(cache.retire_evicted(7), 2);
        let s = cache.stats();
        assert_eq!(s.evictions, 2, "exactly the excess is evicted: {s:?}");
        assert_eq!((s.entries, s.evict_backlog), (4, 0));
    }

    #[test]
    fn take_matching_hands_off_and_insert_slot_restores() {
        let cache = SlateCache::new(10, FlushPolicy::OnEvict, Arc::new(NullBackend));
        let name = updater_name();
        for key in ["stay", "move-a", "move-b"] {
            let slot = cache.get_or_load(0, &name, &Key::from(key), None, 0);
            let mut state = slot.state.lock();
            state.slate.replace(format!("v-{key}").into_bytes());
            cache.note_write(&slot, &mut state, 0);
        }
        let moved = cache.take_matching(0, &|k: &Key| k.as_str().unwrap().starts_with("move"));
        assert_eq!(moved.len(), 2);
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.read(0, &Key::from("move-a")), None, "taken slates left the cache");
        assert_eq!(cache.read(0, &Key::from("stay")), Some(b"v-stay".to_vec()));
        // The new owner's cache adopts them with state (and dirtiness)
        // intact.
        let target = SlateCache::new(10, FlushPolicy::OnEvict, Arc::new(NullBackend));
        for (key, slot) in moved {
            assert!(slot.state.lock().dirty(), "handoff preserves dirtiness");
            target.insert_slot(0, key, slot);
        }
        assert_eq!(target.read(0, &Key::from("move-b")), Some(b"v-move-b".to_vec()));
    }

    #[test]
    fn store_loads_resume_counters() {
        // §4.2: restart warms the cache from the store.
        let backend = Arc::new(MemBackend::default());
        backend.store("U1", &Key::from("persisted"), b"42", Codec::Json, None, 0);
        let cache = SlateCache::new(10, FlushPolicy::OnEvict, Arc::clone(&backend) as _);
        let slot = cache.get_or_load(0, &updater_name(), &Key::from("persisted"), None, 0);
        assert_eq!(slot.state.lock().slate.counter(), 42);
        assert_eq!(cache.stats().store_loads, 1);
    }

    #[test]
    fn ttl_resets_idle_cached_slates() {
        let cache = SlateCache::new(10, FlushPolicy::OnEvict, Arc::new(NullBackend));
        let name = updater_name();
        let k = Key::from("idle");
        let slot = cache.get_or_load(0, &name, &k, Some(1), 0);
        {
            let mut state = slot.state.lock();
            state.slate.replace(b"data".to_vec());
            cache.note_write(&slot, &mut state, 0);
        }
        // 0.5s later: still live.
        cache.get_or_load(0, &name, &k, Some(1), 500_000);
        assert!(!slot.state.lock().slate.is_empty());
        // 2s later: reset to empty.
        cache.get_or_load(0, &name, &k, Some(1), 2_000_001);
        assert!(slot.state.lock().slate.is_empty(), "TTL lapse resets the slate (§4.2)");
        assert_eq!(cache.stats().ttl_resets, 1);
    }

    #[test]
    fn read_returns_bytes_without_creating() {
        let cache = SlateCache::new(10, FlushPolicy::OnEvict, Arc::new(NullBackend));
        let name = updater_name();
        assert_eq!(cache.read(0, &Key::from("nope")), None);
        assert_eq!(cache.stats().entries, 0, "read must not allocate slots");
        let slot = cache.get_or_load(0, &name, &Key::from("k"), None, 0);
        assert_eq!(cache.read(0, &Key::from("k")), None, "empty slate reads as None");
        slot.state.lock().slate.replace(b"live".to_vec());
        assert_eq!(cache.read(0, &Key::from("k")), Some(b"live".to_vec()));
    }

    #[test]
    fn distinct_updaters_have_distinct_slots() {
        let cache = SlateCache::new(10, FlushPolicy::OnEvict, Arc::new(NullBackend));
        let k = Key::from("shared-key");
        let a = cache.get_or_load(0, &Arc::from("U1"), &k, None, 0);
        let b = cache.get_or_load(1, &Arc::from("U2"), &k, None, 0);
        assert!(!Arc::ptr_eq(&a, &b), "⟨updater, key⟩ identifies a slate (§3)");
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn keys_of_filters_by_updater() {
        let cache = SlateCache::new(10, FlushPolicy::OnEvict, Arc::new(NullBackend));
        cache.get_or_load(0, &Arc::from("U1"), &Key::from("a"), None, 0);
        cache.get_or_load(0, &Arc::from("U1"), &Key::from("b"), None, 0);
        cache.get_or_load(1, &Arc::from("U2"), &Key::from("c"), None, 0);
        let mut keys = cache.keys_of(0);
        keys.sort();
        assert_eq!(keys, vec![Key::from("a"), Key::from("b")]);
    }

    #[test]
    fn sharded_capacity_is_pinned_to_the_total() {
        // The budget must not inflate when split: shard capacities sum to
        // exactly the configured total, regardless of divisibility.
        for (capacity, shards) in [(100usize, 8usize), (10, 8), (7, 4), (1, 4), (100_000, 16)] {
            let cache = SlateCache::with_shards(
                capacity,
                FlushPolicy::OnEvict,
                Arc::new(NullBackend),
                shards,
            );
            let n = shards.next_power_of_two();
            assert_eq!(cache.stats().shards, n as u64);
            assert_eq!(cache.capacity(), capacity.max(n), "capacity pinned ({capacity}/{shards})");
        }
    }

    #[test]
    fn sharded_cache_spreads_entries_and_counts_hits_per_shard() {
        let cache = SlateCache::with_shards(10_000, FlushPolicy::OnEvict, Arc::new(NullBackend), 8);
        let name = updater_name();
        for i in 0..512 {
            let k = Key::from(format!("key-{i}"));
            cache.get_or_load(0, &name, &k, None, 0);
            cache.get_or_load(0, &name, &k, None, 1); // one hit each
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 512);
        assert_eq!(stats.hits, 512);
        assert_eq!(stats.misses, 512);
        assert_eq!(stats.shards, 8);
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), 8);
        assert_eq!(per_shard.iter().map(|s| s.entries).sum::<u64>(), 512);
        assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), 512);
        let occupied = per_shard.iter().filter(|s| s.entries > 0).count();
        assert!(occupied >= 6, "fx64 spreads 512 keys over most of 8 shards: {per_shard:?}");
    }

    #[test]
    fn sharded_eviction_respects_per_shard_slices() {
        // 8 slates of budget over 4 shards (2 each): flooding one updater
        // with many keys evicts down to the per-shard slices without the
        // total ever exceeding the budget.
        let backend = Arc::new(MemBackend::default());
        let cache = SlateCache::with_shards(8, FlushPolicy::OnEvict, Arc::clone(&backend) as _, 4);
        let name = updater_name();
        for i in 0..64 {
            let k = Key::from(format!("k{i}"));
            let slot = cache.get_or_load(0, &name, &k, None, i);
            let mut state = slot.state.lock();
            state.slate.replace(format!("v{i}").into_bytes());
            cache.note_write(&slot, &mut state, i);
            drop(state);
            assert!(cache.stats().entries <= 8 + 8, "budget + backlog bound, at all times");
        }
        cache.retire_evicted(64);
        let stats = cache.stats();
        assert!(stats.entries <= 8, "entries bounded by the total budget: {stats:?}");
        assert!(stats.evictions >= 56, "the excess was evicted: {stats:?}");
        assert_eq!(stats.flush_writes, stats.evictions, "every dirty victim was persisted");
        // Everything evicted is reloadable from the store.
        let slot = cache.get_or_load(0, &name, &Key::from("k0"), None, 100);
        assert_eq!(slot.state.lock().slate.bytes(), b"v0");
    }

    #[test]
    fn sharded_dirty_victim_survives_failed_flush() {
        // The PR 3 regression, per shard: an evicted dirty slate whose
        // store write fails stays resident in ITS shard and retries.
        let backend = Arc::new(FlakyBackend::failing(64));
        let cache = SlateCache::with_shards(4, FlushPolicy::OnEvict, Arc::clone(&backend) as _, 4);
        let name = updater_name();
        let mut written = Vec::new();
        for i in 0..32 {
            let k = Key::from(format!("precious-{i}"));
            let slot = cache.get_or_load(0, &name, &k, None, i);
            let mut state = slot.state.lock();
            state.slate.replace(format!("critical-{i}").into_bytes());
            cache.note_write(&slot, &mut state, i);
            written.push(k);
        }
        assert!(backend.failed.load(Ordering::Relaxed) >= 1, "the outage was exercised");
        // Store is down: nothing may have been dropped — every update is
        // either still cached (dirty) or already persisted.
        for (i, k) in written.iter().enumerate() {
            let expect = format!("critical-{i}").into_bytes();
            let live = cache.read(0, k);
            let stored = backend.load("U1", k, 0);
            assert!(
                live.as_deref() == Some(expect.as_slice())
                    || stored.as_deref() == Some(expect.as_slice()),
                "update {i} lost under store outage (live={live:?} stored={stored:?})"
            );
        }
        assert!(cache.stats().flush_failures >= 1);
        // Recovery: sweeps drain every retained dirty slate to the store.
        let mut swept = 0;
        while cache.dirty_count() > 0 {
            cache.flush_dirty(1000 + swept);
            swept += 1;
            assert!(swept < 100, "flush retries never drained the dirty set");
        }
        for (i, k) in written.iter().enumerate() {
            let expect = format!("critical-{i}").into_bytes();
            let in_cache = cache.read(0, k);
            let in_store = backend.load("U1", k, 0);
            assert!(
                in_store.as_deref() == Some(expect.as_slice())
                    || in_cache.as_deref() == Some(expect.as_slice()),
                "update {i} missing after recovery"
            );
        }
    }

    #[test]
    fn mid_flight_mutation_is_never_blocked_and_never_lost() {
        // The write-behind regression pair: (1) a worker mutating a slate
        // whose snapshot is mid-flight to the backend must not wait for
        // the (blocking) store write; (2) the flush's compare-and-set on
        // flushed_version must only advance to the version it actually
        // wrote — the mid-flight mutation stays dirty and reaches the
        // store on the next sweep, never silently "already flushed".
        let (backend, entered, release) = SlowBackend::gated();
        let cache =
            Arc::new(SlateCache::new(10, FlushPolicy::IntervalMs(1), Arc::clone(&backend) as _));
        let name = updater_name();
        let k = Key::from("contended");
        let slot = cache.get_or_load(0, &name, &k, None, 0);
        {
            let mut state = slot.state.lock();
            state.slate.replace(b"v1".to_vec());
            cache.note_write(&slot, &mut state, 0);
        }
        // Start the flush; it parks inside the backend store with the
        // v1 snapshot taken and NO state lock held.
        let flusher = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || cache.flush_dirty(10))
        };
        entered.recv_timeout(std::time::Duration::from_secs(5)).expect("flush reached the store");
        // The worker mutates the slate NOW, while the store write is in
        // flight. If the flush held the state lock across the write this
        // would deadlock (the release below comes after), so completing
        // within the timeout is the no-blocking proof.
        let mutated = {
            let cache = Arc::clone(&cache);
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || {
                let mut state = slot.state.lock();
                state.slate.replace(b"v2".to_vec());
                cache.note_write(&slot, &mut state, 11);
            })
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = mutated.join();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("a worker must never block on an in-flight flush of its slate");
        // Let the store write (of the v1 snapshot) complete.
        release.send(()).unwrap();
        assert_eq!(flusher.join().unwrap(), 1, "the v1 snapshot was written");
        assert_eq!(backend.inner.load("U1", &k, 0), Some(b"v1".to_vec()));
        // The CAS advanced flushed_version only to v1: the newer v2 is
        // still dirty and the next sweep persists it.
        assert!(slot.state.lock().dirty(), "the mid-flight mutation must stay dirty");
        assert_eq!(cache.dirty_count(), 1);
        release.send(()).unwrap(); // pre-release the second store
        assert_eq!(cache.flush_dirty(20), 1);
        assert_eq!(backend.inner.load("U1", &k, 0), Some(b"v2".to_vec()));
        assert!(!slot.state.lock().dirty());
    }

    #[test]
    fn a_read_never_waits_on_a_write_through_in_flight() {
        // Write-through runs the flush core after the update drops the
        // slot lock, so a live read of the slate the store is still
        // writing answers at once instead of queueing behind the write.
        let (backend, entered, release) = SlowBackend::gated();
        let cache =
            Arc::new(SlateCache::new(10, FlushPolicy::WriteThrough, Arc::clone(&backend) as _));
        let k = Key::from("k");
        let slot = cache.get_or_load(0, &updater_name(), &k, None, 0);
        let writer = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                write(&cache, "k", "1", 1);
                cache.write_through(&slot, 1);
            })
        };
        entered.recv_timeout(std::time::Duration::from_secs(5)).expect("the write is parked");
        let (read_tx, read_rx) = std::sync::mpsc::channel();
        let reader = {
            let (cache, k) = (Arc::clone(&cache), k.clone());
            std::thread::spawn(move || read_tx.send(cache.read(0, &k)))
        };
        let read = read_rx.recv_timeout(std::time::Duration::from_secs(2));
        release.send(()).unwrap();
        writer.join().unwrap();
        let _ = reader.join();
        assert_eq!(read.expect("a read must not wait on the store write"), Some(b"1".to_vec()));
        assert_eq!(backend.inner.load("U1", &k, 2), Some(b"1".to_vec()));
        assert_eq!(cache.dirty_count(), 0);
    }

    #[test]
    fn a_write_through_landing_mid_flight_is_written_before_it_returns() {
        // Two workers on one hot slot: B's write lands while A's
        // write-through of the older snapshot is parked in the store. B's
        // write-through must wait A out and write its own version — A's
        // compare-and-set leaves v2 dirty, and no sweep runs under
        // write-through to pick it up.
        let (backend, entered, release) = SlowBackend::gated();
        let cache =
            Arc::new(SlateCache::new(10, FlushPolicy::WriteThrough, Arc::clone(&backend) as _));
        let k = Key::from("k");
        let slot = cache.get_or_load(0, &updater_name(), &k, None, 0);
        let worker = |value: &'static str, now: u64| {
            let (cache, slot) = (Arc::clone(&cache), Arc::clone(&slot));
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let handle = std::thread::spawn(move || {
                write(&cache, "k", value, now);
                cache.write_through(&slot, now);
                let _ = done_tx.send(());
            });
            (handle, done_rx)
        };
        let (a, _) = worker("1", 1);
        entered.recv_timeout(std::time::Duration::from_secs(5)).expect("A's write is parked");
        let (b, b_done) = worker("2", 2);
        let b_returned_early = b_done.recv_timeout(std::time::Duration::from_millis(200)).is_ok();
        release.send(()).unwrap(); // A's store
        release.send(()).unwrap(); // B's store
        a.join().unwrap();
        b.join().unwrap();
        assert!(!b_returned_early, "B returned while A's write was still in flight");
        assert_eq!(backend.inner.load("U1", &k, 3), Some(b"2".to_vec()));
        assert!(!slot.state.lock().dirty());
    }

    #[test]
    fn evicted_mid_flight_snapshot_does_not_lose_the_newer_version() {
        // The satellite regression, eviction flavor: a dirty slate being
        // flushed for eviction while a borrower mutates it must stay
        // resident and dirty (the eviction removal re-checks dirtiness
        // under the map lock after the CAS).
        let (backend, entered, release) = SlowBackend::gated();
        let cache = Arc::new(SlateCache::new(1, FlushPolicy::OnEvict, Arc::clone(&backend) as _));
        let name = updater_name();
        let precious = Key::from("precious");
        {
            let slot = cache.get_or_load(0, &name, &precious, None, 0);
            let mut state = slot.state.lock();
            state.slate.replace(b"old".to_vec());
            cache.note_write(&slot, &mut state, 0);
        } // dropped: evictable
        let evictor = {
            let cache = Arc::clone(&cache);
            let name = Arc::clone(&name);
            std::thread::spawn(move || {
                // Capacity pressure: the eviction flush of `precious`
                // parks in the backend.
                cache.get_or_load(0, &name, &Key::from("intruder"), None, 1);
            })
        };
        entered.recv_timeout(std::time::Duration::from_secs(5)).expect("eviction flush started");
        // Mutate the slate while its old snapshot is on the wire.
        let slot = cache.get_or_load(0, &name, &precious, None, 2);
        {
            let mut state = slot.state.lock();
            state.slate.replace(b"newer".to_vec());
            cache.note_write(&slot, &mut state, 2);
        }
        drop(slot);
        release.send(()).unwrap();
        evictor.join().unwrap();
        // The newer version must still be visible (resident) — the CAS
        // only covered the old snapshot, so the slot stayed dirty and the
        // eviction removal declined to drop it.
        assert_eq!(
            cache.read(0, &precious),
            Some(b"newer".to_vec()),
            "a mid-flight mutation must survive the eviction flush"
        );
        release.send(()).unwrap(); // allow the retry sweep's store
        cache.flush_dirty(10);
        assert_eq!(backend.inner.load("U1", &precious, 0), Some(b"newer".to_vec()));
    }

    #[test]
    fn concurrent_flushes_of_one_slot_serialize() {
        // The write-ordering hazard: the store resolves same-key writes by
        // arrival order, so two concurrent in-flight snapshots of one slot
        // (eviction flush + sweep, or two sweeps) could land newest-first
        // and leave the stale bytes durable while the CAS marks the slot
        // clean. The `flushing` flag must make the second flush *skip* the
        // slot (keeping it dirty) instead of issuing a reorderable write.
        let (backend, entered, release) = SlowBackend::gated();
        let cache =
            Arc::new(SlateCache::new(10, FlushPolicy::IntervalMs(1), Arc::clone(&backend) as _));
        let name = updater_name();
        let k = Key::from("ordered");
        let slot = cache.get_or_load(0, &name, &k, None, 0);
        {
            let mut state = slot.state.lock();
            state.slate.replace(b"v1".to_vec());
            cache.note_write(&slot, &mut state, 0);
        }
        let sweep = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || cache.flush_dirty(10))
        };
        entered.recv_timeout(std::time::Duration::from_secs(5)).expect("first flush in flight");
        // Mutate to v2 while the v1 snapshot is parked in the backend,
        // then run a second sweep: it must NOT issue a concurrent store
        // write of this slot (the gated backend would show a second
        // `entered` signal — and the test would deadlock on join).
        {
            let mut state = slot.state.lock();
            state.slate.replace(b"v2".to_vec());
            cache.note_write(&slot, &mut state, 11);
        }
        assert_eq!(cache.flush_dirty(12), 0, "the in-flight slot is skipped, not double-written");
        assert!(
            entered.try_recv().is_err(),
            "no second store write may start while one is in flight"
        );
        release.send(()).unwrap();
        assert_eq!(sweep.join().unwrap(), 1);
        assert_eq!(backend.inner.load("U1", &k, 0), Some(b"v1".to_vec()));
        assert!(slot.state.lock().dirty(), "v2 is still dirty");
        // The skipped slot was re-registered: the next sweep writes v2 and
        // the store converges on the newest version.
        release.send(()).unwrap();
        assert_eq!(cache.flush_dirty(20), 1);
        assert_eq!(backend.inner.load("U1", &k, 0), Some(b"v2".to_vec()));
        assert!(!slot.state.lock().dirty());
        assert_eq!(cache.dirty_count(), 0);
    }

    /// Write `value` into `cache`'s slate of `key`, leaving it dirty.
    fn dirty(cache: &SlateCache, key: &str, value: &[u8]) {
        let slot = cache.get_or_load(0, &updater_name(), &Key::from(key), None, 0);
        let mut state = slot.state.lock();
        state.slate.replace(value.to_vec());
        cache.note_write(&slot, &mut state, 0);
    }

    #[test]
    fn a_barrier_waits_out_a_write_another_flush_holds() {
        // A sweep has drained the slot from the dirty index and parked its
        // write in the backend: the barrier finds the slot anyway and
        // returns only once that write has landed.
        let (backend, entered, release) = SlowBackend::gated();
        let cache =
            Arc::new(SlateCache::new(10, FlushPolicy::IntervalMs(1), Arc::clone(&backend) as _));
        dirty(&cache, "held", b"v1");
        let spawn = |f: fn(&SlateCache) -> u64| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || f(&cache))
        };
        let sweep = spawn(|cache| cache.flush_dirty(10));
        entered.recv_timeout(Duration::from_secs(5)).expect("the sweep's write in flight");
        let barrier = spawn(|cache| cache.flush_barrier(11));
        std::thread::sleep(Duration::from_millis(50));
        assert!(!barrier.is_finished(), "the barrier returned with a write in flight");
        release.send(()).unwrap();
        assert_eq!(sweep.join().unwrap(), 1);
        assert_eq!(barrier.join().unwrap(), 0, "nothing the barrier found was refused");
        assert_eq!(backend.inner.load("U1", &Key::from("held"), 0), Some(b"v1".to_vec()));
    }

    #[test]
    fn a_barrier_counts_the_writes_refused() {
        let backend = Arc::new(FlakyBackend::failing(1));
        let cache = SlateCache::new(10, FlushPolicy::OnEvict, Arc::clone(&backend) as _);
        dirty(&cache, "a", b"1");
        dirty(&cache, "b", b"2");
        assert_eq!(cache.flush_barrier(1), 1, "one of two writes refused");
        assert_eq!(cache.dirty_count(), 1);
        assert_eq!(cache.flush_barrier(2), 0);
        assert_eq!(cache.dirty_count(), 0);
    }

    #[test]
    fn dirty_count_locks_no_slate() {
        // A scrape must not stall behind an updater that is mid-update:
        // with one dirty slot's state lock held, the count still returns.
        let cache = Arc::new(SlateCache::new(10, FlushPolicy::OnEvict, Arc::new(NullBackend)));
        dirty(&cache, "held", b"v1");
        let slot = get(&cache, &Key::from("held"));
        let _mid_update = slot.state.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        let counter = Arc::clone(&cache);
        std::thread::spawn(move || tx.send(counter.dirty_count()));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(1), "dirty_count waited on a slate");
    }

    /// Each cache's dirty count next to the resident slots whose state is
    /// dirty, counted through its shard maps.
    fn dirty_count_and_resident_dirty(cache: &SlateCache) -> (u64, u64) {
        let resident: Vec<Arc<SlateSlot>> = cache
            .shards
            .iter()
            .flat_map(|shard| -> Vec<_> {
                shard.map.lock().iter().map(|(_, s)| Arc::clone(s)).collect()
            })
            .collect();
        let dirty = resident.iter().filter(|slot| slot.state.lock().dirty()).count() as u64;
        (cache.dirty_count(), dirty)
    }

    #[test]
    fn the_dirty_index_is_the_dirty_set_after_every_step() {
        // Seeded random operations over two caches that hand keys to each
        // other (each key lives in one of them, as a membership change
        // moves it), writing to a backend that refuses a batch now and
        // then. After every step each cache's dirty count equals its
        // resident dirty slots.
        const KEYS: u64 = 24;
        for seed in 0..200u64 {
            let backend = Arc::new(RecBackend::default());
            let caches = [
                SlateCache::with_shards(8, FlushPolicy::OnEvict, Arc::clone(&backend) as _, 2)
                    .with_flush_batch(4),
                SlateCache::with_shards(
                    6,
                    FlushPolicy::IntervalMs(5),
                    Arc::clone(&backend) as _,
                    4,
                )
                .with_flush_batch(3),
            ];
            let mut owner = [0usize; KEYS as usize];
            for step in 0..200u64 {
                let r = muppet_core::hash::mix64(seed << 32 | step);
                let (k, c) = ((r >> 8) % KEYS, (r >> 16) as usize % 2);
                let key = format!("k{k}");
                match r % 10 {
                    0..=4 => write(&caches[owner[k as usize]], &key, &step.to_string(), step),
                    5 => _ = caches[c].flush_dirty(step),
                    6 => _ = caches[c].flush_barrier(step),
                    7 => _ = caches[c].retire_evicted(step),
                    8 => {
                        let (from, to) = (owner[k as usize], 1 - owner[k as usize]);
                        let moved = caches[from]
                            .take_matching(0, &|x: &Key| x.as_bytes() == key.as_bytes());
                        for (key, slot) in moved {
                            caches[to].insert_slot(0, key, slot);
                        }
                        owner[k as usize] = to;
                    }
                    _ => backend.refuse_batches.store(1, Ordering::Release),
                }
                for (i, cache) in caches.iter().enumerate() {
                    let (count, dirty) = dirty_count_and_resident_dirty(cache);
                    assert_eq!(count, dirty, "seed {seed} step {step} cache {i}");
                }
            }
            backend.refuse_batches.store(0, Ordering::Release);
            for cache in &caches {
                assert_eq!(cache.flush_barrier(1_000), 0);
                assert_eq!(dirty_count_and_resident_dirty(cache), (0, 0), "seed {seed}");
            }
        }
    }

    #[test]
    fn concurrent_misses_share_one_backend_load() {
        // Single-flight read-through: 8 threads missing on the same
        // ⟨op, key⟩ must issue ONE backend load between them.
        let (backend, _entered, _release) = SlowBackend::gated();
        backend.inner.store("U1", &Key::from("hot"), b"77", Codec::Json, None, 0);
        let cache = Arc::new(SlateCache::with_shards(
            100,
            FlushPolicy::OnEvict,
            Arc::clone(&backend) as _,
            4,
        ));
        let name = updater_name();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let name = Arc::clone(&name);
                std::thread::spawn(move || cache.get_or_load(0, &name, &Key::from("hot"), None, 1))
            })
            .collect();
        let slots: Vec<Arc<SlateSlot>> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert!(slots.iter().all(|s| Arc::ptr_eq(s, &slots[0])), "one shared slot");
        assert_eq!(slots[0].state.lock().slate.counter(), 77, "the loaded value is shared");
        assert_eq!(backend.loads.load(Ordering::SeqCst), 1, "one load, not a stampede");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "one leader miss");
        assert_eq!(stats.miss_coalesced, 7, "seven waiters coalesced");
        assert_eq!(stats.store_loads, 1);
        // Distinct keys still load independently.
        cache.get_or_load(0, &name, &Key::from("cold"), None, 2);
        assert_eq!(backend.loads.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn flush_sweep_batches_and_visits_only_dirty_slots() {
        let backend = Arc::new(MemBackend::default());
        let cache = SlateCache::with_shards(
            10_000,
            FlushPolicy::IntervalMs(100),
            Arc::clone(&backend) as _,
            8,
        )
        .with_flush_batch(32);
        let name = updater_name();
        // 500 clean residents + 100 dirty.
        for i in 0..500 {
            cache.get_or_load(0, &name, &Key::from(format!("clean-{i}")), None, 0);
        }
        for i in 0..100 {
            let slot = cache.get_or_load(0, &name, &Key::from(format!("dirty-{i}")), None, 1);
            let mut state = slot.state.lock();
            state.slate.replace(format!("v{i}").into_bytes());
            cache.note_write(&slot, &mut state, 1);
        }
        let trips_before = cache.stats().store_round_trips;
        let stores_before = backend.stores.load(Ordering::Relaxed);
        assert_eq!(cache.flush_dirty(10), 100);
        let stats = cache.stats();
        assert_eq!(
            backend.stores.load(Ordering::Relaxed) - stores_before,
            100,
            "exactly the dirty slots were written — the sweep never touches clean residents"
        );
        let trips = stats.store_round_trips - trips_before;
        assert_eq!(trips, 100_u64.div_ceil(32), "⌈100/32⌉ batched backend calls, not 100");
        assert_eq!(stats.flush_batches, 4);
        assert!(stats.flush_batch_largest >= 32, "full batches were assembled: {stats:?}");
        // A second sweep with nothing dirty issues zero backend calls.
        assert_eq!(cache.flush_dirty(20), 0);
        assert_eq!(cache.stats().store_round_trips, stats.store_round_trips);
        // Everything is reloadable bit-for-bit.
        for i in 0..100 {
            assert_eq!(
                backend.load("U1", &Key::from(format!("dirty-{i}")), 0),
                Some(format!("v{i}").into_bytes())
            );
        }
    }

    #[test]
    fn soft_byte_cap_splits_batches_without_stranding_slots() {
        // The regression: closing a batch early on FLUSH_BATCH_SOFT_BYTES
        // used to leak `flushing = true` on the slot whose snapshot
        // tripped the cap — every later sweep skipped it forever. Two
        // slates big enough that they cannot share a batch must flush in
        // one sweep as two batches, and nothing may stay dirty.
        let backend = Arc::new(MemBackend::default());
        let cache = SlateCache::new(10, FlushPolicy::IntervalMs(100), Arc::clone(&backend) as _);
        let name = updater_name();
        let big = FLUSH_BATCH_SOFT_BYTES / 2 + 1024;
        for key in ["jumbo-a", "jumbo-b"] {
            let slot = cache.get_or_load(0, &name, &Key::from(key), None, 0);
            let mut state = slot.state.lock();
            state.slate.replace(vec![key.as_bytes()[6]; big]);
            cache.note_write(&slot, &mut state, 0);
        }
        assert_eq!(cache.flush_dirty(1), 2, "both jumbo slates flush in ONE sweep");
        assert_eq!(cache.dirty_count(), 0, "no slot may be stranded flushing");
        let stats = cache.stats();
        assert_eq!(stats.flush_batches, 2, "the byte cap split the sweep into two batches");
        assert_eq!(backend.load("U1", &Key::from("jumbo-a"), 0).map(|v| v.len()), Some(big));
        assert_eq!(backend.load("U1", &Key::from("jumbo-b"), 0).map(|v| v.len()), Some(big));
        // And the slots remain flushable afterwards (the handoff barrier
        // must not spin).
        let slot = cache.get_or_load(0, &name, &Key::from("jumbo-a"), None, 2);
        slot.state.lock().slate.replace(b"small-again".to_vec());
        assert!(cache.flush_slot_now(&slot, 3), "the slot is still flushable");
    }

    #[test]
    fn batched_flush_equals_per_slate_flush_in_the_store() {
        // Equivalence: the same dirty set flushed with batch cap 1 (the
        // per-slate write-behind path) and with a large cap must leave
        // bit-identical backend contents.
        let run = |batch: usize| -> std::collections::HashMap<(String, Key), Vec<u8>> {
            let backend = Arc::new(MemBackend::default());
            let cache = SlateCache::with_shards(
                1000,
                FlushPolicy::IntervalMs(5),
                Arc::clone(&backend) as _,
                4,
            )
            .with_flush_batch(batch);
            let name = updater_name();
            for i in 0..64 {
                let slot = cache.get_or_load(0, &name, &Key::from(format!("k{i}")), None, 0);
                let mut state = slot.state.lock();
                state.slate.replace(format!("payload-{i}-{}", "x".repeat(i)).into_bytes());
                cache.note_write(&slot, &mut state, 0);
            }
            cache.flush_dirty(1);
            assert_eq!(cache.stats().flush_batches, 64_u64.div_ceil(batch as u64), "cap {batch}");
            let contents = backend.data.read().clone();
            contents
        };
        let per_slate = run(1);
        let batched = run(256);
        assert_eq!(per_slate.len(), 64);
        assert_eq!(per_slate, batched, "batched flush must be bit-identical to per-slate flush");
    }

    #[test]
    fn borrowed_slots_survive_eviction_pressure() {
        let cache = SlateCache::new(1, FlushPolicy::OnEvict, Arc::new(NullBackend));
        let name = updater_name();
        let hot = cache.get_or_load(0, &name, &Key::from("hot"), None, 0);
        hot.state.lock().slate.replace(b"precious".to_vec());
        // Insert more entries while `hot` is still borrowed (we hold an Arc).
        for i in 0..5 {
            cache.get_or_load(0, &name, &Key::from(format!("cold{i}")), None, i);
        }
        cache.retire_evicted(5);
        // The borrowed slot is still reachable and intact.
        let again = cache.get_or_load(0, &name, &Key::from("hot"), None, 100);
        assert_eq!(again.state.lock().slate.bytes(), b"precious");
    }
    /// A full cache of `n` dirty slates `r0..`, over a recording backend.
    fn full_dirty_cache(n: usize, flush_batch: usize) -> (Arc<RecBackend>, SlateCache) {
        let backend = Arc::new(RecBackend::default());
        let cache = SlateCache::new(n, FlushPolicy::OnEvict, Arc::clone(&backend) as _)
            .with_flush_batch(flush_batch);
        (0..n).for_each(|i| write(&cache, &format!("r{i}"), &format!("v{i}"), i as u64));
        (backend, cache)
    }

    #[test]
    fn a_miss_on_a_full_dirty_cache_writes_nothing() {
        let (backend, cache) = full_dirty_cache(4, 256);
        let slot = cache.get_or_load(0, &updater_name(), &Key::from("cold"), None, 9);
        assert!(slot.state.lock().slate.is_empty());
        assert!(backend.batches.lock().is_empty(), "the victim's write is deferred");
        let s = cache.stats();
        assert_eq!((s.entries, s.evict_backlog, s.evictions), (5, 1, 0));
    }

    #[test]
    fn one_retire_writes_the_whole_backlog_in_one_batch() {
        let (backend, cache) = full_dirty_cache(128, 256);
        (0..64).for_each(|i| write(&cache, &format!("cold{i}"), "c", 200 + i));
        assert_eq!(cache.evict_backlog(), 64);
        assert_eq!(cache.retire_evicted(300), 64);
        assert_eq!(*backend.batches.lock(), vec![64], "ONE store_many of 64 slates");
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions, s.evict_backlog), (128, 64, 0));
        assert_eq!((s.flush_batches, s.flush_batch_largest), (1, 64));
        // The LRU half left, with its bytes in the store.
        assert_eq!(cache.read(0, &Key::from("r0")), None);
        assert_eq!(backend.load("U1", &Key::from("r63"), 0), Some(b"v63".to_vec()));
        assert_eq!(cache.read(0, &Key::from("r64")), Some(b"v64".to_vec()));
    }

    #[test]
    fn a_victim_mutated_while_its_snapshot_is_in_flight_stays_resident() {
        // The victim waits in the backlog; the retire parks in the store
        // with the OLD snapshot; a borrower mutates the slate meanwhile.
        // The store gets at most the old version, the slot stays resident
        // and dirty, and the next sweep persists the newer version.
        let (backend, entered, release) = SlowBackend::gated();
        let cache = Arc::new(SlateCache::new(2, FlushPolicy::OnEvict, Arc::clone(&backend) as _));
        let precious = Key::from("precious");
        write(&cache, "precious", "old", 0);
        write(&cache, "other", "x", 1);
        cache.get_or_load(0, &updater_name(), &Key::from("intruder"), None, 2);
        assert_eq!(cache.evict_backlog(), 1, "selected, not yet written");
        assert!(entered.try_recv().is_err(), "the miss issued no store write");
        let retire = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || cache.retire_evicted(3))
        };
        entered.recv_timeout(std::time::Duration::from_secs(5)).expect("retire reached the store");
        write(&cache, "precious", "newer", 4); // a cache hit on the waiting victim
        release.send(()).unwrap();
        assert_eq!(retire.join().unwrap(), 0, "a re-dirtied victim is not evicted");
        assert_eq!(cache.read(0, &precious), Some(b"newer".to_vec()));
        assert_eq!(backend.inner.load("U1", &precious, 0), Some(b"old".to_vec()));
        assert_eq!(cache.evict_backlog(), 0, "it stays cached as an ordinary resident");
        release.send(()).unwrap();
        release.send(()).unwrap();
        cache.flush_dirty(10);
        assert_eq!(backend.inner.load("U1", &precious, 0), Some(b"newer".to_vec()));
    }

    #[test]
    fn a_refused_batch_keeps_every_victim_for_the_next_retire() {
        let (backend, cache) = full_dirty_cache(8, 256);
        (0..3).for_each(|i| write(&cache, &format!("cold{i}"), "c", 20 + i));
        backend.refuse_batches.store(1, Ordering::Release);
        assert_eq!(cache.retire_evicted(30), 0);
        let s = cache.stats();
        assert_eq!((s.entries, s.dirty, s.evict_backlog, s.flush_failures), (11, 11, 3, 3));
        for i in 0..3 {
            let key = Key::from(format!("r{i}"));
            assert_eq!(backend.load("U1", &key, 0), None, "nothing reached the store");
            let slot = cache.get_or_load(0, &updater_name(), &key, None, 31);
            let state = slot.state.lock();
            assert!(state.dirty() && state.indexed && !state.flushing, "{key:?} is retryable");
        }
        // The store recovers: the next retire writes and evicts them.
        assert_eq!(cache.retire_evicted(40), 3);
        assert_eq!(*backend.batches.lock(), vec![3, 3]);
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions, s.evict_backlog), (8, 3, 0));
        assert_eq!(backend.load("U1", &Key::from("r2"), 0), Some(b"v2".to_vec()));
    }

    #[test]
    fn unretired_backlog_is_bounded_and_retires_inline_in_batches() {
        // Nobody calls retire_evicted: residency still never exceeds
        // capacity + min(flush_batch_max, capacity), and the write-backs
        // the bound forces are full batches, never single slates.
        let backend = Arc::new(RecBackend::default());
        let cache = SlateCache::with_shards(64, FlushPolicy::OnEvict, Arc::clone(&backend) as _, 4)
            .with_flush_batch(16);
        for i in 0..10_000u64 {
            write(&cache, &format!("k{i}"), "v", i);
            let resident: u64 = cache.shard_stats().iter().map(|s| s.entries).sum();
            assert!(resident <= 64 + 16, "{resident} resident after {i} keys");
        }
        let batches = backend.batches.lock();
        assert!(batches.len() > 500 && batches.iter().all(|&n| n == 16), "{:?}", &batches[..4]);
    }

    #[test]
    fn take_matching_purges_the_backlog() {
        let (backend, cache) = full_dirty_cache(4, 256);
        write(&cache, "cold", "c", 9);
        assert_eq!(cache.evict_backlog(), 1, "r0 waits for eviction");
        let taken = cache.take_matching(0, &|k: &Key| k.as_bytes() == b"r0");
        assert_eq!(taken.len(), 1, "a waiting victim is still resident, so it is handed off");
        assert_eq!(cache.evict_backlog(), 0);
        assert_eq!(cache.retire_evicted(10), 0);
        assert_eq!(cache.flush_dirty(11), 4);
        assert_eq!(backend.load("U1", &Key::from("r0"), 0), None, "no write for the moved key");
        assert_eq!(cache.stats().entries, 4);
    }
    #[test]
    fn prefetch_loads_a_run_of_misses_in_one_round_trip() {
        let backend = Arc::new(RecBackend::default());
        for i in 0..8 {
            let key = Key::from(format!("p{i}"));
            backend.inner.store("U1", &key, format!("{i}").as_bytes(), Codec::Json, None, 0);
        }
        let cache = SlateCache::with_shards(64, FlushPolicy::OnEvict, Arc::clone(&backend) as _, 4);
        let name = updater_name();
        cache.get_or_load(0, &name, &Key::from("p0"), None, 0); // resident already
        let wanted: Vec<_> = (0..10)
            .chain(5..10) // duplicates; p8 and p9 are not in the store
            .map(|i| Key::from(format!("p{i}")))
            .collect();
        let wanted: Vec<_> = wanted.iter().map(|k| (0, &name, k, None)).collect();
        cache.prefetch(&wanted, 1);
        assert_eq!(
            *backend.load_batches.lock(),
            vec![1, 9],
            "p0's own miss, then ONE load_many of the nine cold keys"
        );
        let s = cache.stats();
        assert_eq!((s.misses, s.store_loads, s.entries, s.store_round_trips), (10, 8, 10, 2));
        // What follows is hits on the loaded values; no flight is stranded.
        for i in 0..10 {
            let slot = cache.get_or_load(0, &name, &Key::from(format!("p{i}")), None, 2);
            assert_eq!(slot.state.lock().slate.counter(), if i < 8 { i } else { 0 });
        }
        assert_eq!(cache.stats().hits, 10);
        cache.prefetch(&wanted, 3);
        assert_eq!(backend.load_batches.lock().len(), 2, "nothing left to fetch");
    }

    #[test]
    fn prefetch_stops_at_the_backlog_bound_and_queues_its_victims() {
        let (backend, cache) = full_dirty_cache(8, 256);
        let (name, keys) = (updater_name(), (0..20).map(|i| Key::from(format!("cold{i}"))));
        let keys: Vec<Key> = keys.collect();
        let wanted: Vec<_> = keys.iter().map(|k| (0, &name, k, None)).collect();
        let filled = backend.load_batches.lock().len();
        cache.prefetch(&wanted, 9);
        assert_eq!(
            backend.load_batches.lock()[filled..],
            [8],
            "a tiny cache must not evict its own head"
        );
        // Eight installs over a full cache: eight victims, retired inline
        // at the bound — as one batch.
        assert_eq!(*backend.batches.lock(), vec![8]);
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions, s.evict_backlog), (8, 8, 0));
        assert!(cache.read(0, &Key::from("r0")).is_none());
    }

    #[test]
    fn a_counter_slate_flushes_its_decimal_text_tagged_json() {
        // A counter kept as a number stores what its text always stored:
        // the decimal digits, tagged JSON, under either store codec.
        #[derive(Default)]
        struct Tagged(Mutex<Vec<(Vec<u8>, Codec)>>);
        impl SlateBackend for Tagged {
            fn load_many(&self, items: &[(Arc<str>, Key)], _: u64) -> Vec<Option<Vec<u8>>> {
                vec![Some(b" 41 ".to_vec()); items.len()]
            }
            fn store_many(&self, items: &[FlushItem], _: u64) -> Vec<bool> {
                self.0.lock().extend(items.iter().map(|i| (i.bytes.to_vec(), i.codec)));
                vec![true; items.len()]
            }
        }
        for store_codec in [Codec::Json, Codec::Mbf] {
            let backend = Arc::new(Tagged::default());
            let cache =
                SlateCache::new(10, FlushPolicy::IntervalMs(100), Arc::clone(&backend) as _)
                    .with_store_codec(store_codec);
            let slot = cache.get_or_load(0, &updater_name(), &Key::from("Best Buy"), None, 0);
            {
                let mut state = slot.state.lock();
                assert_eq!(state.slate.incr_counter(1), 42);
                cache.note_write(&slot, &mut state, 10);
            }
            assert_eq!(cache.flush_dirty(20), 1);
            {
                let mut state = slot.state.lock();
                state.slate.incr_counter(958);
                cache.note_write(&slot, &mut state, 30);
            }
            assert_eq!(cache.flush_dirty(40), 1);
            assert_eq!(
                *backend.0.lock(),
                vec![(b"42".to_vec(), Codec::Json), (b"1000".to_vec(), Codec::Json)],
                "store codec {store_codec:?}"
            );
        }
    }

    /// How a sweep's thread takes a key's slot: a real miss path, or a
    /// negative control's copy of the leader.
    type Lead = fn(&SlateCache, &Key) -> Arc<SlateSlot>;

    fn get(cache: &SlateCache, key: &Key) -> Arc<SlateSlot> {
        cache.get_or_load(0, &updater_name(), key, None, 0)
    }

    /// A run of misses: prefetch `key` with a second key, so there is a
    /// batch to load, then take its slot.
    fn prefetch_then_get(cache: &SlateCache, key: &Key) -> Arc<SlateSlot> {
        let (updater, other) = (updater_name(), Key::from("other"));
        cache.prefetch(&[(0, &updater, key, None), (0, &updater, &other, None)], 0);
        get(cache, key)
    }

    /// Four threads miss on one key — `first`, which leads, then two
    /// `get_or_load`s and a prefetch once its flight is up. Invariants: one
    /// backend load of the key, and every thread holds the slot the cache
    /// installed.
    fn single_flight(first: Lead) -> Vec<String> {
        let backend = Arc::new(RecBackend::default());
        let cache = Arc::new(SlateCache::new(16, FlushPolicy::OnEvict, Arc::clone(&backend) as _));
        let (key, mut threads) = (Key::from("hot"), Vec::new());
        for (idx, lead) in [first, get, get, prefetch_then_get].into_iter().enumerate() {
            let (thread_cache, thread_key) = (Arc::clone(&cache), key.clone());
            threads.push(sched::spawn(idx as u64 + 1, move || lead(&thread_cache, &thread_key)));
            let (shard, k) = (cache.shard_of(0, &key), (0, key.clone()));
            while !shard.flights.lock().contains_key(&k) && shard.map.lock().peek(&k).is_none() {
                std::thread::yield_now();
            }
        }
        let slots = sched::join_within(threads, Duration::from_secs(10));
        let loads = backend.load_batches.lock().len();
        let installed = get(&cache, &key);
        let mut notes = vec![format!("{loads} backend loads of one key"); usize::from(loads != 1)];
        if !slots.iter().all(|slot| Arc::ptr_eq(slot, &installed)) {
            notes.push("a thread holds a slot the cache does not".to_string());
        }
        notes
    }

    #[test]
    fn sweep_single_flight() {
        let caught =
            sched::sweep(SEEDS, |seed| single_flight([get, prefetch_then_get][seed as usize % 2]));
        assert_eq!(caught, None, "single flight");
    }

    #[test]
    fn sweep_single_flight_catches_a_flight_resolved_before_install() {
        // `load_as_leader` resolving its flight before installing the slot:
        // a woken waiter retries, finds neither, and leads a second load.
        fn lead(cache: &SlateCache, key: &Key) -> Arc<SlateSlot> {
            let k = (0, key.clone());
            cache.shard_of(0, key).flights.lock().insert(k.clone(), Arc::default());
            let guard = FlightGuard { cache, keys: vec![k] };
            sched::point();
            let loaded = cache.backend.load("U1", key, 0);
            drop(guard);
            sched::point();
            cache.install(0, &updater_name(), key, None, loaded, 0).0
        }
        let caught = sched::sweep(SEEDS, |_| single_flight(lead));
        assert!(caught.is_some(), "the sweep missed an early resolve in {SEEDS} seeds");
    }

    /// How a flusher flushes the slot in a round: the real paths, or a
    /// negative control's copy of `flush_slots`.
    type Flush = fn(&SlateCache, &Arc<SlateSlot>, u64);

    /// `flush_slot_now` or a `flush_dirty` sweep, by round, and in every
    /// third round a second, concurrent sweep: one of two flushes of one
    /// slot must skip it while the other has it in flight.
    const REAL_FLUSHERS: [Flush; 2] = [
        |cache, slot, round| match round % 2 {
            0 => _ = cache.flush_slot_now(slot, 0),
            _ => _ = cache.flush_dirty(0),
        },
        |cache, _, round| _ = round.is_multiple_of(3).then(|| cache.flush_dirty(0)),
    ];

    /// A mutator (state lock, mutate, `note_write`) races `flushers` over
    /// one slot, round by round; between rounds all are parked. Invariant:
    /// a slot that claims to be clean matches the backend — after every
    /// round, and after a final sweep, which must leave it clean.
    fn flush_cas(flushers: &[Flush]) -> Vec<String> {
        const ROUNDS: u64 = 12;
        let backend = Arc::new(MemBackend::default());
        let cache = Arc::new(SlateCache::new(4, FlushPolicy::OnEvict, Arc::clone(&backend) as _));
        let slot = get(&cache, &Key::from("k"));
        let barrier = Arc::new(std::sync::Barrier::new(1 + flushers.len()));
        let clean_matches = move |backend: &MemBackend, slot: &SlateSlot| {
            let state = slot.state.lock();
            let stored = backend.load("U1", &slot.key, 0);
            (!state.dirty() && stored.as_deref() != Some(state.slate.bytes()))
                .then(|| format!("clean at v{} but stored {stored:?}", state.slate.version()))
        };
        let mut threads: Vec<_> = (2..)
            .zip(flushers.iter().copied())
            .map(|(idx, flush)| {
                let (cache, slot, barrier) =
                    (Arc::clone(&cache), Arc::clone(&slot), Arc::clone(&barrier));
                sched::spawn(idx, move || {
                    for round in 0..ROUNDS {
                        barrier.wait();
                        flush(&cache, &slot, round);
                        barrier.wait();
                    }
                    Vec::new()
                })
            })
            .collect();
        // The mutator checks each round while the flushers wait for the next.
        threads.push({
            let (cache, slot, backend) =
                (Arc::clone(&cache), Arc::clone(&slot), Arc::clone(&backend));
            sched::spawn(1, move || {
                let round = |round: u64| {
                    barrier.wait();
                    sched::point();
                    let mut state = slot.state.lock();
                    state.slate.replace(round.to_string().into_bytes());
                    cache.note_write(&slot, &mut state, 0);
                    drop(state);
                    barrier.wait();
                    clean_matches(&backend, &slot)
                };
                (1..=ROUNDS).filter_map(round).collect()
            })
        });
        let mut notes = sched::join_within(threads, Duration::from_secs(10)).concat();
        cache.flush_dirty(0);
        if slot.state.lock().dirty() {
            notes.push("dirty after the final sweep".to_string());
        }
        notes.extend(clean_matches(&backend, &slot));
        notes
    }

    #[test]
    fn sweep_flush_cas() {
        assert_eq!(sched::sweep(SEEDS, |_| flush_cas(&REAL_FLUSHERS)), None, "the flush CAS");
    }

    #[test]
    fn sweep_flush_cas_catches_a_blind_mark() {
        // `flush_slots` for one slot with a blind mark: the slot's current
        // version, not the written snapshot's, is marked flushed, so a
        // mutation that landed during the write loses its dirty bit.
        fn flush(cache: &SlateCache, slot: &Arc<SlateSlot>, _: u64) {
            let (bytes, codec) = slot.state.lock().slate.materialize(cache.store_codec);
            sched::point();
            let (updater, key) = (Arc::clone(&slot.updater), slot.key.clone());
            cache
                .backend
                .store_many(&[FlushItem { updater, key, bytes, codec, ttl_secs: None }], 0);
            sched::point();
            let mut state = slot.state.lock();
            state.flushed_version = state.slate.version();
        }
        let caught = sched::sweep(SEEDS, |_| flush_cas(&[flush]));
        assert!(caught.is_some(), "the sweep missed a blind flushed-version mark in {SEEDS} seeds");
    }
}

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
//! The store is behind the event path on every route but one: a miss
//! *loads* its slate before the update can run — one backend round trip,
//! shared by all the misses of a drained batch ([`SlateCache::prefetch`]).
//! Nothing is ever *written* on that path. Dirty slates reach the backend
//! through one flush core (`flush_slots`: snapshot under the slot lock,
//! ONE `store_many` per batch outside it, compare-and-set
//! `flushed_version`), driven by the periodic sweep
//! ([`SlateCache::flush_dirty`]), by hand-off
//! ([`SlateCache::flush_slot_now`]) and by eviction: a miss over capacity
//! only *selects* its LRU victims into the eviction backlog, and
//! [`SlateCache::retire_evicted`] writes them back and removes them later,
//! in one batch, when the caller has nothing better to do.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use muppet_core::event::Key;
use muppet_core::hash::fx64_pair;
use muppet_core::slate::Slate;
use muppet_core::sync::{Condvar, Mutex};
use muppet_core::workflow::OpId;
use muppet_core::Codec;
use muppet_obs::{HeavyHitter, Histogram, HistogramSnapshot, Logger, Sampler, SpaceSaving};
use muppet_slatestore::cluster::StoreCluster;
use muppet_slatestore::types::CellKey;

use crate::lru::LruMap;

/// Default cap on one batched flush call (dirty slates per
/// `store_many`; see [`crate::engine::EngineConfig::flush_batch_max`]).
pub const DEFAULT_FLUSH_BATCH_MAX: usize = 256;

/// Soft byte cap on one flush batch's payload: a batch closes early
/// rather than approach the wire's 64 MB hard frame limit (an oversized
/// `StorePut` frame would be refused wholesale and rebuilt identically
/// on every sweep — a flush livelock). A single slate over the cap
/// still flushes alone.
pub const FLUSH_BATCH_SOFT_BYTES: usize = 8 << 20;

/// When dirty slates reach the key-value store (§4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Every slate mutation writes to the store before the worker moves on.
    WriteThrough,
    /// A background flusher sweeps dirty slates every `ms` milliseconds
    /// ("a thread to provide background I/O to the durable key-value
    /// store", §4.5).
    IntervalMs(u64),
    /// Slates reach the store only when evicted (maximum write coalescing,
    /// maximum crash loss).
    OnEvict,
}

impl Default for FlushPolicy {
    fn default() -> Self {
        FlushPolicy::IntervalMs(100)
    }
}

/// One dirty-slate snapshot inside a batched flush: the bytes and
/// identity a [`SlateBackend::store_many`] call persists. Snapshots are
/// taken under the slot's state lock but *written* without it — a worker
/// mutating the slate never waits on the (possibly remote) store write.
#[derive(Clone, Debug)]
pub struct FlushItem {
    /// The update function's name (store column).
    pub updater: Arc<str>,
    /// The event key (store row).
    pub key: Key,
    /// The slate bytes at snapshot time.
    pub bytes: Bytes,
    /// Format of `bytes` (the cache materializes in the store's codec;
    /// raw/legacy payloads stay [`Codec::Json`]).
    pub codec: Codec,
    /// TTL configured for this updater's slates.
    pub ttl_secs: Option<u64>,
}

/// Where cache misses load from and flushes write to. Implemented by the
/// slate-store cluster; tests may substitute an in-memory backend.
pub trait SlateBackend: Send + Sync + 'static {
    /// Load the persisted slate bytes for ⟨updater, key⟩, if any. Bytes
    /// come back uncompressed in whatever codec they were stored under —
    /// the MBF magic byte is sniffable, so no tag travels on this path.
    fn load(&self, updater: &str, key: &Key, now_us: u64) -> Option<Vec<u8>>;
    /// Persist the slate bytes for ⟨updater, key⟩, tagged with their
    /// codec (the store may compress them, after which the payload is no
    /// longer sniffable — the tag must travel explicitly). Returns
    /// `false` when the write did not reach the store (quorum failure,
    /// dead store host): the caller must keep the slate dirty so a later
    /// flush retries — dropping it would silently lose the update.
    fn store(
        &self,
        updater: &str,
        key: &Key,
        bytes: &[u8],
        codec: Codec,
        ttl_secs: Option<u64>,
        now_us: u64,
    ) -> bool;

    /// Persist a run of slates, returning per-item success in order.
    /// Batch-capable backends override this to turn a flush tick's dirty
    /// set into one store round trip (one `StorePut` frame over the
    /// wire, one WAL group commit on the LSM node); the default falls
    /// back to per-slate [`SlateBackend::store`] calls so existing
    /// backends keep working unchanged.
    fn store_many(&self, items: &[FlushItem], now_us: u64) -> Vec<bool> {
        items
            .iter()
            .map(|item| {
                self.store(&item.updater, &item.key, &item.bytes, item.codec, item.ttl_secs, now_us)
            })
            .collect()
    }

    /// Load a run of slates, in order. Same batching contract as
    /// [`SlateBackend::store_many`]; the default falls back to per-slate
    /// loads.
    fn load_many(&self, items: &[(Arc<str>, Key)], now_us: u64) -> Vec<Option<Vec<u8>>> {
        items.iter().map(|(updater, key)| self.load(updater, key, now_us)).collect()
    }
}

/// Backend that drops writes and never finds anything — engines without an
/// attached store use this.
#[derive(Debug, Default)]
pub struct NullBackend;

impl SlateBackend for NullBackend {
    fn load(&self, _updater: &str, _key: &Key, _now_us: u64) -> Option<Vec<u8>> {
        None
    }
    fn store(
        &self,
        _updater: &str,
        _key: &Key,
        _bytes: &[u8],
        _codec: Codec,
        _ttl: Option<u64>,
        _now_us: u64,
    ) -> bool {
        // With no store attached there is nothing to retry against:
        // report success so caches do not accumulate forever-dirty slates.
        true
    }
}

impl SlateBackend for StoreCluster {
    fn load(&self, updater: &str, key: &Key, now_us: u64) -> Option<Vec<u8>> {
        let cell_key = CellKey::new(key.as_bytes(), updater.as_bytes());
        // Quorum failures surface as cache misses: the paper's posture is
        // availability-first on the read path.
        self.get(&cell_key, now_us).ok().flatten().map(|b| b.to_vec())
    }

    fn store(
        &self,
        updater: &str,
        key: &Key,
        bytes: &[u8],
        codec: Codec,
        ttl_secs: Option<u64>,
        now_us: u64,
    ) -> bool {
        let cell_key = CellKey::new(key.as_bytes(), updater.as_bytes());
        // A write failure keeps the slate dirty; a later flush retries.
        self.put_tagged(&cell_key, bytes, codec, ttl_secs, now_us).is_ok()
    }

    fn store_many(&self, items: &[FlushItem], now_us: u64) -> Vec<bool> {
        // One `put_many`: cells grouped per storage node, each node's run
        // WAL-group-committed (one fsync per batch under `sync_each`).
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

    fn load_many(&self, items: &[(Arc<str>, Key)], now_us: u64) -> Vec<Option<Vec<u8>>> {
        let keys: Vec<CellKey> = items
            .iter()
            .map(|(updater, key)| CellKey::new(key.as_bytes(), updater.as_bytes()))
            .collect();
        // Quorum failures surface as misses (availability-first reads).
        self.get_many(&keys, now_us)
            .into_iter()
            .map(|r| r.ok().flatten().map(|b| b.to_vec()))
            .collect()
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
    /// Whether this slot is currently registered in its shard's dirty
    /// index (guarded by the state lock, so the clean→dirty transition
    /// registers exactly once — steady-state re-writes of an
    /// already-dirty slate touch no extra lock).
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

/// Cache statistics (atomic; cheap to snapshot).
#[derive(Debug, Default)]
pub struct CacheCounters {
    store_loads: AtomicU64,
    evictions: AtomicU64,
    flush_writes: AtomicU64,
    flush_failures: AtomicU64,
    ttl_resets: AtomicU64,
    flush_batches: AtomicU64,
    store_round_trips: AtomicU64,
    miss_coalesced: AtomicU64,
}

/// Snapshot of [`CacheCounters`].
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

impl CacheStats {
    /// Fold another cache's snapshot into this one (a machine owning
    /// several caches reports them as one): counts and gauges add, the
    /// flush-batch median and maximum take the worst cache.
    pub fn absorb(&mut self, s: &CacheStats) {
        self.hits += s.hits;
        self.misses += s.misses;
        self.store_loads += s.store_loads;
        self.evictions += s.evictions;
        self.flush_writes += s.flush_writes;
        self.flush_failures += s.flush_failures;
        self.ttl_resets += s.ttl_resets;
        self.entries += s.entries;
        self.dirty += s.dirty;
        self.shards += s.shards;
        self.flush_batches += s.flush_batches;
        self.flush_batch_p50 = self.flush_batch_p50.max(s.flush_batch_p50);
        self.flush_batch_largest = self.flush_batch_largest.max(s.flush_batch_largest);
        self.store_round_trips += s.store_round_trips;
        self.miss_coalesced += s.miss_coalesced;
        self.evict_backlog += s.evict_backlog;
    }
}

/// One lock shard: its own LRU map, its slice of the capacity budget, and
/// its own hit/miss counters (the `/status` observability surface).
struct Shard {
    map: Mutex<LruMap<(OpId, Key), Arc<SlateSlot>>>,
    /// The dirty index: slots with unpersisted writes, registered on the
    /// clean→dirty transition. Flush sweeps drain this instead of walking
    /// the whole map — a sweep's cost scales with the dirty set, not the
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
    hits: AtomicU64,
    misses: AtomicU64,
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
    /// write (the slot stays dirty and indexed for retry).
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
    /// Block until the leader resolves the flight (re-checking
    /// periodically so a wedged backend cannot strand waiters silently).
    fn wait(&self) {
        let mut done = self.done.lock();
        while !*done {
            self.cv.wait_for(&mut done, Duration::from_millis(50));
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

/// One shard's space-saving sketch over ⟨op, key⟩ offers.
type HotSketch = Mutex<SpaceSaving<(OpId, Key)>>;

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
    counters: CacheCounters,
    /// Distribution of flush-batch sizes (events per `store_many`).
    flush_batch_hist: Histogram,
    /// Per-shard heavy-hitter sketches over the updater event stream
    /// (⟨op, key⟩ offers from the engine's updater path, §5: "the
    /// distribution of event keys can be strongly skewed"). Empty when
    /// hot-key telemetry is off.
    hot: Box<[HotSketch]>,
    /// Per-shard 1-in-N gates for sketch offers; a hit offers with the
    /// sampling interval as its weight, keeping reported counts
    /// event-scale.
    hot_samplers: Box<[Sampler]>,
    /// µs per backend store call on the flush path; shared with the
    /// registry when one is attached.
    flush_latency: Arc<Histogram>,
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
        let capacity = capacity.max(n); // every shard holds at least one slate
        let (base, extra) = (capacity / n, capacity % n);
        let shards: Vec<Shard> = (0..n)
            .map(|i| Shard {
                map: Mutex::new(LruMap::new()),
                dirty: Mutex::new(HashMap::new()),
                flights: Mutex::new(HashMap::new()),
                capacity: base + usize::from(i < extra),
                victims: AtomicUsize::new(0),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
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
            counters: CacheCounters::default(),
            flush_batch_hist: Histogram::new(),
            hot: Box::new([]),
            hot_samplers: Box::new([]),
            flush_latency: Arc::new(Histogram::new()),
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

    /// Enable per-⟨op, key⟩ hot-spot telemetry: one space-saving sketch
    /// of `capacity` keys per lock shard, fed 1-in-`sample_n` offers
    /// (each weighted by the interval). `capacity = 0` disables it —
    /// [`SlateCache::offer_hot`] becomes a single branch.
    pub fn with_hot_keys(mut self, capacity: usize, sample_n: u64) -> Self {
        if capacity == 0 {
            self.hot = Box::new([]);
            self.hot_samplers = Box::new([]);
            return self;
        }
        let n = self.shards.len();
        let sketches: Vec<Mutex<SpaceSaving<(OpId, Key)>>> =
            (0..n).map(|_| Mutex::new(SpaceSaving::new(capacity))).collect();
        let samplers: Vec<Sampler> = (0..n).map(|_| Sampler::every(sample_n)).collect();
        self.hot = sketches.into_boxed_slice();
        self.hot_samplers = samplers.into_boxed_slice();
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

    /// Record flush-path store latency into `hist` (a registry-owned
    /// histogram, so `/metrics` exports the flush stage).
    pub fn with_flush_latency(mut self, hist: Arc<Histogram>) -> Self {
        self.flush_latency = hist;
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
                    shard.hits.fetch_add(1, Ordering::Relaxed);
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
                        self.counters.miss_coalesced.fetch_add(1, Ordering::Relaxed);
                        Arc::clone(flight)
                    }
                    None => {
                        shard.misses.fetch_add(1, Ordering::Relaxed);
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
        let loaded = self.backend.load(updater, key, now_us);
        self.counters.store_round_trips.fetch_add(1, Ordering::Relaxed);
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
        self.counters.store_round_trips.fetch_add(1, Ordering::Relaxed);
        if loaded.len() != lead.len() {
            return; // a misbehaving backend: fall back to per-key loads
        }
        let mut victims = Vec::new();
        for ((op, updater, key, ttl_secs), data) in lead.into_iter().zip(loaded) {
            self.shard_of(op, key).misses.fetch_add(1, Ordering::Relaxed);
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
            self.counters.store_loads.fetch_add(1, Ordering::Relaxed);
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
                self.counters.evictions.fetch_add(1, Ordering::Relaxed);
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
            self.counters.ttl_resets.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a lookup served from a worker's slot memo (the batch-drain
    /// path reuses the previous packet's slot for a run of same-key events
    /// without touching the shard lock): counts as a shard hit and applies
    /// the TTL check exactly like a map lookup would.
    pub fn note_memo_hit(&self, op: OpId, slot: &Arc<SlateSlot>, now_us: u64) {
        self.shard_of(op, &slot.key).hits.fetch_add(1, Ordering::Relaxed);
        self.maybe_ttl_reset(slot, now_us);
    }

    /// Offer one updater event's ⟨op, key⟩ to the hot-key sketches. The
    /// engine calls this once per processed update event (memo-hit and
    /// map-lookup paths alike); the per-shard sampler keeps the steady
    /// cost to one relaxed `fetch_add`, and each sampled hit is weighted
    /// by the interval so reported counts stay event-scale estimates.
    pub fn offer_hot(&self, op: OpId, key: &Key) {
        if self.hot.is_empty() {
            return;
        }
        let h = fx64_pair(key.as_bytes(), &(op as u64).to_le_bytes());
        let i = (h & self.shard_mask) as usize;
        let sampler = &self.hot_samplers[i];
        if sampler.hit() {
            self.hot[i].lock().offer_n((op, key.clone()), sampler.rate());
        }
    }

    /// Credit `n` events' worth of load to one ⟨op, key⟩ in one shot —
    /// unsampled, since the caller already coalesced. The batch-fold path
    /// uses this for the events a combined carrier absorbed: the carrier
    /// itself still flows through the sampled [`SlateCache::offer_hot`],
    /// but without this credit a deeply-folded hot key would look *cold*
    /// to the splitter (the sketch would see one carrier per batch, not
    /// the event-scale load the `hot_split_threshold` is denominated in).
    pub fn offer_hot_n(&self, op: OpId, key: &Key, n: u64) {
        if self.hot.is_empty() || n == 0 {
            return;
        }
        let h = fx64_pair(key.as_bytes(), &(op as u64).to_le_bytes());
        let i = (h & self.shard_mask) as usize;
        self.hot[i].lock().offer_n((op, key.clone()), n);
    }

    /// The top `k` ⟨op, key⟩ pairs by estimated event count, merged
    /// across shards. Shard selection is key-stable, so per-shard entries
    /// are disjoint and a concatenation-then-sort merge is exact over the
    /// union of the shard sketches.
    pub fn hot_keys(&self, k: usize) -> Vec<HeavyHitter<(OpId, Key)>> {
        let mut all: Vec<HeavyHitter<(OpId, Key)>> = Vec::new();
        for sketch in self.hot.iter() {
            let sketch = sketch.lock();
            all.extend(sketch.top(sketch.capacity()));
        }
        all.sort_by(|a, b| b.count.cmp(&a.count).then(a.err.cmp(&b.err)));
        all.truncate(k);
        all
    }

    /// Sketch estimate of the event count seen for one ⟨op, key⟩, `None`
    /// when the pair is not tracked (or hot-key tracking is off). Shard
    /// selection matches `offer_hot`, so the lookup touches exactly one
    /// sketch. Counts are sampler-weighted event-scale estimates; the
    /// engine's hot-key splitter compares them against its threshold.
    pub fn hot_estimate(&self, op: OpId, key: &Key) -> Option<u64> {
        if self.hot.is_empty() {
            return None;
        }
        let h = fx64_pair(key.as_bytes(), &(op as u64).to_le_bytes());
        let i = (h & self.shard_mask) as usize;
        self.hot[i].lock().estimate(&(op, key.clone()))
    }

    /// Point-in-time reading of the flush-batch-size histogram (the
    /// registry's cache collector exports it as a histogram family).
    pub fn flush_batch_snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bucket_counts: self.flush_batch_hist.bucket_counts(),
            sum: self.flush_batch_hist.sum_us(),
            count: self.flush_batch_hist.count(),
        }
    }

    /// Register `slot` in its shard's dirty index if it is not already
    /// there (caller holds the slot's state lock — the `indexed` flag
    /// makes steady-state re-writes of an already-dirty slate free).
    fn ensure_indexed(&self, slot: &Arc<SlateSlot>, state: &mut SlateState) {
        if !state.indexed {
            state.indexed = true;
            self.shard_of(slot.op, &slot.key)
                .dirty
                .lock()
                .insert((slot.op, slot.key.clone()), Arc::downgrade(slot));
        }
    }

    /// Re-register `slot` unconditionally — the flush paths use this
    /// after taking (or declining) a snapshot, when the `indexed` flag
    /// may be stale-false while the slot's index entry is gone.
    fn force_reindex(&self, slot: &Arc<SlateSlot>, state: &mut SlateState) {
        state.indexed = false;
        self.ensure_indexed(slot, state);
    }

    /// Record a completed updater write on `slot`; under write-through this
    /// persists immediately. A failed write-through leaves the slate dirty
    /// (the eviction/shutdown flush retries it). Under the write-behind
    /// policies the slot is registered in its shard's dirty index so the
    /// next flush sweep finds it without scanning the cache.
    pub fn note_write(&self, slot: &Arc<SlateSlot>, state: &mut SlateState, now_us: u64) {
        state.last_write_us = now_us;
        if self.policy == FlushPolicy::WriteThrough && state.dirty() && !state.flushing {
            // (With a flush of this slot mid-flight, the synchronous write
            // is skipped — two concurrent store writes of one key could
            // land out of order. The slot stays dirty; the in-flight
            // flush's CAS sees the newer version and re-registers it.)
            self.counters.store_round_trips.fetch_add(1, Ordering::Relaxed);
            let t0 = Instant::now();
            let (bytes, codec) = state.slate.materialize(self.store_codec);
            let ok =
                self.backend.store(&slot.updater, &slot.key, &bytes, codec, slot.ttl_secs, now_us);
            self.flush_latency.record(t0.elapsed().as_micros() as u64);
            if ok {
                state.flushed_version = state.slate.version();
                self.counters.flush_writes.fetch_add(1, Ordering::Relaxed);
                return;
            }
            self.counters.flush_failures.fetch_add(1, Ordering::Relaxed);
        }
        if state.dirty() {
            self.ensure_indexed(slot, state);
        }
    }

    /// The one flush core — sweeps, eviction retires and hand-off flushes
    /// all run it. Snapshot phase: bytes + version per dirty slot, each
    /// under its own briefly-held state lock. Write phase: ONE batched
    /// backend call per `flush_batch_max` slates (one store round trip
    /// over a remote host, one WAL group commit per replica), with no
    /// lock held, so no worker ever stalls behind the store write of a
    /// slate it is mutating. Then a compare-and-set: `flushed_version`
    /// advances only to the version actually written — a slate mutated
    /// mid-flight stays dirty and is re-registered in the dirty index, as
    /// is one the backend refused. A slot another flush already has in
    /// flight is skipped (`InFlight`): the store resolves same-key writes
    /// by arrival order, so a second concurrent write could land the
    /// stale snapshot last. Returns one outcome per slot, in order.
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
                    // This flush owns the snapshot: deregister so a
                    // concurrent sweep does not double-write it; any write
                    // that lands after this lock drops re-registers via
                    // `note_write`.
                    state.indexed = false;
                    if !state.dirty() {
                        outcomes.push(FlushOutcome::Clean);
                        at += 1;
                        continue;
                    }
                    if state.flushing {
                        // The in-flight flush's completion re-registers
                        // whatever its snapshot did not cover.
                        self.force_reindex(slot, &mut state);
                        outcomes.push(FlushOutcome::InFlight);
                        at += 1;
                        continue;
                    }
                    state.flushing = true;
                    (state.slate.materialize(self.store_codec), state.slate.version())
                };
                if !items.is_empty() && batch_bytes + bytes.len() > FLUSH_BATCH_SOFT_BYTES {
                    // Close this batch; the slot opens the next one. The
                    // snapshot above claimed the slot (flushing = true) —
                    // release the claim or no flush could ever touch it
                    // again (`at` is not advanced, so it is re-snapshotted
                    // as the next batch's first item).
                    let mut state = slot.state.lock();
                    state.flushing = false;
                    self.force_reindex(slot, &mut state);
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
            let t0 = Instant::now();
            let oks = self.backend.store_many(&items, now_us);
            self.flush_latency.record(t0.elapsed().as_micros() as u64);
            self.counters.store_round_trips.fetch_add(1, Ordering::Relaxed);
            self.counters.flush_batches.fetch_add(1, Ordering::Relaxed);
            self.flush_batch_hist.record(items.len() as u64);
            debug_assert_eq!(oks.len(), items.len(), "store_many must ack per item");
            // A short ack vector (a misbehaving backend) must fail the
            // uncovered tail, not silently strand it dirty-but-unindexed.
            let oks = oks.into_iter().chain(std::iter::repeat(false));
            for ((i, version), ok) in meta.into_iter().zip(oks) {
                let slot = &slots[i];
                let mut state = slot.state.lock();
                state.flushing = false;
                if ok {
                    if version > state.flushed_version {
                        state.flushed_version = version;
                    }
                    self.counters.flush_writes.fetch_add(1, Ordering::Relaxed);
                    outcomes[i] = FlushOutcome::Written;
                } else {
                    self.counters.flush_failures.fetch_add(1, Ordering::Relaxed);
                    failed += 1;
                }
                if state.dirty() {
                    self.force_reindex(slot, &mut state);
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
            // other path orders state → dirty (`ensure_indexed` under the
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
    /// sweep finds it).
    pub fn insert_slot(&self, op: OpId, key: Key, slot: Arc<SlateSlot>) {
        debug_assert_eq!(slot.op, op, "a handed-off slot keeps its op identity");
        self.shard_of(op, &key).map.lock().insert((op, key), Arc::clone(&slot));
        let mut state = slot.state.lock();
        if state.dirty() {
            self.force_reindex(&slot, &mut state); // its old cache's registration is gone
        }
    }

    /// Flush every dirty slate (background flusher tick / graceful
    /// shutdown). The sweep drains the per-shard dirty indexes — visiting
    /// only dirty slots, not the whole cache — and hands them to the
    /// shared flush core. Returns the number of slates written.
    pub fn flush_dirty(&self, now_us: u64) -> u64 {
        let mut candidates: Vec<Arc<SlateSlot>> = Vec::new();
        for shard in self.shards.iter() {
            // Dead weaks are slots that left the cache after their last
            // flush (eviction removes only clean slots); nothing to do.
            candidates.extend(shard.dirty.lock().drain().filter_map(|(_, weak)| weak.upgrade()));
        }
        let outcomes = self.flush_slots(&candidates, now_us);
        outcomes.iter().filter(|o| **o == FlushOutcome::Written).count() as u64
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
    /// key-value store are lost").
    pub fn dirty_count(&self) -> u64 {
        let mut dirty = 0u64;
        for shard in self.shards.iter() {
            let slots: Vec<Arc<SlateSlot>> =
                shard.map.lock().iter().map(|(_, slot)| Arc::clone(slot)).collect();
            dirty += slots.iter().filter(|s| s.state.lock().dirty()).count() as u64;
        }
        dirty
    }

    /// Per-shard statistics (hit/miss/occupancy per lock shard).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                entries: s.map.lock().len() as u64,
                capacity: s.capacity as u64,
            })
            .collect()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut entries = 0u64;
        for shard in self.shards.iter() {
            hits += shard.hits.load(Ordering::Relaxed);
            misses += shard.misses.load(Ordering::Relaxed);
            entries += shard.map.lock().len() as u64;
        }
        let dirty = self.dirty_count();
        CacheStats {
            hits,
            misses,
            store_loads: self.counters.store_loads.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            flush_writes: self.counters.flush_writes.load(Ordering::Relaxed),
            flush_failures: self.counters.flush_failures.load(Ordering::Relaxed),
            ttl_resets: self.counters.ttl_resets.load(Ordering::Relaxed),
            entries,
            dirty,
            shards: self.shards.len() as u64,
            flush_batches: self.counters.flush_batches.load(Ordering::Relaxed),
            flush_batch_p50: self.flush_batch_hist.percentile_us(0.50),
            flush_batch_largest: self.flush_batch_hist.max_us(),
            store_round_trips: self.counters.store_round_trips.load(Ordering::Relaxed),
            miss_coalesced: self.counters.miss_coalesced.load(Ordering::Relaxed),
            evict_backlog: self.evict_backlog() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_core::sync::RwLock;
    use std::collections::HashMap;

    /// In-memory backend recording stores.
    #[derive(Debug, Default)]
    struct MemBackend {
        data: RwLock<HashMap<(String, Key), Vec<u8>>>,
        stores: AtomicU64,
    }

    impl SlateBackend for MemBackend {
        fn load(&self, updater: &str, key: &Key, _now: u64) -> Option<Vec<u8>> {
            self.data.read().get(&(updater.to_string(), key.clone())).cloned()
        }
        fn store(
            &self,
            updater: &str,
            key: &Key,
            bytes: &[u8],
            _codec: Codec,
            _ttl: Option<u64>,
            _now: u64,
        ) -> bool {
            self.stores.fetch_add(1, Ordering::Relaxed);
            self.data.write().insert((updater.to_string(), key.clone()), bytes.to_vec());
            true
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
        fn load(&self, updater: &str, key: &Key, now: u64) -> Option<Vec<u8>> {
            self.inner.load(updater, key, now)
        }
        fn store(
            &self,
            updater: &str,
            key: &Key,
            bytes: &[u8],
            codec: Codec,
            ttl: Option<u64>,
            now: u64,
        ) -> bool {
            loop {
                let left = self.failures_left.load(Ordering::Acquire);
                if left == 0 {
                    return self.inner.store(updater, key, bytes, codec, ttl, now);
                }
                if self
                    .failures_left
                    .compare_exchange(left, left - 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    self.failed.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
    }

    /// Backend recording the shape of the write traffic: single-slate
    /// `store` calls, the size of every `store_many`, and an optional run
    /// of batches refused wholesale.
    #[derive(Debug, Default)]
    struct RecBackend {
        inner: MemBackend,
        singles: AtomicU64,
        batches: Mutex<Vec<usize>>,
        refuse_batches: AtomicU64,
        single_loads: AtomicU64,
        load_batches: Mutex<Vec<usize>>,
    }

    impl SlateBackend for RecBackend {
        fn load(&self, updater: &str, key: &Key, now: u64) -> Option<Vec<u8>> {
            self.single_loads.fetch_add(1, Ordering::Relaxed);
            self.inner.load(updater, key, now)
        }
        fn load_many(&self, items: &[(Arc<str>, Key)], now: u64) -> Vec<Option<Vec<u8>>> {
            self.load_batches.lock().push(items.len());
            items.iter().map(|(updater, key)| self.inner.load(updater, key, now)).collect()
        }
        fn store(
            &self,
            updater: &str,
            key: &Key,
            bytes: &[u8],
            codec: Codec,
            ttl: Option<u64>,
            now: u64,
        ) -> bool {
            self.singles.fetch_add(1, Ordering::Relaxed);
            self.inner.store(updater, key, bytes, codec, ttl, now)
        }
        fn store_many(&self, items: &[FlushItem], now: u64) -> Vec<bool> {
            self.batches.lock().push(items.len());
            let refuse = self
                .refuse_batches
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                .is_ok();
            items
                .iter()
                .map(|i| {
                    !refuse
                        && self.inner.store(&i.updater, &i.key, &i.bytes, i.codec, i.ttl_secs, now)
                })
                .collect()
        }
    }

    /// Touch `key` and leave it dirty with `value`.
    fn write(cache: &SlateCache, key: &str, value: &str, now: u64) {
        let slot = cache.get_or_load(0, &updater_name(), &Key::from(key), None, now);
        let mut state = slot.state.lock();
        state.slate.replace(value.as_bytes().to_vec());
        cache.note_write(&slot, &mut state, now);
    }

    /// Backend whose store/load calls block until the test releases them
    /// — the harness for "no worker stalls behind a wire round trip".
    struct SlowBackend {
        inner: MemBackend,
        /// Signalled (once per store entry) when a store is in flight.
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
        fn load(&self, updater: &str, key: &Key, now: u64) -> Option<Vec<u8>> {
            self.loads.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(30));
            self.inner.load(updater, key, now)
        }
        fn store(
            &self,
            updater: &str,
            key: &Key,
            bytes: &[u8],
            codec: Codec,
            ttl: Option<u64>,
            now: u64,
        ) -> bool {
            let _ = self.entered.send(());
            let _ = self.release.lock().recv(); // park until released
            self.inner.store(updater, key, bytes, codec, ttl, now)
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
            assert!(!state.dirty());
        }
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
    fn memo_hits_count_and_apply_ttl() {
        let cache = SlateCache::with_shards(16, FlushPolicy::OnEvict, Arc::new(NullBackend), 4);
        let name = updater_name();
        let k = Key::from("memoed");
        let slot = cache.get_or_load(0, &name, &k, Some(1), 0);
        slot.state.lock().slate.replace(b"live".to_vec());
        cache.note_memo_hit(0, &slot, 500_000);
        assert!(!slot.state.lock().slate.is_empty(), "within TTL: untouched");
        cache.note_memo_hit(0, &slot, 2_000_001);
        assert!(slot.state.lock().slate.is_empty(), "memo path still applies the TTL reset");
        assert_eq!(cache.stats().hits, 2, "memo hits count as shard hits");
        assert_eq!(cache.stats().ttl_resets, 1);
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
        assert_eq!(backend.singles.load(Ordering::Relaxed), 0);
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
        assert_eq!(backend.singles.load(Ordering::Relaxed), 0);
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
        assert_eq!(backend.singles.load(Ordering::Relaxed), 0);
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
        assert_eq!(*backend.load_batches.lock(), vec![9], "ONE load_many of the nine cold keys");
        assert_eq!(backend.single_loads.load(Ordering::Relaxed), 1, "only p0's own miss");
        let s = cache.stats();
        assert_eq!((s.misses, s.store_loads, s.entries, s.store_round_trips), (10, 8, 10, 2));
        // What follows is hits on the loaded values; no flight is stranded.
        for i in 0..10 {
            let slot = cache.get_or_load(0, &name, &Key::from(format!("p{i}")), None, 2);
            assert_eq!(slot.state.lock().slate.counter(), if i < 8 { i } else { 0 });
        }
        assert_eq!(cache.stats().hits, 10);
        cache.prefetch(&wanted, 3);
        assert_eq!(backend.load_batches.lock().len(), 1, "nothing left to fetch");
    }

    #[test]
    fn prefetch_stops_at_the_backlog_bound_and_queues_its_victims() {
        let (backend, cache) = full_dirty_cache(8, 256);
        let (name, keys) = (updater_name(), (0..20).map(|i| Key::from(format!("cold{i}"))));
        let keys: Vec<Key> = keys.collect();
        let wanted: Vec<_> = keys.iter().map(|k| (0, &name, k, None)).collect();
        cache.prefetch(&wanted, 9);
        assert_eq!(
            *backend.load_batches.lock(),
            vec![8],
            "a tiny cache must not evict its own head"
        );
        // Eight installs over a full cache: eight victims, retired inline
        // at the bound — as one batch.
        assert_eq!(*backend.batches.lock(), vec![8]);
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions, s.evict_backlog), (8, 8, 0));
        assert!(cache.read(0, &Key::from("r0")).is_none());
    }
}

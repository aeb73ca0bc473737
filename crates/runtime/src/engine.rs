//! The Muppet engines (§4.1, §4.3, §4.5): configuration, the per-machine
//! state, ingest, the worker loop, send and local delivery, and the
//! shell of the membership protocol. Where ⟨function, key⟩ lives is
//! `placement.rs`'s. DESIGN.md §3 describes the engines, §5 the wire to
//! other processes and where locality is decided, §7 elastic membership;
//! the engine's numbers are `stats.rs`'s (§10).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use muppet_core::config::{AppConfig, FlushSpec};
use muppet_core::error::{Error, Result};
use muppet_core::event::{Event, Key, StreamId};
use muppet_core::operator::{Mapper, Updater, VecEmitter};
use muppet_core::sync::{Condvar, Mutex, RwLock};
use muppet_core::workflow::{OpId, OpKind, Workflow};
use muppet_core::{Codec, CodecChoice, Json};
use muppet_net::frame::{MembershipPhase, MembershipUpdate, WireEvent, MAX_FORWARDS};
use muppet_net::tcp::{BatchConfig, TcpListenerHandle, TcpTransport};
use muppet_net::topology::{NodeSpec, Topology};
use muppet_net::transport::{ClusterHandler, MachineId, NetError, Transport};
use muppet_obs::{Level, Logger};
use muppet_slatestore::cluster::StoreCluster;

use crate::cache::{
    FlushPolicy, NullBackend, SlateBackend, SlateCache, SlateSlot, DEFAULT_FLUSH_BATCH_MAX,
};
use crate::dispatch::{choose_between, RouteHash};
use crate::dlq::{DeadLetter, DeadLetterQueue};
use crate::ingestlog::{IngestLog, IngestRecovery, SyncFn};
use crate::master::Master;
use crate::netstore::RemoteBackend;
use crate::overflow::{DropLog, OverflowAction, OverflowPolicy};
use crate::placement::{Membership, Placement, Rings};
use crate::queue::EventQueue;
use crate::stats::{self, hottest, CacheMetrics, Stats};
pub use crate::stats::{DrainSummary, EngineStats, NetSummary};

/// Default lock-shard count for the Muppet 2.0 central slate cache.
pub const DEFAULT_CACHE_SHARDS: usize = 8;
/// Events a worker drains from its queue per lock acquisition. A drain
/// never *waits* for a full batch — it returns whatever is queued — so the
/// batch adds no latency, only removes mutex + condvar round-trips.
pub const DRAIN_BATCH: usize = 64;
/// Dead letters a machine parks before the oldest are evicted.
const DLQ_CAPACITY: usize = 1024;
/// Reserved store column the ingest replay cursor is checkpointed under
/// (never a real updater name — workflow operator names are validated).
const INGEST_CURSOR_COLUMN: &str = "__ingest_cursor";

/// Which generation of Muppet to run (§4.5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// Worker-per-function, per-worker slate caches.
    Muppet1,
    /// Thread pool per machine, two-choice dispatch, central cache.
    #[default]
    Muppet2,
}

/// Which wire connects the cluster's machines.
#[derive(Clone, Debug, Default)]
pub enum TransportKind {
    /// Every machine lives in this process and there is no wire: a send
    /// is a call into the destination machine's queues.
    #[default]
    InProcess,
    /// Real TCP: this engine process owns exactly one machine (`local`) of
    /// a static cluster; events to other machines cross actual sockets,
    /// and connection errors drive the §4.3 failure protocol.
    Tcp {
        /// The static cluster layout (`topology.len()` must equal
        /// [`EngineConfig::machines`]).
        topology: Topology,
        /// The machine this process runs.
        local: MachineId,
    },
}

/// Engine deployment configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Muppet 1.0 or 2.0.
    pub kind: EngineKind,
    /// Machines in the cluster (simulated in-process, or cluster-wide
    /// count in TCP mode).
    pub machines: usize,
    /// The wire between machines.
    pub transport: TransportKind,
    /// TCP mode: which machine hosts the durable slate store service.
    /// Nodes other than the host flush/load their slates through the
    /// transport's store frames; `None` means every node uses whatever
    /// store was passed to [`Engine::start`] directly (the in-process
    /// arrangement).
    pub store_host: Option<MachineId>,
    /// Muppet 2.0: worker threads per machine ("as large ... as the
    /// parallelization of the application code allows", §4.5).
    pub workers_per_machine: usize,
    /// Muppet 1.0: workers per map/update function, spread round-robin
    /// across machines (Figure 2 runs 3 mappers + 2 updaters).
    pub workers_per_op: usize,
    /// Per-worker input queue capacity (events).
    pub queue_capacity: usize,
    /// Slate-cache budget per machine (slates). Muppet 1.0 splits this
    /// evenly across the machine's updater workers; 2.0 gives it to the
    /// central cache.
    pub slate_cache_capacity: usize,
    /// Muppet 2.0: lock shards the central cache is split over (rounded
    /// up to a power of two; the budget is pinned across shards). With one
    /// shard every worker serializes on a single mutex — the pre-sharding
    /// hot-path bottleneck. Muppet 1.0 per-worker caches have one owner
    /// and always use a single shard.
    pub cache_shards: usize,
    /// Flush policy for dirty slates.
    pub flush: FlushPolicy,
    /// Dirty slates a flush sweep coalesces into one batched backend
    /// call (`SlateBackend::store_many`) at most: over a remote store
    /// host, one `StorePut` wire round trip; on the LSM node, one
    /// WAL group commit. Also caps the eviction backlog (victims a cache
    /// lets wait, resident, before a miss writes them back inline).
    /// 1 = the per-slate write-behind path.
    pub flush_batch_max: usize,
    /// Queue-overflow policy.
    pub overflow: OverflowPolicy,
    /// TCP mode: events coalesced into one wire frame at most (the
    /// batching senders' size trigger; 1 = unbatched). Ignored
    /// in-process.
    pub net_batch_max: usize,
    /// TCP mode: age ceiling in microseconds — a queued outbound event
    /// whose producer never asks for a flush waits at most this long for
    /// its batch to leave. Ignored in-process.
    pub net_flush_us: u64,
    /// This node was reserved via the master's `/join` admin call and has
    /// not entered the rings yet: the cluster as the join grant described
    /// it. The engine starts with the local machine outside every ring;
    /// [`Engine::announce_join`] then has the master's epoch-stamped
    /// membership update install it everywhere (including here). `None`
    /// = a founding member: epoch 0, every machine in the rings.
    pub joining: Option<ClusterView>,
    /// Master switch for the observability extras that ride the hot
    /// path: sampled per-stage latency spans and per-shard hot-key
    /// sketch offers. The registry's counters and the end-to-end latency
    /// histogram are always on (one relaxed atomic each).
    pub metrics: bool,
    /// 1-in-N sampling interval for per-stage latency spans and hot-key
    /// offers (rounded up to a power of two; 1 = observe every event).
    pub latency_sample_n: u64,
    /// Minimum severity for operational incident logging. Defaults to
    /// `Off` so libraries and tests stay silent; `muppetd` raises it.
    pub log_level: Level,
    /// Emit incident log records as JSON lines instead of human text.
    pub log_json: bool,
    /// Path of this machine's ingest WAL (`None` = no ingest logging,
    /// the paper's §4.3 lose-in-flight-work semantics). When set, every
    /// accepted external event is logged before dispatch and durable
    /// before its submit returns `Ok`, and `Engine::start` replays the
    /// segment's suffix past the checkpointed cursor so a restart
    /// converges to bit-identical slates.
    pub ingest_wal: Option<std::path::PathBuf>,
    /// Ingest WAL durability mode: true = write + fsync per record, then
    /// dispatch (highest tax — the strawman PR 7 measured); false =
    /// leader-based group commit (one fsync per concurrent batch,
    /// dispatched while it runs — the default).
    pub ingest_sync_each: bool,
    /// Slate/wire byte representation. `Auto` (default) offers MBF in the
    /// TCP hello and stores MBF at rest, falling back to JSON per
    /// connection when the peer is pinned to JSON. `Json` pins everything
    /// to text, on the wire and at rest (the rollback lever); `Mbf`
    /// additionally transcodes
    /// container-shaped external event values to MBF at the ingest edge
    /// (one parse+encode per event buys ~30% fewer bytes WAL-appended and
    /// framed — measured in PR 9). HTTP endpoints always speak JSON.
    pub wire_codec: CodecChoice,
    /// Map-side combining: when true, same-⟨op, key⟩ runs for updaters
    /// that declare an associative `combine` are pre-aggregated in the
    /// sender outbox (before framing) and in the local dispatch drain
    /// (before the slate lock), so a hot-key burst costs O(peers) wire
    /// entries and one slate mutation per drained batch instead of one
    /// per event. Exactness is preserved by the declared fold-equivalence
    /// contract (`Updater::combine`); updaters that declare nothing are
    /// untouched. Off by default.
    pub combine: bool,
    /// Dynamic hot-key splitting: when a per-shard SpaceSaving sketch
    /// estimates a combining key's event count past this threshold, its
    /// updates transparently fan out across [`SPLIT_WAYS`] ring-
    /// distributed subslates, merged on read through the same combiner;
    /// keys that cool back under half the threshold collapse back to
    /// direct routing. 0 (the default) disables splitting. Requires
    /// `combine` and `metrics` (the sketch is the detector).
    pub hot_split_threshold: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            kind: EngineKind::Muppet2,
            machines: 2,
            transport: TransportKind::InProcess,
            store_host: None,
            workers_per_machine: 4,
            workers_per_op: 2,
            queue_capacity: 4096,
            slate_cache_capacity: 100_000,
            cache_shards: DEFAULT_CACHE_SHARDS,
            flush: FlushPolicy::default(),
            flush_batch_max: DEFAULT_FLUSH_BATCH_MAX,
            overflow: OverflowPolicy::default(),
            net_batch_max: BatchConfig::default().batch_max,
            net_flush_us: BatchConfig::default().flush_us,
            joining: None,
            metrics: true,
            latency_sample_n: 64,
            log_level: Level::Off,
            log_json: false,
            ingest_wal: None,
            ingest_sync_each: false,
            wire_codec: CodecChoice::Auto,
            combine: false,
            hot_split_threshold: 0,
        }
    }
}

impl EngineConfig {
    /// Derive an engine configuration from an application config file.
    pub fn from_app_config(app: &AppConfig, kind: EngineKind) -> EngineConfig {
        EngineConfig {
            kind,
            machines: app.machines,
            workers_per_machine: app.workers_per_machine,
            workers_per_op: app.workers_per_machine, // 1.0 interpretation
            queue_capacity: app.queue_capacity,
            slate_cache_capacity: app.slate_cache_capacity,
            flush: match app.flush {
                FlushSpec::WriteThrough => FlushPolicy::WriteThrough,
                FlushSpec::IntervalMs(ms) => FlushPolicy::IntervalMs(ms),
                FlushSpec::OnEvict => FlushPolicy::OnEvict,
            },
            ..EngineConfig::default()
        }
    }
}

/// The membership state a running cluster hands a joiner: what its rings
/// must start from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterView {
    /// The founding machine count (Muppet 1.0 derives the founders' worker
    /// layout from it and every later machine's from its id).
    pub base: usize,
    /// The master's membership epoch at reservation time.
    pub epoch: u64,
    /// Machines already known failed, so the joiner never routes to
    /// corpses.
    pub failed: Vec<usize>,
    /// The committed ring members — a strict subset of the node list when
    /// other reservations are pending; only these may enter the joiner's
    /// initial rings (the others enter via their own commit).
    pub members: Vec<usize>,
}

/// A join reservation issued by the master's `/join` admin endpoint: the
/// id and cluster view the joining `muppetd` starts its engine with.
#[derive(Clone, Debug)]
pub struct JoinGrant {
    /// The machine id assigned to the joiner (always `nodes.len() - 1` —
    /// ids are append-only, never reused).
    pub id: MachineId,
    /// Epoch, founding size, failed set and ring members at grant time.
    pub view: ClusterView,
    /// The full node list, joiner included (as a not-yet-joined
    /// reservation).
    pub topology: Topology,
    /// The cluster's slate-store host, so the joiner wires itself to the
    /// same store the handoff flushes went to (a joiner without it would
    /// fault nothing and silently reset every moved slate).
    pub store_host: Option<usize>,
}

/// One node's view of the cluster's membership.
#[derive(Clone, Debug)]
pub struct MembershipView {
    /// The installed membership epoch.
    pub epoch: u64,
    /// An epoch this node has prepared and not yet committed: set for
    /// the instant a join takes, or for good when one is stuck.
    pub staged_epoch: Option<u64>,
    /// The committed machine-ring members, sorted.
    pub members: Vec<MachineId>,
    /// Every node with an id — reservations that are in no ring included.
    pub nodes: Vec<NodeSpec>,
    /// Machines known failed.
    pub failed: Vec<MachineId>,
}

/// Registered operator implementations for a workflow.
#[derive(Default)]
pub struct OperatorSet {
    mappers: Vec<Arc<dyn Mapper>>,
    updaters: Vec<Arc<dyn Updater>>,
}

impl OperatorSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a map function implementation.
    pub fn mapper(mut self, m: impl Mapper) -> Self {
        self.mappers.push(Arc::new(m));
        self
    }

    /// Add an update function implementation.
    pub fn updater(mut self, u: impl Updater) -> Self {
        self.updaters.push(Arc::new(u));
        self
    }

    /// Add a pre-boxed mapper.
    pub fn mapper_arc(mut self, m: Arc<dyn Mapper>) -> Self {
        self.mappers.push(m);
        self
    }

    /// Add a pre-boxed updater.
    pub fn updater_arc(mut self, u: Arc<dyn Updater>) -> Self {
        self.updaters.push(u);
        self
    }
}

/// Resolved operator instance.
enum OpInstance {
    Map(Arc<dyn Mapper>),
    Update { updater: Arc<dyn Updater>, name: Arc<str>, ttl_secs: Option<u64> },
}

/// A queued event with the engine-relative µs at which the queue-wait span
/// sampled its enqueue (0 = unsampled). The mark is stamped on delivery
/// and never crosses the wire.
type Queued = (WireEvent, u64);

/// Per-machine state. A machine of another process is a stub for
/// ring/liveness state, without queues or caches.
struct Machine {
    alive: AtomicBool,
    queues: Vec<Arc<EventQueue<Queued>>>,
    /// Route each thread is currently processing (two-choice rule 1).
    /// Encoding: 0 = idle, otherwise `route.wrapping_add(1)` — lock-free
    /// because the dispatcher reads these on every send.
    in_flight: Vec<AtomicU64>,
    /// 2.0: one central cache. 1.0: per-thread caches (None for mapper
    /// threads).
    central_cache: Option<Arc<SlateCache>>,
    worker_caches: Vec<Option<Arc<SlateCache>>>,
    /// 1.0: the single op each thread runs (None in 2.0).
    thread_ops: Vec<Option<OpId>>,
}

impl Machine {
    /// The slate cache worker `thread` updates through: the machine's
    /// central cache (2.0) or the worker's own (1.0; `None` on a mapper
    /// thread).
    fn cache_of(&self, thread: usize) -> Option<&Arc<SlateCache>> {
        self.central_cache.as_ref().or_else(|| self.worker_caches.get(thread)?.as_ref())
    }

    /// The slate cache that holds `op`'s slates placed at `at` on this
    /// machine (1.0: only if the placement's thread does run `op`).
    fn cache_at(&self, op: OpId, at: Placement) -> Option<&Arc<SlateCache>> {
        match at.thread {
            None => self.central_cache.as_ref(),
            Some(t) if self.thread_ops.get(t) == Some(&Some(op)) => self.worker_caches[t].as_ref(),
            Some(_) => None,
        }
    }

    /// Every slate cache this machine owns.
    fn caches(&self) -> impl Iterator<Item = &Arc<SlateCache>> {
        self.central_cache.iter().chain(self.worker_caches.iter().flatten())
    }

    /// A stub for a machine that lives in another process.
    fn remote_stub() -> Machine {
        Machine {
            alive: AtomicBool::new(true),
            queues: Vec::new(),
            in_flight: Vec::new(),
            central_cache: None,
            worker_caches: Vec::new(),
            thread_ops: Vec::new(),
        }
    }

    /// A machine that lives in this process. `bound` is Muppet 1.0's
    /// thread→function binding ([`Rings::bound_ops`]): one thread per
    /// entry, each updater thread with a private cache holding an even
    /// share of the machine's budget (§4.5). `None` is Muppet 2.0: a pool
    /// of `workers_per_machine` threads over one central, sharded cache.
    fn new(
        bound: Option<&[OpId]>,
        wf: &Workflow,
        cfg: &EngineConfig,
        backend: &Arc<dyn SlateBackend>,
        metrics: &CacheMetrics,
        logger: &Arc<Logger>,
    ) -> Machine {
        let hot_keys = if cfg.metrics { HOT_KEY_CAPACITY } else { 0 };
        let cache = |capacity: usize, shards: usize| {
            let backend = Arc::clone(backend);
            Arc::new(
                SlateCache::with_metrics(capacity, cfg.flush, backend, shards, metrics.clone())
                    .with_flush_batch(cfg.flush_batch_max)
                    .with_store_codec(cfg.wire_codec.store_codec())
                    .with_hot_keys(hot_keys, cfg.latency_sample_n.max(1))
                    .with_logger(Arc::clone(logger)),
            )
        };
        let updates = |op: &OpId| wf.op(*op).kind == OpKind::Update;
        // A 1.0 machine can end up with no worker at all (more machines
        // than worker slots); it keeps one idle thread so every per-thread
        // vector has an entry.
        let threads = bound.map_or(cfg.workers_per_machine, <[OpId]>::len).max(1);
        let mut thread_ops: Vec<Option<OpId>> =
            bound.unwrap_or(&[]).iter().map(|&op| Some(op)).collect();
        thread_ops.resize(threads, None);
        let updater_threads = thread_ops.iter().flatten().filter(|op| updates(op)).count();
        let per_worker = (cfg.slate_cache_capacity / updater_threads.max(1)).max(1);
        Machine {
            alive: AtomicBool::new(true),
            queues: (0..threads).map(|_| Arc::new(EventQueue::new(cfg.queue_capacity))).collect(),
            in_flight: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            central_cache: bound
                .is_none()
                .then(|| cache(cfg.slate_cache_capacity, cfg.cache_shards.max(1))),
            worker_caches: thread_ops
                .iter()
                .map(|op| op.as_ref().filter(|op| updates(op)).map(|_| cache(per_worker, 1)))
                .collect(),
            thread_ops,
        }
    }
}

/// Keys tracked per cache shard by the space-saving hot-key sketch.
const HOT_KEY_CAPACITY: usize = 64;

/// Cooling-probe window for split hot keys: a key whose rewrite traffic
/// over one window falls below half `hot_split_threshold` collapses back
/// to base-key routing (its subslates persist and keep merging on read).
const SPLIT_COOL_WINDOW_US: u64 = 250_000;

/// Dynamic hot-key fan-out state. The owner-side detector installs a
/// combining ⟨op, key⟩ here when the cache's space-saving sketch
/// estimates its event count past [`EngineConfig::hot_split_threshold`];
/// while installed, senders and owners rewrite the key round-robin to
/// one of [`crate::dispatch::SPLIT_WAYS`] ring-distributed subkeys.
/// Reads merge base + subslates through the declared combiner, so the
/// split is invisible to exactness. Subkeys are ordinary keys to every
/// other subsystem (handoff, flush, recovery) — no epoch special-casing.
struct SplitTracker {
    /// Actively split ⟨op, key⟩ pairs. Touched on the rewrite path only
    /// when `active > 0`, so unsplit workloads never take the lock.
    map: RwLock<HashMap<(OpId, Key), Arc<SplitEntry>>>,
    /// Fast-path gate: the number of entries in `map`.
    active: AtomicU64,
    /// Sampled-probe counter for the hot detector (one sketch estimate
    /// per `SPLIT_PROBE_EVERY` update events).
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

/// One hot-key sketch probe per this many update events: keeps the
/// steady detector cost to a relaxed `fetch_add`.
const SPLIT_PROBE_EVERY: u64 = 64;

/// A batch-fold run that absorbed at least this many events probes the
/// splitter unconditionally — coalescing that deep is itself the skew
/// signal, and the carrier-level probe above undersamples keys the fold
/// has already collapsed.
const SPLIT_FOLD_PROBE_MIN: u64 = 8;

struct Shared {
    wf: Workflow,
    ops: Vec<OpInstance>,
    cfg: EngineConfig,
    /// Per-machine state; grows when machines join (ids are append-only).
    machines: RwLock<Vec<Arc<Machine>>>,
    /// The routing state: the committed epoch's rings and, mid-join, the
    /// staged epoch's. ONE lock over all of it — updaters hold the read
    /// lock across a slate mutation, so a transition (write lock) is
    /// atomic with respect to every in-flight update: once it returns, no
    /// worker can still be mutating a slate the node just handed off.
    membership: RwLock<Membership>,
    /// The full cluster node list, reservations included (authoritative
    /// on the master; grown from membership updates elsewhere).
    cluster_nodes: Mutex<Vec<NodeSpec>>,
    /// Serializes join reservations + protocol runs on the master.
    join_lock: Mutex<()>,
    /// Highest epoch this master has ever handed out (monotone even
    /// across aborted joins — a staged-but-never-committed epoch must
    /// never be reused with different content).
    epoch_mint: AtomicU64,
    /// The wire to the other processes of a TCP cluster; `None`
    /// in-process, where every machine is local.
    wire: Option<Arc<TcpTransport>>,
    /// TCP mode: the locally hosted store service, served to peers via
    /// the transport's store frames.
    host_store: Option<Arc<StoreCluster>>,
    /// The slate backend every cache flushes to / loads from (also the
    /// read fallback when a slate's owner is unreachable, §4.4).
    backend: Arc<dyn SlateBackend>,
    /// Whether `backend` actually persists (false for [`NullBackend`]):
    /// decides whether elastic handoff goes through the store or moves
    /// slots directly between in-process caches.
    has_backend: bool,
    master: Master,
    /// Events enqueued but not yet fully processed.
    pending: AtomicI64,
    /// Submitted runs between their ingest-log write and the end of their
    /// dispatch: `drain` waits for them as for `pending`.
    dispatching: AtomicU64,
    /// A recovery line is running: two would store their cursors out of
    /// order.
    checkpointing: AtomicBool,
    stopping: AtomicBool,
    /// Every count the engine records (`Engine::stats`, `GET /metrics`).
    stats: Stats,
    /// Leveled incident logger (peer deaths, flush failures). Disabled
    /// (`Level::Off`) unless the config raises it.
    logger: Arc<Logger>,
    /// Peers whose death was already logged through `logger`: §4.3
    /// detection can fire concurrently from the sync-send, forward, and
    /// batch-sender paths for one incident; this set makes the
    /// operator-facing record exactly-once while the [`DropLog`] ring
    /// keeps its per-event entries.
    logged_peer_deaths: Mutex<HashSet<usize>>,
    drop_log: DropLog,
    start: Instant,
    /// Source-throttling gate: producers wait here when queues are full.
    throttle_mutex: Mutex<()>,
    throttle_cv: Condvar,
    /// The per-machine ingest WAL (`None` = the paper's §4.3 semantics:
    /// in-flight work dies with the machine).
    ingest_log: Option<Arc<IngestLog>>,
    /// Poison events parked instead of killing worker threads.
    dlq: DeadLetterQueue,
    /// Dynamic hot-key splitting state (empty unless `cfg.combine` and
    /// `cfg.hot_split_threshold > 0` ever install a split).
    splits: SplitTracker,
}

impl Shared {
    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn machine(&self, id: usize) -> Option<Arc<Machine>> {
        self.machines.read().get(id).cloned()
    }

    fn machines_snapshot(&self) -> Vec<Arc<Machine>> {
        self.machines.read().clone()
    }

    /// Whether machine `m` lives in this process — every machine
    /// in-process, only the wire's own over TCP. The engine's one
    /// locality answer: the wire is called only when it is false.
    fn is_local(&self, m: MachineId) -> bool {
        self.wire.as_ref().is_none_or(|wire| wire.local() == m)
    }

    /// The machine this process runs (`None` in-process).
    fn local_machine(&self) -> Option<MachineId> {
        self.wire.as_ref().map(|wire| wire.local())
    }

    /// Events the wire accepted for another process and has not sent yet.
    fn outbound_backlog(&self) -> usize {
        self.wire.as_ref().map_or(0, |wire| wire.outbound_backlog())
    }

    /// Ask the wire to send what it holds for `peers` now.
    fn flush_events(&self, peers: &[MachineId]) {
        if let Some(wire) = &self.wire {
            wire.flush_events(peers);
        }
    }

    /// Make machine `id` reachable again: its wire outbox, if another
    /// process runs it, and its liveness flag.
    fn revive(&self, id: MachineId) {
        if let Some(wire) = &self.wire {
            wire.revive_peer(id);
        }
        if let Some(machine) = self.machine(id) {
            machine.alive.store(true, Ordering::Release);
        }
    }

    /// Every slate cache of every machine this process holds.
    fn caches(&self) -> Vec<Arc<SlateCache>> {
        self.machines_snapshot().iter().flat_map(|m| m.caches().cloned()).collect()
    }

    /// The stats snapshot: the registry's handles, with `caches`' and this
    /// node's gauges.
    fn snapshot(&self, caches: &[Arc<SlateCache>]) -> EngineStats {
        EngineStats {
            epoch: self.epoch(),
            uptime_s: self.start.elapsed().as_secs(),
            machine_id: self.local_machine(),
            pending: self.pending.load(Ordering::Acquire),
            split_keys_active: self.splits.active.load(Ordering::Acquire),
            ingest_wal: self.ingest_log.as_ref().map(|log| log.view()),
            store_wal_syncs: self.host_store.as_ref().map(|store| store.wal_sync_count()),
            dlq_depth: self.dlq.depth() as u64,
            ..self.stats.read(caches, self.wire.as_deref())
        }
    }

    /// Flush every dirty slate of every live machine (dead machines lost
    /// theirs, §4.3). Returns how many slates are still dirty afterwards
    /// (quorum failure, dead store host).
    fn flush_live_caches(&self) -> u64 {
        let now = self.now_us();
        let mut dirty_left = 0;
        for m in &self.machines_snapshot() {
            if !m.alive.load(Ordering::Acquire) {
                continue;
            }
            for cache in m.caches() {
                // Barriers restore capacity too: victims still waiting for
                // eviction are written by the sweep and retired after it.
                cache.flush_dirty(now);
                cache.retire_evicted(now);
                dirty_left += cache.dirty_count();
            }
        }
        dirty_left
    }

    /// Whether dynamic hot-key splitting is configured on.
    fn split_enabled(&self) -> bool {
        self.cfg.combine && self.cfg.hot_split_threshold > 0
    }

    /// Rewrite path: the round-robin subkey for an actively split
    /// ⟨op, key⟩, `None` when the pair is not split. Each rewrite bumps
    /// the entry's cooling window; a window whose rewrite traffic fell
    /// below half the threshold collapses the entry — routing reverts
    /// to the base key while the subslates persist (reads keep merging
    /// them, so no update is ever lost to a collapse).
    fn split_route(&self, op: OpId, key: &Key) -> Option<Key> {
        if self.splits.active.load(Ordering::Acquire) == 0 {
            return None;
        }
        let entry = self.splits.map.read().get(&(op, key.clone())).cloned()?;
        let now = self.now_us();
        let opened = entry.window_us.load(Ordering::Acquire);
        if now.saturating_sub(opened) >= SPLIT_COOL_WINDOW_US
            && entry
                .window_us
                .compare_exchange(opened, now, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            let windowed = entry.hits.swap(0, Ordering::AcqRel);
            if windowed < self.cfg.hot_split_threshold / 2 {
                let id = (op, key.clone());
                if self.splits.map.write().remove(&id).is_some() {
                    self.splits.active.fetch_sub(1, Ordering::AcqRel);
                }
                let mut floors = self.splits.floors.lock();
                if floors.len() >= HOT_KEY_CAPACITY {
                    if let Some(old) = floors.keys().next().cloned() {
                        floors.remove(&old);
                    }
                }
                floors.insert(id, None);
                return None;
            }
        }
        entry.hits.fetch_add(1, Ordering::Relaxed);
        let shard = entry.rr.fetch_add(1, Ordering::Relaxed) as usize % crate::dispatch::SPLIT_WAYS;
        Some(crate::dispatch::split_subkey(key, shard))
    }

    /// Owner-side hot detector: install a split for a combining
    /// ⟨op, key⟩ whose sketch estimate crossed the threshold. Probes the
    /// sketch once per [`SPLIT_PROBE_EVERY`] update events; callers
    /// exclude subkeys (a split never recurses).
    fn maybe_split(&self, cache: &SlateCache, op: OpId, key: &Key) {
        if !self.splits.probe.fetch_add(1, Ordering::Relaxed).is_multiple_of(SPLIT_PROBE_EVERY) {
            return;
        }
        self.probe_split(cache, op, key);
    }

    /// Unconditional sketch check. The batch-fold path calls this
    /// directly for runs it just coalesced past the fold-probe floor:
    /// under deep folding a hot key surfaces as a handful of carriers,
    /// so the sampled per-event probe above would almost never land on
    /// it — but the absorbed count *is* the heat signal, already paid
    /// for.
    fn probe_split(&self, cache: &SlateCache, op: OpId, key: &Key) {
        let Some(est) = cache.hot_estimate(op, key) else { return };
        if est < self.cfg.hot_split_threshold {
            return;
        }
        let id = (op, key.clone());
        let floor = match self.splits.floors.lock().get_mut(&id) {
            Some(floor) => *floor.get_or_insert(est),
            None => 0,
        };
        if est.saturating_sub(floor) < self.cfg.hot_split_threshold {
            return;
        }
        self.splits.floors.lock().remove(&id);
        let mut map = self.splits.map.write();
        if let std::collections::hash_map::Entry::Vacant(v) = map.entry(id) {
            let now = self.now_us();
            v.insert(Arc::new(SplitEntry {
                rr: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                window_us: AtomicU64::new(now),
            }));
            self.splits.active.fetch_add(1, Ordering::AcqRel);
        }
    }

    fn epoch(&self) -> u64 {
        self.membership.read().epoch()
    }

    /// Total events the cluster's queues are sized to hold; the source-
    /// throttling high-water mark.
    fn total_queue_budget(&self) -> usize {
        self.machines.read().iter().map(|m| m.queues.len() * self.cfg.queue_capacity).sum()
    }

    /// The store key under which this machine checkpoints its ingest
    /// replay cursor. Rides the slate backend as a reserved ⟨column,
    /// row⟩ pair, so cursor durability shares the store's quorum/WAL
    /// guarantees without a second persistence mechanism.
    fn ingest_cursor_key(&self) -> Key {
        let id = self.local_machine().unwrap_or(0);
        Key::from(format!("node-{id}"))
    }

    /// The checkpointed replay cursor: events `0..cursor` of the ingest
    /// WAL are already reflected in store-recovered slates. No cell is 0;
    /// a cell that is not a number is an error, not 0.
    fn load_ingest_cursor(&self) -> Result<u64> {
        let key = self.ingest_cursor_key();
        let Some(cell) = self.backend.load(INGEST_CURSOR_COLUMN, &key, self.now_us()) else {
            return Ok(0);
        };
        let text = String::from_utf8_lossy(&cell);
        let unreadable = |_| Error::Config(format!("unreadable ingest replay cursor {text:?}"));
        text.trim().parse().map_err(unreadable)
    }

    /// Persist the replay cursor. Returns false if the store rejected
    /// the write (the caller must not treat the checkpoint as taken).
    fn store_ingest_cursor(&self, cursor: u64) -> bool {
        self.backend.store(
            INGEST_CURSOR_COLUMN,
            &self.ingest_cursor_key(),
            cursor.to_string().as_bytes(),
            Codec::Json,
            None,
            self.now_us(),
        )
    }
}

/// A running Muppet engine.
pub struct Engine {
    shared: Arc<Shared>,
    /// Keeps the wire's weak handler registration alive (TCP mode).
    _handler: Arc<EngineHandler>,
    /// TCP mode: the node's frame listener (stopped on shutdown/drop).
    listener: Mutex<Option<TcpListenerHandle>>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    flushers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Engine {
    /// Start an engine for `workflow` with the given operator
    /// implementations. `store` attaches the durable slate store; without
    /// it, slates exist only in the caches (unless
    /// [`EngineConfig::store_host`] points at a remote store service).
    pub fn start(
        workflow: Workflow,
        ops: OperatorSet,
        cfg: EngineConfig,
        store: Option<Arc<StoreCluster>>,
    ) -> Result<Engine> {
        Self::start_with_ingest_sync(workflow, ops, cfg, store, None)
    }

    /// [`Engine::start`] with the ingest WAL's sync step replaced (`None`
    /// = the real one) — the test seam of [`IngestLog::open_with_sync`],
    /// nothing wider.
    #[doc(hidden)]
    pub fn start_with_ingest_sync(
        workflow: Workflow,
        ops: OperatorSet,
        cfg: EngineConfig,
        store: Option<Arc<StoreCluster>>,
        ingest_sync: Option<SyncFn>,
    ) -> Result<Engine> {
        // Build the wire first: machine materialization below depends on
        // which machines are local.
        let wire = match &cfg.transport {
            TransportKind::InProcess => None,
            TransportKind::Tcp { topology, local } => {
                if topology.len() != cfg.machines {
                    return Err(Error::Config(format!(
                        "topology has {} nodes but EngineConfig.machines = {}",
                        topology.len(),
                        cfg.machines
                    )));
                }
                let batch = BatchConfig {
                    batch_max: cfg.net_batch_max,
                    flush_us: cfg.net_flush_us,
                    // Bound each peer outbox like a worker queue: the
                    // backlog participates in the same throttle budget.
                    queue_capacity: cfg.queue_capacity.max(1),
                };
                let wire =
                    TcpTransport::new_with_codec(topology.clone(), *local, batch, cfg.wire_codec)
                        .map_err(Error::Config)?;
                Some(wire)
            }
        };
        let local = wire.as_ref().map(|wire| wire.local());

        // Pick the slate backend: a directly attached store, a remote
        // store service reached through the wire, or nothing.
        let remote_host = cfg.store_host.filter(|&host| local.is_some_and(|l| l != host));
        let backend: Arc<dyn SlateBackend> = match (&store, remote_host, &wire) {
            (Some(cluster), _, _) => Arc::clone(cluster) as Arc<dyn SlateBackend>,
            (None, Some(host), Some(wire)) => {
                Arc::new(RemoteBackend::new(Arc::clone(wire) as Arc<dyn Transport>, host))
            }
            _ => Arc::new(NullBackend),
        };
        let has_backend = store.is_some() || remote_host.is_some();

        // Resolve operator implementations against the workflow.
        let mut instances: Vec<Option<OpInstance>> =
            (0..workflow.ops().len()).map(|_| None).collect();
        for m in ops.mappers {
            let id = workflow
                .op_id(m.name())
                .ok_or_else(|| Error::UnknownOperator(m.name().to_string()))?;
            if workflow.op(id).kind != OpKind::Map {
                return Err(Error::OperatorMismatch {
                    expected: "a map function".into(),
                    got: m.name().to_string(),
                });
            }
            instances[id] = Some(OpInstance::Map(m));
        }
        for u in ops.updaters {
            let id = workflow
                .op_id(u.name())
                .ok_or_else(|| Error::UnknownOperator(u.name().to_string()))?;
            if workflow.op(id).kind != OpKind::Update {
                return Err(Error::OperatorMismatch {
                    expected: "an update function".into(),
                    got: u.name().to_string(),
                });
            }
            let ttl = workflow.op(id).ttl_secs.or(u.slate_ttl_secs());
            let name: Arc<str> = Arc::from(u.name());
            instances[id] = Some(OpInstance::Update { updater: u, name, ttl_secs: ttl });
        }
        let ops: Vec<OpInstance> = instances
            .into_iter()
            .enumerate()
            .map(|(id, inst)| {
                inst.ok_or_else(|| Error::UnknownOperator(workflow.op(id).name.clone()))
            })
            .collect::<Result<_>>()?;

        // Built before the machines, so every cache records into the
        // engine's handles from the first event.
        let stats = Stats::new(&workflow, &cfg);
        let logger = if cfg.log_level == Level::Off {
            Logger::disabled()
        } else {
            Logger::stderr(cfg.log_level, cfg.log_json, local.map(|m| m as u64))
        };
        if let Some(wire) = &wire {
            // A closed connection is all a node running another binary, or
            // one behind a corrupting link, ever sees of this one, and its
            // own log blames a dead peer.
            let logger = Arc::clone(&logger);
            wire.on_rejected(move |peer, offered| {
                logger.warn(
                    "closed a connection: no hello of this node's protocol version, or a bad frame",
                    &[
                        ("peer", peer.to_string().into()),
                        ("offered", offered.map_or("none".into(), |v| v.to_string()).into()),
                        ("protocol_version", muppet_net::frame::PROTOCOL_VERSION.into()),
                    ],
                );
            });
        }

        // The rings this node starts from. Founding members put every
        // machine in; a joiner starts from its grant's view: not itself
        // (it enters with its own commit), not machines already known
        // failed, not ids that are still mere reservations.
        let view = cfg.joining.as_ref();
        let base = view.map_or(cfg.machines, |v| v.base).clamp(1, cfg.machines.max(1));
        let slotted = (cfg.kind == EngineKind::Muppet1)
            .then(|| (workflow.ops().len(), cfg.workers_per_op.max(1)));
        let mut rings = Rings::new(base, slotted);
        rings.ensure_slots(cfg.machines);
        let in_ring = |m: usize| {
            view.is_none_or(|v| {
                local != Some(m) && !v.failed.contains(&m) && v.members.contains(&m)
            })
        };
        (0..cfg.machines).filter(|&m| in_ring(m)).for_each(|m| rings.add_machine(m));
        let failed: &[usize] = view.map_or(&[], |v| &v.failed);
        let machines: Vec<Arc<Machine>> = (0..cfg.machines)
            .map(|m| {
                let machine = if local.is_none_or(|l| l == m) {
                    Machine::new(
                        rings.bound_ops(m).as_deref(),
                        &workflow,
                        &cfg,
                        &backend,
                        &stats.cache,
                        &logger,
                    )
                } else {
                    Machine::remote_stub()
                };
                machine.alive.store(!failed.contains(&m), Ordering::Release);
                Arc::new(machine)
            })
            .collect();

        // The authoritative node list (addresses for TCP; synthesized
        // placeholders in-process, where addressing is by id only).
        let cluster_nodes: Vec<NodeSpec> = match &cfg.transport {
            TransportKind::Tcp { topology, .. } => topology.nodes.clone(),
            TransportKind::InProcess => (0..cfg.machines)
                .map(|id| NodeSpec { id, host: "in-process".into(), port: 0, http_port: 0 })
                .collect(),
        };

        // Crash recovery: open (or create) the ingest WAL before anything
        // can accept events. A torn tail from a crash mid-append is cut
        // back to the last intact frame; the recovered history is
        // replayed past the checkpointed cursor once the workers are up.
        let (ingest_log, ingest_recovery) = match &cfg.ingest_wal {
            Some(path) => {
                let (mut log, rec) =
                    IngestLog::open_with_sync(path, cfg.ingest_sync_each, ingest_sync)
                        .map_err(|e| Error::Config(format!("cannot open ingest WAL: {e}")))?;
                if let Some(hist) = &stats.stages.wal_sync {
                    // Every group commit's fsync wall time: the floor of
                    // ack latency.
                    log.record_sync_latency(Arc::clone(hist));
                }
                (Some(Arc::new(log)), Some(rec))
            }
            None => (None, None),
        };

        let initial_epoch = view.map_or(0, |v| v.epoch);
        let initial_failed = failed.to_vec();
        let shared = Arc::new(Shared {
            membership: RwLock::new(Membership::new(initial_epoch, rings)),
            cluster_nodes: Mutex::new(cluster_nodes),
            join_lock: Mutex::new(()),
            epoch_mint: AtomicU64::new(initial_epoch),
            wf: workflow,
            ops,
            machines: RwLock::new(machines),
            wire,
            host_store: store.clone(),
            backend,
            has_backend,
            master: Master::new(),
            pending: AtomicI64::new(0),
            dispatching: AtomicU64::new(0),
            checkpointing: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            stats,
            logger,
            logged_peer_deaths: Mutex::new(HashSet::new()),
            drop_log: DropLog::new(1024),
            start: Instant::now(),
            throttle_mutex: Mutex::new(()),
            throttle_cv: Condvar::new(),
            ingest_log,
            dlq: DeadLetterQueue::new(DLQ_CAPACITY),
            splits: SplitTracker {
                map: RwLock::new(HashMap::new()),
                active: AtomicU64::new(0),
                probe: AtomicU64::new(0),
                floors: Mutex::new(HashMap::new()),
            },
            cfg,
        });
        for failed in initial_failed {
            shared.master.mark_failed(failed, initial_epoch);
        }
        register_collector(&shared);

        // Wire the other processes' traffic into this engine.
        let handler = Arc::new(EngineHandler(Arc::clone(&shared)));
        if let Some(wire) = &shared.wire {
            wire.register(Arc::downgrade(&handler) as std::sync::Weak<dyn ClusterHandler>);
        }

        // Spawn worker threads (local machines only; remote stubs have no
        // queues).
        let mut threads = Vec::new();
        {
            let machines = shared.machines.read();
            for m in 0..machines.len() {
                for t in 0..machines[m].queues.len() {
                    threads.push(spawn_worker(&shared, m, t));
                }
            }
        }
        // Spawn background flusher threads (one per local machine) when the
        // policy is interval-based and a backend (direct or remote) is
        // attached. With an ingest WAL the flushers stay parked: store
        // slate state may only advance together with the replay cursor
        // (at `Engine::checkpoint`), or a restart would replay events
        // whose effects were already flushed and double-count them.
        let mut flushers = Vec::new();
        if matches!(shared.cfg.flush, FlushPolicy::IntervalMs(_))
            && has_backend
            && shared.ingest_log.is_none()
        {
            let machines = shared.machines.read();
            for m in (0..machines.len()).filter(|&m| shared.is_local(m)) {
                flushers.push(spawn_flusher(&shared, m));
            }
        }
        // TCP mode: open this node's inbound wire last, so peers never see
        // a half-initialized engine.
        let listener = match &shared.wire {
            Some(wire) => Some(
                wire.start_listener()
                    .map_err(|e| Error::Config(format!("cannot bind event listener: {e}")))?,
            ),
            None => None,
        };
        let engine = Engine {
            shared,
            _handler: handler,
            listener: Mutex::new(listener),
            threads: Mutex::new(threads),
            flushers: Mutex::new(flushers),
        };
        // Replay the ingest suffix past the checkpointed cursor: the
        // store recovered the slates as of the last checkpoint, so only
        // events logged after it are re-injected. A node that was
        // checkpointed at shutdown (SIGTERM) replays nothing.
        if let Some(Err(e)) = ingest_recovery.map(|recovery| engine.replay_recovered(recovery)) {
            engine.stop();
            return Err(e);
        }
        Ok(engine)
    }

    /// Re-inject the ingest-WAL suffix past the persisted cursor. The
    /// replayed events fan out exactly like fresh submissions — same
    /// routing, same seq assignment order — but are *not* re-appended to
    /// the WAL (they are already in it) and count as `recovered`, not
    /// `submitted`. A cursor the log cannot honour is refused; segments a
    /// crash left below it are deleted first.
    fn replay_recovered(&self, recovery: IngestRecovery) -> Result<()> {
        let shared = &self.shared;
        let cursor = shared.load_ingest_cursor()?;
        let (logged, truncated) = (recovery.events, recovery.truncated);
        let refused = |e| Error::Config(format!("cannot replay ingest WAL: {e}"));
        let events = recovery.events_after(cursor).map_err(refused)?;
        if let (true, Some(log)) = (shared.has_backend, &shared.ingest_log) {
            log.release_below(cursor).map_err(refused)?;
        }
        let replayed = events.len() as u64;
        for event in events {
            fan_out(shared, fresh(event, shared.now_us(), false, true), &mut Vec::new());
        }
        shared.stats.ingest_replayed.add(replayed);
        if replayed > 0 || truncated {
            shared.logger.warn(
                "ingest WAL recovery",
                &[
                    ("logged", logged.into()),
                    ("cursor", cursor.into()),
                    ("replayed", replayed.into()),
                    ("torn_tail", u64::from(truncated).into()),
                ],
            );
        }
        Ok(())
    }

    /// Inject one external event (the paper's special source mapper M0
    /// reading the input stream, §4.1). Routes to every subscriber of
    /// `event.stream`, which must be a declared external stream.
    ///
    /// Under [`OverflowPolicy::SourceThrottle`], this call *blocks* while
    /// the cluster is backlogged beyond its aggregate queue budget — the
    /// §5 source throttling: "Muppet ... can slow down the pace at which
    /// it consumes events from its input streams ... until the hotspot
    /// updater has a chance to catch up." Internal events never block
    /// (§5's deadlock argument), so a *downstream* hotspot surfaces here,
    /// at the source, via the global in-flight count.
    ///
    /// With an ingest WAL the event is **logged before dispatch, durable
    /// before `Ok`**: its record is written to the log file, workers start
    /// on it, and the call returns once an fsync covers the record. `Err`
    /// from a failed fsync means the event was dispatched but not
    /// accepted; the log is poisoned and every later submit fails
    /// ([`Error::IngestLog`]).
    pub fn submit(&self, event: Event) -> Result<()> {
        self.submit_run([event])
    }

    /// Submit a coalesced run of external events — the ingest twin of
    /// the transport outbox's frame batching. Semantically identical to
    /// calling [`Engine::submit`] per event — logged before dispatch,
    /// durable before `Ok` — but both lines are drawn once: the whole run
    /// enters the ingest WAL with one `write` and shares one fsync
    /// ([`IngestLog::write_batch`], [`IngestLog::wait_durable`]), so
    /// sources that deliver in frames pay the fsync tax per frame, not
    /// per event. Source throttling is checked once at the head of the
    /// run; like `submit`, events are only accepted from external
    /// streams.
    pub fn submit_many(&self, events: Vec<Event>) -> Result<()> {
        self.submit_run(events)
    }

    /// `submit` and `submit_many`: validate → transcode → throttle → log →
    /// dispatch → wait durable, over a run held in an array or a `Vec`.
    fn submit_run(&self, mut run: impl AsMut<[Event]> + IntoIterator<Item = Event>) -> Result<()> {
        let events = run.as_mut();
        if let Some(bad) = events.iter().find(|e| !self.shared.wf.is_external(e.stream.as_str())) {
            return Err(Error::ExternalStreamViolation(bad.stream.as_str().to_string()));
        }
        events.iter_mut().for_each(|event| self.mbf_ingest(event));
        self.throttle_source();
        // Counted from before the write, so a recovery line whose rotation
        // took this run below its cursor finds it here until it is queued.
        self.shared.dispatching.fetch_add(1, Ordering::AcqRel);
        let logged = self.log_accepted(events);
        if logged.is_ok() {
            self.dispatch_accepted(run);
        }
        self.shared.dispatching.fetch_sub(1, Ordering::AcqRel);
        self.wait_durable(logged?)
    }

    /// §5 source throttling, the head of `submit` / `submit_many`: under
    /// [`OverflowPolicy::SourceThrottle`], block while the cluster is
    /// backlogged beyond its aggregate queue budget.
    fn throttle_source(&self) {
        if self.shared.cfg.overflow != OverflowPolicy::SourceThrottle {
            return;
        }
        let budget = self.shared.total_queue_budget() as i64;
        // The in-flight count includes the transport's outbound backlog
        // (TCP mode): events parked in per-peer batching outboxes are
        // cluster load exactly like queued events, so a slow wire
        // throttles the source instead of growing buffers.
        while self.shared.pending.load(Ordering::Acquire) + self.shared.outbound_backlog() as i64
            > budget
        {
            if self.shared.stopping.load(Ordering::Acquire) {
                break;
            }
            self.shared.stats.throttle_waits.inc();
            let mut guard = self.shared.throttle_mutex.lock();
            self.shared.throttle_cv.wait_for(&mut guard, Duration::from_millis(1));
        }
    }

    /// The *logged* line: write the accepted run to the ingest WAL (no
    /// fsync) before any worker can see it, so every event a worker ever
    /// saw is in the file and a process crash from here on replays it.
    /// Returns the watermark [`Engine::wait_durable`] must reach before
    /// the ack. A failed write dispatches nothing.
    fn log_accepted(&self, events: &[Event]) -> Result<u64> {
        let Some(log) = &self.shared.ingest_log else {
            return Ok(0);
        };
        let seq = log.write_batch(events).map_err(|e| Error::IngestLog(e.to_string()))?;
        self.shared.stats.ingest_logged.add(events.len() as u64);
        Ok(seq)
    }

    /// The *durable* line: `Ok` — the caller's ack — only once an fsync
    /// covers the first `seq` log records. Workers are already on the
    /// events while the disk syncs; group commit lets concurrent
    /// submitters share one fsync.
    fn wait_durable(&self, seq: u64) -> Result<()> {
        match &self.shared.ingest_log {
            Some(log) => log.wait_durable(seq).map_err(|e| Error::IngestLog(e.to_string())),
            None => Ok(()),
        }
    }

    /// Ingest-edge transcoding: under `CodecChoice::Mbf` (explicit
    /// opt-in), container-shaped external event values (JSON
    /// objects/arrays) are rewritten to MBF once here — before the
    /// ingest-WAL append, so a crash replay redispatches the identical
    /// bytes — and every downstream `Json::from_payload` skips the text
    /// parser. This trades one parse+encode per event at the ingest edge
    /// for ~30% fewer bytes WAL-appended and framed downstream (PR 9), so
    /// it is not part of `Auto`: the default negotiates binary where it
    /// is free (slate materialization, store frames) and leaves submitted
    /// values untouched. Scalar and plain-text values (`"42"`, raw URLs)
    /// pass through untouched in every mode: applications read those via
    /// `value_str`, and the reference engine must observe the same text.
    fn mbf_ingest(&self, event: &mut Event) {
        if self.shared.cfg.wire_codec != CodecChoice::Mbf {
            return;
        }
        if !matches!(event.value.first(), Some(b'{') | Some(b'[')) {
            return;
        }
        if let Ok(json) = Json::parse_bytes(&event.value) {
            if let Ok(mbf) = json.to_mbf() {
                event.value = mbf.into();
            }
        }
    }

    /// Fan accepted (validated, WAL-logged) external events out to their
    /// streams' subscriber queues. The shared tail of `submit` and
    /// `submit_many`.
    ///
    /// What the call sends to remote peers is flushed at once iff the node
    /// had nothing in flight when it started (no queued or running event,
    /// empty outboxes) — Nagle's rule. An idle node has capacity to spare
    /// and the submission's latency is all that matters; with work in
    /// flight the new events queue behind it anyway, and flushing them
    /// early only shreds the frames a busy node's batching exists to build
    /// (flushing at every submit tail cost a saturated closed-loop cache
    /// fill +23 %).
    fn dispatch_accepted(&self, events: impl IntoIterator<Item = Event>) {
        let shared = &self.shared;
        let idle = shared.pending.load(Ordering::Acquire) == 0 && shared.outbound_backlog() == 0;
        let mut touched = Vec::new();
        for event in events {
            let injected_us = shared.now_us();
            shared.stats.submitted.inc();
            fan_out(shared, fresh(event, injected_us, false, true), &mut touched);
            if shared.stats.stages.enabled && shared.stats.stages.sampler_ingest.hit() {
                // The ingest span: external injection → accepted by a queue
                // (or the transport's outbox) for every subscriber.
                shared.stats.stages.ingest.record(shared.now_us().saturating_sub(injected_us));
            }
        }
        if idle {
            shared.flush_events(&touched);
        }
    }

    /// Convenience: submit with the engine assigning the timestamp (µs
    /// since engine start).
    pub fn submit_kv(&self, stream: &str, key: Key, value: impl Into<Bytes>) -> Result<()> {
        let ts = self.shared.now_us();
        self.submit(Event::new(stream, ts, key, value))
    }

    /// Wait until all in-flight events finish (or `timeout` elapses) —
    /// including runs logged but not yet dispatched, and events still
    /// parked in the transport's outbound batching queues, which have not
    /// reached their destination machine yet. Returns true on a full
    /// drain.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        // `dispatching` first: a run it no longer counts has queued its
        // events, so `pending` read after it sees them.
        while self.shared.dispatching.load(Ordering::Acquire) > 0
            || self.shared.pending.load(Ordering::Acquire) > 0
            || self.shared.outbound_backlog() > 0
        {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }

    /// Read a slate's current value from the owning machine's cache —
    /// the §4.4 live read ("from Muppet's slate cache ... rather than from
    /// the durable key-value store to ensure an up-to-date reply"). When
    /// the owning machine lives in another process (TCP mode), the read
    /// crosses the wire as a `SlateGet` frame.
    ///
    /// A read addressed to a machine that has died (or was dropped from
    /// the ring between resolution and the wire call) does not surface as
    /// a failure: it falls back to the *current* owner and then to the
    /// durable store, so the client sees the last flushed value instead
    /// of an error — the §4.3 survivor-recovery path, applied to reads.
    pub fn read_slate(&self, updater: &str, key: &Key) -> Option<Vec<u8>> {
        let base = self.read_slate_unsplit(updater, key);
        let shared = &self.shared;
        if !shared.split_enabled() || crate::dispatch::split_base_of(key).is_some() {
            return base;
        }
        let Some(op) = shared.wf.op_id(updater) else { return base };
        let OpInstance::Update { updater: up, .. } = &shared.ops[op] else { return base };
        if !up.combines() {
            return base;
        }
        // Merge-on-read: a key that is (or ever was) split holds part of
        // its total in up to SPLIT_WAYS subslates; fold them into the
        // base value through the combiner. Collapsed keys keep their
        // subslate residue, so this runs whenever splitting is
        // configured — reads of never-split keys cost SPLIT_WAYS cache
        // misses only in that configuration.
        let mut acc = base;
        let mut merged = false;
        for shard in 0..crate::dispatch::SPLIT_WAYS {
            let sub = crate::dispatch::split_subkey(key, shard);
            if let Some(part) = self.read_slate_unsplit(updater, &sub) {
                merged = true;
                acc = match acc {
                    None => Some(part),
                    // Splitting requires a total combiner (the
                    // `Updater::combine` contract); on a veto keep the
                    // accumulated prefix rather than corrupt it.
                    Some(a) => Some(up.combine(&a, &part).unwrap_or(a)),
                };
            }
        }
        if merged {
            shared.stats.split_merge_reads.inc();
        }
        acc
    }

    /// [`Engine::read_slate`] without subslate merging: one key, one
    /// value (the pre-splitting read path, still the whole story for
    /// non-combining operators).
    fn read_slate_unsplit(&self, updater: &str, key: &Key) -> Option<Vec<u8>> {
        let op = self.shared.wf.op_id(updater)?;
        if self.shared.wf.op(op).kind != OpKind::Update {
            return None;
        }
        let first_owner = self.owner_machine(updater, key)?;
        match self.read_slate_from(first_owner, op, updater, key) {
            Ok(Some(bytes)) => Some(bytes),
            Ok(None) => {
                // The live owner has nothing cached (evicted, or freshly
                // handed the arc and not yet faulted): the store holds
                // the last flushed value — the §4.2 miss path, applied
                // to reads.
                self.shared.backend.load(updater, key, self.shared.now_us())
            }
            Err(_) => {
                // The owner was unreachable. The failed request may
                // already have driven the §4.3 protocol; re-resolve and
                // try the new owner once, then fall back to the store.
                let retried = self
                    .owner_machine(updater, key)
                    .filter(|&again| again != first_owner)
                    .and_then(|again| self.read_slate_from(again, op, updater, key).ok().flatten());
                retried.or_else(|| self.shared.backend.load(updater, key, self.shared.now_us()))
            }
        }
    }

    /// One read attempt against a specific machine's cache.
    fn read_slate_from(
        &self,
        owner: usize,
        op: OpId,
        updater: &str,
        key: &Key,
    ) -> std::result::Result<Option<Vec<u8>>, NetError> {
        let shared = &self.shared;
        match &shared.wire {
            Some(wire) if !shared.is_local(owner) => {
                wire.read_slate(owner, updater, key.as_bytes())
            }
            _ => {
                let Some(machine) = shared.machine(owner) else { return Ok(None) };
                if !machine.alive.load(Ordering::Acquire) {
                    return Err(NetError::Unreachable(owner));
                }
                Ok(read_cached(shared, owner, &machine, op, updater, key))
            }
        }
    }

    /// The machine whose rings currently own ⟨`updater`, `key`⟩ — where
    /// an event with that key would be routed and where its slate lives.
    /// `None` for unknown operators or once every owner has failed.
    pub fn owner_machine(&self, updater: &str, key: &Key) -> Option<usize> {
        let op = self.shared.wf.op_id(updater)?;
        let route = key.route_hash(updater);
        self.shared.membership.read().route(op, route).map(|at| at.machine)
    }

    /// All cached keys of one updater across machines (bulk reads, §5).
    pub fn cached_keys(&self, updater: &str) -> Vec<Key> {
        let Some(op) = self.shared.wf.op_id(updater) else { return Vec::new() };
        let mut keys = Vec::new();
        for m in &self.shared.machines_snapshot() {
            if !m.alive.load(Ordering::Acquire) {
                continue;
            }
            m.caches().for_each(|cache| keys.extend(cache.keys_of(op)));
        }
        keys.sort();
        keys.dedup();
        keys
    }

    /// Bulk-dump every *cached* slate of one updater — §5's "Bulk Reading
    /// of Slates" concern: "repeated HTTP slate fetches can be expensive
    /// ... or difficult (because the query agent must know all the slate
    /// keys in advance)". Returns ⟨key, bytes⟩ in key order; empty slates
    /// are skipped. Slates already evicted from the caches live only in
    /// the store (see `StoreCluster::scan_column` for that path).
    pub fn dump_slates(&self, updater: &str) -> Vec<(Key, Vec<u8>)> {
        let Some(op) = self.shared.wf.op_id(updater) else { return Vec::new() };
        let mut out = Vec::new();
        for m in &self.shared.machines_snapshot() {
            if !m.alive.load(Ordering::Acquire) {
                continue;
            }
            for cache in m.caches() {
                for key in cache.keys_of(op) {
                    if let Some(bytes) = cache.read(op, &key) {
                        out.push((key, bytes));
                    }
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out.dedup_by(|a, b| a.0 == b.0);
        out
    }

    /// Kill a machine abruptly: its queued events are lost, its threads
    /// stop, its unflushed slates are lost (§4.3). Routing updates lazily —
    /// the next send to the dead machine triggers the failure report.
    /// In TCP mode this only makes sense for the local machine (killing a
    /// peer means killing its process).
    pub fn kill_machine(&self, machine: usize) {
        if !self.shared.is_local(machine) {
            return;
        }
        let Some(m) = self.shared.machine(machine) else { return };
        if !m.alive.swap(false, Ordering::AcqRel) {
            return;
        }
        let mut lost = 0u64;
        for q in &m.queues {
            let dropped = q.drain_all();
            lost += dropped.len() as u64;
            q.notify();
        }
        self.shared.stats.lost_in_queues.add(lost);
        self.shared.pending.fetch_sub(lost as i64, Ordering::AcqRel);
    }

    /// Number of machines known (configured + joined).
    pub fn machine_count(&self) -> usize {
        self.shared.machines.read().len()
    }

    /// The membership epoch this node has installed.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch()
    }

    /// This node's view of the cluster (the `GET /membership` document).
    pub fn membership_view(&self) -> MembershipView {
        let nodes = self.shared.cluster_nodes.lock().clone();
        let failed = self.shared.master.failed_machines();
        let membership = self.shared.membership.read();
        MembershipView {
            epoch: membership.epoch(),
            staged_epoch: membership.staged_epoch(),
            members: membership.committed().members(),
            nodes,
            failed,
        }
    }

    /// In-process elastic growth: add one machine to the running
    /// simulated cluster and drive the full membership protocol — reserve,
    /// prepare (epoch-stamped, with the dirty slates of moved arcs handed
    /// off), commit. Returns the new machine's id. TCP clusters grow via
    /// `muppetd --join` instead.
    pub fn join_machine(&self) -> Result<usize> {
        let shared = &self.shared;
        if shared.wire.is_some() {
            return Err(Error::Config(
                "join_machine grows in-process clusters; TCP nodes join via `muppetd --join`"
                    .into(),
            ));
        }
        let id = {
            // The machine table only grows under this lock.
            let _serialize = shared.join_lock.lock();
            let id = shared.machines.read().len();
            let bound = shared.membership.read().committed().bound_ops(id);
            shared.machines.write().push(Arc::new(Machine::new(
                bound.as_deref(),
                &shared.wf,
                &shared.cfg,
                &shared.backend,
                &shared.stats.cache,
                &shared.logger,
            )));
            shared.cluster_nodes.lock().push(NodeSpec {
                id,
                host: "in-process".into(),
                port: 0,
                http_port: 0,
            });
            let machines = shared.machines.read();
            let mut threads = self.threads.lock();
            for t in 0..machines[id].queues.len() {
                threads.push(spawn_worker(shared, id, t));
            }
            if matches!(shared.cfg.flush, FlushPolicy::IntervalMs(_))
                && shared.has_backend
                && shared.ingest_log.is_none()
            {
                self.flushers.lock().push(spawn_flusher(shared, id));
            }
            id
        };
        // Announce readiness: this process's master runs the prepare →
        // handoff → commit protocol synchronously.
        run_join_protocol(shared, id);
        if !self.ring_contains(id) {
            return Err(Error::Config(format!("machine {id} failed to enter the rings")));
        }
        Ok(id)
    }

    /// Master-side admin (the HTTP `POST /join` endpoint): reserve a
    /// cluster id for a joining `muppetd`. The node is appended to the
    /// peer table — so the master can talk to it — but enters no ring
    /// until its engine announces readiness ([`Engine::announce_join`]).
    pub fn admin_reserve_join(&self, host: &str, port: u16, http_port: u16) -> Result<JoinGrant> {
        let shared = &self.shared;
        let Some(wire) = &shared.wire else {
            return Err(Error::Config("join reservations require the TCP transport".into()));
        };
        let master = wire.topology().master;
        if wire.local() != master {
            return Err(Error::Config(format!("joins must be sent to the master (node {master})")));
        }
        let _serialize = shared.join_lock.lock();
        let mut cluster_nodes = shared.cluster_nodes.lock();
        let id = cluster_nodes.len();
        let spec = NodeSpec { id, host: host.to_string(), port, http_port };
        wire.add_peer(&spec).map_err(Error::Config)?;
        shared.machines.write().push(Arc::new(Machine::remote_stub()));
        cluster_nodes.push(spec);
        let membership = shared.membership.read();
        Ok(JoinGrant {
            id,
            view: ClusterView {
                base: shared.cfg.joining.as_ref().map_or(shared.cfg.machines, |v| v.base),
                epoch: membership.epoch(),
                failed: shared.master.failed_machines(),
                members: membership.committed().members(),
            },
            topology: Topology { nodes: cluster_nodes.clone(), master },
            store_host: shared.cfg.store_host,
        })
    }

    /// Joiner-side: announce to the master that this node (started with
    /// [`EngineConfig::joining`], listener live) is ready to enter
    /// the rings. The master's epoch-stamped membership update installs
    /// it everywhere — including here, once the commit arrives.
    pub fn announce_join(&self) -> Result<()> {
        let Some(wire) = &self.shared.wire else {
            return Err(Error::Config("announce_join is for TCP joiners".into()));
        };
        wire.send_join(wire.topology().master, wire.local())
            .map_err(|e| Error::Config(format!("join announcement failed: {e}")))
    }

    /// Restarted-node side of restart re-identification: tell the master
    /// "machine `local` is back under its old id". The master revives the
    /// wire, clears the previous incarnation's §4.3 death-ledger entry,
    /// and — if the crash was detected and the id dropped from the rings —
    /// re-runs the join protocol to restore the old ring position. A no-op
    /// for in-process clusters and for the master itself (which applies
    /// the same steps locally).
    pub fn announce_restart(&self) -> Result<()> {
        let shared = &self.shared;
        let Some(wire) = &shared.wire else {
            return Ok(());
        };
        let (local, master) = (wire.local(), wire.topology().master);
        if local == master {
            reintroduce(shared, local);
            return Ok(());
        }
        wire.reintroduce(master, local)
            .map_err(|e| Error::Config(format!("restart announcement failed: {e}")))?;
        Ok(())
    }

    /// Whether the master has been told about a machine failure yet
    /// (detection is send-driven, §4.3). On non-master TCP nodes this
    /// reflects receipt of the master's broadcast.
    pub fn failure_detected(&self, machine: usize) -> bool {
        self.shared.master.is_failed(machine)
    }

    /// Whether `machine` is still a member of the routing ring (false once
    /// the §4.3 broadcast dropped it, true again after a committed join).
    pub fn ring_contains(&self, machine: usize) -> bool {
        self.shared.membership.read().committed().contains(machine)
    }

    /// The machine this engine runs locally (`None` in-process, where all
    /// machines are local).
    pub fn local_machine(&self) -> Option<usize> {
        self.shared.local_machine()
    }

    /// Machine ids known dead, in id order.
    pub fn failed_machines(&self) -> Vec<usize> {
        self.shared.master.failed_machines()
    }

    /// Microseconds since the engine started (the engine's store clock).
    pub fn now_us(&self) -> u64 {
        self.shared.now_us()
    }

    /// Peak queue occupancy across all workers (the §4.5 status
    /// information: "the event count of the largest event queues").
    pub fn max_queue_high_water(&self) -> usize {
        self.shared
            .machines
            .read()
            .iter()
            .flat_map(|m| m.queues.iter())
            .map(|q| q.high_water())
            .max()
            .unwrap_or(0)
    }

    /// Snapshot engine statistics.
    pub fn stats(&self) -> EngineStats {
        self.shared.snapshot(&self.shared.caches())
    }

    /// The engine's metrics registry: every count [`EngineStats`] reads,
    /// plus the gauges collected at scrape time. `registry().render()` is
    /// the Prometheus text exposition served at `GET /metrics`.
    pub fn registry(&self) -> Arc<muppet_obs::Registry> {
        Arc::clone(&self.shared.stats.registry)
    }

    /// The hottest ⟨updater, key⟩ pairs this node has seen, estimated by
    /// the per-shard space-saving sketches (count, overshoot bound), best
    /// first. Empty when metrics are off.
    pub fn hot_keys(&self, k: usize) -> Vec<(String, Key, u64, u64)> {
        let wf = &self.shared.wf;
        let hot = hottest(&self.shared.caches(), k).into_iter();
        hot.map(|hh| (wf.op(hh.key.0).name.clone(), hh.key.1, hh.count, hh.err)).collect()
    }

    /// Per-shard cache statistics of this engine's slate caches (Muppet
    /// 1.0's per-worker caches have one shard each).
    pub fn cache_shard_stats(&self) -> Vec<crate::cache::ShardStats> {
        self.shared.stats.cache.shard_stats(&self.shared.caches())
    }

    /// Recent drop-log entries (§4.3: dropped events "can be logged for
    /// later processing and debugging").
    pub fn recent_drops(&self) -> Vec<String> {
        self.shared.drop_log.recent()
    }

    /// Re-inject every parked dead letter into the dispatch path (the
    /// `POST /dlq/retry` admin action — after a buggy updater is fixed
    /// or a transient failure clears). Returns how many were re-sent. A
    /// letter that poisons again simply comes back to the queue.
    pub fn dlq_retry(&self) -> usize {
        let letters = self.shared.dlq.drain();
        let n = letters.len();
        self.shared.stats.dlq_retried.add(n as u64);
        for letter in letters {
            let ev = fresh(letter.event, self.shared.now_us(), false, true);
            try_send(&self.shared, WireEvent { op: letter.op, ..ev }, &mut Vec::new());
        }
        n
    }

    /// The dead-letter queue contents as JSON (the HTTP `GET /dlq`
    /// endpoint), oldest letter first.
    pub fn dlq_json(&self) -> String {
        use muppet_core::json::Json;
        Json::Arr(
            self.shared
                .dlq
                .snapshot()
                .into_iter()
                .map(|l| {
                    Json::obj([
                        ("op", Json::str(&self.shared.wf.op(l.op).name)),
                        ("stream", Json::str(l.event.stream.as_str())),
                        ("key", Json::str(String::from_utf8_lossy(l.event.key.as_bytes()))),
                        ("value", Json::str(String::from_utf8_lossy(&l.event.value))),
                        ("ts", Json::num(l.event.ts as f64)),
                        ("reason", Json::str(&l.reason)),
                        ("at_us", Json::num(l.at_us as f64)),
                    ])
                })
                .collect(),
        )
        .to_compact()
    }

    /// Draw a recovery line (DESIGN.md §11): rotate the ingest WAL and
    /// take the rotation point as the replay cursor, fsync everything
    /// below it, drain in-flight work, flush every dirty slate, store the
    /// cursor, and only then delete the log segments it covers. After a
    /// successful checkpoint with no ingest since, a restart replays zero
    /// events and the log is one header-only segment.
    ///
    /// The log is synced *before* the first slate reaches the store:
    /// dispatch precedes durability (see [`Engine::submit`]), so this
    /// order is what keeps the store from ever holding an effect the
    /// durable log lacks. Runs that arrive during the flush are past the
    /// cursor and replay after a crash (at-least-once for them, as for
    /// eviction); none is lost.
    ///
    /// Returns false — leaving the *old* cursor authoritative and every
    /// segment in place, so a restart replays more than necessary but
    /// never misses an event — when another checkpoint is running, the
    /// log could not be rotated or synced (nothing is flushed then), the
    /// drain timed out, a slate failed to flush, or the cursor write did
    /// not reach the store. Engines without an ingest WAL return true
    /// trivially.
    pub fn checkpoint(&self, timeout: Duration) -> bool {
        let Some(log) = self.shared.ingest_log.as_ref() else {
            return true;
        };
        if self.shared.checkpointing.swap(true, Ordering::AcqRel) {
            return false;
        }
        let taken = self.recovery_line(log, timeout);
        self.shared.checkpointing.store(false, Ordering::Release);
        taken
    }

    /// The recovery line of `checkpoint` and `shutdown`, in its order.
    /// Without a store the log is the only copy: it neither rotates nor
    /// shrinks.
    fn recovery_line(&self, log: &IngestLog, timeout: Duration) -> bool {
        let shared = &self.shared;
        let rotated = if shared.has_backend { log.rotate() } else { Ok(log.record_count()) };
        let Ok(cursor) = rotated else { return false };
        if log.wait_durable(cursor).is_err()
            || !self.drain(timeout)
            || shared.flush_live_caches() > 0
            || !shared.store_ingest_cursor(cursor)
        {
            return false;
        }
        !shared.has_backend || log.release_below(cursor).is_ok()
    }

    /// Stop the engine: waits for queues to drain (bounded), draws the
    /// final recovery line (or, without an ingest WAL, flushes every
    /// dirty slate), joins threads, and returns final stats.
    pub fn shutdown(self) -> EngineStats {
        self.drain(Duration::from_secs(30));
        self.stop();
        // If the line fails (an unsyncable log) the store stays at the last
        // checkpoint and a restart replays whatever the log holds.
        match &self.shared.ingest_log {
            Some(log) => _ = self.recovery_line(log, Duration::ZERO),
            None => _ = self.shared.flush_live_caches(),
        }
        self.stats()
    }

    /// Close the inbound wire and join every worker and flusher thread.
    fn stop(&self) {
        // TCP mode: close the inbound wire first so no new remote events
        // arrive during teardown (peers will see this node as failed —
        // which is accurate).
        if let Some(mut listener) = self.listener.lock().take() {
            listener.stop();
        }
        self.shared.stopping.store(true, Ordering::Release);
        for m in &self.shared.machines_snapshot() {
            for q in &m.queues {
                q.notify();
            }
        }
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
        for t in self.flushers.lock().drain(..) {
            t.thread().unpark(); // parked until its next tick
            let _ = t.join();
        }
    }
}

/// `machine`'s cached value of ⟨`op`, `key`⟩, if this node's rings place
/// the key there — by [`Membership::owner`]: once an epoch is staged, a
/// handed-off slate is read at its new owner (or from the store).
fn read_cached(
    shared: &Shared,
    machine_id: usize,
    machine: &Machine,
    op: OpId,
    updater: &str,
    key: &Key,
) -> Option<Vec<u8>> {
    let owner = shared.membership.read().owner(op, key.route_hash(updater));
    machine.cache_at(op, owner.filter(|at| at.machine == machine_id)?)?.read(op, key)
}

/// Spawn the worker thread for (machine, thread).
fn spawn_worker(shared: &Arc<Shared>, m: usize, t: usize) -> std::thread::JoinHandle<()> {
    let sh = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("muppet-m{m}-w{t}"))
        .spawn(move || worker_loop(sh, m, t))
        // lint: allow(no-unwrap-in-prod) — spawn fails only on OS thread exhaustion; fail fast
        .expect("spawn worker")
}

/// Spawn the background flusher for one local machine (interval policy).
fn spawn_flusher(shared: &Arc<Shared>, m: usize) -> std::thread::JoinHandle<()> {
    let FlushPolicy::IntervalMs(ms) = shared.cfg.flush else {
        unreachable!("flushers only run under the interval policy")
    };
    let sh = Arc::clone(shared);
    let interval = Duration::from_millis(ms.max(1));
    std::thread::Builder::new()
        .name(format!("muppet-flusher-{m}"))
        .spawn(move || flusher_loop(sh, m, interval))
        // lint: allow(no-unwrap-in-prod) — spawn fails only on OS thread exhaustion; fail fast
        .expect("spawn flusher")
}

fn worker_loop(shared: Arc<Shared>, machine_id: usize, thread: usize) {
    // A safety ceiling, not a poll: every push, `shutdown` and
    // `kill_machine` notify the queue, so an idle worker stays parked. A
    // stop flag set between the check below and the wait costs one
    // ceiling, once.
    let park = Duration::from_millis(100);
    // lint: allow(no-unwrap-in-prod) — worker threads are spawned per existing machine index
    let machine = shared.machine(machine_id).expect("worker spawned for an existing machine");
    let mut batch: Vec<Queued> = Vec::with_capacity(DRAIN_BATCH);
    // Remote peers this worker has sent to since it last went idle.
    let mut touched: Vec<MachineId> = Vec::new();
    loop {
        if !machine.alive.load(Ordering::Acquire) {
            return; // crashed machine: thread dies with it
        }
        if shared.stopping.load(Ordering::Acquire) {
            // Drain remaining work, then exit (the shutdown flush retires
            // whatever is still waiting for eviction).
            if machine.queues[thread].pop_many(&mut batch, DRAIN_BATCH, Duration::ZERO) == 0 {
                return;
            }
            let owed =
                process_batch(&shared, &machine, machine_id, thread, &mut batch, &mut touched);
            settle_retire(&shared, &machine, thread, owed, false);
            continue;
        }
        let n = machine.queues[thread].pop_many(&mut batch, DRAIN_BATCH, park);
        if n > 0 {
            shared.stats.drain.record(n as u64);
            let owed =
                process_batch(&shared, &machine, machine_id, thread, &mut batch, &mut touched);
            // About to park: this producer has nothing more to add, so its
            // emissions leave now — and then, with nobody waiting on it,
            // it writes back the slates its misses chose for eviction.
            // With more queued it keeps draining and both keep
            // accumulating into fuller batches.
            let idle = machine.queues[thread].len_hint() == 0;
            if !touched.is_empty() && idle {
                shared.flush_events(&touched);
                touched.clear();
            }
            settle_retire(&shared, &machine, thread, owed, idle);
        }
    }
}

/// Take one in-flight unit for the eviction retire this worker now owes,
/// if its cache has victims waiting and it holds none yet. Called only
/// while an event of the current batch still holds its own unit, so
/// `pending` never touches zero between a miss that chose a victim and
/// the retire that writes it: `drain() == true` implies no retire is in
/// flight. The no-eviction path pays one relaxed load.
fn claim_retire(shared: &Shared, cache: &SlateCache, owed: &mut bool) {
    if !*owed && cache.evict_backlog() > 0 {
        shared.pending.fetch_add(1, Ordering::AcqRel);
        *owed = true;
    }
}

/// Retire the eviction backlog when the worker is about to park (its
/// emissions have already fanned out), then give back the unit
/// [`claim_retire`] took.
fn settle_retire(shared: &Shared, machine: &Machine, thread: usize, owed: bool, idle: bool) {
    if !owed {
        return;
    }
    if idle {
        if let Some(cache) = machine.cache_of(thread) {
            cache.retire_evicted(shared.now_us());
        }
    }
    shared.pending.fetch_sub(1, Ordering::AcqRel);
    shared.throttle_cv.notify_all();
}

/// A processed event whose emissions have not fanned out yet. Fan-out
/// re-enters the membership lock on the local send path, so while a
/// run's read guard is held the follow-up work is parked here; the
/// event's in-flight count drops only once its emissions are enqueued
/// (`finish_event`), so `drain`/throttling never observe a gap.
struct Finished {
    op: OpId,
    ts: u64,
    injected_us: u64,
    redirected: bool,
    records: Vec<muppet_core::event::EmitRecord>,
}

/// Admit one finished event's emissions (ts = input ts + 1, §3) and
/// retire it from the in-flight count.
fn finish_event(shared: &Arc<Shared>, done: Finished, touched: &mut Vec<MachineId>) {
    let stages = &shared.stats.stages;
    let fanout_t0 = (!done.records.is_empty() && stages.enabled && stages.sampler_fanout.hit())
        .then(|| shared.now_us());
    for rec in done.records {
        shared.stats.emitted.inc();
        if shared.wf.is_external(rec.stream.as_str()) || !shared.wf.has_stream(rec.stream.as_str())
        {
            shared.stats.publish_errors.inc();
            shared.drop_log.log(format!(
                "illegal publish to {} from {}",
                rec.stream,
                shared.wf.op(done.op).name
            ));
            continue;
        }
        let out =
            Event { stream: rec.stream, ts: done.ts + 1, key: rec.key, value: rec.value, seq: 0 };
        fan_out(shared, fresh(out, done.injected_us, done.redirected, false), touched);
    }
    if let Some(t0) = fanout_t0 {
        stages.fanout.record(shared.now_us().saturating_sub(t0));
    }
    shared.pending.fetch_sub(1, Ordering::AcqRel);
    shared.throttle_cv.notify_all();
}

/// Process one drained batch. The updater events of a batch share a
/// single membership read guard (a *run*; mapper events need no lock and
/// pass through without closing it), and consecutive same-⟨op, key⟩
/// updater events reuse the previous event's cache slot (the memo)
/// without touching the shard lock — the per-event costs the batch
/// amortizes. Every event's fan-out is deferred while the guard is held
/// (the local send path re-enters the membership lock) and flushed
/// when the run closes: at an event that must be forwarded, and at batch
/// end. The memo dies with the guard, because slate handoffs
/// (`take_matching`) run under the membership *write* lock and so can
/// only interleave between runs, never inside one.
///
/// Store-backed engines first fetch the batch's cold slates in one round
/// trip ([`prefetch_batch`]). Returns whether the worker now owes an
/// eviction retire, i.e. holds the in-flight unit [`claim_retire`] took
/// and must hand it to [`settle_retire`].
fn process_batch(
    shared: &Arc<Shared>,
    machine: &Arc<Machine>,
    machine_id: usize,
    thread: usize,
    batch: &mut Vec<Queued>,
    touched: &mut Vec<MachineId>,
) -> bool {
    if shared.cfg.combine && batch.len() > 1 {
        fold_local_batch(shared, machine, thread, batch);
    }
    let mut retire_owed = false;
    if let Some(cache) = machine.cache_of(thread) {
        if shared.has_backend && batch.len() > 1 && !shared.split_enabled() {
            prefetch_batch(shared, cache, machine_id, batch);
        }
        // Victims left over from earlier batches (the queue was not idle
        // then): claimed here, while every event of this batch is in flight.
        claim_retire(shared, cache, &mut retire_owed);
    }
    let stages = &shared.stats.stages;
    let mut memo: Option<(OpId, Key, Arc<SlateSlot>)> = None;
    let mut finished: Vec<Finished> = Vec::new();
    let mut guard: Option<muppet_core::sync::RwLockReadGuard<'_, Membership>> = None;
    for (mut ev, enqueued_us) in batch.drain(..) {
        // Owner-side split rewrite: events that were already in flight
        // (or forwarded) when a split installed still fan out. The
        // rewritten subkey re-routes below like any other key.
        if shared.split_enabled()
            && matches!(&shared.ops[ev.op],
                OpInstance::Update { updater, .. } if updater.combines())
        {
            if let Some(sub) = shared.split_route(ev.op, &ev.event.key) {
                ev.event.key = sub;
            }
        }
        // Muppet 1.0 invariant: a worker is bound to exactly one function.
        debug_assert!(
            machine.thread_ops[thread].is_none() || machine.thread_ops[thread] == Some(ev.op),
            "1.0 worker received an event for a function it does not run"
        );
        let route = ev.event.key.route_hash(&shared.wf.op(ev.op).name);
        machine.in_flight[thread].store(route.wrapping_add(1), Ordering::Release);
        if enqueued_us > 0 {
            // The queue-wait span: stamped at local enqueue by a sampler
            // hit, closed when the drain reaches the event.
            stages.queue_wait.record(shared.now_us().saturating_sub(enqueued_us));
        }
        match &shared.ops[ev.op] {
            OpInstance::Map(mapper) => {
                // Mappers need no membership lock; an open updater run's
                // guard is left in place and the mapper's fan-out joins
                // the deferred queue like everyone else's.
                let service_t0 =
                    (stages.enabled && stages.sampler_service.hit()).then(|| shared.now_us());
                let mut emitter = VecEmitter::new();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    mapper.map(&mut emitter, &ev.event)
                }));
                if let Err(payload) = outcome {
                    // Poison event: contain the panic (an uncontained one
                    // kills this worker thread and wedges `drain` on the
                    // stuck pending count), discard any partial emissions,
                    // park the event, keep draining.
                    machine.in_flight[thread].store(0, Ordering::Release);
                    dead_letter(shared, ev, payload);
                    continue;
                }
                if let Some(t0) = service_t0 {
                    stages.service[ev.op].record(shared.now_us().saturating_sub(t0));
                }
                shared.stats.processed.inc();
                machine.in_flight[thread].store(0, Ordering::Release);
                finished.push(Finished {
                    op: ev.op,
                    ts: ev.event.ts,
                    injected_us: ev.injected_us,
                    redirected: ev.redirected,
                    records: emitter.take(),
                });
            }
            OpInstance::Update { updater, name, ttl_secs } => {
                // With a store backend attached, a memo-missing event's
                // get_or_load below may do real I/O (disk, or a remote
                // store RPC). Close the run first so a waiting membership
                // writer (join prepare/commit) gets in between I/O-bound
                // events — the pre-batching cadence — instead of stalling
                // behind a whole batch of sequential loads. Store-less
                // engines load from memory in microseconds and keep the
                // full run amortization.
                let memo_hit = matches!(&memo, Some((m_op, m_key, _))
                    if *m_op == ev.op && *m_key == ev.event.key);
                if shared.has_backend && guard.is_some() && !memo_hit {
                    memo = None;
                    drop(guard.take());
                    for done in finished.drain(..) {
                        finish_event(shared, done, touched);
                    }
                }
                // The ownership check, under the membership read lock held
                // across the whole slate mutation (and, amortized, across
                // the run): a membership change (write lock) can only land
                // between runs, never mid-update — so the prepare-phase
                // flush sees every completed write, and no worker mutates
                // a slate its machine has already handed off.
                let membership = guard.get_or_insert_with(|| shared.membership.read());
                let owner = membership.owner(ev.op, route);
                if let Some(owner) = owner.filter(|at| at.machine != machine_id) {
                    // Forwarding re-enters the send path (and, for a local
                    // owner, the membership lock): close the run first.
                    memo = None;
                    drop(guard.take());
                    for done in finished.drain(..) {
                        finish_event(shared, done, touched);
                    }
                    machine.in_flight[thread].store(0, Ordering::Release);
                    forward(shared, ev, owner, touched);
                    shared.pending.fetch_sub(1, Ordering::AcqRel);
                    shared.throttle_cv.notify_all();
                    continue;
                }
                // lint: allow(no-unwrap-in-prod) — 2.0 machines build a central cache, 1.0 one per updater thread
                let cache = machine.cache_of(thread).expect("updater thread has a cache");
                cache.offer_hot(ev.op, &ev.event.key);
                if shared.split_enabled()
                    && updater.combines()
                    && crate::dispatch::split_base_of(&ev.event.key).is_none()
                {
                    shared.maybe_split(cache, ev.op, &ev.event.key);
                }
                let service_sampled = stages.enabled && stages.sampler_service.hit();
                let now = shared.now_us();
                let slot = match &memo {
                    Some((m_op, m_key, m_slot)) if *m_op == ev.op && *m_key == ev.event.key => {
                        cache.note_memo_hit(ev.op, m_slot, now);
                        Arc::clone(m_slot)
                    }
                    _ => {
                        let s = cache.get_or_load(ev.op, name, &ev.event.key, *ttl_secs, now);
                        memo = Some((ev.op, ev.event.key.clone(), Arc::clone(&s)));
                        claim_retire(shared, cache, &mut retire_owed); // a miss may have chosen victims
                        s
                    }
                };
                let mut emitter = VecEmitter::new();
                let outcome = {
                    let mut state = slot.state.lock();
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        updater.update(&mut emitter, &ev.event, &mut state.slate)
                    }));
                    // A panicking updater gets no dirty-marking: its
                    // half-mutated slate must never be flushed.
                    if r.is_ok() {
                        cache.note_write(&slot, &mut state, now);
                    }
                    r
                };
                if let Err(payload) = outcome {
                    // Poison event: the updater may have left the slate
                    // half-mutated, so evict the cached slot — the next
                    // touch refaults the last good version from the
                    // store — then park the event and keep the thread.
                    memo = None;
                    cache.discard(ev.op, &ev.event.key);
                    machine.in_flight[thread].store(0, Ordering::Release);
                    dead_letter(shared, ev, payload);
                    continue;
                }
                if service_sampled {
                    // Service span: slate fetch (cache or store) + the
                    // update under the slot lock.
                    stages.service[ev.op].record(shared.now_us().saturating_sub(now));
                }
                shared.stats.latency.record(shared.now_us().saturating_sub(ev.injected_us));
                shared.stats.processed.inc();
                machine.in_flight[thread].store(0, Ordering::Release);
                finished.push(Finished {
                    op: ev.op,
                    ts: ev.event.ts,
                    injected_us: ev.injected_us,
                    redirected: ev.redirected,
                    records: emitter.take(),
                });
            }
        }
    }
    drop(guard.take());
    for done in finished.drain(..) {
        finish_event(shared, done, touched);
    }
    retire_owed
}

/// Load the slates a drained batch is about to miss on in ONE store round
/// trip: its locally-owned updater keys go to [`SlateCache::prefetch`],
/// under the membership read guard like any other load (a slate fetched
/// for a key that moved away meanwhile would sit in the cache stale).
fn prefetch_batch(shared: &Shared, cache: &SlateCache, machine_id: usize, batch: &[Queued]) {
    let membership = shared.membership.read();
    let wanted: Vec<_> = batch
        .iter()
        .filter_map(|(ev, _)| {
            let OpInstance::Update { name, ttl_secs, .. } = &shared.ops[ev.op] else {
                return None;
            };
            let route = ev.event.key.route_hash(&shared.wf.op(ev.op).name);
            let owner = membership.owner(ev.op, route).map(|at| at.machine);
            (owner == Some(machine_id)).then_some((ev.op, name, &ev.event.key, *ttl_secs))
        })
        .collect();
    cache.prefetch(&wanted, shared.now_us());
}

/// Map-side pre-aggregation over one drained batch: coalesce runs of
/// same-⟨op, stream, key⟩ update events through the operator's declared
/// combiner, so a hot key's burst becomes one slate mutation instead of
/// one per event. Mirrors the sender-outbox fold in `muppet_net::tcp`
/// (first-occurrence order, veto opens a fresh run), but here the win is
/// the slot-lock + updater invocation, not wire bytes. Each absorbed
/// event settles its pending-count immediately; the carrier keeps
/// `ts`/`seq` = max and `injected_us` = min so watermarks and latency
/// stay conservative. Non-combining operators pass through untouched.
///
/// Absorbed events are credited to the hot-key sketch in one weighted
/// offer per run: the splitter's threshold is denominated in *events*,
/// and without the credit a deeply-folded hot key would look cold (the
/// sketch would only see one carrier per drained batch).
fn fold_local_batch(
    shared: &Arc<Shared>,
    machine: &Arc<Machine>,
    thread: usize,
    batch: &mut Vec<Queued>,
) {
    let mut runs: HashMap<(OpId, StreamId, Key, bool), usize> = HashMap::new();
    let mut absorbed: HashMap<(OpId, Key), u64> = HashMap::new();
    let mut out: Vec<Queued> = Vec::with_capacity(batch.len());
    for (ev, enqueued_us) in batch.drain(..) {
        let updater = match &shared.ops[ev.op] {
            OpInstance::Update { updater, .. } if updater.combines() => Arc::clone(updater),
            _ => {
                out.push((ev, enqueued_us));
                continue;
            }
        };
        let rk = (ev.op, ev.event.stream.clone(), ev.event.key.clone(), ev.redirected);
        let open = runs.get(&rk).copied();
        let folded = open
            .and_then(|i| updater.combine(out[i].0.event.value.as_ref(), ev.event.value.as_ref()));
        match (open, folded) {
            (Some(i), Some(value)) => {
                let carrier = &mut out[i].0;
                carrier.event.value = Bytes::from(value);
                carrier.event.ts = carrier.event.ts.max(ev.event.ts);
                carrier.event.seq = carrier.event.seq.max(ev.event.seq);
                carrier.injected_us = carrier.injected_us.min(ev.injected_us);
                carrier.forwards = carrier.forwards.max(ev.forwards);
                *absorbed.entry((ev.op, ev.event.key.clone())).or_insert(0) += 1;
                shared.stats.combined_events.inc();
                shared.pending.fetch_sub(1, Ordering::AcqRel);
                shared.throttle_cv.notify_all();
            }
            _ => {
                // No open run, or the combiner vetoed: this event opens
                // (or re-points) the run, preserving per-key order.
                runs.insert(rk, out.len());
                out.push((ev, enqueued_us));
            }
        }
    }
    if !absorbed.is_empty() {
        if let Some(cache) = machine.cache_of(thread) {
            let split = shared.split_enabled();
            for ((op, key), n) in absorbed {
                cache.offer_hot_n(op, &key, n);
                if split
                    && n >= SPLIT_FOLD_PROBE_MIN
                    && crate::dispatch::split_base_of(&key).is_none()
                {
                    shared.probe_split(cache, op, &key);
                }
            }
        }
    }
    *batch = out;
}

/// Extract a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

/// Park a poison event in the dead-letter queue and retire it from the
/// in-flight accounting — the worker thread survives, `drain` still
/// converges, and the event stays inspectable via `GET /dlq`.
fn dead_letter(shared: &Arc<Shared>, ev: WireEvent, payload: Box<dyn std::any::Any + Send>) {
    let reason = panic_message(payload);
    shared.stats.dead_lettered.inc();
    shared.drop_log.log(format!(
        "poison event dead-lettered at {}: key={:?} ({reason})",
        shared.wf.op(ev.op).name,
        ev.event.key
    ));
    if shared.logger.enabled(Level::Warn) {
        shared.logger.warn(
            "operator panic contained; event dead-lettered",
            &[("op", (ev.op as u64).into()), ("dlq_depth", (shared.dlq.depth() as u64).into())],
        );
    }
    let letter = DeadLetter { op: ev.op, event: ev.event, reason, at_us: shared.now_us() };
    if shared.dlq.push(letter) {
        shared.stats.dlq_evicted.inc();
    }
    shared.pending.fetch_sub(1, Ordering::AcqRel);
    shared.throttle_cv.notify_all();
}

/// Log a peer's death through the leveled logger exactly once per peer
/// *per incarnation* — a committed rejoin or restart re-identification
/// clears the entry so the NEW incarnation's death is logged afresh.
/// §4.3 detection is send-driven and can fire concurrently from the
/// sync-send, forward, and batch-sender failure paths for one incident;
/// without the set each path would emit its own report. The [`DropLog`]
/// ring keeps its per-event entries regardless.
fn log_peer_death(shared: &Arc<Shared>, dest: usize, lost_events: u64) {
    if !shared.logger.enabled(Level::Warn) {
        return;
    }
    if shared.logged_peer_deaths.lock().insert(dest) {
        shared.logger.warn(
            "peer unreachable; reported to master (send-detect, §4.3)",
            &[
                ("peer", (dest as u64).into()),
                ("epoch", shared.epoch().into()),
                ("lost_events", lost_events.into()),
            ],
        );
    }
}

/// Re-send an event whose key this machine no longer owns to its current
/// owner (elastic handoff; also heals laggard-ring deliveries). Bounded
/// by [`MAX_FORWARDS`] so disagreeing rings can never ping-pong an event
/// forever — past the cap the event is dropped-and-logged like any other
/// undeliverable (§4.3 posture).
fn forward(
    shared: &Arc<Shared>,
    mut ev: WireEvent,
    owner: Placement,
    touched: &mut Vec<MachineId>,
) {
    if ev.forwards >= MAX_FORWARDS {
        shared.stats.lost_machine_failure.inc();
        shared.drop_log.log(format!(
            "forward cap hit for key={:?} (rings disagree about machine {}?)",
            ev.event.key, owner.machine
        ));
        return;
    }
    shared.stats.forwarded.inc();
    ev.forwards += 1;
    // Forwarded events count as internal: the receiver's overflow policy
    // must never block the forwarding worker.
    ev.external = false;
    send_to(shared, ev, owner, touched);
}

/// A fresh event for the send path: no operator yet, no hops, no hint.
fn fresh(event: Event, injected_us: u64, redirected: bool, external: bool) -> WireEvent {
    WireEvent { op: 0, event, injected_us, redirected, external, thread_hint: None, forwards: 0 }
}

/// Send `ev` to every subscriber of its stream, each copy's `op` set to
/// its subscriber; `touched` collects the remote peers it was queued for
/// (see [`note_remote`]).
fn fan_out(shared: &Arc<Shared>, mut ev: WireEvent, touched: &mut Vec<MachineId>) {
    // No per-event Vec, no clone for the final (usually only) subscriber.
    let subscribers = shared.wf.subscribers_of(ev.event.stream.as_str());
    if let Some((&last, rest)) = subscribers.split_last() {
        for &op in rest {
            try_send(shared, WireEvent { op, ..ev.clone() }, touched);
        }
        ev.op = last;
        try_send(shared, ev, touched);
    }
}

/// Record that a burst queued an event for `dest`, if that is another
/// process: the set a producer hands to [`TcpTransport::flush_events`]
/// once it has nothing more to add. O(peers) and allocation-free once
/// warm.
fn note_remote(shared: &Arc<Shared>, dest: MachineId, touched: &mut Vec<MachineId>) {
    if !shared.is_local(dest) && !touched.contains(&dest) {
        touched.push(dest);
    }
}

/// The send path: resolve the destination by the committed rings
/// ([`Membership::route`]), then send the event there.
fn try_send(shared: &Arc<Shared>, mut ev: WireEvent, touched: &mut Vec<MachineId>) {
    // Sender-side split rewrite: route a split hot key's update to one of
    // its subkeys before the ring lookup, so fan-out happens at the
    // source and the subslates land on distinct machines/queues.
    if shared.split_enabled()
        && matches!(&shared.ops[ev.op],
            OpInstance::Update { updater, .. } if updater.combines())
    {
        if let Some(sub) = shared.split_route(ev.op, &ev.event.key) {
            ev.event.key = sub;
        }
    }
    let route: RouteHash = ev.event.key.route_hash(&shared.wf.op(ev.op).name);
    let Some(dest) = shared.membership.read().route(ev.op, route) else {
        shared.stats.lost_machine_failure.inc();
        return;
    };
    send_to(shared, ev, dest, touched);
}

/// Deliver `ev` to `dest`: straight into the queues of a machine of this
/// process, over the wire to another process's. A failed delivery — a
/// dead machine here, a connection error there — triggers the §4.3
/// protocol: report to the master, which broadcasts, and every ring drops
/// the machine; the event is lost and logged, never retried.
fn send_to(shared: &Arc<Shared>, mut ev: WireEvent, dest: Placement, touched: &mut Vec<MachineId>) {
    let machine = dest.machine;
    let key = ev.event.key.clone();
    ev.thread_hint = dest.thread;
    let sent = match &shared.wire {
        Some(wire) if !shared.is_local(machine) => wire.send_event(machine, ev),
        _ => deliver_local(shared, machine, ev, 1),
    };
    match sent {
        Ok(()) => note_remote(shared, machine, touched),
        Err(NetError::Unreachable(_)) => {
            report_failure(shared, machine);
            log_peer_death(shared, machine, 1);
            shared.stats.lost_machine_failure.inc();
            shared.drop_log.log(format!("lost to failed machine {machine}: key={key:?}"));
        }
        Err(e) => {
            // A local protocol/config error (oversized frame, no route)
            // is not a dead peer — the event is lost and logged, but the
            // machine must not be declared failed.
            shared.stats.lost_machine_failure.inc();
            shared.drop_log.log(format!("undeliverable to machine {machine} ({e}): key={key:?}"));
        }
    }
}

/// §4.3: report `failed` to the master, stamped with this node's epoch —
/// over the wire, or in-process to this process's master, whose broadcast
/// is the ring drop here.
fn report_failure(shared: &Arc<Shared>, failed: MachineId) {
    let epoch = shared.epoch();
    match &shared.wire {
        Some(wire) => wire.report_failure(failed, epoch),
        None if shared.master.report_failure(failed, epoch) => {
            apply_ring_drop(shared, failed, epoch);
        }
        None => {}
    }
}

/// Local delivery: the receiving half of every send to a machine of this
/// process. Chooses the worker queue (two-choice for 2.0, the sender's
/// slot hint for 1.0) and applies the §4.3 overflow mechanism. Runs on the
/// sender's thread for a local send and on the listener's connection
/// thread for one from another process.
fn deliver_local(
    shared: &Arc<Shared>,
    machine_id: usize,
    mut ev: WireEvent,
    mut absorbed: u64,
) -> std::result::Result<(), NetError> {
    if !shared.is_local(machine_id) {
        return Err(NetError::NoRoute(machine_id));
    }
    loop {
        let Some(machine) = shared.machine(machine_id) else {
            return Err(NetError::NoRoute(machine_id));
        };
        if !machine.alive.load(Ordering::Acquire) {
            return Err(NetError::Unreachable(machine_id));
        }
        let updater_name = shared.wf.op(ev.op).name.as_str();
        let route: RouteHash = ev.event.key.route_hash(updater_name);
        let thread = match shared.cfg.kind {
            EngineKind::Muppet1 => {
                // 1.0 workers are bound to one function; an event on the
                // wrong thread would fault the worker (no cache for the
                // op). Trust the sender's hint only when it names a local
                // thread actually running this op; otherwise re-resolve
                // from the local rings (layouts are deterministic
                // cluster-wide, so a mismatch means a heterogeneously
                // configured peer).
                let valid =
                    |t: usize| t < machine.queues.len() && machine.thread_ops[t] == Some(ev.op);
                let resolved = ev.thread_hint.filter(|&t| valid(t)).or_else(|| {
                    let owner = shared.membership.read().owner(ev.op, route);
                    owner.filter(|at| at.machine == machine_id)?.thread.filter(|&t| valid(t))
                });
                match resolved {
                    Some(t) => t,
                    None => {
                        shared.drop_log.log(format!(
                            "misrouted 1.0 event discarded at m{machine_id}: op={updater_name} \
                             key={:?} (peer layout mismatch?)",
                            ev.event.key
                        ));
                        return Ok(());
                    }
                }
            }
            EngineKind::Muppet2 => {
                let threads = machine.queues.len();
                let (p, s) = crate::dispatch::queue_pair(route, threads);
                let decode = |raw: u64| -> Option<RouteHash> {
                    if raw == 0 {
                        None
                    } else {
                        Some(raw.wrapping_sub(1))
                    }
                };
                choose_between(
                    route,
                    p,
                    s,
                    decode(machine.in_flight[p].load(Ordering::Acquire)),
                    decode(machine.in_flight[s].load(Ordering::Acquire)),
                    machine.queues[p].len_hint(),
                    machine.queues[s].len_hint(),
                )
            }
        };
        let credit = std::mem::take(&mut absorbed);
        if credit > 1 {
            // A carrier the sender folded from `absorbed` events is one
            // event here, but the splitter's threshold is denominated in
            // events: credit them to the sketch of the cache the carrier
            // will update (once, however often a full queue retries).
            if let Some(cache) = machine.cache_of(thread) {
                cache.offer_hot_n(ev.op, &ev.event.key, credit);
            }
        }
        let queue = &machine.queues[thread];
        let queued = |ev: WireEvent| -> Queued {
            // Stamp the queue-wait span here, on the receiving side
            // (`max(1)`: 0 means unsampled, and `now_us` can legitimately
            // be 0 early on).
            let sampled = shared.stats.stages.enabled && shared.stats.stages.sampler_queue.hit();
            (ev, if sampled { shared.now_us().max(1) } else { 0 })
        };
        if queue.len_hint() < queue.capacity() {
            // Likely-room fast path; capacity may still be exceeded by a
            // racing sender, in which case force_push slightly overshoots
            // (bounded by sender count) — acceptable for a size *limit*.
            // Count before publishing: a worker may pop and finish the
            // event the moment it is pushed (`models::run_in_flight`).
            shared.pending.fetch_add(1, Ordering::AcqRel);
            queue.force_push(queued(ev));
            return Ok(());
        }
        // Queue full: invoke the overflow mechanism (§4.3).
        match shared.cfg.overflow.decide(ev.external, ev.redirected) {
            OverflowAction::Drop => {
                shared.stats.dropped_overflow.inc();
                shared.drop_log.log(format!(
                    "overflow drop at m{machine_id}w{thread}: key={:?} op={}",
                    ev.event.key, updater_name
                ));
                return Ok(());
            }
            OverflowAction::Redirect(overflow_stream) => {
                shared.stats.redirected_overflow.inc();
                if !shared.wf.has_stream(&overflow_stream)
                    || shared.wf.is_external(&overflow_stream)
                {
                    shared.stats.publish_errors.inc();
                    return Ok(());
                }
                // Fan out to the overflow stream's subscribers, marked so a
                // second overflow drops instead of looping.
                ev.event.stream = StreamId::from(overflow_stream.as_str());
                ev.redirected = true;
                fan_out(shared, ev, &mut Vec::new());
                return Ok(());
            }
            OverflowAction::ForceThrough => {
                shared.pending.fetch_add(1, Ordering::AcqRel);
                queue.force_push(queued(ev));
                return Ok(());
            }
            OverflowAction::BlockProducer => {
                shared.stats.throttle_waits.inc();
                let mut guard = shared.throttle_mutex.lock();
                shared.throttle_cv.wait_for(&mut guard, Duration::from_millis(1));
                drop(guard);
                if shared.stopping.load(Ordering::Acquire) {
                    return Ok(());
                }
                // Retry: re-check liveness and queue room (the machine may
                // have failed or drained meanwhile).
            }
        }
    }
}

/// Drop `failed` from every routing structure — the effect of the master's
/// §4.3 broadcast, applied on each node. `epoch` fences re-joined
/// incarnations: a broadcast staler than the machine's latest join is a
/// ghost of a previous incarnation and is ignored. Failure drops do not
/// mint epochs — only master-coordinated membership updates do, so every
/// node's epoch stays comparable.
fn apply_ring_drop(shared: &Arc<Shared>, failed: usize, epoch: u64) {
    if epoch < shared.master.joined_epoch(failed) {
        return;
    }
    shared.membership.write().drop_machine(failed);
    if let Some(machine) = shared.machine(failed) {
        machine.alive.store(false, Ordering::Release);
    }
    // Every node tracks the failed set ("each worker keeps track of all
    // failed machines"), without re-reporting.
    shared.master.mark_failed(failed, epoch);
}

/// Stage a membership epoch (the *prepare* phase): grow the peer table
/// for unseen nodes, stage the epoch ([`Membership::stage`]), and — the
/// handoff invariant — flush (or transfer) every dirty slate whose arc
/// moves away from a local machine, all under the membership write lock so
/// no updater can be mid-write on a moved slate. After this returns true,
/// processing-side ownership checks use the staged rings: moved keys are
/// forwarded to their new owner, never updated here again.
fn membership_prepare(shared: &Arc<Shared>, update: &MembershipUpdate) -> bool {
    let mut membership = shared.membership.write();
    if let Some(answer) = membership.prepared(update.epoch) {
        return answer;
    }
    // Grow peers + machine stubs for nodes this engine has never seen.
    let known_machines = {
        let mut machines = shared.machines.write();
        let mut cluster_nodes = shared.cluster_nodes.lock();
        let mut specs: Vec<&NodeSpec> = update.nodes.iter().collect();
        specs.sort_by_key(|s| s.id);
        for spec in specs {
            if spec.id < machines.len() {
                continue;
            }
            if let Some(wire) = &shared.wire {
                if let Err(e) = wire.add_peer(spec) {
                    shared.drop_log.log(format!("membership add_peer failed: {e}"));
                    return false;
                }
            }
            machines.push(Arc::new(Machine::remote_stub()));
            cluster_nodes.push(spec.clone());
        }
        machines.len()
    };
    for id in membership.stage(update, known_machines, &|id| shared.master.is_failed(id)) {
        // This epoch's joiners are reachable again: re-arm the wire and
        // the liveness flag so forwarded events flow as soon as the
        // staged rings apply.
        shared.revive(id);
    }
    // The handoff: move every slate whose arc leaves a local machine.
    let machines = shared.machines_snapshot();
    let now = shared.now_us();
    for (m, machine) in machines.iter().enumerate() {
        if !shared.is_local(m) || !machine.alive.load(Ordering::Acquire) {
            continue;
        }
        for (op, spec) in shared.wf.ops().iter().enumerate() {
            if spec.kind != OpKind::Update {
                continue;
            }
            let opname = &spec.name;
            let moved_to = |key: &Key| membership.moved_from(m, op, key.route_hash(opname));
            for cache in machine.caches() {
                for (key, slot) in cache.take_matching(op, &|key| moved_to(key).is_some()) {
                    if shared.has_backend {
                        // Store-backed handoff (§4.3 recovery path, run
                        // proactively): flush, then the new owner faults
                        // the slate in on its first event. A failed
                        // flush (store down mid-join) must not destroy
                        // the slate: it goes back into the cache dirty —
                        // post-prepare processing forwards this key, so
                        // nothing re-dirties it here, and the background
                        // flusher retries until the store recovers (the
                        // new owner reads stale until then; bounded
                        // inconsistency instead of silent loss).
                        if !cache.flush_slot_now(&slot, now) {
                            shared.drop_log.log(format!(
                                "handoff flush failed for {opname} key={key:?} (store down?); \
                                 retained for flusher retry"
                            ));
                            cache.insert_slot(op, key, slot);
                        }
                        continue;
                    }
                    // No store attached: hand the slot to the cache its
                    // staged placement names when that lives in this
                    // process (the in-process cluster); otherwise the
                    // slate is lost exactly like a §4.3 crash would lose
                    // it.
                    let target = moved_to(&key)
                        .filter(|to| shared.is_local(to.machine))
                        .and_then(|to| machines.get(to.machine)?.cache_at(op, to));
                    match target {
                        Some(target) => target.insert_slot(op, key, slot),
                        None => shared.drop_log.log(format!(
                            "handoff without store: slate {opname} key={key:?} lost (§4.3 \
                             posture)"
                        )),
                    }
                }
            }
        }
    }
    true
}

/// Install a staged membership epoch (the *commit* phase).
fn membership_commit(shared: &Arc<Shared>, epoch: u64) -> bool {
    let Some(joined) = shared.membership.write().commit(epoch) else {
        return false;
    };
    for id in joined {
        shared.master.mark_joined(id, epoch);
        // Forget the previous incarnation's death (§4.3 ledger): if the
        // NEW incarnation dies, detection must report and log it afresh.
        shared.logged_peer_deaths.lock().remove(&id);
        shared.revive(id);
    }
    true
}

/// Discard a staged membership epoch (the *abort* phase): a prepare
/// acked somewhere, but the join could not complete. Ownership reverts
/// to the committed rings; the already-flushed moved slates simply fault
/// back in from the store on the old owner's next touch.
fn membership_abort(shared: &Arc<Shared>, epoch: u64) -> bool {
    if shared.membership.write().abort(epoch) {
        shared.drop_log.log(format!("membership epoch {epoch} aborted; staged state discarded"));
    }
    true
}

/// Apply one membership phase on this node; true is the ack.
fn apply_membership(shared: &Arc<Shared>, update: &MembershipUpdate) -> bool {
    match update.phase {
        MembershipPhase::Prepare => membership_prepare(shared, update),
        MembershipPhase::Commit => membership_commit(shared, update.epoch),
        MembershipPhase::Abort => membership_abort(shared, update.epoch),
    }
}

/// Deliver one membership phase to every participant in `order`: this
/// process's machines by one local call, the others over the wire.
/// `want_ack` only for prepare, where the first refusal or wire failure
/// is returned at once; other phases reach everyone and never fail.
fn fan_out_membership(
    shared: &Arc<Shared>,
    order: &[MachineId],
    update: &MembershipUpdate,
    want_ack: bool,
) -> std::result::Result<(), (MachineId, NetError)> {
    let mut local_done = false;
    for &dest in order {
        let sent = match &shared.wire {
            Some(wire) if !shared.is_local(dest) => wire.send_membership(dest, update, want_ack),
            _ if local_done => continue,
            _ => {
                local_done = true;
                if apply_membership(shared, update) {
                    Ok(())
                } else {
                    Err(NetError::Protocol("local phase refused".to_string()))
                }
            }
        };
        if let (Err(e), true) = (sent, want_ack) {
            return Err((dest, e));
        }
    }
    Ok(())
}

/// The master side of a join: a reserved machine announced it is live.
/// Runs the protocol — prepare to the joiner first (so forwarded events
/// always find it ready) and then to every committed ring member (each
/// ack certifies the moved-away slates were flushed), then commit
/// everywhere; any un-acked prepare aborts the epoch explicitly so no
/// worker is left forwarding to a joiner that never commits. Serialized
/// per master.
fn run_join_protocol(shared: &Arc<Shared>, machine: MachineId) {
    let _serialize = shared.join_lock.lock();
    // A duplicate announcement (e.g. the joiner's commit frame was lost
    // and it re-announced) runs the protocol again: everywhere the
    // machine is already a member the epoch is a no-op, and on the
    // joiner the member-heal path installs it.
    // Mint a fresh epoch, monotone even across aborted attempts: a
    // staged-but-never-committed epoch on some worker must never be
    // reused with different content, or a later commit could install
    // divergent rings there (serialized by join_lock, so load/store is
    // race-free).
    let epoch = (shared.epoch() + 1).max(shared.epoch_mint.load(Ordering::Acquire) + 1);
    shared.epoch_mint.store(epoch, Ordering::Release);
    let nodes = shared.cluster_nodes.lock().clone();
    if machine >= nodes.len() {
        shared.drop_log.log(format!("join announcement for unreserved machine {machine}"));
        return;
    }
    // The barrier participants: the joiner plus the *committed ring
    // members* — the machines that can own moved arcs. Reservations that
    // never announced are excluded (their listeners may not exist; they
    // must not be able to abort someone else's join), and so are failed
    // machines.
    let members = shared.membership.read().committed().members();
    let mut order: Vec<MachineId> = vec![machine];
    order.extend(members.iter().copied().filter(|&id| id != machine));
    let mut post_members = members.clone();
    post_members.push(machine);
    post_members.sort_unstable();
    post_members.dedup();

    let prepare = MembershipUpdate {
        epoch,
        phase: MembershipPhase::Prepare,
        joined: vec![machine],
        members: post_members,
        nodes,
    };
    if let Err((dest, e)) = fan_out_membership(shared, &order, &prepare, true) {
        // An un-acked live participant kills the join: the ack is the
        // handoff barrier — committing past a worker whose flush did
        // not finish would let the joiner fault stale slates out of the
        // store. Abort explicitly so every node that DID stage the
        // epoch reverts to its committed rings instead of forwarding to
        // a joiner that will never commit. (A genuinely dead worker
        // blocks joins only until traffic-driven §4.3 detection removes
        // it from the member set.)
        shared.drop_log.log(format!("join of {machine} aborted: prepare to {dest}: {e}"));
        let abort = MembershipUpdate { phase: MembershipPhase::Abort, ..prepare };
        let _ = fan_out_membership(shared, &order, &abort, false);
        return;
    }
    let commit = MembershipUpdate { phase: MembershipPhase::Commit, ..prepare };
    let _ = fan_out_membership(shared, &order, &commit, false);
}

/// Restart re-identification, master side: a node that crashed and came
/// back announces under its old id. Re-arm the wire to it, wipe the
/// previous incarnation's §4.3 death-ledger entry so a NEW death is
/// detected and logged afresh, and — if the old incarnation was dropped
/// from the rings — run the join protocol to restore its old ring
/// position. Returns this node's epoch.
fn reintroduce(shared: &Arc<Shared>, machine: MachineId) -> u64 {
    shared.revive(machine);
    shared.logged_peer_deaths.lock().remove(&machine);
    let needs_join =
        shared.master.is_failed(machine) || !shared.membership.read().committed().contains(machine);
    if needs_join {
        run_join_protocol(shared, machine);
    }
    shared.epoch()
}

/// The engine side of the wire: what the TCP transport calls with
/// another process's traffic.
struct EngineHandler(Arc<Shared>);

impl ClusterHandler for EngineHandler {
    fn deliver_event(&self, dest: MachineId, ev: WireEvent) -> std::result::Result<(), NetError> {
        deliver_local(&self.0, dest, ev, 1)
    }

    fn deliver_combined(
        &self,
        dest: MachineId,
        ev: WireEvent,
        absorbed: u64,
    ) -> std::result::Result<(), NetError> {
        deliver_local(&self.0, dest, ev, absorbed)
    }

    fn combine_values(&self, op: OpId, acc: &[u8], next: &[u8]) -> Option<Vec<u8>> {
        let shared = &self.0;
        if !shared.cfg.combine {
            return None;
        }
        match shared.ops.get(op) {
            Some(OpInstance::Update { updater, .. }) if updater.combines() => {
                let folded = updater.combine(acc, next);
                if folded.is_some() {
                    shared.stats.combined_events.inc();
                }
                folded
            }
            _ => None,
        }
    }

    fn handle_send_failure(&self, dest: MachineId, lost: Vec<WireEvent>) {
        // The async half of §4.3: a batching sender gave up on `dest`.
        // One detection (the report; the master dedupes), with every
        // undelivered event counted and logged individually — exactly
        // what the synchronous path does per event, amortized over the
        // batch. Never retried.
        let shared = &self.0;
        log_peer_death(shared, dest, lost.len() as u64);
        shared.stats.lost_machine_failure.add(lost.len() as u64);
        for ev in &lost {
            shared.drop_log.log(format!("lost to failed machine {dest}: key={:?}", ev.event.key));
        }
        report_failure(shared, dest);
    }

    fn handle_failure_report(&self, failed: MachineId, epoch: u64) {
        // First live report wins; the master broadcast fans the drop out
        // to every machine (including this one). Duplicates and reports
        // staler than the machine's latest join are absorbed.
        if self.0.master.report_failure(failed, epoch) {
            if let Some(wire) = &self.0.wire {
                wire.broadcast_failure(failed, epoch);
            }
        }
    }

    fn handle_failure_broadcast(&self, failed: MachineId, epoch: u64) {
        apply_ring_drop(&self.0, failed, epoch);
    }

    fn handle_join(&self, machine: MachineId) {
        run_join_protocol(&self.0, machine);
    }

    fn handle_reintroduce(&self, machine: MachineId) -> u64 {
        reintroduce(&self.0, machine)
    }

    fn handle_membership(&self, update: &MembershipUpdate) -> bool {
        apply_membership(&self.0, update)
    }

    fn read_local_slate(&self, dest: MachineId, updater: &str, key: &[u8]) -> Option<Vec<u8>> {
        let shared = &self.0;
        let op = shared.wf.op_id(updater)?;
        if shared.wf.op(op).kind != OpKind::Update {
            return None;
        }
        let machine = shared.machine(dest).filter(|_| shared.is_local(dest))?;
        if !machine.alive.load(Ordering::Acquire) {
            return None;
        }
        read_cached(shared, dest, &machine, op, updater, &Key::from(key))
    }

    fn backend_store_many(&self, items: &[muppet_net::StorePutItem], now_us: u64) -> Vec<bool> {
        // A peer's `StorePut` lands here: one `store_many` on the hosted
        // cluster — cells grouped per LSM node, each node's run
        // WAL-group-committed — with real per-cell quorum outcomes in the
        // ack.
        let Some(store) = &self.0.host_store else {
            return vec![false; items.len()];
        };
        let flush: Vec<crate::cache::FlushItem> = items
            .iter()
            .map(|item| crate::cache::FlushItem {
                updater: Arc::from(item.updater.as_str()),
                key: Key::from(item.key.as_slice()),
                bytes: item.value.clone(),
                ttl_secs: item.ttl_secs,
                codec: item.codec,
            })
            .collect();
        SlateBackend::store_many(&**store, &flush, now_us)
    }

    fn backend_load_many(
        &self,
        items: &[muppet_net::StoreGetItem],
        now_us: u64,
    ) -> Vec<Option<Vec<u8>>> {
        let Some(store) = &self.0.host_store else {
            return vec![None; items.len()];
        };
        let keys: Vec<(Arc<str>, Key)> = items
            .iter()
            .map(|item| (Arc::from(item.updater.as_str()), Key::from(item.key.as_slice())))
            .collect();
        SlateBackend::load_many(&**store, &keys, now_us)
    }
}

/// Register the scrape-time collector. It holds only a `Weak`
/// back-reference — `Shared` owns the registry, so a strong ref would leak
/// both.
fn register_collector(shared: &Arc<Shared>) {
    let weak = Arc::downgrade(shared);
    shared.stats.registry.collector(move |out| {
        if let Some(sh) = weak.upgrade() {
            let caches = sh.caches();
            stats::collect(&sh.wf, &sh.snapshot(&caches), &caches, sh.wire.as_deref(), out);
        }
    });
}

fn flusher_loop(shared: Arc<Shared>, machine_id: usize, interval: Duration) {
    // lint: allow(no-unwrap-in-prod) — flushers are spawned per existing machine index
    let machine = shared.machine(machine_id).expect("flusher spawned for an existing machine");
    loop {
        // Parked until the tick: `Engine::stop` raises the flag, then
        // unparks, so shutdown never waits out a (possibly multi-minute)
        // interval. A spurious wake-up parks again for what is left.
        let deadline = Instant::now() + interval;
        loop {
            if shared.stopping.load(Ordering::Acquire) {
                return;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            std::thread::park_timeout(left);
        }
        if !machine.alive.load(Ordering::Acquire) {
            return;
        }
        let now = shared.now_us();
        for cache in machine.caches() {
            cache.flush_dirty(now);
            cache.retire_evicted(now); // nothing lingers when traffic stops
        }
    }
}

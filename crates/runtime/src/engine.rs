//! The Muppet engines (§4.1, §4.3, §4.5): configuration, the per-machine
//! state, ingest, the worker loop, send and local delivery, and the
//! shell of the membership protocol. Where ⟨function, key⟩ lives is
//! `placement.rs`'s. DESIGN.md §3 describes the engines, §5 the
//! transport seam the machines talk through, §7 elastic membership.

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
use muppet_net::tcp::{BatchConfig, FlushReason, TcpListenerHandle, TcpTransport};
use muppet_net::topology::{NodeSpec, Topology};
use muppet_net::transport::{ClusterHandler, InProcessTransport, MachineId, NetError, Transport};
use muppet_obs::{Counter, Histogram, LatencySummary, Level, Logger, Registry, Sample, Sampler};
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

/// Default lock-shard count for the Muppet 2.0 central slate cache.
pub const DEFAULT_CACHE_SHARDS: usize = 8;
/// Events a worker drains from its queue per lock acquisition. A drain
/// never *waits* for a full batch — it returns whatever is queued — so the
/// batch adds no latency, only removes mutex + condvar round-trips.
pub const DRAIN_BATCH: usize = 64;
/// Default dead-letter queue capacity per machine.
pub const DEFAULT_DLQ_CAPACITY: usize = 1024;
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
    /// Every machine lives in this process; "the network" is a synchronous
    /// queue hand-off (the seed behaviour, now routed through the
    /// [`Transport`] trait).
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
    /// histogram are always on (one relaxed atomic each — they predate
    /// the registry).
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
    /// Dead-letter queue capacity (poison events parked per machine
    /// before the oldest letters are evicted).
    pub dlq_capacity: usize,
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
            dlq_capacity: DEFAULT_DLQ_CAPACITY,
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

/// A queued unit of work: deliver `event` to operator `op`.
struct Packet {
    op: OpId,
    event: Event,
    /// Engine-relative µs at external injection (latency measurement).
    injected_us: u64,
    /// True once redirected to an overflow stream (no double redirects).
    redirected: bool,
    /// Ownership-forwarding hops so far (elastic handoff; capped).
    forwards: u8,
    /// Engine-relative µs at local enqueue when the queue-wait span
    /// sampled this packet; 0 = unsampled. Stamped only on the local
    /// delivery side — never crosses the wire.
    enqueued_us: u64,
}

/// Per-machine state.
struct Machine {
    /// Whether this machine's queues/caches/threads live in this process.
    /// Always true in-process; exactly one machine is local in TCP mode
    /// (the others are bookkeeping stubs for ring/liveness state).
    local: bool,
    alive: AtomicBool,
    queues: Vec<Arc<EventQueue<Packet>>>,
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

/// Cumulative engine counters — registry handles, so the same atomic
/// cells feed both [`EngineStats`] and the `/metrics` exposition.
struct Counters {
    submitted: Counter,
    processed: Counter,
    emitted: Counter,
    lost_machine_failure: Counter,
    lost_in_queues: Counter,
    dropped_overflow: Counter,
    redirected_overflow: Counter,
    throttle_waits: Counter,
    publish_errors: Counter,
    forwarded: Counter,
    ingest_logged: Counter,
    dead_lettered: Counter,
    /// Original events absorbed into a pre-aggregated carrier by a
    /// declared combiner (outbox + local drain folds).
    combined_events: Counter,
    /// Reads that merged split subslates back through the combiner.
    split_merge_reads: Counter,
}

impl Counters {
    fn register(reg: &Registry) -> Counters {
        let lost = "Events lost (§4.3), by reason";
        Counters {
            submitted: reg.counter("muppet_events_submitted_total", "External events accepted"),
            processed: reg
                .counter("muppet_events_processed_total", "Operator invocations completed"),
            emitted: reg.counter("muppet_events_emitted_total", "Events emitted by operators"),
            lost_machine_failure: reg.counter_with(
                "muppet_events_lost_total",
                lost,
                &[("reason", "machine_failure")],
            ),
            lost_in_queues: reg.counter_with(
                "muppet_events_lost_total",
                lost,
                &[("reason", "in_queues")],
            ),
            dropped_overflow: reg
                .counter("muppet_overflow_dropped_total", "Events dropped by the overflow policy"),
            redirected_overflow: reg.counter(
                "muppet_overflow_redirected_total",
                "Events redirected to the overflow stream",
            ),
            throttle_waits: reg.counter(
                "muppet_throttle_waits_total",
                "Times an external producer blocked on source throttling",
            ),
            publish_errors: reg.counter(
                "muppet_publish_errors_total",
                "Emissions to unknown/external streams (discarded)",
            ),
            forwarded: reg.counter(
                "muppet_events_forwarded_total",
                "Events re-sent to their current owner (elastic handoff)",
            ),
            ingest_logged: reg.counter(
                "muppet_wal_ingest_records_total",
                "Events written to the ingest WAL (fsynced before their ack)",
            ),
            dead_lettered: reg.counter(
                "muppet_dead_letters_total",
                "Poison events parked in the dead-letter queue",
            ),
            combined_events: reg.counter(
                "muppet_combined_events_total",
                "Original events absorbed into combiner-folded carriers",
            ),
            split_merge_reads: reg.counter(
                "muppet_split_merge_reads_total",
                "Slate reads that merged hot-key subslates through the combiner",
            ),
        }
    }
}

/// Public snapshot of engine statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// External events accepted via `submit`.
    pub submitted: u64,
    /// Operator invocations completed.
    pub processed: u64,
    /// Events emitted by operators.
    pub emitted: u64,
    /// Events lost to machine failures (undeliverable sends).
    pub lost_machine_failure: u64,
    /// Events lost inside a crashed machine's queues.
    pub lost_in_queues: u64,
    /// Events dropped by the overflow policy.
    pub dropped_overflow: u64,
    /// Events redirected to the overflow stream.
    pub redirected_overflow: u64,
    /// Times an external producer blocked on source throttling.
    pub throttle_waits: u64,
    /// Emissions to unknown/external streams (discarded, counted).
    pub publish_errors: u64,
    /// Events re-sent to their current owner by a machine that no longer
    /// owned their key (elastic handoff / laggard rings) — never lost,
    /// just re-routed.
    pub forwarded: u64,
    /// The membership epoch this node has installed.
    pub epoch: u64,
    /// End-to-end latency (injection → updater completion).
    pub latency: LatencySummary,
    /// Aggregated slate-cache stats.
    pub cache: crate::cache::CacheStats,
    /// Dirty slates that never reached the store (loss bound, §4.3).
    pub dirty_slates: u64,
    /// Wire-level counters (all zero for the in-process transport).
    pub net: NetSummary,
    /// Queue drain-batch sizes (how many events workers pop per lock
    /// acquisition).
    pub drain: DrainSummary,
    /// The write-behind store pipeline (flush batching + single-flight
    /// misses), aggregated across this node's slate caches.
    pub store: StoreSummary,
    /// Original events absorbed into combiner-folded carriers (map-side
    /// pre-aggregation in the outbox and the local dispatch drain).
    pub combined_events: u64,
    /// Hot keys currently split across subslates on this node.
    pub split_keys_active: u64,
    /// Slate reads that merged split subslates through the combiner.
    pub split_merge_reads: u64,
}

/// Counters of the write-behind store pipeline (DESIGN.md §9).
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreSummary {
    /// Batched `store_many` calls issued by flush sweeps.
    pub flush_batches: u64,
    /// Median flush-batch size (power-of-two bucket upper bound; worst
    /// cache when a machine owns several).
    pub flush_batch_p50: u64,
    /// Largest single flush batch.
    pub flush_batch_largest: u64,
    /// Backend round trips (loads + stores + batched stores) — over a
    /// remote store host, the wire-round-trip count of the slate path.
    pub store_round_trips: u64,
    /// Concurrent cache misses that shared another miss's in-flight
    /// backend load (single-flight read-through).
    pub miss_coalesced: u64,
}

/// Distribution of worker queue drain-batch sizes (events per
/// `pop_many`). Percentiles are power-of-two bucket upper bounds.
#[derive(Clone, Copy, Debug, Default)]
pub struct DrainSummary {
    /// Non-empty drains.
    pub drains: u64,
    /// Mean batch size.
    pub mean: u64,
    /// Median batch size (bucket upper bound).
    pub p50: u64,
    /// 99th-percentile batch size (bucket upper bound).
    pub p99: u64,
    /// Largest single drain.
    pub max: u64,
}

/// One reading of the ingest WAL ([`Engine::ingest_wal`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestWalView {
    /// Events logged (and dispatched).
    pub written: u64,
    /// Events an fsync covers; `written − durable` is the un-acked window.
    pub durable: u64,
    /// An I/O error has poisoned the log.
    pub failed: bool,
    /// Fsyncs issued.
    pub syncs: u64,
    /// Bytes in the segment, header included.
    pub bytes: u64,
    /// Frames in the segment.
    pub frames: u64,
}

/// Snapshot of the TCP transport's counters (see `muppet_net::TcpStats`).
#[derive(Clone, Copy, Debug, Default)]
pub struct NetSummary {
    /// Frames written to peers (events, batches, and request frames).
    pub frames_sent: u64,
    /// Frames received by this node's listener.
    pub frames_received: u64,
    /// Multi-event frames written by the batching senders.
    pub batches_sent: u64,
    /// Events shipped through the batching path.
    pub batched_events_sent: u64,
    /// Wire failures that triggered §4.3 detection.
    pub send_failures: u64,
    /// Times a producer blocked on a full peer outbox (backpressure).
    pub queue_full_waits: u64,
    /// Gauge: events accepted for send but not yet on the wire.
    pub outbound_backlog: u64,
    /// Batches the senders took, by reason, in
    /// [`muppet_net::tcp::FlushReason::ALL`] order (size, demand, age,
    /// stop). Mostly `age` means producers are not signalling; all `size`
    /// means the node is backlogged.
    pub flushes: [u64; 4],
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
            local: false,
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
    fn local(
        bound: Option<&[OpId]>,
        wf: &Workflow,
        cfg: &EngineConfig,
        backend: &Arc<dyn SlateBackend>,
        obs: &CacheObs,
    ) -> Machine {
        let cache = |capacity: usize, shards: usize| {
            Arc::new(
                SlateCache::with_shards(capacity, cfg.flush, Arc::clone(backend), shards)
                    .with_flush_batch(cfg.flush_batch_max)
                    .with_store_codec(cfg.wire_codec.store_codec())
                    .with_hot_keys(obs.hot_key_capacity, obs.hot_sample_n)
                    .with_flush_latency(Arc::clone(&obs.flush_latency))
                    .with_logger(Arc::clone(&obs.logger)),
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
            local: true,
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

/// Help string shared by every `muppet_stage_latency_us` series.
const STAGE_HELP: &str = "Sampled per-stage event latency, microseconds";

/// The observability wiring every slate cache receives at construction —
/// founding machines and elastic joiners alike (kept in [`Shared`] so
/// `join_machine` builds identically instrumented caches).
#[derive(Clone)]
struct CacheObs {
    /// The `stage="flush"` latency histogram (backend store calls).
    flush_latency: Arc<Histogram>,
    logger: Arc<Logger>,
    /// Keys per shard for the hot-key sketch (0 = disabled).
    hot_key_capacity: usize,
    /// 1-in-N sampling of sketch offers (counted with weight N).
    hot_sample_n: u64,
}

/// Sampled per-stage latency spans: ingest (submit → accepted by a
/// queue), queue-wait (enqueue → drained), service (slate fetch +
/// operator execution, labeled per op), and fan-out (emitted records →
/// re-routed). The flush stage lives cache-side via [`CacheObs`]. Each
/// span is timed on 1 in `latency_sample_n` events; an unsampled event
/// pays one relaxed fetch_add and a branch.
struct StageMetrics {
    /// False ⇒ every span site is a single load + branch.
    enabled: bool,
    sampler_ingest: Sampler,
    sampler_queue: Sampler,
    sampler_service: Sampler,
    sampler_fanout: Sampler,
    ingest: Arc<Histogram>,
    queue_wait: Arc<Histogram>,
    /// Indexed by `OpId`.
    service: Vec<Arc<Histogram>>,
    fanout: Arc<Histogram>,
}

impl StageMetrics {
    fn new(reg: &Registry, wf: &Workflow, cfg: &EngineConfig) -> StageMetrics {
        let n = cfg.latency_sample_n.max(1);
        let stage =
            |s: &str| reg.histogram_with("muppet_stage_latency_us", STAGE_HELP, &[("stage", s)]);
        StageMetrics {
            enabled: cfg.metrics,
            sampler_ingest: Sampler::every(n),
            sampler_queue: Sampler::every(n),
            sampler_service: Sampler::every(n),
            sampler_fanout: Sampler::every(n),
            ingest: stage("ingest"),
            queue_wait: stage("queue_wait"),
            service: wf
                .ops()
                .iter()
                .map(|op| {
                    reg.histogram_with(
                        "muppet_stage_latency_us",
                        STAGE_HELP,
                        &[("stage", "service"), ("op", &op.name)],
                    )
                })
                .collect(),
            fanout: stage("fanout"),
        }
    }
}

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
    /// The wire (in-process hand-off or TCP).
    transport: Arc<dyn Transport>,
    /// TCP mode: the concrete transport, for wire-level stats snapshots.
    tcp: Option<Arc<TcpTransport>>,
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
    stopping: AtomicBool,
    counters: Counters,
    latency: Arc<Histogram>,
    /// Batch sizes of non-empty worker queue drains.
    drain_hist: Arc<Histogram>,
    /// The unified metrics registry: every counter/histogram above is a
    /// handle into it, and collectors pull cache/net/store state at
    /// scrape time. `Engine::registry()` / `GET /metrics` expose it.
    registry: Arc<Registry>,
    /// Sampled per-stage latency spans.
    stages: StageMetrics,
    /// Leveled incident logger (peer deaths, flush failures). Disabled
    /// (`Level::Off`) unless the config raises it.
    logger: Arc<Logger>,
    /// Peers whose death was already logged through `logger`: §4.3
    /// detection can fire concurrently from the sync-send, forward, and
    /// batch-sender paths for one incident; this set makes the
    /// operator-facing record exactly-once while the [`DropLog`] ring
    /// keeps its per-event entries.
    logged_peer_deaths: Mutex<HashSet<usize>>,
    /// Cache observability wiring, reused by elastic joins.
    cache_obs: CacheObs,
    drop_log: DropLog,
    start: Instant,
    /// Source-throttling gate: producers wait here when queues are full.
    throttle_mutex: Mutex<()>,
    throttle_cv: Condvar,
    /// The per-machine ingest WAL (`None` = the paper's §4.3 semantics:
    /// in-flight work dies with the machine).
    ingest_log: Option<Arc<IngestLog>>,
    /// Events replayed from the ingest WAL by this start (past the
    /// checkpointed cursor).
    recovered: AtomicU64,
    /// Poison events parked instead of killing worker threads.
    dlq: Arc<DeadLetterQueue>,
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
                dirty_left += cache.stats().dirty;
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
        let id = self.transport.local_machine().unwrap_or(0);
        Key::from(format!("node-{id}"))
    }

    /// The checkpointed replay cursor: events `0..cursor` of the ingest
    /// WAL are already reflected in store-recovered slates.
    fn load_ingest_cursor(&self) -> u64 {
        self.backend
            .load(INGEST_CURSOR_COLUMN, &self.ingest_cursor_key(), self.now_us())
            .and_then(|bytes| String::from_utf8(bytes).ok()?.trim().parse().ok())
            .unwrap_or(0)
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
    /// Keeps the transport's weak handler registration alive.
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
        let (transport, tcp): (Arc<dyn Transport>, Option<Arc<TcpTransport>>) = match &cfg.transport
        {
            TransportKind::InProcess => (Arc::new(InProcessTransport::new()), None),
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
                let tcp =
                    TcpTransport::new_with_codec(topology.clone(), *local, batch, cfg.wire_codec)
                        .map_err(Error::Config)?;
                (Arc::clone(&tcp) as Arc<dyn Transport>, Some(tcp))
            }
        };
        let is_local = |m: usize| transport.is_local(m);

        // Pick the slate backend: a directly attached store, a remote
        // store service reached through the transport, or nothing.
        let backend: Arc<dyn SlateBackend> =
            match (&store, cfg.store_host, transport.local_machine()) {
                (Some(cluster), _, _) => Arc::clone(cluster) as Arc<dyn SlateBackend>,
                (None, Some(host), Some(local)) if host != local => {
                    Arc::new(RemoteBackend::new(Arc::clone(&transport), host))
                }
                _ => Arc::new(NullBackend),
            };
        let has_backend = store.is_some()
            || matches!((cfg.store_host, transport.local_machine()), (Some(h), Some(l)) if h != l);

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

        // The observability substrate: one registry per engine, built
        // before the machines so every cache records into it from the
        // first event.
        let registry = Arc::new(Registry::new());
        let logger = if cfg.log_level == Level::Off {
            Logger::disabled()
        } else {
            Logger::stderr(cfg.log_level, cfg.log_json, transport.local_machine().map(|m| m as u64))
        };
        if let Some(tcp) = &tcp {
            // A closed connection is all a node running another binary, or
            // one behind a corrupting link, ever sees of this one, and its
            // own log blames a dead peer.
            let logger = Arc::clone(&logger);
            tcp.on_rejected(move |peer, offered| {
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
        let stages = StageMetrics::new(&registry, &workflow, &cfg);
        let cache_obs = CacheObs {
            flush_latency: registry.histogram_with(
                "muppet_stage_latency_us",
                STAGE_HELP,
                &[("stage", "flush")],
            ),
            logger: Arc::clone(&logger),
            hot_key_capacity: if cfg.metrics { HOT_KEY_CAPACITY } else { 0 },
            hot_sample_n: cfg.latency_sample_n.max(1),
        };

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
                transport.local_machine() != Some(m)
                    && !v.failed.contains(&m)
                    && v.members.contains(&m)
            })
        };
        (0..cfg.machines).filter(|&m| in_ring(m)).for_each(|m| rings.add_machine(m));
        let failed: &[usize] = view.map_or(&[], |v| &v.failed);
        let machines: Vec<Arc<Machine>> = (0..cfg.machines)
            .map(|m| {
                let machine = if is_local(m) {
                    Machine::local(
                        rings.bound_ops(m).as_deref(),
                        &workflow,
                        &cfg,
                        &backend,
                        &cache_obs,
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
                if cfg.metrics {
                    // Every group commit's fsync wall time (one sample per
                    // sync): the floor of ack latency.
                    log.record_sync_latency(registry.histogram_with(
                        "muppet_stage_latency_us",
                        STAGE_HELP,
                        &[("stage", "wal_sync")],
                    ));
                }
                (Some(Arc::new(log)), Some(rec))
            }
            None => (None, None),
        };

        let initial_epoch = view.map_or(0, |v| v.epoch);
        let initial_failed = failed.to_vec();
        let dlq_capacity = cfg.dlq_capacity;
        let shared = Arc::new(Shared {
            membership: RwLock::new(Membership::new(initial_epoch, rings)),
            cluster_nodes: Mutex::new(cluster_nodes),
            join_lock: Mutex::new(()),
            epoch_mint: AtomicU64::new(initial_epoch),
            wf: workflow,
            ops,
            machines: RwLock::new(machines),
            transport: Arc::clone(&transport),
            tcp: tcp.clone(),
            host_store: store.clone(),
            backend,
            has_backend,
            master: Master::new(),
            pending: AtomicI64::new(0),
            stopping: AtomicBool::new(false),
            counters: Counters::register(&registry),
            latency: registry.histogram(
                "muppet_event_latency_us",
                "End-to-end event latency (injection → updater completion), microseconds",
            ),
            drain_hist: registry
                .histogram("muppet_drain_batch_events", "Events per non-empty worker queue drain"),
            registry,
            stages,
            logger,
            logged_peer_deaths: Mutex::new(HashSet::new()),
            cache_obs,
            drop_log: DropLog::new(1024),
            start: Instant::now(),
            throttle_mutex: Mutex::new(()),
            throttle_cv: Condvar::new(),
            ingest_log,
            recovered: AtomicU64::new(0),
            dlq: Arc::new(DeadLetterQueue::new(dlq_capacity)),
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
        register_collectors(&shared);

        // Wire the transport back into this engine.
        let handler = Arc::new(EngineHandler(Arc::clone(&shared)));
        transport.register(Arc::downgrade(&handler) as std::sync::Weak<dyn ClusterHandler>);

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
            for m in 0..machines.len() {
                if machines[m].local {
                    flushers.push(spawn_flusher(&shared, m));
                }
            }
        }
        // TCP mode: open this node's inbound wire last, so peers never see
        // a half-initialized engine.
        let listener = match &tcp {
            Some(tcp) => Some(
                tcp.start_listener()
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
        if let Some(recovery) = ingest_recovery {
            engine.replay_recovered(&recovery)?;
        }
        Ok(engine)
    }

    /// Re-inject the ingest-WAL suffix past the persisted cursor. The
    /// replayed events fan out exactly like fresh submissions — same
    /// routing, same seq assignment order — but are *not* re-appended to
    /// the WAL (they are already in it) and count as `recovered`, not
    /// `submitted`. The cursor counts events and may land inside a frame
    /// (a checkpoint racing a submit); only the frames it does not cover
    /// whole are decoded.
    fn replay_recovered(&self, recovery: &IngestRecovery) -> Result<()> {
        let shared = &self.shared;
        let cursor = shared.load_ingest_cursor();
        let events = recovery
            .events_after(cursor)
            .map_err(|e| Error::Config(format!("cannot replay ingest WAL: {e}")))?;
        let replayed = events.len() as u64;
        for event in events {
            let stream = event.stream.clone();
            fan_out(shared, &stream, event, shared.now_us(), false, true, &mut Vec::new());
        }
        shared.recovered.store(replayed, Ordering::Release);
        if replayed > 0 || recovery.truncated {
            shared.logger.warn(
                "ingest WAL recovery",
                &[
                    ("logged", recovery.events.into()),
                    ("cursor", cursor.into()),
                    ("replayed", replayed.into()),
                    ("torn_tail", u64::from(recovery.truncated).into()),
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
        let logged = self.log_accepted(events)?;
        self.dispatch_accepted(run);
        self.wait_durable(logged)
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
        while self.shared.pending.load(Ordering::Acquire)
            + self.shared.transport.outbound_backlog() as i64
            > budget
        {
            if self.shared.stopping.load(Ordering::Acquire) {
                break;
            }
            self.shared.counters.throttle_waits.inc();
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
        self.shared.counters.ingest_logged.add(events.len() as u64);
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
        let idle =
            shared.pending.load(Ordering::Acquire) == 0 && shared.transport.outbound_backlog() == 0;
        let mut touched = Vec::new();
        for event in events {
            let stream = event.stream.clone();
            let injected_us = shared.now_us();
            shared.counters.submitted.inc();
            fan_out(shared, &stream, event, injected_us, false, true, &mut touched);
            if shared.stages.enabled && shared.stages.sampler_ingest.hit() {
                // The ingest span: external injection → accepted by a queue
                // (or the transport's outbox) for every subscriber.
                shared.stages.ingest.record(shared.now_us().saturating_sub(injected_us));
            }
        }
        if idle {
            shared.transport.flush_events(&touched);
        }
    }

    /// Convenience: submit with the engine assigning the timestamp (µs
    /// since engine start).
    pub fn submit_kv(&self, stream: &str, key: Key, value: impl Into<Bytes>) -> Result<()> {
        let ts = self.shared.now_us();
        self.submit(Event::new(stream, ts, key, value))
    }

    /// Wait until all in-flight events finish (or `timeout` elapses) —
    /// including events still parked in the transport's outbound batching
    /// queues, which have not reached their destination machine yet.
    /// Returns true on a full drain.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.shared.pending.load(Ordering::Acquire) > 0
            || self.shared.transport.outbound_backlog() > 0
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
            shared.counters.split_merge_reads.inc();
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
        if self.shared.transport.is_local(owner) {
            let Some(machine) = self.shared.machine(owner) else { return Ok(None) };
            if !machine.alive.load(Ordering::Acquire) {
                return Err(NetError::Unreachable(owner));
            }
            Ok(read_cached(&self.shared, owner, &machine, op, updater, key))
        } else {
            self.shared.transport.read_slate(owner, updater, key.as_bytes())
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
        let Some(m) = self.shared.machine(machine) else { return };
        if !m.local {
            return;
        }
        if !m.alive.swap(false, Ordering::AcqRel) {
            return;
        }
        let mut lost = 0u64;
        for q in &m.queues {
            let dropped = q.drain_all();
            lost += dropped.len() as u64;
            q.notify();
        }
        self.shared.counters.lost_in_queues.add(lost);
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
    /// simulated cluster and drive the full membership protocol through
    /// the transport — reserve, prepare (epoch-stamped, with the dirty
    /// slates of moved arcs handed off), commit. Returns the new
    /// machine's id. TCP clusters grow via `muppetd --join` instead.
    pub fn join_machine(&self) -> Result<usize> {
        let shared = &self.shared;
        if shared.transport.local_machine().is_some() {
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
            shared.machines.write().push(Arc::new(Machine::local(
                bound.as_deref(),
                &shared.wf,
                &shared.cfg,
                &shared.backend,
                &shared.cache_obs,
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
        // Announce readiness: the (in-process) master role runs the
        // prepare → handoff → commit protocol synchronously.
        shared
            .transport
            .send_join(0, id)
            .map_err(|e| Error::Config(format!("join announcement failed: {e}")))?;
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
        let Some(tcp) = &shared.tcp else {
            return Err(Error::Config("join reservations require the TCP transport".into()));
        };
        let master = tcp.topology().master;
        if shared.transport.local_machine() != Some(master) {
            return Err(Error::Config(format!("joins must be sent to the master (node {master})")));
        }
        let _serialize = shared.join_lock.lock();
        let mut cluster_nodes = shared.cluster_nodes.lock();
        let id = cluster_nodes.len();
        let spec = NodeSpec { id, host: host.to_string(), port, http_port };
        tcp.add_peer(&spec).map_err(Error::Config)?;
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
        let shared = &self.shared;
        let Some(local) = shared.transport.local_machine() else {
            return Err(Error::Config("announce_join is for TCP joiners".into()));
        };
        let Some(tcp) = &shared.tcp else {
            return Err(Error::Config("announce_join is for TCP joiners".into()));
        };
        shared
            .transport
            .send_join(tcp.topology().master, local)
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
        let Some(local) = shared.transport.local_machine() else {
            return Ok(());
        };
        let Some(tcp) = &shared.tcp else {
            return Ok(());
        };
        let master = tcp.topology().master;
        if local == master {
            EngineHandler(Arc::clone(shared)).handle_reintroduce(local);
            return Ok(());
        }
        shared
            .transport
            .reintroduce(master, local)
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
        self.shared.transport.local_machine()
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
        let c = &self.shared.counters;
        let mut cache = crate::cache::CacheStats::default();
        for m in &self.shared.machines_snapshot() {
            m.caches().for_each(|c| cache.absorb(&c.stats()));
        }
        let net = match &self.shared.tcp {
            Some(tcp) => {
                let t = tcp.stats();
                NetSummary {
                    frames_sent: t.frames_sent.load(Ordering::Relaxed),
                    frames_received: t.frames_received.load(Ordering::Relaxed),
                    batches_sent: t.batches_sent.load(Ordering::Relaxed),
                    batched_events_sent: t.batched_events_sent.load(Ordering::Relaxed),
                    send_failures: t.send_failures.load(Ordering::Relaxed),
                    queue_full_waits: t.queue_full_waits.load(Ordering::Relaxed),
                    outbound_backlog: t.outbound_backlog.load(Ordering::Relaxed),
                    flushes: FlushReason::ALL.map(|r| t.flushes(r)),
                }
            }
            None => NetSummary::default(),
        };
        EngineStats {
            submitted: c.submitted.get(),
            processed: c.processed.get(),
            emitted: c.emitted.get(),
            lost_machine_failure: c.lost_machine_failure.get(),
            lost_in_queues: c.lost_in_queues.get(),
            dropped_overflow: c.dropped_overflow.get(),
            redirected_overflow: c.redirected_overflow.get(),
            throttle_waits: c.throttle_waits.get(),
            publish_errors: c.publish_errors.get(),
            forwarded: c.forwarded.get(),
            combined_events: c.combined_events.get(),
            split_keys_active: self.shared.splits.active.load(Ordering::Acquire),
            split_merge_reads: c.split_merge_reads.get(),
            epoch: self.shared.epoch(),
            latency: self.shared.latency.summary(),
            cache,
            dirty_slates: cache.dirty,
            net,
            drain: {
                let d = self.shared.drain_hist.summary();
                DrainSummary {
                    drains: d.count,
                    mean: d.mean_us,
                    p50: d.p50_us,
                    p99: d.p99_us,
                    max: d.max_us,
                }
            },
            store: StoreSummary {
                flush_batches: cache.flush_batches,
                flush_batch_p50: cache.flush_batch_p50,
                flush_batch_largest: cache.flush_batch_largest,
                store_round_trips: cache.store_round_trips,
                miss_coalesced: cache.miss_coalesced,
            },
        }
    }

    /// The engine's unified metrics registry: every [`EngineStats`]
    /// counter plus cache/net/store collectors. `registry().render()` is
    /// the Prometheus text exposition served at `GET /metrics`.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// The Prometheus text exposition of this engine's registry.
    pub fn metrics_text(&self) -> String {
        self.shared.registry.render()
    }

    /// Whole seconds since the engine started.
    pub fn uptime_s(&self) -> u64 {
        self.shared.start.elapsed().as_secs()
    }

    /// The hottest ⟨updater, key⟩ pairs this node has seen, estimated by
    /// the per-shard space-saving sketches (count, overshoot bound), best
    /// first. Empty when metrics are off.
    pub fn hot_keys(&self, k: usize) -> Vec<(String, Key, u64, u64)> {
        let mut all = Vec::new();
        for m in &self.shared.machines_snapshot() {
            m.caches().for_each(|cache| all.extend(cache.hot_keys(k)));
        }
        all.sort_by(|a, b| b.count.cmp(&a.count).then(a.err.cmp(&b.err)));
        all.truncate(k);
        all.into_iter()
            .map(|hh| {
                let (op, key) = hh.key;
                let name = self.shared.wf.op(op).name.clone();
                (name, key, hh.count, hh.err)
            })
            .collect()
    }

    /// Per-shard cache statistics, summed shard-wise across this engine's
    /// slate caches (Muppet 1.0's per-worker caches have one shard each).
    pub fn cache_shard_stats(&self) -> Vec<crate::cache::ShardStats> {
        let mut out: Vec<crate::cache::ShardStats> = Vec::new();
        for m in &self.shared.machines_snapshot() {
            for cache in m.caches() {
                let per = cache.shard_stats();
                if out.len() < per.len() {
                    out.resize(per.len(), crate::cache::ShardStats::default());
                }
                for (acc, s) in out.iter_mut().zip(per) {
                    acc.hits += s.hits;
                    acc.misses += s.misses;
                    acc.entries += s.entries;
                    acc.capacity += s.capacity;
                }
            }
        }
        out
    }

    /// Recent drop-log entries (§4.3: dropped events "can be logged for
    /// later processing and debugging").
    pub fn recent_drops(&self) -> Vec<String> {
        self.shared.drop_log.recent()
    }

    /// Events replayed from the ingest WAL when this engine started
    /// (zero without an ingest WAL, and zero after a clean checkpointed
    /// shutdown — the SIGTERM acceptance test's assertion).
    pub fn recovered_replayed(&self) -> u64 {
        self.shared.recovered.load(Ordering::Acquire)
    }

    /// The ingest WAL's counters, or `None` when ingest logging is off.
    pub fn ingest_wal(&self) -> Option<IngestWalView> {
        let log = self.shared.ingest_log.as_ref()?;
        Some(IngestWalView {
            written: log.record_count(),
            durable: log.durable_count(),
            failed: log.failed(),
            syncs: log.sync_count(),
            bytes: log.byte_count(),
            frames: log.frame_count(),
        })
    }

    /// This machine's dead-letter queue.
    pub fn dlq(&self) -> Arc<DeadLetterQueue> {
        Arc::clone(&self.shared.dlq)
    }

    /// Re-inject every parked dead letter into the dispatch path (the
    /// `POST /dlq/retry` admin action — after a buggy updater is fixed
    /// or a transient failure clears). Returns how many were re-sent. A
    /// letter that poisons again simply comes back to the queue.
    pub fn dlq_retry(&self) -> usize {
        let letters = self.shared.dlq.drain();
        let n = letters.len();
        for letter in letters {
            let packet = Packet {
                op: letter.op,
                event: letter.event,
                injected_us: self.shared.now_us(),
                redirected: false,
                forwards: 0,
                enqueued_us: 0,
            };
            try_send(&self.shared, packet, true, &mut Vec::new());
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

    /// Draw a recovery line: drain in-flight work, fsync the ingest WAL,
    /// flush every dirty slate, and persist the replay cursor at the
    /// WAL's record count. After a successful checkpoint a restart
    /// replays zero events.
    ///
    /// The log is synced *before* the first slate reaches the store:
    /// dispatch precedes durability (see [`Engine::submit`]), so this
    /// order is what keeps the store from ever holding an effect the
    /// durable log lacks.
    ///
    /// Returns false — leaving the *old* cursor authoritative, so a
    /// restart replays more than necessary but never misses an event —
    /// when the drain timed out, the log could not be synced (nothing is
    /// flushed then), a slate failed to flush, or the cursor write did
    /// not reach the store. Engines without an ingest WAL return true
    /// trivially.
    pub fn checkpoint(&self, timeout: Duration) -> bool {
        let Some(log) = self.shared.ingest_log.as_ref() else {
            return true;
        };
        if !self.drain(timeout) || log.sync().is_err() {
            return false;
        }
        // The flushed store state now reflects exactly the durable WAL
        // prefix `0..record_count`.
        if self.shared.flush_live_caches() > 0 {
            // Some slate did not reach the store (quorum failure, dead
            // store host): advancing the cursor would lose its updates.
            return false;
        }
        self.shared.store_ingest_cursor(log.record_count())
    }

    /// Stop the engine: waits for queues to drain (bounded), flushes all
    /// dirty slates (graceful shutdown), joins threads, and returns final
    /// stats.
    pub fn shutdown(self) -> EngineStats {
        self.drain(Duration::from_secs(30));
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
            let _ = t.join();
        }
        // Graceful final flush, sealing the recovery line — log first, as
        // in `checkpoint`: the flushed slates cover the whole durable
        // ingest log, so a restart after this clean shutdown replays
        // nothing. If the log cannot be synced the store stays at the last
        // checkpoint and a restart replays whatever suffix the file holds.
        let log = self.shared.ingest_log.as_ref();
        if log.is_none_or(|log| log.sync().is_ok()) {
            self.shared.flush_live_caches();
            if let Some(log) = log {
                self.shared.store_ingest_cursor(log.record_count());
            }
        }
        self.stats()
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
    let mut batch: Vec<Packet> = Vec::with_capacity(DRAIN_BATCH);
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
            shared.drain_hist.record(n as u64);
            let owed =
                process_batch(&shared, &machine, machine_id, thread, &mut batch, &mut touched);
            // About to park: this producer has nothing more to add, so its
            // emissions leave now — and then, with nobody waiting on it,
            // it writes back the slates its misses chose for eviction.
            // With more queued it keeps draining and both keep
            // accumulating into fuller batches.
            let idle = machine.queues[thread].len_hint() == 0;
            if !touched.is_empty() && idle {
                shared.transport.flush_events(&touched);
                touched.clear();
            }
            settle_retire(&shared, &machine, thread, owed, idle);
        }
    }
}

/// Take one in-flight unit for the eviction retire this worker now owes,
/// if its cache has victims waiting and it holds none yet. Called only
/// while a packet of the current batch still holds its own unit, so
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

/// A processed packet whose emissions have not fanned out yet. Fan-out
/// re-enters the membership lock on the in-process send path, so while a
/// run's read guard is held the follow-up work is parked here; the
/// packet's in-flight count drops only once its emissions are enqueued
/// (`finish_packet`), so `drain`/throttling never observe a gap.
struct Finished {
    op: OpId,
    ts: u64,
    injected_us: u64,
    redirected: bool,
    records: Vec<muppet_core::event::EmitRecord>,
}

/// Admit one finished packet's emissions (ts = input ts + 1, §3) and
/// retire it from the in-flight count.
fn finish_packet(shared: &Arc<Shared>, done: Finished, touched: &mut Vec<MachineId>) {
    let fanout_t0 =
        (!done.records.is_empty() && shared.stages.enabled && shared.stages.sampler_fanout.hit())
            .then(|| shared.now_us());
    for rec in done.records {
        shared.counters.emitted.inc();
        if shared.wf.is_external(rec.stream.as_str()) || !shared.wf.has_stream(rec.stream.as_str())
        {
            shared.counters.publish_errors.inc();
            shared.drop_log.log(format!(
                "illegal publish to {} from {}",
                rec.stream,
                shared.wf.op(done.op).name
            ));
            continue;
        }
        let out = Event {
            stream: rec.stream.clone(),
            ts: done.ts + 1,
            key: rec.key,
            value: rec.value,
            seq: 0,
        };
        fan_out(shared, &rec.stream, out, done.injected_us, done.redirected, false, touched);
    }
    if let Some(t0) = fanout_t0 {
        shared.stages.fanout.record(shared.now_us().saturating_sub(t0));
    }
    shared.pending.fetch_sub(1, Ordering::AcqRel);
    shared.throttle_cv.notify_all();
}

/// Process one drained batch. The updater packets of a batch share a
/// single membership read guard (a *run*; mapper packets need no lock and
/// pass through without closing it), and consecutive same-⟨op, key⟩
/// updater packets reuse the previous packet's cache slot (the memo)
/// without touching the shard lock — the per-event costs the batch
/// amortizes. Every packet's fan-out is deferred while the guard is held
/// (the in-process send path re-enters the membership lock) and flushed
/// when the run closes: at a packet that must be forwarded, and at batch
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
    batch: &mut Vec<Packet>,
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
        // then): claimed here, while every packet of this batch is in flight.
        claim_retire(shared, cache, &mut retire_owed);
    }
    let mut memo: Option<(OpId, Key, Arc<SlateSlot>)> = None;
    let mut finished: Vec<Finished> = Vec::new();
    let mut guard: Option<muppet_core::sync::RwLockReadGuard<'_, Membership>> = None;
    for mut packet in batch.drain(..) {
        // Owner-side split rewrite: events that were already in flight
        // (or forwarded) when a split installed still fan out. The
        // rewritten subkey re-routes below like any other key.
        if shared.split_enabled()
            && matches!(&shared.ops[packet.op],
                OpInstance::Update { updater, .. } if updater.combines())
        {
            if let Some(sub) = shared.split_route(packet.op, &packet.event.key) {
                packet.event.key = sub;
            }
        }
        // Muppet 1.0 invariant: a worker is bound to exactly one function.
        debug_assert!(
            machine.thread_ops[thread].is_none() || machine.thread_ops[thread] == Some(packet.op),
            "1.0 worker received an event for a function it does not run"
        );
        let route = packet.event.key.route_hash(&shared.wf.op(packet.op).name);
        machine.in_flight[thread].store(route.wrapping_add(1), Ordering::Release);
        if packet.enqueued_us > 0 {
            // The queue-wait span: stamped at local enqueue by a sampler
            // hit, closed when the drain reaches the packet.
            shared.stages.queue_wait.record(shared.now_us().saturating_sub(packet.enqueued_us));
        }
        match &shared.ops[packet.op] {
            OpInstance::Map(mapper) => {
                // Mappers need no membership lock; an open updater run's
                // guard is left in place and the mapper's fan-out joins
                // the deferred queue like everyone else's.
                let service_t0 = (shared.stages.enabled && shared.stages.sampler_service.hit())
                    .then(|| shared.now_us());
                let mut emitter = VecEmitter::new();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    mapper.map(&mut emitter, &packet.event)
                }));
                if let Err(payload) = outcome {
                    // Poison event: contain the panic (an uncontained one
                    // kills this worker thread and wedges `drain` on the
                    // stuck pending count), discard any partial emissions,
                    // park the event, keep draining.
                    machine.in_flight[thread].store(0, Ordering::Release);
                    dead_letter(shared, packet, payload);
                    continue;
                }
                if let Some(t0) = service_t0 {
                    shared.stages.service[packet.op].record(shared.now_us().saturating_sub(t0));
                }
                shared.counters.processed.inc();
                machine.in_flight[thread].store(0, Ordering::Release);
                finished.push(Finished {
                    op: packet.op,
                    ts: packet.event.ts,
                    injected_us: packet.injected_us,
                    redirected: packet.redirected,
                    records: emitter.take(),
                });
            }
            OpInstance::Update { updater, name, ttl_secs } => {
                // With a store backend attached, a memo-missing packet's
                // get_or_load below may do real I/O (disk, or a remote
                // store RPC). Close the run first so a waiting membership
                // writer (join prepare/commit) gets in between I/O-bound
                // packets — the pre-batching cadence — instead of stalling
                // behind a whole batch of sequential loads. Store-less
                // engines load from memory in microseconds and keep the
                // full run amortization.
                let memo_hit = matches!(&memo, Some((m_op, m_key, _))
                    if *m_op == packet.op && *m_key == packet.event.key);
                if shared.has_backend && guard.is_some() && !memo_hit {
                    memo = None;
                    drop(guard.take());
                    for done in finished.drain(..) {
                        finish_packet(shared, done, touched);
                    }
                }
                // The ownership check, under the membership read lock held
                // across the whole slate mutation (and, amortized, across
                // the run): a membership change (write lock) can only land
                // between runs, never mid-update — so the prepare-phase
                // flush sees every completed write, and no worker mutates
                // a slate its machine has already handed off.
                let membership = guard.get_or_insert_with(|| shared.membership.read());
                let owner = membership.owner(packet.op, route);
                if let Some(owner) = owner.filter(|at| at.machine != machine_id) {
                    // Forwarding re-enters the transport (and, in-process,
                    // the membership lock): close the run first.
                    memo = None;
                    drop(guard.take());
                    for done in finished.drain(..) {
                        finish_packet(shared, done, touched);
                    }
                    machine.in_flight[thread].store(0, Ordering::Release);
                    forward_packet(shared, packet, owner, touched);
                    shared.pending.fetch_sub(1, Ordering::AcqRel);
                    shared.throttle_cv.notify_all();
                    continue;
                }
                // lint: allow(no-unwrap-in-prod) — 2.0 machines build a central cache, 1.0 one per updater thread
                let cache = machine.cache_of(thread).expect("updater thread has a cache");
                cache.offer_hot(packet.op, &packet.event.key);
                if shared.split_enabled()
                    && updater.combines()
                    && crate::dispatch::split_base_of(&packet.event.key).is_none()
                {
                    shared.maybe_split(cache, packet.op, &packet.event.key);
                }
                let service_sampled = shared.stages.enabled && shared.stages.sampler_service.hit();
                let now = shared.now_us();
                let slot = match &memo {
                    Some((m_op, m_key, m_slot))
                        if *m_op == packet.op && *m_key == packet.event.key =>
                    {
                        cache.note_memo_hit(packet.op, m_slot, now);
                        Arc::clone(m_slot)
                    }
                    _ => {
                        let s =
                            cache.get_or_load(packet.op, name, &packet.event.key, *ttl_secs, now);
                        memo = Some((packet.op, packet.event.key.clone(), Arc::clone(&s)));
                        claim_retire(shared, cache, &mut retire_owed); // a miss may have chosen victims
                        s
                    }
                };
                let mut emitter = VecEmitter::new();
                let outcome = {
                    let mut state = slot.state.lock();
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        updater.update(&mut emitter, &packet.event, &mut state.slate)
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
                    cache.discard(packet.op, &packet.event.key);
                    machine.in_flight[thread].store(0, Ordering::Release);
                    dead_letter(shared, packet, payload);
                    continue;
                }
                if service_sampled {
                    // Service span: slate fetch (cache or store) + the
                    // update under the slot lock.
                    shared.stages.service[packet.op].record(shared.now_us().saturating_sub(now));
                }
                shared.latency.record(shared.now_us().saturating_sub(packet.injected_us));
                shared.counters.processed.inc();
                machine.in_flight[thread].store(0, Ordering::Release);
                finished.push(Finished {
                    op: packet.op,
                    ts: packet.event.ts,
                    injected_us: packet.injected_us,
                    redirected: packet.redirected,
                    records: emitter.take(),
                });
            }
        }
    }
    drop(guard.take());
    for done in finished.drain(..) {
        finish_packet(shared, done, touched);
    }
    retire_owed
}

/// Load the slates a drained batch is about to miss on in ONE store round
/// trip: its locally-owned updater keys go to [`SlateCache::prefetch`],
/// under the membership read guard like any other load (a slate fetched
/// for a key that moved away meanwhile would sit in the cache stale).
fn prefetch_batch(shared: &Shared, cache: &SlateCache, machine_id: usize, batch: &[Packet]) {
    let membership = shared.membership.read();
    let wanted: Vec<_> = batch
        .iter()
        .filter_map(|packet| {
            let OpInstance::Update { name, ttl_secs, .. } = &shared.ops[packet.op] else {
                return None;
            };
            let route = packet.event.key.route_hash(&shared.wf.op(packet.op).name);
            let owner = membership.owner(packet.op, route).map(|at| at.machine);
            (owner == Some(machine_id)).then_some((packet.op, name, &packet.event.key, *ttl_secs))
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
/// packet settles its pending-count immediately; the carrier keeps
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
    batch: &mut Vec<Packet>,
) {
    let mut runs: HashMap<(OpId, StreamId, Key, bool), usize> = HashMap::new();
    let mut absorbed: HashMap<(OpId, Key), u64> = HashMap::new();
    let mut out: Vec<Packet> = Vec::with_capacity(batch.len());
    for packet in batch.drain(..) {
        let updater = match &shared.ops[packet.op] {
            OpInstance::Update { updater, .. } if updater.combines() => Arc::clone(updater),
            _ => {
                out.push(packet);
                continue;
            }
        };
        let rk =
            (packet.op, packet.event.stream.clone(), packet.event.key.clone(), packet.redirected);
        let open = runs.get(&rk).copied();
        let folded = open.and_then(|i| {
            updater.combine(out[i].event.value.as_ref(), packet.event.value.as_ref())
        });
        match (open, folded) {
            (Some(i), Some(value)) => {
                let carrier = &mut out[i];
                carrier.event.value = Bytes::from(value);
                carrier.event.ts = carrier.event.ts.max(packet.event.ts);
                carrier.event.seq = carrier.event.seq.max(packet.event.seq);
                carrier.injected_us = carrier.injected_us.min(packet.injected_us);
                carrier.forwards = carrier.forwards.max(packet.forwards);
                *absorbed.entry((packet.op, packet.event.key.clone())).or_insert(0) += 1;
                shared.counters.combined_events.inc();
                shared.pending.fetch_sub(1, Ordering::AcqRel);
                shared.throttle_cv.notify_all();
            }
            _ => {
                // No open run, or the combiner vetoed: this packet opens
                // (or re-points) the run, preserving per-key order.
                runs.insert(rk, out.len());
                out.push(packet);
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
fn dead_letter(shared: &Arc<Shared>, packet: Packet, payload: Box<dyn std::any::Any + Send>) {
    let reason = panic_message(payload);
    shared.counters.dead_lettered.inc();
    shared.drop_log.log(format!(
        "poison event dead-lettered at {}: key={:?} ({reason})",
        shared.wf.op(packet.op).name,
        packet.event.key
    ));
    if shared.logger.enabled(Level::Warn) {
        shared.logger.warn(
            "operator panic contained; event dead-lettered",
            &[("op", (packet.op as u64).into()), ("dlq_depth", (shared.dlq.depth() as u64).into())],
        );
    }
    shared.dlq.push(DeadLetter {
        op: packet.op,
        event: packet.event,
        reason,
        at_us: shared.now_us(),
    });
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

/// Re-send a packet whose key this machine no longer owns to its current
/// owner (elastic handoff; also heals laggard-ring deliveries). Bounded
/// by [`MAX_FORWARDS`] so disagreeing rings can never ping-pong an event
/// forever — past the cap the event is dropped-and-logged like any other
/// undeliverable (§4.3 posture).
fn forward_packet(
    shared: &Arc<Shared>,
    mut packet: Packet,
    owner: Placement,
    touched: &mut Vec<MachineId>,
) {
    if packet.forwards >= MAX_FORWARDS {
        shared.counters.lost_machine_failure.inc();
        shared.drop_log.log(format!(
            "forward cap hit for key={:?} (rings disagree about machine {}?)",
            packet.event.key, owner.machine
        ));
        return;
    }
    shared.counters.forwarded.inc();
    packet.forwards += 1;
    // Forwarded events count as internal: the receiver's overflow policy
    // must never block the forwarding worker.
    send_to(shared, packet, owner, false, touched);
}

/// Send `event` to every subscriber of `stream`; `touched` collects the
/// remote peers it was queued for (see [`note_remote`]).
fn fan_out(
    shared: &Arc<Shared>,
    stream: &StreamId,
    event: Event,
    injected_us: u64,
    redirected: bool,
    external: bool,
    touched: &mut Vec<MachineId>,
) {
    // No per-event Vec, no clone for the final (usually only) subscriber.
    let subscribers = shared.wf.subscribers_of(stream.as_str());
    if let Some((&last, rest)) = subscribers.split_last() {
        for &op in rest {
            let packet = Packet {
                op,
                event: event.clone(),
                injected_us,
                redirected,
                forwards: 0,
                enqueued_us: 0,
            };
            try_send(shared, packet, external, touched);
        }
        let packet =
            Packet { op: last, event, injected_us, redirected, forwards: 0, enqueued_us: 0 };
        try_send(shared, packet, external, touched);
    }
}

/// Record that a burst queued an event for `dest`, if that is another
/// process: the set a producer hands to [`Transport::flush_events`] once
/// it has nothing more to add. O(peers) and allocation-free once warm.
fn note_remote(shared: &Arc<Shared>, dest: MachineId, touched: &mut Vec<MachineId>) {
    if !shared.transport.is_local(dest) && !touched.contains(&dest) {
        touched.push(dest);
    }
}

/// The send path: resolve the destination by the committed rings
/// ([`Membership::route`]), then put the event on the wire.
fn try_send(
    shared: &Arc<Shared>,
    mut packet: Packet,
    external: bool,
    touched: &mut Vec<MachineId>,
) {
    // Sender-side split rewrite: route a split hot key's update to one of
    // its subkeys before the ring lookup, so fan-out happens at the
    // source and the subslates land on distinct machines/queues.
    if shared.split_enabled()
        && matches!(&shared.ops[packet.op],
            OpInstance::Update { updater, .. } if updater.combines())
    {
        if let Some(sub) = shared.split_route(packet.op, &packet.event.key) {
            packet.event.key = sub;
        }
    }
    let route: RouteHash = packet.event.key.route_hash(&shared.wf.op(packet.op).name);
    let Some(dest) = shared.membership.read().route(packet.op, route) else {
        shared.counters.lost_machine_failure.inc();
        return;
    };
    send_to(shared, packet, dest, external, touched);
}

/// Put `packet` on the wire to `dest`. A transport failure — dead simulated
/// machine in-process, connection error over TCP — triggers the §4.3
/// protocol: report to the master, which broadcasts, and every ring drops
/// the machine; the event is lost and logged, never retried.
fn send_to(
    shared: &Arc<Shared>,
    packet: Packet,
    dest: Placement,
    external: bool,
    touched: &mut Vec<MachineId>,
) {
    let machine = dest.machine;
    let key = packet.event.key.clone();
    let ev = WireEvent {
        op: packet.op,
        event: packet.event,
        injected_us: packet.injected_us,
        redirected: packet.redirected,
        external,
        thread_hint: dest.thread,
        forwards: packet.forwards,
    };
    match shared.transport.send_event(machine, ev) {
        Ok(()) => note_remote(shared, machine, touched),
        Err(NetError::Unreachable(_)) => {
            shared.transport.report_failure(machine, shared.epoch());
            log_peer_death(shared, machine, 1);
            shared.counters.lost_machine_failure.inc();
            shared.drop_log.log(format!("lost to failed machine {machine}: key={key:?}"));
        }
        Err(e) => {
            // A local protocol/config error (oversized frame, no handler)
            // is not a dead peer — the event is lost and logged, but the
            // machine must not be declared failed.
            shared.counters.lost_machine_failure.inc();
            shared.drop_log.log(format!("undeliverable to machine {machine} ({e}): key={key:?}"));
        }
    }
}

/// Local delivery: the receiving half of the wire. Chooses the worker
/// queue (two-choice for 2.0, the sender's slot hint for 1.0) and applies
/// the §4.3 overflow mechanism. Runs on the sender's thread in-process and
/// on the listener's connection thread over TCP.
fn deliver_local(
    shared: &Arc<Shared>,
    machine_id: usize,
    ev: WireEvent,
    mut absorbed: u64,
) -> std::result::Result<(), NetError> {
    loop {
        let Some(machine) = shared.machine(machine_id) else {
            return Err(NetError::NoRoute(machine_id));
        };
        if !machine.local {
            return Err(NetError::NoRoute(machine_id));
        }
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
        let into_packet = |ev: WireEvent| {
            // Stamp the queue-wait span here, on the receiving side —
            // the mark never crosses the wire (`max(1)`: 0 means
            // unsampled, and `now_us` can legitimately be 0 early on).
            let enqueued_us = if shared.stages.enabled && shared.stages.sampler_queue.hit() {
                shared.now_us().max(1)
            } else {
                0
            };
            Packet {
                op: ev.op,
                event: ev.event,
                injected_us: ev.injected_us,
                redirected: ev.redirected,
                forwards: ev.forwards,
                enqueued_us,
            }
        };
        if queue.len_hint() < queue.capacity() {
            // Likely-room fast path; capacity may still be exceeded by a
            // racing sender, in which case force_push slightly overshoots
            // (bounded by sender count) — acceptable for a size *limit*.
            queue.force_push(into_packet(ev));
            shared.pending.fetch_add(1, Ordering::AcqRel);
            return Ok(());
        }
        // Queue full: invoke the overflow mechanism (§4.3).
        match shared.cfg.overflow.decide(ev.external, ev.redirected) {
            OverflowAction::Drop => {
                shared.counters.dropped_overflow.inc();
                shared.drop_log.log(format!(
                    "overflow drop at m{machine_id}w{thread}: key={:?} op={}",
                    ev.event.key, updater_name
                ));
                return Ok(());
            }
            OverflowAction::Redirect(overflow_stream) => {
                shared.counters.redirected_overflow.inc();
                if !shared.wf.has_stream(&overflow_stream)
                    || shared.wf.is_external(&overflow_stream)
                {
                    shared.counters.publish_errors.inc();
                    return Ok(());
                }
                let external = ev.external;
                let mut event = ev.event;
                event.stream = StreamId::from(overflow_stream.as_str());
                // Fan out to the overflow stream's subscribers, marked so a
                // second overflow drops instead of looping.
                let subscribers = shared.wf.subscribers_of(&overflow_stream).to_vec();
                for op in subscribers {
                    let p = Packet {
                        op,
                        event: event.clone(),
                        injected_us: ev.injected_us,
                        redirected: true,
                        forwards: ev.forwards,
                        enqueued_us: 0,
                    };
                    try_send(shared, p, external, &mut Vec::new());
                }
                return Ok(());
            }
            OverflowAction::ForceThrough => {
                queue.force_push(into_packet(ev));
                shared.pending.fetch_add(1, Ordering::AcqRel);
                return Ok(());
            }
            OverflowAction::BlockProducer => {
                shared.counters.throttle_waits.inc();
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
            if let Some(tcp) = &shared.tcp {
                if let Err(e) = tcp.add_peer(spec) {
                    shared.drop_log.log(format!("membership add_peer failed: {e}"));
                    return false;
                }
            }
            machines.push(Arc::new(Machine::remote_stub()));
            cluster_nodes.push(spec.clone());
        }
        machines.len()
    };
    let machines = shared.machines_snapshot();
    for id in membership.stage(update, known_machines, &|id| shared.master.is_failed(id)) {
        // This epoch's joiners are reachable again: re-arm the wire and
        // the liveness flag so forwarded events flow as soon as the
        // staged rings apply.
        shared.transport.revive_peer(id);
        if let Some(machine) = machines.get(id) {
            machine.alive.store(true, Ordering::Release);
        }
    }
    // The handoff: move every slate whose arc leaves a local machine.
    let now = shared.now_us();
    for (m, machine) in machines.iter().enumerate() {
        if !machine.local || !machine.alive.load(Ordering::Acquire) {
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
                    let target = moved_to(&key).and_then(|to| {
                        machines.get(to.machine).filter(|t| t.local)?.cache_at(op, to)
                    });
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
        shared.transport.revive_peer(id);
        if let Some(machine) = shared.machine(id) {
            machine.alive.store(true, Ordering::Release);
        }
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

/// Deliver one membership phase to every participant in `order` (the
/// local node exactly once). `want_ack` only for prepare. Returns the
/// first wire failure, if any.
fn fan_out_membership(
    shared: &Arc<Shared>,
    order: &[MachineId],
    update: &MembershipUpdate,
    want_ack: bool,
) -> std::result::Result<(), (MachineId, NetError)> {
    let mut local_done = false;
    let mut first_err = None;
    for &dest in order {
        if shared.transport.is_local(dest) {
            if !local_done {
                local_done = true;
                let handler = EngineHandler(Arc::clone(shared));
                if !handler.handle_membership(update) && want_ack && first_err.is_none() {
                    first_err = Some((dest, NetError::Protocol("local phase refused".to_string())));
                }
            }
        } else if let Err(e) = shared.transport.send_membership(dest, update, want_ack) {
            if want_ack {
                return Err((dest, e));
            }
            if first_err.is_none() {
                first_err = Some((dest, e));
            }
        }
    }
    match first_err {
        Some(err) if want_ack => Err(err),
        _ => Ok(()),
    }
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

/// The engine side of the wire: what the transport calls to finish
/// delivery and apply the failure protocol locally.
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
                    shared.counters.combined_events.inc();
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
        shared.counters.lost_machine_failure.add(lost.len() as u64);
        for ev in &lost {
            shared.drop_log.log(format!("lost to failed machine {dest}: key={:?}", ev.event.key));
        }
        shared.transport.report_failure(dest, shared.epoch());
    }

    fn handle_failure_report(&self, failed: MachineId, epoch: u64) {
        // First live report wins; the master broadcast fans the drop out
        // to every machine (including this one). Duplicates and reports
        // staler than the machine's latest join are absorbed.
        if self.0.master.report_failure(failed, epoch) {
            self.0.transport.broadcast_failure(failed, epoch);
        }
    }

    fn handle_failure_broadcast(&self, failed: MachineId, epoch: u64) {
        apply_ring_drop(&self.0, failed, epoch);
    }

    fn handle_join(&self, machine: MachineId) {
        run_join_protocol(&self.0, machine);
    }

    fn handle_reintroduce(&self, machine: MachineId) -> u64 {
        // Restart re-identification (master side): a node that crashed
        // and came back announces under its old id. Re-arm the wire to
        // it, wipe the previous incarnation's §4.3 death ledger entry so
        // a NEW death is detected and logged afresh, and — if the old
        // incarnation was dropped from the rings — run the join protocol
        // to restore its old ring position.
        let shared = &self.0;
        shared.transport.revive_peer(machine);
        shared.logged_peer_deaths.lock().remove(&machine);
        if let Some(m) = shared.machine(machine) {
            m.alive.store(true, Ordering::Release);
        }
        let needs_join = shared.master.is_failed(machine)
            || !shared.membership.read().committed().contains(machine);
        if needs_join {
            run_join_protocol(shared, machine);
        }
        shared.epoch()
    }

    fn handle_membership(&self, update: &MembershipUpdate) -> bool {
        match update.phase {
            MembershipPhase::Prepare => membership_prepare(&self.0, update),
            MembershipPhase::Commit => membership_commit(&self.0, update.epoch),
            MembershipPhase::Abort => membership_abort(&self.0, update.epoch),
        }
    }

    fn read_local_slate(&self, dest: MachineId, updater: &str, key: &[u8]) -> Option<Vec<u8>> {
        let shared = &self.0;
        let op = shared.wf.op_id(updater)?;
        if shared.wf.op(op).kind != OpKind::Update {
            return None;
        }
        let machine = shared.machine(dest)?;
        if !machine.local || !machine.alive.load(Ordering::Acquire) {
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

/// Register the registry's pull-side collectors: cache, net, store, and
/// slate-representation state that lives in its own structs (pre-dating
/// the registry) and is snapshotted at scrape time instead of being
/// migrated onto push handles. Holds only a `Weak` back-reference —
/// `Shared` owns the registry, so a strong ref would leak both.
fn register_collectors(shared: &Arc<Shared>) {
    let weak = Arc::downgrade(shared);
    shared.registry.collector(move |out| {
        let Some(sh) = weak.upgrade() else { return };
        collect_engine_samples(&sh, out);
    });
}

fn collect_engine_samples(sh: &Arc<Shared>, out: &mut Vec<Sample>) {
    out.push(Sample::gauge("muppet_epoch", &[], sh.epoch() as i64));
    out.push(Sample::gauge("muppet_uptime_seconds", &[], sh.start.elapsed().as_secs() as i64));
    out.push(Sample::gauge("muppet_pending_events", &[], sh.pending.load(Ordering::Acquire)));
    out.push(Sample::gauge(
        "muppet_split_keys_active",
        &[],
        sh.splits.active.load(Ordering::Acquire) as i64,
    ));
    out.push(Sample::gauge(
        "muppet_protocol_version",
        &[],
        muppet_net::frame::PROTOCOL_VERSION as i64,
    ));
    if let Some(local) = sh.transport.local_machine() {
        out.push(Sample::gauge("muppet_machine_id", &[], local as i64));
    }

    // Slate caches: aggregate counters, per-shard hit/miss series, the
    // flush-batch size distribution, and the hottest ⟨op, key⟩ pairs.
    let mut cache = crate::cache::CacheStats::default();
    let mut shard_hits: Vec<(u64, u64)> = Vec::new();
    let mut batches = muppet_obs::HistogramSnapshot::default();
    let mut hot: Vec<muppet_obs::HeavyHitter<(OpId, Key)>> = Vec::new();
    let mut merge = |c: &SlateCache| {
        cache.absorb(&c.stats());
        for (i, ss) in c.shard_stats().into_iter().enumerate() {
            if shard_hits.len() <= i {
                shard_hits.resize(i + 1, (0, 0));
            }
            shard_hits[i].0 += ss.hits;
            shard_hits[i].1 += ss.misses;
        }
        let b = c.flush_batch_snapshot();
        if batches.bucket_counts.len() < b.bucket_counts.len() {
            batches.bucket_counts.resize(b.bucket_counts.len(), 0);
        }
        for (acc, n) in batches.bucket_counts.iter_mut().zip(&b.bucket_counts) {
            *acc += n;
        }
        batches.sum += b.sum;
        batches.count += b.count;
        hot.extend(c.hot_keys(10));
    };
    for m in &sh.machines_snapshot() {
        m.caches().for_each(|c| merge(c));
    }
    let cc = |name: &str, v: u64| Sample::counter(name, &[], v);
    out.push(cc("muppet_cache_hits_total", cache.hits));
    out.push(cc("muppet_cache_misses_total", cache.misses));
    out.push(cc("muppet_cache_store_loads_total", cache.store_loads));
    out.push(cc("muppet_cache_evictions_total", cache.evictions));
    out.push(cc("muppet_cache_flush_writes_total", cache.flush_writes));
    out.push(cc("muppet_cache_flush_failures_total", cache.flush_failures));
    out.push(cc("muppet_cache_ttl_resets_total", cache.ttl_resets));
    out.push(cc("muppet_cache_flush_batches_total", cache.flush_batches));
    out.push(cc("muppet_cache_store_round_trips_total", cache.store_round_trips));
    out.push(cc("muppet_cache_miss_coalesced_total", cache.miss_coalesced));
    out.push(Sample::gauge("muppet_cache_entries", &[], cache.entries as i64));
    out.push(Sample::gauge("muppet_cache_dirty_slates", &[], cache.dirty as i64));
    // Victims chosen for eviction, not yet written back. Non-zero with an
    // idle queue: the retire rule is broken; pinned at its bound: the
    // store is the bottleneck.
    out.push(Sample::gauge("muppet_cache_evict_backlog", &[], cache.evict_backlog as i64));
    for (i, (hits, misses)) in shard_hits.iter().enumerate() {
        let shard = i.to_string();
        out.push(Sample::counter("muppet_cache_shard_hits_total", &[("shard", &shard)], *hits));
        out.push(Sample::counter("muppet_cache_shard_misses_total", &[("shard", &shard)], *misses));
    }
    if batches.count > 0 {
        out.push(Sample {
            name: "muppet_flush_batch_slates".into(),
            labels: Vec::new(),
            value: muppet_obs::Value::Histogram(batches),
        });
    }
    hot.sort_by(|a, b| b.count.cmp(&a.count).then(a.err.cmp(&b.err)));
    hot.truncate(10);
    for hh in hot {
        let (op, key) = hh.key;
        let op_name = sh.wf.op(op).name.as_str();
        let key_text = String::from_utf8_lossy(key.as_bytes()).into_owned();
        out.push(Sample::counter(
            "muppet_hot_key_events_est",
            &[("op", op_name), ("key", &key_text)],
            hh.count,
        ));
    }

    // The wire (TCP mode only; all zero in-process).
    if let Some(tcp) = &sh.tcp {
        let t = tcp.stats();
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        out.push(cc("muppet_net_frames_sent_total", load(&t.frames_sent)));
        out.push(cc("muppet_net_frames_received_total", load(&t.frames_received)));
        out.push(cc("muppet_net_batches_sent_total", load(&t.batches_sent)));
        out.push(cc("muppet_net_batched_events_sent_total", load(&t.batched_events_sent)));
        out.push(cc("muppet_net_send_failures_total", load(&t.send_failures)));
        out.push(cc("muppet_net_connects_total", load(&t.connects)));
        out.push(cc("muppet_net_hello_rejected_total", load(&t.hello_rejected)));
        out.push(cc("muppet_net_frames_rejected_total", load(&t.frames_rejected)));
        out.push(cc("muppet_net_queue_full_waits_total", load(&t.queue_full_waits)));
        for reason in FlushReason::ALL {
            out.push(Sample::counter(
                "muppet_net_flushes_total",
                &[("reason", reason.as_str())],
                t.flushes(reason),
            ));
        }
        out.push(Sample::gauge(
            "muppet_net_outbound_backlog",
            &[],
            load(&t.outbound_backlog) as i64,
        ));
    }

    // The durable store (when hosted by this node).
    if let Some(store) = &sh.host_store {
        out.push(cc("muppet_wal_syncs_total", store.wal_sync_count()));
    }

    // Crash recovery: the ingest WAL and the dead-letter queue.
    if let Some(log) = &sh.ingest_log {
        out.push(cc("muppet_wal_ingest_syncs_total", log.sync_count()));
        // Segment totals (recovered prefix included, like the watermarks
        // below): bytes ÷ written is the log's cost per event, written ÷
        // frames near 1 a source that pays a header and an fsync per event.
        out.push(cc("muppet_wal_ingest_bytes_total", log.byte_count()));
        out.push(cc("muppet_wal_ingest_frames_total", log.frame_count()));
        out.push(cc("muppet_wal_ingest_replayed_total", sh.recovered.load(Ordering::Relaxed)));
        // written − durable = the records inside their fsync window: logged
        // and dispatched, not yet acked.
        out.push(Sample::gauge("muppet_ingest_wal_written", &[], log.record_count() as i64));
        out.push(Sample::gauge("muppet_ingest_wal_durable", &[], log.durable_count() as i64));
        out.push(Sample::gauge("muppet_ingest_wal_failed", &[], i64::from(log.failed())));
    }
    out.push(Sample::gauge("muppet_dlq_depth", &[], sh.dlq.depth() as i64));
    out.push(cc("muppet_dlq_evicted_total", sh.dlq.dropped()));
    out.push(cc("muppet_dlq_retried_total", sh.dlq.retried()));

    // Slate codec work (process-wide statics — shared across engines in
    // one process, which only bench harnesses do).
    let (parses, serializations) = muppet_core::slate::repr_counters();
    out.push(cc("muppet_slate_parses_total", parses));
    out.push(cc("muppet_slate_serializations_total", serializations));
}

fn flusher_loop(shared: Arc<Shared>, machine_id: usize, interval: Duration) {
    // lint: allow(no-unwrap-in-prod) — flushers are spawned per existing machine index
    let machine = shared.machine(machine_id).expect("flusher spawned for an existing machine");
    while !shared.stopping.load(Ordering::Acquire) {
        // Sleep in short slices so shutdown does not block for a full
        // (possibly multi-minute) flush interval.
        let deadline = Instant::now() + interval;
        while Instant::now() < deadline {
            if shared.stopping.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5).min(interval));
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

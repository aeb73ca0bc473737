//! The Muppet engines (§4.1, §4.3, §4.5): configuration, the per-machine
//! state and the `Engine` API over the parts that run it — the worker
//! (`worker.rs`), the send path (`send.rs`), membership (`membership.rs`),
//! ingest and its recovery line (`ingest.rs`), hot-key splitting
//! (`split.rs`) and the in-flight ledger (`ledger.rs`). Where ⟨function,
//! key⟩ lives is `placement.rs`'s. DESIGN.md §3 maps the modules, §5 the
//! wire to other processes and where locality is decided, §7 elastic
//! membership; the engine's numbers are `stats.rs`'s (§10).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use muppet_core::error::{Error, Result};
use muppet_core::event::{Event, Key};
use muppet_core::operator::{Mapper, Updater};
use muppet_core::sync::{Mutex, RwLock};
use muppet_core::workflow::{OpId, OpKind, Workflow};
use muppet_core::CodecChoice;
use muppet_net::frame::{MembershipUpdate, WireEvent};
use muppet_net::tcp::{BatchConfig, TcpListenerHandle, TcpTransport};
use muppet_net::topology::{ClusterView, NodeSpec, Topology};
use muppet_net::transport::{ClusterHandler, MachineId, NetError, Transport};
use muppet_obs::{Level, Logger};
use muppet_slatestore::cluster::StoreCluster;

use crate::cache::{FlushItem, FlushPolicy, NullBackend, SlateBackend, SlateCache};
use crate::dispatch::RouteHash;
use crate::dlq::DeadLetterQueue;
use crate::ingestlog::{IngestLog, SyncFn};
use crate::ledger::Ledger;
use crate::master::Master;
use crate::netstore::RemoteBackend;
use crate::overflow::{DropLog, OverflowPolicy};
use crate::placement::{Membership, Placement, Rings};
use crate::queue::EventQueue;
use crate::send::fresh;
use crate::split::SplitTracker;
use crate::stats::{self, CacheMetrics, Stats};
pub use crate::stats::{DrainSummary, EngineStats, NetSummary};

/// Default lock-shard count for the Muppet 2.0 central slate cache.
pub const DEFAULT_CACHE_SHARDS: usize = 8;
/// Events a worker drains from its queue per lock acquisition. A drain
/// never *waits* for a full batch — it returns whatever is queued — so the
/// batch adds no latency, only removes mutex + condvar round-trips.
pub const DRAIN_BATCH: usize = 64;
/// Dead letters a machine parks before the oldest are evicted.
const DLQ_CAPACITY: usize = 1024;
/// How long a throttled producer waits for a settle before it re-checks.
const THROTTLE_TICK: Duration = Duration::from_millis(1);

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
    /// Queue-overflow policy.
    pub overflow: OverflowPolicy,
    /// This node was reserved via the master's `/join` admin call and has
    /// not entered the rings yet: the join grant. The engine starts with
    /// the local machine outside every ring; [`Engine::announce_join`] then has the master's epoch-stamped
    /// membership update install it everywhere (including here). `None`
    /// = a founding member: epoch 0, every machine in the rings.
    pub joining: Option<ClusterView>,
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
    /// What this node writes. `Auto` (default) stores MBF at rest; `Json`
    /// stores text (the rollback lever); `Mbf` additionally transcodes
    /// container-shaped external event values to MBF at the ingest edge
    /// (one parse+encode per event buys ~30% fewer bytes WAL-appended and
    /// framed — measured in PR 9). The wire carries bytes with their tags
    /// as written, and every reader sniffs, so nodes of different choices
    /// share a cluster. HTTP endpoints always speak JSON.
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
    /// Dynamic hot-key splitting: when the engine's space-saving sketch
    /// estimates a combining key's event count past this threshold, its
    /// updates transparently fan out across [`SPLIT_WAYS`] ring-
    /// distributed subslates, merged on read through the same combiner;
    /// keys that cool back under half the threshold collapse back to
    /// direct routing. 0 (the default) disables splitting. Requires
    /// `combine`.
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
            overflow: OverflowPolicy::default(),
            joining: None,
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
}

/// Resolved operator instance.
pub(crate) enum OpInstance {
    Map(Arc<dyn Mapper>),
    Update { updater: Arc<dyn Updater>, name: Arc<str>, ttl_secs: Option<u64> },
}

/// A queued event with the engine-relative µs at which the queue-wait span
/// sampled its enqueue (0 = unsampled). The mark is stamped on delivery
/// and never crosses the wire.
pub(crate) type Queued = (WireEvent, u64);

/// Per-machine state. A machine of another process is a stub for
/// ring/liveness state, without queues or caches.
pub(crate) struct Machine {
    pub(crate) alive: AtomicBool,
    pub(crate) queues: Vec<Arc<EventQueue<Queued>>>,
    /// Route each thread is currently processing (two-choice rule 1).
    /// Encoding: 0 = idle, otherwise `route.wrapping_add(1)` — lock-free
    /// because the dispatcher reads these on every send.
    pub(crate) in_flight: Vec<AtomicU64>,
    /// 2.0: one central cache. 1.0: per-thread caches (None for mapper
    /// threads).
    central_cache: Option<Arc<SlateCache>>,
    worker_caches: Vec<Option<Arc<SlateCache>>>,
    /// 1.0: the single op each thread runs (None in 2.0).
    pub(crate) thread_ops: Vec<Option<OpId>>,
}

impl Machine {
    /// The slate cache worker `thread` updates through: the machine's
    /// central cache (2.0) or the worker's own (1.0; `None` on a mapper
    /// thread).
    pub(crate) fn cache_of(&self, thread: usize) -> Option<&Arc<SlateCache>> {
        self.central_cache.as_ref().or_else(|| self.worker_caches.get(thread)?.as_ref())
    }

    /// The slate cache that holds `op`'s slates placed at `at` on this
    /// machine (1.0: only if the placement's thread does run `op`).
    pub(crate) fn cache_at(&self, op: OpId, at: Placement) -> Option<&Arc<SlateCache>> {
        match at.thread {
            None => self.central_cache.as_ref(),
            Some(t) if self.thread_ops.get(t) == Some(&Some(op)) => self.worker_caches[t].as_ref(),
            Some(_) => None,
        }
    }

    /// Every slate cache this machine owns.
    pub(crate) fn caches(&self) -> impl Iterator<Item = &Arc<SlateCache>> {
        self.central_cache.iter().chain(self.worker_caches.iter().flatten())
    }

    /// The route worker `thread` is processing, `None` when idle.
    pub(crate) fn working_on(&self, thread: usize) -> Option<RouteHash> {
        let raw = self.in_flight[thread].load(Ordering::Acquire);
        (raw != 0).then(|| raw.wrapping_sub(1))
    }

    /// A stub for a machine that lives in another process.
    pub(crate) fn remote_stub() -> Machine {
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
        let cache = |capacity: usize, shards: usize| {
            let backend = Arc::clone(backend);
            Arc::new(
                SlateCache::with_metrics(capacity, cfg.flush, backend, shards, metrics.clone())
                    .with_store_codec(cfg.wire_codec.store_codec())
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

/// The engine's shared state, which its parts (DESIGN.md §3's module map)
/// work on. The in-flight count and the split state are types of their
/// own (`ledger`, `splits`), so no other code touches them.
pub(crate) struct Shared {
    pub(crate) wf: Workflow,
    pub(crate) ops: Vec<OpInstance>,
    pub(crate) cfg: EngineConfig,
    /// Per-machine state; grows when machines join (ids are append-only).
    pub(crate) machines: RwLock<Vec<Arc<Machine>>>,
    /// The routing state: the committed epoch's rings and, mid-join, the
    /// staged epoch's. ONE lock over all of it — updaters hold the read
    /// lock across a slate mutation, so a transition (write lock) is
    /// atomic with respect to every in-flight update: once it returns, no
    /// worker can still be mutating a slate the node just handed off.
    pub(crate) membership: RwLock<Membership>,
    /// Serializes join reservations + protocol runs on the master.
    pub(crate) join_lock: Mutex<()>,
    /// Highest epoch this master has ever handed out (monotone even
    /// across aborted joins — a staged-but-never-committed epoch must
    /// never be reused with different content).
    pub(crate) epoch_mint: AtomicU64,
    /// The wire to the other processes of a TCP cluster; `None`
    /// in-process, where every machine is local.
    pub(crate) wire: Option<Arc<TcpTransport>>,
    /// TCP mode: the locally hosted store service, served to peers via
    /// the transport's store frames.
    pub(crate) host_store: Option<Arc<StoreCluster>>,
    /// The slate backend every cache flushes to / loads from (also the
    /// read fallback when a slate's owner is unreachable, §4.4).
    pub(crate) backend: Arc<dyn SlateBackend>,
    /// Whether `backend` actually persists (false for [`NullBackend`]):
    /// decides whether elastic handoff goes through the store or moves
    /// slots directly between in-process caches.
    pub(crate) has_backend: bool,
    pub(crate) master: Master,
    /// The in-flight count `drain` and throttling read.
    pub(crate) ledger: Ledger,
    /// A recovery line is running: two would store their cursors out of
    /// order.
    pub(crate) checkpointing: AtomicBool,
    pub(crate) stopping: AtomicBool,
    /// Every count the engine records (`Engine::stats`, `GET /metrics`).
    pub(crate) stats: Stats,
    /// Leveled incident logger (peer deaths, flush failures). Disabled
    /// (`Level::Off`) unless the config raises it.
    pub(crate) logger: Arc<Logger>,
    /// Peers whose death was already logged through `logger`: §4.3
    /// detection can fire concurrently from the sync-send, forward, and
    /// batch-sender paths for one incident; this set makes the
    /// operator-facing record exactly-once while the [`DropLog`] ring
    /// keeps its per-event entries.
    pub(crate) logged_peer_deaths: Mutex<HashSet<usize>>,
    pub(crate) drop_log: DropLog,
    start: Instant,
    /// The per-machine ingest WAL (`None` = the paper's §4.3 semantics:
    /// in-flight work dies with the machine).
    pub(crate) ingest_log: Option<Arc<IngestLog>>,
    /// Poison events parked instead of killing worker threads.
    pub(crate) dlq: DeadLetterQueue,
    /// Dynamic hot-key splitting state.
    pub(crate) splits: SplitTracker,
}

impl Shared {
    pub(crate) fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    pub(crate) fn machine(&self, id: usize) -> Option<Arc<Machine>> {
        self.machines.read().get(id).cloned()
    }

    pub(crate) fn machines_snapshot(&self) -> Vec<Arc<Machine>> {
        self.machines.read().clone()
    }

    /// Whether machine `m` lives in this process — every machine
    /// in-process, only the wire's own over TCP. The engine's one
    /// locality answer: the wire is called only when it is false.
    pub(crate) fn is_local(&self, m: MachineId) -> bool {
        self.wire.as_ref().is_none_or(|wire| wire.local() == m)
    }

    /// Peak queue occupancy across all workers.
    fn max_queue_high_water(&self) -> usize {
        let machines = self.machines.read();
        machines.iter().flat_map(|m| &m.queues).map(|q| q.high_water()).max().unwrap_or(0)
    }

    /// The machine this process runs (`None` in-process).
    pub(crate) fn local_machine(&self) -> Option<MachineId> {
        self.wire.as_ref().map(|wire| wire.local())
    }

    /// Events the wire accepted for another process and has not sent yet.
    pub(crate) fn outbound_backlog(&self) -> usize {
        self.wire.as_ref().map_or(0, |wire| wire.outbound_backlog())
    }

    /// Ask the wire to send what it holds for `peers` now.
    pub(crate) fn flush_events(&self, peers: &[MachineId]) {
        if let Some(wire) = &self.wire {
            wire.flush_events(peers);
        }
    }

    /// Make machine `id` reachable again: its wire outbox, if another
    /// process runs it, and its liveness flag.
    pub(crate) fn revive(&self, id: MachineId) {
        if let Some(wire) = &self.wire {
            wire.revive_peer(id);
        }
        if let Some(machine) = self.machine(id) {
            machine.alive.store(true, Ordering::Release);
        }
    }

    /// Every slate cache of every machine this process holds — of the
    /// live ones only when `live` (a dead machine lost its slates, §4.3).
    fn caches(&self, live: bool) -> Vec<Arc<SlateCache>> {
        let machines = self.machines_snapshot();
        let holding = machines.iter().filter(|m| !live || m.alive.load(Ordering::Acquire));
        holding.flat_map(|m| m.caches().cloned()).collect()
    }

    /// The stats snapshot: the registry's handles, with `caches`' and this
    /// node's gauges.
    fn snapshot(&self, caches: &[Arc<SlateCache>]) -> EngineStats {
        EngineStats {
            epoch: self.epoch(),
            uptime_s: self.start.elapsed().as_secs(),
            machine_id: self.local_machine(),
            pending: self.ledger.pending(),
            split_keys_active: self.splits.active(),
            ingest_wal: self.ingest_log.as_ref().map(|log| log.view()),
            store_wal_syncs: self.host_store.as_ref().map(|store| store.wal_sync_count()),
            dlq_depth: self.dlq.depth() as u64,
            queue_high_water: self.max_queue_high_water() as u64,
            ..self.stats.read(caches, self.wire.as_deref())
        }
    }

    /// Wait until all in-flight events finish (or `timeout` elapses) —
    /// including runs logged but not yet dispatched, and events still
    /// parked in the transport's outbound batching queues. True on a full
    /// drain.
    pub(crate) fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.ledger.busy() || self.outbound_backlog() > 0 {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }

    /// Flush every dirty slate of every live machine (dead machines lost
    /// theirs, §4.3). Returns how many of the slates its sweep found dirty
    /// it could not write (quorum failure, dead store host); a slate
    /// dirtied after the sweep found it is not counted.
    pub(crate) fn flush_live_caches(&self) -> u64 {
        let now = self.now_us();
        let flush = |cache: Arc<SlateCache>| {
            // Barriers restore capacity too: victims still waiting for
            // eviction are written by the sweep and retired after it.
            let refused = cache.flush_barrier(now);
            cache.retire_evicted(now);
            refused
        };
        self.caches(true).into_iter().map(flush).sum()
    }

    /// `op`'s updater, when combining is on and it declares a combiner.
    pub(crate) fn combiner(&self, op: OpId) -> Option<&Arc<dyn Updater>> {
        match self.ops.get(op) {
            Some(OpInstance::Update { updater, .. }) if self.cfg.combine && updater.combines() => {
                Some(updater)
            }
            _ => None,
        }
    }

    /// The cached value of ⟨`op`, `key`⟩ on local machine `id`, if this
    /// node's rings place the key there — by [`Membership::owner`]: once an
    /// epoch is staged, a handed-off slate is read at its new owner (or
    /// from the store). `Err` when the machine is dead.
    fn read_local(
        &self,
        id: usize,
        op: OpId,
        updater: &str,
        key: &Key,
    ) -> std::result::Result<Option<Vec<u8>>, NetError> {
        let Some(machine) = self.machine(id).filter(|_| self.is_local(id)) else { return Ok(None) };
        if !machine.alive.load(Ordering::Acquire) {
            return Err(NetError::Unreachable(id));
        }
        let owner = self.membership.read().owner(op, key.route_hash(updater));
        Ok(owner
            .filter(|at| at.machine == id)
            .and_then(|at| machine.cache_at(op, at)?.read(op, key)))
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.membership.read().epoch()
    }

    /// Total events the cluster's queues are sized to hold; the source-
    /// throttling high-water mark.
    pub(crate) fn total_queue_budget(&self) -> usize {
        self.machines.read().iter().map(|m| m.queues.len() * self.cfg.queue_capacity).sum()
    }
}

/// A running Muppet engine.
pub struct Engine {
    shared: Arc<Shared>,
    /// Keeps the wire's weak handler registration alive (TCP mode).
    _handler: Arc<EngineHandler>,
    /// TCP mode: the node's frame listener (stopped on shutdown/drop).
    listener: Mutex<Option<TcpListenerHandle>>,
    /// Every worker and flusher thread.
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
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
                    // Bound each peer outbox like a worker queue: the
                    // backlog participates in the same throttle budget.
                    queue_capacity: cfg.queue_capacity.max(1),
                    ..BatchConfig::default()
                };
                let wire = TcpTransport::new_with_batching(topology.clone(), *local, batch)
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
        let resolve = |name: &str, kind: OpKind, expected: &str| {
            let id = workflow.op_id(name).ok_or_else(|| Error::UnknownOperator(name.into()))?;
            let mismatch =
                || Error::OperatorMismatch { expected: expected.into(), got: name.into() };
            (workflow.op(id).kind == kind).then_some(id).ok_or_else(mismatch)
        };
        let mut instances: Vec<Option<OpInstance>> =
            (0..workflow.ops().len()).map(|_| None).collect();
        for m in ops.mappers {
            let id = resolve(m.name(), OpKind::Map, "a map function")?;
            instances[id] = Some(OpInstance::Map(m));
        }
        for u in ops.updaters {
            let id = resolve(u.name(), OpKind::Update, "an update function")?;
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
        let combines = ops
            .iter()
            .map(|op| matches!(op, OpInstance::Update { updater, .. } if updater.combines()));
        let split_threshold = if cfg.combine { cfg.hot_split_threshold } else { 0 };
        let shared = Arc::new(Shared {
            membership: RwLock::new(Membership::new(initial_epoch, rings)),
            join_lock: Mutex::new(()),
            epoch_mint: AtomicU64::new(initial_epoch),
            splits: SplitTracker::new(split_threshold, combines.collect(), cfg.latency_sample_n),
            wf: workflow,
            ops,
            machines: RwLock::new(machines),
            wire,
            host_store: store.clone(),
            backend,
            has_backend,
            master: Master::new(),
            ledger: Ledger::new(THROTTLE_TICK),
            checkpointing: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            stats,
            logger,
            logged_peer_deaths: Mutex::new(HashSet::new()),
            drop_log: DropLog::new(1024),
            start: Instant::now(),
            ingest_log,
            dlq: DeadLetterQueue::new(DLQ_CAPACITY),
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
        let machines = shared.machines.read().len();
        let threads =
            (0..machines).flat_map(|m| crate::worker::spawn_machine(&shared, m)).collect();
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
        };
        // Replay the ingest suffix past the checkpointed cursor: the
        // store recovered the slates as of the last checkpoint, so only
        // events logged after it are re-injected. A node that was
        // checkpointed at shutdown (SIGTERM) replays nothing.
        if let Some(Err(e)) = ingest_recovery.map(|rec| engine.shared.replay_recovered(rec)) {
            engine.stop();
            return Err(e);
        }
        Ok(engine)
    }

    /// Inject one external event (the paper's special source mapper M0
    /// reading the input stream, §4.1). Routes to every subscriber of
    /// `event.stream`, which must be a declared external stream.
    ///
    /// Under [`OverflowPolicy::SourceThrottle`], this call *blocks* while
    /// the cluster is backlogged beyond its aggregate queue budget — the
    /// §5 source throttling (see `ingest.rs`).
    ///
    /// With an ingest WAL the event is **logged before dispatch, durable
    /// before `Ok`**: its record is written to the log file, workers start
    /// on it, and the call returns once an fsync covers the record. `Err`
    /// from a failed fsync means the event was dispatched but not
    /// accepted; the log is poisoned and every later submit fails
    /// ([`Error::IngestLog`]).
    pub fn submit(&self, event: Event) -> Result<()> {
        self.shared.submit_run([event])
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
        self.shared.submit_run(events)
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
        self.shared.drain(timeout)
    }

    /// Read a slate's current value from the owning machine's cache —
    /// the §4.4 live read ("from Muppet's slate cache ... rather than from
    /// the durable key-value store to ensure an up-to-date reply"). When
    /// the owning machine lives in another process (TCP mode), the read
    /// crosses the wire as a `SlateGet` frame. A key that is (or ever was)
    /// split merges its subslates on read (`split.rs`).
    ///
    /// A read addressed to a machine that has died (or was dropped from
    /// the ring between resolution and the wire call) does not surface as
    /// a failure: it falls back to the *current* owner and then to the
    /// durable store, so the client sees the last flushed value instead
    /// of an error — the §4.3 survivor-recovery path, applied to reads.
    pub fn read_slate(&self, updater: &str, key: &Key) -> Option<Vec<u8>> {
        let shared = &self.shared;
        let op = shared.wf.op_id(updater)?;
        let OpInstance::Update { updater: up, .. } = &shared.ops[op] else { return None };
        let read = |key: &Key| self.read_slate_unsplit(updater, key);
        let combine = |acc: &[u8], part: &[u8]| up.combine(acc, part);
        shared.splits.read_merged(op, key, read, combine, &shared.stats.split_merge_reads)
    }

    /// [`Engine::read_slate`] without subslate merging: one key, one
    /// value (the pre-splitting read path, still the whole story for
    /// non-combining operators).
    fn read_slate_unsplit(&self, updater: &str, key: &Key) -> Option<Vec<u8>> {
        let op = self.shared.wf.op_id(updater)?;
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
            _ => shared.read_local(owner, op, updater, key),
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
        let caches = self.shared.caches(true);
        let mut keys: Vec<Key> = caches.iter().flat_map(|cache| cache.keys_of(op)).collect();
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
        for cache in self.shared.caches(true) {
            for key in cache.keys_of(op) {
                out.extend(cache.read(op, &key).map(|bytes| (key, bytes)));
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
        self.shared.kill_machine(machine);
    }

    /// Number of machines known (configured + joined).
    pub fn machine_count(&self) -> usize {
        self.shared.machines.read().len()
    }

    /// The membership epoch this node has installed.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch()
    }

    /// This node's view of the cluster: the `GET /membership` document,
    /// and the body of a join grant.
    pub fn cluster_view(&self) -> ClusterView {
        let shared = &self.shared;
        let topology = shared.node_table();
        let failed = shared.master.failed_machines();
        let membership = shared.membership.read();
        ClusterView {
            id: None,
            epoch: membership.epoch(),
            staged_epoch: membership.staged_epoch(),
            members: membership.committed().members(),
            failed,
            topology,
            base: shared.cfg.joining.as_ref().map_or(shared.cfg.machines, |v| v.base),
            store_host: shared.cfg.store_host,
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
            self.threads.lock().extend(crate::worker::spawn_machine(shared, id));
            id
        };
        // Announce readiness: this process's master runs the prepare →
        // handoff → commit protocol synchronously.
        shared.run_join_protocol(id);
        if !self.ring_contains(id) {
            return Err(Error::Config(format!("machine {id} failed to enter the rings")));
        }
        Ok(id)
    }

    /// Master-side admin (the HTTP `POST /join` endpoint): reserve a
    /// cluster id for a joining `muppetd` listening at `listen`
    /// (`host:port[:http_port]`). The node is appended to the peer table —
    /// so the master can talk to it — but enters no ring until its engine
    /// announces readiness ([`Engine::announce_join`]). Returns the join
    /// grant: this node's view with the reserved `id`.
    pub fn admin_reserve_join(&self, listen: &str) -> Result<ClusterView> {
        let shared = &self.shared;
        let Some(wire) = &shared.wire else {
            return Err(Error::Config("join reservations require the TCP transport".into()));
        };
        let master = wire.topology().master;
        if wire.local() != master {
            return Err(Error::Config(format!("joins must be sent to the master (node {master})")));
        }
        let _serialize = shared.join_lock.lock();
        let id = {
            let mut machines = shared.machines.write();
            let spec = NodeSpec::parse(machines.len(), listen).map_err(Error::Config)?;
            wire.add_peer(&spec).map_err(Error::Config)?;
            machines.push(Arc::new(Machine::remote_stub()));
            spec.id
        };
        Ok(ClusterView { id: Some(id), ..self.cluster_view() })
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
            shared.reintroduce(local);
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
        self.shared.max_queue_high_water()
    }

    /// Snapshot engine statistics.
    pub fn stats(&self) -> EngineStats {
        self.shared.snapshot(&self.shared.caches(false))
    }

    /// The engine's metrics registry: every count [`EngineStats`] reads,
    /// plus the gauges collected at scrape time. `registry().render()` is
    /// the Prometheus text exposition served at `GET /metrics`.
    pub fn registry(&self) -> Arc<muppet_obs::Registry> {
        Arc::clone(&self.shared.stats.registry)
    }

    /// The hottest ⟨updater, key⟩ pairs this node has seen, estimated by
    /// the engine's space-saving sketch (count, overshoot bound), best
    /// first.
    pub fn hot_keys(&self, k: usize) -> Vec<(String, Key, u64, u64)> {
        let wf = &self.shared.wf;
        let hot = self.shared.splits.hot_keys(k).into_iter();
        hot.map(|hh| (wf.op(hh.key.0).name.clone(), hh.key.1, hh.count, hh.err)).collect()
    }

    /// Per-shard cache statistics of this engine's slate caches (Muppet
    /// 1.0's per-worker caches have one shard each).
    pub fn cache_shard_stats(&self) -> Vec<crate::cache::ShardStats> {
        self.shared.stats.cache.shard_stats(&self.shared.caches(false))
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
            self.shared.try_send(WireEvent { op: letter.op, ..ev }, &mut Vec::new());
        }
        n
    }

    /// The dead-letter queue contents as JSON (the HTTP `GET /dlq`
    /// endpoint), oldest letter first.
    pub fn dlq_json(&self) -> String {
        use muppet_core::json::Json;
        let letters = self.shared.dlq.snapshot().into_iter();
        Json::Arr(
            letters
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
        self.shared.checkpoint(timeout)
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
            Some(log) => _ = self.shared.recovery_line(log, Duration::ZERO),
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
            t.thread().unpark(); // a flusher is parked until its next tick
            let _ = t.join();
        }
    }
}

/// The engine side of the wire: what the TCP transport calls with
/// another process's traffic.
struct EngineHandler(Arc<Shared>);

impl ClusterHandler for EngineHandler {
    fn deliver_event(&self, dest: MachineId, ev: WireEvent) -> std::result::Result<(), NetError> {
        self.0.deliver_local(dest, ev, 1)
    }

    fn deliver_combined(
        &self,
        dest: MachineId,
        ev: WireEvent,
        absorbed: u64,
    ) -> std::result::Result<(), NetError> {
        self.0.deliver_local(dest, ev, absorbed)
    }

    fn combine_values(&self, op: OpId, acc: &[u8], next: &[u8]) -> Option<Vec<u8>> {
        let folded = self.0.combiner(op)?.combine(acc, next);
        if folded.is_some() {
            self.0.stats.combined_events.inc();
        }
        folded
    }

    fn handle_send_failure(&self, dest: MachineId, lost: Vec<WireEvent>) {
        // The async half of §4.3: a batching sender gave up on `dest`.
        // One detection (the report; the master dedupes), with every
        // undelivered event counted and logged individually — exactly
        // what the synchronous path does per event, amortized over the
        // batch. Never retried.
        let shared = &self.0;
        shared.log_peer_death(dest, lost.len() as u64);
        shared.stats.lost_machine_failure.add(lost.len() as u64);
        for ev in &lost {
            shared.drop_log.log(format!("lost to failed machine {dest}: key={:?}", ev.event.key));
        }
        shared.report_failure(dest);
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
        self.0.apply_ring_drop(failed, epoch);
    }

    fn handle_join(&self, machine: MachineId) {
        self.0.run_join_protocol(machine);
    }

    fn handle_reintroduce(&self, machine: MachineId) -> u64 {
        self.0.reintroduce(machine)
    }

    fn handle_membership(&self, update: &MembershipUpdate) -> bool {
        self.0.apply_membership(update)
    }

    fn read_local_slate(&self, dest: MachineId, updater: &str, key: &[u8]) -> Option<Vec<u8>> {
        let shared = &self.0;
        let op = shared.wf.op_id(updater).filter(|&op| shared.wf.op(op).kind == OpKind::Update)?;
        shared.read_local(dest, op, updater, &Key::from(key)).ok().flatten()
    }

    fn backend_store_many(&self, items: &[FlushItem], now_us: u64) -> Vec<bool> {
        // A peer's `StorePut` lands here: one `store_many` on the hosted
        // cluster — cells grouped per LSM node, each node's run
        // WAL-group-committed — with real per-cell quorum outcomes in the
        // ack.
        match &self.0.host_store {
            Some(store) => SlateBackend::store_many(&**store, items, now_us),
            None => vec![false; items.len()],
        }
    }

    fn backend_load_many(&self, items: &[(Arc<str>, Key)], now_us: u64) -> Vec<Option<Vec<u8>>> {
        match &self.0.host_store {
            Some(store) => SlateBackend::load_many(&**store, items, now_us),
            None => vec![None; items.len()],
        }
    }
}

/// Register the scrape-time collector. It holds only a `Weak`
/// back-reference — `Shared` owns the registry, so a strong ref would leak
/// both.
fn register_collector(shared: &Arc<Shared>) {
    let weak = Arc::downgrade(shared);
    shared.stats.registry.collector(move |out| {
        if let Some(sh) = weak.upgrade() {
            let caches = sh.caches(false);
            let hot = sh.splits.hot_keys(10);
            stats::collect(&sh.wf, &sh.snapshot(&caches), hot, sh.wire.as_deref(), out);
        }
    });
}

#[cfg(test)]
pub(crate) mod testkit {
    //! What the `sweep_*` tests share (DESIGN.md §12): a one-updater
    //! engine whose updater counts the events it applies.

    use std::sync::atomic::AtomicU64;

    use muppet_core::operator::{Emitter, FnUpdater};
    use muppet_core::slate::Slate;
    use muppet_slatestore::cluster::StoreConfig;
    use muppet_slatestore::util::TempDir;

    use super::*;

    /// Seeds per sweep.
    pub(crate) const SEEDS: u64 = 1000;

    /// Start `cfg` over external stream `S` into updater `U` (op 0), which
    /// bumps its counter slate and `applied`; with a one-node store under
    /// `store` if given, and `sync` as its ingest WAL's sync step.
    pub(crate) fn start(
        cfg: EngineConfig,
        store: Option<&TempDir>,
        sync: Option<SyncFn>,
        applied: &Arc<AtomicU64>,
    ) -> Engine {
        let mut wf = Workflow::builder("sweep");
        wf.external_stream("S").updater("U", &["S"]);
        let applied = Arc::clone(applied);
        let update = move |_: &mut dyn Emitter, _: &Event, slate: &mut Slate| {
            slate.incr_counter(1);
            applied.fetch_add(1, Ordering::SeqCst);
        };
        let one_node = StoreConfig { nodes: 1, replication: 1, ..StoreConfig::default() };
        let store = store.map(|dir| Arc::new(StoreCluster::open(dir.path(), one_node).unwrap()));
        let ops = OperatorSet::new().updater(FnUpdater::new("U", update));
        Engine::start_with_ingest_sync(wf.build().unwrap(), ops, cfg, store, sync).unwrap()
    }

    /// `machines` machines of one worker over a one-shard cache of
    /// `capacity` slates, flushed on eviction.
    pub(crate) fn config(machines: usize, capacity: usize) -> EngineConfig {
        let cfg = EngineConfig {
            machines,
            workers_per_machine: 1,
            cache_shards: 1,
            ..Default::default()
        };
        EngineConfig { slate_cache_capacity: capacity, flush: FlushPolicy::OnEvict, ..cfg }
    }

    pub(crate) fn shared(engine: &Engine) -> &Arc<Shared> {
        &engine.shared
    }

    /// Join `engine`'s threads without draining or flushing: a seed that
    /// broke an invariant may have stranded a unit.
    pub(crate) fn halt(engine: Engine) {
        engine.stop();
    }

    /// An external event for key `k<k>`.
    pub(crate) fn event(k: u64) -> Event {
        Event::new("S", k, Key::from(format!("k{k}")), "e")
    }
}

//! The engine's numbers: its registry and every handle the engine records
//! into. A count is a handle recorded once; the scrape-time collector
//! reads only state that is not a count. DESIGN.md §10.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use muppet_core::event::Key;
use muppet_core::workflow::{OpId, Workflow};
use muppet_net::tcp::{FlushReason, TcpTransport};
use muppet_obs::{Counter, HeavyHitter, Histogram, LatencySummary, Registry, Sample, Sampler};

use crate::cache::{CacheStats, ShardStats, SlateCache};
use crate::engine::{EngineConfig, EngineKind};
use crate::ingestlog::IngestWalView;

/// Help string shared by every `muppet_stage_latency_us` series.
const STAGE_HELP: &str = "Sampled per-stage event latency, microseconds";

/// Every handle the engine records into, registered once per engine.
pub(crate) struct Stats {
    pub(crate) registry: Arc<Registry>,
    pub(crate) submitted: Counter,
    pub(crate) processed: Counter,
    pub(crate) emitted: Counter,
    pub(crate) lost_machine_failure: Counter,
    pub(crate) lost_in_queues: Counter,
    pub(crate) dropped_overflow: Counter,
    pub(crate) redirected_overflow: Counter,
    pub(crate) throttle_waits: Counter,
    pub(crate) publish_errors: Counter,
    pub(crate) forwarded: Counter,
    pub(crate) ingest_logged: Counter,
    pub(crate) ingest_replayed: Counter,
    pub(crate) dead_lettered: Counter,
    pub(crate) dlq_evicted: Counter,
    pub(crate) dlq_retried: Counter,
    /// Original events absorbed into a pre-aggregated carrier by a
    /// declared combiner (outbox + local drain folds).
    pub(crate) combined_events: Counter,
    pub(crate) split_merge_reads: Counter,
    /// Injection → updater completion, µs.
    pub(crate) latency: Arc<Histogram>,
    /// Batch sizes of non-empty worker queue drains.
    pub(crate) drain: Arc<Histogram>,
    pub(crate) stages: StageMetrics,
    pub(crate) cache: CacheMetrics,
}

/// Sampled per-stage latency spans: ingest (submit → accepted by a
/// queue), queue-wait (enqueue → drained), service (slate fetch +
/// operator execution, labeled per op), and fan-out (emitted records →
/// re-routed); flush and wal_sync are timed where they happen. Each span
/// is timed on 1 in `latency_sample_n` events; an unsampled event pays
/// one relaxed fetch_add and a branch.
pub(crate) struct StageMetrics {
    pub(crate) sampler_ingest: Sampler,
    pub(crate) sampler_queue: Sampler,
    pub(crate) sampler_service: Sampler,
    pub(crate) sampler_fanout: Sampler,
    pub(crate) ingest: Arc<Histogram>,
    pub(crate) queue_wait: Arc<Histogram>,
    /// Indexed by `OpId`.
    pub(crate) service: Vec<Arc<Histogram>>,
    pub(crate) fanout: Arc<Histogram>,
    /// Every ingest-WAL fsync (unsampled; only with a WAL).
    pub(crate) wal_sync: Option<Arc<Histogram>>,
}

/// The slate caches' handles, registered once per engine and cloned into
/// every cache the node builds, so a node's caches need no summing.
#[derive(Clone)]
pub(crate) struct CacheMetrics {
    /// Lookups served from memory, per lock shard: shard `i` of every
    /// cache records into cell `i`.
    pub(crate) shard_hits: Vec<Counter>,
    /// Lookups that missed, per lock shard.
    pub(crate) shard_misses: Vec<Counter>,
    pub(crate) store_loads: Counter,
    pub(crate) evictions: Counter,
    pub(crate) flush_writes: Counter,
    pub(crate) flush_failures: Counter,
    pub(crate) ttl_resets: Counter,
    pub(crate) store_round_trips: Counter,
    pub(crate) miss_coalesced: Counter,
    /// Slates per batched `store_many`.
    pub(crate) flush_batch: Arc<Histogram>,
    /// µs per backend store call on the flush path (`stage="flush"`).
    pub(crate) flush_latency: Arc<Histogram>,
}

/// Public snapshot of engine statistics: the registry's handles plus the
/// gauges read with them.
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
    /// Whole seconds since the engine started.
    pub uptime_s: u64,
    /// The machine this engine runs (`None` in-process).
    pub machine_id: Option<usize>,
    /// Events queued or running, not yet finished.
    pub pending: i64,
    /// End-to-end latency (injection → updater completion).
    pub latency: LatencySummary,
    /// This node's slate caches, as one.
    pub cache: CacheStats,
    /// Dirty slates that never reached the store (loss bound, §4.3).
    pub dirty_slates: u64,
    /// Wire-level counters (all zero for the in-process transport).
    pub net: NetSummary,
    /// Queue drain-batch sizes (how many events workers pop per lock
    /// acquisition).
    pub drain: DrainSummary,
    /// Original events absorbed into combiner-folded carriers (map-side
    /// pre-aggregation in the outbox and the local dispatch drain).
    pub combined_events: u64,
    /// Hot keys currently split across subslates on this node.
    pub split_keys_active: u64,
    /// Slate reads that merged split subslates through the combiner.
    pub split_merge_reads: u64,
    /// The ingest WAL, when this engine logs ingest.
    pub ingest_wal: Option<IngestWalView>,
    /// WAL syncs of the slate store, when this node hosts it.
    pub store_wal_syncs: Option<u64>,
    /// Events replayed from the ingest WAL when this engine started.
    pub recovered_replayed: u64,
    /// Poison events parked in the dead-letter queue, ever.
    pub dead_lettered: u64,
    /// Letters parked in the dead-letter queue now.
    pub dlq_depth: u64,
    /// Letters the full queue evicted, oldest first.
    pub dlq_evicted: u64,
    /// Letters handed back for retry.
    pub dlq_retried: u64,
    /// The largest event count any one worker queue has held.
    pub queue_high_water: u64,
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

impl Stats {
    pub(crate) fn new(wf: &Workflow, cfg: &EngineConfig) -> Stats {
        let reg = Arc::new(Registry::new());
        let lost = |reason| {
            reg.counter_with(
                "muppet_events_lost_total",
                "Events lost (§4.3), by reason",
                &[("reason", reason)],
            )
        };
        // A hit/miss cell per shard of the most-sharded cache built.
        let shards = match cfg.kind {
            EngineKind::Muppet1 => 1,
            EngineKind::Muppet2 => cfg.cache_shards.max(1).next_power_of_two(),
        };
        Stats {
            submitted: reg.counter("muppet_events_submitted_total", "External events accepted"),
            processed: reg
                .counter("muppet_events_processed_total", "Operator invocations completed"),
            emitted: reg.counter("muppet_events_emitted_total", "Events emitted by operators"),
            lost_machine_failure: lost("machine_failure"),
            lost_in_queues: lost("in_queues"),
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
            ingest_replayed: reg.counter(
                "muppet_wal_ingest_replayed_total",
                "Events replayed from the ingest WAL at start",
            ),
            dead_lettered: reg.counter(
                "muppet_dead_letters_total",
                "Poison events parked in the dead-letter queue",
            ),
            dlq_evicted: reg.counter(
                "muppet_dlq_evicted_total",
                "Dead letters evicted, oldest first, by a full queue",
            ),
            dlq_retried: reg
                .counter("muppet_dlq_retried_total", "Dead letters handed back for retry"),
            combined_events: reg.counter(
                "muppet_combined_events_total",
                "Original events absorbed into combiner-folded carriers",
            ),
            split_merge_reads: reg.counter(
                "muppet_split_merge_reads_total",
                "Slate reads that merged hot-key subslates through the combiner",
            ),
            latency: reg.histogram(
                "muppet_event_latency_us",
                "End-to-end event latency (injection → updater completion), microseconds",
            ),
            drain: reg
                .histogram("muppet_drain_batch_events", "Events per non-empty worker queue drain"),
            stages: StageMetrics::new(&reg, wf, cfg),
            cache: CacheMetrics::register(&reg, shards),
            registry: reg,
        }
    }

    /// The handles, with the gauges of `caches` and the wire's counters;
    /// the engine fills in its own gauges.
    pub(crate) fn read(
        &self,
        caches: &[Arc<SlateCache>],
        tcp: Option<&TcpTransport>,
    ) -> EngineStats {
        let cache = self.cache.read(caches.iter().map(|c| &**c));
        let net = tcp.map_or_else(NetSummary::default, |tcp| {
            let t = tcp.stats();
            let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
            NetSummary {
                frames_sent: load(&t.frames_sent),
                frames_received: load(&t.frames_received),
                batches_sent: load(&t.batches_sent),
                batched_events_sent: load(&t.batched_events_sent),
                send_failures: load(&t.send_failures),
                queue_full_waits: load(&t.queue_full_waits),
                outbound_backlog: load(&t.outbound_backlog),
                flushes: FlushReason::ALL.map(|reason| t.flushes(reason)),
            }
        });
        let d = self.drain.summary();
        EngineStats {
            submitted: self.submitted.get(),
            processed: self.processed.get(),
            emitted: self.emitted.get(),
            lost_machine_failure: self.lost_machine_failure.get(),
            lost_in_queues: self.lost_in_queues.get(),
            dropped_overflow: self.dropped_overflow.get(),
            redirected_overflow: self.redirected_overflow.get(),
            throttle_waits: self.throttle_waits.get(),
            publish_errors: self.publish_errors.get(),
            forwarded: self.forwarded.get(),
            latency: self.latency.summary(),
            cache,
            dirty_slates: cache.dirty,
            net,
            drain: DrainSummary {
                drains: d.count,
                mean: d.mean_us,
                p50: d.p50_us,
                p99: d.p99_us,
                max: d.max_us,
            },
            combined_events: self.combined_events.get(),
            split_merge_reads: self.split_merge_reads.get(),
            recovered_replayed: self.ingest_replayed.get(),
            dead_lettered: self.dead_lettered.get(),
            dlq_evicted: self.dlq_evicted.get(),
            dlq_retried: self.dlq_retried.get(),
            ..EngineStats::default()
        }
    }
}

/// Scrape-time samples for everything in the snapshot `s` that is not a
/// handle — gauges, the hit/miss totals summed over the shard cells, the
/// flush-batch count read off its histogram, other crates' counters —
/// plus the `hot` ⟨op, key⟩ estimates and the slate repr statics.
pub(crate) fn collect(
    wf: &Workflow,
    s: &EngineStats,
    hot: Vec<HeavyHitter<(OpId, Key)>>,
    tcp: Option<&TcpTransport>,
    out: &mut Vec<Sample>,
) {
    let gauge = |name: &str, v: u64| Sample::gauge(name, &[], v as i64);
    let count = |name: &str, v: u64| Sample::counter(name, &[], v);
    out.extend([
        gauge("muppet_epoch", s.epoch),
        gauge("muppet_uptime_seconds", s.uptime_s),
        Sample::gauge("muppet_pending_events", &[], s.pending),
        gauge("muppet_split_keys_active", s.split_keys_active),
        gauge("muppet_protocol_version", muppet_net::frame::PROTOCOL_VERSION),
        count("muppet_cache_hits_total", s.cache.hits),
        count("muppet_cache_misses_total", s.cache.misses),
        count("muppet_cache_flush_batches_total", s.cache.flush_batches),
        gauge("muppet_cache_entries", s.cache.entries),
        gauge("muppet_cache_dirty_slates", s.cache.dirty),
        // Victims chosen for eviction, not yet written back. Non-zero
        // with an idle queue: the retire rule is broken; pinned at its
        // bound: the store is the bottleneck.
        gauge("muppet_cache_evict_backlog", s.cache.evict_backlog),
        gauge("muppet_dlq_depth", s.dlq_depth),
        gauge("muppet_queue_high_water", s.queue_high_water),
    ]);
    if let Some(id) = s.machine_id {
        out.push(gauge("muppet_machine_id", id as u64));
    }
    for hh in hot {
        let (op, key) = hh.key;
        let key = String::from_utf8_lossy(key.as_bytes());
        let labels = [("op", wf.op(op).name.as_str()), ("key", &*key)];
        out.push(Sample::counter("muppet_hot_key_events_est", &labels, hh.count));
    }
    if let Some(tcp) = tcp {
        let t = tcp.stats();
        out.extend([
            count("muppet_net_frames_sent_total", s.net.frames_sent),
            count("muppet_net_frames_received_total", s.net.frames_received),
            count("muppet_net_batches_sent_total", s.net.batches_sent),
            count("muppet_net_batched_events_sent_total", s.net.batched_events_sent),
            count("muppet_net_send_failures_total", s.net.send_failures),
            count("muppet_net_connects_total", t.connects.load(Ordering::Relaxed)),
            count("muppet_net_hello_rejected_total", t.hello_rejected.load(Ordering::Relaxed)),
            count("muppet_net_frames_rejected_total", t.frames_rejected.load(Ordering::Relaxed)),
            count("muppet_net_queue_full_waits_total", s.net.queue_full_waits),
            gauge("muppet_net_outbound_backlog", s.net.outbound_backlog),
        ]);
        for (reason, n) in FlushReason::ALL.iter().zip(s.net.flushes) {
            let labels = [("reason", reason.as_str())];
            out.push(Sample::counter("muppet_net_flushes_total", &labels, n));
        }
    }
    if let Some(syncs) = s.store_wal_syncs {
        out.push(count("muppet_wal_syncs_total", syncs));
    }
    if let Some(wal) = s.ingest_wal {
        // Totals since open (the retained prefix found at open included,
        // so they never count down at a checkpoint): bytes ÷ written is
        // the log's cost per event, written ÷ frames near 1 a source that
        // pays a header and an fsync per event; written − durable is the
        // records inside their fsync window, logged and dispatched, not
        // yet acked. What is on disk is the retained bytes and segments.
        out.extend([
            count("muppet_wal_ingest_syncs_total", wal.syncs),
            count("muppet_wal_ingest_bytes_total", wal.bytes),
            count("muppet_wal_ingest_frames_total", wal.frames),
            gauge("muppet_ingest_wal_written", wal.written),
            gauge("muppet_ingest_wal_durable", wal.durable),
            gauge("muppet_ingest_wal_failed", u64::from(wal.failed)),
            gauge("muppet_ingest_wal_retained_bytes", wal.retained_bytes),
            gauge("muppet_ingest_wal_segments", wal.segments),
            gauge("muppet_ingest_wal_cursor", wal.cursor),
        ]);
    }
    // Process-wide statics: shared by every engine in one process,
    // which only bench harnesses run.
    let (parses, serializations) = muppet_core::slate::repr_counters();
    out.push(count("muppet_slate_parses_total", parses));
    out.push(count("muppet_slate_serializations_total", serializations));
}

impl StageMetrics {
    fn new(reg: &Registry, wf: &Workflow, cfg: &EngineConfig) -> StageMetrics {
        let n = cfg.latency_sample_n.max(1);
        let stage = |labels: &[(&str, &str)]| {
            reg.histogram_with("muppet_stage_latency_us", STAGE_HELP, labels)
        };
        StageMetrics {
            sampler_ingest: Sampler::every(n),
            sampler_queue: Sampler::every(n),
            sampler_service: Sampler::every(n),
            sampler_fanout: Sampler::every(n),
            ingest: stage(&[("stage", "ingest")]),
            queue_wait: stage(&[("stage", "queue_wait")]),
            service: wf
                .ops()
                .iter()
                .map(|op| stage(&[("stage", "service"), ("op", &op.name)]))
                .collect(),
            fanout: stage(&[("stage", "fanout")]),
            wal_sync: cfg.ingest_wal.is_some().then(|| stage(&[("stage", "wal_sync")])),
        }
    }
}

impl CacheMetrics {
    /// Register the cache families, with `shards` hit/miss cells.
    pub(crate) fn register(reg: &Registry, shards: usize) -> CacheMetrics {
        let per_shard = |name: &str, help: &str| -> Vec<Counter> {
            (0..shards)
                .map(|i| reg.counter_with(name, help, &[("shard", &i.to_string())]))
                .collect()
        };
        CacheMetrics {
            shard_hits: per_shard(
                "muppet_cache_shard_hits_total",
                "Slate lookups served from memory, per lock shard",
            ),
            shard_misses: per_shard(
                "muppet_cache_shard_misses_total",
                "Slate lookups that missed, per lock shard",
            ),
            store_loads: reg.counter(
                "muppet_cache_store_loads_total",
                "Misses that found a persisted slate in the store",
            ),
            evictions: reg.counter("muppet_cache_evictions_total", "Slates evicted for capacity"),
            flush_writes: reg
                .counter("muppet_cache_flush_writes_total", "Slates written to the store"),
            flush_failures: reg.counter(
                "muppet_cache_flush_failures_total",
                "Slate writes the store refused (the slate stays dirty)",
            ),
            ttl_resets: reg.counter("muppet_cache_ttl_resets_total", "Slates reset by their TTL"),
            store_round_trips: reg.counter(
                "muppet_cache_store_round_trips_total",
                "Store calls of the slate path (loads, writes, batches)",
            ),
            miss_coalesced: reg.counter(
                "muppet_cache_miss_coalesced_total",
                "Misses that shared another miss's in-flight store load",
            ),
            flush_batch: reg
                .histogram("muppet_flush_batch_slates", "Slates per batched store write"),
            flush_latency: reg.histogram_with(
                "muppet_stage_latency_us",
                STAGE_HELP,
                &[("stage", "flush")],
            ),
        }
    }

    /// The counters, plus the gauges of `caches` summed.
    pub(crate) fn read<'a>(&self, caches: impl IntoIterator<Item = &'a SlateCache>) -> CacheStats {
        let sum = |cells: &[Counter]| cells.iter().map(Counter::get).sum();
        let mut s = CacheStats {
            hits: sum(&self.shard_hits),
            misses: sum(&self.shard_misses),
            store_loads: self.store_loads.get(),
            evictions: self.evictions.get(),
            flush_writes: self.flush_writes.get(),
            flush_failures: self.flush_failures.get(),
            ttl_resets: self.ttl_resets.get(),
            flush_batches: self.flush_batch.count(),
            flush_batch_p50: self.flush_batch.percentile_us(0.50),
            flush_batch_largest: self.flush_batch.max_us(),
            store_round_trips: self.store_round_trips.get(),
            miss_coalesced: self.miss_coalesced.get(),
            ..CacheStats::default()
        };
        for cache in caches {
            let shards = cache.shard_stats();
            s.shards += shards.len() as u64;
            s.entries += shards.iter().map(|shard| shard.entries).sum::<u64>();
            s.dirty += cache.dirty_count();
            s.evict_backlog += cache.evict_backlog() as u64;
        }
        s
    }

    /// Per shard: the hit and miss cells, and the occupancy of `caches`
    /// summed shard-wise.
    pub(crate) fn shard_stats(&self, caches: &[Arc<SlateCache>]) -> Vec<ShardStats> {
        let cells = self.shard_hits.iter().zip(&self.shard_misses);
        let mut out: Vec<ShardStats> = cells
            .map(|(hits, misses)| ShardStats {
                hits: hits.get(),
                misses: misses.get(),
                ..ShardStats::default()
            })
            .collect();
        for cache in caches {
            for (acc, shard) in out.iter_mut().zip(cache.shard_stats()) {
                acc.entries += shard.entries;
                acc.capacity += shard.capacity;
            }
        }
        out
    }
}

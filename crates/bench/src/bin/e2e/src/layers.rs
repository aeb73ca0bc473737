//! `e2e layers`: direct timed calls into each layer's public functions on
//! inputs sampled from the workload (ns/op, bytes/op), and the cost ledger
//! that multiplies them by the registry's per-layer counts.
//!
//! Each cost is wall time per operation, driven from one thread of an
//! otherwise idle process. Layers that wait on the disk or run helper
//! threads (the wire) also report the process's CPU time over the same
//! calls, which is what the ledger uses for them: it reconciles CPU, not
//! waiting.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use muppet_core::event::{Event, Key};
use muppet_core::json::Json;
use muppet_core::mbf::Codec;
use muppet_net::frame::{encode_events_payload, Frame};
use muppet_net::topology::Topology;
use muppet_net::transport::{ClusterHandler, MachineId, NetError, Transport};
use muppet_net::{BatchConfig, TcpTransport, WireEvent};
use muppet_runtime::cache::{FlushPolicy, NullBackend, SlateBackend, SlateCache};
use muppet_runtime::dispatch::choose_queue;
use muppet_runtime::engine::DEFAULT_CACHE_SHARDS;
use muppet_runtime::ingestlog::IngestLog;
use muppet_runtime::netstore::RemoteBackend;
use muppet_runtime::queue::EventQueue;
use muppet_slatestore::cluster::{StoreCluster, StoreConfig};
use muppet_slatestore::types::CellKey;

use crate::cluster::Snapshot;
use crate::proc::process_cpu_s;
use crate::report::Metric;

/// Wall and process-CPU time per operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    pub wall_ns: f64,
    pub cpu_ns: f64,
}

/// Call `f` (which performs and returns a number of operations) until
/// `budget` has passed.
fn per_op(budget: Duration, mut f: impl FnMut() -> usize) -> Cost {
    let (t0, cpu0) = (Instant::now(), process_cpu_s());
    let mut ops = 0usize;
    while t0.elapsed() < budget {
        ops += f();
    }
    let ops = ops.max(1) as f64;
    Cost {
        wall_ns: t0.elapsed().as_nanos() as f64 / ops,
        cpu_ns: (process_cpu_s() - cpu0) * 1e9 / ops,
    }
}

#[derive(Clone, Debug, Default)]
pub struct LayerCosts {
    pub ingestlog_append: Cost,
    pub ingestlog_bytes_per_event: f64,
    pub queue_push_pop: Cost,
    pub dispatch_route: Cost,
    pub cache_hit: Cost,
    pub cache_miss: Cost,
    pub json_parse: Cost,
    pub json_write: Cost,
    pub mbf_encode: Cost,
    pub mbf_decode: Cost,
    pub payload_bytes_json: f64,
    pub payload_bytes_mbf: f64,
    pub net_encode: Cost,
    pub net_decode: Cost,
    pub wire_bytes_per_event: f64,
    pub wire: Cost,
    pub store_put_many: Cost,
    pub store_get: Cost,
    pub netstore_round_trip: Cost,
}

fn wire_event(event: &Event) -> WireEvent {
    WireEvent {
        op: 0,
        event: event.clone(),
        injected_us: 0,
        redirected: false,
        external: true,
        thread_hint: None,
        forwards: 0,
    }
}

/// Counts deliveries; answers store loads with a fixed payload.
struct SinkHandler {
    delivered: AtomicU64,
    slate: Vec<u8>,
}

impl ClusterHandler for SinkHandler {
    fn deliver_event(&self, _dest: MachineId, _ev: WireEvent) -> Result<(), NetError> {
        self.delivered.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
    fn handle_failure_report(&self, _failed: MachineId, _epoch: u64) {}
    fn handle_failure_broadcast(&self, _failed: MachineId, _epoch: u64) {}
    fn read_local_slate(&self, _d: MachineId, _u: &str, _k: &[u8]) -> Option<Vec<u8>> {
        None
    }
    fn backend_load(&self, _updater: &str, _key: &[u8], _now_us: u64) -> Option<Vec<u8>> {
        Some(self.slate.clone())
    }
}

/// A sender and a sink transport on loopback, x15's rig.
struct WirePair {
    source: Arc<TcpTransport>,
    sink_handler: Arc<SinkHandler>,
    // Held for their lifetimes: the transports keep only weak handlers.
    _source_handler: Arc<SinkHandler>,
    _sink: Arc<TcpTransport>,
    _listener: muppet_net::TcpListenerHandle,
}

fn wire_pair(slate: &[u8]) -> Result<WirePair, String> {
    let topology = Topology::loopback_ephemeral(2, false).map_err(|e| e.to_string())?;
    let source = TcpTransport::new_with_batching(topology.clone(), 0, BatchConfig::default())?;
    let sink = TcpTransport::new(topology, 1)?;
    let handler = || Arc::new(SinkHandler { delivered: AtomicU64::new(0), slate: slate.to_vec() });
    let (source_handler, sink_handler) = (handler(), handler());
    source.register(Arc::downgrade(&source_handler) as Weak<dyn ClusterHandler>);
    sink.register(Arc::downgrade(&sink_handler) as Weak<dyn ClusterHandler>);
    let listener = sink.start_listener().map_err(|e| e.to_string())?;
    Ok(WirePair {
        source,
        sink_handler,
        _source_handler: source_handler,
        _sink: sink,
        _listener: listener,
    })
}

/// Measure every layer on `events` (source events of the workload) and
/// `slates` (payloads of its terminal updater's slates). `frame_len` is
/// the ingest frame size the open-loop generator produces at the base
/// rate and `flush_batch` the number of slates a cache flush hands the
/// store at once (both decide how many operations share one fsync);
/// `dir` holds the scratch WAL and store and is removed afterwards.
pub fn measure(
    events: &[Event],
    slates: &[Vec<u8>],
    updater: &str,
    frame_len: usize,
    flush_batch: usize,
    dir: &Path,
) -> Result<LayerCosts, String> {
    assert!(!events.is_empty() && !slates.is_empty());
    let budget = Duration::from_millis(100);
    let mut costs = LayerCosts::default();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut cursor = 0usize;
    let mut next_events = |n: usize| -> Vec<Event> {
        (0..n)
            .map(|_| {
                cursor += 1;
                events[cursor % events.len()].clone()
            })
            .collect()
    };

    // ingestlog: group-commit appends of generator-sized frames.
    {
        let wal = dir.join("ingest.wal");
        let (log, _) = IngestLog::open(&wal, false).map_err(|e| format!("open WAL: {e}"))?;
        let mut appended = 0usize;
        costs.ingestlog_append = per_op(2 * budget, || {
            let frame = next_events(frame_len.max(1));
            log.append_batch(&frame).expect("scratch WAL append");
            appended += frame.len();
            frame.len()
        });
        let bytes = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
        costs.ingestlog_bytes_per_event = bytes as f64 / appended.max(1) as f64;
    }

    // queue: push a drain batch, pop it back.
    {
        let queue: EventQueue<Event> = EventQueue::new(1 << 14);
        let mut out = Vec::with_capacity(64);
        costs.queue_push_pop = per_op(budget, || {
            for event in next_events(64) {
                let _ = queue.push(event);
            }
            out.clear();
            queue.pop_many(&mut out, 64, Duration::ZERO)
        });
    }

    // dispatch: route hash + two-choice queue pick over two workers.
    {
        let in_flight = [None, None];
        let lens = [3usize, 5];
        costs.dispatch_route = per_op(budget, || {
            let batch = next_events(64);
            for event in &batch {
                let route = event.key.route_hash(updater);
                std::hint::black_box(choose_queue(route, &in_flight, &lens, 2));
            }
            batch.len()
        });
    }

    // cache: resident keys (hit), then a cache of 64 slots swept by 4 096
    // keys (every access misses, inserts and evicts) over a backend that
    // costs nothing, so the store is not counted twice in the ledger.
    {
        let name: Arc<str> = Arc::from(updater);
        let keys: Vec<Key> = (0..4_096).map(|i| Key::from(format!("k{i}"))).collect();
        let touch = |cache: &SlateCache, key: &Key| {
            let slot = cache.get_or_load(0, &name, key, None, 1);
            let mut state = slot.state.lock();
            state.slate.incr_counter(1);
            cache.note_write(&slot, &mut state, 1);
        };
        let backend = || Arc::new(NullBackend) as Arc<dyn SlateBackend>;
        let resident =
            SlateCache::with_shards(8_192, FlushPolicy::OnEvict, backend(), DEFAULT_CACHE_SHARDS);
        keys.iter().for_each(|k| touch(&resident, k));
        let mut i = 0usize;
        costs.cache_hit = per_op(budget, || {
            for _ in 0..256 {
                i += 1;
                touch(&resident, &keys[i % keys.len()]);
            }
            256
        });
        let cold =
            SlateCache::with_shards(64, FlushPolicy::OnEvict, backend(), DEFAULT_CACHE_SHARDS);
        costs.cache_miss = per_op(budget, || {
            for _ in 0..256 {
                i += 1;
                touch(&cold, &keys[i % keys.len()]);
            }
            256
        });
    }

    // codec: the workload's slate payloads as documents, both spellings.
    {
        let docs: Vec<Json> = slates.iter().filter_map(|s| Json::from_payload(s).ok()).collect();
        if docs.is_empty() {
            return Err("no slate payload parses as a document".into());
        }
        let texts: Vec<Vec<u8>> = docs.iter().map(|d| d.to_compact().into_bytes()).collect();
        let mbfs: Vec<Vec<u8>> =
            docs.iter().map(|d| d.to_mbf().map_err(|e| e.to_string())).collect::<Result<_, _>>()?;
        let n = docs.len() as f64;
        costs.payload_bytes_json = texts.iter().map(Vec::len).sum::<usize>() as f64 / n;
        costs.payload_bytes_mbf = mbfs.iter().map(Vec::len).sum::<usize>() as f64 / n;
        costs.json_parse = per_op(budget / 2, || {
            texts.iter().for_each(|t| drop(std::hint::black_box(Json::parse_bytes(t))));
            texts.len()
        });
        costs.json_write = per_op(budget / 2, || {
            docs.iter().for_each(|d| drop(std::hint::black_box(d.to_compact())));
            docs.len()
        });
        costs.mbf_encode = per_op(budget / 2, || {
            docs.iter().for_each(|d| drop(std::hint::black_box(d.to_mbf())));
            docs.len()
        });
        costs.mbf_decode = per_op(budget / 2, || {
            mbfs.iter().for_each(|m| drop(std::hint::black_box(Json::from_mbf(m))));
            mbfs.len()
        });
    }

    // net: frame encode and decode of default-sized batches, then the
    // real loopback wire (batching sender → counting sink).
    {
        let batch_max = BatchConfig::default().batch_max;
        let batch: Vec<WireEvent> = next_events(batch_max).iter().map(wire_event).collect();
        let payload = encode_events_payload(&batch, true);
        costs.wire_bytes_per_event = payload.len() as f64 / batch.len() as f64;
        costs.net_encode = per_op(budget, || {
            std::hint::black_box(encode_events_payload(&batch, true));
            batch.len()
        });
        costs.net_decode = per_op(budget, || {
            std::hint::black_box(Frame::decode_payload(&payload));
            batch.len()
        });

        let pair = wire_pair(&slates[0])?;
        let mut sent = 0u64;
        let (t0, cpu0) = (Instant::now(), process_cpu_s());
        while t0.elapsed() < 2 * budget {
            for event in next_events(batch_max) {
                pair.source.send_event(1, wire_event(&event)).map_err(|e| format!("{e:?}"))?;
                sent += 1;
            }
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while pair.sink_handler.delivered.load(Ordering::Relaxed) < sent {
            if Instant::now() > deadline {
                return Err("wire microbench never drained".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        costs.wire = Cost {
            wall_ns: t0.elapsed().as_nanos() as f64 / sent.max(1) as f64,
            cpu_ns: (process_cpu_s() - cpu0) * 1e9 / sent.max(1) as f64,
        };

        // netstore: one slate load across the same kind of wire.
        let remote = RemoteBackend::new(Arc::clone(&pair.source) as Arc<dyn Transport>, 1);
        let key = Key::from("k0");
        costs.netstore_round_trip = per_op(budget, || {
            std::hint::black_box(remote.load(updater, &key, 1));
            1
        });
    }

    // store: muppetd's on-disk store, one flush batch of slates per
    // put_many, then point reads of what was written.
    {
        let cfg = StoreConfig { wal_sync_each: true, ..StoreConfig::default() };
        let store =
            StoreCluster::open(dir.join("store"), cfg).map_err(|e| format!("open store: {e:?}"))?;
        let mut serial = 0u64;
        let mut written: Vec<CellKey> = Vec::new();
        costs.store_put_many = per_op(2 * budget, || {
            let keys: Vec<CellKey> = (0..flush_batch.max(1))
                .map(|_| {
                    serial += 1;
                    CellKey::new(format!("k{serial}"), updater)
                })
                .collect();
            let items: Vec<(CellKey, &[u8], Codec, Option<u64>)> = keys
                .iter()
                .enumerate()
                .map(|(i, k)| {
                    let slate = &slates[i % slates.len()];
                    (k.clone(), slate.as_slice(), Codec::sniff(slate), None)
                })
                .collect();
            let acks = store.put_many(&items, serial);
            assert!(acks.iter().all(Result::is_ok), "scratch store refused a write");
            written.extend(keys);
            flush_batch.max(1)
        });
        let mut i = 0usize;
        costs.store_get = per_op(budget, || {
            for _ in 0..64 {
                i += 1;
                std::hint::black_box(store.get(&written[i * 7 % written.len()], serial + 1).ok());
            }
            64
        });
    }

    let _ = std::fs::remove_dir_all(dir);
    Ok(costs)
}

impl LayerCosts {
    /// The source-(c) per-layer metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let ns = |name: &'static str, c: &Cost| Metric::new(name, "ns", c.wall_ns);
        vec![
            ns("ingestlog.append_ns_per_event", &self.ingestlog_append),
            Metric::new("ingestlog.bytes_per_event", "B", self.ingestlog_bytes_per_event),
            ns("queue.push_pop_ns", &self.queue_push_pop),
            ns("dispatch.route_ns", &self.dispatch_route),
            ns("cache.hit_ns", &self.cache_hit),
            ns("cache.miss_ns", &self.cache_miss),
            ns("codec.json_parse_ns", &self.json_parse),
            ns("codec.json_write_ns", &self.json_write),
            ns("codec.mbf_encode_ns", &self.mbf_encode),
            ns("codec.mbf_decode_ns", &self.mbf_decode),
            Metric::new("codec.payload_bytes_json", "B", self.payload_bytes_json),
            Metric::new("codec.payload_bytes_mbf", "B", self.payload_bytes_mbf),
            ns("net.encode_ns_per_event", &self.net_encode),
            ns("net.decode_ns_per_event", &self.net_decode),
            Metric::new("net.wire_bytes_per_event", "B", self.wire_bytes_per_event),
            ns("net.wire_ns_per_event", &self.wire),
            ns("store.put_many_ns_per_slate", &self.store_put_many),
            ns("store.get_ns", &self.store_get),
            Metric::new("netstore.round_trip_us", "us", self.netstore_round_trip.wall_ns / 1e3),
        ]
    }
}

/// One line of the cost ledger: a layer's share of the flood's CPU.
pub struct LedgerLine {
    pub layer: &'static str,
    pub count: f64,
    pub ns_per_op: f64,
    pub cpu_s: f64,
}

pub struct Ledger {
    pub lines: Vec<LedgerLine>,
    pub measured_cpu_s: f64,
}

impl Ledger {
    pub fn accounted_s(&self) -> f64 {
        self.lines.iter().map(|l| l.cpu_s).sum()
    }

    pub fn accounted_share(&self) -> f64 {
        self.accounted_s() / self.measured_cpu_s.max(1e-9)
    }

    /// Lines by CPU, largest first.
    pub fn ranked(&self) -> Vec<&LedgerLine> {
        let mut lines: Vec<&LedgerLine> = self.lines.iter().collect();
        lines.sort_by(|a, b| b.cpu_s.total_cmp(&a.cpu_s));
        lines
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "ledger (flood): {:.3} s CPU measured, {:.1} % accounted\n",
            self.measured_cpu_s,
            self.accounted_share() * 100.0
        );
        for l in self.ranked() {
            out.push_str(&format!(
                "  {:<24} {:>10.0} x {:>9.0} ns = {:>7.3} s ({:>5.1} %)\n",
                l.layer,
                l.count,
                l.ns_per_op,
                l.cpu_s,
                l.cpu_s / self.measured_cpu_s.max(1e-9) * 100.0
            ));
        }
        let rest = self.measured_cpu_s - self.accounted_s();
        out.push_str(&format!(
            "  {:<24} {:>32.3} s ({:>5.1} %)\n",
            "unreconciled remainder",
            rest,
            rest / self.measured_cpu_s.max(1e-9) * 100.0
        ));
        out
    }
}

/// Counts of one flood (registry deltas `d`, operator calls) times the
/// microbench costs, against the flood's measured process CPU. The
/// generator's own CPU is measured, not modelled.
pub fn ledger(
    d: &Snapshot,
    costs: &LayerCosts,
    op_calls: &[(&'static str, f64, f64)],
    gen_cpu_s: f64,
    measured_cpu_s: f64,
) -> Ledger {
    let mut lines = vec![LedgerLine {
        layer: "gen (bench, measured)",
        count: 1.0,
        ns_per_op: gen_cpu_s * 1e9,
        cpu_s: gen_cpu_s,
    }];
    let mut add = |layer: &'static str, count: f64, ns_per_op: f64| {
        lines.push(LedgerLine { layer, count, ns_per_op, cpu_s: count * ns_per_op / 1e9 });
    };
    let processed = d.get("muppet_events_processed_total");
    let wire_events = d.get("muppet_net_batched_events_sent_total");
    add(
        "ingestlog append",
        d.get("muppet_wal_ingest_records_total"),
        costs.ingestlog_append.cpu_ns,
    );
    add("queue push+pop", processed, costs.queue_push_pop.wall_ns);
    add("dispatch route", processed, costs.dispatch_route.wall_ns);
    for (name, calls, ns) in op_calls {
        add(name, *calls, *ns);
    }
    add("cache hit", d.get("muppet_cache_hits_total"), costs.cache_hit.wall_ns);
    add("cache miss", d.get("muppet_cache_misses_total"), costs.cache_miss.wall_ns);
    add("slate parse", d.get("muppet_slate_parses_total"), costs.mbf_decode.wall_ns);
    add("slate serialize", d.get("muppet_slate_serializations_total"), costs.mbf_encode.wall_ns);
    add("net encode", wire_events, costs.net_encode.wall_ns);
    add("net decode", wire_events, costs.net_decode.wall_ns);
    add("net wire (send side)", wire_events, costs.wire.cpu_ns);
    add("store put", d.get("muppet_cache_flush_writes_total"), costs.store_put_many.cpu_ns);
    add("store get", d.get("muppet_cache_store_loads_total"), costs.store_get.wall_ns);
    add(
        "netstore round trip",
        d.get("muppet_cache_store_round_trips_total"),
        costs.netstore_round_trip.cpu_ns,
    );
    Ledger { lines, measured_cpu_s }
}

//! End-to-end observability: the unified registry served over real HTTP
//! at `GET /metrics`, parsed back and checked against the engine's own
//! stats; the enriched `/status` identity fields; and the hot-key
//! telemetry surfacing a skewed workload.

use std::sync::Arc;
use std::time::Duration;

use muppet::obs::{parse_exposition, ParsedSample};
use muppet::prelude::*;
use muppet::runtime::http::{http_get, SlateReader};

fn counter_workflow() -> Workflow {
    let mut b = Workflow::builder("obs-e2e");
    b.external_stream("S1");
    b.updater("tally", &["S1"]);
    b.build().unwrap()
}

fn counter_ops() -> muppet::runtime::engine::OperatorSet {
    muppet::runtime::engine::OperatorSet::new().updater(FnUpdater::new(
        "tally",
        |_: &mut dyn Emitter, _: &Event, slate: &mut Slate| {
            slate.incr_counter(1);
        },
    ))
}

fn start(metrics: bool, sample_n: u64) -> Arc<Engine> {
    let cfg = EngineConfig {
        machines: 2,
        workers_per_machine: 2,
        metrics,
        latency_sample_n: sample_n,
        ..EngineConfig::default()
    };
    Arc::new(Engine::start(counter_workflow(), counter_ops(), cfg, None).unwrap())
}

/// Submit `n` events, three quarters of which share one hot key.
fn feed(engine: &Engine, n: u64) {
    for i in 0..n {
        let key = if i % 4 != 0 { Key::from("walmart") } else { Key::from(format!("k{i}")) };
        engine.submit(Event::new("S1", i, key, Vec::new())).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(30)));
}

/// Spans recorded for `stage`, summed over its label sets.
fn stage_spans(samples: &[ParsedSample], stage: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == "muppet_stage_latency_us_count" && s.label("stage") == Some(stage))
        .map(|s| s.value)
        .sum()
}

#[test]
fn metrics_endpoint_round_trips_every_engine_counter() {
    let engine = start(true, 1);
    feed(&engine, 400);
    let server = HttpSlateServer::serve(Arc::clone(&engine) as _).unwrap();

    let (code, body) = http_get(&format!("{}/metrics", server.base_url())).unwrap();
    assert_eq!(code, 200);
    let text = String::from_utf8(body).unwrap();
    let samples = parse_exposition(&text).expect("/metrics must serve valid Prometheus text");

    let flat = |name: &str| -> Option<f64> {
        samples.iter().find(|s| s.name == name && s.labels.is_empty()).map(|s| s.value)
    };
    // Every pre-existing EngineStats counter surfaces as a family.
    let stats = engine.stats();
    assert_eq!(flat("muppet_events_submitted_total"), Some(stats.submitted as f64));
    assert_eq!(flat("muppet_events_processed_total"), Some(stats.processed as f64));
    assert_eq!(flat("muppet_events_emitted_total"), Some(stats.emitted as f64));
    assert_eq!(flat("muppet_overflow_dropped_total"), Some(0.0));
    assert_eq!(flat("muppet_overflow_redirected_total"), Some(0.0));
    assert_eq!(flat("muppet_throttle_waits_total"), Some(stats.throttle_waits as f64));
    assert_eq!(flat("muppet_publish_errors_total"), Some(0.0));
    assert_eq!(flat("muppet_events_forwarded_total"), Some(stats.forwarded as f64));
    assert_eq!(flat("muppet_cache_hits_total"), Some(stats.cache.hits as f64));
    assert_eq!(flat("muppet_cache_misses_total"), Some(stats.cache.misses as f64));
    let lost: f64 =
        samples.iter().filter(|s| s.name == "muppet_events_lost_total").map(|s| s.value).sum();
    assert_eq!(lost, 0.0, "nothing may be lost in a healthy run");

    // Stage histograms: all five stages appear, and with 1-in-1 sampling
    // the service stage saw every processed event.
    let stage_count = |stage: &str| stage_spans(&samples, stage);
    for stage in ["ingest", "queue_wait", "service", "fanout", "flush"] {
        assert!(
            samples.iter().any(|s| s.name.starts_with("muppet_stage_latency_us")
                && s.label("stage") == Some(stage)),
            "stage {stage} missing from /metrics"
        );
    }
    assert_eq!(stage_count("service"), stats.processed as f64);
    assert!(stage_count("ingest") > 0.0);
    assert!(stage_count("queue_wait") > 0.0);

    // The hot key dominates the space-saving top-k series.
    let hottest = samples
        .iter()
        .filter(|s| s.name == "muppet_hot_key_events_est")
        .max_by(|a, b| a.value.total_cmp(&b.value))
        .expect("hot-key series must be exported");
    assert_eq!(hottest.label("key"), Some("walmart"));
    assert_eq!(hottest.label("op"), Some("tally"));
    assert!(hottest.value >= 300.0, "~3/4 of 400 events hit the hot key: {}", hottest.value);
    assert!(engine.hot_keys(5).iter().any(|(_, key, ..)| key.as_bytes() == b"walmart"));
}

#[test]
fn status_carries_identity_fields_and_agrees_with_metrics() {
    let engine = start(true, 64);
    feed(&engine, 100);
    let server = HttpSlateServer::serve(Arc::clone(&engine) as _).unwrap();

    let (code, body) = http_get(&format!("{}/status", server.base_url())).unwrap();
    assert_eq!(code, 200);
    let status = Json::parse_bytes(&body).unwrap();
    assert_eq!(status.get("submitted").and_then(Json::as_u64), Some(100));
    assert!(status.get("uptime_s").and_then(Json::as_u64).is_some());
    assert_eq!(status.get("epoch").and_then(Json::as_u64), Some(0));
    assert_eq!(
        status.get("protocol_version").and_then(Json::as_u64),
        Some(muppet::net::frame::PROTOCOL_VERSION)
    );
    // The in-process transport hosts every machine, so there is no single
    // local machine id — the field is present but null. So are the ingest
    // WAL's on an engine that was given none.
    assert!(status.get("machine_id").is_some());
    assert_eq!(status.get("ingest_wal_written"), Some(&Json::Null));

    // /metrics and /status are views of the same registry state.
    let (_, body) = http_get(&format!("{}/metrics", server.base_url())).unwrap();
    let samples = parse_exposition(&String::from_utf8(body).unwrap()).unwrap();
    let submitted =
        samples.iter().find(|s| s.name == "muppet_events_submitted_total").map(|s| s.value);
    assert_eq!(submitted, Some(100.0));
    let epoch = samples.iter().find(|s| s.name == "muppet_epoch").map(|s| s.value);
    assert_eq!(epoch, Some(0.0));
    // 1-in-64 sampling times some service spans but fewer than one per
    // event (1-in-1, above, times every one).
    let spans = stage_spans(&samples, "service");
    assert!(spans > 0.0 && spans < 100.0, "{spans} service spans for 100 events");
}

#[test]
fn disabling_metrics_keeps_counters_but_drops_spans_and_sketches() {
    let engine = start(false, 64);
    feed(&engine, 200);
    let server = HttpSlateServer::serve(Arc::clone(&engine) as _).unwrap();

    let (code, body) = http_get(&format!("{}/metrics", server.base_url())).unwrap();
    assert_eq!(code, 200);
    let samples = parse_exposition(&String::from_utf8(body).unwrap()).unwrap();

    // Counters are plain atomics and stay on.
    let submitted =
        samples.iter().find(|s| s.name == "muppet_events_submitted_total").map(|s| s.value);
    assert_eq!(submitted, Some(200.0));
    // No sampled spans, no hot-key sketch.
    let span_count: f64 =
        samples.iter().filter(|s| s.name == "muppet_stage_latency_us_count").map(|s| s.value).sum();
    assert_eq!(span_count, 0.0, "metrics off must record no stage spans");
    assert!(
        !samples.iter().any(|s| s.name == "muppet_hot_key_events_est"),
        "metrics off must not export hot-key series"
    );
    assert!(engine.hot_keys(5).is_empty());
}

/// A TCP pair after traffic: node 0 hosts the store, both log ingest,
/// combine and split hot keys, one event poisons a mapper (so the DLQ
/// counts are non-zero), and both nodes have checkpointed.
fn loaded_tcp_pair(dir: &std::path::Path) -> Vec<Engine> {
    use muppet::apps::split_counter::CombiningCounter;
    use muppet::slatestore::cluster::{StoreCluster, StoreConfig};
    let topology = Topology::loopback_ephemeral(2, false).unwrap();
    let store = Arc::new(StoreCluster::open(dir.join("store"), StoreConfig::default()).unwrap());
    let mut b = Workflow::builder("obs-tcp");
    b.external_stream("S1");
    b.updater("tally", &["S1"]);
    b.mapper("poisoner", &["S1"]);
    let wf = b.build().unwrap();
    let nodes: Vec<Engine> = (0..2)
        .map(|local| {
            let cfg = EngineConfig {
                machines: 2,
                workers_per_machine: 2,
                transport: TransportKind::Tcp { topology: topology.clone(), local },
                store_host: Some(0),
                ingest_wal: Some(dir.join(format!("ingest-{local}.wal"))),
                combine: true,
                hot_split_threshold: 50,
                ..EngineConfig::default()
            };
            let poisoner = FnMapper::new("poisoner", |_: &mut dyn Emitter, ev: &Event| {
                assert_ne!(ev.key.as_bytes(), b"poison", "a poison event");
            });
            let ops = muppet::runtime::engine::OperatorSet::new()
                .updater(CombiningCounter::named("tally"))
                .mapper(poisoner);
            let host = (local == 0).then(|| Arc::clone(&store));
            Engine::start(wf.clone(), ops, cfg, host).unwrap()
        })
        .collect();
    let events: Vec<Event> = (0..2000u64)
        .map(|i| {
            let key = if i % 3 == 0 { "hot".to_string() } else { format!("k{}", i % 97) };
            Event::new("S1", i, Key::from(key), "1")
        })
        .collect();
    for run in events.chunks(100) {
        nodes.iter().for_each(|node| node.submit_many(run.to_vec()).unwrap());
    }
    nodes[0].submit(Event::new("S1", 2000, Key::from("poison"), "1")).unwrap();
    let processed = || nodes.iter().map(|node| node.stats().processed).sum::<u64>();
    let mut last = u64::MAX;
    while last != processed() || !nodes.iter().all(|node| node.drain(Duration::ZERO)) {
        last = processed();
        std::thread::sleep(Duration::from_millis(50));
    }
    for node in &nodes {
        assert!(node.checkpoint(Duration::from_secs(30)), "checkpoint");
    }
    nodes
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("muppet-obs-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every `/status` key, in order.
const STATUS_KEYS: [&str; 55] = [
    "uptime_s",
    "machine_id",
    "protocol_version",
    "submitted",
    "processed",
    "emitted",
    "dropped_overflow",
    "lost_machine_failure",
    "lost_in_queues",
    "forwarded",
    "combined_events_total",
    "split_keys_active",
    "split_merge_reads_total",
    "epoch",
    "machines",
    "max_queue_high_water",
    "cache_entries",
    "cache_hits",
    "cache_misses",
    "cache_shards",
    "drain_batches",
    "drain_batch_mean",
    "drain_batch_p50",
    "drain_batch_p99",
    "drain_batch_max",
    "cache_shard_hits",
    "p99_latency_us",
    "store_flush_batches",
    "store_flush_batch_p50",
    "store_flush_batch_largest",
    "store_round_trips",
    "store_miss_coalesced",
    "evict_backlog",
    "recovered_replayed",
    "ingest_wal_syncs",
    "ingest_wal_bytes",
    "ingest_wal_frames",
    "ingest_wal_written",
    "ingest_wal_durable",
    "ingest_wal_failed",
    "ingest_wal_retained_bytes",
    "ingest_wal_segments",
    "ingest_wal_cursor",
    "dlq_depth",
    "dlq_added",
    "dlq_dropped",
    "dlq_retried",
    "net_frames_sent",
    "net_batches_sent",
    "net_outbound_backlog",
    "net_flushes_size",
    "net_flushes_demand",
    "net_flushes_age",
    "net_flushes_stop",
    "failed_machines",
];

/// The one label that picks a series out of its family, if any.
type Label = Option<(&'static str, &'static str)>;

/// A `/status` key, its `/metrics` series (family and label) and the
/// `EngineStats` field all three readings come from.
type Twin = (&'static str, &'static str, Label, fn(&EngineStats) -> u64);

/// Every numeric `/status` key with a registry twin. The other keys are a
/// clock (`uptime_s`), node shape (`machines`, `cache_shards`), a
/// percentile or mean of a histogram, a high-water mark, or a list.
const TWINS: [Twin; 42] = [
    ("machine_id", "muppet_machine_id", None, |s| s.machine_id.unwrap() as u64),
    ("protocol_version", "muppet_protocol_version", None, |_| muppet::net::frame::PROTOCOL_VERSION),
    ("submitted", "muppet_events_submitted_total", None, |s| s.submitted),
    ("processed", "muppet_events_processed_total", None, |s| s.processed),
    ("emitted", "muppet_events_emitted_total", None, |s| s.emitted),
    ("dropped_overflow", "muppet_overflow_dropped_total", None, |s| s.dropped_overflow),
    (
        "lost_machine_failure",
        "muppet_events_lost_total",
        Some(("reason", "machine_failure")),
        |s| s.lost_machine_failure,
    ),
    ("lost_in_queues", "muppet_events_lost_total", Some(("reason", "in_queues")), |s| {
        s.lost_in_queues
    }),
    ("forwarded", "muppet_events_forwarded_total", None, |s| s.forwarded),
    ("combined_events_total", "muppet_combined_events_total", None, |s| s.combined_events),
    ("split_keys_active", "muppet_split_keys_active", None, |s| s.split_keys_active),
    ("split_merge_reads_total", "muppet_split_merge_reads_total", None, |s| s.split_merge_reads),
    ("epoch", "muppet_epoch", None, |s| s.epoch),
    ("cache_entries", "muppet_cache_entries", None, |s| s.cache.entries),
    ("cache_hits", "muppet_cache_hits_total", None, |s| s.cache.hits),
    ("cache_misses", "muppet_cache_misses_total", None, |s| s.cache.misses),
    ("drain_batches", "muppet_drain_batch_events_count", None, |s| s.drain.drains),
    ("store_flush_batches", "muppet_cache_flush_batches_total", None, |s| s.cache.flush_batches),
    ("store_round_trips", "muppet_cache_store_round_trips_total", None, |s| {
        s.cache.store_round_trips
    }),
    ("store_miss_coalesced", "muppet_cache_miss_coalesced_total", None, |s| s.cache.miss_coalesced),
    ("evict_backlog", "muppet_cache_evict_backlog", None, |s| s.cache.evict_backlog),
    ("recovered_replayed", "muppet_wal_ingest_replayed_total", None, |s| s.recovered_replayed),
    ("ingest_wal_syncs", "muppet_wal_ingest_syncs_total", None, |s| s.ingest_wal.unwrap().syncs),
    ("ingest_wal_bytes", "muppet_wal_ingest_bytes_total", None, |s| s.ingest_wal.unwrap().bytes),
    ("ingest_wal_frames", "muppet_wal_ingest_frames_total", None, |s| s.ingest_wal.unwrap().frames),
    ("ingest_wal_written", "muppet_ingest_wal_written", None, |s| s.ingest_wal.unwrap().written),
    ("ingest_wal_durable", "muppet_ingest_wal_durable", None, |s| s.ingest_wal.unwrap().durable),
    ("ingest_wal_failed", "muppet_ingest_wal_failed", None, |s| {
        u64::from(s.ingest_wal.unwrap().failed)
    }),
    ("ingest_wal_retained_bytes", "muppet_ingest_wal_retained_bytes", None, |s| {
        s.ingest_wal.unwrap().retained_bytes
    }),
    ("ingest_wal_segments", "muppet_ingest_wal_segments", None, |s| s.ingest_wal.unwrap().segments),
    ("ingest_wal_cursor", "muppet_ingest_wal_cursor", None, |s| s.ingest_wal.unwrap().cursor),
    ("dlq_depth", "muppet_dlq_depth", None, |s| s.dlq_depth),
    ("dlq_added", "muppet_dead_letters_total", None, |s| s.dead_lettered),
    ("dlq_dropped", "muppet_dlq_evicted_total", None, |s| s.dlq_evicted),
    ("dlq_retried", "muppet_dlq_retried_total", None, |s| s.dlq_retried),
    ("net_frames_sent", "muppet_net_frames_sent_total", None, |s| s.net.frames_sent),
    ("net_batches_sent", "muppet_net_batches_sent_total", None, |s| s.net.batches_sent),
    ("net_outbound_backlog", "muppet_net_outbound_backlog", None, |s| s.net.outbound_backlog),
    ("net_flushes_size", "muppet_net_flushes_total", Some(("reason", "size")), |s| {
        s.net.flushes[0]
    }),
    ("net_flushes_demand", "muppet_net_flushes_total", Some(("reason", "demand")), |s| {
        s.net.flushes[1]
    }),
    ("net_flushes_age", "muppet_net_flushes_total", Some(("reason", "age")), |s| s.net.flushes[2]),
    ("net_flushes_stop", "muppet_net_flushes_total", Some(("reason", "stop")), |s| {
        s.net.flushes[3]
    }),
];

#[test]
fn status_metrics_and_engine_stats_are_one_set_of_numbers() {
    let dir = scratch_dir("twins");
    let nodes = loaded_tcp_pair(&dir);
    let mut dead_letters = 0;
    for node in &nodes {
        // What `GET /status` and `GET /metrics` serve.
        let Json::Obj(status) = Json::parse(&node.status_json()).unwrap() else { panic!() };
        let samples = parse_exposition(&node.metrics_text().unwrap()).unwrap();
        let stats = node.stats();

        let keys: Vec<&str> = status.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, STATUS_KEYS);
        let sample = |name: &str, label: Option<(&str, &str)>| -> u64 {
            let mut matching = samples
                .iter()
                .filter(|s| s.name == name && label.is_none_or(|(k, v)| s.label(k) == Some(v)));
            let found = matching.next().unwrap_or_else(|| panic!("no sample {name} {label:?}"));
            assert!(matching.next().is_none(), "{name} {label:?} names one series");
            found.value as u64
        };
        for (key, family, label, field) in TWINS {
            let value = match &status[keys.iter().position(|k| *k == key).unwrap()].1 {
                Json::Bool(b) => u64::from(*b),
                v => v.as_u64().unwrap_or_else(|| panic!("{key} = {v:?}")),
            };
            assert_eq!(value, sample(family, label), "/status {key} vs /metrics {family}");
            assert_eq!(value, field(&stats), "/status {key} vs EngineStats");
        }
        let Some((_, Json::Arr(shard_hits))) = status.iter().find(|(k, _)| k == "cache_shard_hits")
        else {
            panic!("cache_shard_hits is a list")
        };
        for (i, (hits, shard)) in shard_hits.iter().zip(node.cache_shard_stats()).enumerate() {
            let series = sample("muppet_cache_shard_hits_total", Some(("shard", &i.to_string())));
            assert_eq!((hits.as_u64(), series), (Some(shard.hits), shard.hits), "shard {i}");
        }
        assert!(stats.processed > 0 && stats.cache.hits > 0 && stats.cache.flush_batches > 0);
        // The checkpoint rotated the log at its end and deleted the sealed
        // segment: one header-only segment is left, and the totals still
        // count every frame written.
        let wal = stats.ingest_wal.unwrap();
        assert_eq!((wal.segments, wal.retained_bytes, wal.cursor), (1, 16, wal.written));
        assert!(wal.frames >= 20 && wal.bytes > 20 * wal.retained_bytes, "{wal:?}");
        dead_letters += stats.dead_lettered;
    }
    assert_eq!(dead_letters, 1, "the poison event is counted once");
    for node in nodes {
        node.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_family_the_benchmark_reads_is_registered() {
    use muppet::obs::Value;
    // The families crates/bench/src/bin/e2e reads by name, with their kind
    // and, where it reads one series of a family, that series' label.
    const READ_BY_E2E: [(&str, &str, Label); 32] = [
        ("muppet_cache_dirty_slates", "gauge", None),
        ("muppet_cache_evictions_total", "counter", None),
        ("muppet_cache_flush_writes_total", "counter", None),
        ("muppet_cache_hits_total", "counter", None),
        ("muppet_cache_miss_coalesced_total", "counter", None),
        ("muppet_cache_misses_total", "counter", None),
        ("muppet_cache_store_loads_total", "counter", None),
        ("muppet_cache_store_round_trips_total", "counter", None),
        ("muppet_combined_events_total", "counter", None),
        ("muppet_dead_letters_total", "counter", None),
        ("muppet_drain_batch_events", "histogram", None),
        ("muppet_events_forwarded_total", "counter", None),
        ("muppet_events_lost_total", "counter", Some(("reason", "machine_failure"))),
        ("muppet_events_processed_total", "counter", None),
        ("muppet_events_submitted_total", "counter", None),
        ("muppet_flush_batch_slates", "histogram", None),
        ("muppet_net_batched_events_sent_total", "counter", None),
        ("muppet_net_batches_sent_total", "counter", None),
        ("muppet_net_frames_sent_total", "counter", None),
        ("muppet_net_outbound_backlog", "gauge", None),
        ("muppet_net_queue_full_waits_total", "counter", None),
        ("muppet_net_send_failures_total", "counter", None),
        ("muppet_overflow_dropped_total", "counter", None),
        ("muppet_pending_events", "gauge", None),
        ("muppet_slate_parses_total", "counter", None),
        ("muppet_slate_serializations_total", "counter", None),
        ("muppet_split_keys_active", "gauge", None),
        ("muppet_stage_latency_us", "histogram", Some(("stage", "queue_wait"))),
        ("muppet_throttle_waits_total", "counter", None),
        ("muppet_wal_ingest_records_total", "counter", None),
        ("muppet_wal_ingest_syncs_total", "counter", None),
        ("muppet_wal_syncs_total", "counter", None),
    ];
    let dir = scratch_dir("e2e-names");
    let nodes = loaded_tcp_pair(&dir);
    let gathered = nodes[0].registry().gather();
    for (name, kind, label) in READ_BY_E2E {
        let found = gathered.iter().any(|s| {
            let got = match s.value {
                Value::Counter(_) => "counter",
                Value::Gauge(_) => "gauge",
                Value::Histogram(_) => "histogram",
            };
            s.name == name
                && got == kind
                && label.is_none_or(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
        });
        assert!(found, "{name} ({kind}, {label:?}) is read by the e2e benchmark");
    }
    for node in nodes {
        node.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

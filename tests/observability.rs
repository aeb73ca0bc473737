//! End-to-end observability: the unified registry served over real HTTP
//! at `GET /metrics`, parsed back and checked against the engine's own
//! stats; the node identity series; the §4.5 status carried by `/metrics`
//! and `/membership` alone; and the hot-key telemetry surfacing a skewed
//! workload.

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

fn start(sample_n: u64) -> Arc<Engine> {
    let cfg = EngineConfig {
        machines: 2,
        workers_per_machine: 2,
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
    let engine = start(1);
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

/// `server`'s `/metrics`, parsed.
fn scrape(server: &HttpSlateServer) -> Vec<ParsedSample> {
    let (code, body) = http_get(&format!("{}/metrics", server.base_url())).unwrap();
    assert_eq!(code, 200);
    parse_exposition(&String::from_utf8(body).unwrap()).unwrap()
}

/// The value of the unlabelled series `name`, if served.
fn value(samples: &[ParsedSample], name: &str) -> Option<f64> {
    samples.iter().find(|s| s.name == name && s.labels.is_empty()).map(|s| s.value)
}

#[test]
fn status_carries_identity_fields_and_agrees_with_metrics() {
    let engine = start(64);
    feed(&engine, 100);
    let server = HttpSlateServer::serve(Arc::clone(&engine) as _).unwrap();

    let samples = scrape(&server);
    assert_eq!(value(&samples, "muppet_events_submitted_total"), Some(100.0));
    assert!(value(&samples, "muppet_uptime_seconds").is_some());
    assert_eq!(value(&samples, "muppet_epoch"), Some(0.0));
    assert_eq!(
        value(&samples, "muppet_protocol_version"),
        Some(muppet::net::frame::PROTOCOL_VERSION as f64)
    );
    // The in-process transport hosts every machine, so there is no single
    // local machine id — the series is not served. Nor are the ingest
    // WAL's on an engine that was given none.
    assert_eq!(value(&samples, "muppet_machine_id"), None);
    assert_eq!(value(&samples, "muppet_ingest_wal_written"), None);
    // 1-in-64 sampling times some service spans but fewer than one per
    // event (1-in-1, above, times every one).
    let spans = stage_spans(&samples, "service");
    assert!(spans > 0.0 && spans < 100.0, "{spans} service spans for 100 events");
}

#[test]
fn metrics_and_membership_are_the_whole_node_status() {
    let engine = start(64);
    feed(&engine, 400);
    engine.kill_machine(1);
    // Detection is send-driven (§4.3): submit until a send meets the dead
    // machine.
    for i in 0.. {
        if engine.failure_detected(1) {
            break;
        }
        assert!(i < 10_000, "machine 1's failure was never detected");
        engine
            .submit(Event::new("S1", 400 + i, Key::from(format!("late{i}")), Vec::new()))
            .unwrap();
    }
    assert!(engine.drain(Duration::from_secs(30)));
    let server = HttpSlateServer::serve(Arc::clone(&engine) as _).unwrap();

    // No JSON status document: /metrics and /membership are the status.
    let (code, _) = http_get(&format!("{}/{}", server.base_url(), "status")).unwrap();
    assert_eq!(code, 404, "no status document is served");
    // The paper's "event count of the largest event queues".
    let high_water = engine.max_queue_high_water();
    assert_eq!(value(&scrape(&server), "muppet_queue_high_water"), Some(high_water as f64));
    assert!(high_water >= 1, "400 events were queued");
    let (code, body) = http_get(&format!("{}/membership", server.base_url())).unwrap();
    assert_eq!(code, 200);
    let membership = Json::parse_bytes(&body).unwrap();
    let failed: Vec<usize> = membership
        .get("failed")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|id| id.as_u64().unwrap() as usize)
        .collect();
    assert_eq!(failed, engine.failed_machines());
    assert_eq!(failed, [1]);
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

/// The one label that picks a series out of its family, if any.
type Label = Option<(&'static str, &'static str)>;

/// A `/metrics` series (family and label) and the `EngineStats` field
/// both readings come from.
type Twin = (&'static str, Label, fn(&EngineStats) -> u64);

/// Every `/metrics` series with an `EngineStats` twin that a loaded TCP
/// pair serves.
const TWINS: [Twin; 42] = [
    ("muppet_machine_id", None, |s| s.machine_id.unwrap() as u64),
    ("muppet_protocol_version", None, |_| muppet::net::frame::PROTOCOL_VERSION),
    ("muppet_events_submitted_total", None, |s| s.submitted),
    ("muppet_events_processed_total", None, |s| s.processed),
    ("muppet_events_emitted_total", None, |s| s.emitted),
    ("muppet_overflow_dropped_total", None, |s| s.dropped_overflow),
    ("muppet_events_lost_total", Some(("reason", "machine_failure")), |s| s.lost_machine_failure),
    ("muppet_events_lost_total", Some(("reason", "in_queues")), |s| s.lost_in_queues),
    ("muppet_events_forwarded_total", None, |s| s.forwarded),
    ("muppet_combined_events_total", None, |s| s.combined_events),
    ("muppet_split_keys_active", None, |s| s.split_keys_active),
    ("muppet_split_merge_reads_total", None, |s| s.split_merge_reads),
    ("muppet_epoch", None, |s| s.epoch),
    ("muppet_cache_entries", None, |s| s.cache.entries),
    ("muppet_cache_hits_total", None, |s| s.cache.hits),
    ("muppet_cache_misses_total", None, |s| s.cache.misses),
    ("muppet_drain_batch_events_count", None, |s| s.drain.drains),
    ("muppet_cache_flush_batches_total", None, |s| s.cache.flush_batches),
    ("muppet_cache_store_round_trips_total", None, |s| s.cache.store_round_trips),
    ("muppet_cache_miss_coalesced_total", None, |s| s.cache.miss_coalesced),
    ("muppet_cache_evict_backlog", None, |s| s.cache.evict_backlog),
    ("muppet_wal_ingest_replayed_total", None, |s| s.recovered_replayed),
    ("muppet_wal_ingest_syncs_total", None, |s| s.ingest_wal.unwrap().syncs),
    ("muppet_wal_ingest_bytes_total", None, |s| s.ingest_wal.unwrap().bytes),
    ("muppet_wal_ingest_frames_total", None, |s| s.ingest_wal.unwrap().frames),
    ("muppet_ingest_wal_written", None, |s| s.ingest_wal.unwrap().written),
    ("muppet_ingest_wal_durable", None, |s| s.ingest_wal.unwrap().durable),
    ("muppet_ingest_wal_failed", None, |s| u64::from(s.ingest_wal.unwrap().failed)),
    ("muppet_ingest_wal_retained_bytes", None, |s| s.ingest_wal.unwrap().retained_bytes),
    ("muppet_ingest_wal_segments", None, |s| s.ingest_wal.unwrap().segments),
    ("muppet_ingest_wal_cursor", None, |s| s.ingest_wal.unwrap().cursor),
    ("muppet_dlq_depth", None, |s| s.dlq_depth),
    ("muppet_dead_letters_total", None, |s| s.dead_lettered),
    ("muppet_dlq_evicted_total", None, |s| s.dlq_evicted),
    ("muppet_dlq_retried_total", None, |s| s.dlq_retried),
    ("muppet_net_frames_sent_total", None, |s| s.net.frames_sent),
    ("muppet_net_batches_sent_total", None, |s| s.net.batches_sent),
    ("muppet_net_outbound_backlog", None, |s| s.net.outbound_backlog),
    ("muppet_net_flushes_total", Some(("reason", "size")), |s| s.net.flushes[0]),
    ("muppet_net_flushes_total", Some(("reason", "demand")), |s| s.net.flushes[1]),
    ("muppet_net_flushes_total", Some(("reason", "age")), |s| s.net.flushes[2]),
    ("muppet_net_flushes_total", Some(("reason", "stop")), |s| s.net.flushes[3]),
];

#[test]
fn status_metrics_and_engine_stats_are_one_set_of_numbers() {
    let dir = scratch_dir("twins");
    let nodes = loaded_tcp_pair(&dir);
    let mut dead_letters = 0;
    for node in &nodes {
        // What `GET /metrics` serves.
        let samples = parse_exposition(&node.metrics_text()).unwrap();
        let stats = node.stats();
        let sample = |name: &str, label: Option<(&str, &str)>| -> u64 {
            let mut matching = samples
                .iter()
                .filter(|s| s.name == name && label.is_none_or(|(k, v)| s.label(k) == Some(v)));
            let found = matching.next().unwrap_or_else(|| panic!("no sample {name} {label:?}"));
            assert!(matching.next().is_none(), "{name} {label:?} names one series");
            found.value as u64
        };
        for (family, label, field) in TWINS {
            assert_eq!(sample(family, label), field(&stats), "/metrics {family} {label:?}");
        }
        for (i, shard) in node.cache_shard_stats().into_iter().enumerate() {
            let series = sample("muppet_cache_shard_hits_total", Some(("shard", &i.to_string())));
            assert_eq!(series, shard.hits, "shard {i}");
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

//! X22 — binary slates and the negotiated wire: what MBF buys at every
//! byte boundary, in bytes and in throughput.
//!
//! §4.2: "our applications often use JSON to encode slates". PR 9 threads
//! MBF — the compact tagged binary codec — through every byte boundary the
//! earlier experiments measured one at a time: event-frame payloads on the
//! wire (x15), slate materialization on the hot path (x17), and the
//! WAL/SSTable store path (x18). This experiment re-runs those boundaries
//! in both codecs on the paper's two workloads:
//!
//! * `event payloads`   — the bytes a tweet/checkin value occupies as
//!   JSON text vs MBF: what the ingest WAL appends and frames carry;
//! * `wire frames`      — the exact `Events` payload bytes an MBF
//!   connection ships vs the same events downgraded for a JSON
//!   peer (`encode_events_payload` both ways — framing included);
//! * `slates at rest`   — a store-backed hot_topics run per codec,
//!   scanning the store after shutdown: the bytes that actually rested;
//! * `pipeline`         — a 3-machine TCP-loopback retailer cluster per
//!   codec choice (`json` / `auto` / `mbf`): same events, same exact
//!   results; events/s recorded — `mbf` pays its ingest-edge transcode,
//!   `auto` (the default) converts nothing at ingest.
//!
//! Timestamps anchor at the paper's era (2011) rather than the synthetic
//! epoch 0 so number widths are realistic. All byte counts are exact and
//! deterministic — CI gates on the shrink ratios and on exactness (both
//! codecs must produce canonically identical slates); wall time is
//! advisory and lives in the committed `BENCH_x22.json`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use muppet_apps::hot_topics::{self, HotDetector, MinuteCounter, TopicMapper};
use muppet_apps::retailer::{self, Counter, RetailerMapper};
use muppet_core::event::Event;
use muppet_core::json::Json;
use muppet_core::{mbf, CodecChoice};
use muppet_net::frame::encode_events_payload;
use muppet_net::topology::Topology;
use muppet_net::{BatchConfig, WireEvent};
use muppet_runtime::cache::FlushPolicy;
use muppet_runtime::engine::{Engine, EngineConfig, OperatorSet, TransportKind};
use muppet_runtime::overflow::OverflowPolicy;
use muppet_slatestore::cluster::{StoreCluster, StoreConfig};
use muppet_workloads::checkins::CheckinGenerator;
use muppet_workloads::tweets::TweetGenerator;

use crate::table::{rate, Table};
use crate::Scale;

const MACHINES: usize = 3;

/// 2011-09-01 00:00 UTC in µs — the paper's Twitter-firehose era, so
/// timestamps and day indices have realistic digit widths.
const EPOCH_US: u64 = 1_314_835_200_000_000;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("muppet-x22-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create x22 temp dir");
    dir
}

fn hot_ops() -> OperatorSet {
    OperatorSet::new()
        .mapper(TopicMapper::new())
        .updater(MinuteCounter::new())
        .updater(HotDetector::new(3.0))
}

struct ByteArm {
    boundary: &'static str,
    workload: &'static str,
    json: u64,
    mbf: u64,
}

impl ByteArm {
    fn ratio(&self) -> f64 {
        self.mbf as f64 / (self.json as f64).max(1.0)
    }

    fn shrink_pct(&self) -> f64 {
        (1.0 - self.ratio()) * 100.0
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("boundary", Json::str(self.boundary)),
            ("workload", Json::str(self.workload)),
            ("json_bytes", Json::num(self.json as f64)),
            ("mbf_bytes", Json::num(self.mbf as f64)),
            ("mbf_over_json", Json::num((self.ratio() * 1e4).round() / 1e4)),
            ("shrink_pct", Json::num((self.shrink_pct() * 100.0).round() / 100.0)),
        ])
    }
}

/// Sum of event-value bytes as JSON text vs MBF — what the ingest WAL
/// appends (and what frames carry) per codec.
fn payload_arm(workload: &'static str, events: &[Event]) -> ByteArm {
    let json: u64 = events.iter().map(|e| e.value.len() as u64).sum();
    let mbf: u64 = events
        .iter()
        .map(|e| {
            let doc = Json::from_payload(&e.value).expect("generator emits valid JSON");
            doc.to_mbf().expect("generator values encode").len() as u64
        })
        .sum();
    ByteArm { boundary: "event-payloads", workload, json, mbf }
}

/// Exact wire payload bytes: the events (values already MBF, as an
/// `mbf` ingest node holds them) encoded for an MBF peer vs downgraded for
/// a JSON peer, in default-sized batches. Framing and headers included.
fn wire_arm(workload: &'static str, events: &[Event]) -> ByteArm {
    let wire: Vec<WireEvent> = events
        .iter()
        .map(|e| {
            let mut ev = e.clone();
            let doc = Json::from_payload(&ev.value).expect("valid value");
            ev.value = doc.to_mbf().expect("encodable value").into();
            WireEvent {
                op: 0,
                event: ev,
                injected_us: 0,
                redirected: false,
                external: true,
                thread_hint: None,
                forwards: 0,
            }
        })
        .collect();
    let batch = BatchConfig::default().batch_max.max(1);
    let mut json = 0u64;
    let mut mbf = 0u64;
    for chunk in wire.chunks(batch) {
        mbf += encode_events_payload(chunk, true).len() as u64;
        json += encode_events_payload(chunk, false).len() as u64;
    }
    ByteArm { boundary: "wire-frames", workload, json, mbf }
}

/// Canonical form of a stored payload (document → canonical compact text,
/// raw text otherwise) — the codec-independent comparison.
fn canonical(bytes: &[u8]) -> String {
    Json::from_payload(bytes)
        .map(|doc| doc.to_compact())
        .unwrap_or_else(|_| String::from_utf8_lossy(bytes).into_owned())
}

struct AtRest {
    /// column → (canonical slates, json-text bytes at rest, mbf bytes at rest)
    columns: BTreeMap<&'static str, (BTreeMap<String, String>, u64)>,
    mbf_values: usize,
    total_bytes: u64,
    elapsed: Duration,
    processed: u64,
}

/// Run hot_topics over a store-backed single-node engine pinned to
/// `codec` and scan the store after shutdown: the measured bytes are the
/// ones that actually rested in the SSTables/WAL.
fn hot_topics_at_rest(codec: CodecChoice, events: &[Event], tag: &str) -> AtRest {
    let dir = temp_dir(tag);
    let store = Arc::new(StoreCluster::open(&dir, StoreConfig::default()).expect("open store"));
    let cfg = EngineConfig {
        machines: 2,
        workers_per_machine: 2,
        overflow: OverflowPolicy::SourceThrottle,
        flush: FlushPolicy::WriteThrough,
        queue_capacity: 1 << 14,
        wire_codec: codec,
        ..EngineConfig::default()
    };
    let engine =
        Engine::start(hot_topics::workflow(), hot_ops(), cfg, Some(Arc::clone(&store))).unwrap();
    let t0 = Instant::now();
    for ev in events {
        engine.submit(ev.clone()).expect("submit");
    }
    assert!(engine.drain(Duration::from_secs(300)), "at-rest arm did not drain");
    let elapsed = t0.elapsed();
    let now = engine.now_us();
    let processed = engine.stats().processed;
    engine.shutdown();

    let mut columns = BTreeMap::new();
    let mut mbf_values = 0usize;
    let mut total_bytes = 0u64;
    for column in [hot_topics::MINUTE_COUNTER, hot_topics::HOT_DETECTOR] {
        let rows = store.scan_column(column, now + 1).expect("scan column");
        let mut slates = BTreeMap::new();
        let mut bytes = 0u64;
        for (row, value) in rows {
            if mbf::is_mbf(&value) {
                mbf_values += 1;
            }
            bytes += value.len() as u64;
            slates.insert(String::from_utf8_lossy(&row).into_owned(), canonical(&value));
        }
        total_bytes += bytes;
        columns.insert(column, (slates, bytes));
    }
    let _ = std::fs::remove_dir_all(&dir);
    AtRest { columns, mbf_values, total_bytes, elapsed, processed }
}

struct PipelineOutcome {
    elapsed: Duration,
    processed: u64,
    counts: BTreeMap<String, u64>,
}

/// One 3-machine TCP-loopback retailer cluster pinned to `codec`: submit,
/// drain, read the per-retailer counts from their owner machines.
fn run_tcp_pipeline(codec: CodecChoice, events: &[Event]) -> PipelineOutcome {
    let topology = Topology::loopback_ephemeral(MACHINES, false).expect("reserve ports");
    let nodes: Vec<Engine> = (0..MACHINES)
        .map(|local| {
            let cfg = EngineConfig {
                machines: MACHINES,
                workers_per_machine: 2,
                overflow: OverflowPolicy::SourceThrottle,
                queue_capacity: 1 << 14,
                transport: TransportKind::Tcp { topology: topology.clone(), local },
                wire_codec: codec,
                ..EngineConfig::default()
            };
            Engine::start(
                retailer::workflow(),
                OperatorSet::new().mapper(RetailerMapper::new()).updater(Counter::new()),
                cfg,
                None,
            )
            .unwrap()
        })
        .collect();
    let t0 = Instant::now();
    for ev in events {
        nodes[0].submit(ev.clone()).expect("submit");
    }
    // Cross-node quiesce: a single node's drain can return while frames
    // are still in TCP flight toward it, so wait for the cluster-wide
    // processed count to go stable (the x15 idiom).
    let total = |nodes: &[Engine]| -> u64 { nodes.iter().map(|e| e.stats().processed).sum() };
    let deadline = Instant::now() + Duration::from_secs(300);
    let mut last = total(&nodes);
    let mut stable_since = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = total(&nodes);
        if now != last {
            last = now;
            stable_since = Instant::now();
        } else if stable_since.elapsed() > Duration::from_millis(400) && now > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "pipeline arm did not quiesce");
    }
    let elapsed = stable_since.saturating_duration_since(t0);
    let mut counts = BTreeMap::new();
    for (retailer_name, _) in muppet_workloads::checkins::RETAILER_VENUES {
        let key = muppet_core::event::Key::from(*retailer_name);
        let owner = nodes[0].owner_machine(retailer::COUNTER, &key).expect("routable key");
        if let Some(bytes) = nodes[owner].read_slate(retailer::COUNTER, &key) {
            let count = String::from_utf8(bytes)
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
                .expect("counter slate is decimal text");
            counts.insert(retailer_name.to_string(), count);
        }
    }
    let processed = nodes.iter().map(|n| n.stats().processed).sum();
    for node in nodes {
        node.shutdown();
    }
    PipelineOutcome { elapsed, processed, counts }
}

/// Run the experiment.
pub fn run(scale: Scale) {
    super::banner(
        "X22",
        "binary slates and the negotiated wire: MBF vs JSON at every byte boundary",
        "§4.2 slate encoding; x15/x17/x18 boundaries re-run per codec",
    );
    let n_payload = scale.events(60_000);
    let n_rest = scale.events(30_000);
    let n_pipe = scale.events(30_000);

    let tweets: Vec<Event> = TweetGenerator::new(42, 2_000, 40.0)
        .starting_at(EPOCH_US)
        .take(hot_topics::TWEET_STREAM, n_payload);
    let checkins: Vec<Event> =
        CheckinGenerator::new(4242, 600, 2000.0).take(retailer::CHECKIN_STREAM, n_payload);

    // --- byte arms: event payloads and exact wire frames ---
    let byte_arms = [
        payload_arm("hot_topics tweets", &tweets),
        payload_arm("retailer checkins", &checkins),
        wire_arm("hot_topics tweets", &tweets),
        wire_arm("retailer checkins", &checkins),
    ];

    // --- slates at rest: one store-backed hot_topics run per codec ---
    let rest_events = &tweets[..n_rest.min(tweets.len())];
    let rest_json = hot_topics_at_rest(CodecChoice::Json, rest_events, "rest-json");
    let rest_mbf = hot_topics_at_rest(CodecChoice::Mbf, rest_events, "rest-mbf");

    // Exactness: identical canonical documents at rest in both codecs.
    for column in [hot_topics::MINUTE_COUNTER, hot_topics::HOT_DETECTOR] {
        let (json_slates, _) = &rest_json.columns[column];
        let (mbf_slates, _) = &rest_mbf.columns[column];
        assert!(!json_slates.is_empty(), "{column}: the workload must produce slates");
        assert_eq!(json_slates, mbf_slates, "{column}: at-rest documents must match per codec");
    }
    assert_eq!(rest_json.mbf_values, 0, "a JSON-pinned engine must not store MBF");
    let slate_count: usize = rest_mbf.columns.values().map(|(s, _)| s.len()).sum();
    assert_eq!(rest_mbf.mbf_values, slate_count, "an MBF engine stores every slate in MBF");

    let minute_rest = ByteArm {
        boundary: "slates-at-rest",
        workload: "hot_topics minute-counter",
        json: rest_json.columns[hot_topics::MINUTE_COUNTER].1,
        mbf: rest_mbf.columns[hot_topics::MINUTE_COUNTER].1,
    };
    let all_rest = ByteArm {
        boundary: "slates-at-rest",
        workload: "hot_topics all slates",
        json: rest_json.total_bytes,
        mbf: rest_mbf.total_bytes,
    };

    // --- pipeline throughput: TCP retailer cluster per codec ---
    let pipe_events = &checkins[..n_pipe.min(checkins.len())];
    let truth: BTreeMap<String, u64> =
        CheckinGenerator::expected_retailer_counts(pipe_events).into_iter().collect();
    // Arm-to-arm wall time on a shared 1-core runner varies by ~10-20%
    // between identical clusters, which swamps the codec effect — so each
    // arm runs twice and keeps its faster run (the min-of-N idiom).
    // Exactness is asserted on both runs.
    let best_of = |codec: CodecChoice| {
        let a = run_tcp_pipeline(codec, pipe_events);
        let b = run_tcp_pipeline(codec, pipe_events);
        assert_eq!(a.counts, b.counts, "repeat runs of one arm must agree");
        if b.elapsed < a.elapsed {
            b
        } else {
            a
        }
    };
    let pipe_arms: Vec<(&str, PipelineOutcome)> =
        [("json", CodecChoice::Json), ("auto", CodecChoice::Auto), ("mbf", CodecChoice::Mbf)]
            .into_iter()
            .map(|(name, codec)| (name, best_of(codec)))
            .collect();
    for (name, o) in &pipe_arms {
        assert_eq!(&o.counts, &truth, "{name} pipeline must be exact");
        assert_eq!(
            o.processed, pipe_arms[0].1.processed,
            "{name}: every codec processes the identical event set"
        );
    }

    // --- render ---
    let mut table = Table::new(["boundary", "workload", "json bytes", "mbf bytes", "shrink"]);
    for arm in byte_arms.iter().chain([&minute_rest, &all_rest]) {
        table.row([
            arm.boundary.to_string(),
            arm.workload.to_string(),
            arm.json.to_string(),
            arm.mbf.to_string(),
            format!("{:.1}%", arm.shrink_pct()),
        ]);
    }
    table.print();

    let mut pipe_table =
        Table::new(["pipeline (3-node TCP retailer)", "events", "wall time", "events/s"]);
    for (name, o) in &pipe_arms {
        pipe_table.row([
            name.to_string(),
            pipe_events.len().to_string(),
            format!("{:.2?}", o.elapsed),
            rate(pipe_events.len(), o.elapsed),
        ]);
    }
    println!();
    pipe_table.print();

    println!(
        "\nshape check: MBF shrinks checkin payloads {:.1}% and minute-counter slates at rest \
         {:.1}%; every codec produced canonically identical slates, exact counts, and \
         {} processed events per pipeline arm ('mbf' pays the ingest-edge parse+encode for \
         its smaller frames; 'auto' — the default — converts nothing at ingest)",
        byte_arms[1].shrink_pct(),
        minute_rest.shrink_pct(),
        pipe_arms[0].1.processed,
    );

    // Deterministic CI gates: byte counts are exact functions of the
    // seeded workloads; wall time is advisory (1-core shared runners).
    for arm in byte_arms.iter().chain([&minute_rest, &all_rest]) {
        assert!(
            arm.mbf < arm.json,
            "{} / {}: MBF must be smaller ({} vs {})",
            arm.boundary,
            arm.workload,
            arm.mbf,
            arm.json
        );
    }
    // The headline ≥25% shrink claims: the retailer workload's serialized
    // payloads (what its WAL appends and frames carry) and the hot_topics
    // minute-counter slate column (Example 5's slate) at rest.
    assert!(
        byte_arms[1].mbf * 4 <= byte_arms[1].json * 3,
        "checkin payloads must shrink ≥25% ({} vs {})",
        byte_arms[1].mbf,
        byte_arms[1].json
    );
    assert!(
        minute_rest.mbf * 4 <= minute_rest.json * 3,
        "minute-counter slates at rest must shrink ≥25% ({} vs {})",
        minute_rest.mbf,
        minute_rest.json
    );
    // The full at-rest population (hot-detector slates are key-heavy)
    // still shrinks over a fifth.
    assert!(
        all_rest.mbf * 5 <= all_rest.json * 4,
        "all hot_topics slates at rest must shrink ≥20% ({} vs {})",
        all_rest.mbf,
        all_rest.json
    );

    let (mbf_decodes, mbf_encodes) = mbf::mbf_counters();
    let doc = Json::obj([
        ("experiment", Json::str("x22")),
        ("workloads", Json::str("hot_topics tweets + retailer checkins (2011-era timestamps)")),
        ("events_payload_arms", Json::num(n_payload as f64)),
        ("events_at_rest", Json::num(rest_events.len() as f64)),
        ("events_pipeline", Json::num(pipe_events.len() as f64)),
        ("pipeline_runs_per_arm", Json::num(2.0)),
        (
            "byte_arms",
            Json::arr(byte_arms.iter().chain([&minute_rest, &all_rest]).map(ByteArm::to_json)),
        ),
        (
            "at_rest",
            Json::obj([
                ("slates", Json::num(slate_count as f64)),
                ("json_arm_wall_ms", Json::num(rest_json.elapsed.as_secs_f64() * 1e3)),
                ("mbf_arm_wall_ms", Json::num(rest_mbf.elapsed.as_secs_f64() * 1e3)),
                ("json_arm_processed", Json::num(rest_json.processed as f64)),
                ("mbf_arm_processed", Json::num(rest_mbf.processed as f64)),
                ("mbf_values_in_mbf_arm", Json::num(rest_mbf.mbf_values as f64)),
            ]),
        ),
        (
            "pipeline",
            Json::arr(pipe_arms.iter().map(|(name, o)| {
                Json::obj([
                    ("codec", Json::str(*name)),
                    ("events", Json::num(pipe_events.len() as f64)),
                    ("processed", Json::num(o.processed as f64)),
                    ("wall_ms", Json::num(o.elapsed.as_secs_f64() * 1e3)),
                    (
                        "events_per_sec",
                        Json::num(pipe_events.len() as f64 / o.elapsed.as_secs_f64().max(1e-9)),
                    ),
                ])
            })),
        ),
        (
            "mbf_codec_calls",
            Json::obj([
                ("encodes", Json::num(mbf_encodes as f64)),
                ("decodes", Json::num(mbf_decodes as f64)),
            ]),
        ),
    ]);
    match std::fs::write("BENCH_x22.json", doc.to_pretty() + "\n") {
        Ok(()) => println!("\nwrote BENCH_x22.json"),
        Err(e) => eprintln!("could not write BENCH_x22.json: {e}"),
    }
}

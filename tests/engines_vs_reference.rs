//! The central correctness claim: the distributed engines approximate the
//! reference executor's well-defined semantics (§3), and for loss-free
//! configurations of commutative applications they match it *exactly* —
//! including across an elastic mid-stream machine join.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use muppet::apps::hot_topics::{self, HotDetector, MinuteCounter, TopicMapper};
use muppet::apps::retailer::{self, Counter, RetailerMapper};
use muppet::prelude::*;
use muppet::slatestore::util::TempDir;
use muppet::workloads::checkins::CheckinGenerator;
use muppet::workloads::tweets::TweetGenerator;

fn reference_counts(events: &[Event]) -> BTreeMap<String, u64> {
    let wf = retailer::workflow();
    let mut exec = ReferenceExecutor::new(&wf);
    exec.register_mapper(RetailerMapper::new());
    exec.register_updater(Counter::new());
    for ev in events {
        exec.push_external(retailer::CHECKIN_STREAM, ev.clone());
    }
    exec.run_to_completion().unwrap();
    exec.slates_of(retailer::COUNTER)
        .into_iter()
        .map(|(k, s)| (k.as_str().unwrap().to_string(), s.counter()))
        .collect()
}

fn engine_counts(events: &[Event], kind: EngineKind, machines: usize) -> BTreeMap<String, u64> {
    let cfg = EngineConfig {
        kind,
        machines,
        workers_per_machine: 3,
        workers_per_op: 3,
        // Zero-loss configuration: queues never drop, sources block.
        overflow: OverflowPolicy::SourceThrottle,
        queue_capacity: 512,
        ..EngineConfig::default()
    };
    let engine = Engine::start(
        retailer::workflow(),
        OperatorSet::new().mapper(RetailerMapper::new()).updater(Counter::new()),
        cfg,
        None,
    )
    .unwrap();
    for ev in events {
        engine.submit(ev.clone()).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(60)), "engine must drain");
    let mut out = BTreeMap::new();
    for (retailer_name, _) in muppet::workloads::checkins::RETAILER_VENUES {
        if let Some(bytes) = engine.read_slate(retailer::COUNTER, &Key::from(*retailer_name)) {
            out.insert(
                retailer_name.to_string(),
                String::from_utf8(bytes).unwrap().parse().unwrap(),
            );
        }
    }
    let stats = engine.shutdown();
    assert_eq!(stats.dropped_overflow, 0, "zero-loss config must not drop");
    assert_eq!(stats.lost_machine_failure + stats.lost_in_queues, 0);
    out
}

#[test]
fn muppet2_matches_reference_exactly() {
    let mut gen = CheckinGenerator::new(101, 1000, 2000.0);
    let events = gen.take(retailer::CHECKIN_STREAM, 8000);
    let expected = reference_counts(&events);
    let got = engine_counts(&events, EngineKind::Muppet2, 3);
    assert_eq!(got, expected);
}

#[test]
fn muppet1_matches_reference_exactly() {
    let mut gen = CheckinGenerator::new(202, 1000, 2000.0);
    let events = gen.take(retailer::CHECKIN_STREAM, 8000);
    let expected = reference_counts(&events);
    let got = engine_counts(&events, EngineKind::Muppet1, 3);
    assert_eq!(got, expected);
}

#[test]
fn both_engines_agree_with_each_other_and_ground_truth() {
    let mut gen = CheckinGenerator::new(303, 500, 2000.0).with_venue_skew(1.8);
    let events = gen.take(retailer::CHECKIN_STREAM, 6000);
    let truth: BTreeMap<String, u64> =
        CheckinGenerator::expected_retailer_counts(&events).into_iter().collect();
    let v1 = engine_counts(&events, EngineKind::Muppet1, 2);
    let v2 = engine_counts(&events, EngineKind::Muppet2, 2);
    assert_eq!(v1, truth, "Muppet 1.0 vs ground truth");
    assert_eq!(v2, truth, "Muppet 2.0 vs ground truth");
}

/// Run `events` through a store-backed single-machine engine whose cache
/// budget plus eviction backlog (2 + 2 slates) is smaller than the app's
/// five keys, so slates are evicted — written back in deferred batches —
/// and refaulted throughout the run. Returns the per-retailer totals *at rest* after shutdown.
fn tiny_cache_counts_at_rest(events: &[Event], kind: EngineKind) -> BTreeMap<String, u64> {
    let dir = TempDir::new("tiny-cache").unwrap();
    let store = Arc::new(StoreCluster::open(dir.path(), StoreConfig::default()).unwrap());
    let cfg = EngineConfig {
        kind,
        machines: 1,
        workers_per_machine: 3,
        workers_per_op: 1,
        overflow: OverflowPolicy::SourceThrottle,
        queue_capacity: 512,
        slate_cache_capacity: 2,
        cache_shards: 1,
        ..EngineConfig::default()
    };
    let engine = Engine::start(
        retailer::workflow(),
        OperatorSet::new().mapper(RetailerMapper::new()).updater(Counter::new()),
        cfg,
        Some(Arc::clone(&store)),
    )
    .unwrap();
    for ev in events {
        engine.submit(ev.clone()).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(60)), "engine must drain");
    let now = engine.now_us();
    let stats = engine.shutdown();
    assert!(stats.cache.evictions > 0 && stats.cache.store_loads > 0, "{:?}", stats.cache);
    assert_eq!((stats.dirty_slates, stats.cache.evict_backlog), (0, 0), "shutdown is a barrier");
    assert_eq!(stats.dropped_overflow + stats.lost_machine_failure + stats.lost_in_queues, 0);
    store
        .scan_column(retailer::COUNTER, now + 1)
        .unwrap()
        .into_iter()
        .map(|(row, value)| {
            (String::from_utf8_lossy(&row).into_owned(), canonical(&value).parse().unwrap())
        })
        .collect()
}

#[test]
fn tiny_cache_over_a_store_matches_reference_exactly_at_rest() {
    let mut gen = CheckinGenerator::new(808, 600, 2000.0);
    let events = gen.take(retailer::CHECKIN_STREAM, 6000);
    let expected = reference_counts(&events);
    assert_eq!(tiny_cache_counts_at_rest(&events, EngineKind::Muppet2), expected, "Muppet 2.0");
    assert_eq!(tiny_cache_counts_at_rest(&events, EngineKind::Muppet1), expected, "Muppet 1.0");
}

/// Run `events` through an engine that *grows by one machine* mid-stream
/// (elastic join, DESIGN.md §7) and return the per-retailer totals.
fn engine_counts_with_join(
    events: &[Event],
    kind: EngineKind,
    machines: usize,
    store: Option<Arc<StoreCluster>>,
) -> BTreeMap<String, u64> {
    let cfg = EngineConfig {
        kind,
        machines,
        workers_per_machine: 2,
        workers_per_op: 2,
        overflow: OverflowPolicy::SourceThrottle,
        queue_capacity: 512,
        ..EngineConfig::default()
    };
    let engine = Engine::start(
        retailer::workflow(),
        OperatorSet::new().mapper(RetailerMapper::new()).updater(Counter::new()),
        cfg,
        store,
    )
    .unwrap();
    let epoch_before = engine.epoch();
    let (first, second) = events.split_at(events.len() / 2);
    for ev in first {
        engine.submit(ev.clone()).unwrap();
    }
    // Mid-stream — no drain, no quiesce: queues are hot while the new
    // machine enters the rings and moved slates are handed off.
    let joined = engine.join_machine().unwrap();
    assert_eq!(joined, machines, "ids are append-only");
    assert!(engine.ring_contains(joined), "the joiner must enter the ring");
    assert!(engine.epoch() > epoch_before, "a join must mint a new epoch");
    for ev in second {
        engine.submit(ev.clone()).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(60)), "engine must drain");
    let mut out = BTreeMap::new();
    for (retailer_name, _) in muppet::workloads::checkins::RETAILER_VENUES {
        if let Some(bytes) = engine.read_slate(retailer::COUNTER, &Key::from(*retailer_name)) {
            out.insert(
                retailer_name.to_string(),
                String::from_utf8(bytes).unwrap().parse().unwrap(),
            );
        }
    }
    let stats = engine.shutdown();
    assert_eq!(stats.dropped_overflow, 0, "zero-loss config must not drop");
    assert_eq!(
        stats.lost_machine_failure + stats.lost_in_queues,
        0,
        "a mid-stream join must be loss-free on the handoff path"
    );
    out
}

#[test]
fn muppet2_with_midstream_join_matches_reference_exactly() {
    // Store-backed handoff: the old owner flushes moved slates, the new
    // machine faults them in — totals must still be exact.
    let dir = TempDir::new("join-ref-m2").unwrap();
    let store = Arc::new(StoreCluster::open(dir.path(), StoreConfig::default()).unwrap());
    let mut gen = CheckinGenerator::new(505, 800, 2000.0);
    let events = gen.take(retailer::CHECKIN_STREAM, 8000);
    let expected = reference_counts(&events);
    let got = engine_counts_with_join(&events, EngineKind::Muppet2, 3, Some(store));
    assert_eq!(got, expected);
}

#[test]
fn muppet1_with_midstream_join_matches_reference_exactly() {
    let dir = TempDir::new("join-ref-m1").unwrap();
    let store = Arc::new(StoreCluster::open(dir.path(), StoreConfig::default()).unwrap());
    let mut gen = CheckinGenerator::new(606, 800, 2000.0);
    let events = gen.take(retailer::CHECKIN_STREAM, 8000);
    let expected = reference_counts(&events);
    let got = engine_counts_with_join(&events, EngineKind::Muppet1, 3, Some(store));
    assert_eq!(got, expected);
}

#[test]
fn midstream_join_without_store_transfers_slates_directly() {
    // No store attached: the in-process handoff moves the slate slots
    // between machine caches instead — still exact.
    let mut gen = CheckinGenerator::new(707, 500, 2000.0);
    let events = gen.take(retailer::CHECKIN_STREAM, 6000);
    let expected = reference_counts(&events);
    let got = engine_counts_with_join(&events, EngineKind::Muppet2, 2, None);
    assert_eq!(got, expected);
}

/// Canonical form of a slate payload: an MBF document decodes, JSON text
/// parses, and both render the same compact canonical text (sorted keys,
/// shortest number form). Payloads that are not documents at all (plain
/// text counters) compare as raw text. This is the comparison mode the
/// binary-representation tests need — byte equality is too strict once
/// the same document can be at rest in two codecs.
fn canonical(bytes: &[u8]) -> String {
    Json::from_payload(bytes)
        .map(|doc| doc.to_compact())
        .unwrap_or_else(|_| String::from_utf8_lossy(bytes).into_owned())
}

/// Run hot_topics (container-valued slates) over a store-backed engine
/// pinned to `codec` and return ⟨canonical minute-counter slates, how
/// many stored values were MBF at rest⟩. The store is scanned directly
/// after shutdown, so the values compared are the bytes that actually
/// rested on disk.
fn hot_topics_at_rest(codec: CodecChoice, events: &[Event]) -> (BTreeMap<String, String>, usize) {
    let dir = TempDir::new("canon").unwrap();
    let store = Arc::new(StoreCluster::open(dir.path(), StoreConfig::default()).unwrap());
    let cfg = EngineConfig {
        kind: EngineKind::Muppet2,
        machines: 2,
        workers_per_machine: 2,
        overflow: OverflowPolicy::SourceThrottle,
        flush: FlushPolicy::WriteThrough,
        wire_codec: codec,
        ..EngineConfig::default()
    };
    let engine = Engine::start(
        hot_topics::workflow(),
        OperatorSet::new()
            .mapper(TopicMapper::new())
            .updater(MinuteCounter::new())
            .updater(HotDetector::new(3.0)),
        cfg,
        Some(Arc::clone(&store)),
    )
    .unwrap();
    for ev in events {
        engine.submit(ev.clone()).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(60)));
    let now = engine.now_us();
    engine.shutdown();
    let rows = store.scan_column(hot_topics::MINUTE_COUNTER, now + 1).unwrap();
    let mbf_at_rest = rows.iter().filter(|(_, value)| muppet::core::mbf::is_mbf(value)).count();
    let slates = rows
        .into_iter()
        .map(|(row, value)| (String::from_utf8_lossy(&row).into_owned(), canonical(&value)))
        .collect();
    (slates, mbf_at_rest)
}

#[test]
fn mbf_at_rest_matches_reference_canonically() {
    let mut gen = TweetGenerator::new(909, 300, 2000.0);
    let events = gen.take(hot_topics::TWEET_STREAM, 6000);

    // Reference truth, canonicalized the same way.
    let wf = hot_topics::workflow();
    let mut exec = ReferenceExecutor::new(&wf);
    exec.register_mapper(TopicMapper::new());
    exec.register_updater(MinuteCounter::new());
    exec.register_updater(HotDetector::new(3.0));
    for ev in &events {
        exec.push_external(hot_topics::TWEET_STREAM, ev.clone());
    }
    exec.run_to_completion().unwrap();
    let expected: BTreeMap<String, String> = exec
        .slates_of(hot_topics::MINUTE_COUNTER)
        .into_iter()
        .map(|(k, s)| (String::from_utf8_lossy(k.as_bytes()).into_owned(), canonical(s.bytes())))
        .collect();
    assert!(!expected.is_empty(), "the workload must produce minute-counter slates");

    let (json_slates, json_mbf) = hot_topics_at_rest(CodecChoice::Json, &events);
    let (mbf_slates, mbf_mbf) = hot_topics_at_rest(CodecChoice::Mbf, &events);

    // Same documents regardless of the at-rest codec — and both exactly
    // the reference's.
    assert_eq!(json_slates, expected, "JSON at rest vs reference");
    assert_eq!(mbf_slates, expected, "MBF at rest vs reference");

    // The codec choice actually changed the resting representation.
    assert_eq!(json_mbf, 0, "a JSON-pinned engine must not store MBF");
    assert_eq!(mbf_mbf, mbf_slates.len(), "an MBF engine stores every container slate in MBF");
}

#[test]
fn single_machine_single_worker_degenerate_cluster() {
    // The smallest possible cluster must still be correct.
    let mut gen = CheckinGenerator::new(404, 100, 1000.0);
    let events = gen.take(retailer::CHECKIN_STREAM, 1000);
    let expected = reference_counts(&events);
    let cfg = EngineConfig {
        kind: EngineKind::Muppet2,
        machines: 1,
        workers_per_machine: 1,
        overflow: OverflowPolicy::SourceThrottle,
        ..EngineConfig::default()
    };
    let engine = Engine::start(
        retailer::workflow(),
        OperatorSet::new().mapper(RetailerMapper::new()).updater(Counter::new()),
        cfg,
        None,
    )
    .unwrap();
    for ev in &events {
        engine.submit(ev.clone()).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(30)));
    for (retailer_name, expect) in &expected {
        let got = engine
            .read_slate(retailer::COUNTER, &Key::from(retailer_name.as_str()))
            .map(|b| String::from_utf8(b).unwrap().parse::<u64>().unwrap())
            .unwrap_or(0);
        assert_eq!(got, *expect, "{retailer_name}");
    }
    engine.shutdown();
}

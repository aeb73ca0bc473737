//! Resident slates (DESIGN.md §8): a JSON slate is parsed when it faults in
//! from the store and serialized when it is written back — never per
//! event. Alone in its file because `slate::repr_counters` are
//! process-wide statics.

use std::sync::Arc;
use std::time::Duration;

use muppet::apps::hot_topics::{self, HotDetector, MinuteCounter, TopicMapper};
use muppet::core::slate::repr_counters;
use muppet::prelude::*;
use muppet::slatestore::util::TempDir;
use muppet::workloads::tweets::TweetGenerator;

#[test]
fn json_slates_parse_per_fault_and_serialize_per_write_not_per_event() {
    let dir = TempDir::new("residency").unwrap();
    let store = Arc::new(StoreCluster::open(dir.path(), StoreConfig::default()).unwrap());
    let cfg = EngineConfig {
        machines: 1,
        workers_per_machine: 2,
        overflow: OverflowPolicy::SourceThrottle,
        // A tenth as many slots as ⟨topic, minute⟩ slates, so slates are
        // written back and refaulted all run long; pinned to JSON so each
        // of those crossings is a counted parse or serialization (the
        // byte path PR 4 replaced paid both on all 12 000 updates).
        slate_cache_capacity: 8,
        cache_shards: 1,
        wire_codec: CodecChoice::Json,
        ..EngineConfig::default()
    };
    let ops = OperatorSet::new()
        .mapper(TopicMapper::new())
        .updater(MinuteCounter::new())
        .updater(HotDetector::new(3.0));
    let events = TweetGenerator::new(42, 2_000, 40.0).take(hot_topics::TWEET_STREAM, 6_000);
    let (parses, serializations) = repr_counters();
    let engine = Engine::start(hot_topics::workflow(), ops, cfg, Some(store)).unwrap();
    for event in events {
        engine.submit(event).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(60)), "engine must drain");
    let stats = engine.shutdown();
    let (parses, serializations) = (repr_counters().0 - parses, repr_counters().1 - serializations);

    let cache = stats.cache;
    assert!(cache.store_loads > 0 && cache.flush_writes > 0, "no cache pressure: {cache:?}");
    assert!(parses <= cache.store_loads, "{parses} parses for {} loads", cache.store_loads);
    assert!(
        serializations <= cache.flush_writes,
        "{serializations} serializations for {} writes",
        cache.flush_writes
    );
}

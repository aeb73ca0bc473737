//! Hot keys end to end: map-side combiners and dynamic key splitting
//! (DESIGN.md §14) against the reference semantics.
//!
//! The invariant under test is the combiner contract: with
//! `EngineConfig::combine` on — and with hot keys fanned out across
//! subslates and merged back on read — per-key totals must stay
//! bit-for-bit what per-event delivery produces.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use muppet::apps::split_counter::CombiningCounter;
use muppet::prelude::*;
use muppet::runtime::dispatch::{split_subkey, SPLIT_WAYS};
use muppet::workloads::{zipf_events, ZIPF_STREAM};

const COUNTER: &str = "zipf-counter";

fn workflow() -> Workflow {
    let mut b = Workflow::builder("hot-keys");
    b.external_stream(ZIPF_STREAM);
    b.updater(COUNTER, &[ZIPF_STREAM]);
    b.build().unwrap()
}

/// Ground truth: every event carries the unit value `"1"`, so a key's
/// total is its occurrence count.
fn expected_counts(events: &[Event]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for ev in events {
        *out.entry(ev.key.as_str().unwrap().to_string()).or_insert(0u64) += 1;
    }
    out
}

fn config(combine: bool, hot_split_threshold: u64) -> EngineConfig {
    EngineConfig {
        kind: EngineKind::Muppet2,
        machines: 2,
        workers_per_machine: 2,
        workers_per_op: 2,
        overflow: OverflowPolicy::SourceThrottle,
        queue_capacity: 2048,
        combine,
        hot_split_threshold,
        ..EngineConfig::default()
    }
}

/// A [`CombiningCounter`] whose updates wait while its gate is shut.
struct Gated(CombiningCounter, Arc<AtomicBool>);

impl Updater for Gated {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn update(&self, ctx: &mut dyn Emitter, event: &Event, slate: &mut Slate) {
        while self.1.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.0.update(ctx, event, slate)
    }
    fn combine(&self, acc: &[u8], next: &[u8]) -> Option<Vec<u8>> {
        self.0.combine(acc, next)
    }
    fn combines(&self) -> bool {
        true
    }
}

fn read_counts(engine: &Engine, events: &[Event]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for key in expected_counts(events).keys() {
        if let Some(bytes) = engine.read_slate(COUNTER, &Key::from(key.as_str())) {
            out.insert(key.clone(), String::from_utf8(bytes).unwrap().parse().unwrap());
        }
    }
    out
}

#[test]
fn combine_on_matches_per_event_totals_exactly() {
    let events = zipf_events(200, 1.2, 8000, 11);
    let expected = expected_counts(&events);
    let shut = Arc::new(AtomicBool::new(true));
    let engine = Engine::start(
        workflow(),
        OperatorSet::new().updater(Gated(CombiningCounter::named(COUNTER), Arc::clone(&shut))),
        config(true, 0),
        None,
    )
    .unwrap();
    // Every update waits at the gate until the burst is queued: until
    // `submit_many` returns, or the first producer blocks on a full queue.
    // So the workers drain deep batches however fast the machine is.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while shut.load(Ordering::Acquire) && engine.stats().throttle_waits == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            shut.store(false, Ordering::Release);
        });
        engine.submit_many(events.clone()).unwrap();
        shut.store(false, Ordering::Release);
    });
    assert!(engine.drain(Duration::from_secs(60)), "engine must drain");
    let got = read_counts(&engine, &events);
    let stats = engine.shutdown();
    assert_eq!(got, expected, "folded delivery must be exact");
    assert_eq!(stats.dropped_overflow, 0);
    assert_eq!(stats.lost_machine_failure + stats.lost_in_queues, 0);
    // The gate queues the burst before any drain, so drains are deep:
    // the folds (over all keys) ran 2.37–2.68× the head key's events in
    // 30 runs when this floor of 2× was set.
    assert!(
        stats.combined_events >= expected["k0"] * 2,
        "a skewed burst through full queues must fold: {} of {}",
        stats.combined_events,
        expected["k0"]
    );
    assert_eq!(stats.processed + stats.combined_events, 8000, "an update or a fold per event");
    assert_eq!(stats.split_keys_active, 0, "threshold 0 never splits");
}

#[test]
fn split_cycle_fans_out_merges_on_read_and_collapses() {
    let events = zipf_events(50, 1.4, 12_000, 23);
    let expected = expected_counts(&events);
    let engine = Engine::start(
        workflow(),
        OperatorSet::new().updater(CombiningCounter::named(COUNTER)),
        config(true, 200),
        None,
    )
    .unwrap();
    engine.submit_many(events.clone()).unwrap();
    assert!(engine.drain(Duration::from_secs(60)), "engine must drain");

    // The burst must have split the head key and fanned it across
    // subslates; reads merge them back exactly.
    let got = read_counts(&engine, &events);
    assert_eq!(got, expected, "merged reads must reproduce per-event totals");
    let head = Key::from("k0");
    let populated = (0..SPLIT_WAYS)
        .filter(|&w| engine.read_slate(COUNTER, &split_subkey(&head, w)).is_some())
        .count();
    assert!(populated >= 4, "head key must fan out across subslates, got {populated}");
    let mid = engine.stats();
    assert!(mid.split_keys_active >= 1, "the Zipf head must be split after the burst");
    assert!(mid.split_merge_reads > 0, "reads of the split key must merge subslates");
    assert!(mid.combined_events > 0);

    // Cooling: with the burst over, a trickle of head-key traffic rolls
    // the probe window twice (the first roll retires the burst's hit
    // count) and the head key's split collapses. Other burst-split keys
    // see no traffic, so their probes never fire — they stay installed
    // (and cost nothing) until their next event. Totals stay exact
    // because the subslate residue keeps merging on read.
    let mut trickle = Vec::new();
    for i in 0..3 {
        std::thread::sleep(Duration::from_millis(300));
        let ev = Event::new(ZIPF_STREAM, 20_000 + i, head.clone(), &b"1"[..]);
        trickle.push(ev.clone());
        engine.submit(ev).unwrap();
        assert!(engine.drain(Duration::from_secs(30)));
    }
    let after = engine.stats();
    assert!(
        after.split_keys_active < mid.split_keys_active,
        "the cooled head key must collapse ({} -> {})",
        mid.split_keys_active,
        after.split_keys_active
    );
    let total: u64 =
        String::from_utf8(engine.read_slate(COUNTER, &head).unwrap()).unwrap().parse().unwrap();
    assert_eq!(total, expected["k0"] + trickle.len() as u64, "exact across the collapse");
    engine.shutdown();
}

/// The sketch count is cumulative: after a collapse, the burst that split
/// the head key must not re-split it on the first trickle event a sampled
/// probe lands on. Only heat gained since the collapse re-splits it.
#[test]
fn a_collapsed_split_stays_collapsed_under_trickle_and_resplits_when_hot() {
    let events = zipf_events(50, 1.4, 12_000, 23);
    let engine = Engine::start(
        workflow(),
        OperatorSet::new().updater(CombiningCounter::named(COUNTER)),
        config(true, 200),
        None,
    )
    .unwrap();
    engine.submit_many(events.clone()).unwrap();
    assert!(engine.drain(Duration::from_secs(60)), "engine must drain");
    let split = engine.stats().split_keys_active;
    assert!(split >= 1, "the Zipf head must be split after the burst");

    // Roll the head key's cooling window twice so its split collapses.
    let head = Key::from("k0");
    let mut sent = events;
    let mut send = |ev: Event| {
        sent.push(ev.clone());
        engine.submit(ev).unwrap();
        assert!(engine.drain(Duration::from_secs(30)));
    };
    let mut ts = 20_000;
    let mut next = || {
        ts += 1;
        Event::new(ZIPF_STREAM, ts, head.clone(), &b"1"[..])
    };
    for _ in 0..2 {
        std::thread::sleep(Duration::from_millis(300));
        send(next());
    }
    let collapsed = engine.stats().split_keys_active;
    assert_eq!(collapsed, split - 1, "the cooled head key collapses");

    // 128 trickle events: at least two 1-in-64 probes land on the head key.
    for _ in 0..128 {
        send(next());
    }
    assert_eq!(engine.stats().split_keys_active, collapsed, "a trickle must not re-split");

    // Heat gained since the collapse does re-split it.
    let burst: Vec<Event> = (0..2000).map(|_| next()).collect();
    sent.extend(burst.iter().cloned());
    engine.submit_many(burst).unwrap();
    assert!(engine.drain(Duration::from_secs(60)));
    assert_eq!(engine.stats().split_keys_active, split, "a re-heated key splits again");
    assert_eq!(read_counts(&engine, &sent), expected_counts(&sent), "exact across the cycle");
    engine.shutdown();
}

#[test]
fn combine_and_split_survive_a_midstream_join() {
    let events = zipf_events(80, 1.3, 10_000, 31);
    let expected = expected_counts(&events);
    let engine = Engine::start(
        workflow(),
        OperatorSet::new().updater(CombiningCounter::named(COUNTER)),
        config(true, 200),
        None,
    )
    .unwrap();
    let (first, second) = events.split_at(events.len() / 2);
    engine.submit_many(first.to_vec()).unwrap();
    // Mid-stream join while queues are hot: subslates are ordinary
    // slates, so the handoff moves them like any other key.
    let joined = engine.join_machine().unwrap();
    assert!(engine.ring_contains(joined));
    engine.submit_many(second.to_vec()).unwrap();
    assert!(engine.drain(Duration::from_secs(60)), "engine must drain");
    let got = read_counts(&engine, &events);
    let stats = engine.shutdown();
    assert_eq!(got, expected, "join + split + combine must stay exact");
    assert_eq!(stats.dropped_overflow, 0);
    assert_eq!(stats.lost_machine_failure + stats.lost_in_queues, 0);
}

#[test]
fn combine_off_is_unchanged_and_exact() {
    let events = zipf_events(100, 1.0, 4000, 41);
    let expected = expected_counts(&events);
    let engine = Engine::start(
        workflow(),
        OperatorSet::new().updater(CombiningCounter::named(COUNTER)),
        config(false, 0),
        None,
    )
    .unwrap();
    engine.submit_many(events.clone()).unwrap();
    assert!(engine.drain(Duration::from_secs(60)));
    let got = read_counts(&engine, &events);
    let stats = engine.shutdown();
    assert_eq!(got, expected);
    assert_eq!(stats.combined_events, 0, "no folding unless configured");
    assert_eq!(stats.processed, 4000, "one update per event");
    assert_eq!(stats.split_keys_active, 0);
    assert_eq!(stats.split_merge_reads, 0);
}

/// A key a remote sender folds down must still look hot to its owner
/// under Muppet 1.0: the carrier's absorbed count is credited to the
/// owning engine's sketch when the carrier is delivered.
#[test]
fn remote_folds_reach_the_owners_sketch_under_muppet_1() {
    const BURST: u64 = 400;
    let topology = Topology::loopback_ephemeral(2, false).unwrap();
    let start = |local: usize| {
        let cfg = EngineConfig {
            kind: EngineKind::Muppet1,
            transport: TransportKind::Tcp { topology: topology.clone(), local },
            latency_sample_n: 1,
            ..config(true, 0)
        };
        Engine::start(
            workflow(),
            OperatorSet::new().updater(CombiningCounter::named(COUNTER)),
            cfg,
            None,
        )
        .unwrap()
    };
    let (sender, owner) = (start(0), start(1));
    let key = (0..)
        .map(|i| Key::from(format!("hot-{i}")))
        .find(|key| sender.owner_machine(COUNTER, key) == Some(1))
        .unwrap();
    let burst = (0..BURST).map(|ts| Event::new(ZIPF_STREAM, ts, key.clone(), &b"1"[..])).collect();
    sender.submit_many(burst).unwrap();
    // Frames between the two sockets are in neither node's drain count:
    // wait for the total itself.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let total = || owner.read_slate(COUNTER, &key).map(|b| String::from_utf8(b).unwrap());
    while total() != Some(BURST.to_string()) {
        assert!(std::time::Instant::now() < deadline, "the burst never arrived: {:?}", total());
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(sender.stats().combined_events > 0, "the outbox must have folded the burst");
    let (_, hottest, count, _) = owner.hot_keys(1).remove(0);
    assert_eq!(hottest, key);
    assert!(count >= BURST, "the owner's sketch saw {count} of {BURST} events");
    sender.shutdown();
    owner.shutdown();
}

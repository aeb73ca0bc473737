//! The write-behind store pipeline end to end (DESIGN.md §9): a flush of
//! N dirty slates over the TCP store backend must cost O(N / flush_batch_max)
//! wire round trips, batched flushes must leave the store bit-identical
//! to per-slate flushes, and single-flight miss reads must return the
//! same values as naive per-miss reads.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use common::{HostStore, StoreMap};
use muppet::net::topology::Topology;
use muppet::net::transport::{ClusterHandler, Transport};
use muppet::net::TcpTransport;
use muppet::prelude::*;
use muppet::runtime::cache::{SlateBackend, SlateCache};
use muppet::runtime::netstore::RemoteBackend;
use muppet::slatestore::util::TempDir;
use muppet_core::workflow::OpId;

/// A cache on node 1 whose backend is the store service hosted on node 0,
/// reached over real TCP sockets.
fn remote_cache_pair(
    flush_batch_max: usize,
) -> (
    Arc<HostStore>,
    Arc<TcpTransport>,
    Arc<TcpTransport>,
    muppet::net::TcpListenerHandle,
    SlateCache,
) {
    let topology = Topology::loopback_ephemeral(2, false).expect("reserve ports");
    let (store, host, listener) = common::serve_store(&topology);
    let client = TcpTransport::new(topology, 1).unwrap();
    let client_handler = Arc::new(HostStore::default());
    client.register(Arc::downgrade(&client_handler) as Weak<dyn ClusterHandler>);
    std::mem::forget(client_handler); // keep the Weak alive for the test
    let backend = RemoteBackend::new(Arc::clone(&client) as Arc<dyn Transport>, 0);
    let cache = SlateCache::with_shards(100_000, FlushPolicy::IntervalMs(50), Arc::new(backend), 8)
        .with_flush_batch(flush_batch_max);
    (store, host, client, listener, cache)
}

fn dirty_n(cache: &SlateCache, op: OpId, n: usize) {
    let name: Arc<str> = Arc::from("U1");
    for i in 0..n {
        let slot = cache.get_or_load(op, &name, &Key::from(format!("key-{i}")), None, i as u64);
        let mut state = slot.state.lock();
        state.slate.replace(format!("value-{i}").into_bytes());
        cache.note_write(&slot, &mut state, i as u64);
    }
}

#[test]
fn tcp_flush_round_trips_scale_with_the_batch_cap_not_the_dirty_set() {
    const N: usize = 200;
    const BATCH: usize = 32;
    let (store, _host, client, _listener, cache) = remote_cache_pair(BATCH);
    dirty_n(&cache, 0, N);
    assert_eq!(cache.dirty_count(), N as u64);

    let frames_before = client.stats().frames_sent.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(cache.flush_dirty(1_000), N as u64, "every dirty slate written");
    let frames =
        client.stats().frames_sent.load(std::sync::atomic::Ordering::Relaxed) - frames_before;

    // The acceptance criterion: N dirty slates at flush_batch_max = B
    // cost ⌈N/B⌉ store round trips, not N.
    let expected = (N as u64).div_ceil(BATCH as u64);
    assert_eq!(frames, expected, "one wire frame per flush batch (⌈{N}/{BATCH}⌉ = {expected})");
    assert_eq!(store.batch_sizes.lock().len() as u64, expected, "the host saw batched calls only");
    assert_eq!(cache.dirty_count(), 0);
    let stats = cache.stats();
    assert_eq!(stats.flush_batches, expected);
    assert_eq!(stats.store_round_trips, expected + N as u64, "N miss loads + the flush batches");

    // Everything written is bit-exact, readable through the single and
    // batched read paths alike.
    for i in 0..N {
        assert_eq!(
            store.data.lock().get(&("U1".to_string(), format!("key-{i}").into_bytes())),
            Some(&format!("value-{i}").into_bytes())
        );
    }
    let gets: Vec<(Arc<str>, Key)> =
        (0..N).map(|i| ("U1".into(), Key::from(format!("key-{i}")))).collect();
    let values = client.store_get_many(0, &gets, 2_000).unwrap();
    for (i, v) in values.iter().enumerate() {
        assert_eq!(v.as_deref(), Some(format!("value-{i}").as_bytes()), "batched read of key-{i}");
    }
}

#[test]
fn per_slate_and_batched_tcp_flushes_leave_identical_store_contents() {
    let run = |batch: usize| -> StoreMap {
        let (store, _host, _client, _listener, cache) = remote_cache_pair(batch);
        dirty_n(&cache, 0, 64);
        assert_eq!(cache.flush_dirty(500), 64);
        assert_eq!(store.batch_sizes.lock().len(), 64 / batch, "one frame per flush batch");
        let contents = store.data.lock().clone();
        contents
    };
    let per_slate = run(1);
    let batched = run(64);
    assert_eq!(per_slate.len(), 64);
    assert_eq!(per_slate, batched, "batched flush ≡ per-slate flush, bit for bit");
}

#[test]
fn single_flight_reads_return_the_same_values_as_naive_reads() {
    // Persist a value set, then read it back two ways over TCP: a fresh
    // cache per key (naive: every miss loads) vs one shared cache hit by
    // 8 threads per key (single-flight: concurrent misses coalesce).
    let (store, _host, client, _listener, cache) = remote_cache_pair(16);
    let name: Arc<str> = Arc::from("U1");
    for i in 0..16 {
        store.data.lock().insert(
            ("U1".to_string(), format!("key-{i}").into_bytes()),
            format!("stored-{i}").into_bytes(),
        );
    }
    let backend = RemoteBackend::new(Arc::clone(&client) as Arc<dyn Transport>, 0);
    let naive: Vec<Option<Vec<u8>>> = (0..16)
        .map(|i| SlateBackend::load(&backend, "U1", &Key::from(format!("key-{i}")), 0))
        .collect();

    let cache = Arc::new(cache);
    for (i, expected) in naive.iter().enumerate() {
        // Released together, so the misses overlap even on a loaded box.
        let start = Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let name = Arc::clone(&name);
                let key = Key::from(format!("key-{i}"));
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    cache.get_or_load(0, &name, &key, None, 1)
                })
            })
            .collect();
        for t in threads {
            let slot = t.join().unwrap();
            let state = slot.state.lock();
            assert_eq!(
                &Some(state.slate.bytes().to_vec()),
                expected,
                "single-flight read of key-{i} must equal the naive read"
            );
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, 16, "one leader load per key");
    assert!(
        stats.miss_coalesced > 0,
        "some of the 8×16 concurrent misses must have coalesced: {stats:?}"
    );
    assert_eq!(stats.store_loads, 16);
}

/// The engine-level contract: a TCP-backed engine with batching enabled
/// processes a keyed counting workload exactly, and its background
/// flusher reaches the remote store in batches.
#[test]
fn engine_over_tcp_store_host_flushes_in_batches_and_counts_exactly() {
    struct CountUpdater;
    impl Updater for CountUpdater {
        fn name(&self) -> &str {
            "counter"
        }
        fn update(&self, _ctx: &mut dyn Emitter, _event: &Event, slate: &mut Slate) {
            slate.incr_counter(1);
        }
    }
    let mut b = Workflow::builder("store-pipe");
    b.external_stream("S1");
    b.updater("counter", &["S1"]);
    let wf = b.build().unwrap();

    let topology = Topology::loopback_ephemeral(2, false).expect("reserve ports");
    let dir = TempDir::new("store-pipeline").unwrap();
    let store = Arc::new(
        StoreCluster::open(
            dir.path(),
            StoreConfig { nodes: 1, replication: 1, ..Default::default() },
        )
        .unwrap(),
    );
    let mk = |local: usize, store: Option<Arc<StoreCluster>>| {
        let cfg = EngineConfig {
            machines: 2,
            workers_per_machine: 2,
            transport: TransportKind::Tcp { topology: topology.clone(), local },
            store_host: Some(0),
            flush: FlushPolicy::IntervalMs(20),
            ..EngineConfig::default()
        };
        Engine::start(wf.clone(), OperatorSet::new().updater(CountUpdater), cfg, store).unwrap()
    };
    let host = mk(0, Some(Arc::clone(&store)));
    let worker = mk(1, None);

    for i in 0..600 {
        host.submit(Event::new("S1", i, Key::from(format!("k{}", i % 50)), b"x".to_vec())).unwrap();
    }
    assert!(host.drain(Duration::from_secs(60)), "ingest node drained");
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let processed = host.stats().processed + worker.stats().processed;
        if processed == 600 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "only {processed}/600 processed");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Exactness: the 50 keys hold exactly 600 counts between them.
    let total: u64 = (0..50)
        .map(|i| {
            let key = Key::from(format!("k{i}"));
            let bytes = host
                .read_slate("counter", &key)
                .or_else(|| worker.read_slate("counter", &key))
                .unwrap_or_default();
            String::from_utf8_lossy(&bytes).trim().parse::<u64>().unwrap_or(0)
        })
        .sum();
    assert_eq!(total, 600, "batched write-behind must not change the counts");
    // Let the interval flusher run, then verify remote flushes batched:
    // the worker node's cache flushed over the wire with > 1 slate per
    // round trip (50 hot keys per tick under the default batch cap).
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while worker.stats().cache.flush_batches == 0 {
        assert!(std::time::Instant::now() < deadline, "worker flusher never ticked");
        std::thread::sleep(Duration::from_millis(20));
    }
    let wstats = worker.stats();
    assert!(
        wstats.cache.flush_batch_largest > 1,
        "remote flushes must coalesce (largest batch {})",
        wstats.cache.flush_batch_largest
    );
    let wflushed = wstats.cache.flush_writes;
    assert!(
        wstats.cache.flush_batches < wflushed,
        "fewer store round trips than slates flushed ({} batches / {} writes)",
        wstats.cache.flush_batches,
        wflushed
    );
    worker.shutdown();
    host.shutdown();
}

/// Deferred eviction and batched miss loads end to end: 256 distinct cold
/// keys through a cache of 32 slates. Batch sizes are pinned by parking the updater on a gate
/// until all four 64-event frames are queued, so the worker drains them
/// as four full batches and never goes idle in between.
#[test]
fn evicted_slates_reach_the_store_in_batches_only() {
    const HOLD: &str = "hold-";
    #[derive(Default)]
    struct Gate {
        entered: AtomicBool,
        open: AtomicBool,
    }
    struct GatedCounter(Arc<Gate>);
    impl Updater for GatedCounter {
        fn name(&self) -> &str {
            "counter"
        }
        fn update(&self, _ctx: &mut dyn Emitter, event: &Event, slate: &mut Slate) {
            if event.key.as_bytes().starts_with(HOLD.as_bytes()) {
                self.0.entered.store(true, Ordering::Release);
                while !self.0.open.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            slate.incr_counter(1);
        }
    }
    let mut b = Workflow::builder("evict-pipe");
    b.external_stream("S1");
    b.updater("counter", &["S1"]);
    let wf = b.build().unwrap();

    // Machine 0 is a bare counting store host; the engine is machine 1 and
    // only ever sees keys it owns.
    let topology = Topology::loopback_ephemeral(2, false).expect("reserve ports");
    let (store, _host, _listener) = common::serve_store(&topology);
    let gate = Arc::new(Gate::default());
    let cfg = EngineConfig {
        kind: EngineKind::Muppet2,
        machines: 2,
        workers_per_machine: 1,
        transport: TransportKind::Tcp { topology, local: 1 },
        store_host: Some(0),
        slate_cache_capacity: 32,
        cache_shards: 1,
        flush: FlushPolicy::OnEvict,
        ..EngineConfig::default()
    };
    let ops = OperatorSet::new().updater(GatedCounter(Arc::clone(&gate)));
    let engine = Engine::start(wf.clone(), ops, cfg, None).unwrap();
    let hold =
        Event::new("S1", 0, common::keys_owned_by(&engine, "counter", 1, HOLD, 1).remove(0), "e");
    let keys = common::keys_owned_by(&engine, "counter", 1, "cold-", 256);
    let events: Vec<Event> =
        keys.iter().enumerate().map(|(i, k)| Event::new("S1", i as u64, k.clone(), "e")).collect();

    engine.submit(hold.clone()).unwrap();
    while !gate.entered.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(1));
    }
    for frame in events.chunks(64) {
        engine.submit_many(frame.to_vec()).unwrap();
    }
    gate.open.store(true, Ordering::Release);
    assert!(engine.drain(Duration::from_secs(60)), "engine drained");

    // 257 slates through 32 slots: 225 evictions, written back in batched
    // StorePut frames (the bound retires 32 at a time; the idle worker
    // retires the remainder), never one frame per victim.
    let stats = engine.stats();
    assert_eq!(stats.processed, 257);
    assert_eq!(stats.cache.evictions, 225, "{:?}", stats.cache);
    assert_eq!(stats.cache.evict_backlog, 0, "an idle worker leaves no backlog");
    let sizes = store.batch_sizes.lock().clone();
    assert_eq!(sizes.iter().sum::<usize>(), 225, "every evicted slate was written once");
    assert!(sizes.len() <= 16, "225 evictions in {} write calls: {sizes:?}", sizes.len());
    assert_eq!(stats.cache.flush_batches, sizes.len() as u64);
    // And the loads: each of the four full batches fetched a backlog's
    // worth of its cold keys (32) in one StoreGet frame; the other 129
    // misses were lone ones, each a frame of one.
    let loads = store.load_batch_sizes.lock().clone();
    let batched: Vec<usize> = loads.iter().copied().filter(|&n| n >= 2).collect();
    assert_eq!(batched, vec![32; 4]);
    assert_eq!(loads.iter().filter(|&&n| n == 1).count(), 257 - 4 * 32);

    // Per-key totals equal the reference executor's.
    let mut exec = ReferenceExecutor::new(&wf);
    exec.register_updater(GatedCounter(gate));
    exec.push_external("S1", hold);
    exec.push_external_batch("S1", events);
    exec.run_to_completion().unwrap();
    engine.shutdown();
    assert_eq!(exec.slate_count(), 257);
    let stored = store.data.lock();
    for (key, slate) in exec.slates_of("counter") {
        let got = stored.get(&("counter".to_string(), key.as_bytes().to_vec()));
        assert_eq!(got.map(Vec::as_slice), Some(slate.bytes()), "{key:?}");
    }
}

/// A single-slate write the store host refused is not acked as written:
/// the per-item ack crosses the wire for a run of one as for any other, so
/// `RemoteBackend::store` reports it and a write-through slate stays dirty
/// for a later flush to retry.
#[test]
fn a_refused_single_slate_write_over_tcp_leaves_the_slate_dirty() {
    let topology = Topology::loopback_ephemeral(2, false).expect("reserve ports");
    let (store, _host, _listener) = common::serve_store(&topology);
    let client = TcpTransport::new(topology, 1).unwrap();
    let client_handler = Arc::new(HostStore::default());
    client.register(Arc::downgrade(&client_handler) as Weak<dyn ClusterHandler>);
    let backend = Arc::new(RemoteBackend::new(Arc::clone(&client) as Arc<dyn Transport>, 0));
    let key = Key::from("k");

    store.refuse.store(true, Ordering::Release);
    assert!(!backend.store("U1", &key, b"1", muppet_core::Codec::Json, None, 1));
    let cache = SlateCache::new(16, FlushPolicy::WriteThrough, backend.clone());
    let write = |value: &[u8], now: u64| {
        let slot = cache.get_or_load(0, &Arc::from("U1"), &key, None, now);
        let mut state = slot.state.lock();
        state.slate.replace(value.to_vec());
        cache.note_write(&slot, &mut state, now);
        drop(state);
        cache.write_through(&slot, now);
    };
    write(b"2", 2);
    assert_eq!(cache.dirty_count(), 1, "the refused write-through is still owed");
    assert!(store.data.lock().is_empty());

    store.refuse.store(false, Ordering::Release);
    assert!(backend.store("U1", &Key::from("other"), b"1", muppet_core::Codec::Json, None, 3));
    write(b"3", 3);
    assert_eq!(cache.dirty_count(), 0);
    assert_eq!(backend.load("U1", &key, 4), Some(b"3".to_vec()));
}

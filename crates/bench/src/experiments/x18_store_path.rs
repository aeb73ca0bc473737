//! X18 — the write-behind store path: what the dirty index, batched
//! store frames, and WAL group commit each buy.
//!
//! §4.2: "Muppet periodically flushes dirty slates" — but the *shape* of
//! that flush decides whether the store keeps up with the firehose. The
//! seed path scanned the whole cache per sweep and paid one synchronous
//! backend call per dirty slate (over TCP: one wire round trip; on a
//! durable WAL: one fsync per record). This experiment peels those taxes
//! off one at a time on an identical cache population (M resident
//! slates, D of them dirty per tick):
//!
//! * `per-slate-scan`   — the seed shape: walk every cached slate, flush
//!   the dirty ones with one backend call each;
//! * `dirty-index`      — sweep only the per-shard dirty index, still one
//!   backend call per slate (`flush_batch_max = 1`);
//! * `+batched-calls`   — the dirty index plus `FlushBatch`es:
//!   ⌈D/flush_batch_max⌉ `store_many` calls per sweep (over TCP these
//!   are `StorePut` frames — one wire round trip per batch);
//! * `+group-commit`    — the store side: the same D cells written
//!   through `put_many` on a `wal_sync_each` cluster, one fsync per
//!   node-batch instead of one per record;
//! * `evict`            — the eviction write-back: a full, all-dirty
//!   cache takes cold touches in runs of 64 with a retire after each run,
//!   against a 3-replica `wal_sync_each` cluster. Per slate
//!   (`flush_batch_max = 1`: every miss retires its one victim inline —
//!   what eviction cost before it was deferred) vs batched (one
//!   `store_many` and one fsync per replica per run).
//!
//! Both an in-process cluster backend and a TCP-loopback `RemoteBackend`
//! (real `StorePut` frames against a store-hosting peer) are
//! measured. CI gates on the deterministic round-trip / fsync counts,
//! not wall time; the committed full-scale numbers live in
//! `BENCH_x18.json`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use muppet_core::event::Key;
use muppet_core::json::Json;
use muppet_core::Codec;
use muppet_net::topology::Topology;
use muppet_net::transport::{ClusterHandler, MachineId, NetError, Transport};
use muppet_net::{StorePutItem, TcpTransport, WireEvent};
use muppet_runtime::cache::{FlushItem, FlushPolicy, SlateBackend, SlateCache};
use muppet_runtime::netstore::RemoteBackend;
use muppet_slatestore::cluster::{StoreCluster, StoreConfig};

use crate::table::Table;
use crate::Scale;

const FLUSH_BATCH: usize = 256;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("muppet-x18-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create x18 temp dir");
    dir
}

/// Build a cache over `backend`, resident-populate `m` slates and dirty
/// the first `d` of them (one write each).
fn populate(backend: Arc<dyn SlateBackend>, m: usize, d: usize, batch: usize) -> SlateCache {
    let cache = SlateCache::with_shards(m * 2, FlushPolicy::IntervalMs(1_000), backend, 8)
        .with_flush_batch(batch);
    let name: Arc<str> = Arc::from("U1");
    for i in 0..m {
        let slot = cache.get_or_load(0, &name, &Key::from(format!("k{i}")), None, 0);
        if i < d {
            let mut state = slot.state.lock();
            state.slate.replace(format!("value-{i}").into_bytes());
            cache.note_write(&slot, &mut state, 0);
        }
    }
    cache
}

struct Outcome {
    elapsed: Duration,
    written: u64,
    /// Backend calls (in-process) or wire frames (TCP) the flush cost.
    round_trips: u64,
}

/// The seed flush shape: walk EVERY cached slate and flush the dirty
/// ones one backend call at a time.
fn flush_by_scan(cache: &SlateCache) -> Outcome {
    let name: Arc<str> = Arc::from("U1");
    let trips0 = cache.stats().store_round_trips;
    let t0 = Instant::now();
    let mut written = 0u64;
    for key in cache.keys_of(0) {
        let slot = cache.get_or_load(0, &name, &key, None, 1);
        let dirty = slot.state.lock().dirty();
        if cache.flush_slot_now(&slot, 1) && dirty {
            written += 1;
        }
    }
    Outcome {
        elapsed: t0.elapsed(),
        written,
        round_trips: cache.stats().store_round_trips - trips0,
    }
}

/// The write-behind sweep: drain the dirty index in `FlushBatch`es.
fn flush_by_sweep(cache: &SlateCache) -> Outcome {
    let trips0 = cache.stats().store_round_trips;
    let t0 = Instant::now();
    let written = cache.flush_dirty(1);
    Outcome {
        elapsed: t0.elapsed(),
        written,
        round_trips: cache.stats().store_round_trips - trips0,
    }
}

/// The store host behind the TCP arms: serves the store frames from a
/// real LSM cluster.
struct HostedStore(Arc<StoreCluster>);

impl ClusterHandler for HostedStore {
    fn deliver_event(&self, dest: MachineId, _ev: WireEvent) -> Result<(), NetError> {
        Err(NetError::NoRoute(dest))
    }
    fn handle_failure_report(&self, _f: MachineId, _epoch: u64) {}
    fn handle_failure_broadcast(&self, _f: MachineId, _epoch: u64) {}
    fn read_local_slate(&self, _d: MachineId, _u: &str, _k: &[u8]) -> Option<Vec<u8>> {
        None
    }
    fn backend_load(&self, u: &str, k: &[u8], now: u64) -> Option<Vec<u8>> {
        SlateBackend::load(&*self.0, u, &Key::from(k), now)
    }
    fn backend_store_many(&self, items: &[StorePutItem], now: u64) -> Vec<bool> {
        let flush: Vec<muppet_runtime::cache::FlushItem> = items
            .iter()
            .map(|item| muppet_runtime::cache::FlushItem {
                updater: Arc::from(item.updater.as_str()),
                key: Key::from(item.key.as_slice()),
                bytes: item.value.clone(),
                ttl_secs: item.ttl_secs,
                codec: item.codec,
            })
            .collect();
        SlateBackend::store_many(&*self.0, &flush, now)
    }
}

/// Dummy handler for the client side of the wire.
struct NoopHandler;

impl ClusterHandler for NoopHandler {
    fn deliver_event(&self, dest: MachineId, _ev: WireEvent) -> Result<(), NetError> {
        Err(NetError::NoRoute(dest))
    }
    fn handle_failure_report(&self, _f: MachineId, _epoch: u64) {}
    fn handle_failure_broadcast(&self, _f: MachineId, _epoch: u64) {}
    fn read_local_slate(&self, _d: MachineId, _u: &str, _k: &[u8]) -> Option<Vec<u8>> {
        None
    }
}

/// One TCP-loopback arm: a cache on node 1 flushing D dirty slates to the
/// store service on node 0, `flush_batch_max = batch`. Returns the
/// outcome measured in *wire frames*.
fn run_tcp_arm(m: usize, d: usize, batch: usize, tag: &str) -> Outcome {
    let dir = temp_dir(tag);
    let store = Arc::new(
        StoreCluster::open(&dir, StoreConfig { nodes: 1, replication: 1, ..Default::default() })
            .expect("open store"),
    );
    let topology = Topology::loopback_ephemeral(2, false).expect("reserve ports");
    let host = TcpTransport::new(topology.clone(), 0).unwrap();
    let client = TcpTransport::new(topology, 1).unwrap();
    let hosted = Arc::new(HostedStore(store));
    let noop = Arc::new(NoopHandler);
    host.register(Arc::downgrade(&hosted) as Weak<dyn ClusterHandler>);
    client.register(Arc::downgrade(&noop) as Weak<dyn ClusterHandler>);
    let _listener = host.start_listener().unwrap();
    let backend = Arc::new(RemoteBackend::new(Arc::clone(&client) as Arc<dyn Transport>, 0));
    let cache = populate(backend, m, d, batch);
    let frames0 = client.stats().frames_sent.load(std::sync::atomic::Ordering::Relaxed);
    let t0 = Instant::now();
    let written = cache.flush_dirty(1);
    let frames = client.stats().frames_sent.load(std::sync::atomic::Ordering::Relaxed) - frames0;
    let out = Outcome { elapsed: t0.elapsed(), written, round_trips: frames };
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The group-commit arm pair: write D cells through a `wal_sync_each`
/// cluster per-record vs via one `put_many`. Returns
/// (elapsed, fsyncs) per mode.
fn run_group_commit(d: usize) -> ((Duration, u64), (Duration, u64)) {
    let values: Vec<(Key, Vec<u8>)> =
        (0..d).map(|i| (Key::from(format!("k{i}")), format!("value-{i}").into_bytes())).collect();
    let durable = StoreConfig {
        nodes: 1,
        replication: 1,
        wal_sync_each: true,
        compress_values: false,
        ..Default::default()
    };
    // Per-record fsync.
    let dir = temp_dir("wal-each");
    let store = StoreCluster::open(&dir, durable.clone()).expect("open store");
    let t0 = Instant::now();
    for (key, value) in &values {
        SlateBackend::store(&store, "U1", key, value, Codec::Json, None, 1);
    }
    let per_record = (t0.elapsed(), store.wal_sync_count());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    // Group commit.
    let dir = temp_dir("wal-group");
    let store = StoreCluster::open(&dir, durable).expect("open store");
    let items: Vec<(muppet_slatestore::types::CellKey, &[u8], Codec, Option<u64>)> = values
        .iter()
        .map(|(key, value)| {
            (
                muppet_slatestore::types::CellKey::new(key.as_bytes(), "U1"),
                value.as_slice(),
                Codec::Json,
                None,
            )
        })
        .collect();
    let t0 = Instant::now();
    let results = store.put_many(&items, 1);
    assert!(results.iter().all(|r| r.is_ok()), "group commit writes must land");
    let grouped = (t0.elapsed(), store.wal_sync_count());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    (per_record, grouped)
}

/// Counts the write *calls* a cache issues to the cluster behind it.
struct CountingStore {
    inner: StoreCluster,
    write_calls: AtomicU64,
}

impl SlateBackend for CountingStore {
    fn load(&self, updater: &str, key: &Key, now: u64) -> Option<Vec<u8>> {
        self.inner.load(updater, key, now)
    }
    fn store(&self, u: &str, k: &Key, v: &[u8], c: Codec, ttl: Option<u64>, now: u64) -> bool {
        self.write_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.store(u, k, v, c, ttl, now)
    }
    fn store_many(&self, items: &[FlushItem], now: u64) -> Vec<bool> {
        self.write_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.store_many(items, now)
    }
}

const EVICT_RUN: usize = 64;

struct EvictOutcome {
    elapsed: Duration,
    write_calls: u64,
    fsyncs: u64,
    /// Every key's bytes at rest after the final barrier.
    contents: Vec<Option<Vec<u8>>>,
}

/// The eviction arm: fill a single-shard cache with `resident` dirty
/// slates, then take `runs` × 64 cold touches with a retire after each
/// run (the worker going idle), and count what the evictions cost the
/// store.
fn run_evict_arm(resident: usize, runs: usize, flush_batch: usize, tag: &str) -> EvictOutcome {
    let dir = temp_dir(tag);
    let cfg = StoreConfig { wal_sync_each: true, compress_values: false, ..Default::default() };
    let store = Arc::new(CountingStore {
        inner: StoreCluster::open(&dir, cfg).expect("open store"),
        write_calls: AtomicU64::new(0),
    });
    let cache = SlateCache::new(resident, FlushPolicy::OnEvict, Arc::clone(&store) as _)
        .with_flush_batch(flush_batch);
    let name: Arc<str> = Arc::from("U1");
    let keys: Vec<Key> =
        (0..resident + runs * EVICT_RUN).map(|i| Key::from(format!("k{i}"))).collect();
    let touch = |key: &Key| {
        let slot = cache.get_or_load(0, &name, key, None, 1);
        let mut state = slot.state.lock();
        state.slate.replace(format!("value-{key:?}").into_bytes());
        cache.note_write(&slot, &mut state, 1);
    };
    keys[..resident].iter().for_each(touch);
    let t0 = Instant::now();
    for run in keys[resident..].chunks(EVICT_RUN) {
        run.iter().for_each(touch);
        cache.retire_evicted(1);
    }
    let elapsed = t0.elapsed();
    let write_calls = store.write_calls.load(Ordering::Relaxed);
    let fsyncs = store.inner.wal_sync_count();
    assert_eq!(cache.stats().evictions, (runs * EVICT_RUN) as u64, "one eviction per cold touch");
    cache.flush_dirty(2); // the residents, so both arms rest on the same cells
    let contents = keys.iter().map(|key| store.load("U1", key, 3)).collect();
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
    EvictOutcome { elapsed, write_calls, fsyncs, contents }
}

fn evict_json(name: &str, o: &EvictOutcome) -> Json {
    Json::obj([
        ("arm", Json::str(name)),
        ("wall_ms", Json::num(o.elapsed.as_secs_f64() * 1e3)),
        ("store_write_calls", Json::num(o.write_calls as f64)),
        ("wal_fsyncs", Json::num(o.fsyncs as f64)),
    ])
}

fn arm_json(name: &str, d: usize, o: &Outcome) -> Json {
    Json::obj([
        ("arm", Json::str(name)),
        ("dirty_slates", Json::num(d as f64)),
        ("written", Json::num(o.written as f64)),
        ("wall_ms", Json::num(o.elapsed.as_secs_f64() * 1e3)),
        ("round_trips", Json::num(o.round_trips as f64)),
        ("slates_per_sec", Json::num(o.written as f64 / o.elapsed.as_secs_f64().max(1e-9))),
    ])
}

/// Run the experiment.
pub fn run(scale: Scale) {
    super::banner(
        "X18",
        "the write-behind store path: dirty index, batched frames, group commit",
        "§4.2 periodic dirty-slate flush; DESIGN.md §9",
    );
    let m = scale.events(100_000); // resident slates
    let d = (m / 10).max(64); // dirty per tick

    // --- in-process arms over a real single-node LSM cluster ---
    let run_inproc = |batch: usize, tag: &str, by_scan: bool| -> Outcome {
        let dir = temp_dir(tag);
        let store = Arc::new(
            StoreCluster::open(
                &dir,
                StoreConfig { nodes: 1, replication: 1, ..Default::default() },
            )
            .expect("open store"),
        );
        let cache = populate(Arc::clone(&store) as Arc<dyn SlateBackend>, m, d, batch);
        let out = if by_scan { flush_by_scan(&cache) } else { flush_by_sweep(&cache) };
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
        out
    };
    let scan = run_inproc(1, "scan", true);
    let index = run_inproc(1, "index", false);
    let batched = run_inproc(FLUSH_BATCH, "batched", false);

    // --- TCP-loopback arms: real StorePut frames, of one slate and of a batch ---
    let tcp_per_slate = run_tcp_arm(m, d, 1, "tcp-1");
    let tcp_batched = run_tcp_arm(m, d, FLUSH_BATCH, "tcp-b");

    // --- WAL group commit under wal_sync_each ---
    let ((each_wall, each_syncs), (group_wall, group_syncs)) = run_group_commit(d);

    // --- eviction write-back: per slate vs one batch per run ---
    let evict_resident = scale.events(1024);
    let evict_runs = scale.events(6400) / 100;
    let evictions = (evict_runs * EVICT_RUN) as u64;
    let evict_each = run_evict_arm(evict_resident, evict_runs, 1, "evict-1");
    let evict_batched = run_evict_arm(evict_resident, evict_runs, FLUSH_BATCH, "evict-b");

    let mut table = Table::new(["arm", "dirty", "written", "wall time", "round trips / fsyncs"]);
    let mut row = |name: &str, o: &Outcome| {
        table.row([
            name.to_string(),
            d.to_string(),
            o.written.to_string(),
            format!("{:.2?}", o.elapsed),
            o.round_trips.to_string(),
        ]);
    };
    row("per-slate-scan (in-proc)", &scan);
    row("dirty-index (in-proc)", &index);
    row("+batched-calls (in-proc)", &batched);
    row("tcp per-slate frames", &tcp_per_slate);
    row("tcp batched frames", &tcp_batched);
    table.row([
        "wal per-record fsync".into(),
        d.to_string(),
        d.to_string(),
        format!("{each_wall:.2?}"),
        each_syncs.to_string(),
    ]);
    table.row([
        "wal group commit".into(),
        d.to_string(),
        d.to_string(),
        format!("{group_wall:.2?}"),
        group_syncs.to_string(),
    ]);
    for (name, o) in [("evict per-slate", &evict_each), ("evict batched", &evict_batched)] {
        table.row([
            name.into(),
            evictions.to_string(),
            evictions.to_string(),
            format!("{:.2?}", o.elapsed),
            format!("{} / {}", o.write_calls, o.fsyncs),
        ]);
    }
    table.print();

    let expected_batches = (d as u64).div_ceil(FLUSH_BATCH as u64);
    println!(
        "\nshape check: a tick of {d} dirty slates among {m} resident cost the seed shape a \
         {m}-slate scan + {} backend calls; the dirty index visits only the dirty set; batching \
         folds the backend traffic to {} calls (over TCP: {} frames instead of {}); group commit \
         cut {} WAL fsyncs to {}",
        scan.round_trips,
        batched.round_trips,
        tcp_batched.round_trips,
        tcp_per_slate.round_trips,
        each_syncs,
        group_syncs,
    );

    // Deterministic CI gates (wall time is advisory on shared runners).
    assert_eq!(scan.written, d as u64, "the scan arm flushes every dirty slate");
    assert_eq!(index.written, d as u64);
    assert_eq!(batched.written, d as u64);
    assert_eq!(index.round_trips, d as u64, "batch cap 1 = one backend call per dirty slate");
    assert_eq!(batched.round_trips, expected_batches, "⌈D/{FLUSH_BATCH}⌉ batched backend calls");
    assert_eq!(tcp_per_slate.round_trips, d as u64, "unbatched TCP = one frame per slate");
    assert_eq!(
        tcp_batched.round_trips, expected_batches,
        "batched TCP = one StorePut frame per batch"
    );
    assert_eq!(each_syncs, d as u64, "sync_each without batching = one fsync per record");
    assert!(
        group_syncs <= (d as u64).div_ceil(StoreConfig::default().put_batch_max as u64) + 1,
        "group commit = one fsync per node-batch ({group_syncs} syncs for {d} records)"
    );

    let replicas = StoreConfig::default().replication as u64;
    assert_eq!(evict_each.write_calls, evictions, "per slate: one store call per victim");
    assert_eq!(evict_each.fsyncs, replicas * evictions, "and one fsync per replica per victim");
    assert_eq!(evict_batched.write_calls, evict_runs as u64, "batched: one store call per run");
    assert!(
        evict_batched.fsyncs <= replicas * evict_runs as u64,
        "and at most one fsync per replica per run ({} fsyncs)",
        evict_batched.fsyncs
    );
    assert!(
        evict_each.contents == evict_batched.contents
            && evict_each.contents.iter().all(Option::is_some),
        "both shapes must leave byte-identical store contents"
    );

    let doc = Json::obj([
        ("experiment", Json::str("x18")),
        ("workload", Json::str("M resident slates, D dirty per flush tick")),
        ("resident_slates", Json::num(m as f64)),
        ("dirty_per_tick", Json::num(d as f64)),
        ("flush_batch_max", Json::num(FLUSH_BATCH as f64)),
        (
            "arms",
            Json::arr([
                arm_json("per-slate-scan", d, &scan),
                arm_json("dirty-index", d, &index),
                arm_json("dirty-index+batched-calls", d, &batched),
                arm_json("tcp-per-slate-frames", d, &tcp_per_slate),
                arm_json("tcp-batched-frames", d, &tcp_batched),
            ]),
        ),
        (
            "wal_group_commit",
            Json::obj([
                ("per_record_fsyncs", Json::num(each_syncs as f64)),
                ("per_record_wall_ms", Json::num(each_wall.as_secs_f64() * 1e3)),
                ("group_fsyncs", Json::num(group_syncs as f64)),
                ("group_wall_ms", Json::num(group_wall.as_secs_f64() * 1e3)),
                ("fsync_reduction", Json::num(each_syncs as f64 / (group_syncs as f64).max(1.0))),
            ]),
        ),
        (
            "evict",
            Json::obj([
                ("resident_slates", Json::num(evict_resident as f64)),
                ("evictions", Json::num(evictions as f64)),
                ("run", Json::num(EVICT_RUN as f64)),
                (
                    "arms",
                    Json::arr([
                        evict_json("per-slate", &evict_each),
                        evict_json("batched", &evict_batched),
                    ]),
                ),
            ]),
        ),
        (
            "tcp_round_trip_reduction",
            Json::num(tcp_per_slate.round_trips as f64 / (tcp_batched.round_trips as f64).max(1.0)),
        ),
        (
            "tcp_batched_vs_per_slate_speedup",
            Json::num(
                tcp_per_slate.elapsed.as_secs_f64() / tcp_batched.elapsed.as_secs_f64().max(1e-9),
            ),
        ),
    ]);
    match std::fs::write("BENCH_x18.json", doc.to_pretty() + "\n") {
        Ok(()) => println!("\nwrote BENCH_x18.json"),
        Err(e) => eprintln!("could not write BENCH_x18.json: {e}"),
    }
}

//! End-to-end tests of the Muppet 1.0 and 2.0 engines against the
//! behaviours §4 of the paper specifies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use muppet_core::event::{Event, Key};
use muppet_core::operator::{Emitter, FnMapper, FnUpdater};
use muppet_core::slate::Slate;
use muppet_core::workflow::Workflow;
use muppet_runtime::cache::FlushPolicy;
use muppet_runtime::engine::{Engine, EngineConfig, EngineKind, OperatorSet, DRAIN_BATCH};
use muppet_runtime::http::{http_get, percent_encode, HttpSlateServer};
use muppet_runtime::overflow::OverflowPolicy;
use muppet_slatestore::cluster::{StoreCluster, StoreConfig};
use muppet_slatestore::types::CellKey;
use muppet_slatestore::util::TempDir;

/// Figure 1(b)'s counting workflow: S1 → M1 → S2 → U1.
fn count_workflow() -> Workflow {
    let mut b = Workflow::builder("count");
    b.external_stream("S1");
    b.mapper_publishing("M1", &["S1"], &["S2"]);
    b.updater("U1", &["S2"]);
    b.build().unwrap()
}

fn count_ops() -> OperatorSet {
    OperatorSet::new()
        .mapper(FnMapper::new("M1", |ctx: &mut dyn Emitter, ev: &Event| {
            ctx.publish("S2", ev.key.clone(), ev.value.to_vec());
        }))
        .updater(FnUpdater::new("U1", |_: &mut dyn Emitter, _: &Event, slate: &mut Slate| {
            slate.incr_counter(1);
        }))
}

fn small_config(kind: EngineKind) -> EngineConfig {
    EngineConfig {
        kind,
        machines: 2,
        workers_per_machine: 2,
        workers_per_op: 2,
        queue_capacity: 10_000,
        slate_cache_capacity: 10_000,
        flush: FlushPolicy::OnEvict,
        overflow: OverflowPolicy::DropAndLog,
        ..EngineConfig::default()
    }
}

fn submit_keys(engine: &Engine, keys: &[&str]) {
    for (i, k) in keys.iter().enumerate() {
        engine.submit(Event::new("S1", i as u64, Key::from(*k), "e")).unwrap();
    }
}

#[test]
fn hot_path_stats_surface_shards_and_drain_batches() {
    // The observability satellites: the sharded central cache and the
    // batch-drained queues report through EngineStats.
    let cfg = EngineConfig { cache_shards: 4, ..small_config(EngineKind::Muppet2) };
    let engine = Engine::start(count_workflow(), count_ops(), cfg, None).unwrap();
    submit_keys(&engine, &["a", "b", "a", "c", "a", "b"]);
    assert!(engine.drain(Duration::from_secs(10)));
    let stats = engine.stats();
    assert_eq!(stats.cache.shards, 8, "4 shards × 2 machines");
    assert!(stats.drain.drains > 0, "workers record their queue drains");
    assert!((1..=DRAIN_BATCH as u64).contains(&stats.drain.max), "batches bounded by DRAIN_BATCH");
    let per_shard = engine.cache_shard_stats();
    assert_eq!(per_shard.len(), 4, "shard-wise aggregation across machines");
    assert_eq!(per_shard.iter().map(|s| s.entries).sum::<u64>(), stats.cache.entries);
    // Batch draining must not change results: same counts as ever.
    assert_eq!(engine.read_slate("U1", &Key::from("a")), Some(b"3".to_vec()));
    engine.shutdown();
}

#[test]
fn muppet2_counts_correctly() {
    let engine =
        Engine::start(count_workflow(), count_ops(), small_config(EngineKind::Muppet2), None)
            .unwrap();
    let keys: Vec<String> = (0..500).map(|i| format!("k{}", i % 7)).collect();
    let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
    submit_keys(&engine, &refs);
    assert!(engine.drain(Duration::from_secs(10)), "must drain");
    for i in 0..7 {
        let bytes = engine.read_slate("U1", &Key::from(format!("k{i}"))).unwrap();
        let count: u64 = String::from_utf8(bytes).unwrap().parse().unwrap();
        let expected = (0..500).filter(|j| j % 7 == i).count() as u64;
        assert_eq!(count, expected, "key k{i}");
    }
    let stats = engine.shutdown();
    assert_eq!(stats.submitted, 500);
    assert_eq!(stats.processed, 1000, "500 map + 500 update");
    assert_eq!(stats.emitted, 500);
    assert_eq!(stats.dropped_overflow, 0);
    assert_eq!(stats.lost_machine_failure, 0);
    assert!(stats.latency.count >= 500);
}

#[test]
fn muppet1_counts_correctly() {
    let engine =
        Engine::start(count_workflow(), count_ops(), small_config(EngineKind::Muppet1), None)
            .unwrap();
    let keys: Vec<String> = (0..300).map(|i| format!("k{}", i % 5)).collect();
    let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
    submit_keys(&engine, &refs);
    assert!(engine.drain(Duration::from_secs(10)));
    for i in 0..5 {
        let bytes = engine.read_slate("U1", &Key::from(format!("k{i}"))).unwrap();
        let count: u64 = String::from_utf8(bytes).unwrap().parse().unwrap();
        assert_eq!(count, 60, "key k{i}");
    }
    engine.shutdown();
}

#[test]
fn unknown_operator_registration_fails() {
    match Engine::start(
        count_workflow(),
        OperatorSet::new(),
        small_config(EngineKind::Muppet2),
        None,
    ) {
        Err(err) => assert!(matches!(err, muppet_core::Error::UnknownOperator(_))),
        Ok(_) => panic!("starting without registered operators must fail"),
    }
}

#[test]
fn submit_to_internal_stream_is_rejected() {
    let engine =
        Engine::start(count_workflow(), count_ops(), small_config(EngineKind::Muppet2), None)
            .unwrap();
    let err = engine.submit(Event::new("S2", 1, Key::from("k"), "x")).unwrap_err();
    assert!(matches!(err, muppet_core::Error::ExternalStreamViolation(_)));
    engine.shutdown();
}

#[test]
fn slates_persist_to_store_and_reload() {
    let dir = TempDir::new("engine-store").unwrap();
    let store = Arc::new(StoreCluster::open(dir.path(), StoreConfig::default()).unwrap());
    let mut cfg = small_config(EngineKind::Muppet2);
    cfg.flush = FlushPolicy::WriteThrough;
    let engine =
        Engine::start(count_workflow(), count_ops(), cfg, Some(Arc::clone(&store))).unwrap();
    submit_keys(&engine, &["walmart", "walmart", "bestbuy"]);
    assert!(engine.drain(Duration::from_secs(10)));
    let final_now = engine.now_us();
    engine.shutdown();
    // The store has the final counters (write-through flushed them).
    let walmart = store.get(&CellKey::new("walmart", "U1"), final_now).unwrap().unwrap();
    assert_eq!(walmart.as_ref(), b"2");
    let bestbuy = store.get(&CellKey::new("bestbuy", "U1"), final_now).unwrap().unwrap();
    assert_eq!(bestbuy.as_ref(), b"1");

    // A fresh engine resumes the counters from the store (§4.2: persistent
    // slates help resuming/restarting).
    let mut cfg = small_config(EngineKind::Muppet2);
    cfg.flush = FlushPolicy::WriteThrough;
    let engine2 =
        Engine::start(count_workflow(), count_ops(), cfg, Some(Arc::clone(&store))).unwrap();
    submit_keys(&engine2, &["walmart"]);
    assert!(engine2.drain(Duration::from_secs(10)));
    let bytes = engine2.read_slate("U1", &Key::from("walmart")).unwrap();
    assert_eq!(bytes, b"3", "2 from the store + 1 new");
    engine2.shutdown();
}

#[test]
fn graceful_shutdown_flushes_interval_policy_dirty_slates() {
    let dir = TempDir::new("engine-flush").unwrap();
    let store = Arc::new(StoreCluster::open(dir.path(), StoreConfig::default()).unwrap());
    let mut cfg = small_config(EngineKind::Muppet2);
    cfg.flush = FlushPolicy::IntervalMs(60_000); // flusher won't fire during the test
    let engine =
        Engine::start(count_workflow(), count_ops(), cfg, Some(Arc::clone(&store))).unwrap();
    submit_keys(&engine, &["k", "k", "k"]);
    assert!(engine.drain(Duration::from_secs(10)));
    let now = engine.now_us();
    let stats = engine.shutdown();
    assert_eq!(stats.dirty_slates, 0, "graceful shutdown flushes everything");
    let stored = store.get(&CellKey::new("k", "U1"), now + 1).unwrap().unwrap();
    assert_eq!(stored.as_ref(), b"3");
}

/// Voluntary context switches of every `muppet-flusher-*` thread of this
/// process, by thread id.
#[cfg(target_os = "linux")]
fn flusher_switches() -> std::collections::HashMap<String, u64> {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap().flatten();
    let read = |task: &std::fs::DirEntry, file| std::fs::read_to_string(task.path().join(file));
    tasks
        .filter(|task| read(task, "comm").is_ok_and(|comm| comm.starts_with("muppet-flusher")))
        .filter_map(|task| {
            let status = read(&task, "status").ok()?;
            let line = status.lines().find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?;
            Some((task.file_name().to_string_lossy().into_owned(), line.trim().parse().ok()?))
        })
        .collect()
}

/// An idle interval flusher parks until its tick instead of polling the
/// stop flag: over one second of a 1 s interval it wakes about once.
#[cfg(target_os = "linux")]
#[test]
fn an_idle_interval_flusher_parks_until_its_tick() {
    let dir = TempDir::new("engine-idle-flusher").unwrap();
    let store = Arc::new(StoreCluster::open(dir.path(), StoreConfig::default()).unwrap());
    let cfg =
        EngineConfig { flush: FlushPolicy::IntervalMs(1_000), ..small_config(EngineKind::Muppet2) };
    let before = flusher_switches();
    let engine = Engine::start(count_workflow(), count_ops(), cfg, Some(store)).unwrap();
    // A thread names itself once it runs: wait for one flusher per machine.
    let deadline = Instant::now() + Duration::from_secs(5);
    let ours = loop {
        let new = flusher_switches().into_keys().filter(|tid| !before.contains_key(tid));
        let ours: Vec<String> = new.collect();
        if ours.len() >= 2 || Instant::now() > deadline {
            break ours;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let start = flusher_switches();
    std::thread::sleep(Duration::from_secs(1));
    let end = flusher_switches();
    // Threads of concurrently running tests may have come and gone.
    let woke: Vec<u64> =
        ours.iter().filter_map(|tid| Some(end.get(tid)? - start.get(tid)?)).collect();
    assert!(
        woke.len() >= 2 && woke.iter().all(|&n| n <= 5),
        "voluntary context switches per flusher in one idle second: {woke:?}"
    );
    engine.shutdown();
}

/// `shutdown` wakes a flusher parked on a long interval instead of waiting
/// it out.
#[test]
fn shutdown_does_not_wait_out_the_flush_interval() {
    let dir = TempDir::new("engine-long-flusher").unwrap();
    let store = Arc::new(StoreCluster::open(dir.path(), StoreConfig::default()).unwrap());
    let cfg = EngineConfig {
        flush: FlushPolicy::IntervalMs(60_000),
        ..small_config(EngineKind::Muppet2)
    };
    let engine = Engine::start(count_workflow(), count_ops(), cfg, Some(store)).unwrap();
    submit_keys(&engine, &["k", "k"]);
    std::thread::sleep(Duration::from_millis(50)); // the flushers are parked
    let started = Instant::now();
    let stats = engine.shutdown();
    assert!(started.elapsed() < Duration::from_secs(1), "shutdown took {:?}", started.elapsed());
    assert_eq!(stats.dirty_slates, 0);
}

#[test]
fn machine_crash_loses_bounded_events_and_reroutes() {
    let mut cfg = small_config(EngineKind::Muppet2);
    cfg.machines = 3;
    let engine = Engine::start(count_workflow(), count_ops(), cfg, None).unwrap();
    // Warm up.
    let warm: Vec<String> = (0..200).map(|i| format!("k{}", i % 20)).collect();
    submit_keys(&engine, &warm.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(engine.drain(Duration::from_secs(10)));
    assert!(!engine.failure_detected(1), "no failure reported yet");

    engine.kill_machine(1);
    // Keep submitting: sends to machine 1 fail, get reported, reroute.
    let after: Vec<String> = (0..200).map(|i| format!("k{}", i % 20)).collect();
    submit_keys(&engine, &after.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(engine.drain(Duration::from_secs(10)));
    assert!(engine.failure_detected(1), "first failed send reports the machine (§4.3)");

    let stats = engine.stats();
    // Loss is real but bounded: at most the events that targeted machine 1
    // before the report, plus anything queued there at crash time.
    assert!(stats.lost_machine_failure > 0, "the undeliverable event is lost, not retried");
    assert!(
        stats.lost_machine_failure + stats.lost_in_queues <= 200,
        "loss must be bounded: {stats:?}"
    );
    // The system keeps processing after the failure.
    let total: u64 = (0..20)
        .filter_map(|i| engine.read_slate("U1", &Key::from(format!("k{i}"))))
        .map(|b| String::from_utf8(b).unwrap().parse::<u64>().unwrap())
        .sum();
    assert!(total >= 200, "post-failure events still counted: {total}");
    engine.shutdown();
}

#[test]
fn overflow_drop_policy_sheds_load() {
    let mut cfg = small_config(EngineKind::Muppet2);
    cfg.machines = 1;
    cfg.workers_per_machine = 1;
    cfg.queue_capacity = 8; // tiny queues
    cfg.overflow = OverflowPolicy::DropAndLog;
    // Slow updater: force queue buildup.
    let ops = OperatorSet::new()
        .mapper(FnMapper::new("M1", |ctx: &mut dyn Emitter, ev: &Event| {
            ctx.publish("S2", ev.key.clone(), ev.value.to_vec());
        }))
        .updater(FnUpdater::new("U1", |_: &mut dyn Emitter, _: &Event, slate: &mut Slate| {
            std::thread::sleep(Duration::from_micros(500));
            slate.incr_counter(1);
        }));
    let engine = Engine::start(count_workflow(), ops, cfg, None).unwrap();
    for i in 0..2000 {
        engine.submit(Event::new("S1", i, Key::from("hot"), "x")).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(30)));
    let stats = engine.shutdown();
    assert!(stats.dropped_overflow > 0, "tiny queues must overflow: {stats:?}");
    // Dropped events are logged (§4.3).
    assert!(stats.dropped_overflow >= 1);
}

#[test]
fn overflow_stream_provides_degraded_service() {
    // Main path U1 is slow; overflow events go to S_ovf → U_cheap.
    let mut b = Workflow::builder("degraded");
    b.external_stream("S1");
    b.mapper_publishing("M1", &["S1"], &["S2"]);
    b.updater("U1", &["S2"]);
    b.stream("S_ovf");
    b.updater("U_cheap", &["S_ovf"]);
    let wf = b.build().unwrap();

    let ops = OperatorSet::new()
        .mapper(FnMapper::new("M1", |ctx: &mut dyn Emitter, ev: &Event| {
            ctx.publish("S2", ev.key.clone(), ev.value.to_vec());
        }))
        .updater(FnUpdater::new("U1", |_: &mut dyn Emitter, _: &Event, slate: &mut Slate| {
            std::thread::sleep(Duration::from_micros(800));
            slate.incr_counter(1);
        }))
        .updater(FnUpdater::new("U_cheap", |_: &mut dyn Emitter, _: &Event, slate: &mut Slate| {
            slate.incr_counter(1);
        }));
    let mut cfg = small_config(EngineKind::Muppet2);
    cfg.machines = 1;
    cfg.workers_per_machine = 2;
    cfg.queue_capacity = 8;
    cfg.overflow = OverflowPolicy::OverflowStream("S_ovf".into());
    let engine = Engine::start(wf, ops, cfg, None).unwrap();
    for i in 0..1500 {
        engine.submit(Event::new("S1", i, Key::from("hot"), "x")).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(30)));
    let expensive = engine
        .read_slate("U1", &Key::from("hot"))
        .map(|b| String::from_utf8(b).unwrap().parse::<u64>().unwrap())
        .unwrap_or(0);
    let cheap = engine
        .read_slate("U_cheap", &Key::from("hot"))
        .map(|b| String::from_utf8(b).unwrap().parse::<u64>().unwrap())
        .unwrap_or(0);
    let stats = engine.shutdown();
    assert!(stats.redirected_overflow > 0, "overflow redirects: {stats:?}");
    assert!(cheap > 0, "degraded path processed redirected events");
    // Every submitted event is accounted for: it reached the expensive
    // path, the degraded path, or was dropped when the overflow stream
    // itself overflowed (the policy's one-redirect bound) — never lost
    // silently.
    assert_eq!(expensive + cheap + stats.dropped_overflow, 1500, "full accounting: {stats:?}");
}

#[test]
fn source_throttle_loses_nothing() {
    let mut cfg = small_config(EngineKind::Muppet2);
    cfg.machines = 1;
    cfg.workers_per_machine = 1;
    cfg.queue_capacity = 16;
    cfg.overflow = OverflowPolicy::SourceThrottle;
    let ops = OperatorSet::new()
        .mapper(FnMapper::new("M1", |ctx: &mut dyn Emitter, ev: &Event| {
            ctx.publish("S2", ev.key.clone(), ev.value.to_vec());
        }))
        .updater(FnUpdater::new("U1", |_: &mut dyn Emitter, _: &Event, slate: &mut Slate| {
            std::thread::sleep(Duration::from_micros(200));
            slate.incr_counter(1);
        }));
    let engine = Engine::start(count_workflow(), ops, cfg, None).unwrap();
    for i in 0..1000 {
        engine.submit(Event::new("S1", i, Key::from("k"), "x")).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(60)));
    let count: u64 = String::from_utf8(engine.read_slate("U1", &Key::from("k")).unwrap())
        .unwrap()
        .parse()
        .unwrap();
    let stats = engine.shutdown();
    assert_eq!(count, 1000, "throttling trades latency for zero loss");
    assert_eq!(stats.dropped_overflow, 0);
    assert!(stats.throttle_waits > 0, "the producer must actually have been throttled");
}

#[test]
fn cyclic_workflow_countdown_terminates() {
    // §5's self-feeding updater, with a countdown so it quiesces.
    let mut b = Workflow::builder("cycle");
    b.external_stream("S1");
    b.mapper_publishing("M", &["S1"], &["S2"]);
    b.updater_publishing("U", &["S2"], &["S2"]);
    let wf = b.build().unwrap();
    let ops = OperatorSet::new()
        .mapper(FnMapper::new("M", |ctx: &mut dyn Emitter, ev: &Event| {
            ctx.publish("S2", ev.key.clone(), ev.value.to_vec());
        }))
        .updater(FnUpdater::new("U", |ctx: &mut dyn Emitter, ev: &Event, slate: &mut Slate| {
            let n: u32 = ev.value_str().unwrap_or("0").parse().unwrap_or(0);
            slate.incr_counter(1);
            if n > 0 {
                ctx.publish("S2", ev.key.clone(), (n - 1).to_string().into_bytes());
            }
        }));
    let engine = Engine::start(wf, ops, small_config(EngineKind::Muppet2), None).unwrap();
    engine.submit(Event::new("S1", 1, Key::from("k"), "9")).unwrap();
    assert!(engine.drain(Duration::from_secs(10)));
    let count: u64 = String::from_utf8(engine.read_slate("U", &Key::from("k")).unwrap())
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(count, 10, "9,8,...,0 → ten updates");
    engine.shutdown();
}

#[test]
fn publishing_to_unknown_or_external_streams_is_counted_not_fatal() {
    let mut b = Workflow::builder("badpub");
    b.external_stream("S1");
    b.mapper("M", &["S1"]);
    let wf = b.build().unwrap();
    let ops = OperatorSet::new().mapper(FnMapper::new("M", |ctx: &mut dyn Emitter, ev: &Event| {
        ctx.publish("S1", ev.key.clone(), vec![]); // external: illegal
        ctx.publish("S_nope", ev.key.clone(), vec![]); // unknown
    }));
    let engine = Engine::start(wf, ops, small_config(EngineKind::Muppet2), None).unwrap();
    engine.submit(Event::new("S1", 1, Key::from("k"), "x")).unwrap();
    assert!(engine.drain(Duration::from_secs(10)));
    let stats = engine.shutdown();
    assert_eq!(stats.publish_errors, 2);
    assert_eq!(stats.processed, 1);
}

#[test]
fn two_updaters_keep_separate_slates_for_same_key() {
    let mut b = Workflow::builder("two");
    b.external_stream("S1");
    b.updater("U1", &["S1"]);
    b.updater("U2", &["S1"]);
    let wf = b.build().unwrap();
    let ops = OperatorSet::new()
        .updater(FnUpdater::new("U1", |_: &mut dyn Emitter, _: &Event, slate: &mut Slate| {
            slate.incr_counter(1);
        }))
        .updater(FnUpdater::new("U2", |_: &mut dyn Emitter, _: &Event, slate: &mut Slate| {
            slate.incr_counter(10);
        }));
    let engine = Engine::start(wf, ops, small_config(EngineKind::Muppet2), None).unwrap();
    for i in 0..5 {
        engine.submit(Event::new("S1", i, Key::from("shared"), "x")).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(10)));
    assert_eq!(engine.read_slate("U1", &Key::from("shared")).unwrap(), b"5");
    assert_eq!(engine.read_slate("U2", &Key::from("shared")).unwrap(), b"50");
    engine.shutdown();
}

#[test]
fn slate_contention_is_bounded_to_two_workers() {
    // Instrumented updater: track the max number of threads concurrently
    // inside update() for the same key. The slot lock serializes actual
    // updates, so we track *distinct worker threads* that ever process one
    // key instead.
    let seen_threads: Arc<
        muppet_core::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    > = Arc::new(muppet_core::sync::Mutex::new(std::collections::HashSet::new()));
    let seen2 = Arc::clone(&seen_threads);
    let mut b = Workflow::builder("contention");
    b.external_stream("S1");
    b.updater("U", &["S1"]);
    let wf = b.build().unwrap();
    let ops = OperatorSet::new().updater(FnUpdater::new(
        "U",
        move |_: &mut dyn Emitter, _: &Event, slate: &mut Slate| {
            seen2.lock().insert(std::thread::current().id());
            slate.incr_counter(1);
        },
    ));
    let mut cfg = small_config(EngineKind::Muppet2);
    cfg.machines = 1;
    cfg.workers_per_machine = 8;
    let engine = Engine::start(wf, ops, cfg, None).unwrap();
    for i in 0..5000 {
        engine.submit(Event::new("S1", i, Key::from("single-hot-key"), "x")).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(20)));
    assert_eq!(engine.read_slate("U", &Key::from("single-hot-key")).unwrap(), b"5000");
    engine.shutdown();
    let n = seen_threads.lock().len();
    assert!(n <= 2, "events of one key must reach at most two workers (§4.5), saw {n}");
}

#[test]
fn muppet1_single_owner_per_key() {
    // 1.0: exactly one worker processes a given ⟨key, updater⟩.
    let seen_threads: Arc<
        muppet_core::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    > = Arc::new(muppet_core::sync::Mutex::new(std::collections::HashSet::new()));
    let seen2 = Arc::clone(&seen_threads);
    let mut b = Workflow::builder("owner");
    b.external_stream("S1");
    b.updater("U", &["S1"]);
    let wf = b.build().unwrap();
    let ops = OperatorSet::new().updater(FnUpdater::new(
        "U",
        move |_: &mut dyn Emitter, _: &Event, slate: &mut Slate| {
            seen2.lock().insert(std::thread::current().id());
            slate.incr_counter(1);
        },
    ));
    let mut cfg = small_config(EngineKind::Muppet1);
    cfg.machines = 2;
    cfg.workers_per_op = 4;
    let engine = Engine::start(wf, ops, cfg, None).unwrap();
    for i in 0..1000 {
        engine.submit(Event::new("S1", i, Key::from("one-key"), "x")).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(10)));
    engine.shutdown();
    assert_eq!(seen_threads.lock().len(), 1, "1.0: one worker owns each key");
}

#[test]
fn http_server_serves_live_slates_and_status() {
    let engine = Arc::new(
        Engine::start(count_workflow(), count_ops(), small_config(EngineKind::Muppet2), None)
            .unwrap(),
    );
    submit_keys(&engine, &["walmart", "walmart", "sam's club"]);
    assert!(engine.drain(Duration::from_secs(10)));

    let server = HttpSlateServer::serve(Arc::clone(&engine) as _).unwrap();
    let (code, body) = http_get(&format!("{}/slate/U1/walmart", server.base_url())).unwrap();
    assert_eq!(code, 200);
    assert_eq!(body, b"2");
    // Key with a space needs encoding.
    let enc = percent_encode("sam's club".as_bytes());
    let (code, body) = http_get(&format!("{}/slate/U1/{enc}", server.base_url())).unwrap();
    assert_eq!(code, 200);
    assert_eq!(body, b"1");
    let (code, _) = http_get(&format!("{}/slate/U1/nobody", server.base_url())).unwrap();
    assert_eq!(code, 404);
    let (code, body) = http_get(&format!("{}/metrics", server.base_url())).unwrap();
    assert_eq!(code, 200);
    let samples = muppet_obs::parse_exposition(&String::from_utf8(body).unwrap()).unwrap();
    let submitted = samples.iter().find(|s| s.name == "muppet_events_submitted_total");
    assert_eq!(submitted.map(|s| s.value), Some(3.0));
    drop(server);
}

#[test]
fn latency_is_recorded_per_updater_delivery() {
    let engine =
        Engine::start(count_workflow(), count_ops(), small_config(EngineKind::Muppet2), None)
            .unwrap();
    submit_keys(&engine, &["a", "b", "c"]);
    assert!(engine.drain(Duration::from_secs(10)));
    let stats = engine.shutdown();
    assert_eq!(stats.latency.count, 3);
    assert!(stats.latency.p99_us > 0);
}

#[test]
fn concurrent_submitters_are_safe() {
    let engine = Arc::new(
        Engine::start(count_workflow(), count_ops(), small_config(EngineKind::Muppet2), None)
            .unwrap(),
    );
    let total = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let total = Arc::clone(&total);
            std::thread::spawn(move || {
                for i in 0..250u64 {
                    engine
                        .submit(Event::new(
                            "S1",
                            i,
                            Key::from(format!("k{}", (t * 250 + i) % 10)),
                            "x",
                        ))
                        .unwrap();
                    total.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(engine.drain(Duration::from_secs(10)));
    let sum: u64 = (0..10)
        .map(|i| {
            engine
                .read_slate("U1", &Key::from(format!("k{i}")))
                .map(|b| String::from_utf8(b).unwrap().parse::<u64>().unwrap())
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(sum, 1000);
    assert_eq!(total.load(Ordering::Relaxed), 1000);
}

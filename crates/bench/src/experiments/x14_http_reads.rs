//! X14 — §4.4: reading slates over HTTP while the application runs.
//!
//! "The fetch retrieves the slate from Muppet's slate cache ... rather
//! than from the durable key-value store to ensure an up-to-date reply."
//! Concurrent HTTP readers fetch live counters during a streaming run; we
//! measure read latency and freshness (HTTP value vs. the store's stale
//! copy under a lazy flush policy).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use muppet_apps::retailer::{self};
use muppet_obs::Histogram;
use muppet_runtime::cache::FlushPolicy;
use muppet_runtime::engine::{Engine, EngineConfig, EngineKind};
use muppet_runtime::http::{http_get, percent_encode, HttpSlateServer};
use muppet_slatestore::cluster::{StoreCluster, StoreConfig};
use muppet_slatestore::types::CellKey;
use muppet_slatestore::util::TempDir;
use muppet_workloads::checkins::CheckinGenerator;

use crate::harness::{retailer_ops, retailer_workflow};
use crate::table::{us, Table};
use crate::Scale;

/// Run the experiment.
pub fn run(scale: Scale) {
    super::banner("X14", "live slate reads over HTTP", "§4.4 (reading slates)");
    let n = scale.events(30_000);

    let dir = TempDir::new("x14").unwrap();
    let store = Arc::new(
        StoreCluster::open(
            dir.path(),
            StoreConfig { nodes: 1, replication: 1, ..Default::default() },
        )
        .unwrap(),
    );
    let cfg = EngineConfig {
        kind: EngineKind::Muppet2,
        machines: 2,
        workers_per_machine: 2,
        // Slow flusher: the store lags the cache, so freshness is visible.
        flush: FlushPolicy::IntervalMs(5_000),
        queue_capacity: 1 << 16,
        ..EngineConfig::default()
    };
    let engine = Arc::new(
        Engine::start(retailer_workflow(), retailer_ops(), cfg, Some(Arc::clone(&store))).unwrap(),
    );
    let server = HttpSlateServer::serve(Arc::clone(&engine) as _).unwrap();

    // Concurrent readers polling the hot retailer during the stream.
    let stop = Arc::new(AtomicBool::new(false));
    let latencies = Arc::new(Histogram::new());
    let url =
        format!("{}/slate/{}/{}", server.base_url(), retailer::COUNTER, percent_encode(b"Walmart"));
    let mut readers = Vec::new();
    for _ in 0..3 {
        let stop = Arc::clone(&stop);
        let latencies = Arc::clone(&latencies);
        let url = url.clone();
        readers.push(std::thread::spawn(move || {
            let mut fetches = 0u64;
            while !stop.load(Ordering::Acquire) {
                let t0 = Instant::now();
                let _ = http_get(&url);
                latencies.record(t0.elapsed().as_micros() as u64);
                fetches += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            fetches
        }));
    }

    let mut gen = CheckinGenerator::new(3, 2_000, 5_000.0);
    let events = gen.take(retailer::CHECKIN_STREAM, n);
    let truth = CheckinGenerator::expected_retailer_counts(&events);
    for ev in events {
        engine.submit(ev).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(120)));

    // Freshness probe before any flush catches up.
    let (code, live_body) = http_get(&url).unwrap();
    assert_eq!(code, 200);
    let live: u64 = String::from_utf8(live_body).unwrap().parse().unwrap();
    let store_copy = store
        .get(&CellKey::new("Walmart", retailer::COUNTER), engine.now_us())
        .ok()
        .flatten()
        .and_then(|b| String::from_utf8(b.to_vec()).ok())
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);

    stop.store(true, Ordering::Release);
    let total_fetches: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    let l = latencies.summary();
    drop(server);
    let engine = Arc::into_inner(engine).expect("server released engine");
    engine.shutdown();

    let mut table = Table::new(["metric", "value"]);
    table.row(["concurrent HTTP fetches during run".to_string(), total_fetches.to_string()]);
    table.row([
        "fetch latency p50 / p99".to_string(),
        format!("{} / {}", us(l.p50_us), us(l.p99_us)),
    ]);
    table.row(["live (cache) Walmart count".to_string(), live.to_string()]);
    table.row([
        "ground-truth Walmart count".to_string(),
        truth.get("Walmart").copied().unwrap_or(0).to_string(),
    ]);
    table.row(["stale store copy at same instant".to_string(), store_copy.to_string()]);
    table.print();
    println!(
        "\nshape check: HTTP reads serve the cache (live == ground truth after drain)\n\
         while the store's copy lags under the 5s flush interval (store ≤ live) — the\n\
         §4.4 rationale for reading the cache, not the store."
    );
    assert_eq!(live, truth.get("Walmart").copied().unwrap_or(0));
    assert!(store_copy <= live);
}

//! The lock-order regression gate (runs under `--features lock-audit`).
//!
//! A real store-backed engine is driven through the full hot surface —
//! membership reads, sharded cache hits/misses, slot mutation, dirty
//! tracking, flush sweeps, ingest-WAL group commit, cross-machine
//! routing, an in-process join, a TCP master's join reservation and
//! shutdown checkpointing — with every shim lock feeding
//! the global acquisition-order graph and every fsync passing the IO
//! probe. The assertions are the PR's standing contract:
//!
//! * the observed order graph is acyclic (no potential deadlock pair
//!   anywhere in the exercised paths, the failure master's join fence
//!   included);
//! * zero fsyncs happen while a lock is held, outside the explicitly
//!   sanctioned group-commit/checkpoint windows.
//!
//! Without the feature this binary compiles to nothing.
#![cfg(feature = "lock-audit")]

use std::sync::Arc;
use std::time::Duration;

use muppet_core::event::{Event, Key};
use muppet_core::operator::{Emitter, FnMapper, FnUpdater};
use muppet_core::slate::Slate;
use muppet_core::sync::audit;
use muppet_core::workflow::Workflow;
use muppet_net::topology::Topology;
use muppet_runtime::cache::FlushPolicy;
use muppet_runtime::engine::{Engine, EngineConfig, EngineKind, OperatorSet, TransportKind};
use muppet_runtime::master::Master;
use muppet_slatestore::cluster::{StoreCluster, StoreConfig};
use muppet_slatestore::util::TempDir;

fn count_workflow() -> Workflow {
    let mut b = Workflow::builder("audit");
    b.external_stream("S1");
    b.mapper_publishing("M1", &["S1"], &["S2"]);
    b.updater("U1", &["S2"]);
    b.build().expect("valid workflow")
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

#[test]
fn engine_run_has_acyclic_lock_order_and_no_fsync_under_lock() {
    assert!(audit::enabled(), "this test must run with --features lock-audit");

    let dir = TempDir::new("lock-audit").expect("tempdir");
    let store =
        Arc::new(StoreCluster::open(dir.path(), StoreConfig::default()).expect("store opens"));
    let cfg = EngineConfig {
        kind: EngineKind::Muppet2,
        machines: 2,
        workers_per_machine: 2,
        queue_capacity: 10_000,
        // Tiny cache + write-through: every update walks slot → dirty
        // index → backend, and evictions churn the shard maps.
        slate_cache_capacity: 64,
        cache_shards: 4,
        flush: FlushPolicy::WriteThrough,
        ingest_wal: Some(dir.path().join("ingest.wal")),
        ..EngineConfig::default()
    };
    let engine =
        Engine::start(count_workflow(), count_ops(), cfg, Some(store)).expect("engine starts");

    // Enough keys to spread over both machines and all shards, enough
    // repeats to mix hits, misses, and single-flight coalescing.
    for round in 0..20u64 {
        for k in 0..50u64 {
            engine
                .submit(Event::new("S1", round * 50 + k, Key::from(format!("k{k}")), "e"))
                .expect("submit");
        }
    }
    assert!(engine.drain(Duration::from_secs(30)), "engine drains");
    // Reads take the cache path from the outside too.
    for k in 0..50u64 {
        let _ = engine.read_slate("U1", &Key::from(format!("k{k}")));
    }
    // Elastic growth: an in-process join (reserve, prepare with its
    // handoff, commit) and the cluster view built from the machine table.
    let joined = engine.join_machine().expect("machine joins");
    assert_eq!(engine.cluster_view().topology.len(), joined + 1);
    // Shutdown syncs the ingest WAL (with no lock held, like every group
    // commit above) and checkpoints the ingest cursor.
    engine.shutdown();

    // A TCP master reserving a joiner's id: the machine table and the
    // wire's node table grow together under the join lock.
    let topology = Topology::loopback_ephemeral(1, false).expect("ports");
    let cfg = EngineConfig {
        machines: 1,
        transport: TransportKind::Tcp { topology, local: 0 },
        ..EngineConfig::default()
    };
    let tcp = Engine::start(count_workflow(), count_ops(), cfg, None).expect("master starts");
    let grant = tcp.admin_reserve_join("127.0.0.1:9103:8103").expect("id reserved");
    assert_eq!(grant.id, Some(1));
    tcp.shutdown();

    // The master's join fence and failure marks, on both lock paths: a
    // join takes `joined` then `failed`, and so must every failure mark.
    let master = Master::new();
    master.mark_joined(1, 2);
    assert!(!master.report_failure(1, 1), "a stale report is fenced out");
    assert!(master.report_failure(1, 2));
    master.mark_joined(1, 3);
    assert!(master.mark_failed(1, 3));

    let cycles = audit::order_cycles();
    assert!(cycles.is_empty(), "lock-order cycles observed:\n{}", cycles.join("\n---\n"));
    let io = audit::io_under_lock_events();
    assert!(io.is_empty(), "unsanctioned IO under a lock:\n{}", io.join("\n---\n"));
    // The run must actually have fed the graph — an empty graph would
    // mean the shim is not wired through the engine at all.
    assert!(
        audit::edge_count() >= 5,
        "expected a populated lock-order graph, saw {} edges",
        audit::edge_count()
    );
}

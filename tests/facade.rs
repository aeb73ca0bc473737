//! Facade-level integration: the `muppet` crate's public API surface —
//! an application declared in code (`Workflow::builder` plus
//! `EngineConfig` and `StoreConfig`) to running clusters, HTTP reads,
//! prelude ergonomics.

use std::sync::Arc;
use std::time::Duration;

use muppet::prelude::*;
use muppet::runtime::http::{http_get, percent_encode};
use muppet::slatestore::types::CellKey;
use muppet::slatestore::util::TempDir;

/// The app's graph (§3): `events` → normalize → `clean` → tally, whose
/// slates live a day in the store (§4.2's per-updater TTL).
fn workflow() -> Workflow {
    let mut wf = Workflow::builder("facade-app");
    wf.external_stream("events");
    wf.mapper_publishing("normalize", &["events"], &["clean"]);
    wf.updater_with_ttl("tally", &["clean"], 86_400);
    wf.build().unwrap()
}

/// The engine the app runs on: two machines of two workers, every slate
/// written through to the store.
fn config(kind: EngineKind) -> EngineConfig {
    EngineConfig {
        kind,
        machines: 2,
        workers_per_machine: 2,
        workers_per_op: 2,
        queue_capacity: 2048,
        slate_cache_capacity: 5000,
        flush: FlushPolicy::WriteThrough,
        ..EngineConfig::default()
    }
}

fn operators() -> OperatorSet {
    OperatorSet::new()
        .mapper(FnMapper::new("normalize", |ctx: &mut dyn Emitter, ev: &Event| {
            if let Some(text) = ev.value_str() {
                ctx.publish("clean", Key::from(text.trim().to_lowercase()), Vec::new());
            }
        }))
        .updater(FnUpdater::new("tally", |_: &mut dyn Emitter, _: &Event, slate: &mut Slate| {
            slate.incr_counter(1);
        }))
}

#[test]
fn config_file_drives_the_whole_stack() {
    let wf = workflow();
    assert!(wf.is_external("events"));
    assert_eq!(wf.op(1).ttl_secs, Some(86_400));

    // A three-replica store answering at quorum.
    let dir = TempDir::new("facade").unwrap();
    let store = Arc::new(
        StoreCluster::open(
            dir.path(),
            StoreConfig {
                nodes: 3,
                replication: 3,
                consistency: Consistency::Quorum,
                ..Default::default()
            },
        )
        .unwrap(),
    );

    let engine =
        Engine::start(wf, operators(), config(EngineKind::Muppet2), Some(Arc::clone(&store)))
            .unwrap();
    for (i, word) in ["  Apple ", "apple", "BANANA", "apple  "].iter().enumerate() {
        engine.submit(Event::new("events", i as u64, Key::from("src"), *word)).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(10)));
    assert_eq!(engine.read_slate("tally", &Key::from("apple")).unwrap(), b"3");
    assert_eq!(engine.read_slate("tally", &Key::from("banana")).unwrap(), b"1");

    // Written through before any shutdown flush, and a quorum read still
    // answers with one replica down.
    let now = engine.now_us() + 1;
    store.node_down(0);
    for (key, want) in [("apple", "3"), ("banana", "1")] {
        let got = store.get(&CellKey::new(key, "tally"), now).unwrap();
        assert_eq!(got.as_deref(), Some(want.as_bytes()), "{key}");
    }
    store.node_up(0);
    engine.shutdown();
}

#[test]
fn dot_export_renders_the_declared_graph() {
    let dot = workflow().to_dot();
    for name in ["events", "clean", "normalize", "tally"] {
        assert!(dot.contains(name), "DOT export should mention {name}:\n{dot}");
    }
}

#[test]
fn http_slate_reads_from_a_config_driven_cluster() {
    let engine = Arc::new(
        Engine::start(workflow(), operators(), config(EngineKind::Muppet2), None).unwrap(),
    );
    engine.submit(Event::new("events", 1, Key::from("s"), "Hot Topic")).unwrap();
    assert!(engine.drain(Duration::from_secs(10)));
    let server = HttpSlateServer::serve(Arc::clone(&engine) as _).unwrap();
    let enc = percent_encode(b"hot topic");
    let (code, body) = http_get(&format!("{}/slate/tally/{enc}", server.base_url())).unwrap();
    assert_eq!(code, 200);
    assert_eq!(body, b"1");
    let (code, body) = http_get(&format!("{}/metrics", server.base_url())).unwrap();
    assert_eq!(code, 200);
    let samples = muppet::obs::parse_exposition(&String::from_utf8(body).unwrap()).unwrap();
    let submitted = samples.iter().find(|s| s.name == "muppet_events_submitted_total");
    assert_eq!(submitted.map(|s| s.value), Some(1.0));
}

#[test]
fn doc_quickstart_pattern_compiles_and_runs() {
    // Mirrors the crate-level doc example with the prelude only.
    struct CountUpdater;
    impl Updater for CountUpdater {
        fn name(&self) -> &str {
            "counter"
        }
        fn update(&self, _ctx: &mut dyn Emitter, _event: &Event, slate: &mut Slate) {
            slate.incr_counter(1);
        }
    }
    let mut wf = Workflow::builder("quickstart");
    wf.external_stream("S1");
    wf.updater("counter", &["S1"]);
    let wf = wf.build().unwrap();
    let mut exec = ReferenceExecutor::new(&wf);
    exec.register_updater(CountUpdater);
    exec.push_external("S1", Event::new("S1", 1, Key::from("walmart"), "checkin"));
    exec.push_external("S1", Event::new("S1", 2, Key::from("walmart"), "checkin"));
    exec.run_to_completion().unwrap();
    assert_eq!(exec.slate("counter", &Key::from("walmart")).unwrap().as_str(), Some("2"));
}

#[test]
fn engine_kind_selection_from_one_config() {
    // The same app runs on either engine generation.
    for kind in [EngineKind::Muppet1, EngineKind::Muppet2] {
        let engine = Engine::start(workflow(), operators(), config(kind), None).unwrap();
        engine.submit(Event::new("events", 1, Key::from("s"), "x")).unwrap();
        assert!(engine.drain(Duration::from_secs(10)));
        assert_eq!(engine.read_slate("tally", &Key::from("x")).unwrap(), b"1", "{kind:?}");
        engine.shutdown();
    }
}

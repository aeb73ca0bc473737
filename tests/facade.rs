//! Facade-level integration: the `muppet` crate's public API surface —
//! config files to running clusters, HTTP reads, prelude ergonomics.

use std::sync::Arc;
use std::time::Duration;

use muppet::prelude::*;
use muppet::runtime::http::{http_get, percent_encode};
use muppet::slatestore::util::TempDir;

const CONFIG: &str = r#"
{
    "name": "config-driven-app",
    "machines": 2,
    "workers_per_machine": 2,
    "queue_capacity": 2048,
    "slate_cache_capacity": 5000,
    "replication": 3,
    "flush": {"policy": "write_through"},
    "consistency": "quorum",
    "workflow": {
        "external_streams": ["events"],
        "streams": [],
        "mappers": [
            {"name": "normalize", "subscribe": ["events"], "publish": ["clean"]}
        ],
        "updaters": [
            {"name": "tally", "subscribe": ["clean"], "ttl_secs": 86400}
        ]
    }
}
"#;

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
    // Parse the application config exactly as a developer would write it
    // (§3: "a configuration file that includes the workflow graph").
    let app = AppConfig::from_json_str(CONFIG).unwrap();
    assert_eq!(app.name, "config-driven-app");
    let wf = app.build_workflow().unwrap();
    assert!(wf.is_external("events"));
    assert_eq!(wf.op(1).ttl_secs, Some(86_400));

    // Store cluster per the config's replication/consistency.
    let dir = TempDir::new("facade").unwrap();
    let store = Arc::new(
        StoreCluster::open(
            dir.path(),
            StoreConfig {
                nodes: app.replication,
                replication: app.replication,
                consistency: app.consistency,
                ..Default::default()
            },
        )
        .unwrap(),
    );

    // Engine per the config.
    let cfg = EngineConfig::from_app_config(&app, EngineKind::Muppet2);
    assert_eq!(cfg.machines, 2);
    assert_eq!(cfg.flush, FlushPolicy::WriteThrough);
    let engine = Engine::start(wf, operators(), cfg, Some(store)).unwrap();
    for (i, word) in ["  Apple ", "apple", "BANANA", "apple  "].iter().enumerate() {
        engine.submit(Event::new("events", i as u64, Key::from("src"), *word)).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(10)));
    assert_eq!(engine.read_slate("tally", &Key::from("apple")).unwrap(), b"3");
    assert_eq!(engine.read_slate("tally", &Key::from("banana")).unwrap(), b"1");
    engine.shutdown();
}

#[test]
fn config_roundtrips_and_dot_export_renders() {
    let app = AppConfig::from_json_str(CONFIG).unwrap();
    let dot = app.build_workflow().unwrap().to_dot();
    for name in ["events", "clean", "normalize", "tally"] {
        assert!(dot.contains(name), "DOT export should mention {name}:\n{dot}");
    }
}

#[test]
fn http_slate_reads_from_a_config_driven_cluster() {
    let app = AppConfig::from_json_str(CONFIG).unwrap();
    let wf = app.build_workflow().unwrap();
    let engine = Arc::new(
        Engine::start(
            wf,
            operators(),
            EngineConfig::from_app_config(&app, EngineKind::Muppet2),
            None,
        )
        .unwrap(),
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
    // The same app config runs on either engine generation.
    let app = AppConfig::from_json_str(CONFIG).unwrap();
    for kind in [EngineKind::Muppet1, EngineKind::Muppet2] {
        let engine = Engine::start(
            app.build_workflow().unwrap(),
            operators(),
            EngineConfig::from_app_config(&app, kind),
            None,
        )
        .unwrap();
        engine.submit(Event::new("events", 1, Key::from("s"), "x")).unwrap();
        assert!(engine.drain(Duration::from_secs(10)));
        assert_eq!(engine.read_slate("tally", &Key::from("x")).unwrap(), b"1", "{kind:?}");
        engine.shutdown();
    }
}

//! End-to-end observability: the unified registry served over real HTTP
//! at `GET /metrics`, parsed back and checked against the engine's own
//! stats; the enriched `/status` identity fields; and the hot-key
//! telemetry surfacing a skewed workload.

use std::sync::Arc;
use std::time::Duration;

use muppet::obs::{parse_exposition, ParsedSample};
use muppet::prelude::*;
use muppet::runtime::http::http_get;

fn counter_workflow() -> Workflow {
    let mut b = Workflow::builder("obs-e2e");
    b.external_stream("S1");
    b.updater("tally", &["S1"]);
    b.build().unwrap()
}

fn counter_ops() -> muppet::runtime::engine::OperatorSet {
    muppet::runtime::engine::OperatorSet::new().updater(FnUpdater::new(
        "tally",
        |_: &mut dyn Emitter, _: &Event, slate: &mut Slate| {
            slate.incr_counter(1);
        },
    ))
}

fn start(metrics: bool, sample_n: u64) -> Arc<Engine> {
    let cfg = EngineConfig {
        machines: 2,
        workers_per_machine: 2,
        metrics,
        latency_sample_n: sample_n,
        ..EngineConfig::default()
    };
    Arc::new(Engine::start(counter_workflow(), counter_ops(), cfg, None).unwrap())
}

/// Submit `n` events, three quarters of which share one hot key.
fn feed(engine: &Engine, n: u64) {
    for i in 0..n {
        let key = if i % 4 != 0 { Key::from("walmart") } else { Key::from(format!("k{i}")) };
        engine.submit(Event::new("S1", i, key, Vec::new())).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(30)));
}

/// Spans recorded for `stage`, summed over its label sets.
fn stage_spans(samples: &[ParsedSample], stage: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == "muppet_stage_latency_us_count" && s.label("stage") == Some(stage))
        .map(|s| s.value)
        .sum()
}

#[test]
fn metrics_endpoint_round_trips_every_engine_counter() {
    let engine = start(true, 1);
    feed(&engine, 400);
    let server = HttpSlateServer::serve(Arc::clone(&engine) as _).unwrap();

    let (code, body) = http_get(&format!("{}/metrics", server.base_url())).unwrap();
    assert_eq!(code, 200);
    let text = String::from_utf8(body).unwrap();
    let samples = parse_exposition(&text).expect("/metrics must serve valid Prometheus text");

    let flat = |name: &str| -> Option<f64> {
        samples.iter().find(|s| s.name == name && s.labels.is_empty()).map(|s| s.value)
    };
    // Every pre-existing EngineStats counter surfaces as a family.
    let stats = engine.stats();
    assert_eq!(flat("muppet_events_submitted_total"), Some(stats.submitted as f64));
    assert_eq!(flat("muppet_events_processed_total"), Some(stats.processed as f64));
    assert_eq!(flat("muppet_events_emitted_total"), Some(stats.emitted as f64));
    assert_eq!(flat("muppet_overflow_dropped_total"), Some(0.0));
    assert_eq!(flat("muppet_overflow_redirected_total"), Some(0.0));
    assert_eq!(flat("muppet_throttle_waits_total"), Some(stats.throttle_waits as f64));
    assert_eq!(flat("muppet_publish_errors_total"), Some(0.0));
    assert_eq!(flat("muppet_events_forwarded_total"), Some(stats.forwarded as f64));
    assert_eq!(flat("muppet_cache_hits_total"), Some(stats.cache.hits as f64));
    assert_eq!(flat("muppet_cache_misses_total"), Some(stats.cache.misses as f64));
    let lost: f64 =
        samples.iter().filter(|s| s.name == "muppet_events_lost_total").map(|s| s.value).sum();
    assert_eq!(lost, 0.0, "nothing may be lost in a healthy run");

    // Stage histograms: all five stages appear, and with 1-in-1 sampling
    // the service stage saw every processed event.
    let stage_count = |stage: &str| stage_spans(&samples, stage);
    for stage in ["ingest", "queue_wait", "service", "fanout", "flush"] {
        assert!(
            samples.iter().any(|s| s.name.starts_with("muppet_stage_latency_us")
                && s.label("stage") == Some(stage)),
            "stage {stage} missing from /metrics"
        );
    }
    assert_eq!(stage_count("service"), stats.processed as f64);
    assert!(stage_count("ingest") > 0.0);
    assert!(stage_count("queue_wait") > 0.0);

    // The hot key dominates the space-saving top-k series.
    let hottest = samples
        .iter()
        .filter(|s| s.name == "muppet_hot_key_events_est")
        .max_by(|a, b| a.value.total_cmp(&b.value))
        .expect("hot-key series must be exported");
    assert_eq!(hottest.label("key"), Some("walmart"));
    assert_eq!(hottest.label("op"), Some("tally"));
    assert!(hottest.value >= 300.0, "~3/4 of 400 events hit the hot key: {}", hottest.value);
    assert!(engine.hot_keys(5).iter().any(|(_, key, ..)| key.as_bytes() == b"walmart"));
}

#[test]
fn status_carries_identity_fields_and_agrees_with_metrics() {
    let engine = start(true, 64);
    feed(&engine, 100);
    let server = HttpSlateServer::serve(Arc::clone(&engine) as _).unwrap();

    let (code, body) = http_get(&format!("{}/status", server.base_url())).unwrap();
    assert_eq!(code, 200);
    let status = Json::parse_bytes(&body).unwrap();
    assert_eq!(status.get("submitted").and_then(Json::as_u64), Some(100));
    assert!(status.get("uptime_s").and_then(Json::as_u64).is_some());
    assert_eq!(status.get("epoch").and_then(Json::as_u64), Some(0));
    assert_eq!(
        status.get("protocol_version").and_then(Json::as_u64),
        Some(muppet::net::frame::PROTOCOL_VERSION)
    );
    // The in-process transport hosts every machine, so there is no single
    // local machine id — the field is present but null. So are the ingest
    // WAL's on an engine that was given none.
    assert!(status.get("machine_id").is_some());
    assert_eq!(status.get("ingest_wal_written"), Some(&Json::Null));

    // /metrics and /status are views of the same registry state.
    let (_, body) = http_get(&format!("{}/metrics", server.base_url())).unwrap();
    let samples = parse_exposition(&String::from_utf8(body).unwrap()).unwrap();
    let submitted =
        samples.iter().find(|s| s.name == "muppet_events_submitted_total").map(|s| s.value);
    assert_eq!(submitted, Some(100.0));
    let epoch = samples.iter().find(|s| s.name == "muppet_epoch").map(|s| s.value);
    assert_eq!(epoch, Some(0.0));
    // 1-in-64 sampling times some service spans but fewer than one per
    // event (1-in-1, above, times every one).
    let spans = stage_spans(&samples, "service");
    assert!(spans > 0.0 && spans < 100.0, "{spans} service spans for 100 events");
}

#[test]
fn disabling_metrics_keeps_counters_but_drops_spans_and_sketches() {
    let engine = start(false, 64);
    feed(&engine, 200);
    let server = HttpSlateServer::serve(Arc::clone(&engine) as _).unwrap();

    let (code, body) = http_get(&format!("{}/metrics", server.base_url())).unwrap();
    assert_eq!(code, 200);
    let samples = parse_exposition(&String::from_utf8(body).unwrap()).unwrap();

    // Counters are plain atomics and stay on.
    let submitted =
        samples.iter().find(|s| s.name == "muppet_events_submitted_total").map(|s| s.value);
    assert_eq!(submitted, Some(200.0));
    // No sampled spans, no hot-key sketch.
    let span_count: f64 =
        samples.iter().filter(|s| s.name == "muppet_stage_latency_us_count").map(|s| s.value).sum();
    assert_eq!(span_count, 0.0, "metrics off must record no stage spans");
    assert!(
        !samples.iter().any(|s| s.name == "muppet_hot_key_events_est"),
        "metrics off must not export hot-key series"
    );
    assert!(engine.hot_keys(5).is_empty());
}

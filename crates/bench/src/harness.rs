//! Shared experiment drivers: run an app on an engine, time it, collect
//! stats.

use std::sync::Arc;
use std::time::{Duration, Instant};

use muppet_apps::retailer::{self, Counter, RetailerMapper};
use muppet_core::event::{Event, Key};
use muppet_runtime::engine::{Engine, EngineConfig, EngineStats, OperatorSet};
use muppet_slatestore::cluster::StoreCluster;

/// Outcome of a timed engine run.
pub struct RunOutcome {
    /// Wall-clock time from first submit to drain.
    pub elapsed: Duration,
    /// Final engine statistics.
    pub stats: EngineStats,
    /// Peak queue occupancy.
    pub max_queue: usize,
}

impl RunOutcome {
    /// Events per second over the run.
    pub fn throughput(&self, events: usize) -> f64 {
        events as f64 / self.elapsed.as_secs_f64()
    }
}

/// Start an engine, stream `events`, drain, shut down, and time it.
pub fn run_engine(
    workflow: muppet_core::workflow::Workflow,
    ops: OperatorSet,
    cfg: EngineConfig,
    store: Option<Arc<StoreCluster>>,
    events: Vec<Event>,
) -> RunOutcome {
    let engine = Engine::start(workflow, ops, cfg, store).expect("engine starts");
    let t0 = Instant::now();
    for ev in events {
        engine.submit(ev).expect("submit");
    }
    assert!(engine.drain(Duration::from_secs(300)), "engine must drain");
    let elapsed = t0.elapsed();
    let max_queue = engine.max_queue_high_water();
    let stats = engine.shutdown();
    RunOutcome { elapsed, stats, max_queue }
}

/// Like [`run_engine`] but keeps the engine alive and hands it to a
/// callback mid-stream (failure drills, HTTP readers).
pub fn run_engine_with<F: FnOnce(&Engine)>(
    workflow: muppet_core::workflow::Workflow,
    ops: OperatorSet,
    cfg: EngineConfig,
    store: Option<Arc<StoreCluster>>,
    first: Vec<Event>,
    mid: F,
    second: Vec<Event>,
) -> RunOutcome {
    let engine = Engine::start(workflow, ops, cfg, store).expect("engine starts");
    let t0 = Instant::now();
    for ev in first {
        engine.submit(ev).expect("submit");
    }
    engine.drain(Duration::from_secs(300));
    mid(&engine);
    for ev in second {
        engine.submit(ev).expect("submit");
    }
    assert!(engine.drain(Duration::from_secs(300)), "engine must drain");
    let elapsed = t0.elapsed();
    let max_queue = engine.max_queue_high_water();
    let stats = engine.shutdown();
    RunOutcome { elapsed, stats, max_queue }
}

/// The retailer operator set (the workhorse app for throughput runs).
pub fn retailer_ops() -> OperatorSet {
    OperatorSet::new().mapper(RetailerMapper::new()).updater(Counter::new())
}

/// The retailer workflow.
pub fn retailer_workflow() -> muppet_core::workflow::Workflow {
    retailer::workflow()
}

/// Read a decimal counter slate off an engine.
pub fn read_counter(engine: &Engine, updater: &str, key: &str) -> u64 {
    engine
        .read_slate(updater, &Key::from(key))
        .and_then(|b| String::from_utf8(b).ok())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A stream of synthetic counter events with a controllable number of
/// distinct keys and Zipf skew — the minimal workload for cache and
/// dispatch experiments (payloads are empty; all cost is in the framework).
pub fn keyed_events(stream: &str, n: usize, keys: usize, skew: f64, seed: u64) -> Vec<Event> {
    use muppet_workloads::zipf::Zipf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let z = Zipf::new(keys.max(1), skew);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let k = z.sample(&mut rng);
            Event::new(stream, i as u64, Key::from(format!("key-{k:06}")), Vec::new())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_runtime::engine::EngineKind;
    use muppet_workloads::checkins::CheckinGenerator;

    #[test]
    fn run_engine_times_a_real_run() {
        let mut gen = CheckinGenerator::new(1, 100, 1000.0);
        let events = gen.take(retailer::CHECKIN_STREAM, 500);
        let cfg = EngineConfig {
            kind: EngineKind::Muppet2,
            machines: 1,
            workers_per_machine: 2,
            ..EngineConfig::default()
        };
        let outcome = run_engine(retailer_workflow(), retailer_ops(), cfg, None, events);
        assert_eq!(outcome.stats.submitted, 500);
        assert!(outcome.throughput(500) > 0.0);
    }

    #[test]
    fn keyed_events_respect_universe_and_skew() {
        let events = keyed_events("S1", 5000, 10, 2.0, 7);
        assert_eq!(events.len(), 5000);
        let mut counts = std::collections::HashMap::new();
        for e in &events {
            *counts.entry(e.key.clone()).or_insert(0u32) += 1;
        }
        assert!(counts.len() <= 10);
        let max = counts.values().max().unwrap();
        assert!(*max > 2500, "skew 2.0 concentrates on the head: {max}");
    }
}

//! X5 — §4.5: Muppet 2.0 vs 1.0 under a hot key.
//!
//! The paper's hotspot story, verbatim: in 1.0, "if [a worker] is
//! overloaded by a huge number of events with key k1 already in its queue,
//! a long time may pass before the worker gets around to processing events
//! with some key k2. Hence, Muppet 2.0 allows events with key k2 to be
//! placed into the queue of a second worker."
//!
//! Reproduction: dump a large burst of hot-key events (the "huge number
//! ... already in its queue"), then, while the backlog drains, probe with
//! paced *cold* keys and measure their latency (recorded updater-side from
//! a submit timestamp embedded in each probe). In 1.0 every cold key that
//! hashes to the hot worker waits out the entire backlog; in 2.0 the
//! two-choice dispatcher routes it to the significantly-shorter secondary
//! queue.

use std::sync::Arc;
use std::time::{Duration, Instant};

use muppet_core::event::{Event, Key};
use muppet_core::operator::{Emitter, FnMapper, FnUpdater};
use muppet_core::slate::Slate;
use muppet_core::workflow::Workflow;
use muppet_obs::Histogram;
use muppet_runtime::engine::{Engine, EngineConfig, EngineKind, OperatorSet};

use crate::table::{us, Table};
use crate::Scale;

const HOT_KEY: &str = "key-hot";
const COST_US: u64 = 30;

fn workflow() -> Workflow {
    let mut b = Workflow::builder("hotspot");
    b.external_stream("S1");
    b.mapper_publishing("M1", &["S1"], &["S2"]);
    b.updater("U1", &["S2"]);
    b.build().unwrap()
}

fn ops(epoch: Instant, cold: Arc<Histogram>) -> OperatorSet {
    OperatorSet::new()
        .mapper(FnMapper::new("M1", |ctx: &mut dyn Emitter, ev: &Event| {
            ctx.publish("S2", ev.key.clone(), ev.value.to_vec());
        }))
        .updater(FnUpdater::new("U1", move |_: &mut dyn Emitter, ev: &Event, slate: &mut Slate| {
            // Fixed per-event cost (the paper's updaters do real work).
            let deadline = Instant::now() + Duration::from_micros(COST_US);
            while Instant::now() < deadline {
                std::hint::spin_loop();
            }
            slate.incr_counter(1);
            // Cold probes carry their submit time; record their latency.
            if ev.key.as_str() != Some(HOT_KEY) && ev.value.len() == 8 {
                let submitted_us = u64::from_le_bytes(ev.value.as_ref().try_into().unwrap());
                let now_us = epoch.elapsed().as_micros() as u64;
                cold.record(now_us.saturating_sub(submitted_us));
            }
        }))
}

/// A probe is "stalled" if it waited this long behind the hot backlog.
const STALL_THRESHOLD_US: u64 = 20_000;

/// Run the experiment.
pub fn run(scale: Scale) {
    super::banner(
        "X5",
        "Muppet 1.0 vs 2.0: cold keys behind a hot-key backlog",
        "§4.5 (two-choice dispatch vs single-owner workers)",
    );
    let burst = scale.events(10_000);
    let probes = 1_000usize.min(burst / 4).max(50);

    let mut table = Table::new([
        "engine",
        "hot backlog drain",
        "cold mean",
        "cold p50",
        "stalled probes (>20ms)",
    ]);
    let mut drains = Vec::new();
    let mut p50s = Vec::new();
    let mut stalled_fracs = Vec::new();
    for kind in [EngineKind::Muppet1, EngineKind::Muppet2] {
        let cold_hist = Arc::new(Histogram::new());
        let epoch = Instant::now();
        let cfg = EngineConfig {
            kind,
            machines: 1,
            // Eight queues: the hot key's primary/secondary pair covers at
            // most two, so ~6 stay free in 2.0. In 1.0, one of the eight
            // workers owns the hot key and every cold key it owns (1/8 of
            // them) queues behind the backlog.
            workers_per_machine: 8,
            workers_per_op: 8,
            queue_capacity: 1 << 16,
            ..EngineConfig::default()
        };
        let engine = Engine::start(workflow(), ops(epoch, Arc::clone(&cold_hist)), cfg, None)
            .expect("engine");
        // 1. The hot burst: a huge number of hot-key events hit the queue
        //    at once ("overloaded by a huge number of events with key k1").
        let t0 = Instant::now();
        for i in 0..burst {
            engine.submit(Event::new("S1", i as u64, Key::from(HOT_KEY), Vec::new())).unwrap();
        }
        // 2. Many cold probes over many distinct keys, paced, while the
        //    backlog drains. Many keys ⟹ the trapped fraction concentrates
        //    around its expectation instead of depending on a few hashes.
        for i in 0..probes {
            let stamp = epoch.elapsed().as_micros() as u64;
            let key = Key::from(format!("key-cold-{:04}", i % 500));
            engine
                .submit(Event::new("S1", (burst + i) as u64, key, stamp.to_le_bytes().to_vec()))
                .unwrap();
            std::thread::sleep(Duration::from_micros(200));
        }
        assert!(engine.drain(Duration::from_secs(300)));
        let drain = t0.elapsed();
        engine.shutdown();
        let cold = cold_hist.summary();
        // Count stalled probes from the histogram tail.
        let stalled = cold.count - count_below(&cold_hist, STALL_THRESHOLD_US);
        let frac = stalled as f64 / cold.count.max(1) as f64;
        drains.push(drain);
        p50s.push(cold.p50_us.max(1));
        stalled_fracs.push(frac);
        table.row([
            format!("{kind:?}"),
            format!("{drain:.2?}"),
            us(cold.mean_us),
            us(cold.p50_us),
            format!("{stalled}/{} ({:.1}%)", cold.count, frac * 100.0),
        ]);
    }
    table.print();
    let drain_speedup = drains[0].as_secs_f64() / drains[1].as_secs_f64();
    println!(
        "\nshape check: the skewed burst drains {drain_speedup:.1}× faster on 2.0 — its workers run\n\
         any function and the secondary queue shares the hot key's load (bounded at two\n\
         workers per slate), while 1.0 serializes the burst through single-owner workers.\n\
         Typical (p50) cold-key latency: {} (1.0) vs {} (2.0). The stalled-probe\n\
         fraction ({:.1}% vs {:.1}%) depends on which cold keys the flooded workers happen\n\
         to own — a hash artifact the paper's Example 6 splitting addresses (X12).",
        crate::table::us(p50s[0]),
        crate::table::us(p50s[1]),
        stalled_fracs[0] * 100.0,
        stalled_fracs[1] * 100.0
    );
}

/// Number of samples strictly below `threshold_us` (bucket-resolution).
fn count_below(h: &Histogram, threshold_us: u64) -> u64 {
    // The histogram is power-of-two bucketed; percentile search gives us an
    // equivalent: walk percentiles until the bucket bound exceeds the
    // threshold. Simpler: binary-search quantiles.
    let total = h.summary().count;
    if total == 0 {
        return 0;
    }
    let (mut lo, mut hi) = (0u64, total);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        let q = mid as f64 / total as f64;
        if h.percentile_us(q) <= threshold_us {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

//! The latency side of the flush policy: batching must never turn into a
//! Nagle stall. On an idle cluster the flush is demand-driven — a lone
//! event crosses each hop as soon as its producer has nothing more to add,
//! however long the age ceiling (`net_flush_us`) is — and on a node with
//! work in flight a submission raises no flush at all, so batches still
//! form. (The ceiling itself, for producers that never ask, is pinned by
//! the direct-drive tests in `crates/net/src/tcp.rs`.) Both engine
//! generations, over TCP loopback.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use muppet::prelude::*;

/// An age ceiling no test waits out by accident: anything delivered in a
/// fraction of it was flushed on demand.
const FLUSH_US: u64 = 200_000;

/// Key prefix whose update parks inside the updater until the gate opens.
const HOLD: &str = "hold-";

struct Relay;

impl Mapper for Relay {
    fn name(&self) -> &str {
        "relay"
    }
    fn map(&self, ctx: &mut dyn Emitter, event: &Event) {
        ctx.publish_shared("S2", event.key.clone(), event.value.clone());
    }
}

#[derive(Default)]
struct Gate {
    entered: AtomicBool,
    open: AtomicBool,
}

struct CountUpdater(Arc<Gate>);

impl Updater for CountUpdater {
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
        let n = slate.as_str().and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
        slate.replace((n + 1).to_string().into_bytes());
    }
}

/// Two hops: S1 → `relay` (mapper) → S2 → `counter` (updater).
fn relay_workflow() -> Workflow {
    let mut b = Workflow::builder("net-batch");
    b.external_stream("S1");
    b.mapper_publishing("relay", &["S1"], &["S2"]);
    b.updater("counter", &["S2"]);
    b.build().unwrap()
}

fn start_node(topology: &Topology, local: usize, kind: EngineKind, gate: &Arc<Gate>) -> Engine {
    let cfg = EngineConfig {
        kind,
        machines: topology.len(),
        workers_per_machine: 2,
        workers_per_op: 2,
        transport: TransportKind::Tcp { topology: topology.clone(), local },
        // A size trigger these tests never reach.
        net_batch_max: 10_000,
        net_flush_us: FLUSH_US,
        ..EngineConfig::default()
    };
    let ops = OperatorSet::new().mapper(Relay).updater(CountUpdater(Arc::clone(gate)));
    Engine::start(relay_workflow(), ops, cfg, None).unwrap()
}

/// `n` keys (with `prefix`) whose `relay` runs on machine `relay_on` and
/// whose `counter` slate lives on machine `counter_on`, asked of the
/// engine's own routing.
fn keys_routed(
    node: &Engine,
    prefix: &str,
    relay_on: usize,
    counter_on: usize,
    n: usize,
) -> Vec<Key> {
    let keys: Vec<Key> = (0..100_000)
        .map(|i| Key::from(format!("{prefix}{i}")))
        .filter(|key| {
            node.owner_machine("relay", key) == Some(relay_on)
                && node.owner_machine("counter", key) == Some(counter_on)
        })
        .take(n)
        .collect();
    assert_eq!(keys.len(), n, "not enough keys routed relay→{relay_on}, counter→{counter_on}");
    keys
}

/// [size, demand, age, stop] batches taken by `node`'s senders.
fn flushes(node: &Engine) -> [u64; 4] {
    node.stats().net.flushes
}

fn lone_event_crosses_both_hops_on_demand(kind: EngineKind) {
    let topology = Topology::loopback_ephemeral(2, false).unwrap();
    let gate = Arc::new(Gate::default());
    let a = start_node(&topology, 0, kind, &gate);
    let b = start_node(&topology, 1, kind, &gate);

    // Submitted on node 0, mapped on node 1, counted back on node 0: the
    // first hop is flushed by the submit tail of an idle node, the second
    // by node 1's worker going idle. Nothing else will ever fill either
    // batch — the worst case for any coalescing wire.
    let key = keys_routed(&a, "probe-", 1, 0, 1).remove(0);
    let started = Instant::now();
    a.submit(Event::new("S1", 1, key, "e")).unwrap();
    let bound = Duration::from_millis(50);
    while a.stats().processed < 1 {
        assert!(
            started.elapsed() <= bound,
            "lone event not delivered within {bound:?} of a {FLUSH_US} µs ceiling: the flush \
             is timed, not demand-driven ({kind:?}; flushes a={:?} b={:?})",
            flushes(&a),
            flushes(&b)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(flushes(&a), [0, 1, 0, 0], "submit tail of an idle node: one demand flush");
    assert_eq!(flushes(&b), [0, 1, 0, 0], "worker going idle: one demand flush");

    a.shutdown();
    b.shutdown();
}

#[test]
fn muppet2_lone_event_crosses_both_hops_on_demand() {
    lone_event_crosses_both_hops_on_demand(EngineKind::Muppet2);
}

#[test]
fn muppet1_lone_event_crosses_both_hops_on_demand() {
    lone_event_crosses_both_hops_on_demand(EngineKind::Muppet1);
}

#[test]
fn busy_node_submissions_batch_until_the_ceiling() {
    let topology = Topology::loopback_ephemeral(2, false).unwrap();
    let gate = Arc::new(Gate::default());
    let a = start_node(&topology, 0, EngineKind::Muppet2, &gate);
    let b = start_node(&topology, 1, EngineKind::Muppet2, &gate);

    // Park one event inside node 0's updater: the node now has work in
    // flight for as long as the gate stays shut.
    let hold = keys_routed(&a, HOLD, 0, 0, 1).remove(0);
    a.submit(Event::new("S1", 1, hold, "e")).unwrap();
    while !gate.entered.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Two closed-loop frames for node 1 arrive behind it. Nagle's rule:
    // neither submit tail asks for a flush, so they share one wire frame,
    // which leaves by the age ceiling.
    let remote = keys_routed(&a, "probe-", 1, 1, 128);
    for frame in remote.chunks(64) {
        let events = frame.iter().map(|key| Event::new("S1", 1, key.clone(), "e")).collect();
        a.submit_many(events).unwrap();
    }
    gate.open.store(true, Ordering::Release);
    let deadline = Instant::now() + Duration::from_secs(10);
    // 128 maps + 128 updates on node 1.
    while b.stats().processed < 256 {
        assert!(Instant::now() < deadline, "node 1 processed {} of 256", b.stats().processed);
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(flushes(&a), [0, 0, 1, 0], "one frame, by age: no submit tail raised the flag");
    assert_eq!(flushes(&b), [0; 4], "node 1 sent nothing");

    a.shutdown();
    b.shutdown();
}

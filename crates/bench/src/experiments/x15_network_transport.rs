//! X15 — the cost of the wire: in-process vs TCP-loopback transport for
//! the hot_topics pipeline, and what batching buys back.
//!
//! The paper runs Muppet over a real network; the seed simulated it with
//! queue hand-offs. This experiment quantifies what the `muppet-net` TCP
//! transport costs relative to the in-process wire on identical hardware
//! and workload — and how much of that cost the per-peer batching senders
//! amortize away: same 3-machine cluster, same tweet stream, same
//! two-choice dispatch; only the wire differs. Three arms:
//!
//! * `in-process` — direct call hand-off (the seed's simulated cluster);
//! * `tcp-unbatched` — one `Events` frame per event (`batch_max = 1`,
//!   `flush_us = 0`): a syscall and a CRC per tweet;
//! * `tcp-batched` — the default flush policy coalescing events into
//!   multi-event frames.
//!
//! Next to the throughput arms, one latency row: a lone event's hop across
//! an idle 2-node TCP cluster at the default policy — the flush is
//! demand-driven, so this is the wire and two wake-ups, not `flush_us`.
//!
//! Results are also written to `BENCH_x15.json` in the working directory
//! so CI can record the perf trajectory over time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use muppet_apps::hot_topics::{self, HotDetector, MinuteCounter, TopicMapper};
use muppet_core::event::{Event, Key};
use muppet_core::json::Json;
use muppet_core::operator::{Emitter, Updater};
use muppet_core::slate::Slate;
use muppet_core::workflow::Workflow;
use muppet_net::topology::Topology;
use muppet_net::transport::{ClusterHandler, MachineId, NetError, Transport};
use muppet_net::{BatchConfig, TcpTransport, WireEvent};
use muppet_runtime::engine::{Engine, EngineConfig, OperatorSet, TransportKind};
use muppet_workloads::tweets::TweetGenerator;

use crate::table::{rate, us, Table};
use crate::Scale;

const MACHINES: usize = 3;

fn ops() -> OperatorSet {
    OperatorSet::new()
        .mapper(TopicMapper::new())
        .updater(MinuteCounter::new())
        .updater(HotDetector::new(3.0))
}

fn base_config() -> EngineConfig {
    EngineConfig {
        machines: MACHINES,
        workers_per_machine: 2,
        queue_capacity: 1 << 16,
        ..EngineConfig::default()
    }
}

struct Outcome {
    elapsed: Duration,
    processed: u64,
    p50_us: u64,
    p99_us: u64,
    frames_sent: u64,
    batches_sent: u64,
    drained: bool,
}

/// Submit `events` into `intake`, then wait for the whole cluster to
/// quiesce (summed processed-count stable) and aggregate stats.
fn drive(intake: &Engine, cluster: &[&Engine], events: &[muppet_core::event::Event]) -> Outcome {
    let t0 = Instant::now();
    for ev in events {
        intake.submit(ev.clone()).expect("submit");
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    let total = |cluster: &[&Engine]| -> u64 { cluster.iter().map(|e| e.stats().processed).sum() };
    let mut last = total(cluster);
    let mut stable_since = Instant::now();
    let drained = loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = total(cluster);
        if now != last {
            last = now;
            stable_since = Instant::now();
        } else if stable_since.elapsed() > Duration::from_millis(300) && now > 0 {
            break true;
        }
        if Instant::now() > deadline {
            break false;
        }
    };
    // Elapsed runs to the last observed progress, not through the
    // stability window that *detects* quiescence (a constant ~300 ms that
    // would otherwise swamp small runs).
    let elapsed = stable_since.saturating_duration_since(t0);
    let mut processed = 0;
    let mut frames_sent = 0;
    let mut batches_sent = 0;
    let mut latency = muppet_obs::LatencySummary::default();
    for engine in cluster {
        let stats = engine.stats();
        processed += stats.processed;
        frames_sent += stats.net.frames_sent;
        batches_sent += stats.net.batches_sent;
        // Keep the worst-node percentiles: the cluster is as slow as its
        // slowest member.
        if stats.latency.p99_us > latency.p99_us {
            latency = stats.latency;
        }
    }
    Outcome {
        elapsed,
        processed,
        p50_us: latency.p50_us,
        p99_us: latency.p99_us,
        frames_sent,
        batches_sent,
        drained,
    }
}

/// Run one TCP-loopback arm with the given batching knobs.
fn run_tcp_arm(events: &[muppet_core::event::Event], batch_max: usize, flush_us: u64) -> Outcome {
    let topology = Topology::loopback_ephemeral(MACHINES, false).expect("reserve ports");
    let nodes: Vec<Engine> = (0..MACHINES)
        .map(|local| {
            let cfg = EngineConfig {
                transport: TransportKind::Tcp { topology: topology.clone(), local },
                net_batch_max: batch_max,
                net_flush_us: flush_us,
                ..base_config()
            };
            Engine::start(hot_topics::workflow(), ops(), cfg, None).unwrap()
        })
        .collect();
    let refs: Vec<&Engine> = nodes.iter().collect();
    let outcome = drive(&nodes[0], &refs, events);
    for node in nodes {
        node.shutdown();
    }
    outcome
}

/// The idle-hop probe's terminal operator.
struct Touch;

impl Updater for Touch {
    fn name(&self) -> &str {
        "touch"
    }
    fn update(&self, _ctx: &mut dyn Emitter, _event: &Event, slate: &mut Slate) {
        slate.replace(b"1".to_vec());
    }
}

/// Idle single-event hop latency, µs (p50, p99) over `probes` events: each
/// is submitted alone on node 0 of an otherwise idle 2-node TCP cluster,
/// for a key node 1 owns, and timed until node 1 has processed it.
fn idle_hop_latency_us(probes: usize) -> (u64, u64) {
    let mut wf = Workflow::builder("x15-idle-hop");
    wf.external_stream("S1");
    wf.updater("touch", &["S1"]);
    let wf = wf.build().expect("workflow");
    let topology = Topology::loopback_ephemeral(2, false).expect("reserve ports");
    let nodes: Vec<Engine> = (0..2)
        .map(|local| {
            let cfg = EngineConfig {
                machines: 2,
                transport: TransportKind::Tcp { topology: topology.clone(), local },
                ..base_config()
            };
            Engine::start(wf.clone(), OperatorSet::new().updater(Touch), cfg, None).unwrap()
        })
        .collect();
    let remote_keys = (0..)
        .map(|i| Key::from(format!("probe-{i}")))
        .filter(|key| nodes[0].owner_machine("touch", key) == Some(1));
    let mut samples: Vec<u64> = Vec::with_capacity(probes);
    for (done, key) in remote_keys.take(probes).enumerate() {
        let t0 = Instant::now();
        nodes[0].submit(Event::new("S1", 1, key, "e")).expect("submit");
        while nodes[1].stats().processed <= done as u64 {
            assert!(t0.elapsed() < Duration::from_secs(10), "idle-hop probe never arrived");
            std::hint::spin_loop();
        }
        samples.push(t0.elapsed().as_micros() as u64);
        std::thread::sleep(Duration::from_millis(2)); // back to idle
    }
    for node in nodes {
        node.shutdown();
    }
    samples.sort_unstable();
    (samples[samples.len() / 2], samples[samples.len() * 99 / 100])
}

/// Counts deliveries; the wire microbenchmark's sink.
struct SinkHandler(AtomicU64);

impl ClusterHandler for SinkHandler {
    fn deliver_event(&self, _dest: MachineId, _ev: WireEvent) -> Result<(), NetError> {
        self.0.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
    fn handle_failure_report(&self, _failed: MachineId, _epoch: u64) {}
    fn handle_failure_broadcast(&self, _failed: MachineId, _epoch: u64) {}
    fn read_local_slate(&self, _d: MachineId, _u: &str, _k: &[u8]) -> Option<Vec<u8>> {
        None
    }
}

/// Raw wire throughput: push `n` default-sized events through one
/// `TcpTransport` sender to a counting sink, no engine in the way — the
/// wire itself is the bottleneck, so this isolates exactly what batching
/// amortizes (syscalls, CRCs, frame headers).
fn wire_throughput(n: usize, batch: BatchConfig) -> (Duration, u64) {
    let topology = Topology::loopback_ephemeral(2, false).expect("reserve ports");
    let source = TcpTransport::new_with_batching(topology.clone(), 0, batch).unwrap();
    let sink = TcpTransport::new(topology, 1).unwrap();
    let src_handler = Arc::new(SinkHandler(AtomicU64::new(0)));
    let sink_handler = Arc::new(SinkHandler(AtomicU64::new(0)));
    source.register(Arc::downgrade(&src_handler) as Weak<dyn ClusterHandler>);
    sink.register(Arc::downgrade(&sink_handler) as Weak<dyn ClusterHandler>);
    let _listener = sink.start_listener().expect("bind sink");

    // ~100-byte tweet-sized payload, a few dozen distinct keys. Built
    // before the timer starts: the measurement is the wire, not the
    // generator.
    let value = vec![b'x'; 100];
    let events: Vec<WireEvent> = (0..n)
        .map(|i| WireEvent {
            op: 0,
            event: Event::new("S1", i as u64, Key::from(format!("k-{}", i % 64)), value.clone()),
            injected_us: 0,
            redirected: false,
            external: true,
            thread_hint: None,
            forwards: 0,
        })
        .collect();
    let t0 = Instant::now();
    for ev in events {
        source.send_event(1, ev).expect("wire send");
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    while sink_handler.0.load(Ordering::Relaxed) < n as u64 {
        assert!(Instant::now() < deadline, "wire microbench never drained");
        std::thread::sleep(Duration::from_micros(200));
    }
    let elapsed = t0.elapsed();
    let frames = source.stats().frames_sent.load(Ordering::Relaxed);
    (elapsed, frames)
}

fn wire_json(name: &str, n: usize, elapsed: Duration, frames: u64) -> Json {
    Json::obj([
        ("mode", Json::str(name)),
        ("events", Json::num(n as f64)),
        ("wall_ms", Json::num(elapsed.as_secs_f64() * 1e3)),
        ("events_per_sec", Json::num(n as f64 / elapsed.as_secs_f64().max(1e-9))),
        ("frames_sent", Json::num(frames as f64)),
    ])
}

fn arm_json(name: &str, n: usize, o: &Outcome) -> Json {
    let secs = o.elapsed.as_secs_f64().max(1e-9);
    Json::obj([
        ("transport", Json::str(name)),
        ("processed", Json::num(o.processed as f64)),
        ("wall_ms", Json::num(o.elapsed.as_secs_f64() * 1e3)),
        ("events_per_sec", Json::num(n as f64 / secs)),
        ("p50_e2e_us", Json::num(o.p50_us as f64)),
        ("p99_e2e_us", Json::num(o.p99_us as f64)),
        ("frames_sent", Json::num(o.frames_sent as f64)),
        ("batches_sent", Json::num(o.batches_sent as f64)),
    ])
}

/// Run the experiment.
pub fn run(scale: Scale) {
    super::banner(
        "X15",
        "in-process vs TCP loopback, unbatched vs batched (hot_topics)",
        "§4.1 wire; muppet-net batching (DESIGN.md §5)",
    );
    let n = scale.events(30_000);
    let events: Vec<_> = TweetGenerator::new(42, 2_000, 40.0).take(hot_topics::TWEET_STREAM, n);

    let mut table = Table::new([
        "transport",
        "events",
        "wall time",
        "events/s (submit→quiesce)",
        "frames",
        "p50 e2e",
        "p99 e2e",
    ]);
    let mut row = |name: &str, o: &Outcome| {
        table.row([
            name.to_string(),
            o.processed.to_string(),
            format!("{:.2?}", o.elapsed),
            rate(n, o.elapsed),
            o.frames_sent.to_string(),
            us(o.p50_us),
            us(o.p99_us),
        ]);
    };

    // --- in-process wire (the regression baseline: numbers must not move
    // with batching changes, which never touch this path) ---
    let engine = Engine::start(hot_topics::workflow(), ops(), base_config(), None).unwrap();
    let inproc = drive(&engine, &[&engine], &events);
    assert!(inproc.drained, "in-process run did not quiesce");
    row("in-process", &inproc);
    engine.shutdown();

    // --- TCP loopback, one frame per event ---
    let unbatched = run_tcp_arm(&events, 1, 0);
    assert!(unbatched.drained, "unbatched TCP run did not quiesce");
    row("tcp-unbatched", &unbatched);

    // --- TCP loopback, default size/age batching ---
    let defaults = EngineConfig::default();
    let batched = run_tcp_arm(&events, defaults.net_batch_max, defaults.net_flush_us);
    assert!(batched.drained, "batched TCP run did not quiesce");
    row("tcp-batched", &batched);

    table.print();

    // --- a lone event's hop across an idle cluster, default policy ---
    let probes = 200;
    let (hop_p50, hop_p99) = idle_hop_latency_us(probes);
    println!(
        "\nidle hop (1 event, 2-node tcp-batched, flush_us = {}): p50 {}, p99 {} over {probes} probes",
        defaults.net_flush_us,
        us(hop_p50),
        us(hop_p99)
    );

    // --- raw wire microbenchmark: events/s through one sender, no engine
    // — the batching claim proper ---
    let n_wire = scale.events(200_000);
    let defaults_cfg = BatchConfig::default();
    let unbatched_cfg = BatchConfig { batch_max: 1, flush_us: 0, ..defaults_cfg };
    let (wire_unbatched, wire_unbatched_frames) = wire_throughput(n_wire, unbatched_cfg);
    let (wire_batched, wire_batched_frames) = wire_throughput(n_wire, defaults_cfg);
    let wire_speedup = wire_unbatched.as_secs_f64() / wire_batched.as_secs_f64().max(1e-9);
    let mut wire_table =
        Table::new(["wire (1 sender, 100B events)", "events", "wall time", "events/s", "frames"]);
    wire_table.row([
        "tcp-unbatched".to_string(),
        n_wire.to_string(),
        format!("{:.2?}", wire_unbatched),
        rate(n_wire, wire_unbatched),
        wire_unbatched_frames.to_string(),
    ]);
    wire_table.row([
        "tcp-batched".to_string(),
        n_wire.to_string(),
        format!("{:.2?}", wire_batched),
        rate(n_wire, wire_batched),
        wire_batched_frames.to_string(),
    ]);
    println!();
    wire_table.print();
    println!(
        "\nwire: batching delivers {wire_speedup:.1}× the unbatched event throughput \
         ({} frames vs {} for {n_wire} events)",
        wire_batched_frames, wire_unbatched_frames
    );
    // Gate CI on the deterministic coalescing ratio, not wall time (the
    // speedup is timing-dependent on loaded shared runners; the full-run
    // numbers live in the committed BENCH_x15.json).
    assert_eq!(wire_unbatched_frames, n_wire as u64, "unbatched = one frame per event");
    assert!(
        wire_batched_frames <= (n_wire as u64) / 8,
        "batching must coalesce substantially ({wire_batched_frames} frames for {n_wire} events)"
    );

    let speedup = unbatched.elapsed.as_secs_f64() / batched.elapsed.as_secs_f64().max(1e-9);
    let tcp_cost = batched.elapsed.as_secs_f64() / inproc.elapsed.as_secs_f64().max(1e-9);
    println!(
        "\nshape check: all transports process every delivered event; batching \
         coalesced {n} events into {} frames ({:.1}× fewer than unbatched) and \
         delivers {speedup:.1}× the unbatched TCP throughput; batched TCP pays \
         {tcp_cost:.1}× the in-process wall time (framing + syscalls + \
         cross-process hops; latency percentiles include remote queueing)",
        batched.frames_sent,
        unbatched.frames_sent as f64 / batched.frames_sent.max(1) as f64,
    );
    assert!(batched.processed > 0, "TCP cluster must process events");
    assert!(
        batched.batches_sent > 0,
        "the batched arm must actually coalesce (saw only single-event frames)"
    );

    // Record the trajectory point for CI (BENCH_x15.json in the working
    // directory — the Actions workflow runs from the repo root).
    let doc = Json::obj([
        ("experiment", Json::str("x15")),
        ("workload", Json::str("hot_topics tweets")),
        ("machines", Json::num(MACHINES as f64)),
        ("events", Json::num(n as f64)),
        (
            "arms",
            Json::arr([
                arm_json("in-process", n, &inproc),
                arm_json("tcp-unbatched", n, &unbatched),
                arm_json("tcp-batched", n, &batched),
            ]),
        ),
        (
            "wire",
            Json::arr([
                wire_json("tcp-unbatched", n_wire, wire_unbatched, wire_unbatched_frames),
                wire_json("tcp-batched", n_wire, wire_batched, wire_batched_frames),
            ]),
        ),
        (
            "idle_hop",
            Json::obj([
                ("transport", Json::str("tcp-batched")),
                ("probes", Json::num(probes as f64)),
                ("flush_us", Json::num(defaults.net_flush_us as f64)),
                ("p50_us", Json::num(hop_p50 as f64)),
                ("p99_us", Json::num(hop_p99 as f64)),
            ]),
        ),
        ("wire_batched_vs_unbatched_speedup", Json::num(wire_speedup)),
        ("pipeline_batched_vs_unbatched_speedup", Json::num(speedup)),
        ("batched_tcp_vs_inprocess_cost", Json::num(tcp_cost)),
    ]);
    match std::fs::write("BENCH_x15.json", doc.to_pretty() + "\n") {
        Ok(()) => println!("wrote BENCH_x15.json"),
        Err(e) => eprintln!("could not write BENCH_x15.json: {e}"),
    }
}

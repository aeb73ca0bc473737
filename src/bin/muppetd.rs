//! `muppetd` — one Muppet machine as a standalone OS process.
//!
//! Joins a static cluster (`--config <cluster.json>` or `--peers`) — or
//! an already-running one (`--join`, elastic scale-out) — runs the engine
//! for one of the bundled applications (`--app`; each declares its
//! workflow graph in code) over the TCP transport, and serves the §4.4
//! HTTP endpoints on its topology `http_port`:
//!
//! * `GET  /slate/<updater>/<key>`  — live slate read (cluster-wide: reads
//!   for keys owned by other machines cross the wire);
//! * `GET  /keys/<updater>`         — cached keys;
//! * `GET  /metrics`                — Prometheus text exposition: the §4.5
//!   status (counters, epoch, largest queue, per-stage latency
//!   histograms, hot-key top-k);
//! * `GET  /membership`             — the node's cluster view: epoch, staged
//!   epoch, ring members, failed machines, node list, master, founding
//!   size, store host (the JSON `--config` reads);
//! * `POST /submit/<stream>/<key>`  — ingest one event (body = value);
//! * `GET  /dlq`, `POST /dlq/retry`  — dead letters: list, re-inject;
//! * `POST /join` (master only)     — reserve a cluster id for a joiner;
//!   answers the cluster view with the reserved `id`.
//!
//! Example 3-node loopback cluster:
//!
//! ```sh
//! cargo run --release --bin muppetd -- --peers \
//!     127.0.0.1:9100:8100,127.0.0.1:9101:8101,127.0.0.1:9102:8102 --node 0 &
//! # ... same with --node 1 and --node 2 ...
//! curl -X POST --data-binary '{"topics":["sports"]}' http://127.0.0.1:8100/submit/S1/k1
//! curl http://127.0.0.1:8102/metrics
//! ```
//!
//! `--config` reads a cluster document, such as a saved `/membership`
//! body: its nodes, its master and its store host (an explicit
//! `--store-host` wins). A flag value that does not parse exits 2 with
//! a message naming the flag and the value. DESIGN.md's knob table
//! sorts every flag.
//!
//! Growing the running cluster by a 4th machine (DESIGN.md §7):
//!
//! ```sh
//! cargo run --release --bin muppetd -- \
//!     --join 127.0.0.1:8100 --listen 127.0.0.1:9103:8103
//! ```
//!
//! The joiner reserves an id at the master's HTTP `/join`, starts its
//! engine (listener live, outside every ring), then announces itself on
//! the wire; the master's epoch-stamped membership update installs it
//! everywhere, with moved slates handed off through the slate store.
//!
//! The failure master (§4.3) runs on the topology's `master` node (default
//! node 0). Kill any other node and keep submitting: the senders report
//! the dead machine, the master broadcasts, and `/membership` on every
//! surviving node shows it under `failed`.
//!
//! The event wire batches: outbound events coalesce into `Events`
//! frames per peer, flushed at 128 events or when their producer has
//! nothing more to add, with a 1 ms age ceiling for events nobody asks to
//! flush (constants; see DESIGN.md §5 "Batching and backpressure").
//!
//! `--wire-codec` picks what this node writes: MBF slates at rest
//! (`auto`, the default), text (`json`), or MBF at rest and at ingest
//! (`mbf`). The wire carries every value as its writer tagged it and every
//! reader sniffs, so nodes of different choices share a cluster
//! (DESIGN.md §13).

use std::sync::Arc;

use muppet::apps::{hot_topics, retailer};
use muppet::core::workflow::Workflow;
use muppet::prelude::*;
use muppet::runtime::engine::{OperatorSet, TransportKind};
use muppet::runtime::http::http_post;
use muppet::slatestore::cluster::{StoreCluster, StoreConfig};
use muppet_net::topology::{ClusterView, Topology};

/// The parsed command line: the engine's configuration (an elastic
/// join's grant included), and what the engine does not take.
struct Options {
    cfg: EngineConfig,
    topology: Topology,
    node: usize,
    app: String,
    data_dir: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: muppetd (--config <cluster.json> | --peers <host:port:http,...>) --node <id>
           [--app hot_topics|retailer] [--engine muppet1|muppet2]
           [--workers <n>] [--store-host <id>] [--data-dir <path>] [--master <id>]
           [--ingest-wal <path>]
           [--wire-codec auto|json|mbf]   (what this node writes)
           [--combine on|off] [--hot-split-threshold <events>]
           [--log-level debug|info|warn|error|off] [--log-json]
       muppetd --join <master-host:http_port> --listen <host:port[:http_port]>
           [--app ...] [--engine ...] [--workers ...] [--store-host <id>] [...]"
    );
    std::process::exit(2)
}

fn fail(msg: String) -> ! {
    eprintln!("muppetd: {msg}");
    std::process::exit(2)
}

/// `value` read as a `T`, or exit 2 naming the flag, what it wants and
/// what it got.
fn parsed<T: std::str::FromStr>(flag: &str, want: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| fail(format!("{flag} wants {want}, got {value:?}")))
}

/// Reserve an id at the running cluster's master and read the grant.
fn reserve_join(master_http: &str, listen: &str) -> (usize, ClusterView) {
    let url = format!("http://{master_http}/join");
    let (code, body) = http_post(&url, listen.as_bytes())
        .unwrap_or_else(|e| fail(format!("cannot reach master at {url}: {e}")));
    let body = String::from_utf8_lossy(&body);
    if code != 200 {
        fail(format!("master refused the join: {body}"));
    }
    let grant = ClusterView::from_json(&body)
        .unwrap_or_else(|e| fail(format!("unreadable join grant: {e}: {body}")));
    let Some(id) = grant.id else { fail(format!("join grant without an id: {body}")) };
    (id, grant)
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Unlike library embeddings (silent by default), a daemon logs its
    // operational incidents.
    let mut cfg =
        EngineConfig { workers_per_op: 4, log_level: Level::Info, ..EngineConfig::default() };
    let mut topology: Option<Topology> = None;
    let mut node: Option<usize> = None;
    let mut app = "hot_topics".to_string();
    let mut data_dir = None;
    let mut master: Option<usize> = None;
    let mut document_store_host = None;
    let mut join: Option<String> = None;
    let mut listen: Option<String> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match flag {
            "--config" => {
                // A cluster document: a saved `/membership` body, or one
                // listing only `nodes` (and `master`, `store_host`).
                let path = value();
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
                let view = ClusterView::from_json(&text)
                    .unwrap_or_else(|e| fail(format!("bad config {path}: {e}")));
                topology = Some(view.topology);
                document_store_host = view.store_host;
            }
            "--peers" => {
                topology = Some(Topology::from_peer_list(value()).unwrap_or_else(|e| {
                    fail(format!("bad --peers: {e}"));
                }));
            }
            "--node" => node = Some(parsed(flag, "a node id", value())),
            "--join" => join = Some(value().to_string()),
            "--listen" => listen = Some(value().to_string()),
            "--app" => app = value().to_string(),
            "--engine" => {
                cfg.kind = match value() {
                    "muppet1" | "1" => EngineKind::Muppet1,
                    "muppet2" | "2" => EngineKind::Muppet2,
                    other => fail(format!("--engine wants muppet1|muppet2, got {other:?}")),
                }
            }
            "--workers" => {
                cfg.workers_per_machine = parsed(flag, "a thread count", value());
                cfg.workers_per_op = cfg.workers_per_machine;
            }
            "--log-level" => {
                let level = value();
                cfg.log_level = Level::parse(level).unwrap_or_else(|| {
                    fail(format!("--log-level wants debug|info|warn|error|off, got {level:?}"))
                })
            }
            "--log-json" => cfg.log_json = true,
            "--ingest-wal" => cfg.ingest_wal = Some(value().into()),
            "--wire-codec" => cfg.wire_codec = parsed(flag, "auto|json|mbf", value()),
            "--combine" => {
                cfg.combine = match value() {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    other => fail(format!("--combine wants on|off, got {other:?}")),
                }
            }
            "--hot-split-threshold" => {
                cfg.hot_split_threshold = parsed(flag, "an event count", value())
            }
            "--store-host" => cfg.store_host = Some(parsed(flag, "a node id", value())),
            "--data-dir" => data_dir = Some(value().to_string()),
            "--master" => master = Some(parsed(flag, "a node id", value())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("muppetd: unknown flag {other:?}");
                usage()
            }
        }
    }

    // A cluster document (the join grant or `--config`) names the store
    // host unless `--store-host` overrides it.
    let (topology, node) = match join {
        Some(master_http) => {
            // Elastic join: the grant supplies topology, id, epoch state.
            let listen = listen.unwrap_or_else(|| fail("--join requires --listen".to_string()));
            let (id, grant) = reserve_join(&master_http, &listen);
            cfg.store_host = cfg.store_host.or(grant.store_host);
            let topology = grant.topology.clone();
            cfg.joining = Some(grant);
            (topology, id)
        }
        None => {
            let mut topology = topology.unwrap_or_else(|| usage());
            if let Some(m) = master {
                topology.master = m;
            }
            let node = node.unwrap_or_else(|| usage());
            cfg.store_host = cfg.store_host.or(document_store_host);
            let n = topology.len();
            let ids =
                [("--node", Some(node)), ("--master", master), ("--store-host", cfg.store_host)];
            for (flag, id) in ids {
                if let Some(id) = id.filter(|&id| id >= n) {
                    fail(format!("{flag} {id} not in topology of {n} nodes"));
                }
            }
            (topology, node)
        }
    };
    cfg.machines = topology.len();
    cfg.transport = TransportKind::Tcp { topology: topology.clone(), local: node };
    Options { cfg, topology, node, app, data_dir }
}

fn app_workflow_and_ops(app: &str) -> (Workflow, OperatorSet) {
    match app {
        "hot_topics" => (
            hot_topics::workflow(),
            OperatorSet::new()
                .mapper(hot_topics::TopicMapper::new())
                .updater(hot_topics::MinuteCounter::new())
                .updater(hot_topics::HotDetector::new(3.0)),
        ),
        "retailer" => (
            retailer::workflow(),
            OperatorSet::new()
                .mapper(retailer::RetailerMapper::new())
                .updater(retailer::Counter::new()),
        ),
        other => {
            eprintln!("muppetd: unknown app {other:?} (have: hot_topics, retailer)");
            std::process::exit(2)
        }
    }
}

/// SIGTERM latch. Rust's std installs no handlers of its own; the raw
/// libc `signal` (std already links libc) is all a flag flip needs, and
/// a flag flip is all that is async-signal-safe anyway.
static TERM: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_term(_signum: i32) {
    TERM.store(true, std::sync::atomic::Ordering::Release);
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

const SIGTERM: i32 = 15;

fn main() {
    let Options { cfg, topology, node, app, data_dir } = parse_args();
    let (workflow, ops) = app_workflow_and_ops(&app);

    // The store service: the hosting node opens a real cluster on disk;
    // other nodes reach it through the transport's store frames.
    let store: Option<Arc<StoreCluster>> = match cfg.store_host {
        Some(host) if host == node => {
            let dir = data_dir.unwrap_or_else(|| {
                format!("{}/muppetd-node{}", std::env::temp_dir().display(), node)
            });
            // With an ingest WAL the store IS the checkpoint: the replay
            // cursor is only as durable as the store's own WAL, so sync
            // its appends too.
            // An MBF-storing node also rewrites pre-upgrade JSON cells to
            // MBF as compaction touches them, so an upgraded cluster
            // converges to binary at rest without a migration pass.
            let store_cfg = StoreConfig {
                wal_sync_each: cfg.ingest_wal.is_some(),
                compact_rewrite_mbf: cfg.wire_codec.store_codec() == Codec::Mbf,
                ..StoreConfig::default()
            };
            match StoreCluster::open(&dir, store_cfg) {
                Ok(cluster) => Some(Arc::new(cluster)),
                Err(e) => {
                    eprintln!("muppetd: cannot open store at {dir}: {e:?}");
                    std::process::exit(1)
                }
            }
        }
        _ => None,
    };

    let node_spec = &topology.nodes[node];
    let (kind, joining, durable) = (cfg.kind, cfg.joining.is_some(), cfg.ingest_wal.is_some());
    let engine = match Engine::start(workflow, ops, cfg, store) {
        Ok(engine) => Arc::new(engine),
        Err(e) => {
            eprintln!("muppetd: engine failed to start: {e}");
            std::process::exit(1)
        }
    };

    let http = if node_spec.http_port != 0 {
        let addr = format!("{}:{}", node_spec.host, node_spec.http_port);
        match HttpSlateServer::serve_on(
            Arc::clone(&engine) as Arc<dyn muppet::runtime::http::SlateReader>,
            &addr,
        ) {
            Ok(server) => Some(server),
            Err(e) => {
                eprintln!("muppetd: cannot bind http on {addr}: {e}");
                std::process::exit(1)
            }
        }
    } else {
        None
    };

    // Elastic join: the listener is live — announce readiness; the
    // master's prepare/commit installs this machine into every ring.
    // Delivery of the announcement is NOT the join: the master's
    // protocol can still abort (a worker's prepare un-acked), so wait
    // until this node actually appears in its own committed ring and
    // re-announce if it does not. A node that silently sits outside
    // every ring is worse than one that exits loudly.
    if joining {
        let mut joined = false;
        'announce: for attempt in 0..5 {
            if attempt > 0 {
                std::thread::sleep(std::time::Duration::from_secs(1));
            }
            if let Err(e) = engine.announce_join() {
                eprintln!("muppetd: join announcement attempt {attempt} failed: {e}");
                continue;
            }
            // The commit normally lands within milliseconds; give the
            // cluster-wide flush barrier a generous window.
            for _ in 0..100 {
                if engine.ring_contains(node) {
                    joined = true;
                    break 'announce;
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
        }
        if !joined {
            eprintln!("muppetd: join never committed (this node is outside every ring); giving up");
            std::process::exit(1)
        }
    }

    // Restart re-identification (DESIGN.md §11): a durable node coming
    // back up announces itself to the master under its old id, so the
    // §4.3 death recorded against the previous incarnation is cleared
    // and the old ring position restored. Best-effort with retries: at
    // cluster bootstrap the master may simply not be up yet, and a fresh
    // (never-crashed) start is a no-op on the master.
    if durable && !joining {
        for attempt in 0..3 {
            if attempt > 0 {
                std::thread::sleep(std::time::Duration::from_millis(500));
            }
            match engine.announce_restart() {
                Ok(()) => break,
                Err(e) => {
                    eprintln!("muppetd: restart announcement attempt {attempt} failed: {e}")
                }
            }
        }
    }

    println!(
        "muppetd: node {}/{} ({}) listening on {}:{}{} app={} engine={:?} master={}{}",
        node,
        topology.len(),
        if topology.master == node { "master" } else { "worker" },
        node_spec.host,
        node_spec.port,
        http.as_ref().map(|h| format!(" http={}", h.port())).unwrap_or_default(),
        app,
        kind,
        topology.master,
        if joining { " (joined live)" } else { "" },
    );
    // Flush the ready line so supervisors (and the e2e test) can wait on it.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Serve until killed. SIGTERM is the clean-shutdown path: drain the
    // queues, flush every dirty slate, fsync the ingest WAL, persist the
    // replay cursor, exit 0 — the next start replays zero events. SIGKILL
    // (or a crash) skips all of that; the next start replays the WAL tail
    // past the last checkpoint instead.
    unsafe { signal(SIGTERM, on_term) };
    loop {
        if TERM.load(std::sync::atomic::Ordering::Acquire) {
            eprintln!("muppetd: SIGTERM — checkpointing");
            if engine.checkpoint(std::time::Duration::from_secs(10)) {
                std::process::exit(0);
            }
            eprintln!("muppetd: checkpoint incomplete; restart will replay the WAL tail");
            std::process::exit(1);
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}

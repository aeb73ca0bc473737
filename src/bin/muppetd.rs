//! `muppetd` — one Muppet machine as a standalone OS process.
//!
//! Joins a static cluster (TOML config or `--peers` flag) — or an
//! already-running one (`--join`, elastic scale-out) — runs the engine
//! for one of the bundled applications over the TCP transport, and
//! serves the §4.4 HTTP endpoints on its topology `http_port`:
//!
//! * `GET  /slate/<updater>/<key>`  — live slate read (cluster-wide: reads
//!   for keys owned by other machines cross the wire);
//! * `GET  /keys/<updater>`         — cached keys;
//! * `GET  /status`                 — engine counters + epoch + failures;
//! * `GET  /metrics`                — Prometheus text exposition (counters,
//!   per-stage latency histograms, hot-key top-k);
//! * `GET  /membership`             — epoch, staged epoch, ring members,
//!   node list, failed machines;
//! * `POST /submit/<stream>/<key>`  — ingest one event (body = value);
//! * `POST /join` (master only)     — reserve a cluster id for a joiner.
//!
//! Example 3-node loopback cluster:
//!
//! ```sh
//! cargo run --release --bin muppetd -- --peers \
//!     127.0.0.1:9100:8100,127.0.0.1:9101:8101,127.0.0.1:9102:8102 --node 0 &
//! # ... same with --node 1 and --node 2 ...
//! curl -X POST --data-binary '{"topics":["sports"]}' http://127.0.0.1:8100/submit/S1/k1
//! curl http://127.0.0.1:8102/status
//! ```
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
//! the dead machine, the master broadcasts, and `/status` on every
//! surviving node shows it under `failed_machines`.
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
use muppet::runtime::engine::{ClusterView, JoinGrant, OperatorSet, TransportKind};
use muppet::runtime::http::http_post;
use muppet::slatestore::cluster::{StoreCluster, StoreConfig};
use muppet_net::topology::Topology;

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
        "usage: muppetd (--config <cluster.toml> | --peers <host:port:http,...>) --node <id>
           [--app hot_topics|retailer] [--engine muppet1|muppet2]
           [--workers <n>] [--store-host <id>] [--data-dir <path>] [--master <id>]
           [--latency-sample-n <n>]
           [--ingest-wal <path>] [--ingest-sync each|group]
           [--wire-codec auto|json|mbf]   (what this node writes)
           [--combine on|off] [--hot-split-threshold <events>]
           [--log-level debug|info|warn|error|off] [--log-json]
       muppetd --join <master-host:http_port> --listen <host:port:http_port>
           [--app ...] [--engine ...] [--workers ...] [--store-host <id>] [...]"
    );
    std::process::exit(2)
}

fn fail(msg: String) -> ! {
    eprintln!("muppetd: {msg}");
    std::process::exit(2)
}

/// Reserve an id at the running cluster's master and parse the grant.
fn reserve_join(master_http: &str, listen: &str) -> JoinGrant {
    let fields: Vec<&str> = listen.split(':').collect();
    if fields.len() != 3 {
        fail(format!("--listen wants host:port:http_port, got '{listen}'"));
    }
    let url = format!("http://{master_http}/join");
    let (code, body) = http_post(&url, listen.as_bytes())
        .unwrap_or_else(|e| fail(format!("cannot reach master at {url}: {e}")));
    let body = String::from_utf8_lossy(&body).to_string();
    if code != 200 {
        fail(format!("master refused the join: {body}"));
    }
    // Grant: "id=N epoch=E base=B failed=a,b members=a,b\n" + topology
    // TOML.
    let (header, toml) =
        body.split_once('\n').unwrap_or_else(|| fail(format!("malformed grant: {body}")));
    let parse_list = |v: &str| -> Vec<usize> {
        v.split(',').filter(|s| !s.is_empty()).filter_map(|s| s.parse().ok()).collect()
    };
    let mut id = None;
    let mut epoch = None;
    let mut base = None;
    let mut failed = Vec::new();
    let mut members: Option<Vec<usize>> = None;
    let mut store_host = None;
    for part in header.split_whitespace() {
        match part.split_once('=') {
            Some(("id", v)) => id = v.parse().ok(),
            Some(("epoch", v)) => epoch = v.parse().ok(),
            Some(("base", v)) => base = v.parse().ok(),
            Some(("failed", v)) => failed = parse_list(v),
            Some(("members", v)) => members = Some(parse_list(v)),
            Some(("store_host", v)) => store_host = v.parse().ok(),
            _ => {}
        }
    }
    let (Some(id), Some(epoch), Some(base), Some(members)) = (id, epoch, base, members) else {
        fail(format!("malformed grant header: {header}"))
    };
    let topology =
        Topology::from_toml_str(toml).unwrap_or_else(|e| fail(format!("bad grant topology: {e}")));
    JoinGrant { id, view: ClusterView { base, epoch, failed, members }, topology, store_host }
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
    let mut join: Option<String> = None;
    let mut listen: Option<String> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match flag.as_str() {
            "--config" => {
                let path = value();
                let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                    fail(format!("cannot read {path}: {e}"));
                });
                topology = Some(Topology::from_toml_str(&text).unwrap_or_else(|e| {
                    fail(format!("bad config {path}: {e}"));
                }));
            }
            "--peers" => {
                topology = Some(Topology::from_peer_list(value()).unwrap_or_else(|e| {
                    fail(format!("bad --peers: {e}"));
                }));
            }
            "--node" => node = value().parse().ok(),
            "--join" => join = Some(value().to_string()),
            "--listen" => listen = Some(value().to_string()),
            "--app" => app = value().to_string(),
            "--engine" => {
                cfg.kind = match value() {
                    "muppet1" | "1" => EngineKind::Muppet1,
                    "muppet2" | "2" => EngineKind::Muppet2,
                    other => {
                        eprintln!("muppetd: unknown engine {other:?}");
                        usage()
                    }
                }
            }
            "--workers" => {
                cfg.workers_per_machine = value().parse().unwrap_or(4);
                cfg.workers_per_op = cfg.workers_per_machine;
            }
            "--latency-sample-n" => {
                cfg.latency_sample_n = value().parse().unwrap_or_else(|_| {
                    eprintln!("muppetd: --latency-sample-n wants an event count");
                    usage()
                })
            }
            "--log-level" => {
                cfg.log_level = Level::parse(value()).unwrap_or_else(|| {
                    eprintln!("muppetd: --log-level wants debug|info|warn|error|off");
                    usage()
                })
            }
            "--log-json" => cfg.log_json = true,
            "--ingest-wal" => cfg.ingest_wal = Some(value().into()),
            "--ingest-sync" => {
                cfg.ingest_sync_each = match value() {
                    "each" => true,
                    "group" => false,
                    other => {
                        eprintln!("muppetd: --ingest-sync wants each|group, got {other:?}");
                        usage()
                    }
                }
            }
            "--wire-codec" => {
                cfg.wire_codec = value().parse().unwrap_or_else(|_| {
                    eprintln!("muppetd: --wire-codec wants auto|json|mbf");
                    usage()
                })
            }
            "--combine" => {
                cfg.combine = match value() {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    other => {
                        eprintln!("muppetd: --combine wants on|off, got {other:?}");
                        usage()
                    }
                }
            }
            "--hot-split-threshold" => {
                cfg.hot_split_threshold = value().parse().unwrap_or_else(|_| {
                    eprintln!("muppetd: --hot-split-threshold wants an event count");
                    usage()
                })
            }
            "--store-host" => cfg.store_host = value().parse().ok(),
            "--data-dir" => data_dir = Some(value().to_string()),
            "--master" => master = value().parse().ok(),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("muppetd: unknown flag {other:?}");
                usage()
            }
        }
    }

    let (topology, node) = match join {
        Some(master_http) => {
            // Elastic join: the grant supplies topology, id, epoch state —
            // and the cluster's store host, unless overridden explicitly.
            let listen = listen.unwrap_or_else(|| fail("--join requires --listen".to_string()));
            let grant = reserve_join(&master_http, &listen);
            cfg.store_host = cfg.store_host.or(grant.store_host);
            cfg.joining = Some(grant.view);
            (grant.topology, grant.id)
        }
        None => {
            let mut topology = topology.unwrap_or_else(|| usage());
            if let Some(m) = master {
                topology.master = m;
            }
            let node = node.unwrap_or_else(|| usage());
            if node >= topology.len() {
                fail(format!("--node {node} not in topology of {} nodes", topology.len()));
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

//! Crash recovery end-to-end (DESIGN.md §11): the ingest WAL logs every
//! accepted event before a worker sees it and makes it durable before the
//! submit is acked, so a `kill -9` loses nothing — the restarted node replays the uncheckpointed WAL suffix and
//! converges to the exact counts the single-threaded reference model
//! produces. SIGTERM is the clean path: checkpoint, exit 0, zero replay.
//! Poison events (a panicking updater) never kill a worker — they park in
//! the dead-letter queue and can be retried once the operator is fixed.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

mod common;

use muppet::apps::retailer;
use muppet::core::Error;
use muppet::net::topology::Topology;
use muppet::prelude::*;
use muppet::runtime::engine::OperatorSet;
use muppet::runtime::http::percent_encode;
use muppet::runtime::ingestlog::{IngestLog, SyncFn};
use muppet::slatestore::util::TempDir;

fn http(method: &str, port: u16, path: &str, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(("127.0.0.1", port))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let code: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status"))?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap_or(0);
        }
    }
    let mut body = vec![0u8; content_length];
    std::io::Read::read_exact(&mut reader, &mut body)?;
    Ok((code, body))
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !cond() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    true
}

/// The checkin bodies the test ingests: five recognized retailers plus one
/// venue the mapper drops.
const VENUES: [&str; 6] =
    ["Wal-Mart Supercenter", "Sam's Club", "Best Buy", "Target", "JCPenney", "Joe's Coffee"];

fn checkin(i: usize) -> String {
    format!(r#"{{"user":"u{i}","venue":{{"name":"{}"}}}}"#, VENUES[i % VENUES.len()])
}

/// Expected per-retailer counts for `checkin(0..n)`, from the golden
/// single-threaded model — the restart must be bit-exact against these.
fn reference_counts(n: usize) -> Vec<(String, u64)> {
    let wf = retailer::workflow();
    let mut exec = ReferenceExecutor::new(&wf);
    exec.register_mapper(retailer::RetailerMapper::new());
    exec.register_updater(retailer::Counter::new());
    for i in 0..n {
        exec.push_external(
            retailer::CHECKIN_STREAM,
            Event::new(retailer::CHECKIN_STREAM, i as u64, Key::from(format!("u{i}")), checkin(i)),
        );
    }
    exec.run_to_completion().unwrap();
    exec.slates_of(retailer::COUNTER)
        .into_iter()
        .map(|(key, slate)| (String::from_utf8(key.as_bytes().to_vec()).unwrap(), slate.counter()))
        .collect()
}

struct Node {
    child: Option<Child>,
}

impl Drop for Node {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Node {
    /// SIGKILL — the crash under test.
    fn kill9(&mut self) {
        let mut child = self.child.take().unwrap();
        child.kill().unwrap();
        child.wait().unwrap();
    }

    /// SIGTERM — the clean-shutdown path. Returns the exit status.
    fn sigterm(&mut self) -> std::process::ExitStatus {
        let mut child = self.child.take().unwrap();
        let pid = child.id().to_string();
        let ok = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .map(|s| s.success())
            .unwrap_or(false);
        assert!(ok, "could not deliver SIGTERM to pid {pid}");
        child.wait().unwrap()
    }
}

/// Spawn a single-machine `muppetd` with a durable ingest WAL and wait for
/// its HTTP endpoint. `peers` pins the ports so a restart reuses them.
fn spawn_node(peers: &str, http_port: u16, data_dir: &str, wal: &str) -> Node {
    let child = Command::new(env!("CARGO_BIN_EXE_muppetd"))
        .args([
            "--peers",
            peers,
            "--node",
            "0",
            "--app",
            "retailer",
            "--store-host",
            "0",
            "--data-dir",
            data_dir,
            "--ingest-wal",
            wal,
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn muppetd");
    let mut node = Node { child: Some(child) };
    let ready = wait_until(Duration::from_secs(20), || {
        if let Some(child) = node.child.as_mut() {
            if let Ok(Some(status)) = child.try_wait() {
                panic!("muppetd exited before becoming ready: {status}");
            }
        }
        matches!(http("GET", http_port, "/status", b""), Ok((200, _)))
    });
    assert!(ready, "muppetd never became ready on http port {http_port}");
    node
}

fn slate_count(port: u16, retailer_name: &str) -> Option<String> {
    let path = format!("/slate/{}/{}", retailer::COUNTER, percent_encode(retailer_name.as_bytes()));
    match http("GET", port, &path, b"") {
        Ok((200, body)) => Some(String::from_utf8(body).unwrap()),
        _ => None,
    }
}

fn counts_match(port: u16, expected: &[(String, u64)]) -> bool {
    expected.iter().all(|(r, n)| slate_count(port, r).as_deref() == Some(n.to_string().as_str()))
}

#[test]
fn kill_minus_9_mid_ingest_then_restart_replays_to_bit_exact_counts() {
    const N: usize = 120;
    let dir = TempDir::new("crash-recovery").unwrap();
    let data_dir = dir.path().join("store");
    let wal = dir.path().join("ingest.log");
    let topology = muppet::net::Topology::loopback_ephemeral(1, true).unwrap();
    let spec = &topology.nodes[0];
    let peers = format!("{}:{}:{}", spec.host, spec.port, spec.http_port);
    let port = spec.http_port;

    let mut node = spawn_node(&peers, port, data_dir.to_str().unwrap(), wal.to_str().unwrap());

    // Every POST below is acked only after the event is durable in the
    // ingest WAL — so nothing acked here may be missing after the crash.
    for i in 0..N {
        let (code, body) =
            http("POST", port, &format!("/submit/S1/u{i}"), checkin(i).as_bytes()).unwrap();
        assert_eq!(code, 200, "{}", String::from_utf8_lossy(&body));
    }

    // Crash hard, mid-ingest: no drain, no flush, no checkpoint.
    node.kill9();

    // Restart on the same ports, same store, same WAL.
    let node2 = spawn_node(&peers, port, data_dir.to_str().unwrap(), wal.to_str().unwrap());

    // The node replayed the un-checkpointed suffix (everything: the crash
    // preceded any checkpoint) ...
    let (code, status) = http("GET", port, "/status", b"").unwrap();
    assert_eq!(code, 200);
    let status = String::from_utf8(status).unwrap();
    assert!(
        status.contains(&format!("\"recovered_replayed\":{N}")),
        "expected a full replay of {N} events in {status}"
    );
    // ... and converges to the reference model's exact counts.
    let expected = reference_counts(N);
    assert!(!expected.is_empty());
    assert!(
        wait_until(Duration::from_secs(20), || counts_match(port, &expected)),
        "replayed counts never matched the reference: expected {expected:?}"
    );
    drop(node2);
}

#[test]
fn sigterm_checkpoints_exits_zero_and_restart_replays_nothing() {
    const N: usize = 90;
    let dir = TempDir::new("sigterm-checkpoint").unwrap();
    let data_dir = dir.path().join("store");
    let wal = dir.path().join("ingest.log");
    let topology = muppet::net::Topology::loopback_ephemeral(1, true).unwrap();
    let spec = &topology.nodes[0];
    let peers = format!("{}:{}:{}", spec.host, spec.port, spec.http_port);
    let port = spec.http_port;

    let mut node = spawn_node(&peers, port, data_dir.to_str().unwrap(), wal.to_str().unwrap());
    for i in 0..N {
        let (code, _) =
            http("POST", port, &format!("/submit/S1/u{i}"), checkin(i).as_bytes()).unwrap();
        assert_eq!(code, 200);
    }
    let expected = reference_counts(N);
    assert!(
        wait_until(Duration::from_secs(20), || counts_match(port, &expected)),
        "counts never converged before the SIGTERM"
    );

    // Clean shutdown: drain + flush + cursor + fsync, then exit 0.
    let status = node.sigterm();
    assert_eq!(status.code(), Some(0), "SIGTERM must exit 0 after a clean checkpoint");

    // The restart finds the cursor at the WAL's end: zero replay.
    let node2 = spawn_node(&peers, port, data_dir.to_str().unwrap(), wal.to_str().unwrap());
    let (_, status) = http("GET", port, "/status", b"").unwrap();
    let status = String::from_utf8(status).unwrap();
    assert!(
        status.contains("\"recovered_replayed\":0"),
        "a checkpointed restart must replay nothing: {status}"
    );

    // Exactly-once across the restart: one more Walmart checkin continues
    // the persisted count — no duplicate replay inflated it.
    let walmart_before = expected.iter().find(|(r, _)| r == "Walmart").map(|(_, n)| *n).unwrap();
    let (code, _) = http("POST", port, "/submit/S1/after", checkin(0).as_bytes()).unwrap();
    assert_eq!(code, 200);
    assert!(
        wait_until(Duration::from_secs(20), || slate_count(port, "Walmart").as_deref()
            == Some((walmart_before + 1).to_string().as_str())),
        "post-restart count must continue exactly from the checkpointed value"
    );
    drop(node2);
}

// ---------------------------------------------------------------------------
// Engine-level recovery: in-process machines, full control of the WAL file.
// ---------------------------------------------------------------------------

/// A per-key decimal counter with full control over inputs.
struct CountUpdater;

impl Updater for CountUpdater {
    fn name(&self) -> &str {
        "counter"
    }
    fn update(&self, _ctx: &mut dyn Emitter, _event: &Event, slate: &mut Slate) {
        let n = slate.as_str().and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
        slate.replace((n + 1).to_string().into_bytes());
    }
}

fn count_workflow() -> Workflow {
    let mut b = Workflow::builder("crash-count");
    b.external_stream("S1");
    b.updater("counter", &["S1"]);
    b.build().unwrap()
}

fn count_config(wal: &std::path::Path) -> EngineConfig {
    EngineConfig {
        machines: 2,
        workers_per_machine: 2,
        ingest_wal: Some(wal.to_path_buf()),
        ..EngineConfig::default()
    }
}

fn count_engine(wal: &std::path::Path) -> Engine {
    let ops = OperatorSet::new().updater(CountUpdater);
    Engine::start(count_workflow(), ops, count_config(wal), None).unwrap()
}

#[test]
fn wal_replay_reproduces_reference_counts_and_truncates_a_torn_tail() {
    const KEYS: usize = 10;
    const PER_KEY: usize = 12;
    let dir = TempDir::new("engine-replay").unwrap();
    let wal = dir.file("ingest.log");

    // The reference slates for the same event sequence.
    let wf = count_workflow();
    let mut exec = ReferenceExecutor::new(&wf);
    exec.register_updater(CountUpdater);
    let events: Vec<Event> = (0..KEYS * PER_KEY)
        .map(|i| Event::new("S1", i as u64, Key::from(format!("k-{}", i % KEYS)), "e"))
        .collect();
    for ev in &events {
        exec.push_external("S1", ev.clone());
    }
    exec.run_to_completion().unwrap();

    // First life: ingest everything (each submit is WAL-durable), then
    // shut down. Without a store there is nowhere to persist the replay
    // cursor, so the next start replays the whole log — the §4.3 "machine
    // reborn from its log" posture.
    let e1 = count_engine(&wal);
    for ev in &events {
        e1.submit(ev.clone()).unwrap();
    }
    assert!(e1.drain(Duration::from_secs(20)));
    e1.shutdown();

    // Torn tail: a crash mid-append leaves a partial frame. Recovery must
    // truncate it, replay the intact prefix, and keep appending cleanly.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(&[0xde, 0xad, 0xbe]).unwrap();
    }

    let e2 = count_engine(&wal);
    assert_eq!(e2.recovered_replayed(), (KEYS * PER_KEY) as u64, "full replay expected");
    let all_match = wait_until(Duration::from_secs(20), || {
        (0..KEYS).all(|k| {
            let key = Key::from(format!("k-{k}"));
            let reference = exec.slate("counter", &key).unwrap();
            e2.read_slate("counter", &key).as_deref() == Some(reference.bytes())
        })
    });
    assert!(all_match, "replayed slates must be bit-exact against the reference model");

    // The truncated log accepts new appends: one more event, one more
    // record, and the count advances.
    e2.submit(Event::new("S1", 10_000, Key::from("k-0"), "e")).unwrap();
    assert!(e2.drain(Duration::from_secs(10)));
    assert_eq!(e2.ingest_wal().unwrap().written, (KEYS * PER_KEY + 1) as u64);
    assert_eq!(
        e2.read_slate("counter", &Key::from("k-0")).as_deref(),
        Some((PER_KEY + 1).to_string().as_bytes())
    );
    e2.shutdown();
}

// ---------------------------------------------------------------------------
// Logged, dispatched, then durable: the WAL's sync step behind the test seam.
// ---------------------------------------------------------------------------

/// A sync step that reports each entry on the returned receiver, then
/// blocks until the test sends a token; dropping the sender fails it.
fn gated_sync() -> (SyncFn, mpsc::Receiver<()>, mpsc::Sender<()>) {
    let (entered_tx, entered_rx) = mpsc::channel();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let gate_rx = muppet::core::sync::Mutex::new(gate_rx);
    let sync: SyncFn = Box::new(move || {
        entered_tx.send(()).unwrap();
        gate_rx.lock().recv().map_err(std::io::Error::other)
    });
    (sync, entered_rx, gate_tx)
}

const GATED_KEYS: usize = 8;

/// 64 events over [`GATED_KEYS`] keys: every key ends at count 8.
fn gated_frame() -> Vec<Event> {
    (0..64)
        .map(|i| Event::new("S1", i as u64, Key::from(format!("k-{}", i % GATED_KEYS)), "e"))
        .collect()
}

fn all_keys_count_eight(engine: &Engine) -> bool {
    (0..GATED_KEYS).all(|k| {
        engine.read_slate("counter", &Key::from(format!("k-{k}"))).as_deref() == Some(b"8".as_ref())
    })
}

/// A store-backed count engine on `wal`, optionally with its sync step
/// replaced.
fn stored_count_engine(
    wal: &std::path::Path,
    store: &Arc<StoreCluster>,
    sync: Option<SyncFn>,
) -> Arc<Engine> {
    Arc::new(
        Engine::start_with_ingest_sync(
            count_workflow(),
            OperatorSet::new().updater(CountUpdater),
            count_config(wal),
            Some(Arc::clone(store)),
            sync,
        )
        .unwrap(),
    )
}

fn shutdown(engine: Arc<Engine>) {
    // A dropped HTTP server's last connection thread may hold its clone of
    // the engine for a moment longer.
    wait_until(Duration::from_secs(5), || Arc::strong_count(&engine) == 1);
    Arc::into_inner(engine).expect("sole engine owner").shutdown();
}

#[test]
fn a_frame_is_applied_while_its_fsync_runs_and_acked_only_after_it() {
    let dir = TempDir::new("gated-ack").unwrap();
    let store = Arc::new(StoreCluster::open(dir.path(), StoreConfig::default()).unwrap());
    let (sync, entered, gate) = gated_sync();
    let engine = stored_count_engine(&dir.file("ingest.log"), &store, Some(sync));

    let submitter = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || engine.submit_many(gated_frame()))
    };
    entered.recv().unwrap();
    // The submitter sits in the sync step; the workers did not wait for it.
    assert!(wait_until(Duration::from_secs(10), || engine.stats().processed == 64));
    assert!(all_keys_count_eight(&engine));
    assert!(!submitter.is_finished(), "no ack before the fsync returns");
    let view = engine.ingest_wal().unwrap();
    assert_eq!((view.written, view.durable, view.failed), (64, 0, false));

    gate.send(()).unwrap();
    submitter.join().unwrap().expect("acked once durable");
    let view = engine.ingest_wal().unwrap();
    assert_eq!((view.written, view.durable, view.failed), (64, 64, false));
    shutdown(engine);
}

#[test]
fn a_failed_fsync_stops_ingest_keeps_the_store_behind_the_log_and_a_restart_replays() {
    let dir = TempDir::new("gated-fail").unwrap();
    let wal = dir.file("ingest.log");
    let store = Arc::new(StoreCluster::open(dir.path(), StoreConfig::default()).unwrap());
    let (sync, entered, gate) = gated_sync();
    let engine = stored_count_engine(&wal, &store, Some(sync));

    let submitter = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || engine.submit_many(gated_frame()))
    };
    entered.recv().unwrap();
    assert!(wait_until(Duration::from_secs(10), || engine.stats().processed == 64));
    // The only fsync this life ever attempts fails: 64 events are logged
    // and applied, none is durable, none is acked.
    drop(gate);
    let err = submitter.join().unwrap().unwrap_err();
    assert!(matches!(err, Error::IngestLog(_)), "{err}");

    // Fail-stop: nothing further is accepted or dispatched, and the node
    // says why on every surface.
    let refused = engine.submit(Event::new("S1", 99, Key::from("k-0"), "e")).unwrap_err();
    assert!(matches!(refused, Error::IngestLog(_)), "{refused}");
    assert_eq!(engine.stats().submitted, 64);
    let view = engine.ingest_wal().unwrap();
    assert_eq!((view.written, view.durable, view.failed), (64, 0, true));
    let server = HttpSlateServer::serve(Arc::clone(&engine) as _).unwrap();
    let (code, _) = http("POST", server.port(), "/submit/S1/k-0", b"e").unwrap();
    assert_eq!(code, 503);
    let (_, status) = http("GET", server.port(), "/status", b"").unwrap();
    let status = String::from_utf8(status).unwrap();
    assert!(status.contains(r#""ingest_wal_failed":true"#), "{status}");
    assert!(status.contains(r#""ingest_wal_written":64,"ingest_wal_durable":0"#), "{status}");
    let (_, metrics) = http("GET", server.port(), "/metrics", b"").unwrap();
    let metrics = String::from_utf8(metrics).unwrap();
    for line in [
        "muppet_ingest_wal_failed 1",
        "muppet_ingest_wal_written 64",
        "muppet_ingest_wal_durable 0",
    ] {
        assert!(metrics.lines().any(|l| l == line), "{line} missing from /metrics");
    }
    drop(server);

    // Barrier order: checkpoint and shutdown sync the log before the first
    // slate reaches the store — so with an unsyncable log, none does, and
    // the store never holds an effect the durable log lacks.
    assert!(all_keys_count_eight(&engine), "the slates are dirty in the cache");
    assert!(!engine.checkpoint(Duration::from_secs(5)));
    assert_eq!(store.stats().node.puts, 0);
    shutdown(engine);
    assert_eq!(store.stats().node.puts, 0);

    // The process-crash row of DESIGN.md §11: what `write` handed to the
    // OS is in the file although no fsync ever covered it. A new life on
    // the same WAL and store replays all of it, exactly once.
    let engine = stored_count_engine(&wal, &store, None);
    assert_eq!(engine.recovered_replayed(), 64);
    assert!(wait_until(Duration::from_secs(10), || all_keys_count_eight(&engine)));
    assert!(engine.checkpoint(Duration::from_secs(10)));
    assert!(store.stats().node.puts > GATED_KEYS as u64, "slates and the cursor are stored");
    assert_eq!(engine.stats().processed, 64, "replayed once, not twice");
    shutdown(engine);
}

/// The replay cursor counts events, not frames, and a checkpoint racing a
/// `submit_many` may leave it inside one: the restart skips exactly that
/// many events of the frame and replays the rest, once.
#[test]
fn a_cursor_inside_a_frame_replays_exactly_the_rest_of_it() {
    let dir = TempDir::new("mid-frame-cursor").unwrap();
    let store = Arc::new(StoreCluster::open(dir.path(), StoreConfig::default()).unwrap());
    let frame = gated_frame();
    let wf = count_workflow();
    let mut exec = ReferenceExecutor::new(&wf);
    exec.register_updater(CountUpdater);
    for ev in &frame {
        exec.push_external("S1", ev.clone());
    }
    exec.run_to_completion().unwrap();

    // First life: the frame's first ten events, checkpointed — the store
    // holds their effects and a cursor of 10.
    let engine = stored_count_engine(&dir.file("first.log"), &store, None);
    engine.submit_many(frame[..10].to_vec()).unwrap();
    assert!(engine.checkpoint(Duration::from_secs(10)));
    shutdown(engine);

    // The log a racing checkpoint would have left: all 64 events in ONE frame.
    let wal = dir.file("ingest.log");
    let (log, _) = IngestLog::open(&wal, false).unwrap();
    log.append_batch(&frame).unwrap();
    drop(log);

    let engine = stored_count_engine(&wal, &store, None);
    assert_eq!(engine.recovered_replayed(), 54);
    assert!(engine.drain(Duration::from_secs(10)));
    assert_eq!(engine.stats().processed, 54, "the first ten are not applied twice");
    for k in 0..GATED_KEYS {
        let key = Key::from(format!("k-{k}"));
        let reference = exec.slate("counter", &key).unwrap();
        assert_eq!(engine.read_slate("counter", &key).as_deref(), Some(reference.bytes()));
    }
    shutdown(engine);
}

/// `drain` covers the deferred eviction write-back: with the store gated
/// shut while an idle worker retires its backlog, every event is already
/// processed, yet `drain` must not report quiescence — `checkpoint` sweeps
/// the caches right after it, would find the retiring victims mid-flight
/// (skipped, still dirty) and fail spuriously.
#[test]
fn drain_waits_out_an_eviction_retire_and_the_checkpoint_after_it_succeeds() {
    let dir = TempDir::new("gated-retire").unwrap();
    let topology = Topology::loopback_ephemeral(2, false).unwrap();
    let (store, _host, _listener) = common::serve_store(&topology);
    let cfg = EngineConfig {
        workers_per_machine: 1,
        transport: TransportKind::Tcp { topology, local: 1 },
        store_host: Some(0),
        slate_cache_capacity: 32,
        cache_shards: 1,
        ..count_config(&dir.file("ingest.log"))
    };
    let gate = Arc::new(common::Gate::default());
    let ops = OperatorSet::new().updater(common::GatedCounter(Arc::clone(&gate)));
    let engine = Engine::start(common::counter_workflow(), ops, cfg, None).unwrap();
    // 41 cold keys through 32 slots, drained as one batch: 9 victims, under
    // the inline bound, so the write-back is the worker's once it is idle.
    let keys = common::keys_owned_by(&engine, "counter", 1, "cold-", 40);
    let frame: Vec<Event> = keys.iter().map(|k| Event::new("S1", 0, k.clone(), "e")).collect();
    store.shut.store(true, Ordering::Release);
    common::submit_behind_gate(&engine, &gate, &[frame]);
    assert!(wait_until(Duration::from_secs(10), || store.entered.load(Ordering::Acquire)));
    assert_eq!(engine.stats().processed, 41, "the updates did not wait for the write-back");
    assert!(!engine.drain(Duration::from_millis(200)), "a retire is in flight");
    store.shut.store(false, Ordering::Release);
    assert!(engine.drain(Duration::from_secs(10)));
    assert!(engine.checkpoint(Duration::from_secs(10)), "nothing is mid-flight after drain");
    assert_eq!(engine.stats().cache.evictions, 9);
    assert_eq!(store.batch_sizes.lock().first(), Some(&9), "one batch for the nine victims");
    engine.shutdown();
}

/// A cursor the store host refused is not a checkpoint. The cursor is a
/// non-host node's only single-slate write, and its ack crosses the wire
/// per item like any other: with nothing dirty and the quorum refusing,
/// `checkpoint` must say so, or a restart would trust a cursor that was
/// never stored.
#[test]
fn a_checkpoint_whose_cursor_the_store_host_refuses_is_not_taken() {
    let dir = TempDir::new("refused-cursor").unwrap();
    let topology = Topology::loopback_ephemeral(2, false).unwrap();
    let (store, _host, _listener) = common::serve_store(&topology);
    let cfg = EngineConfig {
        transport: TransportKind::Tcp { topology, local: 1 },
        store_host: Some(0),
        ..count_config(&dir.file("ingest.log"))
    };
    let ops = OperatorSet::new().updater(CountUpdater);
    let engine = Engine::start(count_workflow(), ops, cfg, None).unwrap();
    assert!(engine.checkpoint(Duration::from_secs(10)), "an accepting store takes the cursor");
    store.refuse.store(true, Ordering::Release);
    assert!(!engine.checkpoint(Duration::from_secs(10)), "nothing dirty, cursor refused");
    store.refuse.store(false, Ordering::Release);
    assert!(engine.checkpoint(Duration::from_secs(10)));
    engine.shutdown();
}

/// An updater that panics on `"boom"` payloads until the shared flag says
/// the bug is fixed — the poison-event stand-in.
struct PoisonUpdater {
    fixed: Arc<AtomicBool>,
}

impl Updater for PoisonUpdater {
    fn name(&self) -> &str {
        "poison"
    }
    fn update(&self, _ctx: &mut dyn Emitter, event: &Event, slate: &mut Slate) {
        if !self.fixed.load(Ordering::Acquire) && event.value.as_ref() == b"boom" {
            panic!("poison payload");
        }
        let n = slate.as_str().and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
        slate.replace((n + 1).to_string().into_bytes());
    }
}

#[test]
fn panicking_updater_is_contained_dead_lettered_and_retryable() {
    let fixed = Arc::new(AtomicBool::new(false));
    let mut b = Workflow::builder("poison-wf");
    b.external_stream("S1");
    b.updater("poison", &["S1"]);
    let wf = b.build().unwrap();
    let cfg = EngineConfig { machines: 2, workers_per_machine: 2, ..EngineConfig::default() };
    let engine = Engine::start(
        wf,
        OperatorSet::new().updater(PoisonUpdater { fixed: Arc::clone(&fixed) }),
        cfg,
        None,
    )
    .unwrap();

    // Good traffic around one poison event. The panic must not kill the
    // worker: everything else processes and the drain converges.
    for i in 0..40u64 {
        engine.submit(Event::new("S1", i, Key::from("good"), "e")).unwrap();
    }
    engine.submit(Event::new("S1", 40, Key::from("bad"), "boom")).unwrap();
    for i in 41..81u64 {
        engine.submit(Event::new("S1", i, Key::from("good"), "e")).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(20)), "drain must converge past the poison event");
    assert_eq!(engine.read_slate("poison", &Key::from("good")).as_deref(), Some(b"80".as_ref()));
    assert_eq!(engine.stats().processed, 80, "the dead-lettered event is not 'processed'");
    assert_eq!(engine.dlq().depth(), 1);
    let json = engine.dlq_json();
    assert!(json.contains("poison") && json.contains("boom"), "{json}");

    // Retry while still broken: the event poisons again and comes back.
    assert_eq!(engine.dlq_retry(), 1);
    assert!(
        wait_until(Duration::from_secs(10), || engine.dlq().depth() == 1),
        "an unfixed poison event must return to the DLQ"
    );
    assert_eq!(engine.dlq().retried(), 1);
    assert_eq!(engine.read_slate("poison", &Key::from("bad")), None, "no partial state leaked");

    // Fix the operator; the retry drains the queue and applies the event.
    fixed.store(true, Ordering::Release);
    assert_eq!(engine.dlq_retry(), 1);
    assert!(
        wait_until(Duration::from_secs(10), || engine.dlq().depth() == 0
            && engine.read_slate("poison", &Key::from("bad")).as_deref() == Some(b"1".as_ref())),
        "a fixed poison event must finally apply"
    );
    engine.shutdown();
}

//! Crash recovery end-to-end (DESIGN.md §11): the ingest WAL logs every
//! accepted event before a worker sees it and makes it durable before the
//! submit is acked, so a `kill -9` loses nothing — the restarted node replays the uncheckpointed WAL suffix and
//! converges to the exact counts the single-threaded reference model
//! produces. SIGTERM is the clean path: checkpoint, exit 0, zero replay.
//! Poison events (a panicking updater) never kill a worker — they park in
//! the dead-letter queue and can be retried once the operator is fixed.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

mod common;

use muppet::apps::retailer;
use muppet::core::Error;
use muppet::net::topology::Topology;
use muppet::prelude::*;
use muppet::runtime::cache::SlateBackend;
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
        matches!(http("GET", http_port, "/membership", b""), Ok((200, _)))
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
    let (code, metrics) = http("GET", port, "/metrics", b"").unwrap();
    assert_eq!(code, 200);
    let metrics = String::from_utf8(metrics).unwrap();
    assert!(
        metrics.lines().any(|l| l == format!("muppet_wal_ingest_replayed_total {N}")),
        "expected a full replay of {N} events in {metrics}"
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
    // The checkpoint deleted everything its cursor covers: the WAL path
    // holds a header whose base is the N events logged, and nothing else.
    assert_eq!(log_files(&wal), one_header_only_segment(&wal, N as u64));

    // The restart finds the cursor at the WAL's end: zero replay.
    let node2 = spawn_node(&peers, port, data_dir.to_str().unwrap(), wal.to_str().unwrap());
    let (_, metrics) = http("GET", port, "/metrics", b"").unwrap();
    let metrics = String::from_utf8(metrics).unwrap();
    assert!(
        metrics.lines().any(|l| l == "muppet_wal_ingest_replayed_total 0"),
        "a checkpointed restart must replay nothing: {metrics}"
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
    assert_eq!(e2.stats().recovered_replayed, (KEYS * PER_KEY) as u64, "full replay expected");
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
    assert_eq!(e2.stats().ingest_wal.unwrap().written, (KEYS * PER_KEY + 1) as u64);
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
    let sync: SyncFn = Box::new(move |_| {
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
    let view = engine.stats().ingest_wal.unwrap();
    assert_eq!((view.written, view.durable, view.failed), (64, 0, false));

    gate.send(()).unwrap();
    submitter.join().unwrap().expect("acked once durable");
    let view = engine.stats().ingest_wal.unwrap();
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
    let view = engine.stats().ingest_wal.unwrap();
    assert_eq!((view.written, view.durable, view.failed), (64, 0, true));
    let server = HttpSlateServer::serve(Arc::clone(&engine) as _).unwrap();
    let (code, _) = http("POST", server.port(), "/submit/S1/k-0", b"e").unwrap();
    assert_eq!(code, 503);
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
    assert_eq!(engine.stats().recovered_replayed, 64);
    assert!(wait_until(Duration::from_secs(10), || all_keys_count_eight(&engine)));
    assert!(engine.checkpoint(Duration::from_secs(10)));
    assert!(store.stats().node.puts > GATED_KEYS as u64, "slates and the cursor are stored");
    assert_eq!(engine.stats().processed, 64, "replayed once, not twice");
    shutdown(engine);
}

/// Builds the ingest WAL at a path by hand.
type BuildLog<'a> = &'a dyn Fn(&Path);

/// Write the replay cursor cell of an in-process engine (machine 0) into
/// `store` directly, as a checkpoint would have.
fn store_cursor(store: &StoreCluster, cursor: u64) {
    let key = Key::from("node-0");
    assert!(store.store(
        "__ingest_cursor",
        &key,
        cursor.to_string().as_bytes(),
        Codec::Json,
        None,
        0
    ));
}

/// `frames` copies of [`gated_frame`], one after the other.
fn frames(frames: usize) -> Vec<Event> {
    (0..frames).flat_map(|_| gated_frame()).collect()
}

/// The counter slates of the count workflow's reference run over `events`.
fn reference(events: &[Event]) -> Vec<(Key, Slate)> {
    let wf = count_workflow();
    let mut exec = ReferenceExecutor::new(&wf);
    exec.register_updater(CountUpdater);
    for ev in events {
        exec.push_external("S1", ev.clone());
    }
    exec.run_to_completion().unwrap();
    exec.slates_of("counter").into_iter().map(|(key, slate)| (key.clone(), slate.clone())).collect()
}

/// Every file beside the ingest WAL at `wal` that belongs to it (the live
/// segment and its sealed siblings), with its bytes, by name.
fn log_files(wal: &Path) -> Vec<(String, Vec<u8>)> {
    let live = wal.file_name().unwrap().to_str().unwrap();
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(wal.parent().unwrap())
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.file_name().unwrap().to_str().unwrap().starts_with(live))
        .map(|path| {
            (path.file_name().unwrap().to_str().unwrap().into(), std::fs::read(path).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// What the log at `wal` is after a checkpoint at `cursor` with no ingest
/// since: the live segment alone, a header whose base is the cursor.
fn one_header_only_segment(wal: &Path, cursor: u64) -> Vec<(String, Vec<u8>)> {
    let header = [&b"MUPIWAL\x02"[..], &cursor.to_le_bytes()].concat();
    vec![(wal.file_name().unwrap().to_str().unwrap().into(), header)]
}

/// A replay cursor that is neither a retained segment's base nor the log's
/// end means the store and the log disagree — a cursor read lost, a log
/// wiped without its store, two logs mixed — and the engine refuses to
/// start rather than replay history onto slates that already hold it or
/// skip events no slate reflects.
#[test]
fn a_cursor_the_log_cannot_honour_is_refused() {
    let dir = TempDir::new("refused-cursor").unwrap();
    let open = |wal: &Path| IngestLog::open(wal, false).unwrap().0;
    let cases: [(&str, u64, BuildLog); 3] = [
        // The store holds a cursor, the log is new.
        ("fresh", 100, &|_| ()),
        // Inside the one segment: only a second log mixed in could say so.
        ("inside", 10, &|wal| open(wal).append_batch(&gated_frame()).unwrap()),
        // The segment holding events 0..64 was deleted at a checkpoint.
        ("below", 0, &|wal| {
            let log = open(wal);
            log.append_batch(&gated_frame()).unwrap();
            log.release_below(log.rotate().unwrap()).unwrap();
        }),
    ];
    for (name, cursor, build) in cases {
        let wal = dir.file(&format!("{name}.log"));
        build(&wal);
        let store =
            Arc::new(StoreCluster::open(dir.path().join(name), StoreConfig::default()).unwrap());
        if cursor > 0 {
            store_cursor(&store, cursor);
        }
        let started = Engine::start(
            count_workflow(),
            OperatorSet::new().updater(CountUpdater),
            count_config(&wal),
            Some(store),
        );
        let Err(err) = started else { panic!("{name}: started on cursor {cursor}") };
        assert!(matches!(err, Error::Config(_)), "{name}: {err}");
        assert!(err.to_string().contains(&format!("cursor {cursor} ")), "{name}: {err}");
    }
}

/// A checkpoint takes its cursor where it rotates the log: a run logged
/// while its flush is on the wire lies past that cursor, and a run logged
/// before it is dispatched before the flush starts. So the stored cursor
/// never covers an event the stored slates do not reflect.
#[test]
fn a_checkpoint_racing_a_submit_stores_no_cursor_past_its_flush() {
    let dir = TempDir::new("racing-cursor").unwrap();
    let topology = Topology::loopback_ephemeral(2, false).unwrap();
    let (store, _host, _listener) = common::serve_store(&topology);
    let cfg = EngineConfig {
        transport: TransportKind::Tcp { topology, local: 1 },
        store_host: Some(0),
        ..count_config(&dir.file("ingest.log"))
    };
    // S1 → gate → S2 → counter. The gate parks `HOLD` events before any
    // slate is touched, so a parked run is acked and dispatched but
    // reflected in no slate.
    let mut b = Workflow::builder("gated-map");
    b.external_stream("S1");
    b.mapper_publishing("gate", &["S1"], &["S2"]);
    b.updater("counter", &["S2"]);
    let gate = Arc::new(common::Gate::default());
    let held = Arc::clone(&gate);
    let mapper = FnMapper::new("gate", move |ctx: &mut dyn Emitter, ev: &Event| {
        while ev.key.as_bytes().starts_with(common::HOLD.as_bytes())
            && !held.open.load(Ordering::Acquire)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        ctx.publish("S2", ev.key.clone(), ev.value.to_vec());
    });
    let ops = OperatorSet::new().mapper(mapper).updater(CountUpdater);
    let engine = Arc::new(Engine::start(b.build().unwrap(), ops, cfg, None).unwrap());
    let frame = |prefix| -> Vec<Event> {
        let keys = common::keys_owned_by(&engine, "counter", 1, prefix, 400);
        let local = keys.into_iter().filter(|key| engine.owner_machine("gate", key) == Some(1));
        local.take(64).map(|key| Event::new("S1", 0, key, "e")).collect()
    };
    engine.submit_many(frame("k-")).unwrap();
    assert!(engine.drain(Duration::from_secs(10)));

    store.shut.store(true, Ordering::Release);
    let checkpoint = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || engine.checkpoint(Duration::from_secs(10)))
    };
    assert!(wait_until(Duration::from_secs(10), || store.entered.load(Ordering::Acquire)));
    // The flush is held at the store host; a second frame is logged, acked
    // and dispatched meanwhile, and parks in the gate.
    engine.submit_many(frame(common::HOLD)).unwrap();
    store.shut.store(false, Ordering::Release);
    assert!(checkpoint.join().unwrap(), "the checkpoint is taken");

    let data = store.data.lock();
    let number = |value: &[u8]| std::str::from_utf8(value).unwrap().parse::<u64>().unwrap();
    let cursor = number(&data[&("__ingest_cursor".to_string(), b"node-1".to_vec())]);
    let counted: u64 =
        data.iter().filter(|((column, _), _)| column == "counter").map(|(_, v)| number(v)).sum();
    assert_eq!((cursor, counted), (64, 64), "the cursor covers exactly what was flushed");
    drop(data);
    gate.open.store(true, Ordering::Release);
    shutdown(engine);
}

/// Every on-disk state a crash inside the recovery line can leave, built
/// by hand: the log with [`IngestLog`], the store with the slates and the
/// cursor a checkpoint at that cursor wrote. Three frames of 64 events;
/// rows rotate after the second. Each restart replays exactly the events
/// past the stored cursor, ends bit-exact against the reference, and its
/// next checkpoint leaves one segment.
#[test]
fn every_crash_inside_the_recovery_line_restarts_exactly_and_ends_in_one_segment() {
    let two_frames = |wal: &Path| {
        let (log, _) = IngestLog::open(wal, false).unwrap();
        log.append_batch(&frames(2)).unwrap();
        log
    };
    let sealed = |wal: &Path| {
        let log = two_frames(wal);
        assert_eq!(log.rotate().unwrap(), 128);
        log
    };
    let torn_header = |wal: &Path| {
        drop(sealed(wal));
        let header = std::fs::read(wal).unwrap();
        std::fs::write(wal, &header[..11]).unwrap();
    };
    let third_frame = |wal: &Path| sealed(wal).append_batch(&gated_frame()).unwrap();
    // ⟨state, its log, stored cursor, events in the log⟩
    let rows: [(&str, BuildLog, u64, usize); 5] = [
        ("crash before the rotation", &|wal| drop(two_frames(wal)), 0, 128),
        (
            "sealed, no live segment yet",
            &|wal| {
                drop(sealed(wal));
                std::fs::remove_file(wal).unwrap();
            },
            0,
            128,
        ),
        ("live segment with a torn header", &torn_header, 0, 128),
        ("cursor not stored", &third_frame, 0, 192),
        ("cursor stored, sealed segment not deleted", &third_frame, 128, 192),
    ];
    let events = frames(3);
    for (state, build, cursor, end) in rows {
        let dir = TempDir::new("crash-table").unwrap();
        std::fs::create_dir(dir.path().join("wal")).unwrap();
        let wal = dir.path().join("wal").join("ingest.log");
        build(&wal);
        let store =
            Arc::new(StoreCluster::open(dir.path().join("store"), StoreConfig::default()).unwrap());
        for (key, slate) in reference(&events[..cursor as usize]) {
            assert!(store.store("counter", &key, slate.bytes(), Codec::Json, None, 0));
        }
        store_cursor(&store, cursor);

        let engine = stored_count_engine(&wal, &store, None);
        assert_eq!(engine.stats().recovered_replayed, end as u64 - cursor, "{state}");
        assert!(engine.drain(Duration::from_secs(10)), "{state}");
        let expected = reference(&events[..end]);
        for (key, slate) in expected {
            let got = engine.read_slate("counter", &key);
            assert_eq!(got.as_deref(), Some(slate.bytes()), "{state}: {key:?}");
        }
        assert!(engine.checkpoint(Duration::from_secs(10)), "{state}");
        assert_eq!(log_files(&wal), one_header_only_segment(&wal, end as u64), "{state}");
        shutdown(engine);
    }
}

/// The log plateaus: under steady ingest each checkpoint deletes what its
/// cursor covers, so the directory never holds more than one segment past
/// it, and a restart has nothing to replay.
#[test]
fn twenty_checkpoints_under_steady_ingest_each_leave_one_header_only_segment() {
    let dir = TempDir::new("plateau").unwrap();
    std::fs::create_dir(dir.path().join("wal")).unwrap();
    let wal = dir.path().join("wal").join("ingest.log");
    let store =
        Arc::new(StoreCluster::open(dir.path().join("store"), StoreConfig::default()).unwrap());
    let engine = stored_count_engine(&wal, &store, None);
    for cycle in 1..=20u64 {
        let events: Vec<Event> = (0..500)
            .map(|i| Event::new("S1", i, Key::from(format!("k-{}", i % 50)), "e"))
            .collect();
        for run in events.chunks(50) {
            engine.submit_many(run.to_vec()).unwrap();
        }
        assert!(engine.checkpoint(Duration::from_secs(10)), "cycle {cycle}");
        assert_eq!(log_files(&wal), one_header_only_segment(&wal, 500 * cycle), "cycle {cycle}");
    }
    shutdown(engine);
    let (_, recovery) = IngestLog::open(&wal, false).unwrap();
    assert_eq!(recovery.events, 10_000);
    assert!(recovery.events_after(10_000).unwrap().is_empty(), "nothing is retained to replay");
    let engine = stored_count_engine(&wal, &store, None);
    assert_eq!(engine.stats().recovered_replayed, 0);
    assert_eq!(engine.read_slate("counter", &Key::from("k-0")).as_deref(), Some(b"200".as_ref()));
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
    assert_eq!(engine.stats().dlq_depth, 1);
    let json = engine.dlq_json();
    assert!(json.contains("poison") && json.contains("boom"), "{json}");

    // Retry while still broken: the event poisons again and comes back.
    assert_eq!(engine.dlq_retry(), 1);
    assert!(
        wait_until(Duration::from_secs(10), || engine.stats().dlq_depth == 1),
        "an unfixed poison event must return to the DLQ"
    );
    assert_eq!(engine.stats().dlq_retried, 1);
    assert_eq!(engine.read_slate("poison", &Key::from("bad")), None, "no partial state leaked");

    // Fix the operator; the retry drains the queue and applies the event.
    fixed.store(true, Ordering::Release);
    assert_eq!(engine.dlq_retry(), 1);
    assert!(
        wait_until(Duration::from_secs(10), || engine.stats().dlq_depth == 0
            && engine.read_slate("poison", &Key::from("bad")).as_deref() == Some(b"1".as_ref())),
        "a fixed poison event must finally apply"
    );
    engine.shutdown();
}

//! The TCP transport: real sockets between `muppetd` processes, each of
//! which runs one machine of the topology. It carries only traffic for
//! another process; the engine delivers to its own machine itself. Events
//! leave through batching per-peer outboxes, request/response frames
//! through pooled connections, and a failed batch is one §4.3 detection.
//! DESIGN.md §5.

use std::collections::{HashSet, VecDeque};
use std::io::{self, Read};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use muppet_core::sync::{Condvar, Mutex, RwLock};

use crate::frame::{
    self, Frame, MembershipPhase, MembershipUpdate, StoreGetItem, StorePutItem, WireEvent,
    MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use crate::topology::{NodeSpec, Topology};
use crate::transport::{ClusterHandler, HandlerSlot, MachineId, NetError, Transport};

/// Idle connections retained per peer.
const MAX_IDLE_PER_PEER: usize = 8;
/// Connect timeout (loopback and LAN latencies).
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Read timeout for request/response exchanges, and write timeout on
/// every outbound connection (a hung peer cannot wedge a sender thread —
/// or, through it, shutdown's thread join).
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// Read timeout on inbound connections (bounds shutdown latency).
const SERVE_POLL: Duration = Duration::from_millis(200);
/// Idle/stop-flag poll for sender threads and blocked producers.
const OUTBOX_POLL: Duration = Duration::from_millis(20);
/// Soft cap on one batch frame's encoded size: flush early rather than
/// approach [`MAX_FRAME_BYTES`].
const BATCH_SOFT_BYTES: usize = 1 << 20;
/// Distinct peer addresses remembered so a refused hello is reported once
/// per peer; past this, refusals are still counted, no longer reported.
const MAX_REJECTED_PEERS: usize = 1024;

/// Flush policy for the per-peer batching senders: a batch goes on the
/// wire when it holds `batch_max` events, when a producer asks
/// ([`TcpTransport::flush_events`]), or when the oldest queued event is
/// `flush_us` microseconds old, whichever comes first.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Events coalesced into one frame at most.
    pub batch_max: usize,
    /// Age ceiling: a queued event whose producer never asks for a flush
    /// waits at most this long before its batch leaves (0 = never hold
    /// anything, batching only what has already accumulated).
    pub flush_us: u64,
    /// Bounded outbox capacity per peer (events). A full outbox blocks
    /// the sender — backpressure, not buffering.
    pub queue_capacity: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { batch_max: 128, flush_us: 1_000, queue_capacity: 16_384 }
    }
}

/// Why a sender took a batch off its outbox. A cluster whose frames are
/// mostly `Age` has producers that are not signalling; one that is all
/// `Size` is backlogged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// The outbox held `batch_max` events.
    Size,
    /// A producer asked ([`TcpTransport::flush_events`]).
    Demand,
    /// The oldest queued event reached `flush_us`.
    Age,
    /// The transport is shutting down.
    Stop,
}

impl FlushReason {
    /// Every reason, in [`TcpStats::flushes`] order.
    pub const ALL: [FlushReason; 4] =
        [FlushReason::Size, FlushReason::Demand, FlushReason::Age, FlushReason::Stop];

    /// The `reason` label on `/metrics`.
    pub fn as_str(self) -> &'static str {
        match self {
            FlushReason::Size => "size",
            FlushReason::Demand => "demand",
            FlushReason::Age => "age",
            FlushReason::Stop => "stop",
        }
    }
}

/// Cumulative transport counters (all relaxed; cheap to snapshot).
#[derive(Debug, Default)]
pub struct TcpStats {
    /// Frames written to peers.
    pub frames_sent: AtomicU64,
    /// Frames received by the listener.
    pub frames_received: AtomicU64,
    /// Sends that failed after the reconnect attempt (§4.3 triggers).
    pub send_failures: AtomicU64,
    /// Fresh connections dialed.
    pub connects: AtomicU64,
    /// Multi-event frames written by the batching senders.
    pub batches_sent: AtomicU64,
    /// Events shipped through the batching path (any frame size).
    pub batched_events_sent: AtomicU64,
    /// Times a producer blocked on a full per-peer outbox (backpressure).
    pub queue_full_waits: AtomicU64,
    /// Gauge: events accepted but not yet written to (or failed off) the
    /// wire, across all peers.
    pub outbound_backlog: AtomicU64,
    /// Inbound connections closed because they did not open with a
    /// current-version hello (another binary, or not a muppet peer).
    pub hello_rejected: AtomicU64,
    /// Inbound connections closed after their hello on a frame that was
    /// oversized, failed its CRC or did not decode.
    pub frames_rejected: AtomicU64,
    /// Batches taken off the outboxes, by [`FlushReason`] (indexed in
    /// [`FlushReason::ALL`] order).
    pub flushes: [AtomicU64; 4],
}

impl TcpStats {
    /// Batches the senders took for `reason`.
    pub fn flushes(&self, reason: FlushReason) -> u64 {
        self.flushes[reason as usize].load(Ordering::Relaxed)
    }
}

struct PeerPool {
    addr: SocketAddr,
    idle: Mutex<Vec<TcpStream>>,
}

/// Outbox interior: the queued events plus flush bookkeeping.
#[derive(Default)]
struct OutboxQueue {
    /// Each event with its enqueue time: the head's is the age the
    /// `flush_us` ceiling is measured from.
    events: VecDeque<(Instant, WireEvent)>,
    /// A producer asked for what is queued to leave as soon as the sender
    /// can take it; cleared when the queue empties.
    flush_requested: bool,
}

/// One peer's outbound event queue + the state its sender thread needs.
/// Sender threads hold only this Arc (never the transport), so dropping
/// the transport can join them without a reference cycle.
struct PeerOutbox {
    dest: MachineId,
    local: MachineId,
    addr: SocketAddr,
    cfg: BatchConfig,
    queue: Mutex<OutboxQueue>,
    /// Signals both ways: producers on free room, the sender on new work.
    cv: Condvar,
    /// Set by the sender on wire failure; enqueues then refuse with
    /// `Unreachable` (§4.3: a dead machine never comes back).
    down: AtomicBool,
    /// Set on transport drop; the sender flushes what is queued and exits.
    stopping: AtomicBool,
    /// Lazy sender-thread spawn flag.
    started: AtomicBool,
    stats: Arc<TcpStats>,
    handler: Arc<HandlerSlot>,
}

/// Conservative over-estimate of one event's encoded size (flush-early
/// byte cap and the oversized-event refusal at enqueue). The slack must
/// exceed the true worst-case envelope — kind byte, flags, up to five
/// 10-byte varints (op, injected_us, ts, seq, thread hint) and three
/// length prefixes, under 90 bytes total — or an oversized event could
/// pass the enqueue check, fail at the socket, and be misread as a dead
/// peer.
fn wire_event_size_hint(ev: &WireEvent) -> usize {
    ev.event.key.as_bytes().len() + ev.event.value.len() + ev.event.stream.as_str().len() + 128
}

type RejectHook = Box<dyn Fn(SocketAddr, Option<u64>) + Send + Sync>;

/// A [`Transport`] over real TCP sockets. One instance per `muppetd`
/// process; `local` is the machine this process runs.
///
/// The peer table grows at runtime ([`TcpTransport::add_peer`]) — elastic
/// membership appends nodes to a running cluster; ids are never reused
/// and the master role never moves.
pub struct TcpTransport {
    topology: RwLock<Topology>,
    local: MachineId,
    /// The master role's machine id (pinned at cluster creation).
    master: MachineId,
    batch: BatchConfig,
    handler: Arc<HandlerSlot>,
    /// Told, once per peer address, that a connection was refused at the
    /// hello and which version it offered (`None`: no hello at all).
    reject_hook: OnceLock<RejectHook>,
    rejected_peers: Mutex<HashSet<IpAddr>>,
    /// Indexed by machine id; `None` at `local`. Grows via `add_peer`.
    pools: RwLock<Vec<Option<Arc<PeerPool>>>>,
    /// Per-peer batching outboxes; `None` at `local`. Grows via
    /// `add_peer`.
    outboxes: RwLock<Vec<Option<Arc<PeerOutbox>>>>,
    /// Lazily spawned per-peer sender threads (joined on drop).
    sender_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    stats: Arc<TcpStats>,
}

impl TcpTransport {
    /// Build the transport for `local` within `topology` with the default
    /// [`BatchConfig`] (addresses are resolved eagerly so
    /// misconfiguration fails fast).
    pub fn new(topology: Topology, local: MachineId) -> Result<Arc<TcpTransport>, String> {
        TcpTransport::new_with_batching(topology, local, BatchConfig::default())
    }

    /// Build the transport with an explicit batching/flush policy.
    pub fn new_with_batching(
        topology: Topology,
        local: MachineId,
        batch: BatchConfig,
    ) -> Result<Arc<TcpTransport>, String> {
        topology.validate()?;
        if local >= topology.len() {
            return Err(format!("local machine {local} is not in the topology"));
        }
        let transport = Arc::new(TcpTransport {
            master: topology.master,
            local,
            batch: BatchConfig {
                batch_max: batch.batch_max.max(1),
                queue_capacity: batch.queue_capacity.max(1),
                ..batch
            },
            handler: Arc::new(HandlerSlot::default()),
            reject_hook: OnceLock::new(),
            rejected_peers: Mutex::new(HashSet::new()),
            pools: RwLock::new(Vec::new()),
            outboxes: RwLock::new(Vec::new()),
            sender_threads: Mutex::new(Vec::new()),
            stats: Arc::new(TcpStats::default()),
            topology: RwLock::new(Topology { nodes: Vec::new(), master: topology.master }),
        });
        for node in &topology.nodes {
            transport.add_peer(node)?;
        }
        Ok(transport)
    }

    /// Append one node to the peer table (or re-resolve a known id —
    /// idempotent for identical specs). Elastic joins call this when a
    /// membership update names a machine this transport has never seen;
    /// ids must arrive contiguously.
    pub fn add_peer(&self, node: &NodeSpec) -> Result<(), String> {
        let mut topology = self.topology.write();
        let mut pools = self.pools.write();
        let mut outboxes = self.outboxes.write();
        if node.id < topology.nodes.len() {
            if topology.nodes[node.id] == *node {
                return Ok(()); // idempotent re-announcement
            }
            return Err(format!("peer id {} already bound to a different address", node.id));
        }
        if node.id != topology.nodes.len() {
            return Err(format!(
                "peer ids must be contiguous (got {}, expected {})",
                node.id,
                topology.nodes.len()
            ));
        }
        if node.id == self.local {
            pools.push(None);
            outboxes.push(None);
        } else {
            let addr = node.addr()?;
            pools.push(Some(Arc::new(PeerPool { addr, idle: Mutex::new(Vec::new()) })));
            outboxes.push(Some(Arc::new(PeerOutbox {
                dest: node.id,
                local: self.local,
                addr,
                cfg: self.batch,
                queue: Mutex::new(OutboxQueue::default()),
                cv: Condvar::new(),
                down: AtomicBool::new(false),
                stopping: AtomicBool::new(false),
                started: AtomicBool::new(false),
                stats: Arc::clone(&self.stats),
                handler: Arc::clone(&self.handler),
            })));
        }
        topology.nodes.push(node.clone());
        Ok(())
    }

    /// A snapshot of the (growable) topology this transport runs in.
    pub fn topology(&self) -> Topology {
        self.topology.read().clone()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> &TcpStats {
        &self.stats
    }

    /// Have `hook` told, once per peer address, that an inbound connection
    /// was closed on what it sent: a hello of another version (`Some`), or
    /// no hello at all or a bad frame after it (`None`). The engine logs
    /// it: a dialer reads the closed connection as a dead peer, so this
    /// side's log is where a mixed-binary cluster or a corrupting link
    /// becomes legible. First registration wins.
    pub fn on_rejected(&self, hook: impl Fn(SocketAddr, Option<u64>) + Send + Sync + 'static) {
        let _ = self.reject_hook.set(Box::new(hook));
    }

    /// Count a refused inbound connection under `counter` and tell the
    /// hook, once per peer address.
    fn reject(&self, counter: &AtomicU64, peer: io::Result<SocketAddr>, offered: Option<u64>) {
        counter.fetch_add(1, Ordering::Relaxed);
        let (Ok(peer), Some(hook)) = (peer, self.reject_hook.get()) else { return };
        let first = {
            let mut seen = self.rejected_peers.lock();
            seen.len() < MAX_REJECTED_PEERS && seen.insert(peer.ip())
        };
        if first {
            hook(peer, offered);
        }
    }

    fn handler(&self) -> Option<Arc<dyn ClusterHandler>> {
        self.handler.get()
    }

    fn pool(&self, dest: MachineId) -> Result<Arc<PeerPool>, NetError> {
        self.pools.read().get(dest).and_then(|p| p.clone()).ok_or(NetError::NoRoute(dest))
    }

    fn outbox(&self, dest: MachineId) -> Result<Arc<PeerOutbox>, NetError> {
        self.outboxes.read().get(dest).and_then(|o| o.clone()).ok_or(NetError::NoRoute(dest))
    }

    /// Spawn `outbox`'s sender thread on first use (transports that only
    /// run request/response traffic never pay for idle threads).
    fn ensure_sender(&self, outbox: &Arc<PeerOutbox>) {
        if outbox.started.load(Ordering::Acquire) {
            return;
        }
        let mut threads = self.sender_threads.lock();
        if outbox.started.swap(true, Ordering::AcqRel) {
            return; // raced; the other enqueue spawned it
        }
        let ob = Arc::clone(outbox);
        threads.push(
            std::thread::Builder::new()
                .name(format!("muppet-send-{}-{}", self.local, outbox.dest))
                .spawn(move || sender_loop(ob))
                // lint: allow(no-unwrap-in-prod) — spawn fails only on OS thread exhaustion; fail fast
                .expect("spawn peer sender"),
        );
    }

    /// The batched event send path: put `ev` on `dest`'s outbox, blocking
    /// while the outbox is full (backpressure). `Unreachable` once the
    /// sender has declared the peer down; `Protocol` for events that could
    /// never fit a frame (a local error, not a dead peer — must not trip
    /// §4.3).
    fn enqueue_event(&self, dest: MachineId, ev: WireEvent) -> Result<(), NetError> {
        let size = wire_event_size_hint(&ev);
        if size > MAX_FRAME_BYTES {
            return Err(NetError::Protocol(format!(
                "event of ~{size} bytes exceeds the {MAX_FRAME_BYTES}-byte frame limit"
            )));
        }
        let outbox = self.outbox(dest)?;
        if outbox.down.load(Ordering::Acquire) {
            return Err(NetError::Unreachable(dest));
        }
        self.ensure_sender(&outbox);
        let mut q = outbox.queue.lock();
        loop {
            if outbox.down.load(Ordering::Acquire) {
                return Err(NetError::Unreachable(dest));
            }
            if q.events.len() < outbox.cfg.queue_capacity {
                q.events.push_back((Instant::now(), ev));
                self.stats.outbound_backlog.fetch_add(1, Ordering::Relaxed);
                // Wake the sender only on the transitions it can act on:
                // new work after idle (which arms the age ceiling), or a
                // batch reaching the size trigger mid-wait. Every other
                // push stays notification-free: a sender that is not
                // waiting re-checks the queue before it next does.
                let len = q.events.len();
                if len == 1 || len == outbox.cfg.batch_max {
                    outbox.cv.notify_all();
                }
                return Ok(());
            }
            // Full: wait for the sender to drain (or to declare the peer
            // down). The timeout re-checks stop/down flags.
            self.stats.queue_full_waits.fetch_add(1, Ordering::Relaxed);
            outbox.cv.wait_for(&mut q, OUTBOX_POLL);
        }
    }

    /// Run one frame exchange with `dest`: write `frame`, optionally read
    /// a reply, reusing a pooled connection with one reconnect retry.
    fn exchange(
        &self,
        dest: MachineId,
        frame: &Frame,
        want_reply: bool,
    ) -> Result<Option<Frame>, NetError> {
        let pool = self.pool(dest)?;
        // Size-check before touching the socket: an oversized frame is a
        // local protocol error, not a dead peer — it must not trip §4.3.
        let payload = frame.encode_payload();
        if payload.len() > MAX_FRAME_BYTES {
            return Err(NetError::Protocol(format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte limit",
                payload.len()
            )));
        }
        let pooled = pool.idle.lock().pop();
        let had_pooled = pooled.is_some();

        let attempt = |conn: Option<TcpStream>| -> io::Result<(TcpStream, Option<Frame>)> {
            let mut stream = match conn {
                // A one-way write to a peer that has closed "succeeds"
                // into the kernel buffer and the frame is lost unreported,
                // so a pooled connection is probed first. A request needs
                // no probe: its reply read fails and the redial below runs.
                Some(stream) if want_reply => stream,
                Some(stream) => probe_peer_alive(&stream).map(|()| stream)?,
                None => dial(pool.addr, self.local, &self.stats)?,
            };
            frame::write_payload(&mut stream, &payload)?;
            let reply = if want_reply { Some(Frame::read_from(&mut stream)?) } else { None };
            Ok((stream, reply))
        };

        let outcome = match attempt(pooled) {
            Ok(done) => Ok(done),
            // A stale pooled connection (peer restarted, idle RST) gets one
            // fresh dial; a dead peer fails that too and surfaces §4.3.
            Err(_) if had_pooled => attempt(None),
            Err(e) => Err(e),
        };
        match outcome {
            Ok((conn, reply)) => {
                self.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
                let mut idle = pool.idle.lock();
                if idle.len() < MAX_IDLE_PER_PEER {
                    idle.push(conn);
                }
                Ok(reply)
            }
            Err(_) => {
                self.stats.send_failures.fetch_add(1, Ordering::Relaxed);
                Err(NetError::Unreachable(dest))
            }
        }
    }

    /// Bind this node's listener and start serving peer frames. Call after
    /// [`Transport::register`]. The returned handle stops the listener
    /// (and its connection threads) on drop.
    pub fn start_listener(self: &Arc<Self>) -> io::Result<TcpListenerHandle> {
        let (host, port) = {
            let topology = self.topology.read();
            let node = &topology.nodes[self.local];
            (node.host.clone(), node.port)
        };
        let listener = TcpListener::bind((host.as_str(), port))?;
        let transport = Arc::clone(self);
        TcpListenerHandle::spawn(
            format!("muppet-net-{}", self.local),
            listener,
            move |stream, stop| {
                let transport = Arc::clone(&transport);
                let stop = Arc::clone(stop);
                std::thread::spawn(move || serve_connection(transport, stream, stop));
            },
        )
    }
}

impl Drop for TcpTransport {
    /// Stop the batching senders: each flushes whatever its outbox still
    /// holds (to live peers), then exits and is joined. Sender threads
    /// hold only their `PeerOutbox` Arc, so this cannot deadlock on the
    /// transport's own refcount.
    fn drop(&mut self) {
        for outbox in self.outboxes.read().iter().flatten() {
            outbox.stopping.store(true, Ordering::Release);
            outbox.cv.notify_all();
        }
        for t in self.sender_threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

/// Take the next batch off `outbox`: up to `batch_max` events (bounded by
/// [`BATCH_SOFT_BYTES`] encoded size), waiting until the batch fills, a
/// producer asks for a flush, or the oldest queued event reaches
/// `flush_us` of age. A request raised while the sender was busy writing
/// is simply found set here, so whatever accumulated meanwhile leaves as
/// one frame. `None` when stopping with an empty queue.
fn collect_batch(outbox: &PeerOutbox) -> Option<(Vec<WireEvent>, FlushReason)> {
    let age_limit = Duration::from_micros(outbox.cfg.flush_us);
    let mut q = outbox.queue.lock();
    loop {
        let Some(&(oldest, _)) = q.events.front() else {
            if outbox.stopping.load(Ordering::Acquire) {
                return None;
            }
            outbox.cv.wait_for(&mut q, OUTBOX_POLL);
            continue;
        };
        let age = oldest.elapsed();
        let reason = if q.events.len() >= outbox.cfg.batch_max {
            FlushReason::Size
        } else if q.flush_requested {
            FlushReason::Demand
        } else if age >= age_limit {
            FlushReason::Age
        } else if outbox.stopping.load(Ordering::Acquire) {
            FlushReason::Stop
        } else {
            // Wait out the remaining age, capped so a stop is never
            // missed for long.
            let remaining = age_limit - age;
            outbox.cv.wait_for(&mut q, remaining.clamp(Duration::from_micros(50), OUTBOX_POLL));
            continue;
        };
        let mut batch = Vec::with_capacity(q.events.len().min(outbox.cfg.batch_max));
        let mut bytes = 0usize;
        while batch.len() < outbox.cfg.batch_max {
            let Some((_, ev)) = q.events.front() else { break };
            let size = wire_event_size_hint(ev);
            if !batch.is_empty() && bytes + size > BATCH_SOFT_BYTES {
                break; // over budget: stays, with its age, for the next batch
            }
            bytes += size;
            batch.extend(q.events.pop_front().map(|(_, ev)| ev));
        }
        if q.events.is_empty() {
            q.flush_requested = false;
        }
        return Some((batch, reason));
    }
}

/// Dial a peer, send the connection preamble and wait for its
/// [`Frame::HelloAck`]. Both timeouts are set — the write timeout matters
/// even on the pooled request/response path: a failure report written from
/// a sender thread must not block forever on a stalled master, or
/// `TcpTransport::drop`'s join would wedge shutdown.
fn dial(addr: SocketAddr, local: MachineId, stats: &TcpStats) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
    stats.connects.fetch_add(1, Ordering::Relaxed);
    Frame::hello(local).write_to(&mut stream)?;
    match Frame::read_from(&mut stream)? {
        Frame::HelloAck => Ok(stream),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected HelloAck, got {other:?}"),
        )),
    }
}

/// Check a reused connection for a peer that has already closed, before a
/// one-way write: nothing is owed to this side, so any readable state —
/// EOF (FIN) or unexpected bytes — means the connection is dead. Without
/// this probe, the first write after a graceful peer close "succeeds"
/// into the kernel buffer and the frame is silently lost; with it,
/// detection is deterministic once the close has propagated.
fn probe_peer_alive(stream: &TcpStream) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    let mut probe = [0u8; 1];
    let mut reader = stream;
    let verdict = match reader.read(&mut probe) {
        Ok(0) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed")),
        Ok(_) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unexpected data on a one-way connection",
        )),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
        Err(e) => Err(e),
    };
    stream.set_nonblocking(false)?;
    verdict
}

/// Write one encoded batch, reusing `conn` with one reconnect retry (a
/// stale persistent connection gets one fresh dial; a dead peer fails that
/// too).
fn send_batch(outbox: &PeerOutbox, conn: &mut Option<TcpStream>, payload: &[u8]) -> io::Result<()> {
    let redial = |conn: &mut Option<TcpStream>| {
        *conn = None;
        let mut stream = dial(outbox.addr, outbox.local, &outbox.stats)?;
        frame::write_payload(&mut stream, payload)?;
        *conn = Some(stream);
        Ok(())
    };
    let Some(stream) = conn.as_mut() else { return redial(conn) };
    match probe_peer_alive(stream).and_then(|()| frame::write_payload(stream, payload)) {
        Ok(()) => Ok(()),
        Err(e) if matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock) => {
            // A write *timeout* on a live connection means the peer is
            // stalled, not gone — the frame may sit in kernel buffers and
            // still be delivered when the peer resumes. Re-sending it on
            // a fresh dial would double-deliver the whole batch, so no
            // retry: surface the failure (slow past the timeout is
            // treated as dead, loss over duplication).
            *conn = None;
            Err(e)
        }
        Err(_) => {
            // A connection-level error (reset, FIN seen by the probe,
            // broken pipe): the stale persistent connection gets one
            // fresh dial. Nothing of the failed write can be delivered —
            // the peer's socket is gone — so the resend cannot duplicate.
            redial(conn)
        }
    }
}

/// One peer's dedicated sender: drain the outbox in batches, pipelining
/// frames over a persistent connection. On wire failure (after the one
/// reconnect retry) this is the §4.3 detection point — mark the peer
/// down, drain everything undelivered, and hand it to the engine.
fn sender_loop(outbox: Arc<PeerOutbox>) {
    let mut conn: Option<TcpStream> = None;
    while let Some((raw, reason)) = collect_batch(&outbox) {
        outbox.stats.flushes[reason as usize].fetch_add(1, Ordering::Relaxed);
        // Map-side pre-aggregation before framing: runs of a hot key
        // become one wire entry with its absorbed count. Ops with no
        // combiner — the default — fold nothing and frame byte-identically.
        let handler = outbox.handler.get();
        let combine = |op, acc: &[u8], next: &[u8]| handler.as_ref()?.combine_values(op, acc, next);
        let batch = frame::fold_runs(raw, |ev| Some(ev.run_key(true)), combine);
        // Original (pre-fold) event count — what the backlog gauge and
        // loss ledgers are denominated in.
        let raw_count: u64 = batch.iter().map(|(_, count)| *count).sum();
        let payload = frame::encode_events(batch.iter().map(|(ev, n)| (ev, *n)));
        match send_batch(&outbox, &mut conn, &payload) {
            Ok(()) => {
                outbox.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
                if batch.len() > 1 {
                    outbox.stats.batches_sent.fetch_add(1, Ordering::Relaxed);
                }
                // Wire entries actually framed — under combining this is
                // what shrinks while the backlog drains at raw scale.
                outbox.stats.batched_events_sent.fetch_add(batch.len() as u64, Ordering::Relaxed);
                outbox.stats.outbound_backlog.fetch_sub(raw_count, Ordering::Relaxed);
                outbox.cv.notify_all(); // room freed: wake blocked producers
            }
            Err(_) => {
                outbox.stats.send_failures.fetch_add(1, Ordering::Relaxed);
                outbox.down.store(true, Ordering::Release);
                // The loss ledger counts *original* events: a folded
                // carrier re-enters once per absorbed event so exactly-N
                // accounting survives combining (values are the folded
                // payload — the ledger only counts and logs, never
                // redelivers).
                let mut lost: Vec<WireEvent> = Vec::with_capacity(raw_count as usize);
                for (ev, count) in batch {
                    lost.extend(std::iter::repeat_n(ev, count as usize));
                }
                {
                    let mut q = outbox.queue.lock();
                    lost.extend(q.events.drain(..).map(|(_, ev)| ev));
                    q.flush_requested = false;
                }
                outbox.stats.outbound_backlog.fetch_sub(lost.len() as u64, Ordering::Relaxed);
                outbox.cv.notify_all(); // blocked producers see `down`
                if let Some(handler) = outbox.handler.get() {
                    handler.handle_send_failure(outbox.dest, lost);
                }
                return; // §4.3: a dead machine never comes back
            }
        }
    }
}

impl Transport for TcpTransport {
    fn register(&self, handler: Weak<dyn ClusterHandler>) {
        self.handler.register(handler);
    }

    /// `NoRoute` for this process's own machine: the wire carries only
    /// other processes' traffic.
    fn send_event(&self, dest: MachineId, ev: WireEvent) -> Result<(), NetError> {
        self.enqueue_event(dest, ev)
    }

    fn store_put_many(
        &self,
        dest: MachineId,
        items: Vec<StorePutItem>,
        now_us: u64,
    ) -> Result<Vec<bool>, NetError> {
        // One framed round trip for the whole run — the flush tick's N
        // dirty slates cost one request frame and one reply, not N; the
        // owned items move straight into the frame (no payload re-copy).
        let sent = items.len();
        let request = Frame::StorePut { items, now_us };
        match self.exchange(dest, &request, true)? {
            Some(Frame::StoreAck { ok }) if ok.len() == sent => Ok(ok),
            Some(Frame::StoreAck { ok }) => Err(NetError::Protocol(format!(
                "StoreAck length mismatch: sent {sent}, acked {}",
                ok.len()
            ))),
            other => Err(NetError::Protocol(format!("expected StoreAck, got {other:?}"))),
        }
    }

    fn store_get_many(
        &self,
        dest: MachineId,
        items: Vec<StoreGetItem>,
        now_us: u64,
    ) -> Result<Vec<Option<Vec<u8>>>, NetError> {
        let asked = items.len();
        let request = Frame::StoreGet { items, now_us };
        match self.exchange(dest, &request, true)? {
            Some(Frame::StoreValue { values }) if values.len() == asked => Ok(values),
            Some(Frame::StoreValue { values }) => Err(NetError::Protocol(format!(
                "StoreValue length mismatch: asked {asked}, got {}",
                values.len()
            ))),
            other => Err(NetError::Protocol(format!("expected StoreValue, got {other:?}"))),
        }
    }
}

/// The rest of the wire: flow control, the §4.3 failure channel,
/// membership, live slate reads and restart. Every call but the master's
/// own failure leg addresses another process.
impl TcpTransport {
    /// The machine this process runs.
    pub fn local(&self) -> MachineId {
        self.local
    }

    /// Events accepted by [`Transport::send_event`] but not yet on the
    /// wire. The engine adds this to its pending/throttle budget so a slow
    /// peer pushes back on the source instead of growing a buffer.
    pub fn outbound_backlog(&self) -> usize {
        self.stats.outbound_backlog.load(Ordering::Relaxed) as usize
    }

    /// The caller has, for now, nothing more to send to `peers`: what it
    /// queued for them leaves as soon as the wire can take it instead of
    /// waiting to fill a batch or reach its age ceiling. A hint — never
    /// needed for delivery, free to call with peers that have nothing
    /// queued.
    pub fn flush_events(&self, peers: &[MachineId]) {
        for &peer in peers {
            let Ok(outbox) = self.outbox(peer) else { continue };
            let mut q = outbox.queue.lock();
            // A sender busy writing finds the flag when it comes back for
            // its next batch; one already waiting needs the wake-up.
            if !q.events.is_empty() && !q.flush_requested {
                q.flush_requested = true;
                outbox.cv.notify_all();
            }
        }
    }

    /// Report `failed` to the master role, stamped with the reporter's
    /// membership epoch: a frame, or on the master node a local call.
    pub fn report_failure(&self, failed: MachineId, epoch: u64) {
        if self.master == self.local {
            if let Some(h) = self.handler() {
                h.handle_failure_report(failed, epoch);
            }
            return;
        }
        // Best effort: if the master itself is unreachable, apply the drop
        // locally so this node stops routing to the dead machine.
        if self.exchange(self.master, &Frame::FailureReport { failed, epoch }, false).is_err() {
            if let Some(h) = self.handler() {
                h.handle_failure_broadcast(failed, epoch);
            }
        }
    }

    /// Master-side: tell every machine, this one included, to drop
    /// `failed` from its rings.
    pub fn broadcast_failure(&self, failed: MachineId, epoch: u64) {
        let nodes: Vec<MachineId> = self.topology.read().nodes.iter().map(|n| n.id).collect();
        for id in nodes {
            if id == failed {
                continue; // no point telling the dead machine
            }
            if id == self.local {
                if let Some(h) = self.handler() {
                    h.handle_failure_broadcast(failed, epoch);
                }
            } else {
                // Best effort; unreachable peers will detect via their own
                // traffic.
                let _ = self.exchange(id, &Frame::FailureBroadcast { failed, epoch }, false);
            }
        }
    }

    /// Joiner-side: announce to the master role that `machine` (this
    /// process's reserved id) is live and ready to enter the rings.
    /// Errors when the announcement could not reach the master — the
    /// joiner must surface or retry it, or it would sit outside every
    /// ring forever believing it joined.
    pub fn send_join(&self, master: MachineId, machine: MachineId) -> Result<(), NetError> {
        self.exchange(master, &Frame::Join { machine }, false).map(|_| ())
    }

    /// Master-side: deliver one membership phase to `dest`. With
    /// `want_ack` the call blocks until the peer acknowledges (the
    /// prepare barrier: moved-away slates are flushed before the ack).
    pub fn send_membership(
        &self,
        dest: MachineId,
        update: &MembershipUpdate,
        want_ack: bool,
    ) -> Result<(), NetError> {
        // Only the prepare phase replies on the wire (a one-way
        // commit/abort reply would poison the pooled connection with an
        // unread frame).
        debug_assert_eq!(
            want_ack,
            update.phase == MembershipPhase::Prepare,
            "acks belong to the prepare phase"
        );
        match self.exchange(dest, &Frame::Membership(update.clone()), want_ack)? {
            None => Ok(()),
            Some(Frame::MembershipReply { epoch, accepted: true }) if epoch == update.epoch => {
                Ok(())
            }
            Some(Frame::MembershipReply { epoch, accepted: false }) => {
                Err(NetError::Protocol(format!("peer {dest} refused membership epoch {epoch}")))
            }
            other => Err(NetError::Protocol(format!("expected MembershipReply, got {other:?}"))),
        }
    }

    /// Read the live cached slate owned by `dest` (§4.4).
    pub fn read_slate(
        &self,
        dest: MachineId,
        updater: &str,
        key: &[u8],
    ) -> Result<Option<Vec<u8>>, NetError> {
        let request = Frame::SlateGet { updater: updater.to_string(), key: key.to_vec() };
        match self.exchange(dest, &request, true)? {
            Some(Frame::SlateValue { value }) => Ok(value),
            other => Err(NetError::Protocol(format!("expected SlateValue, got {other:?}"))),
        }
    }

    /// Announce to `dest` that `machine` — a previously failed id — is a
    /// restarted incarnation re-identifying itself (crash recovery).
    /// Returns `dest`'s membership epoch.
    pub fn reintroduce(&self, dest: MachineId, machine: MachineId) -> Result<u64, NetError> {
        match self.exchange(dest, &Frame::Reintroduce { machine }, true)? {
            Some(Frame::ReintroduceAck { epoch }) => Ok(epoch),
            other => Err(NetError::Protocol(format!("expected ReintroduceAck, got {other:?}"))),
        }
    }

    /// Forget the send-side death state for `peer` so traffic can flow to
    /// its restarted incarnation. A declared-dead peer's outbox is
    /// permanently down and its sender thread has exited (§4.3: "a dead
    /// machine never comes back"); reintroduction is the one sanctioned
    /// resurrection. Both flags reset under the sender-threads lock so the
    /// next enqueue respawns a sender instead of racing a half-dead one.
    pub fn revive_peer(&self, peer: MachineId) {
        let Ok(outbox) = self.outbox(peer) else { return };
        let _threads = self.sender_threads.lock();
        if outbox.down.swap(false, Ordering::AcqRel) {
            outbox.started.store(false, Ordering::Release);
        }
    }
}

/// A running accept loop — the node's frame listener, or any other
/// thread-per-connection server (`muppet-runtime`'s HTTP front door).
/// Dropping it stops the loop (tests use that to "kill" a peer).
pub struct TcpListenerHandle {
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    addr: SocketAddr,
}

impl TcpListenerHandle {
    /// Hand every connection `listener` accepts to `serve`, on a thread
    /// named `name` that blocks in `accept` (no polling) until
    /// [`TcpListenerHandle::stop`]. `serve` also gets the stop flag, for
    /// connection threads that outlive one request.
    pub fn spawn(
        name: String,
        listener: TcpListener,
        mut serve: impl FnMut(TcpStream, &Arc<AtomicBool>) + Send + 'static,
    ) -> io::Result<TcpListenerHandle> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new().name(name).spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                if stop2.load(Ordering::Acquire) {
                    break; // the wake-up connection (or a racing client)
                }
                serve(stream, &stop2);
            }
        })?;
        Ok(TcpListenerHandle { stop, accept_thread: Some(accept_thread), addr })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Stop accepting and serving (idempotent; also runs on drop).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            // The thread is parked in `accept`: a throwaway connection
            // wakes it to see the flag. A wildcard bind is reached over
            // loopback.
            let mut addr = self.addr;
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr {
                    SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                });
            }
            // No connection, no wake-up: leave the thread detached rather
            // than wait on it forever (it has already exited if `accept`
            // failed, which is also when the connect is refused).
            if TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).is_ok() {
                let _ = t.join();
            }
        }
    }
}

impl Drop for TcpListenerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// An inbound connection as [`Frame::read_from`] reads it: a
/// [`SERVE_POLL`] read timeout is retried until `stop` is raised, so a
/// frame may straddle a poll.
struct Polled<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
}

impl Read for Polled<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
                        && !self.stop.load(Ordering::Acquire) => {}
                done => return done,
            }
        }
    }
}

/// Bytes arrived that are no frame: oversized, corrupt or undecodable.
struct Rejected;

/// Read one frame off an inbound connection. `Ok(None)` ends the
/// connection quietly: stop raised, or the peer went away.
fn read_inbound(
    stream: &TcpStream,
    stats: &TcpStats,
    stop: &AtomicBool,
) -> Result<Option<Frame>, Rejected> {
    match Frame::read_from(&mut Polled { stream, stop }) {
        Ok(frame) => {
            stats.frames_received.fetch_add(1, Ordering::Relaxed);
            Ok(Some(frame))
        }
        Err(e) if e.kind() == io::ErrorKind::InvalidData => Err(Rejected),
        Err(_) => Ok(None),
    }
}

fn serve_connection(transport: Arc<TcpTransport>, stream: TcpStream, stop: Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(SERVE_POLL));
    let _ = stream.set_nodelay(true);
    // The preamble: nothing is served before a current-version hello.
    let stats = &transport.stats;
    let refuse =
        |counter: &AtomicU64, offered| transport.reject(counter, stream.peer_addr(), offered);
    match read_inbound(&stream, stats, &stop) {
        Ok(Some(Frame::Hello { version: PROTOCOL_VERSION, .. })) => {
            if Frame::HelloAck.write_to(&mut &stream).is_err() {
                return;
            }
        }
        Ok(Some(Frame::Hello { version, .. })) => {
            return refuse(&stats.hello_rejected, Some(version))
        }
        Ok(None) => return,
        Ok(Some(_)) | Err(Rejected) => return refuse(&stats.hello_rejected, None),
    }
    loop {
        if stop.load(Ordering::Acquire) {
            return; // closes both halves → peers see RST on next send
        }
        let frame = match read_inbound(&stream, stats, &stop) {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(Rejected) => return refuse(&stats.frames_rejected, None),
        };
        let Some(handler) = transport.handler() else { return };
        let local = transport.local;
        let reply = match frame {
            Frame::Events(entries) => {
                // Delivery failures here are local queue-policy outcomes;
                // the sender's §4.3 signal is the connection, not a NACK.
                for (ev, absorbed) in entries {
                    let _ = if absorbed == 1 {
                        handler.deliver_event(local, ev)
                    } else {
                        handler.deliver_combined(local, ev, absorbed)
                    };
                }
                None
            }
            Frame::FailureReport { failed, epoch } => {
                handler.handle_failure_report(failed, epoch);
                None
            }
            Frame::FailureBroadcast { failed, epoch } => {
                handler.handle_failure_broadcast(failed, epoch);
                None
            }
            Frame::Join { machine } => {
                handler.handle_join(machine);
                None
            }
            Frame::Membership(update) => {
                // Prepare is a request/response (the flush-before-ack
                // barrier) — a refusal is an explicit reply so the master
                // fails fast instead of burning a reply timeout.
                // Commit/abort are one-way so the pooled connection is
                // never left with an unread reply.
                let accepted = handler.handle_membership(&update);
                (update.phase == MembershipPhase::Prepare)
                    .then_some(Frame::MembershipReply { epoch: update.epoch, accepted })
            }
            Frame::SlateGet { updater, key } => {
                Some(Frame::SlateValue { value: handler.read_local_slate(local, &updater, &key) })
            }
            Frame::StorePut { items, now_us } => {
                Some(Frame::StoreAck { ok: handler.backend_store_many(&items, now_us) })
            }
            Frame::StoreGet { items, now_us } => {
                Some(Frame::StoreValue { values: handler.backend_load_many(&items, now_us) })
            }
            Frame::Reintroduce { machine } => {
                // A restarted incarnation re-identified itself: forget our
                // send-side death state first so the handler's re-join
                // traffic can reach it, then let the engine clear its
                // ledger/rings.
                transport.revive_peer(machine);
                Some(Frame::ReintroduceAck { epoch: handler.handle_reintroduce(machine) })
            }
            // A second hello, or a reply kind arriving as a request:
            // protocol violation.
            Frame::Hello { .. }
            | Frame::HelloAck
            | Frame::SlateValue { .. }
            | Frame::StoreValue { .. }
            | Frame::StoreAck { .. }
            | Frame::MembershipReply { .. }
            | Frame::ReintroduceAck { .. } => return,
        };
        if let Some(reply) = reply {
            if reply.write_to(&mut &stream).is_err() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_core::Codec;
    use std::io::Write;
    use std::sync::atomic::AtomicUsize;

    type TaggedCells = std::collections::HashMap<Vec<u8>, (Vec<u8>, Codec)>;

    struct EchoHandler {
        delivered: AtomicUsize,
        reports: Mutex<Vec<(MachineId, u64)>>,
        broadcasts: Mutex<Vec<(MachineId, u64)>>,
        joins: Mutex<Vec<MachineId>>,
        memberships: Mutex<Vec<MembershipUpdate>>,
        send_failures: Mutex<Vec<(MachineId, usize)>>,
        store: Mutex<TaggedCells>,
        last_value: Mutex<Vec<u8>>,
    }

    impl EchoHandler {
        fn new() -> Arc<EchoHandler> {
            Arc::new(EchoHandler {
                delivered: AtomicUsize::new(0),
                reports: Mutex::new(Vec::new()),
                broadcasts: Mutex::new(Vec::new()),
                joins: Mutex::new(Vec::new()),
                memberships: Mutex::new(Vec::new()),
                send_failures: Mutex::new(Vec::new()),
                store: Mutex::new(Default::default()),
                last_value: Mutex::new(Vec::new()),
            })
        }
    }

    impl ClusterHandler for EchoHandler {
        fn deliver_event(&self, _dest: MachineId, ev: WireEvent) -> Result<(), NetError> {
            *self.last_value.lock() = ev.event.value.to_vec();
            self.delivered.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn handle_send_failure(&self, dest: MachineId, lost: Vec<WireEvent>) {
            self.send_failures.lock().push((dest, lost.len()));
        }
        fn handle_failure_report(&self, failed: MachineId, epoch: u64) {
            self.reports.lock().push((failed, epoch));
        }
        fn handle_failure_broadcast(&self, failed: MachineId, epoch: u64) {
            self.broadcasts.lock().push((failed, epoch));
        }
        fn handle_join(&self, machine: MachineId) {
            self.joins.lock().push(machine);
        }
        fn handle_membership(&self, update: &MembershipUpdate) -> bool {
            self.memberships.lock().push(update.clone());
            true
        }
        fn read_local_slate(&self, _dest: MachineId, updater: &str, key: &[u8]) -> Option<Vec<u8>> {
            (updater == "U1" && key == b"walmart").then(|| b"7".to_vec())
        }
        fn backend_store_many(&self, items: &[StorePutItem], _now: u64) -> Vec<bool> {
            let mut store = self.store.lock();
            for item in items {
                store.insert(item.key.clone(), (item.value.to_vec(), item.codec));
            }
            vec![true; items.len()]
        }
        fn backend_load(&self, _u: &str, key: &[u8], _now: u64) -> Option<Vec<u8>> {
            self.store.lock().get(key).map(|(v, _)| v.clone())
        }
    }

    fn pair() -> (
        Arc<TcpTransport>,
        Arc<TcpTransport>,
        Arc<EchoHandler>,
        Arc<EchoHandler>,
        TcpListenerHandle,
        TcpListenerHandle,
    ) {
        let topo = Topology::loopback_ephemeral(2, false).unwrap();
        let t0 = TcpTransport::new(topo.clone(), 0).unwrap();
        let t1 = TcpTransport::new(topo, 1).unwrap();
        let h0 = EchoHandler::new();
        let h1 = EchoHandler::new();
        t0.register(Arc::downgrade(&h0) as Weak<dyn ClusterHandler>);
        t1.register(Arc::downgrade(&h1) as Weak<dyn ClusterHandler>);
        let l0 = t0.start_listener().unwrap();
        let l1 = t1.start_listener().unwrap();
        (t0, t1, h0, h1, l0, l1)
    }

    /// `t0` (node 0, batching per `batch`) wired to a listening node 1
    /// whose handler is `h1`.
    fn sender_to<H: ClusterHandler>(
        batch: BatchConfig,
        h1: &Arc<H>,
    ) -> (Arc<TcpTransport>, Arc<TcpTransport>, TcpListenerHandle) {
        let topo = Topology::loopback_ephemeral(2, false).unwrap();
        let t0 = TcpTransport::new_with_batching(topo.clone(), 0, batch).unwrap();
        let t1 = TcpTransport::new(topo, 1).unwrap();
        t1.register(Arc::downgrade(h1) as Weak<dyn ClusterHandler>);
        let l1 = t1.start_listener().unwrap();
        (t0, t1, l1)
    }

    fn wait_delivered(h: &EchoHandler, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while h.delivered.load(Ordering::Relaxed) < n {
            assert!(Instant::now() < deadline, "events not delivered");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn put_item(key: &[u8], value: &[u8], codec: Codec) -> StorePutItem {
        StorePutItem {
            updater: "U1".into(),
            key: key.to_vec(),
            value: value.to_vec().into(),
            ttl_secs: None,
            codec,
        }
    }

    fn wire_event() -> WireEvent {
        WireEvent {
            op: 0,
            event: muppet_core::event::Event::new("S", 1, muppet_core::event::Key::from("k"), "v"),
            injected_us: 0,
            redirected: false,
            external: true,
            thread_hint: None,
            forwards: 0,
        }
    }

    #[test]
    fn events_cross_the_wire() {
        let (t0, _t1, _h0, h1, _l0, _l1) = pair();
        for _ in 0..10 {
            t0.send_event(1, wire_event()).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while h1.delivered.load(Ordering::Relaxed) < 10 {
            assert!(std::time::Instant::now() < deadline, "events not delivered");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The batching path accounts every event; the frame count may be
        // smaller (coalescing) but never zero.
        let stats = t0.stats();
        assert_eq!(stats.batched_events_sent.load(Ordering::Relaxed), 10);
        let frames = stats.frames_sent.load(Ordering::Relaxed);
        assert!((1..=10).contains(&frames), "got {frames} frames for 10 events");
        assert_eq!(stats.outbound_backlog.load(Ordering::Relaxed), 0, "backlog drains");
    }

    #[test]
    fn queued_events_coalesce_into_batches() {
        // A long age bound so the first flush finds a full queue.
        let batch = BatchConfig { batch_max: 64, flush_us: 50_000, queue_capacity: 4096 };
        let h1 = EchoHandler::new();
        let (t0, _t1, _l1) = sender_to(batch, &h1);
        for _ in 0..200 {
            t0.send_event(1, wire_event()).unwrap();
        }
        wait_delivered(&h1, 200);
        let stats = t0.stats();
        let frames = stats.frames_sent.load(Ordering::Relaxed);
        assert!(frames < 200, "200 events must not take 200 frames (got {frames})");
        assert!(stats.batches_sent.load(Ordering::Relaxed) >= 1, "at least one multi-event frame");
    }

    #[test]
    fn full_outbox_blocks_instead_of_buffering_unboundedly() {
        // Tiny queue + slow flush: the producer must hit the wall.
        let batch = BatchConfig { batch_max: 4, flush_us: 20_000, queue_capacity: 8 };
        let h1 = EchoHandler::new();
        let (t0, _t1, _l1) = sender_to(batch, &h1);
        for _ in 0..100 {
            t0.send_event(1, wire_event()).unwrap();
        }
        wait_delivered(&h1, 100);
        assert!(
            t0.stats().queue_full_waits.load(Ordering::Relaxed) > 0,
            "an 8-slot outbox fed 100 events must exert backpressure"
        );
        assert_eq!(t0.outbound_backlog(), 0);
    }

    #[test]
    fn failed_batch_is_one_detection_with_every_event_accounted() {
        let topo = Topology::loopback_ephemeral(2, false).unwrap();
        // Age bound long enough to park all events in the outbox first.
        let batch = BatchConfig { batch_max: 1024, flush_us: 400_000, queue_capacity: 4096 };
        let t0 = TcpTransport::new_with_batching(topo, 0, batch).unwrap();
        let h0 = EchoHandler::new();
        t0.register(Arc::downgrade(&h0) as Weak<dyn ClusterHandler>);
        // Peer 1 never exists: the flush's connect is refused and the
        // whole queued run must surface as one send failure.
        for _ in 0..17 {
            t0.send_event(1, wire_event()).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while h0.send_failures.lock().is_empty() {
            assert!(std::time::Instant::now() < deadline, "send failure never surfaced");
            std::thread::sleep(Duration::from_millis(5));
        }
        let failures = h0.send_failures.lock();
        assert_eq!(failures.len(), 1, "one batch failure, not one per event");
        let (dest, lost) = &failures[0];
        assert_eq!(*dest, 1);
        assert_eq!(*lost, 17, "every queued event is in the lost set");
        drop(failures);
        assert_eq!(t0.outbound_backlog(), 0);
        // The peer is down for good: later sends fail synchronously.
        assert!(matches!(t0.send_event(1, wire_event()), Err(NetError::Unreachable(1))));
    }

    #[test]
    fn slate_and_store_requests_get_replies() {
        let (t0, t1, h0, _h1, _l0, _l1) = pair();
        assert_eq!(t0.read_slate(1, "U1", b"walmart").unwrap(), Some(b"7".to_vec()));
        assert_eq!(t0.read_slate(1, "U1", b"absent").unwrap(), None);
        // Store ops served by node 0's handler, called from node 1.
        let get = |key: &[u8]| {
            let item = StoreGetItem { updater: "U1".into(), key: key.to_vec() };
            t1.store_get_many(0, vec![item], 0).unwrap().remove(0)
        };
        assert_eq!(
            t1.store_put_many(0, vec![put_item(b"k1", b"v1", Codec::Json)], 0).unwrap(),
            [true]
        );
        assert_eq!(get(b"k1"), Some(b"v1".to_vec()));
        assert_eq!(get(b"nope"), None);
        assert_eq!(h0.store.lock().len(), 1);
    }

    #[test]
    fn store_batches_are_one_round_trip_each() {
        let (_t0, t1, h0, _h1, _l0, _l1) = pair();
        let before = t1.stats().frames_sent.load(Ordering::Relaxed);
        let items: Vec<StorePutItem> = (0..32)
            .map(|i| StorePutItem {
                updater: "U1".into(),
                key: format!("k{i}").into_bytes(),
                value: format!("v{i}").into_bytes().into(),
                ttl_secs: None,
                codec: Codec::Json,
            })
            .collect();
        let ok = t1.store_put_many(0, items, 5).unwrap();
        assert_eq!(ok, vec![true; 32]);
        assert_eq!(h0.store.lock().len(), 32, "every cell landed on the host");
        let gets: Vec<StoreGetItem> = (0..33)
            .map(|i| StoreGetItem { updater: "U1".into(), key: format!("k{i}").into_bytes() })
            .collect();
        let values = t1.store_get_many(0, gets, 6).unwrap();
        assert_eq!(values.len(), 33);
        for (i, v) in values.iter().take(32).enumerate() {
            assert_eq!(v.as_deref(), Some(format!("v{i}").as_bytes()));
        }
        assert_eq!(values[32], None, "unknown keys read as None");
        let frames = t1.stats().frames_sent.load(Ordering::Relaxed) - before;
        assert_eq!(frames, 2, "32 puts + 33 gets = exactly two wire round trips");
    }

    #[test]
    fn failure_report_routes_to_master_and_broadcast_fans_out() {
        let (t0, t1, h0, h1, _l0, _l1) = pair();
        // Node 1 reports to the master (node 0) over the wire, stamped
        // with its membership epoch.
        t1.report_failure(7, 3);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while h0.reports.lock().is_empty() {
            assert!(std::time::Instant::now() < deadline, "report not received");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(*h0.reports.lock(), vec![(7, 3)]);
        // Master broadcast reaches both nodes (local + remote).
        t0.broadcast_failure(7, 3);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while h1.broadcasts.lock().is_empty() {
            assert!(std::time::Instant::now() < deadline, "broadcast not received");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(*h0.broadcasts.lock(), vec![(7, 3)]);
        assert_eq!(*h1.broadcasts.lock(), vec![(7, 3)]);
    }

    #[test]
    fn join_and_membership_phases_cross_the_wire() {
        let (t0, t1, h0, h1, _l0, _l1) = pair();
        // Joiner → master announcement (delivery errors surface).
        t1.send_join(0, 2).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while h0.joins.lock().is_empty() {
            assert!(std::time::Instant::now() < deadline, "join not received");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(*h0.joins.lock(), vec![2]);
        // Prepare is a blocking request/response: the ack returns only
        // after the peer's handler ran (the flush barrier).
        let spec = NodeSpec { id: 2, host: "127.0.0.1".into(), port: 1, http_port: 0 };
        let prepare = MembershipUpdate {
            epoch: 1,
            phase: MembershipPhase::Prepare,
            joined: vec![2],
            members: vec![0, 1, 2],
            nodes: vec![spec.clone()],
        };
        t0.send_membership(1, &prepare, true).unwrap();
        assert_eq!(*h1.memberships.lock(), vec![prepare.clone()]);
        // Commit is one-way.
        let commit = MembershipUpdate { phase: MembershipPhase::Commit, ..prepare };
        t0.send_membership(1, &commit, false).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while h1.memberships.lock().len() < 2 {
            assert!(std::time::Instant::now() < deadline, "commit not received");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(h1.memberships.lock()[1], commit);
    }

    #[test]
    fn add_peer_grows_a_running_transport() {
        // A 2-node cluster grows a 3rd peer at runtime; events to the new
        // id flow without rebuilding the transport.
        let grown = Topology::loopback_ephemeral(3, false).unwrap();
        let base = Topology { nodes: grown.nodes[..2].to_vec(), master: 0 };
        let t0 = TcpTransport::new(base, 0).unwrap();
        let t2 = TcpTransport::new(grown.clone(), 2).unwrap();
        let h0 = EchoHandler::new();
        let h2 = EchoHandler::new();
        t0.register(Arc::downgrade(&h0) as Weak<dyn ClusterHandler>);
        t2.register(Arc::downgrade(&h2) as Weak<dyn ClusterHandler>);
        let _l2 = t2.start_listener().unwrap();

        assert!(matches!(t0.send_event(2, wire_event()), Err(NetError::NoRoute(2))));
        t0.add_peer(&grown.nodes[2]).unwrap();
        t0.add_peer(&grown.nodes[2]).unwrap(); // idempotent re-announcement
        assert_eq!(t0.topology().len(), 3);
        assert!(t0.add_peer(&NodeSpec { id: 5, ..grown.nodes[2].clone() }).is_err(), "gapped id");
        t0.send_event(2, wire_event()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while h2.delivered.load(Ordering::Relaxed) < 1 {
            assert!(std::time::Instant::now() < deadline, "event to grown peer not delivered");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn dead_peer_surfaces_unreachable() {
        let (t0, _t1, _h0, h1, _l0, l1) = pair();
        t0.send_event(1, wire_event()).unwrap();
        drop(l1); // "kill" node 1's inbound wire
                  // Buffered writes may still succeed; within a few sends the reset
                  // connection and refused reconnect must surface.
        let mut saw_unreachable = false;
        for _ in 0..50 {
            if matches!(t0.send_event(1, wire_event()), Err(NetError::Unreachable(1))) {
                saw_unreachable = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(saw_unreachable, "dead peer never surfaced as Unreachable");
        assert!(t0.stats().send_failures.load(Ordering::Relaxed) >= 1);
        let _ = h1;
    }

    fn mbf_value() -> Vec<u8> {
        muppet_core::Json::parse(r#"{"count":42,"loc":"walmart"}"#).unwrap().to_mbf().unwrap()
    }

    #[test]
    fn tags_and_mbf_bytes_cross_the_wire_verbatim() {
        let (_t0, t1, h0, _h1, _l0, _l1) = pair();
        let raw = mbf_value();
        let items = vec![put_item(b"bin", &raw, Codec::Mbf), put_item(b"txt", b"7", Codec::Json)];
        let ok = t1.store_put_many(0, items, 1).unwrap();
        assert_eq!(ok, vec![true, true]);
        let store = h0.store.lock();
        assert_eq!(store.get(&b"bin"[..].to_vec()).unwrap(), &(raw.clone(), Codec::Mbf));
        assert_eq!(store.get(&b"txt"[..].to_vec()).unwrap(), &(b"7".to_vec(), Codec::Json));
        drop(store);
        // The value reply carries the MBF bytes back verbatim.
        let gets = vec![
            StoreGetItem { updater: "U1".into(), key: b"bin".to_vec() },
            StoreGetItem { updater: "U1".into(), key: b"txt".to_vec() },
        ];
        let values = t1.store_get_many(0, gets, 2).unwrap();
        assert_eq!(values[0].as_deref(), Some(&raw[..]));
        assert_eq!(values[1].as_deref(), Some(&b"7"[..]));
        // So does an event value on the batching path.
        let mut ev = wire_event();
        ev.event.value = raw.clone().into();
        t1.send_event(0, ev).unwrap();
        wait_delivered(&h0, 1);
        assert_eq!(*h0.last_value.lock(), raw);
    }

    #[test]
    fn one_way_frame_on_a_stale_pooled_connection_is_redialed_not_lost() {
        let topo = Topology::loopback_ephemeral(2, false).unwrap();
        let t0 = TcpTransport::new(topo.clone(), 0).unwrap();
        let h0 = EchoHandler::new();
        t0.register(Arc::downgrade(&h0) as Weak<dyn ClusterHandler>);
        let listen = |handler: &Arc<EchoHandler>| {
            let t1 = TcpTransport::new(topo.clone(), 1).unwrap();
            t1.register(Arc::downgrade(handler) as Weak<dyn ClusterHandler>);
            let l1 = t1.start_listener().unwrap();
            (t1, l1)
        };
        // A request/response pools a connection to node 1's first
        // incarnation, which then goes away...
        let first = EchoHandler::new();
        let (t1, l1) = listen(&first);
        assert_eq!(t0.read_slate(1, "U1", b"walmart").unwrap(), Some(b"7".to_vec()));
        drop((l1, t1));
        // ...and its close has reached node 0 (the pooled socket reads EOF)
        // before a second incarnation listens on the same port.
        let pooled = t0.pool(1).unwrap().idle.lock()[0].try_clone().unwrap();
        assert_eq!((&pooled).read(&mut [0u8; 1]).unwrap(), 0, "the old incarnation closed");
        let second = EchoHandler::new();
        let (_t1, _l1) = listen(&second);
        // The write into the dead socket would succeed; the join must reach
        // the new incarnation anyway.
        t0.send_join(1, 0).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while second.joins.lock().is_empty() {
            assert!(Instant::now() < deadline, "join reported sent, never delivered");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(*second.joins.lock(), vec![0]);
        assert!(first.joins.lock().is_empty());
    }

    type Refusals = Arc<Mutex<Vec<(IpAddr, Option<u64>)>>>;

    /// A listening node 1 whose hello refusals are recorded.
    fn refusing_server() -> (Arc<TcpTransport>, Arc<EchoHandler>, TcpListenerHandle, Refusals) {
        let topo = Topology::loopback_ephemeral(2, false).unwrap();
        let t1 = TcpTransport::new(topo, 1).unwrap();
        let h1 = EchoHandler::new();
        t1.register(Arc::downgrade(&h1) as Weak<dyn ClusterHandler>);
        let refusals = Refusals::default();
        let seen = Arc::clone(&refusals);
        t1.on_rejected(move |peer, version| seen.lock().push((peer.ip(), version)));
        let l1 = t1.start_listener().unwrap();
        (t1, h1, l1, refusals)
    }

    /// `frames` as the bytes a peer writes.
    fn wire(frames: &[Frame]) -> Vec<u8> {
        let mut bytes = Vec::new();
        frames.iter().for_each(|frame| frame.write_to(&mut bytes).unwrap());
        bytes
    }

    /// Open a raw connection to `server`, write `bytes`, and return what
    /// the server sent before closing.
    fn raw_exchange(server: &TcpListenerHandle, bytes: &[u8]) -> Vec<u8> {
        let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(bytes).unwrap();
        let mut reply = Vec::new();
        match stream.read_to_end(&mut reply) {
            Ok(_) => {}
            // Closed with our frames still unread in its buffer.
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("server neither replied nor closed: {e}"),
        }
        reply
    }

    #[test]
    fn a_connection_that_does_not_open_with_a_hello_is_refused() {
        let (t1, h1, l1, refusals) = refusing_server();
        let join = Frame::Join { machine: 0 };
        let report = Frame::FailureReport { failed: 0, epoch: 0 };
        assert!(raw_exchange(&l1, &wire(&[join, report])).is_empty(), "closed without a word");
        assert!(h1.joins.lock().is_empty() && h1.reports.lock().is_empty(), "nothing was served");
        assert_eq!(t1.stats().hello_rejected.load(Ordering::Relaxed), 1);
        assert_eq!(*refusals.lock(), vec![(IpAddr::from([127, 0, 0, 1]), None)]);
    }

    #[test]
    fn garbage_in_place_of_the_hello_is_refused_like_any_other_opening() {
        let (t1, _h1, l1, refusals) = refusing_server();
        assert!(raw_exchange(&l1, b"GET / HTTP/1.1\r\n\r\n").is_empty());
        assert_eq!(t1.stats().hello_rejected.load(Ordering::Relaxed), 1);
        assert_eq!(*refusals.lock(), vec![(IpAddr::from([127, 0, 0, 1]), None)]);
    }

    #[test]
    fn a_corrupt_frame_after_the_hello_is_counted_and_reported_not_served() {
        let (t1, h1, l1, refusals) = refusing_server();
        let mut bytes = wire(&[Frame::hello(0), Frame::Join { machine: 0 }]);
        *bytes.last_mut().unwrap() ^= 1; // one payload bit of the join
        assert_eq!(raw_exchange(&l1, &bytes), wire(&[Frame::HelloAck]));
        assert!(h1.joins.lock().is_empty(), "the handler saw no callback");
        let stats = t1.stats();
        assert_eq!(stats.frames_rejected.load(Ordering::Relaxed), 1);
        assert_eq!(stats.hello_rejected.load(Ordering::Relaxed), 0, "the hello was fine");
        assert_eq!(*refusals.lock(), vec![(IpAddr::from([127, 0, 0, 1]), None)]);
    }

    #[test]
    fn a_hello_of_another_version_is_refused_and_reported_once_per_peer() {
        let (t1, h1, l1, refusals) = refusing_server();
        let old = Frame::Hello { sender: 0, version: PROTOCOL_VERSION - 1 };
        let join = Frame::Join { machine: 0 };
        for _ in 0..3 {
            assert!(
                raw_exchange(&l1, &wire(&[old.clone(), join.clone()])).is_empty(),
                "no ack, no service"
            );
        }
        assert!(h1.joins.lock().is_empty(), "nothing was served");
        assert_eq!(t1.stats().hello_rejected.load(Ordering::Relaxed), 3, "every refusal counts");
        let reported = vec![(IpAddr::from([127, 0, 0, 1]), Some(PROTOCOL_VERSION - 1))];
        assert_eq!(*refusals.lock(), reported, "one report per peer address");
        // The same connection with the current version is acked and served.
        let mut stream = TcpStream::connect(("127.0.0.1", l1.port())).unwrap();
        Frame::hello(0).write_to(&mut stream).unwrap();
        let get = Frame::SlateGet { updater: "U1".into(), key: b"walmart".to_vec() };
        get.write_to(&mut stream).unwrap();
        assert_eq!(Frame::read_from(&mut stream).unwrap(), Frame::HelloAck);
        let value = Frame::SlateValue { value: Some(b"7".to_vec()) };
        assert_eq!(Frame::read_from(&mut stream).unwrap(), value);
    }

    #[test]
    fn a_frame_that_straddles_a_serve_poll_is_delivered_whole() {
        let (t1, _h1, l1, _refusals) = refusing_server();
        let mut stream = TcpStream::connect(("127.0.0.1", l1.port())).unwrap();
        let get = wire(&[Frame::SlateGet { updater: "U1".into(), key: b"walmart".to_vec() }]);
        // The hello and the request's 8-byte header, then a pause longer
        // than the server's read poll, then the body.
        stream.write_all(&[wire(&[Frame::hello(0)]), get[..8].to_vec()].concat()).unwrap();
        std::thread::sleep(SERVE_POLL + Duration::from_millis(150));
        stream.write_all(&get[8..]).unwrap();
        assert_eq!(Frame::read_from(&mut stream).unwrap(), Frame::HelloAck);
        let value = Frame::SlateValue { value: Some(b"7".to_vec()) };
        assert_eq!(Frame::read_from(&mut stream).unwrap(), value);
        assert_eq!(t1.stats().frames_rejected.load(Ordering::Relaxed), 0);
    }

    /// A standalone outbox (no transport, no socket) for driving
    /// `collect_batch` directly.
    fn bare_outbox(cfg: BatchConfig) -> Arc<PeerOutbox> {
        Arc::new(PeerOutbox {
            dest: 1,
            local: 0,
            addr: "127.0.0.1:1".parse().unwrap(),
            cfg: BatchConfig {
                batch_max: cfg.batch_max.max(1),
                queue_capacity: cfg.queue_capacity.max(1),
                ..cfg
            },
            queue: Mutex::new(OutboxQueue::default()),
            cv: Condvar::new(),
            down: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            started: AtomicBool::new(false),
            stats: Arc::new(TcpStats::default()),
            handler: Arc::new(HandlerSlot::default()),
        })
    }

    #[test]
    fn overgrown_queue_flushes_in_batch_max_sized_frames() {
        // Regression: a queue that grew past batch_max between flush
        // ticks (age- or stop-triggered) must drain as several
        // batch_max-sized frames, never one oversized frame. At
        // batch_max = 1 that is one frame per event: the unbatched wire.
        for (batch_max, frames) in [(8, 4), (1, 29)] {
            let ob = bare_outbox(BatchConfig { batch_max, flush_us: 1, queue_capacity: 4096 });
            {
                let mut q = ob.queue.lock();
                for _ in 0..29 {
                    q.events.push_back((Instant::now(), wire_event()));
                }
            }
            ob.stopping.store(true, Ordering::Release);
            let (mut total, mut batches) = (0usize, 0usize);
            while let Some((batch, _)) = collect_batch(&ob) {
                assert!(batch.len() <= batch_max, "an oversized frame of {}", batch.len());
                total += batch.len();
                batches += 1;
            }
            assert_eq!(total, 29, "every queued event drained exactly once");
            assert_eq!(batches, frames, "29 events over batch_max={batch_max}");
        }
    }

    #[test]
    fn requests_raised_between_batches_coalesce_and_a_remainder_keeps_its_age() {
        // No socket: the "sender" is this thread calling `collect_batch`,
        // so everything enqueued and requested before a call happened
        // "while it was busy writing".
        let ob = bare_outbox(BatchConfig { batch_max: 4, flush_us: 400_000, queue_capacity: 64 });
        let request_flush = |ob: &PeerOutbox| ob.queue.lock().flush_requested = true;
        for round in 0..3 {
            ob.queue
                .lock()
                .events
                .push_back((Instant::now(), keyed_event(0, "k", &round.to_string())));
            request_flush(&ob);
        }
        let (batch, reason) = collect_batch(&ob).unwrap();
        assert_eq!(reason, FlushReason::Demand);
        let order: Vec<&[u8]> = batch.iter().map(|ev| ev.event.value.as_ref()).collect();
        assert_eq!(order, [b"0", b"1", b"2"], "three requests, one frame, enqueue order");
        assert!(!ob.queue.lock().flush_requested, "the flag clears when the queue empties");

        // Six events that have already waited 380 of their 400 ms: the
        // size trigger takes four, and the two left over are owed their
        // remaining 20 ms, not a fresh 400.
        let waited = Instant::now() - Duration::from_millis(380);
        for _ in 0..6 {
            ob.queue.lock().events.push_back((waited, wire_event()));
        }
        let (batch, reason) = collect_batch(&ob).unwrap();
        assert_eq!((batch.len(), reason), (4, FlushReason::Size));
        let t0 = Instant::now();
        let (batch, reason) = collect_batch(&ob).unwrap();
        assert_eq!((batch.len(), reason), (2, FlushReason::Age));
        assert!(t0.elapsed() < Duration::from_millis(200), "remainder waited a second flush_us");
    }

    #[test]
    fn zero_flush_us_never_holds_anything() {
        let ob = bare_outbox(BatchConfig { batch_max: 128, flush_us: 0, queue_capacity: 64 });
        ob.queue.lock().events.push_back((Instant::now(), wire_event()));
        let (batch, reason) = collect_batch(&ob).unwrap();
        assert_eq!((batch.len(), reason), (1, FlushReason::Age));
    }

    #[test]
    fn one_flush_request_is_one_frame() {
        // A ceiling far beyond the test: only size and demand can flush.
        let batch = BatchConfig { batch_max: 128, flush_us: 60_000_000, queue_capacity: 4096 };
        let h1 = EchoHandler::new();
        let (t0, _t1, _l1) = sender_to(batch, &h1);
        for _ in 0..64 {
            t0.send_event(1, wire_event()).unwrap();
        }
        t0.flush_events(&[1]);
        wait_delivered(&h1, 64);
        let stats = t0.stats();
        assert_eq!(stats.frames_sent.load(Ordering::Relaxed), 1, "a burst is one frame");
        // 300 more: two full frames leave on their own, the request takes
        // the rest — ⌈300/128⌉ frames.
        for _ in 0..300 {
            t0.send_event(1, wire_event()).unwrap();
        }
        t0.flush_events(&[1]);
        wait_delivered(&h1, 364);
        assert_eq!(stats.frames_sent.load(Ordering::Relaxed), 1 + 3);
        assert_eq!(FlushReason::ALL.map(|r| stats.flushes(r)), [2, 2, 0, 0]);
        // A request with nothing queued is free: no frame, no stale flag.
        t0.flush_events(&[1, 0, 7]);
        t0.send_event(1, wire_event()).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(h1.delivered.load(Ordering::Relaxed), 364, "un-flagged event waits");
    }

    #[test]
    fn unrequested_events_leave_at_the_age_ceiling() {
        const FLUSH_US: u64 = 100_000;
        let batch = BatchConfig { batch_max: 128, flush_us: FLUSH_US, queue_capacity: 4096 };
        let h1 = EchoHandler::new();
        let (t0, _t1, _l1) = sender_to(batch, &h1);
        let started = Instant::now();
        t0.send_event(1, wire_event()).unwrap();
        wait_delivered(&h1, 1);
        let elapsed = started.elapsed();
        assert!(elapsed <= Duration::from_micros(2 * FLUSH_US), "{elapsed:?}: ceiling missed");
        assert_eq!(FlushReason::ALL.map(|r| t0.stats().flushes(r)), [0, 0, 1, 0]);
    }

    /// Records every delivered ⟨key, value⟩ in arrival order, behind a
    /// gate that parks the connection thread (so the peer stops reading).
    struct GatedHandler {
        open: Mutex<bool>,
        opened: Condvar,
        seen: Mutex<Vec<(Vec<u8>, u64)>>,
    }

    impl ClusterHandler for GatedHandler {
        fn deliver_event(&self, _dest: MachineId, ev: WireEvent) -> Result<(), NetError> {
            let mut open = self.open.lock();
            while !*open {
                self.opened.wait(&mut open);
            }
            drop(open);
            let seq = u64::from_le_bytes(ev.event.value[..8].try_into().unwrap());
            self.seen.lock().push((ev.event.key.as_bytes().to_vec(), seq));
            Ok(())
        }
        fn handle_failure_report(&self, _failed: MachineId, _epoch: u64) {}
        fn handle_failure_broadcast(&self, _failed: MachineId, _epoch: u64) {}
        fn read_local_slate(&self, _d: MachineId, _u: &str, _k: &[u8]) -> Option<Vec<u8>> {
            None
        }
    }

    #[test]
    fn flush_requests_against_a_stalled_peer_coalesce_without_loss_or_reordering() {
        // The peer stops reading, so the kernel buffers fill and the
        // sender blocks in `write` while the producer keeps enqueueing
        // 100 KiB events and asking for flushes. However many requests
        // pile up behind one write, they cost at most one frame each.
        const ROUNDS: u64 = 24;
        const PER_ROUND: u64 = 5;
        let batch = BatchConfig { batch_max: 128, flush_us: 60_000_000, queue_capacity: 4096 };
        let h1 = Arc::new(GatedHandler {
            open: Mutex::new(false),
            opened: Condvar::new(),
            seen: Mutex::new(Vec::new()),
        });
        let (t0, _t1, _l1) = sender_to(batch, &h1);
        for seq in 0..ROUNDS * PER_ROUND {
            let mut value = vec![0u8; 100 << 10];
            value[..8].copy_from_slice(&seq.to_le_bytes());
            let mut ev = wire_event();
            ev.event.key = muppet_core::event::Key::from(format!("k{}", seq % 3));
            ev.event.value = value.into();
            t0.send_event(1, ev).unwrap();
            if seq % PER_ROUND == PER_ROUND - 1 {
                t0.flush_events(&[1]);
            }
        }
        *h1.open.lock() = true;
        h1.opened.notify_all();
        let deadline = Instant::now() + Duration::from_secs(20);
        while (h1.seen.lock().len() as u64) < ROUNDS * PER_ROUND {
            assert!(Instant::now() < deadline, "events lost behind a stalled peer");
            std::thread::sleep(Duration::from_millis(2));
        }
        let frames = t0.stats().frames_sent.load(Ordering::Relaxed);
        assert!(frames <= ROUNDS, "{frames} frames for {ROUNDS} flush requests");
        assert_eq!(t0.stats().flushes(FlushReason::Demand), frames, "every frame was asked for");
        for key in [&b"k0"[..], b"k1", b"k2"] {
            let seqs: Vec<u64> =
                h1.seen.lock().iter().filter(|(k, _)| k == key).map(|(_, s)| *s).collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "per-key order broken: {seqs:?}");
            assert_eq!(seqs.len() as u64, ROUNDS * PER_ROUND / 3);
        }
    }

    /// Handler whose op 1 declares a decimal-sum combiner; tracks the
    /// exact delivered total and absorbed counts.
    struct CombiningHandler {
        delivered_entries: AtomicUsize,
        absorbed: AtomicUsize,
        sum: AtomicUsize,
    }

    impl CombiningHandler {
        fn new() -> Arc<CombiningHandler> {
            Arc::new(CombiningHandler {
                delivered_entries: AtomicUsize::new(0),
                absorbed: AtomicUsize::new(0),
                sum: AtomicUsize::new(0),
            })
        }
    }

    impl ClusterHandler for CombiningHandler {
        fn deliver_event(&self, _dest: MachineId, ev: WireEvent) -> Result<(), NetError> {
            self.delivered_entries.fetch_add(1, Ordering::Relaxed);
            let n: usize =
                std::str::from_utf8(&ev.event.value).unwrap_or("0").trim().parse().unwrap_or(0);
            self.sum.fetch_add(n, Ordering::Relaxed);
            Ok(())
        }
        fn deliver_combined(
            &self,
            dest: MachineId,
            ev: WireEvent,
            absorbed: u64,
        ) -> Result<(), NetError> {
            self.absorbed.fetch_add(absorbed as usize, Ordering::Relaxed);
            self.deliver_event(dest, ev)
        }
        fn combine_values(
            &self,
            op: muppet_core::workflow::OpId,
            acc: &[u8],
            next: &[u8],
        ) -> Option<Vec<u8>> {
            if op != 1 {
                return None;
            }
            muppet_core::operator::combine_decimal_sum(acc, next)
        }
        fn handle_failure_report(&self, _failed: MachineId, _epoch: u64) {}
        fn handle_failure_broadcast(&self, _failed: MachineId, _epoch: u64) {}
        fn read_local_slate(&self, _d: MachineId, _u: &str, _k: &[u8]) -> Option<Vec<u8>> {
            None
        }
    }

    fn keyed_event(op: muppet_core::workflow::OpId, key: &str, value: &str) -> WireEvent {
        WireEvent {
            op,
            event: muppet_core::event::Event::new(
                "S",
                1,
                muppet_core::event::Key::from(key),
                value.as_bytes().to_vec(),
            ),
            injected_us: 7,
            redirected: false,
            external: true,
            thread_hint: None,
            forwards: 0,
        }
    }

    #[test]
    fn a_drained_outbox_batch_folds_into_one_carrier() {
        // A single-hot-key burst of N frames ⌈N/batch_max⌉ entries: every
        // drained batch folds into one carrier.
        let ob = bare_outbox(BatchConfig::default());
        let h = CombiningHandler::new();
        let batch_max = ob.cfg.batch_max;
        for _ in 0..2 * batch_max + 44 {
            ob.queue.lock().events.push_back((Instant::now(), keyed_event(1, "hot", "1")));
        }
        ob.stopping.store(true, Ordering::Release);
        let mut absorbed = Vec::new();
        while let Some((batch, _)) = collect_batch(&ob) {
            let combine = |op, acc: &[u8], next: &[u8]| h.combine_values(op, acc, next);
            let entries = frame::fold_runs(batch, |ev| Some(ev.run_key(true)), combine);
            absorbed.extend(entries.into_iter().map(|(_, n)| n as usize));
        }
        assert_eq!(absorbed, [batch_max, batch_max, 44]);
    }

    #[test]
    fn combined_runs_cross_the_wire_with_exact_totals() {
        let topo = Topology::loopback_ephemeral(2, false).unwrap();
        // A long age bound so the queue accumulates a foldable run.
        let batch = BatchConfig { batch_max: 128, flush_us: 50_000, queue_capacity: 4096 };
        let t0 = TcpTransport::new_with_batching(topo.clone(), 0, batch).unwrap();
        let t1 = TcpTransport::new(topo, 1).unwrap();
        let h0 = CombiningHandler::new();
        let h1 = CombiningHandler::new();
        t0.register(Arc::downgrade(&h0) as Weak<dyn ClusterHandler>);
        t1.register(Arc::downgrade(&h1) as Weak<dyn ClusterHandler>);
        let _l1 = t1.start_listener().unwrap();
        for _ in 0..50 {
            t0.send_event(1, keyed_event(1, "hot", "1")).unwrap();
        }
        t0.send_event(1, keyed_event(1, "cold", "1")).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while h1.sum.load(Ordering::Relaxed) < 51 {
            assert!(std::time::Instant::now() < deadline, "combined totals not delivered");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(h1.sum.load(Ordering::Relaxed), 51, "folded payloads preserve the total");
        let entries_framed = t0.stats().batched_events_sent.load(Ordering::Relaxed);
        assert!(
            entries_framed < 51,
            "same-key runs must fold before framing (framed {entries_framed} entries for 51 events)"
        );
        assert!(
            h1.absorbed.load(Ordering::Relaxed) >= 2,
            "receiver saw combined entries with their absorbed counts"
        );
        assert_eq!(t0.stats().outbound_backlog.load(Ordering::Relaxed), 0, "backlog is raw-count");
    }

    #[test]
    fn the_wire_has_no_route_to_its_own_machine() {
        let (t0, _t1, h0, _h1, _l0, _l1) = pair();
        assert_eq!(t0.local(), 0);
        assert!(matches!(t0.send_event(0, wire_event()), Err(NetError::NoRoute(0))));
        assert!(matches!(t0.read_slate(0, "U1", b"walmart"), Err(NetError::NoRoute(0))));
        assert_eq!(h0.delivered.load(Ordering::Relaxed), 0, "nothing looped back");
        assert_eq!(t0.stats().frames_sent.load(Ordering::Relaxed), 0);
        assert_eq!(t0.outbound_backlog(), 0);
    }
}

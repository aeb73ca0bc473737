//! The transport abstraction.
//!
//! §4.1: "Muppet lets the workers pass events directly to one another
//! without going through any master." A [`Transport`] is that direct
//! worker→worker path plus the thin master channel of §4.3 (failure
//! reports and broadcasts) and the §4.4 remote slate-read path.
//!
//! Two implementations exist:
//!
//! * [`InProcessTransport`] — the seed's simulated cluster: every machine
//!   lives in one process and "the wire" is a synchronous callback into the
//!   engine. Zero behaviour change from the pre-transport engine.
//! * [`crate::tcp::TcpTransport`] — real sockets with length-prefixed
//!   binary framing and per-peer connection pooling; each engine process
//!   owns one machine of the cluster.
//!
//! The engine side of the wire is the [`ClusterHandler`]: the transport
//! calls it to finish local delivery, apply failure protocol steps, and
//! answer slate/store requests. Registration is late (`register`) because
//! the engine needs the transport at construction time and vice versa.

use std::fmt;
use std::sync::{Arc, OnceLock, Weak};

use muppet_core::workflow::OpId;

use crate::frame::{MembershipUpdate, StoreGetItem, StorePutItem, WireEvent};

/// Cluster-wide machine index (ring member id).
pub type MachineId = usize;

/// Why a transport operation failed.
#[derive(Debug)]
pub enum NetError {
    /// The destination machine cannot be reached (dead process, refused
    /// connection, reset pipe, or — in process — a crashed simulated
    /// machine). This is the §4.3 trigger.
    Unreachable(MachineId),
    /// The peer spoke, but not the protocol.
    Protocol(String),
    /// No handler registered / no such machine in the topology.
    NoRoute(MachineId),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Unreachable(m) => write!(f, "machine {m} unreachable"),
            NetError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            NetError::NoRoute(m) => write!(f, "no route to machine {m}"),
        }
    }
}

impl std::error::Error for NetError {}

/// The engine-side callbacks a transport delivers into.
pub trait ClusterHandler: Send + Sync + 'static {
    /// Finish delivery of an event addressed to local machine `dest`
    /// (enqueue with two-choice dispatch, apply the overflow policy).
    /// `Err(Unreachable)` if `dest` is not a live machine here.
    fn deliver_event(&self, dest: MachineId, ev: WireEvent) -> Result<(), NetError>;

    /// Finish delivery of a *combined* event: one wire event whose payload
    /// absorbed `absorbed` original same-⟨op,key⟩ events through the
    /// operator's declared combiner (map-side pre-aggregation in the sender
    /// outbox). Default: deliver like any other event — handlers that track
    /// per-original-event ledgers override to account the absorbed count.
    fn deliver_combined(
        &self,
        dest: MachineId,
        ev: WireEvent,
        absorbed: u64,
    ) -> Result<(), NetError> {
        let _ = absorbed;
        self.deliver_event(dest, ev)
    }

    /// Fold two event payloads for `op` through its declared associative
    /// combiner (see `muppet_core::operator::Updater::combine`). `None`
    /// (the default) means "no combiner declared — deliver individually";
    /// the sender outbox calls this while coalescing same-⟨op,key⟩ runs
    /// before framing.
    fn combine_values(&self, op: OpId, acc: &[u8], next: &[u8]) -> Option<Vec<u8>> {
        let _ = (op, acc, next);
        None
    }

    /// An asynchronous send path (the TCP transport's per-peer batching
    /// senders) gave up on `dest`: the whole in-flight batch plus
    /// everything still queued behind it is undeliverable. One §4.3
    /// detection — the implementation reports the failure once and
    /// accounts every event in `lost` individually (lost-and-logged,
    /// never retried). Default: drop silently (handlers that never use an
    /// async transport need no accounting).
    fn handle_send_failure(&self, dest: MachineId, lost: Vec<WireEvent>) {
        let _ = (dest, lost);
    }

    /// A failure report reached the master role on this node (§4.3).
    /// `epoch` is the membership epoch the reporter observed the failure
    /// under — the master rejects reports staler than the machine's
    /// latest join, so a slow report can never kill a re-joined
    /// incarnation.
    fn handle_failure_report(&self, failed: MachineId, epoch: u64);

    /// A master broadcast arrived: drop `failed` from every hash ring
    /// (§4.3), unless the broadcast's `epoch` predates the machine's
    /// latest join.
    fn handle_failure_broadcast(&self, failed: MachineId, epoch: u64);

    /// Master role only: a reserved machine announced it is live and
    /// ready to join the rings (elastic scale-out; DESIGN.md §7). The
    /// implementation runs the prepare/commit membership protocol.
    fn handle_join(&self, _machine: MachineId) {}

    /// An epoch-stamped membership update arrived (prepare or commit).
    /// Returns true when the phase was applied (the ack); prepare
    /// implementations must flush moved-away dirty slates before
    /// returning.
    fn handle_membership(&self, _update: &MembershipUpdate) -> bool {
        false
    }

    /// Read the live cached slate of ⟨updater, key⟩ on local machine
    /// `dest` (§4.4).
    fn read_local_slate(&self, dest: MachineId, updater: &str, key: &[u8]) -> Option<Vec<u8>>;

    /// Load slate bytes from the locally hosted store, if any. Nothing on
    /// the wire asks for one slate — this is the per-item primitive behind
    /// the default [`ClusterHandler::backend_load_many`], for hosts with
    /// nothing to gain from seeing the run.
    fn backend_load(&self, _updater: &str, _key: &[u8], _now_us: u64) -> Option<Vec<u8>> {
        None
    }

    /// Persist a run of slates into the locally hosted store, returning
    /// per-item success in order. Each item carries the payload format tag
    /// persisted with its cell (stored values may be compressed, so it
    /// cannot be re-sniffed at rest). The one write callback; default (a
    /// node hosting no store): refuse every item.
    fn backend_store_many(&self, items: &[StorePutItem], _now_us: u64) -> Vec<bool> {
        vec![false; items.len()]
    }

    /// Load a run of slates from the locally hosted store, in order.
    fn backend_load_many(&self, items: &[StoreGetItem], now_us: u64) -> Vec<Option<Vec<u8>>> {
        items.iter().map(|item| self.backend_load(&item.updater, &item.key, now_us)).collect()
    }

    /// A restarted incarnation of `machine` re-identified itself (crash
    /// recovery): clear any §4.3 death-ledger state for it, make it
    /// routable again, and — on the master — re-admit it to the rings.
    /// Returns this node's membership epoch for the returning node to
    /// fence itself with. Default: acknowledge at epoch 0 without
    /// clearing anything (handlers without failure state).
    fn handle_reintroduce(&self, _machine: MachineId) -> u64 {
        0
    }
}

/// A cluster wire: direct event passing, the master failure channel, and
/// remote slate/store reads.
pub trait Transport: Send + Sync + 'static {
    /// Attach the engine. Must be called exactly once, before traffic.
    fn register(&self, handler: Weak<dyn ClusterHandler>);

    /// Machine ids this transport delivers locally (for the in-process
    /// transport: all of them).
    fn is_local(&self, machine: MachineId) -> bool;

    /// The machine this process runs, when exactly one is local.
    fn local_machine(&self) -> Option<MachineId>;

    /// Pass an event directly to `dest`'s worker queues.
    /// `Err(Unreachable)` is the §4.3 detection signal. Asynchronous
    /// transports may accept the event into a bounded outbound queue and
    /// surface a later wire failure through
    /// [`ClusterHandler::handle_send_failure`] instead.
    fn send_event(&self, dest: MachineId, ev: WireEvent) -> Result<(), NetError>;

    /// Events accepted by [`Transport::send_event`] but not yet on the
    /// wire (asynchronous transports). The engine adds this to its
    /// pending/throttle budget so a slow peer pushes back on the source
    /// instead of growing an unbounded buffer. Synchronous transports
    /// have no outbound queue: 0.
    fn outbound_backlog(&self) -> usize {
        0
    }

    /// The caller has, for now, nothing more to send to `peers`: what
    /// [`Transport::send_event`] queued for them should leave as soon as
    /// the wire can take it instead of waiting to fill a batch or reach
    /// its age ceiling. A hint — never needed for delivery, free to call
    /// with peers that have nothing queued. Synchronous transports hold
    /// nothing back: default no-op.
    fn flush_events(&self, peers: &[MachineId]) {
        let _ = peers;
    }

    /// Report `failed` to the master role (local call or wire frame),
    /// stamped with the reporter's membership epoch.
    fn report_failure(&self, failed: MachineId, epoch: u64);

    /// Master-side: tell every machine to drop `failed` from its rings.
    fn broadcast_failure(&self, failed: MachineId, epoch: u64);

    /// Joiner-side: announce to the master role that `machine` (this
    /// process's reserved id) is live and ready to enter the rings.
    /// Errors when the announcement could not reach the master — the
    /// joiner must surface or retry it, or it would sit outside every
    /// ring forever believing it joined.
    fn send_join(&self, master: MachineId, machine: MachineId) -> Result<(), NetError>;

    /// Master-side: deliver one membership phase to `dest`. With
    /// `want_ack` the call blocks until the peer acknowledges (the
    /// prepare barrier: moved-away slates are flushed before the ack).
    fn send_membership(
        &self,
        dest: MachineId,
        update: &MembershipUpdate,
        want_ack: bool,
    ) -> Result<(), NetError>;

    /// Read the live cached slate owned by `dest` (§4.4).
    fn read_slate(
        &self,
        dest: MachineId,
        updater: &str,
        key: &[u8],
    ) -> Result<Option<Vec<u8>>, NetError>;

    /// Persist a run of slates on the store-hosting machine `dest` in one
    /// round trip ([`crate::frame::Frame::StorePut`]); a single slate is a
    /// run of one. Items are taken by value so a frame-building transport
    /// never re-copies the payload; each carries its payload format tag,
    /// and a connection that did not negotiate MBF transcodes MBF values
    /// to JSON text on the way out. Returns per-item success in order; an
    /// `Err` means the whole run may not have reached the store (the
    /// caller keeps every slate dirty).
    fn store_put_many(
        &self,
        dest: MachineId,
        items: Vec<StorePutItem>,
        now_us: u64,
    ) -> Result<Vec<bool>, NetError>;

    /// Load a run of slates from the store-hosting machine `dest` in one
    /// [`crate::frame::Frame::StoreGet`] round trip.
    fn store_get_many(
        &self,
        dest: MachineId,
        items: Vec<StoreGetItem>,
        now_us: u64,
    ) -> Result<Vec<Option<Vec<u8>>>, NetError>;

    /// Announce to `dest` that `machine` — a previously failed id — is a
    /// restarted incarnation re-identifying itself (crash recovery).
    /// Returns `dest`'s membership epoch. Default: unsupported.
    fn reintroduce(&self, dest: MachineId, machine: MachineId) -> Result<u64, NetError> {
        let _ = (dest, machine);
        Err(NetError::Protocol("this transport does not support reintroduction".into()))
    }

    /// Forget any local send-side death state for `peer` (a permanently
    /// downed outbox, a dead sender thread) so traffic can flow to its
    /// restarted incarnation. Synchronous transports keep no such state:
    /// default no-op.
    fn revive_peer(&self, _peer: MachineId) {}
}

/// Shared late-registration slot for the engine handler.
#[derive(Default)]
pub(crate) struct HandlerSlot(OnceLock<Weak<dyn ClusterHandler>>);

impl HandlerSlot {
    pub(crate) fn register(&self, handler: Weak<dyn ClusterHandler>) {
        if self.0.set(handler).is_err() {
            panic!("transport handler registered twice");
        }
    }

    pub(crate) fn get(&self) -> Option<Arc<dyn ClusterHandler>> {
        self.0.get().and_then(Weak::upgrade)
    }
}

/// The seed's in-process "wire": synchronous hand-off into the engine that
/// owns every machine. Refactored behind [`Transport`] with identical
/// semantics — `send_event` is a direct call into the engine's delivery
/// path, and the failure protocol short-circuits through the in-process
/// master.
#[derive(Default)]
pub struct InProcessTransport {
    handler: HandlerSlot,
}

impl InProcessTransport {
    /// A fresh in-process wire.
    pub fn new() -> InProcessTransport {
        InProcessTransport::default()
    }

    fn handler(&self) -> Option<Arc<dyn ClusterHandler>> {
        self.handler.get()
    }
}

impl Transport for InProcessTransport {
    fn register(&self, handler: Weak<dyn ClusterHandler>) {
        self.handler.register(handler);
    }

    fn is_local(&self, _machine: MachineId) -> bool {
        true
    }

    fn local_machine(&self) -> Option<MachineId> {
        None
    }

    fn send_event(&self, dest: MachineId, ev: WireEvent) -> Result<(), NetError> {
        match self.handler() {
            Some(h) => h.deliver_event(dest, ev),
            None => Err(NetError::NoRoute(dest)),
        }
    }

    fn report_failure(&self, failed: MachineId, epoch: u64) {
        if let Some(h) = self.handler() {
            h.handle_failure_report(failed, epoch);
        }
    }

    fn broadcast_failure(&self, failed: MachineId, epoch: u64) {
        if let Some(h) = self.handler() {
            h.handle_failure_broadcast(failed, epoch);
        }
    }

    fn send_join(&self, _master: MachineId, machine: MachineId) -> Result<(), NetError> {
        match self.handler() {
            Some(h) => {
                h.handle_join(machine);
                Ok(())
            }
            None => Err(NetError::NoRoute(machine)),
        }
    }

    fn send_membership(
        &self,
        dest: MachineId,
        update: &MembershipUpdate,
        want_ack: bool,
    ) -> Result<(), NetError> {
        match self.handler() {
            Some(h) => {
                let acked = h.handle_membership(update);
                if want_ack && !acked {
                    return Err(NetError::Protocol(format!(
                        "membership epoch {} not acknowledged",
                        update.epoch
                    )));
                }
                Ok(())
            }
            None => Err(NetError::NoRoute(dest)),
        }
    }

    fn read_slate(
        &self,
        dest: MachineId,
        updater: &str,
        key: &[u8],
    ) -> Result<Option<Vec<u8>>, NetError> {
        match self.handler() {
            Some(h) => Ok(h.read_local_slate(dest, updater, key)),
            None => Err(NetError::NoRoute(dest)),
        }
    }

    fn store_put_many(
        &self,
        dest: MachineId,
        items: Vec<StorePutItem>,
        now_us: u64,
    ) -> Result<Vec<bool>, NetError> {
        // One handler call for the whole run: the in-process store host
        // group-commits it exactly like a remote one would.
        match self.handler() {
            Some(h) => Ok(h.backend_store_many(&items, now_us)),
            None => Err(NetError::NoRoute(dest)),
        }
    }

    fn store_get_many(
        &self,
        dest: MachineId,
        items: Vec<StoreGetItem>,
        now_us: u64,
    ) -> Result<Vec<Option<Vec<u8>>>, NetError> {
        match self.handler() {
            Some(h) => Ok(h.backend_load_many(&items, now_us)),
            None => Err(NetError::NoRoute(dest)),
        }
    }

    fn reintroduce(&self, dest: MachineId, machine: MachineId) -> Result<u64, NetError> {
        match self.handler() {
            Some(h) => Ok(h.handle_reintroduce(machine)),
            None => Err(NetError::NoRoute(dest)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_core::sync::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Default)]
    struct RecordingHandler {
        delivered: AtomicUsize,
        reports: Mutex<Vec<MachineId>>,
        broadcasts: Mutex<Vec<MachineId>>,
        joins: Mutex<Vec<MachineId>>,
        memberships: Mutex<Vec<MembershipUpdate>>,
    }

    impl ClusterHandler for RecordingHandler {
        fn deliver_event(&self, dest: MachineId, _ev: WireEvent) -> Result<(), NetError> {
            if dest == 9 {
                return Err(NetError::Unreachable(dest));
            }
            self.delivered.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn handle_failure_report(&self, failed: MachineId, _epoch: u64) {
            self.reports.lock().push(failed);
        }
        fn handle_failure_broadcast(&self, failed: MachineId, _epoch: u64) {
            self.broadcasts.lock().push(failed);
        }
        fn handle_join(&self, machine: MachineId) {
            self.joins.lock().push(machine);
        }
        fn handle_membership(&self, update: &MembershipUpdate) -> bool {
            self.memberships.lock().push(update.clone());
            true
        }
        fn read_local_slate(
            &self,
            _dest: MachineId,
            updater: &str,
            _key: &[u8],
        ) -> Option<Vec<u8>> {
            (updater == "present").then(|| b"value".to_vec())
        }
    }

    fn wire_event() -> WireEvent {
        WireEvent {
            op: 0,
            event: muppet_core::event::Event::new("S", 1, muppet_core::event::Key::from("k"), ""),
            injected_us: 0,
            redirected: false,
            external: true,
            thread_hint: None,
            forwards: 0,
        }
    }

    #[test]
    fn in_process_routes_to_handler() {
        let transport = InProcessTransport::new();
        let handler = Arc::new(RecordingHandler::default());
        transport.register(Arc::downgrade(&handler) as Weak<dyn ClusterHandler>);

        assert!(transport.send_event(0, wire_event()).is_ok());
        assert!(matches!(transport.send_event(9, wire_event()), Err(NetError::Unreachable(9))));
        transport.report_failure(9, 0);
        transport.broadcast_failure(9, 0);
        assert_eq!(handler.delivered.load(Ordering::Relaxed), 1);
        assert_eq!(*handler.reports.lock(), vec![9]);
        assert_eq!(*handler.broadcasts.lock(), vec![9]);
        assert_eq!(transport.read_slate(0, "present", b"k").unwrap(), Some(b"value".to_vec()));
        assert_eq!(transport.read_slate(0, "absent", b"k").unwrap(), None);
        assert!(transport.is_local(7));
        assert_eq!(transport.local_machine(), None);
    }

    #[test]
    fn in_process_join_and_membership_route_to_handler() {
        let transport = InProcessTransport::new();
        let handler = Arc::new(RecordingHandler::default());
        transport.register(Arc::downgrade(&handler) as Weak<dyn ClusterHandler>);

        transport.send_join(0, 3).unwrap();
        assert_eq!(*handler.joins.lock(), vec![3]);
        let update = MembershipUpdate {
            epoch: 1,
            phase: crate::frame::MembershipPhase::Prepare,
            joined: vec![3],
            members: vec![0, 3],
            nodes: Vec::new(),
        };
        transport.send_membership(0, &update, true).unwrap();
        assert_eq!(handler.memberships.lock().len(), 1);
        assert_eq!(handler.memberships.lock()[0], update);
    }

    #[test]
    fn unregistered_transport_has_no_route() {
        let transport = InProcessTransport::new();
        assert!(matches!(transport.send_event(0, wire_event()), Err(NetError::NoRoute(0))));
    }

    #[test]
    fn dropped_handler_means_no_route() {
        let transport = InProcessTransport::new();
        let handler = Arc::new(RecordingHandler::default());
        transport.register(Arc::downgrade(&handler) as Weak<dyn ClusterHandler>);
        drop(handler);
        assert!(matches!(transport.send_event(0, wire_event()), Err(NetError::NoRoute(0))));
    }
}

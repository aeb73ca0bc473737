//! The wire's two faces: [`Transport`], what a caller sends to another
//! process through, and [`ClusterHandler`], what the wire delivers into.
//! Both speak the slate cache's records for the store: a [`FlushItem`]
//! per write and an ⟨updater, key⟩ pair per read, from the sending cache
//! to the hosted store unchanged. DESIGN.md §5.

use std::fmt;
use std::sync::{Arc, OnceLock, Weak};

use muppet_core::event::Key;
use muppet_core::workflow::OpId;

use crate::frame::{FlushItem, MembershipUpdate, WireEvent};

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
    /// No handler registered, no such machine in the topology, or — on
    /// the wire, which carries only other processes' traffic — the
    /// sender's own machine.
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
    /// per-item success in order: a peer cache's [`FlushItem`]s as its
    /// flush built them. Each item carries the payload format tag
    /// persisted with its cell (stored values may be compressed, so it
    /// cannot be re-sniffed at rest). The one write callback; default (a
    /// node hosting no store): refuse every item.
    fn backend_store_many(&self, items: &[FlushItem], _now_us: u64) -> Vec<bool> {
        vec![false; items.len()]
    }

    /// Load a run of ⟨updater, key⟩ slates from the locally hosted store,
    /// in order.
    fn backend_load_many(&self, items: &[(Arc<str>, Key)], now_us: u64) -> Vec<Option<Vec<u8>>> {
        items
            .iter()
            .map(|(updater, key)| self.backend_load(updater, key.as_bytes(), now_us))
            .collect()
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

/// What a caller sends to another process: events and the store frames.
/// The rest of the wire — the §4.3 failure channel, membership, live
/// slate reads — is [`crate::tcp::TcpTransport`]'s own.
pub trait Transport: Send + Sync + 'static {
    /// Attach the engine. Must be called exactly once, before traffic.
    fn register(&self, handler: Weak<dyn ClusterHandler>);

    /// Pass an event directly to `dest`'s worker queues.
    /// `Err(Unreachable)` is the §4.3 detection signal. Asynchronous
    /// transports may accept the event into a bounded outbound queue and
    /// surface a later wire failure through
    /// [`ClusterHandler::handle_send_failure`] instead.
    fn send_event(&self, dest: MachineId, ev: WireEvent) -> Result<(), NetError>;

    /// Persist a run of slates on the store-hosting machine `dest` in one
    /// round trip ([`crate::frame::Frame::StorePut`]); a single slate is a
    /// run of one. The items are the cache's flush snapshots, each with
    /// its payload format tag; their bytes are refcounted, so a frame
    /// never re-copies a payload. Returns per-item success in order; an
    /// `Err` means the whole run may not have reached the store (the
    /// caller keeps every slate dirty).
    fn store_put_many(
        &self,
        dest: MachineId,
        items: &[FlushItem],
        now_us: u64,
    ) -> Result<Vec<bool>, NetError>;

    /// Load a run of ⟨updater, key⟩ slates from the store-hosting machine
    /// `dest` in one [`crate::frame::Frame::StoreGet`] round trip.
    fn store_get_many(
        &self,
        dest: MachineId,
        items: &[(Arc<str>, Key)],
        now_us: u64,
    ) -> Result<Vec<Option<Vec<u8>>>, NetError>;
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

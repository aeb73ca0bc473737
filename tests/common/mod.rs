//! A counting, gateable store host for engine-level tests: one end of a
//! real TCP wire that serves the store frames from a map, so a test can
//! see *how* an engine wrote and read (the `StorePut`/`StoreGet` frames
//! and their sizes), hold a write mid-flight, and have writes refused.
#![allow(dead_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use muppet::net::topology::Topology;
use muppet::net::transport::{ClusterHandler, MachineId, NetError, Transport};
use muppet::net::{StoreGetItem, StorePutItem, TcpListenerHandle, TcpTransport, WireEvent};
use muppet::prelude::*;
use muppet_core::sync::Mutex;

/// Cell map: ⟨updater, key⟩ → value.
pub type StoreMap = HashMap<(String, Vec<u8>), Vec<u8>>;

/// The store-hosting side of the wire: a map store that group-commit
/// batches land on via `backend_store_many`.
#[derive(Default)]
pub struct HostStore {
    pub data: Mutex<StoreMap>,
    /// Slates per `StorePut` frame, in arrival order.
    pub batch_sizes: Mutex<Vec<usize>>,
    /// Slates per `StoreGet` frame, in arrival order.
    pub load_batch_sizes: Mutex<Vec<usize>>,
    /// While set, a write parks before it lands.
    pub shut: AtomicBool,
    /// A write has reached the (shut) gate.
    pub entered: AtomicBool,
    /// While set, every write is refused (a quorum failure): nothing
    /// lands and every item is acked `false`.
    pub refuse: AtomicBool,
}

impl ClusterHandler for HostStore {
    fn deliver_event(&self, dest: MachineId, _ev: WireEvent) -> Result<(), NetError> {
        Err(NetError::NoRoute(dest))
    }
    fn handle_failure_report(&self, _f: MachineId, _epoch: u64) {}
    fn handle_failure_broadcast(&self, _f: MachineId, _epoch: u64) {}
    fn read_local_slate(&self, _d: MachineId, _u: &str, _k: &[u8]) -> Option<Vec<u8>> {
        None
    }
    fn backend_store_many(&self, items: &[StorePutItem], _now: u64) -> Vec<bool> {
        while self.shut.load(Ordering::Acquire) {
            self.entered.store(true, Ordering::Release);
            std::thread::sleep(Duration::from_millis(1));
        }
        if self.refuse.load(Ordering::Acquire) {
            return vec![false; items.len()];
        }
        self.batch_sizes.lock().push(items.len());
        let mut data = self.data.lock();
        for item in items {
            data.insert((item.updater.clone(), item.key.clone()), item.value.to_vec());
        }
        vec![true; items.len()]
    }
    fn backend_load_many(&self, items: &[StoreGetItem], _now: u64) -> Vec<Option<Vec<u8>>> {
        self.load_batch_sizes.lock().push(items.len());
        let data = self.data.lock();
        items
            .iter()
            .map(|item| data.get(&(item.updater.clone(), item.key.clone())).cloned())
            .collect()
    }
}

/// Node 0 of `topology` as a bare store host (no engine behind it).
pub fn serve_store(topology: &Topology) -> (Arc<HostStore>, Arc<TcpTransport>, TcpListenerHandle) {
    let host = TcpTransport::new(topology.clone(), 0).unwrap();
    let store = Arc::new(HostStore::default());
    host.register(Arc::downgrade(&store) as Weak<dyn ClusterHandler>);
    let listener = host.start_listener().unwrap();
    (store, host, listener)
}

/// The first `n` keys `prefix0, prefix1, …` whose `updater` slate lives on
/// `machine`, asked of the engine's own routing.
pub fn keys_owned_by(
    engine: &Engine,
    updater: &str,
    machine: usize,
    prefix: &str,
    n: usize,
) -> Vec<Key> {
    let keys: Vec<Key> = (0..100_000)
        .map(|i| Key::from(format!("{prefix}{i}")))
        .filter(|key| engine.owner_machine(updater, key) == Some(machine))
        .take(n)
        .collect();
    assert_eq!(keys.len(), n, "not enough keys routed to machine {machine}");
    keys
}

/// Key prefix whose update parks inside [`GatedCounter`] until the gate
/// opens — everything submitted meanwhile queues behind it, so the batches
/// the worker drains afterwards do not depend on scheduling.
pub const HOLD: &str = "hold-";

#[derive(Default)]
pub struct Gate {
    pub entered: AtomicBool,
    pub open: AtomicBool,
}

/// The `counter` updater of [`counter_workflow`]: one count per event.
pub struct GatedCounter(pub Arc<Gate>);

impl Updater for GatedCounter {
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
        slate.incr_counter(1);
    }
}

/// One hop: S1 → `counter`.
pub fn counter_workflow() -> Workflow {
    let mut b = Workflow::builder("gated-count");
    b.external_stream("S1");
    b.updater("counter", &["S1"]);
    b.build().unwrap()
}

/// Park `engine`'s (single) worker on machine 1 inside a [`HOLD`] update,
/// queue `frames` behind it, then open the gate. Returns the hold event.
pub fn submit_behind_gate(engine: &Engine, gate: &Gate, frames: &[Vec<Event>]) -> Event {
    let hold = Event::new("S1", 0, keys_owned_by(engine, "counter", 1, HOLD, 1).remove(0), "e");
    engine.submit(hold.clone()).unwrap();
    while !gate.entered.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(1));
    }
    for frame in frames {
        engine.submit_many(frame.clone()).unwrap();
    }
    gate.open.store(true, Ordering::Release);
    hold
}

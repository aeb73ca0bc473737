//! A [`SlateBackend`] that reaches a store service on another node through
//! the muppet wire (§4.2 over TCP).
//!
//! The paper's deployment points every machine at one shared "Cassandra
//! cluster". In a `muppetd` cluster, one node hosts the store
//! ([`crate::engine::EngineConfig::store_host`]); every other node's slate
//! cache flushes and misses go through `StorePut`/`StoreGet` frames on the
//! same [`Transport`] the events use, a single slate as a run of one. Write failures are surfaced to the
//! cache (the dirty slate stays dirty; a later flush retries) and read
//! failures surface as cache misses — the availability-first posture of
//! the in-process store adapter.

use std::sync::Arc;

use bytes::Bytes;
use muppet_core::event::Key;
use muppet_core::Codec;
use muppet_net::frame::{StoreGetItem, StorePutItem};
use muppet_net::transport::{MachineId, Transport};

use crate::cache::{FlushItem, SlateBackend};

/// Store reads/writes forwarded to `host` over the transport.
pub struct RemoteBackend {
    transport: Arc<dyn Transport>,
    host: MachineId,
}

impl RemoteBackend {
    /// A backend that forwards to the store service on `host`.
    pub fn new(transport: Arc<dyn Transport>, host: MachineId) -> RemoteBackend {
        RemoteBackend { transport, host }
    }
}

impl SlateBackend for RemoteBackend {
    // A single slate is a batch of one: one wire round trip either way, a
    // wire failure reads as a miss / leaves the slate dirty.
    fn load(&self, updater: &str, key: &Key, now_us: u64) -> Option<Vec<u8>> {
        self.load_many(&[(Arc::from(updater), key.clone())], now_us).pop().flatten()
    }

    fn store(
        &self,
        updater: &str,
        key: &Key,
        bytes: &[u8],
        codec: Codec,
        ttl_secs: Option<u64>,
        now_us: u64,
    ) -> bool {
        let item = FlushItem {
            updater: Arc::from(updater),
            key: key.clone(),
            bytes: Bytes::copy_from_slice(bytes),
            codec,
            ttl_secs,
        };
        self.store_many(&[item], now_us)[0]
    }

    fn store_many(&self, items: &[FlushItem], now_us: u64) -> Vec<bool> {
        // One `StorePut` frame for the whole run: a flush tick of N
        // dirty slates costs one wire round trip instead of N. A wire
        // failure fails the batch wholesale — every slate stays dirty and
        // the next sweep retries (identical posture to the per-slate
        // path, amortized).
        let wire: Vec<StorePutItem> = items
            .iter()
            .map(|item| StorePutItem {
                updater: item.updater.to_string(),
                key: item.key.as_bytes().to_vec(),
                value: item.bytes.clone(), // refcount bump, not a copy
                ttl_secs: item.ttl_secs,
                codec: item.codec,
            })
            .collect();
        match self.transport.store_put_many(self.host, wire, now_us) {
            Ok(ok) if ok.len() == items.len() => ok,
            _ => vec![false; items.len()],
        }
    }

    fn load_many(&self, items: &[(Arc<str>, Key)], now_us: u64) -> Vec<Option<Vec<u8>>> {
        let wire: Vec<StoreGetItem> = items
            .iter()
            .map(|(updater, key)| StoreGetItem {
                updater: updater.to_string(),
                key: key.as_bytes().to_vec(),
            })
            .collect();
        match self.transport.store_get_many(self.host, wire, now_us) {
            Ok(values) if values.len() == items.len() => values,
            _ => vec![None; items.len()], // wire failure reads as misses
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_core::sync::Mutex;
    use muppet_net::transport::{ClusterHandler, InProcessTransport, NetError};
    use muppet_net::WireEvent;
    use std::collections::HashMap;
    use std::sync::Weak;

    type Cell = (String, Vec<u8>);

    #[derive(Default)]
    struct MapStore(Mutex<HashMap<Cell, Vec<u8>>>);

    impl ClusterHandler for MapStore {
        fn deliver_event(&self, dest: usize, _ev: WireEvent) -> Result<(), NetError> {
            Err(NetError::NoRoute(dest))
        }
        fn handle_failure_report(&self, _f: usize, _epoch: u64) {}
        fn handle_failure_broadcast(&self, _f: usize, _epoch: u64) {}
        fn read_local_slate(&self, _d: usize, _u: &str, _k: &[u8]) -> Option<Vec<u8>> {
            None
        }
        fn backend_store_many(&self, items: &[StorePutItem], _now: u64) -> Vec<bool> {
            let mut cells = self.0.lock();
            for item in items {
                cells.insert((item.updater.clone(), item.key.clone()), item.value.to_vec());
            }
            vec![true; items.len()]
        }
        fn backend_load(&self, u: &str, k: &[u8], _now: u64) -> Option<Vec<u8>> {
            self.0.lock().get(&(u.to_string(), k.to_vec())).cloned()
        }
    }

    #[test]
    fn remote_backend_roundtrips_through_transport() {
        let transport = Arc::new(InProcessTransport::new());
        let store = Arc::new(MapStore::default());
        transport.register(Arc::downgrade(&store) as Weak<dyn ClusterHandler>);
        let backend = RemoteBackend::new(transport as Arc<dyn Transport>, 0);

        let key = Key::from("walmart");
        assert_eq!(backend.load("U1", &key, 0), None);
        backend.store("U1", &key, b"41", Codec::Json, None, 10);
        backend.store("U1", &key, b"42", Codec::Json, None, 20);
        assert_eq!(backend.load("U1", &key, 30), Some(b"42".to_vec()));
        assert_eq!(backend.load("U2", &key, 30), None);
    }
}

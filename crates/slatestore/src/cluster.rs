//! The replicated store cluster: Muppet's "Cassandra cluster".
//!
//! "A Muppet application's configuration file identifies a Cassandra
//! cluster ... a key space within the cluster, and a column family" (§4.2).
//! This module provides that cluster: N [`StoreNode`]s placed on a
//! consistent-hash ring, R-way replication, and the §4.2 per-operation
//! consistency levels:
//!
//! > "the application can specify the desired quorum used by the Cassandra
//! > store for a successful read/write operation: any single machine to
//! > which the data is assigned for storage, a majority of replicas ... or
//! > all of the replicas."
//!
//! Values are compressed with [`crate::compress`] on write and decompressed
//! on read ("Muppet compresses each slate before storing it"). Reads
//! resolve divergent replicas by newest `write_ts` and repair stale ones.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
pub use muppet_core::config::Consistency;
use muppet_core::sync::Mutex;
use muppet_core::Codec;

use crate::compress::{compress, decompress};
use crate::device::{DeviceProfile, StorageDevice};
use crate::node::{NodeConfig, NodeStats, StoreNode};
use crate::ring::ConsistentRing;
use crate::types::{Cell, CellKey, StoreError, StoreResult};

/// Largest run [`StoreCluster::put_many`] hands one node in a single group
/// commit; bigger batches are split. Bounds WAL latency under a huge flush
/// tick without giving up the per-batch fsync amortization.
const PUT_BATCH_MAX: usize = 1024;

/// Cluster construction parameters.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Number of storage nodes.
    pub nodes: usize,
    /// Replication factor.
    pub replication: usize,
    /// Default consistency for reads and writes.
    pub consistency: Consistency,
    /// Storage device profile shared by all nodes.
    pub device: DeviceProfile,
    /// Per-node memtable flush threshold.
    pub memtable_flush_bytes: usize,
    /// fsync node WALs on every append (durable against power loss).
    /// Batched writes group-commit: one fsync per [`StoreCluster::put_many`]
    /// run per node, instead of one per record.
    pub wal_sync_each: bool,
    /// Rewrite JSON container cells forward to MBF during compaction (the
    /// at-rest migration; enabled by the runtime when the store codec is
    /// MBF).
    pub compact_rewrite_mbf: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            nodes: 3,
            replication: 3,
            consistency: Consistency::Quorum,
            device: DeviceProfile::NULL,
            memtable_flush_bytes: 4 * 1024 * 1024,
            wal_sync_each: false,
            compact_rewrite_mbf: false,
        }
    }
}

struct ClusterNode {
    store: Mutex<StoreNode>,
    device: Arc<StorageDevice>,
    up: AtomicBool,
}

/// Aggregate cluster statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterStats {
    /// Per-node stats summed.
    pub node: NodeStats,
    /// Successful quorum writes.
    pub writes_ok: u64,
    /// Write calls: every [`StoreCluster::put_many`] chunk, and every
    /// single put (a one-cell chunk).
    pub write_batches: u64,
    /// Successful quorum reads.
    pub reads_ok: u64,
    /// Read-repair writes issued.
    pub read_repairs: u64,
    /// Bytes before compression, across writes.
    pub raw_bytes: u64,
    /// Bytes after compression, across writes.
    pub stored_bytes: u64,
}

/// A replicated slate store cluster.
pub struct StoreCluster {
    cfg: StoreConfig,
    ring: ConsistentRing,
    nodes: Vec<ClusterNode>,
    stats: Mutex<ClusterStats>,
}

impl StoreCluster {
    /// Create a cluster with one data directory per node under `base_dir`.
    pub fn open(
        base_dir: impl AsRef<std::path::Path>,
        cfg: StoreConfig,
    ) -> StoreResult<StoreCluster> {
        assert!(cfg.nodes >= 1, "cluster needs at least one node");
        assert!(cfg.replication >= 1 && cfg.replication <= cfg.nodes, "1 <= replication <= nodes");
        let base = base_dir.as_ref();
        let mut nodes = Vec::with_capacity(cfg.nodes);
        for i in 0..cfg.nodes {
            let device = Arc::new(StorageDevice::new(cfg.device));
            let node_cfg = NodeConfig::new(base.join(format!("node-{i}")))
                .with_flush_bytes(cfg.memtable_flush_bytes)
                .with_wal_sync(cfg.wal_sync_each)
                .with_mbf_rewrite(cfg.compact_rewrite_mbf, true);
            nodes.push(ClusterNode {
                store: Mutex::new(StoreNode::open(node_cfg, Arc::clone(&device))?),
                device,
                up: AtomicBool::new(true),
            });
        }
        let ring = ConsistentRing::new(cfg.nodes, 64);
        Ok(StoreCluster { cfg, ring, nodes, stats: Mutex::new(ClusterStats::default()) })
    }

    fn replica_set(&self, key: &CellKey) -> Vec<usize> {
        let mut item = Vec::with_capacity(key.row.len() + key.column.len() + 1);
        item.extend_from_slice(&key.row);
        item.push(0);
        item.extend_from_slice(&key.column);
        self.ring.owners(muppet_core::hash::fx64(&item), self.cfg.replication)
    }

    /// Write a JSON/raw `value` at the default consistency. Every single
    /// put is a one-cell [`StoreCluster::put_many`] chunk: a replica whose
    /// node write fails counts as not acked, and the consistency level
    /// decides whether the put succeeds.
    pub fn put(
        &self,
        key: &CellKey,
        value: &[u8],
        ttl_secs: Option<u64>,
        now: u64,
    ) -> StoreResult<()> {
        self.put_with(key, value, ttl_secs, now, self.cfg.consistency)
    }

    /// Write with an explicit consistency level (JSON/raw payload).
    pub fn put_with(
        &self,
        key: &CellKey,
        value: &[u8],
        ttl_secs: Option<u64>,
        now: u64,
        consistency: Consistency,
    ) -> StoreResult<()> {
        let acks = self.put_chunk(&[(key.clone(), value, Codec::Json, ttl_secs)], now, consistency);
        // lint: allow(no-unwrap-in-prod) — put_chunk returns one result per cell
        acks.into_iter().next().expect("one result per cell")
    }

    /// Write a run of cells at the default consistency — the batched half
    /// of the §4.2 write-behind pipeline. Cells are grouped *per storage
    /// node* (each cell still reaches its full replica set) and every
    /// node's run lands through [`StoreNode::put_many`], whose WAL group
    /// commit costs one fsync per run under `wal_sync_each` instead of one
    /// per record. Returns one result per input cell: a cell acks when its
    /// quorum is met, independent of its batch-mates.
    pub fn put_many(
        &self,
        items: &[(CellKey, &[u8], Codec, Option<u64>)],
        now: u64,
    ) -> Vec<StoreResult<()>> {
        let mut out: Vec<StoreResult<()>> = Vec::with_capacity(items.len());
        for chunk in items.chunks(PUT_BATCH_MAX) {
            out.extend(self.put_chunk(chunk, now, self.cfg.consistency));
        }
        out
    }

    /// Write one chunk of cells, each acked at `consistency` on its own.
    fn put_chunk(
        &self,
        items: &[(CellKey, &[u8], Codec, Option<u64>)],
        now: u64,
        consistency: Consistency,
    ) -> Vec<StoreResult<()>> {
        // Compress once per cell, then fan the prepared bytes out to the
        // replica sets.
        let prepared: Vec<(Bytes, Vec<usize>)> = items
            .iter()
            .map(|(key, value, _, _)| (Bytes::from(compress(value)), self.replica_set(key)))
            .collect();
        // Group per node: node id → the (index, cell) runs it stores.
        let mut per_node: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for (idx, (_, replicas)) in prepared.iter().enumerate() {
            for &node in replicas {
                per_node[node].push(idx);
            }
        }
        let mut acked = vec![0usize; items.len()];
        for (node_id, indices) in per_node.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let node = &self.nodes[node_id];
            if !node.up.load(Ordering::Acquire) {
                continue;
            }
            let entries: Vec<(CellKey, Bytes, Codec, Option<u64>)> = indices
                .iter()
                .map(|&idx| {
                    (items[idx].0.clone(), prepared[idx].0.clone(), items[idx].2, items[idx].3)
                })
                .collect();
            // One lock acquisition and one WAL group commit per node.
            match node.store.lock().put_many(&entries, now) {
                Ok(()) => {
                    for &idx in indices {
                        acked[idx] += 1;
                    }
                }
                Err(_) => { /* nothing on this node acked; quorum math decides */ }
            }
        }
        let mut stats = self.stats.lock();
        stats.write_batches += 1;
        let mut out = Vec::with_capacity(items.len());
        for (idx, (key_value, replicas)) in items.iter().zip(prepared.iter()).enumerate() {
            let required = consistency.required(replicas.1.len());
            stats.raw_bytes += key_value.1.len() as u64;
            stats.stored_bytes += prepared[idx].0.len() as u64 * replicas.1.len() as u64;
            if acked[idx] >= required {
                stats.writes_ok += 1;
                out.push(Ok(()));
            } else {
                out.push(Err(StoreError::QuorumFailed { required, acked: acked[idx] }));
            }
        }
        out
    }

    /// Read a run of cells at the default consistency (the remote miss
    /// path's `StoreGet` frame lands here: one wire round trip, N point
    /// reads). Quorum failures surface per cell as `None`-less errors
    /// folded to `Err`; callers wanting the availability-first posture map
    /// errors to misses.
    pub fn get_many(&self, keys: &[CellKey], now: u64) -> Vec<StoreResult<Option<Bytes>>> {
        keys.iter().map(|key| self.get(key, now)).collect()
    }

    /// Delete at the default consistency.
    pub fn delete(&self, key: &CellKey, now: u64) -> StoreResult<()> {
        let replicas = self.replica_set(key);
        let required = self.cfg.consistency.required(replicas.len());
        let mut acked = 0usize;
        for &id in &replicas {
            let node = &self.nodes[id];
            if !node.up.load(Ordering::Acquire) {
                continue;
            }
            node.store.lock().delete(key.clone(), now)?;
            acked += 1;
        }
        if acked >= required {
            Ok(())
        } else {
            Err(StoreError::QuorumFailed { required, acked })
        }
    }

    /// Read at the default consistency.
    pub fn get(&self, key: &CellKey, now: u64) -> StoreResult<Option<Bytes>> {
        self.get_with(key, now, self.cfg.consistency)
    }

    /// Read at the default consistency, returning the payload with its
    /// codec tag.
    pub fn get_tagged(&self, key: &CellKey, now: u64) -> StoreResult<Option<(Bytes, Codec)>> {
        self.get_inner(key, now, self.cfg.consistency)
    }

    /// Read with an explicit consistency level. Queries replicas until the
    /// required count respond, resolves by newest value, and repairs any
    /// stale replica it contacted.
    pub fn get_with(
        &self,
        key: &CellKey,
        now: u64,
        consistency: Consistency,
    ) -> StoreResult<Option<Bytes>> {
        Ok(self.get_inner(key, now, consistency)?.map(|(value, _)| value))
    }

    fn get_inner(
        &self,
        key: &CellKey,
        now: u64,
        consistency: Consistency,
    ) -> StoreResult<Option<(Bytes, Codec)>> {
        let replicas = self.replica_set(key);
        let required = consistency.required(replicas.len());
        // Collect (node, visible cell) from live replicas.
        let mut responses: Vec<(usize, Option<Cell>)> = Vec::new();
        for &id in &replicas {
            let node = &self.nodes[id];
            if !node.up.load(Ordering::Acquire) {
                continue;
            }
            let got = node.store.lock().get_cell(key, now)?;
            responses.push((id, got));
            if responses.len() >= required {
                break;
            }
        }
        if responses.len() < required {
            return Err(StoreError::QuorumFailed { required, acked: responses.len() });
        }
        // Newest wins.
        let newest =
            responses.iter().filter_map(|(_, c)| c.as_ref()).max_by_key(|c| c.write_ts).cloned();
        let mut stats = self.stats.lock();
        stats.reads_ok += 1;
        drop(stats);
        match newest {
            None => Ok(None),
            Some(cell) => {
                // Read repair: any contacted replica with an older (or no)
                // version gets the newest cell written back, codec tag and
                // TTL included, so the copy expires when the others do.
                for (id, resp) in &responses {
                    if resp.as_ref().is_none_or(|c| c.write_ts < cell.write_ts) {
                        self.nodes[*id].store.lock().put_tagged(
                            key.clone(),
                            cell.value.clone(),
                            cell.codec,
                            cell.ttl_secs,
                            cell.write_ts,
                        )?;
                        self.stats.lock().read_repairs += 1;
                    }
                }
                Ok(Some((Bytes::from(decompress(&cell.value)?), cell.codec)))
            }
        }
    }

    /// Mark a node down (stops serving reads and writes).
    pub fn node_down(&self, id: usize) {
        self.nodes[id].up.store(false, Ordering::Release);
    }

    /// Bring a node back.
    pub fn node_up(&self, id: usize) {
        self.nodes[id].up.store(true, Ordering::Release);
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Flush every node's memtable (end of experiment phases).
    pub fn flush_all(&self, now: u64) -> StoreResult<()> {
        for node in &self.nodes {
            node.store.lock().flush(now)?;
        }
        Ok(())
    }

    /// Sum of live cells across nodes at `now` (counts replicas; divide by
    /// the replication factor for a logical estimate).
    pub fn live_cells(&self, now: u64) -> StoreResult<usize> {
        let mut total = 0;
        for node in &self.nodes {
            total += node.store.lock().live_cells(now)?;
        }
        Ok(total)
    }

    /// Total SSTable bytes across nodes.
    pub fn disk_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.store.lock().disk_bytes()).sum()
    }

    /// WAL fsyncs across nodes (the group-commit observable: under
    /// `wal_sync_each`, per-record puts cost one fsync each while
    /// `put_many` runs cost one per node per batch).
    pub fn wal_sync_count(&self) -> u64 {
        self.nodes.iter().map(|n| n.store.lock().wal_sync_count()).sum()
    }

    /// Bulk-read every visible row of one column (= update function) across
    /// the cluster — §5's "Bulk Reading of Slates" second option: "request
    /// large-volume row reads from the durable key-value store itself".
    /// Values are decompressed; replicas resolve newest-wins. Down nodes
    /// are skipped (availability over completeness, like Muppet's posture).
    pub fn scan_column(&self, column: &str, now: u64) -> StoreResult<Vec<(Bytes, Bytes)>> {
        use std::collections::BTreeMap;
        let mut newest: BTreeMap<Bytes, (u64, Bytes)> = BTreeMap::new();
        for node in &self.nodes {
            if !node.up.load(Ordering::Acquire) {
                continue;
            }
            let mut store = node.store.lock();
            // scan_all is already newest-per-key within a node; cross-node
            // resolution needs timestamps, so re-read each winner's ts.
            for (key, _) in store.scan_all(now)? {
                if key.column.as_ref() != column.as_bytes() {
                    continue;
                }
                if let Some(cell) = store.get_cell(&key, now)? {
                    match newest.get(&key.row) {
                        Some((best_ts, _)) if *best_ts >= cell.write_ts => {}
                        _ => {
                            newest.insert(key.row.clone(), (cell.write_ts, cell.value));
                        }
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(newest.len());
        for (row, (_, stored)) in newest {
            out.push((row, Bytes::from(decompress(&stored)?)));
        }
        Ok(out)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ClusterStats {
        let mut out = *self.stats.lock();
        for node in &self.nodes {
            let s = node.store.lock().stats();
            out.node.puts += s.puts;
            out.node.gets += s.gets;
            out.node.memtable_hits += s.memtable_hits;
            out.node.sstable_hits += s.sstable_hits;
            out.node.misses += s.misses;
            out.node.flushes += s.flushes;
            out.node.compactions += s.compactions;
            out.node.gc_cells += s.gc_cells;
            out.node.rewritten_cells += s.rewritten_cells;
        }
        out
    }

    /// Aggregate device I/O across nodes.
    pub fn io_stats(&self) -> crate::device::IoStats {
        let mut out = crate::device::IoStats::default();
        for node in &self.nodes {
            let s = node.device.stats();
            out.reads += s.reads;
            out.writes += s.writes;
            out.read_bytes += s.read_bytes;
            out.write_bytes += s.write_bytes;
            out.service_us += s.service_us;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::TempDir;

    fn cluster(consistency: Consistency) -> (TempDir, StoreCluster) {
        let dir = TempDir::new("cluster").unwrap();
        let cfg = StoreConfig { nodes: 3, replication: 3, consistency, ..Default::default() };
        let c = StoreCluster::open(dir.path(), cfg).unwrap();
        (dir, c)
    }

    fn key(row: &str) -> CellKey {
        CellKey::new(row.as_bytes(), "U1")
    }

    #[test]
    fn write_read_roundtrip_with_compression() {
        let (_dir, c) = cluster(Consistency::Quorum);
        let slate = br#"{"count": 10, "interests": ["deals","deals","deals"]}"#;
        c.put(&key("user-1"), slate, None, 1).unwrap();
        let got = c.get(&key("user-1"), 2).unwrap().unwrap();
        assert_eq!(got.as_ref(), slate);
        let s = c.stats();
        assert_eq!(s.writes_ok, 1);
        assert_eq!(s.reads_ok, 1);
        assert!(s.stored_bytes > 0);
    }

    #[test]
    fn consistency_required_math() {
        assert_eq!(Consistency::One.required(3), 1);
        assert_eq!(Consistency::Quorum.required(3), 2);
        assert_eq!(Consistency::Quorum.required(4), 3);
        assert_eq!(Consistency::Quorum.required(1), 1);
        assert_eq!(Consistency::All.required(3), 3);
    }

    #[test]
    fn one_and_quorum_survive_single_node_failure_all_does_not() {
        let (_dir, c) = cluster(Consistency::Quorum);
        c.put(&key("k"), b"v", None, 1).unwrap();
        c.node_down(0);
        // Quorum (2 of 3) still works regardless of which node died.
        c.put_with(&key("k"), b"v2", None, 2, Consistency::Quorum).unwrap();
        assert_eq!(c.get_with(&key("k"), 3, Consistency::Quorum).unwrap().unwrap().as_ref(), b"v2");
        c.put_with(&key("k"), b"v3", None, 4, Consistency::One).unwrap();
        // ALL requires every replica: with replication == nodes == 3 and one
        // node down, it must fail.
        let err = c.put_with(&key("k"), b"v4", None, 5, Consistency::All).unwrap_err();
        assert!(matches!(err, StoreError::QuorumFailed { required: 3, acked: 2 }));
        let err = c.get_with(&key("k"), 6, Consistency::All).unwrap_err();
        assert!(matches!(err, StoreError::QuorumFailed { .. }));
    }

    #[test]
    fn read_repair_heals_stale_replica() {
        let (_dir, c) = cluster(Consistency::Quorum);
        c.put(&key("heal"), b"old", None, 10).unwrap();
        // Node 0 misses an update.
        c.node_down(0);
        c.put(&key("heal"), b"new", None, 20).unwrap();
        c.node_up(0);
        // Read at ALL touches every replica → newest wins → repair runs.
        let got = c.get_with(&key("heal"), 30, Consistency::All).unwrap().unwrap();
        assert_eq!(got.as_ref(), b"new");
        assert!(c.stats().read_repairs >= 1);
        // Now even reading only node 0's copy must see the repaired value.
        c.node_down(1);
        c.node_down(2);
        let got = c.get_with(&key("heal"), 40, Consistency::One).unwrap();
        assert_eq!(got.unwrap().as_ref(), b"new");
    }

    #[test]
    fn put_many_equals_per_cell_puts() {
        let durable = || {
            let dir = TempDir::new("cluster").unwrap();
            let cfg = StoreConfig { wal_sync_each: true, ..Default::default() };
            let c = StoreCluster::open(dir.path(), cfg).unwrap();
            (dir, c)
        };
        let (_dir, batched) = durable();
        let (_dir2, percell) = durable();
        let cells: Vec<(CellKey, Vec<u8>)> =
            (0..40).map(|i| (key(&format!("k{i}")), format!("value-{i}").into_bytes())).collect();
        let items: Vec<(CellKey, &[u8], Codec, Option<u64>)> =
            cells.iter().map(|(k, v)| (k.clone(), v.as_slice(), Codec::Json, None)).collect();
        for r in batched.put_many(&items, 5) {
            r.unwrap();
        }
        for (k, v) in &cells {
            percell.put(k, v, None, 5).unwrap();
        }
        // Bit-identical read-back, and the batched cluster did the same
        // number of logical writes.
        for (k, v) in &cells {
            assert_eq!(batched.get(k, 6).unwrap().unwrap().as_ref(), v.as_slice());
            assert_eq!(batched.get(k, 6).unwrap(), percell.get(k, 6).unwrap());
        }
        assert_eq!(batched.stats().writes_ok, 40);
        assert!(batched.stats().write_batches >= 1);
        assert_eq!(batched.stats().node.puts, percell.stats().node.puts);
        // Under `wal_sync_each` the run group-commits: one fsync per replica
        // node for the whole batch, against one per replica per cell.
        assert_eq!((batched.wal_sync_count(), percell.wal_sync_count()), (3, 3 * 40));
    }

    #[test]
    fn put_many_chunks_by_batch_limit_and_reports_quorum_per_cell() {
        let (_dir, c) = cluster(Consistency::Quorum);
        let values: Vec<Vec<u8>> =
            (0..2 * PUT_BATCH_MAX + 4).map(|i| format!("v{i}").into_bytes()).collect();
        let items: Vec<(CellKey, &[u8], Codec, Option<u64>)> = values
            .iter()
            .enumerate()
            .map(|(i, v)| (key(&format!("c{i}")), &v[..], Codec::Json, None))
            .collect();
        let results = c.put_many(&items, 1);
        assert_eq!(results.len(), values.len());
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(c.stats().write_batches, 3, "two full chunks and a remainder");
        // With every node down, each cell individually reports its quorum
        // failure.
        for n in 0..c.node_count() {
            c.node_down(n);
        }
        let results = c.put_many(&items[..3], 2);
        assert!(results.iter().all(|r| matches!(r, Err(StoreError::QuorumFailed { .. }))));
    }

    #[test]
    fn codec_tag_survives_compressed_cluster_roundtrip_and_repair() {
        let (_dir, c) = cluster(Consistency::Quorum);
        let doc = muppet_core::Json::parse(r#"{"count": 3, "tags": ["a","b"]}"#).unwrap();
        let mbf = doc.to_mbf().unwrap();
        let tagged = [(key("bin"), &mbf[..], Codec::Mbf, None)];
        assert!(c.put_many(&tagged, 10).iter().all(Result::is_ok));
        let (got, codec) = c.get_tagged(&key("bin"), 11).unwrap().unwrap();
        assert_eq!(codec, Codec::Mbf);
        assert_eq!(got.as_ref(), mbf.as_slice());
        // Repair a stale replica and confirm the tag travels with the value.
        c.node_down(0);
        assert!(c.put_many(&tagged, 20).iter().all(Result::is_ok));
        c.node_up(0);
        c.get_with(&key("bin"), 30, Consistency::All).unwrap();
        c.node_down(1);
        c.node_down(2);
        let (healed, codec) = c.get_inner(&key("bin"), 40, Consistency::One).unwrap().unwrap();
        assert_eq!(codec, Codec::Mbf);
        assert_eq!(healed.as_ref(), mbf.as_slice());
    }

    /// The store's bytes per slate for the shape `counters_cold` writes:
    /// short rows, one updater column, a one-digit value. The per-cell
    /// layout paid 39 B in the WAL and 33 B in a table; a run says the
    /// column once and a raw value costs one byte of header.
    #[test]
    fn a_group_committed_counter_costs_at_most_14_bytes_in_the_wal_and_in_a_table() {
        let dir = TempDir::new("cluster-bytes").unwrap();
        let cfg = StoreConfig { nodes: 1, replication: 1, ..Default::default() };
        let c = StoreCluster::open(dir.path(), cfg).unwrap();
        let cells: Vec<CellKey> =
            (0..9_000).map(|i| CellKey::new(format!("k{i}"), "zipf-counter")).collect();
        for (run, keys) in cells.chunks(64).enumerate() {
            let items: Vec<(CellKey, &[u8], Codec, Option<u64>)> =
                keys.iter().map(|k| (k.clone(), &b"7"[..], Codec::Json, None)).collect();
            let now = 1_700_000_000_000_000 + 1_000 * run as u64;
            assert!(c.put_many(&items, now).iter().all(Result::is_ok));
        }
        let node_dir = dir.path().join("node-0");
        let wal_bytes = || -> u64 {
            let files = std::fs::read_dir(&node_dir).unwrap().map(|e| e.unwrap());
            let wal = files.filter(|e| e.file_name().to_string_lossy().starts_with("wal-"));
            wal.map(|e| e.metadata().unwrap().len()).sum()
        };
        c.nodes[0].store.lock().sync_wal().unwrap();
        let (wal, per_cell) = (wal_bytes(), cells.len() as f64);
        c.flush_all(2_000_000_000_000_000).unwrap();
        let table = c.disk_bytes();
        assert_eq!(c.live_cells(2_000_000_000_000_000).unwrap(), cells.len());
        assert!(wal as f64 / per_cell <= 14.0, "WAL: {wal} B for {per_cell} cells");
        assert!(table as f64 / per_cell <= 14.0, "table: {table} B for {per_cell} cells");
    }

    #[test]
    fn get_many_matches_point_reads() {
        let (_dir, c) = cluster(Consistency::Quorum);
        c.put(&key("a"), b"1", None, 1).unwrap();
        c.put(&key("b"), b"2", None, 1).unwrap();
        let keys = vec![key("a"), key("b"), key("ghost")];
        let got = c.get_many(&keys, 2);
        assert_eq!(got[0].as_ref().unwrap().as_deref(), Some(b"1".as_slice()));
        assert_eq!(got[1].as_ref().unwrap().as_deref(), Some(b"2".as_slice()));
        assert_eq!(got[2].as_ref().unwrap(), &None);
    }

    #[test]
    fn missing_keys_read_as_none() {
        let (_dir, c) = cluster(Consistency::Quorum);
        assert_eq!(c.get(&key("ghost"), 1).unwrap(), None);
    }

    #[test]
    fn delete_masks_value_cluster_wide() {
        let (_dir, c) = cluster(Consistency::All);
        c.put(&key("d"), b"v", None, 1).unwrap();
        c.delete(&key("d"), 2).unwrap();
        assert_eq!(c.get(&key("d"), 3).unwrap(), None);
    }

    #[test]
    fn ttl_expires_cluster_wide() {
        let (_dir, c) = cluster(Consistency::Quorum);
        c.put(&key("t"), b"v", Some(1), 1_000_000).unwrap();
        assert!(c.get(&key("t"), 1_500_000).unwrap().is_some());
        assert!(c.get(&key("t"), 3_000_000).unwrap().is_none());
    }

    #[test]
    fn read_repair_keeps_the_ttl_so_a_repaired_replica_expires_with_the_others() {
        let (_dir, c) = cluster(Consistency::Quorum);
        c.node_down(2);
        c.put(&key("t"), b"v", Some(1), 0).unwrap();
        c.node_up(2);
        // ALL at 0.5 s reaches node 2, which missed the write: repaired.
        let live = c.get_with(&key("t"), 500_000, Consistency::All).unwrap();
        assert_eq!(live.as_deref(), Some(&b"v"[..]));
        assert_eq!(c.stats().read_repairs, 1);
        // At 5 s the TTL has lapsed on every replica, node 2's copy included.
        assert_eq!(c.get_with(&key("t"), 5_000_000, Consistency::All).unwrap(), None);
    }

    #[test]
    fn replication_below_node_count_spreads_keys() {
        let dir = TempDir::new("cluster").unwrap();
        let cfg = StoreConfig { nodes: 5, replication: 2, ..Default::default() };
        let c = StoreCluster::open(dir.path(), cfg).unwrap();
        for i in 0..100 {
            c.put(&key(&format!("k{i}")), b"v", None, i).unwrap();
        }
        // Each key on exactly 2 of 5 nodes: total stored cells = 200.
        c.flush_all(1000).unwrap();
        assert_eq!(c.live_cells(1000).unwrap(), 200);
    }

    #[test]
    fn values_are_stored_compressed() {
        let dir = TempDir::new("cluster-comp").unwrap();
        let compressible = vec![b'a'; 10_000];
        let c = StoreCluster::open(dir.path(), StoreConfig::default()).unwrap();
        c.put(&key("k"), &compressible, None, 1).unwrap();
        assert_eq!(c.get(&key("k"), 2).unwrap().unwrap().as_ref(), &compressible[..]);
        assert!(c.stats().stored_bytes < c.stats().raw_bytes / 10);
    }

    #[test]
    #[should_panic(expected = "replication <= nodes")]
    fn rejects_overbroad_replication() {
        let dir = TempDir::new("cluster").unwrap();
        let cfg = StoreConfig { nodes: 2, replication: 3, ..Default::default() };
        let _ = StoreCluster::open(dir.path(), cfg);
    }
}

//! A single storage node: WAL + memtable + SSTables + compaction.
//!
//! This is the per-machine Cassandra stand-in. Writes land in the commit
//! log and the memtable (cheap, buffered — the §4.2 write-buffering
//! argument); the memtable flushes to an SSTable when it outgrows its
//! budget; size-tiered compaction keeps read amplification bounded; TTLs
//! garbage-collect idle slates at read time and during compaction.
//!
//! All time is caller-supplied logical microseconds, so TTL tests and the
//! X9 experiment control the clock.

use std::path::PathBuf;
use std::sync::Arc;

use bytes::Bytes;
use muppet_core::{Codec, Json};

use crate::compaction::{merge_tables, pick_tier, CompactionPolicy};
use crate::compress::{compress, decompress};
use crate::device::StorageDevice;
use crate::memtable::Memtable;
use crate::sstable::{SSTable, SSTableWriter};
use crate::types::{Cell, CellKey, StoreResult};
use crate::wal::{replay, WalWriter};

/// Node tuning knobs.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Data directory (SSTables + WAL segments).
    pub dir: PathBuf,
    /// Memtable flush threshold in approximate bytes.
    pub memtable_flush_bytes: usize,
    /// fsync the WAL on every append (durable) or rely on OS buffering.
    pub wal_sync_each: bool,
    /// Compaction policy.
    pub compaction: CompactionPolicy,
    /// Run compaction automatically after each flush.
    pub auto_compact: bool,
    /// During compaction, rewrite JSON-tagged container cells forward to
    /// MBF (the at-rest migration path: old tables drain to the binary
    /// format as they compact, no stop-the-world rewrite).
    pub compact_rewrite_mbf: bool,
    /// Whether stored values are compressed (set by the cluster layer; the
    /// rewrite must decompress before transcoding).
    pub compressed_values: bool,
}

impl NodeConfig {
    /// Defaults tuned for tests: small memtables flush often.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        NodeConfig {
            dir: dir.into(),
            memtable_flush_bytes: 4 * 1024 * 1024,
            wal_sync_each: false,
            compaction: CompactionPolicy::default(),
            auto_compact: true,
            compact_rewrite_mbf: false,
            compressed_values: false,
        }
    }

    /// Set the memtable flush threshold.
    pub fn with_flush_bytes(mut self, bytes: usize) -> Self {
        self.memtable_flush_bytes = bytes;
        self
    }

    /// Enable per-append WAL fsync.
    pub fn with_wal_sync(mut self, sync: bool) -> Self {
        self.wal_sync_each = sync;
        self
    }

    /// Disable automatic compaction (experiments trigger it manually).
    pub fn with_auto_compact(mut self, auto: bool) -> Self {
        self.auto_compact = auto;
        self
    }

    /// Enable the compaction-time JSON→MBF rewrite. `compressed` must
    /// match how the caller stores values so the rewrite can transcode.
    pub fn with_mbf_rewrite(mut self, rewrite: bool, compressed: bool) -> Self {
        self.compact_rewrite_mbf = rewrite;
        self.compressed_values = compressed;
        self
    }
}

/// Cumulative node statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Cells written (including tombstones).
    pub puts: u64,
    /// Point reads served.
    pub gets: u64,
    /// Reads answered from the memtable.
    pub memtable_hits: u64,
    /// Reads answered from an SSTable.
    pub sstable_hits: u64,
    /// Reads finding nothing (or only expired/tombstoned cells).
    pub misses: u64,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Cells reclaimed by TTL expiry or tombstone GC during compaction.
    pub gc_cells: u64,
    /// JSON cells transcoded to MBF during compaction (rewrite-forward).
    pub rewritten_cells: u64,
}

/// One LSM storage node.
pub struct StoreNode {
    cfg: NodeConfig,
    device: Arc<StorageDevice>,
    wal: WalWriter,
    wal_gen: u64,
    memtable: Memtable,
    /// Open tables, any order; reads consult all (bloom-filtered) and take
    /// the max write_ts, so ordering is not load-bearing.
    tables: Vec<SSTable>,
    next_table_id: u64,
    stats: NodeStats,
    /// WAL fsyncs from already-rotated segments (see `wal_sync_count`).
    rotated_wal_syncs: u64,
}

impl std::fmt::Debug for StoreNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreNode")
            .field("dir", &self.cfg.dir)
            .field("memtable_cells", &self.memtable.len())
            .field("tables", &self.tables.len())
            .finish()
    }
}

impl StoreNode {
    /// Open (or create) a node at `cfg.dir`, recovering any existing
    /// SSTables and replaying WAL segments into the memtable.
    pub fn open(cfg: NodeConfig, device: Arc<StorageDevice>) -> StoreResult<StoreNode> {
        std::fs::create_dir_all(&cfg.dir)?;
        // Load SSTables (sst-<id>.sst) and find the next ids.
        let mut table_ids: Vec<u64> = Vec::new();
        let mut wal_gens: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(&cfg.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name.strip_prefix("sst-").and_then(|s| s.strip_suffix(".sst")) {
                if let Ok(id) = id.parse() {
                    table_ids.push(id);
                }
            } else if let Some(gen) = name.strip_prefix("wal-").and_then(|s| s.strip_suffix(".log"))
            {
                if let Ok(gen) = gen.parse() {
                    wal_gens.push(gen);
                }
            }
        }
        table_ids.sort_unstable();
        wal_gens.sort_unstable();
        let mut tables = Vec::with_capacity(table_ids.len());
        for id in &table_ids {
            tables.push(SSTable::open(cfg.dir.join(format!("sst-{id}.sst")), Arc::clone(&device))?);
        }
        // Replay WAL segments oldest-first so later writes win in the
        // memtable.
        let mut memtable = Memtable::new();
        for gen in &wal_gens {
            let replayed = replay(cfg.dir.join(format!("wal-{gen}.log")))?;
            for (key, cell) in replayed.records {
                memtable.put(key, cell);
            }
        }
        let wal_gen = wal_gens.last().map_or(0, |g| g + 1);
        let wal = WalWriter::create(cfg.dir.join(format!("wal-{wal_gen}.log")), cfg.wal_sync_each)?;
        // Old segments stay on disk until the recovered memtable flushes.
        let next_table_id = table_ids.last().map_or(0, |id| id + 1);
        Ok(StoreNode {
            cfg,
            device,
            wal,
            wal_gen,
            memtable,
            tables,
            next_table_id,
            stats: NodeStats::default(),
            rotated_wal_syncs: 0,
        })
    }

    /// Write a JSON/raw value. `now` supplies the write timestamp.
    pub fn put(
        &mut self,
        key: CellKey,
        value: impl Into<Bytes>,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> StoreResult<()> {
        self.put_tagged(key, value, Codec::Json, ttl_secs, now)
    }

    /// Write a value tagged with its payload codec. `now` supplies the
    /// write timestamp.
    pub fn put_tagged(
        &mut self,
        key: CellKey,
        value: impl Into<Bytes>,
        codec: Codec,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> StoreResult<()> {
        let cell = Cell::live_in(value, codec, now, ttl_secs);
        self.wal.append(&key, &cell)?;
        self.memtable.put(key, cell);
        self.stats.puts += 1;
        self.maybe_flush(now)
    }

    /// Write a run of values as one group commit: every record enters the
    /// WAL via [`WalWriter::append_many`] (one fsync per batch under
    /// `wal_sync_each`, not one per record) and the memtable in order.
    /// The memtable flush check runs once, after the batch.
    pub fn put_many(
        &mut self,
        entries: &[(CellKey, Bytes, Codec, Option<u64>)],
        now: u64,
    ) -> StoreResult<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let cells: Vec<(CellKey, Cell)> = entries
            .iter()
            .map(|(key, value, codec, ttl_secs)| {
                (key.clone(), Cell::live_in(value.clone(), *codec, now, *ttl_secs))
            })
            .collect();
        self.wal.append_many(&cells)?;
        for (key, cell) in cells {
            self.memtable.put(key, cell);
        }
        self.stats.puts += entries.len() as u64;
        self.maybe_flush(now)
    }

    /// Delete a value (writes a tombstone).
    pub fn delete(&mut self, key: CellKey, now: u64) -> StoreResult<()> {
        let cell = Cell::tombstone(now);
        self.wal.append(&key, &cell)?;
        self.memtable.put(key, cell);
        self.stats.puts += 1;
        self.maybe_flush(now)
    }

    /// Point read: newest visible cell across memtable and all tables.
    /// Returns the raw stored bytes (the store does not understand slate
    /// compression; that is the cache layer's concern).
    pub fn get(&mut self, key: &CellKey, now: u64) -> StoreResult<Option<Bytes>> {
        Ok(self.get_cell(key, now)?.map(|cell| cell.value))
    }

    /// Point read returning the value with its payload codec tag.
    pub fn get_tagged(&mut self, key: &CellKey, now: u64) -> StoreResult<Option<(Bytes, Codec)>> {
        Ok(self.get_cell(key, now)?.map(|cell| (cell.value, cell.codec)))
    }

    /// Point read returning the whole visible cell — the cluster layer
    /// needs its `write_ts` to resolve divergent replicas, and its codec
    /// tag and TTL to repair a stale one faithfully.
    pub fn get_cell(&mut self, key: &CellKey, now: u64) -> StoreResult<Option<Cell>> {
        self.stats.gets += 1;
        let mut best: Option<(Cell, bool)> = // (cell, from_memtable)
            self.memtable.get(key).map(|c| (c.clone(), true));
        for table in &self.tables {
            if let Some(cell) = table.get(key)? {
                let newer = match &best {
                    Some((b, _)) => cell.write_ts > b.write_ts,
                    None => true,
                };
                if newer {
                    best = Some((cell, false));
                }
            }
        }
        match best {
            Some((cell, from_mem)) if cell.visible(now) => {
                if from_mem {
                    self.stats.memtable_hits += 1;
                } else {
                    self.stats.sstable_hits += 1;
                }
                Ok(Some(cell))
            }
            _ => {
                self.stats.misses += 1;
                Ok(None)
            }
        }
    }

    fn maybe_flush(&mut self, now: u64) -> StoreResult<()> {
        if self.memtable.approx_bytes() >= self.cfg.memtable_flush_bytes {
            self.flush(now)?;
        }
        Ok(())
    }

    /// Flush the memtable to a new SSTable and rotate the WAL.
    pub fn flush(&mut self, now: u64) -> StoreResult<()> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        let cells = self.memtable.drain_sorted();
        let id = self.next_table_id;
        self.next_table_id += 1;
        let path = self.cfg.dir.join(format!("sst-{id}.sst"));
        let mut w = SSTableWriter::create(&path, Arc::clone(&self.device), cells.len())?;
        for (key, cell) in &cells {
            w.add(key, cell)?;
        }
        self.tables.push(w.finish()?);
        self.stats.flushes += 1;
        // Rotate WAL: new segment, then delete all older segments (their
        // contents are now durable in the SSTable).
        let old_gen = self.wal_gen;
        self.rotated_wal_syncs += self.wal.sync_count();
        self.wal_gen += 1;
        self.wal = WalWriter::create(
            self.cfg.dir.join(format!("wal-{}.log", self.wal_gen)),
            self.cfg.wal_sync_each,
        )?;
        for gen in 0..=old_gen {
            let _ = std::fs::remove_file(self.cfg.dir.join(format!("wal-{gen}.log")));
        }
        if self.cfg.auto_compact {
            self.maybe_compact(now)?;
        }
        Ok(())
    }

    /// Run one round of size-tiered compaction if a tier is ripe.
    /// Returns true if a compaction ran.
    pub fn maybe_compact(&mut self, now: u64) -> StoreResult<bool> {
        let sizes: Vec<u64> = self.tables.iter().map(|t| t.file_len()).collect();
        let Some(mut picked) = pick_tier(&sizes, &self.cfg.compaction) else {
            return Ok(false);
        };
        // Newest-first for the merger's tie-break: higher index = newer
        // flush in our `tables` vec.
        picked.sort_unstable_by(|a, b| b.cmp(a));
        let full = picked.len() == self.tables.len();
        let inputs: Vec<&SSTable> = picked.iter().map(|&i| &self.tables[i]).collect();
        let input_cells: u64 = inputs.iter().map(|t| t.entry_count()).sum();
        let mut merged = merge_tables(&inputs, now, full)?;
        self.stats.gc_cells += input_cells.saturating_sub(merged.len() as u64);
        if self.cfg.compact_rewrite_mbf {
            for (_, cell) in &mut merged {
                if self.rewrite_cell_to_mbf(cell) {
                    self.stats.rewritten_cells += 1;
                }
            }
        }

        let id = self.next_table_id;
        self.next_table_id += 1;
        let path = self.cfg.dir.join(format!("sst-{id}.sst"));
        let mut w = SSTableWriter::create(&path, Arc::clone(&self.device), merged.len())?;
        for (key, cell) in &merged {
            w.add(key, cell)?;
        }
        let new_table = w.finish()?;
        // Remove inputs (descending indices keep positions valid).
        for &i in &picked {
            let old = self.tables.remove(i);
            let _ = std::fs::remove_file(old.path());
        }
        self.tables.push(new_table);
        self.stats.compactions += 1;
        Ok(true)
    }

    /// Transcode one JSON-tagged container cell to MBF in place (the
    /// at-rest migration: tables drain forward as they compact). Counter
    /// text, non-container JSON, tombstones, and anything that fails to
    /// parse are left untouched. Returns true when the cell was rewritten.
    fn rewrite_cell_to_mbf(&self, cell: &mut Cell) -> bool {
        if cell.tombstone || cell.codec == Codec::Mbf || cell.value.is_empty() {
            return false;
        }
        let raw: Vec<u8> = if self.cfg.compressed_values {
            match decompress(&cell.value) {
                Ok(v) => v,
                Err(_) => return false,
            }
        } else {
            cell.value.to_vec()
        };
        // Only container-shaped JSON migrates; raw text payloads must stay
        // byte-identical (they are not JSON documents).
        if !matches!(raw.first(), Some(b'{') | Some(b'[')) {
            return false;
        }
        let Ok(doc) = Json::parse_bytes(&raw) else { return false };
        let Ok(mbf) = doc.to_mbf() else { return false };
        cell.value =
            if self.cfg.compressed_values { Bytes::from(compress(&mbf)) } else { Bytes::from(mbf) };
        cell.codec = Codec::Mbf;
        true
    }

    /// All visible cells at `now` (newest version per key), sorted by key.
    /// The §5 "large-volume row reads from the durable key-value store" —
    /// bulk dumps for later Hadoop-style processing. Expensive: scans
    /// every table.
    pub fn scan_all(&self, now: u64) -> StoreResult<Vec<(CellKey, Bytes)>> {
        use std::collections::BTreeMap;
        let mut newest: BTreeMap<CellKey, Cell> = BTreeMap::new();
        for (k, c) in self.memtable.iter() {
            newest.insert(k.clone(), c.clone());
        }
        for table in &self.tables {
            for (k, c) in table.scan()? {
                match newest.get(&k) {
                    Some(existing) if existing.write_ts >= c.write_ts => {}
                    _ => {
                        newest.insert(k, c);
                    }
                }
            }
        }
        Ok(newest.into_iter().filter(|(_, c)| c.visible(now)).map(|(k, c)| (k, c.value)).collect())
    }

    /// Count cells visible at `now` (newest version per key), for the TTL
    /// growth experiment. Expensive: scans everything.
    pub fn live_cells(&self, now: u64) -> StoreResult<usize> {
        Ok(self.scan_all(now)?.len())
    }

    /// Total bytes across SSTable files.
    pub fn disk_bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.file_len()).sum()
    }

    /// Number of open SSTables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Cells currently buffered in the memtable.
    pub fn memtable_len(&self) -> usize {
        self.memtable.len()
    }

    /// Node statistics.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    /// The device this node charges I/O to.
    pub fn device(&self) -> &Arc<StorageDevice> {
        &self.device
    }

    /// Flush WAL buffers to the OS (called by the background flusher).
    pub fn sync_wal(&mut self) -> StoreResult<()> {
        self.wal.flush()
    }

    /// fsyncs issued by WAL appends, cumulative across segment rotations
    /// (the group-commit observable for benchmarks).
    pub fn wal_sync_count(&self) -> u64 {
        self.rotated_wal_syncs + self.wal.sync_count()
    }

    /// Simulate a process crash: all in-memory state vanishes; only what
    /// reached the WAL and SSTables survives. Returns the recovered node.
    pub fn crash_and_recover(mut self) -> StoreResult<StoreNode> {
        // Ensure buffered WAL frames reach the file (the OS survives a
        // *process* crash; whole-machine power loss would need
        // wal_sync_each=true).
        self.wal.flush()?;
        let cfg = self.cfg.clone();
        let device = Arc::clone(&self.device);
        drop(self);
        StoreNode::open(cfg, device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProfile;
    use crate::types::StoreError;
    use crate::util::TempDir;

    fn node(dir: &TempDir) -> StoreNode {
        StoreNode::open(
            NodeConfig::new(dir.path()).with_flush_bytes(16 * 1024),
            Arc::new(StorageDevice::new(DeviceProfile::NULL)),
        )
        .unwrap()
    }

    fn key(row: &str) -> CellKey {
        CellKey::new(row.as_bytes(), "U1")
    }

    #[test]
    fn put_get_delete_cycle() {
        let dir = TempDir::new("node").unwrap();
        let mut n = node(&dir);
        n.put(key("a"), "v1", None, 1).unwrap();
        assert_eq!(n.get(&key("a"), 2).unwrap().unwrap().as_ref(), b"v1");
        n.put(key("a"), "v2", None, 3).unwrap();
        assert_eq!(n.get(&key("a"), 4).unwrap().unwrap().as_ref(), b"v2");
        n.delete(key("a"), 5).unwrap();
        assert_eq!(n.get(&key("a"), 6).unwrap(), None);
        assert_eq!(n.get(&key("never"), 6).unwrap(), None);
        let s = n.stats();
        assert_eq!(s.puts, 3);
        assert_eq!(s.gets, 4);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn put_many_group_commits_and_reads_back() {
        let dir = TempDir::new("node").unwrap();
        let mut n = StoreNode::open(
            NodeConfig::new(dir.path()).with_flush_bytes(usize::MAX).with_wal_sync(true),
            Arc::new(StorageDevice::new(DeviceProfile::NULL)),
        )
        .unwrap();
        let entries: Vec<(CellKey, Bytes, Codec, Option<u64>)> = (0..50)
            .map(|i| (key(&format!("b{i}")), Bytes::from(format!("v{i}")), Codec::Json, None))
            .collect();
        n.put_many(&entries, 7).unwrap();
        assert_eq!(n.wal_sync_count(), 1, "50 records, one group-commit fsync");
        assert_eq!(n.stats().puts, 50);
        for i in 0..50 {
            assert_eq!(
                n.get(&key(&format!("b{i}")), 8).unwrap().unwrap().as_ref(),
                format!("v{i}").as_bytes()
            );
        }
        // Batched writes survive a crash exactly like per-record writes.
        let mut recovered = n.crash_and_recover().unwrap();
        assert_eq!(recovered.get(&key("b42"), 10).unwrap().unwrap().as_ref(), b"v42");
    }

    #[test]
    fn reads_span_memtable_and_sstables() {
        let dir = TempDir::new("node").unwrap();
        let mut n = node(&dir);
        for i in 0..500 {
            n.put(key(&format!("k{i:04}")), format!("v{i}"), None, i).unwrap();
        }
        n.flush(1000).unwrap();
        assert!(n.table_count() >= 1);
        assert_eq!(n.memtable_len(), 0);
        // From SSTable:
        assert_eq!(n.get(&key("k0123"), 1000).unwrap().unwrap().as_ref(), b"v123");
        // New write goes to memtable and shadows the flushed value:
        n.put(key("k0123"), "newer", None, 2000).unwrap();
        assert_eq!(n.get(&key("k0123"), 2001).unwrap().unwrap().as_ref(), b"newer");
        let s = n.stats();
        assert!(s.sstable_hits >= 1);
        assert!(s.memtable_hits >= 1);
    }

    #[test]
    fn newest_version_wins_across_many_flushes() {
        let dir = TempDir::new("node").unwrap();
        let mut n = node(&dir);
        for round in 0u64..5 {
            n.put(key("hot"), format!("v{round}"), None, round * 10).unwrap();
            n.flush(round * 10 + 1).unwrap();
        }
        assert_eq!(n.get(&key("hot"), 100).unwrap().unwrap().as_ref(), b"v4");
    }

    #[test]
    fn ttl_expiry_at_read_time() {
        let dir = TempDir::new("node").unwrap();
        let mut n = node(&dir);
        n.put(key("ephemeral"), "v", Some(10), 1_000_000).unwrap();
        assert!(n.get(&key("ephemeral"), 5_000_000).unwrap().is_some());
        assert!(n.get(&key("ephemeral"), 12_000_001).unwrap().is_none(), "10s TTL lapsed");
    }

    #[test]
    fn crash_recovery_replays_wal() {
        let dir = TempDir::new("node").unwrap();
        let mut n = node(&dir);
        for i in 0..50 {
            n.put(key(&format!("k{i}")), format!("v{i}"), None, i).unwrap();
        }
        // No flush: everything is in memtable + WAL.
        assert_eq!(n.table_count(), 0);
        let mut recovered = n.crash_and_recover().unwrap();
        for i in 0..50 {
            assert_eq!(
                recovered.get(&key(&format!("k{i}")), 100).unwrap().unwrap().as_ref(),
                format!("v{i}").as_bytes(),
                "k{i} must survive the crash via WAL replay"
            );
        }
    }

    #[test]
    fn crash_recovery_after_flush_uses_sstables_and_new_wal() {
        let dir = TempDir::new("node").unwrap();
        let mut n = node(&dir);
        n.put(key("flushed"), "old", None, 1).unwrap();
        n.flush(2).unwrap();
        n.put(key("walonly"), "fresh", None, 3).unwrap();
        let mut recovered = n.crash_and_recover().unwrap();
        assert_eq!(recovered.get(&key("flushed"), 10).unwrap().unwrap().as_ref(), b"old");
        assert_eq!(recovered.get(&key("walonly"), 10).unwrap().unwrap().as_ref(), b"fresh");
    }

    #[test]
    fn deletions_survive_recovery() {
        let dir = TempDir::new("node").unwrap();
        let mut n = node(&dir);
        n.put(key("gone"), "v", None, 1).unwrap();
        n.flush(2).unwrap();
        n.delete(key("gone"), 3).unwrap();
        let mut recovered = n.crash_and_recover().unwrap();
        assert_eq!(
            recovered.get(&key("gone"), 10).unwrap(),
            None,
            "tombstone in WAL masks SSTable"
        );
    }

    #[test]
    fn memtable_overflow_triggers_flush() {
        let dir = TempDir::new("node").unwrap();
        let mut n = StoreNode::open(
            NodeConfig::new(dir.path()).with_flush_bytes(2048),
            Arc::new(StorageDevice::default()),
        )
        .unwrap();
        for i in 0..200 {
            n.put(key(&format!("k{i:05}")), vec![b'x'; 64], None, i).unwrap();
        }
        assert!(n.stats().flushes > 0, "small threshold must force flushes");
        assert!(n.table_count() > 0);
        // All data still readable.
        assert_eq!(
            n.get(&key("k00000"), 1000).unwrap().unwrap().as_ref(),
            vec![b'x'; 64].as_slice()
        );
    }

    #[test]
    fn compaction_reduces_table_count_and_gcs() {
        let dir = TempDir::new("node").unwrap();
        let mut n = StoreNode::open(
            NodeConfig::new(dir.path()).with_flush_bytes(usize::MAX).with_auto_compact(false),
            Arc::new(StorageDevice::default()),
        )
        .unwrap();
        // 5 flushes of overlapping keys.
        for round in 0u64..5 {
            for i in 0..50 {
                n.put(key(&format!("k{i:03}")), format!("r{round}-v{i}"), None, round * 100 + i)
                    .unwrap();
            }
            n.flush(round * 100 + 99).unwrap();
        }
        assert_eq!(n.table_count(), 5);
        let compacted = n.maybe_compact(1_000).unwrap();
        assert!(compacted);
        assert!(n.table_count() < 5);
        assert!(n.stats().gc_cells > 0, "older versions reclaimed");
        // Data intact, newest version visible.
        assert_eq!(n.get(&key("k001"), 10_000).unwrap().unwrap().as_ref(), b"r4-v1");
    }

    #[test]
    fn live_cells_tracks_ttl_gc() {
        let dir = TempDir::new("node").unwrap();
        let mut n = node(&dir);
        for i in 0..10 {
            n.put(key(&format!("ttl{i}")), "v", Some(5), 1_000_000).unwrap();
        }
        for i in 0..7 {
            n.put(key(&format!("keep{i}")), "v", None, 1_000_000).unwrap();
        }
        assert_eq!(n.live_cells(2_000_000).unwrap(), 17);
        assert_eq!(n.live_cells(7_000_001).unwrap(), 7, "TTL'd cells die");
    }

    #[test]
    fn wal_segments_are_garbage_collected_after_flush() {
        let dir = TempDir::new("node").unwrap();
        let mut n = node(&dir);
        n.put(key("a"), "v", None, 1).unwrap();
        n.flush(2).unwrap();
        let wal_files = std::fs::read_dir(dir.path())
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with("wal-"))
            .count();
        assert_eq!(wal_files, 1, "only the active segment remains");
    }

    #[test]
    fn codec_tag_survives_wal_replay_and_sstable_flush() {
        let dir = TempDir::new("node").unwrap();
        let mut n = node(&dir);
        let mbf = Json::obj([("n", Json::num(1))]).to_mbf().unwrap();
        n.put_tagged(key("bin"), mbf.clone(), Codec::Mbf, None, 1).unwrap();
        n.put(key("txt"), "12", None, 1).unwrap();
        // Through WAL replay:
        let mut n = n.crash_and_recover().unwrap();
        assert_eq!(
            n.get_tagged(&key("bin"), 2).unwrap().unwrap(),
            (Bytes::from(mbf.clone()), Codec::Mbf)
        );
        assert_eq!(n.get_tagged(&key("txt"), 2).unwrap().unwrap().1, Codec::Json);
        // Through an SSTable flush:
        n.flush(3).unwrap();
        assert_eq!(n.memtable_len(), 0);
        assert_eq!(n.get_tagged(&key("bin"), 4).unwrap().unwrap(), (Bytes::from(mbf), Codec::Mbf));
    }

    #[test]
    fn compaction_rewrites_json_containers_to_mbf() {
        let dir = TempDir::new("node").unwrap();
        let mut n = StoreNode::open(
            NodeConfig::new(dir.path())
                .with_flush_bytes(usize::MAX)
                .with_auto_compact(false)
                .with_mbf_rewrite(true, false),
            Arc::new(StorageDevice::new(DeviceProfile::NULL)),
        )
        .unwrap();
        // 4 flushes so a tier is ripe; each has a JSON doc, counter text,
        // and an already-MBF cell.
        let doc = Json::obj([("count", Json::num(5))]);
        for round in 0u64..4 {
            n.put(key("doc"), doc.to_compact(), None, round * 10 + 1).unwrap();
            n.put(key("counter"), "17", None, round * 10 + 2).unwrap();
            n.put_tagged(key("bin"), doc.to_mbf().unwrap(), Codec::Mbf, None, round * 10 + 3)
                .unwrap();
            n.flush(round * 10 + 9).unwrap();
        }
        assert!(n.maybe_compact(1_000).unwrap());
        assert!(n.stats().rewritten_cells >= 1, "the JSON doc cell migrates");
        // The doc is now MBF-tagged and decodes to the same document.
        let (value, codec) = n.get_tagged(&key("doc"), 2_000).unwrap().unwrap();
        assert_eq!(codec, Codec::Mbf);
        assert_eq!(Json::from_mbf(&value).unwrap(), doc);
        // Counter text is untouched.
        let (value, codec) = n.get_tagged(&key("counter"), 2_000).unwrap().unwrap();
        assert_eq!((value.as_ref(), codec), (&b"17"[..], Codec::Json));
    }

    #[test]
    fn a_store_in_the_old_layout_is_refused_and_left_untouched() {
        // Written by the per-cell encoder of the previous format: a table
        // holding ⟨k, U⟩ = "7" (stored as "MZ", raw, length 1) and a WAL
        // segment holding ⟨k, U⟩ = "8".
        const OLD_TABLE: &str = "1597a41009000000016b01550001000137ec569faa06000000016b015500\
            11a4914e2d180000001000000000000000010000000000000060c08001070e18301100000000000000\
            1f000000000000000100000000000000425453535050554d";
        const OLD_SEGMENT: &str = "b088d0f109000000016b01550003000138";
        for (name, hex) in [("sst-0.sst", OLD_TABLE), ("wal-1.log", OLD_SEGMENT)] {
            let dir = TempDir::new("node").unwrap();
            let old: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect();
            std::fs::write(dir.file(name), &old).unwrap();
            let opened = StoreNode::open(
                NodeConfig::new(dir.path()),
                Arc::new(StorageDevice::new(DeviceProfile::NULL)),
            );
            let Err(StoreError::Corrupt(msg)) = opened else { panic!("{name} was accepted") };
            assert!(msg.contains(&dir.file(name).display().to_string()), "{msg}");
            assert_eq!(std::fs::read(dir.file(name)).unwrap(), old);
            assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 1, "nothing created");
        }
    }

    #[test]
    fn empty_flush_is_a_noop() {
        let dir = TempDir::new("node").unwrap();
        let mut n = node(&dir);
        n.flush(1).unwrap();
        assert_eq!(n.table_count(), 0);
        assert_eq!(n.stats().flushes, 0);
    }
}

//! SSTables: immutable sorted on-disk runs, flushed from memtables.
//!
//! §4.2 describes the behaviour this file format exists to support: point
//! reads of uncached slates need "random-seek I/O capacity", periodic
//! compactions rewrite files, and "the more times a row is flushed to disk
//! ... the more files will have to be checked for the row". The format is
//! a simplified Cassandra/LevelDB hybrid:
//!
//! ```text
//! [block 0][block 1]...[index block][bloom block][footer]
//! block      := [u32 crc][u32 len][run]   (a `crate::record` run, ~4 KiB)
//! index      := [u32 crc][u32 len][(first key, offset, len) per block]
//! bloom      := [u32 crc][u32 len][BloomFilter bytes]
//! footer     := index_off u64 | bloom_off u64 | entries u64 | magic u64
//! ```
//!
//! Point reads consult the bloom filter, binary-search the in-memory index,
//! read exactly one block (charged to the [`StorageDevice`]) and scan its
//! run in place, building a [`Cell`] only for the hit. DESIGN.md §2 has
//! the run layout.

use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use muppet_core::codec::{crc32c, get_u32, get_u64, put_u32, put_u64, put_varint};
use muppet_core::codec::{get_len_prefixed, get_varint, put_len_prefixed};

use crate::bloom::BloomFilter;
use crate::device::StorageDevice;
use crate::record::{decode_run, RunEncoder, RunReader};
use crate::types::{Cell, CellKey, StoreError, StoreResult};

const MAGIC: u64 = 0x4d55_5050_5353_5432; // "MUPPSST2"
/// The footer magic of the per-cell block layout this build refuses.
const OLD_MAGIC: u64 = 0x4d55_5050_5353_5442; // "MUPPSSTB"
const FOOTER_LEN: usize = 32;
/// Target uncompressed block payload size.
pub const BLOCK_TARGET: usize = 4096;

/// Streaming writer; `add` must be called in strictly ascending key order.
pub struct SSTableWriter {
    path: PathBuf,
    file: File,
    device: Arc<StorageDevice>,
    block: Vec<u8>,
    run: RunEncoder,
    block_first_key: Option<CellKey>,
    index: Vec<(CellKey, u64, u32)>,
    offset: u64,
    entries: u64,
    bloom: BloomFilter,
    last_key: Option<CellKey>,
}

impl SSTableWriter {
    /// Create a writer; `expected_entries` sizes the bloom filter.
    pub fn create(
        path: impl AsRef<Path>,
        device: Arc<StorageDevice>,
        expected_entries: usize,
    ) -> StoreResult<SSTableWriter> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(SSTableWriter {
            path,
            file,
            device,
            block: Vec::with_capacity(BLOCK_TARGET + 512),
            run: RunEncoder::default(),
            block_first_key: None,
            index: Vec::new(),
            offset: 0,
            entries: 0,
            bloom: BloomFilter::with_capacity(expected_entries, 0.01),
            last_key: None,
        })
    }

    /// Append a cell; keys must arrive in strictly ascending order.
    pub fn add(&mut self, key: &CellKey, cell: &Cell) -> StoreResult<()> {
        if let Some(last) = &self.last_key {
            assert!(key > last, "SSTable keys must be strictly ascending: {last} !< {key}");
        }
        self.last_key = Some(key.clone());
        if self.block_first_key.is_none() {
            self.block_first_key = Some(key.clone());
        }
        self.bloom.insert(&bloom_item(key));
        self.run.push(&mut self.block, key, cell);
        self.entries += 1;
        if self.block.len() >= BLOCK_TARGET {
            self.finish_block()?;
        }
        Ok(())
    }

    fn finish_block(&mut self) -> StoreResult<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        // lint: allow(no-unwrap-in-prod) — `add` sets the first key whenever it fills `block`
        let first = self.block_first_key.take().expect("non-empty block has a first key");
        let framed_len = write_framed(&mut self.file, &self.block)?;
        self.device.charge_write(framed_len);
        self.index.push((first, self.offset, framed_len as u32));
        self.offset += framed_len as u64;
        self.block.clear();
        self.run = RunEncoder::default();
        Ok(())
    }

    /// Finalize the table and return a reader over it.
    pub fn finish(mut self) -> StoreResult<SSTable> {
        self.finish_block()?;
        // Index block.
        let mut index_payload = Vec::new();
        for (key, off, len) in &self.index {
            put_len_prefixed(&mut index_payload, &key.row);
            put_len_prefixed(&mut index_payload, &key.column);
            put_varint(&mut index_payload, *off);
            put_varint(&mut index_payload, *len as u64);
        }
        let index_off = self.offset;
        let framed = write_framed(&mut self.file, &index_payload)?;
        self.device.charge_write(framed);
        self.offset += framed as u64;
        // Bloom block.
        let bloom_off = self.offset;
        let bloom_bytes = self.bloom.to_bytes();
        let framed = write_framed(&mut self.file, &bloom_bytes)?;
        self.device.charge_write(framed);
        self.offset += framed as u64;
        // Footer.
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        put_u64(&mut footer, index_off);
        put_u64(&mut footer, bloom_off);
        put_u64(&mut footer, self.entries);
        put_u64(&mut footer, MAGIC);
        self.file.write_all(&footer)?;
        muppet_core::sync::audit::blocking_io("sstable fsync");
        self.file.sync_data()?;
        let file_len = self.offset + FOOTER_LEN as u64;

        // Reopen read-only: `File::create` handles are write-only, and the
        // reader wants positioned reads on an immutable file.
        let read_handle = File::open(&self.path)?;
        Ok(SSTable {
            path: self.path,
            file: read_handle,
            device: self.device,
            index: self.index,
            bloom: self.bloom,
            entries: self.entries,
            file_len,
        })
    }
}

fn write_framed(file: &mut File, payload: &[u8]) -> StoreResult<usize> {
    let mut frame = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut frame, crc32c(payload));
    put_u32(&mut frame, payload.len() as u32);
    frame.extend_from_slice(payload);
    file.write_all(&frame)?;
    Ok(frame.len())
}

fn read_framed_at(file: &File, offset: u64, framed_len: usize) -> StoreResult<Vec<u8>> {
    use std::os::unix::fs::FileExt;
    let mut buf = vec![0u8; framed_len];
    file.read_exact_at(&mut buf, offset)?;
    let crc = get_u32(&buf, 0).ok_or_else(|| StoreError::Corrupt("frame: truncated crc".into()))?;
    let len = get_u32(&buf, 4).ok_or_else(|| StoreError::Corrupt("frame: truncated len".into()))?;
    if len as usize + 8 != framed_len {
        return Err(StoreError::Corrupt("frame: length mismatch".into()));
    }
    buf.drain(..8);
    if crc32c(&buf) != crc {
        return Err(StoreError::Corrupt("frame: checksum mismatch".into()));
    }
    Ok(buf)
}

fn bloom_item(key: &CellKey) -> Vec<u8> {
    let mut item = Vec::with_capacity(key.row.len() + key.column.len() + 1);
    item.extend_from_slice(&key.row);
    item.push(0);
    item.extend_from_slice(&key.column);
    item
}

/// An immutable, open SSTable.
pub struct SSTable {
    path: PathBuf,
    file: File,
    device: Arc<StorageDevice>,
    index: Vec<(CellKey, u64, u32)>,
    bloom: BloomFilter,
    entries: u64,
    file_len: u64,
}

impl std::fmt::Debug for SSTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SSTable")
            .field("path", &self.path)
            .field("entries", &self.entries)
            .field("blocks", &self.index.len())
            .field("bytes", &self.file_len)
            .finish()
    }
}

impl SSTable {
    /// Open an existing table from disk (reads footer, index, bloom).
    pub fn open(path: impl AsRef<Path>, device: Arc<StorageDevice>) -> StoreResult<SSTable> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let file_len = file.seek(SeekFrom::End(0))?;
        if file_len < FOOTER_LEN as u64 {
            return Err(StoreError::Corrupt("sstable: too short".into()));
        }
        use std::os::unix::fs::FileExt;
        let mut footer = [0u8; FOOTER_LEN];
        file.read_exact_at(&mut footer, file_len - FOOTER_LEN as u64)?;
        // lint: allow(no-unwrap-in-prod) — fixed FOOTER_LEN array, offsets statically in bounds
        let index_off = get_u64(&footer, 0).unwrap();
        // lint: allow(no-unwrap-in-prod) — fixed FOOTER_LEN array, offsets statically in bounds
        let bloom_off = get_u64(&footer, 8).unwrap();
        // lint: allow(no-unwrap-in-prod) — fixed FOOTER_LEN array, offsets statically in bounds
        let entries = get_u64(&footer, 16).unwrap();
        // lint: allow(no-unwrap-in-prod) — fixed FOOTER_LEN array, offsets statically in bounds
        let magic = get_u64(&footer, 24).unwrap();
        if magic != MAGIC {
            let layout = if magic == OLD_MAGIC {
                "an SSTable in an older build's per-cell layout"
            } else {
                "not an SSTable (bad magic)"
            };
            return Err(StoreError::Corrupt(format!(
                "{}: {layout}; left untouched",
                path.display()
            )));
        }
        if index_off > bloom_off || bloom_off > file_len - FOOTER_LEN as u64 {
            return Err(StoreError::Corrupt("sstable: bad section offsets".into()));
        }
        let index_payload = read_framed_at(&file, index_off, (bloom_off - index_off) as usize)?;
        let bloom_payload =
            read_framed_at(&file, bloom_off, (file_len - FOOTER_LEN as u64 - bloom_off) as usize)?;
        device.charge_read(index_payload.len() + bloom_payload.len());

        let mut index = Vec::new();
        let mut rest: &[u8] = &index_payload;
        while !rest.is_empty() {
            let (row, n1) =
                get_len_prefixed(rest).ok_or_else(|| StoreError::Corrupt("index: row".into()))?;
            rest = &rest[n1..];
            let (col, n2) =
                get_len_prefixed(rest).ok_or_else(|| StoreError::Corrupt("index: col".into()))?;
            rest = &rest[n2..];
            let (off, n3) =
                get_varint(rest).ok_or_else(|| StoreError::Corrupt("index: off".into()))?;
            rest = &rest[n3..];
            let (len, n4) =
                get_varint(rest).ok_or_else(|| StoreError::Corrupt("index: len".into()))?;
            rest = &rest[n4..];
            index.push((CellKey::new(row, col), off, len as u32));
        }
        let bloom = BloomFilter::from_bytes(&bloom_payload)?;
        Ok(SSTable { path, file, device, index, bloom, entries, file_len })
    }

    /// Point lookup. `None` when the key is certainly absent; the returned
    /// cell may be a tombstone (caller interprets).
    pub fn get(&self, key: &CellKey) -> StoreResult<Option<Cell>> {
        if self.index.is_empty() || !self.bloom.may_contain(&bloom_item(key)) {
            return Ok(None);
        }
        // Last block whose first key <= key.
        let block_idx = match self.index.binary_search_by(|(first, _, _)| first.cmp(key)) {
            Ok(i) => i,
            Err(0) => return Ok(None), // key sorts before the first block
            Err(i) => i - 1,
        };
        let (_, offset, framed_len) = &self.index[block_idx];
        self.device.charge_read(*framed_len as usize);
        let payload = read_framed_at(&self.file, *offset, *framed_len as usize)?;
        let mut run = RunReader::new(&payload);
        while let Some(cell) = run.next_cell()? {
            match (run.row(), cell.column).cmp(&(&key.row[..], &key.column[..])) {
                std::cmp::Ordering::Equal => return Ok(Some(cell.to_cell())),
                std::cmp::Ordering::Greater => return Ok(None),
                std::cmp::Ordering::Less => {}
            }
        }
        Ok(None)
    }

    /// Scan every cell in key order (compaction, bulk dump). Charges the
    /// device for each block.
    pub fn scan(&self) -> StoreResult<Vec<(CellKey, Cell)>> {
        let mut out = Vec::with_capacity(self.entries as usize);
        for (_, offset, framed_len) in &self.index {
            self.device.charge_read(*framed_len as usize);
            let payload = read_framed_at(&self.file, *offset, *framed_len as usize)?;
            decode_run(&payload, &mut out)?;
        }
        Ok(out)
    }

    /// Number of cells in the table.
    pub fn entry_count(&self) -> u64 {
        self.entries
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Number of data blocks.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// File path (for deletion after compaction).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProfile;
    use crate::util::TempDir;

    fn device() -> Arc<StorageDevice> {
        Arc::new(StorageDevice::new(DeviceProfile::NULL))
    }

    fn build_table(dir: &TempDir, name: &str, n: u64) -> SSTable {
        let mut w = SSTableWriter::create(dir.file(name), device(), n as usize).unwrap();
        for i in 0..n {
            let key = CellKey::new(format!("row-{i:06}"), "U1");
            let cell = Cell::live(format!("value-{i}"), i, None);
            w.add(&key, &cell).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn write_then_point_read() {
        let dir = TempDir::new("sst").unwrap();
        let table = build_table(&dir, "t1.sst", 1000);
        assert_eq!(table.entry_count(), 1000);
        assert!(table.block_count() > 1, "1000 entries should span blocks");
        for i in [0u64, 1, 499, 998, 999] {
            let key = CellKey::new(format!("row-{i:06}"), "U1");
            let cell = table.get(&key).unwrap().unwrap();
            assert_eq!(cell.value.as_ref(), format!("value-{i}").as_bytes());
            assert_eq!(cell.write_ts, i);
        }
    }

    #[test]
    fn absent_keys_return_none() {
        let dir = TempDir::new("sst").unwrap();
        let table = build_table(&dir, "t.sst", 100);
        assert!(table.get(&CellKey::new("row-999999", "U1")).unwrap().is_none());
        assert!(table.get(&CellKey::new("aaaa", "U1")).unwrap().is_none(), "before first block");
        assert!(table.get(&CellKey::new("row-000001", "U2")).unwrap().is_none(), "wrong column");
    }

    #[test]
    fn reopen_from_disk() {
        let dir = TempDir::new("sst").unwrap();
        let path = dir.file("t.sst");
        {
            build_table(&dir, "t.sst", 500);
        }
        let table = SSTable::open(&path, device()).unwrap();
        assert_eq!(table.entry_count(), 500);
        let cell = table.get(&CellKey::new("row-000250", "U1")).unwrap().unwrap();
        assert_eq!(cell.value.as_ref(), b"value-250");
    }

    #[test]
    fn scan_returns_everything_in_order() {
        let dir = TempDir::new("sst").unwrap();
        let table = build_table(&dir, "t.sst", 300);
        let all = table.scan().unwrap();
        assert_eq!(all.len(), 300);
        for window in all.windows(2) {
            assert!(window[0].0 < window[1].0, "scan must be sorted");
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_adds_panic() {
        let dir = TempDir::new("sst").unwrap();
        let mut w = SSTableWriter::create(dir.file("bad.sst"), device(), 10).unwrap();
        w.add(&CellKey::new("b", "U"), &Cell::live("v", 1, None)).unwrap();
        w.add(&CellKey::new("a", "U"), &Cell::live("v", 2, None)).unwrap();
    }

    #[test]
    fn tombstones_and_ttl_survive() {
        let dir = TempDir::new("sst").unwrap();
        let mut w = SSTableWriter::create(dir.file("t.sst"), device(), 4).unwrap();
        w.add(&CellKey::new("a", "U"), &Cell::live("v", 1, Some(30))).unwrap();
        w.add(&CellKey::new("b", "U"), &Cell::tombstone(2)).unwrap();
        let t = w.finish().unwrap();
        assert_eq!(t.get(&CellKey::new("a", "U")).unwrap().unwrap().ttl_secs, Some(30));
        assert!(t.get(&CellKey::new("b", "U")).unwrap().unwrap().tombstone);
    }

    /// Flip a bit in any byte of the first block's frame: every read of
    /// that block errs. Cut the file inside it: the table does not open.
    #[test]
    fn corruption_is_detected() {
        let dir = TempDir::new("sst").unwrap();
        let path = dir.file("t.sst");
        let (block_len, second_block) = {
            let table = build_table(&dir, "t.sst", 1000);
            (table.index[0].2 as usize, table.index[1].0.clone())
        };
        let data = std::fs::read(&path).unwrap();
        let (first, last) = (CellKey::new("row-000000", "U1"), CellKey::new("row-000003", "U1"));
        assert!(last < second_block, "both keys sit in the first block");
        for at in 0..block_len {
            let mut flipped = data.clone();
            flipped[at] ^= 1 << (at % 8);
            std::fs::write(&path, &flipped).unwrap();
            let table = SSTable::open(&path, device()).unwrap();
            for key in [&first, &last] {
                assert!(matches!(table.get(key), Err(StoreError::Corrupt(_))), "bit {at}");
            }
            assert!(table.scan().is_err());
        }
        for cut in 0..block_len {
            std::fs::write(&path, &data[..cut]).unwrap();
            assert!(SSTable::open(&path, device()).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn open_rejects_non_sstables() {
        let dir = TempDir::new("sst").unwrap();
        let path = dir.file("junk.sst");
        std::fs::write(&path, b"this is not an sstable at all................").unwrap();
        assert!(SSTable::open(&path, device()).is_err());
        std::fs::write(&path, b"x").unwrap();
        assert!(SSTable::open(&path, device()).is_err());
    }

    #[test]
    fn device_io_is_charged_per_block_read() {
        let dir = TempDir::new("sst").unwrap();
        let dev = device();
        let mut w = SSTableWriter::create(dir.file("t.sst"), Arc::clone(&dev), 1000).unwrap();
        for i in 0..1000u64 {
            w.add(&CellKey::new(format!("row-{i:06}"), "U1"), &Cell::live("v", i, None)).unwrap();
        }
        let t = w.finish().unwrap();
        let writes_after_build = dev.stats().writes;
        assert!(writes_after_build as usize >= t.block_count());
        let reads_before = dev.stats().reads;
        t.get(&CellKey::new("row-000500", "U1")).unwrap();
        assert_eq!(dev.stats().reads, reads_before + 1, "one block read per point lookup");
    }

    #[test]
    fn empty_table_is_valid() {
        let dir = TempDir::new("sst").unwrap();
        let w = SSTableWriter::create(dir.file("e.sst"), device(), 0).unwrap();
        let t = w.finish().unwrap();
        assert_eq!(t.entry_count(), 0);
        assert!(t.get(&CellKey::new("any", "U")).unwrap().is_none());
        assert!(t.scan().unwrap().is_empty());
    }
}

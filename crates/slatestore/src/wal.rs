//! The commit log (write-ahead log) of a storage node.
//!
//! Cassandra acknowledges a write once it is in the commit log and the
//! memtable; the memtable reaches disk later as an SSTable. Our node does
//! the same so that "persistent slates help resuming, restarting, or
//! recovering the application from crashes" (§4.2): on restart, the WAL
//! segments written since the last flush replay into a fresh memtable.
//!
//! ## Two layers
//!
//! The **raw layer** frames opaque payloads and owns everything a crash
//! can do to a file: [`WalWriter::stage`] + [`WalWriter::commit`] write
//! records, [`RawReplay`] streams their payloads back and stops cleanly at
//! the first torn or corrupt one — the tail of a crashed write must not
//! poison recovery — and [`WalWriter::resume`] cuts the file back to that
//! boundary. The runtime's ingest log puts its frames of events on it.
//! The **cell layer** (`append`, `append_many`, [`replay`],
//! [`WalWriter::open_or_create`]) is the commit log proper: one record per
//! cell write.
//!
//! ```text
//! record  := [u32 crc32c over payload][u32 payload_len][payload]
//! payload := [len-prefixed row][len-prefixed column][u8 flags]      (cell layer)
//!            [varint write_ts][varint ttl_secs+1 (0 = none)]
//!            [len-prefixed value]
//! ```

use std::borrow::Borrow;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, Write};
use std::path::{Path, PathBuf};

use muppet_core::codec::crc32c;

use crate::record::{decode_cell, encode_cell};
use crate::types::{Cell, CellKey, StoreError, StoreResult};

/// Append-only writer for one WAL segment file.
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    out: BufWriter<File>,
    records: u64,
    bytes: u64,
    /// fsync after every append — or, via [`WalWriter::append_many`], once
    /// per *batch* (group commit) — versus relying on OS flush.
    sync_each: bool,
    /// fsyncs issued (the group-commit observable: N appends under
    /// `sync_each` cost N syncs; one `append_many` of N records costs 1).
    syncs: u64,
    /// Reused frame buffer: a whole `append_many` batch is encoded here
    /// and handed to `out` as one `write_all`.
    scratch: Vec<u8>,
    /// Records framed in `scratch`, not yet committed.
    staged: u64,
}

impl WalWriter {
    /// Create (truncate) a segment at `path`. Callers that may be
    /// re-opening a segment they still need to recover from must use
    /// [`WalWriter::open_or_create`] instead — `create` destroys exactly
    /// the records a restart would replay.
    pub fn create(path: impl AsRef<Path>, sync_each: bool) -> StoreResult<WalWriter> {
        Self::resume(path, sync_each, 0, 0)
    }

    /// Open an existing segment for appending — replaying its intact
    /// prefix first — or create it fresh if absent. A torn tail (the
    /// half-written frame of a crashed append) is cut off at the last
    /// intact record boundary, so new appends land on a clean frame
    /// boundary instead of behind garbage that would poison every later
    /// replay. Returns the positioned writer plus the replayed records;
    /// `record_count`/`byte_count` continue from the recovered prefix.
    pub fn open_or_create(
        path: impl AsRef<Path>,
        sync_each: bool,
    ) -> StoreResult<(WalWriter, WalReplay)> {
        let replayed = replay(&path)?;
        let records = replayed.records.len() as u64;
        let writer = Self::resume(path, sync_each, records, replayed.valid_bytes)?;
        Ok((writer, replayed))
    }

    /// Raw layer: open (or create) the segment for appending at
    /// `valid_bytes` — the end of the `records` intact records a replay
    /// found — cutting off whatever lies beyond it.
    pub fn resume(
        path: impl AsRef<Path>,
        sync_each: bool,
        records: u64,
        valid_bytes: u64,
    ) -> StoreResult<WalWriter> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().create(true).truncate(false).write(true).open(&path)?;
        if file.metadata()?.len() > valid_bytes {
            file.set_len(valid_bytes)?;
        }
        file.seek(std::io::SeekFrom::Start(valid_bytes))?;
        Ok(WalWriter {
            path,
            out: BufWriter::new(file),
            records,
            bytes: valid_bytes,
            sync_each,
            syncs: 0,
            scratch: Vec::new(),
            staged: 0,
        })
    }

    /// Raw layer: frame whatever `encode` appends as one record at the
    /// tail of `scratch` — reserve the 8-byte header, let the payload be
    /// encoded in place, back-patch crc + length. Nothing reaches the file
    /// before [`WalWriter::commit`].
    pub fn stage(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        let header = self.scratch.len();
        self.scratch.extend_from_slice(&[0u8; 8]);
        encode(&mut self.scratch);
        let payload = &self.scratch[header + 8..];
        // lint: allow(no-unwrap-in-prod) — a 4 GiB record is a caller's bug; `as u32` would write a lying length
        let len = u32::try_from(payload.len()).expect("a WAL record is under 4 GiB");
        let crc = crc32c(payload);
        self.scratch[header..header + 4].copy_from_slice(&crc.to_le_bytes());
        self.scratch[header + 4..header + 8].copy_from_slice(&len.to_le_bytes());
        self.staged += 1;
    }

    /// Raw layer: hand every staged record to the file buffer with one
    /// `write_all`, then — under `sync_each` — one fsync for all of them.
    pub fn commit(&mut self) -> StoreResult<()> {
        if self.staged == 0 {
            return Ok(());
        }
        let written = self.out.write_all(&self.scratch);
        let (records, bytes) = (std::mem::take(&mut self.staged), self.scratch.len() as u64);
        self.scratch.clear();
        written?;
        self.records += records;
        self.bytes += bytes;
        if self.sync_each {
            self.sync()?;
        }
        Ok(())
    }

    /// Make everything written so far durable (flush + fsync). Callers
    /// that batch appends without `sync_each` (checkpointing an ingest
    /// log, graceful shutdown) use this to draw an explicit durability
    /// line.
    pub fn sync(&mut self) -> StoreResult<()> {
        self.out.flush()?;
        muppet_core::sync::audit::blocking_io("wal fsync");
        self.out.get_ref().sync_data()?;
        self.syncs += 1;
        Ok(())
    }

    /// Append one cell write.
    pub fn append(&mut self, key: &CellKey, cell: &Cell) -> StoreResult<()> {
        self.stage(|buf| encode_cell(buf, key, cell));
        self.commit()
    }

    /// Append a run of cell writes as one group commit: all records are
    /// framed into one buffer and enter the file buffer with one write,
    /// then — under `sync_each` — ONE fsync makes the whole batch durable,
    /// instead of one per record. The §4.2 write-behind pipeline's
    /// durability amortization: a flush tick of N dirty slates pays one
    /// disk sync, not N.
    pub fn append_many<R: Borrow<(CellKey, Cell)>>(
        &mut self,
        entries: impl IntoIterator<Item = R>,
    ) -> StoreResult<()> {
        for entry in entries {
            let (key, cell) = entry.borrow();
            self.stage(|buf| encode_cell(buf, key, cell));
        }
        self.commit()
    }

    /// A second handle to the segment file, for a caller that fsyncs
    /// without holding the writer (the ingest log's group commit). fsync
    /// is per inode: a `sync_data` on this handle covers every byte that
    /// was written *and flushed* ([`WalWriter::flush`]) through the
    /// writer before the call.
    pub fn sync_handle(&self) -> StoreResult<File> {
        Ok(self.out.get_ref().try_clone()?)
    }

    /// Flush buffered frames to the OS.
    pub fn flush(&mut self) -> StoreResult<()> {
        self.out.flush()?;
        Ok(())
    }

    /// fsyncs issued so far (group-commit accounting).
    pub fn sync_count(&self) -> u64 {
        self.syncs
    }

    /// Records appended so far.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Bytes appended so far (framed).
    pub fn byte_count(&self) -> u64 {
        self.bytes
    }

    /// Path of this segment.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn decode_record(payload: &[u8]) -> StoreResult<(CellKey, Cell)> {
    let (rec, n) = decode_cell(payload)?;
    if n != payload.len() {
        return Err(StoreError::Corrupt("wal record: trailing bytes".into()));
    }
    Ok(rec)
}

/// Outcome of replaying one WAL segment.
#[derive(Debug)]
pub struct WalReplay {
    /// Recovered writes, in append order.
    pub records: Vec<(CellKey, Cell)>,
    /// True if replay stopped early at a torn/corrupt record.
    pub truncated: bool,
    /// Bytes of intact framed records (the boundary a torn tail is cut
    /// back to by [`WalWriter::open_or_create`]).
    pub valid_bytes: u64,
}

/// Raw layer: streams a segment's record payloads in order, one at a time
/// in a reused buffer, and stops at the first torn or corrupt record.
pub struct RawReplay {
    input: BufReader<File>,
    /// Read position (just past the last payload returned) and file length.
    offset: u64,
    end: u64,
    max_len: u32,
    torn: bool,
    payload: Vec<u8>,
}

impl RawReplay {
    /// Replay `file` from its current position. A record whose header
    /// claims more than `max_len` payload bytes, or more than the file
    /// still holds, is torn: nothing is allocated for it.
    pub fn new(mut file: File, max_len: u32) -> StoreResult<RawReplay> {
        let (offset, end) = (file.stream_position()?, file.metadata()?.len());
        let input = BufReader::new(file);
        Ok(RawReplay { input, offset, end, max_len, torn: false, payload: Vec::new() })
    }

    /// The next intact record's payload; `None` at the end of the file or
    /// at a torn/corrupt record ([`RawReplay::torn`] tells which).
    pub fn next_payload(&mut self) -> StoreResult<Option<&[u8]>> {
        let remaining = self.end.saturating_sub(self.offset);
        if self.torn || remaining == 0 {
            return Ok(None);
        }
        self.torn = true; // until this record proves intact
        if remaining < 8 {
            return Ok(None);
        }
        let (mut crc, mut len) = ([0u8; 4], [0u8; 4]);
        self.input.read_exact(&mut crc)?;
        self.input.read_exact(&mut len)?;
        let (crc, len) = (u32::from_le_bytes(crc), u32::from_le_bytes(len));
        if len > self.max_len || u64::from(len) > remaining - 8 {
            return Ok(None);
        }
        self.payload.resize(len as usize, 0);
        self.input.read_exact(&mut self.payload)?;
        if crc32c(&self.payload) != crc {
            return Ok(None);
        }
        self.torn = false;
        self.offset += 8 + u64::from(len);
        Ok(Some(&self.payload))
    }

    /// File offset just past the last payload returned — the boundary a
    /// torn tail is cut back to.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// True once replay has stopped at a torn or corrupt record.
    pub fn torn(&self) -> bool {
        self.torn
    }
}

/// Replay a segment file of cell records. Missing file ⟹ empty replay
/// (fresh node). A record that fails its checksum or does not decode as a
/// cell ends the replay there.
pub fn replay(path: impl AsRef<Path>) -> StoreResult<WalReplay> {
    let mut replayed = WalReplay { records: Vec::new(), truncated: false, valid_bytes: 0 };
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(replayed),
        Err(e) => return Err(e.into()),
    };
    let mut raw = RawReplay::new(file, u32::MAX)?;
    while let Some(payload) = raw.next_payload()? {
        let Ok(record) = decode_record(payload) else {
            replayed.truncated = true;
            break;
        };
        replayed.records.push(record);
        replayed.valid_bytes = raw.offset();
    }
    replayed.truncated |= raw.torn();
    Ok(replayed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::TempDir;

    fn sample(i: u64) -> (CellKey, Cell) {
        (
            CellKey::new(format!("row-{i}"), "U1"),
            Cell::live(format!("value-{i}"), i, if i.is_multiple_of(2) { Some(60) } else { None }),
        )
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("wal-0.log");
        let mut w = WalWriter::create(&path, false).unwrap();
        let expected: Vec<_> = (0..100).map(sample).collect();
        for (k, c) in &expected {
            w.append(k, c).unwrap();
        }
        w.flush().unwrap();
        assert_eq!(w.record_count(), 100);
        assert!(w.byte_count() > 0);

        let replayed = replay(&path).unwrap();
        assert!(!replayed.truncated);
        assert_eq!(replayed.records, expected);
    }

    #[test]
    fn tombstones_and_ttls_survive_replay() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("w.log");
        let mut w = WalWriter::create(&path, true).unwrap();
        let key = CellKey::new("k", "U");
        w.append(&key, &Cell::live("v", 7, Some(0))).unwrap();
        w.append(&key, &Cell::tombstone(8)).unwrap();
        drop(w);
        let rec = replay(&path).unwrap().records;
        assert_eq!(rec[0].1.ttl_secs, Some(0), "ttl=0 is distinct from no ttl");
        assert!(rec[1].1.tombstone);
        assert_eq!(rec[1].1.write_ts, 8);
    }

    #[test]
    fn append_many_group_commits_with_one_sync() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("group.log");
        let mut w = WalWriter::create(&path, true).unwrap();
        let expected: Vec<_> = (0..64).map(sample).collect();
        w.append_many(&expected).unwrap();
        assert_eq!(w.record_count(), 64);
        assert_eq!(w.sync_count(), 1, "one fsync for the whole batch (group commit)");
        w.append_many(&[]).unwrap();
        assert_eq!(w.sync_count(), 1, "an empty batch syncs nothing");
        drop(w);
        let replayed = replay(&path).unwrap();
        assert!(!replayed.truncated);
        assert_eq!(replayed.records, expected, "group commit is byte-identical to appends");
    }

    #[test]
    fn one_buffer_batches_keep_the_documented_byte_layout() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("layout.log");
        let entries: Vec<_> = (0..7).map(sample).collect();
        let mut w = WalWriter::create(&path, false).unwrap();
        w.append(&entries[0].0, &entries[0].1).unwrap();
        w.append_many(&entries[1..]).unwrap();
        w.flush().unwrap();
        // The frame layout of the module doc, built the long way round.
        let mut expected = Vec::new();
        for (key, cell) in &entries {
            let mut payload = Vec::new();
            encode_cell(&mut payload, key, cell);
            expected.extend_from_slice(&crc32c(&payload).to_le_bytes());
            expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            expected.extend_from_slice(&payload);
        }
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        assert_eq!(w.byte_count(), expected.len() as u64);
        assert_eq!(w.record_count(), 7);
    }

    #[test]
    fn raw_records_round_trip_and_resume_on_the_boundary() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("raw.log");
        let mut w = WalWriter::create(&path, true).unwrap();
        w.stage(|buf| buf.extend_from_slice(b"one"));
        w.commit().unwrap();
        w.stage(|_| ());
        w.stage(|buf| buf.extend_from_slice(&[0xff; 300]));
        w.commit().unwrap();
        assert_eq!((w.record_count(), w.sync_count()), (3, 2), "one fsync per commit");
        let boundary = w.byte_count();
        drop(w);
        // A torn fourth record.
        let mut data = std::fs::read(&path).unwrap();
        data.extend_from_slice(&[1, 2, 3, 4, 9, 0, 0, 0, b'x']);
        std::fs::write(&path, &data).unwrap();

        let mut raw = RawReplay::new(File::open(&path).unwrap(), u32::MAX).unwrap();
        for expected in [&b"one"[..], b"", &[0xff; 300]] {
            assert_eq!(raw.next_payload().unwrap(), Some(expected));
        }
        assert_eq!(raw.next_payload().unwrap(), None);
        assert!(raw.torn());
        assert_eq!(raw.offset(), boundary);

        let mut w = WalWriter::resume(&path, false, 3, boundary).unwrap();
        w.stage(|buf| buf.extend_from_slice(b"four"));
        w.commit().unwrap();
        w.flush().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), boundary + 12);
    }

    #[test]
    fn a_length_over_the_readers_cap_is_torn_before_anything_is_allocated() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("cap.log");
        let mut w = WalWriter::create(&path, false).unwrap();
        w.stage(|buf| buf.extend_from_slice(&[7; 2_000]));
        w.commit().unwrap();
        w.flush().unwrap();
        // Intact and within the file — only the cap says no.
        let mut raw = RawReplay::new(File::open(&path).unwrap(), 1_999).unwrap();
        assert_eq!(raw.next_payload().unwrap(), None);
        assert!(raw.torn());
        assert_eq!((raw.offset(), raw.payload.capacity()), (0, 0));
        // So does a length the file cannot hold, whatever the cap.
        std::fs::write(&path, [0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 1, 2, 3]).unwrap();
        let mut raw = RawReplay::new(File::open(&path).unwrap(), u32::MAX).unwrap();
        assert_eq!(raw.next_payload().unwrap(), None);
        assert_eq!((raw.torn(), raw.payload.capacity()), (true, 0));
    }

    #[test]
    fn sync_handle_syncs_the_writers_file() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("handle.log");
        let mut w = WalWriter::create(&path, false).unwrap();
        let handle = w.sync_handle().unwrap();
        let (k, c) = sample(1);
        w.append(&k, &c).unwrap();
        w.flush().unwrap();
        handle.sync_data().unwrap();
        assert_eq!(handle.metadata().unwrap().len(), w.byte_count(), "same inode");
        assert_eq!(w.sync_count(), 0, "the writer itself never synced");
    }

    #[test]
    fn per_record_appends_sync_each_time() {
        let dir = TempDir::new("wal").unwrap();
        let mut w = WalWriter::create(dir.file("each.log"), true).unwrap();
        for i in 0..5 {
            let (k, c) = sample(i);
            w.append(&k, &c).unwrap();
        }
        assert_eq!(w.sync_count(), 5, "sync_each without batching = one fsync per record");
        // Without sync_each, neither path fsyncs.
        let mut w2 = WalWriter::create(dir.file("lazy.log"), false).unwrap();
        let entries: Vec<_> = (0..5).map(sample).collect();
        w2.append_many(&entries).unwrap();
        assert_eq!(w2.sync_count(), 0);
    }

    #[test]
    fn missing_file_is_empty_replay() {
        let dir = TempDir::new("wal").unwrap();
        let r = replay(dir.file("nonexistent.log")).unwrap();
        assert!(r.records.is_empty());
        assert!(!r.truncated);
    }

    #[test]
    fn torn_tail_stops_replay_cleanly() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("torn.log");
        let mut w = WalWriter::create(&path, false).unwrap();
        for i in 0..10 {
            let (k, c) = sample(i);
            w.append(&k, &c).unwrap();
        }
        w.flush().unwrap();
        drop(w);
        // Tear the file mid-record.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 5]).unwrap();
        let r = replay(&path).unwrap();
        assert!(r.truncated);
        assert_eq!(r.records.len(), 9, "only the torn record is lost");
    }

    #[test]
    fn bitflip_detected_by_crc() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("flip.log");
        let mut w = WalWriter::create(&path, false).unwrap();
        for i in 0..3 {
            let (k, c) = sample(i);
            w.append(&k, &c).unwrap();
        }
        w.flush().unwrap();
        drop(w);
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x40;
        std::fs::write(&path, &data).unwrap();
        let r = replay(&path).unwrap();
        assert!(r.truncated);
        assert!(r.records.len() < 3);
    }

    #[test]
    fn create_truncates_existing_segment() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("re.log");
        {
            let mut w = WalWriter::create(&path, false).unwrap();
            let (k, c) = sample(1);
            w.append(&k, &c).unwrap();
            w.flush().unwrap();
        }
        let w2 = WalWriter::create(&path, false).unwrap();
        drop(w2);
        let r = replay(&path).unwrap();
        assert!(r.records.is_empty(), "create() starts a fresh segment");
    }

    #[test]
    fn open_or_create_double_restart_loses_nothing() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("restart.log");
        let first: Vec<_> = (0..8).map(sample).collect();
        {
            let mut w = WalWriter::create(&path, false).unwrap();
            w.append_many(&first).unwrap();
            w.flush().unwrap();
        }
        // First restart: the segment must survive reopening and keep counting
        // from the recovered prefix.
        let second: Vec<_> = (8..12).map(sample).collect();
        {
            let (mut w, replayed) = WalWriter::open_or_create(&path, false).unwrap();
            assert!(!replayed.truncated);
            assert_eq!(replayed.records, first);
            assert_eq!(w.record_count(), 8);
            w.append_many(&second).unwrap();
            w.flush().unwrap();
            assert_eq!(w.record_count(), 12);
        }
        // Second restart: both generations are present, in order.
        let (w, replayed) = WalWriter::open_or_create(&path, false).unwrap();
        assert!(!replayed.truncated);
        let mut expected = first;
        expected.extend(second);
        assert_eq!(replayed.records, expected);
        assert_eq!(w.record_count(), 12);
    }

    #[test]
    fn open_or_create_truncates_torn_tail_then_appends_cleanly() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("torn-reopen.log");
        {
            let mut w = WalWriter::create(&path, false).unwrap();
            for i in 0..10 {
                let (k, c) = sample(i);
                w.append(&k, &c).unwrap();
            }
            w.flush().unwrap();
        }
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 5]).unwrap();

        let (mut w, replayed) = WalWriter::open_or_create(&path, false).unwrap();
        assert!(replayed.truncated);
        assert_eq!(replayed.records.len(), 9, "torn record cut back to the valid prefix");
        assert_eq!(w.record_count(), 9);
        let (k, c) = sample(100);
        w.append(&k, &c).unwrap();
        w.flush().unwrap();
        drop(w);

        let r = replay(&path).unwrap();
        assert!(!r.truncated, "appending after a torn-tail reopen leaves a clean log");
        assert_eq!(r.records.len(), 10);
        assert_eq!(r.records[9], (k, c));
    }

    #[test]
    fn open_or_create_missing_file_starts_fresh() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("fresh.log");
        let (mut w, replayed) = WalWriter::open_or_create(&path, true).unwrap();
        assert!(replayed.records.is_empty());
        assert_eq!(replayed.valid_bytes, 0);
        let (k, c) = sample(0);
        w.append(&k, &c).unwrap();
        drop(w);
        assert_eq!(replay(&path).unwrap().records.len(), 1);
    }

    #[test]
    fn empty_value_and_binary_keys() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("bin.log");
        let mut w = WalWriter::create(&path, false).unwrap();
        let key = CellKey::new(vec![0u8, 255, 1], vec![128u8]);
        w.append(&key, &Cell::live(Vec::<u8>::new(), 0, None)).unwrap();
        w.flush().unwrap();
        drop(w);
        let r = replay(&path).unwrap();
        assert_eq!(r.records[0].0, key);
        assert!(r.records[0].1.value.is_empty());
    }
}

//! Ingest write-ahead log — durability for *accepted but unprocessed*
//! events.
//!
//! Muppet's §4.3 protocol shrugs at a dead machine's in-flight work; at
//! production scale that is unacceptable, so each `muppetd` writes every
//! event it accepts from sources to a per-machine WAL. A restarted node
//! replays the suffix past its replay cursor (see `Engine::checkpoint`)
//! and converges to bit-identical slates.
//!
//! ## One submit, one record
//!
//! One [`IngestLog::write_batch`] call writes one **frame**: one record of
//! `slatestore::wal`'s raw layer (which owns crc, length and torn tails)
//! whose payload spells each stream name once and each `ts` as a delta.
//! `seq` is not stored: replay re-admits in log order, which reassigns it.
//!
//! ```text
//! segment := header frame*
//! header  := "MUPIWAL" [u8 format version = 1]      written + synced at creation
//! frame   := [u32 crc32c over payload][u32 payload_len][payload]
//! payload := [varint n]                               events in the frame, ≥ 1
//!            [varint s] s × [len-prefixed stream name]   in order of first use
//!            n × ( [varint stream index][len-prefixed key]
//!                  [varint zigzag(ts − previous ts, wrapping; the first from 0)]
//!                  [len-prefixed value] )
//! ```
//!
//! **A frame is atomic**: torn or corrupt, it is dropped whole with
//! everything after it and the file is cut back to the last intact frame —
//! a `submit_many` is in the log entirely or not at all. Only a run past
//! [`FRAME_SOFT_BYTES`] is split. **The header guards the path**: a
//! non-empty file without it (a store file, a pre-frame log) is refused and
//! left untouched, where a torn-tail reading would have emptied it. No
//! compressor, no preallocation: DESIGN.md §11 says why.
//!
//! ## Logged, then durable
//!
//! An event crosses two lines, tracked by two watermarks (both count
//! events since the start of the segment, whatever the frames):
//!
//! * **logged** (`written`): [`IngestLog::write_batch`] has encoded the
//!   run, `write`n it to the file and flushed the buffer to the OS. A
//!   `kill -9` restart replays it. The engine dispatches an event to
//!   workers only after this line, so every event a worker ever saw is
//!   in the file.
//! * **durable** (`durable`): an `fdatasync` that began after the write
//!   has returned — [`IngestLog::wait_durable`]. A power loss spares it.
//!   The engine acks (`Ok` from `submit*`) only after this line.
//!
//! [`IngestLog::append_batch`] is the two in sequence.
//!
//! ## Group commit
//!
//! The fsync tax is paid once per *batch*, not once per event. The
//! writer lock covers encode + `write` only and is never held across an
//! fsync: the sync step runs on a second handle to the same file (fsync
//! is per inode). A caller whose records are not yet durable either
//! becomes the **leader** — nobody is syncing: read `written`, sync,
//! publish `durable =` the value read, wake everyone — or parks until a
//! leader's watermark covers it. The leader must read `written` *before*
//! its sync: a record written while the sync runs may not be covered by
//! it, so publishing a later value would ack records a power loss can
//! still take. Submitters that arrive during a sync keep writing (and
//! the engine keeps dispatching); the next leader's one fsync covers all
//! of them. A lone single-event submitter degenerates to sync-per-record,
//! which is the correct latency floor. `sync_each` mode writes and
//! fsyncs event by event (frames of one) under the writer lock — the
//! expensive arm PR 7 measured.
//!
//! ## Failure
//!
//! A failed `write` or fsync poisons the log ([`IngestLog::failed`]):
//! that call and every later one return `Err`. After a failed fsync the
//! kernel may have dropped the dirty pages, so nothing written since the
//! last good sync can be trusted to ever reach the disk; refusing ingest
//! is the only honest answer.

use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use muppet_core::codec::{get_len_prefixed, get_varint, put_len_prefixed, put_varint};
use muppet_core::sync::{audit, Condvar, Mutex};
use muppet_core::{Event, Key, StreamId};
use muppet_obs::Histogram;
use muppet_slatestore::types::{StoreError, StoreResult};
use muppet_slatestore::wal::{RawReplay, WalWriter};

/// First bytes of every segment: magic + format version.
const SEGMENT_HEADER: [u8; 8] = *b"MUPIWAL\x01";
/// A run whose encoding passes this is split into several frames (the
/// wire's `BATCH_SOFT_BYTES`).
pub const FRAME_SOFT_BYTES: usize = 1 << 20;
/// The reader rejects a frame longer than this before allocating for it.
pub const FRAME_HARD_BYTES: usize = 64 << 20;

/// Upper bound on the payload of a frame holding only `event`, and so on
/// what it adds to any frame: its bytes, its stream name should the table
/// lack it, five varints, and the frame's own two.
fn event_bound(event: &Event) -> usize {
    event.key.as_bytes().len() + event.value.len() + event.stream.as_str().len() + 70
}

/// The longest prefix of `events` (at least one) that fits a frame, and
/// its stream table.
fn plan_frame(events: &[Event]) -> (usize, Vec<&str>) {
    let (mut streams, mut bytes) = (Vec::new(), 0);
    for (i, event) in events.iter().enumerate() {
        bytes += event_bound(event);
        if i > 0 && bytes > FRAME_SOFT_BYTES {
            return (i, streams);
        }
        if !streams.contains(&event.stream.as_str()) {
            streams.push(event.stream.as_str());
        }
    }
    (events.len(), streams)
}

/// Append the frame payload of the module doc for `events`, whose every
/// stream is in `streams`.
fn encode_frame(buf: &mut Vec<u8>, events: &[Event], streams: &[&str]) {
    put_varint(buf, events.len() as u64);
    put_varint(buf, streams.len() as u64);
    for stream in streams {
        put_len_prefixed(buf, stream.as_bytes());
    }
    let mut prev_ts = 0u64;
    for event in events {
        let stream = event.stream.as_str();
        // lint: allow(no-unwrap-in-prod) — `plan_frame` put every stream of `events` in `streams`
        let index = streams.iter().position(|s| *s == stream).expect("planned stream");
        put_varint(buf, index as u64);
        put_len_prefixed(buf, event.key.as_bytes());
        let delta = event.ts.wrapping_sub(prev_ts) as i64;
        put_varint(buf, ((delta << 1) ^ (delta >> 63)) as u64);
        prev_ts = event.ts;
        put_len_prefixed(buf, &event.value);
    }
}

/// `n` of a frame payload, without walking it.
fn frame_events(payload: &[u8]) -> Option<u64> {
    let (n, _) = get_varint(payload)?;
    // An event takes at least four bytes: a count that cannot be true is
    // not believed (it would be summed into the watermarks).
    (n >= 1 && n <= payload.len() as u64).then_some(n)
}

/// Decode a frame payload, pushing its events from index `skip` on. `None`
/// if it is not a well-formed frame (`out` may then hold a partial frame).
fn decode_frame(payload: &[u8], skip: u64, out: &mut Vec<Event>) -> Option<()> {
    let mut at = 0;
    let varint = |at: &mut usize| {
        let (value, used) = get_varint(&payload[*at..])?;
        *at += used;
        Some(value)
    };
    let bytes = |at: &mut usize| {
        let (bytes, used) = get_len_prefixed(&payload[*at..])?;
        *at += used;
        Some(bytes)
    };
    let n = frame_events(payload)?;
    varint(&mut at)?;
    let mut streams = Vec::new();
    for _ in 0..varint(&mut at)? {
        streams.push(StreamId::from(std::str::from_utf8(bytes(&mut at)?).ok()?));
    }
    let mut ts = 0u64;
    for i in 0..n {
        let stream = streams.get(usize::try_from(varint(&mut at)?).ok()?)?;
        let key = bytes(&mut at)?;
        let zigzag = varint(&mut at)?;
        ts = ts.wrapping_add((zigzag >> 1) ^ (zigzag & 1).wrapping_neg());
        let value = bytes(&mut at)?;
        if i >= skip {
            out.push(Event::new(stream.clone(), ts, Key::from(key), Bytes::copy_from_slice(value)));
        }
    }
    (at == payload.len()).then_some(())
}

fn invalid_input(msg: String) -> StoreError {
    StoreError::Io(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg))
}

/// What a pass over a segment found.
#[derive(Default)]
struct Scan {
    events: u64,
    frames: u64,
    /// End of the last intact frame; 0 = no header yet (missing or empty
    /// file, or one whose creation died inside the header).
    valid_bytes: u64,
    truncated: bool,
    /// The events at index ≥ the scan's cursor.
    suffix: Vec<Event>,
}

/// Stream the segment at `path` frame by frame, up to event `until`,
/// building only the events at index ≥ `cursor`: a frame wholly below the
/// cursor is counted by its `n` and never walked.
fn scan(path: &Path, cursor: u64, until: u64) -> StoreResult<Scan> {
    let mut found = Scan::default();
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(e.into()),
    };
    let mut header = Vec::new();
    (&file).take(SEGMENT_HEADER.len() as u64).read_to_end(&mut header)?;
    if header != SEGMENT_HEADER {
        if SEGMENT_HEADER.starts_with(&header) {
            return Ok(found);
        }
        return Err(invalid_input(format!(
            "{} is not an ingest WAL segment (no segment header); left untouched",
            path.display()
        )));
    }
    found.valid_bytes = header.len() as u64;
    let mut raw = RawReplay::new(file, FRAME_HARD_BYTES as u32)?;
    while found.events < until {
        let Some(payload) = raw.next_payload()? else { break };
        // An intact checksum over a malformed frame is not a crash's work.
        let malformed =
            || StoreError::Corrupt(format!("{}: malformed ingest frame", path.display()));
        let n = frame_events(payload).ok_or_else(malformed)?;
        if found.events + n > cursor {
            let skip = cursor.saturating_sub(found.events);
            decode_frame(payload, skip, &mut found.suffix).ok_or_else(malformed)?;
        }
        found.events += n;
        found.frames += 1;
        found.valid_bytes = raw.offset();
    }
    found.truncated = raw.torn();
    Ok(found)
}

/// Start a segment at `path`: the header, synced together with the
/// directory entry. Returns the header's length.
fn create_segment(path: &Path) -> StoreResult<u64> {
    audit::blocking_io("ingest wal create");
    std::fs::write(path, SEGMENT_HEADER)?;
    File::open(path)?.sync_all()?;
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    Ok(SEGMENT_HEADER.len() as u64)
}

/// The log's sync step: make everything handed to the OS so far durable.
/// The one seam tests substitute (gate it, count it, fail it).
#[doc(hidden)]
pub type SyncFn = Box<dyn Fn() -> std::io::Result<()> + Send + Sync>;

/// The per-machine ingest WAL with leader-based group commit.
pub struct IngestLog {
    writer: Mutex<WalWriter>,
    sync_fn: SyncFn,
    /// Events handed to the OS. Stored under the writer lock (so it is
    /// monotone), read by sync leaders without it.
    written: AtomicU64,
    /// Events covered by a completed fsync. `durable ≤ written`.
    durable: AtomicU64,
    /// Frames in, and length of, the segment (operator statistics).
    frames: AtomicU64,
    bytes: AtomicU64,
    /// True while a leader is inside the sync step. Its mutex is the
    /// condvar mutex: followers re-check `durable` under it before
    /// parking and leaders publish + notify under it, so a wakeup cannot
    /// fall between a follower's check and its park.
    syncing: Mutex<bool>,
    cv: Condvar,
    failed: AtomicBool,
    sync_each: bool,
    syncs: AtomicU64,
    /// Wall time of every fsync, µs (`stage="wal_sync"`).
    sync_latency: Option<Arc<Histogram>>,
}

/// One reading of an ingest WAL ([`IngestLog::view`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestWalView {
    /// Events logged (and dispatched).
    pub written: u64,
    /// Events an fsync covers; `written − durable` is the un-acked window.
    pub durable: u64,
    /// An I/O error has poisoned the log.
    pub failed: bool,
    /// Fsyncs issued.
    pub syncs: u64,
    /// Bytes in the segment, header included.
    pub bytes: u64,
    /// Frames in the segment.
    pub frames: u64,
}

/// What `IngestLog::open` recovered from an existing segment.
pub struct IngestRecovery {
    path: PathBuf,
    /// Events in the segment's intact frames — its full ingest history.
    pub events: u64,
    /// True if a torn tail was cut back to the last intact frame.
    pub truncated: bool,
}

impl IngestRecovery {
    /// The recovered events past a replay cursor (an event count, which
    /// may land inside a frame), in admission order. Frames wholly below
    /// the cursor are read but never decoded.
    pub fn events_after(&self, cursor: u64) -> StoreResult<Vec<Event>> {
        Ok(scan(&self.path, cursor, self.events)?.suffix)
    }
}

impl IngestLog {
    /// Open (or create) the log at `path`, counting its intact frames.
    /// A torn tail — the signature of a crash mid-append — is truncated
    /// to the last whole frame before the writer is positioned. A
    /// non-empty file that is not an ingest segment is refused, untouched.
    ///
    /// `sync_each` selects fsync-per-event; the default (false) is
    /// group commit, where durability is per-batch.
    pub fn open(
        path: impl AsRef<Path>,
        sync_each: bool,
    ) -> StoreResult<(IngestLog, IngestRecovery)> {
        Self::open_with_sync(path, sync_each, None)
    }

    /// [`IngestLog::open`] with the sync step replaced (`None` = the real
    /// `fdatasync`) — the test seam.
    #[doc(hidden)]
    pub fn open_with_sync(
        path: impl AsRef<Path>,
        sync_each: bool,
        sync_fn: Option<SyncFn>,
    ) -> StoreResult<(IngestLog, IngestRecovery)> {
        let path = path.as_ref();
        let found = scan(path, u64::MAX, u64::MAX)?;
        let valid_bytes = match found.valid_bytes {
            0 => create_segment(path)?,
            valid_bytes => valid_bytes,
        };
        // The inner writer never syncs on its own: every fsync goes
        // through `sync_fn`, on a second handle to the same file.
        let writer = WalWriter::resume(path, false, found.frames, valid_bytes)?;
        let sync_fn = match sync_fn {
            Some(sync_fn) => sync_fn,
            None => {
                let file = writer.sync_handle()?;
                Box::new(move || {
                    audit::blocking_io("ingest wal fsync");
                    file.sync_data()
                })
            }
        };
        let log = IngestLog {
            writer: Mutex::new(writer),
            sync_fn,
            written: AtomicU64::new(found.events),
            durable: AtomicU64::new(found.events),
            frames: AtomicU64::new(found.frames),
            bytes: AtomicU64::new(valid_bytes),
            syncing: Mutex::new(false),
            cv: Condvar::new(),
            failed: AtomicBool::new(false),
            sync_each,
            syncs: AtomicU64::new(0),
            sync_latency: None,
        };
        if found.events > 0 || found.truncated {
            // The previous incarnation may have died between `write` and
            // fsync: the recovered prefix (and the truncation) is in the
            // page cache, not necessarily on disk. `durable = recovered`
            // must be true before anyone reads it.
            log.run_sync()?;
        }
        let recovery = IngestRecovery {
            path: path.to_path_buf(),
            events: found.events,
            truncated: found.truncated,
        };
        Ok((log, recovery))
    }

    /// Record every fsync's wall time (µs) into `hist`. Called by the
    /// engine before the log is shared.
    pub fn record_sync_latency(&mut self, hist: Arc<Histogram>) {
        self.sync_latency = Some(hist);
    }

    /// Append a run of events durably: [`IngestLog::write_batch`] then
    /// [`IngestLog::wait_durable`]. Returns only after the records have
    /// been fsynced — by this thread or by a group-commit leader whose
    /// sync covered them. The whole run shares one fsync (plus whatever
    /// concurrent submitters the same sync covers). This is the
    /// ingest-side twin of the transport outbox's frame coalescing —
    /// sources that hand the engine coalesced runs pay the fsync tax
    /// per *run*, not per event. Under `sync_each` the strawman
    /// semantics stay per-event: one fsync per record, batch or not.
    pub fn append_batch(&self, events: &[Event]) -> StoreResult<()> {
        let seq = self.write_batch(events)?;
        self.wait_durable(seq)
    }

    /// Log a run of events as one frame: encode, `write`, flush to the OS.
    /// Returns the watermark that covers the run — pass it to
    /// [`IngestLog::wait_durable`] before acking. On return the events
    /// survive a process crash (a reopen replays them), not yet a power
    /// loss. Under `sync_each` each event is its own frame and is also
    /// fsynced here, so the returned watermark is already durable.
    pub fn write_batch(&self, events: &[Event]) -> StoreResult<u64> {
        self.check_failed()?;
        if events.iter().any(|event| event_bound(event) > FRAME_HARD_BYTES) {
            // The caller's input, not the disk's failure: nothing is
            // written and the log stays healthy.
            return Err(invalid_input(format!(
                "event exceeds the {FRAME_HARD_BYTES}-byte ingest frame limit"
            )));
        }
        let mut w = self.writer.lock();
        let result = if self.sync_each {
            // Fsync under the writer lock is this mode's definition (one
            // durability line per record) — the log's one sanctioned
            // IO-under-lock window for the lock-audit probe.
            audit::io_allowed(|| {
                events.iter().try_fold(self.record_count(), |_, event| {
                    let seq = self.write_locked(&mut w, std::slice::from_ref(event))?;
                    self.run_sync()?;
                    self.durable.fetch_max(seq, Ordering::AcqRel);
                    Ok(seq)
                })
            })
        } else {
            self.write_locked(&mut w, events)
        };
        result.map_err(|e| self.poison(e))
    }

    /// Encode into the writer's one buffer + one `write` + flush to the
    /// OS, under the writer lock, then advance `written`. Returns the new
    /// watermark.
    fn write_locked(&self, w: &mut WalWriter, events: &[Event]) -> StoreResult<u64> {
        let mut rest = events;
        while !rest.is_empty() {
            let (take, streams) = plan_frame(rest);
            w.stage(|buf| encode_frame(buf, &rest[..take], &streams));
            rest = &rest[take..];
        }
        w.commit()?;
        w.flush()?;
        self.frames.store(w.record_count(), Ordering::Relaxed);
        self.bytes.store(w.byte_count(), Ordering::Relaxed);
        let seq = self.written.load(Ordering::Relaxed) + events.len() as u64;
        self.written.store(seq, Ordering::Release);
        Ok(seq)
    }

    /// Return once an fsync covers the first `seq` events — by leading
    /// one, or by waiting for a leader whose watermark reaches `seq`.
    pub fn wait_durable(&self, seq: u64) -> StoreResult<()> {
        let mut syncing = self.syncing.lock();
        loop {
            if self.durable.load(Ordering::Acquire) >= seq {
                return Ok(());
            }
            self.check_failed()?;
            if *syncing {
                // A leader is inside fsync. Its watermark may or may not
                // reach `seq` (it read `written` before we wrote, or
                // after); re-check when it publishes.
                self.cv.wait(&mut syncing);
                continue;
            }
            // Leader. `written` is read BEFORE the sync: only records the
            // OS held when the sync began are covered by it.
            *syncing = true;
            drop(syncing);
            let covers = self.written.load(Ordering::Acquire);
            let result = self.run_sync();
            syncing = self.syncing.lock();
            *syncing = false;
            if result.is_ok() {
                self.durable.fetch_max(covers, Ordering::AcqRel);
            }
            self.cv.notify_all();
            result?;
        }
    }

    /// Draw an explicit durability line: everything written so far is
    /// fsynced on return. Used by checkpoint/shutdown, before any slate
    /// reaches the store.
    pub fn sync(&self) -> StoreResult<()> {
        self.wait_durable(self.written.load(Ordering::Acquire))
    }

    /// One timed, counted call of the sync step; an error poisons the log.
    fn run_sync(&self) -> StoreResult<()> {
        let t0 = Instant::now();
        let result = (self.sync_fn)();
        self.syncs.fetch_add(1, Ordering::Relaxed);
        if let Some(hist) = &self.sync_latency {
            hist.record(t0.elapsed().as_micros() as u64);
        }
        result.map_err(|e| self.poison(e.into()))
    }

    fn poison(&self, e: StoreError) -> StoreError {
        self.failed.store(true, Ordering::Release);
        e
    }

    fn check_failed(&self) -> StoreResult<()> {
        if self.failed() {
            return Err(StoreError::Io(std::io::Error::other(
                "ingest WAL failed earlier; this node accepts no further ingest",
            )));
        }
        Ok(())
    }

    /// True once a `write` or fsync has failed. Sticky: the node refuses
    /// ingest until it is restarted on a healthy disk.
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Events *written* over the log's lifetime (including the recovered
    /// prefix) — the value a replay cursor checkpoints. It may run ahead
    /// of [`IngestLog::durable_count`] by the frames inside their fsync
    /// window, so a cursor must only be taken from it after
    /// [`IngestLog::sync`].
    pub fn record_count(&self) -> u64 {
        self.written.load(Ordering::Acquire)
    }

    /// Events covered by a completed fsync.
    pub fn durable_count(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    /// Frames in the segment (recovered prefix included). Events ÷ frames
    /// near 1 means the source is not batching.
    pub fn frame_count(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Length of the segment in bytes (header and recovered prefix
    /// included).
    pub fn byte_count(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Fsyncs issued since open. Group commit keeps this well below
    /// `record_count` under concurrency.
    pub fn sync_count(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// The log's counters, read once.
    pub fn view(&self) -> IngestWalView {
        IngestWalView {
            written: self.record_count(),
            durable: self.durable_count(),
            failed: self.failed(),
            syncs: self.sync_count(),
            bytes: self.byte_count(),
            frames: self.frame_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_core::codec::crc32c;
    use muppet_slatestore::types::{Cell, CellKey};
    use muppet_slatestore::util::TempDir;
    use proptest::prelude::*;
    use std::sync::{mpsc, OnceLock, Weak};
    use std::time::Duration;

    fn ev(i: u64) -> Event {
        Event::new("clicks", 1_000 + i, format!("user-{i}").into(), format!("payload-{i}"))
    }

    /// A log whose sync step does nothing (the sweeps reopen hundreds of times).
    fn open_unsynced(path: &Path) -> (IngestLog, IngestRecovery) {
        IngestLog::open_with_sync(path, false, Some(Box::new(|| Ok(())))).unwrap()
    }

    /// Everything a fresh open of `path` replays, and whether it cut a tail.
    fn replay_all(path: &Path) -> (Vec<Event>, bool) {
        let (_, rec) = open_unsynced(path);
        let events = rec.events_after(0).unwrap();
        assert_eq!(events.len() as u64, rec.events);
        (events, rec.truncated)
    }

    #[test]
    fn a_frame_has_the_documented_byte_layout() {
        let dir = TempDir::new("ingest").unwrap();
        let path = dir.file("layout.wal");
        let (log, _) = IngestLog::open(&path, false).unwrap();
        log.append_batch(&[
            Event::new("clicks", 1_000, Key::from("a"), "xy"),
            Event::new("views", 1_003, Key::from(""), ""),
            Event::new("clicks", 999, Key::from(vec![0u8, 255]), "z"),
        ])
        .unwrap();
        #[rustfmt::skip]
        let payload: Vec<u8> = [
            &[3u8][..],                                   // n
            &[2, 6], b"clicks", &[5], b"views",           // stream table
            &[0, 1], b"a", &[0xd0, 0x0f], &[2], b"xy",    // zigzag(+1000) = 2000
            &[1, 0, 6, 0],                                // zigzag(+3) = 6, empty key and value
            &[0, 2, 0, 255, 7, 1], b"z",                  // zigzag(-4) = 7
        ]
        .concat();
        let mut expected = b"MUPIWAL\x01".to_vec();
        expected.extend_from_slice(&crc32c(&payload).to_le_bytes());
        expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        expected.extend_from_slice(&payload);
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        assert_eq!((log.record_count(), log.frame_count()), (3, 1));
        assert_eq!(log.byte_count(), expected.len() as u64);

        // What the layout buys: the counter shape (short keys, unit values,
        // adjacent timestamps) in 64-event frames costs at most 10 B/event,
        // segment and frame headers included, and the bytes are a function
        // of the run alone.
        let counters: Vec<Event> = (0..6_400u64)
            .map(|i| Event::new("zipf_counts", i + 1, format!("k{}", i * 7919 % 500).into(), "1"))
            .collect();
        let [first, again] = ["first.wal", "again.wal"].map(|name| {
            let (log, _) = open_unsynced(&dir.file(name));
            for run in counters.chunks(64) {
                log.write_batch(run).unwrap();
            }
            std::fs::read(dir.file(name)).unwrap()
        });
        assert!(first.len() <= 10 * counters.len(), "{} B for 6400 events", first.len());
        assert_eq!(first, again);
    }

    #[test]
    fn a_singleton_frame_costs_at_most_two_bytes_more_than_the_cell_record_did() {
        let dir = TempDir::new("ingest").unwrap();
        for event in [ev(0), Event::new("S", u64::MAX, Key::from(""), ""), ev(1 << 40)] {
            let mut frame = Vec::new();
            encode_frame(&mut frame, std::slice::from_ref(&event), &[event.stream.as_str()]);
            let mut cells = WalWriter::create(dir.file("cell.wal"), false).unwrap();
            let key = CellKey::new(event.key.as_bytes(), event.stream.as_str());
            cells.append(&key, &Cell::live(event.value.clone(), event.ts, None)).unwrap();
            assert!(8 + frame.len() as u64 <= cells.byte_count() + 2);
        }
    }

    fn arb_event() -> impl Strategy<Value = Event> {
        let bytes = || proptest::collection::vec(any::<u8>(), 0..12);
        // Timestamps cluster (small deltas either way) or jump anywhere,
        // the ends of the range included.
        let ts = prop_oneof![1_000u64..1_064, any::<u64>(), 0u64..2, (u64::MAX - 1)..=u64::MAX];
        (0usize..3, ts, bytes(), bytes()).prop_map(|(stream, ts, key, value)| {
            Event::new(["S1", "clicks", "ünï/ço∂é"][stream], ts, Key::from(key), value)
        })
    }

    proptest! {
        #[test]
        fn runs_round_trip_losslessly_and_in_order(
            runs in proptest::collection::vec(proptest::collection::vec(arb_event(), 1..40), 1..6),
            cursor in 0usize..200,
        ) {
            let dir = TempDir::new("ingest-prop").unwrap();
            let path = dir.file("prop.wal");
            let (log, _) = open_unsynced(&path);
            for run in &runs {
                log.write_batch(run).unwrap();
            }
            let all: Vec<Event> = runs.concat();
            prop_assert_eq!((log.record_count(), log.frame_count()), (all.len() as u64, runs.len() as u64));
            drop(log);
            let (log, rec) = open_unsynced(&path);
            prop_assert!(!rec.truncated);
            prop_assert_eq!((rec.events, log.frame_count()), (all.len() as u64, runs.len() as u64));
            // `Event: Eq` covers stream, ts, key, value (and seq, 0 on both sides).
            prop_assert_eq!(&rec.events_after(0).unwrap(), &all);
            // A cursor anywhere — inside a frame, or past the end — skips exactly that many.
            prop_assert_eq!(&rec.events_after(cursor as u64).unwrap()[..], &all[cursor.min(all.len())..]);
        }

        #[test]
        fn the_decoder_never_panics_on_hostile_payloads(
            noise in proptest::collection::vec(any::<u8>(), 0..64),
            run in proptest::collection::vec(arb_event(), 1..6),
            damage in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
            skip in 0u64..8,
        ) {
            let _ = decode_frame(&noise, skip, &mut Vec::new());
            let mut frame = Vec::new();
            encode_frame(&mut frame, &run, &plan_frame(&run).1);
            for (at, byte) in damage {
                let at = at as usize % frame.len();
                frame[at] = byte;
            }
            let mut out = Vec::new();
            if decode_frame(&frame, 0, &mut out).is_some() {
                prop_assert_eq!(out.len(), frame_events(&frame).unwrap() as usize);
            }
        }
    }

    #[test]
    fn ts_wraps_through_both_ends_of_the_range() {
        let run: Vec<Event> = [u64::MAX, 0, u64::MAX, 1 << 63, (1 << 63) - 1, 0]
            .into_iter()
            .map(|ts| Event::new("S1", ts, Key::from("k"), "v"))
            .collect();
        let mut frame = Vec::new();
        encode_frame(&mut frame, &run, &["S1"]);
        let mut back = Vec::new();
        decode_frame(&frame, 0, &mut back).unwrap();
        assert_eq!(back, run);
    }

    #[test]
    fn a_run_past_the_soft_cap_is_split_into_several_frames() {
        let dir = TempDir::new("ingest").unwrap();
        let path = dir.file("split.wal");
        let run: Vec<Event> = (0..10_000u64)
            .map(|i| Event::new("S1", i, Key::from(format!("k{i}")), vec![i as u8; 300]))
            .collect();
        let (log, _) = open_unsynced(&path);
        log.append_batch(&run).unwrap();
        let frames = log.frame_count();
        assert!((3..=5).contains(&frames), "≈ 3.5 MB over a 1 MiB cap, got {frames} frames");
        assert!(log.byte_count() / frames < (FRAME_SOFT_BYTES + 1_000) as u64);
        assert_eq!(log.record_count(), 10_000, "the watermark counts events, not frames");
        drop(log);
        let (events, truncated) = replay_all(&path);
        assert!(!truncated);
        assert_eq!(events, run);
    }

    #[test]
    fn an_event_no_frame_can_hold_is_refused_and_the_log_stays_healthy() {
        let dir = TempDir::new("ingest").unwrap();
        let (log, _) = open_unsynced(&dir.file("big.wal"));
        let big = Event::new("S1", 0, Key::from("k"), vec![0u8; FRAME_HARD_BYTES]);
        assert!(log.write_batch(&[ev(0), big]).is_err());
        assert!(!log.failed());
        assert_eq!((log.record_count(), log.frame_count()), (0, 0), "nothing of the run is logged");
        log.append_batch(&[ev(1)]).unwrap();
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let dir = TempDir::new("ingest").unwrap();
        let path = dir.file("ingest.wal");
        {
            let (log, rec) = IngestLog::open(&path, true).unwrap();
            assert_eq!(rec.events, 0);
            let run: Vec<Event> = (0..10).map(ev).collect();
            log.append_batch(&run).unwrap();
            assert_eq!(log.record_count(), 10);
            assert_eq!(
                (log.frame_count(), log.sync_count()),
                (10, 10),
                "sync_each: a frame and an fsync per event, batch or not"
            );
        }
        let (log, rec) = IngestLog::open(&path, true).unwrap();
        assert!(!rec.truncated);
        assert_eq!(rec.events_after(0).unwrap(), (0..10).map(ev).collect::<Vec<_>>());
        assert_eq!(
            (log.record_count(), log.durable_count(), log.frame_count()),
            (10, 10, 10),
            "the writer continues from the recovered prefix"
        );
    }

    /// The files this flag has been pointed at by mistake: each is refused
    /// and left byte-identical.
    #[test]
    fn a_file_without_the_segment_header_is_refused_and_left_untouched() {
        let dir = TempDir::new("ingest").unwrap();
        let cells = |path: &Path, records: Vec<(CellKey, Cell)>| {
            let mut w = WalWriter::create(path, false).unwrap();
            w.append_many(&records).unwrap();
            w.flush().unwrap();
        };
        let store_wal = dir.file("store.wal");
        cells(&store_wal, vec![(CellKey::new("row", "U1"), Cell::live("slate", 7, Some(60)))]);
        // The pre-frame ingest format: one cell record per event.
        let old_log = dir.file("old-ingest.wal");
        cells(
            &old_log,
            (0..5)
                .map(ev)
                .map(|e| {
                    (CellKey::new(e.key.as_bytes(), "clicks"), Cell::live(e.value, e.ts, None))
                })
                .collect(),
        );
        let garbage = dir.file("garbage");
        std::fs::write(&garbage, b"MUPIWAL\x02 a later format").unwrap();
        for path in [&store_wal, &old_log, &garbage] {
            let before = std::fs::read(path).unwrap();
            let Err(err) = IngestLog::open(path, false) else { panic!("{path:?} was accepted") };
            assert!(err.to_string().contains(path.to_str().unwrap()), "{err}");
            assert_eq!(std::fs::read(path).unwrap(), before);
        }
    }

    #[test]
    fn a_segment_whose_creation_died_inside_the_header_starts_over() {
        let dir = TempDir::new("ingest").unwrap();
        for len in 0..SEGMENT_HEADER.len() {
            let path = dir.file(&format!("partial-{len}.wal"));
            std::fs::write(&path, &SEGMENT_HEADER[..len]).unwrap();
            let (log, rec) = IngestLog::open(&path, false).unwrap();
            assert_eq!((rec.events, rec.truncated), (0, false));
            log.append_batch(&[ev(0)]).unwrap();
            drop(log);
            assert_eq!(replay_all(&path), (vec![ev(0)], false));
        }
    }

    /// Three frames (3, 4 and 2 events, the middle one over two streams):
    /// the file's bytes and the offset each frame ends at.
    fn three_frames(dir: &TempDir) -> (Vec<u8>, [usize; 3], [Vec<Event>; 3]) {
        let path = dir.file("three.wal");
        let (log, _) = open_unsynced(&path);
        let mut b: Vec<Event> = (3..7).map(ev).collect();
        b[2].stream = "views".into();
        let runs = [(0..3).map(ev).collect(), b, (7..9).map(ev).collect::<Vec<_>>()];
        let ends = runs.each_ref().map(|run| {
            log.write_batch(run).unwrap();
            log.byte_count() as usize
        });
        (std::fs::read(&path).unwrap(), ends, runs)
    }

    #[test]
    fn a_cut_at_every_offset_of_the_last_two_frames_loses_exactly_the_cut_frames() {
        let dir = TempDir::new("ingest-torn").unwrap();
        let (data, ends, runs) = three_frames(&dir);
        let path = dir.file("cut.wal");
        for cut in ends[0]..ends[2] {
            std::fs::write(&path, &data[..cut]).unwrap();
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            let boundary = ends[whole - 1];
            let mut expected = runs[..whole].concat();
            let (log, rec) = open_unsynced(&path);
            assert_eq!(rec.truncated, cut != boundary, "cut at {cut}");
            assert_eq!(rec.events_after(0).unwrap(), expected, "cut at {cut}");
            assert_eq!(
                (log.record_count(), log.frame_count(), log.byte_count()),
                (expected.len() as u64, whole as u64, boundary as u64),
                "cut at {cut}"
            );
            // The reopened log appends on the boundary ...
            log.write_batch(&[ev(99)]).unwrap();
            drop(log);
            assert_eq!(std::fs::read(&path).unwrap()[..boundary], data[..boundary]);
            // ... and a third open is clean.
            expected.push(ev(99));
            assert_eq!(replay_all(&path), (expected, false), "cut at {cut}");
        }
    }

    #[test]
    fn a_flipped_bit_anywhere_in_a_frame_drops_it_and_everything_after() {
        let dir = TempDir::new("ingest-flip").unwrap();
        let (data, ends, runs) = three_frames(&dir);
        let path = dir.file("flip.wal");
        for bit in ends[0] * 8..ends[1] * 8 {
            let mut damaged = data.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &damaged).unwrap();
            // A flipped length may still frame bytes whose checksum fails:
            // either way nothing of frame two or three comes back.
            let (events, truncated) = replay_all(&path);
            assert!(truncated, "bit {bit}");
            assert_eq!(events, runs[0], "bit {bit}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), ends[0] as u64);
        }
    }

    #[test]
    fn a_hostile_length_is_a_torn_tail() {
        let dir = TempDir::new("ingest").unwrap();
        let path = dir.file("hostile.wal");
        for len in [u32::MAX, FRAME_HARD_BYTES as u32 + 1] {
            let mut data = SEGMENT_HEADER.to_vec();
            data.extend_from_slice(&[0; 4]);
            data.extend_from_slice(&len.to_le_bytes());
            data.extend_from_slice(b"not four gigabytes");
            std::fs::write(&path, &data).unwrap();
            assert_eq!(replay_all(&path), (vec![], true));
            assert_eq!(std::fs::read(&path).unwrap(), SEGMENT_HEADER);
        }
    }

    #[test]
    fn replay_decodes_only_the_frames_the_cursor_does_not_cover() {
        let dir = TempDir::new("ingest").unwrap();
        let path = dir.file("long.wal");
        let (log, _) = open_unsynced(&path);
        // 3 124 frames that pass their checksum, claim 64 events each and
        // decode as nothing: whoever walks one fails.
        let mut opaque = vec![0xff; 300];
        opaque[0] = 64;
        {
            let mut w = log.writer.lock();
            for _ in 0..3_124 {
                w.stage(|buf| buf.extend_from_slice(&opaque));
            }
            w.commit().unwrap();
            w.flush().unwrap();
        }
        let last: Vec<Event> = (0..64).map(ev).collect();
        drop(log);
        let (log, rec) = open_unsynced(&path);
        assert_eq!((rec.events, log.frame_count()), (199_936, 3_124), "counted by their `n`");
        log.write_batch(&last).unwrap();
        drop(log);
        let (_, rec) = open_unsynced(&path);
        assert_eq!(rec.events, 200_000);
        // The cursor sits on the last frame's first event: that frame is
        // decoded, none of the 3 124 below it is so much as walked.
        assert_eq!(rec.events_after(199_936).unwrap(), last);
        // Ten events into it, the frame is decoded and its head skipped.
        assert_eq!(rec.events_after(199_946).unwrap(), last[10..]);
        assert!(rec.events_after(200_000).unwrap().is_empty());
        // One event lower, and the frame below has to be read.
        assert!(rec.events_after(199_935).is_err());
    }

    /// A sync seam that reports each entry on the returned receiver and
    /// then blocks until the test sends one token down the returned sender.
    fn gated_sync() -> (SyncFn, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let sync: SyncFn = Box::new(move || {
            entered_tx.send(()).unwrap();
            gate_rx.lock().recv().map_err(std::io::Error::other)
        });
        (sync, entered_rx, gate_tx)
    }

    #[test]
    fn logged_records_replay_while_the_sync_is_still_running() {
        let dir = TempDir::new("ingest").unwrap();
        let path = dir.file("logged.wal");
        let (sync, entered, gate) = gated_sync();
        let (log, _) = IngestLog::open_with_sync(&path, false, Some(sync)).unwrap();
        let events: Vec<Event> = (0..8).map(ev).collect();
        let seq = log.write_batch(&events).unwrap();
        assert_eq!((seq, log.record_count(), log.durable_count()), (8, 8, 0));
        std::thread::scope(|s| {
            let waiter = s.spawn(|| log.wait_durable(seq));
            entered.recv().unwrap();
            // The leader is inside the sync step; what a process crash
            // would leave behind already replays in full.
            let replayed = scan(&path, 0, u64::MAX).unwrap();
            assert_eq!(replayed.suffix, events);
            assert!(!replayed.truncated);
            assert_eq!(log.durable_count(), 0, "nothing is acked before the sync returns");
            assert!(!waiter.is_finished());
            gate.send(()).unwrap();
            waiter.join().unwrap().unwrap();
        });
        assert_eq!((log.durable_count(), log.sync_count()), (8, 1));
    }

    #[test]
    fn concurrent_appends_share_syncs_and_never_ack_past_what_was_synced() {
        let dir = TempDir::new("ingest").unwrap();
        // The seam sees the log through a slot filled after `open`. At
        // entry k it reads `written` (W_k): the leader read its own
        // watermark before calling the seam, so what sync k publishes is
        // ≤ W_k — and syncs are serial, so entry k+1 observes exactly
        // what sync k published.
        let slot: Arc<OnceLock<Weak<IngestLog>>> = Arc::new(OnceLock::new());
        let violations = Arc::new(AtomicU64::new(0));
        let last_written = AtomicU64::new(0);
        let sync: SyncFn = {
            let (slot, violations) = (Arc::clone(&slot), Arc::clone(&violations));
            Box::new(move || {
                let log = slot.get().and_then(Weak::upgrade).expect("log is open");
                let written_now = log.record_count();
                if log.durable_count() > last_written.swap(written_now, Ordering::SeqCst) {
                    violations.fetch_add(1, Ordering::SeqCst);
                }
                std::thread::yield_now(); // let writers in while "syncing"
                Ok(())
            })
        };
        let (log, _) = IngestLog::open_with_sync(dir.file("group.wal"), false, Some(sync)).unwrap();
        let log = Arc::new(log);
        slot.set(Arc::downgrade(&log)).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let log = &log;
                s.spawn(move || {
                    for i in 0..50 {
                        // `append_batch`, with its watermark kept.
                        let seq = log.write_batch(&[ev(t * 50 + i)]).unwrap();
                        log.wait_durable(seq).unwrap();
                        assert!(log.durable_count() >= seq, "returned before durable");
                    }
                });
            }
        });
        assert_eq!((log.record_count(), log.durable_count()), (200, 200));
        assert!((1..=200).contains(&log.sync_count()), "never worse than sync-per-call");
        assert_eq!(violations.load(Ordering::SeqCst), 0, "acked past a sync's coverage");
    }

    #[test]
    fn a_submitter_arriving_mid_sync_writes_at_once_and_is_covered_by_the_next_sync() {
        let dir = TempDir::new("ingest").unwrap();
        let (sync, entered, gate) = gated_sync();
        let (log, _) = IngestLog::open_with_sync(dir.file("mid.wal"), false, Some(sync)).unwrap();
        let log = &log;
        let first = log.write_batch(&[ev(0)]).unwrap();
        std::thread::scope(|s| {
            let leader = s.spawn(|| log.wait_durable(first));
            entered.recv().unwrap();
            // Sync 1 is running and the writer lock is free: this returns
            // while the gate is still closed.
            let second = log.write_batch(&[ev(1)]).unwrap();
            assert_eq!((second, log.record_count(), log.durable_count()), (2, 2, 0));
            let follower = s.spawn(move || log.wait_durable(second));
            gate.send(()).unwrap();
            leader.join().unwrap().unwrap();
            // Sync 1 began before record 2 was written, so it must not
            // cover it: the follower has to lead sync 2.
            entered.recv_timeout(Duration::from_secs(10)).expect("no second sync was led");
            assert_eq!(log.durable_count(), 1, "the running sync covered a later write");
            assert!(!follower.is_finished());
            gate.send(()).unwrap();
            follower.join().unwrap().unwrap();
        });
        assert_eq!((log.durable_count(), log.sync_count()), (2, 2));
    }

    #[test]
    fn a_failed_sync_poisons_the_log() {
        let dir = TempDir::new("ingest").unwrap();
        let path = dir.file("poison.wal");
        let fail = Arc::new(AtomicBool::new(false));
        let sync: SyncFn = {
            let fail = Arc::clone(&fail);
            Box::new(move || match fail.load(Ordering::SeqCst) {
                true => Err(std::io::Error::other("injected fsync failure")),
                false => Ok(()),
            })
        };
        let (log, _) = IngestLog::open_with_sync(&path, false, Some(sync)).unwrap();
        log.append_batch(&[ev(0)]).unwrap();
        fail.store(true, Ordering::SeqCst);
        assert!(log.append_batch(&[ev(1)]).is_err(), "the failed sync is this call's error");
        assert!(log.failed());
        assert_eq!((log.record_count(), log.durable_count()), (2, 1));
        // Sticky, even once the disk "recovers": nothing new is written,
        // nothing un-synced is ever acked.
        fail.store(false, Ordering::SeqCst);
        assert!(log.write_batch(&[ev(2)]).is_err());
        assert!(log.wait_durable(2).is_err());
        assert!(log.sync().is_err());
        assert_eq!(log.record_count(), 2);
        log.wait_durable(1).expect("what a good sync covered stays acked");
    }
}

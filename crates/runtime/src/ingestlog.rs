//! Ingest write-ahead log — durability for *accepted but unprocessed*
//! events. DESIGN.md §11 has the reasoning, the crash table and the
//! measurements.
//!
//! Muppet's §4.3 protocol shrugs at a dead machine's in-flight work; at
//! production scale that is unacceptable, so each `muppetd` writes every
//! event it accepts from sources to a per-machine WAL. A restarted node
//! replays the events past its replay cursor (see `Engine::checkpoint`)
//! and converges to bit-identical slates.
//!
//! ## Segments and frames
//!
//! The log is a run of segments. The live one sits at the configured
//! path; [`IngestLog::rotate`] seals it beside that path as
//! `<path>.<base>` and starts the next one at the log's end, and
//! [`IngestLog::release_below`] deletes the sealed segments a stored
//! cursor covers. Events are numbered from the start of the log, across
//! segments; a segment's header records the number of its first event
//! (its *base*), and a replay cursor is always a base. One
//! [`IngestLog::write_batch`] call writes one **frame**: one record of
//! `slatestore::wal`'s raw layer (which owns crc, length and torn tails)
//! whose payload spells each stream name once and each `ts` as a delta.
//! `seq` is not stored: replay re-admits in log order, which reassigns it.
//!
//! ```text
//! segment := header frame*
//! header  := "MUPIWAL" [u8 format version = 2] [u64 LE base]
//! frame   := [u32 crc32c over payload][u32 payload_len][payload]
//! payload := [varint n]                               events in the frame, ≥ 1
//!            [varint s] s × [len-prefixed stream name]   in order of first use
//!            n × ( [varint stream index][len-prefixed key]
//!                  [varint zigzag(ts − previous ts, wrapping; the first from 0)]
//!                  [len-prefixed value] )
//! ```
//!
//! **A frame is atomic**: torn or corrupt, it is dropped whole with
//! everything after it and the live file is cut back to the last intact
//! frame — a `submit_many` is in the log entirely or not at all. Only a
//! run past [`FRAME_SOFT_BYTES`] is split. **The header guards the path**:
//! a non-empty file without it (a store file, a log of format 1) is
//! refused and left untouched, where a torn-tail reading would have
//! emptied it.
//!
//! ## Logged, then durable
//!
//! An event crosses two lines, tracked by two watermarks (both count
//! events since the start of the log, whatever the frames):
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
//! fsync: the sync step runs on second handles to the files (fsync is
//! per inode). A caller whose records are not yet durable either
//! becomes the **leader** — nobody is syncing: read `written`, sync,
//! publish `durable =` the value read, wake everyone — or parks until a
//! leader's watermark covers it. The leader must read `written` *before*
//! its sync: a record written while the sync runs may not be covered by
//! it, so publishing a later value would ack records a power loss can
//! still take. For the same reason the step syncs every sealed segment
//! whose tail no step has covered yet, not only the live file: a
//! rotation may have sealed records the value read counts. `sync_each`
//! mode writes and fsyncs event by event (frames of one) under the writer
//! lock — the expensive arm DESIGN.md §11 measures.
//!
//! ## Failure
//!
//! A failed `write`, fsync or rotation poisons the log
//! ([`IngestLog::failed`]): that call and every later one return `Err`.
//! After a failed fsync the kernel may have dropped the dirty pages, so
//! nothing written since the last good sync can be trusted to ever reach
//! the disk; refusing ingest is the only honest answer.

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

/// First bytes of every segment: magic + format version. The base
/// follows as a little-endian `u64`.
const MAGIC: [u8; 8] = *b"MUPIWAL\x02";
/// Length of a segment header.
const HEADER_LEN: u64 = 16;
/// A run whose encoding passes this is split into several frames (the
/// wire's `BATCH_SOFT_BYTES`).
pub const FRAME_SOFT_BYTES: usize = 1 << 20;
/// The reader rejects a frame longer than this before allocating for it.
pub const FRAME_HARD_BYTES: usize = 64 << 20;

/// The header of a segment whose first event is number `base`.
fn segment_header(base: u64) -> [u8; HEADER_LEN as usize] {
    let mut header = [0; HEADER_LEN as usize];
    header[..MAGIC.len()].copy_from_slice(&MAGIC);
    header[MAGIC.len()..].copy_from_slice(&base.to_le_bytes());
    header
}

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

/// Decode a frame payload, pushing its events. `None` if it is not a
/// well-formed frame (`out` may then hold a partial frame). Every count is
/// walked, never allocated for: a lying one runs out of payload.
fn decode_frame(payload: &[u8], out: &mut Vec<Event>) -> Option<()> {
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
    let n = varint(&mut at)?;
    let mut streams = Vec::new();
    for _ in 0..varint(&mut at)? {
        streams.push(StreamId::from(std::str::from_utf8(bytes(&mut at)?).ok()?));
    }
    let mut ts = 0u64;
    for _ in 0..n {
        let stream = streams.get(usize::try_from(varint(&mut at)?).ok()?)?;
        let key = bytes(&mut at)?;
        let zigzag = varint(&mut at)?;
        ts = ts.wrapping_add((zigzag >> 1) ^ (zigzag & 1).wrapping_neg());
        let value = bytes(&mut at)?;
        out.push(Event::new(stream.clone(), ts, Key::from(key), Bytes::copy_from_slice(value)));
    }
    (at == payload.len()).then_some(())
}

fn invalid_input(msg: String) -> StoreError {
    StoreError::Io(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg))
}

/// One segment: as a scan found it, or, once sealed, as it sits on disk
/// (its events are then the recovery's, not kept).
#[derive(Default)]
struct Segment {
    path: PathBuf,
    base: u64,
    events: Vec<Event>,
    frames: u64,
    /// End of the last intact frame.
    valid_bytes: u64,
    truncated: bool,
}

impl Segment {
    /// One past the number of its last event.
    fn end(&self) -> u64 {
        self.base + self.events.len() as u64
    }
}

/// Read and decode the segment at `path` frame by frame. `None` if it has
/// no complete header: a missing or empty file, or one whose creation
/// died inside the header.
fn scan(path: &Path) -> StoreResult<Option<Segment>> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut header = Vec::new();
    (&file).take(HEADER_LEN).read_to_end(&mut header)?;
    let Some(base) = header.strip_prefix(&MAGIC).and_then(|base| base.try_into().ok()) else {
        if header.len() < HEADER_LEN as usize && MAGIC.starts_with(&header[..header.len().min(8)]) {
            return Ok(None);
        }
        let path = path.display();
        return Err(invalid_input(format!(
            "{path} is not an ingest WAL segment (no segment header); left untouched"
        )));
    };
    let base = u64::from_le_bytes(base);
    let mut found =
        Segment { path: path.into(), base, valid_bytes: HEADER_LEN, ..Segment::default() };
    let mut raw = RawReplay::new(file, FRAME_HARD_BYTES as u32)?;
    while let Some(payload) = raw.next_payload()? {
        // An intact checksum over a malformed frame is not a crash's work.
        decode_frame(payload, &mut found.events).ok_or_else(|| {
            StoreError::Corrupt(format!("{}: malformed ingest frame", path.display()))
        })?;
        found.frames += 1;
        found.valid_bytes = raw.offset();
    }
    found.truncated = raw.torn();
    Ok(Some(found))
}

/// The directory the segments of the log at `path` sit in.
fn dir_of(path: &Path) -> &Path {
    path.parent().filter(|dir| !dir.as_os_str().is_empty()).unwrap_or(Path::new("."))
}

/// Make the directory entries of the log at `path` durable: a created,
/// renamed or deleted segment.
fn sync_dir(path: &Path) -> std::io::Result<()> {
    audit::blocking_io("ingest wal directory fsync");
    File::open(dir_of(path))?.sync_all()
}

/// Where the live segment at `path` goes when it is sealed: beside it, as
/// `<name>.<base>`.
fn sealed_path(path: &Path, base: u64) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{base}"));
    path.with_file_name(name)
}

/// The log's sync step over the files it covers — the sealed segments no
/// step has synced yet, then the live one: make everything handed to the
/// OS so far durable. The one seam tests substitute (gate it, count it,
/// fail it, see what it covers).
#[doc(hidden)]
pub type SyncFn = Box<dyn Fn(&[&File]) -> std::io::Result<()> + Send + Sync>;

/// The per-machine ingest WAL with leader-based group commit.
pub struct IngestLog {
    /// The live segment's path; sealed segments sit beside it.
    path: PathBuf,
    /// The live segment's writer.
    writer: Mutex<WalWriter>,
    /// What a sync step covers and which segments are on disk. Taken
    /// after `writer` when both are held.
    files: Mutex<Files>,
    /// `None` = `fdatasync` the files.
    sync_fn: Option<SyncFn>,
    /// Events handed to the OS. Stored under the writer lock (so it is
    /// monotone), read by sync leaders without it.
    written: AtomicU64,
    /// Events covered by a completed fsync. `durable ≤ written`.
    durable: AtomicU64,
    /// Frames and bytes written since open plus the retained prefix found
    /// at open (operator statistics, monotone whatever is deleted).
    frames: AtomicU64,
    bytes: AtomicU64,
    /// Bytes of the segments deleted since open.
    released: AtomicU64,
    /// The last cursor handed to [`IngestLog::release_below`].
    cursor: AtomicU64,
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

/// The files behind an [`IngestLog`].
struct Files {
    /// A second handle to the live segment, for the sync step.
    live: Arc<File>,
    live_base: u64,
    /// Sealed segments whose tail no sync step has covered yet.
    unsynced: Vec<Arc<File>>,
    /// Sealed segments on disk, oldest first.
    sealed: Vec<Segment>,
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
    /// Bytes written since open plus the retained prefix found at open,
    /// headers included: monotone, whatever a checkpoint deletes.
    pub bytes: u64,
    /// Frames, counted like `bytes`.
    pub frames: u64,
    /// Bytes in the segments on disk.
    pub retained_bytes: u64,
    /// Segments on disk, the live one included.
    pub segments: u64,
    /// The last replay cursor the store accepted (0 before the first).
    pub cursor: u64,
}

/// What `IngestLog::open` recovered: every retained segment, decoded.
pub struct IngestRecovery {
    /// Each retained segment's base and events, oldest first.
    segments: Vec<(u64, Vec<Event>)>,
    /// The log's end: one past the number of its last event.
    pub events: u64,
    /// True if a torn tail was found (the live segment's is cut back to
    /// the last intact frame).
    pub truncated: bool,
}

impl IngestRecovery {
    /// The recovered events from a replay cursor on, in admission order.
    /// The cursor must be a retained segment's base or the log's end; any
    /// other value means the store and the log disagree and is refused.
    pub fn events_after(self, cursor: u64) -> StoreResult<Vec<Event>> {
        let bases: Vec<u64> = self.segments.iter().map(|(base, _)| *base).collect();
        if cursor != self.events && !bases.contains(&cursor) {
            return Err(invalid_input(format!(
                "replay cursor {cursor} is neither a retained segment's base {bases:?} nor the \
                 log's end {}: the store and the ingest WAL disagree",
                self.events
            )));
        }
        let retained = self.segments.into_iter().filter(|(base, _)| *base >= cursor);
        Ok(retained.flat_map(|(_, events)| events).collect())
    }
}

impl IngestLog {
    /// Open (or create) the log whose live segment is at `path`, decoding
    /// every retained segment. A torn tail of the live segment — the
    /// signature of a crash mid-append — is truncated to the last whole
    /// frame before the writer is positioned. A non-empty file that is
    /// not an ingest segment is refused, untouched.
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
        let live = scan(path)?;
        let mut sealed = Vec::new();
        let prefix = format!("{}.", path.file_name().unwrap_or_default().to_string_lossy());
        for entry in std::fs::read_dir(dir_of(path))? {
            let at = entry?.path();
            let name = at.file_name().unwrap_or_default().to_string_lossy();
            if name.strip_prefix(&prefix).is_none_or(|base| base.parse::<u64>().is_err()) {
                continue;
            }
            match scan(&at)? {
                Some(segment) => {
                    // The previous life may have died before syncing its tail.
                    File::open(&at)?.sync_data()?;
                    sealed.push(segment);
                }
                // Its header never reached the disk, so no sync covered
                // it: it holds nothing that was acked.
                None => std::fs::remove_file(&at)?,
            }
        }
        sealed.sort_by_key(|segment| segment.base);
        let sealed_end = sealed.last().map_or(0, Segment::end);
        let (writer, mut live) = match live {
            Some(live) => (WalWriter::resume(path, false, live.frames, live.valid_bytes)?, live),
            // A fresh log, or a crash before the live segment's header
            // reached the disk: it starts where the sealed ones end, its
            // header synced with its directory entry.
            None => {
                let mut writer = WalWriter::resume(path, false, 0, 0)?;
                writer.write_raw(&segment_header(sealed_end))?;
                writer.sync()?;
                sync_dir(path)?;
                (
                    writer,
                    Segment { base: sealed_end, valid_bytes: HEADER_LEN, ..Segment::default() },
                )
            }
        };
        let all = || sealed.iter().chain([&live]);
        if all().zip(all().skip(1)).any(|(segment, next)| next.base < segment.end()) {
            let msg = format!("{}: ingest WAL segments overlap", path.display());
            return Err(StoreError::Corrupt(msg));
        }
        let (end, truncated) = (live.end(), all().any(|segment| segment.truncated));
        let recovered = all().any(|segment| !segment.events.is_empty());
        let (frames, bytes) = (all().map(|s| s.frames).sum(), all().map(|s| s.valid_bytes).sum());
        let segments = sealed.iter_mut().chain([&mut live]);
        let segments = segments.map(|s| (s.base, std::mem::take(&mut s.events))).collect();
        let files = Files {
            live: Arc::new(writer.sync_handle()?),
            live_base: live.base,
            unsynced: Vec::new(),
            sealed,
        };
        let log = IngestLog {
            path: path.to_path_buf(),
            writer: Mutex::new(writer),
            files: Mutex::new(files),
            sync_fn,
            written: AtomicU64::new(end),
            durable: AtomicU64::new(end),
            frames: AtomicU64::new(frames),
            bytes: AtomicU64::new(bytes),
            released: AtomicU64::new(0),
            cursor: AtomicU64::new(0),
            syncing: Mutex::new(false),
            cv: Condvar::new(),
            failed: AtomicBool::new(false),
            sync_each,
            syncs: AtomicU64::new(0),
            sync_latency: None,
        };
        if recovered || truncated {
            // The previous incarnation may have died between `write` and
            // fsync: the recovered events (and the truncation) are in the
            // page cache, not necessarily on disk. `durable = recovered`
            // must be true before anyone reads it.
            log.run_sync()?;
        }
        Ok((log, IngestRecovery { segments, events: end, truncated }))
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
        let (frames, bytes) = (w.record_count(), w.byte_count());
        let mut rest = events;
        while !rest.is_empty() {
            let (take, streams) = plan_frame(rest);
            w.stage(|buf| encode_frame(buf, &rest[..take], &streams));
            rest = &rest[take..];
        }
        w.commit()?;
        w.flush()?;
        self.frames.fetch_add(w.record_count() - frames, Ordering::Relaxed);
        self.bytes.fetch_add(w.byte_count() - bytes, Ordering::Relaxed);
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

    /// One timed, counted sync step over the live segment and every sealed
    /// one no step has covered yet; an error poisons the log. The files are
    /// taken after the caller read `written`, so each record it counts is
    /// in one of them: sealed before, or still live.
    fn run_sync(&self) -> StoreResult<()> {
        let t0 = Instant::now();
        let (live, sealed) = {
            let mut files = self.files.lock();
            (Arc::clone(&files.live), std::mem::take(&mut files.unsynced))
        };
        let covered: Vec<&File> = sealed.iter().chain([&live]).map(|file| &**file).collect();
        let result = match &self.sync_fn {
            Some(sync_fn) => sync_fn(&covered),
            None => {
                audit::blocking_io("ingest wal fsync");
                covered.iter().try_for_each(|file| file.sync_data())
            }
        };
        self.syncs.fetch_add(1, Ordering::Relaxed);
        if let Some(hist) = &self.sync_latency {
            hist.record(t0.elapsed().as_micros() as u64);
        }
        result.map_err(|e| self.poison(e.into()))
    }

    /// Seal the live segment and start the next one at the log's end;
    /// returns that end, the new segment's base — the rotation point a
    /// checkpoint takes as its cursor. With nothing written since the last
    /// rotation, returns the live segment's base and changes nothing.
    ///
    /// The rename, the creation and the fsyncs run outside the writer
    /// lock; under it the new header is written, like a frame, and the
    /// handles are swapped. The sealed tail is left to the next sync step.
    /// Rotations must not overlap (the engine's recovery line is their one
    /// caller). A failure poisons the log.
    pub fn rotate(&self) -> StoreResult<u64> {
        self.check_failed()?;
        let live_base = self.files.lock().live_base;
        if self.record_count() == live_base {
            return Ok(live_base);
        }
        self.seal(live_base).map_err(|e| self.poison(e))
    }

    fn seal(&self, live_base: u64) -> StoreResult<u64> {
        audit::blocking_io("ingest wal rotate");
        let sealed = sealed_path(&self.path, live_base);
        std::fs::rename(&self.path, &sealed)?;
        let mut next = WalWriter::resume(&self.path, false, 0, 0)?;
        let handle = Arc::new(next.sync_handle()?);
        // Before any record in the new segment can be acked.
        sync_dir(&self.path)?;
        // The old writer is closed after the lock is released.
        let (_old, base) = {
            let mut w = self.writer.lock();
            let base = self.record_count();
            next.write_raw(&segment_header(base))?;
            next.flush()?;
            let mut files = self.files.lock();
            let old = std::mem::replace(&mut *w, next);
            let sealed_file = std::mem::replace(&mut files.live, Arc::clone(&handle));
            files.unsynced.push(sealed_file);
            let valid_bytes = old.byte_count();
            files.sealed.push(Segment {
                path: sealed,
                base: live_base,
                valid_bytes,
                ..Segment::default()
            });
            files.live_base = base;
            (old, base)
        };
        self.bytes.fetch_add(HEADER_LEN, Ordering::Relaxed);
        // A checkpoint may leave the new segment holding nothing else, and
        // a restart needs its base.
        audit::blocking_io("ingest wal header fsync");
        handle.sync_data()?;
        Ok(base)
    }

    /// Record `cursor` as the one the store accepted, and delete every
    /// sealed segment wholly below it, then fsync the directory. Only a
    /// cursor the store holds may be passed: the deleted events are gone.
    pub fn release_below(&self, cursor: u64) -> StoreResult<()> {
        self.cursor.store(cursor, Ordering::Relaxed);
        let doomed: Vec<Segment> = {
            let mut files = self.files.lock();
            // A segment ends where the next one starts.
            let ends = files.sealed.iter().skip(1).map(|s| s.base).chain([files.live_base]);
            let below = files.sealed.iter().zip(ends).take_while(|(_, end)| *end <= cursor).count();
            files.sealed.drain(..below).collect()
        };
        if doomed.is_empty() {
            return Ok(());
        }
        audit::blocking_io("ingest wal unlink");
        for segment in &doomed {
            std::fs::remove_file(&segment.path)?;
            self.released.fetch_add(segment.valid_bytes, Ordering::Relaxed);
        }
        Ok(sync_dir(&self.path)?)
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

    /// True once a `write`, fsync or rotation has failed. Sticky: the
    /// node refuses ingest until it is restarted on a healthy disk.
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Events *written* since the log began — the number the next event
    /// gets. It may run ahead of the durable watermark by the frames
    /// inside their fsync window.
    pub fn record_count(&self) -> u64 {
        self.written.load(Ordering::Acquire)
    }

    /// The log's counters, read once.
    pub fn view(&self) -> IngestWalView {
        let segments = self.files.lock().sealed.len() as u64 + 1;
        let bytes = self.bytes.load(Ordering::Relaxed);
        IngestWalView {
            written: self.record_count(),
            durable: self.durable.load(Ordering::Acquire),
            failed: self.failed(),
            syncs: self.syncs.load(Ordering::Relaxed),
            bytes,
            frames: self.frames.load(Ordering::Relaxed),
            retained_bytes: bytes.saturating_sub(self.released.load(Ordering::Relaxed)),
            segments,
            cursor: self.cursor.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testkit::SEEDS;
    use muppet_check::sched;
    use muppet_core::codec::crc32c;
    use muppet_slatestore::types::{Cell, CellKey};
    use muppet_slatestore::util::TempDir;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::os::fd::AsRawFd;
    use std::os::unix::fs::FileExt;
    use std::sync::{mpsc, OnceLock, Weak};
    use std::time::Duration;

    fn ev(i: u64) -> Event {
        Event::new("clicks", 1_000 + i, format!("user-{i}").into(), format!("payload-{i}"))
    }

    /// A log whose sync step does nothing (the sweeps reopen hundreds of times).
    fn open_unsynced(path: &Path) -> (IngestLog, IngestRecovery) {
        IngestLog::open_with_sync(path, false, Some(Box::new(|_| Ok(())))).unwrap()
    }

    /// Everything a fresh open of `path` replays, and whether it cut a tail.
    fn replay_all(path: &Path) -> (Vec<Event>, bool) {
        let (_, rec) = open_unsynced(path);
        let (end, truncated) = (rec.events, rec.truncated);
        let events = rec.events_after(0).unwrap();
        assert_eq!(events.len() as u64, end);
        (events, truncated)
    }

    /// The file names in `dir`, sorted.
    fn names(dir: &TempDir) -> Vec<String> {
        let entries = std::fs::read_dir(dir.path()).unwrap();
        let mut names: Vec<String> =
            entries.map(|e| e.unwrap().file_name().to_string_lossy().into_owned()).collect();
        names.sort();
        names
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
        let mut expected = b"MUPIWAL\x02\0\0\0\0\0\0\0\0".to_vec(); // base 0
        expected.extend_from_slice(&crc32c(&payload).to_le_bytes());
        expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        expected.extend_from_slice(&payload);
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        assert_eq!((log.record_count(), log.view().frames), (3, 1));
        assert_eq!(log.view().bytes, expected.len() as u64);

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
        // What one event cost as a framed per-cell store record, the
        // format this log replaced.
        let cell_record_bytes = [36, 24, 64];
        let events = [ev(0), Event::new("S", u64::MAX, Key::from(""), ""), ev(1 << 40)];
        for (event, cell_record) in events.iter().zip(cell_record_bytes) {
            let mut frame = Vec::new();
            encode_frame(&mut frame, std::slice::from_ref(event), &[event.stream.as_str()]);
            assert!(8 + frame.len() <= cell_record + 2, "{} B", 8 + frame.len());
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
        fn runs_round_trip_losslessly_and_in_order_across_rotations(
            runs in proptest::collection::vec(
                (proptest::collection::vec(arb_event(), 1..40), any::<bool>()),
                1..6,
            ),
            cursor in 0usize..200,
        ) {
            let dir = TempDir::new("ingest-prop").unwrap();
            let path = dir.file("prop.wal");
            let (log, _) = open_unsynced(&path);
            let mut bases = vec![0];
            for (run, rotate) in &runs {
                log.write_batch(run).unwrap();
                if *rotate {
                    bases.push(log.rotate().unwrap());
                }
            }
            let all: Vec<Event> = runs.iter().flat_map(|(run, _)| run.clone()).collect();
            prop_assert_eq!((log.record_count(), log.view().frames), (all.len() as u64, runs.len() as u64));
            drop(log);
            let (log, rec) = open_unsynced(&path);
            prop_assert!(!rec.truncated);
            prop_assert_eq!((rec.events, log.view().frames), (all.len() as u64, runs.len() as u64));
            prop_assert_eq!(log.view().segments, bases.len() as u64);
            // `Event: Eq` covers stream, ts, key, value (and seq, 0 on both sides).
            prop_assert_eq!(&rec.events_after(0).unwrap(), &all);
            // A cursor at a base or at the end skips exactly that many
            // events; anywhere else it is refused.
            let (_, rec) = open_unsynced(&path);
            let honoured = bases.contains(&(cursor as u64)) || cursor == all.len();
            match rec.events_after(cursor as u64) {
                Ok(rest) => prop_assert!(honoured && rest[..] == all[cursor..]),
                Err(_) => prop_assert!(!honoured),
            }
        }

        #[test]
        fn the_decoder_never_panics_on_hostile_payloads(
            noise in proptest::collection::vec(any::<u8>(), 0..64),
            run in proptest::collection::vec(arb_event(), 1..6),
            damage in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
        ) {
            let _ = decode_frame(&noise, &mut Vec::new());
            let mut frame = Vec::new();
            encode_frame(&mut frame, &run, &plan_frame(&run).1);
            for (at, byte) in damage {
                let at = at as usize % frame.len();
                frame[at] = byte;
            }
            let mut out = Vec::new();
            if decode_frame(&frame, &mut out).is_some() {
                prop_assert_eq!(out.len(), get_varint(&frame).unwrap().0 as usize);
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
        decode_frame(&frame, &mut back).unwrap();
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
        let frames = log.view().frames;
        assert!((3..=5).contains(&frames), "≈ 3.5 MB over a 1 MiB cap, got {frames} frames");
        assert!(log.view().bytes / frames < (FRAME_SOFT_BYTES + 1_000) as u64);
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
        assert_eq!((log.record_count(), log.view().frames), (0, 0), "nothing of the run is logged");
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
                (log.view().frames, log.view().syncs),
                (10, 10),
                "sync_each: a frame and an fsync per event, batch or not"
            );
        }
        let (log, rec) = IngestLog::open(&path, true).unwrap();
        assert!(!rec.truncated);
        assert_eq!(rec.events_after(0).unwrap(), (0..10).map(ev).collect::<Vec<_>>());
        assert_eq!(
            (log.record_count(), log.view().durable, log.view().frames),
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
        // Format 1: one segment, no base.
        let format_one = dir.file("format-one.wal");
        std::fs::write(&format_one, b"MUPIWAL\x01").unwrap();
        let garbage = dir.file("garbage");
        std::fs::write(&garbage, b"MUPIWAL\x03 a later format").unwrap();
        for path in [&store_wal, &old_log, &format_one, &garbage] {
            let before = std::fs::read(path).unwrap();
            let Err(err) = IngestLog::open(path, false) else { panic!("{path:?} was accepted") };
            assert!(err.to_string().contains(path.to_str().unwrap()), "{err}");
            assert_eq!(std::fs::read(path).unwrap(), before);
        }
    }

    #[test]
    fn a_segment_whose_creation_died_inside_the_header_starts_over() {
        let dir = TempDir::new("ingest").unwrap();
        for len in 0..HEADER_LEN as usize {
            let path = dir.file(&format!("partial-{len}.wal"));
            std::fs::write(&path, &segment_header(0)[..len]).unwrap();
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
            log.view().bytes as usize
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
                (log.record_count(), log.view().frames, log.view().bytes),
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
            let mut data = segment_header(0).to_vec();
            data.extend_from_slice(&[0; 4]);
            data.extend_from_slice(&len.to_le_bytes());
            data.extend_from_slice(b"not four gigabytes");
            std::fs::write(&path, &data).unwrap();
            assert_eq!(replay_all(&path), (vec![], true));
            assert_eq!(std::fs::read(&path).unwrap(), segment_header(0));
        }
    }

    #[test]
    fn rotation_seals_the_live_segment_and_release_deletes_what_a_cursor_covers() {
        let dir = TempDir::new("ingest").unwrap();
        let path = dir.file("log.wal");
        let (log, _) = open_unsynced(&path);
        assert_eq!(log.rotate().unwrap(), 0, "nothing written: nothing rotates");
        let runs: [Vec<Event>; 3] =
            [(0..3).map(ev).collect(), (3..7).map(ev).collect(), (7..9).map(ev).collect()];
        log.write_batch(&runs[0]).unwrap();
        assert_eq!(log.rotate().unwrap(), 3);
        log.write_batch(&runs[1]).unwrap();
        assert_eq!(log.rotate().unwrap(), 7);
        assert_eq!(log.rotate().unwrap(), 7, "nothing new: no empty segment");
        log.write_batch(&runs[2]).unwrap();
        assert_eq!(names(&dir), ["log.wal", "log.wal.0", "log.wal.3"]);
        assert_eq!(std::fs::read(dir.file("log.wal.3")).unwrap()[..16], segment_header(3));
        assert_eq!(std::fs::read(&path).unwrap()[..16], segment_header(7));
        let before = log.view();
        assert_eq!((before.segments, before.retained_bytes, before.cursor), (3, before.bytes, 0));

        // Each cursor deletes the sealed segments wholly below it.
        log.release_below(3).unwrap();
        assert_eq!(names(&dir), ["log.wal", "log.wal.3"]);
        log.release_below(7).unwrap();
        log.release_below(9).unwrap();
        assert_eq!(names(&dir), ["log.wal"], "the live segment is never released");
        let after = log.view();
        assert_eq!(
            (after.written, after.bytes, after.frames),
            (9, before.bytes, before.frames),
            "the totals do not count down"
        );
        let live_len = std::fs::metadata(&path).unwrap().len();
        assert_eq!((after.segments, after.retained_bytes, after.cursor), (1, live_len, 9));
        drop(log);

        // A restart decodes what is retained and honours only its base and
        // the log's end.
        let (log, rec) = open_unsynced(&path);
        assert_eq!((rec.events, log.view().segments, log.view().bytes), (9, 1, live_len));
        assert_eq!(rec.events_after(7).unwrap(), runs[2]);
        drop(log);
        for refused in [0, 3, 8] {
            let (_, rec) = open_unsynced(&path);
            let err = rec.events_after(refused).unwrap_err().to_string();
            assert!(err.contains(&format!("cursor {refused} ")) && err.contains("[7]"), "{err}");
        }
        let (_, rec) = open_unsynced(&path);
        assert!(rec.events_after(9).unwrap().is_empty());
    }

    #[test]
    fn open_drops_a_headerless_sealed_segment_and_refuses_overlapping_ones() {
        let dir = TempDir::new("ingest").unwrap();
        let path = dir.file("log.wal");
        let (log, _) = open_unsynced(&path);
        log.write_batch(&[ev(0), ev(1)]).unwrap();
        log.rotate().unwrap();
        drop(log);
        // Sealed before its header reached the disk: it held nothing acked.
        std::fs::write(dir.file("log.wal.9"), &segment_header(9)[..5]).unwrap();
        let (log, rec) = open_unsynced(&path);
        assert_eq!(names(&dir), ["log.wal", "log.wal.0"]);
        assert_eq!(rec.events_after(0).unwrap(), [ev(0), ev(1)]);
        drop(log);
        // A segment from another log claims events this one already holds.
        std::fs::write(dir.file("log.wal.1"), segment_header(1)).unwrap();
        let Err(err) = IngestLog::open(&path, false) else { panic!("overlap accepted") };
        assert!(err.to_string().contains("segments overlap"), "{err}");
    }

    #[test]
    fn the_sync_step_covers_a_sealed_tail_no_step_has_synced() {
        let dir = TempDir::new("ingest").unwrap();
        let (log, _) = IngestLog::open(dir.file("sealed.wal"), false).unwrap();
        let seq = log.write_batch(&[ev(0)]).unwrap();
        log.rotate().unwrap();
        assert_eq!(log.files.lock().unsynced.len(), 1, "the record was sealed, not synced");
        log.wait_durable(seq).unwrap();
        assert!(log.files.lock().unsynced.is_empty());
        assert_eq!((log.view().durable, log.view().syncs), (1, 1));
    }

    /// A sync seam that reports each entry on the returned receiver and
    /// then blocks until the test sends one token down the returned sender.
    fn gated_sync() -> (SyncFn, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let sync: SyncFn = Box::new(move |_| {
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
        assert_eq!((seq, log.record_count(), log.view().durable), (8, 8, 0));
        std::thread::scope(|s| {
            let waiter = s.spawn(|| log.wait_durable(seq));
            entered.recv().unwrap();
            // The leader is inside the sync step; what a process crash
            // would leave behind already replays in full.
            let replayed = scan(&path).unwrap().unwrap();
            assert_eq!(replayed.events, events);
            assert!(!replayed.truncated);
            assert_eq!(log.view().durable, 0, "nothing is acked before the sync returns");
            assert!(!waiter.is_finished());
            gate.send(()).unwrap();
            waiter.join().unwrap().unwrap();
        });
        assert_eq!((log.view().durable, log.view().syncs), (8, 1));
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
            Box::new(move |_| {
                let log = slot.get().and_then(Weak::upgrade).expect("log is open");
                let written_now = log.record_count();
                if log.view().durable > last_written.swap(written_now, Ordering::SeqCst) {
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
                        assert!(log.view().durable >= seq, "returned before durable");
                    }
                });
            }
        });
        assert_eq!((log.record_count(), log.view().durable), (200, 200));
        assert!((1..=200).contains(&log.view().syncs), "never worse than sync-per-call");
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
            assert_eq!((second, log.record_count(), log.view().durable), (2, 2, 0));
            let follower = s.spawn(move || log.wait_durable(second));
            gate.send(()).unwrap();
            leader.join().unwrap().unwrap();
            // Sync 1 began before record 2 was written, so it must not
            // cover it: the follower has to lead sync 2.
            entered.recv_timeout(Duration::from_secs(10)).expect("no second sync was led");
            assert_eq!(log.view().durable, 1, "the running sync covered a later write");
            assert!(!follower.is_finished());
            gate.send(()).unwrap();
            follower.join().unwrap().unwrap();
        });
        assert_eq!((log.view().durable, log.view().syncs), (2, 2));
    }

    #[test]
    fn a_failed_sync_poisons_the_log() {
        let dir = TempDir::new("ingest").unwrap();
        let path = dir.file("poison.wal");
        let fail = Arc::new(AtomicBool::new(false));
        let sync: SyncFn = {
            let fail = Arc::clone(&fail);
            Box::new(move |_| match fail.load(Ordering::SeqCst) {
                true => Err(std::io::Error::other("injected fsync failure")),
                false => Ok(()),
            })
        };
        let (log, _) = IngestLog::open_with_sync(&path, false, Some(sync)).unwrap();
        log.append_batch(&[ev(0)]).unwrap();
        fail.store(true, Ordering::SeqCst);
        assert!(log.append_batch(&[ev(1)]).is_err(), "the failed sync is this call's error");
        assert!(log.failed());
        assert_eq!((log.record_count(), log.view().durable), (2, 1));
        // Sticky, even once the disk "recovers": nothing new is written,
        // nothing un-synced is ever acked.
        fail.store(false, Ordering::SeqCst);
        assert!(log.write_batch(&[ev(2)]).is_err());
        assert!(log.wait_durable(2).is_err());
        assert!(log.rotate().is_err(), "nor does it rotate");
        assert_eq!(log.record_count(), 2);
        log.wait_durable(1).expect("what a good sync covered stays acked");
    }

    const SUBMITTERS: u64 = 3;
    /// One-record runs per submitter and seed.
    const RUNS: u64 = 3;

    /// How a sweep's submitter waits for its ack: the real
    /// [`IngestLog::wait_durable`], or a negative control's copy.
    type Wait = fn(&IngestLog, u64) -> StoreResult<()>;

    /// What the sweep's sync steps did to one log.
    #[derive(Default)]
    struct Syncs {
        log: OnceLock<Weak<IngestLog>>,
        /// Per segment base: the records below which a completed sync step
        /// covered the segment (`u64::MAX`: all of a sealed one).
        covered: Mutex<BTreeMap<u64, u64>>,
        steps: AtomicU64,
        /// `durable` when the failing step failed.
        failed_at: OnceLock<u64>,
        /// Submitters inside their wait, or done.
        parked: AtomicU64,
    }

    /// The sweep's sync step. At entry it claims each file it covers —
    /// from the `cover(n)`th of the `n` it is handed — durable up to what
    /// the OS holds: a sealed segment whole, the live one up to the records
    /// written so far. It publishes the claims after a perturbation point,
    /// the fsync window. With `fail`, step 2 waits for the submitters to
    /// park behind it, then fails.
    fn sync_step(syncs: &Arc<Syncs>, cover: fn(usize) -> usize, fail: bool) -> SyncFn {
        let syncs = Arc::clone(syncs);
        Box::new(move |files| {
            let log = syncs.log.get().and_then(Weak::upgrade).expect("the log is open");
            let (written, from, mut claims) = (log.record_count(), cover(files.len()), Vec::new());
            for (i, file) in files.iter().enumerate() {
                let mut base = [0; 8];
                File::open(format!("/proc/self/fd/{}", file.as_raw_fd()))?
                    .read_exact_at(&mut base, 8)?;
                let claim = if i + 1 < files.len() { u64::MAX } else { written };
                claims.push((u64::from_le_bytes(base), if i < from { 0 } else { claim }));
            }
            if fail && syncs.steps.fetch_add(1, Ordering::SeqCst) == 1 {
                let deadline = Instant::now() + Duration::from_secs(1);
                while syncs.parked.load(Ordering::SeqCst) < SUBMITTERS && Instant::now() < deadline
                {
                    sched::point();
                }
                syncs.failed_at.get_or_init(|| log.view().durable);
                return Err(std::io::Error::other("injected fsync failure"));
            }
            sched::point();
            let mut covered = syncs.covered.lock();
            for (base, claim) in claims {
                let at = covered.entry(base).or_insert(0);
                *at = claim.max(*at);
            }
            Ok(())
        })
    }

    /// Submitters write one-record runs to a fresh log and wait for each
    /// through `wait`, while a rotator seals the live segment once a record
    /// is written; on odd seeds the second sync step fails once every
    /// submitter is parked behind it. Invariants: no record is acked past
    /// what a sync of its own segment covered; a poisoned log releases
    /// every waiter within the deadline, `durable` stays where the failure
    /// found it, and what an earlier step covered stays acked. Returns the
    /// violations, the log's view and, if a step failed, the `durable` it
    /// found.
    fn group_commit(
        dir: &TempDir,
        seed: u64,
        wait: Wait,
        cover: fn(usize) -> usize,
    ) -> (Vec<String>, IngestWalView, Option<u64>) {
        let syncs = Arc::new(Syncs::default());
        let sync = sync_step(&syncs, cover, seed % 2 == 1);
        let log = IngestLog::open_with_sync(dir.file(&format!("{seed}.wal")), false, Some(sync));
        let (log, notes) = (Arc::new(log.unwrap().0), Arc::new(Mutex::new(Vec::new())));
        syncs.log.set(Arc::downgrade(&log)).unwrap();
        let mut threads: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let (log, syncs, notes) =
                    (Arc::clone(&log), Arc::clone(&syncs), Arc::clone(&notes));
                sched::spawn(t + 1, move || {
                    for k in t * RUNS..(t + 1) * RUNS {
                        let Ok(seq) = log.write_batch(&[ev(k)]) else { break };
                        syncs.parked.fetch_add(1, Ordering::SeqCst);
                        let acked = wait(&log, seq);
                        syncs.parked.fetch_sub(1, Ordering::SeqCst);
                        let covered =
                            syncs.covered.lock().range(..seq).next_back().map(|(_, c)| *c);
                        match acked {
                            Err(_) => break,
                            Ok(()) if covered.is_none_or(|c| c < seq) => notes
                                .lock()
                                .push(format!("record {} acked past its segment's sync", seq - 1)),
                            Ok(()) => {}
                        }
                    }
                    syncs.parked.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        let rotated = Arc::clone(&log);
        threads.push(sched::spawn(SUBMITTERS + 1, move || {
            while rotated.record_count() == 0 {
                std::thread::yield_now();
            }
            _ = rotated.rotate();
        }));
        sched::join_within(threads, Duration::from_secs(10));
        let (mut notes, view) = (std::mem::take(&mut *notes.lock()), log.view());
        let failed_at = syncs.failed_at.get().copied();
        match failed_at {
            Some(at) if view.durable != at => {
                notes.push(format!("durable moved {at} → {}", view.durable))
            }
            Some(at) if log.wait_durable(at).is_err() || log.wait_durable(at + 1).is_ok() => {
                notes.push(format!("a log poisoned at {at} answers a later wait wrongly"))
            }
            _ => {}
        }
        (notes, view, failed_at)
    }

    /// Sweep [`group_commit`]: the first seed that violated, if any, the
    /// syncs and records of all its logs, and how many were poisoned.
    fn sweep(wait: Wait, cover: fn(usize) -> usize) -> (Option<(u64, Vec<String>)>, [u64; 3]) {
        let (dir, mut shape) = (TempDir::new("sweep-group-commit").unwrap(), [0; 3]);
        let caught = sched::sweep(SEEDS, |seed| {
            let (notes, view, failed_at) = group_commit(&dir, seed, wait, cover);
            shape[0] += view.syncs;
            shape[1] += view.written;
            shape[2] += u64::from(failed_at.is_some());
            notes
        });
        (caught, shape)
    }

    #[test]
    fn sweep_group_commit() {
        let (violated, [syncs, written, poisoned]) = sweep(IngestLog::wait_durable, |_| 0);
        assert_eq!(violated, None, "group commit");
        assert!(
            syncs < written,
            "no two submitters shared a sync: {syncs} syncs, {written} records"
        );
        // Shape: most odd seeds failed a step, the submitters parked behind it.
        assert!(poisoned > SEEDS / 4, "{poisoned} of {} logs poisoned", SEEDS / 2);
    }

    #[test]
    fn sweep_group_commit_catches_a_read_after_sync() {
        let (caught, _) = sweep(wait_durable_reading_after_sync, |_| 0);
        assert!(caught.is_some(), "the sweep missed `written` read after the sync");
    }

    #[test]
    fn sweep_group_commit_catches_a_live_only_sync() {
        // The sync step covering the live segment only: a tail the rotation
        // sealed before any step reached it is acked from the page cache.
        let (caught, _) = sweep(IngestLog::wait_durable, |files| files - 1);
        assert!(caught.is_some(), "the sweep missed an unsynced sealed tail");
    }

    /// `wait_durable` with its leader reading `written` after its sync,
    /// not before: a record written while the sync ran is acked although
    /// the sync may not cover it.
    fn wait_durable_reading_after_sync(log: &IngestLog, seq: u64) -> StoreResult<()> {
        let mut syncing = log.syncing.lock();
        loop {
            if log.durable.load(Ordering::Acquire) >= seq {
                return Ok(());
            }
            log.check_failed()?;
            if *syncing {
                log.cv.wait(&mut syncing);
                continue;
            }
            *syncing = true;
            drop(syncing);
            let result = log.run_sync();
            sched::point();
            let covers = log.written.load(Ordering::Acquire);
            syncing = log.syncing.lock();
            *syncing = false;
            if result.is_ok() {
                log.durable.fetch_max(covers, Ordering::AcqRel);
            }
            log.cv.notify_all();
            result?;
        }
    }
}

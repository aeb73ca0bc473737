//! Ingest write-ahead log — durability for *accepted but unprocessed*
//! events.
//!
//! Muppet's §4.3 protocol shrugs at a dead machine's in-flight work; at
//! production scale that is unacceptable, so each `muppetd` writes every
//! event it accepts from sources to a per-machine WAL. A restarted node
//! replays the suffix past its replay cursor (see `Engine::checkpoint`)
//! and converges to bit-identical slates.
//!
//! The log reuses `slatestore::wal` framing (crc32c + length prefix per
//! record), so torn tails from a crash mid-append are detected and cut
//! back to the last intact record. An event ⟨sid, ts, k, v⟩ maps onto a
//! WAL cell as `CellKey{row: k, column: sid}` / `Cell{value: v, write_ts:
//! ts}` — a lossless round trip, since `seq` is reassigned in admission
//! order on replay exactly as it was assigned on first ingest.
//!
//! ## Logged, then durable
//!
//! A record crosses two lines, tracked by two watermarks (both count
//! records since the start of the segment):
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
//! fsyncs record by record under the writer lock — the expensive arm
//! benchmarked in x20.
//!
//! ## Failure
//!
//! A failed `write` or fsync poisons the log ([`IngestLog::failed`]):
//! that call and every later one return `Err`. After a failed fsync the
//! kernel may have dropped the dirty pages, so nothing written since the
//! last good sync can be trusted to ever reach the disk; refusing ingest
//! is the only honest answer.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use muppet_core::sync::{audit, Condvar, Mutex};
use muppet_core::Event;
use muppet_obs::Histogram;
use muppet_slatestore::types::{Cell, CellKey, StoreError, StoreResult};
use muppet_slatestore::wal::WalWriter;

/// Encode an event as a WAL record. `seq` is intentionally not stored:
/// replay re-admits events in log order, which reproduces it.
fn event_to_record(event: &Event) -> (CellKey, Cell) {
    (
        CellKey::new(event.key.as_bytes(), event.stream.as_str()),
        Cell::live(event.value.clone(), event.ts, None),
    )
}

/// Decode a WAL record back into the event that produced it.
fn record_to_event(key: &CellKey, cell: &Cell) -> Event {
    Event::new(
        String::from_utf8_lossy(&key.column).into_owned(),
        cell.write_ts,
        muppet_core::Key::from(key.row.as_ref()),
        Bytes::clone(&cell.value),
    )
}

/// The log's sync step: make everything handed to the OS so far durable.
/// The one seam tests substitute (gate it, count it, fail it).
#[doc(hidden)]
pub type SyncFn = Box<dyn Fn() -> std::io::Result<()> + Send + Sync>;

/// The per-machine ingest WAL with leader-based group commit.
pub struct IngestLog {
    writer: Mutex<WalWriter>,
    sync_fn: SyncFn,
    /// Records handed to the OS. Stored under the writer lock (so it is
    /// monotone), read by sync leaders without it.
    written: AtomicU64,
    /// Records covered by a completed fsync. `durable ≤ written`.
    durable: AtomicU64,
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

/// What `IngestLog::open` recovered from an existing segment.
pub struct IngestRecovery {
    /// Events in append order — the full ingest history of the segment.
    pub events: Vec<Event>,
    /// True if a torn tail was cut back to the last intact record.
    pub truncated: bool,
}

impl IngestLog {
    /// Open (or create) the log at `path`, replaying any intact prefix.
    /// A torn tail — the signature of a crash mid-append — is truncated
    /// to the last whole record before the writer is positioned.
    ///
    /// `sync_each` selects fsync-per-record; the default (false) is
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
        // The inner writer never syncs on its own: every fsync goes
        // through `sync_fn`, on a second handle to the same file.
        let (writer, replayed) = WalWriter::open_or_create(path, false)?;
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
        let events =
            replayed.records.iter().map(|(k, c)| record_to_event(k, c)).collect::<Vec<_>>();
        let recovered = events.len() as u64;
        let log = IngestLog {
            writer: Mutex::new(writer),
            sync_fn,
            written: AtomicU64::new(recovered),
            durable: AtomicU64::new(recovered),
            syncing: Mutex::new(false),
            cv: Condvar::new(),
            failed: AtomicBool::new(false),
            sync_each,
            syncs: AtomicU64::new(0),
            sync_latency: None,
        };
        if recovered > 0 || replayed.truncated {
            // The previous incarnation may have died between `write` and
            // fsync: the recovered prefix (and the truncation) is in the
            // page cache, not necessarily on disk. `durable = recovered`
            // must be true before anyone reads it.
            log.run_sync()?;
        }
        Ok((log, IngestRecovery { events, truncated: replayed.truncated }))
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

    /// Log a run of events: encode, `write`, flush to the OS. Returns the
    /// watermark that covers the run — pass it to
    /// [`IngestLog::wait_durable`] before acking. On return the records
    /// survive a process crash (a reopen replays them), not yet a power
    /// loss. Under `sync_each` each record is also fsynced here, so the
    /// returned watermark is already durable.
    pub fn write_batch(&self, events: &[Event]) -> StoreResult<u64> {
        self.check_failed()?;
        let mut w = self.writer.lock();
        let result = if self.sync_each {
            // Fsync under the writer lock is this mode's definition (one
            // durability line per record) — the log's one sanctioned
            // IO-under-lock window for the lock-audit probe.
            audit::io_allowed(|| {
                events.iter().try_fold(w.record_count(), |_, event| {
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

    /// Encode + `write` + flush to the OS under the writer lock, then
    /// advance `written`. Returns the new watermark.
    fn write_locked(&self, w: &mut WalWriter, events: &[Event]) -> StoreResult<u64> {
        w.append_many(events.iter().map(event_to_record))?;
        w.flush()?;
        let seq = w.record_count();
        self.written.store(seq, Ordering::Release);
        Ok(seq)
    }

    /// Return once an fsync covers the first `seq` records — by leading
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

    /// Records *written* over the log's lifetime (including the recovered
    /// prefix) — the value a replay cursor checkpoints. It may run ahead
    /// of [`IngestLog::durable_count`] by the frames inside their fsync
    /// window, so a cursor must only be taken from it after
    /// [`IngestLog::sync`].
    pub fn record_count(&self) -> u64 {
        self.written.load(Ordering::Acquire)
    }

    /// Records covered by a completed fsync.
    pub fn durable_count(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    /// Fsyncs issued since open. Group commit keeps this well below
    /// `record_count` under concurrency.
    pub fn sync_count(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_slatestore::util::TempDir;
    use std::sync::{mpsc, OnceLock, Weak};
    use std::time::Duration;

    fn ev(i: u64) -> Event {
        Event::new("clicks", 1_000 + i, format!("user-{i}").into(), format!("payload-{i}"))
    }

    #[test]
    fn event_record_roundtrip_is_lossless() {
        let e = Event::new("S1", 42, muppet_core::Key::from(vec![0u8, 255]), vec![1u8, 2, 3]);
        let (k, c) = event_to_record(&e);
        let back = record_to_event(&k, &c);
        assert_eq!(back.stream, e.stream);
        assert_eq!(back.ts, e.ts);
        assert_eq!(back.key, e.key);
        assert_eq!(back.value, e.value);
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let dir = TempDir::new("ingest").unwrap();
        let path = dir.file("ingest.wal");
        {
            let (log, rec) = IngestLog::open(&path, true).unwrap();
            assert!(rec.events.is_empty());
            for i in 0..20 {
                log.append_batch(&[ev(i)]).unwrap();
            }
            assert_eq!(log.record_count(), 20);
            assert_eq!(log.sync_count(), 20, "sync_each fsyncs per record");
        }
        let (log, rec) = IngestLog::open(&path, true).unwrap();
        assert!(!rec.truncated);
        assert_eq!(rec.events.len(), 20);
        for (i, e) in rec.events.iter().enumerate() {
            assert_eq!(e.key, ev(i as u64).key);
            assert_eq!(e.value, ev(i as u64).value);
        }
        assert_eq!(log.record_count(), 20, "writer continues from the recovered prefix");
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
            let replayed = muppet_slatestore::wal::replay(&path).unwrap();
            assert_eq!(replayed.records.len(), 8);
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

    #[test]
    fn torn_tail_recovers_to_intact_prefix() {
        let dir = TempDir::new("ingest").unwrap();
        let path = dir.file("torn.wal");
        {
            let (log, _) = IngestLog::open(&path, true).unwrap();
            for i in 0..10 {
                log.append_batch(&[ev(i)]).unwrap();
            }
        }
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        let (log, rec) = IngestLog::open(&path, true).unwrap();
        assert!(rec.truncated);
        assert_eq!(rec.events.len(), 9, "only the torn record is lost");
        // The log stays appendable after the truncation.
        log.append_batch(&[ev(99)]).unwrap();
        drop(log);
        let (_, rec) = IngestLog::open(&path, true).unwrap();
        assert!(!rec.truncated);
        assert_eq!(rec.events.len(), 10);
    }
}

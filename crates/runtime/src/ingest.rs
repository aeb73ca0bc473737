//! Ingest (§4.1, §5) and its recovery line (DESIGN.md §11): a submitted
//! run is validated, transcoded, throttled, written to the ingest WAL,
//! dispatched and acked once durable; a restart replays the log past the
//! checkpointed cursor; a checkpoint draws the line that moves the cursor.

use std::sync::atomic::Ordering;
use std::time::Duration;

use muppet_core::error::{Error, Result};
use muppet_core::event::{Event, Key};
use muppet_core::sync::audit;
use muppet_core::{Codec, CodecChoice, Json};

use crate::engine::Shared;
use crate::ingestlog::{IngestLog, IngestRecovery};
use crate::overflow::OverflowPolicy;
use crate::send::fresh;

/// Reserved store column the ingest replay cursor is checkpointed under
/// (never a real updater name — workflow operator names are validated).
const INGEST_CURSOR_COLUMN: &str = "__ingest_cursor";

impl Shared {
    /// `submit` and `submit_many`: validate → transcode → throttle → log →
    /// dispatch → wait durable, over a run held in an array or a `Vec`.
    pub(crate) fn submit_run(
        &self,
        mut run: impl AsMut<[Event]> + IntoIterator<Item = Event>,
    ) -> Result<()> {
        let events = run.as_mut();
        if let Some(bad) = events.iter().find(|e| !self.wf.is_external(e.stream.as_str())) {
            return Err(Error::ExternalStreamViolation(bad.stream.as_str().to_string()));
        }
        events.iter_mut().for_each(|event| self.mbf_ingest(event));
        self.throttle_source();
        let logged = self.log_and_dispatch(run)?;
        self.wait_durable(logged)
    }

    /// Log a run, then dispatch it, counted as dispatching throughout (a
    /// recovery line that rotated the run below its cursor waits for it).
    /// Returns the watermark the ack waits for; a failed write dispatches
    /// nothing.
    pub(crate) fn log_and_dispatch(
        &self,
        mut run: impl AsMut<[Event]> + IntoIterator<Item = Event>,
    ) -> Result<u64> {
        self.ledger.dispatching(|| {
            let logged = self.log_accepted(run.as_mut())?;
            audit::point();
            self.dispatch_accepted(run);
            Ok(logged)
        })
    }

    /// §5 source throttling, the head of a submit: under
    /// [`OverflowPolicy::SourceThrottle`], block while the cluster is
    /// backlogged beyond its aggregate queue budget. "Muppet ... can slow
    /// down the pace at which it consumes events from its input streams
    /// ... until the hotspot updater has a chance to catch up." Internal
    /// events never block (§5's deadlock argument), so a *downstream*
    /// hotspot surfaces here, at the source, via the in-flight count.
    fn throttle_source(&self) {
        if self.cfg.overflow != OverflowPolicy::SourceThrottle {
            return;
        }
        let budget = self.total_queue_budget() as i64;
        // The in-flight count includes the transport's outbound backlog
        // (TCP mode): events parked in per-peer batching outboxes are
        // cluster load exactly like queued events, so a slow wire
        // throttles the source instead of growing buffers.
        while self.ledger.pending() + self.outbound_backlog() as i64 > budget
            && !self.stopping.load(Ordering::Acquire)
        {
            self.ledger.wait_tick(&self.stats.throttle_waits);
        }
    }

    /// The *logged* line: write the accepted run to the ingest WAL (no
    /// fsync) before any worker can see it, so every event a worker ever
    /// saw is in the file and a process crash from here on replays it.
    /// Returns the watermark [`Shared::wait_durable`] must reach before
    /// the ack. A failed write dispatches nothing.
    fn log_accepted(&self, events: &[Event]) -> Result<u64> {
        let Some(log) = &self.ingest_log else {
            return Ok(0);
        };
        let seq = log.write_batch(events).map_err(|e| Error::IngestLog(e.to_string()))?;
        self.stats.ingest_logged.add(events.len() as u64);
        Ok(seq)
    }

    /// The *durable* line: `Ok` — the caller's ack — only once an fsync
    /// covers the first `seq` log records. Workers are already on the
    /// events while the disk syncs; group commit lets concurrent
    /// submitters share one fsync.
    fn wait_durable(&self, seq: u64) -> Result<()> {
        match &self.ingest_log {
            Some(log) => log.wait_durable(seq).map_err(|e| Error::IngestLog(e.to_string())),
            None => Ok(()),
        }
    }

    /// Ingest-edge transcoding: under `CodecChoice::Mbf` (explicit
    /// opt-in), container-shaped external event values (JSON
    /// objects/arrays) are rewritten to MBF once here — before the
    /// ingest-WAL append, so a crash replay redispatches the identical
    /// bytes — and every downstream `Json::from_payload` skips the text
    /// parser. This trades one parse+encode per event at the ingest edge
    /// for ~30% fewer bytes WAL-appended and framed downstream (PR 9), so
    /// it is not part of `Auto`: the default writes binary where it is
    /// free (slate materialization) and leaves submitted values
    /// untouched. Scalar and plain-text values (`"42"`, raw URLs)
    /// pass through untouched in every mode: applications read those via
    /// `value_str`, and the reference engine must observe the same text.
    fn mbf_ingest(&self, event: &mut Event) {
        let container = matches!(event.value.first(), Some(b'{' | b'['));
        if self.cfg.wire_codec == CodecChoice::Mbf && container {
            if let Ok(mbf) = Json::parse_bytes(&event.value).and_then(|json| json.to_mbf()) {
                event.value = mbf.into();
            }
        }
    }

    /// Fan accepted (validated, WAL-logged) external events out to their
    /// streams' subscriber queues.
    ///
    /// What the call sends to remote peers is flushed at once iff the node
    /// had nothing in flight when it started (no queued or running event,
    /// empty outboxes) — Nagle's rule. An idle node has capacity to spare
    /// and the submission's latency is all that matters; with work in
    /// flight the new events queue behind it anyway, and flushing them
    /// early only shreds the frames a busy node's batching exists to build
    /// (flushing at every submit tail cost a saturated closed-loop cache
    /// fill +23 %).
    fn dispatch_accepted(&self, events: impl IntoIterator<Item = Event>) {
        let idle = self.ledger.pending() == 0 && self.outbound_backlog() == 0;
        let mut touched = Vec::new();
        for event in events {
            let injected_us = self.now_us();
            self.stats.submitted.inc();
            self.fan_out(fresh(event, injected_us, false, true), &mut touched);
            if self.stats.stages.sampler_ingest.hit() {
                // The ingest span: external injection → accepted by a queue
                // (or the transport's outbox) for every subscriber.
                self.stats.stages.ingest.record(self.now_us().saturating_sub(injected_us));
            }
        }
        if idle {
            self.flush_events(&touched);
        }
    }

    /// Re-inject the ingest-WAL suffix past the persisted cursor. The
    /// replayed events fan out exactly like fresh submissions — same
    /// routing, same seq assignment order — but are *not* re-appended to
    /// the WAL (they are already in it) and count as `recovered`, not
    /// `submitted`. A cursor the log cannot honour is refused; segments a
    /// crash left below it are deleted first.
    pub(crate) fn replay_recovered(&self, recovery: IngestRecovery) -> Result<()> {
        let cursor = self.load_ingest_cursor()?;
        let (logged, truncated) = (recovery.events, recovery.truncated);
        let refused = |e| Error::Config(format!("cannot replay ingest WAL: {e}"));
        let events = recovery.events_after(cursor).map_err(refused)?;
        if let (true, Some(log)) = (self.has_backend, &self.ingest_log) {
            log.release_below(cursor).map_err(refused)?;
        }
        let replayed = events.len() as u64;
        for event in events {
            self.fan_out(fresh(event, self.now_us(), false, true), &mut Vec::new());
        }
        self.stats.ingest_replayed.add(replayed);
        if replayed > 0 || truncated {
            self.logger.warn(
                "ingest WAL recovery",
                &[
                    ("logged", logged.into()),
                    ("cursor", cursor.into()),
                    ("replayed", replayed.into()),
                    ("torn_tail", u64::from(truncated).into()),
                ],
            );
        }
        Ok(())
    }

    /// `Engine::checkpoint`: one recovery line at a time; true without an
    /// ingest WAL.
    pub(crate) fn checkpoint(&self, timeout: Duration) -> bool {
        let Some(log) = self.ingest_log.as_ref() else {
            return true;
        };
        if self.checkpointing.swap(true, Ordering::AcqRel) {
            return false;
        }
        let taken = self.recovery_line(log, timeout);
        self.checkpointing.store(false, Ordering::Release);
        taken
    }

    /// The recovery line of `checkpoint` and `shutdown`, in its order:
    /// rotate, sync, drain, flush, store the cursor, release the segments
    /// below it. Without a store the log is the only copy: it neither
    /// rotates nor shrinks.
    pub(crate) fn recovery_line(&self, log: &IngestLog, timeout: Duration) -> bool {
        let rotated = if self.has_backend { log.rotate() } else { Ok(log.record_count()) };
        let Ok(cursor) = rotated else { return false };
        if log.wait_durable(cursor).is_err()
            || !self.drain(timeout)
            || self.flush_live_caches() > 0
            || !self.store_ingest_cursor(cursor)
        {
            return false;
        }
        !self.has_backend || log.release_below(cursor).is_ok()
    }

    /// The store key under which this machine checkpoints its ingest
    /// replay cursor. Rides the slate backend as a reserved ⟨column,
    /// row⟩ pair, so cursor durability shares the store's quorum/WAL
    /// guarantees without a second persistence mechanism.
    fn ingest_cursor_key(&self) -> Key {
        Key::from(format!("node-{}", self.local_machine().unwrap_or(0)))
    }

    /// The checkpointed replay cursor: events `0..cursor` of the ingest
    /// WAL are already reflected in store-recovered slates. No cell is 0;
    /// a cell that is not a number is an error, not 0.
    fn load_ingest_cursor(&self) -> Result<u64> {
        let key = self.ingest_cursor_key();
        let Some(cell) = self.backend.load(INGEST_CURSOR_COLUMN, &key, self.now_us()) else {
            return Ok(0);
        };
        let text = String::from_utf8_lossy(&cell);
        let unreadable = |_| Error::Config(format!("unreadable ingest replay cursor {text:?}"));
        text.trim().parse().map_err(unreadable)
    }

    /// Persist the replay cursor. Returns false if the store rejected
    /// the write (the caller must not treat the checkpoint as taken).
    fn store_ingest_cursor(&self, cursor: u64) -> bool {
        let (key, now) = (self.ingest_cursor_key(), self.now_us());
        let cell = cursor.to_string();
        self.backend.store(INGEST_CURSOR_COLUMN, &key, cell.as_bytes(), Codec::Json, None, now)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};
    use std::sync::Arc;

    use muppet_check::sched;
    use muppet_core::sync::Mutex;
    use muppet_slatestore::util::TempDir;

    use super::*;
    use crate::engine::testkit::{self, SEEDS};
    use crate::engine::EngineConfig;

    const SUBMITTERS: u64 = 3;
    /// One-event runs per submitter and seed.
    const RUNS: u64 = 3;

    /// How a submitter logs and dispatches a run, and how the line is
    /// drawn: the real steps, or a negative control's copy of one.
    type Dispatch = fn(&Shared, Vec<Event>) -> Result<u64>;
    type Line = fn(&Shared, &IngestLog) -> bool;

    fn dispatch(shared: &Shared, run: Vec<Event>) -> Result<u64> {
        shared.log_and_dispatch(run)
    }

    fn line(shared: &Shared, log: &IngestLog) -> bool {
        shared.recovery_line(log, Duration::from_secs(10))
    }

    /// Each seed's submitters send one-event runs through `dispatch` into
    /// a store-backed engine the sweep shares, and wait for each ack — one
    /// of them, by seed, idles before its last run for long enough that
    /// the engine drains — while a thread draws the line through `line`
    /// once the seed's first event is written. Invariant: every event
    /// below the stored cursor is in the flush stored with it, judged for
    /// the seed's own keys by what the store held when the line returned,
    /// since later evictions write ahead of any cursor. Returns the first
    /// seed that violated it, if any, and how many lines stored a cursor.
    fn recovery_line(dispatch: Dispatch, line: Line) -> (Option<(u64, Vec<String>)>, u64) {
        let dir = TempDir::new("sweep-recovery-line").unwrap();
        // A cache of a few seeds' slates, so the line's flush and its dirty
        // count cost as little at the last seed as at the first; the sweep
        // checks the line, not the disk, so the log's syncs are no-ops
        // (the header and directory fsyncs of its rotations and releases
        // too: the disk's fsync time hid the controls' mutants).
        let cfg =
            EngineConfig { ingest_wal: Some(dir.file("ingest.wal")), ..testkit::config(1, 256) };
        let engine = testkit::start(cfg, Some(&dir), Some(Box::new(|_| Ok(()))), &Arc::default());
        let shared = testkit::shared(&engine);
        let log = Arc::clone(shared.ingest_log.as_ref().unwrap());
        let (keys, mut cursor, mut taken) = (Arc::new(Mutex::new(HashMap::new())), 0, 0);
        let caught = sched::sweep(SEEDS, |seed| {
            let seed_keys = seed * SUBMITTERS * RUNS..(seed + 1) * SUBMITTERS * RUNS;
            let (start, stored) = (log.record_count(), Arc::new(Mutex::new(HashSet::new())));
            let mut threads: Vec<_> = (0..SUBMITTERS)
                .map(|t| {
                    let (shared, keys) = (Arc::clone(shared), Arc::clone(&keys));
                    sched::spawn(t + 1, move || {
                        for k in (seed * SUBMITTERS + t) * RUNS..(seed * SUBMITTERS + t + 1) * RUNS
                        {
                            if t == seed % SUBMITTERS && k % RUNS == RUNS - 1 {
                                std::thread::sleep(Duration::from_micros(seed % 4 * 150));
                            }
                            let seq = dispatch(&shared, vec![testkit::event(k)]).unwrap();
                            keys.lock().insert(seq - 1, k);
                            shared.wait_durable(seq).unwrap();
                        }
                    })
                })
                .collect();
            threads.push({
                let (shared, log, stored) =
                    (Arc::clone(shared), Arc::clone(&log), Arc::clone(&stored));
                let seed_keys = seed_keys.clone();
                sched::spawn(SUBMITTERS + 1, move || {
                    while log.record_count() == start {
                        std::thread::yield_now();
                    }
                    if line(&shared, &log) {
                        let in_store = |k: &u64| {
                            shared.backend.load("U", &testkit::event(*k).key, 0).is_some()
                        };
                        stored.lock().extend(seed_keys.filter(in_store));
                    }
                })
            });
            sched::join_within(threads, Duration::from_secs(10));
            let now = shared.load_ingest_cursor().unwrap();
            let (stored, mut keys) = (stored.lock(), keys.lock());
            let in_flush = |k: u64| match seed_keys.contains(&k) {
                true => stored.contains(&k),
                false => shared.backend.load("U", &testkit::event(k).key, 0).is_some(),
            };
            let lacking = (cursor..now).filter(|e| !keys.remove(e).is_some_and(in_flush)).count();
            taken += u64::from(now > cursor);
            cursor = now;
            vec![
                format!("{lacking} events below the cursor {now} its flush lacks");
                usize::from(lacking > 0)
            ]
        });
        testkit::halt(engine);
        (caught, taken)
    }

    #[test]
    fn sweep_recovery_line() {
        let (violated, taken) = recovery_line(dispatch, line);
        assert_eq!(violated, None, "the recovery line");
        // Events past a line's cursor do not stop it: every line stores one.
        assert_eq!(taken, SEEDS, "{taken} of {SEEDS} lines stored a cursor");
    }

    #[test]
    fn sweep_recovery_line_catches_a_cursor_read_after_the_flush() {
        // `recovery_line` taking its cursor after the flush, not at the
        // rotation: runs written during the flush are below it and not in
        // the flush.
        fn line(shared: &Shared, log: &IngestLog) -> bool {
            let Ok(rotated) = log.rotate() else { return false };
            if log.wait_durable(rotated).is_err()
                || !shared.drain(Duration::from_secs(10))
                || shared.flush_live_caches() > 0
            {
                return false;
            }
            sched::point();
            let cursor = log.record_count();
            shared.store_ingest_cursor(cursor) && log.release_below(cursor).is_ok()
        }
        let (caught, _) = recovery_line(dispatch, line);
        assert!(caught.is_some(), "the sweep missed a cursor read after the flush");
    }

    #[test]
    fn sweep_recovery_line_catches_a_drain_blind_to_dispatch() {
        // `log_and_dispatch` without its `dispatching` count: the line's
        // drain cannot see a run between its log write and its dispatch,
        // as the drain that ignored `dispatching` could not.
        fn dispatch(shared: &Shared, run: Vec<Event>) -> Result<u64> {
            let logged = shared.log_accepted(&run)?;
            sched::point();
            shared.dispatch_accepted(run);
            Ok(logged)
        }
        let (caught, _) = recovery_line(dispatch, line);
        assert!(caught.is_some(), "the sweep missed a drain blind to dispatch");
    }
}

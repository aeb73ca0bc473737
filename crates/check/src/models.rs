//! Executable models of the repo's four hairiest concurrency protocols,
//! shaped for the [`crate::sched`] harness.
//!
//! Each model is a faithful miniature of the real code path — same locks,
//! same acquisition order, same memory-ordering discipline, with the IO
//! replaced by in-memory appends so a run takes microseconds:
//!
//! * [`run_group_commit`] — `runtime::ingestlog` two-watermark group
//!   commit (write under the writer lock; a leader reads `written`, syncs
//!   the live segment and any sealed tail with no lock held, publishes
//!   `durable` and notifies under the cv mutex) and `Engine::checkpoint`'s
//!   recovery line over it (rotate, sync, drain, flush, store the cursor);
//! * [`run_single_flight`] — `runtime::cache` single-flight miss reads
//!   (one loader per key, waiters coalesce onto the flight);
//! * [`run_flush_cas`] — `runtime::cache` snapshot flushes (snapshot
//!   under the slot lock, write outside it, CAS `flushed_version` up to
//!   the *snapshot* version only, so a concurrent mutation keeps its
//!   dirty bit);
//! * [`run_in_flight`] — `runtime::engine`'s in-flight count (an event is
//!   counted in `pending` before a worker can pop it, so `drain() == true`
//!   implies nothing in flight, an owed eviction retire included).
//!
//! Every model also has deliberately-broken variants — the negative
//! controls proving the harness can actually catch the bug class it
//! guards against (an ack past what the sync covered, a cursor past its
//! flush, a waiter observing an absent value, a lost dirty bit, a drain
//! that sees nothing in flight while a retire is owed).
//! `violations > 0` for a broken run is the harness working, not the
//! harness failing.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use muppet_core::sync::{Condvar, Mutex};

use crate::sched;

/// What a model run observed. `violations` must be zero for correct
/// variants over every seed; broken variants exist to drive it nonzero.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Invariant violations (the assertion payload).
    pub violations: u64,
    /// Human-readable descriptions of the first few violations.
    pub notes: Vec<String>,
    /// Syncs leaders ran (group commit) / loads issued
    /// (single-flight) / flushes performed (flush CAS) — shape counters
    /// for sanity assertions, not invariants.
    pub work: u64,
}

impl Outcome {
    fn violate(&mut self, note: String) {
        self.violations += 1;
        if self.notes.len() < 4 {
            self.notes.push(note);
        }
    }
}

// ---------------------------------------------------------------------
// Model 1: ingest-WAL group commit and the recovery line.
// ---------------------------------------------------------------------

/// A deliberately broken step of [`run_group_commit`]'s protocol — the
/// negative controls its sweep must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupCommitBug {
    /// The sync leader reads `written` after its sync, not before.
    ReadAfterSync,
    /// The leader syncs only the live segment, not a sealed one's
    /// unsynced tail.
    SyncLiveOnly,
    /// The checkpointer reads its cursor after the flush, not at its
    /// rotation.
    CursorAfterFlush,
    /// The checkpointer's drain ignores runs between their log write and
    /// their dispatch.
    DrainIgnoresDispatch,
}

/// Segments a run can have: the first live one and the one the
/// checkpointer rotates to.
const SEGMENTS: usize = 2;

struct GroupCommit {
    /// The writer lock and, behind it, the segments: records handed to
    /// the OS, in write order. The last one is live.
    segments: Mutex<Vec<Vec<u64>>>,
    /// Records written, stored under the writer lock, read by sync
    /// leaders without it.
    written: AtomicU64,
    /// Per segment: records the OS holds (stored under the writer lock)
    /// and records a completed fsync of that segment covered.
    held: [AtomicU64; SEGMENTS],
    disk: [AtomicU64; SEGMENTS],
    durable: AtomicU64,
    /// What a sync step covers: the live segment, and sealed segments no
    /// step has synced yet.
    sync_set: Mutex<(usize, Vec<usize>)>,
    /// True while a leader is inside the sync step; its mutex is the cv
    /// mutex (followers re-check `durable` under it before parking,
    /// leaders publish and notify under it).
    syncing: Mutex<bool>,
    cv: Condvar,
    /// Runs between their write and their dispatch; dispatched records
    /// not yet applied; applied records, by sequence number.
    dispatching: AtomicU64,
    pending: AtomicU64,
    applied: Mutex<HashSet<u64>>,
    /// An append returned before a sync of its own segment covered it —
    /// an ack a power loss would break.
    acked_unsynced: AtomicU64,
    /// Timeout rescues: a parked follower whose covering sync happened
    /// but whose wakeup never arrived — the lost-wakeup signature.
    lost_wakeups: AtomicU64,
    /// Events below the stored cursor that its flush lacked.
    unflushed_below_cursor: AtomicU64,
    syncs: AtomicU64,
    bug: Option<GroupCommitBug>,
}

impl GroupCommit {
    /// `write_batch`: append to the live segment under the writer lock,
    /// advance `written`. Returns ⟨sequence number, segment, records in
    /// the segment⟩.
    fn write(&self, record: u64) -> (u64, usize, u64) {
        sched::point();
        let mut segments = self.segments.lock();
        let live = segments.len() - 1;
        segments[live].push(record);
        let in_segment = segments[live].len() as u64;
        self.held[live].store(in_segment, Ordering::Release);
        let seq = self.written.load(Ordering::Relaxed) + 1;
        self.written.store(seq, Ordering::Release);
        (seq, live, in_segment)
    }

    /// The fsync stand-in for one segment, run with no lock held. It
    /// covers what the OS held when it began; a record written inside the
    /// window is not covered.
    fn fsync(&self, segment: usize) {
        let held = self.held[segment].load(Ordering::Acquire);
        sched::point(); // the fsync window: writers keep writing
        self.disk[segment].fetch_max(held, Ordering::AcqRel);
    }

    /// The sync step: every sealed segment no step has synced yet, then
    /// the live one.
    fn sync_step(&self) {
        let (live, sealed) = {
            let mut set = self.sync_set.lock();
            (set.0, std::mem::take(&mut set.1))
        };
        if self.bug != Some(GroupCommitBug::SyncLiveOnly) {
            // BROKEN otherwise: a tail sealed since the last step stays in
            // the page cache while the watermark covers it.
            sealed.into_iter().for_each(|segment| self.fsync(segment));
        }
        self.fsync(live);
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// `wait_durable`: lead a sync if nobody is syncing, else park until
    /// a leader's watermark covers `seq`.
    fn wait_durable(&self, seq: u64) {
        let mut syncing = self.syncing.lock();
        loop {
            if self.durable.load(Ordering::Acquire) >= seq {
                return;
            }
            if *syncing {
                sched::point();
                let r = self.cv.wait_for(&mut syncing, Duration::from_millis(100));
                if r.timed_out() && self.durable.load(Ordering::Acquire) >= seq {
                    // Covered but never woken: only the timeout saved us.
                    self.lost_wakeups.fetch_add(1, Ordering::SeqCst);
                }
                continue;
            }
            *syncing = true;
            drop(syncing);
            sched::point();
            let covers = if self.bug == Some(GroupCommitBug::ReadAfterSync) {
                // BROKEN: a record written during the sync raises
                // `written` past what the sync covered, and is acked.
                self.sync_step();
                sched::point();
                self.written.load(Ordering::Acquire)
            } else {
                let covers = self.written.load(Ordering::Acquire);
                sched::point();
                self.sync_step();
                covers
            };
            syncing = self.syncing.lock();
            *syncing = false;
            self.durable.fetch_max(covers, Ordering::AcqRel);
            self.cv.notify_all();
        }
    }

    /// `submit_many`: count the run as dispatching, write it, queue it,
    /// then wait durable — the return is the ack. The model's worker is
    /// the submitter itself, applying the record after it is queued.
    fn append(&self, record: u64) {
        self.dispatching.fetch_add(1, Ordering::AcqRel);
        let (seq, segment, in_segment) = self.write(record);
        sched::point(); // logged, not yet dispatched
        self.pending.fetch_add(1, Ordering::AcqRel);
        self.dispatching.fetch_sub(1, Ordering::AcqRel);
        sched::point();
        self.applied.lock().insert(seq);
        self.pending.fetch_sub(1, Ordering::AcqRel);
        self.wait_durable(seq);
        if self.disk[segment].load(Ordering::Acquire) < in_segment {
            self.acked_unsynced.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// `Engine::checkpoint`'s recovery line: rotate under the writer lock
    /// and take the rotation point as the cursor, sync below it, drain,
    /// flush the applied set, store the cursor.
    fn checkpoint(&self) {
        sched::point();
        let rotated = {
            let mut segments = self.segments.lock();
            segments.push(Vec::new());
            let mut set = self.sync_set.lock();
            let sealed = std::mem::replace(&mut set.0, segments.len() - 1);
            set.1.push(sealed);
            self.written.load(Ordering::Acquire)
        };
        self.wait_durable(rotated);
        // `dispatching` before `pending`, as `Engine::drain` reads them.
        let ignore_dispatching = self.bug == Some(GroupCommitBug::DrainIgnoresDispatch);
        while (!ignore_dispatching && self.dispatching.load(Ordering::Acquire) > 0)
            || self.pending.load(Ordering::Acquire) > 0
        {
            sched::point();
            std::thread::yield_now();
        }
        let flushed = self.applied.lock().clone();
        sched::point();
        let cursor = match self.bug {
            // BROKEN: records written since the rotation are counted but
            // were not all applied when the flush was taken.
            Some(GroupCommitBug::CursorAfterFlush) => self.written.load(Ordering::Acquire),
            _ => rotated,
        };
        let missing = (1..=cursor).filter(|seq| !flushed.contains(seq)).count() as u64;
        self.unflushed_below_cursor.fetch_add(missing, Ordering::SeqCst);
    }
}

/// Drive `threads × per_thread` appends through the group-commit protocol
/// under seed `seed`, with a checkpointer drawing one recovery line once
/// half of them are written. Invariants: no record is acked unless a sync
/// of its own segment covered it, no lost wakeup, every record written
/// exactly once, the final watermark covers every append, and every event
/// below the stored cursor is in the flush stored with it. `bug` selects
/// a negative control.
pub fn run_group_commit(
    seed: u64,
    threads: u64,
    per_thread: u64,
    bug: Option<GroupCommitBug>,
) -> Outcome {
    sched::install(seed);
    let gc = Arc::new(GroupCommit {
        segments: Mutex::new(vec![Vec::new()]),
        written: AtomicU64::new(0),
        held: Default::default(),
        disk: Default::default(),
        durable: AtomicU64::new(0),
        sync_set: Mutex::new((0, Vec::new())),
        syncing: Mutex::new(false),
        cv: Condvar::new(),
        dispatching: AtomicU64::new(0),
        pending: AtomicU64::new(0),
        applied: Mutex::new(HashSet::new()),
        acked_unsynced: AtomicU64::new(0),
        lost_wakeups: AtomicU64::new(0),
        unflushed_below_cursor: AtomicU64::new(0),
        syncs: AtomicU64::new(0),
        bug,
    });
    let mut workers: Vec<_> = (0..threads)
        .map(|t| {
            let gc = Arc::clone(&gc);
            std::thread::spawn(move || {
                sched::register(t + 1);
                for i in 0..per_thread {
                    gc.append(t * per_thread + i);
                }
                sched::deregister();
            })
        })
        .collect();
    workers.push({
        let gc = Arc::clone(&gc);
        std::thread::spawn(move || {
            sched::register(threads + 1);
            while gc.written.load(Ordering::Acquire) < threads * per_thread / 2 {
                std::thread::yield_now();
            }
            gc.checkpoint();
            sched::deregister();
        })
    });
    for w in workers {
        w.join().expect("model thread never panics");
    }

    let mut out = Outcome { work: gc.syncs.load(Ordering::Relaxed), ..Outcome::default() };
    let file: Vec<u64> = gc.segments.lock().concat();
    let expected = threads * per_thread;
    if file.len() as u64 != expected {
        out.violate(format!("wrote {} records, expected {expected}", file.len()));
    }
    let mut seen: Vec<u64> = file.clone();
    seen.sort_unstable();
    seen.dedup();
    if seen.len() != file.len() {
        out.violate("a record written twice".into());
    }
    for probe in [
        (gc.acked_unsynced.load(Ordering::SeqCst), "acked past what a sync of its segment covered"),
        (gc.lost_wakeups.load(Ordering::SeqCst), "lost wakeup (timeout rescue)"),
        (
            gc.unflushed_below_cursor.load(Ordering::SeqCst),
            "events below the cursor its flush lacks",
        ),
    ] {
        if probe.0 > 0 {
            out.violate(format!("{} × {}", probe.0, probe.1));
        }
    }
    if gc.durable.load(Ordering::SeqCst) != expected {
        out.violate("final watermark does not cover every append".into());
    }
    out
}

// ---------------------------------------------------------------------
// Model 2: single-flight miss reads.
// ---------------------------------------------------------------------

#[derive(Default)]
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Flight {
    fn wait(&self) -> bool {
        let mut done = self.done.lock();
        let mut waited_too_long = false;
        while !*done {
            sched::point();
            if self.cv.wait_for(&mut done, Duration::from_millis(100)).timed_out() && !*done {
                waited_too_long = true;
                break;
            }
        }
        waited_too_long
    }

    fn finish(&self) {
        let mut done = self.done.lock();
        *done = true;
        self.cv.notify_all();
    }
}

struct SingleFlight {
    flights: Mutex<HashMap<u64, Arc<Flight>>>,
    cache: Mutex<HashMap<u64, u64>>,
    loads: AtomicU64,
    /// Negative control: resolve the flight BEFORE installing the value.
    broken_resolve_first: bool,
}

impl SingleFlight {
    /// The cache miss path, mirroring `cache::get_or_load`: the cache map
    /// and the flights table are consulted under the SAME map lock (the
    /// real shard's map → flights nesting), the leader loads with no lock
    /// held and installs the value BEFORE resolving the flight, and woken
    /// waiters re-enter the loop rather than trusting the wakeup.
    fn get_or_load(&self, key: u64) -> (Option<u64>, Option<String>) {
        loop {
            sched::point();
            let flight = {
                let cache = self.cache.lock();
                if let Some(v) = cache.get(&key) {
                    return (Some(*v), None);
                }
                let mut flights = self.flights.lock();
                match flights.get(&key) {
                    Some(f) => Arc::clone(f),
                    None => {
                        // Leader: publish the flight, drop both locks,
                        // and do the "backend load" outside them.
                        let f = Arc::new(Flight::default());
                        flights.insert(key, Arc::clone(&f));
                        drop(flights);
                        drop(cache);
                        sched::point();
                        let value = key * 1000 + self.loads.fetch_add(1, Ordering::SeqCst);
                        if self.broken_resolve_first {
                            // BROKEN: waiters released before the value
                            // exists — a retrying waiter sees neither the
                            // value nor a flight and elects itself a
                            // second leader (the stampede).
                            self.flights.lock().remove(&key);
                            f.finish();
                            sched::point();
                            self.cache.lock().insert(key, value);
                        } else {
                            self.cache.lock().insert(key, value);
                            self.flights.lock().remove(&key);
                            f.finish();
                        }
                        return (Some(value), None);
                    }
                }
            };
            if flight.wait() {
                return (None, Some("waiter starved: flight never resolved".into()));
            }
            // Retry: the leader's value is (usually) a cache hit now.
        }
    }
}

/// Drive `threads` concurrent misses on one key. Invariants: exactly one
/// backend load, every waiter observes the loaded value.
pub fn run_single_flight(seed: u64, threads: u64, broken: bool) -> Outcome {
    sched::install(seed);
    let sf = Arc::new(SingleFlight {
        flights: Mutex::new(HashMap::new()),
        cache: Mutex::new(HashMap::new()),
        loads: AtomicU64::new(0),
        broken_resolve_first: broken,
    });
    const KEY: u64 = 42;
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || {
                sched::register(t + 1);
                let got = sf.get_or_load(KEY);
                sched::deregister();
                got
            })
        })
        .collect();
    let results: Vec<_> = workers.into_iter().map(|w| w.join().expect("no panic")).collect();

    let mut out = Outcome { work: sf.loads.load(Ordering::SeqCst), ..Outcome::default() };
    if out.work != 1 {
        out.violate(format!("{} backend loads for one key (want exactly 1)", out.work));
    }
    let expect = sf.cache.lock().get(&KEY).copied();
    for (value, note) in results {
        if let Some(n) = note {
            out.violate(n);
        } else if value != expect {
            out.violate(format!("thread observed {value:?}, cache holds {expect:?}"));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Model 3: flush CAS vs concurrent mutation.
// ---------------------------------------------------------------------

struct SlotState {
    /// The slate: `value` is whatever the latest mutation wrote; the
    /// version bumps on every mutation.
    version: u64,
    value: u64,
    /// Version already persisted; `version > flushed_version` ⟺ dirty.
    flushed_version: u64,
}

struct FlushCas {
    slot: Mutex<SlotState>,
    /// The "store": last flushed ⟨version, value⟩, written outside the
    /// slot lock.
    store: Mutex<Option<(u64, u64)>>,
    flushes: AtomicU64,
    /// Negative control: after the write, mark the CURRENT version
    /// flushed instead of the snapshot version.
    broken_blind_mark: bool,
}

impl FlushCas {
    fn mutate(&self, value: u64) {
        sched::point();
        let mut slot = self.slot.lock();
        slot.version += 1;
        slot.value = value;
    }

    fn flush(&self) {
        // Snapshot under the slot lock…
        let (snap_version, snap_value) = {
            let slot = self.slot.lock();
            if slot.version == slot.flushed_version {
                return;
            }
            (slot.version, slot.value)
        };
        sched::point();
        // …write OUTSIDE it (the mutator must never block on our IO)…
        *self.store.lock() = Some((snap_version, snap_value));
        self.flushes.fetch_add(1, Ordering::Relaxed);
        sched::point();
        // …then mark flushed, but only up to what was actually written.
        let mut slot = self.slot.lock();
        if self.broken_blind_mark {
            // BROKEN: claims the current version is durable. A mutation
            // that landed during the write silently loses its dirty bit.
            slot.flushed_version = slot.version;
        } else if slot.flushed_version < snap_version {
            slot.flushed_version = snap_version;
        }
    }

    /// The invariant, checkable whenever both threads are quiesced: a
    /// slot claiming to be clean must be bit-identical with the store —
    /// a newer version never loses its dirty bit.
    fn check_clean_means_stored(&self) -> Option<String> {
        let slot = self.slot.lock();
        if slot.version > slot.flushed_version {
            return None; // dirty: a future flush still owes the write
        }
        match *self.store.lock() {
            Some((_, value)) if value == slot.value => None,
            Some((v, value)) => Some(format!(
                "store holds v{v}={value} but slot is at v{}={} and claims clean — \
                 a newer version lost its dirty bit",
                slot.version, slot.value
            )),
            None if slot.version > 0 => Some("slot claims clean but nothing ever flushed".into()),
            None => None,
        }
    }
}

/// Race one mutation against one flush per round, `rounds` times. The
/// opening barrier launches both from the same instant (maximum overlap
/// of the mutate with the flusher's snapshot→write→mark window); the
/// closing barrier quiesces the pair so the invariant check between
/// rounds is race-free. Invariant (every round + once more after a final
/// sweep): a slot claiming to be clean matches the store.
pub fn run_flush_cas(seed: u64, rounds: u64, broken: bool) -> Outcome {
    sched::install(seed);
    let fc = Arc::new(FlushCas {
        slot: Mutex::new(SlotState { version: 0, value: 0, flushed_version: 0 }),
        store: Mutex::new(None),
        flushes: AtomicU64::new(0),
        broken_blind_mark: broken,
    });
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let mutator = {
        let fc = Arc::clone(&fc);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            sched::register(1);
            for i in 1..=rounds {
                barrier.wait();
                fc.mutate(i * 10);
                barrier.wait();
            }
            sched::deregister();
        })
    };
    let flusher = {
        let fc = Arc::clone(&fc);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            sched::register(2);
            let mut notes = Vec::new();
            for _ in 0..rounds {
                barrier.wait();
                fc.flush();
                barrier.wait();
                // The mutator is parked at the next opening barrier, so
                // this cross-structure read is quiescent.
                if let Some(note) = fc.check_clean_means_stored() {
                    notes.push(note);
                }
            }
            sched::deregister();
            notes
        })
    };
    mutator.join().expect("no panic");
    let round_notes = flusher.join().expect("no panic");

    let mut out = Outcome { work: fc.flushes.load(Ordering::Relaxed), ..Outcome::default() };
    for note in round_notes {
        out.violate(note);
    }
    // One final sweep, exactly like the engine's shutdown flush: after
    // it the slot MUST be clean AND match the store. If a dirty bit was
    // lost mid-run, this flush sees "clean", skips the write, and the
    // store stays stale.
    fc.flush();
    {
        let slot = fc.slot.lock();
        if slot.version > slot.flushed_version {
            out.violate("slot still dirty after final flush".into());
        }
    }
    if let Some(note) = fc.check_clean_means_stored() {
        out.violate(note);
    }
    out
}

// ---------------------------------------------------------------------
// Model 4: the in-flight count behind `Engine::drain`.
// ---------------------------------------------------------------------

struct InFlight {
    queue: Mutex<VecDeque<u64>>,
    /// `Shared::pending`: in-flight units, read by the drain predicate.
    pending: AtomicI64,
    /// Ground truth, written conservatively around the real steps:
    /// `published` after an event is pushed, `finished` before its unit
    /// is given back, `retired` before the owed retire's unit is.
    published: AtomicU64,
    finished: AtomicU64,
    retired: AtomicBool,
    /// Negative control: publish the event, then count it.
    broken_count_after_publish: bool,
}

impl InFlight {
    /// `deliver_local`'s fast path.
    fn deliver(&self, event: u64) {
        if !self.broken_count_after_publish {
            self.pending.fetch_add(1, Ordering::AcqRel);
        }
        self.queue.lock().push_back(event);
        self.published.fetch_add(1, Ordering::SeqCst);
        sched::point();
        if self.broken_count_after_publish {
            self.pending.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// A worker that pops and finishes `events` events while it owes one
    /// eviction retire (claimed before the run, as `claim_retire` does
    /// while an event holds its unit), settling it once they are done.
    /// `drain` may be called at any instant, so the worker also evaluates
    /// its predicate right after each unit it gives back.
    fn work(&self, events: u64) -> Vec<String> {
        let mut notes = Vec::new();
        let mut done = 0;
        while done < events {
            sched::point();
            let Some(_event) = self.queue.lock().pop_front() else {
                std::thread::yield_now();
                continue;
            };
            sched::point();
            self.finished.fetch_add(1, Ordering::SeqCst);
            self.pending.fetch_sub(1, Ordering::AcqRel);
            notes.extend(self.check_drain());
            done += 1;
        }
        sched::point();
        self.retired.store(true, Ordering::SeqCst);
        self.pending.fetch_sub(1, Ordering::AcqRel);
        notes
    }

    /// `drain`'s predicate against the ground truth: the truth is read
    /// before and after `pending`, so a unit published before and still
    /// unfinished after was in flight when `pending` was read.
    fn check_drain(&self) -> Option<String> {
        let published = self.published.load(Ordering::SeqCst);
        let pending = self.pending.load(Ordering::Acquire);
        let finished = self.finished.load(Ordering::SeqCst);
        let retired = self.retired.load(Ordering::SeqCst);
        if pending < 0 {
            return Some(format!("pending read {pending}"));
        }
        if pending == 0 && (published > finished || !retired) {
            return Some(format!(
                "drain saw nothing in flight while {} event(s) and {} retire were",
                published.saturating_sub(finished),
                if retired { "no" } else { "one" }
            ));
        }
        None
    }
}

/// A deliverer publishes `events` events to one worker's queue while the
/// worker, owing one eviction retire, pops and finishes them; an observer
/// evaluates `drain`'s predicate throughout. Invariant: `drain() == true`
/// implies nothing in flight, and `pending` never reads below zero.
/// `broken` counts each event after publishing it, as the engine once did.
pub fn run_in_flight(seed: u64, events: u64, broken: bool) -> Outcome {
    sched::install(seed);
    let state = Arc::new(InFlight {
        queue: Mutex::new(VecDeque::new()),
        // The owed retire's unit.
        pending: AtomicI64::new(1),
        published: AtomicU64::new(0),
        finished: AtomicU64::new(0),
        retired: AtomicBool::new(false),
        broken_count_after_publish: broken,
    });
    let spawn = |idx: u64, role: fn(&InFlight, u64) -> Vec<String>| {
        let state = Arc::clone(&state);
        std::thread::spawn(move || {
            sched::register(idx);
            let notes = role(&state, events);
            sched::deregister();
            notes
        })
    };
    let deliverer = spawn(1, |s, events| {
        (0..events).for_each(|e| s.deliver(e));
        Vec::new()
    });
    let worker = spawn(2, InFlight::work);
    let observer = spawn(3, |s, _| {
        let mut notes = Vec::new();
        while !s.retired.load(Ordering::SeqCst) {
            notes.extend(s.check_drain());
            sched::point();
        }
        notes
    });
    let mut out = Outcome::default();
    for role in [deliverer, worker, observer] {
        for note in role.join().expect("no panic") {
            out.violate(note);
        }
    }
    out.work = state.finished.load(Ordering::SeqCst);
    let pending = state.pending.load(Ordering::SeqCst);
    if pending != 0 {
        out.violate(format!("pending ends at {pending}, not 0"));
    }
    out
}

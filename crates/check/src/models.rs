//! Executable models of the repo's three hairiest lock protocols, shaped
//! for the [`crate::sched`] harness.
//!
//! Each model is a faithful miniature of the real code path — same locks,
//! same acquisition order, same memory-ordering discipline, with the IO
//! replaced by in-memory appends so a run takes microseconds:
//!
//! * [`run_group_commit`] — `runtime::ingestlog` two-watermark group
//!   commit (write under the writer lock; a leader reads `written`, syncs
//!   with no lock held, publishes `durable` and notifies under the cv
//!   mutex);
//! * [`run_single_flight`] — `runtime::cache` single-flight miss reads
//!   (one loader per key, waiters coalesce onto the flight);
//! * [`run_flush_cas`] — `runtime::cache` snapshot flushes (snapshot
//!   under the slot lock, write outside it, CAS `flushed_version` up to
//!   the *snapshot* version only, so a concurrent mutation keeps its
//!   dirty bit).
//!
//! Every model also has a deliberately-broken variant — the negative
//! control proving the harness can actually catch the bug class it
//! guards against (an ack past what the sync covered, a waiter observing
//! an absent value, a lost dirty bit). `violations > 0` for a broken run is the harness
//! working, not the harness failing.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
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
// Model 1: ingest-WAL group commit.
// ---------------------------------------------------------------------

struct GroupCommit {
    /// The writer lock and, behind it, the "file": records handed to the
    /// OS, in write order.
    file: Mutex<Vec<u64>>,
    /// `file.len()`, stored under the writer lock, read by sync leaders
    /// without it.
    written: AtomicU64,
    /// The "disk": how many records the completed fsyncs have covered.
    disk: AtomicU64,
    durable: AtomicU64,
    /// True while a leader is inside the sync step; its mutex is the cv
    /// mutex (followers re-check `durable` under it before parking,
    /// leaders publish and notify under it).
    syncing: Mutex<bool>,
    cv: Condvar,
    /// A watermark was published, or an append returned, beyond what the
    /// disk holds — an ack a power loss would break.
    acked_unsynced: AtomicU64,
    /// Timeout rescues: a parked follower whose covering sync happened
    /// but whose wakeup never arrived — the lost-wakeup signature.
    lost_wakeups: AtomicU64,
    syncs: AtomicU64,
    /// Negative control: the leader reads `written` AFTER its sync.
    broken_read_after_sync: bool,
}

impl GroupCommit {
    /// `write_batch`: append under the writer lock, advance `written`.
    fn write(&self, record: u64) -> u64 {
        sched::point();
        let mut file = self.file.lock();
        file.push(record);
        let seq = file.len() as u64;
        self.written.store(seq, Ordering::Release);
        seq
    }

    /// The fsync stand-in, run with no lock held. It covers what the OS
    /// held when it began; a record written inside the window is not
    /// covered.
    fn fsync(&self) {
        let held = self.written.load(Ordering::Acquire);
        sched::point(); // the fsync window: writers keep writing
        self.disk.fetch_max(held, Ordering::AcqRel);
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
            let covers = if self.broken_read_after_sync {
                // BROKEN: a record written during the sync raises
                // `written` past what the sync covered, and is acked.
                self.fsync();
                sched::point();
                self.written.load(Ordering::Acquire)
            } else {
                let covers = self.written.load(Ordering::Acquire);
                sched::point();
                self.fsync();
                covers
            };
            syncing = self.syncing.lock();
            *syncing = false;
            self.durable.fetch_max(covers, Ordering::AcqRel);
            if covers > self.disk.load(Ordering::Acquire) {
                self.acked_unsynced.fetch_add(1, Ordering::SeqCst);
            }
            self.cv.notify_all();
        }
    }

    /// `append_batch`: write, then wait durable. The return is the ack.
    fn append(&self, record: u64) {
        let seq = self.write(record);
        self.wait_durable(seq);
        if self.disk.load(Ordering::Acquire) < seq {
            self.acked_unsynced.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Drive `threads × per_thread` appends through the group-commit protocol
/// under seed `seed`. Invariants: nothing is acked beyond what a sync
/// covered, no lost wakeup, every record written exactly once, and the
/// final watermark covers every append.
pub fn run_group_commit(seed: u64, threads: u64, per_thread: u64, broken: bool) -> Outcome {
    sched::install(seed);
    let gc = Arc::new(GroupCommit {
        file: Mutex::new(Vec::new()),
        written: AtomicU64::new(0),
        disk: AtomicU64::new(0),
        durable: AtomicU64::new(0),
        syncing: Mutex::new(false),
        cv: Condvar::new(),
        acked_unsynced: AtomicU64::new(0),
        lost_wakeups: AtomicU64::new(0),
        syncs: AtomicU64::new(0),
        broken_read_after_sync: broken,
    });
    let workers: Vec<_> = (0..threads)
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
    for w in workers {
        w.join().expect("model thread never panics");
    }

    let mut out = Outcome { work: gc.syncs.load(Ordering::Relaxed), ..Outcome::default() };
    let file = gc.file.lock();
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
        (gc.acked_unsynced.load(Ordering::SeqCst), "acked past what a sync covered"),
        (gc.lost_wakeups.load(Ordering::SeqCst), "lost wakeup (timeout rescue)"),
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

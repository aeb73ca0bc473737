//! The in-flight ledger: the one count of work the engine has taken on
//! and not finished, and the one place producers wait for it to fall.
//! `drain`, source throttling and the `BlockProducer` overflow action read
//! it; delivery, the worker and the kill path write it. DESIGN.md §3.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

use muppet_core::sync::{audit, Condvar, Mutex};
use muppet_obs::Counter;

/// Units admitted and not yet settled, plus the runs a submitter has
/// logged but not yet dispatched.
pub(crate) struct Ledger {
    /// Events enqueued (or owed as an eviction retire) and not yet fully
    /// processed.
    pending: AtomicI64,
    /// Submitted runs between their ingest-log write and the end of their
    /// dispatch: `drain` waits for them as for `pending`.
    dispatching: AtomicU64,
    /// Throttled producers park here until a settle or one tick.
    gate: Mutex<()>,
    settled: Condvar,
    tick: Duration,
}

impl Ledger {
    /// An empty ledger whose throttled producers re-check every `tick`.
    pub(crate) fn new(tick: Duration) -> Ledger {
        Ledger {
            pending: AtomicI64::new(0),
            dispatching: AtomicU64::new(0),
            gate: Mutex::new(()),
            settled: Condvar::new(),
            tick,
        }
    }

    /// Count `n` units in. Called before the work is published: a worker
    /// may pop and finish an event the moment it is pushed
    /// (`send::tests::sweep_in_flight_count`).
    pub(crate) fn admit(&self, n: u64) {
        audit::point();
        self.pending.fetch_add(n as i64, Ordering::AcqRel);
    }

    /// Count `n` units out and wake every throttled producer.
    pub(crate) fn settle(&self, n: u64) {
        audit::point();
        self.pending.fetch_sub(n as i64, Ordering::AcqRel);
        self.settled.notify_all();
    }

    /// Units admitted and not settled.
    pub(crate) fn pending(&self) -> i64 {
        self.pending.load(Ordering::Acquire)
    }

    /// Run `dispatch` — a submitted run's log write and fan-out — counted,
    /// so a recovery line that rotated the run below its cursor finds it
    /// until its events are admitted.
    pub(crate) fn dispatching<R>(&self, dispatch: impl FnOnce() -> R) -> R {
        self.dispatching.fetch_add(1, Ordering::AcqRel);
        let out = dispatch();
        self.dispatching.fetch_sub(1, Ordering::AcqRel);
        out
    }

    /// Whether anything is in flight: a run in dispatch or a pending unit.
    /// `dispatching` is read first: a run it no longer counts has admitted
    /// its events, so `pending` read after it sees them.
    pub(crate) fn busy(&self) -> bool {
        self.dispatching.load(Ordering::Acquire) > 0 || self.pending() > 0
    }

    /// Over budget: count one throttle wait and block until the next
    /// settle, or one tick at most.
    pub(crate) fn wait_tick(&self, waits: &Counter) {
        waits.inc();
        let mut guard = self.gate.lock();
        self.settled.wait_for(&mut guard, self.tick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn settle_wakes_a_producer_blocked_over_budget() {
        // A tick no test waits out: the producer can only get through by
        // a settle's wake-up.
        let ledger = Arc::new(Ledger::new(Duration::from_secs(600)));
        let waits = Counter::default();
        ledger.admit(2);
        let producer = {
            let (ledger, waits) = (Arc::clone(&ledger), waits.clone());
            std::thread::spawn(move || {
                while ledger.pending() > 1 {
                    ledger.wait_tick(&waits);
                }
            })
        };
        while waits.get() == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(50)); // parked in the wait
        let settled_at = Instant::now();
        ledger.settle(1);
        producer.join().unwrap();
        assert!(settled_at.elapsed() < Duration::from_secs(60), "woken by the settle");
        assert_eq!((ledger.pending(), waits.get()), (1, 1));
        assert!(ledger.busy());
        ledger.settle(1);
        assert!(!ledger.busy());
    }
}

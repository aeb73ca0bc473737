//! Bounded worker queues.
//!
//! "Each worker has its own queue for input events" (§4.1), with a
//! pre-specified size limit whose overflow triggers the §4.3 mechanisms.
//! `push` never blocks (the *sender* decides what to do on overflow —
//! that's the overflow policy's job); `pop_many` parks the worker thread
//! until an event or a shutdown check is due.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use muppet_core::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueFull;

/// A bounded MPSC-style queue (any thread may push; one worker pops).
#[derive(Debug)]
pub struct EventQueue<T> {
    inner: Mutex<VecDeque<T>>,
    nonempty: Condvar,
    capacity: usize,
    len_hint: AtomicUsize,
    /// Peak occupancy (the §4.5 status endpoint reports largest queues).
    high_water: AtomicUsize,
}

impl<T> EventQueue<T> {
    /// A queue refusing pushes beyond `capacity` (unless forced).
    pub fn new(capacity: usize) -> Self {
        EventQueue {
            inner: Mutex::new(VecDeque::new()),
            nonempty: Condvar::new(),
            capacity,
            len_hint: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Push respecting the capacity limit.
    pub fn push(&self, item: T) -> Result<(), QueueFull> {
        let mut q = self.inner.lock();
        if q.len() >= self.capacity {
            return Err(QueueFull);
        }
        q.push_back(item);
        let len = q.len();
        drop(q);
        self.after_push(len);
        Ok(())
    }

    /// Push ignoring the capacity limit — used by source-throttling mode
    /// for *internal* events, which must never block or drop (blocking
    /// mid-workflow deadlocks cyclic apps, §5).
    pub fn force_push(&self, item: T) {
        let mut q = self.inner.lock();
        q.push_back(item);
        let len = q.len();
        drop(q);
        self.after_push(len);
    }

    fn after_push(&self, len: usize) {
        self.len_hint.store(len, Ordering::Relaxed);
        self.high_water.fetch_max(len, Ordering::Relaxed);
        self.nonempty.notify_one();
    }

    /// Pop up to `max` items in one lock acquisition, appending to `out`;
    /// waits up to `timeout` when the queue is empty. Returns the number
    /// of items popped (0 on timeout). This is the batch-drain fast path:
    /// a worker amortizes the mutex + condvar round-trip over a whole run
    /// of queued events instead of paying it per event. No added latency —
    /// the call returns whatever is queued, it never waits to fill `max`.
    pub fn pop_many(&self, out: &mut Vec<T>, max: usize, timeout: Duration) -> usize {
        if max == 0 {
            return 0;
        }
        let mut q = self.inner.lock();
        if q.is_empty() {
            self.nonempty.wait_for(&mut q, timeout);
        }
        let n = q.len().min(max);
        out.extend(q.drain(..n));
        self.len_hint.store(q.len(), Ordering::Relaxed);
        n
    }

    /// Cheap (racy) length estimate for dispatch decisions — the two-choice
    /// dispatcher compares queue lengths without locking both queues.
    pub fn len_hint(&self) -> usize {
        self.len_hint.load(Ordering::Relaxed)
    }

    /// Exact current length.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Peak occupancy seen.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Remove and return everything (machine-crash simulation: "all events
    /// in its queue are also lost", §4.3).
    pub fn drain_all(&self) -> Vec<T> {
        let mut q = self.inner.lock();
        let items = q.drain(..).collect();
        self.len_hint.store(0, Ordering::Relaxed);
        items
    }

    /// Wake a parked worker (shutdown).
    pub fn notify(&self) {
        self.nonempty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let q = EventQueue::new(10);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.len(), 2);
        let mut out = Vec::new();
        assert_eq!(q.pop_many(&mut out, 1, Duration::ZERO), 1);
        assert_eq!(q.pop_many(&mut out, 1, Duration::ZERO), 1);
        assert_eq!(q.pop_many(&mut out, 1, Duration::ZERO), 0);
        assert_eq!(out, vec![1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_is_enforced_for_push_only() {
        let q = EventQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(QueueFull));
        q.force_push(3); // throttling mode bypasses the cap
        assert_eq!(q.len(), 3);
        assert_eq!(q.capacity(), 2);
    }

    #[test]
    fn pop_many_drains_up_to_max_in_order() {
        let q = EventQueue::new(100);
        for i in 0..10 {
            q.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.pop_many(&mut out, 4, Duration::from_millis(1)), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(q.len_hint(), 6);
        // Appends to the buffer; takes everything left when max exceeds it.
        assert_eq!(q.pop_many(&mut out, 100, Duration::from_millis(1)), 6);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert!(q.is_empty());
        // Empty queue: waits, then returns 0.
        let t0 = std::time::Instant::now();
        assert_eq!(q.pop_many(&mut out, 4, Duration::from_millis(20)), 0);
        assert!(t0.elapsed() >= Duration::from_millis(15));
        assert_eq!(q.pop_many(&mut out, 0, Duration::from_secs(5)), 0, "max=0 returns at once");
    }

    #[test]
    fn pop_many_wakes_on_push() {
        let q = Arc::new(EventQueue::new(8));
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || {
            let mut out = Vec::new();
            let n = q2.pop_many(&mut out, 8, Duration::from_secs(5));
            (n, out)
        });
        std::thread::sleep(Duration::from_millis(20));
        q.push(7u32).unwrap();
        let (n, out) = waiter.join().unwrap();
        assert!(n >= 1);
        assert_eq!(out[0], 7);
    }

    #[test]
    fn high_water_tracks_peak() {
        let q = EventQueue::new(100);
        for i in 0..7 {
            q.push(i).unwrap();
        }
        q.pop_many(&mut Vec::new(), 7, Duration::ZERO);
        assert_eq!(q.high_water(), 7);
        assert_eq!(q.len_hint(), 0);
    }

    #[test]
    fn drain_all_returns_everything() {
        let q = EventQueue::new(10);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        let lost = q.drain_all();
        assert_eq!(lost, vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
        assert_eq!(q.len_hint(), 0);
    }

    #[test]
    fn concurrent_pushers_one_popper() {
        let q = Arc::new(EventQueue::new(100_000));
        let mut handles = Vec::new();
        for t in 0..4 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    q.push(t * 1000 + i).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = Vec::new();
        while q.pop_many(&mut seen, 64, Duration::ZERO) > 0 {}
        assert_eq!(seen.len(), 4000);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4000, "no duplicates, no losses");
    }
}

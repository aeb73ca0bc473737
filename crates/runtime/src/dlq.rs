//! Dead-letter queue — the parking lot for poison events.
//!
//! A MapUpdate event can be unprocessable in two ways: the updater (or
//! mapper) panics on it, or its payload fails to decode. Before this
//! module, either case killed the worker thread that touched it, leaked
//! the thread's queued packets, and wedged `Engine::drain` on a pending
//! count that could never reach zero. Now `process_batch` contains the
//! panic with `catch_unwind` and routes the offending event here, keeping
//! the thread — and the drain accounting — alive.
//!
//! The queue is bounded: when full, the *oldest* letter is evicted (and
//! counted as dropped) so the most recent failures — the ones an operator
//! is debugging — are always retained. Letters are listed via the node's
//! HTTP endpoint `GET /dlq` and re-injected via `POST /dlq/retry`, which
//! drains the queue back into the dispatch path (useful after a buggy
//! updater is hot-fixed or a transient resource problem clears).

use std::collections::VecDeque;

use muppet_core::sync::Mutex;
use muppet_core::workflow::OpId;
use muppet_core::Event;

/// One parked event, with enough context to retry or debug it.
#[derive(Clone, Debug)]
pub struct DeadLetter {
    /// The operator (updater or mapper) the event was headed for.
    pub op: OpId,
    /// The event itself, unmodified.
    pub event: Event,
    /// Human-readable failure cause (panic message or decode error).
    pub reason: String,
    /// Engine-clock microseconds when the event was parked.
    pub at_us: u64,
}

/// Bounded FIFO of dead letters. What it parks, evicts and hands back is
/// counted by its caller, in the engine's registry.
pub struct DeadLetterQueue {
    letters: Mutex<VecDeque<DeadLetter>>,
    capacity: usize,
}

impl DeadLetterQueue {
    /// A queue holding at most `capacity` letters (0 is clamped to 1 —
    /// a DLQ that can hold nothing would silently re-lose poison events).
    pub fn new(capacity: usize) -> Self {
        DeadLetterQueue { letters: Mutex::new(VecDeque::new()), capacity: capacity.max(1) }
    }

    /// Park a letter, evicting the oldest if the queue is full. Returns
    /// whether a letter was evicted.
    pub fn push(&self, letter: DeadLetter) -> bool {
        let mut letters = self.letters.lock();
        let evict = letters.len() >= self.capacity;
        if evict {
            letters.pop_front();
        }
        letters.push_back(letter);
        evict
    }

    /// Remove and return every parked letter (for `/dlq/retry`).
    pub fn drain(&self) -> Vec<DeadLetter> {
        self.letters.lock().drain(..).collect()
    }

    /// Snapshot the parked letters without removing them (for `GET /dlq`).
    pub fn snapshot(&self) -> Vec<DeadLetter> {
        self.letters.lock().iter().cloned().collect()
    }

    /// Letters currently parked.
    pub fn depth(&self) -> usize {
        self.letters.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_core::Event;

    fn letter(i: u64) -> DeadLetter {
        DeadLetter {
            op: 0,
            event: Event::new("S", i, format!("k{i}").into(), "v"),
            reason: format!("boom {i}"),
            at_us: i,
        }
    }

    #[test]
    fn push_snapshot_drain_roundtrip() {
        let q = DeadLetterQueue::new(8);
        assert!(!q.push(letter(1)));
        assert!(!q.push(letter(2)));
        assert_eq!(q.depth(), 2);
        let snap = q.snapshot();
        assert_eq!(snap.len(), 2, "snapshot does not consume");
        assert_eq!(q.depth(), 2);
        let drained = q.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].reason, "boom 1", "FIFO order");
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let q = DeadLetterQueue::new(3);
        let evicted = (0..5).filter(|&i| q.push(letter(i))).count();
        assert_eq!(q.depth(), 3);
        assert_eq!(evicted, 2);
        let snap = q.snapshot();
        assert_eq!(snap[0].at_us, 2, "letters 0 and 1 were evicted");
        assert_eq!(snap[2].at_us, 4, "newest failures are retained");
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let q = DeadLetterQueue::new(0);
        q.push(letter(7));
        assert_eq!(q.depth(), 1);
    }
}

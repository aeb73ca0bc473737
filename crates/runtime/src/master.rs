//! The failure master (§4.3), epoch-aware for elastic membership.
//!
//! Muppet deliberately keeps the master *off the data path*: "Muppet lets
//! the workers pass events directly to one another without going through
//! any master. (The master in Muppet is used for handling failures.)"
//!
//! Failure protocol: when worker A cannot reach worker B, A reports B's
//! machine to the master; the master broadcasts the failure so every
//! worker's hash ring drops the machine; the undeliverable event is lost
//! (and logged), not retried. Detection is driven by traffic, which the
//! paper argues beats periodic pings at streaming rates.
//!
//! With elastic membership (DESIGN.md §7) a machine id can *re-join* at a
//! later epoch, so bare ids no longer identify an incarnation: a stale
//! report — observed against the old incarnation, delayed on the wire —
//! must not kill the new one. Every report and broadcast is therefore
//! stamped with the membership epoch the failure was observed under, and
//! the registry rejects anything staler than the machine's latest join.

use muppet_core::hash::{FxHashMap, FxHashSet};
use muppet_core::sync::RwLock;

/// The master: failure registry + broadcast, epoch-fenced.
#[derive(Debug)]
pub struct Master {
    failed: RwLock<FxHashSet<usize>>,
    /// Latest epoch each machine (re-)joined at. Absent = a founding
    /// member (joined at epoch 0).
    joined: RwLock<FxHashMap<usize, u64>>,
}

impl Default for Master {
    fn default() -> Self {
        // Built field by field, so each lock is its own class in the
        // lock-order audit (a derived Default gives both one site).
        Master {
            failed: RwLock::new(FxHashSet::default()),
            joined: RwLock::new(FxHashMap::default()),
        }
    }
}

impl Master {
    /// A master with no known failures.
    pub fn new() -> Self {
        Master::default()
    }

    /// The epoch `machine` last joined at (0 for founding members).
    pub fn joined_epoch(&self, machine: usize) -> u64 {
        self.joined.read().get(&machine).copied().unwrap_or(0)
    }

    /// Record that `machine` (re-)joined the cluster at `epoch`: clears
    /// any failed mark from a previous incarnation and fences out stale
    /// reports (those stamped with an earlier epoch).
    ///
    /// Every method that takes both locks takes `joined` before `failed`,
    /// and reads the fence under `joined`, so a join and a failure mark
    /// are ordered one way or the other.
    pub fn mark_joined(&self, machine: usize, epoch: u64) {
        let mut joined = self.joined.write();
        let slot = joined.entry(machine).or_insert(0);
        if epoch >= *slot {
            *slot = epoch;
            self.failed.write().remove(&machine);
        }
    }

    /// Report `machine` unreachable, observed under membership `epoch`.
    /// Returns `true` if this was the first live report (i.e. a broadcast
    /// should happen); duplicates are absorbed, and reports staler than
    /// the machine's latest join are rejected outright — they describe a
    /// previous incarnation.
    pub fn report_failure(&self, machine: usize, epoch: u64) -> bool {
        if self.is_failed(machine) {
            return false;
        }
        self.mark_failed(machine, epoch)
    }

    /// Record a failure learned from a master *broadcast* (as opposed to a
    /// locally observed one), which receiving nodes never re-fan out.
    /// Returns `true` if the machine was newly marked; stale broadcasts
    /// (older than the machine's latest join) are rejected.
    pub fn mark_failed(&self, machine: usize, epoch: u64) -> bool {
        let joined = self.joined.read();
        // The fence is read under `joined`, so a concurrent mark_joined
        // wins over a racing stale report or broadcast.
        if epoch < joined.get(&machine).copied().unwrap_or(0) {
            return false;
        }
        self.failed.write().insert(machine)
    }

    /// Whether a machine is known-failed ("each worker keeps track of all
    /// failed machines" — centralized here; the shared read lock is the
    /// broadcast).
    pub fn is_failed(&self, machine: usize) -> bool {
        self.failed.read().contains(&machine)
    }

    /// Snapshot of failed machine ids.
    pub fn failed_machines(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.failed.read().iter().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_report_broadcasts_duplicates_absorbed() {
        let m = Master::new();
        assert!(!m.is_failed(3));
        assert!(m.report_failure(3, 0));
        assert!(!m.report_failure(3, 0), "duplicate report must not re-broadcast");
        assert!(m.is_failed(3));
        assert_eq!(m.failed_machines(), vec![3]);
    }

    #[test]
    fn multiple_failures_accumulate() {
        let m = Master::new();
        assert!([1, 0, 2].iter().all(|&machine| m.report_failure(machine, 0)), "each broadcasts");
        assert_eq!(m.failed_machines(), vec![0, 1, 2]);
    }

    #[test]
    fn concurrent_reports_broadcast_exactly_once() {
        use std::sync::Arc;
        let m = Arc::new(Master::new());
        let winners: Vec<bool> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || m.report_failure(7, 0))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        assert_eq!(winners.iter().filter(|&&w| w).count(), 1, "exactly one reporter wins");
        assert_eq!(m.failed_machines(), vec![7]);
    }

    #[test]
    fn rejoin_clears_the_failed_mark() {
        let m = Master::new();
        assert!(m.report_failure(2, 0));
        assert!(m.is_failed(2));
        m.mark_joined(2, 3);
        assert!(!m.is_failed(2), "a re-joined machine is alive again");
        assert_eq!(m.joined_epoch(2), 3);
    }

    #[test]
    fn stale_report_cannot_kill_a_rejoined_incarnation() {
        // The bug this fences: machine 2 fails, re-joins at epoch 3, and
        // only then does a slow worker's report — observed against the
        // *old* incarnation under epoch 0 — reach the master. Without the
        // epoch stamp the bare-usize registry would kill the new
        // incarnation.
        let m = Master::new();
        m.mark_joined(2, 3);
        assert!(!m.report_failure(2, 0), "stale-epoch report must be rejected");
        assert!(!m.is_failed(2));
        assert!(m.failed_machines().is_empty(), "nothing was broadcast");
        // A report observed at (or after) the join epoch is legitimate:
        // the *new* incarnation really did die.
        assert!(m.report_failure(2, 3));
        assert!(m.is_failed(2));
    }

    #[test]
    fn stale_broadcast_receipt_is_rejected_too() {
        let m = Master::new();
        m.mark_joined(4, 2);
        assert!(!m.mark_failed(4, 1), "stale broadcast must not mark the new incarnation");
        assert!(!m.is_failed(4));
        assert!(m.mark_failed(4, 2));
        assert!(m.is_failed(4));
    }

    #[test]
    fn mark_joined_ignores_regressions() {
        let m = Master::new();
        m.mark_joined(1, 5);
        m.mark_joined(1, 2); // an out-of-order (older) join must not lower the fence
        assert_eq!(m.joined_epoch(1), 5);
        assert!(!m.report_failure(1, 4));
        assert!(m.report_failure(1, 5));
    }
}

//! Negative controls for the lock-audit layer, in their own process:
//! the order graph and IO probe are process-global, so the manufactured
//! violations here must never share a binary with the zero-cycle /
//! zero-IO assertions over the real engine (`lock_audit.rs`).
//!
//! Without the feature this binary compiles to nothing.
#![cfg(feature = "lock-audit")]

use muppet_core::sync::{audit, Mutex};

#[test]
fn manufactured_inversion_and_locked_fsync_are_both_caught() {
    assert!(audit::enabled());
    // Two distinct construction sites → two distinct lock classes.
    let a = Mutex::new(0u64);
    let b = Mutex::new(0u64);

    // A → B, then B → A: the second ordering closes the cycle. One
    // thread, sequentially — detection needs no race, only the graph.
    {
        let _ga = a.lock();
        let _gb = b.lock();
    }
    {
        let _gb = b.lock();
        let _ga = a.lock();
    }
    let cycles = audit::order_cycles();
    assert!(!cycles.is_empty(), "the A→B→A inversion must be reported");
    assert!(
        cycles[0].contains("lock_audit_negative.rs"),
        "report names the construction sites:\n{}",
        cycles[0]
    );

    // An fsync-shaped call while holding a lock is reported…
    {
        let _g = a.lock();
        audit::blocking_io("fsync");
    }
    let io = audit::io_under_lock_events();
    assert_eq!(io.len(), 1, "locked IO must be reported: {io:?}");
    assert!(io[0].contains("fsync"), "{}", io[0]);

    // …unless the site is sanctioned via `io_allowed` (the ingest WAL's sync-each mode).
    {
        let _g = a.lock();
        audit::io_allowed(|| audit::blocking_io("fsync"));
    }
    assert_eq!(audit::io_under_lock_events().len(), 1, "sanctioned window adds no event");
}

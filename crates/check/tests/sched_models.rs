//! Schedule-perturbed runs of the four protocol models (DESIGN.md §12).
//!
//! Each correct protocol is driven through 1000+ seeded interleavings
//! and must hold its invariants on every one. Each deliberately-broken
//! variant must be *caught* within a bounded seed sweep — the negative
//! control proving the harness has teeth: if the broken build passes,
//! the harness (not the protocol) is what regressed.
//!
//! Under `--features lock-audit` the shim additionally fires
//! [`muppet_check::sched::hook`] at every lock acquisition, multiplying
//! the perturbation points beyond the models' explicit `point()` calls.

use muppet_check::models;

const SEEDS: u64 = 1000;

/// With `lock-audit` on, perturb at every shim lock acquisition too.
fn arm_hook() {
    #[cfg(feature = "lock-audit")]
    muppet_core::sync::audit::set_sched_hook(Some(muppet_check::sched::hook));
}

fn assert_clean(name: &str, seed: u64, out: &models::Outcome) {
    assert_eq!(
        out.violations, 0,
        "{name} violated its invariants under seed {seed}: {:?}",
        out.notes
    );
}

#[test]
fn group_commit_holds_over_1000_interleavings() {
    arm_hook();
    let mut syncs = 0u64;
    for seed in 0..SEEDS {
        let out = models::run_group_commit(seed, 3, 4, None);
        assert_clean("group commit", seed, &out);
        syncs += out.work;
    }
    // Shape sanity: appends actually shared syncs (fewer syncs than
    // records) while still covering everything — otherwise the model
    // degenerated into one-append-per-fsync and explored nothing.
    assert!(syncs > 0 && syncs < SEEDS * 3 * 4, "syncs = {syncs}");
}

/// Whether some seed of the sweep catches `bug` with a note containing
/// `symptom`; stops at the first catch.
fn group_commit_catches(bug: models::GroupCommitBug, symptom: &str) -> bool {
    arm_hook();
    (0..SEEDS).any(|seed| {
        let out = models::run_group_commit(seed, 3, 4, Some(bug));
        out.notes.iter().any(|n| n.contains(symptom))
    })
}

#[test]
fn group_commit_negative_control_read_after_sync_is_caught() {
    // The broken leader reads `written` after its sync instead of
    // before: a record written inside the fsync window is published as
    // durable although the sync did not cover it.
    let caught = group_commit_catches(models::GroupCommitBug::ReadAfterSync, "acked past");
    assert!(caught, "harness failed to catch the read-after-sync watermark in {SEEDS} seeds");
}

#[test]
fn group_commit_negative_control_live_only_sync_is_caught() {
    // The broken leader syncs the live segment only: a record the
    // rotation sealed before any sync reached it is acked from the page
    // cache.
    let caught = group_commit_catches(models::GroupCommitBug::SyncLiveOnly, "acked past");
    assert!(caught, "harness failed to catch the unsynced sealed tail in {SEEDS} seeds");
}

#[test]
fn checkpoint_negative_control_cursor_after_flush_is_caught() {
    // The broken checkpointer reads its cursor after the flush: records
    // written while it flushed are below the cursor and not in the flush.
    let caught = group_commit_catches(models::GroupCommitBug::CursorAfterFlush, "flush lacks");
    assert!(caught, "harness failed to catch the cursor read after the flush in {SEEDS} seeds");
}

#[test]
fn checkpoint_negative_control_drain_ignoring_dispatch_is_caught() {
    // The broken drain waits for queued events only: a run written before
    // the rotation but not yet dispatched is below the cursor and not in
    // the flush.
    let caught = group_commit_catches(models::GroupCommitBug::DrainIgnoresDispatch, "flush lacks");
    assert!(caught, "harness failed to catch the drain that ignores dispatch in {SEEDS} seeds");
}

#[test]
fn single_flight_holds_over_1000_interleavings() {
    arm_hook();
    for seed in 0..SEEDS {
        let out = models::run_single_flight(seed, 4, false);
        assert_clean("single flight", seed, &out);
        assert_eq!(out.work, 1, "exactly one backend load (seed {seed})");
    }
}

#[test]
fn single_flight_negative_control_early_resolve_is_caught() {
    arm_hook();
    // The broken variant resolves the flight before installing the
    // value: a woken waiter retries, finds neither value nor flight, and
    // elects itself a second leader — the stampede shows up as duplicate
    // backend loads.
    let caught = (0..SEEDS).any(|seed| {
        let out = models::run_single_flight(seed, 4, true);
        out.notes.iter().any(|n| n.contains("backend loads"))
    });
    assert!(caught, "harness failed to catch resolve-before-install in {SEEDS} seeds");
}

#[test]
fn flush_cas_holds_over_1000_interleavings() {
    arm_hook();
    for seed in 0..SEEDS {
        let out = models::run_flush_cas(seed, 64, false);
        assert_clean("flush CAS", seed, &out);
    }
}

#[test]
fn in_flight_count_holds_over_1000_interleavings() {
    arm_hook();
    for seed in 0..SEEDS {
        let out = models::run_in_flight(seed, 8, false);
        assert_clean("in-flight count", seed, &out);
        assert_eq!(out.work, 8, "every event finished (seed {seed})");
    }
}

#[test]
fn in_flight_negative_control_count_after_publish_is_caught() {
    arm_hook();
    // The broken deliverer pushes the event and only then counts it: a
    // worker that pops and finishes it in between gives back a unit never
    // taken, so `drain` sees nothing in flight while the worker still owes
    // its eviction retire.
    let caught = (0..SEEDS).any(|seed| {
        let out = models::run_in_flight(seed, 8, true);
        out.notes.iter().any(|n| n.starts_with("drain saw nothing"))
    });
    assert!(caught, "harness failed to catch count-after-publish in {SEEDS} seeds");
}

#[test]
fn flush_cas_negative_control_blind_mark_is_caught() {
    arm_hook();
    // The broken variant marks the CURRENT version flushed after writing
    // an older snapshot: a mutation landing during the write loses its
    // dirty bit and the final state diverges from the store.
    let caught = (0..SEEDS).any(|seed| {
        let out = models::run_flush_cas(seed, 64, true);
        out.notes.iter().any(|n| n.contains("dirty bit"))
    });
    assert!(caught, "harness failed to catch the blind flushed-version mark in {SEEDS} seeds");
}

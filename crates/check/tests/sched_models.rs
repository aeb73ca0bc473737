//! Schedule-perturbed runs of the three protocol models (DESIGN.md §12).
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
        let out = models::run_group_commit(seed, 3, 4, false);
        assert_clean("group commit", seed, &out);
        syncs += out.work;
    }
    // Shape sanity: appends actually shared syncs (fewer syncs than
    // records) while still covering everything — otherwise the model
    // degenerated into one-append-per-fsync and explored nothing.
    assert!(syncs > 0 && syncs < SEEDS * 3 * 4, "syncs = {syncs}");
}

#[test]
fn group_commit_negative_control_read_after_sync_is_caught() {
    arm_hook();
    // The broken leader reads `written` after its sync instead of
    // before: a record written inside the fsync window is published as
    // durable although the sync did not cover it. Some seed in the sweep
    // must land a write in that window; stop at the first catch.
    let caught = (0..SEEDS).any(|seed| {
        let out = models::run_group_commit(seed, 3, 4, true);
        out.notes.iter().any(|n| n.contains("acked past"))
    });
    assert!(caught, "harness failed to catch the read-after-sync watermark in {SEEDS} seeds");
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

//! The allocation budget of a warm reference replay. It has a test binary
//! of its own because the count is process-wide: the reference may map
//! tweets on a helper thread (DESIGN.md §3, "Mapping ahead"), and a
//! per-thread count would not see that thread's allocations. Nothing else
//! runs in this process while the count is taken.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use muppet_apps::reputation::{self, ReputationMapper, ReputationScorer};
use muppet_core::reference::ReferenceExecutor;
use muppet_workloads::tweets::TweetGenerator;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a static atomic that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_warm_reference_tweet_allocates_nothing() {
    const TWEETS: usize = 20_000;
    let wf = reputation::workflow();
    let mut exec = ReferenceExecutor::new(&wf);
    exec.register_mapper(ReputationMapper::new());
    exec.register_updater(ReputationScorer::new());
    let pool = TweetGenerator::new(5, 2_000, 1.0).take(reputation::TWEET_STREAM, TWEETS);
    // The first pass creates every slate and grows every queue.
    exec.push_external_batch(reputation::TWEET_STREAM, pool.clone());
    exec.run_to_completion().unwrap();
    let cold = exec.stats();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    exec.push_external_batch(reputation::TWEET_STREAM, pool);
    let stats = exec.run_to_completion().unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(stats.emitted, 2 * cold.emitted, "the warm pass re-runs the same tweets");
    let per_tweet = allocations as f64 / TWEETS as f64;
    assert!(per_tweet <= 0.01, "{allocations} allocations over {TWEETS} warm tweets");
}

//! The allocation floor of a warm in-process engine. It has a test binary
//! of its own because the count is process-wide: the engine maps and
//! updates on its worker threads, and a per-thread count would see only
//! the submitting thread. Nothing else runs in this process while the
//! count is taken.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use muppet::apps::reputation::{self, ReputationMapper, ReputationScorer};
use muppet::prelude::*;
use muppet::workloads::tweets::TweetGenerator;

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
fn a_warm_in_process_tweet_allocates_about_once() {
    const TWEETS: usize = 20_000;
    let ops = OperatorSet::new().mapper(ReputationMapper::new()).updater(ReputationScorer::new());
    // Throttled, not dropped: every tweet of both passes is worked.
    let cfg = EngineConfig {
        machines: 2,
        overflow: OverflowPolicy::SourceThrottle,
        ..EngineConfig::default()
    };
    let engine = Engine::start(reputation::workflow(), ops, cfg, None).unwrap();
    let pool = TweetGenerator::new(5, 2_000, 1.0).take(reputation::TWEET_STREAM, TWEETS);
    // The first pass creates every slate and grows every queue.
    let warm = pool.clone();
    for tweet in pool {
        engine.submit(tweet).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(60)));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for tweet in warm {
        engine.submit(tweet).unwrap();
    }
    assert!(engine.drain(Duration::from_secs(60)));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let stats = engine.stats();
    assert_eq!((stats.submitted, stats.dropped_overflow), (2 * TWEETS as u64, 0));
    // The floor is one allocation per tweet. On 2 vCPUs, 65 runs (idle and
    // beside a busy loop) read 1.0000–1.0007.
    let per_tweet = allocations as f64 / TWEETS as f64;
    println!("{per_tweet:.4} allocations per warm tweet");
    assert!(per_tweet <= 1.01, "{allocations} allocations over {TWEETS} warm tweets");
    engine.shutdown();
}

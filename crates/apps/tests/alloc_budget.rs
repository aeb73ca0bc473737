//! Allocation budgets of the per-event paths: the event decoder, the tweet
//! generator and a mapper step. A counting global allocator tallies each
//! thread's heap allocations, so tests running in parallel do not see each
//! other's. The reference executor's budget is in `alloc_reference.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use muppet_apps::reputation::{self, ReputationMapper};
use muppet_core::codec::{get_event, put_event};
use muppet_core::event::{Event, Key};
use muppet_core::operator::{Mapper, VecEmitter};
use muppet_workloads::tweets::TweetGenerator;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread's last frees and allocations run while its
    // locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its result with the allocations this thread made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn decoding_a_short_key_event_allocates_its_value_only() {
    let event = Event::new("S2", 7, Key::from("user-4711"), &br#"{"delta":1}"#[..]);
    let mut wire = Vec::new();
    put_event(&mut wire, &event);
    put_event(&mut wire, &event);
    let (first, n) = get_event(&wire, None).unwrap();
    // The next entry of a frame shares the previous entry's stream id.
    let (decoded, allocations) = counted(|| get_event(&wire[n..], Some(&first.stream)).unwrap());
    assert_eq!(decoded.0, event);
    assert!(allocations <= 1, "{allocations} allocations to decode one event");
}

#[test]
fn the_generator_writes_a_tweet_in_few_allocations() {
    const TWEETS: u64 = 20_000;
    let mut gen = TweetGenerator::new(9, 50_000, 1.0);
    gen.next_event(reputation::TWEET_STREAM);
    let mut kept = Vec::with_capacity(TWEETS as usize);
    let ((), allocations) = counted(|| {
        for _ in 0..TWEETS {
            kept.push(gen.next_event(reputation::TWEET_STREAM));
        }
    });
    assert!(allocations <= 6 * TWEETS, "{allocations} allocations over {TWEETS} tweets");
}

#[test]
fn a_mapper_step_allocates_only_its_records() {
    let wf = reputation::workflow();
    let mapper = ReputationMapper::new();
    let tweet = Event::new(
        reputation::TWEET_STREAM,
        1,
        Key::from("user-1"),
        &br#"{"id":1,"user":"user-1","text":"hi","retweet_of":"user-2"}"#[..],
    );
    let ((), allocations) = counted(|| {
        let mut emitter = VecEmitter::with_streams(wf.streams());
        mapper.map(&mut emitter, &tweet);
        let records = emitter.take();
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.stream.as_str() == reputation::DELTA_STREAM));
    });
    assert_eq!(allocations, 1, "the records vector is the one allocation");
}

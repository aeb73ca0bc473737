//! Property-based tests for the runtime's data structures.

use muppet_obs::Histogram;
use muppet_runtime::dispatch::{choose_queue, queue_pair};
use muppet_runtime::lru::LruMap;
use muppet_runtime::overflow::{OverflowAction, OverflowPolicy};
use proptest::prelude::*;

proptest! {
    // ---------- two-choice dispatch ----------

    #[test]
    fn queue_pair_always_valid_and_distinct(route in any::<u64>(), threads in 1usize..64) {
        let (p, s) = queue_pair(route, threads);
        prop_assert!(p < threads);
        prop_assert!(s < threads);
        if threads > 1 {
            prop_assert_ne!(p, s, "distinct whenever possible");
        }
    }

    #[test]
    fn chosen_queue_is_always_primary_or_secondary(
        route in any::<u64>(),
        threads in 1usize..16,
        lens in proptest::collection::vec(0usize..1000, 16),
        marks in proptest::collection::vec(proptest::option::of(any::<u64>()), 16),
    ) {
        let (p, s) = queue_pair(route, threads);
        let choice = choose_queue(route, &marks[..threads], &lens[..threads], threads);
        prop_assert!(choice == p || choice == s,
            "the §4.5 guarantee: at most two queues per route");
    }

    #[test]
    fn in_flight_route_always_wins(route in any::<u64>(), threads in 2usize..16,
                                   lens in proptest::collection::vec(0usize..1000, 16)) {
        let (p, s) = queue_pair(route, threads);
        // Pin via primary.
        let mut marks = vec![None; threads];
        marks[p] = Some(route);
        prop_assert_eq!(choose_queue(route, &marks, &lens[..threads], threads), p);
        // Pin via secondary (primary idle).
        let mut marks = vec![None; threads];
        marks[s] = Some(route);
        prop_assert_eq!(choose_queue(route, &marks, &lens[..threads], threads), s);
    }

    // ---------- LRU vs model ----------

    #[test]
    fn lru_matches_model_under_random_ops(ops in proptest::collection::vec(
        (0u8..4, 0u16..64, any::<u32>()), 0..300)) {
        let mut lru: LruMap<u16, u32> = LruMap::new();
        let mut model: std::collections::HashMap<u16, u32> = Default::default();
        // Recency model: vector of keys, most recent last.
        let mut recency: Vec<u16> = Vec::new();
        let touch = |recency: &mut Vec<u16>, k: u16| {
            recency.retain(|&x| x != k);
            recency.push(k);
        };
        for (op, key, value) in ops {
            match op {
                0 => {
                    prop_assert_eq!(lru.insert(key, value), model.insert(key, value));
                    touch(&mut recency, key);
                }
                1 => {
                    prop_assert_eq!(lru.get(&key).copied(), model.get(&key).copied());
                    if model.contains_key(&key) {
                        touch(&mut recency, key);
                    }
                }
                2 => {
                    prop_assert_eq!(lru.remove(&key), model.remove(&key));
                    recency.retain(|&x| x != key);
                }
                _ => {
                    let expected = recency.first().copied();
                    let got = lru.pop_lru();
                    prop_assert_eq!(got.as_ref().map(|(k, _)| *k), expected);
                    if let Some(k) = expected {
                        model.remove(&k);
                        recency.remove(0);
                    }
                }
            }
            prop_assert_eq!(lru.len(), model.len());
        }
        // Final drain order equals the recency model (LRU first).
        let mut drained = Vec::new();
        while let Some((k, _)) = lru.pop_lru() {
            drained.push(k);
        }
        prop_assert_eq!(drained, recency);
    }

    // ---------- histogram ----------

    #[test]
    fn histogram_percentiles_are_monotone_and_bound_samples(
        samples in proptest::collection::vec(0u64..10_000_000, 1..300)) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let p50 = h.percentile_us(0.5);
        let p95 = h.percentile_us(0.95);
        let p99 = h.percentile_us(0.99);
        prop_assert!(p50 <= p95 && p95 <= p99, "percentiles monotone: {p50} {p95} {p99}");
        let max = *samples.iter().max().unwrap();
        // Bucketed upper bound: within 2× of the true max.
        prop_assert!(h.percentile_us(1.0) <= max.max(1) * 2);
        let mean = h.mean_us();
        let true_mean = samples.iter().sum::<u64>() / samples.len() as u64;
        prop_assert_eq!(mean, true_mean);
    }

    // ---------- sharded slate cache vs single shard ----------

    #[test]
    fn sharded_cache_reads_match_single_shard(
        shards in 1usize..16,
        writes in proptest::collection::vec(("[a-h]", "[0-9a-f]{1,6}"), 1..60),
    ) {
        use muppet_runtime::cache::{FlushPolicy, NullBackend, SlateCache};
        use muppet_core::event::Key;
        use std::sync::Arc;
        // Ample capacity (no evictions): splitting the lock must be
        // invisible — every read returns exactly what a single-shard
        // cache returns, and entry accounting agrees.
        let single = SlateCache::new(1024, FlushPolicy::OnEvict, Arc::new(NullBackend));
        let sharded =
            SlateCache::with_shards(1024, FlushPolicy::OnEvict, Arc::new(NullBackend), shards);
        let name: Arc<str> = Arc::from("U1");
        for (i, (key, value)) in writes.iter().enumerate() {
            let key = Key::from(key.as_str());
            for cache in [&single, &sharded] {
                let slot = cache.get_or_load(0, &name, &key, None, i as u64);
                let mut state = slot.state.lock();
                state.slate.replace(value.clone().into_bytes());
                cache.note_write(&slot, &mut state, i as u64);
            }
        }
        for (key, _) in &writes {
            let key = Key::from(key.as_str());
            prop_assert_eq!(single.read(0, &key), sharded.read(0, &key));
        }
        let (a, b) = (single.stats(), sharded.stats());
        prop_assert_eq!(a.entries, b.entries);
        prop_assert_eq!(a.hits + a.misses, b.hits + b.misses);
        prop_assert_eq!(a.dirty, b.dirty);
        let mut keys_a = single.keys_of(0);
        let mut keys_b = sharded.keys_of(0);
        keys_a.sort();
        keys_b.sort();
        prop_assert_eq!(keys_a, keys_b);
    }

    // ---------- overflow decisions ----------

    #[test]
    fn overflow_decisions_are_total_and_loop_free(external in any::<bool>(),
                                                  redirected in any::<bool>(),
                                                  stream in "[a-z]{1,8}") {
        for policy in [
            OverflowPolicy::DropAndLog,
            OverflowPolicy::OverflowStream(stream.clone()),
            OverflowPolicy::SourceThrottle,
        ] {
            let action = policy.decide(external, redirected);
            // A redirected event must never be redirected again (loop bound).
            if redirected {
                prop_assert!(!matches!(action, OverflowAction::Redirect(_)));
            }
            // Only external events may block the producer.
            if !external {
                prop_assert!(!matches!(action, OverflowAction::BlockProducer));
            }
        }
    }
}

// ---------- combiner fold-equivalence (DESIGN.md §14) ----------
//
// The combiner contract, engine-checked: with `EngineConfig::combine`
// on (and, in half the cases, dynamic hot-key splitting armed), an
// arbitrary interleaving of count events — optionally with a machine
// joining mid-stream, which exercises the subslate handoff path — must
// leave every slate bit-for-bit identical to per-event delivery.
mod fold_equivalence {
    use std::collections::BTreeMap;
    use std::time::Duration;

    use muppet_core::event::{Event, Key};
    use muppet_core::operator::{combine_decimal_sum, Emitter, FnUpdater, Updater};
    use muppet_core::slate::Slate;
    use muppet_core::workflow::Workflow;
    use muppet_runtime::engine::{Engine, EngineConfig, EngineKind, OperatorSet};
    use muppet_runtime::overflow::OverflowPolicy;
    use proptest::prelude::*;

    fn count_workflow() -> Workflow {
        let mut b = Workflow::builder("fold-eq");
        b.external_stream("S1");
        b.updater("counter", &["S1"]);
        b.build().unwrap()
    }

    fn counting_updater() -> impl Updater {
        FnUpdater::new("counter", |_: &mut dyn Emitter, ev: &Event, slate: &mut Slate| {
            let n: u64 = std::str::from_utf8(ev.value.as_ref())
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .unwrap_or(0);
            slate.incr_counter(n);
        })
        .with_combiner(combine_decimal_sum)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn folded_delivery_is_bit_for_bit_per_event(
            ranks in proptest::collection::vec((0usize..10, 1u64..5), 1..200),
            split_threshold in prop_oneof![Just(0u64), Just(8u64)],
            join_midstream in any::<bool>(),
        ) {
            let events: Vec<Event> = ranks
                .iter()
                .enumerate()
                .map(|(i, (rank, v))| {
                    Event::new("S1", (i + 1) as u64, Key::from(format!("k{rank}")),
                               v.to_string().into_bytes())
                })
                .collect();
            // Per-event ground truth: the decimal sum per key, rendered
            // exactly as the updater renders it.
            let mut truth: BTreeMap<String, u64> = BTreeMap::new();
            for (rank, v) in &ranks {
                *truth.entry(format!("k{rank}")).or_insert(0) += v;
            }
            let cfg = EngineConfig {
                kind: EngineKind::Muppet2,
                machines: 2,
                workers_per_machine: 2,
                workers_per_op: 2,
                overflow: OverflowPolicy::SourceThrottle,
                queue_capacity: 512,
                combine: true,
                hot_split_threshold: split_threshold,
                ..EngineConfig::default()
            };
            let engine = Engine::start(
                count_workflow(),
                OperatorSet::new().updater(counting_updater()),
                cfg,
                None,
            )
            .unwrap();
            if join_midstream {
                let (first, second) = events.split_at(events.len() / 2);
                engine.submit_many(first.to_vec()).unwrap();
                engine.join_machine().unwrap();
                engine.submit_many(second.to_vec()).unwrap();
            } else {
                engine.submit_many(events).unwrap();
            }
            prop_assert!(engine.drain(Duration::from_secs(60)), "engine must drain");
            for (key, total) in &truth {
                let bytes = engine.read_slate("counter", &Key::from(key.as_str()));
                prop_assert_eq!(
                    bytes.as_deref(),
                    Some(total.to_string().as_bytes()),
                    "key {} must read back bit-for-bit", key
                );
            }
            let stats = engine.shutdown();
            prop_assert_eq!(stats.dropped_overflow, 0);
            prop_assert_eq!(stats.lost_machine_failure + stats.lost_in_queues, 0);
        }
    }
}

// ---------- deferred eviction vs a model (DESIGN.md §9) ----------
//
// A capacity-8 cache over a recording backend takes a random sequence of
// touches, prefetches, retires, sweeps, refused store calls and hand-offs. Whatever
// the interleaving, a key's count is never lost (it is resident, or it is
// in the store); while the store accepts writes, residency stays within
// capacity + the backlog bound (a refused write keeps its dirty victims
// resident instead — nothing bounds that but the store recovering); and
// the barriers converge the store onto the model.
mod deferred_eviction {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    use muppet_core::event::Key;
    use muppet_core::sync::Mutex;
    use muppet_runtime::cache::{FlushItem, FlushPolicy, SlateBackend, SlateCache};
    use proptest::prelude::*;
    use proptest::TestRng;

    const CAPACITY: usize = 8;
    const KEYS: u64 = 24;

    /// Map store whose next write call can be refused wholesale.
    #[derive(Default)]
    struct Recording {
        data: Mutex<HashMap<Key, Vec<u8>>>,
        refuse_next: AtomicBool,
        refused: AtomicU64,
    }

    impl SlateBackend for Recording {
        fn load_many(&self, items: &[(Arc<str>, Key)], _now: u64) -> Vec<Option<Vec<u8>>> {
            let data = self.data.lock();
            items.iter().map(|(_, key)| data.get(key).cloned()).collect()
        }
        fn store_many(&self, items: &[FlushItem], _now: u64) -> Vec<bool> {
            let refuse = self.refuse_next.swap(false, Ordering::AcqRel);
            self.refused.fetch_add(u64::from(refuse), Ordering::Relaxed);
            if !refuse {
                let mut data = self.data.lock();
                items.iter().for_each(|i| _ = data.insert(i.key.clone(), i.bytes.to_vec()));
            }
            vec![!refuse; items.len()]
        }
    }

    fn count(bytes: Option<Vec<u8>>) -> u64 {
        bytes.map_or(0, |b| String::from_utf8(b).unwrap().parse().unwrap())
    }

    proptest! {
        #[test]
        fn no_interleaving_loses_a_count_or_breaks_the_bound(seed in any::<u64>()) {
            let backend = Arc::new(Recording::default());
            let cache = SlateCache::new(CAPACITY, FlushPolicy::OnEvict, Arc::clone(&backend) as _);
            let name: Arc<str> = Arc::from("U1");
            let mut model: HashMap<Key, u64> = HashMap::new();
            let mut rng = TestRng::from_label("deferred_eviction", seed);
            let mut refused_before = 0;
            let touch = |model: &mut HashMap<Key, u64>, key: Key, now: u64| {
                let slot = cache.get_or_load(0, &name, &key, None, now);
                let mut state = slot.state.lock();
                state.slate.incr_counter(1);
                cache.note_write(&slot, &mut state, now);
                *model.entry(key).or_insert(0) += 1;
            };
            for step in 0..400u64 {
                let key = Key::from(format!("k{}", rng.below(KEYS)));
                match rng.below(10) {
                    0 => drop(cache.retire_evicted(step)),
                    1 => drop(cache.flush_dirty(step)),
                    2 => backend.refuse_next.store(true, Ordering::Release),
                    3 => {
                        // Store-backed hand-off, as `membership_prepare`
                        // runs it: flush the moved slate; keep it on failure.
                        for (k, slot) in cache.take_matching(0, &|k: &Key| *k == key) {
                            if !cache.flush_slot_now(&slot, step) {
                                cache.insert_slot(0, k, slot);
                            }
                        }
                    }
                    4 => {
                        // A drained batch announcing the keys it will touch.
                        let keys: Vec<Key> = (0..rng.below(12))
                            .map(|_| Key::from(format!("k{}", rng.below(KEYS))))
                            .collect();
                        let wanted: Vec<_> = keys.iter().map(|k| (0, &name, k, None)).collect();
                        cache.prefetch(&wanted, step);
                    }
                    _ => touch(&mut model, key, step),
                }
                // The store "accepts writes" from the moment the cache is
                // back within capacity until the next refused call.
                let resident = cache.stats().entries as usize;
                if resident <= CAPACITY {
                    refused_before = backend.refused.load(Ordering::Relaxed);
                }
                let accepting = backend.refused.load(Ordering::Relaxed) == refused_before;
                prop_assert!(
                    !accepting || resident <= 2 * CAPACITY,
                    "seed {seed} step {step}: {resident} resident"
                );
                for (k, &n) in &model {
                    let held = cache.read(0, k).or_else(|| backend.load("U1", k, 0));
                    prop_assert_eq!(count(held), n, "seed {} step {}: {:?} lost counts", seed, step, k);
                }
            }
            // Barriers: one more miss re-selects whatever a failed hand-off
            // put back over capacity, then sweep and retire.
            backend.refuse_next.store(false, Ordering::Release);
            touch(&mut model, Key::from("last"), 400);
            cache.flush_dirty(401);
            cache.retire_evicted(401);
            let stats = cache.stats();
            prop_assert!(stats.entries as usize <= CAPACITY, "seed {seed}: {stats:?}");
            prop_assert_eq!((stats.dirty, stats.evict_backlog), (0, 0), "seed {}", seed);
            for (k, &n) in &model {
                prop_assert_eq!(count(backend.load("U1", k, 0)), n, "seed {}: {:?} at rest", seed, k);
            }
        }
    }
}

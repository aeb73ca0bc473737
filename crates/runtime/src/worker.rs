//! The worker (§4.1, §4.5): a thread that drains its machine's queue in
//! batches, folds combinable runs, then steps one event at a time — its
//! map, or its update under a membership read guard of its own — and sends
//! the step's emissions on before its in-flight unit settles. Also the
//! machine's interval flusher (§4.2) and the dead-letter hand-off for
//! panicking operators.
//! DESIGN.md §3.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use muppet_core::event::{EmitRecord, Event, Key};
use muppet_core::operator::VecEmitter;
use muppet_core::workflow::OpId;
use muppet_net::frame::{fold_runs, WireEvent};
use muppet_net::transport::MachineId;
use muppet_obs::Level;

use crate::cache::{FlushPolicy, SlateCache};
use crate::dlq::DeadLetter;
use crate::engine::{Machine, OpInstance, Queued, Shared, DRAIN_BATCH};
use crate::placement::Placement;
use crate::send::fresh;
use crate::split::SPLIT_FOLD_PROBE_MIN;

/// Spawn machine `m`'s threads: one worker per queue (a machine of
/// another process has none) and, when the interval policy flushes into
/// an attached backend, its flusher. With an ingest WAL there is no
/// flusher: store slate state may only advance together with the replay
/// cursor (at `Engine::checkpoint`), or a restart would replay events
/// whose effects were already flushed and double-count them.
pub(crate) fn spawn_machine(shared: &Arc<Shared>, m: usize) -> Vec<JoinHandle<()>> {
    let threads = shared.machine(m).map_or(0, |machine| machine.queues.len());
    let mut handles: Vec<_> = (0..threads)
        .map(|t| {
            let shared = Arc::clone(shared);
            spawn(format!("muppet-m{m}-w{t}"), move || shared.worker_loop(m, t))
        })
        .collect();
    if let FlushPolicy::IntervalMs(ms) = shared.cfg.flush {
        if shared.has_backend && shared.ingest_log.is_none() && shared.is_local(m) {
            let shared = Arc::clone(shared);
            let interval = Duration::from_millis(ms.max(1));
            handles.push(spawn(format!("muppet-flusher-{m}"), move || {
                shared.flusher_loop(m, interval)
            }));
        }
    }
    handles
}

fn spawn(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        // lint: allow(no-unwrap-in-prod) — spawn fails only on OS thread exhaustion; fail fast
        .expect("spawn engine thread")
}

/// What one event's step did.
enum Step {
    /// It ran; these are its emissions.
    Processed(Vec<EmitRecord>),
    /// Its key is owned elsewhere now: it goes on to this owner.
    Forwarded(Placement),
    /// Its operator panicked, with this payload.
    Poisoned(Box<dyn std::any::Any + Send>),
}

impl Shared {
    fn worker_loop(&self, machine_id: usize, thread: usize) {
        // A safety ceiling, not a poll: every push, `shutdown` and
        // `kill_machine` notify the queue, so an idle worker stays parked. A
        // stop flag set between the check below and the wait costs one
        // ceiling, once.
        let park = Duration::from_millis(100);
        // lint: allow(no-unwrap-in-prod) — worker threads are spawned per existing machine index
        let machine = self.machine(machine_id).expect("worker spawned for an existing machine");
        let queue = &machine.queues[thread];
        let mut batch: Vec<Queued> = Vec::with_capacity(DRAIN_BATCH);
        // Remote peers this worker has sent to since it last went idle.
        let mut touched: Vec<MachineId> = Vec::new();
        loop {
            if !machine.alive.load(Ordering::Acquire) {
                return; // crashed machine: thread dies with it
            }
            if self.stopping.load(Ordering::Acquire) {
                // Drain remaining work, then exit (the shutdown flush
                // retires whatever is still waiting for eviction).
                if queue.pop_many(&mut batch, DRAIN_BATCH, Duration::ZERO) == 0 {
                    return;
                }
                let owed =
                    self.process_batch(&machine, machine_id, thread, &mut batch, &mut touched);
                self.settle_retire(&machine, thread, owed, false);
                continue;
            }
            let n = queue.pop_many(&mut batch, DRAIN_BATCH, park);
            if n > 0 {
                self.stats.drain.record(n as u64);
                let owed =
                    self.process_batch(&machine, machine_id, thread, &mut batch, &mut touched);
                // About to park: this producer has nothing more to add, so
                // its emissions leave now — and then, with nobody waiting
                // on it, it writes back the slates its misses chose for
                // eviction. With more queued it keeps draining and both
                // keep accumulating into fuller batches.
                let idle = queue.len_hint() == 0;
                if !touched.is_empty() && idle {
                    self.flush_events(&touched);
                    touched.clear();
                }
                self.settle_retire(&machine, thread, owed, idle);
            }
        }
    }

    /// Take one in-flight unit for the eviction retire this worker now
    /// owes, if its cache has victims waiting and it holds none yet.
    /// Called only while an event of the current batch still holds its
    /// own unit, so `pending` never touches zero between a miss that chose
    /// a victim and the retire that writes it: `drain() == true` implies
    /// no retire is in flight. The no-eviction path pays one relaxed load.
    fn claim_retire(&self, cache: &SlateCache, owed: &mut bool) {
        if !*owed && cache.evict_backlog() > 0 {
            self.ledger.admit(1);
            *owed = true;
        }
    }

    /// Retire the eviction backlog when the worker is about to park (its
    /// emissions have already fanned out), then give back the unit
    /// [`Shared::claim_retire`] took.
    fn settle_retire(&self, machine: &Machine, thread: usize, owed: bool, idle: bool) {
        if !owed {
            return;
        }
        if let (true, Some(cache)) = (idle, machine.cache_of(thread)) {
            cache.retire_evicted(self.now_us());
        }
        self.ledger.settle(1);
    }

    /// Admit one processed event's emissions (ts = input ts + 1, §3) and
    /// settle its in-flight unit — only once they are enqueued, so
    /// `drain`/throttling never observe a gap.
    fn finish_event(&self, ev: &WireEvent, records: Vec<EmitRecord>, touched: &mut Vec<MachineId>) {
        let stages = &self.stats.stages;
        let fanout_t0 = (!records.is_empty() && stages.sampler_fanout.hit()).then(|| self.now_us());
        for rec in records {
            self.stats.emitted.inc();
            if self.wf.is_external(rec.stream.as_str()) || !self.wf.has_stream(rec.stream.as_str())
            {
                self.stats.publish_errors.inc();
                self.drop_log.log(format!(
                    "illegal publish to {} from {}",
                    rec.stream,
                    self.wf.op(ev.op).name
                ));
                continue;
            }
            let (stream, key, value) = (rec.stream, rec.key, rec.value);
            let out = Event { stream, ts: ev.event.ts + 1, key, value, seq: 0 };
            self.fan_out(fresh(out, ev.injected_us, ev.redirected, false), touched);
        }
        if let Some(t0) = fanout_t0 {
            stages.fanout.record(self.now_us().saturating_sub(t0));
        }
        self.ledger.settle(1);
    }

    /// Process one drained batch: fold it, fetch its cold slates in one
    /// round trip when store-backed ([`Shared::prefetch_batch`]), then
    /// [`Shared::step`] each event and perform what the step returned
    /// before the next event starts. Returns whether the worker now owes
    /// an eviction retire, i.e. holds the in-flight unit
    /// [`Shared::claim_retire`] took and must hand it to
    /// [`Shared::settle_retire`].
    fn process_batch(
        &self,
        machine: &Machine,
        machine_id: usize,
        thread: usize,
        batch: &mut Vec<Queued>,
        touched: &mut Vec<MachineId>,
    ) -> bool {
        if self.cfg.combine && batch.len() > 1 {
            self.fold_drained(machine.cache_of(thread), batch);
        }
        let mut retire_owed = false;
        if let Some(cache) = machine.cache_of(thread) {
            if self.has_backend && batch.len() > 1 && !self.splits.enabled() {
                self.prefetch_batch(cache, machine_id, batch);
            }
            // Victims left over from earlier batches (the queue was not
            // idle then): claimed here, while every event of this batch is
            // in flight.
            self.claim_retire(cache, &mut retire_owed);
        }
        for (mut ev, enqueued_us) in batch.drain(..) {
            // Owner-side split rewrite: events that were already in flight
            // (or forwarded) when a split installed still fan out. The
            // rewritten subkey re-routes in the step like any other key.
            self.splits.rewrite(ev.op, &mut ev.event.key, || self.now_us());
            // Muppet 1.0 invariant: a worker is bound to exactly one function.
            debug_assert!(
                machine.thread_ops[thread].is_none() || machine.thread_ops[thread] == Some(ev.op),
                "1.0 worker received an event for a function it does not run"
            );
            let route = ev.event.key.route_hash(&self.wf.op(ev.op).name);
            machine.in_flight[thread].store(route.wrapping_add(1), Ordering::Release);
            if enqueued_us > 0 {
                // The queue-wait span: stamped at local enqueue by a
                // sampler hit, closed when the drain reaches the event.
                self.stats.stages.queue_wait.record(self.now_us().saturating_sub(enqueued_us));
            }
            let step = self.step(machine, machine_id, thread, &ev, route, &mut retire_owed);
            machine.in_flight[thread].store(0, Ordering::Release);
            match step {
                Step::Processed(records) => {
                    self.stats.processed.inc();
                    self.finish_event(&ev, records, touched);
                }
                Step::Forwarded(owner) => {
                    self.forward(ev, owner, touched);
                    self.ledger.settle(1);
                }
                // Poison event: contain the panic (an uncontained one kills
                // this worker thread and wedges `drain` on the stuck pending
                // count), discard any partial emissions, park the event,
                // keep draining.
                Step::Poisoned(payload) => self.dead_letter(ev, payload),
            }
        }
        retire_owed
    }

    /// Run one event's map or update and say what it did; the caller
    /// performs the result. A mapper takes no lock. An updater checks
    /// ownership under a membership read guard held across the whole slate
    /// mutation and dropped when the step returns: a membership change
    /// (write lock) lands between two events, never mid-update — so the
    /// prepare-phase flush sees every completed write, and no worker
    /// mutates a slate its machine has already handed off. Fan-out
    /// re-enters that lock on the local send path, so it runs after the
    /// step, not inside it.
    fn step(
        &self,
        machine: &Machine,
        machine_id: usize,
        thread: usize,
        ev: &WireEvent,
        route: u64,
        retire_owed: &mut bool,
    ) -> Step {
        let stages = &self.stats.stages;
        let (op, key) = (ev.op, &ev.event.key);
        let (updater, name, ttl_secs) = match &self.ops[op] {
            OpInstance::Map(mapper) => {
                let service_t0 = stages.sampler_service.hit().then(|| self.now_us());
                let mut emitter = VecEmitter::with_streams(self.wf.streams());
                if let Err(payload) =
                    catch_unwind(AssertUnwindSafe(|| mapper.map(&mut emitter, &ev.event)))
                {
                    return Step::Poisoned(payload);
                }
                if let Some(t0) = service_t0 {
                    stages.service[op].record(self.now_us().saturating_sub(t0));
                }
                return Step::Processed(emitter.take());
            }
            OpInstance::Update { updater, name, ttl_secs } => (updater, name, *ttl_secs),
        };
        let membership = self.membership.read();
        if let Some(owner) = membership.owner(op, route).filter(|at| at.machine != machine_id) {
            return Step::Forwarded(owner);
        }
        // lint: allow(no-unwrap-in-prod) — 2.0 machines build a central cache, 1.0 one per updater thread
        let cache = machine.cache_of(thread).expect("updater thread has a cache");
        cache.offer_hot(op, key);
        let now = self.now_us();
        self.splits.sample(op, key, || cache.hot_estimate(op, key), now);
        let service_sampled = stages.sampler_service.hit();
        let slot = cache.get_or_load(op, name, key, ttl_secs, now);
        // A miss may have chosen victims.
        self.claim_retire(cache, retire_owed);
        let mut emitter = VecEmitter::with_streams(self.wf.streams());
        let outcome = {
            let mut state = slot.state.lock();
            let r = catch_unwind(AssertUnwindSafe(|| {
                updater.update(&mut emitter, &ev.event, &mut state.slate)
            }));
            // A panicking updater gets no dirty-marking: its half-mutated
            // slate must never be flushed.
            if r.is_ok() {
                cache.note_write(&slot, &mut state, now);
            }
            r
        };
        if let Err(payload) = outcome {
            // The updater may have left the slate half-mutated, so evict the
            // cached slot — the next touch refaults the last good version
            // from the store.
            cache.discard(op, key);
            return Step::Poisoned(payload);
        }
        if service_sampled {
            // Service span: slate fetch (cache or store) + the update under
            // the slot lock.
            stages.service[op].record(self.now_us().saturating_sub(now));
        }
        self.stats.latency.record(self.now_us().saturating_sub(ev.injected_us));
        Step::Processed(emitter.take())
    }

    /// Map-side pre-aggregation over one drained batch: [`fold_runs`]
    /// under the drain key, so a hot key's burst becomes one slate
    /// mutation instead of one per event — the win is the slot lock and
    /// the updater call, not wire bytes. Non-combining operators pass
    /// through untouched. Absorbed events settle here and are credited to
    /// the hot-key sketch in one weighted offer per ⟨op, key⟩: the
    /// splitter's threshold is denominated in *events*, and without the
    /// credit a deeply-folded hot key would look cold.
    fn fold_drained(&self, cache: Option<&Arc<SlateCache>>, batch: &mut Vec<Queued>) {
        let carriers = fold_runs(
            batch.drain(..),
            |ev: &WireEvent| self.combiner(ev.op).map(|_| ev.run_key(false)),
            |op, acc, next| self.combiner(op)?.combine(acc, next),
        );
        let mut absorbed: HashMap<(OpId, Key), u64> = HashMap::new();
        for ((ev, enqueued_us), n) in carriers {
            if n > 1 {
                *absorbed.entry((ev.op, ev.event.key.clone())).or_insert(0) += n - 1;
            }
            batch.push((ev, enqueued_us));
        }
        let total: u64 = absorbed.values().sum();
        if total == 0 {
            return;
        }
        self.stats.combined_events.add(total);
        self.ledger.settle(total);
        let Some(cache) = cache else { return };
        let now = self.now_us();
        for ((op, key), n) in absorbed {
            cache.offer_hot_n(op, &key, n);
            if n >= SPLIT_FOLD_PROBE_MIN {
                self.splits.probe(op, &key, || cache.hot_estimate(op, &key), now);
            }
        }
    }

    /// Load the slates a drained batch is about to miss on in ONE store
    /// round trip: its locally-owned updater keys go to
    /// [`SlateCache::prefetch`], under the membership read guard like any
    /// other load (a slate fetched for a key that moved away meanwhile
    /// would sit in the cache stale).
    fn prefetch_batch(&self, cache: &SlateCache, machine_id: usize, batch: &[Queued]) {
        let membership = self.membership.read();
        let wanted: Vec<_> = batch
            .iter()
            .filter_map(|(ev, _)| {
                let OpInstance::Update { name, ttl_secs, .. } = &self.ops[ev.op] else {
                    return None;
                };
                let route = ev.event.key.route_hash(&self.wf.op(ev.op).name);
                let owner = membership.owner(ev.op, route).map(|at| at.machine);
                (owner == Some(machine_id)).then_some((ev.op, name, &ev.event.key, *ttl_secs))
            })
            .collect();
        cache.prefetch(&wanted, self.now_us());
    }

    /// Park a poison event in the dead-letter queue and settle its unit —
    /// the worker thread survives, `drain` still converges, and the event
    /// stays inspectable via `GET /dlq`.
    fn dead_letter(&self, ev: WireEvent, payload: Box<dyn std::any::Any + Send>) {
        let reason = payload.downcast_ref::<&str>().map(|s| s.to_string());
        let reason = reason.or_else(|| payload.downcast_ref::<String>().cloned());
        let reason = reason.unwrap_or_else(|| "panic (non-string payload)".into());
        self.stats.dead_lettered.inc();
        self.drop_log.log(format!(
            "poison event dead-lettered at {}: key={:?} ({reason})",
            self.wf.op(ev.op).name,
            ev.event.key
        ));
        if self.logger.enabled(Level::Warn) {
            self.logger.warn(
                "operator panic contained; event dead-lettered",
                &[("op", (ev.op as u64).into()), ("dlq_depth", (self.dlq.depth() as u64).into())],
            );
        }
        let letter = DeadLetter { op: ev.op, event: ev.event, reason, at_us: self.now_us() };
        if self.dlq.push(letter) {
            self.stats.dlq_evicted.inc();
        }
        self.ledger.settle(1);
    }

    fn flusher_loop(&self, machine_id: usize, interval: Duration) {
        // lint: allow(no-unwrap-in-prod) — flushers are spawned per existing machine index
        let machine = self.machine(machine_id).expect("flusher spawned for an existing machine");
        loop {
            // Parked until the tick: `Engine::stop` raises the flag, then
            // unparks, so shutdown never waits out a (possibly
            // multi-minute) interval. A spurious wake-up parks again for
            // what is left.
            let deadline = Instant::now() + interval;
            loop {
                if self.stopping.load(Ordering::Acquire) {
                    return;
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                std::thread::park_timeout(left);
            }
            if !machine.alive.load(Ordering::Acquire) {
                return;
            }
            let now = self.now_us();
            for cache in machine.caches() {
                cache.flush_dirty(now);
                cache.retire_evicted(now); // nothing lingers when traffic stops
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    use super::*;
    use crate::engine::testkit;

    /// A two-machine store-less engine, machine 0, and the first
    /// `testkit::event` key machine `owner` owns, as updater `U`'s event.
    fn setup(owner: usize) -> (crate::engine::Engine, Arc<Machine>, WireEvent, u64) {
        let engine = testkit::start(testkit::config(2, 64), None, None, &Arc::default());
        let shared = testkit::shared(&engine);
        let machine = shared.machine(0).unwrap();
        let (ev, route) = (0..)
            .map(|k| {
                let ev = fresh(testkit::event(k), 0, false, true);
                let route = ev.event.key.route_hash("U");
                (ev, route)
            })
            .find(|(_, route)| {
                shared.membership.read().owner(0, *route).map(|at| at.machine) == Some(owner)
            })
            .unwrap();
        (engine, machine, ev, route)
    }

    #[test]
    fn a_step_forwards_a_key_owned_elsewhere_before_touching_the_cache() {
        let (engine, machine, ev, route) = setup(1);
        let shared = testkit::shared(&engine);
        let mut owed = false;
        let step = shared.step(&machine, 0, 0, &ev, route, &mut owed);
        assert!(matches!(step, Step::Forwarded(at) if at.machine == 1));
        let cache = machine.cache_of(0).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0), "ownership is checked before the load");
        assert!(cache.keys_of(0).is_empty(), "no slot for a key machine 1 owns");
        assert!(!owed);
        testkit::halt(engine);
    }

    #[test]
    fn a_steps_membership_guard_ends_with_its_event() {
        let (engine, machine, ev, route) = setup(0);
        let shared = Arc::clone(testkit::shared(&engine));
        let mut owed = false;
        let step = shared.step(&machine, 0, 0, &ev, route, &mut owed);
        assert!(matches!(step, Step::Processed(_)));
        assert_eq!(machine.cache_of(0).unwrap().stats().misses, 1);
        // A leaked read guard would block the writer for good: wait in a
        // detached thread so the test fails instead of hanging.
        let (tx, rx) = mpsc::channel();
        let writer = Arc::clone(&shared);
        let writer = std::thread::spawn(move || {
            drop(writer.membership.write());
            tx.send(()).unwrap();
        });
        assert!(rx.recv_timeout(Duration::from_secs(5)).is_ok(), "membership writer blocked");
        writer.join().unwrap();
        testkit::halt(engine);
    }
}

//! The worker (§4.1, §4.5): a thread that drains its machine's queue in
//! batches, folds combinable runs, runs each event's map or update under
//! one membership read guard per run, and settles each event's in-flight
//! unit once its emissions are sent on. Also the machine's interval
//! flusher (§4.2) and the dead-letter hand-off for panicking operators.
//! DESIGN.md §3.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use muppet_core::event::{EmitRecord, Event, Key};
use muppet_core::operator::VecEmitter;
use muppet_core::sync::RwLockReadGuard;
use muppet_core::workflow::OpId;
use muppet_net::frame::{fold_runs, WireEvent};
use muppet_net::transport::MachineId;
use muppet_obs::Level;

use crate::cache::{FlushPolicy, SlateCache, SlateSlot};
use crate::dlq::DeadLetter;
use crate::engine::{Machine, OpInstance, Queued, Shared, DRAIN_BATCH};
use crate::placement::{Membership, Placement};
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

/// A processed event whose emissions have not fanned out yet. Fan-out
/// re-enters the membership lock on the local send path, so while a
/// run's read guard is held the follow-up work is parked here; the
/// event's in-flight unit is settled only once its emissions are
/// enqueued ([`Shared::finish_event`]), so `drain`/throttling never
/// observe a gap.
struct Finished {
    ev: WireEvent,
    records: Vec<EmitRecord>,
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

/// A *run*: the updater events of a batch share one membership read guard
/// (mapper events need no lock and pass through without closing it), and
/// consecutive same-⟨op, key⟩ updater events reuse the previous event's
/// cache slot (the memo) without touching the shard lock. Every event's
/// fan-out is deferred while the guard is held. The memo dies with the
/// guard, because slate handoffs (`take_matching`) run under the
/// membership *write* lock and so can only interleave between runs.
struct Run<'a> {
    guard: Option<RwLockReadGuard<'a, Membership>>,
    memo: Option<(OpId, Key, Arc<SlateSlot>)>,
    finished: Vec<Finished>,
}

impl Run<'_> {
    /// Close the run: drop the memo and the guard, then send on every
    /// deferred event's emissions.
    fn close(&mut self, shared: &Shared, touched: &mut Vec<MachineId>) {
        self.memo = None;
        self.guard = None;
        for done in self.finished.drain(..) {
            shared.finish_event(done, touched);
        }
    }
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

    /// Admit one finished event's emissions (ts = input ts + 1, §3) and
    /// settle its in-flight unit.
    fn finish_event(&self, done: Finished, touched: &mut Vec<MachineId>) {
        let (stages, ev) = (&self.stats.stages, &done.ev);
        let fanout_t0 = (!done.records.is_empty() && stages.enabled && stages.sampler_fanout.hit())
            .then(|| self.now_us());
        for rec in done.records {
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

    /// Process one drained batch as runs (see [`Run`]): each event's step
    /// ends in one exit over what it did. Store-backed engines first fetch
    /// the batch's cold slates in one round trip
    /// ([`Shared::prefetch_batch`]). Returns whether the worker now owes
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
        let stages = &self.stats.stages;
        let mut run = Run { guard: None, memo: None, finished: Vec::new() };
        for (mut ev, enqueued_us) in batch.drain(..) {
            // Owner-side split rewrite: events that were already in flight
            // (or forwarded) when a split installed still fan out. The
            // rewritten subkey re-routes below like any other key.
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
                stages.queue_wait.record(self.now_us().saturating_sub(enqueued_us));
            }
            let step = match &self.ops[ev.op] {
                OpInstance::Map(mapper) => {
                    // Mappers need no membership lock; an open updater
                    // run's guard is left in place and the mapper's fan-out
                    // joins the deferred queue like everyone else's.
                    let service_t0 =
                        (stages.enabled && stages.sampler_service.hit()).then(|| self.now_us());
                    let mut emitter = VecEmitter::new();
                    match catch_unwind(AssertUnwindSafe(|| mapper.map(&mut emitter, &ev.event))) {
                        Err(payload) => Step::Poisoned(payload),
                        Ok(()) => {
                            if let Some(t0) = service_t0 {
                                stages.service[ev.op].record(self.now_us().saturating_sub(t0));
                            }
                            Step::Processed(emitter.take())
                        }
                    }
                }
                OpInstance::Update { updater, name, ttl_secs } => 'update: {
                    // With a store backend attached, a memo-missing event's
                    // get_or_load below may do real I/O (disk, or a remote
                    // store RPC). Close the run first so a waiting
                    // membership writer (join prepare/commit) gets in
                    // between I/O-bound events instead of stalling behind a
                    // whole batch of sequential loads. Store-less engines
                    // load from memory in microseconds and keep the full run
                    // amortization.
                    let memo_hit = matches!(&run.memo, Some((m_op, m_key, _))
                        if *m_op == ev.op && *m_key == ev.event.key);
                    if self.has_backend && run.guard.is_some() && !memo_hit {
                        run.close(self, touched);
                    }
                    // The ownership check, under the membership read lock
                    // held across the whole slate mutation (and, amortized,
                    // across the run): a membership change (write lock) can
                    // only land between runs, never mid-update — so the
                    // prepare-phase flush sees every completed write, and no
                    // worker mutates a slate its machine has already handed
                    // off.
                    let membership = run.guard.get_or_insert_with(|| self.membership.read());
                    let owner = membership.owner(ev.op, route);
                    if let Some(owner) = owner.filter(|at| at.machine != machine_id) {
                        break 'update Step::Forwarded(owner);
                    }
                    // lint: allow(no-unwrap-in-prod) — 2.0 machines build a central cache, 1.0 one per updater thread
                    let cache = machine.cache_of(thread).expect("updater thread has a cache");
                    let (op, key) = (ev.op, &ev.event.key);
                    cache.offer_hot(op, key);
                    let now = self.now_us();
                    self.splits.sample(op, key, || cache.hot_estimate(op, key), now);
                    let service_sampled = stages.enabled && stages.sampler_service.hit();
                    let slot = match &run.memo {
                        Some((m_op, m_key, m_slot)) if *m_op == op && m_key == key => {
                            cache.note_memo_hit(op, m_slot, now);
                            Arc::clone(m_slot)
                        }
                        _ => {
                            let s = cache.get_or_load(op, name, key, *ttl_secs, now);
                            run.memo = Some((op, key.clone(), Arc::clone(&s)));
                            // A miss may have chosen victims.
                            self.claim_retire(cache, &mut retire_owed);
                            s
                        }
                    };
                    let mut emitter = VecEmitter::new();
                    let outcome = {
                        let mut state = slot.state.lock();
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            updater.update(&mut emitter, &ev.event, &mut state.slate)
                        }));
                        // A panicking updater gets no dirty-marking: its
                        // half-mutated slate must never be flushed.
                        if r.is_ok() {
                            cache.note_write(&slot, &mut state, now);
                        }
                        r
                    };
                    if let Err(payload) = outcome {
                        // The updater may have left the slate half-mutated,
                        // so evict the cached slot — the next touch refaults
                        // the last good version from the store.
                        run.memo = None;
                        cache.discard(op, key);
                        break 'update Step::Poisoned(payload);
                    }
                    if service_sampled {
                        // Service span: slate fetch (cache or store) + the
                        // update under the slot lock.
                        stages.service[op].record(self.now_us().saturating_sub(now));
                    }
                    self.stats.latency.record(self.now_us().saturating_sub(ev.injected_us));
                    Step::Processed(emitter.take())
                }
            };
            machine.in_flight[thread].store(0, Ordering::Release);
            match step {
                Step::Processed(records) => {
                    self.stats.processed.inc();
                    run.finished.push(Finished { ev, records });
                }
                Step::Forwarded(owner) => {
                    // Forwarding re-enters the send path (and, for a local
                    // owner, the membership lock): close the run first.
                    run.close(self, touched);
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
        run.close(self, touched);
        retire_owed
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

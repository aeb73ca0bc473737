//! The send path (§4.1, §4.3): fan an event out to its stream's
//! subscribers, route each copy by the committed rings, and deliver it —
//! into a worker queue of a machine of this process, or over the wire to
//! another's. A failed delivery drives the §4.3 report. The receiving
//! half, [`Shared::deliver_local`], picks the queue (two-choice for 2.0,
//! the sender's hint for 1.0) and applies the overflow policy. DESIGN.md
//! §3, §5.

use std::sync::atomic::Ordering;

use muppet_core::event::{Event, StreamId};
use muppet_core::sync::audit;
use muppet_net::frame::{WireEvent, MAX_FORWARDS};
use muppet_net::transport::{MachineId, NetError, Transport};
use muppet_obs::Level;

use crate::dispatch::{choose_between, queue_pair, RouteHash};
use crate::engine::{EngineKind, Machine, Queued, Shared};
use crate::overflow::OverflowAction;
use crate::placement::Placement;
use crate::queue::EventQueue;

/// A fresh event for the send path: no operator yet, no hops, no hint.
pub(crate) fn fresh(event: Event, injected_us: u64, redirected: bool, external: bool) -> WireEvent {
    WireEvent { op: 0, event, injected_us, redirected, external, thread_hint: None, forwards: 0 }
}

impl Shared {
    /// Send `ev` to every subscriber of its stream, each copy's `op` set
    /// to its subscriber; `touched` collects the remote peers it was
    /// queued for (see [`Shared::note_remote`]).
    pub(crate) fn fan_out(&self, mut ev: WireEvent, touched: &mut Vec<MachineId>) {
        // No per-event Vec, no clone for the final (usually only) subscriber.
        let subscribers = self.wf.subscribers_of(ev.event.stream.as_str());
        if let Some((&last, rest)) = subscribers.split_last() {
            for &op in rest {
                self.try_send(WireEvent { op, ..ev.clone() }, touched);
            }
            ev.op = last;
            self.try_send(ev, touched);
        }
    }

    /// Record that a burst queued an event for `dest`, if that is another
    /// process: the set a producer hands to `TcpTransport::flush_events`
    /// once it has nothing more to add. O(peers) and allocation-free once
    /// warm.
    fn note_remote(&self, dest: MachineId, touched: &mut Vec<MachineId>) {
        if !self.is_local(dest) && !touched.contains(&dest) {
            touched.push(dest);
        }
    }

    /// Resolve the destination by the committed rings
    /// ([`crate::placement::Membership::route`]) — a split hot key's
    /// update first takes one of its subkeys, so fan-out happens at the
    /// source — then send the event there.
    pub(crate) fn try_send(&self, mut ev: WireEvent, touched: &mut Vec<MachineId>) {
        self.splits.rewrite(ev.op, &mut ev.event.key, || self.now_us());
        let route: RouteHash = ev.event.key.route_hash(&self.wf.op(ev.op).name);
        let Some(dest) = self.membership.read().route(ev.op, route) else {
            self.stats.lost_machine_failure.inc();
            return;
        };
        self.send_to(ev, dest, touched);
    }

    /// Deliver `ev` to `dest`: straight into the queues of a machine of
    /// this process, over the wire to another process's. A failed delivery
    /// — a dead machine here, a connection error there — triggers the
    /// §4.3 protocol: report to the master, which broadcasts, and every
    /// ring drops the machine; the event is lost and logged, never retried.
    fn send_to(&self, mut ev: WireEvent, dest: Placement, touched: &mut Vec<MachineId>) {
        let machine = dest.machine;
        let key = ev.event.key.clone();
        ev.thread_hint = dest.thread;
        let sent = match &self.wire {
            Some(wire) if !self.is_local(machine) => wire.send_event(machine, ev),
            _ => self.deliver_local(machine, ev, 1),
        };
        match sent {
            Ok(()) => self.note_remote(machine, touched),
            Err(NetError::Unreachable(_)) => {
                self.report_failure(machine);
                self.log_peer_death(machine, 1);
                self.stats.lost_machine_failure.inc();
                self.drop_log.log(format!("lost to failed machine {machine}: key={key:?}"));
            }
            Err(e) => {
                // A local protocol/config error (oversized frame, no route)
                // is not a dead peer — the event is lost and logged, but the
                // machine must not be declared failed.
                self.stats.lost_machine_failure.inc();
                self.drop_log.log(format!("undeliverable to machine {machine} ({e}): key={key:?}"));
            }
        }
    }

    /// Re-send an event whose key this machine no longer owns to its
    /// current owner (elastic handoff; also heals laggard-ring
    /// deliveries). Bounded by [`MAX_FORWARDS`] so disagreeing rings can
    /// never ping-pong an event forever — past the cap the event is
    /// dropped-and-logged like any other undeliverable (§4.3 posture).
    pub(crate) fn forward(
        &self,
        mut ev: WireEvent,
        owner: Placement,
        touched: &mut Vec<MachineId>,
    ) {
        if ev.forwards >= MAX_FORWARDS {
            self.stats.lost_machine_failure.inc();
            self.drop_log.log(format!(
                "forward cap hit for key={:?} (rings disagree about machine {}?)",
                ev.event.key, owner.machine
            ));
            return;
        }
        self.stats.forwarded.inc();
        ev.forwards += 1;
        // Forwarded events count as internal: the receiver's overflow
        // policy must never block the forwarding worker.
        ev.external = false;
        self.send_to(ev, owner, touched);
    }

    /// §4.3: report `failed` to the master, stamped with this node's epoch
    /// — over the wire, or in-process to this process's master, whose
    /// broadcast is the ring drop here.
    pub(crate) fn report_failure(&self, failed: MachineId) {
        let epoch = self.epoch();
        match &self.wire {
            Some(wire) => wire.report_failure(failed, epoch),
            None if self.master.report_failure(failed, epoch) => {
                self.apply_ring_drop(failed, epoch)
            }
            None => {}
        }
    }

    /// Log a peer's death through the leveled logger exactly once per peer
    /// *per incarnation* — a committed rejoin or restart
    /// re-identification clears the entry so the NEW incarnation's death
    /// is logged afresh. §4.3 detection is send-driven and can fire
    /// concurrently from the sync-send, forward, and batch-sender failure
    /// paths for one incident; without the set each path would emit its
    /// own report. The drop-log ring keeps its per-event entries
    /// regardless.
    pub(crate) fn log_peer_death(&self, dest: usize, lost_events: u64) {
        if self.logger.enabled(Level::Warn) && self.logged_peer_deaths.lock().insert(dest) {
            self.logger.warn(
                "peer unreachable; reported to master (send-detect, §4.3)",
                &[
                    ("peer", (dest as u64).into()),
                    ("epoch", self.epoch().into()),
                    ("lost_events", lost_events.into()),
                ],
            );
        }
    }

    /// Local delivery: the receiving half of every send to a machine of
    /// this process. Chooses the worker queue (two-choice for 2.0, the
    /// sender's slot hint for 1.0) and applies the §4.3 overflow
    /// mechanism. Runs on the sender's thread for a local send and on the
    /// listener's connection thread for one from another process.
    /// `absorbed` is how many events a sender's fold coalesced into `ev`.
    pub(crate) fn deliver_local(
        &self,
        machine_id: usize,
        mut ev: WireEvent,
        mut absorbed: u64,
    ) -> Result<(), NetError> {
        if !self.is_local(machine_id) {
            return Err(NetError::NoRoute(machine_id));
        }
        loop {
            let Some(machine) = self.machine(machine_id) else {
                return Err(NetError::NoRoute(machine_id));
            };
            if !machine.alive.load(Ordering::Acquire) {
                return Err(NetError::Unreachable(machine_id));
            }
            audit::point();
            let updater_name = self.wf.op(ev.op).name.as_str();
            let route: RouteHash = ev.event.key.route_hash(updater_name);
            let Some(thread) = self.choose_thread(machine_id, &machine, &ev, route) else {
                self.drop_log.log(format!(
                    "misrouted 1.0 event discarded at m{machine_id}: op={updater_name} key={:?} \
                     (peer layout mismatch?)",
                    ev.event.key
                ));
                return Ok(());
            };
            let credit = std::mem::take(&mut absorbed).saturating_sub(1);
            if credit > 0 {
                // A carrier the sender folded from `absorbed` events is one
                // event here (its update offers it), but the splitter's
                // threshold is denominated in events: credit the rest to
                // the sketch (once, however often a full queue retries).
                self.splits.offer(ev.op, &ev.event.key, credit, self.now_us());
            }
            let queue = &machine.queues[thread];
            if queue.len_hint() < queue.capacity() {
                // Likely-room fast path; capacity may still be exceeded by
                // a racing sender, in which case the push slightly
                // overshoots (bounded by sender count) — acceptable for a
                // size *limit*.
                self.enqueue(&machine, queue, ev);
                return Ok(());
            }
            // Queue full: invoke the overflow mechanism (§4.3).
            match self.cfg.overflow.decide(ev.external, ev.redirected) {
                OverflowAction::Drop => {
                    self.stats.dropped_overflow.inc();
                    self.drop_log.log(format!(
                        "overflow drop at m{machine_id}w{thread}: key={:?} op={}",
                        ev.event.key, updater_name
                    ));
                    return Ok(());
                }
                OverflowAction::Redirect(overflow_stream) => {
                    self.stats.redirected_overflow.inc();
                    if !self.wf.has_stream(&overflow_stream)
                        || self.wf.is_external(&overflow_stream)
                    {
                        self.stats.publish_errors.inc();
                        return Ok(());
                    }
                    // Fan out to the overflow stream's subscribers, marked
                    // so a second overflow drops instead of looping.
                    ev.event.stream = StreamId::from(overflow_stream.as_str());
                    ev.redirected = true;
                    self.fan_out(ev, &mut Vec::new());
                    return Ok(());
                }
                OverflowAction::ForceThrough => {
                    self.enqueue(&machine, queue, ev);
                    return Ok(());
                }
                OverflowAction::BlockProducer => {
                    self.ledger.wait_tick(&self.stats.throttle_waits);
                    if self.stopping.load(Ordering::Acquire) {
                        return Ok(());
                    }
                    // Retry: re-check liveness and queue room (the machine
                    // may have failed or drained meanwhile).
                }
            }
        }
    }

    /// The worker queue of `machine` that takes `ev`: two-choice dispatch
    /// for 2.0; for 1.0 the sender's hint when it names a local thread
    /// running the op, else the local rings' answer (layouts are
    /// deterministic cluster-wide, so `None` means a heterogeneously
    /// configured peer).
    fn choose_thread(
        &self,
        machine_id: usize,
        machine: &Machine,
        ev: &WireEvent,
        route: RouteHash,
    ) -> Option<usize> {
        match self.cfg.kind {
            EngineKind::Muppet1 => {
                let valid =
                    |t: usize| t < machine.queues.len() && machine.thread_ops[t] == Some(ev.op);
                ev.thread_hint.filter(|&t| valid(t)).or_else(|| {
                    let owner = self.membership.read().owner(ev.op, route);
                    owner.filter(|at| at.machine == machine_id)?.thread.filter(|&t| valid(t))
                })
            }
            EngineKind::Muppet2 => {
                let (p, s) = queue_pair(route, machine.queues.len());
                let working = |t: usize| machine.working_on(t);
                let lens = |t: usize| machine.queues[t].len_hint();
                Some(choose_between(route, p, s, working(p), working(s), lens(p), lens(s)))
            }
        }
    }

    /// Push one event onto a local worker queue, counted first: a worker
    /// may pop and finish it the moment it is pushed
    /// (`tests::sweep_in_flight_count`). A [`Shared::kill_machine`] whose
    /// drain ran before the push leaves no worker to take it, so a push
    /// that finds the machine dead drains the queue itself; the queue lock
    /// orders the two drains, so each event is taken by exactly one
    /// (`tests::sweep_kill_race`).
    fn enqueue(&self, machine: &Machine, queue: &EventQueue<Queued>, ev: WireEvent) {
        // Stamp the queue-wait span here, on the receiving side (`max(1)`:
        // 0 means unsampled, and `now_us` can legitimately be 0 early on).
        let sampled = self.stats.stages.sampler_queue.hit();
        self.ledger.admit(1);
        queue.force_push((ev, if sampled { self.now_us().max(1) } else { 0 }));
        audit::point();
        if !machine.alive.load(Ordering::Acquire) {
            self.settle_lost(queue.drain_all().len() as u64);
        }
    }

    /// Kill local machine `id` abruptly: its queued events are lost, its
    /// threads stop, its unflushed slates are lost (§4.3).
    pub(crate) fn kill_machine(&self, id: usize) {
        let Some(machine) = self.machine(id).filter(|_| self.is_local(id)) else { return };
        if !machine.alive.swap(false, Ordering::AcqRel) {
            return;
        }
        audit::point();
        let mut lost = 0;
        for queue in &machine.queues {
            lost += queue.drain_all().len() as u64;
            queue.notify();
        }
        self.settle_lost(lost);
    }

    /// Events a dead machine's queues held: counted lost, settled.
    fn settle_lost(&self, lost: u64) {
        self.stats.lost_in_queues.add(lost);
        self.ledger.settle(lost);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use muppet_check::sched;
    use muppet_slatestore::util::TempDir;

    use super::*;
    use crate::engine::testkit::{self, SEEDS};

    /// How a sweep puts an event on a local queue: [`Shared::enqueue`],
    /// or a negative control's copy of it.
    type Enqueue = fn(&Shared, &Machine, &EventQueue<Queued>, WireEvent);

    /// A deliverer enqueues events for fresh keys on a store-backed machine
    /// whose two-slate cache makes each one a miss that owes an eviction
    /// retire, while the real worker runs them and an observer reads the
    /// ledger as `drain` does. Invariants: the ledger never reads below
    /// zero, and `drain() == true` implies every event delivered before it
    /// is applied and, once all are delivered, no retire is owed. The seeds
    /// of a sweep share one engine, each on keys of its own.
    fn in_flight_count(enqueue: Enqueue) -> Option<(u64, Vec<String>)> {
        const EVENTS: u64 = 8;
        let (dir, applied) =
            (TempDir::new("sweep-in-flight").unwrap(), Arc::new(AtomicU64::new(0)));
        let engine = testkit::start(testkit::config(1, 2), Some(&dir), None, &applied);
        let (shared, machine) =
            (testkit::shared(&engine), testkit::shared(&engine).machine(0).unwrap());
        let caught = sched::sweep(SEEDS, |seed| {
            let (keys, delivered) =
                (seed * EVENTS..(seed + 1) * EVENTS, Arc::new(AtomicU64::new(0)));
            // Read before the deliverer starts: the worker may apply its
            // first events before the observer is spawned.
            let applied_before = applied.load(Ordering::SeqCst);
            let (s, m, d, ks) =
                (Arc::clone(shared), Arc::clone(&machine), Arc::clone(&delivered), keys.clone());
            let deliverer = sched::spawn(1, move || {
                for k in ks {
                    enqueue(&s, &m, &m.queues[0], fresh(testkit::event(k), 0, false, true));
                    d.fetch_add(1, Ordering::SeqCst);
                }
                Vec::new()
            });
            let (s, m, applied) = (Arc::clone(shared), Arc::clone(&machine), Arc::clone(&applied));
            let observer = sched::spawn(2, move || {
                let mut notes = Vec::new();
                loop {
                    let before = delivered.load(Ordering::SeqCst);
                    sched::point();
                    let (pending, busy) = (s.ledger.pending(), s.ledger.busy());
                    sched::point();
                    let done = applied.load(Ordering::SeqCst) - applied_before;
                    let owed = m.cache_of(0).unwrap().evict_backlog();
                    let notes_now = [
                        (pending < 0).then(|| format!("the ledger read {pending}")),
                        (!busy && done < before)
                            .then(|| format!("idle, {done} of {before} applied")),
                        (!busy && before == EVENTS && owed > 0)
                            .then(|| format!("idle, {owed} owed")),
                    ];
                    notes.extend(notes_now.into_iter().flatten());
                    if !busy && before == EVENTS {
                        return notes;
                    }
                }
            });
            let mut notes =
                sched::join_within(vec![deliverer, observer], Duration::from_secs(10)).concat();
            let unreflected = keys
                .filter(|&k| engine.read_slate("U", &testkit::event(k).key) != Some(b"1".to_vec()));
            notes.extend(unreflected.map(|k| format!("k{k} does not reflect its event")));
            notes
        });
        testkit::halt(engine);
        caught
    }

    /// A carrier a sender folded from 5 events counts 5 in the receiver's
    /// sketch: 4 credited on delivery, one offered by its update.
    #[test]
    fn a_delivered_carrier_counts_each_absorbed_event_once() {
        let applied = Arc::new(AtomicU64::new(0));
        let cfg = crate::engine::EngineConfig { latency_sample_n: 1, ..testkit::config(1, 16) };
        let engine = testkit::start(cfg, None, None, &applied);
        let shared = testkit::shared(&engine);
        shared.deliver_local(0, fresh(testkit::event(7), 0, false, true), 5).unwrap();
        assert!(engine.drain(Duration::from_secs(10)));
        let top = shared.splits.hot_keys(1).remove(0);
        assert_eq!((top.key.1, top.count), (testkit::event(7).key, 5));
        testkit::halt(engine);
    }

    #[test]
    fn sweep_in_flight_count() {
        assert_eq!(in_flight_count(Shared::enqueue), None, "the in-flight count");
    }

    #[test]
    fn sweep_in_flight_count_catches_a_count_after_publish() {
        // `enqueue` as it once was: the event is pushed, then counted. A
        // worker that pops and finishes it in between gives back a unit
        // never taken.
        fn enqueue(shared: &Shared, _: &Machine, queue: &EventQueue<Queued>, ev: WireEvent) {
            queue.force_push((ev, 0));
            sched::point();
            shared.ledger.admit(1);
        }
        assert!(in_flight_count(enqueue).is_some(), "the sweep missed a count after publish");
    }

    /// Two submitters send events over two machines — through `submit`,
    /// the real ingest path or a negative control's copy of its tail —
    /// while a killer kills machine 1 part-way through. Invariants: `drain`
    /// returns true within its deadline, and every submitted event is
    /// processed or counted lost, in a dead queue or to the failed machine.
    fn kill_race(submit: fn(&Shared, Event)) -> Vec<String> {
        const EVENTS: u64 = 4;
        let engine = testkit::start(testkit::config(2, 64), None, None, &Arc::default());
        let shared = testkit::shared(&engine);
        let mut roles: Vec<_> = (0..2)
            .map(|t| {
                let shared = Arc::clone(shared);
                sched::spawn(t + 1, move || {
                    (0..EVENTS).for_each(|k| submit(&shared, testkit::event(t * EVENTS + k)))
                })
            })
            .collect();
        let killed = Arc::clone(shared);
        roles.push(sched::spawn(3, move || {
            (0..EVENTS).for_each(|_| sched::point());
            killed.kill_machine(1);
        }));
        sched::join_within(roles, Duration::from_secs(10));
        let (drained, s) = (engine.drain(Duration::from_millis(200)), engine.stats());
        let mut notes = vec![
            "drain never returned true: a unit is stranded".to_string();
            usize::from(!drained)
        ];
        if s.submitted != s.processed + s.lost_in_queues + s.lost_machine_failure {
            notes.push(format!(
                "{} submitted, {} processed, {} + {} lost",
                s.submitted, s.processed, s.lost_in_queues, s.lost_machine_failure
            ));
        }
        testkit::halt(engine);
        notes
    }

    #[test]
    fn sweep_kill_race() {
        let caught =
            sched::sweep(SEEDS, |_| kill_race(|shared, event| shared.submit_run([event]).unwrap()));
        assert_eq!(caught, None, "the kill race");
    }

    #[test]
    fn sweep_kill_race_catches_a_push_without_the_alive_recheck() {
        // The send path's tail as it once was: `deliver_local`'s liveness
        // check, then `enqueue` without its re-check. A kill whose drain
        // ran in between leaves the event counted in a queue no worker
        // will take it from.
        fn submit(shared: &Shared, event: Event) {
            shared.stats.submitted.inc();
            let dest = shared.membership.read().route(0, event.key.route_hash("U"));
            let machine = dest.and_then(|dest| shared.machine(dest.machine));
            let Some(machine) = machine.filter(|m| m.alive.load(Ordering::Acquire)) else {
                dest.into_iter().for_each(|dest| shared.report_failure(dest.machine));
                return shared.stats.lost_machine_failure.inc();
            };
            sched::point();
            shared.ledger.admit(1);
            machine.queues[0].force_push((fresh(event, 0, false, true), 0));
        }
        let caught = sched::sweep(SEEDS, |_| kill_race(submit));
        assert!(caught.is_some(), "the sweep missed a push without the re-check in {SEEDS} seeds");
    }
}

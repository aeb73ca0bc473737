//! The send path (§4.1, §4.3): fan an event out to its stream's
//! subscribers, route each copy by the committed rings, and deliver it —
//! into a worker queue of a machine of this process, or over the wire to
//! another's. A failed delivery drives the §4.3 report. The receiving
//! half, [`Shared::deliver_local`], picks the queue (two-choice for 2.0,
//! the sender's hint for 1.0) and applies the overflow policy. DESIGN.md
//! §3, §5.

use std::sync::atomic::Ordering;

use muppet_core::event::{Event, StreamId};
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
            let credit = std::mem::take(&mut absorbed);
            if credit > 1 {
                // A carrier the sender folded from `absorbed` events is one
                // event here, but the splitter's threshold is denominated
                // in events: credit them to the sketch of the cache the
                // carrier will update (once, however often a full queue
                // retries).
                if let Some(cache) = machine.cache_of(thread) {
                    cache.offer_hot_n(ev.op, &ev.event.key, credit);
                }
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
    /// (`models::run_in_flight`). A [`Shared::kill_machine`] whose drain
    /// ran before the push leaves no worker to take it, so a push that
    /// finds the machine dead drains the queue itself; the queue lock
    /// orders the two drains, so each event is taken by exactly one
    /// (`models::run_kill_race`).
    fn enqueue(&self, machine: &Machine, queue: &EventQueue<Queued>, ev: WireEvent) {
        // Stamp the queue-wait span here, on the receiving side (`max(1)`:
        // 0 means unsampled, and `now_us` can legitimately be 0 early on).
        let sampled = self.stats.stages.enabled && self.stats.stages.sampler_queue.hit();
        self.ledger.admit(1);
        queue.force_push((ev, if sampled { self.now_us().max(1) } else { 0 }));
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

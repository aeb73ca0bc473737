//! Elastic membership (DESIGN.md §7) and the §4.3 ring drop: the
//! prepare → handoff → commit protocol each node applies, the master's
//! join run that drives it, and restart re-identification. The routing
//! state itself is `placement.rs`'s; this module decides when it changes.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use muppet_core::event::Key;
use muppet_core::workflow::OpKind;
use muppet_net::frame::{MembershipPhase, MembershipUpdate};
use muppet_net::topology::{NodeSpec, Topology};
use muppet_net::transport::{MachineId, NetError};

use crate::engine::{Machine, Shared};

impl Shared {
    /// The cluster's node table, reservations included: the wire's in a
    /// TCP cluster; in-process, one placeholder per machine (addressing is
    /// by id there).
    pub(crate) fn node_table(&self) -> Topology {
        match &self.wire {
            Some(wire) => wire.topology(),
            None => {
                let n = self.machines.read().len();
                let placeholder =
                    |id| NodeSpec { id, host: "in-process".into(), port: 0, http_port: 0 };
                Topology { nodes: (0..n).map(placeholder).collect(), master: 0 }
            }
        }
    }

    /// Drop `failed` from every routing structure — the effect of the master's
    /// §4.3 broadcast, applied on each node. `epoch` fences re-joined
    /// incarnations: a broadcast staler than the machine's latest join is a
    /// ghost of a previous incarnation and is ignored. Failure drops do not
    /// mint epochs — only master-coordinated membership updates do, so every
    /// node's epoch stays comparable.
    pub(crate) fn apply_ring_drop(&self, failed: usize, epoch: u64) {
        if epoch < self.master.joined_epoch(failed) {
            return;
        }
        self.membership.write().drop_machine(failed);
        if let Some(machine) = self.machine(failed) {
            machine.alive.store(false, Ordering::Release);
        }
        // Every node tracks the failed set ("each worker keeps track of all
        // failed machines"), without re-reporting.
        self.master.mark_failed(failed, epoch);
    }

    /// Stage a membership epoch (the *prepare* phase): grow the peer table
    /// for unseen nodes, stage the epoch ([`Membership::stage`]), and — the
    /// handoff invariant — flush (or transfer) every dirty slate whose arc
    /// moves away from a local machine, all under the membership write lock so
    /// no updater can be mid-write on a moved slate. After this returns true,
    /// processing-side ownership checks use the staged rings: moved keys are
    /// forwarded to their new owner, never updated here again.
    fn membership_prepare(&self, update: &MembershipUpdate) -> bool {
        let mut membership = self.membership.write();
        if let Some(answer) = membership.prepared(update.epoch) {
            return answer;
        }
        // Grow peers + machine stubs for nodes this engine has never seen.
        let known_machines = {
            let mut machines = self.machines.write();
            let mut specs: Vec<&NodeSpec> = update.nodes.iter().collect();
            specs.sort_by_key(|s| s.id);
            for spec in specs {
                if spec.id < machines.len() {
                    continue;
                }
                if let Some(wire) = &self.wire {
                    if let Err(e) = wire.add_peer(spec) {
                        self.drop_log.log(format!("membership add_peer failed: {e}"));
                        return false;
                    }
                }
                machines.push(Arc::new(Machine::remote_stub()));
            }
            machines.len()
        };
        for id in membership.stage(update, known_machines, &|id| self.master.is_failed(id)) {
            // This epoch's joiners are reachable again: re-arm the wire and
            // the liveness flag so forwarded events flow as soon as the
            // staged rings apply.
            self.revive(id);
        }
        // The handoff: move every slate whose arc leaves a local machine.
        let machines = self.machines_snapshot();
        let now = self.now_us();
        for (m, machine) in machines.iter().enumerate() {
            if !self.is_local(m) || !machine.alive.load(Ordering::Acquire) {
                continue;
            }
            for (op, spec) in self.wf.ops().iter().enumerate() {
                if spec.kind != OpKind::Update {
                    continue;
                }
                let opname = &spec.name;
                let moved_to = |key: &Key| membership.moved_from(m, op, key.route_hash(opname));
                for cache in machine.caches() {
                    for (key, slot) in cache.take_matching(op, &|key| moved_to(key).is_some()) {
                        if self.has_backend {
                            // Store-backed handoff (§4.3 recovery path, run
                            // proactively): flush, then the new owner faults
                            // the slate in on its first event. A failed
                            // flush (store down mid-join) must not destroy
                            // the slate: it goes back into the cache dirty —
                            // post-prepare processing forwards this key, so
                            // nothing re-dirties it here, and the next flush
                            // that reaches it writes it: the interval
                            // flusher's next tick or, with an ingest WAL
                            // (which runs no flusher), the next recovery
                            // line's `flush_barrier` (the new owner reads
                            // stale until then; bounded inconsistency instead
                            // of silent loss).
                            if !cache.flush_slot_now(&slot, now) {
                                self.drop_log.log(format!(
                                    "handoff flush failed for {opname} key={key:?} (store down?); \
                                     retained dirty for a later flush"
                                ));
                                cache.insert_slot(op, key, slot);
                            }
                            continue;
                        }
                        // No store attached: hand the slot to the cache its
                        // staged placement names when that lives in this
                        // process (the in-process cluster); otherwise the
                        // slate is lost exactly like a §4.3 crash would lose
                        // it.
                        let target = moved_to(&key)
                            .filter(|to| self.is_local(to.machine))
                            .and_then(|to| machines.get(to.machine)?.cache_at(op, to));
                        match target {
                            Some(target) => target.insert_slot(op, key, slot),
                            None => self.drop_log.log(format!(
                                "handoff without store: slate {opname} key={key:?} lost (§4.3 \
                                 posture)"
                            )),
                        }
                    }
                }
            }
        }
        true
    }

    /// Install a staged membership epoch (the *commit* phase).
    fn membership_commit(&self, epoch: u64) -> bool {
        let Some(joined) = self.membership.write().commit(epoch) else {
            return false;
        };
        for id in joined {
            self.master.mark_joined(id, epoch);
            // Forget the previous incarnation's death (§4.3 ledger): if the
            // NEW incarnation dies, detection must report and log it afresh.
            self.logged_peer_deaths.lock().remove(&id);
            self.revive(id);
        }
        true
    }

    /// Discard a staged membership epoch (the *abort* phase): a prepare
    /// acked somewhere, but the join could not complete. Ownership reverts
    /// to the committed rings; the already-flushed moved slates simply fault
    /// back in from the store on the old owner's next touch.
    fn membership_abort(&self, epoch: u64) -> bool {
        if self.membership.write().abort(epoch) {
            self.drop_log.log(format!("membership epoch {epoch} aborted; staged state discarded"));
        }
        true
    }

    /// Apply one membership phase on this node; true is the ack.
    pub(crate) fn apply_membership(&self, update: &MembershipUpdate) -> bool {
        match update.phase {
            MembershipPhase::Prepare => self.membership_prepare(update),
            MembershipPhase::Commit => self.membership_commit(update.epoch),
            MembershipPhase::Abort => self.membership_abort(update.epoch),
        }
    }

    /// Deliver one membership phase to every participant in `order`: this
    /// process's machines by one local call, the others over the wire.
    /// `want_ack` only for prepare, where the first refusal or wire failure
    /// is returned at once; other phases reach everyone and never fail.
    fn fan_out_membership(
        &self,
        order: &[MachineId],
        update: &MembershipUpdate,
        want_ack: bool,
    ) -> std::result::Result<(), (MachineId, NetError)> {
        let mut local_done = false;
        for &dest in order {
            let sent = match &self.wire {
                Some(wire) if !self.is_local(dest) => wire.send_membership(dest, update, want_ack),
                _ if local_done => continue,
                _ => {
                    local_done = true;
                    let refused = || NetError::Protocol("local phase refused".to_string());
                    self.apply_membership(update).then_some(()).ok_or_else(refused)
                }
            };
            if let (Err(e), true) = (sent, want_ack) {
                return Err((dest, e));
            }
        }
        Ok(())
    }

    /// The master side of a join: a reserved machine announced it is live.
    /// Runs the protocol — prepare to the joiner first (so forwarded events
    /// always find it ready) and then to every committed ring member (each
    /// ack certifies the moved-away slates were flushed), then commit
    /// everywhere; any un-acked prepare aborts the epoch explicitly so no
    /// worker is left forwarding to a joiner that never commits. Serialized
    /// per master.
    pub(crate) fn run_join_protocol(&self, machine: MachineId) {
        let _serialize = self.join_lock.lock();
        // A duplicate announcement (e.g. the joiner's commit frame was lost
        // and it re-announced) runs the protocol again: everywhere the
        // machine is already a member the epoch is a no-op, and on the
        // joiner the member-heal path installs it.
        // Mint a fresh epoch, monotone even across aborted attempts: a
        // staged-but-never-committed epoch on some worker must never be
        // reused with different content, or a later commit could install
        // divergent rings there (serialized by join_lock, so load/store is
        // race-free).
        let epoch = (self.epoch() + 1).max(self.epoch_mint.load(Ordering::Acquire) + 1);
        self.epoch_mint.store(epoch, Ordering::Release);
        let nodes = self.node_table().nodes;
        if machine >= nodes.len() {
            self.drop_log.log(format!("join announcement for unreserved machine {machine}"));
            return;
        }
        // The barrier participants: the joiner plus the *committed ring
        // members* — the machines that can own moved arcs. Reservations that
        // never announced are excluded (their listeners may not exist; they
        // must not be able to abort someone else's join), and so are failed
        // machines.
        let members = self.membership.read().committed().members();
        let mut order: Vec<MachineId> = vec![machine];
        order.extend(members.iter().copied().filter(|&id| id != machine));
        let mut post_members = members.clone();
        post_members.push(machine);
        post_members.sort_unstable();
        post_members.dedup();

        let prepare = MembershipUpdate {
            epoch,
            phase: MembershipPhase::Prepare,
            joined: vec![machine],
            members: post_members,
            nodes,
        };
        if let Err((dest, e)) = self.fan_out_membership(&order, &prepare, true) {
            // An un-acked live participant kills the join: the ack is the
            // handoff barrier — committing past a worker whose flush did
            // not finish would let the joiner fault stale slates out of the
            // store. Abort explicitly so every node that DID stage the
            // epoch reverts to its committed rings instead of forwarding to
            // a joiner that will never commit. (A genuinely dead worker
            // blocks joins only until traffic-driven §4.3 detection removes
            // it from the member set.)
            self.drop_log.log(format!("join of {machine} aborted: prepare to {dest}: {e}"));
            let abort = MembershipUpdate { phase: MembershipPhase::Abort, ..prepare };
            let _ = self.fan_out_membership(&order, &abort, false);
            return;
        }
        let commit = MembershipUpdate { phase: MembershipPhase::Commit, ..prepare };
        let _ = self.fan_out_membership(&order, &commit, false);
    }

    /// Restart re-identification, master side: a node that crashed and came
    /// back announces under its old id. Re-arm the wire to it, wipe the
    /// previous incarnation's §4.3 death-ledger entry so a NEW death is
    /// detected and logged afresh, and — if the old incarnation was dropped
    /// from the rings — run the join protocol to restore its old ring
    /// position. Returns this node's epoch.
    pub(crate) fn reintroduce(&self, machine: MachineId) -> u64 {
        self.revive(machine);
        self.logged_peer_deaths.lock().remove(&machine);
        let needs_join =
            self.master.is_failed(machine) || !self.membership.read().committed().contains(machine);
        if needs_join {
            self.run_join_protocol(machine);
        }
        self.epoch()
    }
}

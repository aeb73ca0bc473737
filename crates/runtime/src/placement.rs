//! Placement: where ⟨function, key⟩ lives, as a value.
//!
//! A [`Rings`] is one membership epoch's routing state and answers one
//! question, [`Rings::place`]. A [`Membership`] is the committed epoch
//! plus at most one staged (prepared, uncommitted) epoch; its methods are
//! the join protocol's transitions. Nothing here locks, blocks or talks to
//! anything: `engine.rs` keeps a `Membership` under its one lock and
//! performs the effects a transition names. DESIGN.md §3 says what a
//! [`Placement`] is in each generation, §7 why the epoch and the
//! committed/staged pair look the way they do.

use muppet_core::workflow::OpId;
use muppet_net::frame::MembershipUpdate;
use muppet_net::transport::MachineId;
use muppet_slatestore::ring::ConsistentRing;

/// Virtual nodes per machine on the machine ring.
const MACHINE_VNODES: usize = 64;
/// Virtual nodes per worker slot on a Muppet 1.0 per-function ring.
const SLOT_VNODES: usize = 32;

/// Where one ⟨function, route⟩ lives. Muppet 2.0 places on a machine and
/// leaves the thread to delivery (`thread` is `None`); Muppet 1.0 places
/// on the one worker thread bound to the function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Placement {
    pub machine: MachineId,
    pub thread: Option<usize>,
}

/// A Muppet 1.0 worker: thread `thread` of `machine`, bound to `op`. A
/// slot's id — its index in [`Rings::slots`] and its member id on
/// `op`'s ring — is a pure function of the founding layout and the
/// machine id, so every node numbers slots alike whenever (and whether)
/// it hears of a machine.
#[derive(Clone, Copy, Debug)]
struct Slot {
    machine: MachineId,
    thread: usize,
    op: OpId,
}

/// The workers of a machine that joined a running cluster: one per
/// function, thread `t` bound to function `t`.
fn joiner_slots(n_ops: usize, machine: MachineId) -> impl Iterator<Item = Slot> {
    (0..n_ops).map(move |op| Slot { machine, thread: op, op })
}

/// One epoch's routing state: the machine ring and, under Muppet 1.0, a
/// ring per function over worker-slot ids with the slot table behind it.
/// Under 2.0 the per-function part is empty.
#[derive(Clone, Debug)]
pub(crate) struct Rings {
    machines: ConsistentRing,
    op_rings: Vec<ConsistentRing>,
    slots: Vec<Slot>,
    /// 1.0: the lowest machine id that has no slots yet.
    next_joiner: MachineId,
}

impl Rings {
    /// Rings with no member yet. `slotted` is Muppet 1.0's ⟨function
    /// count, workers per function⟩: the founding workers are dealt
    /// round-robin over machines `0..base`, function by function.
    pub(crate) fn new(base: usize, slotted: Option<(usize, usize)>) -> Rings {
        let (n_ops, workers_per_op) = slotted.unwrap_or((0, 0));
        Rings {
            machines: ConsistentRing::new(0, MACHINE_VNODES),
            op_rings: (0..n_ops).map(|_| ConsistentRing::new(0, SLOT_VNODES)).collect(),
            slots: (0..n_ops * workers_per_op)
                .map(|k| Slot { machine: k % base, thread: k / base, op: k / workers_per_op })
                .collect(),
            next_joiner: base,
        }
    }

    /// Number the slots of every machine id below `known_machines`, in id
    /// order — reservations included, outside every ring — so slot ids
    /// never depend on which joins a node has seen.
    pub(crate) fn ensure_slots(&mut self, known_machines: usize) {
        for id in self.next_joiner..known_machines {
            self.slots.extend(joiner_slots(self.op_rings.len(), id));
        }
        self.next_joiner = self.next_joiner.max(known_machines);
    }

    /// The function each thread of `machine` is bound to, in thread
    /// order; `None` under 2.0, where any thread runs any function.
    pub(crate) fn bound_ops(&self, machine: MachineId) -> Option<Vec<OpId>> {
        if self.op_rings.is_empty() {
            return None;
        }
        Some(if machine < self.next_joiner {
            self.slots.iter().filter(|s| s.machine == machine).map(|s| s.op).collect()
        } else {
            joiner_slots(self.op_rings.len(), machine).map(|s| s.op).collect()
        })
    }

    /// Put `machine`, and every worker slot numbered for it, into the rings.
    pub(crate) fn add_machine(&mut self, machine: MachineId) {
        self.machines.add(machine);
        for (id, slot) in self.slots.iter().enumerate().filter(|(_, s)| s.machine == machine) {
            self.op_rings[slot.op].add(id);
        }
    }

    /// Take `machine`, and every worker slot on it, out of the rings.
    pub(crate) fn remove_machine(&mut self, machine: MachineId) {
        self.machines.remove(machine);
        for (id, slot) in self.slots.iter().enumerate().filter(|(_, s)| s.machine == machine) {
            self.op_rings[slot.op].remove(id);
        }
    }

    /// The one lookup: who owns ⟨`op`, `route`⟩. `None` once every owner
    /// is gone. The generations differ only here — 2.0 searches the
    /// machine ring, 1.0 the function's ring of worker slots.
    pub(crate) fn place(&self, op: OpId, route: u64) -> Option<Placement> {
        if self.op_rings.is_empty() {
            return self.machines.owner(route).map(|machine| Placement { machine, thread: None });
        }
        let slot = self.slots[self.op_rings.get(op)?.owner(route)?];
        Some(Placement { machine: slot.machine, thread: Some(slot.thread) })
    }

    /// The machine-ring members, sorted.
    pub(crate) fn members(&self) -> Vec<MachineId> {
        let mut members = self.machines.members().to_vec();
        members.sort_unstable();
        members
    }

    /// Whether `machine` is a ring member.
    pub(crate) fn contains(&self, machine: MachineId) -> bool {
        self.machines.contains(machine)
    }
}

/// A node's membership state: the committed epoch's rings and, between
/// the prepare and commit of a join, the staged next epoch's. Only a
/// commit changes `epoch`; failure drops reshape both ring sets on every
/// node independently and must leave it alone, or epochs would stop
/// being comparable across the cluster.
#[derive(Clone, Debug)]
pub(crate) struct Membership {
    epoch: u64,
    committed: Rings,
    staged: Option<Staged>,
}

#[derive(Clone, Debug)]
struct Staged {
    epoch: u64,
    rings: Rings,
    joined: Vec<MachineId>,
}

impl Membership {
    pub(crate) fn new(epoch: u64, committed: Rings) -> Membership {
        Membership { epoch, committed, staged: None }
    }

    /// The installed (committed) epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The prepared, not yet committed epoch, if any.
    pub(crate) fn staged_epoch(&self) -> Option<u64> {
        self.staged.as_ref().map(|s| s.epoch)
    }

    /// The committed rings.
    pub(crate) fn committed(&self) -> &Rings {
        &self.committed
    }

    /// Where a *sender* routes ⟨`op`, `route`⟩: by the committed rings,
    /// staged epoch or not. A staged epoch only redirects processing on
    /// the nodes that already flushed; routing to a joiner before the
    /// cluster-wide flush barrier has passed could fault a stale slate out
    /// of the store. `Engine::owner_machine` answers from here too.
    pub(crate) fn route(&self, op: OpId, route: u64) -> Option<Placement> {
        self.committed.place(op, route)
    }

    /// Who may *process* ⟨`op`, `route`⟩ on this node: the staged owner
    /// once an epoch is staged, the committed owner otherwise. Staging
    /// flushed (or transferred) every slate whose arc leaves this node, so
    /// from then on the node forwards those keys instead of updating them
    /// — the worker's ownership check, its forwarding target, 1.0
    /// delivery's thread re-resolve and both slate-read paths ask here.
    pub(crate) fn owner(&self, op: OpId, route: u64) -> Option<Placement> {
        self.staged.as_ref().map_or(&self.committed, |s| &s.rings).place(op, route)
    }

    /// A prepare for `epoch` that needs no staging: `Some(true)` when the
    /// epoch is already installed or already staged (duplicate delivery),
    /// `Some(false)` when a newer epoch is staged. `None` = stage it.
    pub(crate) fn prepared(&self, epoch: u64) -> Option<bool> {
        if epoch <= self.epoch {
            return Some(true);
        }
        let staged = self.staged_epoch()?;
        (staged >= epoch).then_some(staged == epoch)
    }

    /// Stage `update`'s epoch over the committed rings: number the slots
    /// of every known machine, then enter the epoch's joiners and — healing
    /// by member set, not by delta, so one missed epoch never diverges a
    /// node for good — every listed member the rings lack. A member known
    /// `failed` stays out unless this very epoch (re-)joins it: a restarted
    /// incarnation supersedes its own death, a stale member list does not.
    /// Replaces whatever older epoch was staged. Returns the joiners that
    /// entered, for the caller to revive.
    pub(crate) fn stage(
        &mut self,
        update: &MembershipUpdate,
        known_machines: usize,
        failed: &dyn Fn(MachineId) -> bool,
    ) -> Vec<MachineId> {
        let mut rings = self.committed.clone();
        rings.ensure_slots(known_machines);
        let mut entered = Vec::new();
        for &id in update.joined.iter().chain(&update.members) {
            let joins = update.joined.contains(&id);
            if rings.contains(id) || (failed(id) && !joins) {
                continue;
            }
            rings.add_machine(id);
            if joins {
                entered.push(id);
            }
        }
        self.staged = Some(Staged { epoch: update.epoch, rings, joined: update.joined.clone() });
        entered
    }

    /// Install the staged epoch. `Some(joiners)` when `epoch` is now
    /// installed — empty for a duplicate commit — and `None` when nothing,
    /// or another epoch, is staged (this node missed the prepare: it keeps
    /// its rings, and the up-to-date owners' forwarding still delivers).
    pub(crate) fn commit(&mut self, epoch: u64) -> Option<Vec<MachineId>> {
        if self.epoch >= epoch {
            return Some(Vec::new());
        }
        let staged = self.staged.take_if(|s| s.epoch == epoch)?;
        self.epoch = epoch;
        self.committed = staged.rings;
        Some(staged.joined)
    }

    /// Discard the staged epoch if it is `epoch`; whether it was.
    pub(crate) fn abort(&mut self, epoch: u64) -> bool {
        self.staged.take_if(|s| s.epoch == epoch).is_some()
    }

    /// A §4.3 failure drop: out of the committed and the staged rings.
    pub(crate) fn drop_machine(&mut self, machine: MachineId) {
        self.committed.remove_machine(machine);
        if let Some(staged) = &mut self.staged {
            staged.rings.remove_machine(machine);
        }
    }

    /// The hand-off predicate: where ⟨`op`, `route`⟩ goes if the staged
    /// epoch takes it away from `machine` — its committed owner is
    /// `machine` and its staged owner is not.
    pub(crate) fn moved_from(&self, machine: MachineId, op: OpId, route: u64) -> Option<Placement> {
        let staged = self.staged.as_ref()?;
        if self.committed.place(op, route)?.machine != machine {
            return None;
        }
        staged.rings.place(op, route).filter(|to| to.machine != machine)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use muppet_core::hash::mix64;
    use muppet_net::frame::MembershipPhase;
    use proptest::prelude::*;

    use super::*;

    const OPS: usize = 2;
    /// Muppet 2.0, then Muppet 1.0 with two workers per function.
    const KINDS: [Option<(usize, usize)>; 2] = [None, Some((OPS, 2))];

    /// A cluster founded with machines `0..machines`, at epoch 0.
    fn founded(slotted: Option<(usize, usize)>, machines: usize) -> Membership {
        let mut rings = Rings::new(machines, slotted);
        (0..machines).for_each(|m| rings.add_machine(m));
        Membership::new(0, rings)
    }

    fn prepare(epoch: u64, joined: &[MachineId], members: &[MachineId]) -> MembershipUpdate {
        MembershipUpdate {
            epoch,
            phase: MembershipPhase::Prepare,
            joined: joined.to_vec(),
            members: members.to_vec(),
            nodes: Vec::new(),
        }
    }

    /// The ⟨op, route⟩ pairs every lookup is sampled at.
    fn samples() -> impl Iterator<Item = (OpId, u64)> {
        (0..OPS).flat_map(|op| (0..192u64).map(move |i| (op, mix64(i * 31 + op as u64))))
    }

    /// Every sampled `route` and `owner`: what a transition may or may
    /// not change.
    fn lookups(m: &Membership) -> Vec<(Option<Placement>, Option<Placement>)> {
        samples().map(|(op, h)| (m.route(op, h), m.owner(op, h))).collect()
    }

    fn names(m: &Membership, machine: MachineId) -> bool {
        lookups(m).iter().any(|(r, o)| [r, o].iter().any(|p| p.map(|p| p.machine) == Some(machine)))
    }

    const NEVER_FAILED: &dyn Fn(MachineId) -> bool = &|_| false;

    #[test]
    fn every_transition_of_the_join_protocol() {
        for slotted in KINDS {
            // A prepare at or below the committed epoch is a no-op that acks.
            let mut m = founded(slotted, 3);
            assert_eq!(m.prepared(0), Some(true));
            assert_eq!(m.prepared(1), None);
            assert_eq!(m.stage(&prepare(1, &[3], &[0, 1, 2, 3]), 4, NEVER_FAILED), vec![3]);
            assert_eq!(m.staged_epoch(), Some(1));

            // A duplicate prepare acks; an older one under it is refused; a
            // newer one replaces it.
            assert_eq!(m.prepared(1), Some(true));
            assert_eq!(m.stage(&prepare(5, &[3], &[0, 1, 2, 3]), 4, NEVER_FAILED), vec![3]);
            assert_eq!(m.prepared(3), Some(false));
            assert_eq!(m.staged_epoch(), Some(5));

            // Senders keep the committed rings, processing follows the
            // staged ones.
            assert!(lookups(&m).iter().all(|(route, _)| route.unwrap().machine != 3));
            assert!(lookups(&m).iter().any(|(_, owner)| owner.unwrap().machine == 3));

            // A commit of another epoch is refused and the staged one
            // survives; so does it survive an abort of another epoch.
            let staged = lookups(&m);
            assert_eq!(m.commit(4), None);
            assert!(!m.abort(4));
            assert_eq!((m.epoch(), m.staged_epoch()), (0, Some(5)));
            assert_eq!(lookups(&m), staged);

            // The commit installs the epoch and names the joiners once; a
            // duplicate names nobody, and an older prepare now just acks.
            assert_eq!(m.commit(5), Some(vec![3]));
            assert_eq!((m.epoch(), m.staged_epoch()), (5, None));
            assert!(lookups(&m).iter().all(|(route, owner)| route == owner));
            assert_eq!(m.commit(5), Some(Vec::new()));
            assert_eq!(m.prepared(4), Some(true));

            // A commit with nothing staged is refused (the prepare was
            // missed): rings and epoch stay.
            let before = lookups(&m);
            assert_eq!(m.commit(6), None);
            assert_eq!((m.epoch(), lookups(&m)), (5, before.clone()));

            // Stage, then abort: every lookup is back.
            m.stage(&prepare(6, &[4], &[0, 1, 2, 3, 4]), 5, NEVER_FAILED);
            assert_ne!(lookups(&m), before);
            assert!(m.abort(6));
            assert_eq!((m.staged_epoch(), lookups(&m)), (None, before));

            // A failure drop while an epoch is staged leaves both ring sets
            // and touches neither epoch.
            m.stage(&prepare(7, &[4], &[0, 1, 2, 3, 4]), 5, NEVER_FAILED);
            m.drop_machine(1);
            assert!(!names(&m, 1) && names(&m, 4));
            assert_eq!((m.epoch(), m.staged_epoch()), (5, Some(7)));
            assert_eq!(m.commit(7), Some(vec![4]));
            assert!(!names(&m, 1) && !m.committed().contains(1));
            assert_eq!(m.committed().members(), vec![0, 2, 3, 4]);

            // A failed id that re-joins at this epoch supersedes its own
            // death; a failed id that is merely still listed stays out.
            m.drop_machine(3);
            let failed: &dyn Fn(MachineId) -> bool = &|id| id == 1 || id == 3;
            assert_eq!(m.stage(&prepare(8, &[1], &[0, 1, 2, 3, 4]), 5, failed), vec![1]);
            assert_eq!(m.commit(8), Some(vec![1]));
            assert_eq!(m.committed().members(), vec![0, 1, 2, 4]);
        }
    }

    #[test]
    fn slot_layout_is_a_function_of_the_founding_shape_and_the_machine_id() {
        // Three workers per function over two founders: dealt round-robin,
        // function by function; a joiner runs function t on thread t.
        let mut rings = Rings::new(2, Some((OPS, 3)));
        assert_eq!(rings.bound_ops(0), Some(vec![0, 0, 1]));
        assert_eq!(rings.bound_ops(1), Some(vec![0, 1, 1]));
        assert_eq!(rings.bound_ops(7), Some(vec![0, 1]), "known before its slots are numbered");
        rings.ensure_slots(8);
        assert_eq!(rings.bound_ops(7), Some(vec![0, 1]));
        assert_eq!(Rings::new(2, None).bound_ops(0), None);
        // More machines than workers: the extra founders run nothing.
        assert_eq!(Rings::new(5, Some((OPS, 1))).bound_ops(3), Some(Vec::new()));
    }

    /// One node of the sweep: a `Membership` and the failed set beside it,
    /// driven the way `engine.rs`'s shell drives them.
    struct Node {
        m: Membership,
        failed: BTreeSet<MachineId>,
    }

    enum Msg {
        /// A prepare, and how many machine ids the cluster knew by then.
        Prepare(MembershipUpdate, usize),
        Commit(u64),
        Abort(u64),
        Drop(MachineId),
    }

    impl Node {
        fn deliver(&mut self, msg: &Msg) {
            match msg {
                Msg::Prepare(update, known) => {
                    if self.m.prepared(update.epoch).is_none() {
                        let failed = &self.failed;
                        self.m.stage(update, *known, &|id| failed.contains(&id));
                    }
                }
                Msg::Commit(epoch) => {
                    for id in self.m.commit(*epoch).unwrap_or_default() {
                        self.failed.remove(&id);
                    }
                }
                Msg::Abort(epoch) => {
                    self.m.abort(*epoch);
                }
                Msg::Drop(id) => {
                    self.m.drop_machine(*id);
                    self.failed.insert(*id);
                }
            }
        }
    }

    proptest! {
        /// A seeded membership history — reservations, joins (in or out of
        /// reservation order), aborted joins, failure drops over a random
        /// founding size, for both generations — checked at the master
        /// after every step, then replayed on a second node that hears it
        /// differently.
        #[test]
        fn membership_histories_keep_every_lookup_where_it_belongs(
            slotted in any::<bool>(),
            workers_per_op in 1usize..4,
            founding in 1usize..5,
            steps in proptest::collection::vec((0u8..4, any::<u64>()), 1..16),
            skip in any::<u64>(),
            late_drops in any::<u64>(),
        ) {
            let slotted = slotted.then_some((OPS, workers_per_op));
            let mut master = Node { m: founded(slotted, founding), failed: BTreeSet::new() };
            let (mut known, mut mint) = (founding, 0u64);
            let mut reserved: Vec<MachineId> = Vec::new();
            let mut log: Vec<Msg> = Vec::new();
            let mut committed_joins: Vec<u64> = Vec::new();
            for (kind, pick) in steps {
                let members = master.m.committed().members();
                let before = lookups(&master.m);
                if kind == 3 {
                    // A reservation: an id, and nothing else yet.
                    reserved.push(known);
                    known += 1;
                    continue;
                }
                if kind == 2 {
                    // A failure drop (never of the last member): only the
                    // dropped machine's arcs move — to nobody, under 1.0,
                    // if it ran a function's last worker — and the epoch
                    // does not.
                    if members.len() < 2 {
                        continue;
                    }
                    let gone = members[pick as usize % members.len()];
                    let epoch = master.m.epoch();
                    log.push(Msg::Drop(gone));
                    master.deliver(log.last().unwrap());
                    prop_assert_eq!(master.m.epoch(), epoch);
                    for (was, now) in before.iter().zip(lookups(&master.m)) {
                        if was.0.map(|p| p.machine) == Some(gone) {
                            prop_assert_ne!(now.0.map(|p| p.machine), Some(gone));
                        } else {
                            prop_assert_eq!(*was, now);
                        }
                    }
                    continue;
                }
                // A join: of a machine reserved earlier, or reserved now.
                // Ids are never reused, and announce in any order.
                if reserved.is_empty() || pick % 2 == 0 {
                    reserved.push(known);
                    known += 1;
                }
                let joiner = reserved.remove(pick as usize % reserved.len());
                let epoch = mint + 1;
                mint = epoch;
                let mut after = members.clone();
                after.push(joiner);
                let update = prepare(epoch, &[joiner], &after);
                prop_assert_eq!(master.m.prepared(epoch), None);
                log.push(Msg::Prepare(update, known));
                master.deliver(log.last().unwrap());
                // Staged: senders have not moved; what processing moved, it
                // moved to the joiner; and `moved_from` is exactly the keys
                // a machine owned and no longer may process.
                for ((op, h), (was, now)) in samples().zip(before.iter().zip(lookups(&master.m))) {
                    prop_assert_eq!(was.0, now.0);
                    let (route, owner) = (now.0.map(|p| p.machine), now.1);
                    prop_assert!(owner == now.0 || owner.unwrap().machine == joiner);
                    for m in 0..known {
                        let moved = owner.filter(|to| route == Some(m) && to.machine != m);
                        prop_assert_eq!(master.m.moved_from(m, op, h), moved);
                    }
                }
                if kind == 1 {
                    // The join aborts; its id may announce again later.
                    log.push(Msg::Abort(epoch));
                    master.deliver(log.last().unwrap());
                    prop_assert_eq!(lookups(&master.m), before);
                    reserved.push(joiner);
                } else {
                    log.push(Msg::Commit(epoch));
                    master.deliver(log.last().unwrap());
                    prop_assert_eq!(master.m.epoch(), epoch);
                    prop_assert!(lookups(&master.m).iter().all(|(r, o)| r == o));
                    committed_joins.push(epoch);
                }
                // No lookup ever names a machine that was dropped.
                for gone in &master.failed {
                    prop_assert!(!names(&master.m, *gone));
                }
            }

            // The second node: misses one epoch outright (prepare and commit
            // or abort — any but the last committed join, whose member list
            // is what heals it) and hears some drops only at the very end.
            let healing = committed_joins.last().copied().unwrap_or(0);
            let skipped = (healing > 1).then(|| 1 + skip % (healing - 1));
            let mut other = Node { m: founded(slotted, founding), failed: BTreeSet::new() };
            let mut late = Vec::new();
            for (i, msg) in log.iter().enumerate() {
                let epoch = match msg {
                    Msg::Prepare(update, _) => Some(update.epoch),
                    Msg::Commit(epoch) | Msg::Abort(epoch) => Some(*epoch),
                    Msg::Drop(_) => None,
                };
                if epoch.is_some() && epoch == skipped {
                    continue;
                }
                if epoch.is_none() && late_drops >> (i % 64) & 1 == 1 {
                    late.push(msg);
                    continue;
                }
                other.deliver(msg);
            }
            late.into_iter().for_each(|msg| other.deliver(msg));
            prop_assert_eq!(other.m.epoch(), master.m.epoch());
            prop_assert_eq!(other.m.committed().members(), master.m.committed().members());
            for (op, h) in samples() {
                prop_assert_eq!(other.m.route(op, h), master.m.route(op, h));
            }

            // And both route like rings built in one go from the final member
            // set: placement is a function of membership, not of history —
            // and 1.0 slot ids are not shifted by reservations that never
            // joined or by the order the ids were heard of.
            let mut fresh = Rings::new(founding, slotted);
            fresh.ensure_slots(known);
            master.m.committed().members().into_iter().for_each(|m| fresh.add_machine(m));
            for (op, h) in samples() {
                prop_assert_eq!(fresh.place(op, h), master.m.route(op, h));
            }
        }
    }
}

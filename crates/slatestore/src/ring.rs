//! Consistent hash ring with virtual nodes.
//!
//! Both the store (replica placement) and the Muppet runtime (event→worker
//! routing, "technically accomplished using a hash ring", §4.3) use this
//! structure. Virtual nodes smooth the load; removing a node moves only
//! that node's arc — exactly the §4.3 failover behaviour where "from then
//! on all events with the same key will be routed to worker C instead of
//! the (now failed) worker B".

use muppet_core::hash::{fx64, mix64};

/// A consistent hash ring over `usize` member ids.
#[derive(Clone, Debug)]
pub struct ConsistentRing {
    /// (point, member) sorted by point.
    points: Vec<(u64, usize)>,
    vnodes: usize,
    members: Vec<usize>,
}

impl ConsistentRing {
    /// Build a ring over members `0..n` with `vnodes` virtual nodes each.
    pub fn new(n: usize, vnodes: usize) -> Self {
        let mut ring =
            ConsistentRing { points: Vec::new(), vnodes: vnodes.max(1), members: Vec::new() };
        for id in 0..n {
            ring.add(id);
        }
        ring
    }

    /// Add a member.
    pub fn add(&mut self, id: usize) {
        if self.members.contains(&id) {
            return;
        }
        self.members.push(id);
        for v in 0..self.vnodes {
            let point = mix64(fx64(format!("member-{id}").as_bytes()) ^ mix64(v as u64 + 1));
            self.points.push((point, id));
        }
        self.points.sort_unstable();
    }

    /// Remove a member (e.g. a failed machine).
    pub fn remove(&mut self, id: usize) {
        self.members.retain(|&m| m != id);
        self.points.retain(|&(_, m)| m != id);
    }

    /// Whether `id` is a live member.
    pub fn contains(&self, id: usize) -> bool {
        self.members.contains(&id)
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The primary owner of `hash`, or `None` on an empty ring.
    pub fn owner(&self, hash: u64) -> Option<usize> {
        self.walk(hash).next()
    }

    /// The first `n` *distinct* owners clockwise from `hash` — the replica
    /// set for replication factor `n` (clamped to the member count).
    pub fn owners(&self, hash: u64, n: usize) -> Vec<usize> {
        let want = n.min(self.members.len());
        let mut out = Vec::with_capacity(want);
        for id in self.walk(hash) {
            if !out.contains(&id) {
                out.push(id);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }

    /// Iterate member ids clockwise from `hash` (with repetition across
    /// vnodes; callers dedup).
    fn walk(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let start = self.points.partition_point(|&(p, _)| p < hash);
        self.points[start..].iter().chain(self.points[..start].iter()).map(|&(_, id)| id)
    }

    /// Live member ids in insertion order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = ConsistentRing::new(0, 8);
        assert!(ring.is_empty());
        assert_eq!(ring.owner(42), None);
        assert!(ring.owners(42, 3).is_empty());
    }

    #[test]
    fn single_member_owns_everything() {
        let ring = ConsistentRing::new(1, 8);
        for h in [0u64, 1, u64::MAX, 12345] {
            assert_eq!(ring.owner(h), Some(0));
        }
    }

    #[test]
    fn owners_are_distinct_and_bounded() {
        let ring = ConsistentRing::new(5, 16);
        for h in 0..100u64 {
            let owners = ring.owners(mix64(h), 3);
            assert_eq!(owners.len(), 3);
            let mut dedup = owners.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "replicas must be distinct nodes");
        }
        // Replication factor above member count clamps.
        assert_eq!(ring.owners(7, 10).len(), 5);
    }

    #[test]
    fn deterministic_across_instances() {
        let a = ConsistentRing::new(8, 32);
        let b = ConsistentRing::new(8, 32);
        for h in (0..1000u64).map(mix64) {
            assert_eq!(a.owner(h), b.owner(h), "all workers share the same hash ring (§4.1)");
        }
    }

    #[test]
    fn removal_only_moves_the_failed_members_keys() {
        let mut ring = ConsistentRing::new(6, 32);
        let hashes: Vec<u64> = (0..2000u64).map(mix64).collect();
        let before: Vec<usize> = hashes.iter().map(|&h| ring.owner(h).unwrap()).collect();
        ring.remove(3);
        assert!(!ring.contains(3));
        for (h, &old_owner) in hashes.iter().zip(&before) {
            let new_owner = ring.owner(*h).unwrap();
            if old_owner != 3 {
                assert_eq!(new_owner, old_owner, "non-failed keys must not move");
            } else {
                assert_ne!(new_owner, 3);
            }
        }
    }

    #[test]
    fn load_spreads_roughly_evenly() {
        let ring = ConsistentRing::new(8, 64);
        let mut counts = [0u32; 8];
        for h in (0..40_000u64).map(mix64) {
            counts[ring.owner(h).unwrap()] += 1;
        }
        let mean = 40_000 / 8;
        for (id, &c) in counts.iter().enumerate() {
            assert!(
                (c as i64 - mean as i64).unsigned_abs() < mean as u64 / 2,
                "member {id} got {c}, mean {mean}"
            );
        }
    }

    #[test]
    fn re_adding_a_member_restores_ownership() {
        let mut ring = ConsistentRing::new(4, 32);
        let hashes: Vec<u64> = (0..500u64).map(mix64).collect();
        let before: Vec<usize> = hashes.iter().map(|&h| ring.owner(h).unwrap()).collect();
        ring.remove(2);
        ring.add(2);
        let after: Vec<usize> = hashes.iter().map(|&h| ring.owner(h).unwrap()).collect();
        assert_eq!(before, after, "ring placement is a pure function of membership");
    }

    #[test]
    fn duplicate_add_is_idempotent() {
        let mut ring = ConsistentRing::new(3, 8);
        let points_before = ring.points.len();
        ring.add(1);
        assert_eq!(ring.points.len(), points_before);
        assert_eq!(ring.len(), 3);
    }
}

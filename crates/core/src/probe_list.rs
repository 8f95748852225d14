//! Round-robin probe target selection.
//!
//! SWIM's refinement over pure random probing: each member walks its
//! member list in round-robin order so worst-case first-detection time is
//! bounded, but the list order is random and *new members are inserted at
//! random positions*, so the expected detection time matches the random
//! scheme (paper §III-A).

use lifeguard_proto::NodeName;
use rand::{Rng, RngExt};

use crate::membership::Membership;

/// The local node's probe rotation.
#[derive(Clone, Debug, Default)]
pub struct ProbeList {
    // bounded: ≤ cluster size live names plus stale ones, compacted lazily when stale entries are skipped during selection
    order: Vec<NodeName>,
    next: usize,
}

impl ProbeList {
    /// Creates an empty rotation.
    pub fn new() -> Self {
        ProbeList::default()
    }

    /// Number of names in the rotation (live and stale entries alike;
    /// stale entries are skipped lazily during [`ProbeList::next_target`]).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the rotation is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Inserts a newly discovered member at a random position, per SWIM.
    /// Positions at or before the cursor are shifted so the new member is
    /// visited within the current sweep where possible.
    pub fn insert<R: Rng>(&mut self, name: NodeName, rng: &mut R) {
        let pos = rng.random_range(0..=self.order.len());
        self.order.insert(pos, name);
        if pos < self.next {
            self.next += 1;
        }
    }

    /// Bulk insertion for cluster bootstrap: appends all names and
    /// reshuffles once (O(total)), instead of one O(n) positional insert
    /// per member. Restarts the sweep. Reserves exactly the iterator's
    /// lower size bound up front.
    pub fn extend_shuffled<R: Rng>(
        &mut self,
        names: impl IntoIterator<Item = NodeName>,
        rng: &mut R,
    ) {
        let names = names.into_iter();
        self.order.reserve_exact(names.size_hint().0);
        self.order.extend(names);
        self.reshuffle(rng);
    }

    /// Picks the next probe target: advances round-robin, skipping
    /// entries for which `eligible` is false and dropping entries no
    /// longer in `membership`. Reshuffles at the end of each sweep.
    ///
    /// Returns `None` when no eligible member exists.
    // lint: allow(panic_path) — `idx = self.next` is re-checked against `order.len()` at the top of every iteration, and `order.remove(idx)` / `order[idx]` only run on that validated index
    pub fn next_target<R: Rng>(
        &mut self,
        membership: &Membership,
        rng: &mut R,
        mut eligible: impl FnMut(&NodeName) -> bool,
    ) -> Option<NodeName> {
        // One full sweep plus one reshuffle is enough to visit every
        // candidate; two sweeps bounds the loop even with removals.
        let mut inspected = 0;
        let limit = self.order.len().saturating_mul(2).max(1);
        while inspected < limit {
            if self.order.is_empty() {
                return None;
            }
            if self.next >= self.order.len() {
                self.reshuffle(rng);
                continue;
            }
            let idx = self.next;
            if membership.get(&self.order[idx]).is_none() {
                // Member was reaped: drop from rotation without advancing.
                self.order.remove(idx);
                inspected += 1;
                continue;
            }
            self.next += 1;
            inspected += 1;
            if eligible(&self.order[idx]) {
                // Clone (an `Arc` bump) only for the selected target.
                return Some(self.order[idx].clone());
            }
        }
        None
    }

    /// Fisher–Yates reshuffle, restarting the sweep.
    fn reshuffle<R: Rng>(&mut self, rng: &mut R) {
        let n = self.order.len();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            self.order.swap(i, j);
        }
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::member::Member;
    use crate::time::Time;
    use lifeguard_proto::{Incarnation, NodeAddr};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn setup(n: usize) -> (Membership, ProbeList, StdRng) {
        let mut membership = Membership::new();
        let mut list = ProbeList::new();
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..n {
            let name = NodeName::from(format!("node-{i}"));
            membership.upsert(Member::new(
                name.clone(),
                NodeAddr::new([10, 0, 0, i as u8], 1),
                Incarnation(0),
                Time::ZERO,
            ));
            list.insert(name, &mut rng);
        }
        (membership, list, rng)
    }

    #[test]
    fn visits_every_member_each_sweep() {
        let (membership, mut list, mut rng) = setup(8);
        for sweep in 0..5 {
            let mut seen = Vec::new();
            for _ in 0..8 {
                seen.push(list.next_target(&membership, &mut rng, |_| true).unwrap());
            }
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), 8, "sweep {sweep} revisited a member");
        }
    }

    #[test]
    fn skips_ineligible_members() {
        let (membership, mut list, mut rng) = setup(4);
        for _ in 0..20 {
            let t = list
                .next_target(&membership, &mut rng, |n| n.as_str() != "node-2")
                .unwrap();
            assert_ne!(t.as_str(), "node-2");
        }
    }

    #[test]
    fn returns_none_when_nothing_eligible() {
        let (membership, mut list, mut rng) = setup(4);
        assert!(list.next_target(&membership, &mut rng, |_| false).is_none());
        let (_, mut empty, mut rng2) = setup(0);
        let empty_membership = Membership::new();
        assert!(empty
            .next_target(&empty_membership, &mut rng2, |_| true)
            .is_none());
    }

    #[test]
    fn drops_members_removed_from_membership() {
        let (mut membership, mut list, mut rng) = setup(4);
        membership.remove(&"node-1".into());
        let mut seen = Vec::new();
        for _ in 0..3 {
            seen.push(
                list.next_target(&membership, &mut rng, |_| true)
                    .unwrap()
                    .as_str()
                    .to_owned(),
            );
        }
        assert!(!seen.contains(&"node-1".to_owned()));
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn insertion_positions_are_spread_randomly() {
        // Insert a marker node into many fresh lists and check its
        // position is not always the same (random insertion per SWIM).
        let mut positions = HashMap::new();
        for seed in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut list = ProbeList::new();
            for i in 0..9 {
                list.insert(format!("node-{i}").into(), &mut rng);
            }
            list.insert("marker".into(), &mut rng);
            let pos = list
                .order
                .iter()
                .position(|n| n.as_str() == "marker")
                .unwrap();
            *positions.entry(pos).or_insert(0) += 1;
        }
        assert!(
            positions.len() > 3,
            "marker always inserted at the same few positions: {positions:?}"
        );
    }

    #[test]
    fn worst_case_first_visit_is_bounded() {
        // Round-robin guarantees any member is probed within one sweep
        // after the current one (SWIM's bounded-detection refinement).
        let (membership, mut list, mut rng) = setup(16);
        for _ in 0..3 {
            let mut gap = 0;
            let mut found = false;
            for _ in 0..32 {
                gap += 1;
                let t = list.next_target(&membership, &mut rng, |_| true).unwrap();
                if t.as_str() == "node-7" {
                    found = true;
                    break;
                }
            }
            assert!(found, "node-7 not visited within two sweeps (gap {gap})");
        }
    }
}

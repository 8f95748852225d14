//! Property tests for the membership change log under sustained churn.
//!
//! The change log backs delta anti-entropy (`changed_since`): the table
//! keeps a lazily compacted log of `(update_seq, slot)` entries, and the
//! feed must always return exactly the members changed after a cursor,
//! newest first. Two properties matter at scale:
//!
//! 1. **Correctness under churn**: any interleaving of upserts, state
//!    flips, metadata updates and removals leaves the table's invariants
//!    intact, and every feed matches a recomputation from the members'
//!    own stamps.
//! 2. **The log is O(members), not O(history)**: sustained churn — many
//!    updates per member — must not grow the log without bound. Lazy
//!    compaction keeps the log within a constant factor of the live
//!    membership, so a `changed_since` scan is proportional to actual
//!    change volume, never to the total number of stamps ever issued.

use proptest::prelude::*;

use lifeguard_core::member::Member;
use lifeguard_core::membership::Membership;
use lifeguard_core::time::Time;
use lifeguard_proto::{Incarnation, MemberState, NodeAddr, NodeName};

fn name(i: usize) -> NodeName {
    NodeName::from(format!("churn-{i}"))
}

fn member(i: usize, inc: u64) -> Member {
    Member::new(
        name(i),
        NodeAddr::new([10, 1, (i >> 8) as u8, i as u8], 7946),
        Incarnation(inc),
        Time::ZERO,
    )
}

/// One churn step against one membership table.
#[derive(Clone, Debug)]
enum Op {
    Upsert { node: usize, inc: u64 },
    Flip { node: usize, state: MemberState },
    Touch { node: usize },
    Remove { node: usize },
}

fn op_strategy(pool: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..pool, 0u64..4).prop_map(|(node, inc)| Op::Upsert { node, inc }),
        (0..pool, prop_oneof![
            Just(MemberState::Alive),
            Just(MemberState::Suspect),
            Just(MemberState::Dead),
        ])
        .prop_map(|(node, state)| Op::Flip { node, state }),
        (0..pool).prop_map(|node| Op::Touch { node }),
        // Upserts outnumber removals three-to-one structurally (via the
        // variants above), keeping the table populated under churn.
        (0..pool).prop_map(|node| Op::Remove { node }),
    ]
}

fn apply(m: &mut Membership, op: &Op) {
    match op {
        Op::Upsert { node, inc } => {
            m.upsert(member(*node, *inc));
        }
        Op::Flip { node, state } => {
            m.set_state(&name(*node), *state, Time::from_secs(1));
        }
        Op::Touch { node } => {
            m.update(&name(*node), |mb| {
                mb.incarnation = Incarnation(mb.incarnation.0 + 1);
            });
        }
        Op::Remove { node } => {
            m.remove(&name(*node));
        }
    }
}

/// Upper bound on the retained change-log entries: the table compacts
/// a full log before stamping and after a removal shrinks the bound, so
/// it retains at most `64 + members + members / 4` entries no matter how
/// much history the churn generated. `changed_since(0)` visits at most
/// one entry per retained stamp, so its cost is bounded by the same
/// expression.
fn log_bound(m: &Membership) -> usize {
    64 + m.len() + m.len() / 4
}

/// The members' `(name, updated_seq)` pairs stamped after `cursor`,
/// newest first, recomputed from the table's records.
fn model_feed(m: &Membership, cursor: u64) -> Vec<(NodeName, u64)> {
    let mut feed: Vec<(NodeName, u64)> = m
        .iter()
        .filter(|mb| mb.updated_seq > cursor)
        .map(|mb| (mb.name.clone(), mb.updated_seq))
        .collect();
    feed.sort_by_key(|entry| std::cmp::Reverse(entry.1));
    feed
}

fn feed(m: &Membership, cursor: u64) -> Vec<(NodeName, u64)> {
    m.changed_since(cursor)
        .map(|mb| (mb.name.clone(), mb.updated_seq))
        .collect()
}

proptest! {
    /// Sustained churn: correctness and boundedness of the change log.
    #[test]
    fn change_log_stays_correct_and_compact_under_churn(
        ops in proptest::collection::vec(op_strategy(48), 1..400),
        cursor_frac in 0.0f64..1.0,
    ) {
        let mut m = Membership::new();
        for op in &ops {
            apply(&mut m, op);
            // Invariants (and the log bound) hold mid-churn, not just
            // at the end.
            m.check_invariants();
            prop_assert!(m.retained_log_len() <= log_bound(&m));
        }

        // Newest-first, one entry per member, covering everything.
        let full = feed(&m, 0);
        prop_assert!(full.windows(2).all(|w| w[0].1 > w[1].1));
        prop_assert_eq!(full.len(), m.len());
        prop_assert_eq!(&full, &model_feed(&m, 0));

        // A mid-stream cursor returns exactly the strictly-newer slice.
        let cursor = (m.update_seq() as f64 * cursor_frac) as u64;
        prop_assert_eq!(feed(&m, cursor), model_feed(&m, cursor));

        // Lazy compaction: retained log entries stay O(members) even
        // though the churn issued `update_seq()` stamps in total.
        prop_assert!(
            m.retained_log_len() <= log_bound(&m),
            "log grew past its compaction bound: {} > {} (members {}, stamps {})",
            m.retained_log_len(),
            log_bound(&m),
            m.len(),
            m.update_seq(),
        );
    }
}

/// Deterministic worst case: hammer a tiny member set with far more
/// updates than the compaction threshold and check the log never grows
/// with history length.
#[test]
fn log_length_is_independent_of_history_length() {
    let mut m = Membership::new();
    for i in 0..8 {
        m.upsert(member(i, 0));
    }
    let mut after_short = 0;
    for round in 0..2000u64 {
        for i in 0..8 {
            m.update(&name(i), |mb| {
                mb.incarnation = Incarnation(mb.incarnation.0 + 1);
            });
        }
        if round == 100 {
            after_short = m.retained_log_len();
        }
    }
    m.check_invariants();
    let after_long = m.retained_log_len();
    assert!(
        after_long <= after_short.max(log_bound(&m)),
        "log kept growing with history ({after_short} -> {after_long})"
    );
    assert!(after_long <= log_bound(&m));
    // The feed still reflects exactly the live members.
    assert_eq!(m.changed_since(0).count(), 8);
}

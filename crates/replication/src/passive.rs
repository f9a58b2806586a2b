//! Passive replication over generic broadcast — the paper's §3.2.3 and
//! Fig 8.
//!
//! Two message classes with the paper's conflict relation:
//!
//! | | update | primary change |
//! |----------------|------------|----------|
//! | update         | no conflict| conflict |
//! | primary change | conflict   | conflict |
//!
//! Updates from the primary take the generic-broadcast fast path; a
//! `primary-change(s)` message is totally ordered against all updates, so
//! every replica agrees on whether a racing update landed *before* the
//! change (it is applied) or *after* (it came from a deposed primary and is
//! ignored; the client times out and re-issues — the paper's two legal
//! outcomes of Fig 8). A primary change only **rotates** the deposed primary
//! to the tail of the view list (footnote 10) — no exclusion.
//!
//! Per the paper's footnote 9, the stack runs **FIFO generic broadcast**:
//! a primary's updates are applied in issue order at every backup.

use bytes::Bytes;
use gcs_api::{Group, GroupTransport};
use gcs_core::{ConflictRelation, DeliveryKind, MessageClass, StackConfig};
use gcs_kernel::{ProcessId, Time};

/// Conflict class of state updates (commute with each other).
pub const CLASS_UPDATE: MessageClass = MessageClass(8);
/// Conflict class of primary-change messages (conflict with everything).
pub const CLASS_PRIMARY_CHANGE: MessageClass = MessageClass(9);

/// The §3.2.3 conflict relation.
pub fn passive_conflicts() -> ConflictRelation {
    let mut r = ConflictRelation::none(10);
    r.set_conflict(CLASS_PRIMARY_CHANGE, CLASS_PRIMARY_CHANGE);
    r.set_conflict(CLASS_PRIMARY_CHANGE, CLASS_UPDATE);
    r
}

/// What happened to one replica after replaying its delivery sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassiveOutcome {
    /// Request ids applied, in order.
    pub applied: Vec<u64>,
    /// Request ids ignored because their issuer had been deposed.
    pub ignored: Vec<u64>,
    /// The primary after the replay (head of the rotated list).
    pub primary: ProcessId,
    /// Number of primary changes processed.
    pub changes: usize,
}

/// A passively replicated group: a new-architecture [`Group`] configured
/// with the §3.2.3 conflict relation plus the replay logic of the replicas.
///
/// Passive replication *requires* generic broadcast (the conflict relation
/// between updates and primary changes is the whole protocol), so the
/// builder pins the stack to the new architecture and the constructor
/// asserts the capability marker.
pub struct PassiveGroup {
    group: Group,
    n: usize,
}

impl PassiveGroup {
    /// Creates `n` replicas; the initial primary is process 0 (view head).
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_config(n, StackConfig::default(), seed)
    }

    /// With a custom stack configuration (the conflict relation and the
    /// FIFO requirement of the paper's footnote 9 are always enforced).
    pub fn with_config(n: usize, mut config: StackConfig, seed: u64) -> Self {
        config.conflict = passive_conflicts();
        let group = Group::builder()
            .members(n)
            .stack_config(config)
            .seed(seed)
            .build();
        assert!(
            group.supports_gbcast(),
            "passive replication needs generic broadcast"
        );
        PassiveGroup { group, n }
    }

    /// The primary processes a client request and broadcasts the resulting
    /// state update (`req` identifies the request).
    pub fn update_at(&mut self, t: Time, primary: ProcessId, req: u64, data: &[u8]) {
        let mut payload = req.to_be_bytes().to_vec();
        payload.extend_from_slice(data);
        self.group
            .gbcast_at(t, primary, CLASS_UPDATE, Bytes::from(payload));
    }

    /// Replica `by` suspects `suspected` (the current primary) and
    /// broadcasts `primary-change(suspected)` — Fig 8's second message.
    pub fn primary_change_at(&mut self, t: Time, by: ProcessId, suspected: ProcessId) {
        self.group.gbcast_at(
            t,
            by,
            CLASS_PRIMARY_CHANGE,
            Bytes::from(suspected.raw().to_be_bytes().to_vec()),
        );
    }

    /// Crashes a replica.
    pub fn crash_at(&mut self, t: Time, p: ProcessId) {
        self.group.crash_at(t, p);
    }

    /// Runs the simulation until `t`.
    pub fn run_until(&mut self, t: Time) {
        self.group.run_until(t);
    }

    /// Access to the underlying group.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// Replays every replica's g-delivery sequence through the passive
    /// replication logic.
    pub fn outcomes(&self) -> Vec<PassiveOutcome> {
        let deliveries: Vec<Vec<(ProcessId, MessageClass, Bytes)>> = self
            .group
            .delivered()
            .into_iter()
            .map(|seq| {
                seq.into_iter()
                    .filter(|d| d.kind != DeliveryKind::Atomic)
                    // Resolve the arena handle at the observation edge.
                    .map(|d| (d.sender, d.class, self.group.resolve(d.payload)))
                    .collect()
            })
            .collect();
        deliveries
            .into_iter()
            .map(|seq| {
                let mut view: Vec<ProcessId> = (0..self.n as u32).map(ProcessId::new).collect();
                let mut out = PassiveOutcome {
                    applied: Vec::new(),
                    ignored: Vec::new(),
                    primary: view[0],
                    changes: 0,
                };
                for (sender, class, payload) in seq {
                    if class == CLASS_PRIMARY_CHANGE {
                        let raw = u32::from_be_bytes(payload[..4].try_into().expect("4-byte pid"));
                        let deposed = ProcessId::new(raw);
                        // Rotate the deposed primary to the tail (footnote
                        // 10): only meaningful if it is the current head.
                        if view.first() == Some(&deposed) {
                            view.rotate_left(1);
                            out.changes += 1;
                        }
                    } else if class == CLASS_UPDATE {
                        let req = u64::from_be_bytes(payload[..8].try_into().expect("8-byte req"));
                        // Apply only updates from the *current* primary;
                        // updates from a deposed primary are ignored (the
                        // client re-issues).
                        if view.first() == Some(&sender) {
                            out.applied.push(req);
                        } else {
                            out.ignored.push(req);
                        }
                    }
                }
                out.primary = view[0];
                out
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn updates_from_the_primary_apply_everywhere() {
        let mut g = PassiveGroup::new(3, 1);
        g.update_at(Time::from_millis(1), p(0), 1, b"state-v1");
        g.update_at(Time::from_millis(2), p(0), 2, b"state-v2");
        g.run_until(Time::from_secs(1));
        let outcomes = g.outcomes();
        for o in &outcomes {
            assert_eq!(o.applied, vec![1, 2]);
            assert_eq!(o.primary, p(0));
        }
    }

    #[test]
    fn fig8_race_has_exactly_the_two_legal_outcomes_and_agreement() {
        // The paper's Fig 8: s1 broadcasts update(1) at ~t while s2
        // broadcasts primary-change(s1). Across seeds both outcomes occur,
        // and within a run all replicas agree.
        let mut saw_applied = false;
        let mut saw_ignored = false;
        for seed in 0..30u64 {
            let mut g = PassiveGroup::new(3, seed);
            // "Approximately at the same time t" (Fig 8): the race offset
            // varies with the seed, like real suspicion timing would.
            g.update_at(Time::from_millis(10), p(0), 1, b"update");
            g.primary_change_at(Time::from_millis(4 + seed % 13), p(1), p(0));
            g.run_until(Time::from_secs(2));
            let outcomes = g.outcomes();
            for o in &outcomes[1..] {
                assert_eq!(o, &outcomes[0], "replicas disagree (seed {seed})");
            }
            let o = &outcomes[0];
            assert_eq!(o.changes, 1, "the change is always delivered (seed {seed})");
            assert_eq!(o.primary, p(1), "s2 is the new primary (seed {seed})");
            match (o.applied.as_slice(), o.ignored.as_slice()) {
                ([1], []) => saw_applied = true, // outcome 1: update first
                ([], [1]) => saw_ignored = true, // outcome 2: change first
                other => panic!("illegal outcome {other:?} (seed {seed})"),
            }
        }
        assert!(
            saw_applied,
            "outcome 1 (update before change) never observed"
        );
        assert!(
            saw_ignored,
            "outcome 2 (change before update) never observed"
        );
    }

    #[test]
    fn deposed_primary_remains_in_the_view() {
        // The paper stresses a primary change does NOT exclude the old
        // primary: it can keep working as a backup and later updates from
        // the new primary apply.
        let mut g = PassiveGroup::new(3, 7);
        g.primary_change_at(Time::from_millis(1), p(1), p(0));
        g.update_at(Time::from_millis(200), p(1), 9, b"from-new-primary");
        g.run_until(Time::from_secs(2));
        let outcomes = g.outcomes();
        for o in &outcomes {
            assert_eq!(o.primary, p(1));
            assert_eq!(o.applied, vec![9]);
        }
        // No membership change happened at all (rotation ≠ exclusion).
        assert!(g.group().views().iter().all(|v| v.is_empty()));
    }
}

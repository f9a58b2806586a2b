//! Reliable broadcast by diffusion — the dissemination substrate shared by
//! atomic broadcast and generic broadcast.
//!
//! The origin sends its message to every other group member over reliable
//! channels; receivers relay so that a crash of the origin part-way through
//! its sends cannot leave some correct processes without the message. This
//! module is the mechanism — duplicate suppression ([`Rbcast::first_copy`])
//! and the relay fan-out ([`Rbcast::relay_targets`]); *when* to relay is the
//! caller's protocol, and both callers relay lazily: a message is relayed
//! only while the failure detector suspects its origin (the suspicion set
//! and the buffer of messages to relay live in the caller's core). A
//! failure-free broadcast then costs exactly n−1 messages. With a
//! ◇S-complete detector a correct process that holds `m` from a crashed
//! origin eventually suspects it and relays. What each caller must keep
//! relayable differs:
//!
//! * **Atomic broadcast** delivers nothing on receipt — only what consensus
//!   decides, and decisions carry full messages — so it relays its pool of
//!   *unordered* messages and nothing else (non-uniform reliable broadcast is
//!   enough there). Nor does its origin need to reach everybody up front: it
//!   sends to the member that will propose the message and falls back to the
//!   full fan-out ([`Rbcast::peers`]) only for a message that stays unordered
//!   (`abcast.rs` has the rules); this module supplies the ids, the
//!   duplicate suppression and the target lists either way.
//! * **Generic broadcast** delivers on acks alone, so it needs *uniform*
//!   reliable broadcast: if any process delivers `m` — even one that crashes
//!   immediately after — every correct process eventually delivers `m`. A
//!   fast-delivered `m` is held by every process of the ack quorum until its
//!   epoch closes, one of them is correct, and on suspicion it relays what it
//!   holds for the epoch, *delivered or not* (`generic.rs` has the
//!   argument). An origin outside the view is outside the detector's watch:
//!   its first copies are relayed at once.
//!
//! **How far a relay reaches.** Classic diffusion relays to *every* peer:
//! n−1 receivers each re-sending n−2 copies makes one broadcast cost O(n²)
//! messages — the redundancy that tolerates an origin crashing mid-send,
//! bought at a price that collapses large groups. Above
//! [`gcs_kernel::SCALE_THRESHOLD`] members a relaying receiver re-forwards
//! to only its k = [`fanout`] *ring successors* (in sorted process order,
//! wrapping) instead, while the origin keeps its full fan-out. Coverage
//! survives an origin crash: the partial direct fan-out seeds contiguous
//! ring segments, and first-copy relays extend each segment by k until the
//! ring closes — any crash pattern short of k consecutive failed processes
//! still reaches everyone (`bounded_relay_reaches_every_correct_member`
//! checks it).

use gcs_kernel::{fanout, ring_successors, IdRuns, ProcessId};

use crate::types::{Message, MsgId};

/// Diffusion-based reliable broadcast over reliable point-to-point channels.
#[derive(Debug)]
pub struct Rbcast {
    me: ProcessId,
    peers: Vec<ProcessId>,
    /// Peers a relay reaches: [`fanout`] of the member count.
    relay_fanout: usize,
    /// Reused relay-target buffer: relaying allocates nothing.
    targets: Vec<ProcessId>,
    /// The peers in sorted order — the ring a bounded relay walks. (View
    /// member order is the agreed primary order, not id order, so the ring
    /// is materialized separately at `set_peers`.)
    ring: Vec<ProcessId>,
    seen: IdRuns,
    next_seq: u64,
}

impl Rbcast {
    /// Creates a broadcast module for `me`; peers come from the view.
    pub fn new(me: ProcessId) -> Self {
        Rbcast {
            me,
            peers: Vec::new(),
            relay_fanout: usize::MAX,
            targets: Vec::new(),
            ring: Vec::new(),
            seen: IdRuns::default(),
            next_seq: 0,
        }
    }

    /// Updates the destination set (driven by view changes) and, from the
    /// member count, the relay fan-out. `me` is kept out of the peer list;
    /// local delivery is immediate at broadcast time.
    pub fn set_peers(&mut self, members: &[ProcessId]) {
        self.peers = members.iter().copied().filter(|&p| p != self.me).collect();
        self.ring = self.peers.clone();
        self.ring.sort_unstable();
        self.relay_fanout = fanout(members.len(), members.len());
    }

    /// The current relay/broadcast peer set.
    pub fn peers(&self) -> &[ProcessId] {
        &self.peers
    }

    /// Allocates the next message id for this sender.
    pub fn next_id(&mut self) -> MsgId {
        let id = MsgId {
            sender: self.me,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        id
    }

    /// The sequence number the next [`next_id`](Self::next_id) will carry:
    /// every id this sender allocated so far is below it.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Broadcasts `message`: marks it seen locally (the caller delivers it
    /// to itself directly) and returns the send targets — a borrow of the
    /// peer list, so broadcasting allocates nothing.
    pub fn broadcast(&mut self, message: &Message) -> &[ProcessId] {
        self.seen.insert(message.id);
        &self.peers
    }

    /// Records `id` as seen and says whether this was its first copy.
    pub fn first_copy(&mut self, id: MsgId) -> bool {
        self.seen.insert(id)
    }

    /// Whom to relay a message of `origin` received from `from` to: every
    /// peer, in view order, or in a large group the first [`fanout`] ring
    /// successors — minus the transport-level sender and the origin (both
    /// already have the message). A borrow of the module's reused buffer:
    /// relaying allocates nothing.
    pub fn relay_targets(&mut self, origin: ProcessId, from: ProcessId) -> &[ProcessId] {
        self.targets.clear();
        let wanted = |p: &ProcessId| *p != from && *p != origin;
        if self.relay_fanout >= self.peers.len() {
            self.targets
                .extend(self.peers.iter().copied().filter(wanted));
        } else {
            self.targets.extend(
                ring_successors(&self.ring, self.me)
                    .take(self.relay_fanout)
                    .filter(wanted),
            );
        }
        &self.targets
    }

    /// Whether `id` has been seen (sent or received).
    pub fn seen(&self, id: MsgId) -> bool {
        self.seen.contains(id)
    }

    /// Runs the seen-set holds (see `IdRuns::run_count`).
    #[cfg(test)]
    pub(crate) fn seen_runs(&self) -> usize {
        self.seen.run_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Body, MessageClass};

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn msg(id: MsgId) -> Message {
        Message {
            id,
            class: MessageClass::RBCAST,
            body: Body::App(gcs_kernel::PayloadRef::EMPTY),
        }
    }

    #[test]
    fn broadcast_targets_all_peers_but_self() {
        let mut rb = Rbcast::new(pid(0));
        rb.set_peers(&[pid(0), pid(1), pid(2)]);
        let id = rb.next_id();
        assert_eq!(
            id,
            MsgId {
                sender: pid(0),
                seq: 0
            }
        );
        let targets = rb.broadcast(&msg(id));
        assert_eq!(targets, vec![pid(1), pid(2)]);
        assert!(rb.seen(id));
    }

    #[test]
    fn relay_to_all_skips_self_source_and_origin() {
        let mut rb = Rbcast::new(pid(2));
        rb.set_peers(&[pid(0), pid(1), pid(2), pid(3)]);
        // A message of p0 that came in from the relayer p1.
        assert_eq!(rb.relay_targets(pid(0), pid(1)), &[pid(3)]);
        assert_eq!(rb.relay_targets(pid(0), pid(0)), &[pid(1), pid(3)]);
    }

    #[test]
    fn first_copy_and_relay_targets_serve_a_caller_that_relays_selectively() {
        let mut rb = Rbcast::new(pid(1));
        rb.set_peers(&(0..20).map(pid).collect::<Vec<_>>());
        let id = MsgId {
            sender: pid(6),
            seq: 0,
        };
        assert!(rb.first_copy(id));
        assert!(!rb.first_copy(id), "second copy");
        assert!(rb.seen(id));
        // A group of 20 relays to ⌈log₂ 21⌉ = 5 ring successors, p2..p6 —
        // minus origin and transport-level sender.
        let ids = |ids: &[u32]| ids.iter().map(|&i| pid(i)).collect::<Vec<_>>();
        assert_eq!(rb.relay_targets(pid(6), pid(6)), ids(&[2, 3, 4, 5]));
        assert_eq!(rb.relay_targets(pid(3), pid(3)), ids(&[2, 4, 5, 6]));
        assert_eq!(rb.relay_targets(pid(6), pid(2)), ids(&[3, 4, 5]));
    }

    #[test]
    fn sequence_numbers_increase() {
        let mut rb = Rbcast::new(pid(1));
        assert_eq!(rb.next_id().seq, 0);
        assert_eq!(rb.next_id().seq, 1);
    }

    /// Marks `crashed` so that no k consecutive ring neighbours (wrapping)
    /// are crashed, keeping `origin` crashed: each run is cut by restoring
    /// the member that would make it k long.
    fn cut_runs_below(crashed: &mut [bool], origin: usize, k: usize) {
        let n = crashed.len();
        let mut run = 0;
        for j in 0..n {
            let p = (origin + j) % n;
            if !crashed[p] {
                run = 0;
            } else if run + 1 == k && p != origin {
                crashed[p] = false;
                run = 0;
            } else {
                run += 1;
            }
        }
        // The run that ends just before the origin continues through it.
        let head = (0..n).take_while(|&j| crashed[(origin + j) % n]).count();
        if run > 0 && run + head >= k {
            crashed[(origin + n - 1) % n] = false;
        }
    }

    mod coverage {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The module docs' claim about bounded relay, checked: a
            /// crashed origin's direct sends reached some correct members,
            /// any other crash pattern leaves no k consecutive ring
            /// neighbours crashed, and the first-copy relays of the correct
            /// members reach every correct member.
            #[test]
            fn bounded_relay_reaches_every_correct_member(
                n in 17usize..97,
                origin in any::<usize>(),
                crash_pct in 0u8..70,
                crash_draws in proptest::collection::vec(0u8..100, 96..97),
                reach_draws in proptest::collection::vec(any::<bool>(), 96..97),
            ) {
                let k = fanout(n, n);
                let origin = origin % n;
                let mut crashed: Vec<bool> =
                    crash_draws[..n].iter().map(|&d| d < crash_pct).collect();
                crashed[origin] = true;
                cut_runs_below(&mut crashed, origin, k);
                let longest_run = (0..n)
                    .map(|s| (0..n).take_while(|&j| crashed[(s + j) % n]).count())
                    .max();
                prop_assert!(longest_run < Some(k), "{crashed:?}");
                let correct: Vec<usize> = (0..n).filter(|&p| !crashed[p]).collect();
                let mut reached: Vec<usize> =
                    correct.iter().copied().filter(|&p| reach_draws[p]).collect();
                if reached.is_empty() {
                    reached.push(correct[0]);
                }

                let members: Vec<ProcessId> = (0..n as u32).map(pid).collect();
                let mut rbs: Vec<Rbcast> = members
                    .iter()
                    .map(|&p| {
                        let mut rb = Rbcast::new(p);
                        rb.set_peers(&members);
                        rb
                    })
                    .collect();
                let id = MsgId { sender: pid(origin as u32), seq: 0 };
                let mut in_flight: Vec<(usize, ProcessId)> =
                    reached.iter().map(|&p| (p, id.sender)).collect();
                while let Some((to, from)) = in_flight.pop() {
                    if crashed[to] || !rbs[to].first_copy(id) {
                        continue;
                    }
                    let targets = rbs[to].relay_targets(id.sender, from);
                    prop_assert!(targets.len() <= k);
                    in_flight.extend(targets.iter().map(|t| (t.index(), pid(to as u32))));
                }
                for &p in &correct {
                    prop_assert!(
                        rbs[p].seen(id),
                        "p{p} missed p{origin}'s message (n = {n}, k = {k}, crashed: {:?})",
                        (0..n).filter(|&q| crashed[q]).collect::<Vec<_>>()
                    );
                }
            }
        }
    }
}

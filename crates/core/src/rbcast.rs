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

use gcs_kernel::ProcessId;

use crate::types::{IdRuns, Message, MsgId};

/// How far a relaying receiver re-forwards a diffused message.
///
/// Classic diffusion relays to *every* peer: n−1 receivers each re-sending
/// n−2 copies makes one broadcast cost O(n²) messages — the redundancy that
/// tolerates an origin crashing mid-send, bought at a price that collapses
/// large groups. Bounded relay keeps the origin's full fan-out but has each
/// first-copy receiver re-forward to only its `k` *ring successors* (in
/// sorted process order, wrapping). Coverage survives origin crash: the
/// partial direct fan-out seeds contiguous ring segments, and first-copy
/// relays extend each segment by `k` until the ring closes — any crash
/// pattern short of `k` consecutive failed processes still reaches everyone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelayFanout {
    /// Relay to all peers (classic diffusion, O(n²) messages per
    /// broadcast).
    All,
    /// Relay to this many ring successors (O(n·k) messages per broadcast).
    Bounded(usize),
}

/// Diffusion-based reliable broadcast over reliable point-to-point channels.
#[derive(Debug)]
pub struct Rbcast {
    me: ProcessId,
    peers: Vec<ProcessId>,
    relay: RelayFanout,
    /// Reused relay-target buffer: relaying allocates nothing.
    targets: Vec<ProcessId>,
    /// The peers in sorted order — the ring bounded relay walks. (View
    /// member order is the agreed primary order, not id order, so the ring
    /// is materialized separately at `set_peers`.)
    ring: Vec<ProcessId>,
    /// Index into `ring` of `me`'s first ring successor (the insertion
    /// point of `me`) — precomputed for the bounded-relay hot path.
    ring_start: usize,
    seen: IdRuns,
    next_seq: u64,
}

impl Rbcast {
    /// Creates a broadcast module for `me` with relay-to-all diffusion;
    /// peers come from the view.
    pub fn new(me: ProcessId) -> Self {
        Self::with_relay(me, RelayFanout::All)
    }

    /// Creates a broadcast module with an explicit relay fan-out.
    pub fn with_relay(me: ProcessId, relay: RelayFanout) -> Self {
        Rbcast {
            me,
            peers: Vec::new(),
            relay,
            targets: Vec::new(),
            ring: Vec::new(),
            ring_start: 0,
            seen: IdRuns::default(),
            next_seq: 0,
        }
    }

    /// Updates the destination set (driven by view changes). `me` is kept
    /// out of the peer list; local delivery is immediate at broadcast time.
    pub fn set_peers(&mut self, members: &[ProcessId]) {
        self.peers = members.iter().copied().filter(|&p| p != self.me).collect();
        self.ring = self.peers.clone();
        self.ring.sort_unstable();
        self.ring_start = self.ring.partition_point(|&p| p < self.me);
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

    /// Whom to relay a message of `origin` received from `from` to: the
    /// configured [`RelayFanout`] minus the transport-level sender and the
    /// origin (both already have the message). A borrow of the module's
    /// reused buffer: relaying allocates nothing.
    pub fn relay_targets(&mut self, origin: ProcessId, from: ProcessId) -> &[ProcessId] {
        self.targets.clear();
        let wanted = |p: &ProcessId| *p != from && *p != origin;
        match self.relay {
            RelayFanout::All => self
                .targets
                .extend(self.peers.iter().copied().filter(wanted)),
            RelayFanout::Bounded(k) => {
                let m = self.ring.len();
                let (ring, start) = (&self.ring, self.ring_start);
                self.targets
                    .extend((0..k.min(m)).map(|j| ring[(start + j) % m]).filter(wanted));
            }
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
        let mut rb = Rbcast::with_relay(pid(1), RelayFanout::Bounded(2));
        rb.set_peers(&(0..8).map(pid).collect::<Vec<_>>());
        let id = MsgId {
            sender: pid(6),
            seq: 0,
        };
        assert!(rb.first_copy(id));
        assert!(!rb.first_copy(id), "second copy");
        assert!(rb.seen(id));
        // Ring successors p2, p3 — minus origin and transport-level sender.
        assert_eq!(rb.relay_targets(pid(6), pid(6)), &[pid(2), pid(3)]);
        assert_eq!(rb.relay_targets(pid(3), pid(3)), &[pid(2)]);
        assert_eq!(rb.relay_targets(pid(6), pid(2)), &[pid(3)]);
    }

    #[test]
    fn sequence_numbers_increase() {
        let mut rb = Rbcast::new(pid(1));
        assert_eq!(rb.next_id().seq, 0);
        assert_eq!(rb.next_id().seq, 1);
    }
}

//! The sans-I/O reliable channel.
//!
//! Steady-state packet economy (PR 1): every data packet carries the
//! sender's cumulative acknowledgement for the reverse direction
//! (**piggybacking**), standalone acks are **delayed** until the next tick
//! (and suppressed entirely when reverse data flows), and per-tick
//! retransmissions to one peer are **coalesced** into a single batch
//! packet. Relative to the classic ack-per-data scheme this roughly halves
//! the packet count of a steady bidirectional exchange. First transmissions
//! can be **bundled** too: an owner that sends one peer several
//! messages in one dispatch step folds them with [`Packet::bundle`] into one
//! packet, a batch marked `fresh` — so a coordinator's decision for one
//! consensus instance rides its proposal for the next. A bundle is only a
//! way to travel: each message keeps its own sequence number and is
//! acknowledged and retransmitted on its own, so a lost bundle comes back
//! seq by seq. The receiving endpoint hands a batch's emptied buffer back
//! to its owner, so buffers can go round from receivers to bundlers instead
//! of through the allocator.
//!
//! Two rules bound what a peer that is gone can cost or do. A peer that has
//! acknowledged nothing across [`PROBE_AFTER`] consecutive retransmission
//! rounds is **probed** with the head of its backlog only, until it
//! acknowledges again — a dead peer then costs one packet per round instead
//! of its whole, growing backlog. And a peer that was
//! [forgotten](ReliableChannel::forget_peer) is **refused**: its packets are
//! dropped until this endpoint addresses it again.
//!
//! ## State layout
//!
//! Process ids are small dense integers, so everything per peer is indexed,
//! not searched: two [`PeerTable`]s hold the transmit half (next sequence
//! number, the deque of unacknowledged packets, probe state) and the receive
//! half (next sequence to deliver, the out-of-order buffer, the owed-ack
//! flag) of each conversation, and three [`PeerSet`] bitsets say which slots
//! matter — peers with data in flight, peers owed a standalone ack, peers
//! refused. A send or a packet tests and sets bits; a tick walks the set
//! bits in ascending id order, which is the order a scan of the whole table
//! would emit in.
//!
//! Every entry point appends its instructions to a buffer of the caller's
//! ([`send_into`](ReliableChannel::send_into),
//! [`on_packet_into`](ReliableChannel::on_packet_into),
//! [`on_tick_into`](ReliableChannel::on_tick_into)): the owner keeps one and
//! drains it after each call, so a message is moved into the buffer once and
//! out of it once.

use std::collections::{BTreeMap, VecDeque};

use gcs_kernel::{ProcessId, Time, TimeDelta};

/// Dense per-peer table: process ids are small dense integers in every
/// runtime this channel targets, so peer state is indexed directly instead
/// of hashed. Slots are created on first contact.
#[derive(Debug)]
struct PeerTable<T>(Vec<Option<T>>);

impl<T> PeerTable<T> {
    fn new() -> Self {
        PeerTable(Vec::new())
    }

    fn get(&self, p: ProcessId) -> Option<&T> {
        self.0.get(p.index()).and_then(|s| s.as_ref())
    }

    fn get_mut(&mut self, p: ProcessId) -> Option<&mut T> {
        self.0.get_mut(p.index()).and_then(|s| s.as_mut())
    }

    fn entry(&mut self, p: ProcessId, default: impl FnOnce() -> T) -> &mut T {
        let idx = p.index();
        if idx >= self.0.len() {
            self.0.resize_with(idx + 1, || None);
        }
        self.0[idx].get_or_insert_with(default)
    }

    fn remove(&mut self, p: ProcessId) {
        if let Some(slot) = self.0.get_mut(p.index()) {
            *slot = None;
        }
    }
}

/// A set of peers as a dense bitset, 64 ids per word, growing to the highest
/// id inserted.
#[derive(Debug, Default)]
struct PeerSet(Vec<u64>);

impl PeerSet {
    fn insert(&mut self, p: ProcessId) {
        let word = p.index() / 64;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << (p.index() % 64);
    }

    fn remove(&mut self, p: ProcessId) {
        if let Some(word) = self.0.get_mut(p.index() / 64) {
            *word &= !(1 << (p.index() % 64));
        }
    }

    fn contains(&self, p: ProcessId) -> bool {
        self.0
            .get(p.index() / 64)
            .is_some_and(|word| word & (1 << (p.index() % 64)) != 0)
    }

    /// Empties the set, keeping its words.
    fn clear(&mut self) {
        self.0.fill(0);
    }

    /// The members, in ascending id order.
    fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.0.iter().enumerate().flat_map(|(word, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    ProcessId::new(word as u32 * 64 + bit)
                })
            })
        })
    }
}

/// Configuration of a [`ReliableChannel`]. Each field names the tests that
/// set it to something other than its default.
#[derive(Clone, Copy, Debug)]
pub struct RcConfig {
    /// Retransmit a data packet if unacknowledged for this long. The WAN
    /// tests (`tests/adverse_network.rs`, `tests/churn_under_load.rs`)
    /// stretch it past the round trip.
    pub retransmit_after: TimeDelta,
    /// Raise [`RcOut::Stuck`] when the oldest unacknowledged message for a
    /// peer is older than this (output-triggered suspicion, paper §3.3.2).
    /// `tests/full_stack.rs`'s output-triggered exclusion shortens it.
    pub stuck_after: TimeDelta,
}

impl Default for RcConfig {
    fn default() -> Self {
        RcConfig {
            retransmit_after: TimeDelta::from_millis(20),
            stuck_after: TimeDelta::from_secs(30),
        }
    }
}

/// How often the owner calls [`ReliableChannel::on_tick`]: the period of
/// retransmission checks and of delayed-ack flushes.
pub const TICK_INTERVAL: TimeDelta = TimeDelta::from_millis(10);

/// After this many consecutive retransmission rounds to a peer without an
/// acknowledgement from it, only the head of its backlog is retransmitted
/// (a probe) until it acknowledges again. Three rounds: a live peer behind a
/// lossy link fails that many in a row with the cube of the loss rate, and a
/// healed partition pays at most one probe round trip before the full
/// backlog flows again.
pub const PROBE_AFTER: u32 = 3;

/// A packet on the wire between two reliable-channel endpoints.
///
/// Every data-bearing packet also carries `ack`, the sender's cumulative
/// acknowledgement for the reverse direction of the link, so a steady
/// bidirectional flow needs no standalone [`Ack`](Packet::Ack) packets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Packet<M> {
    /// A data packet carrying the `seq`-th message from the sender.
    Data {
        /// Per-(sender → receiver) sequence number, starting at 0.
        seq: u64,
        /// Piggybacked cumulative ack: every reverse-direction `seq < ack`
        /// was received by the sender of this packet.
        ack: u64,
        /// The carried message.
        msg: M,
    },
    /// Several data packets for one peer in one wire packet: coalesced
    /// retransmissions (produced by [`ReliableChannel::on_tick`]), or a
    /// bundle of first transmissions (made by [`Packet::bundle`]). The
    /// receiver treats both alike.
    Batch {
        /// Piggybacked cumulative ack (as in [`Data`](Packet::Data)).
        ack: u64,
        /// The carried `(seq, message)` pairs, in sequence order.
        msgs: Vec<(u64, M)>,
        /// A bundle of first transmissions, not retransmissions: traffic
        /// accounting counts each message under its own kind.
        fresh: bool,
    },
    /// Standalone cumulative acknowledgement: every `seq < upto` was
    /// received.
    Ack {
        /// One past the highest contiguously received sequence number.
        upto: u64,
    },
}

impl<M> Packet<M> {
    /// Folds `next` — the first transmission of a later message to the same
    /// peer — into this packet, the first transmission of an earlier one or
    /// a bundle of them, which becomes or stays a bundle: a fresh
    /// [`Batch`](Packet::Batch) with the newer acknowledgement.
    ///
    /// A packet that becomes a bundle keeps its messages in the empty buffer
    /// `buffer` returns: an owner that keeps the buffers
    /// [`on_packet_into`](ReliableChannel::on_packet_into) hands back passes
    /// one of those, anybody else `Vec::new`.
    ///
    /// # Panics
    ///
    /// Panics if either packet is not a first transmission.
    pub fn bundle(&mut self, next: Packet<M>, buffer: impl FnOnce() -> Vec<(u64, M)>) {
        let Packet::Data { seq, ack, msg } = next else {
            panic!("only a first transmission joins a bundle");
        };
        match self {
            Packet::Batch {
                ack: held,
                msgs,
                fresh: true,
            } => {
                *held = ack;
                msgs.push((seq, msg));
            }
            Packet::Data { .. } => {
                let Packet::Data {
                    seq: first,
                    msg: held,
                    ..
                } = std::mem::replace(self, Packet::Ack { upto: 0 })
                else {
                    unreachable!()
                };
                let mut msgs = buffer();
                msgs.extend([(first, held), (seq, msg)]);
                *self = Packet::Batch {
                    ack,
                    msgs,
                    fresh: true,
                };
            }
            _ => panic!("only first transmissions form a bundle"),
        }
    }
}

/// An instruction produced by the reliable channel for its owner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RcOut<M> {
    /// Transmit `packet` to `to` over the unreliable transport.
    Transmit {
        /// Destination process.
        to: ProcessId,
        /// The packet to put on the wire.
        packet: Packet<M>,
    },
    /// Deliver `msg` (sent by `from`) to the upper layers, in FIFO order.
    Deliver {
        /// Originating process.
        from: ProcessId,
        /// The delivered message.
        msg: M,
    },
    /// Output-triggered suspicion: `peer` has not acknowledged the oldest
    /// outstanding message since `since`.
    Stuck {
        /// The unresponsive peer.
        peer: ProcessId,
        /// Send time of the oldest unacknowledged message.
        since: Time,
    },
    /// `peer` acknowledged everything again after a [`RcOut::Stuck`].
    Unstuck {
        /// The peer that recovered.
        peer: ProcessId,
    },
}

#[derive(Debug)]
struct PeerTx<M> {
    next_seq: u64,
    /// Unacknowledged packets, oldest first: `(seq, message, first-send,
    /// last-send)`. Sequence numbers are contiguous and cumulative acks
    /// discard a prefix, so a deque (amortized allocation-free) replaces a
    /// node-per-packet map.
    inflight: VecDeque<(u64, M, Time, Time)>,
    stuck_reported: bool,
    /// Consecutive retransmission rounds since this peer last acknowledged
    /// anything (see [`PROBE_AFTER`]).
    silent_rounds: u32,
}

impl<M> Default for PeerTx<M> {
    fn default() -> Self {
        PeerTx {
            next_seq: 0,
            inflight: VecDeque::new(),
            stuck_reported: false,
            silent_rounds: 0,
        }
    }
}

#[derive(Debug, Default)]
struct PeerRx<M> {
    /// One past the highest contiguously delivered sequence number.
    next_deliver: u64,
    /// Out-of-order buffer.
    buffer: BTreeMap<u64, M>,
    /// An acknowledgement is owed to this peer (piggyback mode): it will
    /// ride the next data packet we send there, or flush at the next tick.
    owe_ack: bool,
}

impl<M> PeerRx<M> {
    fn new() -> Self {
        PeerRx {
            next_deliver: 0,
            buffer: BTreeMap::new(),
            owe_ack: false,
        }
    }
}

/// A sans-I/O reliable, FIFO, duplicate-free channel to every peer.
///
/// One instance serves all peers of a process. The owner must:
///
/// 1. call [`send_into`](Self::send_into) to transmit messages,
/// 2. feed every received [`Packet`] to
///    [`on_packet_into`](Self::on_packet_into),
/// 3. call [`on_tick_into`](Self::on_tick_into) every [`TICK_INTERVAL`]
///    (this also flushes delayed acks),
///
/// and carry out the [`RcOut`] instructions each appends to its buffer.
///
/// Guarantees (assuming the unreliable network delivers each retransmitted
/// packet with non-zero probability): **no creation** (only sent messages
/// are delivered), **no duplication**, **FIFO** per sender, and **eventual
/// delivery** between correct processes.
#[derive(Debug)]
pub struct ReliableChannel<M> {
    me: ProcessId,
    config: RcConfig,
    tx: PeerTable<PeerTx<M>>,
    rx: PeerTable<PeerRx<M>>,
    /// Peers with unacknowledged in-flight data — the only tx slots a tick
    /// must visit. Kept exact (insert on send, remove when the inflight
    /// deque drains), so an idle channel ticks in O(1) instead of O(peers).
    /// Ascending-id iteration keeps retransmission emission order identical
    /// to a full table scan.
    active_tx: PeerSet,
    /// Peers owed a standalone ack — the only rx slots a tick must visit.
    owed_acks: PeerSet,
    /// Forgotten peers this endpoint has not addressed since: their packets
    /// are refused. Without this a forgotten peer's stream would be judged
    /// by the fresh receive state its next packet creates — one that starts
    /// at sequence 0 (the two never talked before) would be delivered.
    refused: PeerSet,
}

impl<M: Clone> ReliableChannel<M> {
    /// Creates a channel endpoint for process `me`.
    pub fn new(me: ProcessId, config: RcConfig) -> Self {
        ReliableChannel {
            me,
            config,
            tx: PeerTable::new(),
            rx: PeerTable::new(),
            active_tx: PeerSet::default(),
            owed_acks: PeerSet::default(),
            refused: PeerSet::default(),
        }
    }

    /// The cumulative ack to piggyback on a packet towards `to`, clearing
    /// any owed standalone ack (the data packet carries it).
    /// (Takes the two fields it touches, not `self`: a tick calls it in the
    /// middle of a walk over the transmit half.)
    fn piggyback_for(rx: &mut PeerTable<PeerRx<M>>, owed_acks: &mut PeerSet, to: ProcessId) -> u64 {
        match rx.get_mut(to) {
            Some(rx) => {
                if rx.owe_ack {
                    rx.owe_ack = false;
                    owed_acks.remove(to);
                }
                rx.next_deliver
            }
            None => 0,
        }
    }

    /// Queues `msg` for reliable delivery to `to` and appends the initial
    /// transmission to `out`. Sending to self delivers immediately
    /// (loopback).
    pub fn send_into(&mut self, to: ProcessId, msg: M, now: Time, out: &mut Vec<RcOut<M>>) {
        if to == self.me {
            out.push(RcOut::Deliver { from: self.me, msg });
            return;
        }
        self.refused.remove(to);
        let peer = self.tx.entry(to, PeerTx::default);
        let seq = peer.next_seq;
        peer.next_seq += 1;
        peer.inflight.push_back((seq, msg.clone(), now, now));
        self.active_tx.insert(to);
        let ack = Self::piggyback_for(&mut self.rx, &mut self.owed_acks, to);
        out.push(RcOut::Transmit {
            to,
            packet: Packet::Data { seq, ack, msg },
        });
    }

    /// Processes the cumulative-ack component of any received packet.
    fn on_ack_component(&mut self, from: ProcessId, upto: u64, out: &mut Vec<RcOut<M>>) {
        if let Some(tx) = self.tx.get_mut(from) {
            while tx.inflight.front().is_some_and(|&(seq, ..)| seq < upto) {
                tx.inflight.pop_front();
                tx.silent_rounds = 0;
            }
            if tx.inflight.is_empty() {
                if tx.stuck_reported {
                    tx.stuck_reported = false;
                    out.push(RcOut::Unstuck { peer: from });
                }
                self.active_tx.remove(from);
            }
        }
    }

    /// Processes one data component; acknowledgements are accumulated, not
    /// sent here.
    fn on_data_component(&mut self, from: ProcessId, seq: u64, msg: M, out: &mut Vec<RcOut<M>>) {
        let rx = self.rx.entry(from, PeerRx::new);
        if seq == rx.next_deliver && rx.buffer.is_empty() {
            // Fast path: the expected packet, nothing buffered — deliver
            // without touching the out-of-order map.
            rx.next_deliver += 1;
            out.push(RcOut::Deliver { from, msg });
        } else if seq >= rx.next_deliver {
            rx.buffer.entry(seq).or_insert(msg);
            while let Some(m) = rx.buffer.remove(&rx.next_deliver) {
                rx.next_deliver += 1;
                out.push(RcOut::Deliver { from, msg: m });
            }
        }
        // An ack is now owed — for fresh data and for pure duplicates alike
        // (the sender may have lost our previous ack).
        if !rx.owe_ack {
            rx.owe_ack = true;
            self.owed_acks.insert(from);
        }
    }

    /// Handles a packet received from `from`, appending what it delivers
    /// and triggers to `out`. Returns the emptied message buffer of a
    /// [`Batch`](Packet::Batch), for an owner to make its next bundle in
    /// ([`Packet::bundle`]).
    pub fn on_packet_into(
        &mut self,
        from: ProcessId,
        packet: Packet<M>,
        now: Time,
        out: &mut Vec<RcOut<M>>,
    ) -> Option<Vec<(u64, M)>> {
        let _ = now;
        if self.refused.contains(from) {
            return None;
        }
        match packet {
            Packet::Data { seq, ack, msg } => {
                self.on_ack_component(from, ack, out);
                self.on_data_component(from, seq, msg, out);
                None
            }
            Packet::Batch { ack, mut msgs, .. } => {
                self.on_ack_component(from, ack, out);
                for (seq, msg) in msgs.drain(..) {
                    self.on_data_component(from, seq, msg, out);
                }
                Some(msgs)
            }
            Packet::Ack { upto } => {
                self.on_ack_component(from, upto, out);
                None
            }
        }
    }

    /// Periodic maintenance: coalesced retransmissions, stuck-peer
    /// detection, and delayed-ack flushing.
    pub fn on_tick(&mut self, now: Time) -> Vec<RcOut<M>> {
        let mut out = Vec::new();
        self.on_tick_into(now, &mut out);
        out
    }

    /// [`on_tick`](Self::on_tick), appending into a caller-owned buffer
    /// (the hot-path entry point: ticks fire every [`TICK_INTERVAL`] on
    /// every process). A tick with nothing
    /// to batch allocates nothing.
    pub fn on_tick_into(&mut self, now: Time, out: &mut Vec<RcOut<M>>) {
        // Only peers with in-flight data are visited, in id order
        // (deterministic; `active_tx` is exact, so this visits the same slots
        // a full table scan would emit from). Stuck reports of all peers go
        // first: the head is the oldest packet, it alone decides `Stuck`.
        for p in self.active_tx.iter() {
            let Some(tx) = self.tx.get_mut(p) else {
                continue;
            };
            if let Some(&(_, _, first, _)) = tx.inflight.front() {
                if !tx.stuck_reported && now.since(first) >= self.config.stuck_after {
                    tx.stuck_reported = true;
                    out.push(RcOut::Stuck {
                        peer: p,
                        since: first,
                    });
                }
            }
        }
        // Expired retransmissions, one packet per peer.
        for p in self.active_tx.iter() {
            let Some(tx) = self.tx.get_mut(p) else {
                continue;
            };
            // A silent peer is probed with the head only — and the walk over
            // its backlog is skipped with the clones.
            let window = if tx.silent_rounds >= PROBE_AFTER {
                1
            } else {
                tx.inflight.len()
            };
            let retransmit_after = self.config.retransmit_after;
            let mut expired = tx
                .inflight
                .iter_mut()
                .take(window)
                .filter(|(_, _, _, last)| now.since(*last) >= retransmit_after)
                .map(|(seq, msg, _, last)| {
                    *last = now;
                    (*seq, msg.clone())
                });
            let Some((seq, msg)) = expired.next() else {
                continue;
            };
            // A single retransmission travels as a plain data packet;
            // several coalesce into one batch.
            let ack = Self::piggyback_for(&mut self.rx, &mut self.owed_acks, p);
            let packet = match expired.next() {
                None => Packet::Data { seq, ack, msg },
                Some(second) => Packet::Batch {
                    ack,
                    msgs: [(seq, msg), second].into_iter().chain(expired).collect(),
                    fresh: false,
                },
            };
            tx.silent_rounds = tx.silent_rounds.saturating_add(1);
            out.push(RcOut::Transmit { to: p, packet });
        }
        // Flush owed acks that found no data packet to ride, in id order.
        for p in self.owed_acks.iter() {
            if let Some(rx) = self.rx.get_mut(p) {
                if rx.owe_ack {
                    rx.owe_ack = false;
                    out.push(RcOut::Transmit {
                        to: p,
                        packet: Packet::Ack {
                            upto: rx.next_deliver,
                        },
                    });
                }
            }
        }
        self.owed_acks.clear();
    }

    /// Discards all state for `peer` — both directions — and refuses its
    /// packets from now on, until this endpoint
    /// [sends](Self::send_into) to it again (which opens a new conversation, both streams from sequence 0).
    ///
    /// Called when the membership excludes `peer`: once excluded there is no
    /// obligation to deliver to it, so buffered messages "can be safely
    /// discarded" (paper §3.3.2) — and none to listen to it: an excluded
    /// process that still runs is outside the group.
    pub fn forget_peer(&mut self, peer: ProcessId) {
        self.tx.remove(peer);
        self.rx.remove(peer);
        self.active_tx.remove(peer);
        self.owed_acks.remove(peer);
        if peer != self.me {
            self.refused.insert(peer);
        }
    }

    /// Number of unacknowledged messages queued for `peer`.
    pub fn backlog(&self, peer: ProcessId) -> usize {
        self.tx.get(peer).map_or(0, |t| t.inflight.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ProcessId = ProcessId::new(0);
    const B: ProcessId = ProcessId::new(1);

    fn rc(me: ProcessId) -> ReliableChannel<&'static str> {
        ReliableChannel::new(me, RcConfig::default())
    }

    /// All `(seq, msg)` data components (plain or batched) transmitted.
    fn data_of(out: &[RcOut<&'static str>]) -> Vec<(u64, &'static str)> {
        out.iter()
            .flat_map(|o| match o {
                RcOut::Transmit {
                    packet: Packet::Data { seq, msg, .. },
                    ..
                } => {
                    vec![(*seq, *msg)]
                }
                RcOut::Transmit {
                    packet: Packet::Batch { msgs, .. },
                    ..
                } => msgs.clone(),
                _ => vec![],
            })
            .collect()
    }

    fn delivered(out: &[RcOut<&'static str>]) -> Vec<&'static str> {
        out.iter()
            .filter_map(|o| match o {
                RcOut::Deliver { msg, .. } => Some(*msg),
                _ => None,
            })
            .collect()
    }

    fn transmits(out: &[RcOut<&'static str>]) -> usize {
        out.iter()
            .filter(|o| matches!(o, RcOut::Transmit { .. }))
            .count()
    }

    /// By-value forms of the `_into` entry points, for the tests' brevity.
    impl<M: Clone> ReliableChannel<M> {
        fn send(&mut self, to: ProcessId, msg: M, now: Time) -> Vec<RcOut<M>> {
            let mut out = Vec::new();
            self.send_into(to, msg, now, &mut out);
            out
        }

        fn on_packet(&mut self, from: ProcessId, packet: Packet<M>, now: Time) -> Vec<RcOut<M>> {
            let mut out = Vec::new();
            self.on_packet_into(from, packet, now, &mut out);
            out
        }
    }

    #[test]
    fn in_order_delivery() {
        let mut a = rc(A);
        let mut b = rc(B);
        let t = Time::ZERO;
        let o1 = a.send(B, "x", t);
        let o2 = a.send(B, "y", t);
        let mut got = Vec::new();
        for (seq, msg) in data_of(&o1).into_iter().chain(data_of(&o2)) {
            got.extend(delivered(&b.on_packet(
                A,
                Packet::Data { seq, ack: 0, msg },
                t,
            )));
        }
        assert_eq!(got, vec!["x", "y"]);
    }

    #[test]
    fn out_of_order_is_reordered() {
        let mut b = rc(B);
        let t = Time::ZERO;
        let first = b.on_packet(
            A,
            Packet::Data {
                seq: 1,
                ack: 0,
                msg: "y",
            },
            t,
        );
        assert!(delivered(&first).is_empty());
        let second = b.on_packet(
            A,
            Packet::Data {
                seq: 0,
                ack: 0,
                msg: "x",
            },
            t,
        );
        assert_eq!(delivered(&second), vec!["x", "y"]);
    }

    #[test]
    fn duplicates_are_suppressed_and_reacked_on_tick() {
        let mut b = rc(B);
        let t = Time::ZERO;
        let one = b.on_packet(
            A,
            Packet::Data {
                seq: 0,
                ack: 0,
                msg: "x",
            },
            t,
        );
        assert_eq!(delivered(&one), vec!["x"]);
        // Piggyback mode: no immediate standalone ack...
        assert_eq!(transmits(&one), 0);
        let two = b.on_packet(
            A,
            Packet::Data {
                seq: 0,
                ack: 0,
                msg: "x",
            },
            t,
        );
        assert!(delivered(&two).is_empty());
        // ...the (re-)ack flushes at the next tick, duplicates included.
        let tick = b.on_tick(t + TimeDelta::from_millis(10));
        assert!(
            tick.iter().any(|o| matches!(
                o,
                RcOut::Transmit {
                    packet: Packet::Ack { upto: 1 },
                    ..
                }
            )),
            "owed ack flushed: {tick:?}"
        );
        // Nothing further owed.
        assert!(b.on_tick(t + TimeDelta::from_millis(20)).is_empty());
    }

    #[test]
    fn acks_piggyback_on_reverse_data() {
        let mut a = rc(A);
        let mut b = rc(B);
        let t = Time::ZERO;
        // A→B data delivered at B: B owes an ack.
        let o = a.send(B, "x", t);
        let (seq, msg) = data_of(&o)[0];
        b.on_packet(A, Packet::Data { seq, ack: 0, msg }, t);
        // B now sends data back: the owed ack rides it.
        let rev = b.send(A, "reply", t);
        match &rev[0] {
            RcOut::Transmit {
                to,
                packet: Packet::Data { ack, .. },
            } => {
                assert_eq!(*to, A);
                assert_eq!(*ack, 1, "cumulative ack piggybacked");
            }
            other => panic!("expected data transmit, got {other:?}"),
        }
        // The piggybacked ack clears A's backlog on receipt.
        let (rseq, rmsg) = data_of(&rev)[0];
        a.on_packet(
            B,
            Packet::Data {
                seq: rseq,
                ack: 1,
                msg: rmsg,
            },
            t,
        );
        assert_eq!(a.backlog(B), 0);
        // And B owes no standalone ack anymore.
        assert!(b
            .on_tick(t + TimeDelta::from_millis(10))
            .iter()
            .all(|o| !matches!(
                o,
                RcOut::Transmit {
                    packet: Packet::Ack { .. },
                    ..
                }
            )));
    }

    #[test]
    fn retransmits_until_acked() {
        let mut a = rc(A);
        let t0 = Time::ZERO;
        a.send(B, "x", t0);
        let t1 = t0 + TimeDelta::from_millis(25);
        let out = a.on_tick(t1);
        assert_eq!(data_of(&out), vec![(0, "x")]);
        // Immediately after a retransmission, nothing more to do.
        assert!(data_of(&a.on_tick(t1)).is_empty());
        // Ack clears the buffer; no further retransmissions.
        a.on_packet(B, Packet::Ack { upto: 1 }, t1);
        let t2 = t1 + TimeDelta::from_millis(100);
        assert!(data_of(&a.on_tick(t2)).is_empty());
        assert_eq!(a.backlog(B), 0);
    }

    #[test]
    fn expired_retransmissions_coalesce_into_one_batch_packet() {
        let mut a = rc(A);
        let t0 = Time::ZERO;
        a.send(B, "x", t0);
        a.send(B, "y", t0);
        a.send(B, "z", t0);
        let out = a.on_tick(t0 + TimeDelta::from_millis(25));
        assert_eq!(
            transmits(&out),
            1,
            "one wire packet for three retransmissions: {out:?}"
        );
        assert_eq!(data_of(&out), vec![(0, "x"), (1, "y"), (2, "z")]);
        // The receiver unpacks the batch in order.
        let mut b = rc(B);
        let batch = match &out[0] {
            RcOut::Transmit { packet, .. } => packet.clone(),
            other => panic!("expected transmit, got {other:?}"),
        };
        let got = b.on_packet(A, batch, t0 + TimeDelta::from_millis(26));
        assert_eq!(delivered(&got), vec!["x", "y", "z"]);
    }

    /// The first transmissions of `msgs` to B, bundled as an owner that
    /// sends them in one step does.
    fn bundled(
        a: &mut ReliableChannel<&'static str>,
        msgs: &[&'static str],
        now: Time,
    ) -> Packet<&'static str> {
        let mut out = Vec::new();
        for &msg in msgs {
            a.send_into(B, msg, now, &mut out);
        }
        let mut packets = out.into_iter().map(|o| match o {
            RcOut::Transmit { to: B, packet } => packet,
            other => panic!("expected a transmit to B, got {other:?}"),
        });
        let mut bundle = packets.next().expect("one message at least");
        packets.for_each(|p| bundle.bundle(p, Vec::new));
        bundle
    }

    #[test]
    fn a_bundle_carries_first_transmissions_in_order_with_the_newest_ack() {
        let mut a = rc(A);
        let mut b = rc(B);
        let t = Time::ZERO;
        // A owes B an ack for two messages by the time it sends.
        for seq in 0..2 {
            a.on_packet(
                B,
                Packet::Data {
                    seq,
                    ack: 0,
                    msg: "b",
                },
                t,
            );
        }
        let bundle = bundled(&mut a, &["x", "y", "z"], t);
        assert_eq!(
            bundle,
            Packet::Batch {
                ack: 2,
                msgs: vec![(0, "x"), (1, "y"), (2, "z")],
                fresh: true,
            }
        );
        assert!(
            a.on_tick(t + TimeDelta::from_millis(10)).is_empty(),
            "the ack rode the bundle"
        );
        assert_eq!(delivered(&b.on_packet(A, bundle, t)), vec!["x", "y", "z"]);
        // One message alone stays a plain data packet.
        assert!(matches!(
            bundled(&mut a, &["w"], t),
            Packet::Data { seq: 3, .. }
        ));
    }

    #[test]
    fn a_lost_bundle_is_retransmitted_seq_by_seq() {
        let mut a = rc(A);
        let mut b = rc(B);
        let mut now = Time::ZERO;
        let first = bundled(&mut a, &["x"], now);
        let _lost = bundled(&mut a, &["y", "z"], now);
        let third = bundled(&mut a, &["w"], now);
        // B gets the first and the third; its cumulative ack covers the
        // first only, the third waits for the gap.
        let mut got = delivered(&b.on_packet(A, first, now));
        got.extend(delivered(&b.on_packet(A, third, now)));
        assert_eq!(got, vec!["x"]);
        a.on_packet(B, Packet::Ack { upto: 1 }, now);
        // The retransmission is per sequence number, not per bundle: what
        // is unacknowledged, the third's message included.
        now += TimeDelta::from_millis(20);
        let retransmitted = a.on_tick(now);
        assert_eq!(data_of(&retransmitted), vec![(1, "y"), (2, "z"), (3, "w")]);
        // A peer silent for PROBE_AFTER rounds is probed with the head
        // alone: the lost bundle split.
        for _ in 1..PROBE_AFTER {
            now += TimeDelta::from_millis(20);
            a.on_tick(now);
        }
        now += TimeDelta::from_millis(20);
        let probe = a.on_tick(now);
        assert_eq!(data_of(&probe), vec![(1, "y")]);
        let RcOut::Transmit { packet, .. } = probe.into_iter().next().expect("probe") else {
            panic!("expected a transmit");
        };
        assert_eq!(delivered(&b.on_packet(A, packet, now)), vec!["y"]);
    }

    #[test]
    fn stuck_then_unstuck() {
        let mut a = rc(A);
        a.send(B, "x", Time::ZERO);
        let late = Time::ZERO + TimeDelta::from_secs(31);
        let out = a.on_tick(late);
        assert!(out
            .iter()
            .any(|o| matches!(o, RcOut::Stuck { peer, .. } if *peer == B)));
        // Reported once only.
        assert!(!a
            .on_tick(late + TimeDelta::from_secs(1))
            .iter()
            .any(|o| matches!(o, RcOut::Stuck { .. })));
        let acked = a.on_packet(B, Packet::Ack { upto: 1 }, late);
        assert!(acked
            .iter()
            .any(|o| matches!(o, RcOut::Unstuck { peer } if *peer == B)));
    }

    #[test]
    fn loopback_delivers_immediately() {
        let mut a = rc(A);
        let out = a.send(A, "self", Time::ZERO);
        assert_eq!(delivered(&out), vec!["self"]);
    }

    #[test]
    fn forget_peer_discards_backlog() {
        let mut a = rc(A);
        a.send(B, "x", Time::ZERO);
        assert_eq!(a.backlog(B), 1);
        a.forget_peer(B);
        assert_eq!(a.backlog(B), 0);
        assert!(a.on_tick(Time::from_secs(60)).is_empty());
    }

    #[test]
    fn forgotten_peer_is_refused_until_addressed_again() {
        // B was excluded and forgotten while it still runs. Its stream to A
        // is a first contact — sequence 0, which a fresh receive state would
        // deliver.
        let mut a = rc(A);
        a.forget_peer(B);
        let hello = Packet::Data {
            seq: 0,
            ack: 0,
            msg: "from outside",
        };
        let out = a.on_packet(B, hello.clone(), Time::ZERO);
        assert!(out.is_empty(), "{out:?}");
        assert!(a.on_tick(Time::from_millis(10)).is_empty(), "no ack owed");
        // A addresses B again (a new conversation): B is heard from then on.
        a.send(B, "welcome back", Time::from_millis(10));
        let out = a.on_packet(B, hello, Time::from_millis(11));
        assert_eq!(delivered(&out), vec!["from outside"]);
    }

    #[test]
    fn silent_peer_is_probed_with_the_head_until_it_acks() {
        let mut a = rc(A);
        let mut now = Time::ZERO;
        for msg in ["a", "b", "c", "d"] {
            a.send(B, msg, now);
        }
        // B acknowledges nothing: PROBE_AFTER full retransmission rounds…
        for _ in 0..PROBE_AFTER {
            now += TimeDelta::from_millis(20);
            assert_eq!(data_of(&a.on_tick(now)).len(), 4);
        }
        // …then the head alone, whatever else piles up behind it.
        a.send(B, "e", now);
        for _ in 0..5 {
            now += TimeDelta::from_millis(20);
            assert_eq!(data_of(&a.on_tick(now)), vec![(0, "a")]);
        }
        // The first acknowledgement ends the probing: the whole backlog is
        // due at the next tick.
        a.on_packet(B, Packet::Ack { upto: 1 }, now);
        now += TimeDelta::from_millis(10);
        assert_eq!(
            data_of(&a.on_tick(now)),
            vec![(1, "b"), (2, "c"), (3, "d"), (4, "e")]
        );
    }

    #[test]
    fn peer_set_walks_its_members_in_ascending_id_order() {
        let walk = |s: &PeerSet| -> Vec<u32> { s.iter().map(ProcessId::raw).collect() };
        let mut s = PeerSet::default();
        assert!(walk(&s).is_empty() && !s.contains(ProcessId::new(7)));
        for id in [130, 0, 64, 63, 5, 64] {
            s.insert(ProcessId::new(id));
        }
        assert_eq!(walk(&s), vec![0, 5, 63, 64, 130]);
        assert!(s.contains(ProcessId::new(63)) && !s.contains(ProcessId::new(62)));
        s.remove(ProcessId::new(63));
        s.remove(ProcessId::new(9_999)); // beyond its words: nothing to do
        assert_eq!(walk(&s), vec![0, 5, 64, 130]);
        s.clear();
        assert!(walk(&s).is_empty());
        assert_eq!(s.0.len(), 3, "cleared, not shrunk");
    }

    #[test]
    fn tick_reports_the_stuck_then_retransmits_then_acks_each_in_id_order() {
        // Peers on both sides of a word boundary, addressed out of order.
        let peers = [70, 3, 1].map(ProcessId::new);
        let mut a = rc(A);
        for p in peers {
            a.send(p, "x", Time::ZERO);
        }
        // Two more owe A nothing but are owed an ack.
        for p in [65, 2].map(ProcessId::new) {
            let hello = Packet::Data {
                seq: 0,
                ack: 0,
                msg: "y",
            };
            a.on_packet(p, hello, Time::ZERO);
        }
        let out = a.on_tick(Time::ZERO + TimeDelta::from_secs(31));
        let line: Vec<(u8, u32)> = out
            .iter()
            .map(|o| match o {
                RcOut::Stuck { peer, .. } => (0, peer.raw()),
                RcOut::Transmit {
                    to,
                    packet: Packet::Data { .. },
                } => (1, to.raw()),
                RcOut::Transmit {
                    to,
                    packet: Packet::Ack { .. },
                } => (2, to.raw()),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let expected = [
            (0, 1),
            (0, 3),
            (0, 70),
            (1, 1),
            (1, 3),
            (1, 70),
            (2, 2),
            (2, 65),
        ];
        assert_eq!(line, expected);
    }

    #[test]
    fn cumulative_ack_clears_prefix_only() {
        let mut a = rc(A);
        let t = Time::ZERO;
        a.send(B, "x", t);
        a.send(B, "y", t);
        a.send(B, "z", t);
        a.on_packet(B, Packet::Ack { upto: 2 }, t);
        assert_eq!(a.backlog(B), 1);
    }

    /// The headline number: 100 request–response rounds of a steady
    /// bidirectional exchange put exactly 220 packets on the wire. Classic
    /// ack-per-data, an ack packet for every data packet, put 400 (both
    /// measured when the channel still had that mode); any other count
    /// means the ack scheme changed. (The full-stack counterpart lives in
    /// gcs-core's tests.)
    #[test]
    fn steady_exchange_sends_220_packets() {
        let run = || -> usize {
            let cfg = RcConfig::default();
            let mut a: ReliableChannel<u64> = ReliableChannel::new(A, cfg);
            let mut b: ReliableChannel<u64> = ReliableChannel::new(B, cfg);
            let mut packets = 0usize;
            let mut now = Time::ZERO;
            let mut wire: Vec<(ProcessId, ProcessId, Packet<u64>)> = Vec::new();
            let push = |from: ProcessId,
                        outs: Vec<RcOut<u64>>,
                        wire: &mut Vec<(ProcessId, ProcessId, Packet<u64>)>,
                        packets: &mut usize| {
                for o in outs {
                    if let RcOut::Transmit { to, packet } = o {
                        *packets += 1;
                        wire.push((from, to, packet));
                    }
                }
            };
            for i in 0..100u64 {
                now += TimeDelta::from_millis(2);
                // Request–response traffic: A sends, B replies to each
                // *delivered request* exactly once.
                let outs = a.send(B, i, now);
                push(A, outs, &mut wire, &mut packets);
                while let Some((from, to, packet)) = wire.pop() {
                    let endpoint = if to == A { &mut a } else { &mut b };
                    let outs: Vec<_> = endpoint.on_packet(from, packet, now);
                    let delivered_to_b =
                        to == B && outs.iter().any(|o| matches!(o, RcOut::Deliver { .. }));
                    push(to, outs, &mut wire, &mut packets);
                    if delivered_to_b {
                        let outs: Vec<_> = b.send(A, 1000 + i, now);
                        push(B, outs, &mut wire, &mut packets);
                    }
                }
                // Periodic ticks on both endpoints.
                if i % 5 == 0 {
                    let outs = a.on_tick(now);
                    push(A, outs, &mut wire, &mut packets);
                    let outs = b.on_tick(now);
                    push(B, outs, &mut wire, &mut packets);
                    while let Some((from, to, packet)) = wire.pop() {
                        let endpoint = if to == A { &mut a } else { &mut b };
                        let outs: Vec<_> = endpoint.on_packet(from, packet, now);
                        push(to, outs, &mut wire, &mut packets);
                    }
                }
            }
            packets
        };
        assert_eq!(run(), 220, "packets of 100 request-response rounds");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const A: ProcessId = ProcessId::new(0);
    const B: ProcessId = ProcessId::new(1);

    /// A's step of `k` more first transmissions to B, which leave as one
    /// packet: a bundle when there are several.
    fn send_step(
        a: &mut ReliableChannel<u64>,
        next: &mut u64,
        k: usize,
        now: Time,
        wire_ab: &mut Vec<Packet<u64>>,
    ) {
        let mut outs = Vec::new();
        for _ in 0..k {
            a.send_into(B, *next, now, &mut outs);
            *next += 1;
        }
        let mut step: Option<Packet<u64>> = None;
        for o in outs {
            let RcOut::Transmit { to: B, packet } = o else {
                panic!("a send to B transmits to B");
            };
            match &mut step {
                None => step = Some(packet),
                Some(bundle) => bundle.bundle(packet, Vec::new),
            }
        }
        wire_ab.extend(step);
    }

    proptest! {
        /// Under arbitrary reordering, duplication and loss of individual
        /// transmissions — with on_tick retransmissions eventually getting
        /// everything through — the receiver delivers exactly the sent
        /// sequence, in order, whatever bundles the first transmissions
        /// left in.
        #[test]
        fn fifo_no_dup_no_creation(
            n in 1usize..30,
            // For each "round": which pending wire packets get delivered,
            // whether each is duplicated or lost, and how many more messages
            // A sends in the round's step.
            schedule in proptest::collection::vec((0usize..8, any::<bool>(), any::<bool>(), 0usize..4), 0..200),
        ) {
            let cfg = RcConfig::default();
            let mut a = ReliableChannel::new(A, cfg);
            let mut b = ReliableChannel::new(B, cfg);
            let mut now = Time::ZERO;
            let mut wire_ab: Vec<Packet<u64>> = Vec::new();
            let mut wire_ba: Vec<Packet<u64>> = Vec::new();
            let mut got: Vec<u64> = Vec::new();

            let push = |outs: Vec<RcOut<u64>>, wire_ab: &mut Vec<Packet<u64>>, wire_ba: &mut Vec<Packet<u64>>, got: &mut Vec<u64>| {
                for o in outs {
                    match o {
                        RcOut::Transmit { to, packet } => {
                            if to == B { wire_ab.push(packet) } else { wire_ba.push(packet) }
                        }
                        RcOut::Deliver { msg, .. } => got.push(msg),
                        _ => {}
                    }
                }
            };

            let mut next = 0u64;
            for (idx, dup, drop, k) in schedule {
                now += TimeDelta::from_millis(30);
                let k = k.min(n - next as usize);
                send_step(&mut a, &mut next, k, now, &mut wire_ab);
                // Maybe deliver one packet from A→B (possibly out of order).
                if !wire_ab.is_empty() {
                    let k = idx % wire_ab.len();
                    let pkt = wire_ab.swap_remove(k);
                    if !drop {
                        if dup {
                            let mut outs = Vec::new();
                            b.on_packet_into(A, pkt.clone(), now, &mut outs);
                            push(outs, &mut wire_ab, &mut wire_ba, &mut got);
                        }
                        let mut outs = Vec::new();
                        b.on_packet_into(A, pkt, now, &mut outs);
                        push(outs, &mut wire_ab, &mut wire_ba, &mut got);
                    }
                }
                // Deliver one ack-bearing packet B→A.
                if !wire_ba.is_empty() {
                    let k = idx % wire_ba.len();
                    let pkt = wire_ba.swap_remove(k);
                    if !drop {
                        let mut outs = Vec::new();
                        a.on_packet_into(B, pkt, now, &mut outs);
                        push(outs, &mut wire_ab, &mut wire_ba, &mut got);
                    }
                }
                let outs = a.on_tick(now);
                push(outs, &mut wire_ab, &mut wire_ba, &mut got);
                let outs = b.on_tick(now);
                push(outs, &mut wire_ab, &mut wire_ba, &mut got);
            }

            // What the rounds left unsent goes in steps of three.
            while (next as usize) < n {
                let k = (n - next as usize).min(3);
                send_step(&mut a, &mut next, k, now, &mut wire_ab);
            }

            // Drain: deliver everything still on the wire plus retransmissions
            // until quiescence.
            for _ in 0..(4 * n + 8) {
                now += TimeDelta::from_millis(30);
                let outs = a.on_tick(now);
                push(outs, &mut wire_ab, &mut wire_ba, &mut got);
                let outs = b.on_tick(now);
                push(outs, &mut wire_ab, &mut wire_ba, &mut got);
                while !wire_ab.is_empty() {
                    let pkt = wire_ab.remove(0);
                    let mut outs = Vec::new();
                    b.on_packet_into(A, pkt, now, &mut outs);
                    push(outs, &mut wire_ab, &mut wire_ba, &mut got);
                }
                while !wire_ba.is_empty() {
                    let pkt = wire_ba.remove(0);
                    let mut outs = Vec::new();
                    a.on_packet_into(B, pkt, now, &mut outs);
                    push(outs, &mut wire_ab, &mut wire_ba, &mut got);
                }
            }

            let expected: Vec<u64> = (0..n as u64).collect();
            prop_assert_eq!(got, expected);
            prop_assert_eq!(a.backlog(B), 0);
        }
    }
}

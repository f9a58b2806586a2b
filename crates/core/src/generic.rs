//! Thrifty generic broadcast — the component that replaces view synchrony
//! (paper §3.2, key feature 2).
//!
//! Messages carry a [`MessageClass`]; a symmetric [`ConflictRelation`] over
//! classes defines which pairs must be mutually ordered. Non-conflicting
//! messages take a **fast path** that costs two communication steps plus an
//! acknowledgement round and *never invokes consensus*; conflicting messages
//! force an **escalation** through atomic broadcast — the thrifty property
//! of Aguilera et al. \[1\] that the paper assumes (§3.2.1): *atomic
//! broadcast is used only when conflicting messages are broadcast*.
//!
//! ## The algorithm (adapted quorum-ack generic broadcast)
//!
//! Time is divided into *epochs*. Within an epoch:
//!
//! * To g-broadcast `m`: diffuse it by reliable broadcast.
//! * On first receipt of `m`: if `m` conflicts with **no** other undelivered
//!   message known locally, send `ack(epoch, m)` to all members; a process
//!   never acks two conflicting messages in one epoch.
//! * `m` is **fast-delivered** once `⌈(2n+1)/3⌉` acks of the current epoch
//!   arrive (and the payload is present).
//! * On a conflict, a process **escalates**: it freezes (stops acking) and
//!   atomically broadcasts `End(epoch, ackedSet, pendingSet)`. Every process
//!   that a-delivers an `End` for its epoch freezes and a-broadcasts its own
//!   `End`. The first `n − f_gb` `End`s *in a-delivery order* — identical at
//!   every process — close the epoch: their union `M` is delivered, first
//!   the messages supported by more than `T − 1` of the collected acked-sets
//!   (any message that may have been fast-delivered is among them), then the
//!   rest, both in id order; undelivered messages carry into the next epoch.
//!
//! With `f_gb = ⌈n/3⌉ − 1` and `T = ⌈(2n+1)/3⌉ + (n − f_gb) − n`, quorum
//! intersection gives: a fast-delivered message always clears `T` while any
//! message conflicting with it cannot — so closure order extends every
//! fast-delivery order. Safety of the fast path needs `f < n/3` (standard
//! for quorum-ack generic broadcast); the escalation path inherits
//! `f < n/2` from atomic broadcast. Correctness is exercised by the
//! property tests in `tests/generic_broadcast.rs`.

use std::collections::{BTreeMap, BTreeSet};

use gcs_kernel::{FxHashSet, ProcessId};

use crate::rbcast::{Rbcast, RelayFanout};
use crate::types::{
    Body, ConflictRelation, Delivery, DeliveryKind, GbEndData, GbMsg, Message, MessageClass, MsgId,
    View, WireMsg,
};

/// An instruction produced by the generic-broadcast core.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GbOut {
    /// Send a wire message to a peer over the reliable channel.
    Wire(ProcessId, WireMsg),
    /// Atomically broadcast an epoch-closure control body (`abcast` on the
    /// component below, Fig 7/9).
    Escalate(Body),
    /// Deliver a message to the application (`gdeliver`).
    Deliver(Delivery),
}

/// The thrifty generic-broadcast core (sans-I/O).
#[derive(Debug)]
pub struct GenericCore {
    me: ProcessId,
    relation: ConflictRelation,
    rb: Rbcast,
    /// Members of the epoch currently in progress (quorums are computed on
    /// this set; view changes apply at epoch boundaries).
    epoch_members: Vec<ProcessId>,
    view_id: u64,
    active: bool,
    epoch: u64,
    /// R-delivered, not yet g-delivered.
    pending: BTreeMap<MsgId, Message>,
    /// Messages acked by this process in the current epoch. Entries persist
    /// until the epoch closes **even after delivery**: the closure-ordering
    /// safety argument needs every collected `End` to still report the
    /// fast-delivered messages its sender acked, and a process must never
    /// ack two conflicting messages within one epoch, delivered or not.
    acked: BTreeMap<MsgId, Message>,
    /// Ack senders per message for the current epoch.
    ack_senders: BTreeMap<MsgId, BTreeSet<ProcessId>>,
    /// Acks that arrived for a future epoch (the sender closed earlier).
    future_acks: BTreeMap<u64, Vec<(ProcessId, MsgId)>>,
    /// G-delivered ids (never delivered twice).
    gdelivered: FxHashSet<MsgId>,
    /// Frozen: stop acking / fast-delivering until the epoch closes.
    frozen: bool,
    /// `End` bodies collected for the current epoch, in a-delivery order
    /// (shared payloads — collecting an `End` does not copy its sets).
    ends: Vec<(ProcessId, std::sync::Arc<GbEndData>)>,
    /// A view waiting to be applied at the next epoch boundary.
    pending_view: Option<View>,
    /// FIFO mode (paper footnote 9): deliveries of one sender's messages
    /// follow the sender's broadcast order.
    fifo: bool,
    /// FIFO mode: next expected per-sender sequence number.
    next_fifo: BTreeMap<ProcessId, u64>,
    /// FIFO mode: deliveries held back until their predecessors arrive.
    holdback: BTreeMap<ProcessId, BTreeMap<u64, (Message, DeliveryKind)>>,
}

impl GenericCore {
    /// Creates the core for `me` with the given conflict relation.
    /// `initial_view` is `None` for processes that join later.
    pub fn new(me: ProcessId, relation: ConflictRelation, initial_view: Option<View>) -> Self {
        Self::with_relay(me, relation, initial_view, RelayFanout::All)
    }

    /// Creates the core with an explicit reliable-broadcast relay policy
    /// (see [`RelayFanout`]).
    pub fn with_relay(
        me: ProcessId,
        relation: ConflictRelation,
        initial_view: Option<View>,
        relay: RelayFanout,
    ) -> Self {
        let mut rb = Rbcast::with_relay(me, relay);
        let (members, view_id, active) = match initial_view {
            Some(v) => {
                rb.set_peers(&v.members);
                (v.members, v.id, true)
            }
            None => (Vec::new(), 0, false),
        };
        GenericCore {
            me,
            relation,
            rb,
            epoch_members: members,
            view_id,
            active,
            epoch: 0,
            pending: BTreeMap::new(),
            acked: BTreeMap::new(),
            ack_senders: BTreeMap::new(),
            future_acks: BTreeMap::new(),
            gdelivered: FxHashSet::default(),
            frozen: false,
            ends: Vec::new(),
            pending_view: None,
            fifo: false,
            next_fifo: BTreeMap::new(),
            holdback: BTreeMap::new(),
        }
    }

    /// Enables FIFO generic broadcast (paper footnote 9): each sender's
    /// messages are g-delivered in the order that sender broadcast them, in
    /// addition to the conflict-order guarantees.
    pub fn with_fifo(mut self) -> Self {
        self.fifo = true;
        self
    }

    /// Whether FIFO mode is enabled.
    pub fn is_fifo(&self) -> bool {
        self.fifo
    }

    /// Current epoch number (diagnostics, snapshots).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether this process is frozen awaiting an epoch closure.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// G-delivered ids, sorted (for snapshots).
    pub fn gdelivered(&self) -> Vec<MsgId> {
        let mut v: Vec<MsgId> = self.gdelivered.iter().copied().collect();
        v.sort_unstable();
        v
    }

    fn n(&self) -> usize {
        self.epoch_members.len()
    }

    /// Fast-path ack quorum: `⌈(2n+1)/3⌉`.
    pub fn fast_quorum(&self) -> usize {
        (2 * self.n() + 3) / 3
    }

    /// Crash tolerance of the epoch-closure path: `⌈n/3⌉ − 1`.
    pub fn f_gb(&self) -> usize {
        self.n().div_ceil(3) - 1
    }

    /// Number of `End`s that close an epoch.
    pub fn end_quorum(&self) -> usize {
        self.n() - self.f_gb()
    }

    fn priority_threshold(&self) -> usize {
        self.fast_quorum() + self.end_quorum() - self.n()
    }

    /// Generically broadcasts a payload-bearing message of `class`,
    /// appending instructions to `out` (hot-path entry point: callers reuse
    /// one buffer across invocations).
    pub fn gbcast_into(&mut self, class: MessageClass, body: Body, out: &mut Vec<GbOut>) {
        let id = self.rb.next_id();
        let message = Message { id, class, body };
        // Shallow per-peer clones: payloads are arena handles.
        for &to in self.rb.broadcast(&message) {
            out.push(GbOut::Wire(to, WireMsg::Gb(GbMsg::Data(message.clone()))));
        }
        self.admit(message, out);
    }

    /// [`gbcast_into`](Self::gbcast_into) returning a fresh buffer.
    pub fn gbcast(&mut self, class: MessageClass, body: Body) -> Vec<GbOut> {
        let mut out = Vec::new();
        self.gbcast_into(class, body, &mut out);
        out
    }

    /// Handles a diffused message from the network.
    pub fn on_data_into(&mut self, from: ProcessId, message: Message, out: &mut Vec<GbOut>) {
        let receipt = self.rb.on_data(from, message);
        if let Some(message) = receipt.deliver {
            for &to in receipt.relay_to {
                out.push(GbOut::Wire(to, WireMsg::Gb(GbMsg::Data(message.clone()))));
            }
            self.admit(message, out);
        }
    }

    /// [`on_data_into`](Self::on_data_into) returning a fresh buffer.
    pub fn on_data(&mut self, from: ProcessId, message: Message) -> Vec<GbOut> {
        let mut out = Vec::new();
        self.on_data_into(from, message, &mut out);
        out
    }

    /// First local receipt of a message: enter pending, maybe ack.
    fn admit(&mut self, message: Message, out: &mut Vec<GbOut>) {
        if self.gdelivered.contains(&message.id) {
            return;
        }
        let id = message.id;
        self.pending.insert(id, message);
        if self.active && !self.frozen {
            self.consider_ack(id, out);
            self.try_fast_deliver(id, out);
        }
    }

    /// Acks `id` if it conflicts with no other message known this epoch
    /// (pending *or* acked — even already delivered); escalates otherwise.
    fn consider_ack(&mut self, id: MsgId, out: &mut Vec<GbOut>) {
        let message = self.pending[&id].clone();
        let class = message.class;
        let conflicting = self
            .pending
            .iter()
            .chain(self.acked.iter())
            .any(|(&x, m)| x != id && self.relation.conflicts(m.class, class));
        if conflicting {
            self.escalate(out);
        } else if let std::collections::btree_map::Entry::Vacant(e) = self.acked.entry(id) {
            e.insert(message);
            let epoch = self.epoch;
            // Count the local ack directly; send to the other members.
            self.ack_senders.entry(id).or_default().insert(self.me);
            let me = self.me;
            for &p in &self.epoch_members {
                if p != me {
                    out.push(GbOut::Wire(p, WireMsg::Gb(GbMsg::Ack { epoch, id })));
                }
            }
        }
    }

    /// Freezes and a-broadcasts this process's `End` for the current epoch.
    fn escalate(&mut self, out: &mut Vec<GbOut>) {
        if self.frozen || !self.active {
            return;
        }
        self.frozen = true;
        let acked: Vec<Message> = self.acked.values().cloned().collect();
        let pending: Vec<Message> = self
            .pending
            .iter()
            .filter(|(id, _)| !self.acked.contains_key(id))
            .map(|(_, m)| m.clone())
            .collect();
        out.push(GbOut::Escalate(Body::GbEnd(std::sync::Arc::new(
            GbEndData {
                epoch: self.epoch,
                acked,
                pending,
            },
        ))));
    }

    /// Handles an ack from `from`.
    pub fn on_ack_into(&mut self, from: ProcessId, epoch: u64, id: MsgId, out: &mut Vec<GbOut>) {
        if epoch > self.epoch {
            self.future_acks.entry(epoch).or_default().push((from, id));
            return;
        }
        if epoch < self.epoch || self.gdelivered.contains(&id) {
            return; // stale
        }
        self.ack_senders.entry(id).or_default().insert(from);
        self.try_fast_deliver(id, out);
    }

    /// [`on_ack_into`](Self::on_ack_into) returning a fresh buffer.
    pub fn on_ack(&mut self, from: ProcessId, epoch: u64, id: MsgId) -> Vec<GbOut> {
        let mut out = Vec::new();
        self.on_ack_into(from, epoch, id, &mut out);
        out
    }

    fn try_fast_deliver(&mut self, id: MsgId, out: &mut Vec<GbOut>) {
        if self.frozen || !self.active {
            return;
        }
        let quorum = self.fast_quorum();
        let supported = self.ack_senders.get(&id).is_some_and(|s| s.len() >= quorum);
        if supported && self.pending.contains_key(&id) {
            self.gdeliver(id, DeliveryKind::GenericFast, out);
        }
    }

    fn gdeliver(&mut self, id: MsgId, kind: DeliveryKind, out: &mut Vec<GbOut>) {
        let Some(message) = self.pending.remove(&id) else {
            return;
        };
        // Note: the id stays in `acked` until the epoch closes (safety of
        // the closure ordering depends on it).
        self.ack_senders.remove(&id);
        self.gdelivered.insert(id);
        if !self.fifo {
            self.emit_delivery(message, kind, out);
            return;
        }
        // FIFO hold-back: deliver only when every earlier message of the
        // same sender has been delivered; release any unblocked successors.
        let sender = id.sender;
        self.holdback
            .entry(sender)
            .or_default()
            .insert(id.seq, (message, kind));
        loop {
            let next = self.next_fifo.entry(sender).or_insert(0);
            let Some((m, k)) = self
                .holdback
                .get_mut(&sender)
                .and_then(|h| h.remove(&*next))
            else {
                break;
            };
            *next += 1;
            self.emit_delivery(m, k, out);
        }
    }

    fn emit_delivery(&mut self, message: Message, kind: DeliveryKind, out: &mut Vec<GbOut>) {
        if let Body::App(payload) = &message.body {
            out.push(GbOut::Deliver(Delivery {
                kind,
                id: message.id,
                class: message.class,
                payload: *payload,
                view: self.view_id,
            }));
        }
    }

    /// Handles an a-delivered `End` control message (total order guarantees
    /// every member processes the same `End` sequence).
    pub fn on_end_delivered_into(
        &mut self,
        end_sender: ProcessId,
        end: std::sync::Arc<GbEndData>,
        out: &mut Vec<GbOut>,
    ) {
        if !self.active || end.epoch != self.epoch {
            return; // stale straggler (or pre-join traffic)
        }
        // The epoch is closing: contribute our own End if we have not yet.
        self.escalate(out);
        if self.ends.iter().any(|(s, _)| *s == end_sender) {
            return;
        }
        self.ends.push((end_sender, end));
        if self.ends.len() >= self.end_quorum() {
            self.close_epoch(out);
        }
    }

    /// [`on_end_delivered_into`](Self::on_end_delivered_into) returning a
    /// fresh buffer.
    pub fn on_end_delivered(
        &mut self,
        end_sender: ProcessId,
        end: std::sync::Arc<GbEndData>,
    ) -> Vec<GbOut> {
        let mut out = Vec::new();
        self.on_end_delivered_into(end_sender, end, &mut out);
        out
    }

    /// A view change was a-delivered: apply it at the next epoch boundary,
    /// forcing one if the group is mid-epoch.
    pub fn on_view_change(&mut self, view: View) -> Vec<GbOut> {
        let mut out = Vec::new();
        if !view.contains(self.me) {
            self.active = false;
            self.view_id = view.id;
            return out;
        }
        if !self.active {
            // We are the joiner; state came via the snapshot.
            self.view_id = view.id;
            return out;
        }
        self.pending_view = Some(view);
        self.escalate(&mut out);
        out
    }

    /// Activates a joining process at `epoch` with the given delivery
    /// history.
    pub fn install_snapshot(&mut self, view: &View, epoch: u64, gdelivered: &[MsgId]) {
        self.epoch_members = view.members.clone();
        self.view_id = view.id;
        self.rb.set_peers(&view.members);
        self.active = true;
        self.epoch = epoch;
        self.gdelivered = gdelivered.iter().copied().collect();
        self.pending.retain(|id, _| !gdelivered.contains(id));
        if self.fifo {
            // FIFO delivery makes each sender's delivered set prefix-closed,
            // so the cursor resumes one past the highest delivered sequence.
            for id in gdelivered {
                let next = self.next_fifo.entry(id.sender).or_insert(0);
                *next = (*next).max(id.seq + 1);
            }
        }
    }

    /// Epoch closure: deliver the union of the collected `End`s —
    /// prioritized (possibly-fast-delivered) messages first — and start the
    /// next epoch.
    fn close_epoch(&mut self, out: &mut Vec<GbOut>) {
        let threshold = self.priority_threshold();
        // Union of all reported messages, and per-id support counts over the
        // *acked* components.
        let mut union: BTreeMap<MsgId, Message> = BTreeMap::new();
        let mut support: BTreeMap<MsgId, usize> = BTreeMap::new();
        for (_, end) in std::mem::take(&mut self.ends) {
            for m in &end.acked {
                *support.entry(m.id).or_insert(0) += 1;
                union.entry(m.id).or_insert_with(|| m.clone());
            }
            for m in &end.pending {
                union.entry(m.id).or_insert_with(|| m.clone());
            }
        }
        // Prioritized first (id order), then the rest (id order).
        let (first, second): (Vec<&Message>, Vec<&Message>) = union
            .values()
            .partition(|m| support.get(&m.id).copied().unwrap_or(0) >= threshold);
        for m in first.into_iter().chain(second) {
            let id = m.id;
            if self.gdelivered.contains(&id) {
                continue;
            }
            self.pending.entry(id).or_insert_with(|| m.clone());
            self.gdeliver(id, DeliveryKind::GenericOrdered, out);
        }

        // Start the next epoch.
        self.epoch += 1;
        self.acked.clear();
        self.ack_senders.clear();
        self.frozen = false;
        if let Some(v) = self.pending_view.take() {
            self.epoch_members = v.members.clone();
            self.view_id = v.id;
            self.rb.set_peers(&v.members);
        }
        // Merge acks that raced ahead into the new epoch.
        if let Some(acks) = self.future_acks.remove(&self.epoch) {
            for (from, id) in acks {
                if !self.gdelivered.contains(&id) {
                    self.ack_senders.entry(id).or_default().insert(from);
                }
            }
        }
        self.future_acks = self.future_acks.split_off(&self.epoch);
        // Re-process carried-over messages in id order: re-ack or
        // re-escalate immediately.
        let carried: Vec<MsgId> = self.pending.keys().copied().collect();
        for id in carried {
            if self.frozen {
                break;
            }
            if self.pending.contains_key(&id) {
                self.consider_ack(id, out);
                self.try_fast_deliver(id, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_kernel::PayloadRef;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn members(n: u32) -> Vec<ProcessId> {
        (0..n).map(pid).collect()
    }

    fn core(i: u32, n: u32, relation: ConflictRelation) -> GenericCore {
        GenericCore::new(pid(i), relation, Some(View::initial(members(n))))
    }

    fn empty_end(epoch: u64) -> std::sync::Arc<GbEndData> {
        std::sync::Arc::new(GbEndData {
            epoch,
            acked: vec![],
            pending: vec![],
        })
    }

    fn app(sender: u32, seq: u64, class: u16) -> Message {
        Message {
            id: MsgId {
                sender: pid(sender),
                seq,
            },
            class: MessageClass(class),
            body: Body::App(PayloadRef::EMPTY),
        }
    }

    #[test]
    fn quorum_arithmetic() {
        for (n, fast, f, endq) in [(3, 3, 0, 3), (4, 3, 1, 3), (5, 4, 1, 4), (7, 5, 2, 5)] {
            let c = core(0, n, ConflictRelation::none(4));
            assert_eq!(c.fast_quorum(), fast, "n={n}");
            assert_eq!(c.f_gb(), f, "n={n}");
            assert_eq!(c.end_quorum(), endq, "n={n}");
            // A fast-delivered message always beats a conflicting one's
            // possible support.
            assert!(2 * c.fast_quorum() + c.end_quorum() > 2 * (n as usize));
        }
    }

    #[test]
    fn non_conflicting_message_is_acked_to_all_members() {
        let mut c = core(0, 4, ConflictRelation::none(4));
        let out = c.on_data(pid(1), app(1, 0, 0));
        let acks = out
            .iter()
            .filter(|o| matches!(o, GbOut::Wire(_, WireMsg::Gb(GbMsg::Ack { .. }))))
            .count();
        assert_eq!(acks, 3, "ack to every other member");
        assert!(!c.is_frozen());
    }

    #[test]
    fn fast_delivery_at_quorum() {
        // n=4 → fast quorum 3 (self + two others).
        let mut c = core(0, 4, ConflictRelation::none(4));
        let m = app(1, 0, 0);
        c.on_data(pid(1), m.clone());
        assert!(c.on_ack(pid(1), 0, m.id).is_empty());
        let out = c.on_ack(pid(2), 0, m.id);
        assert!(
            out.iter()
                .any(|o| matches!(o, GbOut::Deliver(d) if d.kind == DeliveryKind::GenericFast)),
            "fast delivery at quorum: {out:?}"
        );
        // Further acks for a delivered message are ignored.
        assert!(c.on_ack(pid(3), 0, m.id).is_empty());
    }

    #[test]
    fn conflicting_messages_escalate() {
        let mut c = core(0, 4, ConflictRelation::all(4));
        c.on_data(pid(1), app(1, 0, 0));
        let out = c.on_data(pid(2), app(2, 0, 1));
        assert!(out
            .iter()
            .any(|o| matches!(o, GbOut::Escalate(Body::GbEnd { .. }))));
        assert!(c.is_frozen());
        // Frozen: no acks for new arrivals.
        let out = c.on_data(pid(3), app(3, 0, 2));
        assert!(out
            .iter()
            .all(|o| !matches!(o, GbOut::Wire(_, WireMsg::Gb(GbMsg::Ack { .. })))));
    }

    #[test]
    fn epoch_closure_delivers_union_and_thaws() {
        let mut c = core(0, 3, ConflictRelation::all(4));
        let m1 = app(1, 0, 0);
        let m2 = app(2, 0, 1);
        c.on_data(pid(1), m1.clone());
        let _ = c.on_data(pid(2), m2.clone()); // escalates (conflict)
        assert!(c.is_frozen());
        // n=3 → end quorum 3: three Ends close the epoch.
        let mk_end = |_sender: u32| {
            std::sync::Arc::new(GbEndData {
                epoch: 0,
                acked: vec![m1.clone()],
                pending: vec![m2.clone()],
            })
        };
        assert!(c.on_end_delivered(pid(0), mk_end(0)).is_empty());
        assert!(c.on_end_delivered(pid(1), mk_end(1)).is_empty());
        let out = c.on_end_delivered(pid(2), mk_end(2));
        let delivered: Vec<MsgId> = out
            .iter()
            .filter_map(|o| match o {
                GbOut::Deliver(d) => Some(d.id),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![m1.id, m2.id], "prioritized (acked) first");
        assert_eq!(c.epoch(), 1);
        assert!(!c.is_frozen());
    }

    #[test]
    fn stale_and_duplicate_ends_are_ignored() {
        let mut c = core(0, 3, ConflictRelation::all(4));
        assert!(c.on_end_delivered(pid(1), empty_end(7)).is_empty());
        // Freeze via a first End of the right epoch.
        let _ = c.on_end_delivered(pid(1), empty_end(0));
        // Duplicate sender does not advance the count.
        let _ = c.on_end_delivered(pid(1), empty_end(0));
        assert_eq!(c.epoch(), 0);
    }

    #[test]
    fn future_acks_are_buffered_until_their_epoch() {
        let mut c = core(0, 3, ConflictRelation::none(4));
        let m = app(1, 0, 0);
        // Ack for epoch 1 arrives while we are in epoch 0.
        assert!(c.on_ack(pid(1), 1, m.id).is_empty());
        // Close epoch 0 (three empty Ends).
        let _ = c.on_end_delivered(pid(0), empty_end(0));
        let _ = c.on_end_delivered(pid(1), empty_end(0));
        let _ = c.on_end_delivered(pid(2), empty_end(0));
        assert_eq!(c.epoch(), 1);
        // Now the data + one more ack complete the n=3 fast quorum
        // (self + p1-buffered + p2).
        c.on_data(pid(1), m.clone());
        let out = c.on_ack(pid(2), 1, m.id);
        assert!(
            out.iter().any(|o| matches!(o, GbOut::Deliver(_))),
            "{out:?}"
        );
    }

    #[test]
    fn view_change_forces_epoch_boundary() {
        let mut c = core(0, 3, ConflictRelation::none(4));
        let v1 = View {
            id: 1,
            members: vec![pid(0), pid(1), pid(2), pid(3)],
        };
        let out = c.on_view_change(v1.clone());
        assert!(out.iter().any(|o| matches!(o, GbOut::Escalate(_))));
        // Close the epoch; the new view applies afterwards.
        let _ = c.on_end_delivered(pid(0), empty_end(0));
        let _ = c.on_end_delivered(pid(1), empty_end(0));
        let out = c.on_end_delivered(pid(2), empty_end(0));
        assert!(out.is_empty());
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.fast_quorum(), 3, "quorums recomputed for n=4");
    }

    #[test]
    fn removed_member_goes_inactive() {
        let mut c = core(2, 3, ConflictRelation::none(4));
        let v1 = View {
            id: 1,
            members: vec![pid(0), pid(1)],
        };
        let _ = c.on_view_change(v1);
        let out = c.gbcast(MessageClass(0), Body::App(PayloadRef::EMPTY));
        // Still diffuses (it is not a member, deliveries will not happen for
        // it), but never acks or delivers.
        assert!(out.iter().all(|o| !matches!(o, GbOut::Deliver(_))));
    }

    #[test]
    fn fifo_holds_back_out_of_order_fast_deliveries() {
        // n=4, no conflicts: m0 and m1 from the same sender; m1's quorum
        // completes first, but FIFO holds it until m0 is delivered.
        let mut c = core(0, 4, ConflictRelation::none(4)).with_fifo();
        assert!(c.is_fifo());
        let m0 = app(1, 0, 0);
        let m1 = app(1, 1, 0);
        c.on_data(pid(1), m0.clone());
        c.on_data(pid(1), m1.clone());
        // m1 reaches the quorum (3 for n=4) first: self + p1 + p2.
        c.on_ack(pid(1), 0, m1.id);
        let out = c.on_ack(pid(2), 0, m1.id);
        assert!(
            out.iter().all(|o| !matches!(o, GbOut::Deliver(_))),
            "m1 held back: {out:?}"
        );
        // m0 completes: both are released, in order.
        c.on_ack(pid(1), 0, m0.id);
        let out = c.on_ack(pid(3), 0, m0.id);
        let ids: Vec<MsgId> = out
            .iter()
            .filter_map(|o| match o {
                GbOut::Deliver(d) => Some(d.id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![m0.id, m1.id]);
    }

    #[test]
    fn fifo_snapshot_resumes_per_sender_cursor() {
        let mut c = GenericCore::new(pid(3), ConflictRelation::none(4), None).with_fifo();
        let v = View {
            id: 1,
            members: vec![pid(0), pid(1), pid(2), pid(3)],
        };
        // Sender p1 already had seqs 0..=2 delivered before the join.
        let delivered: Vec<MsgId> = (0..3)
            .map(|s| MsgId {
                sender: pid(1),
                seq: s,
            })
            .collect();
        c.install_snapshot(&v, 4, &delivered);
        // The next message from p1 (seq 3) is deliverable immediately.
        let m3 = app(1, 3, 0);
        let mut out = c.on_data(pid(1), m3.clone());
        out.extend(c.on_ack(pid(0), 4, m3.id));
        out.extend(c.on_ack(pid(1), 4, m3.id));
        out.extend(c.on_ack(pid(2), 4, m3.id));
        assert!(
            out.iter()
                .any(|o| matches!(o, GbOut::Deliver(d) if d.id == m3.id)),
            "cursor resumed past the snapshot: {out:?}"
        );
    }

    #[test]
    fn non_member_sender_messages_still_deliver() {
        // A message from a sender that is not a member (e.g. just removed)
        // still goes through the fast path at members.
        let mut c = core(0, 3, ConflictRelation::none(4));
        let m = app(9, 0, 0);
        c.on_data(pid(9), m.clone());
        let out = c.on_ack(pid(1), 0, m.id);
        // n=3 → quorum 3; self + p1 = 2, one more needed.
        assert!(out.iter().all(|o| !matches!(o, GbOut::Deliver(_))));
        let out = c.on_ack(pid(2), 0, m.id);
        assert!(out.iter().any(|o| matches!(o, GbOut::Deliver(_))));
    }
}

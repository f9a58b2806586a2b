//! Thrifty generic broadcast — the component that replaces view synchrony
//! (paper §3.2, key feature 2).
//!
//! Messages carry a [`MessageClass`]; a symmetric [`ConflictRelation`] over
//! classes defines which pairs must be mutually ordered. Non-conflicting
//! messages take a **fast path** that costs two communication steps — one
//! diffusion, one acknowledgement round — and *never invokes consensus*;
//! conflicting messages force an **escalation** through atomic broadcast —
//! the thrifty property of Aguilera et al. \[1\] that the paper assumes
//! (§3.2.1): *atomic broadcast is used only when conflicting messages are
//! broadcast*.
//!
//! ## The algorithm (adapted quorum-ack generic broadcast)
//!
//! Time is divided into *epochs*. Within an epoch:
//!
//! * To g-broadcast `m`: send it to every other member. If `m` conflicts
//!   with nothing the origin knows, the origin acks it, and that ack *rides
//!   the data* ([`GbMsg::Data`]'s `origin_ack`): no separate packet.
//! * On first receipt of `m`: if `m` conflicts with **no** other message
//!   known this epoch, send `ack(epoch, m)` to all members; a process never
//!   acks two conflicting messages in one epoch. Nothing is relayed while
//!   the origin is trusted (see *Uniformity* below).
//! * `m` is **fast-delivered** once `⌈(2n+1)/3⌉` acks of the current epoch
//!   arrive (and the payload is present).
//! * On a conflict, a process **escalates**: it freezes (stops acking) and
//!   atomically broadcasts `End(epoch, ackedSet, pendingSet)`. Every process
//!   that a-delivers an `End` for its epoch freezes and a-broadcasts its own
//!   `End`. The first `n − f_gb` `End`s *in a-delivery order* — identical at
//!   every process — close the epoch: their union `M` is delivered, first
//!   the messages supported by more than `T − 1` of the collected acked-sets
//!   (any message that may have been fast-delivered is among them), then the
//!   rest, both in id order; undelivered messages carry into the next epoch
//!   and are acked again there, explicitly.
//!
//! Each sender's messages are g-delivered in the order it broadcast them
//! (FIFO generic broadcast, paper footnote 9): a message whose turn comes
//! before an earlier one of its sender is held back until that one is
//! delivered. Closure order can otherwise overtake: it puts the
//! possibly-fast-delivered messages first.
//!
//! A failure-free, conflict-free g-broadcast therefore costs exactly `n − 1`
//! `gb/data` and `(n − 1)²` `gb/ack`. The `n(n − 1)` ack fan-out is inherent
//! to delivering in two steps: every process must see the quorum itself.
//!
//! With `f_gb = ⌈n/3⌉ − 1` and `T = ⌈(2n+1)/3⌉ + (n − f_gb) − n`, quorum
//! intersection gives: a fast-delivered message always clears `T` while any
//! message conflicting with it cannot — so closure order extends every
//! fast-delivery order. Safety of the fast path needs `f < n/3` (standard
//! for quorum-ack generic broadcast); the escalation path inherits
//! `f < n/2` from atomic broadcast. Correctness is exercised by the
//! property tests in `tests/generic_broadcast.rs`.
//!
//! ## Uniformity: who relays what, and when
//!
//! The fast path delivers on acks alone, so a message one process has
//! g-delivered must reach every correct member even if its origin crashed
//! half-way through its sends. The diffusion is nevertheless *lazy*, as in
//! atomic broadcast: a first copy is relayed only while the failure detector
//! (◇S-complete; this component hears the consensus-class suspicions)
//! suspects the message's origin, and when `Suspect(o)` arrives everything
//! of `o` this process holds for the current epoch is relayed — `pending`
//! **and** `acked`. Why that is enough:
//!
//! * *Who holds `m` when somebody fast-delivers it in epoch `e`:* a fast
//!   quorum of processes acked `m` in `e`, and an acker keeps `m` in its
//!   `acked` set until *it* closes `e` — also after it g-delivered `m`
//!   itself. More than `f` of them are ackers, so one is correct; if the
//!   origin is dead that acker eventually suspects it for good.
//! * *Why `pending ∪ acked`:* unlike atomic broadcast, where only decisions
//!   deliver and decisions carry full messages, a message this process has
//!   already g-delivered may be missing at a correct peer whose copy died
//!   with the origin. `acked` still has it (delivered or not); `pending` has
//!   what was never acked here (received while frozen, or carried over from
//!   an earlier epoch). Together they are everything held that a closure has
//!   not yet taken care of.
//! * *Why closed epochs need no relay:* if `m` was fast-delivered in `e`
//!   and `e` closes anywhere, quorum intersection puts `m` in the union of
//!   the closing `End`s, which atomic broadcast hands — payload included —
//!   to every correct member.
//! * *Why non-member origins relay eagerly:* the failure detector monitors
//!   members only, so nobody would ever suspect a broadcaster outside the
//!   view. Its first copies are relayed at once (the classic diffusion), and
//!   when a view change drops a member, what is still pending of it is
//!   relayed at that epoch boundary — no later suspicion could ask for it.
//! * *Why a growing view needs the origin once more:* a message is sent to
//!   the members its origin knew. If it is still pending at the origin when
//!   an epoch boundary applies a view with new members, the origin sends
//!   them a copy — else they could neither ack nor deliver it, and with one
//!   crash on top the old members alone may fall short of the quorum. (If
//!   the origin is dead instead, the holders' on-suspicion relay goes to
//!   *their* view, new members included.)
//!
//! A large group bounds the on-suspicion burst only (see
//! [`Rbcast::relay_targets`]).
//!
//! ## State layout
//!
//! Everything the core knows about one message **on its way to delivery** is
//! one `Record` in one id-ordered map: the message itself (once a copy has
//! arrived, which makes it *pending* — r-delivered, not yet g-delivered;
//! acks may come first), whether this process *acked* it this epoch, and
//! who else did (a [`PositionSet`] over the epoch's members). The map is a
//! [`gcs_kernel::IdMap`] — per sender a window of slots by sequence number
//! — and g-delivery removes the record, which trims the window: the map
//! holds the handful of messages under way, not the epoch's history, and a
//! message's way from first copy to delivery is a handful of indexed
//! lookups in its sender's window. Deliveries held back for FIFO order
//! wait in an `IdMap` of their own, empty whenever every sender's messages
//! come in order. What must outlast delivery — *that* this process acked
//! the message in this epoch — is a plain list, `acked`: a copy of the
//! message is appended when it is acked, and the list is read when an
//! `End` is built or a suspicion asks for a relay, and emptied when the
//! epoch closes. The algorithm's
//! `pending` set is the records that hold a message. Epoch closure keeps
//! those, unflagged and with no acks. Beside these two: per-class counters
//! of the known messages (what the conflict check reads), the
//! run-compressed `seen`/`gdelivered` id sets that outlive the epochs, the
//! early acks of epochs to come, and the `End`s collected for the closure.
//!
//! A closure orders what the collected `End`s report by **merging** them:
//! every reported message is gathered by reference, stably sorted by id
//! (the lists come off the wire — they are not trusted to be sorted or free
//! of duplicates), and one pass over the runs of equal ids yields each
//! message once with its support count. Only what then actually enters the
//! map — the few messages not yet g-delivered here and not held — is cloned.

use std::collections::BTreeMap;
use std::sync::Arc;

use gcs_kernel::{FxHashSet, IdMap, IdRuns, PositionSet, ProcessId};

use crate::rbcast::Rbcast;
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

/// What is known of one message on its way to g-delivery (see the module
/// docs, *State layout*).
#[derive(Debug, Default)]
struct Record {
    /// The message, once a copy has arrived: it is then *pending*
    /// (r-delivered, not yet g-delivered). Acks may come first.
    message: Option<Message>,
    /// Acked by this process in the current epoch (a copy of the message is
    /// then in `GenericCore::acked`).
    acked: bool,
    /// Members whose ack of the current epoch arrived (this process's own
    /// included), by position in `GenericCore::epoch_members`.
    acks: PositionSet,
}

impl Record {
    /// Pending, with a fast quorum of acks: deliverable (unless frozen).
    fn ready(&self, quorum: usize) -> bool {
        self.message.is_some() && self.acks.len() >= quorum
    }

    /// An epoch ends (or a snapshot starts one): a pending message goes on
    /// into the next as one nobody has acked yet; acks without a message
    /// are of no use any more. Returns whether to keep the record.
    fn carry_over(&mut self) -> bool {
        self.acked = false;
        self.acks = PositionSet::default();
        self.message.is_some()
    }
}

/// Index of `class` in `GenericCore::known`: its own slot, or the shared
/// last one for a class outside the relation.
fn slot(relation: &ConflictRelation, class: MessageClass) -> usize {
    (class.0 as usize).min(relation.classes())
}

fn data(message: &Message, origin_ack: Option<u64>) -> WireMsg {
    WireMsg::Gb(GbMsg::data(message.clone(), origin_ack))
}

/// Hands a g-delivered message to the application: payload-bearing bodies
/// only.
fn emit_delivery(message: &Message, kind: DeliveryKind, view: u64, out: &mut Vec<GbOut>) {
    if let Body::App(payload) = &message.body {
        out.push(GbOut::Deliver(Delivery {
            kind,
            id: message.id,
            class: message.class,
            payload: *payload,
            view,
        }));
    }
}

/// What the `End`s that close an epoch report, each message once, in the
/// order the closure delivers: first the messages acked in at least
/// `threshold` of the `End`s, then the rest, both in id order. Of several
/// reports of one id the first counts (`End`s in a-delivery order, a sender's
/// acked list before its pending list).
fn closure_order(ends: &[(ProcessId, Arc<GbEndData>)], threshold: usize) -> Vec<&Message> {
    let mut reports: Vec<(&Message, bool)> = Vec::new();
    for (_, end) in ends {
        reports.extend(end.acked.iter().map(|m| (m, true)));
        reports.extend(end.pending.iter().map(|m| (m, false)));
    }
    // Stable, so the first report of an id stays the first of its run. The
    // lists come off the wire: nothing is assumed of their order.
    reports.sort_by_key(|(m, _)| m.id);
    let (mut prioritized, mut rest) = (Vec::new(), Vec::new());
    for run in reports.chunk_by(|a, b| a.0.id == b.0.id) {
        let support = run.iter().filter(|(_, acked)| *acked).count();
        if support >= threshold {
            prioritized.push(run[0].0);
        } else {
            rest.push(run[0].0);
        }
    }
    prioritized.append(&mut rest);
    prioritized
}

/// [`closure_order`] as it was computed before: a map of the union and a
/// map of the support counts, every report inserted and cloned. Kept as the
/// reference the merge is tested against.
#[cfg(test)]
fn closure_order_by_maps(ends: &[(ProcessId, Arc<GbEndData>)], threshold: usize) -> Vec<Message> {
    let mut union: BTreeMap<MsgId, Message> = BTreeMap::new();
    let mut support: BTreeMap<MsgId, usize> = BTreeMap::new();
    for (_, end) in ends {
        for m in &end.acked {
            *support.entry(m.id).or_insert(0) += 1;
            union.entry(m.id).or_insert_with(|| m.clone());
        }
        for m in &end.pending {
            union.entry(m.id).or_insert_with(|| m.clone());
        }
    }
    let (first, second): (Vec<&Message>, Vec<&Message>) = union
        .values()
        .partition(|m| support.get(&m.id).copied().unwrap_or(0) >= threshold);
    first.into_iter().chain(second).cloned().collect()
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
    /// Processes the failure detector currently suspects: a message of such
    /// an origin is relayed.
    suspected: FxHashSet<ProcessId>,
    /// One record per message in flight: pending, or merely acked by others
    /// so far. G-delivery removes it, so this map stays as small as the
    /// number of messages under way however long the epoch has run (per
    /// sender, a window of slots that moves up with the stream).
    records: IdMap<Record>,
    /// Messages acked by this process in the current epoch, in ack order.
    /// Entries persist until the epoch closes **even after delivery**: the
    /// closure-ordering safety argument needs every collected `End` to still
    /// report the fast-delivered messages its sender acked, a process must
    /// never ack two conflicting messages within one epoch, delivered or not
    /// (they stay counted in `known`), and the on-suspicion relay serves
    /// delivered messages from here.
    acked: Vec<Message>,
    /// How many messages of each class are known this epoch (`pending ∪
    /// acked`), indexed by class; the last slot counts the classes outside
    /// the relation. The conflict check reads this, not the records, so it
    /// costs the size of the relation however long the epoch has run.
    known: Vec<u32>,
    /// Acks that arrived early: for a future epoch (the sender closed
    /// earlier), or before a snapshot activated this process.
    future_acks: BTreeMap<u64, Vec<(ProcessId, MsgId)>>,
    /// G-delivered ids (never delivered twice).
    gdelivered: IdRuns,
    /// Frozen: stop acking / fast-delivering until the epoch closes.
    frozen: bool,
    /// `End` bodies collected for the current epoch, in a-delivery order
    /// (shared payloads — collecting an `End` does not copy its sets).
    ends: Vec<(ProcessId, Arc<GbEndData>)>,
    /// A view waiting to be applied at the next epoch boundary.
    pending_view: Option<View>,
    /// The sequence number of each sender's next g-delivery (FIFO, see the
    /// module docs).
    next_fifo: BTreeMap<ProcessId, u64>,
    /// Deliveries held back until their sender's earlier messages are
    /// delivered; empty whenever every sender's messages come in order.
    holdback: IdMap<(Message, DeliveryKind)>,
}

impl GenericCore {
    /// Creates the core for `me` with the given conflict relation.
    /// `initial_view` is `None` for processes that join later.
    pub fn new(me: ProcessId, relation: ConflictRelation, initial_view: Option<View>) -> Self {
        let mut rb = Rbcast::new(me);
        let (members, view_id, active) = match initial_view {
            Some(v) => {
                rb.set_peers(&v.members);
                (v.members, v.id, true)
            }
            None => (Vec::new(), 0, false),
        };
        GenericCore {
            me,
            known: vec![0; relation.classes() + 1],
            relation,
            rb,
            epoch_members: members,
            view_id,
            active,
            epoch: 0,
            suspected: FxHashSet::default(),
            records: IdMap::default(),
            acked: Vec::new(),
            future_acks: BTreeMap::new(),
            gdelivered: IdRuns::default(),
            frozen: false,
            ends: Vec::new(),
            pending_view: None,
            next_fifo: BTreeMap::new(),
            holdback: IdMap::default(),
        }
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
        self.gdelivered.iter().map(MsgId::from).collect()
    }

    /// Runs held by the id sets the core never prunes — `seen` and
    /// `gdelivered` — i.e. what their memory is proportional to.
    #[cfg(test)]
    fn id_set_runs(&self) -> [usize; 2] {
        [self.rb.seen_runs(), self.gdelivered.run_count()]
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
        // Admitted here first: whether this process acks its own message is
        // what the data tells the others.
        let origin_ack = self
            .admit(message.clone(), false, out)
            .then_some(self.epoch);
        // Shallow per-peer clones: payloads are arena handles.
        for &to in self.rb.broadcast(&message) {
            out.push(GbOut::Wire(to, data(&message, origin_ack)));
        }
    }

    /// [`gbcast_into`](Self::gbcast_into) returning a fresh buffer.
    pub fn gbcast(&mut self, class: MessageClass, body: Body) -> Vec<GbOut> {
        let mut out = Vec::new();
        self.gbcast_into(class, body, &mut out);
        out
    }

    /// Handles a diffused message from the network. A first copy is
    /// admitted — and relayed only if nobody else can be counted on to: its
    /// origin is suspected right now, or is outside the view and so outside
    /// the failure detector's watch. The origin's ack counts whether or not
    /// the copy is a first one (a relayed copy may have come before it).
    pub fn on_data_into(
        &mut self,
        from: ProcessId,
        message: Message,
        origin_ack: Option<u64>,
        out: &mut Vec<GbOut>,
    ) {
        let id = message.id;
        let origin = id.sender;
        if self.rb.first_copy(id) {
            if self.suspected.contains(&origin) || !self.epoch_members.contains(&origin) {
                for &to in self.rb.relay_targets(origin, from) {
                    out.push(GbOut::Wire(to, data(&message, origin_ack)));
                }
            }
            self.admit(message, true, out);
        }
        if let Some(epoch) = origin_ack {
            self.on_ack_into(origin, epoch, id, out);
        }
    }

    /// [`on_data_into`](Self::on_data_into) returning a fresh buffer.
    pub fn on_data(
        &mut self,
        from: ProcessId,
        message: Message,
        origin_ack: Option<u64>,
    ) -> Vec<GbOut> {
        let mut out = Vec::new();
        self.on_data_into(from, message, origin_ack, &mut out);
        out
    }

    /// The failure detector suspects `origin`: it may have crashed part-way
    /// through a broadcast, so relay everything of it held for this epoch —
    /// undelivered or acked, g-delivered here or not (see the module docs).
    pub fn on_suspect_into(&mut self, origin: ProcessId, out: &mut Vec<GbOut>) {
        if origin == self.me {
            return;
        }
        self.suspected.insert(origin);
        if !self.active {
            return;
        }
        let targets = self.rb.relay_targets(origin, origin);
        let of_origin = self.records.sender_from(origin, 0);
        let undelivered = of_origin.filter_map(|(_, r)| r.message.as_ref());
        let mut delivered_here: Vec<&Message> = (self.acked.iter())
            .filter(|m| m.id.sender == origin && self.gdelivered.contains(m.id))
            .collect();
        delivered_here.sort_by_key(|m| m.id);
        for message in undelivered.chain(delivered_here) {
            for &to in targets {
                out.push(GbOut::Wire(to, data(message, None)));
            }
        }
    }

    /// The suspicion of `origin` was withdrawn: stop relaying its messages.
    pub fn on_restore(&mut self, origin: ProcessId) {
        self.suspected.remove(&origin);
    }

    /// First local receipt of a message: enter pending, maybe ack (`announce`
    /// says whether an ack is sent to the others or rides the caller's
    /// data). Returns whether this process acked it just now.
    fn admit(&mut self, message: Message, announce: bool, out: &mut Vec<GbOut>) -> bool {
        if self.gdelivered.contains(message.id) {
            return false;
        }
        let (id, class) = (message.id, message.class);
        let record = self.records.get_or_insert_with(id, Record::default);
        if record.message.replace(message).is_none() {
            self.known[slot(&self.relation, class)] += 1;
        }
        if !self.active || self.frozen {
            return false;
        }
        let acked = self.consider_ack(id, class, announce, out);
        self.try_fast_deliver(id, out);
        acked
    }

    /// Whether a message of `class` — itself among the known ones —
    /// conflicts with another message known this epoch (pending *or* acked,
    /// even already delivered).
    fn conflicts_with_known(&self, class: MessageClass) -> bool {
        let own = slot(&self.relation, class);
        self.known.iter().enumerate().any(|(other, &count)| {
            count > u32::from(other == own)
                && self.relation.conflicts(MessageClass(other as u16), class)
        })
    }

    /// The conflict check as a scan of every known message — what `known`
    /// replaces; kept as the reference the counters are tested against.
    #[cfg(test)]
    fn conflicts_by_scan(&self, id: MsgId, class: MessageClass) -> bool {
        let pending = self.records.values().filter_map(|r| r.message.as_ref());
        pending
            .chain(&self.acked)
            .any(|m| m.id != id && self.relation.conflicts(m.class, class))
    }

    /// Acks pending message `id` (of `class`) if it conflicts with nothing
    /// else known this epoch, escalates otherwise. Returns whether it acked.
    fn consider_ack(
        &mut self,
        id: MsgId,
        class: MessageClass,
        announce: bool,
        out: &mut Vec<GbOut>,
    ) -> bool {
        let conflicting = self.conflicts_with_known(class);
        #[cfg(test)]
        assert_eq!(conflicting, self.conflicts_by_scan(id, class), "{id:?}");
        if conflicting {
            self.escalate(out);
            return false;
        }
        let own = self.position(self.me);
        let Some(Record {
            message: Some(message),
            acked,
            acks,
        }) = self.records.get_mut(id)
        else {
            unreachable!("only a pending message is considered");
        };
        if std::mem::replace(acked, true) {
            return false;
        }
        self.acked.push(message.clone());
        // Count the local ack directly.
        if let Some(position) = own {
            acks.insert(position);
        }
        if announce {
            let epoch = self.epoch;
            for &p in self.epoch_members.iter().filter(|&&p| p != self.me) {
                out.push(GbOut::Wire(p, WireMsg::Gb(GbMsg::Ack { epoch, id })));
            }
        }
        true
    }

    /// Freezes and a-broadcasts this process's `End` for the current epoch.
    fn escalate(&mut self, out: &mut Vec<GbOut>) {
        if self.frozen || !self.active {
            return;
        }
        self.frozen = true;
        // Both lists in id order.
        let mut acked = self.acked.clone();
        acked.sort_by_key(|m| m.id);
        let unacked = self.records.values().filter(|r| !r.acked);
        out.push(GbOut::Escalate(Body::GbEnd(Arc::new(GbEndData {
            epoch: self.epoch,
            acked,
            pending: unacked.filter_map(|r| r.message.clone()).collect(),
        }))));
    }

    /// Where `p` sits in the epoch's member list — its bit in an
    /// [`PositionSet`]; only members' acks count.
    fn position(&self, p: ProcessId) -> Option<usize> {
        self.epoch_members.iter().position(|&m| m == p)
    }

    /// Handles an ack from `from` (sent on its own, or riding the data).
    pub fn on_ack_into(&mut self, from: ProcessId, epoch: u64, id: MsgId, out: &mut Vec<GbOut>) {
        if epoch > self.epoch || !self.active {
            self.future_acks.entry(epoch).or_default().push((from, id));
            return;
        }
        if epoch < self.epoch || self.gdelivered.contains(id) {
            return; // stale
        }
        let Some(position) = self.position(from) else {
            return;
        };
        let quorum = self.fast_quorum();
        let record = self.records.get_or_insert_with(id, Record::default);
        record.acks.insert(position);
        // One more ack is the only thing that changed: nothing else can have
        // become deliverable.
        if record.ready(quorum) && !self.frozen {
            self.gdeliver(id, DeliveryKind::GenericFast, out);
        }
    }

    /// [`on_ack_into`](Self::on_ack_into) returning a fresh buffer.
    pub fn on_ack(&mut self, from: ProcessId, epoch: u64, id: MsgId) -> Vec<GbOut> {
        let mut out = Vec::new();
        self.on_ack_into(from, epoch, id, &mut out);
        out
    }

    /// Takes over the early acks of the epoch just entered, dropping older
    /// ones.
    fn adopt_future_acks(&mut self) {
        self.future_acks = self.future_acks.split_off(&self.epoch);
        for (from, id) in self.future_acks.remove(&self.epoch).unwrap_or_default() {
            if self.gdelivered.contains(id) {
                continue;
            }
            if let Some(position) = self.position(from) {
                let record = self.records.get_or_insert_with(id, Record::default);
                record.acks.insert(position);
            }
        }
    }

    fn try_fast_deliver(&mut self, id: MsgId, out: &mut Vec<GbOut>) {
        if self.frozen || !self.active {
            return;
        }
        let quorum = self.fast_quorum();
        if self.records.get(id).is_some_and(|r| r.ready(quorum)) {
            self.gdeliver(id, DeliveryKind::GenericFast, out);
        }
    }

    /// G-delivers message `id`, which the caller has seen to be pending: its
    /// record goes (if this process acked it, the copy in `acked` stays
    /// until the epoch closes).
    fn gdeliver(&mut self, id: MsgId, kind: DeliveryKind, out: &mut Vec<GbOut>) {
        let Some(Record {
            message: Some(message),
            acked,
            ..
        }) = self.records.remove(id)
        else {
            return;
        };
        // Whatever is pending at an active, unfrozen process was acked when
        // it got there (on admission, or when the epoch was entered), so a
        // fast-delivered message stays acked — and among the known.
        debug_assert!(acked || kind != DeliveryKind::GenericFast);
        self.gdelivered.insert(id);
        let next = self.next_fifo.entry(id.sender).or_insert(0);
        if id.seq != *next {
            // An earlier message of the sender is still under way.
            self.holdback.insert(id, (message, kind));
            return;
        }
        *next += 1;
        emit_delivery(&message, kind, self.view_id, out);
        // The in-order case touches the hold-back map only when it holds
        // something.
        if self.holdback.is_empty() {
            return;
        }
        while let Some((m, k)) = self.holdback.remove((id.sender, *next)) {
            *next += 1;
            emit_delivery(&m, k, self.view_id, out);
        }
    }

    /// Handles an a-delivered `End` control message (total order guarantees
    /// every member processes the same `End` sequence).
    pub fn on_end_delivered_into(
        &mut self,
        end_sender: ProcessId,
        end: Arc<GbEndData>,
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
    pub fn on_end_delivered(&mut self, end_sender: ProcessId, end: Arc<GbEndData>) -> Vec<GbOut> {
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
    /// history. What reached it before — messages, acks — is treated as on
    /// entering any epoch: the acks count, the messages are acked.
    pub fn install_snapshot_into(
        &mut self,
        view: &View,
        epoch: u64,
        gdelivered: &[MsgId],
        out: &mut Vec<GbOut>,
    ) {
        self.epoch_members = view.members.clone();
        self.view_id = view.id;
        self.rb.set_peers(&view.members);
        self.active = true;
        self.epoch = epoch;
        self.gdelivered = gdelivered.iter().copied().collect();
        // A fresh member has acked and collected nothing (a process that
        // was a member before must not bring leftovers of that time).
        let delivered = &self.gdelivered;
        self.records
            .retain(|id, r| r.carry_over() && !delivered.contains(id));
        self.acked.clear();
        self.ends.clear();
        self.pending_view = None;
        self.frozen = false;
        // FIFO delivery makes each sender's delivered set prefix-closed, so
        // the cursor resumes one past the highest delivered sequence.
        for id in gdelivered {
            let next = self.next_fifo.entry(id.sender).or_insert(0);
            *next = (*next).max(id.seq + 1);
        }
        self.enter_epoch(out);
    }

    /// [`install_snapshot_into`](Self::install_snapshot_into) returning a
    /// fresh buffer.
    pub fn install_snapshot(
        &mut self,
        view: &View,
        epoch: u64,
        gdelivered: &[MsgId],
    ) -> Vec<GbOut> {
        let mut out = Vec::new();
        self.install_snapshot_into(view, epoch, gdelivered, &mut out);
        out
    }

    /// Start of an epoch (every record is a pending message, nothing is
    /// acked): count what is known, take over the acks that raced ahead, and
    /// process the messages already here in id order — ack, or escalate at
    /// once.
    fn enter_epoch(&mut self, out: &mut Vec<GbOut>) {
        let pending = self.records.values().filter_map(|r| r.message.as_ref());
        let carried: Vec<(MsgId, MessageClass)> = pending.map(|m| (m.id, m.class)).collect();
        self.known.fill(0);
        for &(_, class) in &carried {
            self.known[slot(&self.relation, class)] += 1;
        }
        self.adopt_future_acks();
        for (id, class) in carried {
            if self.frozen {
                break;
            }
            if self.records.get(id).is_some_and(|r| r.message.is_some()) {
                self.consider_ack(id, class, true, out);
                self.try_fast_deliver(id, out);
            }
        }
    }

    /// Epoch closure: deliver the union of the collected `End`s —
    /// prioritized (possibly-fast-delivered) messages first — and start the
    /// next epoch.
    fn close_epoch(&mut self, out: &mut Vec<GbOut>) {
        let ends = std::mem::take(&mut self.ends);
        for m in closure_order(&ends, self.priority_threshold()) {
            let id = m.id;
            if self.gdelivered.contains(id) {
                continue;
            }
            let record = self.records.get_or_insert_with(id, Record::default);
            record.message.get_or_insert_with(|| m.clone());
            self.gdeliver(id, DeliveryKind::GenericOrdered, out);
        }

        // Start the next epoch.
        self.epoch += 1;
        self.records.retain(|_, r| r.carry_over());
        self.acked.clear();
        self.frozen = false;
        if let Some(v) = self.pending_view.take() {
            let joined: Vec<ProcessId> = v
                .members
                .iter()
                .copied()
                .filter(|p| !self.epoch_members.contains(p))
                .collect();
            self.epoch_members = v.members;
            self.view_id = v.id;
            self.rb.set_peers(&self.epoch_members);
            for record in self.records.values() {
                let message = record.message.as_ref().expect("carried over");
                let sender = message.id.sender;
                if sender == self.me {
                    // Our own diffusion went to the members of the old
                    // view: the ones this view adds are owed a copy.
                    for &to in &joined {
                        out.push(GbOut::Wire(to, data(message, None)));
                    }
                } else if !self.epoch_members.contains(&sender) {
                    // A member the view dropped is no longer monitored: no
                    // suspicion will ever ask for what is still held of it,
                    // so it goes out now.
                    for &to in self.rb.relay_targets(sender, sender) {
                        out.push(GbOut::Wire(to, data(message, None)));
                    }
                }
            }
        }
        self.enter_epoch(out);
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

    fn empty_end(epoch: u64) -> Arc<GbEndData> {
        Arc::new(GbEndData {
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
        let out = c.on_data(pid(1), app(1, 0, 0), None);
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
        c.on_data(pid(1), m.clone(), None);
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

    /// Bounded memory of the sets that outlive the epochs: one long
    /// conflict-free epoch of three senders' streams, every message
    /// fast-delivered, leaves one run per sender in `seen` and `gdelivered`.
    /// (6,000 messages, not the 200,000 of the abcast twin: under
    /// `cfg(test)` every admission also pays the reference conflict scan of
    /// the whole epoch.)
    #[test]
    fn id_sets_stay_one_run_per_sender_over_a_long_epoch() {
        let mut c = core(0, 4, ConflictRelation::none(4));
        let mut out = Vec::new();
        for seq in 0..2_000 {
            for sender in 1..4 {
                let m = app(sender, seq, 0);
                // Own ack + the origin's riding its data + one more: n=4's
                // fast quorum.
                c.on_data_into(pid(sender), m.clone(), Some(0), &mut out);
                c.on_ack_into(pid(sender % 3 + 1), 0, m.id, &mut out);
            }
        }
        let delivered = out
            .iter()
            .filter(|o| matches!(o, GbOut::Deliver(d) if d.kind == DeliveryKind::GenericFast))
            .count();
        assert_eq!(delivered, 6_000);
        assert_eq!(c.epoch(), 0);
        assert_eq!(c.id_set_runs(), [3, 3]);
    }

    #[test]
    fn conflicting_messages_escalate() {
        let mut c = core(0, 4, ConflictRelation::all(4));
        c.on_data(pid(1), app(1, 0, 0), None);
        let out = c.on_data(pid(2), app(2, 0, 1), None);
        assert!(out
            .iter()
            .any(|o| matches!(o, GbOut::Escalate(Body::GbEnd { .. }))));
        assert!(c.is_frozen());
        // Frozen: no acks for new arrivals.
        let out = c.on_data(pid(3), app(3, 0, 2), None);
        assert!(out
            .iter()
            .all(|o| !matches!(o, GbOut::Wire(_, WireMsg::Gb(GbMsg::Ack { .. })))));
    }

    #[test]
    fn epoch_closure_delivers_union_and_thaws() {
        let mut c = core(0, 3, ConflictRelation::all(4));
        let m1 = app(1, 0, 0);
        let m2 = app(2, 0, 1);
        c.on_data(pid(1), m1.clone(), None);
        let _ = c.on_data(pid(2), m2.clone(), None); // escalates (conflict)
        assert!(c.is_frozen());
        // n=3 → end quorum 3: three Ends close the epoch.
        let mk_end = |_sender: u32| {
            Arc::new(GbEndData {
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
        c.on_data(pid(1), m.clone(), None);
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
        let mut c = core(0, 4, ConflictRelation::none(4));
        let m0 = app(1, 0, 0);
        let m1 = app(1, 1, 0);
        c.on_data(pid(1), m0.clone(), None);
        c.on_data(pid(1), m1.clone(), None);
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
        let mut c = GenericCore::new(pid(3), ConflictRelation::none(4), None);
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
        let _ = c.install_snapshot(&v, 4, &delivered);
        // The next message from p1 (seq 3) is deliverable immediately.
        let m3 = app(1, 3, 0);
        let mut out = c.on_data(pid(1), m3.clone(), None);
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
        c.on_data(pid(9), m.clone(), None);
        let out = c.on_ack(pid(1), 0, m.id);
        // n=3 → quorum 3; self + p1 = 2, one more needed.
        assert!(out.iter().all(|o| !matches!(o, GbOut::Deliver(_))));
        let out = c.on_ack(pid(2), 0, m.id);
        assert!(out.iter().any(|o| matches!(o, GbOut::Deliver(_))));
    }

    /// `(to, id, origin_ack)` of every `gb/data` in `out`.
    fn data_wires(out: &[GbOut]) -> Vec<(ProcessId, MsgId, Option<u64>)> {
        out.iter()
            .filter_map(|o| match o {
                GbOut::Wire(
                    to,
                    WireMsg::Gb(GbMsg::Data {
                        sender,
                        seq,
                        origin_ack,
                        ..
                    }),
                ) => {
                    let id = MsgId {
                        sender: *sender,
                        seq: *seq,
                    };
                    Some((*to, id, origin_ack.get()))
                }
                _ => None,
            })
            .collect()
    }

    fn ack_wires(out: &[GbOut]) -> usize {
        out.iter()
            .filter(|o| matches!(o, GbOut::Wire(_, WireMsg::Gb(GbMsg::Ack { .. }))))
            .count()
    }

    fn delivered(out: &[GbOut]) -> Vec<MsgId> {
        out.iter()
            .filter_map(|o| match o {
                GbOut::Deliver(d) => Some(d.id),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn origin_ack_rides_the_data_and_no_separate_ack_is_sent() {
        let mut c = core(0, 5, ConflictRelation::none(4));
        let out = c.gbcast(MessageClass(0), Body::App(PayloadRef::EMPTY));
        let id = MsgId {
            sender: pid(0),
            seq: 0,
        };
        assert_eq!(
            data_wires(&out),
            (1..5).map(|p| (pid(p), id, Some(0))).collect::<Vec<_>>(),
            "n-1 gb/data, each stamped with the origin's ack epoch"
        );
        assert_eq!(ack_wires(&out), 0, "the origin's ack is on its data");
        // The receiver counts the stamp as the origin's ack: n=4 → quorum 3
        // = the origin (stamp) + itself + one more.
        let mut r = core(1, 4, ConflictRelation::none(4));
        let m = app(0, 0, 0);
        let out = r.on_data(pid(0), m.clone(), Some(0));
        assert_eq!(ack_wires(&out), 3, "the receiver's own ack, to everyone");
        assert!(delivered(&out).is_empty());
        assert_eq!(delivered(&r.on_ack(pid(2), 0, m.id)), vec![m.id]);
    }

    #[test]
    fn an_origin_that_is_frozen_stamps_no_ack() {
        let mut c = core(0, 4, ConflictRelation::all(4));
        c.on_data(pid(1), app(1, 0, 0), None);
        // A conflict: the origin escalates on its own message, acks nothing.
        let out = c.gbcast(MessageClass(1), Body::App(PayloadRef::EMPTY));
        assert!(c.is_frozen());
        assert!(data_wires(&out).iter().all(|&(_, _, ack)| ack.is_none()));
        // Frozen already: the next one is not even considered.
        let out = c.gbcast(MessageClass(2), Body::App(PayloadRef::EMPTY));
        assert_eq!(data_wires(&out).len(), 3);
        assert!(data_wires(&out).iter().all(|&(_, _, ack)| ack.is_none()));
        assert_eq!(ack_wires(&out), 0);
    }

    #[test]
    fn a_duplicate_data_copy_still_delivers_the_origins_ack() {
        // n=4 → quorum 3. A relayed copy (no stamp) comes first, then p2's
        // ack; the origin's own copy is a duplicate, and its stamp is the
        // third ack.
        let mut c = core(0, 4, ConflictRelation::none(4));
        let m = app(1, 0, 0);
        c.on_data(pid(3), m.clone(), None);
        assert!(c.on_ack(pid(2), 0, m.id).is_empty());
        let out = c.on_data(pid(1), m.clone(), Some(0));
        assert_eq!(delivered(&out), vec![m.id]);
        assert!(data_wires(&out).is_empty() && ack_wires(&out) == 0);
    }

    #[test]
    fn acks_count_once_per_member_and_only_for_members() {
        let mut c = core(0, 4, ConflictRelation::none(4));
        let m = app(1, 0, 0);
        c.on_data(pid(1), m.clone(), Some(0));
        // Quorum 3: self + p1 so far. Repeats and strangers do not add up.
        assert!(c.on_ack(pid(1), 0, m.id).is_empty());
        assert!(c.on_ack(pid(9), 0, m.id).is_empty());
        assert_eq!(delivered(&c.on_ack(pid(3), 0, m.id)), vec![m.id]);
    }

    #[test]
    fn first_copy_is_not_relayed_while_its_origin_is_trusted() {
        let mut c = core(2, 4, ConflictRelation::none(4));
        let out = c.on_data(pid(1), app(1, 0, 0), Some(0));
        assert!(
            data_wires(&out).is_empty(),
            "failure-free: n-1 gb/data, no relay"
        );
    }

    #[test]
    fn suspicion_relays_that_origins_messages_from_pending_and_acked_only() {
        // n=4 → quorum 3. `a` is acked and fast-delivered here, `b` is acked
        // and still pending, `c` arrived while frozen and was never acked.
        let mut relation = ConflictRelation::none(4);
        relation.set_conflict(MessageClass(1), MessageClass(1));
        let mut core = core(2, 4, relation);
        let (a, b, c) = (app(1, 0, 0), app(1, 1, 0), app(1, 2, 0));
        let other = app(3, 0, 1);
        core.on_data(pid(1), a.clone(), Some(0));
        assert_eq!(delivered(&core.on_ack(pid(0), 0, a.id)), vec![a.id]);
        core.on_data(pid(1), b.clone(), Some(0));
        core.on_data(pid(3), other.clone(), Some(0));
        // A second class-1 message conflicts: frozen from here on.
        core.on_data(pid(0), app(0, 0, 1), Some(0));
        assert!(core.is_frozen());
        core.on_data(pid(1), c.clone(), None);
        let mut out = Vec::new();
        core.on_suspect_into(pid(1), &mut out);
        let mut relayed = data_wires(&out);
        relayed.sort();
        let expected: Vec<_> = [pid(0), pid(3)]
            .into_iter()
            .flat_map(|to| [a.id, b.id, c.id].map(|id| (to, id, None)))
            .collect();
        assert_eq!(
            relayed, expected,
            "p1's three — delivered, acked, unacked — to everyone but p1 and \
             self; nothing of p0 or p3"
        );
    }

    #[test]
    fn messages_of_a_closed_epoch_are_not_relayed() {
        let mut c = core(2, 3, ConflictRelation::all(4));
        let m = app(1, 0, 0);
        c.on_data(pid(1), m.clone(), Some(0));
        let end = Arc::new(GbEndData {
            epoch: 0,
            acked: vec![m.clone()],
            pending: vec![],
        });
        for p in 0..3 {
            let _ = c.on_end_delivered(pid(p), end.clone());
        }
        assert_eq!(c.epoch(), 1, "the closure delivered m everywhere");
        let mut out = Vec::new();
        c.on_suspect_into(pid(1), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn data_of_a_suspected_origin_is_relayed_on_receipt_until_restored() {
        let mut c = core(2, 4, ConflictRelation::none(4));
        let mut out = Vec::new();
        c.on_suspect_into(pid(1), &mut out);
        assert!(out.is_empty(), "nothing of p1 held yet");
        let out = c.on_data(pid(0), app(1, 0, 0), Some(0));
        assert_eq!(
            data_wires(&out),
            vec![(pid(3), app(1, 0, 0).id, Some(0))],
            "not back to the relayer p0, not to the origin; stamp passed on"
        );
        c.on_restore(pid(1));
        let out = c.on_data(pid(1), app(1, 1, 0), Some(0));
        assert!(data_wires(&out).is_empty(), "restore stops further relays");
    }

    #[test]
    fn first_copy_from_a_non_member_origin_is_relayed_at_once() {
        // Nobody monitors p9, so nobody would ever suspect it.
        let mut c = core(2, 4, ConflictRelation::none(4));
        let m = app(9, 0, 0);
        let out = c.on_data(pid(9), m.clone(), None);
        let to: Vec<ProcessId> = data_wires(&out).into_iter().map(|(to, ..)| to).collect();
        assert_eq!(to, vec![pid(0), pid(1), pid(3)]);
        assert!(data_wires(&c.on_data(pid(0), m, None)).is_empty(), "once");
    }

    #[test]
    fn pending_of_a_member_the_view_drops_is_relayed_at_the_epoch_boundary() {
        // p3's message arrives while this process is frozen by the view
        // change that removes p3: it is not acked, not in this process's
        // `End`, and after the change nobody monitors p3 any more.
        let mut c = core(0, 4, ConflictRelation::none(4));
        let v1 = View {
            id: 1,
            members: vec![pid(0), pid(1), pid(2)],
        };
        let _ = c.on_view_change(v1);
        let m = app(3, 0, 0);
        assert!(data_wires(&c.on_data(pid(3), m.clone(), Some(0))).is_empty());
        let mut out = Vec::new();
        for p in 0..3 {
            out.extend(c.on_end_delivered(pid(p), empty_end(0)));
        }
        assert_eq!(c.epoch(), 1);
        assert_eq!(
            data_wires(&out),
            vec![(pid(1), m.id, None), (pid(2), m.id, None)]
        );
    }

    #[test]
    fn own_pending_messages_are_sent_to_the_members_a_view_adds() {
        // Frozen by the join, p0 g-broadcasts to the three members it knows.
        // The message outlives the epoch: the joiner p4 is owed a copy.
        let mut c = core(0, 4, ConflictRelation::none(4));
        let _ = c.on_view_change(View {
            id: 1,
            members: members(5),
        });
        let out = c.gbcast(MessageClass(0), Body::App(PayloadRef::EMPTY));
        assert_eq!(data_wires(&out).len(), 3);
        let theirs = app(2, 0, 0);
        c.on_data(pid(2), theirs, None);
        let mut out = Vec::new();
        for p in 0..3 {
            out.extend(c.on_end_delivered(pid(p), empty_end(0)));
        }
        let mine = MsgId {
            sender: pid(0),
            seq: 0,
        };
        assert_eq!(
            data_wires(&out),
            vec![(pid(4), mine, None)],
            "ours only: p2 tops up its own"
        );
        assert_eq!(ack_wires(&out), 2 * 4, "both re-acked, to all five");
    }

    #[test]
    fn bounded_fanout_bounds_the_on_suspicion_burst() {
        let mut c = GenericCore::new(
            pid(2),
            ConflictRelation::none(4),
            Some(View::initial(members(20))),
        );
        c.on_data(pid(6), app(6, 0, 0), Some(0));
        let mut out = Vec::new();
        c.on_suspect_into(pid(6), &mut out);
        let to: Vec<ProcessId> = data_wires(&out).into_iter().map(|(to, ..)| to).collect();
        assert_eq!(
            to,
            [3, 4, 5, 7].map(pid),
            "five ring successors at n = 20, minus the origin"
        );
    }

    #[test]
    fn acks_that_arrive_before_the_snapshot_count_after_it() {
        let mut c = GenericCore::new(pid(3), ConflictRelation::all(4), None);
        let m = app(1, 0, 0);
        // Data (stamped) and an ack of epoch 2 reach the joiner early.
        assert!(c.on_data(pid(1), m.clone(), Some(2)).is_empty());
        assert!(c.on_ack(pid(0), 2, m.id).is_empty());
        let v = View {
            id: 1,
            members: members(4),
        };
        // Activated, the joiner acks what it holds like a message carried
        // into an epoch: quorum 3 = p1 (stamp) + p0 + itself.
        let out = c.install_snapshot(&v, 2, &[]);
        assert_eq!(ack_wires(&out), 3);
        assert_eq!(delivered(&out), vec![m.id]);
        // Acked here, `m` stays known this epoch, delivered or not.
        let out = c.on_data(pid(2), app(2, 0, 0), None);
        assert!(c.is_frozen() && ack_wires(&out) == 0);
    }

    mod counter_equivalence {
        use super::*;
        use proptest::prelude::*;

        /// What an `End` may report, as `(sender, seq, class)`: few ids, so
        /// that they recur within a list and across `End`s — under differing
        /// classes, so that *which* report of an id is kept shows.
        fn reports() -> impl Strategy<Value = Vec<(u32, u64, u16)>> {
            proptest::collection::vec((0u32..3, 0u64..4, 0u16..3), 0..8)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Unsorted, duplicated, overlapping and disjoint `acked` and
            /// `pending` lists in up to six `End`s, and every threshold from
            /// "everything is prioritized" to "nothing can be": the merge
            /// picks the same messages in the same order as the two maps.
            #[test]
            fn closure_by_merge_equals_the_map_union(
                lists in proptest::collection::vec((reports(), reports()), 0..7),
                threshold in 0usize..8,
            ) {
                let messages = |list: Vec<(u32, u64, u16)>| -> Vec<Message> {
                    list.into_iter().map(|(sender, seq, class)| app(sender, seq, class)).collect()
                };
                let ends: Vec<(ProcessId, Arc<GbEndData>)> = lists
                    .into_iter()
                    .enumerate()
                    .map(|(i, (acked, pending))| {
                        let end = GbEndData {
                            epoch: 0,
                            acked: messages(acked),
                            pending: messages(pending),
                        };
                        (pid(i as u32), Arc::new(end))
                    })
                    .collect();
                let merged: Vec<Message> =
                    closure_order(&ends, threshold).into_iter().cloned().collect();
                prop_assert_eq!(merged, closure_order_by_maps(&ends, threshold));
            }

            /// One core driven through random admissions, acks (and with
            /// them fast deliveries), own broadcasts, `End`s, view changes
            /// and snapshots over a random relation, classes outside it
            /// included: after every step the per-class counters equal a
            /// recount of `pending ∪ acked`, and every ack-or-escalate
            /// verdict equals the scan's (`consider_ack` asserts that
            /// itself under `cfg(test)`).
            #[test]
            fn counters_match_the_scan(
                pairs in proptest::collection::vec((0u16..3, 0u16..3), 0..5),
                joiner in any::<bool>(),
                ops in proptest::collection::vec((0u8..8, 0u32..4, 0u64..4, 0u16..5), 1..120),
            ) {
                let mut relation = ConflictRelation::none(3);
                for (a, b) in pairs {
                    relation.set_conflict(MessageClass(a), MessageClass(b));
                }
                let view = View::initial(members(4));
                let mut c = GenericCore::new(pid(0), relation, (!joiner).then(|| view.clone()));
                for (op, p, seq, class) in ops {
                    let id = MsgId { sender: pid(p), seq };
                    match op {
                        0..=2 if p != 0 => {
                            let stamp = (op != 2).then_some(c.epoch());
                            let _ = c.on_data(pid(p), app(p, seq, class), stamp);
                        }
                        0..=2 => {
                            let _ = c.gbcast(MessageClass(class), Body::App(PayloadRef::EMPTY));
                        }
                        3 | 4 => {
                            // `class` picks the acker here; one ack in five
                            // is for the next epoch.
                            let epoch = c.epoch() + u64::from(class == 4);
                            let _ = c.on_ack(pid(u32::from(class) % 4), epoch, id);
                        }
                        5 => {
                            // An `End` of the current epoch reporting some of
                            // what this process knows, and one it may not.
                            let pending = c.records.values().filter_map(|r| r.message.clone());
                            let known: Vec<Message> =
                                pending.chain(c.acked.iter().cloned()).collect();
                            let end = GbEndData {
                                epoch: c.epoch(),
                                acked: known.iter().skip(seq as usize % 3).cloned().collect(),
                                pending: vec![app(p, 40 + seq, class)],
                            };
                            let _ = c.on_end_delivered(pid(p), Arc::new(end));
                        }
                        6 => {
                            let next = View { id: c.view_id + 1, members: members(3 + p % 2) };
                            let _ = c.on_view_change(next);
                        }
                        _ if !c.active => {
                            let pending = c.records.iter().filter(|(_, r)| r.message.is_some());
                            let done: Vec<MsgId> =
                                pending.map(|(id, _)| MsgId::from(id)).filter(|id| id.seq < seq / 2).collect();
                            let _ = c.install_snapshot(&view, seq % 2, &done);
                        }
                        _ => {}
                    }
                    let mut recount = vec![0u32; c.known.len()];
                    let unacked = c.records.values().filter(|r| !r.acked);
                    for m in unacked.filter_map(|r| r.message.as_ref()).chain(&c.acked) {
                        recount[slot(&c.relation, m.class)] += 1;
                    }
                    prop_assert_eq!(&c.known, &recount, "after op {:?}", (op, p, seq, class));
                }
            }
        }
    }
}

//! Shared vocabulary of the AB-GB architecture: message identities, views,
//! conflict relations, and the event/wire catalogs of Fig 9.

use bytes::Bytes;
use gcs_consensus::{CtMsg, InstanceId};
pub use gcs_kernel::{DeliveryKind, MessageClass, View};
use gcs_kernel::{Event, PayloadRef, ProcessId, Time};
use gcs_net::Packet;
use std::fmt;
use std::sync::Arc;

/// Globally unique message identity: `(sender, per-sender sequence)`.
///
/// The total order on `MsgId` (sender first, then sequence) is used as the
/// deterministic tie-break whenever a batch of messages must be delivered in
/// an agreed order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId {
    /// Originating process.
    pub sender: ProcessId,
    /// Sequence number local to the sender's broadcast module.
    pub seq: u64,
}

impl fmt::Debug for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.sender, self.seq)
    }
}

impl From<MsgId> for (ProcessId, u64) {
    /// The key under which [`gcs_kernel::IdRuns`] holds the id.
    fn from(id: MsgId) -> Self {
        (id.sender, id.seq)
    }
}

impl From<(ProcessId, u64)> for MsgId {
    fn from((sender, seq): (ProcessId, u64)) -> Self {
        MsgId { sender, seq }
    }
}

/// A symmetric conflict relation over [`MessageClass`]es (paper §3.2.1).
///
/// `conflicts(a, b)` must equal `conflicts(b, a)`; the constructors enforce
/// symmetry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConflictRelation {
    /// `pairs[a][b]` for registered classes; indexed by class id.
    size: usize,
    matrix: Vec<bool>,
}

impl ConflictRelation {
    /// A relation over classes `0..size` where nothing conflicts.
    pub fn none(size: u16) -> Self {
        let size = size as usize;
        ConflictRelation {
            size,
            matrix: vec![false; size * size],
        }
    }

    /// A relation over classes `0..size` where everything conflicts
    /// (generic broadcast degenerates to atomic broadcast).
    pub fn all(size: u16) -> Self {
        let size = size as usize;
        ConflictRelation {
            size,
            matrix: vec![true; size * size],
        }
    }

    /// The paper's §3.3 relation between [`MessageClass::RBCAST`] and
    /// [`MessageClass::ABCAST`]: rbcast–rbcast does not conflict, all other
    /// pairs do.
    pub fn rbcast_abcast() -> Self {
        let mut r = Self::none(2);
        r.set_conflict(MessageClass::ABCAST, MessageClass::ABCAST);
        r.set_conflict(MessageClass::RBCAST, MessageClass::ABCAST);
        r
    }

    /// Marks `a` and `b` (and symmetrically `b` and `a`) as conflicting.
    ///
    /// # Panics
    ///
    /// Panics if either class is out of range.
    pub fn set_conflict(&mut self, a: MessageClass, b: MessageClass) {
        let (a, b) = (a.0 as usize, b.0 as usize);
        assert!(a < self.size && b < self.size, "class out of range");
        self.matrix[a * self.size + b] = true;
        self.matrix[b * self.size + a] = true;
    }

    /// Number of registered classes (`0..classes()`).
    pub fn classes(&self) -> usize {
        self.size
    }

    /// Whether messages of classes `a` and `b` must be mutually ordered.
    ///
    /// Classes outside the registered range conservatively conflict.
    pub fn conflicts(&self, a: MessageClass, b: MessageClass) -> bool {
        let (a, b) = (a.0 as usize, b.0 as usize);
        if a >= self.size || b >= self.size {
            return true;
        }
        self.matrix[a * self.size + b]
    }
}

/// The body of a broadcast message.
///
/// Application payloads are **arena handles** ([`PayloadRef`]), not owned
/// byte containers: the bytes live once in the simulation's
/// [`SharedArena`](gcs_kernel::SharedArena) and every layer the message
/// crosses (batch assembly, consensus proposal, decision fan-out, wire
/// packet, delivery) moves an 8-byte `Copy` handle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Body {
    /// Opaque application payload (interned in the simulation's arena).
    App(PayloadRef),
    /// Membership control: add `p` to the view.
    Join(ProcessId),
    /// Membership control: remove `p` from the view.
    Remove(ProcessId),
    /// Generic-broadcast epoch closure (internal; ordered through abcast).
    /// Carries full messages so closure deliveries never stall on missing
    /// payloads. The payload lives behind an `Arc`: epoch closures are
    /// diffused to every member, and the shared pointer keeps that fan-out
    /// from deep-copying the message sets per destination.
    GbEnd(Arc<GbEndData>),
}

/// The payload of a [`Body::GbEnd`] epoch-closure message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GbEndData {
    /// The epoch being closed.
    pub epoch: u64,
    /// Messages the sender had acked in this epoch.
    pub acked: Vec<Message>,
    /// Other undelivered messages the sender knew of.
    pub pending: Vec<Message>,
}

impl Body {
    /// Approximate wire size contribution.
    pub fn size_hint(&self) -> usize {
        match self {
            Body::App(b) => b.len(),
            Body::Join(_) | Body::Remove(_) => 8,
            Body::GbEnd(end) => {
                16 + end
                    .acked
                    .iter()
                    .chain(&end.pending)
                    .map(|m| 32 + m.body.size_hint())
                    .sum::<usize>()
            }
        }
    }
}

/// A full broadcast message (identity, class, body).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Unique identity.
    pub id: MsgId,
    /// Conflict class.
    pub class: MessageClass,
    /// Content.
    pub body: Body,
}

/// An application-visible delivery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Which primitive delivered the message.
    pub kind: DeliveryKind,
    /// Message identity.
    pub id: MsgId,
    /// Conflict class.
    pub class: MessageClass,
    /// Application payload handle; resolve it against the simulation's
    /// arena (e.g. [`GroupTransport::resolve`](gcs_sim::GroupTransport::resolve)).
    pub payload: PayloadRef,
    /// The view id current at delivery (same view delivery, §4.4).
    pub view: u64,
}

// ---------------------------------------------------------------------------
// Wire messages (what travels between processes)
// ---------------------------------------------------------------------------

/// Messages of the atomic-broadcast component (payload dissemination).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbMsg {
    /// Diffusion (reliable broadcast) of a message to be ordered.
    Data(Message),
}

/// The epoch of an ack that rides another message, or none — in eight
/// bytes: wire messages sit inside [`Ev`], which is moved on every dispatch,
/// and an `Option<u64>` would grow it by a word.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct AckEpoch(u64);

impl AckEpoch {
    /// No epoch is ever this large.
    const NONE: u64 = u64::MAX;

    /// The epoch, if there is an ack.
    pub fn get(self) -> Option<u64> {
        (self.0 != Self::NONE).then_some(self.0)
    }
}

impl From<Option<u64>> for AckEpoch {
    fn from(epoch: Option<u64>) -> Self {
        AckEpoch(epoch.unwrap_or(Self::NONE))
    }
}

impl fmt::Debug for AckEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

/// Messages of the generic-broadcast component.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GbMsg {
    /// Diffusion of a generic-broadcast message — a [`Message`] taken apart
    /// (built by [`GbMsg::data`], put together again by the generic
    /// component), so that the ack epoch lands in what would be its padding
    /// and [`Ev`] stays at 64 bytes.
    Data {
        /// The message's origin ([`MsgId::sender`]).
        sender: ProcessId,
        /// The message's sequence number ([`MsgId::seq`]).
        seq: u64,
        /// The message's class.
        class: MessageClass,
        /// The message's body.
        body: Body,
        /// The origin's own ack, riding its data: the epoch in which the
        /// origin acked the message when it broadcast it. None when it did
        /// not (it was frozen or inactive, or saw a conflict). A receiver
        /// counts it as an [`Ack`](GbMsg::Ack) from the origin.
        origin_ack: AckEpoch,
    },
    /// Conflict-free acknowledgement of `id` within `epoch`.
    Ack {
        /// Epoch the ack belongs to.
        epoch: u64,
        /// The acknowledged message.
        id: MsgId,
    },
}

impl GbMsg {
    /// The diffusion of `message`, with the origin's ack epoch if it acked.
    pub fn data(message: Message, origin_ack: Option<u64>) -> Self {
        GbMsg::Data {
            sender: message.id.sender,
            seq: message.id.seq,
            class: message.class,
            body: message.body,
            origin_ack: origin_ack.into(),
        }
    }
}

/// Messages of the membership component.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MbMsg {
    /// A non-member asks `sponsor` to propose it for membership.
    JoinRequest,
    /// State transfer to a joiner: everything needed to participate.
    Snapshot(Box<SnapshotData>),
}

/// State transferred to a joining process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotData {
    /// The view in which the joiner is first a member.
    pub view: View,
    /// The first consensus instance the joiner participates in.
    pub next_instance: InstanceId,
    /// Ids already atomically delivered (so the joiner does not redeliver).
    pub adelivered: Vec<MsgId>,
    /// Ids already generically delivered.
    pub gdelivered: Vec<MsgId>,
    /// Current generic-broadcast epoch.
    pub gb_epoch: u64,
    /// The round-0 coordinator the decision before `next_instance` named
    /// for it (`None`: the view's first member) — see [`Proposal::next`].
    pub designated: Option<ProcessId>,
    /// Opaque application state (for the replication layer), with its size
    /// modelling the paper's "costly state transfer" (§4.3).
    pub app_state: Bytes,
}

/// Messages of the monitoring component (suspicion gossip).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MonMsg {
    /// The sender's long-timeout failure detector suspects `peer`.
    Report {
        /// The suspected process.
        peer: ProcessId,
    },
}

/// Everything that travels on the reliable channel between two processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireMsg {
    /// Consensus traffic, tagged by instance.
    Ct {
        /// The consensus instance.
        instance: InstanceId,
        /// The Chandra-Toueg message.
        msg: CtMsg<Proposal>,
    },
    /// Atomic-broadcast traffic.
    Ab(AbMsg),
    /// Generic-broadcast traffic.
    Gb(GbMsg),
    /// Membership traffic.
    Mb(MbMsg),
    /// Monitoring traffic.
    Mon(MonMsg),
}

impl WireMsg {
    /// Metric label of this wire message.
    pub fn kind(&self) -> &'static str {
        match self {
            WireMsg::Ct { msg, .. } => msg.kind(),
            WireMsg::Ab(AbMsg::Data(_)) => "ab/data",
            WireMsg::Gb(GbMsg::Data { .. }) => "gb/data",
            WireMsg::Gb(GbMsg::Ack { .. }) => "gb/ack",
            WireMsg::Mb(MbMsg::JoinRequest) => "mb/join-request",
            WireMsg::Mb(MbMsg::Snapshot(_)) => "mb/snapshot",
            WireMsg::Mon(_) => "mon/report",
        }
    }

    /// Approximate wire size.
    pub fn size_hint(&self) -> usize {
        match self {
            WireMsg::Ct { msg, .. } => {
                24 + match msg {
                    CtMsg::Estimate { est, .. }
                    | CtMsg::Propose { est, .. }
                    | CtMsg::Decide { est } => est.size_hint(),
                    _ => 0,
                }
            }
            WireMsg::Ab(AbMsg::Data(m)) => 32 + m.body.size_hint(),
            // 8 more than `ab/data`: the origin's ack epoch.
            WireMsg::Gb(GbMsg::Data { body, .. }) => 40 + body.size_hint(),
            WireMsg::Gb(GbMsg::Ack { .. }) => 28,
            WireMsg::Mb(MbMsg::JoinRequest) => 16,
            WireMsg::Mb(MbMsg::Snapshot(s)) => {
                64 + 12 * (s.adelivered.len() + s.gdelivered.len())
                    + 4 * s.designated.iter().count()
                    + s.app_state.len()
            }
            WireMsg::Mon(_) => 20,
        }
    }
}

/// A consensus value: the batch of messages decided by one instance, sorted
/// by [`MsgId`].
///
/// Batches carry full messages (not just ids): the Chandra-Toueg reduction
/// is only live if a decided message's payload is available wherever the
/// decision is, even when the original sender crashed mid-diffusion.
///
/// Shared (`Arc`) because consensus broadcasts each estimate/proposal/
/// decision to every participant: with a shared slice the per-destination
/// clone is a reference-count bump instead of a deep copy of the batch.
pub type Batch = Arc<[Message]>;

/// What atomic broadcast proposes to — and consensus decides for — one
/// instance: the batch, and the round-0 coordinator this decision names for
/// the next instance (see the [`abcast`](crate::abcast) module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proposal {
    /// The messages the instance orders.
    pub batch: Batch,
    /// The proposer's ordering target, when it is not the view's first
    /// member, or the coordinator that claimed the batch in a round `≥ 1`;
    /// `None` names the view's first member, so that a failure-free run
    /// carries nothing extra.
    pub next: Option<ProcessId>,
}

impl gcs_consensus::Value for Proposal {
    /// A coordinator that gets a batch nobody had adopted through a round
    /// `≥ 1` — the round-0 coordinator failed or was suspected — names
    /// itself: it has just shown it can gather a majority.
    fn claimed_by(self, coordinator: ProcessId) -> Self {
        Proposal {
            next: Some(coordinator),
            ..self
        }
    }
}

impl Proposal {
    /// Approximate wire size: the batch, and the designation when there is
    /// one.
    pub fn size_hint(&self) -> usize {
        let batch: usize = self.batch.iter().map(|m| 32 + m.body.size_hint()).sum();
        batch + if self.next.is_some() { 4 } else { 0 }
    }
}

// ---------------------------------------------------------------------------
// The process-local event catalog (the arrows of Fig 9)
// ---------------------------------------------------------------------------

/// Every event routed inside a process of the new architecture or across
/// the network — the concrete catalog of Fig 9's interfaces.
#[derive(Clone, Debug)]
pub enum Ev {
    // -- network-level (ctx.send / on_message) --
    /// Reliable-channel packet (`send`/`receive` of Fig 9).
    Packet(Packet<WireMsg>),
    /// Failure-detector heartbeat on the *unreliable* transport
    /// (`u-send`/`u-receive`).
    Heartbeat,
    /// Gossip-mode failure-detector heartbeat: carries the sender's alive
    /// digest (last-heard times of the ring segment it is probing). Shared
    /// across the per-tick fan-out — cloning is a reference-count bump.
    FdGossip(Arc<[(ProcessId, Time)]>),

    // -- application operations (injected) --
    /// `abcast` (Fig 9): atomically broadcast an interned payload.
    Abcast(PayloadRef),
    /// `rbcast` through generic broadcast: class [`MessageClass::RBCAST`].
    Rbcast(PayloadRef),
    /// Generic broadcast with an application conflict class.
    Gbcast(MessageClass, PayloadRef),
    /// `join`: ask the membership to add this (non-member) process, via the
    /// given contact member.
    JoinVia(ProcessId),
    /// `remove`: ask the membership to remove a member.
    RemoveMember(ProcessId),

    // -- inter-component (emitted) --
    /// Any component → reliable channel: send `WireMsg` to a peer.
    RcSend(ProcessId, WireMsg),
    /// Reliable channel → protocol component: `WireMsg` from a peer.
    Net(ProcessId, WireMsg),
    /// Reliable channel → monitoring: output-triggered suspicion (§3.3.2).
    RcStuck(ProcessId, Time),
    /// Failure detector → consensus + atomic and generic broadcast
    /// (consensus class) or monitoring (monitoring class): `suspect` (Fig 9).
    Suspect(gcs_fd::MonitorClass, ProcessId),
    /// Failure detector → the same components: suspicion withdrawn.
    Restore(gcs_fd::MonitorClass, ProcessId),
    /// Atomic broadcast → consensus: `propose`/`run` for an instance.
    Propose {
        /// The consensus instance to run.
        instance: InstanceId,
        /// The proposal.
        value: Proposal,
        /// The instance's participants (shared: cached per view by the
        /// abcast core).
        participants: Arc<[ProcessId]>,
        /// The instance's round-0 coordinator, as an earlier decision named
        /// it.
        first: ProcessId,
        /// The proposer has evidence of being behind on the instance: pull
        /// its outcome instead of only waiting for it.
        catch_up: bool,
    },
    /// Consensus → atomic broadcast: `decide` for an instance.
    Decide(InstanceId, Proposal),
    /// Consensus → atomic broadcast: a message for an instance that is not
    /// open yet arrived and is parked — start it (with an empty proposal if
    /// need be) once the cursor reaches it.
    NeedInstance(InstanceId),
    /// Membership → everyone: a new view was installed (`new_view`).
    ViewChanged(View),
    /// Membership → reliable channel: discard state for an excluded peer.
    Forget(ProcessId),
    /// Atomic broadcast → membership/generic: an ordered control message.
    CtrlDelivered(Message),
    /// Generic broadcast → atomic broadcast: order a control body.
    AbcastCtrl(MessageClass, Body),
    /// Monitoring → membership: exclusion decision (`remove` in Fig 9).
    Exclude(ProcessId),
    /// Membership → abcast → generic: assemble a state-transfer snapshot
    /// for a joiner; each component fills its part.
    SnapFill {
        /// The joining process the snapshot is for.
        joiner: ProcessId,
        /// The snapshot being assembled.
        snap: Box<SnapshotData>,
    },
    /// Generic → membership: the snapshot is complete; send it.
    SnapReady {
        /// The joining process the snapshot is for.
        joiner: ProcessId,
        /// The assembled snapshot.
        snap: Box<SnapshotData>,
    },
    /// Membership (joiner side) → abcast/generic: adopt transferred state.
    InstallSnapshot(Box<SnapshotData>),

    // -- application outputs --
    /// A payload delivery (`adeliver`/`gdeliver`).
    Deliver(Delivery),
    /// A view installation visible to the application (`new_view` /
    /// `init_view`).
    ViewInstalled(View),
    /// This process was removed from the group.
    Excluded,
}

// The event enum is moved on every dispatch, routed send, and scheduler
// slot; it must stay within one cache line (ROADMAP lever from PR 1; one
// more word measured 2 % of `sim-steady` throughput). The fat-but-rare
// payloads (snapshots, GB epoch closures, consensus batches) are already
// behind `Box`/`Arc` indirections; the hot [`Ev::Packet`]`(Data)` variant is
// what pins the size, and boxing *it* would put an allocation on the
// per-message hot path.
const _: () = assert!(
    std::mem::size_of::<Ev>() <= 64,
    "Ev outgrew one cache line; box or pack the offending variant"
);

impl Event for Ev {
    fn kind(&self) -> &'static str {
        match self {
            Ev::Packet(Packet::Data { msg, .. }) => msg.kind(),
            Ev::Packet(Packet::Batch { fresh: false, .. }) => "rc/batch",
            Ev::Packet(Packet::Batch { fresh: true, .. }) => "rc/bundle",
            Ev::Packet(Packet::Ack { .. }) => "rc/ack",
            Ev::Heartbeat => "fd/heartbeat",
            Ev::FdGossip(_) => "fd/gossip",
            Ev::Abcast(_) => "op/abcast",
            Ev::Rbcast(_) => "op/rbcast",
            Ev::Gbcast(..) => "op/gbcast",
            Ev::JoinVia(_) => "op/join",
            Ev::RemoveMember(_) => "op/remove",
            Ev::RcSend(..) => "int/rc-send",
            Ev::Net(..) => "int/net",
            Ev::RcStuck(..) => "int/rc-stuck",
            Ev::Suspect(..) => "int/suspect",
            Ev::Restore(..) => "int/restore",
            Ev::Propose { .. } => "int/propose",
            Ev::Decide(..) => "int/decide",
            Ev::NeedInstance(_) => "int/need-instance",
            Ev::ViewChanged(_) => "int/view-changed",
            Ev::Forget(_) => "int/forget",
            Ev::CtrlDelivered(_) => "int/ctrl-delivered",
            Ev::AbcastCtrl(..) => "int/abcast-ctrl",
            Ev::Exclude(_) => "int/exclude",
            Ev::SnapFill { .. } => "int/snap-fill",
            Ev::SnapReady { .. } => "int/snap-ready",
            Ev::InstallSnapshot(_) => "int/snap-install",
            Ev::Deliver(_) => "out/deliver",
            Ev::ViewInstalled(_) => "out/view",
            Ev::Excluded => "out/excluded",
        }
    }

    fn wire_size(&self) -> usize {
        match self {
            // Data packets carry 8 extra bytes for the piggybacked ack.
            Ev::Packet(Packet::Data { msg, .. }) => 24 + msg.size_hint(),
            Ev::Packet(Packet::Batch { msgs, .. }) => {
                24 + msgs.iter().map(|(_, m)| 8 + m.size_hint()).sum::<usize>()
            }
            Ev::Packet(Packet::Ack { .. }) => 24,
            Ev::Heartbeat => 16,
            // Heartbeat header plus 12 bytes per digest entry (id + time).
            Ev::FdGossip(digest) => 16 + 12 * digest.len(),
            _ => 64,
        }
    }

    /// A bundle carries its messages each under its own kind, the packet
    /// header going with the first; a retransmission batch stays one
    /// `rc/batch`, the reliable channel's own cost.
    fn for_each_carried(&self, mut each: impl FnMut(&'static str, usize)) {
        match self {
            Ev::Packet(Packet::Batch {
                msgs, fresh: true, ..
            }) => {
                let mut header = 24;
                for (_, m) in msgs {
                    each(m.kind(), std::mem::take(&mut header) + 8 + m.size_hint());
                }
            }
            _ => each(self.kind(), self.wire_size()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_relation_is_symmetric() {
        let mut r = ConflictRelation::none(4);
        r.set_conflict(MessageClass(1), MessageClass(3));
        assert!(r.conflicts(MessageClass(1), MessageClass(3)));
        assert!(r.conflicts(MessageClass(3), MessageClass(1)));
        assert!(!r.conflicts(MessageClass(0), MessageClass(1)));
    }

    #[test]
    fn paper_relation_matches_section_3_3() {
        let r = ConflictRelation::rbcast_abcast();
        assert!(!r.conflicts(MessageClass::RBCAST, MessageClass::RBCAST));
        assert!(r.conflicts(MessageClass::RBCAST, MessageClass::ABCAST));
        assert!(r.conflicts(MessageClass::ABCAST, MessageClass::ABCAST));
    }

    #[test]
    fn a_bundle_reports_each_message_under_its_kind_and_a_batch_as_rc() {
        let ack = WireMsg::Gb(GbMsg::Ack {
            epoch: 0,
            id: MsgId {
                sender: ProcessId::new(1),
                seq: 3,
            },
        });
        let join = WireMsg::Mb(MbMsg::JoinRequest);
        let carried = |fresh| {
            let ev = Ev::Packet(Packet::Batch {
                ack: 0,
                msgs: vec![(0, ack.clone()), (1, join.clone())],
                fresh,
            });
            let mut got = Vec::new();
            ev.for_each_carried(|kind, bytes| got.push((kind, bytes)));
            assert_eq!(
                got.iter().map(|&(_, b)| b).sum::<usize>(),
                ev.wire_size(),
                "the bytes are the packet's"
            );
            got.into_iter().map(|(kind, _)| kind).collect::<Vec<_>>()
        };
        assert_eq!(carried(true), ["gb/ack", "mb/join-request"]);
        assert_eq!(carried(false), ["rc/batch"]);
    }

    #[test]
    fn out_of_range_classes_conservatively_conflict() {
        let r = ConflictRelation::none(2);
        assert!(r.conflicts(MessageClass(7), MessageClass(0)));
    }

    #[test]
    fn view_operations() {
        let p = |i| ProcessId::new(i);
        let v = View::initial(vec![p(0), p(1), p(2)]);
        assert_eq!(v.primary(), Some(p(0)));
        let j = v.with_join(p(3));
        assert_eq!(j.id, 1);
        assert_eq!(j.members.len(), 4);
        let r = j.with_remove(p(0));
        assert_eq!(r.primary(), Some(p(1)));
        let rot = v.with_rotation(p(0));
        assert_eq!(rot.members, vec![p(1), p(2), p(0)]);
        assert_eq!(rot.primary(), Some(p(1)));
        // Rotating a non-member changes nothing but the id.
        let rot2 = v.with_rotation(p(9));
        assert_eq!(rot2.members, v.members);
    }

    #[test]
    fn event_enum_stays_small() {
        // The compile-time assert above holds the event to one cache line;
        // this test pins what is moved with it on the per-message path, so
        // that growth is a visible diff: the envelope a send or a cast
        // leaves in `Effects`, and the instruction the reliable channel
        // hands its adapter.
        use std::mem::size_of;
        for (what, size, was) in [
            ("Ev", size_of::<Ev>(), 64),
            ("Envelope<Ev>", size_of::<gcs_kernel::Envelope<Ev>>(), 80),
            ("Multicast<Ev>", size_of::<gcs_kernel::Multicast<Ev>>(), 168),
            ("RcOut<WireMsg>", size_of::<gcs_net::RcOut<WireMsg>>(), 72),
        ] {
            assert!(
                size <= was,
                "{what} grew to {size} bytes (was {was}); box or pack the new fat variant"
            );
        }
        assert_eq!(AckEpoch::from(Some(7)).get(), Some(7));
        assert_eq!(AckEpoch::from(None).get(), None);
    }

    #[test]
    fn msgid_order_is_sender_then_seq() {
        let a = MsgId {
            sender: ProcessId::new(0),
            seq: 9,
        };
        let b = MsgId {
            sender: ProcessId::new(1),
            seq: 0,
        };
        assert!(a < b);
    }
}

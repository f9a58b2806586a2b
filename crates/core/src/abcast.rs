//! Atomic broadcast as a sequence of consensus instances (Chandra-Toueg
//! reduction) — the basic component of the new architecture (§3.1.1).
//!
//! To a-broadcast, a process pools its message and sends it to **the one who
//! orders it**: the *ordering target*, the first member of the current view,
//! in view order, that the sender does not suspect. Every
//! process keeps proposing its set of *unordered* messages to consensus
//! instance `k = 0, 1, 2, …`; the decision of instance `k` is the `k`-th
//! delivered batch, flushed in deterministic [`MsgId`] order. Unlike the
//! traditional architectures of §2, this algorithm never blocks on failures
//! as long as `f < n/2` of the current view's members are correct and the
//! underlying failure detector is ◇S — **no membership change is needed to
//! make progress past a crash** (the paper's first key feature).
//!
//! **The ordering target is what the next decision names.** A proposal is
//! the batch plus `next` ([`Proposal`]): the proposer's ordering target, or
//! `None` when that is the view's first member. (A coordinator that gets a
//! batch nobody had adopted through a round `≥ 1` names itself instead:
//! [`claimed_by`](gcs_consensus::Value::claimed_by).) Decision `j` names
//! the round-0 coordinator of instance `j + 1`; for instance 0, for `None`,
//! and when the named process is not a member of the view instance `j + 1`
//! runs in, it is that view's first member. Every process reads the name
//! off the same decision, and instance `j + 1` opens only once batch `j` is
//! flushed (a joiner gets the name in its snapshot), so all participants
//! build an instance with the same round-0 coordinator — the one thing
//! Chandra-Toueg needs of it ([`gcs_consensus::CtConsensus`]); its rounds
//! still rotate through
//! every participant, so agreement never depends on the choice. While the
//! view's first member is trusted it coordinates round 0, as in the classic
//! `participants[r mod n]`. Once it has crashed, the instance in flight
//! decides in round 1, whose coordinator claims the batch, and every later
//! proposal names a member its proposer trusts: an instance then costs what
//! a failure-free one does, and only the instances opened before the crash
//! was suspected pay for the failure detector and a round change (the
//! stable leader of Multi-Paxos, inside ◇S rounds). Once the first member
//! is trusted again, the proposals name it again.
//!
//! Proposals and decisions carry full messages, and delivery only ever
//! follows a decision: whom the `ab/data` copy went to is a matter of
//! liveness, never of safety. A failure-free a-broadcast is therefore one
//! `ab/data` (none when the sender is the coordinator itself) and one
//! consensus instance whose round-0 coordinator proposes what *it* holds.
//! Three rules keep validity — a correct sender's message is eventually
//! ordered — when the target is not what it seemed:
//!
//! 1. **Re-target.** Whenever the ordering target changes — a `Suspect`, a
//!    `Restore`, an ordered join or removal, a snapshot install — every
//!    *own* message still unordered is sent to the new target. A crashed
//!    coordinator is eventually suspected (◇S completeness), and the member
//!    the messages move to is the coordinator of the round that takes over.
//! 2. **Safety net.** While own messages are unordered a one-shot timer of
//!    one consensus-class failure-detector timeout is armed; an own message
//!    that stayed unordered for a full period is diffused to **all** members
//!    (once). That covers a target which is correct but falsely suspected by
//!    the others, so its proposals keep losing: after the diffusion every
//!    pool holds the message, as in the classic diffuse-then-order
//!    reduction, and whichever coordinator wins proposes it.
//! 3. **Receivers relay on suspicion.** The unordered pool (`pending`) is
//!    the buffer of unstable messages: a first copy joins it, and when the
//!    failure detector suspects a process — this component hears the
//!    consensus-class suspicions too — every pooled message of that origin
//!    is relayed, and so is one that arrives while the suspicion lasts (to
//!    [`Rbcast::relay_targets`]). This covers a sender that crashed
//!    part-way through a re-send or a diffusion. The pool is a
//!    [`gcs_kernel::IdMap`]: per sender, a window of slots by sequence
//!    number that moves up as the sender's stream is ordered, so joining,
//!    leaving and one origin's messages (a relay, a re-target, the safety
//!    net's own undiffused ones) are an index or a slice of its lane, and
//!    a proposal is one walk in id order. A `seq` far from the rest of its
//!    sender's — a peer's corrupt one near `u64::MAX` — is one entry on its
//!    own, never a pool sized to it.
//!
//! **Catch-up:** a process that opens an instance while it has evidence of
//! being behind — it was just activated from a snapshot at that instance,
//! or consensus traffic for a *later* instance is already here — flags the
//! proposal, and the consensus component pulls the outcome from the
//! instance's round-0 coordinator instead of waiting for a proposal that
//! may have been sent before it could receive it.
//!
//! **Per-instance state is O(1) and reuses its memory.** A failure-free
//! instance costs its messages, and the bookkeeping around them allocates
//! nothing once warm:
//!
//! * *Decided batches* are flushed as they arrive. The consensus component
//!   runs one instance at a time and decides only an instance this process
//!   proposed for, which is the cursor's, so a decision is the cursor's or a
//!   duplicate, and nothing decided waits here between calls.
//! * *Requested instances* are one watermark, the highest instance the
//!   consensus component saw traffic for, since that is all a proposal
//!   needs to know: one goes out for the cursor instance once the
//!   watermark reaches it — at it because a peer started it, past it
//!   because a peer further on is evidence of being behind (which is also
//!   the catch-up flag). A watermark below the cursor says nothing.
//! * *Proposal batches*: every empty proposal shares one batch, and a
//!   settled proposal's batch that nobody else holds — a non-coordinator's
//!   losing proposal, whose messages come back the next instance — is kept
//!   (the last few of them) and refilled in place by a later proposal of
//!   as many messages. A coordinator's batch travels to every participant
//!   and into their decision caches, so that batch is the one allocation
//!   an instance costs.
//!
//! Dynamic membership: a view change is itself an ordered (control) message;
//! instance `k` is always run among the members of the view obtained after
//! flushing batches `0..k`, which is agreed state — so all processes use the
//! same participant set for every instance (the Dynamic Group Communication
//! construction the paper cites as its ref. 32). The core therefore applies
//! an ordered join or removal to its own view the moment it flushes it; the
//! membership component, which hears of it an event later, owns everything
//! else about the change (announcement, state transfer, exclusion).

use std::sync::Arc;

use gcs_consensus::InstanceId;
use gcs_kernel::{FxHashSet, IdMap, IdRuns, ProcessId};

use crate::rbcast::Rbcast;
use crate::types::{
    AbMsg, Batch, Body, Delivery, DeliveryKind, Message, MessageClass, MsgId, Proposal,
    SnapshotData, View, WireMsg,
};

/// The most settled proposal batches a process keeps for refilling (module
/// docs): a non-coordinator's own pending messages vary in number from one
/// instance to the next, so one spare would seldom have the length wanted.
const SPARE_BATCHES: usize = 4;

/// An instruction produced by the atomic-broadcast core.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbOut {
    /// Send a wire message to a peer over the reliable channel.
    Wire(ProcessId, WireMsg),
    /// Ask the consensus component to run `instance` with this proposal
    /// among these participants (`propose`/`run` in Fig 9).
    Propose {
        /// The consensus instance to run.
        instance: InstanceId,
        /// The proposed batch (may be empty when joining an instance started
        /// by another process) and the round-0 coordinator it names.
        value: Proposal,
        /// The members of the view current at this instance (shared: the
        /// same set is proposed for every instance of a view, so it is
        /// cached per view change instead of cloned per proposal).
        participants: Arc<[ProcessId]>,
        /// The instance's round-0 coordinator, as decision `instance − 1`
        /// named it (see the module docs).
        first: ProcessId,
        /// This process has evidence of being behind on this instance (see
        /// the module docs): pull its outcome rather than only wait for it.
        catch_up: bool,
    },
    /// Deliver an ordered application message (`adeliver`).
    App(Delivery),
    /// Hand an ordered control message (view change, generic-broadcast epoch
    /// closure) to its owning component.
    Ctrl(Message),
    /// Arm the one-shot safety-net timer (one consensus-class failure-
    /// detector timeout; the adapter owns the period and calls
    /// [`AbcastCore::on_safety_net_into`] when it fires). Emitted only while
    /// own messages are unordered, never while one is already armed.
    ArmSafetyNet,
}

/// The atomic-broadcast core (sans-I/O).
#[derive(Debug)]
pub struct AbcastCore {
    me: ProcessId,
    view: View,
    /// The current view's member list as a shared slice, refreshed on view
    /// changes and handed out per proposal as a reference-count bump.
    participants: Arc<[ProcessId]>,
    active: bool,
    rb: Rbcast,
    /// Processes the failure detector currently suspects: a message of such
    /// an origin is relayed, and such a member is not the ordering target.
    suspected: FxHashSet<ProcessId>,
    /// The ordering target own messages go to: the first member of the
    /// view, in view order, not in `suspected` — this process itself
    /// included, in which case nothing is sent. `None` while inactive.
    target: Option<ProcessId>,
    /// Own sequence numbers below this were diffused to every member by the
    /// safety net (each message at most once).
    diffused: u64,
    /// Set while the safety-net timer is armed: own messages with a smaller
    /// sequence number were broadcast before it was, so one still unordered
    /// when it fires has been so for a full period.
    net_mark: Option<u64>,
    /// R-delivered messages not yet a-delivered (the proposal pool), by id:
    /// per sender a window of slots that moves up as the sender's stream
    /// is ordered (`gcs_kernel::IdMap`), walked in id order by a proposal.
    pending: IdMap<Message>,
    /// Ids already a-delivered (never re-delivered, never re-proposed):
    /// every id of a decided batch joins it in the flush of that decision.
    adelivered: IdRuns,
    /// Next batch/instance to flush — and the one instance proposed for.
    cursor: InstanceId,
    /// The round-0 coordinator the last flushed decision named for the
    /// cursor instance (`None`: the view's first member).
    designated: Option<ProcessId>,
    /// The highest instance the consensus component reported traffic for
    /// (module docs: one watermark stands for every instance requested).
    requested: Option<InstanceId>,
    /// The batch of our undecided proposal for the cursor instance (shared
    /// with the proposal). When the instance decides it is settled: what
    /// the decision did not order stays pooled for the next proposal.
    outstanding: Option<Batch>,
    /// The batch of every proposal that carries nothing.
    empty: Batch,
    /// Batches of settled proposals that nobody else holds, at most
    /// [`SPARE_BATCHES`]: each is refilled in place by a later proposal of
    /// as many messages (module docs).
    spares: Vec<Batch>,
    /// The instance a state-transfer snapshot activated this process at:
    /// whatever the members sent for it may predate the activation.
    activated_at: Option<InstanceId>,
    /// Reusable proposal-assembly buffer (`Message` clones are shallow
    /// arena handles).
    scratch: Vec<Message>,
}

impl AbcastCore {
    /// Creates the core. `initial_view` is `Some` for founding members and
    /// `None` for processes that will join later (inactive until
    /// [`install_snapshot`](Self::install_snapshot)).
    pub fn new(me: ProcessId, initial_view: Option<View>) -> Self {
        let mut rb = Rbcast::new(me);
        let (view, active) = match initial_view {
            Some(v) => {
                rb.set_peers(&v.members);
                (v, true)
            }
            None => (
                View {
                    id: 0,
                    members: Vec::new(),
                },
                false,
            ),
        };
        AbcastCore {
            me,
            participants: view.members.as_slice().into(),
            target: view.members.first().copied(),
            view,
            active,
            rb,
            suspected: FxHashSet::default(),
            diffused: 0,
            net_mark: None,
            pending: IdMap::default(),
            adelivered: IdRuns::default(),
            cursor: 0,
            designated: None,
            requested: None,
            outstanding: None,
            empty: Batch::from([]),
            spares: Vec::new(),
            activated_at: None,
            scratch: Vec::new(),
        }
    }

    /// The view this core currently operates in.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Whether this process participates (is a member).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The next instance to be flushed (== number of delivered batches).
    pub fn cursor(&self) -> InstanceId {
        self.cursor
    }

    /// Ids already a-delivered (for snapshots).
    pub fn adelivered(&self) -> Vec<MsgId> {
        self.adelivered.iter().map(MsgId::from).collect()
    }

    /// The round-0 coordinator named for the cursor instance (for snapshots;
    /// `None`: the view's first member).
    pub fn designated(&self) -> Option<ProcessId> {
        self.designated
    }

    /// The round-0 coordinator of the cursor instance: whom the last
    /// decision named, if that is a member of the current view, else the
    /// view's first member.
    fn first_coordinator(&self) -> ProcessId {
        self.designated
            .filter(|&p| self.view.contains(p))
            .or_else(|| self.view.primary())
            .expect("an active process is in a non-empty view")
    }

    /// What a proposal names for a later instance: the ordering target,
    /// unless that is the view's first member.
    fn next_designation(&self) -> Option<ProcessId> {
        self.target.filter(|&t| Some(t) != self.view.primary())
    }

    /// Runs held by each id set the core never prunes — `seen` and
    /// `adelivered` — i.e. what their memory is proportional to.
    #[cfg(test)]
    fn id_set_runs(&self) -> [usize; 2] {
        [self.rb.seen_runs(), self.adelivered.run_count()]
    }

    /// Atomically broadcasts a message built from `class` and `body`,
    /// appending the resulting instructions to `out` (the hot-path entry
    /// point: callers reuse one buffer across invocations).
    pub fn abcast_into(&mut self, class: MessageClass, body: Body, out: &mut Vec<AbOut>) {
        let id = self.rb.next_id();
        self.rb.first_copy(id);
        let message = Message { id, class, body };
        if let Some(to) = self.target.filter(|&to| to != self.me) {
            out.push(AbOut::Wire(to, WireMsg::Ab(AbMsg::Data(message.clone()))));
        }
        if !self.adelivered.contains(id) {
            self.pending.insert(id, message);
        }
        self.arm_safety_net(out);
        self.maybe_propose(out);
    }

    /// Recomputes the ordering target; when it moved, every own message
    /// still unordered goes to the new one (rule 1 of the module docs).
    fn retarget(&mut self, out: &mut Vec<AbOut>) {
        let target = if self.active {
            let unsuspected = |p: &&ProcessId| !self.suspected.contains(*p);
            self.view.members.iter().find(unsuspected).copied()
        } else {
            None
        };
        if target == self.target {
            return;
        }
        self.target = target;
        if let Some(to) = target.filter(|&to| to != self.me) {
            for (_, message) in self.pending.sender_from(self.me, 0) {
                out.push(AbOut::Wire(to, WireMsg::Ab(AbMsg::Data(message.clone()))));
            }
        }
    }

    /// Own messages the safety net has not diffused yet and that are still
    /// unordered, oldest first.
    fn own_undiffused(&self) -> impl Iterator<Item = &Message> {
        let own = self.pending.sender_from(self.me, self.diffused);
        own.map(|(_, message)| message)
    }

    /// Arms the safety-net timer if there is something for it to watch and
    /// it is not armed already (rule 2).
    fn arm_safety_net(&mut self, out: &mut Vec<AbOut>) {
        if self.active && self.net_mark.is_none() && self.own_undiffused().next().is_some() {
            self.net_mark = Some(self.rb.next_seq());
            out.push(AbOut::ArmSafetyNet);
        }
    }

    /// The safety-net timer fired: an own message broadcast before it was
    /// armed and still unordered goes to every member — the classic
    /// diffusion, once per message — and the timer is re-armed if younger
    /// own messages are still unordered.
    pub fn on_safety_net_into(&mut self, out: &mut Vec<AbOut>) {
        let Some(mark) = self.net_mark.take() else {
            return;
        };
        if !self.active {
            return;
        }
        for message in self.own_undiffused().take_while(|m| m.id.seq < mark) {
            for &to in self.rb.peers() {
                out.push(AbOut::Wire(to, WireMsg::Ab(AbMsg::Data(message.clone()))));
            }
        }
        self.diffused = mark;
        self.arm_safety_net(out);
    }

    /// [`abcast_into`](Self::abcast_into) returning a fresh buffer.
    pub fn abcast(&mut self, class: MessageClass, body: Body) -> Vec<AbOut> {
        let mut out = Vec::new();
        self.abcast_into(class, body, &mut out);
        out
    }

    /// Handles a diffused message from the network: a first copy joins the
    /// proposal pool, and is relayed if its origin is suspected right now.
    pub fn on_data_into(&mut self, from: ProcessId, message: Message, out: &mut Vec<AbOut>) {
        if !self.rb.first_copy(message.id) {
            return;
        }
        let origin = message.id.sender;
        if self.suspected.contains(&origin) {
            for &to in self.rb.relay_targets(origin, from) {
                out.push(AbOut::Wire(to, WireMsg::Ab(AbMsg::Data(message.clone()))));
            }
        }
        if !self.adelivered.contains(message.id) {
            self.pending.insert(message.id, message);
        }
        self.maybe_propose(out);
    }

    /// The failure detector suspects `origin`: it may have crashed part-way
    /// through a send, so relay every message of it still unordered here
    /// (ordered ones travel in decisions) — and it cannot be trusted to
    /// order anything, so own unordered messages move to the next target.
    pub fn on_suspect_into(&mut self, origin: ProcessId, out: &mut Vec<AbOut>) {
        if origin == self.me {
            return;
        }
        self.suspected.insert(origin);
        if !self.active {
            return;
        }
        let targets = self.rb.relay_targets(origin, origin);
        for (_, message) in self.pending.sender_from(origin, 0) {
            for &to in targets {
                out.push(AbOut::Wire(to, WireMsg::Ab(AbMsg::Data(message.clone()))));
            }
        }
        self.retarget(out);
    }

    /// The suspicion of `origin` was withdrawn: stop relaying its messages,
    /// and if that makes it the ordering target again, it gets what is
    /// still unordered of ours.
    pub fn on_restore_into(&mut self, origin: ProcessId, out: &mut Vec<AbOut>) {
        self.suspected.remove(&origin);
        self.retarget(out);
    }

    /// [`on_data_into`](Self::on_data_into) returning a fresh buffer.
    pub fn on_data(&mut self, from: ProcessId, message: Message) -> Vec<AbOut> {
        let mut out = Vec::new();
        self.on_data_into(from, message, &mut out);
        out
    }

    /// Handles a consensus decision: the cursor instance's is flushed at
    /// once, and any other is a duplicate report (module docs).
    pub fn on_decide_into(
        &mut self,
        instance: InstanceId,
        decided: Proposal,
        out: &mut Vec<AbOut>,
    ) {
        if instance != self.cursor {
            return; // duplicate decision report
        }
        // Our proposal for this instance (if any) is settled: whatever the
        // decision did not commit stays pooled for the next instance, and a
        // batch only we hold is kept for refilling.
        if let Some(mut batch) = self.outstanding.take() {
            if !batch.is_empty() && Arc::get_mut(&mut batch).is_some() {
                if self.spares.len() == SPARE_BATCHES {
                    self.spares.remove(0);
                }
                self.spares.push(batch);
            }
        }
        for m in decided.batch.iter() {
            self.pending.remove(m.id);
        }
        self.flush(decided, out);
        self.maybe_propose(out);
    }

    /// [`on_decide_into`](Self::on_decide_into) returning a fresh buffer.
    pub fn on_decide(&mut self, instance: InstanceId, decided: Proposal) -> Vec<AbOut> {
        let mut out = Vec::new();
        self.on_decide_into(instance, decided, &mut out);
        out
    }

    /// The consensus component saw traffic for `instance` but has no local
    /// instance yet: participate (with an empty proposal if need be) once
    /// the cursor reaches it.
    pub fn need_instance_into(&mut self, instance: InstanceId, out: &mut Vec<AbOut>) {
        if instance >= self.cursor {
            self.requested = self.requested.max(Some(instance));
            self.maybe_propose(out);
        }
    }

    /// [`need_instance_into`](Self::need_instance_into) returning a fresh
    /// buffer.
    pub fn need_instance(&mut self, instance: InstanceId) -> Vec<AbOut> {
        let mut out = Vec::new();
        self.need_instance_into(instance, &mut out);
        out
    }

    /// Installs a view announced by the membership component. The core
    /// already applies ordered joins and removals itself while it flushes
    /// (an ordered join or removal takes effect there), so in a running group this
    /// only ever confirms the view it is in; an announcement older than
    /// that is ignored.
    pub fn set_view_into(&mut self, view: View, out: &mut Vec<AbOut>) {
        if view.id > self.view.id {
            self.apply_view(view);
            self.retarget(out);
        }
    }

    fn apply_view(&mut self, view: View) {
        self.rb.set_peers(&view.members);
        if !view.contains(self.me) {
            self.active = false;
        }
        self.participants = view.members.as_slice().into();
        self.view = view;
    }

    /// Activates a joining process from a state-transfer snapshot.
    pub fn install_snapshot_into(&mut self, snap: &SnapshotData, out: &mut Vec<AbOut>) {
        self.apply_view(snap.view.clone());
        self.active = true;
        self.cursor = snap.next_instance;
        self.designated = snap.designated;
        self.adelivered = snap.adelivered.iter().copied().collect();
        self.pending.retain(|id, _| !self.adelivered.contains(id));
        // A joiner has no outstanding proposal.
        self.outstanding = None;
        self.activated_at = Some(self.cursor);
        // What this process a-broadcast before it was a member goes out now.
        self.retarget(out);
        self.arm_safety_net(out);
        self.maybe_propose(out);
    }

    /// [`install_snapshot_into`](Self::install_snapshot_into) returning a
    /// fresh buffer.
    pub fn install_snapshot(&mut self, snap: &SnapshotData) -> Vec<AbOut> {
        let mut out = Vec::new();
        self.install_snapshot_into(snap, &mut out);
        out
    }

    /// Proposes everything pending for the cursor instance, unless this
    /// process already proposed for it — when there is something to order,
    /// or another process already started the instance.
    fn maybe_propose(&mut self, out: &mut Vec<AbOut>) {
        let k = self.cursor;
        if !self.active || self.outstanding.is_some() {
            return;
        }
        let requested = self.requested == Some(k);
        // Evidence of being behind on `k`: activated here from a snapshot,
        // or somebody is already past it.
        let behind = self.activated_at == Some(k) || self.requested.is_some_and(|r| r > k);
        if self.pending.is_empty() && !requested && !behind {
            return;
        }
        // `scratch` is reused across proposals and `Message` clones are
        // shallow arena handles.
        self.scratch.clear();
        self.scratch.extend(self.pending.values().cloned());
        let batch = self.batch_of_scratch();
        self.outstanding = Some(batch.clone());
        if self.activated_at == Some(k) {
            self.activated_at = None;
        }
        out.push(AbOut::Propose {
            instance: k,
            value: Proposal {
                batch,
                next: self.next_designation(),
            },
            participants: self.participants.clone(),
            first: self.first_coordinator(),
            catch_up: behind,
        });
    }

    /// The batch of the messages gathered in `scratch`: the shared empty
    /// batch, a spare of that length refilled in place, or a new one — the
    /// only allocation a proposal can cost.
    fn batch_of_scratch(&mut self) -> Batch {
        if self.scratch.is_empty() {
            return self.empty.clone();
        }
        let fits = self
            .spares
            .iter()
            .position(|b| b.len() == self.scratch.len());
        if let Some(mut spare) = fits.map(|at| self.spares.swap_remove(at)) {
            Arc::get_mut(&mut spare)
                .expect("a spare is held by nobody else")
                .clone_from_slice(&self.scratch);
            return spare;
        }
        Batch::from(&self.scratch[..])
    }

    /// Delivers the cursor's decided batch, messages in id order.
    fn flush(&mut self, Proposal { batch, next }: Proposal, out: &mut Vec<AbOut>) {
        // Proposals are assembled from one walk of the pool, which an
        // `IdMap` yields in id order (sender, then seq — far entries
        // included), so decided batches arrive sorted: deliver straight off
        // the shared slice without the copy-and-sort detour. The unsorted
        // fallback guards against foreign proposers with different
        // assembly.
        if batch.windows(2).all(|w| w[0].id <= w[1].id) {
            for m in batch.iter() {
                self.deliver_one(m, out);
            }
        } else {
            let mut sorted: Vec<&Message> = batch.iter().collect();
            sorted.sort_by_key(|m| m.id);
            for m in sorted {
                self.deliver_one(m, out);
            }
        }
        // This decision names the round-0 coordinator of the next one.
        self.designated = next;
        self.cursor += 1;
    }

    /// Delivers one decided message (exactly once): application payloads as
    /// [`AbOut::App`], control bodies as [`AbOut::Ctrl`].
    fn deliver_one(&mut self, m: &Message, out: &mut Vec<AbOut>) {
        if !self.adelivered.insert(m.id) {
            return;
        }
        match &m.body {
            Body::App(payload) => out.push(AbOut::App(Delivery {
                kind: DeliveryKind::Atomic,
                id: m.id,
                class: m.class,
                payload: *payload,
                view: self.view.id,
            })),
            Body::Join(p) | Body::Remove(p) => {
                // A view change takes effect at its place in the order, not
                // when the membership component gets round to announcing it:
                // whatever this flush delivers next is delivered in — and
                // the next instance runs among — the successor view. (Same
                // arithmetic as the membership core, on the same sequence.)
                let joins = matches!(m.body, Body::Join(_));
                if joins != self.view.contains(*p) {
                    let next = if joins {
                        self.view.with_join(*p)
                    } else {
                        self.view.with_remove(*p)
                    };
                    self.apply_view(next);
                    self.retarget(out);
                }
                out.push(AbOut::Ctrl(m.clone()));
            }
            Body::GbEnd(_) => out.push(AbOut::Ctrl(m.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use gcs_kernel::PayloadRef;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn core(i: u32, n: u32) -> AbcastCore {
        let members: Vec<ProcessId> = (0..n).map(pid).collect();
        AbcastCore::new(pid(i), Some(View::initial(members)))
    }

    /// A decision ordering `batch` and naming no round-0 coordinator.
    fn decided(batch: Vec<Message>) -> Proposal {
        Proposal {
            batch: batch.into(),
            next: None,
        }
    }

    fn app(id: MsgId) -> Message {
        Message {
            id,
            class: MessageClass::ABCAST,
            body: Body::App(PayloadRef::EMPTY),
        }
    }

    #[test]
    fn abcast_goes_to_the_coordinator_only_and_proposes() {
        for (me, sent_to) in [(0, vec![]), (1, vec![pid(0)]), (2, vec![pid(0)])] {
            let mut c = core(me, 3);
            let out = c.abcast(MessageClass::ABCAST, Body::App(PayloadRef::EMPTY));
            let to: Vec<ProcessId> = data_wires(&out).into_iter().map(|(to, _)| to).collect();
            assert_eq!(to, sent_to, "p{me}: one copy to p0, none from p0 itself");
            assert!(out.iter().any(
                |o| matches!(o, AbOut::Propose { instance: 0, value, .. } if value.batch.len() == 1)
            ));
        }
    }

    #[test]
    fn decide_flushes_in_id_order_and_advances_cursor() {
        let mut c = core(0, 3);
        let m1 = app(MsgId {
            sender: pid(2),
            seq: 0,
        });
        let m2 = app(MsgId {
            sender: pid(1),
            seq: 0,
        });
        let out = c.on_decide(0, decided(vec![m1.clone(), m2.clone()]));
        let delivered: Vec<MsgId> = out
            .iter()
            .filter_map(|o| match o {
                AbOut::App(d) => Some(d.id),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![m2.id, m1.id], "sorted by id: p1 before p2");
        assert_eq!(c.cursor(), 1);
    }

    #[test]
    fn no_redelivery_across_batches() {
        let mut c = core(0, 3);
        let m = app(MsgId {
            sender: pid(1),
            seq: 0,
        });
        let out = c.on_decide(0, decided(vec![m.clone()]));
        assert_eq!(out.iter().filter(|o| matches!(o, AbOut::App(_))).count(), 1);
        let out = c.on_decide(1, decided(vec![m.clone()]));
        assert_eq!(out.iter().filter(|o| matches!(o, AbOut::App(_))).count(), 0);
    }

    #[test]
    fn received_data_joins_proposal_pool() {
        let mut c = core(0, 3);
        let m = app(MsgId {
            sender: pid(1),
            seq: 0,
        });
        let out = c.on_data(pid(1), m.clone());
        assert!(out.iter().any(
            |o| matches!(o, AbOut::Propose { instance: 0, value, .. } if value.batch[0].id == m.id)
        ));
        // Duplicate data: no second proposal.
        let out2 = c.on_data(pid(2), m);
        assert!(out2.is_empty());
    }

    #[test]
    fn need_instance_triggers_empty_proposal() {
        let mut c = core(0, 3);
        let out = c.need_instance(0);
        assert!(out.iter().any(
            |o| matches!(o, AbOut::Propose { instance: 0, value, .. } if value.batch.is_empty())
        ));
    }

    #[test]
    fn ctrl_bodies_route_to_ctrl() {
        let mut c = core(0, 3);
        let m = Message {
            id: MsgId {
                sender: pid(1),
                seq: 0,
            },
            class: MessageClass::ABCAST,
            body: Body::Join(pid(3)),
        };
        let out = c.on_decide(0, decided(vec![m]));
        assert!(out.iter().any(|o| matches!(o, AbOut::Ctrl(_))));
    }

    #[test]
    fn joiner_is_inactive_until_snapshot() {
        let mut c = AbcastCore::new(pid(3), None);
        assert!(!c.is_active());
        let out = c.abcast(MessageClass::ABCAST, Body::App(PayloadRef::EMPTY));
        assert!(!out.iter().any(|o| matches!(o, AbOut::Propose { .. })));
        let snap = SnapshotData {
            view: View {
                id: 2,
                members: vec![pid(0), pid(1), pid(3)],
            },
            next_instance: 5,
            adelivered: vec![],
            gdelivered: vec![],
            gb_epoch: 0,
            designated: None,
            app_state: Bytes::new(),
        };
        let _ = c.install_snapshot(&snap);
        assert!(c.is_active());
        assert_eq!(c.cursor(), 5);
        assert_eq!(c.view().id, 2);
    }

    #[test]
    fn ordered_view_change_takes_effect_within_the_flush() {
        // Instance 0 orders a join followed by an application message, and
        // this process has something of its own to propose next: the
        // message after the join is delivered in the successor view, and
        // instance 1 already runs among the successor view's members.
        let mut c = core(0, 3);
        let _ = c.on_data(pid(1), from_p(1, 5));
        let join = Message {
            id: MsgId {
                sender: pid(1),
                seq: 0,
            },
            class: MessageClass::ABCAST,
            body: Body::Join(pid(3)),
        };
        let out = c.on_decide(0, decided(vec![from_p(0, 0), join, from_p(2, 0)]));
        let views: Vec<u64> = out
            .iter()
            .filter_map(|o| match o {
                AbOut::App(d) => Some(d.view),
                _ => None,
            })
            .collect();
        assert_eq!(views, vec![0, 1], "p0's before the join, p2's after");
        assert!(out.iter().any(|o| matches!(
            o,
            AbOut::Propose { instance: 1, participants, .. } if participants.len() == 4
        )));
        // The membership component's announcement is a confirmation, and a
        // stale one cannot take the core back.
        c.set_view_into(View::initial((0..3).map(pid).collect()), &mut Vec::new());
        assert_eq!(c.view().members.len(), 4);
        // A duplicate join changes nothing.
        let again = Message {
            id: MsgId {
                sender: pid(2),
                seq: 9,
            },
            class: MessageClass::ABCAST,
            body: Body::Join(pid(3)),
        };
        let _ = c.on_decide(1, decided(vec![again]));
        assert_eq!(c.view().id, 1);
    }

    #[test]
    fn removed_member_deactivates_on_view_change() {
        let mut c = core(0, 3);
        let view = View {
            id: 1,
            members: vec![pid(1), pid(2)],
        };
        c.set_view_into(view, &mut Vec::new());
        assert!(!c.is_active());
    }

    fn data_wires(out: &[AbOut]) -> Vec<(ProcessId, MsgId)> {
        out.iter()
            .filter_map(|o| match o {
                AbOut::Wire(to, WireMsg::Ab(AbMsg::Data(m))) => Some((*to, m.id)),
                _ => None,
            })
            .collect()
    }

    fn from_p(sender: u32, seq: u64) -> Message {
        app(MsgId {
            sender: pid(sender),
            seq,
        })
    }

    #[test]
    fn first_copy_is_not_relayed_while_its_origin_is_trusted() {
        let mut c = core(2, 4);
        let out = c.on_data(pid(1), from_p(1, 0));
        assert!(
            data_wires(&out).is_empty(),
            "failure-free: n-1 ab/data, no relay"
        );
    }

    #[test]
    fn suspicion_relays_the_unordered_messages_of_that_origin_only() {
        let mut c = core(2, 4);
        let (a, b, other) = (from_p(1, 0), from_p(1, 1), from_p(3, 0));
        for m in [&a, &b, &other] {
            let _ = c.on_data(m.id.sender, m.clone());
        }
        // `a` gets ordered: it travels in the decision from now on.
        let _ = c.on_decide(0, decided(vec![a.clone()]));
        let mut out = Vec::new();
        c.on_suspect_into(pid(1), &mut out);
        assert_eq!(
            data_wires(&out),
            vec![(pid(0), b.id), (pid(3), b.id)],
            "only p1's still-pending message, to everyone but p1 and self"
        );
    }

    #[test]
    fn data_of_a_suspected_origin_is_relayed_on_receipt_until_restored() {
        let mut c = core(2, 4);
        let mut out = Vec::new();
        c.on_suspect_into(pid(1), &mut out);
        assert!(out.is_empty(), "nothing of p1 held yet");
        let out = c.on_data(pid(0), from_p(1, 0));
        assert_eq!(
            data_wires(&out),
            vec![(pid(3), from_p(1, 0).id)],
            "not back to the relayer p0, not to the origin"
        );
        c.on_restore_into(pid(1), &mut Vec::new());
        let out = c.on_data(pid(1), from_p(1, 1));
        assert!(data_wires(&out).is_empty(), "restore stops further relays");
    }

    #[test]
    fn bounded_fanout_bounds_the_on_suspicion_relay() {
        let members: Vec<ProcessId> = (0..20).map(pid).collect();
        let mut c = AbcastCore::new(pid(2), Some(View::initial(members)));
        let _ = c.on_data(pid(6), from_p(6, 0));
        let mut out = Vec::new();
        c.on_suspect_into(pid(6), &mut out);
        let to: Vec<ProcessId> = data_wires(&out).into_iter().map(|(to, _)| to).collect();
        assert_eq!(
            to,
            [3, 4, 5, 7].map(pid),
            "five ring successors at n = 20, minus the origin"
        );
    }

    /// A-broadcasts an empty application message and returns its id.
    fn own(c: &mut AbcastCore) -> MsgId {
        let _ = c.abcast(MessageClass::ABCAST, Body::App(PayloadRef::EMPTY));
        MsgId {
            sender: c.me,
            seq: c.rb.next_seq() - 1,
        }
    }

    fn arms(out: &[AbOut]) -> usize {
        out.iter()
            .filter(|o| matches!(o, AbOut::ArmSafetyNet))
            .count()
    }

    #[test]
    fn own_unordered_messages_follow_the_target_on_suspect_and_restore() {
        // View order p0..p3, this is p2. Two own messages went to p0; one
        // gets ordered. p0 suspected: the other moves to p1. p1 suspected
        // too: p2 is the first unsuspected member itself, nothing to send.
        // p0 restored: it is the target again and gets the message again
        // (it may never have received the first copy).
        let mut c = core(2, 4);
        let (a, b) = (own(&mut c), own(&mut c));
        let _ = c.on_data(pid(3), from_p(3, 0)); // not ours: never re-sent
        let _ = c.on_decide(0, decided(vec![app(a)]));
        let mut out = Vec::new();
        c.on_suspect_into(pid(0), &mut out);
        assert_eq!(data_wires(&out), vec![(pid(1), b)]);
        // A suspicion that does not move the target re-sends nothing of
        // ours (what it relays is the suspect's).
        out.clear();
        c.on_suspect_into(pid(3), &mut out);
        assert_eq!(
            data_wires(&out),
            vec![(pid(0), from_p(3, 0).id), (pid(1), from_p(3, 0).id)]
        );
        out.clear();
        c.on_suspect_into(pid(1), &mut out);
        assert!(data_wires(&out).is_empty(), "the target is p2 itself");
        let fresh = own(&mut c);
        c.on_restore_into(pid(0), &mut out);
        assert_eq!(data_wires(&out), vec![(pid(0), b), (pid(0), fresh)]);
    }

    #[test]
    fn own_unordered_messages_follow_the_target_across_a_view_change() {
        let mut c = core(2, 3);
        let mine = own(&mut c);
        let ctrl = |seq, body| Message {
            id: MsgId {
                sender: pid(1),
                seq,
            },
            class: MessageClass::ABCAST,
            body,
        };
        // A join leaves p0 the first member: nothing moves.
        let out = c.on_decide(0, decided(vec![ctrl(0, Body::Join(pid(3)))]));
        assert!(data_wires(&out).is_empty());
        // The ordered removal of p0 makes p1 the target, within the flush.
        let out = c.on_decide(1, decided(vec![ctrl(1, Body::Remove(pid(0)))]));
        assert_eq!(data_wires(&out), vec![(pid(1), mine)]);
        // The membership component's announcement of the same view is a
        // confirmation: nothing is sent twice.
        let mut out = Vec::new();
        c.set_view_into(c.view().clone(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn joiner_sends_on_activation_and_an_earlier_joiner_can_be_its_target() {
        let mut c = AbcastCore::new(pid(4), None);
        let out = c.abcast(MessageClass::ABCAST, Body::App(PayloadRef::EMPTY));
        assert!(out.is_empty(), "inactive: pooled, nothing sent or armed");
        let snap = SnapshotData {
            view: View {
                id: 3,
                members: vec![pid(0), pid(3), pid(4)],
            },
            next_instance: 5,
            adelivered: vec![],
            gdelivered: vec![],
            gb_epoch: 0,
            designated: None,
            app_state: Bytes::new(),
        };
        let mine = MsgId {
            sender: pid(4),
            seq: 0,
        };
        let out = c.install_snapshot(&snap);
        assert_eq!(data_wires(&out), vec![(pid(0), mine)]);
        assert_eq!(arms(&out), 1);
        let mut out = Vec::new();
        c.on_suspect_into(pid(0), &mut out);
        assert_eq!(
            data_wires(&out),
            vec![(pid(3), mine)],
            "p3 joined before us"
        );
    }

    #[test]
    fn safety_net_diffuses_a_stale_own_message_once_and_sleeps_when_idle() {
        let mut c = core(1, 3);
        // Foreign traffic never arms it.
        let out = c.on_data(pid(2), from_p(2, 0));
        assert_eq!(arms(&out), 0);
        let out = c.abcast(MessageClass::ABCAST, Body::App(PayloadRef::EMPTY));
        assert_eq!(arms(&out), 1);
        let out = c.abcast(MessageClass::ABCAST, Body::App(PayloadRef::EMPTY));
        assert_eq!(arms(&out), 0, "one timer, however many messages");
        let (first, second) = (from_p(1, 0), from_p(1, 1));
        // The timer was armed with `first`; `second` is younger than the
        // period when it fires and waits for the next expiry.
        let mut out = Vec::new();
        c.on_safety_net_into(&mut out);
        assert_eq!(
            data_wires(&out),
            vec![(pid(0), first.id), (pid(2), first.id)],
            "to every member, as the classic diffusion"
        );
        assert_eq!(arms(&out), 1, "re-armed for the younger message");
        out.clear();
        c.on_safety_net_into(&mut out);
        assert_eq!(
            data_wires(&out),
            vec![(pid(0), second.id), (pid(2), second.id)],
            "`first` is not diffused a second time"
        );
        assert_eq!(arms(&out), 0, "nothing undiffused is left to watch");
        // Everything ordered, then a new message: the timer starts over, and
        // a message ordered within its period costs no diffusion.
        let _ = c.on_decide(0, decided(vec![first, second]));
        let out = c.abcast(MessageClass::ABCAST, Body::App(PayloadRef::EMPTY));
        assert_eq!(arms(&out), 1);
        let _ = c.on_decide(1, decided(vec![from_p(1, 2)]));
        let mut out = Vec::new();
        c.on_safety_net_into(&mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn duplicate_copy_after_delivery_is_not_pooled_again() {
        // The decision came first (this process never was the target), then
        // the sender re-targets to us: the late copy must not be proposed.
        let mut c = core(1, 3);
        let m = from_p(2, 0);
        let _ = c.on_decide(0, decided(vec![m.clone()]));
        let out = c.on_data(pid(2), m.clone());
        assert!(out.is_empty(), "{out:?}");
        let out = c.on_data(pid(2), m);
        assert!(out.is_empty() && c.pending.is_empty());
    }

    fn catch_up_flags(out: &[AbOut]) -> Vec<(InstanceId, bool)> {
        out.iter()
            .filter_map(|o| match o {
                AbOut::Propose {
                    instance, catch_up, ..
                } => Some((*instance, *catch_up)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn ordinary_proposals_do_not_ask_for_catch_up() {
        let mut c = core(1, 3);
        let out = c.abcast(MessageClass::ABCAST, Body::App(PayloadRef::EMPTY));
        assert_eq!(catch_up_flags(&out), vec![(0, false)]);
        let out = c.need_instance(0);
        assert!(catch_up_flags(&out).is_empty(), "already proposed");
        let out = c.on_decide(0, decided(vec![from_p(1, 0)]));
        assert!(catch_up_flags(&out).is_empty());
        let out = c.need_instance(1);
        assert_eq!(catch_up_flags(&out), vec![(1, false)]);
    }

    #[test]
    fn traffic_for_a_later_instance_opens_the_cursor_instance_to_catch_up() {
        // Nothing pending, nothing requested for instance 0 — yet somebody
        // is already working on instance 1: this process missed instance 0.
        let mut c = core(1, 3);
        let out = c.need_instance(1);
        assert_eq!(catch_up_flags(&out), vec![(0, true)]);
        // The consensus component decides only the instance it was asked
        // to run, the cursor's: any other decision is a duplicate, and
        // changes nothing.
        assert!(c.on_decide(1, decided(vec![from_p(0, 1)])).is_empty());
        assert_eq!(c.cursor(), 0);
        let out = c.on_decide(0, decided(vec![from_p(0, 0)]));
        assert!(out.iter().any(|o| matches!(o, AbOut::App(_))));
        assert_eq!(c.cursor(), 1);
        assert_eq!(catch_up_flags(&out), vec![(1, false)]);
    }

    #[test]
    fn snapshot_activation_catches_up_on_its_first_instance_only() {
        let mut c = AbcastCore::new(pid(3), None);
        let snap = SnapshotData {
            view: View {
                id: 2,
                members: vec![pid(0), pid(1), pid(3)],
            },
            next_instance: 5,
            adelivered: vec![],
            gdelivered: vec![],
            gb_epoch: 0,
            designated: None,
            app_state: Bytes::new(),
        };
        let out = c.install_snapshot(&snap);
        assert_eq!(catch_up_flags(&out), vec![(5, true)]);
        let out = c.on_decide(5, decided(vec![from_p(0, 9)]));
        assert!(catch_up_flags(&out).is_empty());
        let out = c.abcast(MessageClass::ABCAST, Body::App(PayloadRef::EMPTY));
        assert_eq!(catch_up_flags(&out), vec![(6, false)]);
    }

    /// `(instance, round-0 coordinator, named)` of every proposal in `out`.
    fn firsts(out: &[AbOut]) -> Vec<(InstanceId, ProcessId, Option<ProcessId>)> {
        out.iter()
            .filter_map(|o| match o {
                AbOut::Propose {
                    instance,
                    first,
                    value,
                    ..
                } => Some((*instance, *first, value.next)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn proposals_name_the_ordering_target_unless_it_is_the_view_s_first_member() {
        let mut c = core(2, 3);
        let out = c.abcast(MessageClass::ABCAST, Body::App(PayloadRef::EMPTY));
        assert_eq!(
            firsts(&out),
            vec![(0, pid(0), None)],
            "failure-free: nothing extra"
        );
        // p0 suspected: the message, not ordered by instance 0, goes to p1
        // and rides instance 1's proposal, which names p1.
        c.on_suspect_into(pid(0), &mut Vec::new());
        let out = c.on_decide(0, decided(vec![]));
        assert_eq!(firsts(&out), vec![(1, pid(0), Some(pid(1)))]);
    }

    #[test]
    fn a_decision_names_the_round_0_coordinator_of_the_next_instance() {
        let named = |batch, next| Proposal {
            batch: Batch::from(batch),
            next,
        };
        // Decision j names instance j+1's; a non-member named falls back to
        // the view's first member.
        let mut c = core(2, 3);
        let _ = c.on_decide(0, named(vec![from_p(1, 0)], Some(pid(1))));
        assert_eq!(firsts(&c.need_instance(1)), vec![(1, pid(1), None)]);
        let _ = c.on_decide(1, named(vec![from_p(1, 1)], Some(pid(7))));
        assert_eq!(firsts(&c.need_instance(2)), vec![(2, pid(0), None)]);
        let out = c.on_decide(2, named(vec![], Some(pid(2))));
        assert_eq!(firsts(&out), vec![]);
        assert_eq!(c.designated(), Some(pid(2)));
        assert_eq!(firsts(&c.need_instance(3)), vec![(3, pid(2), None)]);
        // A decision that names nobody hands the next instance back to the
        // first member.
        let _ = c.on_decide(3, named(vec![], None));
        assert_eq!(c.designated(), None);
        assert_eq!(firsts(&c.need_instance(4)), vec![(4, pid(0), None)]);
    }

    #[test]
    fn a_snapshot_carries_the_named_round_0_coordinators_to_the_joiner() {
        let mut sponsor = core(1, 3);
        let _ = sponsor.on_decide(
            0,
            Proposal {
                batch: Batch::from(vec![from_p(1, 0)]),
                next: Some(pid(1)),
            },
        );
        let snap = SnapshotData {
            view: View {
                id: 1,
                members: vec![pid(0), pid(1), pid(2), pid(3)],
            },
            next_instance: sponsor.cursor(),
            adelivered: sponsor.adelivered(),
            gdelivered: vec![],
            gb_epoch: 0,
            designated: sponsor.designated(),
            app_state: Bytes::new(),
        };
        let mut joiner = AbcastCore::new(pid(3), None);
        let out = joiner.install_snapshot(&snap);
        assert_eq!(
            firsts(&out),
            vec![(1, pid(1), None)],
            "as the members agree"
        );
    }

    fn proposals(out: &[AbOut]) -> Vec<(InstanceId, usize)> {
        out.iter()
            .filter_map(|o| match o {
                AbOut::Propose {
                    instance, value, ..
                } => Some((*instance, value.batch.len())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn losing_proposal_returns_messages_to_the_pool() {
        let mut c = core(0, 3);
        let out = c.abcast(MessageClass::ABCAST, Body::App(PayloadRef::EMPTY));
        let mine = match proposals(&out)[..] {
            [(0, 1)] => MsgId {
                sender: pid(0),
                seq: 0,
            },
            _ => panic!("expected our one-message proposal for instance 0"),
        };
        // Instance 0 decides a foreign batch: our message was not ordered
        // and must ride the next proposal.
        let other = app(MsgId {
            sender: pid(1),
            seq: 0,
        });
        let out = c.on_decide(0, decided(vec![other]));
        assert!(
            proposals(&out)
                .iter()
                .any(|&(instance, len)| instance == 1 && len == 1),
            "leftover re-proposed for instance 1: {out:?}"
        );
        let reproposed = out.iter().any(
            |o| matches!(o, AbOut::Propose { instance: 1, value, .. } if value.batch[0].id == mine),
        );
        assert!(reproposed);
    }

    /// Bounded memory where a peer controls the value: an `ab/data` whose
    /// `seq` is near `u64::MAX` is one far entry of the pool, not a pool
    /// sized to it. It is proposed after the dense ones, in id order,
    /// and once its decision is flushed the pool keeps nothing.
    #[test]
    fn a_wire_seq_cannot_size_the_pool() {
        let mut c = core(0, 3);
        let id = |sender, seq| MsgId {
            sender: pid(sender),
            seq,
        };
        let out = c.on_data(pid(1), app(id(1, 0)));
        assert_eq!(proposals(&out), [(0, 1)]);
        for m in [id(1, u64::MAX - 1), id(1, 1), id(2, 0)] {
            assert!(
                c.on_data(m.sender, app(m)).is_empty(),
                "instance 0 is in flight"
            );
        }
        assert_eq!(c.pending.len(), 4);
        assert!(
            c.pending.slot_count() <= 4,
            "{} slots",
            c.pending.slot_count()
        );
        let out = c.on_decide(0, decided(vec![app(id(1, 0))]));
        let batch = out.iter().find_map(|o| match o {
            AbOut::Propose {
                instance: 1, value, ..
            } => Some(value.batch.clone()),
            _ => None,
        });
        let batch = batch.expect("the rest of the pool is proposed for instance 1");
        let ids: Vec<MsgId> = batch.iter().map(|m| m.id).collect();
        assert_eq!(ids, [id(1, 1), id(1, u64::MAX - 1), id(2, 0)]);
        let out = c.on_decide(1, decided(batch.to_vec()));
        let delivered: Vec<MsgId> = out
            .iter()
            .filter_map(|o| match o {
                AbOut::App(d) => Some(d.id),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, ids);
        assert!(c.pending.is_empty() && c.pending.slot_count() == 0);
    }

    /// each of the id sets the core keeps for good.
    #[test]
    fn id_sets_stay_one_run_per_sender_over_200_000_messages() {
        let mut c = core(0, 4);
        let mut out = Vec::new();
        let mut delivered = 0;
        for round in 0..66_667u64 {
            let batch: Vec<Message> = (1..4)
                .map(|sender| {
                    app(MsgId {
                        sender: pid(sender),
                        seq: round,
                    })
                })
                .collect();
            for m in &batch {
                c.on_data_into(m.id.sender, m.clone(), &mut out);
            }
            c.on_decide_into(round, decided(batch), &mut out);
            delivered += out.iter().filter(|o| matches!(o, AbOut::App(_))).count();
            out.clear();
            if round % 10_000 == 0 {
                assert!(c.id_set_runs().iter().all(|&runs| runs <= 3));
            }
        }
        assert_eq!(delivered, 200_001);
        assert_eq!(c.id_set_runs(), [3, 3]);
        assert!(c.pending.is_empty() && c.outstanding.is_none());
    }
}

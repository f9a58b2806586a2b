//! Repeated consensus: the service atomic broadcast is built on.
//!
//! **One instance at a time.** Atomic broadcast opens instance `k + 1` only
//! once it has delivered the decision of `k` (the Chandra-Toueg reduction),
//! so the manager's state has three parts, one per position relative to
//! the instance that runs:
//!
//! * *the running instance*, at most one;
//! * *the decisions behind it*, which answer late traffic: a window from a
//!   base instance, appended at the back as instances decide (in instance
//!   order) and pruned at the front, [`DECISION_KEEP`] instances behind the
//!   newest proposal, so it spans a bounded window and, once its capacity
//!   covers that window, a decision costs no allocation (in test builds a
//!   manager can run on a map instead, and a property test drives the two
//!   side by side);
//! * *the traffic ahead of it*: messages for an instance not opened yet,
//!   parked in arrival order in one flat buffer kept across instances.
//!   Parking asks the owner to open the instance
//!   ([`ManagerOut::NeedInstance`]), since only the owner knows what to
//!   propose and among whom; a non-coordinator with nothing of its own to
//!   order parks the coordinator's proposal for every instance, until that
//!   round trip opens it a moment later. When
//!   [`propose_into`](ConsensusManager::propose_into) opens the instance
//!   the parked messages are replayed, and below the prune floor they are
//!   dropped.

#[cfg(test)]
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;

use gcs_kernel::{fanout, ring_successors, FxHashMap, FxHashSet, ProcessId};

use crate::chandra_toueg::{answers_with_decision, CtConsensus, CtMsg, CtOut};
use crate::Value;

/// Identifies one consensus instance (atomic broadcast runs instance
/// `0, 1, 2, …` — one per delivered batch).
pub type InstanceId = u64;

/// How many decided instances the manager keeps behind the newest proposal
/// for lagging-peer catch-up replies. Far larger than any catalog run's
/// instance count (so recorded runs never prune and stay bit-identical),
/// yet it bounds decision memory on long runs instead of growing with the
/// run.
const DECISION_KEEP: InstanceId = 1024;

/// An instruction produced by the [`ConsensusManager`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ManagerOut<V> {
    /// Send an instance-tagged message over the reliable channel.
    Send {
        /// Destination participant.
        to: ProcessId,
        /// The instance the message belongs to.
        instance: InstanceId,
        /// The protocol message.
        msg: CtMsg<V>,
    },
    /// Instance `instance` decided `value` (emitted once per instance).
    Decided {
        /// The deciding instance.
        instance: InstanceId,
        /// The decided value.
        value: V,
    },
    /// Traffic for this instance arrived before it was opened and is parked
    /// until [`ConsensusManager::propose_into`] opens it.
    NeedInstance(InstanceId),
}

/// A cached decision.
#[derive(Debug)]
struct Cached<V> {
    value: V,
    /// Whether this process decided as coordinator: every participant then
    /// has the decision from it, or decided on adopting its proposal (an
    /// acker does among at most three participants), so late acks need no
    /// answer. False for a decision learned from a `Decide`, or made as an
    /// acker.
    sent_to_all: bool,
}

/// The decisions behind the running instance (module docs).
#[derive(Debug)]
enum Decisions<V> {
    /// The decision of instance `base + i` at position `i`.
    Window {
        /// The instance of the front decision (meaningless while empty).
        base: InstanceId,
        values: VecDeque<Cached<V>>,
    },
    /// A map: the reference the window is tested against.
    #[cfg(test)]
    Map(BTreeMap<InstanceId, Cached<V>>),
}

impl<V> Decisions<V> {
    fn get(&self, instance: InstanceId) -> Option<&Cached<V>> {
        match self {
            Decisions::Window { base, values } => {
                values.get(usize::try_from(instance.checked_sub(*base)?).ok()?)
            }
            #[cfg(test)]
            Decisions::Map(map) => map.get(&instance),
        }
    }

    /// Appends the decision of `instance`, the one after the newest held.
    fn push(&mut self, instance: InstanceId, cached: Cached<V>) {
        match self {
            Decisions::Window { base, values } => {
                if values.is_empty() {
                    *base = instance;
                }
                debug_assert_eq!(
                    instance,
                    *base + values.len() as InstanceId,
                    "decisions arrive in instance order"
                );
                values.push_back(cached);
            }
            #[cfg(test)]
            Decisions::Map(map) => {
                map.insert(instance, cached);
            }
        }
    }

    fn prune_below(&mut self, floor: InstanceId) {
        match self {
            Decisions::Window { base, values } => {
                while *base < floor && values.pop_front().is_some() {
                    *base += 1;
                }
            }
            #[cfg(test)]
            Decisions::Map(map) => *map = map.split_off(&floor),
        }
    }
}

/// Manages a sequence of consensus instances, one at a time: creation on
/// proposal, decision caching, catch-up replies for lagging peers, parking
/// of traffic that is ahead, propagation of the failure-detector suspicion
/// set to the running instance, and the relay of learned decisions while
/// their sender is suspected.
///
/// An instance on its own makes every participant that started it decide
/// (see [`CtConsensus`]). The relay is for the participant that has no
/// reason to start one: the coordinator crashed while sending a decision —
/// or everything about the instance — and the message never reached it. An
/// acker that decided on adopting a proposal (at most three participants)
/// counts as having learned the decision from the proposal's coordinator:
/// it relays it while that coordinator is suspected, exactly as if the
/// coordinator's `Decide` had reached it.
#[derive(Debug)]
pub struct ConsensusManager<V> {
    me: ProcessId,
    /// The running instance: opened by a proposal, closed by its decision.
    running: Option<(InstanceId, CtConsensus<V>)>,
    decisions: Decisions<V>,
    /// Messages for instances not opened yet, in arrival order (module
    /// docs).
    parked: Vec<(InstanceId, ProcessId, CtMsg<V>)>,
    suspected: FxHashSet<ProcessId>,
    /// Per peer, the newest decision learned from a `Decide` of that peer
    /// while it was trusted, with its instance's participants. Should the
    /// peer become suspected it may have crashed part-way through that
    /// broadcast, so the decision is relayed then. One entry per peer is
    /// enough: the relayed decision tells whoever also missed older ones
    /// that it is behind; it then opens the instance at its cursor, where
    /// the instance's own rules get it the outcome.
    unrelayed: FxHashMap<ProcessId, (InstanceId, Arc<[ProcessId]>)>,
    /// Decisions below this instance were pruned: messages for them are
    /// dropped (not parked) — a peer that far behind recovers via state
    /// transfer, not per-instance catch-up.
    pruned_below: InstanceId,
    /// Reused buffer for instance outputs: steady-state message handling
    /// allocates no per-call `Vec`.
    ct_scratch: Vec<CtOut<V>>,
}

impl<V: Value> ConsensusManager<V> {
    /// Creates a manager for process `me`.
    pub fn new(me: ProcessId) -> Self {
        ConsensusManager {
            me,
            running: None,
            decisions: Decisions::Window {
                base: 0,
                values: VecDeque::new(),
            },
            parked: Vec::new(),
            suspected: FxHashSet::default(),
            unrelayed: FxHashMap::default(),
            pruned_below: 0,
            ct_scratch: Vec::new(),
        }
    }

    /// The same manager on a map of decisions instead of the window.
    #[cfg(test)]
    fn with_map_cache(mut self) -> Self {
        self.decisions = Decisions::Map(BTreeMap::new());
        self
    }

    /// Whether `instance` exists locally (running or decided).
    pub fn has_instance(&self, instance: InstanceId) -> bool {
        self.is_running(instance) || self.decisions.get(instance).is_some()
    }

    fn is_running(&self, instance: InstanceId) -> bool {
        self.running.as_ref().is_some_and(|(k, _)| *k == instance)
    }

    /// The cached decision of `instance`, if it decided locally.
    pub fn decision(&self, instance: InstanceId) -> Option<&V> {
        self.decisions.get(instance).map(|c| &c.value)
    }

    /// Proposes `value` for `instance` among `participants`, with `first`
    /// as the round-0 coordinator (every participant must pass the same
    /// one: see [`CtConsensus`]).
    pub fn propose(
        &mut self,
        instance: InstanceId,
        value: V,
        participants: &Arc<[ProcessId]>,
        first: ProcessId,
        catch_up: bool,
    ) -> Vec<ManagerOut<V>> {
        let mut out = Vec::new();
        self.propose_into(instance, value, participants, first, catch_up, &mut out);
        out
    }

    /// [`propose`](Self::propose), appending into a caller-owned buffer
    /// (the hot-path entry point).
    ///
    /// Opens the instance if needed (idempotent otherwise; the instance
    /// shares the participant list when it is sorted already) and seeds it
    /// with the current suspicion set. It must be the only instance open:
    /// the one before it has decided. The messages parked for it are then
    /// replayed in arrival order, and with `catch_up` — the caller has
    /// evidence of being behind — the instance pulls its outcome if it
    /// still waits for its first proposal ([`CtConsensus::pull_into`]).
    /// Decisions more than `DECISION_KEEP` (1,024) instances behind this
    /// one are pruned: proposals only move forward, so no peer inside the
    /// catch-up window asks for them again.
    pub fn propose_into(
        &mut self,
        instance: InstanceId,
        value: V,
        participants: &Arc<[ProcessId]>,
        first: ProcessId,
        catch_up: bool,
        out: &mut Vec<ManagerOut<V>>,
    ) {
        if self.decisions.get(instance).is_none() {
            if !self.is_running(instance) {
                debug_assert!(self.running.is_none(), "one instance at a time");
                let mut c = CtConsensus::new(self.me, Arc::clone(participants), first);
                c.seed_suspicions(&self.suspected);
                self.running = Some((instance, c));
            }
            self.drive(out, |c, scratch| c.propose_into(value, scratch));
        }
        let mut parked = std::mem::take(&mut self.parked);
        for (_, from, msg) in parked.extract_if(.., |(k, ..)| *k == instance) {
            self.on_msg_into(instance, from, msg, out);
        }
        self.parked = parked;
        if catch_up {
            self.pull_into(instance, out);
        }
        self.prune_below(instance.saturating_sub(DECISION_KEEP));
    }

    /// Pulls the outcome of `instance` from its round-0 coordinator if this
    /// process still waits there without a proposal (see
    /// [`CtConsensus::pull_into`]). No-op unless `instance` is the running
    /// one.
    fn pull_into(&mut self, instance: InstanceId, out: &mut Vec<ManagerOut<V>>) {
        if self.is_running(instance) {
            self.drive(out, CtConsensus::pull_into);
        }
    }

    /// Handles an instance-tagged message.
    ///
    /// Messages for decided instances are answered with the cached decision
    /// (all but a `Decide`, and an `Ack` for a decision this process made as
    /// coordinator); messages for an instance not opened yet are parked, and
    /// the owner is asked to open it ([`ManagerOut::NeedInstance`]: it knows
    /// the participant set, the manager does not).
    pub fn on_msg(
        &mut self,
        instance: InstanceId,
        from: ProcessId,
        msg: CtMsg<V>,
    ) -> Vec<ManagerOut<V>> {
        let mut out = Vec::new();
        self.on_msg_into(instance, from, msg, &mut out);
        out
    }

    /// [`on_msg`](Self::on_msg), appending into a caller-owned buffer (the
    /// hot-path entry point).
    pub fn on_msg_into(
        &mut self,
        instance: InstanceId,
        from: ProcessId,
        msg: CtMsg<V>,
        out: &mut Vec<ManagerOut<V>>,
    ) {
        if let Some(c) = self.decisions.get(instance) {
            if answers_with_decision(&msg, c.sent_to_all) {
                out.push(ManagerOut::Send {
                    to: from,
                    instance,
                    msg: CtMsg::Decide {
                        est: c.value.clone(),
                    },
                });
            }
        } else if instance < self.pruned_below {
            // The decision existed once but was pruned: parking would leak
            // forever (atomic broadcast never starts instances behind its
            // cursor), so drop — the sender is beyond the catch-up window
            // and recovers by state transfer.
        } else if self.is_running(instance) {
            self.drive(out, |c, scratch| c.on_msg_into(from, msg, scratch));
        } else {
            self.parked.push((instance, from, msg));
            out.push(ManagerOut::NeedInstance(instance));
        }
    }

    /// Records a suspicion, forwards it to the running instance, and
    /// relays the newest decision learned from `p` (it may have crashed
    /// while sending it).
    pub fn suspect(&mut self, p: ProcessId) -> Vec<ManagerOut<V>> {
        let mut out = Vec::new();
        self.suspect_into(p, &mut out);
        out
    }

    /// [`suspect`](Self::suspect), appending into a caller-owned buffer.
    pub fn suspect_into(&mut self, p: ProcessId, out: &mut Vec<ManagerOut<V>>) {
        self.suspected.insert(p);
        self.drive(out, |c, scratch| c.suspect_into(p, scratch));
        if let Some((instance, participants)) = self.unrelayed.remove(&p) {
            if let Some(c) = self.decisions.get(instance) {
                self.relay(instance, &c.value, &participants, p, out);
            }
        }
    }

    /// Re-sends the decision of `instance`, learned from the suspected
    /// `origin` (which has it and is skipped), to the ring successors of
    /// this process in the (sorted) participant order: every other
    /// participant in a small group, [`fanout`] of them in a large one.
    /// Whoever a bounded relay misses is no worse off than before it.
    fn relay(
        &self,
        instance: InstanceId,
        value: &V,
        participants: &[ProcessId],
        origin: ProcessId,
        out: &mut Vec<ManagerOut<V>>,
    ) {
        let m = participants.len();
        for to in ring_successors(participants, self.me).take(fanout(m, m)) {
            if to != origin {
                out.push(ManagerOut::Send {
                    to,
                    instance,
                    msg: CtMsg::Decide { est: value.clone() },
                });
            }
        }
    }

    /// Clears a suspicion (future instances start without it; the running
    /// instance stops nacking its rounds).
    pub fn restore(&mut self, p: ProcessId) {
        self.suspected.remove(&p);
        if let Some((_, c)) = &mut self.running {
            c.restore(p);
        }
    }

    /// Drops the decisions and the parked messages of instances below
    /// `floor` and records the floor (monotonic): later messages for
    /// pruned instances are dropped rather than parked. The caller
    /// guarantees peers that far behind recover some other way (state
    /// transfer), keeping memory bounded on long runs.
    pub fn prune_below(&mut self, floor: InstanceId) {
        if floor <= self.pruned_below {
            return;
        }
        self.pruned_below = floor;
        self.decisions.prune_below(floor);
        self.parked.retain(|(k, ..)| *k >= floor);
    }

    /// The current prune floor (0 when nothing was ever pruned).
    pub fn pruned_below(&self) -> InstanceId {
        self.pruned_below
    }

    /// Runs `step` on the running instance (if any) and collects what it
    /// outputs.
    fn drive(
        &mut self,
        out: &mut Vec<ManagerOut<V>>,
        step: impl FnOnce(&mut CtConsensus<V>, &mut Vec<CtOut<V>>),
    ) {
        let Some((instance, c)) = &mut self.running else {
            return;
        };
        let instance = *instance;
        let mut scratch = std::mem::take(&mut self.ct_scratch);
        step(c, &mut scratch);
        self.collect(instance, &mut scratch, out);
        self.ct_scratch = scratch;
    }

    /// Drains instance outputs (leaving `outs` empty for reuse) into
    /// manager outputs; a decision closes the running instance and joins
    /// the window behind it.
    fn collect(
        &mut self,
        instance: InstanceId,
        outs: &mut Vec<CtOut<V>>,
        res: &mut Vec<ManagerOut<V>>,
    ) {
        for o in outs.drain(..) {
            match o {
                CtOut::Send { to, msg } => res.push(ManagerOut::Send { to, instance, msg }),
                CtOut::Decided(v) => {
                    let (_, inst) = self.running.take().expect("it just decided");
                    let learned_from = inst.learned_from();
                    if let Some(origin) = learned_from {
                        if self.suspected.contains(&origin) {
                            self.relay(instance, &v, inst.participants(), origin, res);
                        } else if self
                            .unrelayed
                            .get(&origin)
                            .is_none_or(|(k, _)| *k < instance)
                        {
                            self.unrelayed
                                .insert(origin, (instance, inst.into_participants()));
                        }
                    }
                    self.decisions.push(
                        instance,
                        Cached {
                            value: v.clone(),
                            sent_to_all: learned_from.is_none(),
                        },
                    );
                    res.push(ManagerOut::Decided { instance, value: v });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    type Wire = (ProcessId, ProcessId, InstanceId, CtMsg<u32>);

    /// What process `i` proposes for `instance` when it has something of
    /// its own to order.
    fn own(instance: InstanceId, i: usize) -> u32 {
        100 * instance as u32 + i as u32
    }

    /// What process `i` proposes for an instance it opens only because
    /// traffic asked it to.
    fn empty(i: usize) -> u32 {
        900 + i as u32
    }

    /// A lock-step network of managers: messages are delivered in FIFO
    /// order, crashed processes drop in- and out-bound traffic. Each process
    /// opens instances one at a time, as atomic broadcast does: its cursor
    /// instance once the one before has decided, when it has something of
    /// its own to order there (`own[i]` instances from 0 on) or traffic
    /// asked for it, with the catch-up flag when traffic for a later
    /// instance was seen. Every instance starts with the same round-0
    /// coordinator, `first`.
    struct Net {
        managers: Vec<ConsensusManager<u32>>,
        ids: Arc<[ProcessId]>,
        first: ProcessId,
        queue: VecDeque<Wire>,
        crashed: HashSet<ProcessId>,
        decided: BTreeMap<(usize, InstanceId), u32>,
        /// Per process: how many instances it has something of its own for.
        own: Vec<InstanceId>,
        /// Per process: the instance it runs or opens next.
        cursor: Vec<InstanceId>,
        /// Per process: whether it has proposed for its cursor instance.
        open: Vec<bool>,
        /// Per process: the highest instance its manager asked it to open.
        requested: Vec<Option<InstanceId>>,
    }

    impl Net {
        fn new(managers: Vec<ConsensusManager<u32>>) -> Self {
            Self::with_first(managers, pid(0))
        }

        fn with_first(managers: Vec<ConsensusManager<u32>>, first: ProcessId) -> Self {
            let n = managers.len();
            Net {
                ids: (0..n as u32).map(pid).collect(),
                managers,
                first,
                queue: VecDeque::new(),
                crashed: HashSet::new(),
                decided: BTreeMap::new(),
                own: vec![0; n],
                cursor: vec![0; n],
                open: vec![false; n],
                requested: vec![None; n],
            }
        }

        fn apply(&mut self, from: ProcessId, outs: Vec<ManagerOut<u32>>) {
            let i = from.index();
            for o in outs {
                match o {
                    ManagerOut::Send { to, instance, msg } => {
                        self.queue.push_back((from, to, instance, msg))
                    }
                    ManagerOut::Decided { instance, value } => {
                        let prev = self.decided.insert((i, instance), value);
                        assert!(prev.is_none(), "{from:?} decided {instance} twice");
                        assert_eq!(instance, self.cursor[i], "{from:?} decided out of order");
                        self.cursor[i] += 1;
                        self.open[i] = false;
                        self.maybe_open(from);
                    }
                    ManagerOut::NeedInstance(instance) => {
                        if instance >= self.cursor[i] {
                            self.requested[i] = self.requested[i].max(Some(instance));
                            self.maybe_open(from);
                        }
                    }
                }
            }
        }

        /// Gives `p` something of its own to order in `count` more
        /// instances, opening its cursor instance if it waited for that.
        fn give(&mut self, p: ProcessId, count: InstanceId) {
            self.own[p.index()] += count;
            self.maybe_open(p);
        }

        /// Opens `p`'s cursor instance if it has not yet and has a reason.
        fn maybe_open(&mut self, p: ProcessId) {
            let i = p.index();
            let k = self.cursor[i];
            if self.open[i] {
                return;
            }
            let value = if k < self.own[i] {
                own(k, i)
            } else if self.requested[i] >= Some(k) {
                empty(i)
            } else {
                return;
            };
            self.open[i] = true;
            let behind = self.requested[i].is_some_and(|r| r > k);
            let outs = self.managers[i].propose(k, value, &self.ids, self.first, behind);
            self.apply(p, outs);
        }

        fn suspect(&mut self, observer: ProcessId, q: ProcessId) {
            let outs = self.managers[observer.index()].suspect(q);
            self.apply(observer, outs);
        }

        /// Delivers, in FIFO order, the messages matching `pick` (and what
        /// they cause, as far as it matches too); the rest stay queued.
        fn run_where(&mut self, pick: impl Fn(&Wire) -> bool) {
            let mut steps = 0;
            while let Some(i) = self.queue.iter().position(&pick) {
                let wire = self.queue.remove(i).expect("index from position");
                steps += 1;
                assert!(steps < 100_000, "no quiescence");
                self.deliver(wire);
            }
        }

        /// Hands one message to its destination.
        fn deliver(&mut self, (from, to, instance, msg): Wire) {
            if self.crashed.contains(&from) || self.crashed.contains(&to) {
                return;
            }
            let outs = self.managers[to.index()].on_msg(instance, from, msg);
            self.apply(to, outs);
        }

        fn run(&mut self) {
            self.run_where(|_| true);
        }
    }

    /// Everyone orders something in instances 0 and 1; runs to quiescence.
    fn drive(managers: &mut Vec<ConsensusManager<u32>>) -> BTreeMap<(usize, InstanceId), u32> {
        let mut net = Net::new(std::mem::take(managers));
        for i in 0..net.ids.len() {
            net.give(pid(i as u32), 2);
        }
        net.run();
        *managers = net.managers;
        net.decided
    }

    #[test]
    fn traffic_ahead_is_replayed_in_arrival_order_and_dropped_once_pruned() {
        let ids: Arc<[ProcessId]> = (0..3).map(pid).collect();
        let mut m: ConsensusManager<u32> = ConsensusManager::new(pid(1));
        // p1 runs instance 0 and waits for p0's proposal.
        assert!(m.propose(0, 10, &ids, pid(0), false).is_empty());
        // Instance 1 is ahead: p0's proposal for it and p2's leaving its
        // round 0 arrive while 0 runs, and so does traffic for instance 2.
        // Each is parked, and the owner is asked to open its instance.
        let ahead = [
            (1, pid(0), CtMsg::Propose { round: 0, est: 7 }),
            (1, pid(2), CtMsg::Nack { round: 0 }),
            (2, pid(0), CtMsg::Propose { round: 0, est: 8 }),
        ];
        for (k, from, msg) in ahead.iter().cloned() {
            assert_eq!(m.on_msg(k, from, msg), [ManagerOut::NeedInstance(k)]);
        }
        assert_eq!(m.parked, ahead);
        let decided = |instance, value| ManagerOut::Decided { instance, value };
        let outs = m.on_msg(0, pid(0), CtMsg::Decide { est: 5 });
        assert_eq!(outs, [decided(0, 5)]);
        // Opening 1 replays its traffic in arrival order: the proposal is
        // acked and, at three participants, decided on adopting; the nack
        // that came next is then answered with the decision.
        let outs = m.propose(1, 11, &ids, pid(0), false);
        let send = |to, msg| ManagerOut::Send {
            to,
            instance: 1,
            msg,
        };
        assert_eq!(
            outs,
            [
                send(pid(0), CtMsg::Ack { round: 0 }),
                decided(1, 7),
                send(pid(2), CtMsg::Decide { est: 7 }),
            ]
        );
        assert_eq!(m.parked, [ahead[2].clone()]);
        // Below the prune floor, parked traffic is dropped, and so is what
        // arrives for those instances later.
        m.prune_below(3);
        assert!(m.parked.is_empty());
        let (k, from, msg) = ahead[2].clone();
        assert!(m.on_msg(k, from, msg).is_empty());
        assert!(m.parked.is_empty());
    }

    #[test]
    fn a_proposal_prunes_decisions_further_behind_than_the_window() {
        let solo: Arc<[ProcessId]> = [pid(0)].into();
        let mut m: ConsensusManager<u32> = ConsensusManager::new(pid(0));
        for k in 0..=DECISION_KEEP + 1 {
            let _ = m.propose(k, 0, &solo, pid(0), false);
            assert!(
                m.decision(k).is_some(),
                "a sole participant decides at once"
            );
            assert_eq!(m.pruned_below(), k.saturating_sub(DECISION_KEEP));
        }
        assert!(m.decision(0).is_none() && m.decision(1).is_some());
    }

    #[test]
    fn decided_instance_answers_with_decision() {
        let mut managers: Vec<ConsensusManager<u32>> =
            (0..3).map(|i| ConsensusManager::new(pid(i))).collect();
        drive(&mut managers);
        let outs = managers[0].on_msg(
            0,
            pid(2),
            CtMsg::Estimate {
                round: 5,
                est: 9,
                ts: 0,
            },
        );
        assert!(matches!(
            outs.as_slice(),
            [ManagerOut::Send { to, msg: CtMsg::Decide { .. }, .. }] if *to == pid(2)
        ));
    }

    #[test]
    fn late_ack_is_not_answered_by_the_coordinator_that_told_everyone() {
        let mut managers: Vec<ConsensusManager<u32>> =
            (0..3).map(|i| ConsensusManager::new(pid(i))).collect();
        drive(&mut managers);
        // p0 decided both instances as coordinator and sent the decision to
        // every participant: the ack that arrives after the majority is
        // not owed another copy.
        let outs = managers[0].on_msg(0, pid(2), CtMsg::Ack { round: 0 });
        assert!(outs.is_empty());
        // p1 only learned it: an ack addressed to p1 comes from a process
        // that waits for p1's decision.
        let outs = managers[1].on_msg(0, pid(2), CtMsg::Ack { round: 1 });
        assert_eq!(outs.len(), 1);
    }

    #[test]
    fn pull_for_a_decided_instance_is_answered_from_the_cache() {
        let ids: Arc<[ProcessId]> = (0..3).map(pid).collect();
        let mut managers: Vec<ConsensusManager<u32>> =
            (0..3).map(|i| ConsensusManager::new(pid(i))).collect();
        drive(&mut managers);
        // Round 0 is silent for a non-coordinator that opens an instance...
        let mut quiet: ConsensusManager<u32> = ConsensusManager::new(pid(2));
        assert!(quiet.propose(1, 99, &ids, pid(0), false).is_empty());
        // ...unless it opens it behind, as a process that never saw
        // instance 1 (a joiner, say) does: one estimate to the round-0
        // coordinator.
        let mut late: ConsensusManager<u32> = ConsensusManager::new(pid(2));
        let outs = late.propose(1, 99, &ids, pid(0), true);
        let [ManagerOut::Send {
            to,
            instance: 1,
            msg,
        }] = outs.as_slice()
        else {
            panic!("expected one pull: {outs:?}");
        };
        assert_eq!(*to, pid(0));
        assert!(matches!(msg, CtMsg::Estimate { round: 0, .. }));
        let reply = managers[0].on_msg(1, pid(2), msg.clone());
        let [ManagerOut::Send {
            msg: decide @ CtMsg::Decide { .. },
            ..
        }] = reply.as_slice()
        else {
            panic!("expected the cached decision: {reply:?}");
        };
        let outs = late.on_msg(1, pid(0), decide.clone());
        assert!(matches!(
            outs.as_slice(),
            [ManagerOut::Decided { instance: 1, value }] if Some(value) == managers[0].decision(1)
        ));
        // Pulling an unknown or a decided instance is a no-op.
        let mut none = Vec::new();
        late.pull_into(1, &mut none);
        late.pull_into(7, &mut none);
        assert!(none.is_empty());
    }

    #[test]
    fn newest_decision_learned_from_a_peer_is_relayed_once_it_is_suspected() {
        let mut managers: Vec<ConsensusManager<u32>> =
            (0..20).map(|i| ConsensusManager::new(pid(i))).collect();
        drive(&mut managers);
        // p1 learned instances 0 and 1 from p0's `Decide`s. p0 may have
        // crashed while sending the last one: relay that one — to the
        // ⌈log₂ 21⌉ = 5 ring successors of a group of 20 — and only once.
        let outs = managers[1].suspect(pid(0));
        let to: Vec<ProcessId> = outs
            .iter()
            .map(|o| match o {
                ManagerOut::Send {
                    to,
                    instance: 1,
                    msg: CtMsg::Decide { .. },
                } => *to,
                _ => panic!("expected decisions of instance 1: {outs:?}"),
            })
            .collect();
        assert_eq!(to, (2..7).map(pid).collect::<Vec<_>>());
        managers[1].restore(pid(0));
        assert!(managers[1].suspect(pid(0)).is_empty());
        // p0 learned nothing from anybody.
        assert!(managers[0].suspect(pid(1)).is_empty());
    }

    #[test]
    fn decision_learned_from_a_suspected_peer_is_relayed_on_receipt() {
        let mut net = Net::new((0..4).map(|i| ConsensusManager::new(pid(i))).collect());
        for i in 0..4 {
            net.give(pid(i), 1);
        }
        net.run_where(|w| !matches!(w.3, CtMsg::Decide { .. }));
        assert_eq!(net.decided.len(), 1, "only p0 decided so far");
        // p1 suspects p0 before the decision arrives; p0's `Decide` reaches
        // nobody else.
        net.suspect(pid(1), pid(0));
        net.queue
            .retain(|w| !(matches!(w.3, CtMsg::Decide { .. }) && w.1 != pid(1)));
        net.run();
        assert_eq!(net.decided.len(), 4, "p1 relayed to p2 and p3");
        // p2 learned it from p1, not from p0; p1 relayed already.
        for i in 1..4 {
            assert!(net.managers[i].suspect(pid(0)).is_empty());
        }
    }

    #[test]
    fn member_cut_off_from_a_deciding_coordinator_is_not_stranded() {
        // p4 and p0 cannot talk. p4 suspects p0, abandons round 0 of
        // instance 0 and acks p1's round-1 proposal; p0 then decides on
        // round-0 acks and p1 learns that with p4's ack in hand. p0 goes on
        // to decide instance 1 the same way, and crashes: the relay on
        // suspicion carries only the newest decision learned from p0, so
        // instance 0 must have reached p4 by the instance's own rules.
        let cut = |w: &Wire| (w.0 == pid(0) && w.1 == pid(4)) || (w.0 == pid(4) && w.1 == pid(0));
        let mut net = Net::new((0..5).map(|i| ConsensusManager::new(pid(i))).collect());
        net.suspect(pid(4), pid(0));
        for i in 0..5 {
            net.give(pid(i), 1);
        }
        net.run_where(|w| !cut(w) && matches!(w.3, CtMsg::Propose { round: 0, .. }));
        net.run_where(|w| !cut(w) && !matches!(w.3, CtMsg::Ack { .. }));
        net.run_where(|w| w.0 == pid(4) && matches!(w.3, CtMsg::Ack { round: 1 }));
        net.run_where(|w| matches!(w.3, CtMsg::Ack { round: 0 }));
        assert_eq!(net.decided.len(), 1, "p0 decided on round-0 acks");
        net.run_where(|w| !cut(w) && matches!(w.3, CtMsg::Decide { .. }));
        assert_eq!(net.decided.get(&(4, 0)), Some(&own(0, 0)), "p1 told p4");
        net.run_where(|w| !cut(w));
        // Instance 1 among p0..p3 (p4 has nothing to order): p0 decides.
        for i in 0..4 {
            net.give(pid(i), 1);
        }
        net.run_where(|w| !cut(w));
        assert_eq!(net.decided.get(&(3, 1)), Some(&own(1, 0)));
        assert!(!net.decided.contains_key(&(4, 1)));
        net.crashed.insert(pid(0));
        for i in 1..5 {
            net.suspect(pid(i), pid(0));
        }
        net.run();
        assert_eq!(
            net.decided.get(&(4, 1)),
            Some(&own(1, 0)),
            "relayed on suspicion"
        );
        assert_eq!(net.decided.len(), 10);
    }

    #[test]
    fn prune_drops_old_decisions() {
        let mut managers: Vec<ConsensusManager<u32>> =
            (0..3).map(|i| ConsensusManager::new(pid(i))).collect();
        drive(&mut managers);
        managers[0].prune_below(1);
        assert!(managers[0].decision(0).is_none());
        assert!(managers[0].decision(1).is_some());
        assert_eq!(managers[0].pruned_below(), 1);
    }

    #[test]
    fn messages_below_the_prune_floor_are_dropped_not_parked() {
        let mut managers: Vec<ConsensusManager<u32>> =
            (0..3).map(|i| ConsensusManager::new(pid(i))).collect();
        drive(&mut managers);
        managers[0].prune_below(1);
        let outs = managers[0].on_msg(
            0,
            pid(2),
            CtMsg::Estimate {
                round: 0,
                est: 9,
                ts: 0,
            },
        );
        assert!(outs.is_empty(), "no catch-up reply for a pruned instance");
        assert!(
            managers[0].parked.is_empty(),
            "pruned-instance traffic is dropped"
        );
        // The floor is monotonic: lowering it is a no-op.
        managers[0].prune_below(0);
        assert_eq!(managers[0].pruned_below(), 1);
    }

    #[test]
    fn suspicion_applies_to_running_and_future_instances() {
        let ids: Arc<[ProcessId]> = (0..3).map(pid).collect();
        let mut m: ConsensusManager<u32> = ConsensusManager::new(pid(1));
        let _ = m.suspect(pid(0));
        // New instance: round 0's coordinator (p0) is pre-suspected, so the
        // propose immediately abandons round 0 — telling everyone — and
        // enters round 1, which p1 coordinates itself (no estimate on the
        // wire for its own value).
        let outs = m.propose(0, 42, &ids, pid(0), false);
        let told: Vec<ProcessId> = outs
            .iter()
            .map(|o| match o {
                ManagerOut::Send {
                    to,
                    instance: 0,
                    msg: CtMsg::Nack { round: 0 },
                } => *to,
                other => panic!("expected only the nack broadcast: {other:?}"),
            })
            .collect();
        assert_eq!(told, vec![pid(0), pid(2)]);
    }

    /// Delivers the `pick`-th queued message (modulo the queue length).
    fn step(net: &mut Net, pick: usize) {
        if net.queue.is_empty() {
            return;
        }
        let i = pick % net.queue.len();
        let w = net.queue[i].clone();
        net.run_where(move |q| *q == w);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Three instances among `n` managers, every one started with the
        /// same round-0 coordinator `first` — drawn per run, and possibly
        /// the process that crashes part-way through — under a random
        /// delivery order, each process opening an instance once it decided
        /// the one before: each instance decides one value everywhere, and
        /// once every survivor suspects the crashed process, every survivor
        /// decides every instance.
        #[test]
        fn instances_agree_whatever_their_round_0_coordinator(
            n in 3u32..6,
            first in 0u32..5,
            crash in proptest::option::of((0u32..5, 0usize..200)),
            picks in proptest::collection::vec(0usize..1_000, 0..200),
        ) {
            let managers = (0..n).map(|i| ConsensusManager::new(pid(i))).collect();
            let mut net = Net::with_first(managers, pid(first % n));
            for i in 0..n {
                net.give(pid(i), 3);
            }
            let crash = crash.map(|(victim, at)| (pid(victim % n), at));
            for (k, &pick) in picks.iter().enumerate() {
                if let Some((victim, _)) = crash.filter(|&(_, at)| at == k) {
                    net.crashed.insert(victim);
                }
                step(&mut net, pick);
            }
            if let Some((victim, _)) = crash {
                net.crashed.insert(victim);
                for i in (0..n).map(pid).filter(|&i| i != victim) {
                    net.suspect(i, victim);
                }
            }
            net.run();
            for instance in 0..3 {
                let values: HashSet<u32> = net
                    .decided
                    .iter()
                    .filter(|((_, k), _)| *k == instance)
                    .map(|(_, &v)| v)
                    .collect();
                proptest::prop_assert_eq!(values.len(), 1, "instance {}: {:?}", instance, values);
                for i in (0..n).map(pid).filter(|p| !net.crashed.contains(p)) {
                    proptest::prop_assert!(
                        net.decided.contains_key(&(i.index(), instance)),
                        "{:?} did not decide instance {}", i, instance
                    );
                }
            }
        }

        /// The decision window against a map. A network of window-backed
        /// managers and one of map-backed ones run one script: processes
        /// given something to order at random (each opens its instances in
        /// order, one at a time), deliveries in random order, prunes at
        /// random floors, suspicions of the round-0 coordinator, and
        /// replays of messages delivered before — late duplicates, some for
        /// decided or pruned instances. After every step the two hold the
        /// same messages in flight and the same decisions, and every
        /// manager answers `decision`, `has_instance` and `pruned_below`
        /// alike.
        #[test]
        fn the_decision_window_answers_as_the_map_did(
            n in 3u32..6,
            script in proptest::collection::vec((0u8..8, 0usize..1_000, 0u64..10), 0..300),
        ) {
            let net = |map: bool| {
                Net::new(
                    (0..n)
                        .map(|i| ConsensusManager::new(pid(i)))
                        .map(|m| if map { m.with_map_cache() } else { m })
                        .collect(),
                )
            };
            let (mut window, mut map) = (net(false), net(true));
            let mut delivered: Vec<Wire> = Vec::new();
            let compare = |window: &Net, map: &Net| -> Result<(), proptest::TestCaseError> {
                proptest::prop_assert_eq!(&window.queue, &map.queue);
                proptest::prop_assert_eq!(&window.decided, &map.decided);
                for (a, b) in window.managers.iter().zip(&map.managers) {
                    proptest::prop_assert_eq!(a.pruned_below(), b.pruned_below());
                    for k in 0..12 {
                        proptest::prop_assert_eq!(a.decision(k), b.decision(k));
                        proptest::prop_assert_eq!(a.has_instance(k), b.has_instance(k));
                    }
                }
                Ok(())
            };
            for (action, pick, instance) in script {
                let p = pid(pick as u32 % n);
                match action {
                    0 | 1 => {
                        window.give(p, 1);
                        map.give(p, 1);
                    }
                    2 => {
                        window.managers[p.index()].prune_below(instance);
                        map.managers[p.index()].prune_below(instance);
                    }
                    3 if !delivered.is_empty() => {
                        let late = delivered[pick % delivered.len()].clone();
                        window.deliver(late.clone());
                        map.deliver(late);
                    }
                    4 if p != pid(0) => {
                        window.suspect(p, pid(0));
                        map.suspect(p, pid(0));
                    }
                    _ if !window.queue.is_empty() => {
                        delivered.push(window.queue[pick % window.queue.len()].clone());
                        step(&mut window, pick);
                        step(&mut map, pick);
                    }
                    _ => {}
                }
                compare(&window, &map)?;
            }
            window.run();
            map.run();
            compare(&window, &map)?;
        }
    }
}

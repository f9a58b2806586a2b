//! Repeated consensus: the service atomic broadcast is built on.

use std::collections::BTreeMap;

use gcs_kernel::{FxHashMap, FxHashSet, ProcessId};

use crate::chandra_toueg::{answers_with_decision, relay_targets, CtConsensus, CtMsg, CtOut};
use crate::Value;

/// Identifies one consensus instance (atomic broadcast runs instance
/// `0, 1, 2, …` — one per delivered batch).
pub type InstanceId = u64;

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
}

/// A cached decision.
#[derive(Debug)]
struct Cached<V> {
    value: V,
    /// Whether this process sent the decision to every participant itself
    /// (it decided as coordinator): late acks then need no answer.
    sent_to_all: bool,
}

/// Manages a sequence of consensus instances: creation on proposal,
/// decision caching, catch-up replies for lagging peers, and propagation of
/// the failure-detector suspicion set to every live instance.
#[derive(Debug)]
pub struct ConsensusManager<V> {
    me: ProcessId,
    instances: BTreeMap<InstanceId, CtConsensus<V>>,
    decisions: BTreeMap<InstanceId, Cached<V>>,
    suspected: FxHashSet<ProcessId>,
    /// Per peer, the newest decision learned from a `Decide` of that peer
    /// which nobody here relayed, with its instance's participants. Should
    /// the peer become suspected it may have crashed part-way through that
    /// broadcast, so the decision is relayed then. One entry per peer is
    /// enough: whoever also missed an older decision sees the relayed one
    /// as traffic ahead of its cursor and pulls what lies between.
    unrelayed: FxHashMap<ProcessId, (InstanceId, Vec<ProcessId>)>,
    /// Decisions below this instance were pruned: messages for them are
    /// dropped (not buffered) — a peer that far behind recovers via state
    /// transfer, not per-instance catch-up.
    pruned_below: InstanceId,
    /// Reused buffer for instance outputs: steady-state message handling
    /// allocates no per-call `Vec`.
    ct_scratch: Vec<CtOut<V>>,
    /// Decide-echo fan-out handed to every created instance (see
    /// [`CtConsensus::with_echo_fanout`]).
    echo_fanout: Option<usize>,
}

impl<V: Value> ConsensusManager<V> {
    /// Creates a manager for process `me`.
    pub fn new(me: ProcessId) -> Self {
        Self::with_echo_fanout(me, None)
    }

    /// Creates a manager whose instances echo decisions with the given
    /// bounded fan-out (`None` = echo to every participant).
    pub fn with_echo_fanout(me: ProcessId, echo_fanout: Option<usize>) -> Self {
        ConsensusManager {
            me,
            instances: BTreeMap::new(),
            decisions: BTreeMap::new(),
            suspected: FxHashSet::default(),
            unrelayed: FxHashMap::default(),
            pruned_below: 0,
            ct_scratch: Vec::new(),
            echo_fanout,
        }
    }

    /// Whether `instance` exists locally (running or decided).
    pub fn has_instance(&self, instance: InstanceId) -> bool {
        self.instances.contains_key(&instance) || self.decisions.contains_key(&instance)
    }

    /// The cached decision of `instance`, if it decided locally.
    pub fn decision(&self, instance: InstanceId) -> Option<&V> {
        self.decisions.get(&instance).map(|c| &c.value)
    }

    /// Proposes `value` for `instance` among `participants`.
    ///
    /// Creates the instance if needed (idempotent otherwise; the
    /// participant slice is only copied on creation) and seeds it with the
    /// current suspicion set.
    pub fn propose(
        &mut self,
        instance: InstanceId,
        value: V,
        participants: &[ProcessId],
    ) -> Vec<ManagerOut<V>> {
        let mut out = Vec::new();
        self.propose_into(instance, value, participants, &mut out);
        out
    }

    /// [`propose`](Self::propose), appending into a caller-owned buffer
    /// (the hot-path entry point).
    pub fn propose_into(
        &mut self,
        instance: InstanceId,
        value: V,
        participants: &[ProcessId],
        out: &mut Vec<ManagerOut<V>>,
    ) {
        if self.decisions.contains_key(&instance) {
            return;
        }
        let (me, echo_fanout, suspected) = (self.me, self.echo_fanout, &self.suspected);
        let inst = self.instances.entry(instance).or_insert_with(|| {
            let mut c = CtConsensus::with_echo_fanout(me, participants.to_vec(), echo_fanout);
            c.seed_suspicions(suspected);
            c
        });
        let mut scratch = std::mem::take(&mut self.ct_scratch);
        inst.propose_into(value, &mut scratch);
        self.collect(instance, &mut scratch, out);
        self.ct_scratch = scratch;
    }

    /// Pulls the outcome of `instance` from its round-0 coordinator if this
    /// process still waits there without a proposal (see
    /// [`CtConsensus::pull_into`]) — for a caller that has reason to think
    /// it is behind. No-op for an unknown or decided instance.
    pub fn pull_into(&mut self, instance: InstanceId, out: &mut Vec<ManagerOut<V>>) {
        let Some(inst) = self.instances.get_mut(&instance) else {
            return;
        };
        let mut scratch = std::mem::take(&mut self.ct_scratch);
        inst.pull_into(&mut scratch);
        self.collect(instance, &mut scratch, out);
        self.ct_scratch = scratch;
    }

    /// Handles an instance-tagged message.
    ///
    /// Messages for decided instances are answered with the cached decision
    /// (all but a `Decide`, and an `Ack` for a decision this process already
    /// sent to everyone); messages for unknown instances must be buffered by
    /// the caller until
    /// it proposes for that instance (the caller — atomic broadcast — knows
    /// the participant set, the manager does not). In that buffering case
    /// the message is handed back, so the caller does not have to clone
    /// defensively up front.
    pub fn on_msg(
        &mut self,
        instance: InstanceId,
        from: ProcessId,
        msg: CtMsg<V>,
    ) -> (Vec<ManagerOut<V>>, Option<CtMsg<V>>) {
        let mut out = Vec::new();
        let rejected = self.on_msg_into(instance, from, msg, &mut out);
        (out, rejected)
    }

    /// [`on_msg`](Self::on_msg), appending into a caller-owned buffer (the
    /// hot-path entry point). Returns the message back when it must be
    /// buffered by the caller.
    pub fn on_msg_into(
        &mut self,
        instance: InstanceId,
        from: ProcessId,
        msg: CtMsg<V>,
        out: &mut Vec<ManagerOut<V>>,
    ) -> Option<CtMsg<V>> {
        if let Some(c) = self.decisions.get(&instance) {
            if answers_with_decision(&msg, c.sent_to_all) {
                out.push(ManagerOut::Send {
                    to: from,
                    instance,
                    msg: CtMsg::Decide {
                        est: c.value.clone(),
                    },
                });
            }
            return None;
        }
        if instance < self.pruned_below {
            // The decision existed once but was pruned: buffering would
            // leak forever (atomic broadcast never starts instances behind
            // its cursor), so drop — the sender is beyond the catch-up
            // window and recovers by state transfer.
            return None;
        }
        let Some(inst) = self.instances.get_mut(&instance) else {
            return Some(msg);
        };
        let mut scratch = std::mem::take(&mut self.ct_scratch);
        inst.on_msg_into(from, msg, &mut scratch);
        self.collect(instance, &mut scratch, out);
        self.ct_scratch = scratch;
        None
    }

    /// Records a suspicion, forwards it to every running instance, and
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
        let ids: Vec<InstanceId> = self.instances.keys().copied().collect();
        let mut scratch = std::mem::take(&mut self.ct_scratch);
        for id in ids {
            self.instances
                .get_mut(&id)
                .expect("listed")
                .suspect_into(p, &mut scratch);
            self.collect(id, &mut scratch, out);
        }
        self.ct_scratch = scratch;
        if let Some((instance, participants)) = self.unrelayed.remove(&p) {
            if let Some(c) = self.decisions.get(&instance) {
                for to in relay_targets(&participants, self.me, p, self.echo_fanout) {
                    out.push(ManagerOut::Send {
                        to,
                        instance,
                        msg: CtMsg::Decide {
                            est: c.value.clone(),
                        },
                    });
                }
            }
        }
    }

    /// Clears a suspicion (future instances start without it; running
    /// instances stop nacking its rounds).
    pub fn restore(&mut self, p: ProcessId) {
        self.suspected.remove(&p);
        for inst in self.instances.values_mut() {
            inst.restore(p);
        }
    }

    /// Drops state of decided instances below `floor` and records the floor
    /// (monotonic): later messages for pruned instances are dropped rather
    /// than handed back for buffering. The caller guarantees peers that far
    /// behind recover some other way (state transfer), keeping decision
    /// memory bounded on long pipelined runs.
    pub fn prune_below(&mut self, floor: InstanceId) {
        if floor <= self.pruned_below {
            return;
        }
        self.pruned_below = floor;
        self.decisions = self.decisions.split_off(&floor);
    }

    /// The current prune floor (0 when nothing was ever pruned).
    pub fn pruned_below(&self) -> InstanceId {
        self.pruned_below
    }

    /// Drains instance outputs (leaving `outs` empty for reuse) into
    /// manager outputs, caching decisions.
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
                    let inst = self.instances.remove(&instance).expect("it just decided");
                    self.decisions.insert(
                        instance,
                        Cached {
                            value: v.clone(),
                            sent_to_all: inst.sent_decision_to_all(),
                        },
                    );
                    if let Some(origin) = inst.learned_from() {
                        let newest = self
                            .unrelayed
                            .get(&origin)
                            .is_none_or(|(k, _)| *k < instance);
                        if newest {
                            self.unrelayed
                                .insert(origin, (instance, inst.into_participants()));
                        }
                    }
                    res.push(ManagerOut::Decided { instance, value: v });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn drive(managers: &mut [ConsensusManager<u32>]) -> BTreeMap<(usize, InstanceId), u32> {
        let mut queue: std::collections::VecDeque<(ProcessId, ProcessId, InstanceId, CtMsg<u32>)> =
            Default::default();
        let mut decided = BTreeMap::new();
        // Kick off: everyone proposes for instance 0 and 1.
        let ids: Vec<ProcessId> = (0..managers.len() as u32).map(pid).collect();
        for (i, m) in managers.iter_mut().enumerate() {
            for inst in 0..2 {
                for o in m.propose(inst, (10 * (inst + 1)) as u32 + i as u32, &ids) {
                    match o {
                        ManagerOut::Send { to, instance, msg } => {
                            queue.push_back((pid(i as u32), to, instance, msg))
                        }
                        ManagerOut::Decided { instance, value } => {
                            decided.insert((i, instance), value);
                        }
                    }
                }
            }
        }
        let mut steps = 0;
        while let Some((from, to, instance, msg)) = queue.pop_front() {
            steps += 1;
            assert!(steps < 100_000);
            let (outs, rejected) = managers[to.index()].on_msg(instance, from, msg);
            assert!(rejected.is_none(), "nothing should need buffering here");
            for o in outs {
                match o {
                    ManagerOut::Send {
                        to: t,
                        instance,
                        msg,
                    } => queue.push_back((to, t, instance, msg)),
                    ManagerOut::Decided { instance, value } => {
                        decided.insert((to.index(), instance), value);
                    }
                }
            }
        }
        decided
    }

    #[test]
    fn independent_instances_decide_independently() {
        let mut managers: Vec<ConsensusManager<u32>> =
            (0..3).map(|i| ConsensusManager::new(pid(i))).collect();
        let decided = drive(&mut managers);
        // Every process decided both instances.
        assert_eq!(decided.len(), 6);
        for inst in 0..2u64 {
            let vals: std::collections::HashSet<u32> = (0..3)
                .map(|p| *decided.get(&(p, inst)).expect("decided"))
                .collect();
            assert_eq!(vals.len(), 1, "instance {inst} disagreement");
        }
        // Decisions are cached.
        assert!(managers[0].decision(0).is_some());
        assert!(managers[0].has_instance(1));
    }

    #[test]
    fn unknown_instance_requests_buffering() {
        let mut m: ConsensusManager<u32> = ConsensusManager::new(pid(0));
        let (outs, rejected) = m.on_msg(
            7,
            pid(1),
            CtMsg::Estimate {
                round: 0,
                est: 1,
                ts: 0,
            },
        );
        assert!(outs.is_empty());
        assert!(matches!(rejected, Some(CtMsg::Estimate { .. })));
    }

    #[test]
    fn decided_instance_answers_with_decision() {
        let mut managers: Vec<ConsensusManager<u32>> =
            (0..3).map(|i| ConsensusManager::new(pid(i))).collect();
        drive(&mut managers);
        let (outs, rejected) = managers[0].on_msg(
            0,
            pid(2),
            CtMsg::Estimate {
                round: 5,
                est: 9,
                ts: 0,
            },
        );
        assert!(rejected.is_none());
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
        let (outs, rejected) = managers[0].on_msg(0, pid(2), CtMsg::Ack { round: 0 });
        assert!(outs.is_empty() && rejected.is_none());
        // p1 only learned it: an ack addressed to p1 comes from a process
        // that waits for p1's decision.
        let (outs, _) = managers[1].on_msg(0, pid(2), CtMsg::Ack { round: 1 });
        assert_eq!(outs.len(), 1);
    }

    #[test]
    fn pull_for_a_decided_instance_is_answered_from_the_cache() {
        let ids: Vec<ProcessId> = (0..3).map(pid).collect();
        let mut managers: Vec<ConsensusManager<u32>> =
            (0..3).map(|i| ConsensusManager::new(pid(i))).collect();
        drive(&mut managers);
        // A process that never saw instance 1 (a joiner, say) opens it and
        // pulls: one estimate to the round-0 coordinator.
        let mut late: ConsensusManager<u32> = ConsensusManager::new(pid(2));
        let mut outs = late.propose(1, 99, &ids);
        assert!(outs.is_empty(), "round 0 is silent for a non-coordinator");
        late.pull_into(1, &mut outs);
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
        let (reply, _) = managers[0].on_msg(1, pid(2), msg.clone());
        let [ManagerOut::Send {
            msg: decide @ CtMsg::Decide { .. },
            ..
        }] = reply.as_slice()
        else {
            panic!("expected the cached decision: {reply:?}");
        };
        let (outs, _) = late.on_msg(1, pid(0), decide.clone());
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
        let mut managers: Vec<ConsensusManager<u32>> = (0..3)
            .map(|i| ConsensusManager::with_echo_fanout(pid(i), Some(1)))
            .collect();
        drive(&mut managers);
        // p1 learned instances 0 and 1 from p0's `Decide`s. p0 may have
        // crashed while sending the last one: relay that one — to one ring
        // successor, the configured fan-out — and only once.
        let outs = managers[1].suspect(pid(0));
        assert!(matches!(
            outs.as_slice(),
            [ManagerOut::Send { to, instance: 1, msg: CtMsg::Decide { .. } }] if *to == pid(2)
        ));
        managers[1].restore(pid(0));
        assert!(managers[1].suspect(pid(0)).is_empty());
        // p0 learned nothing from anybody.
        assert!(managers[0].suspect(pid(1)).is_empty());
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
    fn messages_below_the_prune_floor_are_dropped_not_buffered() {
        let mut managers: Vec<ConsensusManager<u32>> =
            (0..3).map(|i| ConsensusManager::new(pid(i))).collect();
        drive(&mut managers);
        managers[0].prune_below(1);
        let (outs, rejected) = managers[0].on_msg(
            0,
            pid(2),
            CtMsg::Estimate {
                round: 0,
                est: 9,
                ts: 0,
            },
        );
        assert!(outs.is_empty(), "no catch-up reply for a pruned instance");
        assert!(rejected.is_none(), "pruned-instance traffic is dropped");
        // The floor is monotonic: lowering it is a no-op.
        managers[0].prune_below(0);
        assert_eq!(managers[0].pruned_below(), 1);
    }

    #[test]
    fn suspicion_applies_to_running_and_future_instances() {
        let ids: Vec<ProcessId> = (0..3).map(pid).collect();
        let mut m: ConsensusManager<u32> = ConsensusManager::new(pid(1));
        let _ = m.suspect(pid(0));
        // New instance: round 0's coordinator (p0) is pre-suspected, so the
        // propose immediately abandons round 0 — telling everyone — and
        // enters round 1, which p1 coordinates itself (no estimate on the
        // wire for its own value).
        let outs = m.propose(0, 42, &ids);
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
}

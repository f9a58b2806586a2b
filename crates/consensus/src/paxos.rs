//! Single-decree Paxos with rotating proposers — the consensus ablation.
//!
//! Experiment A1 swaps this in for Chandra-Toueg to show the new
//! architecture is agnostic to its consensus component. The mapping of
//! roles: every participant is proposer, acceptor and learner; the proposer
//! of ballot `b` is `participants[b mod n]`, and a process starts its own
//! ballot when the failure detector suspects the current proposer (the same
//! ◇S-style leader demotion CT uses for coordinator rotation).

use std::collections::{HashMap, HashSet};

use gcs_kernel::ProcessId;

use crate::Value;

/// A message of the Paxos protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PaxosMsg<V> {
    /// Phase 1a: proposer of ballot `b` solicits promises.
    Prepare {
        /// The ballot number.
        b: u64,
    },
    /// Phase 1b: acceptor promises not to accept ballots below `b` and
    /// reports its most recently accepted value.
    Promise {
        /// The promised ballot.
        b: u64,
        /// The acceptor's highest accepted `(ballot, value)`, if any.
        accepted: Option<(u64, V)>,
    },
    /// Phase 2a: proposer asks acceptors to accept `v` at ballot `b`.
    Accept {
        /// The ballot number.
        b: u64,
        /// The value (highest-ballot reported value, or the proposer's own).
        v: V,
    },
    /// Phase 2b: acceptor accepted ballot `b`.
    Accepted {
        /// The accepted ballot.
        b: u64,
    },
    /// An acceptor already promised a higher ballot.
    Reject {
        /// The rejected ballot.
        b: u64,
        /// The ballot the acceptor has promised.
        promised: u64,
    },
    /// The decision, spread by echo.
    Decide {
        /// The decided value.
        v: V,
    },
}

impl<V> PaxosMsg<V> {
    /// Short label of the message family (for metrics).
    pub fn kind(&self) -> &'static str {
        match self {
            PaxosMsg::Prepare { .. } => "paxos/prepare",
            PaxosMsg::Promise { .. } => "paxos/promise",
            PaxosMsg::Accept { .. } => "paxos/accept",
            PaxosMsg::Accepted { .. } => "paxos/accepted",
            PaxosMsg::Reject { .. } => "paxos/reject",
            PaxosMsg::Decide { .. } => "paxos/decide",
        }
    }
}

/// An instruction produced by a Paxos instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PaxosOut<V> {
    /// Send `msg` to `to` over the reliable channel.
    Send {
        /// Destination participant.
        to: ProcessId,
        /// The protocol message.
        msg: PaxosMsg<V>,
    },
    /// This instance decided (emitted exactly once).
    Decided(V),
}

/// One instance of single-decree Paxos with ◇S-driven proposer rotation.
#[derive(Debug)]
pub struct PaxosConsensus<V> {
    me: ProcessId,
    participants: Vec<ProcessId>,
    majority: usize,

    started: bool,
    initial: Option<V>,
    decided: bool,

    /// Acceptor: highest promised ballot (None = none yet).
    promised: Option<u64>,
    /// Acceptor: highest accepted (ballot, value).
    accepted: Option<(u64, V)>,

    /// The ballot this process believes is current.
    current: u64,
    /// Proposer: promises gathered for my in-flight ballot.
    promises: HashMap<u64, HashMap<ProcessId, Option<(u64, V)>>>,
    /// Proposer: accepts gathered for my in-flight ballot.
    accepts: HashMap<u64, HashSet<ProcessId>>,
    /// Proposer: the value sent in phase 2a of my ballot.
    chosen_for: HashMap<u64, V>,
    suspected: HashSet<ProcessId>,
}

impl<V: Value> PaxosConsensus<V> {
    /// Creates an instance for `me` among `participants`.
    ///
    /// # Panics
    ///
    /// Panics if `participants` does not contain `me`.
    pub fn new(me: ProcessId, mut participants: Vec<ProcessId>) -> Self {
        participants.sort_unstable();
        participants.dedup();
        assert!(participants.contains(&me), "{me:?} not among participants");
        let majority = participants.len() / 2 + 1;
        PaxosConsensus {
            me,
            participants,
            majority,
            started: false,
            initial: None,
            decided: false,
            promised: None,
            accepted: None,
            current: 0,
            promises: HashMap::new(),
            accepts: HashMap::new(),
            chosen_for: HashMap::new(),
            suspected: HashSet::new(),
        }
    }

    fn proposer(&self, b: u64) -> ProcessId {
        self.participants[(b % self.participants.len() as u64) as usize]
    }

    /// Proposes an initial value. Idempotent.
    pub fn propose(&mut self, v: V) -> Vec<PaxosOut<V>> {
        if self.started {
            return Vec::new();
        }
        self.started = true;
        self.initial = Some(v);
        let mut out = Vec::new();
        self.advance_if_needed(&mut out);
        if self.proposer(self.current) == self.me {
            self.start_ballot(self.current, &mut out);
        }
        out
    }

    /// Records a suspicion; may rotate the proposer.
    pub fn suspect(&mut self, p: ProcessId) -> Vec<PaxosOut<V>> {
        self.suspected.insert(p);
        let mut out = Vec::new();
        if self.started && !self.decided {
            self.advance_if_needed(&mut out);
        }
        out
    }

    /// Clears a suspicion.
    pub fn restore(&mut self, p: ProcessId) {
        self.suspected.remove(&p);
    }

    /// While the current ballot's proposer is suspected, move to the next;
    /// start it if it is ours.
    fn advance_if_needed(&mut self, out: &mut Vec<PaxosOut<V>>) {
        while self.suspected.contains(&self.proposer(self.current)) {
            self.current += 1;
        }
        if self.proposer(self.current) == self.me {
            self.start_ballot(self.current, out);
        }
    }

    fn start_ballot(&mut self, b: u64, out: &mut Vec<PaxosOut<V>>) {
        if self.promises.contains_key(&b) || self.decided {
            return; // already running (or done)
        }
        self.promises.insert(b, HashMap::new());
        for &p in &self.participants {
            out.push(PaxosOut::Send {
                to: p,
                msg: PaxosMsg::Prepare { b },
            });
        }
    }

    /// Handles a protocol message from `from`.
    pub fn on_msg(&mut self, from: ProcessId, msg: PaxosMsg<V>) -> Vec<PaxosOut<V>> {
        let mut out = Vec::new();
        if self.decided {
            if !matches!(msg, PaxosMsg::Decide { .. }) {
                if let Some((_, v)) = &self.accepted {
                    out.push(PaxosOut::Send {
                        to: from,
                        msg: PaxosMsg::Decide { v: v.clone() },
                    });
                }
            }
            return out;
        }
        match msg {
            PaxosMsg::Prepare { b } => {
                self.current = self.current.max(b);
                if self.promised.is_none_or(|p| b >= p) {
                    self.promised = Some(b);
                    out.push(PaxosOut::Send {
                        to: from,
                        msg: PaxosMsg::Promise {
                            b,
                            accepted: self.accepted.clone(),
                        },
                    });
                } else {
                    out.push(PaxosOut::Send {
                        to: from,
                        msg: PaxosMsg::Reject {
                            b,
                            promised: self.promised.unwrap_or(0),
                        },
                    });
                }
            }
            PaxosMsg::Promise { b, accepted } => {
                if self.proposer(b) == self.me && !self.chosen_for.contains_key(&b) {
                    if let Some(set) = self.promises.get_mut(&b) {
                        set.insert(from, accepted);
                        if set.len() >= self.majority {
                            let v = set
                                .values()
                                .flatten()
                                .max_by_key(|(ab, _)| *ab)
                                .map(|(_, v)| v.clone())
                                .or_else(|| self.initial.clone())
                                .expect("started proposer has an initial value");
                            self.chosen_for.insert(b, v.clone());
                            for &p in &self.participants {
                                out.push(PaxosOut::Send {
                                    to: p,
                                    msg: PaxosMsg::Accept { b, v: v.clone() },
                                });
                            }
                        }
                    }
                }
            }
            PaxosMsg::Accept { b, v } => {
                self.current = self.current.max(b);
                if self.promised.is_none_or(|p| b >= p) {
                    self.promised = Some(b);
                    self.accepted = Some((b, v));
                    out.push(PaxosOut::Send {
                        to: from,
                        msg: PaxosMsg::Accepted { b },
                    });
                } else {
                    out.push(PaxosOut::Send {
                        to: from,
                        msg: PaxosMsg::Reject {
                            b,
                            promised: self.promised.unwrap_or(0),
                        },
                    });
                }
            }
            PaxosMsg::Accepted { b } => {
                if self.proposer(b) == self.me {
                    let acc = self.accepts.entry(b).or_default();
                    acc.insert(from);
                    if acc.len() >= self.majority {
                        if let Some(v) = self.chosen_for.get(&b).cloned() {
                            self.decide(v, &mut out);
                        }
                    }
                }
            }
            PaxosMsg::Reject { b, promised } => {
                if self.proposer(b) == self.me {
                    // Someone promised higher; catch up and retry when it is
                    // our turn again.
                    self.current = self.current.max(promised);
                    let n = self.participants.len() as u64;
                    let mut next = self.current;
                    while self.proposer(next) != self.me {
                        next += 1;
                        if next > self.current + n {
                            break;
                        }
                    }
                    if self.proposer(next) == self.me && next > b {
                        self.current = next;
                        self.start_ballot(next, &mut out);
                    }
                }
            }
            PaxosMsg::Decide { v } => self.decide(v, &mut out),
        }
        out
    }

    fn decide(&mut self, v: V, out: &mut Vec<PaxosOut<V>>) {
        if self.decided {
            return;
        }
        self.decided = true;
        self.accepted = Some((u64::MAX, v.clone()));
        for &p in &self.participants {
            if p != self.me {
                out.push(PaxosOut::Send {
                    to: p,
                    msg: PaxosMsg::Decide { v: v.clone() },
                });
            }
        }
        out.push(PaxosOut::Decided(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    struct Net {
        instances: Vec<PaxosConsensus<u32>>,
        queue: std::collections::VecDeque<(ProcessId, ProcessId, PaxosMsg<u32>)>,
        crashed: HashSet<ProcessId>,
        decisions: HashMap<ProcessId, u32>,
    }

    impl Net {
        fn new(n: u32) -> Self {
            let ids: Vec<ProcessId> = (0..n).map(pid).collect();
            Net {
                instances: ids
                    .iter()
                    .map(|&p| PaxosConsensus::new(p, ids.clone()))
                    .collect(),
                queue: Default::default(),
                crashed: HashSet::new(),
                decisions: HashMap::new(),
            }
        }

        fn apply(&mut self, from: ProcessId, outs: Vec<PaxosOut<u32>>) {
            for o in outs {
                match o {
                    PaxosOut::Send { to, msg } => self.queue.push_back((from, to, msg)),
                    PaxosOut::Decided(v) => {
                        let prev = self.decisions.insert(from, v);
                        assert!(prev.is_none(), "{from:?} decided twice");
                    }
                }
            }
        }

        fn run(&mut self) {
            let mut steps = 0;
            while let Some((from, to, msg)) = self.queue.pop_front() {
                steps += 1;
                assert!(steps < 100_000, "no quiescence");
                if self.crashed.contains(&from) || self.crashed.contains(&to) {
                    continue;
                }
                let outs = self.instances[to.index()].on_msg(from, msg);
                self.apply(to, outs);
            }
        }

        fn check_agreement(&self) -> u32 {
            let vals: HashSet<u32> = self.decisions.values().copied().collect();
            assert_eq!(vals.len(), 1, "disagreement: {:?}", self.decisions);
            *vals.iter().next().unwrap()
        }
    }

    #[test]
    fn failure_free_decides_proposer0_value() {
        let mut net = Net::new(3);
        for i in 0..3 {
            let outs = net.instances[i].propose(50 + i as u32);
            net.apply(pid(i as u32), outs);
        }
        net.run();
        assert_eq!(net.decisions.len(), 3);
        assert_eq!(net.check_agreement(), 50, "ballot-0 proposer's value wins");
    }

    #[test]
    fn proposer_crash_rotates() {
        let mut net = Net::new(3);
        net.crashed.insert(pid(0));
        for i in 1..3 {
            let outs = net.instances[i].propose(60 + i as u32);
            net.apply(pid(i as u32), outs);
        }
        net.run();
        assert!(net.decisions.is_empty());
        for i in 1..3usize {
            let outs = net.instances[i].suspect(pid(0));
            net.apply(pid(i as u32), outs);
        }
        net.run();
        assert_eq!(net.decisions.len(), 2);
        let v = net.check_agreement();
        assert!(v == 61 || v == 62);
    }

    #[test]
    fn five_processes_two_crashes() {
        let mut net = Net::new(5);
        net.crashed.insert(pid(0));
        net.crashed.insert(pid(1));
        for i in 2..5 {
            let outs = net.instances[i].propose(i as u32);
            net.apply(pid(i as u32), outs);
        }
        for q in 0..2 {
            for i in 2..5usize {
                let outs = net.instances[i].suspect(pid(q));
                net.apply(pid(i as u32), outs);
            }
        }
        net.run();
        assert_eq!(net.decisions.len(), 3);
        net.check_agreement();
    }
}

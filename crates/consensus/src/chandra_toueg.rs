//! One instance of Chandra-Toueg ◇S consensus.
//!
//! The algorithm proceeds in asynchronous rounds. An instance is built with
//! its round-0 coordinator `c₀`, and round `r` is coordinated by the `r`-th
//! participant after `c₀` in the sorted participant order (wrapping around):
//! the classic `participants[r mod n]` is `c₀ = participants[0]`.
//!
//! * **Any `c₀` is safe, if every participant builds the instance with the
//!   same one.** The proof of uniform agreement never asks *who* coordinates
//!   a round, only that each round has one coordinator all participants
//!   agree on: then a round proposes at most one value, and a value decided
//!   in round `r` is locked by the majority that adopted it, stamped `r + 1`,
//!   which every later coordinator's majority of estimates intersects. A
//!   caller that picks `c₀` from something all participants already agree
//!   on (atomic broadcast takes it from an earlier decision) keeps that.
//! * **Rotation keeps ◇S liveness.** Whatever `c₀` is, rounds `r … r+n−1`
//!   are coordinated by each participant once, so the rounds still run
//!   through the process ◇S eventually stops suspecting. A crashed `c₀`
//!   costs this instance a suspicion and a round change, never agreement.
//!
//! A failure-free instance costs one proposal and one ack per
//! non-coordinator, and one decision per non-coordinator that cannot decide
//! on its own — every one of them among four participants or more, only the
//! one whose ack came second among three — and nothing else:
//!
//! * **Round 0 has no estimate phase.** Every timestamp is 0 before the
//!   first proposal, so any initial value is a legal pick: the round-0
//!   coordinator proposes its *own* value the moment it starts the instance
//!   and the other participants send nothing until that proposal arrives.
//! * **Round `r ≥ 1`** runs all phases: (1) every process sends its
//!   `(estimate, ts)` to the coordinator; (2) the coordinator gathers a
//!   majority of estimates, selects one with the greatest timestamp and
//!   proposes it; (3) each process acks the proposal (adopting it, stamped
//!   `r + 1`); (4) the coordinator decides on a majority of acks and sends
//!   the decision to every participant that has not decided on its own
//!   (next bullet). A coordinator that itself adopted the proposal of round
//!   `r − 1` skips the gathering, for round 0's reason: its own estimate is
//!   stamped `r`, no estimate can be stamped higher, and all stamped `r`
//!   carry the same value. A coordinator whose
//!   majority holds only estimates stamped 0 knows that nothing was decided
//!   or locked before its round — a decided value is adopted by a majority,
//!   which its majority would intersect — so any value is safe to propose:
//!   it proposes its pick as [`Value::claimed_by`] itself (atomic broadcast
//!   names it there as a later instance's round-0 coordinator).
//! * **An acker that can count a majority decides.** The decision rule —
//!   a majority adopted one round's proposal — holds wherever somebody can
//!   count it, not only at the coordinator. A participant that adopts the
//!   proposal of round `r` knows of two adoptions, both stamped `r + 1`:
//!   the coordinator's, made before it proposed, and its own. Among at most
//!   three participants two are a majority, so the value is locked — every
//!   later round's majority of estimates intersects the pair, and the
//!   greatest stamp it holds carries this value — and the acker decides it
//!   on the spot, as learned from `coord(r)`, one hop before the
//!   coordinator's `Decide` could reach it. The coordinator, which decides
//!   on the first ack, then sends its `Decide` only to the participants
//!   that have not acked a round it coordinated; among three, failure-free,
//!   that is one. Among four or more nothing moves: at five, the other
//!   three are a majority of estimates that misses both adopters; at four
//!   two adoptions would do (2 + 3 > 4), but deciding on fewer than a
//!   majority of adoptions is the flexible-quorum generalisation, not
//!   taken here. A participant that never adopts — it left the round, the
//!   proposal has not reached it, it never started the instance — nacks
//!   or pulls as before, and whoever decided answers it.
//! * **A process that acked round `r` stays in `r`** until it decides. It
//!   leaves for a later round only when it *suspects* `coord(r)` — whether or
//!   not it already answered `r` — or when it *learns that somebody left*
//!   `r`: a `Nack` for a round `≥ r`, or any message of a round `> r`.
//! * **`Nack { round }` means "I abandoned `round`"** and goes from whoever
//!   leaves a round to every participant. That keeps rounds moving when the
//!   nackers alone are fewer than the majority of estimates the next
//!   coordinator needs — the ackers still waiting in `round` follow — and it
//!   means that once one correct process has left a round, every correct
//!   process hears of it, whoever crashed part-way through saying so.
//! * **Nobody echoes a decision.** The deciding coordinator addresses every
//!   participant that did not decide on its own. A process that *learns*
//!   the decision (or decides it as an acker) passes it on to exactly those
//!   that wait on it: whoever acked, or sent an estimate for, a round it
//!   coordinates — it will never decide that round now (none in a
//!   failure-free run). A participant the decision never reached is
//!   undecided and, on leaving its round, is answered with the decision by
//!   any process that has it (everything but an ack is; an ack is answered
//!   unless the receiver addressed everyone itself). That makes every
//!   participant that *started* the instance decide; one that has no reason
//!   to start it is the [`ConsensusManager`](crate::ConsensusManager)'s
//!   business, which relays a learned decision while its sender is
//!   suspected.
//!
//! Safety (uniform agreement, validity) holds with an arbitrary failure
//! detector; termination needs ◇S and `f < n/2`. Messages must travel on
//! reliable links (FIFO is not required).

use std::collections::BTreeMap;
use std::sync::Arc;

use gcs_kernel::{FxHashSet, PositionSet, ProcessId, SmallVec};

use crate::Value;

/// A message of the Chandra-Toueg protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtMsg<V> {
    /// Phase 1 (rounds `≥ 1`): a participant's current estimate, stamped
    /// with the round in which it was last adopted (0 = initial value).
    ///
    /// Round 0 has no estimate phase; a round-0 estimate is a *pull* from a
    /// participant that has reason to think it is behind (see
    /// [`CtConsensus::pull_into`]): an undecided instance ignores it, a
    /// decided one answers with the decision.
    Estimate {
        /// Round this estimate is sent for.
        round: u64,
        /// The estimate.
        est: V,
        /// Adoption stamp (0 for an initial value, `r+1` after adopting the
        /// round-`r` proposal).
        ts: u64,
    },
    /// Phase 2: the coordinator's proposal for `round`.
    Propose {
        /// Round being coordinated.
        round: u64,
        /// The proposed value (round 0: the coordinator's own; later rounds:
        /// a majority-supported, max-timestamp estimate).
        est: V,
    },
    /// Phase 3 reply: the sender adopted the round's proposal.
    Ack {
        /// The acknowledged round.
        round: u64,
    },
    /// The sender abandoned `round` without deciding (sent to every
    /// participant, not only the coordinator).
    Nack {
        /// The abandoned round.
        round: u64,
    },
    /// Phase 4: the decision.
    Decide {
        /// The decided value.
        est: V,
    },
}

impl<V> CtMsg<V> {
    /// Short label of the message family (for metrics).
    pub fn kind(&self) -> &'static str {
        match self {
            CtMsg::Estimate { .. } => "ct/estimate",
            CtMsg::Propose { .. } => "ct/propose",
            CtMsg::Ack { .. } => "ct/ack",
            CtMsg::Nack { .. } => "ct/nack",
            CtMsg::Decide { .. } => "ct/decide",
        }
    }
}

/// An instruction produced by a consensus instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtOut<V> {
    /// Send `msg` to `to` (never `self`) over the reliable channel.
    Send {
        /// Destination participant.
        to: ProcessId,
        /// The protocol message.
        msg: CtMsg<V>,
    },
    /// This instance decided `V` (emitted exactly once).
    Decided(V),
}

/// A round this process coordinated: what it proposed and who acked (by
/// participant position).
#[derive(Debug)]
struct Coordinated<V> {
    round: u64,
    value: V,
    ackers: PositionSet,
}

/// One instance of Chandra-Toueg consensus.
#[derive(Debug)]
pub struct CtConsensus<V> {
    me: ProcessId,
    /// Sorted; shared with the caller when it passes them sorted already.
    participants: Arc<[ProcessId]>,
    /// This process's position in `participants`.
    my_position: usize,
    /// The round-0 coordinator's position in `participants`.
    first: usize,
    majority: usize,

    started: bool,
    estimate: Option<V>,
    ts: u64,
    /// The round this process is in. Only ever grows; before `propose` it
    /// tracks the rounds other processes were seen to abandon.
    round: u64,
    decided: bool,

    /// Whether this process acked `round` (and now waits in it).
    acked: bool,
    /// A proposal for a round `≥ round` not answered yet: it arrived before
    /// `propose`, or it is what this process is jumping to.
    held: Option<(u64, V)>,
    /// Coordinator side: estimates gathered for `round` (ordered by sender
    /// for deterministic tie-breaking).
    estimates: BTreeMap<ProcessId, (V, u64)>,
    /// Coordinator side: the rounds this process proposed in (one, but
    /// after a round change). Acks keep counting after it moved on — a
    /// majority of adoptions decides.
    coordinated: SmallVec<Coordinated<V>, 1>,
    /// Current failure-detector suspicions among the participants, by
    /// position.
    suspected: PositionSet,
    /// After the decision: who it was learned from — the sender of the
    /// `Decide`, or the coordinator whose proposal an acker decided on
    /// adopting (`None`: decided here, as coordinator, and every
    /// participant has it from here or decided on adopting the proposal).
    learned_from: Option<ProcessId>,
}

impl<V: Value> CtConsensus<V> {
    /// Creates an instance for `me` among `participants`, with `first` as
    /// the coordinator of round 0 (see the module docs: every participant
    /// must pass the same one).
    ///
    /// # Panics
    ///
    /// Panics if `participants` does not contain `me` or `first`.
    pub fn new(me: ProcessId, participants: impl Into<Arc<[ProcessId]>>, first: ProcessId) -> Self {
        let mut participants = participants.into();
        if !participants.windows(2).all(|w| w[0] < w[1]) {
            let mut sorted = participants.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            participants = sorted.into();
        }
        let position = |p: ProcessId| participants.binary_search(&p).ok();
        let my_position = position(me).unwrap_or_else(|| panic!("{me:?} not among participants"));
        let first = position(first)
            .unwrap_or_else(|| panic!("round-0 coordinator {first:?} not among participants"));
        let majority = participants.len() / 2 + 1;
        CtConsensus {
            me,
            participants,
            my_position,
            first,
            majority,
            started: false,
            estimate: None,
            ts: 0,
            round: 0,
            decided: false,
            acked: false,
            held: None,
            estimates: BTreeMap::new(),
            coordinated: SmallVec::new(),
            suspected: PositionSet::default(),
            learned_from: None,
        }
    }

    /// The participants of this instance (sorted).
    pub fn participants(&self) -> &[ProcessId] {
        &self.participants
    }

    /// Consumes the instance, keeping its (sorted) participant list.
    pub fn into_participants(self) -> Arc<[ProcessId]> {
        self.participants
    }

    /// The current round (diagnostics).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// After the decision: the process it was learned from — for an acker
    /// that decided on adopting, the proposal's coordinator — or `None` if
    /// this process decided as coordinator and every participant has the
    /// decision from it or decided on adopting its proposal (late acks then
    /// need no answer).
    pub fn learned_from(&self) -> Option<ProcessId> {
        self.learned_from
    }

    /// Position of `p` in the participant list, if it is a participant.
    fn position(&self, p: ProcessId) -> Option<usize> {
        self.participants.binary_search(&p).ok()
    }

    /// Position of the coordinator of `round`: the `round`-th participant
    /// after the round-0 coordinator.
    fn coordinator_position(&self, round: u64) -> usize {
        let n = self.participants.len();
        (self.first + (round % n as u64) as usize) % n
    }

    fn coordinator(&self, round: u64) -> ProcessId {
        self.participants[self.coordinator_position(round)]
    }

    /// Whether the coordinator of `round` is suspected.
    fn coordinator_suspected(&self, round: u64) -> bool {
        self.suspected.contains(self.coordinator_position(round))
    }

    /// Proposes an initial value and starts the instance. Idempotent: only
    /// the first proposal takes effect, and proposing after the decision
    /// was already learned is a no-op.
    pub fn propose(&mut self, v: V) -> Vec<CtOut<V>> {
        let mut out = Vec::new();
        self.propose_into(v, &mut out);
        out
    }

    /// [`propose`](Self::propose), appending into a caller-owned buffer
    /// (the hot-path entry point).
    pub fn propose_into(&mut self, v: V, out: &mut Vec<CtOut<V>>) {
        if self.started || self.decided {
            return;
        }
        self.started = true;
        self.estimate = Some(v);
        self.ts = 0;
        if let Some(r) = self.held.as_ref().map(|(r, _)| *r) {
            if r > self.round {
                self.set_round(r);
            }
        }
        self.begin_round(out);
    }

    /// Pulls the outcome of an instance this process may be late for: if it
    /// still waits in round 0 without a proposal, it sends its estimate to
    /// the round-0 coordinator. A coordinator that decided answers with the
    /// decision, one that has not started the instance starts it, and one
    /// that proposed already addressed this process (reliable links). A
    /// suspected coordinator needs no pull: leaving its round asks everyone.
    pub fn pull_into(&mut self, out: &mut Vec<CtOut<V>>) {
        let coord = self.coordinator(0);
        if !self.started || self.decided || self.round != 0 || self.acked || coord == self.me {
            return;
        }
        out.push(CtOut::Send {
            to: coord,
            msg: CtMsg::Estimate {
                round: 0,
                est: self.own_estimate(),
                ts: self.ts,
            },
        });
    }

    /// Updates the suspicion set with a new suspicion.
    pub fn suspect(&mut self, p: ProcessId) -> Vec<CtOut<V>> {
        let mut out = Vec::new();
        self.suspect_into(p, &mut out);
        out
    }

    /// [`suspect`](Self::suspect), appending into a caller-owned buffer.
    pub fn suspect_into(&mut self, p: ProcessId, out: &mut Vec<CtOut<V>>) {
        // Only a participant can coordinate a round of this instance.
        let Some(position) = self.position(p) else {
            return;
        };
        if p == self.me || !self.suspected.insert(position) {
            return;
        }
        if !self.decided && self.started && self.coordinator_position(self.round) == position {
            // Leave the round whether or not it was acked already.
            self.set_round(self.round + 1);
            self.begin_round(out);
        }
    }

    /// Seeds the suspicion set of an instance that has not started yet with
    /// the participants among `suspected`.
    pub fn seed_suspicions(&mut self, suspected: &FxHashSet<ProcessId>) {
        debug_assert!(!self.started);
        for (position, p) in self.participants.iter().enumerate() {
            if *p != self.me && suspected.contains(p) {
                self.suspected.insert(position);
            }
        }
    }

    /// Removes a suspicion.
    pub fn restore(&mut self, p: ProcessId) {
        if let Some(position) = self.position(p) {
            self.suspected.remove(position);
        }
    }

    /// Handles a protocol message from `from`.
    pub fn on_msg(&mut self, from: ProcessId, msg: CtMsg<V>) -> Vec<CtOut<V>> {
        let mut out = Vec::new();
        self.on_msg_into(from, msg, &mut out);
        out
    }

    /// [`on_msg`](Self::on_msg), appending into a caller-owned buffer (the
    /// hot-path entry point).
    pub fn on_msg_into(&mut self, from: ProcessId, msg: CtMsg<V>, out: &mut Vec<CtOut<V>>) {
        if self.decided {
            if answers_with_decision(&msg, self.learned_from.is_none()) {
                out.push(CtOut::Send {
                    to: from,
                    msg: CtMsg::Decide {
                        est: self.own_estimate(),
                    },
                });
            }
            return;
        }
        match msg {
            CtMsg::Estimate { round, est, ts } => {
                // Round 0 has no estimate phase, and a round this process
                // left is dead: nobody waits for its proposal.
                if round == 0 || round < self.round || self.coordinator(round) != self.me {
                    return;
                }
                self.jump_to(round, out);
                // Once the round's proposal is out, estimates are moot.
                if self.round == round && !self.decided && !self.acked {
                    self.estimates.entry(from).or_insert((est, ts));
                    if self.started {
                        self.maybe_propose(out);
                    }
                }
            }
            CtMsg::Propose { round, est } => {
                if round < self.round || (round == self.round && self.acked) {
                    return;
                }
                if self.held.as_ref().is_none_or(|(r, _)| *r < round) {
                    self.held = Some((round, est));
                }
                if round > self.round {
                    self.jump_to(round, out);
                } else if self.started {
                    self.answer_held(out);
                    if !self.decided && self.coordinator_suspected(round) {
                        self.set_round(round + 1);
                        self.begin_round(out);
                    }
                }
            }
            CtMsg::Ack { round } => {
                // Only a participant's adoption counts.
                let Some(from) = self.position(from) else {
                    return;
                };
                let majority = self.majority;
                let Some(c) = self.coordinated.iter_mut().find(|c| c.round == round) else {
                    return;
                };
                c.ackers.insert(from);
                if c.ackers.len() >= majority {
                    let value = c.value.clone();
                    self.decide(value, None, out);
                }
            }
            CtMsg::Nack { round } => {
                // Somebody left `round`: the round will not decide through
                // this process waiting in it.
                self.jump_to(round + 1, out);
            }
            CtMsg::Decide { est } => {
                self.decide(est, Some(from), out);
            }
        }
    }

    fn own_estimate(&self) -> V {
        self.estimate
            .clone()
            .expect("started or decided instance has an estimate")
    }

    fn send_to_others(&self, msg: CtMsg<V>, out: &mut Vec<CtOut<V>>) {
        for &to in self.participants.iter() {
            if to != self.me {
                out.push(CtOut::Send {
                    to,
                    msg: msg.clone(),
                });
            }
        }
    }

    /// Switches to `round`, forgetting what only concerned earlier rounds.
    fn set_round(&mut self, round: u64) {
        self.round = round;
        self.acked = false;
        self.estimates.clear();
        if self.held.as_ref().is_some_and(|(r, _)| *r < round) {
            self.held = None;
        }
    }

    /// Moves to `round` because a message showed that somebody is there
    /// (no-op when already there or past it).
    fn jump_to(&mut self, round: u64, out: &mut Vec<CtOut<V>>) {
        if round <= self.round {
            return;
        }
        self.set_round(round);
        if self.started {
            self.begin_round(out);
        }
    }

    /// Enters `self.round`, and keeps advancing while its coordinator is
    /// suspected.
    fn begin_round(&mut self, out: &mut Vec<CtOut<V>>) {
        loop {
            let r = self.round;
            let coord = self.coordinator(r);
            // Tell everyone the previous round is abandoned — also when only
            // following somebody else's word: whoever said it may have
            // crashed before it had told everyone.
            if r > 0 {
                self.send_to_others(CtMsg::Nack { round: r - 1 }, out);
            }
            if coord == self.me {
                if self.ts == r {
                    // No estimate can carry a greater stamp than the own
                    // one — in round 0 all are 0, later this process holds
                    // the proposal of round `r − 1` — so the own value is
                    // what a majority of estimates would make it pick.
                    self.coordinate(self.own_estimate(), out);
                } else {
                    self.estimates
                        .insert(self.me, (self.own_estimate(), self.ts));
                    self.maybe_propose(out);
                }
                return;
            }
            if self.held.is_some() {
                // The coordinator of `r` already proposed: no estimate.
                self.answer_held(out);
            } else if r > 0 {
                out.push(CtOut::Send {
                    to: coord,
                    msg: CtMsg::Estimate {
                        round: r,
                        est: self.own_estimate(),
                        ts: self.ts,
                    },
                });
            }
            if self.decided || !self.coordinator_suspected(r) {
                return; // wait for the proposal, the decision, a suspicion or a jump
            }
            self.set_round(r + 1);
        }
    }

    /// Adopts the held proposal if it is for the current round, and acks —
    /// and decides it too, if the coordinator's adoption and this one are a
    /// majority (module docs).
    fn answer_held(&mut self, out: &mut Vec<CtOut<V>>) {
        if !matches!(self.held, Some((r, _)) if r == self.round) {
            return;
        }
        let (round, est) = self.held.take().expect("checked above");
        let coord = self.coordinator(round);
        self.estimate = Some(est);
        self.ts = round + 1;
        self.acked = true;
        out.push(CtOut::Send {
            to: coord,
            msg: CtMsg::Ack { round },
        });
        if self.ackers_decide() {
            self.decide(self.own_estimate(), Some(coord), out);
        }
    }

    /// Whether two adoptions of one round's proposal — its coordinator's
    /// and one acker's — are a majority (at most three participants): an
    /// acker then decides the moment it adopts.
    fn ackers_decide(&self) -> bool {
        self.majority <= 2
    }

    /// Coordinator phase 2 of a round `≥ 1`: propose once a majority of
    /// estimates arrived.
    fn maybe_propose(&mut self, out: &mut Vec<CtOut<V>>) {
        if self.estimates.len() < self.majority {
            return;
        }
        // Greatest timestamp wins; ties break toward the smallest sender id
        // (the BTreeMap makes this deterministic).
        let (est, ts) = self
            .estimates
            .iter()
            .max_by(|(pa, (_, ta)), (pb, (_, tb))| ta.cmp(tb).then(pb.cmp(pa)))
            .map(|(_, v)| v.clone())
            .expect("majority reached, set non-empty");
        // Nothing adopted anywhere in the majority: nothing is locked, and
        // the pick is this coordinator's to claim (module docs).
        let est = if ts == 0 {
            est.claimed_by(self.me)
        } else {
            est
        };
        self.coordinate(est, out);
    }

    /// Proposes `value` for the current round and adopts it locally.
    fn coordinate(&mut self, value: V, out: &mut Vec<CtOut<V>>) {
        let round = self.round;
        self.send_to_others(
            CtMsg::Propose {
                round,
                est: value.clone(),
            },
            out,
        );
        self.estimates.clear();
        self.estimate = Some(value.clone());
        self.ts = round + 1;
        self.acked = true;
        let mut ackers = PositionSet::default();
        ackers.insert(self.my_position);
        self.coordinated.push(Coordinated {
            round,
            value: value.clone(),
            ackers,
        });
        if self.majority == 1 {
            self.decide(value, None, out);
        }
    }

    /// Decides `est`, learned from `from` — a `Decide`'s sender, or the
    /// coordinator whose proposal this acker adopted (`None`: decided here,
    /// as coordinator).
    fn decide(&mut self, est: V, from: Option<ProcessId>, out: &mut Vec<CtOut<V>>) {
        if self.decided {
            return;
        }
        self.decided = true;
        self.estimate = Some(est.clone());
        self.learned_from = from;
        self.held = None;
        match from {
            None => {
                // Whoever acked a round coordinated here decided on adopting
                // its proposal, where ackers decide: it needs no `Decide`.
                let acked = |position: usize| {
                    self.ackers_decide()
                        && self.coordinated.iter().any(|c| c.ackers.contains(position))
                };
                for (position, &to) in self.participants.iter().enumerate() {
                    if position != self.my_position && !acked(position) {
                        out.push(CtOut::Send {
                            to,
                            msg: CtMsg::Decide { est: est.clone() },
                        });
                    }
                }
            }
            Some(origin) => {
                // Whoever acked a round coordinated here, or sent an
                // estimate for one not proposed in yet, waits for *this*
                // process, which stops coordinating now. Under a correct,
                // trusted coordinator nothing else would ever move them.
                let ackers = self.coordinated.iter().flat_map(|c| c.ackers.iter());
                let mut waiting: Vec<ProcessId> = ackers
                    .map(|position| self.participants[position])
                    .chain(self.estimates.keys().copied())
                    .filter(|&p| p != self.me && p != origin)
                    .collect();
                waiting.sort_unstable();
                waiting.dedup();
                for to in waiting {
                    out.push(CtOut::Send {
                        to,
                        msg: CtMsg::Decide { est: est.clone() },
                    });
                }
            }
        }
        self.estimates.clear();
        self.coordinated.clear();
        out.push(CtOut::Decided(est));
    }
}

/// Whether a process that decided answers `msg` with the decision. A
/// `Decide` needs none. An ack comes from a process waiting for this one's
/// decision: it is owed one unless this process decided as coordinator
/// (`sent_to_all`) — then every participant has the decision from it, or
/// decided on adopting its proposal, which is what an ack reports where
/// ackers decide. Everything else comes from a process that left a round
/// undecided.
pub(crate) fn answers_with_decision<V>(msg: &CtMsg<V>, sent_to_all: bool) -> bool {
    match msg {
        CtMsg::Decide { .. } => false,
        CtMsg::Ack { .. } => !sent_to_all,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    type Wire = (ProcessId, ProcessId, CtMsg<u32>);

    /// A lock-step network for driving instances directly in tests: messages
    /// are delivered in FIFO order; crashed processes drop in- and out-bound
    /// traffic. Every message handed to the network is counted by kind.
    struct Net {
        instances: Vec<CtConsensus<u32>>,
        queue: VecDeque<Wire>,
        crashed: HashSet<ProcessId>,
        decisions: HashMap<ProcessId, u32>,
        sent: BTreeMap<&'static str, usize>,
    }

    impl Net {
        fn new(n: u32) -> Self {
            Self::with_first(n, pid(0))
        }

        /// A network whose instances all start with `first` as the round-0
        /// coordinator.
        fn with_first(n: u32, first: ProcessId) -> Self {
            let ids: Vec<ProcessId> = (0..n).map(pid).collect();
            Net {
                instances: ids
                    .iter()
                    .map(|&p| CtConsensus::new(p, ids.clone(), first))
                    .collect(),
                queue: Default::default(),
                crashed: HashSet::new(),
                decisions: HashMap::new(),
                sent: BTreeMap::new(),
            }
        }

        fn apply(&mut self, from: ProcessId, outs: Vec<CtOut<u32>>) {
            for o in outs {
                match o {
                    CtOut::Send { to, msg } => {
                        assert_ne!(to, from, "no self-addressed messages");
                        *self.sent.entry(msg.kind()).or_default() += 1;
                        self.queue.push_back((from, to, msg));
                    }
                    CtOut::Decided(v) => {
                        let prev = self.decisions.insert(from, v);
                        assert!(prev.is_none(), "{from:?} decided twice");
                    }
                }
            }
        }

        fn propose(&mut self, p: ProcessId, v: u32) {
            let outs = self.instances[p.index()].propose(v);
            self.apply(p, outs);
        }

        fn suspect(&mut self, observer: ProcessId, q: ProcessId) {
            let outs = self.instances[observer.index()].suspect(q);
            self.apply(observer, outs);
        }

        fn suspect_everywhere(&mut self, q: ProcessId) {
            for i in 0..self.instances.len() as u32 {
                if !self.crashed.contains(&pid(i)) && pid(i) != q {
                    self.suspect(pid(i), q);
                }
            }
        }

        fn crash(&mut self, p: ProcessId) {
            self.crashed.insert(p);
        }

        /// Loses every queued message matching `lost` (a sender that crashed
        /// part-way through a broadcast).
        fn lose(&mut self, lost: impl Fn(&Wire) -> bool) {
            self.queue.retain(|w| !lost(w));
        }

        /// Delivers, in FIFO order, the messages matching `pick` (and what
        /// they cause, as far as it matches too); the rest stay queued.
        fn run_where(&mut self, pick: impl Fn(&Wire) -> bool) {
            let mut steps = 0;
            while let Some(i) = self.queue.iter().position(&pick) {
                let (from, to, msg) = self.queue.remove(i).expect("index from position");
                steps += 1;
                assert!(steps < 100_000, "no quiescence");
                if self.crashed.contains(&from) || self.crashed.contains(&to) {
                    continue;
                }
                let outs = self.instances[to.index()].on_msg(from, msg);
                self.apply(to, outs);
            }
        }

        fn run(&mut self) {
            self.run_where(|_| true);
        }

        /// The one value every decider decided (asserts that there is one).
        fn agreed_value(&self) -> u32 {
            let vals: HashSet<u32> = self.decisions.values().copied().collect();
            assert_eq!(vals.len(), 1, "disagreement: {:?}", self.decisions);
            *vals.iter().next().expect("one value")
        }

        fn assert_survivors_decided(&self) {
            for i in 0..self.instances.len() as u32 {
                if !self.crashed.contains(&pid(i)) {
                    assert!(self.decisions.contains_key(&pid(i)), "p{i} undecided");
                }
            }
        }
    }

    #[test]
    fn all_propose_failure_free_all_decide() {
        let mut net = Net::new(3);
        for i in 0..3 {
            net.propose(pid(i), 10 + i);
        }
        net.run();
        assert_eq!(net.decisions.len(), 3);
        // Round 0 has no estimate phase: the coordinator's own value wins.
        assert_eq!(net.agreed_value(), 10);
    }

    /// Obligation (d): a failure-free instance is n−1 proposals, n−1 acks,
    /// and a decision to every non-coordinator that cannot decide on its
    /// own on the wire, and nothing else — in particular no estimate, no
    /// nack, no relayed decision and no answer to a late ack. At n = 3 the
    /// ackers decide on adopting, and the one `Decide` goes to whichever
    /// had not acked when the first ack arrived. (CI counts on this test: a
    /// re-introduced eager message fails it.)
    #[test]
    fn failure_free_message_pattern_is_exact() {
        for (n, decides) in [(3u32, 1), (5, 4)] {
            let mut net = Net::new(n);
            for i in 0..n {
                net.propose(pid(i), i);
            }
            net.run();
            assert_eq!(net.decisions.len(), n as usize);
            assert_eq!(net.agreed_value(), 0);
            let each = n as usize - 1;
            let expect: BTreeMap<&'static str, usize> = [
                ("ct/propose", each),
                ("ct/ack", each),
                ("ct/decide", decides),
            ]
            .into();
            assert_eq!(net.sent, expect, "n={n}");
            assert!(net.instances.iter().all(|i| i.round() == 0), "n={n}");
        }
    }

    /// Rounds rotate from the round-0 coordinator the instance was built
    /// with: failure-free, its own value wins at the failure-free cost; with
    /// it crashed, the next participant in sorted order (wrapping around)
    /// coordinates round 1.
    #[test]
    fn rounds_rotate_from_the_round_0_coordinator() {
        for first in 0..4u32 {
            let mut net = Net::with_first(4, pid(first));
            for i in 0..4 {
                net.propose(pid(i), 10 + i);
            }
            net.run();
            assert_eq!(net.agreed_value(), 10 + first);
            let expect: BTreeMap<&'static str, usize> =
                [("ct/propose", 3), ("ct/ack", 3), ("ct/decide", 3)].into();
            assert_eq!(net.sent, expect, "first p{first}");

            let mut net = Net::with_first(4, pid(first));
            net.crash(pid(first));
            for i in (0..4).filter(|&i| i != first) {
                net.propose(pid(i), 10 + i);
            }
            net.suspect_everywhere(pid(first));
            net.run();
            net.assert_survivors_decided();
            let next = pid((first + 1) % 4);
            for i in (0..4).filter(|&i| i != first) {
                let learned = net.instances[i as usize].learned_from();
                let expect = (pid(i) != next).then_some(next);
                assert_eq!(
                    learned, expect,
                    "first p{first}: p{i} learned from round 1's coordinator"
                );
            }
            net.agreed_value();
        }
    }

    #[test]
    fn coordinator_crash_before_propose_next_round_decides() {
        // Obligation (c), first case.
        let mut net = Net::new(3);
        net.crash(pid(0)); // round-0 coordinator dead from the start
        net.propose(pid(1), 7);
        net.propose(pid(2), 9);
        net.run(); // nothing to do: round 0 waits for p0's proposal
        assert!(net.decisions.is_empty());
        assert!(net.sent.is_empty(), "round 0 is silent without a proposal");
        net.suspect_everywhere(pid(0));
        net.run();
        assert_eq!(net.decisions.len(), 2);
        let v = net.agreed_value();
        assert!(v == 7 || v == 9);
    }

    #[test]
    fn acker_leaves_an_answered_round_on_suspicion() {
        // Obligations (a) and (c), second case: the coordinator crashes
        // between `Propose` and `Decide`. Every survivor already acked round
        // 0 and waits in it (at n = 5 two adoptions are no majority); the
        // suspicion must still move them on, and the value a majority
        // adopted stays locked.
        let mut net = Net::new(5);
        for i in 0..5 {
            net.propose(pid(i), 20 + i);
        }
        net.run_where(|(_, _, m)| matches!(m, CtMsg::Propose { .. }));
        net.crash(pid(0));
        net.run();
        assert!(net.decisions.is_empty(), "acks died with the coordinator");
        assert!(net.instances[1..].iter().all(|i| i.round() == 0));
        net.suspect_everywhere(pid(0));
        net.run();
        net.assert_survivors_decided();
        assert_eq!(net.agreed_value(), 20, "p0's adopted proposal is locked");
    }

    #[test]
    fn ackers_that_count_a_majority_need_no_round_change() {
        // The n = 3 counterpart of the test above: the coordinator crashes
        // between `Propose` and `Decide`, but its adoption and an acker's
        // are a majority, so both survivors decided p0's value the moment
        // they adopted it. The suspicion moves nobody: no nack, no estimate.
        let mut net = Net::new(3);
        for i in 0..3 {
            net.propose(pid(i), 20 + i);
        }
        net.run_where(|(_, _, m)| matches!(m, CtMsg::Propose { .. }));
        net.crash(pid(0));
        assert_eq!(net.decisions.len(), 2, "p1 and p2 decided on adopting");
        for i in [1, 2] {
            assert_eq!(net.instances[i].learned_from(), Some(pid(0)), "p{i}");
        }
        net.suspect_everywhere(pid(0));
        net.run();
        net.assert_survivors_decided();
        assert_eq!(net.agreed_value(), 20, "p0's adopted proposal");
        let round_change = ["ct/nack", "ct/estimate"].map(|k| net.sent.get(k).copied());
        assert_eq!(round_change, [None, None], "{:?}", net.sent);
    }

    #[test]
    fn coordinator_crash_after_decide_reached_one_process() {
        // Obligation (c), third case: p0 decides, its `Decide` reaches all
        // but p4 (at n = 5 nobody decides on adopting). p4 leaves round 0
        // once it suspects p0, says so to everyone and is answered by those
        // that decided.
        let mut net = Net::new(5);
        for i in 0..5 {
            net.propose(pid(i), 30 + i);
        }
        net.run_where(|(_, to, m)| !(matches!(m, CtMsg::Decide { .. }) && *to == pid(4)));
        assert_eq!(net.decisions.len(), 4, "p0 to p3 decided");
        net.crash(pid(0));
        net.run();
        assert!(!net.decisions.contains_key(&pid(4)));
        net.suspect_everywhere(pid(0));
        net.run();
        assert_eq!(net.decisions[&pid(4)], 30);
        net.agreed_value();
    }

    #[test]
    fn coordinator_crash_before_its_one_decide_reached_the_non_acker() {
        // The n = 3 counterpart of the test above: p1 decided on adopting,
        // p0 decided on p1's ack and addressed its one `Decide` to p2, the
        // participant that had not acked — and whose proposal is still in
        // flight. p0 crashes with both lost; p2 leaves round 0 once it
        // suspects p0 and is answered by p1.
        let mut net = Net::new(3);
        for i in 0..3 {
            net.propose(pid(i), 30 + i);
        }
        net.run_where(|(_, to, _)| *to != pid(2));
        assert_eq!(net.decisions.len(), 2, "p1 on adopting, p0 on p1's ack");
        assert_eq!(net.sent["ct/decide"], 1, "to p2 only");
        net.crash(pid(0));
        net.run();
        assert!(!net.decisions.contains_key(&pid(2)));
        net.suspect_everywhere(pid(0));
        net.run();
        assert_eq!(net.decisions[&pid(2)], 30);
        assert_eq!(net.instances[2].learned_from(), Some(pid(1)));
        net.agreed_value();
    }

    #[test]
    fn coordinator_that_learns_the_decision_tells_those_waiting_on_it() {
        // p4 cannot talk to p0, suspects it, abandons round 0 and acks p1's
        // round-1 proposal. p0 then decides on round-0 acks; its `Decide`
        // reaches p1..p3 but not p4. p1 stops coordinating round 1 with p4's
        // ack in hand: p4 waits on a correct, trusted coordinator, so only
        // p1 can — and must — tell it.
        let cut = |(from, to, _): &Wire| {
            (*from == pid(0) && *to == pid(4)) || (*from == pid(4) && *to == pid(0))
        };
        let mut net = Net::new(5);
        net.suspect(pid(4), pid(0));
        for i in 0..5 {
            net.propose(pid(i), 60 + i);
        }
        net.run_where(|w| !cut(w) && matches!(w.2, CtMsg::Propose { round: 0, .. }));
        net.run_where(|w| !cut(w) && !matches!(w.2, CtMsg::Ack { .. }));
        assert!(net.instances[1..].iter().all(|i| i.round() == 1));
        net.run_where(|w| w.0 == pid(4) && matches!(w.2, CtMsg::Ack { round: 1 }));
        net.run_where(|w| matches!(w.2, CtMsg::Ack { round: 0 }));
        assert_eq!(net.decisions.len(), 1, "p0 decided on round-0 acks");
        let before = net.sent["ct/decide"];
        net.run_where(|w| !cut(w) && matches!(w.2, CtMsg::Decide { .. }));
        assert_eq!(net.sent["ct/decide"] - before, 1, "p1 told p4, nobody else");
        assert_eq!(net.decisions.get(&pid(4)), Some(&60));
        net.crash(pid(0));
        net.run();
        net.assert_survivors_decided();
        assert_eq!(net.agreed_value(), 60);
    }

    #[test]
    fn follower_repeats_the_nack_of_a_leaver_that_crashed_saying_it() {
        // p1 wrongly suspects p0 and leaves round 0; only p2 hears of it.
        // Round 1 decides between p1 and p2, the `Decide` reaches p2 only,
        // and p1 crashes. p0 coordinates a round nobody will ack any more:
        // it learns that from p2, which followed p1 out and says so too.
        let withheld = |(from, to, _): &Wire| *from == pid(1) && *to == pid(0);
        let mut net = Net::new(3);
        net.suspect(pid(1), pid(0));
        for i in 0..3 {
            net.propose(pid(i), 80 + i);
        }
        net.run_where(|w| !withheld(w) && w.0 == pid(1));
        assert_eq!(net.instances[2].round(), 1, "p2 followed before acking");
        net.run_where(|w| !withheld(w));
        assert!(net.decisions.contains_key(&pid(1)) && net.decisions.contains_key(&pid(2)));
        assert!(!net.decisions.contains_key(&pid(0)));
        assert_eq!(net.instances[0].round(), 1, "p0 heard of it from p2");
        net.crash(pid(1));
        net.suspect_everywhere(pid(1));
        net.run();
        assert!(net.decisions.contains_key(&pid(0)));
        net.agreed_value();
    }

    #[test]
    fn coordinator_holding_the_previous_proposal_proposes_without_estimates() {
        // p1 to p4 adopted p0's round-0 proposal, p0 crashes before it
        // decides (at n = 5 two adoptions are no majority, so nobody else
        // did). p1's estimate is stamped 1 — nothing in round 1 can be
        // stamped higher, and whatever else is stamped 1 is the same value —
        // so it proposes the moment it enters round 1.
        let mut net = Net::new(5);
        for i in 0..5 {
            net.propose(pid(i), 90 + i);
        }
        net.run_where(|w| matches!(w.2, CtMsg::Propose { .. }));
        net.crash(pid(0));
        let outs = net.instances[1].suspect(pid(0));
        assert!(
            outs.contains(&CtOut::Send {
                to: pid(2),
                msg: CtMsg::Propose { round: 1, est: 90 }
            }),
            "{outs:?}"
        );
        net.apply(pid(1), outs);
        net.run();
        net.assert_survivors_decided();
        assert_eq!(net.agreed_value(), 90);
        // A coordinator that adopted nothing gathers a majority first.
        let mut net = Net::new(5);
        net.crash(pid(0));
        for i in 1..5 {
            net.propose(pid(i), i);
        }
        let outs = net.instances[1].suspect(pid(0));
        assert!(
            !outs.iter().any(|o| matches!(
                o,
                CtOut::Send {
                    msg: CtMsg::Propose { .. },
                    ..
                }
            )),
            "{outs:?}"
        );
    }

    #[test]
    fn round_1_coordinator_that_adopted_round_0_decided_already() {
        // The n = 3 counterpart of the test above: p1 adopted p0's round-0
        // proposal and, its adoption and p0's being a majority, decided it
        // then; p0's proposal to p2 dies with p0. p1's suspicion of p0
        // starts no round 1 — no proposal, no nack — and p2, leaving round
        // 0, is answered with the decision.
        let mut net = Net::new(3);
        for i in 0..3 {
            net.propose(pid(i), 90 + i);
        }
        net.run_where(|w| matches!(w.2, CtMsg::Propose { .. }) && w.1 == pid(1));
        net.crash(pid(0));
        assert_eq!(net.decisions.get(&pid(1)), Some(&90));
        assert!(
            net.instances[1].suspect(pid(0)).is_empty(),
            "decided: no round 1"
        );
        net.suspect(pid(2), pid(0));
        net.run();
        net.assert_survivors_decided();
        assert_eq!(net.agreed_value(), 90);
        assert_eq!(net.sent["ct/propose"], 2, "round 0's proposals only");
    }

    #[test]
    fn false_suspicion_by_a_minority_terminates() {
        // Obligation (b): with f crashed besides, the lone nacker p1 is
        // fewer than the majority of estimates it needs as coordinator of
        // round 1, and p0 without p1's ack is short of a majority of acks.
        // The waiting ackers must follow the broadcast nack.
        for (n, dead) in [(4u32, vec![3u32]), (5, vec![3, 4])] {
            let mut net = Net::new(n);
            for &d in &dead {
                net.crash(pid(d));
            }
            net.suspect(pid(1), pid(0));
            for i in 0..n {
                if !dead.contains(&i) {
                    net.propose(pid(i), 40 + i);
                }
            }
            net.run();
            net.assert_survivors_decided();
            let v = net.agreed_value();
            assert!((40..40 + n).contains(&v), "n={n}: validity");
            assert!(net.sent["ct/nack"] > 0 && net.sent["ct/estimate"] > 0);
        }
    }

    #[test]
    fn nack_lost_in_a_crash_still_moves_everyone() {
        // p3 abandons round 0 and crashes while telling the others: only p2
        // hears. p2 follows p3 to round 1, so p0 (acks from p0 and p1 only)
        // can no longer decide round 0; the coordinator of round 1 must
        // fetch p0 and p1 out of it.
        let mut net = Net::new(4);
        net.suspect(pid(3), pid(0));
        for i in 0..4 {
            net.propose(pid(i), 50 + i);
        }
        net.lose(|(from, to, _)| *from == pid(3) && *to != pid(2));
        net.run_where(|(from, _, _)| *from == pid(3));
        net.crash(pid(3));
        net.run();
        net.suspect_everywhere(pid(3));
        net.run();
        net.assert_survivors_decided();
        net.agreed_value();
    }

    #[test]
    fn wrong_suspicion_is_harmless() {
        // p0 is alive but suspected by everyone: some round > 0 decides and
        // p0 still learns the decision (no exclusion, unlike traditional
        // architectures).
        let mut net = Net::new(3);
        net.suspect_everywhere(pid(0));
        for i in 0..3 {
            net.propose(pid(i), 40 + i);
        }
        net.run();
        assert_eq!(
            net.decisions.len(),
            3,
            "wrongly suspected process still decides"
        );
        net.agreed_value();
    }

    #[test]
    fn late_participant_learns_decision() {
        let mut net = Net::new(3);
        net.propose(pid(0), 5);
        net.propose(pid(1), 5);
        net.run();
        // p2 never proposed, but the coordinator addresses every
        // participant: p2 learns the outcome all the same.
        assert_eq!(net.decisions.len(), 3);
        assert_eq!(net.agreed_value(), 5);
        // Proposing after having learned the decision is a no-op.
        let outs = net.instances[2].propose(6);
        assert!(outs.is_empty());
    }

    #[test]
    fn proposal_that_arrives_before_propose_is_answered_at_start() {
        let mut net = Net::new(3);
        net.propose(pid(0), 8);
        net.run_where(|(_, to, _)| *to == pid(2));
        assert!(net.decisions.is_empty());
        net.propose(pid(2), 9); // acks the held proposal
        net.run_where(|(_, to, _)| *to != pid(1));
        assert_eq!(net.decisions.len(), 2, "p0 and p2 are a majority");
        assert_eq!(net.agreed_value(), 8);
    }

    #[test]
    fn pull_is_sent_only_while_waiting_for_the_first_proposal() {
        let mut net = Net::new(3);
        net.propose(pid(0), 1);
        net.propose(pid(1), 2);
        net.run();
        // p2 opens the instance late with nothing held: one estimate to p0,
        // answered with the decision.
        let mut outs = net.instances[2].propose(3);
        assert!(outs.is_empty(), "round 0 is silent for a non-coordinator");
        net.decisions.remove(&pid(2));
        net.instances[2] = CtConsensus::new(pid(2), (0..3).map(pid).collect::<Vec<_>>(), pid(0));
        let _ = net.instances[2].propose(3);
        net.instances[2].pull_into(&mut outs);
        assert!(matches!(
            outs.as_slice(),
            [CtOut::Send { to, msg: CtMsg::Estimate { round: 0, est: 3, ts: 0 } }] if *to == pid(0)
        ));
        net.apply(pid(2), outs);
        net.run();
        assert_eq!(net.decisions[&pid(2)], 1);
        // Decided, or coordinator: no pull.
        let mut none = Vec::new();
        net.instances[2].pull_into(&mut none);
        net.instances[0].pull_into(&mut none);
        assert!(none.is_empty());
    }

    #[test]
    fn late_ack_is_answered_unless_the_decision_went_to_everyone() {
        let mut net = Net::new(3);
        for i in 0..3 {
            net.propose(pid(i), i);
        }
        net.run();
        // p0 decided as coordinator and told everyone: silence.
        assert!(net.instances[0]
            .on_msg(pid(2), CtMsg::Ack { round: 0 })
            .is_empty());
        // p1 learned the decision: whoever acks to it waits for it.
        let outs = net.instances[1].on_msg(pid(2), CtMsg::Ack { round: 1 });
        assert!(matches!(
            outs.as_slice(),
            [CtOut::Send { to, msg: CtMsg::Decide { est: 0 } }] if *to == pid(2)
        ));
        // An estimate or a nack comes from an undecided process: answered.
        for msg in [
            CtMsg::Nack { round: 0 },
            CtMsg::Estimate {
                round: 3,
                est: 7,
                ts: 0,
            },
        ] {
            assert_eq!(net.instances[0].on_msg(pid(1), msg).len(), 1);
        }
    }

    #[test]
    fn minority_of_crashes_does_not_block() {
        let mut net = Net::new(5);
        net.crash(pid(0));
        net.crash(pid(1));
        for i in 2..5 {
            net.propose(pid(i), i);
        }
        net.suspect_everywhere(pid(0));
        net.suspect_everywhere(pid(1));
        net.run();
        assert_eq!(net.decisions.len(), 3);
        net.agreed_value();
    }

    #[test]
    #[should_panic(expected = "not among participants")]
    fn must_be_participant() {
        let _ = CtConsensus::<u32>::new(pid(9), vec![pid(0), pid(1)], pid(0));
    }

    #[test]
    #[should_panic(expected = "round-0 coordinator")]
    fn round_0_coordinator_must_be_participant() {
        let _ = CtConsensus::<u32>::new(pid(0), vec![pid(0), pid(1)], pid(9));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// A proposal and, once a coordinator of a round `≥ 1` claimed it, who
    /// did: agreement must cover the claim too.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    struct Claimable(u32, Option<ProcessId>);

    impl Value for Claimable {
        fn claimed_by(self, coordinator: ProcessId) -> Self {
            Claimable(self.0, Some(coordinator))
        }
    }

    /// Adversarial scheduler, from a round-0 coordinator `first` drawn per
    /// run: random interleavings of message deliveries
    /// (any order — the protocol does not lean on FIFO links), crashes (up
    /// to a minority), and false suspicions raised and withdrawn at random
    /// observers. Checks uniform agreement and validity on every schedule;
    /// checks termination once the failure detector stabilizes (every
    /// crashed process suspected by all, every correct one trusted).
    fn run_adversarial(
        n: u32,
        first: u32,
        crashes: Vec<u32>,
        schedule: Vec<u16>,
    ) -> Result<(), TestCaseError> {
        let ids: Vec<ProcessId> = (0..n).map(pid).collect();
        let mut insts: Vec<CtConsensus<Claimable>> = ids
            .iter()
            .map(|&p| CtConsensus::new(p, ids.clone(), pid(first % n)))
            .collect();
        type Wire = (ProcessId, ProcessId, CtMsg<Claimable>);
        let mut queue: Vec<Wire> = Vec::new();
        let mut crashed: HashSet<ProcessId> = HashSet::new();
        let mut decisions: HashMap<ProcessId, Claimable> = HashMap::new();

        let apply = |from: ProcessId,
                     outs: Vec<CtOut<Claimable>>,
                     queue: &mut Vec<Wire>,
                     decisions: &mut HashMap<ProcessId, Claimable>| {
            for o in outs {
                match o {
                    CtOut::Send { to, msg } => queue.push((from, to, msg)),
                    CtOut::Decided(v) => {
                        let prev = decisions.insert(from, v);
                        prop_assert!(prev.is_none(), "double decision at {:?}", from);
                    }
                }
            }
            Ok(())
        };

        for (i, inst) in insts.iter_mut().enumerate() {
            let outs = inst.propose(Claimable(100 + i as u32, None));
            apply(pid(i as u32), outs, &mut queue, &mut decisions)?;
        }

        // Phase A: adversarial interleaving driven by the schedule.
        let mut crash_iter = crashes.into_iter();
        for step in schedule {
            let observer = pid(u32::from(step >> 3) % n);
            let target = pid(u32::from(step >> 8) % n);
            match step % 8 {
                // Deliver a pseudo-randomly chosen queued message.
                0..=4 => {
                    if queue.is_empty() {
                        continue;
                    }
                    let k = (step as usize) % queue.len();
                    let (from, to, msg) = queue.swap_remove(k);
                    if crashed.contains(&to) || crashed.contains(&from) {
                        continue;
                    }
                    let outs = insts[to.index()].on_msg(from, msg);
                    apply(to, outs, &mut queue, &mut decisions)?;
                }
                // Crash the next scheduled victim (minority only).
                5 => {
                    if let Some(v) = crash_iter.next() {
                        crashed.insert(pid(v));
                    }
                }
                // A suspicion, right or wrong, at one observer.
                6 => {
                    if observer != target && !crashed.contains(&observer) {
                        let outs = insts[observer.index()].suspect(target);
                        apply(observer, outs, &mut queue, &mut decisions)?;
                    }
                }
                // A suspicion withdrawn.
                _ => insts[observer.index()].restore(target),
            }
        }

        // Phase B: stabilize — every correct process suspects exactly the
        // crashed ones; then drain the queue.
        for i in 0..n {
            let p = pid(i);
            if crashed.contains(&p) {
                continue;
            }
            for q in (0..n).map(pid) {
                if crashed.contains(&q) {
                    let outs = insts[p.index()].suspect(q);
                    apply(p, outs, &mut queue, &mut decisions)?;
                } else {
                    insts[p.index()].restore(q);
                }
            }
        }
        // Fair (FIFO) drain: liveness of ◇S consensus assumes fair message
        // delivery; an adversarial LIFO drain can starve acknowledgements
        // behind an unbounded stream of round-advancing messages.
        let mut steps = 0;
        while !queue.is_empty() {
            let (from, to, msg) = queue.remove(0);
            steps += 1;
            prop_assert!(steps < 200_000, "no quiescence");
            if crashed.contains(&to) || crashed.contains(&from) {
                continue;
            }
            let outs = insts[to.index()].on_msg(from, msg);
            apply(to, outs, &mut queue, &mut decisions)?;
        }

        // Agreement (uniform: includes decisions by now-crashed processes).
        let vals: HashSet<Claimable> = decisions.values().copied().collect();
        prop_assert!(vals.len() <= 1, "disagreement: {:?}", decisions);
        // Validity.
        for v in vals.iter() {
            prop_assert!((100..100 + n).contains(&v.0), "invalid decision {v:?}");
        }
        // Termination: every correct process decided.
        for i in 0..n {
            if !crashed.contains(&pid(i)) {
                prop_assert!(
                    decisions.contains_key(&pid(i)),
                    "correct {:?} did not decide (rounds {:?})",
                    pid(i),
                    insts.iter().map(|c| c.round()).collect::<Vec<_>>()
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Three participants: two adoptions are a majority, so ackers decide
        /// on adopting and the coordinator skips them.
        #[test]
        fn ct_safe_and_live_n3(schedule in proptest::collection::vec(any::<u16>(), 0..400),
                               first in 0u32..3,
                               crash in proptest::option::of(0u32..3)) {
            run_adversarial(3, first, crash.into_iter().collect(), schedule)?;
        }

        #[test]
        fn ct_safe_and_live_n4(schedule in proptest::collection::vec(any::<u16>(), 0..500),
                               first in 0u32..4,
                               crash in proptest::option::of(0u32..4)) {
            run_adversarial(4, first, crash.into_iter().collect(), schedule)?;
        }

        /// Five participants: an acker's adoption and its coordinator's are
        /// no majority — the other three are one, and their estimates can
        /// miss both — so ackers must wait for the `Decide`. Letting two
        /// adoptions decide here (`majority <= 3` in `ackers_decide`) breaks
        /// agreement within a few hundred cases. At four participants the
        /// same mutant stays safe, since any two adopters and any majority
        /// of three intersect (2 + 3 > 4): `ct_safe_and_live_n4` cannot
        /// catch it, and need not.
        #[test]
        fn ct_safe_and_live_n5(schedule in proptest::collection::vec(any::<u16>(), 0..600),
                               first in 0u32..5,
                               crashes in proptest::collection::vec(0u32..5, 0..3)) {
            let mut cs = crashes;
            cs.sort_unstable();
            cs.dedup();
            run_adversarial(5, first, cs, schedule)?;
        }
    }
}

//! The token-ring stack (Figs 3–4, RMP/Totem family).
//!
//! A token rotates around a logical ring of the members; the holder stamps
//! its pending broadcasts with consecutive sequence numbers taken from the
//! token (total order) and passes the token on. Structural properties
//! reproduced from the paper's description:
//!
//! * **ordering rides the token** — no sequencer process, but ordering still
//!   depends on membership: if the ring breaks, ordering stops;
//! * **token-loss detection → ring reformation** (the Totem membership
//!   protocol): a member that has not seen the token for a timeout starts a
//!   reformation; non-responding members are excluded;
//! * **recovery layer**: reformation exchanges undelivered sequenced
//!   messages so survivors agree on the delivered set ((extended) view
//!   synchrony, Fig 4's "Recovery" box);
//! * **fault-free membership over the total order** (RMP, Fig 3): joins are
//!   ordinary sequenced messages, handled without the fault-tolerant
//!   reformation path.

use std::collections::{BTreeMap, VecDeque};

use gcs_kernel::{
    Component, ComponentId, Context, DeliveryKind, Event, MessageClass, PayloadRef, PositionLog,
    Process, ProcessId, Time, TimeDelta, TimerId,
};
use gcs_sim::{Harness, Observation, Op, SimWorld, StackDriver, StackKind, Topology};

/// The one component of the token-ring stack: the whole stack is one.
pub const TOKEN: ComponentId = ComponentId::new(0);

/// How long a holder keeps the token before passing it on.
const HOLD: TimeDelta = TimeDelta::from_micros(300);

/// Configuration of a token-ring process. A holder stamps its whole outbox
/// per hold; a member excluded by a reformation it missed (wrong
/// suspicion, healed partition) always re-joins through the fault-free
/// membership path, while a scripted removal stays out.
#[derive(Clone, Copy, Debug)]
pub struct TokenConfig {
    /// Token-loss timeout: a member that has not seen the token for this
    /// long starts a reformation. The benchmark's `live-closed` workload
    /// raises it, and [`for_topology`](Self::for_topology) stretches it on
    /// WAN presets (`GroupBuilder` runs that profile unless given a config).
    pub token_timeout: TimeDelta,
    /// How long a reformer waits for reports before excluding silents.
    /// [`for_topology`](Self::for_topology) stretches it on WAN presets.
    pub reform_timeout: TimeDelta,
    /// Scan period of the gap-repair path: a member whose delivery cursor is
    /// stuck behind sequenced messages it has seen asks the ring to re-send
    /// the missing ones (Totem carries the same request on the token's
    /// retransmission list). [`for_topology`](Self::for_topology) stretches
    /// it on WAN presets.
    pub retrans_interval: TimeDelta,
}

impl Default for TokenConfig {
    fn default() -> Self {
        TokenConfig {
            token_timeout: TimeDelta::from_millis(50),
            reform_timeout: TimeDelta::from_millis(20),
            retrans_interval: TimeDelta::from_millis(10),
        }
    }
}

impl TokenConfig {
    /// A timeout profile derived from the topology's RTT bound for a ring of
    /// `n` members: on a LAN the defaults are returned unchanged (every
    /// derived value floors at its default), while on WAN topologies the
    /// token-loss timeout clears several full rotations — a rotation takes
    /// roughly `n × (hold + one-way delay)`, and a timeout below that
    /// declares the token lost while it is merely in transit, so the ring
    /// thrashes through reformations instead of converging.
    pub fn for_topology(topology: &Topology, n: usize) -> Self {
        let d = topology.max_one_way_delay();
        let defaults = Self::default();
        let rotation = (HOLD + d).saturating_mul(n.max(1) as u64);
        TokenConfig {
            token_timeout: defaults.token_timeout.max(rotation.saturating_mul(3)),
            reform_timeout: defaults.reform_timeout.max(d.saturating_mul(4)),
            retrans_interval: defaults.retrans_interval.max(d.saturating_mul(3)),
        }
    }
}

/// A membership change riding the total order (RMP-style fault-free
/// membership): joins and scripted removals are ordinary sequenced messages,
/// so every member updates the ring at the same point of the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingChange {
    /// Add a process to the ring.
    Join(ProcessId),
    /// Remove a process from the ring (scripted removal; the target stays
    /// out).
    Leave(ProcessId),
}

/// One sequenced message as the recovery layer moves it around: reform
/// reports and `NewRing` recovery sets carry these.
#[derive(Clone, Copy, Debug)]
pub struct SeqMsg {
    /// Global sequence number.
    pub seq: u64,
    /// Originating process.
    pub origin: ProcessId,
    /// Payload handle.
    pub payload: PayloadRef,
    /// Membership change, if this is one.
    pub change: Option<RingChange>,
    /// Ring generation the message was stamped in.
    pub vid: u64,
}

/// Wire + local events of the token stack.
#[derive(Clone, Debug)]
pub enum TokenEvent {
    // -- wire --
    /// The rotating token.
    Token {
        /// Ring generation.
        vid: u64,
        /// Next unassigned global sequence number.
        next_seq: u64,
    },
    /// A sequenced broadcast (possibly a membership message, RMP-style).
    Data {
        /// Global sequence number stamped by the token holder.
        seq: u64,
        /// Originating process.
        origin: ProcessId,
        /// Payload handle; membership data carries the change instead.
        payload: PayloadRef,
        /// RMP fault-free membership: this message joins or removes a
        /// member at this point of the total order.
        change: Option<RingChange>,
        /// Ring generation the stamper held when sequencing this message:
        /// the message *belongs* to that generation, and every member tags
        /// its delivery with it — the ring's (extended) view synchrony, where
        /// a recovered message may be delivered after a reformation but is
        /// still attributed to the generation that sent it.
        vid: u64,
    },
    /// Gap repair: the sender's delivery cursor is stuck at `need` while
    /// higher-sequenced messages have arrived — any member holding the
    /// missing range re-sends it (Totem's retransmission-list mechanism).
    Nack {
        /// First sequence number the sender is missing.
        need: u64,
    },
    /// Reformation probe by the reformer.
    Reform {
        /// Proposed ring generation.
        vid: u64,
    },
    /// A member's recovery report.
    ReformReport {
        /// Generation this report answers (the probe's proposal).
        vid: u64,
        /// The reporter's *current* generation: the commit is numbered above
        /// every reporter's, so no member ignores it as stale.
        current: u64,
        /// Sequenced messages the reporter holds (delivered or not),
        /// including membership changes — recovery must not strip a
        /// join/leave out of the total order.
        known: Vec<SeqMsg>,
    },
    /// The reformer commits the new ring. Boxed: this rare, fat variant
    /// (two vectors) must not widen the hot event enum past the cache-line
    /// budget.
    NewRing(Box<NewRingData>),
    /// An outsider asks a member to sponsor its (fault-free) join.
    JoinRequest,
    /// Ring bootstrap information for a joiner.
    RingInfo {
        /// Generation.
        vid: u64,
        /// The ring including the joiner.
        ring: Vec<ProcessId>,
        /// First sequence number the joiner will see.
        next_deliver: u64,
    },

    // -- ops --
    /// Broadcast `payload` in total order.
    Abcast(PayloadRef),
    /// Ask to join the ring via process 0.
    Join,
    /// Ask the ring to remove a member (sequenced like a join).
    Remove(ProcessId),

    // -- outputs --
    /// An ordered delivery.
    Deliver {
        /// Global sequence number.
        seq: u64,
        /// Originating process.
        origin: ProcessId,
        /// Payload handle (resolve via the group's arena).
        payload: PayloadRef,
        /// Ring generation current at delivery (recovery deliveries of a
        /// reformation are tagged with the generation they were sent in).
        vid: u64,
    },
    /// A ring (view) installation.
    RingInstalled {
        /// Generation.
        vid: u64,
        /// Members in token order.
        ring: Vec<ProcessId>,
    },
    /// This process learned it was excluded by a reformation it missed: it
    /// stops delivering and (unless it was removed by request) re-joins
    /// through the fault-free membership path.
    Excluded,
}

// Events are moved through every scheduler slot and dispatch; boxing the
// reformation-time fat variants keeps the enum inside one cache line.
const _: () = assert!(
    std::mem::size_of::<TokenEvent>() <= 64,
    "TokenEvent outgrew one cache line; box the offending variant"
);

/// The payload of a [`TokenEvent::NewRing`] commit.
#[derive(Clone, Debug)]
pub struct NewRingData {
    /// New generation.
    pub vid: u64,
    /// The surviving ring, in token order.
    pub ring: Vec<ProcessId>,
    /// Recovery set: all known sequenced messages (membership changes
    /// included).
    pub recovery: Vec<SeqMsg>,
    /// Sequence numbering continues from here.
    pub next_seq: u64,
    /// Whether the ring head re-injects the token on install. `true` on
    /// real reformation commits; `false` when a member *teaches* the ring to
    /// a process holding a stale generation — the teach must never spawn a
    /// second token (`next_seq` is a lower bound there, and double stamping
    /// would fork the sequence space).
    pub reinject: bool,
}

impl Event for TokenEvent {
    fn kind(&self) -> &'static str {
        match self {
            TokenEvent::Token { .. } => "token/token",
            TokenEvent::Data { .. } => "token/data",
            TokenEvent::Nack { .. } => "token/nack",
            TokenEvent::Reform { .. } => "token/reform",
            TokenEvent::ReformReport { .. } => "token/reform-report",
            TokenEvent::NewRing { .. } => "token/new-ring",
            TokenEvent::JoinRequest => "token/join-request",
            TokenEvent::RingInfo { .. } => "token/ring-info",
            TokenEvent::Abcast(_) => "op/abcast",
            TokenEvent::Join => "op/join",
            TokenEvent::Remove(_) => "op/remove",
            TokenEvent::Deliver { .. } => "out/deliver",
            TokenEvent::RingInstalled { .. } => "out/ring",
            TokenEvent::Excluded => "out/excluded",
        }
    }

    fn wire_size(&self) -> usize {
        match self {
            TokenEvent::Token { .. } => 24,
            TokenEvent::Data { payload, .. } => 40 + payload.len(),
            TokenEvent::Nack { .. } => 16,
            TokenEvent::Reform { .. } => 16,
            TokenEvent::ReformReport { known, .. } => {
                32 + known.iter().map(|m| 24 + m.payload.len()).sum::<usize>()
            }
            TokenEvent::NewRing(nr) => {
                24 + nr
                    .recovery
                    .iter()
                    .map(|m| 24 + m.payload.len())
                    .sum::<usize>()
            }
            TokenEvent::JoinRequest => 16,
            TokenEvent::RingInfo { ring, .. } => 24 + 4 * ring.len(),
            _ => 64,
        }
    }
}

/// The wire [`TokenEvent::Data`] for a sequenced message.
fn data_of(m: SeqMsg) -> TokenEvent {
    TokenEvent::Data {
        seq: m.seq,
        origin: m.origin,
        payload: m.payload,
        change: m.change,
        vid: m.vid,
    }
}

/// One process of the token-ring stack.
pub struct TokenStack {
    me: ProcessId,
    config: TokenConfig,
    vid: u64,
    ring: Vec<ProcessId>,
    member: bool,
    /// This process delivered its own scripted removal: stay out instead of
    /// re-joining.
    removed: bool,
    /// Outbound queue, stamped when we hold the token.
    outbox: VecDeque<PayloadRef>,
    /// Sequenced messages by seq (delivered or buffered). A joiner's log
    /// starts at the ring's position when it joined; a reformation's
    /// recovery set can fill in below that.
    known: PositionLog<SeqMsg>,
    next_deliver: u64,
    last_token_seen: Time,
    /// Reformer state.
    reforming: Option<(u64, Time)>,
    /// Per reporter: its current generation and its known messages.
    reports: BTreeMap<ProcessId, (u64, Vec<SeqMsg>)>,
    /// Pending membership announcements (sponsored joins, requested
    /// removals) to stamp when we next hold the token.
    change_queue: VecDeque<RingChange>,
    holding_token: bool,
    /// Gap-repair scan state: the cursor as of the previous scan, and
    /// whether it was already stuck behind sequenced messages then.
    nack_cursor: u64,
    nack_stalled: bool,
    last_nack_scan: Time,
    /// Rotates the Nack target across repair scans.
    nack_round: u64,
    /// Highest `next_seq` any token showed us: proof that every lower
    /// sequence number exists (tail-gap evidence for the repair path).
    expected_seq: u64,
    /// A token that arrived one ring generation ahead of the membership
    /// Data that bumps our `vid` (links are not FIFO): parked until the
    /// change is delivered instead of being dropped.
    pending_token: Option<(u64, u64)>,
}

impl TokenStack {
    /// Creates a stack; founding members pass the ring, joiners `None`.
    pub fn new(me: ProcessId, ring: Option<Vec<ProcessId>>, config: TokenConfig) -> Self {
        let (ring, member) = match ring {
            Some(mut r) => {
                r.sort_unstable();
                let m = r.contains(&me);
                (r, m)
            }
            None => (Vec::new(), false),
        };
        TokenStack {
            me,
            config,
            vid: 0,
            ring,
            member,
            removed: false,
            outbox: VecDeque::new(),
            known: PositionLog::default(),
            next_deliver: 0,
            last_token_seen: Time::ZERO,
            reforming: None,
            reports: BTreeMap::new(),
            change_queue: VecDeque::new(),
            holding_token: false,
            nack_cursor: 0,
            nack_stalled: false,
            last_nack_scan: Time::ZERO,
            nack_round: 0,
            expected_seq: 0,
            pending_token: None,
        }
    }

    fn successor(&self) -> Option<ProcessId> {
        let idx = self.ring.iter().position(|&p| p == self.me)?;
        Some(self.ring[(idx + 1) % self.ring.len()])
    }

    fn broadcast(&self, ev: TokenEvent, ctx: &mut Context<'_, TokenEvent>) {
        // One broadcast envelope instead of a per-peer clone loop.
        ctx.send_to_all(self.ring.iter().copied().filter(|&p| p != self.me), ev);
    }

    /// Token in hand: stamp and broadcast everything queued, pass it on.
    fn work_token(&mut self, vid: u64, mut next_seq: u64, ctx: &mut Context<'_, TokenEvent>) {
        if !self.member {
            return;
        }
        if vid > self.vid {
            // The token outran the membership Data that bumps our
            // generation (links are not FIFO): park it instead of dropping
            // it — try_deliver services it the moment the change lands,
            // saving a token-loss timeout + reformation on a healthy ring.
            self.pending_token = Some((vid, next_seq));
            self.last_token_seen = ctx.now();
            return;
        }
        if vid < self.vid {
            return; // stale token from a previous ring generation
        }
        // The token's next_seq proves every lower sequence exists: gap
        // evidence for the Nack repair path even when the lost message is
        // the current tail of the stream.
        self.expected_seq = self.expected_seq.max(next_seq);
        self.last_token_seen = ctx.now();
        self.holding_token = true;
        while let Some(payload) = self.outbox.pop_front() {
            let m = SeqMsg {
                seq: next_seq,
                origin: self.me,
                payload,
                change: None,
                vid: self.vid,
            };
            next_seq += 1;
            self.broadcast(data_of(m), ctx);
            self.accept_data(m, ctx);
        }
        while let Some(change) = self.change_queue.pop_front() {
            let m = SeqMsg {
                seq: next_seq,
                origin: self.me,
                payload: PayloadRef::EMPTY,
                change: Some(change),
                vid: self.vid,
            };
            next_seq += 1;
            self.broadcast(data_of(m), ctx);
            self.accept_data(m, ctx);
        }
        self.holding_token = false;
        if !self.member {
            return; // we just delivered our own removal: the token dies here
        }
        if let Some(next) = self.successor() {
            if next == self.me {
                // Singleton ring: hold the token by re-arming the timer.
                return;
            }
            // Pass with the *current* generation: a membership change we
            // just stamped bumped `vid`, and the successor (which sees the
            // change first, in sequence order) expects the new one.
            ctx.send(
                next,
                TokenEvent::Token {
                    vid: self.vid,
                    next_seq,
                },
            );
        }
    }

    fn accept_data(&mut self, m: SeqMsg, ctx: &mut Context<'_, TokenEvent>) {
        self.known.insert(m.seq, m);
        self.try_deliver(ctx);
        // A parked ahead-of-generation token becomes workable once the
        // membership change it waited on has been delivered. Never while
        // already holding a token (reentrancy would fork the stamping).
        if !self.holding_token {
            if let Some((vid, next_seq)) = self.pending_token {
                if vid <= self.vid {
                    self.pending_token = None;
                    if vid == self.vid {
                        self.work_token(vid, next_seq, ctx);
                    }
                }
            }
        }
    }

    fn try_deliver(&mut self, ctx: &mut Context<'_, TokenEvent>) {
        while self.member {
            let Some(&SeqMsg {
                origin,
                payload,
                change,
                vid: stamp_vid,
                ..
            }) = self.known.get(self.next_deliver)
            else {
                break;
            };
            let seq = self.next_deliver;
            self.next_deliver += 1;
            match change {
                Some(RingChange::Join(j)) => {
                    // RMP fault-free membership: the join is a totally
                    // ordered message; everyone extends the ring at the same
                    // point.
                    if !self.ring.contains(&j) {
                        self.ring.push(j);
                        self.ring.sort_unstable();
                        self.vid += 1;
                        ctx.output(TokenEvent::RingInstalled {
                            vid: self.vid,
                            ring: self.ring.clone(),
                        });
                        if origin == self.me {
                            ctx.send(
                                j,
                                TokenEvent::RingInfo {
                                    vid: self.vid,
                                    ring: self.ring.clone(),
                                    next_deliver: self.next_deliver,
                                },
                            );
                        }
                    }
                }
                Some(RingChange::Leave(target)) => {
                    // A scripted removal rides the total order exactly like
                    // a join: everyone shrinks the ring at the same point,
                    // including the target, which stops delivering here.
                    if self.ring.contains(&target) {
                        self.ring.retain(|&p| p != target);
                        self.vid += 1;
                        if target == self.me {
                            self.member = false;
                            self.removed = true;
                        }
                        ctx.output(TokenEvent::RingInstalled {
                            vid: self.vid,
                            ring: self.ring.clone(),
                        });
                    }
                }
                None => {
                    ctx.output(TokenEvent::Deliver {
                        seq,
                        origin,
                        payload,
                        vid: stamp_vid,
                    });
                }
            }
        }
    }

    /// Gap repair (piggybacked on the hold timer, scanned every
    /// `retrans_interval`): when the delivery cursor has been stuck behind
    /// already-sequenced messages across two consecutive scans, ask the ring
    /// to re-send the missing range. On loss-free links a gap closes within
    /// one scan period, so the path never fires there.
    fn nack_tick(&mut self, now: Time, ctx: &mut Context<'_, TokenEvent>) {
        if now.since(self.last_nack_scan) <= self.config.retrans_interval {
            return;
        }
        self.last_nack_scan = now;
        // Gap evidence: a higher sequence is already known, or a token has
        // shown a `next_seq` above our cursor (the latter catches a lost
        // Data at the very tail, where no higher-seq message exists yet).
        let stalled_now = !self.known.contains(self.next_deliver)
            && (self
                .known
                .last()
                .is_some_and(|last| last >= self.next_deliver)
                || self.next_deliver < self.expected_seq);
        if stalled_now && self.nack_stalled && self.nack_cursor == self.next_deliver {
            // One responder suffices (every member holds the full sequenced
            // history); rotate the target across scans so a peer that lacks
            // the range does not get asked forever.
            let others: Vec<ProcessId> = self
                .ring
                .iter()
                .copied()
                .filter(|&q| q != self.me)
                .collect();
            if !others.is_empty() {
                let target = others[self.nack_round as usize % others.len()];
                self.nack_round += 1;
                ctx.send(
                    target,
                    TokenEvent::Nack {
                        need: self.next_deliver,
                    },
                );
            }
        }
        self.nack_cursor = self.next_deliver;
        self.nack_stalled = stalled_now;
    }

    /// Serve a gap-repair request: re-send every sequenced message we hold
    /// from `need` on (bounded per request; the requester asks again if its
    /// cursor is still stuck).
    fn serve_nack(&mut self, from: ProcessId, need: u64, ctx: &mut Context<'_, TokenEvent>) {
        for (_, &m) in self.known.iter_from(need).take(64) {
            ctx.send(from, data_of(m));
        }
    }

    fn start_reformation(&mut self, ctx: &mut Context<'_, TokenEvent>) {
        let vid = self.vid + 1;
        self.reforming = Some((vid, ctx.now() + self.config.reform_timeout));
        self.reports.clear();
        self.reports.insert(self.me, (self.vid, self.known_list()));
        self.broadcast(TokenEvent::Reform { vid }, ctx);
    }

    fn known_list(&self) -> Vec<SeqMsg> {
        self.known.iter_from(0).map(|(_, &m)| m).collect()
    }

    fn finish_reformation(&mut self, ctx: &mut Context<'_, TokenEvent>) {
        let Some((vid, _)) = self.reforming.take() else {
            return;
        };
        // Primary-partition rule (the Isis counterpart of §2.1.1): a
        // minority fragment must not reform its own ring — two fragments
        // stamping the same sequence space is a total-order split brain.
        // Stay in the old ring and retry after another token-loss timeout;
        // a healed partition resolves through the stale-probe teach path.
        if self.reports.len() < self.ring.len() / 2 + 1 {
            self.reports.clear();
            self.last_token_seen = ctx.now();
            return;
        }
        let ring: Vec<ProcessId> = {
            let mut r: Vec<ProcessId> = self.reports.keys().copied().collect();
            r.sort_unstable();
            r
        };
        // Commit above every reporter's current generation: a reporter that
        // delivered a membership change mid-flight may sit above the probe's
        // proposal, and the commit must not look stale to it.
        let vid = self
            .reports
            .values()
            .map(|(v, _)| v + 1)
            .max()
            .unwrap_or(vid)
            .max(vid);
        // Recovery: union of all known sequenced messages.
        let mut recovery: BTreeMap<u64, SeqMsg> = BTreeMap::new();
        for (_, report) in self.reports.values() {
            for &m in report {
                recovery.entry(m.seq).or_insert(m);
            }
        }
        let next_seq = recovery.keys().next_back().map_or(0, |s| s + 1);
        let recovery: Vec<SeqMsg> = recovery.into_values().collect();
        let ev = TokenEvent::NewRing(Box::new(NewRingData {
            vid,
            ring: ring.clone(),
            recovery: recovery.clone(),
            next_seq,
            reinject: true,
        }));
        ctx.send_to_all(ring.iter().copied().filter(|&p| p != self.me), ev);
        self.install_ring(vid, ring, recovery, next_seq, true, ctx);
    }

    fn install_ring(
        &mut self,
        vid: u64,
        ring: Vec<ProcessId>,
        recovery: Vec<SeqMsg>,
        next_seq: u64,
        reinject: bool,
        ctx: &mut Context<'_, TokenEvent>,
    ) {
        for m in recovery {
            self.known.insert(m.seq, m);
        }
        let was_member = self.member;
        // Gaps left by crashed holders are skipped: delivery resumes at the
        // first recovered sequence at or above the old cursor. Two guards:
        // the cursor never *regresses* (re-delivery), and only a real
        // reformation commit — whose recovery set is the authoritative
        // union of every survivor's messages — may skip it *forward*. A
        // teach install carries no recovery and a lower-bound `next_seq`,
        // so skipping there would jump over messages the Nack repair path
        // could still fill.
        if reinject {
            let resume = self
                .known
                .iter_from(self.next_deliver)
                .next()
                .map(|(s, _)| s);
            if let Some(r) = resume {
                self.next_deliver = self.next_deliver.max(r.min(next_seq));
                // Skip unfillable gaps (sequence numbers nobody reported).
                while !self.known.contains(self.next_deliver) && self.next_deliver < next_seq {
                    self.next_deliver += 1;
                }
            } else {
                self.next_deliver = self.next_deliver.max(next_seq);
            }
            // The reformation recomputed the sequence space from the
            // survivors' union; older tail evidence no longer applies.
            self.expected_seq = next_seq;
        }
        self.pending_token = None;
        self.ring = ring.clone();
        self.member = ring.contains(&self.me);
        self.reforming = None;
        self.last_token_seen = ctx.now();
        // Recovery deliveries happen *before* the generation bump: the
        // recovered messages were sent in the old ring, and survivors that
        // delivered them pre-reformation tagged them with the old `vid` —
        // view synchrony requires both sides to agree.
        self.try_deliver(ctx);
        self.vid = vid;
        ctx.output(TokenEvent::RingInstalled {
            vid,
            ring: ring.clone(),
        });
        if !self.member {
            if was_member {
                // We were expelled by a reformation we missed (wrong
                // suspicion or a healed partition): stop delivering and —
                // unless removed by request — re-join through the ordinary
                // fault-free membership path.
                ctx.output(TokenEvent::Excluded);
                if !self.removed {
                    if let Some(&head) = ring.first() {
                        ctx.send(head, TokenEvent::JoinRequest);
                    }
                }
            }
            return;
        }
        // The reformer (lowest id) re-injects the token; a *teach* install
        // never does (the circulating token is still live).
        if reinject && ring.first() == Some(&self.me) {
            self.work_token(vid, next_seq, ctx);
        }
    }
}

impl Component<TokenEvent> for TokenStack {
    fn on_start(&mut self, ctx: &mut Context<'_, TokenEvent>) {
        self.last_token_seen = ctx.now();
        ctx.set_timer(HOLD);
        if self.member && self.ring.first() == Some(&self.me) {
            // The lowest-id member creates the token.
            self.work_token(0, 0, ctx);
        }
        if self.member {
            ctx.output(TokenEvent::RingInstalled {
                vid: 0,
                ring: self.ring.clone(),
            });
        }
    }

    fn on_event(&mut self, event: TokenEvent, ctx: &mut Context<'_, TokenEvent>) {
        match event {
            TokenEvent::Abcast(payload) => self.outbox.push_back(payload),
            TokenEvent::Join if !self.member => {
                ctx.send(ProcessId::new(0), TokenEvent::JoinRequest);
            }
            TokenEvent::Remove(target) if self.member => {
                // A removal is an ordinary sequenced membership message:
                // queue it for our next token hold.
                self.change_queue.push_back(RingChange::Leave(target));
            }
            _ => {}
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        event: TokenEvent,
        ctx: &mut Context<'_, TokenEvent>,
    ) {
        match event {
            TokenEvent::Token { vid, next_seq } => self.work_token(vid, next_seq, ctx),
            TokenEvent::Data {
                seq,
                origin,
                payload,
                change,
                vid,
            } => {
                self.last_token_seen = ctx.now(); // data implies a live ring
                self.accept_data(
                    SeqMsg {
                        seq,
                        origin,
                        payload,
                        change,
                        vid,
                    },
                    ctx,
                )
            }
            TokenEvent::Nack { need } => self.serve_nack(from, need, ctx),
            TokenEvent::Reform { vid } if vid > self.vid && self.member => {
                ctx.send(
                    from,
                    TokenEvent::ReformReport {
                        vid,
                        current: self.vid,
                        known: self.known_list(),
                    },
                );
                self.last_token_seen = ctx.now(); // reformation under way
            }
            TokenEvent::Reform { .. } if self.member => {
                // A probe at or below our generation: the prober missed a
                // reformation (wrong suspicion, healed partition). Teach it
                // the current ring; it will stop delivering and re-join. The
                // teach never re-injects the token — ours is still live.
                ctx.send(
                    from,
                    TokenEvent::NewRing(Box::new(NewRingData {
                        vid: self.vid,
                        ring: self.ring.clone(),
                        recovery: Vec::new(),
                        next_seq: self.next_deliver,
                        reinject: false,
                    })),
                );
            }
            TokenEvent::ReformReport {
                vid,
                current,
                known,
            } => {
                if let Some((rvid, _)) = self.reforming {
                    if vid == rvid {
                        self.reports.insert(from, (current, known));
                        // The ring holds no duplicates.
                        if self.reports.len() == self.ring.len() {
                            self.finish_reformation(ctx);
                        }
                    }
                }
            }
            TokenEvent::NewRing(nr) if nr.vid > self.vid => {
                self.install_ring(nr.vid, nr.ring, nr.recovery, nr.next_seq, nr.reinject, ctx);
            }
            TokenEvent::JoinRequest if self.member => {
                self.change_queue.push_back(RingChange::Join(from));
            }
            TokenEvent::RingInfo {
                vid,
                ring,
                next_deliver,
            } if !self.member && !self.removed => {
                self.vid = vid;
                self.ring = ring.clone();
                self.member = true;
                self.next_deliver = next_deliver;
                ctx.output(TokenEvent::RingInstalled { vid, ring });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _timer: TimerId, ctx: &mut Context<'_, TokenEvent>) {
        ctx.set_timer(HOLD);
        if !self.member {
            return;
        }
        let now = ctx.now();
        if let Some((_, deadline)) = self.reforming {
            if now >= deadline {
                self.finish_reformation(ctx);
            }
            return;
        }
        self.nack_tick(now, ctx);
        // Token-loss detection: the Totem membership trigger.
        if now.since(self.last_token_seen) > self.config.token_timeout {
            let unsuspected_lowest = self.ring.first().copied();
            // The lowest member starts reformation; if the lowest crashed,
            // everyone times out and the lowest *survivor*'s probe wins (the
            // vid guard makes the protocols converge).
            if unsuspected_lowest == Some(self.me)
                || self
                    .ring
                    .iter()
                    .take_while(|&&p| p != self.me)
                    .all(|_| now.since(self.last_token_seen) > self.config.token_timeout)
            {
                self.start_reformation(ctx);
            }
        }
    }
}

/// The token-ring stack as a [`StackDriver`]: one component, [`TOKEN`].
pub struct TokenDriver;

impl StackDriver for TokenDriver {
    type Event = TokenEvent;
    type Config = TokenConfig;
    const KIND: StackKind = StackKind::Token;

    fn build(id: ProcessId, config: &TokenConfig, founders: usize) -> Process<TokenEvent> {
        let ring =
            (id.index() < founders).then(|| (0..founders as u32).map(ProcessId::new).collect());
        Process::builder(id)
            .with(TOKEN, TokenStack::new(id, ring, *config))
            .build()
    }

    fn abcast(payload: PayloadRef) -> Op<TokenEvent> {
        (TOKEN, TokenEvent::Abcast(payload))
    }

    /// RMP-style fault-free join: the ring sponsors the joiner itself.
    fn join(_contact: ProcessId) -> Op<TokenEvent> {
        (TOKEN, TokenEvent::Join)
    }

    /// The leave rides the total order like a join, so every member shrinks
    /// the ring at the same point of the stream. The target stays out.
    fn remove(target: ProcessId) -> Option<Op<TokenEvent>> {
        Some((TOKEN, TokenEvent::Remove(target)))
    }

    fn project(event: &TokenEvent) -> Observation<'_> {
        match event {
            TokenEvent::Deliver {
                seq,
                origin,
                payload,
                vid,
            } => Observation::Deliver {
                sender: *origin,
                seq: *seq,
                kind: DeliveryKind::Atomic,
                class: MessageClass::ABCAST,
                view: *vid,
                payload: *payload,
            },
            TokenEvent::RingInstalled { vid, ring } => Observation::View {
                id: *vid,
                members: ring,
            },
            // A member excluded by a reformation it missed stops delivering
            // and re-enters later through the fault-free join: its stream
            // resets at the exclusion.
            TokenEvent::Excluded => Observation::Reset,
            _ => Observation::Other,
        }
    }
}

/// A simulated token-ring group. Its surface is
/// [`GroupTransport`](gcs_sim::GroupTransport); installed rings are its
/// [`views`](gcs_sim::GroupTransport::views).
pub type TokenSim = Harness<TokenDriver, SimWorld<TokenEvent>>;

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_sim::{GroupTransport, InvariantChecker};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn token_orders_messages_from_all_senders() {
        let mut sim = TokenSim::new(3, TokenConfig::default(), 1);
        for i in 0..12u32 {
            sim.abcast_at(
                Time::from_millis(1 + (i / 3) as u64),
                p(i % 3),
                vec![i as u8],
            );
        }
        sim.run_until(Time::from_secs(1));
        let seqs = sim.adelivered_payloads();
        for s in &seqs {
            assert_eq!(s.len(), 12, "everything delivered: {seqs:?}");
        }
        let report = InvariantChecker::check(&sim, 3);
        assert!(report.is_clean(), "{:#?}", report.violations);
    }

    #[test]
    fn token_loss_triggers_reformation_and_recovery() {
        let mut sim = TokenSim::new(3, TokenConfig::default(), 2);
        sim.abcast_at(Time::from_millis(1), p(1), b"pre".to_vec());
        sim.crash_at(Time::from_millis(5), p(0));
        sim.abcast_at(Time::from_millis(200), p(2), b"post".to_vec());
        sim.run_until(Time::from_secs(2));
        let rings = sim.views();
        for i in 1..3 {
            let ring = &rings[i].last().expect("reformation happened").members;
            assert_eq!(ring, &vec![p(1), p(2)], "p{i} sees the reformed ring");
        }
        let seqs = sim.adelivered_payloads();
        assert!(
            seqs[1].contains(&b"post".to_vec()),
            "ordering resumed: {seqs:?}"
        );
        assert_eq!(seqs[1], seqs[2]);
    }

    #[test]
    fn rmp_join_rides_the_total_order() {
        let mut sim = TokenSim::with_joiners(3, 1, TokenConfig::default(), 3);
        sim.join_at(Time::from_millis(5), p(3), p(0));
        sim.abcast_at(Time::from_millis(100), p(1), b"hello".to_vec());
        sim.run_until(Time::from_secs(1));
        let rings = sim.views();
        for i in 0..4 {
            let ring = rings[i].last().expect("ring installed");
            assert!(ring.contains(p(3)), "p{i} sees the joiner");
        }
        // The joiner receives post-join traffic.
        let seqs = sim.adelivered_payloads();
        assert!(seqs[3].contains(&b"hello".to_vec()));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = TokenSim::new(3, TokenConfig::default(), seed);
            for i in 0..6u32 {
                sim.abcast_at(Time::from_millis(1), p(i % 3), vec![i as u8]);
            }
            sim.run_until(Time::from_millis(500));
            (sim.adelivered_payloads(), sim.metrics().total_sent())
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn scripted_removal_shrinks_the_ring_without_rejoin() {
        let mut sim = TokenSim::new(4, TokenConfig::default(), 9);
        sim.abcast_at(Time::from_millis(1), p(3), b"pre".to_vec());
        sim.remove_at(Time::from_millis(50), p(1), p(3));
        sim.abcast_at(Time::from_millis(300), p(1), b"post".to_vec());
        sim.run_until(Time::from_secs(2));
        let rings = sim.views();
        for i in 0..3 {
            let ring = &rings[i].last().expect("ring change").members;
            assert_eq!(ring, &vec![p(0), p(1), p(2)], "p{i} sees p3 leave");
        }
        // The target delivered its own leave (its last installed ring lacks
        // it) and stayed out.
        let last3 = rings[3].last().expect("target saw the leave");
        assert!(!last3.contains(p(3)));
        let seqs = sim.adelivered_payloads();
        for i in 0..3 {
            assert!(seqs[i].contains(&b"pre".to_vec()), "p{i}");
            assert!(seqs[i].contains(&b"post".to_vec()), "p{i}");
        }
        assert_eq!(seqs[0], seqs[1]);
        assert_eq!(seqs[1], seqs[2]);
        // The removed member got the prefix only.
        assert!(seqs[3].contains(&b"pre".to_vec()));
        assert!(!seqs[3].contains(&b"post".to_vec()));
    }

    #[test]
    fn partitioned_minority_does_not_fork_the_sequence_space() {
        let mut sim = TokenSim::new(5, TokenConfig::default(), 11);
        sim.abcast_at(Time::from_millis(1), p(0), b"a".to_vec());
        sim.partition_at(
            Time::from_millis(20),
            vec![vec![p(0), p(1), p(2)], vec![p(3), p(4)]],
        );
        // Both sides try to send during the split; only the majority's
        // reformed ring may stamp.
        sim.abcast_at(Time::from_millis(200), p(1), b"maj".to_vec());
        sim.abcast_at(Time::from_millis(200), p(3), b"min".to_vec());
        sim.heal_at(Time::from_millis(600));
        sim.run_until(Time::from_secs(4));
        // Total order holds across every pair of processes: no split-brain
        // stamping.
        let report = InvariantChecker::check(&sim, 5);
        assert!(report.is_clean(), "{:#?}", report.violations);
        let seqs = sim.adelivered_payloads();
        // The majority stream stayed live through the split.
        for i in 0..3 {
            assert!(seqs[i].contains(&b"maj".to_vec()), "p{i}: {seqs:?}");
        }
        // After the heal the excluded members learn the ring and re-join.
        let rings = sim.views();
        for i in 3..5 {
            let ring = rings[i].last().expect("rejoined");
            assert!(ring.contains(p(i as u32)), "p{i} back in the ring");
        }
    }

    #[test]
    fn wan_profile_floors_to_defaults_on_lan() {
        let lan = TokenConfig::for_topology(&Topology::lan(), 8);
        let d = TokenConfig::default();
        assert_eq!(lan.token_timeout, d.token_timeout);
        assert_eq!(lan.reform_timeout, d.reform_timeout);
        assert_eq!(lan.retrans_interval, d.retrans_interval);
        // On the 3-region WAN the token-loss timeout clears full rotations.
        let wan = TokenConfig::for_topology(&Topology::wan_3region(), 9);
        assert!(wan.token_timeout >= TimeDelta::from_secs(2));
        assert!(wan.reform_timeout > d.reform_timeout);
    }
}

//! The Isis-style stack (Figs 1–2): Membership+FD → View Synchrony (flush)
//! → fixed-sequencer Atomic Broadcast.
//!
//! Structural properties reproduced faithfully (they are what the paper's
//! Section 4 measures the new architecture against):
//!
//! * **Perfect-failure-detector emulation**: any suspicion leads to
//!   exclusion; a wrongly excluded process is *killed* and must re-join with
//!   a full state transfer (§4.3).
//! * **Sending view delivery**: during a view change, senders are blocked
//!   from the flush start until the new view is installed (§4.4); the stack
//!   emits [`IsisEvent::Blocked`] markers so experiments can measure the
//!   window.
//! * **Two ordering protocols**: the sequencer orders application messages
//!   in the steady state, and the flush protocol re-solves ordering for
//!   in-flight messages at every view change (§4.1).
//!
//! Like the original Isis, the stack assumes reliable FIFO links (the
//! paper-era systems ran on such a substrate); traditional-baseline
//! experiments therefore run on a loss-free simulated LAN.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bytes::Bytes;
use gcs_kernel::{
    Component, ComponentId, Context, DeliveryKind, Event, IdMap, IdRuns, MessageClass, PayloadRef,
    PositionLog, Process, ProcessId, Time, TimeDelta, TimerId,
};
use gcs_sim::{Harness, Observation, Op, SimWorld, StackDriver, StackKind, Topology, Trace};

/// The one component of the Isis-style stack: the whole stack is one.
pub const ISIS: ComponentId = ComponentId::new(0);

/// Message identity within the Isis stack.
pub type IsisMsgId = (ProcessId, u64);

/// Configuration of an Isis-style process. A killed (wrongly excluded)
/// process always re-joins; a scripted removal stays out.
#[derive(Clone, Copy, Debug)]
pub struct IsisConfig {
    /// Heartbeat period. [`for_topology`](Self::for_topology) stretches it
    /// on WAN presets (`GroupBuilder` runs that profile unless given a
    /// config).
    pub heartbeat_interval: TimeDelta,
    /// Failure-detection timeout — in the traditional architecture this is
    /// also the *exclusion* timeout (suspicion ⇒ exclusion). Experiment E3
    /// sweeps it, the benchmark's `live-closed` workload raises it, and
    /// [`for_topology`](Self::for_topology) stretches it on WAN presets.
    pub fd_timeout: TimeDelta,
    /// Application state transferred on (re-)join, in bytes (§4.3).
    /// Experiment E3b sweeps it; the Isis state-transfer unit test sets it.
    pub state_size: usize,
    /// Throttle for the loss-repair paths (re-pushing own unsequenced data
    /// to the sequencer, asking it to backfill missed orders). The original
    /// Isis assumed reliable FIFO links; on lossy/partitioned topologies the
    /// repair traffic stands in for that substrate.
    /// [`for_topology`](Self::for_topology) stretches it on WAN presets.
    pub retrans_interval: TimeDelta,
}

impl Default for IsisConfig {
    fn default() -> Self {
        IsisConfig {
            heartbeat_interval: TimeDelta::from_millis(5),
            fd_timeout: TimeDelta::from_millis(100),
            state_size: 0,
            retrans_interval: TimeDelta::from_millis(10),
        }
    }
}

impl IsisConfig {
    /// A timeout profile derived from the topology's RTT bound: on a LAN the
    /// defaults are returned unchanged (every derived value floors at its
    /// default), while on WAN topologies the heartbeat stretches with the
    /// propagation delay and the exclusion timeout clears several round
    /// trips — below that, the perfect-failure-detector emulation suspects
    /// (and kills) peers that are merely far away, and the stack thrashes
    /// through view changes instead of converging.
    pub fn for_topology(topology: &Topology) -> Self {
        let d = topology.max_one_way_delay();
        let defaults = Self::default();
        IsisConfig {
            heartbeat_interval: defaults.heartbeat_interval.max(d.div(4)),
            // 4 one-way delays (two round trips) plus heartbeat slack: a
            // heartbeat must be able to lose one race with the jitter
            // without its sender being expelled.
            fd_timeout: defaults.fd_timeout.max(d.saturating_mul(4) + d),
            retrans_interval: defaults.retrans_interval.max(d.saturating_mul(3)),
            ..defaults
        }
    }
}

/// Wire + local events of the Isis stack.
#[derive(Clone, Debug)]
pub enum IsisEvent {
    // -- wire --
    /// Failure-detection heartbeat.
    Heartbeat,
    /// Application data diffused to the group (awaiting sequencing).
    Data {
        /// Message identity.
        id: IsisMsgId,
        /// Payload handle (interned in the simulation arena — flush
        /// reports, re-orders and re-deliveries all share one allocation).
        payload: PayloadRef,
    },
    /// Sequencer's ordering decision: `id` is the `seq`-th message of the
    /// view.
    Order {
        /// View the ordering belongs to.
        vid: u64,
        /// Position in the view's delivery order.
        seq: u64,
        /// The ordered message.
        id: IsisMsgId,
    },
    /// Coordinator starts a view change (flush begins; senders block).
    ViewProposal {
        /// Proposed view number.
        vid: u64,
        /// Proposed membership.
        members: Vec<ProcessId>,
    },
    /// A member's unstable messages for the flush.
    FlushReport {
        /// The proposed view this report answers.
        vid: u64,
        /// Messages not yet delivered at the reporter (id, payload handle,
        /// and the sequencer position if one was assigned).
        unstable: Vec<(IsisMsgId, PayloadRef, Option<u64>)>,
    },
    /// Coordinator commits the new view with the agreed flush deliveries.
    /// Boxed: this rare, fat variant (two vectors) must not widen the hot
    /// event enum past the cache-line budget.
    NewView(Box<NewViewData>),
    /// A process (re-)requests membership.
    JoinRequest,
    /// A member asks the coordinator to expel `target` (scripted removal —
    /// in Isis, removal *is* exclusion, driven through the same flush).
    RemoveRequest {
        /// The member to expel.
        target: ProcessId,
    },
    /// State transfer to a (re-)joining process.
    StateTransfer {
        /// Size stands in for real state (§4.3's costly transfer).
        state: Bytes,
    },
    /// Loss repair: ask the sequencer to re-send its ordering decisions (and
    /// the data they refer to) from position `from` of view `vid` on. The
    /// original stack assumed reliable FIFO links; this stands in for their
    /// retransmission on lossy topologies.
    Repair {
        /// View whose order stream stalled.
        vid: u64,
        /// First order position the requester is missing.
        from: u64,
    },

    // -- application ops --
    /// Atomically broadcast `payload` (blocked while a flush is running —
    /// sending view delivery).
    Abcast(PayloadRef),
    /// Ask to join via the current coordinator.
    Join,
    /// Ask the coordinator to remove a member.
    Remove(ProcessId),

    // -- outputs --
    /// An ordered delivery.
    Deliver {
        /// Message identity.
        id: IsisMsgId,
        /// Payload handle (resolve via the group's arena).
        payload: PayloadRef,
        /// View in which the delivery happened.
        vid: u64,
    },
    /// A new view was installed.
    ViewInstalled {
        /// View number.
        vid: u64,
        /// Membership (head = sequencer).
        members: Vec<ProcessId>,
    },
    /// Send-blocking marker: `true` when the flush blocks senders, `false`
    /// when the new view unblocks them (measured by experiment E4).
    Blocked(bool),
    /// This process discovered it was excluded: Isis semantics — it is
    /// killed (and will re-join if configured).
    Killed,
    /// This process was removed *by request* (scripted removal): killed like
    /// any excluded process, but it stays out — no auto re-join.
    Removed,
    /// Re-join completed (state transfer received).
    Rejoined,
}

// Events are moved through every scheduler slot and dispatch; boxing the
// reformation-time fat variants keeps the enum inside one cache line.
const _: () = assert!(
    std::mem::size_of::<IsisEvent>() <= 64,
    "IsisEvent outgrew one cache line; box the offending variant"
);

/// The payload of an [`IsisEvent::NewView`] commit.
#[derive(Clone, Debug)]
pub struct NewViewData {
    /// The new view number.
    pub vid: u64,
    /// The new membership (head = sequencer).
    pub members: Vec<ProcessId>,
    /// Messages to deliver before installing the view, in agreed order.
    pub deliver_first: Vec<(IsisMsgId, PayloadRef)>,
    /// Members expelled *by request* in this view change: they learn their
    /// exclusion is administrative and must not auto re-join.
    pub removed: Vec<ProcessId>,
}

impl Event for IsisEvent {
    fn kind(&self) -> &'static str {
        match self {
            IsisEvent::Heartbeat => "isis/heartbeat",
            IsisEvent::Data { .. } => "isis/data",
            IsisEvent::Order { .. } => "isis/order",
            IsisEvent::ViewProposal { .. } => "isis/view-proposal",
            IsisEvent::FlushReport { .. } => "isis/flush-report",
            IsisEvent::NewView { .. } => "isis/new-view",
            IsisEvent::JoinRequest => "isis/join-request",
            IsisEvent::RemoveRequest { .. } => "isis/remove-request",
            IsisEvent::StateTransfer { .. } => "isis/state-transfer",
            IsisEvent::Repair { .. } => "isis/repair",
            IsisEvent::Abcast(_) => "op/abcast",
            IsisEvent::Join => "op/join",
            IsisEvent::Remove(_) => "op/remove",
            IsisEvent::Deliver { .. } => "out/deliver",
            IsisEvent::ViewInstalled { .. } => "out/view",
            IsisEvent::Blocked(_) => "out/blocked",
            IsisEvent::Killed => "out/killed",
            IsisEvent::Removed => "out/removed",
            IsisEvent::Rejoined => "out/rejoined",
        }
    }

    fn wire_size(&self) -> usize {
        match self {
            IsisEvent::Heartbeat => 16,
            IsisEvent::Data { payload, .. } => 28 + payload.len(),
            IsisEvent::Order { .. } => 36,
            IsisEvent::ViewProposal { members, .. } => 16 + 4 * members.len(),
            IsisEvent::FlushReport { unstable, .. } => {
                16 + unstable.iter().map(|(_, p, _)| 24 + p.len()).sum::<usize>()
            }
            IsisEvent::NewView(nv) => {
                16 + 4 * nv.members.len()
                    + nv.deliver_first
                        .iter()
                        .map(|(_, p)| 16 + p.len())
                        .sum::<usize>()
            }
            IsisEvent::JoinRequest => 16,
            IsisEvent::RemoveRequest { .. } => 20,
            IsisEvent::StateTransfer { state } => 16 + state.len(),
            IsisEvent::Repair { .. } => 32,
            _ => 64,
        }
    }
}

#[derive(Debug, PartialEq)]
enum Mode {
    /// Normal operation.
    Steady,
    /// Flush in progress (senders blocked).
    Flushing,
    /// Excluded and killed; awaiting re-join (if configured).
    Dead,
}

/// The monolithic Isis-style stack as one component (the paper calls these
/// systems *monolithic* — the composition is internal).
pub struct IsisStack {
    me: ProcessId,
    config: IsisConfig,
    /// Current view.
    vid: u64,
    members: Vec<ProcessId>,
    member: bool,
    mode: Mode,
    /// FD state (integrated with membership — the traditional coupling).
    /// Indexed by raw process id: heartbeats arrive constantly, so this is
    /// a dense table rather than a hash map.
    last_heard: Vec<Option<Time>>,
    /// Sender side: next per-process message number.
    next_msg: u64,
    /// Sequencer side: next order number in this view.
    next_order: u64,
    /// Receiver side: messages awaiting their order, by id — per sender a
    /// window of slots that moves up as the sequencer orders the stream
    /// (`gcs_kernel::IdMap`), walked in id order by a flush report.
    unordered: IdMap<PayloadRef>,
    /// Every ordering decision of the current view, by position. Positions
    /// below `next_deliver` are delivered and their slot holds the payload
    /// too (a handle; the bytes live once in the arena): the log is not
    /// drained on delivery, so the sequencer can re-serve decisions — and
    /// the data they refer to — that a lossy link swallowed. Positions from
    /// `next_deliver` on are orders awaiting their message.
    order_log: PositionLog<(IsisMsgId, Option<PayloadRef>)>,
    next_deliver: u64,
    /// Every message delivered, across views (per-sender runs).
    delivered: IdRuns,
    /// Scan timestamp of the loss-repair paths.
    last_repair: Time,
    /// Own unsequenced messages as of the previous repair scan.
    repair_own: Vec<IsisMsgId>,
    /// Delivery cursor as of the previous repair scan.
    repair_cursor: u64,
    /// Whether the order stream was past the cursor at the previous scan.
    repair_stalled: bool,
    /// Abcasts issued while blocked (sending view delivery queues them).
    send_queue: VecDeque<PayloadRef>,
    /// Coordinator flush state.
    flush_vid: u64,
    flush_members: Vec<ProcessId>,
    flush_reports: BTreeMap<ProcessId, Vec<(IsisMsgId, PayloadRef, Option<u64>)>>,
    /// Members the in-flight flush expels by request.
    flush_removed: Vec<ProcessId>,
    /// The proposal this process is answering as a flush *participant*
    /// (`(vid, coordinator)`), so a lost report can be re-sent.
    flush_answering: Option<(u64, ProcessId)>,
    /// Throttle timestamp of the flush/rejoin nudges (lost-message
    /// retransmission for the view-change protocol itself).
    last_nudge: Time,
    /// Where a killed process sent its re-join request (re-sent on loss).
    rejoin_target: Option<ProcessId>,
    /// The last committed view (with its flush deliveries), kept so a
    /// member can teach it to a process whose commit message was lost.
    last_commit: Option<NewViewData>,
    /// Joins waiting for the next view change (coordinator side).
    pending_joins: BTreeSet<ProcessId>,
    /// Scripted removals waiting for the next view change (coordinator
    /// side).
    pending_removals: BTreeSet<ProcessId>,
    started_at: Time,
}

impl IsisStack {
    /// Creates a stack; founding members pass the initial membership,
    /// late joiners pass `None`.
    pub fn new(me: ProcessId, initial: Option<Vec<ProcessId>>, config: IsisConfig) -> Self {
        let (members, member) = match initial {
            Some(m) => {
                let is_member = m.contains(&me);
                (m, is_member)
            }
            None => (Vec::new(), false),
        };
        IsisStack {
            me,
            config,
            vid: 0,
            members,
            member,
            mode: Mode::Steady,
            last_heard: Vec::new(),
            next_msg: 0,
            next_order: 0,
            unordered: IdMap::default(),
            order_log: PositionLog::default(),
            next_deliver: 0,
            delivered: IdRuns::default(),
            last_repair: Time::ZERO,
            repair_own: Vec::new(),
            repair_cursor: 0,
            repair_stalled: false,
            send_queue: VecDeque::new(),
            flush_vid: 0,
            flush_members: Vec::new(),
            flush_reports: BTreeMap::new(),
            flush_removed: Vec::new(),
            flush_answering: None,
            last_nudge: Time::ZERO,
            rejoin_target: None,
            last_commit: None,
            pending_joins: BTreeSet::new(),
            pending_removals: BTreeSet::new(),
            started_at: Time::ZERO,
        }
    }

    fn sequencer(&self) -> Option<ProcessId> {
        self.members.first().copied()
    }

    /// The coordinator is the smallest member this process does not suspect.
    fn coordinator(&self, now: Time) -> Option<ProcessId> {
        self.members
            .iter()
            .copied()
            .find(|&p| p == self.me || !self.suspects(p, now))
    }

    fn suspects(&self, p: ProcessId, now: Time) -> bool {
        let last = self
            .last_heard
            .get(p.index())
            .copied()
            .flatten()
            .unwrap_or(self.started_at);
        now.since(last) > self.config.fd_timeout
    }

    fn note_heard(&mut self, p: ProcessId, now: Time) {
        let idx = p.index();
        if idx >= self.last_heard.len() {
            self.last_heard.resize(idx + 1, None);
        }
        self.last_heard[idx] = Some(now);
    }

    fn others(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.members.iter().copied().filter(move |&p| p != self.me)
    }

    fn broadcast(&self, ev: IsisEvent, ctx: &mut Context<'_, IsisEvent>) {
        // One broadcast envelope instead of a per-peer clone loop.
        ctx.send_to_all(self.others(), ev);
    }

    fn do_abcast(&mut self, payload: PayloadRef, ctx: &mut Context<'_, IsisEvent>) {
        let id = (self.me, self.next_msg);
        self.next_msg += 1;
        let data = IsisEvent::Data { id, payload };
        self.broadcast(data, ctx);
        self.accept_data(id, payload, ctx);
    }

    fn accept_data(
        &mut self,
        id: IsisMsgId,
        payload: PayloadRef,
        ctx: &mut Context<'_, IsisEvent>,
    ) {
        if self.delivered.contains(id) || self.unordered.contains(id) {
            return;
        }
        self.unordered.insert(id, payload);
        // Fixed sequencer: the view head assigns the order.
        if self.member && self.mode == Mode::Steady && self.sequencer() == Some(self.me) {
            let seq = self.next_order;
            self.next_order += 1;
            let order = IsisEvent::Order {
                vid: self.vid,
                seq,
                id,
            };
            self.broadcast(order.clone(), ctx);
            self.on_order(self.vid, seq, id, ctx);
        }
        self.try_deliver(ctx);
    }

    fn on_order(&mut self, vid: u64, seq: u64, id: IsisMsgId, ctx: &mut Context<'_, IsisEvent>) {
        if vid != self.vid {
            return; // stale view: the flush re-orders in-flight messages
        }
        // A later order for a position overrides an undelivered one; a
        // delivered position keeps the message delivered there.
        match self.order_log.get_mut(seq) {
            Some((held, None)) => *held = id,
            Some(_) => {}
            None => {
                self.order_log.insert(seq, (id, None));
            }
        }
        self.try_deliver(ctx);
    }

    fn try_deliver(&mut self, ctx: &mut Context<'_, IsisEvent>) {
        if !self.member || self.mode == Mode::Dead {
            return;
        }
        while let Some((id, slot)) = self.order_log.get_mut(self.next_deliver) {
            let id = *id;
            let Some(payload) = self.unordered.remove(id) else {
                break; // order known, data still in flight
            };
            *slot = Some(payload);
            self.next_deliver += 1;
            self.delivered.insert(id);
            ctx.output(IsisEvent::Deliver {
                id,
                payload,
                vid: self.vid,
            });
        }
    }

    /// Loss repair (piggybacked on the heartbeat timer, scanned every
    /// `retrans_interval`): re-push own data the sequencer has not ordered
    /// yet, and ask the sequencer to backfill ordering decisions our cursor
    /// is stuck behind. A message must look stuck across **two** consecutive
    /// scans before anything is sent, so on loss-free links (where ordering
    /// completes within one scan period) neither path ever fires and the
    /// steady-state event stream is untouched.
    fn repair_tick(&mut self, now: Time, ctx: &mut Context<'_, IsisEvent>) {
        if self.mode != Mode::Steady || now.since(self.last_repair) <= self.config.retrans_interval
        {
            return;
        }
        self.last_repair = now;
        let me = self.me;
        let own_now: Vec<IsisMsgId> = (self.unordered.sender_from(me, 0))
            .map(|(seq, _)| (me, seq))
            .collect();
        // Stall evidence: either the order stream visibly moved past our
        // cursor, or we hold *any* undelivered data at an unmoving cursor —
        // the latter covers a lost Order for the tail of the stream, where
        // no later order exists to prove the gap (and where a Data re-push
        // alone is silently deduplicated by the sequencer).
        let stalled_now = self
            .order_log
            .last()
            .is_some_and(|last| last >= self.next_deliver)
            || !self.unordered.is_empty();
        if let Some(seq) = self.sequencer().filter(|&s| s != self.me) {
            // Own messages unsequenced since the previous scan: the Data may
            // never have reached the sequencer — push it again (receivers
            // dedup on message id).
            for &id in own_now.iter().filter(|id| self.repair_own.contains(id)) {
                if let Some(&payload) = self.unordered.get(id) {
                    ctx.send(seq, IsisEvent::Data { id, payload });
                }
            }
            // Stuck across two consecutive scans: an Order (or its Data)
            // was lost — ask for a backfill.
            if stalled_now && self.repair_stalled && self.repair_cursor == self.next_deliver {
                ctx.send(
                    seq,
                    IsisEvent::Repair {
                        vid: self.vid,
                        from: self.next_deliver,
                    },
                );
            }
        }
        self.repair_own = own_now;
        self.repair_cursor = self.next_deliver;
        self.repair_stalled = stalled_now;
    }

    /// Sequencer side of [`IsisEvent::Repair`]: re-send order decisions from
    /// `from` on (and the data they refer to, where still known).
    fn serve_repair(
        &mut self,
        from: ProcessId,
        vid: u64,
        pos: u64,
        ctx: &mut Context<'_, IsisEvent>,
    ) {
        if vid != self.vid || !self.member || self.mode != Mode::Steady {
            return;
        }
        for (seq, &(id, delivered)) in self.order_log.iter_from(pos).take(64) {
            ctx.send(from, IsisEvent::Order { vid, seq, id });
            let payload = delivered.or_else(|| self.unordered.get(id).copied());
            if let Some(payload) = payload {
                ctx.send(from, IsisEvent::Data { id, payload });
            }
        }
    }

    // -- view changes (membership + view synchrony) -------------------------

    /// Coordinator: start a flush towards a new membership.
    ///
    /// Primary-partition rule: a successor view must contain a majority of
    /// the current one (a minority partition blocks rather than forming its
    /// own view — Isis §2.1.1).
    fn start_view_change(&mut self, new_members: Vec<ProcessId>, ctx: &mut Context<'_, IsisEvent>) {
        if new_members == self.members && self.pending_joins.is_empty() {
            return;
        }
        let survivors = new_members
            .iter()
            .filter(|p| self.members.contains(p))
            .count();
        if survivors < self.members.len() / 2 + 1 {
            return; // minority: wait, do not split the brain
        }
        self.mode = Mode::Flushing;
        ctx.output(IsisEvent::Blocked(true));
        self.flush_vid = self.vid + 1;
        self.flush_removed = self
            .members
            .iter()
            .copied()
            .filter(|p| self.pending_removals.contains(p) && !new_members.contains(p))
            .collect();
        self.flush_members = new_members.clone();
        self.flush_reports.clear();
        let proposal = IsisEvent::ViewProposal {
            vid: self.flush_vid,
            members: new_members.clone(),
        };
        // Survivors of the current view participate in the flush.
        self.broadcast(proposal, ctx);
        // Our own report.
        let report = self.local_unstable();
        self.flush_reports.insert(self.me, report);
        self.maybe_commit_view(ctx);
    }

    fn local_unstable(&self) -> Vec<(IsisMsgId, PayloadRef, Option<u64>)> {
        // Positions come from the order log: a reporter that already saw the
        // sequencer's decision for an undelivered message must carry it into
        // the flush, or the agreed order could contradict deliveries other
        // members already made from it. An undelivered message can only sit
        // at an undelivered position, so the log is read from the cursor.
        let mut report: Vec<_> = (self.unordered.iter())
            .map(|(id, &payload)| (id, payload, None))
            .collect();
        if !report.is_empty() {
            for (seq, (id, _)) in self.order_log.iter_from(self.next_deliver) {
                if let Ok(i) = report.binary_search_by_key(id, |&(id, _, _)| id) {
                    report[i].2 = Some(seq);
                }
            }
        }
        report
    }

    /// The order-log position of each of `ids` (sorted), in one pass over
    /// the log from position `from`; the highest if an id is at several.
    fn positions_of(&self, ids: &[IsisMsgId], from: u64) -> Vec<Option<u64>> {
        let mut positions = vec![None; ids.len()];
        if ids.is_empty() {
            return positions;
        }
        for (seq, (id, _)) in self.order_log.iter_from(from) {
            if let Ok(i) = ids.binary_search(id) {
                positions[i] = Some(seq);
            }
        }
        positions
    }

    fn on_view_proposal(
        &mut self,
        from: ProcessId,
        vid: u64,
        members: Vec<ProcessId>,
        ctx: &mut Context<'_, IsisEvent>,
    ) {
        if vid <= self.vid || !self.member {
            return;
        }
        if self.mode != Mode::Flushing {
            self.mode = Mode::Flushing;
            ctx.output(IsisEvent::Blocked(true));
        }
        let _ = members;
        self.flush_answering = Some((vid, from));
        let report = IsisEvent::FlushReport {
            vid,
            unstable: self.local_unstable(),
        };
        ctx.send(from, report);
    }

    fn on_flush_report(
        &mut self,
        from: ProcessId,
        vid: u64,
        unstable: Vec<(IsisMsgId, PayloadRef, Option<u64>)>,
        ctx: &mut Context<'_, IsisEvent>,
    ) {
        if vid != self.flush_vid || self.mode != Mode::Flushing {
            // A report for a flush that already committed: the reporter
            // never saw the commit (lost on a lossy link) and is blocked —
            // teach it the committed view, flush deliveries included.
            if self.mode == Mode::Steady && vid <= self.vid {
                if let Some(nv) = self.last_commit.clone() {
                    ctx.send(from, IsisEvent::NewView(Box::new(nv)));
                }
            }
            return;
        }
        self.flush_reports.insert(from, unstable);
        self.maybe_commit_view(ctx);
    }

    /// Coordinator: once every surviving proposed member reported, compute
    /// the agreed flush deliveries and commit the view.
    fn maybe_commit_view(&mut self, ctx: &mut Context<'_, IsisEvent>) {
        if self.mode != Mode::Flushing || self.flush_members.is_empty() {
            return;
        }
        let waiting_on: Vec<ProcessId> = self
            .flush_members
            .iter()
            .copied()
            .filter(|p| self.members.contains(p) && !self.flush_reports.contains_key(p))
            .collect();
        if !waiting_on.is_empty() {
            return;
        }
        // Agreed order for in-flight messages: sequencer positions first,
        // then unsequenced by id (view synchrony: same set, same order).
        // A reporter may hold a message without its ordering decision (the
        // Order was lost or partitioned away) while *this* process saw it —
        // consult our own order log before treating anything as
        // unsequenced, or the flush would re-order messages that members
        // already delivered at their sequenced positions.
        let mut unplaced: Vec<IsisMsgId> = self
            .flush_reports
            .values()
            .flatten()
            .filter(|(_, _, seq)| seq.is_none())
            .map(|&(id, _, _)| id)
            .collect();
        unplaced.sort_unstable();
        unplaced.dedup();
        let own_seq = self.positions_of(&unplaced, 0);
        let own_seq_of = |id: &IsisMsgId| {
            let i = unplaced.binary_search(id).ok()?;
            own_seq[i]
        };
        let mut sequenced: BTreeMap<u64, (IsisMsgId, PayloadRef)> = BTreeMap::new();
        let mut unsequenced: BTreeMap<IsisMsgId, PayloadRef> = BTreeMap::new();
        for report in self.flush_reports.values() {
            for &(id, payload, seq) in report {
                match seq.or_else(|| own_seq_of(&id)) {
                    Some(s) => {
                        sequenced.insert(s, (id, payload));
                    }
                    None => {
                        unsequenced.insert(id, payload);
                    }
                }
            }
        }
        let mut deliver_first: Vec<(IsisMsgId, PayloadRef)> = sequenced.into_values().collect();
        for (id, p) in unsequenced {
            if !deliver_first.iter().any(|(i, _)| *i == id) {
                deliver_first.push((id, p));
            }
        }
        let new_view = IsisEvent::NewView(Box::new(NewViewData {
            vid: self.flush_vid,
            members: self.flush_members.clone(),
            deliver_first: deliver_first.clone(),
            removed: self.flush_removed.clone(),
        }));
        // Tell survivors and joiners alike.
        let mut targets: BTreeSet<ProcessId> = self
            .members
            .iter()
            .chain(self.flush_members.iter())
            .copied()
            .collect();
        targets.remove(&self.me);
        ctx.send_to_all(targets, new_view);
        // State transfer to joiners (the §4.3 cost).
        for &j in self.pending_joins.clone().iter() {
            if self.flush_members.contains(&j) {
                ctx.send(
                    j,
                    IsisEvent::StateTransfer {
                        state: Bytes::from(vec![0u8; self.config.state_size]),
                    },
                );
            }
        }
        self.pending_joins.clear();
        // Removals carried out by this flush are done; the rest stay pending.
        let applied = self.flush_members.clone();
        self.pending_removals.retain(|t| applied.contains(t));
        self.install_view(
            self.flush_vid,
            self.flush_members.clone(),
            deliver_first,
            self.flush_removed.clone(),
            ctx,
        );
    }

    /// Coordinator: register a scripted removal and, when in steady state,
    /// start the view change that expels the target (plus any suspects and
    /// pending joiners, exactly as the failure-driven path would).
    fn note_removal(&mut self, target: ProcessId, ctx: &mut Context<'_, IsisEvent>) {
        self.pending_joins.remove(&target);
        self.pending_removals.insert(target);
        if self.member && self.mode == Mode::Steady {
            let mut next: Vec<ProcessId> = self
                .members
                .iter()
                .copied()
                .filter(|p| !self.pending_removals.contains(p))
                .collect();
            for &j in &self.pending_joins {
                if !next.contains(&j) {
                    next.push(j);
                }
            }
            self.start_view_change(next, ctx);
        }
    }

    fn install_view(
        &mut self,
        vid: u64,
        members: Vec<ProcessId>,
        deliver_first: Vec<(IsisMsgId, PayloadRef)>,
        removed: Vec<ProcessId>,
        ctx: &mut Context<'_, IsisEvent>,
    ) {
        // Deliver the flush set (view synchrony), skipping what we delivered.
        for &(id, payload) in &deliver_first {
            if self.delivered.insert(id) {
                self.unordered.remove(id);
                ctx.output(IsisEvent::Deliver {
                    id,
                    payload,
                    vid: self.vid,
                });
            }
        }
        self.flush_answering = None;
        // Any install supersedes an in-flight flush this process was
        // coordinating: stale coordinator state must not make a later
        // *participant* nudge re-commit an old view.
        self.flush_members.clear();
        self.flush_reports.clear();
        self.flush_removed.clear();
        if !members.contains(&self.me) {
            // Excluded: Isis kills the process (§4.3). A scripted removal is
            // the same exclusion, minus the re-join.
            self.mode = Mode::Dead;
            self.member = false;
            if removed.contains(&self.me) {
                ctx.output(IsisEvent::Removed);
            } else {
                ctx.output(IsisEvent::Killed);
                if let Some(&coord) = members.first() {
                    self.rejoin_target = Some(coord);
                    ctx.send(coord, IsisEvent::JoinRequest);
                }
            }
            return;
        }
        self.vid = vid;
        self.members = members.clone();
        self.member = true;
        self.mode = Mode::Steady;
        self.rejoin_target = None;
        self.last_commit = Some(NewViewData {
            vid,
            members: members.clone(),
            deliver_first,
            removed,
        });
        self.unordered.clear();
        // The order log is per view: what earlier views ordered can never
        // be asked for again (bounds it per view instead of per run).
        self.order_log.clear();
        self.next_order = 0;
        self.next_deliver = 0;
        // Fresh FD horizon for the new view.
        let now = ctx.now();
        for &m in &members {
            self.note_heard(m, now);
        }
        ctx.output(IsisEvent::ViewInstalled { vid, members });
        ctx.output(IsisEvent::Blocked(false));
        // Sending view delivery: queued sends go out in the new view.
        let queued: Vec<PayloadRef> = self.send_queue.drain(..).collect();
        for payload in queued {
            self.do_abcast(payload, ctx);
        }
    }
}

impl Component<IsisEvent> for IsisStack {
    fn on_start(&mut self, ctx: &mut Context<'_, IsisEvent>) {
        self.started_at = ctx.now();
        ctx.set_timer(self.config.heartbeat_interval);
    }

    fn on_event(&mut self, event: IsisEvent, ctx: &mut Context<'_, IsisEvent>) {
        match event {
            IsisEvent::Abcast(payload) => {
                if !self.member || self.mode != Mode::Steady {
                    // Sending view delivery: block (queue) during a flush.
                    self.send_queue.push_back(payload);
                } else {
                    self.do_abcast(payload, ctx);
                }
            }
            IsisEvent::Join => {
                // Contact the lowest-id process we know of.
                if let Some(&coord) = self.members.first().filter(|&&c| c != self.me) {
                    ctx.send(coord, IsisEvent::JoinRequest);
                } else {
                    ctx.send(ProcessId::new(0), IsisEvent::JoinRequest);
                }
            }
            IsisEvent::Remove(target) => {
                if !self.member || self.mode == Mode::Dead {
                    return;
                }
                if self.coordinator(ctx.now()) == Some(self.me) {
                    self.note_removal(target, ctx);
                } else if let Some(coord) = self.coordinator(ctx.now()) {
                    ctx.send(coord, IsisEvent::RemoveRequest { target });
                }
            }
            _ => {}
        }
    }

    fn on_message(&mut self, from: ProcessId, event: IsisEvent, ctx: &mut Context<'_, IsisEvent>) {
        if self.mode == Mode::Dead {
            // A killed process only listens for its re-admission.
            match event {
                IsisEvent::NewView(nv) if nv.members.contains(&self.me) => {
                    self.delivered.clear();
                    self.install_view(nv.vid, nv.members, nv.deliver_first, nv.removed, ctx);
                }
                IsisEvent::StateTransfer { .. } => {
                    ctx.output(IsisEvent::Rejoined);
                }
                _ => {}
            }
            return;
        }
        match event {
            IsisEvent::Heartbeat => {
                self.note_heard(from, ctx.now());
                // A heartbeat from a process outside our view means it holds
                // a stale view (it was excluded while unreachable): notify it
                // so it learns its exclusion (and gets killed, Isis-style).
                // The notice names the view's removals: it can overtake the
                // flush's own `NewView`, and a member removed by request
                // must not take it for a wrong exclusion and re-join.
                if self.member
                    && !self.members.contains(&from)
                    && !self.pending_joins.contains(&from)
                    && self.coordinator(ctx.now()) == Some(self.me)
                {
                    let removed = self
                        .last_commit
                        .as_ref()
                        .map_or_else(Vec::new, |nv| nv.removed.clone());
                    ctx.send(
                        from,
                        IsisEvent::NewView(Box::new(NewViewData {
                            vid: self.vid,
                            members: self.members.clone(),
                            deliver_first: Vec::new(),
                            removed,
                        })),
                    );
                }
            }
            IsisEvent::Data { id, payload } => self.accept_data(id, payload, ctx),
            IsisEvent::Order { vid, seq, id } => self.on_order(vid, seq, id, ctx),
            IsisEvent::ViewProposal { vid, members } => {
                self.on_view_proposal(from, vid, members, ctx)
            }
            IsisEvent::FlushReport { vid, unstable } => {
                self.on_flush_report(from, vid, unstable, ctx)
            }
            IsisEvent::NewView(nv) if nv.vid > self.vid => {
                self.install_view(nv.vid, nv.members, nv.deliver_first, nv.removed, ctx);
            }
            IsisEvent::JoinRequest => {
                // A fresh join overrides a stale pending removal of the same
                // process (otherwise a rejoiner would be expelled on sight).
                self.pending_removals.remove(&from);
                self.pending_joins.insert(from);
                if self.member && self.coordinator(ctx.now()) == Some(self.me) {
                    let mut m: Vec<ProcessId> = self
                        .members
                        .iter()
                        .copied()
                        .filter(|p| !self.pending_removals.contains(p))
                        .collect();
                    if !m.contains(&from) {
                        m.push(from);
                    }
                    self.start_view_change(m, ctx);
                }
            }
            IsisEvent::RemoveRequest { target } => {
                if self.member && self.coordinator(ctx.now()) == Some(self.me) {
                    self.note_removal(target, ctx);
                } else {
                    self.pending_removals.insert(target);
                }
            }
            IsisEvent::Repair { vid, from: pos } => self.serve_repair(from, vid, pos, ctx),
            IsisEvent::StateTransfer { .. } => ctx.output(IsisEvent::Rejoined),
            _ => {}
        }
    }

    fn on_timer(&mut self, _timer: TimerId, ctx: &mut Context<'_, IsisEvent>) {
        ctx.set_timer(self.config.heartbeat_interval);
        let now = ctx.now();
        if self.mode == Mode::Dead {
            // A killed process whose re-join request was lost would stay
            // dead forever: re-send it until re-admitted.
            if let Some(coord) = self.rejoin_target {
                if now.since(self.last_nudge) > self.config.retrans_interval {
                    self.last_nudge = now;
                    ctx.send(coord, IsisEvent::JoinRequest);
                }
            }
            return;
        }
        if !self.member {
            return;
        }
        if self.mode == Mode::Flushing && now.since(self.last_nudge) > self.config.retrans_interval
        {
            // The flush protocol itself assumed reliable links: re-send the
            // proposal to members whose report is missing (coordinator) or
            // our report to the coordinator (participant) so one lost
            // message cannot block the view change forever.
            self.last_nudge = now;
            if !self.flush_members.is_empty() {
                // A participant suspected *mid-flush* will never report:
                // restart the view change without it (it is excluded like
                // any other suspect; it re-joins through kill + state
                // transfer rather than being retained with a hole in its
                // delivery stream).
                let suspected: Vec<ProcessId> = self
                    .flush_members
                    .iter()
                    .copied()
                    .filter(|&p| {
                        p != self.me
                            && !self.flush_reports.contains_key(&p)
                            && self.suspects(p, now)
                    })
                    .collect();
                if !suspected.is_empty() {
                    let next: Vec<ProcessId> = self
                        .flush_members
                        .iter()
                        .copied()
                        .filter(|p| !suspected.contains(p))
                        .collect();
                    let survivors = next.iter().filter(|p| self.members.contains(p)).count();
                    if survivors > self.members.len() / 2 {
                        self.flush_members = next;
                        self.maybe_commit_view(ctx);
                    }
                }
                if self.mode == Mode::Flushing {
                    let waiting: Vec<ProcessId> = self
                        .flush_members
                        .iter()
                        .copied()
                        .filter(|p| self.members.contains(p) && !self.flush_reports.contains_key(p))
                        .collect();
                    for p in waiting {
                        ctx.send(
                            p,
                            IsisEvent::ViewProposal {
                                vid: self.flush_vid,
                                members: self.flush_members.clone(),
                            },
                        );
                    }
                }
            } else if let Some((vid, coord)) = self.flush_answering {
                if self.suspects(coord, now) {
                    // The flush coordinator died mid-flush: abandon the
                    // flush and return to steady state, so the ordinary
                    // suspicion path can elect a successor and run a fresh
                    // view change (otherwise the group nudges a corpse
                    // forever, blocked). If the coordinator was merely slow,
                    // its commit still reaches us as a NewView.
                    self.flush_answering = None;
                    self.mode = Mode::Steady;
                    ctx.output(IsisEvent::Blocked(false));
                    let queued: Vec<PayloadRef> = self.send_queue.drain(..).collect();
                    for payload in queued {
                        self.do_abcast(payload, ctx);
                    }
                } else {
                    ctx.send(
                        coord,
                        IsisEvent::FlushReport {
                            vid,
                            unstable: self.local_unstable(),
                        },
                    );
                }
            }
        }
        ctx.send_to_all(self.others(), IsisEvent::Heartbeat);
        self.repair_tick(now, ctx);
        // The traditional coupling: suspicion IS exclusion. The coordinator
        // (lowest unsuspected member) reacts to any suspicion — or a pending
        // scripted removal — by starting a view change that expels them.
        if self.mode == Mode::Steady && self.coordinator(now) == Some(self.me) {
            let survivors: Vec<ProcessId> = self
                .members
                .iter()
                .copied()
                .filter(|&p| {
                    (p == self.me || !self.suspects(p, now)) && !self.pending_removals.contains(&p)
                })
                .collect();
            if survivors.len() != self.members.len() || !self.pending_joins.is_empty() {
                let mut next = survivors;
                for &j in &self.pending_joins {
                    if !next.contains(&j) {
                        next.push(j);
                    }
                }
                self.start_view_change(next, ctx);
            }
        }
    }
}

/// The Isis-style stack as a [`StackDriver`]: the whole stack is one
/// component, so every operation enters at [`ISIS`].
pub struct IsisDriver;

impl StackDriver for IsisDriver {
    type Event = IsisEvent;
    type Config = IsisConfig;
    const KIND: StackKind = StackKind::Isis;

    fn build(id: ProcessId, config: &IsisConfig, founders: usize) -> Process<IsisEvent> {
        let initial =
            (id.index() < founders).then(|| (0..founders as u32).map(ProcessId::new).collect());
        Process::builder(id)
            .with(ISIS, IsisStack::new(id, initial, *config))
            .build()
    }

    fn abcast(payload: PayloadRef) -> Op<IsisEvent> {
        (ISIS, IsisEvent::Abcast(payload))
    }

    /// Isis routes the request to its coordinator itself.
    fn join(_contact: ProcessId) -> Op<IsisEvent> {
        (ISIS, IsisEvent::Join)
    }

    /// The request is routed to the coordinator, which expels the target
    /// through the ordinary exclusion flush. The target is killed
    /// Isis-style but — unlike a wrong suspicion — does not auto re-join.
    ///
    /// A removal that would shrink the view below a majority of its current
    /// size (e.g. removing one of two members) is *deferred*, not executed:
    /// the primary-partition rule guards every view change, administrative
    /// ones included, so the request stays pending until the membership can
    /// absorb it.
    fn remove(target: ProcessId) -> Option<Op<IsisEvent>> {
        Some((ISIS, IsisEvent::Remove(target)))
    }

    fn project(event: &IsisEvent) -> Observation<'_> {
        match event {
            IsisEvent::Deliver { id, payload, vid } => Observation::Deliver {
                sender: id.0,
                seq: id.1,
                kind: DeliveryKind::Atomic,
                class: MessageClass::ABCAST,
                view: *vid,
                payload: *payload,
            },
            IsisEvent::ViewInstalled { vid, members } => Observation::View { id: *vid, members },
            // A killed process that re-joins comes back as a logically
            // fresh member (its delivery state was wiped with it, §4.3):
            // the kill is the incarnation boundary.
            IsisEvent::Killed => Observation::Reset,
            _ => Observation::Other,
        }
    }
}

/// A simulated group running the Isis-style stack, on a loss-free LAN
/// unless configured otherwise (the stack assumes reliable FIFO links;
/// lossy topologies model conditions the original systems did not run on).
/// Its surface is [`GroupTransport`](gcs_sim::GroupTransport).
pub type IsisSim = Harness<IsisDriver, SimWorld<IsisEvent>>;

/// Send-blocking windows of `p`: `(start, end)` pairs (E4).
pub fn blocked_windows(trace: &Trace<IsisEvent>, p: ProcessId) -> Vec<(Time, Time)> {
    let mut windows = Vec::new();
    let mut open: Option<Time> = None;
    for e in trace.of_proc(p) {
        match e.event {
            IsisEvent::Blocked(true) => open = open.or(Some(e.time)),
            IsisEvent::Blocked(false) => {
                if let Some(s) = open.take() {
                    windows.push((s, e.time));
                }
            }
            _ => {}
        }
    }
    windows
}

/// Times at which `p` was first killed / first rejoined (E3).
pub fn kill_and_rejoin_times(
    trace: &Trace<IsisEvent>,
    p: ProcessId,
) -> (Option<Time>, Option<Time>) {
    let mut killed = None;
    let mut rejoined = None;
    for e in trace.of_proc(p) {
        match e.event {
            IsisEvent::Killed if killed.is_none() => killed = Some(e.time),
            IsisEvent::Rejoined if rejoined.is_none() => rejoined = Some(e.time),
            _ => {}
        }
    }
    (killed, rejoined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_kernel::{Effects, Envelope, Input};
    use gcs_sim::{GroupTransport, InvariantChecker};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn failure_free_total_order() {
        let mut sim = IsisSim::new(3, IsisConfig::default(), 1);
        for i in 0..10u32 {
            sim.abcast_at(Time::from_millis(1 + i as u64), p(i % 3), vec![i as u8]);
        }
        sim.run_until(Time::from_secs(1));
        let seqs = sim.adelivered_payloads();
        for s in &seqs {
            assert_eq!(s.len(), 10);
        }
        let report = InvariantChecker::check(&sim, 3);
        assert!(report.is_clean(), "{:#?}", report.violations);
    }

    #[test]
    fn sequencer_crash_triggers_exclusion_view_change() {
        let mut sim = IsisSim::new(3, IsisConfig::default(), 2);
        sim.abcast_at(Time::from_millis(1), p(1), b"before".to_vec());
        sim.crash_at(Time::from_millis(20), p(0)); // p0 is the sequencer
        sim.abcast_at(Time::from_millis(300), p(1), b"after".to_vec());
        sim.run_until(Time::from_secs(1));
        let views = sim.views();
        // Survivors installed a view without p0; new sequencer is p1.
        for i in 1..3 {
            let view = views[i].last().expect("view change");
            assert_eq!(view.id, 1);
            assert_eq!(view.members, vec![p(1), p(2)]);
        }
        let seqs = sim.adelivered_payloads();
        assert!(seqs[1].contains(&b"after".to_vec()));
        assert_eq!(seqs[1], seqs[2]);
    }

    #[test]
    fn flush_blocks_senders_sending_view_delivery() {
        let mut sim = IsisSim::with_joiners(3, 1, IsisConfig::default(), 3);
        sim.join_at(Time::from_millis(10), p(3), p(0));
        sim.run_until(Time::from_secs(1));
        // The coordinator (p0) blocked during the flush.
        let windows = blocked_windows(sim.trace(), p(0));
        assert_eq!(windows.len(), 1, "one view change, one blocking window");
        let (s, e) = windows[0];
        assert!(e > s, "non-empty blocking window");
        // The joiner is in the final view everywhere.
        for i in 0..3 {
            let view = sim.views()[i].last().expect("view").clone();
            assert!(view.contains(p(3)));
        }
    }

    #[test]
    fn abcast_during_flush_is_queued_not_lost() {
        let mut sim = IsisSim::with_joiners(3, 1, IsisConfig::default(), 4);
        sim.join_at(Time::from_millis(10), p(3), p(0));
        // Send while the flush is (likely) in progress.
        sim.abcast_at(Time::from_millis(12), p(1), b"queued".to_vec());
        sim.run_until(Time::from_secs(1));
        let seqs = sim.adelivered_payloads();
        for i in 0..3 {
            assert!(
                seqs[i].contains(&b"queued".to_vec()),
                "p{i} delivers the queued send"
            );
        }
    }

    #[test]
    fn wrong_suspicion_kills_and_rejoins_with_state_transfer() {
        let mut config = IsisConfig::default();
        config.state_size = 64 * 1024;
        let mut sim = IsisSim::new(3, config, 5);
        // p2 is unreachable for a while — alive, but suspected: the
        // traditional architecture excludes it (perfect-FD emulation), it is
        // killed, and must re-join with a full state transfer (§4.3).
        sim.partition_at(Time::from_millis(50), vec![vec![p(0), p(1)], vec![p(2)]]);
        sim.heal_at(Time::from_millis(400));
        sim.run_until(Time::from_secs(3));
        let (killed, rejoined) = kill_and_rejoin_times(sim.trace(), p(2));
        let k = killed.expect("p2 was wrongly excluded and killed");
        let r = rejoined.expect("p2 re-joined after the heal");
        assert!(r > k);
        // State transfer cost was paid.
        assert!(sim.metrics().sent_of_kind("isis/state-transfer") >= 1);
        // And the final view contains all three processes again.
        let view = sim.views()[0].last().expect("views installed").clone();
        assert_eq!(view.len(), 3);
    }

    #[test]
    fn scripted_removal_expels_without_rejoin() {
        let mut sim = IsisSim::new(4, IsisConfig::default(), 6);
        sim.abcast_at(Time::from_millis(1), p(3), b"pre".to_vec());
        // p1 (not the coordinator) requests the removal: the request must be
        // routed to p0 and applied through the flush.
        sim.remove_at(Time::from_millis(50), p(1), p(3));
        sim.abcast_at(Time::from_millis(300), p(1), b"post".to_vec());
        sim.run_until(Time::from_secs(2));
        for i in 0..3 {
            let view = sim.views()[i].last().expect("view change").clone();
            assert!(view.id >= 1);
            assert_eq!(
                view.members,
                vec![p(0), p(1), p(2)],
                "p{i} sees p3 expelled"
            );
        }
        // The target was killed as Removed and stayed out (no auto re-join,
        // unlike a wrong suspicion).
        let trace = sim.trace();
        assert!(trace
            .of_proc(p(3))
            .any(|e| matches!(e.event, IsisEvent::Removed)));
        assert!(!trace
            .of_proc(p(3))
            .any(|e| matches!(e.event, IsisEvent::Rejoined)));
        // The stream survives the removal at all three survivors.
        let seqs = sim.adelivered_payloads();
        for i in 0..3 {
            assert!(seqs[i].contains(&b"pre".to_vec()), "p{i}");
            assert!(seqs[i].contains(&b"post".to_vec()), "p{i}");
        }
        assert_eq!(seqs[0], seqs[1]);
        assert_eq!(seqs[1], seqs[2]);
    }

    /// A group of founding members driven by hand, with no network in
    /// between: the test decides which message arrives when.
    struct HandNet {
        procs: Vec<Process<IsisEvent>>,
        /// Messages sent and not yet handed over, in send order.
        queue: VecDeque<Envelope<IsisEvent>>,
        outputs: Vec<Vec<IsisEvent>>,
        fx: Effects<IsisEvent>,
    }

    impl HandNet {
        const NOW: Time = Time::from_millis(1);

        fn new(n: usize) -> Self {
            let mut net = HandNet {
                procs: (0..n as u32)
                    .map(|i| IsisDriver::build(p(i), &IsisConfig::default(), n))
                    .collect(),
                queue: VecDeque::new(),
                outputs: vec![Vec::new(); n],
                fx: Effects::new(),
            };
            for i in 0..n {
                net.fx.clear();
                net.procs[i].start_into(Time::ZERO, &mut net.fx);
                net.collect(i);
            }
            net
        }

        fn collect(&mut self, at: usize) {
            self.queue.extend(self.fx.sends.drain());
            for cast in self.fx.casts.drain() {
                for &to in cast.to.iter() {
                    self.queue.push_back(Envelope {
                        from: cast.from,
                        to,
                        component: cast.component,
                        event: cast.event.clone(),
                    });
                }
            }
            self.outputs[at].extend(self.fx.outputs.drain());
        }

        fn step(&mut self, at: ProcessId, input: Input<IsisEvent>) {
            self.fx.clear();
            self.procs[at.index()].step_into(input, Self::NOW, &mut self.fx);
            self.collect(at.index());
        }

        fn hand_over(&mut self, e: Envelope<IsisEvent>) {
            let input = Input::Net {
                from: e.from,
                component: e.component,
                event: e.event,
            };
            self.step(e.to, input);
        }

        /// Takes the first queued message that `wanted` picks.
        fn take(&mut self, wanted: impl Fn(&Envelope<IsisEvent>) -> bool) -> Envelope<IsisEvent> {
            let at = self
                .queue
                .iter()
                .position(wanted)
                .expect("such a message is queued");
            self.queue.remove(at).expect("queued")
        }

        /// Hands over every queued message, and what they send in turn.
        fn settle(&mut self) {
            while let Some(e) = self.queue.pop_front() {
                self.hand_over(e);
            }
        }
    }

    /// A member removed by request that heartbeats the coordinator before
    /// the flush's `NewView` reaches it gets the coordinator's stale-view
    /// notice first. The notice must name it as removed, or the member
    /// takes it for a wrong exclusion: it is killed, asks to re-join and is
    /// re-admitted.
    #[test]
    fn a_stale_view_notice_ahead_of_the_commit_keeps_a_removal_a_removal() {
        let mut net = HandNet::new(4);
        let removal = Input::Inject {
            component: ISIS,
            event: IsisEvent::Remove(p(3)),
        };
        net.step(p(0), removal);
        // The flush runs; its commit to p3 is held back.
        let is_commit_to_p3 =
            |e: &Envelope<IsisEvent>| e.to == p(3) && matches!(e.event, IsisEvent::NewView(_));
        while !net.queue.iter().any(is_commit_to_p3) {
            let e = net.queue.pop_front().expect("the flush commits");
            net.hand_over(e);
        }
        let commit = net.take(is_commit_to_p3);
        // p3, still in view 0, heartbeats p0, which answers with the notice.
        let heartbeat = Input::Net {
            from: p(3),
            component: ISIS,
            event: IsisEvent::Heartbeat,
        };
        net.step(p(0), heartbeat);
        let notice = net.take(is_commit_to_p3);
        net.hand_over(notice);
        net.hand_over(commit);
        net.settle();

        let fate: Vec<&IsisEvent> = net.outputs[3]
            .iter()
            .filter(|e| matches!(e, IsisEvent::Removed | IsisEvent::Killed))
            .collect();
        assert!(
            matches!(fate[..], [IsisEvent::Removed]),
            "p3 must end removed, once: {fate:?}"
        );
        for (i, outputs) in net.outputs.iter().enumerate() {
            for e in outputs {
                if let IsisEvent::ViewInstalled { vid, members } = e {
                    assert!(
                        *vid == 0 || !members.contains(&p(3)),
                        "p{i} re-admitted p3 in view {vid}"
                    );
                }
            }
        }
        let last = |i: usize| {
            net.outputs[i].iter().rev().find_map(|e| match e {
                IsisEvent::ViewInstalled { vid, members } => Some((*vid, members.clone())),
                _ => None,
            })
        };
        for i in 0..3 {
            assert_eq!(last(i), Some((1, vec![p(0), p(1), p(2)])), "p{i}");
        }
    }

    #[test]
    fn wan_profile_floors_to_defaults_on_lan() {
        use gcs_sim::Topology;
        let lan = IsisConfig::for_topology(&Topology::lan());
        let d = IsisConfig::default();
        assert_eq!(lan.heartbeat_interval, d.heartbeat_interval);
        assert_eq!(lan.fd_timeout, d.fd_timeout);
        assert_eq!(lan.retrans_interval, d.retrans_interval);
        // On the 3-region WAN the exclusion timeout clears several RTTs.
        let wan = IsisConfig::for_topology(&Topology::wan_3region());
        assert!(wan.fd_timeout >= TimeDelta::from_millis(500));
        assert!(wan.heartbeat_interval > d.heartbeat_interval);
    }

    #[test]
    fn minority_partition_does_not_split_the_brain() {
        let mut sim = IsisSim::new(3, IsisConfig::default(), 8);
        // Everyone is isolated from everyone: no majority exists, so no new
        // view may form (primary-partition rule).
        sim.partition_at(
            Time::from_millis(50),
            vec![vec![p(0)], vec![p(1)], vec![p(2)]],
        );
        sim.run_until(Time::from_secs(1));
        for i in 0..3 {
            assert!(
                sim.views()[i].is_empty(),
                "p{i} must not install a singleton view"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = IsisSim::new(3, IsisConfig::default(), seed);
            for i in 0..5u32 {
                sim.abcast_at(Time::from_millis(1 + i as u64), p(i % 3), vec![i as u8]);
            }
            sim.run_until(Time::from_secs(1));
            (sim.adelivered_payloads(), sim.metrics().total_sent())
        };
        assert_eq!(run(9), run(9));
    }
}

//! Kernel component adapters: the boxes of Fig 9.
//!
//! Each adapter wraps one sans-I/O core and translates between the shared
//! event catalog ([`Ev`]) and the core's typed inputs/outputs. The component
//! graph per process is:
//!
//! ```text
//!                application (inject / output)
//!                     │Gbcast/Rbcast        │Abcast      │JoinVia/Remove
//!   ┌─────────────────▼─────┐   ┌───────────▼───────┐   ┌▼──────────────┐
//!   │ generic (GB, §3.2)    │──▶│ abcast (CT, §3.1) │◀──│ membership    │
//!   └───────────┬───────────┘   └──┬──────▲─────────┘   └───▲───────────┘
//!               │ acks/data        │propose│decide          │ Exclude
//!               │                ┌─▼───────┴──┐         ┌───┴───────────┐
//!               │                │ consensus  │◀───────┐│ monitoring    │
//!               │                └─┬──────────┘ suspect└┴───▲───────▲───┘
//!               │                  │  (abcast, generic too)   │       │
//!               │                  │                  Suspect│  Stuck│
//!   ┌───────────▼──────────────────▼──────────┐   ┌──────────┴──┐    │
//!   │ rc (reliable channel, §3.3.1)           │   │ fd (◇S)     │────┘
//!   └───────────────────┬─────────────────────┘   └──────┬──────┘
//!                       │ Packet: one per peer per step  │ Heartbeat
//!                     unreliable transport (the simulator network)
//! ```
//!
//! Each box is one component, named by its id in [`ids`], in the order
//! [`build_process`](crate::build_process) registers them:
//!
//! | id | box |
//! |---|---|
//! | [`ids::RC`] = 0 | reliable channel |
//! | [`ids::FD`] = 1 | failure detector |
//! | [`ids::CONSENSUS`] = 2 | consensus |
//! | [`ids::ABCAST`] = 3 | atomic broadcast |
//! | [`ids::GENERIC`] = 4 | generic broadcast |
//! | [`ids::MEMBERSHIP`] = 5 | membership |
//! | [`ids::MONITORING`] = 6 | monitoring |
//!
//! The arrows inside a process are emits to an id. Only rc and fd touch the
//! network, each sending to itself on the peer; every other box's traffic
//! rides rc.
//!
//! The rc box sends at most one fresh packet per peer per dispatch step. It
//! holds what the step's cascade sends and, once the cascade has drained
//! ([`Context::at_step_end`]), sends each peer a plain data packet, or a
//! bundle when the step sent it several messages. The step in which a
//! coordinator decides instance k is the one in which atomic broadcast
//! opens k+1, so each participant gets `Decide(k)` and `Propose(k+1)` in one
//! packet, with one delay: the proposal no longer waits behind the decision
//! on the FIFO channel. Retransmissions and acks leave as they are made.
//!
//! The `suspect` edge into abcast does two jobs: a suspected *origin*'s
//! unordered messages are relayed, and a suspected *member* stops being the
//! ordering target — an a-broadcast travels as one `ab/data` to the first
//! unsuspected member of the view (the coordinator consensus will decide
//! under), not to everyone. The abcast box owns one one-shot timer: the
//! safety net that diffuses to all members an own message still unordered
//! after one consensus-class timeout.

use gcs_consensus::{ConsensusManager, ManagerOut};
use gcs_fd::{FdOut, HeartbeatFd, MonitorClass};
use gcs_kernel::{Component, ComponentId, Context, ProcessId, TimeDelta, TimerId};
use gcs_net::{Packet, RcConfig, RcOut, ReliableChannel, TICK_INTERVAL};
use std::cell::RefCell;

use crate::abcast::{AbOut, AbcastCore};
use crate::generic::{GbOut, GenericCore};
use crate::membership::{MbOut, MembershipCore};
use crate::monitoring::{MonOut, MonitoringCore};
use crate::types::{
    AbMsg, Body, Ev, GbMsg, MbMsg, Message, MessageClass, MonMsg, MsgId, Proposal, SnapshotData,
    View, WireMsg,
};

/// Component ids: the routing targets within a process, in the order
/// [`build_process`](crate::build_process) registers the components.
pub mod ids {
    use gcs_kernel::ComponentId;

    /// Reliable channel.
    pub const RC: ComponentId = ComponentId::new(0);
    /// Failure detector.
    pub const FD: ComponentId = ComponentId::new(1);
    /// Consensus.
    pub const CONSENSUS: ComponentId = ComponentId::new(2);
    /// Atomic broadcast.
    pub const ABCAST: ComponentId = ComponentId::new(3);
    /// Generic broadcast.
    pub const GENERIC: ComponentId = ComponentId::new(4);
    /// Group membership.
    pub const MEMBERSHIP: ComponentId = ComponentId::new(5);
    /// Monitoring.
    pub const MONITORING: ComponentId = ComponentId::new(6);
}

fn route_wire(wire: &WireMsg) -> ComponentId {
    match wire {
        WireMsg::Ct { .. } => ids::CONSENSUS,
        WireMsg::Ab(_) => ids::ABCAST,
        WireMsg::Gb(_) => ids::GENERIC,
        WireMsg::Mb(_) => ids::MEMBERSHIP,
        WireMsg::Mon(_) => ids::MONITORING,
    }
}

// ---------------------------------------------------------------------------
// Reliable channel
// ---------------------------------------------------------------------------

/// The most emptied bundle buffers [`SPARE_BUNDLES`] keeps.
const SPARE_BUNDLE_COUNT: usize = 64;

/// The largest buffer [`SPARE_BUNDLES`] keeps, in messages: that of a long
/// retransmission batch goes back to the allocator.
const SPARE_BUNDLE_CAPACITY: usize = 8;

thread_local! {
    /// Emptied bundle buffers, for the next bundle made on this thread. A
    /// bundle is made by one process and emptied by another — the
    /// coordinator's `Decide(k)` and `Propose(k+1)` by each participant —
    /// so a pool per process would only ever fill at the receivers. Every
    /// process a thread runs shares this one instead: the whole group in
    /// the simulator, where a bundle then costs no allocation, and one
    /// member on the live backend, where a coordinator allocates its
    /// bundles as before and the receivers keep [`SPARE_BUNDLE_COUNT`].
    static SPARE_BUNDLES: RefCell<Vec<Vec<(u64, WireMsg)>>> = const { RefCell::new(Vec::new()) };
}

/// Adapter around [`ReliableChannel`] (Fig 9 "Reliable Channel").
pub struct RcComponent {
    rc: ReliableChannel<WireMsg>,
    /// Reused channel-output buffer: every entry point of the channel
    /// appends here and [`flush`](Self::flush) drains it, so a steady-state
    /// send, packet or tick allocates nothing and moves each message once.
    scratch: Vec<RcOut<WireMsg>>,
    /// The step's first transmissions, one packet per peer in the order the
    /// step first addressed each: sent when the step ends.
    held: Vec<(ProcessId, Packet<WireMsg>)>,
    /// Per peer, dense by index: one more than its packet's position in
    /// `held`, 0 while the step has sent it nothing.
    slot: Vec<u32>,
}

impl RcComponent {
    /// Creates the reliable-channel component for `me`.
    pub fn new(me: ProcessId, config: RcConfig) -> Self {
        RcComponent {
            rc: ReliableChannel::new(me, config),
            scratch: Vec::new(),
            held: Vec::new(),
            slot: Vec::new(),
        }
    }

    /// Carries out what the channel left in `scratch`, holding first
    /// transmissions back for the end of the step if `hold`.
    fn flush(&mut self, hold: bool, ctx: &mut Context<'_, Ev>) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for o in scratch.drain(..) {
            match o {
                RcOut::Transmit { to, packet } if hold => self.hold(to, packet, ctx),
                RcOut::Transmit { to, packet } => ctx.send(to, Ev::Packet(packet)),
                RcOut::Deliver { from, msg } => {
                    ctx.emit(route_wire(&msg), Ev::Net(from, msg));
                }
                RcOut::Stuck { peer, since } => ctx.emit(ids::MONITORING, Ev::RcStuck(peer, since)),
                // The first report excluded the peer: nothing to withdraw.
                RcOut::Unstuck { .. } => {}
            }
        }
        self.scratch = scratch;
    }

    /// Adds a first transmission to `to` to the step's packet for `to`.
    fn hold(&mut self, to: ProcessId, packet: Packet<WireMsg>, ctx: &mut Context<'_, Ev>) {
        if to.index() >= self.slot.len() {
            self.slot.resize(to.index() + 1, 0);
        }
        match self.slot[to.index()] {
            0 => {
                if self.held.is_empty() {
                    ctx.at_step_end();
                }
                self.held.push((to, packet));
                self.slot[to.index()] = self.held.len() as u32;
            }
            k => self.held[k as usize - 1].1.bundle(packet, || {
                SPARE_BUNDLES.with_borrow_mut(Vec::pop).unwrap_or_default()
            }),
        }
    }
}

impl Component<Ev> for RcComponent {
    fn on_start(&mut self, ctx: &mut Context<'_, Ev>) {
        ctx.set_timer(TICK_INTERVAL);
    }

    fn on_event(&mut self, event: Ev, ctx: &mut Context<'_, Ev>) {
        match event {
            Ev::RcSend(to, wire) => {
                self.rc.send_into(to, wire, ctx.now(), &mut self.scratch);
                self.flush(true, ctx);
            }
            Ev::Forget(p) => {
                // What the step sent before leaves as sent; a new
                // conversation opened later in the step gets its own packet.
                if let Some(slot) = self.slot.get_mut(p.index()) {
                    *slot = 0;
                }
                self.rc.forget_peer(p);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, from: ProcessId, event: Ev, ctx: &mut Context<'_, Ev>) {
        if let Ev::Packet(packet) = event {
            let spent = self
                .rc
                .on_packet_into(from, packet, ctx.now(), &mut self.scratch);
            if let Some(buffer) = spent.filter(|b| b.capacity() <= SPARE_BUNDLE_CAPACITY) {
                SPARE_BUNDLES.with_borrow_mut(|spare| {
                    if spare.len() < SPARE_BUNDLE_COUNT {
                        spare.push(buffer);
                    }
                });
            }
            self.flush(false, ctx);
        }
    }

    fn on_timer(&mut self, _timer: TimerId, ctx: &mut Context<'_, Ev>) {
        self.rc.on_tick_into(ctx.now(), &mut self.scratch);
        self.flush(false, ctx);
        ctx.set_timer(TICK_INTERVAL);
    }

    fn on_step_end(&mut self, ctx: &mut Context<'_, Ev>) {
        for (to, packet) in self.held.drain(..) {
            self.slot[to.index()] = 0;
            ctx.send(to, Ev::Packet(packet));
        }
    }
}

// ---------------------------------------------------------------------------
// Failure detector
// ---------------------------------------------------------------------------

/// Adapter around [`HeartbeatFd`] (Fig 9 "Failure Detection").
pub struct FdComponent {
    fd: HeartbeatFd,
    initial_peers: Vec<ProcessId>,
    consensus_timeout: TimeDelta,
    monitoring_timeout: TimeDelta,
    /// Emit `Ev::Suspect`/`Ev::Restore` of the consensus class as trace
    /// outputs too (crash-detection latency measurement in scenarios).
    trace_suspicions: bool,
    /// Reused output buffer (heartbeat ticks are the most frequent event in
    /// the whole system; they must not allocate).
    scratch: Vec<FdOut>,
    /// Reused heartbeat fan-out list.
    heartbeat_to: Vec<ProcessId>,
}

impl FdComponent {
    /// Creates the failure-detector component: heartbeats every
    /// `heartbeat_interval`, the two suspicion classes' timeouts, and
    /// whether consensus-class transitions are traced.
    pub fn new(
        me: ProcessId,
        initial_peers: Vec<ProcessId>,
        heartbeat_interval: TimeDelta,
        consensus_timeout: TimeDelta,
        monitoring_timeout: TimeDelta,
        trace_suspicions: bool,
    ) -> Self {
        FdComponent {
            fd: HeartbeatFd::new(me, heartbeat_interval),
            initial_peers,
            consensus_timeout,
            monitoring_timeout,
            trace_suspicions,
            scratch: Vec::new(),
            heartbeat_to: Vec::new(),
        }
    }

    /// Consensus-class transitions drive round changes in consensus and the
    /// on-suspicion relay in atomic and generic broadcast; monitoring-class
    /// ones feed the exclusion policy.
    fn route_suspicion(&self, class: MonitorClass, event: Ev, ctx: &mut Context<'_, Ev>) {
        if class == MonitorClass::CONSENSUS {
            ctx.emit(ids::CONSENSUS, event.clone());
            if self.trace_suspicions {
                ctx.output(event.clone());
            }
            ctx.emit(ids::ABCAST, event.clone());
            ctx.emit(ids::GENERIC, event);
        } else {
            ctx.emit(ids::MONITORING, event);
        }
    }

    fn apply(&mut self, outs: impl IntoIterator<Item = FdOut>, ctx: &mut Context<'_, Ev>) {
        // Heartbeats fan out to every peer each interval: batch them into a
        // single broadcast envelope instead of one send (and one per-peer
        // event clone) each. The fan-out list is a reused scratch buffer.
        let mut heartbeat_to = std::mem::take(&mut self.heartbeat_to);
        heartbeat_to.clear();
        for o in outs {
            match o {
                FdOut::SendHeartbeat { to } => heartbeat_to.push(to),
                FdOut::Suspect { class, peer } => {
                    self.route_suspicion(class, Ev::Suspect(class, peer), ctx);
                }
                FdOut::Restore { class, peer } => {
                    self.route_suspicion(class, Ev::Restore(class, peer), ctx);
                }
            }
        }
        if !heartbeat_to.is_empty() {
            // A tick that probes every peer sends a plain heartbeat; one that
            // probes a segment carries one shared digest, so the fan-out
            // clones an Arc, not the digest itself.
            let heartbeat = if self.fd.gossips() {
                Ev::FdGossip(self.fd.digest().into())
            } else {
                Ev::Heartbeat
            };
            ctx.send_to_all(heartbeat_to.iter().copied(), heartbeat);
        }
        self.heartbeat_to = heartbeat_to;
    }
}

impl Component<Ev> for FdComponent {
    fn on_start(&mut self, ctx: &mut Context<'_, Ev>) {
        self.fd
            .register_class(MonitorClass::CONSENSUS, self.consensus_timeout);
        self.fd
            .register_class(MonitorClass::MONITORING, self.monitoring_timeout);
        let peers = std::mem::take(&mut self.initial_peers);
        self.fd.set_peers(peers, ctx.now());
        ctx.set_timer(self.fd.interval());
    }

    fn on_event(&mut self, event: Ev, ctx: &mut Context<'_, Ev>) {
        if let Ev::ViewChanged(v) = event {
            self.fd.set_peers(v.members, ctx.now());
        }
    }

    fn on_message(&mut self, from: ProcessId, event: Ev, ctx: &mut Context<'_, Ev>) {
        match event {
            Ev::Heartbeat => {
                let mut outs = std::mem::take(&mut self.scratch);
                self.fd.on_heartbeat_into(from, ctx.now(), &mut outs);
                self.apply(outs.drain(..), ctx);
                self.scratch = outs;
            }
            Ev::FdGossip(digest) => {
                let mut outs = std::mem::take(&mut self.scratch);
                self.fd.on_gossip_into(from, &digest, ctx.now(), &mut outs);
                self.apply(outs.drain(..), ctx);
                self.scratch = outs;
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _timer: TimerId, ctx: &mut Context<'_, Ev>) {
        let mut outs = std::mem::take(&mut self.scratch);
        self.fd.on_tick_into(ctx.now(), &mut outs);
        self.apply(outs.drain(..), ctx);
        self.scratch = outs;
        ctx.set_timer(self.fd.interval());
    }
}

// ---------------------------------------------------------------------------
// Consensus
// ---------------------------------------------------------------------------

/// Adapter around [`ConsensusManager`] (Fig 9 "Consensus").
pub struct ConsensusComponent {
    mgr: ConsensusManager<Proposal>,
    /// Reused manager-output buffer.
    scratch: Vec<ManagerOut<Proposal>>,
}

impl ConsensusComponent {
    /// Creates the consensus component for `me`.
    pub fn new(me: ProcessId) -> Self {
        ConsensusComponent {
            mgr: ConsensusManager::new(me),
            scratch: Vec::new(),
        }
    }

    fn apply(
        &mut self,
        outs: impl IntoIterator<Item = ManagerOut<Proposal>>,
        ctx: &mut Context<'_, Ev>,
    ) {
        for o in outs {
            match o {
                ManagerOut::Send { to, instance, msg } => {
                    ctx.emit(ids::RC, Ev::RcSend(to, WireMsg::Ct { instance, msg }));
                }
                ManagerOut::Decided { instance, value } => {
                    ctx.emit(ids::ABCAST, Ev::Decide(instance, value));
                }
                ManagerOut::NeedInstance(instance) => {
                    ctx.emit(ids::ABCAST, Ev::NeedInstance(instance));
                }
            }
        }
    }
}

impl Component<Ev> for ConsensusComponent {
    fn on_event(&mut self, event: Ev, ctx: &mut Context<'_, Ev>) {
        let mut outs = std::mem::take(&mut self.scratch);
        debug_assert!(outs.is_empty());
        match event {
            Ev::Propose {
                instance,
                value,
                participants,
                first,
                catch_up,
            } => {
                self.mgr
                    .propose_into(instance, value, &participants, first, catch_up, &mut outs);
            }
            Ev::Net(from, WireMsg::Ct { instance, msg }) => {
                self.mgr.on_msg_into(instance, from, msg, &mut outs);
            }
            Ev::Suspect(MonitorClass::CONSENSUS, p) => self.mgr.suspect_into(p, &mut outs),
            Ev::Restore(MonitorClass::CONSENSUS, p) => self.mgr.restore(p),
            _ => {}
        }
        self.apply(outs.drain(..), ctx);
        self.scratch = outs;
    }
}

// ---------------------------------------------------------------------------
// Atomic broadcast
// ---------------------------------------------------------------------------

/// Adapter around [`AbcastCore`] (Fig 9 "Atomic Broadcast").
pub struct AbcastComponent {
    core: AbcastCore,
    /// Period of the core's safety-net timer: the consensus-class
    /// failure-detector timeout. A target that crashed is suspected within
    /// it, so a message of ours still unordered after a full one is not
    /// waiting for the detector.
    safety_net_after: TimeDelta,
    /// Reused core-output buffer.
    scratch: Vec<AbOut>,
}

impl AbcastComponent {
    /// Creates the atomic-broadcast component, with the consensus-class
    /// failure-detector timeout the safety-net timer is derived from.
    pub fn new(me: ProcessId, initial_view: Option<View>, consensus_timeout: TimeDelta) -> Self {
        AbcastComponent {
            core: AbcastCore::new(me, initial_view),
            safety_net_after: consensus_timeout,
            scratch: Vec::new(),
        }
    }

    fn apply(&mut self, outs: impl IntoIterator<Item = AbOut>, ctx: &mut Context<'_, Ev>) {
        for o in outs {
            match o {
                AbOut::Wire(to, wire) => ctx.emit(ids::RC, Ev::RcSend(to, wire)),
                AbOut::Propose {
                    instance,
                    value,
                    participants,
                    first,
                    catch_up,
                } => {
                    ctx.emit(
                        ids::CONSENSUS,
                        Ev::Propose {
                            instance,
                            value,
                            participants,
                            first,
                            catch_up,
                        },
                    );
                }
                AbOut::App(d) => ctx.output(Ev::Deliver(d)),
                AbOut::Ctrl(m) => {
                    let target = match &m.body {
                        Body::GbEnd(_) => ids::GENERIC,
                        _ => ids::MEMBERSHIP,
                    };
                    ctx.emit(target, Ev::CtrlDelivered(m));
                }
                AbOut::ArmSafetyNet => {
                    let _ = ctx.set_timer(self.safety_net_after);
                }
            }
        }
    }
}

impl Component<Ev> for AbcastComponent {
    fn on_event(&mut self, event: Ev, ctx: &mut Context<'_, Ev>) {
        let mut outs = std::mem::take(&mut self.scratch);
        debug_assert!(outs.is_empty());
        match event {
            Ev::Abcast(payload) => {
                self.core
                    .abcast_into(MessageClass::ABCAST, Body::App(payload), &mut outs);
            }
            Ev::AbcastCtrl(class, body) => {
                self.core.abcast_into(class, body, &mut outs);
            }
            Ev::Net(from, WireMsg::Ab(AbMsg::Data(m))) => {
                self.core.on_data_into(from, m, &mut outs);
            }
            Ev::Decide(instance, decided) => {
                self.core.on_decide_into(instance, decided, &mut outs);
            }
            Ev::NeedInstance(instance) => {
                self.core.need_instance_into(instance, &mut outs);
            }
            Ev::Suspect(MonitorClass::CONSENSUS, p) => {
                self.core.on_suspect_into(p, &mut outs);
            }
            Ev::Restore(MonitorClass::CONSENSUS, p) => {
                self.core.on_restore_into(p, &mut outs);
            }
            Ev::ViewChanged(v) => self.core.set_view_into(v, &mut outs),
            Ev::InstallSnapshot(snap) => {
                self.core.install_snapshot_into(&snap, &mut outs);
            }
            Ev::SnapFill { joiner, mut snap } => {
                // One consistent cut of the ordered stream: the instance to
                // resume at, what was delivered before it, the round-0
                // coordinators named for the instances from there on, and
                // the view in force there (later than the sponsor's
                // announcement if this flush already ordered another
                // change).
                snap.next_instance = self.core.cursor();
                snap.adelivered = self.core.adelivered();
                snap.designated = self.core.designated();
                if self.core.view().id > snap.view.id {
                    snap.view = self.core.view().clone();
                }
                ctx.emit(ids::GENERIC, Ev::SnapFill { joiner, snap });
            }
            _ => {}
        }
        self.apply(outs.drain(..), ctx);
        self.scratch = outs;
    }

    fn on_timer(&mut self, _: TimerId, ctx: &mut Context<'_, Ev>) {
        let mut outs = std::mem::take(&mut self.scratch);
        debug_assert!(outs.is_empty());
        // The safety net is this component's only timer.
        self.core.on_safety_net_into(&mut outs);
        self.apply(outs.drain(..), ctx);
        self.scratch = outs;
    }
}

// ---------------------------------------------------------------------------
// Generic broadcast
// ---------------------------------------------------------------------------

/// Adapter around [`GenericCore`] (Fig 7/9 "Generic Broadcast").
pub struct GenericComponent {
    core: GenericCore,
    /// Snapshots awaiting an epoch boundary (assembly is deferred while the
    /// epoch is mid-closure so the joiner starts on a clean boundary).
    deferred: Vec<(ProcessId, Box<SnapshotData>)>,
    /// Reused core-output buffer.
    scratch: Vec<GbOut>,
}

impl GenericComponent {
    /// Creates the generic-broadcast component.
    pub fn new(core: GenericCore) -> Self {
        GenericComponent {
            core,
            deferred: Vec::new(),
            scratch: Vec::new(),
        }
    }

    fn apply(&mut self, outs: impl IntoIterator<Item = GbOut>, ctx: &mut Context<'_, Ev>) {
        for o in outs {
            match o {
                GbOut::Wire(to, wire) => ctx.emit(ids::RC, Ev::RcSend(to, wire)),
                GbOut::Escalate(body) => {
                    ctx.emit(ids::ABCAST, Ev::AbcastCtrl(MessageClass::ABCAST, body));
                }
                GbOut::Deliver(d) => ctx.output(Ev::Deliver(d)),
            }
        }
    }

    fn flush_deferred(&mut self, ctx: &mut Context<'_, Ev>) {
        if self.core.is_frozen() {
            return;
        }
        for (joiner, mut snap) in std::mem::take(&mut self.deferred) {
            snap.gb_epoch = self.core.epoch();
            snap.gdelivered = self.core.gdelivered();
            ctx.emit(ids::MEMBERSHIP, Ev::SnapReady { joiner, snap });
        }
    }
}

impl Component<Ev> for GenericComponent {
    fn on_event(&mut self, event: Ev, ctx: &mut Context<'_, Ev>) {
        let mut outs = std::mem::take(&mut self.scratch);
        debug_assert!(outs.is_empty());
        match event {
            Ev::Gbcast(class, payload) => {
                self.core.gbcast_into(class, Body::App(payload), &mut outs);
                self.apply(outs.drain(..), ctx);
            }
            Ev::Rbcast(payload) => {
                self.core
                    .gbcast_into(MessageClass::RBCAST, Body::App(payload), &mut outs);
                self.apply(outs.drain(..), ctx);
            }
            Ev::Net(from, WireMsg::Gb(msg)) => {
                match msg {
                    GbMsg::Data {
                        sender,
                        seq,
                        class,
                        body,
                        origin_ack,
                    } => {
                        let id = MsgId { sender, seq };
                        let message = Message { id, class, body };
                        self.core
                            .on_data_into(from, message, origin_ack.get(), &mut outs)
                    }
                    GbMsg::Ack { epoch, id } => self.core.on_ack_into(from, epoch, id, &mut outs),
                };
                self.apply(outs.drain(..), ctx);
            }
            Ev::CtrlDelivered(m) => {
                if let Body::GbEnd(end) = m.body {
                    self.core.on_end_delivered_into(m.id.sender, end, &mut outs);
                    self.apply(outs.drain(..), ctx);
                    self.flush_deferred(ctx);
                }
            }
            Ev::Suspect(MonitorClass::CONSENSUS, p) => {
                self.core.on_suspect_into(p, &mut outs);
                self.apply(outs.drain(..), ctx);
            }
            Ev::Restore(MonitorClass::CONSENSUS, p) => self.core.on_restore(p),
            Ev::ViewChanged(v) => {
                let outs2 = self.core.on_view_change(v);
                self.apply(outs2, ctx);
            }
            Ev::InstallSnapshot(snap) => {
                self.core.install_snapshot_into(
                    &snap.view,
                    snap.gb_epoch,
                    &snap.gdelivered,
                    &mut outs,
                );
                self.apply(outs.drain(..), ctx);
            }
            Ev::SnapFill { joiner, snap } => {
                self.deferred.push((joiner, snap));
                self.flush_deferred(ctx);
            }
            _ => {}
        }
        debug_assert!(outs.is_empty());
        self.scratch = outs;
    }
}

// ---------------------------------------------------------------------------
// Membership
// ---------------------------------------------------------------------------

/// Adapter around [`MembershipCore`] (Fig 9 "Group Membership").
pub struct MembershipComponent {
    core: MembershipCore,
}

impl MembershipComponent {
    /// Creates the membership component.
    pub fn new(core: MembershipCore) -> Self {
        MembershipComponent { core }
    }

    fn apply(&mut self, outs: Vec<MbOut>, ctx: &mut Context<'_, Ev>) {
        for o in outs {
            match o {
                MbOut::Abcast(body) => {
                    ctx.emit(ids::ABCAST, Ev::AbcastCtrl(MessageClass::ABCAST, body));
                }
                MbOut::Wire(to, wire) => ctx.emit(ids::RC, Ev::RcSend(to, wire)),
                MbOut::ViewChanged(v) => {
                    for target in [ids::ABCAST, ids::GENERIC, ids::FD, ids::MONITORING] {
                        ctx.emit(target, Ev::ViewChanged(v.clone()));
                    }
                    ctx.output(Ev::ViewInstalled(v));
                }
                MbOut::AssembleSnapshot { joiner, snap } => {
                    ctx.emit(ids::ABCAST, Ev::SnapFill { joiner, snap });
                }
                MbOut::Excluded => ctx.output(Ev::Excluded),
                MbOut::Forget(p) => ctx.emit(ids::RC, Ev::Forget(p)),
            }
        }
    }
}

impl Component<Ev> for MembershipComponent {
    fn on_event(&mut self, event: Ev, ctx: &mut Context<'_, Ev>) {
        match event {
            Ev::JoinVia(contact) => {
                let outs = self.core.join_via(contact);
                self.apply(outs, ctx);
            }
            Ev::RemoveMember(p) | Ev::Exclude(p) => {
                let outs = self.core.remove(p);
                self.apply(outs, ctx);
            }
            Ev::Net(from, WireMsg::Mb(msg)) => match msg {
                MbMsg::JoinRequest => {
                    let outs = self.core.on_join_request(from);
                    self.apply(outs, ctx);
                }
                MbMsg::Snapshot(snap) => {
                    let outs = self.core.on_snapshot(&snap);
                    // Install protocol state before announcing the view.
                    ctx.emit(ids::ABCAST, Ev::InstallSnapshot(snap.clone()));
                    ctx.emit(ids::GENERIC, Ev::InstallSnapshot(snap));
                    self.apply(outs, ctx);
                }
            },
            Ev::CtrlDelivered(m) => {
                let outs = self.core.on_ctrl(&m);
                self.apply(outs, ctx);
            }
            Ev::SnapReady { joiner, snap } => {
                ctx.emit(
                    ids::RC,
                    Ev::RcSend(joiner, WireMsg::Mb(MbMsg::Snapshot(snap))),
                );
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Monitoring
// ---------------------------------------------------------------------------

/// Adapter around [`MonitoringCore`] (Fig 9 "Monitoring").
pub struct MonitoringComponent {
    core: MonitoringCore,
}

impl MonitoringComponent {
    /// Creates the monitoring component.
    pub fn new(me: ProcessId, members: Vec<ProcessId>) -> Self {
        MonitoringComponent {
            core: MonitoringCore::new(me, members),
        }
    }

    fn apply(&mut self, outs: Vec<MonOut>, ctx: &mut Context<'_, Ev>) {
        for o in outs {
            match o {
                MonOut::Wire(to, wire) => ctx.emit(ids::RC, Ev::RcSend(to, wire)),
                MonOut::Exclude(p) => ctx.emit(ids::MEMBERSHIP, Ev::Exclude(p)),
            }
        }
    }
}

impl Component<Ev> for MonitoringComponent {
    fn on_event(&mut self, event: Ev, ctx: &mut Context<'_, Ev>) {
        match event {
            Ev::Suspect(MonitorClass::MONITORING, p) => {
                let outs = self.core.on_fd_suspect(p);
                self.apply(outs, ctx);
            }
            Ev::RcStuck(p, _) => {
                let outs = self.core.on_stuck(p);
                self.apply(outs, ctx);
            }
            Ev::Net(_, WireMsg::Mon(MonMsg::Report { peer })) => {
                let outs = self.core.on_report(peer);
                self.apply(outs, ctx);
            }
            Ev::ViewChanged(v) => self.core.set_members(v.members),
            _ => {}
        }
    }
}

//! The [`GroupTransport`] trait: the full common surface of the three
//! protocol stacks, with capability markers for the services a stack does
//! not provide.
//!
//! The paper's architectural claim is that group communication should be a
//! set of composable *services* the application picks from, not a monolithic
//! stack with one hard-wired entry point. This trait is that claim as an
//! API: every stack exposes the same workload, membership, control and
//! observation surface, and the services a stack genuinely lacks (generic
//! broadcast on the GM-VS baselines) are visible through `supports_*`
//! markers rather than through incompatible harness types.
//!
//! The trait is a small **required core** — injection of interned payloads,
//! one scripted-schedule entry point, run control, counters, the
//! backpressure ledger, and one [observation pass](GroupTransport::observe)
//! — plus provided methods that are all written over that core, so the one
//! implementation ([`Harness`](crate::Harness)) and the one erased handle
//! above it stay small and cannot drift apart.

use std::fmt;

use gcs_kernel::{
    Bytes, DeliveryKind, MessageClass, PayloadRef, ProcessId, SharedArena, Time, View,
};

use crate::{Metrics, Schedule};

/// Which protocol stack a transport runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StackKind {
    /// The paper's new architecture (Fig 9): atomic broadcast over
    /// consensus, thrifty generic broadcast, membership above abcast.
    NewArch,
    /// The Isis/Phoenix GM-VS baseline (Figs 1–2): membership + view
    /// synchrony below a fixed-sequencer atomic broadcast.
    Isis,
    /// The RMP/Totem token-ring baseline (Figs 3–4).
    Token,
}

impl StackKind {
    /// Every stack, in catalog order — the iteration axis of cross-stack
    /// comparisons and the conformance suite.
    pub const ALL: [StackKind; 3] = [StackKind::NewArch, StackKind::Isis, StackKind::Token];

    /// Stable lowercase name (used in scenario names and reports).
    pub fn name(self) -> &'static str {
        match self {
            StackKind::NewArch => "new-arch",
            StackKind::Isis => "isis",
            StackKind::Token => "token",
        }
    }
}

/// The optional services of a stack (see the `supports_*` markers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capabilities {
    /// Generic broadcast (conflict-relation ordering).
    pub gbcast: bool,
    /// Reliable (unordered) broadcast as a first-class service.
    pub rbcast: bool,
    /// Removal of a member by request (a scripted `Remove` step).
    pub removal: bool,
}

/// One protocol output in stack-neutral vocabulary: what a stack's typed
/// trace event means to an observer that does not know the stack. Produced
/// by [`StackDriver::project`](crate::StackDriver::project), consumed
/// through [`GroupTransport::observe`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Observation<'a> {
    /// An application delivery (the fields of [`TransportDelivery`] that
    /// the stack knows; the pass supplies time and process).
    Deliver {
        /// The originating sender.
        sender: ProcessId,
        /// Sequence number (see [`TransportDelivery::seq`]).
        seq: u64,
        /// Which primitive delivered the message.
        kind: DeliveryKind,
        /// Conflict class.
        class: MessageClass,
        /// View (ring generation) the delivery is tagged with.
        view: u64,
        /// Application payload handle.
        payload: PayloadRef,
    },
    /// A view (ring generation on the token stack) was installed.
    View {
        /// View number.
        id: u64,
        /// The member list, in agreed order.
        members: &'a [ProcessId],
    },
    /// The process's delivery stream reset: it was killed or excluded and
    /// anything it delivers later belongs to a fresh incarnation.
    Reset,
    /// A consensus-class suspicion of the given peer (recorded only when
    /// the stack is configured to trace suspicions).
    Suspect(ProcessId),
    /// Isis's sending view delivery (§4.4): `true` when a view change's
    /// flush blocks the process's senders, `false` when the new view
    /// unblocks them.
    Blocked(bool),
    /// A killed process was re-admitted with a state transfer (Isis,
    /// §4.3); its kill was a [`Reset`](Observation::Reset).
    Rejoined,
    /// Any other traced output: Isis's removal notice, the new
    /// architecture's exclusion notice and its suspicions of classes other
    /// than consensus. No stack-neutral reader needs them.
    Other,
}

impl Observation<'_> {
    /// The delivery record of a [`Deliver`](Observation::Deliver) observed
    /// at `proc` at `time`; `None` for every other observation.
    pub fn delivery(self, time: Time, proc: ProcessId) -> Option<TransportDelivery> {
        match self {
            Observation::Deliver {
                sender,
                seq,
                kind,
                class,
                view,
                payload,
            } => Some(TransportDelivery {
                time,
                proc,
                sender,
                seq,
                kind,
                class,
                view,
                payload,
            }),
            _ => None,
        }
    }
}

/// One observed application delivery, in stack-neutral vocabulary.
///
/// The three stacks trace deliveries with their own event types; this record
/// is the common projection the trait's observation methods return. Payloads
/// stay arena handles — resolve them at the observation edge with
/// [`GroupTransport::resolve`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransportDelivery {
    /// Time of the delivery on the group's clock.
    pub time: Time,
    /// The delivering process.
    pub proc: ProcessId,
    /// The originating sender.
    pub sender: ProcessId,
    /// Sequence number disambiguating the message: per-sender on the new
    /// architecture and Isis (`(sender, seq)` is the message identity),
    /// global on the token ring. Within one stack, `(sender, seq)`
    /// identifies a message uniquely across replicas.
    pub seq: u64,
    /// Which primitive delivered the message. The traditional baselines
    /// only deliver atomically; on the new architecture generic deliveries
    /// carry their fast-path/escalation kind.
    pub kind: DeliveryKind,
    /// Conflict class ([`MessageClass::ABCAST`] on stacks without generic
    /// broadcast).
    pub class: MessageClass,
    /// View (ring generation) current at delivery; `0` on stacks that do
    /// not tag deliveries with a view.
    pub view: u64,
    /// Application payload handle.
    pub payload: PayloadRef,
}

/// An atomic broadcast refused because the sender's pending queue is at
/// capacity.
///
/// Returned by [`GroupTransport::try_abcast_ref_at`] and friends when a
/// queue bound is configured
/// ([`set_abcast_capacity`](GroupTransport::set_abcast_capacity)) and the
/// sender's backlog has reached it. The caller owns the retry policy: an
/// open-loop driver typically drops the operation (counting it as shed
/// load), a closed-loop driver waits and re-offers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backpressure {
    /// The sender whose queue is full.
    pub proc: ProcessId,
    /// The backlog observed at refusal time.
    pub depth: usize,
    /// The configured capacity the backlog reached.
    pub limit: usize,
}

impl fmt::Display for Backpressure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "abcast refused at {:?}: queue depth {} >= capacity {}",
            self.proc, self.depth, self.limit
        )
    }
}

impl std::error::Error for Backpressure {}

/// Refuses when a capacity is configured and `p`'s backlog has reached it.
fn admit<T: GroupTransport + ?Sized>(t: &T, p: ProcessId) -> Result<(), Backpressure> {
    if let Some(limit) = t.abcast_capacity() {
        let depth = t.queue_depth(p);
        if depth >= limit {
            return Err(Backpressure {
                proc: p,
                depth,
                limit,
            });
        }
    }
    Ok(())
}

/// Per-process times of every `wanted` observation, in order.
fn times_of<T: GroupTransport + ?Sized>(t: &T, wanted: Observation<'_>) -> Vec<Vec<Time>> {
    let mut out = vec![Vec::new(); t.process_count()];
    t.observe(&mut |time, proc, o| {
        if o == wanted {
            if let Some(times) = out.get_mut(proc.index()) {
                times.push(time);
            }
        }
    });
    out
}

/// The unified surface of a group on either backend, implemented once by
/// [`Harness`](crate::Harness) (every stack × every runtime) and forwarded
/// by the `Group` façade of `gcs-api`.
///
/// The trait is object-safe: workloads and scenario drivers take
/// `&mut dyn GroupTransport`. The `impl Into<Bytes>` conveniences
/// ([`abcast_at`](Self::abcast_at) and friends) are provided methods gated
/// on `Self: Sized`; through a trait object, use the `*_bytes_at` forms or
/// the zero-copy [`abcast_build_at`](Self::abcast_build_at).
///
/// # Capability markers
///
/// Entry points for services a stack does not provide (`supports_gbcast`,
/// `supports_rbcast`, `supports_removal`) **panic** when invoked; the
/// markers exist so generic drivers can select the services they need
/// up front, in the paper's pick-your-services spirit.
pub trait GroupTransport {
    // -- identity & capabilities -------------------------------------------

    /// Which protocol stack this transport runs.
    fn stack(&self) -> StackKind;

    /// Total number of processes (founding members + joiners).
    fn process_count(&self) -> usize;

    /// Which optional services the stack provides.
    fn capabilities(&self) -> Capabilities;

    /// Whether messages of classes `a` and `b` must be delivered in one
    /// order everywhere: the group's conflict relation, which the oracle
    /// judges generic deliveries by. Stacks without generic broadcast order
    /// everything, so there every pair conflicts.
    fn conflicts(&self, a: MessageClass, b: MessageClass) -> bool;

    // -- workload ----------------------------------------------------------

    /// Schedules an atomic broadcast of an already-interned payload handle
    /// (the zero-copy injection path).
    fn abcast_ref_at(&mut self, t: Time, p: ProcessId, payload: PayloadRef);

    /// Schedules a generic broadcast of an already-interned payload handle.
    ///
    /// # Panics
    ///
    /// Panics on stacks where [`supports_gbcast`](Self::supports_gbcast) is
    /// `false`.
    fn gbcast_ref_at(&mut self, t: Time, p: ProcessId, class: MessageClass, payload: PayloadRef);

    /// Schedules a reliable broadcast of an already-interned payload handle.
    ///
    /// # Panics
    ///
    /// Panics on stacks where [`supports_rbcast`](Self::supports_rbcast) is
    /// `false`.
    fn rbcast_ref_at(&mut self, t: Time, p: ProcessId, payload: PayloadRef);

    // -- backpressure ledger -----------------------------------------------

    /// Bounds the per-sender pending queue the `try_abcast_*` entry points
    /// check against; `None` (the default) removes the bound.
    fn set_abcast_capacity(&mut self, cap: Option<usize>);

    /// The configured pending-queue bound, if any.
    fn abcast_capacity(&self) -> Option<usize>;

    /// The backlog as seen from `p`: broadcasts (atomic, generic, reliable)
    /// accepted through this transport minus protocol outputs observed at
    /// `p`. The measure is approximate — a process's output stream
    /// occasionally contains view installations alongside deliveries, which
    /// count as drained work — and it is computed at call time, so it is
    /// meaningful for drivers that interleave injection with
    /// [`run_until`](Self::run_until); a driver that pre-schedules its whole
    /// workload reads the full offered count here.
    fn queue_depth(&self, p: ProcessId) -> usize;

    /// The highest [`queue_depth`](Self::queue_depth) observed at the
    /// moment an injection was accepted, over the run so far.
    fn queue_high_water(&self) -> usize;

    // -- membership & faults -----------------------------------------------

    /// Applies a scripted [`Schedule`]: runtime-level steps (crashes,
    /// partitions, link changes, spikes, bursts) go to the backend, and the
    /// membership steps are encoded by the stack and injected like any
    /// other operation.
    ///
    /// # Panics
    ///
    /// Panics if the schedule contains a `Remove` step and the stack does
    /// not [`support removal`](Self::supports_removal).
    fn apply_schedule(&mut self, schedule: &Schedule);

    // -- control -----------------------------------------------------------

    /// The current instant of the group's clock: virtual time on the
    /// simulator, nanoseconds since the group started on the live backend.
    fn now(&self) -> Time;

    /// Runs the group up to time `t` (the simulator executes events; the
    /// live backend sleeps the caller while member threads keep working).
    fn run_until(&mut self, t: Time);

    /// Runs until the event queue drains or time would exceed `limit`;
    /// returns `true` only if the system actually quiesced.
    ///
    /// A group with at least one live member never quiesces (heartbeat/token
    /// timers re-arm forever): the call then behaves like
    /// [`run_until`](Self::run_until)`(limit)` and returns `false`. `true`
    /// is reachable once every process has crashed and the residual events
    /// have drained.
    fn run_to_quiescence(&mut self, limit: Time) -> bool;

    // -- observation -------------------------------------------------------

    /// The payload arena backing this group's message plane.
    fn arena(&self) -> &SharedArena;

    /// Traffic metrics (message/byte counts per protocol, latency
    /// histograms). On the live backend this is a snapshot refreshed by the
    /// run methods.
    fn metrics(&self) -> &Metrics;

    /// Events executed so far (the events/sec numerator).
    fn events_executed(&self) -> u64;

    /// Liveness flags per process.
    fn alive_flags(&self) -> Vec<bool>;

    /// Total protocol outputs observed across all processes: application
    /// deliveries plus view installations and whatever else the stack
    /// traces (suspicions when configured, Isis blocking markers, kill and
    /// re-join notices) — the same on both backends. A cheap lower-bound
    /// gate for "has everything arrived", not a delivery count to assert
    /// on.
    fn delivery_count(&self) -> u64;

    /// The one observation pass: calls `f` with every recorded protocol
    /// output in global observation order, projected into the neutral
    /// [`Observation`] vocabulary. Nothing is cloned; on the live backend
    /// every member's record of its outputs stays locked for the duration
    /// of the pass, so `f` should be quick.
    ///
    /// It is the one way to read a run's outputs, on either backend.
    /// Everything below that reads them ([`delivery_trace`], [`views`],
    /// [`resets`], [`rejoins`], [`blocked_windows`], [`suspicion_trace`],
    /// …) is written over this method; a consumer that needs several of
    /// them should make one pass itself.
    ///
    /// [`delivery_trace`]: Self::delivery_trace
    /// [`views`]: Self::views
    /// [`resets`]: Self::resets
    /// [`rejoins`]: Self::rejoins
    /// [`blocked_windows`]: Self::blocked_windows
    /// [`suspicion_trace`]: Self::suspicion_trace
    fn observe(&self, f: &mut dyn FnMut(Time, ProcessId, Observation<'_>));

    // -- provided: capability markers --------------------------------------

    /// Whether the stack provides generic broadcast (conflict-relation
    /// ordering). Only the new architecture does.
    fn supports_gbcast(&self) -> bool {
        self.capabilities().gbcast
    }

    /// Whether the stack provides reliable (unordered) broadcast as a
    /// first-class service.
    fn supports_rbcast(&self) -> bool {
        self.capabilities().rbcast
    }

    /// Whether the stack can remove a member by request (a scripted
    /// [`Schedule`] `Remove` step).
    fn supports_removal(&self) -> bool {
        self.capabilities().removal
    }

    // -- provided: workload ------------------------------------------------

    /// Schedules an atomic broadcast by `p` at time `t`; the payload is
    /// interned in the group's arena.
    fn abcast_bytes_at(&mut self, t: Time, p: ProcessId, payload: Bytes) {
        let payload = self.arena().intern(payload);
        self.abcast_ref_at(t, p, payload);
    }

    /// Schedules a generic broadcast of `class` by `p` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics on stacks where [`supports_gbcast`](Self::supports_gbcast) is
    /// `false`.
    fn gbcast_bytes_at(&mut self, t: Time, p: ProcessId, class: MessageClass, payload: Bytes) {
        let payload = self.arena().intern(payload);
        self.gbcast_ref_at(t, p, class, payload);
    }

    /// Schedules a reliable broadcast by `p` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics on stacks where [`supports_rbcast`](Self::supports_rbcast) is
    /// `false`.
    fn rbcast_bytes_at(&mut self, t: Time, p: ProcessId, payload: Bytes) {
        let payload = self.arena().intern(payload);
        self.rbcast_ref_at(t, p, payload);
    }

    /// Schedules an atomic broadcast, building the payload in place in the
    /// arena's pooled scratch buffer: a streamed injection performs exactly
    /// one allocation per message (the interned payload itself). This is
    /// the entry point workload generators use — it is object-safe.
    fn abcast_build_at(&mut self, t: Time, sender: ProcessId, fill: &mut dyn FnMut(&mut Vec<u8>)) {
        let payload = self.arena().build(|buf| fill(buf));
        self.abcast_ref_at(t, sender, payload);
    }

    /// Schedules an atomic broadcast of an already-interned payload handle,
    /// refusing with [`Backpressure`] if a queue bound is configured and
    /// `p`'s backlog has reached it.
    ///
    /// On refusal the payload handle is simply unused (arena handles are
    /// plain indices; an unreferenced one costs nothing).
    fn try_abcast_ref_at(
        &mut self,
        t: Time,
        p: ProcessId,
        payload: PayloadRef,
    ) -> Result<(), Backpressure> {
        admit(self, p)?;
        self.abcast_ref_at(t, p, payload);
        Ok(())
    }

    /// [`abcast_build_at`](Self::abcast_build_at) with backpressure: the
    /// capacity check runs *before* the payload is built, so a refused
    /// operation costs no allocation at all.
    fn try_abcast_build_at(
        &mut self,
        t: Time,
        sender: ProcessId,
        fill: &mut dyn FnMut(&mut Vec<u8>),
    ) -> Result<(), Backpressure> {
        admit(self, sender)?;
        self.abcast_build_at(t, sender, fill);
        Ok(())
    }

    // -- provided: membership & faults -------------------------------------

    /// Schedules non-member `joiner` to request membership. `contact` is the
    /// member it joins through; stacks that route joins themselves (the
    /// baselines contact their coordinator / sponsor) ignore it.
    fn join_at(&mut self, t: Time, joiner: ProcessId, contact: ProcessId) {
        self.apply_schedule(&Schedule::new().join(t, joiner, contact));
    }

    /// Schedules member `by` to ask for the removal of `target`.
    ///
    /// # Panics
    ///
    /// Panics on stacks where [`supports_removal`](Self::supports_removal)
    /// is `false`.
    fn remove_at(&mut self, t: Time, by: ProcessId, target: ProcessId) {
        self.apply_schedule(&Schedule::new().remove(t, by, target));
    }

    /// Crashes `p` at `t` (crash-stop).
    fn crash_at(&mut self, t: Time, p: ProcessId) {
        self.apply_schedule(&Schedule::new().crash(t, p));
    }

    /// Partitions the network into the given groups at `t` (processes in
    /// different groups cannot communicate until [`heal_at`](Self::heal_at)).
    fn partition_at(&mut self, t: Time, groups: Vec<Vec<ProcessId>>) {
        self.apply_schedule(&Schedule::new().partition(t, groups));
    }

    /// Heals any active partition at `t`.
    fn heal_at(&mut self, t: Time) {
        self.apply_schedule(&Schedule::new().heal(t));
    }

    // -- provided: observation ---------------------------------------------

    /// Resolves a delivered payload handle to its bytes.
    ///
    /// # Panics
    ///
    /// Panics on a handle not issued by this group's arena.
    fn resolve(&self, payload: PayloadRef) -> Bytes {
        self.arena().get(payload)
    }

    /// Every recorded application delivery, in global delivery order.
    fn delivery_trace(&self) -> Vec<TransportDelivery> {
        let mut out = Vec::new();
        self.observe(&mut |time, proc, o| out.extend(o.delivery(time, proc)));
        out
    }

    /// Per-process delivery sequences (any kind), in delivery order.
    fn delivered(&self) -> Vec<Vec<TransportDelivery>> {
        let mut out = vec![Vec::new(); self.process_count()];
        for d in self.delivery_trace() {
            if let Some(seq) = out.get_mut(d.proc.index()) {
                seq.push(d);
            }
        }
        out
    }

    /// Per-process sequences of atomically delivered payloads, resolved
    /// through the arena.
    fn adelivered_payloads(&self) -> Vec<Vec<Vec<u8>>> {
        let mut out = vec![Vec::new(); self.process_count()];
        for d in self.delivery_trace() {
            if d.kind != DeliveryKind::Atomic {
                continue;
            }
            if let Some(seq) = out.get_mut(d.proc.index()) {
                seq.push(self.resolve(d.payload).to_vec());
            }
        }
        out
    }

    /// Per-process sequences of installed views (ring generations on the
    /// token stack), in installation order.
    fn views(&self) -> Vec<Vec<View>> {
        let mut out = vec![Vec::new(); self.process_count()];
        self.observe(&mut |_, proc, o| {
            if let Observation::View { id, members } = o {
                if let Some(vs) = out.get_mut(proc.index()) {
                    vs.push(View {
                        id,
                        members: members.to_vec(),
                    });
                }
            }
        });
        out
    }

    /// Consensus-class suspicion transitions recorded in the trace, as
    /// `(time, observer, suspect)` triples in trace order. Only the new
    /// architecture with `StackConfig::trace_suspicions` set records these
    /// (crash-detection-latency measurement); every other stack returns an
    /// empty list.
    fn suspicion_trace(&self) -> Vec<(Time, ProcessId, ProcessId)> {
        let mut out = Vec::new();
        self.observe(&mut |time, proc, o| {
            if let Observation::Suspect(suspect) = o {
                out.push((time, proc, suspect));
            }
        });
        out
    }

    /// Send-blocking windows of `p`, as `(start, end)` pairs in order: from
    /// a [`Blocked(true)`](Observation::Blocked) until the next
    /// `Blocked(false)`. A window still open is left out. Only Isis blocks
    /// its senders (§4.4); every other stack returns an empty list.
    fn blocked_windows(&self, p: ProcessId) -> Vec<(Time, Time)> {
        let mut windows = Vec::new();
        let mut open = None;
        self.observe(&mut |time, proc, o| match o {
            _ if proc != p => {}
            Observation::Blocked(true) => open = open.or(Some(time)),
            Observation::Blocked(false) => windows.extend(open.take().map(|s| (s, time))),
            _ => {}
        });
        windows
    }

    /// Per-process times at which the process's delivery stream *reset* —
    /// it was killed/excluded and later re-admitted as a logically fresh
    /// member (Isis kills wrongly suspected processes, §4.3; the token ring
    /// excludes members that miss a reformation). Deliveries after a reset
    /// belong to a new incarnation: invariant checking compares incarnations,
    /// not raw process indices, across such boundaries. Stacks whose members
    /// never resurrect return an empty list per process.
    fn resets(&self) -> Vec<Vec<Time>> {
        times_of(self, Observation::Reset)
    }

    /// Per-process times at which a killed process was re-admitted with a
    /// state transfer (Isis, §4.3); its kill is the [`resets`](Self::resets)
    /// entry before. Every other stack returns an empty list per process.
    fn rejoins(&self) -> Vec<Vec<Time>> {
        times_of(self, Observation::Rejoined)
    }

    // -- provided: `impl Into<Bytes>` conveniences -------------------------

    /// [`abcast_bytes_at`](Self::abcast_bytes_at) accepting anything
    /// convertible to [`Bytes`]. Not available through a trait object.
    fn abcast_at(&mut self, t: Time, p: ProcessId, payload: impl Into<Bytes>)
    where
        Self: Sized,
    {
        self.abcast_bytes_at(t, p, payload.into());
    }

    /// [`try_abcast_ref_at`](Self::try_abcast_ref_at) accepting anything
    /// convertible to [`Bytes`]. Not available through a trait object.
    ///
    /// Note the payload is interned before the capacity check (the `impl
    /// Into<Bytes>` must be consumed); drivers that shed load at high rates
    /// should prefer [`try_abcast_build_at`](Self::try_abcast_build_at),
    /// which checks first.
    fn try_abcast_at(
        &mut self,
        t: Time,
        p: ProcessId,
        payload: impl Into<Bytes>,
    ) -> Result<(), Backpressure>
    where
        Self: Sized,
    {
        let payload = self.arena().intern(payload.into());
        self.try_abcast_ref_at(t, p, payload)
    }

    /// [`gbcast_bytes_at`](Self::gbcast_bytes_at) accepting anything
    /// convertible to [`Bytes`]. Not available through a trait object.
    fn gbcast_at(&mut self, t: Time, p: ProcessId, class: MessageClass, payload: impl Into<Bytes>)
    where
        Self: Sized,
    {
        self.gbcast_bytes_at(t, p, class, payload.into());
    }

    /// [`rbcast_bytes_at`](Self::rbcast_bytes_at) accepting anything
    /// convertible to [`Bytes`]. Not available through a trait object.
    fn rbcast_at(&mut self, t: Time, p: ProcessId, payload: impl Into<Bytes>)
    where
        Self: Sized,
    {
        self.rbcast_bytes_at(t, p, payload.into());
    }
}

//! One harness for every stack on every backend: [`Harness`]`<S, R>` over a
//! [`StackDriver`] `S` and a [`Runtime`] `R`.
//!
//! # The contract
//!
//! **Problem.** Three protocol stacks (the paper's AB-GB architecture, the
//! Isis and token-ring GM-VS baselines) run on two backends (this crate's
//! deterministic [`SimWorld`], `gcs-live`'s thread-per-member runtime).
//! Everything a group harness does — intern a payload, keep the
//! backpressure ledger, route a membership step, enter a fault, project the
//! trace — is the same job six times over unless what *differs* is named
//! and everything else is written once. Two traits name what differs;
//! [`Harness`] is everything else, and carries the only
//! [`GroupTransport`] implementation.
//!
//! **Observations each side offers.** The contract is stated as what a
//! caller can observe of an implementation, not how it is built, so that
//! implementations are interchangeable exactly when the Backend × stack
//! conformance battery (`tests/transport_conformance.rs`, and the
//! per-driver cases in `gcs-api`) cannot tell them apart.
//!
//! | side | offers |
//! |---|---|
//! | [`StackDriver`] | its event and config types; [`build`](StackDriver::build) of one process (founding member or joiner); the [conflict relation](StackDriver::conflicts) its config sets; the *encoding* of each operation as an [`Op`], a `(ComponentId, event)` pair — [`abcast`](StackDriver::abcast), [`join`](StackDriver::join), and optionally [`gbcast`](StackDriver::gbcast), [`rbcast`](StackDriver::rbcast), [`remove`](StackDriver::remove) (an absent encoder **is** the `supports_*` marker reading `false`); one [`project`](StackDriver::project) from a recorded output to an [`Observation`], the only form in which a reader of the harness sees it |
//! | [`Runtime`] | [`start`](Runtime::start) of `n` processes with dense ids; a clock; one dispatch path that hands each process one [`Input`](gcs_kernel::Input) per [`step_into`](Process::step_into) — an injection, a message arrival or a timer — and decides only *when*; [`inject`](Runtime::inject) at an instant; [`apply_schedule`](Runtime::apply_schedule) for every fault step, handing the membership steps back; run control; per-process and total output counts; a [visit](Runtime::visit_outputs) of the recorded outputs in observation order, which the harness's [`observe`](GroupTransport::observe) projects (no runtime offers a typed trace of its own; code that drives a bare runtime reads the visit); metrics; executed-event count; liveness flags |
//!
//! **Ordering.** The harness enforces, and the conformance cases pin:
//!
//! 1. *build → schedule applied → inject.* Every process exists before the
//!    first operation is accepted; a scripted schedule handed to the
//!    builder is applied before any workload call.
//! 2. *join-before-inject is the caller's business.* An operation injected
//!    at a process that has not joined yet is accepted, counted in the
//!    ledger and handed to that process's stack like any other — the
//!    harness neither refuses it nor holds it back. On every stack nobody
//!    delivers it while its sender is outside the group; every stack
//!    queues it behind the join and broadcasts it once the sender is a
//!    member.
//! 3. *refuse-before-intern.* `try_abcast_build_at` consults the ledger
//!    before it builds the payload: a refused offer leaves the arena
//!    untouched.
//! 4. *observe-after-run.* An observation pass sees every output of the
//!    events executed so far and nothing else; on the simulator that is
//!    exact, on the live backend it is a consistent prefix (the pass locks
//!    every member's record of its outputs at once).
//!
//! **The ledger.** `offered` counts every accepted broadcast (atomic,
//! generic, reliable); the backlog seen from `p` is `offered` minus the
//! outputs recorded at `p`. Deliveries of any primitive therefore balance
//! the offers of that primitive. View installations and the baselines'
//! kill/re-join markers are outputs too and count as drained work — the
//! measure is approximate by that much, on every stack and backend alike.
//!
//! **Out of scope.** The wire format (events cross the simulator and the
//! live channels as in-process values), the thread model of a runtime, and
//! timing: `Time` is virtual on one backend and wall-clock on the other,
//! and nothing here promises *when* an output appears — only what it is
//! and in which order one process produces them.

use std::marker::PhantomData;
use std::sync::Arc;

use gcs_kernel::{
    ComponentId, Event, MessageClass, PayloadRef, Process, ProcessId, SharedArena, Time,
};

use crate::transport::{Capabilities, GroupTransport, Observation, StackKind};
use crate::{Metrics, Schedule, ScheduleAction, SimConfig, SimWorld};

/// An operation encoded for a stack: the component it enters at and the
/// event it enters as.
pub type Op<E> = (ComponentId, E);

/// What differs per protocol stack (see the [module docs](self)).
pub trait StackDriver: 'static {
    /// The stack's event type (wire messages, operations and outputs).
    type Event: Event + Send + 'static;
    /// Per-process configuration of the stack.
    type Config: Send + Sync + 'static;
    /// Which stack this is.
    const KIND: StackKind;

    /// Builds process `id` of a group whose founding members are
    /// `0..founders`: a member holding the founding view when
    /// `id < founders`, a process outside the group (activated by a
    /// [`join`](Self::join)) otherwise.
    fn build(id: ProcessId, config: &Self::Config, founders: usize) -> Process<Self::Event>;

    /// An atomic broadcast of `payload`.
    fn abcast(payload: PayloadRef) -> Op<Self::Event>;

    /// A generic broadcast of `payload` in `class`; `None` when the stack
    /// has no generic broadcast.
    fn gbcast(class: MessageClass, payload: PayloadRef) -> Option<Op<Self::Event>> {
        let _ = (class, payload);
        None
    }

    /// Whether classes `a` and `b` conflict under `config`; every pair
    /// does on a stack that delivers only atomically.
    fn conflicts(config: &Self::Config, a: MessageClass, b: MessageClass) -> bool {
        let _ = (config, a, b);
        true
    }

    /// A reliable broadcast of `payload`; `None` when the stack has none.
    fn rbcast(payload: PayloadRef) -> Option<Op<Self::Event>> {
        let _ = payload;
        None
    }

    /// The request of a process outside the group to join through
    /// `contact` (stacks that route joins themselves ignore the contact).
    fn join(contact: ProcessId) -> Op<Self::Event>;

    /// A member's request to remove `target`; `None` when the stack cannot
    /// remove members by request.
    fn remove(target: ProcessId) -> Option<Op<Self::Event>> {
        let _ = target;
        None
    }

    /// What a traced output means in stack-neutral vocabulary. Every
    /// application delivery maps to exactly one [`Observation::Deliver`].
    fn project(event: &Self::Event) -> Observation<'_>;
}

/// What differs per execution backend (see the [module docs](self)).
pub trait Runtime<E: Event>: Sized {
    /// Backend configuration (seed, topology, …).
    type Config;

    /// Hosts processes `0..n`, each built by `build(id)` — on the caller's
    /// thread or on the thread that will own the process.
    fn start(
        config: Self::Config,
        n: usize,
        build: impl Fn(ProcessId) -> Process<E> + Send + Sync + 'static,
    ) -> Self;

    /// The current instant of the backend's clock.
    fn now(&self) -> Time;

    /// Delivers `event` to component `component` of process `p` at `t` (at
    /// once when `t` has passed).
    fn inject(&mut self, t: Time, p: ProcessId, component: ComponentId, event: E);

    /// Enters every fault step of `schedule` (crashes, partitions, link
    /// changes, spikes, bursts) and returns the membership steps, which
    /// only a stack can encode.
    fn apply_schedule(&mut self, schedule: &Schedule) -> Vec<(Time, ScheduleAction)>;

    /// Runs (or waits) until the clock reaches `t`.
    fn run_until(&mut self, t: Time);

    /// Runs until nothing is left to do (`true`) or the clock passes
    /// `limit` (`false`).
    fn run_to_quiescence(&mut self, limit: Time) -> bool;

    /// Outputs recorded at `p`.
    fn outputs_of(&self, p: ProcessId) -> u64;

    /// Outputs recorded group-wide.
    fn outputs_total(&self) -> u64;

    /// Calls `f` with every retained output, in observation order.
    fn visit_outputs(&self, f: &mut dyn FnMut(Time, ProcessId, &E));

    /// Traffic metrics.
    fn metrics(&self) -> &Metrics;

    /// Events dispatched so far.
    fn events_executed(&self) -> u64;

    /// Liveness flags, one per process.
    fn alive_flags(&self) -> Vec<bool>;
}

/// A group of processes running stack `S` on runtime `R`: the payload
/// arena, the process counts, the backpressure ledger, and the one
/// [`GroupTransport`] implementation (see the [module docs](self) for the
/// contract). `gcs_core::GroupSim`, `gcs_traditional::{IsisSim, TokenSim}`
/// and `gcs_live::LiveGroup` are aliases of this type.
pub struct Harness<S: StackDriver, R> {
    runtime: R,
    /// The configuration every process was built with, shared with the
    /// runtime's build closure; it answers [`GroupTransport::conflicts`].
    config: Arc<S::Config>,
    /// The zero-copy message plane: payloads are interned here at injection
    /// and every layer below moves [`PayloadRef`] handles.
    arena: SharedArena,
    total: usize,
    /// Broadcasts accepted for injection (the backpressure ledger).
    offered: u64,
    capacity: Option<usize>,
    /// Highest backlog observed at an accepted injection.
    high_water: usize,
    _stack: PhantomData<fn() -> S>,
}

impl<S: StackDriver, R: Runtime<S::Event>> Harness<S, R> {
    /// Starts a group of `members` founding members plus `joiners`
    /// processes outside the group, every process configured by `config`,
    /// on a runtime configured by `runtime`.
    pub fn start(members: usize, joiners: usize, config: S::Config, runtime: R::Config) -> Self {
        let total = members + joiners;
        let config = Arc::new(config);
        let shared = Arc::clone(&config);
        Harness {
            runtime: R::start(runtime, total, move |id| S::build(id, &shared, members)),
            config,
            arena: SharedArena::new(),
            total,
            offered: 0,
            capacity: None,
            high_water: 0,
            _stack: PhantomData,
        }
    }

    /// Number of processes (members + joiners).
    pub fn len(&self) -> usize {
        self.total
    }

    /// True if the group has no processes.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Accepts one broadcast into the ledger and hands it to the runtime.
    fn broadcast(&mut self, t: Time, p: ProcessId, (component, event): Op<S::Event>) {
        self.offered += 1;
        self.high_water = self.high_water.max(self.queue_depth(p));
        self.runtime.inject(t, p, component, event);
    }
}

impl<S: StackDriver> Harness<S, SimWorld<S::Event>> {
    /// A simulated group of `n` founding members on a loss-free LAN.
    pub fn new(n: usize, config: S::Config, seed: u64) -> Self {
        Self::start(n, 0, config, SimConfig::lan(seed))
    }

    /// A simulated LAN group of `n` founding members plus `joiners`
    /// processes that start outside the group (activate them with
    /// [`join_at`](GroupTransport::join_at)).
    pub fn with_joiners(n: usize, joiners: usize, config: S::Config, seed: u64) -> Self {
        Self::start(n, joiners, config, SimConfig::lan(seed))
    }
}

impl<S: StackDriver, R: Runtime<S::Event>> GroupTransport for Harness<S, R> {
    fn stack(&self) -> StackKind {
        S::KIND
    }

    fn process_count(&self) -> usize {
        self.total
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            gbcast: S::gbcast(MessageClass::ABCAST, PayloadRef::EMPTY).is_some(),
            rbcast: S::rbcast(PayloadRef::EMPTY).is_some(),
            removal: S::remove(ProcessId::new(0)).is_some(),
        }
    }

    fn conflicts(&self, a: MessageClass, b: MessageClass) -> bool {
        S::conflicts(&self.config, a, b)
    }

    fn abcast_ref_at(&mut self, t: Time, p: ProcessId, payload: PayloadRef) {
        self.broadcast(t, p, S::abcast(payload));
    }

    fn gbcast_ref_at(&mut self, t: Time, p: ProcessId, class: MessageClass, payload: PayloadRef) {
        let Some(op) = S::gbcast(class, payload) else {
            panic!(
                "the {} stack provides no generic broadcast (check supports_gbcast())",
                S::KIND.name()
            );
        };
        self.broadcast(t, p, op);
    }

    fn rbcast_ref_at(&mut self, t: Time, p: ProcessId, payload: PayloadRef) {
        let Some(op) = S::rbcast(payload) else {
            panic!(
                "the {} stack provides no reliable broadcast (check supports_rbcast())",
                S::KIND.name()
            );
        };
        self.broadcast(t, p, op);
    }

    fn set_abcast_capacity(&mut self, cap: Option<usize>) {
        self.capacity = cap;
    }

    fn abcast_capacity(&self) -> Option<usize> {
        self.capacity
    }

    fn queue_depth(&self, p: ProcessId) -> usize {
        self.offered.saturating_sub(self.runtime.outputs_of(p)) as usize
    }

    fn queue_high_water(&self) -> usize {
        self.high_water
    }

    fn apply_schedule(&mut self, schedule: &Schedule) {
        for (t, action) in self.runtime.apply_schedule(schedule) {
            let (p, (component, event)) = match action {
                ScheduleAction::Join { joiner, contact } => (joiner, S::join(contact)),
                ScheduleAction::Remove { by, target } => match S::remove(target) {
                    Some(op) => (by, op),
                    None => panic!(
                        "the {} stack cannot remove members by request (check supports_removal())",
                        S::KIND.name()
                    ),
                },
                _ => unreachable!("a runtime hands back membership steps only"),
            };
            self.runtime.inject(t, p, component, event);
        }
    }

    fn now(&self) -> Time {
        self.runtime.now()
    }

    fn run_until(&mut self, t: Time) {
        self.runtime.run_until(t);
    }

    fn run_to_quiescence(&mut self, limit: Time) -> bool {
        self.runtime.run_to_quiescence(limit)
    }

    fn arena(&self) -> &SharedArena {
        &self.arena
    }

    fn metrics(&self) -> &Metrics {
        self.runtime.metrics()
    }

    fn events_executed(&self) -> u64 {
        self.runtime.events_executed()
    }

    fn alive_flags(&self) -> Vec<bool> {
        self.runtime.alive_flags()
    }

    fn delivery_count(&self) -> u64 {
        self.runtime.outputs_total()
    }

    fn observe(&self, f: &mut dyn FnMut(Time, ProcessId, Observation<'_>)) {
        self.runtime
            .visit_outputs(&mut |t, p, e| f(t, p, S::project(e)));
    }
}

//! A process hosting a graph of components, with deterministic dispatch.
//!
//! A process holds its components in the order their stack declared their
//! [`ComponentId`]s, so an id is a slot: an input from the runtime, an
//! emit, a timer expiry and a step-end call each reach their component by
//! index. A network message needs nothing more. A component sends only to
//! itself on other processes, so an [`Envelope`] records the sender's id and
//! the receiving process hands the message to the component in that slot.

use std::collections::VecDeque;

use crate::component::{take_timer_owner, Component, Context};
use crate::event::Event;
use crate::ids::{ComponentId, ProcessId, TimerId};
use crate::smallvec::SmallVec;
use crate::time::{Time, TimeDelta};

/// A network message produced by a dispatch step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<E> {
    /// Sending process.
    pub from: ProcessId,
    /// Destination process.
    pub to: ProcessId,
    /// The sending component, which is also the receiving one at `to`.
    pub component: ComponentId,
    /// The event carried by this message.
    pub event: E,
}

/// A broadcast envelope produced by a dispatch step: one event destined for
/// the same component of many processes. The runtime expands the fan-out,
/// cloning the event only where delivery demands it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Multicast<E> {
    /// Sending process.
    pub from: ProcessId,
    /// Destination processes.
    pub to: SmallVec<ProcessId, 8>,
    /// The sending component, which is also the receiving one at each
    /// destination.
    pub component: ComponentId,
    /// The event carried to every destination.
    pub event: E,
}

/// A timer requested by a dispatch step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerRequest {
    /// Timer id (unique within the process).
    pub id: TimerId,
    /// Delay until expiry, relative to the time of the dispatch step.
    pub after: TimeDelta,
}

/// What drives one dispatch step of a [`Process`]: a local request, a
/// message from the same component on a peer, or a timer coming due — the
/// three things a component reacts to. A runtime decides only *when* each
/// input is handed to [`Process::step_into`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Input<E> {
    /// A local request (an application operation, a membership signal) for
    /// component `component`.
    Inject {
        /// Destination component.
        component: ComponentId,
        /// The injected event.
        event: E,
    },
    /// A network message that component `component` of process `from` sent
    /// to its counterpart here.
    Net {
        /// Sending process.
        from: ProcessId,
        /// The sending component, which is also the receiving one here.
        component: ComponentId,
        /// The event carried by the message.
        event: E,
    },
    /// A timer this process set came due.
    Fire(TimerId),
}

/// Externally visible results of one dispatch step of a [`Process`].
///
/// The hosting runtime (simulator or threaded runtime) is responsible for
/// carrying these out: scheduling sends and timers and recording outputs.
/// Components fill it in directly through their [`Context`] while they run:
/// each buffer holds the step's `send`s, `send_to_all`s, `set_timer`s and
/// `output`s in the order the handlers of the cascade made them.
///
/// The buffers are [`SmallVec`]s: the common dispatch produces only a
/// handful of effects, which then never touch the allocator. Both entry
/// points of [`Process`] ([`start_into`](Process::start_into) and
/// [`step_into`](Process::step_into)) append to whatever the buffers already
/// hold, so a runtime keeps one `Effects` alive across steps.
#[derive(Debug)]
pub struct Effects<E> {
    /// Messages to transmit over the network.
    pub sends: SmallVec<Envelope<E>, 4>,
    /// Broadcast envelopes to expand and transmit.
    pub casts: SmallVec<Multicast<E>, 1>,
    /// Timers to schedule.
    pub timers: SmallVec<TimerRequest, 2>,
    /// Events delivered to the application observer.
    pub outputs: SmallVec<E, 2>,
    /// True if the process halted itself during this step.
    pub halted: bool,
}

impl<E> Effects<E> {
    /// Creates an empty effects buffer.
    pub fn new() -> Self {
        Effects {
            sends: SmallVec::new(),
            casts: SmallVec::new(),
            timers: SmallVec::new(),
            outputs: SmallVec::new(),
            halted: false,
        }
    }

    /// True when the step produced no externally visible effect at all.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
            && self.casts.is_empty()
            && self.timers.is_empty()
            && self.outputs.is_empty()
            && !self.halted
    }

    /// Empties all buffers (retaining spill capacity) for reuse.
    pub fn clear(&mut self) {
        self.sends.clear();
        self.casts.clear();
        self.timers.clear();
        self.outputs.clear();
        self.halted = false;
    }
}

impl<E> Default for Effects<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Builder for a [`Process`]; register components, then [`build`](Self::build).
#[derive(Debug)]
pub struct ProcessBuilder<E: Event> {
    id: ProcessId,
    components: Vec<Box<dyn Component<E>>>,
}

impl<E: Event> std::fmt::Debug for Box<dyn Component<E>> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Component")
    }
}

impl<E: Event> ProcessBuilder<E> {
    /// Registers `component` under `id`.
    ///
    /// # Panics
    ///
    /// Panics unless `id` is the next in the stack's declared order: ids are
    /// dense from zero, registered in the order they are declared.
    pub fn with<C: Component<E> + 'static>(mut self, id: ComponentId, component: C) -> Self {
        assert_eq!(
            id.index(),
            self.components.len(),
            "component {id:?} registered out of declared order"
        );
        self.components.push(Box::new(component));
        self
    }

    /// Finalizes the process graph.
    pub fn build(self) -> Process<E> {
        Process {
            id: self.id,
            components: self.components,
            next_timer: 0,
            timer_owner: Vec::new(),
            halted: false,
            pending: VecDeque::new(),
            step_end: Vec::new(),
        }
    }
}

/// One process of the distributed system: a component graph, indexed by
/// [`ComponentId`], plus the deterministic dispatch loop that routes events
/// between the components.
///
/// `Process` is runtime-agnostic: it is driven by one [`Input`] per
/// [`step_into`](Self::step_into) call (after one
/// [`start_into`](Self::start_into)), and each step appends to the caller's
/// [`Effects`] what the runtime must apply. Once a process halts (crash
/// injection or [`Context::halt`]) no step produces any effect.
///
/// A dispatch step runs one handler — the input's — and then the cascade:
/// events the handlers `emit` wait in one FIFO queue and are handled in
/// that order until the queue is empty. There is no intermediate record of
/// what a handler asked for: its [`Context`] borrows the queue, the timer
/// table and the caller's [`Effects`] and writes to them as the handler
/// runs. When the queue is empty, the components that asked
/// for it ([`Context::at_step_end`]) get their
/// [`on_step_end`](Component::on_step_end) call, in the order they asked, and
/// what those emit is handled in turn.
#[derive(Debug)]
pub struct Process<E: Event> {
    id: ProcessId,
    /// The components, each at the index of its id.
    components: Vec<Box<dyn Component<E>>>,
    next_timer: u64,
    /// Live timers and the component that set each.
    timer_owner: Vec<(TimerId, ComponentId)>,
    halted: bool,
    /// The cascade queue: empty between dispatch steps, and kept across
    /// them so a steady-state dispatch performs no allocation.
    pending: VecDeque<(ComponentId, E)>,
    /// Components owed a step-end call: empty between dispatch steps, and
    /// kept across them like `pending`.
    step_end: Vec<ComponentId>,
}

impl<E: Event> Process<E> {
    /// Starts building a process with the given identity.
    pub fn builder(id: ProcessId) -> ProcessBuilder<E> {
        ProcessBuilder {
            id,
            components: Vec::new(),
        }
    }

    /// The identity of this process.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Whether the process has halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Marks the process as crashed; all subsequent inputs are ignored.
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// Invokes `on_start` on every component, in registration order, and
    /// runs the cascade, appending the effects to `fx`.
    pub fn start_into(&mut self, now: Time, fx: &mut Effects<E>) {
        if self.halted {
            return;
        }
        for i in 0..self.components.len() {
            let (component, mut ctx) = self.enter(ComponentId::new(i as u16), now, fx);
            component.on_start(&mut ctx);
        }
        self.cascade(now, fx);
    }

    /// Runs one dispatch step: hands `input` to its component and runs the
    /// cascade, appending the effects to `fx` — the hot-path shape: reusing
    /// one `Effects` across steps keeps the buffers allocation-free.
    ///
    /// A halted process ignores every input, but an [`Input::Fire`] still
    /// consumes its timer id; an unknown (fired or cancelled) id is ignored.
    ///
    /// # Panics
    ///
    /// Panics if no component is registered under an `Inject` or `Net`
    /// input's `component` — a miswired graph is a programming error, not a
    /// runtime condition.
    pub fn step_into(&mut self, input: Input<E>, now: Time, fx: &mut Effects<E>) {
        let target = match input {
            Input::Inject { component, .. } | Input::Net { component, .. } => component,
            Input::Fire(id) => match take_timer_owner(&mut self.timer_owner, id) {
                Some(owner) => owner,
                None => return,
            },
        };
        if self.halted {
            return;
        }
        let (component, mut ctx) = self.enter(target, now, fx);
        match input {
            Input::Inject { event, .. } => component.on_event(event, &mut ctx),
            Input::Net { from, event, .. } => component.on_message(from, event, &mut ctx),
            Input::Fire(id) => component.on_timer(id, &mut ctx),
        }
        self.cascade(now, fx);
    }

    /// Component `target` and the context it runs in: the two halves of a
    /// handler call, borrowed from disjoint fields.
    fn enter<'a>(
        &'a mut self,
        target: ComponentId,
        now: Time,
        fx: &'a mut Effects<E>,
    ) -> (&'a mut dyn Component<E>, Context<'a, E>) {
        let ctx = Context {
            now,
            me: self.id,
            component: target,
            pending: &mut self.pending,
            fx,
            timer_owner: &mut self.timer_owner,
            next_timer: &mut self.next_timer,
            step_end: &mut self.step_end,
        };
        (&mut *self.components[target.index()], ctx)
    }

    /// Handles the locally emitted events in FIFO order until none is left,
    /// then makes the step-end calls asked for and handles what they emit,
    /// until neither is left. A halt ends the cascade: what is still queued
    /// is dropped, but the step-end calls already asked for are still made,
    /// so that nothing a component held back is lost.
    fn cascade(&mut self, now: Time, fx: &mut Effects<E>) {
        // A generous bound on cascade length catches accidental emit loops.
        let mut steps = 0usize;
        loop {
            while let Some((target, event)) = self.pending.pop_front() {
                steps += 1;
                assert!(
                    steps < 1_000_000,
                    "{:?}: runaway local event cascade",
                    self.id
                );
                if fx.halted {
                    break;
                }
                let (component, mut ctx) = self.enter(target, now, fx);
                component.on_event(event, &mut ctx);
            }
            if self.step_end.is_empty() {
                break;
            }
            steps += self.step_end.len();
            self.end_step(now, fx);
            if fx.halted {
                break;
            }
        }
        if fx.halted {
            self.halted = true;
            self.pending.clear();
            self.step_end.clear();
        }
    }

    /// Makes the step-end calls asked for so far, in the order asked; a call
    /// asked for meanwhile waits for the next round.
    fn end_step(&mut self, now: Time, fx: &mut Effects<E>) {
        let mut due = std::mem::take(&mut self.step_end);
        for &target in &due {
            let (component, mut ctx) = self.enter(target, now, fx);
            component.on_step_end(&mut ctx);
        }
        if self.step_end.is_empty() {
            due.clear();
            self.step_end = due;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Ev {
        Ping(u32),
        Pong(u32),
        Kick,
    }
    impl Event for Ev {
        fn kind(&self) -> &'static str {
            match self {
                Ev::Ping(_) => "ping",
                Ev::Pong(_) => "pong",
                Ev::Kick => "kick",
            }
        }
    }

    // `proc()` registers the gateway and the replier, `holding()` the
    // gateway, the holder and the fan-out.
    const GATEWAY: ComponentId = ComponentId::new(0);
    const REPLIER: ComponentId = ComponentId::new(1);
    const HOLDER: ComponentId = ComponentId::new(1);
    const FANOUT: ComponentId = ComponentId::new(2);

    /// Forwards pings to the replier, outputs pongs.
    struct Gateway;
    impl Component<Ev> for Gateway {
        fn on_event(&mut self, ev: Ev, ctx: &mut Context<'_, Ev>) {
            match ev {
                Ev::Ping(n) => ctx.emit(REPLIER, Ev::Ping(n)),
                Ev::Pong(n) => ctx.output(Ev::Pong(n)),
                Ev::Kick => {}
            }
        }
    }

    /// Answers a ping with a pong and a timer that sends a ping to p1; casts
    /// a pong it is handed to p1 and p2.
    struct Replier {
        timer: Option<TimerId>,
    }
    impl Component<Ev> for Replier {
        fn on_event(&mut self, ev: Ev, ctx: &mut Context<'_, Ev>) {
            match ev {
                Ev::Ping(n) => {
                    ctx.emit(GATEWAY, Ev::Pong(n + 1));
                    self.timer = Some(ctx.set_timer(TimeDelta::from_millis(10)));
                }
                Ev::Kick => {
                    if let Some(t) = self.timer.take() {
                        ctx.cancel_timer(t);
                    }
                }
                Ev::Pong(n) => ctx.send_to_all([ProcessId::new(1), ProcessId::new(2)], Ev::Pong(n)),
            }
        }
        fn on_timer(&mut self, _t: TimerId, ctx: &mut Context<'_, Ev>) {
            ctx.send(ProcessId::new(1), Ev::Ping(0));
        }
    }

    /// One step of `p` on `input`, with a fresh effects buffer.
    fn step(p: &mut Process<Ev>, input: Input<Ev>, now: Time) -> Effects<Ev> {
        let mut fx = Effects::new();
        p.step_into(input, now, &mut fx);
        fx
    }

    fn inject(component: ComponentId, event: Ev) -> Input<Ev> {
        Input::Inject { component, event }
    }

    fn proc() -> Process<Ev> {
        Process::builder(ProcessId::new(0))
            .with(GATEWAY, Gateway)
            .with(REPLIER, Replier { timer: None })
            .build()
    }

    #[test]
    fn cascade_routes_between_components() {
        let mut p = proc();
        let fx = step(&mut p, inject(GATEWAY, Ev::Ping(1)), Time::ZERO);
        assert_eq!(fx.outputs, vec![Ev::Pong(2)]);
        assert_eq!(fx.timers.len(), 1);
    }

    #[test]
    fn timer_fires_to_owner_and_only_once() {
        let mut p = proc();
        let fx = step(&mut p, inject(GATEWAY, Ev::Ping(1)), Time::ZERO);
        let id = fx.timers[0].id;
        let fx2 = step(&mut p, Input::Fire(id), Time::from_millis(10));
        assert_eq!(fx2.sends.len(), 1);
        // Second fire of the same id is ignored.
        assert!(step(&mut p, Input::Fire(id), Time::from_millis(11)).is_empty());
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mut p = proc();
        let fx = step(&mut p, inject(GATEWAY, Ev::Ping(1)), Time::ZERO);
        let id = fx.timers[0].id;
        step(&mut p, inject(REPLIER, Ev::Kick), Time::from_millis(1));
        assert!(step(&mut p, Input::Fire(id), Time::from_millis(10)).is_empty());
    }

    #[test]
    fn halted_process_ignores_everything() {
        let mut p = proc();
        p.halt();
        assert!(step(&mut p, inject(GATEWAY, Ev::Ping(1)), Time::ZERO).is_empty());
        assert!(p.is_halted());
    }

    #[test]
    #[should_panic(expected = "registered out of declared order")]
    fn registration_out_of_declared_order_panics() {
        let _ = Process::builder(ProcessId::new(0))
            .with(REPLIER, Replier { timer: None })
            .with(GATEWAY, Gateway)
            .build();
    }

    /// Whatever a component sends — from a timer, as a cast, from its
    /// step-end call — goes to the same component on the peer: the envelope
    /// carries the sender's id.
    #[test]
    fn a_send_reaches_the_senders_own_component_on_the_peer() {
        let mut p = proc();
        let id = step(&mut p, inject(GATEWAY, Ev::Ping(1)), Time::ZERO).timers[0].id;
        let sent = step(&mut p, Input::Fire(id), Time::from_millis(10)).sends;
        assert_eq!(
            (sent[0].to, sent[0].component),
            (ProcessId::new(1), REPLIER)
        );

        let cast = step(&mut p, inject(REPLIER, Ev::Pong(3)), Time::ZERO).casts;
        assert_eq!(cast.len(), 1);
        assert_eq!(cast[0].component, REPLIER);
        let to: Vec<ProcessId> = cast[0].to.iter().copied().collect();
        assert_eq!(to, vec![ProcessId::new(1), ProcessId::new(2)]);

        let (mut p, _) = holding(0);
        let sent = step(&mut p, inject(FANOUT, Ev::Ping(2)), Time::ZERO).sends;
        assert_eq!(sent.len(), 1, "the holder's step-end send");
        assert_eq!(sent[0].component, HOLDER);
    }

    #[test]
    fn timer_ids_are_unique_across_steps() {
        let mut p = proc();
        let a = step(&mut p, inject(GATEWAY, Ev::Ping(1)), Time::ZERO).timers[0].id;
        let b = step(&mut p, inject(GATEWAY, Ev::Ping(2)), Time::ZERO).timers[0].id;
        assert_ne!(a, b);
    }

    /// Holds the pings of a step and sends them, summed, when it ends; a
    /// kick halts the process.
    struct Holder {
        held: Vec<u32>,
        calls: std::rc::Rc<std::cell::Cell<u32>>,
        /// How many more times the step-end call asks for itself again.
        again: u32,
    }
    impl Component<Ev> for Holder {
        fn on_event(&mut self, ev: Ev, ctx: &mut Context<'_, Ev>) {
            match ev {
                Ev::Ping(n) => {
                    self.held.push(n);
                    ctx.at_step_end();
                }
                Ev::Kick => ctx.halt(),
                Ev::Pong(_) => {}
            }
        }
        fn on_step_end(&mut self, ctx: &mut Context<'_, Ev>) {
            self.calls.set(self.calls.get() + 1);
            let sum = self.held.drain(..).sum();
            ctx.send(ProcessId::new(1), Ev::Ping(sum));
            ctx.emit(GATEWAY, Ev::Pong(sum));
            if self.again > 0 {
                self.again -= 1;
                ctx.at_step_end();
            }
        }
    }

    /// Sends a ping to the holder per ping, then pings it twice more.
    struct Fanout;
    impl Component<Ev> for Fanout {
        fn on_event(&mut self, ev: Ev, ctx: &mut Context<'_, Ev>) {
            match ev {
                Ev::Ping(n) => {
                    ctx.emit(HOLDER, Ev::Ping(n));
                    ctx.emit(HOLDER, Ev::Ping(10 * n));
                    ctx.emit(GATEWAY, Ev::Pong(0));
                }
                Ev::Kick => {
                    ctx.emit(HOLDER, Ev::Ping(7));
                    ctx.send(ProcessId::new(2), Ev::Kick);
                    ctx.emit(HOLDER, Ev::Kick);
                    ctx.emit(GATEWAY, Ev::Pong(99));
                }
                Ev::Pong(_) => {}
            }
        }
    }

    fn holding(again: u32) -> (Process<Ev>, std::rc::Rc<std::cell::Cell<u32>>) {
        let calls = std::rc::Rc::new(std::cell::Cell::new(0));
        let holder = Holder {
            held: Vec::new(),
            calls: calls.clone(),
            again,
        };
        let p = Process::builder(ProcessId::new(0))
            .with(GATEWAY, Gateway)
            .with(HOLDER, holder)
            .with(FANOUT, Fanout)
            .build();
        (p, calls)
    }

    #[test]
    fn step_end_call_comes_once_after_the_cascade_and_its_emits_cascade() {
        let (mut p, calls) = holding(0);
        let fx = step(&mut p, inject(FANOUT, Ev::Ping(2)), Time::ZERO);
        assert_eq!(calls.get(), 1, "asked twice, called once");
        // The cascade's own output first, then the step-end call's, handled
        // by the gateway within the same step.
        assert_eq!(fx.outputs, vec![Ev::Pong(0), Ev::Pong(22)]);
        assert_eq!(fx.sends.len(), 1);
        assert_eq!(fx.sends[0].event, Ev::Ping(22));
        // The next step starts with nothing owed.
        assert!(step(&mut p, inject(GATEWAY, Ev::Kick), Time::ZERO).is_empty());
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn a_step_end_call_that_asks_again_is_called_again() {
        let (mut p, calls) = holding(2);
        let fx = step(&mut p, inject(FANOUT, Ev::Ping(1)), Time::ZERO);
        assert_eq!(calls.get(), 3);
        let sent: Vec<&Ev> = fx.sends.iter().map(|e| &e.event).collect();
        assert_eq!(sent, vec![&Ev::Ping(11), &Ev::Ping(0), &Ev::Ping(0)]);
    }

    #[test]
    fn sends_made_before_a_halt_still_leave() {
        let (mut p, calls) = holding(0);
        let fx = step(&mut p, inject(FANOUT, Ev::Kick), Time::ZERO);
        assert!(fx.halted && p.is_halted());
        assert_eq!(calls.get(), 1, "the held ping is sent");
        let sent: Vec<&Ev> = fx.sends.iter().map(|e| &e.event).collect();
        assert_eq!(sent, vec![&Ev::Kick, &Ev::Ping(7)]);
        // Nothing after the halt is handled: not the queued pong, not what
        // the step-end call emitted.
        assert!(fx.outputs.is_empty(), "{:?}", fx.outputs);
        assert!(step(&mut p, inject(FANOUT, Ev::Ping(1)), Time::ZERO).is_empty());
    }
}

/// The dispatch this crate had before [`Context`] wrote through — handlers
/// record [`Action`](reference::Action)s, the process replays them when the
/// handler returns — kept as a reference interpreter, and random component
/// scripts run on both. The reference also makes the step-end calls the
/// scripts ask for, as the rule in [`Process`]'s docs states it.
#[cfg(test)]
mod write_through_equivalence {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    const COMPONENTS: usize = 3;
    const KINDS: u8 = 3;
    /// How many more hops a chain of emits started by an input may take.
    const TTL: u8 = 4;

    #[derive(Clone, Debug, PartialEq)]
    struct Ev {
        kind: u8,
        ttl: u8,
    }
    impl Event for Ev {
        fn kind(&self) -> &'static str {
            "scripted"
        }
    }

    /// What a handler may do — the methods of [`Context`], so that one
    /// script plays against the real context and the reference's.
    trait Sink {
        fn emit(&mut self, to: ComponentId, event: Ev);
        fn send(&mut self, to: ProcessId, event: Ev);
        fn send_to_all(&mut self, targets: Vec<ProcessId>, event: Ev);
        fn set_timer(&mut self, after: TimeDelta) -> TimerId;
        fn cancel_timer(&mut self, id: TimerId);
        fn output(&mut self, event: Ev);
        fn halt(&mut self);
        fn at_step_end(&mut self);
    }

    impl Sink for Context<'_, Ev> {
        fn emit(&mut self, to: ComponentId, event: Ev) {
            Context::emit(self, to, event)
        }
        fn send(&mut self, to: ProcessId, event: Ev) {
            Context::send(self, to, event)
        }
        fn send_to_all(&mut self, targets: Vec<ProcessId>, event: Ev) {
            Context::send_to_all(self, targets, event)
        }
        fn set_timer(&mut self, after: TimeDelta) -> TimerId {
            Context::set_timer(self, after)
        }
        fn cancel_timer(&mut self, id: TimerId) {
            Context::cancel_timer(self, id)
        }
        fn output(&mut self, event: Ev) {
            Context::output(self, event)
        }
        fn halt(&mut self) {
            Context::halt(self)
        }
        fn at_step_end(&mut self) {
            Context::at_step_end(self)
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        Emit(u16, u8),
        Send(u32, u8),
        Cast(Vec<u32>, u8),
        Output(u8),
        SetTimer(u64),
        /// Cancel the n-th most recent timer this component set (0: the one
        /// it may have set a moment ago, in this very handler).
        CancelOwn(usize),
        /// Cancel a timer off the process-wide board: anybody's.
        CancelAny(usize),
        Halt,
        /// Ask for the step-end call.
        AtStepEnd,
    }

    /// A component whose every handler plays a fixed list of [`Op`]s.
    #[derive(Clone)]
    struct Scripted {
        /// By trigger: start, event kinds, message kinds, timer, step end.
        scripts: Vec<Vec<Op>>,
        own: Vec<TimerId>,
        board: Rc<RefCell<Vec<TimerId>>>,
        /// What the step-end call asked for plays with: one less than the
        /// most any request made this round carried, so that a call asking
        /// for itself again ends like a chain of emits does.
        step_end_ttl: Option<u8>,
    }

    impl Scripted {
        fn play(&mut self, trigger: usize, ttl: u8, sink: &mut dyn Sink) {
            for op in self.scripts[trigger].clone() {
                let ev = |kind| Ev {
                    kind,
                    ttl: ttl.saturating_sub(1),
                };
                match op {
                    Op::Emit(to, kind) if ttl > 0 => sink.emit(ComponentId::new(to), ev(kind)),
                    Op::Emit(..) => {}
                    Op::Send(to, kind) => sink.send(ProcessId::new(to), ev(kind)),
                    Op::Cast(to, kind) => {
                        let to = to.into_iter().map(ProcessId::new).collect();
                        sink.send_to_all(to, ev(kind))
                    }
                    Op::Output(kind) => sink.output(ev(kind)),
                    Op::SetTimer(ms) => {
                        let id = sink.set_timer(TimeDelta::from_millis(ms));
                        self.own.push(id);
                        self.board.borrow_mut().push(id);
                    }
                    Op::CancelOwn(n) => {
                        if let Some(&id) = self.own.iter().rev().nth(n) {
                            sink.cancel_timer(id);
                        }
                    }
                    Op::CancelAny(n) => {
                        let board = self.board.borrow();
                        if !board.is_empty() {
                            sink.cancel_timer(board[n % board.len()]);
                        }
                    }
                    Op::Halt => sink.halt(),
                    Op::AtStepEnd if ttl > 0 => {
                        let t = ttl - 1;
                        self.step_end_ttl = Some(self.step_end_ttl.map_or(t, |s| s.max(t)));
                        sink.at_step_end();
                    }
                    Op::AtStepEnd => {}
                }
            }
        }

        fn step_end(&mut self, sink: &mut dyn Sink) {
            let ttl = self.step_end_ttl.take().expect("asked for");
            self.play(ON_STEP_END, ttl, sink);
        }
    }

    const ON_START: usize = 0;
    const ON_TIMER: usize = 1 + 2 * KINDS as usize;
    const ON_STEP_END: usize = ON_TIMER + 1;
    fn on_event(kind: u8) -> usize {
        1 + kind as usize
    }
    fn on_message(kind: u8) -> usize {
        1 + (KINDS + kind) as usize
    }

    impl Component<Ev> for Scripted {
        fn on_start(&mut self, ctx: &mut Context<'_, Ev>) {
            self.play(ON_START, TTL, ctx);
        }
        fn on_event(&mut self, ev: Ev, ctx: &mut Context<'_, Ev>) {
            self.play(on_event(ev.kind), ev.ttl, ctx);
        }
        fn on_message(&mut self, _from: ProcessId, ev: Ev, ctx: &mut Context<'_, Ev>) {
            self.play(on_message(ev.kind), ev.ttl, ctx);
        }
        fn on_timer(&mut self, _timer: TimerId, ctx: &mut Context<'_, Ev>) {
            self.play(ON_TIMER, TTL, ctx);
        }
        fn on_step_end(&mut self, ctx: &mut Context<'_, Ev>) {
            self.step_end(ctx);
        }
    }

    mod reference {
        use super::*;

        #[derive(Debug)]
        pub enum Action {
            Emit {
                to: ComponentId,
                event: Ev,
            },
            Send {
                to: ProcessId,
                event: Ev,
            },
            Multicast {
                targets: SmallVec<ProcessId, 8>,
                event: Ev,
            },
            SetTimer {
                id: TimerId,
                after: TimeDelta,
            },
            CancelTimer(TimerId),
            Output(Ev),
            Halt,
            AtStepEnd,
        }

        /// Collects what a handler asks for, for the process to replay.
        struct Collector<'a> {
            component: usize,
            actions: &'a mut Vec<(usize, Action)>,
            next_timer: &'a mut u64,
        }

        impl Collector<'_> {
            fn push(&mut self, action: Action) {
                self.actions.push((self.component, action));
            }
        }

        impl Sink for Collector<'_> {
            fn emit(&mut self, to: ComponentId, event: Ev) {
                self.push(Action::Emit { to, event });
            }
            fn send(&mut self, to: ProcessId, event: Ev) {
                self.push(Action::Send { to, event });
            }
            fn send_to_all(&mut self, targets: Vec<ProcessId>, event: Ev) {
                let targets: SmallVec<ProcessId, 8> = targets.into_iter().collect();
                if !targets.is_empty() {
                    self.push(Action::Multicast { targets, event });
                }
            }
            fn set_timer(&mut self, after: TimeDelta) -> TimerId {
                let id = TimerId::new(*self.next_timer);
                *self.next_timer += 1;
                self.push(Action::SetTimer { id, after });
                id
            }
            fn cancel_timer(&mut self, id: TimerId) {
                self.push(Action::CancelTimer(id));
            }
            fn output(&mut self, event: Ev) {
                self.push(Action::Output(event));
            }
            fn halt(&mut self) {
                self.push(Action::Halt);
            }
            fn at_step_end(&mut self) {
                self.push(Action::AtStepEnd);
            }
        }

        /// Which of the situations the scripts are meant to reach the run
        /// did reach.
        #[derive(Debug, Default)]
        pub struct Coverage {
            pub emit_chains: usize,
            pub emits_to_self: usize,
            pub set_and_cancel_in_one_handler: usize,
            pub cancels_of_anothers_timer: usize,
            pub halts_mid_cascade: usize,
            pub non_empty_incoming_effects: usize,
            pub step_end_calls: usize,
            /// Step-end calls whose emits were handled in the same step.
            pub step_end_cascades: usize,
            /// Step-end calls asked for again in the same step.
            pub step_end_rounds: usize,
            pub step_end_calls_after_a_halt: usize,
        }

        /// `Process` as it dispatched before: collect, then drain.
        pub struct RefProcess {
            pub id: ProcessId,
            pub components: Vec<Scripted>,
            pub next_timer: u64,
            pub timer_owner: Vec<(TimerId, usize)>,
            pub halted: bool,
            pub seen: Coverage,
            /// Components owed a step-end call, in the order they asked.
            pub step_end: Vec<usize>,
        }

        pub enum RefInput {
            Start,
            Event(usize, Ev),
            Message(usize, Ev),
            Timer(TimerId),
        }

        impl RefProcess {
            pub fn dispatch(&mut self, input: RefInput, fx: &mut Effects<Ev>) {
                let mut actions = Vec::new();
                let mut next_timer = self.next_timer;
                let mut seed: Vec<(usize, usize, u8)> = Vec::new();
                match input {
                    RefInput::Start => {
                        seed.extend((0..self.components.len()).map(|i| (i, ON_START, TTL)))
                    }
                    RefInput::Event(c, ev) => seed.push((c, on_event(ev.kind), ev.ttl)),
                    RefInput::Message(c, ev) => seed.push((c, on_message(ev.kind), ev.ttl)),
                    RefInput::Timer(id) => {
                        let Some(owner) = self.take_timer_owner(id) else {
                            return;
                        };
                        seed.push((owner, ON_TIMER, TTL));
                    }
                }
                if self.halted {
                    return;
                }
                if !fx.is_empty() {
                    self.seen.non_empty_incoming_effects += 1;
                }
                let mut pending = VecDeque::new();
                for (c, trigger, ttl) in seed {
                    self.play(c, trigger, ttl, &mut actions, &mut next_timer);
                }
                self.drain_actions(&mut actions, &mut pending, fx);
                let mut steps = 0;
                let mut rounds = 0;
                loop {
                    while let Some((target, event)) = pending.pop_front() {
                        steps += 1;
                        if fx.halted {
                            self.seen.halts_mid_cascade += 1;
                            break;
                        }
                        if steps == 2 {
                            self.seen.emit_chains += 1;
                        }
                        if rounds > 0 {
                            self.seen.step_end_cascades += 1;
                        }
                        let Ev { kind, ttl } = event;
                        self.play(target, on_event(kind), ttl, &mut actions, &mut next_timer);
                        self.drain_actions(&mut actions, &mut pending, fx);
                    }
                    if self.step_end.is_empty() {
                        break;
                    }
                    rounds += 1;
                    if rounds == 2 {
                        self.seen.step_end_rounds += 1;
                    }
                    if fx.halted {
                        self.seen.step_end_calls_after_a_halt += 1;
                    }
                    for c in std::mem::take(&mut self.step_end) {
                        self.seen.step_end_calls += 1;
                        let mut collector = Collector {
                            component: c,
                            actions: &mut actions,
                            next_timer: &mut next_timer,
                        };
                        self.components[c].step_end(&mut collector);
                        self.drain_actions(&mut actions, &mut pending, fx);
                    }
                    if fx.halted {
                        break;
                    }
                }
                self.next_timer = next_timer;
                if fx.halted {
                    self.halted = true;
                    self.step_end.clear();
                }
            }

            /// Runs one handler, recording what it asks for.
            fn play(
                &mut self,
                component: usize,
                trigger: usize,
                ttl: u8,
                actions: &mut Vec<(usize, Action)>,
                next_timer: &mut u64,
            ) {
                let mut collector = Collector {
                    component,
                    actions,
                    next_timer,
                };
                self.components[component].play(trigger, ttl, &mut collector);
            }

            fn take_timer_owner(&mut self, id: TimerId) -> Option<usize> {
                let pos = self.timer_owner.iter().position(|&(t, _)| t == id)?;
                Some(self.timer_owner.swap_remove(pos).1)
            }

            fn drain_actions(
                &mut self,
                actions: &mut Vec<(usize, Action)>,
                pending: &mut VecDeque<(usize, Ev)>,
                fx: &mut Effects<Ev>,
            ) {
                let mut set_here = Vec::new();
                for (owner, action) in actions.drain(..) {
                    let component = ComponentId::new(owner as u16);
                    match action {
                        Action::Emit { to, event } => {
                            if to == component {
                                self.seen.emits_to_self += 1;
                            }
                            pending.push_back((to.index(), event));
                        }
                        Action::Send { to, event } => fx.sends.push(Envelope {
                            from: self.id,
                            to,
                            component,
                            event,
                        }),
                        Action::Multicast { targets, event } => fx.casts.push(Multicast {
                            from: self.id,
                            to: targets,
                            component,
                            event,
                        }),
                        Action::SetTimer { id, after } => {
                            set_here.push(id);
                            self.timer_owner.push((id, owner));
                            fx.timers.push(TimerRequest { id, after });
                        }
                        Action::CancelTimer(id) => match self.take_timer_owner(id) {
                            Some(_) if set_here.contains(&id) => {
                                self.seen.set_and_cancel_in_one_handler += 1
                            }
                            Some(o) if o != owner => self.seen.cancels_of_anothers_timer += 1,
                            _ => {}
                        },
                        Action::Output(event) => fx.outputs.push(event),
                        Action::Halt => fx.halted = true,
                        Action::AtStepEnd => {
                            if !self.step_end.contains(&owner) {
                                self.step_end.push(owner);
                            }
                        }
                    }
                }
            }
        }
    }

    use reference::{RefInput, RefProcess};

    /// splitmix64.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn random_op(rng: &mut Rng) -> Op {
        let kind = rng.below(KINDS as usize) as u8;
        let c = rng.below(COMPONENTS) as u16;
        match rng.below(22) {
            0..=6 => Op::Emit(c, kind),
            7 | 8 => Op::Send(rng.below(4) as u32, kind),
            9 => Op::Cast((0..rng.below(4) as u32).collect(), kind),
            10 | 11 => Op::Output(kind),
            12..=14 => Op::SetTimer(rng.below(50) as u64),
            15 | 16 => Op::CancelOwn(rng.below(2)),
            17 | 18 => Op::CancelAny(rng.below(8)),
            19 | 20 => Op::AtStepEnd,
            _ => Op::Halt,
        }
    }

    fn same(real: &Effects<Ev>, reference: &Effects<Ev>) -> bool {
        real.sends == reference.sends
            && real.casts == reference.casts
            && real.timers == reference.timers
            && real.outputs == reference.outputs
            && real.halted == reference.halted
    }

    #[test]
    fn write_through_dispatch_equals_collect_then_drain() {
        let mut seen = reference::Coverage::default();
        for seed in 0..400 {
            let mut rng = Rng(seed);
            let board = Rc::new(RefCell::new(Vec::new()));
            let components: Vec<Scripted> = (0..COMPONENTS)
                .map(|_| Scripted {
                    scripts: (0..=ON_STEP_END)
                        .map(|_| (0..rng.below(4)).map(|_| random_op(&mut rng)).collect())
                        .collect(),
                    own: Vec::new(),
                    board: Rc::clone(&board),
                    step_end_ttl: None,
                })
                .collect();
            let ref_board = Rc::new(RefCell::new(Vec::new()));
            let mut reference = RefProcess {
                id: ProcessId::new(0),
                components: components
                    .iter()
                    .cloned()
                    .map(|c| Scripted {
                        board: Rc::clone(&ref_board),
                        ..c
                    })
                    .collect(),
                next_timer: 0,
                timer_owner: Vec::new(),
                halted: false,
                seen: Default::default(),
                step_end: Vec::new(),
            };
            let mut real = components
                .into_iter()
                .enumerate()
                .fold(Process::builder(ProcessId::new(0)), |b, (i, c)| {
                    b.with(ComponentId::new(i as u16), c)
                })
                .build();

            let (mut fx, mut ref_fx) = (Effects::new(), Effects::new());
            for step in 0..40 {
                let now = Time::from_millis(step);
                // One time in four the runtime has not emptied its buffers.
                if rng.below(4) != 0 {
                    fx.clear();
                    ref_fx.clear();
                }
                let ev = Ev {
                    kind: rng.below(KINDS as usize) as u8,
                    ttl: TTL,
                };
                let c = rng.below(COMPONENTS);
                let id = ComponentId::new(c as u16);
                match rng.below(if step == 0 { 1 } else { 8 }) {
                    0 => {
                        real.start_into(now, &mut fx);
                        reference.dispatch(RefInput::Start, &mut ref_fx);
                    }
                    1..=3 => {
                        let input = Input::Inject {
                            component: id,
                            event: ev.clone(),
                        };
                        real.step_into(input, now, &mut fx);
                        reference.dispatch(RefInput::Event(c, ev), &mut ref_fx);
                    }
                    4 | 5 => {
                        let input = Input::Net {
                            from: ProcessId::new(1),
                            component: id,
                            event: ev.clone(),
                        };
                        real.step_into(input, now, &mut fx);
                        reference.dispatch(RefInput::Message(c, ev), &mut ref_fx);
                    }
                    _ => {
                        // Any timer ever set: live, fired or cancelled.
                        let id = TimerId::new(rng.next() % (reference.next_timer + 1));
                        real.step_into(Input::Fire(id), now, &mut fx);
                        reference.dispatch(RefInput::Timer(id), &mut ref_fx);
                    }
                }
                assert!(
                    same(&fx, &ref_fx),
                    "seed {seed} step {step}:\n{fx:?}\n{ref_fx:?}"
                );
                assert_eq!(
                    real.is_halted(),
                    reference.halted,
                    "seed {seed} step {step}"
                );
                assert_eq!(*board.borrow(), *ref_board.borrow());
            }
            let s = &reference.seen;
            seen.emit_chains += s.emit_chains;
            seen.emits_to_self += s.emits_to_self;
            seen.set_and_cancel_in_one_handler += s.set_and_cancel_in_one_handler;
            seen.cancels_of_anothers_timer += s.cancels_of_anothers_timer;
            seen.halts_mid_cascade += s.halts_mid_cascade;
            seen.non_empty_incoming_effects += s.non_empty_incoming_effects;
            seen.step_end_calls += s.step_end_calls;
            seen.step_end_cascades += s.step_end_cascades;
            seen.step_end_rounds += s.step_end_rounds;
            seen.step_end_calls_after_a_halt += s.step_end_calls_after_a_halt;
        }
        println!("{seen:?}");
        assert!(
            seen.emit_chains > 100
                && seen.emits_to_self > 100
                && seen.set_and_cancel_in_one_handler > 20
                && seen.cancels_of_anothers_timer > 20
                && seen.halts_mid_cascade > 20
                && seen.non_empty_incoming_effects > 100
                && seen.step_end_calls > 100
                && seen.step_end_cascades > 100
                && seen.step_end_rounds > 20
                && seen.step_end_calls_after_a_halt > 20,
            "{seen:?}"
        );
    }
}

//! The [`Component`] trait and the [`Context`] through which components act.
//!
//! A component is named by its [`ComponentId`], the position its stack
//! registers it at, and nothing else. Within a process, [`Context::emit`]
//! addresses a component by id, and the id is the component's slot: routing
//! an event is an index. Across processes a component talks only to itself:
//! [`Context::send`] and [`Context::send_to_all`] name the destination
//! process, never a component, and the envelope carries the sender's own id,
//! which names the same component on the peer (every process of a group
//! registers the same components in the same order).
//!
//! A `Context` **writes through**: it holds the hosting
//! [`Process`](crate::Process)'s cascade queue and timer table and the
//! runtime's [`Effects`], and every method acts on them at once — `emit`
//! queues the event, `send`/`send_to_all`/`output` append to the effects,
//! `set_timer`/`cancel_timer` update the timer table, `halt` raises the
//! effects' flag. An event is moved once, from the handler's hands to where
//! it waits; nothing is collected and replayed after the handler returns.
//! Each buffer sees a handler's calls in the order the handler made them, and
//! the cascade queue is one FIFO for the whole dispatch step.
//!
//! A component that holds something back during a step — the reliable
//! channel holds its fresh transmissions, to send one packet per peer — asks
//! with [`Context::at_step_end`] to be called once more when the cascade has
//! drained: [`Component::on_step_end`]. What it emits then cascades as usual.
//! A step in which nobody asks is dispatched exactly as if the hook did not
//! exist.

use std::collections::VecDeque;

use crate::event::Event;
use crate::ids::{ComponentId, ProcessId, TimerId};
use crate::process::{Effects, Envelope, Multicast, TimerRequest};
use crate::time::{Time, TimeDelta};

/// Execution context handed to a component while it handles an event.
///
/// All interaction with the outside world goes through the context; this is
/// what keeps components sans-I/O and deterministic. It is also the one place
/// every event of a process passes on its way anywhere.
#[derive(Debug)]
pub struct Context<'a, E> {
    pub(crate) now: Time,
    pub(crate) me: ProcessId,
    /// The component being run: the owner of the timers it sets, and the
    /// sender and receiver of what it sends.
    pub(crate) component: ComponentId,
    pub(crate) pending: &'a mut VecDeque<(ComponentId, E)>,
    pub(crate) fx: &'a mut Effects<E>,
    pub(crate) timer_owner: &'a mut Vec<(TimerId, ComponentId)>,
    pub(crate) next_timer: &'a mut u64,
    /// Components owed an [`on_step_end`](Component::on_step_end) call, in
    /// the order they asked.
    pub(crate) step_end: &'a mut Vec<ComponentId>,
}

impl<E: Event> Context<'_, E> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The identity of the hosting process.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Routes `event` to component `to` within this process: it joins the
    /// back of the dispatch step's FIFO cascade.
    ///
    /// # Panics
    ///
    /// The cascade panics when it reaches an event for an id no component is
    /// registered under — a miswired graph is a programming error.
    pub fn emit(&mut self, to: ComponentId, event: E) {
        self.pending.push_back((to, event));
    }

    /// Sends `event` to this component on process `to`.
    pub fn send(&mut self, to: ProcessId, event: E) {
        self.fx.sends.push(Envelope {
            from: self.me,
            to,
            component: self.component,
            event,
        });
    }

    /// Sends `event` to this component on every process in `targets`
    /// (including `self` if listed; self-sends loop through the network like
    /// any other message).
    ///
    /// The event travels as a single broadcast envelope: it is **not**
    /// cloned per destination here — the hosting runtime expands the fan-out
    /// (cloning only where delivery demands it).
    pub fn send_to_all<I>(&mut self, targets: I, event: E)
    where
        I: IntoIterator<Item = ProcessId>,
    {
        let to: crate::smallvec::SmallVec<ProcessId, 8> = targets.into_iter().collect();
        if to.is_empty() {
            return;
        }
        self.fx.casts.push(Multicast {
            from: self.me,
            to,
            component: self.component,
            event,
        });
    }

    /// Requests a one-shot timer firing `after` from now; returns its id.
    pub fn set_timer(&mut self, after: TimeDelta) -> TimerId {
        let id = TimerId::new(*self.next_timer);
        *self.next_timer += 1;
        self.timer_owner.push((id, self.component));
        self.fx.timers.push(TimerRequest { id, after });
        id
    }

    /// Cancels a pending timer. No-op if it already fired or was cancelled.
    pub fn cancel_timer(&mut self, id: TimerId) {
        let _ = take_timer_owner(self.timer_owner, id);
    }

    /// Delivers `event` to the application observer (the simulator trace).
    pub fn output(&mut self, event: E) {
        self.fx.outputs.push(event);
    }

    /// Halts the entire process after this dispatch step completes. The
    /// cascade stops at once; the [step-end calls](Self::at_step_end)
    /// already asked for still run, so what their components hold leaves,
    /// but nothing they emit is handled.
    pub fn halt(&mut self) {
        self.fx.halted = true;
    }

    /// Asks for this component's [`on_step_end`](Component::on_step_end)
    /// once the step's cascade has drained. Asking again before that call is
    /// the same request; asking from the call itself, or from the cascade it
    /// starts, gets one more call after that cascade drains.
    pub fn at_step_end(&mut self) {
        if !self.step_end.contains(&self.component) {
            self.step_end.push(self.component);
        }
    }
}

/// Forgets live timer `id` and returns the component that set it. Live
/// timers are few; linear scan + swap_remove beats a hash map.
pub(crate) fn take_timer_owner(
    owners: &mut Vec<(TimerId, ComponentId)>,
    id: TimerId,
) -> Option<ComponentId> {
    let pos = owners.iter().position(|&(t, _)| t == id)?;
    Some(owners.swap_remove(pos).1)
}

/// A protocol module: one box of an architecture diagram.
///
/// Components are registered with a [`Process`](crate::Process) under a
/// [`ComponentId`] and receive the events other components `emit` to that
/// id, what the same component of another process sends, and the expiries of
/// timers they set.
pub trait Component<E: Event> {
    /// Called once when the hosting process starts.
    fn on_start(&mut self, _ctx: &mut Context<'_, E>) {}

    /// Handles an event routed to this component from within the process
    /// (another component's `emit`, or an application injection).
    fn on_event(&mut self, event: E, ctx: &mut Context<'_, E>);

    /// Handles an event that this component of process `from` sent.
    ///
    /// Defaults to [`on_event`](Component::on_event); components that care
    /// about the transport-level sender override this.
    fn on_message(&mut self, from: ProcessId, event: E, ctx: &mut Context<'_, E>) {
        let _ = from;
        self.on_event(event, ctx);
    }

    /// Handles expiry of a timer previously set by this component.
    fn on_timer(&mut self, _timer: TimerId, _ctx: &mut Context<'_, E>) {}

    /// Called once the dispatch step's cascade has drained, if this component
    /// asked with [`Context::at_step_end`] during the step.
    fn on_step_end(&mut self, _ctx: &mut Context<'_, E>) {}
}

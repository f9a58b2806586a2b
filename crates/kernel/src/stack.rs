//! Ensemble-style linear protocol stacks (paper Fig 5).
//!
//! A [`StackComponent`] hosts an ordered list of [`Layer`]s. Events entering
//! from the network start at the *bottom* layer travelling [`Direction::Up`];
//! events injected locally (by the application or by a sibling component)
//! start at the *top* layer travelling [`Direction::Down`]. Each layer may
//! consume, transform, forward, or multiply events — exactly the event
//! routing model of Ensemble and Appia that the paper's §2.2 describes.

use std::collections::{HashMap, VecDeque};

use crate::component::{Component, Context};
use crate::event::Event;
use crate::ids::{ProcessId, TimerId};
use crate::time::{Time, TimeDelta};

/// Direction an event travels through a stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// From the network toward the application.
    Up,
    /// From the application toward the network.
    Down,
}

/// One layer of a linear protocol stack.
pub trait Layer<E: Event> {
    /// Stable layer name (for diagnostics and complexity accounting).
    fn name(&self) -> &'static str;

    /// Called once when the hosting process starts.
    fn on_start(&mut self, _ctx: &mut LayerContext<'_, '_, E>) {}

    /// Handles an event passing through this layer in direction `dir`.
    ///
    /// A layer that simply forwards calls `ctx.pass(dir, ev)`.
    fn on_event(&mut self, event: E, dir: Direction, ctx: &mut LayerContext<'_, '_, E>);

    /// Handles expiry of a timer previously set by this layer.
    fn on_timer(&mut self, _timer: TimerId, _ctx: &mut LayerContext<'_, '_, E>) {}
}

enum LayerOp<E> {
    Up(E),
    Down(E),
    Send { to: ProcessId, event: E },
    Multicast { targets: Vec<ProcessId>, event: E },
    Output(E),
    OwnTimer(TimerId),
    Cancel(TimerId),
}

/// Context handed to a [`Layer`] while it handles an event.
///
/// The first lifetime is the borrow of the per-dispatch op buffer; the second
/// is the borrow of the outer component [`Context`].
pub struct LayerContext<'a, 'b, E: Event> {
    now: Time,
    me: ProcessId,
    sender: Option<ProcessId>,
    ops: &'a mut Vec<LayerOp<E>>,
    // Timer ids must be allocated eagerly (callers want the id back), so the
    // outer context is threaded through rather than buffered.
    outer: &'a mut Context<'b, E>,
    issued: &'a mut Vec<TimerId>,
}

impl<'a, 'b, E: Event> LayerContext<'a, 'b, E> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The identity of the hosting process.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Transport-level sender, when the current event entered from the
    /// network.
    pub fn sender(&self) -> Option<ProcessId> {
        self.sender
    }

    /// Passes an event to the next layer above (or to the application when
    /// invoked by the top layer).
    pub fn up(&mut self, event: E) {
        self.ops.push(LayerOp::Up(event));
    }

    /// Passes an event to the next layer below.
    ///
    /// # Panics
    ///
    /// The stack panics during dispatch if the *bottom* layer passes down:
    /// the bottom layer owns the network and must use [`send`](Self::send).
    pub fn down(&mut self, event: E) {
        self.ops.push(LayerOp::Down(event));
    }

    /// Forwards the event unchanged in the given direction.
    pub fn pass(&mut self, dir: Direction, event: E) {
        match dir {
            Direction::Up => self.up(event),
            Direction::Down => self.down(event),
        }
    }

    /// Sends an event to the same stack on process `to`.
    pub fn send(&mut self, to: ProcessId, event: E) {
        self.ops.push(LayerOp::Send { to, event });
    }

    /// Sends `event` to the same stack on every process in `targets`, as a
    /// single broadcast envelope (no per-destination clone here).
    pub fn send_to_all<I>(&mut self, targets: I, event: E)
    where
        I: IntoIterator<Item = ProcessId>,
    {
        let targets: Vec<ProcessId> = targets.into_iter().collect();
        if targets.is_empty() {
            return;
        }
        self.ops.push(LayerOp::Multicast { targets, event });
    }

    /// Delivers an event to the application observer directly (bypassing the
    /// layers above; used for control notifications such as block/unblock).
    pub fn output(&mut self, event: E) {
        self.ops.push(LayerOp::Output(event));
    }

    /// Requests a one-shot timer for this layer; returns its id.
    pub fn set_timer(&mut self, after: TimeDelta) -> TimerId {
        let id = self.outer.set_timer(after);
        self.issued.push(id);
        self.ops.push(LayerOp::OwnTimer(id));
        id
    }

    /// Cancels a pending timer. No-op if already fired or cancelled.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.ops.push(LayerOp::Cancel(id));
    }
}

/// Builder for a [`StackComponent`]. Layers are added **top first**, matching
/// the order in which architecture diagrams are usually read.
pub struct StackBuilder<E: Event> {
    top_first: Vec<Box<dyn Layer<E>>>,
}

impl<E: Event> Default for StackBuilder<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Event> StackBuilder<E> {
    /// Starts an empty stack.
    pub fn new() -> Self {
        StackBuilder {
            top_first: Vec::new(),
        }
    }

    /// Adds the next layer *below* all previously added layers.
    pub fn layer<L: Layer<E> + 'static>(mut self, layer: L) -> Self {
        self.top_first.push(Box::new(layer));
        self
    }

    /// Finalizes the stack.
    ///
    /// # Panics
    ///
    /// Panics if the stack has no layers.
    pub fn build(self) -> StackComponent<E> {
        assert!(
            !self.top_first.is_empty(),
            "a stack needs at least one layer"
        );
        let mut layers = self.top_first;
        layers.reverse(); // store bottom-first
        StackComponent {
            layers,
            timer_owner: HashMap::new(),
            scratch_ops: Vec::new(),
            scratch_issued: Vec::new(),
            scratch_queue: VecDeque::new(),
        }
    }
}

/// A linear protocol stack packaged as a single [`Component`].
///
/// Sends issued by any layer go to the same component on the destination
/// process, as every send does, so symmetric processes interoperate
/// naturally.
pub struct StackComponent<E: Event> {
    layers: Vec<Box<dyn Layer<E>>>, // index 0 = bottom
    timer_owner: HashMap<TimerId, usize>,
    // Per-dispatch op buffers, reused across dispatches so steady-state
    // traversals do not allocate.
    scratch_ops: Vec<LayerOp<E>>,
    scratch_issued: Vec<TimerId>,
    scratch_queue: VecDeque<(usize, Direction, E)>,
}

impl<E: Event> StackComponent<E> {
    /// Layer names from bottom to top (for complexity accounting).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    fn dispatch(
        &mut self,
        mut queue: VecDeque<(usize, Direction, E)>,
        sender: Option<ProcessId>,
        ctx: &mut Context<'_, E>,
    ) {
        let mut ops = std::mem::take(&mut self.scratch_ops);
        let mut issued = std::mem::take(&mut self.scratch_issued);
        let mut steps = 0usize;
        while let Some((idx, dir, ev)) = queue.pop_front() {
            steps += 1;
            assert!(steps < 1_000_000, "runaway layer cascade");
            {
                let mut lctx = LayerContext {
                    now: ctx.now(),
                    me: ctx.me(),
                    sender,
                    ops: &mut ops,
                    outer: ctx,
                    issued: &mut issued,
                };
                self.layers[idx].on_event(ev, dir, &mut lctx);
            }
            self.apply_ops(idx, &mut ops, &mut issued, &mut queue, ctx);
        }
        ops.clear();
        issued.clear();
        queue.clear();
        self.scratch_ops = ops;
        self.scratch_issued = issued;
        self.scratch_queue = queue;
    }

    /// Takes the reusable entry queue (empty) for a dispatch.
    fn take_queue(&mut self) -> VecDeque<(usize, Direction, E)> {
        std::mem::take(&mut self.scratch_queue)
    }

    fn apply_ops(
        &mut self,
        idx: usize,
        ops: &mut Vec<LayerOp<E>>,
        issued: &mut Vec<TimerId>,
        queue: &mut VecDeque<(usize, Direction, E)>,
        ctx: &mut Context<'_, E>,
    ) {
        for op in ops.drain(..) {
            match op {
                LayerOp::Up(ev) => {
                    if idx + 1 == self.layers.len() {
                        ctx.output(ev);
                    } else {
                        queue.push_back((idx + 1, Direction::Up, ev));
                    }
                }
                LayerOp::Down(ev) => {
                    assert!(idx > 0, "bottom layer passed down; use send");
                    queue.push_back((idx - 1, Direction::Down, ev));
                }
                LayerOp::Send { to, event } => ctx.send(to, event),
                LayerOp::Multicast { targets, event } => ctx.send_to_all(targets, event),
                LayerOp::Output(ev) => ctx.output(ev),
                LayerOp::OwnTimer(id) => {
                    self.timer_owner.insert(id, idx);
                }
                LayerOp::Cancel(id) => {
                    self.timer_owner.remove(&id);
                    ctx.cancel_timer(id);
                }
            }
        }
        issued.clear();
    }
}

impl<E: Event> Component<E> for StackComponent<E> {
    fn on_start(&mut self, ctx: &mut Context<'_, E>) {
        let mut ops: Vec<LayerOp<E>> = Vec::new();
        let mut issued: Vec<TimerId> = Vec::new();
        let mut queue: VecDeque<(usize, Direction, E)> = VecDeque::new();
        for idx in 0..self.layers.len() {
            {
                let mut lctx = LayerContext {
                    now: ctx.now(),
                    me: ctx.me(),
                    sender: None,
                    ops: &mut ops,
                    outer: ctx,
                    issued: &mut issued,
                };
                self.layers[idx].on_start(&mut lctx);
            }
            self.apply_ops(idx, &mut ops, &mut issued, &mut queue, ctx);
        }
        self.dispatch(queue, None, ctx);
    }

    /// Local events enter at the **top**, travelling down.
    fn on_event(&mut self, event: E, ctx: &mut Context<'_, E>) {
        let top = self.layers.len() - 1;
        let mut q = self.take_queue();
        q.push_back((top, Direction::Down, event));
        self.dispatch(q, None, ctx);
    }

    /// Network messages enter at the **bottom**, travelling up.
    fn on_message(&mut self, from: ProcessId, event: E, ctx: &mut Context<'_, E>) {
        let mut q = self.take_queue();
        q.push_back((0, Direction::Up, event));
        self.dispatch(q, Some(from), ctx);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, E>) {
        let Some(idx) = self.timer_owner.remove(&timer) else {
            return;
        };
        let mut ops: Vec<LayerOp<E>> = Vec::new();
        let mut issued: Vec<TimerId> = Vec::new();
        let mut queue: VecDeque<(usize, Direction, E)> = VecDeque::new();
        {
            let mut lctx = LayerContext {
                now: ctx.now(),
                me: ctx.me(),
                sender: None,
                ops: &mut ops,
                outer: ctx,
                issued: &mut issued,
            };
            self.layers[idx].on_timer(timer, &mut lctx);
        }
        self.apply_ops(idx, &mut ops, &mut issued, &mut queue, ctx);
        self.dispatch(queue, None, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ComponentId;
    use crate::process::Process;

    #[derive(Clone, Debug, PartialEq)]
    struct Tagged(Vec<&'static str>);
    impl Event for Tagged {
        fn kind(&self) -> &'static str {
            "tagged"
        }
    }

    /// Appends its name on the way through, in both directions.
    struct Tag(&'static str);
    impl Layer<Tagged> for Tag {
        fn name(&self) -> &'static str {
            self.0
        }
        fn on_event(
            &mut self,
            mut ev: Tagged,
            dir: Direction,
            ctx: &mut LayerContext<'_, '_, Tagged>,
        ) {
            ev.0.push(self.0);
            ctx.pass(dir, ev);
        }
    }

    /// Bottom layer: sends downward traffic to process 1, passes up inbound.
    struct Net;
    impl Layer<Tagged> for Net {
        fn name(&self) -> &'static str {
            "net"
        }
        fn on_event(
            &mut self,
            mut ev: Tagged,
            dir: Direction,
            ctx: &mut LayerContext<'_, '_, Tagged>,
        ) {
            ev.0.push("net");
            match dir {
                Direction::Down => ctx.send(ProcessId::new(1), ev),
                Direction::Up => ctx.up(ev),
            }
        }
    }

    const STACK: ComponentId = ComponentId::new(0);

    fn stack_proc() -> Process<Tagged> {
        let stack = StackBuilder::new()
            .layer(Tag("a"))
            .layer(Tag("b"))
            .layer(Net)
            .build();
        Process::builder(ProcessId::new(0))
            .with(STACK, stack)
            .build()
    }

    #[test]
    fn downward_traversal_visits_top_to_bottom() {
        let mut p = stack_proc();
        let fx = p.deliver(STACK, Tagged(vec![]), Time::ZERO);
        assert_eq!(fx.sends.len(), 1);
        assert_eq!(fx.sends[0].event.0, vec!["a", "b", "net"]);
        assert_eq!(fx.sends[0].component, STACK);
    }

    #[test]
    fn upward_traversal_visits_bottom_to_top_and_outputs() {
        let mut p = stack_proc();
        let fx = p.deliver_net(ProcessId::new(9), STACK, Tagged(vec![]), Time::ZERO);
        assert_eq!(fx.outputs.len(), 1);
        assert_eq!(fx.outputs[0].0, vec!["net", "b", "a"]);
    }

    #[test]
    fn layer_names_are_bottom_first() {
        let stack = StackBuilder::<Tagged>::new()
            .layer(Tag("top"))
            .layer(Tag("bottom"))
            .build();
        assert_eq!(stack.layer_names(), vec!["bottom", "top"]);
        assert_eq!(stack.depth(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_stack_panics() {
        let _ = StackBuilder::<Tagged>::new().build();
    }
}

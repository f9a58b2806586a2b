//! # gcs-kernel — protocol composition framework
//!
//! This crate is the Rust counterpart of the protocol composition frameworks
//! (Appia, Cactus) that the paper *A Step Towards a New Generation of Group
//! Communication Systems* (Mena, Schiper, Wojciechowski, Middleware 2003)
//! used for its two reference implementations (§5 of the paper).
//!
//! It provides:
//!
//! * [`Component`] — an event-driven protocol module with timers,
//! * [`Process`] — a component *graph* hosted by one process (the paper's
//!   Fig 9, and every stack here runs on one), each component named by a
//!   [`ComponentId`],
//! * [`View`], [`MessageClass`], [`DeliveryKind`] — the plain vocabulary in
//!   which any stack talks to an application, shared here because the
//!   stacks do not see each other,
//! * [`PositionSet`] — a bitset over the positions of a member list (who
//!   acked, who is suspected), shared by consensus and generic broadcast,
//! * [`IdRuns`] — a set of `(sender, seq)` message ids kept as per-sender
//!   runs, the seen and delivered sets of all three stacks,
//! * [`IdMap`] — values by `(sender, seq)` message id, one [`PositionLog`]
//!   per sender, the unordered pools of all three stacks (abcast's proposal
//!   pool, generic broadcast's records and hold-back, Isis's messages
//!   awaiting their order); [`PositionLog`] on its own is the baselines'
//!   ordered streams,
//! * [`fanout`] and [`ring_successors`] — how many peers, and which, a
//!   process contacts per round in a group of a given size: every peer up
//!   to [`SCALE_THRESHOLD`], about log₂ n above, for the failure detector,
//!   relay and decision echo alike,
//! * [`Input`] — what drives one dispatch step: a local request, a message
//!   from the same component on a peer, or a timer coming due,
//! * [`Effects`] — the externally visible results of a dispatch step
//!   (network sends, timer requests, application outputs), which makes every
//!   protocol sans-I/O and lets the same code run under the deterministic
//!   simulator (`gcs-sim`) or any other scheduler.
//!
//! A component has one name: its [`ComponentId`], a dense index fixed when
//! its stack builds the process. Each stack declares its ids as constants in
//! registration order, [`ProcessBuilder::with`] holds it to that order, and
//! every route — an input, an emit, a timer expiry — indexes the process's
//! component table. Between processes a component talks only to itself: a
//! send names the peer process, and the [`Envelope`] carries the sender's
//! own id, which is the same component there.
//!
//! A process is driven through two entry points: [`Process::start_into`]
//! once, then [`Process::step_into`] with one [`Input`] per step. *What*
//! drives a step is named here, once, by `Input`; a runtime decides only
//! *when* each input is handed over (the simulator by its `(time, seq)`
//! event queue, the live backend by a member thread's inbox).
//!
//! Dispatch within a process is synchronous and deterministic: an input is
//! routed to its target component; locally emitted events cascade in FIFO
//! order until quiescence; everything destined outside the process ends up in
//! the runtime's [`Effects`]. Dispatch **writes through**: the [`Context`] a
//! handler runs in borrows the process's cascade queue and timer table and
//! the runtime's `Effects`, and `emit`, `send`, `set_timer`, `output` put the
//! event where it is to wait, at once — there is no record of requested
//! actions to replay when the handler returns, and an event is moved once
//! per hop. `Context` is thereby the one choke point every event of a
//! process crosses.
//!
//! The graph is the only composition model. A linear stack in the style of
//! Ensemble or Appia (the paper's Fig 5) is a special case of it: a chain of
//! components, each built knowing the ids of the layers above and below it,
//! passing an event down with `ctx.emit(below, …)` and up with
//! `ctx.emit(above, …)`; the bottom layer sends to itself on the peer and
//! the top layer outputs (`tests/architectures.rs`, F5).
//!
//! ```
//! use gcs_kernel::{Component, ComponentId, Context, Effects, Event, Input, Process, ProcessId, Time};
//!
//! #[derive(Clone, Debug)]
//! enum Ping { Hello, World }
//! impl Event for Ping {
//!     fn kind(&self) -> &'static str {
//!         match self { Ping::Hello => "hello", Ping::World => "world" }
//!     }
//! }
//!
//! const ECHO: ComponentId = ComponentId::new(0);
//!
//! struct Echo;
//! impl Component<Ping> for Echo {
//!     fn on_event(&mut self, ev: Ping, ctx: &mut Context<'_, Ping>) {
//!         if matches!(ev, Ping::Hello) { ctx.output(Ping::World); }
//!     }
//! }
//!
//! let mut p = Process::builder(ProcessId::new(0)).with(ECHO, Echo).build();
//! let mut fx = Effects::new();
//! p.step_into(Input::Inject { component: ECHO, event: Ping::Hello }, Time::ZERO, &mut fx);
//! assert_eq!(fx.outputs.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod component;
mod event;
mod fanout;
mod group;
mod hash;
mod id_map;
mod id_runs;
mod ids;
mod payload;
mod position_log;
mod positions;
mod process;
mod smallvec;
mod time;

// Payloads enter the arena as `Bytes`; crates that only pass them through
// name the type from here instead of depending on `bytes` themselves.
pub use bytes::Bytes;
pub use component::{Component, Context};
pub use event::Event;
pub use fanout::{fanout, ring_successors, SCALE_THRESHOLD};
pub use group::{DeliveryKind, MessageClass, View};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use id_map::IdMap;
pub use id_runs::IdRuns;
pub use ids::{ComponentId, ProcessId, TimerId};
pub use payload::{PayloadArena, PayloadRef, SharedArena};
pub use position_log::PositionLog;
pub use positions::PositionSet;
pub use process::{Effects, Envelope, Input, Multicast, Process, ProcessBuilder, TimerRequest};
pub use smallvec::SmallVec;
pub use time::{Time, TimeDelta};

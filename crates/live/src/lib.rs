//! # gcs-live — the live backend: real processes, real clocks, real wire
//!
//! The simulator executes the protocol suite as a discrete-event program:
//! one thread, a virtual clock, deterministic scheduling. This crate runs
//! the **same sans-I/O kernel processes** as a concurrent system:
//!
//! * every group member is an **OS thread** running the kernel dispatch
//!   loop over an inbox;
//! * **timers are wall-clock deadlines** — each member keeps its own queue
//!   of what comes due later (its timers, bursts an emulated link delays,
//!   future injections and fault steps) and blocks on its inbox until the
//!   next of them is due;
//! * **frames cross a real wire** — in-process channels by default
//!   ([`WireMode::Channel`]), or one loopback-TCP stream per member
//!   ([`WireMode::Tcp`]) running the `gcs_net::link` frame codec;
//! * **faults are real**: a crash makes the member's thread exit (frames
//!   to it die on the wire), partitions and link changes act on the frame
//!   path itself, and finite-bandwidth links are paced by a token bucket.
//!
//! Nothing above the kernel changes: the protocol components cannot tell
//! whether a virtual scheduler or a thread is calling them — that is the
//! sans-I/O contract, and this crate is its proof. [`LiveRuntime`] is the
//! second implementation of `gcs_sim::Runtime` (the simulator's world is
//! the first), so [`LiveGroup`] is the same generic `gcs_sim::Harness` the
//! simulated groups are, and both backends sit behind one
//! `GroupTransport` implementation.
//!
//! Determinism is **not** promised here — thread interleavings and real
//! clocks vary between runs. Live assertions should be bound-based
//! ("everyone delivers within 20 s"), not fingerprint-based; the
//! simulator remains the place for bit-identical replay.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod fabric;
mod group;
mod runtime;

pub use clock::WallClock;
pub use group::{start, LiveConfig, LiveGroup};
pub use runtime::{LiveRuntime, WireMode};

//! # gcs — group communication middleware, the AB-GB architecture
//!
//! A full reproduction of *A Step Towards a New Generation of Group
//! Communication Systems* (Mena, Schiper, Wojciechowski — Middleware 2003,
//! EPFL TR IC/2003/01): the proposed architecture where **atomic broadcast
//! is the basic abstraction** and **generic broadcast replaces view
//! synchrony**, together with runnable **traditional GM-VS baselines**
//! (Isis-style and token-ring stacks) and a replication layer (active and
//! passive) on top.
//!
//! The workspace crates, re-exported here:
//!
//! * [`api`] — **the public façade**: the [`GroupTransport`] trait (one
//!   surface over all three stacks, with `supports_*` capability markers)
//!   and the [`Group`]/[`GroupBuilder`] entry point composing stack choice
//!   × topology × schedule × seed. Start here.
//! * [`kernel`] — the protocol-composition framework (Appia/Cactus
//!   counterpart): components, events, timers, and the process graph they
//!   compose into (a linear stack is a chain of components).
//! * [`sim`] — deterministic discrete-event simulator: virtual time,
//!   configurable network, fault injection, metrics, trace checking — and
//!   the one generic group harness (`Harness<S: StackDriver, R: Runtime>`)
//!   that every stack on either backend is an instance of.
//! * [`net`] — the reliable channel (acks, retransmission, FIFO,
//!   output-triggered suspicion).
//! * [`fd`] — heartbeat failure detection with independent timeout classes.
//! * [`consensus`] — Chandra-Toueg ◇S consensus.
//! * [`core`] — the new architecture itself: atomic broadcast over
//!   consensus, thrifty generic broadcast, membership above abcast,
//!   monitoring-driven exclusion.
//! * [`traditional`] — the baselines the paper compares against.
//! * [`live`] — the live backend: members as OS threads, wall-clock
//!   timers, frames over channels or loopback TCP — select it with
//!   `Group::builder().backend(Backend::Live)`.
//! * [`replication`] — active (state machine) and passive (primary-backup)
//!   replication, generic over [`GroupTransport`] so the same service runs
//!   on any stack.
//!
//! ## Quickstart
//!
//! ```
//! use gcs::{Group, GroupTransport, StackKind};
//! use gcs::kernel::{ProcessId, Time};
//!
//! // Three replicas of the new architecture on a simulated LAN; swap
//! // `StackKind::Isis` or `StackKind::Token` in to compare baselines.
//! let mut group = Group::builder()
//!     .members(3)
//!     .stack(StackKind::NewArch)
//!     .seed(42)
//!     .build();
//! group.abcast_at(Time::from_millis(1), ProcessId::new(0), b"m1".to_vec());
//! group.abcast_at(Time::from_millis(1), ProcessId::new(2), b"m2".to_vec());
//! group.run_until(Time::from_millis(500));
//!
//! // Same messages, same order, at every replica.
//! let delivered = group.adelivered_payloads();
//! assert_eq!(delivered[0], delivered[1]);
//! assert_eq!(delivered[1], delivered[2]);
//!
//! // A live group never quiesces (heartbeats re-arm forever), so
//! // `run_to_quiescence` reports `false` — see its docs.
//! assert!(!group.run_to_quiescence(Time::from_secs(1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gcs_api as api;
pub use gcs_consensus as consensus;
pub use gcs_core as core;
pub use gcs_fd as fd;
pub use gcs_kernel as kernel;
pub use gcs_live as live;
pub use gcs_net as net;
pub use gcs_replication as replication;
pub use gcs_sim as sim;
pub use gcs_traditional as traditional;

pub use gcs_api::{
    Backend, Group, GroupBuilder, GroupTransport, InvariantChecker, InvariantKind, OracleReport,
    StackKind, TransportDelivery, Violation,
};

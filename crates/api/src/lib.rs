//! # gcs-api — one façade over one harness
//!
//! The public entry point of the group-communication workspace. Three
//! protocol stacks (the paper's new architecture and the Isis and
//! token-ring GM-VS baselines) on two backends (deterministic simulator,
//! threaded live runtime) are **one** generic harness underneath —
//! `gcs_sim::Harness<S, R>` over a `StackDriver` (what differs per stack:
//! build a process, encode an operation, project a traced event) and a
//! `Runtime` (what differs per backend: scheduling and faults); the
//! contract between the three is written down in the `gcs_sim::harness`
//! module docs. This crate adds what an application touches:
//!
//! * [`GroupTransport`] (re-exported from `gcs-sim`, where its single
//!   implementation lives) — the workload, membership, control and
//!   observation surface, a required core of 21 methods with everything
//!   else provided over it;
//! * [`Group`] / [`GroupBuilder`] — compose stack choice × backend ×
//!   topology × schedule × seed in one place and get back a handle with the
//!   stack and backend types erased;
//! * [`InvariantChecker`] (re-exported from `gcs-sim`, beside the types it
//!   reads, so the stacks' own unit tests reach it too) — the
//!   protocol-invariant oracle and the workspace's one property checker,
//!   fed from one [observation pass](GroupTransport::observe) and judging
//!   generic deliveries by the group's own
//!   [conflict relation](GroupTransport::conflicts).
//!
//! ```
//! use gcs_api::{Group, GroupTransport, StackKind};
//! use gcs_kernel::{ProcessId, Time};
//! use gcs_sim::Topology;
//!
//! // The same workload on the new architecture over a 3-region WAN…
//! let mut group = Group::builder()
//!     .members(9)
//!     .stack(StackKind::NewArch)
//!     .topology(Topology::wan_3region())
//!     .seed(7)
//!     .build();
//! group.abcast_at(Time::from_millis(1), ProcessId::new(0), b"m".to_vec());
//! group.run_until(Time::from_secs(2));
//! assert_eq!(group.adelivered_payloads()[0].len(), 1);
//!
//! // …and on the Isis baseline, through the same trait surface.
//! let mut isis = Group::builder().members(3).stack(StackKind::Isis).seed(7).build();
//! isis.abcast_at(Time::from_millis(1), ProcessId::new(0), b"m".to_vec());
//! isis.run_until(Time::from_secs(1));
//! assert!(!isis.supports_gbcast()); // pick-your-services: Isis has no GB
//! ```
//!
//! Services a stack does not provide are visible through the trait's
//! `supports_*` capability markers — the paper's pick-your-services
//! modularity reflected in the API. A marker reads `false` exactly when the
//! stack's driver has no encoder for the operation, so marker and behaviour
//! cannot disagree.
//!
//! Every output of a run is read the same way on every stack and backend:
//! through the one [observation pass](GroupTransport::observe), in the
//! neutral [`Observation`] vocabulary. What only some stacks produce has a
//! neutral name too, and reads empty elsewhere: Isis's send-blocking
//! windows ([`GroupTransport::blocked_windows`]) and its kills and
//! re-joins ([`GroupTransport::resets`], [`GroupTransport::rejoins`]).
//!
//! ## Backends: simulated and live
//!
//! The same facade runs on two execution backends, selected with
//! [`GroupBuilder::backend`]. The default, [`Backend::Sim`], is the
//! deterministic discrete-event simulator: virtual time, bit-identical
//! replay under a fixed seed. [`Backend::Live`] hosts the identical
//! protocol stacks on the `gcs-live` runtime — every member an OS thread,
//! timers real wall-clock deadlines, frames crossing in-process channels
//! or loopback TCP ([`WireMode`]) — so `Time` means real nanoseconds since
//! the group started and assertions must be bound-based ("delivered within
//! 10 s"), never fingerprint-based:
//!
//! ```
//! use gcs_api::{Backend, Group, GroupTransport};
//! use gcs_kernel::{ProcessId, Time, TimeDelta};
//!
//! let mut group = Group::builder()
//!     .members(3)
//!     .backend(Backend::Live)
//!     .build();
//! group.abcast_at(Time::ZERO, ProcessId::new(0), b"m1".to_vec());
//! let deadline = Time::from_secs(20);
//! while group.delivery_count() < 3 && group.now() < deadline {
//!     let next = group.now() + TimeDelta::from_millis(5);
//!     group.run_until(next);
//! }
//! assert_eq!(group.delivery_count(), 3); // every member delivered m1
//! ```
//!
//! ## Backpressure
//!
//! On any stack, [`GroupBuilder::abcast_capacity`] bounds each sender's
//! pending queue so the `try_abcast_*` entry points refuse with
//! [`Backpressure`] instead of queueing without limit.
//!
//! The refusal paths differ in cost, and the difference is a contract:
//! [`GroupTransport::try_abcast_build_at`] checks capacity **before the
//! payload is interned** — a refused offer allocates nothing and leaves no
//! arena slot behind, so an open-loop producer can shed load at arbitrary
//! rates without touching the payload plane. The `impl Into<Bytes>`
//! convenience [`GroupTransport::try_abcast_at`] must consume its argument
//! and therefore interns first; high-rate shedding drivers should use the
//! build form. Example:
//!
//! ```
//! use gcs_api::{Group, GroupTransport};
//! use gcs_kernel::{ProcessId, Time};
//!
//! let mut group = Group::builder().members(3).abcast_capacity(64).seed(7).build();
//! let mut accepted = 0u32;
//! for i in 0..80u32 {
//!     // An open-loop producer sheds load the group refuses.
//!     if group
//!         .try_abcast_at(Time::from_millis(1), ProcessId::new(0), vec![i as u8])
//!         .is_ok()
//!     {
//!         accepted += 1;
//!     }
//! }
//! assert_eq!(accepted, 64); // the rest hit the queue bound
//! assert!(group.queue_high_water() <= 64);
//! group.run_until(Time::from_secs(2));
//! assert_eq!(group.adelivered_payloads()[0].len(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod group;

pub use gcs_live::{LiveGroup, WireMode};
pub use gcs_sim::{
    Backpressure, Capabilities, GroupTransport, InvariantChecker, InvariantKind, Observation,
    OracleReport, StackKind, TransportDelivery, Violation, MAX_VIOLATIONS,
};
pub use group::{Backend, Group, GroupBuilder};

//! # gcs-sim — deterministic discrete-event simulation substrate
//!
//! The paper evaluated its architecture on a LAN testbed; this crate is the
//! substitution documented in DESIGN.md: a deterministic discrete-event
//! simulator that hosts [`gcs_kernel::Process`] component graphs and models
//! the network between them.
//!
//! Key properties:
//!
//! * **Determinism** — given the same seed, topology and workload, a run is
//!   reproducible bit-for-bit; the event queue breaks time ties by a
//!   monotonically increasing sequence number and all randomness comes from
//!   one seeded PRNG sampled in event order.
//! * **Configurable network** — region-based WAN [`Topology`]s (directed
//!   latency matrices, asymmetric and lossy links, per-link bandwidth so
//!   large payloads pay serialization delay), per-pair overrides, plus
//!   scheduled partitions, delay spikes (the false-suspicion generator of
//!   experiment E3) and loss bursts.
//! * **Fault injection** — scripted [`Schedule`]s of crashes, partitions,
//!   link changes and membership churn; crashed processes silently stop,
//!   exactly the crash-stop model of the paper.
//! * **Observability** — per-kind message/byte counters ([`Metrics`]), a
//!   full application-delivery [`Trace`], and the protocol-invariant oracle
//!   ([`InvariantChecker`]) that judges every run from one observation pass
//!   (total order, conflict order, agreement, view synchrony, …).
//!
//! It is also the lowest crate that sees everything a group harness needs
//! ([`Schedule`], [`Metrics`], [`Trace`], the kernel) while being seen
//! by every stack and by the live backend, so the one generic [`Harness`],
//! its [`StackDriver`] × [`Runtime`] contract and the [`GroupTransport`]
//! surface live here; `gcs-api` re-exports the surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
mod metrics;
mod network;
mod oracle;
mod schedule;
mod topology;
mod trace;
mod transport;
mod wheel;
mod world;

pub use harness::{Harness, Op, Runtime, StackDriver};
pub use metrics::{LatencyHistogram, Metrics};
pub use network::{LinkModel, NetworkModel};
pub use oracle::{InvariantChecker, InvariantKind, OracleReport, Violation, MAX_VIOLATIONS};
pub use schedule::{Schedule, ScheduleAction};
pub use topology::{Assignment, Topology, TOPOLOGY_PRESETS};
pub use trace::{Trace, TraceEntry};
pub use transport::{
    Backpressure, Capabilities, GroupTransport, Observation, StackKind, TransportDelivery,
};
pub use wheel::{Scheduled, TimingWheel, WheelItem};
pub use world::{SimConfig, SimWorld};

//! # gcs-consensus — the consensus component (Fig 9, bottom of the stack)
//!
//! The paper's key architectural move (§3.1.1) is to base atomic broadcast on
//! an algorithm that needs only an *unreliable* failure detector — Chandra &
//! Toueg's ◇S rotating-coordinator consensus \[10\] — instead of the perfect
//! failure detector that traditional architectures emulate by killing
//! suspected processes. This crate provides:
//!
//! * [`CtConsensus`] — one instance of the Chandra-Toueg algorithm,
//!   tolerating `f < n/2` crashes, sans-I/O;
//! * [`ConsensusManager`] — the repeated-consensus service used by atomic
//!   broadcast, one instance at a time: instance creation, decision
//!   caching, catch-up replies for processes that lag behind, parking of
//!   traffic for instances not opened yet, and the relay of a learned
//!   decision while its sender is suspected.
//!
//! The contract between the stack and this crate is Chandra-Toueg's own:
//! the manager opens each instance with a designated round-0 coordinator,
//! asks it for catch-up pulls, the echo relay and seeded suspicions, and
//! builds its `Decide` itself; the core's wire event carries [`CtMsg`]; and
//! [`Value::claimed_by`] is Chandra-Toueg's round-≥1 rule. Another
//! algorithm would need every one of those hooks, so there is no consensus
//! trait. `repro a1` prints what a decision costs here, failure-free and
//! past a crashed coordinator.
//!
//! Messages must be exchanged over reliable FIFO channels
//! (`gcs-net`'s [`ReliableChannel`](../gcs_net/struct.ReliableChannel.html)
//! in the full stack); suspicions come from any ◇S-compatible source
//! (`gcs-fd` in the full stack).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chandra_toueg;
mod manager;

pub use chandra_toueg::{CtConsensus, CtMsg, CtOut};
pub use manager::{ConsensusManager, InstanceId, ManagerOut};

use gcs_kernel::ProcessId;

/// The trait a consensus value must satisfy.
pub trait Value: Clone + Eq + std::fmt::Debug + 'static {
    /// What `coordinator` proposes in a round `≥ 1` after picking `self`
    /// from a majority of estimates nobody had adopted (all stamped 0): no
    /// value can have been decided yet, so any value is safe to propose
    /// (see [`CtConsensus`]). The default proposes the pick unchanged;
    /// atomic broadcast's proposal names the coordinator in it.
    fn claimed_by(self, coordinator: ProcessId) -> Self {
        let _ = coordinator;
        self
    }
}

impl Value for u32 {}

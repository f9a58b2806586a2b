//! # gcs-core — the paper's new group-communication architecture (AB-GB)
//!
//! This crate implements the full architecture of Fig 9 of *A Step Towards a
//! New Generation of Group Communication Systems* (Mena, Schiper,
//! Wojciechowski, Middleware 2003):
//!
//! * **Atomic broadcast is the basic component** (not group membership): the
//!   Chandra-Toueg reduction to a sequence of consensus instances
//!   ([`abcast`]), which needs only a ◇S failure detector and never blocks
//!   on crashes while `f < n/2` (§3.1.1).
//! * **There is no view-synchrony component**: its role is played by
//!   **generic broadcast** ([`generic`]) with an application-defined
//!   conflict relation; atomic broadcast is invoked only when conflicting
//!   messages actually race (the *thrifty* property, §3.2).
//! * **Group membership sits on top of atomic broadcast** ([`membership`]):
//!   joins and removals are ordinary ordered messages, giving view agreement
//!   and *same view delivery* with zero send-blocking (§4.4).
//! * **Failure detection is decoupled from membership** ([`gcs_fd`]) and
//!   exclusion decisions belong to a separate **monitoring** component
//!   ([`monitoring`]) fed by two independent suspicion sources: long-timeout
//!   FD suspicions and the reliable channel's output-triggered suspicions
//!   (§3.3.2).
//!
//! The quickest way in is [`GroupSim`] — the generic
//! [`Harness`](gcs_sim::Harness) running this crate's [`NewArchDriver`] on
//! the simulator:
//!
//! ```
//! use gcs_core::{GroupSim, StackConfig};
//! use gcs_kernel::{ProcessId, Time};
//! use gcs_sim::GroupTransport;
//!
//! let mut group = GroupSim::new(3, StackConfig::default(), 7);
//! group.abcast_at(Time::from_millis(1), ProcessId::new(1), b"m1".to_vec());
//! group.abcast_at(Time::from_millis(1), ProcessId::new(2), b"m2".to_vec());
//! group.run_until(Time::from_millis(500));
//! let seqs = group.adelivered_payloads();
//! assert_eq!(seqs[0].len(), 2);
//! assert_eq!(seqs[0], seqs[1]);
//! assert_eq!(seqs[1], seqs[2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abcast;
pub mod components;
pub mod generic;
pub mod membership;
pub mod monitoring;
mod rbcast;
mod stack;
mod types;

pub use rbcast::Rbcast;
pub use stack::{build_process, GroupSim, NewArchDriver, StackConfig};
pub use types::{
    AbMsg, AckEpoch, Batch, Body, ConflictRelation, Delivery, DeliveryKind, Ev, GbMsg, MbMsg,
    Message, MessageClass, MonMsg, MsgId, Proposal, SnapshotData, View, WireMsg,
};

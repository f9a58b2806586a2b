//! # gcs-traditional — the GM-VS baselines (paper §2)
//!
//! The traditional architecture the paper argues against: **group membership
//! and view synchrony are the basic components**, atomic broadcast sits on
//! top of them, and the failure detector is fused into the membership
//! service, which emulates a *perfect* failure detector by excluding (and in
//! Isis killing) every suspected process.
//!
//! [`isis`] implements the Isis/Phoenix family (Figs 1–2): heartbeat failure
//! detection integrated with a coordinator-driven membership, a **flush**
//! protocol providing view synchrony with *sending view delivery* — senders
//! are blocked for the whole view change (§4.4) — and atomic broadcast by a
//! fixed sequencer (the view head). A wrongly excluded process is killed and
//! must re-join with a full state transfer (§4.3's false-suspicion cost).
//!
//! [`token`] implements the RMP/Totem family (Figs 3–4): a rotating token
//! carries the global sequence; token loss triggers a ring reformation and
//! recovery.
//!
//! Each stack is a [`StackDriver`](gcs_sim::StackDriver) ([`IsisDriver`],
//! [`TokenDriver`]) for the one generic [`Harness`](gcs_sim::Harness), so
//! experiments swap architectures by swapping a type parameter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod isis;
pub mod token;

pub use isis::{IsisConfig, IsisDriver, IsisEvent, IsisSim, NewViewData};
pub use token::{NewRingData, TokenConfig, TokenDriver, TokenEvent, TokenSim};

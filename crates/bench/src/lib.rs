//! # gcs-bench — the experiment harness
//!
//! The paper is an architecture paper: its evaluation (Section 4) consists
//! of four qualitative claims. This crate quantifies each claim by running
//! the **new architecture** (`gcs-core`) and the **traditional baselines**
//! (`gcs-traditional`) on identical simulated workloads and reporting
//! virtual-time latencies and message counts. See DESIGN.md §3 for the full
//! experiment index and EXPERIMENTS.md for recorded results.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p gcs-bench --release --bin repro -- all
//! ```
//!
//! Wall-clock performance is not measured here: `bash benchmark/run.sh`
//! (see `BENCHMARK.json`) is the one perf entry point.

// `deny` instead of `forbid`: the allocation-counter module needs one
// carefully scoped `unsafe impl GlobalAlloc` (see `alloccount`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloccount;
pub mod experiments;
pub mod scenario;
pub mod workload;

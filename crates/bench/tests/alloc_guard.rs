//! Alloc-regression guard: steady-state allocations per adelivery (abcast)
//! and per g-delivery (conflict-free generic broadcast) must stay under
//! committed budgets.
//!
//! This test binary installs the counting global allocator itself (a
//! `#[global_allocator]` must live in the final crate, and integration
//! tests are their own crates), so it holds exactly one test, which measures
//! its workloads one after the other: concurrent tests in the same binary
//! would pollute the process-global counters.

use gcs_bench::alloccount::CountingAlloc;
use gcs_bench::perf;

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// The committed budget. History of the tracked metric:
///
/// * pre-PR-3 baseline: **33.4** allocs/adelivery
/// * PR 3 (arena-backed payload handles + scratch-buffer dispatch): **15.0**
/// * PR 8 (pipelining window bookkeeping): **17.15**, budget 20.0
/// * PR 15 (failure-free abcast = one diffusion, one proposal, one ack, one
///   decision — no estimate, no relay, no echo): **13.80** (13.56 after
///   PR 21's per-sender id runs)
/// * PR 23 (one `ab/data` to the coordinator instead of n−1 to everyone):
///   **13.47** — three of four copies are gone, but a member that holds no
///   copy now opens the instance when the proposal arrives (a buffered
///   consensus message and an empty batch), which costs about what pooling
///   the copy did
///
/// The budget is the last measurement plus 15 % headroom for toolchain
/// noise; a breach means a change re-introduced per-delivery allocations
/// on the abcast hot path (per-call output `Vec`s, batch copies, payload
/// clones) — or messages: every wire message costs allocations, so an
/// eager relay or the all-members diffusion coming back shows here too.
const BUDGET_ALLOCS_PER_ADELIVERY: f64 = 15.5;

/// The committed budget of the generic fast path (`allocs gbcast`: 200
/// conflict-free 64 B g-broadcasts, n = 5). History:
///
/// * PR 16 and before (every first copy relayed, a separate ack from the
///   origin, a `BTreeSet` of ack senders per message): **2.54**
/// * PR 17 (n−1 `gb/data` + (n−1)² `gb/ack` per op, ack senders as a bitset):
///   **1.33**
///
/// Measured plus 15 %, as above; an eager relay or a per-message set coming
/// back breaches it.
const BUDGET_ALLOCS_PER_GDELIVERY: f64 = 1.53;

#[test]
fn steady_state_allocs_per_delivery_stay_under_budget() {
    let m = perf::measure_allocs("abcast_steady/5", perf::abcast_steady_5_stats);
    assert!(m.deliveries >= 100, "workload delivered: {m:?}");
    let per_delivery = m.allocs_per_delivery();
    assert!(
        per_delivery <= BUDGET_ALLOCS_PER_ADELIVERY,
        "abcast steady state allocates {per_delivery:.2} per adelivery \
         (budget {BUDGET_ALLOCS_PER_ADELIVERY}); the zero-copy message plane regressed: {m:?}"
    );

    let m = perf::measure_allocs("gbcast_steady/5", perf::gbcast_steady_5_stats);
    let per_delivery = m.allocs_per_delivery();
    assert!(
        per_delivery <= BUDGET_ALLOCS_PER_GDELIVERY,
        "the generic fast path allocates {per_delivery:.2} per g-delivery \
         (budget {BUDGET_ALLOCS_PER_GDELIVERY}): {m:?}"
    );
}

//! Alloc-regression guard: steady-state allocations per adelivery (abcast)
//! and per g-delivery (conflict-free generic broadcast) must stay under
//! committed budgets, and a `gb/ack` packet — the most frequent wire message
//! of the generic fast path — must cost none at all.
//!
//! This test binary installs the counting global allocator itself (a
//! `#[global_allocator]` must live in the final crate, and integration
//! tests are their own crates), so it holds exactly one test, which measures
//! its workloads one after the other: concurrent tests in the same binary
//! would pollute the process-global counters.

use gcs_bench::alloccount::{self, snapshot, CountingAlloc};
use gcs_core::components::names;
use gcs_core::{build_process, Body, Ev, GbMsg, Message, MessageClass, MsgId, StackConfig};
use gcs_core::{View, WireMsg};
use gcs_kernel::{Effects, PayloadRef, ProcessId, Time};
use gcs_net::Packet;

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
/// * PR 24 (reliable-channel peer sets as bitsets — no tree node per peer
///   with data in flight): **13.21**
/// * PR 26 (per consensus instance: the participant list shared instead of
///   copied, running instances in a reused `Vec` instead of a map, the
///   coordinated round and the acker and suspicion sets inline, abcast's
///   outstanding proposals in a window ring holding the proposed batch):
///   **10.45**
///
/// The budget is the last measurement plus 15 % headroom for toolchain
/// noise; a breach means a change re-introduced per-delivery allocations
/// on the abcast hot path (per-call output `Vec`s, batch copies, payload
/// clones) — or messages: every wire message costs allocations, so an
/// eager relay or the all-members diffusion coming back shows here too.
const BUDGET_ALLOCS_PER_ADELIVERY: f64 = 12.0;

/// The committed budget of the generic fast path (`allocs gbcast`: 200
/// conflict-free 64 B g-broadcasts, n = 5). History:
///
/// * PR 16 and before (every first copy relayed, a separate ack from the
///   origin, a `BTreeSet` of ack senders per message): **2.54**
/// * PR 17 (n−1 `gb/data` + (n−1)² `gb/ack` per op, ack senders as a bitset):
///   **1.33** (1.28 after PR 21's per-sender id runs)
/// * PR 24 (one record per message in flight and a plain list of the acked
///   instead of three maps' nodes, peer bitsets in the reliable channel):
///   **1.09**
///
/// Measured plus 15 %, as above; an eager relay or a per-message set coming
/// back breaches it.
const BUDGET_ALLOCS_PER_GDELIVERY: f64 = 1.25;

/// Allocations of a warmed-up new-architecture process (p0 of n = 5) over
/// 1,000 `gb/ack` packets, and the g-deliveries they triggered. The packets
/// are the acks of p2, p3 and p4 for messages of p1 that p0 already holds:
/// each crosses the reliable channel, the kernel cascade and the generic
/// core, and every second of three completes a fast quorum.
fn gb_ack_packets() -> (u64, usize) {
    let members: Vec<ProcessId> = (0..5).map(ProcessId::new).collect();
    let view = View::initial(members.clone());
    let mut p0 = build_process(members[0], &StackConfig::default(), Some(view), 5);
    let mut fx = Effects::new();
    p0.start_into(Time::ZERO, &mut fx);

    let mut rc_seq = [0u64; 5];
    // Hands p0 one packet; returns how many g-deliveries it caused.
    let mut receive = |from: usize, msg: GbMsg| -> usize {
        let packet = Packet::Data {
            seq: rc_seq[from],
            ack: 0,
            msg: WireMsg::Gb(msg),
        };
        rc_seq[from] += 1;
        fx.clear();
        p0.deliver_net_into(
            members[from],
            names::RC,
            Ev::Packet(packet),
            Time::ZERO,
            &mut fx,
        );
        fx.outputs.len()
    };
    let id = |seq| MsgId {
        sender: members[1],
        seq,
    };
    let (warm_up, measured) = (66, 334);
    for seq in 0..warm_up + measured {
        let message = Message {
            id: id(seq),
            class: MessageClass::RBCAST,
            body: Body::App(PayloadRef::EMPTY),
        };
        receive(1, GbMsg::data(message, Some(0)));
    }
    // The acks of p2, p3, p4 for each message in turn.
    let acks = |seqs: std::ops::Range<u64>| {
        let ack = |seq| GbMsg::Ack {
            epoch: 0,
            id: id(seq),
        };
        seqs.flat_map(move |seq| [2, 3, 4].map(|from| (from, ack(seq))))
    };
    for (from, ack) in acks(0..warm_up) {
        receive(from, ack);
    }
    let before = snapshot();
    let deliveries = acks(warm_up..warm_up + measured)
        .take(1_000)
        .map(|(from, ack)| receive(from, ack))
        .sum();
    (snapshot().since(before).allocs, deliveries)
}

#[test]
fn steady_state_allocs_per_delivery_stay_under_budget() {
    let m = alloccount::measure_allocs("abcast_steady/5", alloccount::abcast_steady_5_stats);
    assert!(m.deliveries >= 100, "workload delivered: {m:?}");
    let per_delivery = m.allocs_per_delivery();
    assert!(
        per_delivery <= BUDGET_ALLOCS_PER_ADELIVERY,
        "abcast steady state allocates {per_delivery:.2} per adelivery \
         (budget {BUDGET_ALLOCS_PER_ADELIVERY}); the zero-copy message plane regressed: {m:?}"
    );

    let m = alloccount::measure_allocs("gbcast_steady/5", alloccount::gbcast_steady_5_stats);
    let per_delivery = m.allocs_per_delivery();
    assert!(
        per_delivery <= BUDGET_ALLOCS_PER_GDELIVERY,
        "the generic fast path allocates {per_delivery:.2} per g-delivery \
         (budget {BUDGET_ALLOCS_PER_GDELIVERY}): {m:?}"
    );

    let (allocs, deliveries) = gb_ack_packets();
    assert_eq!(deliveries, 333, "two acks in three are the quorum's last");
    assert_eq!(
        allocs, 0,
        "1,000 gb/ack packets at a warmed-up process allocated {allocs} times: an output \
         buffer is returned by value again, or a per-message set came back"
    );
}

//! Alloc-regression guard: steady-state allocations per adelivery (abcast),
//! per g-delivery (conflict-free generic broadcast) and per delivery of the
//! Isis and token-ring baselines must stay under committed budgets; a `gb/ack` packet — the most frequent wire message of
//! the generic fast path — must cost none at all; and a warmed-up
//! failure-free consensus instance must cost a non-coordinator nothing and
//! its coordinator no more than the batch it proposes.
//!
//! This test binary installs the counting global allocator itself (a
//! `#[global_allocator]` must live in the final crate, and integration
//! tests are their own crates), so it holds exactly one test, which measures
//! its workloads one after the other: concurrent tests in the same binary
//! would pollute the process-global counters.

use std::collections::VecDeque;

use gcs_bench::alloccount::{self, snapshot, CountingAlloc};
use gcs_core::components::ids;
use gcs_core::{build_process, Body, Ev, GbMsg, Message, MessageClass, MsgId, StackConfig};
use gcs_core::{View, WireMsg};
use gcs_kernel::{Effects, Envelope, Input, PayloadRef, Process, ProcessId, Time};
use gcs_net::Packet;

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// The committed budgets of atomic broadcast on the new architecture, per
/// adelivery, at n = 5 and n = 3. History of the tracked metric:
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
/// Those figures divide a whole 20-op run, building the group and 300 ms
/// of mostly idle time included, by its 100 deliveries. From here on the
/// metric is a window: 250 ms of 2,000 ops/s after a 100 ms warm-up, the
/// benchmark's `sim-steady` shape (`allocs abcast`). On that window the
/// code of the last entry above reads **1.42** at n = 5 and **0.68** at
/// n = 3 (7.10 and 2.03 per op), and then:
///
/// * the decision cache and the decided batches in instance rings, the
///   requested instances as one watermark, early consensus traffic in one
///   flat buffer, one shared empty batch, settled batches refilled in
///   place, and bundle buffers that go round from receivers to bundlers:
///   **0.121** at n = 5 and **0.196** at n = 3 (0.60 and 0.59 per op) —
///   what is left is the coordinator's batch, one per instance, and the
///   simulator's event wheel, delivery trace and decision cache growing
///
/// Each budget is the last measurement plus 15 % headroom for toolchain
/// noise, rounded up to the hundredth; a breach means a change
/// re-introduced per-instance or per-delivery allocations on the abcast
/// hot path (per-call output `Vec`s, maps with a node per instance, batch
/// copies, payload clones) — or messages: every wire message costs
/// allocations, so an eager relay or the all-members diffusion coming back
/// shows here too.
const BUDGET_ALLOCS_PER_ADELIVERY: [(usize, f64); 2] = [(5, 0.14), (3, 0.23)];

/// The committed budget of the generic fast path (`allocs gbcast`:
/// conflict-free 64 B g-broadcasts at 2,000 ops/s, n = 5). History:
///
/// * PR 16 and before (every first copy relayed, a separate ack from the
///   origin, a `BTreeSet` of ack senders per message): **2.54**
/// * PR 17 (n−1 `gb/data` + (n−1)² `gb/ack` per op, ack senders as a bitset):
///   **1.33** (1.28 after PR 21's per-sender id runs)
/// * PR 24 (one record per message in flight and a plain list of the acked
///   instead of three maps' nodes, peer bitsets in the reliable channel):
///   **1.09**
/// * the window measurement above instead of a whole 200-op run: **0.018**
///   (the build and warm-up were most of the old figure)
///
/// Measured plus 15 %, rounded up to the hundredth, as above; an eager
/// relay or a per-message set coming back breaches it.
const BUDGET_ALLOCS_PER_GDELIVERY: f64 = 0.03;

/// The committed budgets of the two baselines' atomic broadcast (`allocs
/// isis`, `allocs token`: the window above at n = 5), per delivery.
/// History:
///
/// * before the guard covered them (ordering state in trees and SipHash
///   sets: Isis's order queue and log, repair archive and delivered set,
///   the token ring's sequenced messages): **0.256** for Isis and
///   **0.178** for token (1.28 and 0.89 per op)
/// * ordered streams as logs indexed by position and the delivered set as
///   per-sender id runs: **0.086** and **0.015** (0.43 and 0.08 per op) —
///   what is left is mostly the simulator's wheel and delivery trace, and
///   for Isis the id-ordered map of messages awaiting their order
///
/// Measured plus 15 %, rounded up to the hundredth, as above; a map or set
/// with a node per message coming back on either delivery path breaches it.
const BUDGET_BASELINE_ALLOCS_PER_DELIVERY: [(&str, f64); 2] = [("isis/5", 0.10), ("token/5", 0.02)];

/// Allocations of a warmed-up new-architecture process (p0 of n = 5) over
/// 1,000 `gb/ack` packets, and the g-deliveries they triggered. The packets
/// are the acks of p2, p3 and p4 for messages of p1 that p0 already holds:
/// each crosses the reliable channel, the kernel cascade and the generic
/// core, and every second of three completes a fast quorum.
fn gb_ack_packets() -> (u64, usize) {
    let members: Vec<ProcessId> = (0..5).map(ProcessId::new).collect();
    let view = View::initial(members.clone());
    let mut p0 = build_process(members[0], &StackConfig::default(), Some(view));
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
        let input = Input::Net {
            from: members[from],
            component: ids::RC,
            event: Ev::Packet(packet),
        };
        p0.step_into(input, Time::ZERO, &mut fx);
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

/// `n` new-architecture processes with no simulator in between: the test
/// hands every message to its destination itself, in send order, and
/// counts the allocations of each step.
struct Lockstep {
    procs: Vec<Process<Ev>>,
    queue: VecDeque<Envelope<Ev>>,
    fx: Effects<Ev>,
}

/// What a step cost: allocations, batches delivered, and whether it took a
/// `[Decide(k), Propose(k+1)]` bundle.
struct Step {
    allocs: u64,
    delivered: usize,
    bundle: bool,
}

impl Lockstep {
    fn new(n: usize) -> Self {
        let members: Vec<ProcessId> = (0..n as u32).map(ProcessId::new).collect();
        let view = View::initial(members.clone());
        let procs = members
            .iter()
            .map(|&p| build_process(p, &StackConfig::default(), Some(view.clone())))
            .collect();
        let mut net = Lockstep {
            procs,
            queue: VecDeque::new(),
            fx: Effects::new(),
        };
        for p in 0..n {
            net.step(p, |proc, fx| proc.start_into(Time::ZERO, fx));
        }
        net
    }

    /// Runs one step of process `p`; what it sends joins the queue.
    fn step(&mut self, p: usize, run: impl FnOnce(&mut Process<Ev>, &mut Effects<Ev>)) -> Step {
        self.fx.clear();
        let before = snapshot();
        run(&mut self.procs[p], &mut self.fx);
        let allocs = snapshot().since(before).allocs;
        let delivered = self
            .fx
            .outputs
            .iter()
            .filter(|e| matches!(e, Ev::Deliver(_)))
            .count();
        self.queue.extend(self.fx.sends.drain());
        Step {
            allocs,
            delivered,
            bundle: false,
        }
    }

    /// p0 a-broadcasts an empty message.
    fn abcast_at_p0(&mut self) -> Step {
        self.step(0, |proc, fx| {
            let op = Input::Inject {
                component: ids::ABCAST,
                event: Ev::Abcast(PayloadRef::EMPTY),
            };
            proc.step_into(op, Time::ZERO, fx);
        })
    }

    /// Delivers everything queued now (not what that sends in turn).
    fn deliver_queued(&mut self) -> Vec<(usize, Step)> {
        let mut steps = Vec::new();
        for _ in 0..self.queue.len() {
            let e = self.queue.pop_front().expect("counted");
            let bundle = matches!(
                &e.event,
                Ev::Packet(Packet::Batch { msgs, fresh: true, .. })
                    if msgs.iter().map(|(_, m)| m.kind()).eq(["ct/decide", "ct/propose"])
            );
            let to = e.to.index();
            let input = Input::Net {
                from: e.from,
                component: e.component,
                event: e.event,
            };
            let mut step = self.step(to, |proc, fx| proc.step_into(input, Time::ZERO, fx));
            step.bundle = bundle;
            steps.push((to, step));
        }
        steps
    }
}

/// What a warmed-up failure-free instance costs, at n = `n`, over 1,000
/// instances after 1,100 of warm-up (the decision cache fills its window of
/// 1,024 instances there). p0 coordinates every instance and gets one op
/// ahead of each: it a-broadcasts, then takes the acks of instance k, so it
/// decides k and proposes k+1 in one step and every participant still owed
/// the decision gets `[Decide(k), Propose(k+1)]` in one packet. The others
/// have nothing of their own to order.
///
/// Returns p0's allocations per instance, and the allocations of every
/// other process's steps, the bundles they took and the batches they
/// delivered.
fn warm_instances(n: usize) -> (f64, u64, usize, usize) {
    let (warm_up, measured) = (1_100, 1_000);
    let mut net = Lockstep::new(n);
    net.abcast_at_p0();
    net.deliver_queued();
    let (mut coordinator, mut others, mut bundles, mut delivered) = (0, 0, 0, 0);
    for instance in 0..warm_up + measured {
        let mut steps = vec![(0, net.abcast_at_p0())];
        steps.extend(net.deliver_queued()); // the acks, at p0
        steps.extend(net.deliver_queued()); // its decision and next proposal
        if instance < warm_up {
            continue;
        }
        for (p, step) in steps {
            if p == 0 {
                coordinator += step.allocs;
            } else {
                others += step.allocs;
                bundles += usize::from(step.bundle);
                delivered += step.delivered;
            }
        }
    }
    (
        coordinator as f64 / measured as f64,
        others,
        bundles,
        delivered,
    )
}

#[test]
fn steady_state_allocs_per_delivery_stay_under_budget() {
    for (members, budget) in BUDGET_ALLOCS_PER_ADELIVERY {
        let w = alloccount::WORKLOADS
            .iter()
            .find(|w| !w.generic && w.members == members && w.name.starts_with("abcast"))
            .expect("an abcast workload per budget");
        let m = alloccount::measure(w);
        assert!(m.deliveries >= 1_000, "workload delivered: {m:?}");
        let per_delivery = m.allocs_per_delivery();
        assert!(
            per_delivery <= budget,
            "abcast at n = {members} allocates {per_delivery:.3} per adelivery (budget {budget}); \
             the zero-copy message plane or the per-instance bookkeeping regressed: {m:?}"
        );
    }

    let gbcast = alloccount::WORKLOADS
        .iter()
        .find(|w| w.generic)
        .expect("the generic workload");
    let m = alloccount::measure(gbcast);
    let per_delivery = m.allocs_per_delivery();
    assert!(
        per_delivery <= BUDGET_ALLOCS_PER_GDELIVERY,
        "the generic fast path allocates {per_delivery:.3} per g-delivery \
         (budget {BUDGET_ALLOCS_PER_GDELIVERY}): {m:?}"
    );

    for (name, budget) in BUDGET_BASELINE_ALLOCS_PER_DELIVERY {
        let w = alloccount::WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .expect("a workload per baseline budget");
        let m = alloccount::measure(w);
        assert!(m.deliveries >= 1_000, "workload delivered: {m:?}");
        let per_delivery = m.allocs_per_delivery();
        assert!(
            per_delivery <= budget,
            "{name} allocates {per_delivery:.3} per delivery (budget {budget}); \
             a per-message map or set came back on its ordering path: {m:?}"
        );
    }

    // At n = 3 the first acker decides on adopting, so only the second is
    // owed a `Decide`, and a bundle.
    for (n, owed_decide) in [(3, 1), (5, 4)] {
        let (coordinator, others, bundles, delivered) = warm_instances(n);
        assert_eq!(
            (bundles, delivered),
            (1_000 * owed_decide, 1_000 * (n - 1)),
            "n = {n}: per instance, a [Decide(k), Propose(k+1)] bundle to each participant \
             owed the decision and one batch delivered at each"
        );
        assert_eq!(
            others, 0,
            "n = {n}: 1,000 warm instances allocated {others} times at the non-coordinators: \
             a map node, a buffered message or an empty batch per instance came back"
        );
        assert!(
            coordinator <= 1.0,
            "n = {n}: the coordinator allocates {coordinator:.2} times per instance, more than \
             the batch it proposes (a bundle buffer, a decision-cache node?)"
        );
    }

    let (allocs, deliveries) = gb_ack_packets();
    assert_eq!(deliveries, 333, "two acks in three are the quorum's last");
    assert_eq!(
        allocs, 0,
        "1,000 gb/ack packets at a warmed-up process allocated {allocs} times: an output \
         buffer is returned by value again, or a per-message set came back"
    );
}

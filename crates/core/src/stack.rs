//! Assembling the full new-architecture stack (Fig 9) and a simulation
//! harness for driving groups of them.

use gcs_kernel::{PayloadRef, Process, ProcessId, TimeDelta};
use gcs_net::RcConfig;
use gcs_sim::{Harness, Observation, Op, SimWorld, StackDriver, StackKind};

use crate::components::{
    ids, AbcastComponent, ConsensusComponent, FdComponent, GenericComponent, MembershipComponent,
    MonitoringComponent, RcComponent,
};
use crate::generic::GenericCore;
use crate::membership::MembershipCore;
use crate::types::{ConflictRelation, Ev, MessageClass, View};

/// Configuration of one new-architecture process stack.
///
/// Every field is here because a test, an experiment or a benchmark
/// workload sets it to something other than its default; each doc comment
/// names who.
#[derive(Clone, Debug)]
pub struct StackConfig {
    /// Conflict relation used by generic broadcast. Set by the bank
    /// example, passive replication (Fig 8), experiment E2's conflict modes
    /// and `tests/generic_broadcast.rs`.
    pub conflict: ConflictRelation,
    /// Reliable-channel configuration (retransmission, output-triggered
    /// suspicion threshold, ack piggybacking); see [`RcConfig`] for who sets
    /// each field.
    pub rc: RcConfig,
    /// Failure-detector heartbeat period. The WAN tests
    /// (`tests/adverse_network.rs`, `tests/churn_under_load.rs`) stretch it.
    pub heartbeat_interval: TimeDelta,
    /// Small timeout: consensus-class suspicions (order of the paper's
    /// "seconds"; milliseconds at simulation scale). Experiment E3 sweeps
    /// it; the WAN tests stretch it.
    pub consensus_timeout: TimeDelta,
    /// Large timeout: monitoring-class suspicions (the paper's "minutes").
    /// The first such suspicion excludes the peer, as does the reliable
    /// channel's output-triggered one. Every benchmark workload and the
    /// scenario engine raise it to an hour so that exclusions come from the
    /// script (experiments E1 and E4 run on the engine's config, E3a sets
    /// the hour itself, E2 keeps the default), and `tests/full_stack.rs`'s
    /// output-triggered exclusion so that only the channel excludes; E3b
    /// and the membership tests shorten it.
    pub monitoring_timeout: TimeDelta,
    /// Size of the application state transferred to joiners (models the
    /// paper's state-transfer cost, §4.3). Experiment E3b sweeps it; the
    /// membership example and `tests/full_stack.rs` set it.
    pub state_size: usize,
    /// Emit consensus-class `Suspect`/`Restore` transitions as trace
    /// outputs (crash-detection latency measurement; off by default so
    /// existing run fingerprints and delivery counts are untouched). The
    /// scenario engine sets it when the schedule has a crash, unless the
    /// run replaces the engine's config (experiment E3a does);
    /// `tests/gossip_fd.rs` sets it too.
    pub trace_suspicions: bool,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            conflict: ConflictRelation::rbcast_abcast(),
            rc: RcConfig::default(),
            heartbeat_interval: TimeDelta::from_millis(5),
            consensus_timeout: TimeDelta::from_millis(25),
            monitoring_timeout: TimeDelta::from_millis(500),
            state_size: 0,
            trace_suspicions: false,
        }
    }
}

/// Builds the full Fig 9 component graph for one process.
///
/// `initial_view` is `Some` for founding members, `None` for processes that
/// will join later (a schedule `Join` step). Nothing here depends on the
/// group's size: the failure detector, relay and decision echo each derive
/// their fan-out from the current view where they use it
/// ([`gcs_kernel::fanout`]).
pub fn build_process(
    id: ProcessId,
    config: &StackConfig,
    initial_view: Option<View>,
) -> Process<Ev> {
    let fd_peers = initial_view
        .as_ref()
        .map(|v| v.members.clone())
        .unwrap_or_default();
    let fd = FdComponent::new(
        id,
        fd_peers.clone(),
        config.heartbeat_interval,
        config.consensus_timeout,
        config.monitoring_timeout,
        config.trace_suspicions,
    );
    let abcast = AbcastComponent::new(id, initial_view.clone(), config.consensus_timeout);
    let generic = GenericCore::new(id, config.conflict.clone(), initial_view.clone());
    let membership = MembershipCore::new(id, initial_view, config.state_size);
    Process::builder(id)
        .with(ids::RC, RcComponent::new(id, config.rc))
        .with(ids::FD, fd)
        .with(ids::CONSENSUS, ConsensusComponent::new(id))
        .with(ids::ABCAST, abcast)
        .with(ids::GENERIC, GenericComponent::new(generic))
        .with(ids::MEMBERSHIP, MembershipComponent::new(membership))
        .with(ids::MONITORING, MonitoringComponent::new(id, fd_peers))
        .build()
}

/// The new architecture as a [`StackDriver`]: what [`Harness`] needs to
/// know about this stack and nothing more.
pub struct NewArchDriver;

impl StackDriver for NewArchDriver {
    type Event = Ev;
    type Config = StackConfig;
    const KIND: StackKind = StackKind::NewArch;

    fn build(id: ProcessId, config: &StackConfig, founders: usize) -> Process<Ev> {
        let view = (id.index() < founders)
            .then(|| View::initial((0..founders as u32).map(ProcessId::new).collect()));
        build_process(id, config, view)
    }

    fn abcast(payload: PayloadRef) -> Op<Ev> {
        (ids::ABCAST, Ev::Abcast(payload))
    }

    fn gbcast(class: MessageClass, payload: PayloadRef) -> Option<Op<Ev>> {
        Some((ids::GENERIC, Ev::Gbcast(class, payload)))
    }

    fn conflicts(config: &StackConfig, a: MessageClass, b: MessageClass) -> bool {
        config.conflict.conflicts(a, b)
    }

    /// Reliable broadcast rides generic broadcast, class
    /// [`MessageClass::RBCAST`].
    fn rbcast(payload: PayloadRef) -> Option<Op<Ev>> {
        Some((ids::GENERIC, Ev::Rbcast(payload)))
    }

    fn join(contact: ProcessId) -> Op<Ev> {
        (ids::MEMBERSHIP, Ev::JoinVia(contact))
    }

    fn remove(target: ProcessId) -> Option<Op<Ev>> {
        Some((ids::MEMBERSHIP, Ev::RemoveMember(target)))
    }

    fn project(event: &Ev) -> Observation<'_> {
        match event {
            Ev::Deliver(d) => Observation::Deliver {
                sender: d.id.sender,
                seq: d.id.seq,
                kind: d.kind,
                class: d.class,
                view: d.view,
                payload: d.payload,
            },
            Ev::ViewInstalled(v) => Observation::View {
                id: v.id,
                members: &v.members,
            },
            // Traced only under `StackConfig::trace_suspicions`; the raw
            // material of crash-detection-latency measurements.
            Ev::Suspect(class, p) if *class == gcs_fd::MonitorClass::CONSENSUS => {
                Observation::Suspect(*p)
            }
            _ => Observation::Other,
        }
    }
}

/// A simulated group running the new architecture — the harness used by the
/// examples, integration tests and benchmarks. Its surface is
/// [`GroupTransport`](gcs_sim::GroupTransport).
///
/// ```
/// use gcs_core::{GroupSim, StackConfig};
/// use gcs_kernel::{ProcessId, Time};
/// use gcs_sim::GroupTransport;
///
/// let mut group = GroupSim::new(3, StackConfig::default(), 42);
/// group.abcast_at(Time::from_millis(1), ProcessId::new(0), b"hello".to_vec());
/// group.run_until(Time::from_millis(300));
/// let seqs = group.adelivered_payloads();
/// assert_eq!(seqs[0], vec![b"hello".to_vec()]);
/// assert_eq!(seqs[0], seqs[1]);
/// assert_eq!(seqs[0], seqs[2]);
/// ```
pub type GroupSim = Harness<NewArchDriver, SimWorld<Ev>>;

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_kernel::Time;
    use gcs_sim::{GroupTransport, InvariantChecker, Schedule};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn single_abcast_reaches_all_members_in_order() {
        let mut g = GroupSim::new(3, StackConfig::default(), 1);
        g.abcast_at(Time::from_millis(1), p(0), b"a".to_vec());
        g.run_until(Time::from_millis(500));
        let seqs = g.adelivered_payloads();
        assert_eq!(seqs, vec![vec![b"a".to_vec()]; 3]);
    }

    #[test]
    fn concurrent_abcasts_are_totally_ordered() {
        let mut g = GroupSim::new(5, StackConfig::default(), 2);
        for i in 0..20u32 {
            g.abcast_at(
                Time::from_micros(500 + 137 * i as u64),
                p(i % 5),
                vec![i as u8],
            );
        }
        g.run_until(Time::from_secs(3));
        let seqs = g.adelivered_payloads();
        for s in &seqs {
            assert_eq!(s.len(), 20, "all messages delivered everywhere");
        }
        let report = InvariantChecker::check(&g, 5);
        assert!(report.is_clean(), "{:#?}", report.violations);
    }

    #[test]
    fn abcast_survives_minority_crash_without_view_change() {
        // The architectural headline (§3.1.1): a crash does NOT block
        // atomic broadcast and needs no membership change.
        let mut cfg = StackConfig::default();
        cfg.monitoring_timeout = TimeDelta::from_secs(3600); // no exclusions
        let mut g = GroupSim::new(3, cfg, 3);
        g.crash_at(Time::from_millis(10), p(0));
        for i in 0..5u64 {
            g.abcast_at(Time::from_millis(20 + i), p(1), vec![i as u8]);
        }
        g.run_until(Time::from_secs(3));
        let seqs = g.adelivered_payloads();
        assert_eq!(seqs[1].len(), 5, "p1 delivers despite the crash");
        assert_eq!(seqs[1], seqs[2]);
        // No view change happened (no membership involvement).
        assert!(g.views().iter().all(|v| v.is_empty()));
    }

    fn sent(g: &GroupSim, kind: &str) -> u64 {
        g.metrics().sent_of_kind(kind)
    }

    /// The failure-free cost of an abcast, by count: one `ab/data` to the
    /// coordinator — none when the coordinator itself is the sender — and
    /// per consensus instance n−1 each of `ct/propose` and `ct/ack`, and
    /// one `ct/decide` per participant that cannot decide on its own: n−1
    /// at n = 5, one at n = 3, where an acker decides on adopting. No
    /// estimate, no nack, no copy to anybody who does not order it, and the
    /// safety-net timer never diffuses. (CI counts on this test: a
    /// re-introduced diffusion, relay or echo fails it, not a benchmark.)
    #[test]
    fn failure_free_abcast_costs_one_send_to_the_coordinator_one_proposal_one_ack_one_decision() {
        for n in [3usize, 5] {
            let decides = if n == 3 { 1 } else { n as u64 - 1 };
            for sender in 0..n as u32 {
                let mut g = GroupSim::new(n, StackConfig::default(), 17);
                let ops = 10u64;
                for i in 0..ops {
                    // Far enough apart that every abcast is its own instance.
                    g.abcast_at(Time::from_millis(5 + 20 * i), p(sender), vec![i as u8]);
                }
                g.run_until(Time::from_millis(400));
                let seqs = g.adelivered_payloads();
                assert!(seqs.iter().all(|s| s.len() == ops as usize), "n={n}");
                let data = if sender == 0 { 0 } else { ops };
                assert_eq!(sent(&g, "ab/data"), data, "n={n}, from p{sender}");
                for kind in ["ct/propose", "ct/ack"] {
                    assert_eq!(sent(&g, kind), (n as u64 - 1) * ops, "n={n}: {kind}");
                }
                assert_eq!(sent(&g, "ct/decide"), decides * ops, "n={n}");
                assert_eq!(sent(&g, "ct/estimate") + sent(&g, "ct/nack"), 0, "n={n}");
            }
        }
    }

    /// In a stream that keeps the pool non-empty, the step in which p0
    /// decides instance k opens k+1, and each participant gets `Decide(k)`
    /// and `Propose(k+1)` in one packet: per instance 8 packets carry
    /// consensus at n = 5 (n−1 proposals-with-decisions, n−1 acks; 12
    /// unbundled) and 4 at n = 3 (the one `ct/decide` rides a proposal; 5
    /// unbundled), plus the last instance's decisions, alone. The per-kind
    /// counts are those of the unbundled pattern. p0 sends every op, so
    /// nothing but consensus travels through the reliable channel and every
    /// other packet is a heartbeat or a standalone ack. Every link takes
    /// exactly one hop, so no packet overtakes another: a participant that
    /// got two at once would send two acks in one step, and they would
    /// share a packet too. (CI counts on this test.)
    #[test]
    fn a_decision_rides_the_next_proposal_in_one_packet_per_participant() {
        let hop = TimeDelta::from_micros(500);
        let link = gcs_sim::LinkModel {
            delay_min: hop,
            delay_max: hop,
            ..gcs_sim::LinkModel::lan()
        };
        for n in [3usize, 5] {
            let peers = n as u64 - 1;
            let (decides, packets) = if n == 3 { (1, 4) } else { (peers, 8) };
            let sim = gcs_sim::SimConfig::lan(31).with_link(link);
            let mut g = GroupSim::start(n, 0, StackConfig::default(), sim);
            // One op every 100 µs: an instance takes two hops, so only the
            // last decision finds the pool empty.
            let ops = 400u64;
            for i in 0..ops {
                g.abcast_at(Time::from_micros(5_000 + 100 * i), p(0), vec![i as u8]);
            }
            g.run_until(Time::from_millis(400));
            let seqs = g.adelivered_payloads();
            assert!(seqs.iter().all(|s| s.len() == ops as usize), "n={n}");
            let instances = sent(&g, "ct/propose") / peers;
            assert!(instances > 20, "n={n}: {instances} instances batch the ops");
            assert_eq!(sent(&g, "ct/propose"), peers * instances, "n={n}");
            assert_eq!(sent(&g, "ct/ack"), peers * instances, "n={n}");
            assert_eq!(sent(&g, "ct/decide"), decides * instances, "n={n}");
            assert_eq!(sent(&g, "ct/estimate") + sent(&g, "ct/nack"), 0, "n={n}");
            let m = g.metrics();
            let consensus_packets = m.total_sent() - m.sent_matching(|k| !k.starts_with("ct/"));
            assert_eq!(
                consensus_packets,
                packets * instances + decides,
                "n={n}: {instances} instances"
            );
        }
    }

    /// A crashed round-0 coordinator taxes the instance in flight when the
    /// survivors suspect it, not every one after: that instance decides in
    /// round 1, whose coordinator p1 claims the batch and so names itself the
    /// round-0 coordinator of the next instance; from there on an abcast
    /// costs what a failure-free one does — no estimate, no nack, no
    /// `ab/data` from p1 (it orders what it sends), n−1 `ct/propose` per
    /// instance and acks from the live participants only. The copies to
    /// the dead p0 count as sent: at n = 5 that makes n−1 `ct/decide` per
    /// instance; at n = 3, where the live acker decided on adopting, n−2 —
    /// the one `ct/decide` goes to p0. Monitoring is off, so p0 stays in
    /// the view for good.
    ///
    /// The reliable channel keeps probing p0 with the oldest message each
    /// survivor sent it, under that message's kind, at a fixed period: the
    /// counts are taken over the ops' window *minus* an equally long quiet
    /// one after it. (CI counts on this test, as on the failure-free ones.)
    #[test]
    fn crashed_coordinator_taxes_only_the_instance_in_flight() {
        for n in [3usize, 5] {
            let mut cfg = StackConfig::default();
            cfg.monitoring_timeout = TimeDelta::from_secs(3600);
            let mut g = GroupSim::new(n, cfg, 19);
            let survivors = n as u64 - 1;
            let sender = |i: u64| p(1 + (i % survivors) as u32);
            // Ops 0 and 1 before the crash, op 2 in flight when the
            // survivors suspect p0 (25 ms after its last heartbeat).
            g.crash_at(Time::from_millis(30), p(0));
            for i in 0..3 {
                g.abcast_at(Time::from_millis(5 + 20 * i), sender(i), vec![i as u8]);
            }
            // Then one op per instance, every survivor in turn.
            let ops = 4 * survivors;
            let (start, len) = (200, 20 * ops);
            for j in 0..ops {
                let i = 3 + j;
                g.abcast_at(
                    Time::from_millis(start + 5 + 20 * j),
                    sender(i),
                    vec![i as u8],
                );
            }
            let delivered = |g: &GroupSim| -> Vec<usize> {
                g.adelivered_payloads()[1..].iter().map(Vec::len).collect()
            };
            g.run_until(Time::from_millis(start));
            assert_eq!(
                delivered(&g),
                vec![3; n - 1],
                "n={n}: the instance in flight"
            );
            let window = |g: &mut GroupSim| {
                let before = g.metrics().clone();
                g.run_until(g.now() + TimeDelta::from_millis(len));
                g.metrics().delta_since(&before)
            };
            let (busy, quiet) = (window(&mut g), window(&mut g));
            assert_eq!(delivered(&g), vec![3 + ops as usize; n - 1], "n={n}");
            let sent = |kind: &str| busy.sent_of_kind(kind) - quiet.sent_of_kind(kind);
            let from_others = (3..3 + ops).filter(|&i| sender(i) != p(1)).count() as u64;
            assert_eq!(sent("ab/data"), from_others, "n={n}: none from p1");
            assert_eq!(sent("ct/propose"), (n as u64 - 1) * ops, "n={n}");
            let decides = if n == 3 { 1 } else { n as u64 - 1 };
            assert_eq!(sent("ct/decide"), decides * ops, "n={n}");
            assert_eq!(
                sent("ct/ack"),
                (n as u64 - 2) * ops,
                "n={n}: live acks only"
            );
            assert_eq!(sent("ct/estimate") + sent("ct/nack"), 0, "n={n}");
            assert!(g.views().iter().all(|v| v.is_empty()), "no view change");
        }
    }

    /// Where an acker's adoption and the coordinator's are a majority, the
    /// acker decides the moment it adopts: at n = 3 every non-coordinator
    /// a-delivers each op strictly before the coordinator p0, which decides
    /// one hop later, on the first ack. At n = 5 two adoptions are no
    /// majority, so no process but p0 delivers before p0's `ct/decide` can
    /// have reached it — one hop after p0's own delivery. Every link takes
    /// exactly one hop, so "before" is exact. (CI counts on this test.)
    #[test]
    fn an_acker_decides_when_two_adoptions_are_a_majority() {
        let hop = TimeDelta::from_micros(500);
        let link = gcs_sim::LinkModel {
            delay_min: hop,
            delay_max: hop,
            ..gcs_sim::LinkModel::lan()
        };
        for n in [3usize, 5] {
            let sim = gcs_sim::SimConfig::lan(29).with_link(link);
            let mut g = GroupSim::start(n, 0, StackConfig::default(), sim);
            let ops = 10u64;
            for i in 0..ops {
                let sender = p(1 + (i % (n as u64 - 1)) as u32);
                g.abcast_at(Time::from_millis(5 + 20 * i), sender, vec![i as u8]);
            }
            g.run_until(Time::from_millis(400));
            let mut at = vec![vec![None; n]; ops as usize];
            for d in g.delivery_trace() {
                at[g.resolve(d.payload)[0] as usize][d.proc.index()] = Some(d.time);
            }
            for (op, at) in at.iter().enumerate() {
                let at: Vec<Time> = at
                    .iter()
                    .map(|t| t.expect("delivered everywhere"))
                    .collect();
                for (i, &t) in at.iter().enumerate().skip(1) {
                    if n == 3 {
                        assert!(t < at[0], "op {op}: p{i} at {t:?}, p0 at {:?}", at[0]);
                    } else {
                        assert!(
                            t >= at[0] + hop,
                            "op {op}: p{i} at {t:?}, p0 at {:?}",
                            at[0]
                        );
                    }
                }
            }
        }
    }

    /// The failure-free cost of a conflict-free g-broadcast, by count: n−1
    /// `gb/data` (the origin's ack rides them) and (n−1)² `gb/ack` — no
    /// relayed copy, no ack from the origin, no consensus. (CI counts on
    /// this test, as on the abcast one above.)
    #[test]
    fn failure_free_gbcast_costs_one_diffusion_and_one_ack_round() {
        for n in [3usize, 5] {
            let mut g = GroupSim::new(n, StackConfig::default(), 17);
            let ops = 10u64;
            for i in 0..ops {
                g.gbcast_at(
                    Time::from_millis(5 + 20 * i),
                    p((i % n as u64) as u32),
                    MessageClass::RBCAST,
                    vec![i as u8],
                );
            }
            g.run_until(Time::from_millis(400));
            let delivered = g.delivered();
            assert!(delivered.iter().all(|s| s.len() == ops as usize), "n={n}");
            let peers = n as u64 - 1;
            assert_eq!(sent(&g, "gb/data"), peers * ops, "n={n}");
            assert_eq!(sent(&g, "gb/ack"), peers * peers * ops, "n={n}");
            let ordering = |k: &str| k.starts_with("ab/") || k.starts_with("ct/");
            assert_eq!(g.metrics().sent_matching(ordering), 0, "n={n}");
        }
    }

    /// Cuts `from`'s outgoing links to every process in `to` (a crash that
    /// catches `from` part-way through a broadcast, seen from the wire).
    fn cut(schedule: Schedule, t: Time, from: ProcessId, to: &[ProcessId]) -> Schedule {
        let dead = gcs_sim::LinkModel {
            drop_prob: 1.0,
            ..gcs_sim::LinkModel::lan()
        };
        to.iter()
            .fold(schedule, |s, &q| s.set_link(t, from, q, dead))
    }

    #[test]
    fn message_of_a_crashed_origin_is_relayed_on_suspicion_and_ordered_everywhere() {
        // p3 has stopped hearing p0 and suspects it, so its message goes to
        // p1 — who will not order it while p0 is trusted by everybody else —
        // and then p3 is gone before it could try anyone else. Nothing moves
        // until the failure detector speaks: p1 then relays what it holds
        // of p3, p0 proposes it, all deliver.
        let mut cfg = StackConfig::default();
        cfg.monitoring_timeout = TimeDelta::from_secs(3600);
        let mut g = GroupSim::new(4, cfg, 23);
        let schedule = cut(Schedule::new(), Time::from_millis(10), p(0), &[p(3)])
            .crash(Time::from_millis(53), p(3));
        g.apply_schedule(&schedule);
        g.abcast_at(Time::from_millis(50), p(3), b"orphan".to_vec());
        g.run_until(Time::from_millis(60));
        assert_eq!(
            sent(&g, "ab/data"),
            1,
            "the origin's one send, no relay yet"
        );
        assert!(g.adelivered_payloads().iter().all(|s| s.is_empty()));
        g.run_until(Time::from_millis(400));
        let seqs = g.adelivered_payloads();
        for i in 0..3 {
            assert_eq!(seqs[i], vec![b"orphan".to_vec()], "p{i}");
        }
        // p1 relays to p0 and p2; each of them may pass it on once more if
        // it suspects p3 by the time the copy arrives.
        assert!(
            (3..=5).contains(&sent(&g, "ab/data")),
            "{}",
            sent(&g, "ab/data")
        );
        assert!(g.views().iter().all(|v| v.is_empty()), "no view change");
    }

    #[test]
    fn message_sent_to_a_target_the_others_distrust_is_diffused_by_the_safety_net() {
        // p0 is correct but p1 and p2 cannot hear it and suspect it; p3
        // hears it fine, trusts it and sends its message to p0 alone. p0's
        // proposals reach p3 only — no majority — and the rounds p1 leads
        // order nothing, because p1 never saw the message. No suspicion
        // changes at p3, so nothing re-targets: only the safety net, one
        // consensus-class timeout later, gets the message into every pool.
        let mut cfg = StackConfig::default();
        cfg.monitoring_timeout = TimeDelta::from_secs(3600);
        let period = cfg.consensus_timeout;
        let mut g = GroupSim::new(4, cfg, 31);
        g.apply_schedule(&cut(
            Schedule::new(),
            Time::from_millis(10),
            p(0),
            &[p(1), p(2)],
        ));
        let sent_at = Time::from_millis(60);
        g.abcast_at(sent_at, p(3), b"stuck".to_vec());
        g.run_until(Time::from_millis(59) + period);
        assert_eq!(sent(&g, "ab/data"), 1, "to p0 only, for a full period");
        assert!(g.adelivered_payloads().iter().all(|s| s.is_empty()));
        g.run_until(Time::from_millis(400));
        assert_eq!(sent(&g, "ab/data"), 4, "then once to all three peers");
        for (i, seq) in g.adelivered_payloads().iter().enumerate() {
            assert_eq!(seq, &vec![b"stuck".to_vec()], "p{i}");
        }
        assert!(g.views().iter().all(|v| v.is_empty()), "no view change");
    }

    #[test]
    fn member_cut_off_mid_stream_converges_after_the_heal() {
        // p2 misses the decision of one instance and the proposals and
        // decisions of the next ones; after the heal it must converge on the
        // same sequence (what was sent to it is retransmitted, what it asks
        // for is answered from the decision cache).
        let mut cfg = StackConfig::default();
        cfg.monitoring_timeout = TimeDelta::from_secs(3600);
        let mut g = GroupSim::new(3, cfg, 29);
        g.apply_schedule(
            &Schedule::new()
                .partition(Time::from_millis(30), vec![vec![p(0), p(1)], vec![p(2)]])
                .heal(Time::from_millis(130)),
        );
        for i in 0..40u64 {
            g.abcast_at(
                Time::from_millis(5 + 4 * i),
                p((i % 2) as u32),
                vec![i as u8],
            );
        }
        g.abcast_at(Time::from_millis(60), p(2), b"from the minority".to_vec());
        g.run_until(Time::from_millis(120));
        let before = g.adelivered_payloads();
        assert!(
            before[2].len() < before[0].len(),
            "p2 is behind while cut off"
        );
        assert!(before[0].len() >= 25, "the majority keeps delivering");
        g.run_until(Time::from_secs(2));
        let seqs = g.adelivered_payloads();
        assert_eq!(seqs[0].len(), 41);
        assert_eq!(seqs[0], seqs[1]);
        assert_eq!(seqs[0], seqs[2], "p2 converged");
        assert!(g.views().iter().all(|v| v.is_empty()), "no view change");
    }

    #[test]
    fn gbcast_non_conflicting_uses_fast_path_only() {
        let mut cfg = StackConfig::default();
        cfg.conflict = ConflictRelation::none(4);
        let mut g = GroupSim::new(4, cfg, 4);
        for i in 0..10u32 {
            g.gbcast_at(
                Time::from_millis(1 + i as u64),
                p(i % 4),
                MessageClass(0),
                vec![i as u8],
            );
        }
        g.run_until(Time::from_secs(2));
        for s in &g.delivered() {
            assert_eq!(s.len(), 10);
        }
        // Thrifty: no consensus traffic at all.
        assert_eq!(g.metrics().sent_matching(|k| k.starts_with("ct/")), 0);
    }

    #[test]
    fn gbcast_conflicting_pairs_are_ordered_consistently() {
        let mut cfg = StackConfig::default();
        cfg.conflict = ConflictRelation::all(4);
        let mut g = GroupSim::new(4, cfg, 5);
        for i in 0..6u32 {
            g.gbcast_at(
                Time::from_millis(1),
                p(i % 4),
                MessageClass(0),
                vec![i as u8],
            );
        }
        g.run_until(Time::from_secs(3));
        let delivered = g.delivered();
        for s in &delivered {
            assert_eq!(s.len(), 6, "everything delivered: {delivered:?}");
        }
        let report = InvariantChecker::check(&g, 4);
        assert!(report.is_clean(), "{:#?}", report.violations);
        // Consensus was used (escalation happened).
        assert!(g.metrics().sent_matching(|k| k.starts_with("ct/")) > 0);
    }

    #[test]
    fn join_installs_view_everywhere_and_joiner_participates() {
        let mut g = GroupSim::with_joiners(3, 1, StackConfig::default(), 6);
        g.join_at(Time::from_millis(5), p(3), p(0));
        g.run_until(Time::from_millis(500));
        // All four processes end in view {p0..p3}.
        let views = g.views();
        for (i, vs) in views.iter().enumerate() {
            let last = vs.last().unwrap_or_else(|| panic!("p{i} saw no view"));
            assert_eq!(last.members.len(), 4, "p{i} final view");
        }
        // The joiner can now abcast and everyone delivers.
        g.abcast_at(Time::from_millis(600), p(3), b"from joiner".to_vec());
        g.run_until(Time::from_millis(1200));
        let seqs = g.adelivered_payloads();
        for i in 0..4 {
            assert_eq!(seqs[i].last().unwrap(), &b"from joiner".to_vec(), "p{i}");
        }
    }

    #[test]
    fn monitoring_excludes_crashed_member() {
        let mut cfg = StackConfig::default();
        cfg.monitoring_timeout = TimeDelta::from_millis(200);
        let mut g = GroupSim::new(3, cfg, 7);
        g.crash_at(Time::from_millis(50), p(2));
        g.run_until(Time::from_secs(2));
        let views = g.views();
        for i in 0..2 {
            let last = views[i].last().expect("view change happened");
            assert!(!last.contains(p(2)), "p{i} excluded the crashed member");
            assert_eq!(last.members.len(), 2);
        }
    }

    /// The reliable channel's ack piggybacking (with delayed standalone
    /// acks and batched retransmissions) must cut the steady-state packet
    /// count of the full stack by at least 40% — heartbeats excluded, since
    /// they never carried acks in either scheme.
    #[test]
    fn ack_piggybacking_cuts_steady_state_packets() {
        let run = |piggyback: bool| -> u64 {
            let mut cfg = StackConfig::default();
            cfg.monitoring_timeout = TimeDelta::from_secs(3600);
            cfg.rc.piggyback_acks = piggyback;
            let mut g = GroupSim::new(5, cfg, 1);
            for i in 0..20u32 {
                g.abcast_at(Time::from_millis(1 + i as u64 * 2), p(i % 5), vec![i as u8]);
            }
            g.run_until(Time::from_millis(300));
            let seqs = g.adelivered_payloads();
            assert_eq!(seqs[0].len(), 20, "workload completes");
            g.metrics().sent_matching(|k| k != "fd/heartbeat")
        };
        let classic = run(false);
        let piggybacked = run(true);
        assert!(
            10 * piggybacked <= 6 * classic,
            "expected ≥40% packet reduction: {piggybacked} vs {classic}"
        );
    }

    #[test]
    fn schedule_driven_join_and_remove() {
        // The schedule expresses what join_at/remove_at/crash_at used to:
        // p3 joins via p1 and p2 is removed, all mid-stream.
        let mut g = GroupSim::with_joiners(3, 1, StackConfig::default(), 13);
        let schedule = Schedule::new()
            .join(Time::from_millis(20), p(3), p(1))
            .remove(Time::from_millis(200), p(0), p(2));
        g.apply_schedule(&schedule);
        g.run_until(Time::from_secs(2));
        for i in [0u32, 1, 3] {
            let last = g.views()[i as usize]
                .last()
                .unwrap_or_else(|| panic!("p{i} saw a view"))
                .clone();
            // p2 runs on after its removal and — hearing nobody — reports
            // every member as failed, to members it may never have talked
            // to before (a stream that starts at sequence 0). It is outside
            // the group: nobody acts on its word.
            assert_eq!(last.members, vec![p(0), p(1), p(3)], "p{i}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut g = GroupSim::new(3, StackConfig::default(), seed);
            for i in 0..5u64 {
                g.abcast_at(Time::from_millis(1 + i), p((i % 3) as u32), vec![i as u8]);
            }
            g.run_until(Time::from_secs(1));
            (g.adelivered_payloads(), g.metrics().total_sent())
        };
        assert_eq!(run(11), run(11));
    }
}

//! Property-based cross-stack fault fuzzing: random scripted timelines
//! (crash / partition+heal / join / remove, within safe bounds) run against
//! **all three** stacks, with the invariant oracle asserting zero violations
//! for every seed.
//!
//! "Safe bounds" means the timeline windows are chosen so that a majority
//! always exists (or is restored by a heal well before the horizon) and
//! membership changes do not deliberately overlap reformation windows —
//! overlapping those exercises the full Totem membership-merge protocol,
//! which the baselines intentionally do not implement. Within these bounds
//! the paper's properties must hold on every architecture, every time.
//!
//! A third property aims the faults at what the new architecture's
//! failure-free fast path leans on: the round-0 coordinator (p0), its
//! successor, lossy links — and at the member the decisions name as
//! round-0 coordinator once p0 is suspected. There the oracle must stay
//! clean *and* every survivor must deliver every message of every surviving
//! sender.
//!
//! A fourth property holds the same to three members, the one size where
//! an acker decides the moment it adopts a proposal (its adoption and the
//! coordinator's are a majority): one crash, cut-off member or cut link per
//! case, abcast only — generic broadcast tolerates no fault among three.
//!
//! New-architecture runs carry g-broadcasts of both classes beside the
//! abcast stream ([`WithGenericTraffic`]), so the generic fast path — lazy
//! relay, the origin's ack on its data, epoch closures under faults — is
//! judged by the same oracle: no duplication, rbcast FIFO, and the same
//! delivered set at every founder that survives.

use gcs_api::{Group, GroupTransport, InvariantChecker, StackKind};
use gcs_bench::scenario::{Scenario, ScenarioReport};
use gcs_bench::workload::{GenericWorkload, UniformWorkload, Workload};
use gcs_core::StackConfig;
use gcs_kernel::{ProcessId, Time, TimeDelta};
use gcs_sim::{LinkModel, Schedule, Topology};
use proptest::prelude::*;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// Runs a 4-member group of `stack` on `topology` under `schedule`, with
/// `joiners` processes started outside the group, returning per-process
/// a-delivered payloads and rendered invariant violations.
fn run_on(
    topology: Topology,
    joiners: usize,
    stack: StackKind,
    schedule: &Schedule,
    seed: u64,
) -> (Vec<Vec<Vec<u8>>>, Vec<String>) {
    let mut cfg = StackConfig::default();
    // As in the scenario engine: exclusions come from the script, not from
    // wall-clock monitoring racing the timeline.
    cfg.monitoring_timeout = TimeDelta::from_secs(3600);
    let mut g = Group::builder()
        .members(4)
        .joiners(joiners)
        .stack(stack)
        .topology(topology)
        .schedule(schedule.clone())
        .stack_config(cfg)
        .seed(seed)
        .build();
    WithGenericTraffic.inject(4, &mut g);
    if joiners > 0 {
        // One message after every fault window has closed, so that a join
        // the faults delayed past the stream still has something to deliver
        // (the oracle compares where the members' streams end).
        g.abcast_at(Time::from_millis(1500), p(3), vec![0xff, 0xff]);
    }
    g.run_until(Time::from_secs(3));
    let violations = InvariantChecker::check(&g, 4)
        .violations
        .iter()
        .map(|v| v.to_string())
        .collect();
    (g.adelivered_payloads(), violations)
}

/// Faults aimed at the round-0 coordinator a decision names for the next
/// instance (see `gcs_core::abcast`): it moves off p0 once the survivors
/// suspect p0, and it must be agreed by every process that opens an
/// instance.
#[derive(Clone, Copy, Debug)]
enum Designated {
    /// Five founders: p0 crashes, then p1 — the coordinator the survivors'
    /// decisions named in p0's place. Abcast traffic only: two crashes of
    /// five are past generic broadcast's `f < n/3`.
    Cascade,
    /// p0 is cut off long enough to be suspected, then the link heals: the
    /// designation comes back to p0, so that ops long after the heal cost
    /// exactly what failure-free ones do.
    Heal,
    /// p0 crashes, then p4 joins via p3 while the group is idle: nobody
    /// leaves a round around the join, and the joiner orders with the
    /// others from then on. (The snapshot's designation is pinned by
    /// `gcs_core`'s abcast unit tests: here generic broadcast defers the
    /// snapshot to the end of the view change's epoch closure, so the
    /// joiner's first instances are decided before it activates and it
    /// reads the designation off those decisions.)
    JoinAfterCrash,
}

/// Runs one [`Designated`] case: p0's fault at `at_ms`, the second fault
/// `40 + extra_ms` later (`600 + extra_ms` for the join). Every case checks
/// the oracle and that the survivors agree on one sequence holding every op
/// of every sender that survived; `Heal` and `JoinAfterCrash` also count
/// messages over a window, minus an equally long quiet one (the reliable
/// channel probes a dead peer at a fixed period).
fn designated_case(
    case: Designated,
    seed: u64,
    at_ms: u64,
    extra_ms: u64,
    lossy: bool,
) -> Result<(), TestCaseError> {
    let n: u32 = if matches!(case, Designated::Cascade) {
        5
    } else {
        4
    };
    let joining = matches!(case, Designated::JoinAfterCrash);
    let exact = !matches!(case, Designated::Cascade);
    let ms = Time::from_millis;
    let mut cfg = StackConfig::default();
    cfg.monitoring_timeout = TimeDelta::from_secs(3600);
    let second = at_ms + 40 + extra_ms;
    let join_ms = 600 + extra_ms;
    let (schedule, dead) = match case {
        Designated::Cascade => (
            Schedule::new()
                .crash(ms(at_ms), p(0))
                .crash(ms(second), p(1)),
            vec![p(0), p(1)],
        ),
        Designated::Heal => {
            let rest: Vec<ProcessId> = (1..4).map(p).collect();
            let cut = Schedule::new().partition(ms(at_ms), vec![rest, vec![p(0)]]);
            (cut.heal(ms(second)), vec![])
        }
        Designated::JoinAfterCrash => (
            Schedule::new()
                .crash(ms(at_ms), p(0))
                .join(ms(join_ms), p(4), p(3)),
            vec![p(0)],
        ),
    };
    let topology = if lossy && !exact {
        Topology::lossy()
    } else {
        Topology::lan()
    };
    let mut g = Group::builder()
        .members(n as usize)
        .joiners(usize::from(joining))
        .stack(StackKind::NewArch)
        .topology(topology)
        .schedule(schedule)
        .stack_config(cfg)
        .seed(seed)
        .build();
    // Op `k` carries tag `k`: a stream through the faults, then (after the
    // faults, the heal and the join) one op per 20 ms, the joiner included.
    let mut senders = Vec::new();
    let mut op = |g: &mut Group, t: Time, sender: ProcessId| {
        let mut payload = (senders.len() as u16).to_le_bytes().to_vec();
        payload.push(0xab);
        g.abcast_at(t, sender, payload);
        senders.push(sender);
    };
    for k in 0..60 {
        op(&mut g, ms(1 + 5 * k), p(k as u32 % n));
    }
    let tail = 8u64;
    let tail_at = 1_000;
    let tail_sender = |j: u64| p(if joining { 1 + j % 4 } else { j % n as u64 } as u32);
    if matches!(case, Designated::Heal) {
        // Enough instances after the heal to carry the designation back.
        for j in 0..10 {
            op(&mut g, ms(700 + 20 * j), p(j as u32 % n));
        }
    }
    for j in 0..tail {
        op(&mut g, ms(tail_at + 5 + 20 * j), tail_sender(j));
    }
    let windows = |g: &mut Group, start: u64, len: u64| {
        g.run_until(ms(start));
        let m0 = g.metrics().clone();
        g.run_until(ms(start + len));
        let m1 = g.metrics().clone();
        g.run_until(ms(start + 2 * len));
        (m1.delta_since(&m0), g.metrics().delta_since(&m1))
    };
    let what = format!("{case:?}@{seed} at {at_ms} ms +{extra_ms}, lossy {lossy}");
    match case {
        Designated::Heal => {
            let (busy, quiet) = windows(&mut g, tail_at, 20 * tail);
            let sent = |kind: &str| busy.sent_of_kind(kind) - quiet.sent_of_kind(kind);
            let from_others = (0..tail).filter(|&j| tail_sender(j) != p(0)).count() as u64;
            prop_assert_eq!(sent("ab/data"), from_others, "{}: ab/data", what);
            for kind in ["ct/propose", "ct/ack", "ct/decide"] {
                prop_assert_eq!(sent(kind), 3 * tail, "{}: {}", what, kind);
            }
            prop_assert_eq!(sent("ct/estimate") + sent("ct/nack"), 0, "{}", what);
        }
        Designated::JoinAfterCrash => {
            let (quiet, busy) = windows(&mut g, join_ms - 200, 200);
            prop_assert_eq!(
                busy.sent_of_kind("ct/nack"),
                quiet.sent_of_kind("ct/nack"),
                "{}: somebody left a round around the join",
                what
            );
        }
        Designated::Cascade => {}
    }
    g.run_until(Time::from_secs(3));
    let violations = InvariantChecker::check(&g, n as usize).violations;
    prop_assert!(violations.is_empty(), "{}: {:#?}", what, violations);
    let delivered = g.adelivered_payloads();
    let survivors: Vec<usize> = (0..n)
        .filter(|&i| !dead.contains(&p(i)))
        .map(|i| i as usize)
        .collect();
    for &i in &survivors {
        prop_assert_eq!(
            &delivered[i],
            &delivered[survivors[0]],
            "{}: p{} disagrees",
            what,
            i
        );
    }
    let have: std::collections::BTreeSet<usize> = delivered[survivors[0]]
        .iter()
        .filter_map(|payload| gcs_bench::workload::decode_op_index(payload))
        .collect();
    for (k, sender) in senders.iter().enumerate() {
        if !dead.contains(sender) {
            prop_assert!(
                have.contains(&k),
                "{}: op {} of {:?} never delivered",
                what,
                k,
                sender
            );
        }
    }
    Ok(())
}

/// The abcast stream every stack gets and — where the stack has generic
/// broadcast — g-broadcasts in between, so the oracle's generic properties
/// (no duplication, rbcast FIFO, set agreement among the founders) are
/// judged under the same faults: 20 with one op in four conflicting, then 20
/// conflict-free ones, after which no epoch closure comes to the rescue of a
/// message that diffusion left behind. The streams share op tags; nothing
/// here reads latencies.
struct WithGenericTraffic;

impl Workload for WithGenericTraffic {
    fn inject(&self, n: usize, target: &mut dyn GroupTransport) -> Vec<Time> {
        let mut times = UniformWorkload::steady(40, 5).inject(n, target);
        if target.supports_gbcast() {
            for (start_us, conflict_every) in [(3_500, 4), (103_500, 0)] {
                let mut generic = GenericWorkload::per_second(20, 200, conflict_every);
                generic.base.start = Time::from_micros(start_us);
                times.extend(generic.inject(n, target));
            }
        }
        times
    }
}

/// Generic broadcast is FIFO per sender at the default configuration. The
/// timeline comes from a search of [`run_on`]'s space: the p0–p3 link is
/// dead from 86 to 324 ms, and p2 is cut off from 144 to 220 ms. Without
/// the FIFO hold-back, p3 g-delivers p0's rbcast seq 7 before its seq 5 (an
/// epoch closure delivers the possibly-fast-delivered messages first), and
/// the oracle reports it.
#[test]
fn rbcast_stays_fifo_through_a_cut_link_and_a_healed_partition() {
    let ms = Time::from_millis;
    let topology = Topology::lan();
    let dead = LinkModel {
        drop_prob: 1.0,
        ..LinkModel::lan()
    };
    let mut schedule = Schedule::new()
        .partition(ms(144), vec![vec![p(0), p(1), p(3), p(4)], vec![p(2)]])
        .heal(ms(220));
    for (from, to) in [(p(3), p(0)), (p(0), p(3))] {
        let healthy = topology.link(from, to);
        schedule = schedule
            .set_link(ms(86), from, to, dead)
            .set_link(ms(324), from, to, healthy);
    }
    let seed = 10_734_565_987_974_278_335;
    let (_, violations) = run_on(topology, 1, StackKind::NewArch, &schedule, seed);
    assert!(violations.is_empty(), "{violations:#?}");
}

/// The timeline [`random_fault_timelines_are_invariant_clean`] draws: p4
/// joins via p1, p0 removes p3, p2 crashes, and `{p0, p1, p4}` is cut off
/// from `{p2, p3}` from `start` for `dur`, each step optional.
fn fault_timeline(
    join_ms: Option<u64>,
    remove_ms: Option<u64>,
    crash_ms: Option<u64>,
    partition: Option<(u64, u64)>,
) -> Schedule {
    let mut schedule = Schedule::new();
    if let Some(t) = join_ms {
        // The joiner (p4) starts outside the group and joins via p1.
        schedule = schedule.join(Time::from_millis(t), p(4), p(1));
    }
    if let Some(t) = remove_ms {
        // p0 requests the removal of p3 (never the coordinator).
        schedule = schedule.remove(Time::from_millis(t), p(0), p(3));
    }
    if let Some(t) = crash_ms {
        schedule = schedule.crash(Time::from_millis(t), p(2));
    }
    if let Some((start, dur)) = partition {
        // {0,1} plus the joiner on one side: whichever memberships the
        // earlier steps produced, one side holds (or regains) a majority,
        // and the heal lands long before the horizon.
        schedule = schedule
            .partition(
                Time::from_millis(start),
                vec![vec![p(0), p(1), p(4)], vec![p(2), p(3)]],
            )
            .heal(Time::from_millis(start + dur));
    }
    schedule
}

/// Runs a [`fault_timeline`] on `stack`: four members and one joiner on a
/// LAN, with [`WithGenericTraffic`], for three seconds.
fn run_timeline(stack: StackKind, schedule: &Schedule, seed: u64) -> ScenarioReport {
    let scenario = Scenario {
        name: "oracle-fuzz",
        about: "randomized fault timeline",
        stack,
        n: 4,
        joiners: 1,
        topology: Topology::lan(),
        workload: Box::new(WithGenericTraffic),
        schedule: schedule.clone(),
        horizon: Time::from_secs(3),
    };
    scenario.run(seed)
}

/// Case 644 of [`random_fault_timelines_are_invariant_clean`], on Isis: p4
/// joins at 48 ms, p3 is removed at 119 ms, p2 crashes at 185 ms, and the
/// partition lasts from 269 to 443 ms. While the coordinator's stale-view
/// notice to a heartbeating non-member named no removals, the oracle
/// reported that p4 delivered (3,5) then (1,6) but skipped (0,6), with p0,
/// p1 and p2 as witnesses.
#[test]
fn isis_is_gap_free_through_join_removal_crash_and_partition() {
    let schedule = fault_timeline(Some(48), Some(119), Some(185), Some((269, 174)));
    let r = run_timeline(StackKind::Isis, &schedule, 17_243_777_574_595_551_529);
    assert!(r.violations.is_empty(), "{:#?}", r.violations);
}

/// Case 1258 of [`random_fault_timelines_are_invariant_clean`] run to 5,000
/// cases, on Isis: p4 joins at 59 ms, p3 is removed at 88 ms, p2 crashes at
/// 194 ms, and the partition lasts from 261 to 461 ms. The oracle reports
/// that p1 and p3 deliver (3,2) then (1,3) but skip (0,3), with p0 and p2
/// as witnesses.
#[test]
#[ignore = "known Isis gap-freedom violation: ROADMAP baseline item"]
fn isis_is_gap_free_through_a_removal_then_a_crash_and_a_long_partition() {
    let schedule = fault_timeline(Some(59), Some(88), Some(194), Some((261, 200)));
    let r = run_timeline(StackKind::Isis, &schedule, 1_353_825_875_734_624_197);
    assert!(r.violations.is_empty(), "{:#?}", r.violations);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary (seed, join?, remove?, crash?, partition?) timelines are
    /// invariant-clean on every stack.
    #[test]
    fn random_fault_timelines_are_invariant_clean(
        seed in any::<u64>(),
        join_ms in proptest::option::of(20u64..60),
        remove_ms in proptest::option::of(80u64..120),
        crash_ms in proptest::option::of(150u64..200),
        partition in proptest::option::of((250u64..350, 150u64..300)),
    ) {
        let schedule = fault_timeline(join_ms, remove_ms, crash_ms, partition);
        for stack in StackKind::ALL {
            let r = run_timeline(stack, &schedule, seed);
            prop_assert!(
                r.violations.is_empty(),
                "{}@{seed}: {:#?} (schedule {:?})",
                stack.name(),
                r.violations,
                schedule,
            );
            // Liveness floor: the group made progress in every timeline.
            prop_assert!(r.deliveries > 0, "{}@{seed}: no deliveries", stack.name());
        }
    }
}

proptest! {
    // One stack, a 3-virtual-second run: two hundred timelines cost under a
    // second.
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Faults aimed at the coordinator: the failure-free path sends every
    /// abcast's data, proposal and decision along single links from and to
    /// p0 and relays nothing until somebody is suspected, so crash p0 (or
    /// its round-1 successor, or a bystander) at any point of the stream,
    /// cut any one member off for a while, cut a single link between two
    /// members (one then suspects the other while everybody else trusts
    /// both, and whatever the crash victim had sent down that link is lost
    /// with it), lose packets — the oracle stays clean, and the survivors
    /// agree on one sequence that holds every message of every sender that
    /// survived. A join may ride along (the oracle checks the joiner's
    /// suffix; the liveness claim is for the founders). Half the cases
    /// instead aim at the round-0 coordinator the decisions name once p0 is
    /// suspected: one of the three [`Designated`] shapes.
    #[test]
    fn coordinator_faults_are_invariant_clean_and_live(
        seed in any::<u64>(),
        crash in proptest::option::of((0u32..3, 5u64..230)),
        cut in proptest::option::of((0u32..4, 20u64..260, 40u64..300)),
        link in proptest::option::of((0u32..4, 1u32..4, 1u64..260, 40u64..300)),
        join_ms in proptest::option::of(10u64..200),
        lossy in any::<bool>(),
        designated in (0usize..6, 5u64..60, 0u64..120),
    ) {
        let (shape, at_ms, extra_ms) = designated;
        let shapes = [Designated::Cascade, Designated::Heal, Designated::JoinAfterCrash];
        if let Some(&case) = shapes.get(shape) {
            return designated_case(case, seed, at_ms, extra_ms, lossy);
        }
        let mut schedule = Schedule::new();
        if let Some((victim, t)) = crash {
            schedule = schedule.crash(Time::from_millis(t), p(victim));
        }
        if let Some(t) = join_ms {
            // p4 joins via p3, the one founder that never crashes here.
            schedule = schedule.join(Time::from_millis(t), p(4), p(3));
        }
        if let Some((alone, start, dur)) = cut {
            let rest: Vec<ProcessId> = (0..5).map(p).filter(|&q| q != p(alone)).collect();
            schedule = schedule
                .partition(Time::from_millis(start), vec![rest, vec![p(alone)]])
                .heal(Time::from_millis(start + dur));
        }
        let topology = if lossy { Topology::lossy() } else { Topology::lan() };
        if let Some((a, hop, start, dur)) = link {
            let (a, b) = (p(a), p((a + hop) % 4));
            let dead = LinkModel { drop_prob: 1.0, ..LinkModel::lan() };
            for (from, to) in [(a, b), (b, a)] {
                schedule = schedule
                    .set_link(Time::from_millis(start), from, to, dead)
                    .set_link(Time::from_millis(start + dur), from, to, topology.link(from, to));
            }
        }
        let (delivered, violations) = run_on(topology, 1, StackKind::NewArch, &schedule, seed);
        prop_assert!(
            violations.is_empty(),
            "@{seed}: {violations:#?} (schedule {schedule:?}, lossy {lossy})"
        );
        let victim = crash.map(|(v, _)| v as usize);
        let survivors: Vec<usize> = (0..4).filter(|&i| Some(i) != victim).collect();
        for &i in &survivors {
            prop_assert_eq!(
                &delivered[i],
                &delivered[survivors[0]],
                "@{}: p{} and p{} disagree (schedule {:?}, lossy {})",
                seed, i, survivors[0], schedule, lossy
            );
        }
        // Op `k` was sent by p(k mod 4).
        let have: std::collections::BTreeSet<usize> = delivered[survivors[0]]
            .iter()
            .filter_map(|payload| gcs_bench::workload::decode_op_index(payload))
            .collect();
        for op in (0..40).filter(|op| Some(op % 4) != victim) {
            prop_assert!(
                have.contains(&op),
                "@{seed}: op {op} of surviving sender p{} was never delivered \
                 (schedule {schedule:?}, lossy {lossy})",
                op % 4
            );
        }
    }

    /// Three members, where an acker's adoption and the coordinator's are
    /// a majority, so ackers decide without the coordinator's `Decide`:
    /// one fault per case — p0, p1 or p2 crashes; one member is cut off,
    /// then healed; or one link is cut, then healed — on lossy links or
    /// not. The oracle stays clean, and the survivors agree on one sequence
    /// that holds every message of every sender that survived. Abcast only:
    /// generic broadcast needs `f < n/3`, which no fault meets among three.
    #[test]
    fn three_member_faults_are_invariant_clean_and_live(
        seed in any::<u64>(),
        fault in (0usize..3, 0u32..3, 1u32..3),
        window in (5u64..260, 40u64..300),
        lossy in any::<bool>(),
    ) {
        let ((kind, who, hop), (start, dur)) = (fault, window);
        let ms = Time::from_millis;
        let topology = if lossy { Topology::lossy() } else { Topology::lan() };
        let (schedule, victim) = match kind {
            0 => (Schedule::new().crash(ms(start), p(who)), Some(who)),
            1 => {
                let rest: Vec<ProcessId> = (0..3).map(p).filter(|&q| q != p(who)).collect();
                let cut = Schedule::new().partition(ms(start), vec![rest, vec![p(who)]]);
                (cut.heal(ms(start + dur)), None)
            }
            _ => {
                let (a, b) = (p(who), p((who + hop) % 3));
                let dead = LinkModel { drop_prob: 1.0, ..LinkModel::lan() };
                let mut cut = Schedule::new();
                for (from, to) in [(a, b), (b, a)] {
                    cut = cut
                        .set_link(ms(start), from, to, dead)
                        .set_link(ms(start + dur), from, to, topology.link(from, to));
                }
                (cut, None)
            }
        };
        let mut cfg = StackConfig::default();
        cfg.monitoring_timeout = TimeDelta::from_secs(3600);
        let mut g = Group::builder()
            .members(3)
            .stack(StackKind::NewArch)
            .topology(topology)
            .schedule(schedule.clone())
            .stack_config(cfg)
            .seed(seed)
            .build();
        UniformWorkload::steady(40, 5).inject(3, &mut g);
        g.run_until(Time::from_secs(3));
        let what = format!("@{seed}: schedule {schedule:?}, lossy {lossy}");
        let violations = InvariantChecker::check(&g, 3).violations;
        prop_assert!(violations.is_empty(), "{}: {:#?}", what, violations);
        let delivered = g.adelivered_payloads();
        let survivors: Vec<u32> = (0..3).filter(|&i| Some(i) != victim).collect();
        let first = &delivered[survivors[0] as usize];
        for &i in &survivors {
            prop_assert_eq!(&delivered[i as usize], first, "{}: p{} disagrees", what, i);
        }
        // Op `k` was sent by p(k mod 3).
        let have: std::collections::BTreeSet<usize> = first
            .iter()
            .filter_map(|payload| gcs_bench::workload::decode_op_index(payload))
            .collect();
        for op in (0..40).filter(|op| Some(*op as u32 % 3) != victim) {
            prop_assert!(have.contains(&op), "{}: op {} never delivered", what, op);
        }
    }
}

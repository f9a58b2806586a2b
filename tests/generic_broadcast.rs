//! Property-based whole-system tests of generic broadcast (the paper's key
//! new abstraction): for random workloads, conflict relations and fault
//! schedules, conflicting messages are delivered in a consistent order at
//! all correct members, with no duplication and no loss.

use gcs::core::{ConflictRelation, DeliveryKind, MessageClass, StackConfig};
use gcs::kernel::{ProcessId, Time, TimeDelta};
use gcs::sim::{LinkModel, Schedule};
use gcs::{Group, GroupTransport, InvariantChecker};
use proptest::prelude::*;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// What the survivors of a run owe: each delivers every message of every
/// sender that survived. The oracle judges the rest — no duplicates, one
/// delivered set (a message of the victim reaches all of them or none:
/// uniform agreement), and every conflicting pair, by the group's own
/// relation, in one order.
fn check_survivors(g: &Group, victim: Option<u32>, live_ops: usize) -> Result<(), String> {
    let report = InvariantChecker::check(g, g.process_count());
    if !report.is_clean() {
        return Err(format!("{:#?}", report.violations));
    }
    let live = |s: ProcessId| Some(s.index() as u32) != victim;
    for (i, got) in g.delivered().iter().enumerate() {
        if live(p(i as u32)) && got.iter().filter(|d| live(d.sender)).count() != live_ops {
            return Err(format!(
                "survivor p{i} delivered {got:?}: not all {live_ops} live messages"
            ));
        }
    }
    Ok(())
}

/// A link that drops everything.
fn dead_link() -> LinkModel {
    LinkModel {
        drop_prob: 1.0,
        ..LinkModel::lan()
    }
}

/// Crashes `victim` at `at_us`, with its link to one peer (the `deaf`-th
/// after it) dead for the 5 ms before: whatever it sends last — data, acks —
/// reaches two of its three peers, as if the crash had caught it between
/// two sends.
fn crash_mid_send(victim: u32, at_us: u64, deaf: u32) -> Schedule {
    let dead = dead_link();
    let peer = p((victim + 1 + deaf) % 4);
    Schedule::new()
        .set_link(
            Time::from_micros(at_us.saturating_sub(5_000)),
            p(victim),
            peer,
            dead,
        )
        .crash(Time::from_micros(at_us), p(victim))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random class assignment over a random conflict relation, random
    /// senders and send times — and, in half the cases, one member crashing
    /// mid-send somewhere *among* the ops (f = 1 < n/3 for n = 4), so that
    /// an origin can die with its message half-diffused and an acker with
    /// its acks half-sent. All survivors must deliver the same set, holding every
    /// message of every surviving sender, and agree on the relative order of
    /// every conflicting pair.
    #[test]
    fn conflict_order_holds_for_random_workloads(
        seed in 0u64..5000,
        conflict_pairs in proptest::collection::vec((0u16..3, 0u16..3), 0..5),
        ops in proptest::collection::vec((0u32..4, 0u16..3, 0u64..60), 1..25),
        crash in proptest::option::of((0u32..4, 1_000u64..62_000, 0u32..3)),
    ) {
        let mut relation = ConflictRelation::none(3);
        for (a, b) in conflict_pairs {
            relation.set_conflict(MessageClass(a), MessageClass(b));
        }
        let mut cfg = StackConfig::default();
        cfg.conflict = relation;
        cfg.monitoring_timeout = TimeDelta::from_secs(3600);
        let mut g = Group::builder().members(4).stack_config(cfg).seed(seed).build();
        if let Some((victim, at_us, deaf)) = crash {
            g.apply_schedule(&crash_mid_send(victim, at_us, deaf));
        }
        for (sender, class, at_ms) in &ops {
            g.gbcast_at(
                Time::from_millis(1 + at_ms),
                p(*sender),
                MessageClass(*class),
                vec![*class as u8],
            );
        }
        g.run_until(Time::from_secs(8));
        let victim = crash.map(|(v, ..)| v);
        let live_ops = ops.iter().filter(|(s, ..)| Some(*s) != victim).count();
        if let Err(e) = check_survivors(&g, victim, live_ops) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// With one crashed member (f = 1 < n/3 for n = 4) — before the ops, or
    /// between two of them, to the microsecond — the survivors still agree
    /// on conflicting pairs, on the delivered set, and still terminate.
    #[test]
    fn conflict_order_survives_a_crash(
        seed in 0u64..5000,
        victim in 0u32..4,
        deaf in 0u32..3,
        crash_us in 15_000u64..62_000,
        ops in proptest::collection::vec((0u32..4, 0u16..2, 0u64..40), 1..15),
    ) {
        let mut relation = ConflictRelation::none(2);
        relation.set_conflict(MessageClass(1), MessageClass(1));
        relation.set_conflict(MessageClass(0), MessageClass(1));
        let mut cfg = StackConfig::default();
        cfg.conflict = relation;
        cfg.monitoring_timeout = TimeDelta::from_secs(3600);
        let mut g = Group::builder().members(4).stack_config(cfg).seed(seed).build();
        g.apply_schedule(&crash_mid_send(victim, crash_us, deaf));
        for (sender, class, at_ms) in &ops {
            g.gbcast_at(
                Time::from_millis(20 + at_ms),
                p(*sender),
                MessageClass(*class),
                vec![*class as u8],
            );
        }
        g.run_until(Time::from_secs(8));
        // Senders that crash may or may not get their message out; only
        // live senders count for the termination check.
        let live_ops = ops.iter().filter(|(s, ..)| *s != victim).count();
        if let Err(e) = check_survivors(&g, Some(victim), live_ops) {
            return Err(TestCaseError::fail(e));
        }
    }
}

/// The crash the on-suspicion relay exists for: the origin dies with its
/// message half-diffused. n = 5 (fast quorum 4 = every survivor), p0's
/// links to `cut_off` are dead when it g-broadcasts, and p0 crashes 3 ms
/// later. Nothing is relayed while p0 is trusted; once the failure detector
/// speaks, the processes that hold the message — whether it is still
/// pending there (two holders: three acks, no quorum) or already
/// g-delivered (three holders: a quorum without the one that was cut off) —
/// relay it, and every survivor fast-delivers it without any consensus.
#[test]
fn message_of_an_origin_that_crashes_mid_diffusion_reaches_every_survivor() {
    let dead = dead_link();
    for cut_off in [&[3u32, 4][..], &[4]] {
        let mut cfg = StackConfig::default();
        cfg.monitoring_timeout = TimeDelta::from_secs(3600);
        let mut g = Group::builder()
            .members(5)
            .stack_config(cfg)
            .seed(31)
            .build();
        let schedule = cut_off
            .iter()
            .fold(Schedule::new(), |s, &q| {
                s.set_link(Time::from_millis(49), p(0), p(q), dead)
            })
            .crash(Time::from_millis(53), p(0));
        g.apply_schedule(&schedule);
        g.gbcast_at(
            Time::from_millis(50),
            p(0),
            MessageClass::RBCAST,
            b"orphan".to_vec(),
        );
        g.run_until(Time::from_millis(60));
        assert_eq!(
            g.metrics().sent_of_kind("gb/data"),
            4,
            "the origin's own sends, no relay while it is trusted"
        );
        for &q in cut_off {
            assert!(g.delivered()[q as usize].is_empty(), "p{q} has no copy yet");
        }
        g.run_until(Time::from_millis(150));
        for q in 1..5 {
            let got = &g.delivered()[q];
            assert_eq!(got.len(), 1, "p{q} (cut off: {cut_off:?}): {got:?}");
            assert_eq!(
                (got[0].sender, got[0].kind),
                (p(0), DeliveryKind::GenericFast)
            );
        }
        assert_eq!(g.metrics().sent_matching(|k| k.starts_with("ct/")), 0);

        // Conflicting traffic afterwards closes the epoch among the four
        // survivors; the orphan keeps its place before it everywhere.
        for q in 1..5u32 {
            g.gbcast_at(
                Time::from_millis(200),
                p(q),
                MessageClass::ABCAST,
                vec![q as u8],
            );
        }
        g.run_until(Time::from_secs(3));
        check_survivors(&g, Some(0), 4).unwrap();
        assert!(g.views().iter().all(|v| v.is_empty()), "no view change");
    }
}

/// The conflict-free best case must not get slower as it goes on: no epoch
/// ever closes, so `acked` only grows, and per-message work that walks it
/// (the old conflict scan) makes a run quadratic — in a release build 8,000
/// ops cost 6.8× the wall time per op of 2,000 before the per-class
/// counters, 0.9× since. Within 3× is wide enough for a noisy host and
/// narrow enough to catch the scan coming back.
#[test]
fn conflict_free_gbcast_cost_per_op_does_not_grow_with_the_epoch() {
    let ns_per_op = |ops: u64| {
        let best_of_two = (0..2).map(|_| {
            let mut g = Group::builder().members(5).seed(3).build();
            for i in 0..ops {
                g.gbcast_at(
                    Time::from_micros(1_000 + 500 * i),
                    p((i % 5) as u32),
                    MessageClass::RBCAST,
                    vec![i as u8],
                );
            }
            let started = std::time::Instant::now();
            g.run_until(Time::from_micros(101_000 + 500 * ops));
            let wall = started.elapsed();
            assert_eq!(g.delivery_count(), 5 * ops, "everything g-delivered");
            wall.as_nanos() as u64 / ops
        });
        best_of_two.min().expect("two runs")
    };
    let (short, long) = (ns_per_op(2_000), ns_per_op(8_000));
    assert!(
        long <= 3 * short,
        "{long} ns/op over 8,000 ops vs {short} ns/op over 2,000"
    );
}

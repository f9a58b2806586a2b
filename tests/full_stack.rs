//! F9 — the full Fig 9 architecture end to end: joins with state transfer,
//! exclusion through the monitoring component, output-triggered suspicion,
//! and group communication properties across many seeds.

use gcs::api::Observation;
use gcs::core::{DeliveryKind, StackConfig};
use gcs::kernel::{ProcessId, Time, TimeDelta};
use gcs::{Group, GroupTransport, InvariantChecker};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// End-to-end life of a group: traffic, a join, a crash, an exclusion —
/// everything through the ordinary ordered-message machinery.
#[test]
fn join_crash_exclude_lifecycle() {
    let mut cfg = StackConfig::default();
    cfg.monitoring_timeout = TimeDelta::from_millis(250);
    cfg.state_size = 1024;
    let mut g = Group::builder()
        .members(3)
        .joiners(1)
        .stack_config(cfg)
        .seed(900)
        .build();

    for i in 0..30u64 {
        g.abcast_at(
            Time::from_millis(5 + 10 * i),
            p((i % 2) as u32),
            vec![i as u8],
        );
    }
    g.join_at(Time::from_millis(60), p(3), p(1));
    g.crash_at(Time::from_millis(150), p(2));
    g.run_until(Time::from_secs(3));

    // Views: everyone alive converges to v2 = {p0, p1, p3}.
    let mut finals = Vec::new();
    for i in [0u32, 1, 3] {
        let v = g.views()[i as usize]
            .last()
            .expect("views installed")
            .clone();
        finals.push(v);
    }
    assert!(
        finals.windows(2).all(|w| w[0] == w[1]),
        "view agreement: {finals:?}"
    );
    assert_eq!(finals[0].members.len(), 3);
    assert!(!finals[0].contains(p(2)));

    // Ordering: members deliver the same totally ordered sequence.
    let seqs = g.adelivered_payloads();
    assert_eq!(
        seqs[0].len(),
        30,
        "all stream messages delivered: {:?}",
        seqs[0].len()
    );
    let report = InvariantChecker::check(&g, 3);
    assert!(report.is_clean(), "{:#?}", report.violations);
}

/// Group communication properties hold across seeds and fault schedules
/// (the repeated-seed harness is the paper-scale confidence check).
#[test]
fn properties_across_seeds() {
    for seed in 0..12u64 {
        let mut cfg = StackConfig::default();
        cfg.monitoring_timeout = TimeDelta::from_secs(3600);
        let mut g = Group::builder()
            .members(5)
            .stack_config(cfg)
            .seed(seed)
            .build();
        let crash_victim = p((seed % 5) as u32);
        g.crash_at(Time::from_millis(20 + (seed % 7) * 13), crash_victim);
        for i in 0..15u32 {
            let sender = p(1 + (seed as u32 + i) % 4);
            if sender != crash_victim {
                g.abcast_at(
                    Time::from_millis(5 + 7 * i as u64),
                    sender,
                    vec![i as u8, seed as u8],
                );
            }
        }
        g.run_until(Time::from_secs(4));
        let report = InvariantChecker::check(&g, 5);
        assert!(report.is_clean(), "seed {seed}: {:#?}", report.violations);
    }
}

/// Output-triggered suspicion (§3.3.2): with the FD's monitoring class
/// silent for an hour, a crashed peer is still excluded because the
/// reliable channel reports it stuck.
#[test]
fn output_triggered_exclusion() {
    let mut cfg = StackConfig::default();
    cfg.monitoring_timeout = TimeDelta::from_secs(3600); // FD class never fires
    cfg.rc.stuck_after = TimeDelta::from_millis(200);
    let mut g = Group::builder()
        .members(3)
        .stack_config(cfg)
        .seed(901)
        .build();
    g.crash_at(Time::from_millis(30), p(2));
    // Keep sending so the reliable channel accumulates unacked messages.
    for i in 0..40u64 {
        g.abcast_at(Time::from_millis(5 + 15 * i), p(0), vec![i as u8]);
    }
    g.run_until(Time::from_secs(4));
    let v = g.views()[0].last().expect("exclusion happened").clone();
    assert!(
        !v.contains(p(2)),
        "stuck peer excluded via output-triggered suspicion"
    );
}

/// FIFO generic broadcast (paper footnote 9): every member delivers each
/// sender's messages in broadcast order, across seeds and regardless of
/// acknowledgement races.
#[test]
fn fifo_generic_broadcast_per_sender_order() {
    for seed in 0..8u64 {
        let mut cfg = StackConfig::default();
        // Nothing conflicts: ack races could invert a sender's messages, the
        // FIFO hold-back must not let them.
        cfg.conflict = gcs::core::ConflictRelation::none(4);
        let mut g = Group::builder()
            .members(4)
            .stack_config(cfg)
            .seed(seed)
            .build();
        for i in 0..10u32 {
            // Two rapid-fire messages per sender per round.
            g.gbcast_at(
                Time::from_micros(500 + 100 * i as u64),
                p(i % 4),
                gcs::core::MessageClass(0),
                vec![i as u8],
            );
        }
        g.run_until(Time::from_secs(3));
        for (i, seq) in g.delivered().iter().enumerate() {
            assert_eq!(seq.len(), 10, "seed {seed}: p{i} delivered all");
        }
        // Per-sender sequence numbers must be increasing: the oracle's
        // FIFO check covers every generic class.
        let report = InvariantChecker::check(&g, 4);
        assert!(report.is_clean(), "seed {seed}: {:#?}", report.violations);
    }
}

/// Same view delivery (§4.4): every delivery is tagged with the view id in
/// which it happened, and deliveries never precede the view they claim.
#[test]
fn same_view_delivery_tagging() {
    let mut cfg = StackConfig::default();
    cfg.monitoring_timeout = TimeDelta::from_millis(250);
    let mut g = Group::builder()
        .members(3)
        .stack_config(cfg)
        .seed(902)
        .build();
    g.crash_at(Time::from_millis(100), p(2));
    for i in 0..30u64 {
        g.abcast_at(Time::from_millis(5 + 12 * i), p(0), vec![i as u8]);
    }
    g.run_until(Time::from_secs(3));
    // At p0: reconstruct (view at delivery time) and check tags.
    let mut current_view = 0u64;
    g.observe(&mut |_, proc, o| match o {
        _ if proc != p(0) => {}
        Observation::View { id, .. } => current_view = id,
        Observation::Deliver {
            kind: DeliveryKind::Atomic,
            view,
            ..
        } => {
            assert_eq!(view, current_view, "delivery tagged with its view");
        }
        _ => {}
    });
    // And a view change did happen.
    assert!(g.views()[0].last().is_some());
}

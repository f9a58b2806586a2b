//! The new architecture under adverse network conditions: the reliable
//! channel must mask loss and duplication, and consensus must absorb the
//! resulting delays, without any ordering violation.

use gcs::core::StackConfig;
use gcs::kernel::{ProcessId, Time, TimeDelta};
use gcs::sim::{LinkModel, Topology};
use gcs::{Group, GroupTransport, InvariantChecker};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

#[test]
fn total_order_over_lossy_duplicating_links() {
    for seed in 0..5u64 {
        let mut cfg = StackConfig::default();
        cfg.monitoring_timeout = TimeDelta::from_secs(3600);
        // 10% loss + 5% duplication on every link.
        let mut g = Group::builder()
            .members(3)
            .topology(Topology::uniform(
                "uniform",
                LinkModel {
                    drop_prob: 0.10,
                    dup_prob: 0.05,
                    ..LinkModel::lan()
                },
            ))
            .stack_config(cfg)
            .seed(seed)
            .build();
        for i in 0..12u32 {
            g.abcast_at(Time::from_millis(1 + 4 * i as u64), p(i % 3), vec![i as u8]);
        }
        g.run_until(Time::from_secs(10));
        let seqs = g.adelivered_payloads();
        for (i, s) in seqs.iter().enumerate() {
            assert_eq!(s.len(), 12, "seed {seed}: p{i} delivered {} of 12", s.len());
        }
        let report = InvariantChecker::check(&g, 3);
        assert!(report.is_clean(), "seed {seed}: {:#?}", report.violations);
    }
}

#[test]
fn total_order_on_wan_latencies() {
    let mut cfg = StackConfig::default();
    // WAN delays need wider FD timeouts or everything is suspected.
    cfg.consensus_timeout = TimeDelta::from_millis(500);
    cfg.monitoring_timeout = TimeDelta::from_secs(3600);
    cfg.heartbeat_interval = TimeDelta::from_millis(50);
    cfg.rc.retransmit_after = TimeDelta::from_millis(200);
    let mut g = Group::builder()
        .members(3)
        .topology(Topology::uniform("uniform", LinkModel::wan()))
        .stack_config(cfg)
        .seed(3)
        .build();
    for i in 0..6u32 {
        g.abcast_at(
            Time::from_millis(1 + 30 * i as u64),
            p(i % 3),
            vec![i as u8],
        );
    }
    g.run_until(Time::from_secs(30));
    let seqs = g.adelivered_payloads();
    for s in &seqs {
        assert_eq!(s.len(), 6);
    }
    let report = InvariantChecker::check(&g, 3);
    assert!(report.is_clean(), "{:#?}", report.violations);
}

#[test]
fn transient_partition_heals_without_membership_change() {
    let mut cfg = StackConfig::default();
    cfg.monitoring_timeout = TimeDelta::from_secs(3600);
    let mut g = Group::builder()
        .members(3)
        .stack_config(cfg)
        .seed(11)
        .build();
    g.partition_at(Time::from_millis(20), vec![vec![p(0), p(1)], vec![p(2)]]);
    g.heal_at(Time::from_millis(300));
    for i in 0..10u32 {
        g.abcast_at(
            Time::from_millis(25 + 10 * i as u64),
            p(i % 2),
            vec![i as u8],
        );
    }
    g.run_until(Time::from_secs(5));
    let seqs = g.adelivered_payloads();
    // The majority side kept working during the partition; p2 caught up
    // after the heal (reliable channel retransmissions + consensus decide
    // replies) — all without a view change.
    for (i, s) in seqs.iter().enumerate() {
        assert_eq!(s.len(), 10, "p{i} delivered {} of 10", s.len());
    }
    let report = InvariantChecker::check(&g, 3);
    assert!(report.is_clean(), "{:#?}", report.violations);
    assert!(
        g.views().iter().all(|v| v.is_empty()),
        "no exclusion for a transient outage"
    );
}

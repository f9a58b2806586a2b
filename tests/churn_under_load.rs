//! Churn under load: the abcast stream must stay live and agreement must
//! hold while one process joins and another is removed mid-stream — the
//! scenario-engine counterpart of the paper's §4.4 claim that membership
//! changes never block the ordinary message flow.

use gcs::core::StackConfig;
use gcs::kernel::{ProcessId, Time, TimeDelta};
use gcs::sim::Schedule;
use gcs::{Group, GroupTransport, InvariantChecker};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// A 60-message stream from the three surviving senders; p4 joins at 100 ms
/// and p3 is removed at 200 ms, both while the stream is running.
#[test]
fn abcast_stream_stays_live_through_join_and_removal() {
    for seed in [1u64, 5, 9] {
        let mut cfg = StackConfig::default();
        cfg.monitoring_timeout = TimeDelta::from_secs(3600); // churn is scripted
        let mut g = Group::builder()
            .members(4)
            .joiners(1)
            .stack_config(cfg)
            .schedule(
                Schedule::new()
                    .join(Time::from_millis(100), p(4), p(1))
                    .remove(Time::from_millis(200), p(0), p(3)),
            )
            .seed(seed)
            .build();
        let msgs = 60u32;
        for i in 0..msgs {
            // Senders p0..p2 only: the removal victim must not be relied on.
            g.abcast_at(Time::from_millis(2 + 5 * i as u64), p(i % 3), vec![i as u8]);
        }
        g.run_until(Time::from_secs(4));

        let seqs = g.adelivered_payloads();
        // Liveness: the stream outlives both membership changes (the last
        // message is injected at ~300 ms, well after the removal).
        for i in [0usize, 1, 2] {
            assert_eq!(
                seqs[i].len(),
                msgs as usize,
                "seed {seed}: p{i} delivered {} of {msgs}",
                seqs[i].len()
            );
        }
        // The joiner took part in the post-join suffix of the stream.
        assert!(!seqs[4].is_empty(), "seed {seed}: joiner delivered nothing");
        // The removed member stopped receiving once its removal was ordered.
        assert!(
            seqs[3].len() < msgs as usize,
            "seed {seed}: removed member kept delivering"
        );

        // Agreement + order across everyone who is still a member.
        let report = InvariantChecker::check(&g, 4);
        assert!(report.is_clean(), "seed {seed}: {:#?}", report.violations);
        // The joiner's deliveries are a contiguous suffix of the agreed
        // total order (same view delivery: it missed only the pre-join
        // prefix covered by its state-transfer snapshot).
        assert!(
            seqs[0].ends_with(&seqs[4]),
            "seed {seed}: joiner sequence is not a suffix of the total order"
        );

        // Views converged on {p0, p1, p2, p4} at every surviving member.
        for i in [0usize, 1, 2, 4] {
            let v = g.views()[i]
                .last()
                .unwrap_or_else(|| panic!("seed {seed}: p{i} installed no view"))
                .clone();
            assert!(
                v.contains(p(4)),
                "seed {seed}: p{i} final view lacks joiner"
            );
            assert!(
                !v.contains(p(3)),
                "seed {seed}: p{i} still lists the removed"
            );
            assert_eq!(v.members.len(), 4, "seed {seed}: p{i} view size");
        }
    }
}

/// The same churn timeline expressed through the scenario engine's
/// `ChurnWorkload` keeps its liveness guarantee on a WAN topology.
#[test]
fn churn_on_wan_topology_stays_live() {
    use gcs::sim::Topology;
    let mut cfg = StackConfig::default();
    cfg.monitoring_timeout = TimeDelta::from_secs(3600);
    // WAN delays need wider timeouts (as in the adverse-network tests).
    cfg.consensus_timeout = TimeDelta::from_millis(500);
    cfg.heartbeat_interval = TimeDelta::from_millis(50);
    cfg.rc.retransmit_after = TimeDelta::from_millis(200);
    let mut g = Group::builder()
        .members(4)
        .joiners(1)
        .topology(Topology::wan_2dc())
        .stack_config(cfg)
        .schedule(
            Schedule::new()
                .join(Time::from_millis(150), p(4), p(1))
                .remove(Time::from_millis(400), p(0), p(3)),
        )
        .seed(21)
        .build();
    for i in 0..30u32 {
        g.abcast_at(
            Time::from_millis(2 + 20 * i as u64),
            p(i % 3),
            vec![i as u8],
        );
    }
    g.run_until(Time::from_secs(20));
    let seqs = g.adelivered_payloads();
    for i in [0usize, 1, 2] {
        assert_eq!(seqs[i].len(), 30, "p{i} delivered {} of 30", seqs[i].len());
    }
    assert!(!seqs[4].is_empty(), "joiner participated across the WAN");
    let v = g.views()[0].last().expect("view installed").clone();
    assert!(v.contains(p(4)) && !v.contains(p(3)));
}

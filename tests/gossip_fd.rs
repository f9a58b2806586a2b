//! Property-based whole-system tests of gossip failure detection at scale:
//! for random group sizes, seeds and crash times, a crash is suspected by
//! **every** correct process within the topology-derived bound, and a quiet
//! group never suspects anyone (◇S completeness and — on a loss-free LAN —
//! eventual accuracy, paper §3.3).

use gcs::core::StackConfig;
use gcs::kernel::{fanout, ProcessId, Time, TimeDelta, SCALE_THRESHOLD};
use gcs::{Group, GroupTransport};
use proptest::prelude::*;

/// The crash-to-"suspected by all correct" latency bound for a gossip
/// detector over a loss-free LAN, derived from the stack configuration:
///
/// * an observer's freshest evidence of the victim can be up to one
///   rotation cycle old at the crash instant (direct probes hit each peer
///   once per cycle),
/// * the suspicion deadline then needs the *effective* timeout (registered
///   timeout + one rotation cycle of slack) to pass,
/// * and the sweep that surfaces it runs on the next tick,
///
/// plus one interval of margin for the LAN's sub-millisecond delivery
/// delay. Measured detection sits well under this (digests refresh
/// last-heard times between direct probes).
fn detection_bound(cfg: &StackConfig, n: usize) -> TimeDelta {
    let peers = n - 1;
    let cycle = cfg
        .heartbeat_interval
        .saturating_mul(peers.div_ceil(fanout(n, peers)) as u64);
    cfg.consensus_timeout + cycle + cycle + cfg.heartbeat_interval + cfg.heartbeat_interval
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Strong completeness at scale: a crashed member is suspected by every
    /// correct member within the derived bound, for random group sizes
    /// above the gossip threshold, random victims and random crash times.
    #[test]
    fn crash_is_suspected_by_all_correct_within_bound(
        n in (SCALE_THRESHOLD + 1)..48usize,
        seed in 0u64..1000,
        victim in 0u32..200,
        crash_ms in 40u64..120,
    ) {
        let victim = ProcessId::new(victim % n as u32);
        let crash_at = Time::from_millis(crash_ms);
        let mut cfg = StackConfig::default();
        cfg.monitoring_timeout = TimeDelta::from_secs(3600);
        cfg.trace_suspicions = true;
        let bound = detection_bound(&cfg, n);
        prop_assert!(fanout(n, n - 1) < n - 1, "the detector gossips at n = {n}");

        let mut g = Group::builder()
            .members(n)
            .stack_config(cfg)
            .seed(seed)
            .build();
        g.crash_at(crash_at, victim);
        g.run_until(crash_at + bound);

        let suspicions = g.suspicion_trace();
        for i in 0..n as u32 {
            let observer = ProcessId::new(i);
            if observer == victim {
                continue;
            }
            let first = suspicions
                .iter()
                .find(|&&(t, o, s)| o == observer && s == victim && t >= crash_at)
                .map(|&(t, _, _)| t);
            prop_assert!(
                first.is_some(),
                "p{i} never suspected the victim within {:?} (n={n}, seed={seed})",
                bound
            );
        }
    }

    /// Eventual strong accuracy on a quiet loss-free LAN: with every member
    /// alive and heartbeating, no consensus-class suspicion is ever raised
    /// — gossip rotation, digest merging and the extended timeout never
    /// produce a false positive.
    #[test]
    fn quiet_lan_raises_no_false_suspicion(
        n in (SCALE_THRESHOLD + 1)..64usize,
        seed in 0u64..1000,
    ) {
        let mut cfg = StackConfig::default();
        cfg.monitoring_timeout = TimeDelta::from_secs(3600);
        cfg.trace_suspicions = true;
        let mut g = Group::builder()
            .members(n)
            .stack_config(cfg)
            .seed(seed)
            .build();
        g.run_until(Time::from_secs(1));
        let suspicions = g.suspicion_trace();
        prop_assert!(
            suspicions.is_empty(),
            "false suspicions on a quiet LAN: {suspicions:?}"
        );
    }
}

//! Scenario determinism: the same seed + the same `Schedule`/`Topology`
//! must yield bit-identical event counts and delivery orders across runs.
//!
//! The scenario report's fingerprint folds every delivery
//! (virtual time, process, full payload) plus the executed-event count, so
//! equal fingerprints mean equal delivery orders, not just equal totals.

use gcs_api::StackKind;
use gcs_bench::scenario::{catalog, Scenario};
use gcs_bench::workload::UniformWorkload;
use gcs_kernel::{ProcessId, Time};
use gcs_sim::{Schedule, Topology, TOPOLOGY_PRESETS};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary (seed, topology preset, crash/partition schedule): two runs
    /// of the same scenario are indistinguishable.
    #[test]
    fn same_seed_schedule_topology_is_bit_identical(
        seed in any::<u64>(),
        preset in 0usize..TOPOLOGY_PRESETS.len(),
        crash_ms in proptest::option::of(20u64..150),
        partition in proptest::option::of((20u64..100, 60u64..200)),
    ) {
        let topology = Topology::by_name(TOPOLOGY_PRESETS[preset]).unwrap();
        let mut schedule = Schedule::new();
        if let Some(c) = crash_ms {
            schedule = schedule.crash(Time::from_millis(c), ProcessId::new(3));
        }
        if let Some((start, extra)) = partition {
            schedule = schedule
                .partition_regions(Time::from_millis(start))
                .heal(Time::from_millis(start + extra));
        }
        let scenario = Scenario {
            name: "prop",
            about: "randomized determinism case",
            stack: StackKind::NewArch,
            n: 4,
            joiners: 0,
            topology,
            workload: Box::new(UniformWorkload::steady(30, 3)),
            schedule,
            horizon: Time::from_secs(2),
        };
        let a = scenario.run(seed);
        let b = scenario.run(seed);
        prop_assert_eq!(a.fingerprint, b.fingerprint, "delivery orders differ");
        prop_assert_eq!(a.events, b.events, "event counts differ");
        prop_assert_eq!(a.deliveries, b.deliveries);
        prop_assert_eq!(a.msgs, b.msgs);
        prop_assert_eq!(a.bytes, b.bytes);
    }

    /// Churn schedules (join + remove under load) are deterministic too —
    /// the membership path goes through consensus, which must not leak any
    /// nondeterminism into the trace.
    #[test]
    fn churn_schedule_is_deterministic(seed in any::<u64>()) {
        let make = || Scenario {
            name: "prop-churn",
            about: "randomized churn determinism case",
            stack: StackKind::NewArch,
            n: 4,
            joiners: 1,
            topology: Topology::lan(),
            workload: Box::new(UniformWorkload::steady(30, 3)),
            schedule: Schedule::new()
                .join(Time::from_millis(30), ProcessId::new(4), ProcessId::new(1))
                .remove(Time::from_millis(60), ProcessId::new(0), ProcessId::new(3)),
            horizon: Time::from_secs(2),
        };
        let a = make().run(seed);
        let b = make().run(seed);
        prop_assert_eq!(a.fingerprint, b.fingerprint);
        prop_assert_eq!(a.events, b.events);
    }
}

/// Every cataloged scenario is reproducible at a fixed seed (the cheap,
/// non-randomized guard the CI smoke relies on): equal fingerprints — every
/// delivery's time, process and payload — equal counts.
#[test]
fn catalog_scenarios_reproduce_at_fixed_seed() {
    for s in catalog() {
        // The at-scale points (n > 64) cost seconds per run, so they run
        // once, not twice: `uniform-lan-256` is a row of the golden table
        // below, and CI's scale smoke fails unless `repro scenario
        // uniform-lan-1024` prints its recorded fingerprint.
        if s.n > 64 {
            continue;
        }
        let a = s.run(11);
        let b = s.run(11);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "{}: delivery orders differ",
            s.name
        );
        assert_eq!(a.events, b.events, "{}: event counts differ", s.name);
        assert_eq!(a.deliveries, b.deliveries, "{}", s.name);
        assert_eq!(a.msgs, b.msgs, "{}", s.name);
        assert_eq!(a.bytes, b.bytes, "{}", s.name);
    }
}

/// `repro sweep 1 7` at the commit the table was last recorded at, one row
/// per catalog scenario with n ≤ 256, each followed by
/// the run's wire-byte total (which the sweep does not print). A refactor
/// that claims to change no protocol byte holds this table unchanged; a PR
/// that changes behaviour re-records it by pasting the rows the failing
/// test prints. (PR 26 re-recorded three rows, all of runs with suspicions:
/// `uniform-wan3` and `partition-heal-wan3` +16 B — four consensus messages
/// name a round-0 coordinator other than p0 — and `rolling-restart-wan3`, whose
/// instances after each restart no longer start at a dead coordinator.)
///
/// Later, every new-architecture row but two was re-recorded because the
/// reliable channel now sends one packet per peer per dispatch step. The
/// msgs column counts packets, and a coordinator's `Decide(k)` shares one
/// with its `Propose(k+1)`. The proposal then arrives one delay earlier.
/// So instances start earlier, batch fewer ops each, and every time,
/// fingerprint and byte total after the first bundle shifts. Per row:
/// - `uniform-lan`, `skewed-lan`, `uniform-wan2dc`, `uniform-wan3`,
///   `lossy-lan`, `partition-heal-wan3`: fewer packets (−115 to −1,396).
///   Each instance opened while the pool is non-empty saves n−1 of them.
/// - `churn-lan`, `churn-wan2dc`: fewer packets, and `churn-wan2dc`
///   delivers 428 rather than 436. When the joiner is admitted and the
///   removed member leaves depends on consensus timing, and so does how
///   many ops each of them delivers.
/// - `flaky-churn`: +109 packets and one delivery more. The removed p3
///   probes every peer it holds unacknowledged messages for, one packet a
///   round, for the rest of the run. Its last `ct/ack` to p0 now crosses
///   its removal, so p0 is probed too: 186 single-message retransmissions,
///   each counted as a `ct/ack`.
/// - `rolling-restart-wan3`: −550 packets, but mean and p99 rise (275 →
///   287 ms, 506 → 639 ms). That is this seed. Over seeds 1–10 the mean is
///   level (279.97 → 280.50 ms) and the p99 rises 549 → 588 ms.
/// - `generic-lan`: −1,998 packets. Its conflicts are settled by
///   consensus, and a process that then handles several messages in one
///   step sends each peer its `gb/ack`s, and the decision, in one packet
///   (runs of 4–7 `gb/ack`s). In `uniform-lan` every bundle is a
///   `ct/decide` with the next `ct/propose`.
///
/// The `uniform-lan-256` row (gossip failure detection, bounded relay,
/// one crash; ≈ 6 s in a debug build) was added later, recorded unchanged
/// from the commit before it.
///
/// `large-payload-lan` (one op per 5 ms, every decision finds the pool
/// empty), `generic-lan-0` (no consensus, and its `gb/ack`s go to distinct
/// peers) and every Isis and token row are byte-identical to the parent.
const GOLDEN_SEED_7: &str = "\
| uniform-lan | 7 | 200 | 1600 | 2.71 | 3.84 | 15578 | 18226 | 0 | 8884b933d74b10a0 | 489358
| skewed-lan | 7 | 200 | 1600 | 2.54 | 3.82 | 15359 | 17976 | 0 | 389d16d91d0d3d0a | 484326
| large-payload-lan | 7 | 60 | 480 | 4.06 | 5.30 | 23848 | 28712 | 0 | b0c6cef1cf37b931 | 58910048
| uniform-wan2dc | 7 | 150 | 1200 | 88.97 | 136.29 | 37233 | 44515 | 0 | 0cc63862db3d0e78 | 876796
| uniform-wan3 | 7 | 150 | 1350 | 146.82 | 267.90 | 77328 | 90403 | 0 | ec8c4a17b08e05f1 | 1893678
| lossy-lan | 7 | 150 | 1200 | 9.56 | 37.56 | 36364 | 43052 | 0 | ca8b270f52d741eb | 759806
| churn-lan | 7 | 150 | 661 | 2.44 | 3.93 | 8317 | 11492 | 0 | c114a8bc649754fe | 251412
| churn-wan2dc | 7 | 100 | 428 | 66.83 | 144.54 | 14029 | 20116 | 0 | 4dd17c41bda11899 | 569330
| flaky-churn | 7 | 120 | 538 | 10.46 | 55.72 | 14737 | 20466 | 0 | 60fd8fc61c574b11 | 361318
| rolling-restart-wan3 | 7 | 90 | 810 | 286.86 | 638.59 | 150022 | 168127 | 0 | 3809806c137c4aff | 3484246
| partition-heal-wan3 | 7 | 100 | 900 | 425.34 | 711.40 | 120005 | 134858 | 0 | 7ca993f4e1dea358 | 2714124
| generic-lan | 7 | 2000 | 10000 | 1.70 | 4.50 | 47266 | 52346 | 0 | 2b998ab79da6527d | 5325774
| generic-lan-0 | 7 | 8000 | 40000 | 1.55 | 2.11 | 183057 | 198537 | 0 | 5af82542cd4de7da | 9161368
| uniform-lan-isis | 7 | 200 | 1600 | 1.23 | 2.21 | 14000 | 15744 | 0 | cfec7a3ba7dc5608 | 271600
| uniform-lan-token | 7 | 200 | 1608 | 3.43 | 7.00 | 2850 | 29713 | 0 | 788fc30113c58936 | 93600
| churn-lan-isis | 7 | 150 | 679 | 1.46 | 19.32 | 6022 | 8162 | 0 | 01e4a989b54d1267 | 114296
| churn-lan-token | 7 | 150 | 664 | 2.09 | 4.59 | 3402 | 36883 | 0 | 559f8e24adb171c4 | 101364
| uniform-wan3-isis | 7 | 150 | 1350 | 144.31 | 869.69 | 16360 | 18089 | 0 | ec6ecc6fd2cbb621 | 307252
| uniform-wan3-token | 7 | 150 | 1359 | 342.73 | 1044.41 | 1545 | 241685 | 0 | aea2d30305dcbe71 | 61932
| partition-heal-wan3-isis | 7 | 90 | 604 | 67.04 | 414.94 | 27382 | 28041 | 0 | 2daf1deff06dd816 | 466540
| uniform-lan-256 | 7 | 50 | 13042 | 2.85 | 3.71 | 452052 | 526658 | 0 | 9730d3bd1246a818 | 48563122";

/// Bit-identical behaviour, as a committed value instead of a by-hand
/// comparison against a scratch checkout of the parent commit.
#[test]
fn catalog_matches_the_golden_table_at_seed_7() {
    let actual: Vec<String> = catalog()
        .iter()
        .filter(|s| s.n <= 256)
        .map(|s| {
            let r = s.run(7);
            format!("{} {}", r.sweep_row(), r.bytes)
        })
        .collect();
    let golden: Vec<&str> = GOLDEN_SEED_7.lines().collect();
    assert!(
        actual == golden,
        "runs differ from the golden table; if the change is intended, re-record it as:\n{}",
        actual.join("\n")
    );
}

//! Criterion wall-clock benchmarks of whole simulated scenarios.
//!
//! These measure the *cost of simulating* each protocol configuration —
//! useful for tracking implementation regressions. The paper-facing
//! virtual-time results come from the `repro` binary (see EXPERIMENTS.md);
//! each bench here corresponds to one experiment's inner loop:
//!
//! * `abcast_steady/n`       — E1's steady state (new architecture).
//! * `isis_steady/n`         — E1's steady state (Isis baseline).
//! * `token_steady/n`        — E1's steady state (token baseline).
//! * `gb_fast_path`          — E2's 0%-conflict point (no consensus).
//! * `gb_escalation`         — E2's 100%-conflict point.
//! * `failover_new/isis`     — E3's crash-recovery scenario.
//! * `consensus_instance/n`  — A1's single-decision cost (CT, in-memory).
//! * `sim_throughput/n`      — raw simulator speed (events/sec) at n=16, 64,
//!   256 and 1024, with the counts-only trace sink (the long-run
//!   configuration); the two large points run gossip monitoring and
//!   bounded relay (`SCALE_THRESHOLD`).
//! * `scenario/<name>`       — scenario-engine variants (WAN topology,
//!   skewed senders, churn) from the `gcs_bench::scenario` catalog.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gcs_api::GroupTransport;
use gcs_core::{ConflictRelation, GroupSim, MessageClass, StackConfig};
use gcs_kernel::{ProcessId, Time, TimeDelta};
use gcs_traditional::{IsisConfig, IsisSim, TokenConfig, TokenSim};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn abcast_steady(c: &mut Criterion) {
    let mut group = c.benchmark_group("abcast_steady");
    for n in [3usize, 5, 7] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut cfg = StackConfig::default();
                cfg.monitoring_timeout = TimeDelta::from_secs(3600);
                let mut g = GroupSim::new(n, cfg, 1);
                for i in 0..20u32 {
                    g.abcast_at(
                        Time::from_millis(1 + i as u64 * 2),
                        p(i % n as u32),
                        vec![i as u8],
                    );
                }
                g.run_until(Time::from_millis(300));
                assert_eq!(g.adelivered_payloads()[0].len(), 20);
            });
        });
    }
    group.finish();
}

fn traditional_steady(c: &mut Criterion) {
    c.bench_function("isis_steady/5", |b| {
        b.iter(|| {
            let mut sim = IsisSim::new(5, IsisConfig::default(), 1);
            for i in 0..20u32 {
                sim.abcast_at(Time::from_millis(1 + i as u64 * 2), p(i % 5), vec![i as u8]);
            }
            sim.run_until(Time::from_millis(300));
            assert_eq!(sim.adelivered_payloads()[0].len(), 20);
        });
    });
    c.bench_function("token_steady/5", |b| {
        b.iter(|| {
            let mut sim = TokenSim::new(5, TokenConfig::default(), 1);
            for i in 0..20u32 {
                sim.abcast_at(Time::from_millis(1 + i as u64 * 2), p(i % 5), vec![i as u8]);
            }
            sim.run_until(Time::from_millis(300));
            assert_eq!(sim.adelivered_payloads()[0].len(), 20);
        });
    });
}

fn generic_broadcast(c: &mut Criterion) {
    c.bench_function("gb_fast_path", |b| {
        b.iter(|| {
            let mut cfg = StackConfig::default();
            cfg.conflict = ConflictRelation::none(4);
            let mut g = GroupSim::new(4, cfg, 2);
            for i in 0..20u32 {
                g.gbcast_at(
                    Time::from_millis(1 + i as u64),
                    p(i % 4),
                    MessageClass(0),
                    vec![i as u8],
                );
            }
            g.run_until(Time::from_millis(300));
            assert_eq!(g.metrics().sent_matching(|k| k.starts_with("ct/")), 0);
        });
    });
    c.bench_function("gb_escalation", |b| {
        b.iter(|| {
            let mut cfg = StackConfig::default();
            cfg.conflict = ConflictRelation::all(4);
            let mut g = GroupSim::new(4, cfg, 2);
            for i in 0..20u32 {
                g.gbcast_at(
                    Time::from_millis(1 + i as u64),
                    p(i % 4),
                    MessageClass(0),
                    vec![i as u8],
                );
            }
            g.run_until(Time::from_secs(2));
        });
    });
}

fn failover(c: &mut Criterion) {
    c.bench_function("failover_new", |b| {
        b.iter(|| {
            let mut cfg = StackConfig::default();
            cfg.monitoring_timeout = TimeDelta::from_secs(3600);
            let mut g = GroupSim::new(3, cfg, 3);
            g.crash_at(Time::from_millis(100), p(0));
            g.abcast_at(Time::from_millis(105), p(1), b"probe".to_vec());
            g.run_until(Time::from_millis(600));
        });
    });
    c.bench_function("failover_isis", |b| {
        b.iter(|| {
            let mut sim = IsisSim::new(3, IsisConfig::default(), 3);
            sim.crash_at(Time::from_millis(100), p(0));
            sim.abcast_at(Time::from_millis(105), p(1), b"probe".to_vec());
            sim.run_until(Time::from_millis(600));
        });
    });
}

fn consensus_instance(c: &mut Criterion) {
    use gcs_consensus::{CtConsensus, CtMsg, CtOut};
    use std::collections::VecDeque;
    let mut group = c.benchmark_group("consensus_instance");
    for n in [3u32, 5, 9] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let ids: Vec<ProcessId> = (0..n).map(p).collect();
                let mut insts: Vec<CtConsensus<u64>> = ids
                    .iter()
                    .map(|&q| CtConsensus::new(q, ids.clone()))
                    .collect();
                let mut queue: VecDeque<(ProcessId, ProcessId, CtMsg<u64>)> = VecDeque::new();
                for (i, inst) in insts.iter_mut().enumerate() {
                    for o in inst.propose(i as u64) {
                        if let CtOut::Send { to, msg } = o {
                            queue.push_back((p(i as u32), to, msg));
                        }
                    }
                }
                let mut decided = 0u32;
                while let Some((from, to, msg)) = queue.pop_front() {
                    for o in insts[to.index()].on_msg(from, msg) {
                        match o {
                            CtOut::Send { to: t, msg } => queue.push_back((to, t, msg)),
                            CtOut::Decided(_) => decided += 1,
                        }
                    }
                }
                assert_eq!(decided, n);
            });
        });
    }
    group.finish();
}

fn sim_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_throughput");
    // Horizons chosen so one iteration stays well under a second even at
    // n = 64 (the repro binary's bench-pr1 runs the full one-second form).
    for (n, horizon_ms) in [(16usize, 500u64), (64, 150)] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| gcs_bench::perf::sim_throughput_counts(n, horizon_ms));
        });
    }
    group.finish();
}

fn sim_throughput_large(c: &mut Criterion) {
    // The at-scale points, gossip monitoring and bounded relay: one full
    // simulated second at n = 256 (~0.7 s/iteration) and a shorter horizon
    // at n = 1024 (~1 s/iteration) — both live in their own group with a
    // minimal sampling budget (see the `big` group config), keeping the
    // whole group in CI-friendly minutes.
    let mut group = c.benchmark_group("sim_throughput");
    group.bench_with_input(BenchmarkId::from_parameter(256usize), &256usize, |b, &n| {
        b.iter(|| gcs_bench::perf::sim_throughput_counts(n, 1000));
    });
    group.bench_with_input(
        BenchmarkId::from_parameter(1024usize),
        &1024usize,
        |b, &n| {
            b.iter(|| gcs_bench::perf::sim_throughput_counts(n, 200));
        },
    );
    group.finish();
}

fn scenarios(c: &mut Criterion) {
    // The scenario-engine variants of the throughput story: the same stack
    // under WAN topologies and skewed senders (counts-only sink, like every
    // long run).
    use gcs_bench::scenario::by_name;
    use gcs_sim::TraceMode;
    let mut group = c.benchmark_group("scenario");
    for name in ["uniform-wan3", "skewed-lan", "churn-lan"] {
        let s = by_name(name).expect("tracked scenario");
        group.bench_function(name, |b| {
            b.iter(|| s.run(7, TraceMode::CountsOnly));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    // Each iteration simulates a whole distributed scenario; keep sampling
    // modest so `cargo bench` stays in CI-friendly territory.
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = abcast_steady, traditional_steady, generic_broadcast, failover, consensus_instance,
        sim_throughput, scenarios
}
criterion_group! {
    name = big;
    // Seconds-per-iteration workloads: minimal sampling.
    config = Criterion::default()
        .sample_size(3)
        .warm_up_time(std::time::Duration::from_millis(100))
        .measurement_time(std::time::Duration::from_millis(500));
    targets = sim_throughput_large
}
criterion_main!(benches, big);

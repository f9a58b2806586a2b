//! Wall-clock perf trajectory: the workloads tracked across PRs.
//!
//! Criterion (see `benches/broadcast.rs`) is for interactive runs; this
//! module is the *recorded* trajectory — `repro bench-pr1` times the same
//! workloads with a plain `Instant` loop and emits `BENCH_PR1.json`, so
//! future PRs can diff hot-path performance against committed numbers.

use std::time::Instant;

use gcs_api::{Group, GroupTransport, StackKind};
use gcs_core::StackConfig;
use gcs_kernel::{Time, TimeDelta};
use gcs_sim::TraceMode;

use crate::scenario;
use crate::workload::{GenericWorkload, UniformWorkload, Workload};

/// One measured workload.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Workload name (matches the criterion bench id).
    pub name: &'static str,
    /// Median wall-clock nanoseconds per workload run.
    pub median_ns: u64,
    /// Minimum wall-clock nanoseconds per workload run.
    pub min_ns: u64,
    /// Simulated events executed per wall-clock second (0 when the workload
    /// does not expose an event counter).
    pub events_per_sec: u64,
}

/// What one steady-state workload run executed and delivered — the
/// denominators of the perf trajectory (events/sec) and the alloc
/// trajectory (allocations per adelivery).
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Simulation events executed.
    pub events: u64,
    /// Total payload deliveries across all processes.
    pub deliveries: u64,
}

/// The `abcast_steady/5` workload: 20 abcasts across 5 processes on the new
/// architecture, run for 300 simulated milliseconds.
pub fn abcast_steady_5() -> u64 {
    abcast_steady_5_stats().events
}

/// [`abcast_steady_5`] with the per-process delivery total (the
/// allocations-per-adelivery denominator: 20 messages × 5 processes).
pub fn abcast_steady_5_stats() -> RunStats {
    let mut cfg = StackConfig::default();
    cfg.monitoring_timeout = TimeDelta::from_secs(3600);
    let mut g = Group::builder()
        .members(5)
        .stack_config(cfg)
        .seed(1)
        .build();
    UniformWorkload::steady(20, 2).inject(5, &mut g);
    g.run_until(Time::from_millis(300));
    let delivered = g.adelivered_payloads();
    assert_eq!(delivered[0].len(), 20);
    RunStats {
        events: g.events_executed(),
        deliveries: delivered.iter().map(|s| s.len() as u64).sum(),
    }
}

/// The `gbcast_steady/5` workload: 200 conflict-free 64-byte g-broadcasts
/// at 2,000 ops/s across 5 processes — the fast path and nothing else, in
/// one epoch — with the g-delivery total (200 messages × 5 processes).
pub fn gbcast_steady_5_stats() -> RunStats {
    let mut cfg = StackConfig::default();
    cfg.monitoring_timeout = TimeDelta::from_secs(3600);
    let mut g = Group::builder()
        .members(5)
        .stack_config(cfg)
        .seed(1)
        .build();
    let mut stream = GenericWorkload::per_second(200, 2_000, 0);
    stream.base.payload = 64;
    stream.inject(5, &mut g);
    g.run_until(Time::from_millis(300));
    let deliveries = g.delivery_count();
    assert_eq!(deliveries, 1000);
    RunStats {
        events: g.events_executed(),
        deliveries,
    }
}

/// The `isis_steady/5` workload: the same 20-abcast steady state on the
/// Isis-style baseline.
pub fn isis_steady_5() -> u64 {
    isis_steady_5_stats().events
}

/// [`isis_steady_5`] with the delivery total.
pub fn isis_steady_5_stats() -> RunStats {
    let mut sim = Group::builder()
        .members(5)
        .stack(StackKind::Isis)
        .seed(1)
        .build();
    UniformWorkload::steady(20, 2).inject(5, &mut sim);
    sim.run_until(Time::from_millis(300));
    let delivered = sim.adelivered_payloads();
    assert_eq!(delivered[0].len(), 20);
    let deliveries = delivered.iter().map(|s| s.len() as u64).sum();
    RunStats {
        events: sim.events_executed(),
        deliveries,
    }
}

/// The `token_steady/5` workload on the token-ring baseline.
pub fn token_steady_5() -> u64 {
    token_steady_5_stats().events
}

/// [`token_steady_5`] with the delivery total.
pub fn token_steady_5_stats() -> RunStats {
    let mut sim = Group::builder()
        .members(5)
        .stack(StackKind::Token)
        .seed(1)
        .build();
    UniformWorkload::steady(20, 2).inject(5, &mut sim);
    sim.run_until(Time::from_millis(300));
    let delivered = sim.adelivered_payloads();
    assert_eq!(delivered[0].len(), 20);
    let deliveries = delivered.iter().map(|s| s.len() as u64).sum();
    RunStats {
        events: sim.events_executed(),
        deliveries,
    }
}

/// The `sim_throughput/n` workload: a saturated steady state (heartbeats,
/// reliable-channel ticks, a rolling abcast load) at group size `n`, run for
/// one simulated second. Returns events executed.
pub fn sim_throughput(n: usize) -> u64 {
    let mut cfg = StackConfig::default();
    cfg.monitoring_timeout = TimeDelta::from_secs(3600);
    let mut g = Group::builder()
        .members(n)
        .stack_config(cfg)
        .seed(7)
        .build();
    UniformWorkload::steady(50, 4).inject(n, &mut g);
    g.run_until(Time::from_secs(1));
    assert_eq!(g.adelivered_payloads()[0].len(), 50);
    g.events_executed()
}

/// The criterion-group variant of [`sim_throughput`]: counts-only trace sink
/// (the configuration long throughput runs should use — the full sink would
/// accumulate an unbounded entry `Vec`) and a configurable horizon so the
/// `n = 64` and `n = 256` points stay CI-friendly. Returns events executed.
pub fn sim_throughput_counts(n: usize, horizon_ms: u64) -> u64 {
    let mut cfg = StackConfig::default();
    cfg.monitoring_timeout = TimeDelta::from_secs(3600);
    let mut g = Group::builder()
        .members(n)
        .stack_config(cfg)
        .trace(TraceMode::CountsOnly)
        .seed(7)
        .build();
    UniformWorkload::steady(50, 4).inject(n, &mut g);
    g.run_until(Time::from_millis(horizon_ms));
    assert!(g.delivery_count() >= 50, "deliveries happened");
    g.events_executed()
}

/// Times `workload` (which returns its executed-event count) over `reps`
/// runs (at least one) after one warm-up, reporting median/min and
/// events-per-second.
pub fn measure(name: &'static str, reps: usize, workload: impl Fn() -> u64) -> Measurement {
    let events = workload(); // warm-up, and capture the event count
    let mut samples_ns: Vec<u64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(workload());
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples_ns.sort_unstable();
    let median_ns = samples_ns[samples_ns.len() / 2];
    let min_ns = samples_ns[0];
    let events_per_sec = events
        .saturating_mul(1_000_000_000)
        .checked_div(median_ns)
        .unwrap_or(0);
    Measurement {
        name,
        median_ns,
        min_ns,
        events_per_sec,
    }
}

/// Runs the full PR-1 measurement set.
pub fn run_all(reps: usize) -> Vec<Measurement> {
    vec![
        measure("abcast_steady/5", reps, abcast_steady_5),
        measure("isis_steady/5", reps, isis_steady_5),
        measure("token_steady/5", reps, token_steady_5),
        measure("sim_throughput/16", reps.min(10), || sim_throughput(16)),
        measure("sim_throughput/64", reps.clamp(1, 3), || sim_throughput(64)),
    ]
}

/// The scenario names tracked by the PR-2 trajectory (`repro bench-pr2`).
pub const PR2_SCENARIOS: &[&str] = &[
    "uniform-lan",
    "skewed-lan",
    "large-payload-lan",
    "uniform-wan3",
    "churn-lan",
];

/// Runs the PR-2 measurement set: the scenario-engine matrix (counts-only
/// trace sink, seed 7) plus the `sim_throughput/64` hot-path guard, which
/// must stay within noise of the `BENCH_PR1.json` figure.
pub fn run_pr2(reps: usize) -> Vec<Measurement> {
    let mut out: Vec<Measurement> = PR2_SCENARIOS
        .iter()
        .map(|&name| {
            let s = scenario::by_name(name).expect("tracked scenario exists");
            measure(name, reps.min(7), || s.run(7, TraceMode::CountsOnly).events)
        })
        .collect();
    out.push(measure("sim_throughput/64", reps.clamp(1, 3), || {
        sim_throughput(64)
    }));
    out
}

/// The scenario names tracked by the PR-3 trajectory — the same five as
/// PR 2, so `BENCH_PR3.json` diffs directly against `BENCH_PR2.json`.
pub const PR3_SCENARIOS: &[&str] = PR2_SCENARIOS;

/// Runs the PR-3 measurement set: the tracked scenario matrix plus both
/// hot-path guard points (`sim_throughput/64` must stay within noise of
/// `BENCH_PR2.json`; `sim_throughput/256` is the profiling target, measured
/// with the counts-only sink over a short horizon).
pub fn run_pr3(reps: usize) -> Vec<Measurement> {
    let mut out: Vec<Measurement> = PR3_SCENARIOS
        .iter()
        .map(|&name| {
            let s = scenario::by_name(name).expect("tracked scenario exists");
            measure(name, reps.min(7), || s.run(7, TraceMode::CountsOnly).events)
        })
        .collect();
    out.push(measure("sim_throughput/64", reps.clamp(1, 3), || {
        sim_throughput(64)
    }));
    out.push(measure("sim_throughput/256", 1, || {
        sim_throughput_counts(256, 10)
    }));
    out
}

/// The scenario names tracked by the PR-7 trajectory: the PR-3 five (so
/// `BENCH_PR7.json` diffs directly against `BENCH_PR3.json`) plus the new
/// 256-member scale point with gossip failure detection and bounded relay.
/// The 1024-member point is tracked as a `sim_throughput` figure, not a
/// scenario: a full-trace 1024 run is oracle material, not bench material.
pub const PR7_SCENARIOS: &[&str] = &[
    "uniform-lan",
    "skewed-lan",
    "large-payload-lan",
    "uniform-wan3",
    "churn-lan",
    "uniform-lan-256",
];

/// Runs the PR-7 measurement set: the tracked scenario matrix plus the
/// three `sim_throughput` scale points, every one over the **full simulated
/// second** — feasible at n = 256 and n = 1024 for the first time, which is
/// the point of the PR. `sim_throughput/64` is the wall-clock regression
/// guard against `BENCH_PR3.json`: above `SCALE_THRESHOLD` the stack now
/// runs gossip monitoring and bounded relay, so the 64-member *event
/// stream shrinks* several-fold and events/sec would conflate that
/// event-count reduction with per-event cost — wall time for the same
/// simulated second is the comparable number, and it must not regress.
pub fn run_pr7(reps: usize) -> Vec<Measurement> {
    let mut out: Vec<Measurement> = PR7_SCENARIOS
        .iter()
        .map(|&name| {
            let s = scenario::by_name(name).expect("tracked scenario exists");
            let r = if s.n > 64 { 1 } else { reps.min(7) };
            measure(name, r, || s.run(7, TraceMode::CountsOnly).events)
        })
        .collect();
    out.push(measure("sim_throughput/64", reps.clamp(1, 3), || {
        sim_throughput(64)
    }));
    out.push(measure("sim_throughput/256", reps.clamp(1, 3), || {
        sim_throughput_counts(256, 1000)
    }));
    out.push(measure("sim_throughput/1024", 1, || {
        sim_throughput_counts(1024, 1000)
    }));
    out
}

/// One steady-state allocation measurement (meaningful only in binaries
/// that install [`CountingAlloc`](crate::alloccount::CountingAlloc) as the
/// global allocator — elsewhere every counter reads zero).
#[derive(Clone, Debug)]
pub struct AllocMeasurement {
    /// Workload name.
    pub name: &'static str,
    /// Allocations during the measured (post-warm-up) run.
    pub allocs: u64,
    /// Bytes allocated during the measured run.
    pub bytes: u64,
    /// Simulation events executed.
    pub events: u64,
    /// Payload deliveries across all processes.
    pub deliveries: u64,
}

impl AllocMeasurement {
    /// Allocations per payload delivery — the tracked metric.
    pub fn allocs_per_delivery(&self) -> f64 {
        self.allocs as f64 / self.deliveries.max(1) as f64
    }

    /// Allocations per simulated event.
    pub fn allocs_per_event(&self) -> f64 {
        self.allocs as f64 / self.events.max(1) as f64
    }
}

/// Measures `workload` under the instrumented allocator: one warm-up run
/// (populating lazy statics and caches), then one counted run.
pub fn measure_allocs(name: &'static str, workload: impl Fn() -> RunStats) -> AllocMeasurement {
    let _ = workload(); // warm-up
    let before = crate::alloccount::snapshot();
    let stats = workload();
    let delta = crate::alloccount::snapshot().since(before);
    AllocMeasurement {
        name,
        allocs: delta.allocs,
        bytes: delta.bytes,
        events: stats.events,
        deliveries: stats.deliveries,
    }
}

/// Renders alloc measurements as a JSON object.
pub fn allocs_to_json(measurements: &[AllocMeasurement]) -> String {
    let mut s = String::from("{\n");
    for (i, m) in measurements.iter().enumerate() {
        s.push_str(&format!(
            "    \"{}\": {{\"allocs\": {}, \"bytes\": {}, \"events\": {}, \"deliveries\": {}, \
\"allocs_per_delivery\": {:.3}, \"allocs_per_event\": {:.3}}}{}\n",
            m.name,
            m.allocs,
            m.bytes,
            m.events,
            m.deliveries,
            m.allocs_per_delivery(),
            m.allocs_per_event(),
            if i + 1 == measurements.len() { "" } else { "," }
        ));
    }
    s.push_str("  }");
    s
}

/// Renders measurements as a JSON object (no external JSON dependency).
pub fn to_json(measurements: &[Measurement]) -> String {
    let mut s = String::from("{\n");
    for (i, m) in measurements.iter().enumerate() {
        s.push_str(&format!(
            "    \"{}\": {{\"median_ns\": {}, \"min_ns\": {}, \"events_per_sec\": {}}}{}\n",
            m.name,
            m.median_ns,
            m.min_ns,
            m.events_per_sec,
            if i + 1 == measurements.len() { "" } else { "," }
        ));
    }
    s.push_str("  }");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_run_and_count_events() {
        assert!(abcast_steady_5() > 100);
        assert!(isis_steady_5() > 100);
        assert!(token_steady_5() > 100);
        assert!(gbcast_steady_5_stats().events > 1000);
    }

    #[test]
    fn json_shape() {
        let m = Measurement {
            name: "x/1",
            median_ns: 10,
            min_ns: 9,
            events_per_sec: 100,
        };
        let j = to_json(&[m]);
        assert!(j.contains("\"x/1\""));
        assert!(j.contains("\"median_ns\": 10"));
    }
}

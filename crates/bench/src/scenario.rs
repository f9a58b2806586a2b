//! Named scenarios: stack × workload × topology × schedule, the full
//! experiment matrix as first-class values.
//!
//! A [`Scenario`] bundles everything a run needs — the [`StackKind`] to
//! drive, group size, a [`Topology`], a [`Workload`] and a [`Schedule`] —
//! so `repro` and the determinism tests execute the *same* definition,
//! through the [`GroupTransport`] façade. The built-in matrix lives in
//! [`catalog`]; run one with [`Scenario::run`].
//!
//! Every run passes through the [`InvariantChecker`]: the report carries the
//! number (and rendering) of protocol-invariant violations, so the catalog
//! is a *checked* matrix — fingerprints say a run changed, the oracle says
//! whether it was correct.

use gcs_api::{Group, GroupBuilder, GroupTransport, InvariantChecker, StackKind};
use gcs_core::StackConfig;
use gcs_kernel::{ProcessId, Time, TimeDelta};
use gcs_sim::{Schedule, ScheduleAction, Topology};

use crate::workload::{
    decode_op_index, ChurnWorkload, GenericWorkload, SkewedWorkload, UniformWorkload, Workload,
};

/// One named experiment scenario over one of the three stacks.
pub struct Scenario {
    /// Stable name (CLI handle: `repro scenario <name>`).
    pub name: &'static str,
    /// One-line description for `repro list`.
    pub about: &'static str,
    /// Which protocol stack the scenario drives.
    pub stack: StackKind,
    /// Founding members.
    pub n: usize,
    /// Processes started outside the group (churn joiners).
    pub joiners: usize,
    /// The network topology.
    pub topology: Topology,
    /// The broadcast stream.
    pub workload: Box<dyn Workload>,
    /// Scenario-level fault steps (merged with the workload's own schedule).
    /// A `Crash` step turns on the tracing of consensus-class suspicions,
    /// which [`ScenarioReport::crash_detect_ms`] is measured from.
    pub schedule: Schedule,
    /// Virtual-time horizon the run executes to.
    pub horizon: Time,
}

/// What one scenario run produced.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// The scenario name.
    pub name: &'static str,
    /// The seed the run used.
    pub seed: u64,
    /// Ops injected by the workload.
    pub injected: usize,
    /// Deliveries (and view installations) observed across all processes.
    pub deliveries: u64,
    /// Simulation events executed (events/sec numerator).
    pub events: u64,
    /// Total messages handed to the network.
    pub msgs: u64,
    /// Total wire bytes handed to the network.
    pub bytes: u64,
    /// `(kind, messages, bytes)` per message kind, in first-use order.
    pub by_kind: Vec<(&'static str, u64, u64)>,
    /// Mean injection → delivery latency over (op, replica) pairs, in
    /// virtual milliseconds (NaN when nothing was delivered).
    pub mean_latency_ms: f64,
    /// 99th-percentile latency, in virtual milliseconds (NaN when nothing
    /// was delivered).
    pub p99_latency_ms: f64,
    /// Order-sensitive digest of the run: folds every delivery (time,
    /// process, payload) and the event count, so two runs are bit-identical
    /// iff their fingerprints match.
    pub fingerprint: u64,
    /// Per-region-pair one-way link latency (empty on single-region
    /// topologies): the log2-histogram summaries of every pair that saw
    /// traffic.
    pub region_latency: Vec<RegionPairLatency>,
    /// Protocol-invariant violations found by the [`InvariantChecker`],
    /// rendered. Empty on a correct run.
    pub violations: Vec<String>,
    /// Crash-detection latency in virtual milliseconds: time from the first
    /// scripted `Crash` step to the moment *every* correct process has a
    /// consensus-class suspicion of the crashed peer recorded in the trace.
    /// `None` when the scenario crashes nobody, or some correct process
    /// never suspected within the horizon.
    pub crash_detect_ms: Option<f64>,
    /// Payloads live in the group's arena at the end of the run (the
    /// arena reclaims nothing, so this is every payload it interned).
    pub arena_live: usize,
}

impl ScenarioReport {
    /// The report as one row of `repro sweep`'s table — also the format of
    /// the golden table in `tests/determinism.rs`.
    pub fn sweep_row(&self) -> String {
        format!(
            "| {} | {} | {} | {} | {:.2} | {:.2} | {} | {} | {} | {:016x} |",
            self.name,
            self.seed,
            self.injected,
            self.deliveries,
            self.mean_latency_ms,
            self.p99_latency_ms,
            self.msgs,
            self.events,
            self.violations.len(),
            self.fingerprint
        )
    }
}

/// Summary of one directed region pair's link-latency histogram.
#[derive(Clone, Debug)]
pub struct RegionPairLatency {
    /// Source region index.
    pub from: usize,
    /// Destination region index.
    pub to: usize,
    /// Messages scheduled over this pair.
    pub count: u64,
    /// Mean one-way latency in virtual milliseconds.
    pub mean_ms: f64,
    /// Approximate median (log2-bucket upper edge), in milliseconds.
    pub p50_ms: f64,
    /// Approximate 99th percentile (log2-bucket upper edge), in
    /// milliseconds.
    pub p99_ms: f64,
}

impl Scenario {
    /// The combined fault/membership timeline (scenario steps plus the
    /// workload's own churn steps).
    pub fn full_schedule(&self) -> Schedule {
        self.schedule
            .clone()
            .merge(self.workload.schedule(self.n, self.joiners))
    }

    /// The group [`run`](Self::run) builds: the scenario's stack, size,
    /// joiners, topology and full schedule at `seed`, with the new
    /// architecture's [`StackConfig`] set for scenario runs. An experiment
    /// that needs another per-stack configuration sets it on the returned
    /// builder ([`stack_config`](GroupBuilder::stack_config),
    /// [`isis_config`](GroupBuilder::isis_config)).
    pub fn group(&self, seed: u64) -> GroupBuilder {
        let mut cfg = StackConfig::default();
        // Exclusions are driven by the schedule, not wall-clock monitoring:
        // an FD-triggered exclusion racing the scripted membership steps
        // would make scenario comparisons measure the monitor, not the
        // scenario. (Only the new architecture reads this config; the
        // baselines keep their stack defaults.)
        cfg.monitoring_timeout = TimeDelta::from_secs(3600);
        let schedule = self.full_schedule();
        cfg.trace_suspicions = schedule
            .steps()
            .iter()
            .any(|(_, a)| matches!(a, ScheduleAction::Crash(_)));
        Group::builder()
            .members(self.n)
            .joiners(self.joiners)
            .stack(self.stack)
            .topology(self.topology.clone())
            .schedule(schedule)
            .stack_config(cfg)
            .seed(seed)
    }

    /// Builds the group from `builder`, injects the workload and runs to the
    /// horizon; returns the group and the injection time of each op. The
    /// caller may drive the group further before [`report`](Self::report).
    pub fn start(&self, builder: GroupBuilder) -> (Group, Vec<Time>) {
        let mut g = builder.build();
        let inject_times = self.workload.inject(self.n, &mut g);
        g.run_until(self.horizon);
        (g, inject_times)
    }

    /// Runs the scenario with the given network seed, returning the report.
    /// Deterministic: equal `(scenario, seed)` pairs produce equal reports,
    /// including the fingerprint.
    pub fn run(&self, seed: u64) -> ScenarioReport {
        let (g, inject_times) = self.start(self.group(seed));
        self.report(seed, &g, &inject_times)
    }

    /// The report of a run [`start`](Self::start)ed at `seed`: fingerprint,
    /// message counts, latencies of the tagged ops injected at
    /// `inject_times`, and the invariant oracle's verdict on the whole trace.
    pub fn report(&self, seed: u64, g: &Group, inject_times: &[Time]) -> ScenarioReport {
        // Latencies from tagged payloads.
        let mut latencies: Vec<f64> = Vec::new();
        let mut fingerprint: u64 = 0xcbf29ce484222325; // FNV-1a offset basis
        let mut fnv = |byte: u8| {
            fingerprint ^= byte as u64;
            fingerprint = fingerprint.wrapping_mul(0x100000001b3);
        };
        for d in g.delivery_trace() {
            for b in d.time.as_nanos().to_le_bytes() {
                fnv(b);
            }
            for b in (d.proc.index() as u32).to_le_bytes() {
                fnv(b);
            }
            let payload = g.resolve(d.payload);
            for &b in payload.as_ref() {
                fnv(b);
            }
            if let Some(op) = decode_op_index(&payload) {
                if op < inject_times.len() {
                    latencies.push(d.time.since(inject_times[op]).as_millis_f64());
                }
            }
        }
        for b in g.events_executed().to_le_bytes() {
            fnv(b);
        }

        let mean = if latencies.is_empty() {
            f64::NAN
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        };
        let p99 = if latencies.is_empty() {
            f64::NAN
        } else {
            let mut sorted = latencies.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            sorted[(sorted.len() - 1) * 99 / 100]
        };

        let region_latency = g
            .metrics()
            .region_pairs()
            .map(|(from, to, h)| RegionPairLatency {
                from,
                to,
                count: h.count(),
                mean_ms: h.mean_ns() as f64 / 1e6,
                p50_ms: h.quantile_ns(0.5) as f64 / 1e6,
                p99_ms: h.quantile_ns(0.99) as f64 / 1e6,
            })
            .collect();

        // The invariant oracle: machine-check agreement, total order, view
        // synchrony, FIFO, gap-freedom and no-duplication on the run's
        // delivery trace.
        let violations = InvariantChecker::check(g, self.n)
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect();

        let crash_detect_ms = self.crash_detect_ms(g);

        ScenarioReport {
            name: self.name,
            seed,
            injected: inject_times.len(),
            deliveries: g.delivery_count(),
            events: g.events_executed(),
            msgs: g.metrics().total_sent(),
            bytes: g.metrics().total_bytes(),
            by_kind: g.metrics().by_kind().collect(),
            mean_latency_ms: mean,
            p99_latency_ms: p99,
            fingerprint,
            region_latency,
            violations,
            crash_detect_ms,
            arena_live: g.arena().live(),
        }
    }

    /// Crash-detection latency of the first scripted crash (see
    /// [`ScenarioReport::crash_detect_ms`]): the time until the *last*
    /// correct process's first suspicion of the crashed peer, measured via
    /// [`GroupTransport::suspicion_trace`].
    fn crash_detect_ms(&self, g: &Group) -> Option<f64> {
        let (crash_at, victim) =
            self.full_schedule()
                .steps()
                .iter()
                .find_map(|(t, a)| match a {
                    ScheduleAction::Crash(p) => Some((*t, *p)),
                    _ => None,
                })?;
        let suspicions = g.suspicion_trace();
        if suspicions.is_empty() {
            return None;
        }
        // Every process alive at the end of the run (except the victim)
        // must have suspected the victim after the crash instant.
        let alive = g.alive_flags();
        let mut worst = Time::ZERO;
        for (i, &is_alive) in alive.iter().enumerate() {
            let observer = ProcessId::new(i as u32);
            if !is_alive || observer == victim {
                continue;
            }
            let first = suspicions
                .iter()
                .find(|&&(t, o, s)| o == observer && s == victim && t >= crash_at)
                .map(|&(t, _, _)| t)?;
            worst = worst.max(first);
        }
        Some(worst.since(crash_at).as_millis_f64())
    }
}

/// The built-in scenario matrix: every workload shape crossed with the
/// topology presets plus the fault timelines ROADMAP calls for.
pub fn catalog() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "uniform-lan",
            about: "baseline: uniform round-robin stream on a flat LAN",
            stack: StackKind::NewArch,
            n: 8,
            joiners: 0,
            topology: Topology::lan(),
            workload: Box::new(UniformWorkload::steady(200, 2)),
            schedule: Schedule::new(),
            horizon: Time::from_secs(1),
        },
        Scenario {
            name: "skewed-lan",
            about: "zipf(1.2) senders: one hot publisher dominates",
            stack: StackKind::NewArch,
            n: 8,
            joiners: 0,
            topology: Topology::lan(),
            workload: Box::new(SkewedWorkload::steady(200, 2)),
            schedule: Schedule::new(),
            horizon: Time::from_secs(1),
        },
        Scenario {
            name: "large-payload-lan",
            about: "64 KiB payloads on a 125 MB/s LAN: serialization delay",
            stack: StackKind::NewArch,
            n: 8,
            joiners: 0,
            topology: Topology::uniform(
                "lan-125MBps",
                gcs_sim::LinkModel::lan().with_bandwidth(125_000_000),
            ),
            workload: Box::new(UniformWorkload {
                payload: 64 * 1024,
                ..UniformWorkload::steady(60, 5)
            }),
            schedule: Schedule::new(),
            horizon: Time::from_secs(2),
        },
        Scenario {
            name: "uniform-wan2dc",
            about: "two data centers, bandwidth-limited WAN link between",
            stack: StackKind::NewArch,
            n: 8,
            joiners: 0,
            topology: Topology::wan_2dc(),
            workload: Box::new(UniformWorkload::steady(150, 4)),
            schedule: Schedule::new(),
            horizon: Time::from_secs(3),
        },
        Scenario {
            name: "uniform-wan3",
            about: "three regions, asymmetric lossy long-haul links",
            stack: StackKind::NewArch,
            n: 9,
            joiners: 0,
            topology: Topology::wan_3region(),
            workload: Box::new(UniformWorkload::steady(150, 4)),
            schedule: Schedule::new(),
            horizon: Time::from_secs(5),
        },
        Scenario {
            name: "lossy-lan",
            about: "2% random loss: retransmission machinery under stress",
            stack: StackKind::NewArch,
            n: 8,
            joiners: 0,
            topology: Topology::lossy(),
            workload: Box::new(UniformWorkload::steady(150, 3)),
            schedule: Schedule::new(),
            horizon: Time::from_secs(3),
        },
        Scenario {
            name: "churn-lan",
            about: "join + removal mid-stream on a LAN (§4.4 under load)",
            stack: StackKind::NewArch,
            n: 4,
            joiners: 1,
            topology: Topology::lan(),
            workload: Box::new(ChurnWorkload::steady(150, 2, 100, 200)),
            schedule: Schedule::new(),
            horizon: Time::from_secs(2),
        },
        Scenario {
            name: "churn-wan2dc",
            about: "membership churn while crossing a WAN link",
            stack: StackKind::NewArch,
            n: 4,
            joiners: 1,
            topology: Topology::wan_2dc(),
            workload: Box::new(ChurnWorkload::steady(100, 5, 150, 300)),
            schedule: Schedule::new(),
            horizon: Time::from_secs(4),
        },
        Scenario {
            name: "flaky-churn",
            about: "2% lossy links × join/remove churn, plus a loss burst",
            stack: StackKind::NewArch,
            n: 4,
            joiners: 1,
            topology: Topology::lossy(),
            workload: Box::new(ChurnWorkload::steady(120, 3, 120, 260)),
            schedule: Schedule::new().loss_burst(
                Time::from_millis(400),
                TimeDelta::from_millis(150),
                0.25,
            ),
            horizon: Time::from_secs(4),
        },
        Scenario {
            name: "rolling-restart-wan3",
            about: "sequenced region outages (partition+heal) across all 3 regions",
            stack: StackKind::NewArch,
            n: 9,
            joiners: 0,
            topology: Topology::wan_3region(),
            workload: Box::new(UniformWorkload::steady(90, 6)),
            // One region at a time drops off the WAN and comes back — the
            // crash-stop model cannot restart a process, so a rolling
            // restart is modeled as a rolling partition: each region is
            // unreachable for 300 ms, regions in sequence (round-robin
            // assignment: region r = {r, r+3, r+6}).
            schedule: {
                let mut s = Schedule::new();
                for r in 0..3u32 {
                    let isolated: Vec<ProcessId> =
                        (0..3).map(|k| ProcessId::new(r + 3 * k)).collect();
                    let rest: Vec<ProcessId> = (0..9)
                        .map(ProcessId::new)
                        .filter(|p| !isolated.contains(p))
                        .collect();
                    let start = Time::from_millis(150 + 500 * r as u64);
                    s = s
                        .partition(start, vec![isolated, rest])
                        .heal(start + TimeDelta::from_millis(300));
                }
                s
            },
            horizon: Time::from_secs(10),
        },
        Scenario {
            name: "partition-heal-wan3",
            about: "region partition at 200ms, heal at 600ms, stream on",
            stack: StackKind::NewArch,
            n: 9,
            joiners: 0,
            topology: Topology::wan_3region(),
            workload: Box::new(UniformWorkload::steady(100, 4)),
            schedule: Schedule::new()
                .partition_regions(Time::from_millis(200))
                .heal(Time::from_millis(600)),
            horizon: Time::from_secs(8),
        },
        // Generic broadcast, the paper's headline service (§3.2): the same
        // 2,000 ops/s stream the benchmark's `sim-generic` offers, in the
        // §3.3 classes. Nothing else in the catalog g-broadcasts.
        Scenario {
            name: "generic-lan",
            about: "generic broadcast at 2,000 ops/s, 1 op in 100 conflicting",
            stack: StackKind::NewArch,
            n: 5,
            joiners: 0,
            topology: Topology::lan(),
            workload: Box::new(GenericWorkload::per_second(2_000, 2_000, 100)),
            schedule: Schedule::new(),
            horizon: Time::from_secs(2),
        },
        Scenario {
            name: "generic-lan-0",
            about: "conflict-free generic broadcast: one epoch, 8,000 ops, never closed",
            stack: StackKind::NewArch,
            n: 5,
            joiners: 0,
            topology: Topology::lan(),
            // The thrifty best case and the old cliff: with no conflict no
            // epoch ever closes, so everything the epoch retains only grows
            // — per-op work must not grow with it.
            workload: Box::new(GenericWorkload::per_second(8_000, 2_000, 0)),
            schedule: Schedule::new(),
            horizon: Time::from_secs(5),
        },
        // Cross-stack comparison points: the same uniform stream on the
        // traditional baselines (loss-free LAN — the substrate they assume),
        // so sweeps diff all three architectures under one workload.
        Scenario {
            name: "uniform-lan-isis",
            about: "the uniform-lan stream on the Isis GM-VS baseline",
            stack: StackKind::Isis,
            n: 8,
            joiners: 0,
            topology: Topology::lan(),
            workload: Box::new(UniformWorkload::steady(200, 2)),
            schedule: Schedule::new(),
            horizon: Time::from_secs(1),
        },
        Scenario {
            name: "uniform-lan-token",
            about: "the uniform-lan stream on the token-ring baseline",
            stack: StackKind::Token,
            n: 8,
            joiners: 0,
            topology: Topology::lan(),
            workload: Box::new(UniformWorkload::steady(200, 2)),
            schedule: Schedule::new(),
            horizon: Time::from_secs(1),
        },
        // Scripted churn on the baselines: both traditional stacks now
        // execute schedule `remove` steps (Isis through the exclusion flush,
        // the ring through a sequenced leave), so the §4.4 churn point runs
        // on every architecture.
        Scenario {
            name: "churn-lan-isis",
            about: "join + removal mid-stream on the Isis baseline",
            stack: StackKind::Isis,
            n: 4,
            joiners: 1,
            topology: Topology::lan(),
            workload: Box::new(ChurnWorkload::steady(150, 2, 100, 200)),
            schedule: Schedule::new(),
            horizon: Time::from_secs(2),
        },
        Scenario {
            name: "churn-lan-token",
            about: "join + removal mid-stream on the token-ring baseline",
            stack: StackKind::Token,
            n: 4,
            joiners: 1,
            topology: Topology::lan(),
            workload: Box::new(ChurnWorkload::steady(150, 2, 100, 200)),
            schedule: Schedule::new(),
            horizon: Time::from_secs(2),
        },
        // WAN baselines: the topology-derived timeout profiles keep the
        // perfect-FD emulation (Isis) and token-loss detection (ring) from
        // mistaking long-haul latency for death, and the loss-repair paths
        // stand in for the reliable links the original systems assumed.
        Scenario {
            name: "uniform-wan3-isis",
            about: "the uniform-wan3 stream on the Isis baseline (tuned timeouts)",
            stack: StackKind::Isis,
            n: 9,
            joiners: 0,
            topology: Topology::wan_3region(),
            workload: Box::new(UniformWorkload::steady(150, 4)),
            schedule: Schedule::new(),
            horizon: Time::from_secs(5),
        },
        Scenario {
            name: "uniform-wan3-token",
            about: "the uniform-wan3 stream on the token-ring baseline (tuned timeouts)",
            stack: StackKind::Token,
            n: 9,
            joiners: 0,
            topology: Topology::wan_3region(),
            workload: Box::new(UniformWorkload::steady(150, 4)),
            schedule: Schedule::new(),
            horizon: Time::from_secs(8),
        },
        Scenario {
            name: "partition-heal-wan3-isis",
            about: "region 2 partitioned off at 200ms, healed at 2.5s, on Isis",
            stack: StackKind::Isis,
            n: 9,
            joiners: 0,
            topology: Topology::wan_3region(),
            workload: Box::new(UniformWorkload::steady(90, 6)),
            // Region 2 ({2,5,8} under round-robin assignment) drops off the
            // WAN for longer than the tuned exclusion timeout: the majority
            // expels it (perfect-FD emulation), the minority blocks
            // (primary-partition rule), and after the heal the killed
            // members re-join with a state transfer — §4.3 at scenario
            // scale, machine-checked by the oracle across incarnations.
            schedule: {
                let isolated: Vec<ProcessId> = [2u32, 5, 8].map(ProcessId::new).to_vec();
                let rest: Vec<ProcessId> = (0..9)
                    .map(ProcessId::new)
                    .filter(|p| !isolated.contains(p))
                    .collect();
                Schedule::new()
                    .partition(Time::from_millis(200), vec![isolated, rest])
                    .heal(Time::from_millis(2_500))
            },
            horizon: Time::from_secs(10),
        },
        Scenario {
            name: "uniform-lan-256",
            about: "scale point: 256 members, gossip FD, bounded relay, one crash",
            stack: StackKind::NewArch,
            n: 256,
            joiners: 0,
            topology: Topology::lan(),
            workload: Box::new(UniformWorkload::steady(50, 4)),
            // A non-sender crashes mid-stream; the run traces the
            // consensus-class suspicion wavefront, and the report's
            // crash_detect_ms must come in under the gossip-mode suspicion
            // bound (timeout + rotation cycle + interval + LAN delay).
            schedule: Schedule::new().crash(Time::from_millis(150), ProcessId::new(200)),
            horizon: Time::from_secs(1),
        },
        Scenario {
            name: "uniform-lan-1024",
            about: "scale point: 1024 members crossing the all-pairs wall",
            stack: StackKind::NewArch,
            n: 1024,
            joiners: 0,
            topology: Topology::lan(),
            workload: Box::new(UniformWorkload::steady(50, 4)),
            schedule: Schedule::new().crash(Time::from_millis(150), ProcessId::new(800)),
            horizon: Time::from_secs(1),
        },
    ]
}

/// Per-scenario aggregate of a sweep: mean and population σ across the
/// seeds each scenario ran with.
#[derive(Clone, Debug)]
pub struct SweepAggregate {
    /// The scenario name.
    pub name: &'static str,
    /// Number of runs (seeds) aggregated.
    pub runs: usize,
    /// Mean over seeds of the per-run mean latency (virtual ms).
    pub mean_latency_ms: f64,
    /// Population σ of the per-run mean latency across seeds.
    pub latency_stddev_ms: f64,
    /// Mean over seeds of the per-run p99 latency (virtual ms).
    pub mean_p99_ms: f64,
    /// Mean executed-event count across seeds.
    pub mean_events: f64,
    /// Population σ of the executed-event count across seeds.
    pub events_stddev: f64,
    /// Mean message count across seeds.
    pub mean_msgs: f64,
    /// Distinct fingerprints across seeds (== runs unless two seeds
    /// coincidentally collide — a sanity signal, not an error).
    pub distinct_fingerprints: usize,
}

fn mean_stddev(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64;
    (mean, var.sqrt())
}

/// Aggregates sweep reports per scenario (first-appearance order): mean/σ
/// across seeds of the latency and event figures — the cross-seed summary
/// `repro sweep` prints and embeds in its JSON output.
pub fn aggregate(reports: &[ScenarioReport]) -> Vec<SweepAggregate> {
    let mut order: Vec<&'static str> = Vec::new();
    for r in reports {
        if !order.contains(&r.name) {
            order.push(r.name);
        }
    }
    order
        .into_iter()
        .map(|name| {
            let runs: Vec<&ScenarioReport> = reports.iter().filter(|r| r.name == name).collect();
            let lat: Vec<f64> = runs.iter().map(|r| r.mean_latency_ms).collect();
            let p99: Vec<f64> = runs.iter().map(|r| r.p99_latency_ms).collect();
            let events: Vec<f64> = runs.iter().map(|r| r.events as f64).collect();
            let msgs: Vec<f64> = runs.iter().map(|r| r.msgs as f64).collect();
            let mut fps: Vec<u64> = runs.iter().map(|r| r.fingerprint).collect();
            fps.sort_unstable();
            fps.dedup();
            let (mean_latency_ms, latency_stddev_ms) = mean_stddev(&lat);
            let (mean_p99_ms, _) = mean_stddev(&p99);
            let (mean_events, events_stddev) = mean_stddev(&events);
            let (mean_msgs, _) = mean_stddev(&msgs);
            SweepAggregate {
                name,
                runs: runs.len(),
                mean_latency_ms,
                latency_stddev_ms,
                mean_p99_ms,
                mean_events,
                events_stddev,
                mean_msgs,
                distinct_fingerprints: fps.len(),
            }
        })
        .collect()
}

/// Runs `(name, seed)` tasks across `threads` worker threads, one fully
/// independent deterministic simulation per task, returning reports in task
/// order. Each worker constructs its own [`Scenario`] from the catalog, so
/// nothing is shared between runs and per-run determinism is untouched —
/// this is the experiment-sweep parallelism the simulator's single-threaded
/// design deliberately leaves to the harness.
pub fn run_sweep(tasks: &[(&'static str, u64)], threads: usize) -> Vec<ScenarioReport> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let threads = threads.clamp(1, tasks.len().max(1));
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, ScenarioReport)>> = Mutex::new(Vec::with_capacity(tasks.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(name, seed)) = tasks.get(i) else {
                    break;
                };
                let s = by_name(name).unwrap_or_else(|| panic!("unknown scenario {name:?}"));
                let report = s.run(seed);
                results.lock().expect("sweep poisoned").push((i, report));
            });
        }
    });
    let mut results = results.into_inner().expect("sweep poisoned");
    results.sort_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Looks a built-in scenario up by name.
pub fn by_name(name: &str) -> Option<Scenario> {
    catalog().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_resolvable() {
        let names: Vec<&str> = catalog().iter().map(|s| s.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len(), "duplicate scenario name");
        for n in names {
            assert!(by_name(n).is_some());
        }
        assert!(by_name("no-such-scenario").is_none());
    }

    #[test]
    fn uniform_lan_delivers_everything() {
        let s = by_name("uniform-lan").unwrap();
        let r = s.run(1);
        assert_eq!(r.injected, 200);
        // Every op delivered at every member.
        assert!(r.deliveries >= (r.injected * s.n) as u64, "{r:?}");
        assert!(r.mean_latency_ms.is_finite());
        assert!(r.p99_latency_ms >= r.mean_latency_ms * 0.5);
    }

    #[test]
    fn wan_latency_exceeds_lan_latency() {
        let lan = by_name("uniform-lan").unwrap().run(2);
        let wan = by_name("uniform-wan3").unwrap().run(2);
        assert!(
            wan.mean_latency_ms > lan.mean_latency_ms * 5.0,
            "wan {} vs lan {}",
            wan.mean_latency_ms,
            lan.mean_latency_ms
        );
    }

    #[test]
    fn churn_scenario_stays_live() {
        let s = by_name("churn-lan").unwrap();
        let r = s.run(3);
        // All stream ops delivered at the surviving founding members.
        assert!(
            r.deliveries >= (r.injected * 3) as u64,
            "stream live through churn: {r:?}"
        );
    }

    #[test]
    fn flaky_churn_survives_loss_and_churn() {
        let s = by_name("flaky-churn").unwrap();
        let r = s.run(5);
        // The stream stays live at the three surviving founding members
        // despite 2% loss, a 25% loss burst, a join and a removal.
        assert!(
            r.deliveries >= (r.injected * 3) as u64,
            "stream live through flaky churn: {r:?}"
        );
    }

    #[test]
    fn rolling_restart_wan3_delivers_everywhere_after_heals() {
        let s = by_name("rolling-restart-wan3").unwrap();
        let r = s.run(4);
        // Every region outage heals, so all 9 members eventually deliver
        // the full stream (retransmissions catch the isolated region up).
        assert_eq!(r.injected, 90);
        assert!(
            r.deliveries >= (r.injected * 9) as u64,
            "all members caught up after rolling outages: {r:?}"
        );
    }

    #[test]
    fn wan_reports_carry_region_pair_latency() {
        let wan = by_name("uniform-wan3").unwrap().run(2);
        assert!(!wan.region_latency.is_empty());
        let get = |f: usize, t: usize| {
            wan.region_latency
                .iter()
                .find(|p| p.from == f && p.to == t)
                .unwrap_or_else(|| panic!("pair r{f}->r{t} missing"))
        };
        // Long-haul r0->r2 is slower than intra-region r0->r0, and the
        // asymmetric return path r2->r0 is slower still (topology preset).
        assert!(get(0, 2).mean_ms > get(0, 0).mean_ms * 5.0);
        assert!(get(2, 0).mean_ms > get(0, 2).mean_ms);
        // LAN runs record nothing.
        let lan = by_name("uniform-lan").unwrap().run(2);
        assert!(lan.region_latency.is_empty());
    }

    #[test]
    fn sweep_across_threads_matches_serial_fingerprints() {
        let tasks: &[(&'static str, u64)] =
            &[("uniform-lan", 7), ("churn-lan", 7), ("uniform-lan", 8)];
        let parallel = run_sweep(tasks, 3);
        let serial: Vec<ScenarioReport> = tasks
            .iter()
            .map(|&(n, seed)| by_name(n).unwrap().run(seed))
            .collect();
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.name, s.name);
            assert_eq!(p.seed, s.seed);
            assert_eq!(
                p.fingerprint, s.fingerprint,
                "{}@{}: thread fan-out changed the run",
                p.name, p.seed
            );
            assert_eq!(p.events, s.events);
        }
    }

    #[test]
    fn fingerprint_distinguishes_seeds() {
        let s = by_name("uniform-lan").unwrap();
        let a = s.run(7);
        let b = s.run(8);
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn cross_stack_scenarios_deliver_the_full_stream() {
        // The same uniform-lan workload definition drives all three stacks;
        // every member of each architecture delivers the whole stream.
        for name in ["uniform-lan", "uniform-lan-isis", "uniform-lan-token"] {
            let s = by_name(name).unwrap();
            let r = s.run(3);
            assert_eq!(r.injected, 200, "{name}");
            assert!(
                r.deliveries >= (r.injected * s.n) as u64,
                "{name}: all members deliver everything: {r:?}"
            );
            assert!(r.mean_latency_ms.is_finite(), "{name}");
        }
    }

    #[test]
    fn entire_catalog_runs_clean_under_the_oracle() {
        // The acceptance bar of the invariant oracle: every cataloged
        // scenario — all stacks, all topologies, churn, partitions, loss —
        // satisfies the paper's properties on every run. The at-scale
        // points (n > 64) are excluded from this debug-mode loop: CI's
        // release smoke runs `repro scenario uniform-lan-256` (which exits
        // nonzero on violations), and the 1024 point runs by hand
        // (`repro scenario uniform-lan-1024`).
        for s in catalog() {
            if s.n > 64 {
                eprintln!("skipping {} (n={}) in the debug oracle loop", s.name, s.n);
                continue;
            }
            let r = s.run(7);
            assert!(
                r.violations.is_empty(),
                "{}: invariant violations: {:#?}",
                s.name,
                r.violations
            );
        }
    }

    #[test]
    fn baseline_churn_scenarios_stay_live() {
        for name in ["churn-lan-isis", "churn-lan-token"] {
            let s = by_name(name).unwrap();
            let r = s.run(3);
            // The three surviving founding members deliver the whole stream
            // through the join and the removal.
            assert!(
                r.deliveries >= (r.injected * 3) as u64,
                "{name}: stream live through churn: {r:?}"
            );
            assert!(r.violations.is_empty(), "{name}: {:?}", r.violations);
        }
    }

    #[test]
    fn wan_baselines_converge_with_tuned_profiles() {
        for name in ["uniform-wan3-isis", "uniform-wan3-token"] {
            let s = by_name(name).unwrap();
            let r = s.run(7);
            assert_eq!(r.injected, 150, "{name}");
            // Every member delivers the whole stream: the tuned timeout
            // profiles prevent spurious exclusions and the repair paths
            // cover WAN loss.
            assert!(
                r.deliveries >= (r.injected * s.n) as u64,
                "{name}: WAN convergence: {r:?}"
            );
            assert!(r.violations.is_empty(), "{name}: {:?}", r.violations);
        }
    }

    #[test]
    fn partition_heal_isis_recovers_through_kill_and_rejoin() {
        let s = by_name("partition-heal-wan3-isis").unwrap();
        let r = s.run(7);
        // The majority (6 of 9) stays live through the outage; the expelled
        // region catches up after healing. Some messages injected by the
        // isolated minority during the outage may be lost with their
        // killed senders — agreement is about delivered messages.
        assert!(
            r.deliveries >= (r.injected * 4) as u64,
            "majority stream live: {r:?}"
        );
        assert!(r.violations.is_empty(), "{:#?}", r.violations);
    }

    /// The same scenario on seeds 110 and 123 must be gap-free too. It is
    /// not: on each seed the oracle reports gap-freedom violations (on 110,
    /// p4 delivers (1,8) then (4,8) but skips (6,8)).
    #[test]
    #[ignore = "known Isis gap-freedom violation: ROADMAP baseline item"]
    fn partition_heal_isis_is_gap_free_on_seeds_110_and_123() {
        let s = by_name("partition-heal-wan3-isis").unwrap();
        let violations: Vec<(u64, Vec<String>)> = [110, 123]
            .into_iter()
            .map(|seed| {
                let r = s.run(seed);
                (seed, r.violations.iter().map(|v| v.to_string()).collect())
            })
            .collect();
        assert!(
            violations.iter().all(|(_, v)| v.is_empty()),
            "{violations:#?}"
        );
    }

    #[test]
    fn arena_occupancy_is_reported_and_pinned() {
        // Every injected payload is interned exactly once and, with no
        // reclamation, stays live to the end of the run.
        for name in ["uniform-lan", "uniform-lan-isis", "uniform-lan-token"] {
            let r = by_name(name).unwrap().run(2);
            assert_eq!(r.arena_live, r.injected, "{name}: one slot per op");
        }
    }

    #[test]
    fn aggregate_summarizes_across_seeds() {
        let s = by_name("uniform-lan").unwrap();
        let reports: Vec<ScenarioReport> = (7..10).map(|seed| s.run(seed)).collect();
        let aggs = aggregate(&reports);
        assert_eq!(aggs.len(), 1);
        let a = &aggs[0];
        assert_eq!(a.name, "uniform-lan");
        assert_eq!(a.runs, 3);
        // Mean of means sits inside the per-seed range; sigma is finite and
        // small relative to the mean on this steady workload.
        let lats: Vec<f64> = reports.iter().map(|r| r.mean_latency_ms).collect();
        let lo = lats.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = lats.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(a.mean_latency_ms >= lo && a.mean_latency_ms <= hi);
        assert!(a.latency_stddev_ms.is_finite() && a.latency_stddev_ms >= 0.0);
        assert!(a.latency_stddev_ms <= a.mean_latency_ms);
        assert_eq!(a.distinct_fingerprints, 3, "three seeds, three orders");
        // Same-seed repeats collapse to one fingerprint.
        let twice = vec![reports[0].clone(), reports[0].clone()];
        assert_eq!(aggregate(&twice)[0].distinct_fingerprints, 1);
    }
}

//! What the benchmark measures: stacks, workloads, and every metric name
//! with its unit, direction and bound. `BENCHMARK.json` is this module
//! rendered (`gcs-benchmark manifest`), and a unit test holds the two equal.

use gcs::api::WireMode;
use gcs::StackKind;

use crate::json::Json;

/// The three stacks in report order, with the prefix their metrics carry.
pub const STACKS: [(StackKind, &str); 3] = [
    (StackKind::NewArch, "newarch"),
    (StackKind::Isis, "isis"),
    (StackKind::Token, "token"),
];

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`); the sizes
/// below are stated for this value. `--seconds` scales the number of windows
/// (live reps, sim groups), never the length of one.
pub const RUN_SECONDS: u64 = 16;

/// How ops are offered to the group.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Live, closed loop: the generator keeps `outstanding` ops in flight
    /// (`abcast_capacity` + `try_abcast_build_at`, 100 µs sleep on refusal).
    /// A rep's window is `RUN_SECONDS / (reps × 3 stacks)` of wall time.
    Closed {
        wire: WireMode,
        outstanding: usize,
        /// Ops accepted before the window opens (per rep, part of set-up).
        warmup_ops: u32,
    },
    /// Simulator, every op pre-scheduled at `rate` ops/s. A rep is many
    /// small fresh groups run back to back: a short window keeps a group's
    /// working set (delivery trace, payload arena) inside the CPU's caches,
    /// so the wall-clock numbers measure the code and not how hard the
    /// neighbours on the shared host are hitting memory — and every group is
    /// one more slice (see `report::fast_decile`).
    Sim {
        /// Message loss on every link while ops are due (warm-up and
        /// window), per stack in [`STACKS`] order; the drain is loss-free so
        /// the last ops can still be repaired. All links are
        /// `Topology::lan()`: 0.2–1.2 ms one way.
        loss: [f64; 3],
        rate: u64,
        /// Fresh groups per rep at [`RUN_SECONDS`], per stack — constants
        /// sized on the 2-core reference box so that the three stacks get
        /// about the same wall time (they simulate at very different speeds).
        groups: [usize; 3],
        /// Virtual seconds in one group's window.
        window_virtual_s: f64,
        /// Virtual seconds run before the window opens (part of set-up).
        warmup_virtual_s: f64,
        /// Generic broadcast on the new architecture (the baselines order
        /// the same stream with abcast, their only ordering primitive).
        generic: bool,
        /// Crash p0 at this share of every group's window; p0 then sends
        /// nothing, so every op must still complete at the survivors.
        crash_share: Option<f64>,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json` and held to the bounds. The others run by
    /// hand (`--workload <name>`) with the same metrics: the regression
    /// driver's time limit has room for four workloads at this run length.
    pub declared: bool,
    pub members: usize,
    pub payload: usize,
    /// Measured reps per stack at [`RUN_SECONDS`], interleaved across the
    /// stacks.
    pub reps: usize,
    pub load: Load,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "live-closed",
        why: "Live threads, channel wire, n=3, 64 B, closed loop of 1024: CPU-bound capacity of member dispatch, inbox, timer wheel and the metrics lock; the only workload that runs gcs-live.",
        declared: true,
        members: 3,
        payload: 64,
        reps: 8,
        load: Load::Closed {
            wire: WireMode::Channel,
            outstanding: 1024,
            warmup_ops: 20_000,
        },
    },
    Workload {
        name: "sim-steady",
        why: "Simulator, n=5, 64 B, 2000 ops/s pre-scheduled on a loss-free LAN, hundreds of 0.5 s groups: single-threaded per-op protocol cost with exact counts (the paper's E1); gcs-live does nothing.",
        declared: true,
        members: 5,
        payload: 64,
        reps: 8,
        load: Load::Sim {
            loss: [0.0; 3],
            rate: 2000,
            groups: [27, 67, 80],
            window_virtual_s: 0.5,
            warmup_virtual_s: 0.1,
            generic: false,
            crash_share: None,
        },
    },
    Workload {
        name: "sim-crash",
        why: "Simulator, n=3, 2000 ops/s from p1,p2, p0 crashed at 40% of every 1 s window: failover under scheduled load (FD timeout + round change vs flush vs ring reformation), exact per seed.",
        declared: true,
        members: 3,
        payload: 64,
        reps: 8,
        load: Load::Sim {
            loss: [0.0; 3],
            rate: 2000,
            groups: [27, 53, 53],
            window_virtual_s: 1.0,
            warmup_virtual_s: 0.2,
            generic: false,
            crash_share: Some(0.4),
        },
    },
    Workload {
        name: "sim-generic",
        why: "Simulator, n=5, 2000 ops/s in two classes with 1% in the conflicting class: newarch uses generic broadcast (fast path, rare escalation), the baselines must totally order everything.",
        declared: true,
        members: 5,
        payload: 64,
        reps: 8,
        load: Load::Sim {
            loss: [0.0; 3],
            rate: 2000,
            groups: [27, 67, 80],
            window_virtual_s: 0.5,
            warmup_virtual_s: 0.1,
            generic: true,
            crash_share: None,
        },
    },
    Workload {
        name: "live-tcp-4k",
        why: "As live-closed over loopback TCP with 4 KiB ops, 256 outstanding: the Link codec, sockets and pump threads dominate; a channel-path gain that costs the byte path shows here.",
        declared: false,
        members: 3,
        payload: 4096,
        reps: 8,
        load: Load::Closed {
            wire: WireMode::Tcp,
            outstanding: 256,
            warmup_ops: 5_000,
        },
    },
    Workload {
        name: "sim-lossy",
        why: "As sim-steady with 2% message loss for newarch and isis (token runs loss-free, see README): reliable-channel retransmission and Isis repair do most of the work here and none in sim-steady.",
        declared: false,
        members: 5,
        payload: 64,
        reps: 8,
        load: Load::Sim {
            // Token stays loss-free: under sustained loss it breaks the
            // oracle on some seeds (README, known findings).
            loss: [0.02, 0.02, 0.0],
            rate: 2000,
            groups: [15, 40, 90],
            window_virtual_s: 1.0,
            warmup_virtual_s: 0.2,
            generic: false,
            crash_share: None,
        },
    },
    Workload {
        name: "sim-scale",
        why: "Simulator, n=64 (gossip FD and bounded fan-out auto-selected), 400 ops/s: background work dominates — FD gossip, fan-out, timer wheel; per-op cores do little.",
        declared: false,
        members: 64,
        payload: 64,
        reps: 3,
        load: Load::Sim {
            loss: [0.0; 3],
            rate: 400,
            groups: [2, 3, 8],
            window_virtual_s: 1.0,
            warmup_virtual_s: 0.25,
            generic: false,
            crash_share: None,
        },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end only).
    pub bound: Option<f64>,
}

fn e2e(name: String, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

fn layer(name: &str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics: what a user of a group would feel.
pub fn end_to_end() -> Vec<MetricSpec> {
    let mut out = vec![e2e("setup_s".into(), "s", Better::Lower, 0.25)];
    for (_, s) in STACKS {
        out.push(e2e(format!("{s}.p50_ms"), "ms", Better::Lower, 0.25));
        out.push(e2e(format!("{s}.ops_per_s"), "1/s", Better::Higher, 0.25));
    }
    out
}

/// Per-stack layer metrics (name suffix, unit, direction).
const PER_STACK_LAYER: [(&str, &str, Better); 22] = [
    ("wire.msgs_per_op", "count", Better::Lower),
    ("wire.bytes_per_op", "B", Better::Lower),
    ("wire.useful_share", "%", Better::Higher),
    ("tail.p99_ms", "ms", Better::Lower),
    ("stage.first_ms_p50", "ms", Better::Lower),
    ("stage.spread_ms_p50", "ms", Better::Lower),
    ("ops_per_burst", "count", Better::Higher),
    ("views_installed", "count", Better::Lower),
    ("crash.outage_ms", "ms", Better::Lower),
    ("api.build_ms", "ms", Better::Lower),
    ("api.inject_ns_per_op", "ns", Better::Lower),
    ("api.refusals_per_op", "count", Better::Lower),
    ("api.observe_ns_per_delivery", "ns", Better::Lower),
    ("api.oracle_ns_per_delivery", "ns", Better::Lower),
    ("live.shutdown_ms", "ms", Better::Lower),
    ("live.events_per_op", "count", Better::Lower),
    ("live.member.cpu_us_per_op", "us", Better::Lower),
    ("live.member.runq_us_per_op", "us", Better::Lower),
    ("live.pump.cpu_us_per_op", "us", Better::Lower),
    ("live.timer.cpu_us_per_op", "us", Better::Lower),
    ("sim.events_per_op", "count", Better::Lower),
    ("sim.run_ns_per_event", "ns", Better::Lower),
];

/// The per-layer metrics. A layer a workload does not exercise reports 0
/// (the bypass check), never a missing key.
pub fn per_layer() -> Vec<MetricSpec> {
    let mut out = Vec::new();
    for (_, s) in STACKS {
        for (suffix, unit, better) in PER_STACK_LAYER {
            out.push(layer(&format!("{s}.{suffix}"), unit, better));
        }
        out.push(layer(
            &format!("{s}.sim.idle_ns_per_sim_s"),
            "ns",
            Better::Lower,
        ));
    }
    for (name, unit) in [
        ("newarch.net.rc_msgs_per_op", "count"),
        ("newarch.net.rc_bytes_per_op", "B"),
        ("newarch.fd.msgs_per_s", "1/s"),
        ("newarch.consensus.msgs_per_op", "count"),
        ("newarch.consensus.bytes_per_op", "B"),
        ("newarch.core.ab_msgs_per_op", "count"),
        ("newarch.core.gb_msgs_per_op", "count"),
        ("newarch.core.mb_mon_msgs_per_s", "1/s"),
        ("isis.traditional.data_msgs_per_op", "count"),
        ("isis.traditional.order_msgs_per_op", "count"),
        ("isis.traditional.repair_msgs_per_op", "count"),
        ("isis.traditional.heartbeat_msgs_per_s", "1/s"),
        ("isis.traditional.flush_msgs", "count"),
        ("token.traditional.token_msgs_per_op", "count"),
        ("token.traditional.data_msgs_per_op", "count"),
        ("token.traditional.nack_msgs_per_op", "count"),
        ("token.traditional.reform_msgs", "count"),
        ("sim.dropped_loss", "count"),
        ("gen.cpu_us_per_op", "us"),
        ("proc.cpu_s", "s"),
        ("proc.ctx_switches_per_op", "count"),
        ("proc.peak_rss_mb", "MB"),
        ("trace.overhead_share", "%"),
        ("failed_share", "%"),
    ] {
        out.push(layer(name, unit, Better::Lower));
    }
    out.push(layer("newarch.core.gb_fast_share", "%", Better::Higher));
    out
}

fn s(text: &str) -> Json {
    Json::Str(text.to_string())
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> Json {
    let metric = |m: &MetricSpec| {
        let mut fields = vec![
            ("name".to_string(), s(&m.name)),
            ("unit".to_string(), s(m.unit)),
            ("better".to_string(), s(m.better.as_str())),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound".to_string(), Json::Num(b)));
        }
        Json::Obj(fields)
    };
    Json::Obj(vec![
        (
            "command".to_string(),
            Json::Arr(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths".to_string(), Json::Arr(vec![s("benchmark")])),
        ("run_seconds".to_string(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".to_string(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .filter(|w| w.declared)
                    .map(|w| {
                        Json::Obj(vec![
                            ("name".to_string(), s(w.name)),
                            ("why".to_string(), s(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".to_string(),
            Json::Arr(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer".to_string(),
            Json::Arr(per_layer().iter().map(metric).collect()),
        ),
    ])
}

/// One-key-per-line rendering of the manifest, for a readable diff.
pub fn manifest_text() -> String {
    let m = manifest();
    let mut out = String::from("{\n");
    let fields = m.as_obj().expect("manifest is an object");
    for (i, (k, v)) in fields.iter().enumerate() {
        let last = i + 1 == fields.len();
        match v {
            Json::Arr(items) if items.iter().all(|x| matches!(x, Json::Obj(_))) => {
                out.push_str(&format!("  \"{k}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 == items.len() { "" } else { "," };
                    out.push_str(&format!("    {}{comma}\n", item.render()));
                }
                out.push_str(if last { "  ]\n" } else { "  ],\n" });
            }
            _ => {
                let comma = if last { "" } else { "," };
                out.push_str(&format!("  \"{k}\": {}{comma}\n", v.render()));
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for m in end_to_end().iter().chain(per_layer().iter()) {
            assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate name {}", m.name);
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name), "bad workload name {:?}", w.name);
            assert!(seen.insert(w.name.to_string()), "duplicate name {}", w.name);
            assert!(
                w.why.chars().count() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
        }
        assert!(end_to_end().len() <= 16 && per_layer().len() <= 128);
        assert!(end_to_end()
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn benchmark_json_is_the_rendered_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            manifest(),
            "BENCHMARK.json differs from spec.rs — regenerate with `gcs-benchmark manifest`"
        );
    }
}

//! From reps to named metrics: the fast decile of the run's slices for the
//! end-to-end set, the traced rep's counters for the per-layer set, and the
//! result line.

use std::collections::BTreeMap;

use crate::driver::Rep;
use crate::json::Json;
use crate::layers::Layer;
use crate::procstat::{self, ThreadClass};
use crate::spec::{self, Better, Load, Workload, STACKS};
use crate::stats;
use crate::RunData;

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines: every metric by name with its unit.
    pub lines: Vec<String>,
    pub violations: Vec<String>,
}

impl RunResult {
    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::Obj(vec![
                            ("value".to_string(), Json::Num(*value)),
                            ("unit".to_string(), Json::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The result object the regression driver reads from the last line.
    /// A `--quick` run carries an extra marker so nothing compares it.
    pub fn last_line(&self, quick: bool) -> Json {
        let mut fields = vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), self.metrics_json()),
        ];
        if quick {
            fields.push(("comparable".to_string(), Json::Bool(false)));
        }
        Json::Obj(fields)
    }

    /// The `--out` record: the result plus what produced it.
    pub fn record(
        &self,
        workload: &str,
        seed: u64,
        seconds: f64,
        trace: bool,
        quick: bool,
    ) -> Json {
        let Json::Obj(mut fields) = self.last_line(false) else {
            unreachable!("last_line is an object");
        };
        fields.insert(0, ("workload".to_string(), Json::Str(workload.to_string())));
        fields.insert(1, ("seed".to_string(), Json::Num(seed as f64)));
        fields.insert(2, ("seconds".to_string(), Json::Num(seconds)));
        fields.insert(3, ("trace".to_string(), Json::Bool(trace)));
        fields.insert(4, ("comparable".to_string(), Json::Bool(!quick)));
        Json::Obj(fields)
    }
}

fn per(total: f64, n: f64) -> f64 {
    if n > 0.0 {
        total / n
    } else {
        0.0
    }
}

fn p50(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        stats::quantile(sorted, 0.5)
    }
}

pub fn build(w: &Workload, trace: bool, data: &RunData) -> RunResult {
    let all_reps = || {
        data.measured
            .iter()
            .flatten()
            .chain(data.traced.iter().flatten())
    };
    let attempted: u64 = all_reps().map(|r| r.attempted).sum();
    let failed: u64 = all_reps().map(|r| r.failed).sum();
    let mut violations: Vec<String> = Vec::new();
    for (i, reps) in data.measured.iter().enumerate() {
        for r in reps
            .iter()
            .chain(data.traced[i].iter())
            .chain(data.idle[i].iter())
        {
            violations.extend(r.violations.iter().map(|v| format!("{}: {v}", STACKS[i].1)));
        }
    }

    let mut lines = Vec::new();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    if trace {
        per_layer(w, data, attempted, failed, &mut values);
    } else {
        end_to_end(data, &mut values, &mut lines);
    }

    let declared = if trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let mut metrics = Vec::with_capacity(declared.len());
    for m in &declared {
        // A layer this workload does not exercise reports 0, never a gap.
        let value = values.remove(&m.name).unwrap_or(0.0);
        if trace {
            lines.push(format!("{:<44} {:>16.4} {}", m.name, value, m.unit));
        }
        metrics.push((m.name.clone(), value, m.unit));
    }
    assert!(
        values.is_empty(),
        "metrics computed but not declared in spec.rs: {:?}",
        values.keys().collect::<Vec<_>>()
    );
    lines.push(format!(
        "attempted {attempted} ops, failed {failed} ({:.4} %)",
        per(failed as f64 * 100.0, attempted as f64)
    ));

    RunResult {
        correct: violations.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
        lines,
        violations,
    }
}

/// Interference on the shared host only ever slows a slice down, and it
/// comes in bursts seconds long, so a run's mean or median moves with how
/// much of the run the bursts covered. The tenth of the slices least
/// disturbed does not, as long as a tenth of the run was quiet: a time or a
/// latency is reported as the first decile of its slices, a rate as the
/// ninth.
const FAST_DECILE: f64 = 0.1;

/// 0 for an empty sample: a run in which nothing completed reports its ops
/// as failed, it does not panic.
fn fast_decile(sample: &mut [f64], better: Better) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    stats::sort(sample);
    stats::quantile(
        sample,
        match better {
            Better::Lower => FAST_DECILE,
            Better::Higher => 1.0 - FAST_DECILE,
        },
    )
}

fn end_to_end(data: &RunData, values: &mut BTreeMap<String, f64>, lines: &mut Vec<String>) {
    let mut setup = 0.0;
    for (i, (_, s)) in STACKS.iter().enumerate() {
        let reps = &data.measured[i];
        let pool = |of: fn(&Rep) -> &Vec<f64>| -> Vec<f64> {
            reps.iter().flat_map(|r| of(r).iter().copied()).collect()
        };
        setup += fast_decile(&mut pool(|r| &r.setups_s), Better::Lower);
        let mut metric = |suffix: &str, unit: &str, better: Better, mut slices: Vec<f64>| {
            let name = format!("{s}.{suffix}");
            let value = fast_decile(&mut slices, better);
            if let (Some(min), Some(max)) = (slices.first(), slices.last()) {
                lines.push(format!(
                    "{name:<20} {value:>14.4} {unit:<4} fast decile of {} slices (min {min:.4}, median {:.4}, max {max:.4})",
                    slices.len(),
                    stats::quantile(&slices, 0.5),
                ));
            }
            values.insert(name, value);
        };
        metric("p50_ms", "ms", Better::Lower, pool(|r| &r.slice_p50_ms));
        metric("ops_per_s", "1/s", Better::Higher, pool(|r| &r.slice_rates));
    }
    lines.push(format!(
        "{:<20} {setup:>14.6} s    sum over stacks of the fast decile of one group's build + warm-up",
        "setup_s"
    ));
    values.insert("setup_s".to_string(), setup);
}

fn per_layer(
    w: &Workload,
    data: &RunData,
    attempted: u64,
    failed: u64,
    values: &mut BTreeMap<String, f64>,
) {
    let live = !matches!(w.load, Load::Sim { .. });
    let crash = matches!(
        w.load,
        Load::Sim {
            crash_share: Some(_),
            ..
        }
    );
    let mut dropped_loss = 0u64;
    let mut gen_cpu_ns = 0u64;
    let mut switches = 0u64;
    let mut total_ops = 0u64;
    let mut overhead = Vec::new();

    for (i, (_, s)) in STACKS.iter().enumerate() {
        let Some(r) = data.traced[i].as_ref() else {
            continue;
        };
        let mut put = |suffix: &str, v: f64| {
            values.insert(format!("{s}.{suffix}"), v);
        };
        let ops = r.attempted as f64;
        let offers = (r.attempted + r.refusals) as f64;
        let deliveries = r.deliveries as f64;
        total_ops += r.attempted;
        dropped_loss += r.wire.dropped_loss;
        if let Some(reference) = data.measured[i].first() {
            // Median against median; on sim only the first group of the
            // traced rep is traced.
            let traced = if live {
                &r.slice_rates[..]
            } else {
                &r.slice_rates[..r.slice_rates.len().min(1)]
            };
            if !traced.is_empty() && !reference.slice_rates.is_empty() {
                overhead
                    .push(1.0 - per(stats::median(traced), stats::median(&reference.slice_rates)));
            }
        }

        put("wire.msgs_per_op", per(r.wire.sent as f64, ops));
        put("wire.bytes_per_op", per(r.wire.sent_bytes as f64, ops));
        put(
            "wire.useful_share",
            per(r.wire.delivered as f64 * 100.0, r.wire.sent as f64),
        );
        if !r.lat_ms.is_empty() {
            // The highest percentile with ten samples beyond it: p99 at full
            // size, lower only in a sample too small to support it.
            put("tail.p99_ms", stats::tail(&r.lat_ms).0);
        }
        put("stage.first_ms_p50", p50(&r.first_ms));
        put("stage.spread_ms_p50", p50(&r.spread_ms));
        put(
            "ops_per_burst",
            per(r.completed_in_window as f64, r.bursts as f64),
        );
        put("views_installed", r.views_installed as f64);
        if crash {
            put("crash.outage_ms", stats::median(&r.outage_ms));
        }
        put("api.build_ms", r.timings.build_ns as f64 / 1e6);
        put(
            "api.inject_ns_per_op",
            per(r.timings.inject_ns as f64, if live { offers } else { ops }),
        );
        put("api.refusals_per_op", per(r.refusals as f64, ops));
        put(
            "api.observe_ns_per_delivery",
            per(r.timings.observe_ns as f64, deliveries),
        );
        put(
            "api.oracle_ns_per_delivery",
            per(r.timings.oracle_ns as f64, deliveries),
        );
        if live {
            put("live.shutdown_ms", r.timings.shutdown_ns as f64 / 1e6);
            put("live.events_per_op", per(r.events as f64, ops));
            if let Some((before, after)) = &r.threads {
                let us_per_op = |nanos: u64| per(nanos as f64 / 1e3, ops);
                put(
                    "live.member.cpu_us_per_op",
                    us_per_op(after.cpu_since(before, ThreadClass::Member)),
                );
                put(
                    "live.member.runq_us_per_op",
                    us_per_op(after.runq_since(before, ThreadClass::Member)),
                );
                put(
                    "live.pump.cpu_us_per_op",
                    us_per_op(after.cpu_since(before, ThreadClass::Pump)),
                );
                put(
                    "live.timer.cpu_us_per_op",
                    us_per_op(after.cpu_since(before, ThreadClass::Timer)),
                );
                gen_cpu_ns += after.cpu_since(before, ThreadClass::Generator);
                switches += after.switches.saturating_sub(before.switches);
            }
        } else {
            put("sim.events_per_op", per(r.events as f64, ops));
            put(
                "sim.run_ns_per_event",
                per(r.timings.run_ns as f64, r.events as f64),
            );
            if let Some(idle) = data.idle[i].as_ref() {
                put(
                    "sim.idle_ns_per_sim_s",
                    per(idle.timings.run_ns as f64, idle.window_group_s),
                );
            }
        }

        let secs = r.window_group_s;
        let msgs = |l: Layer| r.wire.msgs_of(l) as f64;
        match *s {
            "newarch" => {
                put("net.rc_msgs_per_op", per(msgs(Layer::NetRc), ops));
                put(
                    "net.rc_bytes_per_op",
                    per(r.wire.bytes_of(Layer::NetRc) as f64, ops),
                );
                put("fd.msgs_per_s", per(msgs(Layer::Fd), secs));
                put("consensus.msgs_per_op", per(msgs(Layer::Consensus), ops));
                put(
                    "consensus.bytes_per_op",
                    per(r.wire.bytes_of(Layer::Consensus) as f64, ops),
                );
                put("core.ab_msgs_per_op", per(msgs(Layer::CoreAb), ops));
                put("core.gb_msgs_per_op", per(msgs(Layer::CoreGb), ops));
                put(
                    "core.gb_fast_share",
                    per(r.gb_fast as f64 * 100.0, r.gb_deliveries as f64),
                );
                put("core.mb_mon_msgs_per_s", per(msgs(Layer::CoreMbMon), secs));
            }
            "isis" => {
                put(
                    "traditional.data_msgs_per_op",
                    per(msgs(Layer::IsisData), ops),
                );
                put(
                    "traditional.order_msgs_per_op",
                    per(msgs(Layer::IsisOrder), ops),
                );
                put(
                    "traditional.repair_msgs_per_op",
                    per(msgs(Layer::IsisRepair), ops),
                );
                put(
                    "traditional.heartbeat_msgs_per_s",
                    per(msgs(Layer::IsisHeartbeat), secs),
                );
                put("traditional.flush_msgs", msgs(Layer::IsisFlush));
            }
            "token" => {
                put(
                    "traditional.token_msgs_per_op",
                    per(msgs(Layer::TokenToken), ops),
                );
                put(
                    "traditional.data_msgs_per_op",
                    per(msgs(Layer::TokenData), ops),
                );
                put(
                    "traditional.nack_msgs_per_op",
                    per(msgs(Layer::TokenNack), ops),
                );
                put("traditional.reform_msgs", msgs(Layer::TokenReform));
            }
            other => unreachable!("no layer table for stack {other}"),
        }
    }

    values.insert("sim.dropped_loss".to_string(), dropped_loss as f64);
    values.insert(
        "gen.cpu_us_per_op".to_string(),
        per(gen_cpu_ns as f64 / 1e3, total_ops as f64),
    );
    values.insert(
        "proc.ctx_switches_per_op".to_string(),
        per(switches as f64, total_ops as f64),
    );
    if let Some(cpu) = procstat::process_cpu_s() {
        values.insert("proc.cpu_s".to_string(), cpu);
    }
    if let Some(rss) = procstat::peak_rss_mb() {
        values.insert("proc.peak_rss_mb".to_string(), rss);
    }
    if !overhead.is_empty() {
        values.insert(
            "trace.overhead_share".to_string(),
            overhead.iter().sum::<f64>() * 100.0 / overhead.len() as f64,
        );
    }
    values.insert(
        "failed_share".to_string(),
        per(failed as f64 * 100.0, attempted as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fast_decile_is_low_for_times_and_high_for_rates() {
        let mut sample: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        assert_eq!(fast_decile(&mut sample, Better::Lower), 10.0);
        assert_eq!(fast_decile(&mut sample, Better::Higher), 90.0);
        // One lucky slice does not set it.
        sample[100] = 1e9;
        assert_eq!(fast_decile(&mut sample, Better::Higher), 90.0);
    }
}

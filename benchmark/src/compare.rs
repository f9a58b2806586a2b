//! `compare <a.jsonl> <b.jsonl>`: one row per (end-to-end metric,
//! workload) saying whether `b` improved on, matched or regressed from
//! `a`, judged by the bounds every metric declares. The inputs are the
//! files `--out` appends to, one record per run.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::spec::{self, Better, MetricSpec};
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The runs of one side spread wider than the bound, so "no change"
    /// cannot be told from a change of the bound's size.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric on one workload from each side's per-run values.
/// A median worse by more than the bound is a regression however noisy
/// the runs were (that is the rule the regression driver applies); a wide
/// spread only withholds "unchanged" and "improved".
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let change = if med_a == 0.0 {
        0.0
    } else {
        (med_b - med_a) / med_a.abs()
    };
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if stats::spread(a).max(stats::spread(b)) > bound {
        Verdict::Unresolved
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, change)
}

/// One side of the comparison: per workload, per metric, one value per run.
#[derive(Default)]
struct Side {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    attempted: BTreeMap<String, f64>,
    failed: BTreeMap<String, f64>,
    incorrect: u64,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = || format!("{path}:{}", i + 1);
        let rec = json::parse(line).map_err(|e| format!("{}: {e}", at()))?;
        if rec.get("comparable").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "{}: a --quick run is a smoke test; its numbers do not compare",
                at()
            ));
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", at()))?
            .to_string();
        let num = |key: &str| {
            rec.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: no {key}", at()))
        };
        // Traced runs carry per-layer numbers and a shorter schedule; only
        // the untraced runs hold the end-to-end set.
        if rec.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        *side.attempted.entry(workload.clone()).or_default() += num("attempted")?;
        *side.failed.entry(workload.clone()).or_default() += num("failed")?;
        if rec.get("correct").and_then(Json::as_bool) != Some(true) {
            side.incorrect += 1;
        }
        let metrics = rec
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{}: no metrics", at()))?;
        let per_metric = side.values.entry(workload).or_default();
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: metric {name} has no value", at()))?;
            per_metric.entry(name.clone()).or_default().push(v);
        }
    }
    Ok(side)
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let specs: Vec<MetricSpec> = spec::end_to_end();
    let mut bad = false;
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "a (median)", "b (median)", "change", "bound"
    );
    for w in spec::WORKLOADS {
        let (Some(va), Some(vb)) = (a.values.get(w.name), b.values.get(w.name)) else {
            continue;
        };
        for m in &specs {
            let (Some(xa), Some(xb)) = (va.get(&m.name), vb.get(&m.name)) else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let (verdict, change) = judge(m.better, bound, xa, xb);
            bad |= verdict == Verdict::Regressed;
            println!(
                "{:<12} {:<18} {:>14.4} {:>14.4} {:>+7.2}% {:>5.0}%  {} (n={}/{}, spread {:.1}%/{:.1}%)",
                w.name,
                m.name,
                stats::median(xa),
                stats::median(xb),
                change * 100.0,
                bound * 100.0,
                verdict.as_str(),
                xa.len(),
                xb.len(),
                stats::spread(xa) * 100.0,
                stats::spread(xb) * 100.0,
            );
        }
        let share = |s: &Side| {
            let attempted = s.attempted.get(w.name).copied().unwrap_or(0.0);
            if attempted > 0.0 {
                s.failed.get(w.name).copied().unwrap_or(0.0) / attempted
            } else {
                0.0
            }
        };
        let (fa, fb) = (share(&a), share(&b));
        let worse = fb > fa;
        bad |= worse;
        println!(
            "{:<12} {:<18} {:>14.6} {:>14.6} {:>8} {:>6}  {}",
            w.name,
            "failed_share",
            fa,
            fb,
            "",
            "",
            if worse { "regressed" } else { "unchanged" }
        );
    }
    if b.incorrect > 0 {
        println!("{} run(s) of b failed their correctness check", b.incorrect);
        bad = true;
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        // Lower is better, 5 % bound.
        assert_eq!(
            judge(Better::Lower, 0.05, &steady, &[108.0, 107.0, 109.0]).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Lower, 0.05, &steady, &[90.0, 91.0, 92.0]).0,
            Verdict::Improved
        );
        assert_eq!(
            judge(Better::Lower, 0.05, &steady, &[102.0, 101.0, 103.0]).0,
            Verdict::Unchanged
        );
        // Higher is better: the same drop is a regression.
        assert_eq!(
            judge(Better::Higher, 0.05, &steady, &[90.0, 91.0, 92.0]).0,
            Verdict::Regressed
        );
        // Runs that spread wider than the bound cannot show "unchanged".
        assert_eq!(
            judge(Better::Lower, 0.05, &steady, &[80.0, 100.0, 120.0, 101.0]).0,
            Verdict::Unresolved
        );
        // A single run per side has no spread and still gets a verdict.
        assert_eq!(
            judge(Better::Lower, 0.05, &[100.0], &[100.0]).0,
            Verdict::Unchanged
        );
    }
}

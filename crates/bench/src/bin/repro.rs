//! Regenerates the paper's experiments and runs the scenario matrix.
//!
//! ```text
//! repro [e1|e2|e3|e4|a1|a2|all]        paper experiments (markdown tables)
//! repro list                           enumerate experiments + scenarios
//! repro scenario <name> [seed] [--members N]
//!                                      run one named scenario (optionally resized)
//! repro sweep [seeds] [base]           whole catalog × seeds across threads
//! ```
//!
//! Output is markdown; EXPERIMENTS.md records a run of `repro all`. Every
//! figure is virtual time, so it reproduces exactly on any machine;
//! wall-clock performance is `bash benchmark/run.sh`'s business.

use std::time::Instant;

use gcs_bench::{experiments, scenario};

/// The paper experiments: one `(CLI name, description)` row per command —
/// the single source `usage()` and `list()` both render.
const EXPERIMENTS: &[(&str, &str)] = &[
    ("e1", "ordering complexity (§4.1)"),
    ("e2", "generic vs atomic broadcast (§4.2)"),
    ("e3", "failover latency + false-suspicion cost (§4.3)"),
    ("e4", "view-change blocking (§4.4)"),
    ("a1", "consensus cost (Chandra-Toueg messages per decision)"),
    ("a2", "failure-detector quality"),
];

fn usage() -> String {
    let mut s = String::from("usage: repro <command>\n\npaper experiments (markdown tables):\n");
    for (name, about) in EXPERIMENTS {
        s.push_str(&format!("  {name:<10} {about}\n"));
    }
    s.push_str(
        "  all        every experiment in order

scenario engine:
  list                       enumerate experiments and named scenarios
  scenario <name> [seed] [--members N]
                             run one scenario, print its report with the
                             per-kind message table; --members resizes the
                             founding group (for scenarios whose schedule
                             names no process, e.g. uniform-lan)
  sweep [seeds] [base] [threads]
                             run the whole catalog x seeds across worker
                             threads (default: 3 seeds from 7, all cores);
                             prints per-scenario mean/sigma aggregates
                             across seeds plus a JSON aggregate object
",
    );
    s
}

fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("{}", usage());
    std::process::exit(2);
}

/// Parses positional argument `nth` as a number, defaulting when absent and
/// exiting with usage on garbage (`what` labels the error).
fn numeric_arg<T: std::str::FromStr>(nth: usize, what: &str, default: T) -> T {
    std::env::args()
        .nth(nth)
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| usage_error(&format!("bad {what} {s:?}")))
        })
        .unwrap_or(default)
}

/// Renders an f64 as a JSON value: numbers stay numbers, non-finite
/// figures (NaN latency when a run records no samples) become `null`
/// rather than invalid JSON.
fn json_f64(v: f64, precision: usize) -> String {
    if v.is_finite() {
        format!("{v:.precision$}")
    } else {
        "null".to_string()
    }
}

/// Renders the cross-seed aggregates as a JSON object (no external JSON
/// dependency), keyed by scenario name.
fn sweep_aggregates_json(aggregates: &[gcs_bench::scenario::SweepAggregate]) -> String {
    let mut s = String::from("{\n");
    for (i, a) in aggregates.iter().enumerate() {
        s.push_str(&format!(
            "  \"{}\": {{\"runs\": {}, \"mean_latency_ms\": {}, \"latency_stddev_ms\": {}, \
\"mean_p99_ms\": {}, \"mean_events\": {:.1}, \"events_stddev\": {:.1}, \"mean_msgs\": {:.1}, \
\"distinct_fingerprints\": {}}}{}\n",
            a.name,
            a.runs,
            json_f64(a.mean_latency_ms, 4),
            json_f64(a.latency_stddev_ms, 4),
            json_f64(a.mean_p99_ms, 4),
            a.mean_events,
            a.events_stddev,
            a.mean_msgs,
            a.distinct_fingerprints,
            if i + 1 == aggregates.len() { "" } else { "," }
        ));
    }
    s.push('}');
    s
}

/// `sweep [seeds] [base] [threads]`: run every cataloged scenario at
/// `seeds` consecutive seeds starting from `base`, fanned out across
/// worker threads (defaults to the machine's parallelism), and print one
/// merged table in deterministic task order, the per-scenario mean/σ
/// aggregates across seeds, and the aggregate JSON object.
fn sweep() {
    // At least one seed: `sweep 0` would otherwise underflow the header
    // range and run nothing.
    let seeds: u64 = numeric_arg(2, "seeds", 3u64).max(1);
    let base: u64 = numeric_arg(3, "base seed", 7u64);
    let default_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads: usize = numeric_arg(4, "threads", default_threads);
    // The 1024-member scale point stays behind the explicit `scenario`
    // command: at sweep multiplicities (seeds x full trace) it would
    // dominate the whole sweep's wall time.
    let names: Vec<&'static str> = scenario::catalog()
        .iter()
        .filter(|s| s.n < 1024)
        .map(|s| s.name)
        .collect();
    println!(
        "(scenarios with n >= 1024 excluded from sweeps; run them via `repro scenario uniform-lan-1024`)"
    );
    let tasks: Vec<(&'static str, u64)> = names
        .iter()
        .flat_map(|&n| (0..seeds).map(move |k| (n, base + k)))
        .collect();

    let t0 = Instant::now();
    let results = scenario::run_sweep(&tasks, threads);
    let wall = t0.elapsed();

    println!(
        "## scenario sweep: {} scenarios x {seeds} seeds ({base}..{}) on {threads} threads\n",
        names.len(),
        base + seeds - 1
    );
    println!("| scenario | seed | injected | deliveries | mean lat (ms) | p99 (ms) | msgs | events | viol | fingerprint |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for r in &results {
        println!("{}", r.sweep_row());
    }
    let total_violations: usize = results.iter().map(|r| r.violations.len()).sum();
    if total_violations > 0 {
        println!("\n**{total_violations} invariant violations found:**\n");
        for r in results.iter().filter(|r| !r.violations.is_empty()) {
            for v in &r.violations {
                println!("- {}@{}: {v}", r.name, r.seed);
            }
        }
    }
    let aggregates = scenario::aggregate(&results);
    println!("\n### cross-seed aggregates (mean ± σ over {seeds} seeds)\n");
    println!("| scenario | runs | mean lat (ms) | σ lat (ms) | mean p99 (ms) | mean events | σ events | distinct fingerprints |");
    println!("|---|---|---|---|---|---|---|---|");
    for a in &aggregates {
        println!(
            "| {} | {} | {:.2} | {:.2} | {:.2} | {:.0} | {:.1} | {} |",
            a.name,
            a.runs,
            a.mean_latency_ms,
            a.latency_stddev_ms,
            a.mean_p99_ms,
            a.mean_events,
            a.events_stddev,
            a.distinct_fingerprints
        );
    }
    println!("\n```json\n{}\n```", sweep_aggregates_json(&aggregates));
    println!(
        "\n{} runs in {:.2}s wall-clock on {threads} threads",
        results.len(),
        wall.as_secs_f64()
    );
}

fn list() {
    println!("experiments:");
    for (name, about) in EXPERIMENTS {
        println!("  {name:<22} {about}");
    }
    println!("\nscenarios (workload × topology × schedule):");
    for s in scenario::catalog() {
        println!(
            "  {:<22} [{}] n={}{} on {:<12} {}",
            s.name,
            s.stack.name(),
            s.n,
            if s.joiners > 0 {
                format!("+{}", s.joiners)
            } else {
                String::new()
            },
            s.topology.name(),
            s.about
        );
    }
    println!(
        "\ntopology presets: {}",
        gcs_sim::TOPOLOGY_PRESETS.join(", ")
    );
}

/// What `scenario <name>` takes after the name.
#[derive(Debug, PartialEq)]
struct ScenarioArgs {
    seed: u64,
    members: Option<usize>,
}

/// Parses one optional positional seed (default 7) and `--members N`, in
/// either order; anything else is an error.
fn parse_scenario_args(args: &[impl AsRef<str>]) -> Result<ScenarioArgs, String> {
    let mut seed = None;
    let mut members = None;
    let mut args = args.iter().map(AsRef::as_ref);
    while let Some(a) = args.next() {
        if a == "--members" && members.is_none() {
            let n = args.next().and_then(|n| n.parse().ok());
            members = Some(
                n.filter(|&n: &usize| n > 0)
                    .ok_or("--members needs a group size")?,
            );
        } else if seed.is_none() && !a.starts_with('-') {
            seed = Some(a.parse().map_err(|_| format!("bad seed {a:?}"))?);
        } else {
            return Err(format!("unexpected argument {a:?}"));
        }
    }
    Ok(ScenarioArgs {
        seed: seed.unwrap_or(7),
        members,
    })
}

fn run_scenario() {
    let name = std::env::args()
        .nth(2)
        .unwrap_or_else(|| usage_error("scenario needs a name (see `repro list`)"));
    let args: Vec<String> = std::env::args().skip(3).collect();
    let ScenarioArgs { seed, members } =
        parse_scenario_args(&args).unwrap_or_else(|e| usage_error(&e));
    let Some(mut s) = scenario::by_name(&name) else {
        usage_error(&format!("unknown scenario {name:?} (see `repro list`)"));
    };
    if let Some(n) = members {
        s.n = n;
    }
    let r = s.run(seed);
    println!("## scenario {} (seed {seed})\n", s.name);
    println!("{}", s.about);
    println!();
    println!("| metric | value |");
    println!("|---|---|");
    println!(
        "| group | n={} joiners={} on {} |",
        s.n,
        s.joiners,
        s.topology.name()
    );
    println!("| injected ops | {} |", r.injected);
    println!("| deliveries | {} |", r.deliveries);
    println!("| mean latency (virtual ms) | {:.2} |", r.mean_latency_ms);
    println!("| p99 latency (virtual ms) | {:.2} |", r.p99_latency_ms);
    println!("| messages sent | {} |", r.msgs);
    println!("| wire bytes | {} |", r.bytes);
    println!("| sim events executed | {} |", r.events);
    println!("| run fingerprint | {:016x} |", r.fingerprint);
    if let Some(ms) = r.crash_detect_ms {
        println!("| crash detected by all correct (virtual ms) | {ms:.2} |");
    }
    println!("| payload arena live | {} |", r.arena_live);
    println!("| invariant violations | {} |", r.violations.len());
    if !r.violations.is_empty() {
        println!("\n### invariant violations\n");
        for v in &r.violations {
            println!("- {v}");
        }
    }
    println!("\n### messages by kind\n");
    println!("| kind | msgs | bytes | msgs/op | bytes/op |");
    println!("|---|---|---|---|---|");
    let ops = r.injected.max(1) as f64;
    for (kind, msgs, bytes) in &r.by_kind {
        println!(
            "| {kind} | {msgs} | {bytes} | {:.2} | {:.1} |",
            *msgs as f64 / ops,
            *bytes as f64 / ops
        );
    }
    if !r.region_latency.is_empty() {
        println!("\n### one-way link latency by region pair (log2 histograms)\n");
        println!("| src region | dst region | msgs | mean (ms) | ~p50 (ms) | ~p99 (ms) |");
        println!("|---|---|---|---|---|---|");
        for p in &r.region_latency {
            println!(
                "| r{} | r{} | {} | {:.2} | {:.2} | {:.2} |",
                p.from, p.to, p.count, p.mean_ms, p.p50_ms, p.p99_ms
            );
        }
    }
    // A scenario run that violates the paper's invariants is a failure,
    // not a report footnote — the CI smoke steps rely on the exit code.
    if !r.violations.is_empty() {
        std::process::exit(1);
    }
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match arg.as_str() {
        "e1" => experiments::e1_ordering_complexity(),
        "e2" => experiments::e2_generic_vs_atomic(),
        "e3" => {
            experiments::e3_failover_latency();
            experiments::e3_false_suspicion_cost();
        }
        "e4" => experiments::e4_view_change_blocking(),
        "a1" => experiments::a1_consensus_cost(),
        "a2" => experiments::a2_fd_quality(),
        "all" => experiments::run_all(),
        "list" => list(),
        "scenario" => run_scenario(),
        "sweep" => sweep(),
        "help" | "--help" | "-h" => println!("{}", usage()),
        other => usage_error(&format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_args_take_seed_and_members_in_either_order() {
        let parsed = |args: &[&str]| parse_scenario_args(args);
        let want = |seed, members| {
            Ok(ScenarioArgs {
                seed,
                members: Some(members),
            })
        };
        assert_eq!(parsed(&["9", "--members", "5"]), want(9, 5));
        assert_eq!(parsed(&["--members", "5", "9"]), want(9, 5));
        assert_eq!(
            parsed(&[]),
            Ok(ScenarioArgs {
                seed: 7,
                members: None
            })
        );
        assert!(parsed(&["--members"]).is_err(), "missing N");
        assert!(parsed(&["--members", "9x"]).is_err(), "bad N");
        assert!(parsed(&["--members", "0"]).is_err(), "empty group");
        assert!(parsed(&["9", "10"]).is_err(), "stray argument");
        assert!(parsed(&["9", "--quick"]).is_err(), "unknown flag");
        assert!(parsed(&["--members", "5", "--members", "6"]).is_err());
    }
}

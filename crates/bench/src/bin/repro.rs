//! Regenerates the paper's experiments and runs the scenario matrix.
//!
//! ```text
//! repro [e1|e2|e3|e4|a1|a2|all]        paper experiments (markdown tables)
//! repro list                           enumerate experiments + scenarios
//! repro scenario <name> [seed] [--members N]
//!                                      run one named scenario (optionally resized)
//! repro sweep [seeds] [base]           whole catalog × seeds across threads
//! repro bench-pr1 [reps]               PR-1 perf trajectory (JSON to stdout)
//! repro bench-pr2 [reps]               PR-2 scenario trajectory → BENCH_PR2.json
//! repro bench-pr3 [reps]               PR-3 trajectory + alloc metric → BENCH_PR3.json
//! repro bench-pr7 [reps]               PR-7 scale ladder (64/256/1024) → BENCH_PR7.json
//! repro saturate [--quick] [--stack <name>]
//!                                      offered-load sweep per stack → BENCH_PR8.json
//! repro live [msgs]                    sim-vs-live latency comparison → BENCH_PR9.json
//! repro throughput [n] [horizon_ms]    one timed steady-state run (profiling probe)
//! ```
//!
//! Experiment output is markdown; EXPERIMENTS.md records a run of
//! `repro all`. The bench-* commands time hot-path workloads with a plain
//! `Instant` loop (run them from a `--release` build); `bench-pr2` also
//! writes `BENCH_PR2.json` in the current directory — the committed
//! trajectory of the scenario engine.

use std::time::Instant;

use gcs_bench::alloccount::CountingAlloc;
use gcs_bench::{experiments, live, perf, saturate, scenario};
use gcs_sim::TraceMode;

// The instrumented allocator behind `bench-pr3`'s allocations-per-adelivery
// metric. Two relaxed atomic adds per allocation; negligible against the
// wall-clock workloads it coexists with.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The paper experiments: one `(CLI name, description)` row per command —
/// the single source `usage()` and `list()` both render.
const EXPERIMENTS: &[(&str, &str)] = &[
    ("e1", "ordering complexity (§4.1)"),
    ("e2", "generic vs atomic broadcast (§4.2)"),
    ("e3", "failover latency + false-suspicion cost (§4.3)"),
    ("e4", "view-change blocking (§4.4)"),
    ("a1", "consensus ablation (Chandra-Toueg vs Paxos)"),
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

perf trajectories (use a --release build):
  bench-pr1 [reps]           PR-1 workloads, JSON to stdout
  bench-pr2 [reps]           scenario matrix + hot-path guard, writes BENCH_PR2.json
  bench-pr3 [reps]           scenario matrix + sim_throughput/{64,256} + abcast
                             allocations-per-adelivery, writes BENCH_PR3.json
  bench-pr7 [reps]           scenario matrix (incl. uniform-lan-256) + the
                             sim_throughput 64/256/1024 scale ladder over one
                             full simulated second + alloc profile, guarded
                             against BENCH_PR3.json, writes BENCH_PR7.json
  saturate [--quick] [--stack <name>]
                             open-loop offered-load sweep per stack: goodput
                             vs offered load, latency vs throughput, knee
                             detection, plus a bounded-queue backpressure
                             run; all figures are virtual-time-deterministic.
                             Writes BENCH_PR8.json and enforces its guards;
                             --quick runs a 2-rate smoke with loose guards
                             and writes nothing; --stack restricts the sweep
                             to one stack's variants (tables only, no JSON)
  live [msgs]                the same fixed workload per stack on the
                             simulator and on the live thread-per-member
                             backend (real clocks, real wire), side by side;
                             guards that every op delivers on both backends,
                             writes BENCH_PR9.json
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

fn bench_pr1() {
    let measurements = perf::run_all(numeric_arg(2, "reps", 15usize));
    println!("{}", perf::to_json(&measurements));
}

fn bench_pr2() {
    let reps = numeric_arg(2, "reps", 7usize);
    let measurements = perf::run_pr2(reps);
    let body = perf::to_json(&measurements);
    let json = format!(
        "{{\n  \"description\": \"PR 2 scenario engine: wall-clock trajectory of the \
workload × topology × schedule matrix (seed 7, counts-only trace). \
sim_throughput/64 is the hot-path guard and must stay within noise of \
BENCH_PR1.json. Regenerate with: cargo run --release -p gcs-bench --bin repro -- bench-pr2 [reps].\",\n  \
\"measurements\": {body}\n}}"
    );
    println!("{json}");
    match std::fs::write("BENCH_PR2.json", format!("{json}\n")) {
        Ok(()) => eprintln!("wrote BENCH_PR2.json"),
        Err(e) => {
            eprintln!("repro: cannot write BENCH_PR2.json: {e}");
            std::process::exit(1);
        }
    }
}

fn bench_pr3() {
    let reps = numeric_arg(2, "reps", 7usize);
    let measurements = perf::run_pr3(reps);
    let body = perf::to_json(&measurements);
    let allocs = vec![perf::measure_allocs(
        "abcast_steady/5",
        perf::abcast_steady_5_stats,
    )];
    let alloc_body = perf::allocs_to_json(&allocs);
    let json = format!(
        "{{\n  \"description\": \"PR 3 zero-copy message plane: wall-clock trajectory of the \
tracked scenarios plus both sim_throughput guard points (seed 7, counts-only trace), and the \
abcast steady-state allocation profile from the instrumented global allocator. \
sim_throughput/64 must stay within noise of BENCH_PR2.json; allocs_per_delivery must stay \
under the alloc_guard budget (pre-PR baseline: 33.4). Regenerate with: cargo run --release \
-p gcs-bench --bin repro -- bench-pr3 [reps].\",\n  \
\"measurements\": {body},\n  \"allocations\": {alloc_body}\n}}"
    );
    println!("{json}");
    match std::fs::write("BENCH_PR3.json", format!("{json}\n")) {
        Ok(()) => eprintln!("wrote BENCH_PR3.json"),
        Err(e) => {
            eprintln!("repro: cannot write BENCH_PR3.json: {e}");
            std::process::exit(1);
        }
    }
}

/// Reads `field` of the `"<name>": {...}` measurement object in a
/// `BENCH_PR*.json` file written by this binary (no JSON dependency — the
/// files are machine-written with a fixed shape).
fn read_bench_field(json: &str, name: &str, field: &str) -> Option<u64> {
    let obj = &json[json.find(&format!("\"{name}\""))?..];
    let obj = &obj[..obj.find('}')?];
    let v = &obj[obj.find(&format!("\"{field}\""))? + field.len() + 3..];
    let digits: String = v
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn bench_pr7() {
    let reps = numeric_arg(2, "reps", 5usize);
    let measurements = perf::run_pr7(reps);
    let allocs = vec![perf::measure_allocs(
        "abcast_steady/5",
        perf::abcast_steady_5_stats,
    )];

    // Regression guards against the PR-3 trajectory. The 64-point guard is
    // on wall time (the gossip/bounded-relay stack executes a several-fold
    // smaller event stream for the same simulated second, so events/sec is
    // not comparable across the two trajectories); the 256-point guard is
    // the PR's acceptance figure.
    let mut failures = Vec::new();
    match std::fs::read_to_string("BENCH_PR3.json") {
        Ok(pr3) => {
            let pr3_64 = read_bench_field(&pr3, "sim_throughput/64", "median_ns");
            let new_64 = measurements
                .iter()
                .find(|m| m.name == "sim_throughput/64")
                .map(|m| m.median_ns);
            match (pr3_64, new_64) {
                (Some(old), Some(new)) => {
                    // 1.25× headroom for machine noise; the PR lands ~4×
                    // under the old figure.
                    if new * 4 > old * 5 {
                        failures.push(format!(
                            "sim_throughput/64 wall regressed: {new} ns vs PR-3 {old} ns"
                        ));
                    } else {
                        eprintln!("guard ok: sim_throughput/64 wall {new} ns vs PR-3 {old} ns");
                    }
                }
                _ => {
                    eprintln!("warning: sim_throughput/64 missing from a trajectory; guard skipped")
                }
            }
        }
        Err(e) => eprintln!("warning: BENCH_PR3.json unreadable ({e}); 64-point guard skipped"),
    }
    if let Some(m) = measurements.iter().find(|m| m.name == "sim_throughput/256") {
        if m.events_per_sec < 840_000 {
            failures.push(format!(
                "sim_throughput/256 below the 10x acceptance bar: {} events/sec < 840000",
                m.events_per_sec
            ));
        } else {
            eprintln!(
                "guard ok: sim_throughput/256 at {} events/sec",
                m.events_per_sec
            );
        }
    }

    let body = perf::to_json(&measurements);
    let alloc_body = perf::allocs_to_json(&allocs);
    let json = format!(
        "{{\n  \"description\": \"PR 7 scalable monitoring and dissemination: wall-clock \
trajectory of the tracked scenarios (now including the 256-member gossip-FD scale point) \
plus the sim_throughput scale ladder 64/256/1024, each over one full simulated second \
(seed 7, counts-only trace), and the abcast steady-state allocation profile. Guards: \
sim_throughput/64 wall time must stay within 1.25x of BENCH_PR3.json (the event stream \
shrank several-fold, so events/sec is not comparable); sim_throughput/256 must reach \
840000 events/sec (10x the PR-3 figure). Regenerate with: cargo run --release -p gcs-bench \
--bin repro -- bench-pr7 [reps].\",\n  \
\"measurements\": {body},\n  \"allocations\": {alloc_body}\n}}"
    );
    println!("{json}");
    match std::fs::write("BENCH_PR7.json", format!("{json}\n")) {
        Ok(()) => eprintln!("wrote BENCH_PR7.json"),
        Err(e) => {
            eprintln!("repro: cannot write BENCH_PR7.json: {e}");
            std::process::exit(1);
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("repro: GUARD FAILED: {f}");
        }
        std::process::exit(1);
    }
}

/// Renders one variant's saturation curve as a JSON object.
fn curve_json(v: &saturate::Variant, curve: &[saturate::Point]) -> String {
    let mut s = String::from("{\n      \"knee_rate\": ");
    match saturate::knee(curve) {
        Some(k) => s.push_str(&k.to_string()),
        None => s.push_str("null"),
    }
    // An expected-uncapped variant reports *why* its knee is null, so the
    // committed JSON cannot be misread as a sweep that stopped too early.
    if saturate::knee(curve).is_none() {
        if let Some(note) = saturate::uncapped_note(v) {
            s.push_str(&format!(",\n      \"knee_note\": \"{note}\""));
        }
    }
    s.push_str(&format!(
        ",\n      \"sustained_goodput\": {:.1},\n      \"points\": [\n",
        saturate::sustained_goodput(curve)
    ));
    for (i, p) in curve.iter().enumerate() {
        s.push_str(&format!(
            "        {{\"rate\": {}, \"offered\": {}, \"accepted\": {}, \"goodput\": {:.1}, \
\"mean_ms\": {}, \"p99_ms\": {}}}{}\n",
            p.rate,
            p.offered,
            p.accepted,
            p.goodput,
            json_f64(p.mean_ms, 2),
            json_f64(p.p99_ms, 2),
            if i + 1 == curve.len() { "" } else { "," }
        ));
    }
    s.push_str("      ]\n    }");
    s
}

/// `saturate [--quick] [--stack <name>]`: the PR-8 offered-load sweep.
/// Every figure is virtual-time-deterministic (seed 7), so the emitted
/// BENCH_PR8.json is reproducible bit for bit and the guards are exact,
/// not noise-tolerant. `--stack` restricts the sweep to the variants of
/// one stack (by `StackKind` name or exact variant name) — a filtered run
/// prints its tables but skips the cross-variant guards and writes no
/// JSON, so the committed file always covers the full variant set.
fn saturate_cmd() {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let stack_filter: Option<String> = args.iter().position(|a| a == "--stack").map(|i| {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage_error("--stack needs a name (new-arch, isis, token)"))
    });
    let (rates, window_ms, drain_ms): (&[u64], u64, u64) = if quick {
        (&[4_000, 16_000], 200, 1500)
    } else {
        (
            &[1_000, 2_000, 4_000, 6_000, 8_000, 10_000, 12_000, 16_000],
            1_000,
            2_000,
        )
    };
    const SEED: u64 = 7;
    const CAPACITY: usize = 64;
    let bp_rate = *rates.last().unwrap();

    let t0 = Instant::now();
    let vs: Vec<saturate::Variant> = match &stack_filter {
        None => saturate::variants(),
        Some(f) => {
            let vs: Vec<saturate::Variant> = saturate::variants()
                .into_iter()
                .filter(|v| v.stack.name() == f.as_str() || v.name == f.as_str())
                .collect();
            if vs.is_empty() {
                usage_error(&format!(
                    "unknown stack {f:?} (stacks: new-arch, isis, token; variants: {})",
                    saturate::variants()
                        .iter()
                        .map(|v| v.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            vs
        }
    };
    let full_set = stack_filter.is_none();
    let curves: Vec<(&'static str, Vec<saturate::Point>)> = vs
        .iter()
        .map(|v| (v.name, saturate::sweep(v, rates, window_ms, drain_ms, SEED)))
        .collect();
    // The backpressure run bounds the *sequential* stack — the variant that
    // saturates hardest — at the top of the sweep (skipped when the filter
    // excludes it).
    let bp_variant = vs.iter().find(|v| v.name == "new-arch-seq");
    let bp = bp_variant
        .map(|v| saturate::run_backpressure(v, bp_rate, window_ms, drain_ms, CAPACITY, SEED));

    println!(
        "## saturation sweep (n={}, window {window_ms} ms, drain {drain_ms} ms, seed {SEED})\n",
        saturate::GROUP
    );
    for (v, (name, curve)) in vs.iter().zip(&curves) {
        println!("### {name}\n");
        println!("| offered (msg/s) | goodput (msg/s) | mean lat (ms) | p99 (ms) |");
        println!("|---|---|---|---|");
        for p in curve {
            println!(
                "| {} | {:.0} | {:.2} | {:.2} |",
                p.rate, p.goodput, p.mean_ms, p.p99_ms
            );
        }
        match saturate::knee(curve) {
            Some(k) => println!(
                "\nknee: {k} msg/s sustained (goodput plateau {:.0} msg/s)\n",
                saturate::sustained_goodput(curve)
            ),
            None => match saturate::uncapped_note(v) {
                Some(note) => println!("\n{note}\n"),
                None => println!("\nknee: not reached within the sweep\n"),
            },
        }
    }
    if let (Some(v), Some(bp)) = (bp_variant, &bp) {
        println!(
            "### backpressure ({} at {bp_rate} msg/s, queue bound {CAPACITY})\n",
            v.name
        );
        println!(
            "offered {} accepted {} shed {} | queue high-water {} | goodput {:.0} msg/s | p99 {:.2} ms\n",
            bp.point.offered,
            bp.point.accepted,
            bp.shed,
            bp.point.high_water,
            bp.point.goodput,
            bp.point.p99_ms
        );
    }

    // Guards. The sweep is deterministic, so these are exact protocol
    // properties, not machine-noise tolerances. A filtered run is a probe,
    // not the recorded measurement: the cross-variant guards need both
    // new-arch variants, so they only run on the full set.
    let mut failures = Vec::new();
    if let Some(bp) = &bp {
        if bp.point.high_water > CAPACITY {
            failures.push(format!(
                "backpressure queue high-water {} exceeds the bound {CAPACITY}",
                bp.point.high_water
            ));
        }
        if bp.shed == 0 {
            failures.push(format!(
                "backpressure run at {bp_rate} msg/s shed nothing — the bound never engaged"
            ));
        }
    }
    if !full_set {
        eprintln!(
            "saturate --stack {} finished in {:.2}s wall-clock (guards and JSON skipped: \
filtered run)",
            stack_filter.as_deref().unwrap_or(""),
            t0.elapsed().as_secs_f64()
        );
        report_saturate_failures(&failures);
        return;
    }
    let seq = &curves[0].1;
    let pipe = &curves[1].1;
    let seq_sustained = saturate::sustained_goodput(seq);
    if quick {
        // Smoke guards: pipelining must still beat sequential at the
        // overloaded top rate. The 1.2x was sized when a sequential
        // instance took five hops (15,610/s vs 4,250/s, 3.67x); with the
        // round-0 fast path it takes four and the sequential ceiling more
        // than doubled, so the margin reads 15,735/s vs 9,530/s, 1.65x.
        let (s_top, p_top) = (seq.last().unwrap(), pipe.last().unwrap());
        if p_top.goodput < 1.2 * s_top.goodput {
            failures.push(format!(
                "pipelined goodput {:.0} is not >= 1.2x sequential {:.0} at {bp_rate} msg/s",
                p_top.goodput, s_top.goodput
            ));
        }
    } else {
        let Some(seq_knee) = saturate::knee(seq) else {
            failures.push("the sequential stack never saturated within the sweep".into());
            report_saturate_failures(&failures);
            return;
        };
        // The acceptance figure: at twice the sequential knee, the
        // pipelined stack must carry >= 1.5x the sequential plateau. (With
        // the sequential knee at 10,000 msg/s since the round-0 fast path,
        // twice the knee lies past the sweep: the nearest point, the top
        // rate, stands in — 15,939/s against 1.5 x 9,970/s.)
        let target_rate = 2 * seq_knee;
        let at_2x = pipe
            .iter()
            .min_by_key(|p| p.rate.abs_diff(target_rate))
            .unwrap();
        if at_2x.goodput < 1.5 * seq_sustained {
            failures.push(format!(
                "pipelined goodput {:.0} at {} msg/s (2x seq knee) is not >= 1.5x the \
sequential plateau {:.0}",
                at_2x.goodput, at_2x.rate, seq_sustained
            ));
        }
        if at_2x.p99_ms >= 50.0 {
            failures.push(format!(
                "pipelined p99 {:.2} ms at {} msg/s is not bounded under 50 ms",
                at_2x.p99_ms, at_2x.rate
            ));
        }

        let mut s = String::from(
            "{\n  \"description\": \"PR 8 saturation: open-loop offered-load sweep per stack \
(n=5, flat LAN, seed 7, 1 s injection window + 2 s drain). goodput = ops delivered at every \
process inside the window; latencies are arrival -> delivered-everywhere, virtual time. The \
new-arch knee is a protocol cap (16-msg batches x consensus instance latency); depth-8 \
pipelining overlaps instances and lifts it past the sweep; the token knee is its per-hold \
byte budget (16 B) x rotation; Isis has no virtual-time cap (its sequencer stamps on \
arrival), so its knee honestly reports not reached -- its curve carries an explicit \
knee_note instead of a bare null. All figures are deterministic -- the \
guards are exact. Guards: pipelined goodput at 2x the sequential knee >= 1.5x the sequential \
plateau with p99 < 50 ms; the bounded-queue run keeps its high-water <= the 64-op bound and \
sheds the excess. Regenerate with: cargo run --release -p gcs-bench --bin repro -- \
saturate.\",\n  \"config\": {",
        );
        s.push_str(&format!(
            "\"group\": {}, \"window_ms\": {window_ms}, \"drain_ms\": {drain_ms}, \
\"seed\": {SEED}, \"sustain_fraction\": {}, \"rates\": {rates:?}}},\n  \"curves\": {{\n",
            saturate::GROUP,
            saturate::SUSTAIN_FRACTION
        ));
        for (i, (v, (name, curve))) in vs.iter().zip(&curves).enumerate() {
            s.push_str(&format!("    \"{name}\": {}", curve_json(v, curve)));
            s.push_str(if i + 1 == curves.len() { "\n" } else { ",\n" });
        }
        let bp = bp.as_ref().expect("full variant set includes new-arch-seq");
        s.push_str(&format!(
            "  }},\n  \"backpressure\": {{\"variant\": \"new-arch-seq\", \"rate\": {bp_rate}, \
\"capacity\": {CAPACITY}, \"offered\": {}, \"accepted\": {}, \"shed\": {}, \
\"high_water\": {}, \"goodput\": {:.1}, \"p99_ms\": {}}}\n}}",
            bp.point.offered,
            bp.point.accepted,
            bp.shed,
            bp.point.high_water,
            bp.point.goodput,
            json_f64(bp.point.p99_ms, 2)
        ));
        println!("```json\n{s}\n```");
        match std::fs::write("BENCH_PR8.json", format!("{s}\n")) {
            Ok(()) => eprintln!("wrote BENCH_PR8.json"),
            Err(e) => {
                eprintln!("repro: cannot write BENCH_PR8.json: {e}");
                std::process::exit(1);
            }
        }
    }
    eprintln!(
        "saturate{} finished in {:.2}s wall-clock",
        if quick { " --quick" } else { "" },
        t0.elapsed().as_secs_f64()
    );
    report_saturate_failures(&failures);
}

/// `live [msgs]`: the PR-9 sim-vs-live comparison — the same fixed
/// workload per stack on both backends, a markdown table, BENCH_PR9.json,
/// and hard completion guards (an op lost on the live backend is a bug in
/// the runtime, not noise).
fn live_cmd() {
    let msgs: usize = numeric_arg(2, "messages", 48);
    const SEED: u64 = 7;
    let gap = gcs_kernel::TimeDelta::from_millis(2);
    let t0 = Instant::now();
    let rows = live::run_matrix(msgs, gap, SEED);

    println!(
        "## sim vs live (n={}, {msgs} msgs at one per {} ms, seed {SEED})\n",
        live::GROUP,
        gap.as_millis()
    );
    println!("| stack | backend | completed | mean lat (ms) | p99 (ms) | wall (s) |");
    println!("|---|---|---|---|---|---|");
    for r in &rows {
        println!(
            "| {} | {:?} | {}/{} | {} | {} | {:.2} |",
            r.stack.name(),
            r.backend,
            r.completed,
            r.msgs,
            json_f64(r.mean_ms, 2),
            json_f64(r.p99_ms, 2),
            r.wall_s
        );
    }

    let mut failures = Vec::new();
    for r in &rows {
        if r.completed != r.msgs {
            failures.push(format!(
                "{:?}/{}: only {}/{} ops delivered at every member",
                r.backend,
                r.stack.name(),
                r.completed,
                r.msgs
            ));
        }
    }

    let mut s = String::from(
        "{\n  \"description\": \"PR 9 live backend: the same fixed workload (n=4, flat LAN, \
round-robin senders) per stack on the deterministic simulator and on the live \
thread-per-member runtime. Sim latency is virtual time (modeled network delay, computation \
free); live latency is wall time on OS threads (scheduling + channel hand-off + the timer \
wheel for emulated delays), so the columns document the cost of reality rather than being \
expected to match. Live figures vary run to run -- the committed numbers are one recorded \
run; the guard (every op delivered at every member on both backends) is the reproducible \
part. Regenerate with: cargo run --release -p gcs-bench --bin repro -- live.\",\n  \
\"config\": {",
    );
    s.push_str(&format!(
        "\"group\": {}, \"msgs\": {msgs}, \"gap_ms\": {}, \"seed\": {SEED}}},\n  \"rows\": [\n",
        live::GROUP,
        gap.as_millis()
    ));
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"stack\": \"{}\", \"backend\": \"{:?}\", \"msgs\": {}, \"completed\": {}, \
\"mean_ms\": {}, \"p99_ms\": {}, \"wall_s\": {:.3}}}{}\n",
            r.stack.name(),
            r.backend,
            r.msgs,
            r.completed,
            json_f64(r.mean_ms, 3),
            json_f64(r.p99_ms, 3),
            r.wall_s,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}");
    println!("\n```json\n{s}\n```");
    match std::fs::write("BENCH_PR9.json", format!("{s}\n")) {
        Ok(()) => eprintln!("wrote BENCH_PR9.json"),
        Err(e) => {
            eprintln!("repro: cannot write BENCH_PR9.json: {e}");
            std::process::exit(1);
        }
    }
    eprintln!(
        "live finished in {:.2}s wall-clock",
        t0.elapsed().as_secs_f64()
    );
    report_saturate_failures(&failures);
}

fn report_saturate_failures(failures: &[String]) {
    if !failures.is_empty() {
        for f in failures {
            eprintln!("repro: GUARD FAILED: {f}");
        }
        std::process::exit(1);
    }
}

/// `throughput [n] [horizon_ms]`: one timed run of the saturated
/// steady-state workload at group size `n` — the quick profiling probe for
/// scaling work (the recorded trajectory points live in the bench-pr*
/// commands).
fn throughput() {
    let n: usize = numeric_arg(2, "group size", 256);
    let horizon_ms: u64 = numeric_arg(3, "horizon", 10);
    let t0 = Instant::now();
    let events = perf::sim_throughput_counts(n, horizon_ms);
    let wall = t0.elapsed();
    let eps = (events as f64 / wall.as_secs_f64()) as u64;
    println!(
        "sim_throughput/{n}: {events} events over {horizon_ms} sim-ms in {:.3}s wall = {eps} events/sec",
        wall.as_secs_f64()
    );
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
    // The 1024-member scale point stays behind `bench-pr7` and the
    // explicit `scenario` command: at sweep multiplicities (seeds x full
    // trace) it would dominate the whole sweep's wall time.
    let names: Vec<&'static str> = scenario::catalog()
        .iter()
        .filter(|s| s.n < 1024)
        .map(|s| s.name)
        .collect();
    println!(
        "(scenarios with n >= 1024 excluded from sweeps; run them via `scenario` or bench-pr7)"
    );
    let tasks: Vec<(&'static str, u64)> = names
        .iter()
        .flat_map(|&n| (0..seeds).map(move |k| (n, base + k)))
        .collect();

    let t0 = Instant::now();
    let results = scenario::run_sweep(&tasks, threads, TraceMode::Full);
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

fn run_scenario() {
    let name = std::env::args()
        .nth(2)
        .unwrap_or_else(|| usage_error("scenario needs a name (see `repro list`)"));
    let args: Vec<String> = std::env::args().skip(3).collect();
    let members = args.iter().position(|a| a == "--members").map(|i| {
        args.get(i + 1)
            .and_then(|n| n.parse::<usize>().ok())
            .unwrap_or_else(|| usage_error("--members needs a group size"))
    });
    let seed: u64 = match args.first() {
        Some(a) if a != "--members" => a
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("bad seed {a:?}"))),
        _ => 7,
    };
    let Some(mut s) = scenario::by_name(&name) else {
        usage_error(&format!("unknown scenario {name:?} (see `repro list`)"));
    };
    if let Some(n) = members {
        s.n = n;
    }
    let r = s.run(seed, TraceMode::Full);
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
    println!(
        "| payload arena live / high-water | {} / {} |",
        r.arena_live, r.arena_high_water
    );
    println!(
        "| invariant violations | {}{} |",
        r.violations.len(),
        if r.oracle_ran {
            ""
        } else {
            " (oracle skipped)"
        }
    );
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
        "a1" => experiments::a1_consensus_ablation(),
        "a2" => experiments::a2_fd_quality(),
        "all" => experiments::run_all(),
        "list" => list(),
        "scenario" => run_scenario(),
        "sweep" => sweep(),
        "bench-pr1" => bench_pr1(),
        "bench-pr2" => bench_pr2(),
        "bench-pr3" => bench_pr3(),
        "bench-pr7" => bench_pr7(),
        "saturate" => saturate_cmd(),
        "live" => live_cmd(),
        "throughput" => throughput(),
        "help" | "--help" | "-h" => println!("{}", usage()),
        other => usage_error(&format!("unknown command {other:?}")),
    }
}

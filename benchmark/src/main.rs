//! `gcs-benchmark`: one benchmark for the three stacks on both backends.
//!
//! ```text
//! gcs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <file>]
//! gcs-benchmark compare <a.jsonl> <b.jsonl>
//! gcs-benchmark manifest
//! ```
//!
//! See `README.md` for what each metric and workload means.

mod compare;
mod driver;
mod json;
mod layers;
mod procstat;
mod report;
mod spec;
mod stats;
mod trace;

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use driver::{run_rep, Rep, RepPlan};
use spec::{Load, Workload, RUN_SECONDS, STACKS};
use trace::Tracer;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

const USAGE: &str = "usage: gcs-benchmark --workload <name> [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--quick] [--out <file>]\n       gcs-benchmark compare <a.jsonl> <b.jsonl>\n       \
gcs-benchmark manifest";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let mut quick = false;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(spec::workload(name).ok_or_else(|| {
                    let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => quick = true,
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed,
        seconds,
        trace,
        quick,
        out,
    })
}

/// The reps of one run, per stack.
pub struct RunData {
    /// Untraced measured reps, `[stack][rep]`.
    pub measured: Vec<Vec<Rep>>,
    /// The traced rep per stack (`--trace 1` only).
    pub traced: Vec<Option<Rep>>,
    /// The zero-op sim rep per stack (`--trace 1` on `sim-*` only).
    pub idle: Vec<Option<Rep>>,
}

/// How much one invocation runs.
#[derive(Clone, Copy)]
struct Size {
    /// Untraced reps per stack.
    reps: usize,
    /// `--seconds` over `run_seconds`: the number of sim groups scales with
    /// it (live: the number of reps, already in `reps`).
    scale: f64,
    /// A live rep's window, wall seconds.
    window_s: f64,
}

/// Runs every rep of one invocation: `reps` untraced reps per stack, then —
/// with a tracer — one traced rep per stack and, on the simulator, one
/// zero-op rep at a quarter of the size (the idle-cost probe).
fn measure(w: &'static Workload, seed: u64, size: Size, tracer: Option<&mut Tracer>) -> RunData {
    let mut data = RunData {
        measured: (0..STACKS.len()).map(|_| Vec::new()).collect(),
        traced: (0..STACKS.len()).map(|_| None).collect(),
        idle: (0..STACKS.len()).map(|_| None).collect(),
    };
    let plan = |stack: usize, seed, idle| {
        let groups = match w.load {
            Load::Sim { groups, .. } => {
                let scale = if idle { size.scale / 4.0 } else { size.scale };
                ((groups[stack] as f64 * scale).round() as usize).max(1)
            }
            Load::Closed { .. } => 1,
        };
        RepPlan {
            workload: w,
            stack,
            seed,
            groups,
            window_s: size.window_s,
            idle,
        }
    };
    // Reps of one stack are spread over the run so slow drift of the box
    // lands on every stack alike.
    for rep in 0..size.reps {
        for stack in 0..STACKS.len() {
            let seed = seed.wrapping_add(rep as u64);
            data.measured[stack].push(run_rep(&plan(stack, seed, false), None));
        }
    }
    if let Some(t) = tracer {
        for stack in 0..STACKS.len() {
            data.traced[stack] = Some(run_rep(&plan(stack, seed, false), Some(&mut *t)));
            if matches!(w.load, Load::Sim { .. }) {
                data.idle[stack] = Some(run_rep(&plan(stack, seed, true), None));
            }
        }
    }
    data
}

fn run(args: &Args, process_start: Instant) -> ExitCode {
    let w = args.workload;
    let window_s = RUN_SECONDS as f64 / (w.reps * STACKS.len()) as f64;
    // `--quick` is a smoke run: one rep per stack at a fifth of the size, no
    // traced rep. A traced run keeps one untraced rep per stack as the
    // reference its tracing overhead is taken against.
    let size = if args.quick {
        Size {
            reps: 1,
            scale: 0.2,
            window_s: 0.2,
        }
    } else {
        let scale = args.seconds / RUN_SECONDS as f64;
        // Live reps have a fixed window, so `--seconds` buys more of them;
        // sim reps only interleave the stacks, and their groups scale.
        let reps = match w.load {
            _ if args.trace => 1,
            Load::Closed { .. } => ((w.reps as f64 * scale).round() as usize).max(1),
            Load::Sim { .. } => w.reps,
        };
        Size {
            reps,
            scale,
            window_s,
        }
    };
    let mut tracer = (args.trace && !args.quick).then(|| Tracer::new(process_start));
    let data = measure(w, args.seed, size, tracer.as_mut());

    let result = report::build(w, args.trace, &data);
    for line in &result.lines {
        println!("{line}");
    }
    for v in &result.violations {
        eprintln!("VIOLATION {v}");
    }
    if let Some(t) = &tracer {
        let dir = std::path::Path::new("benchmark/out");
        let path = dir.join(format!("{}.trace.json", w.name));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, t.to_json(w.name, args.seed).render()));
        match written {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(out) = &args.out {
        let line = result.record(w.name, args.seed, args.seconds, args.trace, args.quick);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| writeln!(f, "{}", line.render()));
        if let Err(e) = appended {
            eprintln!("cannot append to {out}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result.last_line(args.quick).render());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", spec::manifest_text());
            ExitCode::SUCCESS
        }
        Some("compare") => match argv.as_slice() {
            [_, a, b] => compare::run(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        },
        _ => match parse_args(&argv) {
            Ok(args) => run(&args, process_start),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// What a run prints must be exactly what `BENCHMARK.json` declares
    /// (which `spec::tests` holds equal to `spec.rs`): every end-to-end
    /// metric untraced, every per-layer metric traced.
    #[test]
    fn emitted_metric_names_equal_the_declared_sets() {
        let w = spec::workload("sim-crash").expect("declared workload");
        let names = |specs: Vec<spec::MetricSpec>| -> BTreeSet<String> {
            specs.into_iter().map(|m| m.name).collect()
        };

        let size = Size {
            reps: 1,
            scale: 0.05,
            window_s: 0.05,
        };
        let data = measure(w, 5, size, None);
        let plain = report::build(w, false, &data);
        assert!(plain.correct && plain.failed == 0, "{:?}", plain.violations);
        let emitted: BTreeSet<String> = plain.metrics.iter().map(|m| m.0.clone()).collect();
        assert_eq!(emitted, names(spec::end_to_end()));
        assert!(
            plain.metrics.iter().all(|m| m.1 > 0.0),
            "an end-to-end metric is never 0: {:?}",
            plain.metrics
        );

        let mut tracer = Tracer::new(Instant::now());
        let data = measure(w, 5, size, Some(&mut tracer));
        let traced = report::build(w, true, &data);
        assert!(traced.correct, "{:?}", traced.violations);
        let emitted: BTreeSet<String> = traced.metrics.iter().map(|m| m.0.clone()).collect();
        assert_eq!(emitted, names(spec::per_layer()));
        // One traced rep per stack, each with phases, samples and op spans.
        assert_eq!(tracer.reps.len(), STACKS.len());
        for rep in &tracer.reps {
            assert!(rep.spans.iter().any(|s| s.name == "sim.run"));
            assert!(!rep.samples.is_empty() && !rep.ops.is_empty());
        }
    }
}

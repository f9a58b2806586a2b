//! Allocation profiler for the perf-trajectory workloads: installs the
//! counting global allocator and reports allocations per simulated event
//! and — the PR-3 tracked metric — allocations per payload delivery.
//!
//! ```text
//! allocs [abcast|gbcast|isis|token|all] [--json]
//! ```
//!
//! `--json` emits the machine-readable object the alloc-regression guard
//! and `repro bench-pr3` consume.

use gcs_bench::alloccount::CountingAlloc;
use gcs_bench::perf::{self, AllocMeasurement};

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn measure(which: &str) -> AllocMeasurement {
    match which {
        "abcast" => perf::measure_allocs("abcast_steady/5", perf::abcast_steady_5_stats),
        "gbcast" => perf::measure_allocs("gbcast_steady/5", perf::gbcast_steady_5_stats),
        "isis" => perf::measure_allocs("isis_steady/5", perf::isis_steady_5_stats),
        "token" => perf::measure_allocs("token_steady/5", perf::token_steady_5_stats),
        other => {
            eprintln!("allocs: unknown workload {other:?} (want abcast|gbcast|isis|token|all)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let which = args
        .iter()
        .find(|a| *a != "--json")
        .map(String::as_str)
        .unwrap_or("all");
    let measurements: Vec<AllocMeasurement> = if which == "all" {
        ["abcast", "gbcast", "isis", "token"]
            .iter()
            .map(|w| measure(w))
            .collect()
    } else {
        vec![measure(which)]
    };
    if json {
        println!("{}", perf::allocs_to_json(&measurements));
        return;
    }
    for m in &measurements {
        println!(
            "{}: {} events, {} deliveries, {} allocs ({:.2}/event, {:.2}/delivery), {} bytes",
            m.name,
            m.events,
            m.deliveries,
            m.allocs,
            m.allocs_per_event(),
            m.allocs_per_delivery(),
            m.bytes
        );
    }
}

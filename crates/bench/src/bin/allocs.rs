//! Allocation profiler for the steady-state workloads of
//! `gcs_bench::alloccount`: installs the counting global allocator and
//! reports allocations per simulated event and — the tracked metric —
//! allocations per payload delivery.
//!
//! ```text
//! allocs [abcast|gbcast|isis|token|all] [--json]
//! ```
//!
//! `--json` emits a machine-readable object; the budgets themselves are
//! enforced by `tests/alloc_guard.rs`.

use gcs_bench::alloccount::{self, AllocMeasurement, CountingAlloc};

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn measure(which: &str) -> AllocMeasurement {
    match which {
        "abcast" => {
            alloccount::measure_allocs("abcast_steady/5", alloccount::abcast_steady_5_stats)
        }
        "gbcast" => {
            alloccount::measure_allocs("gbcast_steady/5", alloccount::gbcast_steady_5_stats)
        }
        "isis" => alloccount::measure_allocs("isis_steady/5", alloccount::isis_steady_5_stats),
        "token" => alloccount::measure_allocs("token_steady/5", alloccount::token_steady_5_stats),
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
        println!("{}", alloccount::allocs_to_json(&measurements));
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

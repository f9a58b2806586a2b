//! Allocation profiler for the steady-state workloads of
//! `gcs_bench::alloccount`: installs the counting global allocator and
//! reports, per workload, what building the group and warming it up
//! allocated, and — the tracked metric — allocations per delivery over a
//! window of steady traffic after it.
//!
//! ```text
//! allocs [abcast|gbcast|isis|token|all] [--json]
//! ```
//!
//! `abcast` measures the new architecture at n = 5 and n = 3. `--json`
//! emits a machine-readable object; the budgets themselves are enforced by
//! `tests/alloc_guard.rs`.

use gcs_bench::alloccount::{self, AllocMeasurement, CountingAlloc};

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let which = args
        .iter()
        .find(|a| *a != "--json")
        .map(String::as_str)
        .unwrap_or("all");
    let chosen: Vec<_> = alloccount::WORKLOADS
        .iter()
        .filter(|w| which == "all" || w.name.split('/').next() == Some(which))
        .collect();
    if chosen.is_empty() {
        eprintln!("allocs: unknown workload {which:?} (want abcast|gbcast|isis|token|all)");
        std::process::exit(2);
    }
    let measurements: Vec<AllocMeasurement> = chosen.into_iter().map(alloccount::measure).collect();
    if json {
        println!("{}", alloccount::allocs_to_json(&measurements));
        return;
    }
    let (warm_up, window) = (
        alloccount::WARM_UP.as_millis(),
        alloccount::WINDOW.as_millis(),
    );
    for m in &measurements {
        println!(
            "{} build: {} allocs (group, stream, {warm_up} ms warm-up)",
            m.name, m.build_allocs
        );
        println!(
            "{} window: {window} ms, {} events, {} deliveries, {} allocs \
             ({:.2}/event, {:.2}/delivery, {:.2}/op), {} bytes",
            m.name,
            m.events,
            m.deliveries,
            m.allocs,
            m.allocs_per_event(),
            m.allocs_per_delivery(),
            m.allocs_per_op(),
            m.bytes
        );
    }
}

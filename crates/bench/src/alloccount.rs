//! The instrumented global allocator behind the allocation metrics, and the
//! steady-state workloads it measures.
//!
//! [`CountingAlloc`] wraps the system allocator and counts every allocation
//! (and its size) with relaxed atomics. Binaries that want the metric
//! install it as their global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: gcs_bench::alloccount::CountingAlloc =
//!     gcs_bench::alloccount::CountingAlloc;
//! ```
//!
//! and read deltas with [`snapshot`] or [`measure`]. In binaries that do
//! *not* install it the counters simply stay at zero. The counters are
//! process-global, so measurements must run the workload single-threaded
//! (every [`WORKLOADS`] entry is a deterministic single-threaded
//! simulation).
//!
//! Every workload has the shape of the benchmark's `sim-steady`: a group on
//! a loss-free LAN and a stream of 64-byte ops at 2,000 ops/s from
//! round-robin senders, scheduled up front. A measurement builds the group,
//! schedules the stream and runs a [`WARM_UP`], then counts a [`WINDOW`] of
//! steady traffic: allocations per delivery in the window are the tracked
//! metric. What building and warming up cost is paid once per group, not per
//! op, and is reported on its own.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gcs_api::{Group, GroupTransport, StackKind};
use gcs_core::StackConfig;
use gcs_kernel::{Time, TimeDelta};

use crate::workload::{GenericWorkload, Workload};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around the system allocator.
pub struct CountingAlloc;

// SAFETY: every call delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counters are pure side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(l.size() as u64, Ordering::Relaxed);
        System.alloc(l)
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

/// A point-in-time reading of the allocation counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Total allocations since process start.
    pub allocs: u64,
    /// Total allocated bytes since process start.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Reads the current counters (zero if [`CountingAlloc`] is not installed
/// as the global allocator).
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Virtual time run before the counted window: the group is built, its
/// first instances have run, and every per-process buffer has grown to the
/// size the traffic needs.
pub const WARM_UP: TimeDelta = TimeDelta::from_millis(100);

/// Virtual time counted.
pub const WINDOW: TimeDelta = TimeDelta::from_millis(250);

/// One steady-state workload.
#[derive(Clone, Copy, Debug)]
pub struct AllocWorkload {
    /// Name in reports: what is broadcast, and the group size.
    pub name: &'static str,
    /// The stack measured.
    pub stack: StackKind,
    /// Group size.
    pub members: usize,
    /// Conflict-free generic broadcast instead of atomic broadcast (the new
    /// architecture only).
    pub generic: bool,
}

/// The measured workloads: atomic broadcast on the new architecture at
/// n = 5 (the benchmark's `sim-steady`) and n = 3, its conflict-free
/// generic broadcast, and the two baselines' atomic broadcast.
pub const WORKLOADS: [AllocWorkload; 5] = [
    AllocWorkload {
        name: "abcast/5",
        stack: StackKind::NewArch,
        members: 5,
        generic: false,
    },
    AllocWorkload {
        name: "abcast/3",
        stack: StackKind::NewArch,
        members: 3,
        generic: false,
    },
    AllocWorkload {
        name: "gbcast/5",
        stack: StackKind::NewArch,
        members: 5,
        generic: true,
    },
    AllocWorkload {
        name: "isis/5",
        stack: StackKind::Isis,
        members: 5,
        generic: false,
    },
    AllocWorkload {
        name: "token/5",
        stack: StackKind::Token,
        members: 5,
        generic: false,
    },
];

/// One allocation measurement (meaningful only in binaries that install
/// [`CountingAlloc`] as the global allocator — elsewhere every allocation
/// count reads zero).
#[derive(Clone, Debug)]
pub struct AllocMeasurement {
    /// Workload name.
    pub name: &'static str,
    /// Group size: the deliveries of one op.
    pub members: usize,
    /// Allocations building the group, scheduling its stream and running
    /// the warm-up.
    pub build_allocs: u64,
    /// Allocations in the window.
    pub allocs: u64,
    /// Bytes allocated in the window.
    pub bytes: u64,
    /// Simulation events executed in the window.
    pub events: u64,
    /// Deliveries in the window, across all processes.
    pub deliveries: u64,
}

impl AllocMeasurement {
    /// Allocations per delivery in the window — the tracked metric.
    pub fn allocs_per_delivery(&self) -> f64 {
        self.allocs as f64 / self.deliveries.max(1) as f64
    }

    /// Allocations per op in the window (an op is delivered once per
    /// member).
    pub fn allocs_per_op(&self) -> f64 {
        self.allocs_per_delivery() * self.members as f64
    }

    /// Allocations per simulated event in the window.
    pub fn allocs_per_event(&self) -> f64 {
        self.allocs as f64 / self.events.max(1) as f64
    }
}

/// The group of `w`, its stream scheduled.
fn build(w: &AllocWorkload) -> Group {
    let mut builder = Group::builder().members(w.members).stack(w.stack).seed(7);
    if w.stack == StackKind::NewArch {
        let mut cfg = StackConfig::default();
        cfg.monitoring_timeout = TimeDelta::from_secs(3600);
        builder = builder.stack_config(cfg);
    }
    let mut g = builder.build();
    // 2,000 ops/s from 1 ms until past the window's end.
    let ops = (2 * (WARM_UP + WINDOW).as_millis()) as u32;
    let mut stream = GenericWorkload::per_second(ops, 2_000, 0);
    stream.base.payload = 64;
    if w.generic {
        stream.inject(w.members, &mut g);
    } else {
        stream.base.inject(w.members, &mut g);
    }
    g
}

/// Measures `w` under the instrumented allocator: one run to populate lazy
/// statics and thread-local pools, then one counted run. The window's
/// deliveries are the group's outputs in it: a steady window installs no
/// view and suspects nobody.
pub fn measure(w: &AllocWorkload) -> AllocMeasurement {
    build(w).run_until(Time::ZERO + WARM_UP + WINDOW);
    let start = snapshot();
    let mut g = build(w);
    g.run_until(Time::ZERO + WARM_UP);
    let built = snapshot().since(start);
    let (events, deliveries) = (g.events_executed(), g.delivery_count());
    let start = snapshot();
    g.run_until(Time::ZERO + WARM_UP + WINDOW);
    let window = snapshot().since(start);
    AllocMeasurement {
        name: w.name,
        members: w.members,
        build_allocs: built.allocs,
        allocs: window.allocs,
        bytes: window.bytes,
        events: g.events_executed() - events,
        deliveries: g.delivery_count() - deliveries,
    }
}

/// Renders alloc measurements as a JSON object.
pub fn allocs_to_json(measurements: &[AllocMeasurement]) -> String {
    let mut s = String::from("{\n");
    for (i, m) in measurements.iter().enumerate() {
        s.push_str(&format!(
            "    \"{}\": {{\"build_allocs\": {}, \"allocs\": {}, \"bytes\": {}, \"events\": {}, \
\"deliveries\": {}, \"allocs_per_delivery\": {:.3}, \"allocs_per_op\": {:.3}, \
\"allocs_per_event\": {:.3}}}{}\n",
            m.name,
            m.build_allocs,
            m.allocs,
            m.bytes,
            m.events,
            m.deliveries,
            m.allocs_per_delivery(),
            m.allocs_per_op(),
            m.allocs_per_event(),
            if i + 1 == measurements.len() { "" } else { "," }
        ));
    }
    s.push_str("  }");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_window_runs_events_and_delivers() {
        for w in &WORKLOADS {
            let m = measure(w);
            // 2,000 ops/s for a quarter of a second, each delivered at
            // every member.
            let expected = 500 * w.members as u64;
            assert!(
                m.deliveries.abs_diff(expected) <= expected / 10,
                "{}: {m:?}",
                w.name
            );
            assert!(m.events > m.deliveries, "{}: {m:?}", w.name);
        }
    }
}

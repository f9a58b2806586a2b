//! The instrumented global allocator behind the allocations-per-adelivery
//! metric, and the steady-state workloads it measures.
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
//! and read deltas with [`snapshot`] or [`measure_allocs`]. In binaries that
//! do *not* install it the counters simply stay at zero. The counters are
//! process-global, so measurements must run the workload single-threaded
//! (all four `*_steady_5_stats` workloads are deterministic single-threaded
//! simulations).

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gcs_api::{Group, GroupTransport, StackKind};
use gcs_core::StackConfig;
use gcs_kernel::{Time, TimeDelta};

use crate::workload::{GenericWorkload, UniformWorkload, Workload};

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

/// What one steady-state workload run executed and delivered — the
/// denominators of allocations per event and per delivery.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Simulation events executed.
    pub events: u64,
    /// Total payload deliveries across all processes.
    pub deliveries: u64,
}

/// The `abcast_steady/5` workload: 20 abcasts across 5 processes on the new
/// architecture, run for 300 simulated milliseconds, with the per-process
/// delivery total (20 messages × 5 processes).
pub fn abcast_steady_5_stats() -> RunStats {
    let mut cfg = StackConfig::default();
    cfg.monitoring_timeout = TimeDelta::from_secs(3600);
    let mut g = Group::builder()
        .members(5)
        .stack_config(cfg)
        .seed(1)
        .build();
    UniformWorkload::steady(20, 2).inject(5, &mut g);
    g.run_until(Time::from_millis(300));
    let delivered = g.adelivered_payloads();
    assert_eq!(delivered[0].len(), 20);
    RunStats {
        events: g.events_executed(),
        deliveries: delivered.iter().map(|s| s.len() as u64).sum(),
    }
}

/// The `gbcast_steady/5` workload: 200 conflict-free 64-byte g-broadcasts
/// at 2,000 ops/s across 5 processes — the fast path and nothing else, in
/// one epoch — with the g-delivery total (200 messages × 5 processes).
pub fn gbcast_steady_5_stats() -> RunStats {
    let mut cfg = StackConfig::default();
    cfg.monitoring_timeout = TimeDelta::from_secs(3600);
    let mut g = Group::builder()
        .members(5)
        .stack_config(cfg)
        .seed(1)
        .build();
    let mut stream = GenericWorkload::per_second(200, 2_000, 0);
    stream.base.payload = 64;
    stream.inject(5, &mut g);
    g.run_until(Time::from_millis(300));
    let deliveries = g.delivery_count();
    assert_eq!(deliveries, 1000);
    RunStats {
        events: g.events_executed(),
        deliveries,
    }
}

/// The `isis_steady/5` workload: the same 20-abcast steady state as
/// [`abcast_steady_5_stats`] on the Isis-style baseline.
pub fn isis_steady_5_stats() -> RunStats {
    baseline_steady_5_stats(StackKind::Isis)
}

/// The `token_steady/5` workload on the token-ring baseline.
pub fn token_steady_5_stats() -> RunStats {
    baseline_steady_5_stats(StackKind::Token)
}

fn baseline_steady_5_stats(kind: StackKind) -> RunStats {
    let mut sim = Group::builder().members(5).stack(kind).seed(1).build();
    UniformWorkload::steady(20, 2).inject(5, &mut sim);
    sim.run_until(Time::from_millis(300));
    let delivered = sim.adelivered_payloads();
    assert_eq!(delivered[0].len(), 20);
    let deliveries = delivered.iter().map(|s| s.len() as u64).sum();
    RunStats {
        events: sim.events_executed(),
        deliveries,
    }
}

/// One steady-state allocation measurement (meaningful only in binaries
/// that install [`CountingAlloc`] as the global allocator — elsewhere
/// every counter reads zero).
#[derive(Clone, Debug)]
pub struct AllocMeasurement {
    /// Workload name.
    pub name: &'static str,
    /// Allocations during the measured (post-warm-up) run.
    pub allocs: u64,
    /// Bytes allocated during the measured run.
    pub bytes: u64,
    /// Simulation events executed.
    pub events: u64,
    /// Payload deliveries across all processes.
    pub deliveries: u64,
}

impl AllocMeasurement {
    /// Allocations per payload delivery — the tracked metric.
    pub fn allocs_per_delivery(&self) -> f64 {
        self.allocs as f64 / self.deliveries.max(1) as f64
    }

    /// Allocations per simulated event.
    pub fn allocs_per_event(&self) -> f64 {
        self.allocs as f64 / self.events.max(1) as f64
    }
}

/// Measures `workload` under the instrumented allocator: one warm-up run
/// (populating lazy statics and caches), then one counted run.
pub fn measure_allocs(name: &'static str, workload: impl Fn() -> RunStats) -> AllocMeasurement {
    let _ = workload(); // warm-up
    let before = snapshot();
    let stats = workload();
    let delta = snapshot().since(before);
    AllocMeasurement {
        name,
        allocs: delta.allocs,
        bytes: delta.bytes,
        events: stats.events,
        deliveries: stats.deliveries,
    }
}

/// Renders alloc measurements as a JSON object.
pub fn allocs_to_json(measurements: &[AllocMeasurement]) -> String {
    let mut s = String::from("{\n");
    for (i, m) in measurements.iter().enumerate() {
        s.push_str(&format!(
            "    \"{}\": {{\"allocs\": {}, \"bytes\": {}, \"events\": {}, \"deliveries\": {}, \
\"allocs_per_delivery\": {:.3}, \"allocs_per_event\": {:.3}}}{}\n",
            m.name,
            m.allocs,
            m.bytes,
            m.events,
            m.deliveries,
            m.allocs_per_delivery(),
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
    fn workloads_run_and_count_events() {
        assert!(abcast_steady_5_stats().events > 100);
        assert!(isis_steady_5_stats().events > 100);
        assert!(token_steady_5_stats().events > 100);
        assert!(gbcast_steady_5_stats().events > 1000);
    }
}

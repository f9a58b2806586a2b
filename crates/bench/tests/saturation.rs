//! Saturation under an open-loop overload, in virtual time: the sequential
//! new-architecture pipeline caps below the offered rate, depth-8
//! pipelining lifts that cap, and a bounded abcast queue sheds the excess
//! instead of growing. Every run is virtual-time-deterministic (seed 7), so
//! the thresholds are exact protocol properties, not machine-noise
//! tolerances.

use gcs_api::{BatchPolicy, Group, GroupBuilder, GroupTransport};
use gcs_bench::workload::{decode_op_index, write_payload, OpenLoopWorkload};
use gcs_core::{DeliveryKind, StackConfig};
use gcs_kernel::TimeDelta;

const GROUP: usize = 5;
/// Offered msgs/s, well past the sequential cap (~16 msgs per ~1.5 ms LAN
/// instance ≈ 10 k/s).
const OVERLOAD: u64 = 24_000;
const WINDOW_MS: u64 = 250;
const DRAIN_MS: u64 = 1_500;

/// The new architecture with `depth` consensus instances in flight, each
/// carrying at most 16 messages. Exclusions come from the script (here:
/// nobody), not from monitoring racing the measurement.
fn new_arch(depth: usize) -> GroupBuilder {
    let mut cfg = StackConfig::default();
    cfg.monitoring_timeout = TimeDelta::from_secs(3600);
    cfg.pipeline_depth = depth;
    cfg.batch = BatchPolicy {
        max_msgs: 16,
        max_bytes: 4096,
        max_delay: TimeDelta::from_micros(500),
    };
    Group::builder().members(GROUP).stack_config(cfg).seed(7)
}

/// Schedules the whole open-loop stream up front, drains past the window,
/// and returns the goodput: ops delivered at every member by the end of the
/// window, per second of window.
fn goodput(depth: usize) -> f64 {
    let w = OpenLoopWorkload::per_second(OVERLOAD, WINDOW_MS);
    let arrivals = w.arrivals(GROUP);
    let mut g = new_arch(depth).build();
    for (i, &(t, sender)) in arrivals.iter().enumerate() {
        g.abcast_build_at(t, sender, &mut |buf| write_payload(i, w.payload, buf));
    }
    let window_end = w.start + w.duration;
    g.run_until(window_end.saturating_add(TimeDelta::from_millis(DRAIN_MS)));

    // Per op, the members that delivered it inside the window.
    let mut delivered_by = vec![0usize; arrivals.len()];
    for d in g.delivery_trace() {
        if d.kind != DeliveryKind::Atomic || d.time > window_end {
            continue;
        }
        let op = decode_op_index(&g.resolve(d.payload));
        if let Some(count) = op.and_then(|op| delivered_by.get_mut(op)) {
            *count += 1;
        }
    }
    let completed = delivered_by.iter().filter(|&&c| c >= GROUP).count();
    completed as f64 / (w.duration.as_nanos() as f64 / 1e9)
}

#[test]
fn sequential_new_arch_saturates_and_pipelining_lifts_the_cap() {
    let s = goodput(1);
    let p = goodput(8);
    assert!(
        s < 0.9 * OVERLOAD as f64,
        "sequential must saturate below the offered {OVERLOAD}/s: {s}"
    );
    assert!(
        p > 1.3 * s,
        "depth-8 pipelining must lift goodput: {p} vs {s}"
    );
}

/// The arrival clock walks in lockstep with the simulation and every op is
/// offered through the backpressure gate of a 64-deep queue: refusals are
/// shed, and the queue high-water stays at the bound.
#[test]
fn backpressure_bounds_the_queue_and_sheds_overload() {
    let w = OpenLoopWorkload::per_second(OVERLOAD, WINDOW_MS);
    let arrivals = w.arrivals(GROUP);
    let mut g = new_arch(1).abcast_capacity(64).build();
    let mut shed = 0usize;
    for (i, &(t, sender)) in arrivals.iter().enumerate() {
        g.run_until(t);
        if g.try_abcast_build_at(t, sender, &mut |buf| write_payload(i, w.payload, buf))
            .is_err()
        {
            shed += 1;
        }
    }
    assert!(
        shed > 0 && shed < arrivals.len(),
        "overload at a 64-deep bound must shed some, not all: {shed} of {}",
        arrivals.len()
    );
    assert!(
        g.queue_high_water() <= 64,
        "high water {} exceeds the bound",
        g.queue_high_water()
    );
}

//! Backpressure under an open-loop overload, in virtual time: a bounded
//! abcast queue sheds the excess instead of growing. The run is
//! virtual-time-deterministic (seed 7), so the thresholds are exact protocol
//! properties, not machine-noise tolerances.

use gcs_api::{Group, GroupTransport};
use gcs_bench::workload::{write_payload, OpenLoopWorkload};
use gcs_core::StackConfig;
use gcs_kernel::TimeDelta;

const GROUP: usize = 5;
/// Offered msgs/s.
const OVERLOAD: u64 = 24_000;
const WINDOW_MS: u64 = 250;

/// The arrival clock walks in lockstep with the simulation and every op is
/// offered through the backpressure gate of a 64-deep queue: refusals are
/// shed, and the queue high-water stays at the bound. Exclusions come from
/// the script (here: nobody), not from monitoring racing the measurement.
#[test]
fn backpressure_bounds_the_queue_and_sheds_overload() {
    let w = OpenLoopWorkload::per_second(OVERLOAD, WINDOW_MS);
    let arrivals = w.arrivals(GROUP);
    let mut cfg = StackConfig::default();
    cfg.monitoring_timeout = TimeDelta::from_secs(3600);
    let mut g = Group::builder()
        .members(GROUP)
        .stack_config(cfg)
        .seed(7)
        .abcast_capacity(64)
        .build();
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

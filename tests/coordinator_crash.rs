//! A crashed round-0 coordinator costs the new architecture one instance,
//! not the rest of the run: on the benchmark's `sim-crash` shape, the ops
//! due after p0 dies complete no slower than those due before.

use gcs::core::StackConfig;
use gcs::kernel::{ProcessId, Time, TimeDelta};
use gcs::{Group, GroupTransport};

/// Median of `values` (sorted in place).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// The `sim-crash` shape: n = 3 on a LAN, 2,000 ops/s of 64 B from p1 and
/// p2 (drawn per op), p0 crashed 0.6 s in, monitoring off (p0 is never
/// excluded). Returns the median latency — due to delivered at both
/// survivors — of the ops due in the 0.4 s before the crash and of those
/// due in the 0.6 s after it.
fn p50_before_and_after_the_crash(seed: u64) -> (f64, f64) {
    let mut cfg = StackConfig::default();
    cfg.monitoring_timeout = TimeDelta::from_secs(3600);
    let mut g = Group::builder()
        .members(3)
        .stack_config(cfg)
        .seed(seed)
        .build();
    let (gap_us, crash_us, end_us) = (500u64, 600_000u64, 1_200_000u64);
    let us = |t: Time| t.as_nanos() / 1_000;
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut due = Vec::new();
    for op in 0..end_us / gap_us - 1 {
        // xorshift64: which survivor sends the op.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let sender = ProcessId::new(1 + (state % 2) as u32);
        let t = (op + 1) * gap_us;
        let mut payload = (op as u32).to_le_bytes().to_vec();
        payload.resize(64, 0);
        g.abcast_at(Time::from_micros(t), sender, payload);
        due.push(t);
    }
    g.crash_at(Time::from_micros(crash_us), ProcessId::new(0));
    g.run_until(Time::from_micros(end_us + 500_000));

    let mut last = vec![0u64; due.len()];
    let mut count = vec![0u8; due.len()];
    for d in g.delivery_trace().iter().filter(|d| d.proc.index() > 0) {
        let payload = g.resolve(d.payload);
        let op = u32::from_le_bytes(payload[..4].try_into().expect("op id")) as usize;
        last[op] = last[op].max(us(d.time));
        count[op] += 1;
    }
    let (mut before, mut after) = (Vec::new(), Vec::new());
    for (op, &t) in due.iter().enumerate() {
        assert_eq!(
            count[op], 2,
            "seed {seed}: op {op} not delivered at both survivors"
        );
        let latency_ms = (last[op] - t) as f64 / 1e3;
        match t {
            t if t >= crash_us => after.push(latency_ms),
            t if t >= crash_us - 400_000 => before.push(latency_ms),
            _ => {}
        }
    }
    (median(&mut before), median(&mut after))
}

/// Before PR 26 every instance after the crash started in a round whose
/// coordinator was dead and paid nacks, an estimate and round 1: the
/// post-crash median was ≈ 1.5× the pre-crash one.
#[test]
fn ops_after_the_coordinator_crash_are_no_slower_than_before_it() {
    for seed in 1..=3 {
        let (before, after) = p50_before_and_after_the_crash(seed);
        assert!(
            after <= 1.05 * before,
            "seed {seed}: p50 {after:.3} ms after the crash vs {before:.3} ms before"
        );
    }
}

//! Live-backend quickstart: the same three-member group as
//! `quickstart.rs`, but on `Backend::Live` — every member is a real OS
//! thread running the kernel dispatch loop, frames travel over real
//! channels, and timers fire on the wall clock. The façade is identical;
//! only the builder line changes.
//!
//! Because the clock is real, the drive loop is bound-based: we poll until
//! the survivors have delivered everything or a wall deadline passes,
//! instead of relying on virtual-time quiescence.
//!
//! ```text
//! cargo run --example live_group
//! ```

use gcs::kernel::{ProcessId, Time, TimeDelta};
use gcs::{Backend, Group, GroupTransport, StackKind};

fn main() {
    let p = ProcessId::new;

    // Identical to the simulator quickstart except for `.backend(...)`.
    // Swap in `.wire(gcs::live::WireMode::Tcp)` to run the same frames
    // over loopback TCP sockets instead of in-process channels.
    let mut cfg = gcs::core::StackConfig::default();
    cfg.monitoring_timeout = TimeDelta::from_secs(3600); // demo: never exclude
    let mut group = Group::builder()
        .members(3)
        .stack(StackKind::NewArch)
        .stack_config(cfg)
        .backend(Backend::Live)
        .seed(7)
        .build();

    // Concurrent broadcasts from different members. Times are on the
    // group's wall clock (t = 0 at build); anything already in the past
    // is sent immediately.
    group.abcast_at(Time::from_millis(1), p(0), b"alpha".to_vec());
    group.abcast_at(Time::from_millis(1), p(1), b"bravo".to_vec());
    group.abcast_at(Time::from_millis(2), p(2), b"charlie".to_vec());

    // p0 crashes — on this backend that kills its thread, mid-protocol,
    // for real. The group keeps ordering without any membership change
    // (the paper's §3.1.1: abcast does not rely on group membership).
    group.crash_at(Time::from_millis(50), p(0));
    group.abcast_at(Time::from_millis(60), p(1), b"delta".to_vec());

    // Drive in 5 ms slices of real time until both survivors have
    // delivered all four messages (or we give up — which would be a bug).
    let deadline = Time::from_secs(10);
    let mut cursor = Time::ZERO;
    let done = |g: &Group| {
        let d = g.adelivered_payloads();
        d[1].len() >= 4 && d[2].len() >= 4
    };
    while !done(&group) {
        assert!(cursor < deadline, "survivors never finished the stream");
        cursor += TimeDelta::from_millis(5);
        group.run_until(cursor);
    }

    let delivered = group.adelivered_payloads();
    for (i, seq) in delivered.iter().enumerate() {
        let rendered: Vec<String> = seq
            .iter()
            .map(|m| String::from_utf8_lossy(m).into_owned())
            .collect();
        println!("p{i} delivered: {rendered:?}");
    }
    assert_eq!(
        delivered[1], delivered[2],
        "identical order at the survivors"
    );
    assert_eq!(delivered[1].len(), 4, "all four messages delivered");
    assert!(group.views()[1].is_empty(), "no view change was needed");

    println!(
        "\ntotal order held across a real thread crash in {:.1} ms of wall time.",
        group.now().since(Time::ZERO).as_millis_f64()
    );
    println!("\nmessage accounting:\n{}", group.metrics());
}

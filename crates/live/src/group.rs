//! [`LiveGroup`]: the generic harness hosted on the live runtime.
//!
//! A `LiveGroup<S>` is the live-backend counterpart of `gcs_core::GroupSim`
//! / `gcs_traditional::{IsisSim, TokenSim}` — the same
//! [`Harness`](gcs_sim::Harness), the same [`StackDriver`], with
//! [`LiveRuntime`] in the place of the simulator: the runtime underneath is
//! stack-agnostic (it moves frames and fires timers), and everything that
//! differs per stack is the driver's.
//!
//! Time is real: `Time::ZERO` is the instant the group started and
//! `run_until(t)` sleeps the *caller* while member threads keep working.
//! A scenario written for the simulator (inject at 1 ms, crash at 50 ms)
//! runs unchanged — the stacks' millisecond-scale timeouts make live runs
//! take wall milliseconds, not minutes.

use gcs_sim::{Harness, StackDriver, Topology};

use crate::runtime::LiveRuntime;
use crate::WireMode;

/// Group-level options independent of the protocol stack. Every output is
/// recorded, as on the simulator. `GroupBuilder` sets every field from its
/// own knob of the same name.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Founding members.
    pub members: usize,
    /// Processes started outside the group (activate with `join_at`). The
    /// conformance battery's join legs set it.
    pub joiners: usize,
    /// Seed for the emulated network's randomness (loss, delay sampling).
    pub seed: u64,
    /// Baseline link models. A burst whose sampled delay reaches the
    /// emulation floor (200 µs) waits it out in its receiver's queue; below
    /// the floor the real wire's latency stands in for the model's. Every
    /// preset reaches it, the LAN included (0.2–1.2 ms), so every preset
    /// burst is emulated. The runtime's hand-played fabric tests set a
    /// zero-delay one, so that bursts are due at once.
    pub topology: Topology,
    /// How frames physically move between member threads. The benchmark's
    /// TCP workloads and the TCP wire tests set [`WireMode::Tcp`].
    pub wire: WireMode,
}

impl LiveConfig {
    /// `members` founders on a LAN topology, channel wire.
    pub fn new(members: usize) -> Self {
        LiveConfig {
            members,
            joiners: 0,
            seed: 42,
            topology: Topology::lan(),
            wire: WireMode::Channel,
        }
    }

    /// Adds processes that start outside the group.
    pub fn with_joiners(mut self, joiners: usize) -> Self {
        self.joiners = joiners;
        self
    }

    /// Sets the network-emulation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the baseline topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the wire mode.
    pub fn with_wire(mut self, wire: WireMode) -> Self {
        self.wire = wire;
        self
    }
}

/// A group of real processes running stack `S`: every member is an OS
/// thread, timers are wall-clock deadlines, frames cross channels or
/// loopback TCP. Its surface is [`GroupTransport`](gcs_sim::GroupTransport);
/// dropping it stops and joins every thread, then raises again a panic that
/// ended a member's thread (a panic is that member's crash meanwhile).
///
/// ```
/// use gcs_core::{NewArchDriver, StackConfig};
/// use gcs_kernel::{ProcessId, Time, TimeDelta};
/// use gcs_live::LiveConfig;
/// use gcs_sim::GroupTransport;
///
/// let mut group = gcs_live::start::<NewArchDriver>(StackConfig::default(), LiveConfig::new(3));
/// group.abcast_at(group.now(), ProcessId::new(0), b"hello".to_vec());
/// // Real time: poll until the group delivered everywhere (bounded).
/// let deadline = group.now() + TimeDelta::from_secs(10);
/// while group.delivery_count() < 3 && group.now() < deadline {
///     group.run_until(group.now() + TimeDelta::from_millis(5));
/// }
/// assert_eq!(group.delivery_count(), 3);
/// ```
pub type LiveGroup<S> = Harness<S, LiveRuntime<<S as StackDriver>::Event>>;

/// Starts a live group of `live.members` founding members and
/// `live.joiners` outside processes running stack `S`. The clock starts
/// running at this call.
pub fn start<S: StackDriver>(config: S::Config, live: LiveConfig) -> LiveGroup<S> {
    Harness::start(live.members, live.joiners, config, live)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_core::{NewArchDriver, StackConfig};
    use gcs_kernel::{ComponentId, PayloadRef, Process, ProcessId, Time, TimeDelta};
    use gcs_sim::{GroupTransport, InvariantChecker, Observation, Op, StackKind};
    use gcs_traditional::{IsisConfig, IsisDriver, TokenConfig, TokenDriver};
    use std::marker::PhantomData;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Polls `pred` every 2 ms until it holds or `bound` elapses. Live
    /// assertions are bound-based: fast when healthy, slow only when broken.
    fn eventually(
        group: &dyn GroupTransport,
        bound: TimeDelta,
        mut pred: impl FnMut() -> bool,
    ) -> bool {
        let deadline = group.now().saturating_add(bound);
        loop {
            if pred() {
                return true;
            }
            if group.now() >= deadline {
                return pred();
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    fn payload_seqs(group: &dyn GroupTransport) -> Vec<Vec<Vec<u8>>> {
        group.adelivered_payloads()
    }

    #[test]
    fn new_arch_agrees_on_live_threads() {
        let mut g = start::<NewArchDriver>(StackConfig::default(), LiveConfig::new(3).with_seed(7));
        let t0 = g.now();
        g.abcast_at(t0, p(0), b"a".to_vec());
        g.abcast_at(t0, p(1), b"b".to_vec());
        assert!(
            eventually(&g, TimeDelta::from_secs(20), || {
                let seqs = payload_seqs(&g);
                seqs.iter().all(|s| s.len() == 2)
            }),
            "all three members deliver both messages: {:?}",
            payload_seqs(&g)
        );
        let seqs = payload_seqs(&g);
        assert_eq!(seqs[0], seqs[1], "total order");
        assert_eq!(seqs[1], seqs[2], "total order");
    }

    #[test]
    fn isis_sequencer_delivers_live() {
        let mut g = start::<IsisDriver>(IsisConfig::default(), LiveConfig::new(3).with_seed(8));
        let t0 = g.now();
        g.abcast_at(t0, p(1), b"x".to_vec());
        assert!(
            eventually(&g, TimeDelta::from_secs(20), || {
                payload_seqs(&g).iter().all(|s| s.len() == 1)
            }),
            "sequencer orders and diffuses to all members"
        );
    }

    #[test]
    fn token_ring_delivers_live() {
        let mut g = start::<TokenDriver>(TokenConfig::default(), LiveConfig::new(3).with_seed(9));
        let t0 = g.now();
        g.abcast_at(t0, p(2), b"y".to_vec());
        assert!(
            eventually(&g, TimeDelta::from_secs(20), || {
                payload_seqs(&g).iter().all(|s| s.len() == 1)
            }),
            "token carries the message around the ring"
        );
    }

    #[test]
    fn crash_kills_the_thread_and_survivors_continue() {
        let mut g =
            start::<NewArchDriver>(StackConfig::default(), LiveConfig::new(3).with_seed(10));
        let t0 = g.now();
        g.crash_at(t0, p(2));
        assert!(
            eventually(&g, TimeDelta::from_secs(5), || !g.alive_flags()[2]),
            "crash control marks the member dead"
        );
        g.abcast_at(g.now(), p(0), b"after-crash".to_vec());
        assert!(
            eventually(&g, TimeDelta::from_secs(20), || {
                let seqs = payload_seqs(&g);
                seqs[0].len() == 1 && seqs[1].len() == 1
            }),
            "survivors agree without the crashed member"
        );
        assert!(payload_seqs(&g)[2].is_empty(), "the dead deliver nothing");
    }

    #[test]
    fn tcp_wire_carries_the_same_protocol() {
        let mut g = start::<NewArchDriver>(
            StackConfig::default(),
            LiveConfig::new(3).with_seed(11).with_wire(WireMode::Tcp),
        );
        let t0 = g.now();
        g.abcast_at(t0, p(0), b"over-tcp".to_vec());
        assert!(
            eventually(&g, TimeDelta::from_secs(20), || {
                payload_seqs(&g).iter().all(|s| s.len() == 1)
            }),
            "frames over loopback TCP still reach agreement"
        );
        g.run_until(Time::ZERO); // refreshes the metrics snapshot
        assert!(g.metrics().total_sent() > 0, "wire traffic was accounted");
    }

    #[test]
    fn partition_blocks_and_heal_recovers() {
        let mut g = start::<IsisDriver>(IsisConfig::default(), LiveConfig::new(3).with_seed(12));
        let t0 = g.now();
        g.partition_at(t0, vec![vec![p(0)], vec![p(1), p(2)]]);
        g.run_until(g.now() + TimeDelta::from_millis(30));
        let dropped = g.metrics().dropped_partition();
        assert!(dropped > 0, "heartbeats died at the partition: {dropped}");
        g.heal_at(g.now());
        g.abcast_at(g.now() + TimeDelta::from_millis(20), p(1), b"z".to_vec());
        assert!(
            eventually(&g, TimeDelta::from_secs(20), || {
                payload_seqs(&g).iter().filter(|s| s.len() == 1).count() >= 2
            }),
            "after heal the group delivers again"
        );
    }

    /// Stack `S` whose reliable broadcast is an atomic broadcast sent to a
    /// component no process registers, which `Process::step_into` answers
    /// with a panic: a member-thread panic on demand.
    struct Faulty<S>(PhantomData<S>);

    impl<S: StackDriver> StackDriver for Faulty<S> {
        type Event = S::Event;
        type Config = S::Config;
        const KIND: StackKind = S::KIND;

        fn build(id: ProcessId, config: &S::Config, founders: usize) -> Process<S::Event> {
            S::build(id, config, founders)
        }

        fn abcast(payload: PayloadRef) -> Op<S::Event> {
            S::abcast(payload)
        }

        fn rbcast(payload: PayloadRef) -> Option<Op<S::Event>> {
            Some((ComponentId::new(99), S::abcast(payload).1))
        }

        fn join(contact: ProcessId) -> Op<S::Event> {
            S::join(contact)
        }

        fn project(event: &S::Event) -> Observation<'_> {
            S::project(event)
        }
    }

    /// A panic in p2's thread is p2's crash: p2 reads dead once the step
    /// that panicked is over, the survivors go on and stay consistent, and
    /// dropping the group re-raises the panic with p2 named.
    fn a_member_panic_on<S: StackDriver>(config: S::Config) {
        let name = S::KIND.name();
        let mut g = start::<Faulty<S>>(config, LiveConfig::new(3).with_seed(13));
        g.rbcast_at(g.now(), p(2), b"boom".to_vec());
        assert!(
            eventually(&g, TimeDelta::from_secs(5), || !g.alive_flags()[2]),
            "{name}: the panicked member reads dead"
        );
        assert_eq!(g.alive_flags(), [true, true, false], "{name}");
        g.abcast_at(g.now(), p(0), b"after-panic".to_vec());
        assert!(
            eventually(&g, TimeDelta::from_secs(20), || {
                let seqs = payload_seqs(&g);
                seqs[0].len() == 1 && seqs[1].len() == 1
            }),
            "{name}: the survivors deliver"
        );
        let report = InvariantChecker::check(&g, 3);
        assert!(report.is_clean(), "{name}: {:#?}", report.violations);
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(g)))
            .expect_err("the drop re-raises the member's panic");
        let text = raised.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            text.starts_with("live member p2 panicked: "),
            "{name}: {text}"
        );
    }

    #[test]
    fn a_member_panic_is_a_crash_and_surfaces_at_drop() {
        a_member_panic_on::<NewArchDriver>(StackConfig::default());
        a_member_panic_on::<IsisDriver>(IsisConfig::default());
        a_member_panic_on::<TokenDriver>(TokenConfig::default());
    }
}

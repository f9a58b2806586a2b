//! The simulation world: event queue, process hosting, fault injection.

use gcs_kernel::{ComponentId, Effects, Event, Process, ProcessId, Time, TimeDelta, TimerId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::Metrics;
use crate::network::{LinkModel, NetworkModel};
use crate::schedule::{Schedule, ScheduleAction};
use crate::topology::Topology;
use crate::trace::Trace;
use crate::wheel::{TimingWheel, WheelItem};

/// Configuration of a simulation run. Every application delivery is
/// recorded in the run's [`Trace`].
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// PRNG seed; two runs with equal seed, topology and workload are
    /// identical. Every seeded test, scenario and benchmark run sets it.
    pub seed: u64,
    /// Network topology resolving the link model of every process pair.
    /// The WAN and lossy scenarios, experiments and tests set it.
    pub topology: Topology,
}

/// Fixed delay of a self-send, which is never lost or partitioned.
const LOOPBACK_DELAY: TimeDelta = TimeDelta::from_micros(10);

impl SimConfig {
    /// A LAN-like configuration with the given seed.
    pub fn lan(seed: u64) -> Self {
        SimConfig {
            seed,
            topology: Topology::lan(),
        }
    }

    /// Replaces the topology with a single uniform link model.
    pub fn with_link(self, link: LinkModel) -> Self {
        self.with_topology(Topology::uniform("uniform", link))
    }

    /// Replaces the network topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::lan(0)
    }
}

#[derive(Debug)]
enum Pending<E> {
    Net {
        from: ProcessId,
        to: ProcessId,
        component: ComponentId,
        event: E,
    },
    Timer {
        proc: ProcessId,
        id: TimerId,
    },
    Inject {
        proc: ProcessId,
        component: ComponentId,
        event: E,
    },
    /// A fault step of a [`Schedule`], entered when it fires: a region
    /// partition resolves against the node count then.
    Fault(ScheduleAction),
}

#[derive(Debug)]
struct Scheduled<E> {
    at: Time,
    seq: u64,
    pending: Pending<E>,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
impl<E> WheelItem for Scheduled<E> {
    fn at_nanos(&self) -> u64 {
        self.at.as_nanos()
    }
}

struct Node<E: Event> {
    process: Process<E>,
    alive: bool,
}

/// The discrete-event simulation world.
///
/// Build one with [`SimWorld::new`], add processes with
/// [`add_node`](SimWorld::add_node), schedule workload with
/// [`inject_at`](SimWorld::inject_at) and faults with
/// [`crash_at`](SimWorld::crash_at) et al., then drive it with
/// [`run_until`](SimWorld::run_until) or
/// [`run_to_quiescence`](SimWorld::run_to_quiescence).
pub struct SimWorld<E: Event> {
    now: Time,
    seq: u64,
    executed: u64,
    queue: TimingWheel<Scheduled<E>>,
    nodes: Vec<Node<E>>,
    net: NetworkModel,
    rng: StdRng,
    metrics: Metrics,
    trace: Trace<E>,
    started: bool,
    /// Reused effects buffer: dispatches append into it and
    /// [`apply_effects`](Self::apply_effects) drains it, so the steady state
    /// allocates nothing per event. Boxed so borrowing it out of `self` is a
    /// pointer swap, not a memcpy of the inline buffers.
    fx: Option<Box<Effects<E>>>,
}

impl<E: Event> SimWorld<E> {
    /// Creates an empty world.
    pub fn new(config: SimConfig) -> Self {
        let mut metrics = Metrics::new();
        metrics.set_regions(config.topology.regions());
        SimWorld {
            now: Time::ZERO,
            seq: 0,
            executed: 0,
            queue: TimingWheel::new(),
            nodes: Vec::new(),
            net: NetworkModel::with_topology(config.topology),
            rng: StdRng::seed_from_u64(config.seed),
            metrics,
            trace: Trace::new(),
            started: false,
            fx: Some(Box::new(Effects::new())),
        }
    }

    /// Adds a process built by `f`, which receives the assigned id.
    ///
    /// # Panics
    ///
    /// Panics if called after the world started running, or if `f` builds a
    /// process with a different id.
    pub fn add_node(&mut self, f: impl FnOnce(ProcessId) -> Process<E>) -> ProcessId {
        assert!(
            !self.started,
            "processes must be added before the world starts"
        );
        let id = ProcessId::new(self.nodes.len() as u32);
        let process = f(id);
        assert_eq!(process.id(), id, "process built with wrong id");
        self.nodes.push(Node {
            process,
            alive: true,
        });
        id
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no processes were added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of simulation events executed so far (for events/sec
    /// throughput measurements).
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Whether a process is still running (not crashed / halted).
    pub fn is_alive(&self, p: ProcessId) -> bool {
        self.nodes[p.index()].alive && !self.nodes[p.index()].process.is_halted()
    }

    /// Liveness flags indexed by process, for trace checkers.
    pub fn alive_flags(&self) -> Vec<bool> {
        self.nodes
            .iter()
            .map(|n| n.alive && !n.process.is_halted())
            .collect()
    }

    /// The collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The application-delivery trace.
    pub fn trace(&self) -> &Trace<E> {
        &self.trace
    }

    /// Schedules a local event for `proc`'s component `component` at time
    /// `at`.
    pub fn inject_at(&mut self, at: Time, proc: ProcessId, component: ComponentId, event: E) {
        self.schedule(
            at,
            Pending::Inject {
                proc,
                component,
                event,
            },
        );
    }

    /// Crashes `proc` at time `at` (crash-stop).
    pub fn crash_at(&mut self, at: Time, proc: ProcessId) {
        self.schedule(at, Pending::Fault(ScheduleAction::Crash(proc)));
    }

    /// Applies every simulator-level step of `schedule` (crashes,
    /// partitions, link changes, spikes, bursts) and returns the membership
    /// steps ([`ScheduleAction::Join`] / [`ScheduleAction::Remove`]) the
    /// caller's protocol harness must route itself.
    pub fn apply_schedule(&mut self, schedule: &Schedule) -> Vec<(Time, ScheduleAction)> {
        let mut membership = Vec::new();
        for (t, action) in schedule.steps() {
            if action.is_sim_level() {
                self.schedule(*t, Pending::Fault(action.clone()));
            } else {
                membership.push((*t, action.clone()));
            }
        }
        membership
    }

    fn schedule(&mut self, at: Time, pending: Pending<E>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, pending });
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            let mut fx = self.fx.take().unwrap_or_default();
            self.nodes[i].process.start_into(self.now, &mut fx);
            self.apply_effects(ProcessId::new(i as u32), &mut fx);
            self.fx = Some(fx);
        }
    }

    /// Executes the next scheduled event; returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some(next) = self.queue.pop() else {
            return false;
        };
        self.execute(next);
        true
    }

    /// Executes one already-popped scheduled entry.
    fn execute(&mut self, next: Scheduled<E>) {
        debug_assert!(next.at >= self.now, "time went backwards");
        self.now = next.at;
        self.executed += 1;
        match next.pending {
            Pending::Net {
                from,
                to,
                component,
                event,
            } => {
                if self.nodes[to.index()].alive {
                    self.metrics.record_delivery();
                    let mut fx = self.fx.take().unwrap_or_default();
                    self.nodes[to.index()]
                        .process
                        .deliver_net_into(from, component, event, self.now, &mut fx);
                    self.apply_effects(to, &mut fx);
                    self.fx = Some(fx);
                } else {
                    self.metrics.record_drop_crash();
                }
            }
            Pending::Timer { proc, id } => {
                if self.nodes[proc.index()].alive {
                    let mut fx = self.fx.take().unwrap_or_default();
                    self.nodes[proc.index()]
                        .process
                        .fire_timer_into(id, self.now, &mut fx);
                    self.apply_effects(proc, &mut fx);
                    self.fx = Some(fx);
                }
            }
            Pending::Inject {
                proc,
                component,
                event,
            } => {
                if self.nodes[proc.index()].alive {
                    let mut fx = self.fx.take().unwrap_or_default();
                    self.nodes[proc.index()]
                        .process
                        .deliver_into(component, event, self.now, &mut fx);
                    self.apply_effects(proc, &mut fx);
                    self.fx = Some(fx);
                }
            }
            Pending::Fault(ScheduleAction::Crash(p)) => {
                self.nodes[p.index()].alive = false;
                self.nodes[p.index()].process.halt();
            }
            Pending::Fault(action) => self.net.apply(self.now, action, self.nodes.len()),
        }
    }

    /// Runs until virtual time `t` (inclusive of events at `t`); afterwards
    /// `now() == t` even if the queue drained earlier.
    pub fn run_until(&mut self, t: Time) {
        self.ensure_started();
        while let Some(next) = self.queue.pop_if(|head| head.at <= t) {
            self.execute(next);
        }
        self.now = self.now.max(t);
    }

    /// Runs until the event queue drains or virtual time would exceed
    /// `limit`; returns `true` if the system quiesced within the limit.
    pub fn run_to_quiescence(&mut self, limit: Time) -> bool {
        self.ensure_started();
        loop {
            if self.queue.is_empty() {
                return true;
            }
            match self.queue.pop_if(|head| head.at <= limit) {
                Some(next) => self.execute(next),
                None => return false,
            }
        }
    }

    /// Drains a dispatch's effects into the queue/trace, leaving `fx` empty
    /// and ready for reuse.
    fn apply_effects(&mut self, proc: ProcessId, fx: &mut Effects<E>) {
        for out in fx.outputs.drain() {
            self.trace.push(self.now, proc, out);
        }
        for t in fx.timers.drain() {
            self.schedule(self.now + t.after, Pending::Timer { proc, id: t.id });
        }
        for env in fx.sends.drain() {
            self.route(env.from, env.to, env.component, env.event);
        }
        for cast in fx.casts.drain() {
            self.route_multicast(cast.from, &cast.to, cast.component, cast.event);
        }
        if fx.halted {
            self.nodes[proc.index()].alive = false;
        }
        fx.clear();
    }

    fn route(&mut self, from: ProcessId, to: ProcessId, component: ComponentId, event: E) {
        let wire_size = self.metrics.record_packet(&event);
        if from == to {
            // Loopback: fixed small delay, never lost or partitioned.
            let at = self.now + LOOPBACK_DELAY;
            self.schedule(
                at,
                Pending::Net {
                    from,
                    to,
                    component,
                    event,
                },
            );
            return;
        }
        if self.net.blocked(from, to) {
            self.metrics.record_drop_partition();
            return;
        }
        let link = self.net.link(from, to);
        let drop_prob = self.net.drop_prob(&link, self.now);
        if drop_prob > 0.0 && self.rng.gen_bool(drop_prob) {
            self.metrics.record_drop_loss();
            return;
        }
        // Every scheduled copy pays serialization and any active delay
        // spike, duplicates included — a spike must slow *all* traffic.
        let spike = self.net.spike(self.now);
        let serialization = link.serialization_delay(wire_size);
        let delay = link.sample_delay(&mut self.rng) + serialization + spike;
        // Region-pair observability: every scheduled copy records its
        // one-way latency under (src region, dst region). Single-region
        // topologies skip this entirely (see Metrics::set_regions).
        let topology = self.net.topology();
        let (from_region, to_region) = (topology.region_of(from), topology.region_of(to));
        if link.dup_prob > 0.0 && self.rng.gen_bool(link.dup_prob) {
            let delay2 = link.sample_delay(&mut self.rng) + serialization + spike;
            self.metrics
                .record_link_latency(from_region, to_region, delay2);
            self.schedule(
                self.now + delay2,
                Pending::Net {
                    from,
                    to,
                    component,
                    event: event.clone(),
                },
            );
        }
        self.metrics
            .record_link_latency(from_region, to_region, delay);
        self.schedule(
            self.now + delay,
            Pending::Net {
                from,
                to,
                component,
                event,
            },
        );
    }

    /// Expands a broadcast envelope: the wire-size/kind metrics are recorded
    /// per destination (each transmission is a message on the network), and
    /// the event is cloned once per *scheduled delivery* — the last
    /// destination receives the original, so a unicast "broadcast" is fully
    /// zero-copy and an `n`-cast performs `n − 1` cheap clones instead of
    /// the `n` deep per-envelope copies the old per-destination path made.
    fn route_multicast(
        &mut self,
        from: ProcessId,
        to: &gcs_kernel::SmallVec<ProcessId, 8>,
        component: ComponentId,
        event: E,
    ) {
        let n = to.len();
        if n == 0 {
            return;
        }
        for i in 0..n - 1 {
            self.route(from, to[i], component, event.clone());
        }
        self.route(from, to[n - 1], component, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_kernel::{Component, Context};

    const ECHO: ComponentId = ComponentId::new(0);

    #[derive(Clone, Debug, PartialEq)]
    enum Ev {
        Hello(u32),
        Deliver(u32),
    }
    impl Event for Ev {
        fn kind(&self) -> &'static str {
            match self {
                Ev::Hello(_) => "hello",
                Ev::Deliver(_) => "deliver",
            }
        }
    }

    /// Broadcasts Hello on injection; outputs Deliver on reception.
    struct Echo {
        n: u32,
    }
    impl Component<Ev> for Echo {
        fn on_event(&mut self, ev: Ev, ctx: &mut Context<'_, Ev>) {
            if let Ev::Hello(v) = ev {
                let targets: Vec<ProcessId> = (0..self.n).map(ProcessId::new).collect();
                ctx.send_to_all(targets, Ev::Hello(v));
            }
        }
        fn on_message(&mut self, _from: ProcessId, ev: Ev, ctx: &mut Context<'_, Ev>) {
            if let Ev::Hello(v) = ev {
                ctx.output(Ev::Deliver(v));
            }
        }
    }

    fn world(n: u32, seed: u64) -> SimWorld<Ev> {
        let mut w = SimWorld::new(SimConfig::lan(seed));
        for _ in 0..n {
            w.add_node(|id| Process::builder(id).with(ECHO, Echo { n }).build());
        }
        w
    }

    #[test]
    fn broadcast_reaches_all_nodes() {
        let mut w = world(3, 1);
        w.inject_at(Time::ZERO, ProcessId::new(0), ECHO, Ev::Hello(42));
        assert!(w.run_to_quiescence(Time::from_secs(1)));
        let seqs = w.trace().per_proc(3, |e| match e {
            Ev::Deliver(v) => Some(*v),
            _ => None,
        });
        assert_eq!(seqs, vec![vec![42], vec![42], vec![42]]);
        assert_eq!(w.metrics().sent_of_kind("hello"), 3);
    }

    #[test]
    fn equal_time_events_fire_in_schedule_order() {
        // Tie-breaking pin for the scheduler: events scheduled at the same
        // instant fire in scheduling (seq) order. The old BinaryHeap ordered
        // by (time, seq); the timing wheel must preserve that exactly.
        let mut w = world(1, 42);
        for i in 0..50u32 {
            w.inject_at(Time::from_millis(5), ProcessId::new(0), ECHO, Ev::Hello(i));
        }
        assert!(w.run_to_quiescence(Time::from_secs(1)));
        let seqs = w.trace().per_proc(1, |e| match e {
            Ev::Deliver(v) => Some(*v),
            _ => None,
        });
        assert_eq!(seqs[0], (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut w = world(4, seed);
            for i in 0..10 {
                w.inject_at(
                    Time::from_millis(i),
                    ProcessId::new((i % 4) as u32),
                    ECHO,
                    Ev::Hello(i as u32),
                );
            }
            assert!(w.run_to_quiescence(Time::from_secs(1)));
            w.trace()
                .entries()
                .iter()
                .map(|e| (e.time, e.proc, e.event.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8)); // different seed ⇒ different delays
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let mut w = world(3, 2);
        w.crash_at(Time::from_millis(1), ProcessId::new(2));
        w.inject_at(Time::from_millis(2), ProcessId::new(0), ECHO, Ev::Hello(1));
        assert!(w.run_to_quiescence(Time::from_secs(1)));
        let seqs = w.trace().per_proc(3, |e| match e {
            Ev::Deliver(v) => Some(*v),
            _ => None,
        });
        assert_eq!(seqs[2], Vec::<u32>::new());
        assert!(!w.is_alive(ProcessId::new(2)));
        assert_eq!(w.metrics().dropped_crash(), 1);
    }

    #[test]
    fn partition_blocks_and_heals() {
        let p = |i| ProcessId::new(i);
        let mut w = world(3, 3);
        w.apply_schedule(
            &Schedule::new().partition(Time::ZERO, vec![vec![p(0)], vec![p(1), p(2)]]),
        );
        w.inject_at(Time::from_millis(1), p(1), ECHO, Ev::Hello(5));
        assert!(w.run_to_quiescence(Time::from_secs(1)));
        let seqs = w.trace().per_proc(3, |e| match e {
            Ev::Deliver(v) => Some(*v),
            _ => None,
        });
        assert_eq!(seqs[0], Vec::<u32>::new());
        assert_eq!(seqs[1], vec![5]);
        assert_eq!(w.metrics().dropped_partition(), 1);
    }

    #[test]
    fn loss_burst_drops_messages() {
        let mut w = world(2, 4);
        w.apply_schedule(&Schedule::new().loss_burst(Time::ZERO, TimeDelta::from_secs(10), 1.0));
        w.inject_at(Time::from_millis(1), ProcessId::new(0), ECHO, Ev::Hello(9));
        assert!(w.run_to_quiescence(Time::from_secs(1)));
        // Self-send still arrives (loopback is never lost); peer send dropped.
        assert_eq!(w.metrics().dropped_loss(), 1);
        let seqs = w.trace().per_proc(2, |e| match e {
            Ev::Deliver(v) => Some(*v),
            _ => None,
        });
        assert_eq!(seqs[1], Vec::<u32>::new());
        assert_eq!(seqs[0], vec![9]);
    }

    #[test]
    fn delay_spike_slows_delivery() {
        let measure = |spike: bool| {
            let mut w = world(2, 5);
            if spike {
                w.apply_schedule(&Schedule::new().delay_spike(
                    Time::ZERO,
                    TimeDelta::from_secs(1),
                    TimeDelta::from_millis(50),
                ));
            }
            w.inject_at(Time::ZERO, ProcessId::new(0), ECHO, Ev::Hello(1));
            assert!(w.run_to_quiescence(Time::from_secs(2)));
            w.trace()
                .project(|e| matches!(e, Ev::Deliver(_)).then_some(()))
                .iter()
                .filter(|(_, p, _)| *p == ProcessId::new(1))
                .map(|(t, _, _)| *t)
                .next()
                .unwrap()
        };
        let base = measure(false);
        let spiked = measure(true);
        assert!(spiked.as_nanos() >= base.as_nanos() + 49_000_000);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut w = world(2, 6);
        w.run_until(Time::from_millis(250));
        assert_eq!(w.now(), Time::from_millis(250));
    }

    #[test]
    fn apply_schedule_drives_sim_actions_and_returns_membership() {
        let p = |i| ProcessId::new(i);
        let mut w = world(3, 7);
        let s = crate::Schedule::new()
            .crash(Time::from_millis(1), p(2))
            .join(Time::from_millis(5), p(9), p(0))
            .remove(Time::from_millis(6), p(0), p(1));
        let leftover = w.apply_schedule(&s);
        assert_eq!(leftover.len(), 2, "membership steps returned");
        assert!(leftover.iter().all(|(_, a)| !a.is_sim_level()));
        w.inject_at(Time::from_millis(2), p(0), ECHO, Ev::Hello(1));
        assert!(w.run_to_quiescence(Time::from_secs(1)));
        assert!(!w.is_alive(p(2)), "scheduled crash applied");
        assert_eq!(w.metrics().dropped_crash(), 1);
    }

    #[test]
    fn region_partition_splits_along_topology() {
        let p = |i| ProcessId::new(i);
        let cfg = SimConfig::lan(8).with_topology(crate::Topology::wan_2dc());
        let mut w: SimWorld<Ev> = SimWorld::new(cfg);
        for _ in 0..4 {
            w.add_node(|id| Process::builder(id).with(ECHO, Echo { n: 4 }).build());
        }
        let s = crate::Schedule::new().partition_regions(Time::ZERO);
        assert!(w.apply_schedule(&s).is_empty());
        w.inject_at(Time::from_millis(1), p(0), ECHO, Ev::Hello(3));
        assert!(w.run_to_quiescence(Time::from_secs(1)));
        let seqs = w.trace().per_proc(4, |e| match e {
            Ev::Deliver(v) => Some(*v),
            _ => None,
        });
        // Round-robin regions: p0/p2 in one DC, p1/p3 in the other.
        assert_eq!(seqs[0], vec![3]);
        assert_eq!(seqs[2], vec![3]);
        assert_eq!(seqs[1], Vec::<u32>::new());
        assert_eq!(seqs[3], Vec::<u32>::new());
        assert_eq!(w.metrics().dropped_partition(), 2);
    }

    #[test]
    fn scheduled_set_link_degrades_a_route() {
        let p = |i| ProcessId::new(i);
        let slow = LinkModel {
            delay_min: TimeDelta::from_millis(80),
            delay_max: TimeDelta::from_millis(90),
            ..LinkModel::lan()
        };
        let measure = |degrade: bool| {
            let mut w = world(2, 9);
            if degrade {
                let s = crate::Schedule::new().set_link(Time::ZERO, p(0), p(1), slow);
                w.apply_schedule(&s);
            }
            w.inject_at(Time::from_millis(1), p(0), ECHO, Ev::Hello(1));
            assert!(w.run_to_quiescence(Time::from_secs(1)));
            w.trace()
                .project(|e| matches!(e, Ev::Deliver(_)).then_some(()))
                .iter()
                .find(|(_, q, _)| *q == p(1))
                .map(|(t, _, _)| *t)
                .unwrap()
        };
        let base = measure(false);
        let degraded = measure(true);
        assert!(degraded.as_nanos() >= base.as_nanos() + 78_000_000);
    }

    #[test]
    fn bandwidth_limited_link_delays_by_wire_size() {
        // Ev::Hello has the default 64-byte wire size; a 64-byte/sec link
        // therefore adds a full second of serialization delay.
        let p = |i| ProcessId::new(i);
        let cfg = SimConfig::lan(10).with_link(LinkModel::lan().with_bandwidth(64));
        let mut w: SimWorld<Ev> = SimWorld::new(cfg);
        for _ in 0..2 {
            w.add_node(|id| Process::builder(id).with(ECHO, Echo { n: 2 }).build());
        }
        w.inject_at(Time::ZERO, p(0), ECHO, Ev::Hello(1));
        assert!(w.run_to_quiescence(Time::from_secs(5)));
        let at = w
            .trace()
            .project(|e| matches!(e, Ev::Deliver(_)).then_some(()))
            .iter()
            .find(|(_, q, _)| *q == p(1))
            .map(|(t, _, _)| *t)
            .unwrap();
        assert!(at >= Time::from_secs(1), "serialization delay paid: {at:?}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gcs_kernel::{Component, Context};
    use proptest::prelude::*;

    const FWD: ComponentId = ComponentId::new(0);

    #[derive(Clone, Debug, PartialEq)]
    struct Num(u32);
    impl Event for Num {
        fn kind(&self) -> &'static str {
            "num"
        }
    }

    /// Forwards every received value to a pseudo-random peer and outputs it.
    struct Forwarder {
        n: u32,
    }
    impl Component<Num> for Forwarder {
        fn on_event(&mut self, ev: Num, ctx: &mut Context<'_, Num>) {
            ctx.send(ProcessId::new(ev.0 % self.n), Num(ev.0));
        }
        fn on_message(&mut self, _from: ProcessId, ev: Num, ctx: &mut Context<'_, Num>) {
            ctx.output(ev);
        }
    }

    proptest! {
        /// Determinism: identical seeds and workloads produce identical
        /// traces and metrics, for arbitrary workloads.
        #[test]
        fn identical_seeds_identical_runs(
            seed in any::<u64>(),
            injections in proptest::collection::vec((0u32..4, 0u64..50, any::<u32>()), 0..40),
        ) {
            let run = || {
                let mut w: SimWorld<Num> = SimWorld::new(SimConfig::lan(seed));
                for _ in 0..4 {
                    w.add_node(|id| {
                        gcs_kernel::Process::builder(id).with(FWD, Forwarder { n: 4 }).build()
                    });
                }
                for (p, t, v) in &injections {
                    w.inject_at(Time::from_millis(*t), ProcessId::new(*p), FWD, Num(*v));
                }
                prop_assert!(w.run_to_quiescence(Time::from_secs(60)));
                Ok((
                    w.trace().entries().iter().map(|e| (e.time, e.proc, e.event.clone())).collect::<Vec<_>>(),
                    w.metrics().total_sent(),
                ))
            };
            prop_assert_eq!(run()?, run()?);
        }

        /// Time monotonicity and conservation: every injected message is
        /// delivered exactly once (loss-free network), in non-decreasing
        /// virtual time.
        #[test]
        fn conservation_and_monotonic_time(
            injections in proptest::collection::vec((0u32..3, 0u64..30, any::<u32>()), 1..30),
        ) {
            let mut w: SimWorld<Num> = SimWorld::new(SimConfig::lan(1));
            for _ in 0..3 {
                w.add_node(|id| {
                    gcs_kernel::Process::builder(id).with(FWD, Forwarder { n: 3 }).build()
                });
            }
            for (p, t, v) in &injections {
                w.inject_at(Time::from_millis(*t), ProcessId::new(*p), FWD, Num(*v));
            }
            prop_assert!(w.run_to_quiescence(Time::from_secs(60)));
            prop_assert_eq!(w.trace().len(), injections.len());
            let mut last = Time::ZERO;
            for e in w.trace().entries() {
                prop_assert!(e.time >= last, "time went backwards");
                last = e.time;
            }
        }
    }
}

//! The simulation world: event queue, process hosting, fault injection.

use gcs_kernel::{ComponentId, Effects, Event, Input, Process, ProcessId, Time, TimeDelta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::Runtime;
use crate::metrics::Metrics;
use crate::network::{LinkModel, NetworkModel};
use crate::schedule::{Schedule, ScheduleAction};
use crate::topology::Topology;
use crate::wheel::{Scheduled, TimingWheel};

/// Configuration of a simulation run.
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
    /// One input to one process: the dispatch step it drives.
    Step { proc: ProcessId, input: Input<E> },
    /// A fault step of a [`Schedule`], entered when it fires: a region
    /// partition resolves against the node count then.
    Fault(ScheduleAction),
}

/// The discrete-event simulation world: the simulator's [`Runtime`].
///
/// Start one with [`Runtime::start`], schedule workload with
/// [`inject`](Runtime::inject) and faults with
/// [`apply_schedule`](Runtime::apply_schedule), then drive it with
/// [`run_until`](Runtime::run_until) or
/// [`run_to_quiescence`](Runtime::run_to_quiescence). Every input — an
/// injection, a message arrival, a timer — waits in one queue as one
/// [`Input`] to one process, and the queue runs in `(time, seq)` order:
/// equal instants in the order they were scheduled, whatever their kind.
pub struct SimWorld<E: Event> {
    now: Time,
    seq: u64,
    executed: u64,
    queue: TimingWheel<Scheduled<Pending<E>>>,
    /// The processes; a crashed or self-halted one reads
    /// [`is_halted`](Process::is_halted).
    nodes: Vec<Process<E>>,
    net: NetworkModel,
    rng: StdRng,
    metrics: Metrics,
    /// Every output, with the instant and process that produced it, in
    /// the order produced: what [`visit_outputs`](Runtime::visit_outputs)
    /// walks.
    outputs: Vec<(Time, ProcessId, E)>,
    /// Outputs per process, so [`outputs_of`](Runtime::outputs_of) need
    /// not scan `outputs`.
    output_counts: Vec<u64>,
    started: bool,
    /// Reused effects buffer: dispatches append into it and
    /// [`apply_effects`](Self::apply_effects) drains it, so the steady state
    /// allocates nothing per event. Boxed so borrowing it out of `self` is a
    /// pointer swap, not a memcpy of the inline buffers.
    fx: Option<Box<Effects<E>>>,
}

impl<E: Event> Runtime<E> for SimWorld<E> {
    type Config = SimConfig;

    /// Builds processes `0..n` on the caller's thread; they start when the
    /// world first runs.
    ///
    /// # Panics
    ///
    /// Panics if `build` makes a process with another id than it was given.
    fn start(
        config: SimConfig,
        n: usize,
        build: impl Fn(ProcessId) -> Process<E> + Send + Sync + 'static,
    ) -> Self {
        let mut metrics = Metrics::new();
        metrics.set_regions(config.topology.regions());
        let nodes = (0..n as u32)
            .map(ProcessId::new)
            .map(|id| {
                let process = build(id);
                assert_eq!(process.id(), id, "process built with wrong id");
                process
            })
            .collect();
        SimWorld {
            now: Time::ZERO,
            seq: 0,
            executed: 0,
            queue: TimingWheel::new(),
            nodes,
            net: NetworkModel::with_topology(config.topology),
            rng: StdRng::seed_from_u64(config.seed),
            metrics,
            outputs: Vec::new(),
            output_counts: Vec::new(),
            started: false,
            fx: Some(Box::new(Effects::new())),
        }
    }

    fn now(&self) -> Time {
        self.now
    }

    fn inject(&mut self, t: Time, p: ProcessId, component: ComponentId, event: E) {
        self.step_at(t, p, Input::Inject { component, event });
    }

    /// Schedules every simulator-level step of `schedule` (crashes,
    /// partitions, link changes, spikes, bursts).
    fn apply_schedule(&mut self, schedule: &Schedule) -> Vec<(Time, ScheduleAction)> {
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

    /// Runs until virtual time `t` (inclusive of events at `t`); afterwards
    /// `now() == t` even if the queue drained earlier.
    fn run_until(&mut self, t: Time) {
        self.ensure_started();
        while let Some(next) = self.queue.pop_if(|head| head.at <= t) {
            self.execute(next);
        }
        self.now = self.now.max(t);
    }

    /// Runs until the event queue drains or virtual time would exceed
    /// `limit`; returns `true` if the system quiesced within the limit.
    fn run_to_quiescence(&mut self, limit: Time) -> bool {
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

    fn outputs_of(&self, p: ProcessId) -> u64 {
        self.output_counts.get(p.index()).copied().unwrap_or(0)
    }

    fn outputs_total(&self) -> u64 {
        self.outputs.len() as u64
    }

    fn visit_outputs(&self, f: &mut dyn FnMut(Time, ProcessId, &E)) {
        for (time, proc, event) in &self.outputs {
            f(*time, *proc, event);
        }
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Simulation events executed so far (for events/sec throughput
    /// measurements).
    fn events_executed(&self) -> u64 {
        self.executed
    }

    fn alive_flags(&self) -> Vec<bool> {
        self.nodes.iter().map(|n| !n.is_halted()).collect()
    }
}

impl<E: Event> SimWorld<E> {
    fn schedule(&mut self, at: Time, pending: Pending<E>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled {
            at,
            seq,
            item: pending,
        });
    }

    fn step_at(&mut self, at: Time, proc: ProcessId, input: Input<E>) {
        self.schedule(at, Pending::Step { proc, input });
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            let mut fx = self.fx.take().unwrap_or_default();
            self.nodes[i].start_into(self.now, &mut fx);
            self.apply_effects(ProcessId::new(i as u32), &mut fx);
            self.fx = Some(fx);
        }
    }

    /// Executes one already-popped scheduled entry. A message arrival
    /// counts as a delivery, or as a crash drop at a dead receiver; a timer
    /// or an injection at a dead process is silently moot.
    fn execute(&mut self, next: Scheduled<Pending<E>>) {
        debug_assert!(next.at >= self.now, "time went backwards");
        self.now = next.at;
        self.executed += 1;
        match next.item {
            Pending::Step { proc, input } => {
                let net = matches!(input, Input::Net { .. });
                if self.nodes[proc.index()].is_halted() {
                    if net {
                        self.metrics.record_drop_crash();
                    }
                    return;
                }
                if net {
                    self.metrics.record_delivery();
                }
                let mut fx = self.fx.take().unwrap_or_default();
                self.nodes[proc.index()].step_into(input, self.now, &mut fx);
                self.apply_effects(proc, &mut fx);
                self.fx = Some(fx);
            }
            Pending::Fault(ScheduleAction::Crash(p)) => self.nodes[p.index()].halt(),
            Pending::Fault(action) => self.net.apply(self.now, action, self.nodes.len()),
        }
    }

    /// Drains a dispatch's effects into the queue and the outputs, leaving
    /// `fx` empty and ready for reuse. A halt in `fx` has already halted
    /// the process.
    fn apply_effects(&mut self, proc: ProcessId, fx: &mut Effects<E>) {
        for out in fx.outputs.drain() {
            let idx = proc.index();
            if idx >= self.output_counts.len() {
                self.output_counts.resize(idx + 1, 0);
            }
            self.output_counts[idx] += 1;
            self.outputs.push((self.now, proc, out));
        }
        for t in fx.timers.drain() {
            self.step_at(self.now + t.after, proc, Input::Fire(t.id));
        }
        for env in fx.sends.drain() {
            self.route(env.from, env.to, env.component, env.event);
        }
        for cast in fx.casts.drain() {
            self.route_multicast(cast.from, &cast.to, cast.component, cast.event);
        }
        fx.clear();
    }

    fn route(&mut self, from: ProcessId, to: ProcessId, component: ComponentId, event: E) {
        let wire_size = self.metrics.record_packet(&event);
        if from == to {
            // Loopback: fixed small delay, never lost or partitioned.
            let at = self.now + LOOPBACK_DELAY;
            self.arrive_at(at, from, to, component, event);
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
            self.arrive_at(self.now + delay2, from, to, component, event.clone());
        }
        self.metrics
            .record_link_latency(from_region, to_region, delay);
        self.arrive_at(self.now + delay, from, to, component, event);
    }

    /// Schedules the arrival at `to` of what `from`'s `component` sent.
    fn arrive_at(
        &mut self,
        at: Time,
        from: ProcessId,
        to: ProcessId,
        component: ComponentId,
        event: E,
    ) {
        let input = Input::Net {
            from,
            component,
            event,
        };
        self.step_at(at, to, input);
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
    use gcs_kernel::{Component, Context, TimerId};

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
        world_on(SimConfig::lan(seed), n)
    }

    fn world_on(config: SimConfig, n: u32) -> SimWorld<Ev> {
        SimWorld::start(config, n as usize, move |id| {
            Process::builder(id).with(ECHO, Echo { n }).build()
        })
    }

    /// Every output of `w`, in the order [`Runtime::visit_outputs`] walks.
    pub(super) fn outputs<E: Event>(w: &SimWorld<E>) -> Vec<(Time, ProcessId, E)> {
        let mut out = Vec::new();
        w.visit_outputs(&mut |t, p, e| out.push((t, p, e.clone())));
        out
    }

    /// The values delivered at each of processes `0..n`, in order.
    fn delivered(w: &SimWorld<Ev>, n: usize) -> Vec<Vec<u32>> {
        let mut seqs = vec![Vec::new(); n];
        for (_, proc, e) in outputs(w) {
            if let Ev::Deliver(v) = e {
                seqs[proc.index()].push(v);
            }
        }
        seqs
    }

    /// When `p` delivered first (`Echo` outputs nothing but deliveries).
    fn first_delivery_at(w: &SimWorld<Ev>, p: ProcessId) -> Time {
        let mut at_p = outputs(w).into_iter().filter(|(_, q, _)| *q == p);
        at_p.next().expect("a delivery").0
    }

    #[test]
    fn broadcast_reaches_all_nodes() {
        let mut w = world(3, 1);
        w.inject(Time::ZERO, ProcessId::new(0), ECHO, Ev::Hello(42));
        assert!(w.run_to_quiescence(Time::from_secs(1)));
        assert_eq!(delivered(&w, 3), vec![vec![42], vec![42], vec![42]]);
        assert_eq!(w.metrics().sent_of_kind("hello"), 3);
    }

    /// What the order test's component is handed, and what it reports.
    #[derive(Clone, Debug, PartialEq)]
    enum Order {
        /// Set a timer due in this many µs.
        Arm(u64),
        /// Send to self: the loopback arrives [`LOOPBACK_DELAY`] later.
        Loop,
        /// Report an injection.
        Mark,
        /// Which kind of input ran.
        Ran(&'static str),
    }
    impl Event for Order {
        fn kind(&self) -> &'static str {
            "order"
        }
    }

    /// Reports every injected `Mark`, message arrival and timer expiry.
    struct Reporter;
    impl Component<Order> for Reporter {
        fn on_event(&mut self, ev: Order, ctx: &mut Context<'_, Order>) {
            match ev {
                Order::Arm(us) => {
                    ctx.set_timer(TimeDelta::from_micros(us));
                }
                Order::Loop => ctx.send(ctx.me(), Order::Loop),
                Order::Mark => ctx.output(Order::Ran("inject")),
                Order::Ran(_) => {}
            }
        }
        fn on_message(&mut self, _from: ProcessId, _ev: Order, ctx: &mut Context<'_, Order>) {
            ctx.output(Order::Ran("net"));
        }
        fn on_timer(&mut self, _t: TimerId, ctx: &mut Context<'_, Order>) {
            ctx.output(Order::Ran("fire"));
        }
    }

    #[test]
    fn equal_time_events_fire_in_schedule_order() {
        // Tie-breaking pin for the scheduler: events scheduled at the same
        // instant fire in scheduling (seq) order. The old BinaryHeap ordered
        // by (time, seq); the timing wheel must preserve that exactly.
        let mut w = world(1, 42);
        for i in 0..50u32 {
            w.inject(Time::from_millis(5), ProcessId::new(0), ECHO, Ev::Hello(i));
        }
        assert!(w.run_to_quiescence(Time::from_secs(1)));
        assert_eq!(delivered(&w, 1)[0], (0..50).collect::<Vec<u32>>());

        // The same holds across input kinds: an injection, a message
        // arrival and a timer due at one instant run in the order they were
        // scheduled, not in an order of their kind. Two runs schedule them
        // in opposite orders, which no ranking by kind satisfies both of.
        let p0 = ProcessId::new(0);
        let at = Time::from_millis(1);
        let before = |us| Time::from_nanos(at.as_nanos() - us * 1_000);
        let ran = |w: &SimWorld<Order>| -> Vec<&'static str> {
            let outputs = outputs(w).into_iter();
            outputs
                .map(|(_, _, e)| match e {
                    Order::Ran(kind) => kind,
                    other => panic!("unexpected output {other:?}"),
                })
                .collect()
        };
        let loopback_us = LOOPBACK_DELAY.as_nanos() / 1_000;
        let reporter = |id| Process::builder(id).with(ECHO, Reporter).build();

        // Injection first (scheduled up front), then the timer and the
        // loopback one step sets and sends, in that order.
        let mut w = SimWorld::start(SimConfig::lan(42), 1, reporter);
        w.inject(at, p0, ECHO, Order::Mark);
        w.inject(before(loopback_us), p0, ECHO, Order::Arm(loopback_us));
        w.inject(before(loopback_us), p0, ECHO, Order::Loop);
        assert!(w.run_to_quiescence(Time::from_secs(1)));
        assert_eq!(ran(&w), ["inject", "fire", "net"]);

        // The loopback first, then a timer set later for the same instant,
        // then an injection scheduled once both wait.
        let mut w = SimWorld::start(SimConfig::lan(42), 1, reporter);
        w.inject(before(loopback_us), p0, ECHO, Order::Loop);
        w.inject(
            before(loopback_us / 2),
            p0,
            ECHO,
            Order::Arm(loopback_us / 2),
        );
        w.run_until(before(1));
        w.inject(at, p0, ECHO, Order::Mark);
        assert!(w.run_to_quiescence(Time::from_secs(1)));
        assert_eq!(ran(&w), ["net", "fire", "inject"]);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut w = world(4, seed);
            for i in 0..10 {
                w.inject(
                    Time::from_millis(i),
                    ProcessId::new((i % 4) as u32),
                    ECHO,
                    Ev::Hello(i as u32),
                );
            }
            assert!(w.run_to_quiescence(Time::from_secs(1)));
            outputs(&w)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8)); // different seed ⇒ different delays
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let mut w = world(3, 2);
        w.apply_schedule(&Schedule::new().crash(Time::from_millis(1), ProcessId::new(2)));
        w.inject(Time::from_millis(2), ProcessId::new(0), ECHO, Ev::Hello(1));
        assert!(w.run_to_quiescence(Time::from_secs(1)));
        assert_eq!(delivered(&w, 3)[2], Vec::<u32>::new());
        assert!(!w.alive_flags()[2]);
        assert_eq!(w.metrics().dropped_crash(), 1);
    }

    #[test]
    fn partition_blocks_and_heals() {
        let p = |i| ProcessId::new(i);
        let mut w = world(3, 3);
        w.apply_schedule(
            &Schedule::new().partition(Time::ZERO, vec![vec![p(0)], vec![p(1), p(2)]]),
        );
        w.inject(Time::from_millis(1), p(1), ECHO, Ev::Hello(5));
        assert!(w.run_to_quiescence(Time::from_secs(1)));
        let seqs = delivered(&w, 3);
        assert_eq!(seqs[0], Vec::<u32>::new());
        assert_eq!(seqs[1], vec![5]);
        assert_eq!(w.metrics().dropped_partition(), 1);
    }

    #[test]
    fn loss_burst_drops_messages() {
        let mut w = world(2, 4);
        w.apply_schedule(&Schedule::new().loss_burst(Time::ZERO, TimeDelta::from_secs(10), 1.0));
        w.inject(Time::from_millis(1), ProcessId::new(0), ECHO, Ev::Hello(9));
        assert!(w.run_to_quiescence(Time::from_secs(1)));
        // Self-send still arrives (loopback is never lost); peer send dropped.
        assert_eq!(w.metrics().dropped_loss(), 1);
        let seqs = delivered(&w, 2);
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
            w.inject(Time::ZERO, ProcessId::new(0), ECHO, Ev::Hello(1));
            assert!(w.run_to_quiescence(Time::from_secs(2)));
            first_delivery_at(&w, ProcessId::new(1))
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
        w.inject(Time::from_millis(2), p(0), ECHO, Ev::Hello(1));
        assert!(w.run_to_quiescence(Time::from_secs(1)));
        assert!(!w.alive_flags()[2], "scheduled crash applied");
        assert_eq!(w.metrics().dropped_crash(), 1);
    }

    #[test]
    fn region_partition_splits_along_topology() {
        let p = |i| ProcessId::new(i);
        let cfg = SimConfig::lan(8).with_topology(crate::Topology::wan_2dc());
        let mut w = world_on(cfg, 4);
        let s = crate::Schedule::new().partition_regions(Time::ZERO);
        assert!(w.apply_schedule(&s).is_empty());
        w.inject(Time::from_millis(1), p(0), ECHO, Ev::Hello(3));
        assert!(w.run_to_quiescence(Time::from_secs(1)));
        let seqs = delivered(&w, 4);
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
            w.inject(Time::from_millis(1), p(0), ECHO, Ev::Hello(1));
            assert!(w.run_to_quiescence(Time::from_secs(1)));
            first_delivery_at(&w, p(1))
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
        let mut w = world_on(cfg, 2);
        w.inject(Time::ZERO, p(0), ECHO, Ev::Hello(1));
        assert!(w.run_to_quiescence(Time::from_secs(5)));
        let at = first_delivery_at(&w, p(1));
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

    fn forwarders(config: SimConfig, n: u32) -> SimWorld<Num> {
        SimWorld::start(config, n as usize, move |id| {
            gcs_kernel::Process::builder(id)
                .with(FWD, Forwarder { n })
                .build()
        })
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
                let mut w = forwarders(SimConfig::lan(seed), 4);
                for (p, t, v) in &injections {
                    w.inject(Time::from_millis(*t), ProcessId::new(*p), FWD, Num(*v));
                }
                prop_assert!(w.run_to_quiescence(Time::from_secs(60)));
                Ok((
                    super::tests::outputs(&w),
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
            let mut w = forwarders(SimConfig::lan(1), 3);
            for (p, t, v) in &injections {
                w.inject(Time::from_millis(*t), ProcessId::new(*p), FWD, Num(*v));
            }
            prop_assert!(w.run_to_quiescence(Time::from_secs(60)));
            let outputs = super::tests::outputs(&w);
            prop_assert_eq!(outputs.len(), injections.len());
            let mut last = Time::ZERO;
            for (time, _, _) in outputs {
                prop_assert!(time >= last, "time went backwards");
                last = time;
            }
        }
    }
}

//! The [`Group`] façade and its [`GroupBuilder`]: one coherent entry point
//! composing stack choice × backend × topology × schedule × seed into one
//! [`Harness`] behind a type-erased handle.

use std::any::Any;

use gcs_core::{GroupSim, MessageClass, NewArchDriver, StackConfig};
use gcs_kernel::{PayloadRef, ProcessId, SharedArena, Time};
use gcs_live::{LiveConfig, WireMode};
use gcs_sim::{
    Capabilities, GroupTransport, Harness, Metrics, Observation, Schedule, SimConfig, SimWorld,
    StackDriver, StackKind, Topology,
};
use gcs_traditional::{IsisConfig, IsisDriver, IsisSim, TokenConfig, TokenDriver, TokenSim};

/// Which execution backend hosts a group.
///
/// Every knob of [`GroupBuilder`] and every method of [`GroupTransport`]
/// means the same thing on both backends; what changes is *how* the
/// protocol stacks execute and what guarantees observation carries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Discrete-event simulation: one thread, virtual time, deterministic —
    /// two builds with equal parameters and seed are bit-identical.
    #[default]
    Sim,
    /// The live runtime (`gcs-live`): every member is an OS thread, timers
    /// are wall-clock deadlines, frames cross channels or loopback TCP.
    /// `Time` is real nanoseconds since the group started, and runs are
    /// **not** deterministic — assert bounds, not fingerprints.
    Live,
}

/// A group running one of the three stacks on one of the two backends
/// behind the unified [`GroupTransport`] surface.
///
/// Build one with [`Group::builder`]:
///
/// ```
/// use gcs_api::{Group, GroupTransport, StackKind};
/// use gcs_kernel::{ProcessId, Time};
///
/// let mut group = Group::builder()
///     .members(3)
///     .stack(StackKind::NewArch)
///     .seed(42)
///     .build();
/// group.abcast_at(Time::from_millis(1), ProcessId::new(0), b"m1".to_vec());
/// group.run_until(Time::from_millis(500));
/// let seqs = group.adelivered_payloads();
/// assert_eq!(seqs[0], vec![b"m1".to_vec()]);
/// assert_eq!(seqs[0], seqs[1]);
/// ```
///
/// A `Group` is a thin handle over one [`Harness`] with the stack and
/// backend types erased. The typed harness — and through its
/// [`trace`](Harness::trace) the stack-specific observers
/// (`gcs_traditional::isis::{blocked_windows, kill_and_rejoin_times}`) —
/// stays reachable for simulated groups through
/// [`as_new_arch`](Self::as_new_arch) / [`as_isis`](Self::as_isis) /
/// [`as_token`](Self::as_token).
pub struct Group {
    inner: Box<dyn Erased>,
    backend: Backend,
}

/// A harness of any stack on any backend, downcastable to its type.
trait Erased: GroupTransport + Any {}
impl<T: GroupTransport + Any> Erased for T {}

/// Composes one group: member/joiner counts, stack and backend choice,
/// topology, scripted schedule, per-stack configuration, seed.
///
/// Every knob has a sensible default (3 members, no joiners, the new
/// architecture on the simulator, channel wire, a flat LAN, empty schedule,
/// [`StackConfig::default`], baseline timeouts derived from the topology,
/// unbounded abcast queues, seed 0), so the minimal group is
/// `Group::builder().build()`. Each knob is set in exactly one place: the
/// new architecture's own options (timeouts, the conflict relation, …) are
/// fields of the [`StackConfig`] passed to
/// [`stack_config`](Self::stack_config).
#[derive(Clone, Debug)]
pub struct GroupBuilder {
    members: usize,
    joiners: usize,
    stack: StackKind,
    backend: Backend,
    wire: WireMode,
    topology: Topology,
    schedule: Schedule,
    seed: u64,
    config: StackConfig,
    /// `None` = derive a timeout profile from the topology at build time.
    isis: Option<IsisConfig>,
    /// `None` = derive a timeout profile from the topology at build time.
    token: Option<TokenConfig>,
    /// Pending-queue bound installed on the built group (`None` = unbounded).
    capacity: Option<usize>,
}

impl Default for GroupBuilder {
    fn default() -> Self {
        GroupBuilder {
            members: 3,
            joiners: 0,
            stack: StackKind::NewArch,
            backend: Backend::Sim,
            wire: WireMode::Channel,
            topology: Topology::lan(),
            schedule: Schedule::new(),
            seed: 0,
            config: StackConfig::default(),
            isis: None,
            token: None,
            capacity: None,
        }
    }
}

impl GroupBuilder {
    /// Number of founding members.
    pub fn members(mut self, n: usize) -> Self {
        self.members = n;
        self
    }

    /// Number of processes started outside the group (activate them with
    /// [`GroupTransport::join_at`] or a schedule `Join` step).
    pub fn joiners(mut self, joiners: usize) -> Self {
        self.joiners = joiners;
        self
    }

    /// Which protocol stack to run (default: the new architecture).
    pub fn stack(mut self, stack: StackKind) -> Self {
        self.stack = stack;
        self
    }

    /// Which execution backend hosts the group (default: the deterministic
    /// simulator). With [`Backend::Live`] the same stack runs on OS threads
    /// under wall-clock time — see [`Backend`] for the semantic contract.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// How frames physically move between live members (default: in-process
    /// channels; [`WireMode::Tcp`] runs one loopback-TCP stream per member
    /// through the `gcs_net` frame codec). Ignored by [`Backend::Sim`].
    pub fn wire(mut self, wire: WireMode) -> Self {
        self.wire = wire;
        self
    }

    /// The network topology (default: a flat loss-free LAN). Use the
    /// [`Topology`] presets — `Topology::wan_3region()`,
    /// `Topology::wan_2dc()`, `Topology::lossy()` — or a custom matrix.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// A scripted fault/membership [`Schedule`], applied at build time.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// The simulation seed (two builds with equal parameters and equal seed
    /// are bit-identical).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Per-process configuration of the new-architecture stack (ignored by
    /// the baselines).
    pub fn stack_config(mut self, config: StackConfig) -> Self {
        self.config = config;
        self
    }

    /// Bounds each sender's pending abcast queue: `try_abcast_*` calls
    /// refuse with [`Backpressure`](crate::Backpressure) once the sender's
    /// backlog reaches `cap`. Unconditional `abcast_*` calls ignore the
    /// bound (they only feed the high-water statistic).
    pub fn abcast_capacity(mut self, cap: usize) -> Self {
        self.capacity = Some(cap);
        self
    }

    /// Per-process configuration of the Isis baseline (ignored by the other
    /// stacks). When not set, the builder derives a timeout profile from the
    /// topology's RTT bound ([`IsisConfig::for_topology`]) — on a LAN that
    /// profile equals [`IsisConfig::default`], on WAN presets the
    /// failure-detection timeout stretches so distance is not mistaken for
    /// death.
    pub fn isis_config(mut self, config: IsisConfig) -> Self {
        self.isis = Some(config);
        self
    }

    /// Per-process configuration of the token baseline (ignored by the
    /// other stacks). When not set, the builder derives a timeout profile
    /// from the topology's RTT bound and the ring size
    /// ([`TokenConfig::for_topology`]).
    pub fn token_config(mut self, config: TokenConfig) -> Self {
        self.token = Some(config);
        self
    }

    /// Builds the group: starts the harness of the selected stack on the
    /// selected backend (deriving baseline timeout profiles from the
    /// topology where not explicitly configured), installs the queue bound
    /// and applies the scripted schedule — in that order, before any
    /// workload call can reach the group.
    ///
    /// On [`Backend::Live`] the clock starts running at this call — a
    /// schedule step at 20 ms fires 20 ms of wall time after `build`
    /// returns the group.
    pub fn build(mut self) -> Group {
        match self.stack {
            StackKind::NewArch => {
                let config = std::mem::take(&mut self.config);
                self.build_with::<NewArchDriver>(config)
            }
            StackKind::Isis => {
                let config = self
                    .isis
                    .unwrap_or_else(|| IsisConfig::for_topology(&self.topology));
                self.build_with::<IsisDriver>(config)
            }
            StackKind::Token => {
                let config = self.token.unwrap_or_else(|| {
                    TokenConfig::for_topology(&self.topology, self.members + self.joiners)
                });
                self.build_with::<TokenDriver>(config)
            }
        }
    }

    fn build_with<S: StackDriver>(self, config: S::Config) -> Group {
        let inner: Box<dyn Erased> = match self.backend {
            Backend::Sim => {
                let sim = SimConfig::lan(self.seed).with_topology(self.topology);
                Box::new(Harness::<S, SimWorld<S::Event>>::start(
                    self.members,
                    self.joiners,
                    config,
                    sim,
                ))
            }
            Backend::Live => {
                let live = LiveConfig::new(self.members)
                    .with_joiners(self.joiners)
                    .with_seed(self.seed)
                    .with_topology(self.topology)
                    .with_wire(self.wire);
                Box::new(gcs_live::start::<S>(config, live))
            }
        };
        let mut group = Group {
            inner,
            backend: self.backend,
        };
        if self.capacity.is_some() {
            group.set_abcast_capacity(self.capacity);
        }
        if !self.schedule.is_empty() {
            group.apply_schedule(&self.schedule);
        }
        group
    }
}

impl Group {
    /// Starts composing a group (see [`GroupBuilder`]).
    pub fn builder() -> GroupBuilder {
        GroupBuilder::default()
    }

    fn downcast<T: Any>(&self) -> Option<&T> {
        let any: &dyn Any = &*self.inner;
        any.downcast_ref()
    }

    /// The simulated new-architecture harness, when this group is one.
    pub fn as_new_arch(&self) -> Option<&GroupSim> {
        self.downcast()
    }

    /// The simulated Isis harness, when this group is one.
    pub fn as_isis(&self) -> Option<&IsisSim> {
        self.downcast()
    }

    /// The simulated token-ring harness, when this group is one.
    pub fn as_token(&self) -> Option<&TokenSim> {
        self.downcast()
    }

    /// The group itself, when it runs on [`Backend::Live`] (whatever its
    /// stack): a marker for code that must only run against real threads
    /// and a wall clock.
    pub fn as_live(&self) -> Option<&dyn GroupTransport> {
        (self.backend == Backend::Live).then_some(&*self.inner as &dyn GroupTransport)
    }
}

/// The required core, forwarded to the erased harness; every provided
/// method of the trait then works on a `Group` unchanged.
impl GroupTransport for Group {
    fn stack(&self) -> StackKind {
        self.inner.stack()
    }

    fn process_count(&self) -> usize {
        self.inner.process_count()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn conflicts(&self, a: MessageClass, b: MessageClass) -> bool {
        self.inner.conflicts(a, b)
    }

    fn abcast_ref_at(&mut self, t: Time, p: ProcessId, payload: PayloadRef) {
        self.inner.abcast_ref_at(t, p, payload)
    }

    fn gbcast_ref_at(&mut self, t: Time, p: ProcessId, class: MessageClass, payload: PayloadRef) {
        self.inner.gbcast_ref_at(t, p, class, payload)
    }

    fn rbcast_ref_at(&mut self, t: Time, p: ProcessId, payload: PayloadRef) {
        self.inner.rbcast_ref_at(t, p, payload)
    }

    fn set_abcast_capacity(&mut self, cap: Option<usize>) {
        self.inner.set_abcast_capacity(cap)
    }

    fn abcast_capacity(&self) -> Option<usize> {
        self.inner.abcast_capacity()
    }

    fn queue_depth(&self, p: ProcessId) -> usize {
        self.inner.queue_depth(p)
    }

    fn queue_high_water(&self) -> usize {
        self.inner.queue_high_water()
    }

    fn apply_schedule(&mut self, schedule: &Schedule) {
        self.inner.apply_schedule(schedule)
    }

    fn now(&self) -> Time {
        self.inner.now()
    }

    fn run_until(&mut self, t: Time) {
        self.inner.run_until(t)
    }

    fn run_to_quiescence(&mut self, limit: Time) -> bool {
        self.inner.run_to_quiescence(limit)
    }

    fn arena(&self) -> &SharedArena {
        self.inner.arena()
    }

    fn metrics(&self) -> &Metrics {
        self.inner.metrics()
    }

    fn events_executed(&self) -> u64 {
        self.inner.events_executed()
    }

    fn alive_flags(&self) -> Vec<bool> {
        self.inner.alive_flags()
    }

    fn delivery_count(&self) -> u64 {
        self.inner.delivery_count()
    }

    fn observe(&self, f: &mut dyn FnMut(Time, ProcessId, Observation<'_>)) {
        self.inner.observe(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn builder_defaults_build_a_working_new_arch_group() {
        let mut g = Group::builder().seed(1).build();
        assert_eq!(g.stack(), StackKind::NewArch);
        assert_eq!(g.process_count(), 3);
        assert!(g.supports_gbcast() && g.supports_rbcast() && g.supports_removal());
        g.abcast_at(Time::from_millis(1), p(0), b"a".to_vec());
        g.run_until(Time::from_millis(500));
        assert_eq!(g.adelivered_payloads(), vec![vec![b"a".to_vec()]; 3]);
    }

    #[test]
    fn builder_matches_the_direct_constructors_bit_for_bit() {
        // The façade must be a pure re-packaging: same seed, same events.
        let mut direct = GroupSim::new(4, StackConfig::default(), 9);
        let mut built = Group::builder().members(4).seed(9).build();
        for i in 0..6u32 {
            let t = Time::from_millis(1 + i as u64);
            direct.abcast_at(t, p(i % 4), vec![i as u8]);
            built.abcast_at(t, p(i % 4), vec![i as u8]);
        }
        direct.run_until(Time::from_secs(1));
        built.run_until(Time::from_secs(1));
        assert_eq!(direct.adelivered_payloads(), built.adelivered_payloads());
        assert_eq!(direct.events_executed(), built.events_executed());
        assert_eq!(direct.metrics().total_sent(), built.metrics().total_sent());
    }

    #[test]
    fn all_three_stacks_order_the_same_stream() {
        for kind in StackKind::ALL {
            let mut g = Group::builder().members(3).stack(kind).seed(2).build();
            assert_eq!(g.stack(), kind);
            for i in 0..6u32 {
                g.abcast_at(Time::from_millis(1 + i as u64), p(i % 3), vec![i as u8]);
            }
            g.run_until(Time::from_secs(2));
            let seqs = g.adelivered_payloads();
            for (i, s) in seqs.iter().enumerate() {
                assert_eq!(s.len(), 6, "{}: p{i} delivered all", kind.name());
            }
            assert_eq!(seqs[0], seqs[1], "{}", kind.name());
            assert_eq!(seqs[1], seqs[2], "{}", kind.name());
        }
    }

    #[test]
    fn schedule_is_applied_at_build_time() {
        let schedule = Schedule::new()
            .join(Time::from_millis(20), p(3), p(1))
            .remove(Time::from_millis(200), p(0), p(2));
        let mut g = Group::builder()
            .members(3)
            .joiners(1)
            .schedule(schedule)
            .seed(13)
            .build();
        g.run_until(Time::from_secs(2));
        let views = GroupTransport::views(&g);
        for i in [0usize, 1, 3] {
            let last = views[i].last().unwrap_or_else(|| panic!("p{i} saw a view"));
            assert!(last.contains(p(3)), "p{i}: joiner in final view");
            assert!(!last.contains(p(2)), "p{i}: removed member gone");
        }
    }

    #[test]
    #[should_panic(expected = "supports_gbcast")]
    fn gbcast_on_a_baseline_panics_with_the_capability_hint() {
        let mut g = Group::builder().stack(StackKind::Isis).build();
        assert!(!g.supports_gbcast());
        g.gbcast_at(Time::from_millis(1), p(0), MessageClass(0), b"x".to_vec());
    }

    #[test]
    fn wan_profiles_keep_baselines_stable() {
        use gcs_sim::Topology;
        // With default LAN timeouts both baselines mistake WAN latency for
        // failure and thrash through view changes; the derived profiles keep
        // the full membership intact through a steady WAN stream.
        for kind in [StackKind::Isis, StackKind::Token] {
            let mut g = Group::builder()
                .members(6)
                .stack(kind)
                .topology(Topology::wan_3region())
                .seed(5)
                .build();
            for i in 0..6u32 {
                g.abcast_at(
                    Time::from_millis(1 + 20 * i as u64),
                    p(i % 6),
                    vec![i as u8],
                );
            }
            g.run_until(Time::from_secs(8));
            let seqs = g.adelivered_payloads();
            for (i, s) in seqs.iter().enumerate() {
                assert_eq!(
                    s.len(),
                    6,
                    "{}: p{i} delivered all of {seqs:?}",
                    kind.name()
                );
            }
            // Nobody was expelled: any installed view still has 6 members.
            for (i, vs) in GroupTransport::views(&g).iter().enumerate() {
                if let Some(last) = vs.last() {
                    assert_eq!(last.len(), 6, "{}: p{i} kept the full view", kind.name());
                }
            }
        }
    }

    #[test]
    fn bounded_queue_refuses_with_backpressure_then_reopens() {
        let mut g = Group::builder()
            .members(3)
            .seed(6)
            .abcast_capacity(2)
            .build();
        assert_eq!(g.abcast_capacity(), Some(2));
        // Offer without letting the sim drain: the third offer must refuse.
        assert!(g
            .try_abcast_at(Time::from_millis(1), p(0), b"a".to_vec())
            .is_ok());
        assert!(g
            .try_abcast_at(Time::from_millis(1), p(0), b"b".to_vec())
            .is_ok());
        let err = g
            .try_abcast_at(Time::from_millis(1), p(0), b"c".to_vec())
            .expect_err("queue at capacity");
        assert_eq!(err.limit, 2);
        assert!(err.depth >= 2, "{err}");
        assert!(g.queue_high_water() <= 2, "accepted backlog stays bounded");
        // Draining the queue reopens it.
        g.run_until(Time::from_millis(500));
        assert_eq!(g.queue_depth(p(0)), 0);
        assert!(g
            .try_abcast_at(Time::from_millis(501), p(0), b"d".to_vec())
            .is_ok());
        g.run_until(Time::from_secs(1));
        assert_eq!(g.adelivered_payloads()[0].len(), 3, "refused op was shed");
    }

    /// The `StackDriver` side of the harness contract (`gcs_sim::harness`
    /// module docs), checked the same way for every stack on the simulator.
    fn driver_conformance<S: StackDriver>(config: impl Fn() -> S::Config) {
        use gcs_kernel::Event;
        type Sim<S> = Harness<S, SimWorld<<S as StackDriver>::Event>>;
        let tag = S::KIND.name();
        let ms = Time::from_millis;

        // An absent encoder *is* the capability marker reading false.
        let g = Sim::<S>::new(3, config(), 1);
        assert_eq!(g.stack(), S::KIND);
        let probe = PayloadRef::EMPTY;
        assert_eq!(
            g.supports_gbcast(),
            S::gbcast(MessageClass(0), probe).is_some(),
            "{tag}"
        );
        assert_eq!(g.supports_rbcast(), S::rbcast(probe).is_some(), "{tag}");
        assert_eq!(g.supports_removal(), S::remove(p(0)).is_some(), "{tag}");

        // Every delivery-shaped output of a 3-member 10-op run projects to
        // exactly one `Observation::Deliver`.
        let mut g = Sim::<S>::new(3, config(), 2);
        for i in 0..10u32 {
            g.abcast_at(ms(1 + i as u64), p(i % 3), vec![i as u8]);
        }
        g.run_until(Time::from_secs(2));
        let shaped = g.trace().entries().iter();
        let shaped = shaped.filter(|e| e.event.kind() == "out/deliver").count();
        let mut projected = 0;
        g.observe(&mut |_, _, o| {
            projected += usize::from(matches!(o, Observation::Deliver { .. }))
        });
        assert_eq!((shaped, projected), (30, 30), "{tag}");
        assert_eq!(g.delivery_trace().len(), 30, "{tag}");

        // Refuse-before-intern: the capacity check runs before the payload
        // is built, so a refusal leaves no arena slot behind.
        let mut g = Sim::<S>::new(3, config(), 11);
        g.set_abcast_capacity(Some(1));
        g.try_abcast_build_at(ms(1), p(0), &mut |buf| buf.extend_from_slice(b"accepted"))
            .expect("first offer fits");
        let live_before = g.arena().live();
        g.try_abcast_build_at(ms(1), p(0), &mut |buf| buf.extend_from_slice(b"refused"))
            .expect_err("queue at capacity");
        assert_eq!(
            g.arena().live(),
            live_before,
            "{tag}: refusal leaked a slot"
        );

        // Join-before-inject is the caller's business: an operation at a
        // process outside the group is accepted (and counted), nobody
        // delivers it while its sender is outside, and it is broadcast once
        // the sender has joined.
        let mut g = Sim::<S>::with_joiners(3, 1, config(), 5);
        g.abcast_at(ms(5), p(3), b"early".to_vec());
        g.abcast_at(ms(6), p(0), b"m".to_vec());
        g.run_until(ms(300));
        let mut expected = vec![vec![b"m".to_vec()]; 3];
        expected.push(Vec::new());
        assert_eq!(g.adelivered_payloads(), expected, "{tag}: before the join");
        g.join_at(ms(310), p(3), p(0));
        g.run_until(ms(1500));
        assert!(
            g.views()[3].last().is_some_and(|v| v.contains(p(3))),
            "{tag}"
        );
        for (i, seq) in g.adelivered_payloads().iter().enumerate() {
            let kept = seq.contains(&b"early".to_vec());
            assert!(kept, "{tag}: p{i} after the join");
        }
    }

    #[test]
    fn every_driver_honours_the_stack_driver_contract() {
        driver_conformance::<NewArchDriver>(StackConfig::default);
        driver_conformance::<IsisDriver>(IsisConfig::default);
        driver_conformance::<TokenDriver>(TokenConfig::default);
    }

    /// The ledger balances per primitive: deliveries of generic broadcasts
    /// drain generic offers, not room for atomic ones. (Before the ledger
    /// was unified it counted abcast offers only but every output as
    /// drained, so after K generic deliveries a capacity-c group accepted
    /// K + c undrained abcasts.)
    #[test]
    fn generic_deliveries_do_not_open_the_abcast_queue() {
        const CAPACITY: usize = 4;
        for backend in [Backend::Sim, Backend::Live] {
            let mut g = Group::builder()
                .members(3)
                .backend(backend)
                .abcast_capacity(CAPACITY)
                .seed(21)
                .build();
            for i in 0..50u32 {
                let class = MessageClass::RBCAST;
                g.gbcast_at(
                    Time::from_millis(1 + i as u64),
                    p(i % 3),
                    class,
                    vec![i as u8],
                );
            }
            let deadline = Time::from_secs(20);
            while g.delivery_trace().len() < 150 && g.now() < deadline {
                let next = g.now() + gcs_kernel::TimeDelta::from_millis(5);
                g.run_until(next);
            }
            assert_eq!(
                g.delivery_trace().len(),
                150,
                "{backend:?}: gbcasts delivered"
            );
            // One instant, far enough ahead that no offer is delivered
            // (live) before the last one is made.
            let at = g.now() + gcs_kernel::TimeDelta::from_millis(200);
            for i in 0..CAPACITY {
                g.try_abcast_at(at, p(0), vec![i as u8])
                    .unwrap_or_else(|e| panic!("{backend:?}: offer {i} fits: {e}"));
            }
            let refused = g.try_abcast_at(at, p(0), b"one too many".to_vec());
            let err = refused.expect_err("the queue is at capacity");
            assert_eq!((err.depth, err.limit), (CAPACITY, CAPACITY), "{backend:?}");
        }
    }

    #[test]
    fn baseline_views_surface_through_the_neutral_type() {
        let mut g = Group::builder()
            .stack(StackKind::Token)
            .members(3)
            .seed(3)
            .build();
        g.crash_at(Time::from_millis(5), p(0));
        g.run_until(Time::from_secs(1));
        let views = GroupTransport::views(&g);
        let last = views[1].last().expect("reformation ring");
        assert_eq!(last.members, vec![p(1), p(2)]);
        assert!(g.as_token().is_some() && g.as_isis().is_none());
    }
}

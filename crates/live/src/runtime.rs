//! The live runtime: one OS thread per group member, one timer thread per
//! group, real wall-clock deadlines.
//!
//! Each member thread owns its [`Process`] outright (the kernel process is
//! deliberately not `Send`-shareable — it is built *inside* the thread from
//! a shared `Send + Sync` constructor closure) and works through an `mpsc`
//! inbox — bursts of protocol frames, single [`Input`]s (harness
//! injections, timer fires), crash and stop signals — in cycles of
//! **drain → group → flush**. Every frame of a burst and every single input
//! is one [`Process::step_into`]:
//!
//! 1. **Drain.** Block for one inbox message, dispatch it, and keep
//!    dispatching whatever else is *already* in the inbox (`try_recv`,
//!    never a wait) until it is empty or [`DRAIN_BUDGET`] dispatches are
//!    spent.
//! 2. **Group.** After every dispatch its effects move into the member's
//!    `Outbox`: sends and casts appended to their destination's list (so
//!    each destination sees emission order across dispatches), timers as
//!    absolute deadlines, outputs with their time.
//! 3. **Flush.** Once per drain, `Shared::flush` ships each destination's
//!    list as one burst through the emulated network — directly into the
//!    inbox in channel mode, as one framed write over a loopback TCP stream
//!    in TCP mode, or onto the wheel when the link model delays it — and
//!    records the drain's steps, frame fates and outputs in the member's
//!    own ledger, locked once. No lock is held while a step runs.
//!
//! A member that wakes to an inbox of one message does exactly what a
//! frame-at-a-time loop would; under load the cost of crossing the fabric
//! is paid per burst instead of per frame, and the packing grows with the
//! backlog on its own. A `Crash` or `Stop` met mid-drain ends the drain
//! there: what the dispatches *before* it produced is flushed (the effects
//! of a finished dispatch always leave the member), nothing behind it in
//! the inbox is looked at.
//!
//! **Each fact has one writer.** A crash is a place in the inbox: a fault
//! step only queues `Msg::Crash`, and the member marks itself dead on
//! taking it. A panic is a crash too, raised again when the runtime drops.
//! What a member produces is in its own ledger; readers combine them.
//!
//! The timer thread services the group's [`TimerWheel`]: protocol timers,
//! bursts parked by emulated link delay, and scheduled fault actions all
//! come due there. Firing a timer on a process that already cancelled it is
//! a kernel-level no-op, and a fire for a member that exited fails at its
//! closed inbox like an injection does, which is what makes a *global* wheel
//! safe: the wheel may hold stale entries for crashed members or cancelled
//! timers without corrupting anyone.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;

use gcs_kernel::{ComponentId, Effects, Event, Input, Process, ProcessId, Time};
use gcs_net::TcpLink;
use gcs_sim::{Metrics, Runtime, Schedule, ScheduleAction};

use crate::fabric::{self, record_arrival, Due, Msg, Outbox, Shared};
use crate::LiveConfig;

/// Dispatches one drain may make before it must flush. A bound, not a
/// tuning knob: it only matters to a member whose inbox refills as fast as
/// it empties, and there it caps how long the member's own output — acks
/// the others wait for, deliveries an observer polls for — can sit in the
/// outbox. Large enough that a backlog packs well (the packing saturates
/// long before), small enough that a flush is never more than a fraction of
/// a millisecond of dispatching away.
const DRAIN_BUDGET: usize = 256;

/// How frames physically move between member threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WireMode {
    /// Directly between inboxes (in-process channels). The default.
    #[default]
    Channel,
    /// Over one loopback-TCP stream per member: frames are encoded,
    /// segmented, and reassembled by the real codec; event bodies travel as
    /// in-process handles (see `gcs_net::link` docs for the honest
    /// boundary of this mode).
    Tcp,
}

/// A running group of member threads plus their timer thread: the live
/// [`Runtime`]. Dropping it stops and joins every thread, then raises a
/// member's panic again.
pub struct LiveRuntime<E: Event + Send> {
    shared: Arc<Shared<E>>,
    handles: Vec<JoinHandle<()>>,
    /// The members' metrics merged, refreshed by the run methods so
    /// `metrics()` can hand out a reference like the simulator does.
    metrics_cache: Metrics,
}

impl<E: Event + Send + 'static> Runtime<E> for LiveRuntime<E> {
    type Config = LiveConfig;

    /// Spawns one thread per process (ids dense from zero) and the timer
    /// thread, starting every process at its thread's first instant. The
    /// clock starts here. `config.members`/`joiners` are the caller's
    /// business (see [`start`](crate::start)); the runtime hosts `n`.
    fn start(
        config: LiveConfig,
        n: usize,
        build: impl Fn(ProcessId) -> Process<E> + Send + Sync + 'static,
    ) -> Self {
        let build = Arc::new(build);
        let (shared, receivers, reader_links) = fabric::open(config, n);
        let shared = Arc::new(shared);

        let mut handles = Vec::with_capacity(n + 1 + reader_links.len());

        // Reader pumps (TCP mode only): resolve wire handles back to events
        // and feed the member inbox.
        for (i, link) in reader_links.into_iter().enumerate() {
            let shared = shared.clone();
            handles.push(spawn(format!("live-pump-{i}"), move || {
                pump_loop(link, &shared, i)
            }));
        }

        // Member threads.
        for (i, rx) in receivers.into_iter().enumerate() {
            let me = ProcessId::new(i as u32);
            let (shared, build) = (shared.clone(), build.clone());
            // Built on the thread that will own it; the shared builder (and
            // the config it captured) is released once the last member exists.
            let build = move || build(me);
            handles.push(spawn(format!("live-member-{i}"), move || {
                member_thread(me, build, rx, &shared)
            }));
        }

        let timer = shared.clone();
        handles.push(spawn("live-timer".to_string(), move || timer_loop(&timer)));

        LiveRuntime {
            shared,
            handles,
            metrics_cache: Metrics::default(),
        }
    }

    fn now(&self) -> Time {
        self.shared.clock.now()
    }

    fn inject(&mut self, t: Time, p: ProcessId, component: ComponentId, event: E) {
        let msg = Msg::Step(Input::Inject { component, event });
        if t <= self.now() {
            // Direct inbox send — injections bypass the emulated network.
            let _ = self.shared.senders[p.index()].send(msg);
        } else {
            let due = Due::Frame { to: p, msg };
            self.shared.wheel.schedule_all([(t, due)]);
        }
    }

    /// Fault steps are entered at once when already due and parked on the
    /// timer wheel otherwise.
    fn apply_schedule(&mut self, schedule: &Schedule) -> Vec<(Time, ScheduleAction)> {
        let mut membership = Vec::new();
        for (t, action) in schedule.steps() {
            let (t, action) = (*t, action.clone());
            if !action.is_sim_level() {
                membership.push((t, action));
            } else if t <= self.now() {
                apply_fault(&self.shared, t, action);
            } else {
                self.shared.wheel.schedule_all([(t, Due::Fault(t, action))]);
            }
        }
        membership
    }

    /// Sleeps the caller until the clock reaches `t`; member threads keep
    /// running the whole time.
    fn run_until(&mut self, t: Time) {
        self.shared.clock.sleep_until(t);
        self.metrics_cache = self.shared.metrics();
    }

    /// Waits until every member has crashed (true) or the clock passes
    /// `limit` (false). A live group with running members never quiesces —
    /// its failure detectors keep exchanging heartbeats forever.
    fn run_to_quiescence(&mut self, limit: Time) -> bool {
        let quiet = loop {
            if self.shared.dead.iter().all(|d| d.load(Ordering::Acquire)) {
                // Grace for in-flight wheel entries to drain to nowhere.
                std::thread::sleep(std::time::Duration::from_millis(2));
                break true;
            }
            if self.now() >= limit {
                break false;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        self.metrics_cache = self.shared.metrics();
        quiet
    }

    fn outputs_of(&self, p: ProcessId) -> u64 {
        self.shared.ledgers[p.index()]
            .outputs
            .load(Ordering::Acquire)
    }

    fn outputs_total(&self) -> u64 {
        let ledgers = &self.shared.ledgers;
        ledgers
            .iter()
            .map(|l| l.outputs.load(Ordering::Acquire))
            .sum()
    }

    /// Every ledger locked in index order, for a consistent cut, and no
    /// clone: member threads that flush meanwhile wait for the visit to
    /// end. The members' outputs are merged by time, ties by process index.
    fn visit_outputs(&self, f: &mut dyn FnMut(Time, ProcessId, &E)) {
        let logs: Vec<_> = self.shared.ledgers.iter().map(|l| l.lock()).collect();
        let mut next = vec![0; logs.len()];
        loop {
            let head = |i: usize| logs[i].trace.get(next[i]).map(|(t, _)| (*t, i));
            let Some((time, i)) = (0..logs.len()).filter_map(head).min() else {
                return;
            };
            f(time, ProcessId::new(i as u32), &logs[i].trace[next[i]].1);
            next[i] += 1;
        }
    }

    /// Traffic metrics as of the last run call — between runs the snapshot
    /// lags the member threads by design (`&self` cannot lock a fresh copy
    /// into a reference).
    fn metrics(&self) -> &Metrics {
        &self.metrics_cache
    }

    /// Kernel events dispatched group-wide (every frame of a burst is one).
    fn events_executed(&self) -> u64 {
        self.shared.ledgers.iter().map(|l| l.lock().events).sum()
    }

    fn alive_flags(&self) -> Vec<bool> {
        self.shared
            .dead
            .iter()
            .map(|d| !d.load(Ordering::Acquire))
            .collect()
    }
}

/// Spawns one of the runtime's named threads.
fn spawn(name: String, run: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    let thread = std::thread::Builder::new().name(name);
    thread.spawn(run).expect("spawn a live thread")
}

impl<E: Event + Send> Drop for LiveRuntime<E> {
    /// Stops every member, pump, and timer thread and joins them; then
    /// raises the first member panic, naming the member, or else re-raises
    /// any other thread's panic, unless this thread is already unwinding.
    fn drop(&mut self) {
        self.shared.wheel.shutdown();
        for s in &self.shared.senders {
            let _ = s.send(Msg::Stop);
        }
        if let Some(tcp) = &self.shared.tcp {
            for link in &tcp.reader_shutdown {
                let _ = link.shutdown();
            }
        }
        let joined: Vec<_> = self.handles.drain(..).map(JoinHandle::join).collect();
        if std::thread::panicking() {
            return;
        }
        for (i, ledger) in self.shared.ledgers.iter().enumerate() {
            if let Some(text) = ledger.lock().panic.take() {
                panic!("live member {} panicked: {text}", ProcessId::new(i as u32));
            }
        }
        if let Some(Err(panic)) = joined.into_iter().find(Result::is_err) {
            std::panic::resume_unwind(panic);
        }
    }
}

/// A member's thread: builds its process and runs [`member_loop`]. A
/// crash, a halt or a panic marks the member dead here, on its own thread
/// and nowhere else; a panic's text stays in its ledger.
fn member_thread<E: Event + Send>(
    me: ProcessId,
    build: impl FnOnce() -> Process<E>,
    rx: Receiver<Msg<E>>,
    shared: &Shared<E>,
) {
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| member_loop(me, build(), rx, shared)));
    let crashed = run.unwrap_or_else(|panic| {
        let text = (panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .or_else(|| panic.downcast_ref::<String>().cloned());
        shared.ledgers[me.index()].lock().panic = Some(text.unwrap_or_default());
        true
    });
    if crashed {
        shared.dead[me.index()].store(true, Ordering::Release);
    }
}

/// The life of one member: start the process, then drain → group → flush
/// (see the module docs) until crash, halt or stop. Returns whether the
/// member ended crashed: by `Msg::Crash` or halted by its protocol.
fn member_loop<E: Event + Send>(
    me: ProcessId,
    mut process: Process<E>,
    rx: Receiver<Msg<E>>,
    shared: &Shared<E>,
) -> bool {
    let mut fx = Effects::new();
    let mut out = Outbox::new(shared.senders.len());
    let started = shared.clock.now();
    process.start_into(started, &mut fx);
    let mut halted = out.absorb(me, started, &shared.clock, &mut fx);
    shared.flush(me, &mut out);

    while !halted {
        let mut msg = rx.recv().expect("`shared` holds the inbox's sender");
        let mut ending = None;
        loop {
            let now = shared.clock.now();
            match msg {
                Msg::Net { from, frames } => {
                    out.bursts += 1;
                    out.frames_in += frames.len() as u64;
                    for (component, event) in frames {
                        out.events += 1;
                        let input = Input::Net {
                            from,
                            component,
                            event,
                        };
                        process.step_into(input, now, &mut fx);
                    }
                }
                Msg::Step(input) => {
                    out.events += 1;
                    process.step_into(input, now, &mut fx);
                }
                Msg::Crash => {
                    process.halt(); // the thread IS the process: crash-stop
                    ending = Some(true);
                }
                Msg::Stop => ending = Some(false),
            }
            // The protocol may halt itself (e.g. excluded from the group).
            halted = out.absorb(me, now, &shared.clock, &mut fx);
            if ending.is_some() || halted || out.events >= DRAIN_BUDGET as u64 {
                break;
            }
            let Ok(next) = rx.try_recv() else { break };
            msg = next;
        }
        shared.flush(me, &mut out);
        if let Some(crashed) = ending {
            return crashed;
        }
    }
    true
}

/// The timer thread: pops due work off the wheel until shutdown.
fn timer_loop<E: Event + Send>(shared: &Shared<E>) {
    while let Some(due) = shared.wheel.next_due(&shared.clock) {
        match due {
            Due::Frame { to, msg } => match msg {
                Msg::Net { from, ref frames } => {
                    let count = frames.len();
                    // A burst whose receiver crashed while it was in flight
                    // dies on the wire, frame by frame.
                    let arrived = !shared.is_dead(to) && shared.deliver(to, msg);
                    let mut log = shared.ledgers[from.index()].lock();
                    record_arrival(&mut log.metrics, arrived, count);
                }
                // A step for an exited member is moot.
                step => _ = shared.deliver(to, step),
            },
            Due::Fault(at, action) => apply_fault(shared, at, action),
        }
    }
}

/// Enters fault step `action`, scheduled for `at`, now: a crash takes its
/// place in the member's inbox, anything else goes to the network model.
fn apply_fault<E: Event + Send>(shared: &Shared<E>, at: Time, action: ScheduleAction) {
    if let ScheduleAction::Crash(p) = action {
        // A member that already exited has nothing left to crash.
        let _ = shared.senders[p.index()].send(Msg::Crash);
        return;
    }
    let mut net = shared.net.lock().expect("net lock");
    net.model.apply(at, action, shared.dead.len());
}

/// TCP-mode reader pump: decode wire frames for member `to`, resolve each
/// body handle back to the burst it stands for, and enqueue that — one
/// framed write, one inbox message — on the member's inbox.
fn pump_loop<E: Event + Send>(mut link: TcpLink, shared: &Shared<E>, to: usize) {
    let fabric = shared.tcp.as_ref().expect("tcp fabric in tcp mode");
    loop {
        match link.recv() {
            Ok(Some((_header, body))) => {
                let Ok(key) = body[..].try_into().map(u64::from_be_bytes) else {
                    continue; // not a handle frame; ignore
                };
                let entry = fabric.slab.lock().expect("slab lock").remove(&key);
                if let Some((from, frames)) = entry {
                    if shared.senders[to].send(Msg::Net { from, frames }).is_err() {
                        return; // member exited; stop pumping
                    }
                }
            }
            Ok(None) | Err(_) => return, // stream shut down
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_kernel::{Component, Context, TimeDelta, TimerId};
    use gcs_sim::{LinkModel, Topology};
    use std::time::Duration;

    use crate::WireMode;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// `count` summed over the members' ledgers.
    fn sum<E>(shared: &Shared<E>, count: impl Fn(&fabric::Log<E>) -> u64) -> u64 {
        shared.ledgers.iter().map(|l| count(&l.lock())).sum()
    }

    #[derive(Clone, Debug, PartialEq)]
    enum T {
        /// Injected at p0: send `Tag(n)` to p1, cast `Tag(100 + n)` to p1
        /// and p2, output `Seen(n)`.
        Go(u32),
        Tag(u32),
        Seen(u32),
        /// Set a timer due at once; its fire outputs `Seen(0)`.
        Arm,
    }

    impl Event for T {
        fn kind(&self) -> &'static str {
            match self {
                T::Go(_) => "t/go",
                T::Tag(_) => "t/tag",
                T::Seen(_) => "t/seen",
                T::Arm => "t/arm",
            }
        }
    }

    const TALK: ComponentId = ComponentId::new(0);

    struct Talker;

    impl Component<T> for Talker {
        fn on_event(&mut self, event: T, ctx: &mut Context<'_, T>) {
            match event {
                T::Go(n) => {
                    ctx.send(p(1), T::Tag(n));
                    ctx.send_to_all([p(1), p(2)], T::Tag(100 + n));
                    ctx.output(T::Seen(n));
                }
                T::Tag(n) => ctx.output(T::Seen(n)),
                T::Seen(_) => {}
                T::Arm => {
                    ctx.set_timer(TimeDelta::ZERO);
                }
            }
        }

        fn on_timer(&mut self, _timer: TimerId, ctx: &mut Context<'_, T>) {
            ctx.output(T::Seen(0));
        }
    }

    /// A three-process fabric with no thread running: the test plays the
    /// members itself. `direct` links are below the emulation floor, so a
    /// burst goes straight to the inbox; otherwise (LAN) it is parked on
    /// the wheel.
    struct Bench {
        shared: Arc<Shared<T>>,
        inboxes: Vec<Option<Receiver<Msg<T>>>>,
        readers: Vec<TcpLink>,
    }

    impl Bench {
        fn open(direct: bool, wire: WireMode) -> Self {
            let instant = LinkModel {
                delay_min: TimeDelta::ZERO,
                delay_max: TimeDelta::ZERO,
                drop_prob: 0.0,
                dup_prob: 0.0,
                bandwidth: 0,
            };
            let topology = if direct {
                Topology::uniform("direct", instant)
            } else {
                Topology::lan()
            };
            let config = LiveConfig::new(3).with_topology(topology).with_wire(wire);
            let (shared, inboxes, readers) = fabric::open(config, 3);
            Bench {
                shared: Arc::new(shared),
                inboxes: inboxes.into_iter().map(Some).collect(),
                readers,
            }
        }

        fn shared(&self) -> &Shared<T> {
            &self.shared
        }

        /// Fills `who`'s inbox and runs its member loop on this thread until
        /// it exits (the messages must end in, or contain, a `Stop`/`Crash`).
        fn play(&mut self, who: u32, inbox: Vec<Msg<T>>) {
            for msg in inbox {
                self.shared.senders[who as usize]
                    .send(msg)
                    .expect("inbox open");
            }
            let rx = self.inboxes[who as usize].take().expect("not played yet");
            let build = || Process::builder(p(who)).with(TALK, Talker).build();
            member_thread(p(who), build, rx, &self.shared);
        }

        /// The bursts waiting in `who`'s inbox, as the tags they carry.
        fn bursts_at(&self, who: u32) -> Vec<Vec<u32>> {
            let rx = self.inboxes[who as usize].as_ref().expect("not played yet");
            rx.try_iter()
                .map(|msg| match msg {
                    Msg::Net { from, frames } => {
                        assert_eq!(from, p(0));
                        frames
                            .into_iter()
                            .map(|(component, event)| match event {
                                T::Tag(n) if component == TALK => n,
                                other => panic!("unexpected frame {other:?}"),
                            })
                            .collect()
                    }
                    other => panic!("unexpected inbox message {other:?}"),
                })
                .collect()
        }

        /// Every member's outputs, member by member.
        fn seen(&self) -> Vec<(ProcessId, T)> {
            let ledgers = self.shared().ledgers.iter().enumerate();
            let log = |(i, ledger): (usize, &fabric::Ledger<T>)| {
                let trace = ledger.lock().trace.clone();
                trace.into_iter().map(move |(_, e)| (p(i as u32), e))
            };
            ledgers.flat_map(log).collect()
        }

        /// `(sent, delivered, dropped by loss, by partition, by crash)`.
        fn accounts(&self) -> (u64, u64, u64, u64, u64) {
            let m = self.shared().metrics();
            (
                m.total_sent(),
                m.delivered(),
                m.dropped_loss(),
                m.dropped_partition(),
                m.dropped_crash(),
            )
        }
    }

    fn inject(event: T) -> Input<T> {
        Input::Inject {
            component: TALK,
            event,
        }
    }

    fn go(n: u32) -> Msg<T> {
        Msg::Step(inject(T::Go(n)))
    }

    #[test]
    fn one_drain_is_one_burst_per_destination_in_emission_order() {
        let mut b = Bench::open(true, WireMode::Channel);
        b.play(0, vec![go(1), go(2), go(3), Msg::Stop]);
        // Sends and casts of successive dispatches, interleaved as emitted.
        assert_eq!(b.bursts_at(1), vec![vec![1, 101, 2, 102, 3, 103]]);
        assert_eq!(b.bursts_at(2), vec![vec![101, 102, 103]]);
        let seen: Vec<T> = b.seen().into_iter().map(|(_, e)| e).collect();
        assert_eq!(seen, vec![T::Seen(1), T::Seen(2), T::Seen(3)]);
        assert_eq!(b.shared().ledgers[0].outputs.load(Ordering::Relaxed), 3);
        // Nine protocol messages, whatever they travelled in.
        assert_eq!(b.accounts(), (9, 9, 0, 0, 0));
        assert_eq!(b.shared().metrics().sent_of_kind("t/tag"), 9);
        assert_eq!(sum(b.shared(), |log| log.events), 3);
    }

    #[test]
    fn a_dropped_burst_is_accounted_frame_by_frame() {
        // Partition: p0 alone.
        let mut b = Bench::open(true, WireMode::Channel);
        let partition = ScheduleAction::Partition(vec![vec![p(0)], vec![p(1), p(2)]]);
        apply_fault(&b.shared, Time::ZERO, partition);
        b.play(0, vec![go(1), go(2), go(3), Msg::Stop]);
        assert_eq!(b.accounts(), (9, 0, 0, 9, 0));

        // A loss burst that takes everything.
        let mut b = Bench::open(true, WireMode::Channel);
        let burst = ScheduleAction::LossBurst {
            duration: TimeDelta::from_secs(3_600),
            prob: 1.0,
        };
        apply_fault(&b.shared, Time::ZERO, burst);
        b.play(0, vec![go(1), go(2), go(3), Msg::Stop]);
        assert_eq!(b.accounts(), (9, 0, 9, 0, 0));

        // A destination already dead when the burst is flushed…
        let mut b = Bench::open(true, WireMode::Channel);
        b.shared().dead[2].store(true, Ordering::Release);
        b.play(0, vec![go(1), go(2), go(3), Msg::Stop]);
        assert_eq!(b.accounts(), (9, 6, 0, 0, 3));

        // …and one that dies while the burst is parked on the wheel (LAN
        // delays are emulated): p1's six frames die, p2's three arrive.
        let mut b = Bench::open(false, WireMode::Channel);
        b.play(0, vec![go(1), go(2), go(3), Msg::Stop]);
        assert_eq!(b.accounts(), (9, 0, 0, 0, 0), "both bursts in flight");
        b.shared().dead[1].store(true, Ordering::Release);
        let timer = {
            let shared = b.shared.clone();
            std::thread::spawn(move || timer_loop(&shared))
        };
        let arrived = b.inboxes[2]
            .as_ref()
            .expect("inbox")
            .recv_timeout(Duration::from_secs(10))
            .expect("p2's burst comes off the wheel");
        assert!(matches!(arrived, Msg::Net { frames, .. } if frames.len() == 3));
        // Both bursts were scheduled within LAN delay of each other; give
        // the later one time to come due before the wheel stops.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while b.accounts().4 < 6 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        b.shared().wheel.shutdown();
        timer.join().expect("timer thread");
        assert_eq!(b.accounts(), (9, 3, 0, 0, 6));
    }

    #[test]
    fn a_backlogged_member_flushes_once_per_budget() {
        let mut b = Bench::open(true, WireMode::Channel);
        let mut inbox: Vec<Msg<T>> = (0..3 * DRAIN_BUDGET as u32).map(go).collect();
        inbox.push(Msg::Stop);
        b.play(0, inbox);
        let bursts = b.bursts_at(2);
        assert_eq!(bursts.len(), 3, "one flush per spent budget");
        assert!(bursts.iter().all(|burst| burst.len() == DRAIN_BUDGET));
        let tags: Vec<u32> = bursts.into_iter().flatten().collect();
        assert!(tags
            .iter()
            .copied()
            .eq((0..3 * DRAIN_BUDGET as u32).map(|n| 100 + n)));
        assert_eq!(b.accounts().1, 9 * DRAIN_BUDGET as u64);
    }

    #[test]
    fn a_crash_mid_drain_ships_what_came_before_it_and_nothing_after() {
        let mut b = Bench::open(true, WireMode::Channel);
        b.play(0, vec![go(1), go(2), Msg::Crash, go(3), Msg::Stop]);
        assert!(b.shared().is_dead(p(0)));
        assert_eq!(b.bursts_at(1), vec![vec![1, 101, 2, 102]]);
        assert_eq!(b.bursts_at(2), vec![vec![101, 102]]);
        let seen: Vec<T> = b.seen().into_iter().map(|(_, e)| e).collect();
        assert_eq!(seen, vec![T::Seen(1), T::Seen(2)]);
        assert_eq!(b.accounts(), (6, 6, 0, 0, 0));
    }

    /// A crash is a place in the inbox. Queued at one instant with a timer
    /// fire, in either order, it lets the member dispatch what was queued
    /// before it and nothing after it, and the member's flag — what
    /// `alive_flags` reads — turns only once the member has taken it.
    #[test]
    fn a_crash_and_a_timer_fire_at_one_instant_keep_their_inbox_order() {
        // Timer ids count from zero in every process: a fresh talker's
        // first timer is the one the played member's `Arm` sets.
        let mut fx = Effects::new();
        let mut probe = Process::builder(p(0)).with(TALK, Talker).build();
        probe.step_into(inject(T::Arm), Time::ZERO, &mut fx);
        let timer = fx.timers.drain().next().expect("Arm sets a timer").id;

        for fire_first in [true, false] {
            let mut b = Bench::open(true, WireMode::Channel);
            let now = b.shared().clock.now();
            let crash = |b: &Bench| apply_fault(&b.shared, now, ScheduleAction::Crash(p(0)));
            // The timer thread's way in.
            let fire = |b: &Bench| assert!(b.shared.deliver(p(0), Msg::Step(Input::Fire(timer))));
            b.shared.senders[0]
                .send(Msg::Step(inject(T::Arm)))
                .expect("inbox open");
            if fire_first {
                fire(&b);
                crash(&b);
            } else {
                crash(&b);
                fire(&b);
            }
            assert!(!b.shared().is_dead(p(0)), "a queued crash is not taken yet");
            b.play(0, Vec::new());
            assert!(b.shared().is_dead(p(0)));
            let seen: Vec<T> = b.seen().into_iter().map(|(_, e)| e).collect();
            let events = sum(b.shared(), |log| log.events);
            if fire_first {
                assert_eq!((seen, events), (vec![T::Seen(0)], 2));
            } else {
                assert_eq!((seen, events), (vec![], 1), "nothing after the crash");
            }
        }
    }

    #[test]
    fn a_lone_message_is_flushed_while_the_inbox_stays_open() {
        let mut b = Bench::open(true, WireMode::Channel);
        let wake = b.shared.senders[0].clone();
        let rx1 = b.inboxes[1].take().expect("inbox");
        std::thread::scope(|scope| {
            // p0 is given one message and no `Stop`: after dispatching it
            // the member blocks on its inbox — with the burst already out.
            let member = scope.spawn(|| b.play(0, vec![go(7)]));
            let burst = rx1.recv_timeout(Duration::from_secs(10));
            assert!(
                matches!(&burst, Ok(Msg::Net { frames, .. }) if frames.len() == 2),
                "{burst:?}"
            );
            wake.send(Msg::Stop).expect("p0 is waiting on its inbox");
            member.join().expect("member thread");
        });
    }

    #[test]
    fn over_tcp_a_burst_is_one_framed_write_and_one_event_per_frame() {
        let mut b = Bench::open(true, WireMode::Tcp);
        b.play(0, vec![go(1), go(2), Msg::Stop]);
        assert_eq!(b.accounts(), (6, 6, 0, 0, 0));
        // Six frames crossed in two framed writes, one per destination.
        let tcp = b.shared().tcp.as_ref().expect("tcp mode");
        assert_eq!(tcp.next_key.load(Ordering::Relaxed), 2);
        assert_eq!(tcp.slab.lock().expect("slab lock").len(), 2);

        // p1's pump turns its write back into one inbox message…
        let pump = {
            let link = b.readers.remove(1);
            let shared = b.shared.clone();
            std::thread::spawn(move || pump_loop(link, &shared, 1))
        };
        let burst = b.inboxes[1]
            .as_ref()
            .expect("inbox")
            .recv_timeout(Duration::from_secs(10))
            .expect("the burst comes off the stream");
        assert!(matches!(&burst, Msg::Net { from, frames } if *from == p(0) && frames.len() == 4));
        // …and p1 dispatches one event per frame of it, in order.
        b.play(1, vec![burst, Msg::Stop]);
        let at_p1: Vec<T> = b
            .seen()
            .into_iter()
            .filter_map(|(who, e)| (who == p(1)).then_some(e))
            .collect();
        assert_eq!(
            at_p1,
            vec![T::Seen(1), T::Seen(101), T::Seen(2), T::Seen(102)]
        );
        assert_eq!(sum(b.shared(), |log| log.events), 2 + 4);
        assert_eq!(sum(b.shared(), |log| log.bursts), 1);
        assert_eq!(sum(b.shared(), |log| log.frames), 4);

        let tcp = b.shared().tcp.as_ref().expect("tcp mode");
        tcp.reader_shutdown[1]
            .shutdown()
            .expect("close p1's stream");
        pump.join().expect("pump thread");
    }

    /// The live path guarded by count, not by wall clock: under a closed
    /// loop the members' inboxes back up and frames travel packed; offered
    /// one op every 2 ms next to nothing is — a burst of two is then two
    /// frames one dispatch emitted for one peer, or two peers' messages that
    /// arrived together, never a frame held back for company
    /// (`a_lone_message_is_flushed_while_the_inbox_stays_open` pins that).
    #[test]
    fn frames_pack_under_load_and_never_wait_for_company() {
        use gcs_core::{NewArchDriver, StackConfig};
        use gcs_kernel::PayloadRef;
        use gcs_sim::StackDriver;

        let n = 3;
        let config = StackConfig::default();
        let mut group = LiveRuntime::start(LiveConfig::new(n), n, move |id| {
            NewArchDriver::build(id, &config, n)
        });
        let packing = |group: &LiveRuntime<_>| {
            let shared: &Shared<_> = &group.shared;
            (sum(shared, |log| log.bursts), sum(shared, |log| log.frames))
        };
        let mut offered = 0u64;
        let offer = |group: &mut LiveRuntime<_>, offered: &mut u64| {
            let (component, event) = NewArchDriver::abcast(PayloadRef::EMPTY);
            group.inject(Time::ZERO, p((*offered % 3) as u32), component, event);
            *offered += 1;
        };
        let settle = |group: &LiveRuntime<_>, offered: u64| {
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            while group.outputs_total() < offered * n as u64 {
                assert!(std::time::Instant::now() < deadline, "group stalled");
                std::thread::sleep(Duration::from_millis(1));
            }
        };

        // Closed loop of 256 for 0.3 s.
        let (bursts_before, frames_before) = packing(&group);
        let until = std::time::Instant::now() + Duration::from_millis(300);
        while std::time::Instant::now() < until {
            if offered - group.outputs_of(p(0)) < 256 {
                offer(&mut group, &mut offered);
            } else {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        let (bursts, frames) = packing(&group);
        let per_burst = (frames - frames_before) as f64 / (bursts - bursts_before) as f64;
        assert!(
            per_burst > 2.0,
            "{per_burst:.2} frames per burst under load"
        );
        settle(&group, offered);

        // One op per 2 ms.
        let (bursts_before, frames_before) = packing(&group);
        for _ in 0..50 {
            offer(&mut group, &mut offered);
            std::thread::sleep(Duration::from_millis(2));
            settle(&group, offered);
        }
        let (bursts, frames) = packing(&group);
        let per_burst = (frames - frames_before) as f64 / (bursts - bursts_before) as f64;
        assert!(
            per_burst < 1.25,
            "{per_burst:.2} frames per burst when idle"
        );
    }
}

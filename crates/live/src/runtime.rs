//! The live runtime: one OS thread per group member, each with its own
//! queue of wall-clock deadlines.
//!
//! Each member thread owns its [`Process`] outright (the kernel process is
//! deliberately not `Send`-shareable — it is built *inside* the thread from
//! a shared `Send + Sync` constructor closure), the emulation of its
//! outgoing links, and its queue: every letter of its `mpsc` inbox — bursts
//! of protocol frames, harness injections, fault steps, crash and stop
//! signals, each stamped with the instant it comes due — and its own timers,
//! in `(due, arrival)` order. It blocks on the inbox until the head of its
//! queue comes due, then works in cycles of **drain → group → flush**. Every
//! frame of a burst and every single input is one [`Process::step_into`]:
//!
//! 1. **Drain.** Dispatch the queue's head while it is due, taking in
//!    whatever has reached the inbox before each dispatch (`try_recv`, never
//!    a wait), until nothing is due or [`DRAIN_BUDGET`] dispatches are spent.
//! 2. **Group.** After every dispatch its effects move out: timers into the
//!    queue as absolute deadlines, and into the member's `Outbox` sends and
//!    casts appended to their destination's list (so each destination sees
//!    emission order across dispatches) and outputs with their time.
//! 3. **Flush.** Once per drain, `Shared::flush` ships each destination's
//!    list as one burst through the emulated network — into the inbox in
//!    channel mode, as one framed write over a loopback TCP stream in TCP
//!    mode, due at once or when its link delay has passed — and records the
//!    drain's steps, frame fates and outputs in the member's own ledger,
//!    locked once. No lock is held while a step runs.
//!
//! A member that wakes to one due message does exactly what a
//! frame-at-a-time loop would; under load the cost of crossing the fabric
//! is paid per burst instead of per frame, and the packing grows with the
//! backlog on its own. A `Crash` or `Stop` met mid-drain ends the drain
//! there: what the dispatches *before* it produced is flushed (the effects
//! of a finished dispatch always leave the member), nothing behind it in
//! the queue is dispatched. A network fault step flushes what came before
//! it, then changes the member's links.
//!
//! **Each fact has one writer.** A crash is a place in the victim's queue:
//! a fault step only sends it `Msg::Crash`, and the member marks itself dead
//! on taking it. A panic is a crash too, raised again when the runtime
//! drops. What a member produces is in its own ledger; readers combine
//! them. An ended member takes in its inbox until the runtime's last
//! `Stop`, sent once every member has ended, and every delayed burst it
//! still holds or is sent dies with it, counted in its own ledger: once a
//! group is stopped, every frame sent has exactly one fate.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gcs_kernel::{ComponentId, Effects, Event, Input, Process, ProcessId, Time};
use gcs_net::TcpLink;
use gcs_sim::{Metrics, Runtime, Schedule, ScheduleAction};

use crate::fabric::{self, record_fate, Letter, Member, Msg, NetState, Outbox, Queue, Shared};
use crate::{LiveConfig, WallClock};

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

/// A running group of member threads (and, over TCP, one reader pump per
/// member): the live [`Runtime`]. Dropping it stops and joins every thread,
/// then raises a member's panic again.
pub struct LiveRuntime<E: Event + Send> {
    shared: Arc<Shared<E>>,
    handles: Vec<JoinHandle<()>>,
    /// The members' metrics merged, refreshed by the run methods so
    /// `metrics()` can hand out a reference like the simulator does.
    metrics_cache: Metrics,
}

impl<E: Event + Send + 'static> Runtime<E> for LiveRuntime<E> {
    type Config = LiveConfig;

    /// Spawns one thread per process (ids dense from zero), starting every
    /// process at its thread's first instant. The clock starts here.
    /// `config.members`/`joiners` are the caller's business (see
    /// [`start`](crate::start)); the runtime hosts `n`.
    fn start(
        config: LiveConfig,
        n: usize,
        build: impl Fn(ProcessId) -> Process<E> + Send + Sync + 'static,
    ) -> Self {
        let build = Arc::new(build);
        let (shared, members, reader_links) = fabric::open(config, n);
        let shared = Arc::new(shared);

        let mut handles = Vec::with_capacity(n + reader_links.len());

        // Member threads.
        for (i, member) in members.into_iter().enumerate() {
            let me = ProcessId::new(i as u32);
            let (shared, build) = (shared.clone(), build.clone());
            // Built on the thread that will own it; the shared builder (and
            // the config it captured) is released once the last member exists.
            let build = move || build(me);
            handles.push(spawn(format!("live-member-{i}"), move || {
                member_thread(me, build, member, &shared)
            }));
        }

        // Reader pumps (TCP mode only): resolve wire handles back to events
        // and feed the member inbox.
        for (i, link) in reader_links.into_iter().enumerate() {
            let shared = shared.clone();
            handles.push(spawn(format!("live-pump-{i}"), move || {
                pump_loop(link, &shared, i)
            }));
        }

        LiveRuntime {
            shared,
            handles,
            metrics_cache: Metrics::default(),
        }
    }

    fn now(&self) -> Time {
        self.shared.clock.now()
    }

    /// A direct inbox send — injections bypass the emulated network — due
    /// at `t`.
    fn inject(&mut self, t: Time, p: ProcessId, component: ComponentId, event: E) {
        let msg = Msg::Step(Input::Inject { component, event });
        let _ = self.shared.senders[p.index()].send((t, msg));
    }

    /// Fault steps go to the members they act on, due at their instant.
    fn apply_schedule(&mut self, schedule: &Schedule) -> Vec<(Time, ScheduleAction)> {
        let mut membership = Vec::new();
        for (t, action) in schedule.steps() {
            if action.is_sim_level() {
                post_fault(&self.shared, *t, action.clone());
            } else {
                membership.push((*t, action.clone()));
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
                break true;
            }
            if self.now() >= limit {
                break false;
            }
            std::thread::sleep(Duration::from_millis(1));
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
    /// Stops every member and pump thread and joins them; then raises the
    /// first member panic, naming the member, or else re-raises any other
    /// thread's panic, unless this thread is already unwinding.
    fn drop(&mut self) {
        let shared = &self.shared;
        // A stop goes the way bursts go, so it comes behind every one sent
        // to its member before it (directly if the stream broke).
        let stop_all = |due| {
            for (i, inbox) in shared.senders.iter().enumerate() {
                let p = ProcessId::new(i as u32);
                if !shared.deliver(p, p, (due, Msg::Stop)) {
                    let _ = inbox.send((due, Msg::Stop));
                }
            }
        };
        // The first ends every member's loop at once. Once all have ended
        // nothing more is sent, and the last, due at the end of time, ends
        // each member's retirement with its ledger complete.
        stop_all(Time::ZERO);
        while !shared.dead.iter().all(|d| d.load(Ordering::Acquire)) {
            std::thread::sleep(Duration::from_micros(100));
        }
        stop_all(Time::MAX);
        let pumps = self.handles.split_off(shared.senders.len());
        let mut joined: Vec<_> = self.handles.drain(..).map(JoinHandle::join).collect();
        if let Some(tcp) = &shared.tcp {
            for link in &tcp.reader_shutdown {
                let _ = link.shutdown();
            }
        }
        joined.extend(pumps.into_iter().map(JoinHandle::join));
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

/// Queues fault step `action`, scheduled for `at`, at the members it acts
/// on: a crash at its victim, any other step at every member, for its own
/// outgoing links. A member that already ended ignores it.
fn post_fault<E: Event + Send>(shared: &Shared<E>, at: Time, action: ScheduleAction) {
    if let ScheduleAction::Crash(p) = action {
        let _ = shared.senders[p.index()].send((at, Msg::Crash));
        return;
    }
    for inbox in &shared.senders {
        let _ = inbox.send((at, Msg::Fault(action.clone())));
    }
}

/// A member's thread: builds its process and runs [`member_loop`], then
/// [`retire`]s. However the member ended — a crash, a halt, a panic or the
/// runtime's stop — it is marked dead here, on its own thread and nowhere
/// else; a panic's text stays in its ledger.
fn member_thread<E: Event + Send>(
    me: ProcessId,
    build: impl FnOnce() -> Process<E>,
    (rx, net): Member<E>,
    shared: &Shared<E>,
) {
    let mut queue = Queue::new();
    let mut out = Outbox::new(shared.senders.len());
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
        member_loop(me, build(), &rx, &mut queue, &mut out, net, shared)
    }));
    if let Err(panic) = run {
        let text = (panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .or_else(|| panic.downcast_ref::<String>().cloned());
        let mut log = shared.ledgers[me.index()].lock();
        log.panic = Some(text.unwrap_or_default());
        // The delayed bursts the panicked drain took were delivered.
        record_fate(&mut log.metrics, out.arrivals, Metrics::record_delivery);
    }
    shared.dead[me.index()].store(true, Ordering::Release);
    retire(me, &rx, queue, shared);
}

/// The life of one member: start the process, then wait → drain → group →
/// flush (see the module docs) until a crash, a halt or a stop ends it.
fn member_loop<E: Event + Send>(
    me: ProcessId,
    mut process: Process<E>,
    rx: &Receiver<Letter<E>>,
    queue: &mut Queue<E>,
    out: &mut Outbox<E>,
    mut net: NetState,
    shared: &Shared<E>,
) {
    let mut fx = Effects::new();
    let started = shared.clock.now();
    process.start_into(started, &mut fx);
    let mut ended = out.absorb(started, &shared.clock, &mut fx, queue);
    shared.flush(me, out, &mut net);

    while !ended {
        wait_for_due(queue, rx, &shared.clock);
        loop {
            rx.try_iter().for_each(|letter| queue.push(letter));
            let now = shared.clock.now();
            let Some((due, msg)) = queue.pop_due(now) else {
                break;
            };
            match msg {
                Msg::Net {
                    from,
                    frames,
                    delayed,
                } => {
                    out.bursts += 1;
                    out.frames_in += frames.len() as u64;
                    if delayed {
                        out.arrivals += frames.len();
                    }
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
                Msg::Fault(action) => {
                    // What came before the fault leaves under the old links.
                    shared.flush(me, out, &mut net);
                    net.model.apply(due, action, shared.senders.len());
                }
                Msg::Crash => {
                    process.halt(); // the thread IS the process: crash-stop
                    ended = true;
                }
                Msg::Stop => ended = true,
            }
            // The protocol may halt itself (e.g. excluded from the group).
            ended |= out.absorb(now, &shared.clock, &mut fx, queue);
            if ended || out.events >= DRAIN_BUDGET as u64 {
                break;
            }
        }
        shared.flush(me, out, &mut net);
    }
}

/// Blocks until the head of `queue` is due, taking into it whatever reaches
/// the inbox meanwhile.
fn wait_for_due<E>(queue: &mut Queue<E>, rx: &Receiver<Letter<E>>, clock: &WallClock) {
    loop {
        let now = clock.now();
        let letter = match queue.next_due() {
            Some(due) if due <= now => return,
            Some(due) => match rx.recv_timeout(Duration::from_nanos(due.since(now).as_nanos())) {
                Ok(letter) => letter,
                Err(_) => return, // the head came due
            },
            None => rx.recv().expect("`shared` holds the inbox's sender"),
        };
        queue.push(letter);
    }
}

/// An ended member takes in its queue and then its inbox until the
/// runtime's last `Stop`, due at `Time::MAX`, which comes behind every burst
/// sent to it: a delayed burst in flight to it dies with it, a crash drop in
/// its own ledger.
fn retire<E: Event + Send>(
    me: ProcessId,
    rx: &Receiver<Letter<E>>,
    mut queue: Queue<E>,
    shared: &Shared<E>,
) {
    for (due, msg) in std::iter::from_fn(|| queue.pop_due(Time::MAX)).chain(rx.iter()) {
        match msg {
            Msg::Net {
                frames,
                delayed: true,
                ..
            } => {
                let mut log = shared.ledgers[me.index()].lock();
                record_fate(&mut log.metrics, frames.len(), Metrics::record_drop_crash);
            }
            Msg::Stop if due == Time::MAX => return,
            _ => {}
        }
    }
}

/// TCP-mode reader pump: decode wire frames for member `to`, resolve each
/// body handle back to the burst it stands for, and enqueue that — one
/// framed write, one letter — on the member's inbox.
fn pump_loop<E: Event + Send>(mut link: TcpLink, shared: &Shared<E>, to: usize) {
    let fabric = shared.tcp.as_ref().expect("tcp fabric in tcp mode");
    loop {
        match link.recv() {
            Ok(Some((_header, body))) => {
                let Ok(key) = body[..].try_into().map(u64::from_be_bytes) else {
                    continue; // not a handle frame; ignore
                };
                let entry = fabric.slab.lock().expect("slab lock").remove(&key);
                if let Some(letter) = entry {
                    if shared.senders[to].send(letter).is_err() {
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
    use std::time::{Duration, Instant};

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
        /// Set a timer due at the given instant, or at once if it is past.
        ArmAt(Time),
    }

    impl Event for T {
        fn kind(&self) -> &'static str {
            match self {
                T::Go(_) => "t/go",
                T::Tag(_) => "t/tag",
                T::Seen(_) => "t/seen",
                T::Arm | T::ArmAt(_) => "t/arm",
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
                T::ArmAt(at) => {
                    ctx.set_timer(at.since(ctx.now()));
                }
            }
        }

        fn on_timer(&mut self, _timer: TimerId, ctx: &mut Context<'_, T>) {
            ctx.output(T::Seen(0));
        }
    }

    /// A three-process fabric with no thread running: the test plays the
    /// members itself. `direct` links are below the emulation floor, so a
    /// burst is due at once; otherwise (LAN) it waits in the receiver's
    /// queue.
    struct Bench {
        shared: Arc<Shared<T>>,
        inboxes: Vec<Option<Member<T>>>,
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

        /// Puts `msg` in `who`'s inbox, due at `due`.
        fn post(&self, who: u32, due: Time, msg: Msg<T>) {
            let inbox = &self.shared.senders[who as usize];
            inbox.send((due, msg)).expect("inbox open");
        }

        /// Fills `who`'s inbox with `inbox`, all due at once, and runs its
        /// member thread on this thread until it ends by a `Stop` or `Crash`
        /// queued there and retires. Behind them goes the runtime's last
        /// `Stop`, due at `Time::MAX`, which ends the retirement.
        fn play(&mut self, who: u32, inbox: Vec<Msg<T>>) {
            for msg in inbox {
                self.post(who, Time::ZERO, msg);
            }
            self.post(who, Time::MAX, Msg::Stop);
            let member = self.inboxes[who as usize].take().expect("not played yet");
            let build = || Process::builder(p(who)).with(TALK, Talker).build();
            member_thread(p(who), build, member, &self.shared);
        }

        /// The bursts waiting in `who`'s inbox, as the tags they carry.
        fn bursts_at(&self, who: u32) -> Vec<Vec<u32>> {
            let (rx, _) = self.inboxes[who as usize].as_ref().expect("not played yet");
            rx.try_iter()
                .map(|(_, msg)| match msg {
                    Msg::Net { from, frames, .. } => {
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
        post_fault(&b.shared, Time::ZERO, partition);
        b.play(0, vec![go(1), go(2), go(3), Msg::Stop]);
        assert_eq!(b.accounts(), (9, 0, 0, 9, 0));

        // A loss burst that takes everything.
        let mut b = Bench::open(true, WireMode::Channel);
        let burst = ScheduleAction::LossBurst {
            duration: TimeDelta::from_secs(3_600),
            prob: 1.0,
        };
        post_fault(&b.shared, Time::ZERO, burst);
        b.play(0, vec![go(1), go(2), go(3), Msg::Stop]);
        assert_eq!(b.accounts(), (9, 0, 9, 0, 0));

        // A destination already dead when the burst is flushed…
        let mut b = Bench::open(true, WireMode::Channel);
        b.shared().dead[2].store(true, Ordering::Release);
        b.play(0, vec![go(1), go(2), go(3), Msg::Stop]);
        assert_eq!(b.accounts(), (9, 6, 0, 0, 3));

        // …and one that dies while the burst waits in its queue (LAN delays
        // are emulated): p1's six frames die, p2's three arrive.
        let mut b = Bench::open(false, WireMode::Channel);
        b.play(0, vec![go(1), go(2), go(3), Msg::Stop]);
        assert_eq!(b.accounts(), (9, 0, 0, 0, 0), "both bursts in flight");
        // p1's crash is due before its burst; p2 stops once its burst is.
        b.play(1, vec![Msg::Crash]);
        let lan_max = Topology::lan().link(p(0), p(2)).delay_max;
        b.post(2, b.shared().clock.now().saturating_add(lan_max), Msg::Stop);
        b.play(2, Vec::new());
        assert_eq!(b.accounts(), (9, 3, 0, 0, 6));
    }

    /// A fault is a place in each member's inbox: what p0 flushed before it
    /// took a partition crossed the cut, and what it sends after is dropped
    /// there, though both were dispatched after the partition's instant.
    #[test]
    fn a_partition_cuts_a_member_where_it_takes_the_fault() {
        let mut b = Bench::open(true, WireMode::Channel);
        let cut = b.shared().clock.now();
        b.post(0, Time::ZERO, go(1));
        let partition = ScheduleAction::Partition(vec![vec![p(0)], vec![p(1), p(2)]]);
        post_fault(&b.shared, cut, partition);
        b.post(0, cut, go(2));
        b.post(0, cut, Msg::Stop);
        b.play(0, Vec::new());
        assert_eq!(b.accounts(), (6, 3, 0, 3, 0));
        // The fault is queued at every member, for its own links.
        for who in [1, 2] {
            let (rx, _) = b.inboxes[who].as_ref().expect("not played");
            let faults = rx.try_iter().filter(|(_, m)| matches!(m, Msg::Fault(_)));
            assert_eq!(faults.count(), 1, "p{who}");
        }
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
            let crash = |b: &Bench| post_fault(&b.shared, now, ScheduleAction::Crash(p(0)));
            // The entry the member's queue holds for its timer, due at the
            // crash's instant (its own arming is due after it).
            let fire = |b: &Bench| b.post(0, now, Msg::Step(Input::Fire(timer)));
            b.post(0, now, Msg::Step(inject(T::Arm)));
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

    /// A timer never leaves its member's thread: with no other thread
    /// running, a member that arms one fires it when it comes due.
    #[test]
    fn a_member_fires_its_own_timer_with_no_other_thread() {
        let mut b = Bench::open(true, WireMode::Channel);
        let (shared, wake) = (b.shared.clone(), b.shared.senders[0].clone());
        std::thread::scope(|scope| {
            let member = scope.spawn(|| b.play(0, vec![Msg::Step(inject(T::Arm))]));
            let deadline = Instant::now() + Duration::from_secs(10);
            while shared.ledgers[0].outputs.load(Ordering::Acquire) == 0
                && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            let stop = (Time::ZERO, Msg::Stop);
            wake.send(stop).expect("p0 is waiting on its inbox");
            member.join().expect("member thread");
        });
        let seen: Vec<T> = b.seen().into_iter().map(|(_, e)| e).collect();
        assert_eq!(seen, vec![T::Seen(0)]);
        assert_eq!(
            sum(b.shared(), |log| log.events),
            2,
            "the arming and the fire"
        );
    }

    /// A member's queue runs in `(due, arrival)` order, whatever the entry:
    /// delayed bursts, the member's own timer and a queued crash, due at
    /// overlapping instants, are dispatched as the simulator would, and the
    /// burst queued behind the crash dies with the member, counted by it.
    #[test]
    fn a_delayed_burst_a_timer_and_a_crash_are_dispatched_in_due_order() {
        let mut b = Bench::open(true, WireMode::Channel);
        // Far enough ahead that p1 has armed its timer before any is due.
        let t = b
            .shared()
            .clock
            .now()
            .saturating_add(TimeDelta::from_millis(100));
        let at = |us| t.saturating_add(TimeDelta::from_micros(us));
        let burst = |n| Msg::Net {
            from: p(0),
            frames: [(TALK, T::Tag(n))].into_iter().collect(),
            delayed: true,
        };
        b.post(1, at(2), Msg::Crash);
        b.post(1, at(1), burst(11)); // ties with the timer, taken in first
        b.post(1, at(2), burst(12)); // ties with the crash, taken in after it
        b.post(1, at(0), burst(10));
        b.play(1, vec![Msg::Step(inject(T::ArmAt(at(1))))]);
        assert!(b.shared().is_dead(p(1)));
        let seen: Vec<T> = b.seen().into_iter().map(|(_, e)| e).collect();
        assert_eq!(seen, vec![T::Seen(10), T::Seen(11), T::Seen(0)]);
        assert_eq!(sum(b.shared(), |log| log.events), 4);
        // No one sent these bursts; p1 counts their fates.
        assert_eq!(b.accounts(), (0, 2, 0, 0, 1));
    }

    #[test]
    fn a_lone_message_is_flushed_while_the_inbox_stays_open() {
        let mut b = Bench::open(true, WireMode::Channel);
        let wake = b.shared.senders[0].clone();
        let (rx1, _) = b.inboxes[1].take().expect("inbox");
        std::thread::scope(|scope| {
            // p0 is given one message and no `Stop`: after dispatching it
            // the member blocks on its inbox — with the burst already out.
            let member = scope.spawn(|| b.play(0, vec![go(7)]));
            let burst = rx1.recv_timeout(Duration::from_secs(10));
            assert!(
                matches!(&burst, Ok((_, Msg::Net { frames, .. })) if frames.len() == 2),
                "{burst:?}"
            );
            let stop = (Time::ZERO, Msg::Stop);
            wake.send(stop).expect("p0 is waiting on its inbox");
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
        let (_, burst) = (b.inboxes[1].as_ref().expect("inbox").0)
            .recv_timeout(Duration::from_secs(10))
            .expect("the burst comes off the stream");
        assert!(
            matches!(&burst, Msg::Net { from, frames, .. } if *from == p(0) && frames.len() == 4)
        );
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

    /// Every frame has one fate once the group is stopped, however the stop
    /// caught it: with a member crashed mid-stream and bursts in flight
    /// between the others at the stop, over either wire, `sent` equals
    /// `delivered` plus the drops.
    #[test]
    fn the_ledgers_balance_once_the_group_is_stopped() {
        use gcs_core::{NewArchDriver, StackConfig};
        use gcs_kernel::PayloadRef;
        use gcs_sim::StackDriver;

        for wire in [WireMode::Channel, WireMode::Tcp] {
            let n = 3;
            let config = StackConfig::default();
            let live = LiveConfig::new(n).with_wire(wire);
            let mut group =
                LiveRuntime::start(live, n, move |id| NewArchDriver::build(id, &config, n));
            let crash_at = group.now().saturating_add(TimeDelta::from_millis(30));
            group.apply_schedule(&Schedule::new().crash(crash_at, p(2)));
            let (mut offered, until) = (0u64, Instant::now() + Duration::from_millis(60));
            while Instant::now() < until {
                if offered - group.outputs_of(p(0)) < 64 {
                    let (component, event) = NewArchDriver::abcast(PayloadRef::EMPTY);
                    group.inject(Time::ZERO, p((offered % 2) as u32), component, event);
                    offered += 1;
                } else {
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
            let shared = group.shared.clone();
            drop(group);
            let m = shared.metrics();
            let fates =
                m.delivered() + m.dropped_loss() + m.dropped_partition() + m.dropped_crash();
            assert_eq!(m.total_sent(), fates, "{wire:?}");
            assert!(m.dropped_crash() > 0, "{wire:?}: p2's crash cost frames");
        }
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

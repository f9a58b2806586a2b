//! The live runtime: one OS thread per group member, one timer thread per
//! group, real wall-clock deadlines.
//!
//! Each member thread owns its [`Process`] outright (the kernel process is
//! deliberately not `Send`-shareable — it is built *inside* the thread from
//! a shared `Send + Sync` constructor closure) and drains an `mpsc` inbox:
//! protocol frames, harness injections, timer fires, crash and stop
//! signals. Effects flow back out through the [`Router`], which applies the
//! emulated network before the frame reaches the destination inbox —
//! directly in channel mode, or over a loopback TCP stream per member in
//! TCP mode.
//!
//! The timer thread services the group's [`TimerWheel`]: protocol timers,
//! frames parked by emulated link delay, and scheduled fault actions all
//! come due there. Firing a timer on a process that already cancelled it is
//! a kernel-level no-op, which is what makes a *global* wheel safe: the
//! wheel may hold stale entries for crashed members or cancelled timers
//! without corrupting anyone.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use gcs_kernel::{Effects, Event, Process, ProcessId, Time};
use gcs_net::{Link, TcpLink};
use gcs_sim::{Metrics, Runtime, Schedule, ScheduleAction};

use crate::fabric::{Control, Due, Msg, NetState, Router, Shared, TcpFabric, TimerWheel};
use crate::{LiveConfig, WallClock};

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
/// [`Runtime`]. Dropping it stops and joins every thread.
pub struct LiveRuntime<E: Event + Send> {
    shared: Arc<Shared<E>>,
    router: Router<E>,
    handles: Vec<JoinHandle<()>>,
    /// Snapshot of the shared metrics, refreshed by the run methods so
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
        let clock = WallClock::new();
        let mut senders: Vec<Sender<Msg<E>>> = Vec::with_capacity(n);
        let mut receivers: Vec<Receiver<Msg<E>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }

        // TCP wire (optional): one loopback stream per member; the write
        // half is shared by all senders, the read half is pumped into the
        // member's inbox by a dedicated reader thread.
        let mut reader_links: Vec<TcpLink> = Vec::new();
        let tcp = match config.wire {
            WireMode::Channel => None,
            WireMode::Tcp => {
                let mut writers = Vec::with_capacity(n);
                let mut reader_shutdown = Vec::with_capacity(n);
                for _ in 0..n {
                    let (w, r) = TcpLink::pair().expect("loopback socket pair");
                    writers.push(Mutex::new(w));
                    reader_shutdown.push(r.try_clone().expect("clone reader handle"));
                    reader_links.push(r);
                }
                Some(TcpFabric {
                    writers,
                    reader_shutdown,
                    slab: Mutex::new(std::collections::HashMap::new()),
                    next_key: AtomicU64::new(0),
                })
            }
        };

        let shared = Arc::new(Shared {
            clock,
            net: Mutex::new(NetState::new(config.seed)),
            topology: config.topology,
            dead: (0..n).map(|_| AtomicBool::new(false)).collect(),
            delivered_total: AtomicU64::new(0),
            delivered_per: (0..n).map(|_| AtomicU64::new(0)).collect(),
            events: AtomicU64::new(0),
            trace_mode: config.trace,
            trace: Mutex::new(Vec::new()),
            metrics: Mutex::new(Metrics::default()),
            wheel: TimerWheel::new(),
            tcp,
        });

        let router = Router {
            shared: shared.clone(),
            senders: senders.clone(),
        };

        let mut handles = Vec::with_capacity(n + 1 + reader_links.len());

        // Reader pumps (TCP mode only): resolve wire handles back to events
        // and feed the member inbox.
        for (i, link) in reader_links.into_iter().enumerate() {
            let shared = shared.clone();
            let tx = senders[i].clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("live-pump-{i}"))
                    .spawn(move || pump_loop(link, shared, tx))
                    .expect("spawn pump thread"),
            );
        }

        // Member threads.
        for (i, rx) in receivers.into_iter().enumerate() {
            let me = ProcessId::new(i as u32);
            let router = router.clone();
            let build = build.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("live-member-{i}"))
                    .spawn(move || {
                        // Built here, on the thread that will own it; the
                        // shared builder (and the config it captured) is
                        // released once the last member exists.
                        let process = build(me);
                        drop(build);
                        member_loop(me, process, rx, router)
                    })
                    .expect("spawn member thread"),
            );
        }

        // Timer thread.
        {
            let router = router.clone();
            handles.push(
                std::thread::Builder::new()
                    .name("live-timer".to_string())
                    .spawn(move || timer_loop(router))
                    .expect("spawn timer thread"),
            );
        }

        LiveRuntime {
            shared,
            router,
            handles,
            metrics_cache: Metrics::default(),
        }
    }

    fn now(&self) -> Time {
        self.shared.clock.now()
    }

    fn inject(&mut self, t: Time, p: ProcessId, component: &'static str, event: E) {
        let msg = Msg::Inject { component, event };
        if t <= self.now() {
            // Direct inbox send — injections bypass the emulated network.
            let _ = self.router.senders[p.index()].send(msg);
        } else {
            self.shared.wheel.schedule(t, Due::Frame { to: p, msg });
        }
    }

    /// Fault steps become network controls, applied at once when already
    /// due and parked on the timer wheel otherwise.
    fn apply_schedule(&mut self, schedule: &Schedule) -> Vec<(Time, ScheduleAction)> {
        let mut membership = Vec::new();
        for (t, action) in schedule.steps() {
            let t = *t;
            let control = match action.clone() {
                ScheduleAction::Crash(p) => Control::Crash(p),
                ScheduleAction::Partition(groups) => Control::Partition(groups),
                ScheduleAction::PartitionRegions => {
                    let n = self.shared.dead.len();
                    Control::Partition(self.shared.topology.region_groups(n))
                }
                ScheduleAction::Heal => Control::Heal,
                ScheduleAction::DelaySpike { duration, extra } => Control::Spike {
                    until: t.saturating_add(duration),
                    extra,
                },
                ScheduleAction::LossBurst { duration, prob } => Control::Burst {
                    until: t.saturating_add(duration),
                    prob,
                },
                ScheduleAction::SetLink { from, to, link } => Control::SetLink { from, to, link },
                step @ (ScheduleAction::Join { .. } | ScheduleAction::Remove { .. }) => {
                    membership.push((t, step));
                    continue;
                }
            };
            if t <= self.now() {
                apply_control(&self.router, control);
            } else {
                self.shared.wheel.schedule(t, Due::Control(control));
            }
        }
        membership
    }

    /// Sleeps the caller until the clock reaches `t`; member threads keep
    /// running the whole time.
    fn run_until(&mut self, t: Time) {
        self.shared.clock.sleep_until(t);
        self.refresh_metrics();
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
        self.refresh_metrics();
        quiet
    }

    fn outputs_of(&self, p: ProcessId) -> u64 {
        self.shared.delivered_per[p.index()].load(Ordering::Relaxed)
    }

    fn outputs_total(&self) -> u64 {
        self.shared.delivered_total.load(Ordering::Relaxed)
    }

    /// One lock acquisition, no clone: member threads that produce an
    /// output meanwhile wait for the visit to end.
    fn visit_outputs(&self, f: &mut dyn FnMut(Time, ProcessId, &E)) {
        for (time, proc, event) in self.shared.trace.lock().expect("trace lock").iter() {
            f(*time, *proc, event);
        }
    }

    /// Traffic metrics as of the last run call — between runs the snapshot
    /// lags the member threads by design (`&self` cannot lock a fresh copy
    /// into a reference).
    fn metrics(&self) -> &Metrics {
        &self.metrics_cache
    }

    /// Inbox messages dispatched group-wide.
    fn events_executed(&self) -> u64 {
        self.shared.events.load(Ordering::Relaxed)
    }

    fn alive_flags(&self) -> Vec<bool> {
        self.shared
            .dead
            .iter()
            .map(|d| !d.load(Ordering::Acquire))
            .collect()
    }
}

impl<E: Event + Send> LiveRuntime<E> {
    fn refresh_metrics(&mut self) {
        self.metrics_cache = self.shared.metrics.lock().expect("metrics lock").clone();
    }
}

impl<E: Event + Send> Drop for LiveRuntime<E> {
    /// Stops every member, pump, and timer thread and joins them.
    fn drop(&mut self) {
        self.shared.wheel.shutdown();
        for s in &self.router.senders {
            let _ = s.send(Msg::Stop);
        }
        if let Some(tcp) = &self.shared.tcp {
            for link in &tcp.reader_shutdown {
                let _ = link.shutdown();
            }
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The life of one member: start the process, then drain the inbox until
/// crash or stop.
fn member_loop<E: Event + Send>(
    me: ProcessId,
    mut process: Process<E>,
    rx: Receiver<Msg<E>>,
    router: Router<E>,
) {
    let shared = router.shared.clone();
    let mut fx = Effects::new();
    process.start_into(shared.clock.now(), &mut fx);
    if apply_effects(me, &mut fx, &router) {
        shared.dead[me.index()].store(true, Ordering::Release);
        return;
    }
    for msg in rx.iter() {
        let now = shared.clock.now();
        match msg {
            Msg::Net {
                from,
                component,
                event,
            } => {
                shared.events.fetch_add(1, Ordering::Relaxed);
                process.deliver_net_into(from, component, event, now, &mut fx);
            }
            Msg::Inject { component, event } => {
                shared.events.fetch_add(1, Ordering::Relaxed);
                process.deliver_into(component, event, now, &mut fx);
            }
            Msg::Fire(id) => {
                shared.events.fetch_add(1, Ordering::Relaxed);
                process.fire_timer_into(id, now, &mut fx);
            }
            Msg::Crash => {
                shared.dead[me.index()].store(true, Ordering::Release);
                process.halt();
                return; // the thread IS the process: crash-stop
            }
            Msg::Stop => return,
        }
        if apply_effects(me, &mut fx, &router) {
            // The protocol halted itself (e.g. excluded from the group).
            shared.dead[me.index()].store(true, Ordering::Release);
            return;
        }
    }
    // All senders dropped: the runtime is tearing down.
}

/// Pushes one dispatch's effects out: frames to the router, timers to the
/// wheel, outputs to the trace. Returns whether the process halted.
fn apply_effects<E: Event + Send>(me: ProcessId, fx: &mut Effects<E>, router: &Router<E>) -> bool {
    let shared = &router.shared;
    let now = shared.clock.now();
    for env in fx.sends.drain() {
        router.route(now, me, env.to, env.component, env.event);
    }
    for cast in fx.casts.drain() {
        for &to in cast.to.iter() {
            router.route(now, me, to, cast.component, cast.event.clone());
        }
    }
    for t in fx.timers.drain() {
        shared.wheel.schedule(
            now.saturating_add(t.after),
            Due::Fire { proc: me, id: t.id },
        );
    }
    for out in fx.outputs.drain() {
        shared.record_output(now, me, &out);
    }
    let halted = fx.halted;
    fx.clear();
    halted
}

/// The timer thread: pops due work off the wheel until shutdown.
fn timer_loop<E: Event + Send>(router: Router<E>) {
    let shared = router.shared.clone();
    while let Some(due) = shared.wheel.next_due(&shared.clock) {
        match due {
            Due::Fire { proc, id } => {
                if !shared.is_dead(proc) {
                    router.deliver(proc, Msg::Fire(id));
                }
            }
            Due::Frame { to, msg } => {
                if matches!(msg, Msg::Net { .. }) && shared.is_dead(to) {
                    // The member crashed while the frame was in flight.
                    shared.with_metrics(|m| m.record_drop_crash());
                } else {
                    router.deliver(to, msg);
                }
            }
            Due::Control(action) => apply_control(&router, action),
        }
    }
}

/// Applies one control action now.
fn apply_control<E: Event + Send>(router: &Router<E>, action: Control) {
    if let Control::Crash(p) = action {
        let shared = &router.shared;
        if !shared.is_dead(p) {
            // Mark first so routers drop frames immediately, then tell the
            // thread to exit.
            shared.dead[p.index()].store(true, Ordering::Release);
            let _ = router.senders[p.index()].send(Msg::Crash);
        }
        return;
    }
    router.shared.net.lock().expect("net lock").apply(&action);
}

/// TCP-mode reader pump: decode wire frames for one member, resolve the
/// body handle back to the event, and enqueue it on the member's inbox.
fn pump_loop<E: Event + Send>(mut link: TcpLink, shared: Arc<Shared<E>>, tx: Sender<Msg<E>>) {
    let fabric = shared.tcp.as_ref().expect("tcp fabric in tcp mode");
    loop {
        match link.recv() {
            Ok(Some((_header, body))) => {
                if body.len() != 8 {
                    continue; // not a handle frame; ignore
                }
                let key = u64::from_be_bytes(body[..8].try_into().expect("8-byte handle"));
                let entry = fabric.slab.lock().expect("slab lock").remove(&key);
                if let Some((from, component, event)) = entry {
                    if tx
                        .send(Msg::Net {
                            from,
                            component,
                            event,
                        })
                        .is_err()
                    {
                        return; // member exited; stop pumping
                    }
                }
            }
            Ok(None) | Err(_) => return, // stream shut down
        }
    }
}

//! The fabric of a live group: inboxes, each member's queue of what comes
//! due later, and the network emulation every burst of frames crosses.
//!
//! Each group member is an OS thread working through an `mpsc` inbox of
//! [`Letter`]s: a [`Msg`] stamped with the instant it comes due (see
//! `runtime.rs` for the drain → group → flush cycle). The member takes every
//! letter into its own [`Queue`] and dispatches in `(due, arrival)` order, as
//! the simulator runs its queue. Anything that must happen *later* — a
//! protocol timer, a burst held back by an emulated link delay, a future
//! injection or fault step — waits in the queue of the member that will take
//! it: a timer never leaves its own thread, and everything else is sent
//! straight to its member, stamped. Members share their inboxes, their end
//! flags, the readers' view of their ledgers and, in TCP mode, the streams
//! and the slab; nothing else.
//!
//! # Bursts
//!
//! The unit that crosses the fabric is not a frame but a **burst**: every
//! frame one drain of a member's inbox produced for one destination, in
//! emission order, as one [`Msg::Net`]. The member collects them in an
//! [`Outbox`]; [`Shared::flush`] is the one gate between a sender and a
//! receiver's inbox and the only routing path. Per destination it decides
//! **one network fate** from the sender's own [`NetState`] — liveness,
//! partition, one loss draw, one sampled delay, bandwidth charged for the
//! summed bytes — and then makes one inbox send (one framed write in TCP
//! mode), due at once or when the delay has passed. A member whose drain
//! dispatched a single message that produced a single frame ships a burst of
//! one.
//!
//! What one fate per burst means for fault emulation: a partition or a
//! crashed destination drops all of a burst, as it would each frame; a
//! link's `drop_prob` (and a loss burst) is the probability that a *burst*
//! is lost, so under load loss comes in runs of consecutive frames of one
//! link rather than independently per frame — the shape real links lose in
//! — and a sampled delay moves the burst as a whole (its frames never
//! overtake each other; two bursts of a jittery link may, as two frames
//! could). The reliable channel and the baselines' repair paths see a lost
//! burst as so many lost frames; `tests/transport_conformance.rs` is the
//! check that they cope.
//!
//! # Faults
//!
//! Every member owns the [`NetState`] of its outgoing links. A network fault
//! step is a letter at every member, entered when it comes due there, so it
//! is a place in each sender's inbox: what a member flushed before taking it
//! crossed the links as they were. A crash is a letter at its victim only.
//!
//! The accounting stays per frame: [`Metrics`] counts every protocol
//! message by kind and every delivery and drop once per frame contained in
//! a burst, so `sent == delivered + dropped_*` holds as it does in the
//! simulator. Each count is in one member's [`Ledger`], written by that
//! member's thread alone. The sender counts what it sends and every fate
//! decided at its flush, including the delivery of a burst it hands over due
//! at once; a delayed burst is the receiver's to count when it comes due —
//! delivered, or dropped by a crash if the receiver ended first.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, MutexGuard};

use gcs_kernel::{ComponentId, Effects, Event, Input, ProcessId, SmallVec, Time, TimeDelta};
use gcs_net::{FrameHeader, TcpLink};
use gcs_sim::{Metrics, NetworkModel, ScheduleAction, Scheduled, TimingWheel, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{LiveConfig, WallClock, WireMode};

/// Emulated one-way delays below this floor are not worth a wait in the
/// receiver's queue: the real channel/TCP hop already costs tens of
/// microseconds, so a burst whose sampled delay falls below it is due at
/// once and the wire's own latency stands in for the model's. Every preset
/// link reaches it (the LAN samples 0.2–1.2 ms), so every preset burst waits.
pub(crate) const DELAY_FLOOR: TimeDelta = TimeDelta::from_micros(200);

/// Burst credit a token-bucket link accrues while idle: a sender that
/// paused may transmit this much "for free" before bandwidth pacing kicks
/// back in (mirrors the leaky-bucket shape of real shapers).
const BUCKET_BURST: TimeDelta = TimeDelta::from_millis(5);

/// The frames of one burst: `(component, event)` in emission order, the
/// component being the sender's and the receiver's. A lone frame — all a
/// lightly loaded member ever ships — stays inline.
pub(crate) type Frames<E> = SmallVec<(ComponentId, E), 1>;

/// One message for a member, in its inbox or its queue.
#[derive(Debug)]
pub(crate) enum Msg<E> {
    /// A burst of protocol frames from another member (or looped back from
    /// this one): one or more, in the order the sender emitted them.
    Net {
        /// Sending process.
        from: ProcessId,
        /// The frames, each dispatched as its own kernel event.
        frames: Frames<E>,
        /// The link model delayed it, so its fate is the receiver's to
        /// count; otherwise the sender counted it delivered on sending it.
        delayed: bool,
    },
    /// One input for one dispatch step: a harness injection (client
    /// request, join/remove signal) or a protocol timer that came due.
    Step(Input<E>),
    /// A network fault step, for this member's outgoing links.
    Fault(ScheduleAction),
    /// Kill this member: mark it crashed and end its loop.
    Crash,
    /// End this member's loop (the runtime's first stop) or, due at
    /// `Time::MAX`, its retirement (the last).
    Stop,
}

/// A [`Msg`] with the instant it comes due: what an inbox carries.
pub(crate) type Letter<E> = (Time, Msg<E>);

/// A member's future: every letter it took in and its own timers, in
/// `(due, arrival)` order on the simulator's [`TimingWheel`].
pub(crate) struct Queue<E> {
    wheel: TimingWheel<Scheduled<Msg<E>>>,
    seq: u64,
}

impl<E> Queue<E> {
    pub(crate) fn new() -> Self {
        Queue {
            wheel: TimingWheel::new(),
            seq: 0,
        }
    }

    pub(crate) fn push(&mut self, (at, item): Letter<E>) {
        let seq = self.seq;
        self.seq += 1;
        self.wheel.push(Scheduled { at, seq, item });
    }

    /// When the head comes due, if anything is queued.
    pub(crate) fn next_due(&mut self) -> Option<Time> {
        self.wheel.peek().map(|head| head.at)
    }

    /// The head, if it is due by `now` (by `Time::MAX`: whatever its due).
    pub(crate) fn pop_due(&mut self, now: Time) -> Option<Letter<E>> {
        let head = self.wheel.pop_if(|head| head.at <= now)?;
        Some((head.at, head.item))
    }
}

/// Leaky-bucket pacing state for one directed link with finite bandwidth.
///
/// `next_free` is the instant the link finishes transmitting everything
/// already accepted; a new frame of `b` bytes departs at
/// `max(now, next_free)` and pushes `next_free` forward by `b / bandwidth`.
/// While idle the bucket accrues up to [`BUCKET_BURST`] of credit, so a
/// bursty sender is not paced until it has actually outrun the link.
#[derive(Debug, Default, Clone, Copy)]
struct TokenBucket {
    next_free: Time,
}

impl TokenBucket {
    fn delay(&mut self, now: Time, bytes: usize, bandwidth: u64) -> TimeDelta {
        let ser = TimeDelta::from_nanos(
            (bytes as u128 * 1_000_000_000 / bandwidth.max(1) as u128) as u64,
        );
        // Idle credit: never let the bucket fall more than BUCKET_BURST
        // behind the present.
        let floor = Time::from_nanos(now.as_nanos().saturating_sub(BUCKET_BURST.as_nanos()));
        if self.next_free < floor {
            self.next_free = floor;
        }
        let wait = self.next_free.since(now);
        self.next_free = self.next_free.saturating_add(ser);
        wait
    }
}

/// One member's network emulation for its outgoing links: the
/// [`NetworkModel`] both runtimes enter faults into (partition, links,
/// spike, burst), and what only the live wire keeps — its own rng and the
/// token buckets of finite-bandwidth links.
pub(crate) struct NetState {
    pub(crate) model: NetworkModel,
    buckets: HashMap<(u32, u32), TokenBucket>,
    rng: StdRng,
}

impl NetState {
    pub(crate) fn new(topology: Topology, seed: u64) -> Self {
        NetState {
            model: NetworkModel::with_topology(topology),
            buckets: HashMap::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x11fe_c0de),
        }
    }

    /// The fate of one burst of `bytes` in all: `None` if the emulated link
    /// dropped it, otherwise the artificial delay to add on top of the real
    /// wire.
    fn burst_delay(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        bytes: usize,
        now: Time,
    ) -> Option<TimeDelta> {
        let link = self.model.link(from, to);
        let drop_prob = self.model.drop_prob(&link, now);
        if drop_prob > 0.0 && self.rng.gen::<f64>() < drop_prob {
            return None;
        }
        let mut delay = TimeDelta::ZERO;
        // Sub-floor models ride the real wire; everything else is emulated
        // by a wait in the receiver's queue.
        if link.delay_max >= DELAY_FLOOR {
            delay = delay + link.sample_delay(&mut self.rng);
        }
        delay = delay + self.model.spike(now);
        if link.bandwidth > 0 {
            let bucket = self.buckets.entry((from.raw(), to.raw())).or_default();
            delay = delay + bucket.delay(now, bytes, link.bandwidth);
        }
        Some(delay)
    }
}

/// Everything live-group threads share by `Arc`.
pub(crate) struct Shared<E> {
    /// The group's wall clock (epoch = runtime start).
    pub clock: WallClock,
    /// End flags, one per process, each set by its member's thread alone
    /// once the member ended (see `runtime::member_thread`): crashed,
    /// halted, panicked or stopped. Frames to a dead member are dropped.
    pub dead: Vec<AtomicBool>,
    /// Every member's inbox; any thread may send.
    pub senders: Vec<Sender<Letter<E>>>,
    /// One ledger per process, indexed like `dead`.
    pub ledgers: Vec<Ledger<E>>,
    /// TCP wire state, when the group runs in [`WireMode::Tcp`].
    pub tcp: Option<TcpFabric<E>>,
}

impl<E: Event + Send> Shared<E> {
    pub(crate) fn is_dead(&self, p: ProcessId) -> bool {
        self.dead[p.index()].load(Ordering::Acquire)
    }

    /// The members' metrics, merged.
    pub(crate) fn metrics(&self) -> Metrics {
        let mut merged = Metrics::default();
        for ledger in &self.ledgers {
            merged.merge(&ledger.lock().metrics);
        }
        merged
    }
}

/// What one member produced. Only the member's own thread writes it — once
/// per flush, and once for each burst that reaches it after it ended;
/// readers lock it too, never during a step.
pub(crate) struct Ledger<E> {
    /// `log.trace.len()`, readable without the lock: stored (Release) under
    /// the lock after the append, loaded (Acquire) by the counts' readers.
    pub outputs: AtomicU64,
    pub log: Mutex<Log<E>>,
}

/// The contents of a [`Ledger`].
pub(crate) struct Log<E> {
    /// Protocol outputs, each with the time it was produced at.
    pub trace: Vec<(Time, E)>,
    /// The member's traffic: what it sent and every frame's fate.
    pub metrics: Metrics,
    /// Dispatch steps: one per frame of a burst, one per [`Msg::Step`].
    pub events: u64,
    /// [`Msg::Net`] inbox messages dispatched…
    pub bursts: u64,
    /// …and the frames they carried: `frames / bursts` is how well the
    /// member's inbox packs under its current load (1 when idle).
    pub frames: u64,
    /// The text of the panic that ended the member's thread.
    pub panic: Option<String>,
}

impl<E> Ledger<E> {
    pub(crate) fn lock(&self) -> MutexGuard<'_, Log<E>> {
        self.log.lock().expect("ledger lock")
    }

    fn new() -> Self {
        Ledger {
            outputs: AtomicU64::new(0),
            log: Mutex::new(Log {
                trace: Vec::new(),
                metrics: Metrics::default(),
                events: 0,
                bursts: 0,
                frames: 0,
                panic: None,
            }),
        }
    }
}

/// The TCP wire: one loopback stream per member, bodies carried as slab
/// handles (see the `gcs_net::link` module docs — the wire exercises real
/// framing, ordering and flow control; payload bytes stay in-process, the
/// honest boundary of a reproduction without a serialization layer). A
/// burst is one slab entry and one framed write.
pub(crate) struct TcpFabric<E> {
    /// Write halves, locked per destination (any thread may send).
    pub writers: Vec<Mutex<TcpLink>>,
    /// Shutdown handles (clones of the *reader* side, used to unblock pumps).
    pub reader_shutdown: Vec<TcpLink>,
    /// In-flight bursts keyed by the u64 handle on the wire.
    pub slab: Mutex<HashMap<u64, Letter<E>>>,
    /// Next slab key.
    pub next_key: AtomicU64,
}

/// Channel tag for protocol net frames on the TCP wire.
pub(crate) const CHAN_NET: u8 = 0;

/// Records `frames` frames of one fate.
pub(crate) fn record_fate(m: &mut Metrics, frames: usize, fate: fn(&mut Metrics)) {
    (0..frames).for_each(|_| fate(m));
}

/// What one drain of a member's inbox took and produced, for one flush: its
/// step counts, frames per destination, outputs with their time. All
/// buffers are reused from drain to drain.
pub(crate) struct Outbox<E> {
    /// Counted as the ledger counts them (see [`Log`]).
    pub events: u64,
    pub bursts: u64,
    pub frames_in: u64,
    /// Frames of delayed bursts dispatched: deliveries this member counts.
    pub arrivals: usize,
    /// Per destination (dense by process index): its burst so far, sends
    /// and casts of successive dispatches interleaved as emitted.
    frames: Vec<Frames<E>>,
    outputs: Vec<(Time, E)>,
}

impl<E: Event + Send> Outbox<E> {
    pub(crate) fn new(processes: usize) -> Self {
        Outbox {
            events: 0,
            bursts: 0,
            frames_in: 0,
            arrivals: 0,
            frames: (0..processes).map(|_| Frames::new()).collect(),
            outputs: Vec::new(),
        }
    }

    /// Moves the effects of one dispatch, begun at `dispatched`, out of `fx`
    /// (left empty for the next dispatch): timers into `queue` as absolute
    /// deadlines, everything else into the outbox. Returns whether the
    /// process halted in it.
    pub(crate) fn absorb(
        &mut self,
        dispatched: Time,
        clock: &WallClock,
        fx: &mut Effects<E>,
        queue: &mut Queue<E>,
    ) -> bool {
        for env in fx.sends.drain() {
            self.frames[env.to.index()].push((env.component, env.event));
        }
        for cast in fx.casts.drain() {
            // The last destination gets the original, the others a clone.
            let n = cast.to.len();
            for i in 0..n.saturating_sub(1) {
                let to = cast.to[i].index();
                self.frames[to].push((cast.component, cast.event.clone()));
            }
            if n > 0 {
                self.frames[cast.to[n - 1].index()].push((cast.component, cast.event));
            }
        }
        for t in fx.timers.drain() {
            let due = dispatched.saturating_add(t.after);
            queue.push((due, Msg::Step(Input::Fire(t.id))));
        }
        if !fx.outputs.is_empty() {
            // An output is stamped when the application would have it: once
            // the dispatch that produced it is over.
            let produced = clock.now();
            self.outputs
                .extend(fx.outputs.drain().map(|out| (produced, out)));
        }
        std::mem::take(&mut fx.halted)
    }
}

/// What a member's thread owns from its start: its inbox and the emulation
/// of its outgoing links.
pub(crate) type Member<E> = (Receiver<Letter<E>>, NetState);

/// Builds the fabric of a group of `n` processes: the shared state and
/// what the threads to be spawned will own — each [`Member`]'s share and,
/// in TCP mode, the read half of each member's stream.
pub(crate) fn open<E: Event + Send>(
    config: LiveConfig,
    n: usize,
) -> (Shared<E>, Vec<Member<E>>, Vec<TcpLink>) {
    let clock = WallClock::new();
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
    let members = (receivers.into_iter().enumerate())
        .map(|(i, rx)| {
            let seed = config.seed.wrapping_add(i as u64);
            (rx, NetState::new(config.topology.clone(), seed))
        })
        .collect();

    // TCP wire (optional): one loopback stream per member; the write half
    // is shared by all senders, the read half is pumped into the member's
    // inbox by a dedicated reader thread.
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
                slab: Mutex::new(HashMap::new()),
                next_key: AtomicU64::new(0),
            })
        }
    };

    let shared = Shared {
        clock,
        dead: (0..n).map(|_| AtomicBool::new(false)).collect(),
        senders,
        ledgers: (0..n).map(|_| Ledger::new()).collect(),
        tcp,
    };
    (shared, members, reader_links)
}

impl<E: Event + Send> Shared<E> {
    /// Ships everything `out` holds for `from` and leaves it empty: per
    /// destination one burst with one network fate from `from`'s own links
    /// (see the module docs). What the drain took and produced — its steps,
    /// the delayed frames it took delivery of, every frame's fate decided
    /// here, its outputs — goes to `from`'s own ledger, locked once.
    pub(crate) fn flush(&self, from: ProcessId, out: &mut Outbox<E>, net: &mut NetState) {
        let mut log = self.ledgers[from.index()].lock();
        let log = &mut *log;
        let m = &mut log.metrics;
        let now = self.clock.now();
        let arrivals = std::mem::take(&mut out.arrivals);
        record_fate(m, arrivals, Metrics::record_delivery);
        for (index, frames) in out.frames.iter_mut().enumerate() {
            if frames.is_empty() {
                continue;
            }
            // Every frame is one packet, whatever its fate, and every
            // message it carries counts under its own kind.
            let bytes = frames.iter().map(|(_, e)| m.record_packet(e)).sum();
            let to = ProcessId::new(index as u32);
            let count = frames.len();
            let frames = std::mem::take(frames);
            let delay = if from == to {
                // Loopback self-sends never traverse the network model.
                Some(TimeDelta::ZERO)
            } else if self.is_dead(to) {
                record_fate(m, count, Metrics::record_drop_crash);
                continue;
            } else if net.model.blocked(from, to) {
                record_fate(m, count, Metrics::record_drop_partition);
                continue;
            } else {
                net.burst_delay(from, to, bytes, now)
            };
            let Some(delay) = delay else {
                record_fate(m, count, Metrics::record_drop_loss);
                continue;
            };
            let delayed = delay >= DELAY_FLOOR;
            let due = now.saturating_add(if delayed { delay } else { TimeDelta::ZERO });
            let msg = Msg::Net {
                from,
                frames,
                delayed,
            };
            match (self.deliver(from, to, (due, msg)), delayed) {
                (false, _) => record_fate(m, count, Metrics::record_drop_crash),
                (true, false) => record_fate(m, count, Metrics::record_delivery),
                (true, true) => {} // the receiver counts it when it comes due
            }
        }
        log.events += std::mem::take(&mut out.events);
        log.bursts += std::mem::take(&mut out.bursts);
        log.frames += std::mem::take(&mut out.frames_in);
        log.trace.append(&mut out.outputs);
        let outputs = log.trace.len() as u64;
        self.ledgers[from.index()]
            .outputs
            .store(outputs, Ordering::Release);
    }

    /// Puts `from`'s burst on `to`'s inbox — over the TCP wire when the
    /// group runs in TCP mode, directly otherwise — and says whether it got
    /// there: a send to a member whose thread has exited fails, and the
    /// caller counts that as so many crash drops (they died on the wire).
    pub(crate) fn deliver(&self, from: ProcessId, to: ProcessId, letter: Letter<E>) -> bool {
        let Some(tcp) = &self.tcp else {
            return self.senders[to.index()].send(letter).is_ok();
        };
        let key = tcp.next_key.fetch_add(1, Ordering::Relaxed);
        tcp.slab.lock().expect("slab lock").insert(key, letter);
        let header = FrameHeader {
            channel: CHAN_NET,
            from: from.raw(),
            to: to.raw(),
            len: 8,
        };
        let sent = tcp.writers[to.index()]
            .lock()
            .expect("writer lock")
            .send(&header, &key.to_be_bytes())
            .is_ok();
        if !sent {
            tcp.slab.lock().expect("slab lock").remove(&key);
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_sim::LinkModel;

    #[test]
    fn token_bucket_paces_after_burst_credit() {
        let mut b = TokenBucket::default();
        let now = Time::from_secs(1);
        // 1 MB/s link, 10 kB frames: 10 ms serialization each.
        let bw = 1_000_000;
        // First frames ride the burst credit.
        assert_eq!(b.delay(now, 10_000, bw), TimeDelta::ZERO);
        // Credit (5 ms) is outrun after the first frame's 10 ms commitment.
        let d2 = b.delay(now, 10_000, bw);
        assert_eq!(d2, TimeDelta::from_millis(5));
        let d3 = b.delay(now, 10_000, bw);
        assert_eq!(d3, TimeDelta::from_millis(15));
        // After a long idle gap the credit is restored.
        let later = now.saturating_add(TimeDelta::from_secs(10));
        assert_eq!(b.delay(later, 10_000, bw), TimeDelta::ZERO);
    }

    #[test]
    fn lan_links_fall_below_the_emulation_floor() {
        let topo = Topology::lan();
        let lan_min = topo.link(ProcessId::new(0), ProcessId::new(1)).delay_min;
        let mut net = NetState::new(topo, 2);
        let d = net
            .burst_delay(ProcessId::new(0), ProcessId::new(1), 64, Time::ZERO)
            .expect("no loss on lan");
        // LAN delay_max (1.2 ms) is above the floor, so it IS emulated…
        assert!(d >= lan_min);
        // …while a sub-floor override is not.
        let link = LinkModel {
            delay_min: TimeDelta::ZERO,
            delay_max: TimeDelta::from_micros(50),
            drop_prob: 0.0,
            dup_prob: 0.0,
            bandwidth: 0,
        };
        let (from, to) = (ProcessId::new(0), ProcessId::new(1));
        let set = ScheduleAction::SetLink { from, to, link };
        net.model.apply(Time::ZERO, set, 2);
        let d = net
            .burst_delay(ProcessId::new(0), ProcessId::new(1), 64, Time::ZERO)
            .expect("no loss");
        assert_eq!(d, TimeDelta::ZERO);
    }
}

//! First-class workloads: who broadcasts what, when.
//!
//! Every experiment used to carry its own copy of the injection loop
//! (`for i in 0..msgs { sim.abcast_at(...) }`); the [`Workload`] trait makes
//! the stream a value that scenarios compose with a
//! [`Topology`](gcs_sim::Topology) and a [`gcs_sim::Schedule`].
//! Workloads drive any [`GroupTransport`] — the new architecture and both
//! traditional baselines — through the object-safe
//! [`abcast_build_at`](GroupTransport::abcast_build_at) entry point:
//! payloads are built in place in the target arena's pooled scratch buffer,
//! so a streamed injection performs exactly one allocation per message (the
//! interned payload itself), with no intermediate `Vec` per op.
//!
//! Implementations cover the scenario matrix: [`UniformWorkload`] (the old
//! round-robin stream, at any payload size — bulk messages pay
//! serialization delay on bandwidth-limited links), [`SkewedWorkload`]
//! (zipf-distributed senders), [`ChurnWorkload`] (a stream with membership
//! churn riding on it) and [`GenericWorkload`] (the uniform stream through
//! generic broadcast, in two conflict classes). [`OpenLoopWorkload`] is the
//! arrival clock of saturation runs, which inject it themselves.

use gcs_api::GroupTransport;
use gcs_kernel::{MessageClass, ProcessId, Time, TimeDelta};
use gcs_sim::Schedule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which processes send the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Senders {
    /// Round-robin over the `n` founding members.
    RoundRobin,
    /// A single fixed sender.
    One(ProcessId),
}

/// Writes the [`payload_for`] encoding into a reused buffer (the in-place
/// variant the injection loops use with [`GroupTransport::abcast_build_at`]).
pub fn write_payload(op: usize, size: usize, buf: &mut Vec<u8>) {
    // A hard assert (injection is cold): a wrapped tag would silently
    // attribute deliveries to the wrong injection time in release builds.
    assert!(
        op <= u16::MAX as usize,
        "op index {op} overflows the u16 payload tag"
    );
    buf.clear();
    buf.resize(size.max(2), 0);
    buf[..2].copy_from_slice(&(op as u16).to_le_bytes());
}

/// Encodes the op index into the payload head (little-endian `u16`), leaving
/// the rest zero-filled to `size` (minimum 2 bytes) — the tag latency
/// measurements decode with [`decode_op_index`].
pub fn payload_for(op: usize, size: usize) -> Vec<u8> {
    let mut payload = Vec::new();
    write_payload(op, size, &mut payload);
    payload
}

/// Decodes the op index a payload was tagged with by [`payload_for`].
pub fn decode_op_index(payload: &[u8]) -> Option<usize> {
    if payload.len() < 2 {
        return None;
    }
    Some(u16::from_le_bytes([payload[0], payload[1]]) as usize)
}

/// A timed atomic-broadcast stream over a group of `n` processes.
pub trait Workload {
    /// Schedules the whole stream into `target` (a group of `n` founding
    /// members); returns the injection time of each op, indexed by the op
    /// tag embedded in its payload (see [`payload_for`]).
    fn inject(&self, n: usize, target: &mut dyn GroupTransport) -> Vec<Time>;

    /// The membership/fault steps this workload carries (empty for pure
    /// streams; churn workloads schedule their join/remove here). `joiners`
    /// is the number of processes started outside the group.
    fn schedule(&self, n: usize, joiners: usize) -> Schedule {
        let _ = (n, joiners);
        Schedule::new()
    }
}

/// The classic uniform stream: `msgs` broadcasts at a fixed interval,
/// senders round-robin (or fixed), constant payload size.
#[derive(Clone, Debug)]
pub struct UniformWorkload {
    /// Number of broadcasts.
    pub msgs: u32,
    /// Injection time of the first broadcast.
    pub start: Time,
    /// Interval between consecutive broadcasts.
    pub interval: TimeDelta,
    /// Payload size in bytes (minimum 2; the head carries the op tag).
    pub payload: usize,
    /// Sender selection.
    pub senders: Senders,
}

impl UniformWorkload {
    /// The steady-state stream used across the E1-style experiments:
    /// `msgs` broadcasts every `interval_ms` ms starting at 1 ms, 2-byte
    /// payloads, round-robin senders.
    ///
    /// `interval_ms = 0` is a legitimate burst: every broadcast is injected
    /// at the same instant (1 ms), and the simulator's deterministic
    /// event-queue tie-break orders the simultaneous arrivals.
    pub fn steady(msgs: u32, interval_ms: u64) -> Self {
        UniformWorkload {
            msgs,
            start: Time::from_millis(1),
            interval: TimeDelta::from_millis(interval_ms),
            payload: 2,
            senders: Senders::RoundRobin,
        }
    }
}

impl UniformWorkload {
    /// When op `i` is injected and by whom, in a group of `n`.
    fn arrival(&self, i: u32, n: usize) -> (Time, ProcessId) {
        let sender = match self.senders {
            Senders::RoundRobin => ProcessId::new(i % n as u32),
            Senders::One(p) => p,
        };
        (self.start + self.interval.saturating_mul(i as u64), sender)
    }
}

impl Workload for UniformWorkload {
    fn inject(&self, n: usize, target: &mut dyn GroupTransport) -> Vec<Time> {
        let mut times = Vec::with_capacity(self.msgs as usize);
        for i in 0..self.msgs {
            let (t, sender) = self.arrival(i, n);
            target.abcast_build_at(t, sender, &mut |buf| {
                write_payload(i as usize, self.payload, buf)
            });
            times.push(t);
        }
        times
    }
}

/// An open-loop stream: a fixed *offered load* in messages per second,
/// injected on a rigid arrival clock that does not wait for the group —
/// the saturation-measurement shape, where offered load can exceed what the
/// protocol sustains. Arrivals are evenly spaced (arrival `i` lands at
/// `start + i/rate`), so a run is deterministic and independent of the
/// group's progress.
#[derive(Clone, Debug)]
pub struct OpenLoopWorkload {
    /// Offered load in messages per second (> 0).
    pub rate: u64,
    /// Injection time of the first arrival.
    pub start: Time,
    /// Length of the injection window; arrivals land in `[start, start+duration)`.
    pub duration: TimeDelta,
    /// Payload size in bytes (minimum 2; the head carries the op tag).
    pub payload: usize,
    /// Sender selection.
    pub senders: Senders,
}

impl OpenLoopWorkload {
    /// `rate` messages per second for `duration_ms` ms starting at 1 ms,
    /// 2-byte payloads, round-robin senders.
    pub fn per_second(rate: u64, duration_ms: u64) -> Self {
        OpenLoopWorkload {
            rate,
            start: Time::from_millis(1),
            duration: TimeDelta::from_millis(duration_ms),
            payload: 2,
            senders: Senders::RoundRobin,
        }
    }

    /// Number of arrivals in the window: `floor(rate × duration)`.
    pub fn count(&self) -> usize {
        ((self.rate as u128 * self.duration.as_nanos() as u128) / 1_000_000_000) as usize
    }

    /// The arrival clock: `(time, sender)` of every op, in op-tag order.
    /// Ops are tagged `0..count`, so the count must fit the `u16` payload
    /// tag (asserted at injection).
    pub fn arrivals(&self, n: usize) -> Vec<(Time, ProcessId)> {
        let rate = self.rate.max(1);
        (0..self.count())
            .map(|i| {
                let offset =
                    TimeDelta::from_nanos(((i as u128 * 1_000_000_000) / rate as u128) as u64);
                let sender = match self.senders {
                    Senders::RoundRobin => ProcessId::new(i as u32 % n as u32),
                    Senders::One(p) => p,
                };
                (self.start + offset, sender)
            })
            .collect()
    }
}

/// A zipf-skewed-sender stream: sender ranks follow a zipf distribution with
/// exponent `s` (rank 0 = process 0 hottest), sampled from a dedicated
/// deterministic PRNG — the shape real group-communication deployments show
/// when a few publishers dominate.
#[derive(Clone, Debug)]
pub struct SkewedWorkload {
    /// The underlying stream timing/sizing.
    pub base: UniformWorkload,
    /// Zipf exponent (1.0 = classic zipf; larger = more skew).
    pub zipf_s: f64,
    /// Seed of the sender-selection PRNG (independent of the network seed).
    pub seed: u64,
}

impl SkewedWorkload {
    /// A zipf(1.2) variant of [`UniformWorkload::steady`].
    pub fn steady(msgs: u32, interval_ms: u64) -> Self {
        SkewedWorkload {
            base: UniformWorkload::steady(msgs, interval_ms),
            zipf_s: 1.2,
            seed: 0x5eed,
        }
    }

    /// The cumulative zipf distribution over `n` ranks.
    fn cdf(&self, n: usize) -> Vec<f64> {
        let weights: Vec<f64> = (1..=n)
            .map(|r| 1.0 / (r as f64).powf(self.zipf_s))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect()
    }
}

impl Workload for SkewedWorkload {
    fn inject(&self, n: usize, target: &mut dyn GroupTransport) -> Vec<Time> {
        let cdf = self.cdf(n);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut times = Vec::with_capacity(self.base.msgs as usize);
        for i in 0..self.base.msgs {
            let t = self.base.start + self.base.interval.saturating_mul(i as u64);
            let u: f64 = rng.gen();
            let rank = cdf.iter().position(|&c| u < c).unwrap_or(n - 1);
            target.abcast_build_at(t, ProcessId::new(rank as u32), &mut |buf| {
                write_payload(i as usize, self.base.payload, buf)
            });
            times.push(t);
        }
        times
    }
}

/// The uniform stream through **generic broadcast** (new architecture only)
/// under the paper's §3.3 relation: ops are g-broadcast in
/// [`MessageClass::RBCAST`], which conflicts with nothing of its own class
/// and rides the fast path, except every `conflict_every`-th, which goes out
/// in [`MessageClass::ABCAST`], conflicts with everything and forces an
/// epoch closure through consensus.
#[derive(Clone, Debug)]
pub struct GenericWorkload {
    /// The underlying stream timing/sizing.
    pub base: UniformWorkload,
    /// One op in this many is in the conflicting class; 0 means none.
    pub conflict_every: u32,
}

impl GenericWorkload {
    /// `msgs` g-broadcasts at `rate` per second starting at 1 ms, 2-byte
    /// payloads, round-robin senders, one in `conflict_every` conflicting.
    pub fn per_second(msgs: u32, rate: u64, conflict_every: u32) -> Self {
        let mut base = UniformWorkload::steady(msgs, 0);
        base.interval = TimeDelta::from_nanos(1_000_000_000 / rate.max(1));
        GenericWorkload {
            base,
            conflict_every,
        }
    }

    /// The class of op `i`.
    pub fn class_of(&self, i: u32) -> MessageClass {
        if self.conflict_every > 0 && i % self.conflict_every == self.conflict_every - 1 {
            MessageClass::ABCAST
        } else {
            MessageClass::RBCAST
        }
    }
}

impl Workload for GenericWorkload {
    fn inject(&self, n: usize, target: &mut dyn GroupTransport) -> Vec<Time> {
        let base = &self.base;
        let mut times = Vec::with_capacity(base.msgs as usize);
        for i in 0..base.msgs {
            let (t, sender) = base.arrival(i, n);
            let payload = target
                .arena()
                .build(|buf| write_payload(i as usize, base.payload, buf));
            target.gbcast_ref_at(t, sender, self.class_of(i), payload);
            times.push(t);
        }
        times
    }
}

/// A uniform stream with membership churn riding on it: the first joiner
/// enters the group mid-stream and a founding member is removed shortly
/// after — the join-under-load scenario of the paper's §4.4.
#[derive(Clone, Debug)]
pub struct ChurnWorkload {
    /// The underlying stream.
    pub base: UniformWorkload,
    /// When the joiner requests membership.
    pub join_at: Time,
    /// When the removal is issued.
    pub remove_at: Time,
}

impl ChurnWorkload {
    /// A churn variant of [`UniformWorkload::steady`] with the join and
    /// removal landing inside the stream.
    pub fn steady(msgs: u32, interval_ms: u64, join_at_ms: u64, remove_at_ms: u64) -> Self {
        ChurnWorkload {
            base: UniformWorkload::steady(msgs, interval_ms),
            join_at: Time::from_millis(join_at_ms),
            remove_at: Time::from_millis(remove_at_ms),
        }
    }
}

impl Workload for ChurnWorkload {
    fn inject(&self, n: usize, target: &mut dyn GroupTransport) -> Vec<Time> {
        // The stream is the uniform one restricted to the survivors:
        // round-robin senders skip the removal victim (the last founding
        // member, see schedule()), and a fixed sender is honored as long as
        // it is a survivor.
        let survivors = (n - 1).max(1);
        if let Senders::One(p) = self.base.senders {
            assert!(
                p.index() < survivors,
                "churn sender {p:?} is the removal victim or out of range"
            );
        }
        self.base.inject(survivors, target)
    }

    fn schedule(&self, n: usize, joiners: usize) -> Schedule {
        let mut s = Schedule::new();
        if joiners > 0 {
            // The first joiner enters via p1 (p0 may be busy coordinating).
            s = s.join(self.join_at, ProcessId::new(n as u32), ProcessId::new(1));
        }
        // The last founding member is removed by p0.
        s = s.remove(
            self.remove_at,
            ProcessId::new(0),
            ProcessId::new(n as u32 - 1),
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use gcs_api::{Capabilities, Observation, StackKind};
    use gcs_kernel::{PayloadRef, SharedArena};

    /// A transport stub that records the broadcast stream instead of
    /// running a simulation — the only surface workloads touch is the
    /// injection path.
    #[derive(Default)]
    struct Recorder {
        arena: SharedArena,
        ops: Vec<(Time, ProcessId, Vec<u8>)>,
        /// The class of each op that came in through `gbcast_ref_at`.
        classes: Vec<MessageClass>,
    }
    impl GroupTransport for Recorder {
        fn stack(&self) -> StackKind {
            StackKind::NewArch
        }
        fn abcast_ref_at(&mut self, t: Time, p: ProcessId, payload: PayloadRef) {
            let bytes = self.arena.get(payload).to_vec();
            self.ops.push((t, p, bytes));
        }
        fn arena(&self) -> &SharedArena {
            &self.arena
        }
        // Workloads touch nothing below: whatever does is a bug in the test.
        fn process_count(&self) -> usize {
            unimplemented!()
        }
        fn capabilities(&self) -> Capabilities {
            unimplemented!()
        }
        fn conflicts(&self, _: MessageClass, _: MessageClass) -> bool {
            unimplemented!()
        }
        fn gbcast_ref_at(&mut self, t: Time, p: ProcessId, c: MessageClass, payload: PayloadRef) {
            self.classes.push(c);
            self.abcast_ref_at(t, p, payload);
        }
        fn rbcast_ref_at(&mut self, _: Time, _: ProcessId, _: PayloadRef) {
            unimplemented!()
        }
        fn set_abcast_capacity(&mut self, _: Option<usize>) {
            unimplemented!()
        }
        fn abcast_capacity(&self) -> Option<usize> {
            unimplemented!()
        }
        fn queue_depth(&self, _: ProcessId) -> usize {
            unimplemented!()
        }
        fn queue_high_water(&self) -> usize {
            unimplemented!()
        }
        fn apply_schedule(&mut self, _: &Schedule) {
            unimplemented!()
        }
        fn now(&self) -> Time {
            unimplemented!()
        }
        fn run_until(&mut self, _: Time) {
            unimplemented!()
        }
        fn run_to_quiescence(&mut self, _: Time) -> bool {
            unimplemented!()
        }
        fn metrics(&self) -> &gcs_sim::Metrics {
            unimplemented!()
        }
        fn events_executed(&self) -> u64 {
            unimplemented!()
        }
        fn alive_flags(&self) -> Vec<bool> {
            unimplemented!()
        }
        fn delivery_count(&self) -> u64 {
            unimplemented!()
        }
        fn observe(&self, _: &mut dyn FnMut(Time, ProcessId, Observation<'_>)) {
            unimplemented!()
        }
    }

    #[test]
    fn payload_tag_round_trips() {
        let p = payload_for(513, 16);
        assert_eq!(p.len(), 16);
        assert_eq!(decode_op_index(&p), Some(513));
        assert_eq!(decode_op_index(&[1]), None);
    }

    #[test]
    fn uniform_round_robins_senders_on_schedule() {
        let w = UniformWorkload::steady(6, 2);
        let mut r = Recorder::default();
        let times = w.inject(3, &mut r);
        assert_eq!(times.len(), 6);
        assert_eq!(r.ops[0].0, Time::from_millis(1));
        assert_eq!(r.ops[1].0, Time::from_millis(3));
        let senders: Vec<u32> = r.ops.iter().map(|(_, s, _)| s.index() as u32).collect();
        assert_eq!(senders, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(decode_op_index(&r.ops[4].2), Some(4));
    }

    #[test]
    fn zero_interval_steady_is_a_single_instant_burst() {
        let w = UniformWorkload::steady(5, 0);
        let mut r = Recorder::default();
        let times = w.inject(3, &mut r);
        assert!(times.iter().all(|&t| t == Time::from_millis(1)));
        // All five ops land, distinctly tagged, senders still round-robin.
        let tags: Vec<_> = r
            .ops
            .iter()
            .filter_map(|(_, _, p)| decode_op_index(p))
            .collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
        let senders: Vec<u32> = r.ops.iter().map(|(_, s, _)| s.index() as u32).collect();
        assert_eq!(senders, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn open_loop_spaces_arrivals_at_the_offered_rate() {
        let w = OpenLoopWorkload::per_second(1000, 50);
        assert_eq!(w.count(), 50);
        let arrivals = w.arrivals(4);
        assert_eq!(arrivals.len(), 50);
        assert_eq!(arrivals[0].0, Time::from_millis(1));
        // 1000 msgs/s = one arrival per ms.
        assert_eq!(arrivals[10].0, Time::from_millis(11));
        assert_eq!(arrivals[10].1, ProcessId::new(2));
    }

    #[test]
    fn skewed_senders_follow_zipf() {
        let w = SkewedWorkload::steady(400, 1);
        let mut r = Recorder::default();
        w.inject(8, &mut r);
        let mut counts = [0usize; 8];
        for (_, s, _) in &r.ops {
            counts[s.index()] += 1;
        }
        assert!(
            counts[0] > counts[7] * 3,
            "rank 0 dominates rank 7: {counts:?}"
        );
        assert!(counts[0] > counts[1], "monotone head: {counts:?}");
        // Deterministic: a second injection produces the same senders.
        let mut r2 = Recorder::default();
        w.inject(8, &mut r2);
        assert_eq!(r.ops, r2.ops);
    }

    #[test]
    fn churn_schedule_joins_and_removes() {
        let w = ChurnWorkload::steady(10, 2, 8, 12);
        let s = w.schedule(4, 1);
        assert_eq!(s.len(), 2);
        let mut r = Recorder::default();
        w.inject(4, &mut r);
        // Senders avoid the removal victim p3.
        assert!(r.ops.iter().all(|(_, s, _)| s.index() < 3));
    }

    #[test]
    fn generic_stream_puts_every_kth_op_in_the_conflicting_class() {
        let w = GenericWorkload::per_second(8, 2000, 4);
        let mut r = Recorder::default();
        let times = w.inject(5, &mut r);
        assert_eq!(times[1], Time::from_micros(1500), "2,000 ops/s");
        let conflicting: Vec<usize> = (0..8)
            .filter(|&i| r.classes[i] == MessageClass::ABCAST)
            .collect();
        assert_eq!(conflicting, vec![3, 7]);
        assert_eq!(decode_op_index(&r.ops[5].2), Some(5));
        assert_eq!(r.ops[5].1, ProcessId::new(0), "round-robin over 5");
        // conflict_every = 0: a conflict-free stream.
        let mut r = Recorder::default();
        GenericWorkload::per_second(8, 2000, 0).inject(5, &mut r);
        assert!(r.classes.iter().all(|&c| c == MessageClass::RBCAST));
    }

    #[test]
    fn large_payload_size_is_respected() {
        let w = UniformWorkload {
            payload: 4096,
            ..UniformWorkload::steady(2, 5)
        };
        let mut r = Recorder::default();
        w.inject(3, &mut r);
        assert_eq!(r.ops[0].2.len(), 4096);
    }
}

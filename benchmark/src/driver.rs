//! One rep: build a fresh group, warm it up, drive it for the window,
//! drain, observe, check. Everything goes through the `GroupTransport`
//! façade, so the refactors on the ROADMAP cannot break the benchmark.
//!
//! Clocks. A live group's `Time` is wall ns since the group started; the
//! façade has no "now", so the driver anchors its own `Instant` immediately
//! before `build()` and treats the two epochs as one (the runtime creates
//! its clock first thing inside `build`; the skew is a few µs against
//! latencies of a millisecond and up). A sim group's `Time` is virtual.

use std::time::{Duration, Instant};

use gcs::core::{DeliveryKind, MessageClass, StackConfig};
use gcs::kernel::{ProcessId, Time, TimeDelta};
use gcs::sim::{Metrics, Schedule, Topology};
use gcs::traditional::{IsisConfig, TokenConfig};
use gcs::{Backend, Group, GroupTransport, InvariantChecker, TransportDelivery};

use crate::layers::WireDelta;
use crate::procstat::ThreadSample;
use crate::spec::{Load, Workload, STACKS};
use crate::stats;
use crate::trace::{OpSpan, Sample, Tracer, MAX_OP_SPANS};

/// A live drain that has not completed every op by then fails the rest.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// Virtual drain on the simulator (no new ops are due after the window).
/// Short, because it is paid per group and a rep runs hundreds of them; an
/// op that needs longer than this counts as failed.
const SIM_DRAIN: TimeDelta = TimeDelta::from_secs(1);
/// A live window's completions are cut into blocks of this many rounds of
/// the closed loop (a round is `outstanding` ops; they complete in bursts of
/// about that size, so a block of whole rounds has a steady duration), and
/// every block is one slice of the run (see `report::fast_decile`): a
/// scheduling hiccup spoils a block, not the rep.
const LIVE_BLOCK_ROUNDS: usize = 4;
/// Step of a traced rep: counters are sampled at every step edge.
const LIVE_STEP: Duration = Duration::from_millis(50);
const SIM_STEP: TimeDelta = TimeDelta::from_millis(10);
/// The baselines' failure-suspicion timeout on the live workloads. Nobody
/// crashes there, so it can only ever fire on scheduling delay — and with
/// the 50 ms token-loss default it does, in about one `live-tcp-4k` rep in
/// fifty on the 2-core box: the ring reforms and loses the ops in flight
/// (README, known findings). A capacity workload must not trip over that.
const LIVE_SUSPICION_TIMEOUT: TimeDelta = TimeDelta::from_millis(500);
/// Closed-loop back-off after a refusal.
const REFUSAL_SLEEP: Duration = Duration::from_micros(100);

/// Payload head: the op id, little-endian.
pub fn write_op(id: u32, size: usize, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&id.to_le_bytes());
    buf.resize(size.max(4), (id % 251) as u8);
}

pub fn read_op(payload: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(payload.get(..4)?.try_into().ok()?))
}

/// splitmix64: the inputs a seed stands for (senders, classes).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Wall time spent in each kind of façade call, ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timings {
    pub build_ns: u64,
    pub inject_ns: u64,
    pub run_ns: u64,
    pub observe_ns: u64,
    pub oracle_ns: u64,
    pub shutdown_ns: u64,
}

/// Everything one rep measured. A rep of several groups (`sim-crash`) is
/// the sum of its groups: counts and times add, latency samples pool.
#[derive(Debug, Default)]
pub struct Rep {
    /// Per group: wall seconds from "start building" to "window opens".
    pub setups_s: Vec<f64>,
    /// Completions per wall second in each slice of the window. A slice is
    /// one group's whole window on sim and [`LIVE_BLOCK_ROUNDS`] rounds of
    /// completions on live.
    pub slice_rates: Vec<f64>,
    /// Median due → delivered-everywhere latency of the ops that completed
    /// in each slice, ms.
    pub slice_p50_ms: Vec<f64>,
    /// Length of the window on the group clock, seconds.
    pub window_group_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Ops whose last delivery fell inside the window.
    pub completed_in_window: u64,
    /// Due → delivered at every live member, ms, sorted; complete ops due in
    /// the window only.
    pub lat_ms: Vec<f64>,
    /// Due → first member, ms, sorted.
    pub first_ms: Vec<f64>,
    /// First → last member, ms, sorted.
    pub spread_ms: Vec<f64>,
    /// Per group: longest gap between consecutive completions in the window.
    pub outage_ms: Vec<f64>,
    pub violations: Vec<String>,
    pub wire: WireDelta,
    pub events: u64,
    pub deliveries: u64,
    /// Distinct delivery instants at p1 inside the window.
    pub bursts: u64,
    pub views_installed: u64,
    pub gb_deliveries: u64,
    pub gb_fast: u64,
    pub timings: Timings,
    pub refusals: u64,
    pub threads: Option<(ThreadSample, ThreadSample)>,
}

impl Rep {
    /// One slice: `(completed at, latency ms)` of its ops, and the wall
    /// seconds it took.
    fn push_slice(&mut self, completions: &[(u64, f64)], wall_s: f64) {
        if completions.is_empty() {
            return;
        }
        self.slice_rates.push(completions.len() as f64 / wall_s);
        let mut lat_ms: Vec<f64> = completions.iter().map(|c| c.1).collect();
        stats::sort(&mut lat_ms);
        self.slice_p50_ms.push(stats::quantile(&lat_ms, 0.5));
    }

    /// Cuts time-ordered completions into blocks of `ops`, each one slice
    /// timed from the block before it (the first from `start_ns`) to its own
    /// last completion; a last partial block is left out.
    fn push_blocks(&mut self, completions: &[(u64, f64)], ops: usize, mut start_ns: u64) {
        for block in completions.chunks_exact(ops) {
            let end_ns = block[ops - 1].0;
            self.push_slice(block, (end_ns - start_ns) as f64 / 1e9);
            start_ns = end_ns;
        }
    }
}

fn stack_config() -> StackConfig {
    // As everywhere in the repo's harnesses: exclusions come from the
    // script, not from monitoring racing the measurement.
    StackConfig {
        monitoring_timeout: TimeDelta::from_secs(3600),
        ..StackConfig::default()
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Per-op delivery bookkeeping, filled from the delivery trace.
struct Ops {
    /// Group-clock due time per op id.
    due: Vec<u64>,
    count: Vec<u16>,
    first: Vec<u64>,
    last: Vec<u64>,
}

impl Ops {
    fn with_capacity(n: usize) -> Ops {
        Ops {
            due: Vec::with_capacity(n),
            count: Vec::new(),
            first: Vec::new(),
            last: Vec::new(),
        }
    }

    /// Counts, per op, the deliveries at the `steady` members.
    fn observe(&mut self, g: &Group, trace: &[TransportDelivery], steady: &[bool]) {
        let n = self.due.len();
        self.count = vec![0; n];
        self.first = vec![u64::MAX; n];
        self.last = vec![0; n];
        for d in trace {
            if !steady[d.proc.index()] {
                continue;
            }
            let Some(id) = read_op(&g.resolve(d.payload)) else {
                continue;
            };
            let id = id as usize;
            if id >= n {
                continue;
            }
            let t = d.time.as_nanos();
            self.count[id] += 1;
            self.first[id] = self.first[id].min(t);
            self.last[id] = self.last[id].max(t);
        }
    }

    /// Complete: every steady member has delivered the op.
    fn complete(&self, id: usize, steady_members: u16) -> bool {
        self.count[id] >= steady_members
    }
}

/// The members an op must reach to count as complete: alive at the end of
/// the run and never reset. A member the baselines killed or excluded on a
/// false suspicion and re-admitted (Isis §4.3, token exclusion) is a new
/// incarnation that got a state transfer instead of the deliveries it
/// missed — the oracle draws the same line.
fn steady_members(g: &Group) -> (Vec<bool>, u16) {
    let steady: Vec<bool> = g
        .alive_flags()
        .into_iter()
        .zip(g.resets())
        .map(|(alive, resets)| alive && resets.is_empty())
        .collect();
    let count = steady.iter().filter(|s| **s).count() as u16;
    (steady, count)
}

/// Samples the group's counters at a step edge of a traced rep.
fn sample(tracer: &mut Tracer, g: &Group, group_ns: u64) {
    let m = g.metrics();
    let s = Sample {
        wall_ns: tracer.now_ns(),
        group_ns,
        events: g.events_executed(),
        deliveries: g.delivery_count(),
        wire_msgs: m.total_sent(),
        wire_bytes: m.total_bytes(),
    };
    tracer.rep().samples.push(s);
}

/// A live group's metrics are a snapshot refreshed by `run_until`; a
/// deadline in the past returns at once with a fresh one.
fn fresh_metrics(g: &mut Group) -> Metrics {
    g.run_until(Time::ZERO);
    g.metrics().clone()
}

pub struct RepPlan<'a> {
    pub workload: &'a Workload,
    /// Index into [`STACKS`].
    pub stack: usize,
    pub seed: u64,
    /// Sim only: fresh groups this rep runs back to back.
    pub groups: usize,
    /// Live only: this rep's window, wall seconds.
    pub window_s: f64,
    /// Sim only: schedule no ops at all (the idle-cost probe).
    pub idle: bool,
}

pub fn run_rep(plan: &RepPlan, mut tracer: Option<&mut Tracer>) -> Rep {
    if let Some(t) = tracer.as_deref_mut() {
        t.begin_rep(STACKS[plan.stack].1);
    }
    let mut rep = match plan.workload.load {
        Load::Closed { .. } => run_live(plan, tracer),
        Load::Sim { .. } => {
            let mut rep = Rep::default();
            for group in 0..plan.groups {
                // Only the first group of a traced rep is stepped and sampled:
                // one group's spans are the picture, the rest repeat it.
                let t = if group == 0 {
                    tracer.as_deref_mut()
                } else {
                    None
                };
                run_sim_group(plan, group as u64, &mut rep, t);
            }
            rep
        }
    };
    stats::sort(&mut rep.lat_ms);
    stats::sort(&mut rep.first_ms);
    stats::sort(&mut rep.spread_ms);
    rep
}

// ---------------------------------------------------------------------------
// Live backend: closed loop
// ---------------------------------------------------------------------------

/// The load generator of a closed loop (the benchmark's main thread).
struct ClosedLoop {
    rng: Rng,
    members: u64,
    payload: usize,
    /// Traced reps time every façade call.
    timed: bool,
    inject_ns: u64,
    refusals: u64,
}

impl ClosedLoop {
    /// Offers the next op id from a seeded sender. A refusal backs off and
    /// the same id is offered again on the next call: a closed-loop client
    /// waits for room, it does not give up.
    fn offer(&mut self, g: &mut Group, ops: &mut Ops, now_ns: u64) {
        let id = ops.due.len() as u32;
        let sender = ProcessId::new(self.rng.below(self.members) as u32);
        let payload = self.payload;
        let started = self.timed.then(Instant::now);
        let res = g.try_abcast_build_at(Time::ZERO, sender, &mut |buf| write_op(id, payload, buf));
        if let Some(s) = started {
            self.inject_ns += ns(s.elapsed());
        }
        match res {
            Ok(()) => ops.due.push(now_ns),
            Err(_) => {
                self.refusals += 1;
                std::thread::sleep(REFUSAL_SLEEP);
            }
        }
    }
}

fn run_live(plan: &RepPlan, mut tracer: Option<&mut Tracer>) -> Rep {
    let w = plan.workload;
    let Load::Closed {
        wire,
        outstanding,
        warmup_ops,
    } = w.load
    else {
        unreachable!("sim workloads run in run_sim_group");
    };
    let (kind, _) = STACKS[plan.stack];
    let n = w.members;
    let mut rep = Rep::default();

    let rep_start = Instant::now();
    let lan = Topology::lan();
    let builder = Group::builder()
        .members(n)
        .stack(kind)
        .backend(Backend::Live)
        .wire(wire)
        .stack_config(stack_config())
        .isis_config(IsisConfig {
            fd_timeout: LIVE_SUSPICION_TIMEOUT,
            ..IsisConfig::for_topology(&lan)
        })
        .token_config(TokenConfig {
            token_timeout: LIVE_SUSPICION_TIMEOUT,
            ..TokenConfig::for_topology(&lan, n)
        })
        .topology(lan)
        .abcast_capacity(outstanding)
        .seed(plan.seed);
    let epoch = Instant::now();
    let mut g = builder.build();
    let built = Instant::now();
    rep.timings.build_ns = ns(built - epoch);
    if let Some(t) = tracer.as_deref_mut() {
        t.span("api.build", epoch, built);
    }
    let group_now = |at: Instant| ns(at - epoch);

    let mut ops = Ops::with_capacity(warmup_ops as usize + 400_000);
    let mut client = ClosedLoop {
        rng: Rng::new(plan.seed),
        members: n as u64,
        payload: w.payload,
        timed: tracer.is_some(),
        inject_ns: 0,
        refusals: 0,
    };

    // Warm-up: the same closed loop until `warmup_ops` are accepted.
    while ops.due.len() < warmup_ops as usize {
        let now = Instant::now();
        client.offer(&mut g, &mut ops, group_now(now));
    }
    client.inject_ns = 0;
    client.refusals = 0;
    let first_measured = ops.due.len() as u32;
    let threads_before = client.timed.then(ThreadSample::take).flatten();
    let metrics_before = fresh_metrics(&mut g);
    let events_before = g.events_executed();
    let window_start = Instant::now();
    rep.setups_s.push((window_start - rep_start).as_secs_f64());

    let window = Duration::from_secs_f64(plan.window_s);
    let mut next_step = window_start + LIVE_STEP;
    loop {
        let now = Instant::now();
        if now >= window_start + window {
            break;
        }
        if let Some(t) = tracer.as_deref_mut() {
            if now >= next_step {
                g.run_until(Time::ZERO);
                sample(t, &g, group_now(now));
                next_step += LIVE_STEP;
            }
        }
        client.offer(&mut g, &mut ops, group_now(now));
    }
    let window_end = Instant::now();
    let threads_after = client.timed.then(ThreadSample::take).flatten();
    let metrics_after = fresh_metrics(&mut g);
    rep.timings.inject_ns = client.inject_ns;
    rep.refusals = client.refusals;
    rep.events = g.events_executed() - events_before;
    rep.threads = threads_before.zip(threads_after);
    rep.window_group_s = (window_end - window_start).as_secs_f64();
    rep.timings.run_ns = ns(window_end - window_start);
    if let Some(t) = tracer.as_deref_mut() {
        t.span("live.run", window_start, window_end);
    }
    match WireDelta::between(&metrics_before, &metrics_after) {
        Ok(wire) => rep.wire = wire,
        Err(e) => rep.violations.push(e),
    }

    // Drain: no new ops; wait until every live member has delivered
    // everything, or the deadline passes. The counter is a cheap first
    // gate (it also counts view installations); the trace decides.
    let total = ops.due.len();
    let drain_start = Instant::now();
    while g.delivery_count() < (total * n) as u64 && drain_start.elapsed() < DRAIN_DEADLINE {
        std::thread::sleep(Duration::from_millis(2));
    }
    let (trace, steady_count) = loop {
        let observe_start = Instant::now();
        let trace = g.delivery_trace();
        let (steady, steady_count) = steady_members(&g);
        ops.observe(&g, &trace, &steady);
        let observed = Instant::now();
        rep.timings.observe_ns = ns(observed - observe_start);
        let done = (0..total).all(|id| ops.complete(id, steady_count));
        if done || drain_start.elapsed() >= DRAIN_DEADLINE {
            if let Some(t) = tracer.as_deref_mut() {
                t.span("api.observe", observe_start, observed);
            }
            break (trace, steady_count);
        }
        std::thread::sleep(Duration::from_millis(20));
    };

    finish(
        plan,
        &mut rep,
        &ops,
        &g,
        &trace,
        Window {
            first_measured,
            start_ns: group_now(window_start),
            end_ns: group_now(window_end),
            steady_count,
            slices: Slices::Blocks(outstanding * LIVE_BLOCK_ROUNDS),
        },
        tracer.as_deref_mut(),
    );
    // Freeing the trace is not part of shutting the group down.
    drop(trace);

    // Dropping the group stops and joins its threads — also on a panic
    // above, where unwinding drops it.
    let shutdown_start = Instant::now();
    drop(g);
    let stopped = Instant::now();
    rep.timings.shutdown_ns = ns(stopped - shutdown_start);
    if let Some(t) = tracer {
        t.span("live.shutdown", shutdown_start, stopped);
    }
    rep
}

// ---------------------------------------------------------------------------
// Sim backend: every op scheduled up front
// ---------------------------------------------------------------------------

fn run_sim_group(plan: &RepPlan, group: u64, rep: &mut Rep, mut tracer: Option<&mut Tracer>) {
    let w = plan.workload;
    let Load::Sim {
        loss,
        rate,
        window_virtual_s,
        warmup_virtual_s,
        generic,
        crash_share,
        ..
    } = w.load
    else {
        unreachable!("live workloads run in run_live");
    };
    let (kind, _) = STACKS[plan.stack];
    let n = w.members;
    // Each group of a rep is its own seeded world.
    let seed = plan.seed.wrapping_add(group.wrapping_mul(0x1_0000));
    let mut rng = Rng::new(seed);

    // Op i is due at (i+1)/rate: nothing is due at time zero, before the
    // members have started.
    let warmup_ns = (warmup_virtual_s * 1e9) as u64;
    let window_ns = (window_virtual_s * 1e9) as u64;
    let window_end_ns = warmup_ns + window_ns;
    let gap_ns = 1_000_000_000 / rate;
    let total = if plan.idle {
        0
    } else {
        (window_end_ns / gap_ns).saturating_sub(1)
    };

    let group_start = Instant::now();
    let mut builder = Group::builder()
        .members(n)
        .stack(kind)
        .backend(Backend::Sim)
        .topology(Topology::lan())
        .stack_config(stack_config())
        .seed(seed);
    if loss[plan.stack] > 0.0 {
        builder = builder.schedule(Schedule::new().loss_burst(
            Time::ZERO,
            TimeDelta::from_nanos(window_end_ns),
            loss[plan.stack],
        ));
    }
    let mut g = builder.build();
    let built = Instant::now();
    rep.timings.build_ns += ns(built - group_start);

    let mut ops = Ops::with_capacity(total as usize);
    let mut first_measured = 0u32;
    let use_gbcast = generic && g.supports_gbcast();
    // With a crash scheduled, p0 sends nothing: no op is lost with its
    // sender, so every op must complete at the survivors.
    let first_sender: u64 = if crash_share.is_some() { 1 } else { 0 };
    for id in 0..total as u32 {
        let due = (id as u64 + 1) * gap_ns;
        if due < warmup_ns {
            first_measured = id + 1;
        }
        let sender = ProcessId::new((first_sender + rng.below(n as u64 - first_sender)) as u32);
        // One op in a hundred is in the conflicting class.
        let conflicting = rng.below(100) == 0;
        let t = Time::from_nanos(due);
        if use_gbcast {
            let class = if conflicting {
                MessageClass::ABCAST
            } else {
                MessageClass::RBCAST
            };
            let mut buf = Vec::with_capacity(w.payload);
            write_op(id, w.payload, &mut buf);
            g.gbcast_bytes_at(t, sender, class, buf.into());
        } else {
            g.abcast_build_at(t, sender, &mut |buf| write_op(id, w.payload, buf));
        }
        ops.due.push(due);
    }
    if let Some(share) = crash_share {
        let at = warmup_ns + (window_ns as f64 * share) as u64;
        g.crash_at(Time::from_nanos(at), ProcessId::new(0));
    }
    let injected = Instant::now();
    rep.timings.inject_ns += ns(injected - built);

    g.run_until(Time::from_nanos(warmup_ns));
    let metrics_before = g.metrics().clone();
    let events_before = g.events_executed();
    let window_start = Instant::now();
    rep.setups_s
        .push((window_start - group_start).as_secs_f64());
    if let Some(t) = tracer.as_deref_mut() {
        t.span("api.build", group_start, built);
        t.span("api.inject", built, injected);
    }

    match tracer.as_deref_mut() {
        Some(t) => {
            let mut at = warmup_ns;
            sample(t, &g, at);
            while at < window_end_ns {
                at = (at + SIM_STEP.as_nanos()).min(window_end_ns);
                g.run_until(Time::from_nanos(at));
                sample(t, &g, at);
            }
        }
        None => g.run_until(Time::from_nanos(window_end_ns)),
    }
    let window_end = Instant::now();
    rep.timings.run_ns += ns(window_end - window_start);
    rep.window_group_s += window_ns as f64 / 1e9;
    rep.events += g.events_executed() - events_before;
    match WireDelta::between(&metrics_before, g.metrics()) {
        Ok(wire) => rep.wire.add(&wire),
        Err(e) => rep.violations.push(e),
    }
    if let Some(t) = tracer.as_deref_mut() {
        t.span("sim.run", window_start, window_end);
    }

    g.run_until(Time::from_nanos(window_end_ns).saturating_add(SIM_DRAIN));
    let observe_start = Instant::now();
    let trace = g.delivery_trace();
    let (steady, steady_count) = steady_members(&g);
    ops.observe(&g, &trace, &steady);
    let observed = Instant::now();
    rep.timings.observe_ns += ns(observed - observe_start);
    if let Some(t) = tracer.as_deref_mut() {
        t.span("api.observe", observe_start, observed);
    }

    finish(
        plan,
        rep,
        &ops,
        &g,
        &trace,
        Window {
            first_measured,
            start_ns: warmup_ns,
            end_ns: window_end_ns,
            steady_count,
            slices: Slices::Whole {
                wall_s: (window_end - window_start).as_secs_f64(),
            },
        },
        tracer,
    );
}

// ---------------------------------------------------------------------------
// Shared tail: latencies, stages, oracle
// ---------------------------------------------------------------------------

struct Window {
    /// First op id due inside the window.
    first_measured: u32,
    /// Window bounds on the group clock.
    start_ns: u64,
    end_ns: u64,
    /// How many members an op must reach to be complete.
    steady_count: u16,
    slices: Slices,
}

/// How a window is cut into slices.
enum Slices {
    /// The window is one slice that took this long on the wall clock (sim:
    /// the group clock is virtual, only the whole `run_until` is timed).
    Whole { wall_s: f64 },
    /// Blocks of this many consecutive completions, each timed on the group
    /// clock (live: it is the wall clock); a last partial block is left out.
    Blocks(usize),
}

/// Adds one group's observations to `rep` (latency vectors are left
/// unsorted; the caller sorts once all groups are in).
fn finish(
    plan: &RepPlan,
    rep: &mut Rep,
    ops: &Ops,
    g: &Group,
    trace: &[TransportDelivery],
    win: Window,
    tracer: Option<&mut Tracer>,
) {
    let measured = win.first_measured as usize..ops.due.len();
    rep.attempted += measured.len() as u64;
    rep.deliveries += trace.len() as u64;

    let mut completions = Vec::new();
    for id in 0..ops.due.len() {
        if !ops.complete(id, win.steady_count) {
            if measured.contains(&id) {
                rep.failed += 1;
            }
            continue;
        }
        let (due, first, last) = (ops.due[id], ops.first[id], ops.last[id]);
        if (win.start_ns..win.end_ns).contains(&last) {
            completions.push((last, last.saturating_sub(due) as f64 / 1e6));
        }
        if measured.contains(&id) {
            rep.lat_ms.push(last.saturating_sub(due) as f64 / 1e6);
            rep.first_ms.push(first.saturating_sub(due) as f64 / 1e6);
            rep.spread_ms.push((last - first) as f64 / 1e6);
        }
    }
    rep.completed_in_window += completions.len() as u64;
    completions.sort_unstable_by_key(|c| c.0);
    match win.slices {
        Slices::Whole { wall_s } => rep.push_slice(&completions, wall_s),
        Slices::Blocks(ops) => rep.push_blocks(&completions, ops, win.start_ns),
    }
    let longest_gap = completions.windows(2).map(|p| p[1].0 - p[0].0).max();
    rep.outage_ms.push(longest_gap.unwrap_or(0) as f64 / 1e6);

    // Batch size as one member sees it: ops per distinct delivery instant.
    let witness = ProcessId::new(1);
    let mut last_instant = None;
    for d in trace.iter().filter(|d| d.proc == witness) {
        let t = d.time.as_nanos();
        if (win.start_ns..win.end_ns).contains(&t) && last_instant != Some(t) {
            rep.bursts += 1;
            last_instant = Some(t);
        }
        match d.kind {
            DeliveryKind::GenericFast => {
                rep.gb_deliveries += 1;
                rep.gb_fast += 1;
            }
            DeliveryKind::GenericOrdered => rep.gb_deliveries += 1,
            DeliveryKind::Atomic => {}
        }
    }
    rep.views_installed += g.views()[witness.index()].len() as u64;

    let oracle_start = Instant::now();
    let report = InvariantChecker::check(g, plan.workload.members);
    let oracle_end = Instant::now();
    rep.timings.oracle_ns += ns(oracle_end - oracle_start);
    rep.violations
        .extend(report.violations.iter().map(|v| v.to_string()));

    if let Some(t) = tracer {
        t.span("api.oracle", oracle_start, oracle_end);
        let stride = measured.len().div_ceil(MAX_OP_SPANS).max(1);
        let r = t.rep();
        r.op_stride = stride;
        r.ops = measured
            .step_by(stride)
            .filter(|&id| ops.complete(id, win.steady_count))
            .map(|id| OpSpan {
                id: id as u32,
                due_ns: ops.due[id],
                first_ns: ops.first[id],
                last_ns: ops.last[id],
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_id_round_trips_through_the_payload_head() {
        for (id, size) in [
            (0u32, 64usize),
            (1, 4),
            (70_000, 64),
            (u32::MAX, 4096),
            (9, 1),
        ] {
            let mut buf = Vec::new();
            write_op(id, size, &mut buf);
            assert_eq!(buf.len(), size.max(4));
            assert_eq!(read_op(&buf), Some(id));
        }
        assert_eq!(read_op(&[1, 2, 3]), None);
    }

    #[test]
    fn a_live_window_is_cut_into_blocks_of_whole_rounds() {
        // Ten completions 1 ms apart from t = 1 ms, latency = index ms.
        let completions: Vec<(u64, f64)> = (1..=10).map(|i| (i * 1_000_000, i as f64)).collect();
        let mut rep = Rep::default();
        rep.push_blocks(&completions, 4, 0);
        // Two whole blocks of 4 ops in 4 ms each; the last two ops are left out.
        assert_eq!(rep.slice_rates, vec![1000.0, 1000.0]);
        assert_eq!(rep.slice_p50_ms, vec![2.0, 6.0]);
        // A sim group's window is one slice.
        rep.push_slice(&completions, 0.5);
        assert_eq!(rep.slice_rates[2], 20.0);
        // An empty slice (nothing completed) is no sample, not a zero.
        rep.push_slice(&[], 0.5);
        assert_eq!(rep.slice_rates.len(), 3);
    }

    #[test]
    fn same_seed_same_inputs() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.below(5)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}

//! The paper's comparisons (§4.1–4.4, E1–E4) and two ablations (A1, A2).
//! Each printer runs one experiment and prints a markdown table of
//! virtual-time latencies and message counts. EXPERIMENTS.md explains
//! them; `tests/golden/repro_all.md` is their recorded output.
//!
//! Every E1–E4 run is a [`Scenario`] the scenario engine builds, injects
//! and runs; [`Scenario::report`] puts it through the invariant oracle, whose
//! violations land in the list the printers take. Each table cell is a
//! function that returns its numbers; the printers only format them.

use gcs_api::{Group, GroupBuilder, GroupTransport, Observation, StackKind};
use gcs_core::{ConflictRelation, StackConfig};
use gcs_kernel::{
    Component, ComponentId, Context, Event, MessageClass, Process, ProcessId, Time, TimeDelta,
    TimerId,
};
use gcs_replication::bank::{bank_conflicts, CLASS_DEPOSIT, CLASS_WITHDRAW};
use gcs_sim::{LinkModel, Metrics, Runtime, Schedule, SimConfig, SimWorld, Topology};
use gcs_traditional::isis::{blocked_windows, kill_and_rejoin_times};
use gcs_traditional::IsisConfig;
use StackKind::{Isis, NewArch, Token};

use crate::scenario::{Scenario, ScenarioReport};
use crate::workload::{decode_op_index, write_payload, Senders, UniformWorkload, Workload};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// A stack's name in the tables.
fn arch(stack: StackKind) -> &'static str {
    match stack {
        NewArch => "new (AB-GB)",
        Isis => "Isis (GM-VS)",
        Token => "Token (RMP/Totem)",
    }
}

/// A scenario of `n` founding members on the flat LAN, named after the
/// experiment it is a cell of.
fn lan(
    name: &'static str,
    stack: StackKind,
    n: usize,
    workload: impl Workload + 'static,
    schedule: Schedule,
    horizon: Time,
) -> Scenario {
    Scenario {
        name,
        about: "a cell of a paper experiment (`repro all`)",
        stack,
        n,
        joiners: 0,
        topology: Topology::lan(),
        workload: Box::new(workload),
        schedule,
        horizon,
    }
}

/// `msgs` abcasts of `size` bytes from `from`, one every 2 ms from `at_ms`.
fn stream(msgs: u32, at_ms: u64, from: ProcessId, size: usize) -> UniformWorkload {
    let mut w = UniformWorkload::steady(msgs, 2);
    (w.start, w.payload, w.senders) = (Time::from_millis(at_ms), size, Senders::One(from));
    w
}

/// A group [`Scenario::start`] ran, with the injection time of each op.
type Run = (Group, Vec<Time>);

/// The report of `run`, a run of `s` at `seed`. The oracle's violations go
/// to `out`, labelled with the experiment and `cell`.
fn report(s: &Scenario, seed: u64, run: &Run, cell: &str, out: &mut Vec<String>) -> ScenarioReport {
    let r = s.report(seed, &run.0, &run.1);
    for v in &r.violations {
        out.push(format!("{} {cell}: {v}", s.name));
    }
    r
}

/// When the op tagged `op` was first delivered, at any member.
fn first_delivery(g: &Group, op: usize) -> Option<Time> {
    g.delivery_trace()
        .into_iter()
        .find(|d| decode_op_index(&g.resolve(d.payload)) == Some(op))
        .map(|d| d.time)
}

// ---------------------------------------------------------------------------
// E1 — §4.1 "less complex stack": ordering machinery and its cost
// ---------------------------------------------------------------------------

/// Messages of the protocols E1 counts: failure detection (the new
/// architecture's `fd/*`, Isis's heartbeats) and the token's circulation
/// are left out.
fn protocol_msgs(m: &Metrics) -> u64 {
    m.sent_matching(|k| !(k.starts_with("fd/") || k == "isis/heartbeat" || k == "token/token"))
}

/// E1 on `stack` (n = 5, seed 1): 50 round-robin abcasts to 400 ms; then p0
/// crashes, p1 abcasts a probe at 401 ms and the group runs on to 900 ms.
/// Returns the protocol messages to 400 ms, the token passes to 400 ms, the
/// protocol messages from the crash on, and the views installed after it.
fn e1_cell(stack: StackKind, out: &mut Vec<String>) -> (u64, u64, u64, usize) {
    let crash = Time::from_millis(400);
    let ops = UniformWorkload::steady(50, 2);
    let s = lan("E1", stack, 5, ops, Schedule::new(), crash);
    let mut run = s.start(s.group(1));
    let g = &mut run.0;
    let steady = protocol_msgs(g.metrics());
    let token = g.metrics().sent_of_kind("token/token");
    let before = g.metrics().clone();
    g.crash_at(crash, p(0));
    g.abcast_at(Time::from_millis(401), p(1), b"probe".to_vec());
    g.run_until(Time::from_millis(900));
    let recovery = protocol_msgs(&g.metrics().delta_since(&before));
    let mut views = 0;
    g.observe(&mut |t, _, o| {
        views += usize::from(t >= crash && matches!(o, Observation::View { .. }));
    });
    report(&s, 1, &run, stack.name(), out);
    (steady, token, recovery, views)
}

/// E1: counts how many distinct protocols solve an ordering problem in each
/// architecture, and what the steady state and a crash cost in messages.
pub fn e1_ordering_complexity(violations: &mut Vec<String>) {
    println!("## E1 — §4.1 ordering complexity (n=5, 50 abcasts, then 1 crash)\n");
    println!("| architecture | ordering protocols | msgs steady (50 abcasts) | msgs crash recovery | view change on crash |");
    println!("|---|---|---|---|---|");
    for (stack, protocols) in [
        (NewArch, "1 (consensus-based abcast)"),
        (Isis, "3 (membership views + VS flush + sequencer)"),
        (Token, "2 (token order + reformation/recovery)"),
    ] {
        let (steady, token, recovery, views) = e1_cell(stack, violations);
        let token = match stack {
            Token => format!(" (+{token} token)"),
            _ => String::new(),
        };
        let (arch, view_change) = (arch(stack), if views == 0 { "no" } else { "yes" });
        println!("| {arch} | {protocols} | {steady}{token} | {recovery} | {view_change} |");
    }
    println!();
}

// ---------------------------------------------------------------------------
// E2 — §4.2 bank account: thrifty generic broadcast vs atomic broadcast
// ---------------------------------------------------------------------------

/// How E2 broadcasts: generic broadcast under the bank relation (deposits
/// commute) or with every pair conflicting, or atomic broadcast.
#[derive(Clone, Copy, Debug, PartialEq)]
enum E2Mode {
    Thrifty,
    Naive,
    Abcast,
}

/// The class of op `i` of E2's stream: `withdraw_pct` in 100 ops are
/// withdrawals, evenly spread, and the rest deposits.
fn e2_class(i: u32, withdraw_pct: u32) -> MessageClass {
    match (i * withdraw_pct) % 100 < withdraw_pct {
        true => CLASS_WITHDRAW,
        false => CLASS_DEPOSIT,
    }
}

/// E2's stream: 40 bank operations from 5 ms, one every 3 ms, round-robin
/// over the group.
struct BankStream(u32, E2Mode);

impl Workload for BankStream {
    fn inject(&self, n: usize, target: &mut dyn GroupTransport) -> Vec<Time> {
        let BankStream(withdraw_pct, mode) = *self;
        let times: Vec<Time> = (0..40).map(|i| Time::from_millis(5 + 3 * i)).collect();
        for (i, &t) in (0u32..).zip(&times) {
            let sender = p(i % n as u32);
            let op = target
                .arena()
                .build(|buf| write_payload(i as usize, 2, buf));
            match mode {
                E2Mode::Abcast => target.abcast_ref_at(t, sender, op),
                _ => target.gbcast_ref_at(t, sender, e2_class(i, withdraw_pct), op),
            }
        }
        times
    }
}

/// E2 at one withdrawal share and mode (n = 4, seed 42 + share): the mean
/// latency over (op, replica) pairs in ms, and the `ct/*` messages sent.
fn e2_cell(withdraw_pct: u32, mode: E2Mode, out: &mut Vec<String>) -> (f64, u64) {
    let seed = 42 + u64::from(withdraw_pct);
    let ops = BankStream(withdraw_pct, mode);
    let s = lan("E2", NewArch, 4, ops, Schedule::new(), Time::from_secs(5));
    let mut cfg = StackConfig::default();
    cfg.conflict = match mode {
        E2Mode::Naive => ConflictRelation::all(10),
        _ => bank_conflicts(),
    };
    let run = s.start(s.group(seed).stack_config(cfg));
    let r = report(&s, seed, &run, &format!("{mode:?} {withdraw_pct}%"), out);
    let delivered = run.0.delivery_trace().len();
    assert_eq!(delivered, 40 * 4, "all ops delivered everywhere");
    let ct = run.0.metrics().sent_matching(|k| k.starts_with("ct/"));
    (r.mean_latency_ms, ct)
}

/// E2: latency and message cost as a function of the withdrawal (conflict)
/// percentage, for thrifty GB, naive GB (all-conflict) and pure abcast.
pub fn e2_generic_vs_atomic(violations: &mut Vec<String>) {
    println!("## E2 — §4.2 bank account: thrifty GB vs abcast (n=4, 40 ops)\n");
    println!("| withdraw % | GB-thrifty lat (ms) | GB-naive lat (ms) | abcast lat (ms) | GB-thrifty ct-msgs | GB-naive ct-msgs | abcast ct-msgs |");
    println!("|---|---|---|---|---|---|---|");
    for pct in [0u32, 10, 25, 50, 75, 100] {
        let [(gb_lat, gb_ct), (naive_lat, naive_ct), (ab_lat, ab_ct)] =
            [E2Mode::Thrifty, E2Mode::Naive, E2Mode::Abcast]
                .map(|mode| e2_cell(pct, mode, violations));
        println!(
            "| {pct} | {gb_lat:.2} | {naive_lat:.2} | {ab_lat:.2} | {gb_ct} | {naive_ct} | {ab_ct} |"
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E3 — §4.3 responsiveness: failover latency vs FD timeout; false suspicion
// ---------------------------------------------------------------------------

/// `s`'s group at `seed` with a failure-detection timeout of `t_ms` and
/// `state` bytes of state to transfer. On Isis the timeout is its one FD
/// timeout; on the new architecture it is the consensus-class timeout, and
/// a member is excluded only after `monitoring_ms`.
fn e3_group(s: &Scenario, seed: u64, t_ms: u64, monitoring_ms: u64, state: usize) -> GroupBuilder {
    if s.stack == Isis {
        let mut cfg = IsisConfig::default();
        cfg.fd_timeout = TimeDelta::from_millis(t_ms);
        cfg.state_size = state;
        return s.group(seed).isis_config(cfg);
    }
    let mut cfg = StackConfig::default();
    cfg.consensus_timeout = TimeDelta::from_millis(t_ms);
    cfg.monitoring_timeout = TimeDelta::from_millis(monitoring_ms);
    cfg.state_size = state;
    s.group(seed).stack_config(cfg)
}

/// E3a on `stack` (n = 3, seed 3, FD timeout `t_ms`): the latency in ms of
/// a probe p1 abcasts at 105 ms, 5 ms after the coordinator (sequencer) p0
/// crashes; `None` if it is never delivered.
fn e3a_cell(stack: StackKind, t_ms: u64, out: &mut Vec<String>) -> Option<f64> {
    let crash = Schedule::new().crash(Time::from_millis(100), p(0));
    let horizon = Time::from_millis(100 + t_ms * 4 + 2000);
    let s = lan("E3a", stack, 3, stream(1, 105, p(1), 5), crash, horizon);
    let run = s.start(e3_group(&s, 3, t_ms, 3_600_000, 0));
    report(&s, 3, &run, &format!("{} T={t_ms}ms", stack.name()), out);
    first_delivery(&run.0, 0).map(|t| t.since(Time::from_millis(105)).as_millis_f64())
}

/// E3a: latency of a broadcast issued right after the coordinator/sequencer
/// crashes, as a function of the failure-detection timeout.
pub fn e3_failover_latency(violations: &mut Vec<String>) {
    println!("## E3a — §4.3 failover: probe latency vs FD timeout (n=3, crash at 100ms, probe at 105ms)\n");
    println!("| FD timeout (ms) | new arch (ms) | Isis (ms) |");
    println!("|---|---|---|");
    for t_ms in [12u64, 25, 50, 100, 200, 400, 800, 1600, 3200] {
        let [new_lat, isis_lat] = [NewArch, Isis].map(|stack| {
            e3a_cell(stack, t_ms, violations).map_or("stuck".into(), |l| format!("{l:.1}"))
        });
        println!("| {t_ms} | {new_lat} | {isis_lat} |");
    }
    println!();
}

/// E3b on `stack` (n = 3, seed 9, FD timeout 100 ms) with `state` bytes of
/// state: p2 is cut off from 50 to 350 ms. Returns the ms from the cut
/// until p2 is back (NaN if never), whether any view was installed, and the
/// messages and bytes the run sent. p2 is back on the new architecture,
/// whose 800 ms monitoring timeout outlasts the cut, when a probe it
/// abcasts at 360 ms is first delivered; on Isis, when it re-joins.
fn e3b_cell(stack: StackKind, state: usize, out: &mut Vec<String>) -> (f64, bool, u64, u64) {
    let cut = Time::from_millis(50);
    let outage = Schedule::new()
        .partition(cut, vec![vec![p(0), p(1)], vec![p(2)]])
        .heal(Time::from_millis(350));
    let probe = stream(u32::from(stack == NewArch), 360, p(2), 4);
    let s = lan("E3b", stack, 3, probe, outage, Time::from_secs(3));
    let run = s.start(e3_group(&s, 9, 100, 800, state));
    let r = report(&s, 9, &run, &format!("{} state={state}", stack.name()), out);
    let g = &run.0;
    let back = match g.as_isis() {
        Some(isis) => kill_and_rejoin_times(isis.trace(), p(2)).1,
        None => first_delivery(g, 0),
    };
    let disrupted = back.map_or(f64::NAN, |t| t.since(cut).as_millis_f64());
    let views = g.views().iter().any(|v| !v.is_empty());
    (disrupted, views, r.msgs, r.bytes)
}

/// E3b: the cost of a *false* suspicion — the victim is merely partitioned
/// for 300 ms. The new stack shrugs; Isis kills it and pays exclusion +
/// re-join + state transfer.
pub fn e3_false_suspicion_cost(violations: &mut Vec<String>) {
    println!(
        "## E3b — §4.3 false-suspicion cost (n=3, p2 unreachable 50–350ms, FD timeout 100ms)\n"
    );
    println!("| architecture | state size | victim disrupted (ms) | extra msgs | extra bytes |");
    println!("|---|---|---|---|---|");
    for state in [0usize, 64 * 1024, 1024 * 1024] {
        for stack in [NewArch, Isis] {
            let (disrupted, views, msgs, bytes) = e3b_cell(stack, state, violations);
            let arch = match stack {
                NewArch if views => "new (AB-GB) (excluded!)",
                _ => arch(stack),
            };
            println!("| {arch} | {state} | {disrupted:.1} | {msgs} | {bytes} |");
        }
    }
    println!();
}

// ---------------------------------------------------------------------------
// E4 — §4.4 sending view delivery vs same view delivery
// ---------------------------------------------------------------------------

/// E4 on `stack` (n = 3, seed 4): p0 abcasts every 2 ms from 1 ms (150 ops)
/// while p3 joins at 100 ms, through p1 on the new architecture and p0 on
/// Isis. Returns the ms p0 was blocked from sending (`None` on the new
/// architecture: it has no blocking state), the longest wait between two
/// deliveries at p1 in ms, and the membership messages sent.
fn e4_cell(stack: StackKind, out: &mut Vec<String>) -> (Option<f64>, f64, u64) {
    let contact = if stack == Isis { p(0) } else { p(1) };
    let join = Schedule::new().join(Time::from_millis(100), p(3), contact);
    let ops = stream(150, 1, p(0), 2);
    let mut s = lan("E4", stack, 3, ops, join, Time::from_secs(3));
    s.joiners = 1;
    let run = s.start(s.group(4));
    report(&s, 4, &run, stack.name(), out);
    let g = &run.0;
    let blocked = g.as_isis().map(|isis| {
        let windows = blocked_windows(isis.trace(), p(0)).into_iter();
        windows.map(|(s, e)| e.since(s).as_millis_f64()).sum()
    });
    let at_p1 = g.delivery_trace().into_iter().filter(|d| d.proc == p(1));
    let at_p1: Vec<Time> = at_p1.map(|d| d.time).collect();
    let gaps = at_p1.windows(2).map(|w| w[1].since(w[0]).as_millis_f64());
    let membership = ["mb/", "view", "flush", "join", "state"];
    let join_msgs = g
        .metrics()
        .sent_matching(|k| membership.iter().any(|w| k.contains(w)));
    (blocked, gaps.fold(0.0, f64::max), join_msgs)
}

/// E4: a join lands in the middle of a continuous sender's stream; measure
/// the sender's blocking window and the worst inter-delivery gap.
pub fn e4_view_change_blocking(violations: &mut Vec<String>) {
    println!(
        "## E4 — §4.4 view-change blocking (n=3 + 1 joiner at 100ms, sender streams every 2ms)\n"
    );
    println!("| architecture | send-blocked (ms) | max delivery gap (ms) | join msgs |");
    println!("|---|---|---|---|");
    for stack in [NewArch, Isis] {
        let (blocked, max_gap, join_msgs) = e4_cell(stack, violations);
        let blocked = blocked.map_or("— (no blocking state)".into(), |b| format!("{b:.1}"));
        let arch = arch(stack);
        println!("| {arch} | {blocked} | {max_gap:.1} | {join_msgs} |");
    }
    println!();
}

// ---------------------------------------------------------------------------
// A1 — consensus cost: wire messages per Chandra-Toueg decision
// ---------------------------------------------------------------------------

/// Wire messages one Chandra-Toueg decision costs among `n` processes (a
/// process's messages to itself are not counted): every process proposes,
/// then messages are delivered in FIFO order until the instance is quiet.
/// With `crash_first`, the round-0 coordinator p0 is crashed from the start
/// and every other process suspects it, so the decision takes a round change.
pub fn a1_wire_messages(n: u32, crash_first: bool) -> u64 {
    use gcs_consensus::{CtConsensus, CtMsg, CtOut};
    use std::collections::VecDeque;

    let ids: Vec<ProcessId> = (0..n).map(p).collect();
    let mut insts: Vec<CtConsensus<u32>> = ids
        .iter()
        .map(|&q| CtConsensus::new(q, ids.clone(), ids[0]))
        .collect();
    let crashed = |q: ProcessId| crash_first && q == p(0);
    let mut queue: VecDeque<(ProcessId, ProcessId, CtMsg<u32>)> = VecDeque::new();
    let mut sent = 0u64;
    let mut apply = |from: ProcessId,
                     outs: Vec<CtOut<u32>>,
                     queue: &mut VecDeque<(ProcessId, ProcessId, CtMsg<u32>)>| {
        for o in outs {
            if let CtOut::Send { to, msg } = o {
                sent += u64::from(to != from);
                queue.push_back((from, to, msg));
            }
        }
    };
    for (i, inst) in insts.iter_mut().enumerate() {
        if !crashed(ids[i]) {
            apply(ids[i], inst.propose(i as u32), &mut queue);
        }
    }
    if crash_first {
        for (i, inst) in insts.iter_mut().enumerate().skip(1) {
            apply(ids[i], inst.suspect(p(0)), &mut queue);
        }
    }
    while let Some((from, to, msg)) = queue.pop_front() {
        if crashed(from) || crashed(to) {
            continue;
        }
        let outs = insts[to.index()].on_msg(from, msg);
        apply(to, outs, &mut queue);
    }
    sent
}

/// A1: wire messages per Chandra-Toueg decision, failure-free and with a
/// crashed round-0 coordinator ([`a1_wire_messages`]).
pub fn a1_consensus_cost() {
    println!("## A1 — consensus cost: wire messages per decision\n");
    println!("| n | scenario | Chandra-Toueg |");
    println!("|---|---|---|");
    for n in [3u32, 5, 7] {
        for crash_first in [false, true] {
            println!(
                "| {n} | {} | {} |",
                if crash_first {
                    "coordinator crash"
                } else {
                    "failure-free"
                },
                a1_wire_messages(n, crash_first)
            );
        }
    }
    println!();
}

// ---------------------------------------------------------------------------
// A2 — failure-detector quality (motivates §4.3)
// ---------------------------------------------------------------------------

/// A miniature component exposing [`gcs_fd::HeartbeatFd`] in the simulator.
struct FdProbe {
    fd: gcs_fd::HeartbeatFd,
}

#[derive(Clone, Debug)]
enum ProbeEv {
    Hb,
    Suspect(ProcessId),
    // The restored peer is carried for trace readability only.
    Restore(#[allow(dead_code)] ProcessId),
}
impl Event for ProbeEv {
    fn kind(&self) -> &'static str {
        match self {
            ProbeEv::Hb => "fd/heartbeat",
            ProbeEv::Suspect(_) => "out/suspect",
            ProbeEv::Restore(_) => "out/restore",
        }
    }
}

/// The probe's one component.
const PROBE: ComponentId = ComponentId::new(0);

impl Component<ProbeEv> for FdProbe {
    fn on_start(&mut self, ctx: &mut Context<'_, ProbeEv>) {
        ctx.set_timer(self.fd.interval());
    }
    fn on_message(&mut self, from: ProcessId, _ev: ProbeEv, ctx: &mut Context<'_, ProbeEv>) {
        for o in self.fd.on_heartbeat(from, ctx.now()) {
            if let gcs_fd::FdOut::Restore { peer, .. } = o {
                ctx.output(ProbeEv::Restore(peer));
            }
        }
    }
    fn on_timer(&mut self, _t: TimerId, ctx: &mut Context<'_, ProbeEv>) {
        for o in self.fd.on_tick(ctx.now()) {
            match o {
                gcs_fd::FdOut::SendHeartbeat { to } => ctx.send(to, ProbeEv::Hb),
                gcs_fd::FdOut::Suspect { peer, .. } => ctx.output(ProbeEv::Suspect(peer)),
                gcs_fd::FdOut::Restore { peer, .. } => ctx.output(ProbeEv::Restore(peer)),
            }
        }
        ctx.set_timer(self.fd.interval());
    }
    fn on_event(&mut self, _ev: ProbeEv, _ctx: &mut Context<'_, ProbeEv>) {}
}

/// A2: crash-detection time and wrong-suspicion rate vs FD timeout, under a
/// jittery lossy link (heartbeats every 10 ms; crash at 5 s; 15 s horizon).
pub fn a2_fd_quality() {
    println!("## A2 — failure-detector quality vs timeout (hb 10ms, 2% loss + jitter)\n");
    println!("| timeout (ms) | detection time (ms) | wrong suspicions (per 10s) |");
    println!("|---|---|---|");
    for timeout_ms in [15u64, 25, 50, 100, 200, 400] {
        let sim = SimConfig::lan(7).with_link(LinkModel {
            delay_min: TimeDelta::from_micros(200),
            delay_max: TimeDelta::from_millis(12), // heavy jitter
            drop_prob: 0.02,
            dup_prob: 0.0,
            bandwidth: 0,
        });
        let mut world: SimWorld<ProbeEv> = SimWorld::start(sim, 2, move |id| {
            let mut fd = gcs_fd::HeartbeatFd::new(id, TimeDelta::from_millis(10));
            fd.register_class(
                gcs_fd::MonitorClass::CONSENSUS,
                TimeDelta::from_millis(timeout_ms),
            );
            fd.set_peers((0..2).map(p).filter(|&q| q != id), Time::ZERO);
            Process::builder(id).with(PROBE, FdProbe { fd }).build()
        });
        world.apply_schedule(&Schedule::new().crash(Time::from_secs(5), p(1)));
        world.run_until(Time::from_secs(15));
        // Wrong suspicions: suspicions of p1 at p0 before the crash.
        let wrong = world
            .trace()
            .entries()
            .iter()
            .filter(|e| {
                e.proc == p(0)
                    && e.time < Time::from_secs(5)
                    && matches!(e.event, ProbeEv::Suspect(q) if q == p(1))
            })
            .count();
        let detection = world
            .trace()
            .entries()
            .iter()
            .find(|e| {
                e.proc == p(0)
                    && e.time >= Time::from_secs(5)
                    && matches!(e.event, ProbeEv::Suspect(q) if q == p(1))
            })
            .map(|e| e.time.since(Time::from_secs(5)).as_millis_f64());
        println!(
            "| {timeout_ms} | {} | {} |",
            detection.map_or("—".into(), |d| format!("{d:.1}")),
            wrong as f64 / 0.5
        );
    }
    println!();
}

/// Runs every experiment in order; the oracle's violations over every run
/// land in `violations`.
pub fn run_all(violations: &mut Vec<String>) {
    e1_ordering_complexity(violations);
    e2_generic_vs_atomic(violations);
    e3_failover_latency(violations);
    e3_false_suspicion_cost(violations);
    e4_view_change_blocking(violations);
    a1_consensus_cost();
    a2_fd_quality();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each E2 row runs the withdrawal share it is labelled with.
    #[test]
    fn e2_rows_run_their_withdrawal_share() {
        let counts = [0, 10, 25, 50, 75, 100].map(|pct| {
            (0..40)
                .filter(|&i| e2_class(i, pct) == CLASS_WITHDRAW)
                .count()
        });
        assert_eq!(counts, [0, 4, 10, 20, 30, 40]);
    }

    /// §4.2: without conflicts, thrifty generic broadcast runs no consensus
    /// and delivers sooner than atomic broadcast.
    #[test]
    fn e2_thrifty_gb_without_conflicts_needs_no_consensus_and_beats_abcast() {
        let mut violations = Vec::new();
        let (gb_lat, gb_ct) = e2_cell(0, E2Mode::Thrifty, &mut violations);
        let (ab_lat, _) = e2_cell(0, E2Mode::Abcast, &mut violations);
        assert_eq!(gb_ct, 0, "ct/* messages of thrifty GB");
        assert!(gb_lat < ab_lat, "GB {gb_lat} ms, abcast {ab_lat} ms");
        assert!(violations.is_empty(), "{violations:#?}");
    }

    /// §4.3: a false suspicion costs the new architecture the same bytes
    /// whatever the state size; Isis's state transfer grows with it.
    #[test]
    fn e3b_only_isis_pays_for_the_state_size() {
        let mut violations = Vec::new();
        let [new, isis] = [NewArch, Isis].map(|stack| {
            [0, 64 * 1024, 1024 * 1024].map(|state| e3b_cell(stack, state, &mut violations).3)
        });
        assert!(new[0] == new[1] && new[1] == new[2], "new: {new:?}");
        assert!(isis[0] < isis[1] && isis[1] < isis[2], "Isis: {isis:?}");
        assert!(violations.is_empty(), "{violations:#?}");
    }

    /// §4.1: the coordinator's crash installs no view on the new
    /// architecture; Isis and the token ring install one.
    #[test]
    fn e1_only_the_baselines_change_views_on_a_crash() {
        let mut violations = Vec::new();
        let views = [NewArch, Isis, Token].map(|stack| e1_cell(stack, &mut violations).3);
        assert!(views[0] == 0 && views[1] > 0 && views[2] > 0, "{views:?}");
        assert!(violations.is_empty(), "{violations:#?}");
    }

    /// A1's six cells. Failure-free, a decision is n−1 proposals and n−1
    /// acks plus a `Decide` to each process that could not decide on
    /// adopting (one at n = 3, n−1 above). Past a crashed coordinator it
    /// is a round change instead: (n−1)² `ct/nack`s (every survivor leaves
    /// round 0 and tells every other participant), then round 1's n−2
    /// estimates, n−1 proposals, n−2 acks and its decisions.
    #[test]
    fn a1_cells_are_pinned() {
        for (n, failure_free, coordinator_crash) in [(3, 5, 9), (5, 12, 30), (7, 18, 58)] {
            assert_eq!(a1_wire_messages(n, false), failure_free, "n={n}");
            assert_eq!(a1_wire_messages(n, true), coordinator_crash, "n={n} crash");
        }
    }
}

//! The experiments of DESIGN.md §3: each function runs one experiment and
//! prints a markdown table (virtual-time latencies, message counts).

use gcs_api::{Group, GroupTransport, StackKind};
use gcs_core::{ConflictRelation, StackConfig};
use gcs_kernel::{
    Component, ComponentId, Context, Event, Process, ProcessId, Time, TimeDelta, TimerId,
};
use gcs_replication::bank::{bank_conflicts, BankOp, CLASS_DEPOSIT, CLASS_WITHDRAW};
use gcs_sim::{LinkModel, SimConfig, SimWorld};
use gcs_traditional::isis::{blocked_windows, kill_and_rejoin_times};
use gcs_traditional::IsisConfig;

use crate::workload::{Senders, UniformWorkload, Workload};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// Mean delivery latency for payload-tagged messages: payload byte 0..N is
/// the op index; returns (mean ms over (op, replica) pairs, deliveries).
fn mean_latency(inject_times: &[Time], deliveries: &[(Time, usize)]) -> (f64, usize) {
    if deliveries.is_empty() {
        return (f64::NAN, 0);
    }
    let total: f64 = deliveries
        .iter()
        .map(|(t, idx)| t.since(inject_times[*idx]).as_millis_f64())
        .sum();
    (total / deliveries.len() as f64, deliveries.len())
}

// ---------------------------------------------------------------------------
// E1 — §4.1 "less complex stack": ordering machinery and its cost
// ---------------------------------------------------------------------------

/// E1: counts how many distinct protocols solve an ordering problem in each
/// architecture, and what the steady state and a crash cost in messages.
pub fn e1_ordering_complexity() {
    println!("## E1 — §4.1 ordering complexity (n=5, 50 abcasts, then 1 crash)\n");
    println!("| architecture | ordering protocols | msgs steady (50 abcasts) | msgs crash recovery | view change on crash |");
    println!("|---|---|---|---|---|");

    let n = 5;
    // The shared steady-state stream: one workload value drives all three
    // architectures (no more per-architecture injection loops).
    let stream = UniformWorkload::steady(50, 2);

    // -- new architecture -------------------------------------------------
    {
        let mut cfg = StackConfig::default();
        cfg.monitoring_timeout = TimeDelta::from_secs(3600); // isolate: no exclusion
        let mut g = Group::builder()
            .members(n)
            .stack_config(cfg)
            .seed(1)
            .build();
        stream.inject(n, &mut g);
        g.run_until(Time::from_millis(400));
        let steady = g.metrics().sent_matching(|k| !k.starts_with("fd/"));
        let before = g.metrics().clone();
        g.crash_at(Time::from_millis(400), p(0));
        g.abcast_at(Time::from_millis(401), p(1), b"probe".to_vec());
        g.run_until(Time::from_millis(900));
        let delta = g.metrics().delta_since(&before);
        let recovery = delta.sent_matching(|k| !k.starts_with("fd/"));
        let views: usize = g.views().iter().map(|v| v.len()).sum();
        println!(
            "| new (AB-GB) | 1 (consensus-based abcast) | {steady} | {recovery} | {} |",
            if views == 0 { "no" } else { "yes" }
        );
    }

    // -- Isis --------------------------------------------------------------
    {
        let mut sim = Group::builder()
            .members(n)
            .stack(StackKind::Isis)
            .seed(1)
            .build();
        stream.inject(n, &mut sim);
        sim.run_until(Time::from_millis(400));
        let steady = sim.metrics().sent_matching(|k| !k.contains("heartbeat"));
        let before = sim.metrics().clone();
        sim.crash_at(Time::from_millis(400), p(0));
        sim.abcast_at(Time::from_millis(401), p(1), b"probe".to_vec());
        sim.run_until(Time::from_millis(900));
        let delta = sim.metrics().delta_since(&before);
        let recovery = delta.sent_matching(|k| !k.contains("heartbeat"));
        println!(
            "| Isis (GM-VS) | 3 (membership views + VS flush + sequencer) | {steady} | {recovery} | yes |"
        );
    }

    // -- token ring ---------------------------------------------------------
    {
        let mut sim = Group::builder()
            .members(n)
            .stack(StackKind::Token)
            .seed(1)
            .build();
        stream.inject(n, &mut sim);
        sim.run_until(Time::from_millis(400));
        let steady = sim.metrics().sent_matching(|k| k != "token/token");
        let token_steady = sim.metrics().sent_of_kind("token/token");
        let before = sim.metrics().clone();
        sim.crash_at(Time::from_millis(400), p(0));
        sim.abcast_at(Time::from_millis(401), p(1), b"probe".to_vec());
        sim.run_until(Time::from_millis(900));
        let delta = sim.metrics().delta_since(&before);
        let recovery = delta.sent_matching(|k| k != "token/token");
        println!(
            "| Token (RMP/Totem) | 2 (token order + reformation/recovery) | {steady} (+{token_steady} token) | {recovery} | yes |"
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E2 — §4.2 bank account: thrifty generic broadcast vs atomic broadcast
// ---------------------------------------------------------------------------

/// E2: latency and message cost as a function of the withdrawal (conflict)
/// percentage, for thrifty GB, naive GB (all-conflict) and pure abcast.
pub fn e2_generic_vs_atomic() {
    println!("## E2 — §4.2 bank account: thrifty GB vs abcast (n=4, 40 ops)\n");
    println!("| withdraw % | GB-thrifty lat (ms) | GB-naive lat (ms) | abcast lat (ms) | GB-thrifty ct-msgs | GB-naive ct-msgs | abcast ct-msgs |");
    println!("|---|---|---|---|---|---|---|");

    let n = 4usize;
    let ops_count = 40u32;
    for withdraw_pct in [0u32, 10, 25, 50, 75, 100] {
        let ops: Vec<BankOp> = (0..ops_count)
            .map(|i| {
                // Deterministic mix with the requested withdrawal share.
                if (i * 100 / ops_count.max(1)) % 100 < withdraw_pct
                    && i % (100 / withdraw_pct.max(1)).max(1) == 0
                    || (withdraw_pct > 0 && i % (100 / withdraw_pct).max(1) == 0)
                {
                    BankOp::Withdraw(1)
                } else {
                    BankOp::Deposit(1)
                }
            })
            .collect();

        let run = |mode: u8| -> (f64, u64) {
            let mut cfg = StackConfig::default();
            cfg.conflict = match mode {
                0 => bank_conflicts(),
                1 => ConflictRelation::all(10),
                _ => bank_conflicts(), // unused for abcast mode
            };
            let mut g = Group::builder()
                .members(n)
                .stack_config(cfg)
                .seed(42 + withdraw_pct as u64)
                .build();
            let mut inject_times = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                let t = Time::from_millis(5 + 3 * i as u64);
                inject_times.push(t);
                let mut payload = vec![i as u8];
                payload.extend_from_slice(&op.encode());
                let sender = p((i % n) as u32);
                match mode {
                    2 => g.abcast_at(t, sender, payload),
                    _ => {
                        let class = match op {
                            BankOp::Deposit(_) => CLASS_DEPOSIT,
                            BankOp::Withdraw(_) => CLASS_WITHDRAW,
                        };
                        g.gbcast_at(t, sender, class, payload);
                    }
                }
            }
            g.run_until(Time::from_secs(5));
            let deliveries: Vec<(Time, usize)> = g
                .delivery_trace()
                .into_iter()
                .map(|d| (d.time, g.resolve(d.payload)[0] as usize))
                .collect();
            let (lat, cnt) = mean_latency(&inject_times, &deliveries);
            assert_eq!(cnt, ops_count as usize * n, "all ops delivered everywhere");
            (lat, g.metrics().sent_matching(|k| k.starts_with("ct/")))
        };

        let (gb_lat, gb_ct) = run(0);
        let (naive_lat, naive_ct) = run(1);
        let (ab_lat, ab_ct) = run(2);
        println!(
            "| {withdraw_pct} | {gb_lat:.2} | {naive_lat:.2} | {ab_lat:.2} | {gb_ct} | {naive_ct} | {ab_ct} |"
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E3 — §4.3 responsiveness: failover latency vs FD timeout; false suspicion
// ---------------------------------------------------------------------------

/// E3a: latency of a broadcast issued right after the coordinator/sequencer
/// crashes, as a function of the failure-detection timeout.
pub fn e3_failover_latency() {
    println!("## E3a — §4.3 failover: probe latency vs FD timeout (n=3, crash at 100ms, probe at 105ms)\n");
    println!("| FD timeout (ms) | new arch (ms) | Isis (ms) |");
    println!("|---|---|---|");
    for timeout_ms in [12u64, 25, 50, 100, 200, 400, 800, 1600, 3200] {
        // New architecture: the crash of the round-0 coordinator delays the
        // decision by the consensus-class timeout, nothing more.
        let new_lat = {
            let mut cfg = StackConfig::default();
            cfg.consensus_timeout = TimeDelta::from_millis(timeout_ms);
            cfg.monitoring_timeout = TimeDelta::from_secs(3600);
            let mut g = Group::builder()
                .members(3)
                .stack_config(cfg)
                .seed(3)
                .build();
            g.crash_at(Time::from_millis(100), p(0));
            g.abcast_at(Time::from_millis(105), p(1), b"probe".to_vec());
            g.run_until(Time::from_millis(100 + timeout_ms * 4 + 2000));
            g.delivery_trace()
                .iter()
                .find(|d| g.resolve(d.payload).as_ref() == b"probe")
                .map(|d| d.time.since(Time::from_millis(105)).as_millis_f64())
        };
        let isis_lat = {
            let mut cfg = IsisConfig::default();
            cfg.fd_timeout = TimeDelta::from_millis(timeout_ms);
            let mut sim = Group::builder()
                .members(3)
                .stack(StackKind::Isis)
                .isis_config(cfg)
                .seed(3)
                .build();
            sim.crash_at(Time::from_millis(100), p(0));
            sim.abcast_at(Time::from_millis(105), p(1), b"probe".to_vec());
            sim.run_until(Time::from_millis(100 + timeout_ms * 4 + 2000));
            sim.delivery_trace()
                .iter()
                .find(|d| sim.resolve(d.payload).as_ref() == b"probe")
                .map(|d| d.time.since(Time::from_millis(105)).as_millis_f64())
        };
        println!(
            "| {timeout_ms} | {} | {} |",
            new_lat.map_or("stuck".into(), |l| format!("{l:.1}")),
            isis_lat.map_or("stuck".into(), |l| format!("{l:.1}")),
        );
    }
    println!();
}

/// E3b: the cost of a *false* suspicion — the victim is merely partitioned
/// for 300 ms. The new stack shrugs; Isis kills it and pays exclusion +
/// re-join + state transfer.
pub fn e3_false_suspicion_cost() {
    println!(
        "## E3b — §4.3 false-suspicion cost (n=3, p2 unreachable 50–350ms, FD timeout 100ms)\n"
    );
    println!("| architecture | state size | victim disrupted (ms) | extra msgs | extra bytes |");
    println!("|---|---|---|---|---|");
    for state_size in [0usize, 64 * 1024, 1024 * 1024] {
        // New architecture: consensus-class suspicions come and go; the
        // monitoring timeout (larger than the outage) never fires, so the
        // membership never changes and p2 is back instantly after the heal.
        {
            let mut cfg = StackConfig::default();
            cfg.consensus_timeout = TimeDelta::from_millis(100);
            cfg.monitoring_timeout = TimeDelta::from_millis(800);
            cfg.state_size = state_size;
            let mut g = Group::builder()
                .members(3)
                .stack_config(cfg)
                .seed(9)
                .build();
            let baseline = {
                let mut b = g.metrics().clone();
                b = b.delta_since(&b); // zero
                b
            };
            let _ = baseline;
            let before = g.metrics().clone();
            g.partition_at(Time::from_millis(50), vec![vec![p(0), p(1)], vec![p(2)]]);
            g.heal_at(Time::from_millis(350));
            // p2 proves it is functional again by broadcasting after heal.
            g.abcast_at(Time::from_millis(360), p(2), b"back".to_vec());
            g.run_until(Time::from_secs(3));
            let back_at = g
                .delivery_trace()
                .iter()
                .find(|d| g.resolve(d.payload).as_ref() == b"back")
                .map(|d| d.time);
            let disrupted =
                back_at.map_or(f64::NAN, |t| t.since(Time::from_millis(50)).as_millis_f64());
            let delta = g.metrics().delta_since(&before);
            let excluded = g.views().iter().any(|v| !v.is_empty());
            println!(
                "| new (AB-GB){} | {state_size} | {disrupted:.1} | {} | {} |",
                if excluded { " (excluded!)" } else { "" },
                delta.total_sent(),
                delta.total_bytes()
            );
        }
        // Isis: exclusion + kill + re-join + state transfer.
        {
            let mut cfg = IsisConfig::default();
            cfg.fd_timeout = TimeDelta::from_millis(100);
            cfg.state_size = state_size;
            let mut sim = Group::builder()
                .members(3)
                .stack(StackKind::Isis)
                .isis_config(cfg)
                .seed(9)
                .build();
            let before = sim.metrics().clone();
            sim.partition_at(Time::from_millis(50), vec![vec![p(0), p(1)], vec![p(2)]]);
            sim.heal_at(Time::from_millis(350));
            sim.run_until(Time::from_secs(3));
            let isis = sim.as_isis().expect("isis stack");
            let (_killed, rejoined) = kill_and_rejoin_times(isis.trace(), p(2));
            let disrupted =
                rejoined.map_or(f64::NAN, |t| t.since(Time::from_millis(50)).as_millis_f64());
            let delta = sim.metrics().delta_since(&before);
            println!(
                "| Isis (GM-VS) | {state_size} | {disrupted:.1} | {} | {} |",
                delta.total_sent(),
                delta.total_bytes()
            );
        }
    }
    println!();
}

// ---------------------------------------------------------------------------
// E4 — §4.4 sending view delivery vs same view delivery
// ---------------------------------------------------------------------------

/// E4: a join lands in the middle of a continuous sender's stream; measure
/// the sender's blocking window and the worst inter-delivery gap.
pub fn e4_view_change_blocking() {
    println!(
        "## E4 — §4.4 view-change blocking (n=3 + 1 joiner at 100ms, sender streams every 2ms)\n"
    );
    println!("| architecture | send-blocked (ms) | max delivery gap (ms) | join msgs |");
    println!("|---|---|---|---|");

    // One continuous single-sender stream drives both architectures; the
    // 2-byte tagged payloads identify stream deliveries in the traces.
    let stream = UniformWorkload {
        msgs: 150,
        start: Time::from_millis(1),
        interval: TimeDelta::from_millis(2),
        payload: 2,
        senders: Senders::One(p(0)),
    };

    // -- new architecture ----------------------------------------------------
    {
        let mut g = Group::builder().members(3).joiners(1).seed(4).build();
        stream.inject(3, &mut g);
        let before = g.metrics().clone();
        g.join_at(Time::from_millis(100), p(3), p(1));
        g.run_until(Time::from_secs(3));
        let deliveries: Vec<Time> = g
            .delivery_trace()
            .iter()
            .filter(|d| d.proc == p(1) && d.payload.len() == 2)
            .map(|d| d.time)
            .collect();
        let max_gap = deliveries
            .windows(2)
            .map(|w| w[1].since(w[0]).as_millis_f64())
            .fold(0.0f64, f64::max);
        let join_msgs = g
            .metrics()
            .delta_since(&before)
            .sent_matching(|k| k.starts_with("mb/"));
        // The new stack never blocks senders: same view delivery (§4.4).
        println!("| new (AB-GB) | 0.0 | {max_gap:.1} | {join_msgs} |");
    }

    // -- Isis -----------------------------------------------------------------
    {
        let mut sim = Group::builder()
            .members(3)
            .joiners(1)
            .stack(StackKind::Isis)
            .seed(4)
            .build();
        stream.inject(3, &mut sim);
        let before = sim.metrics().clone();
        sim.join_at(Time::from_millis(100), p(3), p(0));
        sim.run_until(Time::from_secs(3));
        let isis = sim.as_isis().expect("isis stack");
        let blocked: f64 = blocked_windows(isis.trace(), p(0))
            .iter()
            .map(|(s, e)| e.since(*s).as_millis_f64())
            .sum();
        let deliveries: Vec<Time> = sim
            .delivery_trace()
            .iter()
            .filter(|d| d.proc == p(1) && d.payload.len() == 2)
            .map(|d| d.time)
            .collect();
        let max_gap = deliveries
            .windows(2)
            .map(|w| w[1].since(w[0]).as_millis_f64())
            .fold(0.0f64, f64::max);
        let join_msgs = sim.metrics().delta_since(&before).sent_matching(|k| {
            k.contains("view") || k.contains("flush") || k.contains("join") || k.contains("state")
        });
        println!("| Isis (GM-VS) | {blocked:.1} | {max_gap:.1} | {join_msgs} |");
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
        let mut world: SimWorld<ProbeEv> = SimWorld::new(sim);
        for _ in 0..2 {
            world.add_node(|id| {
                let mut fd = gcs_fd::HeartbeatFd::new(id, TimeDelta::from_millis(10));
                fd.register_class(
                    gcs_fd::MonitorClass::CONSENSUS,
                    TimeDelta::from_millis(timeout_ms),
                );
                fd.set_peers((0..2).map(p).filter(|&q| q != id), Time::ZERO);
                Process::builder(id).with(PROBE, FdProbe { fd }).build()
            });
        }
        world.crash_at(Time::from_secs(5), p(1));
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

/// Runs every experiment in order.
pub fn run_all() {
    e1_ordering_complexity();
    e2_generic_vs_atomic();
    e3_failover_latency();
    e3_false_suspicion_cost();
    e4_view_change_blocking();
    a1_consensus_cost();
    a2_fd_quality();
}

#[cfg(test)]
mod tests {
    #[test]
    fn mean_latency_computes() {
        use super::*;
        let injects = vec![Time::from_millis(10)];
        let deliveries = vec![(Time::from_millis(14), 0), (Time::from_millis(16), 0)];
        let (m, n) = mean_latency(&injects, &deliveries);
        assert_eq!(n, 2);
        assert!((m - 5.0).abs() < 1e-9);
    }

    /// A1's six cells. Failure-free, a decision is n−1 proposals and n−1
    /// acks plus a `Decide` to each process that could not decide on
    /// adopting (one at n = 3, n−1 above). Past a crashed coordinator it
    /// is a round change instead: (n−1)² `ct/nack`s (every survivor leaves
    /// round 0 and tells every other participant), then round 1's n−2
    /// estimates, n−1 proposals, n−2 acks and its decisions.
    #[test]
    fn a1_cells_are_pinned() {
        use super::a1_wire_messages;
        for (n, failure_free, coordinator_crash) in [(3, 5, 9), (5, 12, 30), (7, 18, 58)] {
            assert_eq!(a1_wire_messages(n, false), failure_free, "n={n}");
            assert_eq!(a1_wire_messages(n, true), coordinator_crash, "n={n} crash");
        }
    }
}

//! # gcs-fd — failure detection, decoupled from membership
//!
//! A heartbeat failure detector in the style assumed by the paper's new
//! architecture (Fig 9): it sits directly on the *unreliable* transport and
//! serves **multiple clients with independent timeouts** — the paper's
//! §3.3.2 example has the consensus component suspecting after seconds while
//! the monitoring component suspects after minutes, through the
//! `start_stop_monitor` interface. Here each client registers a
//! [`MonitorClass`] with its own timeout and receives its own
//! [`FdOut::Suspect`] / [`FdOut::Restore`] transitions.
//!
//! In the simulated system model (eventually bounded delays between correct
//! processes; crashed processes stop sending), this heartbeat detector
//! implements ◇S for each class: crashed peers are permanently suspected
//! once their last heartbeat ages past the class timeout (strong
//! completeness), and wrong suspicions of correct peers are *transient* —
//! the next heartbeat restores them (eventual weak accuracy after delays
//! stabilize).
//!
//! The detector is sans-I/O, like every protocol in this repository: the
//! owner drives [`HeartbeatFd::on_tick`] and feeds received heartbeats in,
//! and carries out the returned [`FdOut`] instructions.
//!
//! Each tick probes the next segment of the ring of monitored peers, as
//! many as [`gcs_kernel::fanout`] allows for the group's current size. Up
//! to [`gcs_kernel::SCALE_THRESHOLD`] processes that is every peer, every
//! interval: the classic all-pairs heartbeat, n·(n−1) messages per period,
//! which is what collapses simulation throughput beyond a few dozen
//! processes. Above it a tick probes k ≈ log₂ n peers, and the rotation
//! covers everyone once per ⌈(n−1)/k⌉ ticks: gossip-style failure
//! detection (van Renesse, Minsky and Hayden, Middleware 1998). Its
//! heartbeats carry a small digest of the freshest last-heard times
//! ([`HeartbeatFd::digest`]), so monitoring traffic is O(n·k) per period.
//! The price is detection latency: a peer is directly probed once per
//! rotation cycle, so class timeouts are extended by one cycle (see
//! [`HeartbeatFd::suspicion_bound`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gcs_kernel::{fanout, ProcessId, Time, TimeDelta};

/// Identifies one registered suspicion client (timeout class).
///
/// The paper's architecture uses at least two: a small-timeout class for
/// consensus and a large-timeout class for monitoring/exclusion.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MonitorClass(pub u16);

impl MonitorClass {
    /// Conventional class for the consensus component (small timeout).
    pub const CONSENSUS: MonitorClass = MonitorClass(0);
    /// Conventional class for the monitoring component (large timeout).
    pub const MONITORING: MonitorClass = MonitorClass(1);
}

/// An instruction produced by the failure detector for its owner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FdOut {
    /// Send a heartbeat to `to` over the unreliable transport. While the
    /// detector [gossips](HeartbeatFd::gossips) the owner should attach the
    /// current [`HeartbeatFd::digest`] to the heartbeats of one tick.
    SendHeartbeat {
        /// Destination peer.
        to: ProcessId,
    },
    /// `peer` is now suspected by class `class`.
    Suspect {
        /// The timeout class making the transition.
        class: MonitorClass,
        /// The suspected peer.
        peer: ProcessId,
    },
    /// `peer` is no longer suspected by class `class` (a heartbeat arrived).
    Restore {
        /// The timeout class making the transition.
        class: MonitorClass,
        /// The restored peer.
        peer: ProcessId,
    },
}

#[derive(Clone, Copy, Debug)]
struct ClassState {
    timeout: TimeDelta,
}

/// A heartbeat failure detector with per-class timeouts.
///
/// Internal tables are small and dense (a handful of classes, a group's
/// worth of peers), so they are flat sorted vectors rather than hash maps —
/// `on_heartbeat` runs on every received heartbeat and allocates nothing.
#[derive(Debug)]
pub struct HeartbeatFd {
    me: ProcessId,
    interval: TimeDelta,
    peers: Vec<ProcessId>,
    /// Registered classes, sorted by class id.
    classes: Vec<(MonitorClass, ClassState)>,
    /// Last heartbeat per peer, indexed by raw process id.
    last_heard: Vec<Option<Time>>,
    /// Suspicion flags: parallel to `classes`, each a dense per-peer table
    /// indexed by raw process id — O(1) per (class, peer) on the tick and
    /// heartbeat paths.
    suspected: Vec<(MonitorClass, Vec<bool>)>,
    /// Number of currently set suspicion flags (all classes). While zero,
    /// ticks skip the per-(peer, class) timeout sweep until `next_scan`.
    suspect_count: usize,
    /// Earliest time any (peer, class) pair could newly time out, as of the
    /// last sweep. `None` = unknown, sweep on the next tick. Heartbeats only
    /// push deadlines later, so a stale value is merely conservative (an
    /// early sweep that finds nothing), never late.
    next_scan: Option<Time>,
    /// Tick counter driving ring-segment rotation.
    round: u64,
    /// Ring offset of the segment probed on the most recent tick — the
    /// digest window [`Self::digest`] reports.
    last_base: usize,
    started_at: Time,
}

impl HeartbeatFd {
    /// Creates a detector for process `me` that emits heartbeats every
    /// `interval`.
    pub fn new(me: ProcessId, interval: TimeDelta) -> Self {
        HeartbeatFd {
            me,
            interval,
            peers: Vec::new(),
            classes: Vec::new(),
            last_heard: Vec::new(),
            suspected: Vec::new(),
            suspect_count: 0,
            next_scan: None,
            round: 0,
            last_base: 0,
            started_at: Time::ZERO,
        }
    }

    /// The heartbeat emission interval (owner's tick period).
    pub fn interval(&self) -> TimeDelta {
        self.interval
    }

    /// Peers probed per tick: every one of them in a group of up to
    /// [`gcs_kernel::SCALE_THRESHOLD`] processes, ⌈log₂(peers + 1)⌉ above.
    fn probes_per_tick(&self) -> usize {
        let m = self.peers.len();
        fanout(m + 1, m).min(m)
    }

    /// Whether a tick probes only a segment of the peers (the group has
    /// more than [`gcs_kernel::SCALE_THRESHOLD`] processes): its heartbeats
    /// then carry the [`digest`](Self::digest), and timeouts have one
    /// rotation cycle of slack.
    pub fn gossips(&self) -> bool {
        self.probes_per_tick() < self.peers.len()
    }

    /// The extra last-heard staleness budget rotation introduces: one full
    /// cycle, ⌈peers / probes per tick⌉ ticks (every correct peer
    /// heartbeats us once per cycle). Zero when every tick probes everyone.
    fn rotation_slack(&self) -> TimeDelta {
        if !self.gossips() {
            return TimeDelta::ZERO;
        }
        let cycle = self.peers.len().div_ceil(self.probes_per_tick());
        self.interval.saturating_mul(cycle as u64)
    }

    /// The effective timeout of `class` at the current group size: the
    /// registered timeout plus the rotation slack.
    fn effective_timeout(&self, state: ClassState) -> TimeDelta {
        state.timeout + self.rotation_slack()
    }

    /// Upper bound on crash-to-suspicion latency for `class`, assuming
    /// stable membership since the crash: the effective timeout plus one
    /// interval of tick granularity. Network delay between the crashed
    /// peer's last heartbeat and its receipt is not included — callers add
    /// their topology's delay bound.
    pub fn suspicion_bound(&self, class: MonitorClass) -> Option<TimeDelta> {
        self.classes
            .iter()
            .find(|(c, _)| *c == class)
            .map(|&(_, state)| self.effective_timeout(state) + self.interval)
    }

    /// Registers (or re-times) a suspicion class. (`start_monitor` in Fig 9.)
    pub fn register_class(&mut self, class: MonitorClass, timeout: TimeDelta) {
        if let Some(slot) = self.classes.iter_mut().find(|(c, _)| *c == class) {
            slot.1 = ClassState { timeout };
        } else {
            self.classes.push((class, ClassState { timeout }));
            self.classes.sort_unstable_by_key(|&(c, _)| c);
            self.suspected.push((class, Vec::new()));
            self.suspected.sort_unstable_by_key(|&(c, _)| c);
        }
        self.next_scan = None;
    }

    /// Recomputes `suspect_count` from the flag tables (rare paths only).
    fn recount_suspected(&mut self) {
        self.suspect_count = self
            .suspected
            .iter()
            .map(|(_, t)| t.iter().filter(|&&f| f).count())
            .sum();
    }

    fn suspicion_flag(&mut self, class_idx: usize, peer: ProcessId) -> &mut bool {
        let table = &mut self.suspected[class_idx].1;
        let idx = peer.index();
        if idx >= table.len() {
            table.resize(idx + 1, false);
        }
        &mut table[idx]
    }

    fn last_heard_of(&self, p: ProcessId) -> Time {
        self.last_heard
            .get(p.index())
            .copied()
            .flatten()
            .unwrap_or(self.started_at)
    }

    fn note_heard(&mut self, p: ProcessId, now: Time) {
        let idx = p.index();
        if idx >= self.last_heard.len() {
            self.last_heard.resize(idx + 1, None);
        }
        self.last_heard[idx] = Some(now);
    }

    /// Replaces the set of monitored peers (driven by `new_view`).
    ///
    /// `self` is filtered out; state about dropped peers is discarded.
    pub fn set_peers(&mut self, peers: impl IntoIterator<Item = ProcessId>, now: Time) {
        let me = self.me;
        self.peers = peers.into_iter().filter(|p| *p != me).collect();
        self.peers.sort_unstable();
        self.peers.dedup();
        // `peers` is sorted and deduplicated above, so membership checks
        // during cleanup are binary searches.
        for (i, slot) in self.last_heard.iter_mut().enumerate() {
            if self.peers.binary_search(&ProcessId::new(i as u32)).is_err() {
                *slot = None;
            }
        }
        for (_, table) in &mut self.suspected {
            for (i, flag) in table.iter_mut().enumerate() {
                if self.peers.binary_search(&ProcessId::new(i as u32)).is_err() {
                    *flag = false;
                }
            }
        }
        // Newly monitored (never-heard) peers get a grace period of one full
        // timeout from now rather than being instantly suspected.
        let peers = std::mem::take(&mut self.peers);
        for &p in &peers {
            if self.last_heard.get(p.index()).copied().flatten().is_none() {
                self.note_heard(p, now);
            }
        }
        self.peers = peers;
        self.started_at = self.started_at.max(now);
        self.recount_suspected();
        self.next_scan = None;
    }

    /// The currently monitored peers.
    pub fn peers(&self) -> &[ProcessId] {
        &self.peers
    }

    /// Records a heartbeat from `from`; returns `Restore` transitions for
    /// every class that had suspected `from`.
    pub fn on_heartbeat(&mut self, from: ProcessId, now: Time) -> Vec<FdOut> {
        let mut out = Vec::new();
        self.on_heartbeat_into(from, now, &mut out);
        out
    }

    /// [`on_heartbeat`](Self::on_heartbeat), appending into a caller-owned
    /// buffer (the hot-path entry point: heartbeats arrive every interval
    /// from every peer).
    pub fn on_heartbeat_into(&mut self, from: ProcessId, now: Time, out: &mut Vec<FdOut>) {
        // `peers` is kept sorted by `set_peers`: membership is a binary
        // search, not a linear scan — this runs once per received heartbeat.
        if self.peers.binary_search(&from).is_err() {
            return;
        }
        self.note_heard(from, now);
        // `suspected` is kept sorted by class, so restore transitions stay
        // deterministic.
        for (class, table) in &mut self.suspected {
            if let Some(flag) = table.get_mut(from.index()) {
                if *flag {
                    *flag = false;
                    self.suspect_count -= 1;
                    // The last sweep recorded no deadline for a pair it
                    // found suspected: the horizon no longer covers it.
                    self.next_scan = None;
                    out.push(FdOut::Restore {
                        class: *class,
                        peer: from,
                    });
                }
            }
        }
    }

    /// The alive digest to piggyback on this tick's heartbeats while the
    /// detector [gossips](Self::gossips): the last-heard times of the ring
    /// segment currently being probed (the rotation covers every peer once
    /// per cycle). Entries are `(peer, last-heard)`; receivers merge them
    /// with [`Self::on_gossip`].
    pub fn digest(&self) -> Vec<(ProcessId, Time)> {
        let m = self.peers.len();
        if m == 0 {
            return Vec::new();
        }
        (0..self.probes_per_tick())
            .map(|j| {
                let p = self.peers[(self.last_base + j) % m];
                (p, self.last_heard_of(p))
            })
            .collect()
    }

    /// Records a gossip heartbeat from `from` carrying an alive `digest`:
    /// `from` itself is marked heard now, and each digest entry can only
    /// *advance* a peer's last-heard time (a crashed peer's entries never
    /// postdate its crash, so digests cannot mask a real failure). Restores
    /// fire for any class whose suspicion the merged times clear.
    pub fn on_gossip(
        &mut self,
        from: ProcessId,
        digest: &[(ProcessId, Time)],
        now: Time,
    ) -> Vec<FdOut> {
        let mut out = Vec::new();
        self.on_gossip_into(from, digest, now, &mut out);
        out
    }

    /// [`on_gossip`](Self::on_gossip), appending into a caller-owned buffer.
    pub fn on_gossip_into(
        &mut self,
        from: ProcessId,
        digest: &[(ProcessId, Time)],
        now: Time,
        out: &mut Vec<FdOut>,
    ) {
        self.on_heartbeat_into(from, now, out);
        for &(p, t) in digest {
            if p == self.me || self.peers.binary_search(&p).is_err() {
                continue;
            }
            if t <= self.last_heard_of(p) {
                continue;
            }
            self.note_heard(p, t);
            if self.suspect_count == 0 {
                continue;
            }
            for i in 0..self.classes.len() {
                let (class, state) = self.classes[i];
                if now.since(t) > self.effective_timeout(state) {
                    continue; // still stale enough to stay suspected
                }
                let flag = self.suspicion_flag(i, p);
                if *flag {
                    *flag = false;
                    self.suspect_count -= 1;
                    self.next_scan = None; // as in `on_heartbeat_into`
                    out.push(FdOut::Restore { class, peer: p });
                }
            }
        }
    }

    /// Periodic driver: emits heartbeats and evaluates timeouts.
    pub fn on_tick(&mut self, now: Time) -> Vec<FdOut> {
        let mut out = Vec::new();
        self.on_tick_into(now, &mut out);
        out
    }

    /// [`on_tick`](Self::on_tick), appending into a caller-owned buffer.
    pub fn on_tick_into(&mut self, now: Time, out: &mut Vec<FdOut>) {
        // Probe the next ring segment: k consecutive peers at an offset
        // advancing by k each tick, so every peer is probed exactly once per
        // ⌈m/k⌉-tick cycle. With k = m that is every peer, in order.
        let m = self.peers.len();
        if m > 0 {
            let k = self.probes_per_tick();
            self.last_base = ((self.round * k as u64) % m as u64) as usize;
            self.round += 1;
            out.extend((0..k).map(|j| FdOut::SendHeartbeat {
                to: self.peers[(self.last_base + j) % m],
            }));
        }
        // The timeout sweep is O(peers · classes); while nothing is
        // suspected it only needs to run once a (peer, class) deadline can
        // actually have passed. Heartbeats move deadlines later, so the
        // recorded horizon is conservative: sweeping early finds nothing,
        // and every genuine crossing happens at or after its pair's horizon.
        if self.suspect_count == 0 {
            if let Some(at) = self.next_scan {
                if now < at {
                    return;
                }
            }
        }
        let mut horizon = Time::MAX;
        // Rotation slack depends on the peer count; compute it before the
        // borrow-splitting take below empties `self.peers`.
        let slack = self.rotation_slack();
        let peers = std::mem::take(&mut self.peers);
        for &peer in &peers {
            let last = self.last_heard_of(peer);
            for i in 0..self.classes.len() {
                let (class, state) = self.classes[i];
                let timeout = state.timeout + slack;
                let suspected_now = now.since(last) > timeout;
                let flag = self.suspicion_flag(i, peer);
                if suspected_now && !*flag {
                    *flag = true;
                    self.suspect_count += 1;
                    out.push(FdOut::Suspect { class, peer });
                } else if !suspected_now && *flag {
                    *flag = false;
                    self.suspect_count -= 1;
                    out.push(FdOut::Restore { class, peer });
                } else if !suspected_now {
                    horizon = horizon.min(last + timeout);
                }
            }
        }
        self.peers = peers;
        self.next_scan = Some(horizon);
    }

    /// Whether `peer` is currently suspected by `class`.
    pub fn is_suspected(&self, class: MonitorClass, peer: ProcessId) -> bool {
        self.suspected
            .iter()
            .find(|(c, _)| *c == class)
            .and_then(|(_, table)| table.get(peer.index()))
            .copied()
            .unwrap_or(false)
    }

    /// All peers currently suspected by `class`, sorted.
    pub fn suspected_by(&self, class: MonitorClass) -> Vec<ProcessId> {
        self.suspected
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, table)| {
                table
                    .iter()
                    .enumerate()
                    .filter(|&(_, &s)| s)
                    .map(|(i, _)| ProcessId::new(i as u32))
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ME: ProcessId = ProcessId::new(0);
    const P1: ProcessId = ProcessId::new(1);
    const P2: ProcessId = ProcessId::new(2);

    fn fd() -> HeartbeatFd {
        let mut fd = HeartbeatFd::new(ME, TimeDelta::from_millis(10));
        fd.register_class(MonitorClass::CONSENSUS, TimeDelta::from_millis(50));
        fd.register_class(MonitorClass::MONITORING, TimeDelta::from_millis(500));
        fd.set_peers([P1, P2], Time::ZERO);
        fd
    }

    #[test]
    fn emits_heartbeats_to_all_peers() {
        let mut fd = fd();
        let out = fd.on_tick(Time::ZERO);
        let hbs: Vec<ProcessId> = out
            .iter()
            .filter_map(|o| match o {
                FdOut::SendHeartbeat { to } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(hbs, vec![P1, P2]);
    }

    #[test]
    fn small_timeout_class_suspects_first() {
        let mut fd = fd();
        fd.on_heartbeat(P1, Time::ZERO);
        fd.on_heartbeat(P2, Time::ZERO);
        // At 100 ms only the consensus class has timed out.
        let out = fd.on_tick(Time::from_millis(100));
        assert!(out.contains(&FdOut::Suspect {
            class: MonitorClass::CONSENSUS,
            peer: P1
        }));
        assert!(!out.iter().any(
            |o| matches!(o, FdOut::Suspect { class, .. } if *class == MonitorClass::MONITORING)
        ));
        // At 600 ms the monitoring class suspects too.
        let out = fd.on_tick(Time::from_millis(600));
        assert!(out.contains(&FdOut::Suspect {
            class: MonitorClass::MONITORING,
            peer: P1
        }));
        assert!(fd.is_suspected(MonitorClass::CONSENSUS, P1));
        assert_eq!(fd.suspected_by(MonitorClass::MONITORING), vec![P1, P2]);
    }

    #[test]
    fn heartbeat_restores_suspected_peer() {
        let mut fd = fd();
        fd.on_tick(Time::from_millis(100));
        assert!(fd.is_suspected(MonitorClass::CONSENSUS, P1));
        let out = fd.on_heartbeat(P1, Time::from_millis(101));
        assert_eq!(
            out,
            vec![FdOut::Restore {
                class: MonitorClass::CONSENSUS,
                peer: P1
            }]
        );
        assert!(!fd.is_suspected(MonitorClass::CONSENSUS, P1));
    }

    #[test]
    fn peer_restored_by_a_heartbeat_is_suspected_again_when_it_goes_silent() {
        // Regression: the sweep that finds *every* consensus-class pair
        // suspected records only the monitoring deadlines as its horizon;
        // once heartbeats restored the peers (suspect count back to zero)
        // the skip-until-horizon shortcut slept through their next silence.
        let mut fd = fd();
        fd.on_tick(Time::from_millis(100));
        assert_eq!(fd.suspected_by(MonitorClass::CONSENSUS), vec![P1, P2]);
        fd.on_heartbeat(P1, Time::from_millis(101));
        fd.on_heartbeat(P2, Time::from_millis(101));
        assert!(fd.suspected_by(MonitorClass::CONSENSUS).is_empty());
        // P2 keeps talking, P1 crashed right after that heartbeat.
        fd.on_heartbeat(P2, Time::from_millis(150));
        let out = fd.on_tick(Time::from_millis(160));
        assert!(
            out.contains(&FdOut::Suspect {
                class: MonitorClass::CONSENSUS,
                peer: P1
            }),
            "{out:?}"
        );
        assert_eq!(fd.suspected_by(MonitorClass::CONSENSUS), vec![P1]);
    }

    #[test]
    fn suspicion_transitions_fire_once() {
        let mut fd = fd();
        let first = fd.on_tick(Time::from_millis(100));
        assert!(first.iter().any(|o| matches!(o, FdOut::Suspect { .. })));
        let second = fd.on_tick(Time::from_millis(110));
        assert!(!second.iter().any(|o| matches!(o, FdOut::Suspect { .. })));
    }

    #[test]
    fn set_peers_gives_grace_period() {
        let mut fd = fd();
        let now = Time::from_secs(10);
        fd.set_peers([P1], now);
        // P1 was already monitored; its last-heard of t=0 is retained, so it
        // is suspected — but a brand new peer gets the grace period.
        let p9 = ProcessId::new(9);
        fd.set_peers([P1, p9], now);
        let out = fd.on_tick(now + TimeDelta::from_millis(10));
        assert!(out.contains(&FdOut::Suspect {
            class: MonitorClass::CONSENSUS,
            peer: P1
        }));
        assert!(!out.contains(&FdOut::Suspect {
            class: MonitorClass::CONSENSUS,
            peer: p9
        }));
    }

    #[test]
    fn removed_peer_state_is_dropped() {
        let mut fd = fd();
        fd.on_tick(Time::from_millis(100));
        assert!(fd.is_suspected(MonitorClass::CONSENSUS, P1));
        fd.set_peers([P2], Time::from_millis(100));
        assert!(!fd.is_suspected(MonitorClass::CONSENSUS, P1));
        assert!(fd.on_heartbeat(P1, Time::from_millis(101)).is_empty());
        assert_eq!(fd.peers(), &[P2]);
    }

    #[test]
    fn self_is_never_monitored() {
        let mut fd = HeartbeatFd::new(ME, TimeDelta::from_millis(10));
        fd.register_class(MonitorClass::CONSENSUS, TimeDelta::from_millis(50));
        fd.set_peers([ME, P1], Time::ZERO);
        assert_eq!(fd.peers(), &[P1]);
    }

    /// A detector over `peers` peers with a consensus class.
    fn fd_over(peers: u32) -> HeartbeatFd {
        let mut fd = HeartbeatFd::new(ME, TimeDelta::from_millis(10));
        fd.register_class(MonitorClass::CONSENSUS, TimeDelta::from_millis(50));
        fd.set_peers((1..=peers).map(ProcessId::new), Time::ZERO);
        fd
    }

    fn probed(out: &[FdOut]) -> Vec<ProcessId> {
        out.iter()
            .filter_map(|o| match o {
                FdOut::SendHeartbeat { to } => Some(*to),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn every_peer_is_probed_up_to_the_threshold_and_a_logarithm_above() {
        // A group of 16 (15 peers) is all-pairs: every peer, every tick.
        let mut fd = fd_over(15);
        assert!(!fd.gossips());
        for tick in 0..3u64 {
            let out = fd.on_tick(Time::from_millis(10 * tick));
            assert_eq!(
                probed(&out),
                (1..=15).map(ProcessId::new).collect::<Vec<_>>()
            );
        }
        // 17 processes (16 peers): ⌈log₂ 17⌉ = 5 a tick.
        let mut fd = fd_over(16);
        assert!(fd.gossips());
        assert_eq!(probed(&fd.on_tick(Time::ZERO)).len(), 5);
        // Without the rotation slack of a gossiping detector.
        assert_eq!(
            fd_over(15).suspicion_bound(MonitorClass::CONSENSUS),
            Some(TimeDelta::from_millis(50 + 10))
        );
    }

    #[test]
    fn gossip_probes_a_rotating_segment_covering_every_peer() {
        // 20 peers: 5 a tick, a 4-tick cycle.
        let mut fd = fd_over(20);
        let mut probed_once = std::collections::BTreeSet::new();
        for tick in 0..4u64 {
            let hbs = probed(&fd.on_tick(Time::from_millis(10 * tick)));
            assert_eq!(hbs.len(), 5, "fanout-sized segment each tick");
            probed_once.extend(hbs);
        }
        // One cycle (⌈20/5⌉ = 4 ticks) probes every peer exactly once.
        assert_eq!(probed_once.len(), 20);
    }

    #[test]
    fn gossip_timeout_is_extended_by_the_rotation_cycle() {
        let mut fd = fd_over(20);
        for p in 1..=20 {
            fd.on_heartbeat(ProcessId::new(p), Time::ZERO);
        }
        // The all-pairs deadline (50 ms) passes without suspicion: the
        // effective gossip timeout is 50 + 4·10 (cycle) = 90 ms.
        let out = fd.on_tick(Time::from_millis(80));
        assert!(
            !out.iter().any(|o| matches!(o, FdOut::Suspect { .. })),
            "{out:?}"
        );
        let out = fd.on_tick(Time::from_millis(100));
        assert!(out.contains(&FdOut::Suspect {
            class: MonitorClass::CONSENSUS,
            peer: P1
        }));
        assert_eq!(
            fd.suspicion_bound(MonitorClass::CONSENSUS),
            Some(TimeDelta::from_millis(50 + 40 + 10))
        );
    }

    #[test]
    fn digest_entries_restore_an_indirectly_heard_peer() {
        let mut fd = fd_over(20);
        for p in 1..=20 {
            fd.on_heartbeat(ProcessId::new(p), Time::ZERO);
        }
        fd.on_tick(Time::from_millis(100));
        assert!(fd.is_suspected(MonitorClass::CONSENSUS, P1));
        // P2's gossip vouches it heard P1 recently — the suspicion lifts
        // without a direct heartbeat from P1.
        let out = fd.on_gossip(P2, &[(P1, Time::from_millis(95))], Time::from_millis(101));
        assert!(out.contains(&FdOut::Restore {
            class: MonitorClass::CONSENSUS,
            peer: P1
        }));
        assert!(!fd.is_suspected(MonitorClass::CONSENSUS, P1));
    }

    #[test]
    fn stale_digest_entries_cannot_mask_a_crash() {
        let mut fd = fd_over(20);
        for p in 1..=20 {
            fd.on_heartbeat(ProcessId::new(p), Time::from_millis(100));
        }
        fd.on_tick(Time::from_millis(200));
        assert!(fd.is_suspected(MonitorClass::CONSENSUS, P1));
        // A digest whose last-heard for P1 predates what we already know
        // is ignored: last-heard times only move forward, and a crashed
        // peer's entries never postdate its crash.
        let out = fd.on_gossip(P2, &[(P1, Time::from_millis(40))], Time::from_millis(201));
        assert!(!out
            .iter()
            .any(|o| matches!(o, FdOut::Restore { peer, .. } if *peer == P1)));
        assert!(fd.is_suspected(MonitorClass::CONSENSUS, P1));
    }

    #[test]
    fn digest_covers_the_probed_segment() {
        let mut fd = fd_over(20);
        fd.on_tick(Time::ZERO);
        let digest = fd.digest();
        assert_eq!(digest.len(), 5, "digest mirrors the probed segment");
        for (p, _) in digest {
            assert!(fd.peers().contains(&p));
        }
    }
}

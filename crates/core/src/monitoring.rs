//! The monitoring component — exclusion policy, decoupled from failure
//! detection (§3.3.2).
//!
//! Suspicions reach monitoring from two independent sources (§4.2):
//!
//! 1. the **failure detector's long-timeout class** (order of minutes in the
//!    paper, configurable here), and
//! 2. the **reliable channel's output-triggered suspicion** — a peer that
//!    stops acknowledging for too long (\[12\]).
//!
//! The policy is deliberately conservative: a process is excluded only when
//! enough distinct members report it (threshold `k`), optionally counting
//! output-triggered reports. Exclusion means asking the membership component
//! to `remove` the process — never killing it, unlike the perfect-failure-
//! detector emulation of traditional architectures.

use std::collections::{BTreeMap, BTreeSet};

use gcs_kernel::ProcessId;

use crate::types::{MonMsg, WireMsg};

/// Exclusion policy configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MonitoringPolicy {
    /// Exclude a peer once this many distinct members (including self)
    /// report it. `1` = any long-timeout suspicion excludes. The unit tests
    /// below raise it to 2.
    pub threshold: usize,
    /// Count failure-detector (long-timeout class) suspicions.
    /// `tests/full_stack.rs`'s output-triggered exclusion turns it off, so
    /// that only the reliable channel can exclude.
    pub use_fd: bool,
    /// Count reliable-channel output-triggered suspicions. The unit tests
    /// below turn it off.
    pub use_output_triggered: bool,
}

impl Default for MonitoringPolicy {
    fn default() -> Self {
        MonitoringPolicy {
            threshold: 1,
            use_fd: true,
            use_output_triggered: true,
        }
    }
}

/// An instruction produced by the monitoring core.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MonOut {
    /// Gossip a suspicion report to a fellow member.
    Wire(ProcessId, WireMsg),
    /// Ask the membership component to remove `peer` (`remove` in Fig 9).
    Exclude(ProcessId),
}

/// The monitoring core (sans-I/O).
#[derive(Debug)]
pub struct MonitoringCore {
    me: ProcessId,
    members: Vec<ProcessId>,
    policy: MonitoringPolicy,
    /// suspect → reporting members.
    reporters: BTreeMap<ProcessId, BTreeSet<ProcessId>>,
    /// Exclusions already requested (avoid repeats).
    excluded: BTreeSet<ProcessId>,
}

impl MonitoringCore {
    /// Creates the core for `me` monitoring `members`.
    pub fn new(me: ProcessId, members: Vec<ProcessId>, policy: MonitoringPolicy) -> Self {
        MonitoringCore {
            me,
            members,
            policy,
            reporters: BTreeMap::new(),
            excluded: BTreeSet::new(),
        }
    }

    /// Installs a new member set (view change). State about processes no
    /// longer in the view is dropped.
    pub fn set_members(&mut self, members: Vec<ProcessId>) {
        self.reporters.retain(|p, _| members.contains(p));
        for (_, r) in self.reporters.iter_mut() {
            r.retain(|p| members.contains(p));
        }
        self.excluded.retain(|p| members.contains(p));
        self.members = members;
    }

    /// Local failure-detector (long-timeout class) suspicion of `peer`:
    /// record it and gossip to the other members.
    pub fn on_fd_suspect(&mut self, peer: ProcessId) -> Vec<MonOut> {
        if !self.policy.use_fd {
            return Vec::new();
        }
        let mut out = Vec::new();
        for &m in &self.members {
            if m != self.me && m != peer {
                out.push(MonOut::Wire(m, WireMsg::Mon(MonMsg::Report { peer })));
            }
        }
        self.record(self.me, peer, &mut out);
        out
    }

    /// Local failure-detector restoration: withdraw our report.
    pub fn on_fd_restore(&mut self, peer: ProcessId) {
        if let Some(r) = self.reporters.get_mut(&peer) {
            r.remove(&self.me);
        }
    }

    /// Output-triggered suspicion from the reliable channel (§3.3.2).
    pub fn on_stuck(&mut self, peer: ProcessId) -> Vec<MonOut> {
        if !self.policy.use_output_triggered {
            return Vec::new();
        }
        let mut out = Vec::new();
        self.record(self.me, peer, &mut out);
        out
    }

    /// The peer acknowledged again; withdraw the output-triggered report.
    pub fn on_unstuck(&mut self, peer: ProcessId) {
        self.on_fd_restore(peer);
    }

    /// A gossiped report from another member.
    pub fn on_report(&mut self, from: ProcessId, peer: ProcessId) -> Vec<MonOut> {
        let mut out = Vec::new();
        self.record(from, peer, &mut out);
        out
    }

    fn record(&mut self, reporter: ProcessId, peer: ProcessId, out: &mut Vec<MonOut>) {
        if peer == self.me || !self.members.contains(&peer) {
            return;
        }
        let reports = self.reporters.entry(peer).or_default();
        reports.insert(reporter);
        if reports.len() >= self.policy.threshold && self.excluded.insert(peer) {
            out.push(MonOut::Exclude(peer));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn members() -> Vec<ProcessId> {
        (0..4).map(pid).collect()
    }

    #[test]
    fn threshold_one_excludes_on_first_suspicion() {
        let mut m = MonitoringCore::new(pid(0), members(), MonitoringPolicy::default());
        let out = m.on_fd_suspect(pid(3));
        assert!(out.contains(&MonOut::Exclude(pid(3))));
        // Gossip goes to the other members (not self, not the suspect).
        let gossip = out.iter().filter(|o| matches!(o, MonOut::Wire(..))).count();
        assert_eq!(gossip, 2);
        // Never excluded twice.
        assert!(!m.on_fd_suspect(pid(3)).contains(&MonOut::Exclude(pid(3))));
    }

    #[test]
    fn threshold_two_waits_for_a_second_reporter() {
        let policy = MonitoringPolicy {
            threshold: 2,
            ..Default::default()
        };
        let mut m = MonitoringCore::new(pid(0), members(), policy);
        let out = m.on_fd_suspect(pid(3));
        assert!(!out.contains(&MonOut::Exclude(pid(3))));
        let out = m.on_report(pid(1), pid(3));
        assert!(out.contains(&MonOut::Exclude(pid(3))));
    }

    #[test]
    fn restore_withdraws_report() {
        let policy = MonitoringPolicy {
            threshold: 2,
            ..Default::default()
        };
        let mut m = MonitoringCore::new(pid(0), members(), policy);
        let _ = m.on_fd_suspect(pid(3));
        m.on_fd_restore(pid(3));
        // A second reporter alone no longer reaches the threshold.
        let out = m.on_report(pid(1), pid(3));
        assert!(!out.contains(&MonOut::Exclude(pid(3))));
    }

    #[test]
    fn output_triggered_counts_when_enabled() {
        let mut m = MonitoringCore::new(pid(0), members(), MonitoringPolicy::default());
        let out = m.on_stuck(pid(2));
        assert!(out.contains(&MonOut::Exclude(pid(2))));

        let off = MonitoringPolicy {
            use_output_triggered: false,
            ..Default::default()
        };
        let mut m = MonitoringCore::new(pid(0), members(), off);
        assert!(m.on_stuck(pid(2)).is_empty());
    }

    #[test]
    fn fd_reports_ignored_when_disabled() {
        let policy = MonitoringPolicy {
            use_fd: false,
            ..Default::default()
        };
        let mut m = MonitoringCore::new(pid(0), members(), policy);
        assert!(m.on_fd_suspect(pid(1)).is_empty());
    }

    #[test]
    fn self_and_non_members_are_never_excluded() {
        let mut m = MonitoringCore::new(pid(0), members(), MonitoringPolicy::default());
        assert!(m.on_report(pid(1), pid(0)).is_empty());
        assert!(m.on_report(pid(1), pid(9)).is_empty());
    }

    #[test]
    fn view_change_drops_stale_state() {
        let policy = MonitoringPolicy {
            threshold: 2,
            ..Default::default()
        };
        let mut m = MonitoringCore::new(pid(0), members(), policy);
        let _ = m.on_fd_suspect(pid(3));
        m.set_members(vec![pid(0), pid(1), pid(2)]);
        // p3 left; a new report about it is ignored.
        assert!(m.on_report(pid(1), pid(3)).is_empty());
    }
}

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
//! The policy is the paper's simplest: the first report excludes, whichever
//! source it comes from — the local failure detector's long-timeout class,
//! the local reliable channel, or another member's gossiped report. Each
//! peer is excluded once. Exclusion means asking the membership component
//! to `remove` the process — never killing it, unlike the perfect-failure-
//! detector emulation of traditional architectures.

use std::collections::BTreeSet;

use gcs_kernel::ProcessId;

use crate::types::{MonMsg, WireMsg};

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
    /// Exclusions already requested (avoid repeats).
    excluded: BTreeSet<ProcessId>,
}

impl MonitoringCore {
    /// Creates the core for `me` monitoring `members`.
    pub fn new(me: ProcessId, members: Vec<ProcessId>) -> Self {
        MonitoringCore {
            me,
            members,
            excluded: BTreeSet::new(),
        }
    }

    /// Installs a new member set (view change). State about processes no
    /// longer in the view is dropped.
    pub fn set_members(&mut self, members: Vec<ProcessId>) {
        self.excluded.retain(|p| members.contains(p));
        self.members = members;
    }

    /// Local failure-detector (long-timeout class) suspicion of `peer`:
    /// gossip it to the other members and exclude.
    pub fn on_fd_suspect(&mut self, peer: ProcessId) -> Vec<MonOut> {
        let mut out = Vec::new();
        for &m in &self.members {
            if m != self.me && m != peer {
                out.push(MonOut::Wire(m, WireMsg::Mon(MonMsg::Report { peer })));
            }
        }
        self.record(peer, &mut out);
        out
    }

    /// Output-triggered suspicion from the reliable channel (§3.3.2).
    pub fn on_stuck(&mut self, peer: ProcessId) -> Vec<MonOut> {
        let mut out = Vec::new();
        self.record(peer, &mut out);
        out
    }

    /// A gossiped report from another member.
    pub fn on_report(&mut self, peer: ProcessId) -> Vec<MonOut> {
        let mut out = Vec::new();
        self.record(peer, &mut out);
        out
    }

    fn record(&mut self, peer: ProcessId, out: &mut Vec<MonOut>) {
        if peer == self.me || !self.members.contains(&peer) {
            return;
        }
        if self.excluded.insert(peer) {
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
    fn first_suspicion_excludes() {
        let mut m = MonitoringCore::new(pid(0), members());
        let out = m.on_fd_suspect(pid(3));
        assert!(out.contains(&MonOut::Exclude(pid(3))));
        // Gossip goes to the other members (not self, not the suspect).
        let gossip = out.iter().filter(|o| matches!(o, MonOut::Wire(..))).count();
        assert_eq!(gossip, 2);
        // Never excluded twice.
        assert!(!m.on_fd_suspect(pid(3)).contains(&MonOut::Exclude(pid(3))));
    }

    #[test]
    fn output_triggered_suspicion_excludes() {
        let mut m = MonitoringCore::new(pid(0), members());
        let out = m.on_stuck(pid(2));
        assert!(out.contains(&MonOut::Exclude(pid(2))));
    }

    #[test]
    fn self_and_non_members_are_never_excluded() {
        let mut m = MonitoringCore::new(pid(0), members());
        assert!(m.on_report(pid(0)).is_empty());
        assert!(m.on_report(pid(9)).is_empty());
    }

    #[test]
    fn view_change_drops_stale_state() {
        let mut m = MonitoringCore::new(pid(0), members());
        m.set_members(vec![pid(0), pid(1), pid(2)]);
        // p3 left; a report about it is ignored.
        assert!(m.on_report(pid(3)).is_empty());
    }
}

//! Group membership implemented **on top of** atomic broadcast (§3.1.1) —
//! the inversion that defines the new architecture.
//!
//! `join` and `remove` are ordinary atomically broadcast control messages;
//! because the single total order covers both view changes and application
//! messages, view agreement and *same view delivery* (§4.4) come for free —
//! there is no separate view-agreement protocol and **no send blocking**
//! during a view change.
//!
//! Joins: a non-member sends a `JoinRequest` to any member (the sponsor);
//! the sponsor a-broadcasts `Join(p)`; when that control message is
//! a-delivered, every member installs the successor view and the sponsor
//! assembles a state-transfer snapshot for the joiner.

use std::collections::BTreeSet;

use bytes::Bytes;
use gcs_kernel::ProcessId;

use crate::types::{Body, MbMsg, Message, SnapshotData, View, WireMsg};

/// An instruction produced by the membership core.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MbOut {
    /// Atomically broadcast a control body (`join`/`remove` of Fig 9).
    Abcast(Body),
    /// Send a wire message (join request or snapshot).
    Wire(ProcessId, WireMsg),
    /// A new view was installed; every component must be told (`new_view`).
    ViewChanged(View),
    /// Begin snapshot assembly for a joiner this process sponsors.
    AssembleSnapshot {
        /// The joiner.
        joiner: ProcessId,
        /// Partially filled snapshot (view and application state).
        snap: Box<SnapshotData>,
    },
    /// This process was removed from the group.
    Excluded,
    /// Reliable-channel state for `peer` can be discarded (§3.3.2).
    Forget(ProcessId),
}

/// The membership core (sans-I/O).
#[derive(Debug)]
pub struct MembershipCore {
    me: ProcessId,
    view: View,
    member: bool,
    /// Joiners whose `Join` this process has a-broadcast and not yet served.
    sponsoring: BTreeSet<ProcessId>,
    /// Size of the dummy application state included in snapshots (models
    /// the paper's state-transfer cost, §4.3).
    state_size: usize,
}

impl MembershipCore {
    /// Creates the core; founding members pass the initial view.
    pub fn new(me: ProcessId, initial_view: Option<View>, state_size: usize) -> Self {
        let (view, member) = match initial_view {
            Some(v) => {
                let m = v.contains(me);
                (v, m)
            }
            None => (
                View {
                    id: 0,
                    members: Vec::new(),
                },
                false,
            ),
        };
        MembershipCore {
            me,
            view,
            member,
            sponsoring: BTreeSet::new(),
            state_size,
        }
    }

    /// The current view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Whether this process currently belongs to the group.
    pub fn is_member(&self) -> bool {
        self.member
    }

    /// (Non-member) requests membership through `contact`.
    pub fn join_via(&mut self, contact: ProcessId) -> Vec<MbOut> {
        if self.member {
            return Vec::new();
        }
        vec![MbOut::Wire(contact, WireMsg::Mb(MbMsg::JoinRequest))]
    }

    /// (Member) asks the group to remove `p` — called by the monitoring
    /// component (`remove` in Fig 9) or by the application (voluntary
    /// leave).
    pub fn remove(&mut self, p: ProcessId) -> Vec<MbOut> {
        if !self.member || !self.view.contains(p) {
            return Vec::new();
        }
        vec![MbOut::Abcast(Body::Remove(p))]
    }

    /// Handles a join request from a prospective member.
    pub fn on_join_request(&mut self, from: ProcessId) -> Vec<MbOut> {
        if !self.member || self.view.contains(from) || !self.sponsoring.insert(from) {
            return Vec::new();
        }
        vec![MbOut::Abcast(Body::Join(from))]
    }

    /// Handles an a-delivered membership control message.
    pub fn on_ctrl(&mut self, m: &Message) -> Vec<MbOut> {
        let mut out = Vec::new();
        match &m.body {
            Body::Join(p) => {
                if self.view.contains(*p) {
                    self.sponsoring.remove(p);
                    return out; // duplicate join
                }
                self.view = self.view.with_join(*p);
                out.push(MbOut::ViewChanged(self.view.clone()));
                // The sponsor (sender of the ordered Join) serves the
                // snapshot; every member agrees on who that is.
                if m.id.sender == self.me && self.member {
                    self.sponsoring.remove(p);
                    out.push(MbOut::AssembleSnapshot {
                        joiner: *p,
                        snap: Box::new(SnapshotData {
                            view: self.view.clone(),
                            next_instance: 0,
                            adelivered: Vec::new(),
                            gdelivered: Vec::new(),
                            gb_epoch: 0,
                            designated: None,
                            app_state: Bytes::from(vec![0u8; self.state_size]),
                        }),
                    });
                }
            }
            Body::Remove(p) => {
                if !self.view.contains(*p) {
                    return out; // duplicate remove
                }
                self.view = self.view.with_remove(*p);
                if *p == self.me {
                    self.member = false;
                    out.push(MbOut::Excluded);
                }
                out.push(MbOut::ViewChanged(self.view.clone()));
                out.push(MbOut::Forget(*p));
            }
            Body::App(_) | Body::GbEnd(_) => {}
        }
        out
    }

    /// (Joiner) installs the received snapshot and becomes a member.
    pub fn on_snapshot(&mut self, snap: &SnapshotData) -> Vec<MbOut> {
        if self.member {
            return Vec::new();
        }
        self.view = snap.view.clone();
        self.member = true;
        vec![MbOut::ViewChanged(self.view.clone())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{MessageClass, MsgId};

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn ctrl(sender: u32, body: Body) -> Message {
        Message {
            id: MsgId {
                sender: pid(sender),
                seq: 0,
            },
            class: MessageClass::ABCAST,
            body,
        }
    }

    fn member(i: u32) -> MembershipCore {
        MembershipCore::new(pid(i), Some(View::initial(vec![pid(0), pid(1), pid(2)])), 0)
    }

    #[test]
    fn join_request_is_abcast_once() {
        let mut m = member(0);
        let out = m.on_join_request(pid(3));
        assert_eq!(out, vec![MbOut::Abcast(Body::Join(pid(3)))]);
        assert!(m.on_join_request(pid(3)).is_empty(), "already sponsoring");
        assert!(m.on_join_request(pid(1)).is_empty(), "already a member");
    }

    #[test]
    fn sponsor_assembles_snapshot_on_join_delivery() {
        let mut m = member(0);
        let _ = m.on_join_request(pid(3));
        let out = m.on_ctrl(&ctrl(0, Body::Join(pid(3))));
        assert!(matches!(out[0], MbOut::ViewChanged(ref v) if v.id == 1 && v.contains(pid(3))));
        assert!(out
            .iter()
            .any(|o| matches!(o, MbOut::AssembleSnapshot { joiner, .. } if *joiner == pid(3))));
        // Non-sponsors only install the view.
        let mut m1 = member(1);
        let out = m1.on_ctrl(&ctrl(0, Body::Join(pid(3))));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn duplicate_join_is_ignored() {
        let mut m = member(1);
        let _ = m.on_ctrl(&ctrl(0, Body::Join(pid(3))));
        assert!(m.on_ctrl(&ctrl(2, Body::Join(pid(3)))).is_empty());
        assert_eq!(m.view().id, 1);
    }

    #[test]
    fn remove_installs_view_and_forgets_peer() {
        let mut m = member(0);
        let out = m.on_ctrl(&ctrl(1, Body::Remove(pid(2))));
        assert!(out.contains(&MbOut::Forget(pid(2))));
        assert!(!m.view().contains(pid(2)));
        assert!(m.is_member());
        // Duplicate remove is a no-op.
        assert!(m.on_ctrl(&ctrl(1, Body::Remove(pid(2)))).is_empty());
    }

    #[test]
    fn removed_process_learns_its_exclusion() {
        let mut m = member(2);
        let out = m.on_ctrl(&ctrl(1, Body::Remove(pid(2))));
        assert!(out.contains(&MbOut::Excluded));
        assert!(!m.is_member());
        // A non-member cannot remove others.
        assert!(m.remove(pid(0)).is_empty());
    }

    #[test]
    fn joiner_installs_snapshot() {
        let mut j = MembershipCore::new(pid(3), None, 0);
        assert!(!j.is_member());
        let out = j.join_via(pid(0));
        assert!(matches!(out[0], MbOut::Wire(p, WireMsg::Mb(MbMsg::JoinRequest)) if p == pid(0)));
        let snap = SnapshotData {
            view: View {
                id: 1,
                members: vec![pid(0), pid(1), pid(2), pid(3)],
            },
            next_instance: 4,
            adelivered: vec![],
            gdelivered: vec![],
            gb_epoch: 2,
            designated: None,
            app_state: Bytes::new(),
        };
        let out = j.on_snapshot(&snap);
        assert!(j.is_member());
        assert!(matches!(out[0], MbOut::ViewChanged(ref v) if v.id == 1));
    }

    #[test]
    fn snapshot_state_size_is_configured() {
        let mut m = MembershipCore::new(
            pid(0),
            Some(View::initial(vec![pid(0), pid(1), pid(2)])),
            1024,
        );
        let _ = m.on_join_request(pid(3));
        let out = m.on_ctrl(&ctrl(0, Body::Join(pid(3))));
        let snap = out
            .iter()
            .find_map(|o| match o {
                MbOut::AssembleSnapshot { snap, .. } => Some(snap),
                _ => None,
            })
            .expect("sponsor assembles");
        assert_eq!(snap.app_state.len(), 1024);
    }
}

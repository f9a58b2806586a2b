//! Scripted scenario schedules: the fault/membership timeline of a run.
//!
//! A [`Schedule`] is an ordered list of `(time, action)` steps that every
//! experiment composes with a [`Topology`](crate::Topology) and a workload.
//! It subsumes the ad-hoc `crash_at`/`partition_at` call sequences: the
//! whole timeline is a value that can be named, merged, compared and
//! replayed — the precondition for the determinism property tests.
//!
//! Runtime-level actions (crash, partition, link changes, delay spikes,
//! loss bursts) are entered by the backend
//! ([`Runtime::apply_schedule`](crate::Runtime::apply_schedule) —
//! [`SimWorld`](crate::SimWorld) here, the live runtime in `gcs-live`);
//! membership actions ([`Join`](ScheduleAction::Join) /
//! [`Remove`](ScheduleAction::Remove)) are handed back, because only a
//! protocol stack knows how to encode them — the
//! [`Harness`](crate::Harness) asks its
//! [`StackDriver`](crate::StackDriver) and injects the result.

use gcs_kernel::{ProcessId, Time, TimeDelta};

use crate::network::LinkModel;

/// One scheduled scenario action.
#[derive(Clone, Debug, PartialEq)]
pub enum ScheduleAction {
    /// Crash-stop a process.
    Crash(ProcessId),
    /// Install a partition (communication only within a group).
    Partition(Vec<Vec<ProcessId>>),
    /// Partition the network along the topology's region boundaries (each
    /// region becomes one group).
    PartitionRegions,
    /// Heal any partition.
    Heal,
    /// Add `extra` delay to every link for `duration`.
    DelaySpike {
        /// How long the spike lasts.
        duration: TimeDelta,
        /// The extra one-way delay during the spike.
        extra: TimeDelta,
    },
    /// Drop messages with probability `prob` for `duration`.
    LossBurst {
        /// How long the burst lasts.
        duration: TimeDelta,
        /// The additional drop probability during the burst.
        prob: f64,
    },
    /// Replace the directed link `from -> to` (degrade or repair a route
    /// mid-run).
    SetLink {
        /// Link source.
        from: ProcessId,
        /// Link destination.
        to: ProcessId,
        /// The new link model.
        link: LinkModel,
    },
    /// Membership: `joiner` (a process started outside the group) requests
    /// membership via `contact`. Applied by the protocol harness, not the
    /// simulator.
    Join {
        /// The joining process.
        joiner: ProcessId,
        /// The member it contacts.
        contact: ProcessId,
    },
    /// Membership: member `by` asks for the removal of `target`. Applied by
    /// the protocol harness, not the simulator.
    Remove {
        /// The member issuing the removal.
        by: ProcessId,
        /// The member to remove.
        target: ProcessId,
    },
}

impl ScheduleAction {
    /// Whether the simulator can apply this action itself (as opposed to the
    /// membership actions a protocol harness must route).
    pub fn is_sim_level(&self) -> bool {
        !matches!(
            self,
            ScheduleAction::Join { .. } | ScheduleAction::Remove { .. }
        )
    }
}

/// A scripted scenario: `(time, action)` steps, in application order.
///
/// Built with the chaining constructors and handed to
/// `SimWorld::apply_schedule` / [`GroupTransport::apply_schedule`](crate::GroupTransport::apply_schedule):
///
/// ```
/// use gcs_sim::Schedule;
/// use gcs_kernel::{ProcessId, Time};
///
/// let s = Schedule::new()
///     .crash(Time::from_millis(100), ProcessId::new(0))
///     .partition_regions(Time::from_millis(200))
///     .heal(Time::from_millis(400));
/// assert_eq!(s.len(), 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schedule {
    steps: Vec<(Time, ScheduleAction)>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an arbitrary action at `t`.
    pub fn at(mut self, t: Time, action: ScheduleAction) -> Self {
        self.steps.push((t, action));
        self
    }

    /// Crash-stops `p` at `t`.
    pub fn crash(self, t: Time, p: ProcessId) -> Self {
        self.at(t, ScheduleAction::Crash(p))
    }

    /// Installs a partition at `t`.
    pub fn partition(self, t: Time, groups: Vec<Vec<ProcessId>>) -> Self {
        self.at(t, ScheduleAction::Partition(groups))
    }

    /// Partitions along region boundaries at `t`.
    pub fn partition_regions(self, t: Time) -> Self {
        self.at(t, ScheduleAction::PartitionRegions)
    }

    /// Heals any partition at `t`.
    pub fn heal(self, t: Time) -> Self {
        self.at(t, ScheduleAction::Heal)
    }

    /// Adds a delay spike during `[t, t + duration)`.
    pub fn delay_spike(self, t: Time, duration: TimeDelta, extra: TimeDelta) -> Self {
        self.at(t, ScheduleAction::DelaySpike { duration, extra })
    }

    /// Adds a loss burst during `[t, t + duration)`.
    pub fn loss_burst(self, t: Time, duration: TimeDelta, prob: f64) -> Self {
        self.at(t, ScheduleAction::LossBurst { duration, prob })
    }

    /// Replaces the directed link `from -> to` at `t`.
    pub fn set_link(self, t: Time, from: ProcessId, to: ProcessId, link: LinkModel) -> Self {
        self.at(t, ScheduleAction::SetLink { from, to, link })
    }

    /// Schedules `joiner` to request membership via `contact` at `t`.
    pub fn join(self, t: Time, joiner: ProcessId, contact: ProcessId) -> Self {
        self.at(t, ScheduleAction::Join { joiner, contact })
    }

    /// Schedules member `by` to ask for the removal of `target` at `t`.
    pub fn remove(self, t: Time, by: ProcessId, target: ProcessId) -> Self {
        self.at(t, ScheduleAction::Remove { by, target })
    }

    /// Appends every step of `other`.
    pub fn merge(mut self, other: Schedule) -> Self {
        self.steps.extend(other.steps);
        self
    }

    /// The steps, in application order.
    pub fn steps(&self) -> &[(Time, ScheduleAction)] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the schedule has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn builder_records_steps_in_order() {
        let s = Schedule::new()
            .crash(Time::from_millis(10), p(1))
            .heal(Time::from_millis(20))
            .join(Time::from_millis(30), p(3), p(0));
        assert_eq!(s.len(), 3);
        assert_eq!(s.steps()[0].0, Time::from_millis(10));
        assert!(matches!(s.steps()[2].1, ScheduleAction::Join { .. }));
    }

    #[test]
    fn sim_level_classification() {
        assert!(ScheduleAction::Crash(p(0)).is_sim_level());
        assert!(ScheduleAction::Heal.is_sim_level());
        assert!(!ScheduleAction::Join {
            joiner: p(3),
            contact: p(0)
        }
        .is_sim_level());
        assert!(!ScheduleAction::Remove {
            by: p(0),
            target: p(1)
        }
        .is_sim_level());
    }

    #[test]
    fn merge_concatenates() {
        let a = Schedule::new().crash(Time::from_millis(1), p(0));
        let b = Schedule::new().heal(Time::from_millis(2));
        let m = a.merge(b);
        assert_eq!(m.len(), 2);
    }
}

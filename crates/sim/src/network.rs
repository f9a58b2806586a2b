//! The network model: link characteristics, partitions, delay spikes and
//! loss bursts.

use gcs_kernel::{ProcessId, Time, TimeDelta};
use rand::Rng;

use crate::schedule::ScheduleAction;
use crate::topology::Topology;

/// Delay/loss/duplication/bandwidth characteristics of one directed link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// Minimum one-way delay.
    pub delay_min: TimeDelta,
    /// Maximum one-way delay (uniformly sampled between min and max).
    pub delay_max: TimeDelta,
    /// Probability that a message is silently dropped.
    pub drop_prob: f64,
    /// Probability that a message is delivered twice.
    pub dup_prob: f64,
    /// Link bandwidth in bytes per second; `0` means unlimited. A message of
    /// `s` wire bytes pays `s / bandwidth` of serialization delay on top of
    /// the sampled propagation delay, so large payloads are slower than
    /// small ones on constrained links.
    pub bandwidth: u64,
}

impl LinkModel {
    /// A LAN-like link: 0.2–1.2 ms one-way delay, no loss, unlimited
    /// bandwidth.
    pub fn lan() -> Self {
        LinkModel {
            delay_min: TimeDelta::from_micros(200),
            delay_max: TimeDelta::from_micros(1_200),
            drop_prob: 0.0,
            dup_prob: 0.0,
            bandwidth: 0,
        }
    }

    /// A lossy LAN: same delays as [`lan`](Self::lan) with the given loss
    /// probability.
    pub fn lossy_lan(drop_prob: f64) -> Self {
        LinkModel {
            drop_prob,
            ..Self::lan()
        }
    }

    /// A WAN-like link: 10–40 ms one-way delay, 0.1% loss.
    pub fn wan() -> Self {
        LinkModel {
            delay_min: TimeDelta::from_millis(10),
            delay_max: TimeDelta::from_millis(40),
            drop_prob: 0.001,
            dup_prob: 0.0,
            bandwidth: 0,
        }
    }

    /// This link with the given bandwidth (bytes per second; 0 = unlimited).
    pub fn with_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.bandwidth = bytes_per_sec;
        self
    }

    /// Samples a one-way delay for this link.
    pub fn sample_delay<R: Rng>(&self, rng: &mut R) -> TimeDelta {
        let lo = self.delay_min.as_nanos();
        let hi = self.delay_max.as_nanos().max(lo + 1);
        TimeDelta::from_nanos(rng.gen_range(lo..hi))
    }

    /// Serialization delay of a `wire_bytes`-sized message on this link
    /// (zero on unlimited-bandwidth links).
    #[inline]
    pub fn serialization_delay(&self, wire_bytes: usize) -> TimeDelta {
        if self.bandwidth == 0 {
            return TimeDelta::ZERO;
        }
        let nanos = (wire_bytes as u128 * 1_000_000_000) / self.bandwidth as u128;
        TimeDelta::from_nanos(nanos as u64)
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        Self::lan()
    }
}

/// The global network model: a region [`Topology`], per-pair overrides, the
/// current partition (if any), and the last delay spike and loss burst.
///
/// Both runtimes enter their fault steps here
/// ([`apply`](NetworkModel::apply)) and ask it what a message meets on its
/// way; each keeps its own randomness.
#[derive(Clone, Debug, Default)]
pub struct NetworkModel {
    topology: Topology,
    overrides: Vec<((ProcessId, ProcessId), LinkModel)>,
    /// Current partition: a process may communicate only with processes in
    /// its own group. Processes absent from every group are isolated.
    partition: Option<Vec<Vec<ProcessId>>>,
    /// Extra one-way delay of every link, before `spike_until`.
    spike_extra: TimeDelta,
    spike_until: Time,
    /// Extra drop probability of every link, before `burst_until`.
    burst_prob: f64,
    burst_until: Time,
}

impl NetworkModel {
    /// Creates a network where every link uses `default_link` (a one-region
    /// topology).
    pub fn new(default_link: LinkModel) -> Self {
        Self::with_topology(Topology::uniform("uniform", default_link))
    }

    /// Creates a network resolving links through `topology`.
    pub fn with_topology(topology: Topology) -> Self {
        NetworkModel {
            topology,
            ..Self::default()
        }
    }

    /// Enters fault step `action`, scheduled for `at`: a partition (for
    /// [`ScheduleAction::PartitionRegions`], along the topology's regions of
    /// `n` processes), a heal, a link override, or a delay spike or loss
    /// burst that lasts until `at` plus its duration and replaces the last.
    ///
    /// # Panics
    ///
    /// On a crash or a membership step, which are not the network's: a
    /// runtime crashes processes itself, and only a stack encodes membership.
    pub fn apply(&mut self, at: Time, action: ScheduleAction, n: usize) {
        match action {
            ScheduleAction::Partition(groups) => self.set_partition(groups),
            ScheduleAction::PartitionRegions => {
                self.set_partition(self.topology.region_groups(n));
            }
            ScheduleAction::Heal => self.heal(),
            ScheduleAction::DelaySpike { duration, extra } => {
                self.spike_extra = extra;
                self.spike_until = at.saturating_add(duration);
            }
            ScheduleAction::LossBurst { duration, prob } => {
                self.burst_prob = prob;
                self.burst_until = at.saturating_add(duration);
            }
            ScheduleAction::SetLink { from, to, link } => self.set_link(from, to, link),
            other => panic!("{other:?} is not a network step"),
        }
    }

    /// The probability that a message sent over `link` at `now` is lost: the
    /// link's own, plus a loss burst's while it lasts.
    pub fn drop_prob(&self, link: &LinkModel, now: Time) -> f64 {
        if now < self.burst_until {
            (link.drop_prob + self.burst_prob).min(1.0)
        } else {
            link.drop_prob
        }
    }

    /// The delay a spike adds to every message sent at `now` while it lasts.
    pub fn spike(&self, now: Time) -> TimeDelta {
        if now < self.spike_until {
            self.spike_extra
        } else {
            TimeDelta::ZERO
        }
    }

    /// The topology links resolve through (unless overridden per pair).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Overrides the model of the directed link `from -> to`.
    pub fn set_link(&mut self, from: ProcessId, to: ProcessId, link: LinkModel) {
        if let Some(slot) = self.overrides.iter_mut().find(|(k, _)| *k == (from, to)) {
            slot.1 = link;
        } else {
            self.overrides.push(((from, to), link));
        }
    }

    /// The model of the directed link `from -> to`: a per-pair override if
    /// one was set, the topology's region link otherwise.
    pub fn link(&self, from: ProcessId, to: ProcessId) -> LinkModel {
        if !self.overrides.is_empty() {
            if let Some((_, l)) = self.overrides.iter().find(|(k, _)| *k == (from, to)) {
                return *l;
            }
        }
        self.topology.link(from, to)
    }

    /// Installs a partition. Communication is allowed only within a group.
    pub fn set_partition(&mut self, groups: Vec<Vec<ProcessId>>) {
        self.partition = Some(groups);
    }

    /// Removes any partition.
    pub fn heal(&mut self) {
        self.partition = None;
    }

    /// Whether a message from `from` to `to` is currently blocked by a
    /// partition.
    pub fn blocked(&self, from: ProcessId, to: ProcessId) -> bool {
        match &self.partition {
            None => false,
            Some(groups) => !groups.iter().any(|g| g.contains(&from) && g.contains(&to)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampled_delay_is_within_bounds() {
        let link = LinkModel::lan();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let d = link.sample_delay(&mut rng);
            assert!(d >= link.delay_min && d <= link.delay_max);
        }
    }

    #[test]
    fn partition_blocks_across_groups_only() {
        let p = |i| ProcessId::new(i);
        let mut net = NetworkModel::new(LinkModel::lan());
        assert!(!net.blocked(p(0), p(1)));
        net.set_partition(vec![vec![p(0), p(1)], vec![p(2)]]);
        assert!(!net.blocked(p(0), p(1)));
        assert!(net.blocked(p(0), p(2)));
        assert!(net.blocked(p(2), p(1)));
        net.heal();
        assert!(!net.blocked(p(0), p(2)));
    }

    #[test]
    fn isolated_process_is_blocked_from_everyone() {
        let p = |i| ProcessId::new(i);
        let mut net = NetworkModel::new(LinkModel::lan());
        net.set_partition(vec![vec![p(0), p(1)]]);
        assert!(net.blocked(p(2), p(0)));
        assert!(net.blocked(p(0), p(2)));
    }

    #[test]
    fn serialization_delay_scales_with_size() {
        let free = LinkModel::lan();
        assert_eq!(free.serialization_delay(1 << 20), TimeDelta::ZERO);
        let thin = LinkModel::lan().with_bandwidth(1_000_000); // 1 MB/s
        assert_eq!(thin.serialization_delay(1_000_000), TimeDelta::from_secs(1));
        assert_eq!(thin.serialization_delay(1_000), TimeDelta::from_millis(1));
    }

    #[test]
    fn network_resolves_links_through_topology() {
        let p = |i| ProcessId::new(i);
        let net = NetworkModel::with_topology(Topology::wan_2dc());
        // Same DC (round-robin: p0, p2 in region 0): LAN link.
        assert_eq!(net.link(p(0), p(2)), LinkModel::lan());
        // Cross DC: the inter-region link.
        assert!(net.link(p(0), p(1)).delay_min >= TimeDelta::from_millis(10));
    }

    #[test]
    fn spikes_and_bursts_last_their_duration_from_the_scheduled_instant() {
        let mut net = NetworkModel::new(LinkModel::lossy_lan(0.25));
        let link = net.link(ProcessId::new(0), ProcessId::new(1));
        let (at, ms) = (Time::from_millis(10), TimeDelta::from_millis);
        let faults = crate::Schedule::new()
            .delay_spike(at, ms(5), ms(40))
            .loss_burst(at, ms(5), 0.5)
            .loss_burst(at + ms(10), ms(1), 0.9);
        let [spike, burst, strong] = faults.steps() else {
            unreachable!()
        };
        for (t, step) in [spike, burst] {
            net.apply(*t, step.clone(), 2);
        }
        for (now, extra, drop) in [(10, 40, 0.75), (14, 40, 0.75), (15, 0, 0.25)] {
            let now = Time::from_millis(now);
            let seen = (net.spike(now), net.drop_prob(&link, now));
            assert_eq!(seen, (ms(extra), drop), "at {now:?}");
        }
        net.apply(strong.0, strong.1.clone(), 2);
        assert_eq!(net.drop_prob(&link, at + ms(10)), 1.0, "capped");
    }

    #[test]
    fn link_overrides_take_precedence() {
        let p = |i| ProcessId::new(i);
        let mut net = NetworkModel::new(LinkModel::lan());
        net.set_link(p(0), p(1), LinkModel::wan());
        assert_eq!(net.link(p(0), p(1)), LinkModel::wan());
        assert_eq!(net.link(p(1), p(0)), LinkModel::lan());
        // Overwriting an existing override replaces it.
        net.set_link(p(0), p(1), LinkModel::lossy_lan(0.5));
        assert_eq!(net.link(p(0), p(1)).drop_prob, 0.5);
    }
}

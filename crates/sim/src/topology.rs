//! Region-based WAN topologies: the first-class network layer every
//! scenario composes.
//!
//! A [`Topology`] assigns processes to *regions* (data centers, radio cells,
//! …) and gives every ordered region pair its own [`LinkModel`] — a full
//! directed latency matrix, so asymmetric routes, lossy inter-region links
//! and per-link bandwidth are all expressible. Named presets cover the
//! experiment matrix ([`Topology::lan`], [`Topology::wan_2dc`],
//! [`Topology::wan_3region`], [`Topology::lossy`]); bespoke topologies are
//! built with [`Topology::with_regions`] + [`Topology::set_region_link`].

use gcs_kernel::{ProcessId, TimeDelta};

use crate::network::LinkModel;

/// How processes map onto regions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Assignment {
    /// Process `p` lives in region `p.index() % regions` — any group size
    /// spreads evenly across all regions.
    RoundRobin,
    /// Process `p` lives in region `p.index() / block`, clamped to the last
    /// region — contiguous id blocks per region.
    Blocks(usize),
}

/// A region-based network topology: a directed region × region link matrix
/// plus a process → region assignment.
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    name: &'static str,
    regions: usize,
    /// Directed matrix, row-major: `links[from * regions + to]`.
    links: Vec<LinkModel>,
    assignment: Assignment,
}

/// The preset names accepted by [`Topology::by_name`].
pub const TOPOLOGY_PRESETS: &[&str] = &["lan", "wan-2dc", "wan-3region", "lossy"];

impl Topology {
    /// A topology of `regions` regions where every link (intra and inter)
    /// starts as `link`; customize with
    /// [`set_region_link`](Self::set_region_link).
    pub fn with_regions(
        name: &'static str,
        regions: usize,
        link: LinkModel,
        assignment: Assignment,
    ) -> Self {
        assert!(regions > 0, "a topology needs at least one region");
        Topology {
            name,
            regions,
            links: vec![link; regions * regions],
            assignment,
        }
    }

    /// A single-region topology where every link is `link`.
    pub fn uniform(name: &'static str, link: LinkModel) -> Self {
        Self::with_regions(name, 1, link, Assignment::RoundRobin)
    }

    /// The `lan` preset: one region of [`LinkModel::lan`] links.
    pub fn lan() -> Self {
        Self::uniform("lan", LinkModel::lan())
    }

    /// The `lossy` preset: one region of 2%-loss LAN links.
    pub fn lossy() -> Self {
        Self::uniform("lossy", LinkModel::lossy_lan(0.02))
    }

    /// The `wan-2dc` preset: two data centers with LAN-quality links inside
    /// each and a bandwidth-limited WAN link between them.
    pub fn wan_2dc() -> Self {
        let mut t = Self::with_regions("wan-2dc", 2, LinkModel::lan(), Assignment::RoundRobin);
        let inter = LinkModel {
            delay_min: TimeDelta::from_millis(15),
            delay_max: TimeDelta::from_millis(35),
            drop_prob: 0.001,
            dup_prob: 0.0,
            bandwidth: 25_000_000, // 25 MB/s cross-DC pipe
        };
        t.set_region_link_sym(0, 1, inter);
        t
    }

    /// The `wan-3region` preset: three regions with an *asymmetric* latency
    /// matrix (the return path of each long-haul route is slower, as on real
    /// transit links), loss on the longest route, and bandwidth limits on
    /// every inter-region link.
    pub fn wan_3region() -> Self {
        let mut t = Self::with_regions("wan-3region", 3, LinkModel::lan(), Assignment::RoundRobin);
        let link = |lo_ms: u64, hi_ms: u64, drop: f64, bw: u64| LinkModel {
            delay_min: TimeDelta::from_millis(lo_ms),
            delay_max: TimeDelta::from_millis(hi_ms),
            drop_prob: drop,
            dup_prob: 0.0,
            bandwidth: bw,
        };
        // r0 ↔ r1: short haul, fat pipe.
        t.set_region_link(0, 1, link(18, 28, 0.001, 50_000_000));
        t.set_region_link(1, 0, link(22, 34, 0.001, 50_000_000));
        // r1 ↔ r2: medium haul.
        t.set_region_link(1, 2, link(35, 50, 0.002, 25_000_000));
        t.set_region_link(2, 1, link(40, 58, 0.002, 25_000_000));
        // r0 ↔ r2: long haul, lossy, thin pipe.
        t.set_region_link(0, 2, link(60, 90, 0.003, 12_500_000));
        t.set_region_link(2, 0, link(70, 105, 0.003, 12_500_000));
        t
    }

    /// Looks a preset up by name (see [`TOPOLOGY_PRESETS`]).
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "lan" => Some(Self::lan()),
            "wan-2dc" => Some(Self::wan_2dc()),
            "wan-3region" => Some(Self::wan_3region()),
            "lossy" => Some(Self::lossy()),
            _ => None,
        }
    }

    /// The topology's name (preset name, or whatever the builder was given).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.regions
    }

    /// The region a process is assigned to.
    #[inline]
    pub fn region_of(&self, p: ProcessId) -> usize {
        match self.assignment {
            Assignment::RoundRobin => p.index() % self.regions,
            Assignment::Blocks(block) => (p.index() / block.max(1)).min(self.regions - 1),
        }
    }

    /// The model of the directed link `from -> to`, resolved through the
    /// region matrix.
    #[inline]
    pub fn link(&self, from: ProcessId, to: ProcessId) -> LinkModel {
        if self.regions == 1 {
            return self.links[0];
        }
        self.links[self.region_of(from) * self.regions + self.region_of(to)]
    }

    /// Sets the directed region link `from -> to` (asymmetry: set the two
    /// directions independently).
    pub fn set_region_link(&mut self, from: usize, to: usize, link: LinkModel) {
        assert!(
            from < self.regions && to < self.regions,
            "region out of range"
        );
        self.links[from * self.regions + to] = link;
    }

    /// Sets both directions of the region link `a <-> b`.
    pub fn set_region_link_sym(&mut self, a: usize, b: usize, link: LinkModel) {
        self.set_region_link(a, b, link);
        self.set_region_link(b, a, link);
    }

    /// The largest one-way propagation delay any link of this topology can
    /// sample (the maximum `delay_max` over the region matrix) — the RTT
    /// bound protocol timeout profiles derive from: a failure-detection or
    /// token-loss timeout below `2 ×` this value suspects peers that are
    /// merely far away.
    pub fn max_one_way_delay(&self) -> TimeDelta {
        self.links
            .iter()
            .map(|l| l.delay_max)
            .max()
            .unwrap_or(TimeDelta::ZERO)
    }

    /// The first `n` processes grouped by region — the partition groups of a
    /// region-boundary split (see
    /// [`ScheduleAction::PartitionRegions`](crate::ScheduleAction)).
    pub fn region_groups(&self, n: usize) -> Vec<Vec<ProcessId>> {
        let mut groups: Vec<Vec<ProcessId>> = vec![Vec::new(); self.regions];
        for i in 0..n as u32 {
            let p = ProcessId::new(i);
            groups[self.region_of(p)].push(p);
        }
        groups.retain(|g| !g.is_empty());
        groups
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::lan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn uniform_topology_resolves_every_pair_to_the_same_link() {
        let t = Topology::uniform("u", LinkModel::wan());
        assert_eq!(t.link(p(0), p(5)), LinkModel::wan());
        assert_eq!(t.link(p(3), p(3)), LinkModel::wan());
        assert_eq!(t.regions(), 1);
    }

    #[test]
    fn round_robin_assignment_spreads_processes() {
        let t = Topology::wan_3region();
        assert_eq!(t.region_of(p(0)), 0);
        assert_eq!(t.region_of(p(1)), 1);
        assert_eq!(t.region_of(p(2)), 2);
        assert_eq!(t.region_of(p(3)), 0);
    }

    #[test]
    fn block_assignment_clamps_to_last_region() {
        let t = Topology::with_regions("b", 2, LinkModel::lan(), Assignment::Blocks(2));
        assert_eq!(t.region_of(p(0)), 0);
        assert_eq!(t.region_of(p(1)), 0);
        assert_eq!(t.region_of(p(2)), 1);
        assert_eq!(t.region_of(p(5)), 1, "overflow clamps");
    }

    #[test]
    fn wan_2dc_intra_is_lan_inter_is_wan() {
        let t = Topology::wan_2dc();
        // p0 and p2 share region 0 (round-robin): LAN.
        assert_eq!(t.link(p(0), p(2)), LinkModel::lan());
        // p0 and p1 are in different DCs: the slow link, with bandwidth.
        let l = t.link(p(0), p(1));
        assert!(l.delay_min >= TimeDelta::from_millis(10));
        assert!(l.bandwidth > 0);
    }

    #[test]
    fn wan_3region_is_asymmetric() {
        let t = Topology::wan_3region();
        let fwd = t.link(p(0), p(2));
        let rev = t.link(p(2), p(0));
        assert_ne!(fwd, rev, "long-haul route is direction-dependent");
        assert!(rev.delay_min > fwd.delay_min);
    }

    #[test]
    fn presets_resolve_by_name() {
        for name in TOPOLOGY_PRESETS {
            let t = Topology::by_name(name).expect("preset exists");
            assert_eq!(t.name(), *name);
        }
        assert!(Topology::by_name("nope").is_none());
    }

    #[test]
    fn region_groups_follow_assignment() {
        let t = Topology::wan_2dc();
        let groups = t.region_groups(5);
        assert_eq!(groups, vec![vec![p(0), p(2), p(4)], vec![p(1), p(3)]]);
        // Single-region topologies yield one group.
        assert_eq!(Topology::lan().region_groups(3).len(), 1);
    }
}

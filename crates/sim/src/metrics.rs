//! Message and byte accounting for experiments, including per-region-pair
//! link-latency histograms.

use std::fmt;

use gcs_kernel::TimeDelta;

/// Number of log2 buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` nanoseconds, with the last bucket open-ended
/// (`2^39` ns ≈ 9 minutes — far beyond any simulated link).
const LAT_BUCKETS: usize = 40;

/// A log2-bucketed latency histogram (nanosecond samples).
///
/// Recording is two increments and a store — cheap enough for the
/// per-message network hot path. Quantiles are approximate: a quantile
/// resolves to the upper edge of the bucket where the cumulative count
/// crosses it (within 2× of the true value, which is what a log2 histogram
/// buys).
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; LAT_BUCKETS],
    count: u64,
    total_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; LAT_BUCKETS],
            count: 0,
            total_ns: 0,
        }
    }
}

impl LatencyHistogram {
    #[inline]
    pub(crate) fn record(&mut self, delta: TimeDelta) {
        let ns = delta.as_nanos();
        let bucket = (63 - (ns | 1).leading_zeros() as usize).min(LAT_BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total_ns += ns;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate `q`-quantile (0.0 ..= 1.0) in nanoseconds: the upper
    /// edge of the bucket where the cumulative count crosses `q`.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }

    /// Raw bucket counts (bucket `i` spans `[2^i, 2^(i+1))` ns).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    fn subtract(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for i in 0..LAT_BUCKETS {
            out.buckets[i] = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.total_ns = self.total_ns.saturating_sub(earlier.total_ns);
        out
    }
}

/// Per-kind counters: a short linear table instead of a map. A run touches
/// a dozen-odd distinct kinds, and consecutive sends overwhelmingly repeat
/// the previous kind (heartbeat fan-out, ack trains), so a last-hit cache
/// plus pointer-first comparison beats any map on the `record_packet` hot
/// path.
#[derive(Clone, Debug, Default)]
struct KindTable {
    rows: Vec<(&'static str, u64, u64)>, // (kind, msgs, bytes)
    last: usize,
}

impl KindTable {
    fn add(&mut self, kind: &'static str, msgs: u64, bytes: u64) {
        if let Some(row) = self.rows.get_mut(self.last) {
            if std::ptr::eq(row.0, kind) || row.0 == kind {
                row.1 += msgs;
                row.2 += bytes;
                return;
            }
        }
        for (i, row) in self.rows.iter_mut().enumerate() {
            if std::ptr::eq(row.0, kind) || row.0 == kind {
                row.1 += msgs;
                row.2 += bytes;
                self.last = i;
                return;
            }
        }
        self.last = self.rows.len();
        self.rows.push((kind, msgs, bytes));
    }

    fn get(&self, kind: &str) -> Option<(u64, u64)> {
        self.rows
            .iter()
            .find(|(k, _, _)| *k == kind)
            .map(|&(_, m, b)| (m, b))
    }

    fn sorted(&self) -> Vec<(&'static str, u64, u64)> {
        let mut rows = self.rows.clone();
        rows.sort_unstable_by_key(|&(k, _, _)| k);
        rows
    }
}

/// Counters collected while a simulation runs.
///
/// Sends are attributed to the [`Event::kind`](gcs_kernel::Event::kind) of
/// the event, so experiments can report per-protocol message complexity
/// (e.g. how many messages a view change costs in each architecture). A
/// packet that bundles several messages counts once in
/// [`total_sent`](Self::total_sent) and each message it carries under its
/// own kind.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    kinds: KindTable,
    total_sent: u64,
    total_bytes: u64,
    delivered: u64,
    dropped_loss: u64,
    dropped_partition: u64,
    dropped_crash: u64,
    /// Region count of the topology (histograms are kept only for
    /// multi-region topologies — a flat LAN pays nothing).
    regions: usize,
    /// Per-(src region, dst region) one-way link latency histograms,
    /// row-major `from * regions + to`.
    region_hist: Vec<LatencyHistogram>,
}

impl Metrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `event` handed to the network as one packet, each message it
    /// carries under its own kind (see
    /// [`Event::for_each_carried`](gcs_kernel::Event::for_each_carried)),
    /// and returns its wire size. Public so the live backend accounts
    /// traffic in the same vocabulary.
    pub fn record_packet<E: gcs_kernel::Event>(&mut self, event: &E) -> usize {
        let mut size = 0;
        event.for_each_carried(|kind, bytes| {
            self.kinds.add(kind, 1, bytes as u64);
            size += bytes;
        });
        self.total_sent += 1;
        self.total_bytes += size as u64;
        size
    }

    /// Records a message delivered to its destination process.
    pub fn record_delivery(&mut self) {
        self.delivered += 1;
    }

    /// Records a message dropped by random loss (or a loss burst).
    pub fn record_drop_loss(&mut self) {
        self.dropped_loss += 1;
    }

    /// Records a message dropped by an active partition.
    pub fn record_drop_partition(&mut self) {
        self.dropped_partition += 1;
    }

    /// Records a message dropped because its destination had crashed.
    pub fn record_drop_crash(&mut self) {
        self.dropped_crash += 1;
    }

    /// Sizes the region-pair histogram table (only multi-region topologies
    /// record; called once when the world is built).
    pub(crate) fn set_regions(&mut self, regions: usize) {
        self.regions = regions;
        if regions > 1 {
            self.region_hist = vec![LatencyHistogram::default(); regions * regions];
        }
    }

    #[inline]
    pub(crate) fn record_link_latency(&mut self, from: usize, to: usize, delta: TimeDelta) {
        if self.regions > 1 {
            self.region_hist[from * self.regions + to].record(delta);
        }
    }

    /// The one-way latency histogram of the directed region pair
    /// `from -> to` (`None` on single-region topologies or out-of-range
    /// regions).
    pub fn region_latency(&self, from: usize, to: usize) -> Option<&LatencyHistogram> {
        if self.regions > 1 && from < self.regions && to < self.regions {
            Some(&self.region_hist[from * self.regions + to])
        } else {
            None
        }
    }

    /// All region pairs with recorded traffic, as
    /// `(src region, dst region, histogram)`, in row-major order.
    pub fn region_pairs(&self) -> impl Iterator<Item = (usize, usize, &LatencyHistogram)> {
        let regions = self.regions;
        self.region_hist
            .iter()
            .enumerate()
            .filter(|(_, h)| h.count() > 0)
            .map(move |(i, h)| (i / regions, i % regions, h))
    }

    /// Total packets handed to the network; a bundle counts once.
    pub fn total_sent(&self) -> u64 {
        self.total_sent
    }

    /// Total payload bytes handed to the network.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total messages delivered to a destination process.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages dropped by random loss (including loss bursts).
    pub fn dropped_loss(&self) -> u64 {
        self.dropped_loss
    }

    /// Messages dropped because sender and destination were partitioned.
    pub fn dropped_partition(&self) -> u64 {
        self.dropped_partition
    }

    /// Messages dropped because the destination had crashed.
    pub fn dropped_crash(&self) -> u64 {
        self.dropped_crash
    }

    /// Messages sent with the given event kind.
    pub fn sent_of_kind(&self, kind: &str) -> u64 {
        self.kinds.get(kind).map_or(0, |(m, _)| m)
    }

    /// Iterates over `(kind, messages, bytes)` rows, sorted by kind.
    pub fn by_kind(&self) -> impl Iterator<Item = (&'static str, u64, u64)> {
        self.kinds.sorted().into_iter()
    }

    /// Total messages across the kinds whose name passes `filter`.
    pub fn sent_matching(&self, filter: impl Fn(&str) -> bool) -> u64 {
        self.kinds
            .rows
            .iter()
            .filter(|(k, _, _)| filter(k))
            .map(|(_, n, _)| *n)
            .sum()
    }

    /// Adds `other` to this, counter by counter (for counts kept in parts,
    /// such as one per live member: merge the parts, then read the sum).
    pub fn merge(&mut self, other: &Metrics) {
        for &(kind, msgs, bytes) in &other.kinds.rows {
            self.kinds.add(kind, msgs, bytes);
        }
        self.total_sent += other.total_sent;
        self.total_bytes += other.total_bytes;
        self.delivered += other.delivered;
        self.dropped_loss += other.dropped_loss;
        self.dropped_partition += other.dropped_partition;
        self.dropped_crash += other.dropped_crash;
        if self.region_hist.is_empty() {
            self.regions = other.regions;
            self.region_hist = other.region_hist.clone();
            return;
        }
        for (mine, theirs) in self.region_hist.iter_mut().zip(&other.region_hist) {
            mine.buckets
                .iter_mut()
                .zip(&theirs.buckets)
                .for_each(|(a, b)| *a += b);
            mine.count += theirs.count;
            mine.total_ns += theirs.total_ns;
        }
    }

    /// Difference `self - earlier`, counter by counter (for windowed
    /// measurements: snapshot, run a phase, subtract).
    pub fn delta_since(&self, earlier: &Metrics) -> Metrics {
        let mut d = Metrics::new();
        for &(k, msgs, bytes) in &self.kinds.rows {
            let (m0, b0) = earlier.kinds.get(k).unwrap_or((0, 0));
            if msgs > m0 || bytes > b0 {
                d.kinds.rows.push((k, msgs - m0, bytes - b0));
            }
        }
        d.total_sent = self.total_sent - earlier.total_sent;
        d.total_bytes = self.total_bytes - earlier.total_bytes;
        d.delivered = self.delivered - earlier.delivered;
        d.dropped_loss = self.dropped_loss - earlier.dropped_loss;
        d.dropped_partition = self.dropped_partition - earlier.dropped_partition;
        d.dropped_crash = self.dropped_crash - earlier.dropped_crash;
        d.regions = self.regions;
        if self.regions > 1 && earlier.region_hist.len() == self.region_hist.len() {
            d.region_hist = self
                .region_hist
                .iter()
                .zip(&earlier.region_hist)
                .map(|(a, b)| a.subtract(b))
                .collect();
        } else {
            d.region_hist = self.region_hist.clone();
        }
        d
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "messages: sent={} delivered={} lost={} partitioned={} to-crashed={}",
            self.total_sent,
            self.delivered,
            self.dropped_loss,
            self.dropped_partition,
            self.dropped_crash
        )?;
        for (kind, n, bytes) in self.by_kind() {
            writeln!(f, "  {kind:<24} {n:>8} msgs {bytes:>10} B")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A packet of `(kind, bytes)` messages, the first one its own.
    #[derive(Clone, Debug)]
    struct Packet(Vec<(&'static str, usize)>);

    impl gcs_kernel::Event for Packet {
        fn kind(&self) -> &'static str {
            self.0[0].0
        }

        fn for_each_carried(&self, mut each: impl FnMut(&'static str, usize)) {
            self.0.iter().for_each(|&(kind, bytes)| each(kind, bytes));
        }
    }

    fn send(m: &mut Metrics, messages: &[(&'static str, usize)]) {
        m.record_packet(&Packet(messages.to_vec()));
    }

    #[test]
    fn counters_accumulate_per_kind() {
        let mut m = Metrics::new();
        send(&mut m, &[("ack", 10)]);
        send(&mut m, &[("ack", 10)]);
        send(&mut m, &[("data", 100)]);
        assert_eq!(m.sent_of_kind("ack"), 2);
        assert_eq!(m.sent_of_kind("data"), 1);
        assert_eq!(m.sent_of_kind("none"), 0);
        assert_eq!(m.total_sent(), 3);
        assert_eq!(m.total_bytes(), 120);
    }

    #[test]
    fn a_packet_counts_once_and_what_it_carries_by_kind() {
        let mut m = Metrics::new();
        send(&mut m, &[("ct/decide", 40), ("ct/propose", 30)]);
        send(&mut m, &[("ct/ack", 20)]);
        assert_eq!(m.total_sent(), 2);
        assert_eq!(m.total_bytes(), 90);
        for kind in ["ct/decide", "ct/propose", "ct/ack"] {
            assert_eq!(m.sent_of_kind(kind), 1, "{kind}");
        }
    }

    #[test]
    fn delta_since_subtracts() {
        let mut m = Metrics::new();
        send(&mut m, &[("a", 1)]);
        let snapshot = m.clone();
        send(&mut m, &[("a", 1)]);
        send(&mut m, &[("b", 2)]);
        let d = m.delta_since(&snapshot);
        assert_eq!(d.sent_of_kind("a"), 1);
        assert_eq!(d.sent_of_kind("b"), 1);
        assert_eq!(d.total_sent(), 2);
    }

    #[test]
    fn merge_then_delta_since_gives_back_what_was_merged_in() {
        let mut m = Metrics::new();
        m.set_regions(2);
        send(&mut m, &[("a", 1)]);
        m.record_delivery();
        m.record_link_latency(0, 1, TimeDelta::from_millis(20));
        let before = m.clone();
        let mut part = Metrics::new();
        part.set_regions(2);
        send(&mut part, &[("b", 2), ("a", 3)]);
        send(&mut part, &[("a", 4)]);
        part.record_delivery();
        part.record_drop_loss();
        part.record_drop_partition();
        part.record_drop_crash();
        part.record_link_latency(1, 0, TimeDelta::from_millis(30));
        m.merge(&part);
        let d = m.delta_since(&before);
        let rows = |m: &Metrics| m.by_kind().collect::<Vec<_>>();
        assert_eq!(rows(&d), rows(&part));
        let totals = |m: &Metrics| {
            (
                m.total_sent(),
                m.total_bytes(),
                m.delivered(),
                m.dropped_loss(),
                m.dropped_partition(),
                m.dropped_crash(),
            )
        };
        assert_eq!(totals(&d), totals(&part));
        let pairs = |m: &Metrics| {
            m.region_pairs()
                .map(|(f, t, h)| (f, t, h.buckets().to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(pairs(&d), pairs(&part));
        // Merged into empty metrics, a part reads as itself.
        let mut empty = Metrics::new();
        empty.merge(&part);
        assert_eq!(totals(&empty), totals(&part));
        assert_eq!(pairs(&empty), pairs(&part));
    }

    #[test]
    fn display_lists_kinds() {
        let mut m = Metrics::new();
        send(&mut m, &[("xyz", 7)]);
        let s = format!("{m}");
        assert!(s.contains("xyz"));
        assert!(s.contains("sent=1"));
    }

    #[test]
    fn latency_histogram_buckets_and_quantiles() {
        let mut h = LatencyHistogram::default();
        for ms in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 100] {
            h.record(TimeDelta::from_millis(ms));
        }
        assert_eq!(h.count(), 10);
        // Mean: (9·1ms + 100ms)/10 = 10.9 ms.
        assert_eq!(h.mean_ns(), 10_900_000);
        // Median lands in the 1ms bucket (upper edge ≤ 2·2^20 ns ≈ 2.1 ms);
        // p99 lands in the 100ms bucket (upper edge ≥ 100 ms).
        assert!(h.quantile_ns(0.5) <= 2_097_152 * 2);
        assert!(h.quantile_ns(0.99) >= 100_000_000);
        assert_eq!(LatencyHistogram::default().quantile_ns(0.5), 0);
    }

    #[test]
    fn region_histograms_only_exist_for_multi_region() {
        let mut m = Metrics::new();
        m.set_regions(1);
        m.record_link_latency(0, 0, TimeDelta::from_millis(1));
        assert!(m.region_latency(0, 0).is_none());
        assert_eq!(m.region_pairs().count(), 0);

        let mut m = Metrics::new();
        m.set_regions(2);
        m.record_link_latency(0, 1, TimeDelta::from_millis(20));
        m.record_link_latency(0, 1, TimeDelta::from_millis(30));
        m.record_link_latency(1, 0, TimeDelta::from_millis(40));
        assert_eq!(m.region_latency(0, 1).unwrap().count(), 2);
        assert_eq!(m.region_latency(1, 1).unwrap().count(), 0);
        let pairs: Vec<(usize, usize, u64)> = m
            .region_pairs()
            .map(|(f, t, h)| (f, t, h.count()))
            .collect();
        assert_eq!(pairs, vec![(0, 1, 2), (1, 0, 1)]);
        // Deltas subtract bucket-wise.
        let snap = m.clone();
        m.record_link_latency(0, 1, TimeDelta::from_millis(25));
        let d = m.delta_since(&snap);
        assert_eq!(d.region_latency(0, 1).unwrap().count(), 1);
    }

    #[test]
    fn sent_matching_filters() {
        let mut m = Metrics::new();
        send(&mut m, &[("fd/heartbeat", 1)]);
        send(&mut m, &[("ct/propose", 1)]);
        send(&mut m, &[("ct/ack", 1)]);
        assert_eq!(m.sent_matching(|k| k.starts_with("ct/")), 2);
    }
}

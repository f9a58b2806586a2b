//! Wire traffic by layer: every message kind the three stacks put on the
//! wire belongs to exactly one layer. An unknown kind is an error, never
//! "other" — a new protocol message must be placed before it is counted.

use gcs::sim::Metrics;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `gcs-net` reliable channel: standalone acks and retransmit batches.
    NetRc,
    /// `gcs-fd` heartbeats and gossip digests.
    Fd,
    /// `gcs-consensus` (Chandra-Toueg or Paxos).
    Consensus,
    /// `gcs-core` atomic broadcast diffusion.
    CoreAb,
    /// `gcs-core` generic broadcast diffusion and acks.
    CoreGb,
    /// `gcs-core` membership and monitoring.
    CoreMbMon,
    IsisData,
    IsisOrder,
    IsisRepair,
    IsisHeartbeat,
    /// Isis view change: proposal, flush reports, new view, joins, removals,
    /// state transfer.
    IsisFlush,
    TokenToken,
    TokenData,
    TokenNack,
    /// Token ring reformation and membership.
    TokenReform,
}

pub const LAYERS: usize = 15;

/// The layer a wire message kind belongs to.
pub fn layer_of(kind: &str) -> Result<Layer, String> {
    let (prefix, rest) = kind
        .split_once('/')
        .ok_or_else(|| format!("wire kind {kind:?} has no layer prefix"))?;
    Ok(match (prefix, rest) {
        ("rc", _) => Layer::NetRc,
        ("fd", _) => Layer::Fd,
        ("ct", _) | ("paxos", _) => Layer::Consensus,
        ("ab", _) => Layer::CoreAb,
        ("gb", _) => Layer::CoreGb,
        ("mb", _) | ("mon", _) => Layer::CoreMbMon,
        ("isis", "data") => Layer::IsisData,
        ("isis", "order") => Layer::IsisOrder,
        ("isis", "repair") => Layer::IsisRepair,
        ("isis", "heartbeat") => Layer::IsisHeartbeat,
        (
            "isis",
            "view-proposal" | "flush-report" | "new-view" | "join-request" | "remove-request"
            | "state-transfer",
        ) => Layer::IsisFlush,
        ("token", "token") => Layer::TokenToken,
        ("token", "data") => Layer::TokenData,
        ("token", "nack") => Layer::TokenNack,
        ("token", "reform" | "reform-report" | "new-ring" | "join-request" | "ring-info") => {
            Layer::TokenReform
        }
        _ => return Err(format!("wire kind {kind:?} belongs to no known layer")),
    })
}

/// Messages and bytes sent in one window, by layer.
#[derive(Clone, Debug, Default)]
pub struct WireDelta {
    pub msgs: [u64; LAYERS],
    pub bytes: [u64; LAYERS],
    pub sent: u64,
    pub sent_bytes: u64,
    pub delivered: u64,
    pub dropped_loss: u64,
}

impl WireDelta {
    /// The traffic between two snapshots of a group's metrics.
    pub fn between(before: &Metrics, after: &Metrics) -> Result<WireDelta, String> {
        let d = after.delta_since(before);
        let mut out = WireDelta {
            sent: d.total_sent(),
            sent_bytes: d.total_bytes(),
            delivered: d.delivered(),
            dropped_loss: d.dropped_loss(),
            ..WireDelta::default()
        };
        for (kind, msgs, bytes) in d.by_kind() {
            let layer = layer_of(kind)? as usize;
            out.msgs[layer] += msgs;
            out.bytes[layer] += bytes;
        }
        Ok(out)
    }

    /// Sums another window's traffic into this one.
    pub fn add(&mut self, other: &WireDelta) {
        for i in 0..LAYERS {
            self.msgs[i] += other.msgs[i];
            self.bytes[i] += other.bytes[i];
        }
        self.sent += other.sent;
        self.sent_bytes += other.sent_bytes;
        self.delivered += other.delivered;
        self.dropped_loss += other.dropped_loss;
    }

    pub fn msgs_of(&self, layer: Layer) -> u64 {
        self.msgs[layer as usize]
    }

    pub fn bytes_of(&self, layer: Layer) -> u64 {
        self.bytes[layer as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs::kernel::{ProcessId, Time};
    use gcs::sim::Topology;
    use gcs::{Group, GroupTransport, StackKind};

    /// Runs every stack through steady traffic, loss, a join, a removal and
    /// a crash, and checks that each kind it put on the wire has a layer.
    #[test]
    fn layer_map_is_total_over_every_kind_the_stacks_emit() {
        let mut kinds = std::collections::BTreeSet::new();
        for kind in StackKind::ALL {
            for generic in [false, true] {
                let mut g = Group::builder()
                    .members(4)
                    .joiners(1)
                    .stack(kind)
                    .topology(Topology::lossy())
                    .seed(3)
                    .build();
                for i in 0..200u64 {
                    let t = Time::from_millis(1 + i * 5);
                    let p = ProcessId::new((i % 4) as u32);
                    if generic && g.supports_gbcast() {
                        let class = gcs::core::MessageClass((i % 2) as u16);
                        g.gbcast_bytes_at(t, p, class, vec![i as u8].into());
                    } else {
                        g.abcast_bytes_at(t, p, vec![i as u8].into());
                    }
                }
                g.join_at(Time::from_millis(100), ProcessId::new(4), ProcessId::new(1));
                g.remove_at(Time::from_millis(400), ProcessId::new(0), ProcessId::new(3));
                g.crash_at(Time::from_millis(700), ProcessId::new(2));
                g.run_until(Time::from_secs(3));
                for (k, _, _) in g.metrics().by_kind() {
                    kinds.insert(k);
                }
            }
        }
        for k in &kinds {
            layer_of(k).unwrap_or_else(|e| panic!("{e}"));
        }
        // The run above must actually have reached the rare paths.
        for expected in [
            "rc/batch",
            "fd/heartbeat",
            "ct/propose",
            "ab/data",
            "gb/ack",
            "mb/snapshot",
            "isis/new-view",
            "isis/repair",
            "token/new-ring",
            "token/nack",
        ] {
            assert!(
                kinds.contains(expected),
                "{expected} not exercised: {kinds:?}"
            );
        }
    }

    #[test]
    fn unknown_kinds_are_errors() {
        assert!(layer_of("isis/brand-new").is_err());
        assert!(layer_of("quic/frame").is_err());
        assert!(layer_of("nolayer").is_err());
        assert_eq!(layer_of("paxos/accept"), Ok(Layer::Consensus));
    }
}

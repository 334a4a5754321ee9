//! Cluster topology: named nodes, and the price of a transfer between
//! two of them.

use std::fmt;

use crate::time::SimTime;

/// Identifier of a node (machine) in the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{:02}", self.0)
    }
}

/// Latency/bandwidth parameters of a link (or of the loopback path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// One-way message latency.
    pub latency: SimTime,
    /// Sustained bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
}

impl LinkSpec {
    /// Gigabit-ethernet-like defaults (~50us latency, ~118 MB/s): the
    /// interconnect class the paper's cluster used.
    pub fn gigabit_ethernet() -> Self {
        LinkSpec {
            latency: SimTime::from_micros(50),
            bandwidth_bytes_per_sec: 118 * 1024 * 1024,
        }
    }

    /// Shared-memory loopback defaults (~500ns, ~4 GB/s).
    fn loopback() -> Self {
        LinkSpec {
            latency: SimTime::from_nanos(500),
            bandwidth_bytes_per_sec: 4 * 1024 * 1024 * 1024,
        }
    }

    /// `latency + bytes/bandwidth` for a message of `bytes`.
    fn transfer_cost(&self, bytes: usize) -> SimTime {
        let serialization_ns = if self.bandwidth_bytes_per_sec == 0 {
            0
        } else {
            (bytes as u128 * 1_000_000_000 / self.bandwidth_bytes_per_sec as u128) as u64
        };
        self.latency + SimTime::from_nanos(serialization_ns)
    }
}

/// Description of a simulated cluster: node names plus link parameters.
///
/// # Examples
///
/// ```
/// use netsim::{LinkSpec, NodeId, Topology};
///
/// let topo = Topology::uniform(4, LinkSpec::gigabit_ethernet());
/// assert_eq!(topo.hostname(NodeId(2)), "node02");
/// // Intra-node traffic is cheaper than crossing the wire.
/// assert!(topo.cost(NodeId(0), NodeId(0), 4096) < topo.cost(NodeId(0), NodeId(1), 4096));
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    hostnames: Vec<String>,
    default_link: LinkSpec,
}

impl Topology {
    /// A cluster of `nodes` identical machines (`node00`, `node01`, ...)
    /// joined by `default_link`.
    pub fn uniform(nodes: u32, default_link: LinkSpec) -> Self {
        assert!(nodes > 0, "a cluster needs at least one node");
        Topology {
            hostnames: (0..nodes).map(|i| format!("node{i:02}")).collect(),
            default_link,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.hostnames.len()
    }

    /// True when the cluster has no nodes (never happens via constructors).
    pub fn is_empty(&self) -> bool {
        self.hostnames.is_empty()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.hostnames.len() as u32).map(NodeId)
    }

    /// Hostname of `node`.
    pub fn hostname(&self, node: NodeId) -> &str {
        &self.hostnames[node.0 as usize]
    }

    /// Simulated price of moving `bytes` from `a` to `b` over an idle
    /// link (loopback when `a == b`). Nothing waits for it; it is kept
    /// only for `benchmark/`, and goes with ROADMAP item 12.
    pub fn cost(&self, a: NodeId, b: NodeId, bytes: usize) -> SimTime {
        let link = if a == b {
            LinkSpec::loopback()
        } else {
            self.default_link
        };
        link.transfer_cost(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_topology_basics() {
        let t = Topology::uniform(4, LinkSpec::gigabit_ethernet());
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.hostname(NodeId(0)), "node00");
        assert_eq!(t.hostname(NodeId(3)), "node03");
        assert_eq!(t.nodes().count(), 4);
    }

    #[test]
    fn cost_model_latency_plus_serialization() {
        let link = LinkSpec {
            latency: SimTime::from_micros(10),
            bandwidth_bytes_per_sec: 1_000_000_000, // 1 GB/s => 1 ns/byte
        };
        assert_eq!(link.transfer_cost(0), SimTime::from_micros(10));
        assert_eq!(
            link.transfer_cost(1000),
            SimTime::from_micros(10) + SimTime::from_nanos(1000)
        );
    }

    #[test]
    fn zero_bandwidth_means_latency_only() {
        let link = LinkSpec {
            latency: SimTime::from_micros(1),
            bandwidth_bytes_per_sec: 0,
        };
        assert_eq!(link.transfer_cost(1 << 20), SimTime::from_micros(1));
    }

    #[test]
    fn loopback_cheaper_than_wire() {
        let t = Topology::uniform(2, LinkSpec::gigabit_ethernet());
        let local = t.cost(NodeId(0), NodeId(0), 4096);
        let remote = t.cost(NodeId(0), NodeId(1), 4096);
        assert!(local < remote);
    }

    #[test]
    fn big_transfers_do_not_overflow() {
        let link = LinkSpec::gigabit_ethernet();
        let cost = link.transfer_cost(usize::MAX / 2);
        assert!(cost.as_nanos() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = Topology::uniform(0, LinkSpec::gigabit_ethernet());
    }
}

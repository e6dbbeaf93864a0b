//! The simulated network: reliable, in-order, point-to-point links.
//!
//! The paper assumes "replicas communicate using a reliable, in-order
//! protocol like TCP" (§2.2). The simulator provides exactly that: one
//! constant link latency, [`LINK_LATENCY`] (FIFO order falls out of a
//! deterministic event queue), and explicit link/node failure state.
//! Messages sent or delivered while a link or endpoint is down are lost,
//! like segments of a broken TCP connection.

use borealis_types::{Duration, NodeId, PartitionSpec};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One-way latency of every simulated link.
pub const LINK_LATENCY: Duration = Duration::from_millis(1);

/// Connectivity state of the simulated network.
#[derive(Debug, Clone, Default)]
pub struct Network {
    down_links: HashSet<(NodeId, NodeId)>,
    down_nodes: HashSet<NodeId>,
    /// Key-partition filters, per receiving node: a shard replica only
    /// accepts its partition of any data stream (the partitioned send path
    /// of key-sharded fragments).
    partitions: HashMap<NodeId, Arc<PartitionSpec>>,
}

fn ordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Network {
    /// A fully connected network.
    pub fn new() -> Network {
        Network::default()
    }

    /// Declares `node` a key-partitioned receiver: every data batch sent to
    /// it is filtered to `spec`'s shard on the wire. Installed by the
    /// deployment layout for the replicas of sharded fragments.
    pub fn set_partition(&mut self, node: NodeId, spec: PartitionSpec) {
        self.partitions.insert(node, Arc::new(spec));
    }

    /// The partition filter governing deliveries to `node`, if any.
    pub fn partition_of(&self, node: NodeId) -> Option<&Arc<PartitionSpec>> {
        self.partitions.get(&node)
    }

    /// True if a message from `a` can currently reach `b`.
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        !self.down_nodes.contains(&a)
            && !self.down_nodes.contains(&b)
            && !self.down_links.contains(&ordered(a, b))
    }

    /// True if the node itself is up.
    pub fn node_up(&self, n: NodeId) -> bool {
        !self.down_nodes.contains(&n)
    }

    /// Takes a link down (both directions).
    pub fn link_down(&mut self, a: NodeId, b: NodeId) {
        self.down_links.insert(ordered(a, b));
    }

    /// Heals a link.
    pub fn link_up(&mut self, a: NodeId, b: NodeId) {
        self.down_links.remove(&ordered(a, b));
    }

    /// Crashes a node.
    pub fn node_down(&mut self, n: NodeId) {
        self.down_nodes.insert(n);
    }

    /// Restarts a node.
    pub fn node_up_again(&mut self, n: NodeId) {
        self.down_nodes.remove(&n);
    }

    /// Partitions the system: every link between `group_a` and `group_b`
    /// goes down.
    pub fn partition(&mut self, group_a: &[NodeId], group_b: &[NodeId]) {
        for &a in group_a {
            for &b in group_b {
                self.link_down(a, b);
            }
        }
    }

    /// Heals a partition created with [`Network::partition`].
    pub fn heal_partition(&mut self, group_a: &[NodeId], group_b: &[NodeId]) {
        for &a in group_a {
            for &b in group_b {
                self.link_up(a, b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_failures_are_bidirectional() {
        let mut net = Network::new();
        assert!(net.reachable(NodeId(0), NodeId(1)));
        net.link_down(NodeId(1), NodeId(0));
        assert!(!net.reachable(NodeId(0), NodeId(1)));
        assert!(!net.reachable(NodeId(1), NodeId(0)));
        net.link_up(NodeId(0), NodeId(1));
        assert!(net.reachable(NodeId(0), NodeId(1)));
    }

    #[test]
    fn node_crash_blocks_all_its_links() {
        let mut net = Network::new();
        net.node_down(NodeId(2));
        assert!(!net.reachable(NodeId(0), NodeId(2)));
        assert!(!net.reachable(NodeId(2), NodeId(1)));
        assert!(net.reachable(NodeId(0), NodeId(1)), "others unaffected");
        net.node_up_again(NodeId(2));
        assert!(net.reachable(NodeId(0), NodeId(2)));
    }

    #[test]
    fn partition_cuts_cross_links_only() {
        let mut net = Network::new();
        let a = [NodeId(0), NodeId(1)];
        let b = [NodeId(2), NodeId(3)];
        net.partition(&a, &b);
        assert!(!net.reachable(NodeId(0), NodeId(2)));
        assert!(!net.reachable(NodeId(1), NodeId(3)));
        assert!(net.reachable(NodeId(0), NodeId(1)));
        assert!(net.reachable(NodeId(2), NodeId(3)));
        net.heal_partition(&a, &b);
        assert!(net.reachable(NodeId(0), NodeId(3)));
    }
}

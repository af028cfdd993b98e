//! Node identity and rack topology.
//!
//! HDFS block placement and MapReduce scheduling both reason about network
//! *distance*: same node < same rack < different rack. Figure 2 of the
//! paper is exactly this — DataNodes report block locations to the
//! NameNode, and the JobTracker places map tasks using those locations.

use std::fmt;

/// Identifies a physical node in the simulated cluster (index into the
/// cluster's node table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifies a rack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RackId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{:03}", self.0)
    }
}

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "/rack{:02}", self.0)
    }
}

/// Network distance classes in increasing cost order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Locality {
    /// Reader and data share a node: no network at all.
    NodeLocal,
    /// Same rack: one switch hop.
    RackLocal,
    /// Different racks: through the core/aggregation switch.
    OffRack,
}

impl Locality {
    /// Hadoop's integer distance metric (0 / 2 / 4).
    pub fn distance(self) -> u32 {
        match self {
            Locality::NodeLocal => 0,
            Locality::RackLocal => 2,
            Locality::OffRack => 4,
        }
    }

    /// Label used in job reports ("Data-local map tasks", ...).
    pub fn label(self) -> &'static str {
        match self {
            Locality::NodeLocal => "Data-local",
            Locality::RackLocal => "Rack-local",
            Locality::OffRack => "Off-rack",
        }
    }
}

/// Maps nodes to racks and answers distance queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    rack_of: Vec<RackId>,
}

impl Topology {
    /// `num_nodes` nodes striped round-robin across `num_racks` racks —
    /// how Palmetto's node naming laid out, and good enough for placement
    /// experiments.
    pub fn striped(num_nodes: usize, num_racks: usize) -> Self {
        assert!(num_racks > 0, "need at least one rack");
        let rack_of = (0..num_nodes).map(|i| RackId((i % num_racks) as u32)).collect();
        Topology { rack_of }
    }

    /// Single-rack topology (the course's 8-node dedicated cluster).
    pub fn flat(num_nodes: usize) -> Self {
        Self::striped(num_nodes, 1)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.rack_of.len()
    }

    /// Number of distinct racks.
    pub fn num_racks(&self) -> usize {
        let mut racks: Vec<_> = self.rack_of.iter().collect();
        racks.sort_unstable();
        racks.dedup();
        racks.len()
    }

    /// Rack holding `node`.
    pub fn rack(&self, node: NodeId) -> RackId {
        self.rack_of[node.0 as usize]
    }

    /// All node ids, in order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.rack_of.len() as u32).map(NodeId)
    }

    /// Locality class between two nodes.
    pub fn locality(&self, a: NodeId, b: NodeId) -> Locality {
        if a == b {
            Locality::NodeLocal
        } else if self.rack(a) == self.rack(b) {
            Locality::RackLocal
        } else {
            Locality::OffRack
        }
    }

    /// Best locality between a reader node and any of the `holders`.
    pub fn best_locality(&self, reader: NodeId, holders: &[NodeId]) -> Option<Locality> {
        holders.iter().map(|&h| self.locality(reader, h)).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striped_assignment() {
        let t = Topology::striped(8, 2);
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.num_racks(), 2);
        assert_eq!(t.rack(NodeId(0)), RackId(0));
        assert_eq!(t.rack(NodeId(1)), RackId(1));
        assert_eq!(t.rack(NodeId(2)), RackId(0));
        let rack0: Vec<_> = t.nodes().filter(|&n| t.rack(n) == RackId(0)).collect();
        assert_eq!(rack0, vec![NodeId(0), NodeId(2), NodeId(4), NodeId(6)]);
    }

    #[test]
    fn locality_classes_and_distance() {
        let t = Topology::striped(4, 2);
        assert_eq!(t.locality(NodeId(0), NodeId(0)), Locality::NodeLocal);
        assert_eq!(t.locality(NodeId(0), NodeId(2)), Locality::RackLocal);
        assert_eq!(t.locality(NodeId(0), NodeId(1)), Locality::OffRack);
        assert!(Locality::NodeLocal < Locality::RackLocal);
        assert!(Locality::RackLocal < Locality::OffRack);
        assert_eq!(Locality::NodeLocal.distance(), 0);
        assert_eq!(Locality::OffRack.distance(), 4);
    }

    #[test]
    fn best_locality_prefers_closest_holder() {
        let t = Topology::striped(6, 3);
        // reader node0 (rack0); holders: node1 (rack1), node3 (rack0), node0
        assert_eq!(t.best_locality(NodeId(0), &[NodeId(1)]), Some(Locality::OffRack));
        assert_eq!(t.best_locality(NodeId(0), &[NodeId(1), NodeId(3)]), Some(Locality::RackLocal));
        assert_eq!(
            t.best_locality(NodeId(0), &[NodeId(1), NodeId(3), NodeId(0)]),
            Some(Locality::NodeLocal)
        );
        assert_eq!(t.best_locality(NodeId(0), &[]), None);
    }

    #[test]
    fn flat_topology_is_one_rack() {
        let t = Topology::flat(8);
        assert_eq!(t.num_racks(), 1);
        assert_eq!(t.locality(NodeId(0), NodeId(7)), Locality::RackLocal);
    }

    #[test]
    fn display_names() {
        assert_eq!(NodeId(3).to_string(), "node003");
        assert_eq!(RackId(1).to_string(), "/rack01");
        assert_eq!(Locality::NodeLocal.label(), "Data-local");
    }
}

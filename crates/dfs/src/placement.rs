//! Rack-aware block placement — HDFS's default policy.
//!
//! Table V's Information-Management outcome ("explain the techniques used
//! for data fragmentation, replication, and allocation") is this policy:
//!
//! 1. first replica on the writer's node (when the writer is a DataNode);
//! 2. second replica on a node in a *different* rack (survive rack loss);
//! 3. third replica on a different node in the *same* rack as the second
//!    (cheap third copy);
//! 4. extras spread over whatever remains.
//!
//! Selection among equally-good candidates rotates deterministically by
//! block id, so experiments replay identically while load still spreads.

use hl_common::prelude::*;

/// Choose up to `replication` distinct targets for a new block from
/// `usable`: the nodes that may take it (live, not draining, with room
/// for the block), in id order. The NameNode fills that list from its
/// id-ordered DataNode map into a buffer it keeps, so placing a block
/// copies nothing but its answer.
///
/// `writer` is the client's node when the client runs on a cluster node
/// (the MapReduce output path), `None` for off-cluster uploads
/// (`copyFromLocal` from a login node).
pub(crate) fn choose_targets(
    topology: &Topology,
    usable: &[NodeId],
    writer: Option<NodeId>,
    replication: u32,
    rotation: u64,
) -> Vec<NodeId> {
    if usable.is_empty() || replication == 0 {
        return Vec::new();
    }
    let mut chosen: Vec<NodeId> = Vec::with_capacity(replication as usize);

    // Replica 1: the writer if eligible, else rotate.
    let first = writer
        .filter(|w| usable.contains(w))
        .unwrap_or_else(|| usable[(rotation as usize) % usable.len()]);
    chosen.push(first);

    // Replica 2: prefer a different rack than the first.
    if replication >= 2 {
        let first_rack = topology.rack(first);
        let pick = pick_rotating(usable, rotation, |n| {
            !chosen.contains(&n) && topology.rack(n) != first_rack
        })
        .or_else(|| pick_rotating(usable, rotation, |n| !chosen.contains(&n)));
        if let Some(n) = pick {
            chosen.push(n);
        }
    }

    // Replica 3: same rack as the second, different node.
    if replication >= 3 && chosen.len() == 2 {
        let second_rack = topology.rack(chosen[1]);
        let pick = pick_rotating(usable, rotation.wrapping_add(1), |n| {
            !chosen.contains(&n) && topology.rack(n) == second_rack
        })
        .or_else(|| pick_rotating(usable, rotation.wrapping_add(1), |n| !chosen.contains(&n)));
        if let Some(n) = pick {
            chosen.push(n);
        }
    }

    // Extras: anything left, rotating.
    let mut extra_rot = rotation.wrapping_add(2);
    while chosen.len() < replication as usize {
        match pick_rotating(usable, extra_rot, |n| !chosen.contains(&n)) {
            Some(n) => chosen.push(n),
            None => break,
        }
        extra_rot = extra_rot.wrapping_add(1);
    }

    chosen
}

fn pick_rotating(
    usable: &[NodeId],
    rotation: u64,
    mut ok: impl FnMut(NodeId) -> bool,
) -> Option<NodeId> {
    let n = usable.len();
    (0..n).map(|i| usable[(rotation as usize + i) % n]).find(|&node| ok(node))
}

/// Order replica holders by read preference for a reader at `reader`:
/// node-local first, then rack-local, then off-rack (ties by node id).
pub(crate) fn order_for_read(
    topology: &Topology,
    reader: Option<NodeId>,
    holders: &[NodeId],
) -> Vec<NodeId> {
    let mut ordered: Vec<NodeId> = holders.to_vec();
    ordered.sort_by_key(|&h| match reader {
        Some(r) => (topology.locality(r, h).distance(), h.0),
        None => (u32::MAX, h.0),
    });
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn writer_gets_first_replica() {
        let topo = Topology::striped(6, 2);
        let targets = choose_targets(&topo, &nodes(6), Some(NodeId(3)), 3, 0);
        assert_eq!(targets[0], NodeId(3));
        assert_eq!(targets.len(), 3);
    }

    #[test]
    fn second_replica_is_off_rack_third_on_its_rack() {
        let topo = Topology::striped(8, 2);
        for rotation in 0..16 {
            let targets = choose_targets(&topo, &nodes(8), Some(NodeId(0)), 3, rotation);
            assert_eq!(targets.len(), 3);
            let racks: Vec<_> = targets.iter().map(|&n| topo.rack(n)).collect();
            assert_ne!(racks[0], racks[1], "replica 2 must be off-rack (rot {rotation})");
            assert_eq!(racks[1], racks[2], "replica 3 shares rack with replica 2");
            // All distinct nodes.
            let mut uniq = targets.clone();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), 3);
        }
    }

    #[test]
    fn single_rack_degrades_gracefully() {
        let topo = Topology::flat(4);
        let targets = choose_targets(&topo, &nodes(4), Some(NodeId(1)), 3, 5);
        assert_eq!(targets.len(), 3);
        let mut uniq = targets.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 3);
    }

    #[test]
    fn full_nodes_are_skipped() {
        // The NameNode drops nodes without room before placement sees them.
        let mut nn =
            crate::NameNode::new(&Configuration::with_defaults(), Topology::flat(4)).unwrap();
        for i in 0..4 {
            nn.register_datanode(SimTime::ZERO, NodeId(i), 1000);
        }
        nn.update_free_space(NodeId(0), 10); // too small for a 100-byte block
        nn.safemode.force_leave();
        nn.mkdirs("/d").unwrap();
        nn.create_file(SimTime::ZERO, "/d/f", None, None, "tester").unwrap();
        let (_, targets) = nn.add_block(SimTime::ZERO, "/d/f", 100, Some(NodeId(0))).unwrap();
        assert!(!targets.contains(&NodeId(0)), "writer without space is skipped");
        assert_eq!(targets.len(), 3);
    }

    #[test]
    fn fewer_nodes_than_replication_returns_what_exists() {
        let topo = Topology::flat(2);
        let targets = choose_targets(&topo, &nodes(2), None, 3, 7);
        assert_eq!(targets.len(), 2);
        assert!(choose_targets(&topo, &[], None, 3, 0).is_empty());
    }

    #[test]
    fn rotation_spreads_first_replica_for_remote_writers() {
        let topo = Topology::flat(4);
        let firsts: Vec<NodeId> =
            (0..4).map(|rot| choose_targets(&topo, &nodes(4), None, 1, rot)[0]).collect();
        let mut uniq = firsts.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 4, "rotation must spread placement: {firsts:?}");
    }

    #[test]
    fn read_ordering_prefers_locality() {
        let topo = Topology::striped(6, 2);
        // reader node0 (rack0); holders: node1 (rack1), node2 (rack0), node0
        let ordered = order_for_read(&topo, Some(NodeId(0)), &[NodeId(1), NodeId(2), NodeId(0)]);
        assert_eq!(ordered, vec![NodeId(0), NodeId(2), NodeId(1)]);
        // Off-cluster reader: stable id order.
        let ordered = order_for_read(&topo, None, &[NodeId(4), NodeId(1)]);
        assert_eq!(ordered, vec![NodeId(1), NodeId(4)]);
    }
}

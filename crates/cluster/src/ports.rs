//! Per-node TCP-port bookkeeping — the "ghost daemon" failure mode.
//!
//! In the course's Spring-2013 setup, students who exited their reserved
//! nodes without stopping Hadoop left orphaned daemons still bound to the
//! Hadoop ports; the next student assigned the same node could not start a
//! cluster until the scheduler's cleanup script ran (up to 15 minutes
//! later), unless the ghosts were their own and they killed them by hand.
//! This module models exactly that: bindings carry an owner, owners can
//! die without releasing, and cleanup sweeps dead bindings.

use std::collections::BTreeMap;

use hl_common::prelude::*;

/// The standard Hadoop 1.x daemon ports the course's myHadoop scripts used.
pub mod well_known {
    /// NameNode RPC.
    pub const NAMENODE_RPC: u16 = 8020;
    /// NameNode web UI.
    pub const NAMENODE_HTTP: u16 = 50070;
    /// DataNode data transfer.
    pub const DATANODE_DATA: u16 = 50010;
    /// JobTracker RPC.
    pub const JOBTRACKER_RPC: u16 = 8021;
    /// JobTracker web UI.
    pub const JOBTRACKER_HTTP: u16 = 50030;
    /// TaskTracker HTTP (shuffle service).
    pub const TASKTRACKER_HTTP: u16 = 50060;
    /// HBase master (the ecosystem lecture's extra daemon).
    pub const HBASE_MASTER: u16 = 60000;
    /// HBase region server.
    pub const HBASE_REGIONSERVER: u16 = 60020;

    /// Every port a full node (all daemons colocated) needs.
    pub const ALL: [u16; 6] = [
        NAMENODE_RPC,
        NAMENODE_HTTP,
        DATANODE_DATA,
        JOBTRACKER_RPC,
        JOBTRACKER_HTTP,
        TASKTRACKER_HTTP,
    ];
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Binding {
    owner: String,
    owner_alive: bool,
    bound_at: SimTime,
}

/// Tracks which (node, port) pairs are bound and by whom.
#[derive(Debug, Clone, Default)]
pub struct PortRegistry {
    // Ordered map: ghost sweeps and `ghosts_on` iterate, and the chaos
    // soak hashes event traces — iteration order must be deterministic.
    bindings: BTreeMap<(NodeId, u16), Binding>,
}

impl PortRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `port` on `node` for `owner`. Fails with [`HlError::PortInUse`]
    /// if any owner — alive or ghost — already holds it.
    pub fn bind(&mut self, now: SimTime, node: NodeId, port: u16, owner: &str) -> Result<()> {
        match self.bindings.get(&(node, port)) {
            Some(_) => Err(HlError::PortInUse { node: node.to_string(), port }),
            None => {
                self.bindings.insert(
                    (node, port),
                    Binding { owner: owner.to_string(), owner_alive: true, bound_at: now },
                );
                Ok(())
            }
        }
    }

    /// Release every binding `owner` holds (a clean `stop-all.sh`).
    pub fn release_owner(&mut self, owner: &str) -> usize {
        let before = self.bindings.len();
        self.bindings.retain(|_, b| b.owner != owner);
        before - self.bindings.len()
    }

    /// Mark an owner's processes dead *without* releasing their ports —
    /// the student logged out, the daemons became ghosts.
    pub fn orphan_owner(&mut self, owner: &str) -> usize {
        let mut n = 0;
        for b in self.bindings.values_mut() {
            if b.owner == owner && b.owner_alive {
                b.owner_alive = false;
                n += 1;
            }
        }
        n
    }

    /// Cleanup every node (the 15-minute cron pass).
    pub fn cleanup_all(&mut self) -> usize {
        let before = self.bindings.len();
        self.bindings.retain(|_, b| b.owner_alive);
        before - self.bindings.len()
    }

    /// Kill a specific ghost binding by hand — only the same owner may do
    /// so (students could kill *their own* orphaned daemons, not others').
    pub fn kill_own_ghost(&mut self, node: NodeId, port: u16, owner: &str) -> Result<()> {
        match self.bindings.get(&(node, port)) {
            Some(b) if b.owner == owner && !b.owner_alive => {
                self.bindings.remove(&(node, port));
                Ok(())
            }
            Some(b) if b.owner != owner => Err(HlError::PortInUse { node: node.to_string(), port }),
            Some(_) => Err(HlError::Internal("binding is alive; use release_owner".into())),
            None => Err(HlError::Internal(format!("no binding on {node}:{port}"))),
        }
    }

    /// Who holds `port` on `node`, if anyone, and whether they are alive.
    pub fn holder(&self, node: NodeId, port: u16) -> Option<(&str, bool)> {
        self.bindings.get(&(node, port)).map(|b| (b.owner.as_str(), b.owner_alive))
    }

    /// Count of ghost bindings on a node.
    pub fn ghosts_on(&self, node: NodeId) -> usize {
        self.bindings.iter().filter(|((n, _), b)| *n == node && !b.owner_alive).count()
    }

    /// Total bindings.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True when nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_conflicts_are_reported() {
        let mut reg = PortRegistry::new();
        reg.bind(SimTime::ZERO, NodeId(0), 50010, "alice").unwrap();
        let err = reg.bind(SimTime::ZERO, NodeId(0), 50010, "bob").unwrap_err();
        assert_eq!(err, HlError::PortInUse { node: "node000".into(), port: 50010 });
        // Same port on another node is fine.
        reg.bind(SimTime::ZERO, NodeId(1), 50010, "bob").unwrap();
    }

    #[test]
    fn clean_stop_releases_everything() {
        let mut reg = PortRegistry::new();
        for port in well_known::ALL {
            reg.bind(SimTime::ZERO, NodeId(0), port, "alice").unwrap();
        }
        assert_eq!(reg.release_owner("alice"), 6);
        assert!(reg.is_empty());
    }

    #[test]
    fn ghosts_block_new_clusters_until_cleanup() {
        let mut reg = PortRegistry::new();
        reg.bind(SimTime::ZERO, NodeId(3), well_known::TASKTRACKER_HTTP, "alice").unwrap();
        assert_eq!(reg.orphan_owner("alice"), 1);
        assert_eq!(reg.ghosts_on(NodeId(3)), 1);
        // Bob gets the node next and cannot bind.
        let err = reg.bind(SimTime(1), NodeId(3), well_known::TASKTRACKER_HTTP, "bob");
        assert!(err.is_err());
        // Cleanup sweeps the ghost; now Bob can start.
        assert_eq!(reg.cleanup_all(), 1);
        reg.bind(SimTime(2), NodeId(3), well_known::TASKTRACKER_HTTP, "bob").unwrap();
    }

    #[test]
    fn students_can_kill_only_their_own_ghosts() {
        let mut reg = PortRegistry::new();
        reg.bind(SimTime::ZERO, NodeId(0), 50060, "alice").unwrap();
        reg.orphan_owner("alice");
        // Bob may not kill Alice's ghost.
        assert!(reg.kill_own_ghost(NodeId(0), 50060, "bob").is_err());
        // Alice may.
        reg.kill_own_ghost(NodeId(0), 50060, "alice").unwrap();
        assert!(reg.is_empty());
    }

    #[test]
    fn live_bindings_survive_cleanup() {
        let mut reg = PortRegistry::new();
        reg.bind(SimTime::ZERO, NodeId(0), 1, "alice").unwrap();
        reg.bind(SimTime::ZERO, NodeId(0), 2, "bob").unwrap();
        reg.orphan_owner("alice");
        assert_eq!(reg.cleanup_all(), 1);
        assert_eq!(reg.holder(NodeId(0), 2), Some(("bob", true)));
        assert_eq!(reg.holder(NodeId(0), 1), None);
    }
}

//! The DataNode: stores block replicas and reports them to the NameNode.
//!
//! Figure 2's bottom row. The behaviours that matter to the course are all
//! here: blocks live as checksummed chunks on the node's local disk, a
//! restarted DataNode re-verifies its blocks before reporting in (the
//! "at least fifteen minutes for all the Data Nodes to check for data
//! integrity and report back to the Name Node"), and the block report is
//! the NameNode's only source of truth about replica locations.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;

use hl_common::pool::Pool;
use hl_common::prelude::*;

use crate::block::{
    BlockId, BlockPayload, IncrementalBlockReport, ReplicaMeta, StoredBlock, FIRST_GEN_STAMP,
};

/// One DataNode's state.
#[derive(Debug, Clone)]
pub struct DataNode {
    /// Which physical node this daemon runs on.
    pub node: NodeId,
    /// Disk capacity in bytes.
    pub capacity: u64,
    /// Whether the daemon process is up.
    pub alive: bool,
    blocks: BTreeMap<BlockId, StoredBlock>,
    /// Sum of the held replicas' lengths, kept in step with `blocks` so a
    /// store does not have to walk every replica to find out.
    used: u64,
    /// Replicas stored or re-stamped since the last drained delta report.
    pending_received: BTreeSet<BlockId>,
    /// Replicas dropped since the last drained delta report.
    pending_deleted: BTreeSet<BlockId>,
}

/// Summary of a block scanner pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanReport {
    /// Blocks whose checksums verified clean.
    pub clean: usize,
    /// Blocks found corrupt (now quarantined — removed from storage).
    pub corrupt: Vec<BlockId>,
    /// Bytes the scanner had to read.
    pub bytes_scanned: u64,
}

impl DataNode {
    /// A fresh, empty, live DataNode.
    pub(crate) fn new(node: NodeId, capacity: u64) -> Self {
        DataNode {
            node,
            capacity,
            alive: true,
            blocks: BTreeMap::new(),
            used: 0,
            pending_received: BTreeSet::new(),
            pending_deleted: BTreeSet::new(),
        }
    }

    /// Store a replica stamped with [`FIRST_GEN_STAMP`]. Fails when the
    /// disk is full or the daemon is down.
    pub(crate) fn store_block(&mut self, id: BlockId, payload: BlockPayload) -> Result<()> {
        self.store_block_stamped(id, payload, FIRST_GEN_STAMP)
    }

    /// Store a replica under an explicit generation stamp (the pipeline
    /// write path). Fails when the disk is full or the daemon is down.
    pub(crate) fn store_block_stamped(
        &mut self,
        id: BlockId,
        payload: BlockPayload,
        gen_stamp: u64,
    ) -> Result<()> {
        if !self.alive {
            return Err(HlError::DaemonDown(format!("datanode/{}", self.node)));
        }
        let len = payload.len();
        // Re-storing a held id overwrites that replica: its bytes are not
        // on the disk beside the new ones.
        let replaced = self.blocks.get(&id).map_or(0, |old| old.payload.len());
        let used = self.used - replaced + len;
        if used > self.capacity {
            return Err(HlError::Io(format!(
                "datanode/{}: disk full ({} used of {})",
                self.node, self.used, self.capacity
            )));
        }
        self.used = used;
        self.blocks.insert(id, StoredBlock::with_gen_stamp(id, payload, gen_stamp));
        self.pending_received.insert(id);
        self.pending_deleted.remove(&id);
        Ok(())
    }

    /// Re-stamp a held replica after pipeline recovery. Returns false when
    /// the daemon is down or the replica is absent (the caller then treats
    /// this node as lost to the pipeline too).
    pub(crate) fn update_gen_stamp(&mut self, id: BlockId, gen_stamp: u64) -> bool {
        if !self.alive {
            return false;
        }
        match self.blocks.get_mut(&id) {
            Some(stored) => {
                stored.gen_stamp = gen_stamp;
                // A re-stamp must reach the NameNode like a fresh receipt,
                // or it would invalidate this replica at the next report.
                self.pending_received.insert(id);
                true
            }
            None => false,
        }
    }

    /// The generation stamp this node holds for a replica, if present.
    pub(crate) fn gen_stamp_of(&self, id: BlockId) -> Option<u64> {
        self.blocks.get(&id).map(|s| s.gen_stamp)
    }

    /// Read a replica's bytes, verifying checksums in runs of chunks on
    /// `pool` when that pays.
    pub fn read_block(&self, id: BlockId, pool: &Pool) -> Result<Bytes> {
        if !self.alive {
            return Err(HlError::DaemonDown(format!("datanode/{}", self.node)));
        }
        match self.blocks.get(&id) {
            Some(stored) => stored.read_verified(pool),
            None => Err(HlError::MissingBlock { block_id: id.0, path: String::new() }),
        }
    }

    /// The replica's payload (for replication pipelines), unverified.
    pub fn payload(&self, id: BlockId) -> Option<&BlockPayload> {
        self.blocks.get(&id).map(|s| &s.payload)
    }

    /// Does this node hold the block?
    pub fn has_block(&self, id: BlockId) -> bool {
        self.blocks.contains_key(&id)
    }

    /// Drop a replica (NameNode invalidation command).
    pub(crate) fn delete_block(&mut self, id: BlockId) -> bool {
        let Some(removed) = self.blocks.remove(&id) else { return false };
        self.used -= removed.payload.len();
        self.pending_received.remove(&id);
        self.pending_deleted.insert(id);
        true
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Remaining capacity.
    pub fn free_bytes(&self) -> u64 {
        self.capacity.saturating_sub(self.used_bytes())
    }

    /// Number of replicas held.
    pub(crate) fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The block report: every replica's id, length, and generation stamp,
    /// in id order. A full report is a superset of every pending delta, so
    /// callers that just sent one should [`Self::drain_incremental`] and
    /// discard the result (the NameNode treats leftovers as no-ops anyway).
    pub fn block_report(&self) -> Vec<ReplicaMeta> {
        self.blocks
            .iter()
            .map(|(id, b)| ReplicaMeta { id: *id, len: b.payload.len(), gen_stamp: b.gen_stamp })
            .collect()
    }

    /// Drain the delta report accumulated since the last drain: replicas
    /// received (reported with their *current* length and stamp — a block
    /// received then deleted between drains appears only as deleted) and
    /// replicas dropped. Returns `None` when the daemon is down or there
    /// is nothing to tell, so heartbeats stay message-free in the steady
    /// state.
    pub(crate) fn drain_incremental(&mut self) -> Option<IncrementalBlockReport> {
        if !self.alive || (self.pending_received.is_empty() && self.pending_deleted.is_empty()) {
            return None;
        }
        let received = self
            .pending_received
            .iter()
            .filter_map(|id| {
                self.blocks.get(id).map(|b| ReplicaMeta {
                    id: *id,
                    len: b.payload.len(),
                    gen_stamp: b.gen_stamp,
                })
            })
            .collect();
        let deleted = self.pending_deleted.iter().copied().collect();
        self.pending_received.clear();
        self.pending_deleted.clear();
        Some(IncrementalBlockReport { received, deleted })
    }

    /// Full integrity scan: verify every replica's checksums, quarantine
    /// corrupt ones. This is what a restarted DataNode does before its
    /// first block report.
    pub fn scan_blocks(&mut self) -> ScanReport {
        let mut corrupt = Vec::new();
        let mut bytes_scanned = 0;
        for (id, stored) in &self.blocks {
            bytes_scanned += stored.payload.len();
            if stored.payload.verify().is_some() {
                corrupt.push(*id);
            }
        }
        for id in &corrupt {
            self.delete_block(*id);
        }
        ScanReport { clean: self.blocks.len(), corrupt, bytes_scanned }
    }

    /// Virtual time the startup integrity scan takes at `disk_bw` bytes/s.
    pub(crate) fn scan_duration(&self, disk_bw: u64) -> SimDuration {
        SimDuration::for_transfer(self.used_bytes(), disk_bw)
    }

    /// Kill the daemon process (blocks stay on disk — this is a process
    /// crash, not a disk loss).
    pub(crate) fn crash(&mut self) {
        self.alive = false;
    }

    /// Restart the daemon.
    pub fn restart(&mut self) {
        self.alive = true;
    }

    /// Wipe the disk too (node reimaged / scratch purged by the scheduler).
    pub fn wipe(&mut self) {
        let ids: Vec<BlockId> = self.blocks.keys().copied().collect();
        self.blocks.clear();
        self.used = 0;
        self.pending_received.clear();
        self.pending_deleted.extend(ids);
    }

    /// Test/fault-injection helper: corrupt one byte of a stored replica
    /// behind the checksums' back. Returns false if absent or synthetic.
    pub fn corrupt_block(&mut self, id: BlockId, byte_offset: usize) -> bool {
        match self.blocks.get_mut(&id) {
            Some(StoredBlock { payload: BlockPayload::Real { data, .. }, .. }) => {
                if data.is_empty() {
                    return false;
                }
                let mut raw = data.to_vec();
                let off = byte_offset % raw.len();
                raw[off] ^= 0xA5;
                *data = Bytes::from(raw);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_common::units::ByteSize;
    use proptest::prelude::*;

    fn dn() -> DataNode {
        DataNode::new(NodeId(0), 10 * ByteSize::MIB)
    }

    #[test]
    fn store_read_round_trip() {
        let mut d = dn();
        d.store_block(BlockId(1), BlockPayload::real(vec![9u8; 4096])).unwrap();
        assert!(d.has_block(BlockId(1)));
        assert_eq!(d.read_block(BlockId(1), &Pool::host()).unwrap().len(), 4096);
        assert_eq!(d.used_bytes(), 4096);
        assert_eq!(d.num_blocks(), 1);
    }

    #[test]
    fn disk_full_is_an_error() {
        let mut d = DataNode::new(NodeId(0), 1000);
        d.store_block(BlockId(1), BlockPayload::real(vec![0u8; 800])).unwrap();
        assert!(matches!(
            d.store_block(BlockId(2), BlockPayload::real(vec![0u8; 300])),
            Err(HlError::Io(_))
        ));
        // Synthetic payloads also count against capacity.
        assert!(d.store_block(BlockId(3), BlockPayload::synthetic(300)).is_err());
        assert!(d.store_block(BlockId(3), BlockPayload::synthetic(201)).is_err());
        assert!(d.store_block(BlockId(4), BlockPayload::synthetic(200)).is_ok());
        assert_eq!((d.used_bytes(), d.free_bytes()), (1000, 0));
        // A failed store changes nothing.
        assert!(d.store_block(BlockId(5), BlockPayload::synthetic(1)).is_err());
        assert_eq!((d.used_bytes(), d.num_blocks()), (1000, 2));
    }

    #[test]
    fn restoring_a_held_id_replaces_its_bytes() {
        let mut d = DataNode::new(NodeId(0), 1000);
        d.store_block(BlockId(1), BlockPayload::real(vec![0u8; 800])).unwrap();
        // The new copy overwrites the old one: only the new length counts.
        d.store_block(BlockId(1), BlockPayload::real(vec![1u8; 900])).unwrap();
        assert_eq!(d.used_bytes(), 900);
        d.store_block_stamped(BlockId(1), BlockPayload::synthetic(1000), 1001).unwrap();
        assert_eq!((d.used_bytes(), d.free_bytes(), d.num_blocks()), (1000, 0, 1));
        assert!(d.store_block(BlockId(1), BlockPayload::synthetic(1001)).is_err());
        assert_eq!(d.gen_stamp_of(BlockId(1)), Some(1001), "a refused re-store keeps the replica");
    }

    #[test]
    fn dead_daemon_rejects_io() {
        let mut d = dn();
        d.store_block(BlockId(1), BlockPayload::real(vec![1u8; 10])).unwrap();
        d.crash();
        assert!(matches!(d.read_block(BlockId(1), &Pool::host()), Err(HlError::DaemonDown(_))));
        assert!(matches!(
            d.store_block(BlockId(2), BlockPayload::real(vec![1u8; 10])),
            Err(HlError::DaemonDown(_))
        ));
        d.restart();
        // Blocks survived the process crash.
        assert_eq!(d.read_block(BlockId(1), &Pool::host()).unwrap().len(), 10);
    }

    #[test]
    fn missing_block_error() {
        let d = dn();
        assert!(matches!(
            d.read_block(BlockId(404), &Pool::host()),
            Err(HlError::MissingBlock { block_id: 404, .. })
        ));
    }

    #[test]
    fn block_report_lists_everything_in_order() {
        let mut d = dn();
        d.store_block(BlockId(5), BlockPayload::real(vec![0u8; 100])).unwrap();
        d.store_block_stamped(BlockId(2), BlockPayload::synthetic(50), 1007).unwrap();
        assert_eq!(
            d.block_report(),
            vec![
                ReplicaMeta { id: BlockId(2), len: 50, gen_stamp: 1007 },
                ReplicaMeta { id: BlockId(5), len: 100, gen_stamp: FIRST_GEN_STAMP },
            ]
        );
    }

    #[test]
    fn gen_stamp_updates_require_a_live_daemon_and_a_replica() {
        let mut d = dn();
        d.store_block(BlockId(1), BlockPayload::real(vec![0u8; 10])).unwrap();
        assert_eq!(d.gen_stamp_of(BlockId(1)), Some(FIRST_GEN_STAMP));
        assert!(d.update_gen_stamp(BlockId(1), 1001));
        assert_eq!(d.gen_stamp_of(BlockId(1)), Some(1001));
        assert!(!d.update_gen_stamp(BlockId(404), 1002));
        d.crash();
        assert!(!d.update_gen_stamp(BlockId(1), 1003));
        assert_eq!(d.gen_stamp_of(BlockId(1)), Some(1001));
    }

    #[test]
    fn scanner_quarantines_corruption() {
        let mut d = dn();
        d.store_block(BlockId(1), BlockPayload::real(vec![1u8; 1024])).unwrap();
        d.store_block(BlockId(2), BlockPayload::real(vec![2u8; 1024])).unwrap();
        d.store_block(BlockId(3), BlockPayload::synthetic(1024)).unwrap();
        assert!(d.corrupt_block(BlockId(2), 700));
        let report = d.scan_blocks();
        assert_eq!(report.corrupt, vec![BlockId(2)]);
        assert_eq!(report.clean, 2);
        assert_eq!(report.bytes_scanned, 3 * 1024);
        assert!(!d.has_block(BlockId(2)));
        // Corrupting a synthetic or missing block is a no-op.
        assert!(!d.corrupt_block(BlockId(3), 0));
        assert!(!d.corrupt_block(BlockId(404), 0));
    }

    #[test]
    fn scan_duration_scales_with_stored_bytes() {
        let mut d = DataNode::new(NodeId(0), 900 * ByteSize::GIB);
        // ~700 GB of synthetic data at 120 MiB/s should take ~1.66 hours —
        // the right order for the paper's "fifteen minutes" once divided
        // across a cluster's worth of smaller per-node holdings.
        d.store_block(BlockId(1), BlockPayload::synthetic(700 * ByteSize::GIB)).unwrap();
        let t = d.scan_duration(120 * ByteSize::MIB);
        assert!(t > SimDuration::from_mins(90) && t < SimDuration::from_mins(120));
    }

    #[test]
    fn incremental_deltas_track_changes_between_drains() {
        let mut d = dn();
        assert!(d.drain_incremental().is_none(), "nothing to report on a fresh node");

        d.store_block(BlockId(1), BlockPayload::real(vec![1u8; 10])).unwrap();
        d.store_block_stamped(BlockId(2), BlockPayload::synthetic(20), 1005).unwrap();
        d.store_block(BlockId(3), BlockPayload::real(vec![3u8; 30])).unwrap();
        // Block 3 vanishes before the drain: deleted-only, never received.
        assert!(d.delete_block(BlockId(3)));
        // Block 2 got re-stamped after pipeline recovery: current stamp wins.
        assert!(d.update_gen_stamp(BlockId(2), 1009));
        let delta = d.drain_incremental().unwrap();
        assert_eq!(
            delta.received,
            vec![
                ReplicaMeta { id: BlockId(1), len: 10, gen_stamp: FIRST_GEN_STAMP },
                ReplicaMeta { id: BlockId(2), len: 20, gen_stamp: 1009 },
            ]
        );
        assert_eq!(delta.deleted, vec![BlockId(3)]);

        // Draining resets the sets; a quiet period reports nothing.
        assert!(d.drain_incremental().is_none());

        // Deletions and quarantined corruption both surface as deleted.
        assert!(d.delete_block(BlockId(1)));
        d.store_block(BlockId(4), BlockPayload::real(vec![4u8; 1024])).unwrap();
        d.corrupt_block(BlockId(4), 100);
        d.scan_blocks();
        let delta = d.drain_incremental().unwrap();
        assert!(delta.received.is_empty());
        assert_eq!(delta.deleted, vec![BlockId(1), BlockId(4)]);

        // A downed daemon stays silent and keeps its pending deltas.
        d.store_block(BlockId(5), BlockPayload::synthetic(5)).unwrap();
        d.crash();
        assert!(d.drain_incremental().is_none());
        d.restart();
        assert_eq!(d.drain_incremental().unwrap().received.len(), 1);
    }

    proptest! {
        /// The running total is the sum it replaced, whatever happens to
        /// the replicas, and the disk fills at exactly `capacity`.
        #[test]
        fn prop_used_bytes_is_the_sum_of_held_replicas(
            ops in proptest::collection::vec((0u8..8, 0u64..10, 0u64..500), 1..80),
        ) {
            let capacity = 2000;
            let mut d = DataNode::new(NodeId(0), capacity);
            let mut held: BTreeMap<u64, u64> = BTreeMap::new();
            for (op, id, len) in ops {
                match op {
                    // Store or re-store; even lengths carry real bytes.
                    0..=3 => {
                        let payload = if len % 2 == 0 {
                            BlockPayload::real(vec![id as u8; len as usize])
                        } else {
                            BlockPayload::synthetic(len)
                        };
                        let used: u64 = held.values().sum();
                        let fits = used - held.get(&id).copied().unwrap_or(0) + len <= capacity;
                        let stored = d.store_block(BlockId(id), payload);
                        prop_assert_eq!(stored.is_ok(), d.alive && fits);
                        if stored.is_ok() {
                            held.insert(id, len);
                        }
                    }
                    4 => {
                        prop_assert_eq!(
                            d.delete_block(BlockId(id)),
                            held.remove(&id).is_some()
                        );
                    }
                    5 => {
                        if d.corrupt_block(BlockId(id), len as usize) {
                            held.remove(&id);
                        }
                        let report = d.scan_blocks();
                        prop_assert_eq!(report.clean, held.len());
                    }
                    6 => {
                        d.wipe();
                        held.clear();
                    }
                    _ => {
                        if d.alive {
                            d.crash();
                        } else {
                            d.restart();
                        }
                    }
                }
                let used: u64 = held.values().sum();
                prop_assert_eq!(d.used_bytes(), used);
                prop_assert_eq!(d.free_bytes(), capacity - used);
                prop_assert_eq!(d.num_blocks(), held.len());
                let reported: u64 = d.block_report().iter().map(|r| r.len).sum();
                prop_assert_eq!(reported, used);
            }
        }
    }

    #[test]
    fn wipe_clears_storage() {
        let mut d = dn();
        d.store_block(BlockId(1), BlockPayload::real(vec![1u8; 10])).unwrap();
        d.wipe();
        assert_eq!(d.num_blocks(), 0);
        assert_eq!(d.used_bytes(), 0);
    }
}

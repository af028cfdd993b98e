//! The NameNode: RAM-resident namespace + block map, heartbeat tracking,
//! safe mode, and the replication monitor.
//!
//! This is the center of the paper's Figure 2: "DataNodes report block
//! information to NameNode", "Block metadata lives in memory", and the
//! JobTracker "receives block-level information" from here. It is written
//! as a **pure state machine** — methods take the current [`SimTime`] and
//! return commands — so `hl-core` can drive it from the event queue and
//! unit tests can drive it directly.
//!
//! ## Scaling structure
//!
//! Every hot path is indexed so cost tracks the *change*, not the cluster:
//!
//! * the DataNode table (`nodes`) is indexed by `NodeId`, and each node's
//!   slot holds its block index, which makes block reports an O(report)
//!   diff and dead-node cleanup an O(node's replicas) sweep;
//! * the safe-mode census is a pair of incrementally-maintained counters
//!   (`reported_count`, `total_location_count`) instead of a full scan;
//! * every replica location change — full and delta reports, pipeline
//!   acks, dead-node sweeps — goes through `change_location`, which looks
//!   the block up once and updates locations, census, per-node index and
//!   the under-/over-replicated indexes from that one entry;
//! * `under` holds each under-replicated block's count of missing
//!   replicas in a table paged by block id, and the replication monitor
//!   serves the most-degraded first, mirroring HDFS's
//!   `UnderReplicatedBlocks` queues;
//! * the RPC counters are handles resolved at [`NameNode::new`], so
//!   counting an RPC is one indexed add;
//! * the fsimage is a serialized [`FsImage`] checkpoint (auto-written
//!   every `fs.checkpoint.txns` journal ops), so restart loads the image
//!   and replays only the edit-log *tail* instead of all history.
//!
//! ## Durable state
//!
//! Namespace, per-block `(len, expected_replication, gen_stamp)`, the
//! lease table and the two allocation marks are what the image and the
//! journal hold. Only [`EditOp::apply`] changes them: an RPC checks its
//! guards, builds the op, applies it, does its volatile side effects and
//! journals it; a restart applies the same ops to what the image held.
//! Replica locations, `pending_replicas`, the decommission set and lease
//! renewal times are RAM only.

use std::collections::BTreeSet;

use hl_common::config::keys;
use hl_common::prelude::*;
use hl_metrics::{CounterHandle, MetricsRegistry};

use crate::block::{BlockId, IncrementalBlockReport, ReplicaMeta, FIRST_GEN_STAMP};
use crate::blockmap::{BlockMap, UnderReplicatedQueue};
use crate::editlog::{self, EditLog, EditOp, Ledger};
use crate::fsimage::{BlockRecord, FsImage};
use crate::lease::{Lease, LeaseManager};
use crate::namespace::{FileStatus, Namespace};
use crate::placement;
use crate::safemode::SafeMode;

/// Everything the NameNode knows about one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    /// Target replica count (from the owning file).
    pub expected_replication: u32,
    /// Block length in bytes.
    pub len: u64,
    /// Live replica locations, per the latest reports, sorted.
    pub locations: Replicas,
    /// Re-replications currently in flight (prevents duplicate work).
    pub pending_replicas: u32,
    /// Current generation stamp; replicas reporting an older stamp were
    /// left behind by pipeline recovery and get invalidated.
    pub gen_stamp: u64,
}

impl BlockInfo {
    /// A block as the image or the journal describes it: no replica has
    /// reported yet.
    pub(crate) fn unreported(len: u64, expected_replication: u32, gen_stamp: u64) -> Self {
        BlockInfo {
            expected_replication,
            len,
            locations: Replicas::default(),
            pending_replicas: 0,
            gen_stamp,
        }
    }
}

/// How many locations a [`Replicas`] holds without a heap allocation: the
/// default replication factor.
const INLINE_REPLICAS: usize = 3;

/// A block's replica locations: a sorted set of nodes, tiny (about the
/// replication factor), so a sorted array beats a tree everywhere. Up to
/// [`INLINE_REPLICAS`] live inside the [`BlockInfo`] itself, so a block
/// costs no allocation for its replicas and a lookup no second cache
/// miss. A larger set (over-replication, a raised `setrep`) moves to the
/// heap and moves back when it shrinks. The same 24 bytes as a `Vec`.
#[derive(Clone)]
pub struct Replicas(ReplicaRepr);

#[derive(Clone)]
enum ReplicaRepr {
    /// The first `len` of `nodes`; the rest are leftovers.
    Inline {
        len: u8,
        nodes: [NodeId; INLINE_REPLICAS],
    },
    Heap(Vec<NodeId>),
}

const _: () = assert!(std::mem::size_of::<Replicas>() == std::mem::size_of::<Vec<NodeId>>());

impl Default for Replicas {
    fn default() -> Self {
        Replicas(ReplicaRepr::Inline { len: 0, nodes: [NodeId(0); INLINE_REPLICAS] })
    }
}

impl PartialEq for Replicas {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Replicas {}

impl std::fmt::Debug for Replicas {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl std::ops::Deref for Replicas {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        match &self.0 {
            ReplicaRepr::Inline { len, nodes } => nodes.get(..usize::from(*len)).unwrap_or(&[]),
            ReplicaRepr::Heap(nodes) => nodes,
        }
    }
}

impl Replicas {
    /// Add `node`, keeping the order. False when it was already there.
    pub(crate) fn insert(&mut self, node: NodeId) -> bool {
        let Err(at) = self.binary_search(&node) else { return false };
        match &mut self.0 {
            ReplicaRepr::Inline { len, nodes } if usize::from(*len) < INLINE_REPLICAS => {
                nodes.copy_within(at..usize::from(*len), at + 1);
                nodes[at] = node;
                *len += 1;
            }
            ReplicaRepr::Inline { nodes, .. } => {
                let mut heap = Vec::with_capacity(INLINE_REPLICAS + 1);
                heap.extend_from_slice(nodes);
                heap.insert(at, node);
                self.0 = ReplicaRepr::Heap(heap);
            }
            ReplicaRepr::Heap(heap) => heap.insert(at, node),
        }
        true
    }

    /// Drop `node`. False when it was not there.
    pub(crate) fn remove(&mut self, node: NodeId) -> bool {
        let Ok(at) = self.binary_search(&node) else { return false };
        match &mut self.0 {
            ReplicaRepr::Inline { len, nodes } => {
                nodes.copy_within(at + 1..usize::from(*len), at);
                *len -= 1;
            }
            ReplicaRepr::Heap(heap) => {
                heap.remove(at);
                if heap.len() <= INLINE_REPLICAS {
                    let mut inline = Replicas::default();
                    for &n in heap.iter() {
                        inline.insert(n);
                    }
                    *self = inline;
                }
            }
        }
        true
    }
}

/// Per-DataNode registration state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DataNodeInfo {
    /// Last heartbeat time.
    pub last_heartbeat: SimTime,
    /// Free disk as of the last heartbeat.
    pub free_bytes: u64,
    /// Considered alive by the heartbeat monitor.
    pub alive: bool,
}

/// A command the NameNode hands back to the cluster driver.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings follow the variant docs directly
pub enum DnCommand {
    /// Copy `block` from `from` to `to` (re-replication).
    Replicate { block: BlockId, from: NodeId, to: NodeId },
    /// Delete an excess/invalidated replica on `node`.
    Invalidate { block: BlockId, node: NodeId },
}

/// What a DataNode says about its replica of one block: the three ways a
/// location changes.
#[derive(Debug, Clone, Copy)]
enum Replica {
    /// Written or copied here just now: a location, and one in-flight
    /// re-replication fewer.
    Received,
    /// Listed in a report with this generation stamp: a location when the
    /// stamp is current, garbage to invalidate when it is stale (pipeline
    /// recovery happened without this node) or the block is unknown
    /// (deleted while the node was down).
    Reported(u64),
    /// No longer here.
    Gone,
}

/// Recompute `id`'s membership in the under/over indexes from its entry.
/// O(replicas of this block). Missing blocks need no index: "missing" is
/// exactly "in the map with zero locations", so the census counters
/// already give the count in O(1).
fn reindex(
    under: &mut UnderReplicatedQueue,
    over: &mut BTreeSet<BlockId>,
    decommissioning: &BTreeSet<NodeId>,
    id: BlockId,
    info: &BlockInfo,
) {
    let counted =
        u32::try_from(info.locations.iter().filter(|n| !decommissioning.contains(n)).count())
            .unwrap_or(u32::MAX);
    let have = counted.saturating_add(info.pending_replicas);
    if !info.locations.is_empty() && have < info.expected_replication {
        under.set(id, info.expected_replication.saturating_sub(counted));
    } else {
        under.remove(id);
    }
    if u32::try_from(info.locations.len()).unwrap_or(u32::MAX) > info.expected_replication {
        over.insert(id);
    } else {
        over.remove(&id);
    }
}

/// Refill `usable` with the nodes a new replica of `len` bytes may go to:
/// live, not draining, with room for it, and not among `holders`, in id
/// order (the order of the DataNode table).
fn fill_usable(
    usable: &mut Vec<NodeId>,
    nodes: &NodeTable,
    decommissioning: &BTreeSet<NodeId>,
    len: u64,
    holders: &[NodeId],
) {
    usable.clear();
    usable.extend(nodes.registered().filter_map(|(node, info)| {
        let ok = info.alive
            && info.free_bytes >= len
            && !decommissioning.contains(&node)
            && holders.binary_search(&node).is_err();
        ok.then_some(node)
    }));
}

/// What the NameNode keeps per DataNode.
#[derive(Debug, Clone, Default)]
struct NodeSlot {
    /// Registration: set by `register_datanode` or a heartbeat, cleared by
    /// `unregister_datanode`.
    info: Option<DataNodeInfo>,
    /// Which blocks the node holds, per the latest reports — the reverse
    /// index that makes report diffs and dead-node sweeps cheap. Sorted
    /// (binary-search insert/remove), like block locations, and kept
    /// through [`NameNode::shutdown`], which clears it in place so recovery
    /// never pays for tearing it down and growing it again.
    blocks: Vec<BlockId>,
}

/// The DataNode table: one [`NodeSlot`] per node of the topology, indexed
/// by `NodeId.0` and iterated in id order, so a heartbeat, a reported
/// replica, placement's candidate scan and the dead-node sweep each find
/// their node with one load.
///
/// It is sized from the topology at [`NameNode::new`] and never grows. No
/// `NodeId` is decoded from stored bytes — registrations and replica
/// locations are not durable — so every id here comes from a caller. An
/// id past the topology has no slot: it cannot register or heartbeat, a
/// replica it reports is garbage (queued for invalidation, like one of an
/// unknown block) and a receipt from it is ignored. A map keyed by node
/// used to register such an id, and the first placement or read that
/// asked for its rack panicked.
#[derive(Debug, Clone)]
struct NodeTable {
    slots: Vec<NodeSlot>,
    /// The nodes whose slot holds a registration, sorted. Placement and the
    /// sweeps walk these, not every slot: a cluster may register only part
    /// of its topology (a bulk load against a bootstrap set).
    registered: Vec<NodeId>,
}

/// `node`'s slot index; `usize::MAX`, which no slot has, for an id a
/// `usize` cannot hold.
fn slot_of(node: NodeId) -> usize {
    usize::try_from(node.0).unwrap_or(usize::MAX)
}

impl NodeTable {
    fn new(topology: &Topology) -> Self {
        let nodes = topology.num_nodes();
        NodeTable { slots: vec![NodeSlot::default(); nodes], registered: Vec::with_capacity(nodes) }
    }

    fn get(&self, node: NodeId) -> Option<&NodeSlot> {
        self.slots.get(slot_of(node))
    }

    fn get_mut(&mut self, node: NodeId) -> Option<&mut NodeSlot> {
        self.slots.get_mut(slot_of(node))
    }

    /// Register `node`, or refresh its registration, as `info`.
    fn register(&mut self, node: NodeId, info: DataNodeInfo) {
        let Some(slot) = self.slots.get_mut(slot_of(node)) else { return };
        if slot.info.replace(info).is_none() {
            if let Err(at) = self.registered.binary_search(&node) {
                self.registered.insert(at, node);
            }
        }
    }

    /// Forget `node` entirely: its registration and its block index.
    fn unregister(&mut self, node: NodeId) {
        if let Some(slot) = self.get_mut(node) {
            *slot = NodeSlot::default();
        }
        if let Ok(at) = self.registered.binary_search(&node) {
            self.registered.remove(at);
        }
    }

    /// Registered DataNodes, in id order.
    fn registered(&self) -> impl Iterator<Item = (NodeId, &DataNodeInfo)> {
        self.registered.iter().filter_map(|&node| Some((node, self.get(node)?.info.as_ref()?)))
    }

    /// Mark dead every live node whose last heartbeat is more than
    /// `dead_after` before `now`; returns them in id order.
    fn declare_dead(&mut self, now: SimTime, dead_after: SimDuration) -> Vec<NodeId> {
        let mut dead = Vec::new();
        for &node in &self.registered {
            let slot = self.slots.get_mut(slot_of(node));
            let Some(info) = slot.and_then(|slot| slot.info.as_mut()) else { continue };
            if info.alive && now.since(info.last_heartbeat) > dead_after {
                info.alive = false;
                dead.push(node);
            }
        }
        dead
    }

    /// Move `node`'s block index out of its slot (empty for an id without
    /// one), so a caller can walk it while changing locations; what it
    /// hands back with [`Self::put_blocks`] replaces what the walk left.
    fn take_blocks(&mut self, node: NodeId) -> Vec<BlockId> {
        self.get_mut(node).map(|slot| std::mem::take(&mut slot.blocks)).unwrap_or_default()
    }

    fn put_blocks(&mut self, node: NodeId, blocks: Vec<BlockId>) {
        if let Some(slot) = self.get_mut(node) {
            slot.blocks = blocks;
        }
    }
}

/// Handles of the "namenode" counters the RPCs and the journal bump,
/// resolved once at [`NameNode::new`]: counting one is an indexed add.
#[derive(Debug, Clone, Copy)]
struct RpcCounters {
    heartbeat: CounterHandle,
    block_report: CounterHandle,
    incremental_block_report: CounterHandle,
    block_received: CounterHandle,
    mkdirs: CounterHandle,
    create_file: CounterHandle,
    add_block: CounterHandle,
    bump_gen_stamp: CounterHandle,
    complete_file: CounterHandle,
    delete: CounterHandle,
    set_replication: CounterHandle,
    set_codec: CounterHandle,
    rename: CounterHandle,
    recover_lease: CounterHandle,
    editlog_ops: CounterHandle,
}

impl RpcCounters {
    fn resolve(metrics: &mut MetricsRegistry) -> Self {
        let mut counter = |name| metrics.counter_handle("namenode", name);
        RpcCounters {
            heartbeat: counter("rpc.heartbeat"),
            block_report: counter("rpc.block_report"),
            incremental_block_report: counter("rpc.incremental_block_report"),
            block_received: counter("rpc.block_received"),
            mkdirs: counter("rpc.mkdirs"),
            create_file: counter("rpc.create_file"),
            add_block: counter("rpc.add_block"),
            bump_gen_stamp: counter("rpc.bump_gen_stamp"),
            complete_file: counter("rpc.complete_file"),
            delete: counter("rpc.delete"),
            set_replication: counter("rpc.set_replication"),
            set_codec: counter("rpc.set_codec"),
            rename: counter("rpc.rename"),
            recover_lease: counter("rpc.recover_lease"),
            editlog_ops: counter("editlog.ops"),
        }
    }
}

/// The NameNode.
#[derive(Debug, Clone)]
pub struct NameNode {
    namespace: Namespace,
    /// Journal of namespace mutations since the last checkpoint.
    pub editlog: EditLog,
    /// Serialized [`FsImage`] written by the last checkpoint.
    fsimage: Vec<u8>,
    blocks: BlockMap,
    nodes: NodeTable,
    decommissioning: BTreeSet<NodeId>,
    /// Blocks with at least one reported replica (the safe-mode census
    /// numerator, maintained incrementally).
    reported_count: usize,
    /// Total replica locations across all blocks (metadata-RAM gauge).
    total_location_count: u64,
    under: UnderReplicatedQueue,
    over: BTreeSet<BlockId>,
    /// Placement's candidate list, refilled for every block placed and
    /// kept between calls, so choosing targets allocates only the answer.
    usable: Vec<NodeId>,
    next_block_id: u64,
    next_gen_stamp: u64,
    /// Stale/garbage replicas queued for invalidation, drained by the
    /// replication monitor.
    invalidations: Vec<(BlockId, NodeId)>,
    leases: LeaseManager,
    /// Journal ops between automatic checkpoints (0 disables the trigger).
    checkpoint_every: usize,
    /// True between [`Self::shutdown`] and a successful [`Self::restart`]:
    /// the process holds no state and refuses every guarded RPC.
    down: bool,
    /// Safe-mode state machine.
    pub safemode: SafeMode,
    /// Instruments for the "namenode" daemon (RPC ops, edit-log ops,
    /// safe-mode transitions, namespace/replication gauges).
    pub metrics: MetricsRegistry,
    counters: RpcCounters,
    topology: Topology,
    heartbeat_interval: SimDuration,
    dead_after: SimDuration,
    default_replication: u32,
    default_block_size: u64,
}

impl NameNode {
    /// Start a NameNode over `topology` with course-default configuration.
    pub fn new(config: &Configuration, topology: Topology) -> Result<Self> {
        let threshold = config.get_f64(keys::DFS_SAFEMODE_THRESHOLD, 0.999)?;
        let extension =
            SimDuration::from_secs(config.get_u64(keys::DFS_SAFEMODE_EXTENSION_SECS, 30)?);
        let heartbeat_secs = config.get_u64(keys::DFS_HEARTBEAT_SECS, 3)?;
        let dead_after_beats = config.get_u64(keys::DFS_HEARTBEAT_DEAD_AFTER, 200)?;
        let lease_soft =
            SimDuration::from_secs(config.get_u64(keys::DFS_LEASE_SOFT_LIMIT_SECS, 60)?);
        let lease_hard =
            SimDuration::from_secs(config.get_u64(keys::DFS_LEASE_HARD_LIMIT_SECS, 300)?);
        let checkpoint_ops = config.get_u64(keys::DFS_CHECKPOINT_OPS, 10_000)?;
        let default_block_size = config.get_u64(keys::DFS_BLOCK_SIZE, 64 * 1024 * 1024)?;
        if default_block_size == 0 || heartbeat_secs == 0 {
            let key =
                if heartbeat_secs == 0 { keys::DFS_HEARTBEAT_SECS } else { keys::DFS_BLOCK_SIZE };
            return Err(HlError::Config(format!("{key} must be positive")));
        }
        // A freshly formatted NameNode's image: empty tree, allocation
        // counters at their starting marks.
        let format_image =
            FsImage { next_block_id: 1, next_gen_stamp: FIRST_GEN_STAMP, ..FsImage::default() };
        let mut metrics = MetricsRegistry::new();
        let counters = RpcCounters::resolve(&mut metrics);
        Ok(NameNode {
            namespace: Namespace::new(),
            editlog: EditLog::new(),
            fsimage: format_image.to_bytes(),
            blocks: BlockMap::default(),
            nodes: NodeTable::new(&topology),
            decommissioning: BTreeSet::new(),
            reported_count: 0,
            total_location_count: 0,
            under: UnderReplicatedQueue::default(),
            over: BTreeSet::new(),
            usable: Vec::new(),
            next_block_id: 1,
            next_gen_stamp: FIRST_GEN_STAMP,
            invalidations: Vec::new(),
            leases: LeaseManager::new(lease_soft, lease_hard),
            checkpoint_every: usize::try_from(checkpoint_ops).unwrap_or(usize::MAX),
            down: false,
            safemode: SafeMode::new(threshold, extension),
            metrics,
            counters,
            topology,
            heartbeat_interval: SimDuration::from_secs(heartbeat_secs),
            dead_after: SimDuration::from_secs(heartbeat_secs * dead_after_beats),
            default_replication: config.get_u32(keys::DFS_REPLICATION, 3)?,
            default_block_size,
        })
    }

    /// Heartbeat period DataNodes should use.
    pub fn heartbeat_interval(&self) -> SimDuration {
        self.heartbeat_interval
    }

    /// Default block size for new files.
    pub fn default_block_size(&self) -> u64 {
        self.default_block_size
    }

    /// The namespace, read-only (fsck, listings, input splits).
    pub fn namespace(&self) -> &Namespace {
        &self.namespace
    }

    /// Block info, read-only.
    pub fn block(&self, id: BlockId) -> Option<&BlockInfo> {
        self.blocks.get(id)
    }

    /// Compact manifest of the whole block map — `(block, len,
    /// expected_replication, gen_stamp)` in id order: everything durable
    /// about a block. Location-independent, so a pre-crash manifest can be
    /// compared against a journal-recovered NameNode whose replica
    /// locations are still empty (the crash-recovery oracles).
    pub fn block_manifest(&self) -> Vec<(BlockId, u64, u32, u64)> {
        self.blocks.iter().map(|(id, b)| (id, b.len, b.expected_replication, b.gen_stamp)).collect()
    }

    /// Live replica locations of a block (empty when missing).
    pub fn block_locations(&self, id: BlockId) -> Vec<NodeId> {
        self.blocks.get(id).map(|b| b.locations.to_vec()).unwrap_or_default()
    }

    /// The serialized fsimage as of the last checkpoint (what a secondary
    /// NameNode would have on disk).
    pub fn fsimage_bytes(&self) -> &[u8] {
        &self.fsimage
    }

    /// Apply `op` to the live recoverable state and drop the blocks it
    /// freed from every derived index. Returns them so the caller can
    /// invalidate their replicas.
    fn apply(&mut self, op: &EditOp<&str>) -> Result<Vec<(BlockId, BlockInfo)>> {
        let mut ledger = Ledger {
            blocks: &mut self.blocks,
            leases: &mut self.leases,
            next_block_id: &mut self.next_block_id,
            next_gen_stamp: &mut self.next_gen_stamp,
        };
        let freed = op.apply(&mut self.namespace, Some(&mut ledger))?;
        for (id, info) in &freed {
            if !info.locations.is_empty() {
                self.reported_count = self.reported_count.saturating_sub(1);
            }
            self.total_location_count = self
                .total_location_count
                .saturating_sub(u64::try_from(info.locations.len()).unwrap_or(0));
            for &node in info.locations.iter() {
                if let Some(slot) = self.nodes.get_mut(node) {
                    if let Ok(at) = slot.blocks.binary_search(id) {
                        slot.blocks.remove(at);
                    }
                }
            }
            self.under.remove(*id);
            self.over.remove(id);
        }
        Ok(freed)
    }

    /// Append one op to the edit log, count it, and checkpoint when the
    /// journal tail reaches `fs.checkpoint.txns` ops. Every caller must
    /// have applied the op and renewed the leases it renews *before*
    /// journaling, so the auto-checkpoint always snapshots a consistent
    /// image.
    fn journal(&mut self, op: &EditOp<&str>) {
        self.editlog.append(op);
        self.metrics.bump(self.counters.editlog_ops, 1);
        if self.checkpoint_every > 0 && self.editlog.len() >= self.checkpoint_every {
            self.checkpoint();
        }
    }

    fn guard_safemode(&self) -> Result<()> {
        if self.down {
            Err(HlError::DaemonDown("namenode".into()))
        } else if self.safemode.is_on() {
            let (reported, expected) = self.block_census();
            Err(HlError::SafeMode(self.safemode.status(reported, expected)))
        } else {
            Ok(())
        }
    }

    /// Feed the (O(1)) census to safe mode; counts the exit transition.
    fn update_safemode(&mut self, now: SimTime) -> bool {
        let (reported, expected) = self.block_census();
        let exited = self.safemode.update(now, reported, expected);
        if exited {
            self.metrics.incr("namenode", "safemode.exited", 1);
        }
        exited
    }

    // ----------------------------------------------------- location index

    /// The one way a replica location changes. Looks `id` up once and
    /// updates everything from that entry: `locations`, the census
    /// counters, the per-node index and the under/over indexes; a
    /// [`Replica::Reported`] that is not a location is queued for
    /// invalidation, so full and delta reports share one verdict. Returns
    /// `true` when `node` holds a live replica afterwards. A node outside
    /// the [`NodeTable`] holds none.
    fn change_location(&mut self, id: BlockId, node: NodeId, replica: Replica) -> bool {
        let info = self.blocks.get_mut(id);
        let held = self.nodes.get_mut(node).map(|slot| &mut slot.blocks);
        let live = match (replica, &info) {
            (Replica::Gone, _) | (_, None) => false,
            (Replica::Reported(stamp), Some(known)) => held.is_some() && stamp >= known.gen_stamp,
            (Replica::Received, Some(_)) => held.is_some(),
        };
        if !live && matches!(replica, Replica::Reported(_)) {
            self.invalidations.push((id, node));
        }
        let (Some(info), Some(held)) = (info, held) else { return false };
        if matches!(replica, Replica::Received) {
            info.pending_replicas = info.pending_replicas.saturating_sub(1);
        }
        let moved = match live {
            true if info.locations.insert(node) => {
                self.reported_count += usize::from(info.locations.len() == 1);
                self.total_location_count += 1;
                // A sorted report appends; anything else finds its place.
                if held.last().is_none_or(|&last| last < id) {
                    held.push(id);
                } else if let Err(at) = held.binary_search(&id) {
                    held.insert(at, id);
                }
                true
            }
            false if info.locations.remove(node) => {
                if info.locations.is_empty() {
                    self.reported_count = self.reported_count.saturating_sub(1);
                }
                self.total_location_count = self.total_location_count.saturating_sub(1);
                if let Ok(at) = held.binary_search(&id) {
                    held.remove(at);
                }
                true
            }
            _ => false,
        };
        // A receipt lowered the pending count even if nothing moved.
        if moved || matches!(replica, Replica::Received) {
            reindex(&mut self.under, &mut self.over, &self.decommissioning, id, info);
        }
        live
    }

    /// Retract every replica `node` was known to hold — O(node's replicas)
    /// via the per-node index, not a full-map scan.
    fn drop_replicas_of(&mut self, node: NodeId) {
        for id in self.nodes.take_blocks(node) {
            self.change_location(id, node, Replica::Gone);
        }
    }

    /// Change `id`'s entry, if it has one, and re-index it from the entry
    /// in hand.
    fn update_block(&mut self, id: BlockId, change: impl FnOnce(&mut BlockInfo)) {
        if let Some(info) = self.blocks.get_mut(id) {
            change(info);
            reindex(&mut self.under, &mut self.over, &self.decommissioning, id, info);
        }
    }

    /// Re-index every block with a replica on `node` (decommission
    /// transitions change what "counted" means for exactly these blocks).
    fn reindex_node(&mut self, node: NodeId) {
        let held = self.nodes.take_blocks(node);
        for &id in &held {
            self.update_block(id, |_| {});
        }
        self.nodes.put_blocks(node, held);
    }

    // ---------------------------------------------------------------- DNs

    /// A DataNode registers (daemon start). An id outside the topology is
    /// ignored (see [`NodeTable`]).
    pub fn register_datanode(&mut self, now: SimTime, node: NodeId, free_bytes: u64) {
        self.nodes.register(node, DataNodeInfo { last_heartbeat: now, free_bytes, alive: true });
    }

    /// Heartbeat from a DataNode: registers it if it was not, and revives
    /// it if the monitor had declared it dead (its replicas come back via
    /// the next block report). Counted even from an id outside the
    /// topology, which is otherwise ignored.
    pub fn heartbeat(&mut self, now: SimTime, node: NodeId, free_bytes: u64) {
        self.metrics.bump(self.counters.heartbeat, 1);
        self.register_datanode(now, node, free_bytes);
    }

    /// Remove a DataNode from the cluster entirely (the operator pulled it
    /// from the include file after decommissioning). Its replicas are
    /// forgotten and it stops counting as live or draining.
    pub(crate) fn unregister_datanode(&mut self, node: NodeId) {
        self.drop_replicas_of(node);
        self.nodes.unregister(node);
        self.decommissioning.remove(&node);
    }

    /// Update a DataNode's free-space figure without touching its
    /// heartbeat clock (used on the synchronous write path).
    pub(crate) fn update_free_space(&mut self, node: NodeId, free_bytes: u64) {
        if let Some(info) = self.nodes.get_mut(node).and_then(|slot| slot.info.as_mut()) {
            info.free_bytes = free_bytes;
        }
    }

    /// Sweep for dead DataNodes; removes their replicas from the block map.
    /// Returns the newly-dead nodes.
    pub fn check_heartbeats(&mut self, now: SimTime) -> Vec<NodeId> {
        let newly_dead = self.nodes.declare_dead(now, self.dead_after);
        for &node in &newly_dead {
            self.drop_replicas_of(node);
        }
        if !newly_dead.is_empty() {
            self.metrics.incr("namenode", "datanodes.declared_dead", newly_dead.len() as u64);
        }
        // Losing replicas can regress the safe-mode census.
        self.update_safemode(now);
        // The lease monitor rides the same sweep (its SimTime clock tick).
        self.check_leases(now);
        newly_dead
    }

    /// Live DataNodes.
    pub fn live_datanodes(&self) -> Vec<NodeId> {
        self.nodes.registered().filter(|(_, i)| i.alive).map(|(n, _)| n).collect()
    }

    /// Process a full block report from `node`: an O(report + previously
    /// known replicas on `node`) diff against the per-node index, each
    /// replica a [`Replica::Reported`] location change. Returns `true` when
    /// this report (or its safe-mode consequence) exits safe mode.
    pub fn process_block_report(
        &mut self,
        now: SimTime,
        node: NodeId,
        report: &[ReplicaMeta],
    ) -> bool {
        self.metrics.bump(self.counters.block_report, 1);
        let mut confirmed: Vec<BlockId> = Vec::with_capacity(report.len());
        // The node's index ends up no longer than the report: size it once
        // (a no-op for a re-report) rather than by doubling, whose cast-off
        // buffers the heap keeps.
        if let Some(slot) = self.nodes.get_mut(node) {
            slot.blocks.reserve(report.len().saturating_sub(slot.blocks.len()));
        }
        for r in report {
            if self.change_location(r.id, node, Replica::Reported(r.gen_stamp)) {
                confirmed.push(r.id);
            }
        }
        // DataNodes report in id order, which the sort sees in one pass.
        confirmed.sort_unstable();
        // The node's index now holds what it held before and what it just
        // confirmed; retract the rest. It is walked out of its slot, so the
        // retraction copies nothing.
        let mut held = self.nodes.take_blocks(node);
        held.retain(|&id| {
            let kept = confirmed.binary_search(&id).is_ok();
            if !kept {
                self.change_location(id, node, Replica::Gone);
            }
            kept
        });
        self.nodes.put_blocks(node, held);
        self.update_safemode(now)
    }

    /// Process a delta report from `node`: replicas received and deleted
    /// since its last report. O(delta). Received replicas are judged as in
    /// a full report; `deleted` entries only retract locations (the
    /// DataNode already dropped the bytes).
    pub fn process_incremental_report(
        &mut self,
        now: SimTime,
        node: NodeId,
        report: &IncrementalBlockReport,
    ) -> bool {
        self.metrics.bump(self.counters.incremental_block_report, 1);
        for r in &report.received {
            self.change_location(r.id, node, Replica::Reported(r.gen_stamp));
        }
        for &id in &report.deleted {
            self.change_location(id, node, Replica::Gone);
        }
        self.update_safemode(now)
    }

    /// A DataNode confirms receipt of one block (pipeline write or
    /// completed re-replication).
    pub fn block_received(&mut self, now: SimTime, node: NodeId, id: BlockId) -> Vec<DnCommand> {
        self.metrics.bump(self.counters.block_received, 1);
        let mut commands = Vec::new();
        self.change_location(id, node, Replica::Received);
        // Over-replication: evict replicas on decommissioning nodes first
        // (that is the whole point of the drain), then the highest-id
        // extra that isn't the one just written.
        while self.over.contains(&id) {
            let Some(info) = self.blocks.get(id) else { break };
            let victim = info
                .locations
                .iter()
                .find(|n| self.decommissioning.contains(n) && **n != node)
                .or_else(|| info.locations.iter().rev().find(|&&n| n != node))
                .copied()
                .unwrap_or(node);
            self.change_location(id, victim, Replica::Gone);
            commands.push(DnCommand::Invalidate { block: id, node: victim });
        }
        self.update_safemode(now);
        commands
    }

    /// `(blocks with ≥1 reported replica, total blocks)` — O(1), the
    /// counters are maintained on every location change.
    pub fn block_census(&self) -> (usize, usize) {
        (self.reported_count, self.blocks.len())
    }

    // ---------------------------------------------------------- namespace

    /// `hadoop fs -mkdir -p`.
    pub fn mkdirs(&mut self, path: &str) -> Result<()> {
        self.metrics.bump(self.counters.mkdirs, 1);
        self.guard_safemode()?;
        let op = EditOp::Mkdirs { path };
        self.apply(&op)?;
        self.journal(&op);
        Ok(())
    }

    /// Create an (incomplete) file; `holder` is granted the write lease.
    pub fn create_file(
        &mut self,
        now: SimTime,
        path: &str,
        replication: Option<u32>,
        block_size: Option<u64>,
        holder: &str,
    ) -> Result<()> {
        self.metrics.bump(self.counters.create_file, 1);
        self.guard_safemode()?;
        let op = EditOp::Create {
            path,
            replication: replication.unwrap_or(self.default_replication),
            block_size: block_size.unwrap_or(self.default_block_size),
            at: now,
            holder,
        };
        self.apply(&op)?;
        self.journal(&op);
        Ok(())
    }

    /// Allocate the next block of `path` and choose its replica targets.
    /// Also renews the writer's lease — block allocation is progress.
    pub fn add_block(
        &mut self,
        now: SimTime,
        path: &str,
        len: u64,
        writer: Option<NodeId>,
    ) -> Result<(BlockId, Vec<NodeId>)> {
        self.metrics.bump(self.counters.add_block, 1);
        self.guard_safemode()?;
        let (id, gen_stamp) = (BlockId(self.next_block_id), self.next_gen_stamp);
        // One walk of the path: placement reads the file's replication and
        // block size, and the op appends through the same reference.
        let file = self.namespace.file_mut(path)?;
        fill_usable(
            &mut self.usable,
            &self.nodes,
            &self.decommissioning,
            len.min(file.block_size),
            &[],
        );
        let targets =
            placement::choose_targets(&self.topology, &self.usable, writer, file.replication, id.0);
        if targets.is_empty() {
            let wanted = file.replication;
            return Err(HlError::InsufficientReplication { wanted, available: 0 });
        }
        // Nothing to index: with no replica reported yet the new block is
        // neither under- nor over-replicated.
        let mut ledger = Ledger {
            blocks: &mut self.blocks,
            leases: &mut self.leases,
            next_block_id: &mut self.next_block_id,
            next_gen_stamp: &mut self.next_gen_stamp,
        };
        editlog::add_block(file, path, id, len, gen_stamp, Some(&mut ledger))?;
        self.leases.renew(now, path);
        self.journal(&EditOp::AddBlock { path, block: id, len, gen_stamp });
        Ok((id, targets))
    }

    /// Bump a block's generation stamp (pipeline recovery: a DataNode fell
    /// out of the write pipeline). The new stamp is journaled; replicas
    /// still carrying the old stamp are invalidated when they next report.
    /// Counts as writer progress, so the lease renews too.
    pub fn bump_gen_stamp(&mut self, now: SimTime, path: &str, id: BlockId) -> Result<u64> {
        self.metrics.bump(self.counters.bump_gen_stamp, 1);
        let gen_stamp = self.next_gen_stamp;
        let op = EditOp::BumpGenStamp { block: id, gen_stamp };
        self.apply(&op)?;
        self.leases.renew(now, path);
        self.journal(&op);
        Ok(gen_stamp)
    }

    /// Close a file and release its write lease.
    pub fn complete_file(&mut self, path: &str) -> Result<()> {
        self.metrics.bump(self.counters.complete_file, 1);
        self.guard_safemode()?;
        let op = EditOp::Close { path };
        self.apply(&op)?;
        self.journal(&op);
        Ok(())
    }

    /// Delete a path; replicas of freed blocks get invalidation commands.
    pub fn delete(&mut self, path: &str, recursive: bool) -> Result<Vec<DnCommand>> {
        self.metrics.bump(self.counters.delete, 1);
        self.guard_safemode()?;
        let op = EditOp::Delete { path, recursive };
        let mut commands = Vec::new();
        for (block, info) in self.apply(&op)? {
            commands
                .extend(info.locations.iter().map(|&node| DnCommand::Invalidate { block, node }));
        }
        self.journal(&op);
        Ok(commands)
    }

    /// `hadoop fs -setrep`: change a file's target replication. Raising it
    /// queues re-replication; lowering it queues excess-replica
    /// invalidation (both handled by the next monitor pass).
    pub fn set_replication(&mut self, path: &str, replication: u32) -> Result<Vec<BlockId>> {
        self.metrics.bump(self.counters.set_replication, 1);
        self.guard_safemode()?;
        if replication == 0 {
            return Err(HlError::Config("replication must be >= 1".into()));
        }
        let op = EditOp::SetReplication { path, replication };
        self.apply(&op)?;
        let blocks = self.namespace.file(path)?.blocks.clone();
        for &id in &blocks {
            self.update_block(id, |_| {});
        }
        self.journal(&op);
        Ok(blocks)
    }

    /// Flag `path`'s stored bytes as codec-framed (set by the DFS client
    /// right after it finishes a compressed write). Journaled, so restarts
    /// and fsimage checkpoints preserve the decode instruction.
    pub fn set_file_codec(&mut self, path: &str, codec: hl_codec::CodecId) -> Result<()> {
        self.metrics.bump(self.counters.set_codec, 1);
        self.guard_safemode()?;
        let op = EditOp::SetCodec { path, codec };
        self.apply(&op)?;
        self.journal(&op);
        Ok(())
    }

    /// Rename a path. An open file's lease follows it, and so does the
    /// lease of every open file under a renamed directory.
    pub fn rename(&mut self, src: &str, dst: &str) -> Result<()> {
        self.metrics.bump(self.counters.rename, 1);
        self.guard_safemode()?;
        let op = EditOp::Rename { src, dst };
        self.apply(&op)?;
        self.journal(&op);
        Ok(())
    }

    /// Directory listing.
    pub fn list(&self, path: &str) -> Result<Vec<FileStatus>> {
        self.namespace.list(path)
    }

    // ------------------------------------------------------------- leases

    /// The write lease on `path`, if the file is open for write.
    pub fn lease(&self, path: &str) -> Option<&Lease> {
        self.leases.lease(path)
    }

    /// Every outstanding write lease, path-ordered (fsck's open-file view).
    pub fn open_files(&self) -> Vec<&Lease> {
        self.leases.leases().collect()
    }

    /// Explicit `recoverLease` (the admin/shell verb). Returns `Ok(true)`
    /// when the file is already closed, `Ok(false)` when recovery was
    /// started — the next lease check finalizes it.
    pub fn recover_lease(&mut self, path: &str) -> Result<bool> {
        self.metrics.bump(self.counters.recover_lease, 1);
        let file = self.namespace.file(path)?;
        if file.complete {
            self.leases.release(path);
            return Ok(true);
        }
        if !self.leases.start_recovery(path) {
            // Open file without a lease shouldn't happen; self-heal it.
            self.leases.acquire(SimTime::ZERO, path, "recovery");
            self.leases.start_recovery(path);
        }
        Ok(false)
    }

    /// One lease-monitor tick: advance expiry state machines and finalize
    /// files whose recovery is due. Idles during safe mode (like the real
    /// LeaseManager — no namespace mutations before the image is safe).
    /// Returns the paths finalized this tick.
    // lint:allow(R9): the lease monitor's step; scale_equivalence drives it at drawn instants
    pub fn check_leases(&mut self, now: SimTime) -> Vec<String> {
        if self.safemode.is_on() {
            return Vec::new();
        }
        let due = self.leases.check(now);
        let mut finalized = Vec::new();
        for path in due {
            if self.finalize_lease(&path) {
                finalized.push(path);
            }
        }
        if !finalized.is_empty() {
            self.metrics.incr("namenode", "leases.recovered", finalized.len() as u64);
        }
        finalized
    }

    /// Finalize one crashed writer's file: drop trailing blocks no
    /// DataNode ever confirmed, close at the last consistent length, and
    /// release the lease. Returns false when the file vanished meanwhile.
    fn finalize_lease(&mut self, path: &str) -> bool {
        let Ok(file) = self.namespace.file(path) else {
            self.leases.release(path);
            return false;
        };
        if file.complete {
            self.leases.release(path);
            return true;
        }
        // Walk trailing blocks back until one has a confirmed replica.
        // Only the tail can be unconfirmed: pipelines write in order.
        let mut tail: Vec<BlockId> = file.blocks.clone();
        while let Some(&last) = tail.last() {
            let info = self.blocks.get(last);
            if info.is_some_and(|b| !b.locations.is_empty() || b.pending_replicas > 0) {
                break;
            }
            let abandon =
                EditOp::AbandonBlock { path, block: last, len: info.map_or(0, |b| b.len) };
            if self.apply(&abandon).is_err() {
                break;
            }
            self.journal(&abandon);
            tail.pop();
        }
        let close = EditOp::Close { path };
        if self.apply(&close).is_ok() {
            self.journal(&close);
        } else {
            self.leases.release(path);
        }
        true
    }

    // ------------------------------------------------------- replication

    /// Blocks with fewer *counted* replicas than expected (and how short).
    /// Replicas on decommissioning nodes are still readable but no longer
    /// count toward the target, so starting a decommission immediately
    /// queues its blocks for copying — HDFS's drain semantics. Served from
    /// the indexed queue: O(under-replicated), not O(blocks).
    pub fn under_replicated(&self) -> Vec<(BlockId, u32, u32)> {
        self.under
            .ids()
            .filter_map(|id| {
                let b = self.blocks.get(id)?;
                let counted = u32::try_from(
                    b.locations.iter().filter(|n| !self.decommissioning.contains(n)).count(),
                )
                .unwrap_or(u32::MAX);
                Some((id, counted, b.expected_replication))
            })
            .collect()
    }

    /// Blocks with zero live replicas — data loss until a holder returns.
    /// Derived by scanning the map (fsck/admin-report granularity); the
    /// *count* is available in O(1) from the census counters.
    pub fn missing_blocks(&self) -> Vec<BlockId> {
        self.blocks.iter().filter(|(_, b)| b.locations.is_empty()).map(|(id, _)| id).collect()
    }

    /// One replication-monitor pass: emit copy commands for
    /// under-replicated blocks (bounded per pass, like the real monitor),
    /// most-degraded blocks first via the priority buckets.
    pub(crate) fn replication_work(&mut self, _now: SimTime, max_tasks: usize) -> Vec<DnCommand> {
        if self.safemode.is_on() {
            return Vec::new(); // the monitor idles during safe mode
        }
        let mut commands = Vec::new();
        // Stale-genstamp and garbage replicas first: deletes are cheap and
        // every pass drains the whole queue (deduplicated — a replica may
        // have been reported more than once between passes).
        let mut pending: Vec<(BlockId, NodeId)> = std::mem::take(&mut self.invalidations);
        pending.sort_unstable();
        pending.dedup();
        for (block, node) in pending {
            commands.push(DnCommand::Invalidate { block, node });
        }
        for id in self.under.priority_order() {
            if commands.len() >= max_tasks {
                break;
            }
            // The queue is maintained eagerly, but stay panic-free if a
            // concurrent mutation path ever drops the entry mid-pass.
            let Some(info) = self.blocks.get(id) else { continue };
            let Some(&from) = info.locations.first() else { continue };
            fill_usable(
                &mut self.usable,
                &self.nodes,
                &self.decommissioning,
                info.len,
                &info.locations,
            );
            let targets = placement::choose_targets(&self.topology, &self.usable, None, 1, id.0);
            if let Some(&to) = targets.first() {
                self.update_block(id, |b| b.pending_replicas += 1);
                commands.push(DnCommand::Replicate { block: id, from, to });
            }
        }
        // Over-replication sweep (setrep-down, returned dead nodes): trim
        // highest-id excess replicas, from the indexed set.
        for id in self.over.iter().copied().collect::<Vec<_>>() {
            if commands.len() >= max_tasks {
                break;
            }
            while self.over.contains(&id) {
                let Some(&victim) = self.blocks.get(id).and_then(|b| b.locations.last()) else {
                    break;
                };
                self.change_location(id, victim, Replica::Gone);
                commands.push(DnCommand::Invalidate { block: id, node: victim });
            }
        }
        if !commands.is_empty() {
            self.metrics.incr("namenode", "replication.commands", commands.len() as u64);
        }
        commands
    }

    /// A scheduled re-replication failed (source died mid-copy); return
    /// the slot so the monitor can retry elsewhere.
    pub(crate) fn replication_failed(&mut self, id: BlockId) {
        self.update_block(id, |b| b.pending_replicas = b.pending_replicas.saturating_sub(1));
    }

    /// Begin draining a DataNode: it stops receiving new blocks and its
    /// replicas stop counting toward replication targets, so the monitor
    /// copies them elsewhere. The node keeps serving reads while draining.
    pub(crate) fn start_decommission(&mut self, node: NodeId) {
        if self.decommissioning.insert(node) {
            self.reindex_node(node);
        }
    }

    /// Nodes currently draining.
    pub(crate) fn decommissioning_nodes(&self) -> Vec<NodeId> {
        self.decommissioning.iter().copied().collect()
    }

    /// True once every block that has a replica on `node` also has a full
    /// replica set elsewhere — the node may be removed.
    pub(crate) fn decommission_complete(&self, node: NodeId) -> bool {
        self.decommission_stuck_blocks(node).is_empty()
    }

    /// The blocks still pinning a draining `node`: they have a replica on
    /// it but not enough counted replicas elsewhere. What an operator
    /// staring at a wedged decommission actually needs to see. Served from
    /// the per-node index: O(node's replicas), not O(blocks).
    pub(crate) fn decommission_stuck_blocks(&self, node: NodeId) -> Vec<BlockId> {
        let Some(slot) = self.nodes.get(node) else { return Vec::new() };
        slot.blocks
            .iter()
            .filter(|id| {
                let Some(b) = self.blocks.get(**id) else { return false };
                let elsewhere = u32::try_from(
                    b.locations
                        .iter()
                        .filter(|n| **n != node && !self.decommissioning.contains(n))
                        .count(),
                )
                .unwrap_or(u32::MAX);
                elsewhere < b.expected_replication.min(self.eligible_datanodes(node))
            })
            .copied()
            .collect()
    }

    fn eligible_datanodes(&self, excluding: NodeId) -> u32 {
        u32::try_from(
            self.nodes
                .registered()
                .filter(|(n, i)| i.alive && *n != excluding && !self.decommissioning.contains(n))
                .count(),
        )
        .unwrap_or(u32::MAX)
    }

    // ------------------------------------------------------------ restart

    /// Checkpoint: serialize the recoverable state to a fresh [`FsImage`]
    /// and clear the edit log (what the secondary NameNode did for the
    /// course cluster nightly; here also auto-triggered by
    /// `fs.checkpoint.txns`).
    pub fn checkpoint(&mut self) {
        let image = FsImage {
            namespace: self.namespace.clone(),
            blocks: self
                .blocks
                .iter()
                .map(|(id, b)| BlockRecord {
                    id,
                    len: b.len,
                    expected_replication: b.expected_replication,
                    gen_stamp: b.gen_stamp,
                })
                .collect(),
            next_block_id: self.next_block_id,
            next_gen_stamp: self.next_gen_stamp,
            leases: self.leases.leases().cloned().collect(),
        };
        self.fsimage = image.to_bytes();
        self.editlog.checkpoint();
        self.metrics.incr("namenode", "checkpoints", 1);
    }

    /// The NameNode process dies and its RAM goes with it: the namespace,
    /// the block map, the lease table, every index the block reports built
    /// — replica locations, the per-node reverse index, census counters,
    /// replication queues — and every DataNode is unknown until it
    /// re-registers. What survives is the fsimage and the edit log. Pure
    /// teardown, no journaling: this is the half of a restart that costs
    /// no downtime in real life (the dying process's memory is simply
    /// reclaimed), split out so the scale benchmark can time recovery
    /// proper. Idempotent; [`Self::restart`] is the only way back up.
    pub fn shutdown(&mut self) {
        if self.down {
            return;
        }
        self.namespace = Namespace::new();
        self.blocks.clear();
        self.leases.clear();
        self.invalidations.clear();
        for slot in &mut self.nodes.slots {
            slot.blocks.clear();
            if let Some(info) = &mut slot.info {
                info.alive = false;
            }
        }
        self.reported_count = 0;
        self.total_location_count = 0;
        self.under = UnderReplicatedQueue::default();
        self.over.clear();
        self.down = true;
    }

    /// Simulate a full NameNode restart: tear the process down (unless
    /// [`Self::shutdown`] already did), deserialize the fsimage into
    /// namespace, block map, leases and allocation marks, apply the
    /// edit-log *tail* written since the last checkpoint, re-acquire the
    /// lease of every file still open, and enter safe mode. Block reports
    /// must stream back in before the cluster is usable again.
    ///
    /// What comes back is a function of the image and the journal alone,
    /// in every build. An `Err` (corrupt image, a journal that does not
    /// fit it) leaves the NameNode down and empty, never half-loaded.
    pub fn restart(&mut self, now: SimTime) -> Result<()> {
        self.shutdown();
        let image = FsImage::from_bytes(&self.fsimage)?;
        let mut ns = image.namespace;
        // A checkpoint writes its records in id order, every id below the
        // mark it writes beside them; anything else is not an image this
        // NameNode wrote, and would overwrite an entry.
        let mut blocks = BlockMap::default();
        let mut last = None;
        for r in image.blocks {
            if last.is_some_and(|last| r.id <= last) || r.id.0 >= image.next_block_id {
                return Err(HlError::Codec(format!(
                    "image block {} out of order or not below next id {}",
                    r.id, image.next_block_id
                )));
            }
            last = Some(r.id);
            blocks.insert(r.id, BlockInfo::unreported(r.len, r.expected_replication, r.gen_stamp));
        }
        // Emptied by `shutdown`, so the clone carries only the limits.
        let mut leases = self.leases.clone();
        for l in &image.leases {
            leases.acquire(l.renewed_at, &l.path, &l.holder);
        }
        let (mut next_block_id, mut next_gen_stamp) = (image.next_block_id, image.next_gen_stamp);
        let mut ledger = Ledger {
            blocks: &mut blocks,
            leases: &mut leases,
            next_block_id: &mut next_block_id,
            next_gen_stamp: &mut next_gen_stamp,
        };
        for op in self.editlog.ops() {
            op?.apply(&mut ns, Some(&mut ledger))?;
        }
        // Files still open for write regain their leases at `now` (the
        // holder survives via the image/journal) so the lease monitor can
        // recover them.
        let open: Vec<(String, String)> = ns
            .files_under("/")?
            .into_iter()
            .filter(|(_, file)| !file.complete)
            .map(|(path, _)| {
                let holder = leases.lease(&path).map_or("recovery", |l| l.holder.as_str());
                (path, holder.to_string())
            })
            .collect();
        leases.clear();
        for (path, holder) in open {
            leases.acquire(now, &path, &holder);
        }
        self.namespace = ns;
        self.blocks = blocks;
        self.leases = leases;
        self.next_block_id = next_block_id;
        self.next_gen_stamp = next_gen_stamp;
        self.safemode = SafeMode::new(self.safemode.threshold, self.safemode.extension);
        self.down = false;
        // Restart semantics: point-in-time gauges died with the process,
        // monotonic counters and histograms survive (no double-counting).
        self.metrics.restart_daemon("namenode");
        self.metrics.incr("namenode", "restarts", 1);
        self.metrics.incr("namenode", "safemode.entered", 1);
        Ok(())
    }

    /// Refresh the "namenode" gauges from live state. Called by the DFS
    /// aggregator just before every snapshot so the gauges reflect the
    /// namespace/replication picture at snapshot time. O(1) reads of the
    /// maintained indexes, and a count of the live DataNodes in the table.
    pub(crate) fn sample_gauges(&mut self) {
        fn g(n: usize) -> i64 {
            i64::try_from(n).unwrap_or(i64::MAX)
        }
        let (reported, total) = self.block_census();
        let under = g(self.under.len());
        let missing = g(total.saturating_sub(reported));
        let open = g(self.leases.len());
        let live = g(self.nodes.registered().filter(|(_, i)| i.alive).count());
        let pending = g(self.editlog.len());
        let ram = i64::try_from(self.metadata_ram_bytes()).unwrap_or(i64::MAX);
        self.metrics.set_gauge("namenode", "blocks.total", g(total));
        self.metrics.set_gauge("namenode", "blocks.reported", g(reported));
        self.metrics.set_gauge("namenode", "blocks.under_replicated", under);
        self.metrics.set_gauge("namenode", "blocks.missing", missing);
        self.metrics.set_gauge("namenode", "leases.open", open);
        self.metrics.set_gauge("namenode", "datanodes.live", live);
        self.metrics.set_gauge("namenode", "safemode.on", i64::from(self.safemode.is_on()));
        self.metrics.set_gauge("namenode", "editlog.pending_ops", pending);
        self.metrics.set_gauge("namenode", "metadata.ram_bytes", ram);
    }

    /// Rough bytes of NameNode RAM the metadata occupies (the Figure 2
    /// "block metadata lives in memory" talking point, used by the fsck
    /// report). ~150 B per inode + ~(150 + 30·replicas) B per block, the
    /// folklore numbers for Hadoop 1.x. O(1): replica totals are counted
    /// incrementally.
    pub(crate) fn metadata_ram_bytes(&self) -> u64 {
        let (dirs, files, _) = self.namespace.stats();
        let inode_bytes = 150 * (dirs + files) as u64;
        let block_bytes =
            150 * u64::try_from(self.blocks.len()).unwrap_or(0) + 30 * self.total_location_count;
        inode_bytes + block_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nn(nodes: usize) -> NameNode {
        let mut config = Configuration::with_defaults();
        config.set(keys::DFS_SAFEMODE_EXTENSION_SECS, 0);
        let mut nn = NameNode::new(&config, Topology::flat(nodes)).unwrap();
        for i in 0..nodes as u32 {
            nn.register_datanode(SimTime::ZERO, NodeId(i), u64::MAX / 2);
        }
        // Fresh cluster: empty namespace exits safe mode on first census.
        nn.safemode.update(SimTime::ZERO, 0, 0);
        nn
    }

    /// Create a file with `blocks` blocks and report all replicas in.
    fn populate(nn: &mut NameNode, path: &str, blocks: usize) -> Vec<BlockId> {
        nn.mkdirs("/data").unwrap();
        nn.create_file(SimTime::ZERO, path, None, None, "tester").unwrap();
        let mut ids = Vec::new();
        for _ in 0..blocks {
            let (id, targets) = nn.add_block(SimTime::ZERO, path, 64, None).unwrap();
            for t in targets {
                nn.block_received(SimTime::ZERO, t, id);
            }
            ids.push(id);
        }
        nn.complete_file(path).unwrap();
        ids
    }

    /// `node` re-reports everything the NameNode believes it holds,
    /// except `drop` — i.e. the replica silently vanished.
    fn report_without(nn: &mut NameNode, node: NodeId, drop: BlockId) {
        let report: Vec<ReplicaMeta> = nn
            .nodes
            .get(node)
            .map(|s| s.blocks.clone())
            .unwrap_or_default()
            .into_iter()
            .filter(|&b| b != drop)
            .map(|b| ReplicaMeta {
                id: b,
                len: nn.block(b).map(|i| i.len).unwrap_or(0),
                gen_stamp: nn.block(b).map(|i| i.gen_stamp).unwrap_or(FIRST_GEN_STAMP),
            })
            .collect();
        nn.process_block_report(SimTime(1), node, &report);
    }

    #[test]
    fn write_path_allocates_and_tracks_replicas() {
        let mut nn = nn(4);
        let ids = populate(&mut nn, "/data/f", 2);
        assert_eq!(ids.len(), 2);
        for id in &ids {
            assert_eq!(nn.block_locations(*id).len(), 3);
        }
        assert!(nn.under_replicated().is_empty());
        assert!(nn.missing_blocks().is_empty());
        let f = nn.namespace().file("/data/f").unwrap();
        assert!(f.complete);
        assert_eq!(f.len, 128);
    }

    #[test]
    fn safemode_blocks_mutations() {
        let config = Configuration::with_defaults();
        let mut nn = NameNode::new(&config, Topology::flat(2)).unwrap();
        assert!(nn.safemode.is_on());
        assert!(matches!(nn.mkdirs("/x"), Err(HlError::SafeMode(_))));
        assert!(matches!(
            nn.create_file(SimTime::ZERO, "/x", None, None, "tester"),
            Err(HlError::SafeMode(_))
        ));
        nn.safemode.force_leave();
        nn.mkdirs("/x").unwrap();
    }

    #[test]
    fn dead_datanode_causes_under_replication() {
        let mut nn = nn(4);
        let ids = populate(&mut nn, "/data/f", 3);
        // Heartbeats for everyone except node 0, far in the future.
        let later = SimTime::ZERO + SimDuration::from_mins(20);
        for i in 1..4 {
            nn.heartbeat(later, NodeId(i), u64::MAX / 2);
        }
        let dead = nn.check_heartbeats(later);
        assert_eq!(dead, vec![NodeId(0)]);
        // Blocks that had a replica on node0 are now under-replicated.
        let under = nn.under_replicated();
        assert!(!under.is_empty());
        for (id, have, want) in under {
            assert!(ids.contains(&id));
            assert_eq!(want, 3);
            assert_eq!(have, 2);
        }
    }

    #[test]
    fn replication_monitor_emits_copy_commands_once() {
        let mut nn = nn(4);
        populate(&mut nn, "/data/f", 2);
        let later = SimTime::ZERO + SimDuration::from_mins(20);
        for i in 1..4 {
            nn.heartbeat(later, NodeId(i), u64::MAX / 2);
        }
        nn.check_heartbeats(later);
        let work = nn.replication_work(later, 100);
        let affected = nn.under_replicated().len();
        assert_eq!(affected, 0, "all under-replicated blocks have pending work");
        assert!(!work.is_empty());
        for cmd in &work {
            match cmd {
                DnCommand::Replicate { from, to, .. } => {
                    assert_ne!(from, to);
                    assert_ne!(*to, NodeId(0), "dead node cannot be a target");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Second pass finds nothing (pending suppresses duplicates).
        assert!(nn.replication_work(later, 100).is_empty());
        // Completing the copies restores full replication.
        for cmd in work {
            if let DnCommand::Replicate { block, to, .. } = cmd {
                nn.block_received(later, to, block);
            }
        }
        assert!(nn.under_replicated().is_empty());
    }

    #[test]
    fn over_replication_invalidates_extras() {
        let mut nn = nn(4);
        let ids = populate(&mut nn, "/data/f", 1);
        // A fourth replica appears (e.g. a dead node came back after
        // re-replication already happened).
        let holders = nn.block_locations(ids[0]);
        let extra = (0..4u32).map(NodeId).find(|n| !holders.contains(n)).unwrap();
        let cmds = nn.block_received(SimTime::ZERO, extra, ids[0]);
        assert_eq!(cmds.len(), 1);
        match &cmds[0] {
            DnCommand::Invalidate { block, node } => {
                assert_eq!(*block, ids[0]);
                assert_ne!(*node, extra, "the just-reported replica survives");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(nn.block_locations(ids[0]).len(), 3);
    }

    #[test]
    fn delete_emits_invalidations_for_all_replicas() {
        let mut nn = nn(4);
        populate(&mut nn, "/data/f", 2);
        let cmds = nn.delete("/data/f", false).unwrap();
        assert_eq!(cmds.len(), 6); // 2 blocks × 3 replicas
        assert!(nn.missing_blocks().is_empty(), "deleted blocks are forgotten entirely");
        assert!(!nn.namespace().exists("/data/f"));
    }

    #[test]
    fn restart_rebuilds_from_journal_and_reenters_safemode() {
        let mut nn = nn(4);
        let ids = populate(&mut nn, "/data/f", 4);
        nn.checkpoint();
        // More activity after the checkpoint, so replay matters.
        nn.create_file(SimTime::ZERO, "/data/g", None, None, "tester").unwrap();
        let (id_g, targets) = nn.add_block(SimTime::ZERO, "/data/g", 10, None).unwrap();
        for t in targets {
            nn.block_received(SimTime::ZERO, t, id_g);
        }
        nn.complete_file("/data/g").unwrap();

        nn.restart(SimTime(0)).unwrap();
        assert!(nn.safemode.is_on());
        assert!(nn.namespace().exists("/data/g"), "post-checkpoint ops replayed");
        assert_eq!(nn.block_census(), (0, 5), "locations forgotten");
        assert!(matches!(nn.mkdirs("/y"), Err(HlError::SafeMode(_))));

        // DataNodes re-register and report; safe mode exits (extension 0).
        let t = SimTime(1);
        for i in 0..4u32 {
            nn.register_datanode(t, NodeId(i), u64::MAX / 2);
        }
        // Rebuild per-node reports from what populate() placed: every node
        // reports all blocks it could hold; over-reporting is fine for the
        // census, invalidations trim later.
        let all: Vec<ReplicaMeta> = ids
            .iter()
            .map(|&b| (b, 64))
            .chain(std::iter::once((id_g, 10)))
            .map(|(b, len)| ReplicaMeta {
                id: b,
                len,
                gen_stamp: nn.block(b).map(|i| i.gen_stamp).unwrap_or(FIRST_GEN_STAMP),
            })
            .collect();
        let mut exited = false;
        for i in 0..4u32 {
            exited |= nn.process_block_report(t, NodeId(i), &all);
        }
        assert!(exited);
        assert!(!nn.safemode.is_on());
        nn.mkdirs("/y").unwrap();
    }

    #[test]
    fn block_report_removes_stale_locations() {
        let mut nn = nn(4);
        let ids = populate(&mut nn, "/data/f", 1);
        let holders = nn.block_locations(ids[0]);
        let holder = holders[0];
        // The holder reports an empty disk (scratch purged).
        nn.process_block_report(SimTime(10), holder, &[]);
        assert!(!nn.block_locations(ids[0]).contains(&holder));
        assert_eq!(nn.block_locations(ids[0]).len(), 2);
    }

    #[test]
    fn no_datanodes_means_insufficient_replication() {
        let config = Configuration::with_defaults();
        let mut nn = NameNode::new(&config, Topology::flat(0)).unwrap();
        nn.safemode.force_leave();
        nn.mkdirs("/d").unwrap();
        nn.create_file(SimTime::ZERO, "/d/f", None, None, "tester").unwrap();
        assert!(matches!(
            nn.add_block(SimTime::ZERO, "/d/f", 64, None),
            Err(HlError::InsufficientReplication { .. })
        ));
    }

    #[test]
    fn metadata_ram_grows_with_namespace() {
        let mut nn = nn(4);
        let before = nn.metadata_ram_bytes();
        populate(&mut nn, "/data/f", 10);
        assert!(nn.metadata_ram_bytes() > before + 10 * 150);
    }

    /// Everything [`NameNode::change_location`] maintains, recounted from
    /// the block map alone and compared with the maintained state.
    fn assert_matches_recount(nn: &NameNode) {
        let (mut reported, mut locations) = (0usize, 0u64);
        let mut held: Vec<Vec<BlockId>> = vec![Vec::new(); nn.nodes.slots.len()];
        let (mut under, mut order, mut over) = (Vec::new(), Vec::new(), BTreeSet::new());
        for (id, b) in nn.blocks.iter() {
            assert!(b.locations.windows(2).all(|w| w[0] < w[1]), "{id}: {:?}", b.locations);
            reported += usize::from(!b.locations.is_empty());
            locations += b.locations.len() as u64;
            for &node in b.locations.iter() {
                held[node.0 as usize].push(id);
            }
            let counted =
                b.locations.iter().filter(|n| !nn.decommissioning.contains(n)).count() as u32;
            if !b.locations.is_empty() && counted + b.pending_replicas < b.expected_replication {
                under.push((id, counted, b.expected_replication));
                let need = (b.expected_replication - counted) as usize;
                let cap = usize::from(crate::blockmap::MAX_REPLICATION_PRIORITY);
                order.push((std::cmp::Reverse(need.min(cap)), id));
            }
            if b.locations.len() as u32 > b.expected_replication {
                over.insert(id);
            }
        }
        assert_eq!((nn.reported_count, nn.total_location_count), (reported, locations));
        let index: Vec<Vec<BlockId>> = nn.nodes.slots.iter().map(|s| s.blocks.clone()).collect();
        let registered: Vec<NodeId> = (0..)
            .map(NodeId)
            .zip(&nn.nodes.slots)
            .filter_map(|(n, slot)| slot.info.as_ref().map(|_| n))
            .collect();
        assert_eq!(nn.nodes.registered, registered, "the registered list is the registered slots");
        assert_eq!(index, held, "the per-node index is the inverse of `locations`");
        assert_eq!(nn.under_replicated(), under);
        // Most-missing first, id order within.
        order.sort();
        let order: Vec<BlockId> = order.into_iter().map(|(_, id)| id).collect();
        assert_eq!(nn.under.priority_order(), order);
        assert_eq!(nn.over, over);
    }

    #[test]
    fn census_counters_match_recount() {
        let mut nn = nn(4);
        populate(&mut nn, "/data/f", 5);
        assert_matches_recount(&nn);
        assert_eq!(nn.block_census(), (5, 5));

        // A node dies: counters track the removals exactly.
        let later = SimTime::ZERO + SimDuration::from_mins(20);
        for i in 1..4 {
            nn.heartbeat(later, NodeId(i), u64::MAX / 2);
        }
        nn.check_heartbeats(later);
        assert_matches_recount(&nn);

        // Deletion forgets blocks and all their locations.
        nn.safemode.force_leave();
        nn.delete("/data/f", false).unwrap();
        assert_matches_recount(&nn);
        assert_eq!(nn.block_census(), (0, 0));
    }

    /// `PROPTEST_CASES` lets CI soak the property below in release mode.
    fn cases(default_cases: u32) -> u32 {
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_cases)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: cases(64),
            ..proptest::ProptestConfig::default()
        })]

        /// Whatever a small cluster does to replica locations — full
        /// reports that are unsorted, repeat an id, carry a stale stamp or
        /// an unknown block; delta reports; receipts into over-replication;
        /// decommissions, `setrep` up and down, deletes, a node death, an
        /// unregistration, monitor passes — after every step the maintained
        /// indexes equal a recount of the block map, and the invalidation
        /// queue holds the garbage replicas in the order they were heard.
        #[test]
        fn every_location_change_keeps_the_indexes_a_recount(
            steps in proptest::collection::vec((0u8..15, 0u32..5, proptest::any::<u64>()), 1..60),
        ) {
            run_location_steps(steps);
        }

        /// A replica set is a sorted set of nodes in either form: drawn
        /// inserts and removals over eight nodes cross the inline bound
        /// both ways, and after every step the set agrees with a
        /// `BTreeSet`, is on the heap exactly when it outgrew the inline
        /// array, and equals the same nodes inserted afresh.
        #[test]
        fn replica_sets_are_sorted_sets_in_either_form(
            steps in proptest::collection::vec((proptest::any::<bool>(), 0u32..8), 1..40),
        ) {
            let (mut set, mut model) = (Replicas::default(), BTreeSet::new());
            for (add, n) in steps {
                let node = NodeId(n);
                let changed = if add { set.insert(node) } else { set.remove(node) };
                let expected = if add { model.insert(node) } else { model.remove(&node) };
                proptest::prop_assert_eq!(changed, expected);
                let want: Vec<NodeId> = model.iter().copied().collect();
                proptest::prop_assert_eq!(&*set, &want[..]);
                let on_heap = matches!(set.0, ReplicaRepr::Heap(_));
                proptest::prop_assert_eq!(on_heap, want.len() > INLINE_REPLICAS);
                let mut afresh = Replicas::default();
                for &n in want.iter().rev() {
                    afresh.insert(n);
                }
                proptest::prop_assert_eq!(&set, &afresh);
            }
        }
    }

    /// `(kind, node, bits)` per step; see the property above.
    fn run_location_steps(steps: Vec<(u8, u32, u64)>) {
        const NODES: u32 = 5;
        let mut nn = nn(NODES as usize);
        populate(&mut nn, "/data/f0", 3);
        populate(&mut nn, "/data/f1", 2);
        let mut files = 2u64;
        let mut t = SimTime::ZERO;
        // The invalidation queue as the steps should have filled it.
        let mut garbage: Vec<(BlockId, NodeId)> = Vec::new();
        for (kind, n, x) in steps {
            t += SimDuration::from_secs(1);
            let node = NodeId(n);
            let ids: Vec<BlockId> = nn.blocks.iter().map(|(id, _)| id).collect();
            let pick = ids.get((x % (ids.len() as u64 + 1)) as usize).copied();
            let path = format!("/data/f{}", x % files);
            let bit = |i: usize| x >> (i % 64) & 1 == 1;
            // The replicas a report lists: known blocks by 16 of `x`'s
            // bits, stale by 16 more, then maybe one unknown block.
            let listed = |from_bit: usize| -> Vec<ReplicaMeta> {
                let known = ids.iter().enumerate().filter(|(i, _)| bit(from_bit + i % 16));
                let unknown =
                    ReplicaMeta { id: BlockId(9000 + (x >> 49 & 3)), len: 1, gen_stamp: 7 };
                known
                    .map(|(i, &id)| {
                        let gen_stamp =
                            nn.blocks.get(id).unwrap().gen_stamp - u64::from(bit(32 + i % 16));
                        ReplicaMeta { id, len: 64, gen_stamp }
                    })
                    .chain(bit(48).then_some(unknown))
                    .collect()
            };
            let is_live = |nn: &NameNode, r: &ReplicaMeta| {
                nn.blocks.get(r.id).is_some_and(|b| r.gen_stamp >= b.gen_stamp)
            };
            let not_live = |nn: &NameNode, report: &[ReplicaMeta]| -> Vec<(BlockId, NodeId)> {
                report.iter().filter(|r| !is_live(nn, r)).map(|r| (r.id, node)).collect()
            };
            match kind {
                0 | 1 => {
                    let mut report = listed(0);
                    if bit(52) {
                        report.extend(report.first().cloned());
                    }
                    if bit(53) {
                        report.reverse();
                    }
                    garbage.extend(not_live(&nn, &report));
                    let mut live: Vec<BlockId> =
                        report.iter().filter(|r| is_live(&nn, r)).map(|r| r.id).collect();
                    live.sort();
                    live.dedup();
                    nn.process_block_report(t, node, &report);
                    let held = nn.nodes.get(node).map(|s| s.blocks.clone()).unwrap_or_default();
                    assert_eq!(held, live, "{report:?}");
                }
                2 => {
                    let received = listed(0);
                    let deleted = listed(16).iter().map(|r| r.id).collect();
                    garbage.extend(not_live(&nn, &received));
                    let delta = IncrementalBlockReport { received, deleted };
                    nn.process_incremental_report(t, node, &delta);
                }
                3 | 4 => {
                    if let Some(id) = pick {
                        nn.block_received(t, node, id);
                        assert!(!nn.over.contains(&id), "{id} trimmed on receipt");
                    }
                }
                5 => nn.start_decommission(node),
                6 => {
                    // A drain aborted: the node counts toward targets again.
                    if nn.decommissioning.remove(&node) {
                        nn.reindex_node(node);
                    }
                }
                7 => drop(nn.set_replication(&path, (x >> 8) as u32 % 4 + 1)),
                8 => drop(nn.delete(&path, false)),
                9 => {
                    // Everyone but `node` heartbeats across the timeout.
                    t += SimDuration::from_mins(20);
                    for other in (0..NODES).filter(|&o| o != n) {
                        nn.heartbeat(t, NodeId(other), u64::MAX / 2);
                    }
                    // (A node that died earlier and only reported since
                    // stays dead and keeps what it reported.)
                    let died = nn.check_heartbeats(t);
                    assert!(died.iter().all(|&dead| dead == node), "{died:?}");
                    let held = nn.nodes.get(node).is_some_and(|s| !s.blocks.is_empty());
                    assert!(died.is_empty() || !held, "a death drops every replica");
                }
                10 => {
                    let order = nn.under.priority_order();
                    let mut expected = std::mem::take(&mut garbage);
                    expected.sort();
                    expected.dedup();
                    let before = nn.clone();
                    let commands = nn.replication_work(t, (x % 8) as usize + 1);
                    // Garbage first, in (block, node) order, whatever the cap.
                    let invalidated: Vec<(BlockId, NodeId)> = commands
                        .iter()
                        .take(expected.len())
                        .filter_map(|c| match c {
                            DnCommand::Invalidate { block, node } => Some((*block, *node)),
                            DnCommand::Replicate { .. } => None,
                        })
                        .collect();
                    assert_eq!(invalidated, expected);
                    // Copies in priority order, holder to non-holder.
                    let mut remaining = order.iter();
                    for c in &commands {
                        if let DnCommand::Replicate { block, from, to } = c {
                            assert!(remaining.any(|id| id == block), "{block} out of order");
                            let holders = &before.blocks.get(*block).unwrap().locations;
                            assert!(holders.contains(from) && !holders.contains(to));
                        }
                    }
                }
                11 => {
                    if nn.eligible_datanodes(NodeId(u32::MAX)) > 0 {
                        populate(&mut nn, &format!("/data/f{files}"), (x % 3) as usize + 1);
                        files += 1;
                    }
                }
                12 => {
                    let file = nn.namespace.file(&path).ok();
                    if let Some(id) = file.and_then(|f| f.blocks.last().copied()) {
                        nn.bump_gen_stamp(t, &path, id).unwrap();
                    }
                }
                13 => {
                    if let Some(id) = pick {
                        nn.replication_failed(id);
                    }
                }
                _ => {
                    nn.unregister_datanode(node);
                    let slot = nn.nodes.get(node).unwrap();
                    assert!(slot.info.is_none() && slot.blocks.is_empty());
                    nn.register_datanode(t, node, u64::MAX / 2);
                }
            }
            assert_matches_recount(&nn);
            assert_eq!(nn.invalidations, garbage);
        }
    }

    /// The node table has a slot per node of the topology and no more: an
    /// id past it neither registers nor holds a location, and what it
    /// reports is queued for invalidation.
    #[test]
    fn a_node_outside_the_topology_holds_nothing() {
        let mut nn = nn(4);
        let ids = populate(&mut nn, "/data/f", 1);
        let stranger = NodeId(4);
        nn.register_datanode(SimTime(1), stranger, u64::MAX / 2);
        nn.heartbeat(SimTime(1), stranger, u64::MAX / 2);
        assert_eq!(nn.live_datanodes(), (0..4).map(NodeId).collect::<Vec<_>>());
        let gen_stamp = nn.block(ids[0]).unwrap().gen_stamp;
        let report = [ReplicaMeta { id: ids[0], len: 64, gen_stamp }];
        nn.process_block_report(SimTime(2), stranger, &report);
        assert!(nn.block_received(SimTime(2), stranger, ids[0]).is_empty());
        assert_eq!(nn.block_locations(ids[0]).len(), 3);
        assert_eq!(nn.invalidations, vec![(ids[0], stranger)]);
        assert_matches_recount(&nn);
    }

    #[test]
    fn incremental_reports_apply_deltas() {
        let mut nn = nn(4);
        let ids = populate(&mut nn, "/data/f", 2);
        let holders = nn.block_locations(ids[0]);
        let gone = holders[0];

        // A deleted delta retracts the location.
        let exited = nn.process_incremental_report(
            SimTime(1),
            gone,
            &IncrementalBlockReport { received: Vec::new(), deleted: vec![ids[0]] },
        );
        assert!(!exited);
        assert!(!nn.block_locations(ids[0]).contains(&gone));
        assert_eq!(nn.under_replicated(), vec![(ids[0], 2, 3)]);

        // The replica comes back via a received delta.
        let gs = nn.block(ids[0]).unwrap().gen_stamp;
        nn.process_incremental_report(
            SimTime(2),
            gone,
            &IncrementalBlockReport {
                received: vec![ReplicaMeta { id: ids[0], len: 64, gen_stamp: gs }],
                deleted: Vec::new(),
            },
        );
        assert!(nn.under_replicated().is_empty());
        assert!(nn.block_locations(ids[0]).contains(&gone));

        // Unknown blocks and stale stamps get queued for invalidation.
        let n1 = nn.block_locations(ids[1])[0];
        let gs1 = nn.block(ids[1]).unwrap().gen_stamp;
        nn.process_incremental_report(
            SimTime(3),
            n1,
            &IncrementalBlockReport {
                received: vec![
                    ReplicaMeta { id: BlockId(999), len: 1, gen_stamp: gs },
                    ReplicaMeta { id: ids[1], len: 64, gen_stamp: gs1 - 1 },
                ],
                deleted: Vec::new(),
            },
        );
        assert!(!nn.block_locations(ids[1]).contains(&n1), "stale replica dropped");
        let work = nn.replication_work(SimTime(3), 100);
        assert!(work.contains(&DnCommand::Invalidate { block: BlockId(999), node: n1 }));
        assert!(work.contains(&DnCommand::Invalidate { block: ids[1], node: n1 }));
    }

    #[test]
    fn replication_queue_prioritizes_most_missing() {
        let mut nn = nn(6);
        nn.mkdirs("/data").unwrap();
        let make = |nn: &mut NameNode, path: &str| {
            nn.create_file(SimTime::ZERO, path, None, None, "tester").unwrap();
            let (id, targets) = nn.add_block(SimTime::ZERO, path, 64, None).unwrap();
            for &t in &targets {
                nn.block_received(SimTime::ZERO, t, id);
            }
            nn.complete_file(path).unwrap();
            (id, targets)
        };
        let (a, ta) = make(&mut nn, "/data/a");
        let (b, tb) = make(&mut nn, "/data/b");
        // Block a loses two replicas, block b loses one.
        report_without(&mut nn, ta[0], a);
        report_without(&mut nn, ta[1], a);
        report_without(&mut nn, tb[0], b);
        assert_eq!(nn.block_locations(a).len(), 1);
        assert_eq!(nn.block_locations(b).len(), 2);
        // With room for a single task, the most-missing block goes first.
        let work = nn.replication_work(SimTime(1), 1);
        assert_eq!(work.len(), 1);
        match &work[0] {
            DnCommand::Replicate { block, .. } => {
                assert_eq!(*block, a, "most-missing block is served first");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn journal_auto_checkpoints_at_threshold() {
        let mut config = Configuration::with_defaults();
        config.set(keys::DFS_SAFEMODE_EXTENSION_SECS, 0);
        config.set(keys::DFS_CHECKPOINT_OPS, 4u64);
        let mut nn = NameNode::new(&config, Topology::flat(4)).unwrap();
        for i in 0..4u32 {
            nn.register_datanode(SimTime::ZERO, NodeId(i), u64::MAX / 2);
        }
        nn.safemode.update(SimTime::ZERO, 0, 0);
        for i in 0..10 {
            nn.mkdirs(&format!("/d{i}")).unwrap();
        }
        assert!(nn.editlog.len() < 4, "auto-checkpoint keeps the journal tail bounded");
        // The image + tail reproduce everything across a restart.
        nn.restart(SimTime(1)).unwrap();
        for i in 0..10 {
            assert!(nn.namespace().exists(&format!("/d{i}")));
        }
    }

    #[test]
    fn restart_rebuilds_leases_for_open_files() {
        let mut nn = nn(4);
        nn.mkdirs("/data").unwrap();
        // One file open since before the checkpoint (holder rides the
        // image), one opened after (holder rides the journal tail).
        nn.create_file(SimTime::ZERO, "/data/old", None, None, "writer-img").unwrap();
        let (id, targets) = nn.add_block(SimTime::ZERO, "/data/old", 64, None).unwrap();
        for t in targets {
            nn.block_received(SimTime::ZERO, t, id);
        }
        nn.checkpoint();
        nn.create_file(SimTime(2), "/data/new", None, None, "writer-tail").unwrap();

        nn.restart(SimTime(5)).unwrap();
        let old = nn.lease("/data/old").expect("open file regains its lease");
        assert_eq!(old.holder, "writer-img");
        assert_eq!(old.renewed_at, SimTime(5), "lease clock restarts at recovery time");
        let new = nn.lease("/data/new").expect("tail-created file regains its lease");
        assert_eq!(new.holder, "writer-tail");
        assert!(nn.lease("/data/f").is_none());
    }

    #[test]
    fn directory_rename_carries_open_file_leases_across_restart() {
        let mut nn = nn(4);
        nn.mkdirs("/a").unwrap();
        nn.create_file(SimTime::ZERO, "/a/f", None, None, "writer").unwrap();
        nn.rename("/a", "/b").unwrap();
        let check = |nn: &NameNode| {
            assert_eq!(nn.lease("/b/f").map(|l| l.holder.as_str()), Some("writer"));
            assert!(nn.lease("/a/f").is_none());
        };
        check(&nn);
        nn.restart(SimTime(1)).unwrap();
        check(&nn);
    }

    /// A short life whose image holds an open file, a bumped stamp, a
    /// codec flag and a lease, and whose journal tail holds all ten op
    /// kinds.
    fn busy_life(nn: &mut NameNode) {
        let t = SimTime(1);
        let confirmed_block = |nn: &mut NameNode, path: &str| {
            let (id, targets) = nn.add_block(t, path, 64, None).unwrap();
            for node in targets {
                nn.block_received(t, node, id);
            }
            id
        };
        nn.mkdirs("/img").unwrap();
        nn.create_file(t, "/img/open", Some(2), None, "writer-img").unwrap();
        let id = confirmed_block(nn, "/img/open");
        nn.bump_gen_stamp(t, "/img/open", id).unwrap();
        nn.create_file(t, "/img/packed", None, None, "packer").unwrap();
        nn.complete_file("/img/packed").unwrap();
        nn.set_file_codec("/img/packed", hl_codec::CodecId::Hlz).unwrap();
        nn.checkpoint();

        nn.mkdirs("/tail/dir").unwrap();
        nn.create_file(t, "/tail/dir/f", None, None, "writer-tail").unwrap();
        let id = confirmed_block(nn, "/tail/dir/f");
        nn.add_block(t, "/tail/dir/f", 10, None).unwrap();
        nn.bump_gen_stamp(t, "/tail/dir/f", id).unwrap();
        nn.set_replication("/tail/dir/f", 2).unwrap();
        nn.rename("/tail/dir", "/tail/moved").unwrap();
        // Lease recovery abandons the unconfirmed block and closes.
        assert!(!nn.recover_lease("/tail/moved/f").unwrap());
        assert_eq!(nn.check_leases(t), vec!["/tail/moved/f".to_string()]);
        nn.set_file_codec("/tail/moved/f", hl_codec::CodecId::Hlz).unwrap();
        nn.create_file(t, "/tail/still-open", None, None, "writer-open").unwrap();
        nn.create_file(t, "/tail/gone", None, None, "writer-gone").unwrap();
        nn.delete("/tail/gone", false).unwrap();
        let kinds: BTreeSet<u8> = nn.editlog.ops().map(|op| op.unwrap().tag()).collect();
        assert_eq!(kinds.len(), 10, "the tail must hold every op kind");
    }

    /// Everything a restart must recover.
    fn durable(nn: &NameNode) -> impl PartialEq + std::fmt::Debug {
        (
            nn.namespace.clone(),
            nn.block_manifest(),
            nn.leases.leases().map(|l| (l.path.clone(), l.holder.clone())).collect::<Vec<_>>(),
            nn.next_block_id,
            nn.next_gen_stamp,
        )
    }

    /// A NameNode that was never told anything, handed `image` and
    /// `journal` the way a secondary's copies would be.
    fn from_durable_bytes(image: &[u8], journal: EditLog) -> NameNode {
        let mut fresh = NameNode::new(&Configuration::with_defaults(), Topology::flat(4)).unwrap();
        fresh.fsimage = image.to_vec();
        fresh.editlog = journal;
        fresh
    }

    #[test]
    fn restart_is_a_pure_function_of_image_and_journal() {
        let mut nn = nn(4);
        busy_life(&mut nn);
        let before = durable(&nn);
        let journal = EditLog::deserialize(&nn.editlog.serialize()).unwrap();
        let mut rebuilt = from_durable_bytes(nn.fsimage_bytes(), journal);

        nn.restart(SimTime(9)).unwrap();
        assert_eq!(durable(&nn), before);
        assert_eq!(nn.block_census(), (0, nn.blocks.len()), "locations are not durable");
        rebuilt.restart(SimTime(9)).unwrap();
        assert_eq!(durable(&rebuilt), before);
        assert_eq!(rebuilt.open_files(), nn.open_files());
    }

    #[test]
    fn journaled_numbers_at_the_u64_ceiling_are_codec_errors() {
        let mut nn = nn(4);
        nn.mkdirs("/d").unwrap();
        nn.create_file(SimTime::ZERO, "/d/f", None, None, "w").unwrap();
        let (id, _) = nn.add_block(SimTime::ZERO, "/d/f", 1, None).unwrap();
        for op in [
            EditOp::AddBlock { path: "/d/f", block: BlockId(u64::MAX), len: 1, gen_stamp: 7 },
            EditOp::AddBlock { path: "/d/f", block: BlockId(9), len: 1, gen_stamp: u64::MAX },
            EditOp::BumpGenStamp { block: id, gen_stamp: u64::MAX },
            EditOp::AddBlock { path: "/d/f", block: BlockId(9), len: u64::MAX, gen_stamp: 7 },
        ] {
            let mut crashed = nn.clone();
            crashed.editlog.append(&op);
            // The journal itself is decodable; the overflow is in the replay.
            let journal = EditLog::deserialize(&crashed.editlog.serialize()).unwrap();
            assert!(matches!(journal.replay(&mut Namespace::new()), Err(HlError::Codec(_))));
            assert!(matches!(crashed.restart(SimTime(1)), Err(HlError::Codec(_))));
        }
    }

    /// A stored block id indexes the block table, so every one is checked
    /// before it lands there: image records strictly ascending and below
    /// the image's next id, a journaled `AddBlock` for an id the table does
    /// not hold yet. Each breach is a codec error that leaves the NameNode
    /// down, never an overwritten entry.
    #[test]
    fn stored_block_ids_that_would_overwrite_an_entry_are_codec_errors() {
        let mut nn = nn(4);
        nn.mkdirs("/d").unwrap();
        nn.create_file(SimTime::ZERO, "/d/f", None, None, "w").unwrap();
        let ids: Vec<BlockId> =
            (0..3).map(|_| nn.add_block(SimTime::ZERO, "/d/f", 1, None).unwrap().0).collect();
        nn.checkpoint();
        let image = FsImage::from_bytes(nn.fsimage_bytes()).unwrap();
        assert_eq!(image.blocks.iter().map(|r| r.id).collect::<Vec<_>>(), ids);

        let bad_images = [
            // Out of order, and a repeated id.
            FsImage {
                blocks: vec![image.blocks[1], image.blocks[0], image.blocks[2]],
                ..image.clone()
            },
            FsImage {
                blocks: vec![image.blocks[0], image.blocks[0], image.blocks[2]],
                ..image.clone()
            },
            // The last record reaches the mark it was written beside.
            FsImage { next_block_id: ids[2].0, ..image.clone() },
        ];
        for bad in bad_images {
            let mut victim = from_durable_bytes(&bad.to_bytes(), EditLog::new());
            assert!(matches!(victim.restart(SimTime(1)), Err(HlError::Codec(_))), "{bad:?}");
            assert!(victim.down && victim.blocks.len() == 0);
        }

        // The image's own bytes load; a journal that adds one of its ids
        // again, or the same new id twice, does not.
        let again = EditOp::AddBlock { path: "/d/f", block: ids[1], len: 1, gen_stamp: 7 };
        let fresh = BlockId(ids[2].0 + 1);
        let twice = EditOp::AddBlock { path: "/d/f", block: fresh, len: 1, gen_stamp: 7 };
        for ops in [vec![&again], vec![&twice, &twice]] {
            let mut journal = EditLog::new();
            for op in ops {
                journal.append(op);
            }
            let mut victim = from_durable_bytes(nn.fsimage_bytes(), journal);
            assert!(matches!(victim.restart(SimTime(1)), Err(HlError::Codec(_))));
            assert!(victim.down && victim.blocks.len() == 0);
        }
        let mut intact = from_durable_bytes(nn.fsimage_bytes(), EditLog::new());
        intact.restart(SimTime(1)).unwrap();
        assert_eq!(intact.block_manifest(), nn.block_manifest());
    }

    /// ROADMAP 7(a)/(b), first slice: every truncation and every single-bit
    /// flip of a small populated image and journal goes through the
    /// decoders and `restart`. `Ok` or `HlError`, never a panic, and an
    /// `Err` leaves the NameNode down and empty.
    #[test]
    fn corrupt_durable_bytes_never_panic_and_never_half_load() {
        fn corruptions(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
            let truncations = (0..bytes.len()).map(|n| bytes[..n].to_vec());
            let flips = (0..bytes.len() * 8).map(|bit| {
                let mut flipped = bytes.to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                flipped
            });
            truncations.chain(flips)
        }
        let mut nn = nn(4);
        busy_life(&mut nn);
        let (image, journal) = (nn.fsimage_bytes().to_vec(), nn.editlog.serialize());

        // Counts (came up, stayed down) over every victim.
        let mut outcomes = (0, 0);
        let mut restart = |mut victim: NameNode| match victim.restart(SimTime(9)) {
            Ok(()) => {
                outcomes.0 += 1;
                assert!(!victim.down && victim.safemode.is_on());
            }
            Err(_) => {
                outcomes.1 += 1;
                assert!(victim.down);
                assert_eq!(victim.namespace, Namespace::new());
                assert!(victim.blocks.len() == 0 && victim.leases.len() == 0);
                assert!(matches!(victim.mkdirs("/x"), Err(HlError::DaemonDown(_))));
            }
        };
        for bad in corruptions(&image) {
            // Decodes or not, it must not panic; `restart` decodes it again.
            let _ = FsImage::from_bytes(&bad);
            restart(from_durable_bytes(&bad, nn.editlog.clone()));
        }
        for bad in corruptions(&journal) {
            if let Ok(log) = EditLog::deserialize(&bad) {
                restart(from_durable_bytes(&image, log));
            }
        }
        let (came_up, stayed_down) = outcomes;
        // Both outcomes occur: a flipped length or timestamp still loads,
        // a flipped tag or a cut-off record does not.
        assert!(came_up > 0 && stayed_down > 0, "{came_up} up, {stayed_down} down");
    }
}

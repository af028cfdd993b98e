//! The `Dfs` facade: a whole HDFS instance plus its client operations.
//!
//! Owns the [`NameNode`] and every [`DataNode`], and implements the
//! user-visible data path with virtual-time charging against the cluster's
//! [`ClusterNet`]:
//!
//! * **pipeline writes** — client → DN1 → DN2 → DN3, store-and-forward,
//!   each replica hitting its node's disk (the write path students observe
//!   when staging the Airline data);
//! * **locality-aware reads** — closest replica first, checksum-verified,
//!   falling back across replicas on corruption;
//! * **`copyFromLocal` / `copyToLocal`** — the commands assignment 2 has
//!   students place around their MapReduce invocations;
//! * the **daemon protocol** — heartbeats, block reports, replication
//!   commands — a round per heartbeat interval, run by [`Dfs::advance_to`];
//! * **restart drills** — the fifteen-minute integrity-check story.

use std::collections::BTreeMap;

use bytes::Bytes;

use hl_cluster::network::ClusterNet;
use hl_cluster::node::{ClusterSpec, PerfProfile};
use hl_codec::CodecId;
use hl_common::pool::Pool;
use hl_common::prelude::*;
use hl_metrics::{MetricsRegistry, MetricsSnapshot};

use crate::block::{
    real_payloads, split_into_blocks, split_synthetic, BlockId, BlockPayload, FIRST_GEN_STAMP,
};
use crate::datanode::DataNode;
use crate::namenode::{DnCommand, NameNode};
use crate::placement::order_for_read;

/// A fault armed against the *next* pipeline write (chaos injection).
///
/// Store indices count replica stores across the whole write, in pipeline
/// order: block 0 targets first, then block 1's, and so on — so a plan's
/// `(fault, index)` pair deterministically names one replica transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineFault {
    /// The DataNode receiving store number `after_stores` crashes right
    /// after the bytes hit its disk: the client recovers the pipeline and
    /// a stale-genstamp replica is left on the dead node's disk.
    KillTarget {
        /// Zero-based index of the replica store that triggers the crash.
        after_stores: u32,
    },
    /// Store number `after_stores` succeeds but its ack never arrives
    /// within the write timeout: the client excludes the (perfectly live)
    /// DataNode, leaving a stale replica the next block report catches.
    SlowAck {
        /// Zero-based index of the replica store whose ack goes missing.
        after_stores: u32,
    },
    /// The writing client itself dies after `after_blocks` complete
    /// blocks: the file stays open until lease recovery finalizes it.
    CrashWriter {
        /// Number of blocks fully pipelined before the writer dies.
        after_blocks: u32,
    },
}

/// Per-client dead-node tracking with exponential backoff.
///
/// A node that fails a read gets banned for `base × 2^(strikes-1)` plus a
/// deterministic seeded jitter (FNV-1a of seed/node/strikes — no wall
/// clock, no global RNG), so readers route around sick DataNodes instead
/// of hammering them, and retry probes spread out instead of thundering.
#[derive(Debug, Clone)]
struct DeadNodes {
    entries: BTreeMap<NodeId, (u32, SimTime)>,
    base: SimDuration,
    seed: u64,
}

impl DeadNodes {
    fn new(seed: u64) -> Self {
        DeadNodes { entries: BTreeMap::new(), base: SimDuration::from_secs(30), seed }
    }

    fn is_banned(&self, now: SimTime, node: NodeId) -> bool {
        self.entries.get(&node).map(|&(_, until)| now < until).unwrap_or(false)
    }

    fn record_failure(&mut self, now: SimTime, node: NodeId) {
        let (strikes, until) = self.entries.entry(node).or_insert((0, SimTime::ZERO));
        *strikes = strikes.saturating_add(1);
        let exp = (*strikes - 1).min(6);
        let backoff = self.base * (1u64 << exp);
        let mut key = [0u8; 24];
        key[..8].copy_from_slice(&self.seed.to_le_bytes());
        key[8..16].copy_from_slice(&u64::from(node.0).to_le_bytes());
        key[16..].copy_from_slice(&u64::from(*strikes).to_le_bytes());
        let jitter = SimDuration::from_micros(fnv1a(&key) % self.base.as_micros().max(1));
        *until = now + backoff + jitter;
    }

    fn record_success(&mut self, node: NodeId) {
        self.entries.remove(&node);
    }
}

/// Frames per unit of pooled work in [`Dfs::put_compressed`] and
/// [`Dfs::read`]: 1 MiB of raw bytes, a few milliseconds of encoding or
/// one or two of decoding, so a worker's 32 KiB matcher table and its
/// thread's start are small beside it and the last group leaves little of
/// the file to one core.
const GROUP_FRAMES: usize = 16;

/// Completion times of one pipelined block write.
struct BlockFinish {
    /// When the slowest surviving replica finished ingesting.
    finish: SimTime,
    /// When the first replica finished (the client can stream on).
    first_hop_done: SimTime,
}

/// A value plus the virtual time its production completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timed<T> {
    /// The result.
    pub value: T,
    /// When the operation finished on the virtual clock.
    pub completed_at: SimTime,
}

/// Block metadata for input-split construction: `(block, len, holders)`.
pub type LocatedBlock = (BlockId, u64, Vec<NodeId>);

/// An HDFS instance: NameNode + DataNodes + client entry points.
#[derive(Debug, Clone)]
pub struct Dfs {
    /// The NameNode.
    pub namenode: NameNode,
    datanodes: BTreeMap<NodeId, DataNode>,
    disk_bw: u64,
    /// Chaos hook: a fault armed against the next pipeline write.
    armed_fault: Option<PipelineFault>,
    /// Client-side read failover state (banned DataNodes + backoff).
    dead_nodes: DeadNodes,
    /// Instruments for the "dfs.client" and "datanode.*" daemons
    /// (per-node I/O bytes, pipeline recoveries, read failovers).
    pub metrics: MetricsRegistry,
    /// Host threads for the part of a write or a read that is a function
    /// of its bytes alone (block checksums, frame compression and decode,
    /// the copy into a read's buffer): this host's, unless a test forced a
    /// worker count.
    pool: Pool,
    /// The next protocol round: a multiple of the heartbeat interval.
    next_round: SimTime,
}

impl Dfs {
    /// Format a fresh DFS across every node of `spec` (each node runs a
    /// DataNode using the node's local disk). Safe mode exits immediately:
    /// a just-formatted namespace has no blocks to wait for.
    pub fn format(config: &Configuration, spec: &ClusterSpec) -> Result<Self> {
        let mut namenode = NameNode::new(config, spec.topology.clone())?;
        let mut datanodes = BTreeMap::new();
        for node in spec.topology.nodes() {
            let dn = DataNode::new(node, spec.node.disk_bytes);
            namenode.register_datanode(SimTime::ZERO, node, dn.free_bytes());
            datanodes.insert(node, dn);
        }
        namenode.safemode.force_leave();
        Ok(Dfs {
            namenode,
            datanodes,
            disk_bw: spec.node.disk_bw,
            armed_fault: None,
            dead_nodes: DeadNodes::new(0x4446_5343), // "DFSC"
            metrics: MetricsRegistry::new(),
            pool: Pool::host(),
            next_round: SimTime::ZERO,
        })
    }

    /// Test seam: checksum, compress and decode every write and read on
    /// `workers` host threads whatever this host has and however small the
    /// file (1 = on the caller's). No byte and no simulated quantity may
    /// depend on it; `tests/host_pool.rs` holds the client to that.
    #[doc(hidden)]
    pub fn force_host_workers(&mut self, workers: usize) {
        self.pool = Pool::forced(workers);
    }

    /// Arm a fault against the next pipeline write (chaos injection).
    /// One-shot: the write consumes it whether or not it fires.
    pub fn arm_pipeline_fault(&mut self, fault: PipelineFault) {
        self.armed_fault = Some(fault);
    }

    /// Reseed the client's dead-node jitter stream (chaos determinism:
    /// each seeded run gets its own, reproducible, backoff spread).
    pub fn set_client_seed(&mut self, seed: u64) {
        self.dead_nodes = DeadNodes::new(seed);
    }

    /// Access a DataNode (tests, fault injection).
    pub fn datanode(&self, node: NodeId) -> Option<&DataNode> {
        self.datanodes.get(&node)
    }

    /// Mutable DataNode access (fault injection).
    pub fn datanode_mut(&mut self, node: NodeId) -> Option<&mut DataNode> {
        self.datanodes.get_mut(&node)
    }

    /// All DataNode ids.
    pub fn datanode_ids(&self) -> Vec<NodeId> {
        self.datanodes.keys().copied().collect()
    }

    // ------------------------------------------------------------- writes

    fn write_payloads(
        &mut self,
        net: &mut ClusterNet,
        now: SimTime,
        path: &str,
        payloads: Vec<BlockPayload>,
        writer: Option<NodeId>,
        replication: Option<u32>,
    ) -> Result<Timed<()>> {
        // One client write is one op: each block streams at the previous
        // block's first-hop instant, and those are its later hops.
        net.op(now, |net| self.write_file(net, now, path, payloads, writer, replication))
    }

    fn write_file(
        &mut self,
        net: &mut ClusterNet,
        now: SimTime,
        path: &str,
        payloads: Vec<BlockPayload>,
        writer: Option<NodeId>,
        replication: Option<u32>,
    ) -> Result<Timed<()>> {
        // The lease holder: one writer identity per client write, named by
        // the writing node (an off-cluster upload writes as the client).
        let holder = match writer {
            Some(n) => format!("DFSClient_{n}"),
            None => "DFSClient_gateway".to_string(),
        };
        let fault = self.armed_fault.take();
        self.namenode.create_file(now, path, replication, None, &holder)?;
        let mut t = now;
        let mut file_done = now;
        let mut stores_done: u32 = 0;
        for (blocks_done, payload) in (0u32..).zip(payloads) {
            let len = payload.len();
            let (id, targets) = match self.namenode.add_block(t, path, len, writer) {
                Ok(ok) => ok,
                Err(e) => {
                    // Abandon the half-written file like a failed DFSClient.
                    let _ = self.namenode.delete(path, false);
                    return Err(e);
                }
            };
            // A crashed writer vanishes after allocating its next block but
            // before any DataNode confirms it: the file stays open under
            // its lease, trailing an unconfirmed block, until the
            // NameNode's lease recovery abandons the tail and closes the
            // file at the last consistent length.
            if let Some(PipelineFault::CrashWriter { after_blocks }) = fault {
                if blocks_done >= after_blocks {
                    return Err(HlError::DaemonDown(format!(
                        "writer of {path} crashed after {blocks_done} block(s)"
                    )));
                }
            }
            let finish = self.write_block_pipeline(
                net,
                t,
                path,
                id,
                targets,
                &payload,
                writer,
                fault,
                &mut stores_done,
            )?;
            // The client streams the next block as soon as the *first*
            // replica has ingested this one; downstream replication trails
            // in the background (its pipes still queue FIFO).
            t = finish.first_hop_done.max(t);
            file_done = finish.finish.max(file_done);
        }
        self.namenode.complete_file(path)?;
        Ok(Timed { value: (), completed_at: file_done })
    }

    /// Pipeline one block through its targets with recovery: a target that
    /// dies (or whose ack never arrives) is excluded, the block's
    /// generation stamp is bumped on the NameNode and on every surviving
    /// replica, and the write continues with the remaining pipeline —
    /// HDFS 1.x pipeline recovery. Only losing *every* target fails the
    /// block (and the write).
    #[allow(clippy::too_many_arguments)]
    fn write_block_pipeline(
        &mut self,
        net: &mut ClusterNet,
        t: SimTime,
        path: &str,
        id: BlockId,
        targets: Vec<NodeId>,
        payload: &BlockPayload,
        writer: Option<NodeId>,
        fault: Option<PipelineFault>,
        stores_done: &mut u32,
    ) -> Result<BlockFinish> {
        let len = payload.len();
        let mut gen_stamp = self.namenode.block(id).map(|b| b.gen_stamp).unwrap_or(FIRST_GEN_STAMP);
        // Pipeline write. HDFS streams 64 KB packets down the chain, so
        // the hops overlap almost completely: we charge every hop's
        // resource starting at the block's start time (FIFO queueing at
        // each pipe still serializes competing writers) and the block
        // completes when the slowest hop does. `writer = None` models
        // an off-cluster upload whose ingress link is not the
        // bottleneck (the login node's connection to the cluster
        // fabric), so the first hop is disk-only.
        let mut prev: Option<NodeId> = writer;
        let mut finish = t;
        let mut first_hop_done: Option<SimTime> = None;
        let mut survivors: Vec<NodeId> = Vec::new();
        let mut queue: std::collections::VecDeque<NodeId> = targets.into_iter().collect();
        while let Some(target) = queue.pop_front() {
            let net_done = match prev {
                Some(src) => net.transfer(t, src, target, len).end,
                None => t,
            };
            let disk_done = net.write_local_disk(t, target, len).end.max(net_done);
            let store_index = *stores_done;
            *stores_done += 1;
            // What happens to this replica store?
            let injected = match fault {
                Some(PipelineFault::KillTarget { after_stores }) if after_stores == store_index => {
                    // Bytes hit the disk, then the daemon dies: a stale
                    // replica is left behind for block reports to catch.
                    let _ = self.store_replica_stamped(target, id, payload.clone(), gen_stamp);
                    self.crash_datanode(target);
                    Some("killed")
                }
                Some(PipelineFault::SlowAck { after_stores }) if after_stores == store_index => {
                    // The store succeeds but its ack times out: the client
                    // must treat the (live) node as lost to this pipeline.
                    let _ = self.store_replica_stamped(target, id, payload.clone(), gen_stamp);
                    Some("ack timed out")
                }
                _ => None,
            };
            let stored = match injected {
                Some(_) => false,
                None => self.store_replica_stamped(target, id, payload.clone(), gen_stamp).is_ok(),
            };
            if stored {
                self.namenode.block_received(disk_done, target, id);
                survivors.push(target);
                prev = Some(target);
                finish = finish.max(disk_done);
                first_hop_done.get_or_insert(disk_done);
                continue;
            }
            // Pipeline recovery: exclude the failed target, bump the
            // generation stamp (journaled), and re-stamp the survivors so
            // the failed node's replica is the stale one.
            if queue.is_empty() && survivors.is_empty() {
                return Err(HlError::DaemonDown(format!(
                    "pipeline for {path} block {id} lost every target"
                )));
            }
            gen_stamp = self.namenode.bump_gen_stamp(t, path, id)?;
            self.metrics.incr("dfs.client", "pipeline.recoveries", 1);
            let mut lost_survivors = Vec::new();
            for &node in &survivors {
                let ok = self
                    .datanodes
                    .get_mut(&node)
                    .map(|dn| dn.update_gen_stamp(id, gen_stamp))
                    .unwrap_or(false);
                if !ok {
                    lost_survivors.push(node);
                }
            }
            survivors.retain(|n| !lost_survivors.contains(n));
            if queue.is_empty() && survivors.is_empty() {
                return Err(HlError::DaemonDown(format!(
                    "pipeline for {path} block {id} lost every target"
                )));
            }
        }
        if survivors.is_empty() {
            return Err(HlError::DaemonDown(format!(
                "pipeline for {path} block {id} lost every target"
            )));
        }
        Ok(BlockFinish { finish, first_hop_done: first_hop_done.unwrap_or(t) })
    }

    fn store_replica_stamped(
        &mut self,
        node: NodeId,
        id: BlockId,
        payload: BlockPayload,
        gen_stamp: u64,
    ) -> Result<()> {
        let len = payload.len();
        let dn = self
            .datanodes
            .get_mut(&node)
            .ok_or_else(|| HlError::DaemonDown(format!("datanode/{node}")))?;
        dn.store_block_stamped(id, payload, gen_stamp)?;
        let daemon = format!("datanode.{node}");
        self.metrics.incr(&daemon, "bytes.written", len);
        self.metrics.incr(&daemon, "blocks.written", 1);
        let free = dn.free_bytes();
        // Keep the NameNode's view of free space current.
        self.namenode.update_free_space(node, free);
        Ok(())
    }

    /// `hadoop fs -copyFromLocal`: write real bytes to a new file.
    pub fn put(
        &mut self,
        net: &mut ClusterNet,
        now: SimTime,
        path: &str,
        data: &[u8],
        writer: Option<NodeId>,
    ) -> Result<Timed<()>> {
        let block_size = self.namenode.default_block_size();
        let payloads = split_into_blocks(data, block_size, &self.pool);
        self.write_payloads(net, now, path, payloads, writer, None)
    }

    /// Stage a *synthetic* file of `len` bytes: full metadata, replication,
    /// and time accounting with no physical bytes (the 171 GB experiments).
    pub fn put_synthetic(
        &mut self,
        net: &mut ClusterNet,
        now: SimTime,
        path: &str,
        len: u64,
        writer: Option<NodeId>,
    ) -> Result<Timed<()>> {
        let block_size = self.namenode.default_block_size();
        let payloads = split_synthetic(len, block_size);
        self.write_payloads(net, now, path, payloads, writer, None)
    }

    /// Write with an explicit replication factor.
    pub fn put_with_replication(
        &mut self,
        net: &mut ClusterNet,
        now: SimTime,
        path: &str,
        data: &[u8],
        writer: Option<NodeId>,
        replication: u32,
    ) -> Result<Timed<()>> {
        let block_size = self.namenode.default_block_size();
        let payloads = split_into_blocks(data, block_size, &self.pool);
        self.write_payloads(net, now, path, payloads, writer, Some(replication))
    }

    /// Write `data` codec-framed: compress into `hl-codec` frames, pack
    /// *whole* frames into each block (cutting a block early rather than
    /// letting a frame straddle), pipeline the stored bytes, and journal
    /// the per-file codec flag. Because no frame crosses a block boundary,
    /// every block boundary is a sync-marker boundary — one `InputSplit`
    /// per block decodes independently, preserving locality.
    ///
    /// The DES charges the compression CPU on the writer (scaled by its
    /// [`PerfProfile`]) before the first byte enters the pipeline, and the
    /// pipeline/disk then move only the *stored* bytes — the CPU-vs-I/O
    /// tradeoff the codec exists to teach.
    ///
    /// On the host a frame is a function of its chunk alone, so runs of
    /// [`GROUP_FRAMES`] chunks are encoded on the pool when it pays for the
    /// write; cutting the finished frames into blocks stays here, in file
    /// order, so the stored bytes are those of one encoder going through
    /// the file front to back. Each block's copy and checksums go on the
    /// pool too ([`real_payloads`](crate::block::real_payloads)).
    pub fn put_compressed(
        &mut self,
        net: &mut ClusterNet,
        now: SimTime,
        path: &str,
        data: &[u8],
        writer: Option<NodeId>,
        codec: CodecId,
    ) -> Result<Timed<()>> {
        if codec == CodecId::Null {
            return self.put(net, now, path, data, writer);
        }
        let block_size = self.namenode.default_block_size();
        let groups: Vec<&[u8]> = data.chunks(GROUP_FRAMES * hl_codec::FRAME_RAW_CHUNK).collect();
        // Per group: its frames back to back, and where each one ends.
        let encoded = self.pool.map_indexed(groups.len(), data.len() as u64, |g| {
            let mut encoder = hl_codec::FrameEncoder::new(codec);
            let mut frames = Vec::with_capacity(groups[g].len() / 2);
            let mut ends = Vec::with_capacity(GROUP_FRAMES);
            for chunk in groups[g].chunks(hl_codec::FRAME_RAW_CHUNK) {
                encoder.encode_frame_into(chunk, &mut frames);
                ends.push(frames.len());
            }
            (frames, ends)
        });
        // Whole frames fill a block; the one that would overflow it opens
        // the next block instead.
        let mut blocks: Vec<Vec<&[u8]>> = Vec::new();
        let (mut current, mut current_len) = (Vec::new(), 0);
        for (frames, ends) in &encoded {
            let mut frame_at = 0;
            for &end in ends {
                let frame = &frames[frame_at..end];
                if current_len > 0 && (current_len + frame.len()) as u64 > block_size {
                    blocks.push(std::mem::take(&mut current));
                    current_len = 0;
                }
                current.push(frame);
                current_len += frame.len();
                frame_at = end;
            }
        }
        if current_len > 0 {
            blocks.push(current);
        }
        let payloads = real_payloads(&blocks, &self.pool);
        // The frames are in the blocks now: free them before the write.
        drop(blocks);
        drop(encoded);
        let stored: u64 = payloads.iter().map(|p| p.len()).sum();
        let mut cost =
            SimDuration::for_transfer(data.len() as u64, hl_codec::COMPRESS_BYTES_PER_SEC);
        if let Some(w) = writer {
            cost = PerfProfile::scale_dur(cost, net.node_profile(w, now).cpu_mult);
        }
        self.record_codec_write(data.len() as u64, stored);
        let done = self.write_payloads(net, now + cost, path, payloads, writer, None)?;
        self.namenode.set_file_codec(path, codec)?;
        Ok(done)
    }

    /// The codec a file was stored with ([`CodecId::Null`] = plain bytes).
    pub fn file_codec(&self, path: &str) -> Result<CodecId> {
        Ok(self.namenode.namespace().file(path)?.codec)
    }

    /// Count a compressed write into the `dfs.client` codec instruments:
    /// logical bytes in, stored bytes out, and the running ratio gauge in
    /// basis points (10_000 = stored as many bytes as it was given).
    fn record_codec_write(&mut self, raw: u64, stored: u64) {
        self.metrics.incr("dfs.client", "codec.in_bytes", raw);
        self.metrics.incr("dfs.client", "codec.out_bytes", stored);
        if let Some(q) = stored.saturating_mul(10_000).checked_div(raw) {
            let bp = i64::try_from(q).unwrap_or(i64::MAX);
            self.metrics.set_gauge("dfs.client", "codec.ratio", bp);
        }
    }

    // -------------------------------------------------------------- reads

    /// Read one block from the best live replica, charging disk + network.
    /// Falls back across replicas on checksum corruption (reporting the
    /// bad replica to the NameNode, like a real DFSClient).
    pub fn read_block(
        &mut self,
        net: &mut ClusterNet,
        now: SimTime,
        id: BlockId,
        reader: Option<NodeId>,
        path_for_errors: &str,
    ) -> Result<Timed<Bytes>> {
        // A read that fails over is one op: each retry is a later hop.
        net.op(now, |net| self.read_block_op(net, now, id, reader, path_for_errors))
    }

    fn read_block_op(
        &mut self,
        net: &mut ClusterNet,
        now: SimTime,
        id: BlockId,
        reader: Option<NodeId>,
        path_for_errors: &str,
    ) -> Result<Timed<Bytes>> {
        let holders = self.namenode.block_locations(id);
        let ordered = order_for_read(net.topology(), reader, &holders);
        // Failover ordering: banned (recently sick) nodes sink to the back
        // of the preference list rather than being skipped outright — if
        // every replica is banned, the least-recently-struck one still gets
        // probed instead of failing a readable block.
        let (healthy, banned): (Vec<NodeId>, Vec<NodeId>) =
            ordered.into_iter().partition(|h| !self.dead_nodes.is_banned(now, *h));
        let mut t = now;
        for holder in healthy.into_iter().chain(banned) {
            let alive = self.datanodes.get(&holder).map(|d| d.alive).unwrap_or(false);
            if !alive {
                self.metrics.incr("dfs.client", "read.failovers", 1);
                self.dead_nodes.record_failure(t, holder);
                continue;
            }
            match self.datanodes[&holder].read_block(id, &self.pool) {
                Ok(data) => {
                    self.dead_nodes.record_success(holder);
                    let len = data.len() as u64;
                    let daemon = format!("datanode.{holder}");
                    self.metrics.incr(&daemon, "bytes.read", len);
                    self.metrics.incr(&daemon, "blocks.read", 1);
                    let done = match reader {
                        Some(r) => net.read_remote(t, r, holder, len).end,
                        None => {
                            let disk = net.read_local_disk(t, holder, len);
                            // Off-cluster reader: egress through the NIC via
                            // a transfer to... no node; charge disk only.
                            disk.end
                        }
                    };
                    return Ok(Timed { value: data, completed_at: done });
                }
                Err(HlError::ChecksumMismatch { .. }) => {
                    self.metrics.incr("dfs.client", "read.corrupt_replicas", 1);
                    // Quarantine locally and tell the NameNode. The holder
                    // was alive a moment ago; skip quietly if it vanished.
                    let Some(dn) = self.datanodes.get_mut(&holder) else { continue };
                    dn.delete_block(id);
                    let report = self.datanodes[&holder].block_report();
                    self.namenode.process_block_report(t, holder, &report);
                    // Reading the corrupt copy still cost a disk pass.
                    t = net
                        .read_local_disk(
                            t,
                            holder,
                            self.namenode.block(id).map(|b| b.len).unwrap_or(0),
                        )
                        .end;
                }
                Err(_) => {
                    // IO-class failure: strike the node so later reads
                    // back off from it.
                    self.metrics.incr("dfs.client", "read.failovers", 1);
                    self.dead_nodes.record_failure(t, holder);
                    continue;
                }
            }
        }
        Err(HlError::MissingBlock { block_id: id.0, path: path_for_errors.to_string() })
    }

    /// `hadoop fs -cat` / `-copyToLocal`: read a whole file's bytes.
    /// Codec-framed files decode transparently — the caller always gets
    /// the logical (uncompressed) bytes, with the decode CPU charged on
    /// the reader after only the *stored* bytes crossed disk and NIC.
    ///
    /// Every block is read and charged first, in order, each at the end of
    /// the one before; a block no replica can serve fails the read there.
    /// Then the file is decoded: on the pool when that pays, runs of
    /// [`GROUP_FRAMES`] frames each into its own slice of one buffer (a
    /// plain file is copied block by block the same way). A frame that
    /// fails to decode fails the read with the error of the first such
    /// frame in file order, after every block was charged.
    pub fn read(
        &mut self,
        net: &mut ClusterNet,
        now: SimTime,
        path: &str,
        reader: Option<NodeId>,
    ) -> Result<Timed<Vec<u8>>> {
        let file = self.namenode.namespace().file(path)?.clone();
        let mut blocks = Vec::with_capacity(file.blocks.len());
        let mut t = now;
        for id in &file.blocks {
            // A whole-file read is one op: each block is read at the
            // previous one's end.
            let block = net.op(now, |net| self.read_block(net, t, *id, reader, path))?;
            t = block.completed_at;
            blocks.push(block.value);
        }
        // A codec-framed file's blocks each hold whole frames.
        let out = match file.codec {
            CodecId::Null => self.pool.concat(&blocks),
            CodecId::Hlz => hl_codec::decode_frame_runs(&blocks, GROUP_FRAMES, &self.pool)?,
        };
        if file.codec != CodecId::Null {
            let mut cost =
                SimDuration::for_transfer(out.len() as u64, hl_codec::DECOMPRESS_BYTES_PER_SEC);
            if let Some(r) = reader {
                cost = PerfProfile::scale_dur(cost, net.node_profile(r, t).cpu_mult);
            }
            t += cost;
        }
        Ok(Timed { value: out, completed_at: t })
    }

    /// Raw bytes of a block from any live replica, **uncharged** — used
    /// only by the MapReduce record reader to stitch the line that crosses
    /// a split boundary (a few bytes; the real read of the block is
    /// charged normally). Replicas that fail their checksums are skipped:
    /// serving rotted bytes here would feed a mapper corrupt input without
    /// any fault being raised (found by the chaos harness' ground-truth
    /// oracle).
    pub fn peek_block_bytes(&self, id: BlockId) -> Option<Bytes> {
        for (_, dn) in self.datanodes.iter().filter(|(_, d)| d.alive) {
            if let Some(crate::block::BlockPayload::Real { data, checksums }) = dn.payload(id) {
                if checksums.verify_on(data, &self.pool).is_none() {
                    return Some(data.clone());
                }
            }
        }
        None
    }

    /// Located blocks of a file, for MapReduce input splits.
    pub fn file_blocks(&self, path: &str) -> Result<Vec<LocatedBlock>> {
        let file = self.namenode.namespace().file(path)?;
        Ok(file
            .blocks
            .iter()
            .map(|&id| {
                let len = self.namenode.block(id).map(|b| b.len).unwrap_or(0);
                (id, len, self.namenode.block_locations(id))
            })
            .collect())
    }

    // ----------------------------------------------------------- protocol

    /// The clock has reached `t`: run every protocol round due by then, in
    /// order. Rounds fall on multiples of `dfs.heartbeat.interval` whoever
    /// calls, so the protocol is a function of the clock: reaching `t` in
    /// any number of steps runs the rounds one call does.
    pub fn advance_to(&mut self, net: &mut ClusterNet, t: SimTime) {
        while self.next_round <= t {
            let now = self.next_round;
            self.heartbeat_round(net, now);
            self.next_round = now + self.namenode.heartbeat_interval();
        }
    }

    /// One protocol round at `now`: every live DataNode heartbeats
    /// (piggybacking its incremental block report — the received/deleted
    /// delta since the last round — so the NameNode hears about replica
    /// churn without waiting for a periodic full report), the heartbeat
    /// monitor sweeps (the lease monitor rides it), the replication monitor
    /// schedules copies, and those copies execute (charging the network).
    fn heartbeat_round(&mut self, net: &mut ClusterNet, now: SimTime) {
        for (&node, dn) in self.datanodes.iter_mut().filter(|(_, dn)| dn.alive) {
            self.namenode.heartbeat(now, node, dn.free_bytes());
            if let Some(delta) = dn.drain_incremental() {
                self.namenode.process_incremental_report(now, node, &delta);
            }
        }
        self.namenode.check_heartbeats(now);
        let work = self.namenode.replication_work(now, 64);
        self.apply_commands(net, now, &work);
    }

    /// Execute NameNode commands against the DataNodes, with charging.
    pub fn apply_commands(&mut self, net: &mut ClusterNet, now: SimTime, commands: &[DnCommand]) {
        for cmd in commands {
            match *cmd {
                DnCommand::Replicate { block, from, to } => {
                    // The copy carries the source replica's generation
                    // stamp — stamping it FIRST_GEN would make every
                    // re-replicated copy of a recovered block look stale
                    // at its next block report, an invalidation churn loop.
                    let source =
                        self.datanodes.get(&from).filter(|d| d.alive).and_then(|d| {
                            Some((d.payload(block).cloned()?, d.gen_stamp_of(block)?))
                        });
                    match source {
                        Some((p, gs)) => {
                            let len = p.len();
                            let write = net.op(now, |net| {
                                let read = net.read_local_disk(now, from, len);
                                let xfer = net.transfer(read.end, from, to, len);
                                net.write_local_disk(xfer.end, to, len)
                            });
                            let stored = self
                                .datanodes
                                .get_mut(&to)
                                .map(|d| d.store_block_stamped(block, p, gs).is_ok())
                                .unwrap_or(false);
                            if stored {
                                let daemon = format!("datanode.{to}");
                                self.metrics.incr(&daemon, "bytes.written", len);
                                self.metrics.incr(&daemon, "blocks.rereplicated", 1);
                                self.namenode.block_received(write.end, to, block);
                            } else {
                                self.namenode.replication_failed(block);
                            }
                        }
                        None => self.namenode.replication_failed(block),
                    }
                }
                DnCommand::Invalidate { block, node } => {
                    if let Some(dn) = self.datanodes.get_mut(&node) {
                        dn.delete_block(block);
                    }
                }
            }
        }
    }

    // ----------------------------------------------------------- metrics

    /// Refresh the per-DataNode gauges (blocks held, free disk, liveness).
    fn sample_datanode_gauges(&mut self) {
        let nodes: Vec<NodeId> = self.datanodes.keys().copied().collect();
        for node in nodes {
            let dn = &self.datanodes[&node];
            let held = i64::try_from(dn.block_report().len()).unwrap_or(i64::MAX);
            let free = i64::try_from(dn.free_bytes()).unwrap_or(i64::MAX);
            let up = i64::from(dn.alive);
            let daemon = format!("datanode.{node}");
            self.metrics.set_gauge(&daemon, "blocks.held", held);
            self.metrics.set_gauge(&daemon, "disk.free_bytes", free);
            self.metrics.set_gauge(&daemon, "up", up);
        }
    }

    /// One DFS-wide metrics snapshot at virtual time `at`: gauges are
    /// refreshed from live state, then the NameNode's registry and the
    /// client/DataNode registry merge into a single sorted snapshot.
    pub fn metrics_snapshot(&mut self, at: SimTime) -> MetricsSnapshot {
        self.namenode.sample_gauges();
        self.sample_datanode_gauges();
        let mut snap = self.namenode.metrics.snapshot(at);
        snap.merge(&self.metrics.snapshot(at));
        snap
    }

    // ------------------------------------------------------------ faults

    /// Crash a DataNode daemon (blocks stay on disk).
    pub fn crash_datanode(&mut self, node: NodeId) {
        if let Some(dn) = self.datanodes.get_mut(&node) {
            dn.crash();
            self.metrics.incr(&format!("datanode.{node}"), "crashes", 1);
        }
    }

    /// Restart the entire DFS: NameNode rebuilds from its journal and
    /// enters safe mode; every DataNode restarts, runs its integrity scan
    /// (charged at disk bandwidth), then registers and sends its block
    /// report. Returns the virtual time safe mode exits.
    pub fn restart_all(&mut self, _net: &mut ClusterNet, now: SimTime) -> Result<Timed<()>> {
        self.namenode.restart(now)?;
        // Each DataNode scans in parallel on its own disk. The integrity
        // check reads and CRC-verifies thousands of individual block files,
        // so its effective rate is below peak sequential bandwidth (~2/3 on
        // a 2013 HDD — seeks between block files plus checksum compute).
        let scan_bw = (self.disk_bw * 2 / 3).max(1);
        let mut report_times: Vec<(SimTime, NodeId)> = Vec::new();
        let node_ids: Vec<NodeId> = self.datanodes.keys().copied().collect();
        for node in node_ids {
            // Keys collected from this very map one statement up.
            let Some(dn) = self.datanodes.get_mut(&node) else { continue };
            dn.restart();
            let daemon = format!("datanode.{node}");
            self.metrics.restart_daemon(&daemon);
            self.metrics.incr(&daemon, "restarts", 1);
            let scan_time = dn.scan_duration(scan_bw);
            dn.scan_blocks();
            report_times.push((now + scan_time, node));
        }
        report_times.sort();
        let mut exit_at = None;
        for (t, node) in &report_times {
            let dn = &self.datanodes[node];
            self.namenode.register_datanode(*t, *node, dn.free_bytes());
            let report = dn.block_report();
            if self.namenode.process_block_report(*t, *node, &report) {
                exit_at = Some(*t);
            }
            // The full report covered every pending delta; discard them so
            // the next heartbeat doesn't resend what was just reported.
            if let Some(dn) = self.datanodes.get_mut(node) {
                let _ = dn.drain_incremental();
            }
        }
        // The safe-mode extension may still be pending after the last
        // report; poll forward in heartbeat steps until it exits.
        let mut t = report_times.last().map(|(t, _)| *t).unwrap_or(now);
        let step = self.namenode.heartbeat_interval();
        let mut guard = 0;
        while exit_at.is_none() && self.namenode.safemode.is_on() {
            t += step;
            let (reported, expected) = self.namenode.block_census();
            if self.namenode.safemode.update(t, reported, expected) {
                exit_at = Some(t);
            }
            guard += 1;
            if guard > 10_000 {
                // Blocks are genuinely missing: safe mode will never exit
                // on its own — exactly the paper's "corrupted Hadoop
                // cluster that stopped all the new jobs".
                return Err(HlError::SafeMode(format!(
                    "stuck: {} of {} blocks reported",
                    reported, expected
                )));
            }
        }
        Ok(Timed { value: (), completed_at: exit_at.unwrap_or(t) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_common::units::ByteSize;

    fn setup(nodes: usize) -> (Dfs, ClusterNet, Configuration) {
        let spec = ClusterSpec::course_hadoop(nodes);
        let mut config = Configuration::with_defaults();
        config.set(hl_common::config::keys::DFS_BLOCK_SIZE, 1024u64); // small blocks for tests
        let dfs = Dfs::format(&config, &spec).unwrap();
        let net = ClusterNet::new(&spec);
        (dfs, net, config)
    }

    #[test]
    fn put_then_read_round_trips_bytes() {
        let (mut dfs, mut net, _) = setup(4);
        dfs.namenode.mkdirs("/data").unwrap();
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let put = dfs.put(&mut net, SimTime::ZERO, "/data/f", &data, None).unwrap();
        assert!(put.completed_at > SimTime::ZERO, "writes cost time");
        let got = dfs.read(&mut net, put.completed_at, "/data/f", None).unwrap();
        assert_eq!(got.value, data);
        // 5000 bytes / 1024 block size = 5 blocks, 3 replicas each.
        let blocks = dfs.file_blocks("/data/f").unwrap();
        assert_eq!(blocks.len(), 5);
        assert!(blocks.iter().all(|(_, _, holders)| holders.len() == 3));
    }

    #[test]
    fn compressed_put_stores_fewer_bytes_and_reads_back_identical() {
        let (mut dfs, mut net, _) = setup(4);
        dfs.namenode.mkdirs("/data").unwrap();
        let data = b"six nodes, three racks, one very repetitive corpus\n".repeat(200);
        let put = dfs
            .put_compressed(&mut net, SimTime::ZERO, "/data/f.hlz", &data, None, CodecId::Hlz)
            .unwrap();
        assert_eq!(dfs.file_codec("/data/f.hlz").unwrap(), CodecId::Hlz);
        // Stored bytes (file len counts stored bytes) shrink hard.
        let stored = dfs.namenode.namespace().file("/data/f.hlz").unwrap().len;
        assert!(stored * 4 < data.len() as u64, "{} logical bytes stored as {stored}", data.len());
        // Every block holds whole frames: each starts on a sync marker.
        for (id, _, _) in dfs.file_blocks("/data/f.hlz").unwrap() {
            let bytes = dfs.peek_block_bytes(id).unwrap();
            assert_eq!(hl_codec::find_sync(&bytes, 0), Some(0));
            assert!(hl_codec::decompress_container(&bytes).is_ok());
        }
        // Transparent decode returns the logical bytes.
        let got = dfs.read(&mut net, put.completed_at, "/data/f.hlz", None).unwrap();
        assert_eq!(got.value, data);
        // The codec instruments saw the write.
        let snap = dfs.metrics_snapshot(put.completed_at);
        assert_eq!(snap.counter("dfs.client", "codec.in_bytes"), data.len() as u64);
        assert_eq!(snap.counter("dfs.client", "codec.out_bytes"), stored);
    }

    #[test]
    fn compressed_codec_flag_survives_namenode_restart() {
        let (mut dfs, mut net, _) = setup(4);
        dfs.namenode.mkdirs("/data").unwrap();
        let data = b"the edit log must remember the decode instruction ".repeat(100);
        let put = dfs
            .put_compressed(&mut net, SimTime::ZERO, "/data/f.hlz", &data, None, CodecId::Hlz)
            .unwrap();
        // Restart straight off the journal tail...
        let up = dfs.restart_all(&mut net, put.completed_at).unwrap();
        assert_eq!(dfs.file_codec("/data/f.hlz").unwrap(), CodecId::Hlz);
        let got = dfs.read(&mut net, up.completed_at, "/data/f.hlz", None).unwrap();
        assert_eq!(got.value, data);
        // ...and again from a checkpointed fsimage (SetCodec folded in).
        dfs.namenode.checkpoint();
        let up = dfs.restart_all(&mut net, got.completed_at).unwrap();
        assert_eq!(dfs.file_codec("/data/f.hlz").unwrap(), CodecId::Hlz);
        assert_eq!(dfs.read(&mut net, up.completed_at, "/data/f.hlz", None).unwrap().value, data);
    }

    #[test]
    fn rotted_compressed_block_is_caught_by_crc_before_decode() {
        let (mut dfs, mut net, _) = setup(4);
        dfs.namenode.mkdirs("/data").unwrap();
        let data = b"bit rot on stored bytes must never reach the decoder ".repeat(120);
        let put = dfs
            .put_compressed(&mut net, SimTime::ZERO, "/data/f.hlz", &data, None, CodecId::Hlz)
            .unwrap();
        let (id, _, holders) = dfs.file_blocks("/data/f.hlz").unwrap()[0].clone();
        // Rot one replica: the DataNode-level chunk CRC catches it on read
        // and the client fails over before any frame decode runs.
        dfs.datanode_mut(holders[0]).unwrap().corrupt_block(id, 17);
        let got = dfs.read(&mut net, put.completed_at, "/data/f.hlz", Some(holders[0])).unwrap();
        assert_eq!(got.value, data);
        let snap = dfs.metrics_snapshot(got.completed_at);
        assert_eq!(snap.counter("dfs.client", "read.corrupt_replicas"), 1);
        // Rot *every* replica: the read must fail loudly, not hand back
        // corrupt bytes (CRC wall ahead of the codec).
        let (id2, _, holders2) = dfs.file_blocks("/data/f.hlz").unwrap()[0].clone();
        for h in holders2 {
            dfs.datanode_mut(h).unwrap().corrupt_block(id2, 23);
        }
        assert!(dfs.read(&mut net, got.completed_at, "/data/f.hlz", None).is_err());
    }

    #[test]
    fn a_frame_that_fails_to_decode_fails_the_read_after_every_block_is_charged() {
        let (mut dfs, mut net, _) = setup(4);
        dfs.namenode.mkdirs("/data").unwrap();
        let data: String = (0..16_000).map(|i| format!("frame line {}\n", i * 7919)).collect();
        let data = data.into_bytes();
        let put = dfs
            .put_compressed(&mut net, SimTime::ZERO, "/data/f.hlz", &data, None, CodecId::Hlz)
            .unwrap();
        let blocks = dfs.file_blocks("/data/f.hlz").unwrap();
        assert!(blocks.len() >= 4, "{} blocks", blocks.len());
        // Damage the last byte of blocks 1 and 2 on every replica, with
        // checksums that match the damage: only the frame CRC can tell.
        let mut first_error = None;
        for (id, _, holders) in &blocks[1..3] {
            let mut bad = dfs.peek_block_bytes(*id).unwrap().to_vec();
            *bad.last_mut().unwrap() ^= 0x20;
            let error = hl_codec::decompress_container(&bad).unwrap_err().to_string();
            first_error.get_or_insert(error);
            for holder in holders {
                let dn = dfs.datanode_mut(*holder).unwrap();
                dn.store_block(*id, BlockPayload::real(bad.clone())).unwrap();
            }
        }
        let err = dfs.read(&mut net, put.completed_at, "/data/f.hlz", None).unwrap_err();
        assert_eq!(Some(err.to_string()), first_error, "the first bad frame in file order");
        // Every block was read and charged before the decode ran.
        let stored: u64 = blocks.iter().map(|b| b.1).sum();
        let read = dfs.metrics_snapshot(put.completed_at).counter_across_daemons("bytes.read");
        assert_eq!(read, stored);
    }

    #[test]
    fn node_local_read_is_faster_than_remote() {
        let (mut dfs, mut net, _) = setup(4);
        dfs.namenode.mkdirs("/d").unwrap();
        let data = vec![7u8; 1024];
        dfs.put(&mut net, SimTime::ZERO, "/d/f", &data, Some(NodeId(0))).unwrap();
        let holders = dfs.file_blocks("/d/f").unwrap()[0].2.clone();
        assert!(holders.contains(&NodeId(0)), "writer holds replica 1");
        net.reset_accounting();
        let t0 = SimTime(10_000_000);
        let local = dfs.read(&mut net, t0, "/d/f", Some(NodeId(0))).unwrap();
        assert_eq!(net.remote_bytes(), 0, "node-local read moves nothing");
        // A reader with no replica must cross the network.
        let off: Vec<NodeId> = (0..4u32).map(NodeId).filter(|n| !holders.contains(n)).collect();
        let remote = dfs.read(&mut net, local.completed_at, "/d/f", Some(off[0])).unwrap();
        assert!(net.remote_bytes() >= 1024);
        assert!(remote.completed_at.since(local.completed_at) > local.completed_at.since(t0));
    }

    #[test]
    fn corrupt_replica_falls_back_and_reports() {
        let (mut dfs, mut net, _) = setup(4);
        dfs.namenode.mkdirs("/d").unwrap();
        let data = vec![3u8; 1000];
        dfs.put(&mut net, SimTime::ZERO, "/d/f", &data, None).unwrap();
        let (id, _, holders) = dfs.file_blocks("/d/f").unwrap()[0].clone();
        // Corrupt the replica the reader would pick first.
        let reader = holders[0];
        dfs.datanode_mut(reader).unwrap().corrupt_block(id, 500);
        let got = dfs.read(&mut net, SimTime::ZERO, "/d/f", Some(reader)).unwrap();
        assert_eq!(got.value, data, "fallback replica served the data");
        // The NameNode forgot the corrupt location.
        assert!(!dfs.namenode.block_locations(id).contains(&reader));
        // ...and the replication monitor will restore 3× later:
        dfs.advance_to(&mut net, SimTime(1_000_000));
        assert_eq!(dfs.namenode.block_locations(id).len(), 3);
    }

    #[test]
    fn all_replicas_lost_is_missing_block() {
        let (mut dfs, mut net, _) = setup(4);
        dfs.namenode.mkdirs("/d").unwrap();
        dfs.put(&mut net, SimTime::ZERO, "/d/f", &[1u8; 100], None).unwrap();
        let (_id, _, holders) = dfs.file_blocks("/d/f").unwrap()[0].clone();
        for h in holders {
            dfs.crash_datanode(h);
        }
        let err = dfs.read(&mut net, SimTime::ZERO, "/d/f", None).unwrap_err();
        assert!(matches!(err, HlError::MissingBlock { .. }));
    }

    #[test]
    fn dead_datanode_triggers_rereplication_via_protocol() {
        let (mut dfs, mut net, _) = setup(5);
        dfs.namenode.mkdirs("/d").unwrap();
        dfs.put(&mut net, SimTime::ZERO, "/d/f", &[9u8; 3000], None).unwrap();
        let victim = dfs.file_blocks("/d/f").unwrap()[0].2[0];
        dfs.crash_datanode(victim);
        // Run the protocol past the dead-node timeout (10 minutes default).
        let t = SimTime::ZERO + SimDuration::from_secs(750);
        dfs.advance_to(&mut net, t);
        for (_, _, holders) in dfs.file_blocks("/d/f").unwrap() {
            assert_eq!(holders.len(), 3, "re-replicated after node death");
            assert!(!holders.contains(&victim));
        }
        // The file still reads back.
        let got = dfs.read(&mut net, t, "/d/f", None).unwrap();
        assert_eq!(got.value.len(), 3000);
    }

    #[test]
    fn synthetic_staging_costs_realistic_time() {
        // 10 GB (the Yahoo dataset) onto the 8-node course cluster with
        // 64 MB blocks: paper says "less than five minutes".
        let spec = ClusterSpec::course_hadoop(8);
        let config = Configuration::with_defaults();
        let mut dfs = Dfs::format(&config, &spec).unwrap();
        let mut net = ClusterNet::new(&spec);
        dfs.namenode.mkdirs("/data").unwrap();
        let t = dfs
            .put_synthetic(&mut net, SimTime::ZERO, "/data/yahoo", 10 * ByteSize::GIB, None)
            .unwrap();
        let mins = t.completed_at.as_secs_f64() / 60.0;
        assert!(mins < 5.0, "10 GB staging took {mins:.1} min");
        assert!(mins > 0.5, "staging cannot be free: {mins:.2} min");
        // Metadata exists, bytes do not.
        assert_eq!(dfs.namenode.namespace().du("/data").unwrap(), 10 * ByteSize::GIB);
        assert_eq!(dfs.file_blocks("/data/yahoo").unwrap().len(), 160);
    }

    #[test]
    fn restart_reenters_and_exits_safemode_with_scan_time() {
        let (mut dfs, mut net, _) = setup(4);
        dfs.namenode.mkdirs("/d").unwrap();
        dfs.put(&mut net, SimTime::ZERO, "/d/f", &vec![5u8; 50_000], None).unwrap();
        let r = dfs.restart_all(&mut net, SimTime::ZERO).unwrap();
        assert!(!dfs.namenode.safemode.is_on());
        // Scan of ~150 KB at 120 MiB/s is instant-ish, but the 30 s
        // safe-mode extension must have elapsed.
        assert!(r.completed_at >= SimTime::ZERO + SimDuration::from_secs(30));
        let got = dfs.read(&mut net, r.completed_at, "/d/f", None).unwrap();
        assert_eq!(got.value.len(), 50_000);
    }

    #[test]
    fn restart_with_lost_blocks_reports_stuck_safemode() {
        let (mut dfs, mut net, _) = setup(4);
        dfs.namenode.mkdirs("/d").unwrap();
        dfs.put(&mut net, SimTime::ZERO, "/d/f", &[5u8; 100], None).unwrap();
        let (_, _, holders) = dfs.file_blocks("/d/f").unwrap()[0].clone();
        // Wipe every replica's disk: the block is gone from the world.
        for h in holders {
            dfs.datanode_mut(h).unwrap().wipe();
        }
        let err = dfs.restart_all(&mut net, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, HlError::SafeMode(_)));
        assert!(dfs.namenode.safemode.is_on(), "cluster is stuck exactly as in the paper");
    }

    #[test]
    fn put_respects_custom_replication() {
        let (mut dfs, mut net, _) = setup(5);
        dfs.namenode.mkdirs("/d").unwrap();
        dfs.put_with_replication(&mut net, SimTime::ZERO, "/d/r2", &[1u8; 10], None, 2).unwrap();
        assert_eq!(dfs.file_blocks("/d/r2").unwrap()[0].2.len(), 2);
    }

    #[test]
    fn zero_block_size_is_rejected_at_format() {
        let spec = ClusterSpec::course_hadoop(3);
        let mut config = Configuration::with_defaults();
        config.set(hl_common::config::keys::DFS_BLOCK_SIZE, 0u64);
        assert!(matches!(Dfs::format(&config, &spec), Err(HlError::Config(_))));
        // A zero heartbeat interval would put every protocol round at one
        // instant: `advance_to` would never finish.
        let mut config = Configuration::with_defaults();
        config.set(hl_common::config::keys::DFS_HEARTBEAT_SECS, 0u64);
        let err = Dfs::format(&config, &spec).unwrap_err();
        assert!(err.to_string().contains("dfs.heartbeat.interval"), "{err}");
    }

    #[test]
    fn pipeline_kill_recovers_write_and_invalidates_stale_replica() {
        let (mut dfs, mut net, _) = setup(5);
        dfs.namenode.mkdirs("/d").unwrap();
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        // Kill the DataNode receiving store #1 (block 0's second replica)
        // right after the bytes hit its disk.
        dfs.arm_pipeline_fault(PipelineFault::KillTarget { after_stores: 1 });
        let put = dfs.put(&mut net, SimTime::ZERO, "/d/f", &data, None).unwrap();

        let dead: Vec<NodeId> =
            dfs.datanode_ids().into_iter().filter(|&n| !dfs.datanode(n).unwrap().alive).collect();
        assert_eq!(dead.len(), 1, "the armed fault killed one pipeline target");
        let victim = dead[0];

        // The write survived the mid-pipeline death and reads back
        // bit-identical, CRC and all.
        let got = dfs.read(&mut net, put.completed_at, "/d/f", None).unwrap();
        assert_eq!(Crc32::checksum(&got.value), Crc32::checksum(&data));
        assert_eq!(got.value, data);

        // The dead node still holds block 0 at the pre-recovery stamp,
        // invisible to the NameNode.
        let (id, _, holders) = dfs.file_blocks("/d/f").unwrap()[0].clone();
        assert!(!holders.contains(&victim), "NameNode dropped the dead target");
        let stale = dfs.datanode(victim).unwrap().gen_stamp_of(id).expect("orphan on disk");
        let current = dfs.namenode.block(id).unwrap().gen_stamp;
        assert!(stale < current, "recovery bumped the generation stamp past the orphan");

        // Restart the victim: its block report confesses the stale stamp,
        // the NameNode queues an invalidation, and heartbeat rounds both
        // delete the orphan and restore 3× replication.
        dfs.datanode_mut(victim).unwrap().restart();
        let report = dfs.datanode(victim).unwrap().block_report();
        dfs.namenode.process_block_report(put.completed_at, victim, &report);
        assert!(!dfs.namenode.block_locations(id).contains(&victim));
        dfs.advance_to(&mut net, put.completed_at + SimDuration::from_secs(12));
        let locations = dfs.namenode.block_locations(id);
        assert_eq!(locations.len(), 3, "re-replication restored the target");
        for n in locations {
            assert_eq!(
                dfs.datanode(n).unwrap().gen_stamp_of(id),
                Some(current),
                "every live replica carries the recovered stamp"
            );
        }
        assert_ne!(
            dfs.datanode(victim).unwrap().gen_stamp_of(id),
            Some(stale),
            "the stale replica was invalidated"
        );
    }

    #[test]
    fn slow_ack_excludes_live_node_and_block_report_reaps_its_replica() {
        let (mut dfs, mut net, _) = setup(5);
        dfs.namenode.mkdirs("/d").unwrap();
        let data = vec![9u8; 2500];
        dfs.arm_pipeline_fault(PipelineFault::SlowAck { after_stores: 0 });
        let put = dfs.put(&mut net, SimTime::ZERO, "/d/f", &data, None).unwrap();
        assert_eq!(dfs.read(&mut net, put.completed_at, "/d/f", None).unwrap().value, data);

        // Nobody died — the ack just never made it back.
        assert!(dfs.datanode_ids().iter().all(|&n| dfs.datanode(n).unwrap().alive));

        // Exactly one live non-holder kept a stale copy of block 0.
        let (id, _, holders) = dfs.file_blocks("/d/f").unwrap()[0].clone();
        let current = dfs.namenode.block(id).unwrap().gen_stamp;
        let silent: Vec<NodeId> = dfs
            .datanode_ids()
            .into_iter()
            .filter(|n| !holders.contains(n))
            .filter(|&n| dfs.datanode(n).unwrap().gen_stamp_of(id).is_some())
            .collect();
        assert_eq!(silent.len(), 1, "the timed-out target kept its copy");
        let node = silent[0];
        assert!(dfs.datanode(node).unwrap().gen_stamp_of(id).unwrap() < current);

        // Its own routine block report is what gets the copy reaped.
        let report = dfs.datanode(node).unwrap().block_report();
        dfs.namenode.process_block_report(put.completed_at, node, &report);
        dfs.advance_to(&mut net, put.completed_at + SimDuration::from_secs(12));
        let gs = dfs.datanode(node).unwrap().gen_stamp_of(id);
        assert!(
            gs.is_none() || gs == Some(current),
            "stale copy gone (or re-replicated fresh), not lingering: {gs:?}"
        );
    }

    #[test]
    fn crashed_writer_is_lease_recovered_to_whole_block_prefix() {
        let (mut dfs, mut net, _) = setup(4);
        dfs.namenode.mkdirs("/d").unwrap();
        dfs.arm_pipeline_fault(PipelineFault::CrashWriter { after_blocks: 2 });
        let err = dfs.put(&mut net, SimTime::ZERO, "/d/open", &[5u8; 3000], None).unwrap_err();
        assert!(err.to_string().contains("crashed"), "clean writer-death error: {err}");
        assert!(dfs.namenode.lease("/d/open").is_some(), "file stays open for write");
        assert!(!dfs.namenode.namespace().file("/d/open").unwrap().complete);

        // Nobody calls recoverLease; the lease monitor alone must notice
        // the holder has gone silent past the hard limit and finalize.
        let t = SimTime::ZERO + SimDuration::from_secs(320);
        dfs.advance_to(&mut net, t);
        assert!(dfs.namenode.open_files().is_empty(), "lease recovered");
        let file = dfs.namenode.namespace().file("/d/open").unwrap();
        assert!(file.complete);
        assert_eq!(file.len, 2048, "closed at the confirmed whole-block prefix");
        let got = dfs.read(&mut net, t, "/d/open", None).unwrap();
        assert_eq!(got.value, vec![5u8; 2048]);
    }

    #[test]
    fn dead_node_backoff_is_exponential_and_deterministic() {
        let n = NodeId(1);
        let mut a = DeadNodes::new(42);
        let mut b = DeadNodes::new(42);
        a.record_failure(SimTime::ZERO, n);
        b.record_failure(SimTime::ZERO, n);
        assert_eq!(a.entries[&n], b.entries[&n], "same seed, same ban window");
        assert!(a.is_banned(SimTime::ZERO, n));
        let until1 = a.entries[&n].1;
        assert!(!a.is_banned(until1, n), "bans expire");

        // A second strike at least doubles the 30 s base backoff.
        a.record_failure(until1, n);
        let until2 = a.entries[&n].1;
        assert!(until2.since(until1) >= SimDuration::from_secs(60));

        // A different client seed jitters to a different instant.
        let mut c = DeadNodes::new(7);
        c.record_failure(SimTime::ZERO, n);
        assert_ne!(c.entries[&n].1, until1);

        // Success forgives everything.
        a.record_success(n);
        assert!(!a.is_banned(SimTime::ZERO, n));
    }

    #[test]
    fn read_fails_over_around_a_crashed_replica_holder() {
        let (mut dfs, mut net, _) = setup(4);
        dfs.namenode.mkdirs("/d").unwrap();
        let data = vec![8u8; 900];
        dfs.put(&mut net, SimTime::ZERO, "/d/f", &data, None).unwrap();
        let holders = dfs.file_blocks("/d/f").unwrap()[0].2.clone();
        dfs.crash_datanode(holders[0]);
        // First read trips over the dead holder, bans it, and serves the
        // data from a surviving replica; the retry skips it outright.
        let got = dfs.read(&mut net, SimTime::ZERO, "/d/f", None).unwrap();
        assert_eq!(got.value, data);
        let again = dfs.read(&mut net, got.completed_at, "/d/f", None).unwrap();
        assert_eq!(again.value, data);
    }

    #[test]
    fn restart_preserves_counters_and_resets_gauges_without_double_count() {
        let (mut dfs, mut net, _) = setup(4);
        dfs.namenode.mkdirs("/d").unwrap();
        dfs.put(&mut net, SimTime::ZERO, "/d/f", &[5u8; 5000], None).unwrap();
        let before = dfs.metrics_snapshot(SimTime::ZERO);
        let written = before.counter_across_daemons("bytes.written");
        assert!(written >= 3 * 5000, "3 replicas of 5000 bytes: {written}");
        let adds = before.counter("namenode", "rpc.add_block");
        assert!(adds >= 5);
        assert!(before.gauge("namenode", "blocks.total") >= 5);

        let r = dfs.restart_all(&mut net, SimTime::ZERO).unwrap();
        let after = dfs.metrics_snapshot(r.completed_at);
        // Monotonic counters carry across the restart unchanged — the
        // restart must neither re-count the pre-crash history (double
        // count) nor lose it.
        assert_eq!(after.counter_across_daemons("bytes.written"), written);
        assert_eq!(after.counter("namenode", "rpc.add_block"), adds);
        assert_eq!(after.counter("namenode", "restarts"), 1);
        assert_eq!(after.counter_across_daemons("restarts"), 1 + 4);
        // Gauges were re-sampled from post-restart live state.
        assert_eq!(after.gauge("namenode", "safemode.on"), 0);
        assert_eq!(after.counter("namenode", "safemode.entered"), 1);

        // A second restart counts exactly once more.
        let r2 = dfs.restart_all(&mut net, r.completed_at).unwrap();
        let snap2 = dfs.metrics_snapshot(r2.completed_at);
        assert_eq!(snap2.counter("namenode", "restarts"), 2);
        assert_eq!(snap2.counter_across_daemons("bytes.written"), written);
    }
}

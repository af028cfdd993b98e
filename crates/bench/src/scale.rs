//! A NameNode's life at scale, as four deterministic counters.
//!
//! Four phases per `nodes x blocks` config:
//!
//! 1. **Bulk load** — create `blocks / 100` hundred-block files through the
//!    full create/add-block/complete path.
//! 2. **Full block reports** — every DataNode reports its ~`3·blocks/nodes`
//!    replicas (`report_replicas_total`); the census must then see every
//!    block reported.
//! 3. **DES heartbeat rounds** — heartbeats for all nodes are driven
//!    through a [`TimerWheel`], so the event queue holds one entry per
//!    round instead of one per node (`des_events_total`).
//! 4. **Checkpoint + restart** — an explicit fsimage checkpoint
//!    (`fsimage_bytes`), a burst of tail edits (`restart_tail_ops`), then
//!    a restart that loads the image, replays only the tail, and must
//!    know the whole namespace again.
//!
//! A workload that silently shrinks or an fsimage record that grows by a
//! byte moves a row. How fast the host runs the same four phases
//! (`dfs.namenode.load_ops_s`, `block_report_us_p50/p99`, `restart_us`,
//! `cluster.event.wheel_events_s`) is `benchmark/`'s `nn-scale` workload.

use hl_cluster::event::{EventQueue, TimerWheel};
use hl_common::config::keys;
use hl_common::prelude::*;
use hl_dfs::block::ReplicaMeta;
use hl_dfs::namenode::NameNode;

use crate::Metrics;

/// Blocks per file during bulk load — many blocks, few namespace entries,
/// like a real ingest of large files.
const BLOCKS_PER_FILE: u64 = 100;
/// Simulated heartbeat intervals driven in the DES phase.
const DES_INTERVALS: u64 = 50;
/// Files (x10 blocks) appended after the checkpoint: the edit-log tail the
/// restart must replay.
const TAIL_FILES: u64 = 200;

fn node_id(i: u64) -> NodeId {
    NodeId(u32::try_from(i).unwrap_or(u32::MAX))
}

/// Run the four phases at `nodes` DataNodes and `blocks` blocks.
pub(crate) fn counters(nodes: u64, blocks: u64) -> Result<Metrics> {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 2048u64);
    config.set(keys::DFS_SAFEMODE_EXTENSION_SECS, 0u64);
    // Auto-checkpointing off: the load loop would otherwise serialize the
    // whole block map every N ops. Phase 4 checkpoints explicitly.
    config.set(keys::DFS_CHECKPOINT_OPS, 0u64);
    let topology = Topology::striped(usize::try_from(nodes).unwrap_or(usize::MAX), 20);
    let mut nn = NameNode::new(&config, topology)?;

    // Bootstrap a small placement set for bulk load (placement cost is
    // O(candidates log candidates) per block, so load with a small set).
    let bootstrap = 10u64.min(nodes);
    for i in 0..bootstrap {
        nn.register_datanode(SimTime::ZERO, node_id(i), u64::MAX / 2);
    }
    nn.safemode.update(SimTime::ZERO, 0, 0);

    // Phase 1: bulk load.
    nn.mkdirs("/scale")?;
    let mut ids = Vec::with_capacity(usize::try_from(blocks).unwrap_or(0));
    for f in 0..blocks / BLOCKS_PER_FILE {
        let path = format!("/scale/f{f:07}");
        nn.create_file(SimTime::ZERO, &path, Some(3), None, "soak")?;
        for _ in 0..BLOCKS_PER_FILE {
            let (id, _targets) = nn.add_block(SimTime::ZERO, &path, 1024, None)?;
            ids.push(id);
        }
        nn.complete_file(&path)?;
    }

    // Register the rest of the cluster.
    for i in bootstrap..nodes {
        nn.register_datanode(SimTime::ZERO, node_id(i), u64::MAX / 2);
    }

    // Phase 2: full block reports from every node. Block b lives on nodes
    // b, b+1, b+2 (mod cluster size): 3x replication, ~3*blocks/nodes
    // replicas per report.
    let mut per_node: Vec<Vec<ReplicaMeta>> = vec![Vec::new(); usize::try_from(nodes).unwrap_or(0)];
    for &id in &ids {
        let gs = nn.block(id).map(|b| b.gen_stamp).unwrap_or(1000);
        for r in 0..3u64 {
            let n = usize::try_from((id.0 + r) % nodes).unwrap_or(0);
            per_node[n].push(ReplicaMeta { id, len: 1024, gen_stamp: gs });
        }
    }
    let mut report_replicas_total = 0u64;
    for (i, report) in per_node.iter_mut().enumerate() {
        report.sort_by_key(|m| m.id);
        report_replicas_total += u64::try_from(report.len()).unwrap_or(0);
        nn.process_block_report(SimTime(1), node_id(u64::try_from(i).unwrap_or(0)), report);
    }
    let (reported, expected) = nn.block_census();
    if reported != expected {
        return Err(HlError::Internal(format!(
            "census after full reports: {reported}/{expected} blocks reported"
        )));
    }

    // Phase 3: DES heartbeat rounds through the timer wheel. One queue
    // event per round fires all that round's nodes in key order; the heap
    // never holds more than a single timer entry.
    let interval = nn.heartbeat_interval();
    let granularity = SimDuration::from_micros((interval.as_micros() / 10).max(1));
    let mut wheel: TimerWheel<NodeId> = TimerWheel::new(granularity);
    let t0 = SimTime(2);
    for i in 0..nodes {
        // Stagger first deadlines across one interval so rounds stay small.
        let offset =
            SimDuration::from_micros(i.saturating_mul(interval.as_micros()) / nodes.max(1));
        wheel.schedule(node_id(i), t0 + offset);
    }
    let horizon = t0 + SimDuration::from_micros(interval.as_micros().saturating_mul(DES_INTERVALS));
    let mut queue: EventQueue<()> = EventQueue::new();
    if let Some(due) = wheel.next_due() {
        queue.schedule_at(due, ());
    }
    let mut des_events_total = 0u64;
    while let Some((t, ())) = queue.pop() {
        if t > horizon {
            break;
        }
        des_events_total += 1;
        for node in wheel.pop_due(t) {
            nn.heartbeat(t, node, u64::MAX / 2);
            des_events_total += 1;
            wheel.schedule(node, t + interval);
        }
        if let Some(due) = wheel.next_due() {
            queue.schedule_at(due, ());
        }
    }

    // Phase 4: checkpoint, tail edits, restart.
    nn.checkpoint();
    if !nn.editlog.is_empty() {
        return Err(HlError::Internal("the checkpoint left ops in the journal".into()));
    }
    let fsimage_bytes = u64::try_from(nn.fsimage_bytes().len()).unwrap_or(u64::MAX);
    let now = horizon;
    nn.mkdirs("/tail")?;
    for f in 0..TAIL_FILES {
        let path = format!("/tail/f{f:05}");
        nn.create_file(now, &path, Some(3), None, "soak")?;
        for _ in 0..10 {
            nn.add_block(now, &path, 1024, None)?;
        }
        nn.complete_file(&path)?;
    }
    let restart_tail_ops = u64::try_from(nn.editlog.len()).unwrap_or(u64::MAX);
    nn.shutdown();
    nn.restart(now + SimDuration::from_secs(1))?;

    // The recovered NameNode must know the whole namespace again.
    let (_, total) = nn.block_census();
    let want = usize::try_from(blocks + TAIL_FILES * 10).unwrap_or(usize::MAX);
    if total != want {
        return Err(HlError::Internal(format!(
            "restart lost blocks: {total} of {want} in the block map"
        )));
    }

    Ok(vec![
        ("des_events_total", des_events_total),
        ("restart_tail_ops", restart_tail_ops),
        ("report_replicas_total", report_replicas_total),
        ("fsimage_bytes", fsimage_bytes),
    ])
}

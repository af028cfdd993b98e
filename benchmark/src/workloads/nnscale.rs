//! `nn-scale`: a NameNode's life at 400 DataNodes x 400k blocks with zero
//! payload bytes — metadata structures and the DES event core only.
//!
//! One iteration, on a fresh NameNode: bulk create/add-block/complete, a
//! full block report from every DataNode, 2000 heartbeat intervals through
//! a `TimerWheel`, a checkpoint, a tail of edits whose replicas arrive as
//! `block_received`, a crash and restart, and the recovery that follows —
//! every DataNode re-registers and reports at its own heartbeat phase until
//! safe mode exits. The simulated length of that recovery is the workload's
//! `sim_makespan_us`; its `sim_io_bytes_per_input_byte` is the durable
//! metadata traffic (image and journal written, image and tail read back)
//! per journal byte.

use hl_cluster::event::{EventQueue, TimerWheel};
use hl_common::config::keys;
use hl_common::prelude::*;
use hl_dfs::block::ReplicaMeta;
use hl_dfs::editlog::EditLog;
use hl_dfs::namenode::NameNode;
use hl_dfs::namespace::Namespace;
use hl_dfs::BlockId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::{repeat_setup, timed_loop, Body, EndToEnd, Layers, RunConfig, MIB};
use crate::calibrate::Calibrator;
use crate::layers;
use crate::report::Checks;
use crate::spans::Tracer;
use crate::stats;

/// DataNodes.
const NODES: u64 = 400;
/// Blocks loaded before the checkpoint.
const BLOCKS: u64 = 400_000;
/// Mean blocks per file (each file draws 50..=150).
const MEAN_BLOCKS_PER_FILE: u64 = 100;
/// Heartbeat intervals driven through the wheel, so the DES phase lasts
/// tenths of a second rather than milliseconds.
const HEARTBEAT_INTERVALS: u64 = 2000;
/// Files (x10 blocks) written after the checkpoint: the edit-log tail the
/// restart replays.
const TAIL_FILES: u64 = 200;
/// Blocks per tail file.
const TAIL_BLOCKS_PER_FILE: u64 = 10;
/// DFS block size, which caps each generated block length.
const BLOCK_BYTES: u64 = 2048;
/// Replicas per block; block `b` lives on nodes `b, b+1, b+2 (mod nodes)`.
const REPLICATION: u64 = 3;
/// Largest seeded jitter on a DataNode's heartbeat phase, µs.
const PHASE_JITTER_US: u64 = 10_000;

/// The generated inputs: what the clients write and what the DataNodes
/// will say they hold.
struct Plan {
    nodes: u64,
    /// `(path, block lengths)` per file of the bulk load.
    files: Vec<(String, Vec<u64>)>,
    /// `(path, block lengths)` per file of the post-checkpoint tail.
    tail: Vec<(String, Vec<u64>)>,
    /// Per-node full report after the bulk load.
    reports_loaded: Vec<Vec<ReplicaMeta>>,
    /// Per-node full report after the tail (what a restart hears).
    reports_recovered: Vec<Vec<ReplicaMeta>>,
    /// Each DataNode's heartbeat phase within one interval.
    phase: Vec<SimDuration>,
    heartbeat_intervals: u64,
}

impl Plan {
    fn blocks(&self) -> u64 {
        self.files.iter().chain(&self.tail).map(|(_, b)| b.len() as u64).sum()
    }
}

fn node_id(i: u64) -> NodeId {
    NodeId(u32::try_from(i).unwrap_or(u32::MAX))
}

fn holder(block: BlockId, replica: u64, nodes: u64) -> u64 {
    (block.0 + replica) % nodes
}

fn new_namenode(nodes: u64) -> Result<NameNode> {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, BLOCK_BYTES);
    // Auto-checkpointing off: the load loop would otherwise serialize the
    // whole block map every N ops. The iteration checkpoints explicitly.
    config.set(keys::DFS_CHECKPOINT_OPS, 0u64);
    let topology = Topology::striped(usize::try_from(nodes).unwrap_or(usize::MAX), 20);
    let mut nn = NameNode::new(&config, topology)?;
    // Placement is O(candidates log candidates) per block, so the load runs
    // against a small bootstrap set and the rest register afterwards.
    for i in 0..10u64.min(nodes) {
        nn.register_datanode(SimTime::ZERO, node_id(i), u64::MAX / 2);
    }
    nn.safemode.force_leave();
    Ok(nn)
}

/// Write `files` through create/add-block/complete; returns the block ids
/// in allocation order and the RPC count.
fn write_files(
    nn: &mut NameNode,
    now: SimTime,
    dir: &str,
    files: &[(String, Vec<u64>)],
) -> Result<(Vec<(BlockId, u64)>, u64)> {
    nn.mkdirs(dir)?;
    let mut blocks = Vec::new();
    let mut rpcs = 1u64;
    for (path, lens) in files {
        nn.create_file(now, path, Some(3), None, "bench")?;
        for &len in lens {
            let (id, _targets) = nn.add_block(now, path, len, None)?;
            blocks.push((id, len));
        }
        nn.complete_file(path)?;
        rpcs += lens.len() as u64 + 2;
    }
    Ok((blocks, rpcs))
}

/// Add `blocks`' replicas to the per-node reports, stamped as the NameNode
/// stamped them.
fn add_replicas(nn: &NameNode, reports: &mut [Vec<ReplicaMeta>], blocks: &[(BlockId, u64)]) {
    let nodes = reports.len() as u64;
    for &(id, len) in blocks {
        let gen_stamp = nn.block(id).map_or(hl_dfs::block::FIRST_GEN_STAMP, |b| b.gen_stamp);
        for r in 0..REPLICATION {
            let n = usize::try_from(holder(id, r, nodes)).unwrap_or(0);
            reports[n].push(ReplicaMeta { id, len, gen_stamp });
        }
    }
}

fn setup(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Plan> {
    let nodes = cfg.scaled(NODES, 16);
    let blocks = cfg.scaled(BLOCKS, 1_000);
    let tail_files = cfg.scaled(TAIL_FILES, 4);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

    let open = tracer.begin("datagen.plan");
    let mut files = Vec::new();
    let mut planned = 0u64;
    while planned < blocks {
        let want = rng.gen_range(MEAN_BLOCKS_PER_FILE / 2..=MEAN_BLOCKS_PER_FILE * 3 / 2);
        let n = want.min(blocks - planned);
        let lens = (0..n).map(|_| rng.gen_range(1..=BLOCK_BYTES)).collect();
        files.push((format!("/scale/f{:07}", files.len()), lens));
        planned += n;
    }
    let tail = (0..tail_files)
        .map(|f| {
            let lens = (0..TAIL_BLOCKS_PER_FILE).map(|_| rng.gen_range(1..=BLOCK_BYTES)).collect();
            (format!("/tail/f{f:05}"), lens)
        })
        .collect::<Vec<_>>();
    let interval_us = SimDuration::from_secs(3).as_micros();
    let phase = (0..nodes)
        .map(|i| {
            SimDuration::from_micros(i * interval_us / nodes + rng.gen_range(0..PHASE_JITTER_US))
        })
        .collect();
    tracer.end(open);

    // Block ids and generation stamps are the NameNode's to allocate, so
    // the DataNodes' reports are derived by writing the plan once to a
    // scratch NameNode (every iteration's fresh one allocates the same).
    let open = tracer.begin("NameNode::new+load");
    let mut nn = new_namenode(nodes)?;
    let (loaded, _) = write_files(&mut nn, SimTime::ZERO, "/scale", &files)?;
    let (tailed, _) = write_files(&mut nn, SimTime::ZERO, "/tail", &tail)?;
    tracer.end(open);
    let mut reports_loaded = vec![Vec::new(); usize::try_from(nodes).unwrap_or(0)];
    add_replicas(&nn, &mut reports_loaded, &loaded);
    let mut reports_recovered = reports_loaded.clone();
    add_replicas(&nn, &mut reports_recovered, &tailed);
    for report in reports_loaded.iter_mut().chain(&mut reports_recovered) {
        report.sort_by_key(|m| m.id);
    }

    Ok(Plan {
        nodes,
        files,
        tail,
        reports_loaded,
        reports_recovered,
        phase,
        heartbeat_intervals: cfg.scaled(HEARTBEAT_INTERVALS, 20),
    })
}

/// What one iteration measured.
#[derive(Default)]
struct Life {
    ops: u64,
    load_ops: u64,
    load_s: f64,
    report_us: Vec<f64>,
    checkpoint_s: f64,
    image_bytes: u64,
    journal_bytes: u64,
    tail_journal_bytes: u64,
    restart_s: f64,
    recovery_sim_us: u64,
    /// The pre-checkpoint journal, kept by the warm-up for the replay span.
    journal: Option<Vec<u8>>,
}

fn iteration(
    tracer: &mut Tracer,
    plan: &Plan,
    i: u32,
    keep_journal: bool,
    checks: &mut Checks,
) -> Result<Life> {
    let mut life = Life::default();
    let open = tracer.begin("iteration");
    let mut nn = new_namenode(plan.nodes)?;

    // Bulk load.
    let span = tracer.begin("namenode.load");
    let (_, rpcs) = write_files(&mut nn, SimTime::ZERO, "/scale", &plan.files)?;
    life.load_s = tracer.end(span);
    life.load_ops = rpcs;
    life.ops += rpcs;
    for n in 0..plan.nodes {
        nn.register_datanode(SimTime::ZERO, node_id(n), u64::MAX / 2);
    }

    // Full block reports from every node.
    let span = tracer.begin("namenode.block_reports");
    for (n, report) in plan.reports_loaded.iter().enumerate() {
        let started = std::time::Instant::now();
        nn.process_block_report(SimTime(1), node_id(n as u64), report);
        life.report_us.push(started.elapsed().as_secs_f64() * 1e6);
        life.ops += report.len() as u64;
    }
    tracer.end(span);
    let (reported, expected) = nn.block_census();
    checks.check(reported == expected && expected > 0, || {
        format!("iteration {i}: census after full reports {reported}/{expected}")
    });

    // Heartbeats through the wheel: one queue entry per round.
    let interval = nn.heartbeat_interval();
    let span = tracer.begin("cluster.event.heartbeats");
    let coarse = SimDuration::from_micros((interval.as_micros() / 10).max(1));
    let mut wheel: TimerWheel<NodeId> = TimerWheel::new(coarse);
    let t0 = SimTime(2);
    for (n, &phase) in plan.phase.iter().enumerate() {
        wheel.schedule(node_id(n as u64), t0 + phase);
    }
    let horizon = t0
        + SimDuration::from_micros(interval.as_micros().saturating_mul(plan.heartbeat_intervals));
    let mut queue: EventQueue<()> = EventQueue::new();
    if let Some(due) = wheel.next_due() {
        queue.schedule_at(due, ());
    }
    while let Some((t, ())) = queue.pop() {
        if t > horizon {
            break;
        }
        life.ops += 1;
        for node in wheel.pop_due(t) {
            nn.heartbeat(t, node, u64::MAX / 2);
            life.ops += 1;
            wheel.schedule(node, t + interval);
        }
        if let Some(due) = wheel.next_due() {
            queue.schedule_at(due, ());
        }
    }
    tracer.end(span);

    // Checkpoint, then a tail of edits whose replicas the DataNodes confirm.
    if keep_journal {
        life.journal = Some(nn.editlog.serialize());
    }
    life.journal_bytes = life.journal.as_ref().map_or(0, |j| j.len() as u64);
    let span = tracer.begin("namenode.checkpoint");
    nn.checkpoint();
    life.checkpoint_s = tracer.end(span);
    life.image_bytes = nn.fsimage_bytes().len() as u64;
    let now = horizon;
    let span = tracer.begin("namenode.tail");
    let (tailed, rpcs) = write_files(&mut nn, now, "/tail", &plan.tail)?;
    for &(id, _) in &tailed {
        for r in 0..REPLICATION {
            nn.block_received(now, node_id(holder(id, r, plan.nodes)), id);
        }
    }
    tracer.end(span);
    life.ops += rpcs + tailed.len() as u64 * REPLICATION;
    let tail_ops = nn.editlog.len() as u64;
    if keep_journal {
        life.tail_journal_bytes = nn.editlog.serialize().len() as u64;
    }
    let census_before = (nn.namespace().stats(), nn.block_census().1);

    // Crash and restart: image prefix, tail replay, leases, safe mode.
    nn.shutdown();
    let restart_at = now + SimDuration::from_secs(1);
    let span = tracer.begin("namenode.restart");
    nn.restart(restart_at)?;
    life.restart_s = tracer.end(span);
    life.ops += tail_ops;
    let census_after = (nn.namespace().stats(), nn.block_census().1);
    checks.check(census_after == census_before, || {
        format!("iteration {i}: restart changed the census {census_before:?} -> {census_after:?}")
    });

    // Recovery: each DataNode re-registers and sends its full report at its
    // own heartbeat phase, then keeps heartbeating; the monitor re-checks
    // safe mode every round until the extension has run out.
    let span = tracer.begin("namenode.recovery");
    // Rounds far narrower than the phase spacing: no two nodes coalesce,
    // and the simulated exit time keeps the phases' microsecond digits.
    let fine = SimDuration::from_micros(100);
    let mut wheel: TimerWheel<NodeId> = TimerWheel::new(fine);
    for (n, &phase) in plan.phase.iter().enumerate() {
        wheel.schedule(node_id(n as u64), restart_at + phase);
    }
    let mut registered = vec![false; plan.phase.len()];
    let give_up = restart_at + SimDuration::from_secs(600);
    let mut exited_at = None;
    while let Some(t) = wheel.next_due() {
        if t > give_up {
            break;
        }
        for node in wheel.pop_due(t) {
            let n = node.0 as usize;
            if std::mem::replace(&mut registered[n], true) {
                nn.heartbeat(t, node, u64::MAX / 2);
                life.ops += 1;
            } else {
                nn.register_datanode(t, node, u64::MAX / 2);
                let started = std::time::Instant::now();
                nn.process_block_report(t, node, &plan.reports_recovered[n]);
                life.report_us.push(started.elapsed().as_secs_f64() * 1e6);
                life.ops += plan.reports_recovered[n].len() as u64 + 1;
            }
            wheel.schedule(node, t + interval);
        }
        nn.check_heartbeats(t);
        if !nn.safemode.is_on() {
            exited_at = Some(t);
            break;
        }
    }
    tracer.end(span);
    let (reported, expected) = nn.block_census();
    checks.check(exited_at.is_some() && reported == expected, || {
        format!("iteration {i}: recovery ended at {exited_at:?} with census {reported}/{expected}")
    });
    life.recovery_sim_us = exited_at.map_or(0, |t| t.since(restart_at).as_micros());
    tracer.end(open);
    Ok(life)
}

/// Run the workload.
pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Body> {
    let mut layers = Layers::default();
    let mut checks = Checks::default();

    let mut calibrator = Calibrator::new();
    let (plan, setups) = repeat_setup(cfg, tracer, &mut calibrator, |tracer| setup(cfg, tracer))?;

    let warm = iteration(tracer, &plan, 0, true, &mut checks)?;
    // Durable metadata traffic per journal byte: journal and image written,
    // then image and tail read back by the restart.
    let written = warm.journal_bytes + warm.tail_journal_bytes + warm.image_bytes;
    let read_back = warm.image_bytes + warm.tail_journal_bytes;
    let journal = (warm.journal_bytes + warm.tail_journal_bytes).max(1);

    let mut lives: Vec<Life> = Vec::new();
    let iterations =
        timed_loop(cfg, cfg.seconds, u32::MAX, tracer, &mut calibrator, |tracer, i| {
            let life = iteration(tracer, &plan, i, false, &mut checks)?;
            checks.check(
                life.ops == warm.ops && life.recovery_sim_us == warm.recovery_sim_us,
                || {
                    format!(
                        "iteration {i}: op count or simulated recovery differs from the warm-up"
                    )
                },
            );
            lives.push(life);
            Ok(())
        })?;

    if cfg.traced {
        let med = |f: fn(&Life) -> f64| stats::median(&lives.iter().map(f).collect::<Vec<_>>());
        layers.set_rate("dfs.namenode.load_ops_s", warm.load_ops as f64, med(|l| l.load_s));
        let report_us: Vec<f64> = lives.iter().flat_map(|l| l.report_us.iter().copied()).collect();
        layers.set("dfs.namenode.block_report_us_p50", stats::median(&report_us));
        layers.set("dfs.namenode.block_report_us_p99", stats::percentile(&report_us, 99.0));
        layers.set("dfs.namenode.restart_us", med(|l| l.restart_s) * 1e6);
        layers.set_rate(
            "dfs.fsimage.checkpoint_mib_s",
            warm.image_bytes as f64 / MIB,
            med(|l| l.checkpoint_s),
        );
        layers.set("dfs.fsimage.bytes_per_block", warm.image_bytes as f64 / plan.blocks() as f64);

        if let Some(bytes) = &warm.journal {
            let (replayed, s) = tracer.timed("dfs.editlog.replay", || -> Result<usize> {
                let log = EditLog::deserialize(bytes)?;
                log.replay(&mut Namespace::new())?;
                Ok(log.len())
            });
            layers.set_rate("dfs.editlog.replay_ops_s", replayed? as f64, s);
        }
        layers::event_core(tracer, &mut layers, cfg.scaled(1_000_000, 10_000));
    }

    Ok(Body {
        end_to_end: EndToEnd {
            setups,
            iterations,
            work_unit: "NameNode ops",
            work_per_iteration: warm.ops as f64,
            sim_makespan_us: warm.recovery_sim_us as f64,
            sim_io_bytes_per_input_byte: (written + read_back) as f64 / journal as f64,
        },
        layers,
        checks,
    })
}

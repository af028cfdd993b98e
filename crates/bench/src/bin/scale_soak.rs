//! `scale-soak` — NameNode scaling benchmark and CI gate.
//!
//! ```text
//! scale-soak                                       # 1000 DNs x 1M blocks
//! scale-soak --configs 200x100000                  # CI-sized run
//! scale-soak --configs 200x100000,1000x1000000     # both, one JSON
//! scale-soak --configs 200x100000 --check BENCH_scale.json
//! ```
//!
//! Four phases per config, mirroring a NameNode's life at scale:
//!
//! 1. **Bulk load** — create `blocks / 100` hundred-block files through the
//!    full create/add-block/complete path (namespace ops/sec).
//! 2. **Full block reports** — every DataNode reports its ~`3·blocks/nodes`
//!    replicas; per-report latency is sampled (mean / p99). With the
//!    per-node block index this is O(report), not O(cluster).
//! 3. **DES heartbeat rounds** — heartbeats for all nodes are driven
//!    through a [`TimerWheel`], so the event queue holds one entry per
//!    round instead of one per node (events/sec).
//! 4. **Checkpoint + restart** — an explicit fsimage checkpoint, a burst
//!    of tail edits, then a timed restart that loads the image and
//!    replays only the tail.
//!
//! The wall-clock numbers (ops/sec, latency, recovery time) are reported
//! for the paper's tables but *not* gated — they vary with the host. The
//! gate compares the deterministic counters (`des_events_total`,
//! `restart_tail_ops`, `report_replicas_total`, `fsimage_bytes`) against a
//! committed `BENCH_scale.json` with the same ±10% band the perf-gate
//! uses: a silent workload shrink or fsimage format bloat fails CI even
//! though the host's clock cannot.

use std::process::ExitCode;
use std::time::Instant; // lint:allow(R2): wall-clock benchmark harness, not sim logic

use hl_bench::{extract, sections_json, Layout};
use hl_cluster::event::{EventQueue, TimerWheel};
use hl_common::config::keys;
use hl_common::prelude::*;
use hl_dfs::block::ReplicaMeta;
use hl_dfs::namenode::NameNode;

/// Blocks per file during bulk load — many blocks, few namespace entries,
/// like a real ingest of large files.
const BLOCKS_PER_FILE: u64 = 100;
/// Simulated heartbeat intervals driven in the DES phase.
const DES_INTERVALS: u64 = 50;
/// Files (x10 blocks) appended after the checkpoint: the edit-log tail the
/// restart must replay.
const TAIL_FILES: u64 = 200;
/// Gate tolerance: deterministic counters may drift this many percent.
const TOLERANCE_PCT: u64 = 10;

/// One config's measurements: wall-clock stats for humans, deterministic
/// counters for the gate.
struct ScaleStats {
    key: String,
    nn_ops_per_sec: u64,
    block_report_mean_us: u64,
    block_report_p99_us: u64,
    des_events_per_sec: u64,
    restart_recovery_us: u64,
    des_events_total: u64,
    restart_tail_ops: u64,
    report_replicas_total: u64,
    fsimage_bytes: u64,
}

impl ScaleStats {
    /// The deterministic counters the CI gate compares.
    fn gated(&self) -> [(&'static str, u64); 4] {
        [
            ("des_events_total", self.des_events_total),
            ("restart_tail_ops", self.restart_tail_ops),
            ("report_replicas_total", self.report_replicas_total),
            ("fsimage_bytes", self.fsimage_bytes),
        ]
    }

    /// Every measurement, in `BENCH_scale.json` order.
    fn metrics(&self) -> [(&'static str, u64); 9] {
        [
            ("nn_ops_per_sec", self.nn_ops_per_sec),
            ("block_report_mean_us", self.block_report_mean_us),
            ("block_report_p99_us", self.block_report_p99_us),
            ("des_events_per_sec", self.des_events_per_sec),
            ("restart_recovery_us", self.restart_recovery_us),
            ("des_events_total", self.des_events_total),
            ("restart_tail_ops", self.restart_tail_ops),
            ("report_replicas_total", self.report_replicas_total),
            ("fsimage_bytes", self.fsimage_bytes),
        ]
    }
}

fn micros_u64(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn per_sec(count: u64, d: std::time::Duration) -> u64 {
    let us = micros_u64(d).max(1);
    count.saturating_mul(1_000_000) / us
}

fn node_id(i: u64) -> NodeId {
    NodeId(u32::try_from(i).unwrap_or(u32::MAX))
}

fn run_config(nodes: u64, blocks: u64) -> Result<ScaleStats> {
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
    let t_load = Instant::now(); // lint:allow(R2): benchmark harness
    nn.mkdirs("/scale")?;
    let files = blocks / BLOCKS_PER_FILE;
    let mut ids = Vec::with_capacity(usize::try_from(blocks).unwrap_or(0));
    for f in 0..files {
        let path = format!("/scale/f{f:07}");
        nn.create_file(SimTime::ZERO, &path, Some(3), None, "soak")?;
        for _ in 0..BLOCKS_PER_FILE {
            let (id, _targets) = nn.add_block(SimTime::ZERO, &path, 1024, None)?;
            ids.push(id);
        }
        nn.complete_file(&path)?;
    }
    let load = t_load.elapsed();
    let nn_ops = files.saturating_mul(BLOCKS_PER_FILE + 2) + 1;
    let nn_ops_per_sec = per_sec(nn_ops, load);
    eprintln!(
        "[{nodes}x{blocks}] loaded {} blocks in {:.1}s ({nn_ops_per_sec} ops/s)",
        ids.len(),
        load.as_secs_f64()
    );

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
    for v in &mut per_node {
        v.sort_by_key(|m| m.id);
    }
    let report_replicas_total =
        per_node.iter().map(|v| u64::try_from(v.len()).unwrap_or(0)).sum::<u64>();

    let mut lat_us: Vec<u64> = Vec::with_capacity(per_node.len());
    for (i, report) in per_node.iter().enumerate() {
        let t = Instant::now(); // lint:allow(R2): benchmark harness
        nn.process_block_report(SimTime(1), node_id(u64::try_from(i).unwrap_or(0)), report);
        lat_us.push(micros_u64(t.elapsed()));
    }
    lat_us.sort_unstable();
    let block_report_mean_us =
        lat_us.iter().sum::<u64>() / u64::try_from(lat_us.len()).unwrap_or(1).max(1);
    let block_report_p99_us = lat_us[(lat_us.len() * 99 / 100).min(lat_us.len() - 1)];
    eprintln!(
        "[{nodes}x{blocks}] {} reports: mean {block_report_mean_us} us, p99 {block_report_p99_us} us",
        lat_us.len()
    );
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
    let t_des = Instant::now(); // lint:allow(R2): benchmark harness
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
    let des = t_des.elapsed();
    let des_events_per_sec = per_sec(des_events_total, des);
    eprintln!(
        "[{nodes}x{blocks}] DES: {des_events_total} events in {:.3}s ({des_events_per_sec} ev/s), queue held <=1 timer entry",
        des.as_secs_f64()
    );

    // Phase 4: checkpoint, tail edits, timed restart.
    let t_ckpt = Instant::now(); // lint:allow(R2): benchmark harness
    nn.checkpoint();
    let fsimage_bytes = u64::try_from(nn.fsimage_bytes().len()).unwrap_or(u64::MAX);
    eprintln!(
        "[{nodes}x{blocks}] checkpoint: {fsimage_bytes} bytes in {:.3}s",
        t_ckpt.elapsed().as_secs_f64()
    );
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

    // The process dies (teardown costs no downtime — a real crash's heap
    // is reclaimed by the OS), then recovery is timed: image prefix load,
    // tail replay, lease rebuild, safe-mode entry.
    nn.shutdown();
    let t_restart = Instant::now(); // lint:allow(R2): benchmark harness
    nn.restart(now + SimDuration::from_secs(1))?;
    let restart_recovery_us = micros_u64(t_restart.elapsed());
    eprintln!(
        "[{nodes}x{blocks}] restart (image + {restart_tail_ops}-op tail): {:.1} ms",
        t_restart.elapsed().as_secs_f64() * 1e3
    );

    // The recovered NameNode must know the whole namespace again.
    let (_, total) = nn.block_census();
    let want = usize::try_from(blocks + TAIL_FILES * 10).unwrap_or(usize::MAX);
    if total != want {
        return Err(HlError::Internal(format!(
            "restart lost blocks: {total} of {want} in the block map"
        )));
    }

    Ok(ScaleStats {
        key: format!("scale_{nodes}x{blocks}"),
        nn_ops_per_sec,
        block_report_mean_us,
        block_report_p99_us,
        des_events_per_sec,
        restart_recovery_us,
        des_events_total,
        restart_tail_ops,
        report_replicas_total,
        fsimage_bytes,
    })
}

/// Two-sided gate: a deterministic counter drifting past the band in
/// either direction means the workload or format changed silently.
fn check(stats: &[ScaleStats], baseline: &str) -> Vec<String> {
    let mut regressions = Vec::new();
    for s in stats {
        for (metric, measured) in s.gated() {
            let Some(base) = extract(baseline, &s.key, metric) else {
                regressions.push(format!("{}/{metric}: missing from baseline", s.key));
                continue;
            };
            let ceiling = base.saturating_mul(100 + TOLERANCE_PCT) / 100;
            let floor = base.saturating_mul(100 - TOLERANCE_PCT) / 100;
            if measured > ceiling || measured < floor {
                regressions.push(format!(
                    "{}/{metric}: {measured} outside {TOLERANCE_PCT}% band around baseline {base}",
                    s.key
                ));
            } else if measured != base {
                eprintln!(
                    "note: {}/{metric} drifted {measured} vs {base} (within {TOLERANCE_PCT}%)",
                    s.key
                );
            }
        }
    }
    regressions
}

fn combined_json(stats: &[ScaleStats]) -> String {
    let sections: Vec<_> = stats.iter().map(|s| (s.key.as_str(), s.metrics())).collect();
    sections_json(&sections, Layout::Indented)
}

fn main() -> ExitCode {
    let mut configs: Vec<(u64, u64)> = vec![(1000, 1_000_000)];
    let mut check_path: Option<String> = None;
    let mut out_path = String::from("BENCH_scale.json");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--configs" => {
                let Some(v) = it.next() else {
                    eprintln!("--configs needs NODESxBLOCKS[,NODESxBLOCKS...]");
                    return ExitCode::from(2);
                };
                configs.clear();
                for part in v.split(',') {
                    let Some((n, b)) = part.split_once('x') else {
                        eprintln!("bad config {part}: want NODESxBLOCKS");
                        return ExitCode::from(2);
                    };
                    match (n.parse(), b.parse()) {
                        (Ok(n), Ok(b)) => configs.push((n, b)),
                        _ => {
                            eprintln!("bad config {part}: want NODESxBLOCKS");
                            return ExitCode::from(2);
                        }
                    }
                }
            }
            "--check" => match it.next() {
                Some(p) => check_path = Some(p),
                None => {
                    eprintln!("--check needs a baseline path");
                    return ExitCode::from(2);
                }
            },
            "--out" => match it.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag {other}");
                eprintln!(
                    "usage: scale-soak [--configs NxB[,NxB...]] [--out PATH] [--check BENCH_scale.json]"
                );
                return ExitCode::from(2);
            }
        }
    }

    let mut stats = Vec::new();
    for (nodes, blocks) in configs {
        match run_config(nodes, blocks) {
            Ok(s) => {
                println!(
                    "{:<22} nn_ops/s={} report_p99_us={} des_ev/s={} restart_us={}",
                    s.key,
                    s.nn_ops_per_sec,
                    s.block_report_p99_us,
                    s.des_events_per_sec,
                    s.restart_recovery_us
                );
                stats.push(s);
            }
            Err(e) => {
                eprintln!("config {nodes}x{blocks} failed: {e}");
                return ExitCode::from(2);
            }
        }
    }

    // Gate mode only reads the baseline — never overwrite it (a partial
    // `--configs` run would silently drop the other configs' entries).
    if check_path.is_none() {
        if let Err(e) = std::fs::write(&out_path, combined_json(&stats)) {
            eprintln!("writing {out_path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {out_path}");
    }

    if let Some(path) = check_path {
        let baseline = match std::fs::read_to_string(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("reading {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let regressions = check(&stats, &baseline);
        if !regressions.is_empty() {
            for r in &regressions {
                eprintln!("scale-gate: {r}");
            }
            return ExitCode::FAILURE;
        }
        println!("scale-gate: all deterministic counters within {TOLERANCE_PCT}% of {path}");
    }
    ExitCode::SUCCESS
}

//! Cluster administration: `dfsadmin -report`, the balancer, and
//! decommissioning drills.
//!
//! The myHadoop submission script ran `dfsadmin`-style health checks
//! ("check HDFS' health status") before launching the example job; the
//! balancer and decommissioning are the admin tools staff reach for after
//! the kind of node churn the Version-1 semester produced.

use std::fmt;

use hl_cluster::network::ClusterNet;
use hl_common::prelude::*;
use hl_common::units::ByteSize;

use crate::client::{Dfs, Timed};

/// One DataNode row of the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataNodeReportRow {
    /// Node.
    pub node: NodeId,
    /// Daemon up?
    pub alive: bool,
    /// Draining?
    pub decommissioning: bool,
    /// Capacity in bytes.
    pub capacity: u64,
    /// Used bytes.
    pub used: u64,
    /// Blocks held.
    pub blocks: usize,
}

impl DataNodeReportRow {
    /// Disk utilization in [0,1].
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.used as f64 / self.capacity as f64
        }
    }
}

/// The `dfsadmin -report` snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct DfsAdminReport {
    /// Per-node rows.
    pub nodes: Vec<DataNodeReportRow>,
    /// Under-replicated block count.
    pub under_replicated: usize,
    /// Missing block count.
    pub missing: usize,
    /// Safe mode on?
    pub safemode: bool,
}

/// Build the report.
pub fn report(dfs: &Dfs) -> DfsAdminReport {
    let live = dfs.namenode.live_datanodes();
    let decom = dfs.namenode.decommissioning_nodes();
    let nodes = dfs
        .datanode_ids()
        .into_iter()
        .filter_map(|n| {
            let dn = dfs.datanode(n)?;
            Some(DataNodeReportRow {
                node: n,
                alive: dn.alive && live.contains(&n),
                decommissioning: decom.contains(&n),
                capacity: dn.capacity,
                used: dn.used_bytes(),
                blocks: dn.num_blocks(),
            })
        })
        .collect();
    DfsAdminReport {
        nodes,
        under_replicated: dfs.namenode.under_replicated().len(),
        missing: dfs.namenode.missing_blocks().len(),
        safemode: dfs.namenode.safemode.is_on(),
    }
}

impl DfsAdminReport {
    /// Max-minus-min node utilization — what the balancer minimizes.
    fn utilization_spread(&self) -> f64 {
        let utils: Vec<f64> =
            self.nodes.iter().filter(|n| n.alive).map(|n| n.utilization()).collect();
        match (utils.iter().cloned().reduce(f64::max), utils.iter().cloned().reduce(f64::min)) {
            (Some(max), Some(min)) => max - min,
            _ => 0.0,
        }
    }
}

impl fmt::Display for DfsAdminReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_cap: u64 = self.nodes.iter().map(|n| n.capacity).sum();
        let total_used: u64 = self.nodes.iter().map(|n| n.used).sum();
        writeln!(f, "Configured Capacity: {}", ByteSize::display(total_cap))?;
        writeln!(f, "DFS Used: {}", ByteSize::display(total_used))?;
        writeln!(f, "Under replicated blocks: {}", self.under_replicated)?;
        writeln!(f, "Missing blocks: {}", self.missing)?;
        writeln!(f, "Safe mode is {}", if self.safemode { "ON" } else { "OFF" })?;
        writeln!(
            f,
            "Datanodes available: {} ({} total, {} dead)",
            self.nodes.iter().filter(|n| n.alive).count(),
            self.nodes.len(),
            self.nodes.iter().filter(|n| !n.alive).count()
        )?;
        for n in &self.nodes {
            writeln!(
                f,
                "Name: {} ({})\n  DFS Used: {} ({:.2}%)  Blocks: {}",
                n.node,
                match (n.alive, n.decommissioning) {
                    (false, _) => "Dead",
                    (true, true) => "Decommission in progress",
                    (true, false) => "In Service",
                },
                ByteSize::display(n.used),
                n.utilization() * 100.0,
                n.blocks
            )?;
        }
        Ok(())
    }
}

/// Result of one balancer run.
#[derive(Debug, Clone, PartialEq)]
pub struct BalancerReport {
    /// Replica moves performed.
    pub moves: usize,
    /// Bytes moved.
    pub bytes_moved: u64,
    /// Utilization spread before.
    pub spread_before: f64,
    /// Utilization spread after.
    pub spread_after: f64,
    /// When the balancer finished.
    pub completed_at: SimTime,
}

/// Run the balancer: move replicas from over- to under-utilized nodes
/// until every live node sits within `threshold` of the mean utilization
/// (or no legal move remains). Charged like any other transfer.
// lint:allow(R9): the HDFS balancer, an admin tool of the HDFS lab; tests/admin_tools.rs runs it
pub fn balance(
    dfs: &mut Dfs,
    net: &mut ClusterNet,
    now: SimTime,
    threshold: f64,
    max_moves: usize,
) -> BalancerReport {
    let spread_before = report(dfs).utilization_spread();
    let mut t = now;
    let mut moves = 0;
    let mut bytes_moved = 0;

    for _ in 0..max_moves {
        let rows: Vec<_> =
            report(dfs).nodes.into_iter().filter(|n| n.alive && !n.decommissioning).collect();
        if rows.len() < 2 {
            break;
        }
        let mean: f64 =
            rows.iter().map(DataNodeReportRow::utilization).sum::<f64>() / rows.len() as f64;
        let over = rows
            .iter()
            .filter(|n| n.utilization() > mean + threshold)
            .max_by(|a, b| a.utilization().total_cmp(&b.utilization()));
        // HDFS pairs over-utilized sources with under-utilized targets,
        // falling back to merely below-average targets (with low overall
        // utilization the strict under band is empty).
        let under = rows
            .iter()
            .filter(|n| n.utilization() < mean - threshold)
            .min_by(|a, b| a.utilization().total_cmp(&b.utilization()))
            .or_else(|| {
                rows.iter()
                    .filter(|n| n.utilization() < mean)
                    .min_by(|a, b| a.utilization().total_cmp(&b.utilization()))
            });
        let (Some(src), Some(dst)) = (over, under) else { break };

        // Pick a block on src that dst doesn't hold. Either daemon
        // vanishing mid-run just ends the balancing pass.
        let Some(src_dn) = dfs.datanode(src.node) else { break };
        let candidate = src_dn
            .block_report()
            .into_iter()
            .find(|r| dfs.datanode(dst.node).is_some_and(|dn| !dn.has_block(r.id)));
        let Some(meta) = candidate else { break };
        let (block, len) = (meta.id, meta.len);

        // Copy src -> dst, then drop the src replica.
        let Some(payload) = dfs.datanode(src.node).and_then(|dn| dn.payload(block)).cloned() else {
            break;
        };
        let write = net.op(t, |net| {
            let read = net.read_local_disk(t, src.node, len);
            let xfer = net.transfer(read.end, src.node, dst.node, len);
            net.write_local_disk(xfer.end, dst.node, len)
        });
        let Some(dst_dn) = dfs.datanode_mut(dst.node) else { break };
        if dst_dn.store_block(block, payload).is_err() {
            break;
        }
        // Tell the NameNode: new replica first, then invalidate the old.
        let cmds = dfs.namenode.block_received(write.end, dst.node, block);
        dfs.apply_commands(net, write.end, &cmds);
        let mut src_report = match dfs.datanode(src.node) {
            Some(dn) => dn.block_report(),
            None => break,
        };
        src_report.retain(|r| r.id != block);
        dfs.namenode.process_block_report(write.end, src.node, &src_report);
        if let Some(dn) = dfs.datanode_mut(src.node) {
            dn.delete_block(block);
        }
        t = write.end;
        moves += 1;
        bytes_moved += len;
    }

    BalancerReport {
        moves,
        bytes_moved,
        spread_before,
        spread_after: report(dfs).utilization_spread(),
        completed_at: t,
    }
}

/// Drain a node completely: start decommission, advance the clock a
/// heartbeat interval at a time until the protocol has given every replica
/// a home elsewhere, then retire the node. Returns the finish time.
pub fn decommission_node(
    dfs: &mut Dfs,
    net: &mut ClusterNet,
    now: SimTime,
    node: NodeId,
) -> Result<Timed<()>> {
    dfs.namenode.start_decommission(node);
    let step = dfs.namenode.heartbeat_interval();
    // Give the drain a generous virtual-time budget: the worst case is
    // re-replicating the node's whole disk over the cluster fabric, so a
    // day of simulated protocol is orders of magnitude more than enough.
    let deadline = now + SimDuration::from_mins(24 * 60);
    let mut t = now;
    while !dfs.namenode.decommission_complete(node) {
        t += step;
        dfs.advance_to(net, t);
        if t > deadline {
            // Name the blocks that are stuck, not just the fact: the
            // operator needs to know *what* cannot find a new home.
            let stuck = dfs.namenode.decommission_stuck_blocks(node);
            let mut listed: Vec<String> = stuck.iter().take(8).map(|b| b.to_string()).collect();
            if stuck.len() > listed.len() {
                listed.push(format!("... {} more", stuck.len() - listed.len()));
            }
            return Err(HlError::Internal(format!(
                "decommission of {node} stalled past {}: {} block(s) still pinned [{}]",
                deadline,
                stuck.len(),
                listed.join(", ")
            )));
        }
    }
    // Retire: the daemon stops and the operator removes the node from the
    // include file; the NameNode forgets it completely.
    dfs.crash_datanode(node);
    dfs.namenode.unregister_datanode(node);
    Ok(Timed { value: (), completed_at: t })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_cluster::node::ClusterSpec;
    use hl_common::config::keys;

    fn setup(nodes: usize) -> (Dfs, ClusterNet) {
        let mut spec = ClusterSpec::course_hadoop(nodes);
        spec.node.disk_bytes = 1 << 20; // 1 MiB disks: utilization visible
        let mut config = Configuration::with_defaults();
        config.set(keys::DFS_BLOCK_SIZE, 4096u64);
        config.set(keys::DFS_REPLICATION, 2);
        (Dfs::format(&config, &spec).unwrap(), ClusterNet::new(&spec))
    }

    #[test]
    fn report_reflects_cluster_state() {
        let (mut dfs, mut net) = setup(4);
        dfs.namenode.mkdirs("/d").unwrap();
        dfs.put(&mut net, SimTime::ZERO, "/d/f", &[7u8; 50_000], None).unwrap();
        let r = report(&dfs);
        assert_eq!(r.nodes.len(), 4);
        assert_eq!(r.under_replicated, 0);
        assert!(!r.safemode);
        assert_eq!(r.nodes.iter().map(|n| n.blocks).sum::<usize>(), 13 * 2);
        let text = r.to_string();
        assert!(text.contains("In Service"));
        assert!(text.contains("Under replicated blocks: 0"));
        // Kill a node: the report shows it dead. The survivors keep
        // heartbeating, so only node001 times out.
        dfs.crash_datanode(NodeId(1));
        let later = SimTime::ZERO + SimDuration::from_mins(20);
        for n in [0u32, 2, 3] {
            dfs.namenode.heartbeat(later, NodeId(n), u64::MAX / 2);
        }
        dfs.namenode.check_heartbeats(later);
        let r2 = report(&dfs);
        assert!(r2.to_string().contains("Dead"));
        assert!(r2.under_replicated > 0);
    }

    #[test]
    fn balancer_reduces_spread() {
        let (mut dfs, mut net) = setup(4);
        dfs.namenode.mkdirs("/d").unwrap();
        // Write with replication 1 so placement rotation leaves imbalance,
        // then make it worse by writing from one node.
        for i in 0..12 {
            dfs.put_with_replication(
                &mut net,
                SimTime::ZERO,
                &format!("/d/f{i}"),
                &[1u8; 20_000],
                Some(NodeId(0)),
                1,
            )
            .unwrap();
        }
        let before = report(&dfs).utilization_spread();
        assert!(before > 0.1, "need imbalance to balance: {before}");
        let result = balance(&mut dfs, &mut net, SimTime::ZERO, 0.05, 200);
        assert!(result.moves > 0);
        assert!(result.spread_after < result.spread_before, "{result:?}");
        assert!(result.bytes_moved > 0);
        // Data still reads back.
        let got = dfs.read(&mut net, result.completed_at, "/d/f0", None).unwrap();
        assert_eq!(got.value.len(), 20_000);
    }

    #[test]
    fn decommission_drains_without_data_loss() {
        let (mut dfs, mut net) = setup(5);
        dfs.namenode.mkdirs("/d").unwrap();
        dfs.put(&mut net, SimTime::ZERO, "/d/f", &[9u8; 40_000], None).unwrap();
        let victim = dfs.file_blocks("/d/f").unwrap()[0].2[0];
        let done = decommission_node(&mut dfs, &mut net, SimTime::ZERO, victim).unwrap();
        // All blocks fully replicated on the survivors.
        for (_, _, holders) in dfs.file_blocks("/d/f").unwrap() {
            let holders: Vec<_> = holders.into_iter().filter(|h| *h != victim).collect();
            assert!(holders.len() >= 2, "{holders:?}");
        }
        let got = dfs.read(&mut net, done.completed_at, "/d/f", None).unwrap();
        assert_eq!(got.value, vec![9u8; 40_000]);
        // The report shows the node dead (retired).
        assert!(report(&dfs).to_string().contains("Dead"));
    }
}

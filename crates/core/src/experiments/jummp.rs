//! JUMMP — the authors' own follow-up (paper reference [11]: Moody, Ngo,
//! Duffy & Apon, *JUMMP: Job Uninterrupted Maneuverable MapReduce
//! Platform*, IEEE Cluster 2013).
//!
//! The course's dynamic clusters die when the scheduler preempts their
//! nodes ("their jobs can be preempted from the system by higher priority
//! research jobs"). JUMMP's idea: when a member node is about to be
//! preempted, *maneuver* — gracefully drain it onto a freshly-acquired
//! replacement so the Hadoop cluster "moves" across the machine without
//! ever losing data.
//!
//! The drill runs the same preemption schedule against two arms:
//!
//! * **maneuvering (JUMMP)** — each preemption warning triggers a
//!   decommission-drain onto a spare node before the victim disappears;
//! * **naive (myHadoop)** — the victims just vanish (one research
//!   reservation grabs them all at once); the cluster shrinks.
//!
//! After `k ≥ replication` preemptions the naive arm starts losing blocks
//! outright; the JUMMP arm stays whole and still answers queries.

use std::fmt;

use hl_cluster::network::ClusterNet;
use hl_cluster::node::ClusterSpec;
use hl_common::prelude::*;
use hl_common::units::ByteSize;
use hl_datagen::corpus::CorpusGen;
use hl_dfs::admin;
use hl_dfs::client::Dfs;

use super::Scale;

/// One arm's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JummpArm {
    /// Arm label.
    pub name: &'static str,
    /// Preemptions survived.
    pub preemptions: usize,
    /// Live DataNodes at the end.
    pub live_nodes: usize,
    /// Blocks with zero replicas at the end (data loss).
    pub missing_blocks: usize,
    /// Under-replicated blocks at the end.
    pub under_replicated: usize,
    /// Whether the staged file still reads back intact.
    pub data_intact: bool,
    /// Virtual time consumed by the drill.
    pub elapsed: SimDuration,
}

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct JummpResult {
    /// Cluster membership size.
    pub members: usize,
    /// Data staged.
    pub data_bytes: u64,
    /// Maneuvering arm.
    pub jummp: JummpArm,
    /// Naive arm.
    pub naive: JummpArm,
}

fn run_arm(scale: Scale, maneuver: bool) -> (JummpArm, usize, u64) {
    let members = 6usize;
    let spares = 6usize;
    let total = members + spares;
    let spec = ClusterSpec::course_hadoop(total);
    let mut config = Configuration::with_defaults();
    config.set(
        hl_common::config::keys::DFS_BLOCK_SIZE,
        scale.pick(16 * ByteSize::KIB, 64 * ByteSize::KIB),
    );
    let mut dfs = Dfs::format(&config, &spec).unwrap();
    let mut net = ClusterNet::new(&spec);

    // Spares start outside the cluster (their daemons are down).
    for n in members..total {
        dfs.crash_datanode(NodeId(n as u32));
    }
    // The NameNode learns the spares are gone (their heartbeats stopped)
    // before any placement.
    let later = SimTime::ZERO + SimDuration::from_mins(20);
    dfs.advance_to(&mut net, later);

    // Stage the dataset on the 6 members.
    let (text, _) = CorpusGen::new(99).with_vocab(200).generate(scale.pick(20_000, 100_000));
    dfs.namenode.mkdirs("/data").unwrap();
    let put = dfs.put(&mut net, later, "/data/corpus.txt", text.as_bytes(), None).unwrap();
    let mut now = put.completed_at;

    // Preemption schedule: 4 members get preempted, one by one.
    let preemptions = 4usize;
    let mut next_spare = members as u32;
    for k in 0..preemptions {
        let victim = NodeId(k as u32);
        if maneuver {
            // JUMMP: acquire the replacement first, then drain the victim.
            let spare = NodeId(next_spare);
            next_spare += 1;
            dfs.datanode_mut(spare).unwrap().restart();
            let free = dfs.datanode(spare).unwrap().free_bytes();
            dfs.namenode.register_datanode(now, spare, free);
            let done = admin::decommission_node(&mut dfs, &mut net, now, victim).unwrap();
            now = done.completed_at;
        } else {
            // Naive: the scheduler just takes the node. A single research
            // reservation preempts several nodes in the same instant, so
            // the victims vanish back-to-back with no recovery window.
            dfs.crash_datanode(victim);
        }
    }
    if !maneuver {
        // Only after the preemption wave does the monitor get to react.
        now += SimDuration::from_secs(3 * 200) + SimDuration::from_mins(10);
        dfs.advance_to(&mut net, now);
    }

    let missing = dfs.namenode.missing_blocks().len();
    let under = dfs.namenode.under_replicated().len();
    let live = dfs.namenode.live_datanodes().len();
    let data_intact = dfs
        .read(&mut net, now, "/data/corpus.txt", None)
        .map(|got| got.value == text.as_bytes())
        .unwrap_or(false);

    (
        JummpArm {
            name: if maneuver { "JUMMP (maneuvering)" } else { "naive (myHadoop)" },
            preemptions,
            live_nodes: live,
            missing_blocks: missing,
            under_replicated: under,
            data_intact,
            elapsed: now.since(SimTime::ZERO),
        },
        members,
        text.len() as u64,
    )
}

/// Run both arms on the same preemption schedule.
pub fn run(scale: Scale) -> JummpResult {
    let (jummp, members, data_bytes) = run_arm(scale, true);
    let (naive, _, _) = run_arm(scale, false);
    JummpResult { members, data_bytes, jummp, naive }
}

impl fmt::Display for JummpResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "JUMMP drill — {}-member cluster, {} staged, 4 members preempted in turn",
            self.members,
            ByteSize::display(self.data_bytes)
        )?;
        writeln!(
            f,
            "  {:<20}  {:>10}  {:>14}  {:>16}  {:>11}  {:>10}",
            "arm", "live nodes", "missing blocks", "under-replicated", "data intact", "elapsed"
        )?;
        for a in [&self.jummp, &self.naive] {
            writeln!(
                f,
                "  {:<20}  {:>10}  {:>14}  {:>16}  {:>11}  {:>10}",
                a.name,
                a.live_nodes,
                a.missing_blocks,
                a.under_replicated,
                a.data_intact,
                a.elapsed.to_string(),
            )?;
        }
        writeln!(
            f,
            "  -> maneuvering keeps the platform whole through preemption; the naive \
             cluster bleeds nodes{}",
            if self.naive.missing_blocks > 0 { " and loses data outright" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maneuvering_survives_what_kills_the_naive_cluster() {
        let r = run(Scale::Quick);
        // JUMMP: full membership, no loss, data readable.
        assert_eq!(r.jummp.live_nodes, 6, "replacements keep membership at 6");
        assert_eq!(r.jummp.missing_blocks, 0);
        assert!(r.jummp.data_intact, "JUMMP data must survive");
        // Naive: shrunk to 2 nodes; with 3x replication and 4 preemptions
        // some blocks lost every replica.
        assert_eq!(r.naive.live_nodes, 2);
        assert!(r.naive.missing_blocks > 0, "4 preemptions at replication 3 must lose blocks");
        assert!(!r.naive.data_intact);
    }
}

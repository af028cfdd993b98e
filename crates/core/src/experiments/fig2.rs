//! Figure 2 — the HDFS⇄MapReduce integration, made observable.
//!
//! The figure's three arrows become three measurements on a real job run:
//!
//! 1. *"DataNodes report block information to the NameNode"* /
//!    *"Block metadata lives in memory"* — the fsck block→location map and
//!    the NameNode's resident metadata bytes;
//! 2. *"JobTracker ... receives block-level information"* — the input
//!    splits carry replica locations;
//! 3. *"JobTracker assigns work ... based on block location information"*
//!    — ablated: the same WordCount with locality-aware vs FIFO
//!    assignment, comparing the task-locality mix, network traffic, and
//!    job time.

use std::fmt;

use hl_cluster::node::ClusterSpec;
use hl_common::counters::FileSystemCounter;
use hl_common::prelude::*;
use hl_common::units::ByteSize;
use hl_datagen::corpus::CorpusGen;
use hl_mapreduce::engine::MrCluster;
use hl_workloads::wordcount;

use super::Scale;

/// One scheduling arm's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulingArm {
    /// "locality-aware" or "fifo".
    pub name: &'static str,
    /// (data-local, rack-local, off-rack) map task counts.
    pub locality: (usize, usize, usize),
    /// Bytes read across the network for map input.
    pub remote_input_bytes: u64,
    /// Job elapsed virtual time.
    pub elapsed: SimDuration,
}

/// The full Figure 2 experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Result {
    /// Input size staged.
    pub input_bytes: u64,
    /// Blocks × replicas rows from fsck (first few shown in Display).
    pub block_map: Vec<(u64, Vec<String>)>,
    /// NameNode RAM held by metadata.
    pub metadata_ram: u64,
    /// Locality-aware vs FIFO.
    pub arms: Vec<SchedulingArm>,
}

fn run_arm(
    scale: Scale,
    locality_aware: bool,
) -> (SchedulingArm, Vec<(u64, Vec<String>)>, u64, u64) {
    let mut config = Configuration::with_defaults();
    // Block size scaled with the corpus so the job always has a few dozen
    // map tasks (the real course data was many 64 MB blocks; our physical
    // sample is smaller).
    config.set(
        hl_common::config::keys::DFS_BLOCK_SIZE,
        scale.pick(16 * ByteSize::KIB, 512 * ByteSize::KIB),
    );
    config.set(hl_common::config::keys::MAPRED_MAP_SLOTS, 2);
    let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(8), config).unwrap();
    cluster.locality_aware = locality_aware;

    let words = scale.pick(40_000, 2_000_000);
    let (text, _) = CorpusGen::new(2014).with_vocab(500).generate(words);
    let input_bytes = text.len() as u64;
    cluster.dfs.namenode.mkdirs("/in").unwrap();
    let t = cluster.now;
    let put =
        cluster.dfs.put(&mut cluster.net, t, "/in/corpus.txt", text.as_bytes(), None).unwrap();
    cluster.now = put.completed_at;
    cluster.net.reset_accounting();

    let job = wordcount::wordcount("/in/corpus.txt", "/out/wc", 4);
    let report = cluster.run_job(&job).unwrap();

    let fsck = hl_dfs::fsck::fsck(&cluster.dfs, "/in").unwrap();
    let block_map: Vec<(u64, Vec<String>)> = fsck
        .files
        .iter()
        .flat_map(|fh| fh.detail.iter().map(|(b, _, _, hs)| (*b, hs.clone())))
        .collect();

    (
        SchedulingArm {
            name: if locality_aware { "locality-aware" } else { "fifo" },
            locality: report.locality_histogram(),
            remote_input_bytes: report.counters.fs(FileSystemCounter::RemoteBytesRead),
            elapsed: report.elapsed(),
        },
        block_map,
        fsck.metadata_ram,
        input_bytes,
    )
}

/// Run both arms.
pub fn run(scale: Scale) -> Fig2Result {
    let (aware, block_map, metadata_ram, input_bytes) = run_arm(scale, true);
    let (fifo, _, _, _) = run_arm(scale, false);
    Fig2Result { input_bytes, block_map, metadata_ram, arms: vec![aware, fifo] }
}

impl fmt::Display for Fig2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 2 — HDFS/MapReduce integration on the 8-node course cluster \
             ({} input, {} blocks)",
            ByteSize::display(self.input_bytes),
            self.block_map.len()
        )?;
        writeln!(
            f,
            "  NameNode metadata resident in RAM: {}",
            ByteSize::display(self.metadata_ram)
        )?;
        writeln!(f, "  block -> DataNode map (first 4 of {}):", self.block_map.len())?;
        for (b, holders) in self.block_map.iter().take(4) {
            writeln!(f, "    blk_{b} -> [{}]", holders.join(", "))?;
        }
        writeln!(
            f,
            "  {:>16}  {:>10}  {:>10}  {:>9}  {:>13}  {:>10}",
            "scheduler", "data-local", "rack-local", "off-rack", "remote input", "job time"
        )?;
        for a in &self.arms {
            writeln!(
                f,
                "  {:>16}  {:>10}  {:>10}  {:>9}  {:>13}  {:>10}",
                a.name,
                a.locality.0,
                a.locality.1,
                a.locality.2,
                ByteSize::display(a.remote_input_bytes).to_string(),
                a.elapsed.to_string(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_aware_dominates_fifo() {
        let r = run(Scale::Quick);
        let aware = &r.arms[0];
        let fifo = &r.arms[1];
        let maps = aware.locality.0 + aware.locality.1 + aware.locality.2;
        assert!(maps >= 10, "need a real task population, got {maps}");
        // Locality-aware: nearly everything data-local.
        assert!(aware.locality.0 * 10 >= maps * 9, "aware: {:?} of {maps}", aware.locality);
        // FIFO: a clear chunk is remote (3 of 8 nodes hold any block).
        assert!(fifo.locality.0 < maps * 3 / 4, "fifo should lose locality: {:?}", fifo.locality);
        assert!(fifo.remote_input_bytes > aware.remote_input_bytes);
        assert!(fifo.elapsed >= aware.elapsed);
    }

    #[test]
    fn metadata_and_block_map_are_reported() {
        let r = run(Scale::Quick);
        assert!(r.metadata_ram > 0);
        assert!(!r.block_map.is_empty());
        for (_, holders) in &r.block_map {
            assert_eq!(holders.len(), 3, "3x replication visible in the map");
        }
    }
}

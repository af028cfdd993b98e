//! `hadoop fsck` — the health report.
//!
//! Assignment 2 asks students to "execute and record the output of a number
//! of Hadoop shell commands to observe how HDFS transforms, stores,
//! replicates, and abstracts the actual data". `fsck /` is the centerpiece:
//! it walks the namespace, resolves every block to its replica locations
//! (straight out of NameNode RAM — Figure 2's point), and totals
//! under-replicated / missing blocks into a HEALTHY or CORRUPT verdict.

use std::fmt;

use hl_common::units::ByteSize;

use crate::client::Dfs;
use crate::lease::LeaseState;
use crate::namenode::NameNode;

/// Health of one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileHealth {
    /// File path.
    pub path: String,
    /// Length in bytes.
    pub len: u64,
    /// Total blocks.
    pub blocks: usize,
    /// Blocks with fewer live replicas than the target.
    pub under_replicated: usize,
    /// Blocks with zero live replicas.
    pub missing: usize,
    /// Write-lease state when the file is open for write (`None` for
    /// closed files). `Recovering` renders as `RECOVERING`, the other
    /// states as `OPEN_FOR_WRITE`.
    pub lease: Option<LeaseState>,
    /// Per-block `(block-id, expected, live, holders)` detail rows.
    pub detail: Vec<(u64, u32, usize, Vec<String>)>,
}

/// The whole report.
#[derive(Debug, Clone, PartialEq)]
pub struct FsckReport {
    /// Path the check started at.
    pub root: String,
    /// Per-file health, namespace order.
    pub files: Vec<FileHealth>,
    /// Total size under `root`.
    pub total_size: u64,
    /// Total blocks.
    pub total_blocks: usize,
    /// Total under-replicated blocks.
    pub under_replicated: usize,
    /// Total missing blocks.
    pub missing: usize,
    /// Files currently open for write (including those in recovery).
    pub open_files: usize,
    /// Average replication over all blocks.
    pub avg_replication: f64,
    /// Live DataNode count.
    pub live_datanodes: usize,
    /// Approximate NameNode RAM held by metadata.
    pub metadata_ram: u64,
}

impl FsckReport {
    /// `fsck` is healthy when no block is missing (under-replication is a
    /// warning, not corruption — matching HDFS).
    fn is_healthy(&self) -> bool {
        self.missing == 0
    }
}

/// Run fsck over `root`.
pub fn fsck(dfs: &Dfs, root: &str) -> hl_common::Result<FsckReport> {
    let nn: &NameNode = &dfs.namenode;
    let files_meta = nn.namespace().files_under(root)?;
    let mut files = Vec::new();
    let mut total_size = 0;
    let mut total_blocks = 0;
    let mut under_replicated = 0;
    let mut missing = 0;
    let mut open_files = 0;
    let mut replica_sum = 0usize;

    for (path, f) in files_meta {
        let lease = nn.lease(&path).map(|l| l.state);
        if lease.is_some() {
            open_files += 1;
        }
        let mut health = FileHealth {
            path,
            len: f.len,
            blocks: f.blocks.len(),
            under_replicated: 0,
            missing: 0,
            lease,
            detail: Vec::new(),
        };
        for (i, &b) in f.blocks.iter().enumerate() {
            let locations = nn.block_locations(b);
            let live = locations.len();
            replica_sum += live;
            // The trailing block of an open file is still under
            // construction: no replica yet is the pipeline mid-flight (or
            // a crashed writer's tail awaiting lease recovery), not data
            // loss — HDFS fsck likewise skips open blocks.
            let under_construction = lease.is_some() && i + 1 == f.blocks.len() && live == 0;
            if under_construction {
                // Counted in detail, excluded from the verdict.
            } else if live == 0 {
                health.missing += 1;
            } else if (live as u32) < f.replication {
                health.under_replicated += 1;
            }
            health.detail.push((
                b.0,
                f.replication,
                live,
                locations.iter().map(|n| n.to_string()).collect(),
            ));
        }
        total_size += f.len;
        total_blocks += health.blocks;
        under_replicated += health.under_replicated;
        missing += health.missing;
        files.push(health);
    }

    Ok(FsckReport {
        root: root.to_string(),
        files,
        total_size,
        total_blocks,
        under_replicated,
        missing,
        open_files,
        avg_replication: if total_blocks == 0 {
            0.0
        } else {
            replica_sum as f64 / total_blocks as f64
        },
        live_datanodes: nn.live_datanodes().len(),
        metadata_ram: nn.metadata_ram_bytes(),
    })
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FSCK started for path {}", self.root)?;
        for file in &self.files {
            write!(f, "{} {} bytes, {} block(s): ", file.path, file.len, file.blocks)?;
            match file.lease {
                Some(LeaseState::Recovering) => write!(f, "RECOVERING ")?,
                Some(_) => write!(f, "OPEN_FOR_WRITE ")?,
                None => {}
            }
            if file.missing > 0 {
                writeln!(f, "MISSING {} blocks!", file.missing)?;
            } else if file.under_replicated > 0 {
                writeln!(f, "Under replicated ({} blocks)", file.under_replicated)?;
            } else {
                writeln!(f, "OK")?;
            }
            for (blk, expected, live, holders) in &file.detail {
                writeln!(
                    f,
                    "  blk_{blk} len={} repl={live}/{expected} [{}]",
                    file.len,
                    holders.join(", ")
                )?;
            }
        }
        writeln!(f, "Status: {}", if self.is_healthy() { "HEALTHY" } else { "CORRUPT" })?;
        writeln!(
            f,
            " Total size:\t{} B ({})",
            self.total_size,
            ByteSize::display(self.total_size)
        )?;
        writeln!(f, " Total blocks:\t{}", self.total_blocks)?;
        writeln!(f, " Under-replicated blocks:\t{}", self.under_replicated)?;
        writeln!(f, " Missing blocks:\t{}", self.missing)?;
        writeln!(f, " Files open for write:\t{}", self.open_files)?;
        writeln!(f, " Average block replication:\t{:.4}", self.avg_replication)?;
        writeln!(f, " Live DataNodes:\t{}", self.live_datanodes)?;
        writeln!(
            f,
            " NameNode metadata resident in RAM:\t{}",
            ByteSize::display(self.metadata_ram)
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_cluster::network::ClusterNet;
    use hl_cluster::node::ClusterSpec;
    use hl_common::config::keys;
    use hl_common::prelude::*;

    fn setup() -> (Dfs, ClusterNet) {
        let spec = ClusterSpec::course_hadoop(4);
        let mut config = Configuration::with_defaults();
        config.set(keys::DFS_BLOCK_SIZE, 512u64);
        (Dfs::format(&config, &spec).unwrap(), ClusterNet::new(&spec))
    }

    #[test]
    fn healthy_report() {
        let (mut dfs, mut net) = setup();
        dfs.namenode.mkdirs("/data").unwrap();
        dfs.put(&mut net, SimTime::ZERO, "/data/f", &[1u8; 1200], None).unwrap();
        let report = fsck(&dfs, "/").unwrap();
        assert!(report.is_healthy());
        assert_eq!(report.total_blocks, 3);
        assert_eq!(report.total_size, 1200);
        assert!((report.avg_replication - 3.0).abs() < 1e-9);
        assert_eq!(report.live_datanodes, 4);
        let text = report.to_string();
        assert!(text.contains("Status: HEALTHY"));
        assert!(text.contains("/data/f"));
        assert!(text.contains("repl=3/3"));
    }

    #[test]
    fn under_replication_is_flagged_but_healthy() {
        let (mut dfs, mut net) = setup();
        dfs.namenode.mkdirs("/d").unwrap();
        dfs.put(&mut net, SimTime::ZERO, "/d/f", &[1u8; 100], None).unwrap();
        let (id, _, holders) = dfs.file_blocks("/d/f").unwrap()[0].clone();
        // Remove one replica from the NameNode's view via an empty report.
        dfs.namenode.process_block_report(SimTime(1), holders[0], &[]);
        let _ = id;
        let report = fsck(&dfs, "/").unwrap();
        assert!(report.is_healthy());
        assert_eq!(report.under_replicated, 1);
        assert!(report.to_string().contains("Under replicated"));
    }

    #[test]
    fn missing_blocks_mean_corrupt() {
        let (mut dfs, mut net) = setup();
        dfs.namenode.mkdirs("/d").unwrap();
        dfs.put(&mut net, SimTime::ZERO, "/d/f", &[1u8; 100], None).unwrap();
        let holders = dfs.file_blocks("/d/f").unwrap()[0].2.clone();
        for h in holders {
            dfs.namenode.process_block_report(SimTime(1), h, &[]);
        }
        let report = fsck(&dfs, "/").unwrap();
        assert!(!report.is_healthy());
        assert_eq!(report.missing, 1);
        assert!(report.to_string().contains("Status: CORRUPT"));
        assert!(report.to_string().contains("MISSING"));
    }

    #[test]
    fn open_files_show_lease_state_and_tail_is_not_missing() {
        let (mut dfs, mut net) = setup();
        dfs.namenode.mkdirs("/d").unwrap();
        dfs.put(&mut net, SimTime::ZERO, "/d/closed", &[2u8; 600], None).unwrap();
        // A writer that dies mid-file leaves /d/open under lease with an
        // allocated-but-unconfirmed trailing block.
        dfs.arm_pipeline_fault(crate::client::PipelineFault::CrashWriter { after_blocks: 1 });
        dfs.put(&mut net, SimTime::ZERO, "/d/open", &[3u8; 1200], None).unwrap_err();

        let report = fsck(&dfs, "/").unwrap();
        assert_eq!(report.open_files, 1);
        // The unconfirmed tail is under construction, not data loss.
        assert!(report.is_healthy(), "an open tail must not read as CORRUPT");
        assert_eq!(report.missing, 0);
        let text = report.to_string();
        assert!(text.contains("OPEN_FOR_WRITE"));
        assert!(text.contains("Files open for write:\t1"));
        assert!(!text.contains("RECOVERING"));

        // Kick off recovery: fsck now renders the RECOVERING state.
        assert!(!dfs.namenode.recover_lease("/d/open").unwrap());
        let text = fsck(&dfs, "/").unwrap().to_string();
        assert!(text.contains("RECOVERING"));

        // The lease check finalizes the file; fsck goes quiet again.
        dfs.namenode.check_leases(SimTime(1));
        let report = fsck(&dfs, "/").unwrap();
        assert_eq!(report.open_files, 0);
        assert!(report.is_healthy());
        assert!(!report.to_string().contains("OPEN_FOR_WRITE"));
    }

    #[test]
    fn scoped_fsck_only_covers_subtree() {
        let (mut dfs, mut net) = setup();
        dfs.namenode.mkdirs("/a").unwrap();
        dfs.namenode.mkdirs("/b").unwrap();
        dfs.put(&mut net, SimTime::ZERO, "/a/f", &[1u8; 100], None).unwrap();
        dfs.put(&mut net, SimTime::ZERO, "/b/g", &[1u8; 600], None).unwrap();
        let report = fsck(&dfs, "/b").unwrap();
        assert_eq!(report.files.len(), 1);
        assert_eq!(report.total_blocks, 2);
        assert!(fsck(&dfs, "/missing").is_err());
    }
}

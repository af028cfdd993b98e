//! N5 — dataset staging times (Section III-C).
//!
//! "As the size of the Google Trace data is relatively large (171GB), it
//! can take over an hour for students to stage the data into the temporary
//! Hadoop cluster. ... [the Yahoo dataset] is small enough so that it
//! takes less than five minutes to load the data into the HDFS file
//! system."
//!
//! The staging pipeline: a single `copyFromLocal` stream pulls the dataset
//! from the student's scratch space on the campus parallel store (one
//! stream — calibrated ~45 MiB/s on the 2013 machine) while HDFS absorbs
//! it through the pipeline writer. The slower of the two paths bounds the
//! staging time.

use std::fmt;

use hl_cluster::node::ClusterSpec;
use hl_cluster::resource::PipeResource;
use hl_common::prelude::*;
use hl_common::units::ByteSize;
use hl_dfs::client::Dfs;

use super::Scale;

/// Single-stream bandwidth out of the campus parallel store (calibrated:
/// one `hadoop fs -copyFromLocal` over NFS-mounted scratch, 2013).
const SOURCE_STREAM_BW: u64 = 45 * ByteSize::MIB;

/// One dataset's staging measurement.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StagingRow {
    /// Dataset name.
    pub name: &'static str,
    /// Modeled size.
    pub bytes: u64,
    /// Time to read the source stream.
    pub source_time: SimDuration,
    /// Time for HDFS to absorb (pipeline writes, 3× replication).
    pub hdfs_time: SimDuration,
    /// Overall staging time (streams overlap; the slower path bounds).
    pub total: SimDuration,
    /// Blocks created.
    pub blocks: usize,
}

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct N5Result {
    /// Per-dataset rows.
    pub rows: Vec<StagingRow>,
}

/// Stage all four course datasets (virtual sizes are the published ones at
/// any scale — synthetic payloads make this cheap).
pub(crate) fn run(_scale: Scale) -> N5Result {
    let datasets: [(&str, u64); 4] = [
        ("MovieLens (assignment 1)", 250 * ByteSize::MIB),
        ("Yahoo! Music (assignment 2)", 10 * ByteSize::GIB),
        ("Airline on-time (labs)", 12 * ByteSize::GIB),
        ("Google trace (project)", 171 * ByteSize::GIB),
    ];
    let rows = datasets
        .iter()
        .map(|&(name, bytes)| {
            let spec = ClusterSpec::course_hadoop(8);
            let config = Configuration::with_defaults();
            let mut dfs = Dfs::format(&config, &spec).unwrap();
            let mut net = hl_cluster::network::ClusterNet::new(&spec);
            dfs.namenode.mkdirs("/data").unwrap();
            let put = dfs.put_synthetic(&mut net, SimTime::ZERO, "/data/set", bytes, None).unwrap();
            let hdfs_time = put.completed_at.since(SimTime::ZERO);
            let mut source = PipeResource::new("campus-scratch", SOURCE_STREAM_BW);
            let source_time = source.charge(SimTime::ZERO, bytes).end.since(SimTime::ZERO);
            StagingRow {
                name,
                bytes,
                source_time,
                hdfs_time,
                total: source_time.max(hdfs_time),
                blocks: dfs.file_blocks("/data/set").unwrap().len(),
            }
        })
        .collect();
    N5Result { rows }
}

impl fmt::Display for N5Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "N5 — staging into the temporary 8-node Hadoop cluster \
             (single source stream at {}ps)",
            ByteSize::display(SOURCE_STREAM_BW)
        )?;
        writeln!(
            f,
            "  {:<28}  {:>10}  {:>8}  {:>11}  {:>11}  {:>11}",
            "dataset", "size", "blocks", "source", "hdfs", "staging"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<28}  {:>10}  {:>8}  {:>11}  {:>11}  {:>11}",
                r.name,
                ByteSize::display(r.bytes).to_string(),
                r.blocks,
                r.source_time.to_string(),
                r.hdfs_time.to_string(),
                r.total.to_string(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staging_times_match_paper_claims() {
        let r = run(Scale::Quick);
        let by_name = |needle: &str| r.rows.iter().find(|row| row.name.contains(needle)).unwrap();
        // "less than five minutes" for the 10 GB Yahoo set.
        assert!(by_name("Yahoo").total < SimDuration::from_mins(5), "{}", by_name("Yahoo").total);
        // "over an hour" for the 171 GB Google trace.
        assert!(
            by_name("Google").total > SimDuration::from_hours(1),
            "{}",
            by_name("Google").total
        );
        // MovieLens is nearly instant.
        assert!(by_name("MovieLens").total < SimDuration::from_mins(1));
        // The airline set sits between Yahoo and Google.
        assert!(by_name("Airline").total > by_name("Yahoo").total);
        assert!(by_name("Airline").total < by_name("Google").total);
    }

    #[test]
    fn block_counts_follow_64mb_blocks() {
        let r = run(Scale::Quick);
        let google = r.rows.iter().find(|row| row.name.contains("Google")).unwrap();
        assert_eq!(google.blocks as u64, 171 * 1024 / 64); // 2736
    }
}

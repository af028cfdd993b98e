//! N4 — the same jar, serial vs on the cluster (Section III-B).
//!
//! "The first part of this assignment takes the jar files from the first
//! assignment and reruns them on the data on HDFS. The goal ... is to
//! demonstrate the ease in which Hadoop MapReduce can immediately speed up
//! the application without having to worry about parallel workload
//! division, process' ranks, etc."
//!
//! The identical airline job (same mapper/combiner/reducer types) runs in
//! the `LocalJobRunner` on one lane, then on the 8-node cluster over HDFS.

use std::fmt;

use hl_cluster::node::ClusterSpec;
use hl_common::prelude::*;
use hl_common::units::ByteSize;
use hl_datagen::airline::AirlineGen;
use hl_mapreduce::api::SideFiles;
use hl_mapreduce::engine::MrCluster;
use hl_mapreduce::local::LocalRunner;
use hl_workloads::airline;

use super::Scale;

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct N4Result {
    /// Flights processed.
    pub flights: usize,
    /// Serial (one-lane LocalJobRunner) virtual time.
    pub serial: SimDuration,
    /// Cluster job virtual time (excluding staging).
    pub cluster: SimDuration,
    /// Staging (copyFromLocal) time, reported separately like the lab did.
    pub staging: SimDuration,
    /// Whether serial and cluster outputs agreed.
    pub outputs_match: bool,
}

impl N4Result {
    /// Cluster speedup over serial execution.
    pub fn speedup(&self) -> f64 {
        self.serial.as_secs_f64() / self.cluster.as_secs_f64().max(1e-9)
    }
}

/// Run both modes over identical data.
pub fn run(scale: Scale) -> N4Result {
    let flights = scale.pick(800_000, 5_000_000);
    let (csv, _) = AirlineGen::new(77).generate(flights);

    // Serial: assignment-1 mode.
    let local = LocalRunner::serial()
        .run(
            &airline::avg_delay_combiner("/i", "/o"),
            &[("2008.csv".to_string(), csv.clone().into_bytes())],
            &SideFiles::new(),
        )
        .unwrap();
    let mut serial_out = local.output.clone();
    serial_out.sort();

    // Cluster: assignment-2 mode, same "jar".
    let mut config = Configuration::with_defaults();
    config.set(
        hl_common::config::keys::DFS_BLOCK_SIZE,
        scale.pick(ByteSize::MIB, 64 * ByteSize::MIB),
    );
    let mut c = MrCluster::new(ClusterSpec::course_hadoop(8), config).unwrap();
    c.dfs.namenode.mkdirs("/in").unwrap();
    let t0 = c.now;
    let put = c.dfs.put(&mut c.net, t0, "/in/2008.csv", csv.as_bytes(), None).unwrap();
    c.now = put.completed_at;
    let staging = put.completed_at.since(t0);
    let report = c.run_job(&airline::avg_delay_combiner("/in/2008.csv", "/out")).unwrap();
    let mut cluster_out: Vec<String> =
        c.read_output("/out").unwrap().lines().map(str::to_string).collect();
    cluster_out.sort();

    N4Result {
        flights,
        serial: local.virtual_time,
        cluster: report.elapsed(),
        staging,
        outputs_match: serial_out == cluster_out,
    }
}

impl fmt::Display for N4Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "N4 — same jar, serial vs 8-node cluster, {} flights", self.flights)?;
        writeln!(f, "  serial (LocalJobRunner, 1 lane): {}", self.serial)?;
        writeln!(
            f,
            "  cluster (8 nodes over HDFS):     {}  (+ staging {})",
            self.cluster, self.staging
        )?;
        writeln!(
            f,
            "  -> {:.1}x speedup with zero code changes; outputs identical: {}",
            self.speedup(),
            self.outputs_match
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_wins_with_identical_output() {
        let r = run(Scale::Quick);
        assert!(r.outputs_match);
        assert!(r.speedup() > 2.0, "speedup {:.2}", r.speedup());
        assert!(r.staging > SimDuration::ZERO);
    }
}

//! Figure 1 — compute/storage placement: HPC cluster vs Hadoop cluster.
//!
//! The paper's Figure 1 is an architecture diagram; the *claim* behind it
//! (Section I) is that "the typical computation/storage cluster
//! architecture of supercomputing clusters sometimes fails to support
//! data-intensive computing". We make that quantitative: a scan-heavy job
//! reads a dataset striped across N nodes, once on Figure 1(b)'s
//! local-disk layout and once through Figure 1(a)'s shared parallel store.
//! Local disks scale linearly with N; the shared store saturates at its
//! aggregate bandwidth, so past the crossover the HPC layout stops
//! scaling.

use std::fmt;

use hl_cluster::network::ClusterNet;
use hl_cluster::node::ClusterSpec;
use hl_common::prelude::*;
use hl_common::units::ByteSize;

use super::Scale;

/// One cluster size's measurements.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Fig1Point {
    /// Nodes in the cluster.
    pub nodes: usize,
    /// Scan time on the Hadoop (local disk) layout.
    pub hadoop_time: SimDuration,
    /// Scan time on the HPC (shared parallel FS) layout.
    pub hpc_time: SimDuration,
    /// Bytes that crossed the network, Hadoop layout.
    pub hadoop_remote_bytes: u64,
    /// Bytes served by the shared store, HPC layout (== dataset).
    pub hpc_storage_bytes: u64,
    /// Utilization of the shared-store pipe during the HPC scan.
    pub hpc_storage_utilization: f64,
}

/// The whole series.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Fig1Result {
    /// Dataset size scanned at every point.
    pub dataset_bytes: u64,
    /// Aggregate bandwidth of the modeled parallel store.
    pub storage_aggregate_bw: u64,
    /// Per-size measurements.
    pub points: Vec<Fig1Point>,
}

impl Fig1Result {
    /// The smallest node count where the Hadoop layout is at least 2×
    /// faster (the "architecture matters" crossover).
    fn crossover_nodes(&self) -> Option<usize> {
        self.points
            .iter()
            .find(|p| p.hpc_time.as_micros() >= 2 * p.hadoop_time.as_micros().max(1))
            .map(|p| p.nodes)
    }
}

/// Run the scan on both layouts across node counts.
pub(crate) fn run(scale: Scale) -> Fig1Result {
    let dataset = scale.pick(8 * ByteSize::GIB, 171 * ByteSize::GIB);
    // A mid-size parallel store: ~1.2 GB/s aggregate (2013-era Lustre slice
    // for a department allocation).
    let storage_bw = 1200 * ByteSize::MIB;
    let sizes = [2usize, 4, 8, 16, 32, 64];

    let points = sizes
        .iter()
        .map(|&n| {
            let share = dataset / n as u64;

            // Hadoop layout: every node scans its share from local disk.
            let hadoop_spec = ClusterSpec::hadoop_racked(n, (n / 16).max(1));
            let mut hadoop_net = ClusterNet::new(&hadoop_spec);
            let mut hadoop_end = SimTime::ZERO;
            for node in 0..n as u32 {
                let c = hadoop_net.read_local_disk(SimTime::ZERO, NodeId(node), share);
                hadoop_end = hadoop_end.max(c.end);
            }

            // HPC layout: every node pulls its share through the shared
            // parallel store.
            let hpc_spec = ClusterSpec::hpc_shared_storage(n, storage_bw);
            let mut hpc_net = ClusterNet::new(&hpc_spec);
            let mut hpc_end = SimTime::ZERO;
            for node in 0..n as u32 {
                let c = hpc_net
                    .read_shared_storage(SimTime::ZERO, NodeId(node), share)
                    .expect("hpc_shared_storage spec always provisions the shared store");
                hpc_end = hpc_end.max(c.end);
            }

            Fig1Point {
                nodes: n,
                hadoop_time: hadoop_end.since(SimTime::ZERO),
                hpc_time: hpc_end.since(SimTime::ZERO),
                hadoop_remote_bytes: hadoop_net.remote_bytes(),
                hpc_storage_bytes: hpc_net.shared_storage_bytes(),
                hpc_storage_utilization: hpc_net.shared_storage_utilization(hpc_end),
            }
        })
        .collect();

    Fig1Result { dataset_bytes: dataset, storage_aggregate_bw: storage_bw, points }
}

impl fmt::Display for Fig1Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 1 — scan of {} | parallel store {}ps aggregate",
            ByteSize::display(self.dataset_bytes),
            ByteSize::display(self.storage_aggregate_bw),
        )?;
        writeln!(
            f,
            "  {:>5}  {:>14}  {:>14}  {:>9}  {:>12}  {:>9}",
            "nodes", "hadoop(local)", "hpc(shared)", "speedup", "net bytes", "store-util"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "  {:>5}  {:>14}  {:>14}  {:>8.1}x  {:>12}  {:>8.0}%",
                p.nodes,
                p.hadoop_time.to_string(),
                p.hpc_time.to_string(),
                p.hpc_time.as_secs_f64() / p.hadoop_time.as_secs_f64().max(1e-9),
                ByteSize::display(p.hadoop_remote_bytes).to_string(),
                p.hpc_storage_utilization * 100.0,
            )?;
        }
        match self.crossover_nodes() {
            Some(n) => writeln!(f, "  -> local-disk layout wins >=2x from {n} nodes up"),
            None => writeln!(f, "  -> no crossover in range"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hadoop_scales_hpc_saturates() {
        let r = run(Scale::Quick);
        assert_eq!(r.points.len(), 6);
        // Hadoop time keeps dropping with node count.
        for w in r.points.windows(2) {
            assert!(w[1].hadoop_time < w[0].hadoop_time, "{:?}", w);
        }
        // HPC time floors at dataset / storage_bw.
        let floor = SimDuration::for_transfer(r.dataset_bytes, r.storage_aggregate_bw);
        let last = r.points.last().unwrap();
        assert!(last.hpc_time >= floor);
        assert!(last.hpc_time < floor * 2);
        // At 64 nodes the gap is large.
        assert!(last.hpc_time.as_micros() > 5 * last.hadoop_time.as_micros());
    }

    #[test]
    fn locality_means_zero_network_bytes() {
        let r = run(Scale::Quick);
        for p in &r.points {
            assert_eq!(p.hadoop_remote_bytes, 0, "data-local scan moves nothing");
            assert_eq!(p.hpc_storage_bytes, r.dataset_bytes);
        }
    }

    #[test]
    fn crossover_exists_and_store_is_hot() {
        let r = run(Scale::Quick);
        let x = r.crossover_nodes().expect("crossover");
        assert!(x <= 32, "crossover at {x}");
        // When saturated, the shared store runs near 100% busy.
        assert!(r.points.last().unwrap().hpc_storage_utilization > 0.7);
    }
}

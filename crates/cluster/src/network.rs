//! The two cluster architectures of the paper's Figure 1.
//!
//! * **Figure 1(a)** — a typical HPC cluster: diskless compute nodes reach
//!   a parallel storage system through its *aggregate* bandwidth; every
//!   byte of input crosses the network.
//! * **Figure 1(b)** — a Hadoop cluster: each compute node carries its own
//!   disks, so a data-local read touches no network at all.
//!
//! `ClusterNet` owns one FIFO [`PipeResource`] per node NIC, per node disk,
//! per rack uplink, plus (HPC only) the shared-storage pipe, and charges
//! store-and-forward transfers across them. The per-pipe byte counters are
//! the raw data behind the Figure 1 experiment.

use std::collections::BTreeMap;

use hl_common::prelude::*;
use hl_common::units::ByteSize;
use hl_metrics::MetricsRegistry;

use crate::node::{ClusterSpec, DegradeModel, PerfProfile};
use crate::resource::{Charge, PipeResource};

/// Which Figure 1 architecture a cluster uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetArchitecture {
    /// Figure 1(b): storage on the compute nodes (data locality possible).
    HadoopLocalDisks {
        /// Bandwidth of each rack's uplink into the core switch, bytes/s.
        rack_uplink_bw: u64,
    },
    /// Figure 1(a): compute nodes share a parallel file system with a fixed
    /// aggregate bandwidth, reached across the core network.
    HpcParallelFs {
        /// Aggregate parallel-FS bandwidth, bytes/s (shared by everyone).
        storage_aggregate_bw: u64,
        /// Rack uplink bandwidth, bytes/s.
        rack_uplink_bw: u64,
    },
}

impl NetArchitecture {
    /// Hadoop layout with a 10 GbE-class rack uplink.
    pub(crate) fn hadoop_local_disks() -> Self {
        NetArchitecture::HadoopLocalDisks { rack_uplink_bw: 1170 * ByteSize::MIB }
    }

    /// HPC layout with the given parallel-storage aggregate bandwidth.
    pub(crate) fn hpc_parallel_fs(storage_aggregate_bw: u64) -> Self {
        NetArchitecture::HpcParallelFs {
            storage_aggregate_bw,
            rack_uplink_bw: 1170 * ByteSize::MIB,
        }
    }

    fn rack_uplink_bw(&self) -> u64 {
        match self {
            NetArchitecture::HadoopLocalDisks { rack_uplink_bw } => *rack_uplink_bw,
            NetArchitecture::HpcParallelFs { rack_uplink_bw, .. } => *rack_uplink_bw,
        }
    }
}

/// All bandwidth resources of one simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterNet {
    topology: Topology,
    nics: Vec<PipeResource>,
    disks: Vec<PipeResource>,
    uplinks: Vec<PipeResource>,
    shared_storage: Option<PipeResource>,
    remote_bytes: u64,
    /// Per-node [`DegradeModel`]s (node index → model). Nodes without an
    /// entry run at [`PerfProfile::NOMINAL`]; every disk/NIC charge for a
    /// degraded node consults its model at charge time.
    degrades: BTreeMap<u32, DegradeModel>,
    /// The instant of the op being charged, inside [`ClusterNet::op`].
    op: Option<SimTime>,
    /// See [`ClusterNet::late_charges`].
    late: u64,
}

/// Book one hop of the op requested at `op` on `pipe`, at `now`.
fn hop(
    pipe: &mut PipeResource,
    op: SimTime,
    late: &mut u64,
    now: SimTime,
    bytes: u64,
    mult: u32,
) -> Charge {
    *late += u64::from(pipe.note_op(op));
    pipe.charge_scaled(now, bytes, mult)
}

impl ClusterNet {
    /// Build the resource graph for a cluster spec.
    pub fn new(spec: &ClusterSpec) -> Self {
        let topology = spec.topology.clone();
        let nics = topology
            .nodes()
            .map(|n| PipeResource::new(format!("{n}.nic"), spec.node.nic_bw))
            .collect();
        let disks = topology
            .nodes()
            .map(|n| PipeResource::new(format!("{n}.disk"), spec.node.disk_bw))
            .collect();
        let uplink_bw = spec.architecture.rack_uplink_bw();
        let uplinks = (0..topology.num_racks() as u32)
            .map(|r| PipeResource::new(format!("{}.uplink", RackId(r)), uplink_bw))
            .collect();
        let shared_storage = match spec.architecture {
            NetArchitecture::HpcParallelFs { storage_aggregate_bw, .. } => {
                Some(PipeResource::new("parallel-fs", storage_aggregate_bw))
            }
            NetArchitecture::HadoopLocalDisks { .. } => None,
        };
        ClusterNet {
            topology,
            nics,
            disks,
            uplinks,
            shared_storage,
            remote_bytes: 0,
            degrades: BTreeMap::new(),
            op: None,
            late: 0,
        }
    }

    /// The cluster's rack topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Install (or replace) a node's degradation model. Affects every
    /// subsequent disk/NIC charge for that node; CPU scaling is read by
    /// the task engine through [`ClusterNet::node_profile`].
    pub fn set_node_model(&mut self, node: NodeId, model: DegradeModel) {
        self.degrades.insert(node.0, model);
    }

    /// The node's effective performance profile at `now`.
    pub fn node_profile(&self, node: NodeId, now: SimTime) -> PerfProfile {
        self.degrades.get(&node.0).map_or(PerfProfile::NOMINAL, |m| m.profile_at(now))
    }

    fn disk_mult(&self, node: NodeId, now: SimTime) -> u32 {
        self.degrades.get(&node.0).map_or(PerfProfile::NOMINAL_BP, |m| m.profile_at(now).disk_mult)
    }

    fn nic_mult(&self, node: NodeId, now: SimTime) -> u32 {
        self.degrades.get(&node.0).map_or(PerfProfile::NOMINAL_BP, |m| m.profile_at(now).nic_mult)
    }

    /// Sequential read from a node's local disk.
    pub fn read_local_disk(&mut self, now: SimTime, node: NodeId, bytes: u64) -> Charge {
        let (op, mult) = (self.op_at(now), self.disk_mult(node, now));
        hop(&mut self.disks[node.0 as usize], op, &mut self.late, now, bytes, mult)
    }

    /// Sequential write to a node's local disk.
    pub fn write_local_disk(&mut self, now: SimTime, node: NodeId, bytes: u64) -> Charge {
        self.read_local_disk(now, node, bytes)
    }

    /// Node-to-node transfer: source NIC → (rack uplinks if cross-rack) →
    /// destination NIC, store-and-forward.
    pub fn transfer(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> Charge {
        if src == dst {
            // Loopback: no network resources touched.
            return Charge { start: now, end: now };
        }
        self.remote_bytes += bytes;
        let op = self.op_at(now);
        let src_mult = self.nic_mult(src, now);
        let hop1 = hop(&mut self.nics[src.0 as usize], op, &mut self.late, now, bytes, src_mult);
        let mut at = hop1.end;
        let (src_rack, dst_rack) = (self.topology.rack(src), self.topology.rack(dst));
        if src_rack != dst_rack {
            // Rack uplinks are switch hardware, not node hardware: a
            // degraded *node* never slows its rack's shared uplink.
            let nominal = PerfProfile::NOMINAL_BP;
            let up =
                hop(&mut self.uplinks[src_rack.0 as usize], op, &mut self.late, at, bytes, nominal);
            let down = hop(
                &mut self.uplinks[dst_rack.0 as usize],
                op,
                &mut self.late,
                up.end,
                bytes,
                nominal,
            );
            at = down.end;
        }
        let dst_mult = self.nic_mult(dst, at);
        let hop2 = hop(&mut self.nics[dst.0 as usize], op, &mut self.late, at, bytes, dst_mult);
        Charge { start: now, end: hop2.end }
    }

    /// Read `bytes` that physically live on `holder` from `reader`:
    /// holder's disk, then the network if they differ.
    pub fn read_remote(
        &mut self,
        now: SimTime,
        reader: NodeId,
        holder: NodeId,
        bytes: u64,
    ) -> Charge {
        self.op(now, |net| {
            let disk = net.read_local_disk(now, holder, bytes);
            if reader == holder {
                return Charge { start: now, end: disk.end };
            }
            let wire = net.transfer(disk.end, holder, reader, bytes);
            Charge { start: now, end: wire.end }
        })
    }

    /// Read from the shared parallel FS (Figure 1(a) only): storage pipe,
    /// rack uplink, then the reader's NIC. Calling this on a
    /// Hadoop-architecture cluster (no shared store) is a wiring error,
    /// reported as [`HlError::Internal`].
    pub fn read_shared_storage(
        &mut self,
        now: SimTime,
        reader: NodeId,
        bytes: u64,
    ) -> Result<Charge> {
        let (op, nominal) = (self.op_at(now), PerfProfile::NOMINAL_BP);
        let storage = self.shared_storage.as_mut().ok_or_else(|| {
            HlError::Internal("read_shared_storage on a local-disk cluster".into())
        })?;
        self.remote_bytes += bytes;
        let s = hop(storage, op, &mut self.late, now, bytes, nominal);
        let rack = self.topology.rack(reader);
        let up = hop(&mut self.uplinks[rack.0 as usize], op, &mut self.late, s.end, bytes, nominal);
        let mult = self.nic_mult(reader, up.end);
        let nic = hop(&mut self.nics[reader.0 as usize], op, &mut self.late, up.end, bytes, mult);
        Ok(Charge { start: now, end: nic.end })
    }

    /// Run `f` as one op requested at `now`: every charge it makes, at
    /// whatever instant, is a later hop of that op — a block's replica
    /// pipeline, a read that fails over, a copy's disk → wire → disk. An
    /// op inside an op is a hop of the outer one.
    pub fn op<T>(&mut self, now: SimTime, f: impl FnOnce(&mut ClusterNet) -> T) -> T {
        let outer = self.op;
        self.op = Some(self.op_at(now));
        let out = f(self);
        self.op = outer;
        out
    }

    fn op_at(&self, now: SimTime) -> SimTime {
        self.op.unwrap_or(now)
    }

    /// Charges booked on a pipe after an op requested later than theirs
    /// had booked it (the later hops of one op count under the op's
    /// instant). The contract every caller keeps is that this stays 0:
    /// charges arrive in virtual-time order, so each pipe's FIFO
    /// `now.max(free_at)` is exact.
    pub fn late_charges(&self) -> u64 {
        self.late
    }

    /// Bytes that crossed any network link (the data-locality metric).
    pub fn remote_bytes(&self) -> u64 {
        self.remote_bytes
    }

    /// Bytes served by the shared parallel FS (zero on Hadoop clusters).
    pub fn shared_storage_bytes(&self) -> u64 {
        self.shared_storage.as_ref().map_or(0, |s| s.total_bytes())
    }

    /// Utilization of the shared parallel FS pipe at `now`.
    pub fn shared_storage_utilization(&self, now: SimTime) -> f64 {
        self.shared_storage.as_ref().map_or(0.0, |s| s.utilization(now))
    }

    /// Export the network's instruments into `reg` under the "network"
    /// daemon: per-pipe cumulative bytes and current queue backlog (how
    /// far `free_at` runs ahead of `now` — the store-and-forward analog of
    /// queue depth), plus the cluster-wide remote-bytes total. All gauges:
    /// they are sampled levels of pipe state, re-set on every export.
    pub fn export_metrics(&self, now: SimTime, reg: &mut MetricsRegistry) {
        fn g(n: u64) -> i64 {
            i64::try_from(n).unwrap_or(i64::MAX)
        }
        let pipes = self
            .nics
            .iter()
            .chain(self.disks.iter())
            .chain(self.uplinks.iter())
            .chain(self.shared_storage.iter());
        for p in pipes {
            reg.set_gauge("network", &format!("{}.bytes", p.name), g(p.total_bytes()));
            let backlog = p.free_at().since(now.min(p.free_at())).as_micros();
            reg.set_gauge("network", &format!("{}.queue_micros", p.name), g(backlog));
        }
        reg.set_gauge("network", "remote.bytes", g(self.remote_bytes));
    }

    /// Reset byte/busy accounting on every pipe (between experiment runs).
    pub fn reset_accounting(&mut self) {
        for p in self
            .nics
            .iter_mut()
            .chain(self.disks.iter_mut())
            .chain(self.uplinks.iter_mut())
            .chain(self.shared_storage.iter_mut())
        {
            p.reset_accounting();
        }
        self.remote_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ClusterSpec;

    fn hadoop(nodes: usize, racks: usize) -> ClusterNet {
        ClusterNet::new(&ClusterSpec::hadoop_racked(nodes, racks))
    }

    #[test]
    fn local_read_touches_no_network() {
        let mut net = hadoop(4, 1);
        let c = net.read_remote(SimTime::ZERO, NodeId(0), NodeId(0), 120 * ByteSize::MIB);
        assert_eq!(c.end, SimTime(1_000_000)); // 120 MiB at 120 MiB/s disk
        assert_eq!(net.remote_bytes(), 0);
        assert_eq!(net.nics[0].total_bytes(), 0);
    }

    #[test]
    fn rack_local_read_crosses_two_nics_only() {
        let mut net = hadoop(4, 1);
        let bytes = 117 * ByteSize::MIB;
        let c = net.read_remote(SimTime::ZERO, NodeId(0), NodeId(1), bytes);
        // disk (117/120 s) + src nic (1 s) + dst nic (1 s), store-and-forward
        let expect = SimDuration::for_transfer(bytes, 120 * ByteSize::MIB)
            + SimDuration::from_secs(1)
            + SimDuration::from_secs(1);
        assert_eq!(c.end.since(SimTime::ZERO), expect);
        assert_eq!(net.remote_bytes(), bytes);
    }

    #[test]
    fn cross_rack_read_also_charges_uplinks() {
        let mut net_flat = hadoop(4, 1);
        let mut net_racked = hadoop(4, 2);
        let bytes = 117 * ByteSize::MIB;
        // node0 -> node2 is same-rack in both striped(4,2) and flat.
        let same = net_flat.read_remote(SimTime::ZERO, NodeId(2), NodeId(0), bytes);
        // node0 -> node1 is cross-rack when striped over 2 racks.
        let cross = net_racked.read_remote(SimTime::ZERO, NodeId(1), NodeId(0), bytes);
        assert!(cross.end > same.end, "cross-rack must be slower than in-rack");
    }

    #[test]
    fn loopback_transfer_is_free() {
        let mut net = hadoop(2, 1);
        let c = net.transfer(SimTime(77), NodeId(1), NodeId(1), ByteSize::GIB);
        assert_eq!(c.start, c.end);
        assert_eq!(net.remote_bytes(), 0);
    }

    #[test]
    fn shared_storage_serializes_the_whole_cluster() {
        let spec = ClusterSpec::hpc_shared_storage(8, 200 * ByteSize::MIB);
        let mut net = ClusterNet::new(&spec);
        assert!(net.shared_storage.is_some());
        // 8 nodes each read 200 MiB concurrently: aggregate pipe serves them
        // one at a time, so the last finishes at ~8 s even though each
        // node's NIC could take it in ~1.7 s.
        let mut last = SimTime::ZERO;
        for n in 0..8 {
            let c = net.read_shared_storage(SimTime::ZERO, NodeId(n), 200 * ByteSize::MIB).unwrap();
            last = last.max(c.end);
        }
        assert!(last >= SimTime(8_000_000), "storage pipe must serialize: {last}");
        assert_eq!(net.shared_storage_bytes(), 8 * 200 * ByteSize::MIB);
    }

    #[test]
    fn hadoop_cluster_parallel_local_reads_dont_contend() {
        let mut net = hadoop(8, 1);
        let mut last = SimTime::ZERO;
        for n in 0..8 {
            let c = net.read_local_disk(SimTime::ZERO, NodeId(n), 120 * ByteSize::MIB);
            last = last.max(c.end);
        }
        assert_eq!(last, SimTime(1_000_000), "independent disks work in parallel");
    }

    #[test]
    fn shared_io_on_hadoop_is_an_error_not_a_panic() {
        let mut net = hadoop(2, 1);
        assert!(net.read_shared_storage(SimTime::ZERO, NodeId(0), 1).is_err());
        // The failed read must not count against any pipe.
        assert_eq!(net.remote_bytes(), 0);
        assert_eq!(net.nics[0].total_bytes(), 0);
    }

    #[test]
    fn export_metrics_reports_link_bytes_and_queue_depth() {
        let mut net = hadoop(2, 1);
        let c = net.transfer(SimTime::ZERO, NodeId(0), NodeId(1), 117 * ByteSize::MIB);
        let mut reg = MetricsRegistry::new();
        net.export_metrics(SimTime::ZERO, &mut reg);
        let snap = reg.snapshot(SimTime::ZERO);
        let mib117 = i64::try_from(117 * ByteSize::MIB).unwrap();
        assert_eq!(snap.gauge("network", "node000.nic.bytes"), mib117);
        assert_eq!(snap.gauge("network", "node001.nic.bytes"), mib117);
        assert_eq!(snap.gauge("network", "remote.bytes"), mib117);
        // Sampled at time zero, the destination NIC is still draining.
        assert!(snap.gauge("network", "node001.nic.queue_micros") > 0);
        // Sampled after the transfer completes, the backlog is gone.
        net.export_metrics(c.end, &mut reg);
        let snap = reg.snapshot(c.end);
        assert_eq!(snap.gauge("network", "node001.nic.queue_micros"), 0);
    }

    #[test]
    fn degraded_node_slows_disk_and_nic_charges() {
        use crate::node::{DegradeModel, PerfProfile};
        let mut nominal = hadoop(4, 1);
        let mut degraded = hadoop(4, 1);
        degraded.set_node_model(NodeId(1), DegradeModel::Static(PerfProfile::uniform(5_000)));
        let bytes = 117 * ByteSize::MIB;

        let d0 = nominal.read_local_disk(SimTime::ZERO, NodeId(1), bytes);
        let d1 = degraded.read_local_disk(SimTime::ZERO, NodeId(1), bytes);
        assert_eq!(d1.end.since(SimTime::ZERO).0, 2 * d0.end.since(SimTime::ZERO).0);

        // A transfer *into* the degraded node pays its half-speed NIC.
        let t0 = nominal.transfer(SimTime::ZERO, NodeId(0), NodeId(1), bytes);
        let t1 = degraded.transfer(SimTime::ZERO, NodeId(0), NodeId(1), bytes);
        assert!(t1.end > t0.end, "degraded NIC must slow the transfer");
        // Other nodes are untouched.
        let o0 = nominal.read_local_disk(SimTime::ZERO, NodeId(2), bytes);
        let o1 = degraded.read_local_disk(SimTime::ZERO, NodeId(2), bytes);
        assert_eq!(o0.end, o1.end);
    }

    #[test]
    fn time_varying_model_is_sampled_at_charge_time() {
        use crate::node::{DegradeModel, PerfProfile};
        let mut net = hadoop(2, 1);
        net.set_node_model(
            NodeId(0),
            DegradeModel::Window {
                from: SimTime(10_000_000),
                until: SimTime(20_000_000),
                during: PerfProfile::uniform(2_500),
            },
        );
        let bytes = 120 * ByteSize::MIB; // 1 s at nominal disk speed
        let before = net.read_local_disk(SimTime::ZERO, NodeId(0), bytes);
        assert_eq!(before.end, SimTime(1_000_000), "nominal before the window");
        let inside = net.read_local_disk(SimTime(10_000_000), NodeId(0), bytes);
        assert_eq!(
            inside.end.since(inside.start),
            SimDuration::from_secs(4),
            "quarter speed inside the window"
        );
        let after = net.read_local_disk(SimTime(30_000_000), NodeId(0), bytes);
        assert_eq!(after.end.since(after.start), SimDuration::from_secs(1));
    }

    #[test]
    fn reset_accounting_zeroes_counters() {
        let mut net = hadoop(2, 1);
        net.transfer(SimTime::ZERO, NodeId(0), NodeId(1), 1000);
        assert!(net.remote_bytes() > 0);
        net.reset_accounting();
        assert_eq!(net.remote_bytes(), 0);
        assert_eq!(net.nics[0].total_bytes(), 0);
    }

    #[test]
    fn late_charges_count_ops_out_of_virtual_time_order_but_not_an_ops_hops() {
        let mut net = hadoop(2, 1);
        let mib = 120 * ByteSize::MIB;
        // A read's wire hops are requested at its disk end, then another
        // op starts on node 1's disk before that instant: both in order.
        let read = net.read_remote(SimTime::ZERO, NodeId(1), NodeId(0), mib);
        net.read_local_disk(SimTime(1), NodeId(1), mib);
        net.op(SimTime(2), |net| {
            let d = net.read_local_disk(SimTime(2), NodeId(0), mib);
            net.write_local_disk(d.end, NodeId(1), mib);
        });
        assert_eq!(net.late_charges(), 0);
        assert!(read.end > SimTime(2), "the read's hops were booked past t=2");
        // Ops requested before one already booked on the same pipes.
        net.transfer(SimTime(5), NodeId(0), NodeId(1), 1);
        net.transfer(SimTime(3), NodeId(0), NodeId(1), 1);
        assert_eq!(net.late_charges(), 2, "one per NIC");
        net.read_local_disk(SimTime(1), NodeId(0), 1);
        assert_eq!(net.late_charges(), 3, "the op at t=2 booked node 0's disk");
    }
}

//! Node and cluster hardware specifications.
//!
//! The paper's dedicated cluster: 8 nodes, each dual 8-core, 64 GB RAM,
//! 850 GB HDD, gigabit Ethernet. Presets here reproduce that box and the
//! two cluster shapes of Figure 1.

use hl_common::prelude::*;
use hl_common::units::ByteSize;
use hl_common::writable::{read_vu64, write_vu64, Writable};

/// Hardware description of a single compute node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// CPU cores (the course configured 8 map slots on dual 8-core nodes).
    pub cores: u32,
    /// Physical RAM in bytes.
    pub ram_bytes: u64,
    /// Local disk capacity in bytes.
    pub disk_bytes: u64,
    /// Local disk sequential bandwidth, bytes/s.
    pub disk_bw: u64,
    /// NIC bandwidth, bytes/s.
    pub nic_bw: u64,
}

impl NodeSpec {
    /// The paper's dedicated-cluster node: dual 8-core, 64 GB RAM, 850 GB
    /// HDD (~120 MB/s sequential), gigabit Ethernet (~117 MiB/s).
    fn palmetto_2013() -> Self {
        NodeSpec {
            cores: 16,
            ram_bytes: 64 * ByteSize::GIB,
            disk_bytes: 850 * ByteSize::GIB,
            disk_bw: 120 * ByteSize::MIB,
            nic_bw: 117 * ByteSize::MIB,
        }
    }

    /// A diskless HPC compute node (storage lives on the parallel FS).
    fn hpc_compute_2013() -> Self {
        NodeSpec { disk_bytes: 0, ..Self::palmetto_2013() }
    }
}

/// A per-node performance multiplier layered over [`NodeSpec`], in basis
/// points (10 000 = nominal speed, 5 000 = half speed). Integer basis
/// points keep every degraded charge a pure function of virtual time, so
/// chaos traces stay byte-identical across replays.
///
/// The three components scale the three charge sites independently: task
/// compute durations (`cpu_mult`), the node's disk pipe (`disk_mult`),
/// and the node's NIC pipe (`nic_mult`) — a throttled VM is slow on the
/// wire but not on the core, a failing disk is the reverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfProfile {
    /// Compute-duration multiplier, basis points of nominal speed.
    pub cpu_mult: u32,
    /// Disk-pipe bandwidth multiplier, basis points of nominal speed.
    pub disk_mult: u32,
    /// NIC-pipe bandwidth multiplier, basis points of nominal speed.
    pub nic_mult: u32,
}

impl PerfProfile {
    /// Basis points representing full nominal speed.
    pub const NOMINAL_BP: u32 = 10_000;

    /// Full nominal speed on all three components.
    pub(crate) const NOMINAL: PerfProfile = PerfProfile {
        cpu_mult: Self::NOMINAL_BP,
        disk_mult: Self::NOMINAL_BP,
        nic_mult: Self::NOMINAL_BP,
    };

    /// The same multiplier on CPU, disk, and NIC. Clamped to at least
    /// 1 bp: a zero multiplier would make `for_transfer` treat the pipe
    /// as free rather than infinitely slow.
    pub fn uniform(bp: u32) -> Self {
        let bp = bp.clamp(1, Self::NOMINAL_BP);
        PerfProfile { cpu_mult: bp, disk_mult: bp, nic_mult: bp }
    }

    /// Scale a pipe bandwidth by a basis-point multiplier, never below
    /// 1 byte/s (bandwidth 0 means "free" to `for_transfer`, the opposite
    /// of degraded).
    pub fn scale_bw(bw: u64, mult_bp: u32) -> u64 {
        if mult_bp >= Self::NOMINAL_BP || bw == 0 {
            // bw == 0 already means "free pipe" to `for_transfer`; a
            // degraded free pipe stays free rather than becoming 1 B/s.
            return bw;
        }
        let scaled = u128::from(bw) * u128::from(mult_bp) / u128::from(Self::NOMINAL_BP);
        u64::try_from(scaled).unwrap_or(u64::MAX).max(1)
    }

    /// Stretch a duration by the inverse of a basis-point multiplier
    /// (half speed → double time).
    pub fn scale_dur(d: SimDuration, mult_bp: u32) -> SimDuration {
        if mult_bp >= Self::NOMINAL_BP {
            return d;
        }
        let stretched = u128::from(d.0) * u128::from(Self::NOMINAL_BP) / u128::from(mult_bp.max(1));
        SimDuration(u64::try_from(stretched).unwrap_or(u64::MAX))
    }
}

impl Writable for PerfProfile {
    fn write(&self, buf: &mut Vec<u8>) {
        write_vu64(u64::from(self.cpu_mult), buf);
        write_vu64(u64::from(self.disk_mult), buf);
        write_vu64(u64::from(self.nic_mult), buf);
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        let narrow = |v: u64| {
            u32::try_from(v).map_err(|_| HlError::Codec(format!("PerfProfile mult {v} > u32")))
        };
        let cpu_mult = narrow(read_vu64(buf)?)?;
        let disk_mult = narrow(read_vu64(buf)?)?;
        let nic_mult = narrow(read_vu64(buf)?)?;
        Ok(PerfProfile { cpu_mult, disk_mult, nic_mult })
    }
}

/// How a node's [`PerfProfile`] evolves over virtual time. Evaluated
/// lazily at each charge site — no events are scheduled — so a model is
/// just a pure function `SimTime -> PerfProfile`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeModel {
    /// A fixed profile from time zero (throttled-VM tier, `SlowNode`).
    Static(PerfProfile),
    /// Progressive straggler: nominal until `from`, then all multipliers
    /// decay linearly toward `floor` over `ramp`, and stay there — the
    /// disk that slowly dies instead of stepping.
    Decay {
        /// When the decay begins.
        from: SimTime,
        /// How long the slide from nominal to `floor` takes.
        ramp: SimDuration,
        /// The profile the node bottoms out at.
        floor: PerfProfile,
    },
    /// Noisy neighbor: `during` applies inside `[from, until)`, nominal
    /// outside — a co-tenant's interference window.
    Window {
        /// Interference start.
        from: SimTime,
        /// Interference end (exclusive).
        until: SimTime,
        /// The profile while the neighbor is noisy.
        during: PerfProfile,
    },
    /// Square wave starting at `from`: `on` degraded, `off` nominal,
    /// repeating — an intermittently flaky link.
    Periodic {
        /// First degraded phase begins here.
        from: SimTime,
        /// Length of each degraded phase.
        on: SimDuration,
        /// Length of each nominal phase between degraded ones.
        off: SimDuration,
        /// The profile during degraded phases.
        during: PerfProfile,
    },
}

impl DegradeModel {
    /// The node's effective profile at `now`.
    pub(crate) fn profile_at(&self, now: SimTime) -> PerfProfile {
        match self {
            DegradeModel::Static(p) => *p,
            DegradeModel::Decay { from, ramp, floor } => {
                if now < *from {
                    return PerfProfile::NOMINAL;
                }
                let elapsed = now.since(*from).0.min(ramp.0);
                let lerp = |f: u32| {
                    if ramp.0 == 0 {
                        return f.max(1);
                    }
                    let drop = u128::from(PerfProfile::NOMINAL_BP.saturating_sub(f))
                        * u128::from(elapsed)
                        / u128::from(ramp.0);
                    (PerfProfile::NOMINAL_BP - u32::try_from(drop).unwrap_or(0)).max(1)
                };
                PerfProfile {
                    cpu_mult: lerp(floor.cpu_mult),
                    disk_mult: lerp(floor.disk_mult),
                    nic_mult: lerp(floor.nic_mult),
                }
            }
            DegradeModel::Window { from, until, during } => {
                if now >= *from && now < *until {
                    *during
                } else {
                    PerfProfile::NOMINAL
                }
            }
            DegradeModel::Periodic { from, on, off, during } => {
                if now < *from || on.0 == 0 {
                    return PerfProfile::NOMINAL;
                }
                let period = on.0.saturating_add(off.0);
                if period == 0 {
                    return *during;
                }
                let phase = now.since(*from).0 % period;
                if phase < on.0 {
                    *during
                } else {
                    PerfProfile::NOMINAL
                }
            }
        }
    }
}

/// A homogeneous cluster: node spec, topology, and the Figure 1
/// architecture choice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Per-node hardware.
    pub node: NodeSpec,
    /// Rack layout.
    pub topology: Topology,
    /// Figure 1(a) vs 1(b).
    pub architecture: crate::network::NetArchitecture,
}

impl ClusterSpec {
    /// The course's 8-node dedicated Hadoop cluster (Figure 1(b), one rack).
    pub fn course_hadoop(nodes: usize) -> Self {
        ClusterSpec {
            node: NodeSpec::palmetto_2013(),
            topology: Topology::flat(nodes),
            architecture: crate::network::NetArchitecture::hadoop_local_disks(),
        }
    }

    /// A Hadoop-style cluster spread over `racks` racks.
    pub fn hadoop_racked(nodes: usize, racks: usize) -> Self {
        ClusterSpec {
            node: NodeSpec::palmetto_2013(),
            topology: Topology::striped(nodes, racks),
            architecture: crate::network::NetArchitecture::hadoop_local_disks(),
        }
    }

    /// A typical HPC cluster (Figure 1(a)): diskless compute nodes sharing
    /// a parallel storage system with fixed aggregate bandwidth.
    pub fn hpc_shared_storage(nodes: usize, storage_aggregate_bw: u64) -> Self {
        ClusterSpec {
            node: NodeSpec::hpc_compute_2013(),
            topology: Topology::striped(nodes, (nodes / 16).max(1)),
            architecture: crate::network::NetArchitecture::hpc_parallel_fs(storage_aggregate_bw),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.topology.num_nodes()
    }
}

/// splitmix64 — the tiny deterministic mixer behind the seeded skew
/// presets. Self-contained so `hl-cluster` stays free of RNG crates.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A heterogeneous cluster: a homogeneous [`ClusterSpec`] base plus
/// per-node [`DegradeModel`]s layered on top. Built with the seeded skew
/// presets (or `with_model` by hand) and handed to
/// `MrCluster::new_heterogeneous`; the same `(base, seed)` always yields
/// the same skew.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeterogeneousClusterSpec {
    /// The homogeneous hardware every node nominally has.
    pub base: ClusterSpec,
    /// Per-node deviations from nominal, sorted by node for determinism.
    pub models: Vec<(NodeId, DegradeModel)>,
}

impl HeterogeneousClusterSpec {
    /// A heterogeneous spec with no deviations yet.
    pub fn new(base: ClusterSpec) -> Self {
        HeterogeneousClusterSpec { base, models: Vec::new() }
    }

    /// Attach (or replace) one node's model.
    pub fn with_model(mut self, node: NodeId, model: DegradeModel) -> Self {
        self.models.retain(|(n, _)| *n != node);
        self.models.push((node, model));
        self.models.sort_by_key(|(n, _)| n.0);
        self
    }

    /// Pick `count` distinct nodes deterministically from `seed`.
    fn pick_nodes(&self, seed: u64, salt: u64, count: usize) -> Vec<NodeId> {
        let n = self.base.num_nodes() as u64;
        let mut state = seed ^ (salt << 32);
        let mut picked = Vec::new();
        while picked.len() < count.min(n as usize) {
            let node = NodeId((splitmix64(&mut state) % n) as u32);
            if !picked.contains(&node) {
                picked.push(node);
            }
        }
        picked
    }

    /// Throttled-VM tier: `count` nodes pinned to a static `bp` profile
    /// from time zero — the paper's Version-1 supercomputer VMs whose
    /// virtual NICs never ran at spec.
    fn throttled_tier(self, seed: u64, count: usize, bp: u32) -> Self {
        let mut spec = self;
        for node in spec.pick_nodes(seed, 0x5456, count) {
            spec = spec.with_model(node, DegradeModel::Static(PerfProfile::uniform(bp)));
        }
        spec
    }

    /// Noisy neighbors: `count` nodes suffer a co-tenant interference
    /// window at half speed, each window's start and length varied by the
    /// seed (30–90 s in, 60–180 s long).
    fn noisy_neighbors(self, seed: u64, count: usize) -> Self {
        let mut spec = self;
        let mut state = seed ^ (0x4e4e << 32);
        for node in spec.pick_nodes(seed, 0x4e4e, count) {
            let from = SimTime(30_000_000 + splitmix64(&mut state) % 60_000_000);
            let len = 60_000_000 + splitmix64(&mut state) % 120_000_000;
            let model = DegradeModel::Window {
                from,
                until: from + SimDuration(len),
                during: PerfProfile::uniform(5_000),
            };
            spec = spec.with_model(node, model);
        }
        spec
    }

    /// Progressive stragglers: `count` nodes decay toward `floor_bp` over
    /// a seed-varied 60–180 s ramp starting 10–40 s in — the slowly dying
    /// disk that steps nowhere.
    fn progressive_stragglers(self, seed: u64, count: usize, floor_bp: u32) -> Self {
        let mut spec = self;
        let mut state = seed ^ (0x5053 << 32);
        for node in spec.pick_nodes(seed, 0x5053, count) {
            let model = DegradeModel::Decay {
                from: SimTime(10_000_000 + splitmix64(&mut state) % 30_000_000),
                ramp: SimDuration(60_000_000 + splitmix64(&mut state) % 120_000_000),
                floor: PerfProfile::uniform(floor_bp),
            };
            spec = spec.with_model(node, model);
        }
        spec
    }

    /// The combined skew preset: one throttled node, one noisy neighbor,
    /// one progressive straggler (distinct salts keep the picks
    /// independent; later presets win on collision). Its windows and
    /// onsets fall tens of virtual seconds in, chaos-soak timescales; the
    /// golden-trace, staged-property and host-pool tests run jobs against
    /// it. The TPCx-HS ablation's jobs end sooner, so it pins its own skew
    /// with `with_model`.
    pub fn skewed(base: ClusterSpec, seed: u64) -> Self {
        HeterogeneousClusterSpec::new(base)
            .throttled_tier(seed, 1, 2_000)
            .noisy_neighbors(seed, 1)
            .progressive_stragglers(seed, 1, 1_500)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn palmetto_matches_paper_hardware() {
        let n = NodeSpec::palmetto_2013();
        assert_eq!(n.cores, 16);
        assert_eq!(n.ram_bytes, 64 * ByteSize::GIB);
        assert_eq!(n.disk_bytes, 850 * ByteSize::GIB);
    }

    #[test]
    fn course_cluster_is_8_flat_nodes() {
        let c = ClusterSpec::course_hadoop(8);
        assert_eq!(c.num_nodes(), 8);
        assert_eq!(c.topology.num_racks(), 1);
    }

    #[test]
    fn hpc_nodes_are_diskless() {
        let c = ClusterSpec::hpc_shared_storage(32, 10 * ByteSize::GIB);
        assert_eq!(c.node.disk_bytes, 0);
        assert_eq!(c.topology.num_racks(), 2);
    }

    #[test]
    fn perf_profile_round_trips() {
        for p in [
            PerfProfile::NOMINAL,
            PerfProfile::uniform(2_500),
            PerfProfile { cpu_mult: 10_000, disk_mult: 3_000, nic_mult: 1 },
        ] {
            assert_eq!(PerfProfile::from_bytes(&p.to_bytes()).unwrap(), p);
        }
    }

    #[test]
    fn profile_scaling_is_identity_at_nominal() {
        assert_eq!(PerfProfile::scale_bw(120 * ByteSize::MIB, 10_000), 120 * ByteSize::MIB);
        assert_eq!(PerfProfile::scale_bw(100, 5_000), 50);
        assert_eq!(PerfProfile::scale_bw(100, 0), 1, "zero multiplier floors at 1 B/s");
        let d = SimDuration::from_secs(4);
        assert_eq!(PerfProfile::scale_dur(d, 10_000), d);
        assert_eq!(PerfProfile::scale_dur(d, 5_000), SimDuration::from_secs(8));
    }

    #[test]
    fn decay_slides_from_nominal_to_floor() {
        let m = DegradeModel::Decay {
            from: SimTime(1_000_000),
            ramp: SimDuration::from_secs(10),
            floor: PerfProfile::uniform(2_000),
        };
        assert_eq!(m.profile_at(SimTime::ZERO), PerfProfile::NOMINAL);
        let mid = m.profile_at(SimTime(6_000_000)); // halfway down the ramp
        assert_eq!(mid.cpu_mult, 6_000);
        let low = m.profile_at(SimTime(60_000_000));
        assert_eq!(low, PerfProfile::uniform(2_000), "holds at the floor");
    }

    #[test]
    fn window_and_periodic_models_toggle() {
        let w = DegradeModel::Window {
            from: SimTime(5_000_000),
            until: SimTime(10_000_000),
            during: PerfProfile::uniform(5_000),
        };
        assert_eq!(w.profile_at(SimTime(4_999_999)), PerfProfile::NOMINAL);
        assert_eq!(w.profile_at(SimTime(5_000_000)).nic_mult, 5_000);
        assert_eq!(w.profile_at(SimTime(10_000_000)), PerfProfile::NOMINAL);

        let p = DegradeModel::Periodic {
            from: SimTime::ZERO,
            on: SimDuration::from_secs(2),
            off: SimDuration::from_secs(3),
            during: PerfProfile::uniform(1_000),
        };
        assert_eq!(p.profile_at(SimTime(1_000_000)).disk_mult, 1_000);
        assert_eq!(p.profile_at(SimTime(3_000_000)), PerfProfile::NOMINAL);
        assert_eq!(p.profile_at(SimTime(6_000_000)).disk_mult, 1_000, "second period");
    }

    #[test]
    fn skewed_preset_is_a_pure_function_of_seed() {
        let a = HeterogeneousClusterSpec::skewed(ClusterSpec::course_hadoop(8), 42);
        let b = HeterogeneousClusterSpec::skewed(ClusterSpec::course_hadoop(8), 42);
        assert_eq!(a, b);
        assert!(!a.models.is_empty());
        assert!(a.models.iter().all(|(n, _)| (n.0 as usize) < 8));
        let c = HeterogeneousClusterSpec::skewed(ClusterSpec::course_hadoop(8), 43);
        assert_ne!(a, c, "different seeds skew differently");
    }
}

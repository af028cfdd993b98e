//! Fault plans: declarative, seeded schedules of typed fault events.
//!
//! A [`FaultPlan`] is the whole story of one chaos run, decided *before*
//! the run starts: which daemon dies in which round, which block rots,
//! which port a ghost daemon squats on. Plans are pure data — they
//! implement [`Writable`] so a failing seed's schedule can be serialized
//! next to its trace and replayed byte-identically later.

use hl_cluster::failure::DaemonKind;
use hl_common::prelude::*;
use hl_common::writable::{read_vu64, write_vu64, Writable};

/// One typed fault event the runner knows how to inject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Fault {
    /// `kill -9` one daemon's JVM. TaskTracker kills leave the colocated
    /// DataNode running (and vice versa) — composing both is the planner's
    /// job, crashing both at once is what [`Fault::HeapLeak`] is for.
    KillDaemon {
        /// Which daemon.
        kind: DaemonKind,
        /// On which node (ignored for the singleton JobTracker/NameNode).
        node: NodeId,
    },
    /// The round's workload job leaks `rate` bytes of daemon heap per
    /// task — the paper's Version-1 meltdown mechanism, which OOM-crashes
    /// the TaskTracker *and* its colocated DataNode.
    HeapLeak {
        /// Bytes pinned into the hosting daemon per buggy task.
        rate: u64,
    },
    /// Flip one byte of one stored replica behind the checksums' back.
    /// The victim block/holder/offset are chosen by the runner's seeded
    /// [`BitRot`](hl_cluster::failure::BitRot) stream at injection time.
    CorruptBlock {
        /// Selects the victim among the blocks stored at injection time
        /// (taken modulo the block count, so any value is valid).
        victim: u64,
    },
    /// Orphan-bind a port: a ghost daemon from a departed session squats
    /// on `port` until the campus cleanup cron sweeps it.
    GhostDaemon {
        /// Node whose port is squatted.
        node: NodeId,
        /// The squatted TCP port.
        port: u16,
    },
    /// Crash the NameNode and recover it from fsimage + edit-log replay:
    /// every DataNode rescans and re-reports, and the cluster sits in
    /// safe mode until enough blocks are accounted for.
    RestartNameNode,
    /// Node becomes a straggler: its task durations multiply by
    /// `factor_pct / 100` (e.g. `800` → 8× slower).
    SlowNode {
        /// Which node drags.
        node: NodeId,
        /// Slowdown factor in percent (100 = no change).
        factor_pct: u32,
    },
    /// Operator pass: restart every dead TaskTracker, DataNode, and the
    /// JobTracker, then sync block reports so the NameNode re-learns
    /// which replicas survived on disk.
    RestartDaemons,
    /// Arm the write path, then write a fresh multi-block file: the
    /// DataNode receiving replica store number `after_stores` crashes the
    /// instant the bytes land, forcing client pipeline recovery and
    /// leaving a stale-genstamp replica for block reports to invalidate.
    KillPipelineDatanode {
        /// Zero-based replica-store index (across the whole write, in
        /// pipeline order) whose target dies.
        after_stores: u32,
    },
    /// Arm the write path, then write a file whose writing client dies
    /// after `after_blocks` complete blocks — the file stays open under
    /// its lease until the NameNode's lease recovery finalizes it.
    WriterCrash {
        /// Blocks fully pipelined before the writer vanishes.
        after_blocks: u32,
    },
    /// Arm the write path, then write a file where replica store number
    /// `after_stores` succeeds but its ack never comes back: the client
    /// excludes a perfectly live DataNode and its replica goes stale.
    SlowPipelineAck {
        /// Zero-based replica-store index whose ack times out.
        after_stores: u32,
    },
    /// Progressive straggler: from injection the node's CPU, disk, and
    /// NIC slide linearly from nominal down to `floor_pct`% of nominal
    /// over `ramp_secs` — a VM whose host gets steadily oversubscribed.
    DegradeNode {
        /// Which node decays.
        node: NodeId,
        /// Terminal speed as a percentage of nominal (e.g. `20` → the
        /// node bottoms out at one fifth speed).
        floor_pct: u32,
        /// Seconds of virtual time the slide takes.
        ramp_secs: u32,
    },
    /// Noisy neighbor: a co-tenant burst pins the node to `slow_pct`% of
    /// nominal for a `window_secs` window starting at injection, after
    /// which the node recovers completely.
    NoisyNeighbor {
        /// Which node suffers the interference.
        node: NodeId,
        /// Speed during the window as a percentage of nominal.
        slow_pct: u32,
        /// Window length in seconds of virtual time.
        window_secs: u32,
    },
    /// Flaky NIC: the node's network interface oscillates between nominal
    /// and `nic_pct`% of nominal bandwidth every `period_secs` (square
    /// wave from injection) — CPU and disk are untouched.
    FlakyNic {
        /// Which node's NIC flaps.
        node: NodeId,
        /// NIC bandwidth during a bad half-period, percent of nominal.
        nic_pct: u32,
        /// Half-period of the flapping in seconds of virtual time.
        period_secs: u32,
    },
}

impl Fault {
    /// Stable counter/trace label, one per variant (the accounting oracle
    /// matches injections against these).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Fault::KillDaemon { .. } => "KillDaemon",
            Fault::HeapLeak { .. } => "HeapLeak",
            Fault::CorruptBlock { .. } => "CorruptBlock",
            Fault::GhostDaemon { .. } => "GhostDaemon",
            Fault::RestartNameNode => "RestartNameNode",
            Fault::SlowNode { .. } => "SlowNode",
            Fault::RestartDaemons => "RestartDaemons",
            Fault::KillPipelineDatanode { .. } => "KillPipelineDatanode",
            Fault::WriterCrash { .. } => "WriterCrash",
            Fault::SlowPipelineAck { .. } => "SlowPipelineAck",
            Fault::DegradeNode { .. } => "DegradeNode",
            Fault::NoisyNeighbor { .. } => "NoisyNeighbor",
            Fault::FlakyNic { .. } => "FlakyNic",
        }
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::KillDaemon { kind, node } => write!(f, "KillDaemon({} on {node})", kind.name()),
            Fault::HeapLeak { rate } => write!(f, "HeapLeak({rate} B/task)"),
            Fault::CorruptBlock { victim } => write!(f, "CorruptBlock(victim {victim})"),
            Fault::GhostDaemon { node, port } => write!(f, "GhostDaemon({node}:{port})"),
            Fault::RestartNameNode => write!(f, "RestartNameNode"),
            Fault::SlowNode { node, factor_pct } => {
                write!(f, "SlowNode({node} at {factor_pct}%)")
            }
            Fault::RestartDaemons => write!(f, "RestartDaemons"),
            Fault::KillPipelineDatanode { after_stores } => {
                write!(f, "KillPipelineDatanode(store {after_stores})")
            }
            Fault::WriterCrash { after_blocks } => {
                write!(f, "WriterCrash(after {after_blocks} block(s))")
            }
            Fault::SlowPipelineAck { after_stores } => {
                write!(f, "SlowPipelineAck(store {after_stores})")
            }
            Fault::DegradeNode { node, floor_pct, ramp_secs } => {
                write!(f, "DegradeNode({node} to {floor_pct}% over {ramp_secs}s)")
            }
            Fault::NoisyNeighbor { node, slow_pct, window_secs } => {
                write!(f, "NoisyNeighbor({node} at {slow_pct}% for {window_secs}s)")
            }
            Fault::FlakyNic { node, nic_pct, period_secs } => {
                write!(f, "FlakyNic({node} nic {nic_pct}% every {period_secs}s)")
            }
        }
    }
}

fn kind_tag(kind: DaemonKind) -> u8 {
    match kind {
        DaemonKind::NameNode => 0,
        DaemonKind::DataNode => 1,
        DaemonKind::JobTracker => 2,
        DaemonKind::TaskTracker => 3,
    }
}

fn kind_from_tag(tag: u8) -> Result<DaemonKind> {
    Ok(match tag {
        0 => DaemonKind::NameNode,
        1 => DaemonKind::DataNode,
        2 => DaemonKind::JobTracker,
        3 => DaemonKind::TaskTracker,
        t => return Err(HlError::Codec(format!("unknown daemon kind tag {t}"))),
    })
}

impl Writable for Fault {
    fn write(&self, buf: &mut Vec<u8>) {
        match self {
            Fault::KillDaemon { kind, node } => {
                buf.push(0);
                buf.push(kind_tag(*kind));
                write_vu64(node.0 as u64, buf);
            }
            Fault::HeapLeak { rate } => {
                buf.push(1);
                write_vu64(*rate, buf);
            }
            Fault::CorruptBlock { victim } => {
                buf.push(2);
                write_vu64(*victim, buf);
            }
            Fault::GhostDaemon { node, port } => {
                buf.push(3);
                write_vu64(node.0 as u64, buf);
                write_vu64(*port as u64, buf);
            }
            Fault::RestartNameNode => buf.push(4),
            Fault::SlowNode { node, factor_pct } => {
                buf.push(5);
                write_vu64(node.0 as u64, buf);
                write_vu64(*factor_pct as u64, buf);
            }
            Fault::RestartDaemons => buf.push(6),
            Fault::KillPipelineDatanode { after_stores } => {
                buf.push(7);
                write_vu64(*after_stores as u64, buf);
            }
            Fault::WriterCrash { after_blocks } => {
                buf.push(8);
                write_vu64(*after_blocks as u64, buf);
            }
            Fault::SlowPipelineAck { after_stores } => {
                buf.push(9);
                write_vu64(*after_stores as u64, buf);
            }
            Fault::DegradeNode { node, floor_pct, ramp_secs } => {
                buf.push(10);
                write_vu64(node.0 as u64, buf);
                write_vu64(*floor_pct as u64, buf);
                write_vu64(*ramp_secs as u64, buf);
            }
            Fault::NoisyNeighbor { node, slow_pct, window_secs } => {
                buf.push(11);
                write_vu64(node.0 as u64, buf);
                write_vu64(*slow_pct as u64, buf);
                write_vu64(*window_secs as u64, buf);
            }
            Fault::FlakyNic { node, nic_pct, period_secs } => {
                buf.push(12);
                write_vu64(node.0 as u64, buf);
                write_vu64(*nic_pct as u64, buf);
                write_vu64(*period_secs as u64, buf);
            }
        }
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        let tag = u8::read(buf)?;
        Ok(match tag {
            0 => Fault::KillDaemon {
                kind: kind_from_tag(u8::read(buf)?)?,
                node: NodeId(read_narrow(buf, "node id")?),
            },
            1 => Fault::HeapLeak { rate: read_vu64(buf)? },
            2 => Fault::CorruptBlock { victim: read_vu64(buf)? },
            3 => Fault::GhostDaemon {
                node: NodeId(read_narrow(buf, "node id")?),
                port: read_narrow::<u16>(buf, "port")?,
            },
            4 => Fault::RestartNameNode,
            5 => Fault::SlowNode {
                node: NodeId(read_narrow(buf, "node id")?),
                factor_pct: read_narrow(buf, "slow factor")?,
            },
            6 => Fault::RestartDaemons,
            7 => Fault::KillPipelineDatanode { after_stores: read_narrow(buf, "store index")? },
            8 => Fault::WriterCrash { after_blocks: read_narrow(buf, "block count")? },
            9 => Fault::SlowPipelineAck { after_stores: read_narrow(buf, "store index")? },
            10 => Fault::DegradeNode {
                node: NodeId(read_narrow(buf, "node id")?),
                floor_pct: read_narrow(buf, "floor pct")?,
                ramp_secs: read_narrow(buf, "ramp secs")?,
            },
            11 => Fault::NoisyNeighbor {
                node: NodeId(read_narrow(buf, "node id")?),
                slow_pct: read_narrow(buf, "slow pct")?,
                window_secs: read_narrow(buf, "window secs")?,
            },
            12 => Fault::FlakyNic {
                node: NodeId(read_narrow(buf, "node id")?),
                nic_pct: read_narrow(buf, "nic pct")?,
                period_secs: read_narrow(buf, "period secs")?,
            },
            t => return Err(HlError::Codec(format!("unknown fault tag {t}"))),
        })
    }
}

/// Read a varint and narrow it checked (codec error on overflow, never a
/// silent truncation).
fn read_narrow<T: TryFrom<u64>>(buf: &mut &[u8], what: &str) -> Result<T> {
    let v = read_vu64(buf)?;
    T::try_from(v).map_err(|_| HlError::Codec(format!("{what} {v} out of range")))
}

/// A fault scheduled for a specific round of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PlannedFault {
    /// Zero-based round the fault fires at (before that round's job).
    pub at: u32,
    /// What happens.
    pub fault: Fault,
}

impl Writable for PlannedFault {
    fn write(&self, buf: &mut Vec<u8>) {
        write_vu64(self.at as u64, buf);
        self.fault.write(buf);
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(PlannedFault { at: read_narrow(buf, "round")?, fault: Fault::read(buf)? })
    }
}

/// A complete, seeded fault schedule for one chaos run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FaultPlan {
    /// The seed every random choice in the run derives from.
    pub seed: u64,
    /// Number of workload rounds the runner drives.
    pub rounds: u32,
    /// The schedule, in (round, generation) order.
    pub faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// Faults scheduled for `round`, in plan order.
    pub(crate) fn at(&self, round: u32) -> impl Iterator<Item = &Fault> {
        self.faults.iter().filter(move |p| p.at == round).map(|p| &p.fault)
    }

    /// Total scheduled fault count.
    pub(crate) fn len(&self) -> usize {
        self.faults.len()
    }
}

impl Writable for FaultPlan {
    fn write(&self, buf: &mut Vec<u8>) {
        write_vu64(self.seed, buf);
        write_vu64(self.rounds as u64, buf);
        self.faults.write(buf);
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(FaultPlan {
            seed: read_vu64(buf)?,
            rounds: read_narrow(buf, "rounds")?,
            faults: Vec::<PlannedFault>::read(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writable_round_trips() {
        let faults = vec![
            Fault::KillDaemon { kind: DaemonKind::TaskTracker, node: NodeId(3) },
            Fault::KillDaemon { kind: DaemonKind::DataNode, node: NodeId(0) },
            Fault::KillDaemon { kind: DaemonKind::JobTracker, node: NodeId(0) },
            Fault::KillDaemon { kind: DaemonKind::NameNode, node: NodeId(0) },
            Fault::HeapLeak { rate: 192 * 1024 * 1024 },
            Fault::CorruptBlock { victim: u64::MAX },
            Fault::GhostDaemon { node: NodeId(7), port: 50060 },
            Fault::RestartNameNode,
            Fault::SlowNode { node: NodeId(2), factor_pct: 800 },
            Fault::RestartDaemons,
            Fault::KillPipelineDatanode { after_stores: 0 },
            Fault::KillPipelineDatanode { after_stores: u32::MAX },
            Fault::WriterCrash { after_blocks: 3 },
            Fault::SlowPipelineAck { after_stores: 11 },
            Fault::DegradeNode { node: NodeId(1), floor_pct: 20, ramp_secs: 120 },
            Fault::NoisyNeighbor { node: NodeId(4), slow_pct: 50, window_secs: 90 },
            Fault::FlakyNic { node: NodeId(0), nic_pct: 25, period_secs: 30 },
        ];
        for f in &faults {
            assert_eq!(&Fault::from_bytes(&f.to_bytes()).unwrap(), f);
        }

        let planned = PlannedFault { at: 2, fault: Fault::RestartNameNode };
        assert_eq!(PlannedFault::from_bytes(&planned.to_bytes()).unwrap(), planned);

        let plan = FaultPlan {
            seed: 0xDEAD_BEEF,
            rounds: 4,
            faults: faults
                .into_iter()
                .enumerate()
                .map(|(i, fault)| PlannedFault { at: i as u32 % 4, fault })
                .collect(),
        };
        assert_eq!(FaultPlan::from_bytes(&plan.to_bytes()).unwrap(), plan);
    }

    #[test]
    fn unknown_tags_are_codec_errors() {
        assert!(Fault::from_bytes(&[99]).is_err());
        assert!(Fault::from_bytes(&[0, 99, 0]).is_err(), "bad daemon kind");
        // Truncated input.
        assert!(Fault::from_bytes(&[1]).is_err());
        // Port out of range.
        let mut buf = vec![3, 0];
        hl_common::writable::write_vu64(70_000, &mut buf);
        assert!(Fault::from_bytes(&buf).is_err());
    }

    #[test]
    fn plan_round_filter() {
        let plan = FaultPlan {
            seed: 1,
            rounds: 3,
            faults: vec![
                PlannedFault { at: 0, fault: Fault::RestartNameNode },
                PlannedFault { at: 2, fault: Fault::RestartDaemons },
                PlannedFault { at: 0, fault: Fault::HeapLeak { rate: 1 } },
            ],
        };
        assert_eq!(plan.at(0).count(), 2);
        assert_eq!(plan.at(1).count(), 0);
        assert_eq!(plan.at(2).count(), 1);
        assert_eq!(plan.len(), 3);
    }
}

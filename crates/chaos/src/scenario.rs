//! Scenario packs: named families of fault plans.
//!
//! Each pack is a *distribution* over [`FaultPlan`]s, sampled by seed.
//! The packs replay the paper's operational war stories:
//!
//! * **meltdown** — heap-leaking student jobs OOM TaskTrackers and their
//!   colocated DataNodes (Section II-A, Fall 2012);
//! * **restart-drill** — the NameNode bounces mid-semester and the whole
//!   cluster sits in safe mode counting block reports;
//! * **bit-rot** — replicas silently corrupt on disk and the checksum /
//!   scanner / re-replication machinery has to notice;
//! * **ghost-ports** — departed sessions leave daemons squatting on the
//!   Hadoop ports until the campus cleanup cron sweeps them;
//! * **write-storm** — DataNodes die and acks vanish *mid-write*, and
//!   writing clients crash outright, driving pipeline recovery,
//!   generation-stamp invalidation, and lease recovery;
//! * **degraded-ops** — nothing crashes, everything *drags*: nodes decay
//!   progressively, noisy neighbors flare, NICs flap, and speculative
//!   execution has to route around the slow hardware without ever
//!   changing a byte of job output;
//! * **compressed-path** — bit-rot aimed at the *compressed* byte path:
//!   rounds read the hl-codec-framed corpus copy with compressed map
//!   output on, so corruption must be caught by the per-block CRC before
//!   any frame reaches the decoder.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hl_cluster::failure::DaemonKind;
use hl_common::prelude::*;
use hl_common::units::ByteSize;

use crate::plan::{Fault, FaultPlan, PlannedFault};

/// Number of worker nodes every chaos cluster runs (small enough to soak
/// hundreds of seeds, large enough that 3× replication has slack).
pub const NODES: u32 = 5;

/// Workload rounds per run.
pub const ROUNDS: u32 = 4;

/// The scenario packs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioPack {
    /// Heap-leak cascade: TaskTracker + DataNode OOM crashes mid-job.
    Meltdown,
    /// NameNode crash + journal recovery + safe-mode exit, plus daemon
    /// kills around it.
    RestartDrill,
    /// Seeded replica corruption against the checksum paths.
    BitRot,
    /// Ghost daemons squatting ports across session boundaries.
    GhostPorts,
    /// Mid-write mayhem: pipeline DataNode kills, lost acks, and crashed
    /// writers against the write path's recovery machinery.
    WriteStorm,
    /// Degraded-mode operation: progressive decay, noisy-neighbor
    /// interference, and flaky NICs — slow hardware instead of dead
    /// hardware, exercising speculation end to end.
    DegradedOps,
    /// Bit-rot against the compressed byte path: rounds run over the
    /// hl-codec-framed corpus with compressed map output, so the checksum
    /// wall has to catch corruption before any frame is decoded.
    CompressedPath,
}

impl ScenarioPack {
    /// All packs, soak order.
    pub const ALL: [ScenarioPack; 7] = [
        ScenarioPack::Meltdown,
        ScenarioPack::RestartDrill,
        ScenarioPack::BitRot,
        ScenarioPack::GhostPorts,
        ScenarioPack::WriteStorm,
        ScenarioPack::DegradedOps,
        ScenarioPack::CompressedPath,
    ];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioPack::Meltdown => "meltdown",
            ScenarioPack::RestartDrill => "restart-drill",
            ScenarioPack::BitRot => "bit-rot",
            ScenarioPack::GhostPorts => "ghost-ports",
            ScenarioPack::WriteStorm => "write-storm",
            ScenarioPack::DegradedOps => "degraded-ops",
            ScenarioPack::CompressedPath => "compressed-path",
        }
    }

    /// Parse a CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Sample this pack's fault plan for `seed`. Same seed, same plan —
    /// the schedule is a pure function of `(pack, seed)`.
    pub(crate) fn plan(self, seed: u64) -> FaultPlan {
        // Domain-separate the stream per pack so seed N draws different
        // schedules across packs.
        let salt = match self {
            ScenarioPack::Meltdown => 0x4d45,
            ScenarioPack::RestartDrill => 0x5244,
            ScenarioPack::BitRot => 0x4252,
            ScenarioPack::GhostPorts => 0x4750,
            ScenarioPack::WriteStorm => 0x5753,
            ScenarioPack::DegradedOps => 0x444f,
            ScenarioPack::CompressedPath => 0x4350,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (salt << 32));
        let mut faults = Vec::new();
        let node = |rng: &mut ChaCha8Rng| NodeId(rng.gen_range(0..NODES));

        match self {
            ScenarioPack::Meltdown => {
                // A leak rate between 128 and 320 MiB/task crashes a
                // 1 GiB-heap daemon after 3–7 buggy tasks.
                let rate = rng.gen_range(128..=320) * ByteSize::MIB;
                faults.push(PlannedFault { at: 0, fault: Fault::HeapLeak { rate } });
                if rng.gen_bool(0.5) {
                    faults.push(PlannedFault { at: 1, fault: Fault::HeapLeak { rate } });
                }
                if rng.gen_bool(0.4) {
                    faults.push(PlannedFault {
                        at: 1,
                        fault: Fault::SlowNode {
                            node: node(&mut rng),
                            factor_pct: rng.gen_range(300..=1200),
                        },
                    });
                }
                faults.push(PlannedFault { at: 2, fault: Fault::RestartDaemons });
            }
            ScenarioPack::RestartDrill => {
                faults.push(PlannedFault {
                    at: 0,
                    fault: Fault::KillDaemon { kind: DaemonKind::DataNode, node: node(&mut rng) },
                });
                if rng.gen_bool(0.5) {
                    faults.push(PlannedFault {
                        at: 1,
                        fault: Fault::KillDaemon {
                            kind: DaemonKind::TaskTracker,
                            node: node(&mut rng),
                        },
                    });
                }
                faults.push(PlannedFault { at: 1, fault: Fault::RestartNameNode });
                if rng.gen_bool(0.3) {
                    faults.push(PlannedFault {
                        at: 2,
                        fault: Fault::KillDaemon { kind: DaemonKind::JobTracker, node: NodeId(0) },
                    });
                }
                faults.push(PlannedFault { at: 3, fault: Fault::RestartDaemons });
            }
            ScenarioPack::BitRot => {
                for _ in 0..rng.gen_range(2..=4u32) {
                    faults.push(PlannedFault {
                        at: rng.gen_range(0..ROUNDS.saturating_sub(1)),
                        fault: Fault::CorruptBlock { victim: rng.gen_range(0..u64::MAX) },
                    });
                }
                if rng.gen_bool(0.4) {
                    faults.push(PlannedFault {
                        at: 2,
                        fault: Fault::KillDaemon {
                            kind: DaemonKind::DataNode,
                            node: node(&mut rng),
                        },
                    });
                }
                faults.push(PlannedFault { at: ROUNDS - 1, fault: Fault::RestartDaemons });
            }
            ScenarioPack::GhostPorts => {
                for _ in 0..rng.gen_range(2..=4u32) {
                    // Squat ports outside the runner's own well-known set
                    // (those are held, live, by the session itself).
                    let port = 50_100 + rng.gen_range(0..8u16);
                    faults.push(PlannedFault {
                        at: rng.gen_range(0..ROUNDS),
                        fault: Fault::GhostDaemon { node: node(&mut rng), port },
                    });
                }
                if rng.gen_bool(0.5) {
                    faults.push(PlannedFault {
                        at: 1,
                        fault: Fault::KillDaemon {
                            kind: DaemonKind::TaskTracker,
                            node: node(&mut rng),
                        },
                    });
                }
                faults.push(PlannedFault { at: 2, fault: Fault::RestartDaemons });
            }
            ScenarioPack::WriteStorm => {
                // Every plan kills a pipeline DataNode mid-write: a storm
                // write is 3–6 blocks × 3 replicas, so store indices under
                // 9 always land inside the write.
                faults.push(PlannedFault {
                    at: 0,
                    fault: Fault::KillPipelineDatanode { after_stores: rng.gen_range(0..9) },
                });
                // ...and crashes a writer so lease recovery has work to do.
                faults.push(PlannedFault {
                    at: rng.gen_range(0..2),
                    fault: Fault::WriterCrash { after_blocks: rng.gen_range(0..4) },
                });
                if rng.gen_bool(0.6) {
                    faults.push(PlannedFault {
                        at: rng.gen_range(1..3),
                        fault: Fault::SlowPipelineAck { after_stores: rng.gen_range(0..9) },
                    });
                }
                if rng.gen_bool(0.4) {
                    faults.push(PlannedFault {
                        at: 2,
                        fault: Fault::KillDaemon {
                            kind: DaemonKind::DataNode,
                            node: node(&mut rng),
                        },
                    });
                }
                // No RestartNameNode here: a crashed writer's unconfirmed
                // trailing block would wedge safe mode forever, and the
                // restart drill already owns that story. The operator pass
                // revives pipeline-kill victims so replication can quiesce.
                faults.push(PlannedFault { at: ROUNDS - 1, fault: Fault::RestartDaemons });
            }
            ScenarioPack::CompressedPath => {
                // Same rot pressure as bit-rot, but the runner points every
                // round at the framed corpus (and compresses map output),
                // so the corruption targets include hl-codec frames and the
                // CRC wall is what stands between rot and the decoder.
                for _ in 0..rng.gen_range(2..=4u32) {
                    faults.push(PlannedFault {
                        at: rng.gen_range(0..ROUNDS.saturating_sub(1)),
                        fault: Fault::CorruptBlock { victim: rng.gen_range(0..u64::MAX) },
                    });
                }
                if rng.gen_bool(0.4) {
                    faults.push(PlannedFault {
                        at: 2,
                        fault: Fault::KillDaemon {
                            kind: DaemonKind::DataNode,
                            node: node(&mut rng),
                        },
                    });
                }
                faults.push(PlannedFault { at: ROUNDS - 1, fault: Fault::RestartDaemons });
            }
            ScenarioPack::DegradedOps => {
                // Always one progressive straggler: the canonical "VM on
                // an oversubscribed host" that LATE was designed around.
                // Floors stay well above zero so replication and the
                // quiesce oracle always make finite progress.
                faults.push(PlannedFault {
                    at: 0,
                    fault: Fault::DegradeNode {
                        node: node(&mut rng),
                        floor_pct: rng.gen_range(10..=40),
                        ramp_secs: rng.gen_range(60..=240),
                    },
                });
                if rng.gen_bool(0.6) {
                    faults.push(PlannedFault {
                        at: rng.gen_range(0..2),
                        fault: Fault::NoisyNeighbor {
                            node: node(&mut rng),
                            slow_pct: rng.gen_range(20..=60),
                            window_secs: rng.gen_range(60..=180),
                        },
                    });
                }
                if rng.gen_bool(0.6) {
                    faults.push(PlannedFault {
                        at: rng.gen_range(1..3),
                        fault: Fault::FlakyNic {
                            node: node(&mut rng),
                            nic_pct: rng.gen_range(10..=50),
                            period_secs: rng.gen_range(15..=60),
                        },
                    });
                }
                if rng.gen_bool(0.3) {
                    faults.push(PlannedFault {
                        at: rng.gen_range(1..ROUNDS),
                        fault: Fault::SlowNode {
                            node: node(&mut rng),
                            factor_pct: rng.gen_range(300..=1200),
                        },
                    });
                }
            }
        }

        // Keep the schedule in (round, generation) order so injection
        // order is stable and readable in traces.
        faults.sort_by_key(|p| p.at);
        FaultPlan { seed, rounds: ROUNDS, faults }
    }
}

impl std::fmt::Display for ScenarioPack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_pack_and_seed() {
        for pack in ScenarioPack::ALL {
            assert_eq!(pack.plan(42), pack.plan(42), "{pack} must be deterministic");
            assert!(pack.plan(42).len() > 0);
            assert_eq!(pack.plan(42).rounds, ROUNDS);
        }
        // Packs draw different schedules from the same seed.
        assert_ne!(
            ScenarioPack::Meltdown.plan(42).faults,
            ScenarioPack::RestartDrill.plan(42).faults
        );
    }

    #[test]
    fn names_round_trip() {
        for pack in ScenarioPack::ALL {
            assert_eq!(ScenarioPack::from_name(pack.name()), Some(pack));
        }
        assert_eq!(ScenarioPack::from_name("nope"), None);
    }

    #[test]
    fn pack_shapes() {
        // Every meltdown plan leaks; every bit-rot plan corrupts; every
        // ghost-ports plan squats; every restart drill bounces the NN.
        for seed in 0..50 {
            assert!(ScenarioPack::Meltdown
                .plan(seed)
                .faults
                .iter()
                .any(|p| matches!(p.fault, Fault::HeapLeak { .. })));
            assert!(ScenarioPack::BitRot
                .plan(seed)
                .faults
                .iter()
                .any(|p| matches!(p.fault, Fault::CorruptBlock { .. })));
            assert!(ScenarioPack::GhostPorts
                .plan(seed)
                .faults
                .iter()
                .any(|p| matches!(p.fault, Fault::GhostDaemon { .. })));
            assert!(ScenarioPack::RestartDrill
                .plan(seed)
                .faults
                .iter()
                .any(|p| matches!(p.fault, Fault::RestartNameNode)));
            // Every write storm kills a pipeline DataNode AND crashes a
            // writer, and never bounces the NameNode (a crashed writer's
            // phantom block would wedge safe mode).
            let storm = ScenarioPack::WriteStorm.plan(seed);
            assert!(storm
                .faults
                .iter()
                .any(|p| matches!(p.fault, Fault::KillPipelineDatanode { .. })));
            assert!(storm.faults.iter().any(|p| matches!(p.fault, Fault::WriterCrash { .. })));
            assert!(!storm.faults.iter().any(|p| matches!(
                p.fault,
                Fault::RestartNameNode | Fault::KillDaemon { kind: DaemonKind::NameNode, .. }
            )));
            // Every degraded-ops plan decays a node progressively, and
            // never kills anything — slow hardware, not dead hardware.
            let degraded = ScenarioPack::DegradedOps.plan(seed);
            assert!(degraded.faults.iter().any(|p| matches!(p.fault, Fault::DegradeNode { .. })));
            assert!(!degraded.faults.iter().any(|p| matches!(
                p.fault,
                Fault::KillDaemon { .. }
                    | Fault::RestartNameNode
                    | Fault::HeapLeak { .. }
                    | Fault::KillPipelineDatanode { .. }
                    | Fault::WriterCrash { .. }
            )));
            // Degrade floors stay strictly positive so transfers always
            // make progress.
            for p in &degraded.faults {
                if let Fault::DegradeNode { floor_pct, .. } = p.fault {
                    assert!(floor_pct > 0);
                }
            }
            // Every compressed-path plan rots at least one replica — the
            // whole point is corruption meeting the frame CRC wall.
            assert!(ScenarioPack::CompressedPath
                .plan(seed)
                .faults
                .iter()
                .any(|p| matches!(p.fault, Fault::CorruptBlock { .. })));
        }
    }
}

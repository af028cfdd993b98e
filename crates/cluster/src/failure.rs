//! Failure models for the paper's Version-1 meltdown.
//!
//! Section II-A: student jobs "contained run time errors that created
//! memory leaks on the Java heap memory and consequently crashed the task
//! tracker and data node daemons". The drill in `hl-core` replays that
//! story; this module supplies the mechanisms:
//!
//! * [`HeapLeakModel`] — daemon heap grows per buggy task; crossing the
//!   limit is an OOM crash;
//! * [`DaemonKind`]/[`DaemonHealth`] — which daemon on which node is up;
//! * [`BitRot`] — seeded random block corruption for checksum/scanner
//!   tests.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hl_common::prelude::*;
use hl_common::units::ByteSize;

/// The four Hadoop 1.x daemons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DaemonKind {
    /// The HDFS metadata master.
    NameNode,
    /// An HDFS block-storage daemon.
    DataNode,
    /// The MapReduce master.
    JobTracker,
    /// A per-node MapReduce worker daemon.
    TaskTracker,
}

impl DaemonKind {
    /// Lowercase script name (`start-dfs.sh` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            DaemonKind::NameNode => "namenode",
            DaemonKind::DataNode => "datanode",
            DaemonKind::JobTracker => "jobtracker",
            DaemonKind::TaskTracker => "tasktracker",
        }
    }
}

/// Models a daemon JVM whose heap grows when buggy tasks leak.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapLeakModel {
    /// Configured JVM heap ceiling (−Xmx), bytes.
    pub heap_limit: u64,
    /// Resident heap after a clean start, bytes.
    pub base_heap: u64,
    /// Bytes leaked into the daemon per buggy task it hosts.
    pub leak_per_buggy_task: u64,
    current: u64,
}

impl HeapLeakModel {
    /// Hadoop-1-era defaults: 1 GB daemon heap, ~200 MB resident after
    /// start, and a leaky student task pinning ~64 MB per run.
    fn hadoop1_default() -> Self {
        Self::new(ByteSize::GIB, 200 * ByteSize::MIB, 64 * ByteSize::MIB)
    }

    /// Custom model.
    pub fn new(heap_limit: u64, base_heap: u64, leak_per_buggy_task: u64) -> Self {
        HeapLeakModel { heap_limit, base_heap, leak_per_buggy_task, current: base_heap }
    }

    /// Host one task; `buggy` tasks leak. Returns `true` when the daemon
    /// OOM-crashes on this task.
    pub fn host_task(&mut self, buggy: bool) -> bool {
        if buggy {
            self.current = self.current.saturating_add(self.leak_per_buggy_task);
        }
        self.current > self.heap_limit
    }

    /// Restart the JVM: heap back to base.
    pub fn restart(&mut self) {
        self.current = self.base_heap;
    }
}

/// Liveness of one daemon instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonHealth {
    /// Which daemon.
    pub kind: DaemonKind,
    /// Where it runs.
    pub node: NodeId,
    /// Whether it is currently up.
    pub alive: bool,
    /// When it last (re)started.
    pub started_at: SimTime,
    /// Crash count, for reports.
    pub crashes: u32,
    /// Its heap model.
    pub heap: HeapLeakModel,
}

impl DaemonHealth {
    /// A freshly started daemon.
    pub fn new(kind: DaemonKind, node: NodeId, now: SimTime) -> Self {
        DaemonHealth {
            kind,
            node,
            alive: true,
            started_at: now,
            crashes: 0,
            heap: HeapLeakModel::hadoop1_default(),
        }
    }

    /// Host a task; on OOM the daemon dies.
    pub fn host_task(&mut self, buggy: bool) -> bool {
        if !self.alive {
            return false;
        }
        if self.heap.host_task(buggy) {
            self.alive = false;
            self.crashes += 1;
            true
        } else {
            false
        }
    }

    /// Restart the daemon at `now`.
    pub fn restart(&mut self, now: SimTime) {
        self.alive = true;
        self.started_at = now;
        self.heap.restart();
    }
}

/// Seeded random block corruption (for DataNode scanner tests and the
/// checksum path). Deterministic per seed.
#[derive(Debug, Clone)]
pub struct BitRot {
    rng: ChaCha8Rng,
    /// Probability that a given block gets one flipped bit.
    pub per_block_probability: f64,
}

impl BitRot {
    /// New injector with a fixed seed.
    pub fn new(seed: u64, per_block_probability: f64) -> Self {
        BitRot { rng: ChaCha8Rng::seed_from_u64(seed), per_block_probability }
    }

    /// Maybe corrupt `data` in place; returns the flipped byte offset.
    pub fn maybe_corrupt(&mut self, data: &mut [u8]) -> Option<usize> {
        if data.is_empty() || !self.rng.gen_bool(self.per_block_probability.clamp(0.0, 1.0)) {
            return None;
        }
        let offset = self.rng.gen_range(0..data.len());
        let bit = self.rng.gen_range(0..8u8);
        data[offset] ^= 1 << bit;
        Some(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_leak_crashes_after_expected_tasks() {
        let mut m = HeapLeakModel::hadoop1_default();
        // (1024 - 200) / 64 = 12 tasks fit under the limit; the 13th crashes.
        let mut crashed_at = None;
        for i in 1..=20 {
            if m.host_task(true) {
                crashed_at = Some(i);
                break;
            }
        }
        assert_eq!(crashed_at, Some(13));
    }

    #[test]
    fn clean_tasks_never_crash() {
        let mut m = HeapLeakModel::hadoop1_default();
        for _ in 0..10_000 {
            assert!(!m.host_task(false));
        }
        assert_eq!(m.current, 200 * ByteSize::MIB);
    }

    #[test]
    fn restart_resets_heap() {
        let mut m = HeapLeakModel::hadoop1_default();
        for _ in 0..5 {
            m.host_task(true);
        }
        assert!(m.current > m.base_heap);
        m.restart();
        assert_eq!(m.current, m.base_heap);
    }

    #[test]
    fn daemon_health_tracks_crashes_and_restarts() {
        let mut d = DaemonHealth::new(DaemonKind::TaskTracker, NodeId(2), SimTime::ZERO);
        let mut died = false;
        for _ in 0..50 {
            if d.host_task(true) {
                died = true;
                break;
            }
        }
        assert!(died);
        assert!(!d.alive);
        assert_eq!(d.crashes, 1);
        // Dead daemons host nothing.
        assert!(!d.host_task(true));
        d.restart(SimTime(99));
        assert!(d.alive);
        assert_eq!(d.started_at, SimTime(99));
    }

    #[test]
    fn bitrot_is_deterministic_per_seed() {
        let run = |seed| {
            let mut rot = BitRot::new(seed, 0.5);
            let mut hits = Vec::new();
            for i in 0..100 {
                let mut block = vec![0u8; 64];
                if let Some(off) = rot.maybe_corrupt(&mut block) {
                    hits.push((i, off));
                }
            }
            hits
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn bitrot_flips_exactly_one_bit() {
        let mut rot = BitRot::new(1, 1.0);
        let mut block = vec![0u8; 256];
        let off = rot.maybe_corrupt(&mut block).unwrap();
        assert_eq!(block.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        assert_ne!(block[off], 0);
    }

    #[test]
    fn bitrot_zero_probability_never_corrupts() {
        let mut rot = BitRot::new(1, 0.0);
        let mut block = vec![0u8; 64];
        for _ in 0..1000 {
            assert!(rot.maybe_corrupt(&mut block).is_none());
        }
        assert!(block.iter().all(|&b| b == 0));
    }
}

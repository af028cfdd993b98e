//! The chaos runner: interleave a seeded fault plan with real workloads.
//!
//! One run = one five-node course cluster, one seeded corpus staged into
//! DFS, and [`ROUNDS`](crate::scenario::ROUNDS) wordcount rounds with the
//! plan's faults injected between them. Everything observable — job
//! traces, corruption offsets, virtual timestamps — is a pure function of
//! `(pack, seed)`, so a failing seed replays byte-identically and the
//! whole run can be hash-compared across re-executions.

use std::collections::BTreeMap;

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hl_cluster::failure::{BitRot, DaemonKind};
use hl_cluster::node::{ClusterSpec, DegradeModel, PerfProfile};
use hl_cluster::ports::well_known;
use hl_cluster::provision::Campus;
use hl_common::config::keys;
use hl_common::prelude::*;
use hl_datagen::CorpusGen;
use hl_dfs::{BlockPayload, PipelineFault};
use hl_mapreduce::api::{Combiner, Mapper, Reducer, SideFiles};
use hl_mapreduce::local::LocalRunner;
use hl_mapreduce::{Job, MrCluster};
use hl_workloads::wordcount::{wordcount, wordcount_combiner};

use crate::oracle::{self, Violation};
use crate::plan::{Fault, FaultPlan};
use crate::scenario::{ScenarioPack, NODES};

/// The staged input every round's job reads.
const INPUT: &str = "/in/corpus.txt";

/// The same corpus stored through the hl-codec frame path: blocks hold
/// whole frames, reads decode transparently. The compressed-path pack
/// points its rounds here; every pack's durability oracle re-reads it.
const INPUT_PACKED: &str = "/in/corpus.hlz";

/// Owner string for the session's own (live, legitimate) port bindings.
pub(crate) const SESSION_OWNER: &str = "chaos-session";

/// Corpus length in words: ~10 blocks at the 2 KiB chaos block size, so
/// every job runs a real multi-map, multi-reduce DAG.
const CORPUS_WORDS: usize = 2000;

/// A write the DFS acknowledged: the durability oracle holds it to that.
#[derive(Debug, Clone)]
pub struct AckedWrite {
    /// DFS path.
    pub path: String,
    /// Acknowledged length in bytes.
    pub len: u64,
    /// CRC32 of the acknowledged bytes.
    pub crc: u32,
}

/// Everything a finished run reports.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Scenario pack the plan was drawn from.
    pub pack: ScenarioPack,
    /// The seed.
    pub seed: u64,
    /// Faults the plan scheduled.
    pub planned: usize,
    /// Faults actually injected (== `planned` or the accounting oracle fires).
    pub injected: u32,
    /// Jobs that completed and matched ground truth.
    pub jobs_ok: u32,
    /// Jobs that failed (cleanly, unless a violation says otherwise).
    pub jobs_failed: u32,
    /// `(block id, byte offset)` of every bit-rot corruption performed.
    pub corruptions: Vec<(u64, usize)>,
    /// FNV-1a over the full rendered event trace — the replay fingerprint.
    pub trace_hash: u64,
    /// The full rendered trace (cluster log + campus log + corruption set).
    pub trace: String,
    /// Every oracle violation. Empty means the run passed.
    pub violations: Vec<Violation>,
}

impl ChaosReport {
    /// True when every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} seed {}: {} ok / {} failed jobs, {}/{} faults, {} corruption(s), trace {:#018x} — {}",
            self.pack,
            self.seed,
            self.jobs_ok,
            self.jobs_failed,
            self.injected,
            self.planned,
            self.corruptions.len(),
            self.trace_hash,
            if self.ok() {
                "OK".to_string()
            } else {
                format!("{} VIOLATION(S)", self.violations.len())
            }
        )
    }
}

/// Drives one cluster through one fault plan, then faces the oracles.
pub struct ChaosRunner {
    pub(crate) cluster: MrCluster,
    pub(crate) campus: Campus,
    pub(crate) plan: FaultPlan,
    pub(crate) pack: ScenarioPack,
    /// Runner-side randomness (replica choice): seeded from the plan seed,
    /// domain-separated from the planner's stream.
    rng: ChaCha8Rng,
    /// Seeded corruption-offset stream (probability 1: the *schedule*
    /// decides whether to corrupt, BitRot decides where).
    rot: BitRot,
    truth: BTreeMap<String, u64>,
    pub(crate) acked: Vec<AckedWrite>,
    /// Files whose writer died mid-write: `(path, bytes the writer meant
    /// to put)`. The lease-recovery oracle holds each to a consistent,
    /// CRC-valid whole-block prefix of those bytes.
    pub(crate) open_writers: Vec<(String, Vec<u8>)>,
    pub(crate) corruptions: Vec<(u64, usize)>,
    pub(crate) counters: Counters,
    pub(crate) violations: Vec<Violation>,
    pub(crate) injected: u32,
    pub(crate) session_ports: usize,
    jobs_ok: u32,
    jobs_failed: u32,
    pending_leak: Option<u64>,
    ghost_seq: u32,
    storm_seq: u32,
}

impl ChaosRunner {
    /// Run `pack`'s plan for `seed` to completion and return the report.
    /// `Err` means the harness could not even set up; oracle violations
    /// land in the report, not here.
    pub fn run(pack: ScenarioPack, seed: u64) -> Result<ChaosReport> {
        let mut runner = ChaosRunner::new(pack, seed)?;
        for round in 0..runner.plan.rounds {
            runner.round(round);
        }
        Ok(runner.finish())
    }

    fn new(pack: ScenarioPack, seed: u64) -> Result<Self> {
        let plan = pack.plan(seed);
        let spec = ClusterSpec::course_hadoop(NODES as usize);
        let mut config = Configuration::with_defaults();
        // Small blocks so a ~20 KiB corpus spreads into a real block map,
        // and a short dead-node timeout so death + re-replication fit in a
        // round's protocol window.
        config.set(keys::DFS_BLOCK_SIZE, 2048u64);
        config.set(keys::DFS_HEARTBEAT_DEAD_AFTER, 20u64);
        // Checkpoint every 32 edit-log ops so RestartNameNode drills load
        // an fsimage and replay a short tail, not the whole journal.
        config.set(keys::DFS_CHECKPOINT_OPS, 32u64);
        // Fan the soak out across every scheduler policy. Single-tenant
        // engine runs degenerate to the same assignments under all three,
        // so job outcomes stay seed-stable while the policy code paths
        // (and the scheduler-invariants oracle) still get exercised.
        let policy = match seed % 3 {
            0 => "fifo",
            1 => "fair",
            _ => "capacity",
        };
        config.set(keys::MAPRED_SCHEDULER, policy);
        let mut cluster = MrCluster::new(spec, config)?;
        cluster.log.log(SimTime::ZERO, "chaos", format!("scheduler policy: {policy}"));
        // The client's read-failover jitter stream is per-run: same seed,
        // same backoff spread, byte-identical traces.
        cluster.dfs.set_client_seed(seed ^ 0x444643); // "DFC"

        // The session binds its daemons' ports, like a student's myHadoop
        // start-up script.
        let mut campus = Campus::new(NODES as usize);
        let mut session_ports = 0;
        for node in (0..NODES).map(NodeId) {
            for port in well_known::ALL {
                campus.ports.bind(SimTime::ZERO, node, port, SESSION_OWNER)?;
                session_ports += 1;
            }
        }

        // Stage the seeded corpus and record the acknowledged write.
        cluster.dfs.namenode.mkdirs("/in")?;
        cluster.dfs.namenode.mkdirs("/out")?;
        let (corpus, expected) = CorpusGen::new(seed).generate(CORPUS_WORDS);
        cluster.put_input(INPUT, corpus.as_bytes())?;
        // The compressed copy rides in every pack: its framed blocks sit in
        // the manifest where bit-rot can chew them, and the durability
        // oracle holds the *logical* bytes (reads decode transparently), so
        // a rotted frame either fails over or trips a violation.
        let zput = cluster.dfs.put_compressed(
            &mut cluster.net,
            cluster.now,
            INPUT_PACKED,
            corpus.as_bytes(),
            None,
            hl_codec::CodecId::Hlz,
        )?;
        cluster.now = zput.completed_at;
        let acked = vec![
            AckedWrite {
                path: INPUT.to_string(),
                len: corpus.len() as u64,
                crc: Crc32::checksum(corpus.as_bytes()),
            },
            AckedWrite {
                path: INPUT_PACKED.to_string(),
                len: corpus.len() as u64,
                crc: Crc32::checksum(corpus.as_bytes()),
            },
        ];

        // Ground truth from the LocalJobRunner analogue, cross-checked
        // against the generator's own tally.
        let local = LocalRunner::serial().run(
            &wordcount(INPUT, "/out/_local", 2),
            &[("corpus.txt".to_string(), corpus.into_bytes())],
            &SideFiles::new(),
        )?;
        let truth = oracle::parse_counts(&local.output.join("\n"));

        let mut runner = ChaosRunner {
            cluster,
            campus,
            plan,
            pack,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x52554e), // "RUN"
            rot: BitRot::new(seed, 1.0),
            truth,
            acked,
            open_writers: Vec::new(),
            corruptions: Vec::new(),
            counters: Counters::new(),
            violations: Vec::new(),
            injected: 0,
            session_ports,
            jobs_ok: 0,
            jobs_failed: 0,
            pending_leak: None,
            ghost_seq: 0,
            storm_seq: 0,
        };
        if runner.truth != expected {
            runner.violate(
                "ground-truth",
                "LocalRunner output disagrees with the corpus generator's tally".into(),
            );
        }
        Ok(runner)
    }

    pub(crate) fn violate(&mut self, oracle: &'static str, detail: String) {
        let now = self.cluster.now;
        self.cluster.log.log(now, "chaos", format!("VIOLATION [{oracle}] {detail}"));
        self.violations.push(Violation { oracle, detail });
    }

    // ------------------------------------------------------------- rounds

    fn round(&mut self, round: u32) {
        let now = self.cluster.now;
        self.cluster.log.log(now, "chaos", format!("--- round {round} ---"));
        // The protocol rounds due by now run before the faults land.
        self.cluster.dfs.advance_to(&mut self.cluster.net, now);
        let faults: Vec<Fault> = self.plan.at(round).cloned().collect();
        for fault in faults {
            self.inject(fault);
        }
        // The cluster idles 90 s while the daemon protocol digests the
        // damage: long enough for the 60 s dead-node timeout to fire and
        // re-replication to react.
        let until = self.cluster.now + SimDuration::from_secs(90);
        self.cluster.dfs.advance_to(&mut self.cluster.net, until);
        self.cluster.now = until;
        self.campus.advance_to(until);
        // The round's workload, alternating the combiner variant. The
        // compressed-path pack reads the framed corpus and compresses map
        // output, driving every codec byte path under fault pressure.
        let out = format!("/out/r{round}");
        let leaking = self.pending_leak.take().is_some();
        let packed = self.pack == ScenarioPack::CompressedPath;
        let input = if packed { INPUT_PACKED } else { INPUT };
        if round.is_multiple_of(2) {
            let mut job = wordcount(input, &out, 2);
            job.conf.leaks_memory = leaking;
            job.conf.compress_map_output = packed;
            self.drive(&job);
        } else {
            let mut job = wordcount_combiner(input, &out, 2);
            job.conf.leaks_memory = leaking;
            job.conf.compress_map_output = packed;
            self.drive(&job);
        }
    }

    fn drive<M, R, C>(&mut self, job: &Job<M, R, C>)
    where
        M: Mapper,
        R: Reducer<KIn = M::KOut, VIn = M::VOut>,
        C: Combiner<K = M::KOut, V = M::VOut>,
    {
        let out = job.conf.output_path.clone();
        match self.cluster.run_job(job) {
            Ok(_) => {
                self.jobs_ok += 1;
                self.verify_job_output(&out);
            }
            Err(e) if oracle::is_clean_failure(&e) => {
                self.jobs_failed += 1;
                let now = self.cluster.now;
                self.cluster.log.log(now, "chaos", format!("job for {out} failed cleanly: {e}"));
            }
            Err(e) => {
                self.jobs_failed += 1;
                self.violate("clean-failure", format!("job for {out} died uncleanly: {e}"));
            }
        }
    }

    /// Oracle 2, success half: a job that says it succeeded must have
    /// written readable output equal to the LocalRunner ground truth.
    /// Each part file read here becomes an acknowledged write for the
    /// durability oracle.
    fn verify_job_output(&mut self, out: &str) {
        let parts = match self.cluster.dfs.namenode.list(out) {
            Ok(rows) => rows,
            Err(e) => return self.violate("ground-truth", format!("list {out}: {e}")),
        };
        let mut text = String::new();
        for row in parts.into_iter().filter(|r| !r.is_dir) {
            let now = self.cluster.now;
            match self.cluster.dfs.read(&mut self.cluster.net, now, &row.path, None) {
                Ok(got) => {
                    self.cluster.now = got.completed_at;
                    self.acked.push(AckedWrite {
                        path: row.path.clone(),
                        len: got.value.len() as u64,
                        crc: Crc32::checksum(&got.value),
                    });
                    match String::from_utf8(got.value) {
                        Ok(s) => text.push_str(&s),
                        Err(_) => self.violate("ground-truth", format!("{}: not UTF-8", row.path)),
                    }
                }
                Err(e) => self.violate(
                    "durability",
                    format!("{}: unreadable right after job success: {e}", row.path),
                ),
            }
        }
        if oracle::parse_counts(&text) != self.truth {
            self.violate(
                "ground-truth",
                format!("{out}: successful job's output disagrees with LocalRunner"),
            );
        }
    }

    // ---------------------------------------------------------- injection

    fn inject(&mut self, fault: Fault) {
        let now = self.cluster.now;
        self.cluster.log.log(now, "chaos", format!("inject {fault}"));
        self.counters.incr("Chaos", fault.label(), 1);
        // Mirror into the metrics registry: the metrics oracle reconciles
        // the "chaos" daemon's counters against the plan, and the mirror
        // lives on the JobTracker registry so it survives daemon restarts.
        self.cluster.metrics.incr("chaos", fault.label(), 1);
        self.injected += 1;
        match fault {
            Fault::KillDaemon { kind, node } => match kind {
                DaemonKind::TaskTracker => {
                    let _ = self.cluster.crash_tracker(node);
                }
                DaemonKind::DataNode => self.cluster.dfs.crash_datanode(node),
                DaemonKind::JobTracker => self.cluster.crash_jobtracker(),
                // Killing the NameNode *is* the restart drill: the journal
                // is durable, so down-then-up is one composite event.
                DaemonKind::NameNode => self.restart_namenode(),
            },
            Fault::HeapLeak { rate } => {
                for node in self.cluster.dfs.datanode_ids() {
                    if let Some(t) = self.cluster.tracker_mut(node) {
                        t.health.heap.leak_per_buggy_task = rate;
                    }
                }
                self.pending_leak = Some(rate);
            }
            Fault::CorruptBlock { victim } => self.corrupt_block(victim),
            Fault::GhostDaemon { node, port } => self.ghost_daemon(node, port),
            Fault::RestartNameNode => self.restart_namenode(),
            Fault::SlowNode { node, factor_pct } => {
                let slow = PerfProfile::uniform(slow_node_bp(factor_pct));
                self.cluster.net.set_node_model(node, DegradeModel::Static(slow));
            }
            Fault::RestartDaemons => self.restart_daemons(),
            Fault::KillPipelineDatanode { after_stores } => {
                self.storm_write(PipelineFault::KillTarget { after_stores })
            }
            Fault::WriterCrash { after_blocks } => {
                self.storm_write(PipelineFault::CrashWriter { after_blocks })
            }
            Fault::SlowPipelineAck { after_stores } => {
                self.storm_write(PipelineFault::SlowAck { after_stores })
            }
            // The degrade family installs time-varying performance models
            // in the network layer; every disk/NIC charge from here on
            // samples them lazily, so traces stay replay-identical.
            Fault::DegradeNode { node, floor_pct, ramp_secs } => {
                self.cluster.net.set_node_model(
                    node,
                    DegradeModel::Decay {
                        from: now,
                        ramp: SimDuration::from_secs(u64::from(ramp_secs)),
                        floor: PerfProfile::uniform(floor_pct.saturating_mul(100)),
                    },
                );
            }
            Fault::NoisyNeighbor { node, slow_pct, window_secs } => {
                self.cluster.net.set_node_model(
                    node,
                    DegradeModel::Window {
                        from: now,
                        until: now + SimDuration::from_secs(u64::from(window_secs)),
                        during: PerfProfile::uniform(slow_pct.saturating_mul(100)),
                    },
                );
            }
            Fault::FlakyNic { node, nic_pct, period_secs } => {
                let half = SimDuration::from_secs(u64::from(period_secs));
                self.cluster.net.set_node_model(
                    node,
                    DegradeModel::Periodic {
                        from: now,
                        on: half,
                        off: half,
                        during: PerfProfile {
                            cpu_mult: PerfProfile::NOMINAL_BP,
                            disk_mult: PerfProfile::NOMINAL_BP,
                            nic_mult: nic_pct.saturating_mul(100).clamp(1, PerfProfile::NOMINAL_BP),
                        },
                    },
                );
            }
        }
    }

    /// Arm `fault` against the write path, then perform a fresh multi-block
    /// write so it fires mid-pipeline. A surviving write becomes an
    /// acknowledged write (the durability oracle holds it to full CRC); a
    /// write whose client died leaves the file open under its lease, and
    /// the lease-recovery oracle takes over from there.
    fn storm_write(&mut self, fault: PipelineFault) {
        let path = format!("/in/storm-{}.txt", self.storm_seq);
        self.storm_seq += 1;
        let blocks = self.rng.gen_range(3..=6u64);
        let mut data = vec![0u8; (blocks * 2048) as usize];
        self.rng.fill_bytes(&mut data);
        let writer = NodeId(self.rng.gen_range(0..NODES));
        self.cluster.dfs.arm_pipeline_fault(fault);
        let now = self.cluster.now;
        match self.cluster.dfs.put(&mut self.cluster.net, now, &path, &data, Some(writer)) {
            Ok(t) => {
                self.cluster.now = t.completed_at;
                let at = t.completed_at;
                self.cluster.log.log(
                    at,
                    "chaos",
                    format!("storm write {path} survived the pipeline fault"),
                );
                self.acked.push(AckedWrite {
                    path,
                    len: data.len() as u64,
                    crc: Crc32::checksum(&data),
                });
            }
            Err(e) if oracle::is_clean_failure(&e) => {
                self.cluster.log.log(now, "chaos", format!("storm write {path} died: {e}"));
                if self.cluster.dfs.namenode.lease(&path).is_some() {
                    // Writer (or whole pipeline) gone, file still open:
                    // exactly the state lease recovery exists for.
                    self.open_writers.push((path, data));
                }
            }
            Err(e) => {
                self.violate("clean-failure", format!("storm write {path} died uncleanly: {e}"))
            }
        }
    }

    fn corrupt_block(&mut self, victim: u64) {
        let manifest = self.cluster.dfs.namenode.block_manifest();
        if manifest.is_empty() {
            let now = self.cluster.now;
            self.cluster.log.log(now, "chaos", "bit-rot found no blocks to chew on");
            return;
        }
        let idx = usize::try_from(victim % manifest.len() as u64).unwrap_or(0);
        let (id, ..) = manifest[idx];
        let holders: Vec<NodeId> = self
            .cluster
            .dfs
            .namenode
            .block_locations(id)
            .into_iter()
            .filter(|&h| {
                self.cluster.dfs.datanode(h).map(|d| d.alive && d.has_block(id)).unwrap_or(false)
            })
            .collect();
        if holders.is_empty() {
            let now = self.cluster.now;
            self.cluster.log.log(now, "chaos", format!("blk_{} has no live replica to rot", id.0));
            return;
        }
        let holder = holders[self.rng.gen_range(0..holders.len())];
        let mut copy: Vec<u8> = match self.cluster.dfs.datanode(holder).and_then(|d| d.payload(id))
        {
            Some(BlockPayload::Real { data, .. }) => data.to_vec(),
            _ => {
                let now = self.cluster.now;
                self.cluster.log.log(now, "chaos", format!("blk_{} replica is synthetic", id.0));
                return;
            }
        };
        // BitRot picks the offset from its seeded stream (probability 1:
        // the plan already decided *that* this replica rots).
        let Some(offset) = self.rot.maybe_corrupt(&mut copy) else {
            let now = self.cluster.now;
            self.cluster.log.log(now, "chaos", format!("blk_{} is empty; nothing to rot", id.0));
            return;
        };
        if self
            .cluster
            .dfs
            .datanode_mut(holder)
            .map(|d| d.corrupt_block(id, offset))
            .unwrap_or(false)
        {
            self.corruptions.push((id.0, offset));
            let now = self.cluster.now;
            self.cluster.log.log(
                now,
                "chaos",
                format!("bit-rot flipped byte {offset} of blk_{} on {holder}", id.0),
            );
        }
    }

    fn ghost_daemon(&mut self, node: NodeId, port: u16) {
        let now = self.cluster.now;
        let owner = format!("ghost-{}-{}", self.plan.seed, self.ghost_seq);
        self.ghost_seq += 1;
        match self.campus.ports.bind(now, node, port, &owner) {
            Ok(()) => {
                self.campus.ports.orphan_owner(&owner);
                // A fresh session cannot take the squatted port...
                match self.campus.ports.bind(now, node, port, SESSION_OWNER) {
                    Err(HlError::PortInUse { .. }) => {}
                    Ok(()) => self.violate(
                        "ghost-ports",
                        format!("bind on {node}:{port} succeeded under a live ghost"),
                    ),
                    Err(e) => self
                        .violate("ghost-ports", format!("bind on {node}:{port} failed oddly: {e}")),
                }
                // ...and cannot hand-kill a ghost it does not own.
                if self.campus.ports.kill_own_ghost(node, port, SESSION_OWNER).is_ok() {
                    self.violate("ghost-ports", format!("killed a foreign ghost on {node}:{port}"));
                }
            }
            Err(HlError::PortInUse { .. }) => {
                self.cluster.log.log(now, "chaos", format!("{node}:{port} already squatted"));
            }
            Err(e) => self.violate("ghost-ports", format!("ghost bind on {node}:{port}: {e}")),
        }
    }

    fn restart_namenode(&mut self) {
        let now = self.cluster.now;
        match self.cluster.dfs.restart_all(&mut self.cluster.net, now) {
            Ok(t) => {
                self.cluster.now = t.completed_at;
                let at = t.completed_at;
                self.cluster.log.log(at, "chaos", "namenode recovered; safe mode exited");
            }
            Err(HlError::SafeMode(msg)) => {
                // The paper's corrupted cluster: safe mode never exits
                // because blocks are genuinely gone. A legal end state —
                // the oracles hold it to exactly that story.
                self.cluster.log.log(now, "chaos", format!("namenode stuck in safe mode: {msg}"));
            }
            Err(e) => self.violate("clean-failure", format!("restart_all died uncleanly: {e}")),
        }
    }

    /// The operator pass: revive every dead daemon, then re-teach the
    /// NameNode which replicas actually survived on disk. Heartbeats alone
    /// never carry block reports, so without this sync a revived DataNode
    /// holds blocks the NameNode no longer maps to it.
    fn restart_daemons(&mut self) {
        self.cluster.restart_dead_trackers();
        if !self.cluster.jobtracker.alive {
            self.cluster.restart_jobtracker();
        }
        for node in self.cluster.dfs.datanode_ids() {
            if let Some(dn) = self.cluster.dfs.datanode_mut(node) {
                if !dn.alive {
                    dn.restart();
                }
            }
        }
        self.sync_block_reports();
    }

    fn sync_block_reports(&mut self) {
        let now = self.cluster.now;
        for node in self.cluster.dfs.datanode_ids() {
            let Some((free, report)) = self
                .cluster
                .dfs
                .datanode(node)
                .filter(|d| d.alive)
                .map(|d| (d.free_bytes(), d.block_report()))
            else {
                continue;
            };
            self.cluster.dfs.namenode.heartbeat(now, node, free);
            self.cluster.dfs.namenode.process_block_report(now, node, &report);
        }
    }

    // ----------------------------------------------------------- teardown

    fn finish(mut self) -> ChaosReport {
        let now = self.cluster.now;
        self.cluster.log.log(now, "chaos", "--- teardown ---");
        // End-of-session operator pass: revive everything, run each
        // DataNode's integrity scan to quarantine lingering bit-rot, and
        // sync the surviving block map.
        self.restart_daemons();
        for node in self.cluster.dfs.datanode_ids() {
            if let Some(dn) = self.cluster.dfs.datanode_mut(node) {
                dn.scan_blocks();
            }
        }
        self.sync_block_reports();

        oracle::verify_lease_recovery(&mut self);
        oracle::verify_durability(&mut self);
        oracle::quiesce_replication(&mut self);
        oracle::verify_ports(&mut self);
        oracle::verify_accounting(&mut self);
        oracle::verify_metrics(&mut self);
        oracle::verify_scheduler(&mut self);
        oracle::verify_speculation(&mut self);
        oracle::verify_charge_order(&mut self);

        // The replay fingerprint covers both event logs, the exact
        // corruption set, and the final metrics report — so a same-seed
        // double-run under `--verify-trace` also enforces byte-identical
        // metrics.
        let mut trace = self.cluster.log.to_string();
        trace.push_str(&self.campus.log.to_string());
        use std::fmt::Write as _;
        let _ = writeln!(trace, "corruptions: {:?}", self.corruptions);
        let metrics = self.cluster.metrics_snapshot();
        let _ = writeln!(trace, "{}", hl_metrics::MetricsReport(&metrics));
        let trace_hash = fnv1a(trace.as_bytes());

        ChaosReport {
            pack: self.pack,
            seed: self.plan.seed,
            planned: self.plan.len(),
            injected: self.injected,
            jobs_ok: self.jobs_ok,
            jobs_failed: self.jobs_failed,
            corruptions: self.corruptions,
            trace_hash,
            trace,
            violations: self.violations,
        }
    }
}

/// A `SlowNode` fault's `factor_pct` (250 = everything 2.5x slower) as a
/// uniform basis-point multiplier, in integers: 10 000 / (pct / 100)
/// rounded half up. Under 100 % clamps to nominal; the result is never 0.
fn slow_node_bp(factor_pct: u32) -> u32 {
    let pct = u64::from(factor_pct.max(100));
    let bp = (u64::from(PerfProfile::NOMINAL_BP) * 100 + pct / 2) / pct;
    u32::try_from(bp).unwrap_or(PerfProfile::NOMINAL_BP).max(1)
}

#[cfg(test)]
mod tests {
    use hl_common::pool::Pool;

    use super::*;

    #[test]
    fn slow_node_bp_matches_the_float_formula_it_replaced() {
        for pct in 0..=5_000u32 {
            let factor = f64::from(pct) / 100.0;
            let bp = (f64::from(PerfProfile::NOMINAL_BP) / factor.max(1.0)).round().max(1.0);
            assert_eq!(f64::from(slow_node_bp(pct)), bp, "factor_pct {pct}");
        }
        assert_eq!(slow_node_bp(u32::MAX), 1);
    }

    #[test]
    fn quiet_plan_runs_clean() {
        // An empty fault plan is the control group: jobs must succeed,
        // oracles must stay silent.
        let mut runner = ChaosRunner::new(ScenarioPack::Meltdown, 7).unwrap();
        runner.plan.faults.clear();
        for round in 0..runner.plan.rounds {
            runner.round(round);
        }
        let report = runner.finish();
        assert!(report.ok(), "control run violated: {:?}", report.violations);
        assert_eq!(report.jobs_ok, 4);
        assert_eq!(report.jobs_failed, 0);
        assert_eq!(report.injected, 0);
    }

    #[test]
    fn ghost_injection_blocks_rebind_until_cron() {
        let mut runner = ChaosRunner::new(ScenarioPack::GhostPorts, 3).unwrap();
        runner.ghost_daemon(NodeId(1), 50_100);
        assert_eq!(
            runner.campus.ports.holder(NodeId(1), 50_100).map(|(_, alive)| alive),
            Some(false)
        );
        assert!(runner.violations.is_empty(), "{:?}", runner.violations);
        // The teardown oracle sweeps it.
        oracle::verify_ports(&mut runner);
        assert!(runner.violations.is_empty(), "{:?}", runner.violations);
        assert!(runner.campus.ports.is_empty());
    }

    #[test]
    fn restart_sweep_keeps_counters_monotonic_without_double_counting() {
        use crate::plan::PlannedFault;
        // Two NameNode restarts plus a full daemon sweep: monotonic
        // counters must carry across every restart exactly once, while
        // the gauges rebuild from post-restart state.
        let mut runner = ChaosRunner::new(ScenarioPack::Meltdown, 13).unwrap();
        runner.plan.faults.clear();
        runner.plan.faults.push(PlannedFault { at: 0, fault: Fault::RestartNameNode });
        runner.plan.faults.push(PlannedFault { at: 1, fault: Fault::RestartDaemons });
        runner.plan.faults.push(PlannedFault {
            at: 2,
            fault: Fault::KillDaemon { kind: DaemonKind::NameNode, node: NodeId(0) },
        });
        for round in 0..runner.plan.rounds {
            runner.round(round);
        }
        let snap = runner.cluster.metrics_snapshot();
        assert_eq!(snap.counter("namenode", "restarts"), 2);
        assert!(snap.counter("namenode", "rpc.block_report") > 0);
        assert!(snap.counter("chaos", "RestartNameNode") == 1);
        // Safe mode was re-entered on each restart and exited again.
        assert_eq!(snap.counter("namenode", "safemode.entered"), 2);
        assert_eq!(snap.gauge("namenode", "safemode.on"), 0);
        let report = runner.finish();
        assert!(report.ok(), "restart sweep violated: {:?}", report.violations);
        // The metrics oracle re-ran the same reconciliation in finish(),
        // and the replay fingerprint now covers the rendered report.
        assert!(report.trace.contains("Name: namenode"));
        assert!(report.trace.contains("restarts"));
    }

    #[test]
    fn rotted_compressed_corpus_block_hits_the_crc_wall_before_decode() {
        let mut runner = ChaosRunner::new(ScenarioPack::CompressedPath, 17).unwrap();
        // Aim bit-rot at a block of the framed corpus specifically:
        // corrupt_block indexes the manifest by `victim % len`.
        let packed_blocks: Vec<hl_dfs::BlockId> = runner
            .cluster
            .dfs
            .file_blocks(INPUT_PACKED)
            .unwrap()
            .into_iter()
            .map(|(id, _, _)| id)
            .collect();
        let manifest = runner.cluster.dfs.namenode.block_manifest();
        let idx = manifest
            .iter()
            .position(|(id, ..)| packed_blocks.contains(id))
            .expect("framed corpus staged into the block map");
        runner.corrupt_block(idx as u64);
        assert_eq!(runner.corruptions.len(), 1);
        let (block, _) = runner.corruptions[0];
        let id = hl_dfs::BlockId(block);
        assert!(packed_blocks.contains(&id), "rot landed on a framed block");
        // The rotted replica fails its chunk checksum — the wall stands
        // *before* any frame reaches the decoder.
        let bad = runner
            .cluster
            .dfs
            .datanode_ids()
            .into_iter()
            .filter_map(|n| runner.cluster.dfs.datanode(n))
            .filter(|d| d.has_block(id))
            .filter(|d| {
                matches!(d.read_block(id, &Pool::host()), Err(HlError::ChecksumMismatch { .. }))
            })
            .count();
        assert_eq!(bad, 1, "exactly one replica rotted");
        // A client read fails over to a clean replica and still decodes
        // the exact logical corpus.
        let now = runner.cluster.now;
        let got =
            runner.cluster.dfs.read(&mut runner.cluster.net, now, INPUT_PACKED, None).unwrap();
        assert_eq!(got.value.len() as u64, runner.acked[1].len);
        assert_eq!(Crc32::checksum(&got.value), runner.acked[1].crc);
    }

    #[test]
    fn compressed_path_pack_runs_clean_end_to_end() {
        let report = ChaosRunner::run(ScenarioPack::CompressedPath, 5).unwrap();
        assert!(report.ok(), "compressed-path seed 5 violated: {:?}", report.violations);
        assert!(!report.corruptions.is_empty() || report.injected > 0);
    }

    #[test]
    fn corrupt_block_records_offset_and_flips_disk() {
        let mut runner = ChaosRunner::new(ScenarioPack::BitRot, 11).unwrap();
        runner.corrupt_block(5);
        assert_eq!(runner.corruptions.len(), 1);
        let (block, _offset) = runner.corruptions[0];
        // The corrupt replica fails its checksum on direct read.
        let id = hl_dfs::BlockId(block);
        let bad = runner
            .cluster
            .dfs
            .datanode_ids()
            .into_iter()
            .filter_map(|n| runner.cluster.dfs.datanode(n))
            .filter(|d| d.has_block(id))
            .filter(|d| {
                matches!(d.read_block(id, &Pool::host()), Err(HlError::ChecksumMismatch { .. }))
            })
            .count();
        assert_eq!(bad, 1, "exactly one replica rotted");
    }
}

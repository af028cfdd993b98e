//! `MrCluster`: the MRv1 execution engine over HDFS.
//!
//! The JobTracker/TaskTracker half of Figure 2. Jobs run with **real user
//! code over real bytes** while every I/O, network, and JVM-startup cost is
//! charged to the cluster's virtual clock:
//!
//! * map tasks are scheduled **locality-first** onto TaskTracker map slots
//!   (node-local > rack-local > off-rack), reading their block through the
//!   DFS client (which picks the closest replica and charges accordingly);
//! * map output flows through the [`crate::sortbuf`] spill pipeline with
//!   the job's combiner;
//! * reduces fetch their partition from every map's node (the shuffle),
//!   k-way merge, reduce, and write `part-r-NNNNN` files back to HDFS;
//! * a task's *body* — its user code over its bytes — runs once, on the
//!   host pool ([`hl_common::pool`]) when its phase opens or at its first
//!   attempt; every attempt only charges the clock for it (see
//!   [`crate::task`]);
//! * every attempt is launched by the JobTracker loop
//!   ([`crate::jobtracker`]) on a slot idle at that instant: a failed one
//!   burns its slot and its task is re-queued when the burn ends, up to
//!   `max_attempts`; a straggler gets a speculative backup on a slot no
//!   pending task wants, and whichever of the two commits first wins;
//! * heap-leaking jobs crash TaskTracker and DataNode daemons exactly as
//!   in the paper's Version-1 meltdown;
//! * submission is refused while the NameNode is in safe mode — the
//!   "corrupted Hadoop cluster that stopped all the new jobs".

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use hl_codec::CodecId;

use hl_cluster::failure::{DaemonHealth, DaemonKind};
use hl_cluster::network::ClusterNet;
use hl_cluster::node::{ClusterSpec, HeterogeneousClusterSpec, PerfProfile};
use hl_cluster::trace::EventLog;
use hl_common::counters::{Counters, FileSystemCounter, TaskCounter};
use hl_common::pool::Pool;
use hl_common::prelude::*;
use hl_common::topology::Locality;
use hl_dfs::client::Dfs;
use hl_dfs::BlockId;
use hl_metrics::{MetricsRegistry, MetricsSnapshot};

use crate::api::SideFiles;
use crate::history::JobHistory;
use crate::job::JobConf;
use crate::jobtracker::{Flight, JobTracker, Launch, TaskBody};
use crate::report::{JobReport, TaskKind, TaskSummary};
use crate::scheduler::{scheduler_from_config, FifoScheduler, Scheduler, SlotState};
use crate::speculate::{RunningTask, SpecAttempt, SpecOutcome, Speculator, MIN_COMPLETED};
use crate::split::{compute_splits, InputSplit};
use crate::task::{self, JobCode, MapBody, ReduceBody};

/// One TaskTracker daemon.
#[derive(Debug, Clone)]
pub struct Tracker {
    /// Daemon health (heap-leak model inside).
    pub health: DaemonHealth,
    /// Concurrent map tasks this node runs.
    pub map_slots: usize,
    /// Concurrent reduce tasks this node runs.
    pub reduce_slots: usize,
}

// Slot bookkeeping is the scheduler's [`SlotState`]: where it is and when
// it frees up. The engine owns the vec; the scheduler only reads it.
type Slot = SlotState;

/// The cluster: DFS + network + MapReduce daemons + virtual clock.
pub struct MrCluster {
    /// The HDFS instance.
    pub dfs: Dfs,
    /// Bandwidth resources.
    pub net: ClusterNet,
    /// Hardware description.
    pub spec: ClusterSpec,
    /// Cluster configuration.
    pub config: Configuration,
    /// Virtual now (advances as jobs run).
    pub now: SimTime,
    /// Event log.
    pub log: EventLog,
    /// Distributed-cache side files (path → bytes), readable from tasks.
    pub side_files: SideFiles,
    trackers: BTreeMap<NodeId, Tracker>,
    /// JobTracker daemon health.
    pub jobtracker: DaemonHealth,
    /// Global blacklist strikes per tracker: how many *successful* jobs
    /// blacklisted it. At `mapred.max.tracker.blacklists` strikes the
    /// tracker stops receiving any tasks until an operator restart pass.
    blacklist_strikes: BTreeMap<NodeId, u32>,
    /// Failed attempts on one tracker before a job blacklists it.
    max_tracker_failures: u32,
    /// Per-job blacklistings before a tracker is blacklisted globally.
    max_tracker_blacklists: u32,
    next_job_id: u32,
    /// When false, the JobTracker assigns splits FIFO, ignoring block
    /// locations — the ablation arm of the Figure 2 locality experiment.
    pub locality_aware: bool,
    /// The JobTracker's history page (completed jobs).
    pub history: JobHistory,
    /// Jobs that failed outright this session.
    pub failed_jobs: u32,
    /// Instruments for the "jobtracker" daemon (job/task lifecycle,
    /// spill/shuffle/merge accounting, blacklist events).
    pub metrics: MetricsRegistry,
    /// The pluggable task-assignment policy (`mapred.jobtracker.scheduler`).
    scheduler: Box<dyn Scheduler>,
    /// Host threads for a phase's bodies: this host's, unless a test
    /// forced a worker count. A phase the pool does not pay for runs its
    /// bodies attempt by attempt.
    pool: Pool,
}

impl MrCluster {
    /// Stand up DFS + MapReduce daemons on every node of `spec`.
    pub fn new(spec: ClusterSpec, config: Configuration) -> Result<Self> {
        let dfs = Dfs::format(&config, &spec)?;
        let net = ClusterNet::new(&spec);
        let map_slots = config.get_usize(hl_common::config::keys::MAPRED_MAP_SLOTS, 8)?;
        let reduce_slots = config.get_usize(hl_common::config::keys::MAPRED_REDUCE_SLOTS, 4)?;
        let max_tracker_failures =
            config.get_u32(hl_common::config::keys::MAPRED_MAX_TRACKER_FAILURES, 4)?.max(1);
        let max_tracker_blacklists =
            config.get_u32(hl_common::config::keys::MAPRED_MAX_TRACKER_BLACKLISTS, 3)?.max(1);
        let scheduler = scheduler_from_config(&config)?;
        let trackers = spec
            .topology
            .nodes()
            .map(|n| {
                (
                    n,
                    Tracker {
                        health: DaemonHealth::new(DaemonKind::TaskTracker, n, SimTime::ZERO),
                        map_slots,
                        reduce_slots,
                    },
                )
            })
            .collect();
        Ok(MrCluster {
            dfs,
            net,
            jobtracker: DaemonHealth::new(DaemonKind::JobTracker, NodeId(0), SimTime::ZERO),
            spec,
            config,
            now: SimTime::ZERO,
            log: EventLog::new(),
            side_files: SideFiles::new(),
            trackers,
            blacklist_strikes: BTreeMap::new(),
            max_tracker_failures,
            max_tracker_blacklists,
            next_job_id: 1,
            locality_aware: true,
            history: JobHistory::default(),
            failed_jobs: 0,
            metrics: MetricsRegistry::new(),
            scheduler,
            pool: Pool::host(),
        })
    }

    /// Test seam: compute every phase's bodies on `workers` host threads
    /// whatever this host has and however small the phase (1 = each body
    /// at its task's first attempt). No simulated quantity may depend on
    /// it; `tests/host_pool.rs` holds the engine to that.
    #[doc(hidden)]
    pub fn force_body_workers(&mut self, workers: usize) {
        self.pool = Pool::forced(workers);
    }

    /// A phase opens: its `n` bodies over `bytes` of input, computed here
    /// and now on the host pool when that pays. A `None` (the pool was not
    /// worth it, or `body` could not see its input) is filled by the
    /// task's first attempt.
    fn open_phase<T: Send>(
        &self,
        n: usize,
        bytes: u64,
        body: impl Fn(usize) -> Option<T> + Sync,
    ) -> Vec<Option<T>> {
        if self.pool.pays(n, bytes) {
            self.pool.run_indexed(n, body)
        } else {
            (0..n).map(|_| None).collect()
        }
    }

    /// Swap the task-assignment policy (tests/experiments; normal callers
    /// set `mapred.jobtracker.scheduler` in the config instead).
    pub fn set_scheduler(&mut self, scheduler: Box<dyn Scheduler>) {
        self.scheduler = scheduler;
    }

    /// The course's 8-node dedicated cluster with default config.
    pub fn course_default() -> Result<Self> {
        MrCluster::new(ClusterSpec::course_hadoop(8), Configuration::with_defaults())
    }

    /// Stand up a cluster whose nodes carry the spec's performance
    /// models: throttled-VM tiers, noisy neighbors, progressive
    /// stragglers. The models live in the network layer, so they slow
    /// CPU *and* disk *and* NIC charges — not just task durations.
    pub fn new_heterogeneous(
        spec: &HeterogeneousClusterSpec,
        config: Configuration,
    ) -> Result<Self> {
        let mut cluster = MrCluster::new(spec.base.clone(), config)?;
        for (node, model) in &spec.models {
            cluster.net.set_node_model(*node, model.clone());
        }
        Ok(cluster)
    }

    /// Tracker state (tests/experiments).
    pub fn tracker(&self, node: NodeId) -> Option<&Tracker> {
        self.trackers.get(&node)
    }

    /// Mutable tracker state (fault injection tunes heap models).
    pub fn tracker_mut(&mut self, node: NodeId) -> Option<&mut Tracker> {
        self.trackers.get_mut(&node)
    }

    /// Kill one TaskTracker daemon outright (`kill -9` on the JVM): its
    /// slots leave the pool until a restart. The colocated DataNode is
    /// untouched — crash that separately via [`Dfs::crash_datanode`].
    /// Returns `false` when the tracker was already dead or unknown.
    ///
    /// [`Dfs::crash_datanode`]: hl_dfs::client::Dfs::crash_datanode
    pub fn crash_tracker(&mut self, node: NodeId) -> bool {
        match self.trackers.get_mut(&node) {
            Some(t) if t.health.alive => {
                t.health.alive = false;
                t.health.crashes += 1;
                self.metrics.incr("jobtracker", "trackers.crashed", 1);
                true
            }
            _ => false,
        }
    }

    /// Kill the JobTracker daemon; every submission fails with
    /// [`HlError::DaemonDown`] until [`MrCluster::restart_jobtracker`].
    pub fn crash_jobtracker(&mut self) {
        if self.jobtracker.alive {
            self.jobtracker.alive = false;
            self.jobtracker.crashes += 1;
            self.metrics.incr("jobtracker", "crashes", 1);
        }
    }

    /// Restart the JobTracker at the cluster's current virtual time.
    pub fn restart_jobtracker(&mut self) {
        let now = self.now;
        self.jobtracker.restart(now);
        // Gauges reset with the process; counters/histograms carry across.
        self.metrics.restart_daemon("jobtracker");
        self.metrics.incr("jobtracker", "restarts", 1);
    }

    /// Restart every dead TaskTracker (and its colocated DataNode daemon).
    /// The operator pass also wipes the global tracker blacklist: a
    /// restarted fleet starts with a clean bill of health, exactly like
    /// re-registering TaskTrackers on a real JobTracker.
    pub fn restart_dead_trackers(&mut self) {
        let now = self.now;
        let mut restarted = 0u64;
        for (node, t) in self.trackers.iter_mut() {
            if !t.health.alive {
                t.health.restart(now);
                restarted += 1;
                if let Some(dn) = self.dfs.datanode_mut(*node) {
                    dn.restart();
                }
            }
        }
        if restarted > 0 {
            self.metrics.incr("jobtracker", "trackers.restarted", restarted);
        }
        self.blacklist_strikes.clear();
    }

    /// Trackers currently blacklisted cluster-wide (enough per-job
    /// blacklistings that the JobTracker stopped scheduling on them).
    pub fn blacklisted_trackers(&self) -> Vec<NodeId> {
        self.blacklist_strikes
            .iter()
            .filter(|(_, &strikes)| strikes >= self.max_tracker_blacklists)
            .map(|(&n, _)| n)
            .collect()
    }

    /// Global blacklist strikes recorded against `node`.
    pub fn tracker_strikes(&self, node: NodeId) -> u32 {
        self.blacklist_strikes.get(&node).copied().unwrap_or(0)
    }

    fn is_globally_blacklisted(&self, node: NodeId) -> bool {
        self.tracker_strikes(node) >= self.max_tracker_blacklists
    }

    /// Nodes with a live TaskTracker.
    pub fn live_tracker_nodes(&self) -> Vec<NodeId> {
        self.trackers.iter().filter(|(_, t)| t.health.alive).map(|(&n, _)| n).collect()
    }

    /// Register a side file for tasks to read (the distributed cache). If
    /// the path exists on DFS its real bytes are pulled; otherwise the
    /// bytes must be provided.
    pub fn register_side_file(&mut self, path: &str, bytes: Vec<u8>) {
        self.side_files.insert(path, bytes);
    }

    /// Pull a DFS file's bytes into the distributed cache (charged as one
    /// read at `now`).
    pub fn cache_from_dfs(&mut self, path: &str) -> Result<()> {
        let t = self.now;
        let data = self.dfs.read(&mut self.net, t, path, None)?;
        self.now = data.completed_at;
        self.side_files.insert(path, data.value);
        Ok(())
    }

    /// One slot per configured `kind` slot on every live tracker that is not
    /// globally blacklisted, all free.
    fn slots(&self, kind: TaskKind) -> Vec<Slot> {
        let mut slots = Vec::new();
        for (&node, t) in &self.trackers {
            if t.health.alive && !self.is_globally_blacklisted(node) {
                let count = match kind {
                    TaskKind::Map => t.map_slots,
                    TaskKind::Reduce => t.reduce_slots,
                };
                slots.extend((0..count).map(|_| Slot { node, free_at: self.now }));
            }
        }
        slots
    }

    /// Run one job to completion: a batch of one (see
    /// [`MrCluster::run_jobs`]). Errors when submission is impossible
    /// (safe mode, dead JobTracker, bad conf, output exists) or when a
    /// task exhausts its attempts.
    pub fn run_job(&mut self, job: &dyn JobCode) -> Result<JobReport> {
        let now = self.now;
        let mut results = self.run_jobs(&[(now, job)]);
        results.pop().unwrap_or_else(|| Err(HlError::Internal("empty batch".into())))
    }

    /// Run a batch of jobs, each arriving at its own instant (no earlier
    /// than `now`), to completion through the one JobTracker loop: the
    /// jobs share the slot tables, and the configured policy decides whose
    /// task gets each idle slot. One result per job, in batch order.
    ///
    /// Submission work (conf and safe-mode checks, job id, output
    /// directory, splits) is done up front in batch order; the slot
    /// tables are built once, so a tracker blacklisted cluster-wide by one
    /// job of the batch stays usable for the others until the next batch.
    pub fn run_jobs(&mut self, batch: &[(SimTime, &dyn JobCode)]) -> Vec<Result<JobReport>> {
        // The loop owns the policy for the run and hands it back after.
        let scheduler = std::mem::replace(&mut self.scheduler, Box::new(FifoScheduler));
        let mut jt =
            JobTracker::new(scheduler, self.slots(TaskKind::Map), self.slots(TaskKind::Reduce));
        let mut body = ClusterBody { cluster: self, jobs: Vec::new() };
        let mut results: Vec<Option<Result<JobReport>>> = Vec::new();
        results.resize_with(batch.len(), || None);
        for (i, &(arrival, job)) in batch.iter().enumerate() {
            if let Err(e) = body.submit(&mut jt, i, arrival, job) {
                results[i] = Some(Err(e));
            }
        }
        while jt.step(&mut body).is_some() {}
        body.fail_unfinished(&mut jt);
        for rj in body.jobs {
            results[rj.batch_index] = rj.result;
        }
        self.scheduler = jt.into_scheduler();
        let lost = || Err(HlError::Internal("job left the batch without a result".into()));
        results.into_iter().map(|r| r.unwrap_or_else(lost)).collect()
    }

    /// Fold one completed job's report into the "jobtracker" instruments:
    /// spill/shuffle/merge byte counters from the job counters, per-kind
    /// task-duration histograms, and blacklist events.
    fn record_job_metrics(&mut self, report: &JobReport) {
        self.metrics.incr("jobtracker", "jobs.completed", 1);
        self.metrics.observe("jobtracker", "job.duration_ms", report.elapsed().as_micros() / 1000);
        self.metrics.incr(
            "jobtracker",
            "shuffle.bytes",
            report.counters.task(TaskCounter::ReduceShuffleBytes),
        );
        self.metrics.incr(
            "jobtracker",
            "spill.records",
            report.counters.task(TaskCounter::SpilledRecords),
        );
        let blacklisted = report.counters.get("Job Counters", "Trackers blacklisted");
        if blacklisted > 0 {
            self.metrics.incr("jobtracker", "blacklist.events", blacklisted);
        }
        for t in &report.tasks {
            let ms = t.duration().as_micros() / 1000;
            match t.kind {
                TaskKind::Map => self.metrics.observe("jobtracker", "map.duration_ms", ms),
                TaskKind::Reduce => self.metrics.observe("jobtracker", "reduce.duration_ms", ms),
            }
        }
    }

    /// One cluster-wide metrics snapshot at the engine's virtual `now`:
    /// DFS (NameNode + client + DataNodes) merged with the JobTracker's
    /// instruments and the network's per-link export.
    pub fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        let at = self.now;
        self.net.export_metrics(at, &mut self.metrics);
        let live = i64::try_from(self.live_tracker_nodes().len()).unwrap_or(i64::MAX);
        let black = i64::try_from(self.blacklisted_trackers().len()).unwrap_or(i64::MAX);
        self.metrics.set_gauge("jobtracker", "trackers.live", live);
        self.metrics.set_gauge("jobtracker", "trackers.blacklisted", black);
        self.metrics.set_gauge("jobtracker", "up", i64::from(self.jobtracker.alive));
        let mut snap = self.dfs.metrics_snapshot(at);
        snap.merge(&self.metrics.snapshot(at));
        snap
    }

    /// A neighbouring block's stored bytes, for stitching the line that
    /// crosses a split boundary. Peek is free but refuses checksum-failing
    /// replicas; when every clean replica is gone, fall back to the
    /// charged, verified read path (advancing `t`), which quarantines the
    /// rot and errors honestly (a silent break here would truncate the
    /// boundary line and corrupt output).
    fn neighbour_block(
        &mut self,
        t: &mut SimTime,
        block: BlockId,
        node: NodeId,
        path: &str,
    ) -> Result<Bytes> {
        if let Some(stored) = self.dfs.peek_block_bytes(block) {
            return Ok(stored);
        }
        let got = self.dfs.read_block(&mut self.net, *t, block, Some(node), path)?;
        *t = got.completed_at;
        Ok(got.value)
    }

    /// The paper's heap-leak mechanism, run once per finished attempt
    /// (map or reduce) at its compute end `t`: a buggy task can OOM the
    /// TaskTracker, which takes the colocated DataNode with it.
    fn charge_heap(&mut self, leaks: bool, node: NodeId, t: SimTime) -> Result<()> {
        let Some(tracker) = self.trackers.get_mut(&node) else {
            return Err(HlError::DaemonDown(format!("no tasktracker registered on {node}")));
        };
        if tracker.health.host_task(leaks) {
            self.dfs.crash_datanode(node);
            self.log.log(
                t,
                &format!("tasktracker/{node}"),
                "java.lang.OutOfMemoryError: Java heap space — daemon exiting",
            );
            return Err(HlError::TaskFailed(format!("tasktracker on {node} crashed (OOM)")));
        }
        Ok(())
    }

    /// One attempt of a map task on slot `at`: every charged read and every
    /// charge, priced on the task's body — `memo`, which the attempt fills
    /// first when nobody has.
    fn exec_map_attempt(
        &mut self,
        job: &dyn JobCode,
        split: &InputSplit,
        memo: &mut Option<MapBody>,
        at: Slot,
        attempt: u32,
    ) -> Result<Attempt> {
        let Slot { node, free_at: start } = at;
        let conf = job.conf();
        if conf.fail_first_attempts >= attempt {
            return Err(HlError::TaskFailed(format!(
                "injected failure (attempt {attempt} of task on {node})"
            )));
        }
        // The node's degrade profile, sampled when the attempt starts:
        // CPU-bound charges scale here; disk and NIC charges scale inside
        // the network layer at their own charge instants.
        let profile = self.net.node_profile(node, start);
        let mut t = start + PerfProfile::scale_dur(conf.task_startup, profile.cpu_mult);

        let locality =
            self.net.topology().best_locality(node, &split.holders).unwrap_or(Locality::OffRack);
        // Read the split's block through the DFS client (charged, verified,
        // locality-aware).
        let read = self.dfs.read_block(&mut self.net, t, split.block, Some(node), &split.path)?;
        t = read.completed_at;
        // Compressed input: the disk and NIC moved only the stored bytes;
        // inflating them is a CPU charge on this node.
        let input_codec = self.dfs.file_codec(&split.path)?;
        let inflate = |logical_len: usize| match input_codec {
            CodecId::Null => SimDuration::ZERO,
            _ => PerfProfile::scale_dur(
                SimDuration::for_transfer(logical_len as u64, hl_codec::DECOMPRESS_BYTES_PER_SEC),
                profile.cpu_mult,
            ),
        };
        let body = match memo {
            // The body has run: read what it read, in its order.
            Some(body) => {
                t += inflate(body.logical_len);
                for &block in &body.neighbours {
                    self.neighbour_block(&mut t, block, node, &split.path)?;
                }
                body
            }
            // Run the mapper for real, over the bytes this attempt's reads
            // deliver.
            None => {
                let own = task::logical_bytes(input_codec, &read.value)?;
                t += inflate(own.len());
                let blocks = self.dfs.file_blocks(&split.path)?;
                let input = task::stitch_split(split, input_codec, &blocks, &own, |block| {
                    self.neighbour_block(&mut t, block, node, &split.path)
                })?;
                // A decoded block is freed before the mapper runs over its copy.
                drop(own);
                let disk_bw = self.spec.node.disk_bw;
                memo.insert(task::map_body(job, &self.side_files, disk_bw, split.offset, input))
            }
        };
        let (done, output) = (&body.done, &body.done.output);
        let mut task_counters = done.counters.clone();
        task_counters.incr_fs(FileSystemCounter::HdfsBytesRead, split.len);
        if locality != Locality::NodeLocal {
            task_counters.incr_fs(FileSystemCounter::RemoteBytesRead, split.len);
        }

        // Map-output compression is paid for with compress CPU here and
        // decompress CPU at each reducer.
        if let Some((raw, packed)) = body.framed {
            t += PerfProfile::scale_dur(
                SimDuration::for_transfer(raw, hl_codec::COMPRESS_BYTES_PER_SEC),
                profile.cpu_mult,
            );
            if let Some(q) = packed.saturating_mul(10_000).checked_div(raw) {
                let bp = i64::try_from(q).unwrap_or(i64::MAX);
                self.metrics.set_gauge("jobtracker", "codec.ratio", bp);
            }
            self.metrics.incr("jobtracker", "codec.in_bytes", raw);
            self.metrics.incr("jobtracker", "codec.out_bytes", packed);
        }

        // CPU + spill I/O charges (combiner invocations cost map-side CPU —
        // the "increased map task run time" students observed).
        let combine_in = task_counters.task(TaskCounter::CombineInputRecords);
        let cpu = PerfProfile::scale_dur(
            conf.map_cpu_per_byte * body.logical_len as u64
                + conf.map_cpu_per_record * done.records
                + conf.combine_cpu_per_record * combine_in
                + done.extra_time,
            profile.cpu_mult,
        );
        t += cpu;
        // Spill I/O adds latency to this task but is deliberately NOT a
        // shared-pipe charge: the engine executes tasks eagerly in
        // assignment order, so a pipe charge here would make *later-
        // executed but concurrently-running* tasks' reads queue behind it
        // (a charge-ordering artifact, not a modeled phenomenon).
        let disk_bw = PerfProfile::scale_bw(self.spec.node.disk_bw, profile.disk_mult).max(1);
        if output.spill_bytes_written > 0 {
            t += SimDuration::for_transfer(output.spill_bytes_written, disk_bw);
            task_counters.incr_fs(FileSystemCounter::FileBytesWritten, output.spill_bytes_written);
        }
        if output.spill_bytes_read > 0 {
            t += SimDuration::for_transfer(output.spill_bytes_read, disk_bw);
            task_counters.incr_fs(FileSystemCounter::FileBytesRead, output.spill_bytes_read);
        }
        if output.num_spills > 0 {
            self.metrics.incr("jobtracker", "spill.count", u64::from(output.num_spills));
            self.metrics.incr("jobtracker", "spill.bytes", output.spill_bytes_written);
        }
        if output.num_spills > 1 {
            // Multiple spill runs force an on-disk merge pass at map end.
            self.metrics.incr("jobtracker", "merge.passes", 1);
            self.metrics.incr("jobtracker", "merge.bytes", output.spill_bytes_read);
        }

        self.charge_heap(conf.leaks_memory, node, t)?;
        Ok(Attempt {
            node,
            start,
            end: t,
            compute_end: t,
            counters: task_counters,
            locality: Some(locality),
            peak_buffered: done.peak_buffered,
        })
    }

    /// One attempt of reduce `r` on slot `at`: the shuffle from the standing
    /// `maps`, the charges for the task's body (`bodies.reduces[r]`, filled
    /// here first when nobody has) and, when it `commit`s, the part file.
    fn exec_reduce_attempt(
        &mut self,
        job: &dyn JobCode,
        maps: &[Option<Attempt>],
        bodies: &mut Bodies,
        r: usize,
        at: Slot,
        commit: bool,
    ) -> Result<(Attempt, Option<String>)> {
        let Slot { node, free_at: start } = at;
        let Bodies { maps: map_bodies, reduces } = bodies;
        let conf = job.conf();
        let profile = self.net.node_profile(node, start);
        let t0 = start + PerfProfile::scale_dur(conf.task_startup, profile.cpu_mult);
        let mut task_counters = Counters::new();

        // Shuffle: fetch this reduce's partition from every map's node.
        // Fetches run concurrently (each charges its own source pipes).
        let mut shuffle_done = t0;
        // Decoded at the reducer before the merge when the map side
        // compressed its output (raw bytes, for the decompress charge).
        let mut inflate_bytes = 0u64;
        for (map, body) in maps.iter().zip(map_bodies.iter()) {
            let (Some(Attempt { node: map_node, .. }), Some(MapBody { done, .. })) = (map, body)
            else {
                continue;
            };
            let out = &done.output;
            // Compressed map output crosses the wire framed; the counter
            // records what actually moved, which is the combiner-style
            // "fewer shuffle bytes" trade students measure.
            let bytes = out.wire_partition_bytes(r);
            if bytes > 0 && *map_node != node {
                let c = self.net.transfer(t0, *map_node, node, bytes);
                shuffle_done = shuffle_done.max(c.end);
            }
            if out.wire_bytes.is_some() {
                inflate_bytes += out.partition_bytes(r);
            }
            task_counters.incr_task(TaskCounter::ReduceShuffleBytes, bytes);
        }
        if inflate_bytes > 0 {
            shuffle_done += PerfProfile::scale_dur(
                SimDuration::for_transfer(inflate_bytes, hl_codec::DECOMPRESS_BYTES_PER_SEC),
                profile.cpu_mult,
            );
        }

        // Merge, group and reduce for real — once per task.
        let gone = || HlError::Internal(format!("reduce {r} has no body slot"));
        let done = reduces
            .get_mut(r)
            .ok_or_else(gone)?
            .get_or_insert_with(|| {
                task::reduce_body(job, &self.side_files, self.spec.node.disk_bw, map_bodies, r)
            })
            .as_ref()
            .map_err(HlError::clone)?;
        task_counters.merge(&done.counters);

        let cpu = PerfProfile::scale_dur(
            conf.reduce_cpu_per_record * done.records + done.extra_time,
            profile.cpu_mult,
        );
        let mut t = shuffle_done + cpu;
        self.charge_heap(conf.leaks_memory, node, t)?;

        // Write part file to HDFS (real bytes, charged, replicated). A
        // speculative attempt racing a live primary never commits — the
        // primary's file is the one the job owns, and the racer's bytes
        // are identical (every attempt charges for the one body).
        let compute_end = t;
        let out_path = if done.text.is_empty() || !commit {
            None
        } else {
            let path = part_path(conf, r);
            let put = self.dfs.put(&mut self.net, t, &path, done.text.as_bytes(), Some(node))?;
            t = put.completed_at;
            task_counters.incr_fs(FileSystemCounter::HdfsBytesWritten, done.text.len() as u64);
            Some(path)
        };

        let attempt = Attempt {
            node,
            start,
            end: t,
            compute_end,
            counters: task_counters,
            locality: None,
            peak_buffered: 0,
        };
        Ok((attempt, out_path))
    }

    /// Read a job's full text output (all part files concatenated, charged).
    pub fn read_output(&mut self, output_path: &str) -> Result<String> {
        let rows = self.dfs.namenode.list(output_path)?;
        let mut text = String::new();
        let mut t = self.now;
        for row in rows.into_iter().filter(|r| !r.is_dir) {
            let got = self.dfs.read(&mut self.net, t, &row.path, None)?;
            text.push_str(&String::from_utf8_lossy(&got.value));
            t = got.completed_at;
        }
        self.now = t;
        Ok(text)
    }
}

/// One job of a [`MrCluster::run_jobs`] batch: what the real
/// [`TaskBody`] keeps per entry of the loop's table.
struct RealJob<'a> {
    batch_index: usize,
    job: &'a dyn JobCode,
    job_id: String,
    submitted_at: SimTime,
    splits: Vec<InputSplit>,
    run: JobRun,
    /// Standing attempts: a task's primary, or the backup that beat it.
    maps: Vec<Option<Attempt>>,
    reduces: Vec<Option<Attempt>>,
    bodies: Bodies,
    /// The current phase's attempts of each task since it was last queued
    /// afresh (a preemption starts the count over).
    tries: Vec<u32>,
    /// Tasks of the current phase that have had a backup.
    speculated: BTreeSet<u32>,
    /// The backups in the air, by task.
    racing: BTreeMap<u32, Racer>,
    /// When the last standing map committed; `None` during the map phase.
    maps_done: Option<SimTime>,
    output_files: Vec<String>,
    result: Option<Result<JobReport>>,
}

impl RealJob<'_> {
    /// The current phase's standing attempts.
    fn standing(&mut self, kind: TaskKind) -> &mut Vec<Option<Attempt>> {
        match kind {
            TaskKind::Map => &mut self.maps,
            TaskKind::Reduce => &mut self.reduces,
        }
    }
}

/// What a job's tasks computed, by task id: each body runs once, and
/// every attempt of its task charges for the same result. `None` until
/// then.
#[derive(Default)]
struct Bodies {
    maps: Vec<Option<MapBody>>,
    reduces: Vec<Option<Result<ReduceBody>>>,
}

/// The real [`TaskBody`]: user code over real bytes on the cluster, one
/// attempt per launch, speculative backups on the slots the loop offers.
struct ClusterBody<'a> {
    cluster: &'a mut MrCluster,
    jobs: Vec<RealJob<'a>>,
}

impl<'a> ClusterBody<'a> {
    /// Everything `run_job` does before the first task: refuse, or name
    /// the job, create its output directory, compute its splits and enter
    /// it in the loop's table.
    fn submit(
        &mut self,
        jt: &mut JobTracker,
        batch_index: usize,
        arrival: SimTime,
        job: &'a dyn JobCode,
    ) -> Result<()> {
        let c = &mut *self.cluster;
        let conf = job.conf();
        conf.validate()?;
        if !c.jobtracker.alive {
            return Err(HlError::DaemonDown("jobtracker".into()));
        }
        if c.dfs.namenode.safemode.is_on() {
            let (r, e) = c.dfs.namenode.block_census();
            return Err(HlError::SafeMode(c.dfs.namenode.safemode.status(r, e)));
        }
        if c.dfs.namenode.namespace().exists(&conf.output_path) {
            return Err(HlError::AlreadyExists(conf.output_path.clone()));
        }
        let job_id = format!("job_{:04}", c.next_job_id);
        c.next_job_id += 1;
        c.metrics.incr("jobtracker", "jobs.submitted", 1);
        let submitted_at = arrival.max(c.now);
        c.log
            .log_with(submitted_at, "jobtracker", || format!("{job_id} ({}) submitted", conf.name));

        c.dfs.namenode.mkdirs(&conf.output_path)?;
        let splits = compute_splits(&c.dfs, &conf.input_paths)?;

        let j = jt.submit(
            submitted_at,
            &conf.user,
            &conf.pool,
            conf.priority,
            TaskKind::Map,
            splits.len(),
        );
        let maps = splits.iter().map(|_| None).collect();
        let tries = vec![0; splits.len()];
        let no_maps = splits.is_empty();
        self.jobs.push(RealJob {
            batch_index,
            job,
            job_id,
            submitted_at,
            splits,
            run: JobRun::default(),
            maps,
            reduces: Vec::new(),
            bodies: Bodies::default(),
            tries,
            speculated: BTreeSet::new(),
            racing: BTreeMap::new(),
            maps_done: None,
            output_files: Vec::new(),
            result: None,
        });
        if jt.usable(TaskKind::Map, j).is_empty() {
            self.fail(jt, j, HlError::DaemonDown("no live tasktrackers".into()));
        } else if no_maps {
            self.start_reduces(jt, j, submitted_at);
        } else {
            // The map phase opens.
            let (c, rj) = (&*self.cluster, &mut self.jobs[j]);
            // Workers get the DFS and the side files, shared; never the cluster.
            let (dfs, side, disk_bw) = (&c.dfs, &c.side_files, c.spec.node.disk_bw);
            let splits = &rj.splits;
            let bytes = splits.iter().map(|s| s.len).sum();
            rj.bodies.maps = c.open_phase(splits.len(), bytes, |i| {
                task::peek_map_body(dfs, job, side, disk_bw, &splits[i])
            });
        }
        Ok(())
    }

    /// The job's last standing map committed at `maps_done`: its reduces
    /// are runnable from this instant.
    fn start_reduces(&mut self, jt: &mut JobTracker, j: usize, maps_done: SimTime) {
        let (c, rj) = (&*self.cluster, &mut self.jobs[j]);
        let n = rj.job.conf().num_reduces;
        rj.maps_done = Some(maps_done);
        rj.reduces.resize_with(n, || None);
        rj.tries = vec![0; n];
        rj.speculated.clear();
        jt.start_phase(j, TaskKind::Reduce, n);
        if jt.usable(TaskKind::Reduce, j).is_empty() {
            let e = format!("{}: no live tasktrackers for reduce", rj.job_id);
            self.fail(jt, j, HlError::JobFailed(e));
            return;
        }
        // The reduce phase opens, over every map's output.
        let (job, maps) = (rj.job, &rj.bodies.maps);
        let (side, disk_bw) = (&c.side_files, c.spec.node.disk_bw);
        let bytes = maps.iter().flatten().map(|m| m.done.output.total_bytes()).sum();
        rj.bodies.reduces =
            c.open_phase(n, bytes, |r| Some(task::reduce_body(job, side, disk_bw, maps, r)));
    }

    /// The job's last standing reduce committed: write the report and do
    /// the JobTracker's bookkeeping for a successful job.
    fn complete(&mut self, j: usize) {
        let c = &mut *self.cluster;
        let rj = &mut self.jobs[j];
        let run = std::mem::take(&mut rj.run);
        // Speculative wins pull reduce commits earlier, so the job's
        // finish is read off the standing attempts, not the primaries.
        let ends = rj.reduces.iter().flatten().map(|r| r.end);
        let finished_at = ends.max().or(rj.maps_done).unwrap_or(rj.submitted_at);
        let mut counters = run.counters;
        for task in &run.task_counters {
            counters.merge(task);
        }
        let report = JobReport {
            job_id: rj.job_id.clone(),
            name: rj.job.conf().name.clone(),
            submitted_at: rj.submitted_at,
            finished_at,
            success: true,
            counters,
            tasks: run.tasks,
            output_files: std::mem::take(&mut rj.output_files),
            blacklisted_trackers: run.blacklist,
            peak_mapper_buffer: run.peak_buffer,
            spec_attempts: run.spec_attempts,
        };
        rj.maps = Vec::new();
        rj.bodies = Bodies::default();
        c.now = c.now.max(finished_at);
        // Only *successful* jobs convert their per-job blacklistings
        // into global strikes (a failing job is as likely the job's
        // fault as the tracker's — Hadoop 1.x drew the same line).
        for &node in &report.blacklisted_trackers {
            let strikes = c.blacklist_strikes.entry(node).or_insert(0);
            *strikes += 1;
            if *strikes == c.max_tracker_blacklists {
                let (n, at) = (*strikes, finished_at);
                c.log.log_with(at, "jobtracker", || {
                    format!("tracker on {node} blacklisted cluster-wide after {n} strike(s)")
                });
            }
        }
        c.record_job_metrics(&report);
        c.history.record(&report);
        let (now, elapsed, job_id) = (c.now, report.elapsed(), &rj.job_id);
        c.log.log_with(now, "jobtracker", || format!("{job_id} completed in {elapsed}"));
        rj.result = Some(Ok(report));
    }

    /// The job failed after submission: drop what it has in the loop,
    /// clean its output directory and record it as FAILED.
    fn fail(&mut self, jt: &mut JobTracker, j: usize, e: HlError) {
        while let Some(&task) = self.jobs[j].racing.keys().next() {
            self.settle(jt, j, task, None);
        }
        jt.abort(j);
        let c = &mut *self.cluster;
        let rj = &mut self.jobs[j];
        let conf = rj.job.conf();
        c.failed_jobs += 1;
        c.metrics.incr("jobtracker", "jobs.failed", 1);
        let cmds = c.dfs.namenode.delete(&conf.output_path, true).unwrap_or_default();
        let now = c.now;
        c.dfs.apply_commands(&mut c.net, now, &cmds);
        c.history.record_failed(&rj.job_id, &conf.name, rj.submitted_at, now);
        let job_id = &rj.job_id;
        c.log.log_with(now, "jobtracker", || format!("{job_id} FAILED: {e}"));
        rj.maps = Vec::new();
        rj.bodies = Bodies::default();
        rj.result = Some(Err(e));
    }

    /// Attempt number `n` of job `j`'s `task` of its current phase on slot
    /// `at`, starting at the slot's `free_at`; a backup does not `commit`.
    fn exec(&mut self, j: usize, task: u32, at: Slot, n: u32, commit: bool) -> Result<Attempt> {
        let c = &mut *self.cluster;
        let RealJob { job, splits, maps, bodies, maps_done, output_files, .. } = &mut self.jobs[j];
        let t = task as usize;
        if maps_done.is_none() {
            return c.exec_map_attempt(*job, &splits[t], &mut bodies.maps[t], at, n);
        }
        let (a, out) = c.exec_reduce_attempt(*job, maps, bodies, t, at, commit)?;
        output_files.extend(out);
        Ok(a)
    }

    /// Speculative execution for job `j` at [`JobTracker::now`], on the
    /// `idle` slots it may use that no backup in `out` has taken, in node
    /// order; each backup launched joins `out`.
    ///
    /// The Speculator sees what the JobTracker's heartbeats show: tasks
    /// whose standing attempt has committed (their durations feed the
    /// median) and those still running, at heartbeat-quantized progress.
    /// A proposal is validated like a scheduler decision — a bad one bumps
    /// `spec.invalid` and is refused — and the backup runs for real, without
    /// committing: the primary owns `part-r-NNNNN` (the backup's bytes are
    /// identical), so the backup's race position is its compute end plus
    /// the primary's commit-write cost, zero for a map. The loop settles
    /// the race ([`ClusterBody::settle`]).
    fn speculate(&mut self, jt: &mut JobTracker, j: usize, idle: &[usize], out: &mut Vec<Backup>) {
        let (jip, now) = (&jt.jobs[j], jt.now());
        let rj = &mut self.jobs[j];
        let (conf, kind) = (rj.job.conf(), jip.kind);
        let speculator = Speculator::from_conf(conf);
        let tasks = rj.standing(kind).len();
        let cap = speculator.cap(tasks);
        // `mapred.reduce.tasks.speculative.execution` gates only the
        // reduce backups.
        let speculates = conf.speculative && (kind == TaskKind::Map || conf.speculative_reduces);
        let committed = tasks - jip.pending.len() - jip.running.len();
        if !speculates || rj.speculated.len() >= cap || committed < MIN_COMPLETED {
            return;
        }
        // The heartbeat view at `now`; no backup launched here changes it.
        let (mut completed, mut running) = (Vec::new(), Vec::new());
        for (id, s) in rj.standing(kind).iter().enumerate() {
            match s {
                Some(s) if s.end <= now => completed.push(s.end.since(s.start).0),
                Some(s) => running.push(RunningTask {
                    task: u32::try_from(id).unwrap_or(u32::MAX),
                    node: s.node,
                    start: s.start,
                    progress_bp: speculator.observed_progress(s.start, s.end, now).unwrap_or(0),
                }),
                None => {}
            }
        }
        for &slot in idle {
            let at @ Slot { node, .. } = jt.slot(kind, slot);
            let alive = self.cluster.trackers.get(&node).is_some_and(|t| t.health.alive);
            let RealJob { maps, reduces, speculated, .. } = &mut self.jobs[j];
            let standing = if kind == TaskKind::Map { maps } else { reduces };
            if speculated.len() >= cap {
                break;
            }
            let taken = out.iter().any(|&(_, _, f)| f.slot == slot);
            if taken || !alive || jt.jobs[j].blacklist.contains(&node) {
                continue;
            }
            let Some(task) = speculator.propose(now, node, &mut completed, &running, speculated)
            else {
                continue;
            };
            // The task must still be running, on another node, and have
            // had no backup.
            let primary = standing
                .get(task as usize)
                .and_then(Option::as_ref)
                .filter(|p| p.end > now && p.node != node && !speculated.contains(&task));
            let Some(p) = primary else {
                self.cluster.metrics.incr("jobtracker", "spec.invalid", 1);
                continue;
            };
            let commit_cost = p.end.since(p.compute_end);
            speculated.insert(task);
            self.cluster.metrics.incr("jobtracker", "spec.launched", 1);
            let (ran, flight) = match self.exec(j, task, at, 1, false) {
                Ok(mut a) => {
                    a.end = a.compute_end + commit_cost;
                    let end = a.end;
                    (Some(a), Flight::new(slot, now, end, true))
                }
                // The backup died on its own (injected failure, OOM).
                Err(_) => (None, Flight::new(slot, now, now + failure_burn(conf, kind), false)),
            };
            jt.occupy(kind, slot, flight.end);
            self.jobs[j].racing.insert(task, Racer { slot, node, start: now, ran });
            out.push((j, task, flight));
        }
    }

    /// Settle `task`'s race, if it has one, at [`JobTracker::now`]: the
    /// backup's `flight` committed first (won: the primary was killed, and
    /// its whole runtime is waste) or died (lost: its burn is waste), or
    /// else the primary committed or the task or job was stopped (killed:
    /// what the backup ran is waste).
    fn settle(&mut self, jt: &JobTracker, j: usize, task: u32, flight: Option<&Flight>) {
        let (kind, now) = (jt.jobs[j].kind, jt.now());
        let (c, rj) = (&mut *self.cluster, &mut self.jobs[j]);
        let Some(racer) = rj.racing.remove(&task) else { return };
        let (outcome, metric, since) = match flight.filter(|f| f.slot == racer.slot) {
            Some(f) if f.commits => {
                let standing = &mut rj.standing(kind)[task as usize];
                let p_start = standing.as_ref().map_or(racer.start, |p| p.start);
                *standing = racer.ran;
                let won = if kind == TaskKind::Map { "map" } else { "reduce" };
                rj.run.counters.incr("Job Counters", &format!("Speculative {won} attempts won"), 1);
                if let Some(t) = rj.run.tasks.iter_mut().find(|t| t.kind == kind && t.id == task) {
                    (t.node, t.start, t.end, t.speculative) = (racer.node, racer.start, now, true);
                }
                (SpecOutcome::Won, "spec.won", p_start)
            }
            Some(_) => (SpecOutcome::Lost, "spec.lost", racer.start),
            None => (SpecOutcome::Killed, "spec.killed", racer.start),
        };
        c.metrics.incr("jobtracker", metric, 1);
        c.metrics.incr("jobtracker", "spec.wasted_us", now.since(since).0);
        let (reduce, node, start, end) = (kind == TaskKind::Reduce, racer.node.0, racer.start, now);
        rj.run.spec_attempts.push(SpecAttempt { task, reduce, node, start, end, outcome });
    }

    /// The loop ran dry: whoever has no result yet was starved by the
    /// policy, or the policy made an invalid decision and the loop stopped.
    fn fail_unfinished(&mut self, jt: &mut JobTracker) {
        if jt.invalid().is_some() {
            self.cluster.metrics.incr("jobtracker", "sched.invalid", 1);
        }
        for j in 0..self.jobs.len() {
            if self.jobs[j].result.is_some() {
                continue;
            }
            let jip = &jt.jobs[j];
            let noun = if jip.kind == TaskKind::Map { "map" } else { "reduce" };
            let complaint = match jt.invalid() {
                Some(what) => what.to_string(),
                None => format!("stalled with {} pending {noun} task(s)", jip.pending.len()),
            };
            let e = format!("{}: scheduler {} {complaint}", self.jobs[j].job_id, jt.policy());
            self.fail(jt, j, HlError::JobFailed(e));
        }
    }
}

impl TaskBody for ClusterBody<'_> {
    /// One attempt, at [`JobTracker::now`]: it commits, or it failed and
    /// burns its slot (its task re-queues when the burn ends), or it was
    /// the task's last allowed attempt and fails the job.
    fn launch(&mut self, jt: &mut JobTracker, l: Launch) -> Option<Flight> {
        let c = &mut *self.cluster;
        c.metrics.incr("jobtracker", "sched.decisions", 1);
        if l.rerun {
            c.metrics.incr("jobtracker", "sched.rerun", 1);
        }
        let (kind, task) = (jt.jobs[l.job].kind, l.task);
        let at @ Slot { node, free_at: start } = jt.slot(kind, l.slot);
        let tries = &mut self.jobs[l.job].tries[task as usize];
        *tries += 1;
        let attempt = *tries;
        let result = self.exec(l.job, task, at, attempt, true);
        let (c, rj) = (&mut *self.cluster, &mut self.jobs[l.job]);
        let run = &mut rj.run;
        let e = match result {
            Ok(mut a) => {
                let mut counters = std::mem::take(&mut a.counters);
                run.peak_buffer = run.peak_buffer.max(a.peak_buffered);
                if let Some(l) = a.locality {
                    counters.incr("Job Counters", locality_counter(l), 1);
                }
                let end = a.end;
                run.tasks.push(TaskSummary {
                    id: task,
                    kind,
                    node,
                    start,
                    end,
                    attempts: attempt,
                    locality: a.locality,
                    speculative: false,
                });
                run.task_counters.push(counters);
                jt.occupy(kind, l.slot, end);
                rj.standing(kind)[task as usize] = Some(a);
                return Some(Flight::new(l.slot, start, end, true));
            }
            Err(e) => e,
        };
        let (job_id, conf) = (&rj.job_id, rj.job.conf());
        let name = format!("{}_{task:05}", if kind == TaskKind::Map { 'm' } else { 'r' });
        c.log.log_with(start, "jobtracker", || {
            format!("{job_id} {name} attempt {attempt} failed on {node}: {e}")
        });
        if attempt >= conf.max_attempts {
            let e = format!("{job_id}: task {name} failed {attempt} attempts: {e}");
            self.fail(jt, l.job, HlError::JobFailed(e));
            return None;
        }
        // A crashed tracker takes its slots out of the pool.
        if !c.trackers.get(&node).is_some_and(|t| t.health.alive) {
            jt.drop_node(node);
        }
        // Blacklist the tracker for this job once it eats too many failed
        // attempts (crashed or not).
        let strikes = run.failures.entry(node).or_insert(0);
        *strikes += 1;
        if *strikes >= c.max_tracker_failures && !run.blacklist.contains(&node) {
            run.blacklist.push(node);
            jt.jobs[l.job].blacklist.push(node);
            run.counters.incr("Job Counters", "Trackers blacklisted", 1);
            let n = *strikes;
            c.log.log_with(start, "jobtracker", || {
                format!("{job_id} blacklisted tracker on {node} after {n} failed attempt(s)")
            });
        }
        // The failed attempt still burned startup + a bit.
        let end = start + failure_burn(conf, kind);
        jt.occupy(kind, l.slot, end);
        Some(Flight::new(l.slot, start, end, false))
    }

    fn finished(&mut self, jt: &mut JobTracker, job: usize, task: u32, flight: &Flight) {
        self.settle(jt, job, task, Some(flight));
        let jip = &jt.jobs[job];
        if !(jip.pending.is_empty() && jip.running.is_empty()) {
            return;
        }
        match jip.kind {
            TaskKind::Map => self.start_reduces(jt, job, flight.end),
            TaskKind::Reduce => self.complete(job),
        }
    }

    fn backups(&mut self, jt: &mut JobTracker, kind: TaskKind, idle: &[usize]) -> Vec<Backup> {
        let mut out = Vec::new();
        for i in 0..jt.active().len() {
            let j = jt.active()[i];
            if jt.jobs[j].kind == kind {
                self.speculate(jt, j, idle, &mut out);
            }
        }
        out
    }

    /// A preempted attempt already ran (attempts execute at launch), so
    /// take back what it left: its summary and counters, its standing or
    /// its committed part file. The re-run produces them again, from the
    /// same body.
    fn preempted(&mut self, jt: &mut JobTracker, job: usize, task: u32, flight: &Flight) {
        self.settle(jt, job, task, None);
        let c = &mut *self.cluster;
        c.metrics.incr("jobtracker", "sched.preempted", 1);
        c.metrics.incr("jobtracker", "sched.requeued", 1);
        let rj = &mut self.jobs[job];
        let kind = jt.jobs[job].kind;
        rj.tries[task as usize] = 0;
        if let Some(i) = rj.run.tasks.iter().position(|t| t.kind == kind && t.id == task) {
            rj.run.tasks.remove(i);
            rj.run.task_counters.remove(i);
        }
        let now = jt.now();
        match kind {
            TaskKind::Map => rj.maps[task as usize] = None,
            TaskKind::Reduce => {
                rj.reduces[task as usize] = None;
                let path = part_path(rj.job.conf(), task as usize);
                if let Some(i) = rj.output_files.iter().position(|p| *p == path) {
                    rj.output_files.remove(i);
                    let cmds = c.dfs.namenode.delete(&path, false).unwrap_or_default();
                    c.dfs.apply_commands(&mut c.net, now, &cmds);
                }
            }
        }
        let (job_id, ran) = (&rj.job_id, now.since(flight.start));
        c.log.log_with(now, "jobtracker", || {
            format!("{job_id} task {task} preempted after {ran}; re-queued")
        });
    }

    /// A map task's distance is its split's best replica locality from the
    /// node (node-local 0 < rack-local < off-rack); reduces, and every
    /// task when the locality-ablation arm is on, are 0 everywhere.
    fn distance(&self, node: NodeId, job: usize, task: u32) -> u32 {
        let Some(rj) = self.jobs.get(job) else { return u32::MAX };
        if rj.maps_done.is_some() || !self.cluster.locality_aware {
            return 0;
        }
        let Some(s) = rj.splits.get(task as usize) else {
            return u32::MAX;
        };
        let topo = self.cluster.net.topology();
        topo.best_locality(node, &s.holders).map(|l| l.distance()).unwrap_or(u32::MAX)
    }

    /// The DFS protocol rides the loop's clock, mid-job included.
    fn advance_to(&mut self, now: SimTime) {
        self.cluster.dfs.advance_to(&mut self.cluster.net, now);
    }
}

/// Per-job state both phases write: the job report's raw material.
#[derive(Default)]
struct JobRun {
    /// Job-level counters (blacklistings, speculative wins).
    counters: Counters,
    tasks: Vec<TaskSummary>,
    /// `tasks[i]`'s counters, merged into the report when the job
    /// completes; kept apart until then so a preempted attempt's can be
    /// taken back.
    task_counters: Vec<Counters>,
    peak_buffer: usize,
    spec_attempts: Vec<SpecAttempt>,
    /// Per-job tracker blacklist: a tracker that eats too many failed
    /// attempts stops receiving this job's tasks for the rest of the
    /// phase. Each *successful* job that blacklisted a tracker adds a
    /// global strike; enough strikes and the JobTracker stops scheduling
    /// on it entirely.
    failures: BTreeMap<NodeId, u32>,
    blacklist: Vec<NodeId>,
}

/// What a failed attempt (a primary or a backup) burns on its slot: JVM
/// startup, plus for a map the input it got through.
fn failure_burn(conf: &JobConf, kind: TaskKind) -> SimDuration {
    conf.task_startup + SimDuration::from_secs(if kind == TaskKind::Map { 10 } else { 0 })
}

/// A backup the engine launched, as [`TaskBody::backups`] returns it:
/// `(job, task, flight)`.
type Backup = (usize, u32, Flight);

/// One successful task attempt. A task's *standing* attempt is its
/// primary, or the backup that beat it. What the task computed is not
/// here: that is its body, shared by every attempt.
struct Attempt {
    node: NodeId,
    start: SimTime,
    /// When the attempt's slot frees up (HDFS commit included); a backup's
    /// race position.
    end: SimTime,
    /// When compute finished, before the HDFS commit write. Equals `end`
    /// for a map.
    compute_end: SimTime,
    /// Taken when the attempt is booked.
    counters: Counters,
    /// Input locality (maps only).
    locality: Option<Locality>,
    /// Sort-buffer high-water mark (maps only).
    peak_buffered: usize,
}

/// A backup in the air: where it runs and since when, and what it ran
/// (`None`: it died).
struct Racer {
    slot: usize,
    node: NodeId,
    start: SimTime,
    ran: Option<Attempt>,
}

/// Where reduce `r` of a job commits its output.
fn part_path(conf: &JobConf, r: usize) -> String {
    format!("{}/part-r-{:05}", conf.output_path, r)
}

fn locality_counter(l: Locality) -> &'static str {
    match l {
        Locality::NodeLocal => "Data-local map tasks",
        Locality::RackLocal => "Rack-local map tasks",
        Locality::OffRack => "Off-rack map tasks",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Combiner, MapContext, Mapper, ReduceContext, Reducer};
    use crate::job::Job;
    use crate::scheduler::{JobView, SchedulerEnv};
    use hl_cluster::node::DegradeModel;

    // -- A tiny WordCount used across engine tests -----------------------

    struct WcMap;
    impl Mapper for WcMap {
        type KOut = String;
        type VOut = u64;
        fn map(&mut self, _o: u64, line: &str, ctx: &mut MapContext<String, u64>) {
            for w in line.split_whitespace() {
                ctx.emit(w.to_string(), 1);
            }
        }
    }

    struct WcReduce;
    impl Reducer for WcReduce {
        type KIn = String;
        type VIn = u64;
        fn reduce(&mut self, key: String, values: Vec<u64>, ctx: &mut ReduceContext) {
            ctx.emit(key, values.into_iter().sum::<u64>());
        }
    }

    struct WcCombine;
    impl Combiner for WcCombine {
        type K = String;
        type V = u64;
        fn combine(&mut self, _k: &String, values: Vec<u64>, out: &mut Vec<u64>) {
            out.push(values.into_iter().sum());
        }
    }

    fn corpus(words: usize) -> String {
        let vocab = ["the", "quick", "brown", "fox", "lazy", "dog"];
        let mut s = String::new();
        for i in 0..words {
            s.push_str(vocab[i % vocab.len()]);
            s.push(if i % 10 == 9 { '\n' } else { ' ' });
        }
        s.push('\n');
        s
    }

    fn small_cluster() -> MrCluster {
        let mut config = Configuration::with_defaults();
        config.set(hl_common::config::keys::DFS_BLOCK_SIZE, 4096u64);
        MrCluster::new(ClusterSpec::course_hadoop(4), config).unwrap()
    }

    fn stage(cluster: &mut MrCluster, path: &str, text: &str) {
        cluster.dfs.namenode.mkdirs("/in").unwrap();
        let t = cluster.now;
        let put = cluster.dfs.put(&mut cluster.net, t, path, text.as_bytes(), None).unwrap();
        cluster.now = put.completed_at;
    }

    fn parse_counts(text: &str) -> std::collections::BTreeMap<String, u64> {
        text.lines()
            .map(|l| {
                let (k, v) = l.split_once('\t').unwrap();
                (k.to_string(), v.parse().unwrap())
            })
            .collect()
    }

    #[test]
    fn metrics_track_job_lifecycle_and_spills() {
        let mut cluster = small_cluster();
        stage(&mut cluster, "/in/data.txt", &corpus(5000));
        let job = Job::new(
            JobConf::new("wc-metrics").input("/in/data.txt").output("/out/wcm").reduces(2),
            || WcMap,
            || WcReduce,
        );
        let report = cluster.run_job(&job).unwrap();
        let snap = cluster.metrics_snapshot();
        assert_eq!(snap.counter("jobtracker", "jobs.submitted"), 1);
        assert_eq!(snap.counter("jobtracker", "jobs.completed"), 1);
        assert_eq!(snap.counter("jobtracker", "jobs.failed"), 0);
        assert_eq!(
            snap.counter("jobtracker", "shuffle.bytes"),
            report.counters.task(TaskCounter::ReduceShuffleBytes),
        );
        assert_eq!(
            snap.counter("jobtracker", "spill.records"),
            report.counters.task(TaskCounter::SpilledRecords),
        );
        // Task-duration histograms hold one sample per task.
        let maps = report.num_maps() as u64;
        match snap.get("jobtracker", "map.duration_ms") {
            Some(hl_metrics::MetricValue::Histogram(h)) => assert_eq!(h.count(), maps),
            other => panic!("map.duration_ms missing: {other:?}"),
        }
        // The merged snapshot spans every subsystem.
        assert!(snap.counter("namenode", "rpc.add_block") > 0);
        assert!(snap.counter_across_daemons("bytes.read") > 0);
        assert!(snap.gauge("jobtracker", "trackers.live") == 4);
        assert!(snap.gauge("network", "remote.bytes") >= 0);
        // Snapshots are deterministic: rendering twice is byte-identical.
        let again = cluster.metrics_snapshot();
        use hl_common::writable::Writable;
        assert_eq!(snap.to_bytes(), again.to_bytes());
    }

    #[test]
    fn wordcount_end_to_end_is_correct() {
        let mut cluster = small_cluster();
        let text = corpus(5000);
        stage(&mut cluster, "/in/data.txt", &text);
        let job = Job::new(
            JobConf::new("wordcount").input("/in/data.txt").output("/out/wc").reduces(2),
            || WcMap,
            || WcReduce,
        );
        let report = cluster.run_job(&job).unwrap();
        assert!(report.success);
        assert!(report.num_maps() > 1, "multiple blocks → multiple maps");
        assert_eq!(report.num_reduces(), 2);
        let out = cluster.read_output("/out/wc").unwrap();
        let counts = parse_counts(&out);
        // Ground truth.
        let mut expected = std::collections::BTreeMap::new();
        for w in text.split_whitespace() {
            *expected.entry(w.to_string()).or_insert(0u64) += 1;
        }
        assert_eq!(counts, expected);
        // Counters add up.
        assert_eq!(report.counters.task(TaskCounter::MapInputRecords), text.lines().count() as u64);
        assert_eq!(report.counters.task(TaskCounter::MapOutputRecords), 5000);
        assert_eq!(report.counters.task(TaskCounter::ReduceOutputRecords), 6);
        assert!(report.elapsed() > SimDuration::ZERO);
    }

    #[test]
    fn combiner_reduces_shuffle_but_not_answers() {
        let mut cluster = small_cluster();
        let text = corpus(8000);
        stage(&mut cluster, "/in/data.txt", &text);

        let plain = Job::new(
            JobConf::new("wc").input("/in/data.txt").output("/out/plain").reduces(2),
            || WcMap,
            || WcReduce,
        );
        let plain_report = cluster.run_job(&plain).unwrap();
        let plain_out = parse_counts(&cluster.read_output("/out/plain").unwrap());

        let combined = Job::with_combiner(
            JobConf::new("wc+c").input("/in/data.txt").output("/out/comb").reduces(2),
            || WcMap,
            || WcReduce,
            || WcCombine,
        );
        let comb_report = cluster.run_job(&combined).unwrap();
        let comb_out = parse_counts(&cluster.read_output("/out/comb").unwrap());

        assert_eq!(plain_out, comb_out, "combiner must not change results");
        assert!(
            comb_report.shuffle_bytes() < plain_report.shuffle_bytes() / 4,
            "combiner collapses shuffle: {} vs {}",
            comb_report.shuffle_bytes(),
            plain_report.shuffle_bytes()
        );
        assert!(comb_report.counters.task(TaskCounter::CombineInputRecords) > 0);
    }

    #[test]
    fn compressed_map_output_shrinks_shuffle_but_not_answers() {
        let mut cluster = small_cluster();
        let text = corpus(8000);
        stage(&mut cluster, "/in/data.txt", &text);

        let plain = Job::new(
            JobConf::new("wc").input("/in/data.txt").output("/out/plain").reduces(2),
            || WcMap,
            || WcReduce,
        );
        let plain_report = cluster.run_job(&plain).unwrap();
        let plain_out = cluster.read_output("/out/plain").unwrap();

        let packed = Job::new(
            JobConf::new("wc+z")
                .input("/in/data.txt")
                .output("/out/packed")
                .reduces(2)
                .compress_map_output(true),
            || WcMap,
            || WcReduce,
        );
        let packed_report = cluster.run_job(&packed).unwrap();
        let packed_out = cluster.read_output("/out/packed").unwrap();

        assert_eq!(plain_out, packed_out, "codec must not change job output");
        assert!(
            packed_report.shuffle_bytes() < plain_report.shuffle_bytes() / 2,
            "framed shuffle should at least halve on repetitive text: {} vs {}",
            packed_report.shuffle_bytes(),
            plain_report.shuffle_bytes()
        );
        // The codec counters record both sides of the trade.
        let snap = cluster.metrics_snapshot();
        let raw = snap.counter("jobtracker", "codec.in_bytes");
        let out = snap.counter("jobtracker", "codec.out_bytes");
        assert!(raw > 0 && out > 0 && out < raw, "codec.in/out: {raw}/{out}");
        assert!(snap.gauge("jobtracker", "codec.ratio") < 10_000, "ratio gauge in basis points");

        // LocalJobRunner ground truth: the cluster's compressed run and
        // assignment 1's serial runner agree byte for byte.
        let local = crate::local::LocalRunner::serial()
            .run(&plain, &[("data.txt".to_string(), text.into_bytes())], &SideFiles::default())
            .unwrap();
        let mut local_text = local.output.join("\n");
        local_text.push('\n');
        let local_counts = parse_counts(&local_text);
        assert_eq!(parse_counts(&packed_out), local_counts);
    }

    #[test]
    fn compressed_input_splits_stitch_lines_like_plain_ones() {
        let mut cluster = small_cluster();
        let text = corpus(50_000);
        stage(&mut cluster, "/in/plain.txt", &text);
        // Stage the same corpus compressed: blocks hold whole frames, so
        // each split decodes independently and the newline stitch works on
        // decoded bytes.
        cluster.dfs.namenode.mkdirs("/in").unwrap();
        let t = cluster.now;
        let put = cluster
            .dfs
            .put_compressed(
                &mut cluster.net,
                t,
                "/in/packed.txt",
                text.as_bytes(),
                None,
                hl_codec::CodecId::Hlz,
            )
            .unwrap();
        cluster.now = put.completed_at;

        let plain = Job::new(
            JobConf::new("wc").input("/in/plain.txt").output("/out/plain").reduces(2),
            || WcMap,
            || WcReduce,
        );
        cluster.run_job(&plain).unwrap();
        let plain_out = cluster.read_output("/out/plain").unwrap();

        let packed = Job::new(
            JobConf::new("wc-z-in").input("/in/packed.txt").output("/out/zin").reduces(2),
            || WcMap,
            || WcReduce,
        );
        let report = cluster.run_job(&packed).unwrap();
        let packed_out = cluster.read_output("/out/zin").unwrap();

        assert_eq!(plain_out, packed_out, "compressed input must decode to the same answers");
        assert!(report.success);
        // The compressed file stores fewer bytes than the logical corpus,
        // and its split count reflects the stored (framed) blocks.
        let stored: u64 =
            cluster.dfs.file_blocks("/in/packed.txt").unwrap().iter().map(|(_, l, _)| l).sum();
        assert!(stored * 2 < text.len() as u64, "stored {stored} vs logical {}", text.len());
    }

    #[test]
    fn submission_fails_in_safemode_and_on_existing_output() {
        let mut cluster = small_cluster();
        stage(&mut cluster, "/in/data.txt", "a b c\n");
        let job = Job::new(
            JobConf::new("j").input("/in/data.txt").output("/out/j"),
            || WcMap,
            || WcReduce,
        );
        cluster.dfs.namenode.safemode.force_enter();
        assert!(matches!(cluster.run_job(&job), Err(HlError::SafeMode(_))));
        cluster.dfs.namenode.safemode.force_leave();
        cluster.run_job(&job).unwrap();
        // Output dir now exists → resubmission refused (classic student trip).
        assert!(matches!(cluster.run_job(&job), Err(HlError::AlreadyExists(_))));
    }

    #[test]
    fn retries_recover_from_transient_task_failures() {
        let mut cluster = small_cluster();
        stage(&mut cluster, "/in/data.txt", &corpus(500));
        let job = Job::new(
            JobConf::new("flaky").input("/in/data.txt").output("/out/flaky").fail_first_attempts(2),
            || WcMap,
            || WcReduce,
        );
        let report = cluster.run_job(&job).unwrap();
        assert!(report.success);
        assert!(report.tasks.iter().any(|t| t.attempts == 3));

        // Maps long enough that a failed attempt's burn ends while the
        // retry is still running: that instant must not retire the retry.
        let mut slow = Job::new(
            JobConf::new("slow").input("/in/data.txt").output("/out/slow").fail_first_attempts(1),
            || WcMap,
            || WcReduce,
        );
        slow.conf.map_cpu_per_record = SimDuration::from_secs(1);
        let report = cluster.run_job(&slow).unwrap();
        let (maps, reduces): (Vec<_>, Vec<_>) =
            report.tasks.iter().partition(|t| t.kind == TaskKind::Map);
        let maps_done = maps.iter().map(|t| t.end).max().unwrap();
        assert!(maps.iter().all(|t| t.duration() > SimDuration::from_secs(11)));
        assert!(reduces.iter().all(|t| t.start == maps_done), "{reduces:?} vs {maps_done:?}");
    }

    /// A retry is placed when its failure is known: even with map slots
    /// idle since submission, no map's standing attempt starts before its
    /// first attempt has burned `task_startup + 10 s`.
    #[test]
    fn a_retry_waits_for_the_failed_attempts_burn() {
        let mut cluster = small_cluster();
        stage(&mut cluster, "/in/data.txt", &corpus(5000));
        let job = Job::new(
            JobConf::new("flaky").input("/in/data.txt").output("/out/flaky").fail_first_attempts(1),
            || WcMap,
            || WcReduce,
        );
        let report = cluster.run_job(&job).unwrap();
        let maps: Vec<_> = report.tasks.iter().filter(|t| t.kind == TaskKind::Map).collect();
        assert!(maps.len() > 1 && maps.len() < 4 * 8, "{} maps, 32 map slots", maps.len());
        let known = report.submitted_at + job.conf.task_startup + SimDuration::from_secs(10);
        for t in maps {
            assert_eq!(t.attempts, 2);
            assert!(t.start >= known, "map {} retried at {:?}, before {known:?}", t.id, t.start);
        }
    }

    #[test]
    fn too_many_failures_kill_the_job() {
        let mut cluster = small_cluster();
        stage(&mut cluster, "/in/data.txt", "a\n");
        let job = Job::new(
            JobConf::new("doomed")
                .input("/in/data.txt")
                .output("/out/doomed")
                .fail_first_attempts(10),
            || WcMap,
            || WcReduce,
        );
        assert!(matches!(cluster.run_job(&job), Err(HlError::JobFailed(_))));
        // Failed jobs clean up their output directory.
        assert!(!cluster.dfs.namenode.namespace().exists("/out/doomed"));
        // They still reach the history page, as FAILED.
        let entry = &cluster.history.entries()[0];
        assert_eq!((entry.job_id.as_str(), entry.name.as_str()), ("job_0001", "doomed"));
        assert!(!entry.success);
        assert_eq!((entry.maps, entry.reduces), (0, 0));
        assert_eq!(cluster.history.succeeded(), 0);
        assert!(cluster.history.to_string().contains("FAILED"));
    }

    /// FIFO until the sabotaged phase, then one bad decision: a slot past
    /// the end of the slot vector (maps) or a task that is not pending
    /// (reduces).
    struct Rogue(TaskKind);
    impl Scheduler for Rogue {
        fn name(&self) -> &'static str {
            "rogue"
        }
        fn next_assignment(
            &mut self,
            now: SimTime,
            slots: &[SlotState],
            jobs: &[JobView<'_>],
            env: &dyn SchedulerEnv,
        ) -> Option<crate::scheduler::Assignment> {
            // The course cluster has 8 map and 4 reduce slots per node.
            let in_reduce_phase = slots.len() == 4 * 4;
            match (self.0, in_reduce_phase) {
                (TaskKind::Map, false) => Some(crate::scheduler::Assignment {
                    slot: slots.len(),
                    job: 0,
                    task: jobs[0].pending[0],
                }),
                (TaskKind::Reduce, true) => {
                    Some(crate::scheduler::Assignment { slot: 0, job: 0, task: u32::MAX })
                }
                _ => crate::scheduler::FifoScheduler.next_assignment(now, slots, jobs, env),
            }
        }
    }

    #[test]
    fn invalid_scheduler_decisions_fail_the_job_in_either_phase() {
        for (kind, noun) in [(TaskKind::Map, "map"), (TaskKind::Reduce, "reduce")] {
            let mut cluster = small_cluster();
            stage(&mut cluster, "/in/data.txt", &corpus(500));
            cluster.set_scheduler(Box::new(Rogue(kind)));
            let job = Job::new(
                JobConf::new("rogue").input("/in/data.txt").output("/out/rogue").reduces(2),
                || WcMap,
                || WcReduce,
            );
            let err = cluster.run_job(&job).unwrap_err();
            let want = format!("job_0001: scheduler rogue returned an invalid {noun} assignment");
            assert!(matches!(&err, HlError::JobFailed(m) if *m == want), "{noun}: {err}");
            let snap = cluster.metrics_snapshot();
            assert_eq!(snap.counter("jobtracker", "sched.invalid"), 1, "{noun}");
            assert_eq!(snap.counter("jobtracker", "jobs.failed"), 1, "{noun}");
            // The reduce-phase sabotage only fires after every map ran.
            assert_eq!(snap.counter("jobtracker", "sched.decisions") > 0, kind == TaskKind::Reduce);
        }
    }

    #[test]
    fn leaking_jobs_crash_trackers_and_datanodes() {
        let mut cluster = small_cluster();
        stage(&mut cluster, "/in/data.txt", &corpus(4000));
        // Crash threshold is 13 buggy tasks per daemon; run leaking jobs
        // until daemons start dying.
        let mut crashed = false;
        for i in 0..30 {
            let job = Job::new(
                JobConf::new("leaky")
                    .input("/in/data.txt")
                    .output(format!("/out/leak{i}"))
                    .speculative(false)
                    .leaking(true),
                || WcMap,
                || WcReduce,
            );
            // Crash-path runs are allowed to fail; the assertion below is
            // about cluster state, not job success.
            let _ = cluster.run_job(&job);
            if cluster.live_tracker_nodes().len() < 4 {
                crashed = true;
                break;
            }
        }
        assert!(crashed, "heap leaks must eventually kill a tasktracker");
        // The colocated DataNode died too.
        let dead: Vec<NodeId> =
            (0..4u32).map(NodeId).filter(|n| !cluster.live_tracker_nodes().contains(n)).collect();
        for n in &dead {
            assert!(!cluster.dfs.datanode(*n).unwrap().alive);
        }
        // Restart brings them back.
        cluster.restart_dead_trackers();
        assert_eq!(cluster.live_tracker_nodes().len(), 4);
    }

    #[test]
    fn map_tasks_are_mostly_data_local_on_course_cluster() {
        let mut cluster = small_cluster();
        stage(&mut cluster, "/in/data.txt", &corpus(20_000));
        let job = Job::new(
            JobConf::new("loc").input("/in/data.txt").output("/out/loc"),
            || WcMap,
            || WcReduce,
        );
        let report = cluster.run_job(&job).unwrap();
        let (dl, rl, or) = report.locality_histogram();
        assert!(dl > 0);
        assert_eq!(dl + rl + or, report.num_maps());
        // With 3× replication on 4 nodes, most maps should be data-local.
        assert!(dl * 2 >= report.num_maps(), "data-local {dl} of {}", report.num_maps());
    }

    #[test]
    fn speculative_execution_rescues_stragglers() {
        // 2 map slots per node so the straggler node is guaranteed work.
        let mut config = Configuration::with_defaults();
        config.set(hl_common::config::keys::DFS_BLOCK_SIZE, 4096u64);
        config.set(hl_common::config::keys::MAPRED_MAP_SLOTS, 2);
        let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(4), config).unwrap();
        stage(&mut cluster, "/in/data.txt", &corpus(20_000));
        // A 50x straggler: CPU, local disk and NIC all at 2% of nominal.
        cluster.net.set_node_model(NodeId(3), DegradeModel::Static(PerfProfile::uniform(200)));

        let slow_job = Job::new(
            JobConf::new("no-spec").input("/in/data.txt").output("/out/nospec").speculative(false),
            || WcMap,
            || WcReduce,
        );
        let no_spec = cluster.run_job(&slow_job).unwrap();

        let spec_job = Job::new(
            JobConf::new("spec").input("/in/data.txt").output("/out/spec").speculative(true),
            || WcMap,
            || WcReduce,
        );
        let with_spec = cluster.run_job(&spec_job).unwrap();

        assert!(
            with_spec.elapsed() < no_spec.elapsed(),
            "speculation must beat the straggler: {} vs {}",
            with_spec.elapsed(),
            no_spec.elapsed()
        );
        assert!(with_spec.tasks.iter().any(|t| t.speculative));
    }

    #[test]
    fn side_files_work_from_dfs_cache() {
        let mut cluster = small_cluster();
        stage(&mut cluster, "/in/data.txt", "x\ny\n");
        stage(&mut cluster, "/in/lookup.txt", "x=ex\ny=why\n");
        cluster.cache_from_dfs("/in/lookup.txt").unwrap();

        struct LookupMap;
        impl Mapper for LookupMap {
            type KOut = String;
            type VOut = u64;
            fn map(&mut self, _o: u64, line: &str, ctx: &mut MapContext<String, u64>) {
                // The naive pattern: read the side file on every record.
                let bytes = ctx.read_side_file("/in/lookup.txt").unwrap();
                let table = String::from_utf8_lossy(&bytes);
                for entry in table.lines() {
                    if let Some((k, v)) = entry.split_once('=') {
                        if k == line.trim() {
                            ctx.emit(v.to_string(), 1);
                        }
                    }
                }
            }
        }
        let job = Job::new(
            JobConf::new("lookup").input("/in/data.txt").output("/out/lk"),
            || LookupMap,
            || WcReduce,
        );
        let report = cluster.run_job(&job).unwrap();
        let out = parse_counts(&cluster.read_output("/out/lk").unwrap());
        assert_eq!(out["ex"], 1);
        assert_eq!(out["why"], 1);
        assert_eq!(report.counters.get("Side Files", "reads"), 2);
    }

    #[test]
    fn job_ids_increment() {
        let mut cluster = small_cluster();
        stage(&mut cluster, "/in/data.txt", "a\n");
        for i in 1..=3 {
            let job = Job::new(
                JobConf::new("j").input("/in/data.txt").output(format!("/out/{i}")),
                || WcMap,
                || WcReduce,
            );
            let r = cluster.run_job(&job).unwrap();
            assert_eq!(r.job_id, format!("job_{i:04}"));
        }
    }

    #[test]
    fn flaky_tracker_is_blacklisted_per_job_then_cluster_wide() {
        let mut config = Configuration::with_defaults();
        config.set(hl_common::config::keys::DFS_BLOCK_SIZE, 4096u64);
        // One failed attempt blacklists a tracker for the job; one such
        // blacklisting (on a successful job) bans it cluster-wide.
        config.set(hl_common::config::keys::MAPRED_MAX_TRACKER_FAILURES, 1u32);
        config.set(hl_common::config::keys::MAPRED_MAX_TRACKER_BLACKLISTS, 1u32);
        let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(4), config).unwrap();
        stage(&mut cluster, "/in/data.txt", &corpus(200));
        let job = Job::new(
            JobConf::new("flaky")
                .input("/in/data.txt")
                .output("/out/flaky")
                .fail_first_attempts(1)
                .speculative(false),
            || WcMap,
            || WcReduce,
        );
        let report = cluster.run_job(&job).unwrap();
        assert!(report.success, "retries on other trackers carried the job");
        assert!(!report.blacklisted_trackers.is_empty());
        assert!(
            report.counters.get("Job Counters", "Trackers blacklisted")
                >= report.blacklisted_trackers.len() as u64
        );
        // The successful job converted its blacklistings to global strikes.
        let banned = cluster.blacklisted_trackers();
        for n in &report.blacklisted_trackers {
            assert!(banned.contains(n), "{n} should be banned cluster-wide");
        }
        // A clean follow-up job schedules nothing on the banned trackers.
        let job2 = Job::new(
            JobConf::new("clean").input("/in/data.txt").output("/out/clean").speculative(false),
            || WcMap,
            || WcReduce,
        );
        let r2 = cluster.run_job(&job2).unwrap();
        assert!(r2.success);
        assert!(r2.blacklisted_trackers.is_empty());
        assert!(r2.tasks.iter().all(|t| !banned.contains(&t.node)));
        // The operator restart pass forgives everything.
        cluster.restart_dead_trackers();
        assert!(cluster.blacklisted_trackers().is_empty());
    }

    // -- Two jobs at once ---------------------------------------------------

    /// Wraps a policy and notes whether any decision saw a job with tasks
    /// in flight.
    struct Watch<S>(S, std::sync::Arc<std::sync::atomic::AtomicBool>);
    impl<S: Scheduler> Scheduler for Watch<S> {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn next_assignment(
            &mut self,
            now: SimTime,
            slots: &[SlotState],
            jobs: &[JobView<'_>],
            env: &dyn SchedulerEnv,
        ) -> Option<crate::scheduler::Assignment> {
            if jobs.iter().any(|j| !j.running.is_empty()) {
                self.1.store(true, std::sync::atomic::Ordering::Relaxed);
            }
            self.0.next_assignment(now, slots, jobs, env)
        }
        fn preemptions(
            &mut self,
            now: SimTime,
            kind: TaskKind,
            total_slots: usize,
            jobs: &[JobView<'_>],
        ) -> Vec<crate::scheduler::Preemption> {
            self.0.preemptions(now, kind, total_slots, jobs)
        }
    }

    /// Four nodes with one map and one reduce slot each, so two jobs have
    /// to share; two corpora staged as `/in/a.txt` and `/in/b.txt`.
    fn contended_cluster() -> (MrCluster, String, String) {
        let mut config = Configuration::with_defaults();
        config.set(hl_common::config::keys::DFS_BLOCK_SIZE, 4096u64);
        config.set(hl_common::config::keys::MAPRED_MAP_SLOTS, 1);
        config.set(hl_common::config::keys::MAPRED_REDUCE_SLOTS, 1);
        let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(4), config).unwrap();
        let (a, b) = (corpus(9000), corpus(7000).replace("fox", "vixen"));
        stage(&mut cluster, "/in/a.txt", &a);
        stage(&mut cluster, "/in/b.txt", &b);
        (cluster, a, b)
    }

    fn wc_job(name: &str, user: &str, pool: &str) -> Job<WcMap, WcReduce, WcCombine> {
        let conf = JobConf::new(name)
            .input(format!("/in/{name}.txt"))
            .output(format!("/out/{name}"))
            .reduces(4)
            .speculative(false);
        let mut job = Job::with_combiner(conf, || WcMap, || WcReduce, || WcCombine);
        job.conf.user = user.into();
        job.conf.pool = pool.into();
        job
    }

    /// What `LocalRunner::serial()` makes of the same wordcount.
    fn serial_counts(text: &str) -> std::collections::BTreeMap<String, u64> {
        let reference = wc_job("ref", "u", "p");
        let local = crate::local::LocalRunner::serial()
            .run(&reference, &[("in.txt".to_string(), text.as_bytes().to_vec())], &SideFiles::new())
            .unwrap();
        parse_counts(&(local.output.join("\n") + "\n"))
    }

    #[test]
    fn two_jobs_overlap_and_the_policy_decides_the_interleaving() {
        let mut interleavings = Vec::new();
        for policy in ["fifo", "fair"] {
            let (mut cluster, a_text, b_text) = contended_cluster();
            let saw_running = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let inner: Box<dyn Scheduler> = match policy {
                "fifo" => Box::new(Watch(FifoScheduler, saw_running.clone())),
                _ => Box::new(Watch(
                    crate::scheduler::FairScheduler::new(SimDuration::from_secs(30)),
                    saw_running.clone(),
                )),
            };
            cluster.set_scheduler(inner);
            let (a, b) = (wc_job("a", "alice", "research"), wc_job("b", "bob", "teaching"));
            let t0 = cluster.now;
            let results = cluster.run_jobs(&[(t0, &a), (t0 + SimDuration::from_millis(300), &b)]);
            let reports: Vec<JobReport> = results.into_iter().map(|r| r.unwrap()).collect();
            // The jobs really overlapped, and each is still right.
            assert!(reports[1].submitted_at < reports[0].finished_at, "{policy}");
            assert!(saw_running.load(std::sync::atomic::Ordering::Relaxed), "{policy}");
            let a_out = parse_counts(&cluster.read_output("/out/a").unwrap());
            let b_out = parse_counts(&cluster.read_output("/out/b").unwrap());
            assert_eq!(a_out, serial_counts(&a_text), "{policy}");
            assert_eq!(b_out, serial_counts(&b_text), "{policy}");
            assert_eq!(cluster.history.len(), 2);
            // Which job's map got each successive slot.
            let mut maps: Vec<(SimTime, usize)> = reports
                .iter()
                .enumerate()
                .flat_map(|(j, r)| {
                    r.tasks.iter().filter(|t| t.kind == TaskKind::Map).map(move |t| (t.start, j))
                })
                .collect();
            maps.sort();
            interleavings.push(maps.into_iter().map(|(_, j)| j).collect::<Vec<_>>());
        }
        // FIFO drains job a's maps before job b's first; Fair alternates.
        let first_b = interleavings[0].iter().position(|&j| j == 1).unwrap();
        assert!(interleavings[0][first_b..].iter().all(|&j| j == 1), "{:?}", interleavings[0]);
        assert_ne!(interleavings[0], interleavings[1]);
    }

    #[test]
    fn fair_min_share_preempts_a_real_reduce_and_reruns_it() {
        let (mut cluster, a_text, _) = contended_cluster();
        stage(&mut cluster, "/in/empty.txt", "");
        cluster.set_scheduler(Box::new(
            crate::scheduler::FairScheduler::new(SimDuration::from_secs(1)).pool("prod", 1, 2),
        ));
        // Job a's reduces hold all four reduce slots for minutes. Job b is
        // guaranteed two; its input is empty, so it arrives with its
        // reduces already runnable (a job b that read input would queue
        // behind the commit writes job a's reduces have already booked on
        // the disks: attempts execute when launched).
        let mut a = wc_job("a", "alice", "adhoc");
        a.conf.reduce_cpu_per_record = SimDuration::from_secs(4);
        let b = wc_job("empty", "bob", "prod");
        let t0 = cluster.now;
        let results = cluster.run_jobs(&[(t0, &a), (t0 + SimDuration::from_secs(8), &b)]);
        let reports: Vec<JobReport> = results.into_iter().map(|r| r.unwrap()).collect();

        // The first instant after the timeout is job a's first reduce
        // commit; reduces of job a still running then are killed for job b.
        let snap = cluster.metrics_snapshot();
        let preempted = snap.counter("jobtracker", "sched.preempted");
        assert!(preempted >= 2, "{preempted} preemption(s)");
        assert_eq!(snap.counter("jobtracker", "sched.requeued"), preempted);
        assert_eq!(snap.counter("jobtracker", "sched.rerun"), preempted);
        // A killed reduce had already committed its part file; the re-run
        // could only write it again because the kill removed it.
        let mut parts = reports[0].output_files.clone();
        parts.sort();
        parts.dedup();
        assert_eq!(parts.len(), reports[0].output_files.len(), "a part file is listed twice");
        let reduces: Vec<_> =
            reports[0].tasks.iter().filter(|t| t.kind == TaskKind::Reduce).collect();
        assert_eq!(reduces.len(), 4, "one standing attempt per reduce");
        assert!(reduces.iter().any(|t| t.start > reports[1].submitted_at), "no reduce re-ran");
        let a_out = parse_counts(&cluster.read_output("/out/a").unwrap());
        assert_eq!(a_out, serial_counts(&a_text));
        assert_eq!(cluster.read_output("/out/empty").unwrap(), "");
        assert!(reports[1].finished_at < reports[0].finished_at);
    }

    /// Fair keeps a starvation clock per kind: a pool starved of reduce
    /// slots is preempted for at its timeout although another pool's maps
    /// are running, whose `preemptions` call comes first at every instant.
    #[test]
    fn fair_preempts_for_a_starved_reduce_phase_while_maps_run() {
        let (mut cluster, _, _) = contended_cluster();
        stage(&mut cluster, "/in/empty.txt", "");
        cluster.set_scheduler(Box::new(
            crate::scheduler::FairScheduler::new(SimDuration::from_secs(1)).pool("prod", 1, 2),
        ));
        // Job a's reduces hold all four reduce slots for minutes; job b's
        // maps run 20 s each the whole time; job empty wants two reduce
        // slots from its arrival.
        let mut a = wc_job("a", "alice", "adhoc");
        a.conf.reduce_cpu_per_record = SimDuration::from_secs(4);
        let mut b = wc_job("b", "bob", "batch");
        b.conf.map_cpu_per_record = SimDuration::from_millis(250);
        let empty = wc_job("empty", "carol", "prod");
        let t0 = cluster.now;
        let batch: [(SimTime, &dyn JobCode); 3] = [
            (t0, &a),
            (t0 + SimDuration::from_secs(1), &b),
            (t0 + SimDuration::from_secs(15), &empty),
        ];
        let reports: Vec<JobReport> =
            cluster.run_jobs(&batch).into_iter().map(|r| r.unwrap()).collect();
        let b_maps_done = reports[1].tasks.iter().map(|t| t.end).max().unwrap();
        let served = reports[2].tasks.iter().map(|t| t.start).min().unwrap();
        assert!(cluster.metrics_snapshot().counter("jobtracker", "sched.preempted") >= 2);
        assert!(
            served < b_maps_done,
            "job empty waited for b's maps: {served:?} vs {b_maps_done:?}"
        );
    }

    #[test]
    fn a_blacklisted_node_is_hidden_from_that_job_only() {
        let mut config = Configuration::with_defaults();
        config.set(hl_common::config::keys::DFS_BLOCK_SIZE, 4096u64);
        config.set(hl_common::config::keys::MAPRED_MAX_TRACKER_FAILURES, 1u32);
        let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(4), config).unwrap();
        stage(&mut cluster, "/in/a.txt", &corpus(1500));
        stage(&mut cluster, "/in/b.txt", &corpus(20_000));
        // Every first attempt of job a fails, and one failure blacklists
        // the tracker for job a; job b arrives at the same instant.
        let mut a = wc_job("a", "alice", "default");
        a.conf.fail_first_attempts = 1;
        let b = wc_job("b", "bob", "default");
        let t0 = cluster.now;
        let reports: Vec<JobReport> =
            cluster.run_jobs(&[(t0, &a), (t0, &b)]).into_iter().map(|r| r.unwrap()).collect();
        // Each of job a's maps burned its first attempt on a tracker job a
        // had not yet given up on, so every map banned a fresh one: offered
        // a banned node again, a map would have struck it a second time.
        let banned = &reports[0].blacklisted_trackers;
        assert_eq!(reports[0].num_maps(), 2);
        assert_eq!(banned.len(), 2, "{banned:?}");
        let b_maps_there = reports[1]
            .tasks
            .iter()
            .filter(|t| t.kind == TaskKind::Map && banned.contains(&t.node))
            .count();
        assert!(b_maps_there > 0, "job b lost the nodes job a blacklisted");
        assert!(reports[1].blacklisted_trackers.is_empty());
    }

    /// A flight the loop launched: `(kind, job, task, slot, start, end)`.
    type Recorded = (TaskKind, usize, u32, usize, SimTime, SimTime);

    /// The engine's body, with every flight the loop launched written
    /// down; a flight the loop stopped early (its task's other flight
    /// committed, or the task was preempted) ends at that instant.
    struct Recorder<'a> {
        body: ClusterBody<'a>,
        flights: Vec<Recorded>,
    }

    impl Recorder<'_> {
        fn stop(&mut self, kind: TaskKind, job: usize, task: u32, now: SimTime) {
            for f in &mut self.flights {
                if (f.0, f.1, f.2) == (kind, job, task) && f.4 <= now && now < f.5 {
                    f.5 = now;
                }
            }
        }
    }

    impl TaskBody for Recorder<'_> {
        fn launch(&mut self, jt: &mut JobTracker, l: Launch) -> Option<Flight> {
            let kind = jt.jobs[l.job].kind;
            let f = self.body.launch(jt, l)?;
            self.flights.push((kind, l.job, l.task, f.slot, f.start, f.end));
            Some(f)
        }
        fn finished(&mut self, jt: &mut JobTracker, job: usize, task: u32, flight: &Flight) {
            if flight.commits {
                self.stop(jt.jobs[job].kind, job, task, jt.now());
            }
            self.body.finished(jt, job, task, flight);
        }
        fn preempted(&mut self, jt: &mut JobTracker, job: usize, task: u32, flight: &Flight) {
            self.stop(jt.jobs[job].kind, job, task, jt.now());
            self.body.preempted(jt, job, task, flight);
        }
        fn backups(
            &mut self,
            jt: &mut JobTracker,
            kind: TaskKind,
            idle: &[usize],
        ) -> Vec<(usize, u32, Flight)> {
            let out = self.body.backups(jt, kind, idle);
            self.flights.extend(out.iter().map(|&(j, t, f)| (kind, j, t, f.slot, f.start, f.end)));
            out
        }
        fn distance(&self, node: NodeId, job: usize, task: u32) -> u32 {
            self.body.distance(node, job, task)
        }
    }

    /// Slot conservation: on the library's `skewed` preset with speculation
    /// on, no primary, retry or backup overlaps another on the same slot —
    /// once with backups that win and lose races, once with every map's
    /// first attempt failing (retries, and map backups that die).
    #[test]
    fn attempts_never_overlap_on_a_slot() {
        for fail_first in [0, 1] {
            let mut config = Configuration::with_defaults();
            config.set(hl_common::config::keys::DFS_BLOCK_SIZE, 4096u64);
            config.set(hl_common::config::keys::MAPRED_REDUCE_SLOTS, 2);
            config.set(hl_common::config::keys::MAPRED_MAX_TRACKER_FAILURES, 1000u32);
            let spec = HeterogeneousClusterSpec::skewed(ClusterSpec::course_hadoop(6), 6);
            let mut cluster = MrCluster::new_heterogeneous(&spec, config).unwrap();
            cluster.now = SimTime(100_000_000);
            cluster.dfs.namenode.mkdirs("/in").unwrap();
            let (t, text) = (cluster.now, corpus(24_000));
            let put = cluster.dfs.put_with_replication(
                &mut cluster.net,
                t,
                "/in/data.txt",
                text.as_bytes(),
                None,
                6,
            );
            cluster.now = put.unwrap().completed_at;
            let mut job = Job::new(
                JobConf::new("skew").input("/in/data.txt").output("/out/skew").reduces(12),
                || WcMap,
                || WcReduce,
            );
            job.conf = job.conf.speculative_reduces(true).fail_first_attempts(fail_first);
            job.conf.spec_heartbeat = SimDuration::from_millis(100);
            job.conf.spec_cap_pct = 50;
            job.conf.reduce_cpu_per_record = SimDuration::from_micros(500);

            let mut jt = JobTracker::new(
                Box::new(FifoScheduler),
                cluster.slots(TaskKind::Map),
                cluster.slots(TaskKind::Reduce),
            );
            let now = cluster.now;
            let body = ClusterBody { cluster: &mut cluster, jobs: Vec::new() };
            let mut rec = Recorder { body, flights: Vec::new() };
            rec.body.submit(&mut jt, 0, now, &job).unwrap();
            while jt.step(&mut rec).is_some() {}
            let report = rec.body.jobs.pop().and_then(|j| j.result).unwrap().unwrap();
            assert!(!report.spec_attempts.is_empty(), "fail_first {fail_first}: no backup");
            let raced = |o| report.spec_attempts.iter().any(|a| a.outcome == o);
            assert!(fail_first > 0 || raced(SpecOutcome::Won) && raced(SpecOutcome::Killed));
            let retried = report.tasks.iter().any(|t| t.attempts > 1);
            assert_eq!(retried, fail_first > 0, "{:?}", report.tasks);

            let mut by_slot: BTreeMap<(usize, usize), Vec<(SimTime, SimTime)>> = BTreeMap::new();
            for &(kind, _, _, slot, start, end) in &rec.flights {
                by_slot.entry((kind as usize, slot)).or_default().push((start, end));
            }
            for (slot, mut spans) in by_slot {
                spans.sort();
                for w in spans.windows(2) {
                    assert!(w[1].0 >= w[0].1, "fail_first {fail_first}, slot {slot:?}: {w:?}");
                }
            }
        }
    }

    #[test]
    fn a_speculative_win_ends_the_task_early_and_the_old_end_is_ignored() {
        let mut config = Configuration::with_defaults();
        config.set(hl_common::config::keys::DFS_BLOCK_SIZE, 4096u64);
        config.set(hl_common::config::keys::MAPRED_MAP_SLOTS, 2);
        let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(4), config).unwrap();
        stage(&mut cluster, "/in/data.txt", &corpus(20_000));
        cluster.net.set_node_model(NodeId(3), DegradeModel::Static(PerfProfile::uniform(200)));
        let job = Job::new(
            JobConf::new("spec").input("/in/data.txt").output("/out/spec").speculative(true),
            || WcMap,
            || WcReduce,
        );
        let report = cluster.run_job(&job).unwrap();
        let (maps, reduces): (Vec<_>, Vec<_>) =
            report.tasks.iter().partition(|t| t.kind == TaskKind::Map);
        assert!(maps.iter().any(|t| t.speculative), "no backup won");
        // The killed primaries' `AttemptFinished` events are still queued
        // for their original, later ends; the reduces must not wait for
        // them, and nothing may retire the task a second time.
        let maps_done = maps.iter().map(|t| t.end).max().unwrap();
        assert!(reduces.iter().all(|t| t.start == maps_done), "{reduces:?} vs {maps_done:?}");
        assert_eq!(report.num_reduces(), 1);
    }

    #[test]
    fn failed_jobs_do_not_add_global_strikes() {
        let mut config = Configuration::with_defaults();
        config.set(hl_common::config::keys::DFS_BLOCK_SIZE, 4096u64);
        config.set(hl_common::config::keys::MAPRED_MAX_TRACKER_FAILURES, 1u32);
        config.set(hl_common::config::keys::MAPRED_MAX_TRACKER_BLACKLISTS, 1u32);
        let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(4), config).unwrap();
        stage(&mut cluster, "/in/data.txt", &corpus(200));
        // Every attempt fails: the job dies with attempts exhausted, and
        // its per-job blacklistings must NOT stick to the trackers — a
        // failing job is as likely the job's fault as the tracker's.
        let job = Job::new(
            JobConf::new("doomed")
                .input("/in/data.txt")
                .output("/out/doomed")
                .fail_first_attempts(100)
                .speculative(false),
            || WcMap,
            || WcReduce,
        );
        assert!(cluster.run_job(&job).is_err());
        assert!(cluster.blacklisted_trackers().is_empty());
    }
}

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
//!   host pool ([`hl_common::pool`]) when its phase opens or in its first
//!   attempt; every attempt only charges the clock for it (see
//!   [`crate::task`]);
//! * every attempt is launched by the JobTracker loop
//!   ([`crate::jobtracker`]) on a slot idle at that instant and runs stage
//!   by stage, each stage's charges booked at the instant the loop reaches
//!   it: a failed one burns its slot and its task is re-queued when the
//!   burn ends, up to `max_attempts`; a straggler gets a speculative backup
//!   on a slot no pending task wants, and whichever of the two reaches its
//!   commit first wins — the loop decides, and the engine books each
//!   attempt from the loop's report of how it ended;
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
use crate::jobtracker::{Ending, Flight, JobTracker, Launch, Next, Tally, TaskBody};
use crate::report::{JobReport, TaskKind, TaskSummary};
use crate::scheduler::{scheduler_from_config, FifoScheduler, Scheduler, SlotState};
use crate::speculate::{RunningTask, Span, SpecAttempt, SpecOutcome, Speculator, MIN_COMPLETED};
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
    // lint:allow(R9): test seam: tests/host_pool.rs forces the body pool's worker count
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
    // lint:allow(R9): test seam: tests install recording and Fair schedulers
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

    /// A tracker's state, mutable: fault injection tunes its heap model
    /// and slots.
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
    fn blacklisted_trackers(&self) -> Vec<NodeId> {
        self.blacklist_strikes
            .iter()
            .filter(|(_, &strikes)| strikes >= self.max_tracker_blacklists)
            .map(|(&n, _)| n)
            .collect()
    }

    /// Global blacklist strikes recorded against `node`.
    fn tracker_strikes(&self, node: NodeId) -> u32 {
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
    // lint:allow(R9): DistributedCache from DFS; the MovieLens tests use it
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
        self.book_tally(jt.tally);
        self.scheduler = jt.into_scheduler();
        let lost = || Err(HlError::Internal("job left the batch without a result".into()));
        results.into_iter().map(|r| r.unwrap_or_else(lost)).collect()
    }

    /// Book a batch's decision counts from the loop's tally, once. A zero
    /// is not booked: it would add a row to the metrics snapshot.
    fn book_tally(&mut self, tally: Tally) {
        let Tally { decisions, preempted, rerun } = tally;
        for (name, n) in [
            ("sched.decisions", decisions),
            ("sched.rerun", rerun),
            ("sched.preempted", preempted),
            ("sched.requeued", preempted),
        ] {
            if n > 0 {
                self.metrics.incr("jobtracker", name, n);
            }
        }
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

    /// The paper's heap-leak mechanism, run once per attempt that gets
    /// through its compute (map or reduce), at `now`: a buggy task can OOM
    /// the TaskTracker, which takes the colocated DataNode with it.
    fn charge_heap(&mut self, leaks: bool, node: NodeId, now: SimTime) -> Result<()> {
        let Some(tracker) = self.trackers.get_mut(&node) else {
            return Err(HlError::DaemonDown(format!("no tasktracker registered on {node}")));
        };
        if tracker.health.host_task(leaks) {
            self.dfs.crash_datanode(node);
            self.log.log(
                now,
                &format!("tasktracker/{node}"),
                "java.lang.OutOfMemoryError: Java heap space — daemon exiting",
            );
            return Err(HlError::TaskFailed(format!("tasktracker on {node} crashed (OOM)")));
        }
        Ok(())
    }

    /// A map attempt's read stage on `node` at `now`, as one op: the
    /// split's block through the DFS client (charged, verified,
    /// locality-aware), then its neighbours' for the boundary lines —
    /// peeked, or read when no clean replica can be. A task whose body has
    /// not run (`memo` empty) runs it here, over the bytes this read
    /// delivers. Returns when the reads end.
    fn read_split(
        &mut self,
        now: SimTime,
        job: &dyn JobCode,
        split: &InputSplit,
        memo: &mut Option<MapBody>,
        node: NodeId,
    ) -> Result<SimTime> {
        let MrCluster { dfs, net, side_files, spec, .. } = self;
        net.op(now, |net| {
            let read = dfs.read_block(net, now, split.block, Some(node), &split.path)?;
            let mut t = read.completed_at;
            let path = &split.path;
            match memo {
                // The body has run: read what it read, in its order.
                Some(body) => {
                    for &block in &body.neighbours {
                        neighbour_block(dfs, net, &mut t, block, node, path)?;
                    }
                }
                None => {
                    let codec = dfs.file_codec(path)?;
                    let own = task::logical_bytes(codec, &read.value)?;
                    let blocks = dfs.file_blocks(path)?;
                    let input = task::stitch_split(split, codec, &blocks, &own, |block| {
                        neighbour_block(dfs, net, &mut t, block, node, path)
                    })?;
                    // A decoded block is freed before the mapper runs over its copy.
                    drop(own);
                    let disk_bw = spec.node.disk_bw;
                    *memo = Some(task::map_body(job, side_files, disk_bw, split.offset, input));
                }
            }
            Ok(t)
        })
    }

    /// A reduce attempt's fetch stage on `node` at `now`: partition `r` of
    /// every committed map's output, all fetches at once (each charges its
    /// own pipes). Returns when the last one ends; the bytes fetched
    /// (compressed map output crosses framed: the combiner-style "fewer
    /// shuffle bytes" trade students measure) and of them the bytes that
    /// crossed the network; and the raw bytes to inflate before the merge.
    fn fetch(
        &mut self,
        now: SimTime,
        node: NodeId,
        r: usize,
        map_nodes: &[Option<NodeId>],
        maps: &[Option<MapBody>],
    ) -> (SimTime, u64, u64, u64) {
        let (mut end, mut moved, mut remote, mut inflate) = (now, 0, 0, 0);
        for (from, body) in map_nodes.iter().zip(maps) {
            let (Some(from), Some(MapBody { done, .. })) = (*from, body) else { continue };
            let bytes = done.output.wire_partition_bytes(r);
            if bytes > 0 && from != node {
                end = end.max(self.net.transfer(now, from, node, bytes).end);
                remote += bytes;
            }
            if done.output.wire_bytes.is_some() {
                inflate += done.output.partition_bytes(r);
            }
            moved += bytes;
        }
        (end, moved, remote, inflate)
    }

    /// A map attempt's compute stage books its output: the codec's and
    /// the spill's instruments, and the spill's file-system counters.
    fn record_map_output(&mut self, body: &MapBody, counters: &mut Counters) {
        if let Some((raw, packed)) = body.framed {
            if let Some(q) = packed.saturating_mul(10_000).checked_div(raw) {
                let bp = i64::try_from(q).unwrap_or(i64::MAX);
                self.metrics.set_gauge("jobtracker", "codec.ratio", bp);
            }
            self.metrics.incr("jobtracker", "codec.in_bytes", raw);
            self.metrics.incr("jobtracker", "codec.out_bytes", packed);
        }
        let output = &body.done.output;
        if output.spill_bytes_written > 0 {
            counters.incr_fs(FileSystemCounter::FileBytesWritten, output.spill_bytes_written);
        }
        if output.spill_bytes_read > 0 {
            counters.incr_fs(FileSystemCounter::FileBytesRead, output.spill_bytes_read);
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

    /// Write `data` to the file `path` (`hadoop fs -put`): the write
    /// starts at `now`, from no particular node, and `now` advances to its
    /// completion. The parent directory must already exist.
    pub fn put_input(&mut self, path: &str, data: &[u8]) -> Result<()> {
        let put = self.dfs.put(&mut self.net, self.now, path, data, None)?;
        self.now = put.completed_at;
        Ok(())
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
    /// Where each committed map's output lives, by task id.
    map_nodes: Vec<Option<NodeId>>,
    bodies: Bodies,
    /// The current phase's attempts of each task since it was last queued
    /// afresh (a preemption starts the count over).
    tries: Vec<u32>,
    /// Tasks of the current phase that have had a backup.
    speculated: BTreeSet<u32>,
    /// The stage state of each flight in the loop's table; an entry goes
    /// when the loop reports the flight's end ([`TaskBody::ended`]).
    live: BTreeMap<Key, Staged>,
    output_files: Vec<String>,
    result: Option<Result<JobReport>>,
}

/// What a job's tasks computed, by task id: each body runs once, and
/// every attempt of its task charges for the same result. `None` until
/// then.
#[derive(Default)]
struct Bodies {
    maps: Vec<Option<MapBody>>,
    reduces: Vec<Option<Result<ReduceBody>>>,
}

/// An attempt in the air: where it runs, how far it has got and which
/// stage comes next. What the task computed is not here: that is its body,
/// shared by every attempt.
struct Staged {
    node: NodeId,
    start: SimTime,
    /// What runs when the current stage ends.
    next: Step,
    /// The weight of each stage, in order: its unqueued service time (CPU
    /// time, or bytes at the node's nominal rates). The startup's from
    /// launch, the others once the task's body has surely run (a map's
    /// read stage, a reduce's fetch stage).
    plan: Vec<u64>,
    /// When each stage begun starts and ends; the last one is running.
    stages: Vec<Span>,
    /// File-system and shuffle counters booked so far.
    counters: Counters,
    /// Input locality (maps only).
    locality: Option<Locality>,
}

/// An attempt's key in [`RealJob::live`]: its task, and whether it is the
/// task's backup ([`Flight::backup`]). A task has at most one flight of each
/// in the air.
type Key = (u32, bool);

/// The stage an attempt runs next. A map: startup → `Read` → `Compute` →
/// `Commit`. A reduce: startup → `Fetch` → `Merge` → `Commit` (writing its
/// part file) → `Written`. A failed attempt holds its slot until its
/// failure's burn ends, then is `Burned`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Read,
    Compute,
    Fetch,
    Merge,
    Commit,
    Written,
    Burned,
}

/// The real [`TaskBody`]: user code over real bytes on the cluster, each
/// attempt run stage by stage, speculative backups on the slots the loop
/// offers. Which attempt of a task won is the loop's to say: the body keeps
/// per-attempt stage state, and books commits, re-queues and races from
/// [`TaskBody::ended`].
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
        c.log.log(submitted_at, "jobtracker", format_args!("{job_id} ({}) submitted", conf.name));

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
        let map_nodes = vec![None; splits.len()];
        let tries = vec![0; splits.len()];
        let no_maps = splits.is_empty();
        self.jobs.push(RealJob {
            batch_index,
            job,
            job_id,
            submitted_at,
            splits,
            run: JobRun::default(),
            map_nodes,
            bodies: Bodies::default(),
            tries,
            speculated: BTreeSet::new(),
            live: BTreeMap::new(),
            output_files: Vec::new(),
            result: None,
        });
        if jt.usable(TaskKind::Map, j).is_empty() {
            self.fail(jt, j, HlError::DaemonDown("no live tasktrackers".into()));
        } else if no_maps {
            self.start_reduces(jt, j);
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

    /// The job's last map committed: its reduces are runnable from this
    /// instant.
    fn start_reduces(&mut self, jt: &mut JobTracker, j: usize) {
        let (c, rj) = (&*self.cluster, &mut self.jobs[j]);
        let n = rj.job.conf().num_reduces;
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

    /// The job's last reduce committed: write the report and do the
    /// JobTracker's bookkeeping for a successful job.
    fn complete(&mut self, j: usize) {
        let c = &mut *self.cluster;
        let rj = &mut self.jobs[j];
        let run = std::mem::take(&mut rj.run);
        let ends = run.tasks.iter().filter(|t| t.kind == TaskKind::Reduce).map(|t| t.end);
        let finished_at = ends.max().unwrap_or(rj.submitted_at);
        let report = JobReport {
            job_id: rj.job_id.clone(),
            name: rj.job.conf().name.clone(),
            submitted_at: rj.submitted_at,
            finished_at,
            success: true,
            counters: run.counters,
            tasks: run.tasks,
            output_files: std::mem::take(&mut rj.output_files),
            blacklisted_trackers: run.blacklist,
            peak_mapper_buffer: run.peak_buffer,
            spec_attempts: run.spec_attempts,
        };
        rj.map_nodes = Vec::new();
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
                c.log.log(
                    at,
                    "jobtracker",
                    format_args!("tracker on {node} blacklisted cluster-wide after {n} strike(s)"),
                );
            }
        }
        c.record_job_metrics(&report);
        c.history.record(&report);
        let (now, elapsed, job_id) = (c.now, report.elapsed(), &rj.job_id);
        c.log.log(now, "jobtracker", format_args!("{job_id} completed in {elapsed}"));
        rj.result = Some(Ok(report));
    }

    /// The job failed after submission, at the loop's instant: drop what
    /// it has in the loop (each flight ends [`Ending::Aborted`]), clean its
    /// output directory and record it as FAILED.
    fn fail(&mut self, jt: &mut JobTracker, j: usize, e: HlError) {
        let now = jt.now().max(self.cluster.now);
        for (task, f) in jt.abort(j) {
            self.ended(jt, j, task, &f, Ending::Aborted);
        }
        let c = &mut *self.cluster;
        let rj = &mut self.jobs[j];
        let conf = rj.job.conf();
        c.metrics.incr("jobtracker", "jobs.failed", 1);
        c.now = now;
        let cmds = c.dfs.namenode.delete(&conf.output_path, true).unwrap_or_default();
        c.dfs.apply_commands(&mut c.net, now, &cmds);
        c.history.record_failed(&rj.job_id, &conf.name, rj.submitted_at, now);
        let job_id = &rj.job_id;
        c.log.log(now, "jobtracker", format_args!("{job_id} FAILED: {e}"));
        rj.map_nodes = Vec::new();
        rj.bodies = Bodies::default();
        rj.result = Some(Err(e));
    }

    /// Start attempt `key` of job `j`'s task of its current phase on
    /// `slot` at [`JobTracker::now`] — the task's next try, or a backup —
    /// with its startup stage, or, for an injected failure, its burn.
    /// Returns when that ends; `None` when the job failed instead.
    fn begin(&mut self, jt: &mut JobTracker, j: usize, key: Key, slot: usize) -> Option<SimTime> {
        let (now, kind, rj) = (jt.now(), jt.jobs[j].kind, &mut self.jobs[j]);
        let (conf, node, tries) =
            (rj.job.conf(), jt.slot(kind, slot).node, &mut rj.tries[key.0 as usize]);
        // A backup is a first try.
        *tries += u32::from(!key.1);
        let attempt = if key.1 { 1 } else { *tries };
        let profile = self.cluster.net.node_profile(node, now);
        let startup = PerfProfile::scale_dur(conf.task_startup, profile.cpu_mult);
        let next = if kind == TaskKind::Map { Step::Read } else { Step::Fetch };
        let (plan, stages) = (vec![startup.0], vec![(now, now + startup)]);
        let (counters, locality) = (Counters::new(), None);
        let a = Staged { node, start: now, next, plan, stages, counters, locality };
        rj.live.insert(key, a);
        if kind == TaskKind::Map && conf.fail_first_attempts >= attempt {
            let e = format!("injected failure (attempt {attempt} of task on {node})");
            return self.failed(jt, j, key, HlError::TaskFailed(e));
        }
        Some(now + startup)
    }

    /// Run the stage of job `j`'s attempt `key` that begins at `now`: book
    /// its charges and say how the attempt goes on.
    fn stage_at(&mut self, now: SimTime, kind: TaskKind, j: usize, key: Key) -> Result<Next> {
        let c = &mut *self.cluster;
        let RealJob { job, splits, map_nodes, bodies, live, .. } = &mut self.jobs[j];
        let (conf, t) = (job.conf(), key.0 as usize);
        let gone = || HlError::Internal(format!("task {t}'s attempt or body is gone"));
        let a = live.get_mut(&key).ok_or_else(gone)?;
        let (node, profile) = (a.node, c.net.node_profile(a.node, a.start));
        let (disk_bw, nic_bw) = (c.spec.node.disk_bw, c.spec.node.nic_bw);
        let end = match a.next {
            Step::Read => {
                let split = &splits[t];
                let end = c.read_split(now, *job, split, &mut bodies.maps[t], node)?;
                let body = bodies.maps[t].as_ref().ok_or_else(gone)?;
                let codec = c.dfs.file_codec(&split.path)?;
                let topo = c.net.topology();
                let locality =
                    topo.best_locality(node, &split.holders).unwrap_or(Locality::OffRack);
                let mut read = SimDuration::for_transfer(split.len, disk_bw);
                a.counters.incr_fs(FileSystemCounter::HdfsBytesRead, split.len);
                if locality != Locality::NodeLocal {
                    read += SimDuration::for_transfer(split.len, nic_bw) * 2;
                    a.counters.incr_fs(FileSystemCounter::RemoteBytesRead, split.len);
                }
                a.plan.extend([read.0, map_compute(conf, body, codec, profile, disk_bw).0]);
                a.counters.incr("Job Counters", locality_counter(locality), 1);
                a.locality = Some(locality);
                end
            }
            Step::Compute => {
                c.record_map_output(bodies.maps[t].as_ref().ok_or_else(gone)?, &mut a.counters);
                now + SimDuration(a.plan[2])
            }
            Step::Fetch => {
                // Merge, group and reduce for real — once per task.
                let side = &c.side_files;
                let body = bodies.reduces[t]
                    .get_or_insert_with(|| task::reduce_body(*job, side, disk_bw, &bodies.maps, t))
                    .as_ref()
                    .map_err(HlError::clone)?;
                let cpu = conf.reduce_cpu_per_record * body.records + body.extra_time;
                let written = body.text.len() as u64;
                let (end, moved, remote, inflate) = c.fetch(now, node, t, map_nodes, &bodies.maps);
                a.counters.incr_task(TaskCounter::ReduceShuffleBytes, moved);
                let inflate =
                    SimDuration::for_transfer(inflate, hl_codec::DECOMPRESS_BYTES_PER_SEC);
                let merge = PerfProfile::scale_dur(inflate + cpu, profile.cpu_mult);
                let [remote, written] = [(remote, nic_bw), (written, disk_bw)]
                    .map(|(bytes, bw)| SimDuration::for_transfer(bytes, bw).0);
                a.plan.extend([remote, merge.0, written]);
                end
            }
            Step::Merge => now + SimDuration(a.plan[2]),
            Step::Commit => {
                c.charge_heap(conf.leaks_memory, node, now)?;
                let text = match bodies.reduces.get(t) {
                    Some(Some(Ok(b))) if kind == TaskKind::Reduce && !b.text.is_empty() => &b.text,
                    _ => return Ok(Next::Done(true)),
                };
                // The part file, to HDFS (real bytes, charged, replicated).
                let put =
                    c.dfs.put(&mut c.net, now, &part_path(conf, t), text.as_bytes(), Some(node))?;
                a.counters.incr_fs(FileSystemCounter::HdfsBytesWritten, text.len() as u64);
                a.stages.push((now, put.completed_at));
                a.next = Step::Written;
                return Ok(Next::Commit(put.completed_at));
            }
            Step::Written => return Ok(Next::Done(true)),
            Step::Burned => return Ok(Next::Done(false)),
        };
        a.stages.push((now, end));
        a.next = match a.next {
            Step::Read => Step::Compute,
            Step::Fetch => Step::Merge,
            _ => Step::Commit,
        };
        Ok(Next::Stage(end))
    }

    /// Job `j`'s attempt `key` failed at [`JobTracker::now`]: a primary
    /// strikes its tracker and fails the job at its task's last allowed
    /// attempt (`None`). The attempt holds its slot until the failure's
    /// burn ends, no earlier than now; returns when.
    fn failed(&mut self, jt: &mut JobTracker, j: usize, key: Key, e: HlError) -> Option<SimTime> {
        let (now, kind) = (jt.now(), jt.jobs[j].kind);
        let (c, rj) = (&mut *self.cluster, &mut self.jobs[j]);
        let (conf, attempt) = (rj.job.conf(), rj.tries[key.0 as usize]);
        let a = rj.live.get_mut(&key)?;
        a.next = Step::Burned;
        let (node, burn) = (a.node, (a.start + failure_burn(conf, kind)).max(now));
        if key.1 {
            return Some(burn);
        }
        let (job_id, run, task) = (&rj.job_id, &mut rj.run, key.0);
        let name = format!("{}_{task:05}", if kind == TaskKind::Map { 'm' } else { 'r' });
        c.log.log(
            now,
            "jobtracker",
            format_args!("{job_id} {name} attempt {attempt} failed on {node}: {e}"),
        );
        if attempt >= conf.max_attempts {
            let e = format!("{job_id}: task {name} failed {attempt} attempts: {e}");
            self.fail(jt, j, HlError::JobFailed(e));
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
            jt.jobs[j].blacklist.push(node);
            run.counters.incr("Job Counters", "Trackers blacklisted", 1);
            let n = *strikes;
            c.log.log(
                now,
                "jobtracker",
                format_args!("{job_id} blacklisted tracker on {node} after {n} failed attempt(s)"),
            );
        }
        Some(burn)
    }

    /// Job `j`'s flight `f` (stage state `a`) committed its `task`: its
    /// summary, counters, output and (a map's) output location join the
    /// job, and its last commit of the phase opens the next one or
    /// completes the job.
    fn commit(&mut self, jt: &mut JobTracker, j: usize, task: u32, f: &Flight, a: &Staged) {
        let (kind, rj) = (jt.jobs[j].kind, &mut self.jobs[j]);
        let (run, t) = (&mut rj.run, task as usize);
        run.counters.merge(&a.counters);
        if let Some(Some(b)) = rj.bodies.maps.get(t).filter(|_| kind == TaskKind::Map) {
            run.counters.merge(&b.done.counters);
            run.peak_buffer = run.peak_buffer.max(b.done.peak_buffered);
            rj.map_nodes[t] = Some(a.node);
        } else if let Some(Some(Ok(b))) = rj.bodies.reduces.get(t) {
            run.counters.merge(&b.counters);
            if a.next == Step::Written {
                rj.output_files.push(part_path(rj.job.conf(), t));
            }
        }
        let (id, node, start, end, attempts) = (task, a.node, a.start, f.end, rj.tries[t]);
        let (locality, speculative) = (a.locality, f.backup);
        run.tasks.push(TaskSummary { id, kind, node, start, end, attempts, locality, speculative });
        let jip = &jt.jobs[j];
        if jip.pending.is_empty() && jip.running.is_empty() {
            match kind {
                TaskKind::Map => self.start_reduces(jt, j),
                TaskKind::Reduce => self.complete(j),
            }
        }
    }

    /// Speculative execution for job `j` at [`JobTracker::now`], on the
    /// `idle` slots it may use that no backup in `out` has taken, in node
    /// order; each backup launched joins `out`.
    ///
    /// The Speculator sees what the JobTracker's heartbeats show: tasks
    /// that have committed (their durations feed the median) and primaries
    /// still running, at the share of their work done by the last
    /// heartbeat. A proposal is validated like a scheduler decision — a bad
    /// one bumps `spec.invalid` and is refused — and the backup runs its
    /// own stages. The loop settles the race, and `ended` books it when the
    /// backup's flight ends.
    fn speculate(&mut self, jt: &mut JobTracker, j: usize, idle: &[usize], out: &mut Vec<Backup>) {
        let (jip, now) = (&jt.jobs[j], jt.now());
        let rj = &self.jobs[j];
        let (conf, kind) = (rj.job.conf(), jip.kind);
        let speculator = Speculator::from_conf(conf);
        let tasks = if kind == TaskKind::Map { rj.splits.len() } else { conf.num_reduces };
        let cap = speculator.cap(tasks);
        let committed = tasks - jip.pending.len() - jip.running.len();
        if !conf.speculative || rj.speculated.len() >= cap || committed < MIN_COMPLETED {
            return;
        }
        // The heartbeat view at `now`; no backup launched here changes it.
        let done = rj.run.tasks.iter().filter(|t| t.kind == kind);
        let mut completed: Vec<u64> = done.map(|t| t.end.since(t.start).0).collect();
        let running: Vec<RunningTask> = rj
            .live
            .iter()
            .filter(|(&(_, backup), a)| !backup && a.next != Step::Burned)
            .map(|(&(task, _), a)| RunningTask {
                task,
                node: a.node,
                start: a.start,
                progress_bp: speculator.observed_progress(now, &a.stages, &a.plan).unwrap_or(0),
            })
            .collect();
        for &slot in idle {
            let node = jt.slot(kind, slot).node;
            let alive = self.cluster.trackers.get(&node).is_some_and(|t| t.health.alive);
            let rj = &mut self.jobs[j];
            if rj.speculated.len() >= cap {
                break;
            }
            let taken = out.iter().any(|&(_, _, f)| f.slot == slot);
            if taken || !alive || jt.jobs[j].blacklist.contains(&node) {
                continue;
            }
            let proposed = speculator.propose(now, node, &mut completed, &running, &rj.speculated);
            let Some(task) = proposed else { continue };
            // The task must still be running, on another node, and have
            // had no backup.
            let valid = !rj.speculated.contains(&task)
                && running.iter().any(|r| r.task == task && r.node != node);
            if !valid {
                self.cluster.metrics.incr("jobtracker", "spec.invalid", 1);
                continue;
            }
            rj.speculated.insert(task);
            self.cluster.metrics.incr("jobtracker", "spec.launched", 1);
            if let Some(end) = self.begin(jt, j, (task, true), slot) {
                out.push((j, task, Flight::new(slot, now, end)));
            }
        }
    }

    /// The loop ran dry: whoever has no result yet was starved by the
    /// policy, or the policy made an invalid decision and the loop stopped.
    fn fail_unfinished(&mut self, jt: &mut JobTracker) {
        if jt.invalid().is_some() {
            self.cluster.metrics.incr("jobtracker", "sched.invalid", 1);
        }
        let unfinished: Vec<usize> =
            (0..self.jobs.len()).filter(|&j| self.jobs[j].result.is_none()).collect();
        for j in unfinished {
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
    /// One attempt, from [`JobTracker::now`]: its startup stage, or the
    /// burn of an injected failure.
    fn launch(&mut self, jt: &mut JobTracker, l: Launch) -> Option<SimTime> {
        self.begin(jt, l.job, (l.task, false), l.slot)
    }

    /// Runs the stages of `f` due now, up to the first that ends later,
    /// reaches its commit or ends the attempt.
    fn stage(&mut self, jt: &mut JobTracker, job: usize, task: u32, f: &Flight) -> Option<Next> {
        let (now, kind, key) = (jt.now(), jt.jobs[job].kind, (task, f.backup));
        loop {
            let next = match self.stage_at(now, kind, job, key) {
                Ok(next) => next,
                Err(e) => Next::Stage(self.failed(jt, job, key, e)?),
            };
            if !matches!(next, Next::Stage(end) if end <= now) {
                return Some(next);
            }
        }
    }

    /// The attempt leaves `live`, and the loop's report books it. A backup
    /// that committed won its race, one that failed lost it, and one that
    /// ended any other way was killed; a primary ends `Killed` only when
    /// its backup's commit killed it. The runtime of a backup that did not
    /// commit, and of a primary its backup killed, is wasted work. A
    /// commit joins the job and may close its phase. A preempted attempt
    /// books nothing more: what it would have recorded waits for its task's
    /// commit. One preempted while writing its part file leaves the file
    /// behind: it goes, and the re-run writes it again.
    fn ended(&mut self, jt: &mut JobTracker, job: usize, task: u32, f: &Flight, how: Ending) {
        let (kind, now, t) = (jt.jobs[job].kind, f.end, task as usize);
        let (c, rj) = (&mut *self.cluster, &mut self.jobs[job]);
        let Some(a) = rj.live.remove(&(task, f.backup)) else { return };
        if f.backup || how == Ending::Killed {
            let wasted = if how == Ending::Committed { 0 } else { now.since(f.start).0 };
            c.metrics.incr("jobtracker", "spec.wasted_us", wasted);
        }
        if f.backup {
            let (outcome, metric) = match how {
                Ending::Committed => (SpecOutcome::Won, "spec.won"),
                Ending::Failed => (SpecOutcome::Lost, "spec.lost"),
                _ => (SpecOutcome::Killed, "spec.killed"),
            };
            c.metrics.incr("jobtracker", metric, 1);
            let (reduce, mut end) = (kind == TaskKind::Reduce, now);
            if outcome == SpecOutcome::Won {
                let won = if reduce { "reduce" } else { "map" };
                rj.run.counters.incr("Job Counters", &format!("Speculative {won} attempts won"), 1);
                // A reduce won its race when its part-file write began.
                if a.next == Step::Written {
                    end = a.stages.last().map_or(now, |s| s.0);
                }
            }
            let (node, start) = (a.node.0, a.start);
            rj.run.spec_attempts.push(SpecAttempt { task, reduce, node, start, end, outcome });
        }
        match how {
            Ending::Committed => self.commit(jt, job, task, f, &a),
            Ending::Preempted => {
                if a.next == Step::Written {
                    let path = part_path(rj.job.conf(), t);
                    let cmds = c.dfs.namenode.delete(&path, false).unwrap_or_default();
                    c.dfs.apply_commands(&mut c.net, now, &cmds);
                }
                // The task's first flight reported, its primary, re-queues it.
                if std::mem::take(&mut rj.tries[t]) > 0 {
                    let (job_id, ran) = (&rj.job_id, now.since(f.start));
                    c.log.log(
                        now,
                        "jobtracker",
                        format_args!("{job_id} task {task} preempted after {ran}; re-queued"),
                    );
                }
            }
            _ => {}
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

    /// A map task's distance is its split's best replica locality from the
    /// node (node-local 0 < rack-local < off-rack); every map is 0
    /// everywhere when the locality-ablation arm is on.
    fn distance(&self, node: NodeId, job: usize, task: u32) -> u32 {
        if !self.cluster.locality_aware {
            return 0;
        }
        let split = self.jobs.get(job).and_then(|rj| rj.splits.get(task as usize));
        let topo = self.cluster.net.topology();
        split.and_then(|s| topo.best_locality(node, &s.holders)).map_or(u32::MAX, |l| l.distance())
    }

    /// The DFS protocol rides the loop's clock, mid-job included.
    fn advance_to(&mut self, now: SimTime) {
        self.cluster.dfs.advance_to(&mut self.cluster.net, now);
    }
}

/// Per-job state both phases write: the job report's raw material.
#[derive(Default)]
struct JobRun {
    /// Job counters: the committed attempts' and the job-level ones
    /// (blacklistings, speculative wins).
    counters: Counters,
    tasks: Vec<TaskSummary>,
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

/// What a failed attempt (a primary or a backup) burns on its slot from
/// its start: JVM startup, plus for a map the input it got through.
fn failure_burn(conf: &JobConf, kind: TaskKind) -> SimDuration {
    conf.task_startup + SimDuration::from_secs(if kind == TaskKind::Map { 10 } else { 0 })
}

/// A backup the engine launched, as [`TaskBody::backups`] returns it:
/// `(job, task, flight)`.
type Backup = (usize, u32, Flight);

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

/// A neighbouring block's stored bytes, for stitching the line that
/// crosses a split boundary. Peek is free but refuses checksum-failing
/// replicas; when every clean replica is gone, fall back to the charged,
/// verified read path (advancing `t`), which quarantines the rot and
/// errors honestly (a silent break here would truncate the boundary line
/// and corrupt output).
fn neighbour_block(
    dfs: &mut Dfs,
    net: &mut ClusterNet,
    t: &mut SimTime,
    block: BlockId,
    node: NodeId,
    path: &str,
) -> Result<Bytes> {
    if let Some(stored) = dfs.peek_block_bytes(block) {
        return Ok(stored);
    }
    let got = dfs.read_block(net, *t, block, Some(node), path)?;
    *t = got.completed_at;
    Ok(got.value)
}

/// Virtual CPU charge per combiner input record: the "increased map task
/// run time" half of the combiner trade-off.
const COMBINE_CPU_PER_RECORD: SimDuration = SimDuration::from_micros(2);

/// A map attempt's compute stage on a node at `profile`: inflating
/// compressed input, the mapper's (and combiner's) CPU, compressing its
/// output, and its spill I/O — time at the node's disk rate, not a charge
/// on its disk pipe.
fn map_compute(
    conf: &JobConf,
    body: &MapBody,
    codec: CodecId,
    profile: PerfProfile,
    disk_bw: u64,
) -> SimDuration {
    let done = &body.done;
    let cpu = |d: SimDuration| PerfProfile::scale_dur(d, profile.cpu_mult);
    let mut t = SimDuration::ZERO;
    // Compressed input: the disk and NIC moved only the stored bytes;
    // inflating them is a CPU charge on this node.
    if codec != CodecId::Null {
        let logical = body.logical_len as u64;
        t += cpu(SimDuration::for_transfer(logical, hl_codec::DECOMPRESS_BYTES_PER_SEC));
    }
    // Map-output compression is paid for with compress CPU here and
    // decompress CPU at each reducer.
    if let Some((raw, _)) = body.framed {
        t += cpu(SimDuration::for_transfer(raw, hl_codec::COMPRESS_BYTES_PER_SEC));
    }
    // Combiner invocations cost map-side CPU — the "increased map task run
    // time" students observed.
    let combine_in = done.counters.task(TaskCounter::CombineInputRecords);
    t += cpu(conf.map_cpu_per_byte * body.logical_len as u64
        + conf.map_cpu_per_record * done.records
        + COMBINE_CPU_PER_RECORD * combine_in
        + done.extra_time);
    let disk_bw = PerfProfile::scale_bw(disk_bw, profile.disk_mult).max(1);
    let out = &done.output;
    t + SimDuration::for_transfer(out.spill_bytes_written, disk_bw)
        + SimDuration::for_transfer(out.spill_bytes_read, disk_bw)
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
        cluster.put_input(path, text.as_bytes()).unwrap();
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
        // The fourth attempt fails when it is launched, after three burns
        // of `task_startup + 10 s`: the job fails then, not at submission.
        let burns = (job.conf.task_startup + SimDuration::from_secs(10)) * 3;
        assert_eq!(entry.elapsed, burns);
        let failed = cluster.log.grep("job_0001 FAILED").next().expect("a FAILED line");
        assert_eq!(failed.at, entry.submitted_at + burns);
        assert_eq!(cluster.now, failed.at);
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
            assert_eq!(cluster.history.entries().len(), 2);
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

    /// Bytes every DataNode has written so far.
    fn dn_bytes_written(cluster: &mut MrCluster) -> u64 {
        let snap = cluster.metrics_snapshot();
        (0..4u32).map(|n| snap.counter(&format!("datanode.{}", NodeId(n)), "bytes.written")).sum()
    }

    #[test]
    fn fair_min_share_preempts_a_real_reduce_and_reruns_it() {
        let (mut cluster, a_text, b_text) = contended_cluster();
        cluster.set_scheduler(Box::new(
            crate::scheduler::FairScheduler::new(SimDuration::from_secs(1)).pool("prod", 1, 2),
        ));
        // Job a's reduces hold all four reduce slots for minutes. Job b is
        // guaranteed two; it reads its input, and its reduces want slots
        // once its maps are done.
        let mut a = wc_job("a", "alice", "adhoc");
        a.conf.reduce_cpu_per_record = SimDuration::from_secs(4);
        let b = wc_job("b", "bob", "prod");
        let (t0, written_before) = (cluster.now, dn_bytes_written(&mut cluster));
        let results = cluster.run_jobs(&[(t0, &a), (t0 + SimDuration::from_secs(8), &b)]);
        let reports: Vec<JobReport> = results.into_iter().map(|r| r.unwrap()).collect();

        // Reduces of job a still running when job b's reduces have waited
        // out the timeout are killed for job b.
        let snap = cluster.metrics_snapshot();
        let preempted = snap.counter("jobtracker", "sched.preempted");
        assert!(preempted >= 2, "{preempted} preemption(s)");
        assert_eq!(snap.counter("jobtracker", "sched.requeued"), preempted);
        assert_eq!(snap.counter("jobtracker", "sched.rerun"), preempted);
        // A reduce killed before its commit stage wrote nothing: the
        // DataNodes took exactly the part files the two jobs own.
        let parts: u64 = reports
            .iter()
            .flat_map(|r| &r.output_files)
            .map(|p| cluster.dfs.namenode.namespace().file(p).unwrap().len * 3)
            .sum();
        assert_eq!(dn_bytes_written(&mut cluster) - written_before, parts);
        let reduces: Vec<_> =
            reports[0].tasks.iter().filter(|t| t.kind == TaskKind::Reduce).collect();
        assert_eq!(reduces.len(), 4, "one standing attempt per reduce");
        assert!(reduces.iter().any(|t| t.start > reports[1].submitted_at), "no reduce re-ran");
        let a_out = parse_counts(&cluster.read_output("/out/a").unwrap());
        assert_eq!(a_out, serial_counts(&a_text));
        let b_out = parse_counts(&cluster.read_output("/out/b").unwrap());
        assert_eq!(b_out, serial_counts(&b_text));
        assert!(reports[1].finished_at < reports[0].finished_at);
    }

    /// Fair keeps a starvation clock per kind: a pool starved of reduce
    /// slots is preempted for at its timeout although another pool's maps
    /// are running, whose `preemptions` call comes first at every instant.
    #[test]
    fn fair_preempts_for_a_starved_reduce_phase_while_maps_run() {
        let (mut cluster, _, _) = contended_cluster();
        stage(&mut cluster, "/in/c.txt", &corpus(300));
        cluster.set_scheduler(Box::new(
            crate::scheduler::FairScheduler::new(SimDuration::from_secs(1)).pool("prod", 1, 2),
        ));
        // Job a's reduces hold all four reduce slots for minutes; job b's
        // maps run 20 s each the whole time; job c reads a small input
        // and then wants two reduce slots.
        let mut a = wc_job("a", "alice", "adhoc");
        a.conf.reduce_cpu_per_record = SimDuration::from_secs(4);
        let mut b = wc_job("b", "bob", "batch");
        b.conf.map_cpu_per_record = SimDuration::from_millis(250);
        let c = wc_job("c", "carol", "prod");
        let t0 = cluster.now;
        let written_before = dn_bytes_written(&mut cluster);
        let batch: [(SimTime, &dyn JobCode); 3] =
            [(t0, &a), (t0 + SimDuration::from_secs(1), &b), (t0 + SimDuration::from_secs(15), &c)];
        let reports: Vec<JobReport> =
            cluster.run_jobs(&batch).into_iter().map(|r| r.unwrap()).collect();
        let b_maps_done = reports[1].tasks.iter().map(|t| t.end).max().unwrap();
        let c_reduces = reports[2].tasks.iter().filter(|t| t.kind == TaskKind::Reduce);
        let served = c_reduces.map(|t| t.start).min().unwrap();
        assert!(cluster.metrics_snapshot().counter("jobtracker", "sched.preempted") >= 2);
        assert!(served < b_maps_done, "job c waited for b's maps: {served:?} vs {b_maps_done:?}");
        // No reduce preempted before its commit stage wrote a byte.
        let parts: u64 = reports
            .iter()
            .flat_map(|r| &r.output_files)
            .map(|p| cluster.dfs.namenode.namespace().file(p).unwrap().len * 3)
            .sum();
        assert_eq!(dn_bytes_written(&mut cluster) - written_before, parts);
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

    /// A flight the loop launched, and (once it is over) when and how it
    /// ended.
    #[derive(Debug)]
    struct Recorded {
        kind: TaskKind,
        job: usize,
        task: u32,
        flight: Flight,
        how: Option<Ending>,
    }

    /// The engine's body, with every flight the loop launched written
    /// down. A flight ends when the loop reports it over, or with its job
    /// when the body aborted the job (its `launch` or `stage` answered
    /// `None`): `ClusterBody::fail` reports those flights to itself.
    struct Recorder<'a> {
        body: ClusterBody<'a>,
        flights: Vec<Recorded>,
    }

    impl Recorder<'_> {
        /// The open flights of `job` that `pick` picks end now, `how`; each
        /// has its slot free at this instant.
        fn stop(
            &mut self,
            jt: &JobTracker,
            job: usize,
            pick: impl Fn(&Recorded) -> bool,
            how: Ending,
        ) {
            let now = jt.now();
            let open = |r: &&mut Recorded| r.job == job && r.how.is_none() && pick(r);
            for r in self.flights.iter_mut().filter(open) {
                assert!(jt.slot(r.kind, r.flight.slot).free_at <= now, "{r:?} holds its slot");
                (r.flight.end, r.how) = (now, Some(how));
            }
        }
    }

    impl TaskBody for Recorder<'_> {
        fn launch(&mut self, jt: &mut JobTracker, l: Launch) -> Option<SimTime> {
            let (kind, now) = (jt.jobs[l.job].kind, jt.now());
            let Some(end) = self.body.launch(jt, l) else {
                self.stop(jt, l.job, |_| true, Ending::Aborted);
                return None;
            };
            let flight = Flight::new(l.slot, now, OPEN);
            self.flights.push(Recorded { kind, job: l.job, task: l.task, flight, how: None });
            Some(end)
        }
        fn stage(
            &mut self,
            jt: &mut JobTracker,
            job: usize,
            task: u32,
            f: &Flight,
        ) -> Option<Next> {
            let next = self.body.stage(jt, job, task, f);
            if next.is_none() {
                self.stop(jt, job, |_| true, Ending::Aborted);
            }
            next
        }
        fn ended(&mut self, jt: &mut JobTracker, job: usize, task: u32, f: &Flight, how: Ending) {
            let (kind, now) = (jt.jobs[job].kind, jt.now());
            let this = |r: &Recorded| (r.kind, r.task, r.flight.slot) == (kind, task, f.slot);
            let open = self.flights.iter().filter(|r| r.job == job && r.how.is_none() && this(r));
            assert_eq!(open.count(), 1, "({job}, {task}) on slot {} ended {how:?}", f.slot);
            assert_eq!(f.end, now);
            self.stop(jt, job, this, how);
            self.body.ended(jt, job, task, f, how);
        }
        fn backups(
            &mut self,
            jt: &mut JobTracker,
            kind: TaskKind,
            idle: &[usize],
        ) -> Vec<(usize, u32, Flight)> {
            let out = self.body.backups(jt, kind, idle);
            for &(job, task, f) in &out {
                let mut flight = Flight::new(f.slot, f.start, OPEN);
                flight.backup = true;
                self.flights.push(Recorded { kind, job, task, flight, how: None });
            }
            out
        }
        fn distance(&self, node: NodeId, job: usize, task: u32) -> u32 {
            self.body.distance(node, job, task)
        }
    }

    const OPEN: SimTime = SimTime(u64::MAX);

    /// Run `batch` on `cluster` through the loop under a [`Recorder`], and
    /// check what every run must keep: each flight ends once, with its slot
    /// free; no two flights overlap on a slot; and each backup launched is
    /// settled once, as won, lost or killed. Returns each job's result and
    /// the flights.
    fn run_recorded(
        cluster: &mut MrCluster,
        batch: &[(SimTime, &dyn JobCode)],
    ) -> (Vec<Result<JobReport>>, Vec<Recorded>) {
        let scheduler = std::mem::replace(&mut cluster.scheduler, Box::new(FifoScheduler));
        let (map_slots, reduce_slots) =
            (cluster.slots(TaskKind::Map), cluster.slots(TaskKind::Reduce));
        let mut jt = JobTracker::new(scheduler, map_slots, reduce_slots);
        let body = ClusterBody { cluster, jobs: Vec::new() };
        let mut rec = Recorder { body, flights: Vec::new() };
        for (i, &(arrival, job)) in batch.iter().enumerate() {
            rec.body.submit(&mut jt, i, arrival, job).unwrap();
        }
        while jt.step(&mut rec).is_some() {}
        let Recorder { body, flights } = rec;
        let results: Vec<_> = body.jobs.into_iter().map(|j| j.result.unwrap()).collect();
        cluster.book_tally(jt.tally);
        cluster.scheduler = jt.into_scheduler();

        assert!(flights.iter().all(|r| r.how.is_some()), "a flight never ended");
        let mut by_slot: BTreeMap<(usize, usize), Vec<(SimTime, SimTime)>> = BTreeMap::new();
        for r in &flights {
            let f = r.flight;
            by_slot.entry((r.kind as usize, f.slot)).or_default().push((f.start, f.end));
        }
        for (slot, mut spans) in by_slot {
            spans.sort();
            for w in spans.windows(2) {
                assert!(w[1].0 >= w[0].1, "slot {slot:?}: {w:?}");
            }
        }
        let spec = |name: &str| cluster.metrics.counter("jobtracker", name);
        let settled = spec("spec.won") + spec("spec.lost") + spec("spec.killed");
        assert_eq!(spec("spec.launched"), settled);
        let backups = flights.iter().filter(|r| r.flight.backup).count() as u64;
        assert_eq!(spec("spec.launched"), backups);
        (results, flights)
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
            job.conf = job.conf.fail_first_attempts(fail_first);
            job.conf.spec_heartbeat = SimDuration::from_millis(100);
            job.conf.spec_cap_pct = 50;
            job.conf.reduce_cpu_per_record = SimDuration::from_micros(500);

            let now = cluster.now;
            let (mut results, _) = run_recorded(&mut cluster, &[(now, &job)]);
            let report = results.pop().unwrap().unwrap();
            assert!(!report.spec_attempts.is_empty(), "fail_first {fail_first}: no backup");
            let raced = |o| report.spec_attempts.iter().any(|a| a.outcome == o);
            assert!(fail_first > 0 || raced(SpecOutcome::Won) && raced(SpecOutcome::Killed));
            // Each backup launched is settled once.
            let launched = cluster.metrics.counter("jobtracker", "spec.launched");
            assert_eq!(launched, report.spec_attempts.len() as u64, "fail_first {fail_first}");
            let retried = report.tasks.iter().any(|t| t.attempts > 1);
            assert_eq!(retried, fail_first > 0, "{:?}", report.tasks);
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

    /// A straggling primary whose tracker OOMs at its commit stage, after
    /// its backup launched, leaves the backup running: the backup commits
    /// the task, the job completes, and each backup launched is booked
    /// once, as won, lost or killed.
    #[test]
    fn a_primary_that_fails_after_its_backup_launched_leaves_the_backup_running() {
        let mut config = Configuration::with_defaults();
        config.set(hl_common::config::keys::DFS_BLOCK_SIZE, 4096u64);
        config.set(hl_common::config::keys::MAPRED_MAP_SLOTS, 2);
        let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(4), config).unwrap();
        let text = corpus(6_000);
        stage(&mut cluster, "/in/data.txt", &text);
        // Node 3 straggles from the start, and its tracker OOMs on the
        // first leaky task it hosts. The other nodes run their first maps
        // at full speed, then slow down: the backups they start run past
        // the failed primaries' burns.
        let slow = NodeId(3);
        cluster.net.set_node_model(slow, DegradeModel::Static(PerfProfile::uniform(4000)));
        let (from, until) = (cluster.now + SimDuration::from_millis(500), SimTime(u64::MAX));
        for n in 0..4 {
            let node = NodeId(n);
            let heap = &mut cluster.tracker_mut(node).unwrap().health.heap;
            heap.leak_per_buggy_task = if node == slow { heap.heap_limit } else { 0 };
            if node != slow {
                let during = PerfProfile::uniform(500);
                cluster.net.set_node_model(node, DegradeModel::Window { from, until, during });
            }
        }
        let mut job = Job::new(
            JobConf::new("oom").input("/in/data.txt").output("/out/oom").speculative(true),
            || WcMap,
            || WcReduce,
        );
        job.conf = job.conf.leaking(true);
        job.conf.spec_heartbeat = SimDuration::from_millis(100);
        job.conf.spec_cap_pct = 50;
        let report = cluster.run_job(&job).unwrap();

        assert!(!cluster.trackers[&slow].health.alive);
        // The backup that won is the one whose primary died.
        let mut won = report.spec_attempts.iter().filter(|a| a.outcome == SpecOutcome::Won);
        let rescued = won.next().expect("no backup won");
        let died = format!("m_{:05} attempt 1 failed on {slow}", rescued.task);
        assert_eq!(cluster.log.grep(&died).count(), 1, "{:?}", report.spec_attempts);
        assert!(report.tasks.iter().any(|t| t.id == rescued.task && t.speculative));
        let out = parse_counts(&cluster.read_output("/out/oom").unwrap());
        assert_eq!(out, serial_counts(&text));
        let snap = cluster.metrics_snapshot();
        let spec = |name: &str| snap.counter("jobtracker", name);
        let settled = spec("spec.won") + spec("spec.lost") + spec("spec.killed");
        assert_eq!(spec("spec.launched"), settled);
        assert_eq!(report.spec_attempts.len() as u64, settled);
    }

    /// Fair's min-share preemption takes a reduce whose backup is racing
    /// it: both flights end, preempted, the backup's race is booked as
    /// killed, and the task runs again from scratch.
    #[test]
    fn a_task_preempted_while_its_backup_races_ends_both_flights() {
        let (mut cluster, a_text, b_text) = contended_cluster();
        cluster.set_scheduler(Box::new(
            crate::scheduler::FairScheduler::new(SimDuration::from_secs(1)).pool("prod", 1, 4),
        ));
        // Node 3 runs job a's last reduce at a fifth of the speed: once the
        // other three commit, it gets a backup. Job b's reduces then find
        // two slots where they are owed four, and the timeout takes the
        // task (one running task, two slots) back from job a's pool.
        let slow = NodeId(3);
        cluster.net.set_node_model(slow, DegradeModel::Static(PerfProfile::uniform(2000)));
        let mut a = wc_job("a", "alice", "adhoc");
        a.conf = a.conf.speculative(true);
        a.conf.spec_heartbeat = SimDuration::from_millis(100);
        a.conf.reduce_cpu_per_record = SimDuration::from_secs(1);
        let b = wc_job("b", "bob", "prod");
        let t0 = cluster.now;
        let batch: [(SimTime, &dyn JobCode); 2] = [(t0, &a), (t0 + SimDuration::from_secs(24), &b)];
        let (results, flights) = run_recorded(&mut cluster, &batch);

        let preempted =
            |r: &&Recorded| r.kind == TaskKind::Reduce && r.how == Some(Ending::Preempted);
        let raced: Vec<&Recorded> = flights.iter().filter(preempted).collect();
        assert_eq!(raced.len(), 2, "{flights:?}");
        assert!(
            raced[0].task == raced[1].task && raced[1].flight.backup && !raced[0].flight.backup
        );
        let reports: Vec<JobReport> = results.into_iter().map(Result::unwrap).collect();
        let race = reports[0].spec_attempts.iter().find(|s| s.reduce).unwrap();
        assert_eq!((race.task, race.outcome), (raced[1].task, SpecOutcome::Killed));
        assert_eq!(race.end, raced[1].flight.end);
        let snap = cluster.metrics_snapshot();
        assert_eq!(snap.counter("jobtracker", "sched.preempted"), 1);
        assert_eq!(snap.counter("jobtracker", "sched.rerun"), 1);
        let rerun =
            reports[0].tasks.iter().find(|t| t.kind == TaskKind::Reduce && t.id == race.task);
        assert!(rerun.is_some_and(|t| t.start == race.end && t.attempts == 1 && !t.speculative));
        let a_out = parse_counts(&cluster.read_output("/out/a").unwrap());
        assert_eq!(a_out, serial_counts(&a_text));
        let b_out = parse_counts(&cluster.read_output("/out/b").unwrap());
        assert_eq!(b_out, serial_counts(&b_text));
    }

    /// A primary that fails its last allowed attempt while its backup
    /// races fails the job: the backup's flight ends with the job, its
    /// race is booked as killed, and its slot is free.
    #[test]
    fn a_job_that_fails_while_a_backup_races_settles_the_backup() {
        let mut config = Configuration::with_defaults();
        config.set(hl_common::config::keys::DFS_BLOCK_SIZE, 4096u64);
        config.set(hl_common::config::keys::MAPRED_MAP_SLOTS, 2);
        let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(4), config).unwrap();
        stage(&mut cluster, "/in/data.txt", &corpus(6_000));
        // As in the test above: node 3 straggles and its tracker OOMs on
        // the first leaky task it hosts, after the task's backup started.
        let slow = NodeId(3);
        cluster.net.set_node_model(slow, DegradeModel::Static(PerfProfile::uniform(4000)));
        let (from, until) = (cluster.now + SimDuration::from_millis(500), SimTime(u64::MAX));
        for n in 0..4 {
            let node = NodeId(n);
            let heap = &mut cluster.tracker_mut(node).unwrap().health.heap;
            heap.leak_per_buggy_task = if node == slow { heap.heap_limit } else { 0 };
            if node != slow {
                let during = PerfProfile::uniform(500);
                cluster.net.set_node_model(node, DegradeModel::Window { from, until, during });
            }
        }
        let mut job = Job::new(
            JobConf::new("oom").input("/in/data.txt").output("/out/oom").speculative(true),
            || WcMap,
            || WcReduce,
        );
        job.conf = job.conf.leaking(true);
        job.conf.spec_heartbeat = SimDuration::from_millis(100);
        job.conf.spec_cap_pct = 50;
        job.conf.max_attempts = 1;
        let now = cluster.now;
        let (mut results, flights) = run_recorded(&mut cluster, &[(now, &job)]);

        let e = results.pop().unwrap().unwrap_err().to_string();
        assert!(e.contains("failed 1 attempts"), "{e}");
        let aborted: Vec<&Recorded> =
            flights.iter().filter(|r| r.how == Some(Ending::Aborted)).collect();
        assert!(aborted.iter().any(|r| r.flight.backup), "no backup was racing: {flights:?}");
        let failed_at = aborted[0].flight.end;
        assert!(aborted.iter().all(|r| r.flight.end == failed_at));
        let spec = |name: &str| cluster.metrics.counter("jobtracker", name);
        assert!(spec("spec.killed") >= aborted.iter().filter(|r| r.flight.backup).count() as u64);
        assert_eq!(spec("jobs.failed"), 1);
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

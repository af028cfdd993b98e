//! The host pool changes how fast a job runs on the host and nothing else.
//!
//! A task's *body* (user code over the task's bytes) is computed once, when
//! its phase opens — on `hl_common::pool`'s threads when that pays, else
//! one after another on the clock's thread; a map whose blocks could not
//! be peeked then, at its first attempt's read — and the clock's thread
//! only charges for it. Two families of tests hold the engine to that:
//!
//! * **determinism**: the same cluster seed and jobs on the host's own
//!   pool, with one worker (every body inline as its phase opens) and with
//!   four give identical output bytes, job reports, metrics and event
//!   logs;
//! * **run once**: user map, combine and reduce code runs once per task,
//!   not once per attempt, under retries, speculation and preemption, and
//!   a panic in it on a worker thread comes out of `run_job` as a panic.
//!
//! CI runs this file a second time under `taskset -c 0`: on one CPU the
//! host's own pool has one worker, and the same bytes must come out.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hl_cluster::node::{ClusterSpec, HeterogeneousClusterSpec};
use hl_codec::CodecId;
use hl_common::config::{keys, Configuration};
use hl_common::hash::fnv1a;
use hl_common::prelude::*;
use hl_common::writable::Writable;
use hl_datagen::CorpusGen;
use hl_mapreduce::api::{Combiner, MapContext, Mapper, ReduceContext, Reducer};
use hl_mapreduce::job::{Job, JobConf};
use hl_mapreduce::report::TaskKind;
use hl_mapreduce::scheduler::FairScheduler;
use hl_mapreduce::{JobReport, MrCluster, SpecOutcome};

// -- WordCount whose every instance is counted ------------------------------

/// How many mapper, combiner and reducer instances the factories built:
/// one per executed task body.
#[derive(Clone, Default)]
struct Built {
    mappers: Arc<AtomicUsize>,
    combiners: Arc<AtomicUsize>,
    reducers: Arc<AtomicUsize>,
}

impl Built {
    fn counts(&self) -> (usize, usize, usize) {
        let get = |n: &AtomicUsize| n.load(Ordering::SeqCst);
        (get(&self.mappers), get(&self.combiners), get(&self.reducers))
    }
}

struct WcMap {
    /// Words the side file told this mapper to drop.
    stop: Vec<String>,
    side_file: Option<&'static str>,
}

impl Mapper for WcMap {
    type KOut = String;
    type VOut = u64;
    fn setup(&mut self, ctx: &mut MapContext<String, u64>) {
        if let Some(path) = self.side_file {
            let bytes = ctx.read_side_file(path).expect("side file registered");
            self.stop = String::from_utf8_lossy(&bytes).lines().map(str::to_string).collect();
        }
    }
    fn map(&mut self, _o: u64, line: &str, ctx: &mut MapContext<String, u64>) {
        for w in line.split_whitespace() {
            assert!(w != "PANIC", "user code blew up on {w}");
            if !self.stop.iter().any(|s| s == w) {
                ctx.emit(w.to_string(), 1);
            }
        }
    }
}

struct WcCombine;
impl Combiner for WcCombine {
    type K = String;
    type V = u64;
    fn combine(&mut self, _k: &String, values: impl IntoIterator<Item = u64>, out: &mut Vec<u64>) {
        out.push(values.into_iter().sum());
    }
}

struct WcReduce;
impl Reducer for WcReduce {
    type KIn = String;
    type VIn = u64;
    fn reduce(
        &mut self,
        key: impl std::borrow::Borrow<String>,
        values: impl IntoIterator<Item = u64>,
        ctx: &mut ReduceContext,
    ) {
        ctx.emit(key.borrow(), values.into_iter().sum::<u64>());
    }
}

type WcJob = Job<WcMap, WcReduce, WcCombine>;

/// WordCount with a combiner over `/in/<name>.txt` into `/out/<name>`.
fn wc(name: &str, reduces: usize, built: &Built) -> WcJob {
    wc_with_side_file(name, reduces, built, None)
}

fn wc_with_side_file(
    name: &str,
    reduces: usize,
    built: &Built,
    side_file: Option<&'static str>,
) -> WcJob {
    let conf = JobConf::new(name)
        .input(format!("/in/{name}.txt"))
        .output(format!("/out/{name}"))
        .reduces(reduces)
        .speculative(false);
    let Built { mappers, combiners, reducers } = built.clone();
    let count = |n: &AtomicUsize| n.fetch_add(1, Ordering::SeqCst);
    Job::with_combiner(
        conf,
        move || {
            count(&mappers);
            WcMap { stop: Vec::new(), side_file }
        },
        move || {
            count(&reducers);
            WcReduce
        },
        move || {
            count(&combiners);
            WcCombine
        },
    )
}

// -- Clusters ------------------------------------------------------------------

fn config(block: u64) -> Configuration {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, block);
    config
}

/// `None`: the pool this host gives a cluster. `Some(n)`: every phase on
/// `n` workers, however small (`1`: every body inline as its phase opens).
type Workers = Option<usize>;

fn cluster_on(spec: ClusterSpec, config: Configuration, workers: Workers) -> MrCluster {
    forced(MrCluster::new(spec, config).unwrap(), workers)
}

fn forced(mut cluster: MrCluster, workers: Workers) -> MrCluster {
    if let Some(n) = workers {
        cluster.force_body_workers(n);
    }
    cluster
}

fn stage(cluster: &mut MrCluster, name: &str, text: &str, codec: CodecId) {
    cluster.dfs.namenode.mkdirs("/in").unwrap();
    let (t, path) = (cluster.now, format!("/in/{name}.txt"));
    let put = cluster.dfs.put_compressed(&mut cluster.net, t, &path, text.as_bytes(), None, codec);
    cluster.now = put.unwrap().completed_at;
}

fn corpus(bytes: usize) -> String {
    CorpusGen::new(42).generate_bytes(bytes).0
}

// -- Determinism ---------------------------------------------------------------

/// Everything a batch leaves behind that the simulation determines: each
/// job's whole report (counters, tasks, speculative attempts, peak mapper
/// buffer) or its error, its output bytes, the cluster's metrics and a
/// hash of the event log.
fn trace(cluster: &mut MrCluster, results: &[Result<JobReport>]) -> String {
    let mut text = String::new();
    let log: Vec<String> = cluster
        .log
        .entries()
        .iter()
        .map(|e| format!("{} {} {}\n", e.at.0, e.source, e.message))
        .collect();
    text.push_str(&format!("event log {:#018x}\n", fnv1a(log.concat().as_bytes())));
    text.push_str(&format!("metrics {:#018x}\n", fnv1a(&cluster.metrics_snapshot().to_bytes())));
    for result in results {
        match result {
            Ok(report) => {
                text.push_str(&format!("{report:?}\n"));
                let out = cluster.read_output(&format!("/out/{}", report.name)).unwrap();
                text.push_str(&format!(
                    "output {:#018x} ({} bytes)\n",
                    fnv1a(out.as_bytes()),
                    out.len()
                ));
            }
            Err(e) => text.push_str(&format!("{e:?}\n")),
        }
    }
    text
}

/// Run `scenario` on the host's own pool, on one worker and on four, and
/// demand the same trace from all three.
fn same_on_every_pool(scenario: impl Fn(Workers) -> String) -> String {
    let inline = scenario(Some(1));
    for workers in [None, Some(4)] {
        let got = scenario(workers);
        assert!(
            got == inline,
            "workers = {workers:?} diverged from one worker:\n{got}\n--- vs ---\n{inline}"
        );
    }
    inline
}

fn one_job(
    workers: Workers,
    block: u64,
    input_bytes: usize,
    input_codec: CodecId,
    job: impl FnOnce(&mut MrCluster) -> WcJob,
) -> String {
    let mut cluster = cluster_on(ClusterSpec::course_hadoop(4), config(block), workers);
    let name = "wc";
    stage(&mut cluster, name, &corpus(input_bytes), input_codec);
    let job = job(&mut cluster);
    let result = cluster.run_job(&job);
    trace(&mut cluster, &[result])
}

#[test]
fn wordcount_with_and_without_a_combiner_is_the_same_on_every_pool() {
    // 256 KiB in eight splits: past the size below which the host's own
    // pool is left alone, so the `None` arm is the pool wherever the host
    // has a second core. 16 KiB in one split with one reduce, the course's
    // lab shape: one task a phase, which no pool takes.
    for (input, splits, reduces) in [(256 * 1024, 8, 3), (16 * 1024, 1, 1)] {
        for combine in [true, false] {
            let t = same_on_every_pool(|workers| {
                let built = Built::default();
                let t = one_job(workers, 32 * 1024, input, CodecId::Null, |_| {
                    let mut job = wc("wc", reduces, &built);
                    if !combine {
                        job.combiner = None;
                    }
                    job
                });
                let combiners = if combine { splits } else { 0 };
                assert_eq!(built.counts(), (splits, combiners, reduces), "workers = {workers:?}");
                t
            });
            assert!(t.contains("success: true"), "{t}");
        }
    }
}

#[test]
fn compressed_input_and_compressed_map_output_are_the_same_on_every_pool() {
    let t = same_on_every_pool(|workers| {
        one_job(workers, 8 * 1024, 96 * 1024, CodecId::Hlz, |_| {
            let mut job = wc("wc", 2, &Built::default());
            job.conf = job.conf.compress_map_output(true);
            job
        })
    });
    assert!(t.contains("success: true"), "{t}");
}

#[test]
fn a_custom_partitioner_is_the_same_on_every_pool() {
    let t = same_on_every_pool(|workers| {
        one_job(workers, 4096, 40 * 1024, CodecId::Null, |_| {
            wc("wc", 3, &Built::default()).partitioned_by(|k: &String, _, n| k.len() % n)
        })
    });
    assert!(t.contains("success: true"), "{t}");
}

#[test]
fn a_side_file_job_is_the_same_on_every_pool() {
    let t = same_on_every_pool(|workers| {
        one_job(workers, 4096, 40 * 1024, CodecId::Null, |cluster| {
            cluster.register_side_file("/cache/stop.txt", b"the\nof\nand\n".to_vec());
            wc_with_side_file("wc", 2, &Built::default(), Some("/cache/stop.txt"))
        })
    });
    assert!(t.contains("Side Files"), "{t}");
}

#[test]
fn injected_first_attempt_failures_are_the_same_on_every_pool() {
    let t = same_on_every_pool(|workers| {
        one_job(workers, 4096, 24 * 1024, CodecId::Null, |_| {
            let mut job = wc("wc", 2, &Built::default());
            job.conf = job.conf.fail_first_attempts(1);
            job
        })
    });
    assert!(t.contains("attempts: 2"), "{t}");
}

/// The golden-trace suite's skewed cluster: map and reduce backups, some
/// winning and some killed at the primary's commit.
fn speculating(workers: Workers, built: &Built) -> (MrCluster, JobReport) {
    let mut config = config(4096);
    config.set(keys::MAPRED_REDUCE_SLOTS, 2);
    config.set(keys::DFS_REPLICATION, 1u64);
    let spec = HeterogeneousClusterSpec::skewed(ClusterSpec::course_hadoop(6), 6);
    let mut cluster = forced(MrCluster::new_heterogeneous(&spec, config).unwrap(), workers);
    cluster.now = SimTime(100_000_000);
    cluster.dfs.namenode.mkdirs("/in").unwrap();
    let (text, t) = (CorpusGen::new(42).generate(24_000).0, cluster.now);
    let put = cluster.dfs.put_with_replication(
        &mut cluster.net,
        t,
        "/in/wc.txt",
        text.as_bytes(),
        None,
        6,
    );
    cluster.now = put.unwrap().completed_at;

    let mut job = wc("wc", 12, built);
    job.combiner = None;
    job.conf = job.conf.speculative(true);
    job.conf.spec_heartbeat = SimDuration::from_millis(100);
    job.conf.spec_cap_pct = 50;
    job.conf.reduce_cpu_per_record = SimDuration::from_micros(500);
    let report = cluster.run_job(&job).unwrap();
    (cluster, report)
}

#[test]
fn speculation_on_a_heterogeneous_cluster_is_the_same_on_every_pool() {
    let t = same_on_every_pool(|workers| {
        let (mut cluster, report) = speculating(workers, &Built::default());
        trace(&mut cluster, &[Ok(report)])
    });
    assert!(t.contains("Won") && t.contains("Killed"), "{t}");
}

/// Four nodes with one slot of each kind; job `a`'s reduces hold all four
/// reduce slots for minutes when job `empty` arrives in a pool guaranteed
/// two, so Fair kills reduces of `a` that have already committed and runs
/// them again.
fn preempting(workers: Workers, built: &Built) -> (MrCluster, Vec<Result<JobReport>>) {
    let mut config = config(4096);
    config.set(keys::MAPRED_MAP_SLOTS, 1);
    config.set(keys::MAPRED_REDUCE_SLOTS, 1);
    let mut cluster = cluster_on(ClusterSpec::course_hadoop(4), config, workers);
    stage(&mut cluster, "a", &corpus(48 * 1024), CodecId::Null);
    stage(&mut cluster, "empty", "", CodecId::Null);
    cluster
        .set_scheduler(Box::new(FairScheduler::new(SimDuration::from_secs(1)).pool("prod", 1, 2)));
    let mut a = wc("a", 4, built);
    (a.conf.user, a.conf.pool) = ("alice".into(), "adhoc".into());
    a.conf.reduce_cpu_per_record = SimDuration::from_secs(4);
    let mut b = wc("empty", 4, &Built::default());
    (b.conf.user, b.conf.pool) = ("bob".into(), "prod".into());
    let t0 = cluster.now;
    let results = cluster.run_jobs(&[(t0, &a), (t0 + SimDuration::from_secs(8), &b)]);
    (cluster, results)
}

#[test]
fn a_fair_batch_with_a_preemption_is_the_same_on_every_pool() {
    let t = same_on_every_pool(|workers| {
        let (mut cluster, results) = preempting(workers, &Built::default());
        let preempted = cluster.metrics_snapshot().counter("jobtracker", "sched.preempted");
        assert!(preempted >= 2, "{preempted} preemption(s)");
        trace(&mut cluster, &results)
    });
    assert!(!t.contains("JobFailed"), "{t}");
}

/// Every replica of one split's block is gone before `submit` — dead
/// DataNodes, or rot on each copy: the open can peek neither that split
/// nor the end of the previous split's last line, the charged reads
/// decide, and the job fails with the same error, log lines and quarantine
/// traffic on every pool.
#[test]
fn a_block_with_no_clean_live_replica_fails_the_same_on_every_pool() {
    for rot in [false, true] {
        let t = same_on_every_pool(|workers| {
            let mut cluster = cluster_on(ClusterSpec::course_hadoop(6), config(4096), workers);
            stage(&mut cluster, "wc", &corpus(24 * 1024), CodecId::Null);
            let (victim, _, holders) = cluster.dfs.file_blocks("/in/wc.txt").unwrap()[2].clone();
            for node in holders {
                if rot {
                    assert!(cluster.dfs.datanode_mut(node).unwrap().corrupt_block(victim, 17));
                } else {
                    cluster.dfs.crash_datanode(node);
                }
            }
            let result = cluster.run_job(&wc("wc", 2, &Built::default()));
            assert!(matches!(result, Err(HlError::JobFailed(_))), "{result:?}");
            trace(&mut cluster, &[result])
        });
        assert!(t.contains("Could not obtain block"), "{t}");
    }
}

// -- Run once ------------------------------------------------------------------

fn tasks(report: &JobReport, kind: TaskKind) -> usize {
    report.tasks.iter().filter(|t| t.kind == kind).count()
}

#[test]
fn bodies_run_once_per_task_under_retries() {
    for workers in [Some(1), Some(4)] {
        let built = Built::default();
        let mut config = config(4096);
        config.set(keys::MAPRED_MAX_TRACKER_FAILURES, 1u32);
        let mut cluster = cluster_on(ClusterSpec::course_hadoop(4), config, workers);
        stage(&mut cluster, "wc", &corpus(24 * 1024), CodecId::Null);
        // The first task each of two trackers hosts OOMs its JVM *after*
        // running: one map and (node 0 has no map slot) one reduce each
        // burn an attempt whose user code had already finished.
        for (node, map_slots) in [(NodeId(0), 0), (NodeId(1), 8)] {
            let tracker = cluster.tracker_mut(node).unwrap();
            tracker.map_slots = map_slots;
            tracker.health.heap.leak_per_buggy_task = tracker.health.heap.heap_limit;
        }
        let mut job = wc("wc", 4, &built);
        job.conf = job.conf.leaking(true);
        let report = cluster.run_job(&job).unwrap();
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            let retried = report.tasks.iter().filter(|t| t.kind == kind && t.attempts > 1).count();
            assert!(retried > 0, "no {kind:?} retried: {:?}", report.tasks);
        }
        let (maps, reduces) = (tasks(&report, TaskKind::Map), tasks(&report, TaskKind::Reduce));
        assert_eq!(built.counts(), (maps, maps, reduces), "workers = {workers:?}");
    }
}

#[test]
fn bodies_run_once_per_task_under_won_and_lost_speculative_races() {
    for workers in [Some(1), Some(4)] {
        let built = Built::default();
        let (_, report) = speculating(workers, &built);
        for reduce in [false, true] {
            for outcome in [SpecOutcome::Won, SpecOutcome::Killed] {
                let raced =
                    report.spec_attempts.iter().any(|a| a.reduce == reduce && a.outcome == outcome);
                assert!(raced, "no {outcome:?} race with reduce = {reduce}");
            }
        }
        let (maps, reduces) = (tasks(&report, TaskKind::Map), tasks(&report, TaskKind::Reduce));
        assert_eq!(built.counts(), (maps, 0, reduces), "workers = {workers:?}");
    }
}

#[test]
fn bodies_run_once_per_task_under_a_fair_preemption() {
    for workers in [Some(1), Some(4)] {
        let built = Built::default();
        let (mut cluster, results) = preempting(workers, &built);
        let rerun = cluster.metrics_snapshot().counter("jobtracker", "sched.rerun");
        assert!(rerun >= 2, "{rerun} re-run(s)");
        let report = results[0].as_ref().unwrap();
        let (maps, reduces) = (tasks(report, TaskKind::Map), tasks(report, TaskKind::Reduce));
        assert_eq!(built.counts(), (maps, maps, reduces), "workers = {workers:?}");
    }
}

#[test]
fn a_user_code_panic_comes_out_of_run_job_as_that_panic() {
    for workers in [Some(1), Some(4)] {
        let mut cluster = cluster_on(ClusterSpec::course_hadoop(4), config(4096), workers);
        let text = corpus(24 * 1024);
        // Deep in the fifth of six splits.
        let (head, tail) = text.split_at(text.len() * 3 / 4);
        stage(&mut cluster, "wc", &format!("{head} PANIC {tail}"), CodecId::Null);
        let job = wc("wc", 2, &Built::default());
        let caught = catch_unwind(AssertUnwindSafe(|| cluster.run_job(&job).map(|r| r.success)));
        let payload = caught.expect_err("the job must not return");
        let message = payload.downcast_ref::<String>().expect("a formatted message");
        assert_eq!(message, "user code blew up on PANIC", "workers = {workers:?}");
    }
}

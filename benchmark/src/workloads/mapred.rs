//! The three large MapReduce workloads — `wc-shuffle`, `wc-combiner` and
//! `hs-codec` — which share one shape: stage one 32 MiB file on a fresh
//! 8-node cluster, then run the same job (or job suite) once per iteration
//! and check its output.

use std::collections::BTreeMap;

use hl_codec::CodecId;
use hl_common::config::keys;
use hl_common::prelude::*;
use hl_common::topology::Locality;
use hl_datagen::CorpusGen;
use hl_mapreduce::api::{Combiner, Mapper, NoCombiner, Reducer, SideFiles};
use hl_mapreduce::job::Job;
use hl_mapreduce::local::LocalRunner;
use hl_mapreduce::report::TaskKind;
use hl_mapreduce::{JobReport, MrCluster};
use hl_workloads::terasort::{CountReducer, TokenMapper};
use hl_workloads::tpcxhs::{expected_digest, hsgen, hssort, hsvalidate, parse_verdict};
use hl_workloads::wordcount::{wordcount, wordcount_combiner, WcMapper, WcReducer};

use super::{
    charged_io_bytes, course_cluster, namenode_rpcs, repeat_setup, timed_loop, Body, EndToEnd,
    Layers, RunConfig, MIB,
};
use crate::calibrate::Calibrator;
use crate::layers;
use crate::report::Checks;
use crate::spans::Tracer;
use crate::stats;

/// Logical input size of the three workloads.
const INPUT_BYTES: u64 = 32 * 1024 * 1024;
/// Map-side sort buffer (`io.sort`): small enough that every map spills.
const SORT_BUFFER_BYTES: u64 = 1024 * 1024;
/// Reduce tasks.
const REDUCES: usize = 4;
/// DFS path of the staged input.
const INPUT_PATH: &str = "/in/input.txt";

/// A freshly staged cluster and what staging cost.
pub struct Staged<M, R, C>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
    C: Combiner<K = M::KOut, V = M::VOut>,
{
    /// The cluster with the input file in its DFS.
    pub cluster: MrCluster,
    /// The input's logical bytes.
    pub input: Vec<u8>,
    /// The job to run each iteration (its output path is a template).
    pub job: Job<M, R, C>,
    /// Host seconds the generator took.
    pub generate_s: f64,
    /// Host seconds the staging `put` took.
    pub put_s: f64,
    /// Simulated µs the staging `put` took.
    pub put_sim_us: u64,
}

/// The same job writing to `output`.
pub fn job_with_output<M, R, C>(base: &Job<M, R, C>, output: &str) -> Job<M, R, C>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
    C: Combiner<K = M::KOut, V = M::VOut>,
{
    Job {
        conf: base.conf.clone().output(output),
        mapper: base.mapper.clone(),
        reducer: base.reducer.clone(),
        combiner: base.combiner.clone(),
        partitioner: base.partitioner.clone(),
    }
}

/// A fresh course cluster with the given block size.
pub fn new_cluster(tracer: &mut Tracer, block_bytes: u64) -> Result<MrCluster> {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, block_bytes);
    config.set(keys::DFS_REPLICATION, 3u64);
    let (cluster, _) = tracer.timed("MrCluster::new", || MrCluster::new(course_cluster(), config));
    cluster
}

/// The simulated phase vector visible from outside: what `JobReport.tasks`
/// says about where a job's makespan went.
#[derive(Default)]
pub struct SimPhases {
    launch_wait_us: Vec<f64>,
    map_phase_us: Vec<f64>,
    reduce_phase_us: Vec<f64>,
    map_task_us: Vec<f64>,
    maps: usize,
    node_local: usize,
}

impl SimPhases {
    /// Fold one job's report in.
    pub fn add(&mut self, report: &JobReport) {
        let span = |kind: TaskKind| {
            let tasks = report.tasks.iter().filter(move |t| t.kind == kind);
            let start = tasks.clone().map(|t| t.start).min()?;
            let end = tasks.map(|t| t.end).max()?;
            Some((start, end))
        };
        if let Some((start, end)) = span(TaskKind::Map) {
            self.launch_wait_us.push(start.since(report.submitted_at).as_micros() as f64);
            self.map_phase_us.push(end.since(start).as_micros() as f64);
        }
        if let Some((start, end)) = span(TaskKind::Reduce) {
            self.reduce_phase_us.push(end.since(start).as_micros() as f64);
        }
        for t in report.tasks.iter().filter(|t| t.kind == TaskKind::Map) {
            self.map_task_us.push(t.duration().as_micros() as f64);
            self.maps += 1;
            self.node_local += usize::from(t.locality == Some(Locality::NodeLocal));
        }
    }

    /// Publish means over the jobs added (one job on the large workloads).
    pub fn publish(&self, layers: &mut Layers) {
        let mean =
            |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
        layers.set("mapreduce.engine.sim_launch_wait_us", mean(&self.launch_wait_us));
        layers.set("mapreduce.engine.sim_map_phase_us", mean(&self.map_phase_us));
        layers.set("mapreduce.engine.sim_reduce_phase_us", mean(&self.reduce_phase_us));
        layers.set("mapreduce.engine.sim_map_task_us_p50", stats::median(&self.map_task_us));
        layers.set(
            "mapreduce.engine.sim_map_task_us_max",
            self.map_task_us.iter().copied().fold(0.0, f64::max),
        );
        if self.maps > 0 {
            layers.set(
                "mapreduce.engine.data_local_share",
                self.node_local as f64 / self.maps as f64,
            );
        }
    }
}

/// Exact counts the JobTracker kept over `jobs` jobs, as deltas between two
/// cluster-wide snapshots.
pub fn publish_job_counters(
    layers: &mut Layers,
    before: &hl_metrics::registry::MetricsSnapshot,
    after: &hl_metrics::registry::MetricsSnapshot,
    jobs: u64,
) {
    let delta = |name: &str| {
        after.counter("jobtracker", name).saturating_sub(before.counter("jobtracker", name)) as f64
    };
    layers.set("mapreduce.sortbuf.spills", delta("spill.count"));
    layers.set("mapreduce.sortbuf.spill_bytes", delta("spill.bytes"));
    layers.set("mapreduce.merge.passes", delta("merge.passes"));
    layers.set("mapreduce.merge.sim_bytes", delta("merge.bytes"));
    layers.set("mapreduce.engine.shuffle_bytes", delta("shuffle.bytes"));
    layers.set("mapreduce.scheduler.decisions", delta("sched.decisions"));
    layers.set("mapreduce.speculate.launched", delta("spec.launched"));
    layers.set("mapreduce.speculate.wasted_us", delta("spec.wasted_us"));
    let rpcs = namenode_rpcs(after).saturating_sub(namenode_rpcs(before));
    layers.set("dfs.namenode.rpcs_per_job", rpcs as f64 / jobs.max(1) as f64);
}

/// What differs between the three workloads.
trait Case {
    type M: Mapper;
    type R: Reducer<KIn = <Self::M as Mapper>::KOut, VIn = <Self::M as Mapper>::VOut>;
    type C: Combiner<K = <Self::M as Mapper>::KOut, V = <Self::M as Mapper>::VOut>;

    /// Generate the input, stand the cluster up, stage the file.
    fn stage(
        &mut self,
        cfg: &RunConfig,
        tracer: &mut Tracer,
    ) -> Result<Staged<Self::M, Self::R, Self::C>>;

    /// Once, after staging and before the first job (the reference run).
    fn prepare(
        &mut self,
        _staged: &Staged<Self::M, Self::R, Self::C>,
        _tracer: &mut Tracer,
        _layers: &mut Layers,
    ) -> Result<()> {
        Ok(())
    }

    /// After each main job: fetch and check the output. Returns the
    /// simulated time at which the job (suite) finished.
    fn verify(
        &mut self,
        cluster: &mut MrCluster,
        tracer: &mut Tracer,
        report: &JobReport,
        iteration: u32,
        checks: &mut Checks,
    ) -> Result<SimTime>;
}

/// Stage a corpus as plain text with the workload's block and sort sizes.
fn stage_text<M, R, C>(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    block_bytes: u64,
    generate: impl FnOnce(usize) -> String,
    codec: CodecId,
    job: impl FnOnce(&str) -> Job<M, R, C>,
) -> Result<Staged<M, R, C>>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
    C: Combiner<K = M::KOut, V = M::VOut>,
{
    let bytes = usize::try_from(cfg.scaled(INPUT_BYTES, 64 * 1024)).unwrap_or(usize::MAX);
    let (text, generate_s) = tracer.timed("datagen.corpus", || generate(bytes));
    let mut cluster = new_cluster(tracer, cfg.scaled(block_bytes, 8 * 1024))?;
    cluster.dfs.namenode.mkdirs("/in")?;
    let t0 = cluster.now;
    let (put, put_s) = tracer.timed("Dfs::put", || {
        cluster.dfs.put_compressed(&mut cluster.net, t0, INPUT_PATH, text.as_bytes(), None, codec)
    });
    cluster.now = put?.completed_at;
    let (mut job, _) = tracer.timed("Job::new", || job(&text));
    job.conf = job.conf.sort_buffer(
        usize::try_from(cfg.scaled(SORT_BUFFER_BYTES, 4 * 1024)).unwrap_or(usize::MAX),
    );
    Ok(Staged {
        put_sim_us: cluster.now.since(t0).as_micros(),
        cluster,
        input: text.into_bytes(),
        job,
        generate_s,
        put_s,
    })
}

/// `wc-shuffle` and `wc-combiner`: wordcount over a Zipf corpus, checked
/// line-for-line against `LocalRunner::serial`.
struct WordCount<C: Combiner<K = String, V = u64>> {
    job: fn(&str, &str, usize) -> Job<WcMapper, WcReducer, C>,
    reference: String,
}

impl<C: Combiner<K = String, V = u64>> Case for WordCount<C> {
    type M = WcMapper;
    type R = WcReducer;
    type C = C;

    fn stage(
        &mut self,
        cfg: &RunConfig,
        tracer: &mut Tracer,
    ) -> Result<Staged<WcMapper, WcReducer, C>> {
        stage_text(
            cfg,
            tracer,
            4 * 1024 * 1024,
            |bytes| CorpusGen::new(cfg.seed).generate_bytes(bytes).0,
            CodecId::Null,
            |_| (self.job)(INPUT_PATH, "/out/template", REDUCES),
        )
    }

    fn prepare(
        &mut self,
        staged: &Staged<WcMapper, WcReducer, C>,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<()> {
        let inputs = [("input.txt".to_string(), staged.input.clone())];
        let (local, s) = tracer.timed("LocalRunner::serial", || {
            LocalRunner::serial().run(&staged.job, &inputs, &SideFiles::new())
        });
        self.reference = local?.output.join("\n") + "\n";
        layers.set_rate("mapreduce.local.serial_mib_s", staged.input.len() as f64 / MIB, s);
        Ok(())
    }

    fn verify(
        &mut self,
        cluster: &mut MrCluster,
        tracer: &mut Tracer,
        report: &JobReport,
        iteration: u32,
        checks: &mut Checks,
    ) -> Result<SimTime> {
        let dir = output_dir(report);
        let (text, _) = tracer.timed("read_output", || cluster.read_output(&dir));
        let text = text?;
        checks.check(report.success && text == self.reference, || {
            format!(
                "iteration {iteration}: {} output ({} bytes) differs from the LocalRunner reference ({} bytes)",
                report.name,
                text.len(),
                self.reference.len()
            )
        });
        Ok(report.finished_at)
    }
}

/// The directory a job's part files live in.
fn output_dir(report: &JobReport) -> String {
    report
        .output_files
        .first()
        .and_then(|f| f.rsplit_once('/'))
        .map(|(dir, _)| dir.to_string())
        .unwrap_or_default()
}

/// `hs-codec`: hsgen → hssort → hsvalidate on Hlz-framed input, both jobs
/// with compressed map output, certified by the validator's digest.
struct HsCodec {
    truth: BTreeMap<String, u64>,
}

impl Case for HsCodec {
    type M = TokenMapper;
    type R = CountReducer;
    type C = NoCombiner<String, u64>;

    fn stage(
        &mut self,
        cfg: &RunConfig,
        tracer: &mut Tracer,
    ) -> Result<Staged<TokenMapper, CountReducer, Self::C>> {
        // 1 MiB blocks so the compressed file still yields >= 8 maps. The
        // job is built here because hssort's sampler reads the corpus.
        let truth = &mut self.truth;
        stage_text(
            cfg,
            tracer,
            1024 * 1024,
            |bytes| {
                // The generator's exact counts are the "expected database".
                let (text, counts) = hsgen(cfg.seed, bytes / 9);
                *truth = counts;
                text
            },
            CodecId::Hlz,
            |corpus| {
                let mut job = hssort(INPUT_PATH, "/out/template", corpus, REDUCES);
                job.conf = job.conf.compress_map_output(true);
                job
            },
        )
    }

    fn verify(
        &mut self,
        cluster: &mut MrCluster,
        tracer: &mut Tracer,
        report: &JobReport,
        iteration: u32,
        checks: &mut Checks,
    ) -> Result<SimTime> {
        let sorted_dir = output_dir(report);
        let out_dir = format!("{sorted_dir}-validated");
        let mut validate = hsvalidate(&sorted_dir, &out_dir);
        validate.conf = validate.conf.compress_map_output(true);
        let (val_report, _) = tracer.timed("run_job.hsvalidate", || cluster.run_job(&validate));
        let val_report = val_report?;
        let (text, _) = tracer.timed("read_output", || cluster.read_output(&out_dir));
        let lines: Vec<String> = text?.lines().map(str::to_string).collect();
        let verdict = parse_verdict(&lines);
        let (records, crc_sum) = expected_digest(&self.truth);
        let ok = verdict
            .as_ref()
            .is_some_and(|v| v.sorted && v.records == records && v.crc_sum == crc_sum);
        checks.check(report.success && val_report.success && ok, || {
            format!(
                "iteration {iteration}: hsvalidate verdict {verdict:?}, expected {records} records crc {crc_sum}"
            )
        });
        Ok(val_report.finished_at)
    }
}

/// `wc-shuffle`.
pub fn wc_shuffle(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Body> {
    run_case(cfg, tracer, WordCount { job: wordcount, reference: String::new() })
}

/// `wc-combiner`.
pub fn wc_combiner(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Body> {
    run_case(cfg, tracer, WordCount { job: wordcount_combiner, reference: String::new() })
}

/// `hs-codec`.
pub fn hs_codec(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Body> {
    run_case(cfg, tracer, HsCodec { truth: BTreeMap::new() })
}

fn run_case<K: Case>(cfg: &RunConfig, tracer: &mut Tracer, mut case: K) -> Result<Body> {
    let mut layers = Layers::default();
    let mut checks = Checks::default();

    let mut calibrator = Calibrator::new();
    let (mut staged, setups) =
        repeat_setup(cfg, tracer, &mut calibrator, |tracer| case.stage(cfg, tracer))?;
    let input_mib = staged.input.len() as f64 / MIB;
    let framed = staged.cluster.dfs.file_codec(INPUT_PATH)? != CodecId::Null;
    layers.set_rate("datagen.corpus_mib_s", input_mib, staged.generate_s);
    let (put_rate, put_sim) = if framed {
        ("dfs.client.put_codec_mib_s", "dfs.client.put_codec_sim_us")
    } else {
        ("dfs.client.put_mib_s", "dfs.client.put_sim_us")
    };
    layers.set_rate(put_rate, input_mib, staged.put_s);
    layers.set(put_sim, staged.put_sim_us as f64);
    let after_staging = staged.cluster.metrics_snapshot();
    layers.set(
        "dfs.stored_bytes_per_user_byte",
        after_staging.counter_across_daemons("bytes.written") as f64 / staged.input.len() as f64,
    );

    case.prepare(&staged, tracer, &mut layers)?;

    // One iteration: the job, then fetching and checking its output.
    struct Iteration {
        run_job_s: f64,
        report: JobReport,
        finished_at: SimTime,
    }
    let iteration = |staged: &mut Staged<K::M, K::R, K::C>,
                     case: &mut K,
                     tracer: &mut Tracer,
                     checks: &mut Checks,
                     i: u32|
     -> Result<Iteration> {
        tracer.iteration = i;
        let job = job_with_output(&staged.job, &format!("/out/run-{i:03}"));
        let open = tracer.begin("iteration");
        let (report, run_job_s) = tracer.timed("run_job", || staged.cluster.run_job(&job));
        let report = report?;
        let finished_at = case.verify(&mut staged.cluster, tracer, &report, i, checks)?;
        tracer.end(open);
        Ok(Iteration { run_job_s, report, finished_at })
    };

    // Warm-up on the freshly staged cluster: the sim clock is read here.
    let warm = iteration(&mut staged, &mut case, tracer, &mut checks, 0)?;
    let (warm_report, warm_done) = (warm.report, warm.finished_at);
    let after_warmup = staged.cluster.metrics_snapshot();
    let sim_makespan_us = warm_done.since(warm_report.submitted_at).as_micros() as f64;
    let sim_io = charged_io_bytes(&after_warmup).saturating_sub(charged_io_bytes(&after_staging));
    let mut phases = SimPhases::default();
    phases.add(&warm_report);
    phases.publish(&mut layers);
    let jobs = after_warmup
        .counter("jobtracker", "jobs.completed")
        .saturating_sub(after_staging.counter("jobtracker", "jobs.completed"));
    publish_job_counters(&mut layers, &after_staging, &after_warmup, jobs);

    let mut run_job_s = Vec::new();
    let iterations =
        timed_loop(cfg, cfg.seconds, u32::MAX, tracer, &mut calibrator, |tracer, i| {
            let it = iteration(&mut staged, &mut case, tracer, &mut checks, i)?;
            run_job_s.push(it.run_job_s);
            Ok(())
        })?;

    if cfg.traced {
        let mut replay = layers::JobReplay::default();
        layers::replay_job(tracer, &staged.job, &staged.cluster, &staged.input, &mut replay)?;
        replay.publish(&mut layers, staged.job.combiner.is_some());
        let read_rate =
            if framed { "dfs.client.read_codec_mib_s" } else { "dfs.client.read_mib_s" };
        layers.set_rate(read_rate, replay.read_bytes as f64 / MIB, replay.read_s);
        layers.set_ledger(stats::median(&run_job_s), replay.busy_s());

        layers::checksum(tracer, &mut layers, &[&staged.input]);
        if framed || staged.job.conf.compress_map_output {
            layers::codec(tracer, &mut layers, &[&staged.input])?;
        }
        layers::network_charges(tracer, &mut layers, &staged.cluster.spec, 300_000);
    }

    Ok(Body {
        end_to_end: EndToEnd {
            setups,
            iterations,
            work_unit: "input MiB",
            work_per_iteration: input_mib,
            sim_makespan_us,
            sim_io_bytes_per_input_byte: sim_io as f64 / staged.input.len() as f64,
        },
        layers,
        checks,
    })
}

//! `small-jobs`: 2000 tiny jobs on one long-lived cluster. Each job stages
//! a 64 KiB file, runs `wordcount_combiner` with two reduces and reads the
//! output back, so the data layers are idle and the fixed per-job cost in
//! the engine, the scheduler, NameNode RPCs and the metrics registry is
//! everything. One iteration is one batch of 100 jobs.

use hl_common::prelude::*;
use hl_datagen::CorpusGen;
use hl_mapreduce::api::SideFiles;
use hl_mapreduce::local::LocalRunner;
use hl_mapreduce::MrCluster;
use hl_workloads::wordcount::wordcount_combiner;

use super::mapred::{job_with_output, new_cluster, publish_job_counters, SimPhases};
use super::{
    charged_io_bytes, repeat_setup, timed_loop, Body, EndToEnd, Layers, RunConfig, MIB,
    MIN_TIMED_ITERATIONS,
};
use crate::calibrate::Calibrator;
use crate::layers;
use crate::report::Checks;
use crate::spans::Tracer;
use crate::stats;

/// Jobs per batch (one iteration).
const BATCH_JOBS: u64 = 100;
/// Timed batches per second of `--seconds`: 20 batches, 2000 jobs, at the
/// published 10 s. Per-job cost grows as the cluster's namespace and job
/// history grow, so the batch count is fixed by the budget rather than by
/// the clock — a faster build must not be handed extra, slower batches.
const BATCHES_PER_SECOND: f64 = 2.0;
/// Jobs whose data path the traced run replays (after one cold replay that
/// is thrown away): a single 64 KiB replay is mostly cold-cache noise.
const REPLAYED_JOBS: usize = 20;
/// Logical bytes each job reads.
const JOB_INPUT_BYTES: usize = 64 * 1024;
/// DFS block size: four maps per job.
const BLOCK_BYTES: u64 = 16 * 1024;
/// Reduce tasks per job.
const REDUCES: usize = 2;

/// One distinct input per job of a batch, reused across batches.
struct Staged {
    cluster: MrCluster,
    pool: Vec<Vec<u8>>,
    generate_s: f64,
}

fn setup(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Staged> {
    let jobs = cfg.scaled(BATCH_JOBS, 2);
    let (pool, generate_s) = tracer.timed("datagen.corpus", || {
        (0..jobs)
            .map(|j| {
                CorpusGen::new(cfg.seed.wrapping_add(j))
                    .generate_bytes(JOB_INPUT_BYTES)
                    .0
                    .into_bytes()
            })
            .collect::<Vec<_>>()
    });
    let mut cluster = new_cluster(tracer, BLOCK_BYTES)?;
    cluster.dfs.namenode.mkdirs("/in")?;
    Ok(Staged { cluster, pool, generate_s })
}

/// What one batch measured.
struct Batch {
    /// Host seconds per job: stage + run + read back.
    job_s: Vec<f64>,
    /// Host seconds of each `run_job` call alone.
    run_job_s: Vec<f64>,
    /// Host seconds of each staging `put`.
    put_s: Vec<f64>,
    /// Simulated latency of each job, µs.
    sim_job_us: Vec<f64>,
}

/// Run the workload.
pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Body> {
    let mut layers = Layers::default();
    let mut checks = Checks::default();

    let mut calibrator = Calibrator::new();
    let (Staged { mut cluster, pool, generate_s }, setups) =
        repeat_setup(cfg, tracer, &mut calibrator, |tracer| setup(cfg, tracer))?;
    let pool_bytes: usize = pool.iter().map(Vec::len).sum();
    layers.set_rate("datagen.corpus_mib_s", pool_bytes as f64 / MIB, generate_s);

    // The reference answers, from the serial local runner.
    let template = wordcount_combiner("/in/template", "/out/template", REDUCES);
    let open = tracer.begin("LocalRunner::serial");
    let mut references = Vec::with_capacity(pool.len());
    for input in &pool {
        let inputs = [("input.txt".to_string(), input.clone())];
        let local = LocalRunner::serial().run(&template, &inputs, &SideFiles::new())?;
        references.push(local.output.join("\n") + "\n");
    }
    let reference_s = tracer.end(open);
    layers.set_rate("mapreduce.local.serial_mib_s", pool_bytes as f64 / MIB, reference_s);

    let mut phases = SimPhases::default();
    let mut next_job = 0u64;
    let mut batch = |cluster: &mut MrCluster,
                     tracer: &mut Tracer,
                     checks: &mut Checks,
                     phases: Option<&mut SimPhases>|
     -> Result<Batch> {
        let mut phases = phases;
        let mut out = Batch {
            job_s: Vec::new(),
            run_job_s: Vec::new(),
            put_s: Vec::new(),
            sim_job_us: Vec::new(),
        };
        let open = tracer.begin("iteration");
        for (input, reference) in pool.iter().zip(&references) {
            let n = next_job;
            next_job += 1;
            let in_path = format!("/in/job-{n:05}.txt");
            let mut job = job_with_output(&template, &format!("/out/job-{n:05}"));
            job.conf.input_paths = vec![in_path.clone()];

            let job_open = tracer.begin("job");
            let now = cluster.now;
            let (put, put_s) = tracer.timed("Dfs::put", || {
                cluster.dfs.put(&mut cluster.net, now, &in_path, input, None)
            });
            cluster.now = put?.completed_at;
            out.put_s.push(put_s);
            let (report, run_s) = tracer.timed("run_job", || cluster.run_job(&job));
            let report = report?;
            let (text, _) =
                tracer.timed("read_output", || cluster.read_output(&job.conf.output_path));
            let text = text?;
            out.job_s.push(tracer.end(job_open));
            out.run_job_s.push(run_s);
            out.sim_job_us.push(report.elapsed().as_micros() as f64);
            checks.check(report.success && text == *reference, || {
                format!("job {n}: output differs from the LocalRunner reference")
            });
            if let Some(p) = phases.as_deref_mut() {
                p.add(&report);
            }
        }
        tracer.end(open);
        Ok(out)
    };

    // Warm-up batch on the fresh cluster: the sim clock is read here.
    let before = cluster.metrics_snapshot();
    let warm = batch(&mut cluster, tracer, &mut checks, Some(&mut phases))?;
    let after = cluster.metrics_snapshot();
    let jobs_per_batch = warm.job_s.len() as u64;
    let sim_makespan_us = warm.sim_job_us.iter().sum::<f64>() / warm.sim_job_us.len().max(1) as f64;
    let sim_io = charged_io_bytes(&after).saturating_sub(charged_io_bytes(&before));
    phases.publish(&mut layers);
    publish_job_counters(&mut layers, &before, &after, jobs_per_batch);
    layers.set(
        "dfs.stored_bytes_per_user_byte",
        after.counter_across_daemons("bytes.written") as f64 / pool_bytes as f64,
    );

    // The clock only stops a run that is taking three times its budget.
    let batches = (cfg.seconds * BATCHES_PER_SECOND).ceil() as u32;
    let mut job_s = Vec::new();
    let mut run_job_s = Vec::new();
    let mut put_s = Vec::new();
    let max_batches = batches.max(MIN_TIMED_ITERATIONS);
    let budget_s = cfg.seconds * 3.0;
    let iterations =
        timed_loop(cfg, budget_s, max_batches, tracer, &mut calibrator, |tracer, _| {
            let b = batch(&mut cluster, tracer, &mut checks, None)?;
            job_s.extend(b.job_s);
            run_job_s.extend(b.run_job_s);
            put_s.extend(b.put_s);
            Ok(())
        })?;

    if cfg.traced {
        layers.set("mapreduce.engine.job_ms_p50", stats::median(&job_s) * 1e3);
        layers.set("mapreduce.engine.job_ms_p95", stats::percentile(&job_s, 95.0) * 1e3);
        if let (Some(first), Some(last)) = (iterations.first(), iterations.last()) {
            layers.set("mapreduce.engine.batch_growth_ratio", last.raw_s / first.raw_s);
        }

        // Replay the data path of the first jobs' inputs (job n read pool
        // entry n): what it does not explain of `run_job_s` is per-job
        // overhead in the engine, the scheduler, the NameNode and metrics.
        let mut replay = layers::JobReplay::default();
        let replayed = REPLAYED_JOBS.min(pool.len() - 1);
        for (n, input) in pool.iter().enumerate().take(replayed + 1) {
            let mut job = job_with_output(&template, "/out/replay");
            job.conf.input_paths = vec![format!("/in/job-{n:05}.txt")];
            if n == 0 {
                layers::replay_job(
                    tracer,
                    &job,
                    &cluster,
                    input,
                    &mut layers::JobReplay::default(),
                )?;
            } else {
                layers::replay_job(tracer, &job, &cluster, input, &mut replay)?;
            }
        }
        replay.publish(&mut layers, true);
        layers.set_rate("dfs.client.read_mib_s", replay.read_bytes as f64 / MIB, replay.read_s);
        let mean_input_mib = pool_bytes as f64 / pool.len() as f64 / MIB;
        layers.set_rate("dfs.client.put_mib_s", mean_input_mib, stats::median(&put_s));
        layers.set_ledger(stats::median(&run_job_s), replay.busy_s() / replayed as f64);

        let inputs: Vec<&[u8]> = pool.iter().map(Vec::as_slice).collect();
        layers::checksum(tracer, &mut layers, &inputs);
        layers::network_charges(tracer, &mut layers, &cluster.spec, 300_000);
    }

    Ok(Body {
        end_to_end: EndToEnd {
            setups,
            iterations,
            work_unit: "jobs",
            work_per_iteration: jobs_per_batch as f64,
            sim_makespan_us,
            sim_io_bytes_per_input_byte: sim_io as f64 / pool_bytes as f64,
        },
        layers,
        checks,
    })
}

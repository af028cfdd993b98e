//! The benchmark's contract: workload names, end-to-end metrics with their
//! direction and regression bound, and the per-layer metric names.
//!
//! `BENCHMARK.json` at the repository root is the published copy of these
//! tables; `tests/contract.rs` fails when the two disagree in either
//! direction, or when a run emits a name that is not listed here.

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of the Rust code itself.
    Host,
    /// Virtual time and bytes charged by the cost model: a pure function of
    /// (commit, seed), so it must repeat exactly.
    Sim,
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it was chosen (which layers it stresses, which it bypasses).
    pub why: &'static str,
}

/// One end-to-end metric.
pub struct EndToEndDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Which clock it reads.
    pub clock: Clock,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which it may worsen.
    pub bound: f64,
}

/// One per-layer metric. Zero means the layer is idle on that workload.
pub struct LayerDef {
    /// Metric name, `crate.module.what`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

/// The six workloads, in the order the suite runs them.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "wc-shuffle",
        why: "32 MiB Zipf wordcount, no combiner: every record crosses sortbuf, merge and the shuffle, so a sort, merge or Writable gain must show here",
    },
    WorkloadDef {
        name: "wc-combiner",
        why: "same input with combine-on-spill: shuffle bytes fall ~25x, merge and shuffle go idle, LineReader, mapper and collect dominate; merge/shuffle gains predict no change",
    },
    WorkloadDef {
        name: "hs-codec",
        why: "TPCx-HS gen/sort/validate on Hlz-compressed input with compressed map output: the only MapReduce path through hl-codec, CRC and the total-order partitioner",
    },
    WorkloadDef {
        name: "dfs-io",
        why: "TestDFSIO-style put/read, plain beside codec, no MapReduce: writes beside reads on dfs client/datanode/checksum/codec while every mapreduce layer is idle",
    },
    WorkloadDef {
        name: "small-jobs",
        why: "2000 jobs of 64 KiB: data layers idle, fixed per-job cost in engine, scheduler, NameNode RPCs and metrics is everything; what a student's lab job costs",
    },
    WorkloadDef {
        name: "nn-scale",
        why: "NameNode life at 400 DataNodes x 400k blocks with zero payload bytes: metadata structures and the DES event core; the bypass case for every data-path change",
    },
];

/// The end-to-end metrics, reported for every workload by the untraced run.
pub const END_TO_END: &[EndToEndDef] = &[
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "host_work_per_s",
        unit: "units/s",
        clock: Clock::Host,
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_rss_mib",
        unit: "MiB",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "sim_makespan_us",
        unit: "us",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEndDef {
        name: "sim_io_bytes_per_input_byte",
        unit: "ratio",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: 0.01,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics, reported for every workload by the traced run.
pub const PER_LAYER: &[LayerDef] = &[
    layer("datagen.corpus_mib_s", "MiB/s", Higher),
    layer("common.checksum.crc32_mib_s", "MiB/s", Higher),
    layer("common.checksum.chunked_mib_s", "MiB/s", Higher),
    layer("common.writable.roundtrip_rec_s", "rec/s", Higher),
    layer("codec.compress_mib_s", "MiB/s", Higher),
    layer("codec.decompress_mib_s", "MiB/s", Higher),
    layer("codec.ratio_pct", "%", Lower),
    layer("cluster.event.queue_events_s", "events/s", Higher),
    layer("cluster.event.wheel_events_s", "events/s", Higher),
    layer("cluster.network.charges_s", "calls/s", Higher),
    layer("dfs.client.put_mib_s", "MiB/s", Higher),
    layer("dfs.client.read_mib_s", "MiB/s", Higher),
    layer("dfs.client.put_codec_mib_s", "MiB/s", Higher),
    layer("dfs.client.read_codec_mib_s", "MiB/s", Higher),
    layer("dfs.client.put_sim_us", "us", Lower),
    layer("dfs.client.read_sim_us", "us", Lower),
    layer("dfs.client.put_codec_sim_us", "us", Lower),
    layer("dfs.client.read_codec_sim_us", "us", Lower),
    layer("dfs.stored_bytes_per_user_byte", "ratio", Lower),
    layer("dfs.namenode.load_ops_s", "ops/s", Higher),
    layer("dfs.namenode.block_report_us_p50", "us", Lower),
    layer("dfs.namenode.block_report_us_p99", "us", Lower),
    layer("dfs.namenode.restart_us", "us", Lower),
    layer("dfs.fsimage.checkpoint_mib_s", "MiB/s", Higher),
    layer("dfs.editlog.replay_ops_s", "ops/s", Higher),
    layer("dfs.fsimage.bytes_per_block", "bytes", Lower),
    layer("dfs.namenode.rpcs_per_job", "count", Lower),
    layer("mapreduce.split.line_reader_mib_s", "MiB/s", Higher),
    layer("workloads.mapper_rec_s", "rec/s", Higher),
    layer("workloads.reducer_groups_s", "groups/s", Higher),
    layer("mapreduce.sortbuf.collect_rec_s", "rec/s", Higher),
    layer("mapreduce.sortbuf.combine_rec_s", "rec/s", Higher),
    layer("mapreduce.sortbuf.spills", "count", Lower),
    layer("mapreduce.sortbuf.spill_bytes", "bytes", Lower),
    layer("mapreduce.merge.passes", "count", Lower),
    layer("mapreduce.merge.sim_bytes", "bytes", Lower),
    layer("mapreduce.engine.shuffle_bytes", "bytes", Lower),
    layer("mapreduce.merge.groups_rec_s", "rec/s", Higher),
    layer("mapreduce.local.serial_mib_s", "MiB/s", Higher),
    layer("mapreduce.engine.run_job_s", "s", Lower),
    layer("mapreduce.engine.layers_busy_s", "s", Lower),
    layer("mapreduce.engine.unattributed_s", "s", Lower),
    layer("mapreduce.engine.unattributed_share", "ratio", Lower),
    layer("mapreduce.engine.job_ms_p50", "ms", Lower),
    layer("mapreduce.engine.job_ms_p95", "ms", Lower),
    layer("mapreduce.engine.batch_growth_ratio", "ratio", Lower),
    layer("mapreduce.engine.sim_launch_wait_us", "us", Lower),
    layer("mapreduce.engine.sim_map_phase_us", "us", Lower),
    layer("mapreduce.engine.sim_reduce_phase_us", "us", Lower),
    layer("mapreduce.engine.sim_map_task_us_p50", "us", Lower),
    layer("mapreduce.engine.sim_map_task_us_max", "us", Lower),
    layer("mapreduce.engine.data_local_share", "ratio", Higher),
    layer("mapreduce.scheduler.decisions", "count", Lower),
    layer("mapreduce.speculate.launched", "count", Lower),
    layer("mapreduce.speculate.wasted_us", "us", Lower),
    layer("trace_overhead_share", "ratio", Lower),
];

/// The default timed budget per run, seconds (`run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// Look up an end-to-end metric by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEndDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Unit of any listed metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

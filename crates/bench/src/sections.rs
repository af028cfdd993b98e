//! The five pinned MapReduce sections of the simulated-number table.
//!
//! * **wordcount** / **terasort** — an 8-node course cluster with 128 KiB
//!   blocks, so the 150 000-word corpus splits into several maps:
//!   `wall_time_us` (simulated job duration), `spill_bytes` (map-side
//!   spill volume), `shuffle_bytes` (reduce fetch volume). Every map's
//!   output fits the default 100 MiB sort buffer, so each map spills once
//!   at its end and `spill_bytes == shuffle_bytes`; a pinned job that
//!   spills mid-map is ROADMAP 2(a) and its own re-pin;
//! * **sched** — the contended Google-trace replay under the Fair
//!   scheduler: `decisions` (assignment count), `wall_time_us`
//!   (makespan), `mean_wait_us` / `p99_wait_us` (queue latency), and
//!   `preemptions`;
//! * **tpcxhs** — the TPCx-HS-style hsgen/hssort/hsvalidate suite run
//!   2×2 (speculative execution on/off × homogeneous/skewed cluster):
//!   per-cell makespans plus speculative wasted work. The cell shapes are
//!   gated here as errors: on the skewed cluster speculation must
//!   *shorten* the makespan, and on the homogeneous cluster its wasted
//!   work must stay under 5% of the makespan. Every cell's validator must
//!   certify the sort, so speculation is also re-proven output-neutral;
//! * **codec** — wordcount and TPCx-HS with `compress_map_output` off vs
//!   on: spill bytes, shuffle bytes, and makespans per arm. Gated as
//!   errors: the compressed arm's wordcount output must be byte-identical
//!   to the plain arm's, and its spill and shuffle volumes must *shrink*
//!   on the compressible corpus.
//!
//! Every MapReduce section is also gated on charge order: no pipe charge
//! was requested before one already booked on the same pipe
//! (`ClusterNet::late_charges` reads 0).

use hl_cluster::node::{ClusterSpec, DegradeModel, HeterogeneousClusterSpec, PerfProfile};
use hl_common::config::keys;
use hl_common::prelude::*;
use hl_datagen::CorpusGen;
use hl_mapreduce::job::JobConf;
use hl_mapreduce::MrCluster;
use hl_workloads::replay::{load_trace, replay, ReplayPolicy, ReplaySetup};
use hl_workloads::terasort::{sample_cut_points, sorted_wordcount};
use hl_workloads::tpcxhs::{expected_digest, hsgen, hssort, hsvalidate, parse_verdict};
use hl_workloads::wordcount::wordcount;

use crate::Metrics;

/// Seed for the input corpus — pinned so every run sees identical data.
const SEED: u64 = 42;
/// Corpus size in words: splits into several map tasks at 128 KiB blocks.
const WORDS: usize = 150_000;

/// The pinned configuration: course defaults with 128 KiB blocks (several
/// maps per job).
fn pinned_config() -> Configuration {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 128 * 1024u64);
    config
}

fn stage(cluster: &mut MrCluster, path: &str, text: &str) -> Result<()> {
    cluster.dfs.namenode.mkdirs("/in")?;
    let t = cluster.now;
    let put = cluster.dfs.put(&mut cluster.net, t, path, text.as_bytes(), None)?;
    cluster.now = put.completed_at;
    Ok(())
}

/// The charge-order gate: every pipe charge of the section was requested
/// in virtual-time order (`ClusterNet::late_charges` is 0).
fn charge_order(cluster: &MrCluster, section: &str) -> Result<()> {
    match cluster.net.late_charges() {
        0 => Ok(()),
        n => Err(HlError::Config(format!(
            "{section} charge-order gate: {n} charge(s) booked behind a later request"
        ))),
    }
}

/// What one pinned wordcount-shaped job reports.
struct WcRun {
    wall_us: u64,
    spill_bytes: u64,
    shuffle_bytes: u64,
    output: String,
}

/// Run wordcount, or with `total_order` its terasort-style sorted variant,
/// on a fresh 8-node pinned cluster.
fn run_wc(total_order: bool, compress: bool) -> Result<WcRun> {
    let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(8), pinned_config())?;
    let (corpus, _) = CorpusGen::new(SEED).generate(WORDS);
    stage(&mut cluster, "/in/corpus.txt", &corpus)?;
    let report = if total_order {
        let cuts = sample_cut_points(&corpus, 4);
        let mut job = sorted_wordcount("/in/corpus.txt", "/out/job", cuts);
        job.conf.compress_map_output = compress;
        cluster.run_job(&job)?
    } else {
        let mut job = wordcount("/in/corpus.txt", "/out/job", 4);
        job.conf.compress_map_output = compress;
        cluster.run_job(&job)?
    };
    charge_order(&cluster, "wordcount")?;
    let snap = cluster.metrics_snapshot();
    Ok(WcRun {
        wall_us: report.elapsed().as_micros(),
        spill_bytes: snap.counter("jobtracker", "spill.bytes"),
        shuffle_bytes: snap.counter("jobtracker", "shuffle.bytes"),
        output: cluster.read_output("/out/job")?,
    })
}

/// The `wordcount` (`total_order = false`) and `terasort` sections.
pub(crate) fn wc_section(total_order: bool) -> Result<Metrics> {
    let run = run_wc(total_order, false)?;
    Ok(vec![
        ("wall_time_us", run.wall_us),
        ("spill_bytes", run.spill_bytes),
        ("shuffle_bytes", run.shuffle_bytes),
    ])
}

/// The scheduler section: the pinned contended Google-trace replay under
/// the Fair policy — the setup where assignment decisions, waits, and
/// preemptions all do real work.
pub(crate) fn sched_section() -> Result<Metrics> {
    let (log, _) = hl_datagen::google_trace::GoogleTraceGen::new(SEED).with_jobs(600, 8).generate();
    let jobs = load_trace(&log);
    let out = replay(&jobs, ReplayPolicy::Fair, &ReplaySetup::contended());
    if !out.violations.is_empty() {
        return Err(HlError::Config(format!("sched replay violations: {:?}", out.violations)));
    }
    Ok(vec![
        ("decisions", out.decisions),
        ("wall_time_us", out.makespan.0),
        ("mean_wait_us", out.mean_wait.0),
        ("p99_wait_us", out.p99_wait.0),
        ("preemptions", out.policy_preemptions),
    ])
}

/// One TPCx-HS ablation cell: run hsgen → hssort → hsvalidate on a fresh
/// cluster and return `(makespan_us, spec_wasted_us)`. The validator's
/// verdict is checked against the generator's ground truth, so a cell
/// where speculation corrupted output fails the section outright.
fn run_hs_cell(speculative: bool, skewed: bool, compress: bool) -> Result<(u64, u64)> {
    let mut config = pinned_config();
    // Full replication for the (small) benchmark input: every node holds
    // a local copy, so a rescue attempt reads its split from its own disk
    // instead of queueing on the straggler's.
    config.set(keys::DFS_REPLICATION, 8u64);
    let mut cluster = if skewed {
        // The library's `skewed` preset activates on chaos-soak timescales
        // (noisy windows at 30–90 s, decay onsets at 10–40 s); this job
        // finishes in a few virtual seconds, so the bench pins its own
        // skew at bench scale: a statically throttled VM-tier node plus a
        // node that decays to 40% over the first two seconds of the run.
        // Both models throttle CPU and disk only — the contended-hypervisor
        // shape — so a rescue attempt elsewhere can still fetch the
        // straggler's replica at full NIC speed.
        let contended = |bp: u32| PerfProfile {
            cpu_mult: bp,
            disk_mult: bp,
            nic_mult: PerfProfile::NOMINAL_BP,
        };
        let spec = HeterogeneousClusterSpec::new(ClusterSpec::course_hadoop(8))
            .with_model(NodeId(1), DegradeModel::Static(contended(2_500)))
            .with_model(
                NodeId(2),
                DegradeModel::Decay {
                    from: SimTime::ZERO,
                    ramp: SimDuration::from_secs(2),
                    floor: contended(4_000),
                },
            );
        MrCluster::new_heterogeneous(&spec, config)?
    } else {
        MrCluster::new(ClusterSpec::course_hadoop(8), config)?
    };
    let (corpus, truth) = hsgen(SEED, WORDS);
    stage(&mut cluster, "/in/hs.txt", &corpus)?;

    // Bench-scale speculation knobs: a third of the maps sit on the
    // throttled tier and can straggle at once, so the cap must cover them
    // all, and the progress heartbeat must tick well within the ~1 s the
    // healthy tasks take (the 3 s default would never observe progress
    // here).
    let tune = |mut conf: JobConf| {
        conf = conf.speculative(speculative);
        conf.spec_cap_pct = 30;
        conf.spec_heartbeat = SimDuration::from_millis(200);
        conf.compress_map_output = compress;
        conf
    };
    let mut sort = hssort("/in/hs.txt", "/out/hssort", &corpus, 4);
    sort.conf = tune(sort.conf);
    let sort_report = cluster.run_job(&sort)?;
    let mut validate = hsvalidate("/out/hssort", "/out/hsvalidate");
    validate.conf = tune(validate.conf);
    let val_report = cluster.run_job(&validate)?;

    let now = cluster.now;
    let mut output = Vec::new();
    for path in &val_report.output_files {
        let read = cluster.dfs.read(&mut cluster.net, now, path, None)?;
        output.extend(String::from_utf8_lossy(&read.value).lines().map(str::to_string));
    }
    let cell = if skewed { "skew" } else { "homo" };
    let verdict = parse_verdict(&output)
        .ok_or_else(|| HlError::Config(format!("tpcxhs {cell}: validator emitted no verdict")))?;
    let (records, crc_sum) = expected_digest(&truth);
    if !verdict.sorted || verdict.records != records || verdict.crc_sum != crc_sum {
        return Err(HlError::Config(format!(
            "tpcxhs {cell} spec={speculative}: validation failed \
             (verdict {verdict:?}, expected {records} records crc {crc_sum})"
        )));
    }

    charge_order(&cluster, "tpcxhs")?;
    let makespan = val_report.finished_at.since(sort_report.submitted_at).0;
    let wasted = cluster.metrics_snapshot().counter("jobtracker", "spec.wasted_us");
    Ok((makespan, wasted))
}

/// The 2×2 TPCx-HS ablation, with the expected shape asserted:
/// speculation must pay for itself on the skewed cluster and stay cheap
/// on the homogeneous one.
pub(crate) fn tpcxhs_section() -> Result<Metrics> {
    let (homo_spec, homo_wasted) = run_hs_cell(true, false, false)?;
    let (homo_off, _) = run_hs_cell(false, false, false)?;
    let (skew_spec, skew_wasted) = run_hs_cell(true, true, false)?;
    let (skew_off, _) = run_hs_cell(false, true, false)?;
    if skew_spec >= skew_off {
        return Err(HlError::Config(format!(
            "tpcxhs shape gate: speculation must shorten the skewed makespan \
             (spec-on {skew_spec} us >= spec-off {skew_off} us)"
        )));
    }
    if homo_wasted.saturating_mul(20) > homo_spec {
        return Err(HlError::Config(format!(
            "tpcxhs shape gate: homogeneous wasted work {homo_wasted} us exceeds \
             5% of the {homo_spec} us makespan"
        )));
    }
    Ok(vec![
        ("homo_spec_wall_us", homo_spec),
        ("homo_off_wall_us", homo_off),
        ("homo_spec_wasted_us", homo_wasted),
        ("skew_spec_wall_us", skew_spec),
        ("skew_off_wall_us", skew_off),
        ("skew_spec_wasted_us", skew_wasted),
    ])
}

/// The codec ablation: the same pinned wordcount and a homogeneous,
/// speculation-off TPCx-HS cell, each run with map-output compression off
/// and on. The shape gates hold the codec to its contract — byte-identical
/// job output, strictly fewer spill and shuffle bytes on the compressible
/// corpus — and the table holds its cost.
pub(crate) fn codec_section() -> Result<Metrics> {
    let plain = run_wc(false, false)?;
    let codec = run_wc(false, true)?;
    if codec.output != plain.output {
        return Err(HlError::Config(
            "codec shape gate: compressed wordcount output differs from plain".into(),
        ));
    }
    if codec.shuffle_bytes >= plain.shuffle_bytes {
        return Err(HlError::Config(format!(
            "codec shape gate: compressed shuffle must shrink (codec {} >= plain {})",
            codec.shuffle_bytes, plain.shuffle_bytes
        )));
    }
    if codec.spill_bytes >= plain.spill_bytes {
        return Err(HlError::Config(format!(
            "codec shape gate: compressed spill must shrink (codec {} >= plain {})",
            codec.spill_bytes, plain.spill_bytes
        )));
    }
    let (hs_plain, _) = run_hs_cell(false, false, false)?;
    let (hs_codec, _) = run_hs_cell(false, false, true)?;
    Ok(vec![
        ("wc_plain_wall_us", plain.wall_us),
        ("wc_plain_spill_bytes", plain.spill_bytes),
        ("wc_plain_shuffle_bytes", plain.shuffle_bytes),
        ("wc_codec_wall_us", codec.wall_us),
        ("wc_codec_spill_bytes", codec.spill_bytes),
        ("wc_codec_shuffle_bytes", codec.shuffle_bytes),
        ("hs_plain_wall_us", hs_plain),
        ("hs_codec_wall_us", hs_codec),
    ])
}

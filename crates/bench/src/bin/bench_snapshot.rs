//! `bench-snapshot` — the CI perf-gate's pinned benchmark.
//!
//! ```text
//! bench-snapshot                              # run, write BENCH_<workload>.json
//! bench-snapshot --baseline                   # also write combined BENCH_baseline.json
//! bench-snapshot --check BENCH_baseline.json  # compare against a committed baseline
//! ```
//!
//! Runs three pinned workloads and records a handful of virtual-time/perf
//! counters for each:
//!
//! * **wordcount** / **terasort** — a fixed 8-node cluster with a
//!   deliberately small sort buffer (so the spill path is exercised):
//!   `wall_time_us` (simulated job duration), `spill_bytes` (map-side
//!   spill volume), `shuffle_bytes` (reduce fetch volume);
//! * **sched** — the contended Google-trace replay under the Fair
//!   scheduler: `decisions` (assignment count), `wall_time_us`
//!   (makespan), `mean_wait_us` / `p99_wait_us` (queue latency), and
//!   `preemptions`;
//! * **tpcxhs** — the TPCx-HS-style hsgen/hssort/hsvalidate suite run
//!   2×2 (speculative execution on/off × homogeneous/skewed cluster):
//!   per-cell makespans plus speculative wasted work. The cell shapes are
//!   gated in-binary: on the skewed cluster speculation must *shorten*
//!   the makespan, and on the homogeneous cluster its wasted work must
//!   stay under 5% of the makespan. Every cell's validator must certify
//!   the sort, so speculation is also re-proven output-neutral here;
//! * **codec** — wordcount and TPCx-HS with `mapred.compress.map.output`
//!   off vs on: spill bytes, shuffle bytes, and makespans per arm. Gated
//!   in-binary: the compressed arm's wordcount output must be
//!   byte-identical to the plain arm's, and its spill and shuffle volumes
//!   must *shrink* on the compressible corpus.
//!
//! Every metric is a pure function of the engine's cost model, so a
//! committed baseline diff is a deterministic perf regression signal, not
//! a noisy wall-clock one. `--check` fails (exit 1) on any metric
//! regressing more than the 10% tolerance band; usage or I/O problems
//! exit 2.

use std::process::ExitCode;

use hl_bench::{extract, sections_json, Layout};
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

/// Seed for the input corpus — pinned so every run sees identical data.
const SEED: u64 = 42;
/// Corpus size in words: big enough to spill against the shrunken sort
/// buffer and split into several map tasks.
const WORDS: usize = 150_000;
/// Regression tolerance: fail only past this many percent over baseline.
const TOLERANCE_PCT: u64 = 10;

/// One workload's perf counters, all derived from virtual time. The
/// metric set is per-workload (engine jobs track spill/shuffle volume,
/// the scheduler replay tracks wait latency), so it is a named list
/// rather than a fixed struct.
struct Snapshot {
    workload: &'static str,
    metrics: Vec<(&'static str, u64)>,
}

impl Snapshot {
    fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"workload\": \"{}\"", self.workload);
        for (name, value) in &self.metrics {
            out.push_str(&format!(",\n  \"{name}\": {value}"));
        }
        out.push_str("\n}\n");
        out
    }

    fn render(&self) -> String {
        let mut out = format!("{:<10}", self.workload);
        for (name, value) in &self.metrics {
            out.push_str(&format!(" {name}={value}"));
        }
        out
    }
}

/// The pinned cluster: 8 course nodes, 128 KiB blocks (several maps per
/// job), 64 KiB sort buffer (guaranteed spills at this corpus size).
fn pinned_cluster() -> Result<MrCluster> {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 128 * 1024u64);
    config.set(keys::IO_SORT_BYTES, 64 * 1024u64);
    MrCluster::new(ClusterSpec::course_hadoop(8), config)
}

fn stage(cluster: &mut MrCluster, path: &str, text: &str) -> Result<()> {
    cluster.dfs.namenode.mkdirs("/in")?;
    let t = cluster.now;
    let put = cluster.dfs.put(&mut cluster.net, t, path, text.as_bytes(), None)?;
    cluster.now = put.completed_at;
    Ok(())
}

/// Run one workload on a fresh pinned cluster and snapshot its counters.
fn run_workload(workload: &'static str) -> Result<Snapshot> {
    let mut cluster = pinned_cluster()?;
    let (corpus, _) = CorpusGen::new(SEED).generate(WORDS);
    stage(&mut cluster, "/in/corpus.txt", &corpus)?;
    let report = match workload {
        "wordcount" => cluster.run_job(&wordcount("/in/corpus.txt", "/out/wc", 4))?,
        "terasort" => {
            let cuts = sample_cut_points(&corpus, 4);
            cluster.run_job(&sorted_wordcount("/in/corpus.txt", "/out/ts", cuts))?
        }
        other => return Err(HlError::Config(format!("unknown workload {other}"))),
    };
    let snap = cluster.metrics_snapshot();
    Ok(Snapshot {
        workload,
        metrics: vec![
            ("wall_time_us", report.elapsed().as_micros()),
            ("spill_bytes", snap.counter("jobtracker", "spill.bytes")),
            ("shuffle_bytes", snap.counter("jobtracker", "shuffle.bytes")),
        ],
    })
}

/// The scheduler benchmark: the pinned contended Google-trace replay
/// under the Fair policy — the setup where assignment decisions, waits,
/// and preemptions all do real work.
fn run_sched() -> Result<Snapshot> {
    let (log, _) = hl_datagen::google_trace::GoogleTraceGen::new(SEED).with_jobs(600, 8).generate();
    let jobs = load_trace(&log);
    let out = replay(&jobs, ReplayPolicy::Fair, &ReplaySetup::contended());
    if !out.violations.is_empty() {
        return Err(HlError::Config(format!("sched replay violations: {:?}", out.violations)));
    }
    Ok(Snapshot {
        workload: "sched",
        metrics: vec![
            ("decisions", out.decisions),
            ("wall_time_us", out.makespan.0),
            ("mean_wait_us", out.mean_wait.0),
            ("p99_wait_us", out.p99_wait.0),
            ("preemptions", out.policy_preemptions),
        ],
    })
}

/// One TPCx-HS ablation cell: run hsgen → hssort → hsvalidate on a fresh
/// cluster and return `(makespan_us, spec_wasted_us)`. The validator's
/// verdict is checked against the generator's ground truth, so a cell
/// where speculation corrupted output fails the bench outright.
fn run_hs_cell(speculative: bool, skewed: bool, compress: bool) -> Result<(u64, u64)> {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 128 * 1024u64);
    config.set(keys::IO_SORT_BYTES, 64 * 1024u64);
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
    // here). Both are ordinary `mapred.speculative.*` settings.
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

    let makespan = val_report.finished_at.since(sort_report.submitted_at).0;
    let wasted = cluster.metrics_snapshot().counter("jobtracker", "spec.wasted_us");
    Ok((makespan, wasted))
}

/// The 2×2 TPCx-HS ablation, with the expected shape asserted in-binary:
/// speculation must pay for itself on the skewed cluster and stay cheap
/// on the homogeneous one.
fn run_tpcxhs() -> Result<Snapshot> {
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
    Ok(Snapshot {
        workload: "tpcxhs",
        metrics: vec![
            ("homo_spec_wall_us", homo_spec),
            ("homo_off_wall_us", homo_off),
            ("homo_spec_wasted_us", homo_wasted),
            ("skew_spec_wall_us", skew_spec),
            ("skew_off_wall_us", skew_off),
            ("skew_spec_wasted_us", skew_wasted),
        ],
    })
}

/// The codec ablation: the same pinned wordcount and a homogeneous,
/// speculation-off TPCx-HS cell, each run with map-output compression off
/// and on. The in-binary shape gates hold the codec to its contract —
/// byte-identical job output, strictly fewer spill and shuffle bytes on
/// the compressible corpus — so the perf-gate band only has to watch for
/// cost drift.
fn run_codec() -> Result<Snapshot> {
    let run_wc = |compress: bool| -> Result<(u64, u64, u64, String)> {
        let mut cluster = pinned_cluster()?;
        let (corpus, _) = CorpusGen::new(SEED).generate(WORDS);
        stage(&mut cluster, "/in/corpus.txt", &corpus)?;
        let mut job = wordcount("/in/corpus.txt", "/out/wc", 4);
        job.conf.compress_map_output = compress;
        let report = cluster.run_job(&job)?;
        let snap = cluster.metrics_snapshot();
        let text = cluster.read_output("/out/wc")?;
        Ok((
            report.elapsed().as_micros(),
            snap.counter("jobtracker", "spill.bytes"),
            snap.counter("jobtracker", "shuffle.bytes"),
            text,
        ))
    };
    let (plain_wall, plain_spill, plain_shuffle, plain_out) = run_wc(false)?;
    let (codec_wall, codec_spill, codec_shuffle, codec_out) = run_wc(true)?;
    if codec_out != plain_out {
        return Err(HlError::Config(
            "codec shape gate: compressed wordcount output differs from plain".into(),
        ));
    }
    if codec_shuffle >= plain_shuffle {
        return Err(HlError::Config(format!(
            "codec shape gate: compressed shuffle must shrink \
             (codec {codec_shuffle} >= plain {plain_shuffle})"
        )));
    }
    if codec_spill >= plain_spill {
        return Err(HlError::Config(format!(
            "codec shape gate: compressed spill must shrink \
             (codec {codec_spill} >= plain {plain_spill})"
        )));
    }
    let (hs_plain, _) = run_hs_cell(false, false, false)?;
    let (hs_codec, _) = run_hs_cell(false, false, true)?;
    Ok(Snapshot {
        workload: "codec",
        metrics: vec![
            ("wc_plain_wall_us", plain_wall),
            ("wc_plain_spill_bytes", plain_spill),
            ("wc_plain_shuffle_bytes", plain_shuffle),
            ("wc_codec_wall_us", codec_wall),
            ("wc_codec_spill_bytes", codec_spill),
            ("wc_codec_shuffle_bytes", codec_shuffle),
            ("hs_plain_wall_us", hs_plain),
            ("hs_codec_wall_us", hs_codec),
        ],
    })
}

/// Compare a fresh snapshot against the baseline; returns the list of
/// human-readable regression lines (empty = gate passes).
fn check(snapshots: &[Snapshot], baseline: &str) -> Vec<String> {
    let mut regressions = Vec::new();
    for s in snapshots {
        for &(metric, measured) in &s.metrics {
            let Some(base) = extract(baseline, s.workload, metric) else {
                regressions.push(format!("{}/{metric}: missing from baseline", s.workload));
                continue;
            };
            // Tolerance band: fail only when measured > base * (1 + tol).
            let ceiling = base.saturating_mul(100 + TOLERANCE_PCT) / 100;
            if measured > ceiling {
                regressions.push(format!(
                    "{}/{metric}: {measured} exceeds baseline {base} by more than {TOLERANCE_PCT}%",
                    s.workload
                ));
            } else if measured > base {
                eprintln!(
                    "note: {}/{metric} drifted {measured} vs {base} (within {TOLERANCE_PCT}%)",
                    s.workload
                );
            }
        }
    }
    regressions
}

fn combined_json(snapshots: &[Snapshot]) -> String {
    let sections: Vec<_> = snapshots.iter().map(|s| (s.workload, &s.metrics)).collect();
    sections_json(&sections, Layout::OneLine)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check_path: Option<String> = None;
    let mut write_baseline = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => match it.next() {
                Some(p) => check_path = Some(p.clone()),
                None => {
                    eprintln!("--check needs a baseline path");
                    return ExitCode::from(2);
                }
            },
            "--baseline" => write_baseline = true,
            other => {
                eprintln!("unknown flag {other}");
                eprintln!("usage: bench-snapshot [--baseline] [--check BENCH_baseline.json]");
                return ExitCode::from(2);
            }
        }
    }

    let mut snapshots = Vec::new();
    for workload in ["wordcount", "terasort", "sched", "tpcxhs", "codec"] {
        let result = match workload {
            "sched" => run_sched(),
            "tpcxhs" => run_tpcxhs(),
            "codec" => run_codec(),
            other => run_workload(other),
        };
        match result {
            Ok(s) => {
                println!("{}", s.render());
                snapshots.push(s);
            }
            Err(e) => {
                eprintln!("workload {workload} failed: {e}");
                return ExitCode::from(2);
            }
        }
    }

    for s in &snapshots {
        let path = format!("BENCH_{}.json", s.workload);
        if let Err(e) = std::fs::write(&path, s.to_json()) {
            eprintln!("writing {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if write_baseline {
        if let Err(e) = std::fs::write("BENCH_baseline.json", combined_json(&snapshots)) {
            eprintln!("writing BENCH_baseline.json: {e}");
            return ExitCode::from(2);
        }
        println!("wrote BENCH_baseline.json");
    }

    if let Some(path) = check_path {
        let baseline = match std::fs::read_to_string(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("reading {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let regressions = check(&snapshots, &baseline);
        if !regressions.is_empty() {
            for r in &regressions {
                eprintln!("perf-gate: {r}");
            }
            return ExitCode::FAILURE;
        }
        println!("perf-gate: all metrics within {TOLERANCE_PCT}% of {path}");
    }
    ExitCode::SUCCESS
}

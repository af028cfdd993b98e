//! Golden files: everything the repository prints for a lecture to quote
//! and every JobTracker trace, pinned across commits by one mechanism — a
//! committed text file under `tests/golden/`, `hl_bench::golden_diff`'s
//! exact line-for-line compare in both directions, and a mismatch that
//! names the line (and the section it stands in) and prints its replacement.
//!
//! * `chaos_traces.txt` — every chaos pack × seeds 0..3 (all three
//!   scheduler policies via `seed % 3`, speculation, codec, retries,
//!   blacklists) must reproduce its trace hash; `chaos-soak
//!   --verify-trace` only compares a run with *itself*.
//! * `replay_hashes.txt` — the Google-trace replay, 3 policies ×
//!   {uncontended, contended}: the two hashes and every column
//!   `sched-replay` prints, each row from two runs that must agree. 120
//!   jobs × 6 tasks here; `sched-replay`'s default 600 × 8 in the ignored
//!   arm.
//! * `sim_numbers.txt` — `hl_bench::sim_numbers()`: makespans, spill and
//!   shuffle bytes, queue waits, the TPCx-HS 2×2 and the codec ablation,
//!   plus the NameNode scale counters at 200 × 100 000 (and at 1000 × 1M
//!   in the ignored arm). `bench-snapshot > tests/golden/sim_numbers.txt`
//!   re-pins.
//! * `repro_quick.txt` — `hl_bench::repro(Scale::Quick, ..)`, all that
//!   `repro --quick` prints: Figures 1–2, Tables I–V, N1–N8, X1.
//!   `repro_paper.txt` is the same at PAPER scale, ~2.5 min, in the
//!   ignored arm. `repro [--quick] > tests/golden/repro_<scale>.txt`
//!   re-pins.
//! * `report_digests.txt` — three hand-built jobs, one row each: a digest
//!   of their whole `JobReport`, for the corners no committed number
//!   covers.
//!
//! The nightly workflow runs the ignored arm (`-- --ignored`). A
//! restructuring that moves any of these changed behaviour; only accept
//! the replacement for an *intended* change, in a `[bench-baseline]`
//! commit (`scripts/bench_guard.sh`).

use hadoop_lab::chaos::{ChaosRunner, ScenarioPack};
use hadoop_lab::cluster::node::{ClusterSpec, HeterogeneousClusterSpec};
use hadoop_lab::common::config::keys;
use hadoop_lab::common::hash::fnv1a;
use hadoop_lab::common::prelude::*;
use hadoop_lab::core::Scale;
use hadoop_lab::datagen::google_trace::GoogleTraceGen;
use hadoop_lab::datagen::CorpusGen;
use hadoop_lab::mapreduce::api::NoCombiner;
use hadoop_lab::mapreduce::job::Job;
use hadoop_lab::mapreduce::report::JobReport;
use hadoop_lab::mapreduce::speculate::SpecOutcome;
use hadoop_lab::mapreduce::MrCluster;
use hadoop_lab::workloads::replay::{load_trace, replay, ReplayPolicy, ReplaySetup};
use hadoop_lab::workloads::wordcount::{wordcount, WcMapper, WcReducer};
use hl_bench::{golden_diff, repro, repro_flags, scale_numbers, sim_numbers};

const GOLDEN: &str = include_str!("golden/chaos_traces.txt");
const GOLDEN_REPLAY: &str = include_str!("golden/replay_hashes.txt");
const GOLDEN_SIM: &str = include_str!("golden/sim_numbers.txt");
const GOLDEN_REPRO_QUICK: &str = include_str!("golden/repro_quick.txt");
const GOLDEN_REPRO_PAPER: &str = include_str!("golden/repro_paper.txt");
const GOLDEN_DIGESTS: &str = include_str!("golden/report_digests.txt");
/// Rows of `sim_numbers.txt` that only the ignored nightly arm produces.
const NIGHTLY_ROWS: &str = "scale_1000x1000000/";
/// Rows of `replay_hashes.txt` that only the ignored nightly arm produces.
const NIGHTLY_REPLAY_ROWS: &str = "600x8-";

/// `actual` must equal `pinned` line for line, in both directions.
fn assert_golden(file: &str, pinned: &str, actual: &str) {
    let moved = golden_diff(pinned, actual);
    assert!(moved.is_empty(), "tests/golden/{file} moved:\n{}", moved.join("\n"));
}

/// The lines of `golden` that start with `prefix` (`nightly`) or that do
/// not: the rows one arm of a table answers for.
fn rows_of_arm(golden: &str, prefix: &str, nightly: bool) -> String {
    golden
        .lines()
        .filter(|row| row.starts_with(prefix) == nightly)
        .map(|row| format!("{row}\n"))
        .collect()
}

#[test]
fn chaos_trace_hashes_match_the_committed_table() {
    let mut actual = String::new();
    for pack in ScenarioPack::ALL {
        for seed in 0..3u64 {
            let report = ChaosRunner::run(pack, seed).expect("chaos harness sets up");
            assert!(report.ok(), "{report}: {:?}", report.violations);
            actual.push_str(&format!("{} {seed} {:#018x}\n", pack.name(), report.trace_hash));
        }
    }
    assert_golden("chaos_traces.txt", GOLDEN, &actual);
}

/// The Google-trace replay of `jobs` jobs × `tasks` tasks, 3 policies ×
/// {uncontended, contended}, one row each: the hashes of the assignment
/// log and of the metrics snapshot, then the columns `sched-replay` prints
/// (decisions, mean and p99 wait in ms, makespan in s, preemptions). Every
/// row is produced twice and the two runs must agree.
fn replay_rows(prefix: &str, jobs: u64, tasks: u32) -> String {
    let (log, _) = GoogleTraceGen::new(42).with_jobs(jobs, tasks).generate();
    let jobs = load_trace(&log);
    let mut rows = String::new();
    for (label, setup) in
        [("uncontended", ReplaySetup::default()), ("contended", ReplaySetup::contended())]
    {
        for policy in [ReplayPolicy::Fifo, ReplayPolicy::Fair, ReplayPolicy::Capacity] {
            let run = || {
                let out = replay(&jobs, policy, &setup);
                assert!(out.violations.is_empty(), "{label} {policy:?}: {:?}", out.violations);
                format!(
                    "{prefix}{label} {} {:#018x} {:#018x} {} {} {} {} {}\n",
                    out.policy,
                    out.assignment_hash,
                    out.metrics_hash,
                    out.decisions,
                    out.mean_wait.0 / 1000,
                    out.p99_wait.0 / 1000,
                    out.makespan.0 / 1_000_000,
                    out.policy_preemptions,
                )
            };
            let (row, again) = (run(), run());
            assert_eq!(row, again, "a second run of the same replay diverged");
            rows.push_str(&row);
        }
    }
    rows
}

/// A change to the scheduling loop that moves a decision shows up here
/// before it shows up in a lecture table.
#[test]
fn replay_hashes_match_the_committed_table() {
    let pinned = rows_of_arm(GOLDEN_REPLAY, NIGHTLY_REPLAY_ROWS, false);
    assert_golden("replay_hashes.txt", &pinned, &replay_rows("", 120, 6));
}

#[test]
#[ignore = "sched-replay's default 600-job trace, ~20 s in release: the nightly workflow runs it"]
fn replay_of_the_600_job_trace_matches_the_committed_table() {
    let pinned = rows_of_arm(GOLDEN_REPLAY, NIGHTLY_REPLAY_ROWS, true);
    assert_golden("replay_hashes.txt", &pinned, &replay_rows(NIGHTLY_REPLAY_ROWS, 600, 8));
}

/// The five pinned MapReduce sections and the NameNode scale counters at
/// 200 × 100 000: every value equals its committed row, and no row is
/// missing or extra on either side.
#[test]
fn sim_numbers_match_the_committed_table() {
    let pinned = rows_of_arm(GOLDEN_SIM, NIGHTLY_ROWS, false);
    assert_golden("sim_numbers.txt", &pinned, &sim_numbers().expect("shape gates hold"));
}

#[test]
#[ignore = "1000 DataNodes x 1M blocks, ~5 s: the nightly workflow runs it"]
fn sim_numbers_at_a_million_blocks_match_the_committed_table() {
    let pinned = rows_of_arm(GOLDEN_SIM, NIGHTLY_ROWS, true);
    assert_golden(
        "sim_numbers.txt",
        &pinned,
        &scale_numbers(1000, 1_000_000).expect("census holds"),
    );
}

/// What `repro --quick` prints for N3 alone (`n3`) or for the other
/// thirteen experiments must equal the header and those sections of
/// `repro_quick.txt`. N3's 20 000 charged side-file reads are half of the
/// sweep's host time, so it runs as a test of its own beside the rest;
/// between them the two tests cover every pinned section.
fn assert_repro_quick(n3: bool) {
    let flags: Vec<&str> = repro_flags().filter(|flag| (*flag == "--n3") == n3).collect();
    let actual = repro(Scale::Quick, &flags).expect("the flags are the table's own");

    let bar = format!("{}\n", "=".repeat(64));
    let mut chunks = GOLDEN_REPRO_QUICK.split(bar.as_str());
    let mut pinned = chunks.next().unwrap_or_default().to_string();
    while let (Some(title), Some(body)) = (chunks.next(), chunks.next()) {
        if title.starts_with("N3 ") == n3 {
            pinned.push_str(&[bar.as_str(), title, bar.as_str(), body].concat());
        }
    }
    assert_golden("repro_quick.txt", &pinned, &actual);
}

#[test]
fn repro_quick_matches_the_committed_text() {
    assert_repro_quick(false);
}

#[test]
fn repro_quick_n3_matches_the_committed_text() {
    assert_repro_quick(true);
}

#[test]
#[ignore = "every experiment at PAPER scale, ~2.5 min in release: the nightly workflow runs it"]
fn repro_paper_matches_the_committed_text() {
    let actual = repro(Scale::Paper, &[]).expect("no flag to reject");
    assert_golden("repro_paper.txt", GOLDEN_REPRO_PAPER, &actual);
}

/// FNV-1a over a rendering of everything the report says about *how* the
/// job ran: every task summary, every counter, every speculative attempt,
/// the per-job blacklist and the finish time.
fn digest(report: &JobReport) -> u64 {
    let mut text = format!("finished_at {}\n", report.finished_at.0);
    for t in &report.tasks {
        text.push_str(&format!("{t:?}\n"));
    }
    for (group, name, value) in report.counters.iter() {
        text.push_str(&format!("{group}/{name} {value}\n"));
    }
    for a in &report.spec_attempts {
        text.push_str(&format!("{a:?}\n"));
    }
    text.push_str(&format!("blacklisted {:?}\n", report.blacklisted_trackers));
    fnv1a(text.as_bytes())
}

fn small_block_config() -> Configuration {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 4096u64);
    config
}

/// Stage the shared corpus at `/in/corpus.txt` with `replication` copies.
fn stage(cluster: &mut MrCluster, words: usize, replication: u32) {
    cluster.dfs.namenode.mkdirs("/in").unwrap();
    let (corpus, _) = CorpusGen::new(42).generate(words);
    let t = cluster.now;
    let put = cluster
        .dfs
        .put_with_replication(
            &mut cluster.net,
            t,
            "/in/corpus.txt",
            corpus.as_bytes(),
            None,
            replication,
        )
        .unwrap();
    cluster.now = put.completed_at;
}

type WcJob = Job<WcMapper, WcReducer, NoCombiner<String, u64>>;

fn wc(output: &str, reduces: usize) -> WcJob {
    wordcount("/in/corpus.txt", output, reduces)
}

/// `case`'s row of `report_digests.txt` must be the report's digest, and
/// the cluster must have booked every pipe charge in virtual-time order.
fn assert_digest(case: &str, cluster: &MrCluster, report: &JobReport) {
    assert_eq!(cluster.net.late_charges(), 0, "{case}: a charge was booked out of order");
    let pinned: String = GOLDEN_DIGESTS
        .lines()
        .filter(|row| row.split_once(' ').is_some_and(|(name, _)| name == case))
        .map(|row| format!("{row}\n"))
        .collect();
    assert_golden("report_digests.txt", &pinned, &format!("{case} {:#018x}\n", digest(report)));
}

/// Map *and* reduce speculation on the library's `skewed` preset, with
/// all four race outcomes present: map and reduce backups that beat their
/// primaries, and map and reduce backups killed at the primary's commit.
#[test]
fn speculation_on_a_skewed_cluster_is_pinned() {
    let mut config = small_block_config();
    config.set(keys::MAPRED_REDUCE_SLOTS, 2);
    // Job output stays on the reducer's own disk: one replica keeps the
    // part-file pipelines off the NICs the backups' shuffles use.
    config.set(keys::DFS_REPLICATION, 1u64);
    let spec = HeterogeneousClusterSpec::skewed(ClusterSpec::course_hadoop(6), 6);
    let mut cluster = MrCluster::new_heterogeneous(&spec, config).unwrap();
    // The preset's noisy window and decay ramp open 10–90 s in; start the
    // job inside them so all three skew models shape it.
    cluster.now = SimTime(100_000_000);
    // The input, though, lives on every node, so a map rescue attempt
    // reads locally instead of queueing on the straggler's disk.
    stage(&mut cluster, 24_000, 6);

    let mut job = wc("/out/spec", 12);
    job.conf = job.conf.speculative(true);
    // Test timescale: tasks run for seconds, so the progress heartbeat
    // must tick well inside that; CPU-bound reduces make the throttled
    // tier straggle in the reduce phase too.
    job.conf.spec_heartbeat = SimDuration::from_millis(100);
    job.conf.spec_cap_pct = 50;
    job.conf.reduce_cpu_per_record = SimDuration::from_micros(500);
    let report = cluster.run_job(&job).unwrap();

    for reduce in [false, true] {
        for outcome in [SpecOutcome::Won, SpecOutcome::Killed] {
            assert!(
                report.spec_attempts.iter().any(|a| a.reduce == reduce && a.outcome == outcome),
                "no {outcome:?} race with reduce = {reduce}: {:?}",
                report.spec_attempts
            );
        }
    }
    // Each backup launched settles its race once.
    let snap = cluster.metrics_snapshot();
    let spec = |name: &str| snap.counter("jobtracker", name);
    let settled = spec("spec.won") + spec("spec.lost") + spec("spec.killed");
    assert_eq!(spec("spec.launched"), settled);
    assert_eq!(report.spec_attempts.len() as u64, settled);
    assert_digest("skewed-speculation", &cluster, &report);
}

/// A tracker with no map slots whose JVM OOMs on the first task it hosts
/// — a *reduce*: the task re-queues when the failed attempt has burned its
/// slot, and with `mapred.max.tracker.failures = 1` the job has already
/// blacklisted the tracker from inside the reduce phase.
#[test]
fn reduce_phase_blacklisting_is_pinned() {
    let mut config = small_block_config();
    config.set(keys::MAPRED_MAX_TRACKER_FAILURES, 1u32);
    let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(4), config).unwrap();
    stage(&mut cluster, 2_000, 3);
    // Node 0 is the reduce phase's first pick (earliest-free, lowest id).
    let victim = NodeId(0);
    let tracker = cluster.tracker_mut(victim).unwrap();
    tracker.map_slots = 0;
    tracker.health.heap.leak_per_buggy_task = tracker.health.heap.heap_limit;
    let mut job = wc("/out/black", 4);
    job.conf = job.conf.speculative(false).leaking(true);
    let report = cluster.run_job(&job).unwrap();

    assert_eq!(report.blacklisted_trackers, vec![victim]);
    assert!(!cluster.tracker_mut(victim).unwrap().health.alive);
    let (maps, reduces): (Vec<_>, Vec<_>) = report.tasks.iter().partition(|t| t.locality.is_some());
    assert!(maps.iter().all(|t| t.attempts == 1), "no map may have failed");
    assert!(reduces.iter().any(|t| t.attempts == 2), "a reduce must have retried");
    assert_digest("reduce-phase-blacklist", &cluster, &report);
}

/// `fail_first_attempts = 1`: every map's first attempt fails and burns
/// its startup and input read; the loop places the retry when that ends.
#[test]
fn injected_first_attempt_failures_are_pinned() {
    let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(4), small_block_config()).unwrap();
    stage(&mut cluster, 2_000, 3);
    let mut job = wc("/out/flaky", 2);
    job.conf = job.conf.fail_first_attempts(1);
    let report = cluster.run_job(&job).unwrap();

    assert!(report.tasks.iter().filter(|t| t.locality.is_some()).all(|t| t.attempts == 2));
    assert_digest("fail-first-attempts", &cluster, &report);
}

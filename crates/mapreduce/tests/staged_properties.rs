//! Properties of staged attempts, drawn over the engine's configurations.
//!
//! Every draw runs a batch of two overlapping wordcounts, each with six
//! CPU-bound reduces, under FIFO, Fair or Capacity, with map-output compression on or off, speculation on or
//! off, on a homogeneous cluster or the library's `skewed` preset, and with
//! or without every map's first attempt failing. Each draw must hold:
//!
//! * each job's output CRC-matches `LocalRunner::serial` — staging an
//!   attempt changes when its charges land, never what it computes;
//! * the charge-order contract: no pipe charge was requested before one
//!   already booked on the same pipe (`ClusterNet::late_charges` is 0);
//! * each backup launched settles its race once:
//!   `spec.launched == spec.won + spec.lost + spec.killed`, and the job
//!   reports carry one record per race;
//! * attempts never overlap on a slot: at no instant does a node run more
//!   attempts than it has slots of their kind — each task's committed
//!   attempt and each backup that lost its race, from the job reports, and
//!   each injected failure, from the JobTracker's log line at its launch,
//!   holding its slot for its burn.
//!
//! `PROPTEST_CASES` lets CI soak the property in release mode.

use hl_cluster::node::{ClusterSpec, HeterogeneousClusterSpec};
use hl_common::checksum::Crc32;
use hl_common::config::{keys, Configuration};
use hl_common::prelude::*;
use hl_mapreduce::api::{MapContext, Mapper, ReduceContext, Reducer, SideFiles};
use hl_mapreduce::job::{Job, JobConf};
use hl_mapreduce::local::LocalRunner;
use hl_mapreduce::report::TaskKind;
use hl_mapreduce::speculate::SpecOutcome;
use hl_mapreduce::{JobReport, MrCluster};
use proptest::prelude::*;

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
    fn reduce(
        &mut self,
        key: impl std::borrow::Borrow<String>,
        values: impl IntoIterator<Item = u64>,
        ctx: &mut ReduceContext,
    ) {
        ctx.emit(key.borrow(), values.into_iter().sum::<u64>());
    }
}

const NODES: usize = 6;
const SLOTS: usize = 2;

fn cases(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_cases)
}

/// A seeded corpus of `words` words over a small vocabulary.
fn text(seed: u64, words: usize) -> String {
    let mut state = seed | 1;
    let mut s = String::new();
    for i in 0..words {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        s.push_str(&format!("w{:02}", state % 40));
        s.push(if i % 9 == 8 { '\n' } else { ' ' });
    }
    s.push('\n');
    s
}

/// One configuration of the engine, as drawn.
#[derive(Debug, Clone, Copy)]
struct Draw {
    policy: &'static str,
    codec: bool,
    speculative: bool,
    skewed: bool,
    fail_first: u32,
    seed: u64,
}

fn conf(d: &Draw, name: &str, user: &str) -> JobConf {
    let mut conf = JobConf::new(name)
        .input(format!("/in/{name}.txt"))
        .output(format!("/out/{name}"))
        .reduces(6)
        .speculative(d.speculative)
        .fail_first_attempts(d.fail_first);
    conf.user = user.into();
    conf.compress_map_output = d.codec;
    conf.spec_heartbeat = SimDuration::from_millis(100);
    conf.spec_cap_pct = 30;
    // CPU-bound reduces, enough of them that reduce backups race too.
    conf.reduce_cpu_per_record = SimDuration::from_micros(500);
    conf
}

fn crc(s: &str) -> u32 {
    Crc32::checksum(s.as_bytes())
}

/// What `LocalRunner::serial` makes of the same job over `input`.
fn truth(d: &Draw, input: &str) -> String {
    let job = Job::new(conf(d, "truth", "u"), || WcMap, || WcReduce);
    let file = [("in.txt".to_string(), input.as_bytes().to_vec())];
    let local = LocalRunner::serial().run(&job, &file, &SideFiles::new()).unwrap();
    local.output.join("\n") + "\n"
}

/// Attempts the reports and the log show, as `(node, kind, start, end)`.
fn attempts(cluster: &MrCluster, reports: &[JobReport]) -> Vec<(NodeId, usize, SimTime, SimTime)> {
    // An injected failure fails a map at its launch and burns its slot for
    // `task_startup` plus 10 s: `… m_NNNNN attempt 1 failed on nodeNNN: …`.
    let burn = JobConf::new("burn").task_startup + SimDuration::from_secs(10);
    let failed = cluster.log.grep("injected failure").filter_map(|e| {
        let node = e.message.split_once(" failed on node")?.1.get(..3)?.parse().ok()?;
        Some((NodeId(node), TaskKind::Map as usize, e.at, e.at + burn))
    });
    let mut out: Vec<_> = failed.collect();
    for r in reports {
        out.extend(r.tasks.iter().map(|t| (t.node, t.kind as usize, t.start, t.end)));
        // A backup that won is its task's committed attempt, already above.
        let lost = r.spec_attempts.iter().filter(|a| a.outcome != SpecOutcome::Won);
        let kind = |reduce: bool| if reduce { TaskKind::Reduce } else { TaskKind::Map } as usize;
        out.extend(lost.map(|a| (NodeId(a.node), kind(a.reduce), a.start, a.end)));
    }
    out
}

fn run(d: Draw) {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 4096u64);
    config.set(keys::MAPRED_MAP_SLOTS, SLOTS);
    config.set(keys::MAPRED_REDUCE_SLOTS, SLOTS);
    config.set(keys::MAPRED_MAX_TRACKER_FAILURES, 1000u32);
    config.set(keys::MAPRED_SCHEDULER, d.policy);
    config.set(keys::MAPRED_FAIR_PREEMPTION_TIMEOUT_SECS, 1u64);
    let base = ClusterSpec::course_hadoop(NODES);
    let mut cluster = if d.skewed {
        MrCluster::new_heterogeneous(&HeterogeneousClusterSpec::skewed(base, d.seed), config)
    } else {
        MrCluster::new(base, config)
    }
    .unwrap();
    cluster.dfs.namenode.mkdirs("/in").unwrap();
    let inputs = [text(d.seed, 12_000), text(d.seed.wrapping_add(1), 8_000)];
    for (name, input) in ["a", "b"].into_iter().zip(&inputs) {
        cluster.put_input(&format!("/in/{name}.txt"), input.as_bytes()).unwrap();
    }
    let a = Job::new(conf(&d, "a", "alice"), || WcMap, || WcReduce);
    let b = Job::new(conf(&d, "b", "bob"), || WcMap, || WcReduce);
    let t0 = cluster.now;
    let batch: [(SimTime, &dyn hl_mapreduce::JobCode); 2] =
        [(t0, &a), (t0 + SimDuration::from_millis(500), &b)];
    let reports: Vec<JobReport> =
        cluster.run_jobs(&batch).into_iter().map(|r| r.unwrap()).collect();

    for (name, input) in ["a", "b"].into_iter().zip(&inputs) {
        let out = cluster.read_output(&format!("/out/{name}")).unwrap();
        assert_eq!(crc(&out), crc(&truth(&d, input)), "{d:?}: job {name}'s output");
    }
    assert_eq!(cluster.net.late_charges(), 0, "{d:?}: a charge was booked out of order");
    let snap = cluster.metrics_snapshot();
    let spec = |name: &str| snap.counter("jobtracker", name);
    let settled = spec("spec.won") + spec("spec.lost") + spec("spec.killed");
    assert_eq!(spec("spec.launched"), settled, "{d:?}: a race was settled twice or never");
    let races = reports.iter().map(|r| r.spec_attempts.len() as u64).sum::<u64>();
    assert_eq!(races, settled, "{d:?}: the reports' races");
    let spans = attempts(&cluster, &reports);
    let failures = spans.len() - reports.iter().map(|r| r.tasks.len()).sum::<usize>();
    assert!(d.fail_first == 0 || failures > 0, "{d:?}: no failed attempt was found in the log");
    for &(node, kind, at, _) in &spans {
        let busy = spans.iter().filter(|s| (s.0, s.1) == (node, kind) && s.2 <= at && at < s.3);
        assert!(busy.count() <= SLOTS, "{d:?}: {node} runs more attempts than slots at {at:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(12), ..ProptestConfig::default() })]

    #[test]
    fn staged_attempts_keep_output_charge_order_and_slots(
        policy in prop_oneof![Just("fifo"), Just("fair"), Just("capacity")],
        codec in any::<bool>(),
        speculative in any::<bool>(),
        skewed in any::<bool>(),
        fail_first in 0u32..2,
        seed in any::<u64>(),
    ) {
        run(Draw { policy, codec, speculative, skewed, fail_first, seed });
    }
}

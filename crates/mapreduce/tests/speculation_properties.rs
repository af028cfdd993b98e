//! Output-neutrality properties for speculative execution.
//!
//! Speculation is a *latency* mechanism: racing a second attempt of a
//! straggling task must never change what the job computes. These
//! properties drive the full cluster engine across randomly skewed
//! heterogeneous clusters and check, for every skew profile and seed:
//!
//! * the cluster's output is byte-identical (CRC-checked) to the
//!   `LocalJobRunner` ground truth with speculation **on**, and
//! * on a homogeneous cluster, disabling speculation is byte-stable —
//!   spec-on and spec-off produce the same bytes (on uniform hardware a
//!   well-behaved speculator should rarely even launch).

use hl_cluster::node::{ClusterSpec, DegradeModel, HeterogeneousClusterSpec, PerfProfile};
use hl_common::checksum::Crc32;
use hl_common::config::{keys, Configuration};
use hl_common::prelude::*;
use hl_mapreduce::api::{MapContext, Mapper, ReduceContext, Reducer, SideFiles};
use hl_mapreduce::job::{Job, JobConf};
use hl_mapreduce::local::LocalRunner;
use hl_mapreduce::MrCluster;

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

/// splitmix64 — deterministic randomness without a rand dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn gen_text(seed: u64, words: usize, vocab: usize) -> String {
    let mut state = seed;
    let mut s = String::new();
    for i in 0..words {
        s.push_str(&format!("w{:03}", splitmix(&mut state) as usize % vocab.max(1)));
        s.push(if i % 11 == 10 { '\n' } else { ' ' });
    }
    s.push('\n');
    s
}

const NODES: usize = 6;

/// A random degrade model drawn from the seed: a static throttle, an
/// early-onset decay, or a transient window — all at test timescale so
/// they actually shape the (few-second) jobs the property runs.
fn random_model(state: &mut u64) -> DegradeModel {
    let bp = 500 + (splitmix(state) % 6_000) as u32;
    match splitmix(state) % 3 {
        0 => DegradeModel::Static(PerfProfile::uniform(bp)),
        1 => DegradeModel::Decay {
            from: SimTime(splitmix(state) % 2_000_000),
            ramp: SimDuration(500_000 + splitmix(state) % 4_000_000),
            floor: PerfProfile::uniform(bp),
        },
        _ => DegradeModel::Window {
            from: SimTime(splitmix(state) % 2_000_000),
            until: SimTime(2_000_000 + splitmix(state) % 5_000_000),
            during: PerfProfile::uniform(bp),
        },
    }
}

/// Build a cluster; `skew_seed` draws 1–3 random degrade models.
fn cluster(skew_seed: Option<u64>) -> MrCluster {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 4096u64);
    let base = ClusterSpec::course_hadoop(NODES);
    match skew_seed {
        Some(seed) => {
            let mut state = seed;
            let mut spec = HeterogeneousClusterSpec::new(base);
            for _ in 0..=(splitmix(&mut state) % 3) {
                let node = NodeId((splitmix(&mut state) % NODES as u64) as u32);
                let model = random_model(&mut state);
                spec = spec.with_model(node, model);
            }
            MrCluster::new_heterogeneous(&spec, config).unwrap()
        }
        None => MrCluster::new(base, config).unwrap(),
    }
}

fn wc_conf(speculative: bool) -> JobConf {
    let mut conf = JobConf::new("spec-prop").input("/in/data.txt").output("/out/wc").reduces(3);
    conf = conf.speculative(speculative);
    // Test timescale: tasks finish in well under the 3 s default heartbeat,
    // so tighten it (and the cap) to give the speculator a real chance to
    // launch under skew — the property must hold *with* speculation active.
    conf.spec_heartbeat = SimDuration::from_millis(100);
    conf.spec_cap_pct = 30;
    conf
}

/// Run wordcount on the given cluster and return the concatenated output.
fn run_on_cluster(mut c: MrCluster, text: &str, speculative: bool) -> (String, u64) {
    c.dfs.namenode.mkdirs("/in").unwrap();
    c.put_input("/in/data.txt", text.as_bytes()).unwrap();
    let job = Job::new(wc_conf(speculative), || WcMap, || WcReduce);
    let report = c.run_job(&job).unwrap();
    assert!(report.success);
    let launched = c.metrics_snapshot().counter("jobtracker", "spec.launched");
    (c.read_output("/out/wc").unwrap(), launched)
}

/// The `LocalJobRunner` ground truth for the same job shape (same reduce
/// count and default partitioner ⇒ same partition order ⇒ same bytes).
fn local_truth(text: &str) -> String {
    let job = Job::new(wc_conf(false), || WcMap, || WcReduce);
    let report = LocalRunner::serial()
        .run(&job, &[("data.txt".to_string(), text.as_bytes().to_vec())], &SideFiles::new())
        .unwrap();
    let mut out = report.output.join("\n");
    out.push('\n');
    out
}

fn crc(s: &str) -> u32 {
    Crc32::checksum(s.as_bytes())
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig {
        cases: 12,
        ..proptest::prelude::ProptestConfig::default()
    })]

    /// Across random skew profiles and corpora, speculation never changes
    /// job output: the cluster's bytes CRC-match the LocalJobRunner's.
    #[test]
    fn prop_speculation_is_output_neutral_under_skew(
        seed in proptest::prelude::any::<u64>(),
        words in 400usize..1500,
        vocab in 5usize..60,
    ) {
        let text = gen_text(seed, words, vocab);
        let (out, _) = run_on_cluster(cluster(Some(seed)), &text, true);
        let truth = local_truth(&text);
        proptest::prop_assert_eq!(crc(&out), crc(&truth), "skew seed {}", seed);
        proptest::prop_assert_eq!(out, truth);
    }

    /// On homogeneous clusters, flipping speculation off is byte-stable.
    #[test]
    fn prop_disabling_speculation_is_byte_stable_when_homogeneous(
        seed in proptest::prelude::any::<u64>(),
        words in 400usize..1500,
        vocab in 5usize..60,
    ) {
        let text = gen_text(seed, words, vocab);
        let (with_spec, _) = run_on_cluster(cluster(None), &text, true);
        let (without, launched_off) = run_on_cluster(cluster(None), &text, false);
        proptest::prop_assert_eq!(launched_off, 0, "spec-off must launch nothing");
        proptest::prop_assert_eq!(crc(&with_spec), crc(&without));
        proptest::prop_assert_eq!(with_spec, without);
    }
}

/// A pinned heavy-skew case that reliably launches (and wins) speculative
/// attempts, proving the properties above exercise speculation for real
/// rather than passing vacuously.
#[test]
fn skewed_cluster_actually_speculates_and_stays_correct() {
    let text = gen_text(7, 16_000, 30);
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 4096u64);
    // Every node holds a replica, so rescue attempts read locally instead
    // of queueing on the straggler's disk.
    config.set(keys::DFS_REPLICATION, NODES as u64);
    let spec = HeterogeneousClusterSpec::new(ClusterSpec::course_hadoop(NODES))
        .with_model(NodeId(1), DegradeModel::Static(PerfProfile::uniform(2_000)));
    let c = MrCluster::new_heterogeneous(&spec, config).unwrap();
    let (out, launched) = run_on_cluster(c, &text, true);
    assert!(launched > 0, "a 5x straggler tier must trigger speculation");
    assert_eq!(out, local_truth(&text));
}

//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, sizes, and seeds.

use proptest::prelude::*;

use hadoop_lab::cluster::node::ClusterSpec;
use hadoop_lab::common::config::{keys, Configuration};
use hadoop_lab::common::simtime::SimTime;
use hadoop_lab::dfs::client::Dfs;
use hadoop_lab::mapreduce::api::SideFiles;
use hadoop_lab::mapreduce::engine::MrCluster;
use hadoop_lab::mapreduce::local::LocalRunner;
use hadoop_lab::workloads::wordcount;

fn counts(lines: &[String]) -> std::collections::BTreeMap<String, u64> {
    lines
        .iter()
        .map(|l| {
            let (k, v) = l.split_once('\t').unwrap();
            (k.to_string(), v.parse().unwrap())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// DFS round-trip: any bytes, any block size, any replication that the
    /// cluster can satisfy — reads return exactly what was written.
    #[test]
    fn dfs_put_read_round_trips(
        data in proptest::collection::vec(any::<u8>(), 0..20_000),
        block_size in 64u64..4096,
        replication in 1u32..4,
        nodes in 3usize..8,
    ) {
        let spec = ClusterSpec::course_hadoop(nodes);
        let mut config = Configuration::with_defaults();
        config.set(keys::DFS_BLOCK_SIZE, block_size);
        let mut dfs = Dfs::format(&config, &spec).unwrap();
        let mut net = hadoop_lab::cluster::network::ClusterNet::new(&spec);
        dfs.namenode.mkdirs("/p").unwrap();
        let put = dfs
            .put_with_replication(&mut net, SimTime::ZERO, "/p/f", &data, None, replication)
            .unwrap();
        let got = dfs.read(&mut net, put.completed_at, "/p/f", None).unwrap();
        prop_assert_eq!(got.value, data.clone());
        // Metadata agrees with content.
        prop_assert_eq!(
            dfs.namenode.namespace().file("/p/f").unwrap().len,
            data.len() as u64
        );
        let blocks = dfs.file_blocks("/p/f").unwrap();
        prop_assert_eq!(blocks.len() as u64, (data.len() as u64).div_ceil(block_size));
        for (_, _, holders) in blocks {
            prop_assert_eq!(holders.len() as u32, replication.min(nodes as u32));
        }
    }

    /// WordCount agrees between the serial local runner and the cluster,
    /// and with a trivial reference count, for arbitrary text.
    #[test]
    fn wordcount_modes_agree(
        text in proptest::collection::vec("[a-d]{1,4}( [a-d]{1,4}){0,6}", 1..30),
        block_size in 32u64..512,
        reduces in 1usize..4,
    ) {
        let joined = format!("{}\n", text.join("\n"));
        // Reference.
        let mut expected = std::collections::BTreeMap::new();
        for w in joined.split_whitespace() {
            *expected.entry(w.to_string()).or_insert(0u64) += 1;
        }
        // Serial.
        let local = LocalRunner::serial()
            .run(
                &wordcount::wordcount("/i", "/o", reduces),
                &[("t.txt".to_string(), joined.clone().into_bytes())],
                &SideFiles::new(),
            )
            .unwrap();
        prop_assert_eq!(&counts(&local.output), &expected);
        // Cluster.
        let mut config = Configuration::with_defaults();
        config.set(keys::DFS_BLOCK_SIZE, block_size);
        let mut c = MrCluster::new(ClusterSpec::course_hadoop(4), config).unwrap();
        c.dfs.namenode.mkdirs("/in").unwrap();
        c.put_input("/in/t.txt", joined.as_bytes()).unwrap();
        let job = wordcount::wordcount_combiner("/in/t.txt", "/out", reduces);
        c.run_job(&job).unwrap();
        let out: Vec<String> =
            c.read_output("/out").unwrap().lines().map(str::to_string).collect();
        prop_assert_eq!(&counts(&out), &expected);
    }

    /// Determinism: the same job on the same data costs exactly the same
    /// virtual time, every time.
    #[test]
    fn virtual_time_is_deterministic(seed in 0u64..50) {
        let run_once = || {
            let (text, _) =
                hadoop_lab::datagen::corpus::CorpusGen::new(seed).with_vocab(50).generate(2000);
            let mut config = Configuration::with_defaults();
            config.set(keys::DFS_BLOCK_SIZE, 2048u64);
            let mut c = MrCluster::new(ClusterSpec::course_hadoop(4), config).unwrap();
            c.dfs.namenode.mkdirs("/in").unwrap();
            c.put_input("/in/c.txt", text.as_bytes()).unwrap();
            let report =
                c.run_job(&wordcount::wordcount("/in/c.txt", "/out", 2)).unwrap();
            (report.finished_at, report.shuffle_bytes(), report.counters)
        };
        let a = run_once();
        let b = run_once();
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
    }

    /// Losing any single DataNode never loses data at replication 3.
    #[test]
    fn single_node_loss_is_survivable(
        victim in 0u32..5,
        data in proptest::collection::vec(any::<u8>(), 1..5_000),
    ) {
        let spec = ClusterSpec::course_hadoop(5);
        let mut config = Configuration::with_defaults();
        config.set(keys::DFS_BLOCK_SIZE, 512u64);
        let mut dfs = Dfs::format(&config, &spec).unwrap();
        let mut net = hadoop_lab::cluster::network::ClusterNet::new(&spec);
        dfs.namenode.mkdirs("/p").unwrap();
        let put = dfs.put(&mut net, SimTime::ZERO, "/p/f", &data, None).unwrap();
        dfs.crash_datanode(hadoop_lab::common::topology::NodeId(victim));
        let got = dfs.read(&mut net, put.completed_at, "/p/f", None).unwrap();
        prop_assert_eq!(got.value, data);
    }
}

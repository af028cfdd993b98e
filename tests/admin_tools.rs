//! Integration tests for the administration layer — fsck/report/balancer/
//! decommission — exercised through the public facade on a cluster that is
//! also running jobs.

use hadoop_lab::cluster::network::ClusterNet;
use hadoop_lab::cluster::node::ClusterSpec;
use hadoop_lab::common::config::{keys, Configuration};
use hadoop_lab::common::simtime::SimTime;
use hadoop_lab::common::topology::NodeId;
use hadoop_lab::datagen::corpus::CorpusGen;
use hadoop_lab::dfs::admin;
use hadoop_lab::dfs::client::Dfs;
use hadoop_lab::mapreduce::engine::MrCluster;
use hadoop_lab::workloads::{cooccurrence, wordcount};

#[test]
fn cooccurrence_pairs_and_stripes_agree_on_the_cluster() {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 32 * 1024u64);
    let mut c = MrCluster::new(ClusterSpec::course_hadoop(8), config).unwrap();
    let (text, _) = CorpusGen::new(31).with_vocab(100).generate(8_000);
    c.dfs.namenode.mkdirs("/in").unwrap();
    c.put_input("/in/c.txt", text.as_bytes()).unwrap();

    let pairs_report = c.run_job(&cooccurrence::pairs("/in/c.txt", "/out/p", 3)).unwrap();
    let stripes_report = c.run_job(&cooccurrence::stripes("/in/c.txt", "/out/s", 3)).unwrap();
    let mut p: Vec<String> = c.read_output("/out/p").unwrap().lines().map(String::from).collect();
    let mut s: Vec<String> = c.read_output("/out/s").unwrap().lines().map(String::from).collect();
    p.sort();
    s.sort();
    assert_eq!(p, s, "pairs and stripes must agree");
    assert!(!p.is_empty());
    // Stripes shuffles less.
    assert!(stripes_report.shuffle_bytes() < pairs_report.shuffle_bytes());
    // Both landed in the JobTracker history.
    assert_eq!(c.history.entries().len(), 2);
    assert!(c.history.to_string().contains("cooccurrence-pairs"));
}

#[test]
fn balancer_on_a_lopsided_cluster_preserves_readability() {
    let mut spec = ClusterSpec::course_hadoop(6);
    spec.node.disk_bytes = 4 << 20;
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 16 * 1024u64);
    config.set(keys::DFS_REPLICATION, 1);
    let mut dfs = Dfs::format(&config, &spec).unwrap();
    let mut net = ClusterNet::new(&spec);
    dfs.namenode.mkdirs("/d").unwrap();
    // Pile single-replica files onto node0.
    let mut payloads = Vec::new();
    for i in 0..10 {
        let data: Vec<u8> = (0..40_000u32).map(|x| ((x * 7 + i) % 251) as u8).collect();
        dfs.put(&mut net, SimTime::ZERO, &format!("/d/f{i}"), &data, Some(NodeId(0))).unwrap();
        payloads.push(data);
    }
    let result = admin::balance(&mut dfs, &mut net, SimTime::ZERO, 0.02, 500);
    assert!(result.spread_after < result.spread_before, "{result:?}");
    // Every file still reads back exactly.
    for (i, want) in payloads.iter().enumerate() {
        let got = dfs.read(&mut net, result.completed_at, &format!("/d/f{i}"), None).unwrap();
        assert_eq!(&got.value, want, "/d/f{i}");
    }
}

#[test]
fn decommission_then_run_a_job_on_the_survivors() {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 16 * 1024u64);
    let mut c = MrCluster::new(ClusterSpec::course_hadoop(6), config).unwrap();
    let (text, truth) = CorpusGen::new(5).with_vocab(60).generate(4_000);
    c.dfs.namenode.mkdirs("/in").unwrap();
    c.put_input("/in/c.txt", text.as_bytes()).unwrap();

    // Drain node 2 completely, then retire it.
    let t = c.now;
    let done = admin::decommission_node(&mut c.dfs, &mut c.net, t, NodeId(2)).unwrap();
    c.now = done.completed_at;
    assert!(!c.dfs.datanode(NodeId(2)).unwrap().alive);

    // The cluster still answers correctly without the retired node.
    c.run_job(&wordcount::wordcount_combiner("/in/c.txt", "/out", 2)).unwrap();
    let out = c.read_output("/out").unwrap();
    let mut total = 0u64;
    for line in out.lines() {
        let (w, n) = line.split_once('\t').unwrap();
        assert_eq!(truth[w], n.parse::<u64>().unwrap(), "{w}");
        total += truth[w];
    }
    assert_eq!(total, 4_000);
}

#[test]
fn dfsadmin_report_tracks_a_session() {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 8 * 1024u64);
    let mut c = MrCluster::new(ClusterSpec::course_hadoop(4), config).unwrap();
    let before = admin::report(&c.dfs);
    assert_eq!(before.nodes.iter().map(|n| n.blocks).sum::<usize>(), 0);
    assert!(!before.safemode);

    let (text, _) = CorpusGen::new(1).with_vocab(40).generate(3_000);
    c.dfs.namenode.mkdirs("/in").unwrap();
    c.put_input("/in/c.txt", text.as_bytes()).unwrap();
    c.run_job(&wordcount::wordcount("/in/c.txt", "/out", 1)).unwrap();

    let after = admin::report(&c.dfs);
    let blocks: usize = after.nodes.iter().map(|n| n.blocks).sum();
    assert!(blocks > 3 * 3, "input + output replicas on disk: {blocks}");
    assert_eq!(after.under_replicated, 0);
    assert_eq!(after.missing, 0);
    assert!(after.to_string().contains("In Service"));
}

#[test]
fn total_order_sort_holds_on_the_cluster_too() {
    // The engine path for custom partitioners: reduce outputs are
    // part-r-NNNNN files; with the range partitioner, reading them in
    // partition order yields a globally sorted word list.
    use hadoop_lab::workloads::terasort;

    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 16 * 1024u64);
    let mut c = MrCluster::new(ClusterSpec::course_hadoop(6), config).unwrap();
    let (text, truth) = CorpusGen::new(77).with_vocab(250).generate(10_000);
    c.dfs.namenode.mkdirs("/in").unwrap();
    c.put_input("/in/c.txt", text.as_bytes()).unwrap();

    let cuts = terasort::sample_cut_points(&text, 4);
    let job = terasort::sorted_wordcount("/in/c.txt", "/out", cuts);
    let report = c.run_job(&job).unwrap();
    assert!(report.success);

    // read_output concatenates part files in partition order.
    let out = c.read_output("/out").unwrap();
    let keys_out: Vec<&str> = out.lines().map(|l| l.split_once('\t').unwrap().0).collect();
    assert_eq!(keys_out.len(), truth.len());
    assert!(
        keys_out.windows(2).all(|w| w[0] < w[1]),
        "global sort must hold across part-file boundaries"
    );
    for line in out.lines() {
        let (k, v) = line.split_once('\t').unwrap();
        assert_eq!(truth[k], v.parse::<u64>().unwrap(), "{k}");
    }
}

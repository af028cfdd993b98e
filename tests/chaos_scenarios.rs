//! Asserted chaos scenarios: the paper's operational war stories, driven
//! end-to-end with every step checked (the `meltdown_drill` example shows
//! the same stories; these tests pin them down).

use hadoop_lab::chaos::{ChaosRunner, ScenarioPack};
use hadoop_lab::cluster::node::ClusterSpec;
use hadoop_lab::common::config::keys;
use hadoop_lab::common::prelude::*;
use hadoop_lab::datagen::CorpusGen;
use hadoop_lab::dfs::editlog::EditLog;
use hadoop_lab::dfs::fsck::fsck;
use hadoop_lab::dfs::namespace::Namespace;
use hadoop_lab::mapreduce::MrCluster;
use hadoop_lab::workloads::wordcount::wordcount;

fn chaos_cluster(extension_secs: u64) -> MrCluster {
    let spec = ClusterSpec::course_hadoop(5);
    let mut config = Configuration::with_defaults();
    // Small blocks for a real block map, short dead-node timeout (60 s)
    // so the drill fits in a 90 s protocol window.
    config.set(keys::DFS_BLOCK_SIZE, 1024u64);
    config.set(keys::DFS_HEARTBEAT_DEAD_AFTER, 20u64);
    config.set(keys::DFS_SAFEMODE_EXTENSION_SECS, extension_secs);
    MrCluster::new(spec, config).unwrap()
}

fn stage_corpus(cluster: &mut MrCluster, seed: u64, words: usize) -> String {
    cluster.dfs.namenode.mkdirs("/in").unwrap();
    let (corpus, _) = CorpusGen::new(seed).generate(words);
    cluster.put_input("/in/corpus.txt", corpus.as_bytes()).unwrap();
    corpus
}

/// Fall 2012: a heap-leaking student job OOMs the TaskTracker JVM *and*
/// the colocated DataNode; ten minutes later the NameNode declares the
/// node dead and re-replication quietly restores 3x.
#[test]
fn meltdown_drill_crashes_node_and_rereplicates() {
    let mut cluster = chaos_cluster(30);
    stage_corpus(&mut cluster, 42, 2000);

    // Only node 2's daemon accumulates the leak: one student's bad JVM.
    let victim = NodeId(2);
    cluster.tracker_mut(victim).unwrap().health.heap.leak_per_buggy_task = 900 * ByteSize::MIB;

    let mut job = wordcount("/in/corpus.txt", "/out/melt", 2);
    job.conf.leaks_memory = true;
    let result = cluster.run_job(&job);

    // Step 1: the OOM killed the TaskTracker and its colocated DataNode.
    let tracker = cluster.tracker_mut(victim).unwrap();
    assert!(!tracker.health.alive, "leaky tasks must OOM the victim tracker");
    assert!(tracker.health.crashes >= 1);
    assert!(!cluster.dfs.datanode(victim).unwrap().alive, "colocated DataNode dies with it");
    // The job either survived on the other trackers or failed cleanly.
    if let Err(e) = result {
        assert!(
            matches!(e, HlError::JobFailed(_) | HlError::TaskFailed(_) | HlError::DaemonDown(_)),
            "unclean failure: {e}"
        );
    }

    // Step 2: the NameNode still lists the dead node as a replica holder —
    // heartbeats have not timed out yet.
    let held: Vec<_> = cluster
        .dfs
        .namenode
        .block_manifest()
        .into_iter()
        .filter(|&(id, ..)| cluster.dfs.namenode.block_locations(id).contains(&victim))
        .collect();
    assert!(!held.is_empty(), "victim held replicas when it died");

    // Step 3: drive the protocol past the dead-node timeout. The sweep
    // declares the node dead and the replication monitor restores 3x on
    // the survivors.
    cluster.now += SimDuration::from_secs(90);
    cluster.dfs.advance_to(&mut cluster.net, cluster.now);

    for (id, _, expected, _) in cluster.dfs.namenode.block_manifest() {
        let locations = cluster.dfs.namenode.block_locations(id);
        assert_eq!(locations.len() as u32, expected, "blk_{} not restored", id.0);
        assert!(!locations.contains(&victim), "blk_{} still on the dead node", id.0);
    }
    let report = fsck(&cluster.dfs, "/").unwrap();
    assert_eq!(report.missing, 0);
    assert_eq!(report.under_replicated, 0);
    assert_eq!(report.live_datanodes, 4);
}

/// The DFS protocol runs on the JobTracker's clock: the same OOM takes the
/// DataNode down under a running attempt, and with a 3 s dead-node timeout
/// the NameNode declares it dead while the failed attempt still burns its
/// slot — before `run_job` returns, with no caller driving a round.
#[test]
fn a_datanode_that_dies_mid_job_is_declared_dead_before_the_job_returns() {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 1024u64);
    config.set(keys::DFS_HEARTBEAT_DEAD_AFTER, 1u64);
    let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(5), config).unwrap();
    stage_corpus(&mut cluster, 42, 2000);
    let victim = NodeId(2);
    cluster.tracker_mut(victim).unwrap().health.heap.leak_per_buggy_task = 900 * ByteSize::MIB;

    let mut job = wordcount("/in/corpus.txt", "/out/melt", 2);
    job.conf.leaks_memory = true;
    let report = cluster.run_job(&job).expect("the job survives on the other trackers");

    assert!(!cluster.dfs.datanode(victim).unwrap().alive, "the OOM took the DataNode down");
    let snap = cluster.dfs.metrics_snapshot(cluster.now);
    assert_eq!(snap.counter("namenode", "datanodes.declared_dead"), 1);
    let live = cluster.dfs.namenode.live_datanodes();
    assert_eq!(live, [0, 1, 3, 4].map(NodeId), "declared dead by {}", report.finished_at);
}

/// The NameNode crashes mid-workload. Its edit log — serialized,
/// deserialized, and replayed into an empty namespace — reproduces the
/// exact pre-crash tree and block map, and the restarted NameNode sits
/// in safe mode until block reports stream back in.
#[test]
fn editlog_replay_recovers_namespace_and_block_map() {
    let mut cluster = chaos_cluster(0);
    let corpus = stage_corpus(&mut cluster, 7, 800);

    // A busy life before the crash: a completed job, a scratch file
    // created and deleted.
    cluster.run_job(&wordcount("/in/corpus.txt", "/out/wc", 2)).unwrap();
    cluster.dfs.namenode.mkdirs("/scratch").unwrap();
    cluster.put_input("/scratch/tmp", b"temporary\n").unwrap();
    let cmds = cluster.dfs.namenode.delete("/scratch/tmp", false).unwrap();
    let now = cluster.now;
    cluster.dfs.apply_commands(&mut cluster.net, now, &cmds);

    let ns_before = cluster.dfs.namenode.namespace().clone();
    let manifest_before = cluster.dfs.namenode.block_manifest();

    // The journal alone reconstructs the tree: serialize, deserialize,
    // replay into an empty namespace, compare.
    let journal = cluster.dfs.namenode.editlog.serialize();
    let replayed = EditLog::deserialize(&journal).unwrap();
    let mut fresh = Namespace::new();
    replayed.replay(&mut fresh).unwrap();
    assert_eq!(fresh, ns_before, "journal replay must reproduce the live namespace");

    // Cold restart: namespace and block map survive; replica locations
    // are forgotten and must be re-learned from block reports.
    let now = cluster.now;
    cluster.dfs.namenode.restart(now).unwrap();
    assert!(cluster.dfs.namenode.safemode.is_on());
    assert_eq!(cluster.dfs.namenode.namespace(), &ns_before);
    assert_eq!(cluster.dfs.namenode.block_manifest(), manifest_before);
    assert!(manifest_before.iter().all(|&(id, ..)| cluster
        .dfs
        .namenode
        .block_locations(id)
        .is_empty()));
    assert!(
        matches!(cluster.dfs.namenode.mkdirs("/nope"), Err(HlError::SafeMode(_))),
        "mutations must be refused in safe mode"
    );

    // Safe mode exits only once block reports account for the blocks.
    let mut exited_after = None;
    for (i, node) in cluster.dfs.datanode_ids().into_iter().enumerate() {
        assert!(
            cluster.dfs.namenode.safemode.is_on(),
            "safe mode must hold until enough reports arrive"
        );
        let (free, report) = {
            let dn = cluster.dfs.datanode(node).unwrap();
            (dn.free_bytes(), dn.block_report())
        };
        let t = now + SimDuration::from_secs(i as u64 + 1);
        cluster.dfs.namenode.register_datanode(t, node, free);
        if cluster.dfs.namenode.process_block_report(t, node, &report) {
            exited_after = Some(i + 1);
            break;
        }
    }
    let reports = exited_after.expect("safe mode exits after block reports");
    assert!(reports >= 2, "one DataNode cannot account for a 5-node block map");
    assert!(!cluster.dfs.namenode.safemode.is_on());

    // The recovered cluster serves the old bytes and runs new jobs.
    let t = cluster.now;
    let got = cluster.dfs.read(&mut cluster.net, t, "/in/corpus.txt", None).unwrap();
    assert_eq!(got.value, corpus.as_bytes());
    let report = cluster.run_job(&wordcount("/in/corpus.txt", "/out/wc2", 1)).unwrap();
    assert!(report.success);
}

/// The chaos harness itself, through the facade: one seed per pack runs
/// clean, and a replay reproduces the exact trace hash.
#[test]
fn chaos_packs_run_clean_and_replay_identically() {
    for pack in ScenarioPack::ALL {
        let first = ChaosRunner::run(pack, 1).unwrap();
        assert!(first.ok(), "{pack} seed 1 violated: {:?}", first.violations);
        let again = ChaosRunner::run(pack, 1).unwrap();
        assert_eq!(first.trace_hash, again.trace_hash, "{pack} seed 1 must replay");
    }
}

//! Cross-crate integration tests: the full platform exercised the way the
//! course used it, with answers checked against generator ground truth.

use hadoop_lab::cluster::node::ClusterSpec;
use hadoop_lab::common::config::{keys, Configuration};
use hadoop_lab::common::simtime::{SimDuration, SimTime};
use hadoop_lab::datagen::airline::AirlineGen;
use hadoop_lab::datagen::google_trace::GoogleTraceGen;
use hadoop_lab::datagen::movielens::MovieLensGen;
use hadoop_lab::datagen::yahoo_music::YahooMusicGen;
use hadoop_lab::dfs::shell::{DfsShell, LocalFs};
use hadoop_lab::mapreduce::engine::MrCluster;
use hadoop_lab::workloads::{airline, google, movielens, yahoo};

fn cluster(block_size: u64) -> MrCluster {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, block_size);
    MrCluster::new(ClusterSpec::course_hadoop(8), config).unwrap()
}

fn stage(c: &mut MrCluster, path: &str, bytes: &[u8]) {
    let dir = path.rsplit_once('/').unwrap().0;
    if !dir.is_empty() {
        c.dfs.namenode.mkdirs(dir).unwrap();
    }
    let t = c.now;
    let put = c.dfs.put(&mut c.net, t, path, bytes, None).unwrap();
    c.now = put.completed_at;
}

#[test]
fn airline_lab_on_the_cluster_matches_truth() {
    let (csv, truth) = AirlineGen::new(404).generate(30_000);
    let mut c = cluster(128 * 1024);
    stage(&mut c, "/in/2008.csv", csv.as_bytes());
    let report = c.run_job(&airline::avg_delay_combiner("/in/2008.csv", "/out")).unwrap();
    assert!(report.success);
    let out = c.read_output("/out").unwrap();
    let parsed = airline::parse_output(&out.lines().map(str::to_string).collect::<Vec<_>>());
    assert_eq!(parsed.len(), truth.per_carrier.len());
    for (carrier, &(n, s)) in &truth.per_carrier {
        let want: f64 = format!("{:.2}", s as f64 / n as f64).parse().unwrap();
        assert!((parsed[carrier] - want).abs() < 1e-9, "{carrier}");
    }
}

#[test]
fn movielens_assignment_on_the_cluster_matches_truth() {
    let data = MovieLensGen::new(500).with_sizes(400, 200).generate(8_000);
    let mut c = cluster(64 * 1024);
    stage(&mut c, "/in/ratings.dat", data.ratings.as_bytes());
    stage(&mut c, "/cache/movies.dat", data.movies.as_bytes());
    c.cache_from_dfs("/cache/movies.dat").unwrap();

    c.run_job(&movielens::most_active_user("/in/ratings.dat", "/cache/movies.dat", "/out"))
        .unwrap();
    let out = c.read_output("/out").unwrap();
    let fields: Vec<&str> = out.trim().split('\t').collect();
    let (user, count) = data.truth.most_active_user().unwrap();
    assert_eq!(fields[0].parse::<u32>().unwrap(), user);
    assert_eq!(fields[1].parse::<u64>().unwrap(), count);
    assert_eq!(fields[2], data.truth.favorite_genre(user).unwrap());
}

#[test]
fn yahoo_assignment_on_the_cluster_matches_truth() {
    let data = YahooMusicGen::new(500).generate(20_000);
    let mut c = cluster(128 * 1024);
    stage(&mut c, "/in/song_ratings.txt", data.ratings.as_bytes());
    c.register_side_file("/cache/songs.txt", data.songs.into_bytes());
    c.run_job(&yahoo::best_album("/in/song_ratings.txt", "/cache/songs.txt", "/out")).unwrap();
    let out = c.read_output("/out").unwrap();
    let (album, avg) = data.truth.best_album().unwrap();
    let fields: Vec<&str> = out.trim().split('\t').collect();
    assert_eq!(fields[0].parse::<u32>().unwrap(), album);
    assert!((fields[1].parse::<f64>().unwrap() - avg).abs() < 1e-3);
}

#[test]
fn google_trace_project_on_the_cluster_matches_truth() {
    let (log, truth) = GoogleTraceGen::new(500).with_jobs(120, 20).generate();
    let mut c = cluster(256 * 1024);
    stage(&mut c, "/in/task_events.csv", log.as_bytes());
    c.run_job(&google::worst_job("/in/task_events.csv", "/out")).unwrap();
    let out = c.read_output("/out").unwrap();
    let (j, n) = out.trim().split_once('\t').unwrap();
    let (tj, tn) = truth.worst_job().unwrap();
    assert_eq!(j.parse::<u64>().unwrap(), tj);
    assert_eq!(n.parse::<u64>().unwrap(), tn);
}

#[test]
fn shell_session_over_a_cluster_with_jobs() {
    // Students interleave `hadoop fs` commands with job runs; everything
    // shares one namespace and one virtual clock.
    let mut c = cluster(64 * 1024);
    let (csv, _) = AirlineGen::new(9).generate(2_000);
    {
        let mut local = LocalFs::new();
        local.write("2008.csv", csv.into_bytes());
        let mut shell = DfsShell { dfs: &mut c.dfs, net: &mut c.net, local: &mut local };
        shell.run(SimTime::ZERO, "-mkdir /in").unwrap();
        shell.run(SimTime::ZERO, "-put 2008.csv /in/2008.csv").unwrap();
        let ls = shell.run(SimTime::ZERO, "-ls /in").unwrap();
        assert!(ls.stdout.contains("/in/2008.csv"));
    }
    let report = c.run_job(&airline::avg_delay_plain("/in/2008.csv", "/out")).unwrap();
    assert!(report.success);
    {
        let mut local = LocalFs::new();
        let mut shell = DfsShell { dfs: &mut c.dfs, net: &mut c.net, local: &mut local };
        let fsck = shell.run(c.now, "-fsck /").unwrap();
        assert!(fsck.stdout.contains("Status: HEALTHY"), "{}", fsck.stdout);
        // Job output is part of the namespace now.
        let cat = shell.run(c.now, "-cat /out/part-r-00000").unwrap();
        assert!(cat.stdout.contains('\t'));
    }
}

#[test]
fn cluster_survives_node_loss_mid_semester() {
    // Stage data, kill a node, let re-replication heal, then run a job
    // that needs the healed blocks.
    let (csv, truth) = AirlineGen::new(31).generate(10_000);
    let mut c = cluster(64 * 1024);
    stage(&mut c, "/in/2008.csv", csv.as_bytes());
    let victim = c.dfs.file_blocks("/in/2008.csv").unwrap()[0].2[0];
    c.dfs.crash_datanode(victim);
    c.now += SimDuration::from_secs(3 * 230);
    c.dfs.advance_to(&mut c.net, c.now);
    assert!(c.dfs.namenode.under_replicated().is_empty(), "healed");
    // The TaskTracker on the dead node is gone too in a real crash; here
    // only the DataNode died, so all 8 trackers still run maps — but none
    // may read from the dead DataNode.
    let report = c.run_job(&airline::avg_delay_combiner("/in/2008.csv", "/out")).unwrap();
    let out = c.read_output("/out").unwrap();
    let parsed = airline::parse_output(&out.lines().map(str::to_string).collect::<Vec<_>>());
    let best = truth.best_carrier().unwrap();
    let got_best = parsed.iter().min_by(|a, b| a.1.total_cmp(b.1)).map(|(c, _)| c.clone()).unwrap();
    assert_eq!(got_best, best.0);
    assert!(report.success);
}

#[test]
fn editlog_survives_namenode_restart_with_jobs_output_intact() {
    let (csv, _) = AirlineGen::new(8).generate(3_000);
    let mut c = cluster(64 * 1024);
    stage(&mut c, "/in/2008.csv", csv.as_bytes());
    c.run_job(&airline::avg_delay_plain("/in/2008.csv", "/out")).unwrap();
    let before = c.read_output("/out").unwrap();

    // Full restart: namespace rebuilt from fsimage + journal, block
    // locations recovered from block reports.
    let t = c.now;
    let r = c.dfs.restart_all(&mut c.net, t).unwrap();
    c.now = r.completed_at;
    let after = c.read_output("/out").unwrap();
    assert_eq!(before, after, "output survives a full cluster restart");
}

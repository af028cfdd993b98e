//! The HDFS in-class lab: the `hadoop fs` shell session assignment 2 asks
//! students to run and record, including `fsck` before and after injected
//! corruption, and a DataNode death with automatic re-replication.
//!
//! ```text
//! cargo run --example hdfs_lab
//! ```

use hadoop_lab::cluster::network::ClusterNet;
use hadoop_lab::cluster::node::ClusterSpec;
use hadoop_lab::common::config::{keys, Configuration};
use hadoop_lab::common::simtime::{SimDuration, SimTime};
use hadoop_lab::dfs::client::Dfs;
use hadoop_lab::dfs::shell::{DfsShell, LocalFs};

fn main() {
    let spec = ClusterSpec::course_hadoop(8);
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 4096u64); // small blocks so the lab shows many
    let mut dfs = Dfs::format(&config, &spec).expect("format");
    let mut net = ClusterNet::new(&spec);
    let mut local = LocalFs::new();
    local.write("airline_sample.csv", {
        let (csv, _) = hadoop_lab::datagen::airline::AirlineGen::new(1).generate(500);
        csv.into_bytes()
    });

    let mut shell = DfsShell { dfs: &mut dfs, net: &mut net, local: &mut local };
    let mut now = SimTime::ZERO;
    for cmd in [
        "-mkdir /user/student/input",
        "-put airline_sample.csv /user/student/input/2008.csv",
        "-ls /user/student/input",
        "-du /user/student",
        "-fsck /user/student",
    ] {
        println!("$ hadoop fs {cmd}");
        let out = shell.run(now, cmd).expect(cmd);
        print!("{}", out.stdout);
        now = out.completed_at;
        println!();
    }

    // Corrupt one replica behind HDFS's back; a read transparently fails
    // over and the bad replica is reported + re-replicated.
    let (block, _, holders) =
        shell.dfs.file_blocks("/user/student/input/2008.csv").unwrap()[0].clone();
    println!("~ flipping a byte of {block} on {}", holders[0]);
    shell.dfs.datanode_mut(holders[0]).unwrap().corrupt_block(block, 123);
    let got = shell.dfs.read(shell.net, now, "/user/student/input/2008.csv", None).unwrap();
    println!("~ read still returned {} clean bytes (checksum failover)", got.value.len());
    let t = got.completed_at + shell.dfs.namenode.heartbeat_interval();
    shell.dfs.advance_to(shell.net, t);
    println!(
        "~ after one heartbeat interval, replicas: {:?}\n",
        shell.dfs.namenode.block_locations(block).len()
    );

    // Kill a DataNode; watch the replication monitor heal the cluster.
    let victim = holders[1];
    println!("~ crashing datanode on {victim}");
    shell.dfs.crash_datanode(victim);
    let t = t + SimDuration::from_secs(3 * 220);
    shell.dfs.advance_to(shell.net, t);
    println!("~ at {t}: under-replicated blocks: {}", shell.dfs.namenode.under_replicated().len());
    let out = shell.run(t, "-fsck /user/student").unwrap();
    print!("{}", out.stdout);
}

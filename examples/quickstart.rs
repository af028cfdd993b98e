//! Quickstart: stand up the course's 8-node Hadoop cluster, stage a text
//! file into HDFS, run WordCount, and read the results — the whole
//! lecture-1 demo in ~30 lines of user code.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use hadoop_lab::mapreduce::engine::MrCluster;
use hadoop_lab::workloads::wordcount;

fn main() {
    // The paper's dedicated cluster: 8 nodes, dual 8-core, 64 GB RAM,
    // 850 GB disk, gigabit Ethernet, Hadoop 1.x defaults (64 MB blocks,
    // 3x replication).
    let mut cluster = MrCluster::course_default().expect("cluster");

    // Stage input into HDFS (virtual time is charged; bytes are real).
    let text = "so shaken as we are so wan with care\n\
                find we a time for frighted peace to pant\n\
                and breathe short-winded accents of new broils\n\
                to be commenced in strands afar remote\n"
        .repeat(2000);
    cluster.dfs.namenode.mkdirs("/user/student").expect("mkdir");
    let t = cluster.now;
    cluster.put_input("/user/student/input.txt", text.as_bytes()).expect("put");
    println!("staged {} bytes into HDFS in {}", text.len(), cluster.now.since(t));

    // Run WordCount with the reducer as a combiner.
    let job = wordcount::wordcount_combiner("/user/student/input.txt", "/user/student/out", 2);
    let report = cluster.run_job(&job).expect("job");

    // The JobTracker "web UI" view...
    println!("\n{report}");
    // ...and the final job report students read for the combiner lesson.
    println!("{}", report.final_report());

    // Top 10 words from the output.
    let output = cluster.read_output("/user/student/out").expect("output");
    let mut rows: Vec<(&str, u64)> = output
        .lines()
        .filter_map(|l| {
            let (w, n) = l.split_once('\t')?;
            Some((w, n.parse().ok()?))
        })
        .collect();
    rows.sort_by_key(|&(w, n)| (std::cmp::Reverse(n), w));
    println!("top words:");
    for (w, n) in rows.iter().take(10) {
        println!("  {n:>6}  {w}");
    }
}

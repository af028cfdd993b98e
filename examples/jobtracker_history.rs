//! A session's worth of jobs on one cluster, then the JobTracker history
//! page — plus the Pairs-vs-Stripes co-occurrence comparison from the Lin
//! lecture notes the course followed.
//!
//! ```text
//! cargo run --example jobtracker_history
//! ```

use hadoop_lab::cluster::node::ClusterSpec;
use hadoop_lab::common::config::{keys, Configuration};
use hadoop_lab::common::counters::TaskCounter;
use hadoop_lab::common::{SimDuration, SimTime};
use hadoop_lab::datagen::corpus::CorpusGen;
use hadoop_lab::mapreduce::engine::MrCluster;
use hadoop_lab::mapreduce::JobCode;
use hadoop_lab::workloads::{cooccurrence, wordcount};

fn main() {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 64 * 1024u64);
    let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(8), config).unwrap();

    let (text, _) = CorpusGen::new(99).with_vocab(500).generate(50_000);
    cluster.dfs.namenode.mkdirs("/in").unwrap();
    cluster.put_input("/in/corpus.txt", text.as_bytes()).unwrap();

    // A realistic session: five students submit within a few seconds of
    // each other — three WordCount variants and both co-occurrence
    // implementations — and the JobTracker shares the slots among them.
    let jobs: [&dyn JobCode; 5] = [
        &wordcount::wordcount("/in/corpus.txt", "/out/wc", 2),
        &wordcount::wordcount_combiner("/in/corpus.txt", "/out/wcc", 2),
        &wordcount::wordcount_inmapper("/in/corpus.txt", "/out/wci", 2),
        &cooccurrence::pairs("/in/corpus.txt", "/out/pairs", 4),
        &cooccurrence::stripes("/in/corpus.txt", "/out/stripes", 4),
    ];
    let mut arrival = cluster.now;
    let batch: Vec<(SimTime, &dyn JobCode)> = jobs
        .iter()
        .map(|&job| {
            arrival += SimDuration::from_millis(700);
            (arrival, job)
        })
        .collect();
    let mut reports: Vec<_> = cluster.run_jobs(&batch).into_iter().map(|r| r.unwrap()).collect();
    let (stripes, pairs) = (reports.pop().unwrap(), reports.pop().unwrap());

    // The page lists jobs as they finished; the submit/finish columns below
    // show them overlapping.
    println!("{}", cluster.history);
    for e in cluster.history.entries() {
        let finished = e.submitted_at + e.elapsed;
        println!("  {:<10} submitted {:>8}  finished {:>8}", e.job_id, e.submitted_at, finished);
    }

    println!("Pairs vs Stripes (same answer, different systems behaviour):");
    for (name, r) in [("pairs", &pairs), ("stripes", &stripes)] {
        println!(
            "  {name:<8} map-output records {:>9}   shuffle {:>12} B   elapsed {}",
            r.counters.task(TaskCounter::MapOutputRecords),
            r.shuffle_bytes(),
            r.elapsed()
        );
    }
}

//! The MapReduce lab's three airline-delay implementations, compared —
//! the "Monoidify!" lesson: plain vs combiner + custom value class vs
//! in-mapper combining.
//!
//! ```text
//! cargo run --example airline_combiners
//! ```

use hadoop_lab::cluster::node::ClusterSpec;
use hadoop_lab::common::config::{keys, Configuration};
use hadoop_lab::common::counters::TaskCounter;
use hadoop_lab::common::units::ByteSize;
use hadoop_lab::datagen::airline::AirlineGen;
use hadoop_lab::mapreduce::engine::MrCluster;
use hadoop_lab::workloads::airline;

fn main() {
    let (csv, truth) = AirlineGen::new(2008).generate(100_000);
    println!("generated {} flights ({})", 100_000, ByteSize::display(csv.len() as u64));
    println!("ground truth: best carrier = {:?}\n", truth.best_carrier().unwrap());

    for (name, which) in [("V1 plain", 0), ("V2 combiner + SumCount", 1), ("V3 in-mapper", 2)] {
        let mut config = Configuration::with_defaults();
        config.set(keys::DFS_BLOCK_SIZE, 1024 * 1024u64);
        let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(8), config).unwrap();
        cluster.dfs.namenode.mkdirs("/in").unwrap();
        cluster.put_input("/in/2008.csv", csv.as_bytes()).unwrap();

        let report = match which {
            0 => cluster.run_job(&airline::avg_delay_plain("/in/2008.csv", "/out")),
            1 => cluster.run_job(&airline::avg_delay_combiner("/in/2008.csv", "/out")),
            _ => cluster.run_job(&airline::avg_delay_inmapper("/in/2008.csv", "/out")),
        }
        .expect("job");

        println!("== {name} ==");
        println!(
            "  map output records: {:>8}   shuffle: {:>10}   job time: {}",
            report.counters.task(TaskCounter::MapOutputRecords),
            ByteSize::display(report.shuffle_bytes()).to_string(),
            report.elapsed(),
        );
        let out = cluster.read_output("/out").unwrap();
        let parsed = airline::parse_output(&out.lines().map(str::to_string).collect::<Vec<_>>());
        let mut best: Vec<(&String, &f64)> = parsed.iter().collect();
        best.sort_by(|a, b| a.1.total_cmp(b.1));
        println!("  best carrier by avg delay: {} ({:.2} min)\n", best[0].0, best[0].1);
    }
}

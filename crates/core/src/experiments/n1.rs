//! N1 — the combiner trade-off (Section III-A).
//!
//! "The students observe the tradeoff between increased map task run time
//! (observed through Hadoop's JobTracker's web interface) versus reduced
//! network traffic (observed through final MapReduce job report)."
//!
//! Three WordCount variants on the 8-node course cluster over a Zipf
//! corpus: plain, reducer-as-combiner, and in-mapper combining.

use std::fmt;

use hl_cluster::node::ClusterSpec;
use hl_common::counters::TaskCounter;
use hl_common::prelude::*;
use hl_common::units::ByteSize;
use hl_datagen::corpus::CorpusGen;
use hl_mapreduce::engine::MrCluster;
use hl_mapreduce::report::JobReport;
use hl_workloads::wordcount;

use super::Scale;

/// One variant's row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VariantRow {
    /// Variant name.
    pub name: &'static str,
    /// Sum of map-task durations (the JobTracker-web-UI observable).
    pub total_map_time: SimDuration,
    /// Shuffle traffic (the job-report observable).
    pub shuffle_bytes: u64,
    /// Map output records (before the shuffle).
    pub map_output_records: u64,
    /// Combine input records (0 without a combiner).
    pub combine_input_records: u64,
    /// End-to-end job time.
    pub elapsed: SimDuration,
}

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct N1Result {
    /// Corpus size.
    pub input_bytes: u64,
    /// Rows: plain, +combiner, in-mapper.
    pub rows: Vec<VariantRow>,
}

fn cluster(scale: Scale) -> MrCluster {
    let mut config = Configuration::with_defaults();
    config.set(
        hl_common::config::keys::DFS_BLOCK_SIZE,
        scale.pick(64 * ByteSize::KIB, 64 * ByteSize::MIB),
    );
    MrCluster::new(ClusterSpec::course_hadoop(8), config).unwrap()
}

fn row(name: &'static str, report: &JobReport) -> VariantRow {
    VariantRow {
        name,
        total_map_time: report.total_map_time(),
        shuffle_bytes: report.shuffle_bytes(),
        map_output_records: report.counters.task(TaskCounter::MapOutputRecords),
        combine_input_records: report.counters.task(TaskCounter::CombineInputRecords),
        elapsed: report.elapsed(),
    }
}

/// Run all three variants on identical data.
pub(crate) fn run(scale: Scale) -> N1Result {
    let words = scale.pick(60_000, 5_000_000);
    let (text, _) = CorpusGen::new(41).with_vocab(2_000).generate(words);
    let input_bytes = text.len() as u64;

    let mut rows = Vec::new();
    for (name, which) in [("plain", 0), ("reducer-as-combiner", 1), ("in-mapper", 2)] {
        let mut c = cluster(scale);
        c.dfs.namenode.mkdirs("/in").unwrap();
        c.put_input("/in/corpus.txt", text.as_bytes()).unwrap();
        let report = match which {
            0 => c.run_job(&wordcount::wordcount("/in/corpus.txt", "/out", 4)).unwrap(),
            1 => c.run_job(&wordcount::wordcount_combiner("/in/corpus.txt", "/out", 4)).unwrap(),
            _ => c.run_job(&wordcount::wordcount_inmapper("/in/corpus.txt", "/out", 4)).unwrap(),
        };
        rows.push(row(name, &report));
    }
    N1Result { input_bytes, rows }
}

impl fmt::Display for N1Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "N1 — combiner trade-off, WordCount over {} Zipf text, 8 nodes",
            ByteSize::display(self.input_bytes)
        )?;
        writeln!(
            f,
            "  {:>20}  {:>12}  {:>11}  {:>12}  {:>12}  {:>9}",
            "variant", "map time", "shuffle", "map out recs", "combine in", "job time"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>20}  {:>12}  {:>11}  {:>12}  {:>12}  {:>9}",
                r.name,
                r.total_map_time.to_string(),
                ByteSize::display(r.shuffle_bytes).to_string(),
                r.map_output_records,
                r.combine_input_records,
                r.elapsed.to_string(),
            )?;
        }
        let (p, c) = (&self.rows[0], &self.rows[1]);
        writeln!(
            f,
            "  -> combiner: map time {:+.1}%, shuffle x{:.2}",
            (c.total_map_time.as_secs_f64() / p.total_map_time.as_secs_f64() - 1.0) * 100.0,
            c.shuffle_bytes as f64 / p.shuffle_bytes.max(1) as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combiner_trades_map_time_for_shuffle() {
        let r = run(Scale::Quick);
        let plain = &r.rows[0];
        let comb = &r.rows[1];
        let inmap = &r.rows[2];
        // The paper's observable pair:
        assert!(
            comb.total_map_time > plain.total_map_time,
            "combiner adds map time: {} vs {}",
            comb.total_map_time,
            plain.total_map_time
        );
        assert!(
            comb.shuffle_bytes * 4 < plain.shuffle_bytes,
            "combiner slashes shuffle: {} vs {}",
            comb.shuffle_bytes,
            plain.shuffle_bytes
        );
        // In-mapper combining shuffles even less than the combiner (no
        // per-spill residue) and emits far fewer records.
        assert!(inmap.shuffle_bytes <= comb.shuffle_bytes);
        assert!(inmap.map_output_records < plain.map_output_records / 4);
        // Combiner actually ran.
        assert!(comb.combine_input_records > 0);
        assert_eq!(plain.combine_input_records, 0);
    }
}

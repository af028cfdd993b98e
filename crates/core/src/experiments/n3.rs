//! N3 — side-file access: naive vs cached (Sections III-B/C).
//!
//! "The easiest, but inefficient approach, is to read the additional file
//! from inside each mapper. ... the optimized implementation of this
//! external access ... can make the program run one order of magnitude
//! faster." / "Having individual mappers reading from the same additional
//! data file increases runtimes to several hours, and implementing a
//! customized Java object to preprocess the additional data can reduce the
//! runtimes to minutes."
//!
//! Both implementations run on the 8-node cluster over identical MovieLens
//! data; outputs are identical, runtimes are not.

use std::fmt;

use hl_cluster::node::ClusterSpec;
use hl_common::prelude::*;
use hl_common::units::ByteSize;
use hl_datagen::movielens::MovieLensGen;
use hl_mapreduce::engine::MrCluster;
use hl_workloads::movielens;

use super::Scale;

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct N3Result {
    /// Ratings processed.
    pub ratings: usize,
    /// Side-file size.
    pub side_file_bytes: u64,
    /// Naive job time.
    pub naive: SimDuration,
    /// Cached job time.
    pub cached: SimDuration,
    /// Side-file reads performed by each.
    pub naive_reads: u64,
    /// Cached implementation's reads.
    pub cached_reads: u64,
    /// Whether the outputs matched exactly.
    pub outputs_match: bool,
}

impl N3Result {
    /// The slowdown factor of the naive implementation.
    pub(crate) fn factor(&self) -> f64 {
        self.naive.as_secs_f64() / self.cached.as_secs_f64().max(1e-9)
    }
}

/// Run both implementations.
pub(crate) fn run(scale: Scale) -> N3Result {
    // The naive implementation *really* re-parses the catalog per record,
    // so the sample is bounded to keep the harness's own wall time sane;
    // charged virtual time carries the paper-scale story.
    let ratings = scale.pick(20_000, 100_000);
    let data = MovieLensGen::new(1701)
        .with_sizes(scale.pick(500, 2_000), scale.pick(300, 2_000))
        .generate(ratings);
    let side_file_bytes = data.movies.len() as u64;

    let mut outputs = Vec::new();
    let mut times = Vec::new();
    let mut reads = Vec::new();
    for naive in [true, false] {
        let mut config = Configuration::with_defaults();
        config.set(
            hl_common::config::keys::DFS_BLOCK_SIZE,
            scale.pick(256 * ByteSize::KIB, 64 * ByteSize::MIB),
        );
        let mut c = MrCluster::new(ClusterSpec::course_hadoop(8), config).unwrap();
        c.dfs.namenode.mkdirs("/in").unwrap();
        c.put_input("/in/ratings.dat", data.ratings.as_bytes()).unwrap();
        c.register_side_file("/cache/movies.dat", data.movies.clone().into_bytes());

        let report = if naive {
            c.run_job(&movielens::genre_stats_naive("/in/ratings.dat", "/cache/movies.dat", "/out"))
                .unwrap()
        } else {
            c.run_job(&movielens::genre_stats_cached(
                "/in/ratings.dat",
                "/cache/movies.dat",
                "/out",
            ))
            .unwrap()
        };
        times.push(report.elapsed());
        reads.push(report.counters.get("Side Files", "reads"));
        let mut out: Vec<String> =
            c.read_output("/out").unwrap().lines().map(str::to_string).collect();
        out.sort();
        outputs.push(out);
    }

    N3Result {
        ratings,
        side_file_bytes,
        naive: times[0],
        cached: times[1],
        naive_reads: reads[0],
        cached_reads: reads[1],
        outputs_match: outputs[0] == outputs[1],
    }
}

impl fmt::Display for N3Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "N3 — side-file access, {} ratings joined to a {} catalog, 8 nodes",
            self.ratings,
            ByteSize::display(self.side_file_bytes)
        )?;
        writeln!(
            f,
            "  naive  (read inside map()):  {}  ({} side-file reads)",
            self.naive, self.naive_reads
        )?;
        writeln!(
            f,
            "  cached (read once in setup): {}  ({} side-file reads)",
            self.cached, self.cached_reads
        )?;
        writeln!(
            f,
            "  -> naive is {:.1}x slower; outputs identical: {}",
            self.factor(),
            self.outputs_match
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_of_magnitude_and_identical_output() {
        let r = run(Scale::Quick);
        assert!(r.outputs_match, "both implementations must agree");
        assert!(r.factor() > 8.0, "naive should be ~an order slower: {:.1}x", r.factor());
        assert_eq!(r.naive_reads, r.ratings as u64, "one read per record");
        assert!(r.cached_reads < 64, "one read per task: {}", r.cached_reads);
    }
}

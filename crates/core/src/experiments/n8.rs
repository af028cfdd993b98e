//! N8 — assignment-1 serial runtimes (Section III-B/C).
//!
//! "The results from the students' assignments show that the best
//! implementation of the first assignment can run as fast as several
//! minutes, while the worst implementation takes a little over half an
//! hour to run." (And for the fully-naive per-record re-read: "increases
//! runtimes to several hours".)
//!
//! Both reference implementations run serially (the assignment-1 mode) on
//! a sample, with virtual time scaled linearly to the real dataset's
//! 10 million ratings — per-record work dominates both, so the scaling is
//! faithful.

use std::fmt;

use hl_common::prelude::*;
use hl_datagen::movielens::MovieLensGen;
use hl_mapreduce::api::SideFiles;
use hl_mapreduce::local::LocalRunner;
use hl_workloads::movielens;

use super::Scale;

/// Ratings in the real MovieLens 10M release.
const REAL_RATINGS: u64 = 10_000_000;

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct N8Result {
    /// Sample size actually executed.
    pub sample_ratings: usize,
    /// Sample-size virtual time, naive.
    pub naive_sample: SimDuration,
    /// Sample-size virtual time, cached.
    pub cached_sample: SimDuration,
    /// Scaled to 10 M ratings.
    pub naive_scaled: SimDuration,
    /// Scaled to 10 M ratings.
    pub cached_scaled: SimDuration,
}

impl N8Result {
    /// Naive-over-cached slowdown.
    pub(crate) fn factor(&self) -> f64 {
        self.naive_sample.as_secs_f64() / self.cached_sample.as_secs_f64().max(1e-9)
    }
}

/// Run both serial implementations.
pub(crate) fn run(scale: Scale) -> N8Result {
    // Bounded sample (the naive arm re-parses the catalog per record for
    // real); virtual time scales linearly to the full 10 M ratings.
    let sample = scale.pick(5_000, 20_000);
    let data = MovieLensGen::new(10)
        .with_sizes(scale.pick(800, 5_000), scale.pick(400, 2_000))
        .generate(sample);
    let inputs = vec![("ratings.dat".to_string(), data.ratings.into_bytes())];
    let mut side = SideFiles::new();
    side.insert("/cache/movies.dat", data.movies.into_bytes());
    let runner = LocalRunner::serial();

    let naive = runner
        .run(&movielens::genre_stats_naive("/i", "/cache/movies.dat", "/o"), &inputs, &side)
        .unwrap();
    let cached = runner
        .run(&movielens::genre_stats_cached("/i", "/cache/movies.dat", "/o"), &inputs, &side)
        .unwrap();

    let scale_factor = REAL_RATINGS / sample as u64;
    N8Result {
        sample_ratings: sample,
        naive_sample: naive.virtual_time,
        cached_sample: cached.virtual_time,
        naive_scaled: naive.virtual_time * scale_factor,
        cached_scaled: cached.virtual_time * scale_factor,
    }
}

impl fmt::Display for N8Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "N8 — assignment 1 serial runtimes ({} sampled ratings, scaled to 10M)",
            self.sample_ratings
        )?;
        writeln!(
            f,
            "  cached side-file object: {}  (scaled: {})",
            self.cached_sample, self.cached_scaled
        )?;
        writeln!(
            f,
            "  naive per-record reread: {}  (scaled: {})",
            self.naive_sample, self.naive_scaled
        )?;
        writeln!(
            f,
            "  -> naive is {:.0}x slower; paper: best ≈ minutes, worst ≈ half an hour, \
             per-record rereads ≈ hours",
            self.factor()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_times_land_in_paper_bands() {
        let r = run(Scale::Quick);
        // Best implementation: "several minutes" at 10M ratings.
        assert!(r.cached_scaled < SimDuration::from_mins(30), "cached scaled {}", r.cached_scaled);
        assert!(r.cached_scaled > SimDuration::from_secs(5));
        // Fully naive per-record rereads: "several hours".
        assert!(r.naive_scaled > SimDuration::from_hours(1), "naive scaled {}", r.naive_scaled);
        // Order(s) of magnitude apart.
        assert!(r.factor() > 10.0, "factor {:.1}", r.factor());
    }
}

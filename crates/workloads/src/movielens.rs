//! Assignment 1: MovieLens descriptive statistics + most-active user.
//!
//! Part 1 — "descriptive statistics calculations on the rating of
//! individual movie genres" — needs each rating joined to its movie's
//! genres through the `movies.dat` side file. Two implementations, the
//! assignment's core lesson:
//!
//! * [`NaiveGenreMapper`] — "read the additional file from inside each
//!   mapper": the side file is re-read (and re-parsed) on **every map
//!   call**. Correct, and an order of magnitude slower.
//! * [`CachedGenreMapper`] — "a Java object that reads the additional file
//!   once and stores the content in memory": read in `setup`, kept as a
//!   per-task table.
//!
//! Part 2 — "the user that provides the most ratings and that user's
//! favorite movie genre" — needs the custom [`RatingEvent`] value class
//! ("the information needed in the reduce step requires several values for
//! each key") and a single reducer tracking the global maximum.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use hl_datagen::movielens::{parse_movie, parse_rating};
use hl_mapreduce::api::{MapContext, Mapper, ReduceContext, Reducer};
use hl_mapreduce::job::{Job, JobConf};

/// Per-record map CPU for these jobs: splitting a CSV/`::` row, boxing
/// fields, and hash lookups cost a 2013 JVM ~10 µs per record.
pub(crate) const JAVA_PARSE_CPU: hl_common::SimDuration = hl_common::SimDuration::from_micros(10);

use crate::types::{RatingEvent, Stats};

/// Parse the `movies.dat` bytes into a `movie → genres` table.
fn parse_catalog(bytes: &[u8]) -> BTreeMap<u32, Vec<String>> {
    String::from_utf8_lossy(bytes)
        .lines()
        .filter_map(parse_movie)
        .map(|(m, gs)| (m, gs.into_iter().map(str::to_string).collect()))
        .collect()
}

/// Part 1, the inefficient way: the catalog is fetched and parsed per
/// record. The charged side-file read per call is what blows the runtime
/// up to "several hours" at dataset scale.
pub struct NaiveGenreMapper {
    /// DFS path of `movies.dat` in the distributed cache.
    pub movies_path: String,
}

impl Mapper for NaiveGenreMapper {
    type KOut = String;
    type VOut = Stats;
    fn map(&mut self, _offset: u64, line: &str, ctx: &mut MapContext<String, Stats>) {
        let Some((_user, movie, rating)) = parse_rating(line) else {
            return;
        };
        let bytes = match ctx.read_side_file(&self.movies_path) {
            Ok(b) => b,
            Err(_) => return,
        };
        let catalog = parse_catalog(&bytes); // re-parsed every call!
        if let Some(genres) = catalog.get(&movie) {
            for g in genres {
                ctx.emit(g.clone(), Stats::of(rating));
            }
        }
    }
}

/// Part 1, the efficient way: catalog loaded once per task in `setup`.
pub struct CachedGenreMapper {
    /// DFS path of `movies.dat`.
    pub movies_path: String,
    catalog: BTreeMap<u32, Vec<String>>,
}

impl CachedGenreMapper {
    /// New mapper reading the catalog from `movies_path`.
    pub(crate) fn new(movies_path: impl Into<String>) -> Self {
        CachedGenreMapper { movies_path: movies_path.into(), catalog: BTreeMap::new() }
    }
}

impl Mapper for CachedGenreMapper {
    type KOut = String;
    type VOut = Stats;

    fn setup(&mut self, ctx: &mut MapContext<String, Stats>) {
        if let Ok(bytes) = ctx.read_side_file(&self.movies_path) {
            self.catalog = parse_catalog(&bytes);
        }
    }

    fn map(&mut self, _offset: u64, line: &str, ctx: &mut MapContext<String, Stats>) {
        if let Some((_user, movie, rating)) = parse_rating(line) {
            if let Some(genres) = self.catalog.get(&movie) {
                for g in genres {
                    ctx.emit(g.clone(), Stats::of(rating));
                }
            }
        }
    }
}

/// Folds `Stats` partials (usable as combiner).
pub struct StatsCombiner;

impl hl_mapreduce::api::Combiner for StatsCombiner {
    type K = String;
    type V = Stats;
    fn combine(
        &mut self,
        _key: &String,
        values: impl IntoIterator<Item = Stats>,
        out: &mut Vec<Stats>,
    ) {
        out.push(values.into_iter().fold(Stats::default(), Stats::merge));
    }
}

/// Part 1 reducer: emits `genre \t count,mean,min,max`.
pub struct GenreStatsReducer;

impl Reducer for GenreStatsReducer {
    type KIn = String;
    type VIn = Stats;
    fn reduce(
        &mut self,
        key: impl Borrow<String>,
        values: impl IntoIterator<Item = Stats>,
        ctx: &mut ReduceContext,
    ) {
        let s = values.into_iter().fold(Stats::default(), Stats::merge);
        if let Some(mean) = s.mean() {
            ctx.emit(key.borrow(), format!("{},{:.4},{},{}", s.count, mean, s.min, s.max));
        }
    }
}

/// Part 2 mapper: `(user, RatingEvent{genres})` per rating (cached join).
pub struct UserActivityMapper {
    /// DFS path of `movies.dat`.
    pub movies_path: String,
    catalog: BTreeMap<u32, Vec<String>>,
}

impl UserActivityMapper {
    /// New mapper.
    pub(crate) fn new(movies_path: impl Into<String>) -> Self {
        UserActivityMapper { movies_path: movies_path.into(), catalog: BTreeMap::new() }
    }
}

impl Mapper for UserActivityMapper {
    type KOut = u32;
    type VOut = RatingEvent;

    fn setup(&mut self, ctx: &mut MapContext<u32, RatingEvent>) {
        if let Ok(bytes) = ctx.read_side_file(&self.movies_path) {
            self.catalog = parse_catalog(&bytes);
        }
    }

    fn map(&mut self, _offset: u64, line: &str, ctx: &mut MapContext<u32, RatingEvent>) {
        if let Some((user, movie, _rating)) = parse_rating(line) {
            let genres = self.catalog.get(&movie).cloned().unwrap_or_default();
            ctx.emit(user, RatingEvent { genres });
        }
    }
}

/// Part 2 reducer (run with `reduces(1)`): one group per user — the value
/// count is their rating count; genre tallies give the favorite. Tracks
/// the global max, emits `user \t count \t favorite-genre` in `cleanup`.
#[derive(Default)]
pub struct MostActiveUserReducer {
    best: Option<(u32, u64, String)>,
}

impl Reducer for MostActiveUserReducer {
    type KIn = u32;
    type VIn = RatingEvent;

    fn reduce(
        &mut self,
        user: impl Borrow<u32>,
        values: impl IntoIterator<Item = RatingEvent>,
        _ctx: &mut ReduceContext,
    ) {
        // The tally borrows genre names from the group's events, so the
        // group is kept whole: an `Iterable` buffered, as in Hadoop.
        let (user, values): (u32, Vec<RatingEvent>) =
            (*user.borrow(), values.into_iter().collect());
        let count = values.len() as u64;
        let mut genre_counts: BTreeMap<&str, u64> = BTreeMap::new();
        for event in &values {
            for g in &event.genres {
                *genre_counts.entry(g.as_str()).or_default() += 1;
            }
        }
        let favorite = genre_counts
            .iter()
            .max_by_key(|(g, &n)| (n, std::cmp::Reverse(**g)))
            .map(|(g, _)| g.to_string())
            .unwrap_or_default();
        let better = match &self.best {
            None => true,
            Some((u, n, _)) => count > *n || (count == *n && user < *u),
        };
        if better {
            self.best = Some((user, count, favorite));
        }
    }

    fn cleanup(&mut self, ctx: &mut ReduceContext) {
        if let Some((user, count, favorite)) = self.best.take() {
            ctx.emit(user, format!("{count}\t{favorite}"));
        }
    }
}

/// Part-1 job, naive side-file access.
pub fn genre_stats_naive(
    ratings: &str,
    movies: &str,
    output: &str,
) -> Job<NaiveGenreMapper, GenreStatsReducer, StatsCombiner> {
    let movies = movies.to_string();
    Job::with_combiner(
        JobConf::new("movielens-genre-stats-naive")
            .map_cpu_per_record(JAVA_PARSE_CPU)
            .input(ratings)
            .output(output),
        move || NaiveGenreMapper { movies_path: movies.clone() },
        || GenreStatsReducer,
        || StatsCombiner,
    )
}

/// Part-1 job, cached side-file access.
pub fn genre_stats_cached(
    ratings: &str,
    movies: &str,
    output: &str,
) -> Job<CachedGenreMapper, GenreStatsReducer, StatsCombiner> {
    let movies = movies.to_string();
    Job::with_combiner(
        JobConf::new("movielens-genre-stats-cached")
            .map_cpu_per_record(JAVA_PARSE_CPU)
            .input(ratings)
            .output(output),
        move || CachedGenreMapper::new(movies.clone()),
        || GenreStatsReducer,
        || StatsCombiner,
    )
}

/// Part-2 job: most active user + favorite genre.
pub fn most_active_user(
    ratings: &str,
    movies: &str,
    output: &str,
) -> Job<UserActivityMapper, MostActiveUserReducer, hl_mapreduce::api::NoCombiner<u32, RatingEvent>>
{
    let movies = movies.to_string();
    Job::new(
        JobConf::new("movielens-most-active")
            .map_cpu_per_record(JAVA_PARSE_CPU)
            .input(ratings)
            .output(output)
            .reduces(1),
        move || UserActivityMapper::new(movies.clone()),
        MostActiveUserReducer::default,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_datagen::movielens::MovieLensGen;
    use hl_mapreduce::api::SideFiles;
    use hl_mapreduce::local::LocalRunner;

    fn setup(
        ratings: usize,
    ) -> (Vec<(String, Vec<u8>)>, SideFiles, hl_datagen::movielens::MovieLensData) {
        let data = MovieLensGen::new(77).generate(ratings);
        let inputs = vec![("ratings.dat".to_string(), data.ratings.clone().into_bytes())];
        let mut side = SideFiles::new();
        side.insert("/cache/movies.dat", data.movies.clone().into_bytes());
        (inputs, side, data)
    }

    fn check_stats(lines: &[String], data: &hl_datagen::movielens::MovieLensData) {
        let mut seen = 0;
        for line in lines {
            let (genre, rest) = line.split_once('\t').unwrap();
            let fields: Vec<&str> = rest.split(',').collect();
            let (count, mean): (u64, f64) =
                (fields[0].parse().unwrap(), fields[1].parse().unwrap());
            let &(tc, ts, tmin, tmax) = data.truth.genre_stats.per_genre.get(genre).unwrap();
            assert_eq!(count, tc, "{genre} count");
            assert!((mean - ts / tc as f64).abs() < 1e-3, "{genre} mean");
            assert_eq!(fields[2].parse::<f64>().unwrap(), tmin);
            assert_eq!(fields[3].parse::<f64>().unwrap(), tmax);
            seen += 1;
        }
        assert_eq!(seen, data.truth.genre_stats.per_genre.len());
    }

    #[test]
    fn naive_and_cached_agree_with_truth() {
        let (inputs, side, data) = setup(4_000);
        let runner = LocalRunner::serial();
        let naive = runner
            .run(&genre_stats_naive("/i", "/cache/movies.dat", "/o"), &inputs, &side)
            .unwrap();
        check_stats(&naive.output, &data);
        let cached = runner
            .run(&genre_stats_cached("/i", "/cache/movies.dat", "/o"), &inputs, &side)
            .unwrap();
        check_stats(&cached.output, &data);
        // The order-of-magnitude lesson, in virtual time:
        assert!(
            naive.virtual_time.as_micros() > 10 * cached.virtual_time.as_micros(),
            "naive {} vs cached {}",
            naive.virtual_time,
            cached.virtual_time
        );
        // Naive re-read the side file per record; cached once per task.
        let naive_reads = naive.counters.get("Side Files", "reads");
        let cached_reads = cached.counters.get("Side Files", "reads");
        assert_eq!(naive_reads, 4_000);
        assert!(cached_reads < 10, "cached reads {cached_reads}");
    }

    #[test]
    fn most_active_user_matches_truth() {
        let (inputs, side, data) = setup(8_000);
        let report = LocalRunner::serial()
            .run(&most_active_user("/i", "/cache/movies.dat", "/o"), &inputs, &side)
            .unwrap();
        assert_eq!(report.output.len(), 1);
        let fields: Vec<&str> = report.output[0].split('\t').collect();
        let (user, count) = data.truth.most_active_user().unwrap();
        assert_eq!(fields[0].parse::<u32>().unwrap(), user);
        assert_eq!(fields[1].parse::<u64>().unwrap(), count);
        assert_eq!(fields[2], data.truth.favorite_genre(user).unwrap());
    }

    #[test]
    fn missing_side_file_yields_empty_not_panic() {
        let (inputs, _, _) = setup(100);
        let report = LocalRunner::serial()
            .run(
                &genre_stats_cached("/i", "/cache/movies.dat", "/o"),
                &inputs,
                &SideFiles::new(), // cache not populated
            )
            .unwrap();
        assert!(report.output.is_empty());
    }
}

//! Assignment 2: the album with the highest average rating.
//!
//! "The second part of this assignment asks the students to analyze the
//! Yahoo song database (10GB) and identify the album that has the highest
//! average rating using MapReduce and HDFS. Again, this requires the
//! students to access the list of songs in each album to support the main
//! rating data files." — the same cached-side-file join as assignment 1,
//! now against the song→album catalog, plus the averaging monoid.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use hl_datagen::yahoo_music::{parse_rating, parse_song};
use hl_mapreduce::api::{Combiner, MapContext, Mapper, ReduceContext, Reducer};
use hl_mapreduce::job::{Job, JobConf};

/// Per-record map CPU for these jobs: splitting a CSV/`::` row, boxing
/// fields, and hash lookups cost a 2013 JVM ~10 µs per record.
pub(crate) const JAVA_PARSE_CPU: hl_common::SimDuration = hl_common::SimDuration::from_micros(10);

use crate::types::SumCount;

/// Maps a rating row to `(album, SumCount::of(rating))` via the cached
/// song catalog.
pub struct AlbumRatingMapper {
    /// DFS path of the songs side file.
    pub songs_path: String,
    album_of: BTreeMap<u32, u32>,
}

impl AlbumRatingMapper {
    /// New mapper.
    pub(crate) fn new(songs_path: impl Into<String>) -> Self {
        AlbumRatingMapper { songs_path: songs_path.into(), album_of: BTreeMap::new() }
    }
}

impl Mapper for AlbumRatingMapper {
    type KOut = u32;
    type VOut = SumCount;

    fn setup(&mut self, ctx: &mut MapContext<u32, SumCount>) {
        if let Ok(bytes) = ctx.read_side_file(&self.songs_path) {
            self.album_of =
                String::from_utf8_lossy(&bytes).lines().filter_map(parse_song).collect();
        }
    }

    fn map(&mut self, _offset: u64, line: &str, ctx: &mut MapContext<u32, SumCount>) {
        if let Some((_user, song, rating)) = parse_rating(line) {
            if let Some(&album) = self.album_of.get(&song) {
                ctx.emit(album, SumCount::of(rating as f64));
            }
        }
    }
}

/// `SumCount` folding combiner keyed by album id.
pub struct AlbumCombiner;

impl Combiner for AlbumCombiner {
    type K = u32;
    type V = SumCount;
    fn combine(
        &mut self,
        _key: &u32,
        values: impl IntoIterator<Item = SumCount>,
        out: &mut Vec<SumCount>,
    ) {
        out.push(values.into_iter().fold(SumCount::default(), SumCount::merge));
    }
}

/// Single reducer tracking the best album; emits
/// `album \t average \t ratings` in `cleanup`. Run with `reduces(1)`.
#[derive(Default)]
pub struct BestAlbumReducer {
    best: Option<(u32, f64, u64)>,
}

impl Reducer for BestAlbumReducer {
    type KIn = u32;
    type VIn = SumCount;

    fn reduce(
        &mut self,
        album: impl Borrow<u32>,
        values: impl IntoIterator<Item = SumCount>,
        _ctx: &mut ReduceContext,
    ) {
        let album = *album.borrow();
        let total = values.into_iter().fold(SumCount::default(), SumCount::merge);
        let Some(mean) = total.mean() else { return };
        let better = match &self.best {
            None => true,
            Some((a, m, _)) => mean > *m || (mean == *m && album < *a),
        };
        if better {
            self.best = Some((album, mean, total.count));
        }
    }

    fn cleanup(&mut self, ctx: &mut ReduceContext) {
        if let Some((album, mean, n)) = self.best.take() {
            ctx.emit(album, format!("{mean:.4}\t{n}"));
        }
    }
}

/// The assignment's headline job: best album, single output line.
pub fn best_album(
    ratings: &str,
    songs: &str,
    output: &str,
) -> Job<AlbumRatingMapper, BestAlbumReducer, AlbumCombiner> {
    let songs = songs.to_string();
    Job::with_combiner(
        JobConf::new("yahoo-best-album")
            .map_cpu_per_record(JAVA_PARSE_CPU)
            .input(ratings)
            .output(output)
            .reduces(1),
        move || AlbumRatingMapper::new(songs.clone()),
        BestAlbumReducer::default,
        || AlbumCombiner,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_datagen::yahoo_music::YahooMusicGen;
    use hl_mapreduce::api::SideFiles;
    use hl_mapreduce::local::LocalRunner;

    fn setup(n: usize) -> (Vec<(String, Vec<u8>)>, SideFiles, hl_datagen::yahoo_music::YahooData) {
        let data = YahooMusicGen::new(55).generate(n);
        let inputs = vec![("ratings.txt".to_string(), data.ratings.clone().into_bytes())];
        let mut side = SideFiles::new();
        side.insert("/cache/songs.txt", data.songs.clone().into_bytes());
        (inputs, side, data)
    }

    #[test]
    fn best_album_matches_truth() {
        let (inputs, side, data) = setup(30_000);
        let report = LocalRunner::serial()
            .run(&best_album("/i", "/cache/songs.txt", "/o"), &inputs, &side)
            .unwrap();
        assert_eq!(report.output.len(), 1);
        let fields: Vec<&str> = report.output[0].split('\t').collect();
        let (album, avg) = data.truth.best_album().unwrap();
        assert_eq!(fields[0].parse::<u32>().unwrap(), album);
        assert!((fields[1].parse::<f64>().unwrap() - avg).abs() < 1e-3);
    }

    #[test]
    fn combiner_does_not_change_the_answer() {
        let (inputs, side, _) = setup(10_000);
        let runner = LocalRunner::serial();
        let with = runner.run(&best_album("/i", "/cache/songs.txt", "/o"), &inputs, &side).unwrap();
        // Same mapper/reducer without a combiner:
        let songs = "/cache/songs.txt".to_string();
        let no_combiner: Job<
            AlbumRatingMapper,
            BestAlbumReducer,
            hl_mapreduce::api::NoCombiner<u32, SumCount>,
        > = Job::new(
            JobConf::new("nc").input("/i").output("/o").reduces(1),
            move || AlbumRatingMapper::new(songs.clone()),
            BestAlbumReducer::default,
        );
        let without = runner.run(&no_combiner, &inputs, &side).unwrap();
        assert_eq!(with.output, without.output);
    }
}

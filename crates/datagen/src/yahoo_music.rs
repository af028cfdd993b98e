//! Yahoo! Music ratings — assignment 2's dataset.
//!
//! Two files: `song_ratings.txt` (`user \t song \t rating`, 0–100 scale
//! like the real Webscope R1 set) and `songs.txt`
//! (`song \t album \t artist`). The assignment: "identify the album that
//! has the highest average rating", which again needs the song→album side
//! file. Albums are given distinct quality offsets so the answer is
//! stable and checkable.

use std::collections::BTreeMap;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Ground truth.
#[derive(Debug, Clone, Default)]
pub struct YahooTruth {
    /// `album → (ratings, sum)`.
    pub per_album: BTreeMap<u32, (u64, u64)>,
}

impl YahooTruth {
    /// `(album, average)` with the highest average (ties by lowest id).
    pub fn best_album(&self) -> Option<(u32, f64)> {
        self.per_album
            .iter()
            .map(|(&a, &(n, s))| (a, s as f64 / n as f64))
            .max_by(|x, y| x.1.total_cmp(&y.1).then(y.0.cmp(&x.0)))
    }
}

/// The generated dataset.
#[derive(Debug, Clone)]
pub struct YahooData {
    /// `songs.txt`: song → album/artist side file.
    pub songs: String,
    /// `song_ratings.txt`: the big ratings table.
    pub ratings: String,
    /// Exact answers.
    pub truth: YahooTruth,
}

/// The generator.
#[derive(Debug, Clone)]
pub struct YahooMusicGen {
    /// Songs in the catalog.
    pub num_songs: u32,
    /// Albums (songs are striped over them).
    pub num_albums: u32,
    /// Users.
    pub num_users: u32,
    seed: u64,
}

impl YahooMusicGen {
    /// Test-scaled defaults.
    pub fn new(seed: u64) -> Self {
        YahooMusicGen { num_songs: 1000, num_albums: 100, num_users: 500, seed }
    }

    /// Generate `num_ratings` ratings plus the song catalog and truth.
    pub fn generate(&self, num_ratings: usize) -> YahooData {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);

        // Album quality offsets: 30..=70 base mean, distinct-ish.
        let quality: Vec<f64> = (0..self.num_albums).map(|_| rng.gen_range(30.0..70.0)).collect();

        let mut songs = String::new();
        let album_of = |song: u32| song % self.num_albums;
        for s in 0..self.num_songs {
            let album = album_of(s);
            songs.push_str(&format!("{s}\t{album}\tartist{:03}\n", album % 200));
        }

        let mut ratings = String::with_capacity(num_ratings * 14);
        let mut truth = YahooTruth::default();
        for _ in 0..num_ratings {
            let user = rng.gen_range(0..self.num_users);
            let song = rng.gen_range(0..self.num_songs);
            let album = album_of(song);
            let base = quality[album as usize];
            let r = (base + rng.gen_range(-25.0..25.0)).clamp(0.0, 100.0).round() as u64;
            ratings.push_str(&format!("{user}\t{song}\t{r}\n"));
            let e = truth.per_album.entry(album).or_insert((0, 0));
            e.0 += 1;
            e.1 += r;
        }

        YahooData { songs, ratings, truth }
    }
}

/// Parse a ratings line into `(user, song, rating)`.
pub fn parse_rating(line: &str) -> Option<(u32, u32, u64)> {
    let mut f = line.split('\t');
    Some((f.next()?.parse().ok()?, f.next()?.parse().ok()?, f.next()?.parse().ok()?))
}

/// Parse a songs line into `(song, album)`.
pub fn parse_song(line: &str) -> Option<(u32, u32)> {
    let mut f = line.split('\t');
    Some((f.next()?.parse().ok()?, f.next()?.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_matches_reparse() {
        let data = YahooMusicGen::new(17).generate(30_000);
        let mut album_of: BTreeMap<u32, u32> = BTreeMap::new();
        for line in data.songs.lines() {
            let (s, a) = parse_song(line).unwrap();
            album_of.insert(s, a);
        }
        let mut recount: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for line in data.ratings.lines() {
            let (_, song, r) = parse_rating(line).unwrap();
            let e = recount.entry(album_of[&song]).or_insert((0, 0));
            e.0 += 1;
            e.1 += r;
        }
        assert_eq!(recount, data.truth.per_album);
    }

    #[test]
    fn best_album_is_stable_and_high() {
        let data = YahooMusicGen::new(2).generate(50_000);
        let (album, avg) = data.truth.best_album().unwrap();
        assert!(avg > 55.0, "best album avg {avg:.1}");
        // Deterministic across regenerations.
        let again = YahooMusicGen::new(2).generate(50_000);
        assert_eq!(again.truth.best_album().unwrap().0, album);
    }

    #[test]
    fn catalog_shape() {
        let gen = YahooMusicGen { num_songs: 100, num_albums: 10, num_users: 50, seed: 1 };
        let data = gen.generate(1000);
        assert_eq!(data.songs.lines().count(), 100);
        for line in data.songs.lines() {
            let (s, a) = parse_song(line).unwrap();
            assert_eq!(a, s % 10);
        }
    }

    #[test]
    fn ratings_in_scale() {
        let data = YahooMusicGen::new(3).generate(5000);
        for line in data.ratings.lines() {
            let (_, _, r) = parse_rating(line).unwrap();
            assert!(r <= 100);
        }
    }

    #[test]
    fn parsers_reject_garbage() {
        assert!(parse_rating("a,b,c").is_none());
        assert!(parse_song("no-tabs-here").is_none());
    }
}

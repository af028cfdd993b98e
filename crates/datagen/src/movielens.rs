//! MovieLens-style ratings — assignment 1's dataset.
//!
//! Two files, like the real 10M release: `movies.dat`
//! (`MovieID::Title::Genre|Genre`) and `ratings.dat`
//! (`UserID::MovieID::Rating::Timestamp`). Matching a rating to its genres
//! requires the side file — the join whose naive implementation is an
//! order of magnitude slower, the core lesson of the assignment. Users
//! have a long-tailed activity distribution so "the user with the most
//! ratings" is unambiguous, and each user has a genre bias so their
//! "favorite genre" is too.

use std::collections::BTreeMap;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The 18 MovieLens genres.
const GENRES: [&str; 18] = [
    "Action",
    "Adventure",
    "Animation",
    "Children",
    "Comedy",
    "Crime",
    "Documentary",
    "Drama",
    "Fantasy",
    "Film-Noir",
    "Horror",
    "Musical",
    "Mystery",
    "Romance",
    "Sci-Fi",
    "Thriller",
    "War",
    "Western",
];

/// Per-genre rating statistics (the assignment's part 1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GenreStats {
    /// `genre → (count, sum, min, max)` of ratings.
    pub per_genre: BTreeMap<String, (u64, f64, f64, f64)>,
}

impl GenreStats {
    fn add(&mut self, genre: &str, rating: f64) {
        let e = self.per_genre.entry(genre.to_string()).or_insert((
            0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ));
        e.0 += 1;
        e.1 += rating;
        e.2 = e.2.min(rating);
        e.3 = e.3.max(rating);
    }

    /// Mean rating of a genre.
    pub fn mean(&self, genre: &str) -> Option<f64> {
        self.per_genre.get(genre).map(|&(n, s, _, _)| s / n as f64)
    }
}

/// Ground truth for both parts of assignment 1.
#[derive(Debug, Clone, Default)]
pub struct MovieLensTruth {
    /// Genre statistics.
    pub genre_stats: GenreStats,
    /// Ratings per user.
    pub ratings_per_user: BTreeMap<u32, u64>,
    /// `(user, genre) → count`, for the favorite-genre question.
    pub user_genre_counts: BTreeMap<(u32, String), u64>,
}

impl MovieLensTruth {
    /// The most active user and their rating count (ties broken by lowest
    /// user id, same as the reference solution).
    pub fn most_active_user(&self) -> Option<(u32, u64)> {
        self.ratings_per_user
            .iter()
            .map(|(&u, &n)| (u, n))
            .max_by_key(|&(u, n)| (n, std::cmp::Reverse(u)))
    }

    /// A user's favorite genre (max count, ties by name).
    // lint:allow(R9): the truth three MovieLens tests check against
    pub fn favorite_genre(&self, user: u32) -> Option<&str> {
        self.user_genre_counts
            .iter()
            .filter(|((u, _), _)| *u == user)
            .max_by_key(|((_, g), &n)| (n, std::cmp::Reverse(g.clone())))
            .map(|((_, g), _)| g.as_str())
    }
}

/// The generated dataset.
#[derive(Debug, Clone)]
pub struct MovieLensData {
    /// `movies.dat` content.
    pub movies: String,
    /// `ratings.dat` content.
    pub ratings: String,
    /// Exact answers.
    pub truth: MovieLensTruth,
}

/// The generator.
#[derive(Debug, Clone)]
pub struct MovieLensGen {
    /// Number of movies.
    pub num_movies: u32,
    /// Number of users.
    pub num_users: u32,
    seed: u64,
}

impl MovieLensGen {
    /// Course-scaled defaults (the real set: 10 000 movies, 72 000 users).
    pub fn new(seed: u64) -> Self {
        MovieLensGen { num_movies: 500, num_users: 300, seed }
    }

    /// Resize.
    pub fn with_sizes(mut self, movies: u32, users: u32) -> Self {
        self.num_movies = movies.max(1);
        self.num_users = users.max(1);
        self
    }

    /// Generate `num_ratings` ratings (+ the movies side file + truth).
    pub fn generate(&self, num_ratings: usize) -> MovieLensData {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);

        // Movies: 1..=3 genres each.
        let mut movies = String::new();
        let mut movie_genres: Vec<Vec<&'static str>> = Vec::with_capacity(self.num_movies as usize);
        for m in 1..=self.num_movies {
            let n_genres = rng.gen_range(1..=3usize);
            let mut gs: Vec<&str> = Vec::new();
            while gs.len() < n_genres {
                let g = GENRES[rng.gen_range(0..GENRES.len())];
                if !gs.contains(&g) {
                    gs.push(g);
                }
            }
            gs.sort_unstable();
            movies.push_str(&format!("{m}::Movie {m} ({})::{}\n", 1970 + (m % 45), gs.join("|")));
            movie_genres.push(gs);
        }

        // Users: long-tailed activity (user weight ∝ 1/rank) and a genre
        // bias: each user prefers movies whose id falls in "their" band,
        // which correlates their ratings with particular genres.
        let weights: Vec<f64> = (1..=self.num_users).map(|r| 1.0 / r as f64).collect();
        let total_w: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w;
            cdf.push(acc);
        }

        let mut ratings = String::with_capacity(num_ratings * 24);
        let mut truth = MovieLensTruth::default();
        for i in 0..num_ratings {
            let u_draw: f64 = rng.gen_range(0.0..total_w);
            let user = cdf.partition_point(|&c| c < u_draw) as u32 + 1;
            // Bias: 70% of a user's ratings land in a user-specific slice
            // of the movie catalog.
            let movie = if rng.gen_bool(0.7) {
                let band = user % 10;
                let lo = band * self.num_movies / 10;
                let hi = ((band + 1) * self.num_movies / 10).max(lo + 1);
                rng.gen_range(lo..hi) + 1
            } else {
                rng.gen_range(1..=self.num_movies)
            };
            let rating = (rng.gen_range(2..=10u32) as f64) / 2.0; // 1.0..5.0 halves
            let ts = 1_000_000_000 + i as u64;
            ratings.push_str(&format!("{user}::{movie}::{rating}::{ts}\n"));

            *truth.ratings_per_user.entry(user).or_default() += 1;
            for g in &movie_genres[(movie - 1) as usize] {
                truth.genre_stats.add(g, rating);
                *truth.user_genre_counts.entry((user, g.to_string())).or_default() += 1;
            }
        }

        MovieLensData { movies, ratings, truth }
    }
}

/// Parse a `ratings.dat` line into `(user, movie, rating)`.
pub fn parse_rating(line: &str) -> Option<(u32, u32, f64)> {
    let mut f = line.split("::");
    let user = f.next()?.parse().ok()?;
    let movie = f.next()?.parse().ok()?;
    let rating = f.next()?.parse().ok()?;
    Some((user, movie, rating))
}

/// Parse a `movies.dat` line into `(movie, genres)`.
pub fn parse_movie(line: &str) -> Option<(u32, Vec<&str>)> {
    let mut f = line.split("::");
    let movie = f.next()?.parse().ok()?;
    let _title = f.next()?;
    let genres = f.next()?.split('|').collect();
    Some((movie, genres))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_matches_reparse() {
        let data = MovieLensGen::new(21).generate(20_000);
        // Rebuild the genre stats by joining the two files by hand.
        let mut genre_of: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        for line in data.movies.lines() {
            let (m, gs) = parse_movie(line).unwrap();
            genre_of.insert(m, gs.iter().map(|s| s.to_string()).collect());
        }
        let mut stats = GenreStats::default();
        let mut per_user: BTreeMap<u32, u64> = BTreeMap::new();
        for line in data.ratings.lines() {
            let (u, m, r) = parse_rating(line).unwrap();
            *per_user.entry(u).or_default() += 1;
            for g in &genre_of[&m] {
                stats.add(g, r);
            }
        }
        assert_eq!(stats, data.truth.genre_stats);
        assert_eq!(per_user, data.truth.ratings_per_user);
    }

    #[test]
    fn most_active_user_is_user_one_by_design() {
        // Weight ∝ 1/rank makes user 1 the heaviest with overwhelming odds.
        let data = MovieLensGen::new(3).generate(30_000);
        let (user, count) = data.truth.most_active_user().unwrap();
        assert_eq!(user, 1);
        assert!(count > 1000, "user 1 rated {count}");
        let fav = data.truth.favorite_genre(user).unwrap();
        assert!(GENRES.contains(&fav));
    }

    #[test]
    fn movie_file_is_well_formed() {
        let data = MovieLensGen::new(1).with_sizes(50, 10).generate(100);
        assert_eq!(data.movies.lines().count(), 50);
        for line in data.movies.lines() {
            let (id, gs) = parse_movie(line).unwrap();
            assert!((1..=50).contains(&id));
            assert!(!gs.is_empty() && gs.len() <= 3);
            for g in gs {
                assert!(GENRES.contains(&g), "{g}");
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = MovieLensGen::new(8).generate(500);
        let b = MovieLensGen::new(8).generate(500);
        assert_eq!(a.ratings, b.ratings);
        assert_eq!(a.movies, b.movies);
    }

    #[test]
    fn parsers_reject_garbage() {
        assert!(parse_rating("not a rating").is_none());
        assert!(parse_movie("1::only-title").is_none());
    }
}

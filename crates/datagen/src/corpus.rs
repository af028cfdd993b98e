//! Zipf-distributed text — the Shakespeare/WordCount stand-in.
//!
//! Natural-language word frequencies are famously Zipfian, and that skew
//! is exactly why WordCount's combiner works so well (the word "the"
//! collapses from thousands of pairs to one per map task). The generator
//! samples a synthetic vocabulary under a Zipf(s) law via an inverse-CDF
//! table, tracks exact ground-truth counts, and emits plain text lines.
//!
//! Word `i` is drawn from keystream words `2i` and `2i + 1` of the seeded
//! ChaCha8 stream, so any range of words can seek its own start: ranges
//! of 64 Ki words fill disjoint slices of one buffer, on the host pool
//! when the text is big enough, and the bytes never depend on how many
//! threads wrote them.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::{Arc, Mutex, PoisonError};

use hl_common::pool::Pool;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Words per range of the pool: 64 Ki words, 576 KiB of text, so a
/// corpus of 1 MiB is already two ranges.
const RANGE_WORDS: usize = 1 << 16;

/// Bytes of a word: `w` and seven digits.
const WORD_LEN: usize = 8;

/// Bytes of a word and its separator.
const WORD_BYTES: usize = WORD_LEN + 1;

/// Vocabularies up to this size spell every word with seven digits; a
/// larger one has wider words, and is generated on one thread.
const FIXED_WIDTH_VOCAB: usize = 10_000_000;

/// Vocabularies up to this size keep their tables for the next generator
/// of the same vocabulary and exponent: at most ~1.3 MiB a table set.
const SHARED_VOCAB: usize = 1 << 16;

/// Zipf text generator.
#[derive(Debug, Clone)]
pub struct CorpusGen {
    /// Vocabulary size (0 is taken as 1).
    pub vocab_size: usize,
    /// Zipf exponent (≈1.0 for natural text).
    pub exponent: f64,
    /// Words per output line (0 is taken as 1).
    pub words_per_line: usize,
    seed: u64,
}

/// The inverse CDF of Zipf(s) over ranks `0..vocab`, with a guide table.
///
/// `rank(u)` is `cdf.partition_point(|&c| c < u)`, exactly: [`bucket`] is
/// monotone in its argument, so a `u` in bucket `b` has its rank between
/// the first rank whose CDF value lies in bucket `b` or later (`guide[b]`)
/// and the first one in bucket `b + 1` or later (`guide[b + 1]`), and the
/// same search runs over that short range only.
struct Zipf {
    cdf: Vec<f64>,
    /// `guide[b]`: the first rank `r` with `bucket(cdf[r]) >= b`, else the
    /// last rank; one entry per bucket and one past the last.
    guide: Vec<u32>,
    /// Buckets per unit of `u`.
    scale: f64,
    last_bucket: usize,
    total: f64,
}

/// The guide bucket of `x`: non-decreasing in `x`, which is all that the
/// exactness of [`Zipf::rank`] rests on.
#[inline]
fn bucket(x: f64, scale: f64, last_bucket: usize) -> usize {
    ((x * scale) as usize).min(last_bucket)
}

impl Zipf {
    /// `vocab` ≥ 1. One bucket per rank: a tail bucket holds a few ranks,
    /// and a head rank spans many buckets.
    fn new(vocab: usize, exponent: f64) -> Self {
        let mut cdf = Vec::with_capacity(vocab);
        let mut acc = 0.0;
        for rank in 1..=vocab {
            acc += 1.0 / (rank as f64).powf(exponent);
            cdf.push(acc);
        }
        let (scale, last_bucket) = (vocab as f64 / acc, vocab - 1);
        let last_rank = u32::try_from(vocab - 1).expect("a vocabulary's CDF fits in memory");
        // One pass: each rank opens every bucket up to its own.
        let mut guide = Vec::with_capacity(vocab + 1);
        for (rank, &c) in (0..).zip(&cdf) {
            while guide.len() <= bucket(c, scale, last_bucket) {
                guide.push(rank);
            }
        }
        guide.resize(vocab + 1, last_rank);
        Zipf { cdf, guide, scale, last_bucket, total: acc }
    }

    /// The 0-based rank a uniform draw `u` in `[0, total)` selects.
    #[inline]
    fn rank(&self, u: f64) -> usize {
        let b = bucket(u, self.scale, self.last_bucket);
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        lo + self.cdf[lo..hi].partition_point(|&c| c < u)
    }

    /// The rank of the next word drawn from `rng`.
    #[inline]
    fn draw(&self, rng: &mut ChaCha8Rng) -> usize {
        self.rank(rng.gen_range(0.0..self.total))
    }
}

/// Every word of a fixed-width vocabulary, `w0000000` onwards, in rank
/// order: [`WORD_LEN`] bytes each, counted up in ASCII.
fn word_table(vocab: usize) -> String {
    debug_assert!(vocab <= FIXED_WIDTH_VOCAB);
    let mut word = *b"w0000000";
    let mut table = Vec::with_capacity(vocab * WORD_LEN);
    for _ in 0..vocab {
        table.extend_from_slice(&word);
        for digit in word[1..].iter_mut().rev() {
            if *digit == b'9' {
                *digit = b'0';
            } else {
                *digit += 1;
                break;
            }
        }
    }
    String::from_utf8(table).expect("the table is ASCII")
}

/// What drawing from a vocabulary takes beyond the keystream: its Zipf
/// table and, for a fixed-width vocabulary, its word table (else empty).
/// A function of `(vocab, exponent)` alone.
struct Tables {
    zipf: Zipf,
    words: String,
}

/// The last small vocabulary's table set, keyed by `(vocab, exponent
/// bits)`.
type Kept = Option<((usize, u64), Arc<Tables>)>;

static KEPT: Mutex<Kept> = Mutex::new(None);

impl Tables {
    /// The tables of `vocab` ≥ 1 ranks under Zipf(`exponent`). The last
    /// small vocabulary's are kept and shared by the generators that ask
    /// for them next, as a lab's many small jobs do: the Zipf table costs
    /// a `powf` per rank, about half of generating 64 KiB of text.
    fn shared(vocab: usize, exponent: f64) -> Arc<Tables> {
        Self::kept_in(&KEPT, vocab, exponent)
    }

    fn kept_in(kept: &Mutex<Kept>, vocab: usize, exponent: f64) -> Arc<Tables> {
        let build = || {
            let words = if vocab > FIXED_WIDTH_VOCAB { String::new() } else { word_table(vocab) };
            Arc::new(Tables { zipf: Zipf::new(vocab, exponent), words })
        };
        if vocab > SHARED_VOCAB {
            return build();
        }
        let key = (vocab, exponent.to_bits());
        let mut kept = kept.lock().unwrap_or_else(PoisonError::into_inner);
        match &*kept {
            Some((k, tables)) if *k == key => Arc::clone(tables),
            _ => Arc::clone(&kept.insert((key, build())).1),
        }
    }
}

impl CorpusGen {
    /// Shakespeare-flavored defaults: 20 000 word vocabulary, s = 1.05,
    /// 10 words per line.
    pub fn new(seed: u64) -> Self {
        CorpusGen { vocab_size: 20_000, exponent: 1.05, words_per_line: 10, seed }
    }

    /// Smaller vocabulary (sharper skew effect, faster tests).
    pub fn with_vocab(mut self, vocab_size: usize) -> Self {
        self.vocab_size = vocab_size.max(1);
        self
    }

    /// The `i`-th vocabulary word ("w0000013"-style, rank order).
    pub(crate) fn word(&self, rank: usize) -> String {
        format!("w{rank:07}")
    }

    /// Generate `num_words` words of text plus exact ground-truth counts.
    pub fn generate(&self, num_words: usize) -> (String, BTreeMap<String, u64>) {
        self.generate_on(Pool::host(), RANGE_WORDS, num_words)
    }

    /// [`generate`](Self::generate) in ranges of `range_words` on `pool`.
    fn generate_on(
        &self,
        pool: Pool,
        range_words: usize,
        num_words: usize,
    ) -> (String, BTreeMap<String, u64>) {
        let vocab = self.vocab_size.max(1);
        let per_line = self.words_per_line.max(1);
        let tables = Tables::shared(vocab, self.exponent);
        let Tables { zipf, words } = &*tables;
        let rng = ChaCha8Rng::seed_from_u64(self.seed);
        if vocab > FIXED_WIDTH_VOCAB {
            return self.generate_wide(zipf, rng, per_line, num_words);
        }
        // Each word and its separator, then a newline if the last line is
        // short of `per_line` words.
        let body = num_words * WORD_BYTES;
        let ends_mid_line = !num_words.is_multiple_of(per_line);
        let len = body + usize::from(ends_mid_line);
        let mut text = vec![0u8; len];
        let range_bytes = range_words * WORD_BYTES;
        let lens = (0..body).step_by(range_bytes).map(|at| range_bytes.min(body - at));
        // A range counts into a table of its own, made and freed on its own
        // thread, and adds it to the total as it ends: additions commute,
        // and no worker's heap keeps a table after it.
        let by_rank = Mutex::new(vec![0u64; vocab]);
        pool.fill_indexed(&mut text[..body], lens, len as u64, |i, out| {
            let first = i * range_words;
            let mut rng = rng.clone();
            rng.set_word_pos(2 * first as u128);
            let mut counts = vec![0u32; vocab];
            let mut column = first % per_line;
            for slot in out.chunks_exact_mut(WORD_BYTES) {
                let rank = zipf.draw(&mut rng);
                counts[rank] += 1;
                let at = rank * WORD_LEN;
                slot[..WORD_LEN].copy_from_slice(&words.as_bytes()[at..at + WORD_LEN]);
                column += 1;
                slot[WORD_LEN] = if column == per_line {
                    column = 0;
                    b'\n'
                } else {
                    b' '
                };
            }
            let mut by_rank = by_rank.lock().expect("no range panics holding the total");
            for (total, n) in by_rank.iter_mut().zip(counts) {
                *total += u64::from(n);
            }
        });
        let by_rank = by_rank.into_inner().expect("no range panics holding the total");
        if ends_mid_line {
            text[body] = b'\n';
        }
        let counts = by_rank
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(rank, &n)| (words[rank * WORD_LEN..(rank + 1) * WORD_LEN].to_string(), n))
            .collect();
        (String::from_utf8(text).expect("words and separators are ASCII"), counts)
    }

    /// A vocabulary past [`FIXED_WIDTH_VOCAB`]: its words differ in width,
    /// so no range knows where in the text it starts. One thread, the same
    /// draws.
    fn generate_wide(
        &self,
        zipf: &Zipf,
        mut rng: ChaCha8Rng,
        per_line: usize,
        num_words: usize,
    ) -> (String, BTreeMap<String, u64>) {
        let mut text = String::with_capacity(num_words * (WORD_BYTES + 1));
        let mut by_rank: BTreeMap<usize, u64> = BTreeMap::new();
        for i in 0..num_words {
            let rank = zipf.draw(&mut rng);
            *by_rank.entry(rank).or_default() += 1;
            write!(text, "w{rank:07}").expect("writing to a String cannot fail");
            text.push(if (i + 1).is_multiple_of(per_line) { '\n' } else { ' ' });
        }
        if !text.ends_with('\n') && !text.is_empty() {
            text.push('\n');
        }
        (text, by_rank.into_iter().map(|(rank, n)| (self.word(rank), n)).collect())
    }

    /// Generate approximately `target_bytes` of text (each word ≈ 9 bytes
    /// with separator).
    pub fn generate_bytes(&self, target_bytes: usize) -> (String, BTreeMap<String, u64>) {
        self.generate(target_bytes / 9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_common::hash::fnv1a;
    use proptest::prelude::*;

    /// The generator before ranges: a search over the whole CDF and a
    /// `write!` per word, serially.
    fn reference(gen: &CorpusGen, num_words: usize) -> (String, BTreeMap<String, u64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(gen.seed);
        let mut cdf = Vec::with_capacity(gen.vocab_size);
        let mut acc = 0.0;
        for rank in 1..=gen.vocab_size {
            acc += 1.0 / (rank as f64).powf(gen.exponent);
            cdf.push(acc);
        }
        let mut text = String::new();
        let mut by_rank = vec![0u64; gen.vocab_size];
        for i in 0..num_words {
            let u: f64 = rng.gen_range(0.0..acc);
            let rank = cdf.partition_point(|&c| c < u);
            by_rank[rank] += 1;
            write!(text, "w{rank:07}").unwrap();
            text.push(if (i + 1).is_multiple_of(gen.words_per_line) { '\n' } else { ' ' });
        }
        if !text.ends_with('\n') && !text.is_empty() {
            text.push('\n');
        }
        let counts = (0..gen.vocab_size)
            .filter(|&rank| by_rank[rank] > 0)
            .map(|rank| (gen.word(rank), by_rank[rank]))
            .collect();
        (text, counts)
    }

    /// Every `u` the guide table must get right in `zipf`: both sides of
    /// each bucket edge, and the ends of `[0, total)`.
    fn bucket_edges(zipf: &Zipf) -> Vec<f64> {
        let mut edges = vec![0.0, f64::from_bits(zipf.total.to_bits() - 1)];
        for b in 0..=zipf.last_bucket + 1 {
            let edge = b as f64 / zipf.scale;
            for u in [
                f64::from_bits(edge.to_bits().saturating_sub(1)),
                edge,
                f64::from_bits(edge.to_bits() + 1),
            ] {
                if (0.0..zipf.total).contains(&u) {
                    edges.push(u);
                }
            }
        }
        edges
    }

    #[test]
    fn generators_of_one_vocabulary_and_exponent_share_its_tables() {
        let kept = Mutex::new(None);
        let default = Tables::kept_in(&kept, 20_000, 1.05);
        assert!(Arc::ptr_eq(&default, &Tables::kept_in(&kept, 20_000, 1.05)));
        // A different key rebuilds, and is the one kept.
        let next_exponent = f64::from_bits(1.05f64.to_bits() + 1);
        let other = Tables::kept_in(&kept, 20_000, next_exponent);
        assert!(!Arc::ptr_eq(&default, &other));
        assert!(Arc::ptr_eq(&other, &Tables::kept_in(&kept, 20_000, next_exponent)));
        // A large vocabulary is built afresh each time and never kept.
        let large = Tables::kept_in(&kept, SHARED_VOCAB + 1, 1.05);
        assert!(!Arc::ptr_eq(&large, &Tables::kept_in(&kept, SHARED_VOCAB + 1, 1.05)));
        assert_eq!(large.words.len(), (SHARED_VOCAB + 1) * WORD_LEN);
        assert!(Arc::ptr_eq(&other, &Tables::kept_in(&kept, 20_000, next_exponent)));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        #[test]
        fn the_guide_table_finds_the_rank_a_whole_table_search_finds(
            vocab in prop_oneof![Just(1usize), Just(2usize), Just(400usize), Just(20_000usize)],
            exponent in 0.5f64..2.0,
            draws in proptest::collection::vec(0.0f64..1.0, 1..200),
        ) {
            let zipf = Zipf::new(vocab, exponent);
            let whole = |u: f64| zipf.cdf.partition_point(|&c| c < u);
            let edges = bucket_edges(&zipf);
            prop_assert!(edges.len() > vocab, "{} edges for {vocab} buckets", edges.len());
            for u in edges.into_iter().chain(draws.iter().map(|d| d * zipf.total)) {
                prop_assert_eq!(zipf.rank(u), whole(u), "u = {u}, vocab {vocab}, s = {exponent}");
            }
        }

        #[test]
        fn ranges_on_any_pool_write_what_the_serial_generator_wrote(
            seed in 0u64..1_000,
            vocab in 1usize..3_000,
            exponent in 0.5f64..2.0,
            words_per_line in 1usize..15,
            num_words in 0usize..3_000,
            range_words in 1usize..400,
            workers in 1usize..6,
        ) {
            let mut gen = CorpusGen::new(seed).with_vocab(vocab);
            gen.exponent = exponent;
            gen.words_per_line = words_per_line;
            prop_assert_eq!(
                gen.generate_on(Pool::forced(workers), range_words, num_words),
                reference(&gen, num_words)
            );
        }
    }

    #[test]
    fn one_two_or_five_workers_write_the_serial_bytes() {
        // Range edges that split a line, and line lengths that do not
        // divide a range, at the pool's own range size and a small one.
        for (range_words, num_words) in [(RANGE_WORDS, 2 * RANGE_WORDS + 3), (64, 1_000)] {
            for words_per_line in [1, 7, 10, 64] {
                let mut gen = CorpusGen::new(11).with_vocab(400);
                gen.words_per_line = words_per_line;
                let serial = reference(&gen, num_words);
                for workers in [1, 2, 5] {
                    let pooled = gen.generate_on(Pool::forced(workers), range_words, num_words);
                    assert!(pooled == serial, "{workers} workers, {words_per_line} per line");
                }
            }
        }
    }

    #[test]
    fn zero_words_per_line_is_one() {
        let mut gen = CorpusGen::new(5).with_vocab(30);
        gen.words_per_line = 0;
        let (text, counts) = gen.generate(50);
        assert_eq!(text.lines().count(), 50);
        assert_eq!(counts.values().sum::<u64>(), 50);
        gen.words_per_line = 1;
        assert_eq!(gen.generate(50), (text, counts));
    }

    #[test]
    fn a_zero_vocabulary_is_one_word() {
        let mut gen = CorpusGen::new(5);
        gen.vocab_size = 0;
        let (text, counts) = gen.generate(12);
        // A short last line keeps its separator before the newline.
        assert_eq!(text, "w0000000 ".repeat(9) + "w0000000\nw0000000 w0000000 \n");
        assert_eq!(counts, BTreeMap::from([("w0000000".to_string(), 12)]));
    }

    #[test]
    #[ignore = "builds a CDF of ten million ranks, ~200 MB"]
    fn a_vocabulary_with_eight_digit_words_is_generated_as_before() {
        let mut gen = CorpusGen::new(3).with_vocab(FIXED_WIDTH_VOCAB + 1);
        gen.exponent = 0.0;
        assert_eq!(gen.generate(5_000), reference(&gen, 5_000));
    }

    #[test]
    fn ground_truth_matches_text() {
        let gen = CorpusGen::new(42).with_vocab(100);
        let (text, counts) = gen.generate(5_000);
        let mut recount: BTreeMap<String, u64> = BTreeMap::new();
        for w in text.split_whitespace() {
            *recount.entry(w.to_string()).or_default() += 1;
        }
        assert_eq!(recount, counts);
        assert_eq!(counts.values().sum::<u64>(), 5_000);
    }

    /// FNV-1a of the text, then of every `word=count\n` in map order.
    fn fingerprint(text: &str, counts: &BTreeMap<String, u64>) -> (u64, u64) {
        let listing: String = counts.iter().map(|(w, n)| format!("{w}={n}\n")).collect();
        (fnv1a(text.as_bytes()), fnv1a(listing.as_bytes()))
    }

    #[test]
    fn output_bytes_are_pinned() {
        // Taken from the per-word `format!` + `BTreeMap` probe generator
        // this one replaced: the benchmark's inputs and every golden table
        // built on a corpus depend on these bytes.
        let (text, counts) = CorpusGen::new(42).generate(150_000);
        assert_eq!(
            fingerprint(&text, &counts),
            (16_185_704_488_222_857_511, 14_428_606_836_913_486_680)
        );
        let (text, counts) = CorpusGen::new(7).with_vocab(100).generate(5_000);
        assert_eq!(
            fingerprint(&text, &counts),
            (17_750_040_100_705_690_022, 8_134_034_269_677_090_249)
        );
        // Taken from the `write!` + whole-table `partition_point` generator
        // the ranged one replaced. `hsgen`'s shape (vocabulary 400), ending
        // mid-line.
        let (text, counts) = CorpusGen::new(42).with_vocab(400).generate(120_003);
        assert_eq!(text.len(), 1_080_028);
        assert_eq!(
            fingerprint(&text, &counts),
            (16_157_981_525_091_113_673, 874_199_095_852_614_263)
        );
        // 3 MiB of the default shape, ending mid-line.
        let (text, counts) = CorpusGen::new(2014).generate_bytes(3 << 20);
        assert_eq!(text.len(), 3_145_726);
        assert_eq!(
            fingerprint(&text, &counts),
            (14_658_319_981_995_731_608, 11_932_227_575_353_797_167)
        );
    }

    #[test]
    fn distribution_is_zipf_skewed() {
        let gen = CorpusGen::new(7).with_vocab(1000);
        let (_, counts) = gen.generate(50_000);
        let top = counts.get(&gen.word(0)).copied().unwrap_or(0);
        let tenth = counts.get(&gen.word(9)).copied().unwrap_or(0);
        // Zipf: rank-1 ≈ 10^s × rank-10. Allow wide slack.
        assert!(top > 4 * tenth, "rank1={top} rank10={tenth}");
        // A huge share of mass sits in the head.
        let head: u64 = (0..10).filter_map(|r| counts.get(&gen.word(r))).sum();
        assert!(head > 50_000 / 4, "head mass {head}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = CorpusGen::new(1).with_vocab(50).generate(1000);
        let b = CorpusGen::new(1).with_vocab(50).generate(1000);
        let c = CorpusGen::new(2).with_vocab(50).generate(1000);
        assert_eq!(a.0, b.0);
        assert_ne!(a.0, c.0);
    }

    #[test]
    fn line_structure() {
        let gen = CorpusGen::new(3).with_vocab(10);
        let (text, _) = gen.generate(25);
        assert_eq!(text.lines().count(), 3); // 10 + 10 + 5
        assert!(text.ends_with('\n'));
        let (empty, counts) = gen.generate(0);
        assert!(empty.is_empty());
        assert!(counts.is_empty());
    }

    #[test]
    fn generate_bytes_lands_near_target() {
        let gen = CorpusGen::new(4);
        let (text, _) = gen.generate_bytes(90_000);
        let len = text.len();
        assert!((60_000..=120_000).contains(&len), "{len}");
    }
}

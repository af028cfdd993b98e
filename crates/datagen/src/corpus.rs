//! Zipf-distributed text — the Shakespeare/WordCount stand-in.
//!
//! Natural-language word frequencies are famously Zipfian, and that skew
//! is exactly why WordCount's combiner works so well (the word "the"
//! collapses from thousands of pairs to one per map task). The generator
//! samples a synthetic vocabulary under a Zipf(s) law via an inverse-CDF
//! table, tracks exact ground-truth counts, and emits plain text lines.

use std::collections::BTreeMap;
use std::fmt::Write;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Zipf text generator.
#[derive(Debug, Clone)]
pub struct CorpusGen {
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Zipf exponent (≈1.0 for natural text).
    pub exponent: f64,
    /// Words per output line.
    pub words_per_line: usize,
    seed: u64,
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
    pub fn word(&self, rank: usize) -> String {
        format!("w{rank:07}")
    }

    /// Generate `num_words` words of text plus exact ground-truth counts.
    pub fn generate(&self, num_words: usize) -> (String, BTreeMap<String, u64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        // Inverse-CDF table for Zipf(s) over ranks 1..=V.
        let mut cdf = Vec::with_capacity(self.vocab_size);
        let mut acc = 0.0;
        for rank in 1..=self.vocab_size {
            acc += 1.0 / (rank as f64).powf(self.exponent);
            cdf.push(acc);
        }
        let total = acc;

        let mut text = String::with_capacity(num_words * 9);
        let mut by_rank = vec![0u64; self.vocab_size];
        for i in 0..num_words {
            let u: f64 = rng.gen_range(0.0..total);
            let rank = cdf.partition_point(|&c| c < u); // 0-based rank
            by_rank[rank] += 1;
            write!(text, "w{rank:07}").expect("writing to a String cannot fail");
            if (i + 1) % self.words_per_line == 0 {
                text.push('\n');
            } else {
                text.push(' ');
            }
        }
        if !text.ends_with('\n') && !text.is_empty() {
            text.push('\n');
        }
        let counts = by_rank
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(rank, &n)| (self.word(rank), n))
            .collect();
        (text, counts)
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

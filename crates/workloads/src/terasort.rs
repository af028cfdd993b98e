//! Total-order sort — the advanced-lecture partitioner trick.
//!
//! The final lecture covers "advanced MapReduce optimization concepts";
//! the canonical one beyond combiners is the **range partitioner**
//! (TeraSort's trick): sample the key space, cut it into `R` ordered
//! ranges, and route each key to the reducer owning its range. Each
//! reducer's output is sorted (the merge guarantees that), and because the
//! ranges are ordered, concatenating `part-r-00000..part-r-NNNNN` yields a
//! **globally sorted** result — something hash partitioning can never give.

use std::borrow::Borrow;
use std::collections::HashSet;

use hl_common::hash::FnvBuildHasher;
use hl_mapreduce::api::{words, MapContext, Mapper, ReduceContext, Reducer};
use hl_mapreduce::job::{Job, JobConf};

/// Identity-ish mapper: emits `(word, 1)` per token (we sort the corpus's
/// vocabulary with counts, which keeps outputs small and checkable). Like
/// `WcMapper`, it reuses one key `String` for the whole task.
#[derive(Default)]
pub struct TokenMapper {
    token: String,
}

impl Mapper for TokenMapper {
    type KOut = String;
    type VOut = u64;
    fn map(&mut self, _o: u64, line: &str, ctx: &mut MapContext<String, u64>) {
        for tok in words(line) {
            self.token.clear();
            self.token.push_str(tok);
            ctx.emit(&self.token, 1);
        }
    }
}

/// Summing reducer emitting `word \t count` — each partition's output is
/// key-sorted by construction.
pub struct CountReducer;

impl Reducer for CountReducer {
    type KIn = String;
    type VIn = u64;
    fn reduce(
        &mut self,
        key: impl Borrow<String>,
        values: impl IntoIterator<Item = u64>,
        ctx: &mut ReduceContext,
    ) {
        ctx.emit(key.borrow(), values.into_iter().sum::<u64>());
    }
}

/// Build cut points by sampling every `stride`-th distinct token of the
/// input — the "sampler job" TeraSort runs first, done inline here. Only
/// the distinct tokens are sorted, collected in first-seen order (the set
/// is asked, never walked, so an FNV-1a hasher serves it).
pub fn sample_cut_points(text: &str, num_reduces: usize) -> Vec<String> {
    if num_reduces <= 1 {
        return Vec::new();
    }
    let mut seen = HashSet::with_hasher(FnvBuildHasher::default());
    let mut tokens: Vec<&str> = words(text).filter(|t| seen.insert(*t)).collect();
    tokens.sort_unstable();
    if tokens.is_empty() {
        return Vec::new();
    }
    (1..num_reduces).map(|i| tokens[i * tokens.len() / num_reduces].to_string()).collect()
}

/// A total-order sorted word count: range-partitioned by the given cut
/// points (length `reduces - 1`, ascending).
pub fn sorted_wordcount(
    input: &str,
    output: &str,
    cut_points: Vec<String>,
) -> Job<TokenMapper, CountReducer, hl_mapreduce::api::NoCombiner<String, u64>> {
    let reduces = cut_points.len() + 1;
    Job::new(
        JobConf::new("total-order-wordcount").input(input).output(output).reduces(reduces),
        TokenMapper::default,
        || CountReducer,
    )
    .partitioned_by(move |key: &String, _bytes, n| {
        // First range whose cut point exceeds the key.
        cut_points.partition_point(|c| c.as_str() <= key.as_str()).min(n - 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_datagen::corpus::CorpusGen;
    use hl_mapreduce::api::SideFiles;
    use hl_mapreduce::local::LocalRunner;

    #[test]
    fn cut_points_are_sorted_and_sized() {
        let cuts = sample_cut_points("delta alpha echo bravo charlie", 3);
        assert_eq!(cuts.len(), 2);
        assert!(cuts.windows(2).all(|w| w[0] <= w[1]));
        assert!(sample_cut_points("", 4).is_empty());
        assert!(sample_cut_points("a b", 1).is_empty());
    }

    /// The sampler before it collected distinct tokens first: every token
    /// sorted, then deduplicated.
    fn sort_then_dedup_cut_points(text: &str, num_reduces: usize) -> Vec<String> {
        let mut tokens: Vec<&str> = text.split_whitespace().collect();
        tokens.sort_unstable();
        tokens.dedup();
        if tokens.is_empty() || num_reduces <= 1 {
            return Vec::new();
        }
        (1..num_reduces).map(|i| tokens[i * tokens.len() / num_reduces].to_string()).collect()
    }

    #[test]
    fn distinct_tokens_first_cut_where_sorting_every_token_did() {
        let (hsgen_text, _) = crate::tpcxhs::hsgen(42, 30_000);
        let (wide_text, _) = CorpusGen::new(3).generate(30_000);
        let texts = [
            hsgen_text.as_str(),
            wide_text.as_str(),
            "",
            " \n\t ",
            "solo",
            "solo solo\nsolo",
            "b a c a b\td\ne",
        ];
        for text in texts {
            for reduces in [0, 1, 2, 3, 7, 64, 1_000] {
                assert_eq!(
                    sample_cut_points(text, reduces),
                    sort_then_dedup_cut_points(text, reduces),
                    "{reduces} reduces over {:?}",
                    &text[..text.len().min(24)]
                );
            }
        }
        assert_eq!(sample_cut_points("solo", 3), ["solo", "solo"]);
    }

    #[test]
    fn concatenated_partitions_are_globally_sorted() {
        let (text, truth) = CorpusGen::new(8).with_vocab(300).generate(15_000);
        let cuts = sample_cut_points(&text, 4);
        let job = sorted_wordcount("/i", "/o", cuts);
        // The local runner concatenates reduce outputs in partition order,
        // so `output` should already be globally key-sorted.
        let report = LocalRunner::serial()
            .run(&job, &[("c.txt".to_string(), text.into_bytes())], &SideFiles::new())
            .unwrap();
        let keys: Vec<&str> = report.output.iter().map(|l| l.split_once('\t').unwrap().0).collect();
        assert!(!keys.is_empty());
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "global order must hold across partition boundaries"
        );
        // And counts are still exact.
        for line in &report.output {
            let (k, v) = line.split_once('\t').unwrap();
            assert_eq!(truth[k], v.parse::<u64>().unwrap(), "{k}");
        }
        assert_eq!(keys.len(), truth.len());
    }

    #[test]
    fn hash_partitioning_breaks_global_order() {
        // The control: the same job without the range partitioner.
        let (text, _) = CorpusGen::new(8).with_vocab(300).generate(15_000);
        let job = Job::new(
            JobConf::new("hashed").input("/i").output("/o").reduces(4),
            TokenMapper::default,
            || CountReducer,
        );
        let report = LocalRunner::serial()
            .run(&job, &[("c.txt".to_string(), text.into_bytes())], &SideFiles::new())
            .unwrap();
        let keys: Vec<&str> = report.output.iter().map(|l| l.split_once('\t').unwrap().0).collect();
        assert!(
            !keys.windows(2).all(|w| w[0] < w[1]),
            "hash partitioning should interleave ranges across partitions"
        );
    }

    #[test]
    fn skewed_cut_points_still_cover_all_keys() {
        // Degenerate cuts: everything lands in the last partition; the
        // partitioner must clamp rather than panic.
        let (text, truth) = CorpusGen::new(9).with_vocab(50).generate(2_000);
        let cuts = vec!["".to_string(), "".to_string(), "".to_string()];
        let job = sorted_wordcount("/i", "/o", cuts);
        let report = LocalRunner::serial()
            .run(&job, &[("c.txt".to_string(), text.into_bytes())], &SideFiles::new())
            .unwrap();
        assert_eq!(report.output.len(), truth.len());
    }
}

//! A TPCx-HS-style three-phase sort benchmark: HSGen → HSSort → HSValidate.
//!
//! TPCx-HS is the industry-standard Hadoop sort benchmark: generate a
//! seeded dataset, totally-order-sort it, then *validate* the sorted
//! output with a second MapReduce job that checks global order and
//! re-derives a dataset checksum. Scaled down to course size, the three
//! phases map onto this repo's stack as:
//!
//! * **hsgen** — a pinned-seed corpus from [`CorpusGen`], staged into the
//!   DFS (the generator's exact word counts are the ground truth);
//! * **hssort** — a total-order sorted word count using the range
//!   partitioner from the [`crate::terasort`] lecture;
//! * **hsvalidate** — a MapReduce job over hssort's output directory:
//!   each map task scans one split, tracking first/last key, local
//!   sortedness, a CRC32 sum, and a record count, and emits a single
//!   summary record from `cleanup`; one reducer receives the summaries
//!   ordered by first key (the shuffle sorts them) and checks that every
//!   split boundary preserves the global order.
//!
//! The validator's checksum is an order-independent wrapping sum of
//! per-line CRC32s (exactly TPCx-HS's trick: sum-of-checksums plus
//! boundary ordering together certify the sort), so it can be compared
//! against [`expected_digest`] computed from the generator's truth table
//! without re-sorting anything.
//!
//! The `tpcxhs` section of `hl_core::sim_numbers` runs the suite 2×2 —
//! speculative execution on/off × homogeneous/skewed cluster — which is
//! the degraded-mode ablation in EXPERIMENTS.md.

use std::collections::BTreeMap;

use hl_common::checksum::Crc32;
use hl_datagen::corpus::CorpusGen;
use hl_mapreduce::api::{MapContext, Mapper, ReduceContext, Reducer};
use hl_mapreduce::job::{Job, JobConf};

use crate::terasort::{sample_cut_points, CountReducer, TokenMapper};

/// HSGen: the pinned dataset. Returns the corpus text and the exact
/// word-count truth table (the "expected database" TPCx-HS would keep).
pub fn hsgen(seed: u64, words: usize) -> (String, BTreeMap<String, u64>) {
    CorpusGen::new(seed).with_vocab(400).generate(words)
}

/// HSSort: total-order sorted word count over the staged corpus, range
/// partitioned by cut points sampled from the input (the inline sampler
/// job). Concatenating `part-r-*` in partition order yields a globally
/// sorted file set.
pub fn hssort(
    input: &str,
    output: &str,
    corpus: &str,
    reduces: usize,
) -> Job<TokenMapper, CountReducer, hl_mapreduce::api::NoCombiner<String, u64>> {
    let cut_points = sample_cut_points(corpus, reduces);
    let reduces = cut_points.len() + 1;
    Job::new(
        JobConf::new("hssort").input(input).output(output).reduces(reduces),
        TokenMapper::default,
        || CountReducer,
    )
    .partitioned_by(move |key: &String, _bytes, n| {
        cut_points.partition_point(|c| c.as_str() <= key.as_str()).min(n - 1)
    })
}

/// Per-split scanner for HSValidate: accumulates the split's first/last
/// key, local sortedness, CRC32 sum, and record count, and emits one
/// summary pair from `cleanup` keyed by the split's first key.
#[derive(Default)]
pub struct ValidateMapper {
    first: Option<String>,
    last: Option<String>,
    sorted: bool,
    crc_sum: u64,
    records: u64,
}

impl Mapper for ValidateMapper {
    type KOut = String;
    type VOut = String;

    fn setup(&mut self, _ctx: &mut MapContext<String, String>) {
        self.sorted = true;
    }

    fn map(&mut self, _offset: u64, line: &str, _ctx: &mut MapContext<String, String>) {
        let key = line.split('\t').next().unwrap_or(line).to_string();
        if let Some(last) = &self.last {
            if key.as_str() <= last.as_str() {
                self.sorted = false;
            }
        }
        if self.first.is_none() {
            self.first = Some(key.clone());
        }
        self.crc_sum = self.crc_sum.wrapping_add(u64::from(Crc32::checksum(line.as_bytes())));
        self.records += 1;
        self.last = Some(key);
    }

    fn cleanup(&mut self, ctx: &mut MapContext<String, String>) {
        // Empty splits contribute nothing — there is no boundary to check.
        if let (Some(first), Some(last)) = (self.first.take(), self.last.take()) {
            let sorted = if self.sorted { 1 } else { 0 };
            ctx.emit(first, format!("{last}|{sorted}|{}|{}", self.crc_sum, self.records));
        }
    }
}

/// The single HSValidate reducer: receives split summaries sorted by first
/// key (hssort's output order), checks every boundary and every split's
/// local order, and emits one verdict line
/// `result \t SORTED|records|crc_sum` (or `UNSORTED`).
#[derive(Default)]
pub struct ValidateReducer {
    prev_last: Option<String>,
    ordered: bool,
    crc_sum: u64,
    records: u64,
    splits: u64,
}

impl Reducer for ValidateReducer {
    type KIn = String;
    type VIn = String;

    fn setup(&mut self, _ctx: &mut ReduceContext) {
        self.ordered = true;
    }

    fn reduce(&mut self, first: String, values: Vec<String>, _ctx: &mut ReduceContext) {
        for summary in values {
            let mut parts = summary.split('|');
            let last = parts.next().unwrap_or_default().to_string();
            let sorted = parts.next() == Some("1");
            let crc: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
            let count: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
            if !sorted || last < first {
                self.ordered = false;
            }
            // Distinct words mean split boundaries must be strict.
            if let Some(prev) = &self.prev_last {
                if first.as_str() <= prev.as_str() {
                    self.ordered = false;
                }
            }
            self.crc_sum = self.crc_sum.wrapping_add(crc);
            self.records += count;
            self.splits += 1;
            self.prev_last = Some(match self.prev_last.take() {
                Some(p) if p > last => p,
                _ => last,
            });
        }
    }

    fn cleanup(&mut self, ctx: &mut ReduceContext) {
        let verdict = if self.ordered { "SORTED" } else { "UNSORTED" };
        ctx.emit("result", format!("{verdict}|{}|{}|{}", self.records, self.crc_sum, self.splits));
    }
}

/// HSValidate as a job: point `input` at hssort's output *directory* (the
/// engine expands it to the `part-r-*` files) and read the single verdict
/// line from the output.
pub fn hsvalidate(
    input: &str,
    output: &str,
) -> Job<ValidateMapper, ValidateReducer, hl_mapreduce::api::NoCombiner<String, String>> {
    Job::new(
        JobConf::new("hsvalidate").input(input).output(output).reduces(1),
        ValidateMapper::default,
        ValidateReducer::default,
    )
}

/// The verdict HSValidate reports, parsed from its one output line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HsVerdict {
    /// True when every split was locally sorted and every boundary held.
    pub sorted: bool,
    /// Total records across all splits.
    pub records: u64,
    /// Wrapping sum of per-line CRC32s.
    pub crc_sum: u64,
    /// Number of non-empty splits scanned.
    pub splits: u64,
}

/// Parse the validator's output lines into a verdict.
pub fn parse_verdict(output: &[String]) -> Option<HsVerdict> {
    let line = output.iter().find(|l| l.starts_with("result\t"))?;
    let mut parts = line.strip_prefix("result\t")?.split('|');
    let sorted = match parts.next()? {
        "SORTED" => true,
        "UNSORTED" => false,
        _ => return None,
    };
    Some(HsVerdict {
        sorted,
        records: parts.next()?.parse().ok()?,
        crc_sum: parts.next()?.parse().ok()?,
        splits: parts.next()?.parse().ok()?,
    })
}

/// What HSValidate must report for a *correct* sort of the generated
/// dataset: one record per distinct word, CRC summed over the exact
/// `word \t count` lines hssort emits.
pub fn expected_digest(truth: &BTreeMap<String, u64>) -> (u64, u64) {
    let mut crc_sum = 0u64;
    for (word, count) in truth {
        let line = format!("{word}\t{count}");
        crc_sum = crc_sum.wrapping_add(u64::from(Crc32::checksum(line.as_bytes())));
    }
    (truth.len() as u64, crc_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_mapreduce::api::SideFiles;
    use hl_mapreduce::local::LocalRunner;

    fn run_local<M, R, C>(job: &Job<M, R, C>, files: &[(String, Vec<u8>)]) -> Vec<String>
    where
        M: Mapper,
        M::KOut: Send,
        M::VOut: Send,
        R: Reducer<KIn = M::KOut, VIn = M::VOut>,
        C: hl_mapreduce::api::Combiner<K = M::KOut, V = M::VOut>,
    {
        LocalRunner::serial().run(job, files, &SideFiles::new()).unwrap().output
    }

    #[test]
    fn validate_certifies_a_correct_sort() {
        let (corpus, truth) = hsgen(7, 20_000);
        let sort = hssort("/i", "/o", &corpus, 4);
        let sorted = run_local(&sort, &[("c.txt".to_string(), corpus.into_bytes())]);
        // Feed the sorted output back through the validator as four files,
        // simulating the four part-r files in partition order.
        let chunk = sorted.len().div_ceil(4);
        let parts: Vec<(String, Vec<u8>)> = sorted
            .chunks(chunk)
            .enumerate()
            .map(|(i, lines)| (format!("part-r-{i:05}"), (lines.join("\n") + "\n").into_bytes()))
            .collect();
        let out = run_local(&hsvalidate("/o", "/v"), &parts);
        let verdict = parse_verdict(&out).expect("validator emits a verdict");
        assert!(verdict.sorted, "a correct sort must certify: {verdict:?}");
        let (records, crc_sum) = expected_digest(&truth);
        assert_eq!(verdict.records, records);
        assert_eq!(verdict.crc_sum, crc_sum);
        assert!(verdict.splits >= 1);
    }

    #[test]
    fn validate_rejects_an_unsorted_stream() {
        // Hash-partitioned output interleaves ranges across files; the
        // validator must notice the broken boundaries.
        let (corpus, _) = hsgen(7, 5_000);
        let job = Job::new(
            JobConf::new("hashed").input("/i").output("/o").reduces(3),
            TokenMapper::default,
            || CountReducer,
        );
        let hashed = run_local(&job, &[("c.txt".to_string(), corpus.into_bytes())]);
        let files = vec![("part-r-00000".to_string(), (hashed.join("\n") + "\n").into_bytes())];
        let out = run_local(&hsvalidate("/o", "/v"), &files);
        let verdict = parse_verdict(&out).expect("validator emits a verdict");
        assert!(!verdict.sorted, "interleaved ranges must fail validation");
    }

    #[test]
    fn validate_rejects_a_corrupted_record() {
        let (corpus, truth) = hsgen(11, 8_000);
        let sort = hssort("/i", "/o", &corpus, 2);
        let mut sorted = run_local(&sort, &[("c.txt".to_string(), corpus.into_bytes())]);
        // Flip one count: order still holds, but the checksum must not.
        let (k, v) = sorted[0].split_once('\t').unwrap();
        sorted[0] = format!("{k}\t{}", v.parse::<u64>().unwrap() + 1);
        let files = vec![("part-r-00000".to_string(), (sorted.join("\n") + "\n").into_bytes())];
        let out = run_local(&hsvalidate("/o", "/v"), &files);
        let verdict = parse_verdict(&out).unwrap();
        assert!(verdict.sorted, "order is intact");
        let (records, crc_sum) = expected_digest(&truth);
        assert_eq!(verdict.records, records);
        assert_ne!(verdict.crc_sum, crc_sum, "corruption must change the digest");
    }

    #[test]
    fn digest_is_order_independent() {
        // The sum-of-CRCs digest must not care how records were split
        // across map tasks — only the boundary check does.
        let (corpus, truth) = hsgen(3, 6_000);
        let sort = hssort("/i", "/o", &corpus, 3);
        let sorted = run_local(&sort, &[("c.txt".to_string(), corpus.into_bytes())]);
        for nfiles in [1usize, 2, 5] {
            let chunk = sorted.len().div_ceil(nfiles);
            let parts: Vec<(String, Vec<u8>)> = sorted
                .chunks(chunk)
                .enumerate()
                .map(|(i, ls)| (format!("p{i}"), (ls.join("\n") + "\n").into_bytes()))
                .collect();
            let out = run_local(&hsvalidate("/o", "/v"), &parts);
            let verdict = parse_verdict(&out).unwrap();
            assert_eq!(verdict.crc_sum, expected_digest(&truth).1, "nfiles={nfiles}");
            assert!(verdict.sorted);
        }
    }

    #[test]
    fn verdict_parsing_is_strict() {
        assert!(parse_verdict(&[]).is_none());
        assert!(parse_verdict(&["result\tGARBAGE|1|2|3".to_string()]).is_none());
        assert!(parse_verdict(&["result\tSORTED|x|2|3".to_string()]).is_none());
        let v = parse_verdict(&["result\tSORTED|10|999|4".to_string()]).unwrap();
        assert_eq!(v, HsVerdict { sorted: true, records: 10, crc_sum: 999, splits: 4 });
    }
}

//! WordCount — the canonical first example, in the three forms the
//! lecture walks through.
//!
//! 1. [`WcMapper`] + [`WcReducer`]: the standard example.
//! 2. `+ WcCombiner` ("another WordCount example that uses the reducer as
//!    a combiner"): students observe more map time, far less shuffle.
//! 3. [`InMapperWcMapper`]: in-mapper combining — a per-task hash table,
//!    flushed in `cleanup`, trading task memory for even less shuffle and
//!    no combiner-invocation overhead.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use hl_mapreduce::api::{words, Combiner, MapContext, Mapper, ReduceContext, Reducer};
use hl_mapreduce::job::{Job, JobConf};

/// Tokenizing mapper: emits `(word, 1)` per token.
///
/// It keeps one `String` for the task, overwrites it with each word and
/// emits it by reference, as Hadoop's WordCount sets one reused `Text`
/// per word: `emit` serializes the key at once, so a fresh `String` per
/// word would only be a `malloc` and a `free` per record.
#[derive(Default)]
pub struct WcMapper {
    word: String,
}

impl Mapper for WcMapper {
    type KOut = String;
    type VOut = u64;
    fn map(&mut self, _offset: u64, line: &str, ctx: &mut MapContext<String, u64>) {
        for word in words(line) {
            self.word.clear();
            self.word.push_str(word);
            ctx.emit(&self.word, 1);
        }
    }
}

/// Summing reducer: emits `(word, total)`.
pub struct WcReducer;

impl Reducer for WcReducer {
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

/// The reducer's logic reused as a combiner (sums are associative, so this
/// is safe — the lecture's point).
pub struct WcCombiner;

impl Combiner for WcCombiner {
    type K = String;
    type V = u64;
    fn combine(
        &mut self,
        _key: &String,
        values: impl IntoIterator<Item = u64>,
        out: &mut Vec<u64>,
    ) {
        out.push(values.into_iter().sum());
    }
}

/// In-mapper combining: a per-task table, flushed once in `cleanup`.
#[derive(Default)]
pub struct InMapperWcMapper {
    table: BTreeMap<String, u64>,
}

impl Mapper for InMapperWcMapper {
    type KOut = String;
    type VOut = u64;

    fn map(&mut self, _offset: u64, line: &str, _ctx: &mut MapContext<String, u64>) {
        for word in words(line) {
            *self.table.entry(word.to_string()).or_default() += 1;
        }
    }

    fn cleanup(&mut self, ctx: &mut MapContext<String, u64>) {
        for (word, count) in std::mem::take(&mut self.table) {
            ctx.emit(word, count);
        }
    }
}

/// Standard WordCount job (no combiner).
pub fn wordcount(
    input: &str,
    output: &str,
    reduces: usize,
) -> Job<WcMapper, WcReducer, hl_mapreduce::api::NoCombiner<String, u64>> {
    Job::new(
        JobConf::new("wordcount").input(input).output(output).reduces(reduces),
        WcMapper::default,
        || WcReducer,
    )
}

/// WordCount with the reducer as a combiner.
pub fn wordcount_combiner(
    input: &str,
    output: &str,
    reduces: usize,
) -> Job<WcMapper, WcReducer, WcCombiner> {
    Job::with_combiner(
        JobConf::new("wordcount+combiner").input(input).output(output).reduces(reduces),
        WcMapper::default,
        || WcReducer,
        || WcCombiner,
    )
}

/// WordCount with in-mapper combining.
pub fn wordcount_inmapper(
    input: &str,
    output: &str,
    reduces: usize,
) -> Job<InMapperWcMapper, WcReducer, hl_mapreduce::api::NoCombiner<String, u64>> {
    Job::new(
        JobConf::new("wordcount-inmapper").input(input).output(output).reduces(reduces),
        InMapperWcMapper::default,
        || WcReducer,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_datagen::corpus::CorpusGen;
    use hl_mapreduce::api::SideFiles;
    use hl_mapreduce::local::LocalRunner;

    fn counts_of(lines: &[String]) -> BTreeMap<String, u64> {
        lines
            .iter()
            .map(|l| {
                let (k, v) = l.split_once('\t').unwrap();
                (k.to_string(), v.parse().unwrap())
            })
            .collect()
    }

    #[test]
    fn all_three_variants_agree_with_ground_truth() {
        let gen = CorpusGen::new(99).with_vocab(200);
        let (text, truth) = gen.generate(10_000);
        let inputs = vec![("corpus.txt".to_string(), text.into_bytes())];
        let runner = LocalRunner::serial();

        let plain = runner.run(&wordcount("/i", "/o", 2), &inputs, &SideFiles::new()).unwrap();
        assert_eq!(counts_of(&plain.output), truth);

        let combined =
            runner.run(&wordcount_combiner("/i", "/o", 2), &inputs, &SideFiles::new()).unwrap();
        assert_eq!(counts_of(&combined.output), truth);

        let inmapper =
            runner.run(&wordcount_inmapper("/i", "/o", 2), &inputs, &SideFiles::new()).unwrap();
        assert_eq!(counts_of(&inmapper.output), truth);
    }

    #[test]
    fn variants_differ_in_map_output_records() {
        use hl_common::counters::TaskCounter;
        let (text, _) = CorpusGen::new(5).with_vocab(100).generate(20_000);
        let inputs = vec![("c.txt".to_string(), text.into_bytes())];
        let mut runner = LocalRunner::serial();
        runner.split_bytes = 32 * 1024; // several map tasks

        let plain = runner.run(&wordcount("/i", "/o", 1), &inputs, &SideFiles::new()).unwrap();
        let inmapper =
            runner.run(&wordcount_inmapper("/i", "/o", 1), &inputs, &SideFiles::new()).unwrap();
        // Plain emits one record per token; in-mapper emits one per
        // distinct word per task.
        assert_eq!(plain.counters.task(TaskCounter::MapOutputRecords), 20_000);
        assert!(
            inmapper.counters.task(TaskCounter::MapOutputRecords) < 2_000,
            "in-mapper: {}",
            inmapper.counters.task(TaskCounter::MapOutputRecords)
        );
    }
}

//! Word co-occurrence: Pairs vs Stripes.
//!
//! The course's lectures "follow the set of lecture notes from [Lin]",
//! whose signature advanced example is the co-occurrence matrix built two
//! ways:
//!
//! * **Pairs** — emit `((w1, w2), 1)` per co-occurring pair: tiny values,
//!   a huge number of tiny records, heavy shuffle;
//! * **Stripes** — emit `(w1, {w2: n, ...})` per word with an associative
//!   map value: far fewer, fatter records, much lighter shuffle, at the
//!   cost of per-record memory.
//!
//! Same output, different systems behaviour — the Pairs/Stripes contrast
//! is the general form of the combiner lesson, so it rounds out the
//! module's ablations.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use hl_common::error::Result;
use hl_common::keys::Pair;
use hl_common::writable::Writable;
use hl_mapreduce::api::{Combiner, MapContext, Mapper, ReduceContext, Reducer};
use hl_mapreduce::job::{Job, JobConf};

/// Neighborhood window: words within this distance co-occur.
const WINDOW: usize = 2;

/// A stripe: co-occurrence counts for one left word.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Stripe(pub BTreeMap<String, u64>);

impl Stripe {
    /// Element-wise merge (the stripe monoid).
    pub(crate) fn merge(mut self, other: Stripe) -> Stripe {
        for (w, n) in other.0 {
            *self.0.entry(w).or_default() += n;
        }
        self
    }
}

impl Writable for Stripe {
    fn write(&self, buf: &mut Vec<u8>) {
        let flat: Vec<(String, u64)> = self.0.iter().map(|(k, &v)| (k.clone(), v)).collect();
        flat.write(buf);
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        let flat = Vec::<(String, u64)>::read(buf)?;
        Ok(Stripe(flat.into_iter().collect()))
    }
}

fn neighbors<'a>(tokens: &'a [&'a str]) -> impl Iterator<Item = (String, String)> + 'a {
    tokens.iter().enumerate().flat_map(move |(i, &w)| {
        let lo = i.saturating_sub(WINDOW);
        let hi = (i + WINDOW + 1).min(tokens.len());
        (lo..hi).filter(move |&j| j != i).map(move |j| (w.to_string(), tokens[j].to_string()))
    })
}

// ------------------------------------------------------------------ pairs

/// Pairs mapper: one record per co-occurring pair.
pub struct PairsMapper;

impl Mapper for PairsMapper {
    type KOut = Pair<String, String>;
    type VOut = u64;
    fn map(&mut self, _o: u64, line: &str, ctx: &mut MapContext<Pair<String, String>, u64>) {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        for (a, b) in neighbors(&tokens) {
            ctx.emit(Pair(a, b), 1);
        }
    }
}

/// Pairs combiner/reducer: plain sums.
pub struct PairsSum;

impl Combiner for PairsSum {
    type K = Pair<String, String>;
    type V = u64;
    fn combine(
        &mut self,
        _k: &Pair<String, String>,
        values: impl IntoIterator<Item = u64>,
        out: &mut Vec<u64>,
    ) {
        out.push(values.into_iter().sum());
    }
}

/// Pairs reducer: emits `w1 w2 \t count`.
pub struct PairsReducer;

impl Reducer for PairsReducer {
    type KIn = Pair<String, String>;
    type VIn = u64;
    fn reduce(
        &mut self,
        key: impl Borrow<Pair<String, String>>,
        values: impl IntoIterator<Item = u64>,
        ctx: &mut ReduceContext,
    ) {
        let Pair(w1, w2) = key.borrow();
        ctx.emit(format_args!("{w1} {w2}"), values.into_iter().sum::<u64>());
    }
}

// ----------------------------------------------------------------- stripes

/// Stripes mapper: one map-valued record per word occurrence (with
/// in-line aggregation per call).
pub struct StripesMapper;

impl Mapper for StripesMapper {
    type KOut = String;
    type VOut = Stripe;
    fn map(&mut self, _o: u64, line: &str, ctx: &mut MapContext<String, Stripe>) {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let mut per_word: BTreeMap<String, Stripe> = BTreeMap::new();
        for (a, b) in neighbors(&tokens) {
            *per_word.entry(a).or_default().0.entry(b).or_default() += 1;
        }
        for (word, stripe) in per_word {
            ctx.emit(word, stripe);
        }
    }
}

/// Stripes combiner: element-wise merge.
pub struct StripesCombiner;

impl Combiner for StripesCombiner {
    type K = String;
    type V = Stripe;
    fn combine(
        &mut self,
        _k: &String,
        values: impl IntoIterator<Item = Stripe>,
        out: &mut Vec<Stripe>,
    ) {
        out.push(values.into_iter().fold(Stripe::default(), Stripe::merge));
    }
}

/// Stripes reducer: merge, then flatten to the Pairs output format.
pub struct StripesReducer;

impl Reducer for StripesReducer {
    type KIn = String;
    type VIn = Stripe;
    fn reduce(
        &mut self,
        key: impl Borrow<String>,
        values: impl IntoIterator<Item = Stripe>,
        ctx: &mut ReduceContext,
    ) {
        let key = key.borrow();
        let merged = values.into_iter().fold(Stripe::default(), Stripe::merge);
        for (w2, n) in merged.0 {
            ctx.emit(format_args!("{key} {w2}"), n);
        }
    }
}

/// The Pairs job.
pub fn pairs(
    input: &str,
    output: &str,
    reduces: usize,
) -> Job<PairsMapper, PairsReducer, PairsSum> {
    Job::with_combiner(
        JobConf::new("cooccurrence-pairs").input(input).output(output).reduces(reduces),
        || PairsMapper,
        || PairsReducer,
        || PairsSum,
    )
}

/// The Stripes job.
pub fn stripes(
    input: &str,
    output: &str,
    reduces: usize,
) -> Job<StripesMapper, StripesReducer, StripesCombiner> {
    Job::with_combiner(
        JobConf::new("cooccurrence-stripes").input(input).output(output).reduces(reduces),
        || StripesMapper,
        || StripesReducer,
        || StripesCombiner,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_mapreduce::api::SideFiles;
    use hl_mapreduce::local::LocalRunner;

    fn reference(text: &str) -> BTreeMap<String, u64> {
        let mut counts = BTreeMap::new();
        for line in text.lines() {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            for (a, b) in neighbors(&tokens) {
                *counts.entry(format!("{a} {b}")).or_default() += 1;
            }
        }
        counts
    }

    fn parse(lines: &[String]) -> BTreeMap<String, u64> {
        lines
            .iter()
            .map(|l| {
                let (k, v) = l.split_once('\t').unwrap();
                (k.to_string(), v.parse().unwrap())
            })
            .collect()
    }

    const TEXT: &str = "the quick brown fox\nthe lazy dog and the quick cat\n\
                        a dog a fox a cat\n";

    #[test]
    fn pairs_and_stripes_agree_with_reference() {
        let want = reference(TEXT);
        let inputs = vec![("t.txt".to_string(), TEXT.as_bytes().to_vec())];
        let runner = LocalRunner::serial();
        let p = runner.run(&pairs("/i", "/o", 2), &inputs, &SideFiles::new()).unwrap();
        assert_eq!(parse(&p.output), want);
        let s = runner.run(&stripes("/i", "/o", 2), &inputs, &SideFiles::new()).unwrap();
        assert_eq!(parse(&s.output), want);
    }

    #[test]
    fn window_semantics() {
        // "a b c d": a sees b,c; b sees a,c,d; symmetric counting.
        let want = reference("a b c d\n");
        assert_eq!(want["a b"], 1);
        assert_eq!(want["a c"], 1);
        assert!(!want.contains_key("a d"), "d is outside a's window");
        assert_eq!(want["b a"], 1);
        // Totals are symmetric.
        for (k, v) in &want {
            let (x, y) = k.split_once(' ').unwrap();
            assert_eq!(want[&format!("{y} {x}")], *v, "{k}");
        }
    }

    #[test]
    fn stripes_emit_fewer_records_than_pairs() {
        use hl_common::counters::TaskCounter;
        let text = TEXT.repeat(200);
        let inputs = vec![("t.txt".to_string(), text.into_bytes())];
        let runner = LocalRunner::serial();
        let p = runner.run(&pairs("/i", "/o", 1), &inputs, &SideFiles::new()).unwrap();
        let s = runner.run(&stripes("/i", "/o", 1), &inputs, &SideFiles::new()).unwrap();
        let pr = p.counters.task(TaskCounter::MapOutputRecords);
        let sr = s.counters.task(TaskCounter::MapOutputRecords);
        assert!(sr * 2 < pr, "stripes {sr} vs pairs {pr}");
    }

    #[test]
    fn stripe_writable_round_trips() {
        let mut s = Stripe::default();
        s.0.insert("fox".into(), 3);
        s.0.insert("dog".into(), 1);
        assert_eq!(Stripe::from_bytes(&s.to_bytes()).unwrap(), s);
        assert_eq!(Stripe::from_bytes(&Stripe::default().to_bytes()).unwrap(), Stripe::default());
    }

    #[test]
    fn stripe_merge_is_a_monoid() {
        let a = Stripe([("x".to_string(), 1)].into_iter().collect());
        let b = Stripe([("x".to_string(), 2), ("y".to_string(), 5)].into_iter().collect());
        let ab = a.clone().merge(b.clone());
        assert_eq!(ab.0["x"], 3);
        assert_eq!(ab.0["y"], 5);
        assert_eq!(a.clone().merge(Stripe::default()), a);
        assert_eq!(b.clone().merge(a.clone()), a.merge(b)); // commutative here
    }
}

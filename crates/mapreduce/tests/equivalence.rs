//! Equivalence suite for the sort/spill/shuffle hot path.
//!
//! The arena-backed `SortBuffer` and the tournament-tree merge are pure
//! performance rewrites: their observable behavior — output bytes, spill
//! accounting, combiner counters — must be byte-identical to the original
//! owned-pairs pipeline. This file keeps a naive reference implementation
//! of that pipeline (per-record `Vec`s, stable sorts, concat-and-sort
//! merge) and drives both with the same inputs:
//!
//! * a seeded deterministic sweep (always runs), and
//! * a `proptest` property over random inputs,
//!
//! each once over wordcount-shaped keys and once over keys the sort's
//! cached 8-byte prefix cannot decide (longer than the prefix, equal up
//! to it, containing `0x00`, empty) — plus a sweep of key and value
//! lengths at every width of a run's varint framing.

use hl_common::counters::{Counters, TaskCounter};
use hl_common::hash::default_partition;
use hl_common::keys::SortableKey;
use hl_common::writable::Writable;
use hl_mapreduce::api::{Combiner, NoCombiner};
use hl_mapreduce::merge::merge_groups;
use hl_mapreduce::sortbuf::{SortBuffer, SortedRun};

// ---------------------------------------------------------------------------
// Naive reference: the pre-kvbuffer pipeline, owned pairs all the way.
// ---------------------------------------------------------------------------

type Pair = (Vec<u8>, Vec<u8>);

struct RefOutput {
    partitions: Vec<Vec<Pair>>,
    spill_bytes_written: u64,
    spill_bytes_read: u64,
    num_spills: u32,
    peak_buffered: usize,
}

struct RefBuffer {
    num_partitions: usize,
    buffer_limit: usize,
    current: Vec<Vec<Pair>>,
    bytes_buffered: usize,
    peak_buffered: usize,
    spills: Vec<Vec<Vec<Pair>>>,
    spill_bytes_written: u64,
}

/// A run's records as owned pairs, in sorted order.
fn to_pairs(run: &SortedRun) -> Vec<Pair> {
    run.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect()
}

fn pairs_bytes(run: &[Pair]) -> u64 {
    run.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum()
}

impl RefBuffer {
    fn new(num_partitions: usize, buffer_limit: usize) -> Self {
        RefBuffer {
            num_partitions,
            buffer_limit: buffer_limit.max(1),
            current: vec![Vec::new(); num_partitions],
            bytes_buffered: 0,
            peak_buffered: 0,
            spills: Vec::new(),
            spill_bytes_written: 0,
        }
    }

    fn collect<K: SortableKey, V: Writable, C: Combiner<K = K, V = V>>(
        &mut self,
        key: &K,
        value: &V,
        combiner: Option<&mut C>,
        counters: &mut Counters,
    ) {
        let kbytes = key.ordered_bytes();
        let vbytes = value.to_bytes();
        let p = default_partition(&kbytes, self.num_partitions);
        self.bytes_buffered += kbytes.len() + vbytes.len();
        self.peak_buffered = self.peak_buffered.max(self.bytes_buffered);
        self.current[p].push((kbytes, vbytes));
        if self.bytes_buffered >= self.buffer_limit {
            self.spill(combiner, counters);
        }
    }

    fn spill<K: SortableKey, V: Writable, C: Combiner<K = K, V = V>>(
        &mut self,
        combiner: Option<&mut C>,
        counters: &mut Counters,
    ) {
        // By records, not bytes: an empty key with an empty value is a
        // record of no bytes.
        if self.current.iter().all(Vec::is_empty) {
            return;
        }
        let mut combiner = combiner;
        let mut spill = Vec::with_capacity(self.num_partitions);
        for part in self.current.iter_mut() {
            let mut run = std::mem::take(part);
            // Stable by-key sort: equal keys keep collect order.
            run.sort_by(|a, b| a.0.cmp(&b.0));
            counters.incr_task(TaskCounter::SpilledRecords, run.len() as u64);
            let run = match combiner.as_deref_mut() {
                Some(c) => ref_combine(group_pairs(run), c, counters),
                None => run,
            };
            self.spill_bytes_written += pairs_bytes(&run);
            spill.push(run);
        }
        self.spills.push(spill);
        self.bytes_buffered = 0;
    }

    fn finish<K: SortableKey, V: Writable, C: Combiner<K = K, V = V>>(
        mut self,
        combiner: Option<&mut C>,
        counters: &mut Counters,
    ) -> RefOutput {
        let mut combiner = combiner;
        self.spill(combiner.as_deref_mut(), counters);
        let num_spills = self.spills.len() as u32;
        let mut partitions = Vec::with_capacity(self.num_partitions);
        let mut read = 0u64;
        let mut written = 0u64;
        for p in 0..self.num_partitions {
            let runs: Vec<Vec<Pair>> =
                self.spills.iter_mut().map(|s| std::mem::take(&mut s[p])).collect();
            let out = if runs.len() == 1 {
                runs.into_iter().next().unwrap()
            } else if runs.is_empty() {
                Vec::new()
            } else {
                read += runs.iter().map(|r| pairs_bytes(r)).sum::<u64>();
                // Reference merge: concatenate in run order, stable sort by
                // key — exactly "run order, then intra-run order" grouping.
                let mut all: Vec<Pair> = runs.into_iter().flatten().collect();
                all.sort_by(|a, b| a.0.cmp(&b.0));
                let out = match combiner.as_deref_mut() {
                    Some(c) => ref_combine(group_pairs(all), c, counters),
                    None => all,
                };
                written += pairs_bytes(&out);
                out
            };
            partitions.push(out);
        }
        RefOutput {
            partitions,
            spill_bytes_written: self.spill_bytes_written + written,
            spill_bytes_read: read,
            num_spills,
            peak_buffered: self.peak_buffered,
        }
    }
}

fn group_pairs(run: Vec<Pair>) -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
    let mut groups: Vec<(Vec<u8>, Vec<Vec<u8>>)> = Vec::new();
    for (k, v) in run {
        match groups.last_mut() {
            Some((gk, vs)) if *gk == k => vs.push(v),
            _ => groups.push((k, vec![v])),
        }
    }
    groups
}

fn ref_combine<K: SortableKey, V: Writable, C: Combiner<K = K, V = V>>(
    groups: Vec<(Vec<u8>, Vec<Vec<u8>>)>,
    combiner: &mut C,
    counters: &mut Counters,
) -> Vec<Pair> {
    let mut out = Vec::new();
    for (kbytes, vlist) in groups {
        let mut ks = kbytes.as_slice();
        let key = K::decode_ordered(&mut ks).unwrap();
        let values: Vec<V> = vlist.iter().map(|b| V::from_bytes(b).unwrap()).collect();
        counters.incr_task(TaskCounter::CombineInputRecords, values.len() as u64);
        let mut folded = Vec::new();
        combiner.combine(&key, values, &mut folded);
        counters.incr_task(TaskCounter::CombineOutputRecords, folded.len() as u64);
        for v in folded {
            out.push((kbytes.clone(), v.to_bytes()));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Driving both pipelines
// ---------------------------------------------------------------------------

struct SumCombiner<K>(std::marker::PhantomData<fn() -> K>);
impl<K: SortableKey + Send> Combiner for SumCombiner<K> {
    type K = K;
    type V = u64;
    fn combine(&mut self, _k: &K, values: impl IntoIterator<Item = u64>, out: &mut Vec<u64>) {
        out.push(values.into_iter().sum());
    }
}

/// Run the arena pipeline and the reference pipeline over the same input
/// and assert byte-identical output plus identical accounting.
fn check_against_reference<K, C>(
    pairs: &[(K, u64)],
    parts: usize,
    limit: usize,
    combiner: impl Fn() -> Option<C>,
) where
    K: SortableKey,
    C: Combiner<K = K, V = u64>,
{
    let mut c1 = combiner();
    let ctx = format!("parts={parts} limit={limit} combine={} n={}", c1.is_some(), pairs.len());

    let mut counters = Counters::new();
    let mut buf: SortBuffer<K, u64> = SortBuffer::new(parts, limit);
    for (k, v) in pairs {
        buf.collect(k, v, c1.as_mut(), &mut counters);
    }
    let peak = buf.peak_buffered;
    let out = buf.finish(c1.as_mut(), &mut counters);

    let mut ref_counters = Counters::new();
    let mut rbuf = RefBuffer::new(parts, limit);
    let mut c2 = combiner();
    for (k, v) in pairs {
        rbuf.collect(k, v, c2.as_mut(), &mut ref_counters);
    }
    let rout = rbuf.finish(c2.as_mut(), &mut ref_counters);

    assert_eq!(out.partitions.len(), rout.partitions.len(), "{ctx}");
    let mut scratch = Vec::new();
    for p in 0..parts {
        assert_eq!(to_pairs(&out.partitions[p]), rout.partitions[p], "partition {p}: {ctx}");
        assert_eq!(out.partitions[p].len(), rout.partitions[p].len(), "len {p}: {ctx}");
        assert_eq!(out.partitions[p].is_empty(), rout.partitions[p].is_empty(), "{p}: {ctx}");
        assert_eq!(out.partitions[p].bytes(), pairs_bytes(&rout.partitions[p]), "bytes {p}: {ctx}");
        // What map-output compression packs: the records and nothing else.
        let flat: Vec<u8> = rout.partitions[p]
            .iter()
            .flat_map(|(k, v)| [k.as_slice(), v.as_slice()].concat())
            .collect();
        assert_eq!(out.partitions[p].record_bytes(&mut scratch), flat, "record_bytes {p}: {ctx}");
    }
    assert_eq!(out.num_spills, rout.num_spills, "num_spills: {ctx}");
    assert_eq!(out.spill_bytes_written, rout.spill_bytes_written, "spill_bytes_written: {ctx}");
    assert_eq!(out.spill_bytes_read, rout.spill_bytes_read, "spill_bytes_read: {ctx}");
    assert_eq!(peak, rout.peak_buffered, "peak_buffered: {ctx}");
    assert_eq!(counters, ref_counters, "counters: {ctx}");
}

/// Both pipelines with the summing combiner (`combine`) or without one.
fn assert_equivalent<K: SortableKey + Send>(
    pairs: &[(K, u64)],
    parts: usize,
    limit: usize,
    combine: bool,
) {
    check_against_reference(pairs, parts, limit, || {
        combine.then_some(SumCombiner(std::marker::PhantomData))
    });
}

/// Both pipelines through the `NoCombiner` type.
fn no_combiner_equivalent<K: SortableKey + Send>(pairs: &[(K, u64)], parts: usize, limit: usize) {
    check_against_reference(pairs, parts, limit, || None::<NoCombiner<K, u64>>);
}

/// splitmix64 — deterministic inputs without a rand dependency.
struct Prng(u64);
impl Prng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn gen_pairs(rng: &mut Prng, n: usize, vocab: usize) -> Vec<(String, u64)> {
    (0..n)
        .map(|_| (format!("w{:03}", rng.next() as usize % vocab.max(1)), rng.next() % 1000))
        .collect()
}

#[test]
fn seeded_sweep_matches_reference() {
    let mut rng = Prng(0xC0FFEE);
    for case in 0..120u64 {
        let n = (rng.next() % 250) as usize;
        let vocab = 1 + (rng.next() % 40) as usize;
        let parts = 1 + (rng.next() % 4) as usize;
        let limit = 16 + (rng.next() % 2048) as usize;
        let pairs = gen_pairs(&mut rng, n, vocab);
        if case % 2 == 0 {
            assert_equivalent(&pairs, parts, limit, case % 4 == 0);
        } else {
            no_combiner_equivalent(&pairs, parts, limit);
        }
    }
}

#[test]
fn single_record_and_empty_edge_cases() {
    assert_equivalent::<String>(&[], 3, 64, true);
    assert_equivalent(&[("only".to_string(), 7)], 1, 1, true);
    no_combiner_equivalent(&[("only".to_string(), 7)], 2, 1);
    // Every record forces a spill: num_spills == records, merge re-reads.
    let pairs: Vec<(String, u64)> = (0..20).map(|i| (format!("k{}", i % 3), i)).collect();
    assert_equivalent(&pairs, 2, 1, true);
    no_combiner_equivalent(&pairs, 2, 1);
}

proptest::proptest! {
    #[test]
    fn prop_arena_pipeline_matches_reference(
        raw in proptest::collection::vec(("[a-h]{1,4}", 0u64..500), 0..200),
        parts in 1usize..5,
        limit in 16usize..4096,
        combine in proptest::prelude::any::<bool>(),
    ) {
        let pairs: Vec<(String, u64)> = raw;
        if combine {
            assert_equivalent(&pairs, parts, limit, true);
        } else {
            no_combiner_equivalent(&pairs, parts, limit);
        }
    }
}

// ---------------------------------------------------------------------------
// Keys the 8-byte sort prefix cannot decide
// ---------------------------------------------------------------------------

/// A key that is its own encoding, so a test can put any bytes — `0x00`,
/// nothing at all — into the sort buffer. (Not self-delimiting, which the
/// buffer never needs: it hands `decode_ordered` exactly one key.)
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct RawKey(Vec<u8>);

impl Writable for RawKey {
    fn write(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }
    fn read(buf: &mut &[u8]) -> hl_common::error::Result<Self> {
        Ok(RawKey(std::mem::take(buf).to_vec()))
    }
}

impl SortableKey for RawKey {
    fn encode_ordered(&self, buf: &mut Vec<u8>) {
        self.write(buf);
    }
    fn decode_ordered(buf: &mut &[u8]) -> hl_common::error::Result<Self> {
        Self::read(buf)
    }
}

/// A key over `{0x00, 'a', 'b'}` of length 0..=12, bare or behind the
/// eight bytes of `"prefixed"`: empty keys, keys that differ only past the
/// prefix, and `"a"` beside `"a\0"`, whose zero-padded prefixes collide.
fn adversarial_key(symbols: &[u8], prefixed: bool) -> RawKey {
    let mut key = if prefixed { b"prefixed".to_vec() } else { Vec::new() };
    key.extend(symbols.iter().map(|s| [0x00, b'a', b'b'][usize::from(*s) % 3]));
    RawKey(key)
}

fn gen_adversarial(rng: &mut Prng, n: usize) -> Vec<(RawKey, u64)> {
    (0..n)
        .map(|_| {
            let len = (rng.next() % 13) as usize;
            let symbols: Vec<u8> = (0..len).map(|_| (rng.next() % 3) as u8).collect();
            (adversarial_key(&symbols, rng.next().is_multiple_of(3)), rng.next() % 1000)
        })
        .collect()
}

#[test]
fn adversarial_keys_match_reference() {
    // Sizes on both sides of every power of two a sort might switch
    // strategy at; limits from "every record spills" to "never spills".
    const SIZES: [usize; 14] = [0, 1, 2, 3, 7, 8, 9, 31, 32, 33, 255, 256, 257, 1500];
    const LIMITS: [usize; 6] = [1, 13, 64, 700, 4096, usize::MAX >> 1];
    let mut rng = Prng(0xAD7E_25A1);
    for case in 0..168usize {
        let pairs = gen_adversarial(&mut rng, SIZES[case % SIZES.len()]);
        let parts = 1 + case % 4;
        let limit = LIMITS[(rng.next() % 6) as usize];
        match case % 3 {
            0 => assert_equivalent(&pairs, parts, limit, true),
            1 => assert_equivalent(&pairs, parts, limit, false),
            _ => no_combiner_equivalent(&pairs, parts, limit),
        }
    }
}

#[test]
fn prefix_collisions_keep_byte_order_and_arrival_order() {
    // One spill holding every ordering the prefix gets wrong or leaves
    // open; values record arrival so stability is visible in the bytes.
    let keys: [&[u8]; 9] =
        [b"a\0", b"a", b"", b"prefixedb", b"prefixed", b"a", b"prefixeda", b"", b"a\0\0"];
    let pairs: Vec<(RawKey, u64)> =
        keys.iter().zip(0u64..).map(|(k, i)| (RawKey(k.to_vec()), i)).collect();
    for parts in 1..=4 {
        no_combiner_equivalent(&pairs, parts, usize::MAX >> 1);
        assert_equivalent(&pairs, parts, 1, true);
    }
}

#[test]
fn i64_keys_sort_by_the_prefix_alone() {
    // An i64 encodes to exactly eight bytes: the prefix is the whole key
    // and the tie pass has nothing to compare.
    let mut rng = Prng(64);
    let edges = [i64::MIN, -1, 0, 1, i64::MAX];
    let pairs: Vec<(i64, u64)> = (0..600)
        .map(|i| {
            let k = match rng.next() % 3 {
                0 => edges[(rng.next() % 5) as usize],
                1 => (rng.next() % 7) as i64 - 3,
                _ => rng.next() as i64,
            };
            (k, i)
        })
        .collect();
    for (parts, limit) in [(1, usize::MAX >> 1), (3, 512), (4, 1)] {
        assert_equivalent(&pairs, parts, limit, true);
        no_combiner_equivalent(&pairs, parts, limit);
    }
}

// ---------------------------------------------------------------------------
// Lengths at the edges of a run's varint framing
// ---------------------------------------------------------------------------

/// A value that is its own bytes, of any length.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RawValue(Vec<u8>);

impl Writable for RawValue {
    fn write(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }
    fn read(buf: &mut &[u8]) -> hl_common::error::Result<Self> {
        Ok(RawValue(std::mem::take(buf).to_vec()))
    }
}

/// Keeps the longest value of a group, so the combiner's output carries
/// lengths as long as its input's.
struct LongestValue;
impl Combiner for LongestValue {
    type K = RawKey;
    type V = RawValue;
    fn combine(
        &mut self,
        _k: &RawKey,
        values: impl IntoIterator<Item = RawValue>,
        out: &mut Vec<RawValue>,
    ) {
        out.extend(values.into_iter().max_by_key(|v| v.0.len()));
    }
}

/// [`check_against_reference`] for raw values, plus the runs merged once
/// more through `merge_groups` against the reference's groups.
fn framing_equivalent(pairs: &[(RawKey, RawValue)], parts: usize, limit: usize, combine: bool) {
    let ctx = format!("parts={parts} limit={limit} combine={combine} n={}", pairs.len());
    let (mut c1, mut c2) = (LongestValue, LongestValue);
    let (mut c1, mut c2) = (combine.then_some(&mut c1), combine.then_some(&mut c2));

    let mut counters = Counters::new();
    let mut buf: SortBuffer<RawKey, RawValue> = SortBuffer::new(parts, limit);
    for (k, v) in pairs {
        buf.collect(k, v, c1.as_deref_mut(), &mut counters);
    }
    let out = buf.finish(c1, &mut counters);

    let mut ref_counters = Counters::new();
    let mut rbuf = RefBuffer::new(parts, limit);
    for (k, v) in pairs {
        rbuf.collect(k, v, c2.as_deref_mut(), &mut ref_counters);
    }
    let rout = rbuf.finish(c2, &mut ref_counters);

    let mut scratch = Vec::new();
    for p in 0..parts {
        let (run, want) = (&out.partitions[p], &rout.partitions[p]);
        assert_eq!(to_pairs(run), *want, "partition {p}: {ctx}");
        assert_eq!(run.bytes(), pairs_bytes(want), "bytes {p}: {ctx}");
        let flat: Vec<u8> =
            want.iter().flat_map(|(k, v)| [k.as_slice(), v.as_slice()].concat()).collect();
        assert!(run.record_bytes(&mut scratch) == flat, "record_bytes {p}: {ctx}");
    }
    assert_eq!(out.spill_bytes_written, rout.spill_bytes_written, "spill_bytes_written: {ctx}");
    assert_eq!(out.spill_bytes_read, rout.spill_bytes_read, "spill_bytes_read: {ctx}");
    assert_eq!(out.num_spills, rout.num_spills, "num_spills: {ctx}");
    assert_eq!(counters, ref_counters, "counters: {ctx}");

    // The reduce side's merge over every partition at once, as if each were
    // a map's segment: groups by key, values in run order.
    let merged: Vec<(Vec<u8>, Vec<Vec<u8>>)> = merge_groups(&out.partitions)
        .map(|(k, vs)| (k.to_vec(), vs.into_iter().map(<[u8]>::to_vec).collect()))
        .collect();
    let mut all: Vec<Pair> = rout.partitions.into_iter().flatten().collect();
    all.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(merged == group_pairs(all), "merge_groups: {ctx}");
}

#[test]
fn lengths_at_every_varint_width_match_reference() {
    // 0 and 127 frame in one byte, 128 and 16 383 in two, 16 384 in three,
    // and a value past 2 MiB in four; keys include the empty key.
    const LENS: [usize; 6] = [0, 127, 128, 16_383, 16_384, (2 << 20) + 5];
    let mut pairs = Vec::new();
    for (i, &k) in LENS[..5].iter().enumerate() {
        for (j, &v) in LENS[..5].iter().enumerate() {
            let key = RawKey(vec![b'a' + (i as u8 + j as u8) % 3; k]);
            pairs.push((key, RawValue(vec![u8::try_from(j).unwrap(); v])));
        }
    }
    pairs.push((RawKey(Vec::new()), RawValue(vec![7; LENS[5]])));
    pairs.push((RawKey(b"big".to_vec()), RawValue(vec![8; LENS[5]])));
    pairs.push((RawKey(Vec::new()), RawValue(Vec::new())));
    // One spill, a few spills, and a spill per record.
    for limit in [usize::MAX >> 1, 64 << 10, 1] {
        for parts in [1, 3] {
            framing_equivalent(&pairs, parts, limit, false);
            framing_equivalent(&pairs, parts, limit, true);
        }
    }
}

proptest::proptest! {
    #[test]
    fn prop_adversarial_keys_match_reference(
        raw in proptest::collection::vec(
            (proptest::collection::vec(0u8..3, 0..13), proptest::prelude::any::<bool>(), 0u64..500),
            0..300,
        ),
        parts in 1usize..5,
        limit in proptest::prop_oneof![1usize..64, 64usize..8192, proptest::strategy::Just(usize::MAX >> 1)],
        combine in proptest::prelude::any::<bool>(),
    ) {
        let pairs: Vec<(RawKey, u64)> =
            raw.iter().map(|(symbols, prefixed, v)| (adversarial_key(symbols, *prefixed), *v)).collect();
        if combine {
            assert_equivalent(&pairs, parts, limit, true);
        } else {
            no_combiner_equivalent(&pairs, parts, limit);
        }
    }
}

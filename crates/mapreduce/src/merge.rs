//! K-way merge of sorted serialized runs, with equal-key grouping.
//!
//! Used twice, as in Hadoop: on the map side to merge spill files, and on
//! the reduce side to merge the sorted segments fetched from every map
//! task. Comparison is raw-byte (`memcmp`) — keys use order-preserving
//! encodings, so this is both the cheapest and the correct comparison.
//!
//! The merge is a tournament tree over run cursors (Hadoop's
//! `Merger.MergeQueue` plays the same game): a pop replays one
//! leaf-to-root path of ⌈log₂ k⌉ comparisons on **borrowed key slices** —
//! no per-record key copies, no heap node churn. Each run is read forwards,
//! a record's frame decoded once, when it becomes its run's head. Ties go
//! to the lowest-numbered run, so group values keep run order then
//! intra-run order, which students observe as deterministic reducer input.
//!
//! A run whose next record is marked as repeating the key it just yielded
//! keeps the tournament without a replay: it was the lowest-numbered run
//! holding the smallest key, and it still is. Uncombined wordcount runs
//! are mostly such repeats. The merge's own output marks its repeats the
//! same way: while one run keeps winning, that run's marks hold for the
//! output, and only where the champion switches runs is a key compared
//! with the one yielded before it. Grouping reads those marks.

use hl_common::error::Result;
use hl_common::keys::SortableKey;

use crate::sortbuf::{Record, Records, SortedRun};

/// Marks an empty leaf in a tournament tree padded to a power of two. No
/// cursor has this index, so a lookup of it finds nothing.
const NO_RUN: usize = usize::MAX;

/// One input run as the merge reads it.
struct Cursor<'a> {
    /// The run's next record (`None` when exhausted), decoded once, so
    /// replays compare cached key slices.
    head: Option<Record<'a>>,
    /// The records after it.
    rest: Records<'a>,
}

/// Streaming record-level merge: yields `(key, value)` slices in
/// ascending key order, borrowing from the input runs.
pub(crate) struct MergeIter<'a> {
    /// One cursor per run, indexed by run number.
    cursors: Vec<Cursor<'a>>,
    /// Leaf count, `runs.len()` padded up to a power of two (min 1).
    leaves: usize,
    /// Winner tree as a 1-based array: `tree[1]` is the champion,
    /// `tree[leaves + r]` is leaf `r`. Internal nodes hold the run index
    /// winning that sub-tournament.
    tree: Vec<usize>,
    /// The champion also won the previous replay, so it yielded the
    /// record before, and its next record's repeat mark says whether it
    /// still holds the smallest key.
    streak: bool,
    /// The key yielded at the last replay; a streak yields only repeats of
    /// it. A switch of runs compares the new champion's key with it.
    last_key: Option<&'a [u8]>,
}

impl<'a> MergeIter<'a> {
    /// Build the tournament over `runs`.
    pub(crate) fn new(runs: &'a [SortedRun]) -> Self {
        let leaves = runs.len().next_power_of_two().max(1);
        let mut tree = vec![NO_RUN; 2 * leaves];
        for r in 0..runs.len() {
            tree[leaves + r] = r;
        }
        let cursors = runs
            .iter()
            .map(|run| {
                let mut rest = run.records();
                Cursor { head: rest.next(), rest }
            })
            .collect();
        let mut it = MergeIter { cursors, leaves, tree, streak: false, last_key: None };
        for n in (1..leaves).rev() {
            it.tree[n] = it.play(it.tree[2 * n], it.tree[2 * n + 1]);
        }
        it
    }

    /// Current key of run `r`, or `None` when exhausted / empty leaf.
    #[inline]
    fn key_at(&self, r: usize) -> Option<&'a [u8]> {
        self.cursors.get(r)?.head.map(|h| h.key)
    }

    /// Winner of one match: smaller key wins, exhausted runs lose, ties
    /// go to the lower run index (left operand — left subtrees hold
    /// lower-numbered leaves).
    #[inline]
    fn play(&self, a: usize, b: usize) -> usize {
        match (self.key_at(a), self.key_at(b)) {
            (Some(ka), Some(kb)) => {
                if ka <= kb {
                    a
                } else {
                    b
                }
            }
            (Some(_), None) => a,
            (None, _) => b,
        }
    }

    /// The next record, its `repeat` marking a key equal to the record
    /// yielded before it.
    #[inline]
    pub(crate) fn next_record(&mut self) -> Option<Record<'a>> {
        let r = self.tree[1];
        let cursor = self.cursors.get_mut(r)?;
        let mut record = cursor.head?;
        let next = cursor.rest.next();
        cursor.head = next;
        debug_assert!(next.is_none_or(|n| n.key >= record.key), "run {r} not sorted");
        if !self.streak {
            // A switch of runs (or the first record): the run's mark
            // speaks of a record some other run may have yielded since.
            record.repeat = self.last_key == Some(record.key);
        }
        if self.streak && next.is_some_and(|n| n.repeat) {
            // Still the lowest-numbered run holding the smallest key:
            // every match on its path would come out as it did.
            return Some(record);
        }
        self.last_key = Some(record.key);
        self.replay(r);
        Some(record)
    }

    /// Replay only the path from run `r`'s leaf to the root. Kept out of
    /// line, so the pop inlined into each caller stays small.
    #[inline(never)]
    fn replay(&mut self, r: usize) {
        let mut n = self.leaves + r;
        while n > 1 {
            n /= 2;
            self.tree[n] = self.play(self.tree[2 * n], self.tree[2 * n + 1]);
        }
        self.streak = self.tree[1] == r;
    }
}

impl<'a> Iterator for MergeIter<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().map(|r| (r.key, r.value))
    }
}

/// Streaming group-level merge: yields `(key, values)` with all values
/// for one key gathered, still borrowing from the runs.
pub struct GroupIter<'a> {
    inner: MergeIter<'a>,
    /// The first record of the next group, read while ending this one.
    pending: Option<Record<'a>>,
}

impl<'a> GroupIter<'a> {
    /// The next group's key, with `values` emptied and refilled with the
    /// group's values: a caller that keeps one `values` across the whole
    /// merge allocates for the largest group only.
    pub(crate) fn next_into(&mut self, values: &mut Vec<&'a [u8]>) -> Option<&'a [u8]> {
        values.clear();
        let first = match self.pending.take() {
            Some(record) => record,
            None => self.inner.next_record()?,
        };
        values.push(first.value);
        while let Some(record) = self.inner.next_record() {
            if record.repeat {
                values.push(record.value);
            } else {
                self.pending = Some(record);
                break;
            }
        }
        Some(first.key)
    }
}

/// [`GroupIter::next_into`] with a fresh `Vec` per group.
impl<'a> Iterator for GroupIter<'a> {
    type Item = (&'a [u8], Vec<&'a [u8]>);

    fn next(&mut self) -> Option<Self::Item> {
        let mut values = Vec::new();
        let k = self.next_into(&mut values)?;
        Some((k, values))
    }
}

/// Decode a group's ordered key bytes into `slot`, refilling the key a
/// previous group left there, so a stream of groups keeps one key.
pub(crate) fn decode_key<'k, K: SortableKey>(
    slot: &'k mut Option<K>,
    mut kbytes: &[u8],
) -> Result<&'k mut K> {
    match slot {
        Some(key) => K::decode_ordered_into(&mut kbytes, key).map(|()| key),
        None => K::decode_ordered(&mut kbytes).map(|key| slot.insert(key)),
    }
}

/// Record-level streaming merge of `runs`.
pub(crate) fn merge_iter(runs: &[SortedRun]) -> MergeIter<'_> {
    MergeIter::new(runs)
}

/// Group-level streaming merge of `runs` (reducer input order).
pub fn merge_groups(runs: &[SortedRun]) -> GroupIter<'_> {
    GroupIter { inner: MergeIter::new(runs), pending: None }
}

/// Total serialized bytes of a set of runs (charging helper).
pub(crate) fn runs_bytes(runs: &[SortedRun]) -> u64 {
    runs.iter().map(SortedRun::bytes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_common::keys::SortableKey;

    /// The streaming merge collected into owned `(key, values)` groups.
    fn merge_runs(runs: &[SortedRun]) -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
        merge_groups(runs)
            .map(|(k, vs)| (k.to_vec(), vs.into_iter().map(<[u8]>::to_vec).collect()))
            .collect()
    }

    fn run(pairs: &[(&str, u64)]) -> SortedRun {
        SortedRun::from_pairs(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string().ordered_bytes(), v.to_be_bytes().to_vec()))
                .collect(),
        )
    }

    fn key(bytes: &[u8]) -> String {
        let mut s = bytes;
        String::decode_ordered(&mut s).unwrap()
    }

    #[test]
    fn merges_and_groups() {
        let merged = merge_runs(&[
            run(&[("apple", 1), ("mango", 2)]),
            run(&[("apple", 3), ("pear", 4)]),
            run(&[("mango", 5)]),
        ]);
        let keys: Vec<String> = merged.iter().map(|(k, _)| key(k)).collect();
        assert_eq!(keys, vec!["apple", "mango", "pear"]);
        assert_eq!(merged[0].1.len(), 2);
        assert_eq!(merged[1].1.len(), 2);
        assert_eq!(merged[2].1.len(), 1);
    }

    #[test]
    fn empty_inputs() {
        assert!(merge_runs(&[]).is_empty());
        assert!(merge_runs(&[SortedRun::default(), SortedRun::default()]).is_empty());
        let one = merge_runs(&[run(&[("a", 1)]), SortedRun::default()]);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn group_values_keep_run_order() {
        let merged = merge_runs(&[run(&[("k", 10)]), run(&[("k", 20)]), run(&[("k", 30)])]);
        let values: Vec<u64> = merged[0]
            .1
            .iter()
            .map(|v| u64::from_be_bytes(v.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(values, vec![10, 20, 30]);
    }

    #[test]
    fn equal_keys_within_one_run_stay_contiguous() {
        // Repeated keys inside a single run must drain before a later run
        // with the same key contributes — run order, then intra-run order.
        let merged = merge_runs(&[run(&[("k", 1), ("k", 2)]), run(&[("k", 3), ("k", 4)])]);
        let values: Vec<u64> = merged[0]
            .1
            .iter()
            .map(|v| u64::from_be_bytes(v.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(values, vec![1, 2, 3, 4]);
    }

    /// Values of `key` in merge order, from the record iterator and from
    /// the group iterator; the two must agree.
    fn values_of(runs: &[SortedRun], key: &str) -> Vec<u64> {
        let want = key.to_string().ordered_bytes();
        let value = |v: &[u8]| u64::from_be_bytes(v.try_into().unwrap());
        let streamed: Vec<u64> =
            merge_iter(runs).filter(|(k, _)| *k == want).map(|(_, v)| value(v)).collect();
        let grouped: Vec<u64> = merge_groups(runs)
            .filter(|(k, _)| *k == want)
            .flat_map(|(_, vs)| vs.into_iter().map(value))
            .collect();
        assert_eq!(streamed, grouped, "merge_iter and merge_groups disagree on {key}");
        streamed
    }

    #[test]
    fn duplicates_inside_and_across_runs_keep_run_then_arrival_order() {
        // "k" repeats inside runs 0, 2 and 3 and across all of them, an
        // exhausted run sits between them, and smaller and larger keys
        // force real replays before and after each held stretch.
        let runs = vec![
            run(&[("a", 1), ("k", 10), ("k", 11), ("k", 12), ("z", 2)]),
            SortedRun::default(),
            run(&[("k", 20), ("k", 21), ("m", 3)]),
            run(&[("b", 4), ("k", 30), ("k", 31)]),
        ];
        assert_eq!(values_of(&runs, "k"), vec![10, 11, 12, 20, 21, 30, 31]);
        let keys: Vec<String> = merge_iter(&runs).map(|(k, _)| key(k)).collect();
        assert_eq!(keys, ["a", "b", "k", "k", "k", "k", "k", "k", "k", "m", "z"]);
    }

    #[test]
    fn duplicates_ending_a_run_hand_over_to_the_next_run() {
        // Run 0 ends inside its stretch of "k": the exhausted head must
        // lose the replay it finally triggers, not repeat or drop a record.
        let runs = vec![run(&[("j", 1), ("k", 10), ("k", 11)]), run(&[("k", 20), ("l", 2)])];
        assert_eq!(values_of(&runs, "k"), vec![10, 11, 20]);
        assert_eq!(merge_iter(&runs).count(), 5);
        // A run that is nothing but one key, alone and beside another.
        let only = vec![run(&[("k", 1), ("k", 2), ("k", 3)])];
        assert_eq!(values_of(&only, "k"), vec![1, 2, 3]);
        let pair = vec![run(&[("k", 1), ("k", 2)]), run(&[("k", 3)])];
        assert_eq!(values_of(&pair, "k"), vec![1, 2, 3]);
    }

    #[test]
    fn non_power_of_two_run_counts() {
        for nruns in 1usize..=9 {
            let runs: Vec<SortedRun> =
                (0..nruns).map(|r| run(&[("a", r as u64), ("z", 100 + r as u64)])).collect();
            let merged = merge_runs(&runs);
            assert_eq!(merged.len(), 2, "{nruns} runs");
            assert_eq!(merged[0].1.len(), nruns);
            // Run-order tiebreak: values ascend with run index.
            let firsts: Vec<u64> = merged[0]
                .1
                .iter()
                .map(|v| u64::from_be_bytes(v.as_slice().try_into().unwrap()))
                .collect();
            assert_eq!(firsts, (0..nruns as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn streaming_iter_matches_collected() {
        let runs = vec![run(&[("b", 2), ("d", 4)]), run(&[("a", 1), ("c", 3)])];
        let streamed: Vec<(Vec<u8>, Vec<u8>)> =
            merge_iter(&runs).map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        let collected: Vec<(Vec<u8>, Vec<u8>)> = merge_runs(&runs)
            .into_iter()
            .flat_map(|(k, vs)| vs.into_iter().map(move |v| (k.clone(), v)))
            .collect();
        assert_eq!(streamed, collected);
        assert!(streamed.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn merge_equals_global_sort() {
        // Split a shuffled set into runs, sort each, merge, and compare to
        // a global sort.
        let all: Vec<(String, u64)> =
            (0..300).map(|i| (format!("k{:03}", (i * 7) % 100), i as u64)).collect();
        let mut raw: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); 5];
        for (i, (k, v)) in all.iter().enumerate() {
            raw[i % 5].push((k.clone().ordered_bytes(), v.to_be_bytes().to_vec()));
        }
        let runs: Vec<SortedRun> = raw.into_iter().map(SortedRun::from_pairs).collect();
        let merged = merge_runs(&runs);
        assert_eq!(merged.len(), 100);
        let mut total = 0;
        for w in merged.windows(2) {
            assert!(w[0].0 < w[1].0, "keys strictly ascending across groups");
        }
        for (_, vs) in &merged {
            total += vs.len();
        }
        assert_eq!(total, 300);
    }

    #[test]
    fn runs_bytes_counts_serialized_size() {
        let r = run(&[("ab", 1)]);
        // "ab" + terminator = 3 bytes key, 8 bytes value.
        assert_eq!(runs_bytes(&[r]), 11);
        assert_eq!(runs_bytes(&[]), 0);
    }

    proptest::proptest! {
        #[test]
        fn prop_merge_preserves_multiset(
            data in proptest::collection::vec(("[a-e]{1,3}", 0u64..100), 0..120),
            nruns in 1usize..6,
        ) {
            let mut raw: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); nruns];
            for (i, (k, v)) in data.iter().enumerate() {
                raw[i % nruns].push((k.clone().ordered_bytes(), v.to_be_bytes().to_vec()));
            }
            let runs: Vec<SortedRun> = raw.into_iter().map(SortedRun::from_pairs).collect();
            let merged = merge_runs(&runs);
            // Flatten back and compare as multisets.
            let mut flat: Vec<(String, u64)> = merged
                .iter()
                .flat_map(|(k, vs)| {
                    let ks = key(k);
                    vs.iter()
                        .map(move |v| (ks.clone(), u64::from_be_bytes(v.as_slice().try_into().unwrap())))
                })
                .collect();
            let mut expected = data.clone();
            flat.sort();
            expected.sort();
            proptest::prop_assert_eq!(flat, expected);
        }
    }
}
